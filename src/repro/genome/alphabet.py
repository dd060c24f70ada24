"""DNA alphabet and numeric encodings.

Darwin-WGA stores sequence characters from the extended DNA alphabet
{A, C, G, T, N} in on-chip BRAM using 3 bits per base (paper section IV).
This module defines the canonical numeric encoding used across the library:
``A=0, C=1, G=2, T=3, N=4``.  The ordering matters: codes 0-3 index the
4x4 substitution matrices directly, complementation is ``3 - code``, and
transitions (A<->G, C<->T) are exactly the pairs whose codes differ by 2.
"""

from __future__ import annotations

import numpy as np

#: Number of bits per base in the hardware BRAM encoding.
BITS_PER_BASE = 3

#: Canonical base ordering; index in this string is the numeric code.
BASES = "ACGTN"

#: Numeric codes for the four unambiguous nucleotides.
A, C, G, T = 0, 1, 2, 3

#: Numeric code for the ambiguous nucleotide.
N = 4

#: Number of unambiguous nucleotides.
NUM_NUCLEOTIDES = 4

#: Alphabet size including ``N``.
ALPHABET_SIZE = 5

_ENCODE_TABLE = np.full(256, N, dtype=np.uint8)
for _code, _base in enumerate(BASES):
    _ENCODE_TABLE[ord(_base)] = _code
    _ENCODE_TABLE[ord(_base.lower())] = _code

_DECODE_TABLE = np.frombuffer(BASES.encode("ascii"), dtype=np.uint8).copy()

#: Complement lookup: A<->T, C<->G, N->N.
COMPLEMENT = np.array([T, G, C, A, N], dtype=np.uint8)


def encode(text: str) -> np.ndarray:
    """Encode an ASCII DNA string into a ``uint8`` code array.

    Unknown characters (anything outside ``ACGTNacgtn``) become ``N``,
    mirroring how aligners treat ambiguity codes.

    >>> list(encode("ACGTN"))
    [0, 1, 2, 3, 4]
    """
    raw = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    return _ENCODE_TABLE[raw]


def ascii_codes(codes: np.ndarray) -> np.ndarray:
    """The upper-case ASCII byte of every code, as a ``uint8`` array.

    >>> ascii_codes(encode("acgtn")).tobytes()
    b'ACGTN'
    """
    codes = np.asarray(codes, dtype=np.uint8)
    if codes.size and codes.max() >= ALPHABET_SIZE:
        raise ValueError("code array contains values outside the alphabet")
    return _DECODE_TABLE[codes]


def decode(codes: np.ndarray) -> str:
    """Decode a code array back into an upper-case ASCII DNA string.

    >>> decode(encode("acgtn"))
    'ACGTN'
    """
    return ascii_codes(codes).tobytes().decode("ascii")


def complement(codes: np.ndarray) -> np.ndarray:
    """Return the element-wise complement of a code array."""
    return COMPLEMENT[np.asarray(codes, dtype=np.uint8)]


def reverse_complement(codes: np.ndarray) -> np.ndarray:
    """Return the reverse complement of a code array."""
    return complement(codes)[::-1]


def is_transition(a: int, b: int) -> bool:
    """True if substituting ``a`` for ``b`` is a transition (A<->G, C<->T).

    Transitions are purine<->purine or pyrimidine<->pyrimidine substitutions;
    they occur at higher-than-random frequency in real genomes, which is why
    LASTZ and Darwin-WGA seed patterns optionally tolerate one of them
    (paper Figure 5).
    """
    if a == b or a >= NUM_NUCLEOTIDES or b >= NUM_NUCLEOTIDES:
        return False
    return abs(int(a) - int(b)) == 2


def transition_partner(code: int) -> int:
    """Return the transition partner of an unambiguous base code."""
    if code >= NUM_NUCLEOTIDES:
        raise ValueError("N has no transition partner")
    return (int(code) + 2) % 4
