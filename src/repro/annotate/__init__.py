"""Annotation analysis: translation, mini-TBLASTX, exon coverage."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "blosum62": "blosum",
        "ExonCoverageReport": "exons",
        "exon_coverage": "exons",
        "uncovered_exons": "exons",
        "TblastxHit": "tblastx",
        "TblastxParams": "tblastx",
        "find_orthologous_exons": "tblastx",
        "AA_ALPHABET": "translate",
        "AA_STOP": "translate",
        "AA_X": "translate",
        "decode_protein": "translate",
        "encode_protein": "translate",
        "six_frame_translations": "translate",
        "translate": "translate",
        "TranslatedHit": "translated_search",
        "protein_space_recall": "translated_search",
        "translated_search": "translated_search",
    },
)

# Bound now, not through the table.  These exports share their
# submodule's name, and the import system sets the package attribute
# ``translate`` to the *module* the moment anything imports that
# submodule (DESIGN.md, "Import policy").
from .translate import translate  # noqa: E402
from .translated_search import translated_search  # noqa: E402
