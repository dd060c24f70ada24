"""Genome substrate: sequences, I/O, synthesis, evolution, shuffles."""

from .._lazy import lazy_exports
from . import alphabet  # exported as a module; every sequence needs it

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "Assembly": "assembly",
        "split_into_chromosomes": "assembly",
        "MaskStats": "masking",
        "apply_soft_mask": "masking",
        "entropy_mask": "masking",
        "frequency_mask": "masking",
        "mask_intervals": "masking",
        "mask_stats": "masking",
        "Sequence": "sequence",
        "EvolutionParams": "evolution",
        "Interval": "evolution",
        "Lineage": "evolution",
        "SpeciesPair": "evolution",
        "evolve": "evolution",
        "k80_difference_probabilities": "evolution",
        "make_species_pair": "evolution",
        "plant_exons": "evolution",
        "sample_islands": "evolution",
        "fasta_string": "fasta",
        "iter_fasta": "fasta",
        "read_fasta": "fasta",
        "write_fasta": "fasta",
        "kmer_counts": "shuffle",
        "shuffle_preserving_kmers": "shuffle",
        "DEFAULT_DINUCLEOTIDE_MODEL": "synthesis",
        "dinucleotide_counts": "synthesis",
        "markov_genome": "synthesis",
        "plant_repeats": "synthesis",
        "uniform_genome": "synthesis",
    },
)
__all__.insert(0, "alphabet")
