"""Seed-audit: stochastic entry points must thread explicit RNG state.

Two layers of defence: the ``unseeded-rng`` and ``global-rng`` scans
prove no module touches global RNG state, and a signature audit pins the ``rng`` parameter on every
stochastic entry point so a refactor cannot quietly drop it (the
paper's sensitivity comparisons depend on regenerating identical
synthetic species pairs from a seed).
"""

import inspect
import pytest

from ..test_invariants import scan_modules, src_modules

STOCHASTIC_ENTRY_POINTS = [
    ("repro.genome.evolution", "evolve"),
    ("repro.genome.evolution", "plant_exons"),
    ("repro.genome.evolution", "sample_islands"),
    ("repro.genome.evolution", "make_species_pair"),
    ("repro.genome.shuffle", "shuffle_preserving_kmers"),
    ("repro.genome.synthesis", "uniform_genome"),
    ("repro.genome.synthesis", "markov_genome"),
    ("repro.genome.synthesis", "plant_repeats"),
    ("repro.genome.assembly", "split_into_chromosomes"),
    ("repro.seed.analysis", "monte_carlo_sensitivity"),
    ("repro.align.stats", "estimate_k"),
]


def test_stochastic_modules_never_touch_global_rng():
    modules = [
        module
        for module in src_modules()
        if module.name.startswith(("repro.genome", "repro.seed"))
        or module.name == "repro.align.stats"
    ]
    assert len(modules) > 10
    hits, forgiven = scan_modules(
        modules, select={"unseeded-rng", "global-rng"}
    )
    assert hits == [], "\n".join(map(str, hits))
    # Not even an allowed one: randomness here is part of the
    # reproducibility contract, never an acceptable exception.
    assert forgiven == []


@pytest.mark.parametrize("modname,funcname", STOCHASTIC_ENTRY_POINTS)
def test_entry_point_threads_rng(modname, funcname):
    module = __import__(modname, fromlist=[funcname])
    function = getattr(module, funcname)
    parameters = inspect.signature(function).parameters
    assert "rng" in parameters, (
        f"{modname}.{funcname} lost its explicit rng parameter"
    )
