"""Whole-assembly alignment tests."""

import numpy as np
import pytest

from repro.chain import build_chains
from repro.core import align_assemblies
from repro.genome import Assembly, Sequence
from repro.genome.synthesis import markov_genome
from repro.lastz import LastzAligner


@pytest.fixture(scope="module")
def assembly_pair():
    rng = np.random.default_rng(77)
    genome = markov_genome(16000, rng, name="anc")
    # two "chromosomes" per species, sharing content pairwise
    target = Assembly(
        name="asmT",
        chromosomes=[
            Sequence(genome.codes[:8000], name="chr1"),
            Sequence(genome.codes[8000:], name="chr2"),
        ],
    )
    # query chromosomes swap order so cross-chromosome homology exists
    query = Assembly(
        name="asmQ",
        chromosomes=[
            Sequence(genome.codes[8000:], name="chrA"),
            Sequence(genome.codes[:8000], name="chrB"),
        ],
    )
    return target, query


class TestAlignAssemblies:
    def test_all_chromosome_pairs_aligned(self, assembly_pair):
        target, query = assembly_pair
        result = align_assemblies(target, query)
        pairs = {
            (a.target_name, a.query_name) for a in result.alignments
        }
        assert ("chr1", "chrB") in pairs
        assert ("chr2", "chrA") in pairs

    def test_chains_partition_by_chromosome(self, assembly_pair):
        target, query = assembly_pair
        result = align_assemblies(target, query)
        chains = build_chains(result.alignments)
        for chain in chains:
            names = {
                (b.target_name, b.query_name) for b in chain.blocks
            }
            assert len(names) == 1

    def test_workload_accumulates(self, assembly_pair):
        target, query = assembly_pair
        result = align_assemblies(target, query)
        assert result.workload.filter_tiles > 0
        assert result.workload.seed_hits > 0

    def test_lastz_aligner_class(self, assembly_pair):
        target, query = assembly_pair
        result = align_assemblies(
            target, query, aligner_class=LastzAligner
        )
        assert result.alignments

    def test_matches_cover_shared_content(self, assembly_pair):
        target, query = assembly_pair
        result = align_assemblies(target, query)
        assert result.total_matches > 15000


@pytest.mark.parametrize("role", ["target", "query"])
def test_duplicate_chromosome_name_is_refused_before_any_unit(
    assembly_pair, tmp_path, role
):
    # MAF rows and chains key on the name: a second 'chr' once took the
    # first one's srcSize and bases.  ``Assembly`` refuses the pair of
    # names itself; a FASTA read gives a plain list.
    pair = dict(zip(("target", "query"), assembly_pair))
    pair[role] = [
        Sequence(seq.codes, name="chr") for seq in pair[role].chromosomes
    ]
    manifest = tmp_path / "run.manifest"
    with pytest.raises(
        ValueError, match=f"^{role} assembly has two chromosomes named 'chr'$"
    ):
        align_assemblies(pair["target"], pair["query"], checkpoint=manifest)
    assert not manifest.exists()
