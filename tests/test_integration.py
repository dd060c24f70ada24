"""End-to-end integration tests spanning multiple subsystems."""

import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import (
    DarwinWGA,
    LastzAligner,
    build_chains,
    make_species_pair,
)
from repro.annotate import exon_coverage, find_orthologous_exons
from repro.chain import total_matches, ungapped_block_lengths
from repro.cli import main
from repro.genome import shuffle_preserving_kmers
from repro.hw import CostModel, GactXArrayModel, default_asic
from repro.io import maf_string, read_maf
from repro.phylo import estimate_distance

SRC = Path(__file__).resolve().parents[1] / "src"


class TestFullWorkflow:
    """The complete paper workflow on one shared pair."""

    @pytest.fixture(scope="class")
    def workflow(self, small_pair):
        target = small_pair.target.genome
        query = small_pair.query.genome
        darwin = DarwinWGA().align(target, query)
        lastz = LastzAligner().align(target, query)
        return small_pair, darwin, lastz

    def test_alignment_to_chain_to_metrics(self, workflow):
        pair, darwin, lastz = workflow
        darwin_chains = build_chains(darwin.alignments)
        lastz_chains = build_chains(lastz.alignments)
        assert total_matches(darwin_chains) > 0
        # the headline: gapped filtering does not lose sensitivity
        assert total_matches(darwin_chains) >= 0.9 * total_matches(
            lastz_chains
        )

    def test_exon_pipeline(self, workflow):
        pair, darwin, _ = workflow
        target = pair.target.genome
        hits = find_orthologous_exons(
            target, pair.target.exons, pair.query.genome
        )
        assert hits  # mini-TBLASTX confirms orthologs
        chains = build_chains(darwin.alignments)
        report = exon_coverage(
            chains, [h.exon for h in hits], len(target)
        )
        assert report.coverage > 0.5

    def test_distance_estimation_consistent(self, workflow):
        pair, darwin, _ = workflow
        distance = estimate_distance(
            pair.target.genome, pair.query.genome, darwin.alignments
        )
        # islands are capped at 0.4 divergence; estimates from aligned
        # (i.e. island) columns must land near the cap, not at the
        # nominal pair distance
        assert 0.1 < distance < 0.8

    def test_maf_roundtrip_of_real_output(self, workflow):
        pair, darwin, _ = workflow
        target = pair.target.genome
        query = pair.query.genome
        parsed = read_maf(
            io.StringIO(maf_string(darwin.alignments, target, query))
        )
        assert len(parsed) == len(darwin.alignments)
        for alignment in parsed:
            alignment.verify(target, query)

    def test_hardware_projection_of_real_workload(self, workflow):
        _, darwin, _ = workflow
        model = CostModel.default()
        fpga = model.fpga_runtime(darwin.workload)
        asic = model.asic_runtime(darwin.workload)
        assert 0 < asic.total < fpga.total

    def test_traceback_memory_within_budget(self, workflow):
        """Every GACT-X tile of a real run fits the Table IV SRAM."""
        _, darwin, _ = workflow
        gactx = GactXArrayModel(config=default_asic().array_config)
        traces = darwin.workload.extension_tile_traces
        assert traces
        for trace in traces:
            assert gactx.fits_in_sram(trace)

    def test_block_lengths_shrink_with_distance(self):
        rng = np.random.default_rng(555)
        means = []
        for distance in (0.1, 1.2):
            pair = make_species_pair(
                15000,
                distance,
                rng,
                alignable_fraction=0.5,
                island_mean_length=400,
                indel_per_substitution=0.14,
            )
            result = DarwinWGA().align(
                pair.target.genome, pair.query.genome
            )
            lengths = ungapped_block_lengths(
                build_chains(result.alignments)
            )
            assert lengths.size > 0
            means.append(float(np.mean(lengths)))
        # Figure 2's core fact, end to end.
        assert means[1] < means[0]

    def test_shuffled_target_yields_nothing(self, workflow):
        pair, darwin, _ = workflow
        rng = np.random.default_rng(99)
        shuffled = shuffle_preserving_kmers(
            pair.target.genome, rng, k=2
        )
        result = DarwinWGA().align(shuffled, pair.query.genome)
        false_positives = total_matches(build_chains(result.alignments))
        real = total_matches(build_chains(darwin.alignments))
        assert false_positives < 0.02 * max(real, 1)


def test_assembly_maf_does_not_depend_on_hash_order(tmp_path):
    """Set order changes with ``PYTHONHASHSEED``; none of it may reach
    the output (the class the ``set-iteration`` scan guards)."""
    generate = "generate --length 3000 --chromosomes 2 --distance 0.3"
    args = [*generate.split(), "--seed", "3", "--out-dir", str(tmp_path)]
    assert main(args) == 0
    mafs = []
    for seed in ("0", "1"):
        out = tmp_path / f"hashseed{seed}.maf"
        done = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "align",
                str(tmp_path / "target.fa"), str(tmp_path / "query.fa"),
                "--out", str(out),
            ],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=seed),
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        mafs.append(out.read_bytes())
    assert mafs[0].count(b"\na score=") >= 2
    assert mafs[0] == mafs[1]
