"""The import contract: an invocation pays only for what it runs.

Every check runs in a fresh interpreter with ``PYTHONDONTWRITEBYTECODE=1``
— the condition the repo benchmark measures under, where an imported
module is a compiled module — and reports what it loaded as one JSON
line.  ``PARENT_ALL`` is each package's ``__all__`` as it stood before
the ``__init__`` files became ``name -> submodule`` tables, less the
names deleted since: ``RANKS``, ``SELF_CONTAINED``, ``TOP_ONLY`` and
``PROJECT_RULES`` from ``repro.analysis`` (the layer table now lives in
``tests/test_layers.py``), then the whole of ``repro.analysis`` (its
rules are tier-1 scans in ``tests/test_invariants.py``),
``BoundedQueue`` and ``StrandStream`` from ``repro.core`` (a single
pair no longer streams its anchors),
``GactExtensionResult`` from ``repro.core`` (GACT returns GACT-X's
``ExtensionResult``) and ``dense_tile_cycles`` from ``repro.hw`` (GACT's
tiles are costed by ``GactXArrayModel`` from their row windows).
``OrderedWindow`` (``repro.core.stream``) and ``StreamStats``
(``repro.obs.occupancy``) were never in an ``__all__``; they are deleted
with their modules, as an assembly's units run in one loop in
``repro.core.pipeline``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.genome import make_species_pair, write_fasta

SRC = Path(__file__).resolve().parents[1] / "src"

#: Dump what the interpreter holds, as the last line of stdout.
REPORT = (
    "import json, sys\n"
    "print(json.dumps({'repro': sorted(m for m in sys.modules\n"
    "    if m == 'repro' or m.startswith('repro.')),\n"
    "    'numpy': 'numpy' in sys.modules, 'extra': globals().get('extra')}))\n"
)


def run_python(code, cwd=None):
    """Run ``code`` then REPORT in a fresh interpreter; the parsed report."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-c", code + "\n" + REPORT],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def fasta_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("import-contract")
    for number in (1, 2):
        pair = make_species_pair(
            4000,
            0.3,
            np.random.default_rng(number),
            target_name=f"target_chr{number}",
            query_name=f"query_chr{number}",
        )
        write_fasta([pair.target.genome], directory / f"target{number}.fa")
        write_fasta([pair.query.genome], directory / f"query{number}.fa")
    return directory


#: Nothing a serial ``repro align`` runs lives in these.
OFF_PATH = (
    "repro.hw",
    "repro.service",
    "repro.annotate",
    "repro.phylo",
    "repro.chain",
    "repro.genome.evolution",
    "repro.genome.synthesis",
    "repro.align.needleman_wunsch",
    "repro.align.smith_waterman",
    "repro.align.stats",
    "repro.core.gact",
)


def under(prefixes, modules):
    return [
        name
        for name in modules
        if any(name == p or name.startswith(p + ".") for p in prefixes)
    ]


class TestAlignLoadsWhatItRuns:
    @pytest.mark.parametrize(
        "aligner, also_off",
        [
            (
                "darwin",
                (
                    "repro.lastz",
                    "repro.parallel",
                    "repro.align.ungapped",
                    "repro.core.worker",
                ),
            ),
            (
                "lastz",
                ("repro.parallel", "repro.core.worker"),
            ),
        ],
    )
    def test_serial_align(self, fasta_dir, aligner, also_off):
        report = run_python(
            "from repro.cli import main\n"
            "assert main(['align', 'target1.fa', 'query1.fa', '--out',\n"
            f"    'out-{aligner}.maf', '--aligner', '{aligner}']) == 0\n",
            cwd=fasta_dir,
        )
        assert (fasta_dir / f"out-{aligner}.maf").stat().st_size > 0
        assert under(OFF_PATH + also_off, report["repro"]) == []
        # 99 before the tables; 46 (darwin) / 50 (lastz) with them.
        assert len(report["repro"]) <= 55, report["repro"]


class TestParserNeedsOnlyTheStandardLibrary:
    BARE = ["repro", "repro._lazy", "repro.cli"]

    @pytest.mark.parametrize(
        "code",
        [
            "import repro",
            "from repro.cli import build_parser\nbuild_parser()",
            "from repro.cli import main\n"
            "try:\n    main(['--help'])\n"
            "except SystemExit as stop:\n    assert stop.code == 0",
            # A usage error is argparse's, and as cheap as --help.
            "from repro.cli import main\n"
            "try:\n    main(['align'])\n"
            "except SystemExit as stop:\n    assert stop.code == 2",
        ],
        ids=["import-repro", "build_parser", "--help", "usage-error"],
    )
    def test_loads_no_numpy_and_no_package(self, code):
        report = run_python(code)
        assert not report["numpy"]
        assert set(report["repro"]) <= set(self.BARE)

    def test_usage_error_is_still_argparse_s(self):
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "align"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert done.returncode == 2
        assert done.stderr.startswith("usage: repro align [-h]")
        assert "the following arguments are required: target, query" in (
            done.stderr
        )


PARENT_ALL = {
    "repro": """
        Alignment Cigar ScoringScheme lastz_default Chain GapCosts
        build_chains DarwinWGA DarwinWGAConfig ExtensionParams
        FilterParams WGAResult Sequence make_species_pair CostModel
        LastzAligner LastzConfig __version__
    """,
    "repro.align": """
        Alignment AnchorHit BswResult band_cells bsw_batch bsw_tile Cigar
        HOXD70_MATRIX LASTZ_DEFAULT_MATRIX hoxd70 lastz_default unit
        align_global global_score ScoringScheme align_local best_score
        score_matrix ScoreStatistics bit_score estimate_k evalue
        expected_score gap_length_distribution karlin_lambda
        score_for_evalue UngappedResult ungapped_extend
        ungapped_extend_batch XDropExtension xdrop_extend
    """,
    "repro.annotate": """
        blosum62 ExonCoverageReport exon_coverage uncovered_exons
        TblastxHit TblastxParams find_orthologous_exons AA_ALPHABET
        AA_STOP AA_X decode_protein encode_protein six_frame_translations
        translate TranslatedHit protein_space_recall translated_search
    """,
    "repro.chain": """
        Chain build_chains GapCosts LiftOver LiftSegment best_lift Net
        NetEntry build_net ChainComparison block_length_histogram compare
        fraction_below mean_top_score top_chain_scores total_matches
        ungapped_block_lengths
    """,
    "repro.core": """
        CoverageGrid DarwinWGAConfig ExtensionParams FilterParams
        GactParams gact_extend tile_size_for_memory
        ExtensionResult TileTrace gact_x_extend score_cigar truncate_cigar
        GappedFilterResult gapped_filter DarwinWGA WGAResult Workload
        aligner_named align_assemblies
        alignment_detail chain_table dotplot workload_summary
    """,
    "repro.genome": """
        alphabet Assembly split_into_chromosomes MaskStats apply_soft_mask
        entropy_mask frequency_mask mask_intervals mask_stats Sequence
        EvolutionParams Interval Lineage SpeciesPair evolve
        k80_difference_probabilities make_species_pair plant_exons
        sample_islands fasta_string iter_fasta read_fasta write_fasta
        kmer_counts shuffle_preserving_kmers DEFAULT_DINUCLEOTIDE_MODEL
        dinucleotide_counts markov_genome plant_repeats uniform_genome
    """,
    "repro.hw": """
        BswArrayModel CostModel RuntimeBreakdown scale_workload
        BSW_PE_COST GACTX_PE_COST VU9P FpgaDevice PeCost filter_throughput
        fits max_bsw_arrays utilisation POINTER_BITS GactXArrayModel
        DramChannelConfig DramSystem bandwidth_bound_tiles_per_sec
        bsw_tile_bytes gactx_tile_bytes AsicPlatform CpuPlatform
        FpgaPlatform default_asic default_cpu default_fpga AsicEstimate
        ComponentEstimate CPU_POWER_W FPGA_POWER_W asic_estimate
        asic_power_w SystolicArrayConfig stripe_cycles
        stripes_of tile_cycles_from_windows EngineReport SystemReport
        simulate ScheduleResult saturation_sweep schedule_tiles
        BURST_BYTES TraceAccess TraceSummary generate_trace
        provisioning_check summarise tile_accesses
    """,
    "repro.io": """
        axt_string read_axt write_axt bed_string read_bed write_bed
        chain_triples chains_string write_chains maf_string read_maf
        write_assembly_maf write_maf
    """,
    "repro.lastz": """
        LastzAligner LastzConfig DEFAULT_XDROP UngappedFilterParams
        UngappedFilterResult ungapped_filter
    """,
    "repro.obs": """
        NULL_TRACER Tracer load_run_report render_run run_report
        write_chrome_trace write_run_report HeartbeatMonitor NO_PROGRESS
        ProgressRenderer profile_capture TelemetryOptions
    """,
    "repro.parallel": """
        ExecutionEngine ResilientDispatcher SequenceHandle Ticket
        install_signal_cleanup
    """,
    "repro.phylo": """
        SiteCounts count_sites estimate_distance jc69_distance
        k80_distance k80_kappa TreeNode neighbour_joining tree_distance
    """,
    "repro.resilience": """
        AppendJournal DEFAULT_RATES FAULT_KINDS MANIFEST_VERSION FaultPlan
        InjectedFault JournalError ManifestError ManifestMismatch
        RecoveryStats ResilienceOptions RetryPolicy RunManifest
        backoff_delay config_digest corrupt_file injected_task_error
        injected_worker_crash injected_worker_hang sequences_digest
        stable_fraction
    """,
    "repro.seed": """
        CACHE_VERSION SeedIndexCache index_cache_key compare_patterns
        expected_random_hits hit_probability monte_carlo_sensitivity
        DsoftParams SeedingResult all_seed_hits dsoft_seed SeedIndex
        DEFAULT_PATTERN SpacedSeed
    """,
    "repro.service": """
        JOB_KINDS JOB_STATES PRIORITY_WEIGHTS Job JobJournal JournalError
        ServeClient ServeConfig ServeDaemon WeightedFairScheduler
        replay_jobs
    """,
}


class TestPublicNamesAreUnchanged:
    def test_all_dir_and_every_name(self):
        report = run_python(
            "import importlib\n"
            "extra = {}\n"
            f"for name in {sorted(PARENT_ALL)!r}:\n"
            "    package = importlib.import_module(name)\n"
            "    extra[name] = {\n"
            "        'all': list(package.__all__),\n"
            "        'not_in_dir': sorted(set(package.__all__) - set(dir(package))),\n"
            "        'unresolved': [n for n in package.__all__\n"
            "                       if not hasattr(package, n)],\n"
            "    }\n"
        )
        for name, expected in PARENT_ALL.items():
            found = report["extra"][name]
            assert found["all"] == expected.split(), name
            assert found["not_in_dir"] == [], name
            assert found["unresolved"] == [], name

    def test_unknown_names_are_attribute_errors(self):
        run_python(
            "import repro, repro.core\n"
            "for package in (repro, repro.core):\n"
            "    for name in ('no_such_name', '__no_such_dunder__'):\n"
            "        try:\n"
            "            getattr(package, name)\n"
            "        except AttributeError as error:\n"
            "            assert name in str(error)\n"
            "        else:\n"
            "            raise SystemExit(f'{name} resolved')\n"
            "try:\n"
            "    from repro.core import no_such_name\n"
            "except ImportError:\n"
            "    pass\n"
        )

    def test_subpackages_and_submodules_are_attributes(self):
        # As when every __init__ imported its submodules.
        report = run_python(
            "import repro\n"
            "assert repro.core.DarwinWGA is repro.DarwinWGA\n"
            "assert repro.core.pipeline.DarwinWGA is repro.DarwinWGA\n"
            "from repro.align import _reference\n"
            "import repro.genome\n"
            "assert repro.genome.alphabet.BASES == 'ACGTN'\n"
        )
        assert under(["repro.hw", "repro.chain"], report["repro"]) == []


#: Exports that share their submodule's name: (package, name).
COLLIDING = [
    ("repro.core", "gapped_filter"),
    ("repro.lastz", "ungapped_filter"),
    ("repro.annotate", "translate"),
    ("repro.annotate", "translated_search"),
]


class TestCollidingNamesStayFunctions:
    @pytest.mark.parametrize(
        "first",
        [
            "importlib.import_module(package)",
            "importlib.import_module(package + '.' + name)",
            # The case a naive table got wrong: a sibling module pulls
            # the submodule in and the import system rebinds the name.
            "import repro.core.pipeline, repro.lastz.pipeline, "
            "repro.annotate.tblastx",
        ],
        ids=["package-first", "submodule-first", "sibling-first"],
    )
    def test_whichever_is_imported_first(self, first):
        run_python(
            "import importlib, types\n"
            f"for package, name in {COLLIDING!r}:\n"
            f"    {first}\n"
            "    importlib.import_module(package + '.' + name)\n"
            "    scope = {}\n"
            "    exec(f'from {package} import {name}', scope)\n"
            "    module = importlib.import_module(package)\n"
            "    for value in (scope[name], getattr(module, name)):\n"
            "        assert isinstance(value, types.FunctionType), (name, value)\n"
        )


#: Run as a file, so a pool worker can unpickle ``probe`` by reference.
WORKER_SCRIPT = '''
import json, sys, time

def probe(_):
    time.sleep(0.2)
    return sorted(m for m in sys.modules if m.startswith("repro"))

if __name__ == "__main__":
    from repro.core.pipeline import DarwinWGA, align_assemblies
    from repro.genome.fasta import read_fasta
    from repro.parallel.engine import ExecutionEngine

    targets = read_fasta("target1.fa") + read_fasta("target2.fa")
    queries = read_fasta("query1.fa")
    with ExecutionEngine(2) as engine:
        before = {m for m in sys.modules if m.startswith("repro")}
        # Two probes at once start both workers, whatever the executor's
        # spawning policy: this is "the pool started".
        at_fork = [f.result() for f in [engine.submit(probe, n) for n in (0, 1)]]
        result = align_assemblies(
            targets, queries, aligner_class=DarwinWGA, engine=engine
        )
        after = [f.result() for f in [engine.submit(probe, n) for n in range(6)]]
    print(json.dumps({
        "alignments": len(result.alignments),
        "worker_only": sorted(
            {m for found in at_fork + after for m in found} - before
        ),
    }))
'''


class TestWorkersInheritWhatTheyRun:
    def test_worker_imports_nothing_the_parent_had_not(self, fasta_dir):
        script = fasta_dir / "worker_probe.py"
        script.write_text(WORKER_SCRIPT)
        done = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            env=dict(
                os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1"
            ),
            cwd=fasta_dir,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout.splitlines()[-1])
        assert report["alignments"] > 0
        assert report["worker_only"] == []
