"""Every metric the benchmark prints, with what BENCHMARK.json cannot hold.

BENCHMARK.json lists names, units, directions and bounds (the keys the
builder's contract allows).  This table adds, per metric: its layer (a
module under ``src/repro``), whether it is a deterministic count that two
runs on one seed must reproduce exactly, and which end-to-end metric it
should move on which workload.  ``perf/selftest.py`` checks that the two
agree.
"""

from __future__ import annotations

from typing import NamedTuple, Optional


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    #: share of the parent's median by which it may get worse.
    bound: float
    what: str
    exact: bool = False


END_TO_END = (
    EndToEnd(
        "wall_s", "s", "lower", 0.25,
        "median wait for one operation: Popen -> exit of `repro align` "
        "(interpreter start and imports included); on serve-closed, "
        "client-side submit -> terminal state of one job (latency p50). "
        "Like every end-to-end time, at the reference machine speed "
        "(perf.measure.Speed)",
    ),
    EndToEnd(
        "cpu_s", "s", "lower", 0.25,
        "user+sys CPU of one operation's process tree (wait4 rusage); on "
        "serve-closed the daemon's total at shutdown / jobs completed",
    ),
    EndToEnd(
        "peak_rss_mb", "MB", "lower", 0.25,
        "ru_maxrss of the same wait4 (child of perf/spawner.py, whose own "
        "peak is below it); on serve-closed the daemon's VmHWM at shutdown",
    ),
    EndToEnd(
        "matched_bp", "bp", "higher", 0.25,
        "matched bases of the output MAF(s) read back with read_maf, "
        "summed over the workload's distinct inputs: the paper's "
        "sensitivity metric",
        exact=True,
    ),
    EndToEnd(
        "ops_per_s", "1/s", "higher", 0.25,
        "operations completed / the seconds they took one after the other "
        "(serve-closed: jobs per second with 2 closed-loop clients)",
    ),
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "median of 5 set-ups: inputs from the seed, FASTA files, and on "
        "serve-closed daemon spawn until /healthz answers",
    ),
)


class PerLayer(NamedTuple):
    name: str
    layer: str
    unit: str
    better: str
    #: (end-to-end metric, workload) this should move; None = none.
    moves: Optional[tuple]
    #: deterministic count: identical for one seed, compared exactly.
    exact: bool = False


def _m(name, unit, better, moves=None, exact=False) -> PerLayer:
    return PerLayer(name, name.split(".")[0], unit, better, moves, exact)


_FAR = ("wall_s", "wga-far")
_NEAR = ("wall_s", "wga-near")
_LASTZ = ("wall_s", "lastz-far")
_PAR = ("wall_s", "assembly-par")
_SERVE = ("wall_s", "serve-closed")
_ALL_CLI = ("wall_s", "every CLI workload")

PER_LAYER = (
    # cli
    _m("cli.import_s", "s", "lower", _ALL_CLI),
    _m("cli.unattributed_s", "s", "lower", _ALL_CLI),
    # genome
    _m("genome.make_pair_s", "s", "lower", ("setup_s", "all")),
    _m("genome.write_fasta_s", "s", "lower", ("setup_s", "all")),
    # io
    _m("io.read_fasta_s", "s", "lower", _NEAR),
    _m("io.write_maf_s", "s", "lower", _NEAR),
    _m("io.read_maf_s", "s", "lower"),
    _m("io.maf_bytes", "bytes", "lower", exact=True),
    # seed
    _m("seed.index_build_s", "s", "lower", _FAR),
    _m("seed.dsoft_s", "s", "lower", _FAR),
    _m("seed.hits", "count", "lower", exact=True),
    _m("seed.candidates", "count", "lower", exact=True),
    _m("seed.candidate_ratio", "ratio", "lower"),
    _m("seed.cache_store_s", "s", "lower"),
    _m("seed.cache_load_s", "s", "lower"),
    # core: gapped filter
    _m("core.filter_s", "s", "lower", _FAR),
    _m("core.filter_tiles", "count", "lower", exact=True),
    _m("core.filter_cells", "count", "lower", exact=True),
    _m("core.filter_cells_per_s", "1/s", "higher", _FAR),
    _m("core.filter_pass_ratio", "ratio", "higher"),
    # core: extension
    _m("core.extend_s", "s", "lower", _NEAR),
    _m("core.extend_tiles", "count", "lower", exact=True),
    _m("core.extend_cells", "count", "lower", exact=True),
    _m("core.extend_cells_per_s", "1/s", "higher", _NEAR),
    _m("core.absorbed_ratio", "ratio", "higher"),
    _m("core.alignments", "count", "higher", exact=True),
    # core: pipeline
    _m("core.align_s", "s", "lower", ("wall_s", "darwin workloads")),
    _m("core.glue_s", "s", "lower", ("wall_s", "all pair workloads")),
    # lastz
    _m("lastz.filter_s", "s", "lower", _LASTZ),
    _m("lastz.filter_hits", "count", "lower", exact=True),
    _m("lastz.filter_cells", "count", "lower", exact=True),
    _m("lastz.filter_pass_ratio", "ratio", "higher"),
    _m("lastz.align_s", "s", "lower", _LASTZ),
    # align (kernels against their oracles)
    _m("align.bsw_batch_cells_per_s", "1/s", "higher", _FAR),
    _m("align.bsw_batch_vs_ref", "x", "higher", _FAR),
    _m("align.xdrop_cells_per_s", "1/s", "higher", _NEAR),
    _m("align.xdrop_vs_ref", "x", "higher", _NEAR),
    _m("align.ungapped_cells_per_s", "1/s", "higher", _LASTZ),
    # chain
    _m("chain.build_s", "s", "lower"),
    _m("chain.blocks", "count", "higher", exact=True),
    _m("chain.chains", "count", "lower", exact=True),
    # parallel
    _m("parallel.pool_start_s", "s", "lower", _PAR),
    _m("parallel.share_s", "s", "lower", _PAR),
    _m("parallel.share_bytes", "bytes", "lower", exact=True),
    _m("parallel.dispatch_rtt_ms", "ms", "lower", _PAR),
    _m("parallel.speedup_w2", "x", "higher", _PAR),
    _m("parallel.stream_occupancy", "ratio", "higher", _PAR),
    _m("parallel.stream_idle_tail_s", "s", "lower", _PAR),
    _m("parallel.shm_leaked", "count", "lower", exact=True),
    # resilience
    _m("resilience.manifest_append_ms", "ms", "lower", _PAR),
    _m("resilience.manifest_bytes", "bytes", "lower"),
    # obs
    _m("obs.tracer_overhead_frac", "frac", "lower"),
    # service
    _m("service.start_s", "s", "lower", ("setup_s", "serve-closed")),
    _m("service.stop_s", "s", "lower"),
    _m("service.submit_rtt_ms", "ms", "lower", _SERVE),
    _m("service.poll_rtt_ms", "ms", "lower", _SERVE),
    _m("service.run_s_p50", "s", "lower", _SERVE),
    _m("service.wait_s_p50", "s", "lower", _SERVE),
    _m("service.latency_p90_s", "s", "lower", _SERVE),
    _m("service.jobs_per_s", "1/s", "higher", ("ops_per_s", "serve-closed")),
    _m("service.journal_append_ms", "ms", "lower", _SERVE),
    _m("service.journal_bytes_per_job", "bytes", "lower"),
    _m("service.shed", "count", "lower", exact=True),
    # hw (simulated seconds are deterministic, hence their own unit)
    _m("hw.sim_host_s", "s", "lower"),
    _m("hw.sim_filter_s", "sim_s", "lower", exact=True),
    _m("hw.sim_extend_s", "sim_s", "lower", exact=True),
    # the benchmark itself
    _m("trace.overhead_frac", "frac", "lower"),
)

EXACT = {m.name for m in END_TO_END + PER_LAYER if m.exact}
