"""The mutation suite: every bug class a rule exists for, re-introduced.

One row per bug class — a small in-memory tree, linted with the full
rule set (no ``select``), must produce findings from exactly the one
rule named in the row.  This is the evidence each rule's place in
``repro.analysis`` rests on: a rule no row needs is a candidate for
deletion, and a row no rule catches is a gap.  The true negatives pin
the idioms production code actually uses, which must stay silent.

A class a test holds better names that test instead of a rule: the
row must lint clean and fail the test.  ``LAYERS`` is the layer DAG of
``tests/test_layers.py``; ``PICKLE_GUARD`` is the fixture in
``tests/conftest.py``, run on the row's ``run(engine)``.  A bare
``except:`` is ruff's ``E722``, which runs in CI.
"""

import sys
import textwrap
import types

import pytest

from ..test_layers import layer_violations
from .helpers import lint_tree, rejected_by_the_pickle_guard

LAYERS = "tests/test_layers.py"
PICKLE_GUARD = "tests/conftest.py"

#: (row id, expected rule or test, {modname: source}).
MUTATIONS = [
    (
        "wall-clock-direct",
        "DET003",
        {
            "repro.core.extension": """
            import time

            def extend(anchor):
                return anchor, time.time()
            """,
        },
    ),
    (
        "wall-clock-in-helper",
        "DET003",
        {
            "repro.core.extension": """
            import time

            def _stamp():
                return time.perf_counter()

            def extend_batch_task(batch):
                return batch, _stamp()
            """,
        },
    ),
    (
        "wall-clock-via-from-import-alias",
        "DET003",
        {
            "repro.core.extension": """
            from time import monotonic as m

            def extend(anchor):
                return anchor, m()
            """,
        },
    ),
    (
        "unseeded-default-rng",
        "DET001",
        {
            "repro.genome.evolution": """
            import numpy as np

            def mutate(seq):
                rng = np.random.default_rng()
                return rng.permutation(seq)
            """,
        },
    ),
    (
        "global-random",
        "DET002",
        {
            "repro.genome.evolution": """
            import random

            def coin():
                return random.random() < 0.5
            """,
        },
    ),
    (
        "print-in-worker-task",
        "KER005",
        {
            "repro.core.worker": """
            def align_unit_task(unit):
                print("starting", unit)
                return unit
            """,
        },
    ),
    (
        "print-in-align",
        "KER005",
        {
            "repro.align.xdrop": """
            def xdrop_extend(tile):
                print("tile", tile)
                return tile
            """,
        },
    ),
    (
        "stderr-write-in-worker",
        "KER005",
        {
            "repro.core.worker": """
            import sys

            def align_unit_task(unit):
                sys.stderr.write("starting\\n")
                return unit
            """,
        },
    ),
    (
        "int16-allocator-in-align",
        "KER001",
        {
            "repro.align.banded_sw": """
            import numpy as np

            def kernel(n, m):
                return np.zeros((n, m), dtype=np.int16)
            """,
        },
    ),
    (
        "out-store-into-int16-slab",
        "KER001",
        {
            "repro.align.banded_sw": """
            import numpy as np

            def row_step(h_prev, sub):
                slab = np.empty(h_prev.shape, dtype=np.int16)
                wide = np.zeros(h_prev.shape, dtype=np.int64)
                np.add(wide, sub, out=slab)
                return slab
            """,
        },
    ),
    (
        "int16-workspace-slab",
        "KER001",
        {
            "repro.align._dp": """
            import numpy as np

            def kernel_dtype():
                return np.int32

            def forward(ws, h_row, m):
                slab = ws.array("fs_h", (m + 1,), np.int16)
                slab[:] = h_row.astype(kernel_dtype())
                return slab
            """,
        },
    ),
    (
        "lambda-callable-to-submit",
        PICKLE_GUARD,
        {
            "repro.core.pipeline": """
            def run(engine, item=3):
                return engine.submit(lambda x: x * 2, item)
            """,
        },
    ),
    (
        "nested-def-callable-to-submit",
        PICKLE_GUARD,
        {
            "repro.core.pipeline": """
            def run(engine, item=3, scale=2):
                def task(x):
                    return x * scale
                return engine.submit(task, item)
            """,
        },
    ),
    (
        "lambda-callable-to-dispatch",
        PICKLE_GUARD,
        {
            "repro.core.pipeline": """
            def run(engine, batch=(1, 2), n=0):
                return engine.dispatch(
                    lambda: len(batch), key=f"extend:{n}"
                )
            """,
        },
    ),
    (
        "nested-def-callable-to-dispatch",
        PICKLE_GUARD,
        {
            "repro.core.pipeline": """
            def run(engine, batch=(1, 2), n=0):
                def extend():
                    return len(batch)
                return engine.dispatch(extend, key=f"extend:{n}")
            """,
        },
    ),
    (
        "lambda-argument-to-dispatch",
        PICKLE_GUARD,
        {
            "repro.core.pipeline": """
            def extend_batch_task(batch, score):
                return [score(a) for a in batch]

            def run(engine, batch=(1, 2)):
                return engine.dispatch(
                    extend_batch_task, tuple(batch), lambda a: a.score
                )
            """,
        },
    ),
    (
        "lambda-through-forwarding-helper-into-dispatch",
        PICKLE_GUARD,
        {
            "repro.core.pipeline": """
            def _fan_out(engine, fn, payload):
                return engine.dispatch(fn, payload, key="k")

            def unit_task(make_unit):
                return make_unit()

            def run(engine, unit=1):
                return _fan_out(engine, unit_task, lambda: unit)
            """,
        },
    ),
    (
        "open-handle-as-argument",
        PICKLE_GUARD,
        {
            "repro.core.pipeline": """
            import os

            def write_task(handle, block):
                handle.write(block)

            def run(engine, block="b"):
                with open(os.devnull, "w") as out:
                    return engine.dispatch(write_task, out, block)
            """,
        },
    ),
    (
        "unbounded-deque",
        "PAR003",
        {
            "repro.core.pipeline": """
            from collections import deque

            def make_stage():
                return deque()
            """,
        },
    ),
    (
        "list-mutated-after-dispatch",
        "FLOW002",
        {
            "repro.core.pipeline": """
            def extend_batch_task(batch):
                return batch

            def run(engine, batch, anchor):
                ticket = engine.dispatch(extend_batch_task, batch)
                batch.append(anchor)
                return ticket
            """,
        },
    ),
    (
        "list-mutated-then-rebound-after-dispatch",
        "FLOW002",
        {
            "repro.core.pipeline": """
            def extend_batch_task(batch):
                return batch

            def run(engine, batch, anchor):
                ticket = engine.dispatch(extend_batch_task, batch)
                batch.append(anchor)
                batch = []
                return ticket, batch
            """,
        },
    ),
    (
        "set-iteration-into-output",
        "DET004",
        {
            "repro.chain.net": """
            def names(blocks):
                return [name for name in {b.name for b in blocks}]
            """,
        },
    ),
    (
        "process-time-in-core",
        "OBS001",
        {
            "repro.core.pipeline": """
            import time

            def align(pair):
                start = time.process_time()
                return pair, start
            """,
        },
    ),
    (
        "swallowed-exception",
        "RES001",
        {
            "repro.parallel.supervise": """
            def collect(ticket):
                try:
                    return ticket.result()
                except Exception:
                    pass
            """,
        },
    ),
    (
        "core-imports-parallel-at-module-level",
        LAYERS,
        {
            "repro.core.pipeline": (
                "from ..parallel.engine import ExecutionEngine\n"
            ),
            "repro.parallel.engine": "class ExecutionEngine:\n    pass\n",
        },
    ),
    (
        "mutable-default",
        "KER003",
        {
            "repro.seed.dsoft": """
            def collect(hit, bucket=[]):
                bucket.append(hit)
                return bucket
            """,
        },
    ),
    (
        "nested-loops-over-both-axes-in-align",
        "KER002",
        {
            "repro.align.smith_waterman": """
            def kernel(a, b, score):
                best = 0
                for i in range(len(a)):
                    for j in range(len(b)):
                        best = max(best, score(a[i], b[j]))
                return best
            """,
        },
    ),
]


def fails_the_layer_dag(tree):
    assert [kind for kind, _ in layer_violations(tree)] == ["upward"]


def fails_the_pickle_guard(tree):
    ((_, source),) = tree.items()
    module = types.ModuleType("mutation_row")
    sys.modules[module.__name__] = module  # module-level tasks must pickle
    try:
        exec(textwrap.dedent(source), module.__dict__)
        rejected_by_the_pickle_guard(module.run)
    finally:
        del sys.modules[module.__name__]


CAUGHT_BY_TESTS = {
    LAYERS: fails_the_layer_dag,
    PICKLE_GUARD: fails_the_pickle_guard,
}


@pytest.mark.parametrize(
    "expected, tree",
    [pytest.param(rule, tree, id=name) for name, rule, tree in MUTATIONS],
)
def test_mutation_is_caught_by_exactly_its_rule(expected, tree):
    findings = lint_tree(tree)
    if expected in CAUGHT_BY_TESTS:
        assert findings == [], "a retired rule's class is a test's alone"
        CAUGHT_BY_TESTS[expected](tree)
        return
    assert findings, f"no rule catches this mutation (expected {expected})"
    assert {f.rule for f in findings} == {expected}


#: Idioms production code uses; the full rule set must stay silent.
TRUE_NEGATIVES = [
    (
        "kernel-dtype-typed-slab",
        {
            "repro.align._dp": """
            import numpy as np

            def kernel_dtype():
                return np.int32

            def forward(ws, h_row, m):
                slab = ws.array("fs_h", (m + 1,), kernel_dtype())
                slab[:] = h_row
                return slab
            """,
        },
    ),
    (
        "uint8-pointer-codes",
        {
            "repro.align._dp": """
            import numpy as np

            def traceback_codes(ws, m):
                codes = ws.array("fs_codes", (m + 1,), np.uint8)
                dirs = np.zeros(m, dtype=np.uint8)
                return codes, dirs.astype(np.uint16)
            """,
        },
    ),
    (
        "seeded-rng",
        {
            "repro.genome.evolution": """
            import numpy as np

            def mutate(seq, seed):
                rng = np.random.default_rng(seed)
                return rng.permutation(seq)
            """,
        },
    ),
    (
        "module-level-task",
        {
            "repro.core.worker": """
            def extend_batch_task(batch, scoring):
                return [scoring.score(a) for a in batch]
            """,
            "repro.core.pipeline": """
            from .worker import extend_batch_task

            def run(engine, batch, scoring, n):
                batch.append(n)
                ticket = engine.dispatch(
                    extend_batch_task,
                    tuple(batch),
                    scoring,
                    key=f"extend:{n}",
                )
                return ticket
            """,
        },
    ),
    (
        "bounded-deque",
        {
            "repro.core.pipeline": """
            from collections import deque

            def make_stage(depth):
                return deque(maxlen=depth)
            """,
        },
    ),
]


@pytest.mark.parametrize(
    "tree",
    [pytest.param(tree, id=name) for name, tree in TRUE_NEGATIVES],
)
def test_production_idiom_stays_silent(tree):
    assert lint_tree(tree) == []
