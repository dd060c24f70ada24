"""The mutation suite: every bug class a check exists for, re-introduced.

One row per bug class or per way of spelling it: a small in-memory tree
must fail exactly the one check the row names, and no other.  The
checks are the scans of ``tests/test_invariants.py`` (by name, with
its ``ALLOW`` table), the layer DAG of ``tests/test_layers.py``
(``LAYERS``) and the pickle guard of ``tests/conftest.py``
(``PICKLE_GUARD``, run on a row's ``run(engine)``).  A check no row
needs is a candidate for deletion, and a row no check catches is a gap.
The true negatives pin the idioms production code uses, and the
exemptions ``ALLOW`` and the scans grant, which must pass every check.
A bare ``except:`` is ruff's ``E722``, which runs in CI.
"""

import sys
import textwrap
import types

import pytest

from repro.parallel.engine import ExecutionEngine

from .parallel.pickle_guard import UNPICKLABLE
from .test_invariants import parse_sources, scan_modules
from .test_layers import layer_violations

LAYERS = "tests/test_layers.py"
PICKLE_GUARD = "tests/conftest.py"

#: (row id, the one check that fails, {modname: source}).
MUTATIONS = [
    ("wall-clock-direct", "wall-clock", {"repro.core.extension": """
        import time

        def extend(anchor):
            return anchor, time.time()
        """}),
    ("wall-clock-in-helper", "wall-clock", {"repro.core.extension": """
        import time

        def _stamp():
            return time.perf_counter()

        def extend_batch_task(batch):
            return batch, _stamp()
        """}),
    ("wall-clock-via-from-import-alias", "wall-clock", {"repro.core.extension": """
        from time import monotonic as m

        def extend(anchor):
            return anchor, m()
        """}),
    # The same two lines pass as true negative perf-counter-in-obs.
    ("perf-counter-outside-obs", "wall-clock", {"repro.seed.cache": """
        from time import perf_counter

        tick = perf_counter()
        """}),
    ("wall-clock-datetime-now", "wall-clock", {"repro.seed.cache": """
        from datetime import datetime

        def stamp():
            return datetime.now()
        """}),
    ("unseeded-default-rng", "unseeded-rng", {"repro.genome.evolution": """
        import numpy as np

        def mutate(seq):
            rng = np.random.default_rng()
            return rng.permutation(seq)
        """}),
    ("unseeded-default-rng-at-module-level", "unseeded-rng",
     {"repro.seed.snippet": """
        import numpy as np

        rng = np.random.default_rng()
        """}),
    ("unseeded-stdlib-random", "unseeded-rng", {"repro.genome.evolution": """
        import random

        def coin():
            return random.Random().random() < 0.5
        """}),
    ("unseeded-rng-via-from-import-alias", "unseeded-rng",
     {"repro.genome.evolution": """
        from numpy.random import default_rng as make_rng

        def mutate(seq):
            return make_rng().permutation(seq)
        """}),
    ("global-random", "global-rng", {"repro.genome.evolution": """
        import random

        def coin():
            return random.random() < 0.5
        """}),
    ("numpy-global-rng", "global-rng", {"repro.genome.evolution": """
        import numpy as np

        def noise(n):
            values = np.random.rand(n)
            np.random.shuffle(values)
            return values
        """}),
    ("global-seeding", "global-rng", {"repro.genome.evolution": """
        import random
        import numpy as np

        def reset():
            random.seed(0)
            np.random.seed(0)
        """}),
    ("print-in-worker-task", "stray-print", {"repro.core.worker": """
        def align_unit_task(unit):
            print("starting", unit)
            return unit
        """}),
    ("print-in-align", "stray-print", {"repro.align.xdrop": """
        def xdrop_extend(tile):
            print("tile", tile)
            return tile
        """}),
    ("print-in-library-code", "stray-print", {"repro.seed.debug": """
        def debug(x):
            print("value", x)
        """}),
    # The same function passes as true negative print-in-cli.
    ("print-outside-cli", "stray-print", {"repro.seed.snippet": """
        def render_summary(report):
            print(report)
        """}),
    ("print-in-a-task-outside-worker-modules", "stray-print",
     {"repro.seed.snippet": """
        def align_unit_task(unit):
            print("starting", unit)
            return unit
        """}),
    ("print-to-stdout-file", "stray-print", {"repro.core.worker": """
        import sys

        def extend_batch_task(batch):
            print("batch", file=sys.stdout)
        """}),
    ("print-to-stderr-in-task", "stray-print", {"repro.core.worker": """
        import sys

        def align_unit_task(unit):
            print("debug", file=sys.stderr)
        """}),
    ("stdout-write-in-worker", "stray-print", {"repro.parallel.worker": """
        import sys

        sys.stdout.write("hello")
        """}),
    ("stderr-write-in-worker", "stray-print", {"repro.core.worker": """
        import sys

        def align_unit_task(unit):
            sys.stderr.write("starting\\n")
            return unit
        """}),
    ("stderr-write-in-a-worker-helper", "stray-print", {"repro.core.worker": """
        import sys

        def helper():
            sys.stderr.write("hello")
        """}),
    ("int16-allocator-in-align", "narrow-dp-dtype", {"repro.align.banded_sw": """
        import numpy as np

        def kernel(n, m):
            return np.zeros((n, m), dtype=np.int16)
        """}),
    # A kernel module the tree does not have yet is scanned all the same.
    ("int16-dp-matrix-in-a-new-align-module", "narrow-dp-dtype",
     {"repro.align.bad_kernel": """
        import numpy as np

        def kernel(n, m):
            scores = np.zeros((n, m), dtype=np.int16)
            return scores
        """}),
    ("astype-int8-and-string-int16", "narrow-dp-dtype",
     {"repro.align.banded_sw": """
        import numpy as np

        def narrow(h):
            return h.astype(np.int8), np.empty(4, dtype="int16")
        """}),
    ("out-store-into-int16-slab", "narrow-dp-dtype", {"repro.align.banded_sw": """
        import numpy as np

        def row_step(h_prev, sub):
            slab = np.empty(h_prev.shape, dtype=np.int16)
            wide = np.zeros(h_prev.shape, dtype=np.int64)
            np.add(wide, sub, out=slab)
            return slab
        """}),
    ("int16-workspace-slab", "narrow-dp-dtype", {"repro.align._dp": """
        import numpy as np

        def kernel_dtype():
            return np.int32

        def forward(ws, h_row, m):
            slab = ws.array("fs_h", (m + 1,), np.int16)
            slab[:] = h_row.astype(kernel_dtype())
            return slab
        """}),
    # ALLOW names one function of _dp; its neighbour gets no pass.
    ("int16-beside-the-allowed-function", "narrow-dp-dtype",
     {"repro.align._dp": """
        import numpy as np

        def banded_local_dtype(fits):
            if fits:
                return np.dtype(np.int16)
            return np.dtype(np.int32)

        def row_dtype():
            return np.dtype(np.int16)
        """}),
    ("lambda-callable-to-submit", PICKLE_GUARD, {"repro.core.pipeline": """
        def run(engine, item=3):
            return engine.submit(lambda x: x * 2, item)
        """}),
    ("nested-def-callable-to-submit", PICKLE_GUARD, {"repro.core.pipeline": """
        def run(engine, item=3, scale=2):
            def task(x):
                return x * scale
            return engine.submit(task, item)
        """}),
    ("lambda-callable-to-dispatch", PICKLE_GUARD, {"repro.core.pipeline": """
        def run(engine, batch=(1, 2), n=0):
            return engine.dispatch(
                lambda: len(batch), key=f"extend:{n}"
            )
        """}),
    ("nested-def-callable-to-dispatch", PICKLE_GUARD, {"repro.core.pipeline": """
        def run(engine, batch=(1, 2), n=0):
            def extend():
                return len(batch)
            return engine.dispatch(extend, key=f"extend:{n}")
        """}),
    ("lambda-argument-to-dispatch", PICKLE_GUARD, {"repro.core.pipeline": """
        def extend_batch_task(batch, score):
            return [score(a) for a in batch]

        def run(engine, batch=(1, 2)):
            return engine.dispatch(
                extend_batch_task, tuple(batch), lambda a: a.score
            )
        """}),
    ("lambda-through-forwarding-helper-into-dispatch", PICKLE_GUARD,
     {"repro.core.pipeline": """
        def _fan_out(engine, fn, payload):
            return engine.dispatch(fn, payload, key="k")

        def unit_task(make_unit):
            return make_unit()

        def run(engine, unit=1):
            return _fan_out(engine, unit_task, lambda: unit)
        """}),
    ("open-handle-as-argument", PICKLE_GUARD, {"repro.core.pipeline": """
        import os

        def write_task(handle, block):
            handle.write(block)

        def run(engine, block="b"):
            with open(os.devnull, "w") as out:
                return engine.dispatch(write_task, out, block)
        """}),
    ("list-mutated-after-dispatch", PICKLE_GUARD, {"repro.core.pipeline": """
        def extend_batch_task(batch):
            return batch

        def run(engine, anchor=5):
            batch = [1, 2]
            ticket = engine.dispatch(extend_batch_task, batch, key="u")
            batch.append(anchor)
            return engine.result(ticket)
        """}),
    ("list-mutated-then-rebound-after-dispatch", PICKLE_GUARD,
     {"repro.core.pipeline": """
        def extend_batch_task(batch):
            return batch

        def run(engine, anchor=5):
            batch = [1, 2]
            ticket = engine.dispatch(extend_batch_task, batch, key="u")
            batch.append(anchor)
            batch = []
            return engine.result(ticket), batch
        """}),
    ("list-mutated-through-an-alias-after-dispatch", PICKLE_GUARD,
     {"repro.core.pipeline": """
        def extend_batch_task(unit):
            return unit

        def _grow(unit, anchor):
            unit["anchors"].append(anchor)

        def run(engine, anchor=5):
            unit = {"anchors": [1, 2]}
            ticket = engine.dispatch(extend_batch_task, unit, key="u")
            _grow(unit, anchor)
            return engine.result(ticket)
        """}),
    ("set-iteration-into-output", "set-iteration", {"repro.chain.net": """
        def names(blocks):
            return [name for name in {b.name for b in blocks}]
        """}),
    ("for-loop-over-a-set", "set-iteration", {"repro.chain.net": """
        def emit(names):
            for name in set(names):
                yield name
        """}),
    ("list-and-join-of-a-set", "set-iteration", {"repro.chain.net": """
        def render(names):
            order = list({n.lower() for n in names})
            return ",".join(set(names)), order
        """}),
    # A module ALLOW entry forgives one scan, not the module.
    ("set-iteration-in-a-wall-clock-allowed-module", "set-iteration",
     {"repro.service.daemon": """
        def job_ids(jobs):
            return list(set(jobs))
        """}),
    ("process-time-in-core", "adhoc-sampling", {"repro.core.pipeline": """
        import time

        def align(pair):
            start = time.process_time()
            return pair, start
        """}),
    # The same function passes as true negative process-time-in-obs.
    ("process-time-outside-obs", "adhoc-sampling", {"repro.seed.snippet": """
        import time

        def measure():
            return time.process_time()
        """}),
    ("getrusage-in-core", "adhoc-sampling", {"repro.core.pipeline": """
        import resource

        def peak():
            return resource.getrusage(resource.RUSAGE_SELF)
        """}),
    ("process-time-via-from-import-alias", "adhoc-sampling",
     {"repro.core.pipeline": """
        from time import process_time as cpu

        def measure():
            return cpu()
        """}),
    ("swallowed-exception", "swallowed-exception", {"repro.parallel.supervise": """
        def collect(ticket):
            try:
                return ticket.result()
            except Exception:
                pass
        """}),
    ("except-exception-pass", "swallowed-exception",
     {"repro.resilience.bad": """
        def fragile():
            try:
                risky()
            except Exception:
                pass
        """}),
    ("base-exception-ellipsis", "swallowed-exception",
     {"repro.resilience.manifest": """
        def close(handle):
            try:
                handle.close()
            except BaseException:
                ...
        """}),
    ("broad-member-of-a-tuple", "swallowed-exception",
     {"repro.resilience.manifest": """
        def close(handle):
            try:
                handle.close()
            except (ValueError, Exception):
                pass
        """}),
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
    ("mutable-default", "mutable-default", {"repro.seed.dsoft": """
        def collect(hit, bucket=[]):
            bucket.append(hit)
            return bucket
        """}),
    ("mutable-dict-and-set-defaults", "mutable-default", {"repro.seed.dsoft": """
        def index(hit, table={}):
            return table

        def gather(hit, seen=set()):
            seen.add(hit)
            return seen
        """}),
    ("nested-loops-over-both-axes-in-align", "nested-dp-loop",
     {"repro.align.smith_waterman": """
        def kernel(a, b, score):
            best = 0
            for i in range(len(a)):
                for j in range(len(b)):
                    best = max(best, score(a[i], b[j]))
            return best
        """}),
    # As int16-dp-matrix-in-a-new-align-module: all of repro.align.
    ("loop-over-both-axes-in-a-new-align-module", "nested-dp-loop",
     {"repro.align.bad_kernel": """
        def kernel(a, b, score):
            best = 0
            for i in range(len(a)):
                for j in range(len(b)):
                    best = max(best, score(a[i], b[j]))
            return best
        """}),
]


def fails_the_pickle_guard(sources):
    """Run the tree's ``run(engine)`` under the guard, if it has one."""
    runnable = [src for src in sources.values() if "def run(engine" in src]
    if not runnable:
        return False
    (source,) = runnable
    module = types.ModuleType("mutation_row")
    sys.modules[module.__name__] = module  # module-level tasks must pickle
    try:
        exec(source, module.__dict__)
        with ExecutionEngine(2) as engine:
            module.run(engine)
    except UNPICKLABLE:
        return True
    except AssertionError as error:
        assert "mutated after dispatch" in str(error)
        return True
    finally:
        del sys.modules[module.__name__]
    return False


def checks_failed(tree):
    """Every check ``tree`` fails: scans by name, LAYERS, PICKLE_GUARD."""
    sources = {name: textwrap.dedent(src) for name, src in tree.items()}
    hits, _ = scan_modules(parse_sources(sources))
    failed = {hit.scan for hit in hits}
    if layer_violations(sources):
        failed.add(LAYERS)
    if fails_the_pickle_guard(sources):
        failed.add(PICKLE_GUARD)
    return failed


@pytest.mark.parametrize(
    "expected, tree",
    [pytest.param(check, tree, id=name) for name, check, tree in MUTATIONS],
)
def test_mutation_is_caught_by_exactly_its_check(expected, tree):
    assert checks_failed(tree) == {expected}


#: Idioms production code uses, and the exemptions the checks grant;
#: every check must pass them.
TRUE_NEGATIVES = [
    ("kernel-dtype-typed-slab", {"repro.align._dp": """
        import numpy as np

        def kernel_dtype():
            return np.int32

        def forward(ws, h_row, m):
            slab = ws.array("fs_h", (m + 1,), kernel_dtype())
            slab[:] = h_row
            return slab
        """}),
    ("uint8-pointer-codes", {"repro.align._dp": """
        import numpy as np

        def traceback_codes(ws, m):
            codes = ws.array("fs_codes", (m + 1,), np.uint8)
            dirs = np.zeros(m, dtype=np.uint8)
            return codes, dirs.astype(np.uint16), np.zeros(m, np.int64)
        """}),
    ("uint8-pointers-beside-int64-scores", {"repro.align.good_kernel": """
        import numpy as np

        def traceback(m):
            pointers = np.zeros(m + 1, dtype=np.uint8)
            scores = np.zeros(m + 1, dtype=np.int64)
            return pointers, scores
        """}),
    ("int16-in-the-allowed-function", {"repro.align._dp": """
        import numpy as np

        def banded_local_dtype(fits):
            if fits:
                return np.dtype(np.int16)
            return np.dtype(np.int32)
        """}),
    ("int16-outside-align", {"repro.hw.model": """
        import numpy as np

        tiny = np.zeros(4, dtype=np.int16)
        """}),
    ("reference-oracle-loops-and-int16", {"repro.align._reference": """
        import numpy as np

        SCORES = np.zeros((4, 4), dtype=np.int16)

        def kernel(a, b, score):
            best = 0
            for i in range(len(a)):
                for j in range(len(b)):
                    best = max(best, score(a[i], b[j]))
            return best
        """}),
    ("single-row-loop", {"repro.align.banded_sw": """
        def kernel(a, rows):
            for i in range(1, len(a) + 1):
                rows[i] = rows[i - 1] + 1
            return rows
        """}),
    ("seeded-rng", {"repro.genome.evolution": """
        import random
        import numpy as np

        def mutate(seq, seed):
            rng = np.random.default_rng(seed)
            return rng.permutation(seq), random.Random(seed)
        """}),
    ("seeded-by-keyword", {"repro.seed.snippet": """
        import random
        import numpy as np

        def sample(seed: int):
            return np.random.default_rng(seed=seed), random.Random(x=seed)
        """}),
    ("generator-methods", {"repro.genome.evolution": """
        import numpy as np

        def jitter(rng: np.random.Generator):
            return rng.random(4)
        """}),
    ("perf-counter-in-obs", {"repro.obs.tracer": """
        from time import perf_counter

        tick = perf_counter()
        """}),
    ("process-time-in-obs", {"repro.obs.resource": """
        import time

        def measure():
            return time.process_time()
        """}),
    ("wall-clock-in-an-allowed-service-module", {"repro.service.daemon": """
        import time

        def admitted():
            return time.monotonic()
        """}),
    ("print-in-cli", {"repro.cli": """
        def render_summary(report):
            print(report)
        """}),
    ("sorted-set", {"repro.chain.net": """
        def emit(names):
            for name in sorted(set(names)):
                yield name
        """}),
    ("set-membership", {"repro.chain.net": """
        def dedup(pairs):
            seen, out = set(), []
            for pair in pairs:
                if pair not in seen:
                    seen.add(pair)
                    out.append(pair)
            return out
        """}),
    ("none-default", {"repro.seed.dsoft": """
        def collect(item, bucket=None):
            bucket = [] if bucket is None else bucket
            bucket.append(item)
            return bucket
        """}),
    # Narrow: it names the one failure it ignores (as service/client.py).
    ("narrow-handler-pass", {"repro.resilience.manifest": """
        def close(handle):
            try:
                handle.close()
            except OSError:
                pass
        """}),
    ("broad-handler-that-reraises", {"repro.resilience.manifest": """
        def close(handle):
            try:
                handle.close()
            except Exception:
                raise
        """}),
    ("module-level-task", {"repro.core.pipeline": """
        def extend_batch_task(batch, scale):
            return [anchor * scale for anchor in batch]

        def run(engine, n=3):
            batch = [1, 2]
            ticket = engine.dispatch(
                extend_batch_task, tuple(batch), 2, key=f"extend:{n}"
            )
            batch.append(n)  # the tuple went, not the list
            return engine.result(ticket)
        """}),
]


@pytest.mark.parametrize(
    "tree",
    [pytest.param(tree, id=name) for name, tree in TRUE_NEGATIVES],
)
def test_production_idiom_passes_every_check(tree):
    assert checks_failed(tree) == set()
