"""Source invariants of ``src/repro`` that no behavioural test can see,
one small ``ast`` scan per bug class.  Standard library only: CI runs
it without numpy, beside ``tests/test_layers.py``.

Each scan yields ``(node, scope, what)`` for one module, where ``scope``
is the dotted def/class path the node sits in.  A hit is forgiven only
by an entry in ``ALLOW``: keyed by module (or package), or by
``(module, function)`` for one function, and always with its reason.
``tests/test_mutations.py`` runs the scans on snippets and shows that
each bug class is caught by exactly one check.
"""

import ast
import functools
from pathlib import Path
from typing import NamedTuple

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Explicit-state generator constructors under ``numpy.random``: fine
#: when seeded, unlike the module-level functions that share one state.
NUMPY_EXPLICIT = {
    "default_rng", "Generator", "SeedSequence", "RandomState",
    "BitGenerator", "PCG64", "Philox", "MT19937", "SFC64",
}
#: stdlib ``random`` functions that use the hidden global generator.
STDLIB_GLOBAL = {
    "betavariate", "choice", "choices", "expovariate", "gammavariate",
    "gauss", "getrandbits", "lognormvariate", "normalvariate",
    "paretovariate", "randbytes", "randint", "random", "randrange",
    "sample", "setstate", "shuffle", "triangular", "uniform",
    "vonmisesvariate", "weibullvariate",
}
SEEDABLE = {
    "random.Random", "random.seed", "numpy.random.seed",
    "numpy.random.default_rng", "numpy.random.RandomState",
}
WALL_CLOCKS = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "datetime.datetime.now",
    "datetime.datetime.utcnow", "datetime.datetime.today",
    "datetime.date.today",
}
#: CPU-time and rusage probes; ``repro.obs.resource`` owns them.
SAMPLING = {
    "time.process_time", "time.process_time_ns", "time.thread_time",
    "time.thread_time_ns", "resource.getrusage", "resource.getpagesize",
}
SET_METHODS = {"union", "intersection", "difference", "symmetric_difference"}
#: Signed narrow dtypes overflow as DP score accumulators; unsigned
#: 8/16-bit ones carry base codes and traceback pointers.
NARROW_DTYPES = {"int8", "int16", "float16"}
MUTABLE_CALLS = {
    "list", "dict", "set", "collections.defaultdict", "collections.deque",
    "collections.OrderedDict", "collections.Counter",
}
TERMINAL_WRITES = {
    f"sys.{stream}.{method}"
    for stream in ("stdout", "stderr")
    for method in ("write", "writelines")
}


def in_package(name, package):
    return name == package or name.startswith(package + ".")


class Module:
    """One parsed source file.  ``key`` keeps a package's ``__init__``
    part, so a relative import strips parts alike from any module."""

    def __init__(self, key, source):
        self.name = key.removesuffix(".__init__")
        self.tree = ast.parse(source)
        self.imports = {}
        parts = key.split(".")
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    head = alias.name.split(".")[0]
                    self.imports[alias.asname or head] = (
                        alias.name if alias.asname else head
                    )
            elif isinstance(node, ast.ImportFrom):
                base = parts[: len(parts) - node.level] if node.level else []
                base = ".".join(base + [node.module or ""]).strip(".")
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.imports[local] = f"{base}.{alias.name}".lstrip(".")

    def origin(self, node):
        """``numpy.random.rand`` for ``np.random.rand``, else None."""
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        head = self.imports.get(node.id, node.id)
        return ".".join([head, *reversed(parts)])

    def nodes(self):
        """Every node, with the dotted def/class path it sits in."""
        stack = [(self.tree, "")]
        while stack:
            node, scope = stack.pop()
            yield node, scope
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                scope = f"{scope}.{node.name}".lstrip(".")
            stack.extend((child, scope) for child in ast.iter_child_nodes(node))

    def calls(self):
        for node, scope in self.nodes():
            if isinstance(node, ast.Call):
                yield node, scope, self.origin(node.func)


def unseeded_rng(module):
    """A generator built, or the global one seeded, with no seed."""
    for call, scope, origin in module.calls():
        if origin in SEEDABLE and not call.args and not call.keywords:
            yield call, scope, f"{origin}() without a seed"


def global_rng(module):
    """A call into the hidden module-level RNG state."""
    for call, scope, origin in module.calls():
        package, _, tail = (origin or "").rpartition(".")
        if tail == "seed" and package in ("random", "numpy.random"):
            hidden = bool(call.args or call.keywords)
        elif package == "numpy.random":
            hidden = tail not in NUMPY_EXPLICIT
        else:
            hidden = package == "random" and tail in STDLIB_GLOBAL
        if hidden:
            yield call, scope, f"{origin}() uses the process-global RNG"


def wall_clock(module):
    """A clock read outside ``repro.obs``: output must not depend on it."""
    if in_package(module.name, "repro.obs"):
        return
    for call, scope, origin in module.calls():
        if origin in WALL_CLOCKS:
            yield call, scope, f"{origin}() outside repro.obs"


def is_set(node):
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id in ("set", "frozenset")) or (
        isinstance(func, ast.Attribute) and func.attr in SET_METHODS
    )


def set_iteration(module):
    """A set iterated in order: hash randomisation reorders it per process."""
    for node, scope in module.nodes():
        if isinstance(node, ast.For):
            iterated = [node.iter]
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        ):
            iterated = [generator.iter for generator in node.generators]
        elif isinstance(node, ast.Call) and node.args and (
            isinstance(node.func, ast.Name)
            and node.func.id in ("list", "tuple", "enumerate")
            or isinstance(node.func, ast.Attribute) and node.func.attr == "join"
        ):
            iterated = node.args[:1]
        else:
            continue
        for value in filter(is_set, iterated):
            yield value, scope, "a set iterated in hash order"


def align_kernel(name):
    # The frozen row-at-a-time oracle's naive loops are its whole point.
    return in_package(name, "repro.align") and name != "repro.align._reference"


def narrow_dp_dtype(module):
    """A narrow signed dtype anywhere in an alignment-kernel call."""
    if not align_kernel(module.name):
        return
    for call, scope, _ in module.calls():
        for value in [*call.args, *(kw.value for kw in call.keywords)]:
            if isinstance(value, ast.Constant):
                token = value.value
            else:
                token = (module.origin(value) or "").removeprefix("numpy.")
            if token in NARROW_DTYPES:
                yield call, scope, f"dtype {token} in an alignment kernel"


def is_range_loop(node):
    return (
        isinstance(node, ast.For)
        and isinstance(node.iter, ast.Call)
        and isinstance(node.iter.func, ast.Name)
        and node.iter.func.id == "range"
    )


def nested_dp_loop(module):
    """A Python loop over both sequence axes of an alignment kernel."""
    if not align_kernel(module.name):
        return
    for node, scope in module.nodes():
        if is_range_loop(node):
            for inner in ast.walk(node):
                if inner is not node and is_range_loop(inner):
                    yield inner, scope, "range loop inside a range loop"


def mutable_default(module):
    """A default argument shared, and mutated, across calls."""
    for node, scope in module.nodes():
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for default in [*node.args.defaults, *node.args.kw_defaults]:
            if isinstance(default, ast.Call):
                mutable = module.origin(default.func) in MUTABLE_CALLS
            else:
                mutable = isinstance(
                    default,
                    (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp,
                     ast.DictComp),
                )
            if mutable:
                yield default, scope, f"mutable default in {node.name}()"


def stray_print(module):
    """Terminal output outside ``repro.cli``; workers share the terminal."""
    if module.name == "repro.cli":
        return
    for call, scope, origin in module.calls():
        if isinstance(call.func, ast.Name) and call.func.id == "print":
            yield call, scope, "print()"
        elif origin in TERMINAL_WRITES:
            yield call, scope, f"{origin}()"


def adhoc_sampling(module):
    """A CPU-time or rusage probe outside ``repro.obs``."""
    if in_package(module.name, "repro.obs"):
        return
    for call, scope, origin in module.calls():
        if origin in SAMPLING:
            yield call, scope, f"{origin}() outside repro.obs"


def swallowed_exception(module):
    """A broad handler whose body only discards the failure."""
    def broad(node):
        name = (module.origin(node) or "").rpartition(".")[2]
        return name in ("Exception", "BaseException")

    for node, scope in module.nodes():
        if not isinstance(node, ast.ExceptHandler) or node.type is None:
            continue
        types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        discards = all(
            isinstance(stmt, ast.Pass)
            or isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            for stmt in node.body
        )
        if discards and any(map(broad, types)):
            yield node, scope, "broad except that only discards"


SCANS = {
    scan.__name__.replace("_", "-"): scan
    for scan in (
        unseeded_rng, global_rng, wall_clock, set_iteration, narrow_dp_dtype,
        nested_dp_loop, mutable_default, stray_print, adhoc_sampling,
        swallowed_exception,
    )
}

#: scan -> {module or package, or (module, function): why the hit is safe}.
ALLOW = {
    "wall-clock": {
        "repro.service.client": "deadlines for wait() polling; job "
        "results never depend on these readings",
        "repro.service.daemon": "admission timestamps, queue-wait "
        "deadlines and latency metrics; alignment output never depends "
        "on these clocks",
        "repro.service.runner": "job latency accounting for /status; "
        "alignment output never depends on these readings",
    },
    "narrow-dp-dtype": {
        ("repro.align._dp", "banded_local_dtype"): "int16 only when "
        "0 <= V <= top < 2**15 and U/H/scan >= -floor > NEG_INF16",
    },
}


class Hit(NamedTuple):
    scan: str
    module: str
    scope: str
    line: int
    what: str

    def __str__(self):
        where = f"{self.module}:{self.line}"
        return f"{self.scan}: {where} in {self.scope or '<module>'}: {self.what}"


def allowed_by(hit, allow):
    """The ``allow`` key that forgives ``hit``, or None."""
    for key in allow:
        if isinstance(key, tuple):
            module, function = key
            if hit.module == module and in_package(hit.scope, function):
                return key
        elif in_package(hit.module, key):
            return key
    return None


def scan_modules(modules, select=None, allow=ALLOW):
    """``(hits, forgiven)`` of the selected scans: the hits no ``allow``
    entry covers, and the ``(hit, key)`` pairs that one does."""
    hits, forgiven = [], []
    for name, scan in SCANS.items():
        if select is not None and name not in select:
            continue
        for module in modules:
            for node, scope, what in scan(module):
                hit = Hit(name, module.name, scope, node.lineno, what)
                key = allowed_by(hit, allow.get(name, {}))
                if key is None:
                    hits.append(hit)
                else:
                    forgiven.append((hit, key))
    return sorted(hits), forgiven


def parse_sources(sources):
    """``{module key: source}`` -> modules, as for the real tree."""
    return [Module(key, source) for key, source in sorted(sources.items())]


@functools.lru_cache(maxsize=None)
def src_modules():
    """``src/repro``, parsed once per session."""
    return tuple(
        Module(".".join(path.relative_to(SRC).with_suffix("").parts),
               path.read_text())
        for path in sorted((SRC / "repro").rglob("*.py"))
    )


def test_source_tree_exists():
    # An empty tree would pass every scan.
    assert (SRC / "repro").is_dir()
    assert "repro.cli" in {module.name for module in src_modules()}


@pytest.mark.parametrize("scan", SCANS)
def test_src_tree_keeps_the_invariant(scan):
    hits, _ = scan_modules(src_modules(), select={scan})
    assert hits == [], "\n".join(map(str, hits))


def test_forgiven_hits_are_still_recorded():
    modules = parse_sources({"repro.service.daemon": (
        "import time\n"
        "def admitted():\n"
        "    return time.monotonic()\n"
    )})
    hits, forgiven = scan_modules(modules)
    assert hits == []
    assert [(hit.scan, hit.line, key) for hit, key in forgiven] == [
        ("wall-clock", 3, "repro.service.daemon"),
    ]


def test_a_clock_read_is_not_also_sampling():
    # One call, one scan: perf_counter is wall-clock's, never adhoc-sampling's.
    assert not WALL_CLOCKS & SAMPLING


def allow_problems(allow, forgiven):
    """Why ``allow`` is unsound: an entry for no scan, an entry with no
    reason, or one that forgives none of the ``(hit, key)`` pairs."""
    used = {(hit.scan, key) for hit, key in forgiven}
    problems = []
    for scan, entries in allow.items():
        if scan not in SCANS:
            problems.append(f"{scan}: no such scan")
        for key, reason in entries.items():
            if not reason.strip():
                problems.append(f"{scan} allows {key} without a reason")
            if (scan, key) not in used:
                problems.append(f"{scan} allows {key}, which has no hit")
    return problems


def test_every_allow_entry_is_used_and_says_why():
    _, forgiven = scan_modules(src_modules())
    assert allow_problems(ALLOW, forgiven) == []


PRINT_IN_HW = Hit("stray-print", "repro.hw.model", "", 1, "print()")


@pytest.mark.parametrize(
    "allow, forgiven, problem",
    [
        pytest.param(
            {"no-such-scan": {}}, [],
            "no-such-scan: no such scan", id="no-such-scan",
        ),
        pytest.param(
            {"stray-print": {"repro.hw": " "}}, [(PRINT_IN_HW, "repro.hw")],
            "stray-print allows repro.hw without a reason", id="no-reason",
        ),
        pytest.param(
            {"stray-print": {"repro.hw": "a reason"}}, [],
            "stray-print allows repro.hw, which has no hit", id="no-hit",
        ),
    ],
)
def test_an_unsound_allow_entry_is_named(allow, forgiven, problem):
    assert allow_problems(allow, forgiven) == [problem]
