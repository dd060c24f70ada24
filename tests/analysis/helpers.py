"""Shared helpers for the static-analysis rule tests, and for the
tests of the runtime pickle guard that took over from FLOW003."""

from __future__ import annotations

import pickle
import textwrap
from concurrent.futures import Future
from typing import Dict, List, Optional, Sequence

import pytest

from repro.analysis import Finding, analyze_sources
from repro.parallel.engine import ExecutionEngine

#: What ``pickle.dumps`` raises for a value that cannot reach a worker.
UNPICKLABLE = (pickle.PicklingError, TypeError, AttributeError)


def lint_snippet(
    source: str,
    modname: str = "repro.seed.snippet",
    select: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint one dedented snippet under a virtual module name."""
    result = analyze_sources(
        {modname: textwrap.dedent(source)}, select=select
    )
    return result.findings


def lint_tree(
    sources: Dict[str, str],
    select: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint a virtual multi-module tree."""
    return analyze_sources(
        {name: textwrap.dedent(src) for name, src in sources.items()},
        select=select,
    ).findings


def rules_of(findings: List[Finding]) -> List[str]:
    return sorted(f.rule for f in findings)


def task(x, *rest):
    """A module-level task: it pickles by reference."""
    return x


def fan_out(engine, method, fn, *args):
    """A helper between the caller and the engine, as pipelines have."""
    return getattr(engine, method)(fn, *args)


def nested_def():
    def inner():
        return 3

    return inner


def rejected_by_the_pickle_guard(call, make_engine=ExecutionEngine):
    """``call(engine)`` fails to pickle before a pool or supervisor exists."""
    with make_engine(2) as engine:
        with pytest.raises(UNPICKLABLE):
            call(engine)
        assert engine._executor is None
        assert engine._dispatcher_obj is None


def passed_by_the_pickle_guard(call):
    """The value of the future or ticket ``call(engine)`` returns."""
    with ExecutionEngine(1) as engine:
        handle = call(engine)
        if isinstance(handle, Future):
            return handle.result()
        return engine.result(handle)
