"""Text and JSON rendering of an :class:`AnalysisResult`."""

from __future__ import annotations

import json
from collections import Counter
from typing import List

from .engine import AnalysisResult


def render_text(result: AnalysisResult, verbose: bool = False) -> str:
    lines: List[str] = [f.render() for f in result.findings]
    if verbose and result.suppressed:
        lines.append("")
        lines.append("suppressed:")
        lines.extend(f"  {f.render()}" for f in result.suppressed)
    lines.append("")
    counts = Counter(f.rule for f in result.findings)
    summary = (
        f"{len(result.findings)} finding(s) in {len(result.files)} "
        f"file(s), {len(result.suppressed)} suppressed"
    )
    if counts:
        summary += " — " + ", ".join(
            f"{rule}: {count}" for rule, count in sorted(counts.items())
        )
    lines.append(summary)
    return "\n".join(lines)


def render_json(result: AnalysisResult) -> str:
    payload = {
        "version": 1,
        "ok": result.ok,
        "files": len(result.files),
        "findings": [f.to_dict() for f in result.findings],
        "suppressed": [f.to_dict() for f in result.suppressed],
        "counts": dict(
            sorted(Counter(f.rule for f in result.findings).items())
        ),
    }
    return json.dumps(payload, indent=2, sort_keys=True)
