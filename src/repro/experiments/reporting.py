"""Persisting experiment results.

Spec executions return plain dict rows;
this module writes them to JSON (for machine consumption) and markdown
(for reports), and can reload JSON results for later comparison — e.g.
diffing two commits' Table II.  :func:`save_spec_result` embeds the
executed :class:`~repro.api.ExperimentSpec` itself as provenance, so a
result file fully describes how to regenerate it.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Mapping, Sequence, Union

PathLike = Union[str, Path]


def save_rows_json(rows: Sequence[Mapping], path: PathLike, metadata: Mapping | None = None) -> None:
    """Write rows (plus optional metadata) as a JSON document."""
    payload = {"metadata": dict(metadata or {}), "rows": [dict(r) for r in rows]}
    Path(path).write_text(json.dumps(payload, indent=2, default=_jsonify))


def load_rows_json(path: PathLike) -> tuple[list[dict], dict]:
    """Read ``(rows, metadata)`` written by :func:`save_rows_json`."""
    payload = json.loads(Path(path).read_text())
    return payload["rows"], payload.get("metadata", {})


def save_spec_result(
    spec, result, path: PathLike, profile=None, extra_metadata: Mapping | None = None
) -> list[dict]:
    """Persist an executed spec's rows with full regeneration provenance.

    ``result`` is whatever :func:`repro.api.execute_spec` returned —
    grouped ``{aspect: rows}`` results are flattened with the group key
    injected as a leading column (``spec.aspect_column`` or ``aspect``).
    The metadata embeds ``spec.to_dict()`` and the profile, so the file
    alone says how to reproduce itself (load the spec with
    :meth:`~repro.api.ExperimentSpec.from_dict`, re-execute, diff with
    :func:`diff_rows`).  ``extra_metadata`` merges additional provenance
    keys (the run store records ``run_id``/``seeds``/``jobs`` this way —
    ``spec``/``profile`` stay authoritative and cannot be overridden).
    Returns the flattened rows.
    """
    if isinstance(result, Mapping):
        column = spec.aspect_column or "aspect"
        rows = [{column: key, **row} for key, group in result.items() for row in group]
    else:
        rows = [dict(r) for r in result]
    metadata = dict(extra_metadata or {})
    metadata["spec"] = spec.to_dict()
    if profile is not None:
        metadata["profile"] = dataclasses.asdict(profile)
    save_rows_json(rows, path, metadata=metadata)
    return rows


def rows_to_markdown(rows: Sequence[Mapping], key_column: str = "method") -> str:
    """Render rows as a GitHub-flavoured markdown table."""
    if not rows:
        return "*(empty)*"
    columns: list[str] = [key_column] if key_column in rows[0] else []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    header = "| " + " | ".join(str(c) for c in columns) + " |"
    rule = "| " + " | ".join("---" for _ in columns) + " |"
    lines = [header, rule]
    for row in rows:
        lines.append("| " + " | ".join(_fmt(row.get(c)) for c in columns) + " |")
    return "\n".join(lines)


def save_markdown_report(
    sections: Mapping[str, Sequence[Mapping]],
    path: PathLike,
    title: str = "Experiment report",
) -> None:
    """Write a multi-section markdown report (one table per section)."""
    parts = [f"# {title}", ""]
    for section, rows in sections.items():
        parts.append(f"## {section}")
        parts.append("")
        parts.append(rows_to_markdown(rows))
        parts.append("")
    Path(path).write_text("\n".join(parts))


def diff_rows(
    old: Sequence[Mapping],
    new: Sequence[Mapping],
    key_column: str = "method",
    metric: str = "F1",
) -> list[dict]:
    """Compare a metric between two result sets keyed by ``key_column``."""
    old_by_key = {r[key_column]: r for r in old}
    diffs = []
    for row in new:
        key = row[key_column]
        if key in old_by_key and metric in row and metric in old_by_key[key]:
            before = float(old_by_key[key][metric])
            after = float(row[metric])
            diffs.append({key_column: key, f"{metric}_old": before, f"{metric}_new": after,
                          "delta": round(after - before, 2)})
    return diffs


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.1f}"
    return str(value)


def _jsonify(value):
    """Best-effort JSON conversion for numpy scalars."""
    try:
        return float(value)
    except (TypeError, ValueError):
        return str(value)
