"""CSV and JSON envelopes for sheets and reports.

All text output is deterministic: floats use shortest round-trip repr,
rows follow grid order, and JSON keys are sorted, so identical inputs
produce byte-identical files.
"""
from __future__ import annotations

import csv
import io
import json

import numpy as np

from .limit import LimitSheet
from .walk import EmpiricalSheet


def _fmt(x) -> str:
    return repr(float(x))


def sheet_to_csv(values: np.ndarray, s_axis, t_axis) -> str:
    """Grid CSV: header row of t values, header column of s values."""
    s_axis = np.asarray(s_axis, dtype=np.float64)
    t_axis = np.asarray(t_axis, dtype=np.float64)
    lines = ["," + ",".join(_fmt(t) for t in t_axis)]
    for i, s in enumerate(s_axis):
        lines.append(_fmt(s) + "," + ",".join(_fmt(v) for v in values[i]))
    return "\n".join(lines) + "\n"


def parse_sheet_csv(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of :func:`sheet_to_csv`."""
    rows = [line.split(",") for line in text.strip().split("\n")]
    t_axis = np.array([float(x) for x in rows[0][1:]])
    s_axis = np.array([float(r[0]) for r in rows[1:]])
    values = np.array([[float(x) for x in r[1:]] for r in rows[1:]])
    return values, s_axis, t_axis


def _seed_entry(seed):
    if seed is None:
        return None
    return {"master_seed": seed.master_seed,
            "stream_kind": seed.stream_kind.value,
            "replicate_index": seed.replicate_index}


def sheet_envelope(sheet) -> dict:
    """Machine-readable provenance for a sheet, for the JSON sidecar."""
    if isinstance(sheet, EmpiricalSheet):
        return {
            "kind": "empirical",
            "n": sheet.n,
            "alpha": sheet.alpha.value,
            "scaled": sheet.scaled,
            "walk_seed": _seed_entry(sheet.walk_seed),
            "scenery_seed": _seed_entry(sheet.scenery_seed),
        }
    if isinstance(sheet, LimitSheet):
        return {"kind": "limit", "provenance": sheet.provenance}
    raise TypeError("expected an EmpiricalSheet or LimitSheet")


def envelope_json(sheet) -> str:
    return json.dumps(sheet_envelope(sheet), sort_keys=True, indent=2) + "\n"


def report_entry(key, report) -> dict:
    """JSON-safe record for one two-sample comparison report."""
    return {
        "key": str(key),
        "statistic_name": report.statistic_name,
        "statistic": report.statistic,
        "p_value": report.p_value,
        "sample_sizes": list(report.sample_sizes),
        "permutations": report.permutations,
        "labels": list(report.labels),
    }


def reports_json(entries: list[dict], meta: dict) -> str:
    """Bundle of comparison reports plus run metadata (seeds, config hash)."""
    return json.dumps({"meta": meta, "reports": entries},
                      sort_keys=True, indent=2) + "\n"


def rows_to_csv(header: list[str], rows: list[list]) -> str:
    """Summary-table CSV; numbers formatted for exact round-trips.

    Cells that hold a comma, such as point tuples, are quoted, so every row
    has as many fields as the header.
    """
    def cell(x) -> str:
        if isinstance(x, (bool, np.bool_)):
            return str(bool(x))
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        if isinstance(x, (float, np.floating)):
            return _fmt(x)
        return str(x)

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([cell(x) for x in row] for row in rows)
    return out.getvalue()
