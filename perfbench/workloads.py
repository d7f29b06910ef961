"""Pinned verification workloads and the checks on their outputs.

Each workload is a config text passed to ``rwrs.config.parse_config``; the
benchmark adds only ``master_seed`` (from ``--seed``) and ``output_dir``.
``replicates`` sets how long one ``run_experiment`` call takes: 500 for
``fdd-gauss`` (the size its seed-0 verdicts were first read at), the
experiment's minimum of 500 for ``lemma1-stable`` and 20 for
``holder-refine``, so that the full set of benchmark runs fits in an hour
and a ``holder-refine`` run holds several calls between reference-kernel
timings (see ``reference.py``).
Why each workload was chosen, and what its verdicts read at seed 0, is
recorded in ``BENCHMARK.json``.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    # Expected shape of the outputs, fixed by the config.
    csv_rows: int
    summary_lines: int
    reports: int

    @property
    def workers(self) -> int:
        """Processes ``run_experiment`` computes in, from the config."""
        return int(re.search(r"^workers: *(\d+)$", self.config, re.M).group(1))


WORKLOADS = {w.name: w for w in (
    Workload(
        name="fdd-gauss",
        config=("experiment: verify-fdd\nalpha: 2.0\nn: 65536\n"
                "points: 1:0.5,0.5:0.25,0.5:0.75\nreplicates: 500\nworkers: 1\n"),
        # 3 points + 3 pairs x 2 sign combinations + the variance row
        csv_rows=10, summary_lines=10, reports=9),
    Workload(
        name="lemma1-stable",
        config=("experiment: verify-lemma1\nalpha: 1.5\nn: 65536\n"
                "s_vec: 0.25,0.5,1\nreplicates: 500\nworkers: 2\n"),
        # upper triangle of a 3 x 3 matrix
        csv_rows=6, summary_lines=6, reports=6),
    Workload(
        name="holder-refine",
        config=("experiment: verify-holder\nalpha: 2.0\ngrid_points: 32\n"
                "replicates: 20\nworkers: 1\n"),
        # one row per grid (32 and 64 points), one refinement verdict
        csv_rows=2, summary_lines=1, reports=0),
)}


class OutputError(Exception):
    """The files a run wrote do not have the expected form."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise OutputError(message)


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def check_outputs(out_dir: Path, workload: Workload, config, manifest) -> tuple[str, list[str]]:
    """Validate one run's files; return (digest, verdict lines).

    The digest covers every CSV, ``summary.txt`` and the reports JSON.
    ``manifest.json`` is left out (it holds timestamps), and so is the
    reports' ``meta.config_hash``: that hash covers ``workers`` and
    ``output_dir``, so it is checked against the run's own config instead.
    """
    from rwrs.config import config_hash

    _require(manifest.status == "complete", f"manifest status {manifest.status!r}")
    _require(isinstance(manifest.passed, bool), "manifest has no verdict")
    files = sorted(p.name for p in out_dir.iterdir() if p.is_file())
    _require(sorted(manifest.outputs) == files,
             f"manifest lists {sorted(manifest.outputs)}, directory holds {files}")

    csvs = [f for f in files if f.endswith(".csv")]
    _require(len(csvs) == 1, f"expected one CSV, found {csvs}")
    rows = list(csv.reader(io.StringIO((out_dir / csvs[0]).read_text())))
    _require(len(rows) == workload.csv_rows + 1,
             f"{csvs[0]}: {len(rows) - 1} data rows, expected {workload.csv_rows}")
    header = rows[0]
    for row in rows[1:]:
        # verify-fdd writes point tuples such as "(0.5, 0.25)" unquoted, so
        # its rows can hold more fields than the header; the numeric columns
        # are the trailing ones and are located from the end.
        _require(len(row) >= len(header), f"{csvs[0]}: short row {row}")
        for col in ("statistic", "p_value", "median_estimate"):
            if col in header:
                cell = row[header.index(col) - len(header)]
                _require(cell == "" or _finite(cell),
                         f"{csvs[0]}: {col} is not a finite number in {row}")

    verdicts = (out_dir / "summary.txt").read_text().splitlines()
    _require(len(verdicts) == workload.summary_lines,
             f"summary.txt has {len(verdicts)} lines, expected {workload.summary_lines}")
    _require(all(v.startswith(("PASS: ", "FAIL: ")) for v in verdicts),
             "summary.txt lines must start with PASS: or FAIL:")
    _require(manifest.passed == all(v.startswith("PASS: ") for v in verdicts),
             "manifest verdict disagrees with summary.txt")

    digest = hashlib.sha256()
    for name in csvs + ["summary.txt"]:
        digest.update(name.encode() + b"\0" + (out_dir / name).read_bytes() + b"\0")

    reports = [f for f in files if f.endswith("_reports.json")]
    _require(len(reports) == (1 if workload.reports else 0),
             f"unexpected reports files {reports}")
    for name in reports:
        data = json.loads((out_dir / name).read_text())
        meta = data["meta"]
        _require(meta.pop("config_hash") == config_hash(config),
                 f"{name}: config_hash does not match the run's config")
        _require(meta["master_seed"] == config.master_seed, f"{name}: wrong master_seed")
        _require(len(data["reports"]) == workload.reports,
                 f"{name}: {len(data['reports'])} reports, expected {workload.reports}")
        for rep in data["reports"]:
            _require(0.0 < rep["p_value"] <= 1.0, f"{name}: p-value out of range")
            _require(0.0 <= rep["statistic"] <= 1.0, f"{name}: KS statistic out of range")
            _require(rep["sample_sizes"] == [config.replicates] * 2,
                     f"{name}: sample sizes {rep['sample_sizes']}")
            _require(rep["permutations"] == config.permutations,
                     f"{name}: permutation count {rep['permutations']}")
        canonical = json.dumps(data, sort_keys=True).encode()
        digest.update(name.encode() + b"\0" + canonical + b"\0")
    return digest.hexdigest(), verdicts
