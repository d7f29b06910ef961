"""Experiment orchestration: deterministic replicate scheduling and reports.

Workers consume replicate indices whose seeds are derived from the master
seed alone, and results are reduced in index order, so CSV outputs are
byte-identical for any worker count.
"""
from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, config_hash, serialize_config
from .diagnostics import (
    LimitConfig,
    _per_n_seed,
    bickel_wichura_modulus,
    discrete_kernel,
    holder_norm_estimate,
    matched_limit_kernel,
    moment_scaling,
    samples,
    self_similarity_factor,
    self_similarity_test,
    verify_fdd,
    verify_lemma1,
)
from .io import envelope_json, report_entry, reports_json, rows_to_csv, sheet_to_csv
from .randomness import Alpha, SeedScheme, StreamKind
from .walk import EmpiricalSheet, GridSpec

OUTPUT_DIR_ENV = "RWRS_OUTPUT_DIR"

_SLOPE_CHECKS = {
    # functional -> (target exponent as function of alpha, tolerance)
    "sumN2": (lambda a: 2.0 - 1.0 / a, 0.10),
    "sumN3": (lambda a: 3.0 - 2.0 / a, 0.15),
    "sumN4": (lambda a: 4.0 - 3.0 / a, 0.20),
}


@dataclass
class RunManifest:
    config_hash: str
    code_version: str
    experiment: str
    config_text: str
    replicate_seeds: list
    started_at: str
    finished_at: str | None = None
    status: str = "incomplete"
    outputs: list[str] = field(default_factory=list)
    passed: bool | None = None
    error: str | None = None


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _replicate_seeds(config: ExperimentConfig) -> list:
    """Key of every stream the experiment draws, one entry per replicate."""
    _, streams = _EXPERIMENTS[config.experiment]
    if config.experiment == "verify-moments":
        # the walks of each n are drawn under their own master seed
        sizes = sorted(set().union(*_moment_n_lists(config).values()))
        masters = [({"n": n}, _per_n_seed(config.master_seed, n)) for n in sizes]
    else:
        masters = [({}, config.master_seed)]
    # verify-selfsim draws its two sides from replicates 0..R-1 and R..2R-1
    count = config.replicates * (2 if config.experiment == "verify-selfsim" else 1)
    out = []
    for fields, master in masters:
        for r in range(count):
            entry = {**fields, "replicate": r}
            for kind in streams:
                key = SeedScheme(master, kind, r).philox_key()
                entry[kind.value] = f"{key:032x}"
            out.append(entry)
    return out


def _moment_n_lists(config: ExperimentConfig) -> dict[str, tuple]:
    """Walk lengths of each verify-moments functional: ``n_list`` when set."""
    sums = config.n_list or (4096, 8192, 16384, 32768, 65536, 131072)
    maxn = config.n_list or (1024, 2048, 4096, 8192, 16384, 32768, 65536)
    return {"sumN2": sums, "sumN3": sums, "sumN4": sums, "maxN_scaled": maxn}


def _limit_config(config: ExperimentConfig) -> LimitConfig:
    return LimitConfig(steps=config.K, cells=config.cells)


def _base_name(config: ExperimentConfig, n: int | None = None) -> str:
    size = config.n if n is None else n
    if config.experiment == "simulate-limit":
        size = config.K
    return f"{config.experiment}_{repr(float(config.alpha))}_{size}"


class _SummaryLine:
    def __init__(self, label: str, passed: bool, detail: str) -> None:
        self.label = label
        self.passed = passed
        self.detail = detail

    def render(self) -> str:
        word = "PASS" if self.passed else "FAIL"
        return f"{word}: {self.label}: {self.detail}"


def run_experiment(config: ExperimentConfig) -> RunManifest:
    """Run the configured experiment and write manifest, CSVs and summary.

    Every file is written atomically (see :func:`_write_atomic`). If the
    run fails, the outputs it wrote are removed and the manifest is
    rewritten with status ``failed``.
    """
    out_dir = config.output_dir or os.environ.get(OUTPUT_DIR_ENV) or "."
    out_path = Path(out_dir)
    if not out_path.is_dir():
        raise FileNotFoundError(f"output directory does not exist: {out_dir}")

    manifest = RunManifest(
        config_hash=config_hash(config),
        code_version=__version__,
        experiment=config.experiment,
        config_text=serialize_config(config),
        replicate_seeds=_replicate_seeds(config),
        started_at=_now(),
    )
    manifest_path = out_path / "manifest.json"
    _write_manifest(manifest_path, manifest)

    written: list[Path] = []
    executor = None
    try:
        if config.workers > 1:
            executor = ProcessPoolExecutor(max_workers=config.workers)

            def map_fn(fn, it):
                items = list(it)
                chunk = max(1, len(items) // (config.workers * 4))
                return executor.map(fn, items, chunksize=chunk)
        else:
            map_fn = map

        implementation, _ = _EXPERIMENTS[config.experiment]
        files, summary = implementation(config, map_fn)

        for name, text in files.items():
            path = out_path / name
            _write_atomic(path, text)
            written.append(path)
        summary_text = "\n".join(line.render() for line in summary) + "\n"
        summary_path = out_path / "summary.txt"
        _write_atomic(summary_path, summary_text)
        written.append(summary_path)

        manifest.finished_at = _now()
        manifest.status = "complete"
        manifest.passed = all(line.passed for line in summary)
        manifest.outputs = sorted(p.name for p in written) + ["manifest.json"]
        _write_manifest(manifest_path, manifest)
        return manifest
    except (Exception, KeyboardInterrupt) as exc:
        for path in written:
            path.unlink(missing_ok=True)
        manifest.finished_at = _now()
        manifest.status = "failed"
        manifest.error = f"{type(exc).__name__}: {exc}"
        _write_manifest(manifest_path, manifest)
        raise
    finally:
        if executor is not None:
            executor.shutdown()


def _write_atomic(path: Path, text: str) -> None:
    """Write through a temporary file in the same directory, then rename it.

    A reader sees either the previous file or the whole new one; a failed
    write removes its temporary file.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_manifest(path: Path, manifest: RunManifest) -> None:
    # vars, not asdict: the fields are plain JSON values, and asdict would
    # deep-copy the seed list on every write
    _write_atomic(path, json.dumps(vars(manifest), sort_keys=True, indent=2) + "\n")


def _report_meta(config: ExperimentConfig) -> dict:
    return {"alpha": config.alpha, "n": config.n,
            "master_seed": config.master_seed,
            "config_hash": config_hash(config)}


# ---------------------------------------------------------------------------
# Experiment implementations. Each returns (files, summary lines).

def _exp_simulate_rwrs(config, map_fn):
    grid = GridSpec(np.asarray(config.s_grid), np.asarray(config.t_grid))
    kernel = partial(discrete_kernel, alpha=config.alpha, n=config.n,
                     master_seed=config.master_seed, grid=grid, scaled=False)
    files: dict[str, str] = {}
    for r, values in enumerate(samples(kernel, config.replicates, map_fn)["sheet"]):
        suffix = f"_rep{r:03d}" if config.replicates > 1 else ""
        base = _base_name(config) + suffix
        sheet = EmpiricalSheet(
            values=values, grid=grid, n=config.n, alpha=Alpha.of(config.alpha),
            scaled=False,
            walk_seed=SeedScheme(config.master_seed, StreamKind.WALK, r),
            scenery_seed=SeedScheme(config.master_seed, StreamKind.SCENERY, r))
        files[base + ".csv"] = sheet_to_csv(values, grid.s, grid.t)
        files[base + ".json"] = envelope_json(sheet)
    summary = [_SummaryLine("simulate-rwrs", True,
                            f"wrote {config.replicates} sheet(s), n={config.n}")]
    return files, summary


def _exp_simulate_limit(config, map_fn):
    kernel = matched_limit_kernel(config.alpha, _limit_config(config),
                                  config.master_seed,
                                  grids=((config.s_grid, config.t_grid),))
    files: dict[str, str] = {}
    for r, sheet in enumerate(samples(kernel, config.replicates, map_fn)["sheets"][0]):
        suffix = f"_rep{r:03d}" if config.replicates > 1 else ""
        base = _base_name(config) + suffix
        files[base + ".csv"] = sheet_to_csv(sheet.values, sheet.s_cuts, sheet.t_grid)
        files[base + ".json"] = envelope_json(sheet)
    summary = [_SummaryLine("simulate-limit", True,
                            f"wrote {config.replicates} sheet(s), K={config.K}")]
    return files, summary


# Columns every two-sample row ends with; _report_cells fills them.
_REPORT_HEADER = ["statistic_name", "statistic", "p_value", "n_a", "n_b"]


def _report_cells(rep) -> list:
    return [rep.statistic_name, rep.statistic, rep.p_value,
            rep.sample_sizes[0], rep.sample_sizes[1]]


def _report_line(label: str, rep, config, prefix: str = "") -> _SummaryLine:
    """PASS/FAIL line of one two-sample report against ``p_value_min``."""
    return _SummaryLine(
        label, rep.p_value > config.p_value_min,
        f"{prefix}ks={rep.statistic:.4f} p={rep.p_value:.4f} "
        f"threshold p>{config.p_value_min}")


def _report_files(config, header: list[str], rows: list[list],
                  keyed_reports) -> dict[str, str]:
    """Summary CSV and ``_reports.json`` of a two-sample experiment."""
    base = _base_name(config)
    return {
        base + ".csv": rows_to_csv(header, rows),
        base + "_reports.json": reports_json(
            [report_entry(key, rep) for key, rep in keyed_reports],
            _report_meta(config)),
    }


def _exp_verify_lemma1(config, map_fn):
    reports = verify_lemma1(
        config.alpha, config.s_vec, config.n, config.replicates,
        _limit_config(config), master_seed=config.master_seed,
        permutations=config.permutations, map_fn=map_fn)
    header = ["alpha", "n", "entry_i", "entry_j", "s_i", "s_j"] + _REPORT_HEADER
    rows, summary = [], []
    keyed = sorted(reports.items())
    for (i, j), rep in keyed:
        rows.append([config.alpha, config.n, i, j, config.s_vec[i],
                     config.s_vec[j]] + _report_cells(rep))
        summary.append(_report_line(f"lemma1 entry ({i},{j})", rep, config))
    return _report_files(config, header, rows, keyed), summary


def _exp_verify_fdd(config, map_fn):
    result = verify_fdd(
        config.alpha, config.points, config.n, config.replicates,
        _limit_config(config), master_seed=config.master_seed,
        permutations=config.permutations, map_fn=map_fn)
    header = ["alpha", "n", "kind", "point_a", "point_b", "theta"] + _REPORT_HEADER
    rows, summary = [], []
    keyed = [(key, result.reports[key]) for key in sorted(result.reports, key=repr)]
    for key, rep in keyed:
        if key[0] == "point":
            label, pa, pb, theta = "point", key[1], "", ""
        else:
            label, pa, pb, theta = "pair", key[1], key[2], key[3]
        rows.append([config.alpha, config.n, label, f"{pa}", f"{pb}", f"{theta}"]
                    + _report_cells(rep))
        summary.append(_report_line(f"fdd {label} {pa}{pb}{theta}", rep, config))

    # variance cross-check at points on the terminal section s = 1
    terminal = [p for p in config.points if p[0] == 1.0]
    if terminal and config.alpha == 2.0:
        s, t = terminal[0]
        discrete = result.discrete[:, config.points.index(terminal[0])]
        var_d = float(np.var(discrete, ddof=1))
        var_limit = float(t * (1.0 - t) * result.terminal_quadratic[:, 0, 0].mean())
        rel = abs(var_d - var_limit) / var_limit
        ok = rel <= config.var_tol
        rows.append([config.alpha, config.n, "variance", f"({s}, {t})", "",
                     "", "relative_error", rel, "", config.replicates,
                     config.replicates])
        summary.append(_SummaryLine(
            f"fdd variance at ({s},{t})", ok,
            f"discrete={var_d:.4f} limit={var_limit:.4f} "
            f"rel={rel:.3f} tol={config.var_tol}"))
    return _report_files(config, header, rows, keyed), summary


def _exp_verify_moments(config, map_fn):
    alpha = config.alpha
    header = ["alpha", "functional", "n", "level", "slope", "stderr",
              "target", "tol", "passed"]
    rows, summary = [], []
    n_lists = _moment_n_lists(config)
    fits = moment_scaling(alpha, n_lists, config.replicates,
                          master_seed=config.master_seed, map_fn=map_fn)
    for functional, n_list in n_lists.items():
        fit = fits[functional]
        levels = np.exp(np.asarray(fit.ys))
        if functional == "maxN_scaled":
            target, tol = "", ""
            ok = bool(np.all(np.diff(levels) < 0.0))
            detail = ("medians strictly decreasing" if ok else
                      f"medians not decreasing: {levels.tolist()}")
        else:
            target_fn, tol = _SLOPE_CHECKS[functional]
            target = target_fn(alpha)
            ok = abs(fit.slope - target) <= tol
            detail = f"slope={fit.slope:.3f} target={target:.3f} tol={tol}"
        summary.append(_SummaryLine(f"moments {functional}", ok, detail))
        for n, level in zip(n_list, levels):
            rows.append([alpha, functional, n, level, fit.slope, fit.stderr,
                         target, tol, ok])
    longest = max(map(max, n_lists.values()))  # the experiment never reads n
    files = {_base_name(config, n=longest) + ".csv": rows_to_csv(header, rows)}
    return files, summary


def _exp_verify_holder(config, map_fn):
    header = ["alpha", "grid_points", "gamma", "gamma_prime", "median_estimate"]
    rows, summary = [], []
    medians = {}
    resolutions = (config.grid_points, 2 * config.grid_points)
    axes = [tuple(np.linspace(0.0, 1.0, points + 1)) for points in resolutions]
    kernel = matched_limit_kernel(config.alpha, _limit_config(config),
                                  config.master_seed,
                                  grids=tuple((axis, axis) for axis in axes))
    per_grid = samples(kernel, config.replicates, map_fn)["sheets"]
    for points, sheets in zip(resolutions, per_grid):
        estimates = [holder_norm_estimate(sheet, config.gamma, config.gamma_prime)
                     for sheet in sheets]
        medians[points] = float(np.median(estimates))
        rows.append([config.alpha, points, config.gamma, config.gamma_prime,
                     medians[points]])
    ratio = medians[2 * config.grid_points] / medians[config.grid_points]
    critical = 1.0 - 1.0 / (2.0 * config.alpha)
    if config.gamma < critical:
        ok = 1.0 / config.holder_ratio_max <= ratio <= config.holder_ratio_max
        detail = (f"estimate ratio {ratio:.3f} within factor "
                  f"{config.holder_ratio_max} under refinement")
    else:
        ok = ratio > 1.0
        detail = f"estimate ratio {ratio:.3f} grows under refinement"
    summary = [_SummaryLine(
        f"holder gamma={config.gamma} gamma'={config.gamma_prime}", ok, detail)]
    files = {_base_name(config) + ".csv": rows_to_csv(header, rows)}
    return files, summary


def _exp_verify_selfsim(config, map_fn):
    rep = self_similarity_test(
        config.alpha, config.a, config.s0, config.t0, config.replicates,
        _limit_config(config), master_seed=config.master_seed,
        permutations=config.permutations, map_fn=map_fn)
    factor = self_similarity_factor(config.alpha, config.a)
    header = ["alpha", "a", "s0", "t0", "factor"] + _REPORT_HEADER
    rows = [[config.alpha, config.a, config.s0, config.t0, factor]
            + _report_cells(rep)]
    summary = [_report_line("self-similarity", rep, config,
                            prefix=f"a={config.a} factor={factor:.5f} ")]
    keyed = [(("selfsim", config.a, config.s0, config.t0), rep)]
    return _report_files(config, header, rows, keyed), summary


def _exp_modulus_sweep(config, map_fn):
    n_values = config.n_list or (config.n,)
    header = ["alpha", "n", "delta", "median_modulus"]
    rows, summary = [], []
    grid = GridSpec(np.asarray(config.s_grid), np.asarray(config.t_grid))
    for n in n_values:
        kernel = partial(discrete_kernel, alpha=config.alpha, n=int(n),
                         master_seed=config.master_seed, grid=grid)
        all_values = samples(kernel, config.replicates, map_fn)["sheet"]
        medians = []
        for delta in config.deltas:
            mods = [bickel_wichura_modulus(
                EmpiricalSheet(values=v, grid=grid, n=int(n),
                               alpha=Alpha.of(config.alpha), scaled=True), delta)
                for v in all_values]
            medians.append(float(np.median(mods)))
            rows.append([config.alpha, int(n), delta, medians[-1]])
        ok = bool(np.all(np.diff(medians) >= -1e-12))
        summary.append(_SummaryLine(
            f"modulus sweep n={n}", ok,
            f"medians nondecreasing in delta: {[round(m, 6) for m in medians]}"))
    files = {_base_name(config) + ".csv": rows_to_csv(header, rows)}
    return files, summary


# experiment -> (implementation, streams it draws, as listed in the manifest)
_EXPERIMENTS = {
    "simulate-rwrs": (_exp_simulate_rwrs, (StreamKind.WALK, StreamKind.SCENERY)),
    "simulate-limit": (_exp_simulate_limit, (StreamKind.LEVY, StreamKind.KIEFER)),
    "verify-lemma1": (_exp_verify_lemma1, (StreamKind.WALK, StreamKind.LEVY)),
    "verify-fdd": (_exp_verify_fdd, (StreamKind.WALK, StreamKind.SCENERY,
                                     StreamKind.LEVY, StreamKind.KIEFER)),
    "verify-moments": (_exp_verify_moments, (StreamKind.WALK,)),
    "verify-holder": (_exp_verify_holder, (StreamKind.LEVY, StreamKind.KIEFER)),
    "verify-selfsim": (_exp_verify_selfsim, (StreamKind.LEVY, StreamKind.KIEFER)),
    "modulus-sweep": (_exp_modulus_sweep, (StreamKind.WALK, StreamKind.SCENERY)),
}
