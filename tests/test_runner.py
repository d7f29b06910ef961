import ast
import csv
import io
import json
import os
import subprocess
import sys
from collections import Counter, defaultdict
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import rwrs.diagnostics
import rwrs.limit
import rwrs.runner
import rwrs.walk
from rwrs.cli import main
from rwrs.config import EXPERIMENTS, config_hash, parse_config
from rwrs.diagnostics import THETA_COMBINATIONS, _per_n_seed
from rwrs.io import parse_sheet_csv
from rwrs.randomness import IncrementLaw, SeedScheme, StreamKind, derive_site_value
from rwrs.runner import run_experiment
from rwrs.walk import simulate_walk

RWRS_SMALL = ("experiment: simulate-rwrs\nalpha: 2.0\nn: 8\nreplicates: 1\n"
              "master_seed: 5\n"
              "s_grid: 0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1\n"
              "t_grid: 0, 0.25, 0.5, 0.75, 1\n")
FDD_SMALL = ("experiment: verify-fdd\nalpha: 2.0\nn: 16384\nreplicates: 40\n"
             "K: 1024\ncells: 32\npoints: 1:0.5, 0:0.25\nmaster_seed: 11\n"
             "permutations: 500\n")
HOLDER_SMALL = ("experiment: verify-holder\nalpha: 2.0\nreplicates: 6\nK: 1024\n"
                "cells: 32\ngrid_points: 8\ngamma: 0.7\ngamma_prime: 0.45\n"
                "master_seed: 13\n")
SELFSIM_SMALL = ("experiment: verify-selfsim\nalpha: 2.0\nreplicates: 40\nK: 1024\n"
                 "cells: 32\npermutations: 500\nmaster_seed: 9\n")
MOMENTS_SMALL = ("experiment: verify-moments\nalpha: 2.0\nreplicates: 200\n"
                 "n_list: 256, 512, 1024, 2048\nmaster_seed: 8\n")


def _run(text: str, tmp_path, **overrides):
    overrides.setdefault("output_dir", str(tmp_path))
    cfg = parse_config(text, {k: str(v) for k, v in overrides.items()})
    return cfg, run_experiment(cfg)


def test_simulate_rwrs_matches_bruteforce(tmp_path):
    cfg, manifest = _run(RWRS_SMALL, tmp_path)
    values, s_axis, t_axis = parse_sheet_csv(
        (tmp_path / "simulate-rwrs_2.0_8.csv").read_text())

    # independent evaluation of the centered indicator sums on the same walk
    law = IncrementLaw.lazy_simple()
    path = simulate_walk(8, law, SeedScheme(5, StreamKind.WALK, 0))
    y = derive_site_value(SeedScheme(5, StreamKind.SCENERY, 0), path.positions)
    for i, s in enumerate(s_axis):
        for j, t in enumerate(t_axis):
            expected = sum((1.0 if y[k] <= t else 0.0) - t
                           for k in range(int(np.floor(8 * s))))
            assert values[i, j] == pytest.approx(expected, abs=1e-12)
    assert manifest.passed is True


def test_rerun_and_workers_byte_identical(tmp_path):
    text = RWRS_SMALL.replace("replicates: 1", "replicates: 6")
    dirs = {}
    for name, workers in (("a", 1), ("b", 1), ("c", 8)):
        d = tmp_path / name
        d.mkdir()
        _run(text, d, workers=workers)
        dirs[name] = d
    csvs = sorted(p.name for p in dirs["a"].glob("*.csv"))
    assert len(csvs) == 6
    for f in csvs:
        ref = (dirs["a"] / f).read_bytes()
        assert (dirs["b"] / f).read_bytes() == ref
        assert (dirs["c"] / f).read_bytes() == ref
    assert ((dirs["a"] / "summary.txt").read_bytes()
            == (dirs["c"] / "summary.txt").read_bytes())


def test_limit_experiment_workers_identical(tmp_path):
    text = ("experiment: simulate-limit\nalpha: 2.0\nreplicates: 4\nK: 1024\n"
            "cells: 32\ns_grid: 0, 0.5, 1\nt_grid: 0, 0.5, 1\nmaster_seed: 2\n")
    out = {}
    for name, workers in (("w1", 1), ("w8", 8)):
        d = tmp_path / name
        d.mkdir()
        _run(text, d, workers=workers)
        out[name] = d
    for f in sorted(p.name for p in out["w1"].glob("*.csv")):
        assert (out["w1"] / f).read_bytes() == (out["w8"] / f).read_bytes()


def _assert_workers_identical(tmp_path, text):
    out = {}
    for name, workers in (("w1", 1), ("pool", 2)):
        d = tmp_path / name
        d.mkdir()
        _run(text, d, workers=workers)
        out[name] = d
    names = sorted(p.name for p in out["w1"].iterdir() if p.name != "manifest.json")
    assert names == sorted(p.name for p in out["pool"].iterdir()
                           if p.name != "manifest.json")
    for f in names:
        if f.endswith("_reports.json"):
            # the config hash covers the worker count
            a, b = (json.loads((out[k] / f).read_text()) for k in ("w1", "pool"))
            a["meta"].pop("config_hash")
            b["meta"].pop("config_hash")
            assert a == b
        else:
            assert (out["w1"] / f).read_bytes() == (out["pool"] / f).read_bytes()


@pytest.mark.parametrize("text", [FDD_SMALL, HOLDER_SMALL, MOMENTS_SMALL],
                         ids=["verify-fdd", "verify-holder", "verify-moments"])
def test_verify_experiment_workers_identical(tmp_path, text):
    _assert_workers_identical(tmp_path, text)


# heavy-tailed walks, whose long jumps exercise both branches of the site index
_STABLE_SMALL = {
    "simulate-rwrs": ("experiment: simulate-rwrs\nalpha: 1.5\nn: 4096\nreplicates: 4\n"
                      "s_grid: 0, 0.25, 0.57, 1\nt_grid: 0, 0.3, 0.5, 1\n"
                      "master_seed: 3\n"),
    "verify-lemma1": ("experiment: verify-lemma1\nalpha: 1.5\nn: 4096\nreplicates: 500\n"
                      "K: 1024\ncells: 32\ns_vec: 0.3, 0.57, 1\npermutations: 500\n"
                      "master_seed: 3\n"),
    "modulus-sweep": ("experiment: modulus-sweep\nalpha: 1.5\nn: 512\nreplicates: 6\n"
                      "s_grid: 0, 0.25, 0.5, 0.75, 1\nt_grid: 0, 0.25, 0.5, 0.75, 1\n"
                      "deltas: 0.25, 0.5\nmaster_seed: 3\n"),
    "verify-moments": MOMENTS_SMALL.replace("alpha: 2.0", "alpha: 1.5"),
}


@pytest.mark.parametrize("text", list(_STABLE_SMALL.values()), ids=list(_STABLE_SMALL))
def test_stable_experiment_workers_identical(tmp_path, text):
    _assert_workers_identical(tmp_path, text)


@pytest.mark.parametrize("text, kinds", [
    (FDD_SMALL, {StreamKind.WALK, StreamKind.LEVY}),
    (HOLDER_SMALL, {StreamKind.LEVY}),
    (MOMENTS_SMALL, {StreamKind.WALK}),
], ids=["verify-fdd", "verify-holder", "verify-moments"])
def test_each_path_is_simulated_once(tmp_path, monkeypatch, text, kinds):
    calls = Counter()

    def count(name, key):
        original = getattr(rwrs.diagnostics, name)

        def counted(*args):
            calls[key(*args)] += 1
            return original(*args)

        monkeypatch.setattr(rwrs.diagnostics, name, counted)

    for name in ("simulate_walk", "simulate_levy_path"):
        count(name, lambda *args: (args[-1].stream_kind, args[-1].master_seed,
                                   args[-1].replicate_index))
    # each Levy path is binned into one local-time field
    count("local_time_field",
          lambda path, *_: ("local_time_field", path.seed.replicate_index))
    cfg, _ = _run(text, tmp_path)
    # verify-moments draws the walks of each n under their own master seed
    masters = ([_per_n_seed(cfg.master_seed, n) for n in cfg.n_list]
               if cfg.experiment == "verify-moments" else [cfg.master_seed])
    expected = Counter({(kind, master, r): 1 for kind in kinds for master in masters
                        for r in range(cfg.replicates)})
    if StreamKind.LEVY in kinds:
        expected.update(("local_time_field", r) for r in range(cfg.replicates))
    assert calls == expected


@pytest.mark.parametrize("text", [SELFSIM_SMALL, MOMENTS_SMALL],
                         ids=["verify-selfsim", "verify-moments"])
def test_manifest_lists_the_drawn_streams(tmp_path, monkeypatch, text):
    # the key of every generator the walks, Levy paths and limit sheets draw
    # from, salt included
    drawn = defaultdict(set)
    for module in (rwrs.walk, rwrs.limit):
        original = module.stream_generator

        def recorded(seed, salt=0, _original=original):
            drawn[seed.stream_kind.value].add(f"{seed.philox_key(salt):032x}")
            return _original(seed, salt)

        monkeypatch.setattr(module, "stream_generator", recorded)
    _, manifest = _run(text, tmp_path)
    listed = defaultdict(set)
    for entry in manifest.replicate_seeds:
        for kind in StreamKind:
            if kind.value in entry:
                listed[kind.value].add(entry[kind.value])
    assert listed == drawn


def test_verify_moments_file_is_named_after_the_longest_walk(tmp_path):
    # the experiment never reads n, so n leaves the file set alone
    names = {}
    for tag, text in (("default", MOMENTS_SMALL), ("n512", MOMENTS_SMALL + "n: 512\n")):
        (tmp_path / tag).mkdir()
        _run(text, tmp_path / tag)
        names[tag] = sorted(p.name for p in (tmp_path / tag).iterdir())
    assert names["default"] == names["n512"]
    assert "verify-moments_2.0_2048.csv" in names["default"]


def test_every_experiment_has_an_implementation():
    assert set(rwrs.runner._EXPERIMENTS) == set(EXPERIMENTS)


def test_missing_output_dir_leaves_nothing(tmp_path):
    cfg = parse_config(RWRS_SMALL, {"output_dir": str(tmp_path / "nope")})
    with pytest.raises(FileNotFoundError):
        run_experiment(cfg)
    assert list(tmp_path.iterdir()) == []


def test_failure_removes_partial_outputs(tmp_path):
    # verify-lemma1 requires n >= 4096; the runner must clean up and mark
    # the manifest failed
    text = "experiment: verify-lemma1\nalpha: 2.0\nn: 512\nreplicates: 500\n"
    cfg = parse_config(text, {"output_dir": str(tmp_path)})
    with pytest.raises(ValueError):
        run_experiment(cfg)
    leftovers = sorted(p.name for p in tmp_path.iterdir())
    assert leftovers == ["manifest.json"]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["error"]


def test_interrupt_removes_partial_outputs(tmp_path, monkeypatch):
    class InterruptedFiles(dict):
        # the interrupt arrives after the first output file is written
        def items(self):
            yield "partial.csv", "x\n"
            raise KeyboardInterrupt

    _, streams = rwrs.runner._EXPERIMENTS["simulate-rwrs"]
    monkeypatch.setitem(rwrs.runner._EXPERIMENTS, "simulate-rwrs",
                        (lambda config, map_fn: (InterruptedFiles(), []), streams))
    cfg = parse_config(RWRS_SMALL, {"output_dir": str(tmp_path)})
    with pytest.raises(KeyboardInterrupt):
        run_experiment(cfg)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["error"].startswith("KeyboardInterrupt")


@pytest.mark.parametrize("target, marker", [
    ("simulate-rwrs_2.0_8.csv", ""),
    ("summary.txt", ""),
    # the final manifest, written once every output is in place
    ("manifest.json", '"status": "complete"'),
], ids=["csv", "summary", "manifest"])
def test_failed_write_leaves_no_partial_file(tmp_path, monkeypatch, target, marker):
    original = Path.write_text
    failed = []

    def write_half_then_fail(self, text, *args, **kwargs):
        # the first write meant for ``target`` stops halfway, as on a full disk
        if target in self.name and marker in text and not failed:
            failed.append(self.name)
            original(self, text[: len(text) // 2], *args, **kwargs)
            raise OSError(28, "No space left on device")
        return original(self, text, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", write_half_then_fail)
    cfg = parse_config(RWRS_SMALL, {"output_dir": str(tmp_path)})
    with pytest.raises(OSError):
        run_experiment(cfg)
    assert failed
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["error"].startswith("OSError")


def test_manifest_completeness(tmp_path):
    cfg, manifest = _run(RWRS_SMALL, tmp_path)
    data = json.loads((tmp_path / "manifest.json").read_text())
    assert data["status"] == "complete"
    assert data["passed"] is True
    assert sorted(data["outputs"]) == sorted(p.name for p in tmp_path.iterdir())
    reparsed = parse_config(data["config_text"])
    assert config_hash(reparsed) == data["config_hash"]
    assert data["replicate_seeds"][0]["replicate"] == 0
    assert "walk" in data["replicate_seeds"][0]


def test_manifest_bytes_equal_the_deep_copy_form(tmp_path):
    # the manifest is dumped from vars(); asdict() would copy the seed list
    cfg = parse_config("experiment: verify-lemma1\nalpha: 1.5\nreplicates: 500\n",
                       {"output_dir": str(tmp_path)})
    manifest = rwrs.runner.RunManifest(
        config_hash=config_hash(cfg), code_version="0", experiment=cfg.experiment,
        config_text="experiment: verify-lemma1\n",
        replicate_seeds=rwrs.runner._replicate_seeds(cfg), started_at="t0",
        finished_at="t1", status="complete", outputs=["a.csv", "manifest.json"],
        passed=False)
    assert len(manifest.replicate_seeds) == 500
    path = tmp_path / "manifest.json"
    rwrs.runner._write_manifest(path, manifest)
    assert path.read_text() == json.dumps(asdict(manifest), sort_keys=True, indent=2) + "\n"


def test_verify_fdd_experiment(tmp_path):
    cfg, manifest = _run(FDD_SMALL, tmp_path)
    table = (tmp_path / "verify-fdd_2.0_16384.csv").read_text()
    lines = table.strip().split("\n")
    assert lines[0].startswith("alpha,n,kind")
    kinds = {line.split(",")[2] for line in lines[1:]}
    # two points, one pair (two thetas), plus the s=1 variance cross-check
    assert kinds == {"point", "pair", "variance"}
    summary = (tmp_path / "summary.txt").read_text()
    assert "fdd variance" in summary
    bundle = json.loads((tmp_path / "verify-fdd_2.0_16384_reports.json").read_text())
    assert bundle["meta"]["config_hash"] == config_hash(cfg)
    assert bundle["meta"]["master_seed"] == 11
    first = bundle["reports"][0]
    assert {"statistic", "p_value", "sample_sizes", "permutations"} <= set(first)


def test_verify_fdd_csv_fields_match_header(tmp_path):
    cfg, _ = _run(FDD_SMALL, tmp_path)
    text = (tmp_path / "verify-fdd_2.0_16384.csv").read_text()
    header, *rows = csv.reader(io.StringIO(text))
    assert rows
    col = {name: header.index(name) for name in ("kind", "point_a", "point_b", "theta")}
    for row in rows:
        assert len(row) == len(header)
        assert ast.literal_eval(row[col["point_a"]]) in cfg.points
        if row[col["kind"]] == "pair":
            assert ast.literal_eval(row[col["point_b"]]) in cfg.points
            assert ast.literal_eval(row[col["theta"]]) in THETA_COMBINATIONS
    point_rows = [row for row in rows if row[col["kind"]] == "point"]
    assert sorted(ast.literal_eval(row[col["point_a"]]) for row in point_rows) \
        == sorted(cfg.points)


def test_verify_holder_experiment(tmp_path):
    cfg, manifest = _run(HOLDER_SMALL, tmp_path)
    table = (tmp_path / "verify-holder_2.0_16384.csv").read_text()
    assert len(table.strip().split("\n")) == 3  # header + both resolutions
    assert "holder" in (tmp_path / "summary.txt").read_text()


def test_modulus_sweep_experiment(tmp_path):
    text = ("experiment: modulus-sweep\nalpha: 2.0\nn: 512\nreplicates: 6\n"
            "s_grid: 0, 0.25, 0.5, 0.75, 1\nt_grid: 0, 0.25, 0.5, 0.75, 1\n"
            "deltas: 0.25, 0.5\nmaster_seed: 4\n")
    cfg, manifest = _run(text, tmp_path)
    assert manifest.passed is True
    rows = (tmp_path / "modulus-sweep_2.0_512.csv").read_text().strip().split("\n")
    assert rows[0] == "alpha,n,delta,median_modulus"
    assert len(rows) == 3


def test_cli_success_and_exit_codes(tmp_path, capsys):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(RWRS_SMALL)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code = main([str(cfg_file), f"--output_dir={out_dir}"])
    assert code == 0
    assert (out_dir / "summary.txt").read_text().startswith("PASS")

    # threshold failure -> exit 1 (p-values can never exceed 1.0)
    sim_dir = tmp_path / "selfsim"
    sim_dir.mkdir()
    code = main(["--experiment=verify-selfsim", "--alpha=2.0",
                 "--replicates=40", "--K=1024", "--cells=32",
                 "--permutations=500", "--p_value_min=1.0",
                 f"--output_dir={sim_dir}"])
    assert code == 1
    assert "FAIL" in (sim_dir / "summary.txt").read_text()

    # config errors -> exit 2
    assert main(["--experiment=simulate-rwrs", "--alpha=0.5"]) == 2
    assert main([str(tmp_path / "missing.cfg")]) == 2
    assert main(["--experiment=bogus"]) == 2
    assert main(["--badflag"]) == 2
    assert main(["--help"]) == 0


def test_output_dir_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("RWRS_OUTPUT_DIR", str(tmp_path))
    cfg = parse_config(RWRS_SMALL)
    manifest = run_experiment(cfg)
    assert (tmp_path / "summary.txt").exists()
    assert manifest.status == "complete"


# Runs in a child process: with sys.modules["scipy"] = None every scipy
# import raises ImportError, so any runtime use of scipy fails the run.
NO_SCIPY = """
import sys
sys.modules["scipy"] = None
sys.path.insert(0, sys.argv[1])
import rwrs, rwrs.cli, rwrs.runner
out = sys.argv[2]
codes = [
    rwrs.cli.main(["--experiment=verify-moments", "--alpha=1.5",
                   "--replicates=200", "--n_list=256,512,1024,2048",
                   "--output_dir=" + out]),
    rwrs.cli.main(["--experiment=simulate-limit", "--alpha=1.5", "--K=1024",
                   "--cells=32", "--replicates=1",
                   "--output_dir=" + out]),
]
assert codes == [0, 0], codes
"""


def test_runs_without_scipy(tmp_path):
    src = Path(rwrs.runner.__file__).parents[1]
    done = subprocess.run([sys.executable, "-c", NO_SCIPY, str(src), str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


_GRID_65 = ", ".join(repr(float(x)) for x in np.linspace(0.0, 1.0, 65))
# 33- and 65-point grids over 512 cells: a float64 product of this size
# through OpenBLAS sums in an order set by its thread count
BLAS_CONFIGS = {
    "holder": ("experiment: verify-holder\nalpha: 2.0\nreplicates: 2\nK: 1024\n"
               "cells: 512\ngrid_points: 32\nmaster_seed: 13\n"),
    "limit": ("experiment: simulate-limit\nalpha: 2.0\nreplicates: 1\nK: 1024\n"
              f"cells: 512\ns_grid: {_GRID_65}\nt_grid: {_GRID_65}\nmaster_seed: 3\n"),
}
# Runs in a child process, so that OPENBLAS_NUM_THREADS is read before numpy
# is imported: argv holds the source path, then (config, output dir) pairs.
BLAS_RUNS = """
import sys
sys.path.insert(0, sys.argv[1])
from rwrs.config import parse_config
from rwrs.runner import run_experiment
for text, out in zip(sys.argv[2::2], sys.argv[3::2]):
    run_experiment(parse_config(text, {"output_dir": out}))
"""


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    src = str(Path(rwrs.runner.__file__).parents[1])
    for threads in ("1", "2"):
        args = []
        for name, text in BLAS_CONFIGS.items():
            (tmp_path / threads / name).mkdir(parents=True)
            args += [text, str(tmp_path / threads / name)]
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", BLAS_RUNS, src, *args],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
    for name in BLAS_CONFIGS:
        one, two = tmp_path / "1" / name, tmp_path / "2" / name
        files = sorted(p.name for p in one.iterdir()
                       if p.suffix == ".csv" or p.name == "summary.txt")
        assert "summary.txt" in files and len(files) > 1
        for f in files:
            assert (one / f).read_bytes() == (two / f).read_bytes(), f
