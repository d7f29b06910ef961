"""Self-tests of the benchmark: ``python3 -m pytest perfbench`` from the root."""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from tracing import Tracer, per_layer_units, self_times, valid_metric_name  # noqa: E402
from workloads import WORKLOADS, check_outputs  # noqa: E402


def test_self_times_exact_on_synthetic_nesting():
    # clock readings at: top start, mid start, leaf start/end, mid end,
    # leaf start/end, top end
    ticks = iter([0, 10, 13, 20, 26, 40, 41, 45])
    tracer = Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("leaf", lambda: None)
    mid = tracer.wrap("mid", lambda: leaf())
    top = tracer.wrap("top", lambda: (mid(), leaf()))
    top()

    own = self_times(tracer.spans)
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(own[span.id])
    assert by_name == {"leaf": [7, 1], "mid": [16 - 7], "top": [45 - 16 - 1]}
    assert tracer.check_closure("top") == (45, 45)


@pytest.mark.parametrize("name", ["run_s", "walk.steps", "a-b_c.1",
                                  "9lives", "x" * 64])
def test_metric_name_check_accepts(name):
    assert valid_metric_name(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "a/b", "a:b", "café",
                                  "x" * 65, "run_s\n"])
def test_metric_name_check_rejects(name):
    assert not valid_metric_name(name)


def test_times_are_scaled_by_the_reference_kernel():
    samples = {"run_s": [3.0, 1.0, 2.0], "setup_s": [0.5], "cpu_s": [4.0, 4.0],
               "peak_rss_mb": [64.0, 60.0, 62.0]}
    # the machine ran the kernel at half its nominal speed
    kernel_s = [2 * run.NOMINAL_S, 3 * run.NOMINAL_S, 1 * run.NOMINAL_S]
    metrics = run.end_to_end(samples, kernel_s)
    assert {name: m["value"] for name, m in metrics.items()} == pytest.approx(
        {"run_s": 1.0, "setup_s": 0.25, "cpu_s": 2.0, "peak_rss_mb": 62.0})
    assert {name: m["unit"] for name, m in metrics.items()} == run.END_TO_END
    # a pooled workload times no kernel and is reported unscaled
    assert run.end_to_end(samples, [])["run_s"]["value"] == 2.0


def test_reference_kernel_runs_without_rwrs():
    code = ("import sys, reference; t = reference.kernel_seconds(); "
            "assert t > 0 and not any(m.startswith('rwrs') for m in sys.modules)")
    subprocess.run([sys.executable, "-c", code], cwd=HERE, check=True, timeout=60)


def test_benchmark_json_matches_what_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert valid_metric_name(metric["name"])


# Small configs of the same experiments, for a fast traced-vs-untraced check.
_SMALL = {
    "fdd-gauss": {"n": "16384", "replicates": "20", "K": "4096", "cells": "64",
                  "permutations": "500"},
    "lemma1-stable": {"n": "4096", "K": "4096", "cells": "64", "workers": "1",
                      "permutations": "500", "n_calib": "10000",
                      "calib_replicates": "100"},
    "holder-refine": {"grid_points": "4", "replicates": "3", "K": "4096",
                      "cells": "64"},
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_writes_identical_outputs(tmp_path, name):
    import rwrs.runner
    from rwrs.config import parse_config

    original = rwrs.runner.run_experiment
    workload = WORKLOADS[name]
    digests = []
    for tag in ("plain", "traced"):
        out = tmp_path / tag
        out.mkdir()
        config = parse_config(workload.config, {**_SMALL[name], "master_seed": "3",
                                                "output_dir": str(out)})
        tracer = Tracer()
        if tag == "traced":
            tracer.install()
        try:
            manifest = rwrs.runner.run_experiment(config)
        finally:
            tracer.uninstall()
        digests.append(check_outputs(out, workload, config, manifest)[0])
    assert digests[0] == digests[1]
    assert rwrs.runner.run_experiment is original
    assert sum(s.name == "runner.run_experiment" for s in tracer.spans) == 1
    covered, total = tracer.check_closure()
    assert covered == total > 0
    layers = tracer.layer_metrics()
    assert set(layers) <= set(per_layer_units())


def test_waste_ratio_counts_distinct_seeds():
    from rwrs.randomness import IncrementLaw, SeedScheme, StreamKind
    import rwrs.walk

    tracer = Tracer()
    tracer.install()
    try:
        law = IncrementLaw.lazy_simple()
        for index in (0, 1, 0, 0):
            rwrs.walk.simulate_walk(16, law, SeedScheme(1, StreamKind.WALK, index))
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics()
    assert layers["walk.simulate_walk.calls"] == 4
    assert layers["walk.steps"] == 64
    assert layers["walk.distinct_walk_ratio"] == 0.5
    assert layers["limit.distinct_path_ratio"] == 0.0

