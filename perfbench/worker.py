"""One fresh benchmark process: set up rwrs, run a workload, report JSON.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``; not meant to be run by
hand. ``setup`` mode times set-up only; ``measure`` mode times set-up and
then repeats ``run_experiment`` for its time budget. For a single-process
workload, both pin the process to one CPU and time the reference kernel
after set-up and after every call (``reference_s``). ``trace`` mode installs
the span tracer before set-up and runs the workload once with
``workers=1``. The result goes to ``--result``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from dataclasses import fields
from pathlib import Path

from reference import kernel_seconds
from tracing import Tracer
from workloads import WORKLOADS, OutputError, check_outputs


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; CHILDREN holds the largest reaped pool worker
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def _limit_config(config):
    """The workload's ``LimitConfig``, from whichever fields the program has."""
    from rwrs.diagnostics import LimitConfig

    source = {"steps": "K", "cells": "cells", "n_calib": "n_calib",
              "calib_replicates": "calib_replicates"}
    return LimitConfig(**{f.name: getattr(config, source[f.name])
                          for f in fields(LimitConfig) if f.name in source})


def _run_once(workload, config, out_dir: Path) -> dict:
    """Time one ``run_experiment`` call into a clean directory, then check it."""
    from rwrs.runner import run_experiment

    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    record = {"wall_s": None, "cpu_s": None, "error": None, "digest": None,
              "verdicts": []}
    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    try:
        manifest = run_experiment(config)
    except Exception:
        manifest = None
        record["error"] = traceback.format_exc(limit=3)
    record["wall_s"] = time.perf_counter() - start
    record["cpu_s"] = _cpu_seconds() - cpu0
    if manifest is not None:
        try:
            record["digest"], record["verdicts"] = check_outputs(
                out_dir, workload, config, manifest)
        except (OutputError, OSError, KeyError, ValueError) as exc:
            record["error"] = f"output check: {exc}"
    record["bytes_written"] = sum(p.stat().st_size for p in out_dir.iterdir())
    return record


def _setup(args, workload):
    """What every process pays before its first run: (config, seconds)."""
    start = time.perf_counter()
    from rwrs.config import parse_config
    from rwrs.diagnostics import limit_scale

    config = parse_config(workload.config, {"master_seed": str(args.seed),
                                            "output_dir": str(args.out)})
    limit_scale(config.alpha, config=_limit_config(config))
    return config, time.perf_counter() - start


def _kernel(workload) -> list[float]:
    """The reference kernel's time, for a workload pinned to one CPU."""
    return [kernel_seconds()] if workload.workers == 1 else []


def setup(args, workload) -> dict:
    setup_s = _setup(args, workload)[1]
    return {"setup_s": setup_s, "reference_s": _kernel(workload)}


def measure(args, workload) -> dict:
    config, setup_s = _setup(args, workload)
    reference_s = _kernel(workload)
    runs = []
    spent = 0.0
    while True:
        record = _run_once(workload, config, args.out)
        reference_s += _kernel(workload)
        runs.append(record)
        spent += record["wall_s"]
        if spent + record["wall_s"] > args.budget:
            break
    result = {"setup_s": setup_s, "reference_s": reference_s, "runs": runs,
              "peak_rss_mb": _peak_rss_mb(), "workers": config.workers,
              "serial": None}
    if args.serial_check and config.workers > 1:
        from rwrs.config import parse_config

        serial = parse_config(workload.config, {"master_seed": str(args.seed),
                                                "output_dir": str(args.out),
                                                "workers": "1"})
        result["serial"] = _run_once(workload, serial, args.out)
    return result


def trace(args, workload) -> dict:
    start = time.perf_counter()
    import rwrs.config
    import rwrs.diagnostics
    import rwrs.runner  # noqa: F401  (loads every module the tracer patches)

    tracer = Tracer()
    tracer.install()
    try:
        config = rwrs.config.parse_config(
            workload.config, {"master_seed": str(args.seed),
                              "output_dir": str(args.out), "workers": "1"})
        rwrs.diagnostics.limit_scale(config.alpha, config=_limit_config(config))
        setup_s = time.perf_counter() - start
        tracer.run = "run"
        record = _run_once(workload, config, args.out)
    finally:
        tracer.uninstall()
    tracer.counts["io.bytes_written"] = record["bytes_written"]
    covered, total = tracer.check_closure()
    tracer.write(args.spans)
    return {"setup_s": setup_s, "runs": [record], "peak_rss_mb": _peak_rss_mb(),
            "workers": config.workers, "serial": None,
            "layers": tracer.layer_metrics(), "spans": len(tracer.spans),
            "closure_ns": [covered, total], "traced_total_s": total / 1e9}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--serial-check", action="store_true",
                        help="also run once with workers=1 if the workload uses more")
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if workload.workers == 1:
        # the reference kernel must run on the CPU the workload ran on
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    result = {"setup": setup, "measure": measure, "trace": trace}[args.mode](args, workload)

    import numpy
    import scipy
    result["versions"] = {"python": platform.python_version(),
                          "numpy": numpy.__version__, "scipy": scipy.__version__}
    args.result.write_text(json.dumps(result, indent=1, sort_keys=True))
    shutil.rmtree(args.out, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
