"""rwrs benchmark: three pinned verification workloads, timed end to end.

Run from the repository root:

    python3 perfbench/run.py --workload fdd-gauss --seed 1 --seconds 15 --trace 0

Each run starts fresh Python processes (``worker.py``) one after another,
with ``src`` on ``PYTHONPATH`` and BLAS/OpenMP pinned to one thread.

``--trace 0`` starts ``PROCESSES`` measuring processes. Each times its own
set-up (``import rwrs``, ``parse_config`` and ``limit_scale``) and then calls
``run_experiment`` repeatedly for its share of ``--seconds``. The run
reports the medians of ``run_s`` (wall seconds per call), ``setup_s``,
``cpu_s`` (user+sys of the process and its pool workers per call) and
``peak_rss_mb``.

For a single-process workload (``workers: 1``) the three times are
reported in reference seconds: each median is multiplied by
``reference.NOMINAL_S`` over the median time of a fixed reference kernel,
which every process, pinned to one CPU, times after its set-up and after
each call. Each CPU of a shared host drifts in speed over seconds to
minutes, and this scaling takes that drift out of the comparison between
runs; see ``reference.py``. The unscaled medians are printed beside them and
kept in the result file. A pooled workload's times are not scaled.

``--trace 1`` starts one measuring process and then one traced process,
which wraps the public functions of every rwrs module and runs the
workload once with ``workers=1``. It reports calls and self time per
function, counts and waste ratios, the untraced parallel efficiency and the
tracing overhead. Spans go to ``.perfbench_out/spans-*.jsonl``. For a
workload with ``workers > 1`` the measuring process also runs the workload
untraced with ``workers=1``, as the base of the tracing overhead; like the
traced run, it must write the same files as the pooled runs.

Every call's outputs are checked (see ``workloads.check_outputs``) and all
calls of a run must write identical files. A call that raises, or whose
outputs fail a check, counts as failed. ``PASS:``/``FAIL:`` verdicts of the
experiment are recorded in ``.perfbench_out/result-*.json``, not gated on.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from reference import NOMINAL_S  # noqa: E402
from tracing import per_layer_units, valid_metric_name  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PROCESSES = 3
# Set-up-only processes are added until there are SETUP_SAMPLES set-up
# times or they sum to SETUP_BUDGET_S, so cheap set-ups get more samples.
SETUP_SAMPLES = 6
SETUP_BUDGET_S = 5.0
# Whole-run limit, under the 180 s one benchmark run may take.
DEADLINE_S = 170.0
END_TO_END = {"run_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
# End-to-end times, scaled by the reference kernel before they are reported.
SCALED = ("run_s", "setup_s", "cpu_s")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def machine_facts(root: Path) -> dict:
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                capture_output=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "loadavg_start": list(os.getloadavg()), "git_commit": commit,
            "thread_env": {var: "1" for var in THREAD_VARS}}


class Deadline:
    def __init__(self, seconds: float) -> None:
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return self.end - time.monotonic()


def start_child(cmd: list[str], env: dict, deadline: Deadline) -> bool:
    """Run one child to completion; kill its process group at the deadline."""
    proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr,
                            start_new_session=True)
    try:
        proc.wait(timeout=max(deadline.left(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: timed out: {' '.join(cmd)}", file=sys.stderr)
        return False
    finally:
        # pool workers of a crashed child must not outlive the run
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
    return proc.returncode == 0


def run_worker(mode: str, args, tag: str, env: dict, deadline: Deadline,
               out_root: Path, extra: list[str]) -> dict | None:
    result = out_root / f"{tag}.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--out", str(out_root / "work" / tag), "--result", str(result)] + extra
    if not start_child(cmd, env, deadline) or not result.is_file():
        return None
    return json.loads(result.read_text())


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def end_to_end(samples: dict[str, list[float]], kernel_s: list[float]) -> dict:
    """Each end-to-end metric's median; times are scaled by the kernel's, if any."""
    scale = NOMINAL_S / median(kernel_s) if kernel_s else 1.0
    return {name: {"value": median(samples[name]) * (scale if name in SCALED else 1.0),
                   "unit": unit}
            for name, unit in END_TO_END.items() if samples[name]}


def summarize(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} min={min(values):.4f} q1={q1:.4f} q3={q3:.4f} max={max(values):.4f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = Path.cwd()
    if not (root / "src" / "rwrs" / "__init__.py").is_file():
        print("perfbench: run from the repository root; src/rwrs is missing",
              file=sys.stderr)
        return 2

    deadline = Deadline(DEADLINE_S)
    out_root = root / ".perfbench_out"
    shutil.rmtree(out_root / "work", ignore_errors=True)
    (out_root / "work").mkdir(parents=True)
    env = child_env(root)
    facts = machine_facts(root)
    # compile bytecode and fill the file cache before any timed set-up
    if not start_child([sys.executable, "-c", "import rwrs.runner"], env, deadline):
        print("perfbench: cannot import rwrs from src", file=sys.stderr)
        return 2

    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workers = []
    traced = None
    if args.trace == 0:
        for i in range(PROCESSES):
            workers.append(run_worker("measure", args, f"m{i}", env, deadline, out_root,
                                      ["--budget", str(args.seconds / PROCESSES)]))
        setups = [r["setup_s"] for r in workers if r is not None]
        kernel_s = [t for r in workers if r is not None for t in r["reference_s"]]
        while 0 < len(setups) < SETUP_SAMPLES and sum(setups) < SETUP_BUDGET_S:
            res = run_worker("setup", args, f"s{len(setups)}", env, deadline, out_root, [])
            if res is None:
                break
            setups.append(res["setup_s"])
            kernel_s += res["reference_s"]
    else:
        workers.append(run_worker("measure", args, "m0", env, deadline, out_root,
                                  ["--budget", str(args.seconds / PROCESSES),
                                   "--serial-check"]))
        spans = out_root / f"spans-{label}.jsonl"
        traced = run_worker("trace", args, "t0", env, deadline, out_root,
                            ["--spans", str(spans)])
        setups = [r["setup_s"] for r in workers if r is not None]
        kernel_s = [t for r in workers if r is not None for t in r["reference_s"]]
    shutil.rmtree(out_root / "work", ignore_errors=True)

    # Every call of the run writes the same files: the reference digest is
    # the first one, and any other digest counts as a failed call. A process
    # that did not report counts as one failed call.
    problems = []
    calls = []  # (label, record)
    attempted = failed = 0
    for tag, res in [(f"m{i}", r) for i, r in enumerate(workers)] + (
            [("traced", traced)] if args.trace else []):
        if res is None:
            problems.append(f"process {tag} did not finish")
            attempted += 1
            failed += 1
            continue
        calls += [(f"{tag}.call{k}", rec) for k, rec in enumerate(res["runs"])]
        if res["serial"] is not None:
            calls.append((f"{tag}.workers=1", res["serial"]))
    if traced is not None:
        covered, total = traced["closure_ns"]
        if covered != total:
            problems.append(f"self times sum to {covered} ns, run_experiment took {total} ns")
    reference = next((rec["digest"] for _, rec in calls if rec["digest"]), None)
    for name, rec in calls:
        if rec["error"] is None and rec["digest"] != reference:
            rec["error"] = f"outputs differ from the first call ({rec['digest']} != {reference})"
        if rec["error"] is not None:
            failed += 1
            problems.append(f"{name}: {rec['error'].strip().splitlines()[-1]}")
    attempted += len(calls)

    done = [r for r in workers if r is not None]
    timed = [rec for r in done for rec in r["runs"]]
    samples = {
        "run_s": [rec["wall_s"] for rec in timed],
        "setup_s": setups,
        "cpu_s": [rec["cpu_s"] for rec in timed],
        "peak_rss_mb": [r["peak_rss_mb"] for r in done],
    }
    scale = NOMINAL_S / median(kernel_s) if kernel_s else 1.0
    if args.trace:
        metrics = {}
        if traced is not None and done:
            run_s, cpu_s = median(samples["run_s"]), median(samples["cpu_s"])
            serial = [r["serial"]["wall_s"] for r in done if r["serial"]]
            untraced_serial = median(serial) if serial else run_s
            layers = dict(traced["layers"])
            layers["runner.parallel_efficiency"] = cpu_s / (done[0]["workers"] * run_s)
            layers["trace.overhead_frac"] = traced["traced_total_s"] / untraced_serial
            metrics = {name: {"value": layers[name], "unit": unit}
                       for name, unit in per_layer_units().items()}
    else:
        metrics = end_to_end(samples, kernel_s)
    problems += [f"invalid metric name {name!r}" for name in metrics
                 if not valid_metric_name(name)]

    correct = failed == 0 and not problems and bool(metrics)
    verdicts = next((rec["verdicts"] for _, rec in calls if rec["verdicts"]), [])
    versions = next((r["versions"] for r in done), {})
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "facts": {**facts, **versions},
              "samples": samples, "reference_s": kernel_s, "scale": scale,
              "verdicts": verdicts, "problems": problems,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    (out_root / f"result-{label}.json").write_text(json.dumps(report, indent=1))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{facts['nproc']} CPUs ({facts['cpu_model']}), "
          f"numpy {versions.get('numpy')}, scipy {versions.get('scipy')}, "
          f"load {facts['loadavg_start'][0]:.2f}, commit {facts['git_commit']}")
    for line in verdicts:
        print(f"  verdict {line}")
    if kernel_s:
        print(f"  reference    {median(kernel_s):.4f} s (median kernel time, "
              f"{summarize(kernel_s)}); times below are scaled by {scale:.4f}")
    for name, unit in END_TO_END.items():
        if samples[name]:
            raw = median(samples[name])
            shown = f"{raw * scale:.4f} {unit}, unscaled {raw:.4f}" \
                if kernel_s and name in SCALED else f"{raw:.4f} {unit}"
            print(f"  {name:12s} {shown} (median, "
                  f"{summarize(samples[name])}{', untraced' if args.trace else ''})")
    if traced is not None:
        print(f"  trace        {traced['spans']} spans; self times under run_experiment "
              f"sum to {covered} ns of its {total} ns")
    print(f"  failed_frac  {failed / attempted:.4f} ({failed} of {attempted} calls)")
    for problem in problems:
        print(f"  problem: {problem}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
