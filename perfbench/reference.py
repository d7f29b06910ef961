"""Reference kernel: how fast the benchmark's CPU runs around each timing.

The benchmark's machine is a few cores of a shared host. The speed of each
core drifts by up to a third over spells of seconds to minutes, and the
cores drift independently. Every timing of a run moves with its core, so
runs of the same code spread by more than a bound can allow.

A single-process workload therefore runs pinned to one CPU, and its
measuring process times this fixed kernel on that CPU after set-up and after
every ``run_experiment`` call. ``run.py`` multiplies the run's median times by
``NOMINAL_S`` over the median kernel time: a run in a slow spell and a run in
a fast one then report about the same for the same program, while a change
to the program still moves the result, since the kernel uses only plain
Python and numpy, never ``rwrs``. A pooled workload runs on every CPU, which
one pinned kernel cannot stand for, so its times are reported unscaled.

Each pass mixes the kinds of work the workloads do: an interpreter loop, many
numpy calls on small arrays (the Hoelder estimate's pattern) and fresh arrays
of 200 000 values that are sorted and summed (the sampling side's pattern).
The arrays are small, so the kernel does not raise a process's peak RSS above
what the workload reaches. Many short passes, rather than one long one,
follow the core's speed across the whole interval they span.
"""
from __future__ import annotations

import time

import numpy as np

# Median kernel time, in seconds, on the 2-vCPU Intel Xeon VM the bounds in
# BENCHMARK.json were set on: scaled times are seconds on that machine at its
# median speed.
NOMINAL_S = 0.5
PASSES = 8


def _one_pass(rng: np.random.Generator, small: np.ndarray) -> None:
    total = 0
    for i in range(200_000):
        total += i * i
    for b in range(1, 1301):
        k = b % 64 + 1
        float(np.max(np.abs(small[k:, :] - small[:-k, :])))
    for _ in range(3):
        np.cumsum(np.sort(rng.standard_normal(200_000)))


def kernel_seconds() -> float:
    """Wall seconds of ``PASSES`` passes of the kernel, after an untimed one."""
    rng = np.random.default_rng(12345)
    small = rng.standard_normal((65, 65))
    _one_pass(rng, small)
    start = time.perf_counter()
    for _ in range(PASSES):
        _one_pass(rng, small)
    return time.perf_counter() - start
