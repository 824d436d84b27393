"""Shared benchmark machinery: spans, statistics, set-up probes, env facts.

Nothing here imports luresim, so ``probe.py`` can time the package import
from a clean interpreter.
"""

from __future__ import annotations

import bisect
import json
import os
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
SRC = REPO / "src"
OUT_DIR = REPO / ".lurebench"
MODULES = {
    "cli_corpus": "wl_cli",
    "decay_long": "wl_decay",
    "oracle_sweep": "wl_oracle",
    "poly_steps": "wl_poly",
}

# one BLAS/OpenMP thread per process: every workload is a single
# closed-loop client, and the reference machine has 2 cores
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_environment():
    """Pin BLAS/OpenMP threads and the CPU, and import from this checkout.

    The process and every child it starts share one CPU, so the speed
    samples (SpeedIndex) see the core that runs the CLI subprocesses too.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = str(SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


def import_luresim():
    """Import the package under test and insist it comes from this checkout."""
    import luresim

    where = Path(luresim.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise RuntimeError(f"luresim imported from {where}, not from {SRC}")
    return luresim


class NullTracer:
    """Untraced runs: call straight through."""

    on = False

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def span(self, name, op=None):
        yield


class Tracer:
    """In-memory spans: [name, start, end, parent, op, child_time]."""

    on = True

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = -1

    def _open(self, name, op):
        parent = self._stack[-1] if self._stack else -1
        if op is not None:
            self._op = op
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent, self._op, 0.0])
        self._stack.append(idx)
        return idx

    def _close(self, idx, t0, t1):
        self._stack.pop()
        span = self.spans[idx]
        span[1], span[2] = t0, t1
        if span[3] >= 0:
            self.spans[span[3]][5] += t1 - t0

    def call(self, name, fn, *args, **kwargs):
        idx = self._open(name, None)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx, t0, time.perf_counter())

    @contextmanager
    def span(self, name, op=None):
        idx = self._open(name, op)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, t0, time.perf_counter())

    def durations(self, name):
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def dump(self, path, extra):
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((s[1] for s in self.spans), default=0.0)
        rows = [
            {"name": s[0], "start": s[1] - origin, "end": s[2] - origin,
             "parent": s[3], "op": s[4]}
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows, **extra}, fh)


# the calibration kernels' median times on the reference machine (2-core
# x86-64 VM, CPython 3.11, numpy 2.4); see SpeedIndex
REF_KERNEL_S = 0.016
REF_SPAWN_S = 0.176


def calibration_kernel(n=750):
    """Fixed CPU work in the same style as the step solver: a Python loop over
    tiny numpy operations. Uses numpy only, never luresim."""
    import numpy as np

    a = np.array([[2.0, 0.3], [0.1, 1.5]])
    v = np.array([0.5, -0.2])
    lo = np.array([-1.0, -1.0])
    up = np.array([1.0, 1.0])
    acc = 0.0
    for i in range(n):
        v = np.clip(a @ v, lo, up) * 0.5 + 0.1
        acc += float(np.linalg.norm(v)) + float(np.linalg.solve(a, v)[0])
        acc += len({"i": i, "acc": acc}) * 1e-9
    return acc


def spawn_kernel():
    """Fixed start-up work, for intervals that start a Python process (CLI
    calls, set-up probes): a fresh interpreter that imports numpy, started
    as the CLI is. Never imports luresim."""
    subprocess.run([sys.executable, "-c", "import numpy"], env=child_env(),
                   cwd=str(REPO), capture_output=True, check=True, timeout=60)


class SpeedIndex:
    """Machine speed during a run, from a calibration kernel interleaved with
    the ops.

    On a shared 2-core VM the CPU speed drifts by tens of percent within
    seconds to minutes, and the drift hits the kernel and luresim alike.
    Each timed interval is divided by the median of the kernel samples
    around it, over the kernel's reference time, so it reads as on the
    reference machine; there, that cut the spread of 20-second medians of
    the same work from 10% to 4%. In-process work is scaled by
    ``calibration_kernel``. Process start-up follows other resources than
    that kernel does (on the reference machine it left the spread of CLI
    call times as it was), so it is scaled by ``spawn_kernel``, which cut
    the spread of medians of 10 calls from 4.5% to 1.5%.
    """

    def __init__(self, kernel=calibration_kernel, ref_s=REF_KERNEL_S, every_s=0.2):
        self.kernel = kernel
        self.ref_s = ref_s
        self.every_s = every_s
        self.samples = []  # (start, end) of each kernel run, perf_counter
        kernel()  # the first call pays lazy set-up and warms caches

    def tick(self, force=False):
        if force or not self.samples or time.perf_counter() - self.samples[-1][1] >= self.every_s:
            t0 = time.perf_counter()
            self.kernel()
            self.samples.append((t0, time.perf_counter()))

    def factor(self, t0=None, t1=None):
        """Kernel time over the reference, from the two samples on each side
        of [t0, t1] (their median), or from all samples."""
        if t0 is None:
            return median([b - a for a, b in self.samples]) / self.ref_s
        ends = [b for _, b in self.samples]
        i = bisect.bisect_right(ends, t0)  # samples[:i] ended by t0
        j = bisect.bisect_left([a for a, _ in self.samples], t1, lo=i)
        near = self.samples[max(0, i - 2):i] + self.samples[j:j + 2]
        near = near or self.samples
        return median([b - a for a, b in near]) / self.ref_s


TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)


def median(values):
    return statistics.median(values) if values else float("nan")


def tail(values, pct=None):
    """Percentile ``pct`` of the values; without ``pct``, the highest of the
    usual percentiles that has at least 10 samples beyond it (p50 when none
    of the higher ones has). Returns (value, percentile, sample_count).
    """
    vals = sorted(values)
    n = len(vals)
    if n == 0:
        return float("nan"), 0.0, 0
    if pct is None:
        pct = max(p for p in TAIL_LADDER if p == 50.0 or n * (100.0 - p) / 100.0 >= 10.0)
    pos = pct / 100.0 * (n - 1)  # linear interpolation between ranks
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return vals[lo] + (pos - lo) * (vals[hi] - vals[lo]), pct, n


def run_probes(workload, seed, count, split_imports, speed):
    """Fresh-process set-up: interpreter start, import, workload systems built.

    Each probe's set-up time runs from just before the child is spawned to
    the moment it has built its systems (CLOCK_MONOTONIC is shared between
    processes), so interpreter teardown is not counted.
    """
    results = []
    speed.tick(force=True)
    for _ in range(count):
        t_start = time.perf_counter()
        t0 = time.monotonic()
        cmd = [
            sys.executable, str(BENCH_DIR / "probe.py"),
            "--workload", workload, "--seed", str(seed), "--t0", repr(t0),
        ]
        if split_imports:
            cmd.append("--split-imports")
        proc = subprocess.run(
            cmd, env=child_env(), cwd=str(REPO), capture_output=True, text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["span"] = (t_start, time.perf_counter())
        results.append(result)
        speed.tick(force=True)
    return results


def env_facts():
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }
