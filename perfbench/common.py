"""Process control, tracing and statistics shared by the benchmark's files.

The benchmark runs from the root of a cpwalls source tree and imports the
package only in child processes, which get ``src`` on their PYTHONPATH. The
parent keeps no cpwalls state, so every op it times starts from the same
place a user's would.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(ROOT, ".bench_out")
PYTHON = sys.executable

# Host speed: the time of a fixed pure-Python loop, taken on the benchmark's
# CPU right before and after every op. On the two-core sandbox this was
# written on, the loop ran at either about 6 ms or about 9 ms, in phases that
# lasted from seconds to minutes, and op times moved with it. Every time the
# benchmark reports is scaled by CAL_REF_S / (that op's loop time): seconds
# at the speed where the loop takes CAL_REF_S.
CAL_ITERS = 100_000
CAL_REF_S = 0.006

SMALLEST_NORMAL = 2.2250738585072014e-308
# sweep quantities in the CLI's canonical column order
QUANTITIES = ("V", "V_E", "V_M", "force", "EE_trace", "BB_trace")

# Layers named after the package's modules, plus the benchmark's own checks.
LAYERS = ("profiles", "potentials", "correlators", "analysis", "cli",
          "verification", "bench")


def calibrate() -> float:
    """Seconds for CAL_ITERS rounds of a fixed pure-Python loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CAL_ITERS):
        acc += i * i
    return time.perf_counter() - t0


def pin_to_one_cpu() -> None:
    """Keep ops and their speed calibration on the same CPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def have_sources() -> bool:
    return os.path.isfile(os.path.join(SRC, "cpwalls", "__init__.py"))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


@dataclass
class ProcResult:
    """One child process, from spawn to reap; cal_s is the mean loop time
    measured just before and just after it."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    stdout: bytes
    stderr: str
    cal_s: float = CAL_REF_S


class Worker:
    """A long-lived child speaking one JSON line per request and reply."""

    def __init__(self, script: str):
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(
            [PYTHON, os.path.join(BENCH_DIR, script)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True,
        )
        self._read()  # the ready line

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker ended early: {self.proc.stderr.read()}")
        return json.loads(line)

    def call(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> ProcResult:
        """End the worker by closing its input; reap it with its rusage."""
        self.proc.stdin.close()
        rest = self.proc.stdout.read()
        stderr = self.proc.stderr.read()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.proc.stderr.close()
        return ProcResult(time.perf_counter() - self.t_spawn,
                          usage.ru_utime + usage.ru_stime,
                          usage.ru_maxrss / 1024.0, self.proc.returncode,
                          rest.encode(), stderr)

    def peak_rss_mb(self) -> float:
        """VmHWM of the live worker: the peak of its own image since exec."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


class Spawner(Worker):
    """Runs child processes through spawner.py, so their ru_maxrss is theirs."""

    def __init__(self):
        super().__init__("spawner.py")
        os.makedirs(OUT_DIR, exist_ok=True)

    def run(self, argv: list[str], name: str = "op") -> ProcResult:
        """Run argv to completion; stdout and stderr go through files, so a
        large table or a long traceback never blocks the child on a pipe."""
        out_path = os.path.join(OUT_DIR, f"{name}.stdout")
        err_path = os.path.join(OUT_DIR, f"{name}.stderr")
        r = self.call({"argv": argv, "out": out_path, "err": err_path})
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read().decode("utf-8", "replace")
        return ProcResult(r["wall_s"], r["cpu_s"], r["rss_mb"],
                          r["returncode"], stdout, stderr, r["cal_s"])


class Tracer:
    """In-memory spans: (id, name, start, end, parent, op).

    Disabled, it records nothing and costs one branch per span. Layer self
    time is a span's duration minus the time its child spans cover.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: int):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[sid] = (sid, name, start, time.perf_counter(), parent, op)

    def adopt(self, child_spans: list, op: int) -> None:
        """Append spans recorded by a worker under the currently open span."""
        parent = self._stack[-1] if self._stack else -1
        base = len(self.spans)
        for sid, name, start, end, cparent in child_spans:
            self.spans.append((base + sid, name, start, end,
                               parent if cparent < 0 else base + cparent, op))

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = {layer: 0.0 for layer in LAYERS}
        for (sid, name, start, end, _, _), cov in zip(self.spans, covered):
            layer = name.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + (end - start) - cov
        return totals

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op})
                         + "\n")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def machine_block() -> dict:
    """nproc, CPU model, cache sizes and interpreter/NumPy versions."""
    from importlib.metadata import PackageNotFoundError, version

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
            if level in ("2", "3") and kind in ("Unified", "Data"):
                caches[f"L{level}"] = size
    except OSError:
        pass
    try:
        numpy_version = version("numpy")
    except PackageNotFoundError:
        numpy_version = "missing"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        **caches,
        "python": sys.version.split()[0],
        "numpy": numpy_version,
    }
