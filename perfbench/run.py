"""cpwalls benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload grid-tabulate --seed 1 --seconds 30 --trace 0

Run it from the root of a cpwalls source tree; the package is imported from
``src`` in child processes only. All load comes from this one process in a
closed loop, one op in flight at a time (the reference machine has two
cores). A run repeats whole passes over the workload's seeded op list until
the next pass would end more than half a pass past ``--seconds`` (short ops
go on, up to 1.25 x ``--seconds``, until 100 ops are sampled), checks every
op's output, and prints a report followed by one JSON line.

--trace 0 reports the end-to-end metrics. --trace 1 alternates traced and
untraced passes, keeps spans in memory and writes them to .bench_out/, and
adds the layer probe (probe.py); it reports the per-layer metrics.
--smoke shrinks every size for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import sys
import time

from common import (
    CAL_REF_S,
    LAYERS,
    OUT_DIR,
    PYTHON,
    BENCH_DIR,
    Spawner,
    Tracer,
    Worker,
    have_sources,
    machine_block,
    quartiles,
)
from reference import CheckFailure
from workloads import (
    CORRELATOR_COLUMNS,
    FULL,
    POTENTIAL_COLUMNS,
    SMOKE,
    SWEEP_COLUMNS,
    WORKLOADS,
    grid_tabulate,
)

GRID_OPS = tuple(op.name for op in grid_tabulate(random.Random(0), SMOKE))
END_TO_END = {"setup_s": "s", "points_per_s": "rows/s", "op_p50_s": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "profiles.cot_ns": "ns", "profiles.csc_ns": "ns",
    "profiles.deriv_ns": "ns", "profiles.series_ns": "ns",
    "profiles.images_us": "us", "profiles.hurwitz_us": "us",
    "potentials.total_ns": "ns", "potentials.parts_ns": "ns",
    "potentials.force_ns": "ns", "potentials.sample_ns": "ns",
    "potentials.stationary_ms": "ms",
    "correlators.tensor_ns": "ns", "correlators.trace_ns": "ns",
    "analysis.sweep_ns_per_cell": "ns", "analysis.limit_us_per_row": "us",
    **{f"cli.{m}.{op}": unit for m, unit in (
        ("main_s", "s"), ("self_s", "s"), ("ns_per_cell", "ns"),
        ("peak_rss_mb", "MB"), ("rows_out", "count"), ("bytes_out", "bytes"))
       for op in GRID_OPS},
    "cli.exact_ratio": "ratio", "cli.interpreter_s": "s",
    "cli.numpy_import_s": "s", "cli.import_s": "s",
    "verification.full_s": "s", "verification.quick_s": "s",
    "verification.checks_passed": "count",
    "verification.worst_margin": "ratio",
    **{f"trace.self_s.{layer}": "s" for layer in LAYERS},
    "trace.overhead_s": "s", "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
}
COLUMNS = {"potential": len(POTENTIAL_COLUMNS),
           "correlators": len(CORRELATOR_COLUMNS), "sweep": len(SWEEP_COLUMNS)}
P90_SAMPLES = 100  # ten samples above the 90th percentile
SPAWN_CODE = {"interpreter": "pass", "numpy": "import numpy",
              "cpwalls": "import cpwalls.cli"}


def report(line: str) -> None:
    print("# " + line)


class Run:
    """One workload run: set-up samples, passes of ops, their checks."""

    def __init__(self, workload: str, seed: int, sizes, trace: bool,
                 spawner: Spawner):
        self.spawner = spawner
        self.workload = workload
        self.seed = seed
        self.sizes = sizes
        self.library = workload == "library-mixed"
        self.ops = WORKLOADS[workload](random.Random(seed), sizes)
        self.tracer = Tracer(False)
        self.trace = trace
        # [pass][op], scaled to reference speed; raw seconds for the report
        self.latency: list[list[float]] = []
        self.raw_latency: list[float] = []
        self.speed: list[float] = []          # CAL_REF_S / loop time, per op
        self.traced_pass: list[bool] = []
        self.rss: list[float] = []
        self.cpu: list[float] = []
        self.setup: list[float] = []
        self.raw_setup: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []

    def _fail(self, what: str, exc: BaseException) -> None:
        self.failures.append(f"{what}: {type(exc).__name__}: {exc}")

    def setup_once(self) -> None:
        """Fresh interpreter until the first op could be issued: import
        cpwalls.cli, or start the library worker until it is ready."""
        self.attempted += 1
        if self.library:
            argv = [PYTHON, os.path.join(BENCH_DIR, "libworker.py")]
        else:
            argv = [PYTHON, "-c", SPAWN_CODE["cpwalls"]]
        try:
            with self.tracer.span("bench.setup", -1):
                res = self.spawner.run(argv, "setup")
            if res.returncode != 0:
                raise CheckFailure(f"exit {res.returncode}: {res.stderr[-300:]}")
        except (CheckFailure, OSError, RuntimeError, ValueError) as exc:
            self._fail("setup", exc)
            return
        self.raw_setup.append(res.wall_s)
        self.setup.append(res.wall_s * CAL_REF_S / res.cal_s)

    def run_passes(self, seconds: float) -> None:
        worker = Worker("libworker.py") if self.library else None
        try:
            self._passes(seconds, worker)
        finally:
            if worker is not None:
                try:
                    # the worker's ru_maxrss would include this process's
                    # peak, folded in at exec; VmHWM is the worker's own
                    self.rss.append(worker.peak_rss_mb())
                    res = worker.close()
                    self.cpu.append(res.cpu_s)
                    if res.returncode != 0:
                        self.failures.append(f"worker exit {res.returncode}:"
                                             f" {res.stderr[-300:]}")
                finally:
                    worker.kill()

    def _passes(self, seconds: float, worker) -> None:
        """Whole passes until the next would end half a pass past `seconds`.

        Set-up samples are taken between ops at even intervals, so that
        their median covers the same stretch of time as the ops do.
        """
        t_start = time.perf_counter()
        setup_every = seconds / self.sizes.setup_samples
        next_setup = t_start
        walls = []
        min_passes = 2 if self.trace else 1
        while True:
            p = len(self.latency)
            self.tracer.enabled = self.trace and p % 2 == 0
            self.traced_pass.append(self.tracer.enabled)
            t_pass = time.perf_counter()
            lat = []
            with self.tracer.span("bench.pass", p * len(self.ops)):
                for i, op in enumerate(self.ops):
                    if time.perf_counter() >= next_setup:
                        self.setup_once()
                        next_setup += setup_every
                    lat.append(self._op(p, i, op, worker))
            self.latency.append(lat)
            walls.append(time.perf_counter() - t_pass)
            elapsed = time.perf_counter() - t_start
            pass_s = statistics.median(walls)
            if len(walls) < min_passes or elapsed + 0.5 * pass_s <= seconds:
                continue
            # short ops may run up to a quarter over time to reach the
            # P90_SAMPLES that op_p90_s needs
            sampled = sum(len(x) for x in self.untraced_latencies())
            if sampled < P90_SAMPLES and elapsed + pass_s <= 1.25 * seconds:
                continue
            break
        self.tracer.enabled = False

    def _op(self, p: int, i: int, op, worker) -> float:
        op_id = p * len(self.ops) + i
        self.attempted += 1
        layer = "bench.batch" if self.library else "cli"
        with self.tracer.span(f"{layer}.{op.name}", op_id):
            if self.library:
                t0 = time.perf_counter()
                # a dead worker or spawner ends the run: the exception
                # propagates to measure()
                out = worker.call(dict(op.request, trace=self.tracer.enabled))
                cal = out.pop("cal")
                latency = time.perf_counter() - t0 - sum(cal)
                cal_s = 0.5 * sum(cal)
                self.tracer.adopt(out.pop("spans"), op_id)
            else:
                out = self.spawner.run([PYTHON, "-m", "cpwalls", *op.argv],
                                       op.name)
                latency, cal_s = out.wall_s, out.cal_s
                self.rss.append(out.rss_mb)
                self.cpu.append(out.cpu_s)
        self.raw_latency.append(latency)
        self.speed.append(CAL_REF_S / cal_s)
        with self.tracer.span("bench.check", op_id):
            try:
                op.check(out, random.Random(f"{self.seed}/{p}/{i}"))
            except (CheckFailure, KeyError, IndexError, TypeError,
                    ValueError) as exc:
                self._fail(f"pass {p} op {op.name}", exc)
        return latency * CAL_REF_S / cal_s

    # -------------------------------------------------------- metrics

    def untraced_latencies(self) -> list[list[float]]:
        return [lat for lat, traced in zip(self.latency, self.traced_pass)
                if not traced]

    def end_to_end(self) -> dict:
        """(value, samples) for every end-to-end metric, times scaled to
        reference host speed.

        Both timing metrics take each op of the list once, at its median
        latency over the run's passes. points_per_s divides the rows of one
        pass by the sum of those medians; op_p50_s is their median, which
        does not jump between two op kinds as the number of passes changes.
        """
        passes = self.untraced_latencies()
        rows = sum(op.rows for op in self.ops)
        per_op = [statistics.median(p[i] for p in passes)
                  for i in range(len(self.ops))]
        return {
            "setup_s": (statistics.median(self.setup), self.setup),
            "points_per_s": (rows / sum(per_op),
                             [rows / sum(p) for p in passes]),
            "op_p50_s": (statistics.median(per_op),
                         [x for p in passes for x in p]),
            "peak_rss_mb": (max(self.rss), self.rss),
        }

    def summary_lines(self, metrics: dict) -> None:
        passes = self.untraced_latencies()
        ops = [x for p in passes for x in p]
        report(f"workload {self.workload} seed {self.seed}: {len(passes)}"
               f" untraced passes of {len(self.ops)} ops,"
               f" {sum(op.rows for op in self.ops)} rows per pass")
        for name, (value, samples) in metrics.items():
            q1, med, q3 = quartiles(samples)
            report(f"{name} = {value:.6g} {END_TO_END[name]}"
                   f"  (samples: n={len(samples)} q1={q1:.6g}"
                   f" median={med:.6g} q3={q3:.6g})")
        if len(ops) >= P90_SAMPLES:
            p90 = statistics.quantiles(ops, n=10)[8]
            report(f"op_p90_s = {p90:.6g} s  (n={len(ops)},"
                   f" {len(ops) - int(0.9 * len(ops))} samples above)")
        else:
            report(f"op_p90_s not reported: {len(ops)} ops < {P90_SAMPLES}")
        report(f"error_rate = {len(self.failures)}/{self.attempted}"
               f" = {len(self.failures) / self.attempted:.6g} ratio"
               f"  (base: {self.attempted} ops, set-up spawns included)")
        report(f"raw (unscaled) medians: op {statistics.median(self.raw_latency):.6g} s,"
               f" set-up {statistics.median(self.raw_setup):.6g} s; host speed"
               f" factor CAL_REF_S/loop: median"
               f" {statistics.median(self.speed):.4g}, range"
               f" {min(self.speed):.4g}..{max(self.speed):.4g}")
        if self.cpu:
            report(f"child cpu_s total = {sum(self.cpu):.6g} s over"
                   f" {len(self.cpu)} child processes")


# ------------------------------------------------------------ layer probe


def spawn_median(spawner: Spawner, code: str, n: int) -> float:
    times = []
    for _ in range(n):
        res = spawner.run([PYTHON, "-c", code], "spawn")
        if res.returncode != 0:
            raise CheckFailure(f"{code!r} exit {res.returncode}")
        times.append(res.wall_s * CAL_REF_S / res.cal_s)
    return statistics.median(times)


def probe(spawner: Spawner, script_args: list[str]) -> dict:
    res = spawner.run([PYTHON, os.path.join(BENCH_DIR, "probe.py"),
                       *script_args], "probe")
    if res.returncode != 0 or "Traceback" in res.stderr:
        raise CheckFailure(f"probe {script_args[0]} exit {res.returncode}:"
                           f" {res.stderr[-300:]}")
    return json.loads(res.stdout.decode().splitlines()[-1])


def layer_metrics(run: Run, smoke: bool) -> dict:
    rng = random.Random(run.seed)
    a = 0.5 + 3.5 * rng.random()
    lib = {"n": 50 if smoke else 2000, "a": a, "alpha": 1.0, "beta": 0.25,
           "d": 0.5 + rng.random()}
    m = probe(run.spawner, ["lib", json.dumps(lib)])
    for op in grid_tabulate(random.Random(run.seed), run.sizes):
        r = probe(run.spawner,
                  ["cli", json.dumps(dict(op.spec, argv=op.argv))])
        if r["rc"] != 0 or r["rows"] != op.rows:
            raise CheckFailure(f"probe cli {op.name}: exit {r['rc']},"
                               f" {r['rows']} rows")
        cells = op.rows * COLUMNS[op.spec["command"]]
        m[f"cli.main_s.{op.name}"] = r["main_s"]
        m[f"cli.self_s.{op.name}"] = r["main_s"] - r["lib_s"]
        m[f"cli.ns_per_cell.{op.name}"] = (r["main_s"] - r["lib_s"]) / cells * 1e9
        m[f"cli.peak_rss_mb.{op.name}"] = r["rss_mb"]
        m[f"cli.rows_out.{op.name}"] = r["rows"]
        m[f"cli.bytes_out.{op.name}"] = r["bytes"]
        if op.name == "pot_cc_asym":
            m["cli.exact_ratio"] = r["exact"] / r["rows"]
    n = 2 if smoke else 5
    interp = spawn_median(run.spawner, SPAWN_CODE["interpreter"], n)
    numpy = spawn_median(run.spawner, SPAWN_CODE["numpy"], n)
    m["cli.interpreter_s"] = interp
    m["cli.numpy_import_s"] = numpy - interp
    m["cli.import_s"] = spawn_median(run.spawner, SPAWN_CODE["cpwalls"],
                                     n) - numpy

    traced = [sum(lat) for lat, t in zip(run.latency, run.traced_pass) if t]
    plain = [sum(lat) for lat, t in zip(run.latency, run.traced_pass) if not t]
    base = statistics.median(plain)
    m["trace.overhead_s"] = statistics.median(traced) - base
    m["trace.overhead_ratio"] = m["trace.overhead_s"] / base
    m["trace.spans"] = len(run.tracer.spans)
    for layer, seconds in run.tracer.self_times().items():
        m[f"trace.self_s.{layer}"] = seconds / len(traced)
    return m


# ------------------------------------------------------------------ main


def measure(run: Run, args) -> dict:
    """Run the passes, report, and return the metrics of the JSON line."""
    try:
        run.run_passes(args.seconds)
    except (OSError, RuntimeError, ValueError) as exc:
        run._fail("worker", exc)
    if not (run.latency and run.setup and run.rss):
        return {}
    e2e = run.end_to_end()
    run.summary_lines(e2e)
    if not args.trace:
        return {k: {"value": v, "unit": END_TO_END[k]}
                for k, (v, _) in e2e.items()}
    metrics = {}
    try:
        layer = layer_metrics(run, args.smoke)
    except (CheckFailure, OSError, ValueError, KeyError) as exc:
        run._fail("layer probe", exc)
    else:
        metrics = {k: {"value": layer[k], "unit": u}
                   for k, u in PER_LAYER.items()}
        for k, v in metrics.items():
            report(f"{k} = {v['value']:.6g} {v['unit']}")
    path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    run.tracer.write(path)
    report(f"{len(run.tracer.spans)} spans written to {os.path.relpath(path)}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not have_sources():
        sys.stderr.write("perfbench: no cpwalls sources under ./src; run from"
                         " the root of a cpwalls source tree\n")
        return 2

    report("machine " + json.dumps(machine_block()))
    spawner = Spawner()
    try:
        run = Run(args.workload, args.seed, SMOKE if args.smoke else FULL,
                  bool(args.trace), spawner)
        metrics = measure(run, args)
    finally:
        spawner.close()
        spawner.kill()
    for msg in run.failures[:20]:
        report("FAIL " + msg)
    print(json.dumps({
        "correct": not run.failures and bool(metrics),
        "attempted": max(run.attempted, 1),
        "failed": len(run.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
