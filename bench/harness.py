"""Runs one workload, checks its outputs and reports its metrics; the
command line lives in run.py.  Import only after ``env.configure()``."""
from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import env
import hostspeed
import spans
import workloads
from checks import check_design, check_qvco

BENCH_DIR = Path(__file__).resolve().parent
RESULTS_DIR = BENCH_DIR / "results"
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60

SWEEP_TIMINGS = {
    "geometry.load_ms": "geometry.load",
    "transformer.generate_ms": "transformer.generate",
    "inductance.extract_ms": "inductance.extract",
    "analysis.design_tank_ms": "analysis.design_tank",
}


def declared_units(kind: str) -> dict[str, str]:
    """Name to unit of the metrics BENCHMARK.json declares under ``kind``."""
    return {m["name"]: m["unit"] for m in env.spec()[kind]}


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter and small-matrix work.  A
    host-speed diagnostic taken before and after each workload."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    rng = np.random.default_rng(0)
    a = rng.random((16, 16)) + 16.0 * np.eye(16)
    b = rng.random(16)
    for _ in range(10_000):
        np.linalg.solve(a, b)
    return time.perf_counter() - t0


def measure_setup(workload: str, seed: int) -> float:
    """Process start to inputs ready, for one fresh process."""
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
    return float(proc.stdout.split()[-1]) - t0


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


class Runner:
    """Repeats one workload's operation until the time is up, checking
    each, and turns the timings and spans into metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, traced: bool):
        self.workload = workload
        self.seconds = seconds
        self.traced = traced
        self.inputs = workloads.prepare(workload, seed)
        self.tracer = spans.Tracer()
        self.durations = {False: [], True: []}  # operation time per batch, keyed by "traced"
        self.wall: list[float] = []  # wall time per batch, reference chunks included
        self.models: list[int] = []  # extracted models per untraced batch
        self.op_times: list[list[float]] = []  # per untraced batch, per operation
        self.chunk_s: list[float] = []  # per untraced batch, mean reference chunk time
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0
        self.rejections: dict[str, dict] = {}
        self.rejected_per_batch: list[int] = []

    def run(self, between=lambda: None) -> None:
        """Repeat batches until the next would end after ``seconds``.
        ``between`` runs before each batch; its time is not counted."""
        min_batches = 2 if self.traced else 1
        workloads.warm_up(self.workload, self.inputs, spans.NULL_TRACER)
        t_start = time.perf_counter()
        paused = 0.0
        while True:
            traced = self.traced and (len(self.durations[False])
                                      + len(self.durations[True])) % 2 == 1
            t_pause = time.perf_counter()
            between()
            paused += time.perf_counter() - t_pause
            self._batch(traced)
            elapsed = time.perf_counter() - t_start - paused
            if (len(self.wall) >= min_batches
                    and elapsed + statistics.median(self.wall) > self.seconds):
                break

    def _batch(self, traced: bool) -> None:
        """One timed batch: a qvco run, or one pass over the sweep draws.
        Untraced batches run with the host-speed sampler; traced ones
        without, so that no reference chunk falls inside a span."""
        tr = self.tracer if traced else spans.NULL_TRACER
        sampler = None if traced else hostspeed.Sampler()
        sweep = self.workload == "design_sweep"
        items = self.inputs["draws"] if sweep else [None]
        outcomes = []
        op_times = []
        t0 = time.perf_counter()
        with (spans.instrumented(tr) if traced else sampler):
            for draw in items:
                t_op = time.perf_counter()
                try:
                    with tr.span("bench.op"):
                        if sweep:
                            out = workloads.run_design(draw, tr)
                        else:
                            out = workloads.run_qvco(self.inputs["buffered"], tr)
                except Exception as exc:  # a failed operation is counted, not fatal
                    out = {"failure": f"{type(exc).__name__}: {exc}"}
                t_end = time.perf_counter()
                op_times.append(t_end - t_op - (sampler.spent(t_op, t_end) if sampler else 0.0))
                outcomes.append(out)
        self.wall.append(time.perf_counter() - t0)
        self.durations[traced].append(sum(op_times))
        self.attempted += len(outcomes)
        models = rejected = 0
        for draw, out in zip(items, outcomes):
            problems = self._check(draw, out)
            if problems:
                self.failed += 1
                self.problems.extend(problems)
            elif "error" in out:
                rejected += 1
                self.rejections[workloads.draw_key(draw)] = out
            else:
                models += 1
        if not traced:
            self.models.append(models)
            self.op_times.append(op_times)
            self.chunk_s.append(sampler.mean_chunk_s())
        self.rejected_per_batch.append(rejected)

    def _check(self, draw, out: dict) -> list[str]:
        if "failure" in out:
            return [out["failure"]]
        if draw is None:
            return check_qvco(out, self.inputs["reference"])
        key = workloads.draw_key(draw)
        return [f"{key}: {p}" for p in check_design(out, self.inputs["reference"][key])]

    def end_to_end(self, setup: list[float]) -> dict[str, float]:
        # Each untraced batch's operation time in reference chunks timed
        # during that batch (hostspeed.py), median over the batches.
        batch_cal = [sum(ts) / c for ts, c in zip(self.op_times, self.chunk_s)]
        return {
            "setup_s": statistics.median(setup),
            "e2e_cal": statistics.median(batch_cal),
            "designs_per_cal": statistics.median(
                m / b for m, b in zip(self.models, batch_cal)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_frac": (self.attempted - self.failed) / self.attempted,
        }

    def wall_times(self) -> dict[str, float]:
        """The untraced batches in wall time, which a host slowdown moves
        as much as a program change."""
        # A batch made of median operations: each operation's median over
        # the untraced batches, summed.  For a qvco run this is the median run.
        batch_s = sum(statistics.median(ts) for ts in zip(*self.op_times))
        return {
            "e2e_s": batch_s,
            "designs_per_s": statistics.median(self.models) / batch_s,
            "host.chunk_ms": statistics.median(self.chunk_s) * 1e3,
        }

    def per_layer(self) -> dict[str, float]:
        roots = spans.per_root(self.tracer.spans)
        batches = len(self.durations[True])

        def durations(name):
            return [r[name][0] for r in roots if name in r]

        def count(name, key):
            return sum(r[name][1].get(key, 0) for r in roots if name in r)

        out = self.wall_times()
        for metric, name in SWEEP_TIMINGS.items():
            ms = [d * 1e3 for d in durations(name)]
            out[metric] = statistics.median(ms) if ms else 0.0
            out[metric + ".p90"] = p90(ms) if ms else 0.0
        pairs = count("inductance.extract", "segment_pairs")
        out["transformer.segments"] = count("inductance.extract", "segments") / batches
        out["inductance.segment_pairs"] = pairs / batches
        out["inductance.ns_per_pair"] = (
            sum(durations("inductance.extract")) / pairs * 1e9 if pairs else 0.0)

        transient = durations("engine.transient")
        steps = count("engine.transient", "steps")
        out["engine.transient_s"] = statistics.median(transient) if transient else 0.0
        out["engine.us_per_step"] = sum(transient) / steps * 1e6 if steps else 0.0
        out["engine.steps"] = steps / len(transient) if transient else 0.0
        out["engine.solves_per_step"] = (
            count("engine.transient", "solves") / steps if steps else 0.0)
        out["engine.solve_share"] = (
            count("engine.transient", "solve_s") / sum(transient) if transient else 0.0)

        netlist = durations("topologies.build_netlist")
        out["topologies.build_netlist_ms"] = (
            statistics.median(netlist) * 1e3 if netlist else 0.0)
        out["netlist.mos_devices"] = (
            count("topologies.build_netlist", "mos_devices") / len(netlist) if netlist else 0.0)
        out["netlist.unknowns"] = (
            count("engine.transient", "unknowns") / len(transient) if transient else 0.0)
        measure = durations("metrology.measure")
        out["metrology.measure_ms"] = statistics.median(measure) * 1e3 if measure else 0.0

        out["design_sweep.rejected"] = float(self.rejected_per_batch[0])
        out["trace.overhead_frac"] = (statistics.median(self.durations[True])
                                      / statistics.median(self.durations[False]) - 1.0)
        out["trace.samples"] = float(len(roots))
        total = sum(r["bench.op"][0] for r in roots)
        for layer, seconds in spans.self_times(self.tracer.spans).items():
            out[f"{layer}.self_frac"] = seconds / total
        return out


def run_one(args) -> dict:
    runner = Runner(args.workload, args.seed, args.seconds, bool(args.trace))
    environment = env.describe()
    setup: list[float] = []
    wanted = 0 if args.trace else SETUP_SAMPLES

    def probe_setup():
        # Spread over the run, so that the median sees the same host
        # speeds as the batches, not only those of its first seconds.
        if len(setup) < wanted:
            setup.append(measure_setup(args.workload, args.seed))

    calib_before = calibrate()
    runner.run(between=probe_setup)
    while len(setup) < wanted:
        probe_setup()
    calib_after = calibrate()
    values = runner.per_layer() if args.trace else runner.end_to_end(setup)
    wall = runner.wall_times()
    units = declared_units("per_layer" if args.trace else "end_to_end")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment,
        "calibration_s": {"before": calib_before, "after": calib_after},
        "setup_s": setup,
        "wall": wall,
        "batch_s": {"untraced": runner.durations[False], "traced": runner.durations[True]},
        "chunk_s": runner.chunk_s,
        "problems": runner.problems[:50],
        "rejections": runner.rejections,
        "result": result,
    }
    if args.trace:
        report["self_s"] = spans.self_times(runner.tracer.spans)
        report["spans"] = [s.to_dict() for s in runner.tracer.spans]
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump(report, fh)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(environment))
    print(f"calibration before {calib_before:.4f} s  after {calib_after:.4f} s")
    for name, unit in units.items():
        print(f"  {name:34s} {values[name]:.6g} {unit}")
    if not args.trace:
        print("wall time (host speed not factored out): "
              + "  ".join(f"{k} {v:.6g}" for k, v in wall.items()))
    if runner.rejections:
        messages: dict[str, int] = {}
        for out in runner.rejections.values():
            text = f"{out['error']}: {out['message']}"
            messages[text] = messages.get(text, 0) + 1
        print(f"typed rejections: {len(runner.rejections)} distinct draws")
        for text, n in sorted(messages.items(), key=lambda kv: -kv[1]):
            print(f"  {n:4d}  {text}")
    for problem in runner.problems[:10]:
        print(f"FAILED CHECK: {problem}")
    print(f"report {path.relative_to(env.ROOT)}")
    return result


def run_all(args) -> dict:
    """Each workload in its own process, so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"benchmark: workload {workload} exited {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined
