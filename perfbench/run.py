"""Benchmark of the bergman package: four workloads, end-to-end and per-layer.

One run:

    python3 perfbench/run.py --workload eval-mix --seed 1 --seconds 20 --trace 0

measures one workload for the given seconds and prints, as its last line, a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced run
with ``--trace 1``.  The lines before it are a readable report and one
``record`` line with the run's details (op count, tail percentile, errors).

A run ends on the first cycle boundary after the given seconds of scaled
op time (see below), or after WALL_CAP times that in wall time on a very
slow host, so it covers the workload's mix in whole cycles.  Every op is
checked as it returns; the checks are not timed.

On a shared host the speed drifts by up to 1.5x over tens of seconds (so
measured on a 2-CPU Xeon VM), which no run length averages away.  So every
end-to-end time below is a wall time scaled to a reference speed: a fixed
pure-Python loop that calls nothing of the package is timed about every
half second between ops (untimed itself), and the ops in between are
scaled by CAL_REF_S over the median of the loop's times within SMOOTH_S.
A change to the package moves the ops and not the loop, so it shows in
full; a change in the host's speed moves both and cancels.  The unscaled
``ops_per_s`` and the loop's median time are in the run's ``record`` line.
The per-layer times of a traced run are unscaled.

End-to-end metrics, measured with tracing off:

    ops_per_s    ops completed over the summed (scaled) time of the ops
    op_p50_ms    median (scaled) wall time of one op
    setup_s      import time plus the median of three set-ups (inputs,
                 references, warm-up), all before the timed loop; each part
                 scaled by the loop's times around it
    peak_rss_mb  peak resident memory of this process, read once every op
                 is done and checked; for cli-session, of the largest child

The report also prints, without making them metrics, the error rate (failed
over attempted ops, 0 on every correct run) and ``op_tail_ms``: the highest
percentile with at least ten ops beyond it, capped at p99.9, with the
percentile and the op count beside it.  A run of fewer than 100 ops, whose
percentile would fall below p90, omits it.

All workloads, untraced and traced, with the run record and the known-defect
probe:

    python3 perfbench/run.py --all --seed 1 --seconds 20 [--tier1] [--write FILE]

The package is imported from ``src/`` next to this directory; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import array
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

END_TO_END = [
    ("ops_per_s", "op/s"),
    ("op_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
WORKLOADS = ("eval-mix", "zeros-certify", "oracle-check", "cli-session")
SETUP_REPEATS = 3
TAIL_CAP = 99.9
TAIL_FLOOR = 90.0
MAX_OPS_PER_S = 100_000         # about four times the fastest workload's rate
CAL_LOOPS = 20_000
CAL_REF_S = 1.75e-3             # the loop's time at the reference speed, a figure
                                # within the range it reads on the 2-CPU Xeon VM
                                # the baseline ran on (1.2 to 2.2 ms)
CAL_EVERY_S = 0.5
SMOOTH_S = 2.0
WALL_CAP = 1.4                  # a run on a slow host still ends in time


def speed_sample() -> float:
    """Wall time of a fixed pure-Python integer loop, the best of three, so
    that a single preemption does not read as a slow host.  Of the loops
    tried, this one's slowdowns on the shared host tracked those of the
    workloads best (a fitted exponent of 0.7 to 1.2 across them)."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(CAL_LOOPS):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def scaled_call(fn, before: float) -> tuple[float, float, object]:
    """Runs fn(); returns its wall time scaled to the reference speed by the
    loop's times before and after it, the time after, and fn's result."""
    t0 = time.perf_counter()
    out = fn()
    dt = time.perf_counter() - t0
    after = speed_sample()
    return dt * CAL_REF_S / (0.5 * (before + after)), after, out


class OpTimes:
    """Per-op wall times in a buffer allocated before the timed loop, so that
    memory does not grow with throughput, and the speed samples taken
    between them."""

    def __init__(self, seconds: float, cal: float):
        self.capacity = max(1 << 16, int(seconds * MAX_OPS_PER_S))
        self.buf = array.array("d", [0.0]) * self.capacity
        self.n = 0
        self.raw_ns = 0
        # (ops before the sample, when it was taken, the loop's time)
        self.marks = [(0, time.perf_counter_ns(), cal)]
        self.estimate_ns = 0.0      # scaled time of the ops before the last mark
        self.pending_ns = 0         # unscaled time of the ops after it

    def add(self, ns: int) -> None:
        if self.n == self.capacity:
            raise RuntimeError(f"more than {MAX_OPS_PER_S} ops/s: raise MAX_OPS_PER_S")
        self.buf[self.n] = ns
        self.n += 1
        self.raw_ns += ns
        self.pending_ns += ns

    def mark(self, cal: float) -> None:
        """Records a speed sample taken after the ops so far."""
        self.estimate_ns += self.pending_ns * CAL_REF_S / cal
        self.pending_ns = 0
        self.marks.append((self.n, time.perf_counter_ns(), cal))

    def estimate_s(self) -> float:
        """Scaled op time so far, each stretch at the sample after it; the
        run's deadline only, the reported times come from scale()."""
        return (self.estimate_ns + self.pending_ns * CAL_REF_S / self.marks[-1][2]) * 1e-9

    def scale(self) -> float:
        """Scales every op to the reference speed and returns the summed
        scaled time.  The ops between two samples are scaled by the median
        of the samples taken within SMOOTH_S of them: the host's speed
        drifts over tens of seconds, and one sample is noisier than that."""
        window = int(SMOOTH_S * 1e9)
        for (i0, t0, _), (i1, t1, _) in zip(self.marks, self.marks[1:]):
            near = [cal for _, t, cal in self.marks if t0 - window <= t <= t1 + window]
            factor = CAL_REF_S / statistics.median(near)
            for i in range(i0, i1):
                self.buf[i] *= factor
        return math.fsum(self.buf[:self.n]) * 1e-9

    def sorted_ms(self) -> list[float]:
        return sorted(v * 1e-6 for v in self.buf[:self.n])


def tail(sorted_ms: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten ops beyond it, capped at
    TAIL_CAP so that long runs are not judged on a few scheduler stalls, and
    None where it falls below TAIL_FLOOR: a run of fewer than 100 ops has no
    tail to speak of.

    Below the cap this is the eleventh-slowest op, which moves smoothly with
    the op count; a fixed ladder of percentiles would jump between rungs when
    runs of the same code straddle a rung.  Returns (percentile, ms)."""
    n = len(sorted_ms)
    q = min(TAIL_CAP, 100.0 * (n - 10) / n)
    if q < TAIL_FLOOR:
        return None
    return q, sorted_ms[math.ceil(q / 100.0 * n - 1e-9) - 1]


def _checked(check, out, tracer) -> bool:
    if tracer is not None:
        tracer.enabled = False
    try:
        return bool(check(out))
    except Exception as exc:           # a gate that raises is a failed op
        print(f"check raised: {exc!r}", file=sys.stderr)
        return False
    finally:
        if tracer is not None:
            tracer.enabled = True


def measure(wl, seconds: float, tracer=None) -> tuple[OpTimes, dict]:
    """Closed loop until the first cycle boundary after ``seconds`` of
    scaled op time, or after WALL_CAP times that in wall time.

    Every op is checked as soon as it returns, with the tracer paused, and
    the speed loop runs between ops about every CAL_EVERY_S.  ``elapsed``
    sums the scaled op times, so checks and the loop are left out of it and
    traced and untraced runs time the same work.  Ending on scaled time
    makes a run's op count depend on the package, not on the host's speed."""
    perf = time.perf_counter_ns
    attempted = failed = 0
    first = None
    first_ops = 0
    errors: list[str] = []
    times = OpTimes(seconds, speed_sample())
    start = perf()
    wall_deadline = start + int(WALL_CAP * seconds * 1e9)
    next_cal = start + int(CAL_EVERY_S * 1e9)
    index = 0
    while True:
        for run, check in wl.cycle(index):
            t0 = perf()
            try:
                out = run()
                ok = True
            except Exception as exc:    # an op that raises is a failed op
                ok = False
                if len(errors) < 5:
                    errors.append(repr(exc))
            times.add(perf() - t0)
            attempted += 1
            if ok:
                ok = _checked(check, out, tracer)
            failed += not ok
            if perf() >= next_cal:
                times.mark(speed_sample())
                next_cal = perf() + int(CAL_EVERY_S * 1e9)
        index += 1
        if index == 1 and tracer is not None:
            first, first_ops = tracer.aggregates(), attempted
        if times.estimate_s() >= seconds or perf() >= wall_deadline:
            break
    wall_s = (perf() - start) * 1e-9
    times.mark(speed_sample())
    for e in errors:
        print(f"op raised: {e}", file=sys.stderr)
    return times, {"attempted": attempted, "failed": failed, "elapsed": times.scale(),
                   "raw_elapsed": times.raw_ns * 1e-9, "wall_s": wall_s,
                   "speed_ms": 1e3 * statistics.median(c for _, _, c in times.marks),
                   "cycles": index, "first": first, "first_ops": first_ops}


def _import_package():
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401  (part of the measured import cost)
    import bergman  # noqa: F401
    import workloads
    return workloads


def pin_to_one_cpu() -> None:
    """Keeps this process, and the children it starts, on one CPU, so that
    the speed loop samples the CPU the ops run on: on a shared host one CPU
    can be slowed while the other is not."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_one(name: str, seed: int, seconds: float, traced: bool) -> dict:
    pin_to_one_cpu()
    import_s, cal, workloads = scaled_call(_import_package, speed_sample())

    wl = workloads.make(name, SRC)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            dt, cal, _ = scaled_call(lambda: wl.setup(seed), cal)
            setups.append(dt)
        setup_s = import_s + statistics.median(setups)

        tracer = None
        if traced:
            import tracing
            tracer = tracing.Tracer()
            tracing.install(tracer)
        times, res = measure(wl, seconds, tracer)
    finally:
        wl.close()
    # before the sort below, whose list of floats grows with the op count
    rss_mb = wl.peak_rss_mb()
    n = res["attempted"]
    ops_per_s = n / res["elapsed"]
    sorted_ms = times.sorted_ms()
    op_tail = tail(sorted_ms)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "traced": traced,
        "ops": n, "failed": res["failed"], "error_rate": res["failed"] / n,
        "cycles": res["cycles"], "op_tail_ms": None, "tail_percentile": None,
        "tail_samples_beyond": None, "speed_loop_ms": res["speed_ms"],
        "unscaled_ops_per_s": n / res["raw_elapsed"], "wall_s": res["wall_s"],
    }
    if op_tail is not None:
        q, record["op_tail_ms"] = op_tail
        record["tail_percentile"] = q
        record["tail_samples_beyond"] = round(n * (1.0 - q / 100.0))
    if not traced:
        metrics = {
            "ops_per_s": ops_per_s,
            "op_p50_ms": statistics.median(sorted_ms),
            "setup_s": setup_s,
            "peak_rss_mb": rss_mb,
        }
        units = dict(END_TO_END)
    else:
        tracer.write_spans(os.path.join(HERE, "out", f"spans-{name}-seed{seed}.tsv"))
        work = tracer.aggregates()
        tracing.run_probe()
        probe = tracer.aggregates().minus(work)
        extra = {"trace.ops_per_s": ops_per_s, **wl.own_metrics()}
        env = dict(os.environ, PYTHONPATH=SRC)
        extra["cli.interp_ms"], extra["cli.import_ms"] = tracing.cli_startup_ms(env)
        metrics, record["probe_only"] = tracing.layer_metrics(
            work, probe, res["first"], n, res["first_ops"], extra)
        units = dict(tracing.PER_LAYER)
        record["spans"] = tracer.next_id
    return {"record": record,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def print_result(out: dict) -> None:
    rec = out["record"]
    probe_only = set(rec.get("probe_only", ()))
    for name, m in out["metrics"].items():
        note = "  (idle here: value from the layer probe)" if name in probe_only else ""
        print(f"{rec['workload']:14s} {name:32s} {m['value']:.6g} {m['unit']}{note}")
    print(f"{rec['workload']:14s} {'error_rate':32s} {rec['error_rate']:.6g} ratio")
    print(f"{rec['workload']:14s} {'op_tail_ms':32s} {_tail_text(rec)}")
    print("record " + json.dumps(rec))
    print(json.dumps({"correct": rec["failed"] == 0, "attempted": rec["ops"],
                      "failed": rec["failed"], "metrics": out["metrics"]}))


def _tail_text(rec: dict) -> str:
    if rec["op_tail_ms"] is None:
        return f"omitted: {rec['ops']} ops, below p{TAIL_FLOOR:g} with ten beyond"
    return (f"{rec['op_tail_ms']:.6g} ms at p{rec['tail_percentile']:.4g} "
            f"of {rec['ops']} ops, {rec['tail_samples_beyond']} beyond")


# ------------------------------------------------------------------- --all

def _child(name: str, seed: int, seconds: float, traced: bool) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced))],
        stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    rec = next(json.loads(l[len("record "):]) for l in lines if l.startswith("record "))
    return rec, json.loads(lines[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _tier1() -> dict:
    """Wall time and summary line of the tier-1 suite (informational)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q",
                           "--continue-on-collection-errors"],
                          cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": time.perf_counter() - t0, "summary": lines[-1] if lines else ""}


def run_all(seed: int, seconds: float, tier1: bool, write: str | None) -> int:
    sys.path.insert(0, SRC)
    import numpy
    import workloads

    record = {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "cpu": _cpu_model(), "commit": _git_commit(),
        "seed": seed, "seconds": seconds, "workloads": {},
    }
    for name in WORKLOADS:
        rec, res = _child(name, seed, seconds, False)
        trec, tres = _child(name, seed, seconds, True)
        m, lm = res["metrics"], tres["metrics"]
        for key, v in m.items():
            print(f"{name:14s} {key:14s} {v['value']:.6g} {v['unit']}")
        print(f"{name:14s} {'error_rate':14s} {rec['error_rate']:.6g} ratio "
              f"({rec['failed']} of {rec['ops']} ops)")
        print(f"{name:14s} {'op_tail_ms':14s} {_tail_text(rec)}")
        overhead = lm["trace.ops_per_s"]["value"] / m["ops_per_s"]["value"]
        print(f"{name:14s} tracing overhead: traced/untraced ops_per_s = {overhead:.3f}")
        # per-layer times are unscaled wall times, so compare them with
        # unscaled op times: the traced run's own, or op_p50_ms taken back
        # to wall time at the untraced run's median loop time
        if name == "zeros-certify":
            # share of the traced op time spent in the winding count
            share = (lm["zeros.winding_s"]["value"] * lm["zeros.winding_calls"]["value"]
                     * trec["unscaled_ops_per_s"])
            print(f"{name:14s} winding count share of traced op time = {share:.2f}")
        if name == "cli-session":
            p50_wall = m["op_p50_ms"]["value"] * rec["speed_loop_ms"] / (1e3 * CAL_REF_S)
            share = (lm["cli.interp_ms"]["value"] + lm["cli.import_ms"]["value"]) / p50_wall
            print(f"{name:14s} (cli.interp_ms + cli.import_ms) / op_p50 = {share:.2f}")
        record["workloads"][name] = {
            "ops": rec["ops"], "failed": rec["failed"], "error_rate": rec["error_rate"],
            "op_tail_ms": rec["op_tail_ms"], "tail_percentile": rec["tail_percentile"],
            "tail_samples_beyond": rec["tail_samples_beyond"],
            "tracing_overhead": overhead, "probe_only": trec["probe_only"],
            "end_to_end": m, "per_layer": lm,
        }
    record["known_defects"] = [workloads.known_defect_probe()]
    print("known defect: " + json.dumps(record["known_defects"][0]))
    if tier1:
        record["tier1"] = _tier1()
        print(f"tier-1 suite: {record['tier1']['summary']}, "
              f"{record['tier1']['wall_s']:.1f} s wall (informational)")
    if write:
        with open(write, "w") as handle:
            json.dump(record, handle, indent=1)
            handle.write("\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--tier1", action="store_true",
                    help="with --all: also time the tier-1 test suite")
    ap.add_argument("--write", help="with --all: write the run record as JSON here")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bergman", "__init__.py")):
        print(f"error: no bergman package under {SRC}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args.seed, args.seconds, args.tier1, args.write)
    if args.workload is None:
        ap.error("give --workload or --all")
    print_result(run_one(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
