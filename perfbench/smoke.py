"""Smoke test of the benchmark itself, with tiny op counts.

    python3 perfbench/smoke.py

Checks that every run prints the result line the benchmark promises, that
every end-to-end and per-layer metric of BENCHMARK.json is emitted with its
unit, and that each workload's correctness gate rejects a deliberately wrong
value, so the gate is known to be live.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def run(workload: str, trace: int) -> dict:
    # a tiny budget: every run stops after its first cycle
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.001", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=180)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0, (workload, trace, result)
    assert result["attempted"] >= 1
    return result["metrics"]


def check_metrics(spec: dict) -> None:
    for w in spec["workloads"]:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            metrics = run(w["name"], trace)
            want = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in metrics.items()}
            assert got == want, (w["name"], trace, set(want) ^ set(got))
            for k, v in metrics.items():
                assert isinstance(v["value"], (int, float)), (k, v)
            print(f"smoke: {w['name']} trace={trace}: {len(got)} metrics with units")


def check_tail() -> None:
    """op_tail_ms keeps ten ops beyond it, and is omitted below p90."""
    sys.path[:0] = [SRC, HERE]
    import run as R

    assert R.tail([float(i) for i in range(99)]) is None
    assert R.tail([float(i) for i in range(100)]) == (90.0, 89.0)
    q, v = R.tail([float(i) for i in range(100_000)])
    assert q == R.TAIL_CAP and v == 99_899.0
    print("smoke: op_tail_ms keeps ten ops beyond it, and none below p90")


def check_scaling() -> None:
    """Each stretch of ops between two speed samples is scaled by the median
    of the samples near it."""
    import run as R

    times = R.OpTimes(0.001, 2 * R.CAL_REF_S)
    times.add(100)
    times.add(300)
    assert math.isclose(times.estimate_s(), 200e-9)
    times.mark(2 * R.CAL_REF_S)
    times.add(1000)
    times.mark(R.CAL_REF_S)
    # all three samples fall within SMOOTH_S: every op at their median
    assert math.isclose(times.scale(), 700e-9) and times.raw_ns == 1400
    assert list(times.buf[:3]) == [50.0, 150.0, 500.0]
    assert R.speed_sample() > 0.0
    print("smoke: op times scale to the reference speed")


def check_gates() -> None:
    import workloads as W

    wl = W.make("eval-mix", SRC)
    wl.setup(7)
    run_op, check = next(iter(wl.cycle(0)))
    assert check(run_op())
    name, z, w, call, ref = wl.entries[0]
    wl.entries[0] = (name, z, w, call, ref * (1 + 1e-5))
    run_op, check = next(iter(wl.cycle(0)))
    assert not check(run_op()), "eval-mix gate accepted a reference off by 1e-5"

    wl = W.make("zeros-certify", SRC)
    wl.setup(7)
    ops = list(wl.cycle(0))
    run_op, check = ops[-1]                          # the cheap k2 scan
    rep = run_op()
    assert check(rep)
    assert not check(dataclasses.replace(rep, count_by_winding=rep.count_by_winding + 1))
    assert not check(dataclasses.replace(rep, zeros=(W.Z.Zero(0.5j, 1e-3),),
                                         count_by_winding=1))

    wl = W.make("oracle-check", SRC)
    wl.setup(7)
    ops = list(wl.cycle(0))
    run_op, check = ops[-1]                          # a C^2 series value
    kv = run_op()
    assert check(kv)
    assert not check(dataclasses.replace(kv, value=kv.value * (1 + 1e-5)))
    run_op, check = ops[0]                           # a Monte Carlo volume
    est, err = run_op()
    assert check((est, err))
    assert not check((est + 5 * err, err))

    wl = W.make("cli-session", SRC)
    try:
        wl.setup(7)
        run_op, check = next(iter(wl.cycle(0)))
        code, stdout = run_op()
        assert check((code, stdout))
        assert not check((code, stdout + b" "))
        assert not check((1, stdout))
    finally:
        wl.close()
    print("smoke: every workload's gate rejects a wrong value")


def check_second_seed() -> None:
    """Another seed gives other inputs with the same route, family and
    parameter mix."""
    import workloads as W

    a, b = W.make("eval-mix", SRC), W.make("eval-mix", SRC)
    a.setup(1)
    b.setup(2)
    assert sorted(e[0] for e in a.entries) == sorted(e[0] for e in b.entries)
    assert {e[1] for e in a.entries}.isdisjoint({e[1] for e in b.entries})

    a, b = W.make("zeros-certify", SRC), W.make("zeros-certify", SRC)
    a.setup(1)
    b.setup(2)
    for index in range(W.STRATA):
        pa, pb = a.params(index), b.params(index)
        strata = [(index + f) % W.STRATA for f in range(5)]
        assert pa[3:] == pb[3:] == (2 + strata[3], 3 + strata[4])   # slice dimensions
        assert pa[:3] != pb[:3]
        # the same stratum of each parameter range
        assert (pa[0] - 3) // 8 == (pb[0] - 3) // 8 == strata[0]
        assert (pa[1] - 2) // 8 == (pb[1] - 2) // 8 == strata[1]
        assert (pa[2] - 0.5) // 1.875 == (pb[2] - 0.5) // 1.875 == strata[2]

    argv_a, argv_b = W.session_argvs(1, 0), W.session_argvs(2, 0)
    assert [v[:2] for v in argv_a] == [v[:2] for v in argv_b]
    assert argv_a != argv_b
    print("smoke: a second seed keeps the mix and changes the inputs")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    check_tail()
    check_scaling()
    check_gates()
    check_second_seed()
    check_metrics(spec)
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
