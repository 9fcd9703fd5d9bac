"""The four benchmark workloads.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned.  ``setup(seed)`` makes the inputs (and
whatever references the correctness gate needs) from the seed alone;
``cycle(i)`` yields the i-th cycle of operations as ``(run, check)`` pairs,
where ``run()`` is the timed call into the package and ``check(result)`` is
the gate, which returns True when the result is right.  A second seed keeps
the route, family and parameter mix of each cycle and changes the values.

The package is reached only through its public functions and its CLI, and
only through module attributes looked up at call time, so the span wrappers
of the traced run see every call.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
import time

import bergman.cli as C
import bergman.domains as D
import bergman.kernels as K
import bergman.oracle as O
import bergman.zeros as Z

TWO_PI = 2.0 * math.pi
GOLDEN = 0.6180339887498949
REL_TOL = 1e-6          # closed form against its reference
ZERO_TOL = 1e-9         # residual bound on every reported zero (the CLI default)
MC_SIGMAS = 4.0         # Monte Carlo estimate against the exact value


def _rel_ok(got: complex, ref: complex) -> bool:
    return abs(got - ref) <= REL_TOL * abs(ref)


def _direction(rng: random.Random, dim: int) -> list[complex]:
    """A random unit vector in C^dim."""
    v = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(dim)]
    norm = math.sqrt(sum(abs(c) ** 2 for c in v))
    return [c / norm for c in v]


def block_point(rng: random.Random, blocks: list[tuple[int, float]],
                phi: float) -> tuple[complex, ...]:
    """A point of sum_j ||z_j||^(2/p_j) < 1 with defining function exactly phi.

    The budget phi is split between the blocks at random; block j then has
    norm (share_j)^(p_j/2) in a random direction.
    """
    weights = [0.05 + rng.random() for _ in blocks]
    total = sum(weights)
    out: list[complex] = []
    for (dim, p), wgt in zip(blocks, weights):
        radius = (phi * wgt / total) ** (p / 2.0)
        out.extend(radius * c for c in _direction(rng, dim))
    return tuple(out)


def diag_point(rng: random.Random, exps, phi: float) -> tuple[complex, ...]:
    return block_point(rng, [(1, p) for p in exps], phi)


def near_axis(rng: random.Random, z: tuple[complex, ...]) -> tuple[complex, ...]:
    """Move the first coordinate to within 1e-3 of the axis z_1 = 0."""
    return (cmath.rect(rng.uniform(1e-4, 9e-4), rng.uniform(0, TWO_PI)),) + z[1:]


def _ball_value(m: int, t: complex) -> complex:
    return math.factorial(m) / math.pi ** m * (1.0 - t) ** (-(m + 1))


def _pairing(z, w) -> complex:
    return sum((a * b.conjugate() for a, b in zip(z, w)), 0j)


class Workload:
    """What the runner needs of a workload besides ``setup`` and ``cycle``;
    the defaults suit a workload that does its work in this process."""

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the process doing the work."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def own_metrics(self) -> dict[str, float]:
        """Per-layer metrics the workload measures itself, outside spans."""
        return {"cli.stdout_bytes": 0.0}        # only the CLI writes to stdout

    def close(self) -> None:
        """Stop every process the workload started."""


# ------------------------------------------------------------------ eval-mix
# Each route: (name, ops per cycle, base-pair maker).  A maker returns
# (z, w, call, reference): call(z, w) evaluates the route at a rotated copy of
# the base pair, and the reference is an independent value at the base pair.
# Every kernel here is invariant under rotating z_j and w_j by a common phase,
# so each operation gets its own rotation and no two operations repeat an
# input, while one reference serves them all.  The ops per cycle are fixed so
# that no route takes more than about a third of the time, and so that the
# median op falls mid-way through the off-axis mixed_family_kernel entries,
# between the k2 ops below them and the ball and hartogs2 ops above them:
# a median at the edge of a cluster would jump between runs.

def _series_ref(exps, z, w) -> complex:
    return O.series_kernel(D.diagonal_domain(*exps), z, w).value


def _pair(rng, draw, axis: bool, folded: int = 1):
    """A base pair from draw(), with the first ``folded`` pairings at least
    twice the small-argument switch 1e-3, except that an axis pair then has
    its first coordinate moved near the axis; so the branch each entry takes
    (direct or small-argument, in which coordinates) is fixed by its index."""
    while True:
        z, w = draw(), draw()
        if all(abs(z[k] * w[k].conjugate()) >= 2e-3 for k in range(folded)):
            return (near_axis(rng, z), near_axis(rng, w)) if axis else (z, w)


def _make_k2(rng, axis, variant):
    z, w = _pair(rng, lambda: diag_point(rng, (2.0, 2.0), rng.uniform(0.1, 0.45)), axis)

    def call(z, w):
        return K.k2_closed_form(z[0] * w[0].conjugate(), z[1] * w[1].conjugate()).value

    return z, w, call, _series_ref((2.0, 2.0), z, w)


def _make_slice(rng, axis, variant):
    p = rng.uniform(1.5, 8.0)
    z, w = _pair(rng, lambda: diag_point(rng, (2.0, p), rng.uniform(0.1, 0.45)), axis)

    def call(z, w):
        return K.slice_kernel_kp(p, z[0] * w[0].conjugate(), z[1] * w[1].conjugate()).value

    return z, w, call, _series_ref((2.0, p), z, w)


def _make_ball(rng, axis, variant):
    m = 2 + variant
    z, w = _pair(rng, lambda: block_point(rng, [(m, 1.0)], rng.uniform(0.1, 0.6)), axis)

    def call(z, w):
        return K.ball_kernel(m, z, w).value

    return z, w, call, _ball_value(m, _pairing(z, w))


def _make_hartogs2(rng, axis, variant):
    p = rng.uniform(1.5, 8.0)
    z, w = _pair(rng, lambda: diag_point(rng, (1.0, p), rng.uniform(0.1, 0.45)), axis)

    def call(z, w):
        return K.hartogs2_kernel(p, z[0], z[1], w[0], w[1]).value

    return z, w, call, _series_ref((1.0, p), z, w)


def _make_pflate(rng, axis, variant):
    # n = m = 1 against hartogs2_kernel; n = m = 2 at p = 1 (the ball in C^4)
    # against the ball closed form, which exercises a genuine two-variable jet
    if variant == 0:
        p = rng.uniform(1.5, 8.0)
        z, w = _pair(rng, lambda: diag_point(rng, (1.0, p), rng.uniform(0.1, 0.45)), axis)

        def call(z, w):
            return K.pflate_kernel(1, 1, p, z[:1], z[1:], w[:1], w[1:]).value

        return z, w, call, K.hartogs2_kernel(p, z[0], z[1], w[0], w[1]).value
    z, w = _pair(rng, lambda: block_point(rng, [(2, 1.0), (2, 1.0)],
                                          rng.uniform(0.1, 0.6)), axis)

    def call4(z, w):
        return K.pflate_kernel(2, 2, 1.0, z[:2], z[2:], w[:2], w[2:]).value

    return z, w, call4, _ball_value(4, _pairing(z, w))


def _make_mixed(rng, axis, variant):
    # root coordinates (s, z') in the unit ball; the domain point is (s^2, z')
    n = 2 + variant
    z, w = _pair(rng, lambda: block_point(rng, [(n, 1.0)], rng.uniform(0.1, 0.45)), axis)

    def call(z, w):
        return K.mixed_family_kernel(n, z, w).value

    exps = (2.0,) + (1.0,) * (n - 1)
    ref = _series_ref(exps, (z[0] ** 2,) + z[1:], (w[0] ** 2,) + w[1:])
    return z, w, call, ref


def _fold_maker(p_list):
    def make(rng, axis, variant):
        p = rng.uniform(1.5, 4.0)
        exps = tuple(float(q) for q in p_list) + (p,)
        z, w = _pair(rng, lambda: diag_point(rng, exps, rng.uniform(0.15, 0.4)),
                     axis, folded=len(p_list))

        def call(z, w):
            return K.general_folded_kernel(p_list, p, K.KernelPoint(z, w)).value

        return z, w, call, _series_ref(exps, z, w)

    return make


EVAL_ROUTES = (
    ("k2_closed_form", 80, _make_k2),
    ("slice_kernel_kp", 16, _make_slice),
    ("ball_kernel", 16, _make_ball),
    ("hartogs2_kernel", 16, _make_hartogs2),
    ("pflate_kernel", 16, _make_pflate),
    ("mixed_family_kernel", 32, _make_mixed),
    ("general_folded_kernel[2,2]", 4, _fold_maker([2, 2])),
    ("general_folded_kernel[3,3]", 2, _fold_maker([3, 3])),
    ("general_folded_kernel[2,2,2]", 2, _fold_maker([2, 2, 2])),
)

# Entry i of a route sits within 1e-3 of an axis when i % 4 == 1, and takes
# the route's variant (i // 4) % 2 (ball dimension, pflate block shape, mixed
# dimension), so every seed has the same branch and variant mix.


class EvalMix(Workload):
    name = "eval-mix"
    why = ("closed-form routes at seeded interior pairs, a fixed share near an "
           "axis; loads kernels and high-order jets, leaves zeros, oracle and cli idle")

    def setup(self, seed: int) -> None:
        rng = random.Random(f"eval-mix/{seed}")
        entries = []
        for name, count, make in EVAL_ROUTES:
            for i in range(count):
                z, w, call, ref = make(rng, i % 4 == 1, (i // 4) % 2)
                entries.append((name, z, w, call, ref))
        rng.shuffle(entries)
        self.entries = entries
        for _, z, w, call, ref in entries:       # warm-up: one pass, unrotated
            call(z, w)

    def cycle(self, index: int):
        n_entries = len(self.entries)
        for pos, (_, z, w, call, ref) in enumerate(self.entries):
            frac = ((index * n_entries + pos + 1) * GOLDEN) % 1.0
            rot = [cmath.exp(1j * TWO_PI * ((frac + 0.37 * j) % 1.0))
                   for j in range(len(z))]
            zr = tuple(a * r for a, r in zip(z, rot))
            wr = tuple(b * r for b, r in zip(w, rot))
            yield (lambda c=call, a=zr, b=wr: c(a, b)), (lambda v, r=ref: _rel_ok(v, r))


# ------------------------------------------------------------- zeros-certify

def _report_ok(rep, predicate: bool) -> bool:
    return (len(rep.zeros) == rep.count_by_winding
            and all(z.residual <= ZERO_TOL for z in rep.zeros)
            and (len(rep.zeros) > 0) == predicate)


STRATA = 4
# Just above p = 4k - 2 the newest pair of axis-1 zeros sits so close to the
# fixed contour r = 0.999 that the winding count misses it (up to about 0.07
# above p = 30).  A workload may hold no failing op, so non-integer p leave
# out these windows, and known_defect_probe measures the defect instead.
DEFECT_WINDOW = 0.1


def _axis1_frac_p(rng: random.Random, lo: float, hi: float) -> float:
    """A non-integer p in (lo, hi) outside (4k - 2, 4k - 2 + DEFECT_WINDOW)."""
    while True:
        p = rng.uniform(lo, hi)
        if p != int(p) and (p + 2.0) % 4.0 >= DEFECT_WINDOW:
            return p


class ZerosCertify(Workload):
    """Each cycle is one report per family, in a fixed order.  Every family's
    parameter range is cut into four strata, and in cycle i family f takes
    stratum (i + f) % 4, so every cycle mixes the strata alike and any four
    cycles cover each family's range once; the seed picks the values inside
    the strata.  A run's mix is then the same whatever the seed and however
    many cycles it runs."""

    name = "zeros-certify"
    why = ("ZeroReports of the paper's headline computation; the winding count "
           "at r = 0.999 through order-1 jets dominates")

    def setup(self, seed: int) -> None:
        self.seed = seed
        # warm-up: the cheapest report, a two-variable scan with no winding count
        Z.grid_zero_scan(Z.k2_pair_slice(), 8, tol=ZERO_TOL)

    def params(self, index: int) -> tuple[float, float, float, int, int]:
        """Cycle index's axis-1 integer and non-integer p, axis-2 p, simplex
        and mixed slice dimensions."""
        rng = random.Random(f"zeros-certify/{self.seed}/{index}")
        s0, s1, s2, s3, s4 = ((index + f) % STRATA for f in range(5))
        p_int = float(rng.randrange(3 + 8 * s0, min(33, 11 + 8 * s0)))
        p_frac = _axis1_frac_p(rng, 2 + 8 * s1, min(32, 10 + 8 * s1))
        p_axis2 = 0.5 + 1.875 * (s2 + 1.0 - rng.random())
        return p_int, p_frac, p_axis2, 2 + s3, 3 + s4

    def cycle(self, index: int):
        p_int, p_frac, p_axis2, n_simplex, n_mixed = self.params(index)
        yield (lambda: Z.axis1_zero_locus(p_int)), (lambda r: _report_ok(r, p_int > 2.0))
        yield (lambda: Z.axis1_zero_locus(p_frac)), (lambda r: _report_ok(r, p_frac > 2.0))
        yield (lambda: Z.axis2_zero_locus(p_axis2)), (lambda r: _report_ok(r, p_axis2 > 2.0))
        yield ((lambda: Z.grid_zero_scan(Z.simplex_slice(n_simplex), 48, tol=ZERO_TOL)),
               (lambda r: _report_ok(r, n_simplex >= 3)))
        yield ((lambda: Z.grid_zero_scan(Z.mixed_slice(n_mixed), 48, tol=ZERO_TOL)),
               (lambda r: _report_ok(r, n_mixed >= 4)))
        yield ((lambda: Z.grid_zero_scan(Z.k2_pair_slice(), 48, tol=ZERO_TOL)),
               (lambda r: _report_ok(r, False)))


def known_defect_probe() -> dict:
    """Axis-1 zeros just past p = 30 against the winding count.

    Two of the zeros lie between the fixed contour r = 0.999 and the
    boundary, so the count misses them: a known mis-certification, recorded
    as it stands rather than timed."""
    p = 30.02
    rep = Z.axis1_zero_locus(p)
    return {"family": "axis1", "p": p, "zeros": len(rep.zeros),
            "winding_count": rep.count_by_winding,
            "certified": len(rep.zeros) == rep.count_by_winding}


# -------------------------------------------------------------- oracle-check

SERIES_C2_PER_CYCLE = 100
SERIES_C3_PER_CYCLE = 12
REPRODUCING_PER_CYCLE = 4
MC_SAMPLES = 1_000_000
REPRODUCING_SAMPLES = 200_000

MC_DOMAINS = (
    lambda p: D.diagonal_domain(2.0, p),
    lambda p: D.diagonal_domain(1.0, 2.0, p),
    lambda p: D.DomainSpec((D.Block(2, 1.0), D.Block(1, p))),
    lambda p: D.DomainSpec((D.Block(1, p), D.Block(2, 2.0))),
)


def _series_c2_op(rng: random.Random):
    p = 2.0 if rng.random() < 0.5 else rng.uniform(1.5, 8.0)
    exps = (2.0, p)
    z, w = (diag_point(rng, exps, rng.uniform(0.1, 0.7)) for _ in "zw")

    def check(kv):
        x, y = z[0] * w[0].conjugate(), z[1] * w[1].conjugate()
        ref = K.k2_closed_form(x, y) if p == 2.0 else K.slice_kernel_kp(p, x, y)
        return _rel_ok(kv.value, ref.value)

    return (lambda: O.series_kernel(D.diagonal_domain(*exps), z, w)), check


def _series_c3_op(rng: random.Random):
    p_list = [2, 2] if rng.random() < 0.5 else [3, 3]
    p = rng.uniform(1.5, 4.0)
    exps = tuple(float(q) for q in p_list) + (p,)
    z, w = (diag_point(rng, exps, rng.uniform(0.1, 0.7)) for _ in "zw")

    def check(kv):
        ref = K.general_folded_kernel(p_list, p, K.KernelPoint(z, w))
        return _rel_ok(kv.value, ref.value)

    return (lambda: O.series_kernel(D.diagonal_domain(*exps), z, w)), check


def _mc_op(rng: random.Random, mc_seed: int):
    d = rng.choice(MC_DOMAINS)(rng.uniform(1.5, 4.0))

    def check(result):
        est, err = result
        return err > 0.0 and abs(est - D.volume(d)) <= MC_SIGMAS * err

    return (lambda: O.mc_volume(d, MC_SAMPLES, mc_seed)), check


def _reproducing_op(rng: random.Random, mc_seed: int):
    if rng.random() < 0.5:
        d = D.diagonal_domain(2.0, 2.0)

        def kern(z, pts):
            return K.k2_values(z[0] * pts[:, 0].conj(), z[1] * pts[:, 1].conj())
    else:
        p = rng.uniform(1.5, 8.0)
        d = D.diagonal_domain(2.0, p)

        def kern(z, pts):
            return K.slice_kp_values(p, z[0] * pts[:, 0].conj(), z[1] * pts[:, 1].conj())
    z = diag_point(rng, d.exponents(), rng.uniform(0.05, 0.5))
    monomials = rng.sample([(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)], 2)
    h = {beta: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for beta in monomials}

    def check(res):
        return res.stderr > 0.0 and float(res) <= MC_SIGMAS * res.stderr

    return (lambda: O.reproducing_check(d, kern, h, z, REPRODUCING_SAMPLES, mc_seed)), check


class OracleCheck(Workload):
    name = "oracle-check"
    why = ("series oracle against closed forms, Monte Carlo volumes and the "
           "reproducing identity; loads oracle, domains norms and vectorized kernels")

    def setup(self, seed: int) -> None:
        self.seed = seed
        d22 = D.diagonal_domain(2.0, 2.0)                  # warm-up
        O.series_kernel(d22, (0.3, 0.2), (0.2, 0.3))
        O.mc_volume(d22, 10_000, seed)

    def cycle(self, index: int):
        rng = random.Random(f"oracle-check/{self.seed}/{index}")
        mc_seed = (self.seed * 1_000_003 + index) % (1 << 31)
        ops = [_mc_op(rng, mc_seed)]
        for k in range(REPRODUCING_PER_CYCLE):
            ops.append(_reproducing_op(rng, mc_seed + k + 1))
        c3 = [_series_c3_op(rng) for _ in range(SERIES_C3_PER_CYCLE)]
        c2 = [_series_c2_op(rng) for _ in range(SERIES_C2_PER_CYCLE)]
        # interleave so that a run cut mid-cycle keeps the mix
        per = SERIES_C2_PER_CYCLE // SERIES_C3_PER_CYCLE
        for i, op in enumerate(c3):
            ops.append(op)
            ops.extend(c2[i * per:(i + 1) * per])
        ops.extend(c2[SERIES_C3_PER_CYCLE * per:])
        yield from ops


# --------------------------------------------------------------- cli-session

def _domain_arg(blocks) -> str:
    return json.dumps({"blocks": [{"dim": m, "p": p} for m, p in blocks]},
                      separators=(",", ":"))


def _coords(z) -> str:
    return ",".join(repr(complex(c)) for c in z)


def _eval_argv(rng: random.Random, blocks, phi_hi: float, check: bool = False):
    z, w = (block_point(rng, blocks, rng.uniform(0.1, phi_hi)) for _ in "zw")
    argv = ["eval", "--domain", _domain_arg(blocks), "--z", _coords(z), "--w", _coords(w)]
    return argv + ["--check-oracle"] if check else argv


def session_argvs(seed: int, index: int) -> list[list[str]]:
    """Session index of seed: every eval route, locus, verify and zeros."""
    rng = random.Random(f"cli-session/{seed}/{index}")
    p = round(rng.uniform(1.5, 8.0), 3)
    q = round(rng.uniform(1.5, 4.0), 3)
    n = rng.randint(3, 4)
    return [
        _eval_argv(rng, [(1, 2.0), (1, 2.0)], 0.6),
        _eval_argv(rng, [(1, 2.0), (1, p)], 0.6),
        _eval_argv(rng, [(rng.randint(2, 3), 1.0)], 0.6),
        _eval_argv(rng, [(1, 1.0), (1, p)], 0.6),
        _eval_argv(rng, [(2, 1.0), (2, p)], 0.6),
        _eval_argv(rng, [(1, 2.0), (n - 1, 1.0)], 0.4),
        _eval_argv(rng, [(1, 2.0), (1, 2.0), (1, q)], 0.6),
        _eval_argv(rng, [(1, 2.0), (1, 2.0)], 0.5, check=True),
        _eval_argv(rng, [(1, 2.0), (1, 2.0), (1, q)], 0.3, check=True),
        ["locus", "--family", "axis1", "--p", repr(p), "--res", str(rng.randint(8, 12))],
        ["locus", "--family", "k2", "--res", str(rng.randint(6, 10))],
        ["verify", "--suite", "origin-values", "--seed", str(rng.randint(0, 9999))],
        ["zeros", "--family", "k2", "--res", str(rng.randint(12, 16))],
    ]


def in_process(argv: list[str]) -> tuple[int, bytes]:
    """Exit code and stdout of bergman.cli.main on argv, in this process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = C.main(list(argv))
    return code, buf.getvalue().encode()


class CliSession(Workload):
    name = "cli-session"
    why = ("scripted bergman invocations, one child process at a time; "
           "interpreter start and import dominate, the in-process workloads bypass them")

    def __init__(self, src_dir: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + (os.pathsep + env["PYTHONPATH"]
                                       if env.get("PYTHONPATH") else "")
        self.spawner = subprocess.Popen(
            [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                          "spawner.py")],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.peak_rss_kb = 0
        self.stdout_bytes = 0
        self.first_cycle_bytes = None
        self.main_ns: dict[str, list[int]] = {}   # subcommand -> [calls, ns]

    def invoke(self, argv: list[str]) -> tuple[int, bytes]:
        """Exit code and stdout of one ``python -m bergman`` child."""
        self.spawner.stdin.write((json.dumps(argv) + "\n").encode())
        self.spawner.stdin.flush()
        code, rss_kb, size = map(int, self.spawner.stdout.readline().split())
        self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
        return code, self.spawner.stdout.read(size)

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the largest child."""
        return self.peak_rss_kb / 1024.0

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.wait()
        self.spawner.stdout.close()

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.invoke(["eval", "--domain", _domain_arg([(1, 2.0), (1, 2.0)]),
                     "--z", "0.1,0.2"])                   # warm-up

    def cycle(self, index: int):
        argvs = session_argvs(self.seed, index)
        for argv in argvs:
            yield (lambda a=argv: self.invoke(a)), (lambda out, a=argv: self._check(a, out))
        if self.first_cycle_bytes is None:
            self.first_cycle_bytes = self.stdout_bytes / len(argvs)

    def _check(self, argv, out) -> bool:
        code, stdout = out
        self.stdout_bytes += len(stdout)
        t0 = time.perf_counter_ns()
        expected = in_process(argv)
        acc = self.main_ns.setdefault(argv[0], [0, 0])
        acc[0] += 1
        acc[1] += time.perf_counter_ns() - t0
        return code == 0 and (code, stdout) == expected

    def own_metrics(self) -> dict[str, float]:
        """Stdout bytes per invocation over the first cycle, and the mean ms
        of in-process bergman.cli.main per subcommand, as timed by the checks."""
        out = {f"cli.main_ms.{cmd}": 1e-6 * ns / calls
               for cmd, (calls, ns) in self.main_ns.items()}
        out["cli.stdout_bytes"] = self.first_cycle_bytes or 0.0
        return out


def make(name: str, src_dir: str):
    if name == "cli-session":
        return CliSession(src_dir)
    return {"eval-mix": EvalMix, "zeros-certify": ZerosCertify,
            "oracle-check": OracleCheck}[name]()
