import cmath
import itertools
import math
import random

import numpy as np
import pytest

from bergman.domains import (
    Block,
    DomainSpec,
    diagonal_domain,
    log_monomial_norm_sq,
    phi,
    volume,
)
from bergman.errors import (
    DimensionMismatch,
    NoConvergence,
    PreconditionViolated,
    UnsupportedDomain,
)
from bergman.kernels import (
    ball_kernel_values,
    deflation_pair,
    k2_closed_form,
    k2_values,
    slice_kernel_kp,
    slice_kp_values,
)
from bergman.oracle import (
    _MC_BLOCK,
    ReproducingResidual,
    _block_rng,
    _phi_many,
    SeriesConfig,
    mc_volume,
    poly_eval,
    reproducing_check,
    series_kernel,
)

SQ3 = 1.0 / math.sqrt(3.0)


def rand_phase(rng):
    return cmath.exp(2j * math.pi * rng.random())


def series_slice_points(rng, count, p=2.0, budget=0.6):
    """Conjugate-split realizations of admissible slice pairings.

    phi of both realized points is sqrt|x| + |y|^(1/p), kept <= budget so the
    series precondition and its convergence are both comfortable.
    """
    out = []
    while len(out) < count:
        x = 0.9 * rand_phase(rng) * rng.random()
        y = 0.9 * rand_phase(rng) * rng.random()
        if math.sqrt(abs(x)) + abs(y) ** (1.0 / p) >= budget:
            continue
        xi, eta = cmath.sqrt(x), cmath.sqrt(y)
        p1, p2 = rand_phase(rng), rand_phase(rng)
        z = (xi * p1, eta * p2)
        w = ((xi / p1).conjugate(), (eta / p2).conjugate())
        out.append((z, w, x, y))
    return out


# ------------------------------------------------------------------- series


def test_series_origin_is_reciprocal_volume():
    for d in (diagonal_domain(1.0), diagonal_domain(2.0, 2.0),
              diagonal_domain(1.0, 2.0), diagonal_domain(2.0, 2.0, 2.0)):
        got = series_kernel(d, (0j,) * d.total_dim, (0j,) * d.total_dim).value
        assert got == pytest.approx(1.0 / volume(d), rel=1e-13)


def test_series_matches_k2():
    rng = np.random.default_rng(101)
    d = diagonal_domain(2.0, 2.0)
    for z, w, x, y in series_slice_points(rng, 12):
        got = series_kernel(d, z, w).value
        want = k2_closed_form(x, y).value
        assert abs(got - want) <= 1e-6 * abs(want)


def test_series_matches_slice_p4():
    rng = np.random.default_rng(103)
    d = diagonal_domain(2.0, 4.0)
    for z, w, x, y in series_slice_points(rng, 8, p=4.0):
        got = series_kernel(d, z, w).value
        want = slice_kernel_kp(4.0, x, y).value
        assert abs(got - want) <= 1e-6 * abs(want)


def test_series_hermitian():
    rng = np.random.default_rng(107)
    d = diagonal_domain(2.0, 2.0)
    for z, w, _, _ in series_slice_points(rng, 5):
        fwd = series_kernel(d, z, w).value
        rev = series_kernel(d, w, z).value
        assert abs(fwd - rev.conjugate()) <= 1e-10 * abs(fwd)


def test_series_simplex_headline_zero():
    # ||z1| + |z2| + |z3| < 1 has a kernel zero on the first-axis slice
    d = diagonal_domain(2.0, 2.0, 2.0)
    cfg = SeriesConfig(max_degree=120, hard_cap=120)
    z = (SQ3, 0j, 0j)
    w = (-SQ3, 0j, 0j)
    off = series_kernel(d, z, w, cfg).value
    assert abs(off) < 1e-4
    diag = series_kernel(d, z, z, cfg).value
    assert diag.real > 0.1
    assert abs(diag.imag) < 1e-9 * diag.real


def test_series_diagonal_increments_are_positive():
    # at z = w every term of the monomial series is a square
    from bergman.oracle import _degree_increments

    d = diagonal_domain(2.0, 2.0)
    z = (0.4 + 0.2j, 0.1 - 0.3j)
    for _, inc in _degree_increments(d, z, z, 40):
        assert inc.real >= 0.0
        assert abs(inc.imag) <= 1e-15 * max(1.0, inc.real)


def test_series_rejects_points_of_the_wrong_length():
    d = diagonal_domain(2.0, 2.0)
    for z, w in (((0.1,), (0.1, 0.2)), ((0.1, 0.2), (0.1, 0.2, 0.3)),
                 ((0.1, 0.2, 0.3), (0.1, 0.2))):
        with pytest.raises(DimensionMismatch):
            series_kernel(d, z, w)


def test_series_rejects_vector_blocks():
    d = DomainSpec((Block(2, 1.0),))
    with pytest.raises(UnsupportedDomain):
        series_kernel(d, (0.1, 0.1), (0.1, 0.1))


def test_series_rejects_large_phi():
    d = diagonal_domain(2.0)
    with pytest.raises(PreconditionViolated):
        series_kernel(d, (0.8,), (0.1,))


def test_series_no_convergence_at_small_cap():
    d = diagonal_domain(2.0, 2.0)
    cfg = SeriesConfig(max_degree=12, hard_cap=12)
    z = (0.45, 0.24)  # phi 0.69, inside the precondition but slow to settle
    with pytest.raises(NoConvergence):
        series_kernel(d, z, z, cfg)
    assert series_kernel(d, z, z).value.real > 0.0


def test_series_config_validation():
    with pytest.raises(PreconditionViolated):
        SeriesConfig(stop_rel=0.0)
    with pytest.raises(PreconditionViolated):
        SeriesConfig(max_degree=300, hard_cap=200)


def test_series_deterministic():
    d = diagonal_domain(2.0, 2.0)
    z = (0.3 + 0.1j, 0.2j)
    w = (0.25, 0.1 - 0.2j)
    assert series_kernel(d, z, w).value == series_kernel(d, z, w).value


def series_reference(d, z, w, cfg=SeriesConfig()):
    """The monomial series term by term through log_monomial_norm_sq, with the
    stop rule of series_kernel: the bits any faster summation must keep."""
    n = d.total_dim
    v = [zj * complex(wj).conjugate() for zj, wj in zip(z, w)]
    active = [j for j in range(n) if v[j] != 0]
    logv = [cmath.log(v[j]) for j in active]
    acc, peak, quiet = 0j, 0.0, 0
    for deg in range(cfg.max_degree + 1):
        inc = 0j
        # lexicographic order, the order series_kernel enumerates them in; the
        # last active coordinate takes what the others leave of deg
        heads = itertools.product(range(deg + 1), repeat=max(len(active) - 1, 0))
        comps = [h + (deg - sum(h),) for h in heads if sum(h) <= deg] if active else [()]
        for comp in comps:
            alpha = [0] * n
            ex = 0j
            for slot, a in enumerate(comp):
                alpha[active[slot]] = a
                ex += a * logv[slot]
            inc += cmath.exp(ex - log_monomial_norm_sq(d, alpha))
        acc += inc
        if not active:
            return acc
        peak = max(peak, abs(acc))
        quiet = quiet + 1 if abs(inc) < cfg.stop_rel * peak else 0
        if quiet >= 2:
            return acc
    raise AssertionError("reference series did not settle")


@pytest.mark.parametrize("exps, z, w", [
    ((2.0,), (0.3 + 0.2j,), (0.1 - 0.4j,)),
    ((3.5,), (0.2j,), (0.25,)),
    ((2.0, 2.0), (0.3 + 0.1j, 0.2j), (0.25, 0.1 - 0.2j)),
    ((2.0, 4.7), (0.2 - 0.1j, 0.05j), (0.1j, 0.03 + 0.02j)),
    ((1.0, 2.0), (0.4, 0j), (0.3 - 0.1j, 0.2)),
    ((2.0, 2.0, 2.0), (0.1 + 0.05j, 0.05j, 0.01), (0.1, 0.03 - 0.02j, 0.01j)),
    ((3.0, 3.0, 1.7), (0.05, 0j, 0.1 + 0.1j), (0.04j, 0.2, 0.2)),
    ((1.0, 2.0, 2.5), (0j, 0j, 0j), (0.1, 0.2, 0.1)),
])
def test_series_bits_equal_term_by_term_reference(exps, z, w):
    d = diagonal_domain(*exps)
    assert series_kernel(d, z, w).value == series_reference(d, z, w)


def sweep_draws(count, seed):
    """Seeded (exps, z, w) over oracle-check's series shapes (2, p), (2, 2, p)
    and (3, 3, p).  A quarter repeat the leading exponent as p, so many terms
    share one Gamma argument; a fifth each put v_j = 0 on the first, a middle
    or the last coordinate, or take w = z."""
    rng = random.Random(seed)
    for i in range(count):
        lead = ((2.0,), (2.0, 2.0), (3.0, 3.0))[i % 3]
        exps = lead + (lead[0] if i % 4 == 0 else rng.uniform(1.5, 8.0),)
        n, kind = len(exps), i % 5
        pts = []
        for _ in "zw":
            # phi = sum of the shares r_j of a budget drawn in (0.05, 0.5)
            r = [rng.random() + 0.05 for _ in exps]
            budget = rng.uniform(0.05, 0.5) / sum(r)
            pts.append([(budget * rj) ** (p / 2.0) * cmath.exp(2j * math.pi * rng.random())
                        for rj, p in zip(r, exps)])
        z, w = pts
        if kind < 3:
            z[(0, n // 2, n - 1)[kind]] = 0j
        elif kind == 4:
            w = z
        yield exps, tuple(z), tuple(w)


def test_series_sweep_bits_equal_term_by_term_reference():
    draws = list(sweep_draws(200, seed=35))
    assert {len(exps) for exps, _, _ in draws} == {2, 3}
    for exps, z, w in draws:
        d = diagonal_domain(*exps)
        assert series_kernel(d, z, w).value == series_reference(d, z, w), (exps, z, w)


# ---------------------------------------------------------------- deflation


def test_deflation_identity_via_series():
    # both sides of the fiber-merge identity over the base |z1| < 1
    rng = np.random.default_rng(109)
    lhs, rhs, constant = deflation_pair(diagonal_domain(2.0), 2.0, 2.0)
    assert constant == math.pi ** 2 / 6
    for _ in range(20):
        a = 0.55 * rand_phase(rng) * rng.random()
        b = 0.55 * rand_phase(rng) * rng.random()
        left = lhs((a,), (b,))
        right = rhs((a,), (b,))
        assert abs(left - right) <= 1e-6 * abs(right)


def test_deflation_identity_origin_value():
    lhs, rhs, _ = deflation_pair(diagonal_domain(2.0), 2.0, 2.0)
    want = 15.0 / math.pi  # pi * K_{(2,4)}(0,0) = pi * 15/pi^2
    assert lhs((0j,), (0j,)) == pytest.approx(want, rel=1e-12)
    assert rhs((0j,), (0j,)) == pytest.approx(want, rel=1e-12)


# -------------------------------------------------------------- monte carlo


CATALOG = (
    diagonal_domain(1.0),
    DomainSpec((Block(2, 1.0),)),
    diagonal_domain(1.0, 2.0),
    diagonal_domain(2.0, 2.0),
    diagonal_domain(2.0, 4.0),
    diagonal_domain(2.0, 2.0, 2.0),
)


def test_mc_volume_matches_gamma_formula():
    for d in CATALOG:
        est, se = mc_volume(d, 100_000, seed=17)
        want = volume(d)
        assert abs(est - want) <= max(3.0 * se, 1e-12)


def test_mc_volume_disc_is_exact():
    # the disc fills its own bounding polydisc: every draw hits
    est, se = mc_volume(diagonal_domain(1.0), 50_000, seed=3)
    assert est == math.pi
    assert se == 0.0


def test_mc_volume_deterministic():
    d = diagonal_domain(2.0, 2.0)
    a = mc_volume(d, 70_000, seed=11)
    b = mc_volume(d, 70_000, seed=11)
    assert a == b
    c = mc_volume(d, 70_000, seed=12)
    assert c != a


def test_mc_volume_block_boundary_stability():
    # sample counts straddling the internal block size must all be honored
    d = diagonal_domain(2.0, 2.0)
    for n in (65_535, 65_536, 65_537):
        est, se = mc_volume(d, n, seed=7)
        assert se > 0.0
        assert abs(est - volume(d)) <= 4.0 * se


def test_mc_volume_rejects_tiny_sample_count():
    # samples must be an int (not a bool) of at least 1e4, for both estimators
    for samples in (100, 0, -5, math.nan, 15_000.0, True, "20000"):
        with pytest.raises(PreconditionViolated):
            mc_volume(diagonal_domain(1.0), samples, seed=1)
        with pytest.raises(PreconditionViolated):
            reproducing_check(diagonal_domain(1.0), disc_K, {(0,): 1.0}, (0.3,),
                              samples, seed=1)


# the four domain shapes of perfbench's oracle-check Monte Carlo volumes
MC_SHAPES = (
    lambda p: diagonal_domain(2.0, p),
    lambda p: diagonal_domain(1.0, 2.0, p),
    lambda p: DomainSpec((Block(2, 1.0), Block(1, p))),
    lambda p: DomainSpec((Block(1, p), Block(2, 2.0))),
)


def phi_rows(d, sq):
    """phi at each row of squared moduli, block by block."""
    out = np.zeros(sq.shape[0])
    col = 0
    for b in d.blocks:
        out += np.sum(sq[:, col:col + b.dim], axis=1) ** (1.0 / b.p)
        col += b.dim
    return out


def test_mc_phi_from_squared_radii_matches_complex_points():
    # a block of the sample stream is u = |z_j|^2, then the angles; phi from u
    # must give the mask of phi from the points sqrt(u) e^(i theta), with rows
    # within the 1e-12 guard band decided on the points
    worst = 0.0
    for shape, p in zip(MC_SHAPES, (1.5, 2.5, 3.0, 4.0)):
        d = shape(p)
        hits = 0
        for block in range(8):
            rng = _block_rng(31, block)
            u = rng.random((_MC_BLOCK, d.total_dim))
            theta = 2.0 * math.pi * rng.random(u.shape)
            pts = np.sqrt(u) * np.exp(1j * theta)
            phi_old = phi_rows(d, np.abs(pts) ** 2)
            phi_u = phi_rows(d, u)
            # the sampler's column sums are the bits of the slice sums here
            assert _phi_many(d, u).tobytes() == phi_u.tobytes()
            assert _phi_many(d, np.abs(pts) ** 2).tobytes() == phi_old.tobytes()
            worst = max(worst, float(np.max(np.abs(phi_u - phi_old))))
            guard = np.abs(phi_u - 1.0) < 1e-12
            assert np.array_equal(np.where(guard, phi_old < 1.0, phi_u < 1.0),
                                  phi_old < 1.0)
            hits += int(np.count_nonzero(phi_old < 1.0))
        samples = 8 * _MC_BLOCK
        assert mc_volume(d, samples, 31)[0] == math.pi ** d.total_dim * (hits / samples)
    assert worst <= 1e-14


# exact results of the complex-point sampler, recorded before phi was computed
# from squared radii
@pytest.mark.parametrize("shape, want", zip(MC_SHAPES, [
    (1.260348482019111, 0.01041665139520097),
    (0.7004317902079729, 0.014569549474891863),
    (1.9921532767092633, 0.024041751394045702),
    (0.6570230028555532, 0.01412096235586632),
]))
def test_mc_volume_pinned(shape, want):
    assert mc_volume(shape(2.5), 100_000, 23) == want


def test_mc_guard_band_over_every_draw_keeps_the_bits(monkeypatch):
    # an infinite band sends every inside test through the complex points
    import bergman.oracle

    monkeypatch.setattr(bergman.oracle, "_GUARD", math.inf)
    assert mc_volume(MC_SHAPES[2](2.5), 100_000, 23) == (
        1.9921532767092633, 0.024041751394045702)
    assert_reproducing_pinned()


# -------------------------------------------------------------- reproducing


def disc_K(z, pts):
    return ball_kernel_values(1, z[0] * np.conj(pts[:, 0]))


def k22_K(z, pts):
    return k2_values(z[0] * np.conj(pts[:, 0]), z[1] * np.conj(pts[:, 1]))


def k24_K(z, pts):
    return slice_kp_values(4.0, z[0] * np.conj(pts[:, 0]),
                           z[1] * np.conj(pts[:, 1]))


def test_reproducing_disc_constant():
    res = reproducing_check(diagonal_domain(1.0), disc_K, {(0,): 1.0},
                            (0.3,), 200_000, seed=5)
    assert isinstance(res, ReproducingResidual)
    assert res.expected == 1.0
    assert res.samples == 200_000
    assert float(res) <= max(3.0 * res.stderr, 5e-3)


def test_reproducing_slice22_linear():
    res = reproducing_check(diagonal_domain(2.0, 2.0), k22_K, {(1, 0): 1.0},
                            (0.2, 0.1), 200_000, seed=5)
    assert res.expected == pytest.approx(0.2)
    assert float(res) <= max(3.0 * res.stderr, 5e-3)


def test_reproducing_slice24_bilinear():
    # phi(z) <= 0.5 pins the test point: (0.2, 0.05) gives phi ~ 0.42
    res = reproducing_check(diagonal_domain(2.0, 4.0), k24_K, {(1, 1): 1.0},
                            (0.2, 0.05), 200_000, seed=5)
    assert res.expected == pytest.approx(0.01)
    assert float(res) <= max(3.0 * res.stderr, 5e-3)


def test_reproducing_rejects_large_phi():
    with pytest.raises(PreconditionViolated):
        reproducing_check(diagonal_domain(2.0, 2.0), k22_K, {(0, 0): 1.0},
                          (0.5, 0.3), 20_000, seed=1)


def test_reproducing_deterministic():
    a = reproducing_check(diagonal_domain(1.0), disc_K, {(0,): 1.0},
                          (0.25,), 50_000, seed=9)
    b = reproducing_check(diagonal_domain(1.0), disc_K, {(0,): 1.0},
                          (0.25,), 50_000, seed=9)
    assert a.estimate == b.estimate
    assert a.stderr == b.stderr


def assert_reproducing_pinned():
    # exact results of the complex-point sampler, recorded before phi was
    # computed from squared radii
    res = reproducing_check(diagonal_domain(2.0, 2.0), k22_K,
                            {(1, 0): 1.0, (0, 1): 0.5j}, (0.2, 0.1j), 100_000, seed=29)
    assert res.estimate == 0.14660176962763066 - 0.0007711908428539758j
    assert res.stderr == 0.004485024761843107
    res = reproducing_check(diagonal_domain(2.0, 4.0), k24_K, {(1, 1): 1.0},
                            (0.2, 0.05), 100_000, seed=29)
    assert res.estimate == 0.011591302236109512 + 0.001671959714717705j
    assert res.stderr == 0.0013101492602485567


def test_reproducing_pinned():
    assert_reproducing_pinned()


@pytest.mark.parametrize("d, K, h, z, want", [
    (diagonal_domain(2.0, 2.0), k22_K, {(1, 0): 1.0, (0, 2): 0.3 - 0.2j},
     (0.15 + 0.1j, 0.2j),
     (0.004202020789072852, 0.13472554565922165 + 0.11063342504771988j,
      0.003084393818527225)),
    (diagonal_domain(2.0, 3.3), lambda z, pts: slice_kp_values(
        3.3, z[0] * np.conj(pts[:, 0]), z[1] * np.conj(pts[:, 1])),
     {(0, 0): 1.0, (1, 1): 0.5j}, (0.1, 0.1 - 0.05j),
     (0.0027553438241797066, 0.9998574275636645 + 0.004219788164557069j,
      0.007864989641465451)),
])
def test_reproducing_pinned_over_a_partial_last_block(d, K, h, z, want):
    # 200,000 draws: three full blocks and a partial one, as oracle-check runs
    # them; recorded when every inside row was rechecked on its complex point
    res = reproducing_check(d, K, h, z, 200_000, seed=35)
    assert (float(res), res.estimate, res.stderr) == want


def test_reproducing_rechecks_only_guard_band_rows(monkeypatch):
    # with no draw within the guard band of phi = 1, phi runs once per block,
    # on the squared radii, and never on complex points
    import bergman.oracle

    d = diagonal_domain(2.0, 2.0)
    for block in range(4):
        u = _block_rng(35, block).random((_MC_BLOCK, 2))
        assert not np.any(np.abs(_phi_many(d, u) - 1.0) < bergman.oracle._GUARD)
    calls = []

    def counting(dom, sq):
        calls.append(sq.shape[0])
        return _phi_many(dom, sq)

    monkeypatch.setattr(bergman.oracle, "_phi_many", counting)
    reproducing_check(d, k22_K, {(1, 0): 1.0}, (0.15 + 0.1j, 0.2j), 200_000, seed=35)
    assert calls == [_MC_BLOCK] * 3 + [200_000 - 3 * _MC_BLOCK]


def test_reproducing_stderr_scales_with_samples():
    small = reproducing_check(diagonal_domain(1.0), disc_K, {(0,): 1.0},
                              (0.3,), 100_000, seed=5)
    big = reproducing_check(diagonal_domain(1.0), disc_K, {(0,): 1.0},
                            (0.3,), 1_000_000, seed=5)
    ratio = small.stderr / big.stderr
    assert math.sqrt(10.0) / 2.0 <= ratio <= math.sqrt(10.0) * 2.0


# -------------------------------------------------------------------- misc


def test_poly_eval_matches_hand_expansion():
    pts = np.array([[0.2 + 0.1j, -0.3j], [0.0, 0.5]])
    h = {(0, 0): 1.0, (1, 2): 2.0j}
    got = poly_eval(h, pts)
    for i in range(2):
        w1, w2 = pts[i]
        want = 1.0 + 2.0j * w1 * w2 ** 2
        assert abs(got[i] - want) <= 1e-14


def test_ball_values_against_series_free_formula():
    rng = np.random.default_rng(127)
    t = np.array([0.5 * rand_phase(rng) * rng.random() for _ in range(30)])
    got = ball_kernel_values(3, t)
    want = 6.0 / math.pi ** 3 / (1.0 - t) ** 4
    assert np.allclose(got, want, rtol=1e-12)
