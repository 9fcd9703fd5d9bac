import cmath
import math

import numpy as np
import pytest

from bergman.domains import Block, DomainSpec, diagonal_domain, phi, volume
from bergman.errors import (
    NoConvergence,
    PreconditionViolated,
    UnsupportedDomain,
)
from bergman.kernels import (
    ball_kernel_values,
    deflation_pair,
    disc_kernel_values,
    k2_closed_form,
    k2_values,
    slice_kernel_kp,
    slice_kp_values,
)
from bergman.oracle import (
    ReproducingResidual,
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
    with pytest.raises(PreconditionViolated):
        mc_volume(diagonal_domain(1.0), 100, seed=1)


# -------------------------------------------------------------- reproducing


def disc_K(z, pts):
    return disc_kernel_values(z[0] * np.conj(pts[:, 0]))


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
