import cmath
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergman import kernels as kernels_module
from bergman.domains import Block, DomainSpec, diagonal_domain
from bergman.errors import (
    DimensionMismatch,
    InvalidOrder,
    NonIntegerFold,
    OutsideDomain,
    PoleHit,
    UnsupportedDomain,
)
from bergman.jets import Jet1, jet1_const, jet1_variable
from bergman.kernels import (
    EPS_SWITCH,
    KernelPoint,
    _odd_quotient,
    axis_limit_kernel,
    ball_kernel,
    ball_kernel_values,
    deflation_constant,
    disc_profile,
    evaluate,
    fold,
    general_folded_kernel,
    hartogs2_kernel,
    hartogs_profile,
    inflate,
    k2_closed_form,
    k2_values,
    mixed_family_kernel,
    pairing,
    pflate_kernel,
    simplex_restriction_constant,
    slice_kernel_kp,
    slice_kp_values,
)
from bergman.oracle import series_kernel

from _oracles import jet_fpp, simplex_restricted_kernel

SQ3 = 1.0 / math.sqrt(3.0)


def rand_disc(rng, scale=0.95):
    r = scale * math.sqrt(rng.random())
    return r * cmath.exp(2j * math.pi * rng.random())


def rand_ball(rng, m, scale=0.9):
    v = rng.normal(size=2 * m).view(np.complex128)
    v *= scale * rng.random() ** (1.0 / (2 * m)) / np.linalg.norm(v)
    return tuple(complex(c) for c in v)


def rand_slice_pair(rng, p=2.0, budget=0.94):
    # admissible pairing pair for the slice kernels: sqrt|x| + |y|^(1/p) < 1
    while True:
        x = rand_disc(rng)
        y = rand_disc(rng)
        if math.sqrt(abs(x)) + abs(y) ** (1.0 / p) < budget:
            return x, y


# ---------------------------------------------------------------- profiles


def test_disc_profile_origin():
    val = disc_profile().eval((), (), jet1_const(0.0, 0))
    assert val.coeffs[0] == pytest.approx(1.0 / math.pi)


def test_disc_profile_matches_closed_form():
    rng = np.random.default_rng(7)
    L = disc_profile()
    for _ in range(20):
        t = rand_disc(rng)
        got = L.eval((), (), jet1_const(t, 0)).coeffs[0]
        want = 1.0 / (math.pi * (1.0 - t) ** 2)
        assert abs(got - want) <= 1e-13 * abs(want)


def test_hartogs_profile_matches_pointwise_kernel():
    rng = np.random.default_rng(11)
    for p in (2.0, 3.0, 4.5):
        L = hartogs_profile(p)
        fiber = 0.6 ** (p / 2.0)  # keeps |zeta|^(2/p) <= 0.6 against |z|^2 <= 0.36
        for _ in range(20):
            z, w = 0.6 * rand_disc(rng), 0.6 * rand_disc(rng)
            zeta, eta = fiber * rand_disc(rng), fiber * rand_disc(rng)
            got = L.eval((z,), (w,), jet1_const(zeta * eta.conjugate(), 0)).coeffs[0]
            want = hartogs2_kernel(p, z, zeta, w, eta).value
            assert abs(got - want) <= 1e-12 * abs(want)


# ------------------------------------------------------------------ folding


def test_fold_disc_is_identity():
    # |zeta^p|^(2/p) < 1 is the disc again, so folding must reproduce it
    rng = np.random.default_rng(23)
    L = disc_profile()
    for p in (2, 3, 5):
        F = fold(L, p)
        for _ in range(20):
            t = rand_disc(rng)
            got = F.eval((), (), jet1_const(t, 0)).coeffs[0]
            want = 1.0 / (math.pi * (1.0 - t) ** 2)
            assert abs(got - want) <= 1e-10 * abs(want)


def test_fold_small_argument_branch():
    L = disc_profile()
    for p in (2, 3, 5):
        F = fold(L, p)
        for mag in (1e-12, 1e-8, 1e-4, 3e-3, 9e-3):
            t = mag * cmath.exp(0.7j)
            got = F.eval((), (), jet1_const(t, 0)).coeffs[0]
            want = 1.0 / (math.pi * (1.0 - t) ** 2)
            assert abs(got - want) <= 1e-11 * abs(want)


def test_fold_branch_seam_is_continuous():
    L = disc_profile()
    F = fold(L, 3)
    for mag in (1.0000001e-2, 0.9999999e-2):
        t = mag * cmath.exp(1.3j)
        got = F.eval((), (), jet1_const(t, 0)).coeffs[0]
        want = 1.0 / (math.pi * (1.0 - t) ** 2)
        assert abs(got - want) <= 1e-10 * abs(want)


def test_fold_one_returns_same_profile():
    L = disc_profile()
    assert fold(L, 1) is L


def test_fold_hartogs_base_matches_direct_profile():
    # folding the p=1 fiber profile k times must equal the p=k profile
    rng = np.random.default_rng(29)
    for p in (2, 3):
        F = fold(hartogs_profile(1.0), p)
        D = hartogs_profile(float(p))
        for _ in range(10):
            z, w = 0.5 * rand_disc(rng), 0.5 * rand_disc(rng)
            t0 = 0.4 * rand_disc(rng)
            a = F.eval((z,), (w,), jet1_variable(t0, 2))
            b = D.eval((z,), (w,), jet1_variable(t0, 2))
            for ca, cb in zip(a.coeffs, b.coeffs):
                assert abs(ca - cb) <= 1e-9 * max(1.0, abs(cb))


def test_fold_rejects_non_integer_exponent():
    L = disc_profile()
    for bad in (2.5, 0, -1, True, 2.0 + 0j):
        with pytest.raises(NonIntegerFold):
            fold(L, bad)


def test_fold_accepts_integral_float():
    F = fold(disc_profile(), 2.0)
    got = F.eval((), (), jet1_const(0.3 + 0.1j, 0)).coeffs[0]
    want = 1.0 / (math.pi * (1.0 - (0.3 + 0.1j)) ** 2)
    assert abs(got - want) <= 1e-12 * abs(want)


# ---------------------------------------------------------------- inflation


def test_inflate_identity_at_m_one():
    rng = np.random.default_rng(31)
    ev = inflate(disc_profile(), 1)
    for _ in range(10):
        Z, W = (rand_disc(rng),), (rand_disc(rng),)
        t = pairing(Z, W)
        want = 1.0 / (math.pi * (1.0 - t) ** 2)
        assert abs(ev((), Z, (), W).value - want) <= 1e-13 * abs(want)


def test_ball_kernel_closed_form():
    rng = np.random.default_rng(37)
    for m in (1, 2, 3, 4):
        for _ in range(20):
            Z, W = rand_ball(rng, m), rand_ball(rng, m)
            got = ball_kernel(m, Z, W).value
            want = math.factorial(m) / math.pi ** m \
                / (1.0 - pairing(Z, W)) ** (m + 1)
            assert abs(got - want) <= 1e-12 * abs(want)


def test_ball_kernel_is_ball_kernel_values():
    # one formula: the scalar route returns the vectorized one's bits, and both
    # agree with a 50-digit evaluation of m!/pi^m (1 - <Z,W>)^-(m+1)
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(41)
    for m in (1, 2, 3, 4, 5):
        for _ in range(10):
            Z, W = rand_ball(rng, m), rand_ball(rng, m)
            got = ball_kernel(m, Z, W).value
            want = ball_kernel_values(m, pairing(Z, W))
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())
            with mp.workdps(50):
                t = mp.fsum(mp.mpc(a) * mp.conj(mp.mpc(b)) for a, b in zip(Z, W))
                exact = mp.factorial(m) / mp.pi ** m * (1 - t) ** -(m + 1)
                assert abs(got - exact) <= 1e-15 * abs(exact)


def test_ball_kernel_rejects_outside_points():
    with pytest.raises(OutsideDomain):
        ball_kernel(2, (0.8, 0.7), (0.1, 0.0))
    with pytest.raises(OutsideDomain):
        ball_kernel(1, (0.2,), (1.0,))


def test_inflate_rejects_bad_dimension():
    with pytest.raises(InvalidOrder):
        inflate(disc_profile(), 0)


def test_inflated_hartogs_matches_pflate():
    # inflating the scalar-fiber profile must agree with the two-block formula
    rng = np.random.default_rng(41)
    for p, m in ((2.0, 2), (3.0, 2), (2.0, 3)):
        ev = inflate(hartogs_profile(p), m)
        for _ in range(10):
            z, w = 0.5 * rand_disc(rng), 0.5 * rand_disc(rng)
            Z = tuple(0.4 * rand_disc(rng) for _ in range(m))
            W = tuple(0.4 * rand_disc(rng) for _ in range(m))
            got = ev((z,), Z, (w,), W).value
            want = pflate_kernel(1, m, p, (z,), Z, (w,), W).value
            assert abs(got - want) <= 1e-12 * abs(want)


def test_pflate_reduces_to_hartogs2():
    rng = np.random.default_rng(43)
    for p in (2.0, 3.0):
        for _ in range(10):
            z, w = 0.5 * rand_disc(rng), 0.5 * rand_disc(rng)
            zeta, eta = 0.4 * rand_disc(rng), 0.4 * rand_disc(rng)
            got = pflate_kernel(1, 1, p, (z,), (zeta,), (w,), (eta,)).value
            want = hartogs2_kernel(p, z, zeta, w, eta).value
            assert abs(got - want) <= 1e-12 * abs(want)


def test_pflate_rejects_outside_points():
    # phi = 0.81 + 0.81^(1/2) > 1 in the first point, then in the second
    for z, w in (((0.9, 0.9), (0.1, 0.1)), ((0.1, 0.1), (0.9, 0.9))):
        with pytest.raises(OutsideDomain):
            pflate_kernel(1, 1, 2.0, z[:1], z[1:], w[:1], w[1:])


def test_pflate_rejects_zero_dimensions():
    with pytest.raises(InvalidOrder):
        pflate_kernel(0, 1, 2.0, (), (0.1,), (), (0.1,))
    with pytest.raises(InvalidOrder):
        pflate_kernel(1, 0, 2.0, (0.1,), (), (0.1,), ())


def test_pflate_rejects_blocks_of_the_wrong_size():
    # each block of each point has its own length; a right total is not enough
    z, zz = (0.1,), (0.2, 0.1)
    with pytest.raises(DimensionMismatch, match="n = 2, m = 1"):
        pflate_kernel(2, 1, 3.0, z, zz, z, zz[::-1])
    with pytest.raises(DimensionMismatch):
        pflate_kernel(2, 1, 3.0, zz, z, z, zz)
    with pytest.raises(DimensionMismatch):
        pflate_kernel(2, 1, 3.0, zz, z, zz, (0.1, 0.2, 0.0))
    assert pflate_kernel(2, 1, 3.0, zz, z, zz[::-1], z).formula == "pflate"


# --------------------------------------------------------------- deflation


def test_deflation_constant_exact_at_2_2():
    assert deflation_constant(2.0, 2.0) == math.pi ** 2 / 6


def test_deflation_constant_small_integers():
    assert deflation_constant(1.0, 1.0) == pytest.approx(math.pi ** 2 / 2, rel=1e-15)
    assert deflation_constant(2.0, 3.0) == pytest.approx(math.pi ** 2 / 10, rel=1e-15)
    assert deflation_constant(1.0, 2.0) == pytest.approx(math.pi ** 2 / 3, rel=1e-15)


# ------------------------------------------------------------ slice kernels


def test_slice_origin_values():
    for p in (1.0, 2.0, 3.0, 4.0, 10.0):
        want = (p + 1.0) * (p + 2.0) / (2.0 * math.pi ** 2)
        assert slice_kernel_kp(p, 0j, 0j).value == pytest.approx(want, rel=1e-13)


def test_slice_matches_k2_on_grid():
    # 40x40 admissible grid in the two real pairings
    n = 0
    for a in np.linspace(-0.9, 0.9, 40):
        for b in np.linspace(-0.9, 0.9, 40):
            if math.sqrt(abs(a)) + math.sqrt(abs(b)) >= 0.98:
                continue
            got = slice_kernel_kp(2.0, complex(a), complex(b)).value
            want = k2_closed_form(complex(a), complex(b)).value
            assert abs(got - want) <= 1e-10 * max(1e-30, abs(want))
            n += 1
    assert n > 250


def test_slice_matches_k2_complex_points():
    rng = np.random.default_rng(47)
    for _ in range(40):
        x, y = rand_slice_pair(rng)
        got = slice_kernel_kp(2.0, x, y).value
        want = k2_closed_form(x, y).value
        assert abs(got - want) <= 1e-10 * abs(want)


def test_slice_axis_limit_linear_approach():
    # K_p(x, y) - K_p(0, y) = O(x): the gap at |x| = 1e-6 is slope-limited
    # (log-slope up to ~96 over this (p, y) set), and shrinks linearly with x
    for p in (2.0, 3.0, 4.0):
        for theta in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False):
            for y in (0j, 0.3 + 0j, -0.5 + 0j):
                want = axis_limit_kernel(p, y)
                near = slice_kernel_kp(p, 1e-6 * cmath.exp(1j * theta), y).value
                deep = slice_kernel_kp(p, 1e-12 * cmath.exp(1j * theta), y).value
                assert abs(near - want) <= 1.2e-4 * abs(want)
                assert abs(deep - want) <= 1e-9 * abs(want)


def test_axis_limit_on_axis_continuation():
    # value of the x -> 0 rational limit continued to y = -1
    for p in (2.0, 3.0, 4.0):
        got = axis_limit_kernel(p, -1.0 + 0j)
        want = -(p * p - 4.0) / (16.0 * math.pi ** 2)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_slice_small_root_branch_seam():
    # just below vs just above the series/direct switch on the root variable
    for p in (2.0, 3.0):
        for y in (0.1 + 0.05j, -0.2 + 0j):
            lo = slice_kernel_kp(p, (0.999e-3) ** 2 + 0j, y)
            hi = slice_kernel_kp(p, (1.001e-3) ** 2 + 0j, y)
            assert lo.near_singular_limit
            assert not hi.near_singular_limit
            assert abs(lo.value - hi.value) <= 1e-7 * abs(hi.value)


def test_slice_rejects_outside_pairings():
    with pytest.raises(OutsideDomain):
        slice_kernel_kp(2.0, 0.6 + 0j, 0.5 + 0j)


def test_slice_raises_overflow_where_the_power_underflows():
    # (1 - xi)^p = 0.5^1e5 is 0 in a double, so D = 0 at an interior point
    with pytest.raises(OverflowError, match="underflows"):
        slice_kernel_kp(1e5, 0.25 + 0j, 0j)


@pytest.mark.parametrize("p, r, y", [
    (35.0, 0.999, 0j), (40.0, 0.999, 0j), (40.0, 0.999, 1e-125j),
    (110.0, 0.9, 0j), (110.0, 0.9, -1e-115 + 0j)])
def test_slice_large_p_near_the_boundary(p, r, y):
    # (1 - xi)^(3p) lies below the smallest double at these points; K does not
    x = complex(r * r)
    xi = cmath.sqrt(x)
    want = (jet_fpp(p, xi, y) - jet_fpp(p, -xi, y)) / (4.0 * p * math.pi ** 2 * xi)
    assert abs(slice_kernel_kp(p, x, y).value - want) <= 1e-12 * abs(want)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (got,) = slice_kp_values(p, np.array([x]), np.array([y]))
    assert abs(got - want) <= 1e-12 * abs(want)
    if y == 0:
        got = evaluate(diagonal_domain(2.0, p), (r, 0j), (r, 0j)).value
        assert abs(got - want) <= 1e-12 * abs(want)


def test_k2_boundary_zero_is_exact():
    assert k2_closed_form(-1.0, 0.0).value == 0.0


def test_k2_pole_is_reported():
    # (1-x-y)^2 = 4xy at x = y = 1/4, a boundary point of the closed region
    with pytest.raises(PoleHit):
        k2_closed_form(0.25, 0.25)


# ----------------------------------------------------------- folded kernels


def slice_point(rng, p=2.0, budget=0.94):
    # realize pairings (x, y) with concrete coordinates of equal modulus split:
    # |z_k| = |w_k| = sqrt of the pairing modulus, so admissibility of (x, y)
    # is exactly membership of both points; random phases keep z, w independent
    x, y = rand_slice_pair(rng, p, budget)
    xi, eta = cmath.sqrt(x), cmath.sqrt(y)
    ph1 = cmath.exp(2j * math.pi * rng.random())
    ph2 = cmath.exp(2j * math.pi * rng.random())
    z = (xi * ph1, eta * ph2)
    w = ((xi / ph1).conjugate(), (eta / ph2).conjugate())
    return KernelPoint(z=z, w=w), x, y


def test_general_fold_matches_slice_kernel():
    rng = np.random.default_rng(53)
    for p in (2.0, 3.0):
        for _ in range(20):
            pt, x, y = slice_point(rng, p)
            got = general_folded_kernel((2,), p, pt).value
            want = slice_kernel_kp(p, x, y).value
            assert abs(got - want) <= 1e-10 * abs(want)


def test_general_fold_root_choice_invariance():
    rng = np.random.default_rng(59)
    for _ in range(10):
        z = tuple(0.25 * rand_disc(rng) for _ in range(3))
        w = tuple(0.25 * rand_disc(rng) for _ in range(3))
        pt = KernelPoint(z=z, w=w)
        base = general_folded_kernel((2, 2), 2.0, pt)
        alt = general_folded_kernel((2, 2), 2.0, pt, root_choice=(1, 1))
        assert abs(base.value - alt.value) <= 1e-10 * abs(base.value)


def test_general_fold_hermitian_symmetry():
    rng = np.random.default_rng(61)
    for _ in range(10):
        pt, _, _ = slice_point(rng, 3.0)
        fwd = general_folded_kernel((2,), 3.0, pt).value
        rev = general_folded_kernel((2,), 3.0, KernelPoint(z=pt.w, w=pt.z)).value
        assert abs(fwd - rev.conjugate()) <= 1e-10 * abs(fwd)


def test_general_fold_diagonal_is_positive():
    rng = np.random.default_rng(67)
    for _ in range(10):
        pt, _, _ = slice_point(rng)
        val = general_folded_kernel((2,), 2.0, KernelPoint(z=pt.z, w=pt.z)).value
        assert abs(val.imag) <= 1e-10 * val.real
        assert val.real > 0.0


def test_simplex_c3_kernel_zero():
    pt = KernelPoint(z=(SQ3, 0j, 0j), w=(-SQ3, 0j, 0j))
    val = general_folded_kernel((2, 2), 2.0, pt).value
    assert abs(val) < 1e-12
    diag = general_folded_kernel((2, 2), 2.0, KernelPoint(
        z=(SQ3, 0j, 0j), w=(SQ3, 0j, 0j))).value
    assert diag.real > 0.1


def test_simplex_origin_value():
    pt = KernelPoint(z=(0j, 0j, 0j), w=(0j, 0j, 0j))
    got = general_folded_kernel((2, 2), 2.0, pt).value
    assert got == pytest.approx(90.0 / math.pi ** 3, rel=1e-12)


def test_general_fold_rejects_outside_point():
    with pytest.raises(OutsideDomain):
        general_folded_kernel((2,), 2.0, KernelPoint(z=(0.9, 0.9), w=(0j, 0j)))


def test_general_fold_rejects_the_wrong_number_of_coordinates():
    for z in ((0.1,), (0.1, 0.1, 0.1)):
        with pytest.raises(OutsideDomain, match="expected 2"):
            general_folded_kernel((2,), 2.0, KernelPoint(z=z, w=z))


def test_kernel_point_length_mismatch():
    with pytest.raises(OutsideDomain):
        KernelPoint(z=(0.1,), w=(0.1, 0.2))


# ----------------------------------------------------- simplex restriction


def test_simplex_restriction_constant_c3():
    assert simplex_restriction_constant(3) == pytest.approx(6.0 / math.pi, rel=1e-14)


def test_simplex_restriction_constant_c4():
    assert simplex_restriction_constant(4) == pytest.approx(
        90.0 / math.pi ** 2, rel=1e-13)


def test_simplex_restricted_origin():
    assert simplex_restricted_kernel(3, 0j).value == pytest.approx(
        90.0 / math.pi ** 3, rel=1e-12)


def test_simplex_restricted_matches_general_fold():
    rng = np.random.default_rng(71)
    for _ in range(20):
        a, b = 0.85 * rand_disc(rng), 0.85 * rand_disc(rng)
        x = a * b.conjugate()
        got = simplex_restricted_kernel(3, x).value
        want = general_folded_kernel((2, 2), 2.0, KernelPoint(
            z=(a, 0j, 0j), w=(b, 0j, 0j))).value
        assert abs(got - want) <= 1e-10 * abs(want)


def test_simplex_restricted_zero_location():
    val = simplex_restricted_kernel(3, -1.0 / 3.0 + 0j).value
    assert abs(val) < 1e-12


# ------------------------------------------------------------ mixed family


def test_mixed_family_origin():
    for n in (2, 3, 4, 5):
        got = mixed_family_kernel(n, (0j,) * n, (0j,) * n).value
        want = math.factorial(n + 1) / (2.0 * math.pi ** n)
        assert got == pytest.approx(want, rel=1e-13)


def test_mixed_family_zero_at_n4():
    v = 1j * math.tan(math.pi / 5.0)
    z = (v / 0.9, 0j, 0j, 0j)
    w = (0.9, 0j, 0j, 0j)
    assert abs(mixed_family_kernel(4, z, w).value) < 1e-12


def test_mixed_family_hermitian():
    rng = np.random.default_rng(73)
    for n in (2, 3):
        for _ in range(10):
            z = rand_ball(rng, n, scale=0.8)
            w = rand_ball(rng, n, scale=0.8)
            fwd = mixed_family_kernel(n, z, w).value
            rev = mixed_family_kernel(n, w, z).value
            assert abs(fwd - rev.conjugate()) <= 1e-11 * abs(fwd)


@pytest.mark.parametrize("a, m, scale", [(1.0, 10.0, 0.37), (1.0, 5.5, 1.3), (0.7, 4.0, 2.0)])
def test_odd_quotient_array_matches_its_scalar_entries(a, m, scale):
    # entries on both sides of EPS_SWITCH, within ulps of it, and 0: each keeps
    # the bits the scalar path gives it (fed numpy's scalar, since a Python
    # complex power or quotient rounds apart from numpy's in the direct form)
    rng = np.random.default_rng(31)
    r = np.concatenate([rng.uniform(0.0, 2.0 * EPS_SWITCH, 600),
                        EPS_SWITCH * (1.0 + rng.integers(-6, 7, 199) * 2.0 ** -53), [0.0]])
    t = (r * np.exp(2j * np.pi * rng.random(r.size))).reshape(20, 40)
    small = np.abs(t) < EPS_SWITCH
    assert small.any() and not small.all()
    got = _odd_quotient(a, m, scale, t)
    want = np.array([_odd_quotient(a, m, scale, x) for x in t.ravel()]).reshape(t.shape)
    assert got.tobytes() == want.tobytes()


def test_mixed_family_rejects_outside_ball():
    with pytest.raises(OutsideDomain):
        mixed_family_kernel(3, (0.8, 0.7, 0.0), (0j, 0j, 0j))


def test_mixed_family_rejects_dimension_below_two():
    with pytest.raises(InvalidOrder):
        mixed_family_kernel(1, (0.1,), (0.1,))


NAN = float("nan")


@pytest.mark.parametrize("call", [
    lambda: ball_kernel(2, (NAN, 0.0), (0.1, 0.0)),
    lambda: mixed_family_kernel(3, (0.1, NAN, 0.0), (0.1, 0.0, 0.0)),
    lambda: k2_closed_form(complex(NAN, 0.0), 0.1),
    lambda: slice_kernel_kp(3.0, 0.1, complex(0.0, NAN)),
    lambda: slice_kernel_kp(3.0, NAN, 0.1),
], ids=["ball", "mixed", "k2", "slice_kp-y", "slice_kp-x"])
def test_closed_forms_refuse_nan(call):
    with pytest.raises(OutsideDomain):
        call()


# (id, closed-form call, whether it takes the small-argument branch)
CLOSED_FORMS = [
    ("ball", lambda: ball_kernel(2, (0.1, 0.2), (0.2j, 0.1)), False),
    ("k2", lambda: k2_closed_form(0.1 + 0.2j, -0.05), False),
    ("slice_kp", lambda: slice_kernel_kp(3.5, 0.1 + 0.2j, -0.05), False),
    ("slice_kp-limit", lambda: slice_kernel_kp(3.5, 1e-8j, -0.05), True),
    ("mixed", lambda: mixed_family_kernel(4, (0.3, 0.2j, 0.1, 0.2),
                                          (0.2j, 0.1, 0.3, -0.1)), False),
    ("mixed-limit", lambda: mixed_family_kernel(4, (1e-4, 0.2j, 0.1, 0.2),
                                                (2e-4j, 0.1, 0.3, -0.1)), True),
    ("hartogs2", lambda: hartogs2_kernel(3.5, 0.3, 0.2j, 0.1j, 0.25), False),
    ("fold", lambda: general_folded_kernel(
        [2, 2], 2.5, KernelPoint((0.2, 0.3j, 0.1), (0.1j, 0.2, 0.3))), False),
    ("fold-series", lambda: general_folded_kernel(
        [2, 2], 2.5, KernelPoint((0.2, 1e-4, 0.1), (0.1j, 1e-4j, 0.3))), True),
] + [(f"pflate-{n}-{m}", lambda n=n, m=m: pflate_kernel(
    n, m, 2.5, (0.2,) * n, (0.1j,) * m, (0.1j,) * n, (0.2,) * m), False)
     for n in (1, 2, 3) for m in (1, 2, 3)]


@pytest.mark.parametrize("call,limit", [row[1:] for row in CLOSED_FORMS],
                         ids=[row[0] for row in CLOSED_FORMS])
def test_closed_forms_build_no_jet_objects(call, limit, monkeypatch):
    # only the profile operators (disc, hartogs, fold, inflate) build Jet1s;
    # every closed form reads its jet off coefficient lists
    built = []
    init = Jet1.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Jet1, "__init__", counting_init)
    kv = call()
    assert kv.near_singular_limit == limit and math.isfinite(abs(kv.value))
    assert not built
    assert inflate(disc_profile(), 2)((), (0.1, 0.2), (), (0.2j, 0.1)) and built  # it counts


# -------------------------------------------------------------- vectorized


def test_disc_values_vectorized():
    rng = np.random.default_rng(79)
    t = np.array([rand_disc(rng) for _ in range(50)])
    got = ball_kernel_values(1, t)
    for i in range(len(t)):
        want = 1.0 / (math.pi * (1.0 - t[i]) ** 2)
        assert abs(got[i] - want) <= 1e-13 * abs(want)


def test_ball_values_vectorized():
    rng = np.random.default_rng(83)
    for m in (2, 3):
        Z = [rand_ball(rng, m) for _ in range(20)]
        W = [rand_ball(rng, m) for _ in range(20)]
        t = np.array([pairing(a, b) for a, b in zip(Z, W)])
        got = ball_kernel_values(m, t)
        for i in range(20):
            want = ball_kernel(m, Z[i], W[i]).value
            assert abs(got[i] - want) <= 1e-12 * abs(want)


def test_k2_values_vectorized():
    rng = np.random.default_rng(89)
    xs, ys = [], []
    for _ in range(60):
        x, y = rand_slice_pair(rng)
        xs.append(x)
        ys.append(y)
    got = k2_values(np.array(xs), np.array(ys))
    for i in range(60):
        want = k2_closed_form(xs[i], ys[i]).value
        assert abs(got[i] - want) <= 1e-12 * abs(want)


def test_slice_values_vectorized_includes_small_roots():
    rng = np.random.default_rng(97)
    # |x| <= 0.3 keeps sqrt|x| + |y|^(1/3) < 0.93 for the fixed y below
    xs = [rand_disc(rng, 0.3) for _ in range(20)] + [1e-8 + 0j, 0j]
    ys = [0.05 + 0.02j] * 22
    for p in (1.5, 2.0, 3.0):
        # below p = 2 the direct formula's (1 - xi)^(p - 2) is 0^(negative)
        # at xi = 1, so no small root may pass through it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = slice_kp_values(p, np.array(xs), np.array(ys))
        for i, (x, y) in enumerate(zip(xs, ys)):
            want = slice_kernel_kp(p, x, y).value
            assert abs(got[i] - want) <= 1e-10 * max(1e-30, abs(want))


def test_slice_values_take_the_scalar_branch_at_the_switch(monkeypatch):
    # within ulps of |xi| = EPS_SWITCH numpy's whole-array sqrt and abs round
    # apart from the scalar ones on some entries; each entry takes the branch
    # slice_kernel_kp takes, and a limit entry is its value, bit for bit
    rng = np.random.default_rng(32)
    r = EPS_SWITCH * (1.0 + rng.integers(-4, 5, 8000) * 2.0 ** -53)
    x = ((r * np.exp(2j * np.pi * rng.random(r.size))) ** 2).reshape(40, 200)
    y = np.full(x.shape, 0.1 + 0.05j)
    limit = np.array([abs(cmath.sqrt(v)) < EPS_SWITCH for v in x.flat]).reshape(x.shape)
    assert (limit != (np.abs(np.sqrt(x)) < EPS_SWITCH)).sum() > 50
    scalar, seen = slice_kernel_kp, []

    def recording(p, xs, ys):
        seen.append(xs)
        return scalar(p, xs, ys)

    monkeypatch.setattr(kernels_module, "slice_kernel_kp", recording)
    got = slice_kp_values(2.5, x, y)
    assert sorted(seen, key=lambda c: (c.real, c.imag)) == sorted(
        (complex(v) for v in x[limit]), key=lambda c: (c.real, c.imag))
    want = [scalar(2.5, complex(v), 0.1 + 0.05j) for v in x[limit]]
    assert all(kv.near_singular_limit for kv in want)
    assert got[limit].tobytes() == np.array([kv.value for kv in want]).tobytes()


# ---------------------------------------------------------------- evaluate

# (domain, z, w, route tag, the route's own evaluator at (z, w))
ROUTES = [
    (DomainSpec((Block(2, 1.0),)), (0.1 + 0.2j, 0.3), (0.2, -0.1j), "ball",
     lambda z, w: ball_kernel(2, z, w)),
    (DomainSpec((Block(1, 2.0), Block(2, 1.0))), (0.3, 0.2, 0.1j), (0.2j, 0.1, 0.3),
     "mixed_family", lambda z, w: mixed_family_kernel(
         3, (cmath.sqrt(z[0]),) + z[1:], (cmath.sqrt(w[0]),) + w[1:])),
    (DomainSpec((Block(2, 1.0), Block(1, 2.5))), (0.2, 0.1j, 0.3), (0.1, 0.2, -0.2j),
     "pflate", lambda z, w: pflate_kernel(2, 1, 2.5, z[:2], z[2:], w[:2], w[2:])),
    (diagonal_domain(2.0, 2.0), (0.3 + 0.1j, 0.2), (0.1, 0.4j), "k2_closed",
     lambda z, w: k2_closed_form(z[0] * w[0].conjugate(), z[1] * w[1].conjugate())),
    (diagonal_domain(2.0, 4.5), (0.25, 0.1 - 0.1j), (0.1, 0.3j), "slice_kp",
     lambda z, w: slice_kernel_kp(4.5, z[0] * w[0].conjugate(), z[1] * w[1].conjugate())),
    (diagonal_domain(4.5, 2.0), (0.1 - 0.1j, 0.25), (0.3j, 0.1), "slice_kp",
     lambda z, w: slice_kernel_kp(4.5, z[1] * w[1].conjugate(), z[0] * w[0].conjugate())),
    (diagonal_domain(1.0, 3.5), (0.3, 0.2j), (0.1j, 0.25), "pflate",
     lambda z, w: pflate_kernel(1, 1, 3.5, z[:1], z[1:], w[:1], w[1:])),
    (diagonal_domain(3.5, 1.0), (0.2j, 0.3), (0.25, 0.1j), "pflate",
     lambda z, w: pflate_kernel(1, 1, 3.5, z[1:], z[:1], w[1:], w[:1])),
    (diagonal_domain(2.0, 2.0, 2.5), (0.2, 0.3j, 0.1), (0.1j, 0.2, 0.3), "folded",
     lambda z, w: general_folded_kernel([2, 2], 2.5, KernelPoint(z, w))),
    (diagonal_domain(2.5, 2.0, 2.0), (0.1, 0.2, 0.1j), (0.2, 0.1j, 0.1), "folded",
     lambda z, w: general_folded_kernel([2, 2], 2.5, KernelPoint(z[1:] + z[:1], w[1:] + w[:1]))),
    (diagonal_domain(2.5, 3.5), (0.2, 0.1j), (0.1j, 0.3), "series_oracle", None),
]


@pytest.mark.parametrize("d,z,w,tag,direct", ROUTES,
                         ids=[f"{r[3]}-{i}" for i, r in enumerate(ROUTES)])
def test_evaluate_routes(d, z, w, tag, direct):
    kv = evaluate(d, z, w)
    assert kv.formula == tag
    if direct is not None:
        assert kv == direct(z, w)
    # the same domain as one-coordinate blocks: a block (m, 1) is m blocks (1, 1)
    diagonal = diagonal_domain(*(b.p for b in d.blocks for _ in range(b.dim)))
    want = series_kernel(diagonal, z, w).value
    assert abs(kv.value - want) <= 1e-8 * abs(want)


# spellings of one domain, each (blocks, z, w): every spelling takes the
# route named, with the same value bits
Z3, W3 = (0.1 + 0.2j, 0.3, 0.1j), (0.2, -0.1j, 0.15)
Z4, W4 = (0.1, 0.2j, 0.1, 0.15j), (0.2j, 0.1, 0.1j, 0.1)
SPELLINGS = [
    ("ball", [([(3, 1)], Z3, W3), ([(1, 1), (2, 1)], Z3, W3), ([(1, 1)] * 3, Z3, W3)]),
    ("pflate", [([(1, 1), (2, 3)], Z3, W3),
                ([(2, 3), (1, 1)], Z3[1:] + Z3[:1], W3[1:] + W3[:1])]),
    ("folded", [([(1, 1), (1, 1), (1, 2), (1, 2.5)], Z4, W4),
                ([(2, 1), (1, 2), (1, 2.5)], Z4, W4)]),
    ("folded", [([(1, 2.5), (1, 2), (1, 2)], (0.1, 0.2, 0.1j), (0.2, 0.1j, 0.1)),
                ([(1, 2), (1, 2), (1, 2.5)], (0.2, 0.1j, 0.1), (0.1j, 0.1, 0.2))]),
]


def _outcome(blocks, z, w):
    """evaluate's formula and value bits on the spelling blocks, or the refusal."""
    try:
        kv = evaluate(DomainSpec(tuple(Block(m, p) for m, p in blocks)), z, w)
    except UnsupportedDomain:
        return "unsupported", None
    return kv.formula, (kv.value.real.hex(), kv.value.imag.hex())


@pytest.mark.parametrize("tag,spellings", SPELLINGS,
                         ids=[f"{r[0]}-{i}" for i, r in enumerate(SPELLINGS)])
def test_evaluate_spellings_take_one_route(tag, spellings):
    outcomes = {_outcome(blocks, z, w) for blocks, z, w in spellings}
    assert len(outcomes) == 1
    assert outcomes.pop()[0] == tag


@st.composite
def blocks_and_points(draw):
    """1-4 blocks (dim 1-3, p in {1, 2, 2.5, 3, 3.5}, int p as an int) and two
    points with phi <= 0.6, each block's share of phi drawn."""
    # dim 1 drawn 2:1, or most draws are refused or the ball and no diagonal route is reached
    block = st.tuples(st.sampled_from([1, 1, 1, 1, 2, 3]), st.sampled_from([1, 2, 2.5, 3, 3.5]))
    blocks = [draw(block) for _ in range(draw(st.integers(1, 4)))]

    def point():
        phi = draw(st.floats(0.0, 0.6))
        shares = [draw(st.floats(0.05, 1.0)) for _ in blocks]
        pt = []
        for (m, p), share in zip(blocks, shares):
            v = [draw(st.floats(0.0, 1.0)) * cmath.exp(1j * draw(st.floats(0.0, 6.3)))
                 for _ in range(m)]
            norm = math.sqrt(sum(abs(c) ** 2 for c in v))
            r = (phi * share / sum(shares)) ** (p / 2.0)
            pt += [c * r / norm if norm > 1e-6 else 0j for c in v]
        return tuple(pt)

    return blocks, point(), point()


# 400 draws reach every route of evaluate (about 3 s)
@settings(max_examples=400)
@given(blocks_and_points())
def test_evaluate_does_not_depend_on_the_block_order(case):
    blocks, z, w = case
    want = _outcome(blocks, z, w)
    starts = list(itertools.accumulate((m for m, _ in blocks), initial=0))
    for perm in itertools.permutations(range(len(blocks))):
        idx = [k for j in perm for k in range(starts[j], starts[j + 1])]
        got = _outcome([blocks[j] for j in perm], tuple(z[k] for k in idx),
                       tuple(w[k] for k in idx))
        assert got[0] == want[0], perm
        # equal-p blocks in their written order: the same canonical input
        if all(perm.index(i) < perm.index(j) for i, j in itertools.combinations(
                range(len(blocks)), 2) if blocks[i][1] == blocks[j][1]):
            assert got == want, perm
    # a block (m, 1) is m blocks (1, 1)
    split = [b for m, p in blocks for b in ([(1, p)] * m if p == 1 else [(m, p)])]
    assert _outcome(split, z, w) == want


def test_evaluate_rejects_unsupported_structure():
    # in either order; the message names the blocks in evaluate's order
    for blocks in (((2, 2.0), (1, 3.0)), ((1, 3.0), (2, 2.0))):
        d = DomainSpec(tuple(Block(m, p) for m, p in blocks))
        with pytest.raises(UnsupportedDomain,
                           match=r"^no evaluator for blocks \(2, 2\) \+ \(1, 3\): "):
            evaluate(d, (0.1, 0.1, 0.1), (0.1, 0.1, 0.1))


@pytest.mark.parametrize("p", [2.0, 4.0], ids=["k2", "slice-2-4"])
def test_evaluate_refuses_a_point_outside_the_domain(p):
    # the pairing 0.0015 is reachable from inside, so only a point check sees z
    d = diagonal_domain(2.0, p)
    with pytest.raises(OutsideDomain, match=r"^z = \[\(1\.5\+0j\), 0j\] lies outside"):
        evaluate(d, (1.5 + 0j, 0j), (0.001 + 0j, 0j))
    with pytest.raises(OutsideDomain, match=r"^w = "):
        evaluate(d, (0.001 + 0j, 0j), (1.5 + 0j, 0j))


def test_evaluate_refuses_a_non_finite_value():
    # pflate's factorial read-off overflows, and inf * 0j makes the value nan
    d = DomainSpec((Block(100, 1.0), Block(100, 1.5)))
    origin = (0j,) * 200
    with pytest.raises(OverflowError, match=r"^\|K\| = nan is not finite$"):
        evaluate(d, origin, origin)
