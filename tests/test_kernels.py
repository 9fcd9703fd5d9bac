import cmath
import math

import numpy as np
import pytest

from bergman.domains import Block, DomainSpec, diagonal_domain
from bergman.errors import (
    InvalidOrder,
    NonIntegerFold,
    OutsideDomain,
    PoleHit,
    UnsupportedDomain,
)
from bergman.jets import jet1_const, jet1_variable
from bergman.kernels import (
    EPS_SWITCH,
    KernelPoint,
    axis_limit_kernel,
    ball_kernel,
    ball_kernel_values,
    deflation_constant,
    disc_kernel_values,
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
    simplex_restricted_kernel,
    simplex_restriction_constant,
    slice_kernel_kp,
    slice_kp_values,
)

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


def test_pflate_rejects_zero_dimensions():
    with pytest.raises(InvalidOrder):
        pflate_kernel(0, 1, 2.0, (), (0.1,), (), (0.1,))
    with pytest.raises(InvalidOrder):
        pflate_kernel(1, 0, 2.0, (0.1,), (), (0.1,), ())


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


def test_mixed_family_rejects_outside_ball():
    with pytest.raises(OutsideDomain):
        mixed_family_kernel(3, (0.8, 0.7, 0.0), (0j, 0j, 0j))


# -------------------------------------------------------------- vectorized


def test_disc_values_vectorized():
    rng = np.random.default_rng(79)
    t = np.array([rand_disc(rng) for _ in range(50)])
    got = disc_kernel_values(t)
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
    for p in (2.0, 3.0):
        got = slice_kp_values(p, np.array(xs), np.array(ys))
        for i, (x, y) in enumerate(zip(xs, ys)):
            want = slice_kernel_kp(p, x, y).value
            assert abs(got[i] - want) <= 1e-10 * max(1e-30, abs(want))


# ---------------------------------------------------------------- evaluate

# (domain, z, w, route tag, the route's own evaluator at (z, w))
ROUTES = [
    (DomainSpec((Block(2, 1.0),)), (0.1 + 0.2j, 0.3), (0.2, -0.1j), "ball",
     lambda z, w: ball_kernel(2, z, w)),
    (DomainSpec((Block(1, 2.0), Block(2, 1.0))), (0.3, 0.2, 0.1j), (0.2j, 0.1, 0.3),
     "mixed_family", lambda z, w: mixed_family_kernel(3, z, w)),
    (DomainSpec((Block(2, 1.0), Block(1, 2.5))), (0.2, 0.1j, 0.3), (0.1, 0.2, -0.2j),
     "pflate", lambda z, w: pflate_kernel(2, 1, 2.5, z[:2], z[2:], w[:2], w[2:])),
    (diagonal_domain(2.0, 2.0), (0.3 + 0.1j, 0.2), (0.1, 0.4j), "k2_closed",
     lambda z, w: k2_closed_form(z[0] * w[0].conjugate(), z[1] * w[1].conjugate())),
    (diagonal_domain(2.0, 4.5), (0.3, 0.2 - 0.2j), (0.1, 0.4j), "slice_kp",
     lambda z, w: slice_kernel_kp(4.5, z[0] * w[0].conjugate(), z[1] * w[1].conjugate())),
    (diagonal_domain(4.5, 2.0), (0.2 - 0.2j, 0.3), (0.4j, 0.1), "slice_kp",
     lambda z, w: slice_kernel_kp(4.5, z[1] * w[1].conjugate(), z[0] * w[0].conjugate())),
    (diagonal_domain(1.0, 3.5), (0.3, 0.2j), (0.1j, 0.25), "hartogs2",
     lambda z, w: hartogs2_kernel(3.5, z[0], z[1], w[0], w[1])),
    (diagonal_domain(3.5, 1.0), (0.2j, 0.3), (0.25, 0.1j), "hartogs2",
     lambda z, w: hartogs2_kernel(3.5, z[1], z[0], w[1], w[0])),
    (diagonal_domain(2.0, 2.0, 2.5), (0.2, 0.3j, 0.1), (0.1j, 0.2, 0.3), "folded",
     lambda z, w: general_folded_kernel([2, 2], 2.5, KernelPoint(z, w))),
    (diagonal_domain(2.5, 2.0, 2.0), (0.1, 0.2, 0.1j), (0.2, 0.1j, 0.1), "series_oracle",
     None),
]


@pytest.mark.parametrize("d,z,w,tag,direct", ROUTES,
                         ids=[f"{r[3]}-{i}" for i, r in enumerate(ROUTES)])
def test_evaluate_routes(d, z, w, tag, direct):
    kv = evaluate(d, z, w)
    assert kv.formula == tag
    if direct is not None:
        assert kv == direct(z, w)


def test_evaluate_rejects_unsupported_structure():
    d = DomainSpec((Block(2, 2.0), Block(1, 3.0)))
    with pytest.raises(UnsupportedDomain):
        evaluate(d, (0.1, 0.1, 0.1), (0.1, 0.1, 0.1))
