import cmath
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergman import zeros as zeros_module
from bergman.errors import NoConvergence, PreconditionViolated
from bergman.jets import Jet1, jet1_variable
from bergman.kernels import (
    _k2_cell_floor,
    axis_limit_kernel,
    k2_closed_form,
    k2_values,
    mixed_family_kernel,
    slice_kernel_kp,
)
from bergman.oracle import SeriesConfig, series_kernel
from bergman.domains import diagonal_domain
from bergman.zeros import (
    ODD_QUOTIENTS,
    SliceFunction,
    TwoVarSlice,
    Zero,
    ZeroReport,
    axis1_slice,
    axis1_zero_locus,
    axis2_slice,
    axis2_zero_locus,
    count_zeros_winding,
    grid_zero_scan,
    k2_axis_slice,
    k2_interior_positivity,
    k2_pair_slice,
    mixed_slice,
    newton_refine,
    odd_quotient_zero_locus,
    simplex_slice,
)

from _oracles import k2_scan_reference, polar_scan_reference, simplex_restricted_kernel

SQ3 = 1.0 / math.sqrt(3.0)


# ------------------------------------------------------------------- slices


def test_axis1_slice_matches_slice_kernel():
    rng = np.random.default_rng(131)
    for p in (2.0, 3.0, 4.0, 10.0):
        slc = axis1_slice(p)
        for _ in range(12):
            s = 0.8 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
            got = slc.eval(s)
            want = slice_kernel_kp(p, s * s, 0j).value
            assert abs(got - want) <= 1e-12 * abs(want)


def test_axis1_slice_small_argument():
    # the slice is even in s, so the limit is approached at O(s^2)
    slc = axis1_slice(3.0)
    want = axis_limit_kernel(3.0, 0j)
    for s in (1e-8 + 0j, 1e-6j, 0j):
        got = slc.eval(s)
        assert abs(got - want) <= 1e-9 * abs(want)
    mid = slc.eval(5e-4j)
    assert abs(mid - want) <= 5e-6 * abs(want)
    assert abs(mid - want) > 1e-7 * abs(want)


def test_axis2_slice_matches_axis_formula():
    rng = np.random.default_rng(137)
    for p in (2.0, 3.0, 4.0):
        slc = axis2_slice(p)
        for _ in range(10):
            y = 0.8 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
            got = slc.eval(y)
            want = axis_limit_kernel(p, y)
            assert abs(got - want) <= 1e-12 * abs(want)


def test_mixed_slice_matches_kernel():
    rng = np.random.default_rng(139)
    for n in (2, 3, 4):
        slc = mixed_slice(n)
        for _ in range(8):
            s = 0.7 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
            got = slc.eval(s)
            want = mixed_family_kernel(
                n, (s / 0.9,) + (0j,) * (n - 1), (0.9,) + (0j,) * (n - 1)).value
            assert abs(got - want) <= 1e-12 * abs(want)


def test_simplex_slice_matches_restricted_kernel():
    rng = np.random.default_rng(149)
    for n in (3, 4):
        slc = simplex_slice(n)
        for _ in range(8):
            s = 0.8 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
            got = slc.eval(s)
            want = simplex_restricted_kernel(n, s * s).value
            assert abs(got - want) <= 1e-12 * abs(want)


def test_k2_axis_slice_matches_closed_form():
    slc = k2_axis_slice()
    for x in (0.3 + 0j, -0.5 + 0j, 0.2 + 0.4j):
        got = slc.eval(x)
        want = k2_closed_form(x, 0j).value
        assert abs(got - want) <= 1e-13 * abs(want)


def test_slices_evaluate_on_jets():
    for slc in (axis1_slice(4.0), axis2_slice(3.0), mixed_slice(4),
                simplex_slice(3), k2_axis_slice()):
        jet = slc.eval(jet1_variable(0.2 + 0.1j, 1))
        assert len(jet.coeffs) == 2
        assert abs(jet.coeffs[0] - slc.eval(0.2 + 0.1j)) <= 1e-12


# ------------------------------------------------------------------- newton


def test_newton_simplex_bracket():
    f = SliceFunction(eval=lambda t: (1.0 + t) ** 6 - (1.0 - t) ** 6,
                      description="degree-6 bracket")
    root = newton_refine(f, 0.5j)
    assert abs(root - 1j * SQ3) <= 1e-12


def test_newton_plain_quadratic():
    f = SliceFunction(eval=lambda t: t * t - 0.25, description="quadratic")
    assert newton_refine(f, 0.4) == pytest.approx(0.5)


def test_newton_mixed_bracket():
    f = SliceFunction(eval=lambda t: (1.0 + t) ** 5 - (1.0 - t) ** 5,
                      description="degree-5 bracket")
    root = newton_refine(f, 0.7j)
    assert abs(root - 1j * math.tan(math.pi / 5.0)) <= 1e-12


def test_newton_no_convergence_flat_function():
    f = SliceFunction(eval=lambda t: 2.0 + 0.0 * t, description="constant")
    with pytest.raises(NoConvergence):
        newton_refine(f, 0j)


def test_newton_from_zero_reports_no_convergence():
    # t = 0 is a fixed point of t <- t - t/dlog(t); dlog of the odd quotient
    # is 0/0 there, so Newton stops before evaluating it
    for slc in (axis1_slice(4.0), simplex_slice(3), axis2_slice(3.0)):
        with pytest.raises(NoConvergence):
            newton_refine(slc, 0j)


def test_newton_no_convergence_escaping_iterate():
    # 1/(1-t) has no zeros; Newton's map is t -> 2t - 1, so the iterates from
    # 0.3j run away and trip the travel guard (from 0 they would not move)
    f = SliceFunction(eval=lambda t: (1.0 - t) ** -1.0, description="zero-free rational")
    with pytest.raises(NoConvergence):
        newton_refine(f, 0.3j)


# ------------------------------------------------------------------ winding


def test_winding_identity_function():
    f = SliceFunction(eval=lambda t: t, description="t")
    assert count_zeros_winding(f, 0.5) == 1


def test_winding_axis1_p4():
    assert count_zeros_winding(axis1_slice(4.0), 0.9) == 2


def test_winding_k2_axis():
    assert count_zeros_winding(k2_axis_slice(), 0.99) == 0


def test_winding_counts_multiplicity():
    f = SliceFunction(eval=lambda t: t * t * (1.0 - t), description="t^2")
    assert count_zeros_winding(f, 0.5) == 2


def test_winding_rejects_bad_radius():
    f = SliceFunction(eval=lambda t: 1.0 + t, description="affine")
    with pytest.raises(PreconditionViolated):
        count_zeros_winding(f, 1.2)
    with pytest.raises(PreconditionViolated):
        count_zeros_winding(f, 0.0)


def test_winding_simplex_40_counts_38():
    # (1 -+ t)^-80 overflows near t = +-0.999, but t f'/f takes only
    # ((1 - u)/(1 + u))^m at Re u >= 0, of modulus at most 1
    assert count_zeros_winding(simplex_slice(40), 0.999) == 38


def test_winding_simplex_40_warns_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert count_zeros_winding(simplex_slice(40), 0.999) == 38


def test_winding_axis1_contour_through_zero():
    # |t| = tan(pi/m) passes through the innermost zeros +-i tan(pi/m)
    for p in (4.0, 7.3):
        with pytest.raises(NoConvergence):
            count_zeros_winding(axis1_slice(p), math.tan(math.pi / (p + 2.0)))


def _odd_quotient_count(m):
    return 2 * len([k for k in range(1, math.ceil(m / 4.0)) if k < m / 4.0])


def test_winding_counts_match_closed_form_locus():
    # 2 #{1 <= k < m/4}.  Just above p = 4j - 2 the newest axis-1 pair sits
    # beyond r = 0.999, but no p = k/10 falls inside (4j - 2, 4j - 2 + 0.1).
    for k in range(1, 321):
        p = k / 10.0
        assert count_zeros_winding(axis1_slice(p), 0.999) == _odd_quotient_count(p + 2.0), p
    for n in range(2, 31):
        assert count_zeros_winding(simplex_slice(n), 0.999) == _odd_quotient_count(2.0 * n), n
    for n in range(2, 61):
        assert count_zeros_winding(mixed_slice(n), 0.999) == _odd_quotient_count(n + 1.0), n


ARRAY_SLICES = [
    ("axis1-3", lambda: axis1_slice(3.0)),
    ("axis1-7.5", lambda: axis1_slice(7.5)),
    ("axis1-30.02", lambda: axis1_slice(30.02)),
    ("axis2-5", lambda: axis2_slice(5.0)),
    ("simplex-9", lambda: simplex_slice(9)),
    ("mixed-20", lambda: mixed_slice(20)),
    ("k2-axis", k2_axis_slice),
    ("k2-restriction", lambda: k2_pair_slice().restrict_x(0.01 + 0.005j)),
]


@pytest.mark.parametrize("r", [0.5, 0.999])
@pytest.mark.parametrize("make", [row[1] for row in ARRAY_SLICES],
                         ids=[row[0] for row in ARRAY_SLICES])
def test_slice_on_array_jet_matches_scalar_jets(make, r):
    # One array jet over a 2048-point contour, as the winding count builds it,
    # against one scalar jet per point, both coefficients to 1e-12 relative.
    # Next to a zero |f| understates the size of f on the contour, so the
    # value is measured against max(|f|, |f'| h), h the contour step: at
    # axis-1 p = 30.02, r = 0.999 two points pass 1.9e-5 from a zero, where
    # |f| is 7.5e-9 and the paths' last-bit differences in the two cancelling
    # powers come to 5e-12 of it.
    slc = make()
    h = 2.0 * math.pi * r / 2048
    t = r * np.exp(2j * np.pi * np.arange(2048) / 2048)
    got = slc.eval(Jet1(t, (t, np.ones_like(t))))
    for k, tk in enumerate(t):
        val, der = slc.eval(jet1_variable(complex(tk), 1)).coeffs
        assert abs(got.coeffs[0][k] - val) <= 1e-12 * max(abs(val), abs(der) * h)
        assert abs(got.coeffs[1][k] - der) <= 1e-12 * abs(der)


@pytest.mark.parametrize("r", [0.5, 0.999])
@pytest.mark.parametrize("make", [row[1] for row in ARRAY_SLICES],
                         ids=[row[0] for row in ARRAY_SLICES])
def test_dlog_matches_order1_jet(make, r):
    # t f'/f of each library slice against t c1/c0 of its order-1 jet, on the
    # winding count's 2048-point contour, as an array and point by point
    slc = make()
    t = r * np.exp(2j * np.pi * np.arange(2048) / 2048)
    jet = slc.eval(Jet1(t, (t, np.ones_like(t))))
    ref = jet.coeffs[1] / jet.coeffs[0] * t
    got = slc.dlog(t)
    assert np.all(np.abs(got - ref) <= 1e-10 * np.maximum(np.abs(ref), 1.0))
    for k in range(0, 2048, 7):
        val, der = slc.eval(jet1_variable(complex(t[k]), 1)).coeffs
        want = der / val * complex(t[k])
        assert abs(slc.dlog(complex(t[k])) - want) <= 1e-10 * max(abs(want), 1.0)


def _jet_rule(slc):
    """The same slice without its dlog: t f'/f from the order-1 jet."""
    return SliceFunction(eval=slc.eval, description=slc.description)


def test_dlog_count_matches_jet_rule_count():
    # wherever the jet rule's count returns (its powers overflow at large m),
    # the closed-form t f'/f counts the same
    cases = [(axis1_slice(k / 4.0), r) for k in range(1, 401, 6)
             for r in (0.5, 0.9, 0.99, 0.999)]
    cases += [(axis2_slice(k / 4.0), r) for k in range(1, 41, 3) for r in (0.5, 0.999)]
    cases += [(make(n), r) for make in (simplex_slice, mixed_slice)
              for n in range(2, 61, 3) for r in (0.9, 0.999)]
    compared = 0
    for slc, r in cases:
        try:
            want = count_zeros_winding(_jet_rule(slc), r)
        except NoConvergence:
            continue
        assert count_zeros_winding(slc, r) == want, (slc.description, r)
        compared += 1
    assert compared > 0.9 * len(cases)


def test_winding_tiny_constant_counts_zero():
    # no absolute floor on |f|: a small zero-free function counts 0
    f = SliceFunction(eval=lambda t: 1e-9 + 0.0 * t, description="tiny")
    assert count_zeros_winding(f, 0.5) == 0


def test_winding_contour_through_zero():
    # a zero on a sample point makes the sum non-finite; a zero between
    # samples leaves the sum's real part at 1/2 for every M
    on_sample = SliceFunction(eval=lambda t: t - 0.5, description="t - 1/2")
    with pytest.raises(NoConvergence, match="not finite"):
        count_zeros_winding(on_sample, 0.5)
    between = SliceFunction(eval=lambda t: t - 0.5 * cmath.exp(1j), description="off-grid")
    with pytest.raises(NoConvergence, match="did not settle"):
        count_zeros_winding(between, 0.5)


@pytest.mark.parametrize("make, r, want", [
    (lambda: axis1_slice(4.0), 0.9, 2),
    (lambda: axis1_slice(26.0), 0.999, 12),
    (lambda: simplex_slice(9), 0.999, 8),
], ids=["axis1-4", "axis1-26", "simplex-9"])
def test_winding_evaluates_each_contour_point_once(make, r, want):
    # the sum at 2M reuses the M samples of the sum at M, so the points
    # evaluated are the final contour's M points, each once
    slc, seen = make(), []

    def counted(t):
        seen.append(t.coeffs[0].copy())
        return slc.eval(t)

    assert count_zeros_winding(SliceFunction(eval=counted, description="counted"), r) == want
    t = np.concatenate(seen)
    m = t.size
    assert m >= 1024 and m & (m - 1) == 0
    k = np.rint(np.angle(t) % (2.0 * math.pi) * m / (2.0 * math.pi)).astype(int) % m
    assert np.array_equal(np.sort(k), np.arange(m))
    assert np.allclose(t, r * np.exp(2j * math.pi * k / m), rtol=0.0, atol=1e-15)


def test_winding_points_keep_their_bits_across_the_table_cap(monkeypatch):
    # a dlog of 1/2 keeps the sum at 1/2 through M = 65,536; -1/2 on the next
    # level's odd points brings it to 0, so the count ends at M = 131,072.
    # Twice: once filling the memoised table, once reading it.
    monkeypatch.setattr(zeros_module, "_ROOTS", {})
    r, block = 0.999, zeros_module._BLOCK
    for _ in range(2):
        seen = []

        def dlog(t):
            seen.append(t.copy())
            return np.full(t.shape, 0.5 if sum(s.size for s in seen) <= 65536 else -0.5)

        f = SliceFunction(eval=lambda t: t, description="recording", dlog=dlog)
        assert count_zeros_winding(f, r) == 0
        blocks, m, step = iter(seen), 512, 1
        while m <= 1 << 17:
            for k in range(step - 1, m, step * block):
                ks = np.arange(k, min(m, k + step * block), step)
                want = r * np.exp(2j * math.pi * ks / m)
                assert next(blocks).tobytes() == want.tobytes(), (m, k)
            m, step = 2 * m, 2
        assert next(blocks, None) is None
    assert max(m for _, m, _ in zeros_module._ROOTS) == 16384


@pytest.mark.parametrize("p, deepest", [(2.000066954418969, 524288),
                                        (2.000399620598079, 65536)])
def test_winding_table_stays_bounded_on_deep_counts(monkeypatch, p, deepest):
    # an axis-2 zero just inside |y| = 1 needs deep counts; the table keeps
    # only the levels up to M = 16,384, 16,384 points in all
    monkeypatch.setattr(zeros_module, "_ROOTS", {})
    levels, unit_roots = set(), zeros_module._unit_roots

    def recorded(k, m, step):
        levels.add(m)
        return unit_roots(k, m, step)

    monkeypatch.setattr(zeros_module, "_unit_roots", recorded)
    rep = axis2_zero_locus(p)
    assert len(rep.zeros) == 1 and rep.count_by_winding == 1
    assert max(levels) == deepest
    assert sum(pts.size for pts in zeros_module._ROOTS.values()) <= 16384
    assert all(m <= 16384 for _, m, _ in zeros_module._ROOTS)


# --------------------------------------------------------------- axis1 loci


def test_axis1_locus_empty_below_threshold():
    for p in (1.0, 2.0):
        rep = axis1_zero_locus(p)
        assert rep.zeros == ()
        assert rep.count_by_winding == 0
        assert rep.method == "closed_form"


def test_axis1_locus_p4():
    rep = axis1_zero_locus(4.0)
    locs = sorted(z.location.imag for z in rep.zeros)
    assert len(rep.zeros) == 2
    assert locs == pytest.approx([-SQ3, SQ3], abs=1e-12)
    assert all(z.location.real == 0.0 for z in rep.zeros)
    assert all(z.residual < 1e-9 for z in rep.zeros)
    assert rep.count_by_winding == 2


def test_axis1_locus_p10():
    rep = axis1_zero_locus(10.0)
    locs = sorted(z.location.imag for z in rep.zeros)
    want = [-SQ3, -math.tan(math.pi / 12.0), math.tan(math.pi / 12.0), SQ3]
    assert len(rep.zeros) == 4
    assert locs == pytest.approx(want, abs=1e-12)
    assert rep.count_by_winding == 4


def test_axis1_locus_counts_match_winding_through_p12():
    # 2*#{k : 1 <= k < (p+2)/4} zeros, certified by the argument principle
    for p in range(1, 13):
        rep = axis1_zero_locus(float(p))
        expect = 2 * len([k for k in range(1, p + 2) if k < (p + 2) / 4.0])
        assert len(rep.zeros) == expect
        assert rep.count_by_winding == expect
        for z in rep.zeros:
            assert z.residual < 1e-9
            assert z.location.real == 0.0  # purely imaginary
        ims = sorted(z.location.imag for z in rep.zeros)
        assert ims == pytest.approx([-v for v in reversed(ims)])  # conjugate pairs


def test_axis1_locus_non_integer():
    rep = axis1_zero_locus(3.5)
    assert rep.method == "closed_form"
    locs = sorted(z.location.imag for z in rep.zeros)
    want = math.tan(math.pi / 5.5)
    assert locs == pytest.approx([-want, want], abs=1e-10)
    assert all(z.residual < 1e-9 for z in rep.zeros)
    assert rep.count_by_winding == 2


def test_axis1_locus_rejects_nonpositive_exponent():
    with pytest.raises(PreconditionViolated):
        axis1_zero_locus(0.0)


@pytest.mark.parametrize("make, count", [
    (lambda: axis1_zero_locus(160.0), 80),
    (lambda: odd_quotient_zero_locus(*(f(60) for f in ODD_QUOTIENTS["simplex"])), 58),
], ids=["axis1-160", "simplex-60"])
def test_odd_quotient_locus_certifies_past_the_jet_overflow(make, count):
    # (1 -+ t)^-m overflows on these loci's circles; t f'/f does not
    rep = make()
    assert len(rep.zeros) == rep.count_by_winding == count


@pytest.mark.parametrize("p", [30.02, 34.0, 98.02, 398.02, 4000.02])
def test_axis1_count_at_report_radius_matches_closed_form(p):
    # r = (1 + max |zero|)/2 as a report takes it; p = 4000.02 lies past the
    # locus cap, so its radius comes from the outermost closed-form zero
    m = p + 2.0
    count = _odd_quotient_count(m)
    r = (1.0 + math.tan(math.pi * (count // 2) / m)) / 2.0
    assert count_zeros_winding(axis1_slice(p), r) == count


@pytest.mark.parametrize("m", [0.0, -3.0, float("nan")])
def test_odd_quotient_locus_rejects_a_nonpositive_exponent(m):
    with pytest.raises(PreconditionViolated, match="must be positive"):
        odd_quotient_zero_locus(m, 1.0)


@pytest.mark.parametrize("p", [0.0, -2.0])
def test_axis2_locus_rejects_a_nonpositive_exponent(p):
    with pytest.raises(PreconditionViolated, match="must be positive"):
        axis2_zero_locus(p)


def test_odd_quotient_locus_caps_the_listed_zeros():
    # m = 4000 lists 1,998 zeros; above it the locus refuses before listing
    with pytest.raises(PreconditionViolated, match="exceeds 4000"):
        odd_quotient_zero_locus(4000.5, 1.0)


@pytest.mark.parametrize("p", [30.02, 34.0, 34.1, 37.7, 38.0, 39.0])
def test_axis1_locus_certifies_zeros_near_the_boundary(p):
    # p = 30.02 has two zeros beyond |t| = 0.999; at p = 34, 37.7, ... |f| on
    # |t| = 0.999 comes within 1e-6 of 0 beside the zeros +-i on |t| = 1
    rep = axis1_zero_locus(p)
    assert len(rep.zeros) == _odd_quotient_count(p + 2.0)
    assert rep.count_by_winding == len(rep.zeros)


# --------------------------------------------------------------- axis2 loci


def test_axis2_locus_empty_for_small_p():
    for p in (1.0, 2.0):
        rep = axis2_zero_locus(p)
        assert rep.zeros == ()
        assert rep.count_by_winding == 0


def test_axis2_locus_p3():
    rep = axis2_zero_locus(3.0)
    assert len(rep.zeros) == 1
    loc = rep.zeros[0].location
    assert loc == pytest.approx(-8.0 + 3.0 * math.sqrt(6.0), abs=1e-12)
    assert rep.zeros[0].residual < 1e-9
    assert rep.count_by_winding == 1


def test_axis2_locus_p4():
    rep = axis2_zero_locus(4.0)
    assert len(rep.zeros) == 1
    assert rep.zeros[0].location == pytest.approx(
        -5.0 + 2.0 * math.sqrt(5.0), abs=1e-12)
    assert rep.count_by_winding == 1


@pytest.mark.parametrize("p", [2.00001, 2.0001, 2.0001711976110625, 2.001,
                               2.0011932708854943, 2.0015, 2.01])
def test_axis2_locus_certifies_just_above_p2(p):
    # the zero tends to y = -1 as p -> 2+, beyond |y| = 0.999 below p = 2.0016
    rep = axis2_zero_locus(p)
    assert len(rep.zeros) == 1
    assert rep.count_by_winding == 1
    assert abs(rep.zeros[0].location) < rep.search_radius < 1.0


def test_axis2_zeros_real_negative_through_p12():
    for p in range(3, 13):
        rep = axis2_zero_locus(float(p))
        assert rep.zeros, f"expected a zero for p={p}"
        for z in rep.zeros:
            assert z.location.imag == 0.0
            assert z.location.real < 0.0
            assert z.residual < 1e-9


# ------------------------------------------------------------ k2 positivity


def test_k2_positivity_basic_points():
    assert k2_interior_positivity(0.2, 0.1)
    assert k2_interior_positivity(0.1 + 0.05j, -0.08)


def test_k2_positivity_phase_sweep():
    for theta in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False):
        x = 0.2 * cmath.exp(1j * theta)
        y = 0.2 * cmath.exp(-1j * theta)
        assert k2_interior_positivity(x, y)


def test_k2_positivity_random_admissible():
    rng = np.random.default_rng(151)
    done = 0
    while done < 2000:
        x = rng.random() * cmath.exp(2j * math.pi * rng.random())
        y = rng.random() * cmath.exp(2j * math.pi * rng.random())
        if math.sqrt(abs(x)) + math.sqrt(abs(y)) >= 1.0:
            continue
        assert k2_interior_positivity(x, y)
        done += 1


def test_k2_positivity_rejects_boundary():
    with pytest.raises(PreconditionViolated):
        k2_interior_positivity(-1.0, 0.0)
    with pytest.raises(PreconditionViolated):
        k2_interior_positivity(0.25, 0.25)


# --------------------------------------------------------------- grid scans


def test_grid_scan_finds_axis1_p4_zeros():
    rep = grid_zero_scan(axis1_slice(4.0), 50)
    locs = sorted(z.location.imag for z in rep.zeros)
    assert locs == pytest.approx([-SQ3, SQ3], abs=1e-9)
    assert rep.count_by_winding == 2
    assert rep.min_modulus is not None


def test_grid_scan_mixed_n3_is_clean():
    rep = grid_zero_scan(mixed_slice(3), 48)
    assert rep.zeros == ()
    assert rep.count_by_winding == 0


def test_grid_scan_k2_pair_clean_minimum():
    rep = grid_zero_scan(k2_pair_slice(), 50, tol=1e-8)
    assert rep.zeros == ()
    assert rep.min_modulus > 0.01


def test_grid_scan_rejects_low_resolution():
    with pytest.raises(PreconditionViolated):
        grid_zero_scan(axis1_slice(4.0), 4)


def _never(*_):
    raise AssertionError("evaluated before the resolution check")


@pytest.mark.parametrize("slc", [
    SliceFunction(eval=_never, description="slice"),
    TwoVarSlice(eval_many=_never, description="k2", restrict_x=_never),
], ids=["slice", "k2"])
def test_grid_scan_rejects_resolution_above_cap(slc):
    assert zeros_module.MAX_RESOLUTION == 256
    with pytest.raises(PreconditionViolated, match=r"8\.\.256, got 257"):
        grid_zero_scan(slc, 257)


@pytest.mark.parametrize("slc", [
    SliceFunction(eval=_never, description="slice"),
    TwoVarSlice(eval_many=_never, description="k2", restrict_x=_never),
], ids=["slice", "k2"])
@pytest.mark.parametrize("res", [48.0, 9.0, 48.5, True, "48", None])
def test_grid_scan_refuses_a_resolution_of_no_integer_type(slc, res):
    with pytest.raises(PreconditionViolated, match=re.escape(f"8..256, got {res}")):
        grid_zero_scan(slc, res)


@pytest.mark.parametrize("slc", [mixed_slice(3), k2_pair_slice()], ids=["slice", "k2"])
def test_grid_scan_takes_any_integer_type_as_resolution(slc):
    assert grid_zero_scan(slc, np.int64(16)) == grid_zero_scan(slc, 16)
    assert grid_zero_scan(slc, np.uint8(12)) == grid_zero_scan(slc, 12)


@pytest.mark.parametrize("res", [8, 9, 12, 16, 17, 33, 47, 48, 50, 64, 96])
@pytest.mark.parametrize("tol", [1e-9])
def test_k2_scan_matches_per_pairing_reference(res, tol):
    # skipping the cells whose floor lies above the running minimum keeps
    # the bits of min_modulus of one call per first pairing over every pair
    rep = grid_zero_scan(k2_pair_slice(), res, tol=tol)
    assert rep.min_modulus.hex() == k2_scan_reference(k2_pair_slice(), res).hex()


def _no_restriction(y0):
    raise AssertionError(f"the k2 scan restricted to y = {y0}")


def _counted_k2(counts):
    """k2_pair_slice whose eval_many appends the number of points it takes."""
    k2 = k2_pair_slice()

    def eval_many(x, y):
        vals = k2.eval_many(x, y)
        counts.append(vals.size)
        return vals

    return TwoVarSlice(eval_many=eval_many, description=k2.description,
                       restrict_x=_no_restriction)


def test_k2_scan_evaluates_a_hundredth_of_the_grid_at_most(monkeypatch):
    # the reference passes every admissible pair once; the scan, which takes
    # floors on coarse cells, then on the three y splits of those it cannot
    # skip, and evaluates the splits left with their images, passes about 0.2 %
    cells = []

    def counted_floor(xc, yc, hx, hy):
        cells.append(np.broadcast(xc, yc, hx, hy).size)
        return _k2_cell_floor(xc, yc, hx, hy)

    grid, scan = [], []
    want = k2_scan_reference(_counted_k2(grid), 48)
    monkeypatch.setattr(zeros_module, "_k2_cell_floor", counted_floor)
    assert grid_zero_scan(_counted_k2(scan), 48).min_modulus.hex() == want.hex()
    assert sum(grid) == 1029888
    assert sum(scan) <= 0.01 * sum(grid)
    assert 0 < sum(cells) <= 8000


def test_k2_scan_at_res_256_evaluates_at_most_100000_points():
    # outer radii first: the running minimum is in from the first chunk on
    scan = []
    assert grid_zero_scan(_counted_k2(scan), 256).min_modulus.hex() == "0x1.6cba6547d44bap-8"
    assert 0 < sum(scan) <= 100000


def _recorded_floors(monkeypatch):
    """Patch the scan's _k2_cell_floor to record each call's broadcast
    (xc, yc, hx, hy, floor), raveled; returns the record list."""
    cells = []

    def recorded_floor(xc, yc, hx, hy):
        floor = _k2_cell_floor(xc, yc, hx, hy)
        cells.append([u.ravel() for u in np.broadcast_arrays(xc, yc, hx, hy, floor)])
        return floor

    monkeypatch.setattr(zeros_module, "_k2_cell_floor", recorded_floor)
    return cells


@pytest.mark.parametrize("res", [8, 9, 12, 13, 16])
def test_k2_scan_covers_every_grid_pair(res, monkeypatch):
    # each admissible pair (x, y) went to eval_many as (x, y), or it, its swap
    # (y, x) or a conjugate image (conj x, conj y), (conj y, conj x) lies in a
    # bidisc whose floor, less the margin, is above the minimum; at res 9 and
    # 13 no angle is res / 2, and at res 8 and 12 the coarse runs are cut short
    cells, seen = _recorded_floors(monkeypatch), set()

    def recorded(x, y):
        seen.update(zip(*(a.ravel().tolist() for a in np.broadcast_arrays(x, y))))
        return k2_values(x, y)

    slc = TwoVarSlice(eval_many=recorded, description="k2", restrict_x=_no_restriction)
    least = grid_zero_scan(slc, res).min_modulus
    xc, yc, hx, hy, floor = (np.concatenate(a) for a in zip(*cells))
    # slack: distances round, and a mirrored grid point is its conjugate's grid
    # point only up to rounding (a run of one angle has h = 0)
    skip, slack = floor * (1.0 - 1e-6) > least, 1.0 + 1e-12
    xc, yc, hx, hy = xc[skip], yc[skip], hx[skip] * slack + 1e-15, hy[skip] * slack + 1e-15
    side = np.linspace(0.88 / res, 0.88, res)
    ring = np.exp(1j * (2.0 * math.pi * np.arange(res) / res))
    pairs = [(x, y) for rx in side for ry in side if math.sqrt(rx) + math.sqrt(ry) < 1.0 - 1e-9
             for x in (rx * ring).tolist() for y in (ry * ring).tolist()]
    left = np.array([q for q in pairs if q not in seen])
    x, y = left[:, :1], left[:, 1:]
    covered = np.zeros(left.shape[0], dtype=bool)
    for u, v in ((x, y), (y, x), (x.conjugate(), y.conjugate()), (y.conjugate(), x.conjugate())):
        covered |= ((np.abs(u - xc) <= hx) & (np.abs(v - yc) <= hy)).any(axis=1)
    assert len(pairs) > left.shape[0] > 0
    assert covered.all()


@pytest.mark.parametrize("res, want", [(128, "0x1.05988516b080ep-7"),
                                       (192, "0x1.9eacc4bb805cbp-8"),
                                       (256, "0x1.6cba6547d44bap-8")])
def test_k2_scan_keeps_its_bits_at_high_resolution(res, want):
    # min_modulus of the full-grid scan, too slow to recompute per pairing here
    assert grid_zero_scan(k2_pair_slice(), res).min_modulus.hex() == want


@pytest.mark.parametrize("res, every", [(48, 1), (256, 197)])
def test_k2_modulus_is_the_same_at_mirrored_grid_pairs(res, every):
    # the scan evaluates a cell's mirrored grid points, not exact conjugates,
    # and prunes by floors with a relative margin of 1e-6; the mirrored phases
    # differ from conjugates in their last bits, |K2| by about 2e-14 at most
    side = np.linspace(0.88 / res, 0.88, res)
    ring = np.exp(1j * (2.0 * math.pi * np.arange(res) / res))
    mirror = ring[-np.arange(res) % res]
    assert np.count_nonzero(mirror != ring.conjugate()) > res // 2
    root = np.sqrt(side)
    ri, rj = np.nonzero(root[:, None] + root[None, :] < 1.0 - 1e-9)
    for i, j in zip(ri[::every], rj[::every]):
        here = np.abs(k2_values(side[i] * ring[:, None], side[j] * ring[None, :]))
        there = np.abs(k2_values(side[i] * mirror[:, None], side[j] * mirror[None, :]))
        assert np.all(np.abs(there - here) <= 1e-12 * here)


@pytest.mark.parametrize("res", [8, 48, 96, 256])
def test_k2_cell_floor_rounding_margin_holds_on_pruned_cells(res, monkeypatch):
    # _k2_cell_floor's docstring: every cell the scan skips keeps |num_c| less
    # its linear and remainder terms above 3e-5, against terms below 8, so the
    # relative margin of 1e-6 covers that difference's rounding
    cells = _recorded_floors(monkeypatch)
    least = grid_zero_scan(k2_pair_slice(), res).min_modulus
    low, big = math.inf, 0.0
    for xc, yc, hx, hy, floor in cells:
        skip = floor * (1.0 - 1e-6) > least
        xc, yc, hx, hy = xc[skip], yc[skip], hx[skip], hy[skip]
        s, d, h = 1.0 - xc - yc, xc - yc, hx + hy
        e, f = 3.0 - 3.0 * d * d, 6.0 * s * d
        terms = (np.abs(s * e + 8.0 * xc * yc), np.abs(8.0 * yc - e - f) * hx,
                 np.abs(8.0 * xc - e + f) * hy,
                 3.0 * (2.0 * np.abs(d) + np.abs(s) + h) * h * h + 8.0 * hx * hy)
        low = min(low, (terms[0] - terms[1] - terms[2] - terms[3]).min(initial=math.inf))
        big = max(big, max(t.max(initial=0.0) for t in terms))
    assert 3e-5 < low < math.inf
    assert big < 8.0


@st.composite
def k2_cells(draw):
    """res 8-96, admissible grid radii of both pairings, centre angles
    anywhere and 1-4 grid steps of angle either side of each centre, the
    half-widths of a fine and of a coarse scan cell."""
    res = draw(st.integers(8, 96))
    side = np.linspace(0.88 / res, 0.88, res)
    fits = np.sqrt(side)[:, None] + np.sqrt(side)[None, :] < 1.0 - 1e-9
    i, j = draw(st.sampled_from(np.argwhere(fits).tolist()))
    return (res, side[i], side[j], draw(st.floats(0.0, 2.0 * math.pi)),
            draw(st.floats(0.0, 2.0 * math.pi)), draw(st.integers(1, 4)),
            draw(st.integers(1, 4)), draw(st.integers(0, 2 ** 32 - 1)))


def _in_disc(rng, centre, radius, n):
    return centre + radius * np.sqrt(rng.random(n)) * np.exp(2j * math.pi * rng.random(n))


@settings(max_examples=300)
@given(k2_cells())
def test_k2_cell_floor_lies_below_k2_on_the_cell(cell):
    # the cell's grid points (its corners among them) and random points
    # anywhere in the bidisc the floor bounds
    res, rx, ry, tx, ty, kx, ky, seed = cell
    step = 2.0 * math.pi / res
    xs = rx * np.exp(1j * (tx + step * np.arange(-kx, kx + 1)))
    ys = ry * np.exp(1j * (ty + step * np.arange(-ky, ky + 1)))
    hx, hy = 2.0 * rx * math.sin(kx * step / 2.0), 2.0 * ry * math.sin(ky * step / 2.0)
    floor = _k2_cell_floor(xs[kx], ys[ky], hx, hy)
    rng = np.random.default_rng(seed)
    assert 0.0 <= floor <= np.abs(k2_values(xs[:, None], ys[None, :])).min()
    assert floor <= np.abs(k2_values(_in_disc(rng, xs[kx], hx, 200),
                                     _in_disc(rng, ys[ky], hy, 200))).min()


@pytest.mark.parametrize("res", [8, 48])
def test_k2_scan_reads_eval_many_only(res):
    k2 = k2_pair_slice()
    slc = TwoVarSlice(eval_many=k2.eval_many, description=k2.description,
                      restrict_x=_no_restriction)
    rep = grid_zero_scan(slc, res)
    assert rep == ZeroReport(zeros=(), count_by_winding=0, search_radius=0.88,
                             method="grid", min_modulus=rep.min_modulus)


@pytest.mark.parametrize("res", [16, 48])
def test_k2_scan_refuses_tol_above_its_minimum(res):
    # a grid cell below tol is no zero: the scan names the minimum and lists nothing
    floor = grid_zero_scan(k2_pair_slice(), res).min_modulus
    assert floor < 0.05
    with pytest.raises(PreconditionViolated, match=re.escape(f"|f| = {floor!r} ")):
        grid_zero_scan(k2_pair_slice(), res, tol=0.05)


@pytest.fixture
def no_winding(monkeypatch):
    """Skip the winding count: these tests compare the scan's zero lists."""
    monkeypatch.setattr(zeros_module, "count_zeros_winding", lambda f, radius: -1)


_WORKLOAD_SLICES = (
    [axis1_slice(p) for p in (3.0, 4.0, 6.5, 7.3, 10.0, 13.5, 18.0, 22.2, 27.0, 32.0)]
    + [axis2_slice(p) for p in (0.5, 1.0, 2.2, 3.0, 5.0, 8.0)]
    + [simplex_slice(n) for n in (2, 3, 4, 5)]
    + [mixed_slice(n) for n in (3, 4, 5, 6)])


@pytest.mark.parametrize("slc", _WORKLOAD_SLICES, ids=lambda s: s.description)
def test_polar_scan_matches_per_cell_reference(slc, no_winding):
    rep = grid_zero_scan(slc, 48)
    assert [z.location for z in rep.zeros] == polar_scan_reference(slc, 48)[0]


@pytest.mark.parametrize("res", [8, 9, 13, 17, 24, 31, 37, 50, 64, 71])
def test_polar_scan_keeps_every_reference_zero(res, no_winding):
    # the non-strict minima seed at least the cells the strict ones did
    for slc in (axis1_slice(4.0), axis1_slice(13.5), axis2_slice(3.0),
                simplex_slice(5), mixed_slice(6)):
        got = [z.location for z in grid_zero_scan(slc, res).zeros]
        for q in polar_scan_reference(slc, res)[0]:
            assert min(abs(q - g) for g in got) <= 1e-8, (slc.description, res, q)


@pytest.mark.parametrize("slc,count", [
    (axis1_slice(7.3), 4), (mixed_slice(5), 2), (simplex_slice(6), 4),
    (simplex_slice(8), 6),
], ids=["axis1-7.3", "mixed-5", "simplex-6", "simplex-8"])
def test_polar_scan_seeds_both_cells_of_a_tie(slc, count):
    # cells mirrored about the imaginary axis tie in |f| up to rounding; a
    # strict minimum test dropped both of a tied pair and listed fewer zeros
    # than the winding count (3/4, 1/2, 2/4 on a scalar grid, 5/6 on numpy's)
    rep = grid_zero_scan(slc, 50)
    assert len(rep.zeros) == rep.count_by_winding == count


@pytest.mark.parametrize("tol, near", [(1e-9, 1e-11), (1e-12, 1e-12)])
@pytest.mark.parametrize("family, n", [("simplex", n) for n in (2, 3, 4, 5)]
                         + [("mixed", n) for n in (3, 4, 5, 6)])
def test_polar_scan_newton_lands_on_closed_form_zeros(family, n, tol, near):
    # Newton steps t <- t - t/dlog(t) to +-i tan(pi k/m), 1 <= k < m/4; it
    # stops once |f| < tol, so at tol = 1e-9 a zero may lie 4e-12 off
    m = ODD_QUOTIENTS[family][0](n)
    slc = {"simplex": simplex_slice, "mixed": mixed_slice}[family](n)
    rep = grid_zero_scan(slc, 48, tol=tol)
    want = [s * 1j * math.tan(math.pi * k / m)
            for k in range(1, math.ceil(m / 4.0)) if k < m / 4.0 for s in (1, -1)]
    assert len(rep.zeros) == len(want) == rep.count_by_winding
    for q in want:
        assert min(abs(z.location - q) for z in rep.zeros) <= near
    assert all(z.residual <= tol for z in rep.zeros)


# ----------------------------------------------- independent certification


def test_zero_certified_through_independent_paths():
    # closed form, folded evaluation, and series all see the p=4 zero
    rep = axis1_zero_locus(4.0)
    loc = max(rep.zeros, key=lambda z: z.location.imag).location
    assert abs(slice_kernel_kp(4.0, loc * loc, 0j).value) < 1e-9
    assert abs(simplex_restricted_kernel(3, loc * loc).value) < 1e-9
    d = diagonal_domain(2.0, 2.0, 2.0)
    cfg = SeriesConfig(max_degree=120, hard_cap=120)
    # pairing z1*conj(w1) = -1/3, the square of the located zero
    got = series_kernel(d, (SQ3, 0j, 0j), (-SQ3, 0j, 0j), cfg).value
    assert abs(got) < 1e-4


def test_zero_freeness_certified_two_ways():
    # winding 0 on the largest safe contour and the grid minimum agree
    assert count_zeros_winding(mixed_slice(3), 0.999) == 0
    rep = grid_zero_scan(mixed_slice(3), 32)
    assert rep.zeros == ()
    assert rep.min_modulus > 0.0


@pytest.mark.parametrize("slc,rep", [
    (axis1_slice(7.5), lambda: axis1_zero_locus(7.5)),
    (axis2_slice(5.0), lambda: axis2_zero_locus(5.0)),
    (mixed_slice(6), lambda: odd_quotient_zero_locus(*(f(6) for f in ODD_QUOTIENTS["mixed"]))),
], ids=["axis1-7.5", "axis2-5", "mixed-6"])
def test_each_zero_is_isolated_and_simple(slc, rep):
    # winding number 1 on a small circle around each reported zero, radius
    # half the distance to the nearest other zero or to |t| = 1
    locs = [z.location for z in rep().zeros]
    assert locs
    for z0 in locs:
        delta = 0.5 * min([1.0 - abs(z0)] + [abs(z0 - q) for q in locs if q != z0])
        near = SliceFunction(eval=lambda u, z0=z0, d=delta: slc.eval(z0 + d * u),
                             description=f"around {z0}")
        assert count_zeros_winding(near, 0.5) == 1, z0


@pytest.mark.parametrize("make", [
    lambda: axis1_zero_locus(4.0),
    lambda: axis1_zero_locus(30.02),
    lambda: axis2_zero_locus(3.0),
    lambda: axis2_zero_locus(1.0),
    lambda: odd_quotient_zero_locus(21.0, 1.0),
    lambda: grid_zero_scan(axis1_slice(4.0), 50),
    lambda: grid_zero_scan(mixed_slice(3), 24),
], ids=["axis1-4", "axis1-30.02", "axis2-3", "axis2-1", "odd-21", "scan-axis1-4",
        "scan-mixed-3"])
def test_report_radius_is_the_counted_circle(make, monkeypatch):
    radii = []

    def count(f, radius):
        radii.append(radius)
        return count_zeros_winding(f, radius)

    monkeypatch.setattr(zeros_module, "count_zeros_winding", count)
    rep = make()
    assert radii == [rep.search_radius]
    far = max((abs(z.location) for z in rep.zeros), default=None)
    assert rep.search_radius == (0.999 if far is None else (1.0 + far) / 2.0)


# ------------------------------------------------------------ serialization


def test_zero_report_json_round_trip():
    rep = axis1_zero_locus(4.0)
    blob = json.dumps(rep.to_json_dict())
    back = json.loads(blob)
    assert set(back) >= {"zeros", "winding_count", "radius", "method"}
    assert back["winding_count"] == 2
    assert back["method"] == "closed_form"
    assert len(back["zeros"]) == 2
    for entry in back["zeros"]:
        assert set(entry) == {"re", "im", "residual"}
        assert abs(abs(entry["im"]) - SQ3) < 1e-9


def test_zero_report_includes_min_modulus_for_scans():
    rep = grid_zero_scan(mixed_slice(3), 24)
    blob = rep.to_json_dict()
    assert "min_modulus" in blob
    assert blob["min_modulus"] > 0.0
