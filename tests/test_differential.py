"""Cross-route differential tests.

Every pair of routes that compute the same kernel is compared at seeded
interior points, and every array evaluator against its scalar twin.

Tolerances.  Two closed forms differ by rounding alone, so they must agree to
CLOSED_TOL.  The series oracle stops after two successive degree increments
fall below stop_rel times its running peak; at points with phi <= SERIES_PHI
the increments decay at least like SERIES_PHI^(deg/2), so the tail it leaves
is a few stop_rel of the peak, and SERIES_TOL allows ten.  By Cauchy-Schwarz
every partial sum, the peak included, is at most sqrt(K(z,z) K(w,w)), so the
series is measured against that; the closed forms against |K(z,w)| itself.
"""

import cmath
import math

import numpy as np
import pytest

from bergman import kernels as kernels_module
from bergman.domains import diagonal_domain
from bergman.errors import BranchPointJet
from bergman.jets import (
    jet1_variable,
    jet2_lift_t,
    jet2_variable_u,
    jet_rpow,
    partial_extract,
)
from bergman.kernels import (
    EPS_SWITCH,
    KernelPoint,
    _mixed_scale,
    _odd_quotient,
    _recip_power_jet,
    ball_kernel,
    ball_kernel_values,
    general_folded_kernel,
    hartogs2_kernel,
    k2_closed_form,
    k2_values,
    mixed_family_kernel,
    pairing,
    pflate_kernel,
    slice_kernel_kp,
    slice_kp_values,
)
from bergman.oracle import SeriesConfig, series_kernel
from bergman.zeros import ODD_QUOTIENTS

from _oracles import (
    folded_reference,
    jet_fpp,
    odd_limit_reference,
    pflate_reference,
    recip_power_reference,
    simplex_restricted_kernel,
    slice_limit_reference,
)

CLOSED_TOL = 1e-12
SERIES_PHI = 0.6
SERIES_TOL = 10.0 * SeriesConfig().stop_rel


def coordinate(rng, radius):
    """A coordinate of the given modulus: zero, real or complex, by a draw."""
    kind = rng.integers(6)
    if kind == 0:
        return 0j
    if kind == 1:
        return complex(radius * rng.choice((-1.0, 1.0)))
    return complex(radius * cmath.exp(2j * math.pi * rng.random()))


def diag_point(rng, exps, phi):
    """A point of the diagonal domain with defining function at most phi."""
    shares = rng.random(len(exps)) + 0.05
    shares *= phi / shares.sum()
    return tuple(coordinate(rng, s ** (p / 2.0)) for s, p in zip(shares, exps))


def block_point(rng, dims_ps, phi):
    """A point of {sum_j ||z_j||^(2/p_j) < 1} with blocks (dim, p), phi at most phi."""
    shares = rng.random(len(dims_ps)) + 0.05
    shares *= phi / shares.sum()
    out = []
    for s, (dim, p) in zip(shares, dims_ps):
        v = [coordinate(rng, 1.0) for _ in range(dim)]
        norm = math.sqrt(sum(abs(c) ** 2 for c in v))
        scale = s ** (p / 2.0) / norm if norm > 0.0 else 0.0
        out.extend(complex(c * scale) for c in v)
    return tuple(out)


def pair_slice(z, w):
    return tuple(a * b.conjugate() for a, b in zip(z, w))


def same_bits(a: complex, b: complex) -> bool:
    return (a.real.hex(), a.imag.hex()) == (b.real.hex(), b.imag.hex())


# ------------------------------------------------------------- route pairs
# (label, draw(rng) -> (exps, z, w), route a, route b, bound); a route maps
# (exps, z, w) to a complex kernel value on the domain diagonal_domain(*exps),
# and bound(route b, exps, z, w) is the largest |a - b| allowed


def closed_bound(route, exps, z, w):
    return CLOSED_TOL * abs(route(exps, z, w))


def series_bound(route, exps, z, w):
    return SERIES_TOL * math.sqrt(abs(route(exps, z, z)) * abs(route(exps, w, w)))


def k2_draw(rng):
    exps = (2.0, 2.0)
    return exps, diag_point(rng, exps, SERIES_PHI), diag_point(rng, exps, SERIES_PHI)


def hartogs_draw(rng):
    p = rng.uniform(1.0, 8.0)
    exps = (1.0, p)
    return exps, diag_point(rng, exps, SERIES_PHI), diag_point(rng, exps, SERIES_PHI)


def k2(exps, z, w):
    return k2_closed_form(*pair_slice(z, w)).value


def hartogs2(exps, z, w):
    return hartogs2_kernel(exps[1], z[0], z[1], w[0], w[1]).value


def series(exps, z, w):
    return series_kernel(diagonal_domain(*exps), z, w).value


def folded(exps, z, w):
    return general_folded_kernel([int(q) for q in exps[:-1]], exps[-1],
                                 KernelPoint(z, w)).value


ROUTE_PAIRS = [
    ("slice_kp(2, x, y)-k2", k2_draw,
     lambda e, z, w: slice_kernel_kp(2.0, *pair_slice(z, w)).value, k2, closed_bound),
    ("slice_kp(2, y, x)-k2", k2_draw,
     lambda e, z, w: slice_kernel_kp(2.0, *pair_slice(z, w)[::-1]).value, k2, closed_bound),
    ("folded([2], 2)-k2", k2_draw, folded, k2, closed_bound),
    ("series-k2", k2_draw, series, k2, series_bound),
    ("folded([1], p)-hartogs2", hartogs_draw, folded, hartogs2, closed_bound),
    ("series-hartogs2", hartogs_draw, series, hartogs2, series_bound),
]


@pytest.mark.parametrize("draw,route_a,route_b,bound",
                         [row[1:] for row in ROUTE_PAIRS],
                         ids=[row[0] for row in ROUTE_PAIRS])
def test_route_pair_agrees(draw, route_a, route_b, bound):
    rng = np.random.default_rng(20260)
    for _ in range(40):
        exps, z, w = draw(rng)
        a, b = route_a(exps, z, w), route_b(exps, z, w)
        assert abs(a - b) <= bound(route_b, exps, z, w), (exps, z, w, a, b)


@pytest.mark.parametrize("n", range(2, 8))
def test_simplex_restricted_agrees_with_general_fold(n):
    # the C^n simplex-norm kernel on the slice z_2 = ... = z_n = 0
    rng = np.random.default_rng(20261 + n)
    for _ in range(20):
        z1, w1 = coordinate(rng, 0.9 * rng.random()), coordinate(rng, 0.9 * rng.random())
        z = (z1,) + (0j,) * (n - 1)
        w = (w1,) + (0j,) * (n - 1)
        a = simplex_restricted_kernel(n, z1 * w1.conjugate()).value
        b = general_folded_kernel([2] * (n - 1), 2.0, KernelPoint(z, w)).value
        assert abs(a - b) <= CLOSED_TOL * abs(b), (n, z1, w1, a, b)


def test_pflate_one_one_is_hartogs2_bit_for_bit():
    rng = np.random.default_rng(20262)
    for _ in range(300):
        exps, z, w = hartogs_draw(rng)
        p = exps[1]
        a = pflate_kernel(1, 1, p, z[:1], z[1:], w[:1], w[1:]).value
        assert same_bits(a, hartogs2(exps, z, w)), (p, z, w)


def pflate_jet2_reference(n, m, p, z, Z, w, W):
    """The pflate formula through a two-variable jet in (t, u):
    (1/(p pi^(n+m))) d^(n+1)/dt^(n+1) d^(m-1)/du^(m-1) [1/((1-t)^p - u)]."""
    t0, u0 = pairing(z, w), pairing(Z, W)
    base = jet_rpow(1.0 - jet1_variable(t0, n + 1), p)
    jet = 1.0 / (jet2_lift_t(base, u0, m - 1)
                 - jet2_variable_u((t0, u0), (n + 1, m - 1)))
    return partial_extract(jet, n + 1, m - 1) / (p * math.pi ** (n + m))


def test_pflate_matches_two_variable_jet_bit_for_bit():
    rng = np.random.default_rng(20263)
    for _ in range(300):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        p = rng.uniform(0.5, 8.0)
        z, w = (block_point(rng, [(n, 1.0), (m, p)], 0.9 * rng.random()) for _ in "zw")
        args = (n, m, p, z[:n], z[n:], w[:n], w[n:])
        assert same_bits(pflate_kernel(*args).value, pflate_jet2_reference(*args)), args


# ------------------------------------- the shared jet against Jet1 objects
# The fold, pflate and the slice limit read ((1-t)^p - y)^-m off one
# list-level jet, and the odd-quotient limit takes (a - t)^-m on a list; all
# take the sparse power recurrence.  The references in _oracles take the same
# formulas through Jet1 objects and the dense recurrence.


def outcome(f, *args, **kwargs):
    """The value's float.hex pair, or the type of the error raised."""
    try:
        v = f(*args, **kwargs)
    except ArithmeticError as e:
        return type(e)
    v = v.value if hasattr(v, "value") else v
    return v.real.hex(), v.imag.hex()


def fold_draw(rng, p_list, p, near_axis, axes=1, pairing=None):
    """Eval-mix's fold points: phi in (0.15, 0.4) and every folded pairing at
    least 2e-3, so each takes the root sum; near an axis, ``axes`` folded
    pairings then fall below EPS_SWITCH, which takes the Taylor-filter branch:
    by factors below 1e-3 on both points, or onto a modulus drawn from
    ``pairing`` = (lo, hi)."""
    exps = tuple(float(q) for q in p_list) + (p,)

    def draw():
        shares = rng.random(len(exps)) + 0.05
        shares *= rng.uniform(0.15, 0.4) / shares.sum()
        return [complex(s ** (q / 2.0) * cmath.exp(2j * math.pi * rng.random()))
                for s, q in zip(shares, exps)]

    while True:
        z, w = draw(), draw()
        if all(abs(z[k] * w[k]) >= 2e-3 for k in range(len(p_list))):
            break
    if near_axis:
        for k in (rng.choice(len(p_list), axes, replace=False) if axes > 1
                  else [int(rng.integers(len(p_list)))]):
            if pairing is None:
                z[k] *= 1e-3 * rng.random()
                w[k] *= 1e-3 * rng.random()
            else:
                shrink = math.sqrt(rng.uniform(*pairing) / abs(z[k] * w[k]))
                z[k] *= shrink
                w[k] *= shrink
    return KernelPoint(tuple(z), tuple(w))


@pytest.mark.parametrize("p_list", [[2, 2], [3, 3], [2, 2, 2], [1, 2], [1, 1, 3], [2]],
                         ids=str)
def test_fold_is_its_jet1_reference_bit_for_bit(p_list):
    rng = np.random.default_rng(20270 + len(p_list) + sum(p_list))

    def check(p, pt):
        shift = [int(s) for s in rng.integers(0, 5, len(p_list))]
        for choice in (None, shift):
            got = outcome(general_folded_kernel, p_list, p, pt, root_choice=choice)
            assert got == outcome(folded_reference, p_list, p, pt, choice), (p, pt, choice)

    for i in range(60):
        p = rng.uniform(1.5, 4.0) if i % 6 else float(rng.choice((50.0, 400.0, 1000.0)))
        check(p, fold_draw(rng, p_list, p, near_axis=i % 2 == 1))
    # where the filter's early stop is tightest: pairings just under EPS_SWITCH,
    # two coordinates near an axis at once, and large p near an axis
    for i in range(30):
        p = rng.uniform(1.5, 4.0) if i % 3 else float(rng.choice((50.0, 400.0, 1000.0)))
        axes = 1 + i % 2 * (len(p_list) > 1)
        pairing = (1e-4, 1e-3) if i % 5 < 2 else None
        check(p, fold_draw(rng, p_list, p, True, axes, pairing))


def outcome_list(coeffs):
    return [(c.real.hex(), c.imag.hex()) for c in coeffs]


def test_recip_power_jet_is_the_same_bits_at_any_order():
    # the fold's filter stops a jet early and may take the full order later,
    # so every coefficient must not depend on the order asked for
    rng = np.random.default_rng(20284)
    for i in range(120):
        p = rng.uniform(0.5, 8.0) if i % 4 else float(rng.choice((50.0, 400.0, 1000.0)))
        tau = rng.uniform(0.0, 0.5) * cmath.exp(2j * math.pi * rng.random())
        y = rng.uniform(0.0, 0.4) ** p * cmath.exp(2j * math.pi * rng.random())
        m, top = int(rng.integers(1, 4)), int(rng.integers(2, 68))
        full = _recip_power_jet(tau, p, y, m, top)
        for k in (1, int(rng.integers(1, top)), top - 1):
            head = _recip_power_jet(tau, p, y, m, k)
            assert outcome_list(head) == outcome_list(full[:k + 1]), (p, tau, y, m, k)


def test_recip_power_jet_is_its_jet1_reference_bit_for_bit():
    # one loop nest on lists against Jet1's dense power and its divisions,
    # at every order to 68
    rng = np.random.default_rng(20320)
    for order in range(69):
        for m in range(1, 5):
            p = (rng.uniform(0.5, 8.0) if rng.random() < 0.75
                 else float(rng.choice((50.0, 400.0, 1000.0))))
            tau = coordinate(rng, rng.uniform(0.0, 0.4))
            y = coordinate(rng, rng.uniform(0.0, 0.4) ** p)
            want = outcome_list(recip_power_reference(tau, p, y, m, order))
            assert outcome_list(_recip_power_jet(tau, p, y, m, order)) == want, (
                order, m, p, tau, y)


@pytest.mark.parametrize("order", [0, 1, 5])
def test_recip_power_jet_error_paths(order):
    # tau = 1 is the branch point of the power; (1 - tau)^p underflowing to 0
    # with y = 0 leaves nothing to divide by, where K overflows
    with pytest.raises(BranchPointJet):
        _recip_power_jet(1.0, 2.5, 0.1, 1, order)
    with pytest.raises(BranchPointJet):
        jet_rpow(1.0 - jet1_variable(1.0, order), 2.5)
    with pytest.raises(OverflowError):
        _recip_power_jet(0.5, 1100.0, 0j, 2, order)


@pytest.mark.parametrize("p_list, p, z, w", [
    ([2, 16], 2.5, (0.1, 0.001, 0.1), (0.1, 0.001j, 0.1)),
    ([20], 1.5, (2e-4, 0.3), (3e-4j, 0.2 + 0.1j)),
    ([16], 4.0, (5e-6 + 5e-6j, 0.2), (6e-6, 0.2j)),
    ([3, 20], 3.0, (0.1j, 1e-7, 0.1), (0.1, -2e-7, 0.1j)),
    ([16, 16], 2.5, (1e-9, 1e-9, 0.1), (1e-9j, 1e-9j, 0.1)),
    ([20, 20, 20], 2.5, (1e-13,) * 3 + (0.1,), (1e-13j,) * 3 + (0.1,)),
])
def test_fold_past_order_170_matches_series(p_list, p, z, w):
    # a folded p_k >= 16 near its axis needs filter terms of degree 171 and up,
    # whose deg! and b! exceed a double
    got = general_folded_kernel(p_list, p, KernelPoint(z, w)).value
    ref = series_kernel(diagonal_domain(*p_list, p), z, w, SeriesConfig()).value
    assert abs(got - ref) <= 1e-8 * abs(ref), (got, ref)


def test_fold_filter_takes_the_full_order_only_where_a_term_may_show(monkeypatch):
    # at a real point the sum's imaginary part is rounding noise, so no
    # left-out term can be shown to be below its ulp: the full order, from the
    # first combination on; at a complex point near an axis, the short order
    orders = []
    jet = kernels_module._recip_power_jet

    def counting(tau, p, y, m, order):
        orders.append(order)
        return jet(tau, p, y, m, order)

    monkeypatch.setattr(kernels_module, "_recip_power_jet", counting)
    full = 3 + 11 * 2 - 1
    for pt, want in ((KernelPoint((3e-4, 0.3, 0.01), (5e-4, 0.2, 0.01)), [10, full, full]),
                     (KernelPoint((3e-4j, 0.3 + 0.1j, 0.01), (5e-4, 0.2j, 0.01 - 0.02j)),
                      [10, 10])):
        orders.clear()
        got = outcome(general_folded_kernel, [2, 2], 2.7, pt)
        assert got == outcome(folded_reference, [2, 2], 2.7, pt)
        assert orders == want, (pt, orders)


def test_fold_fallback_keeps_the_value_it_had_when_grown_from_a_short_jet(monkeypatch):
    # a real near-axis point: the first root combination's short jet fails the
    # filter test and is recomputed once at the full order, which the second
    # combination then takes from the start; the value was recorded when the
    # fallback grew the short jet instead
    orders = []
    jet = kernels_module._recip_power_jet

    def counting(tau, p, y, m, order):
        orders.append(order)
        return jet(tau, p, y, m, order)

    monkeypatch.setattr(kernels_module, "_recip_power_jet", counting)
    pt = KernelPoint((3e-4, 0.3, 0.2), (2e-4, 0.25, 0.1))
    got = general_folded_kernel([2, 2], 2.7, pt).value
    assert (got.real.hex(), got.imag.hex()) == ("0x1.1dfbbf318c200p+4", "0x1.3a338c865198cp-46")
    full = 3 + 11 * 2 - 1
    assert orders == [10, full, full]


def test_fold_at_a_zero_pairing_is_its_reference_bit_for_bit():
    rng = np.random.default_rng(20279)
    for p_list in ([2, 2], [3, 3], [2, 2, 2]):
        for _ in range(10):
            p = rng.uniform(1.5, 4.0)
            z, w = (list(diag_point(rng, (2.0,) * len(p_list) + (p,), 0.3)) for _ in "zw")
            z[int(rng.integers(len(p_list)))] = 0j
            pt = KernelPoint(tuple(z), tuple(w))
            assert (outcome(general_folded_kernel, p_list, p, pt)
                    == outcome(folded_reference, p_list, p, pt)), (p, pt)


def test_pflate_is_its_jet1_reference_bit_for_bit():
    rng = np.random.default_rng(20280)
    for n in (1, 2, 3):
        for m in (1, 2, 3, 4):
            for i in range(12):
                p = (rng.uniform(1.5, 8.0) if i % 4
                     else float(rng.choice((50.0, 400.0, 1000.0))))
                z, w = (block_point(rng, [(n, 1.0), (m, p)], 0.9 * rng.random()) for _ in "zw")
                args = (n, m, p, z[:n], z[n:], w[:n], w[n:])
                assert outcome(pflate_kernel, *args) == outcome(pflate_reference, *args), args


@pytest.mark.parametrize("p", [1.5, 2.5, 4.0, 8.0, 50.0, 400.0, 1000.0])
def test_slice_limit_is_its_jet1_reference_bit_for_bit(p):
    rng = np.random.default_rng(20281)
    for _ in range(40):
        z, w = (diag_point(rng, (2.0, p), rng.uniform(0.1, 0.95)) for _ in "zw")
        x, y = pair_slice(z, w)
        x *= 1e-7
        assert abs(cmath.sqrt(x)) < EPS_SWITCH
        assert outcome(slice_kernel_kp, p, x, y) == outcome(slice_limit_reference, p, x, y)


def test_mixed_limit_is_its_jet1_reference_bit_for_bit():
    # |v| below EPS_SWITCH takes the odd-quotient limit at a = 1 - t', t' complex
    rng = np.random.default_rng(20282)
    for n in range(2, 9):
        for _ in range(30):
            z, w = ([complex(c) for c in rng.uniform(0.1, 0.95) * u / np.linalg.norm(u)]
                    for u in rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n)))
            z[0] *= 1e-3 * rng.random()
            w[0] *= 1e-3 * rng.random()
            v = z[0] * w[0].conjugate()
            tp = pairing(z[1:], w[1:])
            assert abs(v) < EPS_SWITCH
            want = outcome(odd_limit_reference, 1.0 - tp, n + 1.0, _mixed_scale(n), v)
            assert outcome(mixed_family_kernel, n, z, w) == want, (n, z, w)


@pytest.mark.parametrize("family", sorted(ODD_QUOTIENTS))
def test_odd_quotient_limit_is_its_jet1_reference_bit_for_bit(family):
    # the slices' parameter runs up to m = 4,000, the zero reports' cap
    m_of, scale_of = ODD_QUOTIENTS[family]
    top = {"axis1": 3998.0, "simplex": 2000, "mixed": 3999}[family]
    rng = np.random.default_rng(20283)
    params = [top] + [float(rng.uniform(1.0, top)) if family == "axis1"
                      else int(rng.integers(2, top)) for _ in range(30)]
    for q in params:
        m = m_of(q)
        assert m <= 4000.0
        try:
            scales = (1.0, scale_of(q))
        except OverflowError:  # the simplex and mixed scales overflow at large n
            scales = (1.0,)
        for _ in range(10):
            t = 1e-3 * rng.random() * cmath.exp(2j * math.pi * rng.random())
            for s in scales:
                assert (outcome(_odd_quotient, 1.0, m, s, t)
                        == outcome(odd_limit_reference, 1.0, m, s, t)), (q, s, t)


def test_fold_overflows_at_an_interior_point_at_huge_p():
    # (1 - tau)^p overflows before K, which underflows, can be formed
    pt = KernelPoint((0.3, 0.05, 0), (-0.3, 0.05j, 0))
    with pytest.raises(OverflowError, match="complex exponentiation"):
        general_folded_kernel([2, 2], 1e5, pt)
    assert outcome(folded_reference, [2, 2], 1e5, pt) is OverflowError


def test_pflate_overflows_at_an_interior_point_at_huge_p():
    # the same (1 - t)^p overflow on the pflate route and so on hartogs2
    with pytest.raises(OverflowError, match="complex exponentiation"):
        hartogs2_kernel(1e5, 0.2, 0, -0.2, 0)
    args = (1, 1, 1e5, (0.2,), (0j,), (-0.2,), (0j,))
    assert outcome(pflate_reference, *args) is OverflowError


# --------------------------------------------------- arrays against scalars


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_ball_values_match_ball_kernel(m):
    rng = np.random.default_rng(20264 + m)
    Z = [block_point(rng, [(m, 1.0)], 0.95 * rng.random()) for _ in range(40)]
    W = [block_point(rng, [(m, 1.0)], 0.95 * rng.random()) for _ in range(40)]
    got = ball_kernel_values(m, np.array([pairing(a, b) for a, b in zip(Z, W)]))
    for g, a, b in zip(got, Z, W):
        want = ball_kernel(m, a, b).value
        assert abs(g - want) <= CLOSED_TOL * abs(want)


def test_k2_values_match_k2_closed_form():
    rng = np.random.default_rng(20268)
    pairs = [pair_slice(*(diag_point(rng, (2.0, 2.0), 0.95 * rng.random())
                          for _ in "zw")) for _ in range(200)]
    x, y = (np.array(c) for c in zip(*pairs))
    for g, (xs, ys) in zip(k2_values(x, y), pairs):
        want = k2_closed_form(xs, ys).value
        assert abs(g - want) <= CLOSED_TOL * abs(want)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.7, 8.0])
def test_slice_kp_values_match_slice_kernel_kp(p):
    # a third of the draws put x below the small-root switch, which the
    # array path hands to the scalar limit branch
    rng = np.random.default_rng(20269)
    pairs = []
    for k in range(120):
        z, w = (diag_point(rng, (2.0, p), 0.95 * rng.random()) for _ in "zw")
        x, y = pair_slice(z, w)
        if k % 3 == 0:
            x *= 1e-7
        pairs.append((x, y))
    x, y = (np.array(c) for c in zip(*pairs))
    for g, (xs, ys) in zip(slice_kp_values(p, x, y), pairs):
        xi = cmath.sqrt(xs)
        if abs(xi) >= EPS_SWITCH:
            # the direct form against F'' read off order-2 jets, a second derivation
            want = (jet_fpp(p, xi, ys) - jet_fpp(p, -xi, ys)) / (4.0 * p * math.pi ** 2 * xi)
        else:
            want = slice_kernel_kp(p, xs, ys).value
        assert abs(g - want) <= CLOSED_TOL * abs(want), (p, xs, ys)
