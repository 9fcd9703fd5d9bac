import math

import numpy as np
import pytest

from bergman.errors import (
    BranchPointJet,
    CenterMismatch,
    DivisionByZeroJet,
    OrderExceeded,
)
from bergman.jets import (
    Jet1,
    derivative_extract,
    jet1_const,
    jet1_variable,
    jet2_lift_t,
    jet2_variable_u,
    jet_arith,
    jet_rpow,
    partial_extract,
)
from bergman.zeros import SliceFunction, count_zeros_winding

from _oracles import (
    dense_rpow,
    fd_derivative,
    fd_derivative_best,
    fd_partial_best,
    rational_pole_distance,
)

# Central differences in double precision bottom out around 1e-6..5e-6
# relative at derivative orders 5 and 6 for these function families (rounding
# eps/h^k against truncation h < pole distance); the jet side of the
# comparison is exact arithmetic.  Hence the looser tier for high orders; the
# integer-power and binomial tests below pin the same coefficients exactly.
_FD_TOL = {0: 1e-6, 1: 1e-6, 2: 1e-6, 3: 1e-6, 4: 1e-6, 5: 1e-5, 6: 1e-5}


def j(*coeffs, center=0j):
    return Jet1(center, tuple(complex(c) for c in coeffs))


def rational_jet1(p, u, t0, order):
    """Jet of 1/((1-t)^p - u) in t at t0."""
    t = jet1_variable(t0, order)
    return 1.0 / (jet_rpow(1.0 - t, p) - u)


def rational_jet2(p, t0, u0, nt, nu):
    """Jet of 1/((1-t)^p - u) in (t,u) at (t0,u0)."""
    base = jet_rpow(1.0 - jet1_variable(t0, nt), p)
    return 1.0 / (jet2_lift_t(base, u0, nu) - jet2_variable_u((t0, u0), (nt, nu)))


def test_div_by_identity():
    out = jet_arith(j(1, 1, 1), j(1, 0, 0), "div")
    assert out.coeffs == (1, 1, 1)


def test_mul_inverse_pair():
    # (1/(1-t)) * (1-t) = 1 through the stored order
    out = jet_arith(j(1, 1, 1, 1), j(1, -1, 0, 0), "mul")
    assert out.coeffs == (1, 0, 0, 0)


def test_div_geometric_series():
    out = jet_arith(j(1, 0, 0), j(1, -1, 0), "div")
    assert out.coeffs == (1, 1, 1)


def test_rpow_square():
    out = jet_rpow(j(1, -1, 0, 0, 0), 2.0)
    assert out.coeffs == pytest.approx((1, -2, 1, 0, 0))


def test_rpow_sqrt():
    out = jet_rpow(j(1, -1, 0), 0.5)
    assert out.coeffs == pytest.approx((1, -0.5, -0.125))


@pytest.mark.parametrize("r", [0.5, 2.0, -1.25, 7.0])
def test_rpow_of_one(r):
    out = jet_rpow(j(1, 0, 0, 0), r)
    assert out.coeffs == pytest.approx((1, 0, 0, 0))


def test_derivative_extract_geometric():
    assert derivative_extract(j(1, 1, 1, 1), 3) == pytest.approx(6)


def test_derivative_extract_disc_profile():
    a = jet_rpow(1.0 - jet1_variable(0j, 3), -2.0)
    assert derivative_extract(a, 1) == pytest.approx(2)


def test_jet2_hand_expansion():
    # 1/((1-t)^2 - u) = 1 + 2t + u + 3t^2 + 4tu + u^2 + ...
    f = rational_jet2(2.0, 0j, 0j, 3, 2)
    assert f.coeffs[0].coeffs[0] == pytest.approx(1)
    assert f.coeffs[0].coeffs[1] == pytest.approx(2)
    assert f.coeffs[1].coeffs[0] == pytest.approx(1)
    assert f.coeffs[0].coeffs[2] == pytest.approx(3)
    assert f.coeffs[1].coeffs[1] == pytest.approx(4)
    assert f.coeffs[0].coeffs[3] == pytest.approx(4)
    assert f.coeffs[1].coeffs[2] == pytest.approx(10)
    assert partial_extract(f, 2, 0) == pytest.approx(6)


def test_mul_commutative_associative_exact():
    a = j(1, 2, 3, 4)
    b = j(5, -1, 0, 2)
    c = j(-3, 7, 1, 1)
    assert jet_arith(a, b, "mul").coeffs == jet_arith(b, a, "mul").coeffs
    left = jet_arith(jet_arith(a, b, "mul"), c, "mul")
    right = jet_arith(a, jet_arith(b, c, "mul"), "mul")
    assert left.coeffs == right.coeffs


def test_rpow_integer_matches_repeated_mul():
    rng = np.random.default_rng(2401)
    for _ in range(20):
        coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        coeffs[0] = 1.0 + 0.3 * coeffs[0]  # keep constant term away from 0
        a = Jet1(0j, tuple(coeffs))
        for r in (2, 3, 5):
            via_rpow = jet_rpow(a, float(r))
            prod = a
            for _ in range(r - 1):
                prod = prod * a
            for x, y in zip(via_rpow.coeffs, prod.coeffs):
                assert abs(x - y) <= 1e-12 * max(1.0, abs(y))


def test_pow_operator_routes_by_exponent():
    # a real exponent goes through jet_rpow; a whole int multiplies out
    a = j(0.7 + 0.2j, 0.3 - 0.1j, 0.05j, -0.02, center=0.3 - 0.2j)
    for r in (-4.0, -3, -0.5, 0.5, 2.5, 4.0):
        assert (a ** r).coeffs == jet_rpow(a, float(r)).coeffs
    prod = jet1_const(1.0, a.order, a.center)
    for n in range(4):
        assert (a ** n).coeffs == prod.coeffs
        prod = prod * a


def _random_center(rng, p, guard=0.6):
    """Center (t0, u0) with |t0|,|u0| <= 0.5, pole distance >= guard.

    The guard keeps the finite-difference stencils (and their Richardson
    refinements) clear of the poles of 1/((1-t)^p - u); without it the oracle
    itself is meaningless, not the jets.
    """
    while True:
        t0 = 0.5 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
        u0 = 0.5 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
        if rational_pole_distance(p, u0, t0) >= guard:
            return t0, u0


def test_jet1_matches_finite_differences():
    rng = np.random.default_rng(90210)
    for _ in range(100):
        p = rng.choice([1.0, 2.0, 2.5])
        t0, u0 = _random_center(rng, p)
        jet = rational_jet1(p, u0, t0, 6)
        for k in range(7):
            got = derivative_extract(jet, k)
            ref = fd_derivative_best(
                lambda t: 1.0 / ((1.0 - t) ** p - u0), t0, k)
            assert abs(got - ref) <= _FD_TOL[k] * max(1.0, abs(ref))


@pytest.mark.parametrize("r", [0.5, -1.5, 3.5])
def test_rpow_matches_finite_differences(r):
    rng = np.random.default_rng(7)
    count = 0
    while count < 25:
        sign = rng.choice([1.0, -1.0])
        t0 = 0.5 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
        if abs(1.0 / sign + t0) < 0.75:  # branch point of (1 + sign*t)^r
            continue
        count += 1
        jet = jet_rpow(1.0 + sign * jet1_variable(t0, 6), r)
        for k in range(7):
            got = derivative_extract(jet, k)
            ref = fd_derivative_best(lambda t: (1.0 + sign * t) ** r, t0, k)
            assert abs(got - ref) <= _FD_TOL[k] * max(1.0, abs(ref))


def test_quotient_matches_finite_differences():
    # product/quotient of the two building blocks
    rng = np.random.default_rng(424)
    for _ in range(25):
        p = rng.choice([1.0, 2.0])
        t0, u0 = _random_center(rng, p)
        t = jet1_variable(t0, 6)
        jet = jet_rpow(1.0 + t, 0.5) / (jet_rpow(1.0 - t, p) - u0)
        for k in range(7):
            got = derivative_extract(jet, k)
            ref = fd_derivative_best(
                lambda s: (1.0 + s) ** 0.5 / ((1.0 - s) ** p - u0), t0, k)
            assert abs(got - ref) <= _FD_TOL[k] * max(1.0, abs(ref))


def test_jet2_matches_finite_differences():
    rng = np.random.default_rng(311)
    for _ in range(30):
        p = rng.choice([1.0, 2.0, 3.0])
        t0, u0 = _random_center(rng, p)
        jet = rational_jet2(p, t0, u0, 3, 2)
        for k in range(4):
            for l in range(3):
                got = partial_extract(jet, k, l)
                ref = fd_partial_best(
                    lambda t, u: 1.0 / ((1.0 - t) ** p - u), t0, u0, k, l)
                assert abs(got - ref) <= 1e-6 * max(1.0, abs(ref))


def test_center_mismatch():
    with pytest.raises(CenterMismatch):
        jet_arith(j(1, 2), j(1, 2, center=0.5 + 0j), "add")
    with pytest.raises(CenterMismatch):
        jet_arith(j(1, 2), j(1, 2, 3), "add")


def test_division_by_zero_jet():
    with pytest.raises(DivisionByZeroJet):
        jet_arith(j(1, 1), j(0, 1), "div")


def test_two_variable_mismatch():
    # the jets in t inside two two-variable jets must share center and order
    base = jet_rpow(1.0 - jet1_variable(0.1j, 3), 2.0)
    for t0, nt in ((0.2j, 3), (0.1j, 2)):
        with pytest.raises(CenterMismatch):
            jet2_lift_t(base, 0.3, 2) - jet2_variable_u((t0, 0.3), (nt, 2))


def test_two_variable_division_by_zero_jet():
    # (1 - t)^2 - u at (0, 1) has constant term 0
    base = jet_rpow(1.0 - jet1_variable(0j, 3), 2.0)
    with pytest.raises(DivisionByZeroJet):
        1.0 / (jet2_lift_t(base, 1.0, 2) - jet2_variable_u((0j, 1.0), (3, 2)))


def test_public_names_resolve():
    # every name in bergman.__all__ exists, so `from bergman import *` works
    import bergman

    assert [n for n in bergman.__all__ if not hasattr(bergman, n)] == []
    namespace = {}
    exec("from bergman import *", namespace)
    assert set(bergman.__all__) <= set(namespace)


def test_branch_point():
    with pytest.raises(BranchPointJet):
        jet_rpow(j(0, 1), 0.5)


def test_order_exceeded():
    with pytest.raises(OrderExceeded):
        derivative_extract(j(1, 1), 2)
    with pytest.raises(OrderExceeded):
        partial_extract(rational_jet2(2.0, 0j, 0j, 2, 1), 3, 0)


def test_variable_jet_shape():
    t = jet1_variable(0.25 + 0.5j, 3)
    assert t.coeffs == (0.25 + 0.5j, 1, 0, 0)
    assert jet1_variable(1j, 0).coeffs == (1j,)
    assert jet1_const(4.0, 2).coeffs == (4, 0, 0)


# ------------------------------------------------------------- array jets
# An order-1 jet may carry numpy arrays, one jet for a batch of points.


def _array_variable(t):
    return Jet1(t, (t, np.ones_like(t)))


def test_array_jet_zero_entry_raises():
    t = np.array([0.5 + 0.1j, 0j, -0.3j])
    x = _array_variable(t)
    with pytest.raises(DivisionByZeroJet):
        1.0 / x
    with pytest.raises(DivisionByZeroJet):
        (1.0 + x) / x
    with pytest.raises(BranchPointJet):
        x ** -2.5


def test_array_jet_integer_power():
    t = np.array([0.5 + 0.1j, -0.2 + 0.7j, 0.9, 0j])
    got = (1.0 - _array_variable(t)) ** 3
    # numpy's complex product may round differently from Python's in the last bit
    for k, tk in enumerate(t):
        want = (1.0 - jet1_variable(complex(tk), 1)) ** 3
        for c in range(2):
            assert abs(got.coeffs[c][k] - want.coeffs[c]) <= 1e-15 * abs(want.coeffs[c])


def test_array_jet_matches_scalar_jets():
    t = 0.7 * np.exp(2j * np.pi * np.arange(64) / 64)
    x = _array_variable(t)
    got = (2.0 + x * x) / (1.0 - x) ** 4.0 - 3.0 * (x + 0.5j) ** -1.5
    assert got.center is t
    for k, tk in enumerate(t):
        s = jet1_variable(complex(tk), 1)
        want = (2.0 + s * s) / (1.0 - s) ** 4.0 - 3.0 * (s + 0.5j) ** -1.5
        for c in range(2):
            assert abs(got.coeffs[c][k] - want.coeffs[c]) <= 1e-13 * abs(want.coeffs[c])


def test_array_jet_division_leaves_operands_unchanged():
    t = np.array([0.5 + 0.1j, -0.2 + 0.7j, 0.9j])
    x = _array_variable(t)
    d = 1.0 - x
    num_coeffs = [c.copy() for c in x.coeffs]
    den_coeffs = [c.copy() for c in d.coeffs]
    x / d
    for got, want in zip(x.coeffs + d.coeffs, num_coeffs + den_coeffs):
        assert np.array_equal(got, want)
    # the winding count divides array jets; a mutated numerator corrupted it
    # when the quotient came first in the product
    q = SliceFunction(eval=lambda s: (s / (1.5 - s)) * (s - 0.3), description="q")
    assert count_zeros_winding(q, 0.5) == 2


# ------------------------------------------------- sparse power recurrence
# jet_rpow skips the terms of its recurrence whose a_j is an exact zero; the
# full sum, kept in _oracles, must give the same bits.


def _bits(jet):
    return [(complex(c).real.hex(), complex(c).imag.hex()) for c in jet.coeffs]


@pytest.mark.parametrize("order", [1, 2, 7, 24, 35, 47])
def test_sparse_rpow_on_linear_jets_is_the_dense_sum(order):
    rng = np.random.default_rng(40 + order)
    for _ in range(20):
        t0 = complex(*(0.9 * rng.uniform(-1.0, 1.0, 2)))
        r = float(rng.choice((rng.uniform(-8.0, 8.0), 50.0, 400.0, 1000.0, 0.5, -2.0)))
        x = 1.0 - jet1_variable(t0, order)
        assert _bits(jet_rpow(x, r)) == _bits(dense_rpow(x, r)), (order, t0, r)


def test_sparse_rpow_with_a_zero_inside_the_jet_is_the_dense_sum():
    # a_2 = 0 is skipped while a_3 != 0 still enters every later sum
    for x in (j(1.5, 0.3, 0, -0.7j, 0, 0, 2.0, 0), j(0.8 - 0.2j, 0, 0, 1.1, 0, 0.4j)):
        for r in (0.5, -1.75, 3.0, 12.5):
            assert _bits(jet_rpow(x, r)) == _bits(dense_rpow(x, r)), (x, r)


def test_sparse_rpow_on_array_jets_is_the_dense_sum():
    t = 0.999 * np.exp(2j * np.pi * np.arange(256) / 256)
    for x in (1.0 - _array_variable(t), 1.0 + _array_variable(t)):
        for r in (-2.0, -7.0, 2.5, -161.0):
            with np.errstate(all="ignore"):
                got, want = jet_rpow(x, r), dense_rpow(x, r)
            for g, w in zip(got.coeffs, want.coeffs):
                assert np.array_equal(g.view(np.uint64), w.view(np.uint64)), r
