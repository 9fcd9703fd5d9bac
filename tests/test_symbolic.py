"""Symbolic checks of the closed forms, exact in sympy.

Each test proves an identity the numeric routes rely on: the slice formula
at p = 2 is K2, its x -> 0 limit is axis_limit_kernel for every p, the
odd-quotient zeros solve ((1 - t)/(1 + t))^m = 1, and the simplex
restriction constant is the product of its deflation steps.  The F'' of the
Hartogs profile is checked against sympy's derivatives in s and y, and so is
every coefficient of the two-variable jet of 1/((1 - t)^p - u).
"""

import math

import numpy as np
import pytest

from bergman.jets import jet1_variable, jet2_lift_t, jet2_variable_u, jet_rpow
from bergman.kernels import _axis2_coefficients, _hartogs_fpp, simplex_restriction_constant

sp = pytest.importorskip("sympy")

xi, y, s = sp.symbols("xi y s")


def slice_formula(p):
    """(1/(4 p pi^2 xi)) [F''(xi) - F''(-xi)], F(s) = ((1-s)^p - y)^(-1),
    the slice kernel at x = xi^2 as slice_kernel_kp states it."""
    f2 = sp.diff(1 / ((1 - s) ** p - y), s, 2)
    return (f2.subs(s, xi) - f2.subs(s, -xi)) / (4 * p * sp.pi ** 2 * xi)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.5])
def test_hartogs_fpp_is_the_second_derivative(p):
    # on scalars, on the numpy arrays slice_kp_values passes it, and on the
    # jet in y that hartogs_profile passes it, whose coefficients are the
    # y-derivatives of F'' over k!
    f2 = sp.diff(1 / ((1 - s) ** sp.nsimplify(p) - y), s, 2)
    for s0, y0 in ((0.3 + 0.2j, -0.1 + 0.25j), (-0.45j, 0.05 - 0.3j), (-0.6 + 0.1j, 0.2j)):
        at = {s: sp.sympify(s0), y: sp.sympify(y0)}
        want = complex(f2.subs(at).evalf(30))
        got = _hartogs_fpp(p, s0, y0)
        (arr,) = _hartogs_fpp(p, np.array([s0]), np.array([y0]))
        assert abs(got - want) <= 1e-13 * abs(want)
        assert abs(arr - want) <= 1e-13 * abs(want)
        jet = _hartogs_fpp(p, s0, jet1_variable(y0, 3))
        for k, c in enumerate(jet.coeffs):
            want = complex(sp.diff(f2, y, k).subs(at).evalf(30)) / math.factorial(k)
            assert abs(c - want) <= 1e-13 * abs(want), k


def test_slice_formula_at_p2_is_k2():
    x = xi ** 2
    k2 = 2 / sp.pi ** 2 * (3 * (1 - x - y) * (1 - (x - y) ** 2) + 8 * x * y) \
        / ((1 - x - y) ** 2 - 4 * x * y) ** 3
    assert sp.simplify(sp.cancel(slice_formula(2) - k2)) == 0


def test_slice_axis_limit_is_axis_limit_kernel():
    p = sp.Symbol("p", positive=True)
    limit = sp.limit(slice_formula(p), xi, 0)
    a, b, c = (sp.nsimplify(e) for e in _axis2_coefficients(p))
    assert sp.simplify(limit - (a * y ** 2 + b * y + c) / (2 * sp.pi ** 2 * (1 - y) ** 4)) == 0


def test_odd_quotient_zeros_solve_the_power_equation():
    # (1 - i tan th)/(1 + i tan th) = exp(-2i th); for 0 < th = pi k/m < pi/4
    # that is the principal value, so its m-th power is exp(-2 pi i k) = 1
    k = sp.Symbol("k", integer=True)
    m = sp.Symbol("m", positive=True)
    th = sp.pi * k / m
    t = sp.I * sp.tan(th)
    assert sp.simplify(((1 - t) / (1 + t)).rewrite(sp.exp) - sp.exp(-2 * sp.I * th)) == 0
    assert sp.exp(m * -2 * sp.I * th) == 1


@pytest.mark.parametrize("n", range(2, 13))
def test_simplex_restriction_constant_is_its_deflation_product(n):
    def deflation(p, q):
        return sp.pi ** 2 * sp.gamma(p + 1) * sp.gamma(q + 1) / sp.gamma(p + q + 1)

    exact = sp.Mul(*(sp.pi / deflation(2, 2 * i) for i in range(1, n - 1)))
    assert sp.simplify(exact - sp.factorial(2 * n - 2) / (2 * (2 * sp.pi) ** (n - 2))) == 0
    got = simplex_restriction_constant(n)
    assert abs(got - float(exact)) <= 4 * n * math.ulp(float(exact))


def _two_variable_coefficients(expr, nt, nu):
    """Callables of (t0, u0), at 30 digits, for the Taylor coefficients
    d^k/ds^k d^l/dy^l expr / (k! l!) at (t0, u0), indexed [l][k]."""
    out = []
    for l in range(nu + 1):
        d, row = sp.diff(expr, y, l), []
        for k in range(nt + 1):
            row.append(sp.lambdify((s, y), d / (sp.factorial(k) * sp.factorial(l)), "mpmath"))
            d = sp.diff(d, s)
        out.append(row)
    return out


@pytest.mark.parametrize("p", [0.8, 2.0, 3.5])
def test_two_variable_jet_coefficients(p):
    # every coefficient (k, l), to orders (6, 4), of the jet of
    # f = 1/((1 - t)^p - u) in (t, u) at three centres, and of the product
    # f g, g = (1 + t)^(1/2) + u^2, whose reference is the Cauchy product of
    # the 30-digit coefficients of f and g
    mpmath = pytest.importorskip("mpmath")
    nt, nu = 6, 4
    f_ref = _two_variable_coefficients(1 / ((1 - s) ** sp.nsimplify(p) - y), nt, nu)
    g_ref = _two_variable_coefficients(sp.sqrt(1 + s) + y ** 2, nt, nu)
    for t0, u0 in ((0.3 + 0.2j, -0.1 + 0.25j), (-0.45j, 0.05 - 0.3j), (-0.6 + 0.1j, 0.2j)):
        t = jet1_variable(t0, nt)
        u = jet2_variable_u((t0, u0), (nt, nu))
        f_jet = 1.0 / (jet2_lift_t(jet_rpow(1.0 - t, p), u0, nu) - u)
        fg_jet = f_jet * (jet2_lift_t(jet_rpow(1.0 + t, 0.5), u0, nu) + u * u)
        with mpmath.workdps(30):
            at = (mpmath.mpc(t0), mpmath.mpc(u0))
            f_want, g_want = ([[c(*at) for c in row] for row in ref] for ref in (f_ref, g_ref))
            fg_want = [[sum(f_want[j][i] * g_want[l - j][k - i]
                            for j in range(l + 1) for i in range(k + 1))
                        for k in range(nt + 1)] for l in range(nu + 1)]
        for jet, want in ((f_jet, f_want), (fg_jet, fg_want)):
            for l in range(nu + 1):
                for k in range(nt + 1):
                    got, ref = jet.coeffs[l].coeffs[k], complex(want[l][k])
                    assert abs(got - ref) <= 1e-13 * abs(ref), (t0, u0, k, l)
