"""Independent numerical oracles used only by the test suite.

Finite differences here are deliberately formula-free: central stencils plus
Richardson extrapolation on plain point evaluations, so that agreement with
the jet engine is evidence and not circularity.

Accuracy note, measured while tuning: for derivative orders 5 and 6 the
rounding noise of a k-th order stencil grows like eps/h^k while truncation
forces h below a fraction of the pole distance, and the two constraints leave
central differences a floor of roughly 1e-6..5e-6 relative error in double
precision for the function families used.  fd_derivative_best gets close to
that floor by scanning a step ladder and trusting the best-agreeing pair.
Orders through 4 are comfortably below 1e-6.
"""

import cmath
import itertools
import math

from bergman.domains import diagonal_domain, log_monomial_norm_sq
from bergman.errors import NoConvergence
from bergman.jets import Jet1, derivative_extract, jet1_variable, jet_rpow
from bergman.kernels import (
    EPS_SWITCH,
    KernelValue,
    _odd_limit,
    pairing,
    simplex_restriction_constant,
    slice_kernel_kp,
)
from bergman.zeros import DEFAULT_SCAN_MARGIN, newton_refine

# central stencils with O(h^2) truncation error, keyed by derivative order
_STENCILS = {
    0: {0: 1.0},
    1: {-1: -0.5, 1: 0.5},
    2: {-1: 1.0, 0: -2.0, 1: 1.0},
    3: {-2: -0.5, -1: 1.0, 1: -1.0, 2: 0.5},
    4: {-2: 1.0, -1: -4.0, 0: 6.0, 1: -4.0, 2: 1.0},
    5: {-3: -0.5, -2: 2.0, -1: -2.5, 1: 2.5, 2: -2.0, 3: 0.5},
    6: {-3: 1.0, -2: -6.0, -1: 15.0, 0: -20.0, 1: 15.0, 2: -6.0, 3: 1.0},
}


def _stencil_1d(f, x0, k, h):
    if k == 0:
        return f(x0)
    acc = 0j
    for j, c in _STENCILS[k].items():
        acc += c * f(x0 + j * h)
    return acc / h ** k


def fd_derivative(f, x0, k, h=0.08, levels=2, rho=2.0):
    """k-th derivative of f at x0 by central differences + Richardson."""
    vals = [_stencil_1d(f, x0, k, h / rho ** i) for i in range(levels + 1)]
    for lev in range(1, levels + 1):
        factor = rho ** (2 * lev)
        vals = [(factor * vals[i + 1] - vals[i]) / (factor - 1.0)
                for i in range(len(vals) - 1)]
    return vals[0]


def fd_derivative_best(f, x0, k):
    """Step-adaptive variant for high orders.

    Runs a level-4 Richardson scheme with refinement ratio 1.5 (the gentle
    ratio keeps the finest step large, which is what controls rounding at
    k >= 5) over a ladder of base steps, then returns the estimate at the
    step whose successive ladder values agree best.
    """
    steps = [0.34 * 0.88 ** i for i in range(14)]
    ests = [fd_derivative(f, x0, k, h=h, levels=4, rho=1.5) for h in steps]
    return _best_of_ladder(ests)


def fd_partial(f, t0, u0, k, l, h=0.08, levels=2, rho=2.0, uscale=0.5):
    """Mixed partial d^{k+l} f / dt^k du^l at (t0, u0), nested stencils.

    The u step is half the t step: the u displacement shifts the poles seen
    by the t stencil, so keeping it small buys truncation accuracy at almost
    no rounding cost (l stays <= 2 here).
    """

    def one(step):
        acc = 0j
        for i, ci in _STENCILS[k].items():
            for j, cj in _STENCILS[l].items():
                acc += ci * cj * f(t0 + i * step, u0 + j * step * uscale)
        return acc / (step ** k * (step * uscale) ** l)

    vals = [one(h / rho ** i) for i in range(levels + 1)]
    for lev in range(1, levels + 1):
        factor = rho ** (2 * lev)
        vals = [(factor * vals[i + 1] - vals[i]) / (factor - 1.0)
                for i in range(len(vals) - 1)]
    return vals[0]


def fd_partial_best(f, t0, u0, k, l):
    """Step-ladder best-agreement version of fd_partial."""
    steps = [0.26 * 0.88 ** i for i in range(16)]
    ests = [fd_partial(f, t0, u0, k, l, h=h, levels=4, rho=1.5) for h in steps]
    return _best_of_ladder(ests)


def _best_of_ladder(ests):
    """Pick the ladder entry where a 3-wide window agrees best.

    A two-point gap can dip by coincidence when the truncation term changes
    sign between steps; requiring three consecutive estimates to huddle makes
    the selection robust.
    """
    best = ests[0]
    best_gap = None
    for i in range(len(ests) - 2):
        gap = max(abs(ests[i + 1] - ests[i]), abs(ests[i + 2] - ests[i + 1]))
        if best_gap is None or gap < best_gap:
            best_gap = gap
            best = ests[i + 1]
    return best


def rational_pole_distance(p, u0, t0):
    """Distance from t0 to the nearest pole of 1/((1-t)^p - u0).

    Poles sit at t = 1 - s with s = |u0|^(1/p) e^{i(arg u0 + 2 pi k)/p} and
    Arg(s) in (-pi, pi], matching the principal branch used everywhere.
    """
    if u0 == 0:
        return abs(1.0 - t0)
    r = abs(u0) ** (1.0 / p)
    a = cmath.phase(u0)
    best = math.inf
    for k in range(-5, 6):
        ang = (a + 2.0 * math.pi * k) / p
        if -math.pi < ang <= math.pi:
            best = min(best, abs(t0 - (1.0 - r * cmath.exp(1j * ang))))
    return best


def quad_monomial_norm(ps, alphas):
    """Monomial L2 norm on sum |z_j|^(2/p_j) < 1 by nested radial quadrature.

    Integrates prod |z_j|^(2 a_j) over the domain as iterated 1-dim integrals
    in the radii, each angular factor contributing 2 pi.  Slow but independent
    of the Gamma closed form.
    """
    from scipy.integrate import quad

    n = len(ps)

    def inner(level, budget):
        if level == n:
            return 1.0
        p, a = ps[level], alphas[level]
        upper = budget ** (p / 2.0)
        if upper <= 0.0:
            return 0.0
        val, _ = quad(
            lambda r: r ** (2 * a + 1) * inner(level + 1, budget - r ** (2.0 / p)),
            0.0, upper, epsabs=1e-14, epsrel=1e-11, limit=300)
        return val

    return (2.0 * math.pi) ** n * inner(0, 1.0)


def slice_x_coefficient(p, y, a):
    """Coefficient of x^a in the (p, 2) slice kernel, as a series in y.

    On {|z_1| + |z_2|^(2/p) < 1}, i.e. diagonal_domain(2, p), the kernel at
    slice pairings x = z1*conj(w1), y = z2*conj(w2) is
    sum_{a,b} x^a y^b / N(a, b), with N(a, b) the squared monomial norm of
    z1^a z2^b.  Returns sum_b y^b / N(a, b), summed until a term drops below
    1e-17 of the partial sum.  Needs |y| < 1.  Uses the monomial norms only,
    never a slice closed form.
    """
    d = diagonal_domain(2.0, p)
    acc = 0j
    yb = 1.0 + 0j
    b = 0
    while True:
        term = yb / math.exp(log_monomial_norm_sq(d, (a, b)))
        acc += term
        if b > 0 and abs(term) <= 1e-17 * abs(acc):
            return acc
        yb *= y
        b += 1


def jet_fpp(p, s, y):
    """F''(s) of F(s) = ((1-s)^p - y)^(-1) read off an order-2 jet.

    A derivation independent of the library's scaled F'': the jet
    reciprocal of (1-s)^p - y, which never cubes the denominator either.
    """
    return derivative_extract(1.0 / (jet_rpow(1.0 - jet1_variable(s, 2), p) - y), 2)


def simplex_restricted_kernel(n, x):
    """Kernel of |z_1| + ... + |z_n| < 1 on the slice z_2 = ... = z_n = 0.

    Equals c_n * K_(2n-2)(x, 0) with c_n from iterated deflation; x is the
    pairing z1*conj(w1) of the remaining coordinate.  The deflation-side
    reference against which the folded and odd-quotient routes are checked.
    """
    inner = slice_kernel_kp(2.0 * n - 2.0, x, 0j)
    return KernelValue(simplex_restriction_constant(n) * inner.value,
                       "simplex_restricted", inner.near_singular_limit)


def polar_scan_reference(slc, resolution, tol=1e-9):
    """(roots, min_modulus) of the one-cell-at-a-time polar scan.

    Scalar evaluations on the grid of grid_zero_scan, strict local minima of
    |f| (or cells below tol) refined by Newton, roots in |t| <= 0.999 kept
    once within 1e-8; roots sorted like a ZeroReport.
    """
    rmax = 1.0 - DEFAULT_SCAN_MARGIN
    rs = [rmax * (i + 1) / resolution for i in range(resolution)]
    thetas = [2.0 * math.pi * j / resolution for j in range(resolution)]
    mods = [[abs(slc.eval(r * cmath.exp(1j * th))) for th in thetas] for r in rs]

    def strict_min(i, j):
        here = mods[i][j]
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            ii, jj = i + di, (j + dj) % resolution
            if 0 <= ii < resolution and mods[ii][jj] <= here:
                return False
        return True

    roots = []
    for i, r in enumerate(rs):
        for j, th in enumerate(thetas):
            if not strict_min(i, j) and mods[i][j] >= tol:
                continue
            try:
                root = newton_refine(slc, r * cmath.exp(1j * th), tol=tol)
            except NoConvergence:
                continue
            if abs(root) <= 0.999 and all(abs(root - q) > 1e-8 for q in roots):
                roots.append(root)
    roots.sort(key=lambda q: (q.real, q.imag))
    return roots, min(min(row) for row in mods)


def k2_scan_reference(slc, resolution):
    """min_modulus of the two-variable scan, one first pairing per eval_many
    call, over the same admissible grid and in the same order."""
    import numpy as np

    rmax = 1.0 - DEFAULT_SCAN_MARGIN
    side = np.linspace(rmax / resolution, rmax, resolution)
    phase = np.exp(1j * (2.0 * math.pi * np.arange(resolution) / resolution))
    y_flat = (side[:, None] * phase[None, :]).ravel()
    root_y = np.sqrt(np.abs(y_flat))
    min_mod = math.inf
    for rx in side:
        ys = y_flat[math.sqrt(rx) + root_y < 1.0 - 1e-9]
        if ys.size == 0:
            continue
        for x0 in rx * phase:
            min_mod = min(min_mod, float(np.abs(slc.eval_many(x0, ys)).min()))
    return min_mod


# ------------------------------------------- Jet1-object references, dense
# The fold, pflate and the slice limit read the jet of ((1-t)^p - y)^-m off
# one list-level helper, the odd-quotient limit takes its power on a list, and
# every jet power skips zero terms of its base.  These are the same formulas
# through Jet1 objects and the full O(N^2) recurrence, kept to pin the bits.


def _read_off(c, k):
    """k! c multiplied up by 2, 3, ..., k in turn (k! c in one step rounds differently)."""
    for i in range(2, k + 1):
        c = c * i
    return c


def dense_rpow(a, r):
    """Principal-branch a^r by the power recurrence, summing every term."""
    a0 = a.coeffs[0]
    n = a.order
    out = [0j] * (n + 1)
    out[0] = a0 ** r
    for k in range(1, n + 1):
        s = 0j
        for j in range(1, k + 1):
            s += (j * (r + 1) - k) * a.coeffs[j] * out[k - j]
        out[k] = s / (k * a0)
    return Jet1(a.center, tuple(out))


def folded_reference(p_list, p, pt, root_choice=None):
    """general_folded_kernel's value through Jet1 objects, no domain check."""
    n = len(p_list)
    v = [pt.z[k] * pt.w[k].conjugate() for k in range(n)]
    y = pt.z[n] * pt.w[n].conjugate()
    offsets = tuple(root_choice) if root_choice is not None else (0,) * n
    direct = [k for k in range(n) if p_list[k] == 1 or abs(v[k]) >= EPS_SWITCH]
    series = [k for k in range(n) if k not in direct]
    prefactor = 1.0 / (p * math.pi ** (n + 1))
    roots = []
    for k in direct:
        pk = p_list[k]
        if pk == 1:
            sk = v[k]
        else:
            ang = (cmath.phase(v[k]) + 2.0 * math.pi * offsets[k]) / pk
            sk = abs(v[k]) ** (1.0 / pk) * cmath.exp(1j * ang)
        prefactor = prefactor / (pk * pk * sk ** (pk - 1))
        oms = [cmath.exp(-2j * math.pi * j / pk) for j in range(1, pk + 1)]
        roots.append([(sk * om, om) for om in oms])
    for k in series:
        prefactor = prefactor / p_list[k]
    series_imax = 10
    filt = [[(b, v[k] ** i / math.factorial(b)) for i, b in enumerate(range(
        p_list[k] - 1, (series_imax + 1 if v[k] != 0 else 1) * p_list[k], p_list[k]))]
        for k in reversed(series)]
    terms = [(n + 1 + sum(b for b, _ in idx), [f for _, f in reversed(idx)])
             for idx in itertools.product(*filt)]
    order = n + 1 + sum((series_imax + 1) * p_list[k] - 1 for k in series)
    total = 0j
    for combo in itertools.product(*roots):
        tau, weight = 0j, 1.0 + 0j
        for term, om_bar in combo:
            tau += term
            weight *= om_bar
        g = 1.0 / (dense_rpow(1.0 - jet1_variable(tau, order), p) - y)
        contrib = 0j
        for deg, factors in terms:
            contrib += math.prod(factors, start=_read_off(g.coeffs[deg], deg))
        total += weight * contrib
    return prefactor * total


def recip_power_reference(tau, p, y, m, order):
    """_recip_power_jet's coefficients through Jet1 objects: (1 - t)^p - y at
    t = tau by the dense recurrence, 1 divided by it, then m - 1 more divisions."""
    b = dense_rpow(1.0 - jet1_variable(tau, order), p) - y
    g = 1.0 / b
    for _ in range(m - 1):
        g = g / b
    return list(g.coeffs)


def pflate_reference(n, m, p, z, Z, w, W):
    """pflate_kernel's value through Jet1 objects, no domain check."""
    b = dense_rpow(1.0 - jet1_variable(pairing(z, w), n + 1), p) - pairing(Z, W)
    g = 1.0 / b
    for _ in range(m - 1):
        g = g / b
    val = _read_off(_read_off(g.coeffs[n + 1], n + 1), m - 1)
    return val / (p * math.pi ** (n + m))


def slice_limit_reference(p, x, y):
    """slice_kernel_kp's small-|xi| value through Jet1 objects."""
    c = (1.0 / (dense_rpow(1.0 - jet1_variable(0j, 7), p) - y)).coeffs
    fpp = [(k + 1) * (k + 2) * c[k + 2] for k in range(6)]
    return _odd_limit(fpp, cmath.sqrt(x)) / (p * math.pi ** 2)


def odd_limit_reference(a, m, scale, t):
    """_odd_quotient's small-|t| value through Jet1 objects."""
    return scale * _odd_limit(dense_rpow(a - jet1_variable(0j, 5), -m).coeffs, t)
