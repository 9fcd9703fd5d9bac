"""Closed-form kernel evaluators and the three composition principles.

The composition operators are folding (kernel of {|zeta|^(2/p) < phi} from
that of {|zeta|^2 < phi} by summing over p-th roots of unity), inflation
(scalar fiber variable replaced by a vector one, realized by derivatives of
the profile), and deflation (a two-exponent fiber pair traded for a single
merged exponent, up to an explicit Gamma-ratio constant).  Every derivative
is extracted from a jet; nothing here differentiates numerically.  Only the
profile operators build Jet1 objects; the closed forms read their jets off
coefficient lists (_recip_power_jet, one loop nest with the bits of jets._rpow1
and jets._div1) and run on a jet only if passed one.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .domains import Block, DomainSpec, _block_phi, contains, diagonal_domain, gamma_fn
from .errors import (
    BranchPointJet,
    DimensionMismatch,
    InvalidOrder,
    NonIntegerFold,
    OutsideDomain,
    PoleHit,
    UnsupportedDomain,
)
from .jets import (
    _ZERO_EPS,
    Jet1,
    _factorial_times,
    _rpow1,
    derivative_extract,
    jet1_const,
    jet1_variable,
    jet_rpow,
)

# Below this modulus of what a fold divides by (the pairing in general_folded_kernel, its
# root in the p = 2 folds) the direct form loses a factor |x|^-1; a limit branch takes over.
EPS_SWITCH = 1e-3
# largest zero-scan and locus grid: res^2 polar points; k2 floors ~res^4/1400 cells
MAX_RESOLUTION = 256


@dataclass(frozen=True)
class KernelValue:
    value: complex
    formula: str
    near_singular_limit: bool = False


@dataclass(frozen=True)
class KernelPoint:
    z: tuple[complex, ...]
    w: tuple[complex, ...]

    def __post_init__(self):
        if len(self.z) != len(self.w):
            raise OutsideDomain(
                f"point pair has mismatched lengths {len(self.z)} vs {len(self.w)}")


def pairing(z: Sequence[complex], w: Sequence[complex]) -> complex:
    return sum((a * b.conjugate() for a, b in zip(z, w)), 0j)


@dataclass(frozen=True)
class CircularKernelProfile:
    """Profile L(z, w, t) of a complete Hartogs domain kernel K = L(z, w, zeta*conj(eta)).

    ``eval`` maps a jet representing t (as a function of some underlying
    variable) to the jet of L(z, w, t(.)); evaluating on an order-0 jet gives
    the plain kernel value.
    """

    eval: Callable[[Sequence[complex], Sequence[complex], Jet1], Jet1]


def disc_profile() -> CircularKernelProfile:
    """L(t) = 1/(pi (1-t)^2), the unit-disc kernel as a profile in t = zeta*conj(eta)."""

    def ev(z, w, t: Jet1) -> Jet1:
        return jet_rpow(1.0 - t, -2.0) * (1.0 / math.pi)

    return CircularKernelProfile(eval=ev)


def hartogs_profile(p: float) -> CircularKernelProfile:
    """Profile in the fiber pairing t for {|z|^2 + |zeta|^(2/p) < 1}.

    L(z, w, t) = (1/(p pi^2)) F''(sigma), F(s) = ((1-s)^p - t)^(-1), at
    sigma = z*conj(w); _hartogs_fpp evaluates F'' on a jet in t.
    """

    def ev(z, w, t: Jet1) -> Jet1:
        return _hartogs_fpp(p, z[0] * w[0].conjugate(), t) * (1.0 / (p * math.pi ** 2))

    return CircularKernelProfile(eval=ev)


def _hartogs_fpp(p: float, s, y):
    """F''(s) of F(s) = ((1-s)^p - y)^(-1), on scalars, numpy arrays and a Jet1 y.

    With D = (1-s)^p - y and q = (1-s)^p / D,
    F'' = p q (2pq - p + 1) / ((1-s)^2 D).  D is never cubed, so F'' stays a
    normal double near the boundary at large p, where D^3 would underflow.
    """
    b = 1.0 - s
    bp = b ** p
    d = bp - y
    q = bp / d
    return p * q * (2.0 * p * q - p + 1.0) / (b * b * d)


def _recip_power_jet(tau: complex, p: float, y: complex, m: int, order: int) -> list[complex]:
    """Coefficients to ``order`` of ((1-t)^p - y)^-m at t = tau: the steps of
    b = jet_rpow(1.0 - t, p) - y and m divisions by b, on lists, so the same bits.
    The base 1 - tau - t is linear: of _rpow1's sum only the j = 1 term is left.
    Every coefficient is the same at any order.
    An interior b_0 reads 0 only where (1-tau)^p underflows, so K overflows there."""
    a0 = (1 + 0j) - complex(tau)
    if abs(a0) < _ZERO_EPS:
        raise BranchPointJet("jet constant term sits on the branch point of ^r")
    b = [a0 ** p]
    for k in range(1, order + 1):
        s = 0j + (p + 1 - k) * (-1 + 0j) * b[k - 1]
        b.append(s / (k * a0))
    b0 = b[0] = b[0] - complex(y)  # x - 0.0 is x, so only b_0 takes y
    if abs(b0) < _ZERO_EPS:
        raise OverflowError(f"(1 - tau)^p underflows to 0 at p = {p}, tau = {tau}")
    g = [1 + 0j] + [0j] * order
    for _ in range(m):
        out = [g[0] / b0]
        for k in range(1, order + 1):
            s = g[k]
            for j in range(1, k + 1):
                s = s - b[j] * out[k - j]
            out.append(s / b0)
        g = out
    return g


# The bound on a left-out filter term is multiplied by this, for the rounding
# of the bound's own few operations and of the term's read-off and factors.
_FILTER_SAFETY = 4.0
# A combination's jet stops at the last filter term whose bound is at least this
# share of the first term's: terms below it are mostly under a quarter ulp.
_FILTER_CUT = 2.0 ** -70


def _filter_bounds(tau: complex, p: float, y: complex, terms, weights,
                   order: int) -> list[float]:
    """Per filter term (deg d, factors F), a bound on d! g_d F as computed, with
    g_d the degree-d coefficient of _recip_power_jet(tau, p, y, 1, order), the
    jet of g(t) = 1/b(t), b = (1 - tau - t)^p - y; ``weights`` holds
    _FILTER_SAFETY d! |F| per term.

    Write a = |1 - tau|; a > |y|^(1/p) inside the domain.  On |t| = R below
    a - |y|^(1/p), |b| >= (a - R)^p - |y|, so |g_d| <= G R^-d with
    G = 1/((a - R)^p - |y|) (Cauchy); R is best for a pole at degree ref,
    midway between the first term's and ``order``.
    Rounding: the jet solves B g = e_0, B the Toeplitz matrix of b.  The
    computed g' solves (B + E) g' = e_0, with |E| <= gamma Bm entrywise; Bm
    holds a^p + |y| and a^(p-j) p (p+1) ... (p+j-1)/j!, which bound |b_j| and
    b_j as computed, and gamma = (8p + 16(order + 4)) 2^-53 covers the complex
    power, the products of _rpow1 and the sums of _div1.  So |g' - g| <=
    gamma |g| * Bm * |g'| coefficientwise, where |g'| is at most the majorant
    M of 1/(a^p - |y| - (Bm(t) - a^p - |y|)).  At |t| = rho, half M's radius,
    that is gamma A Bm(rho) M(rho) rho^-d, with A = G/(1 - rho/R).  The same
    majorants keep every coefficient, sum and read-off of the full-order jet
    below 2^1000, or every bound is inf.
    """
    a, ay = abs(1.0 - tau), abs(y)
    ref = (terms[0][0] + order) // 2
    try:
        ap = a ** p
        rad = a - ay ** (1.0 / p)
        big_r = min(a * ref / (p + ref), rad * ref / (ref + 1))
        cauchy = 1.0 / ((a - big_r) ** p - ay)
        rho = 0.5 * a * (1.0 - (2.0 - ay / ap) ** (-1.0 / p))
        grow = (1.0 - rho / a) ** -p
        b_rho, m_rho = ay + ap * grow, 1.0 / (ap * (2.0 - grow) - ay)
        err = ((8.0 * p + 16.0 * (order + 4)) * 2.0 ** -53 * cauchy / (1.0 - rho / big_r)
               * b_rho * m_rho)
        finite = ((b_rho + m_rho * math.factorial(order) + b_rho * m_rho) * rho ** -order
                  < 2.0 ** 1000)
    except (ZeroDivisionError, OverflowError):
        finite = False
    if not (finite and 0.0 < rho < big_r < rad and cauchy > 0.0 and m_rho > 0.0):
        return [math.inf] * len(terms)
    return [w * (cauchy * big_r ** -deg + err * rho ** -deg)
            for (deg, _), w in zip(terms, weights)]


def _slice_direct(p: float, xi, y):
    """(1/(4 p pi^2 xi)) [F''(xi) - F''(-xi)], the direct slice form, on scalars and arrays."""
    return (_hartogs_fpp(p, xi, y) - _hartogs_fpp(p, -xi, y)) / (4.0 * p * math.pi ** 2 * xi)


def _fold_exponent(p) -> int:
    if isinstance(p, (bool, complex)) or float(p) != int(p) or p < 1:
        raise NonIntegerFold(f"fold exponent must be a positive integer, got {p!r}")
    return int(p)


def fold(L: CircularKernelProfile, p: int) -> CircularKernelProfile:
    """Profile of the folded domain {|zeta|^(2/p) < phi(z)}.

    Direct branch: L_p(t) = (1/(p^2 s^(p-1))) sum_j conj(omega)^j L(z, w, s omega^j)
    with s any p-th root of t.  For |t| below EPS_SWITCH^p the root variable is
    unusable and the coefficient filter takes over: if L = sum_k a_k t^k then
    L_p(t) = (1/p) sum_i a_{(i+1)p-1} t^i.
    """
    p = _fold_exponent(p)
    if p == 1:
        return L

    # The root sum cancels the first p-1 orders, so rounding loss grows like
    # |t|^-(p-1)/p; a flat threshold on |t| keeps the loss bounded for every p
    # while the filtered series is still converged at 12 spare terms.
    series_terms = 12

    def ev(z, w, t: Jet1) -> Jet1:
        t0 = t.coeffs[0]
        if abs(t0) >= 1e-2:
            s = jet_rpow(t, 1.0 / p)
            acc = jet1_const(0.0, t.order, t.center)
            for om_bar in _conj_roots(p):
                # the root factor rides inside a conjugated pairing
                acc = acc + om_bar * L.eval(z, w, s * om_bar)
            return acc / (p * p * jet_rpow(s, p - 1.0))
        # removable-singularity branch: Taylor-filter the unfolded profile
        inner_order = (t.order + series_terms + 1) * p - 1
        base = L.eval(z, w, jet1_variable(0j, inner_order))
        out = jet1_const(0.0, t.order, t.center)
        tpow = jet1_const(1.0, t.order, t.center)
        for i in range(t.order + series_terms + 1):
            k = (i + 1) * p - 1
            out = out + (base.coeffs[k] / p) * tpow
            tpow = tpow * t
        return out

    return CircularKernelProfile(eval=ev)


def inflate(L: CircularKernelProfile, m: int):
    """Kernel evaluator with the scalar fiber replaced by a vector one in C^m.

    K(z, Z, w, W) = pi^-(m-1) d^(m-1)/dt^(m-1) L(z, w, t) at t = <Z, W>.
    Returns a callable (z, Z, w, W) -> KernelValue; m = 1 reproduces L.
    """
    if m < 1:
        raise InvalidOrder(f"inflation dimension must be >= 1, got {m}")

    def ev(z, Z, w, W) -> KernelValue:
        t0 = pairing(Z, W)
        jet = L.eval(z, w, jet1_variable(t0, m - 1))
        val = derivative_extract(jet, m - 1) / math.pi ** (m - 1)
        return KernelValue(val, "inflated")

    return ev


def ball_kernel(m: int, Z: Sequence[complex], W: Sequence[complex]) -> KernelValue:
    """Unit-ball kernel in C^m: m!/pi^m (1 - <Z,W>)^-(m+1)."""
    for pt in (Z, W):
        if not sum(abs(c) ** 2 for c in pt) < 1.0:
            raise OutsideDomain("point outside the unit ball")
    return KernelValue(ball_kernel_values(m, pairing(Z, W)), "ball")


def hartogs2_kernel(p: float, z: complex, zeta: complex,
                    w: complex, eta: complex) -> KernelValue:
    """Kernel of {|z|^2 + |zeta|^(2/p) < 1} in C^2, pflate_kernel's n = m = 1 case.

    (1/(p pi^2)) d^2/dt^2 [1/((1-t)^p - zeta*conj(eta))] at t = z*conj(w).
    """
    return KernelValue(pflate_kernel(1, 1, p, (z,), (zeta,), (w,), (eta,)).value, "hartogs2")


def pflate_kernel(n: int, m: int, p: float,
                  z: Sequence[complex], Z: Sequence[complex],
                  w: Sequence[complex], W: Sequence[complex]) -> KernelValue:
    """Kernel of {||z||^2 + ||Z||^(2/p) < 1}, z in C^n, Z in C^m.

    (1/(p pi^(n+m))) d^(n+m)/dt^(n+1) du^(m-1) [1/((1-t)^p - u)]
    at t = <z,w>, u = <Z,W>.  The u-derivative is (m-1)!/((1-t)^p - u)^m, a jet in t.
    """
    if n < 1 or m < 1:
        raise InvalidOrder(f"both block dimensions must be >= 1, got ({n},{m})")
    if (len(z), len(Z), len(w), len(W)) != (n, m, n, m):
        raise DimensionMismatch(
            f"blocks of lengths {len(z)}, {len(Z)} and {len(w)}, {len(W)} for n = {n}, m = {m}")
    for pt in (tuple(z) + tuple(Z), tuple(w) + tuple(W)):
        if not _block_phi(((n, 1.0), (m, p)), pt) < 1.0:
            raise OutsideDomain(f"point {pt} outside the domain")
    g = _recip_power_jet(pairing(z, w), p, pairing(Z, W), m, n + 1)
    val = _factorial_times(_factorial_times(g[n + 1], n + 1), m - 1)
    return KernelValue(val / (p * math.pi ** (n + m)), "pflate")


def deflation_constant(p: float, q: float) -> float:
    """pi^2 Gamma(p+1) Gamma(q+1) / Gamma(p+q+1)."""
    return math.pi ** 2 * gamma_fn(p + 1.0) * gamma_fn(q + 1.0) / gamma_fn(p + q + 1.0)


def deflation_pair(base: DomainSpec, p: float, q: float):
    """Both sides of the deflation identity over the given base domain.

    With phi the defining function of ``base``, relates the kernel of
    {phi + |zeta|^(2/(p+q)) < 1} (one merged fiber) to the kernel of
    {phi + |zeta1|^(2/p) + |zeta2|^(2/q) < 1} (a fiber pair), both restricted
    to fiber = 0:

        pi * K_merged(z, 0, w, 0) = C * K_pair(z, 0, 0, w, 0, 0)

    Returns (lhs evaluator, rhs evaluator, C); the evaluators take base-slice
    points (z, w) and are backed by the series oracle, so the identity is a
    genuine cross-check rather than one formula printed twice.
    """
    from .oracle import SeriesConfig, series_kernel

    exps = base.exponents()
    merged = diagonal_domain(*exps, p + q)
    paired = diagonal_domain(*exps, p, q)
    constant = deflation_constant(p, q)
    cfg = SeriesConfig()

    def lhs(z: Sequence[complex], w: Sequence[complex]) -> complex:
        zz = tuple(z) + (0j,)
        ww = tuple(w) + (0j,)
        return math.pi * series_kernel(merged, zz, ww, cfg).value

    def rhs(z: Sequence[complex], w: Sequence[complex]) -> complex:
        zz = tuple(z) + (0j, 0j)
        ww = tuple(w) + (0j, 0j)
        return constant * series_kernel(paired, zz, ww, cfg).value

    return lhs, rhs, constant


# 171! is the least factorial above the largest double.
_BIG_DEG = 171


@functools.lru_cache(maxsize=64)
def _conj_roots(p: int) -> tuple[complex, ...]:
    """conj(omega)^j for j = 1..p, omega = exp(2 pi i / p): a fold's root factors."""
    return tuple(cmath.exp(-2j * math.pi * j / p) for j in range(1, p + 1))


def general_folded_kernel(p_list: Sequence[int], p: float, pt: KernelPoint,
                          root_choice: Sequence[int] | None = None) -> KernelValue:
    """Kernel of |z_1|^(2/p_1) + ... + |z_n|^(2/p_n) + |z_{n+1}|^(2/p) < 1.

    The p_k must be positive integers; the last exponent p may be any positive
    real.  ``pt`` carries the domain coordinates; internally any p_k-th roots
    of the pairings are selected (``root_choice`` shifts the selection for the
    invariance tests; the value must not depend on it).

    Coordinates whose pairing modulus falls below EPS_SWITCH are folded by the
    Taylor coefficient filter instead of the root sum, which removes the
    0/0 at the axes exactly.
    """
    n = len(p_list)
    p_list = [_fold_exponent(pk) for pk in p_list]
    if len(pt.z) != n + 1:
        raise OutsideDomain(
            f"point has {len(pt.z)} coordinates, expected {n + 1}")
    blocks = [(1, float(q)) for q in p_list + [p]]
    for ptt in (pt.z, pt.w):
        if not _block_phi(blocks, ptt) < 1.0:
            raise OutsideDomain(f"point {ptt} outside the domain")

    v = [pt.z[k] * pt.w[k].conjugate() for k in range(n)]
    y = pt.z[n] * pt.w[n].conjugate()
    offsets = tuple(root_choice) if root_choice is not None else (0,) * n

    direct = [k for k in range(n) if p_list[k] == 1 or abs(v[k]) >= EPS_SWITCH]
    series = [k for k in range(n) if k not in direct]

    # per direct coordinate: its p_k-th root s of the pairing, shifted by the
    # requested branch, and the pairs (s conj(omega)^j, conj(omega)^j)
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
        roots.append([(sk * om, om) for om in _conj_roots(pk)])
    for k in series:
        prefactor = prefactor / p_list[k]

    # Taylor filter: series coordinate k contributes v_k^i / b! times g^(b),
    # b = (i+1) p_k - 1, i <= series_imax (i = 0 at a zero pairing); one fixed
    # order of terms, the first coordinate fastest, factors in coordinate order
    series_imax = 10
    order = n + 1 + sum((series_imax + 1) * p_list[k] - 1 for k in series)
    # from order 171 on, deg! and b! may exceed a double: every term then reads
    # off g_deg times deg!/prod b! = (n+1)! prod_k C(n+1+b_1+...+b_k, b_k) and
    # the v_k^i, each exact integer beside its power: one ratio may not fit a double
    exact = order >= _BIG_DEG
    terms = [(n + 1, [math.factorial(n + 1)] if exact else [])]
    for k in series:
        filt = [(b, v[k] ** i if exact else v[k] ** i / math.factorial(b))
                for i, b in enumerate(range(p_list[k] - 1, (
                    series_imax + 1 if v[k] != 0 else 1) * p_list[k], p_list[k]))]
        terms = [(deg + b, factors + ([math.comb(deg + b, b), f] if exact else [f]))
                 for b, f in filt for deg, factors in terms]
    # a combination's jet stops at the last term that _filter_bounds cannot show
    # to be below a quarter ulp of both parts of the sum at its place; a term
    # past it that fails that test brings in the full order, for this and every
    # later combination, and the first coefficients are the same bits at any order
    bounded = len(terms) > 1 and not exact  # the bounds take order! as a float
    weights = [_FILTER_SAFETY * math.factorial(deg) * math.prod(map(abs, factors))
               for deg, factors in terms] if bounded else []
    bounds = [math.inf] * len(terms)
    short = max(deg for deg, _ in terms)

    total = 0j
    for combo in itertools.product(*roots):
        tau, weight = 0j, 1.0 + 0j
        for term, om_bar in combo:
            tau += term
            weight *= om_bar
        if bounded:
            bounds = _filter_bounds(tau, p, y, terms, weights, order)
            cut = bounds[0] * _FILTER_CUT
            short = max(deg for (deg, _), bound in zip(terms, bounds) if not bound < cut)
        g = _recip_power_jet(tau, p, y, 1, short)
        contrib, room = 0j, None
        for (deg, factors), bound in zip(terms, bounds):
            if deg >= len(g):
                if room is None:
                    room = 0.25 * min(math.ulp(contrib.real), math.ulp(contrib.imag))
                if bound < room:
                    continue
                g = _recip_power_jet(tau, p, y, 1, order)
                bounded, short = False, order
            contrib += math.prod(factors, start=g[deg] if exact else
                                 _factorial_times(g[deg], deg))
            room = None
        total += weight * contrib
    return KernelValue(prefactor * total, "folded",
                       near_singular_limit=bool(series))


def slice_kernel_kp(p: float, x: complex, y: complex) -> KernelValue:
    """Kernel of {|z_1| + |z_2|^(2/p) < 1} at slice pairings x = z1*conj(w1), y = z2*conj(w2).

    Direct form (xi = principal square root of x):

        (1/(4 p pi^2 xi)) [F''(xi) - F''(-xi)],   F(s) = ((1-s)^p - y)^(-1)

    For |xi| < EPS_SWITCH it is the _odd_limit of F'', read off an order-7
    jet of F, which is exact at x = 0.  An interior D = (1-s)^p - y
    reads 0 only where (1-xi)^p underflows, and K overflows there: that
    raises OverflowError.
    """
    if not math.sqrt(abs(x)) + abs(y) ** (1.0 / p) < 1.0:
        raise OutsideDomain(f"slice pairings ({x}, {y}) not reachable from inside")
    xi = cmath.sqrt(x)
    if abs(xi) >= EPS_SWITCH:
        try:
            return KernelValue(_slice_direct(p, xi, y), "slice_kp")
        except ZeroDivisionError:
            raise OverflowError(
                f"(1 - xi)^p underflows to 0 at p = {p}, xi = {xi}") from None
    c = _recip_power_jet(0j, p, y, 1, 7)
    fpp = [(k + 1) * (k + 2) * c[k + 2] for k in range(6)]
    return KernelValue(_odd_limit(fpp, xi) / (p * math.pi ** 2), "slice_kp",
                       near_singular_limit=True)


def axis_limit_kernel(p: float, y: complex) -> complex:
    """x -> 0 limit of slice_kernel_kp along the second slice variable.

    (1/(2 pi^2)) [y^2 (p^2-3p+2) + 4 y (p^2-1) + (p^2+3p+2)] / (1-y)^4.

    The slice kernel is analytic in x, so the limit is approached linearly:
    slice_kernel_kp(p, x, y) = axis_limit_kernel(p, y) + O(|x|).  Continued
    to y = -1, where (1-y)^4 = 16, the value is -(p^2-4)/(16 pi^2), which is
    negative for p > 2.  Evaluates on scalars and jets alike.
    """
    a, b, c = _axis2_coefficients(p)
    return (y * y * a + b * y + c) / (2.0 * math.pi ** 2 * (1.0 - y) ** 4.0)


def _axis2_coefficients(p: float) -> tuple[float, float, float]:
    """(a, b, c) of the numerator a y^2 + b y + c of axis_limit_kernel."""
    return p * p - 3.0 * p + 2.0, 4.0 * (p * p - 1.0), p * p + 3.0 * p + 2.0


def k2_closed_form(x: complex, y: complex) -> KernelValue:
    """The p = 2 slice kernel as a single rational function.

    K2 = (2/pi^2) [3(1-x-y)(1-(x-y)^2) + 8xy] / ((1-x-y)^2 - 4xy)^3.
    The boundary is allowed so the boundary zero at (-1, 0) is representable.
    """
    if not math.sqrt(abs(x)) + math.sqrt(abs(y)) <= 1.0 + 1e-12:
        raise OutsideDomain(f"slice pairings ({x}, {y}) not reachable")
    try:
        return KernelValue(k2_values(x, y), "k2_closed")
    except ZeroDivisionError:
        raise PoleHit(f"denominator vanished at ({x}, {y})") from None


def _k2_terms(x, y):
    """(num, delta) of K2 = (2/pi^2) num / delta^3, on scalars, arrays and jets."""
    s = 1.0 - x - y
    return 3.0 * s * (1.0 - (x - y) ** 2) + 8.0 * x * y, s ** 2 - 4.0 * x * y


def _k2_cell_floor(xc, yc, hx, hy):
    """Lower bound on |K2| on the bidisc |x - xc| <= hx, |y - yc| <= hy.

    num and delta are exact second-order Taylor sums about the centre.  With
    s = 1 - x - y, d = x - y and h = hx + hy, the remainder of delta is
    (u - v)^2, u = x - xc, v = y - yc, so at most h^2, and that of num is
    3(-s_c (u - v)^2 + 2 d_c (u + v)(u - v) + (u + v)(u - v)^2) + 8uv, at most
    3(2|d_c| + |s_c| + h) h^2 + 8 hx hy.  A relative margin of 1e-6, taken by
    the caller, covers rounding here and in K2.  |num| stays near or above
    0.05 on the scan's grids (0.057 at res 256), against terms below 11, so
    K2 rounds by some 1e-13 of itself.  Every cell the scan skips keeps |num_c|
    less its linear and remainder terms above 3e-5 (res 8-96 and every 12th to
    256, least at 240), against terms below 8: that difference rounds by under
    1e-13, under 1e-8 of the floor.  On a radius pair's bidisc about the
    origin num = 3 and delta = 1 exactly, and every pair the scan drops keeps
    that difference above 0.26 (res 8-256).  The floor stands for the cell's
    mirrored grid points too, where |K2| is within 2e-13 of itself (res 48
    and 256)."""
    import numpy as np

    s, d, xy = 1.0 - xc - yc, xc - yc, xc * yc
    e, f = 3.0 - 3.0 * (d * d), 6.0 * (s * d)
    num, delta = s * e + 8.0 * xy, s * s - 4.0 * xy
    h = hx + hy
    lo = (abs(num) - abs(8.0 * yc - e - f) * hx - abs(8.0 * xc - e + f) * hy
          - 3.0 * (2.0 * abs(d) + abs(s) + h) * h * h - 8.0 * hx * hy)
    # the gradient of delta is -2(1 - d, 1 + d)
    hi = abs(delta) + 2.0 * (abs(1.0 - d) * hx + abs(1.0 + d) * hy) + h * h
    return (2.0 / math.pi ** 2) * np.maximum(lo, 0.0) / (hi * hi * hi)


def simplex_restriction_constant(n: int) -> float:
    """Accumulated deflation constant relating the C^n simplex-norm kernel
    restricted to one coordinate to the two-dimensional slice kernel.

    Each of the n-2 merge steps trades a (2, 2i) fiber pair for a single
    2(i+1) fiber and contributes pi / C(2, 2i).
    """
    c = 1.0
    for i in range(1, n - 1):
        c *= math.pi / deflation_constant(2.0, 2.0 * i)
    return c


def mixed_family_kernel(n: int, z: Sequence[complex],
                        w: Sequence[complex]) -> KernelValue:
    """Kernel of {|z_1| + |z_2|^2 + ... + |z_n|^2 < 1}, points in root coordinates.

    Folding the C^n ball kernel in the first coordinate gives, with
    v = z1*conj(w1) and t' = sum_{k>=2} z_k*conj(w_k),

        K = (n!/pi^n) (1/(4v)) [(1 - t' - v)^-(n+1) - (1 - t' + v)^-(n+1)]

    which is the odd quotient below at a = 1 - t', with its small-|v| series.
    """
    if n < 2:
        raise InvalidOrder(f"dimension must be >= 2, got {n}")
    for ptt in (z, w):
        if not sum(abs(c) ** 2 for c in ptt) < 1.0:
            raise OutsideDomain("point outside the unit ball in root coordinates")
    v = z[0] * w[0].conjugate()
    tp = sum(a * b.conjugate() for a, b in zip(z[1:], w[1:]))
    val = _odd_quotient(1.0 - tp, n + 1.0, _mixed_scale(n), v)
    return KernelValue(val, "mixed_family", abs(v) < EPS_SWITCH)


def _mixed_scale(n: int) -> float:
    """n!/pi^n; pi^n first, so n >= 621 overflows before n! is built."""
    pi_n = math.pi ** n
    return math.factorial(n) / pi_n


def _odd_quotient(a, m: float, scale: float, t):
    """scale * [(a - t)^-m - (a + t)^-m] / (4t) on scalars, arrays and jets; odd
    in t, so for |t| < EPS_SWITCH it is scale times the _odd_limit of (a - t)^-m.
    An array entry takes the branch, and the bits, of that entry alone: numpy's
    whole-array abs and products may round apart from its scalar ones, so the
    entries within ulps of EPS_SWITCH and the limit go entry by entry."""
    small = not isinstance(t, Jet1) and abs(t) < EPS_SWITCH
    u = t
    if getattr(small, "ndim", 0):
        import numpy as np

        for i in np.flatnonzero(abs(abs(t) - EPS_SWITCH) < 1e-15 * EPS_SWITCH):
            small.flat[i] = abs(t.flat[i]) < EPS_SWITCH
        u = np.where(small, EPS_SWITCH, t)  # a stand-in where the limit goes
    elif small:
        return scale * _odd_limit(_rpow1([complex(a), -1 + 0j, 0j, 0j, 0j, 0j], -m), t)
    out = scale * ((a - u) ** -m - (a + u) ** -m) / (4.0 * u)
    if u is not t:
        out[small] = [_odd_quotient(a, m, scale, x) for x in t[small]]
    return out


def _odd_limit(c, t):
    """[g(t) - g(-t)] / (4t) = (c1 + c3 t^2 + c5 t^4)/2 + O(t^6), c the Taylor
    coefficients of g at 0: the small-argument rule of both p = 2 folds.  The
    slice's F'' factors 6, 20, 42 over p pi^2 are (12, 40, 84)/2 over 4 p pi^2,
    and scaling by 2 is exact in binary, so the slice limit keeps its bits."""
    return 0.5 * (c[1] + c[3] * t ** 2 + c[5] * t ** 4)


def evaluate(d: DomainSpec, z: Sequence[complex], w: Sequence[complex]) -> KernelValue:
    """Kernel value at (z, w) by the closed form for the block structure.

    The blocks are sorted stably, z and w with them: p = 1, p = 2, other integer
    p, then the rest by p.  With n the p = 1 coordinates: one block or no other is
    the ball, one other (1, 2) mixed_family, any other one (m, p) pflate.  Beyond
    that a vector block raises UnsupportedDomain; else (2, 2) or (2, p) alone is
    k2_closed or slice_kp, integer p but the last folded, else the series oracle.
    A point outside d raises OutsideDomain, and a non-finite value OverflowError.
    """
    for label, pt in (("z", z), ("w", w)):
        if not contains(d, pt):
            raise OutsideDomain(f"{label} = {list(pt)} lies outside the domain")
    # float(p): an int p has no is_integer before Python 3.12
    rank = [(0 if p == 1 else 1 if p == 2 else 2 if p.is_integer() else 3, p)
            for p in (float(b.p) for b in d.blocks)]
    order = sorted(range(len(rank)), key=rank.__getitem__)
    starts = list(itertools.accumulate((b.dim for b in d.blocks), initial=0))
    idx = [k for j in order for k in range(starts[j], starts[j + 1])]
    z, w = (tuple(pt[k] for k in idx) for pt in (z, w))
    kv = _route(tuple(d.blocks[j] for j in order), z, w)
    if not math.isfinite(abs(kv.value)):
        raise OverflowError(f"|K| = {abs(kv.value)} is not finite")
    return kv


def _route(blocks: tuple[Block, ...], z: tuple, w: tuple) -> KernelValue:
    n = sum(b.dim for b in blocks if b.p == 1)
    rest = [b for b in blocks if b.p != 1]
    if len(blocks) == 1 or not rest:
        return ball_kernel(len(z), z, w)
    if rest == [Block(1, 2.0)]:
        # K is even in the root coordinate, so either square root serves
        return mixed_family_kernel(n + 1, (cmath.sqrt(z[n]),) + z[:n],
                                   (cmath.sqrt(w[n]),) + w[:n])
    if len(rest) == 1:
        return pflate_kernel(n, rest[0].dim, rest[0].p, z[:n], z[n:], w[:n], w[n:])
    if any(b.dim > 1 for b in rest):
        raise UnsupportedDomain("no evaluator for blocks " + " + ".join(
            f"({b.dim}, {repr(float(b.p)).removesuffix('.0')})" for b in blocks)
            + ": a vector block with p != 1 beside another block with p != 1")
    ps = (1.0,) * n + tuple(b.p for b in rest)
    if n == 0 and len(ps) == 2 and ps[0] == 2:
        x, y = z[0] * w[0].conjugate(), z[1] * w[1].conjugate()
        return k2_closed_form(x, y) if ps[1] == 2 else slice_kernel_kp(ps[1], x, y)
    if all(float(p).is_integer() for p in ps[:-1]):
        return general_folded_kernel([int(p) for p in ps[:-1]], ps[-1], KernelPoint(z, w))
    from .oracle import SeriesConfig, series_kernel

    return series_kernel(diagonal_domain(*ps), z, w, SeriesConfig())


def ball_kernel_values(m: int, t: np.ndarray) -> np.ndarray:
    """Vectorized ball kernel over pairings t = <Z, W>."""
    return math.factorial(m) / (math.pi ** m * (1.0 - t) ** (m + 1))


def k2_values(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """k2_closed_form over arrays of slice pairings, or on a jet in x.

    No domain or pole check, unlike k2_closed_form.
    """
    num, delta = _k2_terms(x, y)
    return 2.0 * num / (math.pi ** 2 * delta ** 3.0)


def slice_kp_values(p: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Vectorized slice_kernel_kp over arrays of slice pairings.

    Entries with |x| below EPS_SWITCH^2 fall back to the scalar limit path.
    numpy's whole-array sqrt and abs round apart from the scalar ones, so the
    entries within ulps of the switch take the branch slice_kernel_kp takes.
    """
    import numpy as np

    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    xi = np.sqrt(x)
    r = np.abs(xi)
    small = r < EPS_SWITCH
    for i in np.flatnonzero(abs(r - EPS_SWITCH) < 1e-15 * EPS_SWITCH):
        small.flat[i] = abs(cmath.sqrt(x.flat[i])) < EPS_SWITCH
    out = np.empty_like(xi)
    out[~small] = _slice_direct(p, xi[~small], y[~small])
    if np.any(small):
        flat = np.argwhere(small)
        for pos in flat:
            idx = tuple(pos)
            out[idx] = slice_kernel_kp(p, complex(x[idx]), complex(y[idx])).value
    return out
