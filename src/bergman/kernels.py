"""Closed-form kernel evaluators and the three composition principles.

The composition operators are folding (kernel of {|zeta|^(2/p) < phi} from
that of {|zeta|^2 < phi} by summing over p-th roots of unity), inflation
(scalar fiber variable replaced by a vector one, realized by derivatives of
the profile), and deflation (a two-exponent fiber pair traded for a single
merged exponent, up to an explicit Gamma-ratio constant).  Every derivative
is extracted from a jet; nothing here differentiates numerically.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .domains import Block, DomainSpec, contains, diagonal_domain, gamma_fn
from .errors import (
    InvalidOrder,
    NonIntegerFold,
    OutsideDomain,
    PoleHit,
    UnsupportedDomain,
)
from .jets import (
    Jet1,
    derivative_extract,
    jet1_const,
    jet1_variable,
    jet2_lift_t,
    jet2_variable_u,
    jet_rpow,
    partial_extract,
)

# Below this modulus of the folded (root) variable the direct formula loses
# about |x|^-1 digits to cancellation and the odd-jet limit branch takes over.
EPS_SWITCH = 1e-3

# candidate-pole guard for closed-form denominators
_POLE_EPS = 1e-14


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

    L(z, w, t) = (1/(p pi^2)) d^2/dsigma^2 [1/((1-sigma)^p - t)] at sigma = z*conj(w).
    The two sigma-derivatives are taken by hand so the remaining object is a
    plain rational expression in t, evaluable on jets.
    """

    def ev(z, w, t: Jet1) -> Jet1:
        sigma = z[0] * w[0].conjugate()
        base = 1.0 - sigma
        d0 = base ** p
        d1 = -p * base ** (p - 1.0)
        d2 = p * (p - 1.0) * base ** (p - 2.0)
        denom = d0 - t
        val = 2.0 * d1 * d1 * jet_rpow(denom, -3.0) - d2 * jet_rpow(denom, -2.0)
        return val * (1.0 / (p * math.pi ** 2))

    return CircularKernelProfile(eval=ev)


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
            for j in range(1, p + 1):
                # the root factor rides inside a conjugated pairing
                om_bar = cmath.exp(-2j * math.pi * j / p)
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
    """Unit-ball kernel in C^m: m!/pi^m (1 - <Z,W>)^-(m+1), via inflating the disc."""
    for pt in (Z, W):
        if sum(abs(c) ** 2 for c in pt) >= 1.0:
            raise OutsideDomain("point outside the unit ball")
    inner = inflate(disc_profile(), m)((), Z, (), W)
    return KernelValue(inner.value, "ball")


def hartogs2_kernel(p: float, z: complex, zeta: complex,
                    w: complex, eta: complex) -> KernelValue:
    """Kernel of {|z|^2 + |zeta|^(2/p) < 1} in C^2.

    (1/(p pi^2)) d^2/dt^2 [1/((1-t)^p - zeta*conj(eta))] at t = z*conj(w).
    """
    d = DomainSpec((Block(1, 1.0), Block(1, p)))
    for pt in ((z, zeta), (w, eta)):
        if not contains(d, pt):
            raise OutsideDomain(f"point {pt} outside the domain")
    t0 = z * w.conjugate()
    u = zeta * eta.conjugate()
    jet = 1.0 / (jet_rpow(1.0 - jet1_variable(t0, 2), p) - u)
    val = derivative_extract(jet, 2) / (p * math.pi ** 2)
    return KernelValue(val, "hartogs2")


def pflate_kernel(n: int, m: int, p: float,
                  z: Sequence[complex], Z: Sequence[complex],
                  w: Sequence[complex], W: Sequence[complex]) -> KernelValue:
    """Kernel of {||z||^2 + ||Z||^(2/p) < 1}, z in C^n, Z in C^m.

    (1/(p pi^(n+m))) d^(n+m)/dt^(n+1) du^(m-1) [1/((1-t)^p - u)]
    at t = <z,w>, u = <Z,W>.
    """
    if n < 1 or m < 1:
        raise InvalidOrder(f"both block dimensions must be >= 1, got ({n},{m})")
    d = DomainSpec((Block(n, 1.0), Block(m, p)))
    for pt in (tuple(z) + tuple(Z), tuple(w) + tuple(W)):
        if not contains(d, pt):
            raise OutsideDomain(f"point {pt} outside the domain")
    t0 = pairing(z, w)
    u0 = pairing(Z, W)
    base = jet_rpow(1.0 - jet1_variable(t0, n + 1), p)
    jet = 1.0 / (jet2_lift_t(base, u0, m - 1) - jet2_variable_u((t0, u0), (n + 1, m - 1)))
    val = partial_extract(jet, n + 1, m - 1) / (p * math.pi ** (n + m))
    return KernelValue(val, "pflate")


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
    dom = diagonal_domain(*p_list, p)
    for ptt in (pt.z, pt.w):
        if not contains(dom, ptt):
            raise OutsideDomain(f"point {ptt} outside the domain")

    v = [pt.z[k] * pt.w[k].conjugate() for k in range(n)]
    y = pt.z[n] * pt.w[n].conjugate()
    offsets = tuple(root_choice) if root_choice is not None else (0,) * n

    direct = [k for k in range(n) if p_list[k] == 1 or abs(v[k]) >= EPS_SWITCH]
    series = [k for k in range(n) if k not in direct]

    # p_k-th roots of the direct pairings, shifted by the requested branch
    s = {}
    for k in direct:
        pk = p_list[k]
        if pk == 1:
            s[k] = v[k]
        else:
            r = abs(v[k]) ** (1.0 / pk)
            ang = (cmath.phase(v[k]) + 2.0 * math.pi * offsets[k]) / pk
            s[k] = r * cmath.exp(1j * ang)

    series_imax = 10
    extra = sum((series_imax + 1) * p_list[k] - 1 for k in series)
    order = n + 1 + extra

    prefactor = 1.0 / (p * math.pi ** (n + 1))
    for k in direct:
        pk = p_list[k]
        prefactor = prefactor / (pk * pk * s[k] ** (pk - 1))
    for k in series:
        prefactor = prefactor / p_list[k]

    # enumerate root-of-unity combinations over the direct coordinates
    combos = [()]
    for k in direct:
        combos = [c + (j,) for c in combos for j in range(1, p_list[k] + 1)]

    total = 0j
    for combo in combos:
        tau = 0j
        weight = 1.0 + 0j
        for k, j in zip(direct, combo):
            om_bar = cmath.exp(-2j * math.pi * j / p_list[k])
            tau += s[k] * om_bar
            weight *= om_bar
        if abs((1.0 - tau) ** p - y) < _POLE_EPS:
            raise PoleHit(f"formula denominator vanished at t={tau}")
        g = 1.0 / (jet_rpow(1.0 - jet1_variable(tau, order), p) - y)
        contrib = _series_filtered_sum(g, n + 1, [p_list[k] for k in series],
                                       [v[k] for k in series], series_imax)
        total += weight * contrib
    return KernelValue(prefactor * total, "folded",
                       near_singular_limit=bool(series))


def _series_filtered_sum(g: Jet1, base_order: int, ps: list[int],
                         vs: list[complex], imax: int) -> complex:
    """sum over filtered Taylor terms of the series-folded coordinates.

    Each series coordinate k contributes factors v_k^i times the mixed
    coefficient g^(base_order + sum beta)(tau)/prod beta!, beta = (i+1)p - 1.
    """
    if not ps:
        return derivative_extract(g, base_order)
    acc = 0j
    idx = [0] * len(ps)
    while True:
        deg = base_order + sum((idx[k] + 1) * ps[k] - 1 for k in range(len(ps)))
        coef = derivative_extract(g, deg)
        term = coef
        for k in range(len(ps)):
            beta = (idx[k] + 1) * ps[k] - 1
            term *= vs[k] ** idx[k] / math.factorial(beta)
        acc += term
        # odometer over the multi-index, dropping branches that cannot matter
        pos = 0
        while pos < len(ps):
            idx[pos] += 1
            if idx[pos] <= imax and vs[pos] != 0:
                break
            idx[pos] = 0
            pos += 1
        else:
            break
    return acc


def slice_kernel_kp(p: float, x: complex, y: complex) -> KernelValue:
    """Kernel of {|z_1| + |z_2|^(2/p) < 1} at slice pairings x = z1*conj(w1), y = z2*conj(w2).

    Direct form (xi = principal square root of x):

        (1/(4 p pi^2 xi)) [F''(xi) - F''(-xi)],   F(s) = ((1-s)^p - y)^(-1)

    For |xi| < EPS_SWITCH the bracket is expanded as an odd jet and divided by
    xi coefficientwise, which is exact at x = 0.
    """
    if math.sqrt(abs(x)) + abs(y) ** (1.0 / p) >= 1.0:
        raise OutsideDomain(f"slice pairings ({x}, {y}) not reachable from inside")
    xi = cmath.sqrt(x)
    if abs(xi) >= EPS_SWITCH:
        fp = 1.0 / (jet_rpow(1.0 - jet1_variable(xi, 2), p) - y)
        fm = 1.0 / (jet_rpow(1.0 - jet1_variable(-xi, 2), p) - y)
        bracket = derivative_extract(fp, 2) - derivative_extract(fm, 2)
        return KernelValue(bracket / (4.0 * p * math.pi ** 2 * xi), "slice_kp")
    f = 1.0 / (jet_rpow(1.0 - jet1_variable(0j, 7), p) - y)
    c = f.coeffs
    # (1/xi) [F''(xi) - F''(-xi)] = 12 c3 + 40 c5 xi^2 + 84 c7 xi^4 + ...
    val = (12.0 * c[3] + 40.0 * c[5] * xi ** 2 + 84.0 * c[7] * xi ** 4)
    return KernelValue(val / (4.0 * p * math.pi ** 2), "slice_kp",
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
    if math.sqrt(abs(x)) + math.sqrt(abs(y)) > 1.0 + 1e-12:
        raise OutsideDomain(f"slice pairings ({x}, {y}) not reachable")
    num, delta = _k2_terms(x, y)
    if abs(delta) ** 3 < _POLE_EPS:
        raise PoleHit(f"denominator vanished at ({x}, {y})")
    return KernelValue(2.0 * num / (math.pi ** 2 * delta ** 3.0), "k2_closed")


def _k2_terms(x, y):
    """(num, delta) of K2 = (2/pi^2) num / delta^3, on scalars, arrays and jets."""
    s = 1.0 - x - y
    return 3.0 * s * (1.0 - (x - y) ** 2) + 8.0 * x * y, s ** 2 - 4.0 * x * y


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


def simplex_restricted_kernel(n: int, x: complex) -> KernelValue:
    """Kernel of |z_1| + ... + |z_n| < 1 on the slice z_2 = ... = z_n = 0.

    Equals c_n * K_(2n-2)(x, 0) with c_n from iterated deflation; x is the
    pairing z1*conj(w1) of the remaining coordinate.
    """
    if n < 2:
        raise InvalidOrder(f"dimension must be >= 2, got {n}")
    if abs(x) >= 1.0:
        raise OutsideDomain(f"slice pairing {x} not reachable")
    inner = slice_kernel_kp(2.0 * n - 2.0, x, 0j)
    return KernelValue(simplex_restriction_constant(n) * inner.value,
                       "simplex_restricted", inner.near_singular_limit)


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
        if sum(abs(c) ** 2 for c in ptt) >= 1.0:
            raise OutsideDomain("point outside the unit ball in root coordinates")
    v = z[0] * w[0].conjugate()
    tp = sum(a * b.conjugate() for a, b in zip(z[1:], w[1:]))
    val = _odd_quotient(1.0 - tp, n + 1.0, math.factorial(n) / math.pi ** n, v)
    return KernelValue(val, "mixed_family", abs(v) < EPS_SWITCH)


def _odd_quotient(a, m: float, scale: float, t):
    """scale * [(a - t)^-m - (a + t)^-m] / (4t), on scalars and jets.

    The bracket is odd in t, so the quotient extends across t = 0: for
    |t| < EPS_SWITCH the odd jet of (a - t)^-m is divided by t
    coefficientwise, as slice_kernel_kp does.
    """
    if isinstance(t, Jet1):
        return scale * (jet_rpow(a - t, -m) - jet_rpow(a + t, -m)) / (4.0 * t)
    if abs(t) >= EPS_SWITCH:
        return scale * ((a - t) ** -m - (a + t) ** -m) / (4.0 * t)
    c = jet_rpow(a - jet1_variable(0j, 5), -m).coeffs
    # [(a - t)^-m - (a + t)^-m] / (4t) = (c1 + c3 t^2 + c5 t^4) / 2
    return scale * 0.5 * (c[1] + c[3] * t ** 2 + c[5] * t ** 4)


def evaluate(d: DomainSpec, z: Sequence[complex], w: Sequence[complex]) -> KernelValue:
    """Kernel value at (z, w) by the closed form for the block structure.

    First match wins: one block (ball, whatever p is); (1, 2) + (m >= 2, 1)
    (mixed_family); non-diagonal (n, 1) + (m, p) (pflate); diagonal (2, 2)
    (k2_closed), (2, p) or (p, 2) (slice_kp), (1, p) or (p, 1) (hartogs2),
    integer exponents but the last (folded), else the series oracle.  Other
    structures raise UnsupportedDomain.
    """
    blocks = d.blocks
    ps = d.exponents()
    if len(blocks) == 1:
        return ball_kernel(blocks[0].dim, z, w)
    if (len(blocks) == 2 and blocks[0].dim == 1 and blocks[0].p == 2.0
            and blocks[1].p == 1.0 and blocks[1].dim >= 2):
        return mixed_family_kernel(d.total_dim, z, w)
    if len(blocks) == 2 and blocks[0].p == 1.0 and not d.is_diagonal:
        n, m, p = blocks[0].dim, blocks[1].dim, blocks[1].p
        return pflate_kernel(n, m, p, z[:n], z[n:], w[:n], w[n:])
    if not d.is_diagonal:
        raise UnsupportedDomain("no evaluator for this block structure")
    if len(ps) == 2:
        x = z[0] * w[0].conjugate()
        y = z[1] * w[1].conjugate()
        if ps == (2.0, 2.0):
            return k2_closed_form(x, y)
        if ps[0] == 2.0:
            return slice_kernel_kp(ps[1], x, y)
        if ps[1] == 2.0:
            return slice_kernel_kp(ps[0], y, x)
        if ps[0] == 1.0:
            return hartogs2_kernel(ps[1], z[0], z[1], w[0], w[1])
        if ps[1] == 1.0:
            return hartogs2_kernel(ps[0], z[1], z[0], w[1], w[0])
    if all(float(p).is_integer() for p in ps[:-1]):
        return general_folded_kernel(
            [int(p) for p in ps[:-1]], ps[-1], KernelPoint(tuple(z), tuple(w)))
    from .oracle import SeriesConfig, series_kernel

    return series_kernel(d, z, w, SeriesConfig())


def disc_kernel_values(t: np.ndarray) -> np.ndarray:
    """Vectorized unit-disc kernel over pairings t = z*conj(w)."""
    return 1.0 / (math.pi * (1.0 - t) ** 2)


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

    Uses the analytic second derivative of F(s) = ((1-s)^p - y)^(-1) on both
    branches; entries with |x| below EPS_SWITCH^2 fall back to the scalar
    limit path.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    xi = np.sqrt(x)
    small = np.abs(xi) < EPS_SWITCH
    xi_safe = np.where(small, 1.0, xi)

    def fpp(s):
        base = 1.0 - s
        denom = base ** p - y
        return (2.0 * p * p * base ** (2.0 * p - 2.0)
                - p * (p - 1.0) * base ** (p - 2.0) * denom) / denom ** 3

    out = (fpp(xi_safe) - fpp(-xi_safe)) / (4.0 * p * math.pi ** 2 * xi_safe)
    if np.any(small):
        flat = np.argwhere(small)
        for pos in flat:
            idx = tuple(pos)
            out[idx] = slice_kernel_kp(p, complex(x[idx]), complex(y[idx])).value
    return out
