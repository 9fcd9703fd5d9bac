"""Zero location, counting, and certification for kernel slices.

Every zero claim is certified twice: a residual |K| at the reported location
through a closed-form evaluation, and an argument-principle count on a
circle, which must agree with the number of reported zeros.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

from .errors import ContourThroughZero, NoConvergence, PreconditionViolated
from .jets import Jet1, jet1_variable
from .kernels import (
    _axis2_coefficients,
    _k2_terms,
    _odd_quotient,
    axis_limit_kernel,
    k2_values,
    simplex_restriction_constant,
)

DEFAULT_SCAN_MARGIN = 0.12

# |f| below this on a proposed contour forces a radius perturbation
_CONTOUR_EPS = 1e-6


@dataclass(frozen=True)
class Zero:
    location: complex
    residual: float


@dataclass(frozen=True)
class ZeroReport:
    zeros: tuple[Zero, ...]
    count_by_winding: int
    search_radius: float
    method: str
    min_modulus: float | None = None

    def to_json_dict(self) -> dict:
        out = {
            "zeros": [
                {"re": z.location.real, "im": z.location.imag,
                 "residual": z.residual}
                for z in self.zeros
            ],
            "winding_count": self.count_by_winding,
            "radius": self.search_radius,
            "method": self.method,
        }
        if self.min_modulus is not None:
            out["min_modulus"] = self.min_modulus
        return out


@dataclass(frozen=True)
class SliceFunction:
    """One-variable holomorphic restriction, evaluable on scalars and jets."""

    eval: Callable[[complex | Jet1], complex | Jet1]
    description: str


@dataclass(frozen=True)
class TwoVarSlice:
    """Two-variable slice with a vectorized evaluator over pairing arrays."""

    eval_many: Callable
    description: str
    restrict_x: Callable[[complex], SliceFunction] | None = None


def axis1_slice(p: float) -> SliceFunction:
    """K restricted to the second slice variable = 0, in the root variable."""
    return SliceFunction(
        eval=lambda t: _odd_quotient(1.0, p + 2.0, (p + 1.0) / math.pi ** 2, t),
        description=f"axis-1 slice, fiber exponent {p}")


def axis2_slice(p: float) -> SliceFunction:
    """K restricted to the first slice variable = 0, a rational function of y."""
    return SliceFunction(eval=lambda y: axis_limit_kernel(p, y),
                         description=f"axis-2 slice, fiber exponent {p}")


def mixed_slice(n: int) -> SliceFunction:
    """The t'=0 restriction of the mixed-family kernel in the root variable."""
    return SliceFunction(
        eval=lambda t: _odd_quotient(1.0, n + 1.0, math.factorial(n) / math.pi ** n, t),
        description=f"mixed family slice, dimension {n}")


def simplex_slice(n: int) -> SliceFunction:
    """The one-coordinate restriction of the C^n simplex-norm kernel."""
    cn = simplex_restriction_constant(n)
    p = 2.0 * n - 2.0
    return SliceFunction(
        eval=lambda t: _odd_quotient(1.0, p + 2.0, cn * (p + 1.0) / math.pi ** 2, t),
        description=f"simplex-norm slice, dimension {n}")


def k2_pair_slice() -> TwoVarSlice:
    """K2 over both slice pairings, scannable on the admissible region."""

    def restrict(y0: complex) -> SliceFunction:
        return SliceFunction(eval=lambda x: k2_values(x, y0),
                             description=f"k2 at second pairing {y0}")

    return TwoVarSlice(eval_many=k2_values, description="k2 pair slice",
                       restrict_x=restrict)


def k2_axis_slice() -> SliceFunction:
    """K2 on the axis: (6/pi^2) (1+x) / (1-x)^4, zero only at the boundary."""
    return SliceFunction(
        eval=lambda x: (6.0 / math.pi ** 2) * (1.0 + x) / (1.0 - x) ** 4.0,
        description="k2 axis slice")


def newton_refine(f: SliceFunction, seed: complex, tol: float = 1e-12) -> complex:
    t = complex(seed)
    for _ in range(50):
        jet = f.eval(jet1_variable(t, 1))
        val, der = jet.coeffs[0], jet.coeffs[1]
        if abs(val) < tol:
            return t
        if der == 0 or not (abs(t) < 2.0):
            break
        t = t - val / der
    raise NoConvergence(f"Newton did not reach |f| < {tol} from seed {seed}")


def count_zeros_winding(f: SliceFunction, radius: float) -> int:
    """Argument-principle zero count inside |t| = radius.

    Uniform (trapezoid) sums of f'/f * t / M over the circle, doubling M until
    the result sits within 1e-3 of an integer and is stable; the contour is
    nudged inward when |f| comes too close to zero on it.
    """
    if not (0.0 < radius < 1.0):
        raise PreconditionViolated(f"radius must lie in (0,1), got {radius}")
    r = radius
    for attempt in range(6):
        low = min(abs(f.eval(r * cmath.exp(2j * math.pi * k / 512)))
                  for k in range(512))
        if low >= _CONTOUR_EPS:
            break
        r = radius * (1.0 - 1e-3 * (attempt + 1))
    else:
        raise ContourThroughZero(
            f"|f| < {_CONTOUR_EPS} near every perturbed contour around {radius}")

    prev = None
    m = 512
    while m <= (1 << 17):
        acc = 0j
        for k in range(m):
            t = r * cmath.exp(2j * math.pi * k / m)
            jet = f.eval(jet1_variable(t, 1))
            acc += jet.coeffs[1] / jet.coeffs[0] * t
        w = acc / m
        nearest = round(w.real)
        if abs(w - nearest) < 1e-3 and prev == nearest:
            return int(nearest)
        prev = nearest
        m *= 2
    raise NoConvergence("winding sum did not settle to an integer")


def _zero_report(slc: SliceFunction, locs: list[complex], radius: float,
                 method: str, min_modulus: float | None) -> ZeroReport:
    """The zeros at locs, sorted, each with its residual |f|, against the
    argument-principle count on |t| = 0.999."""
    zeros = tuple(sorted((Zero(q, abs(slc.eval(q))) for q in locs),
                         key=lambda z: (z.location.real, z.location.imag)))
    return ZeroReport(zeros=zeros, count_by_winding=count_zeros_winding(slc, 0.999),
                      search_radius=radius, method=method, min_modulus=min_modulus)


def axis1_zero_locus(p: float) -> ZeroReport:
    """Zeros of the axis-1 slice in the unit disc: x with (1+x)^(p+2) = (1-x)^(p+2).

    On the imaginary axis the equation reduces to (p+2) arctan(s) = pi k, so
    the roots are x = +-i tan(pi k/(p+2)) for 1 <= k < (p+2)/4; nonempty
    exactly when p > 2.  Integer p reports the closed form; non-integer p
    re-derives each root by bisection on the arctan equation plus a Newton
    polish on the slice itself.
    """
    if p <= 0:
        raise PreconditionViolated(f"exponent must be positive, got {p}")
    slc = axis1_slice(p)
    is_int = abs(p - round(p)) < 1e-12
    locs: list[complex] = []
    k = 1
    while k < (p + 2.0) / 4.0 - 1e-12:
        s = math.tan(math.pi * k / (p + 2.0))
        if not is_int:
            s = _bisect_arctan(p, k)
            root = newton_refine(slc, 1j * s, tol=1e-13)
            locs.extend([root, root.conjugate()])
        else:
            locs.extend([1j * s, -1j * s])
        k += 1
    return _zero_report(slc, locs, 0.999, "closed_form" if is_int else "newton", None)


def _bisect_arctan(p: float, k: int) -> float:
    # (p+2) arctan(s) - pi k is increasing in s on (0, 1)
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if (p + 2.0) * math.atan(mid) - math.pi * k < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def axis2_zero_locus(p: float) -> ZeroReport:
    """Zeros in y of the axis-2 slice: the numerator quadratic inside |y| < 1."""
    if p <= 0:
        raise PreconditionViolated(f"exponent must be positive, got {p}")
    a, b, c = _axis2_coefficients(p)
    locs: list[complex] = []
    if abs(a) < 1e-12:
        if abs(b) > 1e-12:
            locs.append(complex(-c / b))
    else:
        disc = cmath.sqrt(b * b - 4.0 * a * c)
        locs.extend([(-b + disc) / (2.0 * a), (-b - disc) / (2.0 * a)])
    locs = [y for y in locs if abs(y) < 1.0]
    return _zero_report(axis2_slice(p), locs, 0.999, "closed_form", None)


def k2_interior_positivity(x: complex, y: complex) -> bool:
    """Numeric re-derivation of the K2 zero-freeness certificate.

    Checks 4|x||y| < m^2 with m = 1 - |x| - |y| (the denominator bound) and
    |numerator of K2| > (2/pi^2) m^2, i.e. the chain bound at scale 1.  Both
    inequalities degenerate exactly where the boundary zero lives.
    """
    ax, ay = abs(x), abs(y)
    if math.sqrt(ax) + math.sqrt(ay) >= 1.0:
        raise PreconditionViolated(
            f"({x}, {y}) outside the open constraint region")
    m = 1.0 - ax - ay
    if not 4.0 * ax * ay < m * m:
        return False
    num, _ = _k2_terms(x, y)
    return abs((2.0 / math.pi ** 2) * num) > (2.0 / math.pi ** 2) * m * m


def grid_zero_scan(slc, resolution: int, tol: float = 1e-9,
                   margin: float = DEFAULT_SCAN_MARGIN) -> ZeroReport:
    """Polar-grid modulus scan with Newton refinement of local minima.

    For a SliceFunction: scans |t| <= 1 - margin, refines every strict local
    minimum of |f|, and keeps roots certified by |f| < tol.  For a
    TwoVarSlice: scans admissible pairing pairs and reports the grid minimum;
    candidate cells refine through the slice's x-restriction when provided.
    """
    if resolution < 8:
        raise PreconditionViolated(f"resolution must be >= 8, got {resolution}")
    if isinstance(slc, TwoVarSlice):
        return _grid_scan_two_var(slc, resolution, tol, margin)
    rmax = 1.0 - margin
    rs = [rmax * (i + 1) / resolution for i in range(resolution)]
    thetas = [2.0 * math.pi * j / resolution for j in range(resolution)]
    mods = [[abs(slc.eval(r * cmath.exp(1j * th))) for th in thetas] for r in rs]
    min_mod = min(min(row) for row in mods)

    roots: list[complex] = []
    for i, r in enumerate(rs):
        for j, th in enumerate(thetas):
            if not _is_local_min(mods, i, j) and mods[i][j] >= tol:
                continue
            try:
                root = newton_refine(slc, r * cmath.exp(1j * th), tol=tol)
            except NoConvergence:
                continue
            if abs(root) <= 0.999 and all(abs(root - q) > 1e-8 for q in roots):
                roots.append(root)
    return _zero_report(slc, roots, rmax, "newton", min_mod)


def _is_local_min(mods: list[list[float]], i: int, j: int) -> bool:
    res_r, res_t = len(mods), len(mods[0])
    here = mods[i][j]
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        ii = i + di
        jj = (j + dj) % res_t
        if 0 <= ii < res_r and mods[ii][jj] <= here:
            return False
    return True


def _grid_scan_two_var(slc: TwoVarSlice, resolution: int, tol: float,
                       margin: float) -> ZeroReport:
    import numpy as np

    rmax = 1.0 - margin
    side = np.linspace(rmax / resolution, rmax, resolution)
    ang = 2.0 * math.pi * np.arange(resolution) / resolution
    phase = np.exp(1j * ang)
    y_flat = (side[:, None] * phase[None, :]).ravel()
    min_mod = math.inf
    candidates: list[tuple[complex, complex]] = []
    # sweep the first pairing one radius at a time to keep the slabs small
    for rx in side:
        for x0 in rx * phase:
            keep = math.sqrt(abs(x0)) + np.sqrt(np.abs(y_flat)) < 1.0 - 1e-9
            if not keep.any():
                continue
            ys = y_flat[keep]
            vals = np.abs(slc.eval_many(np.full(ys.shape, x0), ys))
            lo = float(vals.min())
            if lo < min_mod:
                min_mod = lo
            if lo < tol and len(candidates) < 64:
                for j in np.flatnonzero(vals < tol)[:8]:
                    candidates.append((x0, complex(ys[j])))

    roots: list[tuple[complex, float]] = []
    if slc.restrict_x is not None:
        for x0, y0 in candidates:
            try:
                root = newton_refine(slc.restrict_x(y0), x0, tol=tol)
            except NoConvergence:
                continue
            if all(abs(root - q) > 1e-8 for q, _ in roots):
                res = float(np.abs(slc.eval_many(
                    np.asarray([root]), np.asarray([y0])))[0])
                roots.append((root, res))
    zeros = tuple(sorted((Zero(q, res) for q, res in roots),
                         key=lambda z: (z.location.real, z.location.imag)))
    return ZeroReport(
        zeros=zeros,
        count_by_winding=len(zeros),
        search_radius=rmax,
        method="newton",
        min_modulus=min_mod)
