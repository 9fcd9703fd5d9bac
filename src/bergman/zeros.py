"""Zero location, counting, and certification for kernel slices.

Every zero claim is certified twice: a residual |K| at the reported location
through a closed-form evaluation, and an argument-principle count on a
circle.  Family.certifies requires that count to equal the number of listed
zeros, and the zeros to agree with the family's closed-form predicate.
"""

from __future__ import annotations

import cmath
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .errors import NoConvergence, PreconditionViolated
from .jets import Jet1
from .kernels import (
    MAX_RESOLUTION,
    _axis2_coefficients,
    _k2_cell_floor,
    _k2_terms,
    _mixed_scale,
    _odd_quotient,
    axis_limit_kernel,
    k2_values,
    simplex_restriction_constant,
)

DEFAULT_SCAN_MARGIN = 0.12

_BLOCK = 2048  # points per winding-count evaluation, and k2 scan coarse cells per chunk
_CELL = 3  # angles of a fine k2 scan run, a third of a coarse cell's y run
_COARSE = 3  # fine runs per coarse k2 scan run
_MAX_SAMPLES = 1 << 22  # largest contour sample count M of the winding count
_ROOTS_MAX_M = 1 << 14  # deepest M whose contour points _ROOTS keeps: 16,384, 256 KB
_ROOTS: dict = {}  # (k, M, step) -> _unit_roots(k, M, step), for M <= _ROOTS_MAX_M
# largest odd-quotient exponent m whose zeros are listed: at most 1,998 zeros
_MAX_ODD_M = 4000.0


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
    """Holomorphic one-variable restriction; eval takes scalars, arrays and
    jets, dlog, t f'(t)/f(t), scalars and arrays.  dlog defaults to t c1/c0
    of the order-1 jet of eval.  real: f(conj t) = conj f(t) (real Taylor
    coefficients), so the winding count samples half the circle."""

    eval: Callable[[complex | Jet1], complex | Jet1]
    description: str
    dlog: Callable | None = None
    real: bool = False

    def __post_init__(self):
        if self.dlog is None:
            object.__setattr__(self, "dlog", self._jet_dlog)

    def _jet_dlog(self, t):
        c0, c1 = self.eval(Jet1(t, (t, t ** 0))).coeffs  # t ** 0: 1, scalar or array
        return c1 / c0 * t


@dataclass(frozen=True)
class TwoVarSlice:
    """K2's pair slice, the one whose cell floors, swap symmetry f(x, y) =
    f(y, x) and conjugate symmetry |f(conj x, conj y)| = |f(x, y)|
    grid_zero_scan assumes: eval_many broadcasts arrays of x against arrays of
    y, restrict_x(y0) is the slice in x at y0 (grid_zero_scan calls eval_many
    only)."""

    eval_many: Callable
    description: str
    restrict_x: Callable[[complex], SliceFunction]


def _exponent(p) -> float:
    """p as the p families read it, a float: PreconditionViolated unless finite and > 0."""
    if not (isinstance(p, numbers.Real) and 0.0 < p < math.inf):
        raise PreconditionViolated(f"exponent p must be positive and finite, got {p!r}")
    return float(p)


def _dimension(n) -> int:
    """n as the n families read it, an int: PreconditionViolated unless an integer >= 2."""
    if not (isinstance(n, numbers.Real) and n >= 2 and n % 1 == 0):
        raise PreconditionViolated(f"dimension n must be an integer >= 2, got {n!r}")
    return int(n)


# m and scale, each at the family's parameter (refused outside its domain),
# of the families whose slice is the odd quotient scale * [(1 - t)^-m - (1 + t)^-m] / (4t)
ODD_QUOTIENTS = {
    "axis1": (lambda p: _exponent(p) + 2.0, lambda p: (_exponent(p) + 1.0) / math.pi ** 2),
    "simplex": (lambda n: 2.0 * _dimension(n), lambda n: simplex_restriction_constant(
        _dimension(n)) * (2.0 * n - 1.0) / math.pi ** 2),
    "mixed": (lambda n: _dimension(n) + 1.0, lambda n: _mixed_scale(_dimension(n))),
}


def _odd_quotient_slice(m: float, scale: float, description: str) -> SliceFunction:
    """f and t f'/f, the latter free of overflow: f is even, and at u = +-t
    with Re u >= 0, rho = ((1 - u)/(1 + u))^m has |rho| <= 1 and
    t f'/f = m u [1/(1 - u) + rho/(1 + u)]/(1 - rho) - 1."""

    def dlog(t):
        u = t * (1.0 - 2.0 * (t.real < 0.0))
        rho = ((1.0 - u) / (1.0 + u)) ** m
        return m * u * (1.0 / (1.0 - u) + rho / (1.0 + u)) / (1.0 - rho) - 1.0

    return SliceFunction(eval=lambda t: _odd_quotient(1.0, m, scale, t),
                         description=description, dlog=dlog, real=True)


def axis1_slice(p: float) -> SliceFunction:
    """K restricted to the second slice variable = 0, in the root variable."""
    m, scale = ODD_QUOTIENTS["axis1"]
    return _odd_quotient_slice(m(p), scale(p), f"axis-1 slice, fiber exponent {p}")


def axis2_slice(p: float) -> SliceFunction:
    """K restricted to the first slice variable = 0, a rational function of y."""
    a, b, c = _axis2_coefficients(p := _exponent(p))
    return SliceFunction(eval=lambda y: axis_limit_kernel(p, y),
                         description=f"axis-2 slice, fiber exponent {p}",
                         dlog=lambda y: y * (2.0 * a * y + b) / ((a * y + b) * y + c)
                         + 4.0 * y / (1.0 - y), real=True)


def mixed_slice(n: int) -> SliceFunction:
    """The t'=0 restriction of the mixed-family kernel in the root variable."""
    m, scale = ODD_QUOTIENTS["mixed"]
    return _odd_quotient_slice(m(n), scale(n), f"mixed family slice, dimension {n}")


def simplex_slice(n: int) -> SliceFunction:
    """The one-coordinate restriction of the C^n simplex-norm kernel."""
    m, scale = ODD_QUOTIENTS["simplex"]
    return _odd_quotient_slice(m(n), scale(n), f"simplex-norm slice, dimension {n}")


def k2_pair_slice() -> TwoVarSlice:
    """K2 over both slice pairings, for grid_zero_scan's minimum-modulus scan."""

    def restrict(y0: complex) -> SliceFunction:
        return SliceFunction(eval=lambda x: k2_values(x, y0),
                             description=f"k2 at second pairing {y0}")

    return TwoVarSlice(eval_many=k2_values, description="k2 pair slice",
                       restrict_x=restrict)


def k2_axis_slice() -> SliceFunction:
    """K2 on the axis y = 0, (6/pi^2) (1+x) / (1-x)^4: zero only at the boundary."""
    return SliceFunction(eval=lambda x: k2_values(x, 0.0), description="k2 axis slice",
                         real=True)


def newton_refine(f: SliceFunction, seed: complex, tol: float = 1e-12) -> complex:
    t = complex(seed)
    for _ in range(50):
        if abs(f.eval(t)) < tol:
            return t
        dlog = f.dlog(t) if 0.0 < abs(t) < 2.0 else 0  # t = 0 is a fixed point
        if dlog == 0:
            break
        t = t - t / dlog
    raise NoConvergence(f"Newton did not reach |f| < {tol} from seed {seed}")


def _unit_roots(k: int, m: int, step: int):
    """e^(2 pi i j/m) for j = k, k + step, ... below min(m, k + step * _BLOCK)."""
    import numpy as np
    if (pts := _ROOTS.get((k, m, step))) is None:
        pts = np.exp(2j * math.pi * np.arange(k, min(m, k + step * _BLOCK), step) / m)
        if m <= _ROOTS_MAX_M:
            _ROOTS[k, m, step] = pts
    return pts


def count_zeros_winding(f: SliceFunction, radius: float) -> int:
    """Argument-principle zero count inside |t| = radius.

    Uniform (trapezoid) sums of f.dlog(t) / M over the circle, doubling M from
    512 to _MAX_SAMPLES until two successive sums round to the same integer,
    the later within 1e-3 of it.  Off the zeros and poles of f the sum
    converges geometrically in M (Trefethen & Weideman, SIAM Rev. 2014).  A
    zero on a sample makes the sum non-finite, and a single zero a between
    samples gives exactly 1/(1 - (a/r)^M), whose real part is 1/2 when |a| =
    r, so neither settles: NoConvergence.  A conjugate pair a, conj a between
    samples of a real f does settle, to a wrong integer: the pair adds
    exactly 1 at every M.  The sums nest: 2 pi k/M doubles exactly with k and
    M, so the even samples at 2M are the samples at M, bit for bit, and the
    sum at 2M adds only its M odd ones to the raw sum at M.  A count thus
    evaluates f.dlog once at each of its final M points, on one array per
    _BLOCK of them, radius times _unit_roots (kept in _ROOTS up to M =
    _ROOTS_MAX_M, 16,384 points), under np.errstate(all="ignore"): an
    overflow reaches the non-finite check silently.  For a real f, whose
    dlog at conj t is conj dlog(t), only the closed upper half 0 <= k <= M/2
    is evaluated and the sum is dlog(r) + dlog(-r) plus twice the real part
    of the rest: the same sum, so the same integers and the same fault.
    """
    import numpy as np

    if not (0.0 < radius < 1.0):
        raise PreconditionViolated(f"radius must lie in (0,1), got {radius}")
    prev, acc, m, step = None, 0j, 512, 1
    while m <= _MAX_SAMPLES:
        stop = m // 2 + 1 if f.real else m
        with np.errstate(all="ignore"):
            for k in range(step - 1, stop, step * _BLOCK):
                d = f.dlog(radius * _unit_roots(k, m, step)[:len(range(k, stop, step))])
                if f.real and k == 0:  # t = r and t = -r, on the real axis
                    acc, d = acc + complex(d[0] + d[-1]), d[1:-1]
                acc += 2.0 * float(d.sum().real) if f.real else complex(d.sum())
        w = acc / m
        if not cmath.isfinite(w):
            raise NoConvergence(f"winding sum is not finite ({w}) on |t| = {radius}")
        nearest = round(w.real)
        if abs(w - nearest) < 1e-3 and prev == nearest:
            return int(nearest)
        prev, m, step = nearest, 2 * m, 2
    raise NoConvergence(f"winding sum did not settle to an integer on |t| = {radius}")


def _zero_report(slc: SliceFunction, locs: Iterable[complex], method: str,
                 min_modulus: float | None) -> ZeroReport:
    """The zeros at locs, sorted, each with its residual |f|, against the
    argument-principle count on |t| = r, which the report keeps as its radius.

    r = (1 + max |zero|)/2, or 0.999 when locs is empty: halfway between the
    outermost zero and |t| = 1, where the slices' poles lie, so the count's
    trapezoid sum converges geometrically on both sides of the circle.
    """
    zeros = tuple(sorted((Zero(q, abs(slc.eval(q))) for q in locs),
                         key=lambda z: (z.location.real, z.location.imag)))
    radius = (1.0 + max(abs(z.location) for z in zeros)) / 2.0 if zeros else 0.999
    return ZeroReport(zeros=zeros, count_by_winding=count_zeros_winding(slc, radius),
                      search_radius=radius, method=method, min_modulus=min_modulus)


def odd_quotient_zero_locus(m: float, scale: float) -> ZeroReport:
    """Zeros in the unit disc of scale * [(1 - t)^-m - (1 + t)^-m] / (4t).

    They solve ((1 - t)/(1 + t))^m = 1 with 1 +- t in the right half-plane,
    so they are exactly t = +-i tan(pi k/m) for 1 <= k < m/4: nonempty iff
    m > 4.  Refuses m > _MAX_ODD_M, which would list 2,000 zeros or more.
    """
    if not m > 0.0:
        raise PreconditionViolated(f"exponent m must be positive, got {m}")
    if m > _MAX_ODD_M:
        raise PreconditionViolated(
            f"exponent m = {m:g} exceeds {_MAX_ODD_M:g}: too many zeros to list")
    tans = (math.tan(math.pi * k / m) for k in range(1, math.ceil(m / 4.0)))
    locs = (z for s in tans for z in (1j * s, -1j * s))
    return _zero_report(_odd_quotient_slice(m, scale, f"odd quotient, m = {m}"),
                        locs, "closed_form", None)


def axis1_zero_locus(p: float) -> ZeroReport:
    """Zeros of the axis-1 slice in the unit disc: x = +-i tan(pi k/(p+2))
    for 1 <= k < (p+2)/4, nonempty exactly when p > 2."""
    m, scale = ODD_QUOTIENTS["axis1"]
    return odd_quotient_zero_locus(m(p), scale(p))


def axis2_zero_locus(p: float) -> ZeroReport:
    """Zeros in y of the axis-2 slice: the numerator quadratic inside |y| < 1."""
    a, b, c = _axis2_coefficients(p := _exponent(p))
    locs: list[complex] = []
    if abs(a) < 1e-12:
        if abs(b) > 1e-12:
            locs.append(complex(-c / b))
    else:  # over a power of two, (a, b, c) keep the roots' bits and b^2 - 4ac finite
        e = -math.frexp(max(abs(a), abs(b), c))[1]
        a, b, c = math.ldexp(a, e), math.ldexp(b, e), math.ldexp(c, e)
        disc = cmath.sqrt(b * b - 4.0 * a * c)
        locs.extend([(-b + disc) / (2.0 * a), (-b - disc) / (2.0 * a)])
    locs = [y for y in locs if abs(y) < 1.0]
    return _zero_report(axis2_slice(p), locs, "closed_form", None)


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


def grid_zero_scan(slc, resolution: int, tol: float = 1e-9) -> ZeroReport:
    """Grid modulus scan.

    For a SliceFunction: takes |f| on the polar grid of |t| <= 1 -
    DEFAULT_SCAN_MARGIN from one array evaluation, refines every cell below
    tol or no larger than its radial and angular neighbours (non-strict, so
    both of two mirrored cells that tie up to rounding seed) by Newton, and
    keeps roots certified by |f| < tol.  For a TwoVarSlice: takes |f| over
    the admissible pairing pairs and reports the grid minimum and no zeros
    (method "grid"); a minimum below tol raises PreconditionViolated.
    """
    import numpy as np

    try:  # any integer type but bool
        res = 0 if isinstance(resolution, bool) else operator.index(resolution)
    except TypeError:
        res = 0
    if not 8 <= res <= MAX_RESOLUTION:
        raise PreconditionViolated(f"resolution must lie in 8..{MAX_RESOLUTION}, got {resolution}")
    resolution = res
    if isinstance(slc, TwoVarSlice):
        return _grid_scan_two_var(slc, resolution, tol)
    rmax = 1.0 - DEFAULT_SCAN_MARGIN
    rs = [rmax * (i + 1) / resolution for i in range(resolution)]
    thetas = [2.0 * math.pi * j / resolution for j in range(resolution)]
    t = np.outer(rs, np.exp(1j * np.array(thetas)))
    mods = np.abs(slc.eval(t))
    seed = (mods <= np.roll(mods, 1, axis=1)) & (mods <= np.roll(mods, -1, axis=1))
    seed[1:] &= mods[1:] <= mods[:-1]
    seed[:-1] &= mods[:-1] <= mods[1:]
    seed |= mods < tol

    roots: list[complex] = []
    for i, j in zip(*np.nonzero(seed)):
        try:
            root = newton_refine(slc, rs[i] * cmath.exp(1j * thetas[j]), tol=tol)
        except NoConvergence:
            continue
        if abs(root) <= 0.999 and all(abs(root - q) > 1e-8 for q in roots):
            roots.append(root)
    return _zero_report(slc, roots, "newton", float(mods.min()))


def _grid_scan_two_var(slc: TwoVarSlice, res: int, tol: float) -> ZeroReport:
    import numpy as np

    rmax = 1.0 - DEFAULT_SCAN_MARGIN
    side = np.linspace(rmax / res, rmax, res)
    grid = (side[:, None] * np.exp(1j * (2.0 * math.pi * np.arange(res) / res))).ravel()
    # Angle runs are signed spans [first, last]: the upper angles 0..res // 2
    # in coarse runs of _CELL * _COARSE, each of _COARSE fine runs of _CELL
    # (the last of each cut short), and for x also their mirrors, less 0 and
    # res / 2.  A cell is one radius and one run of each pairing, no point
    # farther than 2 r sin(k pi / res) from its centre, k its half-width in
    # steps.  The admissible radius pairs are symmetric and their rings whole,
    # K2(x, y) = K2(y, x) and |K2(conj x, conj y)| = |K2(x, y)|, so floors go to
    # the cells with x radius at most y's, an upper y run and, at equal radii,
    # an x run no farther from angle 0.  The real axis of the first chunk seeds
    # the minimum, a radius pair goes whole if its floor on |x| <= r_i, |y| <=
    # r_j, which holds both rings, lies above it, and chunks of the rest go
    # outer y radii first; each splits the cells it cannot skip into y's fine
    # runs (y has the larger radius) and passes each fine cell left to
    # eval_many with its swap and its mirrored grid points
    wide = _CELL * _COARSE
    first = np.arange(0, res // 2 + 1, wide)
    last = np.minimum(first + wide - 1, res // 2)
    fine_first = np.minimum(first[:, None] + np.arange(0, wide, _CELL), last[:, None])
    fine_last = np.minimum(fine_first + _CELL - 1, last[:, None])
    x_first = np.concatenate((first, -np.minimum(last, (res - 1) // 2)))
    x_last = np.concatenate((last, -np.maximum(first, 1)))
    ri, rj = np.nonzero(np.triu(np.sqrt(side)[:, None] + np.sqrt(side) < 1.0 - 1e-9))
    ri, rj = np.stack((ri, rj))[:, np.lexsort((ri, -rj))]
    ga, gb = np.divmod(np.arange(x_first.size * first.size), first.size)
    same_ring = ga % first.size <= gb

    def centred(lo, hi):  # a run's centre angle and 2 sin(k pi / res), k its half-width
        mid = (lo + hi) // 2
        return mid % res, 2.0 * np.sin((hi - mid) * math.pi / res)

    (xc, xh), (yc, yh), (fc, fh) = map(centred, (x_first, first, fine_first),
                                       (x_last, last, fine_last))

    def floors(i, x, hx, j, y, hy):
        return _k2_cell_floor(grid[i * res + x], grid[j * res + y],
                              side[i] * hx, side[j] * hy) * (1.0 - 1e-6)
    per_chunk, axis = max(1, _BLOCK // ga.size), np.array([0, res // 2])
    min_mod = float(np.abs(slc.eval_many(grid[ri[:per_chunk, None, None] * res + axis[:, None]],
                                         grid[rj[:per_chunk, None, None] * res + axis])).min())
    ring = _k2_cell_floor(0.0, 0.0, side[ri], side[rj]) * (1.0 - 1e-6) <= min_mod
    ri, rj = ri[ring], rj[ring]
    for k in range(0, ri.size, per_chunk):
        p, q = np.nonzero((ri[k:k + per_chunk, None] < rj[k:k + per_chunk, None]) | same_ring)
        i, a, j, b = ri[k + p], ga[q], rj[k + p], gb[q]
        live = np.flatnonzero(floors(i, xc[a], xh[a], j, yc[b], yh[b]) <= min_mod)
        i, a, j, b = i[live, None], a[live, None], j[live, None], b[live]
        c, f = np.nonzero(floors(i, xc[a], xh[a], j, fc[b], fh[b]) <= min_mod)
        if c.size == 0:
            continue
        ax = x_first[a[c]] + np.arange(wide)
        ay = fine_first[b[c], f, None] + np.arange(_CELL)
        keep = (ax <= x_last[a[c]])[:, :, None] & (ay <= fine_last[b[c], f, None])[:, None, :]
        xs = (i[c] * res + np.stack((ax % res, -ax % res)))[..., :, None]
        ys = (j[c] * res + np.stack((ay % res, -ay % res)))[..., None, :]
        xs, ys = (u[:, keep].ravel() for u in np.broadcast_arrays(xs, ys))
        min_mod = float(np.abs(slc.eval_many(grid[np.concatenate((xs, ys))],
                                             grid[np.concatenate((ys, xs))])).min(initial=min_mod))
    if min_mod < tol:
        raise PreconditionViolated(
            f"grid minimum |f| = {min_mod!r} of the {slc.description} lies below "
            f"tol = {tol!r}: a grid cell is not a zero, so the scan lists none")
    return ZeroReport(zeros=(), count_by_winding=0, search_radius=rmax,
                      method="grid", min_modulus=min_mod)


# ----------------------------------------------------------------- families

_LOCUS_SPAN = 0.95  # half-width of a one-variable slice's locus grid


@dataclass(frozen=True)
class Family:
    """A slice family: its parameter ("p", "n" or None), its zero report at a
    value and scan resolution, the closed-form threshold that report is
    checked against (has zeros at a value), and its locus grid; each of the
    three refuses a value outside the family's domain, as read does."""

    param: str | None
    report: Callable[[float | None, int], ZeroReport]
    zeroed: Callable[[float | None], bool]
    rows: Callable[[float | None, int], Iterator[tuple[complex, complex, complex]]]

    def read(self, value):
        """A value of the family's parameter as the family reads it, a float p
        or an int n; PreconditionViolated outside the family's domain."""
        return (_exponent if self.param == "p" else _dimension)(value)

    def certifies(self, value, rep: ZeroReport) -> bool:
        """Whether rep, the report at value, counts its listed zeros and lists some iff zeroed."""
        return rep.count_by_winding == len(rep.zeros) and bool(rep.zeros) == self.zeroed(value)


def _locus_side(res: int) -> list[float]:
    """np.linspace(-_LOCUS_SPAN, _LOCUS_SPAN, res) bit for bit, without numpy."""
    side = [i * (2.0 * _LOCUS_SPAN / max(res - 1, 1)) - _LOCUS_SPAN for i in range(res)]
    return side[:-1] + [_LOCUS_SPAN] if res > 1 else side


def _square_rows(slc: SliceFunction, res: int):
    """(t, 0, f(t)) over the res x res grid of [-_LOCUS_SPAN, _LOCUS_SPAN]^2."""
    side = _locus_side(res)
    for re_t in side:
        for im_t in side:
            t = complex(re_t, im_t)
            yield t, 0j, complex(slc.eval(t))


def _line_rows(slc: SliceFunction, res: int):
    """(0, y, f(y)) over res real y in [-_LOCUS_SPAN, _LOCUS_SPAN]."""
    for y in _locus_side(res):
        yield 0j, complex(y), complex(slc.eval(complex(y)))


def _k2_rows(res: int):
    """(x, y, K2) over signed radii, admissible pairs only (so off K2's poles)."""
    import numpy as np

    rmax = 1.0 - DEFAULT_SCAN_MARGIN
    side = np.linspace(rmax / res, rmax, res)
    vals = np.concatenate([-side[::-1], side])
    root_vals = np.sqrt(np.abs(vals))
    for x in vals:
        ys = vals[np.sqrt(abs(x)) + root_vals < 1.0 - 1e-9]
        kvals = k2_values(np.full(ys.shape, x, dtype=complex), ys.astype(complex))
        for y, k in zip(ys, kvals):
            yield complex(x), complex(y), complex(k)


def _odd_family(name: str, param: str, make: Callable[[float], SliceFunction]) -> Family:
    """Record of an odd-quotient family: closed-form zeros, present iff m > 4."""
    m, scale = ODD_QUOTIENTS[name]
    return Family(param, report=lambda v, res: odd_quotient_zero_locus(m(v), scale(v)),
                  zeroed=lambda v: m(v) > 4.0, rows=lambda v, res: _square_rows(make(v), res))


# family name -> record, k2 without a parameter.  The records look this
# module's names up when called, so a rebound attribute is seen
FAMILIES = {
    "axis1": _odd_family("axis1", "p", lambda p: axis1_slice(p)),
    "axis2": Family("p", report=lambda p, res: axis2_zero_locus(p),
                    zeroed=lambda p: _exponent(p) > 2.0,
                    rows=lambda p, res: _line_rows(axis2_slice(p), res)),
    "simplex": _odd_family("simplex", "n", lambda n: simplex_slice(n)),
    "mixed": _odd_family("mixed", "n", lambda n: mixed_slice(n)),
    "k2": Family(None, report=lambda _, res: grid_zero_scan(k2_pair_slice(), res),
                 zeroed=lambda _: False, rows=lambda _, res: _k2_rows(res)),
}
