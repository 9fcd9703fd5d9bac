"""Truncated Taylor (jet) arithmetic in one and two complex variables.

Every derivative that appears in a kernel formula is realized by building the
relevant rational expression in jet arithmetic and reading off a coefficient.
This is exact up to rounding: no symbolic algebra, no finite differences.

An order-1 Jet1 may hold same-shape numpy arrays, one jet for a batch of points:
the default t f'/f of a slice built from its eval alone takes one per block of
contour points.  A two-variable jet is a Jet1 in u whose coefficients are Jet1s
in t (jets of jets), so it needs no arithmetic of its own.

Each recurrence is written once, on coefficient lists (_mul1, _div1, _rpow1,
_factorial_times); Jet1's operators and the kernels' closed forms call them.
kernels._recip_power_jet runs _rpow1's and _div1's operations, in their order,
for its linear base in one loop nest: their bits without the calls.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BranchPointJet,
    CenterMismatch,
    DivisionByZeroJet,
    OrderExceeded,
)

_ZERO_EPS = 1e-300


@dataclass(frozen=True)
class Jet1:
    """Taylor coefficients c_0..c_N of a function of one variable at ``center``.
    At order 1 these may be numpy arrays (a batch, see the module docstring)
    whose jets share one center object, so combining them compares no arrays.
    They may also be jets in a second variable (a two-variable jet, see
    jet2_lift_t).  Every operator is jet_arith on the jet and the other
    operand, which _lift turns into a jet like it."""

    center: complex
    coeffs: tuple[complex, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def _lift(self, value) -> Jet1:
        if isinstance(value, Jet1):
            return value
        return Jet1(self.center, (complex(value),) + (0j,) * self.order)

    def __add__(self, other):
        return jet_arith(self, self._lift(other), "add")

    def __radd__(self, other):
        return jet_arith(self._lift(other), self, "add")

    def __sub__(self, other):
        return jet_arith(self, self._lift(other), "sub")

    def __rsub__(self, other):
        return jet_arith(self._lift(other), self, "sub")

    def __mul__(self, other):
        return jet_arith(self, self._lift(other), "mul")

    def __rmul__(self, other):
        return jet_arith(self._lift(other), self, "mul")

    def __truediv__(self, other):
        return jet_arith(self, self._lift(other), "div")

    def __rtruediv__(self, other):
        return jet_arith(self._lift(other), self, "div")

    def __pow__(self, n):
        # whole non-negative ints multiply out; any other real goes through
        # jet_rpow, so write a float exponent (x ** 4.0) to take the recurrence
        if not isinstance(n, int) or n < 0:
            return jet_rpow(self, float(n))
        out = self._lift(1.0)
        for _ in range(n):
            out = out * self
        return out

    def __neg__(self):
        return Jet1(self.center, tuple(-c for c in self.coeffs))


def jet1_const(value: complex, order: int, center: complex = 0j) -> Jet1:
    return Jet1(complex(center), (complex(value),) + (0j,) * order)


def jet1_variable(center: complex, order: int) -> Jet1:
    """The identity function t, expanded at ``center`` to the given order."""
    c = complex(center)
    if order == 0:
        return Jet1(c, (c,))
    return Jet1(c, (c, 1 + 0j) + (0j,) * (order - 1))


def jet2_variable_u(center: tuple[complex, complex], orders: tuple[int, int]) -> Jet1:
    """The identity function u as a two-variable jet (see jet2_lift_t) at
    ``center`` = (t0, u0), to ``orders`` = (order in t, order in u)."""
    (t0, u0), (nt, nu) = center, orders
    coeffs = [jet1_const(0j, nt, t0)] * (nu + 1)
    coeffs[0] = jet1_const(u0, nt, t0)
    if nu >= 1:
        coeffs[1] = jet1_const(1.0, nt, t0)
    return Jet1(complex(u0), tuple(coeffs))


def jet2_lift_t(a: Jet1, u_center: complex, u_order: int) -> Jet1:
    """Embed a jet in t as a two-variable jet that does not depend on u.

    A two-variable jet is a jet in u whose coefficients are jets in t.  With u
    outside and t inside, 1/(b - u) divides by the jet b in t once per order of
    u, as pflate_kernel does."""
    zero = Jet1(a.center, (0j,) * len(a.coeffs))
    return Jet1(complex(u_center), (a,) + (zero,) * u_order)


def _near_zero(c) -> bool:
    if isinstance(c, Jet1):  # a coefficient of a two-variable jet
        return _near_zero(c.coeffs[0])
    small = abs(c) < _ZERO_EPS  # at any entry, for an array c
    return small if isinstance(small, bool) else bool(small.any())


def _mul1(a: tuple[complex, ...], b: tuple[complex, ...]) -> list[complex]:
    n = len(a)
    out = [0j] * n
    for k in range(n):
        s = 0j
        for j in range(k + 1):
            s += a[j] * b[k - j]
        out[k] = s
    return out


def _div1(a: tuple[complex, ...], b: tuple[complex, ...]) -> list[complex]:
    """a / b to the order of a."""
    if _near_zero(b[0]):
        raise DivisionByZeroJet("divisor jet has (numerically) zero constant term")
    n = len(a)
    out = [a[0] / b[0]]
    for k in range(1, n):
        s = a[k]
        for j in range(1, k + 1):
            s = s - b[j] * out[k - j]
        out.append(s / b[0])
    return out


def jet_arith(a: Jet1, b: Jet1, op: str) -> Jet1:
    """Pointwise add/sub/mul/div of two jets of the same center and order."""
    if a.order != b.order or (a.center is not b.center and a.center != b.center):
        raise CenterMismatch(
            f"jet mismatch: centers {a.center} vs {b.center}, "
            f"orders {a.order} vs {b.order}")
    if op == "add":
        out = [x + y for x, y in zip(a.coeffs, b.coeffs)]
    elif op == "sub":
        out = [x - y for x, y in zip(a.coeffs, b.coeffs)]
    elif op == "mul":
        out = _mul1(a.coeffs, b.coeffs)
    elif op == "div":
        out = _div1(a.coeffs, b.coeffs)
    else:
        raise ValueError(f"unknown op {op!r}")
    return Jet1(a.center, tuple(out))


def _rpow1(a, r: float) -> list[complex]:
    """Principal-branch real power of a coefficient list, by the recurrence
    k a_0 b_k = sum_{j=1..k} (j(r+1)-k) a_j b_{k-j}, from differentiating b = a^r.
    Terms with a complex a_j == 0 are skipped: each would add a signed zero to
    a sum that started at 0j, which keeps the bits unless some b_{k-j} is inf
    or nan.  A linear a (1 - t) costs O(N), not O(N^2)."""
    a0 = a[0]
    if _near_zero(a0):
        raise BranchPointJet("jet constant term sits on the branch point of ^r")
    nonzero = [j for j in range(1, len(a)) if not isinstance(a[j], complex) or a[j] != 0]
    out = [0j] * len(a)
    out[0] = a0 ** r
    for k in range(1, len(a)):
        s = 0j
        for j in nonzero:
            if j > k:
                break
            s += (j * (r + 1) - k) * a[j] * out[k - j]
        out[k] = s / (k * a0)
    return out


def jet_rpow(a: Jet1, r: float) -> Jet1:
    """Principal-branch real power of a jet; see _rpow1."""
    return Jet1(a.center, tuple(_rpow1(a.coeffs, r)))


def _factorial_times(c, k: int):
    """The k! c_k read-off: c times 2, 3, ..., k in turn (k! at once rounds differently)."""
    for i in range(2, k + 1):
        c = c * i
    return c


def derivative_extract(a: Jet1, k: int) -> complex:
    """k-th derivative of the represented function at the center: k! * c_k."""
    if k > a.order or k < 0:
        raise OrderExceeded(f"derivative order {k} exceeds stored order {a.order}")
    return _factorial_times(a.coeffs[k], k)


def partial_extract(a: Jet1, k: int, l: int) -> complex:
    """Mixed partial d^{k+l}/dt^k du^l of a two-variable jet at its center:
    k! * l! * c_{k,l}, c_{k,l} the coefficient k of the coefficient l."""
    nt, nu = a.coeffs[0].order, a.order
    if k > nt or l > nu or k < 0 or l < 0:
        raise OrderExceeded(
            f"partial order ({k},{l}) exceeds stored orders ({nt},{nu})")
    return _factorial_times(_factorial_times(a.coeffs[l].coeffs[k], k), l)
