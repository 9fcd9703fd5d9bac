"""Truncated Taylor (jet) arithmetic in one and two complex variables.

Every derivative that appears in a kernel formula is realized by building the
relevant rational expression in jet arithmetic and reading off a coefficient.
This is exact up to rounding: no symbolic algebra, no finite differences.

An order-1 Jet1 may hold same-shape numpy arrays, one jet for a batch of points,
so the winding count runs each slice formula once per block of contour points.

Each recurrence is written once, on coefficient lists (_mul1, _div1, _rpow1,
_factorial_times); Jet1's operators and the kernels' closed forms call them.
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


class _JetOps:
    """The operators of Jet1 and Jet2: jet_arith on the jet and the other
    operand, which the class's _lift turns into a jet like it."""

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


@dataclass(frozen=True)
class Jet1(_JetOps):
    """Taylor coefficients c_0..c_N of a function of one variable at ``center``;
    at order 1 these may be numpy arrays (a batch, see the module docstring)
    whose jets share one center object, so combining them compares no arrays."""

    center: complex
    coeffs: tuple[complex, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def _lift(self, value) -> Jet1:
        if isinstance(value, Jet1):
            return value
        return Jet1(self.center, (complex(value),) + (0j,) * self.order)

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


@dataclass(frozen=True)
class Jet2(_JetOps):
    """Coefficients c_{k,l} of a function of (t,u) at ``center``, row-major in k."""

    center: tuple[complex, complex]
    coeffs: tuple[tuple[complex, ...], ...]

    @property
    def orders(self) -> tuple[int, int]:
        return (len(self.coeffs) - 1, len(self.coeffs[0]) - 1)

    def _lift(self, value) -> Jet2:
        if isinstance(value, Jet2):
            return value
        return jet2_const(value, self.orders, self.center)

    def __neg__(self):
        return Jet2(self.center, tuple(tuple(-c for c in row) for row in self.coeffs))


def jet1_const(value: complex, order: int, center: complex = 0j) -> Jet1:
    return Jet1(complex(center), (complex(value),) + (0j,) * order)


def jet1_variable(center: complex, order: int) -> Jet1:
    """The identity function t, expanded at ``center`` to the given order."""
    c = complex(center)
    if order == 0:
        return Jet1(c, (c,))
    return Jet1(c, (c, 1 + 0j) + (0j,) * (order - 1))


def jet2_const(value: complex, orders: tuple[int, int],
               center: tuple[complex, complex] = (0j, 0j)) -> Jet2:
    nt, nu = orders
    rows = [[0j] * (nu + 1) for _ in range(nt + 1)]
    rows[0][0] = complex(value)
    return Jet2((complex(center[0]), complex(center[1])),
                tuple(tuple(r) for r in rows))


def jet2_variable_u(center: tuple[complex, complex], orders: tuple[int, int]) -> Jet2:
    nt, nu = orders
    rows = [[0j] * (nu + 1) for _ in range(nt + 1)]
    rows[0][0] = complex(center[1])
    if nu >= 1:
        rows[0][1] = 1 + 0j
    return Jet2((complex(center[0]), complex(center[1])),
                tuple(tuple(r) for r in rows))


def jet2_lift_t(a: Jet1, u_center: complex, u_order: int) -> Jet2:
    """Embed a jet in t as a two-variable jet that does not depend on u."""
    rows = [[0j] * (u_order + 1) for _ in range(a.order + 1)]
    for k, c in enumerate(a.coeffs):
        rows[k][0] = c
    return Jet2((a.center, complex(u_center)), tuple(tuple(r) for r in rows))


def _check1(a: Jet1, b: Jet1) -> None:
    if a.order != b.order or (a.center is not b.center and a.center != b.center):
        raise CenterMismatch(
            f"jet mismatch: centers {a.center} vs {b.center}, "
            f"orders {a.order} vs {b.order}")


def _check2(a: Jet2, b: Jet2) -> None:
    if a.center != b.center or a.orders != b.orders:
        raise CenterMismatch(
            f"jet mismatch: centers {a.center} vs {b.center}, "
            f"orders {a.orders} vs {b.orders}")


def _near_zero(c) -> bool:
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


def _div1(a: tuple[complex, ...], b: tuple[complex, ...], head=()) -> list[complex]:
    """a / b to the order of a.  ``head`` may hold the first coefficients of the
    quotient, from a lower-order call: the rest follow from them, the same bits."""
    if _near_zero(b[0]):
        raise DivisionByZeroJet("divisor jet has (numerically) zero constant term")
    n = len(a)
    out = list(head) or [a[0] / b[0]]
    for k in range(len(out), n):
        s = a[k]
        for j in range(1, k + 1):
            s = s - b[j] * out[k - j]
        out.append(s / b[0])
    return out


def jet_arith(a, b, op: str):
    """Pointwise add/sub/mul/div of two jets of the same kind, center, and order."""
    if isinstance(a, Jet1) and isinstance(b, Jet1):
        _check1(a, b)
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
    if isinstance(a, Jet2) and isinstance(b, Jet2):
        _check2(a, b)
        nt, nu = a.orders
        if op == "add":
            rows = [[a.coeffs[k][l] + b.coeffs[k][l] for l in range(nu + 1)]
                    for k in range(nt + 1)]
        elif op == "sub":
            rows = [[a.coeffs[k][l] - b.coeffs[k][l] for l in range(nu + 1)]
                    for k in range(nt + 1)]
        elif op == "mul":
            rows = [[0j] * (nu + 1) for _ in range(nt + 1)]
            for k in range(nt + 1):
                for l in range(nu + 1):
                    s = 0j
                    for i in range(k + 1):
                        for j in range(l + 1):
                            s += a.coeffs[i][j] * b.coeffs[k - i][l - j]
                    rows[k][l] = s
        elif op == "div":
            if abs(b.coeffs[0][0]) < _ZERO_EPS:
                raise DivisionByZeroJet(
                    "divisor jet has (numerically) zero constant term")
            rows = [[0j] * (nu + 1) for _ in range(nt + 1)]
            # graded back-substitution: every term on the right is already known
            for k in range(nt + 1):
                for l in range(nu + 1):
                    s = a.coeffs[k][l]
                    for i in range(k + 1):
                        for j in range(l + 1):
                            if i == 0 and j == 0:
                                continue
                            s -= b.coeffs[i][j] * rows[k - i][l - j]
                    rows[k][l] = s / b.coeffs[0][0]
        else:
            raise ValueError(f"unknown op {op!r}")
        return Jet2(a.center, tuple(tuple(r) for r in rows))
    raise CenterMismatch(f"cannot combine {type(a).__name__} with {type(b).__name__}")


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


def partial_extract(a: Jet2, k: int, l: int) -> complex:
    """Mixed partial d^{k+l}/dt^k du^l at the center: k! * l! * c_{k,l}."""
    nt, nu = a.orders
    if k > nt or l > nu or k < 0 or l < 0:
        raise OrderExceeded(
            f"partial order ({k},{l}) exceeds stored orders ({nt},{nu})")
    return _factorial_times(_factorial_times(a.coeffs[k][l], k), l)
