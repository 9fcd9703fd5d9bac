"""Truncated Taylor (jet) arithmetic in one and two complex variables.

Every derivative that appears in a kernel formula is realized by building the
relevant rational expression in jet arithmetic and reading off a coefficient.
This is exact up to rounding: no symbolic algebra, no finite differences.
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
    """Taylor coefficients c_0..c_N of a function of one variable at ``center``."""

    center: complex
    coeffs: tuple[complex, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other):
        return jet_arith(self, _coerce1(other, self), "add")

    def __radd__(self, other):
        return jet_arith(_coerce1(other, self), self, "add")

    def __sub__(self, other):
        return jet_arith(self, _coerce1(other, self), "sub")

    def __rsub__(self, other):
        return jet_arith(_coerce1(other, self), self, "sub")

    def __mul__(self, other):
        return jet_arith(self, _coerce1(other, self), "mul")

    def __rmul__(self, other):
        return jet_arith(_coerce1(other, self), self, "mul")

    def __truediv__(self, other):
        return jet_arith(self, _coerce1(other, self), "div")

    def __rtruediv__(self, other):
        return jet_arith(_coerce1(other, self), self, "div")

    def __pow__(self, n):
        # whole non-negative ints multiply out; any other real goes through
        # jet_rpow, so write a float exponent (x ** 4.0) to take the recurrence
        if not isinstance(n, int) or n < 0:
            return jet_rpow(self, float(n))
        out = jet1_const(1.0, self.order, self.center)
        for _ in range(n):
            out = out * self
        return out

    def __neg__(self):
        return Jet1(self.center, tuple(-c for c in self.coeffs))


@dataclass(frozen=True)
class Jet2:
    """Coefficients c_{k,l} of a function of (t,u) at ``center``, row-major in k."""

    center: tuple[complex, complex]
    coeffs: tuple[tuple[complex, ...], ...]

    @property
    def orders(self) -> tuple[int, int]:
        return (len(self.coeffs) - 1, len(self.coeffs[0]) - 1)

    def __add__(self, other):
        return jet_arith(self, _coerce2(other, self), "add")

    def __radd__(self, other):
        return jet_arith(_coerce2(other, self), self, "add")

    def __sub__(self, other):
        return jet_arith(self, _coerce2(other, self), "sub")

    def __rsub__(self, other):
        return jet_arith(_coerce2(other, self), self, "sub")

    def __mul__(self, other):
        return jet_arith(self, _coerce2(other, self), "mul")

    def __rmul__(self, other):
        return jet_arith(_coerce2(other, self), self, "mul")

    def __truediv__(self, other):
        return jet_arith(self, _coerce2(other, self), "div")

    def __rtruediv__(self, other):
        return jet_arith(_coerce2(other, self), self, "div")

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


def _coerce1(value, like: Jet1) -> Jet1:
    if isinstance(value, Jet1):
        return value
    return jet1_const(value, like.order, like.center)


def _coerce2(value, like: Jet2) -> Jet2:
    if isinstance(value, Jet2):
        return value
    return jet2_const(value, like.orders, like.center)


def _check1(a: Jet1, b: Jet1) -> None:
    if a.center != b.center or a.order != b.order:
        raise CenterMismatch(
            f"jet mismatch: centers {a.center} vs {b.center}, "
            f"orders {a.order} vs {b.order}")


def _check2(a: Jet2, b: Jet2) -> None:
    if a.center != b.center or a.orders != b.orders:
        raise CenterMismatch(
            f"jet mismatch: centers {a.center} vs {b.center}, "
            f"orders {a.orders} vs {b.orders}")


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
    if abs(b[0]) < _ZERO_EPS:
        raise DivisionByZeroJet("divisor jet has (numerically) zero constant term")
    n = len(a)
    out = [0j] * n
    out[0] = a[0] / b[0]
    for k in range(1, n):
        s = a[k]
        for j in range(1, k + 1):
            s -= b[j] * out[k - j]
        out[k] = s / b[0]
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


def jet_rpow(a: Jet1, r: float) -> Jet1:
    """Principal-branch real power of a jet.

    Uses the power recurrence k*a0*b_k = sum_{j=1..k} (j(r+1)-k) a_j b_{k-j},
    which follows from differentiating b = a^r.
    """
    a0 = a.coeffs[0]
    if abs(a0) < _ZERO_EPS:
        raise BranchPointJet("jet constant term sits on the branch point of ^r")
    n = a.order
    out = [0j] * (n + 1)
    out[0] = a0 ** r
    for k in range(1, n + 1):
        s = 0j
        for j in range(1, k + 1):
            s += (j * (r + 1) - k) * a.coeffs[j] * out[k - j]
        out[k] = s / (k * a0)
    return Jet1(a.center, tuple(out))


def derivative_extract(a: Jet1, k: int) -> complex:
    """k-th derivative of the represented function at the center: k! * c_k."""
    if k > a.order or k < 0:
        raise OrderExceeded(f"derivative order {k} exceeds stored order {a.order}")
    out = a.coeffs[k]
    for i in range(2, k + 1):
        out = out * i
    return out


def partial_extract(a: Jet2, k: int, l: int) -> complex:
    """Mixed partial d^{k+l}/dt^k du^l at the center: k! * l! * c_{k,l}."""
    nt, nu = a.orders
    if k > nt or l > nu or k < 0 or l < 0:
        raise OrderExceeded(
            f"partial order ({k},{l}) exceeds stored orders ({nt},{nu})")
    out = a.coeffs[k][l]
    for i in range(2, k + 1):
        out = out * i
    for i in range(2, l + 1):
        out = out * i
    return out
