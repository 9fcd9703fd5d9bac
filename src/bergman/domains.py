"""Generalized complex ellipsoids.

A domain is a finite list of blocks (m_j, p_j) and stands for

    sum_j ||z_j||^(2/p_j) < 1,   z_j in C^(m_j).

This module owns membership tests, the closed-form monomial L2 norms on the
all-diagonal (every m_j = 1) case, and volumes.  Gamma values come from
math.lgamma through log_gamma and gamma_fn here; everything downstream that
needs Gamma goes through them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DimensionMismatch, SchemaError, UnsupportedDomain


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for real x > 0."""
    if x <= 0.0:
        raise ValueError(f"log_gamma requires a positive argument, got {x}")
    return math.lgamma(x)


def gamma_fn(x: float) -> float:
    # integral arguments resolve exactly; ratios of small factorials then
    # round the same way as the hand-simplified constants they must match
    if x == int(x) and 1.0 <= x <= 170.0:
        return float(math.factorial(int(x) - 1))
    return math.exp(log_gamma(x))


@dataclass(frozen=True)
class Block:
    """One vector block z_j in C^dim entering as ||z_j||^(2/p)."""

    dim: int
    p: float


@dataclass(frozen=True)
class DomainSpec:
    blocks: tuple[Block, ...]

    @property
    def total_dim(self) -> int:
        return sum(b.dim for b in self.blocks)

    @property
    def is_diagonal(self) -> bool:
        """True when every block is one-dimensional (complete Reinhardt diagonal)."""
        return all(b.dim == 1 for b in self.blocks)

    def exponents(self) -> tuple[float, ...]:
        return tuple(b.p for b in self.blocks)


def diagonal_domain(*ps: float) -> DomainSpec:
    """Convenience constructor: all blocks one-dimensional with the given p's."""
    return DomainSpec(tuple(Block(1, float(p)) for p in ps))


def parse_domain_spec(text) -> DomainSpec:
    """Parse the JSON domain description {"blocks":[{"dim":int,"p":number},...]}.

    Accepts a JSON string or an already-decoded dict.  Structural problems,
    an integer p too large for a float among them, raise SchemaError with the
    offending field path; nonpositive dim or p, and non-finite p, raise
    ValueError.
    """
    if isinstance(text, (str, bytes)):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise SchemaError("$", f"not valid JSON ({e.msg})") from e
    else:
        doc = text
    if not isinstance(doc, dict):
        raise SchemaError("$", "expected a JSON object")
    if "blocks" not in doc:
        raise SchemaError("$.blocks", "missing required field")
    blocks = doc["blocks"]
    if not isinstance(blocks, list) or len(blocks) == 0:
        raise SchemaError("$.blocks", "expected a nonempty array")
    out = []
    for i, item in enumerate(blocks):
        path = f"$.blocks[{i}]"
        if not isinstance(item, dict):
            raise SchemaError(path, "expected an object")
        for key in ("dim", "p"):
            if key not in item:
                raise SchemaError(f"{path}.{key}", "missing required field")
        dim = item["dim"]
        p = item["p"]
        if isinstance(dim, bool) or not isinstance(dim, int):
            raise SchemaError(f"{path}.dim", "expected an integer")
        if isinstance(p, bool) or not isinstance(p, (int, float)):
            raise SchemaError(f"{path}.p", "expected a number")
        if dim <= 0:
            raise ValueError(f"{path}.dim must be positive, got {dim}")
        if p <= 0:
            raise ValueError(f"{path}.p must be positive, got {p}")
        try:
            p = float(p)
        except OverflowError:
            raise SchemaError(f"{path}.p", "integer too large for a float") from None
        if not math.isfinite(p):
            raise ValueError(f"{path}.p must be finite, got {p}")
        out.append(Block(dim, p))
    return DomainSpec(tuple(out))


def phi(d: DomainSpec, z: Sequence[complex]) -> float:
    """Defining function sum_j ||z_j||^(2/p_j); the domain is {phi < 1}."""
    if len(z) != d.total_dim:
        raise DimensionMismatch(
            f"point has {len(z)} coordinates, domain has {d.total_dim}")
    return _block_phi([(b.dim, b.p) for b in d.blocks], z)


def _block_phi(blocks: Sequence[tuple[int, float]], z: Sequence[complex]) -> float:
    """phi over (dim, p) pairs laid end to end in z, which must be long enough;
    the closed forms test membership through it without building a DomainSpec."""
    total = 0.0
    idx = 0
    for dim, p in blocks:
        norm_sq = 0.0
        for k in range(dim):
            norm_sq += abs(z[idx + k]) ** 2
        idx += dim
        # != rather than >, so that a NaN coordinate makes phi NaN: outside
        if norm_sq != 0.0:
            total += norm_sq ** (1.0 / p)
    return total


def contains(d: DomainSpec, z: Sequence[complex]) -> bool:
    return phi(d, z) < 1.0


class NormRow:
    """One coordinate's shares of log_monomial_norm_sq by exponent a, grown on
    demand by ``upto``: log p + log Gamma(p (a+1)) in ``log[a]``, p (a+1) in ``arg[a]``."""

    def __init__(self, p: float):
        self.p, self.log_p, self.log, self.arg = p, math.log(p), [], []

    def share(self, a: int) -> tuple[float, float]:
        """(log[a], arg[a]) alone, without the entries below a."""
        arg = self.p * (a + 1)
        return self.log_p + log_gamma(arg), arg

    def upto(self, top: int) -> None:
        for a in range(len(self.log), top + 1):
            log, arg = self.share(a)
            self.log.append(log)
            self.arg.append(arg)


def log_norm_table(d: DomainSpec) -> tuple[float, list[NormRow]]:
    """n log pi and a NormRow per coordinate of an all-diagonal d: log ||z^alpha||^2
    is n log pi + sum_j row_j.log[alpha_j] - log Gamma(1 + sum_j row_j.arg[alpha_j]),
    each sum taken over j in turn."""
    return len(d.blocks) * math.log(math.pi), [NormRow(b.p) for b in d.blocks]


def log_monomial_norm_sq(d: DomainSpec, alpha) -> float:
    """log of the squared L2 norm of z^alpha on an all-diagonal domain.

    The closed form is

        pi^n * (prod_j p_j) * (prod_j Gamma(p_j (alpha_j+1))) / Gamma(1 + sum_j p_j (alpha_j+1))

    computed in log space so that series-oracle truncation degrees (where the
    Gamma argument sum can reach ~200) stay inside double range.
    """
    if not d.is_diagonal:
        raise UnsupportedDomain(
            "monomial norms are defined only for all-diagonal domains")
    a = tuple(int(k) for k in alpha)
    if len(a) != d.total_dim:
        raise DimensionMismatch(
            f"multi-index has {len(a)} entries, domain has {d.total_dim} coordinates")
    if any(k < 0 for k in a):
        raise ValueError(f"multi-index {a} has a negative entry")
    acc, rows = log_norm_table(d)
    s = 0.0
    for row, k in zip(rows, a):
        log, arg = row.share(k)
        acc, s = acc + log, s + arg
    return acc - log_gamma(1.0 + s)


def volume(d: DomainSpec) -> float:
    """Lebesgue volume, from the Gamma closed form.

    All-diagonal case: monomial norm of the constant.  Vector blocks reduce to
    a Dirichlet integral over the block radii, giving

        pi^n * prod_j [p_j Gamma(p_j m_j) / Gamma(m_j)] / Gamma(1 + sum_j p_j m_j)

    which collapses to the diagonal formula when every m_j = 1.
    """
    args = [b.p * b.dim for b in d.blocks]
    s = sum(args)
    if 1.0 + s <= 170.0:
        # direct products keep integer-argument cases exact (disc volume is
        # bit-equal to pi, which the degenerate zero-variance MC check needs)
        acc = math.pi ** d.total_dim
        for b, arg in zip(d.blocks, args):
            acc *= b.p * gamma_fn(arg) / gamma_fn(float(b.dim))
        return acc / gamma_fn(1.0 + s)
    acc = d.total_dim * math.log(math.pi)
    for b, arg in zip(d.blocks, args):
        acc += math.log(b.p) + log_gamma(arg) - log_gamma(float(b.dim))
    return math.exp(acc - log_gamma(1.0 + s))
