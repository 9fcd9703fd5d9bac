"""Generalized complex ellipsoids.

A domain is a finite list of blocks (m_j, p_j) and stands for

    sum_j ||z_j||^(2/p_j) < 1,   z_j in C^(m_j).

This module owns membership tests, the closed-form monomial L2 norms on the
all-diagonal (every m_j = 1) case, and volumes.  The Gamma function is local
to this module; everything downstream that needs Gamma goes through here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DimensionMismatch, SchemaError, UnsupportedDomain

# Lanczos approximation, g = 7, 9 coefficients.  Relative error stays below
# 1e-13 for real arguments in (0, 50], which is the range exercised here.
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for real x > 0."""
    if x <= 0.0:
        raise ValueError(f"log_gamma requires a positive argument, got {x}")
    if x < 0.5:
        # shift into the stable range via Gamma(x) = Gamma(x+1)/x
        return log_gamma(x + 1.0) - math.log(x)
    xa = x - 1.0
    acc = _LANCZOS_COEFFS[0]
    for i in range(1, len(_LANCZOS_COEFFS)):
        acc += _LANCZOS_COEFFS[i] / (xa + i)
    t = xa + _LANCZOS_G + 0.5
    return 0.5 * math.log(2.0 * math.pi) + (xa + 0.5) * math.log(t) - t + math.log(acc)


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


@dataclass(frozen=True)
class MultiIndex:
    """Monomial exponents, one per complex coordinate."""

    entries: tuple[int, ...]

    @property
    def total_degree(self) -> int:
        return sum(self.entries)


def _entries(alpha) -> tuple[int, ...]:
    if isinstance(alpha, MultiIndex):
        return alpha.entries
    return tuple(int(a) for a in alpha)


def parse_domain_spec(text) -> DomainSpec:
    """Parse the JSON domain description {"blocks":[{"dim":int,"p":number},...]}.

    Accepts a JSON string or an already-decoded dict.  Structural problems
    raise SchemaError with the offending field path; nonpositive dim or p,
    and non-finite p, raise ValueError.
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
        if not math.isfinite(p):
            raise ValueError(f"{path}.p must be finite, got {p}")
        out.append(Block(dim, float(p)))
    return DomainSpec(tuple(out))


def phi(d: DomainSpec, z: Sequence[complex]) -> float:
    """Defining function sum_j ||z_j||^(2/p_j); the domain is {phi < 1}."""
    if len(z) != d.total_dim:
        raise DimensionMismatch(
            f"point has {len(z)} coordinates, domain has {d.total_dim}")
    total = 0.0
    idx = 0
    for b in d.blocks:
        norm_sq = 0.0
        for k in range(b.dim):
            norm_sq += abs(z[idx + k]) ** 2
        idx += b.dim
        # != rather than >, so that a NaN coordinate makes phi NaN: outside
        if norm_sq != 0.0:
            total += norm_sq ** (1.0 / b.p)
    return total


def contains(d: DomainSpec, z: Sequence[complex], margin: float = 0.0) -> bool:
    return phi(d, z) < 1.0 - margin


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
    a = _entries(alpha)
    n = d.total_dim
    if len(a) != n:
        raise DimensionMismatch(
            f"multi-index has {len(a)} entries, domain has {n} coordinates")
    acc = n * math.log(math.pi)
    s = 0.0
    for b, ak in zip(d.blocks, a):
        arg = b.p * (ak + 1)
        acc += math.log(b.p) + log_gamma(arg)
        s += arg
    return acc - log_gamma(1.0 + s)


def monomial_norm_sq(d: DomainSpec, alpha) -> float:
    return math.exp(log_monomial_norm_sq(d, alpha))


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
