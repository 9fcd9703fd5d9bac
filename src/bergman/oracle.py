"""Formula-independent ground truth.

Two mechanisms, deliberately dumb: the orthonormal monomial expansion
K(z,w) = sum_alpha z^alpha conj(w)^alpha / N_alpha summed by total degree,
and seeded Monte Carlo in the bounding polydisc for volumes and the
reproducing identity.  Everything here is slow and trusted; the closed forms
are fast and checked against it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .domains import DomainSpec, log_monomial_norm_sq, phi
from .errors import NoConvergence, PreconditionViolated, UnsupportedDomain
from .kernels import KernelValue

# block size for the counter-based sample stream; estimates are sums over
# blocks, so any assignment of blocks to workers merges to the same result
_MC_BLOCK = 1 << 16


@dataclass(frozen=True)
class SeriesConfig:
    max_degree: int = 200
    stop_rel: float = 1e-9
    hard_cap: int = 200

    def __post_init__(self):
        if not (0.0 < self.stop_rel < 1.0):
            raise PreconditionViolated(
                f"stop_rel must lie in (0,1), got {self.stop_rel}")
        if self.max_degree > self.hard_cap:
            raise PreconditionViolated(
                f"max_degree {self.max_degree} exceeds hard cap {self.hard_cap}")


def _degree_increments(d: DomainSpec, z, w, top: int):
    """Yield per-total-degree contributions to the monomial series.

    Coordinates with z_j * conj(w_j) = 0 only contribute through alpha_j = 0,
    so the enumeration runs over the active coordinates alone.
    """
    if not d.is_diagonal:
        raise UnsupportedDomain("series oracle needs a diagonal domain")
    n = d.total_dim
    if len(z) != n or len(w) != n:
        raise PreconditionViolated(
            f"points of length {len(z)}, {len(w)} on a {n}-dimensional domain")
    v = [zj * complex(wj).conjugate() for zj, wj in zip(z, w)]
    active = [j for j in range(n) if v[j] != 0]
    logv = [cmath.log(v[j]) for j in active]

    base = [0] * n
    for deg in range(top + 1):
        if deg == 0:
            yield 0, cmath.exp(-log_monomial_norm_sq(d, base))
            continue
        if not active:
            return
        total = 0j
        for comp in _compositions(deg, len(active)):
            alpha = list(base)
            ex = 0j
            for slot, a in enumerate(comp):
                alpha[active[slot]] = a
                ex += a * logv[slot]
            total += cmath.exp(ex - log_monomial_norm_sq(d, alpha))
        yield deg, total


def _compositions(total: int, parts: int):
    """All tuples of ``parts`` nonnegative integers summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def series_kernel(d: DomainSpec, z: Sequence[complex], w: Sequence[complex],
                  cfg: SeriesConfig | None = None) -> KernelValue:
    """Monomial-series kernel value, summed by total degree.

    Stops when the partial sum moves by less than stop_rel of its running
    peak modulus over two consecutive degrees; the peak (rather than the
    current value) keeps the rule meaningful at a true zero of K.
    """
    if cfg is None:
        cfg = SeriesConfig()
    for pt in (z, w):
        if phi(d, pt) > 0.7:
            raise PreconditionViolated(
                f"series oracle wants phi <= 0.7, got {phi(d, pt):.4f}")
    top = min(cfg.max_degree, cfg.hard_cap)
    acc = 0j
    peak = 0.0
    quiet = 0
    for deg, inc in _degree_increments(d, z, w, top):
        acc += inc
        peak = max(peak, abs(acc))
        quiet = quiet + 1 if abs(inc) < cfg.stop_rel * peak else 0
        if quiet >= 2:
            return KernelValue(acc, "series_oracle")
    if not any(zj * complex(wj).conjugate() != 0 for zj, wj in zip(z, w)):
        # only the constant term exists; the series is exact
        return KernelValue(acc, "series_oracle")
    raise NoConvergence(
        f"series did not settle by degree {top} (phi too close to 1?)")


def _unit_disc_samples(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    r = np.sqrt(rng.random((count, dim)))
    theta = 2.0 * math.pi * rng.random((count, dim))
    return r * np.exp(1j * theta)


def _phi_many(d: DomainSpec, pts: np.ndarray) -> np.ndarray:
    out = np.zeros(pts.shape[0])
    col = 0
    for b in d.blocks:
        sq = np.sum(np.abs(pts[:, col:col + b.dim]) ** 2, axis=1)
        out += sq ** (1.0 / b.p)
        col += b.dim
    return out


def _block_rng(seed: int, block: int) -> np.random.Generator:
    # Philox is counter-based: the (seed, block) key pins the stream exactly,
    # independent of how blocks are distributed over workers or platforms
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, block])))


def mc_volume(d: DomainSpec, samples: int, seed: int) -> tuple[float, float]:
    """Rejection-sampling volume from the bounding polydisc {|z_j| < 1}.

    Returns (estimate, standard error); deterministic for a given seed.
    """
    if samples < 1e4:
        raise PreconditionViolated(f"need at least 1e4 samples, got {samples}")
    n = d.total_dim
    hits = 0
    done = 0
    block = 0
    while done < samples:
        take = min(_MC_BLOCK, samples - done)
        pts = _unit_disc_samples(_block_rng(seed, block), take, n)
        hits += int(np.count_nonzero(_phi_many(d, pts) < 1.0))
        done += take
        block += 1
    rate = hits / samples
    scale = math.pi ** n
    return scale * rate, scale * math.sqrt(rate * (1.0 - rate) / samples)


class ReproducingResidual(float):
    """|MC estimate - h(z)|, a float carrying the pieces it came from."""

    estimate: complex
    expected: complex
    stderr: float
    samples: int

    def __new__(cls, residual: float, estimate: complex, expected: complex,
                stderr: float, samples: int):
        obj = super().__new__(cls, residual)
        obj.estimate = estimate
        obj.expected = expected
        obj.stderr = stderr
        obj.samples = samples
        return obj


def poly_eval(h: Mapping[tuple[int, ...], complex], pts: np.ndarray) -> np.ndarray:
    """Evaluate sum_beta c_beta w^beta at each row of pts."""
    out = np.zeros(pts.shape[0], dtype=complex)
    for beta, c in h.items():
        term = np.full(pts.shape[0], complex(c))
        for j, e in enumerate(beta):
            if e:
                term = term * pts[:, j] ** e
        out += term
    return out


def reproducing_check(d: DomainSpec, K: Callable[..., np.ndarray],
                      h: Mapping[tuple[int, ...], complex],
                      z: Sequence[complex], samples: int,
                      seed: int) -> ReproducingResidual:
    """Monte Carlo test of h(z) = integral of h(w) K(z, w) over the domain.

    ``K(z, pts)`` must return the kernel values K(z, w_i) for an array of
    points w_i (rows of pts).  The integrand is extended by zero outside the
    domain and averaged over the bounding polydisc, so ``samples`` counts
    draws, not acceptances.  Returns |estimate - h(z)| with the standard
    error attached.
    """
    if phi(d, z) > 0.5:
        raise PreconditionViolated(
            f"reproducing_check wants phi(z) <= 0.5, got {phi(d, z):.4f}")
    n = d.total_dim
    scale = math.pi ** n
    total = 0j
    total_sq = 0.0
    done = 0
    block = 0
    while done < samples:
        take = min(_MC_BLOCK, samples - done)
        pts = _unit_disc_samples(_block_rng(seed, block), take, n)
        inside = _phi_many(d, pts) < 1.0
        vals = np.zeros(take, dtype=complex)
        if np.any(inside):
            w_in = pts[inside]
            vals[inside] = np.asarray(K(z, w_in)) * poly_eval(h, w_in)
        total += complex(np.sum(vals))
        total_sq += float(np.sum(np.abs(vals) ** 2))
        done += take
        block += 1
    mean = total / samples
    estimate = scale * mean
    var = total_sq / samples - abs(mean) ** 2
    stderr = scale * math.sqrt(max(var, 0.0) / samples)
    zz = np.asarray([z], dtype=complex)
    expected = complex(poly_eval(h, zz)[0])
    return ReproducingResidual(abs(estimate - expected), estimate, expected,
                               stderr, samples)
