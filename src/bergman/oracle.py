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

from .domains import DomainSpec, log_norm_table, phi
from .errors import NoConvergence, PreconditionViolated, UnsupportedDomain
from .kernels import KernelValue

# block size for the counter-based sample stream; estimates are sums over
# blocks, so any assignment of blocks to workers merges to the same result
_MC_BLOCK = 1 << 16
# |phi - 1| below which a draw's inside test is redone on its complex point
_GUARD = 1e-12


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
    log_norm = log_norm_table(d)

    base = [0] * n
    for deg in range(top + 1):
        if deg == 0:
            yield 0, cmath.exp(-log_norm(base))
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
            total += cmath.exp(ex - log_norm(alpha))
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
    acc = 0j
    peak = 0.0
    quiet = 0
    for deg, inc in _degree_increments(d, z, w, cfg.max_degree):
        acc += inc
        peak = max(peak, abs(acc))
        quiet = quiet + 1 if abs(inc) < cfg.stop_rel * peak else 0
        if quiet >= 2:
            return KernelValue(acc, "series_oracle")
    if not any(zj * complex(wj).conjugate() != 0 for zj, wj in zip(z, w)):
        # only the constant term exists; the series is exact
        return KernelValue(acc, "series_oracle")
    raise NoConvergence(
        f"series did not settle by degree {cfg.max_degree} (phi too close to 1?)")


def _phi_many(d: DomainSpec, sq: np.ndarray) -> np.ndarray:
    """phi at each row of squared moduli |z_j|^2, a block's columns added in
    turn, which are the bits of a sum over its slice."""
    out = None
    col = 0
    for b in d.blocks:
        norm_sq = sq[:, col]
        for k in range(col + 1, col + b.dim):
            norm_sq = norm_sq + sq[:, k]
        term = norm_sq ** (1.0 / b.p)
        out = term if out is None else out + term
        col += b.dim
    return out


def _block_rng(seed: int, block: int) -> np.random.Generator:
    import numpy as np

    # Philox is counter-based: the (seed, block) key pins the stream exactly,
    # independent of how blocks are distributed over workers or platforms
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, block])))


def _polydisc_blocks(d: DomainSpec, samples: int, seed: int, want_points: bool):
    """Per block of uniform polydisc draws: the inside mask, and the inside
    points if ``want_points``.  A block draws u = |z_j|^2, then the angles, so
    z_j = sqrt(u) e^(i theta).  phi needs only u; points are built only where
    wanted or where phi is within _GUARD of 1, and the mask is redone on them,
    so it equals the test on complex points bit for bit."""
    import numpy as np

    if isinstance(samples, bool) or not isinstance(samples, int) or samples < 1e4:
        raise PreconditionViolated(
            f"need an integer of at least 1e4 samples, got {samples!r}")
    for block, start in enumerate(range(0, samples, _MC_BLOCK)):
        rng = _block_rng(seed, block)
        u = rng.random((min(_MC_BLOCK, samples - start), d.total_dim))
        phi_u = _phi_many(d, u)
        inside = phi_u < 1.0
        rows = np.abs(phi_u - 1.0) < _GUARD
        if want_points:
            rows |= inside
        pts = None
        if np.any(rows):
            theta = 2.0 * math.pi * rng.random(u.shape)
            pts = np.sqrt(u[rows]) * np.exp(1j * theta[rows])
            hit = _phi_many(d, np.abs(pts) ** 2) < 1.0
            inside[rows] = hit
            pts = pts[hit]
        yield inside, pts


def mc_volume(d: DomainSpec, samples: int, seed: int) -> tuple[float, float]:
    """Rejection-sampling volume from the bounding polydisc {|z_j| < 1}.

    Returns (estimate, standard error); deterministic for a given seed.
    """
    import numpy as np

    hits = 0
    for inside, _ in _polydisc_blocks(d, samples, seed, False):
        hits += int(np.count_nonzero(inside))
    rate = hits / samples
    scale = math.pi ** d.total_dim
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
    import numpy as np

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
    import numpy as np

    if phi(d, z) > 0.5:
        raise PreconditionViolated(
            f"reproducing_check wants phi(z) <= 0.5, got {phi(d, z):.4f}")
    scale = math.pi ** d.total_dim
    total = 0j
    total_sq = 0.0
    for inside, w_in in _polydisc_blocks(d, samples, seed, True):
        vals = np.zeros(inside.shape, dtype=complex)
        if np.any(inside):
            vals[inside] = np.asarray(K(z, w_in)) * poly_eval(h, w_in)
        total += complex(np.sum(vals))
        total_sq += float(np.sum(np.abs(vals) ** 2))
    mean = total / samples
    estimate = scale * mean
    var = total_sq / samples - abs(mean) ** 2
    stderr = scale * math.sqrt(max(var, 0.0) / samples)
    zz = np.asarray([z], dtype=complex)
    expected = complex(poly_eval(h, zz)[0])
    return ReproducingResidual(abs(estimate - expected), estimate, expected,
                               stderr, samples)
