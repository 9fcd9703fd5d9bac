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

from .domains import DomainSpec, log_gamma, log_norm_table, phi
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
    """Yield per-total-degree contributions to the monomial series: alpha walks
    each degree lexicographically, the last two coordinates as one flat loop,
    over rows of a log v_j, v_j = z_j * conj(w_j), and of log_norm_table grown a
    degree at a time, with prefix sums left to right.  Where v_j = 0 only a = 0
    is taken; its 0j in the exponent moves no bit of the sums from 0j.  With no
    v_j nonzero, degrees 1 and 2 add 0j, so the stop rule returns the constant."""
    if not d.is_diagonal:
        raise UnsupportedDomain("series oracle needs a diagonal domain")
    n = d.total_dim
    if len(z) != n or len(w) != n:
        raise PreconditionViolated(
            f"points of length {len(z)}, {len(w)} on a {n}-dimensional domain")
    base, rows = log_norm_table(d)
    e, grow = [], []
    for zj, wj, row in zip(z, w, rows):
        row.upto(0)
        logv = cmath.log(v) if (v := zj * complex(wj).conjugate()) != 0 else 0j
        e.append([0 * logv])
        if v != 0:
            grow.append((logv, e[-1], row))
    logs, args = [row.log for row in rows], [row.arg for row in rows]
    if n == 1:  # a neutral coordinate in front pairs the only one
        e, logs, args, n = [[0j]] + e, [[0.0]] + logs, [[0.0]] + args, 2
    e2, log2, arg2 = e[-1], logs[-1], args[-1]

    def walk(t, rem, ex, acc, s, total):
        et, log, arg = e[t], logs[t], args[t]
        if t < n - 2:
            for a in range(min(rem + 1, len(et))):
                total = walk(t + 1, rem - a, ex + et[a], acc + log[a], s + arg[a], total)
            return total
        lo = max(0, rem + 1 - len(e2))
        for a, b in zip(range(lo, min(rem + 1, len(et))), range(rem - lo, -1, -1)):
            total += cmath.exp(((ex + et[a]) + e2[b]) - (((acc + log[a]) + log2[b])
                               - log_gamma(1.0 + ((s + arg[a]) + arg2[b]))))
        return total

    for deg in range(top + 1 if grow else 3):
        for logv, ej, row in grow if deg else ():
            ej.append(deg * logv)
            row.upto(deg)
        yield deg, walk(0, deg, 0j, base, 0.0, 0j)


def series_kernel(d: DomainSpec, z: Sequence[complex], w: Sequence[complex],
                  cfg: SeriesConfig | None = None) -> KernelValue:
    """Monomial-series kernel value, summed by total degree.

    Stops when the partial sum moves by less than stop_rel of its running
    peak modulus over two consecutive degrees; the peak (rather than the
    current value) keeps the rule meaningful at a true zero of K.
    """
    cfg = cfg or SeriesConfig()
    for pt in (z, w):
        if phi(d, pt) > 0.7:
            raise PreconditionViolated(
                f"series oracle wants phi <= 0.7, got {phi(d, pt):.4f}")
    acc, peak, quiet = 0j, 0.0, 0
    for deg, inc in _degree_increments(d, z, w, cfg.max_degree):
        acc += inc
        peak = max(peak, abs(acc))
        quiet = quiet + 1 if abs(inc) < cfg.stop_rel * peak else 0
        if quiet >= 2:
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
    """Per block of uniform polydisc draws: the inside mask, then the inside
    rows and their points if ``want_points``.  A block draws u = |z_j|^2, then
    the angles, so z_j = sqrt(u) e^(i theta).  phi needs only u; rows within
    _GUARD of phi = 1 are retested on their points, as complex points decide."""
    import numpy as np

    if isinstance(samples, bool) or not isinstance(samples, int) or samples < 1e4:
        raise PreconditionViolated(
            f"need an integer of at least 1e4 samples, got {samples!r}")
    for block, start in enumerate(range(0, samples, _MC_BLOCK)):
        rng = _block_rng(seed, block)
        u = rng.random((min(_MC_BLOCK, samples - start), d.total_dim))
        phi_u = _phi_many(d, u)
        inside = phi_u < 1.0
        band = np.abs(phi_u - 1.0) < _GUARD
        rows = np.flatnonzero(inside | band if want_points else band)
        pts = None
        if rows.size:
            theta = rng.random(u.shape)[rows]
            pts = np.sqrt(u[rows]) * np.exp(1j * (2.0 * math.pi * theta))
            recheck = np.flatnonzero(band[rows])
            if recheck.size:
                inside[rows[recheck]] = _phi_many(d, np.abs(pts[recheck]) ** 2) < 1.0
                rows, pts = rows[inside[rows]], pts[inside[rows]]
        yield inside, rows, pts


def mc_volume(d: DomainSpec, samples: int, seed: int) -> tuple[float, float]:
    """Rejection-sampling volume from the bounding polydisc {|z_j| < 1}.

    Returns (estimate, standard error); deterministic for a given seed.
    """
    import numpy as np

    hits = sum(int(np.count_nonzero(inside))
               for inside, _, _ in _polydisc_blocks(d, samples, seed, False))
    rate = hits / samples
    scale = math.pi ** d.total_dim
    return scale * rate, scale * math.sqrt(rate * (1.0 - rate) / samples)


@dataclass(frozen=True)
class ReproducingResidual:
    """|MC estimate - h(z)| with the pieces it came from; float() reads the residual."""

    residual: float
    estimate: complex
    expected: complex
    stderr: float
    samples: int

    def __float__(self) -> float:
        return self.residual


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
    draws, not acceptances.  Returns |estimate - h(z)| with the estimate, h(z),
    the standard error and the draws beside it.
    """
    import numpy as np

    if phi(d, z) > 0.5:
        raise PreconditionViolated(
            f"reproducing_check wants phi(z) <= 0.5, got {phi(d, z):.4f}")
    scale = math.pi ** d.total_dim
    total, total_sq = 0j, 0.0
    for inside, rows, w_in in _polydisc_blocks(d, samples, seed, True):
        # the values go into zero arrays, so each np.sum sees the whole block
        vals, sq = np.zeros(inside.shape, dtype=complex), np.zeros(inside.shape)
        if rows.size:
            vals[rows] = kv = np.asarray(K(z, w_in)) * poly_eval(h, w_in)
            sq[rows] = np.abs(kv) ** 2
        total += complex(np.sum(vals))
        total_sq += float(np.sum(sq))
    mean = total / samples
    estimate = scale * mean
    var = total_sq / samples - abs(mean) ** 2
    stderr = scale * math.sqrt(max(var, 0.0) / samples)
    expected = complex(poly_eval(h, np.asarray([z], dtype=complex))[0])
    return ReproducingResidual(abs(estimate - expected), estimate, expected,
                               stderr, samples)
