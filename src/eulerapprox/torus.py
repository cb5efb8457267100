"""Finite-dimensional checks on the infinite torus [0,1] x [0,1] x ...

Coordinates beyond a truncation are never stored; they enter only through
certified tail bounds of the exponentially weighted metric.  Monte-Carlo
sampling uses numpy's PCG64 generator, seeded per (seed, stream) so that
independent streams reduce by plain summation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .hardy import TWO_PI
from .primes import primes_up_to

RNG_ALGORITHM = "numpy-PCG64"


def metric_weights(n: int) -> np.ndarray:
    """Weights e^{1-n} of the exponentially damped metric, n = 1..N."""
    return np.exp(1.0 - np.arange(1, n + 1, dtype=float))


def metric_tail_bound(n: int) -> float:
    """Upper bound on the weight mass beyond coordinate n."""
    return math.exp(1.0 - n) / (1.0 - math.exp(-1.0))


def tikhonov_distance(x: np.ndarray, y: np.ndarray, n: int) -> tuple[float, float]:
    """Truncated metric sum_{k<=n} e^{1-k} |x_k - y_k| and its tail bound."""
    if n < 1:
        raise ValueError("n >= 1")
    x = np.asarray(x, dtype=float)[:n]
    y = np.asarray(y, dtype=float)[:n]
    if len(x) < n or len(y) < n:
        raise ValueError("points shorter than the truncation")
    val = float(np.sum(metric_weights(n) * np.abs(x - y)))
    return val, metric_tail_bound(n)


def log_prime_frequencies(n: int) -> np.ndarray:
    """The n frequencies log p_k / 2pi, strictly increasing and positive."""
    # sieve to p_n < n (log n + log log n) for n >= 6 (Rosser), at most to 10^7
    bound = 11 if n < 6 else math.ceil(n * (math.log(n) + math.log(math.log(n))))
    ps = primes_up_to(min(bound, 10_000_000))
    if len(ps) < n:
        raise ValueError("frequency count exceeds the sieve range")
    return np.log(ps[:n].astype(float)) / TWO_PI


def orbit_point(t: float, n: int, freqs: np.ndarray | None = None) -> np.ndarray:
    """Fractional parts ({t f_1}, ..., {t f_n}) of the linear orbit."""
    if n < 1:
        raise ValueError("n >= 1")
    f = log_prime_frequencies(n) if freqs is None else np.asarray(freqs, dtype=float)[:n]
    return np.mod(t * f, 1.0)


# ---------------------------------------------------------------------------
# weighted-ball volumes
# ---------------------------------------------------------------------------


def exact_ball_volume(n: int, r: float) -> float:
    """Exact cube volume of {sum_k e^{1-k} x_k < r} by inclusion-exclusion.

    Intended as the small-n oracle (the 2^n term count limits it to n <= ~20;
    callers use n <= 4).
    """
    if r <= 0:
        return 0.0
    w = metric_weights(n)
    total = 0.0
    for size in range(n + 1):
        for idx in combinations(range(n), size):
            t = r - sum(w[list(idx)])
            if t > 0:
                total += (-1.0) ** size * t**n
    return total / (math.factorial(n) * float(np.prod(w)))


#: independent PCG64 streams of ``ball_volume_mc``, one SeedSequence child each
_MC_STREAMS = 4


def ball_volume_mc(n: int, r: float, sample_count: int, seed: int) -> tuple[float, float]:
    """Monte-Carlo volume of the truncated weighted ball, with 3-sigma width.

    Returns (estimate, half_width) where half_width is three binomial
    standard errors.  The samples are split over ``_MC_STREAMS`` streams.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    w = metric_weights(n)
    seqs = np.random.SeedSequence(seed).spawn(_MC_STREAMS)
    per = [sample_count // _MC_STREAMS] * _MC_STREAMS
    per[0] += sample_count - sum(per)
    hits = 0
    for cnt, sq in zip(per, seqs):
        rng = np.random.Generator(np.random.PCG64(sq))
        remaining = cnt
        while remaining > 0:
            chunk = min(remaining, 1 << 18)
            x = rng.random((chunk, n))
            hits += int(np.count_nonzero(x @ w < r))
            remaining -= chunk
    est = hits / sample_count
    half = 3.0 * math.sqrt(max(est * (1.0 - est), 1e-12) / sample_count)
    return est, half


@dataclass(frozen=True)
class SlabCheck:
    n: int
    r: float
    eps: float
    estimate: float
    half_width: float
    bound: float
    passed: bool

    def to_text(self) -> str:
        return (f"N {self.n} r {self.r!r} eps {self.eps!r} estimate {self.estimate!r} "
                f"half_width {self.half_width!r} bound {self.bound!r} "
                f"verdict {'pass' if self.passed else 'fail'}\n")


def slab_bound_check(n: int, r: float, eps: float, sample_count: int,
                     seed: int) -> SlabCheck:
    """Check the slab estimate vol(r) - vol(r-eps) <= eps 2^N by Monte Carlo."""
    if not (0 < eps < r):
        raise ValueError("need 0 < eps < r")
    w = metric_weights(n)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    hits = 0
    remaining = sample_count
    while remaining > 0:
        chunk = min(remaining, 1 << 18)
        u = rng.random((chunk, n)) @ w
        hits += int(np.count_nonzero((u < r) & (u >= r - eps)))
        remaining -= chunk
    est = hits / sample_count
    half = 3.0 * math.sqrt(max(est * (1.0 - est), 1e-12) / sample_count)
    bound = eps * 2.0**n
    return SlabCheck(n=n, r=r, eps=eps, estimate=est, half_width=half, bound=bound,
                     passed=est <= bound + half)


# ---------------------------------------------------------------------------
# equidistribution of the linear orbit
# ---------------------------------------------------------------------------


#: orbit samples, histogram bins per axis and coordinate pairs of ``equidistribution_test``
_EQ_SAMPLES = 200_000
_EQ_BINS = 64
_EQ_PAIRS = 10


def _star_discrepancy_1d(samples: np.ndarray) -> float:
    s = np.sort(samples)
    n = len(s)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - s), np.max(s - (i - 1) / n)))


def _bin_index(x: np.ndarray) -> np.ndarray:
    """``np.histogram2d``'s bins on [0, 1], as 64 x is exact."""
    return np.minimum((x * _EQ_BINS).astype(np.int16), _EQ_BINS - 1)


def _star_discrepancy_2d(bx: np.ndarray, by: np.ndarray) -> float:
    hist = np.bincount(bx * _EQ_BINS + by, minlength=_EQ_BINS**2).reshape(_EQ_BINS, -1)
    cum = np.cumsum(np.cumsum(hist, axis=0), axis=1) / len(bx)
    edges = np.arange(1, _EQ_BINS + 1) / _EQ_BINS
    expect = np.outer(edges, edges)
    return float(np.max(np.abs(cum - expect)))


@dataclass(frozen=True)
class EquidistributionResult:
    t_max: float
    coords: int
    max_coordinate: float
    max_pairwise: float


def equidistribution_test(t_max: float, n: int, seed: int = 0,
                          freqs: np.ndarray | None = None) -> EquidistributionResult:
    """Histogram discrepancy of the orbit sampled at jittered-stratified t.

    Per-coordinate star discrepancy uses the exact sorted-sample formula over
    ``_EQ_SAMPLES`` t-samples; pairwise discrepancy uses a bins x bins prefix
    grid (``_EQ_BINS``) over ``_EQ_PAIRS`` random coordinate pairs.
    Stratified t-samples keep the sampling noise an order below the orbit's
    own boundary discrepancy, so doubling t_max roughly halves the result for
    independent frequencies.

    The orbit is formed one coordinate at a time, and only its bins are kept.
    x - floor(x) is ``np.mod(x, 1.0)`` bit for bit at every finite x: for
    x >= 0 both are exact (fmod, and the subtraction by Sterbenz); for x < 0
    both round x - floor(x) once, ``np.mod`` as fmod(x, 1) + 1.
    """
    f = log_prime_frequencies(n) if freqs is None else np.asarray(freqs, dtype=float)[:n]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    ts = (np.arange(_EQ_SAMPLES) + rng.random(_EQ_SAMPLES)) * (t_max / _EQ_SAMPLES)
    discrepancies, bins = [], []
    for k in range(n):
        x = ts * f[k]
        x -= np.floor(x)
        discrepancies.append(_star_discrepancy_1d(x))
        if n >= 2:
            bins.append(_bin_index(x))
    per_coord = max(discrepancies)
    if n >= 2:
        pairs = set()
        while len(pairs) < min(_EQ_PAIRS, n * (n - 1) // 2):
            a, b = rng.integers(0, n, size=2)
            if a != b:
                pairs.add((min(a, b), max(a, b)))
        pairwise = max(_star_discrepancy_2d(bins[a], bins[b]) for a, b in pairs)
    else:
        pairwise = 0.0
    return EquidistributionResult(t_max=t_max, coords=n, max_coordinate=per_coord,
                                  max_pairwise=pairwise)
