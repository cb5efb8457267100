"""Verification instruments: interval sums, zero counting, error surveys.

All operations are pure over immutable inputs; grid evaluations vectorize
per point and are safe to fan out across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .factors import EulerFactorSpec, interval_weights
from .hardy import TWO_PI, _winding


# ---------------------------------------------------------------------------
# sampling grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscGrid:
    """Samples of a closed disc: equispaced boundary plus interior rings."""

    center: complex
    radius: float
    boundary: int = 256
    rings: int = 4

    def boundary_points(self) -> np.ndarray:
        return Circle(self.center, self.radius).points(self.boundary)

    def points(self) -> np.ndarray:
        pts = [self.boundary_points(), np.array([self.center])]
        for i in range(1, self.rings + 1):
            rho = self.radius * i / (self.rings + 1)
            n = max(8, int(self.boundary * i / (self.rings + 1)))
            pts.append(Circle(self.center, rho).points(n))
        return np.concatenate(pts)


@dataclass(frozen=True)
class Circle:
    center: complex
    radius: float

    def points(self, n: int) -> np.ndarray:
        ang = TWO_PI * np.arange(n) / n
        return self.center + self.radius * np.exp(1j * ang)


# ---------------------------------------------------------------------------
# the short-interval hypothesis sum
# ---------------------------------------------------------------------------


def hypothesis_sum(spec: EulerFactorSpec, h: float, lam: float,
                   width_factor: float | None = None) -> float:
    """sum |a_p^1| p^{-(1-lam)} over primes in (h, h(1+log^-10 h)].

    The default window is narrower than unit length for every h below about
    e^41, in which case the sum over the (empty) prime set is exactly 0.
    """
    _, w = interval_weights(spec, h, lam, width_factor)
    return float(np.sum(w))


@dataclass(frozen=True)
class HypothesisRow:
    h: float
    prime_count: int
    value: float
    threshold: float
    passed: bool


@dataclass(frozen=True)
class HypothesisReport:
    lam: float
    c0: float
    rows: tuple[HypothesisRow, ...]
    first_failure: float | None

    def all_pass(self) -> bool:
        return all(r.passed for r in self.rows)

    def to_text(self) -> str:
        lines = [f"lambda {float(self.lam)!r}", f"c0 {float(self.c0)!r}",
                 "h prime_count sum threshold pass"]
        for r in self.rows:
            lines.append(f"{float(r.h)!r} {r.prime_count} {float(r.value)!r} "
                         f"{float(r.threshold)!r} {int(r.passed)}")
        return "\n".join(lines) + "\n"


def fit_c0(spec: EulerFactorSpec, lam: float, h_list: Sequence[float],
           width_factor: float | None = None) -> HypothesisReport:
    """Largest c0 with sum >= c0 h^{lam/4} across the h grid.

    A window with zero sum admits no positive c0; such h are failures and
    the fitted constant is reported as 0.
    """
    if len(h_list) == 0:
        raise ValueError("h_list must be nonempty")
    hs = list(h_list)
    if any(b <= a for a, b in zip(hs, hs[1:])):
        raise ValueError("h_list must be ascending")
    sums, counts = [], []
    for h in hs:
        ps, w = interval_weights(spec, h, lam, width_factor)
        sums.append(float(np.sum(w)))
        counts.append(len(ps))
    ratios = [s / h ** (lam / 4.0) for s, h in zip(sums, hs)]
    if all(s > 0 for s in sums):
        c0 = min(ratios)
        first_fail = None
    else:
        c0 = 0.0
        first_fail = hs[next(i for i, s in enumerate(sums) if s <= 0.0)]
    rows = tuple(
        HypothesisRow(h=h, prime_count=c, value=s, threshold=c0 * h ** (lam / 4.0),
                      passed=(s > 0.0 and s >= c0 * h ** (lam / 4.0) - 1e-15))
        for h, c, s in zip(hs, counts, sums))
    return HypothesisReport(lam=lam, c0=c0, rows=rows, first_failure=first_fail)


# ---------------------------------------------------------------------------
# argument-principle zero counting
# ---------------------------------------------------------------------------


class ContourZeroError(RuntimeError):
    """A value on the contour is too close to zero to count windings."""


#: sample doublings ``zero_count`` tries before it gives up
_ZERO_COUNT_DOUBLINGS = 6
#: sampled modulus below which ``zero_count`` treats the contour as passing through a zero
_ZERO_GUARD = 1e-12
#: most calls ``min_modulus`` makes after its first refinement call
_MIN_MODULUS_ROUNDS = 3


def zero_count(f: Callable[[np.ndarray], np.ndarray], contour: Circle,
               quadrature_n: int = 512) -> int:
    """Number of zeros of f inside the circle, by accumulated argument.

    No derivative is needed: the winding of the sampled values is summed
    directly.  Sampling is doubled (up to ``_ZERO_COUNT_DOUBLINGS`` times)
    until the count stabilizes and every step turns by less than pi/2; a
    sampled modulus below ``_ZERO_GUARD`` aborts, since the contour then
    (numerically) passes through a zero.

    f must give the same values for the same array whatever ran before, and
    a value may depend on the call's other points only within a small bound,
    as the series route of ``partial_product_grid`` does within its
    certified tail.
    A doubling then evaluates only the new odd-index points, since
    ``contour.points(2 n)[0::2]`` equals ``contour.points(n)`` bit for bit.
    An n-sample estimate whose steps all stay under pi/2 is below n/4 turns,
    so a small n caps the count (n <= 4 can only give 0); ``quadrature_n``
    below 8 raises ValueError.
    """
    if quadrature_n < 8:
        raise ValueError("quadrature_n >= 8")
    n = quadrature_n
    vals = np.asarray(f(contour.points(n)), dtype=complex)
    prev = None
    for doubling in range(_ZERO_COUNT_DOUBLINGS + 1):
        if doubling:
            n *= 2
            both = np.empty(n, dtype=complex)
            both[0::2] = vals
            both[1::2] = f(np.ascontiguousarray(contour.points(n)[1::2]))
            vals = both
        if float(np.min(np.abs(vals))) < _ZERO_GUARD:
            raise ContourZeroError("zero on (or numerically on) the contour")
        w, incr = _winding(vals)
        step = float(np.max(np.abs(incr)))
        stable = step < 0.5 * math.pi and abs(w - round(w)) < 0.25
        if stable and prev is not None and round(w) == prev:
            return int(round(w))
        prev = int(round(w)) if stable else None
    raise ContourZeroError(f"winding failed to stabilize (last estimate {w})")


def min_modulus(f: Callable[[np.ndarray], np.ndarray], contour: Circle,
                samples: int = 256) -> float:
    """min |f| on the circle: coarse scan plus a local search on a finer lattice.

    f is as in ``zero_count``.  The coarse scan samples
    ``contour.points(samples)``; the search runs on the lattice of angles
    2 pi i / (16 samples).  Its first call evaluates the vertex of the
    parabola through |f|^2 at the coarse argmin and its two coarse
    neighbours, snapped to the lattice, and the vertex's two neighbours.  While
    the lowest point seen has a neighbour not yet seen, one more call (at most
    ``_MIN_MODULUS_ROUNDS``) evaluates them.  Each point is evaluated once.
    The result is |f| at the lowest point seen, a local minimum of |f| on the
    lattice unless the calls run out.
    """
    if samples < 64:
        raise ValueError("samples >= 64")
    fine = 16 * samples
    vals = np.abs(f(contour.points(samples)))
    k = int(np.argmin(vals))
    near = [(16 * j) % fine for j in (k - 1, k, k + 1)]
    seen = {i: float(vals[i // 16]) for i in near}
    lo, mid, hi = (seen[i] ** 2 for i in near)
    vertex = 8.0 * (lo - hi) / (lo - 2.0 * mid + hi) if lo + hi > 2.0 * mid else 0.0
    best = 16 * k + (round(vertex) if abs(vertex) <= 8.0 else 0)
    for _ in range(_MIN_MODULUS_ROUNDS + 1):
        new = np.array([i % fine for i in (best - 1, best, best + 1) if i % fine not in seen])
        if not len(new):
            break
        pts = contour.center + contour.radius * np.exp(1j * (TWO_PI * new / fine))
        seen.update(zip(new.tolist(), np.abs(f(pts)).tolist()))
        best = min(seen, key=seen.get)
    return seen[best]


def _memo(f: Callable[[np.ndarray], np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    """f with its values kept per exact sample array (dtype, shape and bytes)."""
    seen: dict[tuple, np.ndarray] = {}

    def g(s: np.ndarray) -> np.ndarray:
        s = np.asarray(s)
        key = (s.dtype.str, s.shape, s.tobytes())
        if key not in seen:
            seen[key] = f(s)
        return seen[key]

    return g


@dataclass(frozen=True)
class RoucheResult:
    passed: bool
    margin: float
    min_f: float
    max_diff: float
    zeros_f: int | None = None
    zeros_g: int | None = None


def rouche_check(f: Callable[[np.ndarray], np.ndarray],
                 g: Callable[[np.ndarray], np.ndarray],
                 contour: Circle, samples: int = 256) -> RoucheResult:
    """Dominance test max|f-g| < min|f| on the circle.

    On a pass, both zero counts are computed and must agree (they are equal
    whenever the dominance inequality holds on the whole contour); the
    counts are part of the result rather than assumed.

    f and g are as in ``zero_count``.  Both are memoized for this call, so
    the dominance scan, the coarse scan of ``min_modulus`` and the first
    stage of ``zero_count`` (which sample the same points when ``samples`` is
    512) share one evaluation, and ``min_modulus`` evaluates each refinement
    point once; the same array takes the same route and gives the same bits,
    so sharing changes no value.
    """
    f, g = _memo(f), _memo(g)
    pts = contour.points(max(samples, 64))
    fd = np.abs(np.asarray(f(pts)) - np.asarray(g(pts)))
    max_diff = float(np.max(fd))
    mf = min_modulus(f, contour, samples=max(samples, 64))
    margin = mf - max_diff
    if margin <= 0:
        return RoucheResult(False, margin, mf, max_diff)
    zf = zero_count(f, contour)
    zg = zero_count(g, contour)
    if zf != zg:
        raise ContourZeroError(
            f"dominance holds on samples but counts differ ({zf} vs {zg}); "
            f"the sampling missed a near-zero of f")
    return RoucheResult(True, margin, mf, max_diff, zf, zg)


# ---------------------------------------------------------------------------
# max-modulus error surveys
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SurveyResult:
    max_error: float
    argmax: complex
    rows: np.ndarray  # columns: re, im, abs_error

    def heatmap_text(self) -> str:
        return "\n".join(f"{float(r)!r} {float(i)!r} {float(e)!r}"
                         for r, i, e in self.rows) + "\n"


def disc_error_survey(target: Callable[[np.ndarray], np.ndarray],
                      approx: Callable[[np.ndarray], np.ndarray],
                      grid: DiscGrid) -> SurveyResult:
    """max |target - approx| over the grid, argmax point, heatmap rows.

    For an analytic difference the boundary samples dominate by the maximum
    principle; interior rings are kept as a cross-check.
    """
    pts = grid.points()
    err = np.abs(np.asarray(target(pts), dtype=complex)
                 - np.asarray(approx(pts), dtype=complex))
    k = int(np.argmax(err))
    rows = np.column_stack((pts.real, pts.imag, err))
    return SurveyResult(max_error=float(err[k]), argmax=complex(pts[k]), rows=rows)
