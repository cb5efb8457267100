"""Greedy disc approximation by phase-twisted partial products.

Pipeline: take the logarithm of the target on a slightly larger disc, remove
the logs of the mandatory small-prime factors, and then steer a pool of
larger primes one at a time -- each step picks the (prime, phase) pair whose
twisted log-factor best reduces the working residual in the disc norm.  The
working residual tracks *exact* log-factor vectors, so a target that is
itself a twisted partial product can be recovered to roundoff.  A doubling
schedule of the mandatory floor repeats the construction with frozen phases
and a sampled mean-value choice for the unsteered primes.

Candidate scoring is embarrassingly parallel over the pool; acceptance is a
single sequential commit per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .analysis import DiscGrid, SurveyResult, disc_error_survey
from .factors import (
    QUARTER_GRID,
    EulerFactorSpec,
    FactorDomainError,
    PhaseAssignment,
    _log_taylor,
    _prime_bounds,
    partial_product_grid,
)
from .hardy import TWO_PI, H2Element, log_target
from .primes import primes_up_to


class InvalidProblem(ValueError):
    """A disc/schedule parameter violates one of the required inequalities."""


class ApproximationStall(RuntimeError):
    """Greedy steering stopped with the surveyed error still above tolerance."""

    def __init__(self, msg: str, result: "ApproximationResult"):
        super().__init__(msg)
        self.result = result


class PoolExhausted(ApproximationStall):
    """Steering used up the candidate pool with the surveyed error still above eps.

    Raised instead of a plain stall when no pool prime is left to steer; a
    larger ``p_max`` (or a lower floor y) is the remedy, not a different seed.
    """


class StepCapReached(ApproximationStall):
    """Steering ended at its step cap with the surveyed error still above eps.

    Moves still decreased the residual when the last steering round ran out
    of steps, so this is not a stall: a larger step budget could go on.
    """


class RefineStall(RuntimeError):
    """A schedule stage could not match the previous stage's error."""


# ---------------------------------------------------------------------------
# problem statement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ApproximationProblem:
    """A non-vanishing target on |s| <= r around sigma0, and the knobs.

    ``target`` maps local coordinates (vectorized over numpy arrays) to
    values; the product approximant is evaluated at exponent s + sigma0.
    Floor primes (at or below y) enter at twist 0, shifted by t0 log p / 2 pi;
    ``fixed_phases`` freezes product twists, not shifted again, of any primes
    (used by schedules).  ``approximate`` steers against the contracted
    target s -> target(s/gamma_c^2) (``contract_target``), which is analytic
    on the enlarged disc whenever the original is analytic on |s| <= r.
    """

    spec: EulerFactorSpec
    target: Callable[[np.ndarray], np.ndarray]
    sigma0: float = 0.75
    r: float = 0.02
    eps: float = 0.1
    y: float = 2.0
    gamma_c: float = 2.0
    lam: float = 0.01
    delta: float = 0.01
    t0: float = 0.0
    p_max: int = 100_000
    seed: int = 0
    phase_mode: str = "quarter"
    fixed_phases: Mapping[int, float] = field(default_factory=dict)
    # constants, not fields: the Taylor order of the rows, and the survey grid
    order = 64
    survey_boundary = 256
    survey_rings = 4

    @property
    def r0(self) -> float:
        return min(1.0 - self.sigma0, self.sigma0 - 0.5)

    @property
    def hardy_radius(self) -> float:
        return self.gamma_c * self.r

    def validate(self) -> None:
        if not (0.5 < self.sigma0 < 1.0):
            raise InvalidProblem(f"violated: 1/2 < sigma0 < 1 (sigma0={self.sigma0})")
        if not (0.0 < self.r < self.r0):
            raise InvalidProblem(
                f"violated: r < r0 = min(1-sigma0, sigma0-1/2) (r={self.r}, r0={self.r0})")
        if not (self.gamma_c > 1.0):
            raise InvalidProblem(f"violated: gamma > 1 (gamma={self.gamma_c})")
        if not (self.gamma_c**2 * self.r < self.r0):
            raise InvalidProblem(
                f"violated: gamma^2 r < r0 ({self.gamma_c**2 * self.r} >= {self.r0})")
        if not (self.r + self.delta + 2.0 * self.lam < self.r0):
            raise InvalidProblem(
                f"violated: r + delta + 2 lambda < r0 "
                f"({self.r + self.delta + 2 * self.lam} >= {self.r0})")
        if not (0.5 + self.r + 2.0 * self.lam + self.delta - self.sigma0 < 0.0):
            raise InvalidProblem(
                "violated: 1/2 + r + 2 lambda + delta - sigma0 < 0 "
                f"(= {0.5 + self.r + 2 * self.lam + self.delta - self.sigma0})")
        if not self.y >= 2.0:
            raise InvalidProblem(f"violated: y >= 2 (y={self.y})")
        if not self.eps > 0:
            raise InvalidProblem(f"violated: eps > 0 (eps={self.eps})")
        if not math.isfinite(self.t0):
            raise InvalidProblem(f"violated: t0 finite (t0={self.t0})")
        if not self.seed >= 0:
            raise InvalidProblem(f"violated: seed >= 0 (seed={self.seed})")
        if self.phase_mode not in ("quarter", "golden"):
            raise InvalidProblem(f"unknown phase mode {self.phase_mode!r}")

    def schedule_exponent(self) -> float:
        return 0.5 + self.r + 2.0 * self.lam + self.delta - self.sigma0


def norm_to_max(radius: float, r: float) -> float:
    """Factor bounding sup_{|s|<=r} |f| by ||f|| / (sqrt(pi) (R - r))."""
    return 1.0 / (math.sqrt(math.pi) * (radius - r))


def product_target(spec: EulerFactorSpec, primes: Sequence[int],
                   phases: PhaseAssignment, sigma0: float) -> Callable[[np.ndarray], np.ndarray]:
    """s -> twisted partial product at exponent s + sigma0, vectorized over s.

    The one product evaluator in local coordinates: targets built from a
    phases file, result products, disc surveys, refine draws and the
    zero-scan contours (sigma0 = 0 there) all use it.  Large calls take the
    series route of ``partial_product_grid``: exact within its certified tail
    and rounding, not bit for bit.  The primes are taken as one int64 array,
    once.
    """
    ps = np.asarray(primes, dtype=np.int64)

    def g(s: np.ndarray) -> np.ndarray:
        return partial_product_grid(spec, np.asarray(s, dtype=complex) + sigma0, ps, phases)

    return g


#: boundary samples of |s| = r on which ``contract_target`` measures its deviation
_CONTRACT_SAMPLES = 512


def contract_target(problem: ApproximationProblem) -> tuple[ApproximationProblem, float]:
    """Replace the target by s -> target(s / gamma^2); report the deviation.

    The deviation is max |g(s) - g(s/gamma^2)| over ``_CONTRACT_SAMPLES``
    equispaced points of |s| = r (the max of the analytic difference sits on
    the boundary).
    """
    problem.validate()
    g = problem.target
    gsq = problem.gamma_c**2

    def contracted(s: np.ndarray) -> np.ndarray:
        return g(np.asarray(s, dtype=complex) / gsq)

    ang = TWO_PI * np.arange(_CONTRACT_SAMPLES) / _CONTRACT_SAMPLES
    pts = problem.r * np.exp(1j * ang)
    dev = float(np.max(np.abs(np.asarray(g(pts)) - np.asarray(contracted(pts)))))
    return replace(problem, target=contracted), dev


# ---------------------------------------------------------------------------
# pool machinery
# ---------------------------------------------------------------------------


#: rows of the first and of the largest block of the pool row build and of the
#: embedding tail (``_blocks``); a block's temporaries stay a few MB next to
#: the stored rows
_FIRST_BLOCK = 64
_BLOCK = 2048

#: log-series order of the pool, floor and fixed-twist rows (m = 1..64)
_SERIES_ORDER = 64

#: leading Taylor coefficients a greedy step pairs with the residual for every
#: move; the rest of a row enters its score only through a bound.  The disc
#: weights pi R^(2n+2) / (n+1) make the head decide: on the approx-steer
#: config (R = 0.04) a step works out the exact pairing of 1.3 moves on
#: average at 8, 5.2 at 4 and 533 at 2.
_HEAD = 8


def _m_powers(order: int, series_order: int) -> np.ndarray:
    """m^n for m = 1..series_order (rows) and n = 0..order (columns)."""
    ms = np.arange(1, series_order + 1, dtype=float)
    ns = np.arange(order + 1, dtype=float)
    return ms[:, None] ** ns[None, :]


def _taylor_direction(lnp: np.ndarray, order: int) -> np.ndarray:
    """(-log p)^n / n! for n = 0..order: the twist-free factor of a prime's row.

    Formed as (log p)^n / ((-1)^n n!): numpy's power of a negative base runs
    a scalar path, about 30 times slower.
    """
    ns = np.arange(order + 1, dtype=float)
    fact = np.cumprod(np.concatenate(([1.0], np.arange(1, order + 1, dtype=float))))
    fact[1::2] *= -1.0
    return lnp[:, None] ** ns[None, :] / fact[None, :]


def _add_turned(out: np.ndarray, terms: np.ndarray, e: int) -> None:
    """out += (-i)^e terms, exactly: a quarter turn swaps the parts and negates one."""
    if e % 2 == 0:
        (np.add if e == 0 else np.subtract)(out, terms, out=out)
        return
    re, im = out.real, out.imag
    if e == 1:
        re += terms.imag
        im -= terms.real
    else:
        re -= terms.imag
        im += terms.real


def _twisted_rows(spec: EulerFactorSpec, primes: np.ndarray, lnp: np.ndarray,
                  twists: np.ndarray, sigma0: float, mpow: np.ndarray,
                  direction: np.ndarray, outs: Sequence[np.ndarray]) -> None:
    """Write the rows of ``_u_rows`` at ``twists`` + k/4 into ``outs[k]``, k < len(outs).

    One twisted base B = e(-twist) p^-sigma0 and one ``log_terms`` ladder
    G[p, m] = c_m(p) B^m per prime serve every quarter: e(-k/4)^m =
    (-i)^(km), so with the residue sums T_j = sum_{m = j mod 4} G[p, m] m^n
    quarter k's sum is sum_j (-i)^(jk) T_j, added in j order
    (``_add_turned``), and ``direction`` multiplies it in place.  ``lnp``,
    ``mpow`` and ``direction`` come from ``np.log``, ``_m_powers`` and
    ``_taylor_direction``.  A one-prime call multiplies its row beside a
    copy, as numpy takes another path for a lone row: a row's bits depend
    on its prime and twist only.
    """
    n = len(primes)
    base = np.exp(-1j * TWO_PI * twists - sigma0 * lnp)     # B per prime
    G = spec.log_terms(primes, base, mpow.shape[0])          # G[p, m-1] = c_m(p) B_p^m
    if n == 1:
        G = np.concatenate((G, G))
    sums = np.empty((len(G), mpow.shape[1]), dtype=complex)
    for j in range(4):                                       # m = j mod 4 from column j - 1
        np.matmul(G[:, (j - 1) % 4::4], mpow[(j - 1) % 4::4], out=sums)
        for k, out in enumerate(outs):
            if j:
                _add_turned(out, sums[:n], j * k % 4)
            else:
                out[...] = sums[:n]
    for out in outs:
        np.multiply(out, direction, out=out)


def _u_rows(spec: EulerFactorSpec, primes: np.ndarray, twists: np.ndarray,
            sigma0: float, order: int, series_order: int) -> np.ndarray:
    """Taylor rows of the twisted log factors, shape (len(primes), order+1).

    Row p holds the coefficients of log f_p(e^{-2 pi i tw} p^{-s-sigma0})
    around s = 0, from the log series sum_m c_m z^m composed with
    z(s) = B e^{-s log p}:  alpha_n = (sum_m c_m B^m m^n) (-log p)^n / n!,
    quarter 0 of ``_twisted_rows``.
    """
    primes = np.asarray(primes, dtype=np.int64)
    lnp = np.log(primes.astype(float))
    rows = np.empty((len(primes), order + 1), dtype=complex)
    _twisted_rows(spec, primes, lnp, np.asarray(twists, dtype=float), sigma0,
                  _m_powers(order, series_order), _taylor_direction(lnp, order), [rows])
    return rows


def _write_norms(state: ApproximationState, rows: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """||u||^2 of each of ``rows``, with ||u[h:]|| written into ``tail``.

    h is the head width of ``state.head``.  ||u||^2 is summed as
    ``_quarter_rows`` always has, so it is bit-identical to the stored
    ``u_norm2`` and ``move_norm2``.
    """
    sq = np.abs(rows) ** 2 * state.weights[None, :]
    tail[:] = np.sqrt(sq[:, state.head.shape[-1]:].sum(axis=1))
    return sq.sum(axis=1)


def _blocks(lo: int, stop: int, n: int) -> Iterator[slice]:
    """The blocks of rows ``lo``, lo + 1, ... of ``n`` rows that cover the first ``stop``.

    A block from row i holds i rows, at least ``_FIRST_BLOCK`` and at most
    ``_BLOCK`` (64, 64, 128, 256, ... from row 0), and a lone last row joins
    the block before it: only a block that starts at row n - 1 has one row.
    """
    while lo < min(stop, n):
        hi = min(lo + min(max(lo, _FIRST_BLOCK), _BLOCK), n)
        hi += n - hi == 1
        yield slice(lo, hi)
        lo = hi


def _quarter_rows(state: ApproximationState, stop: int) -> None:
    """Build the phase corrections, quarter rows and disc norms of the pool up to ``stop``.

    From ``state.built`` on, in the blocks of ``_blocks``, until ``stop``
    primes (or the pool) are covered: each prime's phase correction (the
    leading coefficient's argument, ``correction``), its rows at the
    quarter twists ``twist(k, i)`` (``u_phase``), built from one twisted
    base at the correction (``_twisted_rows``), and their disc norms, heads
    and tail norms (``u_norm2``, ``head``, ``tail_norm``); ``built`` and
    ``row_bound[built]`` follow.  A row's bits do not depend on its block.
    """
    p = state.problem
    pool = state.pool_primes
    mpow = _m_powers(p.order, _SERIES_ORDER)
    blocks = list(_blocks(state.built, stop, len(pool)))
    if blocks and blocks[-1].stop > len(state.head):   # the screen stores grow to twice it
        cap = min(2 * blocks[-1].stop, len(pool))
        state.head, state.tail_norm = (_resized(a, cap) for a in (state.head, state.tail_norm))
    for blk in blocks:
        ps = pool[blk]
        state.correction[blk] = p.spec.phase_correction(ps)
        lnp = np.log(ps.astype(float))
        outs = [u[blk] for u in state.u_phase]
        _twisted_rows(p.spec, ps, lnp, state.correction[blk], p.sigma0, mpow,
                      _taylor_direction(lnp, p.order), outs)
        for k, out in enumerate(outs):
            state.u_norm2[blk, k] = _write_norms(state, out, state.tail_norm[blk, k])
            state.head[blk, k] = out[:, :state.head.shape[-1]]
        state.built = blk.stop
    _write_row_bound(state)


def _character_tail_majorant(P: int, X: int, radius: float, sigma0: float, order: int,
                             series_order: int) -> float:
    """Closed-form bound on the character bounds of ``_prime_bounds`` over (P, X].

    With alpha = sigma0 - 2 radius and I(beta) = int_P^X t^-beta dt, the
    Taylor part at log order m of every integer n in (P, X] is n^{-m alpha}
    (m radius log n)^{N+1} / ((N+1)! m) <= (m radius log X)^{N+1} / ((N+1)!
    m) n^{-m alpha}, and the sum of n^{-beta} over (P, X] is at most
    I(beta).  The log-series part past M = ``series_order`` sums to at most
    I((sigma0 - radius)(M + 1)) / ((M + 1)(1 - P^{radius - sigma0})).  Per
    m the bound does not decrease in p, so it is taken at log X, not at the
    first prime past P.  Evaluated in log space; needs radius < sigma0 / 2.
    """
    if X <= P:
        return 0.0
    lnP, lnX = math.log(P), math.log(X)
    d = lnX - lnP
    ms = np.arange(1, series_order + 2, dtype=float)
    beta = np.append((sigma0 - 2.0 * radius) * ms[:-1], (sigma0 - radius) * ms[-1])
    g = 1.0 - beta
    h = np.where(g == 0.0, 1.0, np.abs(g))
    # log I(beta) = max(g log X, g log P) + log((1 - e^{-|g| d}) / |g|), log d at g = 0
    log_int = np.where(g == 0.0, math.log(d),
                       np.maximum(g * lnX, g * lnP) + np.log(-np.expm1(-h * d)) - np.log(h))
    log_terms = log_int - np.log(ms)
    log_terms[:-1] += (order + 1) * np.log(ms[:-1] * radius * lnX) - math.lgamma(order + 2)
    log_terms[-1] -= math.log(-math.expm1((radius - sigma0) * lnP))
    return float(np.sum(np.exp(log_terms)))


def _embedding_tail(spec: EulerFactorSpec, primes: np.ndarray, radius: float,
                    sigma0: float, order: int,
                    series_order: int) -> tuple[float, np.ndarray | None]:
    """Certified sup bound on what the truncated rows drop, summed over primes.

    Two cuts are covered: log-series terms beyond series_order (geometric in
    p^{radius-sigma0}) and Taylor terms beyond ``order`` (factorial tail of
    each exponential).  ``primes`` must be ascending.  The per-prime bounds
    (``_prime_bounds``), worked out in the blocks of ``_blocks``, are summed
    as a zero-padded vector of every prime would be (``_padded_sum``).

    Characters bound every prime alike (K = 1), so the pass runs block by
    block only until the closed-form ``_character_tail_majorant`` M of the
    primes past the block is at most 2^-60 of the running sum S.  What the
    zero padding leaves out is then below 2^-7 of half an ulp of S, so the
    total is bit-equal to the sum over every prime except at a near-tie of
    its rounding.  The last block always stops the pass (M = 0).  At radius
    0.04, sigma0 0.75 and orders 64 (the defaults) the pass stops after the
    first block of 64 primes at every p_max tried, up to 1e8.

    Custom specs have no majorant and run every block; for them the pass
    also returns each prime's row sum sum_{m <= series_order} |c_m(p)| q^m,
    which bounds sum_n |u_n| radius^n <= sum_m |c_m| |B|^m e^{m radius log
    p} for every row u of the prime at any twist.  Characters get None.
    """
    primes = np.asarray(primes, dtype=np.int64)
    args = (radius, sigma0, order, series_order)
    per_prime = [np.zeros(0)]
    sums = np.zeros(len(primes)) if spec.kind == "custom" else None
    head = 0.0
    blocks = _blocks(0, len(primes), len(primes))
    for blk, bounds, rows in _prime_bounds(spec, primes, blocks, *args):
        per_prime.append(bounds)
        if sums is not None:       # the majorant holds for characters only
            sums[blk] = rows
            continue
        head += float(np.sum(bounds))
        if _character_tail_majorant(int(primes[blk.stop - 1]), int(primes[-1]),
                                    *args) <= head * 2.0**-60:
            break
    return _padded_sum(np.concatenate(per_prime), len(primes)), sums


def _padded_sum(head: np.ndarray, n: int) -> float:
    """``np.sum`` of ``head`` followed by n - len(head) zeros, without the zeros.

    numpy sums a float array pairwise: a run of more than 128 splits after
    half its length, rounded down to a multiple of 8, and an all-zero run
    adds an exact 0.0.  So only the leading run that still splits after
    ``head`` is summed, padded: O(len(head)) memory, not a pool-long vector
    (628 KB at p_max 1e6) whose pages fault in anew on every call once the
    heap has been trimmed.
    """
    while n > 128 and n // 2 - n // 2 % 8 >= len(head):
        n = n // 2 - n // 2 % 8
    out = np.zeros(n)
    out[:len(head)] = head
    return float(np.sum(out))


def _write_row_bound(state: ApproximationState) -> None:
    """Write ``row_bound[built]`` of a character pool (a custom pool holds every prime's).

    sqrt(pi) R times the row sum of ``_prime_bounds`` at the pool prime
    ``built``, which bounds every later prime's rows too: ``log_series_tail``
    takes K = 1 for every character, so the sum decreases in p, and
    ``_pool_scores``' margin of 1e-9 covers its rounding.
    """
    p, i, R = state.problem, state.built, state.problem.hardy_radius
    if p.spec.kind != "custom" and i < len(state.pool_primes):
        one = next(_prime_bounds(p.spec, state.pool_primes, [slice(i, i + 1)], R, p.sigma0,
                                 p.order, _SERIES_ORDER))[2]
        state.row_bound[i] = one[0] * (math.sqrt(math.pi) * R)


def beyond_pool_tail(spec: EulerFactorSpec, p_max: int, r: float,
                     sigma0: float) -> float:
    """Certified sup bound sum_{p > p_max} 4 c(eps) p^{-2 eps - 1}.

    eps is taken as large as the validity condition 4 eps + 2r - 2 sigma0
    <= -1 allows (the bound shrinks with eps); the prime sum is majorized by
    the integer sum, giving 4 c(eps) p_max^{-2 eps} / (2 eps).
    """
    eps_cap = (2.0 * sigma0 - 1.0 - 2.0 * r) / 4.0 - 1e-12
    if eps_cap <= 0:
        raise InvalidProblem("no valid eps for the beyond-pool tail bound")
    try:
        eps, c = spec.growth(eps_cap)
    except FactorDomainError as exc:
        raise InvalidProblem(str(exc)) from exc
    return 4.0 * c * p_max ** (-2.0 * eps) / (2.0 * eps)


# ---------------------------------------------------------------------------
# state
# ---------------------------------------------------------------------------


#: move index of a drop in the accepted-move gains; k < _DROP rephases to quarter k
_DROP = len(QUARTER_GRID)

#: accepted positions the move store holds at first; it doubles when full.
#: Sized to the pool, its arrays would reach numpy's huge-page threshold (4 MB)
#: and make sparse rows resident in 2 MB pages.
_MOVE_ROWS = 64


@dataclass
class StallInfo:
    """Why greedy steering stopped short of its norm target.

    ``best_decrease`` is the largest single-move norm decrease left (-inf
    when no move exists at all), ``best_pairing`` the largest |pairing| of a
    pool row with the residual.  ``pool_exhausted`` means no pool prime is
    left to grow the product: every candidate is accepted, or the pool was
    empty from the start because the floor and the fixed twists already
    cover every prime up to p_max.  More steering rounds cannot help then.
    """

    best_decrease: float
    best_pairing: float
    pool_exhausted: bool


@dataclass
class ApproximationState:
    """Mutable steering state: exact working residual plus the candidate pool.

    ``work`` holds the Taylor coefficients of log(target) minus the log
    factors of every prime already in the product, on the disc of radius
    ``problem.hardy_radius``.  ``residual`` (the reporting view)
    additionally removes ``nu_rest``, the reference-twist curvature log f_p
    - a_p^1 z summed over the still-unsteered pool, worked out on demand:
    steering never reads it.

    The pool's quarter rows are built lazily: ``correction[:built]``,
    ``u_phase[k][:built]`` and ``u_norm2[:built, k]`` hold the phase
    corrections, rows and disc norms of the first ``built`` pool primes
    (whole blocks of ``_blocks``), and the rest of those arrays is
    unwritten.  Row ``u_phase[k][i]`` is the prime's row at twist
    ``twist(k, i)``, the quarter plus the correction, mod 1.
    ``row_bound[i]`` bounds the disc norm ||u|| of every row, at any twist,
    of the pool primes i, i+1, ...; greedy steering reads it at ``built``,
    and the head screen at 0.  A custom pool's holds every i; a character
    pool's is written only at 0 and ``built`` (``_write_row_bound``).

    An accepted position a keeps its current row c in ``cur[a]``.  Its
    moves are the rephase u_k - c onto quarter k < ``_DROP`` (u_k the
    prime's pool row) and the drop -c; ``move_row`` works them out where
    they are read, and ``move_norm2[a, k]`` stores their disc norms.  Only
    the first ``len(accepted_idx)`` rows are live; the move store starts at
    ``_MOVE_ROWS`` rows and doubles when full, so it grows with the
    accepted count, not with the pool.  ``_apply`` (through ``_commit`` for
    a new prime) updates it where the accepted set changes.

    Greedy steps screen every move by its head (``_best_move``), so the
    norms are laid out as the screen reads them: a row per prime or
    accepted position, a column per move.  ``head[i, k]`` holds the first
    h = min(``_HEAD``, order + 1) coefficients of pool row ``u_phase[k][i]``
    and ``tail_norm[i, k]`` the disc norm of the rest of the row, written
    for the built prefix only (``_quarter_rows`` grows them).  The moves
    keep no heads: a step works them out from the pool heads and the
    current rows (``_accepted_best``).
    ``move_tail[a, k]`` holds the tail norm of move k of position a and
    lives, doubles and shifts with ``cur``.
    """

    problem: ApproximationProblem
    work: np.ndarray                         # (order+1,): the working residual's coefficients
    mandatory: dict[int, float]              # prime -> stored twist
    accepted: list[tuple[int, float]]
    pool_primes: np.ndarray
    pool_mask: np.ndarray                    # True = still available
    u_phase: list[np.ndarray]                # per steering phase: rows (npool, order+1)
    u_norm2: np.ndarray                      # (npool, quarter): ||u||^2, written with the rows
    correction: np.ndarray                   # (npool,): arg a_p^1 / 2pi, written with the rows
    weights: np.ndarray                      # disc norm weights
    row_bound: np.ndarray                    # (npool,): ||u|| bound from that prime on
    cur: np.ndarray                          # (capacity, order+1): accepted positions' rows
    move_norm2: np.ndarray                   # (capacity, move): ||u||^2
    head: np.ndarray                         # (capacity >= built, quarter, h): u[:h]
    tail_norm: np.ndarray                    # (capacity >= built, quarter): ||u[h:]||
    move_tail: np.ndarray                    # (capacity, move), as ``tail_norm``
    built: int = 0                           # pool primes whose rows are written
    accepted_idx: list[int] = field(default_factory=list)
    trace: list[float] = field(default_factory=list)
    tail_bound: float = 0.0
    stall: StallInfo | None = None

    @property
    def nu_rest(self) -> np.ndarray:
        p = self.problem
        rest = self.pool_primes[self.pool_mask]
        ref = np.zeros(len(rest))   # reference twist 0, leading-coefficient argument included
        full = _u_rows(p.spec, rest, ref, p.sigma0, p.order, _SERIES_ORDER)
        leading = _u_rows(p.spec, rest, ref, p.sigma0, p.order, 1)
        return (full - leading).sum(axis=0)

    def twist(self, k: int, i: int) -> float:
        """The twist of row ``u_phase[k][i]``: quarter k plus the prime's correction, mod 1."""
        return (QUARTER_GRID[k] + self.correction[i]) % 1.0

    def pool_row(self, k: int, sel: int | slice) -> np.ndarray:
        """Row(s) ``sel`` of pool quarter k."""
        return self.u_phase[k][sel]

    def move_row(self, k: int, sel: int | slice) -> np.ndarray:
        """Move k of accepted position(s) ``sel``: u_k - c for k < ``_DROP``, -c for the drop."""
        c = self.cur[sel]
        return -c if k == _DROP else self.u_phase[k][self.accepted_idx[sel]] - c

    @property
    def residual(self) -> H2Element:
        return H2Element(self.problem.hardy_radius, self.work - self.nu_rest, self.tail_bound)

    def work_norm(self) -> float:
        """The disc norm of ``work``, from the stored ``weights``."""
        return math.sqrt(float(np.sum(np.abs(self.work) ** 2 * self.weights)))

    def accepted_primes(self) -> list[int]:
        return [p for p, _ in self.accepted]

    def phase_assignment(self) -> PhaseAssignment:
        theta = dict(self.mandatory)
        theta.update({p: tw for p, tw in self.accepted})
        shifted = frozenset(p for p in self.mandatory if p not in self.problem.fixed_phases)
        return PhaseAssignment({p: float(th % 1.0) for p, th in theta.items()},
                               t0=self.problem.t0, shifted=shifted)


def init_residual(problem: ApproximationProblem) -> ApproximationState:
    """Build the steering state on the disc of radius gamma * r.

    The working residual is log(target) minus the mandatory log factors: the
    floor primes at twist 0, shifted by t0 log p / 2 pi unless a fixed twist
    is given, and the ``fixed_phases`` primes, whose twists are product twists
    and are not shifted again.  The pool gets empty correction and row
    arrays, one row per quarter phase: ``greedy_rearrange`` builds them
    block by block (``_quarter_rows``) only as far as ``row_bound`` says a
    prime can still win.  The certified tail covers the log-series cuts of
    the floor and of the whole pool, and every prime beyond the pool.  For
    characters ``_embedding_tail`` works out per-prime bounds only on the
    pool's leading blocks, and ``row_bound`` is written at 0 alone, so the
    set-up work grows with the built blocks, not with the pool, past the
    sieve and the pool selection.  For custom specs it visits every table
    prime, and ``row_bound`` is the suffix maxima of its row sums.  An empty
    pool (every prime up to p_max is a floor prime or has a fixed twist) is
    allowed: the state then holds no candidates, and greedy steering
    reports the pool as exhausted at once.  A custom spec's pool holds only
    the primes of its table: any other prime has factor 1 and zero rows.
    """
    problem.validate()
    p_max = problem.p_max
    if p_max <= problem.y:
        raise InvalidProblem(f"pool cutoff {p_max} must exceed the prime floor {problem.y}")
    spec = problem.spec
    R = problem.hardy_radius
    N = problem.order
    work = log_target(problem.target, R, order=N).coef     # its tail bound is 0

    all_ps = primes_up_to(int(p_max))
    mandatory = {int(p): 0.0 for p in all_ps[all_ps <= problem.y]}
    for p, tw in problem.fixed_phases.items():
        mandatory[int(p)] = float(tw) % 1.0

    if mandatory:
        mp = np.array(sorted(mandatory), dtype=np.int64)
        tw = np.array([mandatory[int(p)] for p in mp])
        gam = np.array([0.0 if int(p) in problem.fixed_phases
                        else problem.t0 * math.log(int(p)) / TWO_PI for p in mp])
        work = work - _u_rows(spec, mp, tw + gam, problem.sigma0, N, _SERIES_ORDER).sum(axis=0)

    keep = (all_ps > problem.y) & ~np.isin(all_ps, list(mandatory))
    if spec.kind == "custom":      # a prime without a table row has factor 1
        keep &= np.isin(all_ps, list(spec.table))
    pool = all_ps[keep]

    n = np.arange(N + 1)
    weights = math.pi * R ** (2 * n + 2) / (n + 1)

    floor_tail = _embedding_tail(spec, np.array(sorted(mandatory), dtype=np.int64), R,
                                 problem.sigma0, N, _SERIES_ORDER)[0]
    pool_tail, sums = _embedding_tail(spec, pool, R, problem.sigma0, N, _SERIES_ORDER)
    row_bound = (np.empty(len(pool)) if sums is None     # characters: ``_write_row_bound``
                 else np.maximum.accumulate(sums[::-1])[::-1] * (math.sqrt(math.pi) * R))
    tail = floor_tail + pool_tail + beyond_pool_tail(spec, p_max, problem.r, problem.sigma0)
    tail_norm = tail * math.sqrt(math.pi) * R

    # never-written pages of the row arrays cost no memory
    nq, h = len(QUARTER_GRID), min(_HEAD, N + 1)
    state = ApproximationState(
        problem=problem, work=work, mandatory=mandatory, accepted=[],
        pool_primes=pool, pool_mask=np.ones(len(pool), dtype=bool),
        u_phase=[np.empty((len(pool), N + 1), dtype=complex) for _ in QUARTER_GRID],
        u_norm2=np.empty((len(pool), nq)), correction=np.empty(len(pool)), weights=weights,
        row_bound=row_bound,
        cur=np.empty((_MOVE_ROWS, N + 1), dtype=complex),
        move_norm2=np.empty((_MOVE_ROWS, _DROP + 1)),
        head=np.empty((0, nq, h), dtype=complex), tail_norm=np.empty((0, nq)),
        move_tail=np.empty((_MOVE_ROWS, _DROP + 1)), tail_bound=tail_norm)
    _write_row_bound(state)
    state.trace.append(state.work_norm())
    return state


def _adopt_rows(state: ApproximationState, prev: ApproximationState) -> int:
    """Take ``prev``'s built rows as views if the state's pool is a suffix of its pool.

    Rows, phase corrections, norms, heads and tail norms are per-prime
    functions of (spec, p, sigma0, radius), bit for bit whatever the block
    (``_twisted_rows``), so the views hold what ``_quarter_rows`` writes.
    Returns the rows taken.
    """
    p, q = state.problem, prev.problem
    npool = len(state.pool_primes)
    off = len(prev.pool_primes) - npool
    built = prev.built - off
    if (off < 0 or built <= 0
            or (q.spec, q.sigma0, q.hardy_radius) != (p.spec, p.sigma0, p.hardy_radius)
            or not np.array_equal(prev.pool_primes[off:], state.pool_primes)):
        return 0
    state.u_phase = [u[off:] for u in prev.u_phase]
    state.u_norm2, state.correction = prev.u_norm2[off:], prev.correction[off:]
    state.head, state.tail_norm = prev.head[off:], prev.tail_norm[off:]
    state.built = built
    _write_row_bound(state)
    return built


# ---------------------------------------------------------------------------
# greedy steering
# ---------------------------------------------------------------------------


#: greedy moves per ``greedy_rearrange`` call (a pair rescue counts as two)
_MAX_STEPS = 600


#: a move group's row getter: ``rows(k, sel)`` is move k of the rows ``sel``
#: (``ApproximationState.pool_row`` or ``move_row``)
_Rows = Callable[[int, "int | slice"], np.ndarray]


def _full_scores(rows: _Rows, norm2: np.ndarray, n: int,
                 cw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scores 2 Re<W,u> - ||u||^2 of every move ``rows(k, slice(n))`` and the pairings Re<W,u>.

    (moves, n) each, one product per move k, ``norm2[i, k]`` being
    ||u||^2: the full pass of either move group, which the stall path, the
    pair rescue and ``_best_move``'s fallback read.
    """
    pairings = np.empty((norm2.shape[1], n))
    for k in range(len(pairings)):
        pairings[k] = (rows(k, slice(n)) @ cw).real
    return 2.0 * pairings - norm2[:n].T, pairings


#: relative rounding slack of the head screen.  A score 2 Re<u,W> - ||u||^2
#: and its head part, summed over at most 65 complex terms in any order (FMA
#: included), and the bounds themselves round by well under 1e-13 (||u|| ||W||
#: + ||u||^2); 1e-12 leaves a margin of ten.
_SCORE_ROUNDING = 1e-12


class _Screen(NamedTuple):
    """What one greedy step's screens share (``_best_move``)."""

    cw: np.ndarray          # conj(W) * weights: the full pairing's vector
    head_cw: np.ndarray     # conj(2 cw[:h]) as 2h floats (``_real_pairing``)
    tail_w: float           # 2 ||W[h:]||
    slack: float            # rounding slack, _SCORE_ROUNDING (||W|| sqrt(M) + M)


def _screen_of(state: ApproximationState, cw: np.ndarray, norm: float) -> _Screen:
    """The step's screen; M = 4 ``row_bound[0]``^2 bounds ||u||^2 of every screened row.

    A pool row at any twist is at most ``row_bound[0]`` in norm (a
    character's up to rounding, far inside the slack's margin), so a move
    u_k - c or -c on an accepted prime is at most twice that.
    """
    h = state.head.shape[-1]
    tail = 2.0 * math.sqrt(max(float(np.dot(state.work[h:], cw[h:]).real), 0.0))
    m2 = 4.0 * float(state.row_bound[0] if len(state.row_bound) else 0.0) ** 2
    return _Screen(cw, np.conj(2.0 * cw[:h]).view(np.float64), tail,
                   _SCORE_ROUNDING * (norm * math.sqrt(m2) + m2))


def _real_pairing(rows: np.ndarray, screen: _Screen) -> np.ndarray:
    """2 Re<u[:h], W[:h]> per row of ``rows``, (count, h) complex, as one real product.

    Re(u c) = u_r c_r - u_i c_i, so the complex rows seen as interleaved
    floats meet conj(c) seen the same way.  The product reads as many bytes
    as a complex one, but its result is a contiguous real array, which the
    screen's gathers and comparisons read faster than a complex one's real
    part.
    """
    return rows.view(np.float64) @ screen.head_cw


def _head_pairings(state: ApproximationState, screen: _Screen) -> np.ndarray:
    """2 Re<u[:h], W[:h]> of every built pool row, (built, quarter): one product."""
    built, nq, h = state.built, state.head.shape[1], state.head.shape[2]
    return _real_pairing(state.head[:built].reshape(-1, h), screen).reshape(built, nq)


def _exact_scores(rows: _Rows, norm2: np.ndarray, ks: np.ndarray,
                  ids: np.ndarray, cw: np.ndarray) -> np.ndarray:
    """2 Re<W,u> - ||u||^2 of the rows ``rows(k, i)``, of norm ``norm2[i, k]``.

    Bit-identical to a full pass: OpenBLAS gemv gives a row the same bits
    for any row count >= 2 and any offset, and a 1-row product takes
    another numpy path, so one row is scored in a pair with itself.
    """
    picked = [rows(k, i) for k, i in zip(ks, ids)]
    mat = np.array(picked if len(picked) > 1 else picked * 2)
    n2 = norm2[ids, ks]
    return 2.0 * (mat @ cw).real[:len(picked)] - n2


def _best_move(rows: _Rows, norm2: np.ndarray, out: np.ndarray,
               centre: np.ndarray | None, tail: np.ndarray, screen: _Screen,
               bar: float) -> tuple[float, int, int]:
    """The best score over ``rows(k, slice(count))`` if it reaches ``bar``: (score, k, i).

    ``out``, (count,) bool, flags the i whose moves may not be taken.
    ``centre`` and ``tail`` are (count, moves) arrays: each row's head
    score 2 Re<u[:h], W[:h]> - ||u||^2, up to rounding, and its tail norm
    ||u[h:]||.  With t = ||u[h:]|| ||W[h:]|| (Cauchy-Schwarz) and s the
    rounding slack, a row's computed score lies in [centre - 2t - s, centre
    + 2t + s].  A row whose ``centre`` is -inf is out of the screen: the
    caller knows its score is below ``bar``.

    The floor is max(``bar``, the lower bound of the row of largest centre),
    and the exact score is worked out (``_exact_scores``) only for the rows
    whose upper bound reaches it; a row whose centre is below the floor less
    the largest 2t cannot, and is dropped without its own bound.  Every
    other row is strictly below that row or below ``bar``, so it can
    neither win nor tie.  So when the best score is at least ``bar``, the
    result is that score and the (k, i) of the first row that has it, in
    (k, i) order, as ``np.argmax`` of a full pass gives them; otherwise it
    is a score below ``bar``, -inf when no row is left.

    ``_full_scores``, with the ``out`` rows at -inf, decides instead when
    ``centre`` is None, below two rows, or when a non-finite row makes the
    top, the largest tail, the slack or an exact score non-finite.
    """
    count = len(out)
    if centre is not None and count >= 2:
        centre[out] = -np.inf
        centre, tail = centre.reshape(-1), tail.reshape(-1)
        j = int(np.argmax(centre))
        top = float(centre[j] - tail[j] * screen.tail_w)     # a lower bound, less the slack
        floor = max(top, bar) - 2.0 * screen.slack
        reach = float(np.max(tail)) * screen.tail_w
        if (math.isfinite(top) and math.isfinite(floor) and math.isfinite(reach)
                and bar < math.inf):
            near = np.flatnonzero(centre >= floor - reach)
            flat = near[centre[near] + tail[near] * screen.tail_w >= floor]
            if not len(flat):
                return -math.inf, 0, 0
            nk = norm2.shape[1]
            ks, ids = np.divmod(np.sort(flat % nk * count + flat // nk), count)
            scores = _exact_scores(rows, norm2, ks, ids, screen.cw)
            if np.all(np.isfinite(scores)):
                j = int(np.argmax(scores))
                return float(scores[j]), int(ks[j]), int(ids[j])
    if not count:
        return -math.inf, 0, 0
    scores, _ = _full_scores(rows, norm2, count, screen.cw)
    scores[:, out] = -np.inf
    k, i = np.unravel_index(int(np.argmax(scores)), scores.shape)
    return float(scores[k, i]), int(k), int(i)


def _pool_best(state: ApproximationState, screen: _Screen, heads: np.ndarray,
               bar: float) -> tuple[float, int, int]:
    """The best (score, quarter, index) of the built pool rows if it reaches ``bar``.

    Screened by ``_best_move`` from ``heads``, the ``_head_pairings`` of
    the built prefix, less ``u_norm2``; the rows of accepted primes are out.
    """
    built = state.built
    return _best_move(state.pool_row, state.u_norm2, ~state.pool_mask[:built],
                      heads - state.u_norm2[:built], state.tail_norm[:built], screen, bar)


def _pool_scores(state: ApproximationState, screen: _Screen, heads: np.ndarray, norm: float,
                 acc_best: float, tol: float) -> tuple[float, int, int]:
    """``_pool_best`` after building rows as far as a prime can still win.

    A move u scores 2 Re<u,W> - ||u||^2 <= 2 ||u|| ||W|| <= 2 ||W|| beta,
    ||W|| = ``norm`` and beta = ``row_bound[built]`` for every unbuilt
    prime.  The blocks of ``_blocks`` are built one at a time (they double,
    so the built prefix is screened a logarithmic number of times) until
    2 ||W|| (1 + 1e-9) beta is below the best score so far (this prefix's
    or ``acc_best``, the best move on an accepted prime): no unbuilt prime
    can win or tie.  A best score at most ``tol`` heads for a stall or a
    pair rescue, which read the whole pool: the rest is built at once.

    The prefix is screened against the bar max(``acc_best``, ``tol``): the
    pool's best is exact whenever it reaches the bar, and below it the step
    takes the accepted move or stalls whatever the exact value.
    """
    npool = len(state.pool_primes)
    reach = 2.0 * norm * (1.0 + 1e-9)
    bar = max(acc_best, tol)     # a NaN acc_best stays NaN: the screen falls back
    while True:
        found = _pool_best(state, screen, heads, bar)
        if state.built == npool:
            return found
        best = max(found[0], acc_best)
        if best > tol and reach * state.row_bound[state.built] < best:
            return found
        _quarter_rows(state, npool if best <= tol and state.built else state.built + 1)
        heads = _head_pairings(state, screen)


def _golden_refine(state: ApproximationState, cw: np.ndarray, idx: int,
                   q0: float) -> tuple[np.ndarray, float, float]:
    """Golden-section search of the steering phase around the best quarter."""
    problem = state.problem
    p = np.array([state.pool_primes[idx]])
    lnp = np.log(p.astype(float))
    mpow = _m_powers(problem.order, _SERIES_ORDER)
    direction = _taylor_direction(lnp, problem.order)
    correction = state.correction[idx:idx + 1]

    def decrease_of(q: float) -> tuple[float, np.ndarray, float]:
        tws = np.mod(q % 1.0 + correction, 1.0)
        rows = np.empty((1, problem.order + 1), dtype=complex)
        _twisted_rows(problem.spec, p, lnp, tws, problem.sigma0, mpow, direction, [rows])
        row = rows[0]
        n2 = float(np.sum(np.abs(row) ** 2 * state.weights).real)
        d = 2.0 * float((row @ cw).real) - n2
        return d, row, float(tws[0])

    gr = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = q0 - 0.125, q0 + 0.125
    c, d = b - gr * (b - a), a + gr * (b - a)
    fc, fd = decrease_of(c), decrease_of(d)
    for _ in range(24):
        if fc[0] > fd[0]:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = decrease_of(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = decrease_of(d)
    best = fc if fc[0] > fd[0] else fd
    return best[1], best[2], best[0]


def _resized(a: np.ndarray, rows: int) -> np.ndarray:
    """``a`` with ``rows`` rows; only ``a``'s rows of the result are written."""
    out = np.empty((rows,) + a.shape[1:], dtype=a.dtype)
    out[:len(a)] = a
    return out


def _write_moves(state: ApproximationState, pos: int, cur: np.ndarray) -> None:
    """Write the current row ``cur`` of accepted position ``pos`` and its move norms.

    The moves are u_k - cur for k < ``_DROP`` (u_k the prime's quarter-k
    row) and -cur; their norms are summed row by row as one (moves,
    order+1) array, the arithmetic of a whole-list gains pass.  Full arrays
    double one at a time, each old one freed before the next is copied,
    and only their live rows are copied, so no page past them is touched.
    """
    if pos == len(state.move_norm2):
        state.cur, state.move_norm2, state.move_tail = (
            _resized(a, 2 * pos) for a in (state.cur, state.move_norm2, state.move_tail))
    state.cur[pos] = cur
    d = np.array([state.move_row(k, pos) for k in range(_DROP + 1)])
    state.move_norm2[pos] = _write_norms(state, d, state.move_tail[pos])


def _commit(state: ApproximationState, idx: int, row: np.ndarray, twist: float) -> None:
    assert idx < state.built, "committing a pool prime whose rows are not built"
    state.work = state.work - row
    state.pool_mask[idx] = False
    state.accepted.append((int(state.pool_primes[idx]), float(twist % 1.0)))
    state.accepted_idx.append(int(idx))
    _write_moves(state, len(state.accepted_idx) - 1, row)


#: ``_accepted_best`` passes over moves of norm 0 only above this step tol:
#: there tol = 1e-14 ||W||^2 with ||W|| > 1e-143, far above the 3e-160 ||W||
#: that such a move can score
_ZERO_MOVE_TOL = 1e-300


def _accepted_best(state: ApproximationState, screen: _Screen, heads: np.ndarray,
                   tol: float) -> tuple[float, int, int]:
    """The best (gain, move, position) of the moves on accepted primes if it is above ``tol``.

    The moves rephase to quarter k < ``_DROP`` or drop the factor, which
    recovers the residues of early quantized choices that the shrinking
    pool cannot cancel.  Screened by ``_best_move`` against the bar
    ``tol``: below it the step stalls, and the stall path scores every
    move in full.  A move u_k - c of accepted position a takes its head
    pairing as that of u_k, read from ``heads`` (the ``_head_pairings`` of
    the pool) at the prime's index, less that of c, one product over the
    drop moves -c; the difference from the stored row's own head pairing
    is rounding, which the slack covers: M bounds ||u_k||^2 and ||c||^2.

    A move of norm 0 is out of the screen.  Either it is zero, the rephase
    onto the quarter the prime is at, and scores 0; or its norm underflows,
    so each |d_n| sqrt(w_n) < 2e-162 and it scores below 3e-160 ||W||.
    Either way it is below ``tol`` = 1e-14 ||W||^2 while ``tol`` >
    ``_ZERO_MOVE_TOL``; at a smaller ``tol`` the full pass decides.
    """
    n = len(state.accepted_idx)
    centre = None
    if tol > _ZERO_MOVE_TOL:
        # negation is exact: the pairing of the drop rows -c, up to the sign of a zero
        drop = -_real_pairing(state.cur[:n, :state.head.shape[-1]], screen)
        centre = np.empty((n, _DROP + 1))
        np.add(heads[np.fromiter(state.accepted_idx, np.intp, n)], drop[:, None],
               out=centre[:, :_DROP])
        centre[:, _DROP] = drop
        n2 = state.move_norm2[:n]
        centre -= n2
        centre[n2 == 0.0] = -np.inf
    return _best_move(state.move_row, state.move_norm2, np.zeros(n, dtype=bool), centre,
                      state.move_tail[:n], screen, tol)


def _apply(state: ApproximationState, accepted: bool, k: int, i: int) -> None:
    """Commit move k of accepted position i, or grow pool prime i at quarter k.

    On an accepted prime, k < ``_DROP`` rephases to quarter k and ``_DROP`` drops.
    """
    if not accepted:
        _commit(state, i, state.u_phase[k][i], state.twist(k, i))
        return
    idx = state.accepted_idx[i]
    state.work = state.work - state.move_row(k, i)      # a drop's W - (-c) is W + c bit for bit
    if k < _DROP:
        _write_moves(state, i, state.u_phase[k][idx])
        state.accepted[i] = (int(state.pool_primes[idx]), float(state.twist(k, idx) % 1.0))
        return
    n = len(state.accepted_idx)
    for m in (state.cur, state.move_norm2, state.move_tail):
        m[i:n - 1] = m[i + 1:n]
    state.pool_mask[idx] = True
    del state.accepted[i]
    del state.accepted_idx[i]


def _pair_rescue(state: ApproximationState, pairings: np.ndarray, gains: np.ndarray) -> bool:
    """Try the best joint pair of moves when no single move decreases.

    Coupled mistakes -- a cancelling pair of new factors, or an early phase
    choice that later additions locked in -- are invisible to single steps.
    The rescue scores all pairs over a candidate list mixing new primes,
    phase changes of accepted primes, and removals, and commits the best
    strictly decreasing pair.  Candidates are the 24 new primes of largest
    |pairing| and the 48 accepted-prime moves of largest ``gains``, the
    ``_full_scores`` of the two groups.  Returns True if something was
    committed.
    """
    moves = []    # (accepted, k, i, prime): ``_apply``'s move, its row subtracted from W
    avail = np.nonzero(state.pool_mask)[0]
    if len(avail):
        strength = np.max(np.abs(pairings[:, avail]), axis=0)
        for idx in avail[np.argsort(-strength)][:24]:
            moves += [(False, k, int(idx), int(state.pool_primes[idx]))
                      for k in range(len(QUARTER_GRID))]
    # a rephase onto the quarter the prime already has moves nothing
    # (u_k - c is zero exactly when u_k equals c, for finite rows)
    n = len(state.accepted_idx)
    moved = np.ones(gains.shape, dtype=bool)
    for k in range(_DROP):
        moved[k] = np.any(state.move_row(k, slice(n)) != 0, axis=1)
    pos, ks = np.nonzero(moved.T)   # candidates in (position, move) order
    for j in np.argsort(-gains[ks, pos], kind="stable")[:48]:
        a, k = int(pos[j]), int(ks[j])
        moves.append((True, k, a, int(state.pool_primes[state.accepted_idx[a]])))
    if len(moves) < 2:
        return False
    deltas = np.array([(state.move_row if acc else state.pool_row)(k, i) for acc, k, i, _ in moves])
    wrows = deltas * state.weights[None, :]
    cvec = (wrows @ np.conj(state.work)).real
    gram = (wrows @ np.conj(deltas.T)).real
    n2 = np.diag(gram)
    single = 2.0 * cvec - n2
    pairsum = single[:, None] + single[None, :] - 2.0 * gram
    same_prime = np.array([m[3] for m in moves])
    pairsum[same_prime[:, None] == same_prime[None, :]] = -np.inf
    flat = int(np.argmax(pairsum))
    i, j = np.unravel_index(flat, pairsum.shape)
    best = float(pairsum[i, j])
    norm2 = state.work_norm() ** 2
    if best <= 1e-14 * max(norm2, 1e-300):
        return False
    # accepted-list moves at larger positions first, since drops shift them;
    # new primes last, in candidate order
    for acc, k, a, _ in sorted([moves[i], moves[j]],
                               key=lambda m: (not m[0], -m[2] if m[0] else 0)):
        _apply(state, acc, k, a)
    state.trace.append(state.work_norm())
    return True


def greedy_rearrange(state: ApproximationState, stop_norm: float) -> ApproximationState:
    """Steer pool primes into the product until the residual norm is small.

    Each step scores every available (prime, quarter phase) pair and every
    move on an accepted prime by the exact norm decrease and commits the
    best strictly decreasing one (optionally phase-refined by golden
    section).  Stops at the norm ``stop_norm``, on pool exhaustion, or when
    no move -- including a joint two-prime rescue -- decreases the norm,
    where ``state.stall`` records the stall diagnostics; or after
    ``_MAX_STEPS`` moves, the step cap, which is not a stall (``stall`` is
    None, as at ``stop_norm``; the caller tells the two apart by the norm).

    Pool rows are built on demand (``_pool_scores``), so every choice and
    trace value is the one a fully built pool gives.  Moves on accepted
    primes are scored from the rows and norms the commits keep current
    (``cur``, ``move_norm2``).  Both groups are screened by their heads
    (``_best_move``), bit-identically to scoring every move in full, which
    a step whose best score is not a decrease does (``_full_scores``), on
    the whole pool.  Every move is committed by ``_apply``; a golden-refined
    row by ``_commit``.
    """
    problem = state.problem
    steps = 0
    norm = state.work_norm()
    state.stall = None
    while steps < _MAX_STEPS and not norm <= stop_norm:    # a NaN norm does not stop
        norm2 = norm ** 2
        tol = 1e-14 * max(norm2, 1e-300)
        screen = _screen_of(state, np.conj(state.work) * state.weights, norm)
        heads = _head_pairings(state, screen)
        acc_best, move, pos = _accepted_best(state, screen, heads, tol)
        grow_best = -math.inf
        if np.any(state.pool_mask):
            grow_best, k, idx = _pool_scores(state, screen, heads, norm, acc_best, tol)
        if max(grow_best, acc_best) <= tol:
            cw = screen.cw
            gains, _ = _full_scores(state.move_row, state.move_norm2, len(state.accepted_idx), cw)
            if np.any(state.pool_mask):
                decreases, pairings = _full_scores(state.pool_row, state.u_norm2, state.built, cw)
                decreases[:, ~state.pool_mask[:state.built]] = -np.inf
                grow_best = float(decreases.flat[int(np.argmax(decreases))])
                if _pair_rescue(state, pairings, gains):
                    norm = state.work_norm()
                    steps += 2
                    continue
            else:
                pairings = np.zeros((len(QUARTER_GRID), len(state.pool_primes)))
            rephase_best = float(np.max(gains[:_DROP], initial=-math.inf))
            state.stall = StallInfo(max(grow_best, rephase_best),
                                    float(np.max(np.abs(pairings), initial=0.0)),
                                    not bool(np.any(state.pool_mask)))
            return state
        if acc_best > grow_best:
            # the first move wins a tie, then the first position
            _apply(state, True, move, pos)
        else:
            row, twist, dec = (_golden_refine(state, screen.cw, idx, QUARTER_GRID[k])
                               if problem.phase_mode == "golden" else (None, 0.0, -math.inf))
            if dec > grow_best:
                _commit(state, idx, row, twist)
            else:
                _apply(state, False, k, idx)
        norm = state.work_norm()
        state.trace.append(norm)
        steps += 1
    return state


# ---------------------------------------------------------------------------
# the full pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ApproximationResult:
    """The steered product, its surveyed error, and how the run ended.

    ``trace`` holds the residual norm at the start and after each move.
    ``status`` is success, pool_exhausted, step_cap or stall (``approximate``
    raises on all but the first); ``stall`` is the last steering round's
    ``StallInfo``, None when that round did not stall.
    """

    problem: ApproximationProblem
    primes: tuple[int, ...]
    phases: PhaseAssignment
    max_error: float
    argmax: complex
    trace: tuple[float, ...]
    tail_bound: float
    contraction_deviation: float
    status: str
    stall: StallInfo | None
    survey: SurveyResult

    def product_evaluator(self) -> Callable[[np.ndarray], np.ndarray]:
        return product_target(self.problem.spec, self.primes, self.phases, self.problem.sigma0)

    def phases_text(self) -> str:
        lines = [f"{p} {self.phases.theta[p]!r}" for p in sorted(self.phases.theta)]
        return "\n".join(lines) + "\n"

    def trace_text(self) -> str:
        return "\n".join(f"{i} {v!r}" for i, v in enumerate(self.trace)) + "\n"


def _survey_grid(problem: ApproximationProblem) -> DiscGrid:
    """The grid of |s| <= r on which ``_survey`` and the refine screen measure errors."""
    return DiscGrid(center=0j, radius=problem.r,
                    boundary=problem.survey_boundary, rings=problem.survey_rings)


def _survey(problem: ApproximationProblem, phases: PhaseAssignment) -> SurveyResult:
    """Survey the product over the primes of ``phases`` against ``problem.target``."""
    f = product_target(problem.spec, sorted(phases.theta), phases, problem.sigma0)
    return disc_error_survey(problem.target, f, _survey_grid(problem))


def _approximate_impl(problem: ApproximationProblem, prev: ApproximationState | None = None
                      ) -> tuple[ApproximationResult, ApproximationState]:
    """The pipeline behind ``approximate``, which raises on the result this returns.

    Also returns the final steering state.  A refine stage passes the
    previous stage's as ``prev``, whose built pool rows the new state
    adopts (``_adopt_rows``).
    """
    problem.validate()
    work_problem, dev = contract_target(problem)
    state = init_residual(work_problem)
    if prev is not None:
        _adopt_rows(state, prev)
    R = work_problem.hardy_radius
    stop = 0.5 * problem.eps * math.sqrt(math.pi) * (R - problem.r)
    for _ in range(3):   # steering rounds, the norm target divided by 4 each time
        state = greedy_rearrange(state, stop_norm=stop)
        stall = state.stall
        capped = stall is None and state.trace[-1] > stop   # no stall: the step cap
        # measure against the uncontracted target
        survey = _survey(problem, state.phase_assignment())
        if survey.max_error <= problem.eps or (
                stall and (stall.pool_exhausted or stall.best_decrease <= 0)):
            break
        stop /= 4.0
    status = ("success" if survey.max_error <= problem.eps
              else "pool_exhausted" if stall and stall.pool_exhausted
              else "step_cap" if capped else "stall")
    phases = state.phase_assignment()
    return ApproximationResult(
        problem=problem, primes=tuple(sorted(phases.theta)), phases=phases,
        max_error=survey.max_error, argmax=survey.argmax, trace=tuple(state.trace),
        tail_bound=state.tail_bound, contraction_deviation=dev, status=status, stall=stall,
        survey=survey), state


def approximate(problem: ApproximationProblem) -> ApproximationResult:
    """Run the full pipeline; the returned error is the surveyed product error.

    The prime set always contains every prime at or below the floor y.
    Unless the result's ``status`` is success, raises the class of its
    status, with the result attached: ApproximationStall for a stall, and
    its subclasses PoolExhausted when no pool prime was left to steer and
    StepCapReached when the last steering round ended at its step cap.
    """
    result, _ = _approximate_impl(problem)
    if result.status != "success":
        raise {"stall": ApproximationStall, "pool_exhausted": PoolExhausted,
               "step_cap": StepCapReached}[result.status](
            f"{result.status} at surveyed error {result.max_error:.3e} > eps {problem.eps} "
            f"(p_max {problem.p_max})", result)
    return result


# ---------------------------------------------------------------------------
# doubling schedule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RefineStage:
    stage: int
    y: float
    m_k: int
    core_primes: tuple[int, ...]
    core_error: float
    error: float
    schedule_bound: float
    draws_used: int
    phases: PhaseAssignment


#: filler draws per batch, the draw cap per stage, and the schedule slack of ``refine_sequence``
_DRAWS = 64
_MAX_DRAWS = 512
_SLACK = 2.0

#: rounding allowance of the refine screen, relative to max(|target| + |screen
#: product|) on the survey grid.  The survey's product rounds a few ulp per
#: factor over about 1e3 factors (<= 1e-12 relative); the screen's core product,
#: Taylor coefficients (``factors._log_taylor``), grid sum and exp round alike.
#: Observed gaps are below 1e-14.  A product on the series route adds at most
#: its ``_SERIES_TAIL`` of 1e-13.
_SCREEN_ROUNDING = 1e-10

#: bytes of the temporaries of one screened chunk of draws
_SCREEN_BYTES = 2**20


class _FillerScreen:
    """Screen of a refine stage's filler draws: ``screen(twists)`` -> (errors, delta).

    ``twists`` is (draws, filler).  A draw's screen error is max |target -
    core exp(P) F| over the survey grid: P the ``_log_taylor`` polynomial of
    the fillers at its twists about sigma0 (one call per batch, a column
    per draw), F the exact factors of the fillers without a rung (one
    ``partial_product_grid`` call per draw).  The grid, the target on it and
    the core product are worked out once.  ``delta`` bounds |screen -
    surveyed error| of every draw of the batch: the tail T gives e^T - 1
    times max |core exp(P) F|, and ``_SCREEN_ROUNDING`` covers the rounding
    of both routes.  Draws are evaluated in chunks of at most
    ``_SCREEN_BYTES`` of temporaries.
    """

    def __init__(self, problem: ApproximationProblem, core_phases: PhaseAssignment,
                 filler: Sequence[int]):
        self.spec, self.sigma0 = problem.spec, problem.sigma0
        self.pts = _survey_grid(problem).points()
        self.s = self.pts + problem.sigma0
        self.target = np.asarray(problem.target(self.pts), dtype=complex)
        self.core = partial_product_grid(problem.spec, self.s, sorted(core_phases.theta),
                                         core_phases)
        self.filler = np.asarray(filler, dtype=np.int64)
        self.chunk = max(1, _SCREEN_BYTES // (24 * len(self.pts)))

    def __call__(self, twists: np.ndarray) -> tuple[np.ndarray, float]:
        # sigma0 > 3 max |s| holds for every valid problem (r < r0 <= sigma0 / 3)
        coef, tail, none = _log_taylor(self.spec, self.filler, twists.T, self.sigma0,
                                       float(np.max(np.abs(self.pts))))
        grow, exact = math.expm1(tail), self.filler[none].tolist()
        # s^n on the grid as a real matrix: complex coefficients seen as (re, im)
        # pairs times it give the polynomial's values as (re, im) pairs
        power = np.vander(self.pts, len(coef), increasing=True).T
        grid = np.empty((len(coef), 2, len(self.pts), 2))
        grid[:, 0, :, 0], grid[:, 0, :, 1] = power.real, power.imag
        grid[:, 1, :, 0], grid[:, 1, :, 1] = -power.imag, power.real
        grid = grid.reshape(2 * len(coef), -1)
        errs = np.empty(len(twists))
        gaps = np.empty(len(twists))     # |screen - survey| bound per draw
        for lo in range(0, len(twists), self.chunk):
            hi = lo + self.chunk
            # a real product: a complex one here slows the exp after it 20-fold
            prod = (np.ascontiguousarray(coef[:, lo:hi].T).view(np.float64) @ grid).view(complex)
            np.exp(prod, out=prod)
            prod *= self.core
            if exact:
                for row, tw in zip(prod, twists[lo:hi, none].tolist()):
                    row *= partial_product_grid(self.spec, self.s, exact,
                                                PhaseAssignment(dict(zip(exact, tw))))
            size = np.abs(prod)
            gaps[lo:hi] = grow * np.max(size, axis=1)
            size += np.abs(self.target)
            gaps[lo:hi] += _SCREEN_ROUNDING * np.max(size, axis=1)
            np.subtract(self.target, prod, out=prod)
            errs[lo:hi] = np.max(np.abs(prod, out=size), axis=1)
        return errs, float(np.max(gaps))   # a NaN delta makes every draw surveyed


def _draw_fillers(problem: ApproximationProblem, core: ApproximationResult,
                  filler: list[int], rng: np.random.Generator,
                  good: float) -> tuple[float, PhaseAssignment, int]:
    """The best surveyed filler draw: (error, phases, draws used).

    Draws come in batches until the best error is at most ``good`` or
    ``_MAX_DRAWS`` are used; only the draws the screen cannot rule out are
    surveyed (``refine_sequence``).
    """
    screen = _FillerScreen(problem, core.phases, filler)
    best_err, best_pa, used = math.inf, None, 0
    while used < _MAX_DRAWS:
        batch = min(_DRAWS, _MAX_DRAWS - used)
        draws = rng.random((batch, len(filler)))
        errs, delta = screen(draws)
        cut = min(best_err, float(np.min(errs))) + 2.0 * delta
        for tw in draws[~(errs > cut)]:    # a NaN screen error is surveyed
            theta = dict(core.phases.theta)
            theta.update({p: float(t) for p, t in zip(filler, tw)})
            pa = PhaseAssignment(theta, t0=problem.t0, shifted=core.phases.shifted)
            err = _survey(problem, pa).max_error
            if err < best_err:
                best_err, best_pa = err, pa
        used += batch
        if best_err <= good:
            break
    return best_err, best_pa, used


def refine_sequence(problem: ApproximationProblem, stages: int) -> list[RefineStage]:
    """Doubling schedule y_k = 2^k y0 with frozen phase reuse across stages.

    Stage k steers its enlarged mandatory floor (inheriting every previously
    assigned twist), then assigns the unsteered primes up to the largest
    product prime by sampling: random twist vectors are drawn in batches of
    ``_DRAWS`` and the one minimizing the surveyed error of the contiguous
    product is kept, redrawing (up to ``_MAX_DRAWS``) while the stage error
    exceeds the previous stage's or the schedule bound.  Stage errors must
    stay within ``_SLACK`` * 2^{1 + k beta} eps of the schedule and must not
    increase.

    Draws are screened before they are surveyed (``_FillerScreen``, which
    evaluates the fillers' log product as one ``factors._log_taylor``
    polynomial per draw): every draw of a batch gets a screen error e' with
    |e' - e| <= delta against its surveyed error e, delta the batch's
    certified truncation tail plus a rounding allowance.  Only draws with e'
    <= min(best so far, batch minimum of e') + 2 delta are surveyed, in draw
    order with the strict-< rule.  Any other draw has e > e'_min + delta >=
    e of the batch's screen minimum (or e > best so far), so it could never
    have been kept: the kept draw, its error, ``draws_used`` and every stall
    message are those of surveying every draw.  The batch is one
    ``rng.random((batch, fillers))`` call, the same PCG64 doubles in the same
    order as one call per draw.

    A stage's pool is a suffix of the previous stage's, so each core adopts
    the built rows of the previous core's state (``_adopt_rows``), and a
    refine call builds each pool prime's rows at most once.

    Inherited twists are product twists: a stage passes on theta_p + gamma_p
    (mod 1) of every prime it assigned, and the next stage uses them as
    ``fixed_phases``, not shifted again.  Only floor primes without an
    inherited twist get gamma_p = t0 log p / 2 pi.  So an inherited twist
    describes the same factor at every stage; with t0 = 0 it is the previous
    theta bit for bit.

    The pool cutoff ``p_max`` is the same at every stage and is never raised.
    A stage whose floor and inherited twists already cover every prime up to
    p_max has nothing left to steer: its core keeps every previous twist,
    there are no filler primes, ``draws_used`` is 0, and the stage error
    equals the previous stage's (up to the rounding of the mod-1 reduction
    when t0 != 0).
    """
    problem.validate()
    beta = problem.schedule_exponent()
    if stages < 1:
        raise InvalidProblem(f"violated: stages >= 1 (stages={stages})")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(problem.seed)))
    assigned: dict[int, float] = {}
    out: list[RefineStage] = []
    prev_error = math.inf
    prev = None
    for k in range(stages):
        y_k = problem.y * 2.0**k
        prob_k = replace(problem, y=y_k, fixed_phases=assigned, eps=0.5 * problem.eps)
        core, prev = _approximate_impl(prob_k, prev)
        m_k = max(core.primes)
        filler = [int(p) for p in primes_up_to(m_k) if int(p) not in core.phases.theta]
        bound = _SLACK * 2.0 ** (1.0 + (k + 1) * beta) * problem.eps
        if filler:
            best_err, best_pa, used = _draw_fillers(problem, core, filler, rng,
                                                    min(prev_error, bound))
        else:
            best_err, best_pa, used = core.max_error, core.phases, 0
        if best_err > prev_error + 1e-12:
            raise RefineStall(
                f"stage {k + 1}: error {best_err:.3e} exceeds previous {prev_error:.3e} "
                f"after {used} draws")
        if best_err > bound + 1e-12:
            raise RefineStall(
                f"stage {k + 1}: error {best_err:.3e} exceeds schedule bound {bound:.3e}")
        assigned = {p: float(best_pa.twist(p) % 1.0) for p in best_pa.theta}
        out.append(RefineStage(stage=k + 1, y=y_k, m_k=m_k,
                               core_primes=core.primes, core_error=core.max_error,
                               error=best_err, schedule_bound=bound, draws_used=used,
                               phases=best_pa))
        prev_error = best_err
    return out
