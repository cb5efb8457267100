"""Local Euler factors, phase-twisted partial products, and log-factor algebra.

A factor spec describes the local factors f_p(z) = 1 + sum_m a_p^m z^m of an
Euler product over primes.  There are two families (``EulerFactorSpec.kind``):

* ``dirichlet`` -- a_p^m = chi(p)^m for a character chi mod q, so
                   f_p(z) = 1/(1 - chi(p) z) and log f_p = sum_m (chi(p) z)^m/m.
                   Zeta is the character mod 1: ``zeta_spec()`` is
                   ``dirichlet_spec(1, [1])``.
* ``custom``    -- finite coefficient table per prime (a polynomial factor),
                   with declared growth constants c(eps).

Each family's arithmetic is written once, in the ``EulerFactorSpec`` methods
``leading``, ``phase_correction``, ``times_factor``, ``fold_factors``,
``log_terms``, ``log_series_tail`` and ``growth``; the rest of the package
reaches the factors through them.  Outside the spec's methods, ``kind`` is
read only by the ``save_custom_spec`` guard, by ``approx._embedding_tail``
(its closed-form majorant holds for characters only), by
``approx.init_residual`` (a custom pool keeps its table primes only) and by
the two oracle routes that tests cross-check against: ``eval_factor`` and
``log_factor``.
The exact oracle ``partial_product_exact`` takes its character values from
``coeff_exact``.

``partial_product_grid`` multiplies the factors (bit-identical to the
per-prime loop) or, for large calls, takes the exp of one Taylor polynomial
of the log product.  ``_log_taylor`` builds that polynomial, certified by
``_prime_bounds`` (the bound of ``approx``'s pool rows and tails), with one
column per set of twists: the refine screen builds a batch of filler draws
in one call.

Specs and assignments are immutable; the two-entry memos of the series
route's builds and of the prime logs are the one mutable state, and no value
depends on them.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .exact import QI, QI_ONE, QUARTER_UNITS
from .hardy import TWO_PI, _winding
from .primes import primes_in_interval

#: default truncation order for factor power series
DEFAULT_SERIES_ORDER = 64

#: quantized steering phases (turns)
QUARTER_GRID = (0.0, 0.25, 0.5, 0.75)

#: cells of one block of the factor route (primes x points) and of
#: ``_log_taylor`` (primes x top rung, and a rung's primes x m x columns)
_PRODUCT_BLOCK_CELLS = 1 << 15

#: the band ladder: the log-series orders a prime may take, and the cut that
#: picks its rung (``_ladder_orders``)
_LADDER_RUNGS = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 40)
_LADDER_CUT = 1e-18

#: the series route's build in factor-route cells, per prime and per call
#: (again per custom table row in the call: its ``log_series_tail`` K, worked
#: out once per process and row), and the largest certified log tail it accepts.
#: A zeta build over the 9,592 primes to 1e5 measures 22-31 cells per prime
#: (radius 0.02-0.2, 2 vCPUs); 48, an older reading, is kept so that no call
#: changes route
_SERIES_PRIME_CELLS = 48
_SERIES_CALL_CELLS = 1 << 14
_SERIES_TAIL = 1e-13
#: ``_series_product``'s last two builds, and ``_prime_logs``' last two prime arrays
_SERIES_BUILDS: dict = {}
_PRIME_LOGS: dict = {}

#: radius rho of the circle just inside |z| = 1 on which custom factors are
#: checked zero-free, so that ``log_series_tail``'s Cauchy bound
#: |c_m| <= K rho^-m holds
_ZERO_FREE_RADIUS = 1.0 - 1e-3


class FactorDomainError(ValueError):
    """Factor argument outside the open unit disc, or a rejected spec."""


class BranchTrackingError(RuntimeError):
    """The factor value wound through 0 while tracking the logarithm branch."""


class HypothesisError(ValueError):
    """The short-interval hypothesis sum fails at the requested h."""


# ---------------------------------------------------------------------------
# factor specs
# ---------------------------------------------------------------------------


def _check_polynomial_zero_free(coeffs: Sequence[complex]) -> bool:
    """Winding-number test: True iff 1 + sum_m c_m z^m has no zero in |z| < rho.

    rho is ``_ZERO_FREE_RADIUS``.  The factor polynomial is cheap, so the
    contour is sampled densely (1024 points) and the accumulated argument
    increment must vanish.
    """
    poly = np.concatenate(([1.0 + 0j], np.asarray(coeffs, dtype=complex)))
    ang = np.linspace(0.0, TWO_PI, 1024, endpoint=False)
    z = _ZERO_FREE_RADIUS * np.exp(1j * ang)
    vals = np.polyval(poly[::-1], z)
    if np.min(np.abs(vals)) < 1e-12:
        return False
    return abs(_winding(vals)[0]) < 0.25


@dataclass(frozen=True)
class EulerFactorSpec:
    """Coefficient rule of the local factors plus growth constants.

    ``c_map`` maps eps -> c(eps) with c >= 1 and |a_p^m| <= c(eps) p^{m eps}
    for every coefficient.  Characters satisfy this with c = 1 for every
    eps, so their map is unrestricted.
    """

    kind: str
    modulus: int = 0
    character: tuple[complex, ...] = ()
    table: Mapping[int, Mapping[int, complex]] = field(default_factory=dict)
    c_map: Mapping[float, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("dirichlet", "custom"):
            raise FactorDomainError(f"unknown factor kind {self.kind!r}")
        for eps, c in self.c_map.items():
            if eps <= 0 or c < 1.0:
                raise FactorDomainError("growth constants need eps > 0 and c >= 1")
        if self.kind == "custom":
            for p, row in self.table.items():
                if min(row, default=1) < 1:
                    raise FactorDomainError(f"custom factor at p={p} has an index m < 1")
                for eps, c in self.c_map.items():
                    for m, a in row.items():
                        if abs(a) > c * p ** (m * eps) * (1 + 1e-12):
                            raise FactorDomainError(
                                f"coefficient a_{p}^{m} violates |a| <= c(eps) p^(m eps) "
                                f"at eps={eps}")
                coeffs = [row.get(m, 0.0) for m in range(1, max(row) + 1)] if row else []
                if not _check_polynomial_zero_free(coeffs):
                    raise FactorDomainError(f"custom factor at p={p} has a zero in |z| < 1")

    # -- coefficient access -------------------------------------------------

    def chi(self, p: int) -> complex:
        if self.kind != "dirichlet":
            raise FactorDomainError("chi only defined for dirichlet kind")
        return self.character[p % self.modulus]

    def coeff(self, p: int, m: int) -> complex:
        """a_p^m (m >= 1)."""
        if m < 1:
            raise ValueError("m >= 1")
        if self.kind == "dirichlet":
            return self.chi(p) ** m
        return complex(self.table.get(p, {}).get(m, 0.0))

    def coeff_exact(self, p: int, m: int) -> QI:
        """a_p^m in Q(i), for characters valued in {0, +-1, +-i}."""
        if self.kind == "dirichlet":
            a = self.coeff(p, m)
            if a.real in (-1.0, 0.0, 1.0) and a.imag in (-1.0, 0.0, 1.0):
                return QI(Fraction(a.real), Fraction(a.imag))
        raise FactorDomainError("no exact coefficients for this spec")

    def a1(self, p: int) -> complex:
        return self.coeff(p, 1)

    def table_degree(self, p: int) -> int:
        row = self.table.get(p, {})
        return max(row) if row else 0

    def c_of(self, eps: float) -> float:
        """Growth constant c(eps); characters are 1 for every eps."""
        if self.kind == "dirichlet":
            return 1.0
        if eps in self.c_map:
            return self.c_map[eps]
        raise FactorDomainError(f"custom spec declares no growth constant at eps={eps}")

    def growth(self, eps_cap: float) -> tuple[float, float]:
        """(eps, c(eps)) for the largest usable eps <= eps_cap; characters take eps_cap."""
        if self.kind == "dirichlet":
            return eps_cap, 1.0
        valid = [e for e in self.c_map if e <= eps_cap]
        if not valid:
            raise FactorDomainError("custom spec declares no growth constant small enough")
        eps = max(valid)
        return eps, self.c_map[eps]

    # -- vectorized family arithmetic -----------------------------------------

    def leading(self, primes: np.ndarray) -> np.ndarray:
        """a_p^1 for an array of primes (any shape, scalars included)."""
        primes = np.asarray(primes, dtype=np.int64)
        if self.kind == "dirichlet":
            return np.array(self.character, dtype=complex)[primes % self.modulus]
        out = np.zeros(primes.shape, dtype=complex)
        for p, row, hit in self._table_hits(primes):
            out[hit] = row.get(1, 0.0)
        return out

    def _table_hits(self, primes: np.ndarray):
        """(p, table row, ``primes == p``) for each table prime among ``primes``.

        Work grows with the primes asked for, not with the table: a one-prime
        call reads one row of a table of thousands.
        """
        for p in self.table.keys() & set(primes.ravel().tolist()):
            yield p, self.table[p], primes == p

    def phase_correction(self, primes: np.ndarray) -> np.ndarray:
        """arg a_p^1 / 2pi in turns per prime (0 where a_p^1 = 0).

        ``cmath.phase`` (whose last bit can differ from ``np.angle``) runs once
        per distinct leading coefficient.
        """
        values, where = np.unique(self.leading(primes), return_inverse=True)
        turns = np.array([(cmath.phase(a) / TWO_PI) % 1.0 if a else 0.0
                          for a in values.tolist()])
        return turns[where]

    def times_factor(self, acc, p: int, z):
        """acc * f_p(z) for a scalar or an array z (|z| < 1 is the caller's job).

        Characters compute acc / (1 - chi(p) z), skipping the product when
        chi(p) = 1; custom factors sum the table polynomial by powers of z
        (``_row_value``).
        """
        if self.kind == "dirichlet":
            chi = self.character[p % self.modulus]
            return acc / (1.0 - z) if chi == 1 else acc / (1.0 - chi * z)
        return acc * _row_value(self.table.get(p, {}), z)

    def fold_factors(self, acc: np.ndarray, primes: np.ndarray, block: np.ndarray) -> None:
        """acc <- acc * f_p(z_p) for the primes in order, in place; z_p = block[1 + i].

        ``block`` has a spare row 0 and is overwritten.  Characters turn each
        row into 1 - z (chi(p) = 1) or 1 - chi(p) z and fold them with one
        sequential ``np.divide.reduce`` along the prime axis; custom rows
        become their table polynomial (1 without a table row) and fold with
        ``np.multiply.reduce``.  Every point sees the operations of
        ``times_factor`` applied prime by prime, so the result is bit-identical.
        """
        z = block[1:]
        if self.kind == "dirichlet":
            chi = self.leading(primes)
            other = chi != 1
            if other.any():
                z[other] = chi[other, None] * z[other]
            np.subtract(1.0, z, out=z)
            fold = np.divide
        else:
            for i, p in enumerate(primes.tolist()):
                z[i] = _row_value(self.table.get(p, {}), z[i])
            fold = np.multiply
        block[0] = acc
        fold.reduce(block, axis=0, out=acc)

    def log_terms(self, primes: np.ndarray, base: np.ndarray, order: int) -> np.ndarray:
        """G[..., m-1] = c_m(p) B^m for m = 1..order, where log f_p(z) = sum_m c_m z^m.

        ``base`` has shape (primes, ...), prime p_i's bases at index i.
        Characters fold chi into the base: G = (chi(p) B)^m / m.  Custom rows
        use the recurrence m c_m = m a_m - sum_{j<m} j c_j a_{m-j}; primes
        without a table row get zero terms.
        """
        primes = np.asarray(primes, dtype=np.int64)
        ms = np.arange(1, order + 1, dtype=float)
        if self.kind == "dirichlet":
            lead = self.leading(primes).reshape((-1,) + (1,) * (base.ndim - 1))
            terms = (lead * base)[..., None] ** ms
            terms *= 1.0 / ms      # in place: one (primes x ... x order) array fewer
            return terms
        out = np.zeros(base.shape + (order,), dtype=complex)
        for p, row, hit in self._table_hits(primes):
            c = _custom_log_coefficients(tuple(sorted(row.items())), order)
            out[hit] = c * base[hit][..., None] ** ms
        return out

    def log_series_tail(self, primes: np.ndarray, q: np.ndarray,
                        order: int) -> tuple[np.ndarray, np.ndarray]:
        """Per prime: a coefficient size K, and majorants of the log terms on |z| <= q.

        ``q`` is the largest |z| per prime.  Characters have |c_m| <= K/m with
        K = 1; custom factors take K = max |log f_p| on |z| = rho just inside
        the zero-free disc, so |c_m| <= K rho^-m (Cauchy), and K = 0 without a
        table row.  The majorant array has ``order + 1`` columns: a bound on
        |c_m| q^m for each m = 1..order, then a bound on the terms past order
        (``_log_series_past``).
        """
        ks, past = self._log_series_past(primes, q, order)
        ms = np.arange(1, order + 1, dtype=float)
        if self.kind == "dirichlet":
            terms = q[:, None] ** ms[None, :] / ms[None, :]
        else:
            terms = ks[:, None] * (q / _ZERO_FREE_RADIUS)[:, None] ** ms[None, :]
        return ks, np.column_stack([terms, past])

    def _log_series_past(self, primes: np.ndarray, q: np.ndarray, order):
        """``log_series_tail``'s K and its bound past ``order``, which broadcasts against q."""
        if self.kind == "dirichlet":
            return np.ones_like(q), q ** (order + 1) / ((order + 1) * (1.0 - q))
        ks = np.zeros_like(q)
        for _, row, hit in self._table_hits(np.asarray(primes, dtype=np.int64)):
            ks[hit] = _custom_log_bound(tuple(sorted(row.items())))
        ratio = q / _ZERO_FREE_RADIUS
        return ks, ks * ratio ** (order + 1) / np.maximum(1e-16, 1.0 - ratio)


def _row_value(row: Mapping[int, complex], z):
    """1 + sum_m a_m z^m of one custom table row, summed by powers of z."""
    fz = zp = 1.0 + 0j
    for m in range(1, max(row, default=0) + 1):
        zp = zp * z
        a = row.get(m)
        if a:
            fz = fz + a * zp
    return fz


@functools.cache
def _custom_log_bound(row: tuple[tuple[int, complex], ...]) -> float:
    """K = max |log f| over 64 points of |z| = ``_ZERO_FREE_RADIUS``, for one custom table row.

    Cached per row, as ``_custom_log_coefficients`` is: the pool build, the
    series route and the refine screen ask for the same rows again.
    """
    coeffs = dict(row)
    ang = np.exp(1j * TWO_PI * np.arange(64) / 64)
    return max(abs(np.log(_row_value(coeffs, _ZERO_FREE_RADIUS * a))) for a in ang)


@functools.cache
def _custom_log_coefficients(row: tuple[tuple[int, complex], ...], order: int) -> np.ndarray:
    """c_1..c_order of log(1 + sum_m a_m z^m) for one custom table row (read-only).

    By the recurrence m c_m = m a_m - sum_{j<m} j c_j a_{m-j}.  Cached per
    (row, order) without a size bound: the pool build, the golden search and
    the refine screen ask for the same rows on every ``log_terms`` call, and
    a cache smaller than a table's distinct rows would miss on each.
    """
    coeffs = dict(row)
    a = np.array([0j] + [complex(coeffs.get(m, 0.0)) for m in range(1, order + 1)])
    c = np.zeros(order + 1, dtype=complex)
    for m in range(1, order + 1):
        acc = m * a[m]
        for j in range(1, m):
            acc -= j * c[j] * a[m - j]
        c[m] = acc / m
    c.flags.writeable = False
    return c[1:]


def zeta_spec() -> EulerFactorSpec:
    """The Riemann zeta factors 1/(1 - z): the character mod 1."""
    return dirichlet_spec(1, [1])


def dirichlet_spec(modulus: int, character: Sequence[complex]) -> EulerFactorSpec:
    if len(character) != modulus:
        raise FactorDomainError("character table must list chi(0..q-1)")
    return EulerFactorSpec(kind="dirichlet", modulus=modulus,
                           character=tuple(complex(x) for x in character))


def custom_spec(table: Mapping[int, Mapping[int, complex]],
                c_map: Mapping[float, float]) -> EulerFactorSpec:
    return EulerFactorSpec(kind="custom", table={p: dict(r) for p, r in table.items()},
                           c_map=dict(c_map))


# -- custom spec file: rows "p m re im", headers "c_eps <eps> <c>" ----------


def save_custom_spec(path: str, spec: EulerFactorSpec) -> None:
    if spec.kind != "custom":
        raise FactorDomainError("only custom specs are serialized")
    with open(path, "w") as fh:
        for eps in sorted(spec.c_map):
            fh.write(f"c_eps {eps!r} {spec.c_map[eps]!r}\n")
        for p in sorted(spec.table):
            for m in sorted(spec.table[p]):
                a = complex(spec.table[p][m])
                fh.write(f"{p} {m} {a.real!r} {a.imag!r}\n")


def load_custom_spec(path: str) -> EulerFactorSpec:
    table: dict[int, dict[int, complex]] = {}
    c_map: dict[float, float] = {}
    with open(path) as fh:
        for ln, line in enumerate(fh, 1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "c_eps":
                if len(parts) != 3:
                    raise ValueError(f"{path}:{ln}: malformed c_eps header")
                c_map[float(parts[1])] = float(parts[2])
            else:
                if len(parts) != 4:
                    raise ValueError(f"{path}:{ln}: expected 'p m re im'")
                p, m = int(parts[0]), int(parts[1])
                table.setdefault(p, {})[m] = complex(float(parts[2]), float(parts[3]))
    if not c_map:
        raise ValueError(f"{path}: custom spec must declare at least one c_eps line")
    return custom_spec(table, c_map)


# ---------------------------------------------------------------------------
# phase assignments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhaseAssignment:
    """Finite map prime -> twist theta_p in [0,1) turns, plus the t0 shift.

    The product twist of prime p is theta_p + gamma_p where
    gamma_p = t0 log p / 2pi for shifted primes and 0 otherwise.  By default
    every mapped prime is shifted; a restricted shift set supports schedules
    that only shift their mandatory primes.

    ``theta`` and ``shifted`` are read once, at construction: the validation
    and the sorted arrays in which ``twists`` looks primes up are taken from
    them then, so a later change to the mapping is not seen.
    """

    theta: Mapping[int, float]
    t0: float = 0.0
    shifted: frozenset[int] | None = None
    #: the mapped primes in increasing order, their theta, and the shifted primes
    _primes: np.ndarray = field(init=False, repr=False, compare=False)
    _thetas: np.ndarray = field(init=False, repr=False, compare=False)
    _shifted: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for p, th in self.theta.items():
            if not (0.0 <= th < 1.0):
                raise ValueError(f"theta_{p}={th} outside [0,1)")
        primes = np.fromiter(self.theta, np.int64, len(self.theta))
        thetas = np.fromiter(self.theta.values(), float, len(self.theta))
        order = np.argsort(primes)
        object.__setattr__(self, "_primes", primes[order])
        object.__setattr__(self, "_thetas", thetas[order])
        object.__setattr__(self, "_shifted", None if self.shifted is None else
                           np.sort(np.fromiter(self.shifted, np.int64, len(self.shifted))))

    def gamma(self, p: int) -> float:
        if self.t0 == 0.0:
            return 0.0
        if self.shifted is not None and p not in self.shifted:
            return 0.0
        return self.t0 * math.log(p) / TWO_PI

    def twist(self, p: int) -> float:
        return self.theta.get(p, 0.0) + self.gamma(p)

    def twists(self, primes: Sequence[int] | np.ndarray, logs: np.ndarray) -> np.ndarray:
        """``twist`` for each prime, bit for bit; ``logs`` holds math.log(p) per prime.

        Primes are looked up by ``np.searchsorted`` in the arrays built at
        construction; primes equal to the mapped ones, in order, need no lookup.
        """
        primes = np.asarray(primes, dtype=np.int64)
        if np.array_equal(primes, self._primes):
            out = self._thetas.copy()
        else:
            idx, found = _sorted_find(self._primes, primes)
            out = np.zeros(primes.shape)
            out[found] = self._thetas[idx[found]]
        gamma = 0.0
        if self.t0 != 0.0:
            gamma = self.t0 * logs / TWO_PI
            if self._shifted is not None:
                gamma[~_sorted_find(self._shifted, primes)[1]] = 0.0
        out += gamma      # as in ``twist``: a theta of -0.0 plus a gamma of 0.0 is 0.0
        return out


def _sorted_find(keys: np.ndarray, primes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(index, found) of each prime in the increasing ``keys``, by ``np.searchsorted``."""
    idx = np.searchsorted(keys, primes)
    found = np.zeros(primes.shape, dtype=bool)
    inside = idx < len(keys)
    found[inside] = keys[idx[inside]] == primes[inside]
    return idx, found


def trivial_phases(primes: Sequence[int] | None = None) -> PhaseAssignment:
    return PhaseAssignment({int(p): 0.0 for p in (primes or [])})


# ---------------------------------------------------------------------------
# factor evaluation
# ---------------------------------------------------------------------------


def eval_factor(spec: EulerFactorSpec, p: int, z: complex,
                m_max: int = DEFAULT_SERIES_ORDER) -> complex:
    """Truncated factor series 1 + sum_{m<=m_max} a_p^m z^m.

    Requires |z| < 1.  For characters the geometric tail bound
    |a_p^m z^m| <= |z|^m makes the truncation error at most
    |z|^{m_max+1}/(1-|z|).  Independent truncated-series route: tests
    cross-check it against the closed form 1/(1 - chi(p) z).
    """
    if abs(z) >= 1.0:
        raise FactorDomainError(f"|z|={abs(z)} >= 1 for factor at p={p}")
    if spec.kind == "dirichlet":
        # sum_{m<=M} w^m in closed form, stable for w near 0
        w = spec.chi(p) * z
        if w == 0:
            return 1.0 + 0j
        return 1.0 + w * (1.0 - w**m_max) / (1.0 - w)
    acc = 1.0 + 0j
    zp = 1.0 + 0j
    row = spec.table.get(p, {})
    for m in range(1, min(m_max, spec.table_degree(p)) + 1):
        zp *= z
        a = row.get(m)
        if a:
            acc += a * zp
    return acc


def factor_value(spec: EulerFactorSpec, p: int, z: complex) -> complex:
    """Exact factor value: closed form for characters, full polynomial for custom."""
    if abs(z) >= 1.0:
        raise FactorDomainError(f"|z|={abs(z)} >= 1 for factor at p={p}")
    return spec.times_factor(1.0, p, z)


def twist_argument(p: int, s: complex, phases: PhaseAssignment) -> complex:
    """Factor argument e^{-2 pi i (theta_p + gamma_p)} p^{-s}."""
    return cmath.exp(-1j * TWO_PI * phases.twist(p) - s * math.log(p))


def partial_product(spec: EulerFactorSpec, s: complex, primes: Sequence[int],
                    phases: PhaseAssignment | None = None) -> complex:
    """Finite twisted product over the given primes at exponent s.

    The empty product is 1.  Every factor argument must have modulus < 1,
    which for p >= 2 means Re s > 0.  Scalar oracle route for the grid and
    exact products.
    """
    phases = phases or trivial_phases()
    acc = 1.0 + 0j
    for p in primes:
        acc *= factor_value(spec, int(p), twist_argument(int(p), s, phases))
    return acc


def partial_product_grid(spec: EulerFactorSpec, s: np.ndarray, primes: Sequence[int],
                         phases: PhaseAssignment | None = None) -> np.ndarray:
    """Vectorized partial_product over an array of exponents s (any shape).

    The primes are taken once per call as one int64 array, with their twists
    (``PhaseAssignment.twists``) and logs; the logs are ``math.log``'s,
    worked out once per distinct prime array (``_prime_logs``).  Both routes
    read these arrays.

    The factor route folds blocks of about ``_PRODUCT_BLOCK_CELLS`` primes x
    points into the product (``EulerFactorSpec.fold_factors``), each point
    seeing exactly the operations of the per-prime loop ``acc =
    spec.times_factor(acc, p, exp(-2 pi i twist_p - s log p))``: the result is
    bit-identical to it, and tests keep the loop as the oracle.  The series
    route (``_series_product``, the exp of a one-column ``_log_taylor``
    polynomial) runs when its build, ``_SERIES_PRIME_CELLS`` per prime plus
    ``_SERIES_CALL_CELLS`` (per call and table row), costs fewer cells and
    every point is finite.  It gives the product times e^E, |E| <=
    ``_SERIES_TAIL`` (certified by ``_prime_bounds``), plus rounding; a value
    depends on the other points only within that, and the same array gives
    the same bits whatever ran before.
    """
    phases = phases or trivial_phases()
    s = np.asarray(s, dtype=complex)
    ps = np.asarray(primes, dtype=np.int64)
    if np.any(s.real <= 0.0) and len(ps):
        raise FactorDomainError("Re s must be positive for |p^{-s}| < 1")
    if not len(ps) or s.size == 0:
        return np.ones_like(s)
    pts = s.ravel()
    logs = _prime_logs(ps)
    twists = phases.twists(ps, logs.real)
    rows = len(spec.table.keys() & set(ps.tolist())) if spec.table else 0
    out = None
    if (len(ps) * (pts.size - _SERIES_PRIME_CELLS) > _SERIES_CALL_CELLS * (1 + rows)
            and np.isfinite(pts).all()):   # a NaN would spread to every point
        out = _series_product(spec, pts, ps, logs, twists)
    if out is None:
        out = _factor_product(spec, pts, ps, logs, twists)
    return out.reshape(s.shape)[()]


def _recall(memo: dict, key, build):
    """``memo[key]``, made by ``build()`` where it is missing; the memo keeps its last two keys."""
    value = memo.pop(key, None)
    if value is None:
        value = build()
    memo[key] = value
    if len(memo) > 2:
        del memo[next(iter(memo))]
    return value


def _prime_logs(ps: np.ndarray) -> np.ndarray:
    """math.log(p) for each of the int64 ``ps``, as a read-only complex array.

    ``math.log``, not ``np.log``: the factor route must match the scalar loop,
    and the two differ in the last bit at some primes (the first is 285,343).
    Complex, so that the product with s needs no casting buffer.  The last
    two prime arrays' logs (a Rouche check's f and g) are kept, keyed by
    their bytes.
    """
    def build():
        logs = np.fromiter(map(math.log, ps.tolist()), complex, len(ps))
        logs.flags.writeable = False
        return logs
    return _recall(_PRIME_LOGS, ps.tobytes(), build)


def _factor_product(spec: EulerFactorSpec, pts: np.ndarray, ps: np.ndarray, logs: np.ndarray,
                    twists: np.ndarray) -> np.ndarray:
    """The factor route of ``partial_product_grid`` on the flat, non-empty ``pts``.

    ``logs`` (complex) and ``twists`` hold each prime's math.log and twist.
    """
    n = pts.size
    # A lone point is taken twice: numpy may reorder a complex product that it
    # reduces along one contiguous axis, and with two columns the fold's inner
    # loop runs across points, never along the prime axis.
    if n == 1:
        pts = np.repeat(pts, 2)
    acc = np.ones(pts.shape, dtype=complex)
    rows = max(1, _PRODUCT_BLOCK_CELLS // pts.size)
    block = np.empty((min(rows, len(ps)) + 1, pts.size), dtype=complex)
    for lo in range(0, len(ps), rows):
        hi = min(lo + rows, len(ps))
        z = block[1:hi - lo + 1]
        np.multiply(pts, logs[lo:hi, None], out=z)
        np.subtract((-1j * TWO_PI * twists[lo:hi])[:, None], z, out=z)
        np.exp(z, out=z)
        spec.fold_factors(acc, ps[lo:hi], block[:hi - lo + 1])
    return acc[:n]


def _prime_bounds(spec: EulerFactorSpec, primes: np.ndarray, chunks: Iterable[slice],
                  radius: float, sigma0: float, order: int, series_order: int,
                  logs: np.ndarray | None = None):
    """Yield (chunk, per-prime truncation bounds, row sums) for each chunk of ``primes``.

    A chunk is a slice or an index array of ``primes``; ``logs``, if given,
    holds each of ``primes``' np.log.  The bound is the log-series majorant
    past ``series_order`` plus, for each m, |c_m| q^m times the Taylor
    remainder a^{N+1} e^a / (N+1)! of the exponential beyond ``order`` (a =
    m radius log p); the row sum is sum_{m <= series_order} |c_m| q^m (q =
    p^{radius-sigma0}).  A generator, so the next chunk replaces a chunk's
    temporaries rather than faulting in freed pages again (p_max 1e6 at
    orders 24/40: 60 against 90 ms on a 2-vCPU VM).
    """
    ms = np.arange(1, series_order + 1, dtype=float)
    for sel in chunks:
        ps = primes[sel]
        lnp = np.log(ps.astype(float)) if logs is None else logs[sel]
        q = np.exp((radius - sigma0) * lnp)
        _, terms = spec.log_series_tail(ps, q, series_order)
        a = ms[None, :] * lnp[:, None] * radius
        la = (order + 1) * np.log(np.maximum(a, 1e-300)) + a - math.lgamma(order + 2)
        tails = np.where(la > -700, np.exp(np.minimum(la, 700)), 0.0)
        yield (sel, terms[:, -1] + np.sum(terms[:, :-1] * tails, axis=1),
               np.sum(terms[:, :-1], axis=1))


def _ladder_orders(spec: EulerFactorSpec, primes: np.ndarray, radius: float,
                   sigma0: float, logs: np.ndarray | None = None) -> np.ndarray:
    """Each prime's rung on the band ladder, its log-series order (0 if none fits).

    The least rung r of ``_LADDER_RUNGS`` whose bound on the log terms past r
    on |z| <= p^(radius - sigma0), the last column of the spec's
    ``log_series_tail`` at order r, is at most ``_LADDER_CUT``.  ``logs`` is
    as in ``_prime_bounds``.
    """
    rungs = np.array(_LADDER_RUNGS)
    q = np.exp((radius - sigma0) * (np.log(primes.astype(float)) if logs is None else logs))
    fits = spec._log_series_past(primes, q[:, None], rungs)[1] <= _LADDER_CUT
    return np.where(fits.any(axis=1), rungs[np.argmax(fits, axis=1)], 0)


def _taylor_degree(c: complex, rho: float) -> int | None:
    """``_log_taylor``'s degree on |s - c| <= rho, or None where Re c <= 3 rho.

    The least N taking each Taylor cell of ``_prime_bounds`` (<= (rho / (Re c
    - 2 rho))^(N+1) for characters) below ``_LADDER_CUT``, capped one past the
    top rung (``_series_product`` declines there; the refine screen's T
    covers it).  The cells shrink while rho < Re c - 2 rho.
    """
    if not c.real > 3.0 * rho:
        return None
    if not rho:
        return 0
    ratio = rho / (c.real - 2.0 * rho)
    return min(_LADDER_RUNGS[-1] + 1, math.ceil(math.log(_LADDER_CUT) / math.log(ratio)) - 1)


def _log_taylor(spec: EulerFactorSpec, primes: np.ndarray, twists: np.ndarray, c: complex,
                rho: float) -> tuple[np.ndarray, float, np.ndarray] | None:
    """Taylor coefficients about c of sum_p log f_p(e(-twist) p^-s), one column per twist set.

    ``twists`` is (primes, columns).  Returns (a, T, none): a is (N + 1,
    columns), a_n = sum_m (-m)^n / n! sum_p c_m B^m (log p)^n with B =
    e(-twist) p^-c, each log series cut at its prime's rung on the band
    ladder (``_ladder_orders`` on |s - c| <= rho, once per call, sharing the
    call's log p with ``_prime_bounds``); T, from ``_prime_bounds``, bounds
    what the rung and degree cuts drop there, for every column;
    ``none`` marks the primes without a rung, whose terms are left out.  N is
    ``_taylor_degree``'s; None where it is.  Per block of primes, each rung
    adds its terms by one real matrix product per chunk of at most
    ``_PRODUCT_BLOCK_CELLS`` (prime, m, column) cells.
    """
    degree = _taylor_degree(c, rho)
    if degree is None:
        return None
    top = _LADDER_RUNGS[-1]
    ns = np.arange(degree + 1, dtype=float)
    sums = np.zeros((degree + 1, twists.shape[1], top), dtype=complex)  # sum_p c_m B^m (log p)^n
    lnp = np.log(primes.astype(float))
    orders = _ladder_orders(spec, primes, rho, c.real, lnp)
    tail, rows = 0.0, _PRODUCT_BLOCK_CELLS // top
    for lo in range(0, len(primes), rows):
        base = np.multiply(twists[lo:lo + rows], -1j * TWO_PI)
        base -= c * lnp[lo:lo + rows, None]
        np.exp(base, out=base)
        for m in _LADDER_RUNGS:     # not np.unique, which imports numpy.ma (1 MB of RSS)
            idx = np.flatnonzero(orders[lo:lo + rows] == m)
            if not len(idx):
                continue
            power = (lnp[lo + idx, None] ** ns).T
            step = max(1, _PRODUCT_BLOCK_CELLS // (len(idx) * m))
            for j in range(0, twists.shape[1], step):
                terms = spec.log_terms(primes[lo + idx], base[idx, j:j + step], m)
                add = power @ terms.reshape(len(idx), -1).view(np.float64)   # (re, im) pairs
                sums[:, j:j + step, :m] += add.view(complex).reshape(degree + 1, -1, m)
            tail += float(np.sum(next(_prime_bounds(spec, primes, [lo + idx], rho, c.real,
                                                    degree, m, lnp))[1]))
    ms = np.arange(1, top + 1, dtype=float)
    fact = np.cumprod(np.concatenate(([1.0], ns[1:])))
    sums *= ((-ms[None, :]) ** ns[:, None] / fact[:, None])[:, None, :]
    return np.sum(sums, axis=2), tail, orders == 0


def _series_product(spec: EulerFactorSpec, pts: np.ndarray, ps: np.ndarray, logs: np.ndarray,
                    twists: np.ndarray) -> np.ndarray | None:
    """The series route of ``partial_product_grid`` on flat, finite ``pts``, or None.

    exp of the one-column ``_log_taylor`` polynomial on |s - c| <= rho, times
    the exact factors of the primes without a rung.  The box centre c and
    rho = max |s - c| snap (rho up) to multiples of 2^(floor(log2 rho) - 20),
    so a circle's samples and the odd half of twice as many share one.
    None where ``_taylor_degree`` is or passes the top rung (before
    any build), no prime has a rung or the tail passes ``_SERIES_TAIL``.
    The last two builds, a Rouche check's f and g, are kept by spec (held,
    so its id stays unique), primes, twists and disc.  ``logs`` and
    ``twists`` are ``partial_product_grid``'s per-prime arrays.
    """
    c = complex(0.5 * (pts.real.min() + pts.real.max()), 0.5 * (pts.imag.min() + pts.imag.max()))
    rho = float(np.max(np.abs(pts - c)))
    if rho:
        step = math.ldexp(1.0, math.frexp(rho)[1] - 21)
        c = complex(round(c.real / step) * step, round(c.imag / step) * step)
        rho = step * math.ceil(rho / step + 1.0)
    degree = _taylor_degree(c, rho)
    if degree is None or degree > _LADDER_RUNGS[-1]:
        return None
    key = (id(spec), ps.tobytes(), twists.tobytes(), np.array([c.real, c.imag, rho]).tobytes())
    coef, tail, none = _recall(_SERIES_BUILDS, key, lambda: (
        spec, _log_taylor(spec, ps, twists[:, None], c, rho)))[1]
    if none.all() or tail > _SERIES_TAIL:
        return None
    d = pts - c
    acc = np.full(pts.shape, coef[-1, 0])
    for a in coef[-2::-1, 0]:
        acc *= d
        acc += a
    out = np.exp(acc)
    if none.any():
        out *= _factor_product(spec, pts, ps[none], logs[none], twists[none])
    return out


def partial_product_exact(spec: EulerFactorSpec, s: int, primes: Sequence[int],
                          quarter_phases: Mapping[int, Fraction] | None = None) -> QI:
    """Exact partial product in Q(i) at an integer exponent s >= 1.

    Phases are restricted to quarter turns so every factor argument
    e^{-2 pi i q} p^{-s} lies in Q(i); characters valued in {0, +-1, +-i}
    (zeta, chi mod 4) support this mode, and other specs raise
    FactorDomainError.  Oracle route: tests check the scalar
    ``partial_product`` and the live ``partial_product_grid`` against it.
    """
    if s < 1:
        raise FactorDomainError("exact mode needs integer s >= 1")
    quarter_phases = quarter_phases or {}
    acc = QI_ONE
    for p in primes:
        p = int(p)
        q = Fraction(quarter_phases.get(p, 0)) % 1
        if q not in QUARTER_UNITS:
            raise FactorDomainError(f"phase {q} is not a quarter turn")
        z = QUARTER_UNITS[q] * QI(Fraction(1, p**s), Fraction(0))
        acc = acc * (QI_ONE / (QI_ONE - spec.coeff_exact(p, 1) * z))
    return acc


# ---------------------------------------------------------------------------
# the logarithm of one twisted factor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LogFactor:
    """log f_p at a twisted argument, split as total = leading + tail.

    ``leading`` is the first-order term a_p^1 * z of the log series; ``tail``
    collects everything quadratic and beyond.
    """

    total: complex
    leading: complex
    tail: complex


def branch_threshold(spec: EulerFactorSpec, eps: float, r: float, sigma0: float) -> float:
    """Smallest prime size above which |f_p - 1| < 1 holds on |s| <= r.

    |f_p - 1| <= c q/(1-q) with q = c(eps) p^{eps+r-sigma0}; the principal
    logarithm is safe once that is below 1, i.e. q < 1/(1+c).
    """
    c = spec.c_of(eps)
    expo = sigma0 - r - eps
    if expo <= 0:
        return math.inf
    return (1.0 + c) ** (1.0 / expo)


def _tracked_log(spec: EulerFactorSpec, p: int, z: complex) -> complex:
    """log f_p(z) by continuous branch tracking along the ray 0 -> z.

    Accumulates argument increments of the factor value along the segment,
    in 128 steps or, on a retry, 1024; fails if the value passes too close
    to 0 for the increments to be safe.
    """
    for n in (128, 1024):
        vals = np.array([factor_value(spec, p, t * z) for t in np.linspace(0.0, 1.0, n + 1)])
        if np.min(np.abs(vals)) < 1e-12:
            raise BranchTrackingError(f"factor value at p={p} passes through 0")
        incr = np.angle(vals[1:] / vals[:-1])
        if np.max(np.abs(incr)) <= 0.5 * math.pi:
            return math.log(abs(vals[-1])) + 1j * float(np.sum(incr))
    raise BranchTrackingError(f"branch tracking unstable at p={p}")


def log_factor(spec: EulerFactorSpec, p: int, s: complex, theta: float,
               gamma: float = 0.0, sigma0: float = 0.75,
               eps: float = 0.05, r: float | None = None) -> LogFactor:
    """Split logarithm of the twisted factor at local coordinate s.

    The factor argument is z = e^{-2 pi i (theta+gamma)} p^{-s-sigma0}; the
    leading part is a_p^1 z and the tail is log f_p(z) - a_p^1 z.  The
    principal branch is used where |f_p - 1| < 1 is guaranteed; smaller
    primes fall back to continuous tracking along the ray to z.  Oracle
    route: tests check the disc rows built from ``log_terms`` against it.
    """
    z = cmath.exp(-1j * TWO_PI * (theta + gamma) - (s + sigma0) * math.log(p))
    if abs(z) >= 1.0:
        raise FactorDomainError(f"twisted argument has modulus {abs(z)} >= 1 at p={p}")
    r_eff = abs(s) if r is None else r
    if p >= branch_threshold(spec, eps, r_eff, sigma0):
        u = cmath.log(factor_value(spec, p, z))
    else:
        # character values lie in Re > 1/2, where the principal branch is
        # already continuous; custom factors get tracked.
        if spec.kind == "dirichlet":
            u = cmath.log(factor_value(spec, p, z))
        else:
            u = _tracked_log(spec, p, z)
    leading = spec.a1(p) * z
    return LogFactor(total=u, leading=leading, tail=u - leading)


def log_tail_bound(spec: EulerFactorSpec, p: int, eps: float, r: float,
                   sigma0: float) -> float:
    """Certified bound 4 c(eps) p^{-2 eps - 1} for the log-factor tail.

    Valid once the prime is large enough, 2 c(eps) p^{eps+r-sigma0} <= 1/2,
    and eps is small enough that 4 eps + 2r - 2 sigma0 <= -1; both gates are
    enforced.  Under them the quadratic-and-beyond part of the log series is
    geometrically dominated and the stated power bound holds uniformly on
    |s| <= r.
    """
    c = spec.c_of(eps)
    if 4.0 * eps + 2.0 * r - 2.0 * sigma0 > -1.0 + 1e-12:
        raise FactorDomainError(
            f"eps={eps} too large for the tail bound: need 4 eps + 2r - 2 sigma0 <= -1")
    if 2.0 * c * p ** (eps + r - sigma0) > 0.5 + 1e-12:
        raise FactorDomainError(
            f"prime {p} too small for bound; use direct evaluation "
            f"(need 2 c(eps) p^(eps+r-sigma0) <= 1/2)")
    return 4.0 * c * p ** (-2.0 * eps - 1.0)


# ---------------------------------------------------------------------------
# four-block partition of short-interval primes
# ---------------------------------------------------------------------------


def hypothesis_window(h: float, width_factor: float | None = None) -> tuple[float, float]:
    """The short interval (h, h (1 + log^-10 h)] (natural log).

    ``width_factor`` overrides the relative width; the default window is
    narrower than one integer until h is astronomically large, so synthetic
    widths are the only way to exercise the machinery at desk scale.
    """
    if h <= math.e:
        raise ValueError("h must exceed e so that log h > 1")
    wf = math.log(h) ** (-10.0) if width_factor is None else width_factor
    return h, h * (1.0 + wf)


def interval_weights(spec: EulerFactorSpec, h: float, lam: float,
                     width_factor: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Primes in the window and their weights |a_p^1| p^{-(1-lam)}."""
    lo, hi = hypothesis_window(h, width_factor)
    ps = primes_in_interval(lo, hi)
    return ps, np.abs(spec.leading(ps)) * ps.astype(float) ** (lam - 1.0)


@dataclass(frozen=True)
class PrimeBlockPartition:
    """Four blocks of short-interval primes with balanced weighted sums."""

    h: float
    lam: float
    c0: float
    lo: float
    hi: float
    blocks: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    block_sums: tuple[float, float, float, float]
    threshold: float          # c0 h^{lam/4}
    degenerate: bool          # fewer than 4 primes in the window

    def rho(self, p: int) -> int:
        """Quarter-phase index i-1 of the block containing p."""
        for i, blk in enumerate(self.blocks):
            if p in blk:
                return i
        raise KeyError(f"{p} not in any block")


def partition_blocks(spec: EulerFactorSpec, h: float, lam: float, c0: float,
                     width_factor: float | None = None) -> PrimeBlockPartition:
    """Greedy transfer partition of window primes into four blocks.

    Round-robin over ascending primes seeds the blocks; addends then move
    from the heaviest block to deficient ones while the donor keeps at least
    0.2 of the full threshold, until every block reaches the 0.1 floor.
    Raises HypothesisError when the full-interval sum is below c0 h^{lam/4};
    fewer than four window primes yields a flagged degenerate partition.
    """
    lo, hi = hypothesis_window(h, width_factor)
    ps, w = interval_weights(spec, h, lam, width_factor)
    total = float(np.sum(w))
    threshold = c0 * h ** (lam / 4.0)
    if total < threshold - 1e-15:
        raise HypothesisError(f"hypothesis fails at h={h}: sum {total} < {threshold}")

    items = [(int(p), float(wi)) for p, wi in zip(ps, w)]
    blocks: list[list[tuple[int, float]]] = [[], [], [], []]
    for i, it in enumerate(items):
        blocks[i % 4].append(it)

    degenerate = len(items) < 4
    floor = 0.1 * threshold
    guard = 0.2 * threshold

    def bsum(b):
        return sum(wi for _, wi in b)

    if not degenerate and floor > 0:
        for _ in range(4 * len(items) + 8):
            sums = [bsum(b) for b in blocks]
            need = [i for i in range(4) if sums[i] < floor]
            if not need:
                break
            tgt = min(need, key=lambda i: sums[i])
            donors = sorted(range(4), key=lambda i: -sums[i])
            moved = False
            for d in donors:
                if d == tgt:
                    continue
                # move lightest addends out of the donor, as the transfer
                # procedure returns small addends first
                blocks[d].sort(key=lambda t: (t[1], t[0]))
                while blocks[d] and bsum(blocks[tgt]) < floor:
                    item = blocks[d][0]
                    if bsum(blocks[d]) - item[1] < guard:
                        break
                    blocks[d].pop(0)
                    blocks[tgt].append(item)
                    moved = True
                if bsum(blocks[tgt]) >= floor:
                    break
            if not moved:
                raise HypothesisError(
                    f"cannot partition at h={h}: an addend is too large relative to the floor")
        sums = [bsum(b) for b in blocks]
        if any(s < floor - 1e-15 for s in sums):
            raise HypothesisError(f"cannot partition at h={h}: floors unreachable")

    tidy = tuple(tuple(sorted(p for p, _ in b)) for b in blocks)
    sums = tuple(float(bsum(b)) for b in blocks)
    return PrimeBlockPartition(h=h, lam=lam, c0=c0, lo=lo, hi=hi, blocks=tidy,
                               block_sums=sums, threshold=threshold, degenerate=degenerate)
