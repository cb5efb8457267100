"""Square-integrable analytic elements on a disc: norms, pairings, transforms.

An element is a truncated power series sum_n alpha_n s^n on |s| < R together
with a certified bound on the norm of whatever was discarded.  For the
monomials, area integration over the disc gives the exact identity

    integral |s^n|^2 = pi R^{2n+2} / (n+1),   (s^n, s^m) = 0 for n != m,

so the squared norm is pi sum_n |alpha_n|^2 R^{2n+2}/(n+1) and all inner
products reduce to coefficient sums.  A tensor quadrature over the disc is
kept alongside as an independent oracle for these identities.

The package's ``TWO_PI`` and winding count (``_winding``) live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class H2Element:
    """Truncated power series on the disc |s| < radius.

    ``tail_bound`` certifies the norm of the discarded tail; it is 0 for
    polynomial elements and propagates additively through add/sub/scale.
    """

    radius: float
    coef: np.ndarray
    tail_bound: float = 0.0

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        object.__setattr__(self, "coef", np.asarray(self.coef, dtype=complex))
        if self.tail_bound < 0:
            raise ValueError("tail_bound must be nonnegative")

    @property
    def order(self) -> int:
        return len(self.coef) - 1

    def __call__(self, s: complex | np.ndarray) -> complex | np.ndarray:
        s = np.asarray(s, dtype=complex)
        out = np.polyval(self.coef[::-1], s)
        return out if out.shape else complex(out)

    def weights(self) -> np.ndarray:
        n = np.arange(len(self.coef))
        return math.pi * self.radius ** (2 * n + 2) / (n + 1)

    def coeff_norm(self) -> float:
        """Norm of the stored polynomial part alone."""
        return math.sqrt(float(np.sum(np.abs(self.coef) ** 2 * self.weights())))

    def pad(self, n: int) -> "H2Element":
        if n <= self.order:
            return self
        coef = np.zeros(n + 1, dtype=complex)
        coef[: len(self.coef)] = self.coef
        return H2Element(self.radius, coef, self.tail_bound)

    def __add__(self, other: "H2Element") -> "H2Element":
        _check_radius(self, other)
        n = max(self.order, other.order)
        a, b = self.pad(n), other.pad(n)
        return H2Element(self.radius, a.coef + b.coef, self.tail_bound + other.tail_bound)

    def __sub__(self, other: "H2Element") -> "H2Element":
        _check_radius(self, other)
        n = max(self.order, other.order)
        a, b = self.pad(n), other.pad(n)
        return H2Element(self.radius, a.coef - b.coef, self.tail_bound + other.tail_bound)

    def __mul__(self, scalar: complex) -> "H2Element":
        return H2Element(self.radius, self.coef * scalar, abs(scalar) * self.tail_bound)

    __rmul__ = __mul__


def _check_radius(a: H2Element, b: H2Element) -> None:
    if abs(a.radius - b.radius) > 1e-15 * max(a.radius, b.radius):
        raise ValueError(f"mismatched radii {a.radius} != {b.radius}")


def h2_norm(e: H2Element) -> float:
    """Upper estimate of the norm: coefficient part plus the certified tail."""
    return e.coeff_norm() + e.tail_bound


def inner_product(f: H2Element, g: H2Element) -> float:
    """Real inner product Re integral f conj(g) in coefficient form."""
    _check_radius(f, g)
    n = max(f.order, g.order)
    a, b = f.pad(n), g.pad(n)
    return float(np.sum(a.coef * np.conj(b.coef) * a.weights()).real)


# ---------------------------------------------------------------------------
# quadrature oracle (independent of the coefficient identities)
# ---------------------------------------------------------------------------


def disc_quadrature(fn: Callable[[np.ndarray], np.ndarray], radius: float,
                    tol: float = 1e-10, max_doublings: int = 8,
                    n_radial: int = 16, n_angular: int = 64) -> complex:
    """integral of fn over the disc |s| <= radius by a polar tensor rule.

    Gauss-Legendre in the radius times the trapezoid rule in the angle; node
    counts are doubled until two successive estimates agree to tol.  Oracle
    route: tests integrate the explicit log factors with it to check the
    coefficient norm of the steering residual that ``init_residual`` builds.
    ``quadrature_norm``, ``quadrature_inner_product`` and
    ``exp_pairing_quadrature`` rest on it.
    """
    prev = None
    for _ in range(max_doublings + 1):
        x, w = np.polynomial.legendre.leggauss(n_radial)
        rho = 0.5 * radius * (x + 1.0)
        wr = 0.5 * radius * w * rho
        ang = TWO_PI * np.arange(n_angular) / n_angular
        pts = rho[:, None] * np.exp(1j * ang)[None, :]
        vals = fn(pts)
        est = complex(np.sum(wr[:, None] * vals) * (TWO_PI / n_angular))
        if prev is not None and abs(est - prev) <= tol * max(1.0, abs(est)):
            return est
        prev = est
        n_radial *= 2
        n_angular *= 2
    return est


def quadrature_norm(e: H2Element) -> float:
    """Norm of the polynomial part via 2-D quadrature.

    Oracle route: tests check the coefficient-form ``h2_norm`` against it.
    """
    val = disc_quadrature(lambda s: np.abs(e(s)) ** 2, e.radius)
    return math.sqrt(max(0.0, float(val.real)))


def quadrature_inner_product(f: H2Element, g: H2Element) -> float:
    """Re integral f conj(g) via 2-D quadrature.

    Oracle route: tests check the coefficient-form ``inner_product`` against it.
    """
    _check_radius(f, g)
    val = disc_quadrature(lambda s: f(s) * np.conj(g(s)), f.radius)
    return float(val.real)


# ---------------------------------------------------------------------------
# logarithm of a disc evaluator
# ---------------------------------------------------------------------------


class TargetZeroError(ValueError):
    """The target has (or is too close to) a zero on the closed disc."""


def _winding(vals: np.ndarray) -> tuple[float, np.ndarray]:
    """Turns around 0 of the closed curve through vals, and its argument increments.

    The count is right only while every increment stays well below pi.
    """
    closed = np.concatenate((vals, vals[:1]))
    incr = np.angle(closed[1:] / closed[:-1])
    return float(np.sum(incr)) / TWO_PI, incr


#: relative tolerance of ``log_target``'s check of exp(series) against the samples
_LOG_REL_TOL = 1e-9


def log_target(g: Callable[[np.ndarray], np.ndarray], radius: float,
               order: int = 64) -> H2Element:
    """Power-series coefficients of log g on |s| <= radius.

    Boundary values are sampled at 4*order equispaced points, the logarithm
    branch is unwrapped along the circle, and coefficients come from the FFT.
    A nonzero winding of g means a zero inside the disc; the exponentiated
    series is checked back against g at the samples and must match to
    ``_LOG_REL_TOL``, which makes the extraction self-validating.
    """
    m = 4 * max(1, order)
    ang = TWO_PI * np.arange(m) / m
    pts = radius * np.exp(1j * ang)
    vals = np.asarray(g(pts), dtype=complex)
    amin = float(np.min(np.abs(vals)))
    if amin < 1e-13:
        raise TargetZeroError(f"target vanishes on the boundary (min |g| = {amin:.3e})")
    winding, incr = _winding(vals)
    if np.max(np.abs(incr)) > 0.5 * math.pi:
        raise TargetZeroError("boundary sampling too coarse for branch unwrapping")
    if abs(winding) > 0.25:
        raise TargetZeroError(f"target winds {winding:.2f} times: zero inside the disc")
    args = np.angle(vals[0]) + np.concatenate(([0.0], np.cumsum(incr[:-1])))
    logs = np.log(np.abs(vals)) + 1j * args
    c = np.fft.fft(logs) / m
    n = np.arange(order + 1)
    coef = c[: order + 1] / radius**n
    elem = H2Element(radius, coef)
    recon = elem(pts)
    err = float(np.max(np.abs(np.exp(recon) - vals)))
    scale = float(np.max(np.abs(vals)))
    if err > _LOG_REL_TOL * max(1.0, scale):
        raise TargetZeroError(
            f"log extraction residual {err:.3e} exceeds tolerance; "
            f"raise the order or shrink the disc")
    return elem


# ---------------------------------------------------------------------------
# pairing against decaying exponentials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpPairing:
    """Pairing x -> integral e^{-x(s+sigma0)} conj(phi(s)) over the disc.

    For phi = sum alpha_n s^n the integral collapses to
    pi R^2 e^{-sigma0 x} H(x R) with H(u) = sum_m beta_m u^m/m! and
    beta_n = (-1)^n R^n conj(alpha_n)/(n+1).  H is entire since the beta are
    square-summable: sum |beta_n|^2 <= ||phi||^2 / (pi R^2).

    Notes (the strict xfail in the tests): the sharper claims |beta_n| <= 1
    and |pairing| <= pi R^2 e^{-x/2} for unit-norm phi fail.  The unit-norm
    constant phi = 1/(sqrt(pi) R) attains the square-sum bound, with
    beta_0 = 1/(sqrt(pi) R) and pairing sqrt(pi) R at x = 0, so both claims
    need pi R^2 >= 1, impossible while R < r0 <= 1/4.  ``value_bound`` holds.
    """

    source: H2Element
    sigma0: float
    beta: np.ndarray = field(init=False)

    def __post_init__(self):
        n = np.arange(len(self.source.coef))
        beta = (-1.0) ** n * self.source.radius**n * np.conj(self.source.coef) / (n + 1)
        object.__setattr__(self, "beta", beta)

    def beta_sup(self) -> float:
        return float(np.max(np.abs(self.beta))) if len(self.beta) else 0.0

    def entire_sum(self, u: float) -> complex:
        """H(u) = sum_m beta_m u^m / m!, with a factorially damped tail.

        The stored betas are a complete description of the polynomial part,
        so the only truncation is the source's own certified tail.
        """
        m = np.arange(len(self.beta))
        terms = self.beta * np.power(float(u), m) / _factorials(len(self.beta))
        return complex(np.sum(terms))

    def entire_tail_bound(self, u: float, upto: int) -> float:
        """Bound sup_m |beta_m| e^{|u|} |u|^{upto+1}/(upto+1)! on the cut tail."""
        b = max(1.0, self.beta_sup())
        a = abs(float(u))
        return b * math.exp(a) * a ** (upto + 1) / math.factorial(upto + 1)

    def value(self, x: float) -> complex:
        """Closed form pi R^2 e^{-sigma0 x} H(x R); requires x >= 0."""
        if x < 0:
            raise ValueError("x must be nonnegative")
        R = self.source.radius
        return math.pi * R * R * math.exp(-self.sigma0 * x) * self.entire_sum(x * R)

    def value_bound(self, x: float) -> float:
        """Certified decay sqrt(pi) R e^{-x (sigma0 - R)} ||phi||.

        Cauchy-Schwarz against the norm of e^{-xs} on the disc, whose squared
        norm is pi sum (xR)^{2n} R^2 / (n!^2 (n+1)) <= pi R^2 e^{2xR}.
        """
        R = self.source.radius
        return math.sqrt(math.pi) * R * math.exp(-x * (self.sigma0 - R)) * h2_norm(self.source)


def _factorials(n: int) -> np.ndarray:
    out = np.ones(n)
    for i in range(2, n):
        out[i] = out[i - 1] * i
    return out


def exp_pairing_quadrature(e: H2Element, x: float, sigma0: float = 0.75) -> complex:
    """The pairing of e against e^{-x(s+sigma0)} via 2-D quadrature.

    Oracle route: tests check the closed form ``ExpPairing.value`` against it.
    """
    return disc_quadrature(lambda s: np.exp(-x * (s + sigma0)) * np.conj(e(s)), e.radius)
