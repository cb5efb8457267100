"""Seeded inputs, operations and output checks of the benchmark workloads.

Inputs are plain data drawn from the benchmark seed (``make_inputs``); the
library only ever sees the problems built from them (``build_ops``).  Each
operation calls the public library entry that the matching CLI subcommand
calls, with the CLI's defaults unless the workload sets a value.  Library
calls go through module attributes (``approx.approximate``, ...) so that the
traced run can rebind them from outside the library.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from eulerapprox import analysis, approx, factors, primes, torus

WORKLOADS = ("approx-pool", "approx-steer", "refine-draws", "verify-contour")

# Typed failures the library raises for a problem it cannot solve.  Each one
# counts as a failed operation; any other exception is a bug and aborts.
LIBRARY_FAILURES = (approx.ApproximationStall, approx.InvalidProblem,
                    approx.RefineStall, analysis.ContourZeroError)

# Largest prime bound each workload reaches.  verify-contour sieves to 1e7
# because torus.log_prime_frequencies does.
SIEVE_BOUND = {
    "approx-pool": 1_000_000,
    "approx-steer": 20_000,
    "refine-draws": 5_000,
    "verify-contour": 10_000_000,
}

# CLI defaults that are not ApproximationProblem defaults.
CLI_TARGET_A = 0.1
TORUS_DEFAULTS = {"n": 4, "r": 0.8, "eps_slab": 0.05, "samples": 200_000, "seed": 0}
HYPOTHESIS_DEFAULTS = {"lam": 0.01, "h_lo": 1e4, "h_hi": 1e6, "h_count": 20}
ZERO_SCAN_SAMPLES = 512


def make_inputs(workload: str, seed: int) -> list[dict]:
    """The operation inputs of one cycle, as plain data; same seed, same inputs."""
    rng = np.random.Generator(np.random.PCG64(seed))
    if workload == "approx-pool":
        # The pool build does not depend on a, but the surveyed error does
        # (0.016 at a = -0.3 down to 0.004 at a = 0.3), so a stays near the
        # CLI default to keep the quality metric comparable across seeds.
        return [{"op": "approximate", "a": float(rng.uniform(0.09, 0.11)),
                 "y": 2.0, "p_max": 1_000_000}]
    if workload == "approx-steer":
        return [{"op": "approximate", "a": float(a), "y": 7.0, "p_max": 20_000}
                for a in rng.uniform(-0.2, 0.2, 4)]
    if workload == "refine-draws":
        # Refine cost is heavy-tailed in the problem seed (0.2 s to 9 s per
        # operation), so every run solves the same four seeds, rotated by
        # the benchmark seed.  Seed 3 fails by the pool-exhaustion defect.
        return [{"op": "refine", "seed": (seed + i) % 4, "stages": 3, "p_max": 5_000}
                for i in range(4)]
    if workload == "verify-contour":
        # Latin-hypercube centres: one per quarter of the Re range and one
        # per quarter of the Im range, so every run mixes near-axis and far
        # centres alike.
        re = 0.6 + 0.3 * (np.arange(4) + rng.random(4)) / 4
        im = 100.0 * (rng.permutation(4) + rng.random(4)) / 4
        ops = [{"op": "contour", "center": [float(x), float(t)], "radius": 0.02,
                "p_max": 100_000, "compare_n": 10_000} for x, t in zip(re, im)]
        ops.append({"op": "torus", **TORUS_DEFAULTS})
        ops.append({"op": "hypothesis", **HYPOTHESIS_DEFAULTS})
        return ops
    raise ValueError(f"unknown workload {workload!r} (use one of {', '.join(WORKLOADS)})")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One prepared operation: ``run`` calls the library, ``check`` judges it.

    ``check`` returns (failed checks, surveyed error or None, digest, result
    summary for the run record).
    """

    kind: str
    inputs: dict
    run: Callable[[], Any]
    check: Callable[[Any], tuple[list[str], float | None, str, dict]]
    eps: float | None = None


def exp_target(a: float) -> Callable[[np.ndarray], np.ndarray]:
    """The CLI's ``exp:<a>`` target."""
    return lambda s: np.exp(a * np.asarray(s, dtype=complex))


def digest_of(*parts: Any) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()[:16]


def _theta_items(phases: factors.PhaseAssignment) -> list[tuple[int, str]]:
    return [(int(p), float(t).hex()) for p, t in sorted(phases.theta.items())]


def surveyed_product_error(problem: approx.ApproximationProblem, plist: list[int],
                           phases: factors.PhaseAssignment) -> float:
    """max |target - product| over the problem's survey grid, recomputed."""
    grid = analysis.DiscGrid(0j, problem.r, problem.survey_boundary, problem.survey_rings)
    pts = grid.points()
    prod = factors.partial_product_grid(problem.spec, pts + problem.sigma0, plist, phases)
    return float(np.max(np.abs(np.asarray(problem.target(pts), dtype=complex) - prod)))


def check_approximation(result: approx.ApproximationResult) -> tuple[list[str], float, str, dict]:
    fails = []
    if 2 not in result.primes:
        fails.append("2 is not among the product primes")
    err = surveyed_product_error(result.problem, list(result.primes), result.phases)
    if err != result.max_error:
        fails.append(f"recomputed surveyed error {err!r} != reported {result.max_error!r}")
    digest = digest_of(result.primes, _theta_items(result.phases),
                       [float(v).hex() for v in result.trace], float(result.max_error).hex())
    summary = {"max_error": result.max_error, "primes": len(result.primes),
               "largest_prime": max(result.primes), "moves": len(result.trace) - 1}
    return fails, result.max_error, digest, summary


def check_refine(problem: approx.ApproximationProblem,
                 stages: list[approx.RefineStage]) -> tuple[list[str], float, str, dict]:
    fails = []
    errs = [st.error for st in stages]
    if any(b > a + 1e-12 for a, b in zip(errs, errs[1:])):
        fails.append(f"stage errors increase: {errs}")
    fails += [f"stage {st.stage} error {st.error!r} above schedule bound {st.schedule_bound!r}"
              for st in stages if st.error > st.schedule_bound]
    for prev, cur in zip(stages, stages[1:]):
        if any(cur.phases.theta.get(p) != t for p, t in prev.phases.theta.items()):
            fails.append(f"stage {cur.stage} does not inherit stage {prev.stage}'s phases")
    last = stages[-1]
    err = surveyed_product_error(problem, sorted(last.phases.theta), last.phases)
    if err != last.error:
        fails.append(f"recomputed final error {err!r} != reported {last.error!r}")
    digest = digest_of([(st.stage, st.m_k, st.draws_used, float(st.error).hex(),
                         _theta_items(st.phases)) for st in stages])
    summary = {"errors": errs, "bounds": [st.schedule_bound for st in stages],
               "draws": [st.draws_used for st in stages], "m_k": [st.m_k for st in stages]}
    return fails, last.error, digest, summary


def _approximate_op(inp: dict) -> Op:
    problem = approx.ApproximationProblem(spec=factors.zeta_spec(), target=exp_target(inp["a"]),
                                          y=inp["y"], p_max=inp["p_max"])
    return Op("approximate", inp, lambda: approx.approximate(problem), check_approximation,
              eps=problem.eps)


def _refine_op(inp: dict) -> Op:
    problem = approx.ApproximationProblem(spec=factors.zeta_spec(),
                                          target=exp_target(CLI_TARGET_A),
                                          p_max=inp["p_max"], seed=inp["seed"])
    return Op("refine", inp, lambda: approx.refine_sequence(problem, stages=inp["stages"]),
              lambda stages: check_refine(problem, stages), eps=problem.eps)


def _contour_op(inp: dict) -> Op:
    """The zero-scan subcommand: count, min modulus, and dominance over a truncation."""
    spec = factors.zeta_spec()
    plist = [int(p) for p in primes.primes_up_to(inp["p_max"])]
    qlist = [p for p in plist if p <= inp["compare_n"]]
    pa = factors.PhaseAssignment({p: 0.0 for p in plist})
    circle = analysis.Circle(complex(*inp["center"]), inp["radius"])

    def f(s):
        return factors.partial_product_grid(spec, np.asarray(s, dtype=complex), plist, pa)

    def g(s):
        return factors.partial_product_grid(spec, np.asarray(s, dtype=complex), qlist, pa)

    def run():
        count = analysis.zero_count(f, circle, quadrature_n=ZERO_SCAN_SAMPLES)
        m = analysis.min_modulus(f, circle, samples=ZERO_SCAN_SAMPLES)
        return count, m, analysis.rouche_check(f, g, circle, samples=ZERO_SCAN_SAMPLES)

    def check(out):
        count, m, rr = out
        fails = []
        if count != 0:
            fails.append(f"zero_count {count} != 0 for a finite Euler product")
        if not m > 0:
            fails.append(f"min modulus {m!r} is not positive")
        if rr.passed and not (rr.zeros_f == rr.zeros_g == 0):
            fails.append(f"Rouche counts {rr.zeros_f} and {rr.zeros_g} disagree or are nonzero")
        digest = digest_of(count, float(m).hex(), rr.passed, float(rr.margin).hex(),
                           float(rr.max_diff).hex(), rr.zeros_f, rr.zeros_g)
        summary = {"zero_count": count, "min_modulus": m, "rouche_passed": rr.passed,
                   "rouche_margin": rr.margin}
        return fails, None, digest, summary

    return Op("contour", inp, run, check)


def _torus_op(inp: dict) -> Op:
    """The torus subcommand: ball volume, slab bound, orbit equidistribution."""

    def run():
        est, half = torus.ball_volume_mc(inp["n"], inp["r"], inp["samples"], seed=inp["seed"])
        slab = torus.slab_bound_check(inp["n"], inp["r"], inp["eps_slab"], inp["samples"],
                                      seed=inp["seed"])
        eq = torus.equidistribution_test(t_max=10_000.0, n=min(inp["n"], 8), seed=inp["seed"])
        return est, half, slab, eq

    def check(out):
        est, half, slab, eq = out
        exact = torus.exact_ball_volume(inp["n"], inp["r"])
        err = abs(est - exact)
        fails = [] if err <= half else [f"volume {est!r} is {err!r} from exact {exact!r}, "
                                        f"beyond half width {half!r}"]
        if not (math.isfinite(eq.max_coordinate) and math.isfinite(eq.max_pairwise)):
            fails.append("equidistribution discrepancy is not finite")
        digest = digest_of(float(est).hex(), float(half).hex(), float(slab.estimate).hex(),
                           slab.passed, float(eq.max_coordinate).hex(),
                           float(eq.max_pairwise).hex())
        summary = {"volume": est, "exact_volume": exact, "half_width": half,
                   "slab_passed": slab.passed, "discrepancy": eq.max_coordinate}
        return fails, err, digest, summary

    return Op("torus", inp, run, check)


def _hypothesis_op(inp: dict) -> Op:
    """The check-hypothesis subcommand.  c0 = 0 at desk scale is a verdict, not a failure."""
    spec = factors.zeta_spec()
    hs = list(np.exp(np.linspace(math.log(inp["h_lo"]), math.log(inp["h_hi"]), inp["h_count"])))

    def check(report):
        fails = [] if len(report.rows) == len(hs) else ["report row count differs from h grid"]
        digest = digest_of(float(report.c0).hex(), [float(r.value).hex() for r in report.rows])
        return fails, None, digest, {"c0": report.c0, "first_failure": report.first_failure}

    return Op("hypothesis", inp, lambda: analysis.fit_c0(spec, inp["lam"], hs), check)


_BUILDERS = {"approximate": _approximate_op, "refine": _refine_op, "contour": _contour_op,
             "torus": _torus_op, "hypothesis": _hypothesis_op}


def build_ops(workload: str, seed: int) -> list[Op]:
    """Set-up: warm the process-wide prime sieve, then build every problem."""
    primes.primes_up_to(SIEVE_BOUND[workload])
    return [_BUILDERS[inp["op"]](inp) for inp in make_inputs(workload, seed)]


def failure_error(op: Op, exc: Exception) -> float | None:
    """Surveyed error scored for a failed operation: max(eps, its own error if known)."""
    if op.eps is None:
        return None
    own = getattr(getattr(exc, "result", None), "max_error", None)
    return op.eps if own is None else max(op.eps, own)
