"""Span recorder for the traced run, and the per-layer metrics it yields.

The recorder rebinds library functions at the modules that call them, so
nothing inside the library changes.  A wrapper only reads its arguments and
return value, never alters them, and calls straight through while the
recorder is inactive.  Spans are kept in memory and written out at the end.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from typing import Any, Callable

import numpy as np

from eulerapprox import analysis, approx, factors, primes, torus


@dataclass
class Span:
    id: int
    name: str
    op: str
    parent: int | None
    start: float
    end: float = 0.0
    error: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for a, b in sorted(children[s.id]):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out[s.id] = s.seconds - covered
    return out


def _arg(args: tuple, kwargs: dict, pos: int, name: str) -> Any:
    return args[pos] if len(args) > pos else kwargs[name]


def _greedy_before(args, kwargs):
    return {"trace_before": len(_arg(args, kwargs, 0, "state").trace)}


def _greedy_after(args, kwargs, state, attrs):
    return {"steps": len(state.trace) - attrs.pop("trace_before"),
            "stalled": state.stall is not None, "accepted": len(state.accepted)}


def _product_before(args, kwargs):
    return {"points": int(np.size(_arg(args, kwargs, 1, "s"))),
            "primes": len(_arg(args, kwargs, 2, "primes"))}


# (module, attribute, span name, probe before the call, probe after it)
PATCHES = (
    (primes, "sieve", "primes.sieve", None, None),
    (approx, "primes_up_to", "primes.primes_up_to", None, None),
    (approx, "log_target", "hardy.log_target", None, None),
    (approx, "_approximate_impl", "approx.core", None, None),
    (approx, "init_residual", "approx.init_residual", None,
     lambda a, k, st, at: {"pool": len(st.pool_primes), "order": st.problem.order}),
    (approx, "greedy_rearrange", "approx.greedy_rearrange", _greedy_before, _greedy_after),
    (approx, "disc_error_survey", "analysis.disc_error_survey", None,
     lambda a, k, out, at: {"points": len(out.rows)}),
    (approx, "partial_product_grid", "factors.partial_product_grid", _product_before, None),
    (factors, "partial_product_grid", "factors.partial_product_grid", _product_before, None),
    (analysis, "zero_count", "analysis.zero_count", None, None),
    (analysis, "min_modulus", "analysis.min_modulus", None, None),
    (analysis, "rouche_check", "analysis.rouche_check", None, None),
    (analysis, "fit_c0", "analysis.fit_c0", None, None),
    (torus, "ball_volume_mc", "torus.ball_volume_mc", None, None),
    (torus, "slab_bound_check", "torus.slab_bound_check", None, None),
    (torus, "equidistribution_test", "torus.equidistribution_test", None, None),
)

# Spans whose self time belongs to a named layer (the coverage check).
LAYER_SPANS = ("primes.sieve", "hardy.log_target", "approx.init_residual",
               "approx.greedy_rearrange", "analysis.disc_error_survey",
               "factors.partial_product_grid", "analysis.zero_count", "analysis.min_modulus",
               "analysis.rouche_check", "analysis.fit_c0", "torus.ball_volume_mc",
               "torus.slab_bound_check", "torus.equidistribution_test")


class Recorder:
    """Records nested spans of one process; ``op`` labels the current operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self.op = "setup"
        self._stack: list[Span] = []
        self._saved: list[tuple[Any, str, Any]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.active:
            yield None
            return
        sp = Span(len(self.spans), name, self.op,
                  self._stack[-1].id if self._stack else None, time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        except BaseException as exc:
            sp.error = type(exc).__name__
            raise
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable, before=None, after=None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            attrs = before(args, kwargs) if before else {}
            with self.span(name) as sp:
                sp.attrs = attrs
                out = fn(*args, **kwargs)
            if after:
                sp.attrs = after(args, kwargs, out, attrs)
            return out

        return traced

    def install(self) -> list[str]:
        """Rebind every patch target that exists; returns the names missing."""
        missing = []
        for module, attr, name, before, after in PATCHES:
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module.__name__}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn, before, after))
        return missing

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _ancestors(span: Span, by_id: dict[int, Span]):
    while span.parent is not None:
        span = by_id[span.parent]
        yield span


def layer_metrics(spans: list[Span], cycles: int, traced_s: float,
                  overhead_s: float, refine_ops: list[tuple[int, list]],
                  mc_samples: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per traced cycle (set-up spans count once).

    ``refine_ops`` holds (op span id, returned stages) of each refine
    operation that succeeded; ``mc_samples`` is the Monte-Carlo sample count
    of one cycle's torus calls.
    """
    own = self_times(spans)
    by_id = {s.id: s for s in spans}

    def weight(s):
        return 1.0 if s.op == "setup" else 1.0 / cycles

    def total(name, value=lambda s: s.seconds):
        return sum(weight(s) * value(s) for s in spans if s.name == name)

    def count(name):
        return total(name, lambda s: 1.0)

    def self_s(name):
        return total(name, lambda s: own[s.id])

    def attr(name, key):
        return total(name, lambda s: s.attrs.get(key, 0))

    pool = attr("approx.init_residual", "pool")
    row_bytes = total("approx.init_residual",
                      lambda s: s.attrs.get("pool", 0) * (s.attrs.get("order", 0) + 1) * 16 * 5)
    # accepted primes: the last greedy call under each pipeline run (its parent)
    last_greedy = {}
    for s in spans:
        if s.name == "approx.greedy_rearrange" and s.error is None:
            last_greedy[s.parent] = s
    accepted = sum(weight(s) * s.attrs["accepted"] for s in last_greedy.values())
    steps = attr("approx.greedy_rearrange", "steps")
    greedy = self_s("approx.greedy_rearrange")
    stalls = total("approx.greedy_rearrange", lambda s: float(s.attrs.get("stalled", False)))

    draws = sum(st.draws_used for _, stages in refine_ops for st in stages) / cycles
    stages_done = sum(len(stages) for _, stages in refine_ops) / cycles
    draw_time = 0.0
    for op_id, _ in refine_ops:
        op = by_id[op_id]
        cores = sum(s.seconds for s in spans if s.parent == op_id and s.name == "approx.core")
        draw_time += (op.seconds - cores) / cycles

    products = [s for s in spans if s.name == "factors.partial_product_grid"]
    factor_evals = sum(weight(s) * s.attrs["points"] * s.attrs["primes"] for s in products)
    product_s = total("factors.partial_product_grid")
    zero_points = sum(weight(s) * s.attrs["points"] for s in products
                      if any(a.name == "analysis.zero_count" for a in _ancestors(s, by_id)))
    mc_s = total("torus.ball_volume_mc") + total("torus.slab_bound_check")
    layer_s = sum(weight(s) * own[s.id] for s in spans
                  if s.name in LAYER_SPANS and s.op != "setup")

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "primes.sieve_s": (total("primes.sieve"), "s"),
        "primes.sieve_calls": (count("primes.sieve"), "count"),
        "hardy.log_target_s": (total("hardy.log_target"), "s"),
        "hardy.log_target_calls": (count("hardy.log_target"), "count"),
        "approx.pool_build_self_s": (self_s("approx.init_residual"), "s"),
        "approx.pool_primes": (pool, "count"),
        "approx.row_bytes": (row_bytes, "B"),
        "approx.pool_used_ratio": (ratio(accepted, pool), "fraction"),
        "approx.greedy_self_s": (greedy, "s"),
        "approx.greedy_steps": (steps, "count"),
        "approx.greedy_s_per_step": (ratio(greedy, steps), "s"),
        "approx.greedy_stalls": (stalls, "count"),
        "approx.refine_draws": (draws, "count"),
        "approx.refine_stages_done": (stages_done, "count"),
        "approx.refine_s_per_draw": (ratio(draw_time, draws), "s"),
        "analysis.survey_self_s": (self_s("analysis.disc_error_survey"), "s"),
        "analysis.survey_points": (attr("analysis.disc_error_survey", "points"), "count"),
        "factors.product_eval_s": (product_s, "s"),
        "factors.product_eval_calls": (count("factors.partial_product_grid"), "count"),
        "factors.factor_evals": (factor_evals, "count"),
        "factors.ns_per_factor_eval": (ratio(product_s, factor_evals) * 1e9, "ns"),
        "analysis.zero_count_s": (total("analysis.zero_count"), "s"),
        "analysis.zero_count_points": (zero_points, "count"),
        "analysis.min_modulus_s": (total("analysis.min_modulus"), "s"),
        "analysis.rouche_s": (total("analysis.rouche_check"), "s"),
        "torus.mc_samples_per_s": (ratio(mc_samples, mc_s), "1/s"),
        "torus.equidistribution_s": (total("torus.equidistribution_test"), "s"),
        "analysis.fit_c0_s": (total("analysis.fit_c0"), "s"),
        "trace.traced_s": (traced_s, "s"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.layer_share": (ratio(layer_s, traced_s), "fraction"),
    }
