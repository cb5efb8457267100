"""Tests of the benchmark itself: span arithmetic, seeded inputs, output checks.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import dataclasses
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from eulerapprox import approx, factors  # noqa: E402


def test_self_time_subtracts_union_of_children():
    ss = [
        spans.Span(0, "root", "0:0", None, 0.0, 10.0),
        spans.Span(1, "a", "0:0", 0, 1.0, 4.0),
        spans.Span(2, "b", "0:0", 0, 3.0, 6.0),      # overlaps a: the union counts once
        spans.Span(3, "leaf", "0:0", 1, 2.0, 3.0),
        spans.Span(4, "late", "0:0", 0, 9.5, 11.0),  # clipped at the parent's end
    ]
    own = spans.self_times(ss)
    assert own == pytest.approx({0: 10.0 - 5.0 - 0.5, 1: 2.0, 2: 3.0, 3: 1.0, 4: 1.5})


def test_layer_metrics_weights_setup_once_and_cycles_per_cycle():
    ss = [spans.Span(0, "primes.sieve", "setup", None, 0.0, 1.0)]
    for c in range(2):
        base = 10.0 * (c + 1)
        ss += [spans.Span(len(ss), "approx.init_residual", f"{c}:0", None, base, base + 4.0,
                          attrs={"pool": 10, "order": 64}),
               spans.Span(len(ss) + 1, "hardy.log_target", f"{c}:0", len(ss), base, base + 1.0)]
    m = spans.layer_metrics(ss, cycles=2, traced_s=4.0, overhead_s=0.0, refine_ops=[],
                            mc_samples=0)
    assert m["primes.sieve_s"][0] == pytest.approx(1.0)
    assert m["approx.pool_build_self_s"][0] == pytest.approx(3.0)
    assert m["hardy.log_target_calls"][0] == pytest.approx(1.0)
    assert m["approx.row_bytes"][0] == pytest.approx(10 * 65 * 16 * 5)
    assert m["trace.layer_share"][0] == pytest.approx(1.0)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert workloads.make_inputs(workload, 7) == workloads.make_inputs(workload, 7)


def test_seed_changes_the_drawn_parameters():
    for workload in ("approx-pool", "approx-steer", "verify-contour"):
        assert workloads.make_inputs(workload, 1) != workloads.make_inputs(workload, 2)
    for seed in range(6):
        refine = workloads.make_inputs("refine-draws", seed)
        assert sorted(op["seed"] for op in refine) == [0, 1, 2, 3]
        contour = [op for op in workloads.make_inputs("verify-contour", seed)
                   if op["op"] == "contour"]
        assert all(0.6 <= op["center"][0] <= 0.9 and 0 <= op["center"][1] <= 100
                   for op in contour)


def _small_approximation():
    problem = approx.ApproximationProblem(spec=factors.zeta_spec(),
                                          target=workloads.exp_target(0.1), p_max=2000)
    return approx.approximate(problem)


def test_approximation_check_passes_then_fails_on_tampered_phases():
    result = _small_approximation()
    fails, err, _, summary = workloads.check_approximation(result)
    assert fails == [] and err == result.max_error == summary["max_error"]
    theta = dict(result.phases.theta)
    p = max(theta)
    theta[p] = (theta[p] + 0.25) % 1.0
    tampered = dataclasses.replace(result, phases=dataclasses.replace(result.phases, theta=theta))
    fails = workloads.check_approximation(tampered)[0]
    assert any("recomputed surveyed error" in f for f in fails)


def test_traced_run_returns_identical_results():
    plain = workloads.check_approximation(_small_approximation())[2]
    rec = spans.Recorder()
    rec.install()
    try:
        rec.active = True
        traced = workloads.check_approximation(_small_approximation())[2]
        rec.active = False
    finally:
        rec.uninstall()
    assert traced == plain
    names = {s.name for s in rec.spans}
    assert {"approx.init_residual", "approx.greedy_rearrange",
            "factors.partial_product_grid"} <= names
    assert not hasattr(approx.init_residual, "__wrapped__")
