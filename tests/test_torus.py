import math

import numpy as np
import pytest

import eulerapprox as ea
from eulerapprox import torus
from eulerapprox.hardy import TWO_PI
from eulerapprox.torus import log_prime_frequencies, metric_weights


def test_metric_zero_and_unit():
    x = np.zeros(5)
    y = np.zeros(5)
    v, tail = ea.tikhonov_distance(x, y, 5)
    assert v == 0.0 and tail > 0
    y2 = np.array([1.0, 0, 0, 0, 0])
    v, _ = ea.tikhonov_distance(y2, x, 1)
    assert v == 1.0


def test_metric_tail_consistency():
    rng = np.random.default_rng(20)
    for _ in range(20):
        x, y = rng.random(80), rng.random(80)
        v40, t40 = ea.tikhonov_distance(x, y, 40)
        v80, _ = ea.tikhonov_distance(x, y, 80)
        assert v40 <= v80 <= v40 + t40


def test_metric_symmetry_and_triangle():
    rng = np.random.default_rng(21)
    for _ in range(50):
        x, y, z = rng.random(12), rng.random(12), rng.random(12)
        dxy, t = ea.tikhonov_distance(x, y, 12)
        dyx, _ = ea.tikhonov_distance(y, x, 12)
        assert dxy == dyx
        dxz, _ = ea.tikhonov_distance(x, z, 12)
        dzy, _ = ea.tikhonov_distance(z, y, 12)
        assert dxy <= dxz + dzy + 2 * t + 1e-12


def test_orbit_points():
    assert np.allclose(ea.orbit_point(0.0, 4), 0.0)
    t = 2 * math.pi / math.log(2)
    assert abs(ea.orbit_point(t, 1)[0]) < 1e-9
    got = ea.orbit_point(1.0, 5)
    for k, p in enumerate([2, 3, 5, 7, 11]):
        expect = (math.log(p) / (2 * math.pi)) % 1.0
        assert abs(got[k] - expect) < 1e-12


def test_frequencies_increasing():
    f = log_prime_frequencies(30)
    assert np.all(np.diff(f) > 0) and f[0] > 0


def test_frequencies_sieve_only_as_far_as_the_primes_need(monkeypatch):
    ps = ea.primes_up_to(10_000_000)
    bounds = []
    monkeypatch.setattr(torus, "primes_up_to", lambda n: bounds.append(n) or ea.primes_up_to(n))
    for n in (0, 1, 5, 6, 8, 1000, 664_579):
        f = log_prime_frequencies(n)
        assert np.array_equal(f, np.log(ps[:n].astype(float)) / TWO_PI)
    # the torus runs at most 8 coordinates: a sieve to 23, not to 10^7
    assert bounds == [11, 11, 11, 15, 23, 8841, 10_000_000]
    with pytest.raises(ValueError, match="exceeds the sieve range"):
        log_prime_frequencies(664_580)


# ---------------------------------------------------------------------------
# ball volumes
# ---------------------------------------------------------------------------


def test_exact_volume_one_dimensional():
    for r in (0.2, 0.7, 1.0, 1.5):
        assert ea.exact_ball_volume(1, r) == pytest.approx(min(r, 1.0))


def test_exact_volume_two_dimensional_grid_oracle():
    # midpoint-grid integration over the unit square as an independent route
    w = metric_weights(2)
    n = 2000
    u = (np.arange(n) + 0.5) / n
    xx, yy = np.meshgrid(u, u)
    for r in (0.3, 0.8, 1.2):
        frac = float(np.mean(w[0] * xx + w[1] * yy < r))
        assert abs(ea.exact_ball_volume(2, r) - frac) < 2e-3


def test_mc_volume_full_cube():
    w = metric_weights(3)
    est, half = ea.ball_volume_mc(3, float(np.sum(w)) + 0.1, 20_000, seed=1)
    assert est == 1.0


def test_mc_volume_matches_exact_small_n():
    for n in (1, 2, 3, 4):
        for r in (0.3, 0.8):
            est, half = ea.ball_volume_mc(n, r, 200_000, seed=42 + n)
            assert abs(est - ea.exact_ball_volume(n, r)) <= half


def test_mc_volume_monotone_in_radius_shared_seed():
    vals = [ea.ball_volume_mc(4, r, 100_000, seed=7)[0] for r in (0.2, 0.5, 0.9, 1.4)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_slab_bound_small_cases():
    chk = ea.slab_bound_check(1, 0.8, 0.3, 100_000, seed=3)
    assert chk.passed
    assert abs(chk.estimate - 0.3) <= chk.half_width
    chk5 = ea.slab_bound_check(5, 0.8, 0.05, 100_000, seed=4)
    assert chk5.passed
    assert "verdict pass" in chk5.to_text()
    with pytest.raises(ValueError):
        ea.slab_bound_check(3, 0.5, 0.6, 1000, seed=0)


# ---------------------------------------------------------------------------
# equidistribution
# ---------------------------------------------------------------------------


def test_single_coordinate_discrepancy_small():
    res = ea.equidistribution_test(10_000.0, 1, seed=5)
    assert res.max_coordinate < 0.02


def test_doubling_tmax_reduces_discrepancy():
    a = ea.equidistribution_test(2_000.0, 1, seed=6).max_coordinate
    b = ea.equidistribution_test(4_000.0, 1, seed=6).max_coordinate
    assert b < 3.0 * a and b < a * 1.2  # roughly halves, allow factor-3 slack


def test_rational_frequencies_stay_discrepant():
    freqs = np.array([0.25, 0.5])
    res = ea.equidistribution_test(10_000.0, 2, seed=7, freqs=freqs)
    assert res.max_pairwise > 0.05


def test_independent_pairs_equidistribute():
    res = ea.equidistribution_test(10_000.0, 5, seed=8)
    assert res.max_pairwise < 0.05


def mod_equidistribution(t_max, n, seed, freqs=None):
    """Oracle: ``equidistribution_test`` on the whole orbit, reduced by ``np.mod``."""
    f = log_prime_frequencies(n) if freqs is None else np.asarray(freqs, dtype=float)[:n]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    ts = (np.arange(torus._EQ_SAMPLES) + rng.random(torus._EQ_SAMPLES)) * (
        t_max / torus._EQ_SAMPLES)
    orbits = np.mod(ts[:, None] * f[None, :], 1.0)
    per_coord = max(torus._star_discrepancy_1d(orbits[:, k]) for k in range(n))
    pairwise = 0.0
    if n >= 2:
        pairs = set()
        while len(pairs) < min(torus._EQ_PAIRS, n * (n - 1) // 2):
            a, b = rng.integers(0, n, size=2)
            if a != b:
                pairs.add((min(a, b), max(a, b)))
        bins = [torus._bin_index(orbits[:, k]) for k in range(n)]
        pairwise = max(torus._star_discrepancy_2d(bins[a], bins[b]) for a, b in pairs)
    return per_coord, pairwise


def test_orbit_by_coordinate_matches_np_mod():
    # negative products t f_k too: there x - floor(x) rounds, as np.mod does
    signed = np.array([0.3, -0.7, 1.1, 0.0, -2.2, 0.9])
    for seed in range(3):
        for n in range(1, 7):
            for t_max, freqs in ((10_000.0, None), (10_000.0, signed), (-500.0, signed)):
                res = ea.equidistribution_test(t_max, n, seed=seed, freqs=freqs)
                want = mod_equidistribution(t_max, n, seed, freqs)
                assert (res.max_coordinate, res.max_pairwise) == want


def histogram_discrepancy_2d(x, y):
    """The pairwise discrepancy by ``np.histogram2d``, as it was computed before bin indices."""
    hist, _, _ = np.histogram2d(x, y, bins=64, range=[[0, 1], [0, 1]])
    cum = np.cumsum(np.cumsum(hist, axis=0), axis=1) / len(x)
    edges = np.arange(1, 65) / 64
    return float(np.max(np.abs(cum - np.outer(edges, edges))))


def test_pairwise_bins_match_histogram2d():
    rng = np.random.default_rng(4)
    edge = np.concatenate(([0.0, np.nextafter(1.0, 0.0), 1.0], np.arange(64) / 64,
                           np.nextafter(np.arange(1, 64) / 64, 0.0)))
    for x, y in ((rng.random(5000), rng.random(5000)), (edge, edge[::-1]),
                 (edge, rng.permutation(edge)), (edge[:1], edge[1:2])):
        bx, by = torus._bin_index(x), torus._bin_index(y)
        want = np.histogram2d(x, y, bins=64, range=[[0, 1], [0, 1]])[0]
        got = np.zeros((64, 64))
        np.add.at(got, (bx, by), 1.0)
        assert np.array_equal(got, want)
        assert torus._star_discrepancy_2d(bx, by) == histogram_discrepancy_2d(x, y)


def test_orbit_distinct_under_finite_permutations():
    # distinct times stay separated even after permuting finitely many axes
    rng = np.random.default_rng(9)
    n = 20
    t1, t2 = 0.613, 1.779
    a = ea.orbit_point(t1, n)
    b = ea.orbit_point(t2, n)
    worst = np.inf
    for _ in range(100):
        perm = rng.permutation(n)
        d, _ = ea.tikhonov_distance(a, b[perm], n)
        worst = min(worst, d)
    assert worst > 1e-3
