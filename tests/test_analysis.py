import math

import numpy as np
import pytest

import eulerapprox as ea
from eulerapprox.analysis import Circle, ContourZeroError, DiscGrid, RoucheResult
from eulerapprox.hardy import TWO_PI, _winding


def poly_from_roots(roots):
    coef = np.poly(roots) if len(roots) else np.array([1.0])

    def f(s):
        return np.polyval(coef, np.asarray(s, dtype=complex))

    return f


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def test_grid_points_inside_disc():
    grid = DiscGrid(center=0.75 + 0j, radius=0.2, boundary=64, rings=3)
    pts = grid.points()
    assert np.all(np.abs(pts - 0.75) <= 0.2 + 1e-12)
    bpts = grid.boundary_points()
    assert len(bpts) == 64
    ang = np.angle(bpts - 0.75)
    steps = np.diff(np.unwrap(ang))
    assert np.allclose(steps, steps[0])


# ---------------------------------------------------------------------------
# hypothesis sums
# ---------------------------------------------------------------------------


def test_hypothesis_sum_empty_window():
    # the default window is far narrower than unit length at desk-scale h
    assert ea.hypothesis_sum(ea.zeta_spec(), 1e5, 0.2) == 0.0


def test_hypothesis_sum_wide_window_oracle():
    spec = ea.zeta_spec()
    h, lam, wf = 1000.0, 0.2, 0.5
    got = ea.hypothesis_sum(spec, h, lam, width_factor=wf)
    ps = [p for p in range(1001, 1501) if all(p % q for q in range(2, int(p**0.5) + 1))]
    oracle = sum(p ** (lam - 1.0) for p in ps)
    assert abs(got - oracle) < 1e-12


def test_hypothesis_sum_monotone_in_lambda():
    spec = ea.zeta_spec()
    vals = [ea.hypothesis_sum(spec, 500.0, lam, width_factor=1.0)
            for lam in (0.1, 0.2, 0.5, 1.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_hypothesis_requires_h_above_e():
    with pytest.raises(ValueError):
        ea.hypothesis_sum(ea.zeta_spec(), 2.0, 0.2)


def test_fit_c0_wide_window_positive():
    spec = ea.zeta_spec()
    hs = [100.0, 300.0, 1000.0]
    report = ea.fit_c0(spec, 0.2, hs, width_factor=0.5)
    assert report.c0 > 0
    assert report.all_pass()
    assert report.first_failure is None
    for row in report.rows:
        assert row.passed == (row.value >= row.threshold - 1e-15 and row.value > 0)
    text = report.to_text()
    assert str(report.c0) in text and len(text.splitlines()) == 3 + len(hs)


def test_fit_c0_desk_scale_window_fails():
    report = ea.fit_c0(ea.zeta_spec(), 0.2, [1e4, 1e5])
    assert report.c0 == 0.0
    assert report.first_failure == 1e4
    assert not any(r.passed for r in report.rows)


def test_fit_c0_zero_coefficients():
    # chi mod 4 kills p = 2 only; a spec with vanishing leading terms fails everywhere
    ps = [101, 103, 107]
    spec = ea.custom_spec({p: {2: 0.5} for p in ps}, {0.05: 1.0})
    report = ea.fit_c0(spec, 0.2, [100.0], width_factor=0.1)
    assert report.c0 == 0.0 and not report.rows[0].passed


def test_fit_c0_input_validation():
    with pytest.raises(ValueError):
        ea.fit_c0(ea.zeta_spec(), 0.2, [])
    with pytest.raises(ValueError):
        ea.fit_c0(ea.zeta_spec(), 0.2, [100.0, 50.0])


# ---------------------------------------------------------------------------
# zero counting
# ---------------------------------------------------------------------------


def test_zero_count_simple_roots():
    c = Circle(0j, 1.0)
    assert ea.zero_count(poly_from_roots([0.3 + 0.2j]), c) == 1
    assert ea.zero_count(poly_from_roots([0.3, -0.5j]), c) == 2
    assert ea.zero_count(poly_from_roots([2.0, 3.0 + 1j]), c) == 0


def test_zero_count_random_polynomials_refinement_invariant():
    rng = np.random.default_rng(12)
    c = Circle(0j, 1.0)
    for _ in range(100):
        deg = int(rng.integers(1, 7))
        inside = int(rng.integers(0, deg + 1))
        roots = []
        for k in range(deg):
            rad = rng.uniform(0.1, 0.8) if k < inside else rng.uniform(1.3, 3.0)
            roots.append(rad * np.exp(2j * math.pi * rng.random()))
        f = poly_from_roots(roots)
        n1 = ea.zero_count(f, c, quadrature_n=256)
        n2 = ea.zero_count(f, c, quadrature_n=512)
        assert n1 == n2 == inside


def test_zero_count_guards_contour_zero():
    with pytest.raises(ContourZeroError):
        ea.zero_count(poly_from_roots([1.0]), Circle(0j, 1.0))


def test_min_modulus():
    c = Circle(0j, 0.5)
    assert abs(ea.min_modulus(lambda s: 3j * np.ones_like(s), c) - 3.0) < 1e-12
    assert abs(ea.min_modulus(lambda s: s, c) - 0.5) < 1e-12
    with pytest.raises(ValueError):
        ea.min_modulus(lambda s: s, c, samples=32)


def test_min_modulus_refinement_improves():
    rng = np.random.default_rng(13)
    c = Circle(0j, 1.0)
    for _ in range(10):
        f = poly_from_roots([1.1 + 0.05j * rng.random(), -2.0])
        coarse = float(np.min(np.abs(f(c.points(64)))))
        refined = ea.min_modulus(f, c, samples=64)
        dense = float(np.min(np.abs(f(c.points(8192)))))
        assert refined <= coarse + 1e-15
        # a local minimum on the lattice of 16 x 64 angles is within half a
        # step, ~3e-3 rad, of the minimizer
        assert refined <= dense + 1e-3 * max(1.0, dense)


def test_rouche_identity_and_far_perturbation():
    c = Circle(0j, 1.0)
    f = poly_from_roots([0.5])
    same = ea.rouche_check(f, f, c)
    assert same.passed and same.margin == pytest.approx(same.min_f)
    fail = ea.rouche_check(lambda s: s, lambda s: s + 10.0, c)
    assert not fail.passed and fail.margin < 0


def test_rouche_small_perturbation_counts_agree():
    c = Circle(0j, 0.5)
    f = lambda s: 1.0 + 0.1 * s
    g = lambda s: np.ones_like(np.asarray(s, dtype=complex))
    rr = ea.rouche_check(f, g, c)
    assert rr.passed and rr.zeros_f == rr.zeros_g == 0


def test_zeta_partial_product_zero_free_on_strip_disc():
    spec = ea.zeta_spec()
    ps = [int(p) for p in ea.primes_up_to(100)]

    def f(s):
        return ea.partial_product_grid(spec, np.asarray(s, dtype=complex), ps)

    assert ea.zero_count(f, Circle(0.75 + 0j, 0.2)) == 0


# ---------------------------------------------------------------------------
# the contour routines against their versions before sample sharing
# ---------------------------------------------------------------------------


def oracle_zero_count(f, contour, quadrature_n=512):
    """zero_count before sample sharing: every stage evaluates all of its points."""
    n = quadrature_n
    prev = None
    for _ in range(7):
        vals = np.asarray(f(contour.points(n)), dtype=complex)
        if float(np.min(np.abs(vals))) < 1e-12:
            raise ContourZeroError("zero on (or numerically on) the contour")
        w, incr = _winding(vals)
        step = float(np.max(np.abs(incr)))
        stable = step < 0.5 * math.pi and abs(w - round(w)) < 0.25
        if stable and prev is not None and round(w) == prev:
            return int(round(w))
        prev = int(round(w)) if stable else None
        n *= 2
    raise ContourZeroError(f"winding failed to stabilize (last estimate {w})")


def oracle_min_modulus(f, contour, samples=256):
    """min_modulus by bisection: 3 rounds, each evaluating its 9 lattice points.

    The cross-check of ``min_modulus``' local search in
    test_min_modulus_evaluates_each_refinement_point_once and
    test_contour_routines_match_oracle_on_{zeta_contour,random_polynomials}.
    """
    fine = 16 * samples
    vals = np.abs(f(contour.points(samples)))
    k = int(np.argmin(vals))
    best = float(vals[k])
    mid, half = 16 * k, 16
    for _ in range(3):
        grid = (mid + half * np.arange(-4, 5) // 4) % fine
        v = np.abs(f(contour.center + contour.radius * np.exp(1j * (TWO_PI * grid / fine))))
        j = int(np.argmin(v))
        best = min(best, float(v[j]))
        mid, half = mid + half * (j - 4) // 4, half // 2
    return best


def oracle_rouche_check(f, g, contour, samples=256):
    """rouche_check before the per-call memo: every routine evaluates f afresh."""
    pts = contour.points(max(samples, 64))
    max_diff = float(np.max(np.abs(np.asarray(f(pts)) - np.asarray(g(pts)))))
    mf = oracle_min_modulus(f, contour, samples=max(samples, 64))
    margin = mf - max_diff
    if margin <= 0:
        return RoucheResult(False, margin, mf, max_diff)
    zf, zg = oracle_zero_count(f, contour), oracle_zero_count(g, contour)
    assert zf == zg
    return RoucheResult(True, margin, mf, max_diff, zf, zg)


class Counted:
    """f that records the points of every call."""

    def __init__(self, f):
        self.f, self.calls = f, []

    def __call__(self, s):
        self.calls.append(np.array(s, dtype=complex))
        return self.f(s)

    def points(self):
        return np.concatenate(self.calls) if self.calls else np.zeros(0, dtype=complex)


def outcome(fn, *args, **kwargs):
    """fn's result with floats as float.hex, or the ContourZeroError it raised."""
    try:
        res = fn(*args, **kwargs)
    except ContourZeroError as exc:
        return "ContourZeroError", str(exc)
    if isinstance(res, RoucheResult):
        return (res.passed, res.margin.hex(), res.min_f.hex(), res.max_diff.hex(),
                res.zeros_f, res.zeros_g)
    return res.hex() if isinstance(res, float) else res


def random_polynomials():
    """The polynomials of test_zero_count_random_polynomials_refinement_invariant."""
    rng = np.random.default_rng(12)
    for _ in range(100):
        deg = int(rng.integers(1, 7))
        inside = int(rng.integers(0, deg + 1))
        roots = []
        for k in range(deg):
            rad = rng.uniform(0.1, 0.8) if k < inside else rng.uniform(1.3, 3.0)
            roots.append(rad * np.exp(2j * math.pi * rng.random()))
        yield roots


def test_zero_count_needs_eight_samples():
    # fewer samples whose steps all stay under pi/2 can only wind less than once
    c = Circle(0j, 1.0)
    f = poly_from_roots([0.3 + 0.2j, -0.4])
    assert ea.zero_count(f, c, quadrature_n=8) == 2
    for n in (1, 4, 7):
        with pytest.raises(ValueError):
            ea.zero_count(f, c, quadrature_n=n)


def test_zero_count_evaluates_each_point_once():
    c = Circle(0j, 1.0)
    # a root 0.002 inside the contour needs several doublings
    for roots, n, doublings in (([0.998, -0.2j], 16, 5), ([0.3 + 0.2j], 512, 1)):
        f = Counted(poly_from_roots(roots))
        assert ea.zero_count(f, c, quadrature_n=n) == oracle_zero_count(f.f, c, n) == len(roots)
        pts = f.points()
        assert len(f.calls) == doublings + 1
        assert len({complex(z) for z in pts}) == len(pts) == n << doublings
        assert {complex(z) for z in pts} == {complex(z) for z in c.points(n << doublings)}


@pytest.mark.parametrize("where", [0.3, -0.7, 100.45], ids=["k=0", "k=last", "k=100"])
def test_min_modulus_evaluates_each_refinement_point_once(where):
    # the root lies just outside the circle, between the coarse samples k and
    # k + 1; the first two cases wrap round angle 0
    samples, c = 256, Circle(0j, 1.0)
    root = 0.99 * np.exp(1j * TWO_PI * where / samples)
    f = Counted(lambda s: np.asarray(s) - root)
    m = ea.min_modulus(f, c, samples=samples)
    pts = f.points()
    assert len(pts) == samples + 3 and len({complex(z) for z in pts}) == len(pts)
    coarse = np.abs(c.points(samples) - root)
    assert int(np.argmin(coarse)) == round(where) % samples
    assert m <= float(np.min(coarse)) and m == oracle_min_modulus(f.f, c, samples)
    assert m == pytest.approx(0.01, rel=1e-3)


def lattice_minimum(f, contour, samples):
    """min_modulus' calls, after checking that it returns a local minimum of its lattice.

    Its point is a lattice point whose two lattice neighbours were evaluated
    and are not lower; no point is evaluated twice.
    """
    cf = Counted(f)
    m = ea.min_modulus(cf, contour, samples=samples)
    fine, seen = 16 * samples, {}
    for s in cf.calls:
        idx = np.rint(np.angle(s - contour.center) / TWO_PI * fine).astype(int) % fine
        assert not seen.keys() & set(idx.tolist())
        seen.update(zip(idx.tolist(), np.abs(cf.f(s)).tolist()))
    i = min(seen, key=seen.get)
    assert seen[i] == m
    assert seen[(i - 1) % fine] >= m and seen[(i + 1) % fine] >= m
    return cf.calls


def test_min_modulus_is_a_local_minimum_of_its_lattice():
    c = Circle(0j, 1.0)
    for roots in random_polynomials():
        lattice_minimum(poly_from_roots(roots), c, 64)
    f, _, c = zeta_contour()
    lattice_minimum(f, c, 512)
    # at p_max 1e4 the refinement takes the factor route: one 3-point call
    spec, ps = ea.zeta_spec(), ea.primes_up_to(10_000)
    calls = lattice_minimum(lambda s: ea.partial_product_grid(spec, s, ps),
                            Circle(0.75 + 0j, 0.2), 256)
    assert [len(s) for s in calls] == [256, 3]


def zeta_contour():
    spec = ea.zeta_spec()
    ps = [int(p) for p in ea.primes_up_to(10_000)]
    qs = [p for p in ps if p <= 1000]
    return (lambda s: ea.partial_product_grid(spec, s, ps),
            lambda s: ea.partial_product_grid(spec, s, qs), Circle(0.8 + 40j, 0.02))


def test_rouche_check_evaluates_each_distinct_sample_once():
    f, g, c = zeta_contour()
    cf, cg = Counted(f), Counted(g)
    rr = ea.rouche_check(cf, cg, c, samples=512)
    assert rr.passed and rr.zeros_f == rr.zeros_g == 0
    # dominance scan = coarse scan = first zero_count stage; the 3 points of
    # the one refinement call; the 512 odd points of zero_count's doubling
    assert [len(s) for s in cf.calls] == [512, 3, 512]
    assert [len(s) for s in cg.calls] == [512, 512]
    assert len(cf.points()) == 1024 + 3 and len(cg.points()) == 1024
    shared = np.concatenate(cf.calls[::2])
    assert {complex(z) for z in shared} == {complex(z) for z in c.points(1024)}


def test_contour_routines_match_oracle_on_zeta_contour():
    f, g, c = zeta_contour()
    for samples in (100, 512):
        assert outcome(ea.rouche_check, f, g, c, samples=samples) == \
            outcome(oracle_rouche_check, f, g, c, samples=samples)
    assert outcome(ea.min_modulus, f, c, 512) == outcome(oracle_min_modulus, f, c, 512)
    assert ea.zero_count(f, c) == oracle_zero_count(f, c) == 0


def test_contour_routines_match_oracle_on_random_polynomials():
    c = Circle(0j, 1.0)
    for roots in random_polynomials():
        f = poly_from_roots(roots)
        g = poly_from_roots([r * 1.001 for r in roots])
        for n in (8, 256, 512):
            assert outcome(ea.zero_count, f, c, n) == outcome(oracle_zero_count, f, c, n)
        assert outcome(ea.min_modulus, f, c, 64) == outcome(oracle_min_modulus, f, c, 64)
        for samples in (64, 512):
            assert outcome(ea.rouche_check, f, g, c, samples) == \
                outcome(oracle_rouche_check, f, g, c, samples)


# ---------------------------------------------------------------------------
# surveys
# ---------------------------------------------------------------------------


def test_survey_exact_match_and_constant_offset():
    grid = DiscGrid(0j, 0.1, boundary=64, rings=2)
    one = lambda s: np.ones_like(np.asarray(s, dtype=complex))
    res = ea.disc_error_survey(one, one, grid)
    assert res.max_error == 0.0
    off = lambda s: np.ones_like(np.asarray(s, dtype=complex)) * (1 + 0.25j)
    res = ea.disc_error_survey(one, off, grid)
    assert abs(res.max_error - 0.25) < 1e-15
    assert res.rows.shape[1] == 3


def test_survey_refinement_stable_for_smooth():
    f = lambda s: np.exp(np.asarray(s, dtype=complex))
    g = lambda s: 1.0 + np.asarray(s, dtype=complex)
    a = ea.disc_error_survey(f, g, DiscGrid(0j, 0.3, boundary=256, rings=3)).max_error
    b = ea.disc_error_survey(f, g, DiscGrid(0j, 0.3, boundary=512, rings=3)).max_error
    assert abs(a - b) < 1e-6
