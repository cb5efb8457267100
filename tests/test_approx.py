import cmath
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import eulerapprox as ea
from eulerapprox import approx, cli, factors
from eulerapprox.approx import (
    _BLOCK,
    _DROP,
    _FIRST_BLOCK,
    _MOVE_ROWS,
    _apply,
    _approximate_impl,
    _blocks,
    _character_tail_majorant,
    _commit,
    _embedding_tail,
    _FillerScreen,
    _full_scores,
    _golden_refine,
    _pair_rescue,
    _quarter_rows,
    _survey,
    _u_rows,
    _write_row_bound,
    norm_to_max,
)
from eulerapprox.factors import QUARTER_GRID, PhaseAssignment, twist_argument
from eulerapprox.hardy import TWO_PI, H2Element, disc_quadrature
from eulerapprox.primes import primes_up_to


def exp_target(a):
    return lambda s: np.exp(a * np.asarray(s, dtype=complex))


def one_target(s):
    return np.ones_like(np.asarray(s, dtype=complex))


def make_problem(**kw):
    base = dict(spec=ea.zeta_spec(), target=exp_target(0.1), sigma0=0.75, r=0.02,
                eps=0.1, y=2.0, gamma_c=2.0, p_max=20_000, seed=0)
    base.update(kw)
    return ea.ApproximationProblem(**base)


# ---------------------------------------------------------------------------
# problem validation
# ---------------------------------------------------------------------------


def test_validation_names_inequalities():
    with pytest.raises(ea.InvalidProblem, match="r < r0"):
        make_problem(r=0.3).validate()
    with pytest.raises(ea.InvalidProblem, match="gamma\\^2 r < r0"):
        make_problem(gamma_c=4.0).validate()
    with pytest.raises(ea.InvalidProblem, match="r \\+ delta \\+ 2 lambda"):
        make_problem(lam=0.2).validate()
    with pytest.raises(ea.InvalidProblem, match="y >= 2"):
        make_problem(y=1.0).validate()
    with pytest.raises(ea.InvalidProblem, match="sigma0"):
        make_problem(sigma0=0.4).validate()


def test_nonnegative_schedule_exponent_configs_rejected():
    # 1/2 + r + 2 lam + delta >= sigma0 forces r + delta + 2 lam >= r0 as well
    prob = make_problem(sigma0=0.52, r=0.019, lam=0.01, delta=0.01)
    assert prob.schedule_exponent() >= 0
    with pytest.raises(ea.InvalidProblem):
        prob.validate()


# ---------------------------------------------------------------------------
# target contraction
# ---------------------------------------------------------------------------


def test_contract_constant_unchanged():
    prob = make_problem(target=lambda s: 2.5 * np.ones_like(np.asarray(s, dtype=complex)))
    contracted, dev = ea.contract_target(prob)
    assert dev == 0.0
    assert contracted.target(np.array([0.01j]))[0] == 2.5


def test_contract_linear_deviation():
    prob = make_problem(target=lambda s: np.asarray(s, dtype=complex),
                        gamma_c=math.sqrt(2.0))
    _, dev = ea.contract_target(prob)
    assert abs(dev - prob.r / 2) < 1e-12


def test_contract_exponential_matches_boundary_oracle():
    prob = make_problem(target=exp_target(1.0), r=0.05, gamma_c=math.sqrt(1.1))
    _, dev = ea.contract_target(prob)
    ang = np.exp(2j * math.pi * np.arange(4096) / 4096)
    pts = 0.05 * ang
    oracle = np.max(np.abs(np.exp(pts) - np.exp(pts / 1.1)))
    assert abs(dev - oracle) < 1e-6


# ---------------------------------------------------------------------------
# residual initialization
# ---------------------------------------------------------------------------


def test_init_residual_self_target():
    spec = ea.zeta_spec()
    y = 7.0
    mand = [2, 3, 5, 7]
    target = ea.product_target(spec, mand, ea.trivial_phases(mand), 0.75)
    prob = make_problem(target=target, y=y, p_max=2000)
    state = ea.init_residual(prob)
    assert state.work_norm() < 1e-9
    # the reported residual keeps the pool curvature visible
    assert np.allclose(state.residual.coef, state.work - state.nu_rest)
    assert state.tail_bound > 0


def test_init_residual_norm_matches_quadrature_oracle():
    spec = ea.zeta_spec()
    sigma0, y, p_max = 0.75, 11.0, 300
    prob = make_problem(target=one_target, y=y, p_max=p_max)
    state = ea.init_residual(prob)
    mand = [2, 3, 5, 7, 11]
    pool = [int(p) for p in ea.primes_up_to(p_max) if p > y]

    def explicit(s_grid):
        out = np.zeros_like(np.asarray(s_grid, dtype=complex))
        flat = out.ravel()
        sflat = np.asarray(s_grid, dtype=complex).ravel()
        for i, s in enumerate(sflat):
            acc = 0j
            for p in mand:
                acc += ea.log_factor(spec, p, complex(s), 0.0, sigma0=sigma0).total
            for p in pool:
                acc += ea.log_factor(spec, p, complex(s), 0.0, sigma0=sigma0).tail
            flat[i] = -acc
        return out

    R = prob.hardy_radius
    quad = disc_quadrature(lambda s: np.abs(explicit(s)) ** 2, R, tol=1e-12,
                           n_radial=24, n_angular=96, max_doublings=1)
    oracle = math.sqrt(float(quad.real))
    got = state.residual.coeff_norm()
    assert abs(got - oracle) < 1e-6 * oracle


def test_init_residual_pool_below_floor_rejected():
    prob = make_problem(y=50.0, p_max=40)
    with pytest.raises(ea.InvalidProblem):
        ea.init_residual(prob)


def test_nu_rest_follows_grow_rephase_and_drop():
    prob = make_problem(p_max=300)
    state = ea.init_residual(prob)
    _quarter_rows(state, len(state.pool_primes))   # the stall path's full build

    def curvature_of_remaining_pool():
        # full log rows at twist 0 minus the leading term a_p^1 p^-sigma0 (-log p)^n / n!
        taken = set(state.accepted_primes())
        rest = np.array([p for p in state.pool_primes if p not in taken], dtype=np.int64)
        full = _u_rows(prob.spec, rest, np.zeros(len(rest)), prob.sigma0, prob.order,
                       approx._SERIES_ORDER)
        lnp = np.log(rest.astype(float))
        n = np.arange(prob.order + 1)
        fact = np.array([math.factorial(int(k)) for k in n], dtype=float)
        leading = (prob.spec.leading(rest) * np.exp(-prob.sigma0 * lnp))[:, None] \
            * (-lnp[:, None]) ** n / fact
        return (full - leading).sum(axis=0)

    assert np.allclose(state.nu_rest, curvature_of_remaining_pool(), rtol=1e-12, atol=1e-15)
    moves = [lambda: _commit(state, 0, state.u_phase[1][0], state.twist(1, 0)),
             lambda: _commit(state, 3, state.u_phase[0][3], state.twist(0, 3)),
             lambda: _apply(state, True, 2, 0),
             lambda: _apply(state, True, _DROP, 1)]
    for move in moves:
        move()
        assert np.allclose(state.nu_rest, curvature_of_remaining_pool(),
                           rtol=1e-12, atol=1e-15)
        assert np.array_equal(state.residual.coef, state.work - state.nu_rest)
    assert state.accepted_primes() == [int(state.pool_primes[0])]
    assert state.accepted[0][1] == state.twist(2, 0) % 1.0


# ---------------------------------------------------------------------------
# blocked pool build: bit-identical to one whole-pool _u_rows call per quarter
# ---------------------------------------------------------------------------

# the 7-line custom spec file: a c_eps header and six coefficient rows
CUSTOM_7 = ea.custom_spec({2: {1: 0.25 + 0.1j, 2: 0.05}, 3: {1: -0.3}, 5: {1: 0.2j, 3: 0.01},
                           7: {2: 0.1}}, {0.05: 2.0})

# a custom pool holds its table primes only: a table row at every prime up to
# 60,000, seven distinct rows (the recurrence caches one per row)
CUSTOM_DENSE = ea.custom_spec({int(p): {1: 0.3 * cmath.exp(2j * math.pi * (int(p) % 7) / 7),
                                        2: 0.05}
                               for p in ea.primes_up_to(60_000)}, {0.05: 2.0})

BUILD_SPECS = pytest.mark.parametrize("spec", [
    ea.zeta_spec(),
    ea.dirichlet_spec(4, [0, 1, 0, -1]),
    ea.dirichlet_spec(5, [0, 1, 1j, -1j, -1]),
    CUSTOM_DENSE,
], ids=["zeta", "chi4", "chi5", "custom"])


def assert_whole_pool_twists(state, n):
    """``state.twist(k, i)`` of the first n pool primes is one whole-pool pass's, bit for bit."""
    corr = state.problem.spec.phase_correction(state.pool_primes[:n])
    whole = np.mod(np.add.outer(QUARTER_GRID, corr), 1.0)
    for k in range(len(QUARTER_GRID)):
        assert np.array_equal([state.twist(k, i) for i in range(n)], whole[k])
    return whole


#: (-i)^e for e = 0..3: a quarter turn of the base turns the term of B^m by (-i)^m
TURNS = (1.0, -1j, -1.0, 1j)


def residue_rows(spec, pool, corr, sigma0, order, k):
    """The pool's rows at twists corr + k/4 from one twisted base per prime, in one call.

    B = e(-corr) p^-sigma0, G[p, m] = c_m B^m (``log_terms``) and the residue
    sums T_j = sum_{m = j mod 4} G[p, m] m^n; the row is sum_j (-i)^(jk) T_j,
    added in j order, times (-1)^n (log p)^n / n!.
    """
    lnp = np.log(pool.astype(float))
    ms = np.arange(1, approx._SERIES_ORDER + 1)
    ns = np.arange(order + 1, dtype=float)
    G = spec.log_terms(pool, np.exp(-1j * TWO_PI * corr - sigma0 * lnp), len(ms))
    mpow = ms[:, None].astype(float) ** ns[None, :]
    acc = 0.0
    for j in range(4):
        acc = acc + TURNS[j * k % 4] * (G[:, ms % 4 == j] @ mpow[ms % 4 == j])
    fact = np.cumprod(np.concatenate(([1.0], np.arange(1, order + 1, dtype=float))))
    return acc * (lnp[:, None] ** ns / (fact * (-1.0) ** ns))


def per_quarter_rows(prob, pool, q):
    """The pool's rows at steering phase q by the former formula, one base per quarter.

    The oracle of ``test_quarter_rows_match_one_base_per_quarter`` only:
    B = e(-(q + corr) mod 1) p^-sigma0, (sum_m c_m B^m m^n) (-log p)^n / n!.
    """
    spec = prob.spec
    tws = np.mod(q + spec.phase_correction(pool), 1.0)
    lnp = np.log(pool.astype(float))
    ms = np.arange(1, approx._SERIES_ORDER + 1, dtype=float)
    ns = np.arange(prob.order + 1, dtype=float)
    G = spec.log_terms(pool, np.exp(-1j * TWO_PI * tws - prob.sigma0 * lnp), len(ms))
    fact = np.cumprod(np.concatenate(([1.0], np.arange(1, prob.order + 1, dtype=float))))
    return (G @ (ms[:, None] ** ns[None, :])) * ((-lnp[:, None]) ** ns / fact)


def whole_pool_quarter(prob, pool, q):
    """Twists, rows and disc norms of the pool at steering phase q, in one call each."""
    spec = prob.spec
    corr = spec.phase_correction(pool)
    tws = np.mod(q + corr, 1.0)
    rows = residue_rows(spec, pool, corr, prob.sigma0, prob.order, QUARTER_GRID.index(q))
    n = np.arange(prob.order + 1)
    weights = math.pi * prob.hardy_radius ** (2 * n + 2) / (n + 1)
    norm2 = np.array([np.sum(np.abs(row) ** 2 * weights) for row in rows])
    return tws, rows, norm2


@BUILD_SPECS
def test_blocked_pool_build_matches_whole_pool_rows(spec):
    prob = make_problem(spec=spec, p_max=60_000)
    state = ea.init_residual(prob)
    _quarter_rows(state, len(state.pool_primes))   # the stall path's full build
    pool = state.pool_primes
    assert_whole_pool_twists(state, len(pool))
    # blocks of 64 to 2,048 rows, the last one partial
    assert 2 * _BLOCK < len(pool) < 3 * _BLOCK
    for k, q in enumerate(QUARTER_GRID):
        _, rows, norm2 = whole_pool_quarter(prob, pool, q)
        assert np.array_equal(state.u_phase[k], rows)
        assert np.array_equal(state.u_norm2[:, k], norm2)


@BUILD_SPECS
def test_quarter_rows_match_one_base_per_quarter(spec):
    # the four quarters from one base differ from one base per quarter only
    # by rounding: within 1e-13 of each row's largest coefficient on the disc,
    # |u_n| R^n.  Unscaled, the terms of degree n = 64 cancel to 1e-10 of the
    # row's largest, and the per-quarter bases' rounded turns move them by that.
    prob = make_problem(spec=spec, p_max=60_000)
    state = ea.init_residual(prob)
    _quarter_rows(state, len(state.pool_primes))
    disc = prob.hardy_radius ** np.arange(prob.order + 1)
    for k, q in enumerate(QUARTER_GRID):
        old = per_quarter_rows(prob, state.pool_primes, q) * disc
        scale = np.max(np.abs(old), axis=1, keepdims=True)
        assert np.all(np.abs(state.u_phase[k] * disc - old) <= 1e-13 * scale)


@BUILD_SPECS
def test_quarter_rows_do_not_depend_on_the_block(spec):
    # a prime's rows are the same bits from a one-prime pool, a 64-row block,
    # a 2,048-row block and adoption
    full = ea.init_residual(make_problem(spec=spec, p_max=60_000))
    n = len(full.pool_primes)
    _quarter_rows(full, n)
    sizes = {i: b.stop - b.start for b in _blocks(0, n, n) for i in range(b.start, b.stop)}
    picks = [10, 3000, n - 1]
    assert [sizes[i] for i in picks[:2]] == [_FIRST_BLOCK, _BLOCK]
    for i in picks:
        p = int(full.pool_primes[i])
        alone = ea.init_residual(make_problem(spec=spec, y=p - 1.0, p_max=p))
        adopted = ea.init_residual(make_problem(spec=spec, y=p - 1.0, p_max=60_000))
        assert list(alone.pool_primes) == [p] and len(adopted.pool_primes) == n - i
        _quarter_rows(alone, 1)
        assert approx._adopt_rows(adopted, full) == n - i
        for state in (alone, adopted):
            for k in range(len(QUARTER_GRID)):
                assert np.array_equal(state.u_phase[k][0], full.u_phase[k][i])
            assert state.correction[0] == full.correction[i]
            assert np.array_equal(state.u_norm2[0], full.u_norm2[i])
            assert np.array_equal(state.head[0], full.head[i])
            assert np.array_equal(state.tail_norm[0], full.tail_norm[i])


def test_screen_stores_grow_with_the_build():
    # block by block, as lazy steering builds: the head and tail stores grow
    # to twice the built rows, so they are copied a logarithmic number of times
    state = ea.init_residual(make_problem(p_max=100_000))
    npool, h = len(state.pool_primes), state.head.shape[-1]
    assert 4 * _BLOCK < npool < 5 * _BLOCK
    caps, built = [], []
    while state.built < npool:
        _quarter_rows(state, state.built + 1)
        built.append(state.built)
        assert len(state.tail_norm) == len(state.head) >= state.built
        if not caps or caps[-1] != len(state.head):
            caps.append(len(state.head))
    assert built == [64, 128, 256, 512, 1024, 2048, 4096, 6144, 8192, npool]
    assert caps == [128, 512, 2048, 8192, npool]
    for k in range(len(QUARTER_GRID)):
        rows = state.u_phase[k]
        assert np.array_equal(state.head[:, k], rows[:, :h])
        tail = np.sqrt(np.sum(np.abs(rows[:, h:]) ** 2 * state.weights[h:], axis=1))
        assert np.array_equal(state.tail_norm[:, k], tail)
    # the head screen's slack takes M = 4 row_bound[0]^2 for every row
    assert np.all(state.u_norm2 <= 4.0 * state.row_bound[0] ** 2)


def test_blocks_double_and_leave_no_row_alone():
    def sizes(lo, n):
        return [(b.start, b.stop) for b in _blocks(lo, n, n)]

    assert [b.stop - b.start for b in _blocks(0, 10_000, 10_000)] == [
        64, 64, 128, 256, 512, 1024, 2048, 2048, 2048, 1808]
    assert sizes(0, 129) == [(0, 64), (64, 129)]      # a lone last row joins its block
    assert sizes(0, 65) == [(0, 65)]
    assert sizes(0, 1) == [(0, 1)]                    # a one-prime pool alone
    assert sizes(53, 291) == [(53, 117), (117, 234), (234, 291)]   # from adopted rows
    assert sizes(0, 0) == [] and sizes(7, 7) == []
    # the first block that covers stop: one block per call of the lazy build
    assert [(b.start, b.stop) for b in _blocks(64, 65, 5000)] == [(64, 128)]
    # a pool of 129 builds its last row beside 64 others, bit-identical to one
    # whole-pool product
    prob = make_problem(p_max=int(ea.primes_up_to(800)[129]))   # pool primes 3..p_max
    state = ea.init_residual(prob)
    assert len(state.pool_primes) == 129
    _quarter_rows(state, 129)
    for k, q in enumerate(QUARTER_GRID):
        assert np.array_equal(state.u_phase[k], whole_pool_quarter(prob, state.pool_primes, q)[1])


@BUILD_SPECS
@pytest.mark.parametrize("order,series_order", [(64, 64), (8, 2)])
def test_blocked_embedding_tail_matches_one_shot_sum(spec, order, series_order):
    # at low orders every block adds far more than an ulp of the sum
    prob = make_problem(spec=spec, p_max=60_000)
    primes = ea.primes_up_to(60_000)
    R, sigma0 = prob.hardy_radius, prob.sigma0
    # the whole pool at once: per-prime bounds, then one sum
    lnp = np.log(primes.astype(float))
    q = np.exp((R - sigma0) * lnp)
    _, terms = spec.log_series_tail(primes, q, series_order)
    a = np.arange(1, series_order + 1, dtype=float)[None, :] * lnp[:, None] * R
    la = (order + 1) * np.log(np.maximum(a, 1e-300)) + a - math.lgamma(order + 2)
    tails = np.where(la > -700, np.exp(np.minimum(la, 700)), 0.0)
    one_shot = float(np.sum(terms[:, -1] + np.sum(terms[:, :-1] * tails, axis=1)))
    assert one_shot > 0
    assert _embedding_tail(spec, primes, R, sigma0, order, series_order)[0] == one_shot


def per_prime_pass(spec, primes, R, sigma0, order, series_order):
    """The embedding tail's per-prime pass over every prime, with no stop rule.

    Returns the total (one sum over the per-prime bounds), the per-prime
    bounds, and the per-prime row sums sum_{m <= series_order} |c_m| q^m
    that ``_embedding_tail`` returns for custom specs.  Primes are taken
    8,192 at a time only to keep the temporaries small; each prime's
    arithmetic does not depend on the others.
    """
    bounds, beta = np.empty(len(primes)), np.empty(len(primes))
    ms = np.arange(1, series_order + 1, dtype=float)
    for lo in range(0, len(primes), 8192):
        ps = primes[lo:lo + 8192]
        lnp = np.log(ps.astype(float))
        q = np.exp((R - sigma0) * lnp)
        _, terms = spec.log_series_tail(ps, q, series_order)
        a = ms[None, :] * lnp[:, None] * R
        la = (order + 1) * np.log(np.maximum(a, 1e-300)) + a - math.lgamma(order + 2)
        tails = np.where(la > -700, np.exp(np.minimum(la, 700)), 0.0)
        bounds[lo:lo + 8192] = terms[:, -1] + np.sum(terms[:, :-1] * tails, axis=1)
        beta[lo:lo + 8192] = np.sum(terms[:, :-1], axis=1)
    return float(np.sum(bounds)), bounds, beta


@pytest.mark.parametrize("n", [0, 7, 128, 129, 300, 8193, 78_498])
def test_padded_sum_is_the_sum_of_the_padded_vector(n):
    rng = np.random.default_rng(n)
    for k in sorted({0, 1, 9, 64, 129, n // 3, n}):
        if k <= n:
            head = rng.random(k) * 10.0 ** rng.uniform(-25, 0, k)
            padded = np.concatenate([head, np.zeros(n - k)])
            assert approx._padded_sum(head, n) == float(np.sum(padded))


@BUILD_SPECS
@pytest.mark.parametrize("p_max,y,radius,order,series_order", [
    (1_000_000, 2, 0.04, 64, 64),     # approx-pool: the pass stops after one block
    (20_000, 7, 0.04, 64, 64),        # approx-steer's pool
    (20_000, 2, 0.02, 24, 40),        # the refine screen's orders at radius r
    (60_000, 2, 0.04, 8, 2),          # low orders: every block counts
], ids=["pool-1e6", "steer-2e4", "screen", "low-orders"])
def test_embedding_tail_matches_per_prime_pass(spec, p_max, y, radius, order, series_order):
    primes = ea.primes_up_to(p_max)
    primes = primes[primes > y]
    want_total, _, want_sums = per_prime_pass(spec, primes, radius, 0.75, order, series_order)
    total, sums = _embedding_tail(spec, primes, radius, 0.75, order, series_order)
    assert total.hex() == want_total.hex()
    # only a custom pool's row bound needs every prime's row sum
    assert np.array_equal(sums, want_sums) if spec.kind == "custom" else sums is None


@pytest.mark.parametrize("p_max,radius,order,series_order", [
    (60_000, 0.03, 24, 24), (20_000, 0.02, 24, 40), (60_000, 0.03, 20, 16),
])
def test_embedding_tail_near_stop_margin_matches_per_prime_pass(p_max, radius, order,
                                                                series_order):
    # the majorant past the first block of 64 primes lies between 2^-60 and
    # 2^-50 of that block's sum (lost in it as a float in the first two
    # configurations), so the pass runs on past the first block
    spec = ea.zeta_spec()
    primes = ea.primes_up_to(p_max)[1:]
    args = (radius, 0.75, order, series_order)
    want_total, bounds, _ = per_prime_pass(spec, primes, *args)
    head = float(np.sum(bounds[:_FIRST_BLOCK]))
    rest = _character_tail_majorant(int(primes[_FIRST_BLOCK - 1]), int(primes[-1]), *args)
    assert 2.0**-60 < rest / head < 2.0**-50
    assert (head + rest == head) == (order == 24)
    total, sums = _embedding_tail(spec, primes, *args)
    assert total.hex() == want_total.hex() and sums is None


@pytest.mark.parametrize("p_max", [20_000, 200_000])
@pytest.mark.parametrize("radius,sigma0", [(0.02, 0.75), (0.04, 0.75), (0.06, 0.8), (0.1, 0.7)])
@pytest.mark.parametrize("order,series_order", [(64, 64), (24, 40), (8, 2), (2, 1)])
def test_character_tail_majorant_bounds_the_rest(p_max, radius, sigma0, order, series_order):
    primes = ea.primes_up_to(p_max)[1:]
    _, bounds, _ = per_prime_pass(ea.zeta_spec(), primes, radius, sigma0, order,
                                  series_order)
    for hi in (b.stop for b in _blocks(0, len(primes), len(primes))):
        rest = float(np.sum(bounds[hi:]))
        majorant = _character_tail_majorant(int(primes[hi - 1]), int(primes[-1]), radius,
                                            sigma0, order, series_order)
        assert majorant >= rest
        assert (majorant == 0.0) == (hi == len(primes))
    if order <= 8:   # not negligible: the pass must run past the first block
        total = float(np.sum(bounds))
        first = _character_tail_majorant(int(primes[_FIRST_BLOCK - 1]), int(primes[-1]),
                                         radius, sigma0, order, series_order)
        assert total + first != total


# ---------------------------------------------------------------------------
# lazy pool build: rows only as far as the row-norm bound lets a prime win
# ---------------------------------------------------------------------------


@BUILD_SPECS
def test_row_bound_dominates_every_gain(spec):
    prob = make_problem(spec=spec, p_max=6_000)
    state = ea.init_residual(prob)
    pool = state.pool_primes
    _quarter_rows(state, len(pool))
    R, weights = prob.hardy_radius, state.weights
    # beta_p = sqrt(pi) R sum_{m <= M} |c_m(p)| q_p^m from the majorant columns
    q = np.exp((R - prob.sigma0) * np.log(pool.astype(float)))
    _, terms = spec.log_series_tail(pool, q, approx._SERIES_ORDER)
    beta = math.sqrt(math.pi) * R * np.sum(terms[:, :-1], axis=1)
    # the greedy step reads beta(built): a custom pool's suffix maximum of
    # beta_p, stored for every prime; a character's beta_p itself, written
    # where the build stops
    bound = np.empty(len(pool))
    for i in range(len(pool)):
        if spec.kind != "custom":
            state.built = i
            _write_row_bound(state)
        bound[i] = state.row_bound[i]
    want = np.maximum.accumulate(beta[::-1])[::-1] if spec.kind == "custom" else beta
    assert np.array_equal(bound, want)
    n = np.arange(prob.order + 1)
    rng = np.random.default_rng(7)
    residuals = [state.work, state.u_phase[0][0], -state.u_phase[3][5]]
    for _ in range(6):
        z = rng.normal(size=prob.order + 1) + 1j * rng.normal(size=prob.order + 1)
        residuals.append(z * float(rng.uniform(1e-4, 1.0)) / R ** n)
    for w in residuals:
        w_norm = math.sqrt(float(np.sum(np.abs(w) ** 2 * weights)))
        cw = np.conj(w) * weights
        gain = np.max([2.0 * (state.u_phase[k] @ cw).real - state.u_norm2[:, k]
                       for k in range(len(QUARTER_GRID))], axis=0)
        # every row at index >= i, with the 1e-9 margin of _pool_scores
        assert np.all(2.0 * w_norm * (1.0 + 1e-9) * bound
                      >= np.maximum.accumulate(gain[::-1])[::-1])


@pytest.mark.parametrize("phase_mode", ["quarter", "golden"])
def test_lazy_steering_matches_full_pool(phase_mode):
    prob, _ = ea.contract_target(make_problem(p_max=60_000, phase_mode=phase_mode))
    lazy, full = ea.init_residual(prob), ea.init_residual(prob)
    npool = len(full.pool_primes)
    assert npool > 2 * _BLOCK
    _quarter_rows(full, npool)
    assert lazy.built == 0
    for stop in (1e-3, 1e-9):
        ea.greedy_rearrange(lazy, stop_norm=stop)
        ea.greedy_rearrange(full, stop_norm=stop)
        assert lazy.accepted == full.accepted
        assert lazy.accepted_idx == full.accepted_idx
        assert np.array_equal(lazy.trace, full.trace)
        assert np.array_equal(lazy.work, full.work)
        assert lazy.stall == full.stall
        if stop == 1e-3:
            assert lazy.built == _FIRST_BLOCK   # the first steps read the first block only
    # steering went past the first block
    assert any(idx >= _FIRST_BLOCK for idx in lazy.accepted_idx)


def test_default_problem_at_large_pool_builds_few_blocks(monkeypatch):
    handed = {"log_series_tail": 0, "phase_correction": 0}   # primes per spec method

    def counting(name):
        method = getattr(ea.EulerFactorSpec, name)

        def wrapped(self, primes, *args):
            handed[name] += np.size(primes)
            return method(self, primes, *args)

        return wrapped

    for name in handed:
        monkeypatch.setattr(ea.EulerFactorSpec, name, counting(name))
    prob = make_problem(p_max=1_000_000)
    res, state = _approximate_impl(prob)
    assert res.status == "success"
    pool = state.pool_primes
    assert len(pool) == 78_497
    assert state.built == _FIRST_BLOCK
    # set-up and steering work out the embedding tail of the first block, the
    # floor prime 2 and the row bound at pool primes 0 and 64, and the phase
    # corrections of the first block only
    assert handed == {"log_series_tail": _FIRST_BLOCK + 3, "phase_correction": _FIRST_BLOCK}
    monkeypatch.undo()
    assert_whole_pool_twists(state, state.built)


def test_steering_work_grows_with_the_built_rows():
    # the approx-pool config: 78,497 pool primes, of which greedy steering builds 64 rows
    prob, _ = ea.contract_target(make_problem(p_max=1_000_000))
    ea.init_residual(prob)              # the sieve and any cache of the set-up
    stop = 0.5 * prob.eps * math.sqrt(math.pi) * (prob.hardy_radius - prob.r)
    tracemalloc.start()
    try:
        state = ea.init_residual(prob)
        set_up = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        ea.greedy_rearrange(state, stop_norm=stop)
        steering = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert (state.built, len(state.accepted)) == (_FIRST_BLOCK, 4)
    # the pool-long stores, whose unwritten pages cost no memory, and less than 1 MB more
    stores = sum(a.nbytes for a in (*state.u_phase, state.u_norm2, state.correction,
                                    state.row_bound, state.pool_mask))
    assert set_up <= stores + 2**20
    # a (pool, quarter) float store alone would be 2.5 MB
    assert steering < 2**20
    # the pool is a view of the sieve
    assert np.shares_memory(state.pool_primes, primes_up_to(prob.p_max))


# ---------------------------------------------------------------------------
# moves on accepted primes: kept rows, bit-identical to a whole-list pass
# ---------------------------------------------------------------------------


def whole_list_gains(state, rows, cw):
    """Gains of every accepted-prime move, rebuilt from the current rows ``rows``."""
    gains = np.empty((_DROP + 1, len(rows)))
    if not rows:
        return gains
    idx = np.asarray(state.accepted_idx, dtype=np.int64)
    cur = np.asarray(rows)
    for k in range(_DROP + 1):
        d = -cur if k == _DROP else state.u_phase[k][idx] - cur
        gains[k] = 2.0 * (d @ cw).real - np.sum(np.abs(d) ** 2 * state.weights[None, :],
                                                axis=1).real
    return gains


@pytest.mark.parametrize("spec", [ea.zeta_spec(), CUSTOM_DENSE], ids=["zeta", "custom"])
def test_move_rows_match_whole_list_gains(spec):
    prob = make_problem(spec=spec, p_max=2000)
    state = ea.init_residual(prob)
    _quarter_rows(state, len(state.pool_primes))
    rng = np.random.default_rng(5)
    probes = [rng.normal(size=prob.order + 1) + 1j * rng.normal(size=prob.order + 1)
              for _ in range(2)]
    rows, work = [], state.work    # tracked here with the whole-list arithmetic

    def check():
        n = len(rows)
        assert len(state.accepted_idx) == n
        cur = np.asarray(rows).reshape(n, prob.order + 1)
        assert np.array_equal(state.cur[:n], cur)
        for k in range(_DROP):
            assert np.array_equal(state.move_row(k, slice(n)),
                                  state.u_phase[k][state.accepted_idx] - cur)
        assert np.array_equal(state.move_row(_DROP, slice(n)), -cur)
        h = state.head.shape[-1]
        for k in range(_DROP + 1):      # the screen's tail norms shift and double with the rows
            d = state.move_row(k, slice(n))
            tail = np.sqrt(np.sum(np.abs(d[:, h:]) ** 2 * state.weights[h:], axis=1))
            assert np.array_equal(state.move_tail[:n, k], tail)
        assert np.array_equal(state.work, work)
        assert state.work_norm() == H2Element(prob.hardy_radius, state.work).coeff_norm()
        # the drop of the last position scores highest at W = -c, its own row
        for w in [state.work] + probes + [-c for c in cur[-1:]]:
            cw = np.conj(w) * state.weights
            want = whole_list_gains(state, rows, cw)
            assert np.array_equal(accepted_scores(state, cw), want)
            # the head screen picks the whole list's first best move when it is above tol
            screen, tol = screen_for(state, w)
            best = (-math.inf, 0, 0)
            if n:
                move, pos = np.unravel_index(int(np.argmax(want)), want.shape)
                best = (float(want[move, pos]), int(move), int(pos))
            assert_same_best(approx._best_move(state, screen, tol),
                             either_best(full_pool_best(state, cw), best), tol)
        state.work = work

    def grow(idx, row, twist):
        nonlocal work
        _commit(state, idx, row, twist)
        rows.append(row)
        work = work - row
        check()

    def rephase(pos, k):
        nonlocal work
        new = state.u_phase[k][state.accepted_idx[pos]]
        work = work - (new - rows[pos])
        _apply(state, True, k, pos)
        rows[pos] = new
        check()

    def drop(pos):
        nonlocal work
        work = work + rows[pos]
        _apply(state, True, _DROP, pos)
        del rows[pos]
        check()

    check()
    grow(0, state.u_phase[1][0], state.twist(1, 0))             # one row
    for idx in range(1, _MOVE_ROWS + 6):                         # past one doubling
        k = int(rng.integers(len(QUARTER_GRID)))
        grow(idx, state.u_phase[k][idx], state.twist(k, idx))
    assert len(state.move_norm2) == 2 * _MOVE_ROWS
    cw = np.conj(state.work) * state.weights
    row, twist, _ = _golden_refine(state, cw, 80, QUARTER_GRID[2])
    grow(80, row, twist)
    idx = state.accepted_idx[5]
    rephase(5, next(k for k in range(len(QUARTER_GRID))
                    if state.twist(k, idx) % 1.0 != state.accepted[5][1]))
    rephase(len(rows) - 1, 3)                                    # the golden row
    drop(0)
    drop(len(rows) // 2)
    drop(len(rows) - 1)

    cw = np.conj(state.work) * state.weights
    _, pairings = pool_scores(state, cw)
    before = dict(zip(state.accepted, rows))
    assert _pair_rescue(state, pairings, accepted_scores(state, cw))
    # the pair rephases an accepted prime
    assert set(before) - set(state.accepted)
    rows = [before[(p, tw)] if (p, tw) in before else
            next(state.u_phase[k][idx] for k in range(len(QUARTER_GRID))
                 if state.twist(k, idx) % 1.0 == tw)
            for (p, tw), idx in zip(state.accepted, state.accepted_idx)]
    work = state.work   # the pair's rows are re-derived above, its residual taken as is
    check()
    grow(90, state.u_phase[0][90], state.twist(0, 90))


@pytest.mark.parametrize("kw,accepted", [
    (dict(p_max=1_000_000), 4),
    (dict(p_max=20_000, y=7.0, target=exp_target(-0.1)), 600),   # 600 greedy steps
], ids=["large-pool", "steer"])
def test_move_rows_grow_with_the_accepted_count(kw, accepted):
    prob = make_problem(**kw)
    _, state = _approximate_impl(prob)
    assert len(state.accepted) == accepted
    total = state.cur.nbytes + state.move_norm2.nbytes + state.move_tail.nbytes
    assert total <= max(128, 2 * accepted) * ((prob.order + 1) * 16 + 2 * (_DROP + 1) * 8)


# ---------------------------------------------------------------------------
# head screen: full pairings only for the moves that can win
# ---------------------------------------------------------------------------


def pool_scores(state, cw):
    """The full pass over the built pool rows, accepted primes' rows at -inf, and the pairings."""
    scores, pairings = _full_scores(state.pool_row, state.u_norm2, state.built, cw)
    scores[:, ~state.pool_mask[:state.built]] = -np.inf
    return scores, pairings


def accepted_scores(state, cw):
    """The full pass over the moves on accepted primes, (move, position)."""
    return _full_scores(state.move_row, state.move_norm2, len(state.accepted_idx), cw)[0]


def full_pool_best(state, cw):
    """(score, quarter, index) of the full pass over the pool rows, as ``np.argmax`` picks it."""
    if not state.built:
        return -math.inf, 0, 0
    decreases, _ = pool_scores(state, cw)
    k, idx = np.unravel_index(int(np.argmax(decreases)), decreases.shape)
    return float(decreases[k, idx]), int(k), int(idx)


def full_accepted_best(state, cw):
    """(score, move, position) of the full pass over the accepted moves, as ``np.argmax`` does."""
    gains = accepted_scores(state, cw)
    if not gains.size:
        return -math.inf, 0, 0
    move, pos = np.unravel_index(int(np.argmax(gains)), gains.shape)
    return float(gains[move, pos]), int(move), int(pos)


def either_best(grow, acc):
    """The step's move from each group's best: a pool row beats an equal accepted move."""
    return (acc[0], True, *acc[1:]) if acc[0] > grow[0] else (grow[0], False, *grow[1:])


def full_best_move(state, screen, tol):
    """The oracle of ``_best_move``: the full passes over both groups."""
    return either_best(full_pool_best(state, screen.cw), full_accepted_best(state, screen.cw))


def assert_same_best(got, want, bar):
    """The screen's (score, k, i) is the oracle's when the oracle reaches ``bar``."""
    if want[0] >= bar or math.isnan(want[0]):
        assert (float(got[0]).hex(), *got[1:]) == (float(want[0]).hex(), *want[1:])
    else:
        assert got[0] < bar


def screen_for(state, w):
    """The step screen and tol of residual ``w``, as a greedy step makes them."""
    state.work = w
    norm = state.work_norm()
    screen = approx._screen_of(state, np.conj(w) * state.weights, norm)
    return screen, 1e-14 * max(norm ** 2, 1e-300)


def checked_scorers(monkeypatch, calls):
    """Wrap ``_best_move`` so that each call checks its oracle.

    ``calls`` counts the calls with both groups screened: two or more built
    rows and accepted positions.
    """
    best_move = approx._best_move

    def checked(state, screen, tol):
        got = best_move(state, screen, tol)
        assert_same_best(got, full_best_move(state, screen, tol), tol)
        calls["both"] += min(state.built, len(state.accepted)) >= 2
        return got

    monkeypatch.setattr(approx, "_best_move", checked)


def steered(prob, stop_norm, full=False):
    """A contracted-target state steered to ``stop_norm``, every move scored in full if ``full``."""
    state = ea.init_residual(ea.contract_target(prob)[0])
    if not full:
        return ea.greedy_rearrange(state, stop_norm=stop_norm)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(approx, "_best_move", full_best_move)
        return ea.greedy_rearrange(state, stop_norm=stop_norm)


def assert_same_run(a, b):
    assert a.accepted == b.accepted and a.accepted_idx == b.accepted_idx
    assert [float(v).hex() for v in a.trace] == [float(v).hex() for v in b.trace]
    assert np.array_equal(a.work, b.work)
    assert a.stall == b.stall


@BUILD_SPECS
@pytest.mark.parametrize("radius", [0.02, 0.06])
def test_screened_best_matches_full_scores_on_random_residuals(spec, radius):
    prob = make_problem(spec=spec, r=radius, p_max=3000, y=7.0)
    state = ea.init_residual(prob)
    _quarter_rows(state, len(state.pool_primes))
    rng = np.random.default_rng(11)
    # accepted moves of every kind: quarter rows, a golden row, a rephase, a drop
    for idx in range(1, 40, 3):
        k = int(rng.integers(len(QUARTER_GRID)))
        _commit(state, idx, state.u_phase[k][idx], state.twist(k, idx))
    cw = np.conj(state.work) * state.weights
    row, twist, _ = _golden_refine(state, cw, 50, QUARTER_GRID[1])
    _commit(state, 50, row, twist)
    _apply(state, True, 3, 2)
    _apply(state, True, _DROP, 4)
    # the slack's M bounds every row and every move, golden and rephased ones included
    m2 = 4.0 * state.row_bound[0] ** 2
    assert np.all(state.u_norm2 <= m2)
    assert np.all(state.move_norm2[:len(state.accepted_idx)] <= m2)
    R = prob.hardy_radius
    n = np.arange(prob.order + 1)
    base = state.work.copy()
    residuals = [base, np.zeros_like(base), state.u_phase[0][5], state.cur[0]]
    while len(residuals) < 200:
        z = rng.normal(size=prob.order + 1) + 1j * rng.normal(size=prob.order + 1)
        decay = float(rng.uniform(0.5, 1.5))   # < 1: the tail weighs more than the head
        residuals.append(base + z * float(rng.uniform(1e-6, 1.0)) * decay ** n / R ** n)
    residuals[-1] = residuals[-1].copy()
    residuals[-1][prob.order] = np.nan      # non-finite: the full pass decides
    residuals[-2] = residuals[-2].copy()
    residuals[-2][1] = np.inf
    for w in residuals:
        with np.errstate(invalid="ignore"):    # the non-finite residuals
            screen, tol = screen_for(state, w)
            best = full_best_move(state, screen, tol)[0]
            # a bar above tol, as each group's best is for the other: zero moves stay below it
            for bar in (tol, best, 2.0 * abs(best)):
                if bar > 0:
                    assert_same_best(approx._best_move(state, screen, bar),
                                     full_best_move(state, screen, bar), bar)
            # the fallback alone (no screen, at bar 0) leaves the accepted primes' rows out too
            assert_same_best(approx._best_move(state, screen, 0.0),
                             full_best_move(state, screen, 0.0), 0.0)


def test_screened_best_gives_a_tie_to_the_pool_row():
    prob = make_problem(p_max=3000, y=7.0)
    state = ea.init_residual(prob)
    _quarter_rows(state, len(state.pool_primes))
    for idx in range(1, 40, 3):
        _commit(state, idx, state.u_phase[0][idx], state.twist(0, idx))
    # an accepted position whose drop move is pool row (k, j) bit for bit: c = -u
    k, j = 2, 5
    _commit(state, 50, -state.u_phase[k][j], 0.0)
    pos = len(state.accepted) - 1
    assert np.array_equal(state.move_row(_DROP, pos), state.u_phase[k][j])
    assert state.move_norm2[pos, _DROP] == state.u_norm2[j, k]
    # at W = u both score ||u||^2, above every other move
    screen, tol = screen_for(state, state.u_phase[k][j].copy())
    gains = accepted_scores(state, screen.cw)
    assert gains[_DROP, pos] == pool_scores(state, screen.cw)[0][k, j] == np.max(gains)
    for bar in (tol, 0.0):              # screened, and the full passes
        got = approx._best_move(state, screen, bar)
        assert got[1:] == (False, k, j)
        assert_same_best(got, full_best_move(state, screen, bar), bar)


@BUILD_SPECS
@pytest.mark.parametrize("radius", [0.02, 0.06])
@pytest.mark.parametrize("phase_mode", ["quarter", "golden"])
def test_screened_greedy_matches_full_scores_at_every_step(monkeypatch, spec, radius,
                                                           phase_mode):
    prob = make_problem(spec=spec, r=radius, p_max=1500, y=7.0,
                        target=exp_target(-0.1), phase_mode=phase_mode)
    calls = {"both": 0}
    checked_scorers(monkeypatch, calls)
    state = steered(prob, 1e-9)
    monkeypatch.undo()
    assert calls["both"] > 50
    assert_same_run(state, steered(prob, 1e-9, full=True))


@pytest.mark.parametrize("kw,rescues,status", [
    # `approximate --pmax 20000 --y 13 --target exp:0.5 --eps 0.02`: the step cap
    (dict(p_max=20_000, y=13.0, target=exp_target(0.5), eps=0.02), 0, "step_cap"),
    (dict(p_max=30, eps=0.001), 2, "stall"),           # exit 2 after two pair rescues
    (dict(p_max=3000, y=11.0, eps=0.02), 57, "pool_exhausted"),   # after 57 of them
], ids=["step-cap", "stall", "exhausted"])
def test_screened_greedy_matches_full_scores_through_stall_and_pair_rescue(monkeypatch, kw,
                                                                           rescues, status):
    done = []
    pair_rescue = approx._pair_rescue

    def counting(*args):
        done.append(pair_rescue(*args))
        return done[-1]

    monkeypatch.setattr(approx, "_pair_rescue", counting)
    res, _ = _approximate_impl(make_problem(**kw))
    assert res.status == status and sum(done) == rescues
    assert (res.stall is None) == (status == "step_cap")
    monkeypatch.setattr(approx, "_best_move", full_best_move)
    oracle, _ = _approximate_impl(make_problem(**kw))
    assert res.phases_text() == oracle.phases_text()
    assert [float(v).hex() for v in res.trace] == [float(v).hex() for v in oracle.trace]
    assert (res.max_error, res.status, res.stall) == (oracle.max_error, oracle.status,
                                                      oracle.stall)


@pytest.mark.parametrize("head", [1, 2])
def test_screened_greedy_matches_full_scores_with_a_short_head(monkeypatch, head):
    # with one or two head coefficients the tail bound decides most rows
    monkeypatch.setattr(approx, "_HEAD", head)
    prob = make_problem(p_max=3000, y=7.0, target=exp_target(-0.1))
    calls = {"both": 0}
    checked_scorers(monkeypatch, calls)
    state = steered(prob, 1e-9)
    assert state.head.shape[-1] == head
    monkeypatch.undo()
    monkeypatch.setattr(approx, "_HEAD", head)
    assert_same_run(state, steered(prob, 1e-9, full=True))


def test_screen_scores_few_rows_exactly(monkeypatch):
    # the approx-steer config: about one exact row per step
    rows = []
    exact_scores = approx._exact_scores

    def counting(picked, n2, cw):
        rows.append(len(picked))
        return exact_scores(picked, n2, cw)

    monkeypatch.setattr(approx, "_exact_scores", counting)
    res, _ = _approximate_impl(make_problem(p_max=20_000, y=7.0, target=exp_target(-0.1)))
    steps = len(res.trace) - 1
    assert steps == 600
    assert sum(rows) / steps <= 2      # 1.13
    # steering to pool exhaustion: the zero moves (a rephase onto the prime's own
    # quarter) stay out of the screen near a stall, or it scores 54 rows per step
    rows.clear()
    res, _ = _approximate_impl(make_problem(p_max=3000, y=11.0, eps=0.02))
    assert res.status == "pool_exhausted"
    assert sum(rows) / (len(res.trace) - 1) <= 2     # 0.86


# ---------------------------------------------------------------------------
# greedy steering
# ---------------------------------------------------------------------------


def test_greedy_zero_residual_takes_no_steps():
    spec = ea.zeta_spec()
    mand = [2, 3]
    target = ea.product_target(spec, mand, ea.trivial_phases(mand), 0.75)
    prob = make_problem(target=target, y=3.0, p_max=500)
    state = ea.init_residual(prob)
    state = ea.greedy_rearrange(state, stop_norm=1e-8)
    assert state.accepted == []
    assert state.stall is None


def test_greedy_single_term_residual_one_step():
    spec = ea.zeta_spec()
    gens = [2, 3, 43]
    theta = {2: 0.0, 3: 0.0, 43: 0.75}
    target = ea.product_target(spec, gens, ea.PhaseAssignment(theta), 0.75)
    prob = make_problem(target=target, y=3.0, p_max=500, eps=1e-8)
    state = ea.init_residual(prob)
    state = ea.greedy_rearrange(state, stop_norm=1e-10)
    assert state.accepted == [(43, 0.75)]
    assert state.work_norm() < 1e-10
    assert state.stall is None


def test_greedy_trace_monotone():
    prob = make_problem(p_max=5000)
    contracted, _ = ea.contract_target(prob)
    state = ea.init_residual(contracted)
    state = ea.greedy_rearrange(state, stop_norm=1e-6)
    trace = np.array(state.trace)
    assert np.all(np.diff(trace) <= 1e-15)


# ---------------------------------------------------------------------------
# the full pipeline
# ---------------------------------------------------------------------------


def test_approximate_exp_target_succeeds():
    res = ea.approximate(make_problem())
    assert res.status == "success" and res.stall is None and res.max_error <= 0.1
    assert 2 in res.primes  # the floor is always included
    assert res.trace[-1] <= 0.5 * 0.1 * math.sqrt(math.pi) * (0.04 - 0.02) + 1e-12


def test_approximate_constant_one_log_norm():
    res = ea.approximate(make_problem(target=one_target, eps=0.05))
    assert res.status == "success"
    lt = ea.log_target(res.product_evaluator(), 0.02, order=32)
    assert ea.h2_norm(lt) <= 0.05


def test_approximate_vanishing_target_rejected():
    bad = lambda s: 50.0 * (np.asarray(s, dtype=complex) - 0.005)
    with pytest.raises(ea.TargetZeroError):
        ea.approximate(make_problem(target=bad))


def test_approximate_stall_is_reported_with_result(tmp_path):
    # each stop short of eps raises its status's class with the result attached,
    # and the CLI reports the status and exits with its code
    cases = [
        # no single move or pair decreases the residual: a stall
        (dict(p_max=30, eps=0.001), "stall", ea.ApproximationStall, 2),
        # floor demand beyond pool capacity: every pool prime is used up
        (dict(y=11.0, p_max=3000, eps=0.02), "pool_exhausted", ea.PoolExhausted, 5),
    ]
    for kw, status, error, code in cases:
        with pytest.raises(ea.ApproximationStall) as exc:
            ea.approximate(make_problem(**kw))
        assert type(exc.value) is error
        res = exc.value.result
        assert res.max_error > kw["eps"]
        assert res.status == status and str(exc.value).startswith(status + " at ")
        assert res.stall.pool_exhausted == (status == "pool_exhausted")
        assert res.stall.best_decrease <= 0 or status == "pool_exhausted"
        out = tmp_path / status
        argv = ["--pmax", str(kw["p_max"]), "--y", str(kw.get("y", 2.0)), "--eps", str(kw["eps"])]
        assert cli.main(["approximate"] + argv + ["--out", str(out)]) == code
        assert (out / "report.txt").read_text().startswith(f"status {status}\n")


def test_step_cap_is_its_own_stop_reason(monkeypatch, tmp_path):
    # every steering round ends at the cap while moves still decrease: the
    # rounds run on, and the result is no stall
    monkeypatch.setattr(approx, "_MAX_STEPS", 8)
    rounds = []
    greedy = approx.greedy_rearrange
    monkeypatch.setattr(approx, "greedy_rearrange",
                        lambda state, stop_norm: rounds.append(1) or greedy(state, stop_norm))
    with pytest.raises(ea.StepCapReached) as exc:
        ea.approximate(make_problem(eps=1e-4))
    assert isinstance(exc.value, ea.ApproximationStall)
    res = exc.value.result
    assert res.status == "step_cap" and res.stall is None
    assert len(rounds) == 3 and len(res.trace) > 1 + 2 * 7
    assert all(b < a for a, b in zip(res.trace, res.trace[1:]))
    out = tmp_path / "run"
    code = cli.main(["approximate", "--pmax", "20000", "--eps", "1e-4", "--out", str(out)])
    assert code == 6
    assert (out / "report.txt").read_text().startswith("status step_cap\n")


def test_custom_pool_holds_table_primes_only():
    state = ea.init_residual(make_problem(spec=CUSTOM_7, p_max=2000))
    assert state.pool_primes.tolist() == [3, 5, 7]
    state = ea.init_residual(make_problem(spec=CUSTOM_WIDE, p_max=2000, y=7.0))
    assert state.pool_primes.tolist() == [int(p) for p in ea.primes_up_to(500) if p > 7]
    # steering uses up the table: a pool exhaustion, not a stall
    res, _ = _approximate_impl(make_problem(spec=CUSTOM_7, p_max=2000, eps=0.01))
    assert res.status == "pool_exhausted" and res.stall.pool_exhausted
    # a leading coefficient just below the positive axis has correction 1.0 exactly:
    # its twists reduce to the quarters, as one whole-pool pass gives them
    spec = ea.custom_spec({2: {1: 0.25}, 3: {1: 1 - 1e-20j}, 5: {1: 0.5}}, {0.05: 2.0})
    state = ea.init_residual(make_problem(spec=spec, p_max=10))
    _quarter_rows(state, 2)
    assert state.correction.tolist() == [1.0, 0.0]
    assert assert_whole_pool_twists(state, 2).tolist() == [[q, q] for q in QUARTER_GRID]
    _apply(state, False, 3, 0)
    assert state.accepted == [(3, 0.75)]


def test_approximate_deterministic_rerun():
    a, _ = _approximate_impl(make_problem(p_max=5000))
    b, _ = _approximate_impl(make_problem(p_max=5000))
    assert a.phases_text() == b.phases_text()
    assert a.max_error == b.max_error


def test_realizable_target_recovery_small():
    spec = ea.zeta_spec()
    rng = np.random.Generator(np.random.PCG64(123))
    gens = [int(p) for p in ea.primes_up_to(50)]
    theta = {p: float(rng.choice([0.0, 0.25, 0.5, 0.75])) for p in gens}
    target = ea.product_target(spec, gens, ea.PhaseAssignment(theta), 0.75)
    pinned = {p: theta[p] for p in gens if p <= 43}
    # t0 = 0, so pinned product twists leave the same work residual as floor twists
    prob = make_problem(target=target, y=43.0, eps=1e-6, p_max=10_000, fixed_phases=pinned)
    state = ea.greedy_rearrange(ea.init_residual(prob), stop_norm=1e-12)
    phases = state.phase_assignment()
    assert _survey(prob, phases).max_error < 1e-6
    assert set(gens) <= set(phases.theta)
    assert phases.theta[47] == theta[47]


def test_surrogate_bounds_survey_error():
    # max-modulus error <= contraction deviation + A (e^m - 1) with
    # m = (residual + certified tails) / (sqrt(pi) (R - r))
    rng = np.random.default_rng(31)
    for k in range(20):
        a = float(rng.uniform(-0.3, 0.3))
        prob = make_problem(target=exp_target(a), eps=0.3, p_max=2000,
                            seed=k)
        res, _ = _approximate_impl(prob)
        C = norm_to_max(prob.hardy_radius, prob.r)
        m = C * (res.trace[-1] + res.tail_bound)
        amax = math.exp(abs(a) * prob.r) + res.contraction_deviation
        bound = res.contraction_deviation + amax * (math.exp(m) - 1.0)
        assert res.max_error <= bound * (1 + 1e-9)


# ---------------------------------------------------------------------------
# empty candidate pool: every prime up to p_max = 10 is a floor prime
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", [
    ea.zeta_spec(),
    ea.dirichlet_spec(4, [0, 1, 0, -1]),
    ea.custom_spec({p: {2: 0.5} for p in (2, 3, 5, 7)}, {0.05: 1.0}),
], ids=["zeta", "chi4", "custom"])
def test_empty_pool_is_an_exhausted_pool(spec):
    prob = make_problem(spec=spec, y=7.0, p_max=10)
    state = ea.init_residual(prob)
    assert len(state.pool_primes) == 0
    assert sorted(state.mandatory) == [2, 3, 5, 7]
    # the blocked row build has no block to run and still leaves typed, empty row sets
    for k, q in enumerate(QUARTER_GRID):
        tws, rows, norm2 = whole_pool_quarter(prob, state.pool_primes, q)
        assert state.u_phase[k].shape == rows.shape == (0, prob.order + 1)
        assert state.u_phase[k].dtype == complex and state.u_norm2.dtype == float
        assert state.correction.shape == tws.shape == (0,)
        assert np.array_equal(state.u_norm2[:, k], norm2)
    # the floor factors are removed exactly as with a non-empty pool
    wider = ea.init_residual(make_problem(spec=spec, y=7.0, p_max=50))
    assert np.array_equal(state.work, wider.work)
    assert state.tail_bound > 0
    state = ea.greedy_rearrange(state, stop_norm=1e-8)
    assert state.accepted == []
    assert state.trace == [state.work_norm()]
    assert state.stall is not None and state.stall.pool_exhausted


def test_empty_pool_floor_product_target_succeeds():
    spec = ea.zeta_spec()
    floor = [2, 3, 5, 7]
    target = ea.product_target(spec, floor, ea.trivial_phases(floor), 0.75)
    res = ea.approximate(make_problem(target=target, y=7.0, p_max=10))
    assert res.status == "success"
    assert res.primes == (2, 3, 5, 7)


def test_empty_pool_unmatched_target_is_pool_exhausted(tmp_path):
    with pytest.raises(ea.PoolExhausted) as exc:
        ea.approximate(make_problem(y=7.0, p_max=10, eps=1e-4))
    assert isinstance(exc.value, ea.ApproximationStall)
    res = exc.value.result
    assert res.status == "pool_exhausted" and res.stall.pool_exhausted
    assert res.max_error > 1e-4
    out = tmp_path / "run"
    code = cli.main(["approximate", "--y", "7", "--pmax", "10", "--eps", "1e-4",
                     "--out", str(out)])
    assert code == 5
    assert (out / "report.txt").read_text().startswith("status pool_exhausted\n")


# ---------------------------------------------------------------------------
# the doubling schedule
# ---------------------------------------------------------------------------


def test_refine_single_stage_core_reduces_to_approximate():
    prob = make_problem(p_max=5000)
    stages = ea.refine_sequence(prob, stages=1)
    direct, _ = _approximate_impl(prob)
    assert stages[0].core_primes == direct.primes
    core_theta = {p: stages[0].phases.theta[p] for p in direct.primes}
    assert core_theta == dict(direct.phases.theta)


def test_refine_three_stages_monotone_and_reuse():
    prob = make_problem(p_max=5000, seed=3)
    stages = ea.refine_sequence(prob, stages=3)
    errs = [st.error for st in stages]
    assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))
    assert all(st.error <= st.schedule_bound for st in stages)
    for prev, cur in zip(stages, stages[1:]):
        for p, tw in prev.phases.theta.items():
            assert cur.phases.theta[p] == tw  # bit-identical reuse
        assert cur.y == 2 * prev.y


def test_refine_with_shift_keeps_inherited_twists(tmp_path):
    # inherited twists are product twists and are not shifted again, so a
    # stage with nothing left to draw keeps the previous stage's product
    out = tmp_path / "run"
    code = cli.main(["refine", "--pmax", "5000", "--seed", "3", "--t0", "1.0",
                     "--out", str(out)])
    assert code == 0
    rows = (out / "report.txt").read_text().splitlines()[2:]
    stages = [line.split() for line in rows]
    errors = [float(st[4]) for st in stages]
    idle = [i for i, st in enumerate(stages) if int(st[6]) == 0]
    assert idle and 0 not in idle
    for i in idle:
        assert abs(errors[i] - errors[i - 1]) <= 1e-12


# every prime up to 500 has a factor, so refine stages leave fillers to draw
CUSTOM_WIDE = ea.custom_spec({int(p): {1: 0.8 * cmath.exp(2j * math.pi * int(p) / 7), 2: 0.1}
                              for p in ea.primes_up_to(500)}, {0.05: 2.0})


def refine_oracle(problem, stages):
    """``refine_sequence`` with every filler draw surveyed, one ``rng.random`` call per draw.

    Returns the finished stages and the stall message (None without a stall).
    """
    beta = problem.schedule_exponent()
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(problem.seed)))
    assigned, out, prev_error = {}, [], math.inf
    for k in range(stages):
        y_k = problem.y * 2.0**k
        core, _ = _approximate_impl(replace(problem, y=y_k, fixed_phases=assigned,
                                            eps=0.5 * problem.eps))
        m_k = max(core.primes)
        filler = [int(p) for p in ea.primes_up_to(m_k) if int(p) not in core.phases.theta]
        bound = approx._SLACK * 2.0 ** (1.0 + (k + 1) * beta) * problem.eps
        best_err, best_pa, used = core.max_error, core.phases, 0
        if filler:
            best_err = math.inf
            while used < approx._MAX_DRAWS:
                for _ in range(min(approx._DRAWS, approx._MAX_DRAWS - used)):
                    theta = dict(core.phases.theta)
                    theta.update(zip(filler, rng.random(len(filler)).tolist()))
                    pa = PhaseAssignment(theta, t0=problem.t0, shifted=core.phases.shifted)
                    err = _survey(problem, pa).max_error
                    if err < best_err:
                        best_err, best_pa = err, pa
                    used += 1
                if best_err <= min(prev_error, bound):
                    break
        if best_err > prev_error + 1e-12:
            return out, (f"stage {k + 1}: error {best_err:.3e} exceeds previous "
                         f"{prev_error:.3e} after {used} draws")
        if best_err > bound + 1e-12:
            return out, (f"stage {k + 1}: error {best_err:.3e} exceeds schedule bound "
                         f"{bound:.3e}")
        assigned = {p: float(best_pa.twist(p) % 1.0) for p in best_pa.theta}
        out.append(ea.RefineStage(stage=k + 1, y=y_k, m_k=m_k, core_primes=core.primes,
                                  core_error=core.max_error, error=best_err,
                                  schedule_bound=bound, draws_used=used, phases=best_pa))
        prev_error = best_err
    return out, None


def stage_bits(st):
    """Every ``RefineStage`` field, floats and twists as their exact bits."""
    pa = st.phases
    return (st.stage, st.y.hex(), st.m_k, st.core_primes, st.core_error.hex(),
            st.error.hex(), st.schedule_bound.hex(), st.draws_used,
            sorted((p, float(th).hex()) for p, th in pa.theta.items()),
            float(pa.t0).hex(), pa.shifted)


REFINE_CASES = pytest.mark.parametrize("spec,kw", [
    (ea.zeta_spec(), dict(p_max=500, seed=0)),
    (ea.zeta_spec(), dict(p_max=500, seed=1)),
    (ea.zeta_spec(), dict(p_max=500, seed=2)),
    (ea.zeta_spec(), dict(p_max=500, seed=3)),
    (ea.zeta_spec(), dict(p_max=2000, seed=2)),
    (ea.zeta_spec(), dict(p_max=500, seed=3, t0=1.0)),
    (ea.dirichlet_spec(4, [0, 1, 0, -1]), dict(p_max=200, seed=1)),
    (CUSTOM_7, dict(p_max=500, eps=0.3)),
    (CUSTOM_WIDE, dict(p_max=500, seed=1)),
], ids=["zeta-s0", "zeta-s1", "zeta-s2", "zeta-s3", "zeta-s2-p2000", "zeta-s3-t0",
        "chi4-s1", "custom7", "custom-wide"])


def refine_bits(prob):
    """``stage_bits`` of the stages ``refine_sequence`` finishes, and its stall message."""
    try:
        return [stage_bits(st) for st in ea.refine_sequence(prob, stages=3)], None
    except ea.RefineStall as exc:
        done = ea.refine_sequence(prob, stages=int(str(exc).split(":")[0].split()[1]) - 1)
        return [stage_bits(st) for st in done], str(exc)


@REFINE_CASES
def test_screened_refine_matches_draw_by_draw_oracle(spec, kw):
    # the screen only decides which draws are surveyed: every stage field and
    # stall message is that of surveying every draw in order
    prob = make_problem(spec=spec, **kw)
    want, stall = refine_oracle(prob, 3)
    assert refine_bits(prob) == ([stage_bits(st) for st in want], stall)


@REFINE_CASES
def test_refine_with_adopted_rows_matches_fresh_builds(monkeypatch, spec, kw):
    prob = make_problem(spec=spec, **kw)
    adopted = refine_bits(prob)
    monkeypatch.setattr(approx, "_adopt_rows", lambda state, prev: 0)
    assert refine_bits(prob) == adopted


def adopted_and_fresh(spec, cut, **kw):
    """A stage's final state, and its successor's state with its rows adopted and built fresh.

    The successor doubles the floor and fixes every prime up to ``cut``, so
    its pool is a suffix of the stage's.
    """
    prob = make_problem(spec=spec, p_max=5000, **kw)
    _, prev = _approximate_impl(replace(prob, eps=0.5 * prob.eps))
    fixed = {int(p): 0.25 * (int(p) % 4) for p in ea.primes_up_to(cut)}
    nxt, _ = ea.contract_target(replace(prob, y=2.0 * prob.y, fixed_phases=fixed))
    adopted, fresh = ea.init_residual(nxt), ea.init_residual(nxt)
    taken = approx._adopt_rows(adopted, prev)
    assert taken == adopted.built
    _quarter_rows(fresh, len(fresh.pool_primes))
    return prev, adopted, fresh


@pytest.mark.parametrize("spec,cut,kw", [
    (ea.zeta_spec(), 200, {}),
    (ea.dirichlet_spec(4, [0, 1, 0, -1]), 200, dict(y=3.0)),
    (CUSTOM_7, 3, dict(eps=0.01)),
    (CUSTOM_WIDE, 200, {}),
    (ea.zeta_spec(), 200, dict(t0=1.0)),
    (CUSTOM_7, 5, dict(eps=0.01)),    # one pool prime: adopted too, a row's bits do not
                                      # depend on its block
], ids=["zeta", "chi4", "custom7", "custom-wide", "zeta-t0", "custom7-alone"])
def test_adopted_rows_match_a_fresh_build(spec, cut, kw):
    prev, adopted, fresh = adopted_and_fresh(spec, cut, **kw)
    n = len(fresh.pool_primes)
    assert 0 < n < len(prev.pool_primes)     # a proper suffix
    # every row prev built past the state's floor
    assert adopted.built == prev.built - (len(prev.pool_primes) - n) > 0
    assert np.shares_memory(adopted.u_phase[0], prev.u_phase[0])   # views, no copy
    _quarter_rows(adopted, n)
    for k in range(len(QUARTER_GRID)):
        assert np.array_equal(adopted.u_phase[k][:n], fresh.u_phase[k])
    assert np.array_equal(adopted.u_norm2[:n], fresh.u_norm2)
    assert np.array_equal(adopted.correction[:n], fresh.correction)
    assert_whole_pool_twists(adopted, n)
    assert np.array_equal(adopted.head[:n], fresh.head[:n])
    assert np.array_equal(adopted.tail_norm[:n], fresh.tail_norm[:n])


@pytest.mark.parametrize("spec,kw,layouts,ends", [
    # pools of at most 64 primes are built in one block and adopted whole
    (ea.zeta_spec(), dict(p_max=291), [(49, 49), (20, 20)], [60, 49, 20]),
    (ea.zeta_spec(), dict(p_max=300), [(50, 50), (21, 21)], [61, 50, 21]),
    (ea.zeta_spec(), dict(p_max=148), [(22, 22), (0, 0)], [33, 22, 0]),
    # a one-prime custom pool adopts its row from a pool of 17 or 19
    (CUSTOM_WIDE, dict(p_max=65, seed=1), [(1, 1), (0, 0)], [17, 1, 0]),
    (CUSTOM_WIDE, dict(p_max=71), [(1, 1), (0, 0)], [19, 1, 0]),
    (CUSTOM_WIDE, dict(p_max=150), [(13, 13), (0, 0)], [34, 13, 0]),
    # adopted prefixes of 53, 88 and 417 rows: the later blocks start there, so
    # their boundaries differ from a fresh build's (64, 128, 256, ...)
    (ea.zeta_spec(), dict(p_max=2000), [(291, 53), (262, 88)], [64, 117, 176]),
    (ea.zeta_spec(), dict(p_max=5000, seed=2), [(657, 53), (606, 417)], [64, 468, 606]),
], ids=["zeta-291", "zeta-300", "zeta-148", "custom-65", "custom-71", "custom-150",
        "zeta-2000", "zeta-5000"])
def test_refine_adoption_at_a_small_block_matches_fresh_builds(monkeypatch, spec, kw, layouts,
                                                               ends):
    prob = make_problem(spec=spec, **kw)
    runs, impl, adopt = [], approx._approximate_impl, approx._adopt_rows
    seen = []     # (pool size, rows taken) of each adoption

    def recording(problem, prev=None):
        res, state = impl(problem, prev)
        runs[-1].append((res.trace, state))
        return res, state

    def adopting(state, prev):
        taken = adopt(state, prev)
        seen.append((len(state.pool_primes), taken))
        return taken

    monkeypatch.setattr(approx, "_approximate_impl", recording)
    monkeypatch.setattr(approx, "_adopt_rows", adopting)
    runs.append([])
    adopted = refine_bits(prob)
    monkeypatch.setattr(approx, "_adopt_rows", lambda state, prev: 0)
    runs.append([])
    assert refine_bits(prob) == adopted
    assert seen == layouts
    assert [state.built for _, state in runs[0]] == ends
    # every core steers alike, and the rows both runs built are the same bits
    for (trace, a), (fresh_trace, b) in zip(*runs):
        assert [v.hex() for v in trace] == [v.hex() for v in fresh_trace]
        n = min(a.built, b.built)
        for k in range(len(QUARTER_GRID)):
            assert np.array_equal(a.u_phase[k][:n], b.u_phase[k][:n])


def test_rows_of_another_pool_are_not_adopted():
    prev, _, _ = adopted_and_fresh(ea.zeta_spec(), 200)
    for kw in (dict(sigma0=0.76), dict(r=0.018), dict(p_max=4000), dict(spec=CUSTOM_WIDE),
               dict(p_max=6000)):
        prob, _ = ea.contract_target(make_problem(**{"p_max": 5000, "y": 4.0, **kw}))
        state = ea.init_residual(prob)
        assert approx._adopt_rows(state, prev) == 0
        assert state.built == 0


def test_refine_builds_each_pool_row_once(monkeypatch):
    def built_primes(adopt):
        built = []
        quarter_rows = approx._quarter_rows

        def recording(state, stop):
            lo = state.built
            quarter_rows(state, stop)
            built.extend(state.pool_primes[lo:state.built].tolist())

        with monkeypatch.context() as mp:
            mp.setattr(approx, "_quarter_rows", recording)
            if not adopt:
                mp.setattr(approx, "_adopt_rows", lambda state, prev: 0)
            stages = ea.refine_sequence(make_problem(p_max=5000, seed=0), stages=3)
        assert all(st.draws_used for st in stages)
        return built

    built = built_primes(adopt=True)
    assert len(built) == len(set(built)) > _FIRST_BLOCK
    # without adoption the later stages build their pools' first blocks again
    fresh = built_primes(adopt=False)
    assert len(fresh) > len(set(fresh)) and len(fresh) > len(built)


def test_screened_refine_surveys_few_draws(monkeypatch):
    prob = make_problem(p_max=2000, seed=2)
    calls = []
    monkeypatch.setattr(approx, "_survey", lambda *a: calls.append(1) or _survey(*a))
    stages = ea.refine_sequence(prob, stages=3)
    draws = sum(st.draws_used for st in stages)
    assert draws >= 192 and len(calls) <= draws // 8


@pytest.mark.parametrize("spec", [
    ea.zeta_spec(),
    ea.dirichlet_spec(4, [0, 1, 0, -1]),
    ea.dirichlet_spec(5, [0, 1, 1j, -1j, -1]),
    CUSTOM_WIDE,
], ids=["zeta", "chi4", "chi5", "custom-wide"])
def test_filler_screen_is_within_delta_of_the_survey(spec):
    prob = make_problem(spec=spec, p_max=2000)
    core, _ = _approximate_impl(replace(prob, eps=0.5 * prob.eps))
    rho = screen_radius(prob)
    # fillers up to 20,000 take every rung; 64 draws of them go in two chunks
    for bound, count in ((1000, 48), (20_000, 64)):
        filler = [int(p) for p in ea.primes_up_to(bound) if int(p) not in core.phases.theta]
        draws = np.random.default_rng(5).random((count, len(filler)))
        screen = _FillerScreen(prob, core.phases, filler)
        errs, delta = screen(draws)
        assert 0.0 < delta < 1e-8   # a tight cut: about 1e-10 of the product's size
        orders = factors._ladder_orders(spec, np.array(filler), rho, prob.sigma0)
        if bound > 1000:
            assert screen.chunk < count and len(set(orders) - {0}) >= (3 if spec.table else 5)
        if spec.kind == "dirichlet" and spec.modulus == 4:
            assert 3 in filler and (orders == 0).any()   # exact factors: the filler 3 has no rung
        assert surveyed_gap(prob, core, filler, draws, errs) <= 1e-3 * delta


def surveyed_gap(prob, core, filler, draws, errs):
    """max |screen error - surveyed error| over the draws."""
    gaps = []
    for tw, e in zip(draws, errs):
        theta = dict(core.phases.theta)
        theta.update(zip(filler, tw.tolist()))
        pa = PhaseAssignment(theta, t0=prob.t0, shifted=core.phases.shifted)
        gaps.append(abs(e - _survey(prob, pa).max_error))
    return max(gaps)


def test_filler_screen_past_the_top_rung_is_within_delta_of_the_survey():
    # at r = 0.2 the cut asks for degree 74 about sigma0: the screen takes the
    # polynomial one past the top rung, whose tail covers the larger cells
    prob = make_problem(r=0.2, gamma_c=1.05, p_max=2000)
    core, _ = _approximate_impl(replace(prob, eps=0.5 * prob.eps))
    filler = [int(p) for p in ea.primes_up_to(5000) if int(p) not in core.phases.theta]
    draws = np.random.default_rng(5).random((16, len(filler)))
    errs, delta = _FillerScreen(prob, core.phases, filler)(draws)
    assert 0.0 < delta < 1e-8
    assert surveyed_gap(prob, core, filler, draws, errs) <= delta


SCREEN_SPECS = pytest.mark.parametrize("spec", [
    ea.zeta_spec(),
    ea.dirichlet_spec(5, [0, 1, 1j, -1j, -1]),
    CUSTOM_WIDE,
], ids=["zeta", "chi5", "custom-wide"])

#: the ladder's cut, and a coarse one under which every rung shows
SCREEN_CUTS = pytest.mark.parametrize("cut", [factors._LADDER_CUT, 1e-6], ids=["cut", "coarse"])


def screen_radius(prob):
    """rho = max |s| over the survey grid: the radius of the screen's ``_log_taylor`` call."""
    return float(np.max(np.abs(approx._survey_grid(prob).points())))


@SCREEN_SPECS
@SCREEN_CUTS
def test_screen_bands_follow_the_rung_rule_and_bound_their_cut(monkeypatch, spec, cut):
    monkeypatch.setattr(factors, "_LADDER_CUT", cut)
    prob = make_problem(spec=spec)
    ps = ea.primes_up_to(20_000)[1:]
    rho = screen_radius(prob)
    orders = factors._ladder_orders(spec, ps, rho, prob.sigma0)
    # a prime's rung is the least one whose bound on the terms past it (the
    # majorant's last column at that order) is <= cut; a prime without a rung
    # (0) has a bound above it at the top rung
    rungs = list(factors._LADDER_RUNGS)
    top = rungs[-1]
    q = np.exp((rho - prob.sigma0) * np.log(ps.astype(float)))
    past = {m: spec.log_series_tail(ps, q, m)[1][:, -1] for m in rungs}
    assert len(set(orders.tolist()) - {0}) >= 3
    for m in set(orders.tolist()):
        at = orders == m
        if m:
            assert np.all(past[m][at] <= cut)
        if m != rungs[0]:
            lower = rungs[rungs.index(m) - 1] if m else top
            assert np.all(past[lower][at] > cut)
    # the tail bounds what the rung and degree cuts drop against the top-rung
    # series on the survey grid
    tw = np.random.default_rng(3).random(len(ps))
    coef, tail, none = factors._log_taylor(spec, ps, tw[:, None], prob.sigma0, rho)
    assert np.array_equal(none, orders == 0)
    full_rows = _u_rows(spec, ps[~none], tw[~none], prob.sigma0, prob.order, top)
    pts = approx._survey_grid(prob).points()
    gap = np.max(np.abs(np.polyval(coef[::-1, 0], pts)
                        - np.polyval(full_rows.sum(axis=0)[::-1], pts)))
    rounding = 1e-14 * float(np.sum(np.abs(full_rows) * rho ** np.arange(prob.order + 1)))
    assert gap <= tail + rounding


def cumulative_ladder_orders(spec, primes, radius, sigma0):
    """Band-ladder rungs by the sum of the majorant's terms past each rung, at the top rung."""
    rungs = np.array(factors._LADDER_RUNGS)
    q = np.exp((radius - sigma0) * np.log(primes.astype(float)))
    terms = spec.log_series_tail(primes, q, rungs[-1])[1]
    past = np.cumsum(terms[:, ::-1], axis=1)[:, ::-1][:, rungs]   # the terms past each rung
    fits = past <= factors._LADDER_CUT
    return np.where(fits.any(axis=1), rungs[np.argmax(fits, axis=1)], 0)


@pytest.mark.parametrize("spec", [
    ea.zeta_spec(), ea.dirichlet_spec(5, [0, 1, 1j, -1j, -1]), CUSTOM_7, CUSTOM_WIDE,
], ids=["zeta", "chi5", "custom7", "custom-wide"])
def test_ladder_rungs_are_never_below_the_cumulative_rule(spec):
    # the closed-form bound on the terms past a rung is at least their sum, so
    # a rung may only rise; no rung (0) is above every rung
    ps = ea.primes_up_to(100_000)
    moved = 0
    for sigma0 in np.linspace(0.55, 1.6, 8):
        for rho in np.linspace(0.005, 0.15, 8):
            new = factors._ladder_orders(spec, ps, rho, sigma0)
            old = cumulative_ladder_orders(spec, ps, rho, sigma0)
            new, old = np.where(new == 0, 99, new), np.where(old == 0, 99, old)
            assert np.all(new >= old)
            moved += int(np.sum(new > old))
    assert moved <= 1e-4 * 64 * len(ps)


@SCREEN_SPECS
@SCREEN_CUTS
def test_screen_sums_are_the_band_rows(monkeypatch, spec, cut):
    monkeypatch.setattr(factors, "_LADDER_CUT", cut)
    prob = make_problem(spec=spec, p_max=2000)
    core, _ = _approximate_impl(replace(prob, eps=0.5 * prob.eps))
    ps = np.array([int(p) for p in ea.primes_up_to(20_000) if int(p) not in core.phases.theta])
    rho = screen_radius(prob)
    orders = factors._ladder_orders(spec, ps, rho, prob.sigma0)
    # the screen's call: one column per draw, about sigma0
    draws = np.random.default_rng(9).random((3, len(ps)))
    coef, tail, none = factors._log_taylor(spec, ps, draws.T, prob.sigma0, rho)
    assert coef.shape[1] == len(draws) and np.array_equal(none, orders == 0)
    scale = rho ** np.arange(len(coef))
    for got, tw in zip(coef.T, draws):
        rows = [_u_rows(spec, ps[orders == m], tw[orders == m], prob.sigma0, len(coef) - 1, m)
                for m in factors._LADDER_RUNGS if (orders == m).any()]
        want = sum(r.sum(axis=0) for r in rows)
        size = sum(np.abs(r).sum(axis=0) for r in rows)
        assert np.all(np.abs(got - want) * scale <= 1e-13 * np.max(size * scale))
    # a one-column call about the grid's centre gives the series route's bits
    s = approx._survey_grid(prob).points() + prob.sigma0
    phases = PhaseAssignment(dict(zip(ps.tolist(), draws[0].tolist())))
    c = complex(0.5 * (s.real.min() + s.real.max()), 0.5 * (s.imag.min() + s.imag.max()))
    one, tail, none = factors._log_taylor(spec, ps, draws[0][:, None], c,
                                          float(np.max(np.abs(s - c))))
    logs = factors._prime_logs(ps)
    twists = phases.twists(ps, logs.real)
    series = factors._series_product(spec, s, ps, logs, twists)
    if tail > factors._SERIES_TAIL:     # the coarse cut
        assert series is None
        return
    acc = np.full(s.shape, one[-1, 0])
    for a in one[-2::-1, 0]:
        acc = acc * (s - c) + a
    want = np.exp(acc) * factors._factor_product(spec, s, ps[none], logs[none], twists[none])
    assert series.tobytes() == want.tobytes()


def test_refine_requires_positive_stage_count():
    with pytest.raises(ValueError):
        ea.refine_sequence(make_problem(), stages=0)


# ---------------------------------------------------------------------------
# shift parameter
# ---------------------------------------------------------------------------


def test_shift_moves_evaluation_point():
    # with twist gamma_p = t0 log p / 2pi the product value at s equals the
    # unshifted product at s + i t0
    spec = ea.zeta_spec()
    ps = [int(p) for p in ea.primes_up_to(50)]
    t0 = 0.7
    shifted = ea.PhaseAssignment({p: 0.0 for p in ps}, t0=t0)
    for s in (2.0, 1.2 + 0.3j):
        a = ea.partial_product(spec, s, ps, shifted)
        b = ea.partial_product(spec, s + 1j * t0, ps)
        assert abs(a - b) < 1e-12
    z = twist_argument(5, 2.0, shifted)
    assert abs(z - 5.0 ** (-2 - 1j * t0)) < 1e-15
