import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

import eulerapprox as ea
from eulerapprox import factors
from eulerapprox.approx import _u_rows
from eulerapprox.exact import QI, QI_ONE
from eulerapprox.factors import HypothesisError, _custom_log_coefficients, interval_weights
from eulerapprox.hardy import TWO_PI


def make_custom(table, c_map=None):
    return ea.custom_spec(table, c_map or {0.05: 2.0})


CHI4 = ea.dirichlet_spec(4, [0, 1, 0, -1])


# ---------------------------------------------------------------------------
# factor evaluation
# ---------------------------------------------------------------------------


def test_eval_factor_zeta_trivial():
    spec = ea.zeta_spec()
    assert ea.eval_factor(spec, 2, 0.0) == 1.0
    assert abs(ea.eval_factor(spec, 2, 0.5) - 2.0) < 0.5**64 / 0.5


def test_eval_factor_character_against_closed_form():
    # closed form (1 - chi(p) z)^-1 is the oracle for the truncated series
    z = 0.1
    val = ea.eval_factor(CHI4, 3, z)
    oracle = 1.0 / (1.0 - CHI4.chi(3) * z)
    assert abs(val - oracle) < abs(z) ** 65 / (1 - abs(z))
    assert abs(val - 1.0 / (1.0 + z)) < 1e-12


def test_eval_factor_rejects_unit_disc_boundary():
    with pytest.raises(ea.FactorDomainError):
        ea.eval_factor(ea.zeta_spec(), 2, 1.0)
    with pytest.raises(ea.FactorDomainError):
        ea.factor_value(ea.zeta_spec(), 2, 1.2 + 0j)


def test_custom_spec_zero_inside_rejected():
    # 1 - 1.25 z vanishes at z = 0.8 inside the disc
    with pytest.raises(ea.FactorDomainError):
        make_custom({2: {1: -1.25}}, c_map={0.5: 2.0})


def test_custom_spec_growth_violation_rejected():
    with pytest.raises(ea.FactorDomainError):
        ea.custom_spec({2: {1: 5.0}}, {0.05: 1.0})


@pytest.mark.parametrize("m", [0, -1])
def test_custom_spec_index_below_one_rejected(m):
    # a row "2 0 0.5 0" would otherwise be dropped, leaving prime 2 at factor 1
    with pytest.raises(ea.FactorDomainError, match="m < 1"):
        ea.custom_spec({2: {1: 0.25, m: 0.5}}, {0.05: 2.0})


# ---------------------------------------------------------------------------
# partial products
# ---------------------------------------------------------------------------


def test_empty_product_is_one():
    assert ea.partial_product(ea.zeta_spec(), 2.0, []) == 1.0


def test_singleton_product_is_factor_value():
    spec = ea.zeta_spec()
    v = ea.partial_product(spec, 2.0, [7])
    assert v == ea.factor_value(spec, 7, 7.0**-2)


def test_zeta_product_flipped_phases():
    # twist 1/2 flips the factor argument sign: product of (1 + p^-2)^-1
    spec = ea.zeta_spec()
    ps = [int(p) for p in ea.primes_up_to(100)]
    phases = ea.PhaseAssignment({p: 0.5 for p in ps})
    got = ea.partial_product(spec, 2.0, ps, phases)
    oracle = 1.0
    for p in ps:
        oracle *= 1.0 / (1.0 + p**-2)
    assert abs(got - oracle) < 1e-12

    exact = ea.partial_product_exact(spec, 2, ps, {p: Fraction(1, 2) for p in ps})
    exact_oracle = QI_ONE
    for p in ps:
        exact_oracle = exact_oracle * (QI_ONE / (QI_ONE + QI(Fraction(1, p * p), Fraction(0))))
    assert exact.re == exact_oracle.re and exact.im == exact_oracle.im
    assert abs(exact.to_complex() - got) < 1e-12
    # the live vectorized route at the same s
    grid = ea.partial_product_grid(spec, np.array([2.0 + 0j]), ps, phases)[0]
    assert abs(exact.to_complex() - grid) < 1e-12


def test_zeta_error_monotone_and_close():
    # independent summation oracle for the limit value
    n = np.arange(1, 2_000_001, dtype=float)
    zeta2 = float(np.sum(1.0 / n**2)) + 1.0 / 2_000_000  # tail integral correction
    assert abs(zeta2 - math.pi**2 / 6) < 1e-9
    spec = ea.zeta_spec()
    errs = []
    for cutoff in (10**2, 10**3, 10**4):
        ps = ea.primes_up_to(cutoff)
        errs.append(abs(ea.partial_product(spec, 2.0, ps) - zeta2))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-2


def test_product_grid_matches_scalar():
    spec = ea.zeta_spec()
    ps = [int(p) for p in ea.primes_up_to(50)]
    phases = ea.PhaseAssignment({p: 0.25 for p in ps}, t0=0.3)
    s = np.array([2.0 + 0.1j, 0.8 - 0.2j, 1.5])
    grid = ea.partial_product_grid(spec, s, ps, phases)
    for si, gi in zip(s, grid):
        assert abs(ea.partial_product(spec, complex(si), ps, phases) - gi) < 1e-12


def test_phase_assignment_shift_invariant():
    pa = ea.PhaseAssignment({2: 0.1, 3: 0.9}, t0=2.0)
    assert pa.gamma(2) == 2.0 * math.log(2) / (2 * math.pi)
    assert pa.twist(3) == 0.9 + 2.0 * math.log(3) / (2 * math.pi)
    restricted = ea.PhaseAssignment({2: 0.1, 3: 0.9}, t0=2.0, shifted=frozenset([2]))
    assert restricted.gamma(3) == 0.0
    ps = [2, 3, 5, 7]
    logs = np.array([math.log(p) for p in ps])
    for phases in (pa, restricted, ea.PhaseAssignment({3: 0.5})):
        assert phases.twists(ps, logs).tolist() == [phases.twist(p) for p in ps]
    with pytest.raises(ValueError):
        ea.PhaseAssignment({2: 1.0})


# ---------------------------------------------------------------------------
# log factors and the tail bound
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("form", [list, tuple, lambda ps: np.array(ps, dtype=np.int64),
                                  lambda ps: [np.int64(p) for p in ps]],
                         ids=["list", "tuple", "int64", "numpy-scalars"])
def test_twists_are_twist_bit_for_bit(form):
    # asked primes past 285,343 (where np.log and math.log part) and not in increasing order
    ps = [int(p) for p in ea.primes_up_to(400_000)[::251]] + [285_343, 351_497, 2, 3]
    rng = np.random.default_rng(9)
    mapped = [ps[i] for i in rng.permutation(len(ps))[:len(ps) // 2]]    # inserted out of order
    theta = {p: float(rng.random()) for p in mapped}
    theta[mapped[0]] = -0.0      # a phases file may carry it: twist gives 0.0
    logs = np.array([math.log(p) for p in ps])
    cases = [ea.PhaseAssignment(theta), ea.PhaseAssignment(theta, t0=1.0),
             ea.PhaseAssignment(theta, t0=-2.5, shifted=frozenset(ps[::3] + [7])),
             ea.PhaseAssignment(theta, t0=1.0, shifted=frozenset()),
             ea.PhaseAssignment({}), ea.PhaseAssignment({}, t0=0.3),
             ea.PhaseAssignment({}, t0=0.3, shifted=frozenset(ps[:5]))]
    for phases in cases:
        want = [phases.twist(p).hex() for p in ps]
        assert [v.hex() for v in phases.twists(form(ps), logs).tolist()] == want
        # the mapped primes in increasing order: the lookup-free path
        keys = sorted(theta)
        want = [phases.twist(p).hex() for p in keys]
        got = phases.twists(form(keys), np.array([math.log(p) for p in keys]))
        assert [v.hex() for v in got.tolist()] == want


def test_phase_assignment_reads_theta_at_construction():
    theta = {5: 0.5, 3: 0.25}
    phases = ea.PhaseAssignment(theta, t0=1.0)
    theta[7] = 0.75
    assert phases.twists([3, 5, 7], np.log([3.0, 5.0, 7.0]))[2] == 1.0 * np.log(7.0) / TWO_PI


def test_log_factor_mercator():
    spec = ea.zeta_spec()
    p, sigma0 = 101, 0.75
    x = p ** (-sigma0)
    lf = ea.log_factor(spec, p, 0.0, theta=0.0, sigma0=sigma0)
    assert abs(lf.total - (-math.log(1 - x))) < 1e-12
    assert abs(lf.leading - x) < 1e-15
    series = sum(x**k / k for k in range(2, 40))
    assert abs(lf.tail - series) < 1e-14


def test_phase_correction_zero_for_positive_real():
    assert ea.zeta_spec().phase_correction(13) == 0.0
    spec = make_custom({3: {1: -0.5}})
    assert abs(spec.phase_correction(3) - 0.5) < 1e-15


def test_exp_log_consistency():
    # exp of the summed log factors reproduces the product exactly
    spec = ea.zeta_spec()
    ps = [int(p) for p in ea.primes_up_to(50)]
    rng = np.random.default_rng(5)
    for _ in range(100):
        s = complex(rng.uniform(0.16, 2.5), rng.uniform(-3, 3))
        theta = {p: float(rng.random()) for p in ps}
        phases = ea.PhaseAssignment(theta)
        assert max(abs(ea.factors.twist_argument(p, s, phases)) for p in ps) < 0.9
        total = sum(ea.log_factor(spec, p, s, theta[p], sigma0=0.0).total for p in ps)
        prod = ea.partial_product(spec, s, ps, phases)
        assert abs(cmath.exp(total) - prod) <= 1e-9 * abs(prod)


def test_tail_bound_value_and_gates():
    spec = ea.zeta_spec()
    p = 10**6 + 3
    got = ea.log_tail_bound(spec, p, eps=0.05, r=0.02, sigma0=0.75)
    assert abs(got - 4.0 * p**-1.1) < 1e-18
    with pytest.raises(ea.FactorDomainError):
        ea.log_tail_bound(spec, 2, eps=0.05, r=0.02, sigma0=0.75)
    with pytest.raises(ea.FactorDomainError):
        ea.log_tail_bound(spec, 10**6, eps=0.2, r=0.02, sigma0=0.75)


def test_tail_bound_dominates_boundary_samples():
    spec = ea.zeta_spec()
    r, sigma0, eps = 0.02, 0.75, 0.05
    for p in (67, 499, 10007):
        bound = ea.log_tail_bound(spec, p, eps, r, sigma0)
        worst = 0.0
        for ang in np.linspace(0, 2 * math.pi, 64, endpoint=False):
            s = r * cmath.exp(1j * ang)
            lf = ea.log_factor(spec, p, s, theta=0.37, sigma0=sigma0)
            worst = max(worst, abs(lf.tail))
        assert worst <= bound


def test_branch_tracking_small_prime_custom():
    spec = make_custom({2: {1: 0.9}}, c_map={0.05: 1.0})
    lf = ea.log_factor(spec, 2, 0.0, theta=0.0, sigma0=0.55, r=0.3)
    z = 2**-0.55
    assert abs(lf.total - cmath.log(1 + 0.9 * z)) < 1e-9


# ---------------------------------------------------------------------------
# spec file round trip
# ---------------------------------------------------------------------------


def test_custom_spec_file_roundtrip(tmp_path):
    spec = make_custom({2: {1: 0.25 + 0.1j}, 5: {1: -0.3, 2: 0.05j}},
                       c_map={0.05: 2.0, 0.1: 1.5})
    path = str(tmp_path / "spec.txt")
    ea.save_custom_spec(path, spec)
    back = ea.load_custom_spec(path)
    assert back.c_map == spec.c_map
    for p in (2, 5):
        for m in spec.table[p]:
            assert back.coeff(p, m) == spec.coeff(p, m)


def test_custom_spec_file_requires_growth_header(tmp_path):
    path = str(tmp_path / "nogrowth.txt")
    with open(path, "w") as fh:
        fh.write("2 1 0.25 0.0\n")
    with pytest.raises(ValueError):
        ea.load_custom_spec(path)


# ---------------------------------------------------------------------------
# block partition (synthetic windows; the default window is empty at desk h)
# ---------------------------------------------------------------------------


def test_partition_blocks_zeta_wide_window():
    spec = ea.zeta_spec()
    h, lam, wf = 10**5, 0.2, 0.2
    ps, w = interval_weights(spec, h, lam, wf)
    assert len(ps) > 100
    total = float(np.sum(w))
    c0 = 0.9 * total / h ** (lam / 4)
    part = ea.partition_blocks(spec, h, lam, c0, width_factor=wf)
    floor = 0.1 * part.threshold
    assert not part.degenerate
    union = sorted(p for blk in part.blocks for p in blk)
    assert union == sorted(int(p) for p in ps)
    assert len(set(union)) == len(union)
    for blk, claimed in zip(part.blocks, part.block_sums):
        recomputed = sum(abs(spec.a1(p)) * p ** (lam - 1.0) for p in blk)
        assert abs(recomputed - claimed) < 1e-12
        assert recomputed >= floor - 1e-12


def test_partition_all_equal_weights_round_robin():
    # lam = 1 removes the damping; equal leading coefficients give equal weights
    ps = [int(p) for p in ea.primes_up_to(197) if p > 100]
    assert len(ps) == 20
    table = {p: {1: 0.5} for p in ps}
    spec = ea.custom_spec(table, {0.05: 1.0})
    h, lam, wf = 100.0, 1.0, 0.97
    total = 20 * 0.5
    c0 = 0.999 * total / h ** (lam / 4)
    part = ea.partition_blocks(spec, h, lam, c0, width_factor=wf)
    assert all(len(blk) == 5 for blk in part.blocks)
    assert part.blocks[0][0] == 101 and part.blocks[1][0] == 103


def test_partition_hypothesis_failure():
    spec = ea.zeta_spec()
    with pytest.raises(HypothesisError):
        ea.partition_blocks(spec, 10**5, 0.2, c0=1.0)  # empty default window


def test_partition_few_primes_degenerate():
    spec = ea.zeta_spec()
    # window (100, 104.9] holds primes 101, 103 only
    part = ea.partition_blocks(spec, 100.0, 0.2, c0=0.0, width_factor=0.049)
    assert part.degenerate
    union = [p for blk in part.blocks for p in blk]
    assert sorted(union) == [101, 103]


def test_partition_oversized_addend_rejected():
    ps = [int(p) for p in ea.primes_up_to(197) if p > 100]
    table = {p: {1: 0.9 if p == 101 else 1e-4} for p in ps}
    spec = ea.custom_spec(table, {0.05: 1.0})
    total = 0.9 + 19 * 1e-4
    c0 = 0.999 * total / 100.0**0.25
    with pytest.raises(HypothesisError):
        ea.partition_blocks(spec, 100.0, 1.0, c0, width_factor=0.97)


# ---------------------------------------------------------------------------
# the spec's vectorized family methods against per-prime reference loops
# (same arithmetic, so the results must be bit-identical)
# ---------------------------------------------------------------------------

CHI5 = ea.dirichlet_spec(5, [0, 1, 1j, -1j, -1])
CUSTOM = make_custom({2: {1: 0.25 + 0.1j, 2: 0.05}, 3: {1: -0.3}, 5: {1: 0.2j, 3: 0.01},
                      7: {2: 0.1}}, c_map={0.05: 2.0})
FAMILIES = pytest.mark.parametrize("spec", [ea.zeta_spec(), CHI4, CHI5, CUSTOM],
                                   ids=["zeta", "chi4", "chi5", "custom"])
POOL = np.array([11, 2, 3, 13, 5, 7, 97, 101], dtype=np.int64)


def reference_log_coefficients(spec, p, order):
    """The formal-log recurrence m c_m = m a_m - sum_{j<m} j c_j a_{m-j}, per prime."""
    a = np.zeros(order + 1, dtype=complex)
    for m in range(1, order + 1):
        a[m] = spec.coeff(p, m)
    c = np.zeros(order + 1, dtype=complex)
    for m in range(1, order + 1):
        acc = m * a[m]
        for j in range(1, m):
            acc -= j * c[j] * a[m - j]
        c[m] = acc / m
    return c[1:]


def reference_rows(cm, primes, twists, sigma0, order):
    """Disc rows from an explicit coefficient array cm[p, m-1] = c_m(p).

    G[p, m] = c_m B^m, B = e(-twist) p^-sigma0; the residue sums T_j =
    sum_{m = j mod 4} G[p, m] m^n are added in j order and multiplied by
    (-1)^n (log p)^n / n!.
    """
    lnp = np.log(primes.astype(float))
    base = np.exp(-1j * TWO_PI * twists - sigma0 * lnp)
    ms = np.arange(1, cm.shape[1] + 1)
    G = cm * base[:, None] ** ms[None, :].astype(float)
    ns = np.arange(order + 1, dtype=float)
    mpow = ms[:, None].astype(float) ** ns[None, :]
    S = 0.0
    for j in range(4):
        S = S + G[:, ms % 4 == j] @ mpow[ms % 4 == j]
    fact = np.cumprod(np.concatenate(([1.0], np.arange(1, order + 1, dtype=float))))
    return S * (lnp[:, None] ** ns[None, :] / (fact * (-1.0) ** ns)[None, :])


def test_zeta_is_the_character_mod_one():
    assert ea.zeta_spec() == ea.dirichlet_spec(1, [1])
    assert ea.zeta_spec().kind == "dirichlet"


@FAMILIES
def test_leading_matches_scalar_a1(spec):
    assert np.array_equal(spec.leading(POOL), np.array([spec.a1(int(p)) for p in POOL]))
    assert spec.leading(POOL[:0]).shape == (0,)


@FAMILIES
def test_phase_correction_matches_scalar_phase(spec):
    def scalar(p):
        a = spec.a1(p)
        return 0.0 if a == 0 else (cmath.phase(a) / TWO_PI) % 1.0

    assert np.array_equal(spec.phase_correction(POOL), [scalar(int(p)) for p in POOL])


def test_custom_log_terms_match_recurrence():
    order = 64
    base = np.exp(-1j * TWO_PI * np.linspace(0.0, 0.9, len(POOL)) - 0.75 * np.log(POOL))
    ms = np.arange(1, order + 1, dtype=float)
    cm = np.array([reference_log_coefficients(CUSTOM, int(p), order) for p in POOL])
    assert np.array_equal(CUSTOM.log_terms(POOL, base, order), cm * base[:, None] ** ms[None, :])


def test_custom_log_rows_are_worked_out_once():
    # 4,203 distinct rows, more than a 4,096-row cache holds
    ps = ea.primes_up_to(40_000)
    spec = make_custom({int(p): {1: 0.3 * cmath.exp(1j * int(p))} for p in ps})
    base = np.full(len(ps), 0.5 + 0j)
    first = spec.log_terms(ps, base, 8)
    misses = _custom_log_coefficients.cache_info().misses
    assert np.array_equal(spec.log_terms(ps, base, 8), first)
    assert _custom_log_coefficients.cache_info().misses == misses


@pytest.mark.parametrize("spec", [ea.zeta_spec(), CHI4, CUSTOM], ids=["zeta", "chi4", "custom"])
def test_u_rows_match_coefficient_rows(spec):
    order, series_order, sigma0 = 16, 64, 0.75
    twists = np.linspace(0.05, 0.95, len(POOL))
    ms = np.arange(1, series_order + 1, dtype=float)
    if spec is CUSTOM:
        cm = np.array([reference_log_coefficients(spec, int(p), series_order) for p in POOL])
    elif spec.modulus == 1:
        cm = (1.0 / ms)[None, :] * np.ones((len(POOL), 1))        # (1/m) B^m
    else:
        chi = np.array([spec.chi(int(p)) for p in POOL])
        cm = chi[:, None] ** ms[None, :] / ms[None, :]            # chi^m/m B^m
    got = _u_rows(spec, POOL, twists, sigma0, order, series_order)
    assert np.array_equal(got, reference_rows(cm, POOL, twists, sigma0, order))


def test_custom_log_series_tail_matches_factor_loop():
    q = np.exp(-0.71 * np.log(POOL.astype(float)))
    rho = 1.0 - 1e-3
    ang = np.exp(1j * TWO_PI * np.arange(64) / 64)
    ks = np.array([max(abs(np.log(ea.eval_factor(CUSTOM, int(p), rho * a,
                                                 m_max=max(1, CUSTOM.table_degree(int(p))))))
                       for a in ang) for p in POOL])
    got_k, _ = CUSTOM.log_series_tail(POOL, q, 64)
    assert np.array_equal(got_k, ks)


def test_custom_log_bounds_are_worked_out_once(monkeypatch):
    # K of each table row takes 64 factor evaluations on the first call only
    ps = ea.primes_up_to(200)
    spec = make_custom({int(p): {1: 0.3 * cmath.exp(1j * int(p)), 2: 0.05} for p in ps})
    q = np.exp(-0.71 * np.log(ps.astype(float)))
    factors._custom_log_bound.cache_clear()
    calls = []
    row_value = factors._row_value
    monkeypatch.setattr(factors, "_row_value", lambda row, z: calls.append(z) or row_value(row, z))
    first = spec.log_series_tail(ps, q, 16)
    assert len(calls) == 64 * len(ps)
    calls.clear()
    second = spec.log_series_tail(ps, q, 16)
    assert not calls
    assert all(np.array_equal(a, b) for a, b in zip(first, second))


def test_custom_log_series_majorant_dominates_coefficients():
    # log(1 + 0.1 z^2) = sum_j (-1)^(j+1) 0.1^j z^(2j) / j, so |c_2| = 0.1 > K/2
    spec = make_custom({7: {2: 0.1}})
    order = 64
    primes = np.array([7], dtype=np.int64)
    q = np.exp(-0.71 * np.log(primes.astype(float)))
    k, terms = spec.log_series_tail(primes, q, order)
    exact = np.zeros(order)
    for j in range(1, order // 2 + 1):
        exact[2 * j - 1] = 0.1**j / j
    assert k[0] / 2 < exact[1]
    assert terms.shape == (1, order + 1)
    assert np.all(terms[0, :order] >= exact * q[0] ** np.arange(1, order + 1))


def test_grid_factor_product_matches_scalar_custom():
    spec = CUSTOM
    ps = [int(p) for p in ea.primes_up_to(30)]
    phases = ea.PhaseAssignment({p: 0.1 * (i % 10) for i, p in enumerate(ps)}, t0=0.4)
    s = np.array([0.75 + 0.01j, 0.8 - 0.02j, 1.5 + 3j])
    # reference: each table polynomial summed by explicit powers over the grid
    ref = np.ones_like(s)
    for p in ps:
        z = np.exp(-1j * TWO_PI * phases.twist(p) - s * math.log(p))
        fz, zp = np.ones_like(s), np.ones_like(s)
        for m in range(1, spec.table_degree(p) + 1):
            zp = zp * z
            a = spec.table.get(p, {}).get(m)
            if a:
                fz = fz + a * zp
        ref = ref * fz
    grid = ea.partial_product_grid(spec, s, ps, phases)
    assert np.array_equal(grid, ref)
    for si, gi in zip(s, grid):
        assert abs(ea.partial_product(spec, complex(si), ps, phases) - gi) < 1e-12
    for p in (2, 5, 11):
        z = 0.3 - 0.4j
        assert ea.factor_value(spec, p, z) == ea.eval_factor(
            spec, p, z, m_max=max(1, spec.table_degree(p)))


# ---------------------------------------------------------------------------
# the blocked grid product against the per-prime loop it replaced
# ---------------------------------------------------------------------------


def factor_route(*args):
    """``partial_product_grid`` with the series route switched off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(factors, "_series_product", lambda *_: None)
        return ea.partial_product_grid(*args)


def per_prime_product(spec, s, primes, phases=None):
    """Oracle: one factor array per prime, folded into the product one at a time."""
    phases = phases or ea.trivial_phases()
    s = np.asarray(s, dtype=complex)
    acc = np.ones_like(s)
    for p in primes:
        p = int(p)
        z = np.exp(-1j * TWO_PI * phases.twist(p) - s * math.log(p))
        acc = spec.times_factor(acc, p, z)
    return acc


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype == complex
    assert np.array_equal(got.reshape(-1).view(float), want.reshape(-1).view(float))


PRODUCT_SPECS = pytest.mark.parametrize(
    "spec", [ea.zeta_spec(), CHI4, CHI5, CUSTOM, make_custom({11: {}})],
    ids=["zeta", "chi4", "chi5", "custom", "custom-no-rows"])
PRODUCT_PRIMES = [int(p) for p in ea.primes_up_to(1500)]   # 239: no multiple of any block's rows


def product_phases(shifted):
    theta = {p: (0.37 * i) % 1.0 for i, p in enumerate(PRODUCT_PRIMES) if i % 3}
    if not shifted:
        return ea.PhaseAssignment(theta)
    return ea.PhaseAssignment(theta, t0=1.7, shifted=frozenset(PRODUCT_PRIMES[::2]))


@PRODUCT_SPECS
@pytest.mark.parametrize("shifted", [False, True], ids=["t0=0", "t0-restricted"])
def test_blocked_product_matches_per_prime_loop(spec, shifted):
    phases = product_phases(shifted)
    rng = np.random.default_rng(7)
    for n in (0, 1, 9, 512, 767, 1024, 4096):
        s = 0.8 + 0.03 * (rng.normal(size=n) + 1j * rng.normal(size=n)) + 35j
        assert_same_bits(factor_route(spec, s, PRODUCT_PRIMES, phases),
                         per_prime_product(spec, s, PRODUCT_PRIMES, phases))
    s = 0.7 + rng.random((3, 5)) + 1j * rng.random((3, 5))
    assert_same_bits(factor_route(spec, s, PRODUCT_PRIMES, phases),
                     per_prime_product(spec, s, PRODUCT_PRIMES, phases))
    # On a 0-d s the loop leaves arrays after the first factor, and numpy's
    # scalar complex product rounds differently from its array loop, so the
    # bits are those of the loop over the one-point array.
    s = np.asarray(0.9 - 2j)
    got = factor_route(spec, s, PRODUCT_PRIMES, phases)
    assert isinstance(got, np.complex128)
    assert_same_bits(got, per_prime_product(spec, s.reshape(1), PRODUCT_PRIMES, phases)[0])
    scalar_loop = per_prime_product(spec, s, PRODUCT_PRIMES, phases)
    # a few roundings per factor on either side
    assert abs(got - scalar_loop) <= 4 * len(PRODUCT_PRIMES) * np.finfo(float).eps * abs(got)
    s = np.array([0.75 + 1j, 0.8 - 3j])
    assert_same_bits(factor_route(spec, s, [], phases), np.ones(2, dtype=complex))


@PRODUCT_SPECS
def test_blocked_product_over_several_blocks_of_few_points(spec):
    # 4,203 primes: two blocks at 9 points, one (with a doubled column) at 1
    ps = [int(p) for p in ea.primes_up_to(40_000)]
    for s in (np.array([0.9 + 10j]), 0.9 + 10j + 0.01 * np.arange(9)):
        assert_same_bits(factor_route(spec, s, ps), per_prime_product(spec, s, ps))


def test_both_routes_take_math_log_of_each_prime(monkeypatch):
    # np.log differs from math.log in the last bit at these primes (on x86-64
    # with glibc), and the per-prime loop and ``twist`` take math.log
    ps = [int(p) for p in ea.primes_up_to(1000)] + [285_343, 287_549, 351_497, 1_000_003]
    phases = ea.PhaseAssignment({p: (0.37 * i) % 1.0 for i, p in enumerate(ps)}, t0=1.3)
    circle = 0.8 + 40j + 0.02 * np.exp(1j * TWO_PI * np.arange(512) / 512)
    for s in (np.array([0.8 + 40j]), circle[::57]):
        for pa in (phases, None):
            assert_same_bits(ea.partial_product_grid(ea.zeta_spec(), s, ps, pa),
                             per_prime_product(ea.zeta_spec(), s, ps, pa))
    built, log_taylor = [], factors._log_taylor

    def recorded(spec, primes, twists, c, rho):
        built.append(twists[:, 0])
        return log_taylor(spec, primes, twists, c, rho)

    monkeypatch.setattr(factors, "_log_taylor", recorded)
    monkeypatch.setattr(factors, "_SERIES_BUILDS", {})
    ea.partial_product_grid(ea.zeta_spec(), circle, ps, phases)
    assert built[0].tobytes() == np.array([phases.twist(p) for p in ps]).tobytes()


def test_products_do_not_depend_on_the_prime_sets_evaluated_before(monkeypatch):
    spec, phases = ea.zeta_spec(), product_phases(True)
    sets = [PRODUCT_PRIMES, PRODUCT_PRIMES[:100], PRODUCT_PRIMES[50:]]
    few = 0.8 + 35j + 0.02 * np.arange(9)
    many = 0.8 + 35j + 0.02 * np.exp(1j * TWO_PI * np.arange(512) / 512)   # the series route

    def evaluate(ps):
        return ea.partial_product_grid(spec, few, ps, phases), \
            ea.partial_product_grid(spec, many, ps, phases)

    monkeypatch.setattr(factors, "_PRIME_LOGS", {})
    first = [evaluate(sets[0]), evaluate(sets[1])]
    factors._PRIME_LOGS.clear()
    backwards = [evaluate(sets[1]), evaluate(sets[0])][::-1]
    evaluate(sets[2])        # evicts the logs of sets[1]
    again = [evaluate(sets[0]), evaluate(sets[1])]
    assert len(factors._PRIME_LOGS) == 2
    for got in (backwards, again):
        for (a, b), (c, d) in zip(got, first):
            assert_same_bits(a, c)
            assert_same_bits(b, d)


# ---------------------------------------------------------------------------
# the series route against the factor route
# ---------------------------------------------------------------------------

SERIES_SPECS = pytest.mark.parametrize("spec", [ea.zeta_spec(), CHI4, CUSTOM],
                                       ids=["zeta", "chi4", "custom"])


def rounding_allowance(s, primes):
    """Relative rounding of either route's product over ``primes`` at the points ``s``.

    Each factor argument z = exp(-2 pi i twist - s log p) carries a few
    rounding errors of its exponent, of size eps (|s| log p + 2 pi), which
    move log f_p by up to |z| / (1 - |z|) times that for characters (and
    custom factors of this file); the sum over the primes is the bound.
    """
    lnp = np.log(np.asarray(primes, dtype=float))
    z = np.exp(-np.min(s.real) * lnp)
    size = np.max(np.abs(s)) * lnp + TWO_PI + 1.0
    return 4 * np.finfo(float).eps * float(np.sum(z / (1.0 - z) * size))


def assert_within_series_bound(got, want, s, primes):
    """|series - factor| <= |factor| (e^T - 1 + rounding), T <= ``_SERIES_TAIL`` certified."""
    allowed = math.expm1(factors._SERIES_TAIL) + rounding_allowance(s, primes)
    assert np.all(np.abs(got - want) <= allowed * np.abs(want))


def prime_data(primes, phases):
    """The per-prime arrays that ``partial_product_grid`` passes to its routes."""
    ps = np.asarray(primes, dtype=np.int64)
    logs = factors._prime_logs(ps)
    return ps, logs, phases.twists(ps, logs.real)


def series_route(spec, s, primes, phases):
    """The series route on ``s`` of any shape (None where it does not apply)."""
    s = np.asarray(s, dtype=complex)
    out = factors._series_product(spec, s.ravel(), *prime_data(primes, phases))
    return None if out is None else out.reshape(s.shape)


@SERIES_SPECS
@pytest.mark.parametrize("shifted", [False, True], ids=["t0=0", "t0-restricted"])
def test_series_route_is_within_its_bound_of_the_factor_route(spec, shifted):
    phases = product_phases(shifted)
    rng = np.random.default_rng(11)
    cases = [np.asarray(0.8 + 35j)] + [
        0.8 + 35j + 0.03 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        for n in (1, 9, 512, 4096)]
    cases.append(0.6 + 98j + 0.02 * np.exp(1j * TWO_PI * np.arange(512) / 512))  # Im 98
    for s in cases:
        got = series_route(spec, s, PRODUCT_PRIMES, phases)
        want = factor_route(spec, s, PRODUCT_PRIMES, phases)
        assert got.shape == s.shape
        assert_within_series_bound(got, want, s, PRODUCT_PRIMES)
        if s.size > 9:   # what partial_product_grid takes: the series route, bit for bit
            assert_same_bits(ea.partial_product_grid(spec, s, PRODUCT_PRIMES, phases), got)


@SERIES_SPECS
def test_disc_near_re_zero_takes_the_factor_route(spec):
    s = 0.05 + 20j + 0.02 * np.exp(1j * TWO_PI * np.arange(512) / 512)
    assert series_route(spec, s, PRODUCT_PRIMES, ea.trivial_phases()) is None
    got = ea.partial_product_grid(spec, s, PRODUCT_PRIMES)
    assert_same_bits(got, factor_route(spec, s, PRODUCT_PRIMES))


@SERIES_SPECS
def test_disc_past_the_top_rung_takes_the_factor_route(spec, monkeypatch):
    # rho / (Re c - 2 rho) = 0.57: the cut asks for degree 74
    s = 0.75 + 0.2 * np.exp(1j * TWO_PI * np.arange(512) / 512)
    built = []
    monkeypatch.setattr(factors, "_log_taylor", lambda *args: built.append(args))
    assert series_route(spec, s, PRODUCT_PRIMES, ea.trivial_phases()) is None
    want = factor_route(spec, s, PRODUCT_PRIMES)
    assert_same_bits(ea.partial_product_grid(spec, s, PRODUCT_PRIMES), want)
    assert not built     # the route declines before it builds
    monkeypatch.undo()
    # the polynomial stops one past the top rung, within its certified tail
    ps = np.array(PRODUCT_PRIMES)
    coef, tail, none = factors._log_taylor(spec, ps, np.zeros((len(ps), 1)), 0.75 + 0j, 0.2)
    assert len(coef) == factors._LADDER_RUNGS[-1] + 2
    got = np.exp(np.polyval(coef[::-1, 0], s - 0.75)) * factor_route(spec, s, ps[none].tolist())
    allowed = math.expm1(tail) + rounding_allowance(s, PRODUCT_PRIMES)
    assert np.all(np.abs(got - want) <= allowed * np.abs(want))


def test_large_custom_table_takes_the_factor_route():
    # 303 table rows: the series route's estimate charges each row for its K
    spec = make_custom({int(p): {1: 0.3 * cmath.exp(1j * int(p))} for p in ea.primes_up_to(2000)})
    s = 0.75 + 0.02 * np.exp(1j * TWO_PI * np.arange(512) / 512)
    assert series_route(spec, s, PRODUCT_PRIMES, ea.trivial_phases()) is not None
    assert_same_bits(ea.partial_product_grid(spec, s, PRODUCT_PRIMES),
                     factor_route(spec, s, PRODUCT_PRIMES))


def test_non_finite_point_takes_the_factor_route():
    spec, phases = ea.zeta_spec(), product_phases(True)
    s = 0.75 + 40j + 0.02 * np.exp(1j * TWO_PI * np.arange(512) / 512)
    s[7], s[300] = complex(np.nan, 40.0), complex(np.inf, 0.0)
    with np.errstate(invalid="ignore"):
        got = ea.partial_product_grid(spec, s, PRODUCT_PRIMES, phases)
    with np.errstate(invalid="ignore"):
        want = factor_route(spec, s, PRODUCT_PRIMES, phases)
    assert np.isnan(got[7]) and np.isfinite(np.delete(got, [7, 300])).all()
    assert_same_bits(np.delete(got, [7, 300]), np.delete(want, [7, 300]))


def test_large_contour_call_takes_the_series_route(monkeypatch):
    # 9,592 primes at 512 points: only the primes past the ladder's top rung
    # may reach the factor route
    ps = [int(p) for p in ea.primes_up_to(100_000)]
    s = 0.75 + 40j + 0.02 * np.exp(1j * TWO_PI * np.arange(512) / 512)
    seen = []
    factor_product = factors._factor_product

    def recorded(spec, pts, ps, logs, twists):
        seen.extend(ps.tolist())
        return factor_product(spec, pts, ps, logs, twists)

    monkeypatch.setattr(factors, "_factor_product", recorded)
    got = ea.partial_product_grid(ea.zeta_spec(), s, ps)
    assert seen == [2, 3]
    assert_within_series_bound(got, factor_route(ea.zeta_spec(), s, ps), s, ps)


def series_disc(pts):
    """The disc (c, rho) about which the series route builds its polynomial for ``pts``."""
    discs, log_taylor = [], factors._log_taylor

    def recorded(spec, primes, twists, c, rho):
        discs.append((c, rho))
        return log_taylor(spec, primes, twists, c, rho)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(factors, "_log_taylor", recorded)
        mp.setattr(factors, "_SERIES_BUILDS", {})
        factors._series_product(ea.zeta_spec(), pts,
                                *prime_data(PRODUCT_PRIMES[:20], ea.trivial_phases()))
    (disc,) = discs
    return disc


def test_series_disc_covers_every_point():
    rng = np.random.default_rng(21)
    for scale in (1e-9, 1e-4, 0.02, 0.1):
        for _ in range(50):
            centre = complex(rng.uniform(2.0, 100.0), rng.uniform(-100.0, 100.0))
            pts = centre + scale * (rng.normal(size=9) + 1j * rng.normal(size=9))
            c, rho = series_disc(pts)
            assert np.max(np.abs(pts - c)) <= rho
    # boxes centred at +-step/2 from a snap boundary (and at it)
    step = 2.0 ** -26                          # rho 0.02 lies in [2^-6, 2^-5)
    for offset in (-0.5, 0.5, 0.0):
        for k in (0, 1, 3 * 2 ** 20 + 7):
            centre = complex((k + offset) * step + 0.75, 40.0 + (k - offset) * step)
            pts = centre + 0.02 * np.exp(1j * TWO_PI * np.arange(512) / 512)
            c, rho = series_disc(pts)
            assert c.real % step == c.imag % step == 0.0 and rho % step == 0.0
            assert np.max(np.abs(pts - c)) <= rho and 0.02 < rho <= 0.02 + 2 * step


def contour_products(p_max=100_000, compare_n=10_000):
    """The contour op's f over the primes up to p_max and g over those up to compare_n."""
    spec, ps = ea.zeta_spec(), [int(p) for p in ea.primes_up_to(p_max)]
    qs = [p for p in ps if p <= compare_n]
    return (lambda s: ea.partial_product_grid(spec, s, ps),
            lambda s: ea.partial_product_grid(spec, s, qs))


def test_series_builds_are_a_function_of_the_points():
    f, _ = contour_products(10_000)
    circle = ea.Circle(0.8 + 40j, 0.02)
    whole = circle.points(512)
    odd = np.ascontiguousarray(circle.points(1024)[1::2])
    assert series_disc(whole) == series_disc(odd)
    factors._SERIES_BUILDS.clear()
    first = f(whole), f(odd)
    factors._SERIES_BUILDS.clear()
    backwards = f(odd), f(whole)
    # other discs fill the memo, the second one around the first circle
    f(ea.Circle(0.7 + 10j, 0.03).points(512))
    f(ea.Circle(0.8 + 40j, 0.03).points(512))
    again = f(whole), f(odd)
    for got in (backwards[::-1], again):
        assert_same_bits(got[0], first[0])
        assert_same_bits(got[1], first[1])


def test_contour_checks_build_one_polynomial_per_product(monkeypatch):
    f, g = contour_products()
    built = []
    log_taylor = factors._log_taylor

    def counted(*args):
        built.append(len(args[1]))
        return log_taylor(*args)

    monkeypatch.setattr(factors, "_log_taylor", counted)
    monkeypatch.setattr(factors, "_SERIES_BUILDS", {})
    for n, centre in enumerate((0.75 + 40j, 0.7 + 80j), start=1):
        circle = ea.Circle(centre, 0.02)
        assert ea.zero_count(f, circle, quadrature_n=512) == 0
        assert ea.min_modulus(f, circle, samples=512) > 0
        assert ea.rouche_check(f, g, circle, samples=512).passed
        assert built == [9592, 1229] * n      # f, then g: each built once per circle


def test_contour_checks_take_each_prime_log_once(monkeypatch):
    f, g = contour_products()
    logged = []
    log = math.log

    def counted(x, *base):
        if isinstance(x, int):
            logged.append(x)
        return log(x, *base)

    monkeypatch.setattr(math, "log", counted)
    monkeypatch.setattr(factors, "_PRIME_LOGS", {})
    for centre in (0.75 + 40j, 0.7 + 80j):
        circle = ea.Circle(centre, 0.02)
        assert ea.zero_count(f, circle, quadrature_n=512) == 0
        assert ea.min_modulus(f, circle, samples=512) > 0
        assert ea.rouche_check(f, g, circle, samples=512).passed
        assert len(logged) == 9592 + 1229     # f's primes, then g's: once for both circles


@FAMILIES
def test_interval_weights_match_scalar_loop(spec):
    # numpy's abs and power may round differently from Python's in the last bit
    for lam in (0.01, 0.2, 1.0):
        ps, w = interval_weights(spec, 3.0, lam, width_factor=300.0)
        ref = np.array([abs(spec.a1(int(p))) * float(p) ** (lam - 1.0) for p in ps])
        assert len(ps) > 100
        assert np.allclose(w, ref, rtol=4 * np.finfo(float).eps, atol=0.0)


def test_exact_product_for_chi4():
    ps = [int(p) for p in ea.primes_up_to(30)]
    quarter = {p: Fraction(i % 4, 4) for i, p in enumerate(ps)}
    exact = ea.partial_product_exact(CHI4, 2, ps, quarter)
    phases = ea.PhaseAssignment({p: float(q) for p, q in quarter.items()})
    approx = ea.partial_product(CHI4, 2.0, ps, phases)
    assert abs(exact.to_complex() - approx) < 1e-12
    # the live vectorized route at the same s
    grid = ea.partial_product_grid(CHI4, np.array([2.0 + 0j]), ps, phases)[0]
    assert abs(exact.to_complex() - grid) < 1e-12
    with pytest.raises(ea.FactorDomainError):
        ea.partial_product_exact(ea.dirichlet_spec(3, [0, 1, cmath.exp(2j * math.pi / 3)]),
                                 2, [2], {})
