import math

import numpy as np
import pytest

import eulerapprox as ea
from eulerapprox.hardy import ExpPairing, H2Element


def random_element(rng, radius, degree):
    coef = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
    return H2Element(radius, coef)


def unit_norm(e):
    return H2Element(e.radius, e.coef / e.coeff_norm())


# ---------------------------------------------------------------------------
# norms and inner products
# ---------------------------------------------------------------------------


def test_norm_constant():
    e = H2Element(0.1, [1.0])
    assert abs(ea.h2_norm(e) - math.sqrt(math.pi) / 10) < 1e-15


def test_norm_linear():
    e = H2Element(1.0, [0.0, 1.0])
    assert abs(ea.h2_norm(e) - math.sqrt(math.pi / 2)) < 1e-15


def test_norm_vs_quadrature_random():
    rng = np.random.default_rng(3)
    e = random_element(rng, 0.2, 8)
    assert abs(ea.h2_norm(e) - ea.quadrature_norm(e)) < 1e-8 * ea.h2_norm(e)


def test_monomial_orthogonality():
    R = 0.3
    for n in range(4):
        for m in range(4):
            f = H2Element(R, [0.0] * n + [1.0])
            g = H2Element(R, [0.0] * m + [1.0])
            ip = ea.inner_product(f, g)
            if n != m:
                assert ip == 0.0
                assert abs(ea.quadrature_inner_product(f, g)) < 1e-9
            else:
                assert abs(ip - math.pi * R ** (2 * n + 2) / (n + 1)) < 1e-15


def test_inner_product_of_self_is_squared_norm():
    rng = np.random.default_rng(4)
    e = random_element(rng, 0.15, 6)
    assert abs(ea.inner_product(e, e) - e.coeff_norm() ** 2) < 1e-12 * e.coeff_norm() ** 2


def test_inner_product_vs_quadrature():
    rng = np.random.default_rng(5)
    f = random_element(rng, 0.2, 7)
    g = random_element(rng, 0.2, 5)
    a = ea.inner_product(f, g)
    b = ea.quadrature_inner_product(f, g)
    assert abs(a - b) < 1e-8 * max(1.0, abs(a))


def test_radius_mismatch_rejected():
    with pytest.raises(ValueError):
        ea.inner_product(H2Element(0.1, [1.0]), H2Element(0.2, [1.0]))


def test_tail_bound_propagates():
    a = H2Element(0.1, [1.0], tail_bound=1e-3)
    b = H2Element(0.1, [2.0], tail_bound=1e-4)
    assert (a + b).tail_bound == pytest.approx(1.1e-3)
    assert (a - b).tail_bound == pytest.approx(1.1e-3)
    assert (2.0 * a).tail_bound == pytest.approx(2e-3)
    assert ea.h2_norm(a) == pytest.approx(a.coeff_norm() + 1e-3)


# ---------------------------------------------------------------------------
# log of a disc evaluator
# ---------------------------------------------------------------------------


def test_log_target_constant():
    e = ea.log_target(lambda s: 3.0 * np.ones_like(s), 0.1, order=8)
    assert abs(e.coef[0] - math.log(3.0)) < 1e-12
    assert np.max(np.abs(e.coef[1:])) < 1e-12


def test_log_target_exponential():
    e = ea.log_target(lambda s: np.exp(s), 0.5, order=16)
    assert abs(e.coef[0]) < 1e-10
    assert abs(e.coef[1] - 1.0) < 1e-10
    assert np.max(np.abs(e.coef[2:])) < 1e-10


def test_log_target_mercator():
    # log(1/(1 - s/2)) = sum (s/2)^n / n; extraction noise scales as R^-n
    R = 0.2
    e = ea.log_target(lambda s: 1.0 / (1.0 - s / 2.0), R, order=24)
    for n in range(1, 9):
        assert abs(e.coef[n] - 0.5**n / n) < 1e-9
    for n in range(1, 25):
        assert abs(e.coef[n] - 0.5**n / n) * R**n < 1e-12


def test_log_target_zero_inside_rejected():
    with pytest.raises(ea.TargetZeroError):
        ea.log_target(lambda s: s - 0.05, 0.2, order=16)


def test_log_target_zero_on_boundary_rejected():
    with pytest.raises(ea.TargetZeroError):
        ea.log_target(lambda s: s - 0.2, 0.2, order=16)


# ---------------------------------------------------------------------------
# pairing against decaying exponentials
# ---------------------------------------------------------------------------


def test_pairing_constant_source():
    R, sigma0 = 0.2, 0.75
    e = H2Element(R, [1.0])
    for x in (0.0, 1.0, 3.0, 7.5):
        got = ExpPairing(e, sigma0).value(x)
        assert abs(got - math.pi * R * R * math.exp(-sigma0 * x)) < 1e-14


def test_pairing_at_zero_is_scaled_conjugate_mean():
    rng = np.random.default_rng(6)
    e = random_element(rng, 0.15, 5)
    got = ExpPairing(e, 0.75).value(0.0)
    expect = math.pi * 0.15**2 * np.conj(e.coef[0])
    assert abs(got - expect) < 1e-14


def test_pairing_closed_form_vs_quadrature():
    rng = np.random.default_rng(7)
    for _ in range(10):
        e = unit_norm(random_element(rng, 0.2, 9))
        for x in (1.0, 5.0, 10.0):
            cf = ExpPairing(e, 0.75).value(x)
            q = ea.exp_pairing_quadrature(e, x, 0.75)
            assert abs(cf - q) < 1e-6


def test_entire_sum_special_cases():
    e = H2Element(0.2, [1.0])
    prof = ExpPairing(e, 0.75)
    for u in (0.0, 1.5, -2.0):
        assert abs(prof.entire_sum(u) - 1.0) < 1e-15
    # beta_m = 1 for all m gives the exponential; build alpha accordingly
    n = np.arange(12)
    alpha = (-1.0) ** n * (n + 1) / 0.2**n
    prof = ExpPairing(H2Element(0.2, alpha.astype(complex)), 0.75)
    assert np.allclose(prof.beta, 1.0)
    for u in (0.5, 1.0, 2.0):
        tail = prof.entire_tail_bound(u, 11)
        assert abs(prof.entire_sum(u) - math.exp(u)) <= tail + 1e-12


def test_beta_square_sum_bound():
    # sum |beta_n|^2 <= ||phi||^2 / (pi R^2), the certified version
    rng = np.random.default_rng(8)
    for _ in range(50):
        R = float(rng.choice([0.05, 0.2, 0.7]))
        e = unit_norm(random_element(rng, R, 10))
        prof = ExpPairing(e, 0.75)
        assert np.sum(np.abs(prof.beta) ** 2) <= 1.0 / (math.pi * R * R) + 1e-12


def test_pairing_certified_decay():
    rng = np.random.default_rng(9)
    for _ in range(20):
        e = unit_norm(random_element(rng, 0.2, 8))
        prof = ExpPairing(e, 0.75)
        for x in np.linspace(0.0, 40.0, 17):
            assert abs(prof.value(x)) <= prof.value_bound(x) + 1e-12


@pytest.mark.xfail(reason="claimed for-all bounds |beta_n| <= 1 and "
                          "|pairing| <= pi R^2 e^{-x/2} require pi R^2 >= 1, "
                          "impossible together with R < 1/4; see notes",
                   strict=True)
def test_unit_norm_beta_and_decay_as_claimed():
    rng = np.random.default_rng(10)
    R = 0.2
    for _ in range(20):
        e = unit_norm(random_element(rng, R, 8))
        prof = ExpPairing(e, 0.75)
        assert np.sum(np.abs(prof.beta) ** 2) <= 1.0 + 1e-12
        for x in (0.0, 1.0, 5.0):
            assert abs(prof.value(x)) <= math.pi * R * R * math.exp(-x / 2) + 1e-12
