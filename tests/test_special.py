import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_genlaguerre, roots_genlaguerre

from diractensor import LaguerreSpec, gauss_laguerre
from diractensor.analytic import WavefunctionForm
from diractensor.special import laguerre_function, laguerre_function_rule


def laguerre_series(n, alpha, x):
    """Brute-force oracle: term-by-term series with exact binomials via lgamma."""
    total = 0.0
    for k in range(n + 1):
        binom = math.exp(
            math.lgamma(n + alpha + 1.0) - math.lgamma(n - k + 1.0) - math.lgamma(alpha + k + 1.0)
        )
        total += (-1.0) ** k * binom * x**k / math.factorial(k)
    return total


def psi_reference(n, alpha, x):
    """sqrt(n!/Gamma(n+alpha+1)) x^(alpha/2) e^(-x/2) L_n^(alpha)(x) from scipy's
    polynomial, the Gamma ratio taken in logs; valid where L_n stays finite."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        power = alpha * np.log(x) if alpha != 0.0 else 0.0
    log_weight = 0.5 * (math.lgamma(n + 1.0) - math.lgamma(n + alpha + 1.0) + power - x)
    return np.exp(log_weight) * eval_genlaguerre(n, alpha, x)


def psi(n, alpha, x):
    return laguerre_function(LaguerreSpec(n, alpha), x)[0]


class TestLaguerreFunction:
    def test_degree_zero(self):
        # psi_0 = x^(alpha/2) e^(-x/2) / sqrt(Gamma(alpha + 1))
        want = 3.7**0.85 * math.exp(-1.85) / math.sqrt(math.gamma(2.7))
        assert psi(0, 1.7, 3.7) == pytest.approx(want, rel=1e-14)

    def test_degree_one_and_its_predecessor(self):
        # psi_1 = (1 + alpha - x) x^(alpha/2) e^(-x/2) / sqrt(Gamma(alpha + 2))
        pair = laguerre_function(LaguerreSpec(1, 2.0), 1.0)
        assert pair[0] == pytest.approx(2.0 * math.exp(-0.5) / math.sqrt(6.0), rel=1e-14)
        assert pair[1] == pytest.approx(psi(0, 2.0, 1.0), rel=1e-15)
        assert laguerre_function(LaguerreSpec(0, 2.0), 1.0)[1] == 0.0

    def test_against_series_frozen(self):
        # series oracle gives -43/48 for n=3, alpha=1/2, x=2
        norm = math.exp(0.5 * (math.lgamma(4.0) - math.lgamma(4.5)) + 0.25 * math.log(2.0) - 1.0)
        assert laguerre_series(3, 0.5, 2.0) == pytest.approx(-43.0 / 48.0, rel=1e-13)
        assert psi(3, 0.5, 2.0) == pytest.approx(norm * -43.0 / 48.0, rel=1e-13)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.3, 4.0])
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 12])
    def test_against_scipy(self, n, alpha):
        x = np.linspace(0.0, 40.0, 17)
        assert np.allclose(psi(n, alpha, x), psi_reference(n, alpha, x), rtol=1e-10, atol=1e-13)

    @pytest.mark.parametrize("n", [0, 1, 7, 60])
    def test_value_at_the_origin(self, n):
        # psi_n^(0)(0) = L_n^(0)(0) = 1; a positive order puts a zero of x^(alpha/2) there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert psi(n, 0.0, 0.0) == pytest.approx(1.0, rel=1e-13)
            assert psi(n, 0.5, np.array([0.0])).tolist() == [0.0]

    @pytest.mark.parametrize("n, alpha", [(12, 177.0), (55, 300.0), (100, 399.0)])
    def test_large_order_stays_bounded_and_exact(self, n, alpha):
        # the Gamma-ratio form overflows from alpha ~ 171; the recurrence does not
        x = np.linspace(1.0, 3.0 * (alpha + 2.0 * n), 400)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = psi(n, alpha, x)
        assert np.all(np.isfinite(values)) and np.max(np.abs(values)) < 1.0
        with np.errstate(over="ignore", under="ignore"):
            ref = psi_reference(n, alpha, x)
        assert np.max(np.abs(values - ref)) <= 1e-13

    @pytest.mark.parametrize("alpha", [0.1, 1.0, 2.6, 7.0])
    def test_orthonormal_three_term_recurrence(self, alpha):
        x = np.linspace(0.5, 50.0, 23)
        for n in range(1, 30):
            nxt = psi(n + 1, alpha, x)
            cur, prev = laguerre_function(LaguerreSpec(n, alpha), x)
            left = math.sqrt((n + 1.0) * (n + 1.0 + alpha)) * nxt
            right = (2.0 * n + 1.0 + alpha - x) * cur - math.sqrt(n * (n + alpha)) * prev
            assert np.all(np.abs(left - right) <= 1e-12 * np.maximum(np.abs(left), 1.0))

    def test_underflow_is_zero_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert psi(100, 399.0, np.array([0.0, 1e-3, 1e300])).tolist() == [0.0, 0.0, 0.0]

    def test_array_and_scalar_agree(self):
        xs = np.array([0.0, 1.5, 9.0])
        assert psi(4, 0.7, xs)[1] == psi(4, 0.7, 1.5)

    def test_rejects_negative_argument(self):
        with pytest.raises(ValueError):
            psi(2, 0.0, -0.1)

    def test_rejects_bad_spec(self):
        with pytest.raises(ValueError):
            LaguerreSpec(-1, 0.0)
        with pytest.raises(ValueError):
            LaguerreSpec(2, -1.0)


def richardson(fn, x, h):
    """Central difference with one Richardson step."""
    def central(hh):
        return (fn(x + hh) - fn(x - hh)) / (2.0 * hh)

    return (4.0 * central(h / 2.0) - central(h)) / 3.0


class TestDerivativesFromThePair:
    """d/dx [sqrt(x) psi_n] from (psi_n, psi_(n-1)) and the Whittaker second
    derivative, on forms with gamma = 1/2 so that r = x."""

    @pytest.mark.parametrize("n, alpha", [(0, 1.0), (2, 0.5), (3, 3.0), (6, 2.2), (12, 177.0)])
    def test_first_derivative_against_differences(self, n, alpha):
        form = WavefunctionForm(LaguerreSpec(n, alpha), 0.5, 1.0)
        for x in np.linspace(0.3, 2.0 * (alpha + 2.0 * n) + 10.0, 9):
            value, exact, _ = form.derivatives(x)
            assert value == form(x)
            scale = max(abs(form(x)), abs(exact), 1e-300)
            assert abs(exact - richardson(form, x, 1e-4 * max(x, 1.0))) <= 1e-7 * scale

    @pytest.mark.parametrize("n, alpha", [(0, 1.0), (2, 0.5), (5, 0.9), (12, 177.0)])
    def test_second_derivative_against_differences(self, n, alpha):
        form = WavefunctionForm(LaguerreSpec(n, alpha), 0.5, 1.0)
        for x in np.linspace(0.5, 2.0 * (alpha + 2.0 * n) + 10.0, 7):
            _, _, exact = form.derivatives(x)
            scale = max(abs(form(x)), abs(exact), 1e-300)
            assert abs(exact - richardson(lambda y: form.derivatives(y)[1], x, 1e-4 * max(x, 1.0))) <= 1e-6 * scale

    def test_whittaker_coefficient_does_not_overflow(self):
        form = WavefunctionForm(LaguerreSpec(3, 2.0), 0.5, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert form.derivatives(np.array([1e300]))[2].tolist() == [0.0]


class TestFirstMoment:
    """integral x psi_n^2 dx = 2n + alpha + 1, the norm of every closed form."""

    @pytest.mark.parametrize("n, alpha", [(0, 0.0), (0, 2.0), (2, 1.0), (4, 3.5)])
    def test_against_adaptive_quadrature(self, n, alpha):
        by_quad, _ = quad(lambda x: x * psi(n, alpha, x) ** 2, 0.0, 200.0, limit=200)
        assert by_quad == pytest.approx(2.0 * n + alpha + 1.0, rel=1e-10)

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 2.5])
    @pytest.mark.parametrize("n", range(7))
    def test_by_the_function_rule(self, n, alpha):
        # the rule's nodes are the zeros of psi_(n+1), independent of the moment
        x, w, values = laguerre_function_rule(LaguerreSpec(n, alpha))
        assert np.array_equal(values, psi(n, alpha, x))
        assert float(np.sum(w * x * values * values)) == pytest.approx(2.0 * n + alpha + 1.0, rel=1e-13)

    @pytest.mark.parametrize("n, alpha", [(12, 177.0), (55, 300.0), (100, 399.0), (150, 1.0)])
    def test_by_the_function_rule_at_large_degree_and_order(self, n, alpha):
        x, w, values = laguerre_function_rule(LaguerreSpec(n, alpha))
        assert float(np.sum(w * x * values * values)) == pytest.approx(2.0 * n + alpha + 1.0, rel=1e-12)


class TestOrthonormality:
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0, 250.0])
    def test_gram_matrix_is_the_identity(self, alpha):
        x, w, _ = laguerre_function_rule(LaguerreSpec(15, alpha))
        values = np.array([psi(n, alpha, x) for n in range(7)])
        gram = (values * w) @ values.T
        assert np.max(np.abs(gram - np.eye(7))) <= 1e-12


class TestGaussLaguerre:
    def test_plain_weight_integrates_exponentials(self):
        x, w = gauss_laguerre(128, 0.0)
        # integral e^(-x) x^5 dx = 120
        assert float(np.sum(w * x**5)) == pytest.approx(120.0, rel=1e-12)

    @pytest.mark.parametrize("n_nodes, order", [(1, 0.0), (16, 0.5), (64, 2.0), (40, 30.0)])
    def test_matches_golub_welsch(self, n_nodes, order):
        x, w = gauss_laguerre(n_nodes, order)
        x_ref, w_ref = roots_genlaguerre(n_nodes, order)
        assert np.allclose(x, x_ref, rtol=1e-12, atol=0.0)
        assert np.allclose(w, w_ref, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("n_nodes, order", [(400, 0.0), (600, 2.0)])
    def test_nodes_past_the_underflow_get_zero_weight(self, n_nodes, order):
        # e^(-x/2) underflows at the outer nodes, where the true weight is below ~1e-600
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, w = gauss_laguerre(n_nodes, order)
        assert np.all(np.isfinite(w)) and np.all(w >= 0.0) and np.any(w[x > 1500.0] == 0.0)
        assert float(np.sum(w)) == pytest.approx(math.gamma(order + 1.0), rel=1e-12)
        # integral x^order e^(-x) x^3 dx = Gamma(order + 4)
        assert float(np.sum(w * x**3)) == pytest.approx(math.gamma(order + 4.0), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            gauss_laguerre(0)
        with pytest.raises(ValueError):
            gauss_laguerre(16, -1.5)
