import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_genlaguerre

from diractensor import (
    LaguerreSpec,
    gauss_laguerre,
    laguerre,
    laguerre_derivative,
    laguerre_second_derivative,
    laguerre_weighted_norm,
)


def laguerre_series(n, alpha, x):
    """Brute-force oracle: term-by-term series with exact binomials via lgamma."""
    total = 0.0
    for k in range(n + 1):
        binom = math.exp(
            math.lgamma(n + alpha + 1.0) - math.lgamma(n - k + 1.0) - math.lgamma(alpha + k + 1.0)
        )
        total += (-1.0) ** k * binom * x**k / math.factorial(k)
    return total


class TestLaguerre:
    def test_degree_zero_is_one(self):
        assert laguerre(LaguerreSpec(0, 1.7), 3.7) == 1.0

    def test_degree_one(self):
        # L_1^(alpha)(x) = 1 + alpha - x
        assert laguerre(LaguerreSpec(1, 2.0), 1.0) == pytest.approx(2.0, abs=1e-15)

    def test_against_series_frozen(self):
        # series oracle gives -43/48 for n=3, alpha=1/2, x=2
        val = laguerre(LaguerreSpec(3, 0.5), 2.0)
        assert val == pytest.approx(-0.8958333333333297, rel=1e-13)
        assert val == pytest.approx(laguerre_series(3, 0.5, 2.0), rel=1e-13)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.3, 4.0])
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 12])
    def test_against_scipy(self, n, alpha):
        x = np.linspace(0.0, 40.0, 17)
        ours = laguerre(LaguerreSpec(n, alpha), x)
        ref = eval_genlaguerre(n, alpha, x)
        assert np.allclose(ours, ref, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("alpha", [0.1, 1.0, 2.6, 7.0])
    def test_three_term_recurrence(self, alpha):
        x = np.linspace(0.5, 50.0, 23)
        for n in range(1, 30):
            left = (n + 1.0) * laguerre(LaguerreSpec(n + 1, alpha), x)
            right = (2.0 * n + 1.0 + alpha - x) * laguerre(LaguerreSpec(n, alpha), x) - (
                n + alpha
            ) * laguerre(LaguerreSpec(n - 1, alpha), x)
            scale = np.maximum(np.abs(left), 1.0)
            assert np.all(np.abs(left - right) <= 1e-10 * scale)

    def test_array_and_scalar_agree(self):
        spec = LaguerreSpec(4, 0.7)
        xs = np.array([0.0, 1.5, 9.0])
        arr = laguerre(spec, xs)
        assert arr[1] == laguerre(spec, 1.5)

    def test_rejects_negative_argument(self):
        with pytest.raises(ValueError):
            laguerre(LaguerreSpec(2, 0.0), -0.1)

    def test_rejects_bad_spec(self):
        with pytest.raises(ValueError):
            LaguerreSpec(-1, 0.0)
        with pytest.raises(ValueError):
            LaguerreSpec(2, -1.0)


class TestLaguerreDerivative:
    def test_degree_zero(self):
        assert laguerre_derivative(LaguerreSpec(0, 1.0), 5.0) == 0.0

    def test_degree_one(self):
        assert laguerre_derivative(LaguerreSpec(1, 2.0), 1.0) == pytest.approx(-1.0, abs=1e-15)

    def test_against_richardson_differences(self):
        # central differences with one Richardson step, h = 1e-5
        spec = LaguerreSpec(4, 1.3)
        x = 0.8
        h = 1e-5

        def central(hh):
            return (laguerre(spec, x + hh) - laguerre(spec, x - hh)) / (2.0 * hh)

        fd = (4.0 * central(h / 2.0) - central(h)) / 3.0
        assert laguerre_derivative(spec, x) == pytest.approx(fd, rel=1e-8)

    @pytest.mark.parametrize("n, alpha", [(2, 0.0), (3, 0.5), (6, 2.2)])
    def test_derivative_grid(self, n, alpha):
        spec = LaguerreSpec(n, alpha)
        h = 1e-5
        for x in (0.3, 1.7, 4.4, 11.0):
            def central(hh):
                return (laguerre(spec, x + hh) - laguerre(spec, x - hh)) / (2.0 * hh)

            fd = (4.0 * central(h / 2.0) - central(h)) / 3.0
            exact = laguerre_derivative(spec, x)
            if abs(exact) > 1e-6:  # stay away from roots of the derivative
                assert exact == pytest.approx(fd, rel=1e-8)

    def test_second_derivative(self):
        spec = LaguerreSpec(5, 0.9)
        h = 1e-4
        for x in (0.5, 2.0, 7.0):
            fd = (laguerre_derivative(spec, x + h) - laguerre_derivative(spec, x - h)) / (2.0 * h)
            assert laguerre_second_derivative(spec, x) == pytest.approx(fd, rel=1e-6)
        assert laguerre_second_derivative(LaguerreSpec(1, 0.5), 2.0) == 0.0


class TestWeightedNorm:
    def test_simplest(self):
        # integral x e^(-x) dx = 1
        assert laguerre_weighted_norm(0, 0.0) == pytest.approx(1.0, rel=1e-15)

    def test_degree_zero_alpha_two_reconciled_by_quadrature(self):
        # integral x^3 e^(-x) dx = Gamma(4) = 6; the closed form must agree with
        # the quadrature, which is the arbiter here
        by_quad, err = quad(lambda x: x**3 * math.exp(-x), 0.0, 200.0)
        assert by_quad == pytest.approx(6.0, rel=1e-10)
        assert laguerre_weighted_norm(0, 2.0) == pytest.approx(by_quad, rel=1e-10)

    def test_degree_two_alpha_one_against_quadrature(self):
        def integrand(x):
            return x**2 * math.exp(-x) * laguerre(LaguerreSpec(2, 1.0), x) ** 2

        by_quad, err = quad(integrand, 0.0, 200.0, limit=200)
        assert laguerre_weighted_norm(2, 1.0) == pytest.approx(by_quad, rel=1e-10)

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 2.5])
    @pytest.mark.parametrize("n", range(7))
    def test_matches_gauss_laguerre(self, n, alpha):
        # with the weight x^alpha the leftover integrand x * L_n^2 is polynomial
        x, w = gauss_laguerre(64, alpha)
        vals = laguerre(LaguerreSpec(n, alpha), x)
        by_gl = float(np.sum(w * x * vals * vals))
        assert laguerre_weighted_norm(n, alpha) == pytest.approx(by_gl, rel=1e-12)


class TestOrthogonality:
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0])
    def test_distinct_degrees_integrate_to_zero(self, alpha):
        x, w = gauss_laguerre(64, alpha)
        polys = [laguerre(LaguerreSpec(n, alpha), x) for n in range(7)]
        norms = [laguerre_weighted_norm(n, alpha) for n in range(7)]
        scale = max(norms)
        for m in range(7):
            for n in range(m + 1, 7):
                overlap = float(np.sum(w * polys[m] * polys[n]))
                assert abs(overlap) <= 1e-9 * scale


class TestGaussLaguerre:
    def test_plain_weight_integrates_exponentials(self):
        x, w = gauss_laguerre(128, 0.0)
        # integral e^(-x) x^5 dx = 120
        assert float(np.sum(w * x**5)) == pytest.approx(120.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            gauss_laguerre(0)
        with pytest.raises(ValueError):
            gauss_laguerre(16, -1.5)
