import random
from fractions import Fraction

import pytest

from numsgps import (
    FitMismatch,
    LinearFamily,
    QuasiPolynomial,
    Semigroup,
    detect,
    fit,
    leading_coefficient,
    scan,
    weighted_extreme_tables,
)


class TestFit:
    def test_constant_samples(self):
        qp = fit({n: 7 for n in range(10)}, 1, 0)
        assert isinstance(qp, QuasiPolynomial)
        assert (qp.period, qp.degree) == (1, 0)
        assert qp.coeffs == ((Fraction(7),),)

    def test_frobenius_of_two_generator_family(self):
        # F(<n, n+2>) = n(n+2) - n - (n+2) = n^2 - 2 for odd n
        fam = LinearFamily.normalize((1, 1), (0, 2))
        samples = dict(scan(fam, range(5, 62, 2), "frobenius"))
        qp = fit(samples, 2, 2)
        assert isinstance(qp, QuasiPolynomial)
        assert qp.degree == 2 and qp.period == 2 and qp.n_min == 5
        assert leading_coefficient(qp) == 1
        for n, v in samples.items():
            assert qp.evaluate(n) == v

    def test_reduces_padded_degree(self):
        qp = fit({n: 3 * n + 1 for n in range(12)}, 1, 3)
        assert qp.degree == 1
        assert qp.coeffs == ((Fraction(1),), (Fraction(3),))

    def test_corrupted_tail_sample_reports_mismatch(self):
        samples = {n: n * n for n in range(20)}
        samples[16] += 1
        out = fit(samples, 1, 2)
        assert isinstance(out, FitMismatch)
        # only the three anchors sit above the corrupted index: no stable tail
        assert out.mismatch_n == 16

    def test_corrupted_anchor_reports_mismatch(self):
        samples = {n: n * n for n in range(20)}
        samples[19] += 1
        out = fit(samples, 1, 2)
        assert isinstance(out, FitMismatch)

    def test_corrupted_middle_sample_moves_n_min(self):
        samples = {n: n * n for n in range(20)}
        samples[9] -= 5
        qp = fit(samples, 1, 2)
        assert isinstance(qp, QuasiPolynomial)
        assert qp.n_min == 10
        assert qp.evaluate(15) == 225

    def test_insufficient_samples_per_class(self):
        with pytest.raises(ValueError):
            fit({0: 1, 2: 2, 4: 3}, 2, 2)

    def test_evaluate_on_unsampled_class(self):
        qp = fit({n: n for n in range(1, 20, 2)}, 2, 1)
        with pytest.raises(ValueError):
            qp.evaluate(4)

    def test_shift_equivariance(self):
        rng = random.Random(71)
        coeffs = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]

        def f(n):
            c = coeffs[n % 3]
            return c[0] + c[1] * n + c[2] * n * n

        base = fit({n: f(n) for n in range(0, 40)}, 3, 2)
        shifted = fit({n: f(n + 3) for n in range(0, 40)}, 3, 2)
        for n in range(5, 30):
            assert shifted.evaluate(n) == base.evaluate(n + 3)


class TestDetect:
    def test_pure_polynomial(self):
        assert detect({n: 2 * n + 5 for n in range(20)}, 4, 3) == (1, 1)

    def test_periodic_coefficients(self):
        samples = {n: n + (7 if n % 2 else 3) for n in range(30)}
        assert detect(samples, 4, 2) == (2, 1)

    def test_extreme_length_periods(self):
        S = Semigroup([6, 9, 10, 14])
        hi, lo = weighted_extreme_tables(S, (2, 3, 5, 7), 320)
        assert detect({n: hi[n] for n in range(250, 311)}, 6, 2) == (2, 1)
        assert detect({n: lo[n] for n in range(250, 311)}, 6, 2) == (3, 1)

    def test_non_quasipolynomial_sequence(self):
        # powers of 2 outgrow every polynomial
        samples = {n: 2**n for n in range(24)}
        assert detect(samples, 3, 3) is None

    def test_minimality(self):
        samples = {n: n * n for n in range(24)}
        assert detect(samples, 4, 3) == (1, 2)

    def test_no_samples(self):
        with pytest.raises(ValueError, match="no samples"):
            detect({}, 2, 1)

    def test_short_class_raises_like_fit(self):
        with pytest.raises(ValueError, match=r"residue class 1 \(mod 2\) has 1 samples, needs 2"):
            detect({0: 1, 1: 2, 2: 3}, 3, 1)

    def test_fit_reproduces_detected_samples(self):
        S = Semigroup([6, 9, 10, 14])
        hi, lo = weighted_extreme_tables(S, (2, 3, 5, 7), 320)
        inputs = [
            ({n: 2 * n + 5 for n in range(20)}, 4, 3),
            ({n: n + (7 if n % 2 else 3) for n in range(30)}, 4, 2),
            ({n: hi[n] for n in range(250, 311)}, 6, 2),
            ({n: lo[n] for n in range(250, 311)}, 6, 2),
            ({n: n * n for n in range(24)}, 4, 3),
        ]
        for samples, max_period, max_degree in inputs:
            period, degree = detect(samples, max_period, max_degree)
            qp = fit(samples, period, degree)
            assert all(qp.evaluate(n) == v for n, v in samples.items()), (period, degree)


class TestLeadingCoefficient:
    def test_collapses_when_uniform(self):
        qp = fit({n: n * n + (n % 2) for n in range(24)}, 2, 2)
        assert leading_coefficient(qp) == 1

    def test_per_class_table(self):
        samples = {n: (2 if n % 2 else 3) * n for n in range(24)}
        qp = fit(samples, 2, 1)
        assert leading_coefficient(qp) == (Fraction(3), Fraction(2))

    def test_degree_zero(self):
        qp = fit({n: 5 for n in range(8)}, 1, 0)
        assert leading_coefficient(qp) == 5
