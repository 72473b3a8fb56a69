import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_detect, reference_fit
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

    @pytest.mark.parametrize(
        "samples, named",
        [
            ({0.5: 1, 1.5: 2, 2.5: 3}, "n=0.5, value 1"),
            ({1: 1, 2: 2, 3: (1, 2)}, "n=3, value (1, 2)"),
            ({1: 1, "2": 2, 3: 3}, "n='2', value 2"),
            ({1: 1, 2: float("inf"), 3: 3}, "n=2, value inf"),
        ],
        ids=["half-integer-n", "tuple-value", "string-n", "infinite-value"],
    )
    def test_rejects_samples_it_cannot_fit(self, samples, named):
        message = f"sample {re.escape(named)}: needs an integer n and a rational value"
        with pytest.raises(ValueError, match=message):
            fit(samples, 1, 1)
        with pytest.raises(ValueError, match=message):
            detect(samples, 2, 1)

    def test_integral_float_n_fits_like_int_n(self):
        samples = {n: n * n + (n % 2) for n in range(12)}
        floats = {float(n): v for n, v in samples.items()}
        assert fit(floats, 2, 2) == fit(samples, 2, 2)
        assert detect(floats, 3, 2) == detect(samples, 3, 2) == (2, 2)

    def test_evaluate_takes_integral_n_of_any_type(self):
        qp = fit({n: n for n in range(10)}, 2, 1)
        assert qp.evaluate(4.0) == qp.evaluate(Fraction(4)) == qp.evaluate(4) == 4
        for n in (4.5, "3", None):
            with pytest.raises(ValueError, match=re.escape(f"n={n!r} is not an integer")):
                qp.evaluate(n)

    @pytest.mark.parametrize("period, degree, message", [
        (0, 1, "period must be >= 1"),
        (1, -1, "degree must be >= 0"),
    ], ids=["period-zero", "negative-degree"])
    def test_fit_rejects_bad_shapes(self, period, degree, message):
        with pytest.raises(ValueError, match=message):
            fit({n: n for n in range(10)}, period, degree)

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


@st.composite
def quasipolynomial_samples(draw):
    """Samples of a quasipolynomial with rational coefficients, period 1-4 and
    degree 0-3, over n in steps of 1, 2 or 3 from a start near 0 or near
    10**6, with a random subset of n dropped as long as every class keeps
    degree + 2 samples; each integral value is an int or a Fraction, and in
    some draws one sample is moved by +-1/q."""
    period, degree = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    rational = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
    coeffs = [[draw(rational) for _ in range(degree + 1)] for _ in range(period)]
    start = draw(st.integers(-20, 40)) + draw(st.sampled_from([0, 10**6]))
    step = draw(st.integers(1, 3))
    size = period * (degree + 2) + draw(st.integers(0, 12))
    classes = {}
    for n in range(start, start + step * size, step):
        classes.setdefault(n % period, []).append(n)
    kept = []
    for members in classes.values():
        kept += members[:degree + 2] + [n for n in members[degree + 2:] if draw(st.booleans())]
    samples = {}
    for n in sorted(kept):
        v = sum(c * n**j for j, c in enumerate(coeffs[n % period]))
        samples[n] = int(v) if v.denominator == 1 and draw(st.booleans()) else v
    if draw(st.booleans()):
        n = draw(st.sampled_from(sorted(samples)))
        samples[n] += Fraction(draw(st.sampled_from([-1, 1])), draw(st.integers(1, 5)))
    return samples, period, degree


def _plain(out):
    if isinstance(out, FitMismatch):
        return ("mismatch", out.mismatch_n, int(re.search(r"only (\d+) samples", out.reason)[1]))
    assert all(type(c) is Fraction for row in out.coeffs for c in row if c is not None)
    return ("fit", out.period, out.degree, out.coeffs, out.n_min)


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError:
        return ValueError


@settings(derandomize=True, max_examples=300, deadline=None)
@given(quasipolynomial_samples(), st.integers(1, 4), st.integers(0, 3))
def test_fit_and_detect_match_the_fraction_reference(drawn, period, degree):
    samples, true_period, true_degree = drawn
    for p, d in [(true_period, true_degree), (period, degree)]:
        out = _outcome(fit, samples, p, d)
        want = _outcome(reference_fit, samples, p, d)
        assert (out if out is ValueError else _plain(out)) == want, (p, d)
    assert _outcome(detect, samples, 4, 3) == _outcome(reference_detect, samples, 4, 3)
