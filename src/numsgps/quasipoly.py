"""Exact quasipolynomial fitting over integer-indexed rational samples.

A quasipolynomial of period p is a polynomial whose coefficients depend on the
residue of the argument mod p.  Everything here is exact rational arithmetic
with zero tolerance: a sample either reproduces or the fit reports the
mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm


def _poly_eval(coeffs, n):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * n + c
    return acc


def _integral(n) -> int:
    """n as an int when it is integral, of any numeric type (4.0 and
    Fraction(4) give 4); anything else raises ValueError naming n."""
    try:
        if int(n) == n:
            return int(n)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"n={n!r} is not an integer")


def _classes(samples, period: int, degree: int) -> dict[int, list[tuple[int, Fraction]]]:
    """Samples split by residue class mod period, each class sorted by n;
    raises when a sample has a non-integral n or a non-rational value, when
    there are none, or when a class has fewer than degree + 2."""
    classes: dict[int, list[tuple[int, Fraction]]] = {}
    for n, v in samples.items():
        try:
            pt = (_integral(n), Fraction(v))
        except (TypeError, ValueError, OverflowError):
            raise ValueError(
                f"sample n={n!r}, value {v!r}: needs an integer n and a rational value"
            ) from None
        classes.setdefault(pt[0] % period, []).append(pt)
    if not classes:
        raise ValueError("no samples")
    for s, pts in classes.items():
        pts.sort()
        if len(pts) < degree + 2:
            raise ValueError(
                f"residue class {s} (mod {period}) has {len(pts)} samples, needs {degree + 2}"
            )
    return classes


def _anchor(pts, degree: int):
    """The polynomial through the newest degree + 1 points of a sorted class,
    and the largest older n it misses (None when it reproduces them all).

    The polynomial is built once, in integers over one denominator, by
    Lagrange's form: anchor i at n_i with value p_i/q_i contributes
    p_i * (den/s_i) * prod_{j != i} (n - n_j), where s_i = q_i *
    prod_{j != i} (n_i - n_j) and den = lcm(s_i).  So poly(n) = v exactly
    when the integer Horner sum acc at n has acc * v.denominator equal to
    v.numerator * den; only the returned coefficients become Fractions."""
    anchors = pts[-(degree + 1):]
    terms = []
    for ni, v in anchors:
        basis, s = [v.numerator], v.denominator
        for nj, _ in anchors:
            if nj != ni:
                basis = [a - nj * b for a, b in zip([0] + basis, basis + [0])]
                s *= ni - nj
        terms.append((basis, s))
    den = lcm(*(s for _, s in terms))
    poly = [sum(basis[j] * (den // s) for basis, s in terms) for j in range(degree + 1)]
    largest_bad = next(
        (n for n, v in reversed(pts[:-(degree + 1)])
         if _poly_eval(poly, n) * v.denominator != v.numerator * den),
        None,
    )
    return [Fraction(c, den) for c in poly], largest_bad


@dataclass(frozen=True)
class QuasiPolynomial:
    """Degree-``degree`` polynomial with period-``period`` coefficients.

    ``coeffs[j][s]`` is the coefficient of n**j on the residue class s; a class
    that carried no samples has None in every row.  ``evaluate`` reproduces all
    fitted samples with n >= n_min exactly.
    """

    period: int
    degree: int
    coeffs: tuple[tuple[Fraction | None, ...], ...]
    n_min: int

    def evaluate(self, n: int) -> Fraction:
        n = _integral(n)
        s = n % self.period
        if self.coeffs[0][s] is None:
            raise ValueError(f"residue class {s} (mod {self.period}) carried no samples")
        return _poly_eval([row[s] for row in self.coeffs], n)


@dataclass(frozen=True)
class FitMismatch:
    """Failed fit: the tail above ``mismatch_n`` is too short to stabilize."""

    mismatch_n: int
    reason: str


def fit(samples, period: int, degree: int):
    """Fit an exact quasipolynomial to ``samples`` (mapping n -> rational).

    Per residue class, the polynomial is anchored on the newest degree+1
    samples and all older samples are verified backwards, in integer
    arithmetic over the anchored polynomial's common denominator; the largest
    mismatching n (if any) sets the class threshold and everything above it
    must still hold at least degree+2 samples, otherwise a FitMismatch naming
    that n is returned.  Classes without samples are left absent.
    """
    if period < 1:
        raise ValueError("period must be >= 1")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    classes = _classes(samples, period, degree)
    columns: dict[int, list[Fraction]] = {}
    thresholds = []
    for s, pts in sorted(classes.items()):
        poly, largest_bad = _anchor(pts, degree)
        good = [n for n, _ in pts if largest_bad is None or n > largest_bad]
        if len(good) < degree + 2:
            return FitMismatch(
                largest_bad,
                f"sample at n={largest_bad} disagrees with the tail fit and only "
                f"{len(good)} samples remain above it (need {degree + 2})",
            )
        thresholds.append(good[0])
        columns[s] = poly

    n_min = max(thresholds)
    coeffs = [
        tuple(columns[s][j] if s in columns else None for s in range(period))
        for j in range(degree + 1)
    ]
    # drop identically-zero top rows so the stated degree is sharp
    deg = degree
    while deg > 0 and all(c == 0 for c in coeffs[deg] if c is not None):
        coeffs.pop()
        deg -= 1
    return QuasiPolynomial(period, deg, tuple(coeffs), n_min)


def detect(samples, max_period: int, max_degree: int):
    """Smallest (period, degree) -- degree-major -- whose quasipolynomial
    reproduces every sample exactly, or None.

    Candidates are scanned with degree as the major key, so the result is the
    lexicographically least (degree, period) admitting an exact fit of the
    whole sample set.  A candidate with a residue class of fewer than
    degree + 2 samples raises ValueError, as in :func:`fit`.
    """
    for degree in range(max_degree + 1):
        for period in range(1, max_period + 1):
            classes = _classes(samples, period, degree)
            if all(_anchor(pts, degree)[1] is None for pts in classes.values()):
                return period, degree
    return None


def leading_coefficient(qp: QuasiPolynomial):
    """Top coefficient per residue class; collapses to a single Fraction when
    every sampled class agrees."""
    row = [c for c in qp.coeffs[qp.degree] if c is not None]
    if all(c == row[0] for c in row):
        return row[0]
    return qp.coeffs[qp.degree]
