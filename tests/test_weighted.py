import random
import tracemalloc
from fractions import Fraction

import pytest

from oracles import brute_length_sets, brute_weighted_length_sets, random_generators, random_weights
from numsgps import (
    Semigroup,
    delta_of_element,
    delta_set_up_to,
    delta_w_of_element,
    factorizations,
    length_set,
    max_delta_w,
    max_min_length,
    min_delta_w,
    rational_gcd,
    verify_weighted_recurrences,
    w_ordering,
    weighted_delta_profile,
    weighted_extreme_tables,
    weighted_extremes,
    weighted_length,
    weighted_length_set,
)
from numsgps import weighted
from numsgps.weighted import DELTA_MASK_BUDGET, DELTA_PROFILE_BUDGET, EXTREME_TABLE_BUDGET


class TestWeightedLength:
    def test_examples(self):
        assert weighted_length((2, 12, 1), (3, -1, 4)) == -2
        assert weighted_length((0, 0, 0), (3, -1, 4)) == 0
        assert weighted_length((3, 0, 0), (3, 1, 4)) == 9

    def test_rational_weights(self):
        assert weighted_length((2, 3), (Fraction(1, 2), Fraction(1, 3))) == 2

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            weighted_length((1, 2), (1, 2, 3))


class TestWOrdering:
    def test_example(self):
        S = Semigroup([6, 9, 20])
        wo = w_ordering(S, (3, 1, 4))
        assert [S.generators[i] for i in wo.sorted_indices] == [6, 20, 9]
        assert all(len(b) == 1 for b in wo.blocks)

    def test_tie_blocks(self):
        S = Semigroup([6, 9, 10, 14])
        wo = w_ordering(S, (2, 3, 5, 7))
        assert [[S.generators[i] for i in b] for b in wo.blocks] == [[10, 14], [6, 9]]

    def test_all_ones_is_ascending_order(self):
        rng = random.Random(2)
        for _ in range(10):
            gens = random_generators(rng)
            S = Semigroup(gens)
            wo = w_ordering(S, (1,) * S.k)
            assert [S.generators[i] for i in wo.sorted_indices] == sorted(gens)
            assert all(len(b) == 1 for b in wo.blocks)


class TestWeightedLengthSets:
    def test_example(self):
        S = Semigroup([6, 9, 20])
        assert weighted_length_set(S, 18, (3, 1, 4)) == (2, 9)
        assert weighted_extremes(S, 18, (3, 1, 4)) == (9, 2)
        assert delta_w_of_element(S, 18, (3, 1, 4)) == (7,)
        assert delta_w_of_element(S, 60, (1, 1, 1)) == (1, 4)
        assert delta_w_of_element(S, 0, (1, 1, 1)) == ()

    def test_all_ones_specializes_to_lengths(self):
        rng = random.Random(19)
        for _ in range(4):
            gens = random_generators(rng, lo=5)
            S = Semigroup(gens)
            ones = (1,) * S.k
            for t in S.elements_up_to(300):
                assert weighted_length_set(S, t, ones) == length_set(S, t)
                assert delta_w_of_element(S, t, ones) == delta_of_element(S, t)

    def test_weights_equal_generators_collapse(self):
        S = Semigroup([6, 9, 20])
        for t in S.elements_up_to(150):
            assert weighted_length_set(S, t, S.generators) == (t,)


def _unit_weight_cases():
    rng = random.Random(23)
    cases = [Semigroup(random_generators(rng)) for _ in range(6)]
    cases += [
        Semigroup([4, 6, 10]),  # gcd 2
        Semigroup([6, 9, 12, 20]),  # 12 = 6 + 6 is redundant
        Semigroup([7]),
        Semigroup((20, 6, 9), keep_order=True),
    ]
    return cases


class TestUnitWeightLengths:
    """The unweighted functions against the bottom-up length-set oracle."""

    BOUND = 250

    @pytest.mark.parametrize("S", _unit_weight_cases(), ids=repr)
    def test_matches_brute_length_sets(self, S):
        table = brute_length_sets(S.generators, self.BOUND)
        union = set()
        for t, lengths in enumerate(table):
            if not lengths:
                with pytest.raises(ValueError, match="not an element"):
                    length_set(S, t)
                continue
            want = sorted(lengths)
            gaps = {b - a for a, b in zip(want, want[1:])}
            assert length_set(S, t) == tuple(want)
            assert delta_of_element(S, t) == tuple(sorted(gaps))
            assert max_min_length(S, t) == (want[-1], want[0])
            results = [*length_set(S, t), *delta_of_element(S, t), *max_min_length(S, t)]
            assert all(type(x) is int for x in results)
            if not gaps <= union:  # the union grows at t, so check either side
                assert delta_set_up_to(S, t - 1) == tuple(sorted(union))
                union |= gaps
                assert delta_set_up_to(S, t) == tuple(sorted(union))
        brute = delta_set_up_to(S, self.BOUND)
        assert brute == tuple(sorted(union)) and all(type(x) is int for x in brute)

    def test_integer_weights_give_fractions(self):
        S = Semigroup([6, 9, 20])
        for t in (0, 18, 60):
            lengths = weighted_length_set(S, t, (3, 1, 4))
            assert lengths and all(type(x) is Fraction for x in lengths)


class TestRecurrences:
    def test_failure_boundaries(self):
        S = Semigroup([9, 10, 23])
        rep = verify_weighted_recurrences(S, (1, 3, 5), 600)
        assert rep.max_side.largest_failure == 64
        assert rep.max_side.step == 10  # the ratio-maximal generator
        rep2 = verify_weighted_recurrences(S, (6, 9, 5), 600)
        assert rep2.max_side.largest_failure == 81
        assert rep2.max_side.step == 10

    def test_horizon_validation(self):
        with pytest.raises(ValueError):
            verify_weighted_recurrences(Semigroup([9, 10, 23]), (1, 3, 5), 529)

    def test_random_families_obey_threshold(self):
        rng = random.Random(29)
        done = 0
        while done < 8:
            gens = random_generators(rng, lo=3, hi=15)
            S = Semigroup(gens)
            w = random_weights(rng, S.k)
            rk = max(gens)
            rep = verify_weighted_recurrences(S, w, rk * rk + 3 * rk)
            # the scan itself raises if a failure lands beyond the threshold;
            # also pin the step/weight pairing to the w-ordering
            order = w_ordering(S, w)
            assert rep.max_side.step == S.generators[order.first]
            assert rep.min_side.step == S.generators[order.last]
            done += 1


class TestPairwiseGcdFormula:
    def test_examples(self):
        S = Semigroup([6, 9, 20])
        assert min_delta_w(S, (3, 1, 4)) == rational_gcd([21, 36, 16]) == 1
        assert min_delta_w(S, (1, 1, 1)) == 1
        assert max_delta_w(S, (1, 1, 1)) == 4
        assert min_delta_w(S, S.generators) == 0
        assert max_delta_w(S, S.generators) is None

    def test_gcd_scaling(self):
        # <2,4> is <1,2> with every generator doubled: identical length sets
        assert min_delta_w(Semigroup([2, 4]), (1, 1)) == 1
        assert min_delta_w(Semigroup([1, 2]), (1, 1)) == 1

    def test_rational_gcd(self):
        assert rational_gcd([Fraction(1, 2), Fraction(1, 3)]) == Fraction(1, 6)
        assert rational_gcd([Fraction(3, 4), Fraction(-3, 2)]) == Fraction(3, 4)
        assert rational_gcd([0, 0]) == 0
        assert rational_gcd([]) == 0


class TestDeltaProfileOracle:
    def test_profile_matches_enumeration(self):
        rng = random.Random(37)
        for _ in range(5):
            gens = random_generators(rng, lo=4, hi=14)
            S = Semigroup(gens)
            w = random_weights(rng, S.k)
            profile = weighted_delta_profile(S, w, 150)
            table = brute_weighted_length_sets(gens, w, 150)
            for t in range(151):
                ls = sorted(table[t])
                gaps = tuple(sorted({b - a for a, b in zip(ls, ls[1:])}))
                if len(ls) >= 2:
                    assert profile.get(t, ()) == gaps, (gens, w, t)
                else:
                    assert t not in profile

    def test_equal_rows_and_gap_values_are_shared(self):
        # the profile's retained size rests on this: one tuple per distinct
        # gap set, one Fraction per distinct gap value
        profile = weighted_delta_profile(Semigroup([6, 9, 20]), (3, 1, 4), 400)
        rows = {}
        for row in profile.values():
            assert rows.setdefault(row, row) is row
        values = {}
        for row in rows:
            for g in row:
                assert values.setdefault(g, g) is g
        assert len(rows) < len(profile)
        assert len(values) < sum(map(len, rows))


class TestDeltaProfileBudget:
    def test_over_budget_raises_before_allocating(self):
        S = Semigroup([6, 9, 20])
        bound = DELTA_PROFILE_BUDGET
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"up to {bound} is over the budget of {bound} elements"):
                weighted_delta_profile(S, (3, 1, 4), bound)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        with pytest.raises(ValueError, match="up to 100000000 is over the budget"):
            delta_set_up_to(S, 10**8)

    def test_holds_only_the_masks_the_next_elements_read(self):
        # unit weights on <6, 9, 20> up to 5000: the profile itself keeps
        # 293 KB, and one mask per element would hold about 0.45 MB more
        S = Semigroup([6, 9, 20])
        tracemalloc.start()
        try:
            profile = weighted_delta_profile(S, (1, 1, 1), 5000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(profile) > 4900
        assert peak < 550_000

    def test_budget_counts_elements_up_to_the_bound(self, monkeypatch):
        monkeypatch.setattr(weighted, "DELTA_PROFILE_BUDGET", 401)
        S = Semigroup([6, 9, 20])
        assert delta_set_up_to(S, 400) == (1, 2, 3, 4)
        with pytest.raises(ValueError, match="up to 401 is over the budget of 401 elements"):
            delta_set_up_to(S, 401)

    def test_weight_span_over_budget_raises_before_allocating(self):
        S = Semigroup([6, 9, 20])
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=(
                r"up to 400 with integer weights \(1, 1, 1000000000\) needs masks of "
                f"67000000000 bits, over the budget of {DELTA_MASK_BUDGET} bits"
            )):
                weighted_delta_profile(S, (1, 1, 10**9), 400)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_mask_budget_counts_both_signs_of_the_scaled_weights(self, monkeypatch):
        # depth 400 // 6 + 1 = 67; weights 1/2, 1, -1 scale to 1, 2, -2: 67 * 4 bits
        S = Semigroup([6, 9, 20])
        w = (Fraction(1, 2), 1, -1)
        expected = weighted_delta_profile(S, w, 400)
        monkeypatch.setattr(weighted, "DELTA_MASK_BUDGET", 268)
        assert weighted_delta_profile(S, w, 400) == expected
        monkeypatch.setattr(weighted, "DELTA_MASK_BUDGET", 267)
        with pytest.raises(ValueError, match="needs masks of 268 bits, over the budget of 267 bits"):
            weighted_delta_profile(S, w, 400)

    def test_unit_weights_stay_within_a_mask_budget_of_the_element_budget(self, monkeypatch):
        monkeypatch.setattr(weighted, "DELTA_PROFILE_BUDGET", 401)
        monkeypatch.setattr(weighted, "DELTA_MASK_BUDGET", 401)
        assert delta_set_up_to(Semigroup([1, 3]), 400) == (2,)


class TestExtremeTableBudget:
    def test_over_budget_raises_before_allocating(self):
        S = Semigroup([6, 9, 20])
        limit = EXTREME_TABLE_BUDGET
        message = f"up to {limit} are over the budget of {EXTREME_TABLE_BUDGET} entries"
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                weighted_extreme_tables(S, (3, 1, 4), limit)
            with pytest.raises(ValueError, match=message):
                verify_weighted_recurrences(S, (Fraction(1, 2), 1, 4), limit)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_budget_counts_entries_up_to_the_limit(self, monkeypatch):
        S = Semigroup([6, 9, 20])
        w = (3, 1, 4)
        tables = weighted_extreme_tables(S, w, 600)
        report = verify_weighted_recurrences(S, w, 600)
        monkeypatch.setattr(weighted, "EXTREME_TABLE_BUDGET", 601)
        assert weighted_extreme_tables(S, w, 600) == tables
        assert verify_weighted_recurrences(S, w, 600) == report
        with pytest.raises(ValueError, match="up to 601 are over the budget of 601 entries"):
            weighted_extreme_tables(S, w, 601)


class TestExchangeExistence:
    def test_ratio_extreme_exchanges(self):
        # any long-enough factorization admits one of no smaller (larger)
        # weighted length with positive first (last) w-ordered coordinate
        rng = random.Random(59)
        done = 0
        while done < 6:
            gens = random_generators(rng, lo=3, hi=12)
            S = Semigroup(gens)
            w = random_weights(rng, S.k)
            order = w_ordering(S, w)
            first, last = order.first, order.last
            r1, rk = S.generators[first], S.generators[last]
            for t in S.elements_up_to(120):
                zs = factorizations(S, t)
                for z in zs:
                    total = sum(z)
                    lw = weighted_length(z, w)
                    if total >= r1:
                        assert any(
                            b[first] > 0 and weighted_length(b, w) >= lw for b in zs
                        ), (gens, w, t, z)
                    if total >= rk:
                        assert any(
                            b[last] > 0 and weighted_length(b, w) <= lw for b in zs
                        ), (gens, w, t, z)
            done += 1


class TestExtremeTables:
    def test_tables_match_direct_extremes(self):
        S = Semigroup([6, 9, 20])
        w = (3, 1, 4)
        hi, lo = weighted_extreme_tables(S, w, 200)
        for t in range(201):
            if S.contains(t):
                mx, mn = weighted_extremes(S, t, w)
                assert hi[t] == mx and lo[t] == mn
            else:
                assert hi[t] is None and lo[t] is None
