import os
import random
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from itertools import permutations
from pathlib import Path

import pytest

from conftest import brute_members, brute_pseudo_frobenius, loop_round_robin, random_generators
from numsgps import (
    Relation,
    Semigroup,
    betti_elements,
    minimal_presentation,
    verify_minimal_presentation,
)
from numsgps import semigroup
from numsgps.semigroup import APERY_TABLE_BUDGET, ELEMENTS_BUDGET

SRC = str(Path(__file__).resolve().parents[1] / "src")


class TestConstruction:
    def test_dedup_and_sort(self):
        S = Semigroup([9, 6, 6, 20])
        assert S.generators == (6, 9, 20)
        assert S.d == 1

    def test_gcd(self):
        assert Semigroup([4, 6]).d == 2
        assert Semigroup([6, 9, 20]).d == 1

    def test_keep_order(self):
        S = Semigroup((21, 13), keep_order=True)
        assert S.generators == (21, 13)
        with pytest.raises(ValueError):
            Semigroup((5, 5), keep_order=True)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            Semigroup([])
        with pytest.raises(ValueError):
            Semigroup([0, 3])
        with pytest.raises(ValueError):
            Semigroup([-2])


class TestMembership:
    def test_examples(self):
        S = Semigroup([6, 9, 20])
        assert not S.contains(43)
        assert S.contains(0)
        T = Semigroup([4, 6])
        assert not T.contains(5)
        assert T.contains(10)
        assert not T.contains(-4)

    def test_against_reachability_dp(self):
        rng = random.Random(11)
        for _ in range(12):
            gens = random_generators(rng)
            S = Semigroup(gens)
            members = brute_members(gens, 500)
            for t in range(501):
                assert S.contains(t) == (t in members), (gens, t)


class TestApery:
    def test_six_nine_twenty(self):
        S = Semigroup([6, 9, 20])
        assert S.apery_set(6).elements == (0, 49, 20, 9, 40, 29)

    def test_small_cases(self):
        assert Semigroup([2, 3]).apery_set(2).elements == (0, 3)
        assert Semigroup([4, 6]).apery_set(4).elements == (0, 6)

    def test_rejects_non_elements(self):
        S = Semigroup([6, 9, 20])
        with pytest.raises(ValueError):
            S.apery_set(7)
        with pytest.raises(ValueError):
            S.apery_set(0)

    def test_size_and_distinctness_mod_base(self):
        rng = random.Random(5)
        for _ in range(15):
            gens = random_generators(rng)
            S = Semigroup(gens)
            elems = S.elements_up_to(3 * max(gens))
            m = rng.choice([e for e in elems if e > 0])
            ap = S.apery_set(m)
            assert len(ap) == m // S.d
            assert len({t % m for t in ap.elements}) == len(ap)
            for t in ap.elements:
                assert S.contains(t) and not S.contains(t - m)
            assert S.frobenius() == ap.max_element() - m  # Selmer at any base

    def test_non_multiplicity_base(self):
        S = Semigroup([6, 9, 20])
        ap = S.apery_set(9)
        assert len(ap) == 9
        assert S.frobenius() == ap.max_element() - 9  # Selmer at any base


class TestFrobeniusGenus:
    def test_six_nine_twenty(self):
        S = Semigroup([6, 9, 20])
        assert S.frobenius() == 43
        assert S.genus() == 22

    def test_small(self):
        assert Semigroup([2, 3]).frobenius() == 1
        assert Semigroup([2, 3]).genus() == 1
        assert Semigroup([4, 6]).frobenius() == 2
        assert Semigroup([1]).genus() == 0

    def test_complement_free_convention(self):
        assert Semigroup([1]).frobenius() == -1
        assert Semigroup([2, 4]).frobenius() == -2  # all even numbers present

    def test_genus_equals_gap_count(self):
        rng = random.Random(7)
        for _ in range(15):
            gens = random_generators(rng, hi=40, lo=2)
            S = Semigroup(gens)
            f = S.frobenius()
            members = brute_members(gens, max(f, 0) + 1)
            gaps = [t for t in range(0, max(f, 0) + 1, S.d) if t not in members]
            assert S.genus() == len(gaps), gens
            assert S.frobenius() == (max(gaps) if gaps else -S.d), gens


class TestMinimalGenerators:
    def test_examples(self):
        assert Semigroup([6, 9, 20]).minimal_generators() == (6, 9, 20)
        assert Semigroup([2, 3, 7]).minimal_generators() == (2, 3)
        assert Semigroup([5]).minimal_generators() == (5,)

    def test_regenerates_same_semigroup(self):
        rng = random.Random(13)
        for _ in range(10):
            gens = random_generators(rng)
            S = Semigroup(gens)
            M = Semigroup(S.minimal_generators())
            bound = 3 * max(gens) + 50
            assert S.elements_up_to(bound) == M.elements_up_to(bound)

    def test_against_reachability_dp(self):
        # g is redundant iff the others reach it; generator order is kept
        rng = random.Random(61)
        for _ in range(40):
            gens = list(random_generators(rng))
            for _ in range(rng.randint(1, 2)):  # redundant: a sum of two generators
                gens.append(rng.choice(gens) + rng.choice(gens))
            rng.shuffle(gens)
            for S in (Semigroup(gens), Semigroup(dict.fromkeys(gens), keep_order=True)):
                want = tuple(
                    g for g in S.generators
                    if g not in brute_members([h for h in S.generators if h != g], g)
                )
                assert S.minimal_generators() == want, S
                assert len(want) < S.k, S


class TestPseudoFrobenius:
    def test_examples(self):
        assert Semigroup([6, 9, 20]).pseudo_frobenius() == (43,)
        assert Semigroup([6, 9, 20]).type() == 1
        assert Semigroup([2, 3]).pseudo_frobenius() == (1,)
        assert Semigroup([3, 4, 5]).pseudo_frobenius() == (1, 2)
        assert Semigroup([3, 4, 5]).type() == 2

    def test_rejects_gcd_above_one(self):
        with pytest.raises(ValueError):
            Semigroup([4, 6]).pseudo_frobenius()

    def test_against_definition(self):
        rng = random.Random(23)
        done = 0
        while done < 12:
            gens = random_generators(rng)
            S = Semigroup(gens)
            if S.d != 1:
                continue
            assert list(S.pseudo_frobenius()) == brute_pseudo_frobenius(gens, S.frobenius())
            done += 1

    def test_large_multiplicity_against_definition(self):
        # Apery sets of 50-300 classes; every maximality test is a table lookup
        for n in range(50, 301, 25):
            gens = (n, n + 1, n + 3)
            S = Semigroup(gens)
            assert list(S.pseudo_frobenius()) == brute_pseudo_frobenius(gens, S.frobenius()), n

    def test_irreducible_odd_frobenius_has_type_one(self):
        # smallest-possible-genus semigroups with odd Frobenius number
        rng = random.Random(31)
        found = 0
        for _ in range(400):
            gens = random_generators(rng, lo=2)
            S = Semigroup(gens)
            f = S.frobenius()
            if S.d == 1 and f > 0 and f % 2 == 1 and S.genus() == (f + 1) // 2:
                assert S.type() == 1, gens
                found += 1
        assert found > 3


WIDTH_PAIRS = [
    (2, 2**61 - 1),  # 2 * m * max = 2**63 - 4: the widest int64 table
    (2, 2**61 + 1),  # 2**63 + 4: just past it
    (2, 2**62 + 1),  # the Betti search's candidates and edges are past 2**63
    (3, 10**20 + 1),
]

MULTI_CYCLE_ES = [
    2**59 - 1,  # 2 * m * max = 2**63 - 8: int64
    2**63 // 9 | 1,  # m * max < 2**63, but the wrap term of the unreached
    # cycle {1, 3} under 2e, big + 2e, is past 2**63
    3**40,
]


class TestAperyTableWidth:
    """The Apery table runs on int64 while 2 * m * max(reduced) < 2**63 and on
    Python ints beyond, and the Betti search's kernel while
    max(tab) + 2 * max(reduced) < 2**63; both sides of each line must be
    exact.  The expected values are closed forms, not the library's
    algorithm."""

    @pytest.mark.parametrize("a, b", WIDTH_PAIRS)
    @pytest.mark.parametrize("d", [1, 10**15])
    def test_two_generators_match_sylvester(self, a, b, d):
        # <a, b> with gcd(a, b) = 1: F = ab - a - b, g = (a - 1)(b - 1)/2 and
        # Ap(S; a) = {j b : j < a}; scaling by d scales F and the Apery set
        S = Semigroup([d * a, d * b])
        assert S.frobenius() == d * (a * b - a - b)
        assert S.genus() == (a - 1) * (b - 1) // 2
        assert sorted(S.apery_set(d * a).elements) == [d * j * b for j in range(a)]
        # numpy reductions over the table, returned as plain ints (JSON needs them)
        assert type(S.frobenius()) is int and type(S.genus()) is int
        if d == 1:
            assert S.pseudo_frobenius() == (a * b - a - b,)
            assert type(S.pseudo_frobenius()[0]) is int

    @pytest.mark.parametrize("a, b", WIDTH_PAIRS)
    @pytest.mark.parametrize("d", [1, 10**15])
    def test_two_generators_have_one_relation(self, a, b, d):
        # <a, b> with gcd(a, b) = 1: Z(ab) = {(b, 0), (0, a)} is the only
        # disconnected graph, so the presentation is that one relation
        S = Semigroup([d * a, d * b])
        assert betti_elements(S) == {d * a * b: 1}
        rels = minimal_presentation(S)
        assert rels == (Relation((b, 0), (0, a), d * a * b),)
        assert verify_minimal_presentation(S, rels) == []

    @staticmethod
    def four_two_e_closed_form(e):
        # <4, 2e, 2e + 1>, e odd: 2e and 2e + 1 are 2 and 3 mod 4, and class 1
        # is first reached by 2e + (2e + 1); every other factorization is larger
        return {"apery": [0, 4 * e + 1, 2 * e, 2 * e + 1], "frobenius": 4 * e - 3,
                "genus": 2 * e - 1, "pf": (4 * e - 3,)}

    @pytest.mark.parametrize("e", [3, 5, 7, 11])
    def test_three_generator_closed_form_against_definition(self, e):
        gens = (4, 2 * e, 2 * e + 1)
        members = brute_members(gens, 4 * max(gens))
        least = [min(x for x in members if x % 4 == rho) for rho in range(4)]
        want = self.four_two_e_closed_form(e)
        gaps = [t for t in range(4 * max(gens)) if t not in members]
        assert least == want["apery"]
        assert (max(gaps), len(gaps)) == (want["frobenius"], want["genus"])
        assert list(want["pf"]) == brute_pseudo_frobenius(gens, want["frobenius"])

    @pytest.mark.parametrize("e", MULTI_CYCLE_ES)
    def test_multi_cycle_table_at_the_int64_limit(self, e):
        # the pass for 2e splits the residues mod 4 into two cycles, one of
        # them all sentinels: the widest intermediate the kernel forms
        S = Semigroup([4, 2 * e, 2 * e + 1])
        want = self.four_two_e_closed_form(e)
        assert list(S.apery_set(4).elements) == want["apery"]
        assert S.frobenius() == want["frobenius"]
        assert S.genus() == want["genus"]
        assert S.pseudo_frobenius() == want["pf"]


class TestRoundRobinPasses:
    """Every table the round robin yields, after the first i generators,
    equals the plain loop over those i, unreached classes at the sentinel
    m * max.  The first pass with a non-zero step is a closed form on a
    fresh table, so it is checked in each position a generator order gives
    it, beside steps with gcd(step, m) > 1 and steps = 0 (mod m)."""

    @staticmethod
    def passes(gens, m):
        return [tab.tolist() for tab in Semigroup(gens, keep_order=True)._round_robin(m, gens)]

    @pytest.mark.parametrize("gens, m", [
        ((6, 9, 20), 6),  # steps 3 and 2: three and two cycles
        ((4, 6, 9), 4),  # step 2 leaves the odd cycle unreached
        ((12, 19, 23, 30), 12),
        ((10, 14, 15, 21), 10),
        ((5, 10, 15, 7), 5),  # three generators = 0 (mod 5)
        ((7,), 7),
    ])
    def test_every_pass_in_every_order(self, gens, m):
        for order in permutations(gens):
            assert self.passes(order, m) == loop_round_robin(order, m), order

    @pytest.mark.parametrize("a, b", WIDTH_PAIRS)
    def test_every_pass_at_the_width_pairs(self, a, b):
        for order in [(a, b), (b, a)]:
            assert self.passes(order, a) == loop_round_robin(order, a), order

    @pytest.mark.parametrize("e", MULTI_CYCLE_ES)
    def test_every_pass_at_the_int64_limit(self, e):
        for order in permutations((4, 2 * e, 2 * e + 1)):
            assert self.passes(order, 4) == loop_round_robin(order, 4), order

    def test_snapshots_keep_the_int64_width_rule(self):
        # int64 exactly while 2 * m * max < 2**63, Python ints past it
        for (a, b), dtype in zip(WIDTH_PAIRS, ["int64", "object", "object", "object"]):
            tabs = Semigroup([a, b])._round_robin(a, (a, b))
            assert {tab.dtype.name for tab in tabs} == {dtype}, (a, b)


class TestAperyTableBudget:
    def test_over_budget_raises_before_allocating(self):
        m = APERY_TABLE_BUDGET + 1
        S = Semigroup([m, m + 1])
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"modulo {m} is over the budget of {APERY_TABLE_BUDGET}"):
                S.frobenius()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_table_build_holds_one_pass_at_a_time(self):
        # a pass holds its index, ramp and gathered arrays beside the int64
        # table, 32 bytes a class; the previous pass's must be gone by then
        m = 200_003
        S = Semigroup([m, m + 1, m + 3, m + 7])
        Semigroup([2, 3]).frobenius()  # numpy is imported outside the trace
        tracemalloc.start()
        try:
            table = S._residue_table
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(table) == m
        assert peak < 36 * m

    def test_apery_set_at_a_huge_base(self):
        S = Semigroup([6, 9, 20])
        with pytest.raises(ValueError, match="over the budget"):
            S.apery_set(10**12)
        assert len(S.apery_set(600)) == 600  # a base under the budget is served

    def test_budget_counts_residue_classes_of_the_reduced_semigroup(self):
        # a multiplicity over the budget is fine when gcd d brings m/d under it
        d = 10**6
        S = Semigroup([1000 * d, 1001 * d])
        assert S.multiplicity > APERY_TABLE_BUDGET
        assert S.frobenius() == d * (1000 * 1001 - 1000 - 1001)


class TestElementsBudget:
    def test_over_budget_raises_before_allocating(self):
        S = Semigroup([6, 9, 20])
        bound = ELEMENTS_BUDGET
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=(
                f"up to {bound} are over the budget of {ELEMENTS_BUDGET} multiples of 1"
            )):
                S.elements_up_to(bound)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_budget_counts_multiples_of_the_gcd(self, monkeypatch):
        # <4, 6> has gcd 2: 0, 2, ..., 100 are 51 multiples
        monkeypatch.setattr(semigroup, "ELEMENTS_BUDGET", 51)
        S = Semigroup([4, 6])
        assert S.elements_up_to(101) == [0, *range(4, 101, 2)]
        with pytest.raises(ValueError, match="up to 102 are over the budget of 51 multiples of 2"):
            S.elements_up_to(102)


def test_import_leaves_numpy_unloaded():
    # numpy is imported by the Apery-table kernel on first use, not by the package
    code = "import sys, numsgps; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


class TestConcurrency:
    def test_concurrent_readers_share_a_fresh_value(self):
        # the lazy membership table must be safe to race on
        def probe(S):
            return (S.frobenius(), S.genus(), S.apery_set(S.multiplicity).elements,
                    [S.contains(t) for t in range(200)])

        expected = probe(Semigroup([6, 9, 20]))
        S = Semigroup([6, 9, 20])
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: probe(S), range(16)))
        assert all(r == expected for r in results)


class TestWilf:
    def test_both_formulas(self):
        S = Semigroup([6, 9, 20])
        assert S.wilf_number("variant") == 3 * (43 - 22) - 44 == 19
        assert S.wilf_number("standard") == 3 * 22 - 44 == 22

    def test_two_three(self):
        S = Semigroup([2, 3])
        assert S.wilf_number("standard") == 0
        assert S.wilf_number("variant") == -2  # differs from standard by k

    def test_rejects(self):
        with pytest.raises(ValueError):
            Semigroup([4, 6]).wilf_number()
        with pytest.raises(ValueError):
            Semigroup([2, 3]).wilf_number("other")
