import importlib
import random
import tracemalloc
from itertools import permutations
from math import gcd

import pytest

from oracles import (
    brute_betti_elements,
    brute_components,
    brute_factorization_table,
    random_generators,
)
from numsgps import (
    Relation,
    Semigroup,
    betti_elements,
    connects_under_relations,
    delta_of_element,
    delta_set_up_to,
    factorization_graph,
    factorizations,
    length_set,
    max_min_length,
    minimal_presentation,
    verify_minimal_presentation,
    weighted_extreme_tables,
)


class TestFactorizations:
    def test_examples(self):
        S = Semigroup([6, 9, 20])
        assert set(factorizations(S, 60)) == {
            (10, 0, 0), (7, 2, 0), (4, 4, 0), (1, 6, 0), (0, 0, 3),
        }
        assert set(factorizations(S, 18)) == {(3, 0, 0), (0, 2, 0)}
        assert factorizations(S, 0) == ((0, 0, 0),)
        assert factorizations(S, 43) == ()
        assert factorizations(S, -7) == ()

    def test_parametrized_member_example(self):
        # generators of the member at n=44 of w=(2,3,5,7,8), r=(0,0,5,7,9)
        S = Semigroup((88, 132, 225, 315, 361), keep_order=True)
        assert set(factorizations(S, 1620)) == {(0, 0, 3, 3, 0), (2, 0, 0, 0, 4)}

    def test_dot_product_invariant_and_oracle_agreement(self):
        rng = random.Random(3)
        for _ in range(8):
            gens = random_generators(rng, lo=5)
            S = Semigroup(gens)
            table = brute_factorization_table(gens, 300)
            for t in range(301):
                zs = factorizations(S, t)
                assert set(zs) == table[t], (gens, t)
                for z in zs:
                    assert sum(a * g for a, g in zip(z, gens)) == t

    @pytest.mark.parametrize("gens", [(4, 6, 9), (6, 10, 15), (10, 4, 9, 6), (7,)])
    @pytest.mark.parametrize("scale", [1, 3])
    def test_prefix_gcd_above_one_in_every_order(self, gens, scale):
        # the ascending prefixes <4, 6> and <6, 10> have gcd 2: their tables
        # leave the odd classes at the sentinel m * max (36 for <4, 6, 9>),
        # which the odd remainders above it exceed, so t runs to 3 m max
        top = 3 * min(gens) * max(gens)
        for order in permutations(gens):
            gs = tuple(scale * g for g in order)
            S = Semigroup(gs, keep_order=True)
            table = brute_factorization_table(gs, scale * top)
            assert factorizations(S, -scale) == ()
            for t in range(scale * top + 1):
                assert factorizations(S, t) == tuple(sorted(table[t])), (gs, t)

    @pytest.mark.parametrize("gens", [(4, 6, 9), (9, 4, 6, 10), (20, 9, 6), (7,), (2, 3), (3, 10**20 + 1)])
    @pytest.mark.parametrize("scale", [1, 3])
    def test_last_prefix_table_is_the_residue_table(self, gens, scale):
        # the round robin's last table is the residue table, which no level
        # of the prefix tables holds: level i holds the gcd of the i smallest
        # generators and the snapshot after their passes, level 0 (0, None)
        # and level 1 (m, [0]), the one class its gcd m lets a walk read
        S = Semigroup([scale * g for g in gens], keep_order=True)
        reduced = sorted(S._reduced)
        full = [tab.tolist() for tab in S._round_robin(reduced[0], reduced)]
        assert full[-1] == S._residue_table.tolist()
        levels = S._prefix_tables
        assert [(S._reduced[pos], g) for pos, g, _, _ in levels] == list(zip(reduced, reduced))
        assert levels[0][2:] == (0, None)
        if len(levels) > 1:
            assert levels[1][2:] == (reduced[0], [0])
        for i, (_, _, e, tab) in enumerate(levels[2:], 2):
            assert (e, tab) == (gcd(*reduced[:i]), full[i - 1])
            assert all(type(x) is int for x in tab)

    def test_builds_no_semigroup(self, monkeypatch):
        S = Semigroup((9, 4, 6, 10), keep_order=True)
        built = []
        init = Semigroup.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Semigroup, "__init__", counted)
        for t in range(200):
            factorizations(S, t)
        assert built == []


class TestLengthSets:
    def test_examples(self):
        S = Semigroup([6, 9, 20])
        assert length_set(S, 60) == (3, 7, 8, 9, 10)
        assert delta_of_element(S, 60) == (1, 4)
        assert length_set(S, 18) == (2, 3)
        assert delta_of_element(S, 18) == (1,)
        assert length_set(S, 0) == (0,)
        assert delta_of_element(S, 0) == ()
        assert max_min_length(S, 60) == (10, 3)
        assert max_min_length(S, 18) == (3, 2)

    def test_single_generator_element(self):
        S = Semigroup([6, 9, 20])
        assert max_min_length(S, 20) == (1, 1)

    def test_rejects_non_elements(self):
        S = Semigroup([6, 9, 20])
        with pytest.raises(ValueError):
            length_set(S, 43)

    def test_quasilinear_recurrences_beyond_square(self):
        # M(t) - M(t - r_min) = 1 and m(t) - m(t - r_max) = 1 past r_max^2
        rng = random.Random(17)
        for _ in range(6):
            gens = random_generators(rng, lo=3, hi=25)
            S = Semigroup(gens)
            r1, rk = min(gens), max(gens)
            hor = rk * rk + 3 * rk
            hi, lo = weighted_extreme_tables(S, (1,) * S.k, hor)
            for t in range(rk * rk + 1, hor + 1):
                if hi[t] is None:
                    continue
                if t - r1 >= 0 and hi[t - r1] is not None:
                    assert hi[t] == hi[t - r1] + 1, (gens, t)
                if t - rk >= 0 and lo[t - rk] is not None:
                    assert lo[t] == lo[t - rk] + 1, (gens, t)


class TestFactorizationGraph:
    def test_disconnected_graphs(self):
        S = Semigroup([6, 9, 20])
        g18 = factorization_graph(S, 18)
        assert g18.components == (((0, 2, 0),), ((3, 0, 0),))
        assert not g18.is_connected and g18.multiplicity == 1
        g60 = factorization_graph(S, 60)
        assert len(g60.components) == 2
        assert ((0, 0, 3),) in g60.components
        big = next(c for c in g60.components if len(c) > 1)
        assert set(big) == {(10, 0, 0), (7, 2, 0), (4, 4, 0), (1, 6, 0)}

    def test_connected_singleton(self):
        S = Semigroup([6, 9, 20])
        g = factorization_graph(S, 15)
        assert g.components == (((1, 1, 0),),)
        assert g.is_connected

    def test_later_generator_joins_two_components(self):
        # 4 and 5 are available at 16 but not adjacent (16 - 4 - 5 = 7 is a
        # gap); 6 is adjacent to both, so it joins their components into one
        S = Semigroup([4, 5, 6])
        assert not S.contains(7) and S.contains(16 - 4 - 6) and S.contains(16 - 5 - 6)
        assert factorization_graph(S, 16).components == (((0, 2, 1), (1, 0, 2), (4, 0, 0)),)
        assert 16 not in betti_elements(S)

    @staticmethod
    def _oracle_cases():
        rng = random.Random(59)
        for _ in range(12):
            yield Semigroup(random_generators(rng))
        for scale in (2, 3):  # gcd > 1
            for _ in range(3):
                yield Semigroup([scale * g for g in random_generators(rng, hi=12)])
        for _ in range(4):  # a redundant generator: a sum of two others
            gens = random_generators(rng, max_k=3)
            yield Semigroup(gens + (rng.choice(gens) + rng.choice(gens),))
        for _ in range(4):  # supplied order kept, not sorted
            gens = list(random_generators(rng))
            while gens == sorted(gens):
                rng.shuffle(gens)
            yield Semigroup(gens, keep_order=True)
        yield Semigroup([2, 3, 7])

    def test_matches_brute_components(self):
        # components and their order, at every element up to 150
        for S in self._oracle_cases():
            table = brute_factorization_table(S.generators, 150)
            for t, zs in enumerate(table):
                if not zs:
                    with pytest.raises(ValueError, match=f"^{t} is not an element"):
                        factorization_graph(S, t)
                    continue
                graph = factorization_graph(S, t)
                assert graph.element == t
                assert graph.components == brute_components(zs), (S, t)
            assert "_betti" not in vars(S), S  # no Betti search behind a graph

    def test_graph_at_one_degree_runs_no_betti_search(self):
        # 30021 = 3 * 10007 is not a Betti element; its graph needs the
        # kernel on that one element, not the search over 20014 candidates
        S = Semigroup([10007, 10009, 10037])
        t = 3 * 10007
        table = brute_factorization_table(S.generators, t)
        assert factorization_graph(S, t).components == brute_components(table[t])
        assert "_betti" not in vars(S)


class TestBettiElements:
    def test_examples(self):
        assert betti_elements(Semigroup([6, 9, 20])) == {18: 1, 60: 1}
        assert betti_elements(Semigroup([2, 3])) == {6: 1}
        assert betti_elements(Semigroup([3, 4, 5])) == {8: 1, 9: 1, 10: 1}

    def test_gcd_above_one(self):
        assert betti_elements(Semigroup([4, 6])) == {12: 1}
        assert betti_elements(Semigroup([1])) == {}

    def test_redundant_generator_creates_betti_element(self):
        assert 7 in betti_elements(Semigroup([2, 3, 7]))

    @staticmethod
    def _oracle_cases():
        rng = random.Random(41)
        for _ in range(80):
            yield Semigroup(random_generators(rng))
        for _ in range(40):  # gcd > 1
            scale = rng.choice((2, 3, 5))
            yield Semigroup([scale * g for g in random_generators(rng, hi=12)])
        for _ in range(40):  # a redundant generator: a sum of two others
            gens = random_generators(rng, max_k=3)
            yield Semigroup(gens + (rng.choice(gens) + rng.choice(gens),))
        for _ in range(40):  # supplied order kept, not sorted
            gens = list(random_generators(rng))
            while gens == sorted(gens):
                rng.shuffle(gens)
            yield Semigroup(gens, keep_order=True)
        for _ in range(15):  # 5 or 6 generators: components grow over more steps
            yield Semigroup(sorted(rng.sample(range(3, 21), rng.choice((5, 6)))))
        for g in (1, 2, 7):  # k = 1
            yield Semigroup([g])
        yield Semigroup([2, 3, 7])

    def test_matches_graph_scan(self):
        for S in self._oracle_cases():
            gens = S.generators
            want = brute_betti_elements(gens)
            got = betti_elements(S)
            assert got == want, gens
            assert list(got) == list(want), gens  # ascending keys
            # each Betti element is w + g_i with w in Ap(S; g_1) and g_i != g_1
            g1 = min(gens)
            for b in got:
                assert any(
                    S.contains(b - g) and not S.contains(b - g - g1) for g in gens if g != g1
                ), (gens, b)

    def test_huge_generators_scale_exactly(self):
        # the bitmap scan to the Betti bound would need about 2**67 entries here
        D = 2**64
        assert betti_elements(Semigroup([3 * D, 5 * D])) == {15 * D: 1}
        S = Semigroup([6 * D, 9 * D, 20 * D])
        assert betti_elements(S) == {18 * D: 1, 60 * D: 1}
        rels = minimal_presentation(S)
        assert [r.degree for r in rels] == [18 * D, 60 * D]
        assert (rels[0].left, rels[0].right) == ((3, 0, 0), (0, 2, 0))
        assert rels[1].right == (0, 0, 3)
        assert verify_minimal_presentation(S, rels) == []
        assert [r.degree for r in minimal_presentation(Semigroup([3 * D, 5 * D]))] == [15 * D]

    @staticmethod
    def search_in_chunks(offsets, monkeypatch):
        """betti_elements on <m, m + offsets...> at m = 200,003, its residue
        table built outside the trace: checks that the search peaks under
        8m + 2**20 bytes and feeds the kernel at most BETTI_CHUNK candidates
        at a time, and returns the share of the (k - 1) m candidates it
        feeds it.  The kernel is wrapped to count sizes only, so that no
        batch outlives its call."""
        m = 200_003
        S = Semigroup([m] + [m + o for o in offsets])
        assert len(S._residue_table) == m
        module = importlib.import_module("numsgps.factorizations")
        kernel, sizes = module._components, []

        def counted(tab, ts, gens):
            sizes.append(len(ts))
            return kernel(tab, ts, gens)

        monkeypatch.setattr(module, "_components", counted)
        tracemalloc.start()
        try:
            betti_elements(S)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * m + 2**20
        assert max(sizes) <= module.BETTI_CHUNK
        return sum(sizes) / (len(offsets) * m)

    def test_search_memory_is_bounded_in_chunks(self, monkeypatch):
        # (k - 1) m = 400,006 candidates: held at once, the kernel's k x k
        # arrays would take about 29 MB each; in chunks the search holds the
        # residue table as an int64 array (8 bytes a class) and O(chunk k^2)
        assert self.search_in_chunks((6, 14), monkeypatch) < 0.1

    def test_search_memory_is_bounded_when_most_candidates_survive(self, monkeypatch):
        # the screen keeps 550,013 of the 800,012 candidates here, 4.4 MB as
        # int64: they must stream through the kernel in batches, not pile up
        assert self.search_in_chunks((1, 2, 3, 4), monkeypatch) > 0.6

    def test_fresh_dict_per_call(self):
        S = Semigroup([6, 9, 20])
        first = betti_elements(S)
        first[18] = 99
        first[7] = 1
        assert betti_elements(S) == {18: 1, 60: 1}

    def test_invariant_under_generator_permutation(self):
        rng = random.Random(43)
        for _ in range(8):
            gens = list(random_generators(rng))
            S = Semigroup(gens)
            perm = gens[:]
            rng.shuffle(perm)
            T = Semigroup(tuple(perm), keep_order=True)
            assert betti_elements(S) == betti_elements(T)


class TestDeltaSet:
    def test_min_max_via_structure(self):
        S = Semigroup([6, 9, 20])
        brute = delta_set_up_to(S, 400)
        assert min(brute) == gcd(9 - 6, 20 - 9) == 1
        assert max(brute) == 4
        assert max(max(delta_of_element(S, b)) for b in betti_elements(S)) == 4


class TestMinimalPresentation:
    def test_canonical_choice(self):
        rels = minimal_presentation(Semigroup([6, 9, 20]))
        assert len(rels) == 2
        assert (rels[0].left, rels[0].right, rels[0].degree) == ((3, 0, 0), (0, 2, 0), 18)
        assert rels[1].degree == 60
        assert rels[1].right == (0, 0, 3)
        assert rels[1].left in {(10, 0, 0), (7, 2, 0), (4, 4, 0), (1, 6, 0)}

    def test_two_three(self):
        rels = minimal_presentation(Semigroup([2, 3]))
        assert len(rels) == 1
        assert {rels[0].left, rels[0].right} == {(3, 0), (0, 2)}

    def test_relation_count_is_betti_multiplicity_sum(self):
        rng = random.Random(47)
        for _ in range(8):
            gens = random_generators(rng)
            S = Semigroup(gens)
            rels = minimal_presentation(S)
            assert len(rels) == sum(betti_elements(S).values())
            assert verify_minimal_presentation(S, rels) == []

    def test_chain_property(self):
        rng = random.Random(53)
        cases = [(6, 9, 20), (2, 3), (3, 4, 5)]
        cases += [random_generators(rng) for _ in range(4)]
        for gens in cases:
            S = Semigroup(gens)
            rels = minimal_presentation(S)
            for t in S.elements_up_to(300):
                assert connects_under_relations(S, rels, t), (gens, t)

    def test_verifier_rejects_broken_presentations(self):
        S = Semigroup([6, 9, 20])
        rels = minimal_presentation(S)
        assert verify_minimal_presentation(S, rels[:1])  # missing a relation
        doubled = rels + rels[:1]
        assert verify_minimal_presentation(S, doubled)  # redundant relation

    def test_verifier_messages(self):
        S = Semigroup([6, 9, 20])
        rels = minimal_presentation(S)
        short = "degree multiset [18] != Betti elements with multiplicity [18, 60]"
        cases = [
            ([Relation((3, 0), (0, 2), 18)],
             ["relation Relation(left=(3, 0), right=(0, 2), degree=18) has wrong arity"]),
            ([Relation((3, 0, 0), (0, 2, 0), 20)],
             ["relation Relation(left=(3, 0, 0), right=(0, 2, 0), degree=20) sides factor "
              "18 and 18, degree says 20"]),
            ([Relation((-3, 4, 0), (3, 0, 0), 18)],
             [short,
              "relation Relation(left=(-3, 4, 0), right=(3, 0, 0), degree=18) uses a vector "
              "that does not factor 18",
              "relations of degree 18 merge 0 of 1 needed components"]),
            (rels[:1], [short]),
            (rels + rels[:1],
             ["degree multiset [18, 18, 60] != Betti elements with multiplicity [18, 60]",
              "relation Relation(left=(3, 0, 0), right=(0, 2, 0), degree=18) is redundant "
              "(same component of degree 18)"]),
        ]
        for relations, problems in cases:
            assert verify_minimal_presentation(S, relations) == problems, relations

    def test_verifier_three_components(self):
        # <6, 10, 15> has one Betti element, 30 = 5*6 = 3*10 = 2*15, whose
        # three factorizations are three components
        S = Semigroup([6, 10, 15])
        a, b, c = (5, 0, 0), (0, 3, 0), (0, 0, 2)
        edges = [Relation(a, b, 30), Relation(a, c, 30), Relation(b, c, 30)]
        edges += [Relation(r.right, r.left, 30) for r in edges]
        for first, second in permutations(edges, 2):
            spanning = first.as_pair() != second.as_pair()
            assert (verify_minimal_presentation(S, [first, second]) == []) == spanning
        extra = "degree multiset [30, 30, 30] != Betti elements with multiplicity [30, 30]"
        for first, second, third in permutations(edges[:3]):
            assert verify_minimal_presentation(S, [first, second, third]) == [
                extra, f"relation {third} is redundant (same component of degree 30)"
            ]
        for edge in edges:
            assert verify_minimal_presentation(S, [edge]) == [
                "degree multiset [30] != Betti elements with multiplicity [30, 30]",
                "relations of degree 30 merge 1 of 2 needed components",
            ]

    def test_verifier_edge_cases(self):
        S = Semigroup([6, 9, 20])
        rels = minimal_presentation(S)
        # balanced sides whose degree is not an element: every side has a
        # negative entry, which is a problem, not an error
        for left, right, degree in [((-1, 1, 2), (2, -1, 2), 43), ((-1, 0, 0), (2, -2, 0), -6)]:
            rel = Relation(left, right, degree)
            assert verify_minimal_presentation(S, rels + (rel,)) == [
                f"degree multiset {sorted([18, 60, degree])} != Betti elements with multiplicity [18, 60]",
                f"relation {rel} uses a vector that does not factor {degree}",
            ]
        zero = Relation((0, 0, 0), (0, 0, 0), 0)
        assert verify_minimal_presentation(S, rels + (zero,)) == [
            "degree multiset [0, 18, 60] != Betti elements with multiplicity [18, 60]",
            "relation Relation(left=(0, 0, 0), right=(0, 0, 0), degree=0) is redundant "
            "(same component of degree 0)",
        ]
        # 36 = 6*6 = 3*6 + 2*9 = 4*9 has a connected factorization graph
        connected = Relation((6, 0, 0), (0, 4, 0), 36)
        assert verify_minimal_presentation(S, rels + (connected,)) == [
            "degree multiset [18, 36, 60] != Betti elements with multiplicity [18, 60]",
            "relation Relation(left=(6, 0, 0), right=(0, 4, 0), degree=36) is redundant "
            "(same component of degree 36)",
        ]
        negative = (Relation((6, 0, 0), (-3, 6, 0), 36), Relation((0, 0, 2), (1, 6, -1), 40))
        assert verify_minimal_presentation(S, rels + negative) == [
            "degree multiset [18, 36, 40, 60] != Betti elements with multiplicity [18, 60]",
            "relation Relation(left=(6, 0, 0), right=(-3, 6, 0), degree=36) uses a vector "
            "that does not factor 36",
            "relation Relation(left=(0, 0, 2), right=(1, 6, -1), degree=40) uses a vector "
            "that does not factor 40",
        ]

    def test_verifier_reports_a_relation_at_a_gap(self):
        # (-1, 2) balances at 7, a gap of <3, 5>: a problem to report, not an error
        rel = Relation((-1, 2), (-1, 2), 7)
        assert verify_minimal_presentation(Semigroup([3, 5]), [rel]) == [
            "degree multiset [7] != Betti elements with multiplicity [15]",
            f"relation {rel} uses a vector that does not factor 7",
        ]

    def test_verifier_reports_a_relation_far_below_zero(self):
        # a degree below -2**63 needs the kernel's object dtype
        rel = Relation((-3 * 10**19, 0, 0), (0, -2 * 10**19, 0), -18 * 10**19)
        assert verify_minimal_presentation(Semigroup([6, 9, 20]), [rel]) == [
            f"degree multiset [{rel.degree}] != Betti elements with multiplicity [18, 60]",
            f"relation {rel} uses a vector that does not factor {rel.degree}",
        ]

    @pytest.mark.parametrize("gens", [
        (1519, 2026, 3040, 4560),  # EX53 at n = 506
        (200, 401, 604, 606),  # w = (1, 2, 3, 3), r = (0, 1, 4, 6) at n = 200
    ])
    def test_enumerates_no_factorization_set(self, gens, monkeypatch):
        # each component's least member is read off its own generators
        want = minimal_presentation(Semigroup(gens, keep_order=True))

        def refuse(S, t):
            raise AssertionError(f"enumerated Z({t})")

        module = importlib.import_module("numsgps.factorizations")
        monkeypatch.setattr(module, "factorizations", refuse)
        assert minimal_presentation(Semigroup(gens, keep_order=True)) == want

    def test_partial_presentation_does_not_chain(self):
        S = Semigroup([6, 9, 20])
        rels = minimal_presentation(S)
        assert not connects_under_relations(S, rels[:1], 60)
        assert connects_under_relations(S, rels, 60)
