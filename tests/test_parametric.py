import dataclasses
import importlib
import random
import sys
import threading
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest

from numsgps import (
    BettiBijectionReport,
    LinearFamily,
    PolynomialFamily,
    Relation,
    Semigroup,
    TransportReport,
    apery_at_multiple,
    betti_bijection,
    betti_elements,
    factorizations,
    family_delta,
    family_from_spec,
    fast_apery,
    min_delta_w,
    pf_transport,
    phi,
    scan,
    transport_presentation,
    verify_fast_apery,
    weighted_delta_union_up_to,
)
from numsgps import parametric, weighted


EX53 = LinearFamily.normalize((3, 4, 6, 9), (1, 2, 4, 6))
SMALL = LinearFamily.normalize((1, 1, 1), (0, 1, 2))


class TestNormalize:
    def test_already_normal(self):
        assert EX53.w == (3, 4, 6, 9)
        assert EX53.r == (1, 2, 4, 6)
        assert EX53.shift == 0
        assert EX53.period == 9
        assert EX53.transport_bound == 2916

    def test_shift(self):
        fam = LinearFamily.normalize((1, 1), (5, 7))
        assert fam.r == (0, 2)
        assert fam.shift == -5
        # generators at the normalized parameter 10 = original parameter 5
        assert fam.generators(10) == (10, 12)

    def test_ratio_sort(self):
        fam = LinearFamily.normalize((1, 2), (3, 1))
        assert fam.w == (2, 1)
        assert fam.r == (1, 3)

    def test_degenerate(self):
        fam = LinearFamily.normalize((2, 3), (2, 3))
        assert fam.is_degenerate
        with pytest.raises(ValueError):
            transport_presentation(fam, 10)

    def test_invalid(self):
        with pytest.raises(ValueError):
            LinearFamily.normalize((0, 1), (1, 2))
        with pytest.raises(ValueError):
            LinearFamily((1, 1), (2, 0))  # ratios out of order


class TestInstantiate:
    def test_example_family(self):
        assert EX53.instantiate(506).generators == (1519, 2026, 3040, 4560)

    def test_small(self):
        fam = LinearFamily.normalize((1, 1, 1), (0, 3, 5))
        assert fam.instantiate(10).generators == (10, 13, 15)

    def test_order_preserved(self):
        fam = LinearFamily.normalize((2, 1), (1, 3))
        assert fam.instantiate(10).generators == (21, 13)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SMALL.instantiate(0)  # first generator would be 0
        dup = LinearFamily.normalize((1, 1), (0, 0))
        with pytest.raises(ValueError):
            dup.instantiate(5)  # duplicate generators


class TestMemberMemo:
    """instantiate keeps the two members it returned most recently."""

    def test_repeated_member_is_the_same_instance(self):
        fam = LinearFamily.normalize((1, 1, 1), (0, 3, 5))
        assert fam.instantiate(10) is fam.instantiate(10)

    def test_keeps_only_two_members(self):
        fam = LinearFamily.normalize((1, 1, 1), (0, 3, 5))
        a = fam.instantiate(10)
        fam.instantiate(11)
        c = fam.instantiate(12)
        again = fam.instantiate(10)
        assert again is not a and again == a
        assert fam.instantiate(12) is c  # 11 was the least recently returned

    def test_errors_are_not_kept(self):
        for _ in range(2):
            with pytest.raises(ValueError):
                SMALL.instantiate(0)

    def test_threads_sharing_a_family(self):
        fam = LinearFamily.normalize((1, 1, 1), (0, 3, 5))
        errors = []

        def work():
            try:
                for i in range(300):
                    n = 10 + i % 3
                    assert fam.instantiate(n).generators == (n, n + 3, n + 5)
                    assert fam._members.cache_info().currsize <= 2  # holds by construction
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert fam.instantiate(12) is fam.instantiate(12)  # the cache still serves hits

    def test_equal_families_keep_their_own_members(self):
        # so two runs of one job, each with its own family, compute independently
        a = LinearFamily.normalize((1, 1, 1), (0, 3, 5))
        b = LinearFamily.normalize((1, 1, 1), (0, 3, 5))
        assert a == b and a.instantiate(10) == b.instantiate(10)
        assert a.instantiate(10) is not b.instantiate(10)

    def test_family_identity_unchanged(self):
        fam = LinearFamily.normalize((1, 1, 1), (0, 3, 5))
        before = (repr(fam), hash(fam), dataclasses.fields(fam))
        fam.instantiate(10)
        assert (repr(fam), hash(fam), dataclasses.fields(fam)) == before
        assert fam == LinearFamily.normalize((1, 1, 1), (0, 3, 5))

    @pytest.mark.parametrize(
        "w, r, ns",
        [((1, 1, 1), (0, 1, 2), range(5, 31)), ((1, 2, 3, 3), (0, 1, 4, 6), [109])],
    )
    def test_shared_members_give_the_same_reports(self, w, r, ns):
        fam = LinearFamily.normalize(w, r)
        for n in ns:
            rep = transport_presentation(fam, n)
            bij = betti_bijection(fam, n)
            assert rep == transport_presentation(LinearFamily.normalize(w, r), n), n
            assert bij == betti_bijection(LinearFamily.normalize(w, r), n), n


class TestPolynomialFamily:
    EX71 = PolynomialFamily(((0, 0, 1), (1, 1, 1), (1, 2, 1), (3, 2, 1)))

    def test_example_values(self):
        assert self.EX71.instantiate(52).generators == (2704, 2757, 2809, 2811)

    def test_thresholds(self):
        assert self.EX71.n_min <= 1
        f = PolynomialFamily(((-10, 1),))  # n - 10
        assert f.n_min == 11
        assert f.instantiate(11).generators == (1,)
        with pytest.raises(ValueError):
            f.instantiate(10)

    def test_validation(self):
        with pytest.raises(ValueError):
            PolynomialFamily(((1, -1),))  # negative leading coefficient
        with pytest.raises(ValueError):
            PolynomialFamily(((0,),))  # constant zero

    def test_trailing_zeros_stripped(self):
        assert PolynomialFamily(((2, 1, 0, 0),)).polys == ((2, 1),)


class TestFamilyFromSpec:
    def test_linear(self):
        fam = family_from_spec({"w": [1, 1], "r": [5, 7]})
        assert isinstance(fam, LinearFamily) and fam.r == (0, 2)

    def test_polys(self):
        fam = family_from_spec({"polys": [[0, 0, 1], [1, 1, 1]]})
        assert isinstance(fam, PolynomialFamily)

    def test_rejects(self):
        with pytest.raises(ValueError):
            family_from_spec({"w": [1, 2]})


class TestFamilyDelta:
    def test_examples(self):
        assert family_delta(LinearFamily.normalize((5, 7, 2, 3), (0, 0, 2, 3))) == 1
        assert family_delta(EX53) == 1
        assert family_delta(LinearFamily.normalize((2, 3), (2, 3))) == 0

    def test_structured_form_agrees(self):
        # gcd(w-prefix over zero offsets, min weighted delta of the positive
        # block) times gcd of the positive offsets
        rng = random.Random(61)
        for _ in range(40):
            k = rng.randint(2, 4)
            w = tuple(rng.randint(1, 6) for _ in range(k))
            r = tuple(rng.choice([0, 0, rng.randint(1, 9)]) for _ in range(k))
            if all(x == 0 for x in r):
                continue
            fam = LinearFamily.normalize(w, r)
            j = next(i for i, x in enumerate(fam.r) if x > 0)
            block_r, block_w = fam.r[j:], fam.w[j:]
            g = 0
            for x in block_r:
                g = gcd(g, x)
            # evaluate the inner minimum on the block with weights aligned
            from numsgps.weighted import rational_gcd

            red = tuple(x // g for x in block_r)
            pair_terms = [
                block_w[a] * red[b] - block_w[b] * red[a]
                for a in range(len(red))
                for b in range(a + 1, len(red))
            ]
            inner = rational_gcd(pair_terms)
            structured = int(rational_gcd(list(fam.w[:j]) + [inner]) * g)
            assert family_delta(fam) == structured, (fam.w, fam.r)

    def test_matches_instantiated_pairwise_formula(self):
        # the pairwise gcd computed on the member's generators cancels n
        for n in (20, 21, 35):
            P = EX53.instantiate(n)
            assert min_delta_w(P, EX53.w) == family_delta(EX53)

    def test_constant_brute_forced_delta_in_regime(self):
        fam = SMALL  # transport bound 4
        d = family_delta(fam)
        for n in (5, 8, 11):
            P = fam.instantiate(n)
            if gcd(*P.generators) != 1:
                continue
            deltas = weighted_delta_union_up_to(P, fam.w, 6 * P.frobenius() + 6 * n)
            assert set(deltas) == {d}, n


class TestPhi:
    def test_known_transport_rows(self):
        rel = Relation((506, 1, 0, 0), (0, 0, 0, 169), 770640)
        out = phi(EX53, 506, rel)
        assert (out.left, out.right) == ((515, 1, 0, 0), (0, 0, 0, 172))
        rel2 = Relation((0, 0, 3, 0), (0, 0, 0, 2), 9120)
        out2 = phi(EX53, 506, rel2)
        assert (out2.left, out2.right) == ((0, 0, 3, 0), (0, 0, 0, 2))
        assert out2.degree == 9282  # same vectors, next member's element
        rel3 = Relation((508, 0, 0, 0), (0, 2, 2, 167), 771652)
        out3 = phi(EX53, 506, rel3)
        assert (out3.left, out3.right) == ((517, 0, 0, 0), (0, 2, 2, 170))

    def test_swapping_sides_swaps_the_image(self):
        # covers both strict orders of the weighted lengths and the equal case
        seen = set()
        for n in (3, 4, 9):
            P = SMALL.instantiate(n)
            for t in P.elements_up_to(40):
                zs = factorizations(P, t)
                for a in zs:
                    for b in zs:
                        if a == b:
                            continue
                        out = phi(SMALL, n, Relation(a, b, t))
                        swapped = phi(SMALL, n, Relation(b, a, t))
                        assert (swapped.left, swapped.right) == (out.right, out.left)
                        order = (sum(a) > sum(b)) - (sum(a) < sum(b))  # SMALL has w = (1, 1, 1)
                        seen.add(order)
                        if order == 0:  # the image shares its vectors with the source
                            assert out.left is a and out.right is b
        assert seen == {-1, 0, 1}

    def test_rejects_unbalanced_pairs(self):
        with pytest.raises(ValueError):
            phi(EX53, 506, Relation((1, 0, 0, 0), (0, 1, 0, 0), 0))

    def test_injective_and_difference_preserving(self):
        rng = random.Random(67)
        fam = SMALL
        n = 9
        P = fam.instantiate(n)
        rels = []
        for t in P.elements_up_to(60):
            zs = factorizations(P, t)
            for a in zs:
                for b in zs:
                    if a < b:
                        rels.append(Relation(a, b, t))
        images = [phi(fam, n, rel) for rel in rels]
        assert len({(im.left, im.right) for im in images}) == len(rels)
        for rel, im in zip(rels, images):
            dw = sum(x * w for x, w in zip(rel.left, fam.w)) - sum(
                x * w for x, w in zip(rel.right, fam.w)
            )
            dw2 = sum(x * w for x, w in zip(im.left, fam.w)) - sum(
                x * w for x, w in zip(im.right, fam.w)
            )
            assert dw == dw2


class TestTransport:
    def test_small_family_range(self):
        for n in range(5, 15):
            rep = transport_presentation(SMALL, n)
            assert rep.ok, (n, rep.problems)

    def test_example_family_below_bound(self):
        rep = transport_presentation(EX53, 20)
        assert not rep.in_guaranteed_regime
        assert rep.ok

    def test_failure_below_the_bound_names_each_problem_once(self):
        # transport bound 108; the degree multiset is checked once, by the verifier
        rep = transport_presentation(LinearFamily.normalize((2, 3, 2, 1), (0, 1, 3, 3)), 5)
        assert not rep.in_guaranteed_regime and not rep.ok
        assert rep.problems == (
            "degree multiset [50, 56, 154] != Betti elements with multiplicity [50, 56, 102, 110]",
            "relation Relation(left=(7, 0, 0, 0), right=(0, 0, 0, 11), degree=154) is redundant"
            " (same component of degree 154)",
        )

    def test_kept_reports_share_the_targets_betti_ints(self):
        # image degrees and Betti-map images are the target's own ints, not
        # equal copies, so a kept report holds each Betti element once
        f2 = LinearFamily.normalize((1, 2, 3, 3), (0, 1, 4, 6))
        rep, bij = transport_presentation(f2, 200), betti_bijection(f2, 200)
        own = {b: b for b in betti_elements(f2.instantiate(200 + f2.period))}
        assert rep.ok and bij.is_bijection and rep.independent is rep.image
        assert all(own[rel.degree] is rel.degree for rel in rep.image)
        assert all(own[image] is image for _, image in bij.mapping)


class TestBettiBijection:
    def test_small_family(self):
        rep = betti_bijection(SMALL, 5)
        assert rep.delta == 1
        assert rep.is_bijection
        assert dict(rep.source) == {12: 1, 20: 1, 21: 1}
        assert dict(rep.target) == {16: 1, 35: 1, 36: 1}
        assert dict(rep.mapping) == {12: 16, 20: 35, 21: 36}

    def test_anomaly_below_the_bound(self):
        # transport bound 108; Betti element 21 has weighted lengths {3, 5}, a gap of 2
        rep = betti_bijection(LinearFamily.normalize((2, 3, 2, 1), (0, 1, 3, 3)), 4)
        assert rep.delta == 1 and not rep.in_guaranteed_regime
        assert rep.anomalies[0] == (21, (Fraction(3), Fraction(5)))
        assert all(type(x) is Fraction for x in rep.anomalies[0][1])
        assert not rep.is_bijection

    @pytest.mark.parametrize("family, n", [
        (EX53, 506),
        (LinearFamily.normalize((1, 2, 3, 3), (0, 1, 4, 6)), 200),
    ])
    def test_enumerates_no_factorization_set(self, family, n, monkeypatch):
        # passing members read their extremes off the branch and bound
        want = betti_bijection(family, n)
        assert want.is_bijection

        def refuse(S, t):
            raise AssertionError(f"enumerated Z({t})")

        for module in (weighted, importlib.import_module("numsgps.factorizations")):
            monkeypatch.setattr(module, "factorizations", refuse)
        assert betti_bijection(family, n) == want

    def test_singleton_branch_moves_linearly(self):
        rep = betti_bijection(SMALL, 6)
        lengths = {
            b: factorizations(SMALL.instantiate(6), b) for b, _ in rep.source
        }
        for beta, image in rep.mapping:
            ls = {sum(z) for z in lengths[beta]}
            if len(ls) == 1:
                assert image == beta + min(ls) * rep.period

    def test_betti_count_periodicity(self):
        counts = {}
        for n in range(5, 21):
            counts[n] = sum(betti_elements(SMALL.instantiate(n)).values())
        for n in range(5, 19):
            assert counts[n] == counts[n + 2], counts


class TestResultRecords:
    """Relation and the transport reports are frozen records with slots."""

    @pytest.fixture(scope="class")
    def records(self):
        rep = transport_presentation(SMALL, 5)
        return rep.source[0], rep, betti_bijection(SMALL, 5)

    def test_no_instance_dict(self, records):
        for rec in records:
            assert not hasattr(rec, "__dict__"), type(rec)

    def test_frozen(self, records):
        for rec in records:
            for field in dataclasses.fields(rec):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(rec, field.name, None)

    def test_field_names_and_order(self):
        def names(cls):
            return [f.name for f in dataclasses.fields(cls)]

        assert names(Relation) == ["left", "right", "degree"]
        assert names(TransportReport) == [
            "n", "period", "transport_bound", "source", "image", "independent", "problems"
        ]
        assert names(BettiBijectionReport) == [
            "n", "period", "delta", "transport_bound", "mapping", "source", "target", "anomalies"
        ]

    def test_replace_eq_hash(self, records):
        for rec in records:
            copy = dataclasses.replace(rec)
            assert copy == rec and hash(copy) == hash(rec) and copy is not rec
        rel = records[0]
        assert rel.as_pair() == frozenset((rel.left, rel.right))
        assert dataclasses.replace(rel, degree=rel.degree + 1) != rel

    def test_properties(self, records):
        _, rep, bij = records
        assert rep.in_guaranteed_regime and rep.ok
        assert bij.in_guaranteed_regime and bij.is_bijection
        late = dataclasses.replace(rep, problems=("x",))
        assert not late.ok
        early = dataclasses.replace(bij, n=bij.transport_bound)
        assert not early.in_guaranteed_regime


class TestAperyAtMultiple:
    def test_examples(self):
        S = Semigroup([4, 6])
        ap = apery_at_multiple(S, 37)
        assert ap.base == 74
        assert ap.elements[0] == 0 and ap.elements[1] == 76
        assert all(ap.elements[i] == 2 * i for i in range(2, 37))
        assert ap.elements == S.apery_set(74).elements
        T = Semigroup([2, 3])
        assert apery_at_multiple(T, 10).elements == (0, 11, 2, 3, 4, 5, 6, 7, 8, 9)
        with pytest.raises(ValueError):
            apery_at_multiple(T, 1)

    def test_agrees_with_direct(self):
        rng = random.Random(73)
        for _ in range(8):
            gens = sorted(rng.sample(range(3, 15), rng.randint(2, 3)))
            S = Semigroup(gens)
            n = rng.randint(S.frobenius() // S.d + 1, S.frobenius() // S.d + 15)
            if n < 1:
                n = 1
            ap = apery_at_multiple(S, n)
            assert ap.elements == S.apery_set(S.d * n).elements, (gens, n)


class TestFastApery:
    def test_two_generator_example(self):
        fam = LinearFamily.normalize((1, 2), (0, 3))
        ap = fast_apery(fam, 19)
        assert set(ap.elements) == {41 * i for i in range(19)}
        assert ap.elements[0] == 0
        assert ap.elements == fam.instantiate(19).apery_set(19).elements

    def test_three_generator_example(self):
        fam = LinearFamily.normalize((1, 1, 1), (0, 4, 6))
        chk = verify_fast_apery(fam, 37)
        assert chk.in_guaranteed_regime and chk.ok

    def test_singleton_failure_below_the_bound(self):
        fam = LinearFamily.normalize((1, 1, 1), (0, 1, 6))  # apery bound 36
        chk = verify_fast_apery(fam, 7)
        assert not chk.in_guaranteed_regime and not chk.matches
        assert chk.singleton_failures == ((40, (Fraction(4), Fraction(5))),)
        assert all(type(x) is Fraction for x in chk.singleton_failures[0][1])

    @pytest.mark.parametrize("family, ns, enumerated", [
        # apery9.json's window above its bound (108): every member passes
        (LinearFamily.normalize((1, 2, 3, 3), (0, 1, 4, 6)), range(109, 121), {}),
        # 40 is the one mapped element outside the direct Apery set
        (LinearFamily.normalize((1, 1, 1), (0, 1, 6)), [7], {7: [40]}),
        # every element is in it, but 30, 40 and 50 have two lengths
        (LinearFamily.normalize((1, 1, 1), (0, 1, 6)), [9], {9: [30, 40, 50]}),
    ])
    def test_enumerates_only_failing_elements(self, family, ns, enumerated, monkeypatch):
        # passing elements read their extremes off one pass over Ap(P_n; n)
        calls = []
        lengths = parametric._lengths

        def counted(S, t, iw):
            calls.append(t)
            return lengths(S, t, iw)

        monkeypatch.setattr(parametric, "_lengths", counted)
        for n in ns:
            calls.clear()
            chk = verify_fast_apery(family, n)
            failing = [e for e, _ in chk.singleton_failures]
            assert calls == failing == enumerated.get(n, []), n

    def test_extreme_table_budget(self, monkeypatch):
        # the check is on d (n - 1), a bound on the entries of each pass;
        # pf_transport also builds the coordinates at n + r_k
        fam = LinearFamily.normalize((1, 1, 1), (0, 4, 6))
        for check, top in ((verify_fast_apery, 37), (pf_transport, 37 + 6)):
            limit = 2 * (top - 1)
            monkeypatch.setattr(weighted, "EXTREME_TABLE_BUDGET", limit + 1)
            check(fam, 37)
            monkeypatch.setattr(weighted, "EXTREME_TABLE_BUDGET", limit)
            with pytest.raises(ValueError, match=f"up to {limit} are over the budget of {limit} entries"):
                check(fam, 37)

    @pytest.mark.parametrize("check", [fast_apery, pf_transport], ids=lambda f: f.__name__)
    def test_extreme_table_budget_fails_before_the_apery_set(self, check):
        # Ap(<1, 6>; n) = {0, ..., n - 1}: its largest element, the tables'
        # limit, is n - 1, and the check on that bound allocates nothing
        fam = LinearFamily.normalize((1, 1, 1), (0, 1, 6))
        n = weighted.EXTREME_TABLE_BUDGET + 1
        Semigroup([2, 3]).frobenius()  # numpy is imported outside the trace
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"up to {n - 1} are over the budget"):
                check(fam, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("check", [fast_apery, pf_transport], ids=lambda f: f.__name__)
    def test_rejects_non_unit_first_weight(self, check):
        with pytest.raises(ValueError, match="requires w_1 = 1"):
            check(EX53, 3000)

    @pytest.mark.parametrize("check", [fast_apery, pf_transport], ids=lambda f: f.__name__)
    def test_rejects_non_coprime_parameter(self, check):
        fam = LinearFamily.normalize((1, 1), (0, 2))
        # member <6, 8> has gcd 2
        with pytest.raises(ValueError, match=r"gcd\(n, 2\) must be 1: the member at n=6 has gcd 2"):
            check(fam, 6)


class TestPFTransport:
    def test_example(self):
        fam = LinearFamily.normalize((1, 1, 1), (0, 4, 6))
        rep = pf_transport(fam, 37)
        assert rep.in_guaranteed_regime
        assert rep.is_bijection and rep.types_equal
        assert rep.mapping and all(b == a + 2 * 6 for a, b in rep.mapping)

    def test_small_shift_family(self):
        fam = LinearFamily.normalize((1, 1, 1), (0, 2, 3))
        rep = pf_transport(fam, 10)
        assert rep.is_bijection and rep.types_equal

    F2 = LinearFamily.normalize((1, 2, 3, 3), (0, 1, 4, 6))

    def test_known_failure_members(self):
        # the pseudo-Frobenius numbers and types the transport is judged on
        P109, P115 = self.F2.instantiate(109), self.F2.instantiate(115)
        assert P109.pseudo_frobenius() == (548, 5885, 6100, 6102)
        assert P115.pseudo_frobenius() == (578, 6554, 6781, 6783)
        rep = pf_transport(self.F2, 109)
        assert rep.in_guaranteed_regime and rep.types_equal
        assert rep.f_n == (3, 105, 107, 108)

    @pytest.mark.xfail(
        strict=True,
        reason="the map i -> i + d*r_k also moves Apery coordinates a bounded "
        "distance from 0, which stay put: 548 = 3 + 5*109 and 578 = 3 + 5*115",
    )
    def test_known_failure_is_bijection(self):
        assert pf_transport(self.F2, 109).is_bijection

    def test_type_periodicity_window(self):
        fam = LinearFamily.normalize((1, 1, 1), (0, 2, 3))
        rk = fam.r[-1]
        lo = fam.apery_bound + 1
        types = {n: fam.instantiate(n).type() for n in range(lo, lo + 2 * rk + 1)}
        for n in range(lo, lo + rk + 1):
            assert types[n] == types[n + rk], types


class TestScan:
    def test_frobenius_scan_matches_closed_form(self):
        fam = LinearFamily.normalize((1, 1), (0, 2))
        rows = scan(fam, range(5, 30, 2), "frobenius")
        for n, v in rows:
            assert v == n * (n + 2) - n - (n + 2)

    def test_genus_scan_matches_gap_count(self):
        fam = LinearFamily.normalize((1, 1), (0, 2))
        rows = scan(fam, range(5, 30, 2), "genus")
        for n, v in rows:
            assert v == (n * n - 1) // 2  # (a-1)(b-1)/2 for <a, b> = <n, n+2>

    def test_multiset_invariants(self):
        rows = scan(SMALL, [5, 7], "betti_multiset")
        assert rows == [(5, (1, 1, 1)), (7, (1, 1, 1))]
        rows = scan(SMALL, [5], "minpres_degrees")
        assert rows == [(5, (12, 20, 21))]

    def test_rejects_unknown_invariant(self):
        with pytest.raises(ValueError):
            scan(SMALL, [5], "elasticity")


class TestTieBlockFamily:
    def test_betti_element_of_tie_family(self):
        # member at n=44 of w=(5,7,2,3), r=(0,0,2,3): 1980 has a disconnected
        # factorization graph and both printed vectors factor it
        fam = LinearFamily.normalize((5, 7, 2, 3), (0, 0, 2, 3))
        P = fam.instantiate(44)
        assert P.generators == (220, 308, 90, 135)
        zs = factorizations(P, 1980)
        assert (0, 0, 22, 0) in zs and (0, 0, 19, 2) in zs
        assert 1980 in betti_elements(P)
