"""Derandomized property tests (hypothesis) against the oracles in oracles.py."""

import importlib
from fractions import Fraction
from itertools import count, islice
from math import gcd
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    brute_betti_elements,
    brute_component_labels,
    brute_components,
    brute_factorization_table,
    brute_member,
    brute_members,
    brute_pseudo_frobenius,
    brute_weighted_length_sets,
    loop_apery_table,
    loop_round_robin,
)
from numsgps import (
    LinearFamily,
    Relation,
    Semigroup,
    apery_at_multiple,
    betti_bijection,
    betti_elements,
    connects_under_relations,
    delta_set_up_to,
    factorization_graph,
    factorizations,
    family_delta,
    fit,
    min_delta_w,
    minimal_presentation,
    pf_transport,
    transport_presentation,
    verify_fast_apery,
    verify_minimal_presentation,
    verify_weighted_recurrences,
    weighted_delta_profile,
)
from numsgps.factorizations import BETTI_CHUNK, _betti_search, _components, _extreme_lengths
from numsgps.weighted import _extremes, _lengths

# up to four distinct generators in 2..15, in any order (kept as supplied)
small_generators = st.lists(st.integers(2, 15), min_size=1, max_size=4, unique=True)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(small_generators)
def test_minimal_presentation_verifies_and_graphs_match_oracle(gens):
    S = Semigroup(gens, keep_order=True)
    assert verify_minimal_presentation(S, minimal_presentation(S)) == []
    for t, zs in enumerate(brute_factorization_table(S.generators, 60)):
        if zs:
            assert factorization_graph(S, t).components == brute_components(zs), t


def chained_by(relations, zs):
    """Whether the relations, applied in both directions under translation,
    link every factorization in the set zs: grow the set reached from its
    least member by whole rounds of moves until a round adds nothing."""
    moves = [(r.left, r.right) for r in relations] + [(r.right, r.left) for r in relations]
    reached = set(sorted(zs)[:1])
    while True:
        step = {
            tuple(y - a + b for y, a, b in zip(z, left, right))
            for z in reached
            for left, right in moves
            if all(y >= a for y, a in zip(z, left))
        }
        if step & zs <= reached:
            return reached == zs
        reached |= step & zs


@settings(derandomize=True, max_examples=60, deadline=None)
@given(small_generators)
def test_minimal_presentation_chains_and_each_relation_is_needed(gens):
    S = Semigroup(gens, keep_order=True)
    rels = minimal_presentation(S)
    table = brute_factorization_table(S.generators, max([60] + [r.degree for r in rels]))
    for t in range(61):
        assert chained_by(rels, table[t]), t
        assert connects_under_relations(S, rels, t), t
    for i, rel in enumerate(rels):
        # at a Betti element the components are the classes under the
        # relations of lower degree, so every relation of that degree counts
        rest = rels[:i] + rels[i + 1:]
        assert not chained_by(rest, table[rel.degree]), rel
        assert not connects_under_relations(S, rest, rel.degree), rel
        for t in range(61):
            assert connects_under_relations(S, rest, t) == chained_by(rest, table[t]), (rel, t)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(small_generators, st.sampled_from([1, 2, 3]))
@example([4, 7], 2)  # gcd 2
@example([9, 6, 10], 3)  # gcd 3, unsorted
@example([5, 1, 3], 1)  # the generator 1
@example([7], 3)  # k = 1
def test_betti_elements_match_oracle_under_scaling(gens, scale):
    # the Betti search reads membership in reduced units (t/d) off the residue
    # table; scaling every generator by s must scale every Betti element by s
    S = Semigroup([scale * g for g in gens], keep_order=True)
    got = betti_elements(S)
    assert got == brute_betti_elements(S.generators)
    unscaled = betti_elements(Semigroup(gens, keep_order=True))
    assert got == {scale * b: m for b, m in unscaled.items()}


@settings(derandomize=True, max_examples=100, deadline=None)
@given(small_generators, st.sampled_from([1, 2, 3]))
@example([9, 6, 10], 3)  # gcd 3, unsorted
@example([10, 15, 6], 1)  # three components at 30
def test_cached_component_labels_match_oracle_and_a_fresh_kernel_call(gens, scale):
    # the Betti search caches the labels of each Betti element, and the
    # factorization graph reads them: they must give the oracle's components
    # and equal the labels of the kernel run on that element alone
    S = Semigroup([scale * g for g in gens], keep_order=True)
    betti = S._betti
    table = brute_factorization_table(S.generators, max(betti, default=0))
    for beta, labels in betti.items():
        assert factorization_graph(S, beta).components == brute_components(table[beta]), beta
        fresh = _components(S._residue_table, np.array([beta // S.d]), S._reduced)
        assert list(labels) == fresh[:, 0].tolist(), beta


def unscreened_betti_search(S):
    """The Betti search with no screen: the kernel on all (k - 1) m candidates
    w + g at once.  Returns (Betti elements mapped to their labels, as
    _betti_search gives them; the candidates; which are disconnected)."""
    tab, gens = S._residue_table, S._reduced
    others = np.array([g for g in gens if g != len(tab)], dtype=tab.dtype)
    ts = (tab + others[:, None]).ravel()
    labels = _components(tab, ts, gens)
    apart = (labels == np.arange(S.k)[:, None]).sum(axis=0) > 1
    hits = dict(zip(ts[apart].tolist(), map(tuple, labels[:, apart].T.tolist())))
    return {S.d * t: hits[t] for t in sorted(hits)}, ts, apart


def screened_batches(S):
    """(_betti_search(S), the batches it hands the component kernel)."""
    module = importlib.import_module("numsgps.factorizations")
    with mock.patch.object(module, "_components", wraps=_components) as kernel:
        found = _betti_search(S)
    return found, [call.args[1] for call in kernel.call_args_list]


def assert_screen_is_exact(S):
    want, ts, apart = unscreened_betti_search(S)
    found, batches = screened_batches(S)
    assert all(len(batch) <= BETTI_CHUNK for batch in batches)
    seen = set(np.concatenate([ts[:0], *batches]).tolist())
    assert set(ts[apart].tolist()) <= seen  # no disconnected candidate is screened out
    assert found == want


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.integers(2, 3000),
    st.lists(st.integers(1, 3000), min_size=1, max_size=5, unique=True),
    st.sampled_from([1, 2, 3]),
    st.booleans(),
    st.randoms(use_true_random=False),
)
@example(1519, [507, 1521, 3041], 1, False, None)  # EX53 at n = 506
@example(6, [3, 14], 3, True, None)  # <6, 9, 20> scaled by 3, supplied order
def test_screened_betti_search_equals_the_unscreened_kernel(m, offsets, scale, keep, rng):
    # past the brute oracle's reach (smallest reduced generator up to 3,000):
    # the screen drops no disconnected candidate, and the search gives the
    # kernel's own labels on all (k - 1) m candidates
    gens = [scale * g for g in [m] + [m + o for o in offsets]]
    if rng is not None:
        rng.shuffle(gens)
    assert_screen_is_exact(Semigroup(gens, keep_order=keep))


def test_screened_betti_search_equals_the_unscreened_kernel_past_2_64():
    # generators past 2**64 over a small multiplicity, times 3: the residue
    # table and every candidate hold Python ints (the object width)
    S = Semigroup([3 * g for g in (7, 2**64 + 3, 2**64 + 10, 2**64 + 26)], keep_order=True)
    assert S._residue_table.dtype == object and S.d == 3
    assert_screen_is_exact(S)
    assert len(S._betti) > 1


def test_screen_keeps_under_a_quarter_of_the_ex53_candidates_at_506():
    # EX53 at n = 506 has 3 * 1519 = 4,557 candidates; the kernel sees 528
    S = Semigroup([1519, 2026, 3040, 4560])
    want, ts, _ = unscreened_betti_search(S)
    found, batches = screened_batches(S)
    assert len(ts) == 4557
    assert sum(map(len, batches)) <= len(ts) // 4
    assert found == want


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    st.lists(st.integers(2, 15), min_size=1, max_size=6, unique=True),
    st.sampled_from([1, 2, 3]),
    st.lists(st.integers(0, 2**16), max_size=20),
)
@example([5, 6, 7, 8, 9], 1, [18])  # a component of four generators
@example([10, 15, 6], 1, [30])  # three components
def test_component_kernel_matches_oracle_on_any_batch(gens, scale, draws):
    # the kernel on a batch of elements, gaps, 0 and values past the residue
    # table (so t - g_i - g_j is often negative), at both widths, against the
    # available-generator graph read off brute-force membership in S itself
    S = Semigroup([scale * g for g in gens], keep_order=True)
    tab, red = S._residue_table, S._reduced
    top = int(tab.max()) + 2 * max(red)
    # 0, the Frobenius number, past the table, and draws up to there
    ts = [0, int(tab.max()) - len(tab), top] + [x % (top + 1) for x in draws]
    members = brute_members(S.generators, S.d * top)
    want = [brute_component_labels(S.generators, S.d * t, members.__contains__) for t in ts]
    for dtype in (np.int64, object):
        got = _components(tab.astype(dtype), np.array(ts, dtype=dtype), red)
        assert got.T.tolist() == want, dtype


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(2, 7), st.lists(st.integers(1, 40), min_size=1, max_size=3, unique=True), st.data())
def test_component_kernel_matches_oracle_past_2_64(m, offsets, data):
    # generators past 2**64 over a small multiplicity: the residue table and
    # the batch hold Python ints (the object width); brute_member needs only a
    # few counts of each large generator
    S = Semigroup([m] + [2**64 + h for h in offsets])
    assume(S.d == 1)
    tab, red = S._residue_table, S._reduced
    assert tab.dtype == object
    top = max(tab) + 2 * max(red)
    near = st.builds(lambda c, u: c * max(red) + u, st.integers(0, 3), st.integers(0, 3 * m))
    ts = [0, max(tab) - len(tab), top] + data.draw(st.lists(near | st.integers(0, top), max_size=12))
    want = [brute_component_labels(S.generators, S.d * t, lambda x: brute_member(S.generators, x)) for t in ts]
    assert _components(tab, np.array(ts, dtype=object), red).T.tolist() == want


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(st.integers(2, 15), min_size=1, max_size=6, unique=True), st.sampled_from([1, 2, 3]))
@example([5, 6, 7, 8, 9], 1)  # 18 = 6+6+6 = 5+6+7 = 5+5+8 = 9+9: a component of four generators
@example([9, 6, 10], 3)  # gcd 3, unsorted
def test_minimal_presentation_pairs_each_components_least_member_with_the_base(gens, scale):
    # the canonical choice, from the oracles alone: at each Betti element the
    # least member of every other component is paired with the least member
    # of the component holding the overall least factorization
    S = Semigroup([scale * g for g in gens], keep_order=True)
    betti = brute_betti_elements(S.generators)
    table = brute_factorization_table(S.generators, max(betti, default=0))
    want = []
    for beta in betti:
        base, *others = (comp[0] for comp in brute_components(table[beta]))
        want += [Relation(z, base, beta) for z in others]
    assert minimal_presentation(S) == tuple(want)
    if gens == [5, 6, 7, 8, 9]:
        assert Relation((0, 3, 0, 0, 0), (0, 0, 0, 0, 2), 18) in want


@settings(derandomize=True, max_examples=150, deadline=None)
@given(small_generators, st.sampled_from([1, 2, 3]))
@example([4, 7], 2)  # gcd 2
@example([9, 6, 10], 3)  # gcd 3, unsorted
@example([9, 4, 6], 1)  # the prefix <4, 6> has gcd 2
@example([7], 3)  # k = 1
def test_frobenius_and_pseudo_frobenius_under_permutation_and_scaling(gens, scale):
    # sS in the drawn order against S sorted: F and the degrees of a minimal
    # presentation scale by s, PF (gcd 1 only) is the same, Z(s t) is Z(t)
    # with its coordinates permuted, and the deltas of sS up to s bound are
    # those of S up to bound
    S = Semigroup([scale * g for g in gens], keep_order=True)
    T = Semigroup(sorted(gens))
    assert S.frobenius() == scale * T.frobenius()
    if S.d == 1:
        assert S.pseudo_frobenius() == T.pseudo_frobenius()
    assert sorted(r.degree for r in minimal_presentation(S)) == sorted(
        scale * r.degree for r in minimal_presentation(T)
    )
    where = [T.generators.index(g) for g in gens]
    for t in range(61):
        permuted = sorted(tuple(z[i] for i in where) for z in factorizations(T, t))
        assert factorizations(S, scale * t) == tuple(permuted), (S, t)
    assert delta_set_up_to(S, scale * 100) == delta_set_up_to(T, 100)


@st.composite
def scaled_generators(draw):
    """1-4 distinct generators in 1..60 (in drawn order), scaled so that gcd 2
    and 3 come up."""
    scale = draw(st.sampled_from([1, 1, 2, 3]))
    drawn = draw(st.lists(st.integers(1, 60 // scale), min_size=1, max_size=4, unique=True))
    return [scale * g for g in drawn]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(scaled_generators())
def test_genus_counts_missing_multiples(gens):
    S = Semigroup(gens, keep_order=True)
    d = S.d
    reduced = [g // d for g in gens]
    # the reduced semigroup has gcd 1 and Frobenius number below min * max,
    # so every missing multiple of d lies below top
    top = d * min(reduced) * max(reduced)
    members = brute_members(gens, top)
    assert S.genus() == sum(1 for t in range(0, top, d) if t not in members)


@st.composite
def semigroup_and_element(draw):
    """Generators as in scaled_generators, and a positive element
    m <= 3*max of their semigroup."""
    gens = draw(scaled_generators())
    elements = sorted(brute_members(gens, 3 * max(gens)) - {0})
    return gens, draw(st.sampled_from(elements))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(semigroup_and_element())
@example(([4, 6], 10))  # gcd 2
@example(([9, 6, 15], 12))  # gcd 3, unsorted
@example(([1, 7], 5))  # the generator 1
@example(([5, 7, 9], 5))  # the base itself a generator
@example(([5, 7, 30], 10))  # 30 a multiple of m
@example(([6, 9, 20, 11], 24))  # 6, 9 and 20 share factors with m: multi-cycle walks
@example(([21, 13], 42))  # a cycle of length 2 in gcd(21, 42) = 21 cycles
@example(([90, 151, 60], 120))  # 60 and 90 split 120 into 60 and 30 cycles
def test_apery_set_and_pseudo_frobenius_match_oracle(case):
    gens, m = case
    S = Semigroup(gens, keep_order=True)
    d, m_red = S.d, m // S.d
    members = brute_members(gens, m_red * max(gens))
    least = [min(x for x in members if (x // d) % m_red == rho) for rho in range(m_red)]
    assert list(S.apery_set(m).elements) == least
    if d == 1:
        assert list(S.pseudo_frobenius()) == brute_pseudo_frobenius(gens, S.frobenius())


@st.composite
def wide_generators(draw):
    """A modulus m in 1..40 and 1-3 more generators, each small or of 55-64
    bits, so that 2 * m * max falls on both sides of 2**63, the int64 limit
    of the Apery table; gcd 1, in drawn order."""
    m = draw(st.integers(1, 40))
    sizes = st.one_of(st.integers(1, 300), st.integers(2**55, 2**64))
    rest = draw(st.lists(sizes, min_size=1, max_size=3, unique=True))
    assume(m not in rest and gcd(m, *rest) == 1)
    return draw(st.permutations([m, *rest])), m


@settings(derandomize=True, max_examples=200, deadline=None)
@given(wide_generators())
def test_apery_table_matches_the_plain_loop_at_any_width(case):
    gens, m = case
    S = Semigroup(gens, keep_order=True)
    assert list(S.apery_set(m).elements) == loop_apery_table(gens, m)
    # so is every table the round robin yields on the way, one per generator
    assert [tab.tolist() for tab in S._round_robin(m, gens)] == loop_round_robin(gens, m)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(wide_generators())
def test_table_invariants_match_python_formulas_at_any_width(case):
    # over the plain loop's Apery table modulo m, in Python ints: F = max - m,
    # the genus is sum_i (tab[i] - i) / m, PF = {w - m : w maximal, w >= m}
    gens, m = case
    S = Semigroup(gens, keep_order=True)
    tab = loop_apery_table(gens, m)
    maximal = [w for w in tab if all(tab[(w + g) % m] != w + g for g in gens)]
    invariants = (S.frobenius(), S.genus(), S.pseudo_frobenius())
    assert invariants == (
        max(tab) - m,
        sum(w - i for i, w in enumerate(tab)) // m,
        tuple(sorted(w - m for w in maximal if w >= m)),
    )
    assert all(type(x) is int for x in invariants[:2] + invariants[2])


@settings(derandomize=True, max_examples=100, deadline=None)
@given(small_generators, st.sampled_from([1, 2, 3]), st.integers(1, 15))
@example([2, 3], 1, 1)  # n = F + 1 = 2
@example([4, 6], 1, 3)  # gcd 2
def test_apery_at_multiple_matches_the_closed_form(gens, scale, extra):
    # above the Frobenius number, Ap(S; d n) holds d i if d i is in S and
    # d i + d n otherwise; membership and F from the reachability oracle
    S = Semigroup([scale * g for g in gens], keep_order=True)
    d = S.d
    reduced = [g // d for g in S.generators]
    top = min(reduced) * max(reduced)
    members = brute_members(reduced, top + 15)
    n = max((t for t in range(top) if t not in members), default=0) + extra
    closed = tuple(d * i if i in members else d * (i + n) for i in range(n))
    ap = apery_at_multiple(S, n)
    assert (ap.base, ap.elements) == (d * n, closed), n


@st.composite
def unit_weight_families(draw):
    """Linear families with w_1 = 1 (so r_1 = 0) and 1-3 further generators
    of weight at most 3 and offset at most 6, not every offset 0."""
    pairs = st.tuples(st.integers(1, 3), st.integers(0, 6))
    rest = draw(
        st.lists(pairs, min_size=1, max_size=3, unique=True)
        .filter(lambda ps: (1, 0) not in ps and any(r for _, r in ps))
    )
    w, r = zip((1, 0), *rest)
    return LinearFamily.normalize(w, r)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(unit_weight_families())
def test_closed_form_apery_set_matches_direct(fam):
    # the first three n above apery_bound with gcd(n, d) = 1, d the gcd of the offsets
    d = gcd(*fam.r)
    for n in islice((n for n in count(fam.apery_bound + 1) if gcd(n, d) == 1), 3):
        chk = verify_fast_apery(fam, n)
        assert chk.in_guaranteed_regime and chk.ok, (fam, n)
        least: dict[int, int] = {}
        for x in sorted(brute_members(fam.generators(n), max(chk.theorem.elements))):
            least.setdefault(x % n, x)
        assert list(chk.theorem.elements) == [least[i] for i in range(n)], (fam, n)


@st.composite
def unit_weight_members(draw):
    """A unit_weight_families family with an n in 2..apery_bound + 6."""
    fam = draw(unit_weight_families())
    return fam, draw(st.integers(2, fam.apery_bound + 6))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(unit_weight_members())
@example((LinearFamily.normalize((1, 1, 1), (0, 1, 6)), 7))  # 40 is outside the direct Apery set
@example((LinearFamily.normalize((1, 1, 1), (0, 1, 6)), 9))  # 30, 40 and 50 have two lengths
def test_singleton_failures_match_the_enumerated_oracle(member):
    # n on both sides of apery_bound: the one-pass singleton check neither
    # hides a failure nor invents one.  The oracle rebuilds the mapped
    # elements a + m_w(a) n from Ap(S; dn) by reachability, S the semigroup of
    # the positive offsets, and reads their length sets in P_n bottom up
    fam, n = member
    gens = [r for r in fam.r if r]
    ws = [w for w, r in zip(fam.w, fam.r) if r]
    d = gcd(*gens)
    top = d * (n + max(gens) ** 2)
    members = brute_members(gens, top)
    frobenius = max((x for x in range(0, top, d) if x not in members), default=-d)
    assume(gcd(n, d) == 1 and d * n > frobenius and len(set(fam.generators(n))) == fam.k)
    least: dict[int, int] = {}
    for x in sorted(members):
        least.setdefault(x % (d * n), x)
    apery = [least[d * i] for i in range(n)]
    inner = brute_weighted_length_sets(gens, ws, max(apery))
    mapped = {a + int(min(inner[a])) * n: min(inner[a]) for a in apery}
    outer = brute_weighted_length_sets(fam.generators(n), fam.w, max(mapped))
    want = tuple((e, tuple(sorted(outer[e]))) for e, mw in sorted(mapped.items()) if outer[e] != {mw})
    assert verify_fast_apery(fam, n).singleton_failures == want, (fam, n)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(unit_weight_members())
def test_pf_transport_matches_the_oracle(member):
    # at n and at n + r_k: the coordinates are Ap(S; dn), rebuilt by
    # reachability as above, and the pseudo-Frobenius numbers come from their
    # definition over the member's gaps (Frobenius number < n * max generator)
    fam, n = member
    gens = [r for r in fam.r if r]
    d, rk = gcd(*gens), fam.r[-1]
    top = d * (n + rk + max(gens) ** 2)
    members = brute_members(gens, top)
    frobenius = max((x for x in range(0, top, d) if x not in members), default=-d)
    assume(gcd(n, d) == 1 and d * n > frobenius)
    assume(all(len(set(fam.generators(m))) == fam.k for m in (n, n + rk)))
    want = []
    for m in (n, n + rk):
        least: dict[int, int] = {}
        for x in sorted(members):
            least.setdefault(x % (d * m), x)
        P = fam.generators(m)
        in_P = brute_members(P, m * max(P))
        pf = brute_pseudo_frobenius(P, max(x for x in range(m * max(P)) if x not in in_P))
        classes = {x % m for x in pf}
        want += [tuple(sorted(a for a in (least[d * i] for i in range(m)) if a % m in classes)), len(pf)]
    rep = pf_transport(fam, n)
    assert [rep.f_n, rep.type_n, rep.f_next, rep.type_next] == want, (fam, n)


@st.composite
def linear_families(draw):
    """Non-degenerate linear families of 2-4 generators with weights in 1..3
    and offsets in 0..4."""
    k = draw(st.integers(2, 4))
    w = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    r = draw(st.lists(st.integers(0, 4), min_size=k, max_size=k))
    fam = LinearFamily.normalize(w, r)
    assume(not fam.is_degenerate)
    return fam


@settings(derandomize=True, max_examples=200, deadline=None)
@given(linear_families())
@example(LinearFamily.normalize((1, 2, 3, 3), (0, 1, 4, 6)))
@example(LinearFamily.normalize((3, 1), (0, 4)))  # w_1 > 1
@example(LinearFamily.normalize((2, 1), (0, 1)))  # gcd 2 at odd n
def test_transport_and_betti_bijection_hold_above_the_bound(fam):
    # n = bound + 1 .. bound + 3 where P_n and P_{n+p} have distinct
    # generators, of any gcd: P_n = g T, and the Betti gap is delta / g
    for n in range(fam.transport_bound + 1, fam.transport_bound + 4):
        gens, later = fam.generators(n), fam.generators(n + fam.period)
        if len(set(gens)) == len(gens) and len(set(later)) == len(later):
            assert gcd(*later) == gcd(*gens), (fam, n)
            assert transport_presentation(fam, n).ok, (fam, n)
            assert betti_bijection(fam, n).is_bijection, (fam, n)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(linear_families(), st.integers(1, 29))
@example(LinearFamily.normalize((2, 1), (0, 1)), 9)  # P_9 = <18, 10>, gcd 2
@example(LinearFamily.normalize((1, 2, 3, 3), (0, 1, 4, 6)), 20)
def test_betti_weighted_lengths_obey_the_gap_lemma(fam, n):
    # at every Betti element of P_n, below the transport bound too: weighted
    # lengths differ by multiples of delta/g and lie between beta w_k / g_k
    # and beta w_1 / g_1 (the betti_bijection docstring)
    gens = fam.generators(n)
    assume(len(set(gens)) == len(gens))
    S = Semigroup(gens, keep_order=True)
    delta, w, r = family_delta(fam), fam.w, fam.r
    assert delta % S.d == 0, (fam, n)
    for beta in betti_elements(S):
        zs = factorizations(S, beta)
        lengths = {sum(c * x for c, x in zip(z, w)) for z in zs}
        lo, hi = -(-beta * w[-1] // gens[-1]), beta * w[0] // gens[0]
        assert lo <= min(lengths) and max(lengths) <= hi, (fam, n, beta)
        for z in zs:
            v = [a - b for a, b in zip(z, zs[0])]
            for j, g in enumerate(gens):
                rhs = sum(v[i] * (w[i] * r[j] - w[j] * r[i]) for i in range(fam.k))
                assert g * sum(a * b for a, b in zip(v, w)) == rhs, (fam, n, beta, z)
        assert all((x - min(lengths)) % (delta // S.d) == 0 for x in lengths), (fam, n, beta)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    st.lists(st.integers(2, 13), min_size=1, max_size=6, unique=True),
    st.sampled_from([1, 2, 3]),
    st.lists(st.integers(-5, 5), min_size=6, max_size=6),
)
@example([7, 3, 5], 1, [1, 0, -2, 0, 0, 0])
def test_extreme_lengths_match_the_enumerated_oracle(gens, scale, weights):
    # any order, any gcd, zero and negative weights; non-elements raise as _lengths does
    S = Semigroup([scale * g for g in gens], keep_order=True)
    iw = weights[: S.k]
    table = brute_weighted_length_sets(S.generators, iw, 3 * max(S.generators))
    for t, lengths in enumerate(table):
        if lengths:
            assert _extreme_lengths(S, t, iw) == (min(lengths), max(lengths)), t
    # the pass over two order ideals of S: every t up to the table's bound
    # (non-elements get no entry), and an Apery set
    for ideal in (range(len(table)), sorted(S.apery_set(S.generators[-1]))):
        hi, lo = _extremes(S, iw, ideal)
        for t in (t for t in ideal if t < len(table)):
            want = (min(table[t]), max(table[t])) if table[t] else (None, None)
            assert (lo.get(t), hi.get(t)) == want, t
    for t in [-1, *(t for t, lengths in enumerate(table) if not lengths)]:
        with pytest.raises(ValueError) as want:
            _lengths(S, t, iw)
        with pytest.raises(ValueError) as got:
            _extreme_lengths(S, t, iw)
        assert str(got.value) == str(want.value)


def largest_recurrence_failure(table, g, wt, pick):
    """The largest t whose extreme length pick(table[t]) is not that of
    t - g plus wt (t - g not an element, or t < g, counts as a failure);
    None when there is none."""
    extreme = [pick(ls) if ls else None for ls in table]
    failures = [
        t for t, v in enumerate(extreme)
        if v is not None and (t < g or extreme[t - g] is None or v != extreme[t - g] + wt)
    ]
    return max(failures, default=None)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    st.lists(st.integers(2, 9), min_size=1, max_size=4, unique=True),
    st.sampled_from([1, 2, 3]),
    st.lists(st.builds(Fraction, st.integers(-3, 5), st.integers(1, 2)), min_size=4, max_size=4),
    st.integers(1, 30),
)
@example([3, 5], 2, [Fraction(0), Fraction(-1), 0, 0], 7)
def test_recurrence_failures_match_the_enumerated_oracle(gens, scale, weights, extra):
    # any order, any gcd, zero, negative and fractional weights
    S = Semigroup([scale * g for g in gens], keep_order=True)
    w = weights[: S.k]
    threshold = max(S.generators) ** 2
    horizon = threshold + extra
    table = brute_weighted_length_sets(S.generators, w, horizon)
    ratio = lambda i: w[i] / S.generators[i]
    first = min(range(S.k), key=lambda i: (-ratio(i), S.generators[i]))
    last = min(range(S.k), key=lambda i: (ratio(i), S.generators[i]))
    want = [
        (S.generators[i], w[i], largest_recurrence_failure(table, S.generators[i], w[i], pick))
        for i, pick in ((first, max), (last, min))
    ]
    if any(f is not None and f > threshold for _, _, f in want):
        with pytest.raises(RuntimeError, match=f"fails at .* > {threshold}"):
            verify_weighted_recurrences(S, w, horizon)
        return
    report = verify_weighted_recurrences(S, w, horizon)
    got = [
        (side.step, side.weight, side.largest_failure)
        for side in (report.max_side, report.min_side)
    ]
    assert got == want
    for side in (report.max_side, report.min_side):
        f = side.largest_failure
        assert side.holds_from == (0 if f is None else f + 1)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    small_generators.filter(lambda gens: len(gens) >= 2),
    st.lists(st.builds(Fraction, st.integers(-3, 6), st.integers(1, 3)), min_size=4, max_size=4),
)
@example([6, 9, 20], [Fraction(3), Fraction(1), Fraction(4)])
@example([3, 5], [Fraction(3), Fraction(5)])  # w_i = g_i: every weighted length equal
def test_min_delta_w_divides_every_profile_gap(gens, weights):
    S = Semigroup(gens, keep_order=True)
    w = weights[: S.k]
    least = min_delta_w(S, w)
    gaps = [g for deltas in weighted_delta_profile(S, w, 120).values() for g in deltas]
    if least == 0:
        assert gaps == [], (gens, w)
    else:
        assert all((g / least).denominator == 1 for g in gaps), (gens, w)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    small_generators.filter(lambda gens: len(gens) >= 2),
    st.lists(st.builds(Fraction, st.integers(-3, 6), st.integers(1, 3)), min_size=4, max_size=4),
)
@example([6, 9, 20], [Fraction(3), Fraction(1), Fraction(4)])
@example([3, 5], [Fraction(3), Fraction(5)])  # w_i = g_i: every weighted length equal
def test_delta_profile_matches_the_length_set_oracle(gens, weights):
    S = Semigroup(gens, keep_order=True)
    w = weights[: S.k]
    table = brute_weighted_length_sets(S.generators, w, 120)
    want = {}
    for t, lengths in enumerate(table):
        ls = sorted(lengths)
        if len(ls) >= 2:
            want[t] = tuple(sorted({b - a for a, b in zip(ls, ls[1:])}))
    assert weighted_delta_profile(S, w, 120) == want, (gens, w)


@st.composite
def quasipolynomial_samples(draw):
    """A period 1..3, a degree 0..2, coefficients a/b (|a| <= 5, b <= 4) per
    residue class (coeffs[s][j] multiplies n**j on the class s), and the
    values at degree + 2 to degree + 4 consecutive n of every class."""
    period = draw(st.integers(1, 3))
    degree = draw(st.integers(0, 2))
    fractions = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
    coeffs = draw(st.lists(st.lists(fractions, min_size=degree + 1, max_size=degree + 1),
                           min_size=period, max_size=period))
    start = draw(st.integers(0, 20))
    per_class = draw(st.integers(degree + 2, degree + 4))
    samples = {
        n: sum(c * n**j for j, c in enumerate(coeffs[n % period]))
        for n in range(start, start + period * per_class)
    }
    return period, degree, coeffs, samples


@settings(derandomize=True, max_examples=150, deadline=None)
@given(quasipolynomial_samples())
def test_fit_reproduces_its_samples(case):
    period, degree, coeffs, samples = case
    qp = fit(samples, period, degree)
    assert all(qp.evaluate(n) == v for n, v in samples.items())
    rows = [tuple(coeffs[s][j] for s in range(period)) for j in range(degree + 1)]
    while len(rows) > 1 and not any(rows[-1]):
        rows.pop()
    assert (qp.degree, qp.coeffs) == (len(rows) - 1, tuple(rows))
