"""Derandomized property tests (hypothesis) against the conftest oracles."""

from itertools import count, islice
from math import gcd

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    brute_betti_elements,
    brute_components,
    brute_factorization_table,
    brute_members,
    brute_pseudo_frobenius,
)
from numsgps import (
    LinearFamily,
    Semigroup,
    betti_elements,
    factorization_graph,
    minimal_presentation,
    verify_fast_apery,
    verify_minimal_presentation,
)

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
