"""Derandomized property tests (hypothesis) against the conftest oracles."""

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_components, brute_factorization_table
from numsgps import Semigroup, factorization_graph, minimal_presentation, verify_minimal_presentation

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
