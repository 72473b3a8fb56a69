"""Additive subsemigroups of the non-negative integers and their classical invariants.

A semigroup here is given by a finite tuple of positive integer generators and
need not have finite complement: the gcd d of the generators may exceed 1, in
which case every element is a multiple of d and the Frobenius number / genus
are taken relative to the multiples of d.  One kernel, the round robin
(``Semigroup._round_robin``), builds every Apery table: membership, Frobenius
number, genus, Apery sets, PF numbers and the enumerator's pruning read them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from math import gcd

# Largest modulus ``Semigroup._apery_table`` accepts, checked before anything is
# allocated.  A table peaks at about 80 bytes per residue class (the numpy
# arrays of one pass plus the returned list of Python ints), so a table at the
# budget peaks near 0.8 GB.
APERY_TABLE_BUDGET = 10**7


class Semigroup:
    """The subsemigroup of Z>=0 generated by a tuple of positive integers.

    By default the generator tuple is deduplicated and sorted ascending.  With
    ``keep_order=True`` the supplied order is preserved (duplicates rejected);
    factorization exponent vectors always follow ``self.generators`` order.

    Instances are immutable after construction; the lazily built membership
    tables and Betti data are idempotent, so concurrent readers are safe.
    """

    def __init__(self, generators, keep_order: bool = False):
        gens = tuple(int(g) for g in generators)
        if not gens:
            raise ValueError("a semigroup needs at least one generator")
        if any(g <= 0 for g in gens):
            raise ValueError(f"generators must be positive, got {gens}")
        if keep_order:
            if len(set(gens)) != len(gens):
                raise ValueError(f"duplicate generators in {gens}")
        else:
            gens = tuple(sorted(set(gens)))
        self.generators: tuple[int, ...] = gens
        self.d: int = gcd(*gens) if len(gens) > 1 else gens[0]

    def __repr__(self):
        return f"Semigroup{self.generators}"

    def __eq__(self, other):
        return isinstance(other, Semigroup) and self.generators == other.generators

    def __hash__(self):
        return hash(self.generators)

    @property
    def k(self) -> int:
        return len(self.generators)

    @property
    def multiplicity(self) -> int:
        """Smallest generator (= smallest positive element)."""
        return min(self.generators)

    @cached_property
    def _reduced(self) -> tuple[int, ...]:
        # generators divided by d; a gcd-1 semigroup with the same factorizations
        return tuple(g // self.d for g in self.generators)

    def _round_robin(self, m: int, gens):
        """Round robin (Boecker and Liptak 2007) modulo m over the reduced
        generators ``gens``, one min-plus pass each; after each pass it yields
        the table, one numpy array updated in place: tab[rho] is the least
        element congruent to rho mod m of the semigroup of the gens so far.

        Generator a splits the residues into c = gcd(a, m) cycles
        s, s + a, ..., s + (L - 1) a (mod m), s < c, of length L = m / c.  Its
        pass lets every entry reach the others of its cycle by adding a's:
        new[j] = min over i of tab[i] + ((j - i) mod L) a, positions counted
        along the cycle.  One lap is enough, because a full lap adds
        L a = 0 (mod m) and so never beats the entry it started from.  Put
        x_i = tab[i] - i a.  The term of an i <= j is x_i + j a; that of an
        i > j goes through the wrap and is x_i + j a + L a.  So
        new[j] = j a + min(P_j, X + L a), with P_j = min(x_0, ..., x_j) and
        X the minimum of the whole row.  X may be the x_i of some i <= j, but
        then x_i + L a >= x_i >= P_j, so the plain minimum is exact.  The c
        cycles are the rows of one 2-D index array: one gather, one scan, one
        scatter per generator.

        Unreached classes hold the sentinel big = m * max(gens): the partial
        sums of a factorization of a least element lie in distinct classes
        (cutting out the part between two in one class leaves a smaller
        element of it), so every true entry is at most (m - 1) * max.  Every
        intermediate then lies in [-big, 2 big]: x_i >= -(m - 1) max, and
        X + L a <= big + m max.  So int64 is exact when 2 big < 2**63;
        beyond that the same scan runs on Python ints (dtype object).
        """
        if m > APERY_TABLE_BUDGET:
            raise ValueError(
                f"an Apery table modulo {m} is over the budget of "
                f"{APERY_TABLE_BUDGET} residue classes"
            )
        import numpy as np  # kept out of ``import numsgps``

        big = m * max(gens)
        dtype = np.int64 if 2 * big < 2**63 else object
        tab = np.full(m, big, dtype=dtype)
        tab[0] = 0
        for a in gens:
            step = a % m
            if step:
                cycles = gcd(step, m)
                length = m // cycles
                idx = np.arange(0, length * step, step) % m + np.arange(cycles)[:, None]
                ramp = np.arange(length, dtype=dtype) * a
                x = tab[idx] - ramp
                wrap = x.min(axis=1, keepdims=True) + length * a
                tab[idx] = ramp + np.minimum(np.minimum.accumulate(x, axis=1), wrap)
            yield tab

    def _apery_table(self, m: int) -> list[int]:
        """The Apery table modulo m of the reduced semigroup, as Python ints."""
        *_, tab = self._round_robin(m, self._reduced)
        return tab.tolist()

    @cached_property
    def _prefix_tables(self) -> tuple[tuple[int, int, int, list[int]], ...]:
        """(position, g_i, e_i, tab_i) per reduced generator g_i, ascending: e_i =
        gcd(g_1, ..., g_i), tab_i the round robin's table modulo g_1 after their
        passes (sentinel off the multiples of e_i).  Only factorizations() builds them."""
        gens, order = zip(*sorted(zip(self._reduced, range(self.k))))
        tables = [tab.tolist() for tab in self._round_robin(gens[0], gens)]
        return tuple(zip(order, gens, accumulate(gens, gcd), tables))

    @cached_property
    def _residue_table(self) -> list[int]:
        """The Apery table modulo the reduced multiplicity; membership is one lookup."""
        return self._apery_table(min(self._reduced))

    @cached_property
    def _residue_array(self):
        """The residue table as a numpy array, for the component kernel: int64
        while each entry plus twice the largest reduced generator (the Betti
        candidates w + g and every t - g_i - g_j formed from them) stays below
        2**63, Python ints (dtype object) beyond."""
        import numpy as np

        tab = self._residue_table
        wide = max(tab) + 2 * max(self._reduced) >= 2**63
        return np.array(tab, dtype=object if wide else np.int64)

    @cached_property
    def _betti(self) -> dict[int, tuple[int, ...]]:
        """Betti elements mapped to their component labels, searched once per
        instance; multiplicities and presentations read them."""
        from .factorizations import _betti_search  # that module imports this one

        return _betti_search(self)

    def contains(self, t: int) -> bool:
        """True iff t has at least one factorization (t = 0 always does).

        The membership rule, in reduced units (x = t/d): x is in S/d exactly
        when x >= tab[x % m], tab the residue table and m its length.  Each
        entry is >= 0, so a negative x fails the test by itself (the
        explicit t < 0 only skips the lookup).
        """
        if t < 0 or t % self.d:
            return False
        t //= self.d
        tab = self._residue_table
        return t >= tab[t % len(tab)]

    def __contains__(self, t: int) -> bool:
        return self.contains(t)

    def elements_up_to(self, bound: int) -> list[int]:
        """All semigroup elements <= bound, ascending."""
        return [t for t in range(0, bound + 1, self.d) if self.contains(t)]

    def apery_set(self, m: int) -> "AperySet":
        """Least element of the semigroup in each residue class modulo m, a
        positive element: m/d members, position rho holding the element e with
        (e/d) = rho (mod m/d), read off the Apery table modulo m/d."""
        if m <= 0 or not self.contains(m):
            raise ValueError(f"{m} is not a positive element of {self!r}")
        m_red = m // self.d
        tab = self._residue_table
        if m_red != len(tab):
            tab = self._apery_table(m_red)
        return AperySet(self, m, tuple(x * self.d for x in tab))

    def frobenius(self) -> int:
        """Largest multiple of d outside the semigroup; -d when there is none."""
        tab = self._residue_table
        return self.d * (max(tab) - len(tab))

    def genus(self) -> int:
        """Number of multiples of d missing from the semigroup: each entry
        tab[i] = i + q_i m misses the q_i multiples below it in its class, so
        the genus is (sum(tab) - (0 + 1 + ... + (m - 1))) / m."""
        tab = self._residue_table
        m = len(tab)
        return (sum(tab) - m * (m - 1) // 2) // m

    def minimal_generators(self) -> tuple[int, ...]:
        """The unique inclusion-minimal generating subset, in generator order.

        A generator g is redundant iff it lies in the semigroup generated by
        the others, that is iff g - h is in S for some other generator h: a
        factorization of g - h < g cannot use g.  The minimal generators are
        contained in every generating set, so one filtering pass suffices.
        """
        gens = self.generators
        return tuple(g for g in gens if not any(h != g and self.contains(g - h) for h in gens))

    def embedding_dimension(self) -> int:
        return len(self.minimal_generators())

    def pseudo_frobenius(self) -> tuple[int, ...]:
        """Gaps f >= 0 with f + s in the semigroup for every positive element s.

        Only defined for gcd 1.  Computed as {w - m : w maximal in Ap(S; m)},
        m the multiplicity, under w <= b iff b - w is in S; f >= 0 makes PF(<1>)
        empty.  Ap(S; m) is closed downward under that order, so w is not
        maximal exactly when some w + g, g a generator, lies in Ap(S; m): one
        table lookup per generator.
        """
        if self.d != 1:
            raise ValueError("pseudo-Frobenius numbers require gcd(generators) = 1")
        tab = self._residue_table
        m = len(tab)
        maximal = (w for w in tab if all(tab[(w + g) % m] != w + g for g in self.generators))
        return tuple(sorted(w - m for w in maximal if w >= m))

    def type(self) -> int:
        """Number of pseudo-Frobenius numbers (gcd 1 only)."""
        return len(self.pseudo_frobenius())

    def wilf_number(self, formula: str = "standard") -> int:
        """Wilf number with k the embedding dimension (gcd must be 1):
        k(F + 1 - g) - (F + 1) for formula="standard", or the variant
        k(F - g) - (F + 1) for formula="variant".

        The two differ by exactly k; the variant is negative on every
        two-generated semigroup (e.g. <2,3> gives -2), so both are exposed.
        """
        if self.d != 1:
            raise ValueError("Wilf numbers require gcd(generators) = 1")
        k = self.embedding_dimension()
        f = self.frobenius()
        g = self.genus()
        if formula == "variant":
            return k * (f - g) - (f + 1)
        if formula == "standard":
            return k * (f + 1 - g) - (f + 1)
        raise ValueError(f"unknown Wilf formula {formula!r}")


@dataclass(frozen=True)
class AperySet:
    """Apery set of a semigroup relative to a positive element ``base``.

    ``elements[rho]`` is the least element e with (e/d) = rho (mod base/d);
    there are exactly base/d of them and they are pairwise distinct mod base.
    """

    semigroup: Semigroup
    base: int
    elements: tuple[int, ...]

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def max_element(self) -> int:
        return max(self.elements)
