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
from itertools import accumulate, islice
from math import gcd

# Largest modulus ``Semigroup._apery_table`` accepts, checked before anything is
# allocated.  An int64 table keeps 8 bytes per residue class and peaks at 32
# while it is built (tracemalloc at m = 10**6: the index, ramp and gathered
# arrays of one pass beside the table), so a table at the budget peaks near
# 0.32 GB.
APERY_TABLE_BUDGET = 10**7
# Most multiples of d (bound // d + 1) ``Semigroup.elements_up_to`` accepts,
# checked before the list is built: about 40 bytes an element, a list slot and
# an int (tracemalloc at 4 * 10**5), so 0.4 GB at the budget.
ELEMENTS_BUDGET = 10**7


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
        self.d: int = gcd(*gens)

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
        cycles are the rows of one index array (a single row when c = 1): one
        gather, one scan, one scatter per generator, the rest in place.

        The first pass with a step (a % m != 0) has a closed form: the passes
        before it add multiples of m and move nothing, so it meets a fresh
        table, finite only at tab[0] = 0.  On the cycle
        through 0, x_0 = 0 and x_i = big - i a > 0 for 0 < i < L (big >= m a),
        so P_j = 0, X + L a > 0 and new[j] = j a; on every other cycle
        x_i = big - i a, so new[j] = j a + min(big - j a, big + a) = big
        stays.  That pass is one scatter of the ramp j a onto the cycle
        through 0.  The cycle positions x = j step are reduced mod m as
        x - (x // m) m, equal to x % m for x >= 0: numpy's integer floor
        division by a scalar is faster than its remainder.

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
        fresh = True  # no pass has moved the table yet
        for a in gens:
            step = a % m
            if step:
                cycles = gcd(step, m)
                length = m // cycles
                idx = np.arange(0, length * step, step)
                idx -= idx // m * m  # idx % m
                ramp = np.arange(0, length * a, a, dtype=dtype)
                if fresh:
                    tab[idx] = ramp
                    fresh = False
                else:
                    if cycles > 1:
                        idx = idx + np.arange(cycles)[:, None]
                    x = tab[idx]
                    x -= ramp
                    wrap = x.min(axis=-1, keepdims=True) + length * a
                    np.minimum.accumulate(x, axis=-1, out=x)
                    np.minimum(x, wrap, out=x)
                    x += ramp
                    tab[idx] = x
                    del x
                del idx, ramp  # before the next pass allocates its own
            yield tab

    def _apery_table(self, m: int):
        """The Apery table modulo m of the reduced semigroup: the round robin's
        numpy array (int64, or Python ints past its width rule)."""
        *_, tab = self._round_robin(m, self._reduced)
        return tab

    @cached_property
    def _prefix_tables(self) -> tuple[tuple[int, int, int, list[int] | None], ...]:
        """(position, g_i, e_i, tab_i) per reduced generator g_i, ascending: e_i =
        gcd(g_1, ..., g_i), tab_i the round robin's table modulo g_1 after their
        passes (sentinel off the multiples of e_i), as Python ints.  A reader
        takes tab_i only to prune what is left to g_1, ..., g_i once g_{i+1} is
        assigned, so nothing reads tab_k: the passes stop before the largest
        generator, and tab_k is None.  Only factorizations() and the
        extreme-length kernel weighted._extreme_lengths read them."""
        gens, order = zip(*sorted(zip(self._reduced, range(self.k))))
        passes = islice(self._round_robin(gens[0], gens), self.k - 1)
        tables = [tab.tolist() for tab in passes] + [None]
        return tuple(zip(order, gens, accumulate(gens, gcd), tables))

    @cached_property
    def _residue_table(self):
        """The Apery table modulo the reduced multiplicity m, one numpy array:
        membership is one lookup, the Frobenius number, genus and PF numbers
        are reductions over it, and the component kernel indexes it.

        Width: the round robin keeps int64 only when 2 m max(reduced) < 2**63.
        Every entry is at most (m - 1) max(reduced), so that already gives
        max(tab) + 2 max(reduced) <= 2 m max(reduced) < 2**63, the kernel's
        condition for the Betti candidates w + g and every t - g_i - g_j
        formed from them."""
        return self._apery_table(min(self._reduced))

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
        return t >= tab.item(t % len(tab))

    def __contains__(self, t: int) -> bool:
        return self.contains(t)

    def elements_up_to(self, bound: int) -> list[int]:
        """All semigroup elements <= bound, ascending."""
        if bound // self.d + 1 > ELEMENTS_BUDGET:
            raise ValueError(
                f"elements up to {bound} are over the budget of {ELEMENTS_BUDGET} "
                f"multiples of {self.d}"
            )
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
        return AperySet(self, m, tuple(x * self.d for x in tab.tolist()))

    def frobenius(self) -> int:
        """Largest multiple of d outside the semigroup; -d when there is none."""
        tab = self._residue_table
        return self.d * (int(tab.max()) - len(tab))

    def genus(self) -> int:
        """Number of multiples of d missing from the semigroup: each entry
        tab[i] = i + q_i m, i < m, misses the q_i = tab[i] // m multiples below
        it in its class.  Each q_i is below max(reduced), so their sum is below
        m max(reduced), inside the table's own width: int64 sums it exactly."""
        tab = self._residue_table
        return int((tab // len(tab)).sum())

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
        maximal exactly when some w + g, g a generator, lies in Ap(S; m).
        At gcd 1 every entry has tab[rho] = rho (mod m), so w + g falls in
        class rho + g and its lookup is the table rotated left by g mod m:
        one rotation per generator.
        """
        if self.d != 1:
            raise ValueError("pseudo-Frobenius numbers require gcd(generators) = 1")
        import numpy as np

        tab = self._residue_table
        m = len(tab)
        maximal = tab >= m
        for g in self.generators:
            maximal &= np.roll(tab, -(g % m)) != tab + g
        return tuple(np.sort(tab[maximal] - m).tolist())

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
