"""
Numerical sets, Apéry sets, and semigroup invariants.

A numerical set is a cofinite subset of the nonnegative integers that
contains 0.  It is stored as the conductor c (the least c with
[c, infinity) entirely inside the set) together with the sporadic
members below c, so membership and closure checks never enumerate the
infinite tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement
from operator import sub
from typing import Iterable

from .errors import BoundExceededError
from .permutations import validate_permutation

# Decoded Apéry elements must fit a signed 64-bit word; larger values
# raise OverflowError instead of silently producing huge sets.
INT64_MAX = 2**63 - 1

# from_generators allocates a closure table of min(gens)*max(gens) bytes.
_CLOSURE_TABLE_LIMIT = 2**26


@dataclass(frozen=True)
class NumericalSet:
    """
    A cofinite subset of the nonnegative integers containing 0.

    Membership rule: x is in the set iff x >= conductor or x appears in
    the sporadic tuple.  ``NumericalSet(0)`` is the full set of
    nonnegative integers.
    """

    conductor: int
    sporadic: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        c = self.conductor
        sp = self.sporadic
        if c < 0:
            raise ValueError("conductor must be nonnegative")
        if c == 0:
            if sp:
                raise ValueError("the full set stores no sporadic members")
            return
        if any(a >= b for a, b in zip(sp, sp[1:])):
            raise ValueError("sporadic members must be strictly increasing")
        if not sp or sp[0] != 0:
            raise ValueError("0 must be a member")
        if sp[-1] >= c:
            raise ValueError("sporadic members must lie below the conductor")
        if sp[-1] == c - 1:
            raise ValueError("conductor is not minimal: conductor-1 is a member")

    @classmethod
    def naturals(cls) -> "NumericalSet":
        """The full set of nonnegative integers."""
        return cls(0, ())

    @classmethod
    def from_gaps(cls, gaps: Iterable[int]) -> "NumericalSet":
        """The numerical set whose complement is exactly the given finite set."""
        gap_set = set(gaps)
        if not gap_set:
            return cls(0, ())
        if any(g < 1 for g in gap_set):
            raise ValueError("gaps must be positive (0 is always a member)")
        c = max(gap_set) + 1
        return cls(c, tuple(x for x in range(c) if x not in gap_set))

    @classmethod
    def from_generators(cls, generators: Iterable[int]) -> "NumericalSet":
        """
        The smallest numerical semigroup containing the generators, i.e.
        all finite sums of them (including the empty sum 0).
        """
        gens = sorted(set(generators))
        if not gens:
            raise ValueError("at least one generator is required")
        if gens[0] < 1:
            raise ValueError("generators must be positive")
        if math.gcd(*gens) != 1:
            raise ValueError(
                f"not cofinite: generators {tuple(gens)} have gcd {math.gcd(*gens)}"
            )
        # Past min*max every residue class mod min(gens) has been reached,
        # so the closure is stable beyond this bound.
        bound = gens[0] * gens[-1]
        if bound > _CLOSURE_TABLE_LIMIT:
            raise BoundExceededError(
                f"generator closure table of size {bound} exceeds guard"
            )
        member = bytearray(bound + 1)
        member[0] = 1
        for x in range(bound + 1):
            if member[x]:
                for g in gens:
                    if x + g <= bound:
                        member[x + g] = 1
        last_gap = -1
        for x in range(bound, -1, -1):
            if not member[x]:
                last_gap = x
                break
        c = last_gap + 1
        return cls(c, tuple(x for x in range(c) if member[x]))

    def __contains__(self, x: int) -> bool:
        if x < 0:
            return False
        return x >= self.conductor or x in self.sporadic

    def __str__(self) -> str:
        parts = [str(x) for x in self.sporadic] + [f"{self.conductor}→"]
        return "{" + ",".join(parts) + "}"

    @property
    def frobenius(self) -> int:
        """Largest integer outside the set; -1 when there is none."""
        return self.conductor - 1

    @property
    def genus(self) -> int:
        """Number of gaps (nonnegative integers outside the set)."""
        return self.conductor - len(self.sporadic)

    @property
    def multiplicity(self) -> int:
        """Least positive member."""
        if len(self.sporadic) > 1:
            return self.sporadic[1]
        return self.conductor if self.conductor > 0 else 1

    def gaps(self) -> tuple[int, ...]:
        sp = set(self.sporadic)
        return tuple(x for x in range(self.conductor) if x not in sp)

    def is_closed_under(self, n: int) -> bool:
        """True when x + n stays in the set for every member x."""
        if n < 1:
            raise ValueError("n must be a positive integer")
        c = self.conductor
        members = set(self.sporadic)
        return all(x + n >= c or x + n in members for x in self.sporadic)

    def apery_set(self, n: int) -> "AperySet":
        """
        The members w with w - n outside the set: exactly one per residue
        class mod n, namely the least member of each class.  Only defined
        when the set is closed under addition by n.
        """
        if not self.is_closed_under(n):
            raise ValueError(
                f"Apéry set undefined: the set is not closed under addition by {n}"
            )
        c = self.conductor
        members = set(self.sporadic)
        elements = []
        for residue in range(n):
            w = residue
            while w < c and w not in members:
                w += n
            elements.append(w)
        return AperySet(n, tuple(sorted(elements)))

    def is_semigroup(self) -> bool:
        """True when the set is closed under addition.

        Sums involving a member at or beyond the conductor land beyond it
        too, so only pairs of positive sporadic members need checking.
        """
        c = self.conductor
        members = set(self.sporadic)
        positive = [x for x in self.sporadic if x > 0]
        for a, b in combinations_with_replacement(positive, 2):
            s = a + b
            if s < c and s not in members:
                return False
        return True

    def summary(self) -> "SemigroupSummary":
        """Multiplicity, minimal generators, Frobenius number and genus.

        Only defined for numerical semigroups (sets closed under addition).
        """
        if not self.is_semigroup():
            raise ValueError("summary is only defined for numerical semigroups")
        c = self.conductor
        members_set = set(self.sporadic)

        def has(x: int) -> bool:
            return x >= c or x in members_set

        mult = self.multiplicity
        # Any member s > c + mult - 1 with s > mult satisfies s - mult >= c,
        # so no minimal generator exceeds max(c + mult - 1, mult).
        limit = max(c + mult - 1, mult)
        candidates = [x for x in range(1, limit + 1) if has(x)]
        generators = tuple(
            s
            for s in candidates
            if not any(has(s - a) for a in candidates if a < s)
        )
        return SemigroupSummary(
            multiplicity=mult,
            embedding_dimension=len(generators),
            frobenius=self.frobenius,
            genus=self.genus,
            minimal_generators=generators,
        )


@dataclass(frozen=True)
class AperySet:
    """
    A complete residue system mod ``modulus`` containing 0, listed in
    increasing order.  This is exactly the data of the Apéry set of a
    numerical set closed under addition by ``modulus``.
    """

    modulus: int
    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.modulus
        if type(n) is not int or n < 1:
            raise ValueError(f"modulus must be a positive integer, got {n!r}")
        el = self.elements
        if not {int}.issuperset(map(type, el)):
            raise ValueError(f"elements must be plain ints, got {tuple(el)!r}")
        if len(el) != n:
            raise ValueError(f"expected {n} elements, got {len(el)}")
        if el[0] != 0:
            raise ValueError("0 must be the smallest element")
        if any(a >= b for a, b in zip(el, el[1:])):
            raise ValueError("elements must be strictly increasing")
        if sorted(w % n for w in el) != list(range(n)):
            raise ValueError(f"elements must cover every residue class mod {n} once")

    def __str__(self) -> str:
        return f"{self.modulus}:{{{','.join(str(w) for w in self.elements)}}}"

    def decompose(self) -> "AperyDecomposition":
        """Quotient/residue split of the nonzero elements by the modulus."""
        n = self.modulus
        return AperyDecomposition(
            modulus=n,
            quotients=tuple(w // n for w in self.elements[1:]),
            residues=tuple(w % n for w in self.elements[1:]),
        )

    def to_numerical_set(self) -> NumericalSet:
        """
        The numerical set generated by adding multiples of the modulus to
        each element: the union of the arithmetic tails w, w+n, w+2n, ...
        """
        n = self.modulus
        top = self.elements[-1]
        if top < n:
            return NumericalSet(0, ())
        c = top - n + 1
        least = {w % n: w for w in self.elements}
        sporadic = tuple(x for x in range(c) if x >= least[x % n])
        return NumericalSet(c, sporadic)

    def generates_semigroup(self) -> bool:
        """
        True when ``to_numerical_set()`` is closed under addition.

        >>> AperySet(4, (0, 7, 9, 14)).generates_semigroup()
        True
        >>> AperySet(3, (0, 5, 13)).generates_semigroup()  # 5 + 5 < 13
        False
        """
        return _closed_under_addition(self.modulus, self.elements)


def _closed_under_addition(n: int, elements: Iterable[int]) -> bool:
    """
    Kunz's test (Kunz 1987; Rosales & García-Sánchez 2009, ch. 1): with
    W[r] the element in residue class r mod n, adding multiples of n to
    the elements gives a set closed under addition iff W[a] + W[b] >=
    W[(a + b) mod n] for 1 <= a <= b < n.  Row a is one C-level pass over
    W[a:] and the doubled table; a + b = n lands on W[0] = 0, never failing.
    """
    table = [0] * n
    for w in elements:
        table[w % n] = w
    doubled = table + table
    return all(
        max(map(sub, doubled[2 * a : a + n], table[a:])) <= table[a]
        for a in range(1, n)
    )


@dataclass(frozen=True)
class AperyDecomposition:
    """
    The nonzero elements of an Apéry set written as
    modulus * quotients[i] + residues[i], in increasing element order.
    The residues form a permutation of 1..modulus-1 and the quotients
    are non-decreasing.
    """

    modulus: int
    quotients: tuple[int, ...]
    residues: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.modulus
        if n < 1:
            raise ValueError("modulus must be positive")
        if len(self.quotients) != n - 1 or len(self.residues) != n - 1:
            raise ValueError(f"expected {n - 1} quotients and residues")
        validate_permutation(self.residues)
        if any(q < 0 for q in self.quotients):
            raise ValueError("quotients must be nonnegative")
        elements = [n * q + r for q, r in zip(self.quotients, self.residues)]
        if any(a >= b for a, b in zip(elements, elements[1:])):
            raise ValueError("reconstructed elements must be strictly increasing")

    def to_apery_set(self) -> AperySet:
        n = self.modulus
        elements = [0]
        for q, r in zip(self.quotients, self.residues):
            w = n * q + r
            if w > INT64_MAX:
                raise OverflowError(
                    f"Apéry element {n}*{q}+{r} exceeds the 64-bit range"
                )
            elements.append(w)
        return AperySet(n, tuple(elements))


@dataclass(frozen=True)
class SemigroupSummary:
    """Headline invariants of a numerical semigroup."""

    multiplicity: int
    embedding_dimension: int
    frobenius: int
    genus: int
    minimal_generators: tuple[int, ...]
