"""
Reference routes the benchmark checks posvec against.

Nothing here imports posvec.  Each function works from the definitions:
the members below an Apéry element are counted class by class, closure
is the sum of two Apéry elements landing in the set, and the Apéry set
of a generator list is a shortest-path problem over residues.  Agreement
with the package is therefore evidence, not a tautology.
"""

from __future__ import annotations

import heapq
from typing import Sequence


def smaller_before(seq: Sequence[int]) -> list[int]:
    """
    For each position, how many earlier entries are smaller (a Fenwick
    tree over the values, so O(len log max)).  On a permutation this is
    its conversion vector.
    """
    # value x lives at 1-based index x + 1, so a prefix up to x counts < x
    size = max(seq, default=0) + 1
    tree = [0] * (size + 1)
    out = []
    for x in seq:
        i, below = x, 0
        while i > 0:
            below += tree[i]
            i -= i & -i
        out.append(below)
        i = x + 1
        while i <= size:
            tree[i] += 1
            i += i & -i
    return out


def apery_from_kunz(kunz: Sequence[int]) -> list[int]:
    """Sorted Apéry set {0} ∪ {n*k_r + r}, n = len(kunz) + 1."""
    n = len(kunz) + 1
    return sorted([0] + [n * k + r for r, k in enumerate(kunz, start=1)])


def position_vector(apery: Sequence[int]) -> tuple[int, ...]:
    """
    Position vector of the numerical set with this sorted Apéry set.

    The index of w_j in the enumeration is the number of members below
    it.  Class i contributes ceil((w_j - w_i)/n) of them when w_i < w_j,
    which is (k_j - k_i) + [r_i < r_j] with w = n*k + r.
    """
    n = len(apery)
    quotients = [w // n for w in apery]
    less = smaller_before([w % n for w in apery])
    positions, quotient_sum = [], 0
    for j, k in enumerate(quotients):
        positions.append(j * k - quotient_sum + less[j])
        quotient_sum += k
    return tuple(b - a for a, b in zip(positions, positions[1:]))


def is_member(apery_by_residue: Sequence[int], x: int) -> bool:
    """x is in the set iff it reaches the Apéry element of its class."""
    return x >= 0 and x >= apery_by_residue[x % len(apery_by_residue)]


def by_residue(apery: Sequence[int]) -> list[int]:
    n = len(apery)
    out = [0] * n
    for w in apery:
        out[w % n] = w
    return out


def is_semigroup(apery: Sequence[int]) -> bool:
    """Closed under addition iff every sum of two Apéry elements is a member."""
    table = by_residue(apery)
    positive = apery[1:]
    for i, a in enumerate(positive):
        for b in positive[i:]:
            if not is_member(table, a + b):
                return False
    return True


def frobenius(apery: Sequence[int]) -> int:
    """max(Ap) - n: the largest integer below the last Apéry element's class."""
    return apery[-1] - len(apery)


def genus(apery: Sequence[int]) -> int:
    """Selmer's formula: the gaps number the sum of the Apéry quotients."""
    return sum(w // len(apery) for w in apery)


def members_below_conductor(apery: Sequence[int]) -> int:
    """Positive members below the conductor max(Ap) - n + 1."""
    n = len(apery)
    c = apery[-1] - n + 1
    return sum(max(0, -(-(c - w) // n)) for w in apery) - 1


def apery_of_generators(generators: Sequence[int], n: int) -> list[int]:
    """Least sum of generators in each class mod n (Dijkstra over residues)."""
    dist: list[int | None] = [None] * n
    heap = [(0, 0)]
    while heap:
        d, r = heapq.heappop(heap)
        if dist[r] is not None:
            continue
        dist[r] = d
        for g in generators:
            s = d + g
            if dist[s % n] is None:
                heapq.heappush(heap, (s, s % n))
    if any(d is None for d in dist):
        raise ValueError("generators do not reach every class")
    return sorted(dist)


def closure_violation_count(apery: Sequence[int]) -> int:
    """
    Pairs a <= b of positive members whose sum is not a member, counted
    class by class.  With a = w_i + n*s and b = w_j + n*t the sum misses
    the set iff s + t < D = ceil((w_l - w_i - w_j) / n), w_l the Apéry
    element of the sum's class; such sums lie below the conductor.
    """
    n = len(apery)
    table = by_residue(apery)
    total = 0
    for i in range(n):
        for j in range(i, n):
            gap = table[(i + j) % n] - table[i] - table[j]
            if gap <= 0:
                continue
            d = -(-gap // n)
            if i == j:
                total += sum(d - 2 * s for s in range((d + 1) // 2))  # s <= t
            elif i == 0:
                total += d * (d - 1) // 2  # 0 is not positive: s >= 1
            else:
                total += d * (d + 1) // 2
    return total
