"""
Position-vector codec for numerical sets, plus semigroup criteria that
work directly on the vector.

A numerical set closed under addition by n has an Apéry set
{0 = w_0 < w_1 < ... < w_{n-1}}.  Listing where those elements sit in
the increasing enumeration of the set gives indices
0 = x_0 < x_1 < ... < x_{n-1}; the position vector is the tuple of
successive differences (x_1, x_2 - x_1, ..., x_{n-1} - x_{n-2}).  This
is a bijection between (n-1)-tuples of positive integers and numerical
sets closed under addition by n.  ``encode`` and ``decode`` realise the
two directions purely arithmetically, without enumerating the set:

* ``decode`` runs two recurrences over the vector.  With t_0 = 0 and
  l_0 = -1, entry i (1-based) yields t_i = (v_i + t_{i-1}) mod i and
  l_i = l_{i-1} + (v_i + t_{i-1} - t_i) / i.  The t-sequence is the
  conversion vector of a permutation sigma of 1..n-1, and the Apéry
  elements are 0 together with n*l_i + sigma_i.

* ``encode`` inverts this: splitting the nonzero Apéry elements as
  n*k_i + p_i, the residues p_i form a permutation with conversion
  vector r, and v_i = i*(k_i - k_{i-1}) + (r_i - r_{i-1}) with the same
  seeds as above.

The remaining functions classify vectors: which decode to numerical
semigroups (closed under addition), in general and via closed-form
rule tables for moduli up to 5, and which decode to semigroups whose
least positive member equals the modulus.  The general criterion and
``AperySet.generates_semigroup`` share one test, Kunz's inequality
W[a] + W[b] >= W[(a+b) mod n] on the Apéry elements indexed by residue.
``enumerate_vectors`` applies it once per tail (v_2, ..., v_{n-1}) of
the grid: the first entry only raises every Apéry quotient, so each tail
has a least first entry from which on every vector is a semigroup.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations_with_replacement, compress, product, repeat
from operator import sub
from typing import Iterator, Sequence

from .numsets import AperyDecomposition, AperySet, NumericalSet, _closed_under_addition
from .permutations import conversion_vector, permutation_from_conversion

VECTOR_FILTERS = ("all", "semigroups", "semigroups_with_multiplicity_n")


def validate_vector(vector: Sequence[int]) -> None:
    """
    Raise ValueError unless every entry is a positive plain int (bools and
    other int subclasses are refused).
    """
    for i, v in enumerate(vector, start=1):
        if type(v) is not int or v < 1:
            raise ValueError(f"vector entry {i} must be a positive integer, got {v!r}")


def vector_decomposition(vector: Sequence[int]) -> AperyDecomposition:
    """
    The Apéry quotients and residues encoded by a position vector (the
    modulus is always len(vector) + 1).

    >>> vector_decomposition((3, 2, 1, 6, 7))
    AperyDecomposition(modulus=6, quotients=(2, 3, 3, 4, 6), residues=(4, 2, 3, 5, 1))
    """
    validate_vector(vector)
    conversion, quotients = _recurrence(vector)
    residues = permutation_from_conversion(conversion)
    return AperyDecomposition(len(vector) + 1, tuple(quotients), residues)


def _recurrence(vector: Sequence[int]) -> tuple[list[int], list[int]]:
    """
    The conversion vector t and the Apéry quotients q of a valid vector,
    by the t/q recurrence of ``decode`` (no validation).
    """
    conversion: list[int] = []
    quotients: list[int] = []
    t_prev, q_prev = 0, -1  # seeds make the first step uniform
    for i, v in enumerate(vector, start=1):
        t = (v + t_prev) % i
        q_prev += (v + t_prev - t) // i
        conversion.append(t)
        quotients.append(q_prev)
        t_prev = t
    return conversion, quotients


def decode(vector: Sequence[int]) -> AperySet:
    """
    The Apéry set of the unique numerical set, closed under addition by
    n = len(vector) + 1, whose position vector is the given tuple.

    >>> decode((3, 2, 1, 6, 7)).elements
    (0, 16, 20, 21, 29, 37)
    >>> decode((2,)).elements
    (0, 3)
    """
    return vector_decomposition(vector).to_apery_set()


def encode(apery: AperySet) -> tuple[int, ...]:
    """
    The position vector of the numerical set with the given Apéry set.

    >>> from posvec.numsets import AperySet
    >>> encode(AperySet(6, (0, 16, 20, 21, 29, 37)))
    (3, 2, 1, 6, 7)
    """
    split = apery.decompose()
    conversion = conversion_vector(split.residues)
    out = []
    q_prev, r_prev = 0, -1
    for i, (q, r) in enumerate(zip(split.quotients, conversion), start=1):
        out.append(i * (q - q_prev) + (r - r_prev))
        q_prev, r_prev = q, r
    return tuple(out)


def position_vector(numset: NumericalSet, n: int) -> tuple[int, ...]:
    """Position vector of a numerical set closed under addition by n."""
    return encode(numset.apery_set(n))


def apery_positions(vector: Sequence[int]) -> tuple[int, ...]:
    """
    Indices at which the Apéry elements appear in the increasing
    enumeration of the decoded set: 0 followed by the partial sums.
    """
    validate_vector(vector)
    positions = [0]
    for v in vector:
        positions.append(positions[-1] + v)
    return tuple(positions)


@dataclass(frozen=True)
class ClassProfile:
    """
    Congruence-class data of a position vector.

    ``representative`` reduces each entry into 1..i (entry i taken mod i),
    picking a canonical member of the vector's congruence class, and
    ``permutation`` is the class's shared permutation.  ``descent_flags``
    marks the permutation's descents (flag i is 1 when entry i-1 exceeds
    entry i; the first flag is always 0), and ``entry_quotients`` holds
    (v_i - 1) // i.  Quotients and flags together give the increments of
    the decoded Apéry quotient sequence.
    """

    representative: tuple[int, ...]
    permutation: tuple[int, ...]
    descent_flags: tuple[int, ...]
    entry_quotients: tuple[int, ...]


def class_profile(vector: Sequence[int]) -> ClassProfile:
    """
    >>> class_profile((3, 2, 1, 6, 7))  # doctest: +NORMALIZE_WHITESPACE
    ClassProfile(representative=(1, 2, 1, 2, 2), permutation=(4, 2, 3, 5, 1),
                 descent_flags=(0, 1, 0, 0, 1), entry_quotients=(2, 0, 0, 1, 1))
    """
    perm = vector_decomposition(vector).residues
    flags = tuple(
        0 if i == 0 or perm[i - 1] < perm[i] else 1 for i in range(len(perm))
    )
    return ClassProfile(
        representative=tuple((v - 1) % i + 1 for i, v in enumerate(vector, start=1)),
        permutation=perm,
        descent_flags=flags,
        entry_quotients=tuple((v - 1) // i for i, v in enumerate(vector, start=1)),
    )


def congruent(v: Sequence[int], z: Sequence[int]) -> bool:
    """
    Componentwise congruence mod the index: entry i of both vectors agrees
    mod i.  Congruent vectors share their conversion sequence and hence
    their permutation.
    """
    if len(v) != len(z):
        raise ValueError(f"length mismatch: {len(v)} vs {len(z)}")
    validate_vector(v)
    validate_vector(z)
    return all((a - b) % i == 0 for i, (a, b) in enumerate(zip(v, z), start=1))


def is_semigroup_vector(vector: Sequence[int]) -> bool:
    """
    True when the decoded numerical set is closed under addition, decided
    directly on the vector.

    With u the entry quotients, g the descent flags and p the permutation
    of the vector's class, the decoded set is a semigroup iff for every
    0 < i <= j < l with p_i + p_j congruent to p_l mod n:

        sum(u+g, 1..i) + (p_i + p_j - p_l)/n  >=  sum(u+g, j+1..l)

    where n = len(vector) + 1 and the correction term is always 0 or 1.
    It is evaluated as Kunz's inequality on the Apéry elements n*q + r
    (see ``numsets._closed_under_addition``), with no 2^63 cap on them.
    """
    split = vector_decomposition(vector)
    n = split.modulus
    elements = [n * q + r for q, r in zip(split.quotients, split.residues)]
    return _closed_under_addition(n, elements)


# Closed-form semigroup rules for vectors of length 2, 3 and 4 (moduli
# 3, 4 and 5).  Each congruence-class representative maps to conditions
# (lhs, rhs, add) meaning sum(u[lhs]) >= sum(u[rhs]) + add over 1-based
# indices into the entry-quotient sequence u.
_Condition = tuple[tuple[int, ...], tuple[int, ...], int]

_RULE_GROUPS_LEN3: tuple[tuple[tuple[tuple[int, ...], ...], tuple[_Condition, ...]], ...] = (
    (((1, 1, 1), (1, 2, 3)), (((1,), (2,), 0), ((1,), (3,), 0))),
    (((1, 1, 2), (1, 2, 2)), (((1,), (3,), 0),)),
    (((1, 2, 1),), (((1,), (2, 3), 0),)),
    (((1, 1, 3),), (((1,), (2, 3), 1),)),
)

_RULE_GROUPS_LEN4: tuple[tuple[tuple[tuple[int, ...], ...], tuple[_Condition, ...]], ...] = (
    (
        ((1, 1, 1, 1), (1, 1, 2, 2), (1, 2, 2, 3), (1, 2, 3, 4)),
        (((1,), (2,), 0), ((1,), (3,), 0), ((1,), (4,), 0), ((1, 2), (3, 4), 0)),
    ),
    (((1, 2, 1, 2), (1, 2, 3, 1)), (((1,), (2,), 0), ((1,), (3, 4), 0))),
    (((1, 1, 3, 3), (1, 1, 1, 4)), (((1,), (2,), 0), ((1,), (3, 4), 1))),
    (
        ((1, 1, 1, 2), (1, 2, 1, 4)),
        (((1,), (2, 3), 0), ((1,), (4,), 0), ((1, 2), (3, 4), 0)),
    ),
    (
        ((1, 2, 3, 3), (1, 1, 3, 1)),
        (((1,), (2, 3), 1), ((1,), (4,), 0), ((1, 2), (3, 4), 0)),
    ),
    (
        ((1, 1, 1, 3), (1, 2, 3, 2), (1, 2, 2, 1), (1, 1, 2, 4), (1, 1, 2, 3), (1, 2, 2, 2)),
        (((1,), (2, 3, 4), 1),),
    ),
    (((1, 1, 3, 4),), (((1,), (2, 3, 4), 2),)),
    (((1, 2, 1, 1),), (((1,), (2, 3, 4), 0),)),
    (((1, 1, 2, 1), (1, 2, 1, 3)), (((1,), (2, 3), 0), ((1,), (3, 4), 0))),
    (((1, 2, 2, 4), (1, 1, 3, 2)), (((1,), (2, 3), 1), ((1,), (3, 4), 1))),
)


def _build_rules(groups, length: int) -> dict[tuple[int, ...], tuple[_Condition, ...]]:
    rules: dict[tuple[int, ...], tuple[_Condition, ...]] = {}
    for representatives, conditions in groups:
        for rep in representatives:
            if rep in rules:
                raise AssertionError(f"representative {rep} listed twice")
            rules[rep] = conditions
    expected = {
        rep for rep in product(*(range(1, i + 1) for i in range(1, length + 1)))
    }
    if set(rules) != expected:
        raise AssertionError(
            f"length-{length} rules do not cover every congruence class exactly once"
        )
    return rules


CLOSED_FORM_RULES_LEN3 = _build_rules(_RULE_GROUPS_LEN3, 3)
CLOSED_FORM_RULES_LEN4 = _build_rules(_RULE_GROUPS_LEN4, 4)


def _holds(u: Sequence[int], condition: _Condition) -> bool:
    lhs, rhs, add = condition
    return sum(u[i - 1] for i in lhs) >= sum(u[j - 1] for j in rhs) + add


def is_semigroup_closed_form(vector: Sequence[int]) -> bool:
    """
    Closed-form version of ``is_semigroup_vector`` for moduli up to 5:
    length 0 and 1 vectors always decode to semigroups, a length-2 vector
    does iff u_1 >= u_2, and lengths 3 and 4 look the vector's class
    representative up in a fixed rule table over the quotients u.
    """
    m = len(vector)
    if m > 4:
        raise ValueError(f"no closed-form rules for vectors of length {m} (max 4)")
    validate_vector(vector)
    if m <= 1:
        return True
    u = tuple((v - 1) // i for i, v in enumerate(vector, start=1))
    if m == 2:
        return u[0] >= u[1]
    rep = tuple((v - 1) % i + 1 for i, v in enumerate(vector, start=1))
    rules = CLOSED_FORM_RULES_LEN3 if m == 3 else CLOSED_FORM_RULES_LEN4
    return all(_holds(u, condition) for condition in rules[rep])


def multiplicity_is_modulus(vector: Sequence[int]) -> bool:
    """
    True when the decoded set's least positive member equals the modulus
    len(vector) + 1, which happens exactly when the first entry exceeds 1.
    The empty vector decodes to the full set (least positive member 1,
    modulus 1), so it qualifies.
    """
    validate_vector(vector)
    return vector[0] > 1 if vector else True


def enumerate_vectors(
    modulus: int, bound: int, selection: str = "all"
) -> Iterator[tuple[int, ...]]:
    """
    An iterator over every vector in {1..bound}^(modulus-1), in
    lexicographic order, keeping those passing the selection: "all",
    "semigroups" (decoded set closed under addition) or
    "semigroups_with_multiplicity_n" (also requiring the least positive
    member to equal the modulus).  Bad arguments raise ValueError at the
    call, before any vector is produced.

    The first entry never changes the conversion vector (t_1 = v_1 mod 1
    = 0); it only adds v_1 - 1 to every Apéry quotient.  In Kunz's
    inequality W[a] + W[b] >= W[(a + b) mod n], raising every quotient by
    k adds 2k*n to the left side and k*n to the right, so each tail
    (v_2, ..., v_{n-1}) has a least first entry f for which
    (f, v_2, ..., v_{n-1}) is a semigroup vector, and every larger first
    entry gives one too.  The semigroup filters therefore compute f once
    per tail (``_tail_thresholds``) and keep (v_1, tail) when v_1 >= f,
    so no vector is decoded.  That costs about 3.5 µs a tail at modulus
    8; a grid vector costs 0.16-0.7 µs at moduli 3..7 and 1.5 µs at
    modulus 8 with bound 3, against 0.05 µs for "all" (Python 3.11,
    2-core Xeon).  The walk holds bound^(n-2) tuples of n - 1 quotients
    and O(n^2) residue pairs.
    """
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    if bound < 1:
        raise ValueError("bound must be positive")
    if selection not in VECTOR_FILTERS:
        raise ValueError(f"unknown filter {selection!r}, expected one of {VECTOR_FILTERS}")
    entries = range(1, bound + 1)
    if selection == "all":
        return product(entries, repeat=modulus - 1)
    first = 2 if selection == "semigroups_with_multiplicity_n" else 1
    thresholds = _tail_thresholds(modulus, bound)
    keep = chain.from_iterable(map(v.__ge__, thresholds) for v in range(first, bound + 1))
    return compress(product(range(first, bound + 1), *[entries] * (modulus - 2)), keep)


def _tail_quotients(modulus: int, bound: int) -> list[tuple[int, ...]]:
    """
    For every tail in {1..bound}^(modulus-2), in lexicographic order, the
    Apéry quotients of (1,) + tail listed by residue: entry r - 1 is the
    quotient of the element congruent to r mod modulus.

    >>> _tail_quotients(4, 2)  # tails (1, 1), (1, 2), (2, 1), (2, 2)
    [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 0, 1)]
    """
    entries = range(1, bound + 1)
    # expand the tails one entry at a time from v_1 = 1 (t_1 = 0, q_1 = 0),
    # carrying (t, q, Q) with Q the quotients by residue so far: entry i's
    # quotient goes in at index t_i, as permutation_from_conversion places
    # position i
    tails = [(0, 0, (0,))]
    for i in range(2, modulus):
        grown = []
        for t, q, by_residue in tails:
            for v in entries:
                t_next = (v + t) % i
                q_next = q + (v + t - t_next) // i
                grown.append(
                    (t_next, q_next, by_residue[:t_next] + (q_next,) + by_residue[t_next:])
                )
        tails = grown
    return [by_residue for _, _, by_residue in tails]


def _tail_thresholds(modulus: int, bound: int) -> list[int]:
    """
    For every tail in {1..bound}^(modulus-2), in lexicographic order, the
    least first entry f that makes (f,) + tail a semigroup vector.

    >>> _tail_thresholds(3, 3)  # (v_1, v_2) needs v_1 - 1 >= (v_2 - 1) // 2
    [1, 1, 2]
    """
    n = modulus
    # column r - 1 holds Q[r] over all tails, raised[r - 1] holds Q[r] + 1.
    # With v_1 = 1 + k, Kunz's row for residues a <= b reads
    # k >= Q[c] - Q[a] - Q[b] - carry, where c = (a + b) mod n and
    # carry = (a + b) // n, so f is the max of 1 and every
    # (Q[c] + 1 - carry) - Q[a] - Q[b], taken one C-level pass per row.
    # The tail tuples die once transposed, before raised is built.
    columns = list(zip(*_tail_quotients(n, bound)))
    raised = [tuple(map((1).__add__, column)) for column in columns]
    rows = []
    for a, b in combinations_with_replacement(range(1, n), 2):
        carry, c = divmod(a + b, n)
        if c:  # W[0] = 0, so the row always holds
            top = columns[c - 1] if carry else raised[c - 1]
            rows.append(map(sub, map(sub, top, columns[a - 1]), columns[b - 1]))
    return list(map(max, zip(repeat(1, len(columns[0])), *rows)))
