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
``enumerate_vectors`` rewrites that inequality once per congruence class
of the grid, as rows on the Apéry quotients, and tests each vector on
its class's rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, product
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


_Row = tuple[int, int, int, int]


def _class_rules(n: int, residues: Sequence[int]) -> tuple[_Row, ...]:
    """
    Kunz's inequality W[a] + W[b] >= W[(a + b) mod n] for one congruence
    class, whose nonzero Apéry elements have the given residues in
    increasing order.  With i, j and l the positions of residues a, b and
    (a + b) mod n, and carry = (a + b) // n, the row (i, j, l, carry)
    states q[i] + q[j] + carry >= q[l] on the class's Apéry quotients q.

    >>> _class_rules(6, (4, 2, 3, 5, 1))
    ((1, 2, 3, 0), (1, 3, 4, 1), (2, 0, 4, 1), (0, 0, 1, 1))
    """
    position = {r: k for k, r in enumerate(residues)}
    rows = []
    for a, b in combinations_with_replacement(range(1, n), 2):
        carry, c = divmod(a + b, n)
        if c == 0:
            continue  # W[0] = 0, so the row always holds
        i, j, l = position[a], position[b], position[c]
        # q is nondecreasing and nonnegative, so l <= max(i, j) gives
        # q[l] <= q[max(i, j)] <= q[i] + q[j] and the row always holds
        if l > max(i, j):
            rows.append((i, j, l, carry))
    return tuple(rows)


def enumerate_vectors(
    modulus: int, bound: int, selection: str = "all"
) -> Iterator[tuple[int, ...]]:
    """
    Yield every vector in {1..bound}^(modulus-1) in lexicographic order,
    keeping those passing the selection: "all", "semigroups" (decoded set
    closed under addition) or "semigroups_with_multiplicity_n" (also
    requiring the least positive member to equal the modulus).

    The semigroup verdict depends on a vector only through its congruence
    class (entry i mod i), which fixes the conversion vector and the
    residues, and through its Apéry quotients.  So the filters run the
    t/q recurrence on each vector, derive Kunz's rows once per class
    (``_class_rules``, cached for the call by conversion vector) and test
    only those rows: about 1-3 µs a vector at moduli 3..8, with no
    validation, permutation or Apéry set built per vector.
    """
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    if bound < 1:
        raise ValueError("bound must be positive")
    if selection not in VECTOR_FILTERS:
        raise ValueError(f"unknown filter {selection!r}, expected one of {VECTOR_FILTERS}")
    grid = product(range(1, bound + 1), repeat=modulus - 1)
    if selection == "all":
        yield from grid
        return
    multiplicity_n = selection == "semigroups_with_multiplicity_n"
    rules_by_class: dict[tuple[int, ...], tuple[_Row, ...]] = {}
    for vector in grid:
        if multiplicity_n and vector[0] == 1:
            continue
        conversion, q = _recurrence(vector)
        key = tuple(conversion)
        rules = rules_by_class.get(key)
        if rules is None:
            rules = _class_rules(modulus, permutation_from_conversion(key))
            rules_by_class[key] = rules
        for i, j, l, carry in rules:
            if q[i] + q[j] + carry < q[l]:
                break
        else:
            yield vector
