from itertools import permutations, product

import pytest
from hypothesis import given, strategies as st

from posvec.permutations import (
    conversion_vector,
    permutation_from_conversion,
    validate_conversion_vector,
    validate_permutation,
)


def conversion_by_definition(perm):
    # independent of the library: literal count of smaller earlier entries
    return tuple(
        len([j for j in range(i) if perm[j] < perm[i]]) for i in range(len(perm))
    )


def test_known_values():
    assert conversion_vector([4, 2, 3, 5, 1]) == (0, 0, 1, 3, 0)
    assert conversion_vector([1, 2, 3, 4]) == (0, 1, 2, 3)
    assert conversion_vector([5, 4, 3, 2, 1]) == (0, 0, 0, 0, 0)
    assert permutation_from_conversion((0, 0, 1, 3, 0)) == (4, 2, 3, 5, 1)
    assert permutation_from_conversion((0, 1, 2, 3)) == (1, 2, 3, 4)


def test_reconstruction_chain():
    # the permutation for each prefix of (0,0,1,3,0), shortest to longest
    chain = [(1,), (2, 1), (3, 1, 2), (3, 1, 2, 4), (4, 2, 3, 5, 1)]
    full = (0, 0, 1, 3, 0)
    for k, expected in enumerate(chain, start=1):
        assert permutation_from_conversion(full[:k]) == expected


def test_length_two_exhaustive():
    # both permutations of {1,2}
    assert permutation_from_conversion((0, 0)) == (2, 1)
    assert permutation_from_conversion((0, 1)) == (1, 2)


def test_empty():
    assert conversion_vector(()) == ()
    assert permutation_from_conversion(()) == ()


@pytest.mark.parametrize("m", range(7))
def test_round_trip_exhaustive(m):
    for perm in permutations(range(1, m + 1)):
        vec = conversion_vector(perm)
        assert vec == conversion_by_definition(perm)
        assert permutation_from_conversion(vec) == perm


@pytest.mark.parametrize("m", range(6))
def test_image_is_full_box(m):
    image = {conversion_vector(p) for p in permutations(range(1, m + 1))}
    box = set(product(*(range(i) for i in range(1, m + 1))))
    assert image == box


@pytest.mark.parametrize("m", range(1, 9))
def test_extreme_permutations(m):
    ascending = tuple(range(1, m + 1))
    descending = tuple(range(m, 0, -1))
    assert conversion_vector(ascending) == tuple(i - 1 for i in range(1, m + 1))
    assert conversion_vector(descending) == (0,) * m


@pytest.mark.parametrize(
    "bad",
    [
        [1, 1],
        [2, 3],
        [0, 1],
        [1, 2, 4],
        [1, -1],
        ["a", "b"],
        [1, "a"],
        [1.0, 2.0],
        [True],
        [2, True],
    ],
)
def test_invalid_permutations_rejected(bad):
    with pytest.raises(ValueError):
        conversion_vector(bad)
    with pytest.raises(ValueError):
        validate_permutation(bad)


@pytest.mark.parametrize(
    "bad",
    [(1,), (0, 2), (0, 0, 3), (0, -1), (0, 0.5), (False,), (False, True)],
)
def test_invalid_conversion_vectors_rejected(bad):
    with pytest.raises(ValueError):
        permutation_from_conversion(bad)
    with pytest.raises(ValueError):
        validate_conversion_vector(bad)


random_permutations = st.integers(0, 300).flatmap(
    lambda m: st.permutations(range(1, m + 1))
)
# entry i (0-based) reduced into 0..i, so every draw is a conversion vector
random_conversion_vectors = st.integers(0, 300).flatmap(
    lambda m: st.lists(st.integers(0, m), min_size=m, max_size=m)
).map(lambda xs: tuple(x % (i + 1) for i, x in enumerate(xs)))


@given(random_permutations)
def test_conversion_vector_matches_definition(perm):
    vec = conversion_vector(perm)
    assert vec == conversion_by_definition(perm)
    assert permutation_from_conversion(vec) == tuple(perm)


@given(random_conversion_vectors)
def test_permutation_from_conversion_inverts(vec):
    assert conversion_vector(permutation_from_conversion(vec)) == vec
