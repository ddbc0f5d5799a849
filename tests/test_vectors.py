import random
from itertools import product

import pytest
from hypothesis import given, strategies as st

from posvec.numsets import AperySet, NumericalSet
from posvec.oracle import closure_violations
from posvec.permutations import conversion_vector
from posvec.vectors import (
    CLOSED_FORM_RULES_LEN3,
    CLOSED_FORM_RULES_LEN4,
    apery_positions,
    class_profile,
    congruent,
    decode,
    encode,
    enumerate_vectors,
    is_semigroup_closed_form,
    is_semigroup_vector,
    multiplicity_is_modulus,
    position_vector,
    vector_decomposition,
)


class TestCodec:
    def test_golden_encode(self):
        assert encode(AperySet(6, (0, 16, 20, 21, 29, 37))) == (3, 2, 1, 6, 7)
        assert encode(AperySet(4, (0, 7, 9, 14))) == (2, 2, 4)
        for n in range(1, 8):
            assert encode(AperySet(n, tuple(range(n)))) == (1,) * (n - 1)

    def test_golden_decode(self):
        assert decode((3, 2, 1, 6, 7)) == AperySet(6, (0, 16, 20, 21, 29, 37))
        assert decode((1, 1, 1, 1, 1)) == AperySet(6, (0, 1, 2, 3, 4, 5))
        assert decode((2,)) == AperySet(2, (0, 3))
        assert decode(()) == AperySet(1, (0,))

    def test_decode_internals(self):
        split = vector_decomposition((3, 2, 1, 6, 7))
        assert split.quotients == (2, 3, 3, 4, 6)
        assert split.residues == (4, 2, 3, 5, 1)
        assert conversion_vector(split.residues) == (0, 0, 1, 3, 0)

    def test_position_vector_of_semigroups(self):
        assert position_vector(NumericalSet.from_generators([4, 7, 9]), 4) == (2, 2, 4)
        assert position_vector(NumericalSet.from_generators([4, 6, 9]), 4) == (2, 2, 5)
        assert position_vector(NumericalSet.naturals(), 5) == (1, 1, 1, 1)
        with pytest.raises(ValueError):
            position_vector(NumericalSet.from_generators([4, 7, 9]), 5)

    def test_apery_positions(self):
        assert apery_positions((2, 2, 4)) == (0, 2, 4, 8)
        assert apery_positions(()) == (0,)

    def test_round_trip_grid(self):
        for n in (2, 3, 4):
            for vector in product(range(1, 6), repeat=n - 1):
                assert encode(decode(vector)) == vector

    def test_round_trip_random(self):
        rng = random.Random(11)
        for _ in range(500):
            n = rng.randint(2, 9)
            vector = tuple(rng.randint(1, 50) for _ in range(n - 1))
            assert encode(decode(vector)) == vector

    @given(
        st.integers(0, 200).flatmap(
            lambda m: st.tuples(*(st.integers(1, 3 * i) for i in range(1, m + 1)))
        )
    )
    def test_round_trip_property(self, vector):
        assert encode(decode(vector)) == vector

    def test_round_trip_long(self):
        rng = random.Random(17)
        vector = tuple(rng.randint(1, 3 * i) for i in range(1, 10**4 + 1))
        assert encode(decode(vector)) == vector

    def test_decode_injective_on_grid(self):
        for n, bound in ((3, 5), (4, 4)):
            vectors = list(product(range(1, bound + 1), repeat=n - 1))
            decoded = {decode(v) for v in vectors}
            assert len(decoded) == len(vectors)

    def test_set_round_trip(self):
        for gens in ([4, 7, 9], [2, 3], [6, 16, 20, 21, 29]):
            ns = NumericalSet.from_generators(gens)
            for n in range(1, 7):
                if not ns.is_closed_under(n):
                    continue
                vector = position_vector(ns, n)
                assert decode(vector).to_numerical_set() == ns

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            decode((2**63, 1))
        assert decode((2**61,)).elements == (0, 2**62 - 1)

    def test_validation(self):
        for bad in ((0,), (1, 0), (-2,), (1.5,), (True, 2), (2, True)):
            with pytest.raises(ValueError):
                decode(bad)


class TestClassProfile:
    def test_golden_profiles(self):
        profile = class_profile((3, 2, 1, 6, 7))
        assert profile.representative == (1, 2, 1, 2, 2)
        assert profile.permutation == (4, 2, 3, 5, 1)
        assert profile.descent_flags == (0, 1, 0, 0, 1)
        assert profile.entry_quotients == (2, 0, 0, 1, 1)

        ones = class_profile((1, 1, 1, 1))
        assert ones.representative == (1, 1, 1, 1)
        assert ones.permutation == (1, 2, 3, 4)
        assert ones.descent_flags == (0, 0, 0, 0)
        assert ones.entry_quotients == (0, 0, 0, 0)

        p224 = class_profile((2, 2, 4))
        assert p224.representative == (1, 2, 1)
        assert p224.entry_quotients == (1, 0, 1)

    def test_quotient_increments(self):
        # the decoded quotient sequence grows by exactly quotient + flag
        rng = random.Random(5)
        vectors = [tuple(rng.randint(1, 30) for _ in range(rng.randint(1, 8))) for _ in range(300)]
        vectors += list(product(range(1, 5), repeat=3))
        for vector in vectors:
            profile = class_profile(vector)
            quotients = vector_decomposition(vector).quotients
            assert quotients[0] == vector[0] - 1
            for i in range(1, len(vector)):
                assert (
                    quotients[i] - quotients[i - 1]
                    == profile.entry_quotients[i] + profile.descent_flags[i]
                )

    def test_representative_is_congruent_and_canonical(self):
        for vector in product(range(1, 7), repeat=3):
            rep = class_profile(vector).representative
            assert congruent(vector, rep)
            assert all(1 <= rep[i] <= i + 1 for i in range(3))


class TestCongruence:
    def test_known_pairs(self):
        assert congruent((3, 2, 1, 6, 7), (3, 4, 4, 2, 2))
        assert not congruent((1, 1), (1, 2))
        assert congruent((5, 3), (5, 3))
        with pytest.raises(ValueError):
            congruent((1, 2), (1, 2, 3))

    def test_congruence_matches_permutation(self):
        # grids with entry i ranging over 1..2i, lengths 1..4
        for m in range(1, 5):
            grid = list(product(*(range(1, 2 * i + 1) for i in range(1, m + 1))))
            profiles = {v: class_profile(v) for v in grid}
            for v in grid:
                for z in grid:
                    same_perm = profiles[v].permutation == profiles[z].permutation
                    assert congruent(v, z) == same_perm
                    if same_perm:
                        assert (
                            profiles[v].representative == profiles[z].representative
                        )


    @given(
        st.integers(0, 8).flatmap(
            lambda m: st.tuples(
                st.tuples(*(st.integers(1, 3 * i) for i in range(1, m + 1))),
                st.tuples(*(st.integers(0, 10) for _ in range(m))),
            )
        )
    )
    def test_shifted_vectors_share_class(self, drawn):
        # adding i*k_i to entry i keeps the class: the residues stay put
        v, shifts = drawn
        z = tuple(x + i * k for i, (x, k) in enumerate(zip(v, shifts), start=1))
        assert vector_decomposition(v).residues == vector_decomposition(z).residues
        pv, pz = class_profile(v), class_profile(z)
        assert pv.permutation == pz.permutation
        assert pv.descent_flags == pz.descent_flags

    @given(
        st.integers(1, 8).flatmap(
            lambda m: st.tuples(
                st.tuples(*(st.integers(1, 3 * i) for i in range(1, m + 1))),
                st.integers(0, 6),
            )
        )
    )
    def test_first_entry_shifts_quotients(self, drawn):
        # the lemma behind enumerate_vectors' tail thresholds: raising v_1
        # by k keeps the residues, raises every Apéry quotient by k and
        # keeps a semigroup a semigroup
        v, k = drawn
        z = (v[0] + k,) + v[1:]
        dv, dz = vector_decomposition(v), vector_decomposition(z)
        assert dz.residues == dv.residues
        assert dz.quotients == tuple(q + k for q in dv.quotients)
        if is_semigroup_vector(v):
            assert is_semigroup_vector(z)


class TestSemigroupCriteria:
    def test_golden_decisions(self):
        assert is_semigroup_vector((2, 2, 4))
        assert is_semigroup_vector((1, 1, 1, 1, 1))
        assert is_semigroup_vector(())
        assert not is_semigroup_vector((2, 6))
        assert is_semigroup_vector((2, 4))

    def test_closed_form_golden(self):
        assert is_semigroup_closed_form((2, 2, 4))
        assert is_semigroup_closed_form((2, 2, 5))
        assert is_semigroup_closed_form((2, 4))
        assert not is_semigroup_closed_form((2, 6))
        assert is_semigroup_closed_form(())
        assert is_semigroup_closed_form((7,))
        with pytest.raises(ValueError):
            is_semigroup_closed_form((1, 1, 1, 1, 1))

    def test_rule_tables_cover_every_representative(self):
        assert set(CLOSED_FORM_RULES_LEN3) == set(
            product((1,), (1, 2), (1, 2, 3))
        )
        assert set(CLOSED_FORM_RULES_LEN4) == set(
            product((1,), (1, 2), (1, 2, 3), (1, 2, 3, 4))
        )

    def test_closed_form_agrees_with_general(self):
        for m, bound in ((1, 30), (2, 15), (3, 8), (4, 6)):
            for vector in product(range(1, bound + 1), repeat=m):
                assert is_semigroup_closed_form(vector) == is_semigroup_vector(vector)

    def test_general_agrees_with_brute_force(self):
        for m, bound in ((1, 20), (2, 12), (3, 7), (4, 5)):
            for vector in product(range(1, bound + 1), repeat=m):
                actual = not closure_violations(decode(vector).to_numerical_set())
                assert is_semigroup_vector(vector) == actual, vector

    @given(st.lists(st.integers(1, 8), max_size=6).map(tuple))
    def test_vector_apery_and_oracle_agree(self, vector):
        apery = decode(vector)
        closed = not closure_violations(apery.to_numerical_set())
        assert is_semigroup_vector(vector) == apery.generates_semigroup() == closed

    def test_long_kunz_vector(self):
        # Kunz coordinates in [k, 2k - 1] always give a semigroup, so every
        # row of the test runs; lowering one coordinate to 0 breaks it
        rng = random.Random(23)
        n = 301
        k = rng.randint(2, 6)
        coords = [rng.randint(k, 2 * k - 1) for _ in range(n - 1)]
        elements = [0] + [n * q + r for r, q in enumerate(coords, start=1)]
        vector = encode(AperySet(n, tuple(sorted(elements))))
        assert len(vector) == 300
        assert is_semigroup_vector(vector) is True
        elements[1] = 1
        broken = encode(AperySet(n, tuple(sorted(elements))))
        assert is_semigroup_vector(broken) is False

    def test_elements_past_64_bits(self):
        # decode would refuse these elements; the criterion does not need to
        assert is_semigroup_vector((2**70, 1)) is True
        assert is_semigroup_vector((1, 2**70)) is False


class TestMultiplicityFlag:
    def test_known_values(self):
        assert multiplicity_is_modulus((3, 2, 1, 6, 7))
        assert not multiplicity_is_modulus((1, 1))
        assert multiplicity_is_modulus((2,))
        assert multiplicity_is_modulus(())

    def test_matches_decoded_multiplicity(self):
        for vector in product(range(1, 7), repeat=3):
            ns = decode(vector).to_numerical_set()
            assert multiplicity_is_modulus(vector) == (ns.multiplicity == 4)


class TestEnumeration:
    def test_full_grid(self):
        assert list(enumerate_vectors(3, 2)) == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_semigroup_filter_small(self):
        assert list(enumerate_vectors(3, 2, "semigroups")) == [
            (1, 1),
            (1, 2),
            (2, 1),
            (2, 2),
        ]
        # modulus 2 never restricts
        assert len(list(enumerate_vectors(2, 9, "semigroups"))) == 9

    def test_multiplicity_filter(self):
        got = list(enumerate_vectors(3, 4, "semigroups_with_multiplicity_n"))
        assert all(v[0] > 1 for v in got)
        expected = [
            v
            for v in enumerate_vectors(3, 4, "semigroups")
            if decode(v).to_numerical_set().multiplicity == 3
        ]
        assert got == expected

    # each grid holds at most 3600 vectors; from n = 9 on with bound 2
    # every tail is its own congruence class, and (3, 60) has many first
    # entries per tail
    @pytest.mark.parametrize(
        "n, bound",
        (
            (2, 40), (3, 20), (4, 9), (5, 6), (6, 4), (7, 3), (8, 3),
            (9, 2), (10, 2), (12, 2), (3, 60),
        ),
    )
    def test_filters_agree_with_plain_criterion(self, n, bound):
        grid = list(product(range(1, bound + 1), repeat=n - 1))
        semigroups = [v for v in grid if is_semigroup_vector(v)]
        if n <= 5:
            assert semigroups == [
                v for v in grid if not closure_violations(decode(v).to_numerical_set())
            ]
        assert list(enumerate_vectors(n, bound)) == grid
        assert list(enumerate_vectors(n, bound, "semigroups")) == semigroups
        assert list(enumerate_vectors(n, bound, "semigroups_with_multiplicity_n")) == [
            v for v in semigroups if v[0] > 1
        ]

    @pytest.mark.parametrize("n", range(2, 9))
    def test_bound_one(self, n):
        # the one vector of all ones decodes to the whole of N: a semigroup,
        # but with multiplicity 1, not n
        ones = [(1,) * (n - 1)]
        assert list(enumerate_vectors(n, 1)) == ones
        assert list(enumerate_vectors(n, 1, "semigroups")) == ones
        assert list(enumerate_vectors(n, 1, "semigroups_with_multiplicity_n")) == []

    def test_semigroup_count_n6_bound8(self):
        assert len(list(enumerate_vectors(6, 8, "semigroups"))) == 19985

    def test_lexicographic_order(self):
        vectors = list(enumerate_vectors(4, 3))
        assert vectors == sorted(vectors)
        assert len(vectors) == 27

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            list(enumerate_vectors(1, 3))
        with pytest.raises(ValueError):
            list(enumerate_vectors(3, 0))
        with pytest.raises(ValueError):
            list(enumerate_vectors(3, 3, "everything"))
