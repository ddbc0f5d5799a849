from itertools import product

import pytest

from posvec.errors import BoundExceededError
from posvec.numsets import AperyDecomposition, AperySet, NumericalSet


def members_by_combination(generators, limit):
    """All sums of nonneg multiples of the generators, up to limit.

    Literal translation of the defining property, independent of the
    closure sieve in from_generators.
    """
    found = {0}
    for coefficients in product(*(range(limit // g + 1) for g in generators)):
        total = sum(c * g for c, g in zip(coefficients, generators))
        if total <= limit:
            found.add(total)
    return found


def assert_same_set(numset, expected_members, limit):
    for x in range(limit + 1):
        assert (x in numset) == (x in expected_members), f"mismatch at {x}"


class TestConstruction:
    def test_naturals(self):
        full = NumericalSet.naturals()
        assert full.conductor == 0
        assert full.sporadic == ()
        assert 0 in full and 1 in full and 10**9 in full

    def test_invariant_violations(self):
        with pytest.raises(ValueError):
            NumericalSet(-1, ())
        with pytest.raises(ValueError):
            NumericalSet(0, (0,))
        with pytest.raises(ValueError):
            NumericalSet(5, (1, 2))  # 0 missing
        with pytest.raises(ValueError):
            NumericalSet(5, (0, 2, 2))  # duplicate
        with pytest.raises(ValueError):
            NumericalSet(5, (0, 6))  # beyond conductor
        with pytest.raises(ValueError):
            NumericalSet(5, (0, 4))  # conductor not minimal

    def test_from_gaps(self):
        assert NumericalSet.from_gaps(set()) == NumericalSet.naturals()
        ns = NumericalSet.from_gaps({1, 2, 3, 5, 6, 10})
        assert ns.conductor == 11
        assert ns.sporadic == (0, 4, 7, 8, 9)
        assert NumericalSet.from_gaps({1}) == NumericalSet(2, (0,))
        with pytest.raises(ValueError):
            NumericalSet.from_gaps({0, 2})
        with pytest.raises(ValueError):
            NumericalSet.from_gaps({-1})

    def test_from_generators_against_combinations(self):
        for gens in ([4, 7, 9], [4, 6, 9], [2, 3], [3, 5], [6, 16, 20, 21, 29], [1]):
            ns = NumericalSet.from_generators(gens)
            limit = ns.conductor + 2 * max(gens)
            assert_same_set(ns, members_by_combination(gens, limit), limit)

    def test_from_generators_frobenius(self):
        assert NumericalSet.from_generators([4, 7, 9]).frobenius == 10
        assert NumericalSet.from_generators([1]) == NumericalSet.naturals()
        assert NumericalSet.from_generators([2, 3]).frobenius == 1

    def test_from_generators_rejects(self):
        with pytest.raises(ValueError, match="not cofinite"):
            NumericalSet.from_generators([4, 6])
        with pytest.raises(ValueError):
            NumericalSet.from_generators([])
        with pytest.raises(ValueError):
            NumericalSet.from_generators([0, 3])
        with pytest.raises(BoundExceededError):
            NumericalSet.from_generators([2, 2**27 + 1])

    def test_gap_view(self):
        ns = NumericalSet.from_generators([4, 7, 9])
        assert ns.gaps() == (1, 2, 3, 5, 6, 10)
        assert ns.genus == 6
        assert NumericalSet.naturals().gaps() == ()


class TestMembershipAndClosure:
    def test_contains(self):
        s = NumericalSet.from_generators([4, 7, 9])
        assert 10 not in s
        assert 11 in s
        assert 0 in NumericalSet.naturals()
        assert -1 not in s and -1 not in NumericalSet.naturals()

    def test_is_closed_under(self):
        s = NumericalSet.from_generators([4, 7, 9])
        assert s.is_closed_under(4)
        assert s.is_closed_under(7)
        assert not s.is_closed_under(5)  # 0 + 5 = 5 is a gap
        # closed under anything at or beyond the conductor
        for ns in (s, NumericalSet.from_gaps({1, 4}), NumericalSet.naturals()):
            for offset in range(3):
                assert ns.is_closed_under(max(ns.conductor, 1) + offset)
        with pytest.raises(ValueError):
            s.is_closed_under(0)

    def test_closed_under_one_only_for_full_set(self):
        # {0,2,3,...} is not closed under +1 (0 + 1 = 1 is missing)
        assert not NumericalSet.from_gaps({1}).is_closed_under(1)
        assert NumericalSet.from_gaps({1}).is_closed_under(2)
        assert NumericalSet.naturals().is_closed_under(1)

    def test_is_semigroup(self):
        assert NumericalSet.from_generators([4, 7, 9]).is_semigroup()
        assert NumericalSet.naturals().is_semigroup()
        assert NumericalSet(11, (0, 3, 5, 6, 8, 9)).is_semigroup() is False  # 5+5=10 missing
        assert NumericalSet(7, (0,)).is_semigroup()  # {0} plus the tail from 7


class TestAperySets:
    def test_known_apery_sets(self):
        s = NumericalSet.from_generators([4, 7, 9])
        assert s.apery_set(4) == AperySet(4, (0, 7, 9, 14))
        t = NumericalSet.from_generators([6, 16, 20, 21, 29])
        assert t.apery_set(6) == AperySet(6, (0, 16, 20, 21, 29, 37))
        for n in range(1, 6):
            assert NumericalSet.naturals().apery_set(n).elements == tuple(range(n))

    def test_apery_requires_closure(self):
        with pytest.raises(ValueError):
            NumericalSet.from_generators([4, 7, 9]).apery_set(5)

    def test_apery_set_validation(self):
        with pytest.raises(ValueError):
            AperySet(3, (0, 1))  # wrong length
        with pytest.raises(ValueError):
            AperySet(3, (1, 2, 3))  # 0 missing
        with pytest.raises(ValueError):
            AperySet(3, (0, 2, 5))  # residue class 1 missing
        with pytest.raises(ValueError):
            AperySet(3, (0, 5, 4))  # not increasing
        with pytest.raises(ValueError):
            AperySet(2, (0, 1.0))  # not an int
        with pytest.raises(ValueError):
            AperySet(3, (0, True, 2))  # bool is not a plain int
        with pytest.raises(ValueError):
            AperySet(2.0, (0, 1))  # modulus not an int
        AperySet(1, (0,))

    def test_to_numerical_set(self):
        assert AperySet(6, (0, 16, 20, 21, 29, 37)).to_numerical_set() == (
            NumericalSet.from_generators([6, 16, 20, 21, 29])
        )
        assert AperySet(4, (0, 1, 2, 3)).to_numerical_set() == NumericalSet.naturals()
        # direct union of three arithmetic progressions mod 3
        expected = sorted(
            {w + 3 * k for w in (0, 5, 13) for k in range(20)}
        )
        ns = AperySet(3, (0, 5, 13)).to_numerical_set()
        for x in range(40):
            assert (x in ns) == (x in expected)
        assert ns == NumericalSet(11, (0, 3, 5, 6, 8, 9))

    def test_apery_roundtrip_small_exhaustive(self):
        # every numerical set with largest gap <= 6, every modulus <= 5
        from posvec.oracle import enumerate_numerical_sets

        for ns in enumerate_numerical_sets(6):
            for n in range(1, 6):
                if not ns.is_closed_under(n):
                    continue
                apery = ns.apery_set(n)
                assert apery.to_numerical_set() == ns
                assert ns.apery_set(n) == apery

    def test_apery_identity_on_arbitrary_residue_systems(self):
        # any complete residue system containing 0 is the Apéry set of
        # the numerical set it generates
        from itertools import permutations

        for n in (2, 3, 4):
            for quotients in product(range(4), repeat=n - 1):
                for residues in permutations(range(1, n)):
                    elements = [0] + sorted(
                        n * q + r for q, r in zip(quotients, residues)
                    )
                    apery = AperySet(n, tuple(elements))
                    assert apery.to_numerical_set().apery_set(n) == apery

    def test_decompose(self):
        split = AperySet(6, (0, 16, 20, 21, 29, 37)).decompose()
        assert split.quotients == (2, 3, 3, 4, 6)
        assert split.residues == (4, 2, 3, 5, 1)
        assert split.to_apery_set() == AperySet(6, (0, 16, 20, 21, 29, 37))

    def test_decomposition_validation(self):
        with pytest.raises(ValueError):
            AperyDecomposition(3, (1,), (1, 2))  # length mismatch
        with pytest.raises(ValueError):
            AperyDecomposition(3, (1, 1), (1, 1))  # residues not a permutation
        with pytest.raises(ValueError):
            AperyDecomposition(3, (2, 1), (1, 2))  # elements not increasing
        with pytest.raises(ValueError):
            AperyDecomposition(3, (-1, 0), (2, 1))

    def test_decomposition_overflow(self):
        big = AperyDecomposition(2, (2**62,), (1,))
        with pytest.raises(OverflowError):
            big.to_apery_set()
        fits = AperyDecomposition(2, (2**61,), (1,))
        assert fits.to_apery_set().elements[-1] == 2**62 + 1

    def test_generates_semigroup(self):
        assert AperySet(4, (0, 7, 9, 14)).generates_semigroup()
        assert AperySet(5, (0, 1, 2, 3, 4)).generates_semigroup()
        # 5 + 5 = 10 agrees with 13 mod 3 but falls short of it
        assert not AperySet(3, (0, 5, 13)).generates_semigroup()


class TestSummary:
    def test_known_summaries(self):
        s = NumericalSet.from_generators([4, 7, 9]).summary()
        assert s.minimal_generators == (4, 7, 9)
        assert s.multiplicity == 4
        assert s.embedding_dimension == 3
        assert s.frobenius == 10
        assert s.genus == 6

        t = NumericalSet.from_generators([6, 16, 20, 21, 29]).summary()
        assert t.minimal_generators == (6, 16, 20, 21, 29)
        assert t.multiplicity == 6

        full = NumericalSet.naturals().summary()
        assert full.minimal_generators == (1,)
        assert full.frobenius == -1
        assert full.genus == 0
        assert full.multiplicity == 1

    def test_summary_requires_semigroup(self):
        with pytest.raises(ValueError):
            NumericalSet(11, (0, 3, 5, 6, 8, 9)).summary()

    def test_minimal_generators_regenerate(self):
        from posvec.oracle import enumerate_numerical_sets

        for ns in enumerate_numerical_sets(7, semigroups_only=True):
            summary = ns.summary()
            assert NumericalSet.from_generators(summary.minimal_generators) == ns
            assert summary.multiplicity == ns.multiplicity
            assert summary.embedding_dimension == len(summary.minimal_generators)
            if ns != NumericalSet.naturals():
                assert 2 <= summary.embedding_dimension <= summary.multiplicity

    def test_multiplicity(self):
        assert NumericalSet.from_generators([4, 7, 9]).multiplicity == 4
        assert NumericalSet(7, (0,)).multiplicity == 7
        assert NumericalSet.naturals().multiplicity == 1


def test_text_forms():
    assert str(NumericalSet.from_generators([4, 7, 9])) == "{0,4,7,8,9,11→}"
    assert str(NumericalSet.naturals()) == "{0→}"
    assert str(AperySet(4, (0, 7, 9, 14))) == "4:{0,7,9,14}"
