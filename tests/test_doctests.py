import doctest

import posvec.numsets
import posvec.permutations
import posvec.vectors


def test_docstring_examples():
    for module in (posvec.numsets, posvec.permutations, posvec.vectors):
        result = doctest.testmod(module)
        assert result.attempted > 0
        assert result.failed == 0
