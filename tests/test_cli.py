import json

import pytest

from posvec import cli
from posvec.oracle import SuiteResult


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


class TestEncode:
    def test_golden_text(self, capsys):
        code, out, _ = run(capsys, "encode", "--gens", "6,16,20,21,29", "--n", "6")
        assert code == 0
        assert out.splitlines() == [
            "position_vector: 3,2,1,6,7",
            "apery_set: 6:{0,16,20,21,29,37}",
            "positions: 0,3,5,6,12,19",
        ]

    def test_golden_json(self, capsys):
        code, payload, _ = run_json(capsys, "encode", "--gens", "4,7,9", "--n", "4")
        assert code == 0
        assert payload == {
            "command": "encode",
            "status": "ok",
            "generators": [4, 7, 9],
            "n": 4,
            "position_vector": [2, 2, 4],
            "apery_set": [0, 7, 9, 14],
            "positions": [0, 2, 4, 8],
        }

    def test_trivial_generator(self, capsys):
        code, out, _ = run(capsys, "encode", "--gens", "1", "--n", "3")
        assert code == 0
        assert out.splitlines()[0] == "position_vector: 1,1"

    def test_n_not_in_semigroup(self, capsys):
        code, _, err = run(capsys, "encode", "--gens", "4,7,9", "--n", "5")
        assert code == 1
        assert "n not in semigroup" in err

    def test_not_cofinite(self, capsys):
        code, _, err = run(capsys, "encode", "--gens", "4,6", "--n", "4")
        assert code == 1
        assert "not cofinite" in err


class TestDecode:
    def test_semigroup_json(self, capsys):
        code, payload, _ = run_json(capsys, "decode", "3,2,1,6,7")
        assert code == 0
        assert payload == {
            "command": "decode",
            "status": "ok",
            "position_vector": [3, 2, 1, 6, 7],
            "n": 6,
            "apery_set": [0, 16, 20, 21, 29, 37],
            "numerical_set": "{0,6,12,16,18,20,21,22,24,26,27,28,29,30,32→}",
            "is_semigroup": True,
            "minimal_generators": [6, 16, 20, 21, 29],
            "frobenius": 31,
            "genus": 18,
            "multiplicity_is_n": True,
            "witness": None,
        }

    def test_full_set(self, capsys):
        code, payload, _ = run_json(capsys, "decode", "1,1,1")
        assert code == 0
        assert payload["minimal_generators"] == [1]
        assert payload["frobenius"] == -1
        assert payload["genus"] == 0
        assert payload["multiplicity_is_n"] is False

    def test_witness_text(self, capsys):
        code, out, _ = run(capsys, "decode", "2,6")
        assert code == 0
        assert out.splitlines() == [
            "n: 3",
            "apery_set: 3:{0,5,13}",
            "numerical_set: {0,3,5,6,8,9,11→}",
            "is_semigroup: false",
            "witness: 5,5",
        ]

    def test_overflow_exit_code(self, capsys):
        code, _, err = run(capsys, "decode", str(2**63) + ",1")
        assert code == 3
        assert "64-bit" in err

    def test_conductor_guard_exit_code(self, capsys):
        code, _, err = run(capsys, "decode", str(10**7 + 5))
        assert code == 3
        assert "guard" in err

    def test_json_error_envelope(self, capsys):
        code, payload, _ = run_json(capsys, "decode", str(2**63) + ",1")
        assert code == 3
        assert payload["status"] == "error"
        assert payload["command"] == "decode"
        assert "error_message" in payload


class TestCheck:
    def test_golden(self, capsys):
        code, payload, _ = run_json(capsys, "check", "2,2,4")
        assert code == 0
        assert payload == {
            "command": "check",
            "status": "ok",
            "position_vector": [2, 2, 4],
            "n": 4,
            "is_semigroup": True,
            "multiplicity_is_n": True,
            "representative": [1, 2, 1],
            "permutation": [3, 1, 2],
            "u": [1, 0, 1],
            "gamma": [0, 1, 0],
        }

    def test_multiplicity_flag(self, capsys):
        code, payload, _ = run_json(capsys, "check", "1,1")
        assert code == 0
        assert payload["is_semigroup"] is True
        assert payload["multiplicity_is_n"] is False

    def test_not_semigroup(self, capsys):
        code, out, _ = run(capsys, "check", "2,6")
        assert code == 0
        lines = out.splitlines()
        assert "is_semigroup: false" in lines
        assert "closed_form: false" in lines

    def test_large_modulus_skips_closed_form(self, capsys):
        code, out, _ = run(capsys, "check", "3,2,1,6,7")
        assert code == 0
        assert not any(line.startswith("closed_form") for line in out.splitlines())

    def test_internal_disagreement_is_verification_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "is_semigroup_closed_form", lambda v: False)
        code, _, err = run(capsys, "check", "2,2,4")
        assert code == 2
        assert "disagreement" in err


class TestEnumerate:
    def test_full_grid(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "3", "--bound", "2")
        assert code == 0
        assert out.splitlines() == ["1,1", "1,2", "2,1", "2,2", "count: 4"]

    def test_semigroups_modulus_two(self, capsys):
        code, payload, _ = run_json(
            capsys, "enumerate", "--n", "2", "--bound", "5", "--filter", "semigroups"
        )
        assert code == 0
        assert payload["count"] == 5
        assert payload["vectors"] == [[1], [2], [3], [4], [5]]

    def test_json_bytes(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "3", "--bound", "2", "--format", "json")
        assert code == 0
        assert out == (
            '{"command": "enumerate", "status": "ok", "n": 3, "bound": 2, '
            '"filter": "all", "vectors": [[1, 1], [1, 2], [2, 1], [2, 2]], "count": 4}\n'
        )

    def test_empty_result(self, capsys):
        argv = ("enumerate", "--n", "4", "--bound", "1")
        argv += ("--filter", "semigroups_with_multiplicity_n")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == "count: 0\n"
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert out == (
            '{"command": "enumerate", "status": "ok", "n": 4, "bound": 1, '
            '"filter": "semigroups_with_multiplicity_n", "vectors": [], "count": 0}\n'
        )

    def test_bad_filter(self, capsys):
        code, _, err = run(capsys, "enumerate", "--n", "3", "--bound", "2", "--filter", "x")
        assert code == 1

    def test_grid_guard_exit_code(self, capsys, monkeypatch):
        # fail fast instead of walking the grid if the guard is missing
        monkeypatch.setattr(cli, "enumerate_vectors", lambda *a: pytest.fail("grid walked"))
        for n in ("12", str(10**9)):
            code, _, err = run(capsys, "enumerate", "--n", n, "--bound", "10")
            assert code == 3
            assert "guard" in err

    def test_length_guard_at_bound_one(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "enumerate_vectors", lambda *a: pytest.fail("grid walked"))
        for n in ("23", "100000"):
            argv = ("enumerate", "--n", n, "--bound", "1", "--filter", "semigroups")
            code, _, err = run(capsys, *argv)
            assert code == 3
            assert "vector length" in err and "guard" in err

    def test_modulus_one_is_input_error(self, capsys):
        code, out, err = run(capsys, "enumerate", "--n", "1", "--bound", "3")
        assert code == 1
        assert out == ""
        assert "modulus" in err

    def test_bad_bound_is_input_error_before_output(self, capsys):
        code, out, err = run(capsys, "enumerate", "--n", "3", "--bound", "0")
        assert code == 1
        assert out == ""
        assert "bound" in err


class TestVerify:
    def test_single_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "bijection", "--n", "5", "--bound", "6")
        assert code == 0
        assert out == "PASS bijection: 1296 cases checked\n"

    def test_all(self, capsys):
        code, payload, _ = run_json(
            capsys, "verify", "all", "--n", "4", "--bound", "5", "--max-frobenius", "5"
        )
        assert code == 0
        names = [suite["name"] for suite in payload["suites"]]
        assert names == ["bijection", "apery-criterion", "vector-criterion", "tables"]
        assert all(suite["passed"] for suite in payload["suites"])

    def test_grid_guard_exit_code(self, capsys, monkeypatch):
        for name in ("bijection_suite", "vector_criterion_suite", "table_suite"):
            monkeypatch.setattr(cli.oracle, name, lambda *a: pytest.fail("grid walked"))
        for suite in ("bijection", "vector-criterion", "tables", "all"):
            # tables walks the modulus-5 grid: 100^4 vectors
            code, _, err = run(capsys, "verify", suite, "--n", "12", "--bound", "100")
            assert code == 3
            assert "guard" in err

    def test_apery_criterion_ignores_grid(self, capsys):
        code, out, _ = run(
            capsys, "verify", "apery-criterion", "--n", "12", "--bound", "10",
            "--max-frobenius", "3",
        )
        assert code == 0
        assert out.startswith("PASS apery-criterion")

    def test_failure_exit_code(self, capsys, monkeypatch):
        broken = SuiteResult("tables", False, 7, "synthetic failure")
        monkeypatch.setattr(cli.oracle, "table_suite", lambda n, bound: broken)
        code, out, _ = run(capsys, "verify", "tables")
        assert code == 2
        assert out.startswith("FAIL tables: after 7 cases: synthetic failure")


class TestPerm:
    def test_to_conversion(self, capsys):
        code, out, _ = run(capsys, "perm", "to-conversion", "4,2,3,5,1")
        assert code == 0
        assert out == "conversion_vector: 0,0,1,3,0\n"

    def test_from_conversion(self, capsys):
        code, payload, _ = run_json(capsys, "perm", "from-conversion", "0,0,1,3,0")
        assert code == 0
        assert payload["permutation"] == [4, 2, 3, 5, 1]
        assert payload["conversion_vector"] == [0, 0, 1, 3, 0]

    def test_invalid_permutation(self, capsys):
        code, _, err = run(capsys, "perm", "to-conversion", "1,1")
        assert code == 1


class TestParsingAndDeterminism:
    @pytest.mark.parametrize("text", ["1, 2", "a", "1,,2", "-1,2", "", "1;2"])
    def test_malformed_vectors(self, capsys, text):
        code, _, err = run(capsys, "decode", text)
        assert code == 1

    def test_zero_entry_rejected(self, capsys):
        code, _, err = run(capsys, "decode", "0,2")
        assert code == 1

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_byte_identical_reruns(self, capsys, fmt):
        argv = ["decode", "3,2,1,6,7", "--format", fmt]
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second
