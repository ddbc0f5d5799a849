"""
Command-line interface: encode, decode, check, enumerate, verify and the
permutation codec, with deterministic text or JSON output.

Exit codes: 0 success, 1 invalid input, 2 verification failure,
3 overflow or guard exceeded.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Sequence

from . import oracle
from .errors import BoundExceededError
from .numsets import NumericalSet
from .permutations import conversion_vector, permutation_from_conversion
from .vectors import (
    VECTOR_FILTERS,
    apery_positions,
    class_profile,
    decode,
    encode,
    enumerate_vectors,
    is_semigroup_closed_form,
    is_semigroup_vector,
    multiplicity_is_modulus,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY = 2
EXIT_GUARD = 3

# decode materialises the sporadic members below the conductor
_DECODE_CONDUCTOR_GUARD = 10**7
# enumerate and the grid verify suites walk bound^(n-1) vectors
_GRID_GUARD = 10**6

_CSV = re.compile(r"[0-9]+(,[0-9]+)*$")


class _VerificationFailure(Exception):
    pass


def _parse_csv(text: str, what: str) -> list[int]:
    if not _CSV.match(text):
        raise ValueError(
            f"{what} must be comma-separated integers with no spaces, got {text!r}"
        )
    return [int(part) for part in text.split(",")]


def _csv(values) -> str:
    return ",".join(map(str, values))


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _guard_grid(n: int, bound: int) -> None:
    # the semigroup filters cost O(n^2) per tail even when bound = 1, so the
    # vector length is capped at every bound; with bound >= 2 that cap is
    # implied by the size test, and testing it first keeps a huge --n from
    # computing a huge power
    if n - 1 > _GRID_GUARD.bit_length():
        raise BoundExceededError(
            f"vector length {n - 1} exceeds {_GRID_GUARD.bit_length()}, "
            f"the longest a grid under guard {_GRID_GUARD} can have"
        )
    if bound > 1 and bound ** (n - 1) > _GRID_GUARD:
        raise BoundExceededError(
            f"grid of {bound}^{n - 1} vectors exceeds guard {_GRID_GUARD}"
        )


def _cmd_encode(args):
    generators = _parse_csv(args.gens, "--gens")
    n = args.n
    if n < 1:
        raise ValueError("--n must be a positive integer")
    numset = NumericalSet.from_generators(generators)
    if n not in numset:
        raise ValueError(f"n not in semigroup: {n} is not generated by {args.gens}")
    apery = numset.apery_set(n)
    vector = encode(apery)
    positions = apery_positions(vector)
    payload = {
        "command": "encode",
        "status": "ok",
        "generators": generators,
        "n": n,
        "position_vector": list(vector),
        "apery_set": list(apery.elements),
        "positions": list(positions),
    }
    lines = [
        f"position_vector: {_csv(vector)}",
        f"apery_set: {apery}",
        f"positions: {_csv(positions)}",
    ]
    return payload, lines, EXIT_OK


def _cmd_decode(args):
    vector = tuple(_parse_csv(args.vector, "vector"))
    apery = decode(vector)
    n = apery.modulus
    if apery.elements[-1] - n + 1 > _DECODE_CONDUCTOR_GUARD:
        raise BoundExceededError(
            f"decoded conductor exceeds guard {_DECODE_CONDUCTOR_GUARD}"
        )
    numset = apery.to_numerical_set()
    payload = {
        "command": "decode",
        "status": "ok",
        "position_vector": list(vector),
        "n": n,
        "apery_set": list(apery.elements),
        "numerical_set": str(numset),
    }
    lines = [f"n: {n}", f"apery_set: {apery}", f"numerical_set: {numset}"]
    if apery.generates_semigroup():
        summary = numset.summary()
        payload["is_semigroup"] = True
        payload["minimal_generators"] = list(summary.minimal_generators)
        payload["frobenius"] = summary.frobenius
        payload["genus"] = summary.genus
        payload["multiplicity_is_n"] = summary.multiplicity == n
        payload["witness"] = None
        lines += [
            "is_semigroup: true",
            f"minimal_generators: {_csv(summary.minimal_generators)}",
            f"frobenius: {summary.frobenius}",
            f"genus: {summary.genus}",
            f"multiplicity_is_n: {_bool(summary.multiplicity == n)}",
        ]
    else:
        witness = oracle.closure_violations(numset)[0]
        payload["is_semigroup"] = False
        payload["witness"] = list(witness)
        lines += ["is_semigroup: false", f"witness: {_csv(witness)}"]
    return payload, lines, EXIT_OK


def _cmd_check(args):
    vector = tuple(_parse_csv(args.vector, "vector"))
    n = len(vector) + 1
    general = is_semigroup_vector(vector)
    if n <= 5 and is_semigroup_closed_form(vector) != general:
        raise _VerificationFailure(
            f"internal disagreement between semigroup criteria on {_csv(vector)}"
        )
    profile = class_profile(vector)
    payload = {
        "command": "check",
        "status": "ok",
        "position_vector": list(vector),
        "n": n,
        "is_semigroup": general,
        "multiplicity_is_n": multiplicity_is_modulus(vector),
        "representative": list(profile.representative),
        "permutation": list(profile.permutation),
        "u": list(profile.entry_quotients),
        "gamma": list(profile.descent_flags),
    }
    lines = [f"n: {n}", f"is_semigroup: {_bool(general)}"]
    if n <= 5:
        lines.append(f"closed_form: {_bool(general)}")
    lines += [
        f"multiplicity_is_n: {_bool(multiplicity_is_modulus(vector))}",
        f"representative: {_csv(profile.representative)}",
        f"permutation: {_csv(profile.permutation)}",
        f"u: {_csv(profile.entry_quotients)}",
        f"gamma: {_csv(profile.descent_flags)}",
    ]
    return payload, lines, EXIT_OK


def _text_lines(vectors):
    count = 0
    for count, vector in enumerate(vectors, start=1):
        yield _csv(vector)
    yield f"count: {count}"


def _cmd_enumerate(args):
    _guard_grid(args.n, args.bound)
    # enumerate_vectors checks its arguments at the call, so a bad one
    # exits 1 before any output; text then streams line by line, while
    # json.dumps needs the whole list (it writes tuples as arrays)
    vectors = enumerate_vectors(args.n, args.bound, args.filter)
    if args.format == "text":
        return None, _text_lines(vectors), EXIT_OK
    vectors = list(vectors)
    payload = {
        "command": "enumerate",
        "status": "ok",
        "n": args.n,
        "bound": args.bound,
        "filter": args.filter,
        "vectors": vectors,
        "count": len(vectors),
    }
    return payload, None, EXIT_OK


def _cmd_verify(args):
    if args.suite != "apery-criterion":
        _guard_grid(min(args.n, 5) if args.suite == "tables" else args.n, args.bound)
    results = []
    if args.suite in ("bijection", "all"):
        results.append(oracle.bijection_suite(args.n, args.bound))
    if args.suite in ("apery-criterion", "all"):
        results.append(oracle.apery_criterion_suite(args.max_frobenius))
    if args.suite in ("vector-criterion", "all"):
        results.append(oracle.vector_criterion_suite(args.n, args.bound))
    if args.suite in ("tables", "all"):
        results.append(oracle.table_suite(min(args.n, 5), args.bound))
    payload = {
        "command": "verify",
        "status": "ok",
        "suite": args.suite,
        "suites": [
            {
                "name": r.name,
                "passed": r.passed,
                "checked": r.checked,
                "failure": r.failure,
            }
            for r in results
        ],
    }
    lines = []
    for r in results:
        if r.passed:
            lines.append(f"PASS {r.name}: {r.checked} cases checked")
        else:
            lines.append(f"FAIL {r.name}: after {r.checked} cases: {r.failure}")
    code = EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY
    return payload, lines, code


def _cmd_perm(args):
    if args.direction == "to-conversion":
        perm = tuple(_parse_csv(args.sequence, "permutation"))
        conversion = conversion_vector(perm)
        lines = [f"conversion_vector: {_csv(conversion)}"]
    else:
        conversion = tuple(_parse_csv(args.sequence, "conversion vector"))
        perm = permutation_from_conversion(conversion)
        lines = [f"permutation: {_csv(perm)}"]
    payload = {
        "command": "perm",
        "status": "ok",
        "permutation": list(perm),
        "conversion_vector": list(conversion),
    }
    return payload, lines, EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # default argparse exit code 2 is reserved here
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    shared = _Parser(add_help=False)
    shared.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )

    parser = _Parser(
        prog="posvec",
        description="Position-vector codec for numerical semigroups and numerical sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", parents=[shared], help="position vector of a semigroup")
    p.add_argument("--gens", required=True, help="comma-separated generators")
    p.add_argument("--n", required=True, type=int, help="modulus (must be in the semigroup)")
    p.set_defaults(handler=_cmd_encode)

    p = sub.add_parser("decode", parents=[shared], help="numerical set behind a vector")
    p.add_argument("vector", help="comma-separated positive integers")
    p.set_defaults(handler=_cmd_decode)

    p = sub.add_parser("check", parents=[shared], help="semigroup criteria on a vector")
    p.add_argument("vector", help="comma-separated positive integers")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("enumerate", parents=[shared], help="stream vectors on a grid")
    p.add_argument("--n", required=True, type=int, help="modulus (vector length + 1)")
    p.add_argument("--bound", required=True, type=int, help="entry bound")
    p.add_argument("--filter", choices=VECTOR_FILTERS, default="all")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("verify", parents=[shared], help="run oracle cross-check suites")
    p.add_argument(
        "suite",
        choices=("bijection", "apery-criterion", "vector-criterion", "tables", "all"),
    )
    p.add_argument("--n", type=int, default=4, help="modulus for grid suites")
    p.add_argument("--bound", type=int, default=10, help="entry bound for grid suites")
    p.add_argument(
        "--max-frobenius",
        type=int,
        default=8,
        help="largest gap for the apery-criterion suite",
    )
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("perm", parents=[shared], help="permutation/conversion codec")
    p.add_argument("direction", choices=("to-conversion", "from-conversion"))
    p.add_argument("sequence", help="comma-separated integers")
    p.set_defaults(handler=_cmd_perm)

    return parser


def _emit_error(command: str | None, message: str, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps({"command": command, "status": "error", "error_message": message}))
    else:
        print(f"error: {message}", file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except ValueError as exc:
        _emit_error(None, str(exc), "text")
        return EXIT_INPUT

    fmt = args.format
    command = args.command
    try:
        payload, lines, code = args.handler(args)
    except (OverflowError, BoundExceededError) as exc:
        _emit_error(command, str(exc), fmt)
        return EXIT_GUARD
    except _VerificationFailure as exc:
        _emit_error(command, str(exc), fmt)
        return EXIT_VERIFY
    except ValueError as exc:
        _emit_error(command, str(exc), fmt)
        return EXIT_INPUT

    if fmt == "json":
        print(json.dumps(payload))
    else:
        sys.stdout.writelines(f"{line}\n" for line in lines)
    return code


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
