"""
The three workloads: seeded input generation, the call under test, a
traced variant of that call, and a check of its output.

Each workload is a closed loop with one client: a call into posvec
starts only after the previous one returns.  Inputs come in cycles.
Every cycle holds the same mix of op kinds over the same ladder of
sizes (log-spaced, i.e. the quantiles of a log-uniform draw) with
seeded contents and a seeded order.  Cost grows with size faster than
linearly, so a few large ops dominate a run; fixing the ladder and
stopping only at cycle boundaries keeps runs on different seeds doing
the same amount of work.

Checks run outside the timed region and compare against ``reference``,
which does not use posvec.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
from dataclasses import dataclass, field
from itertools import product
from typing import Callable

from posvec import cli, oracle
from posvec.numsets import NumericalSet
from posvec.permutations import conversion_vector, permutation_from_conversion
from posvec.vectors import (
    class_profile,
    decode,
    encode,
    enumerate_vectors,
    is_semigroup_closed_form,
    is_semigroup_vector,
    vector_decomposition,
)

import reference
from tracer import Tracer


@dataclass(frozen=True)
class Op:
    kind: str
    data: tuple
    units: int = 1  # work units counted by ops_per_s
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    # Nominal-rank tail percentile: 15 to 30 of the ops a 30 s run
    # completes at the seed commit lie beyond it.  Kept fixed so a faster
    # program is not judged at a more extreme percentile.
    tail_percentile: float
    make_cycle: Callable[[random.Random, float], list[Op]]
    run: Callable[[Op], object]
    traced: Callable[[Tracer, Op], object]
    check: Callable[[Op, object], bool]


def ladder(lo: int, hi: int, steps: int) -> list[int]:
    """steps sizes log-spaced from lo to hi inclusive."""
    return [round(lo * (hi / lo) ** (i / (steps - 1))) for i in range(steps)]


def random_vector(rng: random.Random, m: int, spread: int = 2) -> tuple[int, ...]:
    """Entry i uniform in 1..spread*i."""
    return tuple(rng.randint(1, spread * i) for i in range(1, m + 1))


def kunz_vector(rng: random.Random, m: int, base: int) -> tuple[int, ...]:
    """
    Vector of the set with Kunz coordinates k_r in [base, 2*base].  Any
    two sum to at least the largest, so the set is always a semigroup.
    """
    kunz = [rng.randint(base, 2 * base) for _ in range(m)]
    return reference.position_vector(reference.apery_from_kunz(kunz))


def random_apery(rng: random.Random, m: int, top: int) -> list[int]:
    """Apéry set with Kunz coordinates uniform in 0..top: rarely a semigroup."""
    return reference.apery_from_kunz([rng.randint(0, top) for _ in range(m)])


def _each(fn, items):
    return [fn(x) for x in items]


def _trace_profile(tr: Tracer, vectors: list, parent: int) -> None:
    """class_profile -> vector_decomposition -> permutation_from_conversion."""
    count = len(vectors)
    _, cp = tr.call(
        "vectors.class_profile", _each, class_profile, vectors, parent=parent, calls=count
    )
    splits, vd = tr.call(
        "vectors.vector_decomposition", _each, vector_decomposition, vectors, parent=cp, calls=count
    )
    conversions = [reference.smaller_before(s.residues) for s in splits]
    tr.call(
        "permutations.permutation_from_conversion",
        _each,
        permutation_from_conversion,
        conversions,
        parent=vd,
        calls=count,
    )
    tr.add("permutations.permutation_from_conversion.entries", sum(map(len, conversions)))


def _trace_criterion(tr: Tracer, vectors: list, parent: int | None = None) -> list[bool]:
    """is_semigroup_vector over a batch of vectors, with its inner calls."""
    verdicts, span = tr.call(
        "vectors.is_semigroup_vector",
        _each,
        is_semigroup_vector,
        vectors,
        parent=parent,
        calls=len(vectors),
    )
    _trace_profile(tr, vectors, span)
    pairs = sum(len(v) * (len(v) + 1) // 2 for v in vectors)
    tr.add("vectors.is_semigroup_vector.pairs_max", pairs)
    tr.add("vectors.is_semigroup_vector.true", sum(verdicts))
    return verdicts


# --- long-vectors ---------------------------------------------------------

LONG_STEPS = 16  # sizes per op kind per cycle


def _long_cycle(rng: random.Random, scale: float) -> list[Op]:
    top = max(12, round(3000 * scale))
    kunz_top = max(12, round(1000 * scale))
    ops = []
    for m in ladder(10, top, LONG_STEPS):
        ops.append(Op("roundtrip", random_vector(rng, m)))
        # built from its Apéry set, so the check needs no decode
        apery = random_apery(rng, m, 2 * m)
        verdict = {"semigroup": reference.is_semigroup(apery)}
        ops.append(Op("random", reference.position_vector(apery), expect=verdict))
    for m in ladder(10, kunz_top, LONG_STEPS):
        ops.append(Op("kunz", kunz_vector(rng, m, rng.randint(1, 8))))
    rng.shuffle(ops)
    return ops


def _long_run(op: Op):
    if op.kind == "roundtrip":
        apery = decode(op.data)
        return apery.elements, encode(apery)
    return is_semigroup_vector(op.data)


def _long_traced(tr: Tracer, op: Op):
    v = op.data
    if op.kind != "roundtrip":
        return _trace_criterion(tr, [v])[0]
    split, vd = tr.call("vectors.vector_decomposition", vector_decomposition, v)
    apery, _ = tr.call("numsets.AperyDecomposition.to_apery_set", split.to_apery_set)
    back, enc = tr.call("vectors.encode", encode, apery)
    conversion, _ = tr.call(
        "permutations.conversion_vector", conversion_vector, split.residues, parent=enc
    )
    tr.call(
        "permutations.permutation_from_conversion",
        permutation_from_conversion,
        conversion,
        parent=vd,
    )
    tr.add("permutations.conversion_vector.entries", len(v))
    tr.add("permutations.permutation_from_conversion.entries", len(v))
    return apery.elements, back


def _long_check(op: Op, out) -> bool:
    v = op.data
    if op.kind == "roundtrip":
        elements, back = out
        return back == v and reference.position_vector(elements) == v
    if op.kind == "kunz":
        return out is True
    return out == op.expect["semigroup"]


def long_vectors() -> Workload:
    return Workload("long-vectors", 97.0, _long_cycle, _long_run, _long_traced, _long_check)


# --- grid-scan ------------------------------------------------------------

# A fifth of the grids skip the criterion entirely.
GRID_FILTERS = (
    "all",
    "semigroups",
    "semigroups",
    "semigroups_with_multiplicity_n",
    "semigroups_with_multiplicity_n",
)


class GridOracle:
    """Expected grid contents, from decode checked by the reference codec
    and the reference pairwise Apéry test; cached per (n, bound)."""

    def __init__(self) -> None:
        self._flags: dict[tuple[int, int], list[tuple[tuple[int, ...], bool]] | None] = {}

    def expected(self, n: int, bound: int, selection: str):
        key = (n, bound)
        if key not in self._flags:
            flags = []
            for v in product(range(1, bound + 1), repeat=n - 1):
                elements = decode(v).elements
                if reference.position_vector(elements) != v:
                    flags = None
                    break
                flags.append((v, reference.is_semigroup(elements)))
            self._flags[key] = flags
        flags = self._flags[key]
        if flags is None:
            return None
        return [
            v
            for v, semigroup in flags
            if selection == "all"
            or (semigroup and (selection == "semigroups" or v[0] > 1))
        ]


def grid_bound(n: int, size: int, least: int) -> int:
    """Entry bound whose grid is nearest ``size`` vectors, but holds at least ``least``."""
    bound = max(2, round(size ** (1 / (n - 1))))
    while bound ** (n - 1) < least:
        bound += 1
    return bound


def _grid_cycle(rng: random.Random, scale: float) -> list[Op]:
    sizes = ladder(max(4, round(500 * scale)), max(8, round(5000 * scale)), len(GRID_FILTERS))
    ops = []
    shift = rng.randrange(len(sizes))
    for n in range(3, 9):
        # rotate the sizes across the filters so every filter gets every size
        # in each cycle, which keeps the work of one cycle like the next
        k = (n + shift) % len(sizes)
        for size, selection in zip(sizes[k:] + sizes[:k], GRID_FILTERS):
            bound = grid_bound(n, size, sizes[0])
            ops.append(Op("grid", (n, bound, selection), units=bound ** (n - 1)))
    rng.shuffle(ops)
    return ops


def _grid_run(op: Op):
    return list(enumerate_vectors(*op.data))


def _trace_grid(tr: Tracer, n: int, bound: int, selection: str, parent: int | None = None):
    kept, span = tr.call(
        "vectors.enumerate_vectors",
        lambda: list(enumerate_vectors(n, bound, selection)),
        parent=parent,
    )
    tr.add("vectors.enumerate_vectors.scanned", bound ** (n - 1))
    tr.add("vectors.enumerate_vectors.kept", len(kept))
    if selection != "all":
        _trace_criterion(tr, list(product(range(1, bound + 1), repeat=n - 1)), span)
    return kept


def grid_scan() -> Workload:
    grids = GridOracle()

    def check(op: Op, out) -> bool:
        return out == grids.expected(*op.data)

    return Workload(
        "grid-scan", 98.0, _grid_cycle, _grid_run, lambda tr, op: _trace_grid(tr, *op.data), check
    )


# --- cli-mix --------------------------------------------------------------

DECODE_STEPS = 11  # conductors per cycle, for semigroups and for non-semigroups
ENCODE_STEPS = 6
CHECKS_PER_CYCLE = 6
ENUMERATES_PER_CYCLE = 4
ENUMERATE_CAP = 500  # vectors per enumerate grid
DECODE_GUARD = 10**7  # the CLI's decoded-conductor guard

MALFORMED = (
    ("decode", "1,,2"),
    ("decode", "0,3"),
    ("check", "2,x"),
    ("encode", "--gens", "4,6", "--n", "4"),
    ("enumerate", "--n", "1", "--bound", "3"),
)

EXIT_OK, EXIT_INPUT, EXIT_GUARD = 0, 1, 3


def _csv(values) -> str:
    return ",".join(map(str, values))


def _cli_op(rng: random.Random, kind: str, argv: tuple, code: int = EXIT_OK, **expect) -> Op:
    fmt = rng.choice(("text", "json"))
    return Op(kind, argv + ("--format", fmt), expect={"code": code, "format": fmt, **expect})


# Decode cost is quadratic in the members below the conductor, plus one
# list append per closure violation (which also sets peak memory).  Both
# are held to a band, so an op's cost follows its conductor and not the
# luck of its draw: members/conductor near MEMBER_SHARE, and for
# non-semigroups violations/pairs near VIOLATION_SHARE.
MEMBER_SHARE = {True: (0.36, 0.005), False: (0.50, 0.005)}
VIOLATION_SHARE = (0.03, 0.002)
DECODE_DRAWS = 5000


def _decode_score(apery: list[int], conductor: int, semigroup: bool) -> float:
    """0 at the band centres; at most 1 inside both bands."""
    members = reference.members_below_conductor(apery)
    centre, width = MEMBER_SHARE[semigroup]
    score = abs(members / conductor - centre) / width
    if not semigroup:
        pairs = members * (members + 1) / 2
        centre, width = VIOLATION_SHARE
        score = max(score, abs(reference.closure_violation_count(apery) / pairs - centre) / width)
    return score


def _decode_apery(rng: random.Random, conductor: int, semigroup: bool) -> list[int]:
    """
    Apéry set with conductor near the target and the requested semigroup
    verdict (modulus 2 always gives a semigroup): the first draw inside
    the cost bands, or the closest of DECODE_DRAWS draws at small sizes
    where the bands hold no integer point.
    """
    best, best_score = None, math.inf
    for _ in range(DECODE_DRAWS):
        m = rng.randint(1 if semigroup else 2, 6)
        n = m + 1
        top_residue = rng.randint(1, m)
        top = max(1, (conductor + n - 1 - top_residue) // n)
        low = (top + 1) // 2 if semigroup else 0
        kunz = [rng.randint(low, top) for _ in range(m)]
        kunz[top_residue - 1] = top
        apery = reference.apery_from_kunz(kunz)
        if reference.is_semigroup(apery) != semigroup:
            continue
        score = _decode_score(apery, conductor, semigroup)
        if score <= 1:
            return apery
        if score < best_score:
            best, best_score = apery, score
    if best is None:
        raise RuntimeError(f"no {'semigroup' if semigroup else 'non-semigroup'} near {conductor}")
    return best


def _decode_op(
    rng: random.Random, apery: list[int], kind: str = "decode", code: int = EXIT_OK
) -> Op:
    vector = reference.position_vector(apery)
    return _cli_op(rng, kind, ("decode", _csv(vector)), code, vector=vector, apery=tuple(apery))


def _encode_op(rng: random.Random, table: int) -> Op:
    """Generators whose closure table min*max is about ``table`` bytes."""
    smallest = round(math.exp(rng.uniform(math.log(2), math.log(max(2, math.isqrt(table))))))
    largest = max(smallest + 1, table // smallest)
    while math.gcd(smallest, largest) != 1:
        largest += 1
    extra = rng.sample(range(smallest + 1, largest), min(rng.randint(0, 2), largest - smallest - 1))
    gens = tuple(sorted({smallest, largest, *extra}))
    n = smallest * rng.choice((1, 2))
    return _cli_op(rng, "encode", ("encode", "--gens", _csv(gens), "--n", str(n)), gens=gens, n=n)


def _check_op(rng: random.Random, index: int) -> Op:
    m = rng.randint(1, 8)
    if index % 2:
        vector = kunz_vector(rng, m, rng.randint(1, 20))
    else:
        vector = random_vector(rng, m, spread=3)
    return _cli_op(rng, "check", ("check", _csv(vector)), vector=vector)


def _enumerate_op(rng: random.Random) -> Op:
    n = rng.randint(3, 6)
    bound = rng.randint(2, math.floor(ENUMERATE_CAP ** (1 / (n - 1)) + 1e-9))
    selection = rng.choice(GRID_FILTERS)
    argv = ("enumerate", "--n", str(n), "--bound", str(bound), "--filter", selection)
    return _cli_op(rng, "enumerate", argv, grid=(n, bound, selection))


def _guard_apery(rng: random.Random) -> list[int]:
    m = rng.randint(1, 6)
    top = 2 * DECODE_GUARD // (m + 1) + rng.randint(0, 1000)
    kunz = [rng.randint((top + 1) // 2, top) for _ in range(m)]
    kunz[rng.randrange(m)] = top
    return reference.apery_from_kunz(kunz)


def _cli_cycle(rng: random.Random, scale: float) -> list[Op]:
    ops = []
    for conductor in ladder(10, max(20, round(10**4 * scale)), DECODE_STEPS):
        for semigroup in (True, False):
            ops.append(_decode_op(rng, _decode_apery(rng, conductor, semigroup)))
    for table in ladder(10, max(20, round(10**5 * scale)), ENCODE_STEPS):
        ops.append(_encode_op(rng, table))
    ops += [_check_op(rng, i) for i in range(CHECKS_PER_CYCLE)]
    ops += [_enumerate_op(rng) for _ in range(ENUMERATES_PER_CYCLE)]
    ops.append(_decode_op(rng, _guard_apery(rng), "guard", EXIT_GUARD))
    ops.append(_cli_op(rng, "malformed", rng.choice(MALFORMED), EXIT_INPUT))
    rng.shuffle(ops)
    return ops


def run_cli(argv) -> tuple[int, str]:
    """posvec.cli.main in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _cli_run(op: Op):
    return run_cli(op.data)


def _trace_decode(tr: Tracer, vector, parent: int, guarded: bool) -> None:
    split, vd = tr.call("vectors.vector_decomposition", vector_decomposition, vector, parent=parent)
    tr.call(
        "permutations.permutation_from_conversion",
        permutation_from_conversion,
        reference.smaller_before(split.residues),
        parent=vd,
    )
    tr.add("permutations.permutation_from_conversion.entries", len(vector))
    apery, _ = tr.call("numsets.AperyDecomposition.to_apery_set", split.to_apery_set, parent=parent)
    if guarded:
        return
    numset, _ = tr.call("numsets.AperySet.to_numerical_set", apery.to_numerical_set, parent=parent)
    positive = len(numset.sporadic) - 1
    tr.add("numsets.AperySet.to_numerical_set.members", len(numset.sporadic))
    semigroup, _ = tr.call("numsets.NumericalSet.is_semigroup", numset.is_semigroup, parent=parent)
    tr.add("numsets.NumericalSet.is_semigroup.pairs_max", positive * (positive + 1) // 2)
    if semigroup:
        _, summary = tr.call("numsets.NumericalSet.summary", numset.summary, parent=parent)
        tr.call("numsets.NumericalSet.is_semigroup", numset.is_semigroup, parent=summary)
        tr.add("numsets.NumericalSet.is_semigroup.pairs_max", positive * (positive + 1) // 2)
    else:
        violations, _ = tr.call(
            "oracle.closure_violations", oracle.closure_violations, numset, parent=parent
        )
        tr.add("oracle.closure_violations.violations", len(violations))


def _trace_encode(tr: Tracer, gens, n: int, parent: int) -> None:
    numset, _ = tr.call(
        "numsets.NumericalSet.from_generators", NumericalSet.from_generators, gens, parent=parent
    )
    tr.add("numsets.NumericalSet.from_generators.table_bytes", min(gens) * max(gens) + 1)
    apery, _ = tr.call("numsets.NumericalSet.apery_set", numset.apery_set, n, parent=parent)
    _, enc = tr.call("vectors.encode", encode, apery, parent=parent)
    tr.call(
        "permutations.conversion_vector",
        conversion_vector,
        apery.decompose().residues,
        parent=enc,
    )
    tr.add("permutations.conversion_vector.entries", n - 1)


def _cli_traced(tr: Tracer, op: Op):
    (code, stdout), span = tr.call("cli.main", run_cli, op.data)
    tr.add("cli.main.stdout_bytes", len(stdout.encode()))
    tr.add("cli.main.exit_input", code == EXIT_INPUT)
    tr.add("cli.main.exit_guard", code == EXIT_GUARD)
    facts = op.expect
    if code != facts["code"]:
        return code, stdout  # the check reports it; replaying would raise
    if op.kind in ("decode", "guard"):
        _trace_decode(tr, facts["vector"], span, guarded=op.kind == "guard")
    elif op.kind == "encode":
        _trace_encode(tr, facts["gens"], facts["n"], span)
    elif op.kind == "check":
        vector = facts["vector"]
        _trace_criterion(tr, [vector], span)
        if len(vector) <= 4:
            tr.call(
                "vectors.is_semigroup_closed_form", is_semigroup_closed_form, vector, parent=span
            )
        _trace_profile(tr, [vector], span)
    elif op.kind == "enumerate":
        _trace_grid(tr, *facts["grid"], parent=span)
    return code, stdout


def _fields(fmt: str, stdout: str) -> dict:
    if fmt == "json":
        return json.loads(stdout)
    fields = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields[key] = value
    return fields


def _ints(value) -> list[int]:
    """Integers of a JSON list or of a text field such as '4:{0,7,9,14}'."""
    if isinstance(value, list):
        return value
    if isinstance(value, int):
        return [value]
    text = value[value.index("{"):] if "{" in value else value
    return [int(x) for x in re.findall(r"-?\d+", text)]


def _flag(value) -> bool:
    return value is True or value == "true"


def _check_decode(facts: dict, fields: dict) -> bool:
    apery = list(facts["apery"])
    if _ints(fields["apery_set"]) != apery:
        return False
    semigroup = reference.is_semigroup(apery)
    if _flag(fields["is_semigroup"]) != semigroup:
        return False
    if semigroup:
        return _ints(fields["frobenius"]) == [reference.frobenius(apery)] and (
            _ints(fields["genus"]) == [reference.genus(apery)]
        )
    a, b = _ints(fields["witness"])
    table = reference.by_residue(apery)
    return (
        0 < a <= b
        and reference.is_member(table, a)
        and reference.is_member(table, b)
        and not reference.is_member(table, a + b)
    )


def _check_encode(facts: dict, fields: dict) -> bool:
    apery = reference.apery_of_generators(facts["gens"], facts["n"])
    vector = list(reference.position_vector(apery))
    positions = [0]
    for v in vector:
        positions.append(positions[-1] + v)
    return (
        _ints(fields["apery_set"]) == apery
        and _ints(fields["position_vector"]) == vector
        and _ints(fields["positions"]) == positions
    )


def _check_check(facts: dict, fields: dict, fmt: str) -> bool:
    vector = facts["vector"]
    n = len(vector) + 1
    apery = decode(vector).elements
    if reference.position_vector(apery) != vector:
        return False
    semigroup = reference.is_semigroup(apery)
    perm = [w % n for w in apery[1:]]
    expected = {
        "is_semigroup": semigroup,
        "multiplicity_is_n": apery[1] > n,
        "representative": [(v - 1) % i + 1 for i, v in enumerate(vector, start=1)],
        "u": [(v - 1) // i for i, v in enumerate(vector, start=1)],
        "permutation": perm,
        "gamma": [int(i > 0 and perm[i - 1] > perm[i]) for i in range(len(perm))],
    }
    if fmt == "text" and n <= 5:
        expected["closed_form"] = semigroup
    for key, want in expected.items():
        got = _flag(fields[key]) if isinstance(want, bool) else _ints(fields[key])
        if got != want:
            return False
    return True


def _check_enumerate(facts: dict, stdout: str, fmt: str, grids: GridOracle) -> bool:
    expected = grids.expected(*facts["grid"])
    if expected is None:
        return False
    if fmt == "json":
        payload = json.loads(stdout)
        vectors = [tuple(v) for v in payload["vectors"]]
        count = payload["count"]
    else:
        lines = stdout.splitlines()
        vectors = [tuple(_ints(line)) for line in lines[:-1]]
        count = _ints(lines[-1])[0]
    return vectors == expected and count == len(expected)


def cli_mix() -> Workload:
    grids = GridOracle()

    def check(op: Op, out) -> bool:
        code, stdout = out
        facts = op.expect
        fmt = facts["format"]
        if code != facts["code"]:
            return False
        if code != EXIT_OK:
            if fmt == "json":
                return json.loads(stdout)["status"] == "error"
            return stdout == ""
        if op.kind == "enumerate":
            return _check_enumerate(facts, stdout, fmt, grids)
        fields = _fields(fmt, stdout)
        if op.kind == "decode":
            return _check_decode(facts, fields)
        if op.kind == "encode":
            return _check_encode(facts, fields)
        return _check_check(facts, fields, fmt)

    return Workload("cli-mix", 97.0, _cli_cycle, _cli_run, _cli_traced, check)


WORKLOADS = {"long-vectors": long_vectors, "grid-scan": grid_scan, "cli-mix": cli_mix}
