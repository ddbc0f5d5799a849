"""
Tests of the benchmark itself: its input generators, its reference
routes, the tail-percentile helper and a tiny run of every workload.

Run from the repository root:

    python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from itertools import product
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from posvec import NumericalSet, decode, encode, is_semigroup_vector, oracle  # noqa: E402
from tracer import Tracer  # noqa: E402

TINY = 0.02  # size scale for smoke runs


@pytest.mark.parametrize("name", run.NAMES)
def test_generators_are_deterministic(name):
    def cycles(seed):
        rng = random.Random(seed)
        make = workloads.WORKLOADS[name]().make_cycle
        return [make(rng, TINY) for _ in range(2)]

    assert cycles(5) == cycles(5)
    assert cycles(5) != cycles(6)


def test_kunz_vectors_are_semigroups():
    rng = random.Random(0)
    for _ in range(300):
        m = rng.randint(1, 40)
        vector = workloads.kunz_vector(rng, m, rng.randint(1, 20))
        apery = decode(vector).elements
        assert reference.is_semigroup(apery)
        assert is_semigroup_vector(vector)


@pytest.mark.parametrize("percentile", [50, 90, 95, 97, 99, 99.9, 100])
def test_tail_keeps_ten_samples_beyond(percentile):
    rng = random.Random(1)
    for count in range(run.TAIL_BEYOND + 1, 400, 7):
        samples = [rng.random() for _ in range(count)]
        used, value, beyond = run.tail_percentile(samples, percentile)
        ordered = sorted(samples)
        assert beyond >= run.TAIL_BEYOND
        assert sum(x > value for x in samples) == beyond
        assert value == ordered[round(used / 100 * count) - 1]
        # nearest rank honours the request, or is lowered only as far as needed
        assert percentile <= used or beyond == run.TAIL_BEYOND
        assert used < percentile + 100 / count


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        run.tail_percentile([1.0] * run.TAIL_BEYOND, 50)


def test_reference_position_vector_matches_codec():
    rng = random.Random(2)
    for _ in range(200):
        vector = workloads.random_vector(rng, rng.randint(1, 30))
        assert reference.position_vector(decode(vector).elements) == vector


def test_reference_violation_count_matches_oracle():
    for vector in product(range(1, 6), repeat=3):
        apery = decode(vector).elements
        numset = decode(vector).to_numerical_set()
        assert reference.closure_violation_count(apery) == len(oracle.closure_violations(numset))
        assert reference.members_below_conductor(apery) == len(numset.sporadic) - 1
        assert reference.frobenius(apery) == numset.frobenius
        assert reference.genus(apery) == numset.genus


def test_reference_apery_of_generators():
    for gens, n in [((4, 7, 9), 4), ((6, 16, 20, 21, 29), 6), ((3, 5), 8), ((5, 7, 11), 10)]:
        apery = NumericalSet.from_generators(gens).apery_set(n)
        assert reference.apery_of_generators(gens, n) == list(apery.elements)
        assert reference.position_vector(apery.elements) == encode(apery)


@pytest.mark.parametrize("name", run.NAMES)
def test_tiny_run_of_each_workload(name):
    plain = run.measure(workloads.WORKLOADS[name](), 3, 0.001, scale=TINY)
    assert plain.failed == 0
    assert plain.units >= len(plain.latencies) > run.TAIL_BEYOND

    tracer = Tracer()
    traced = run.measure(workloads.WORKLOADS[name](), 3, 0.001, tracer, TINY)
    assert traced.failed == 0
    assert len(traced.latencies) == len(plain.latencies)
    layers = run.layer_metrics(tracer)
    traced_names = {n for n, _ in run.PER_LAYER if not n.startswith("trace.")}
    assert set(layers) == traced_names


def test_benchmark_json_names_match_the_run():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)


def test_command_prints_one_json_result():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-scan", "--seed", "4",
         "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
