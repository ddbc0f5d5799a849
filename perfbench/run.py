"""
posvec benchmark: three seeded workloads, timed end to end, with a
separate traced run for per-layer metrics.

    python3 perfbench/run.py --workload long-vectors --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30      # every workload

Run it from the root of a checkout: posvec is imported from ``src``.
Report lines go to stdout, and the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are per layer, plus the tracing overhead, and the spans are
written to ``.perfbench_out/`` in the checkout.  The exit code is 0 only
when every op gave the expected output.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from hostspeed import REFERENCE_KERNEL_S, HostSpeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
NAMES = ("long-vectors", "grid-scan", "cli-mix")

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
SETUP_PROBES = 15  # fresh interpreters per run; the median is reported

# Each probe times importing posvec and posvec.cli plus one small call of
# the workload's kind, in a fresh interpreter, then times the host-speed
# kernel there.
_PROBE_PRELUDE = (
    "import contextlib, io, statistics, sys, time\n"
    "sys.path[:0] = [{src!r}, {here!r}]\n"
    "import hostspeed\n"
    "_t0 = time.perf_counter()\n"
)
_PROBE_END = (
    "\n_setup = time.perf_counter() - _t0\n"
    "_kernel = statistics.median(hostspeed.kernel_seconds() for _ in range(hostspeed.WINDOW))\n"
    "print(_setup, _kernel)\n"
)
_PROBE_FIRST_CALL = {
    "long-vectors": "posvec.encode(posvec.decode(tuple(range(1, 11))))",
    "grid-scan": "list(posvec.enumerate_vectors(4, 3, 'semigroups'))",
    "cli-mix": (
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    posvec.cli.main(['decode', '3,2,1,6,7'])"
    ),
}

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("permutations.permutation_from_conversion.calls", "count"),
    ("permutations.permutation_from_conversion.self_s", "s"),
    ("permutations.permutation_from_conversion.entries", "count"),
    ("permutations.conversion_vector.calls", "count"),
    ("permutations.conversion_vector.self_s", "s"),
    ("permutations.conversion_vector.entries", "count"),
    ("vectors.vector_decomposition.self_s", "s"),
    ("vectors.encode.self_s", "s"),
    ("vectors.class_profile.self_s", "s"),
    ("vectors.is_semigroup_vector.calls", "count"),
    ("vectors.is_semigroup_vector.self_s", "s"),
    ("vectors.is_semigroup_vector.pairs_max", "count"),
    ("vectors.is_semigroup_vector.true_frac", "fraction"),
    ("vectors.enumerate_vectors.scanned", "count"),
    ("vectors.enumerate_vectors.kept", "count"),
    ("vectors.enumerate_vectors.kept_frac", "fraction"),
    ("vectors.enumerate_vectors.self_s", "s"),
    ("numsets.AperyDecomposition.to_apery_set.self_s", "s"),
    ("numsets.AperySet.to_numerical_set.self_s", "s"),
    ("numsets.AperySet.to_numerical_set.members", "count"),
    ("numsets.NumericalSet.is_semigroup.self_s", "s"),
    ("numsets.NumericalSet.is_semigroup.pairs_max", "count"),
    ("numsets.NumericalSet.summary.self_s", "s"),
    ("numsets.NumericalSet.from_generators.self_s", "s"),
    ("numsets.NumericalSet.from_generators.table_bytes", "B"),
    ("numsets.NumericalSet.apery_set.self_s", "s"),
    ("oracle.closure_violations.calls", "count"),
    ("oracle.closure_violations.self_s", "s"),
    ("oracle.closure_violations.violations", "count"),
    ("oracle.closure_violations.used_frac", "fraction"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.main.stdout_bytes", "B"),
    ("cli.main.exit_input", "count"),
    ("cli.main.exit_guard", "count"),
    ("trace.ops_per_s_untraced", "1/s"),
    ("trace.ops_per_s_traced", "1/s"),
    ("trace.overhead_frac", "fraction"),
)

# ratio metrics: (numerator counter, denominator counter) under the layer
_RATIOS = {
    "true_frac": ("true", "calls"),
    "kept_frac": ("kept", "scanned"),
    "used_frac": ("calls", "violations"),
}


def tail_percentile(samples, percentile: float) -> tuple[float, float, int]:
    """
    (percentile used, value, samples beyond it) by nearest rank.  The
    requested percentile is lowered when fewer than TAIL_BEYOND samples
    would lie beyond it.
    """
    ordered = sorted(samples)
    count = len(ordered)
    if count <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} samples, got {count}")
    rank = min(max(1, math.ceil(percentile / 100 * count)), count - TAIL_BEYOND)
    return 100 * rank / count, ordered[rank - 1], count - rank


@dataclass
class Measurement:
    """Call times scaled to the reference host speed (see hostspeed)."""

    latencies: list[float]
    cycle_rates: list[float]  # units per scaled second of calls, one per cycle
    factors: list[float]  # host-speed factor applied to each call
    units: int = 0
    failed: int = 0
    wall_s: float = 0.0  # unscaled time of the calls

    @property
    def ops_per_s(self) -> float:
        """Median cycle rate: every cycle runs the same mix, so each is one
        sample of throughput, and the median discards bursts of load from
        elsewhere on the machine."""
        return statistics.median(self.cycle_rates)


_RAISED = object()


def measure(workload, seed: int, seconds: float, tracer=None, scale: float = 1.0) -> Measurement:
    """
    Run whole cycles of the workload until ``seconds`` of wall-clock call
    time have been measured.  Generation, checks and the host-speed kernel
    run outside the timed region.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    host = HostSpeed()
    result = Measurement([], [], [])
    while result.wall_s < seconds:
        cycle_units, cycle_s = 0, 0.0
        for op in workload.make_cycle(rng, scale):
            if tracer is not None:
                tracer.op = len(result.latencies)
            factor = host.factor()
            start = perf_counter()
            try:
                out = workload.traced(tracer, op) if tracer is not None else workload.run(op)
            except Exception:  # an op that raises is a failed op; keep measuring
                out = _RAISED
                error = traceback.format_exc()
            elapsed = perf_counter() - start
            result.wall_s += elapsed
            result.factors.append(factor)
            result.latencies.append(elapsed * factor)
            cycle_s += elapsed * factor
            cycle_units += op.units
            if out is _RAISED:
                ok = False
            else:
                try:
                    ok = workload.check(op, out)
                except Exception:  # malformed output fails the op
                    ok, error = False, traceback.format_exc()
                else:
                    error = "wrong output"
            if not ok:
                result.failed += 1
                if result.failed <= 3:
                    print(
                        f"FAILED {workload.name} {op.kind} {op.data!r:.200}: {error}",
                        file=sys.stderr,
                    )
        result.cycle_rates.append(cycle_units / cycle_s)
        result.units += cycle_units
    return result


def setup_seconds(name: str) -> float:
    """Median over fresh interpreters of import + first call, scaled to the
    reference host speed by the kernel timed in the same interpreter."""
    code = (
        _PROBE_PRELUDE.format(src=str(SRC), here=str(Path(__file__).resolve().parent))
        + "import posvec, posvec.cli\n"
        + _PROBE_FIRST_CALL[name]
        + _PROBE_END
    )
    times = []
    for i in range(SETUP_PROBES + 1):  # the first probe may write bytecode caches
        done = subprocess.run(
            [sys.executable, "-I", "-c", code],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        if i:
            setup, kernel = map(float, done.stdout.split())
            times.append(setup * REFERENCE_KERNEL_S / kernel)
    return statistics.median(times)


def layer_metrics(tracer) -> dict[str, float]:
    self_s = tracer.self_seconds()
    counts = tracer.counts
    values = {}
    for name, _ in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if layer == "trace":
            continue
        if stat == "self_s":
            values[name] = self_s[layer]
        elif stat in _RATIOS:
            top, bottom = (counts[f"{layer}.{key}"] for key in _RATIOS[stat])
            values[name] = top / bottom if bottom else 0.0
        else:
            values[name] = counts[name]
    return values


def _metric_json(values: dict[str, float], units: dict[str, str]) -> dict:
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    # imported here: they import posvec, which main has just put on the path
    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS[name]()
    if not trace:
        setup = setup_seconds(name)
        plain = measure(workload, seed, seconds)
        pct, tail, beyond = tail_percentile(plain.latencies, workload.tail_percentile)
        values = {
            "ops_per_s": plain.ops_per_s,
            "latency_p50_ms": 1000 * statistics.median(plain.latencies),
            "latency_tail_ms": 1000 * tail,
            "setup_s": setup,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        attempted, failed = len(plain.latencies), plain.failed
        units = dict(END_TO_END)
        notes = {
            "latency_tail_ms": f"p{pct:.2f} of {attempted} calls, {beyond} beyond",
            "ops_per_s": (
                f"median of {len(plain.cycle_rates)} cycles; wall clock: {plain.units} units "
                f"in {plain.wall_s:.3f} s, host-speed factor median "
                f"{statistics.median(plain.factors):.3f}"
            ),
        }
    else:
        plain = measure(workload, seed, seconds)
        tracer = Tracer()
        traced = measure(workloads.WORKLOADS[name](), seed, seconds, tracer)
        values = layer_metrics(tracer)
        values["trace.ops_per_s_untraced"] = plain.ops_per_s
        values["trace.ops_per_s_traced"] = traced.ops_per_s
        values["trace.overhead_frac"] = 1 - traced.ops_per_s / plain.ops_per_s
        attempted = len(plain.latencies) + len(traced.latencies)
        failed = plain.failed + traced.failed
        units = dict(PER_LAYER)
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(spans)
        notes = {"trace.overhead_frac": f"spans in {spans.relative_to(ROOT)}"}
    for metric, unit in units.items():
        note = f"  ({notes[metric]})" if metric in notes else ""
        print(f"{name}  {metric} = {values[metric]:.6g} {unit}{note}")
    print(
        f"{name}  failed_frac = {failed / attempted:.6g} fraction"
        f"  ({failed} of {attempted} calls)"
    )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": _metric_json(values, units),
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own process, so peak RSS is per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True,
            text=True,
            check=False,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode not in (0, 1) or not lines:
            raise RuntimeError(f"workload {name} exited with {done.returncode}")
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "posvec" / "__init__.py").is_file():
        print(f"perfbench: no posvec sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
