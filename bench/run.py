"""The klrc benchmark: seeded workloads of CLI queries, measured end to end.

    python3 bench/run.py --workload quiver --seed 1 --seconds 20 --trace 0

With ``--trace 0`` a fresh interpreter issues whole rounds of the workload's
queries to ``klrc.cli.main`` in-process, one after another, until at least
``--seconds`` have passed and at least the workload's minimum number of
rounds is done.  Every query's exit status and stdout digest is checked
against ``golden/<workload>.json``.

Shared virtual machines drift in speed (by up to a third over minutes on the
2-vCPU x86_64 VM the bounds were set on).  So the run also times a fixed
piece of pure-Python work every quarter second (``worker.calibrate``), and
the time metrics are reported as if the machine ran at
``CALIBRATION_REFERENCE_S`` per calibration: measured times are divided, and
throughput multiplied, by the run's mean calibration time over the
reference.  The raw values are in the record.  The last line of stdout is
the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics.  The line before it is the full record (git
sha, Python version, CPU count, seed, the tail percentile and its sample
count, the error rate and the failures); it is also appended to ``--out``
for ``compare.py``.

With ``--trace 1`` the first rounds run twice, each in a fresh interpreter:
untraced, then with every layer's public functions wrapped (``tracing.py``).
The result holds the per-layer metrics of the traced pass and its overhead,
and is correct only if both passes printed the same stdout for every query.
Spans are written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from worker import calibrate  # noqa: E402

SETUP_SPAWNS = 11         # fresh interpreters timed per run; the median is reported
PASS_TIMEOUT_S = 80       # a worker that outlives this is killed and the run fails
LADDER = (50, 75, 80, 85, 90, 95, 98, 99, 99.5, 99.9)
MAX_FAILURES_SHOWN = 10
# About the mean calibrate() time on the 2-vCPU x86_64 VM the bounds were set
# on; times are reported as if the machine ran at that speed.
CALIBRATION_REFERENCE_S = 0.016

END_TO_END = (
    ("throughput_qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
)

# (name, unit): the traced run's metrics, in BENCHMARK.json order
PER_LAYER = (
    ("trace.overhead", "ratio"),
    ("cli.build_parser.calls", "count"), ("cli.build_parser.self_s", "s"),
    ("cli.main.self_s", "s"), ("cli.stdout_bytes", "bytes"),
    ("quiver.build_quiver.self_s", "s"),
    ("quiver.candidate_moves.calls", "count"), ("quiver.candidate_moves.self_s", "s"),
    ("quiver.arrow_test.calls", "count"), ("quiver.arrow_test.self_s", "s"),
    ("quiver.arrow_test.accepted", "count"), ("quiver.arrow_test.accept_ratio", "ratio"),
    ("quiver.delta_vector.calls", "count"), ("quiver.delta_vector.per_arrow", "ratio"),
    ("quiver.witness_sequence.self_s", "s"),
    ("quiver.export.self_s", "s"), ("quiver.export.bytes", "bytes"),
    ("maxweights.class_members.calls", "count"), ("maxweights.class_members.self_s", "s"),
    ("maxweights.class_members.members", "count"),
    ("maxweights.class_members.kept_ratio", "ratio"),
    ("maxweights.beta_of.calls", "count"), ("maxweights.beta_of.self_s", "s"),
    ("maxweights.dominantify.calls", "count"), ("maxweights.dominantify.self_s", "s"),
    ("cartan.RootVector.constructed", "count"), ("cartan.DominantWeight.constructed", "count"),
    ("cartan.value_objects.self_s", "s"), ("cartan.value_objects.per_quiver", "count"),
    ("tableaux.graded_hom_dim.calls", "count"), ("tableaux.graded_hom_dim.self_s", "s"),
    ("tableaux.multipartitions.yielded", "count"),
    ("tableaux.kostka_q.calls", "count"), ("tableaux.kostka_q.nonzero", "count"),
    ("tableaux.shapes.useful_ratio", "ratio"),
    ("tableaux.kostka_cache.hit_ratio", "ratio"), ("tableaux.kostka_cache.entries", "count"),
    ("tableaux.node_degree.calls", "count"), ("tableaux.node_degree.self_s", "s"),
    ("tableaux.Multipartition.constructed", "count"),
    ("fock.expand.calls", "count"), ("fock.expand.self_s", "s"),
    ("fock.apply_f.calls", "count"), ("fock.apply_f.self_s", "s"),
    ("fock.apply_divided_f.exact_divs", "count"), ("fock.terms.peak", "count"),
    ("fock.hom_dim.self_s", "s"),
    ("laurent.mul.calls", "count"), ("laurent.mul.self_s", "s"),
    ("laurent.add.calls", "count"), ("laurent.add.self_s", "s"),
    ("laurent.exact_div.calls", "count"), ("laurent.exact_div.self_s", "s"),
    ("multiplicity.weight_multiplicity.calls", "count"),
    ("multiplicity.weight_multiplicity.self_s", "s"),
    ("multiplicity.cache.hits", "count"), ("multiplicity.cache.misses", "count"),
    ("multiplicity.cache.hit_ratio", "ratio"), ("multiplicity.cache.entries", "count"),
    ("multiplicity.positive_roots_within.calls", "count"),
    ("multiplicity.positive_roots_within.self_s", "s"),
    ("classifier.classify.calls", "count"), ("classifier.classify.self_s", "s"),
    ("classifier.match_case.calls", "count"), ("classifier.match_case.self_s", "s"),
    ("classifier.verdicts.zero", "count"), ("classifier.verdicts.finite", "count"),
    ("classifier.verdicts.tame", "count"), ("classifier.verdicts.wild", "count"),
)


class BenchError(Exception):
    """The benchmark could not run; nothing is printed on stdout."""


def round_length(golden: dict) -> int:
    """Queries in every round of the workload."""
    return sum(len(slot["variants"][0]) for slot in golden["slots"]) + len(golden["fixed"])


def tail_percentile(samples: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it."""
    return max(p for p in LADDER if samples * (1 - p / 100) >= 10)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def spawn(argv: list[str], timeout: float) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[1]} ran past {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[1:3])} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc


def setup_seconds() -> tuple[float, float]:
    """Median time for a fresh interpreter to import klrc.cli, ready for a
    query, and the mean calibration time measured between the spawns."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import klrc.cli"
    spawn([sys.executable, "-c", code], 60)          # compiles bytecode once, untimed
    times, calibrations = [], []
    for _ in range(SETUP_SPAWNS):
        calibrations.append(calibrate())
        start = time.perf_counter()
        spawn([sys.executable, "-c", code], 60)
        times.append(time.perf_counter() - start)
    return statistics.median(times), statistics.mean(calibrations)


def worker_pass(args, min_rounds: int, max_rounds: int, trace: bool,
                spans: Path | None = None) -> dict:
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--min-rounds", str(min_rounds), "--max-rounds", str(max_rounds),
            "--trace", str(int(trace))]
    if spans is not None:
        argv += ["--spans", str(spans)]
    return json.loads(spawn(argv, PASS_TIMEOUT_S).stdout.splitlines()[-1])


def git_sha() -> str | None:
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def measure(args) -> tuple[dict, dict]:
    """The end-to-end run: metrics and the details behind them."""
    golden = workloads.load_golden(args.workload)
    min_rounds = workloads.ROUNDS[args.workload]
    setup, setup_calibration = setup_seconds()
    res = worker_pass(args, min_rounds, 0, trace=False)
    lat = res["latencies"]
    p = tail_percentile(min_rounds * round_length(golden))
    raw = {
        "throughput_qps": res["correct"] / res["wall_s"],
        "latency_p50_ms": statistics.median(lat) * 1000,
        "latency_tail_ms": percentile(lat, p) * 1000,
        "setup_s": setup,
    }
    slowness = res["calibration_s"] / CALIBRATION_REFERENCE_S
    metrics = {
        "throughput_qps": raw["throughput_qps"] * slowness,
        "latency_p50_ms": raw["latency_p50_ms"] / slowness,
        "latency_tail_ms": raw["latency_tail_ms"] / slowness,
        "peak_rss_mb": res["rss_mb"],
        "setup_s": setup * CALIBRATION_REFERENCE_S / setup_calibration,
    }
    detail = {"rounds": res["rounds"], "queries": len(lat), "wall_s": res["wall_s"],
              "tail_percentile": p,
              "tail_samples_beyond": len(lat) - math.ceil(p / 100 * len(lat)),
              "slowness": slowness, "setup_slowness": setup_calibration / CALIBRATION_REFERENCE_S,
              "calibrations": res["calibrations"], "raw": raw, "failures": res["failures"]}
    return metrics, detail


def measure_traced(args) -> tuple[dict, dict]:
    """The traced run: per-layer metrics of the first rounds, and the overhead."""
    rounds = workloads.ROUNDS[args.workload]
    plain = worker_pass(args, rounds, rounds, trace=False)
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    traced = worker_pass(args, rounds, rounds, trace=True, spans=spans)
    failures = traced["failures"] + plain["failures"]
    if traced["digests"] != plain["digests"]:
        failures.append("traced stdout differs from untraced stdout")
    layer = traced["metrics"]
    layer["trace.overhead"] = ((traced["wall_s"] / traced["calibration_s"])
                               / (plain["wall_s"] / plain["calibration_s"]))
    layer["cli.stdout_bytes"] = traced["stdout_bytes"]
    metrics = {name: layer.get(name, 0) for name, _ in PER_LAYER}
    detail = {"rounds": traced["rounds"], "queries": len(traced["latencies"]),
              "wall_s": traced["wall_s"], "untraced_wall_s": plain["wall_s"],
              "spans": str(spans.relative_to(ROOT)), "failures": failures,
              "attempted": len(traced["latencies"]) + len(plain["latencies"])}
    return metrics, detail


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one workload of the klrc benchmark.")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(BENCH / "out" / "results.jsonl"),
                        help="file the full record is appended to")
    args = parser.parse_args()

    try:
        if not (ROOT / "src" / "klrc" / "cli.py").is_file():
            raise BenchError(f"no klrc sources under {ROOT / 'src'}")
        if args.trace:
            values, detail = measure_traced(args)
            units = dict(PER_LAYER)
        else:
            values, detail = measure(args)
            units = dict(END_TO_END)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = detail.pop("attempted", detail["queries"])
    failures = detail.pop("failures")
    detail["error_rate"] = len(failures) / attempted if attempted else 1.0
    detail["failures"] = failures[:MAX_FAILURES_SHOWN]
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    record_metrics = dict(metrics)
    if not args.trace:
        record_metrics["error_rate"] = {"value": detail["error_rate"], "unit": "ratio"}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
        "metrics": record_metrics, "detail": detail,
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(record))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
