"""Checks of the benchmark itself: determinism, recorded pools, tracing.

    python3 -m pytest bench -q
"""

import json
import signal
import sys
import time
from itertools import islice
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

GOLDEN = {workload: workloads.load_golden(workload) for workload in workloads.WORKLOADS}


def queries(workload, seed, count):
    recorded = GOLDEN[workload]
    return list(islice(workloads.rounds(recorded["slots"], recorded["fixed"], seed), count))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_queries(workload):
    assert queries(workload, 3, 4) == queries(workload, 3, 4)
    assert queries(workload, 3, 4) != queries(workload, 4, 4)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_rounds_hold_the_same_mix_of_slots(workload):
    first, second = queries(workload, 3, 1)[0], queries(workload, 11, 1)[0]
    assert len(first) == len(second) == run.round_length(GOLDEN[workload])


def test_recorded_pools_are_the_generated_ones():
    for workload, slots in workloads.build_pools().items():
        recorded = GOLDEN[workload]
        assert [{"name": s["name"], "variants": [[e[0] for e in v] for v in s["variants"]]}
                for s in recorded["slots"]] == slots
        assert [e[0] for e in recorded["fixed"]] == [
            " ".join(argv) for argv, _, _ in workloads.FIXED[workload]]
    over_cap = GOLDEN["quiver"]["slots"][-1]["variants"]
    assert all(entry[1] == 3 for variant in over_cap for entry in variant)


def test_benchmark_json_lists_the_metrics_the_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tail_percentile_keeps_ten_samples_beyond():
    for samples in (20, 42, 70, 92, 210, 848):
        p = run.tail_percentile(samples)
        values = list(range(samples))
        beyond = sum(1 for v in values if v > run.percentile(values, p))
        assert beyond >= 10


def test_a_query_over_budget_fails_instead_of_hanging(monkeypatch):
    class Hang:
        @staticmethod
        def main(argv):
            time.sleep(10)

    monkeypatch.setattr(worker, "QUERY_BUDGET_S", 1)
    previous = signal.signal(signal.SIGALRM, worker._on_alarm)
    try:
        status, latency, _ = worker.run_query(Hang, ["classify"])
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert status.startswith("overran") and latency < 5


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_stdout_equals_untraced_stdout(workload, tmp_path):
    def one_round(trace):
        argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
                "--seed", "5", "--seconds", "0", "--min-rounds", "1", "--max-rounds", "1",
                "--trace", str(trace), "--spans", str(tmp_path / "spans.jsonl")]
        return json.loads(run.spawn(argv, 120).stdout.splitlines()[-1])

    plain, traced = one_round(0), one_round(1)
    assert plain["failures"] == [] and traced["failures"] == []
    assert traced["digests"] == plain["digests"]
    assert traced["metrics"]["cli.main.calls"] == len(plain["digests"])


def test_compare_verdicts():
    parent = {s: 100.0 + s % 3 for s in range(10)}
    assert compare.verdict(parent, {s: 80.0 for s in range(10)}, "lower", 0.1)[0] == "improved"
    assert compare.verdict(parent, {s: 130.0 for s in range(10)}, "lower", 0.1)[0] == "worse"
    assert compare.verdict(parent, dict(parent), "lower", 0.1)[0] == "unchanged"
    noisy = {s: 100.0 * (1 + s % 2) for s in range(10)}
    assert compare.verdict(noisy, dict(noisy), "lower", 0.1)[0] == "unresolved"
