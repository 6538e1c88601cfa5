"""One measured pass of a workload, in a fresh interpreter.

``run.py`` starts this script once per pass, so that every pass begins with
the package's caches cold, as a new session does, and so that its peak
resident memory is its own.  The pass issues whole rounds of queries to
``klrc.cli.main`` in-process, one at a time (a closed loop with one client),
captures each query's stdout and checks its exit status and stdout digest
against the recorded ones.  Every quarter second it times a fixed piece of
pure-Python work between two queries (``calibrate``); the loop's wall time
excludes it.  It prints one JSON object on stdout.

    python3 bench/worker.py --workload dims --seed 1 --seconds 10 \
        --min-rounds 4 --max-rounds 0 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

QUERY_BUDGET_S = 30        # a query running longer counts as failed and ends the pass
CALIBRATION_STEPS = 20_000
CALIBRATION_EVERY_S = 0.25


class QueryTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so the CLI's handlers let it pass."""


def _on_alarm(signum, frame):
    raise QueryTimeout()


def run_query(cli, argv: list[str]) -> tuple[object, float, str]:
    """Exit status (or a failure description), latency in seconds, stdout."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    signal.alarm(QUERY_BUDGET_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status: object = cli.main(argv)
    except SystemExit as exc:
        status = exc.code
    except QueryTimeout:
        status = f"overran the {QUERY_BUDGET_S} s budget"
    except Exception as exc:  # a traceback is a failed query, not a failed run
        status = f"raised {type(exc).__name__}: {exc}"
    finally:
        signal.alarm(0)
    return status, time.perf_counter() - start, out.getvalue()


def digest(stdout: str) -> str:
    """The first 16 hex digits of the SHA-256 of the UTF-8 stdout."""
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()[:16]


def calibrate() -> float:
    """Seconds taken by a fixed piece of pure-Python work: tuples, dict
    updates and a generator, as in the package's inner loops.  Interleaved
    with the queries, its mean tells how fast the shared machine ran."""
    start = time.perf_counter()
    acc: dict = {}
    for i in range(CALIBRATION_STEPS):
        key = (i % 61, i % 7)
        acc[key] = acc.get(key, 0) + sum(k * 3 for k in key)
    return time.perf_counter() - start


def dims_oracle(query: str) -> str:
    """The dims answer by an independent route: hom_dim between the Fock
    expansions of nu and nu' read as words of single steps."""
    from klrc.cartan import DominantWeight
    from klrc.fock import expand, hom_dim

    argv = query.split()
    opts = dict(zip(argv[1::2], argv[2::2]))
    ell = int(opts["--ell"])
    if "--m" in opts:
        weight = DominantWeight(tuple(int(v) for v in opts["--m"].split(",")))
    else:
        weight = DominantWeight.from_charges([int(v) for v in opts["--weight"].split(",")], ell)
    nu = [int(v) for v in opts["--nu"].split("-")]
    nu2 = [int(v) for v in opts.get("--nu2", opts["--nu"]).split("-")]
    left = expand(weight, [(r, 1) for r in reversed(nu)])
    right = expand(weight, [(r, 1) for r in reversed(nu2)])
    return f"{hom_dim(left, right)}\n"


def run_pass(workload: str, seed: int, seconds: float, min_rounds: int, max_rounds: int,
             trace: bool, spans_path: str | None) -> dict:
    golden = workloads.load_golden(workload)
    literal = {" ".join(argv): (line, text) for argv, line, text in workloads.FIXED[workload]}

    sys.path.insert(0, str(ROOT / "src"))
    import klrc.cli as cli

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    signal.signal(signal.SIGALRM, _on_alarm)

    latencies: list[float] = []
    digests: list[str] = []
    failures: list[str] = []
    calibrations: list[float] = []
    issued: dict[str, str] = {}
    stdout_bytes = 0
    correct = 0
    stop = False
    rounds = 0
    loop_start = last_calibration = time.perf_counter()
    for r, entries in enumerate(workloads.rounds(golden["slots"], golden["fixed"], seed)):
        elapsed = time.perf_counter() - loop_start - sum(calibrations)
        if stop or (max_rounds and r >= max_rounds) or (r >= min_rounds and elapsed >= seconds):
            break
        rounds += 1
        for query, exit_status, recorded in entries:
            if not calibrations or time.perf_counter() - last_calibration >= CALIBRATION_EVERY_S:
                calibrations.append(calibrate())
                last_calibration = time.perf_counter()
            if tracer is not None:
                tracer.query = len(latencies)
            status, latency, stdout = run_query(cli, query.split())
            got = digest(stdout)
            latencies.append(latency)
            digests.append(got)
            stdout_bytes += len(stdout.encode("utf-8"))
            issued[query] = recorded
            problem = check(status, got, exit_status, recorded, stdout, literal.get(query))
            if problem is None:
                correct += 1
            else:
                failures.append(f"{query}: {problem}")
                if isinstance(status, str) and status.startswith("overran"):
                    stop = True
                    break
    wall = time.perf_counter() - loop_start - sum(calibrations)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"rounds": rounds, "wall_s": wall, "latencies": latencies, "digests": digests,
              "correct": correct, "failures": failures, "rss_mb": rss_mb,
              "stdout_bytes": stdout_bytes, "calibrations": len(calibrations),
              "calibration_s": sum(calibrations) / len(calibrations)}
    if tracer is not None:
        result["metrics"] = tracer.metrics()
        if spans_path:
            tracer.write_spans(spans_path)
    elif workload == "dims":
        # outside the timed loop: every answer against the Fock route
        for query, recorded in sorted(issued.items()):
            if digest(dims_oracle(query)) != recorded:
                failures.append(f"{query}: differs from the Fock route")
    return result


def check(status, got, exit_status, recorded, stdout, literal) -> str | None:
    """None when the query's output is the recorded one (and the documented
    one, for a fixed query), else the problem."""
    if status != exit_status:
        return f"exit {status!r}, recorded {exit_status}"
    if got != recorded:
        return "stdout differs from the recorded digest"
    if literal is not None:
        line, text = literal
        lines = stdout.splitlines() or [""]
        got = stdout if line is None else lines[line]
        if got != text:
            return f"stdout {got!r}, documented {text!r}"
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-rounds", type=int, required=True)
    parser.add_argument("--max-rounds", type=int, default=0, help="0 for no limit")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="file for the traced pass's spans")
    args = parser.parse_args()
    result = run_pass(args.workload, args.seed, args.seconds, args.min_rounds,
                      args.max_rounds, bool(args.trace), args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
