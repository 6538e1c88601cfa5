"""Record the workload pools and their outputs in ``golden/<workload>.json``.

Regenerates every pool from its fixed pool seed, runs each pooled and fixed
query once through ``klrc.cli.main`` and stores it with its exit status and
the digest of its stdout.  The fixed queries must also print their
documented output.  The benchmark counts a query as correct only when it
reproduces these.  CLI output is meant to stay byte-identical, so re-record
only in a change that says why the output changed:

    python3 bench/record.py
"""

from __future__ import annotations

import json
import signal
import sys

from worker import ROOT, _on_alarm, digest, run_query
import workloads


def record(cli, query: str) -> list:
    """[query, exit status, digest of stdout]"""
    status, _, stdout = run_query(cli, query.split())
    if not isinstance(status, int):
        raise SystemExit(f"{query}: {status}")
    return [query, status, digest(stdout)]


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import klrc.cli as cli

    signal.signal(signal.SIGALRM, _on_alarm)
    workloads.GOLDEN.mkdir(exist_ok=True)
    for name, slots in workloads.build_pools().items():
        for argv, line, text in workloads.FIXED[name]:
            status, _, stdout = run_query(cli, argv)
            got = stdout if line is None else stdout.splitlines()[line]
            if status != 0 or got != text:
                print(f"{' '.join(argv)}: got {status!r} {got!r}, documented {text!r}",
                      file=sys.stderr)
                return 1
        fixed = [" ".join(argv) for argv, _, _ in workloads.FIXED[name]]
        golden = {
            "slots": [{"name": slot["name"],
                       "variants": [[record(cli, query) for query in variant]
                                    for variant in slot["variants"]]}
                      for slot in slots],
            "fixed": [record(cli, query) for query in fixed],
        }
        (workloads.GOLDEN / f"{name}.json").write_text(
            json.dumps(golden, ensure_ascii=False, indent=0) + "\n", encoding="utf-8")
        print(f"{name}: recorded", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
