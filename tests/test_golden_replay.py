"""Replay recorded benchmark queries through the CLI and compare their digests.

``bench/golden/<workload>.json`` records, for every query of a workload's
pool, its exit status and the first 16 hex digits of the SHA-256 of its
stdout.  Replaying the first variant of every slot and the fixed queries of
every pool in-process, every query of the quiver, fock and dims pools and
every ``simples`` query of the blocks pool, makes any drift in their output
fail here, not only in a benchmark run.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from klrc import cli

GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden"


def golden(workload):
    return json.loads((GOLDEN / f"{workload}.json").read_text(encoding="utf-8"))


def replayed_queries(workload):
    pool = golden(workload)
    return [query for slot in pool["slots"] for query in slot["variants"][0]] + pool["fixed"]


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code
    return status, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()[:16]


@pytest.mark.parametrize("workload", ["fock", "dims", "quiver", "blocks"])
def test_replay_golden_digests(workload):
    queries = replayed_queries(workload)
    assert len(queries) > 20
    for text, status, digest in queries:
        assert run(text.split()) == (status, digest), text


def test_replay_every_quiver_variant():
    """Every variant of every quiver slot, the over-cap slot included: four
    quiver renderings and the maxweights text, over classes of up to 1,502
    vertices."""
    pool = golden("quiver")
    queries = [query for slot in pool["slots"] for variant in slot["variants"]
               for query in variant]
    assert len(queries) >= 4 * len(pool["slots"])
    assert {status for _, status, _ in queries} == {0, 3}
    for text, status, digest in queries:
        assert run(text.split()) == (status, digest), text


def test_replay_every_simples_query():
    """Every ``simples`` query of the blocks pool, every slot and variant and
    the fixed queries: the Freudenthal recursion answers each one as recorded."""
    pool = golden("blocks")
    queries = [query for slot in pool["slots"] for variant in slot["variants"]
               for query in variant] + pool["fixed"]
    queries = [query for query in queries if query[0].split()[0] == "simples"]
    assert len(queries) == 2689
    for text, status, digest in queries:
        assert run(text.split()) == (status, digest), text


@pytest.mark.parametrize("workload,count", [("fock", 401), ("dims", 802)])
def test_replay_every_fock_and_dims_query(workload, count):
    """Every query of the fock and dims pools, every slot and variant and the
    fixed queries: the Fock engine, its packed rendering and the graded
    dimensions answer each one as recorded."""
    pool = golden(workload)
    queries = [query for slot in pool["slots"] for variant in slot["variants"]
               for query in variant] + pool["fixed"]
    assert len(queries) == count
    for text, status, digest in queries:
        assert run(text.split()) == (status, digest), text
