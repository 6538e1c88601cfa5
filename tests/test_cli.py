import contextlib
import io
import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from klrc import cli
from klrc.cartan import DominantWeight
from klrc.cli import main
from klrc.multiplicity import DEFAULT_MAX_HEIGHT
from klrc.quiver import DEFAULT_MAX_VERTICES
from klrc.tableaux import DEFAULT_MAX_BOXES


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_text(capsys):
    code, out, _ = run(["classify", "--ell", "3", "--weight", "0,0",
                        "--beta", "2,2,0,0", "--char", "0"], capsys)
    assert code == 0
    assert out == "Tame (t20) [char≠2]\n"


def test_classify_char_two(capsys):
    code, out, _ = run(["classify", "--ell", "3", "--weight", "0,0",
                        "--beta", "2,2,0,0", "--char", "2"], capsys)
    assert code == 0
    assert out == "Wild (t20)\n"


@pytest.mark.parametrize("char", ["1", "4", "-4", "-2", "9", "91", str(2 ** 32 + 15),
                                  str(10 ** 30)])
def test_classify_rejects_a_characteristic_that_is_not_prime(char, capsys):
    code, out, err = run(["classify", "--ell", "3", "--weight", "0,0",
                          "--beta", "2,2,0,0", "--char", char], capsys)
    assert code == 2 and out == ""
    assert f"characteristic {char} is not 0 or a prime" in err


def test_classify_accepts_other_primes(capsys):
    for char in ("5", "7", "4294967291"):
        code, out, _ = run(["classify", "--ell", "3", "--weight", "0,0",
                            "--beta", "2,2,0,0", "--char", char], capsys)
        assert code == 0 and out == "Tame (t20) [char≠2]\n"


def test_dims_text(capsys):
    code, out, _ = run(["dims", "--ell", "2", "--weight", "0,1",
                        "--beta", "1,2,1", "--nu", "0-1-2-1"], capsys)
    assert code == 0
    assert out == "1 + 2q^2 + 3q^4 + 2q^6 + q^8\n"


def test_quiver_dot(capsys):
    code, out, _ = run(["quiver", "--ell", "4", "--weight", "2,2", "--format", "dot"], capsys)
    assert code == 0
    assert out.count("[label=\"Δ") == 18
    assert out.count("->") == 18
    assert sum(1 for line in out.splitlines() if "label=\"" in line and "->" not in line) == 9


def test_quiver_json_round_trip(capsys):
    code, out, _ = run(["quiver", "--ell", "4", "--weight", "1,2", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["vertices"]) == 6
    assert len(payload["arrows"]) == 10
    code, out2, _ = run(["quiver", "--ell", "4", "--weight", "1,2", "--format", "json"], capsys)
    assert out == out2


def test_maxweights(capsys):
    code, out, _ = run(["maxweights", "--ell", "2", "--weight", "0", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["root"] == [1, 0, 0]
    assert {tuple(r["m"]) for r in payload["members"]} == {(1, 0, 0), (0, 0, 1)}


def test_fock(capsys):
    code, out, _ = run(["fock", "--ell", "2", "--weight", "0,0,1",
                        "--word", "0,1^2,0"], capsys)
    assert code == 0
    assert "End = 1 + q^2 + 3q^4 + 2q^6 + 3q^8 + q^10 + q^12" in out


def test_fock_json(capsys):
    code, out, _ = run(["fock", "--ell", "2", "--weight", "0,0,1",
                        "--word", "1^2,0", "--format", "json"], capsys)
    payload = json.loads(out)
    assert len(payload["terms"]) == 6
    assert payload["charges"] == [0, 0, 1]


@pytest.mark.parametrize("weight,word", [("0,0,0,0,0", "1,0,1,0^3"), ("0,0,1", "1^2,0,2,1,0"),
                                         ("0,0,1,2,2", "2,2,1^2,1,0,2^2,2,0,0,1")])
def test_fock_json_coefficients_read_off_packed_digits(weight, word, capsys):
    """The json terms, rendered from packed digits, are the decoded terms' text."""
    from klrc.fock import expand, parse_word

    code, out, _ = run(["fock", "--ell", "2", "--weight", weight, "--word", word,
                        "--format", "json"], capsys)
    vector = expand(DominantWeight.from_charges([int(c) for c in weight.split(",")], 2),
                    parse_word(word))
    assert code == 0 and json.loads(out)["terms"] == [
        {"multipartition": [list(p) for p in mp.components], "coeff": str(c)}
        for mp, c in vector.terms]
    assert any(len(list(c.items())) > 1 for _, c in vector.terms)


def test_simples_and_defect(capsys):
    code, out, _ = run(["simples", "--ell", "3", "--weight", "2,2",
                        "--beta", "0,0,2,1"], capsys)
    assert code == 0 and out == "2\n"
    code, out, _ = run(["defect", "--ell", "3", "--weight", "2,2",
                        "--beta", "0,0,2,1"], capsys)
    assert code == 0 and out == "2\n"


def test_m_flag(capsys):
    code, out, _ = run(["classify", "--ell", "4", "--m", "0,0,2,0,0",
                        "--beta", "0,0,1,0,0"], capsys)
    assert code == 0 and out == "Finite (f1)\n"


def test_validation_exit_code(capsys):
    code, _, err = run(["classify", "--ell", "3", "--weight", "0,0",
                        "--beta", "1,2"], capsys)
    assert code == 2 and "error" in err
    code, _, err = run(["classify", "--ell", "3", "--weight", "9",
                        "--beta", "1,0,0,0"], capsys)
    assert code == 2


def test_guard_exit_code(capsys):
    code, _, err = run(["dims", "--ell", "2", "--weight", "0", "--beta", "5,10,5",
                        "--nu", "-".join(["0"] * 5 + ["1"] * 10 + ["2"] * 5)], capsys)
    assert code == 3 and "guard" in err
    code, _, err = run(["quiver", "--ell", "4", "--weight", "0,0,0",
                        "--max-vertices", "3"], capsys)
    assert code == 3


def test_vertex_guard_runs_before_the_class_is_enumerated(capsys):
    """The level-20 class at rank 16 has 3.65e9 members: the cap must trip on
    the count, not after enumerating them."""
    def overran(signum, frame):
        raise TimeoutError("the vertex guard overran its 2 s budget")

    previous = signal.signal(signal.SIGALRM, overran)
    signal.setitimer(signal.ITIMER_REAL, 2)
    try:
        start = time.perf_counter()
        code, out, err = run(["quiver", "--ell", "16", "--weight", ",".join(["0"] * 20)],
                             capsys)
        elapsed = time.perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert elapsed < 2
    assert code == 3 and out == ""
    assert "class has 3653957934 vertices, cap is 5000" in err


@pytest.mark.parametrize("argv,message", [
    (["fock", "--ell", "2", "--weight", ",".join(["0"] * 12), "--word", "2,1^2,0^4,1^2,0^3"],
     "12 components exceeds the cap of 5"),
    (["maxweights", "--ell", "16", "--weight", ",".join(["0"] * 12)],
     "class has 15212379 members, cap is 5000"),
])
def test_guards_run_before_the_work(argv, message, capsys):
    """A 12-component expansion and a class of 15.2 million members exit 3
    at once, on the component count and on ``class_size``."""
    def overran(signum, frame):
        raise TimeoutError("the guard overran its 2 s budget")

    previous = signal.signal(signal.SIGALRM, overran)
    signal.setitimer(signal.ITIMER_REAL, 2)
    try:
        start = time.perf_counter()
        code, out, err = run(argv, capsys)
        elapsed = time.perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert elapsed < 2
    assert code == 3 and out == ""
    assert message in err


def guarded_run(argv, message, capsys, status=3):
    """Run argv under tracemalloc with a peak under 1 MiB: it must exit 3 with
    ``message`` on stderr, or, with ``status`` 0, print ``message``."""
    cli.build_parser()
    tracemalloc.start()
    try:
        code, out, err = run(argv, capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == status
    if status == 3:
        assert out == "" and message in err
    else:
        assert out == message + "\n" and err == ""
    assert peak < 2 ** 20


@pytest.mark.parametrize("command,message", [
    ("maxweights", "class has 2250003000001 members, cap is 5000"),
    ("quiver", "class has 2250003000001 vertices, cap is 5000"),
])
def test_class_guard_runs_before_the_weight_is_built(command, message, capsys):
    """--m 0,0,3000000 names a level of three million in a few bytes; the
    class-size guard exits 3 on the multiplicities, before a weight with one
    charge per unit of level (46 MiB at this level) is built."""
    guarded_run([command, "--ell", "2", "--m", "0,0,3000000"], message, capsys)


@pytest.mark.parametrize("argv", [
    ["fock", "--ell", "2", "--m", "0,0,3000000", "--word", "0"],
    ["dims", "--ell", "2", "--m", "0,0,3000000", "--beta", "1,0,0", "--nu", "0"],
])
def test_component_guard_runs_before_the_weight_is_built(argv, capsys):
    """``fock`` and ``dims`` cap the level at 5 components on the parsed --m,
    before a weight with three million charges is built."""
    guarded_run(argv, "3000000 components exceeds the cap of 5", capsys)


@pytest.mark.parametrize("argv,expected", [
    (["classify", "--beta", "0,0,0"], "Finite"),
    (["classify", "--beta", "1,2,1"], "Wild (non-maximal-wild)"),
    (["classify", "--beta", "3,5,1"], "Zero"),
    (["simples", "--beta", "1,2,1"], "2"),
    (["defect", "--beta", "1,2,1"], "6000000"),
])
def test_weight_of_level_three_million_stays_small(argv, expected, capsys):
    """``classify``, ``simples`` and ``defect`` have no level cap and read only
    the multiplicities, so a weight of level three million answers in a few
    KiB: its default charge order, one entry per unit of level, is never
    built."""
    command, *rest = argv
    guarded_run([command, "--ell", "2", "--m", "0,0,3000000", *rest], expected, capsys,
                status=0)


def test_determinism(capsys):
    args = ["quiver", "--ell", "4", "--weight", "2,2", "--format", "tsv"]
    _, first, _ = run(args, capsys)
    _, second, _ = run(args, capsys)
    assert first == second


# an argparse error, a guard error, a validation error, then every subcommand
REUSE_QUERIES = [
    (["classify", "--ell", "3", "--bogus"], 2),
    (["quiver", "--ell", "4", "--weight", "0,0,0", "--max-vertices", "3"], 3),
    (["classify", "--ell", "3", "--weight", "0,0", "--beta", "1,2"], 2),
    (["classify", "--ell", "3", "--weight", "0,0", "--beta", "2,2,0,0", "--char", "2"], 0),
    (["quiver", "--ell", "3", "--weight", "1,2", "--format", "json"], 0),
    (["maxweights", "--ell", "3", "--weight", "0,2"], 0),
    (["dims", "--ell", "2", "--weight", "0,1", "--beta", "1,2,1", "--nu", "0-1-2-1"], 0),
    (["fock", "--ell", "2", "--weight", "0,0,1", "--word", "0,1^2,0"], 0),
    (["simples", "--ell", "3", "--weight", "2,2", "--beta", "0,0,2,1"], 0),
    (["defect", "--ell", "3", "--weight", "2,2", "--beta", "0,0,2,1", "--format", "json"], 0),
]


def outcomes(capsys):
    results = []
    for argv, _ in REUSE_QUERIES:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err))
    return results


def test_reused_parser_answers_like_a_fresh_one(capsys, monkeypatch):
    reused = outcomes(capsys)
    assert cli.build_parser() is cli.build_parser()
    assert cli.build_parser.cache_info().currsize == 1
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = outcomes(capsys)
    assert reused == fresh
    assert [code for code, _, _ in reused] == [code for _, code in REUSE_QUERIES]


@pytest.mark.parametrize("argv,dest,default", [
    (["quiver", "--ell", "2"], "max_vertices", DEFAULT_MAX_VERTICES),
    (["dims", "--ell", "2", "--beta", "1,0,0", "--nu", "0"], "max_n", DEFAULT_MAX_BOXES),
    (["fock", "--ell", "2", "--word", "0"], "max_n", DEFAULT_MAX_BOXES),
    (["simples", "--ell", "2", "--beta", "1,0,0"], "max_n", DEFAULT_MAX_HEIGHT),
])
def test_parser_defaults_are_the_library_caps(argv, dest, default):
    assert getattr(cli.build_parser().parse_args(argv), dest) == default


def test_import_builds_no_parser():
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    probe = "import klrc.cli as c; print(c.build_parser.cache_info().misses)"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout == "0\n"


# one comma-separated field: in range, out of range, empty or not an integer
FIELD = st.one_of(st.integers(0, 3).map(str), st.integers(-3, 22).map(str),
                  st.sampled_from(["", "x", "1.5", " ", "0x1", "--", "1e3", "30000"]),
                  st.text(max_size=3))
EXIT_BUDGET_S = 10


# a --beta or --char value: huge, negative or composite
HOSTILE_INT = st.one_of(st.integers(-10 ** 20, 10 ** 20), st.integers(-6, 40)).map(str)


@st.composite
def hostile_argv(draw):
    """A subcommand with a rank in -1..20, charges or multiplicities and its
    own flags, each usually well formed and otherwise hostile or missing: a
    rank or field that is out of range, empty or not an integer; for
    ``quiver`` and ``maxweights`` a --max-vertices that is zero or negative (an
    argparse error for maxweights) or an unknown format; for ``classify``,
    ``simples`` and ``defect`` a --beta of the wrong length, with negative or
    huge entries, and for ``classify`` a --char that is negative, composite,
    1 or huge; for ``dims`` a --nu or --nu2 with residues out of range or of
    the wrong content, empty or not integers, and for ``fock`` a --word with
    powers that are zero, negative, huge or missing, residues out of range
    and empty factors.  --max-n stays at its default."""
    def sometimes(value, hostile):
        return draw(hostile) if not draw(st.integers(0, 4)) else value

    ell = draw(st.integers(-1, 20))
    command = draw(st.sampled_from(["quiver", "maxweights", "classify", "simples", "defect",
                                    "dims", "fock"]))
    argv = [command, "--ell", sometimes(str(ell), st.one_of(FIELD, st.just(None)))]
    # well formed: one to five small charges, or ell+1 small multiplicities
    source = draw(st.sampled_from(["--weight", "--m"]))
    lo, hi = (1, 5) if source == "--weight" else (max(ell + 1, 1),) * 2
    fields = st.lists(st.integers(0, 3).map(str), min_size=lo, max_size=hi)
    argv += [source, ",".join(sometimes(draw(fields), st.lists(FIELD, max_size=6)))]
    if command in ("quiver", "maxweights"):
        if command == "quiver" or not draw(st.integers(0, 4)):
            argv += ["--max-vertices", str(sometimes(500, st.integers(-5, 50)))]
        formats = ["text", "json", "dot", "tsv"][:4 if command == "quiver" else 2]
        argv += ["--format", sometimes(draw(st.sampled_from(formats)), st.just("yaml"))]
        return [arg for arg in argv if arg is not None]
    size = max(ell + 1, 1)
    residue = st.integers(0, size - 1).map(str)
    if command == "fock":
        factor = st.builds(lambda i, r: i if r == 1 else f"{i}^{r}", residue, st.integers(1, 3))
        hostile_factor = st.one_of(factor, FIELD, st.builds("{}^{}".format, FIELD, FIELD),
                                   st.builds("{}^{}".format, residue, HOSTILE_INT))
        word = sometimes(draw(st.lists(factor, min_size=1, max_size=5)),
                         st.lists(hostile_factor, max_size=6))
        argv += ["--word", ",".join(word), "--format", draw(st.sampled_from(["text", "json"]))]
        return [arg for arg in argv if arg is not None]
    beta = st.lists(st.integers(0, 4).map(str), min_size=size, max_size=size)
    if command == "dims":  # a well-formed --beta is the content of --nu
        nu = draw(st.lists(residue, min_size=1, max_size=8))
        beta = st.just([str(nu.count(str(i))) for i in range(size)])
    hostile_beta = st.lists(st.one_of(FIELD, HOSTILE_INT), max_size=size + 2)
    argv += ["--beta", ",".join(sometimes(draw(beta), hostile_beta))]
    if command == "dims":
        hostile_nu = st.lists(st.one_of(residue, FIELD), max_size=8)
        argv += ["--nu", "-".join(sometimes(nu, hostile_nu))]
        if draw(st.booleans()):
            argv += ["--nu2", "-".join(sometimes(draw(st.permutations(nu)), hostile_nu))]
    if command == "classify":
        argv += ["--char", sometimes(draw(st.sampled_from(["0", "2", "3", "5"])), HOSTILE_INT)]
    argv += ["--format", draw(st.sampled_from(["text", "json"]))]
    return [arg for arg in argv if arg is not None]


@settings(max_examples=280, deadline=None, database=None)
@given(hostile_argv())
def test_cli_exit_contract(argv):
    """Every argv ends in exit 0, 2 or 3 within the budget, never a traceback;
    an argparse error raises SystemExit(2)."""
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3), argv
    assert time.perf_counter() - start < EXIT_BUDGET_S, argv
