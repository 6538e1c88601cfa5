import argparse
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
from hypothesis import example, given, settings, strategies as st

import klrc.maxweights
from klrc import cli
from klrc.cartan import DominantWeight, RootVector
from klrc.cli import main
from klrc.fock import DEFAULT_MAX_BOXES
from klrc.maxweights import DEFAULT_MAX_VERTICES, beta_of, class_members, defect
from klrc.multiplicity import DEFAULT_MAX_HEIGHT
from klrc.quiver import FORMATS, build_quiver, export, render
import reference
from test_golden_replay import replayed_queries, run_captured


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


@pytest.mark.parametrize("nu2", [["--nu2", ""], ["--nu2="]], ids=["table", "argparse"])
def test_empty_nu2_is_refused_like_an_empty_nu(nu2, capsys):
    """An empty --nu2, read from the option table or by argparse, is a
    residue sequence that does not parse, as an empty --nu is: exit 2, the
    same error naming its own option and nothing on stdout, not the answer
    for nu' = nu."""
    argv = ["dims", "--ell", "2", "--m", "1,0,0", "--beta", "1,0,0", "--nu"]
    assert run(argv + ["0"], capsys) == (0, "1\n", "")
    refused = run(argv + [""], capsys)
    assert refused == (2, "", "error: --nu entry 1 is not an integer: ''\n")
    assert (cli._read_args(argv + ["0", *nu2]) is None) == (len(nu2) == 1)
    assert run(argv + ["0", *nu2], capsys) == \
        (2, "", "error: --nu2 entry 1 is not an integer: ''\n")


@pytest.mark.parametrize("flag, value, error", [
    ("--m", "1,x,0", "--m entry 2 is not an integer: 'x'"),
    ("--weight", "0,1.5", "--weight entry 2 is not an integer: '1.5'"),
    ("--beta", "1,0,", "--beta entry 3 is not an integer: ''"),
    ("--nu", "0-a", "--nu entry 2 is not an integer: 'a'"),
    ("--nu2", "0 0", "--nu2 entry 1 is not an integer: '0 0'"),
], ids=["m", "weight", "beta", "nu", "nu2"])
@pytest.mark.parametrize("form", ["table", "argparse"])
def test_a_list_entry_that_is_not_an_integer_is_named(flag, value, error, form, capsys):
    """Every integer-list option names itself and the first entry, counted
    from 1, that is not an integer: exit 2 and nothing on stdout, whether the
    option table or argparse reads the argv."""
    options = {"--ell": "2", "--m": "1,0,0", "--beta": "1,0,0", "--nu": "0"}
    if flag == "--weight":
        del options["--m"]
    options[flag] = value
    if form == "table":
        argv = ["dims", *[part for pair in options.items() for part in pair]]
    else:
        argv = ["dims", *[f"{name}={text}" for name, text in options.items()]]
    assert (cli._read_args(argv) is None) == (form == "argparse")
    assert run(argv, capsys) == (2, "", f"error: {error}\n")


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(),
                    reason="this Python reads integers of any length")
@pytest.mark.parametrize("form", ["table", "argparse"])
def test_an_entry_past_the_digit_limit_names_the_limit(form, capsys):
    """A --beta entry that ``int`` refuses only for its length names the
    digit limit, ``sys.get_int_max_str_digits()``, not a bad literal, and an
    entry that is not an integer echoes no more than its first 20
    characters: exit 2, nothing on stdout and a short stderr, whether the
    option table or argparse reads the argv."""
    limit = sys.get_int_max_str_digits()
    for beta, error in [
            ("1" + "0" * limit + ",0,0",
             f"--beta entry 1 has {limit + 1} digits, more than the limit of {limit} "
             f"(sys.get_int_max_str_digits())"),
            ("1,x" + "0" * limit + ",0",
             f"--beta entry 2 is not an integer: 'x0000000000000000000'... "
             f"({limit + 1} characters)")]:
        options = {"--ell": "2", "--m": "1,0,0", "--beta": beta}
        if form == "table":
            argv = ["simples", *[part for pair in options.items() for part in pair]]
        else:
            argv = ["simples", *[f"{name}={text}" for name, text in options.items()]]
        assert (cli._read_args(argv) is None) == (form == "argparse")
        assert run(argv, capsys) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize("form", ["table", "argparse"])
def test_a_word_factor_that_is_not_an_integer_is_named(form, capsys):
    """A --word residue or power that ``int`` refuses names --word and the
    factor, counted from 1, echoes at most its first 20 characters, and, if
    it is refused only for its length, names the digit limit: exit 2 and
    nothing on stdout, whether the option table or argparse reads the argv.
    An empty factor before it is refused first, as ``parse_word`` refuses it."""
    cases = [("0,1^x", "--word factor 2 power is not an integer: 'x'"),
             ("y^2,0", "--word factor 1 residue is not an integer: 'y'"),
             ("0,1^2^3", "--word factor 2 power is not an integer: '2^3'"),
             ("0,1," + "z" * 25, f"--word factor 3 residue is not an integer: "
                                 f"{'z' * 20!r}... (25 characters)"),
             ("0,,x", "empty factor in word")]
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit (< 3.10.7)
    if limit:
        cases.append(("0,1^1" + "0" * limit,
                      f"--word factor 2 power has {limit + 1} digits, more than the limit "
                      f"of {limit} (sys.get_int_max_str_digits())"))
    for word, error in cases:
        options = {"--ell": "2", "--m": "1,0,0", "--word": word}
        if form == "table":
            argv = ["fock", *[part for pair in options.items() for part in pair]]
        else:
            argv = ["fock", *[f"{name}={text}" for name, text in options.items()]]
        assert (cli._read_args(argv) is None) == (form == "argparse")
        assert run(argv, capsys) == (2, "", f"error: {error}\n")


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


# the classes rooted at (level − parity)Λ0 + parityΛ1 for ell 2-10 and level 1-3
MAXWEIGHTS_CASES = [(parity, level, ell) for parity in (0, 1) for level in range(1, 4)
                    for ell in range(2, 11)]


@pytest.mark.parametrize("parity,level,ell", MAXWEIGHTS_CASES)
def test_maxweights_matches_the_value_objects(parity, level, ell, capsys):
    """``klrc maxweights`` text and json against the payload built from
    ``class_members``, ``beta_of``, ``defect`` and ``str`` of the root vector."""
    weight = DominantWeight((level - parity, parity) + (0,) * (ell - 1))
    data = [beta_of(weight, member) for member in class_members(weight)]
    defects = [defect(weight, datum.x) for datum in data]
    argv = ["maxweights", "--ell", str(ell), "--m", ",".join(map(str, weight.m))]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out == "".join(f"{datum.weight}\tX={datum.x.coeffs}\tdefect={d}\n"
                          for datum, d in zip(data, defects))
    code, out, _ = run(argv + ["--format", "json"], capsys)
    assert code == 0
    payload = {"ell": ell, "root": list(weight.m),
               "members": [{"m": list(datum.weight.m), "X": list(datum.x.coeffs),
                            "beta": str(datum.x), "defect": d}
                           for datum, d in zip(data, defects)]}
    assert out == json.dumps(payload, ensure_ascii=False) + "\n"


def test_maxweights_at_a_deep_rank(capsys):
    """The class of Λ0 at rank 1,200, over the default rank cap: 601 lines,
    exit 0."""
    m = ",".join(["1"] + ["0"] * 1200)
    code, out, err = run(["maxweights", "--ell", "1200", "--max-rank", "2000", "--m", m], capsys)
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 601


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
    assert "class has 3653957934 members, cap is 5000" in err


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
    ("quiver", "class has 2250003000001 members, cap is 5000"),
])
def test_class_guard_runs_before_the_weight_is_built(command, message, capsys):
    """--m 0,0,3000000 names a level of three million in a few bytes.  The
    weight is built at O(rank) cost, as it stores its multiplicities alone,
    and the class-size cap exits 3 on the class count, before any member is
    enumerated."""
    guarded_run([command, "--ell", "2", "--m", "0,0,3000000"], message, capsys)


def test_a_class_too_deep_for_its_lanes_exits_3_before_any_member(monkeypatch, capsys):
    """The class of 2^56 Λ0 at rank 2 has about 2^109 members, within a raised
    vertex cap, but rank times level is 2^57, the depth at which the class
    pass's biased 64-bit digits could reach their guard bits: the lane bound
    exits 3 on the class's rank and level, before any member is built, and
    so under ``python -O`` too."""
    def enumerated(*_):
        raise AssertionError("the class was enumerated")

    monkeypatch.setattr(klrc.maxweights, "combinations_with_replacement", enumerated)
    guarded_run(["quiver", "--ell", "2", "--m", f"{2 ** 56},0,0", "--max-vertices", f"{10 ** 40}"],
                "rank times level is 144115188075855872, cap is 144115188075855871", capsys)


@pytest.mark.parametrize("argv", [
    ["fock", "--ell", "2", "--m", "0,0,3000000", "--word", "0"],
    ["dims", "--ell", "2", "--m", "0,0,3000000", "--beta", "1,0,0", "--nu", "0"],
])
def test_component_guard_runs_before_the_weight_is_built(argv, capsys):
    """``fock`` and ``dims`` cap the level at 5 components.  The weight is
    built at O(rank) cost, as it stores its multiplicities alone, and the
    Fock engine refuses its three million components before any step."""
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
    """Each format, on a quiver with arrows (rank 4, charges 2,2) and on one
    without (rank 2, charge 1): two runs print the same bytes, which are
    ``export``'s, the final newline included."""
    for ell, charges, arrows in ((4, [2, 2], 18), (2, [1], 0)):
        quiver = build_quiver(DominantWeight.from_charges(charges, ell))
        assert len(quiver.rows) == arrows
        for fmt in FORMATS:
            args = ["quiver", "--ell", str(ell), "--weight", ",".join(map(str, charges)),
                    "--format", fmt]
            first, second = run(args, capsys), run(args, capsys)
            assert first == second == (0, export(quiver, fmt), ""), args


class CharCount:
    """A stdout that keeps only the number of characters written to it."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("fmt", list(FORMATS))
def test_quiver_output_is_written_as_it_is_rendered(fmt):
    """The rank-10 class of charges 1,3,4,8 (511 vertices, 4,350 arrows, 1.68
    million characters of json) written to a sink that only counts: the peak
    traced memory, the quiver's build included, stays under 2 MiB, far below
    the size of the text."""
    argv = ["quiver", "--ell", "10", "--weight", "1,3,4,8", "--format", fmt]
    sink = CharCount()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    quiver = build_quiver(DominantWeight.from_charges([1, 3, 4, 8], 10))
    assert code == 0 and sink.chars == len(export(quiver, fmt))
    assert peak < 2 * 2 ** 20, peak


class WriteLog(io.StringIO):
    """A stdout that keeps the text written to it and counts the writes."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def test_quiver_output_is_written_in_bounded_chunks():
    """The tsv quiver of 6Λ6 at rank 6 (472 vertices, 4,470 arrows, one
    rendered piece per line) comes out in at most
    ceil(pieces / WRITE_PIECES) + 1 writes, with the exact text of its
    rendered pieces."""
    argv = ["quiver", "--ell", "6", "--m", "0,0,0,0,0,0,6", "--format", "tsv"]
    sink = WriteLog()
    with contextlib.redirect_stdout(sink):
        assert main(argv) == 0
    pieces = list(render(build_quiver(DominantWeight((0, 0, 0, 0, 0, 0, 6))), "tsv"))
    assert len(pieces) == 4_471
    assert sink.getvalue() == "".join(pieces)
    assert sink.writes <= -(-len(pieces) // cli.WRITE_PIECES) + 1, sink.writes


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


def pool_queries(*workloads):
    return [text.split() for workload in workloads for text, _, _ in replayed_queries(workload)]


def test_subcommand_parser_parses_like_the_full_parser():
    """Every first-variant and fixed query of the four benchmark pools gets
    the same namespace from its subcommand's own parser as from the full
    parser, apart from the full parser's ``command``, and the same again from
    the option table's reader."""
    parser = cli.build_parser()
    queries = pool_queries("quiver", "dims", "fock", "blocks")
    assert {argv[0] for argv in queries} == set(parser.subcommands) == set(cli.COMMANDS)
    for argv in queries:
        full = vars(parser.parse_args(argv))
        assert full.pop("command") == argv[0]
        assert vars(parser.subcommands[argv[0]].parse_args(argv[1:])) == full, argv
        assert vars(cli._read_args(argv)) == full, argv


def test_a_pool_query_runs_no_argparse_pass(capsys, monkeypatch):
    """A query of exact ``--name value`` pairs builds no parser and runs no
    argparse pass; the same query with ``--ell=3`` runs one pass, of its
    subcommand's parser."""
    passes, builds = [], []
    parse_known_args = argparse.ArgumentParser.parse_known_args
    build_parser = cli.build_parser

    def counted(self, *args, **kwargs):
        passes.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    def built():
        builds.append(None)
        return build_parser()

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    monkeypatch.setattr(cli, "build_parser", built)
    for argv in pool_queries("blocks"):
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert (passes, builds) == ([], [])
    code, out, _ = run(["simples", "--ell=3", "--weight", "2,2", "--beta", "0,0,2,1"], capsys)
    assert (code, out) == (0, "2\n")
    assert passes == ["klrc simples"]


# a value that int() reads, one it does not, a bad choice, or one argparse
# takes for an option
NEAR_VALUE = st.one_of(st.sampled_from(["x", "", "1.5", " 3", "+3", "3_0", "\u0663", "0x1",
                                        "yaml", "TEXT", "json"]),
                       st.sampled_from(["-3", "-1,2", "--", "-h", "--help", "--ell", "-x"]),
                       st.text(max_size=3))
# a flag that is undeclared, declared for another subcommand, or an option
# argparse reads specially
NEAR_FLAG = st.sampled_from(["--bogus", "--char", "--max-n", "--max-vertices", "--nu2",
                             "--word", "--format", "--", "-h", "--help", "-", "--weight",
                             "--m"])


NEAR_MISS_POOL = pool_queries("dims", "fock", "blocks") + [
    ["quiver", "--ell", "4", "--weight", "2,2", "--format", "dot"],
    ["maxweights", "--ell", "3", "--m", "1,0,0,1", "--format", "json"]]


@st.composite
def near_miss_argv(draw):
    """A pool query with one or two edits, each of which argparse may or
    may not accept: ``--name=value``, an abbreviated flag, a dropped or
    repeated option, a dropped value, a near-miss value, a --format choice,
    or an inserted flag or pair."""
    argv = list(draw(st.sampled_from(NEAR_MISS_POOL)))
    for _ in range(draw(st.integers(1, 2))):
        pairs = len(argv) // 2
        i = 2 * draw(st.integers(0, pairs - 1)) + 1 if pairs else 1
        edit = draw(st.sampled_from(["equals", "abbreviate", "drop", "repeat", "drop value",
                                     "value", "format", "insert", "insert pair"]))
        if pairs and i + 1 < len(argv) and edit == "equals":
            argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
        elif pairs and len(argv[i]) > 3 and edit == "abbreviate":
            argv[i] = argv[i][:draw(st.integers(3, len(argv[i]) - 1))]
        elif pairs and edit == "drop":
            del argv[i:i + 2]
        elif pairs and edit == "repeat":  # before the first, which argparse also reads
            argv[1:1] = [argv[i], draw(st.one_of(st.just(argv[min(i + 1, len(argv) - 1)]),
                                                 NEAR_VALUE))]
        elif pairs and i + 1 < len(argv) and edit == "drop value":
            del argv[i + 1]
        elif pairs and i + 1 < len(argv) and edit == "value":
            argv[i + 1] = draw(NEAR_VALUE)
        elif edit == "format":  # a choice of another subcommand, or none
            argv += ["--format", draw(st.sampled_from(["text", "json", "dot", "tsv", "yaml",
                                                       "Text"]))]
        elif edit == "insert":
            argv.insert(draw(st.integers(1, len(argv))), draw(NEAR_FLAG))
        else:
            argv[i:i] = [draw(NEAR_FLAG), draw(NEAR_VALUE)]
    return argv


# one argv per check of the reader that only that check refuses, so that each
# recorded mutant dropping one check is killed on every run
@settings(max_examples=400, deadline=None, database=None)
@given(near_miss_argv())
@example(["defect", "--ell", "2", "--m", "1,0,0", "--beta", "1,0,0", "--format", "dot"])  # choice
@example(["fock", "--ell", "2", "--weight", "0,0,1", "--word", "-x"])  # a leading "-"
@example(["defect", "--m", "1,0,0", "--beta", "1,0,0"])  # no --ell
@example(["defect", "--ell", "x", "--m", "1,0,0", "--beta", "1,0,0"])  # not an int
@example(["defect", "--ell", "2", "--m", "1,0,0", "--beta", "1,0,0", "--bogus", "1"])  # undeclared
@example(["defect", "--ell", "2", "--m", "1,0,0", "--beta", "1,0,0", "--format"])  # no value
def test_reader_reads_like_argparse_or_not_at_all(argv):
    """On a near-miss argv the option table's reader gives nothing, or
    exactly the namespace of the subcommand's own parser."""
    expected = None
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        with contextlib.suppress(SystemExit):
            expected = vars(cli.build_parser().subcommands[argv[0]].parse_args(argv[1:]))
    read = cli._read_args(argv)
    assert read is None or vars(read) == expected, argv


@pytest.mark.parametrize("ell", [["--ell", "3"], ["--ell=3"]])
def test_weight_and_m_together_are_refused(ell, capsys):
    """--weight and --m both name the weight: giving both is an error, read
    by the option table's reader or by argparse."""
    code, out, err = run(["simples", *ell, "--weight", "2,2", "--m", "1,0,0,0",
                          "--beta", "0,0,2,1"], capsys)
    assert (code, out, err) == (2, "", "error: give --weight or --m, not both\n")


TOP_USAGE = "usage: klrc [-h] {classify,quiver,maxweights,dims,fock,simples,defect} ...\n"
CHOICES = "(choose from 'classify', 'quiver', 'maxweights', 'dims', 'fock', 'simples', 'defect')"


@pytest.mark.parametrize("argv,stderr", [
    ([], TOP_USAGE + "klrc: error: the following arguments are required: command\n"),
    (["nope"], TOP_USAGE + f"klrc: error: argument command: invalid choice: 'nope' {CHOICES}\n"),
    (["--ell", "2", "quiver"], TOP_USAGE + "klrc: error: option --ell comes before the "
     "subcommand; the subcommand comes first: klrc COMMAND --ell ...\n"),
    (["simples", "--ell", "3", "--weight", "2,2", "--beta", "0,0,2,1", "--bogus"],
     "usage: klrc simples [-h] --ell ELL [--max-rank MAX_RANK] [--weight WEIGHT]\n"
     "                    [--m M] --beta BETA [--format {text,json}] [--max-n MAX_N]\n"
     "klrc simples: error: unrecognized arguments: --bogus\n"),
    (["-"], TOP_USAGE + f"klrc: error: argument command: invalid choice: '-' {CHOICES}\n"),
])
def test_argparse_errors(argv, stderr, capsys, monkeypatch):
    """An argv that does not start with a subcommand name gets the full
    parser's messages, and one that starts with an option is told that the
    subcommand comes first; an unrecognized option after a subcommand is
    reported by that subcommand's parser, under its usage line."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out, captured.err) == (2, "", stderr)


# `klrc --help` and `klrc <subcommand> --help` at COLUMNS=80
HELP = {
    "": (
        "usage: klrc [-h] {classify,quiver,maxweights,dims,fock,simples,defect} ...\n"
        "\n"
        "Exact computations for cyclotomic KLR algebras in affine type C.\n"
        "\n"
        "positional arguments:\n"
        "  {classify,quiver,maxweights,dims,fock,simples,defect}\n"
        "    classify            representation type of a block\n"
        "    quiver              directed quiver on the dominant maximal weights\n"
        "    maxweights          class members with minimal solution vectors\n"
        "    dims                graded dimension of an idempotent truncation\n"
        "    fock                expand a divided-power word at the vacuum\n"
        "    simples             number of simple modules of a block\n"
        "    defect              defect of a block\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"),
    "classify": (
        "usage: klrc classify [-h] --ell ELL [--max-rank MAX_RANK] [--weight WEIGHT]\n"
        "                     [--m M] --beta BETA [--format {text,json}] [--char CHAR]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --ell ELL             rank, at least 2\n"
        "  --max-rank MAX_RANK\n"
        "  --weight WEIGHT       fundamental indices with repetition, e.g. 0,0,2\n"
        "  --m M                 multiplicity vector alternative, e.g. 2,0,1\n"
        "  --beta BETA           root coefficients x0,x1,...,xl\n"
        "  --format {text,json}\n"
        "  --char CHAR           field characteristic (0 or a prime below 2^32)\n"),
    "quiver": (
        "usage: klrc quiver [-h] --ell ELL [--max-rank MAX_RANK] [--weight WEIGHT]\n"
        "                   [--m M] [--format {text,dot,json,tsv}]\n"
        "                   [--max-vertices MAX_VERTICES]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --ell ELL             rank, at least 2\n"
        "  --max-rank MAX_RANK\n"
        "  --weight WEIGHT       fundamental indices with repetition, e.g. 0,0,2\n"
        "  --m M                 multiplicity vector alternative, e.g. 2,0,1\n"
        "  --format {text,dot,json,tsv}\n"
        "  --max-vertices MAX_VERTICES\n"),
    "maxweights": (
        "usage: klrc maxweights [-h] --ell ELL [--max-rank MAX_RANK] [--weight WEIGHT]\n"
        "                       [--m M] [--format {text,json}]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --ell ELL             rank, at least 2\n"
        "  --max-rank MAX_RANK\n"
        "  --weight WEIGHT       fundamental indices with repetition, e.g. 0,0,2\n"
        "  --m M                 multiplicity vector alternative, e.g. 2,0,1\n"
        "  --format {text,json}\n"),
    "dims": (
        "usage: klrc dims [-h] --ell ELL [--max-rank MAX_RANK] [--weight WEIGHT]\n"
        "                 [--m M] --beta BETA [--format {text,json}] --nu NU\n"
        "                 [--nu2 NU2] [--max-n MAX_N]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --ell ELL             rank, at least 2\n"
        "  --max-rank MAX_RANK\n"
        "  --weight WEIGHT       fundamental indices with repetition, e.g. 0,0,2\n"
        "  --m M                 multiplicity vector alternative, e.g. 2,0,1\n"
        "  --beta BETA           root coefficients x0,x1,...,xl\n"
        "  --format {text,json}\n"
        "  --nu NU               residue sequence, e.g. 0-1-2-1\n"
        "  --nu2 NU2             second residue sequence (defaults to --nu)\n"
        "  --max-n MAX_N\n"),
    "fock": (
        "usage: klrc fock [-h] --ell ELL [--max-rank MAX_RANK] [--weight WEIGHT]\n"
        "                 [--m M] [--format {text,json}] --word WORD [--max-n MAX_N]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --ell ELL             rank, at least 2\n"
        "  --max-rank MAX_RANK\n"
        "  --weight WEIGHT       fundamental indices with repetition, e.g. 0,0,2\n"
        "  --m M                 multiplicity vector alternative, e.g. 2,0,1\n"
        "  --format {text,json}\n"
        "  --word WORD           factors i^r,...; the leftmost factor acts last, e.g.\n"
        "                        0,1^2,0\n"
        "  --max-n MAX_N\n"),
    "simples": (
        "usage: klrc simples [-h] --ell ELL [--max-rank MAX_RANK] [--weight WEIGHT]\n"
        "                    [--m M] --beta BETA [--format {text,json}] [--max-n MAX_N]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --ell ELL             rank, at least 2\n"
        "  --max-rank MAX_RANK\n"
        "  --weight WEIGHT       fundamental indices with repetition, e.g. 0,0,2\n"
        "  --m M                 multiplicity vector alternative, e.g. 2,0,1\n"
        "  --beta BETA           root coefficients x0,x1,...,xl\n"
        "  --format {text,json}\n"
        "  --max-n MAX_N\n"),
    "defect": (
        "usage: klrc defect [-h] --ell ELL [--max-rank MAX_RANK] [--weight WEIGHT]\n"
        "                   [--m M] --beta BETA [--format {text,json}]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --ell ELL             rank, at least 2\n"
        "  --max-rank MAX_RANK\n"
        "  --weight WEIGHT       fundamental indices with repetition, e.g. 0,0,2\n"
        "  --m M                 multiplicity vector alternative, e.g. 2,0,1\n"
        "  --beta BETA           root coefficients x0,x1,...,xl\n"
        "  --format {text,json}\n"),
}


@pytest.mark.parametrize("command", list(HELP))
def test_help_text(command, capsys, monkeypatch):
    """``--help`` prints the top-level or the subcommand's help, exit 0."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"] if command else ["--help"])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out, captured.err) == (0, HELP[command], "")


# the first line of each format of the quiver of --ell 6 --m 0,0,0,0,0,0,6
FIRST_LINES = {"text": "root 6Λ6  vertices 472  arrows 4470\n", "dot": "digraph maxweights {\n",
               "json": "{\n", "tsv": "#source\ttarget\tlabel\tdelta\n"}


@pytest.mark.parametrize("fmt", list(FORMATS))
def test_closed_stdout_ends_in_exit_zero(fmt):
    """A reader that leaves after the first line of an output larger than a
    pipe holds (180 KB of dot to 1.3 MB of json): the pipe breaks between two
    written pieces, the rest is dropped, and the query ends in exit 0 with no
    traceback."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    argv = ["quiver", "--ell", "6", "--m", "0,0,0,0,0,0,6", "--format", fmt]
    proc = subprocess.Popen([sys.executable, "-m", "klrc.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert first == FIRST_LINES[fmt].encode()
    assert (code, err) == (0, "")


DEEP_BUDGET_S = 60  # about 7 s on a 2-vCPU x86_64 VM


@pytest.mark.deep
def test_height_1000_ends_in_exit_zero():
    """A ``simples`` query at height 1,000 ends in exit 0 with its answer and
    an empty stderr within the budget: the sums run from a worklist, so the
    stack does not grow with the height.  The answer is the one the recursive
    evaluation gives with an unbounded cache and a raised stack."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    argv = ["simples", "--ell", "2", "--m", "1,0,0", "--beta", "250,500,250", "--max-n", "100000"]
    done = subprocess.run([sys.executable, "-m", "klrc.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=DEEP_BUDGET_S)
    assert (done.returncode, done.stdout, done.stderr) == (0, "442756902372368391813468\n", "")


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
def hostile_argv(draw, commands=("quiver", "maxweights", "classify", "simples", "defect",
                                 "dims", "fock")):
    """One of ``commands`` with a rank in -1..20, charges or multiplicities and its
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
    command = draw(st.sampled_from(commands))
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


BLOCKS = ("classify", "simples", "defect")


# one argv at each refusal of the shared validators, the cone check first, so
# that the recorded mutant dropping the cone check is killed on every run
@settings(max_examples=300, deadline=None, database=None)
@given(hostile_argv(BLOCKS))
@example(["classify", "--ell", "2", "--m", "1,0,0", "--beta", "0,-1,0"])  # cone
@example(["simples", "--ell", "2", "--m", "1,0,0", "--beta", "0,-1,0"])
@example(["defect", "--ell", "2", "--m", "1,0,0", "--beta", "0,-1,0"])
@example(["simples", "--ell", "2", "--m", "1,-1,0", "--beta", "0,1,0"])  # nonnegative m
@example(["defect", "--ell", "2", "--weight", "0,3", "--beta", "0,1,0"])  # charge range
@example(["classify", "--ell", "2", "--m", "1,0,0", "--beta", "0,1"])  # beta length
def test_blocks_queries_answer_as_the_value_object_route(argv):
    """A ``classify``, ``simples`` or ``defect`` argv, well formed or hostile,
    gives the exit status, stdout and stderr of ``reference.blocks_query``,
    which parses through the value objects and calls the public engines."""
    assert reference.blocks_query(argv) == run_captured(argv), argv


def test_blocks_queries_build_no_value_object(monkeypatch, capsys):
    """Each ``classify``, ``simples`` and ``defect`` query of the blocks pool
    goes from argv to the plain-tuple kernels and builds no ``DominantWeight``
    or ``RootVector``; a ``dims`` query still builds its ``DominantWeight``.
    Both ``__post_init__`` methods are wrapped, as the benchmark's tracer
    wraps them."""
    built = []
    for cls in (DominantWeight, RootVector):
        def counted(self, post_init=cls.__post_init__):
            built.append(type(self).__name__)
            post_init(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    queries = pool_queries("blocks")
    assert {argv[0] for argv in queries} == set(BLOCKS)
    for argv in queries:
        assert main(argv) == 0, argv
    assert built == []
    assert run(["dims", "--ell", "2", "--weight", "0,1", "--beta", "1,2,1",
                "--nu", "0-1-2-1"], capsys)[0] == 0
    assert built.count("DominantWeight") == 1
