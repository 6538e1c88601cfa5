"""Command-line frontend.

Subcommands: classify, quiver, maxweights, dims, fock, simples, defect.
Data goes to stdout, diagnostics to stderr; exit status is 0 on success,
2 on a validation error and 3 when a size guard is exceeded.

Each subcommand's options are declared once, in ``COMMANDS``.  A query of
exact ``--name value`` pairs is read straight from that table; argparse,
built from the same table, reads every other argv and writes all usage,
help and error text.
"""

from __future__ import annotations

import json
import os
import sys
from collections import namedtuple
from collections.abc import Iterator
from functools import lru_cache
from itertools import islice
from types import SimpleNamespace

from .cartan import DEFAULT_MAX_RANK, DominantWeight, GuardError, RootVector, _column_terms
from .classifier import classify
from .fock import DEFAULT_MAX_BOXES, FWord, expand, graded_hom_dim, hom_dim, parse_word
from .laurent import polynomial_text
from .maxweights import DEFAULT_MAX_VERTICES, _class_columns, _defects, defect
from .multiplicity import DEFAULT_MAX_HEIGHT, weight_multiplicity
from .quiver import FORMATS, build_quiver, render

EXIT_VALIDATION = 2
EXIT_GUARD = 3
# the most rendered pieces joined into one write: a capped quiver is a few
# hundred writes, not one per line, and a write holds a few hundred KiB at most
WRITE_PIECES = 256


def _int(entry: str, name: str) -> int:
    """``entry`` as an integer; a ValueError calls it ``name`` and echoes at
    most its first 20 characters.  An entry of more digits than ``int`` reads
    (``sys.get_int_max_str_digits()``) is reported as such."""
    try:
        return int(entry)
    except ValueError:
        digits = entry.strip().lstrip("+-").replace("_", "")
        limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit (< 3.10.7)
        if digits.isdecimal() and 0 < limit < len(digits):
            raise ValueError(f"{name} has {len(digits)} digits, more than the "
                             f"limit of {limit} (sys.get_int_max_str_digits())") from None
        shown = (repr(entry) if len(entry) <= 20
                 else f"{entry[:20]!r}... ({len(entry)} characters)")
        raise ValueError(f"{name} is not an integer: {shown}") from None


def _ints(text: str, flag: str, sep: str = ",") -> list[int]:
    """The entries of ``flag``'s value ``text``, split at ``sep``, as integers;
    ``_int`` names a refused one by ``flag`` and its place, counted from 1."""
    entries = text.split(sep)
    try:
        return list(map(int, entries))
    except ValueError:
        return [_int(entry, f"{flag} entry {n}") for n, entry in enumerate(entries, 1)]


def _word(text: str) -> FWord:
    """``--word`` read by ``parse_word``, once ``_int`` reads the residue and
    power of each factor, counted from 1, up to the first empty one."""
    for n, factor in enumerate(text.split(","), 1):
        if not factor.strip():
            break  # parse_word refuses it as an empty factor
        for part, name in zip(factor.split("^", 1), ("residue", "power")):
            _int(part, f"--word factor {n} {name}")
    return parse_word(text)


def _parse_weight(args) -> DominantWeight:
    """The weight of --m or --weight, not both.  Only the rank is capped here:
    a weight stores its multiplicities alone, so a level of millions costs a
    few bytes, and each level-dependent cap is raised by the library call it
    guards."""
    if args.weight is not None and args.m is not None:
        raise ValueError("give --weight or --m, not both")
    ell = args.ell
    if ell < 2:
        raise ValueError("--ell must be at least 2")
    if ell > args.max_rank:
        raise GuardError(f"rank {ell} exceeds the cap of {args.max_rank}")
    if args.m:
        m = tuple(_ints(args.m, "--m"))
        if len(m) != ell + 1:
            raise ValueError(f"--m needs {ell + 1} entries")
        return DominantWeight(m)
    if not args.weight:
        raise ValueError("a weight is required (--weight or --m)")
    return DominantWeight.from_charges(_ints(args.weight, "--weight"), ell)


def _parse_beta(args) -> RootVector:
    coeffs = _ints(args.beta, "--beta")
    if len(coeffs) != args.ell + 1:
        raise ValueError(f"--beta needs {args.ell + 1} entries")
    beta = RootVector(tuple(coeffs))
    if not beta.in_positive_cone():
        raise ValueError("--beta must have nonnegative entries")
    return beta


def _cmd_classify(args) -> str:
    weight = _parse_weight(args)
    verdict = classify(weight, _parse_beta(args), args.char)
    if args.format == "json":
        return json.dumps({
            "type": str(verdict.rep_type),
            "tag": verdict.tag,
            "char_assumption": verdict.char_assumption,
        }, ensure_ascii=False)
    return str(verdict)


def _cmd_quiver(args) -> Iterator[str]:
    """The quiver's rendered pieces, ending in a newline; the quiver is
    built, with every check and the vertex cap, before this returns."""
    quiver = build_quiver(_parse_weight(args), max_vertices=args.max_vertices)
    return render(quiver, args.format)


def _cmd_maxweights(args) -> str:
    weight = _parse_weight(args)
    # the class as columns: the defects and the texts are computed a column
    # at a time, and the members read back one at a time, so the class is
    # held once, not also as rows
    m_cols, x_cols = _class_columns(weight.m)
    defects = _defects(weight.m, m_cols, x_cols)
    if args.format == "json":
        rows = [{"m": list(m), "X": list(x), "beta": beta, "defect": value}
                for m, x, beta, value in zip(zip(*m_cols), zip(*x_cols),
                                             _column_terms(x_cols, "a"), defects)]
        return json.dumps({"ell": weight.ell, "root": list(weight.m), "members": rows},
                          ensure_ascii=False)
    # each X as the repr of its tuple, a column at a time: a column's distinct
    # entries are rendered once
    x_texts = []
    for col in x_cols:
        table = {c: str(c) for c in set(col)}
        x_texts.append(map(table.__getitem__, col))
    return "\n".join(map("{}\tX=({})\tdefect={}".format, _column_terms(m_cols, "Λ"),
                         map(", ".join, zip(*x_texts)), defects))


def _cmd_dims(args) -> str:
    weight = _parse_weight(args)
    beta = _parse_beta(args)
    nu = tuple(_ints(args.nu, "--nu", "-"))
    nu2 = nu if args.nu2 is None else tuple(_ints(args.nu2, "--nu2", "-"))
    value = graded_hom_dim(weight, beta, nu, nu2, max_n=args.max_n)
    if args.format == "json":
        return json.dumps({
            "nu": list(nu),
            "nu2": list(nu2),
            "dim": {str(e): c for e, c in value.items()},
            "display": str(value),
        }, ensure_ascii=False)
    return str(value)


def _cmd_fock(args) -> str:
    weight = _parse_weight(args)
    vector = expand(weight, _word(args.word), max_n=args.max_n)
    end = hom_dim(vector, vector)
    if args.format == "json":
        rows, parts = vector._rendered(polynomial_text)
        return json.dumps({
            "charges": list(vector.charges),
            "terms": [{"multipartition": [list(parts[c]) for c in comps], "coeff": text}
                      for comps, text in rows],
            "end_dim": str(end),
        }, ensure_ascii=False)
    return f"{vector}\nEnd = {end}"


def _cmd_simples(args) -> str:
    weight = _parse_weight(args)
    count = weight_multiplicity(weight, _parse_beta(args), max_height=args.max_n)
    if args.format == "json":
        return json.dumps({"simples": count})
    return str(count)


def _cmd_defect(args) -> str:
    weight = _parse_weight(args)
    value = defect(weight, _parse_beta(args))
    if args.format == "json":
        return json.dumps({"defect": value})
    return str(value)


# One option of a subcommand.  ``type`` is int or None (the text as given).
Option = namedtuple("Option", "flag dest type default required choices help")
# A subcommand: its line in the top-level help, its handler and its options,
# in help order.
Command = namedtuple("Command", "help func options")


def _option(flag, type=None, default=None, *, required=False, choices=None,
            help=None) -> Option:
    return Option(flag, flag[2:].replace("-", "_"), type, default, required, choices, help)


def _options(*extra, beta=False, fmt=("text", "json")) -> tuple[Option, ...]:
    """The options every subcommand shares, then ``extra``."""
    return (
        _option("--ell", int, required=True, help="rank, at least 2"),
        _option("--max-rank", int, DEFAULT_MAX_RANK),
        _option("--weight", help="fundamental indices with repetition, e.g. 0,0,2"),
        _option("--m", help="multiplicity vector alternative, e.g. 2,0,1"),
        *((_option("--beta", required=True, help="root coefficients x0,x1,...,xl"),)
          if beta else ()),
        _option("--format", default=fmt[0], choices=fmt),
        *extra,
    )


# Every subcommand's options, declared once: build_parser and _read_args both
# read this table.
COMMANDS = {
    "classify": Command("representation type of a block", _cmd_classify, _options(
        _option("--char", int, 0, help="field characteristic (0 or a prime below 2^32)"),
        beta=True)),
    "quiver": Command("directed quiver on the dominant maximal weights", _cmd_quiver, _options(
        _option("--max-vertices", int, DEFAULT_MAX_VERTICES),
        fmt=tuple(FORMATS))),
    "maxweights": Command("class members with minimal solution vectors", _cmd_maxweights,
                          _options()),
    "dims": Command("graded dimension of an idempotent truncation", _cmd_dims, _options(
        _option("--nu", required=True, help="residue sequence, e.g. 0-1-2-1"),
        _option("--nu2", help="second residue sequence (defaults to --nu)"),
        _option("--max-n", int, DEFAULT_MAX_BOXES),
        beta=True)),
    "fock": Command("expand a divided-power word at the vacuum", _cmd_fock, _options(
        _option("--word", required=True,
                help="factors i^r,...; the leftmost factor acts last, e.g. 0,1^2,0"),
        _option("--max-n", int, DEFAULT_MAX_BOXES))),
    "simples": Command("number of simple modules of a block", _cmd_simples, _options(
        _option("--max-n", int, DEFAULT_MAX_HEIGHT),
        beta=True)),
    "defect": Command("defect of a block", _cmd_defect, _options(beta=True)),
}


def _read_args(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse would give a subcommand followed by exact
    ``--name value`` pairs: each flag declared and given once, every required
    one present, every value free of a leading ``-``, convertible and among
    the choices.  None for any other argv, which argparse then reads."""
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    given = dict(zip(argv[1::2], argv[2::2]))
    if 2 * len(given) != len(argv) - 1:  # a flag without its value, or given twice
        return None
    values = {}
    for option in command.options:
        text = given.pop(option.flag, None)
        if text is None:
            if option.required:
                return None
            values[option.dest] = option.default
            continue
        if text.startswith("-"):
            return None
        try:
            value = int(text) if option.type is int else text
        except ValueError:
            return None
        if option.choices is not None and value not in option.choices:
            return None
        values[option.dest] = value
    if given:  # an undeclared flag, or a value where a flag belongs
        return None
    return SimpleNamespace(**values, func=command.func)


@lru_cache(maxsize=1)
def build_parser():
    """The argparse parser, built from ``COMMANDS`` on first use and shared by
    every later call.  Its ``subcommands`` maps each subcommand name to that
    subcommand's own parser."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="klrc",
        description="Exact computations for cyclotomic KLR algebras in affine type C.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sub = subs.add_parser(name, help=command.help)
        for option in command.options:
            sub.add_argument(option.flag, dest=option.dest, type=option.type,
                             default=option.default, required=option.required,
                             choices=option.choices, help=option.help)
        sub.set_defaults(func=command.func)
    parser.subcommands = subs.choices
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one query.  An argv of a subcommand and exact ``--name value``
    pairs is read from ``COMMANDS`` without argparse.  Any other argv (help,
    ``--name=value``, an abbreviated, repeated, missing or unknown option, a
    bad value) goes to argparse, which writes every usage, help and error
    message: one that starts with a subcommand name is parsed by that
    subcommand's parser alone, in one argparse pass; an option other than
    ``-h``/``--help`` first is an error that names it (argparse would name its
    value as the unknown subcommand); anything else (no argument, ``-h`` or an
    unknown name) goes to the full parser for its usage and error messages.

    The answer is written only after the query's checks and guards have
    passed, so an error writes nothing to stdout.  A handler returns its text
    without the final newline, which is written with it in one write, or,
    for ``quiver``, the pieces of ``quiver.render``, which are written as
    they are rendered, at most ``WRITE_PIECES`` pieces joined into each
    write.
    A reader that closes stdout early ends the query with exit 0."""
    if argv is None:
        argv = sys.argv[1:]
    args = _read_args(argv)
    if args is None:
        parser = build_parser()
        if argv and argv[0].startswith("-") and argv[0] not in ("-", "-h", "--help"):
            parser.error(f"option {argv[0]} comes before the subcommand; "
                         f"the subcommand comes first: klrc COMMAND {argv[0]} ...")
        sub = parser.subcommands.get(argv[0]) if argv else None
        args = parser.parse_args(argv) if sub is None else sub.parse_args(argv[1:])
    try:
        output = args.func(args)
    except GuardError as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    write = sys.stdout.write
    try:
        if isinstance(output, str):
            write(output + "\n")
        else:
            while chunk := list(islice(output, WRITE_PIECES)):
                write("".join(chunk))
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left: the rest, now and at shutdown, goes nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0


if __name__ == "__main__":
    sys.exit(main())
