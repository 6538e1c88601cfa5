"""Command-line frontend.

Subcommands: classify, quiver, maxweights, dims, fock, simples, defect.
Data goes to stdout, diagnostics to stderr; exit status is 0 on success,
2 on a validation error and 3 when a size guard is exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from .cartan import (DEFAULT_MAX_RANK, DominantWeight, GuardError, RootVector, root_text,
                     weight_text)
from .classifier import classify
from .fock import expand, hom_dim, parse_word
from .laurent import polynomial_text
from .maxweights import _class_pass, _class_size, _defect, defect
from .multiplicity import DEFAULT_MAX_HEIGHT, weight_multiplicity
from .quiver import DEFAULT_MAX_VERTICES, arrow_rows, build_quiver, export
from .tableaux import DEFAULT_MAX_BOXES, DEFAULT_MAX_COMPONENTS, graded_hom_dim

EXIT_VALIDATION = 2
EXIT_GUARD = 3


def _parse_weight(args, guard=None) -> DominantWeight:
    """The weight of --m or --weight.  ``guard``, when given, is called with the
    multiplicity vector before the weight is built, since the weight holds one
    charge per unit of level and --m can name a level of millions in a few bytes."""
    ell = args.ell
    if ell < 2:
        raise ValueError("--ell must be at least 2")
    if ell > args.max_rank:
        raise GuardError(f"rank {ell} exceeds the cap of {args.max_rank}")
    if getattr(args, "m", None):
        m = tuple([int(v) for v in args.m.split(",")])
        if len(m) != ell + 1:
            raise ValueError(f"--m needs {ell + 1} entries")
        if guard is not None and min(m) >= 0:  # a negative entry fails in DominantWeight
            guard(m)
        return DominantWeight(m)
    if not getattr(args, "weight", None):
        raise ValueError("a weight is required (--weight or --m)")
    charges = [int(v) for v in args.weight.split(",")]
    weight = DominantWeight.from_charges(charges, ell)
    if guard is not None:
        guard(weight.m)
    return weight


def _class_guard(cap: int, noun: str):
    """A ``_parse_weight`` guard that exits on a class of more than ``cap``
    members, counted from the multiplicities alone."""
    def guard(m: tuple[int, ...]) -> None:
        size = _class_size(m)
        if size > cap:
            raise GuardError(f"class has {size} {noun}, cap is {cap}")
    return guard


def _component_guard(m: tuple[int, ...]) -> None:
    """A ``_parse_weight`` guard that exits on more than ``DEFAULT_MAX_COMPONENTS``
    components (the level) before a Fock expansion is set up."""
    if sum(m) > DEFAULT_MAX_COMPONENTS:
        raise GuardError(f"{sum(m)} components exceeds the cap of {DEFAULT_MAX_COMPONENTS}")


def _parse_beta(args) -> RootVector:
    coeffs = [int(v) for v in args.beta.split(",")]
    if len(coeffs) != args.ell + 1:
        raise ValueError(f"--beta needs {args.ell + 1} entries")
    beta = RootVector(tuple(coeffs))
    if not beta.in_positive_cone():
        raise ValueError("--beta must have nonnegative entries")
    return beta


def _parse_nu(text: str) -> tuple[int, ...]:
    return tuple([int(v) for v in text.split("-")])


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


def _cmd_quiver(args) -> str:
    weight = _parse_weight(args, _class_guard(args.max_vertices, "vertices"))
    quiver = build_quiver(weight, max_vertices=args.max_vertices)
    if args.format == "text":
        lines = [f"root {weight}  vertices {len(quiver.ms)}  arrows {len(quiver.rows)}"]
        lines.extend([f"{source} -> {target}  {label}  {delta}"
                      for source, target, label, delta in arrow_rows(quiver)])
        return "\n".join(lines)
    return export(quiver, args.format).rstrip("\n")


def _cmd_maxweights(args) -> str:
    weight = _parse_weight(args, _class_guard(DEFAULT_MAX_VERTICES, "members"))
    members = _class_pass(weight.m)
    defects = [_defect(weight.m, x) for _, x in members]
    if args.format == "json":
        rows = [{"m": list(m), "X": list(x), "beta": root_text(x), "defect": d}
                for (m, x), d in zip(members, defects)]
        return json.dumps({"ell": weight.ell, "root": list(weight.m), "members": rows},
                          ensure_ascii=False)
    return "\n".join([f"{weight_text(m)}\tX={x}\tdefect={d}"
                      for (m, x), d in zip(members, defects)])


def _cmd_dims(args) -> str:
    weight = _parse_weight(args, _component_guard)
    beta = _parse_beta(args)
    nu = _parse_nu(args.nu)
    nu2 = _parse_nu(args.nu2) if args.nu2 else nu
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
    weight = _parse_weight(args, _component_guard)
    word = parse_word(args.word)
    if sum(r for _, r in word) > args.max_n:
        raise GuardError(f"word adds {sum(r for _, r in word)} boxes, cap is {args.max_n}")
    vector = expand(weight, word)
    end = hom_dim(vector, vector)
    if args.format == "json":
        return json.dumps({
            "charges": list(vector.charges),
            "terms": [{"multipartition": [list(p) for p in shape], "coeff": text}
                      for shape, text in vector._rendered(polynomial_text)],
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


def _add_common(sub, *, weight=True, beta=False, fmt=("text", "json")) -> None:
    sub.add_argument("--ell", type=int, required=True, help="rank, at least 2")
    sub.add_argument("--max-rank", type=int, default=DEFAULT_MAX_RANK)
    if weight:
        sub.add_argument("--weight", help="fundamental indices with repetition, e.g. 0,0,2")
        sub.add_argument("--m", help="multiplicity vector alternative, e.g. 2,0,1")
    if beta:
        sub.add_argument("--beta", required=True,
                         help="root coefficients x0,x1,...,xl")
    sub.add_argument("--format", choices=fmt, default=fmt[0])


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every later call."""
    parser = argparse.ArgumentParser(
        prog="klrc",
        description="Exact computations for cyclotomic KLR algebras in affine type C.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("classify", help="representation type of a block")
    _add_common(p, beta=True)
    p.add_argument("--char", type=int, default=0,
                   help="field characteristic (0 or a prime below 2^32)")
    p.set_defaults(func=_cmd_classify)

    p = subs.add_parser("quiver", help="directed quiver on the dominant maximal weights")
    _add_common(p, fmt=("text", "dot", "json", "tsv"))
    p.add_argument("--max-vertices", type=int, default=DEFAULT_MAX_VERTICES)
    p.set_defaults(func=_cmd_quiver)

    p = subs.add_parser("maxweights", help="class members with minimal solution vectors")
    _add_common(p)
    p.set_defaults(func=_cmd_maxweights)

    p = subs.add_parser("dims", help="graded dimension of an idempotent truncation")
    _add_common(p, beta=True)
    p.add_argument("--nu", required=True, help="residue sequence, e.g. 0-1-2-1")
    p.add_argument("--nu2", help="second residue sequence (defaults to --nu)")
    p.add_argument("--max-n", type=int, default=DEFAULT_MAX_BOXES)
    p.set_defaults(func=_cmd_dims)

    p = subs.add_parser("fock", help="expand a divided-power word at the vacuum")
    _add_common(p)
    p.add_argument("--word", required=True,
                   help="factors i^r,...; the leftmost factor acts last, e.g. 0,1^2,0")
    p.add_argument("--max-n", type=int, default=DEFAULT_MAX_BOXES)
    p.set_defaults(func=_cmd_fock)

    p = subs.add_parser("simples", help="number of simple modules of a block")
    _add_common(p, beta=True)
    p.add_argument("--max-n", type=int, default=DEFAULT_MAX_HEIGHT)
    p.set_defaults(func=_cmd_simples)

    p = subs.add_parser("defect", help="defect of a block")
    _add_common(p, beta=True)
    p.set_defaults(func=_cmd_defect)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        output = args.func(args)
    except GuardError as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
