"""Recorded mutants of ``src/``, each of which named tests must kill.

    python tests/mutants.py [NAME ...]

A mutant is a file under ``src/``, a text that occurs in that file exactly
once, the text that replaces it, and the tests that must fail with the
replacement in place.  Each mutant changes one computation that an
independent route checks, so a killed mutant shows that the check is live.

The runner copies ``src/`` to a temporary directory, applies one mutant to
the copy, and runs the mutant's tests with ``python -m pytest -q`` in a
subprocess whose ``pythonpath`` is the copy.  The mutant is killed when
pytest reports a failed test (exit status 1) and the same tests pass on the
unmutated ``src/``, which is checked once per set of tests before any of
its mutants runs.  Any other outcome fails: the tests fail without the
mutant (the baseline fails, and a failure under the mutant would show
nothing), the tests pass (the mutant survived), pytest cannot run them
(exit 2 to 5, for example a test id that no longer exists), or the old
text no longer occurs exactly once (the mutant is stale, because the code
it names has moved).
A stale or surviving mutant is mended by mending the test or by re-pointing
the mutant.  Mutants run one at a time, one subprocess each.

``tests/test_mutants.py`` runs every mutant behind the ``mutants`` marker,
which the default test run deselects: ``python -m pytest -m mutants``.  Run
as a script, this file runs the named mutants, or all of them, prints one
line per mutant and exits 1 if any is not killed.  Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TIMEOUT_S = 600  # a mutant whose tests outlive this counts as not killed


class Mutant(NamedTuple):
    name: str
    path: str    # under src/
    old: str     # occurs exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest ids, relative to the repository root


MAXWEIGHTS = "klrc/maxweights.py"
LANES = "klrc/_lanes.py"
MULTIPLICITY = "klrc/multiplicity.py"
CLASS_TESTS = ("tests/test_maxweights.py::test_class_pass_is_lexicographic",
               "tests/test_maxweights.py::test_class_pass_matches_the_stars_and_bars_route")
ROW_TESTS = ("tests/test_quiver.py::test_build_quiver_rows_match_the_per_source_builder",)
LABEL_TESTS = ("tests/test_quiver.py::test_the_move_table_is_the_reference_label_rule",)
MOVE_LISTS = ("tests/test_quiver.py::test_move_coordinate_lists_match_the_masks",
              "tests/test_quiver.py::test_move_table_matches_the_enumerate_and_solve_route")
HOM_TESTS = ("tests/test_fock.py::test_shared_coefficients_count_in_the_width",)
GOLDEN_FOCK_DIMS = ("tests/test_golden_replay.py::test_replay_every_fock_and_dims_query",)
READER_TESTS = ("tests/test_cli.py::test_reader_reads_like_argparse_or_not_at_all",)
DIMS_RUNS = ("tests/test_tableaux.py::test_runs_match_the_single_step_route_on_the_dims_pool",
             "tests/test_tableaux.py::test_runs_match_the_single_step_route_on_a_seeded_sweep")
MULT_TESTS = ("tests/test_multiplicity.py::test_golden_counts",
              "tests/test_multiplicity.py::test_mult_matches_value_object_route")

MUTANTS = (
    # the class pass, a coordinate at a time
    Mutant("class-ascending-range", MAXWEIGHTS,
           "combinations_with_replacement(range(k, -1, -1), ell)",
           "combinations_with_replacement(range(k + 1), ell)", CLASS_TESTS),
    Mutant("class-flipped-parity", MAXWEIGHTS,
           "repeat(2)), repeat(parity)))", "repeat(2)), repeat(1 - parity)))", CLASS_TESTS),
    Mutant("class-no-halving-at-ell", MAXWEIGHTS,
           "    x_cols[-1] = lanes.halve(x_cols[-1], low, bias)\n", "", CLASS_TESTS),
    Mutant("class-shift-over-columns-1-to-ell", MAXWEIGHTS,
           "for xhat, d in zip(x_cols, delta))", "for xhat, d in zip(x_cols[1:], delta[1:]))",
           CLASS_TESTS),
    # the lane operations of the class pass, and its packed checks
    Mutant("class-min-keeps-the-larger-digit", LANES,
           "flags = at_least(a, b, guard)", "flags = at_least(b, a, guard)",
           CLASS_TESTS + ("tests/test_lanes.py::test_lane_min",)),
    Mutant("class-halving-without-its-low-mask", LANES,
           "return ((v >> 1) & low) + (bias >> 1)", "return (v >> 1) + (bias >> 1)",
           CLASS_TESTS + ("tests/test_lanes.py::test_halve",)),
    Mutant("class-halving-without-its-bias", LANES,
           "return ((v >> 1) & low) + (bias >> 1)", "return (v >> 1) & low",
           CLASS_TESTS + ("tests/test_lanes.py::test_halve_a_biased_column",)),
    Mutant("class-below-test-at-delta-minus-one", MAXWEIGHTS,
           "lanes.at_least(x, d * ones, top)", "lanes.at_least(x, (d - 1) * ones, top)",
           CLASS_TESTS),
    # the depth the lane bias admits, checked before any member is built
    Mutant("class-depth-guard-admits-the-cap", LANES,
           "if depth >= DEPTH_CAP:", "if depth > DEPTH_CAP:",
           ("tests/test_cli.py::test_a_class_too_deep_for_its_lanes_exits_3_before_any_member",
            "tests/test_lanes.py::test_depth_at_the_cap_is_refused")),
    # the defect identity, in its single-vector and class forms
    Mutant("defect-m-minus-hub", MAXWEIGHTS, "(mj + (mj - a", "(mj - (mj - a",
           ("tests/test_maxweights.py::test_defect_values",
            "tests/test_maxweights.py::test_defect_matches_the_epsilon_model")),
    Mutant("class-defects-root-minus-hub", MAXWEIGHTS,
           "map(add, repeat(r), hub)", "map(sub, repeat(r), hub)",
           ("tests/test_maxweights.py::test_class_defects_match_the_epsilon_model_and_defect",)),
    # the Cartan band and what reads it
    Mutant("band-minus-two-in-the-wrong-row", "klrc/cartan.py",
           "(0 if i == 0 else -2 if i == 1 else -1, 2,",
           "(0 if i == 0 else -2 if i == 2 else -1, 2,",
           ("tests/test_cartan.py::test_apply_matrix_matches_dense_row_product",
            "tests/test_cartan.py::test_null_root_and_row_sums")),
    Mutant("straighten-reads-the-band-at-j-i-1", MAXWEIGHTS,
           "band[i + 1][0] * step\n        if i:\n            i -= 1\n            h[i] -= band[i][2]",
           "band[i + 1][2] * step\n        if i:\n            i -= 1\n            h[i] -= band[i][0]",
           ("tests/test_multiplicity.py::test_straightening_matches_value_object_route",)),
    # the class form of the vector texts
    Mutant("column-terms-print-a-coefficient-of-one", "klrc/cartan.py",
           "f\"+{'' if c == 1 else c}", "f\"+{c}",
           ("tests/test_cartan.py::test_column_terms_by_hand",
            "tests/test_cartan.py::test_column_terms_match_the_vector_texts")),
    # the quiver
    Mutant("move-shift-plus-a-gamma", "klrc/quiver.py",
           "shift = tuple(map(neg, ag))", "shift = tuple(ag)",
           ("tests/test_quiver.py::test_delta_vectors",
            "tests/test_quiver.py::test_move_table_matches_the_enumerate_and_solve_route")),
    # the label read off a move's Δm
    Mutant("label-takes-and-puts-swapped", "klrc/quiver.py",
           "for take, put in zip(takes, puts)", "for take, put in zip(puts, takes)",
           ("tests/test_quiver.py::test_move_table_entries",
            "tests/test_quiver.py::test_move_table_matches_the_enumerate_and_solve_route")),
    Mutant("label-down-up-indices-kept-in-order", "klrc/quiver.py",
           "MoveLabel(KIND_DOWN_UP, takes[1], takes[0])", "MoveLabel(KIND_DOWN_UP, *takes)",
           ("tests/test_quiver.py::test_move_table_entries",
            "tests/test_quiver.py::test_move_table_matches_the_enumerate_and_solve_route")),
    # the move table as the only rule for which labels are moves
    Mutant("move-lookup-without-its-miss-check", "klrc/quiver.py",
           "if move is None:", "if False:", LABEL_TESTS),
    Mutant("move-lookup-answers-the-first-entry-on-a-miss", "klrc/quiver.py",
           "move = _move_table(ell).get(label)",
           "move = _move_table(ell).get(label, next(iter(_move_table(ell).values())))",
           LABEL_TESTS),
    Mutant("arrow-test-without-its-rank-check", "klrc/quiver.py",
           "    if len(source.x.coeffs) != weight.ell + 1:\n"
           '        raise ValueError("rank mismatch")\n', "",
           ("tests/test_quiver.py::"
            "test_arrow_test_rejects_a_solution_vector_of_another_rank",)),
    Mutant("vertex-bitsets-has-at-d-plus-one", "klrc/quiver.py",
           "lanes.at_least(col, d * ones, top)", "lanes.at_least(col, (d + 1) * ones, top)",
           ROW_TESTS),
    Mutant("column-digits-swapped", LANES,
           'bytes.maketrans(b"\\0\\1", b"01")', 'bytes.maketrans(b"\\0\\1", b"10")',
           ROW_TESTS + ("tests/test_quiver.py::test_vertex_bitsets_match_the_flag_columns",
                        "tests/test_lanes.py::test_bitset")),
    Mutant("arrow-walk-from-the-top-bit", "klrc/quiver.py",
           "bits = bin(sources)[:1:-1]", "bits = bin(sources)[2:]", ROW_TESTS),
    # each move's coordinate lists, and the target found by its packed x
    Mutant("move-needs-reads-one-where-two-are-taken", "klrc/quiver.py",
           "tuple([(-s - 1) * (ell + 1) + n for n, s in enumerate(shift) if s < 0])",
           "tuple([n for n, s in enumerate(shift) if s < 0])", ROW_TESTS + MOVE_LISTS),
    Mutant("move-drops-reads-one-where-d-is-one", "klrc/quiver.py",
           "tuple([d * (ell + 1) + n for n, d in enumerate(gamma) if d <= 1])",
           "tuple([n for n, d in enumerate(gamma) if d <= 1])", ROW_TESTS + MOVE_LISTS),
    Mutant("arrow-target-looked-up-on-the-unraised-x", "klrc/quiver.py",
           "t = index.get(raised)", "t = index.get(packed_x[s])", ROW_TESTS),
    # each move's rendered tail, stored once per rank and format
    Mutant("tail-store-keyed-without-the-format", "klrc/quiver.py",
           "tails = _tails(quiver.ell)[fmt]", 'tails = _tails(quiver.ell)["text"]',
           ("tests/test_quiver.py::test_text_and_tsv_tails_never_mix",
            "tests/test_quiver.py::test_two_roots_at_one_rank_render_as_from_an_empty_store")),
    Mutant("arrow-line-tail-without-its-delta", "klrc/quiver.py",
           'f"{sep}{move.text}{sep}{root_text(move.delta.coeffs)}\\n"', 'f"{sep}{move.text}\\n"',
           ("tests/test_quiver.py::test_export_tsv",)),
    Mutant("json-arrow-tail-without-its-delta", "klrc/quiver.py",
           "                f'\\n      \"delta\": {ints(move.delta.coeffs)},'\n", "",
           ("tests/test_quiver.py::test_export_json_round_trip",)),
    # the Fock step
    Mutant("fock-rem-zeroed", "klrc/fock.py", "return add, add << 1", "return add, 0",
           ("tests/test_fock.py::test_masks_match_the_per_position_rule",
            "tests/test_fock.py::test_single_step_golden")),
    Mutant("fock-sort-without-component-sizes", "klrc/fock.py",
           "sorted(zip(*[list(map(sizes.__getitem__, column)) for column in columns],\n"
           "                           packed,",
           "sorted(zip(packed,",
           ("tests/test_fock.py::test_packed_vectors_render_compare_and_hash_as_decoded",)),
    Mutant("fock-step-shift-up-at-a-removable-node", "klrc/fock.py",
           "shift -= unit", "shift += unit",
           ("tests/test_fock.py::test_single_step_golden",
            "tests/test_fock.py::test_step_matches_value_object_route")),
    Mutant("fock-divided-no-mahonian-offset", "klrc/fock.py",
           "low -= d * (power * boxes + power * (power - 1) // 2)", "low -= d * power * boxes",
           ("tests/test_fock.py::test_divided_square_golden",
            "tests/test_fock.py::test_signed_fourth_and_fifth_divided_powers")),
    Mutant("fock-divided-keeps-trailing-zero-digits", "klrc/fock.py",
           "if drop:", "if False:",
           ("tests/test_fock.py::"
            "test_expansions_drop_the_trailing_zero_digits_their_terms_share",)),
    # the bead encoding: the two residues a mask picks, and the addable bits
    Mutant("fock-masks-without-the-mirrored-residue", "klrc/fock.py",
           "pattern = 1 << i | 1 << -i % period", "pattern = 1 << i",
           ("tests/test_tableaux.py::test_graded_hom_dim_golden",)),
    Mutant("fock-addable-read-from-the-bit-below", "klrc/fock.py",
           "grow = shape & ~(shape >> 1) & add", "grow = shape & ~(shape << 1) & add",
           ("tests/test_tableaux.py::test_graded_hom_dim_golden",)),
    # one digit width for a whole word, n! / (r_1! ... r_k!) at q=1
    Mutant("fock-width-set-by-n-not-the-multinomial", "klrc/fock.py",
           "_width(factorial(n) // prod(factorial(power) for _, power in factors))",
           "_width(n)", GOLDEN_FOCK_DIMS),
    # the shift offset by the boxes of the factor's residue, and the vacuum in closed form
    Mutant("fock-offset-one-box-short", "klrc/fock.py",
           "_divided(terms, low, placed[i], masks[i]",
           "_divided(terms, low, placed[i] - 1, masks[i]",
           ("tests/test_fock.py::test_shift_offset_is_reached_at_minus_the_i_boxes_placed",
            "tests/test_golden_replay.py::test_replay_golden_digests[fock]")),
    Mutant("fock-vacuum-window-one-bit-short", "klrc/fock.py",
           "((1 << n + 1) - 1) * ", "((1 << n) - 1) * ",
           ("tests/test_golden_replay.py::test_replay_golden_digests[fock]",)),
    # graded dimensions by runs, each run one divided power scaled by [r]!
    Mutant("dims-scale-by-the-runs-of-nu-only", "klrc/fock.py",
           "for i, r in runs + runs_prime if r > 1]", "for i, r in runs if r > 1]", DIMS_RUNS),
    Mutant("dims-scale-built-in-q-not-q-to-the-d", "klrc/fock.py",
           "[(r, d[i]) for i, r in", "[(r, 1) for i, r in", DIMS_RUNS),
    Mutant("hom-scale-dropped-from-the-width-bound", "klrc/fock.py",
           "(bound * prod(factorial(r) for r, _ in scale)).bit_length()", "bound.bit_length()",
           ("tests/test_tableaux.py::"
            "test_a_long_run_at_level_five_keeps_the_scaled_sum_free_of_carries",)),
    # the Hom dimension over distinct coefficient pairs
    Mutant("hom-count-dropped-from-the-width-bound", "klrc/fock.py",
           "bound = sum(c * (a % ml)", "bound = sum((a % ml)", HOM_TESTS),
    Mutant("hom-digit-mask-one-past-the-width", "klrc/fock.py",
           "ml, mr = (1 << wl) - 1,", "ml, mr = (1 << wl) + 1,",
           ("tests/test_fock.py::test_multi_digit_coefficients_are_read_mod_the_digit_mask",)),
    Mutant("hom-count-dropped-from-the-sum", "klrc/fock.py",
           "total = sum(c * _widen(a", "total = sum(_widen(a", HOM_TESTS),
    # vectors built by hand: stepped a shape at a time, paired as Laurent polynomials
    Mutant("apply-exponent-one-digit-high", "klrc/fock.py",
           "low + bit.bit_length() - 1", "low + bit.bit_length()",
           ("tests/test_fock.py::test_single_step_golden",
            "tests/test_fock.py::test_step_matches_value_object_route",
            "tests/test_fock.py::test_signed_fourth_and_fifth_divided_powers")),
    Mutant("hom-packed-route-with-one-engine-side", "klrc/fock.py",
           "if left._packed is not None and right._packed is not None:",
           "if left._packed is not None or right._packed is not None:",
           ("tests/test_fock.py::test_packed_hom_dim_matches_reference_on_signed_vectors",
            "tests/test_fock.py::test_hom_dim_of_two_engine_vectors_is_one_packed_hom")),
    Mutant("hom-by-hand-squares-the-left-side", "klrc/fock.py",
           "c * other[mp] for mp, c in", "c * c for mp, c in",
           ("tests/test_fock.py::test_packed_hom_dim_matches_reference_on_signed_vectors",)),
    # a node's residue, and the per-node degree rule of the tableau route
    Mutant("residue-content-negated", "klrc/fock.py",
           "fold_residue(b - a + charges[s - 1], ell)",
           "fold_residue(a - b + charges[s - 1], ell)",
           ("tests/test_tableaux.py::test_residue", "tests/test_tableaux.py::test_kostka_values")),
    Mutant("node-degree-counts-above", "klrc/tableaux.py",
           "return s > ps or (s == ps and a > pa)", "return s < ps or (s == ps and a < pa)",
           ("tests/test_tableaux.py::test_degree_chain_values",
            "tests/test_tableaux.py::test_kostka_values")),
    # the Freudenthal sum over stabilizer orbits
    Mutant("mult-no-delta-j-halving", MULTIPLICITY,
           "count = weight if supp & ~jmask else weight // 2", "count = weight", MULT_TESTS),
    Mutant("mult-no-orbit-weight", MULTIPLICITY,
           "weight = 2 * root_mult * order // _weyl_order(ell, zero & jmask)",
           "weight = 2 * root_mult", MULT_TESTS),
    Mutant("mult-no-j-dominance-skip", MULTIPLICITY,
           "        if neg & jmask:\n            continue\n", "", MULT_TESTS),
    Mutant("mult-type-c-order-for-interior-runs", MULTIPLICITY,
           "2 ** n * factorial(n) if k in (0, len(runs) - 1) else factorial(n + 1)",
           "2 ** n * factorial(n)",
           ("tests/test_multiplicity.py::test_orbit_weights_match_breadth_first_orbits",)),
    Mutant("mult-negative-mask-le", MULTIPLICITY,
           "_mask(v < 0 for v in ag)", "_mask(v <= 0 for v in ag)", MULT_TESTS),
    # the first-layer roots from their closed form, behind both tables
    Mutant("first-layer-without-null-root-complements", "klrc/cartan.py",
           "for root in (gamma, tuple(map(sub, datum.delta_coeffs, gamma))):",
           "for root in (gamma,):",
           ("tests/test_multiplicity.py::test_root_table_rows_match_the_move_table_route",
            "tests/test_multiplicity.py::test_golden_counts",
            "tests/test_quiver.py::test_move_table_matches_the_enumerate_and_solve_route")),
    # classify on plain tuples
    Mutant("classify-non-maximal-from-two-null-roots", "klrc/classifier.py",
           "if null_multiple >= 1:", "if null_multiple > 1:",
           ("tests/test_classifier.py::test_non_maximal_family_is_wild",
            "tests/test_golden_replay.py::test_replay_every_classify_query")),
    Mutant("classify-level-one-finite-without-s-minus-2", "klrc/classifier.py",
           "t in {s, s - 2, s + 2}", "t in {s, s + 2}",
           ("tests/test_classifier.py::test_level_one_trichotomy",
            "tests/test_golden_replay.py::test_replay_every_classify_query")),
    # the case index grouped straight from the generated case list
    Mutant("case-index-groups-in-reverse-order", "klrc/classifier.py",
           "index.get(case.beta, ()) + (case,)", "(case,) + index.get(case.beta, ())",
           ("tests/test_classifier.py::test_case_index_keeps_table_order",
            "tests/test_golden_replay.py::test_replay_every_classify_query")),
    # the sum at dominant keys, from the hub, run from a worklist
    Mutant("mult-support-skip-inverted", MULTIPLICITY,
           "if supp & outside:", "if not supp & outside:", MULT_TESTS),
    Mutant("mult-hub-advanced-by-d-a-gamma", MULTIPLICITY,
           "h = tuple(map(add, h, ag))", "h = tuple(map(add, h, map(mul, datum.d, ag)))",
           MULT_TESTS),
    Mutant("mult-worklist-highest-key-first", MULTIPLICITY,
           "sorted(sums, key=sum)", "sorted(sums, key=sum, reverse=True)", MULT_TESTS),
    # the one validator of root coefficients, which the command line and the
    # public engines share
    Mutant("root-validator-no-cone-check", "klrc/cartan.py",
           "    if cone and min(x) < 0:\n", "    if False:\n",
           ("tests/test_cli.py::test_blocks_queries_answer_as_the_value_object_route",)),
    # the command line
    Mutant("cli-no-subcommand-dispatch", "klrc/cli.py",
           "args = parser.parse_args(argv) if sub is None else sub.parse_args(argv[1:])",
           "args = parser.parse_args(argv)",
           ("tests/test_cli.py::test_argparse_errors",)),
    # the option table's reader: each mutant drops one check of _read_args
    Mutant("reader-no-choices-check", "klrc/cli.py",
           "        if option.choices is not None and value not in option.choices:\n"
           "            return None\n", "", READER_TESTS),
    Mutant("reader-no-leading-dash-check", "klrc/cli.py",
           '        if text.startswith("-"):\n            return None\n', "", READER_TESTS),
    Mutant("reader-no-required-check", "klrc/cli.py",
           "            if option.required:\n                return None\n", "", READER_TESTS),
    Mutant("reader-no-int-check", "klrc/cli.py",
           "        except ValueError:\n            return None\n",
           "        except ValueError:\n            value = text\n", READER_TESTS),
    Mutant("reader-no-undeclared-flag-check", "klrc/cli.py",
           "    if given:  # an undeclared flag, or a value where a flag belongs\n"
           "        return None\n", "", READER_TESTS),
    Mutant("reader-no-flag-count-check", "klrc/cli.py",
           "    if 2 * len(given) != len(argv) - 1:  # a flag without its value, or given twice\n"
           "        return None\n", "", READER_TESTS),
    Mutant("cli-no-broken-pipe-handler", "klrc/cli.py",
           "except BrokenPipeError:", "except ZeroDivisionError:",
           ("tests/test_cli.py::test_closed_stdout_ends_in_exit_zero",)),
)


def _pytest(tests: tuple[str, ...], src: Path) -> int | None:
    """pytest's exit status for ``tests`` with ``src`` first on the path, or
    None when they run past ``TIMEOUT_S``."""
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
            "-o", f"pythonpath={src}", *tests]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    try:
        return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return None


@lru_cache(maxsize=None)
def baseline(tests: tuple[str, ...]) -> int | None:
    """``_pytest`` of ``tests`` on the unmutated ``src/``, run once per set of
    tests: a mutant is killed only by tests that pass without it."""
    return _pytest(tests, SRC)


def run(mutant: Mutant) -> str:
    """``"killed"``, or what kept the mutant's tests from killing it."""
    status = baseline(mutant.tests)
    if status != 0:
        ran = f"exit {status}" if status is not None else f"run past {TIMEOUT_S} s"
        return f"baseline fails: its tests {ran} on the unmutated src/"
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        path = copy / mutant.path
        text = path.read_text(encoding="utf-8")
        found = text.count(mutant.old)
        if found != 1:
            return f"stale: the old text occurs {found} times in src/{mutant.path}"
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        status = _pytest(mutant.tests, copy)
    if status == 1:
        return "killed"
    if status == 0:
        return "survived: every named test passed"
    if status is None:
        return f"not killed: its tests ran past {TIMEOUT_S} s"
    return f"not killed: pytest exited {status}"


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    outcomes = []
    for mutant in chosen:
        outcome = run(mutant)
        print(f"{mutant.name}: {outcome}", flush=True)
        outcomes.append(outcome)
    return 0 if all(outcome == "killed" for outcome in outcomes) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
