"""Exact computations for cyclotomic KLR algebras of affine type C.

The package computes dominant maximal weights and the directed quiver on
them, graded dimensions of idempotent truncations, deformed Fock-space
expansions of divided-power words, weight multiplicities (simple-module
counts), and the finite/tame/wild representation type of a block.
"""

from .cartan import (CartanDatum, DominantWeight, GuardError, RootVector,
                     cartan, fold_residue, hub, pairing)
from .classifier import RepType, Verdict, classify, wildness_criteria
from .fock import (FockVector, Multipartition, apply_divided_f, apply_f, expand, hom_dim,
                   parse_word, residue)
from .laurent import LaurentPolynomial
from .maxweights import (MaximalWeightDatum, NotEquivalentError, beta_of,
                         class_members, class_size, defect, delta_decompose,
                         dominantify, ev, minimal_solution)
from .multiplicity import weight_multiplicity
from .quiver import (Arrow, MaxWeightQuiver, MoveLabel, arrow_test, build_quiver,
                     delta_vector, export, witness_sequence)
from .tableaux import graded_hom_dim, kostka_q, multipartitions

__all__ = [
    "Arrow", "CartanDatum", "DominantWeight", "FockVector", "GuardError",
    "LaurentPolynomial", "MaxWeightQuiver", "MaximalWeightDatum", "MoveLabel",
    "Multipartition", "NotEquivalentError", "RepType", "RootVector", "Verdict",
    "apply_divided_f", "apply_f", "arrow_test", "beta_of", "build_quiver",
    "cartan", "class_members", "class_size", "classify", "defect",
    "delta_decompose", "delta_vector", "dominantify", "ev", "expand", "export",
    "fold_residue", "graded_hom_dim", "hom_dim", "hub", "kostka_q",
    "minimal_solution", "multipartitions", "pairing", "parse_word", "residue",
    "weight_multiplicity", "wildness_criteria", "witness_sequence",
]

__version__ = "0.1.0"
