"""Exact Kazhdan-Lusztig combinatorics for finite Coxeter groups, built
from their Coxeter matrices: piece indexing, Hecke-algebra operators, and
unequal-parameter canonical bases, with an end-to-end rank-4 verification
pipeline."""

from .coxeter import CoxeterGroup, DiagramAutomorphism, coxeter_group
from .hecke import (
    CanonicalBasis,
    HeckeAlgebra,
    HeckeElement,
    KLTable,
    WeightFunction,
    canonical_basis,
    inverse_kl,
    kl_table,
    split_weight,
)
from .laurent import Laurent, ONE, ZERO, v_power
from .pieces import (
    BedardData,
    E_operator,
    bedard_inverse,
    bedard_sequence,
    closure_hasse,
    closure_leq,
    mu_J,
    piece_dimension,
    piece_indices,
    piece_projection,
    twisted_normalizer,
)
from .charsheaf_b4 import (
    B4Context,
    build_context,
    conjecture_report,
    restriction_coefficients,
    solve_chi,
)
from .b4_example import ExampleOutcome, run_example

__version__ = "0.1.0"
