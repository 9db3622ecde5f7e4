"""The paper's contribution: LCCS, the CSA index, LCCS-LSH (MP-LCCS-LSH
is its ``n_probes`` query argument)."""

from repro.core.cascade import E2LSHCascade, LCCSCascade, radius_ladder
from repro.core.csa import CircularShiftArray, ShiftBounds
from repro.core.dynamic import DynamicLCCSLSH
from repro.core.naive_csa import NaiveCSA
from repro.core.lccs import (
    brute_force_k_lccs,
    compare_rotations,
    lccs_length,
    lccs_positions,
    lcp_length,
    shift,
)
from repro.core.lccs_lsh import LCCSLSH
from repro.core.perturbation import (
    PerturbationVector,
    generate_perturbation_vectors,
    score_of,
)

__all__ = [
    "CircularShiftArray",
    "DynamicLCCSLSH",
    "E2LSHCascade",
    "LCCSCascade",
    "NaiveCSA",
    "LCCSLSH",
    "PerturbationVector",
    "ShiftBounds",
    "brute_force_k_lccs",
    "compare_rotations",
    "generate_perturbation_vectors",
    "lccs_length",
    "lccs_positions",
    "lcp_length",
    "radius_ladder",
    "score_of",
    "shift",
]
