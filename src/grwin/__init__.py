"""Exact window-shift calculus on Grassmannian flop models."""

from .autoequiv import cotwist_on_generator, k_matrix, o1_matrix, twist_on_generator
from .bott import bwb_cohomology, classify
from .bundles import BundleLabel, GradedComplex, normalize, rank
from .characters import (euler_character, hom_invariant_dimension, pushforward_character,
                         verify_exactness)
from .partitions import complement, staircase
from .resolutions import (
    jshriek_jlower,
    pushdown_pi,
    theorem_resolution,
    unstable_resolution_twisted,
)
from .schur import lr_coefficient, schur_dimension, schur_product
from .windows import gamma_set, window_generators

__all__ = [
    "BundleLabel", "GradedComplex", "bwb_cohomology", "classify", "complement",
    "cotwist_on_generator", "euler_character", "gamma_set", "hom_invariant_dimension",
    "jshriek_jlower", "k_matrix", "lr_coefficient", "normalize", "o1_matrix",
    "pushdown_pi", "pushforward_character", "rank", "schur_dimension",
    "schur_product", "staircase", "theorem_resolution", "twist_on_generator",
    "unstable_resolution_twisted", "verify_exactness", "window_generators",
]
