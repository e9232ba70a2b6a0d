"""Finite-field verification kernel: field tables, dense multivariate
polynomials, Hilbert-function ranks, the linear-section dimension test,
projective point counts, and the codimension experiments built on them."""

from .fields import Field, gf
from .polynomials import MultiPoly, monomials, n_monomials, poly_from_line, poly_to_line
from .hilbert import (
    batch_dim_at_least,
    batch_projective_dim_hilbert,
    dim_at_least,
    hilbert_function,
    projective_dim_hilbert,
)
from .points import PointProbe, batch_projective_dim_points, projective_dim_points, projective_points
from .experiments import (
    DEFAULT_SEED,
    ExperimentResult,
    excess_experiment,
    poonen_combine,
    poonen_sample,
    restriction_codim,
    singular_experiment,
    singular_membership,
)

__all__ = [
    "Field",
    "gf",
    "MultiPoly",
    "monomials",
    "n_monomials",
    "poly_from_line",
    "poly_to_line",
    "batch_dim_at_least",
    "batch_projective_dim_hilbert",
    "dim_at_least",
    "hilbert_function",
    "projective_dim_hilbert",
    "PointProbe",
    "batch_projective_dim_points",
    "projective_dim_points",
    "projective_points",
    "DEFAULT_SEED",
    "ExperimentResult",
    "excess_experiment",
    "poonen_combine",
    "poonen_sample",
    "restriction_codim",
    "singular_experiment",
    "singular_membership",
]
