"""Finite-field verification kernel: field tables, dense multivariate
polynomials, Hilbert-function ranks, the linear-section dimension test,
projective point counts, and the codimension experiments built on them.

Submodules load on first use (PEP 562): ``import excodim.fforacle.fields``
compiles and runs ``fields`` alone, and an exported name such as
``excodim.fforacle.excess_experiment`` loads the submodule that defines it.

Importing the package sets ``OPENBLAS_NUM_THREADS=1`` unless the variable is
already set, so numpy's bundled OpenBLAS starts no busy-waiting worker thread
per extra core when the oracle loads it; the oracle makes no BLAS call.  A
user's own value wins, and a process that loaded numpy before the oracle
keeps its pool."""

import importlib
import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# exported name -> the submodule that defines it
_EXPORTS = {
    "Field": "fields",
    "gf": "fields",
    "MultiPoly": "polynomials",
    "monomials": "polynomials",
    "n_monomials": "polynomials",
    "poly_from_line": "polynomials",
    "poly_to_line": "polynomials",
    "batch_dim_at_least": "hilbert",
    "batch_projective_dim_hilbert": "hilbert",
    "dim_at_least": "hilbert",
    "hilbert_function": "hilbert",
    "projective_dim_hilbert": "hilbert",
    "PointProbe": "points",
    "batch_projective_dim_points": "points",
    "projective_dim_points": "points",
    "projective_points": "points",
    "DEFAULT_SEED": "experiments",
    "ExperimentResult": "experiments",
    "excess_experiment": "experiments",
    "poonen_combine": "experiments",
    "poonen_sample": "experiments",
    "restriction_codim": "experiments",
    "singular_experiment": "experiments",
    "singular_membership": "experiments",
}
_SUBMODULES = ("fields", "polynomials", "linalg", "hilbert", "points", "experiments")

__all__ = list(_EXPORTS)


def __getattr__(name):
    # a submodule by its own name (the CLI reads ``fields`` first), or an
    # exported name from its submodule; importlib, because "from . import"
    # would look the name up on this package again and recurse
    module = _EXPORTS.get(name, name)
    if module not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{module}", __name__)
    return module if name in _SUBMODULES else getattr(module, name)


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
