"""Codimension calculus for loci of hypersurface tuples with excess
intersection, the derived results on singular hypersurfaces and lines through
points, and an independent finite-field oracle for checking the predictions
on small instances.

The oracle subpackage ``fforacle`` needs numpy, and it is imported on first
access to ``excodim.fforacle``, so importing the calculus alone does not
load numpy."""

import importlib

from .combinatorics import INF, ExtInt, binomial, h_min
from .errors import BudgetError, InvariantError, ParameterError
from .strata import (
    AnalysisReport,
    ProblemSpec,
    StratumBound,
    analyze_spans,
    f_lower,
    g_lower,
    h_gap,
    kcl_cone_min,
    nr_hypothesis,
    slope_gap,
    span_stratum_exact,
    worked_example,
)
from .applications import (
    LinesVerdict,
    SingularThresholdReport,
    char2_threshold_report,
    e1_bound,
    lines_verdict,
    primed_span_bound,
    prop2r1_report,
    rnc_singular_conditions,
    rnc_stratum_codim_lower,
    singular_line_codim,
)

__version__ = "0.1.0"

__all__ = [
    "INF",
    "ExtInt",
    "binomial",
    "h_min",
    "BudgetError",
    "InvariantError",
    "ParameterError",
    "AnalysisReport",
    "ProblemSpec",
    "StratumBound",
    "analyze_spans",
    "f_lower",
    "g_lower",
    "h_gap",
    "kcl_cone_min",
    "nr_hypothesis",
    "slope_gap",
    "span_stratum_exact",
    "worked_example",
    "LinesVerdict",
    "SingularThresholdReport",
    "char2_threshold_report",
    "e1_bound",
    "lines_verdict",
    "primed_span_bound",
    "prop2r1_report",
    "rnc_singular_conditions",
    "rnc_stratum_codim_lower",
    "singular_line_codim",
    "fforacle",
    "__version__",
]


def __getattr__(name):
    # importlib, because "from . import fforacle" would look the name up on
    # this package again and recurse
    if name == "fforacle":
        return importlib.import_module(".fforacle", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
