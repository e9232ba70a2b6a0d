"""Command-line front end.

Subcommands: bounds, exact, slope, example, apps singular, apps lines,
oracle excess, oracle singular, selftest.  ``_build_parser`` is the only
place that declares a subcommand's arguments.  Every run echoes its full
configuration, built from the parsed arguments: the subcommand path, then
each argument in declaration order.  JSON is the canonical machine format
and CSV is available for sweep commands only: any other command asking for
it is refused before it does any work.  Exit codes: 0 ok, 1 internal
invariant violation, 2 argument error, 3 budget exhaustion (a sweep over
MAX_SWEEP_ROWS among them), and from ``main`` 141 (128 + SIGPIPE) when the
reader closed stdout.

Only the oracle subcommands and selftest load the finite-field oracle, and
with it numpy; the calculus subcommands run on the standard library alone.
Importing the oracle sets ``OPENBLAS_NUM_THREADS=1`` unless the user set it,
so these commands start numpy's OpenBLAS on one thread.

``main``, the console entry point, freezes the garbage collector once
``run`` has printed the report, so that interpreter exit does not scan
every object the run left alive (about 20 ms after an oracle run).  ``run``
itself leaves the collector alone.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

from . import applications as apps
from . import strata
from .combinatorics import ExtInt, h_min
from .errors import BudgetError, InvariantError, ParameterError


def _oracle():
    """The finite-field oracle package, imported on first use; the package
    sets the one-thread OpenBLAS default before any of it loads numpy."""
    from . import fforacle
    return fforacle


def _jsonable(value):
    if isinstance(value, ExtInt):
        return "inf" if value.is_infinite else int(value)
    if isinstance(value, (frozenset, set)):
        return sorted(value)
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


class Report:
    """Collected results of one run, renderable as text, JSON, or CSV."""

    def __init__(self, config: dict):
        self.config = {k: _jsonable(v) for k, v in config.items()}
        self.results: list[dict] = []
        self.warnings: list[str] = []
        self.rows: list[dict] | None = None  # sweep commands only
        self._start = time.perf_counter()

    def add(self, name: str, value, kind: str, ref: str):
        self.results.append(
            {"name": name, "value": _jsonable(value), "kind": kind, "paper_ref": ref}
        )

    def warn(self, message: str):
        self.warnings.append(message)

    def set_rows(self, rows: list[dict]):
        self.rows = [{k: _jsonable(v) for k, v in row.items()} for row in rows]
        self.add("sweep", self.rows, "exact", "one entry per parameter point")

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "results": self.results,
            "warnings": self.warnings,
            "runtime_ms": (time.perf_counter() - self._start) * 1000.0,
        }

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return json.dumps(self.to_dict(), indent=2)
        if fmt == "csv":
            keys: list[str] = []
            for row in self.rows:
                for k in row:
                    if k not in keys:
                        keys.append(k)
            lines = [",".join(keys)]
            for row in self.rows:
                lines.append(",".join(str(row.get(k, "")) for k in keys))
            return "\n".join(lines)
        lines = ["config: " + json.dumps(self.config)]
        for res in self.results:
            if res["name"] == "sweep":
                lines.append("sweep rows:")
                for row in res["value"]:
                    lines.append("  " + json.dumps(row))
                continue
            lines.append(f"{res['name']:<28} = {res['value']}  [{res['kind']}] ({res['paper_ref']})")
        for w in self.warnings:
            lines.append(f"warning: {w}")
        return "\n".join(lines)


def _parse_degrees(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad degree list {text!r}") from exc


def _sorted_degrees(report: Report, degrees: tuple[int, ...]) -> tuple[int, ...]:
    ordered = tuple(sorted(degrees))
    if ordered != degrees:
        report.warn(
            f"degrees {list(degrees)} reordered to {list(ordered)}; "
            f"the bounds depend on sorted order"
        )
    return ordered


# A sweep row costs 11-27 us and 0.6-2 KB of peak memory, the most for `apps
# singular` in JSON.  At the cap a whole run takes 0.65-1.43 s and peaks at
# 45-116 MB (2-core host).
MAX_SWEEP_ROWS = 50_000


def _sweep(args, report: Report, inner: str, row):
    """Report row(r, x) for every r in --r-min..--r-max and x in the inner
    parameter's range.  An empty range is refused, because it sweeps
    nothing, and so is a grid over MAX_SWEEP_ROWS, before any row is built."""
    axes = []
    for name in ("r", inner):
        lo, hi = getattr(args, f"{name}_min"), getattr(args, f"{name}_max")
        if lo > hi:
            raise ParameterError(f"need {name}_min <= {name}_max, got {lo} > {hi}")
        axes.append(range(lo, hi + 1))
    rs, xs = axes
    if len(rs) * len(xs) > MAX_SWEEP_ROWS:
        raise BudgetError(f"a sweep of {len(rs)}x{len(xs)} points is over the budget "
                          f"of {MAX_SWEEP_ROWS} rows")
    report.set_rows([row(r, x) for r in rs for x in xs])


# -- subcommand implementations -------------------------------------------------
#
# Each handler takes the parsed arguments and the report, whose config
# ``run`` has already filled from the same arguments, and adds results and
# warnings only.


def _cmd_bounds(args, report: Report):
    degrees = _sorted_degrees(report, args.degrees)
    analysis = strata.analyze_spans(args.r, args.a, degrees)
    report.add("base_codim", analysis.base_codim, "exact",
               "base span stratum, closed form")
    for s in analysis.strata:
        kind = "exact" if s.exact else "lower_bound"
        report.add(f"stratum_b{s.b}", s.value, kind,
                   f"span-{s.b} stratum bound, argmin {list(s.argmin_indices)}")
    report.add("runner_up", analysis.runner_up, "lower_bound",
               "minimum over the non-base strata")
    report.add("gap", analysis.gap if analysis.gap is not None else "undefined",
               "lower_bound", "runner_up minus base")
    report.add("verdict", analysis.verdict, "exact",
               "UniqueMaxLinear iff the gap is strictly positive")


def _cmd_exact(args, report: Report):
    degrees = _sorted_degrees(report, args.degrees)
    value = strata.span_stratum_exact(args.r, args.a, degrees)
    report.add("base_codim", value, "exact", "base span stratum, closed form")


def _cmd_slope(args, report: Report):
    if args.r < 1:
        raise ParameterError(f"need r >= 1, got {args.r}")
    degrees = _sorted_degrees(report, args.degrees)
    in_cone = strata.nr_hypothesis(degrees)
    report.add("in_cone", in_cone, "exact",
               "d_i <= d_1 + C(d_1,2)(i-1) for every i")
    k = len(degrees)
    if in_cone and k >= args.r >= 2:
        gap = strata.slope_gap(args.r, k, degrees[0])
        report.add("guaranteed_gap", gap, "lower_bound",
                   "line stratum vs every other stratum")
        # excess k - r + 1 puts the base stratum at span dimension 1 (lines)
        analysis = strata.analyze_spans(args.r, k - args.r + 1, degrees)
        report.add("base_codim", analysis.base_codim, "exact",
                   "base span stratum, closed form")
        report.add("computed_gap", analysis.gap, "lower_bound",
                   "runner_up minus base for this sequence")
        report.add("verdict", analysis.verdict, "exact",
                   "UniqueMaxLinear iff the gap is strictly positive")
    elif not in_cone:
        report.warn("degree sequence outside the slope cone; no gap guarantee")


def _cmd_example(args, report: Report):
    w = strata.worked_example()
    report.add("degrees", w.degrees, "exact", "the running example")
    report.add("line_stratum_codim", w.line_codim, "exact", "span-1 stratum")
    for stage in w.stages:
        report.add(f"chain_b{stage.b}", [v for _, v in stage.candidates], "exact",
                   "candidate condition sums, one-form-at-a-time order")
        report.add(f"chain_b{stage.b}_min", stage.chain_min, "exact",
                   "minimum of the chain")
        report.add(f"stratum_b{stage.b}_bound", stage.bound, "lower_bound",
                   "after subtracting the plane moduli")
    report.add("summary", w.summary, "exact", "bound per span dimension")
    report.add("codim", w.codim, "exact", "codimension of the whole locus")
    report.add("second_largest_lower_bound", w.second_largest_lower_bound,
               "lower_bound", "runner-up stratum")
    report.add("verdict", w.verdict, "exact", "dominant stratum")


def _singular_row(r: int, ell: int) -> dict:
    rep = apps.char2_threshold_report(r, ell)
    return {"r": r, "ell": ell, "parity": rep.parity, "d": rep.d, "holds": rep.holds,
            **dict(rep.margins)}


def _cmd_apps_singular(args, report: Report):
    if args.sweep:
        _sweep(args, report, "ell", _singular_row)
        return
    if args.r is None or args.ell is None:
        raise ParameterError("apps singular needs --r and --ell (or --sweep)")
    rep = apps.char2_threshold_report(args.r, args.ell)
    report.add("parity", rep.parity, "exact", "degree parity")
    report.add("fudge_degree", rep.d, "exact", "degree of the squared fudge factors")
    for name, value in rep.margins:
        report.add(f"margin[{name}]", value, "exact", "dominance margin, must be > 0")
    report.add("holds", rep.holds, "exact",
               "line stratum dominates (plane-curve case holds unconditionally)")
    report.add("singular_line_codim", apps.singular_line_codim(args.r, args.ell),
               "exact", "codimension of the singular-along-a-line locus")


def _lines_row(r: int, d: int) -> dict:
    verdict = apps.lines_verdict(r, d)
    return {"r": r, "d": d,
            "maximal_components": "|".join(sorted(verdict.maximal_components)),
            "universal_gap": verdict.universal_gap}


def _cmd_apps_lines(args, report: Report):
    if args.sweep:
        _sweep(args, report, "d", _lines_row)
        return
    if args.r is None or args.d is None:
        raise ParameterError("apps lines needs --r and --d (or --sweep)")
    verdict = apps.lines_verdict(args.r, args.d)
    report.add("maximal_components", sorted(verdict.maximal_components), "exact",
               "dominant loci among smooth forms with extra lines through a point")
    report.add("universal_gap",
               verdict.universal_gap if verdict.universal_gap is not None else "n/a",
               "exact", "plane vs Eckardt gap on the universal hypersurface")
    if args.r >= 2:
        pr = apps.prop2r1_report(args.r)
        report.add("tuple_max_codim", pr["max_codim"], "exact",
                   "line component for degrees 2..r+1")
        report.add("tuple_second_codim", pr["second_codim"], "exact",
                   "vanishing lowest-degree form component")
        report.add("tuple_gap", pr["gap"], "exact", "difference of the two")


def _cmd_oracle(args, report: Report):
    """oracle excess and oracle singular: one seeded experiment each."""
    oracle = _oracle()
    field = oracle.fields.parse_field(args.field)
    run = {"mode": args.mode, "trials": args.trials, "seed": args.seed}
    if args.oracle_command == "excess":
        degrees = _sorted_degrees(report, args.degrees)
        result = oracle.excess_experiment(args.r, degrees, args.a, field, **run)
    else:
        result = oracle.singular_experiment(args.r, args.ell, field, **run)
    report.add("mode", result.mode, "exact", "exhaustive or sampled")
    report.add("trials", result.trials, "exact", "tuples examined")
    report.add("hits", result.hits, "exact", "tuples inside the locus")
    report.add("est_codim",
               result.est_codim if result.est_codim is not None else "inconclusive",
               "estimate", "negated log_q hit rate; heuristic at desk scale")
    report.add("predicted_codim", result.predicted_codim, "exact",
               "closed-form prediction")
    report.add("status", result.status, "exact",
               "inconclusive when nothing hit (never an infinite estimate)")
    if result.crosscheck_skipped:
        report.warn(f"{result.crosscheck_skipped} crosscheck samples were not checked: "
                    f"their Hilbert window is over budget")


SELFTEST_CHECKS = [
    ("h_min(4,1,6)", lambda: h_min(4, 1, 6), 25),
    ("h_min(4,2,5)", lambda: h_min(4, 2, 5), 51),
    ("h_min(4,4,3)", lambda: h_min(4, 4, 3), 35),
    ("h_min(1,1,9)", lambda: h_min(1, 1, 9), 10),
    ("f_lower(4,1,(3,4,5,6))", lambda: int(strata.f_lower(4, 1, (3, 4, 5, 6))[0]), 25),
    ("f_lower argmin", lambda: strata.f_lower(4, 1, (3, 4, 5, 6))[1], (4,)),
    ("f_lower(3,2,(3,4,5,6))", lambda: int(strata.f_lower(3, 2, (3, 4, 5, 6))[0]), 35),
    ("f_lower(2,3,(3,4,5,6))", lambda: int(strata.f_lower(2, 3, (3, 4, 5, 6))[0]), 33),
    ("g_lower(4,1,3,...)", lambda: int(strata.g_lower(4, 1, 3, (3, 4, 5, 6))), 31),
    ("g_lower(4,1,2,...)", lambda: int(strata.g_lower(4, 1, 2, (3, 4, 5, 6))), 27),
    ("g_lower(4,1,1,...)", lambda: int(strata.g_lower(4, 1, 1, (3, 4, 5, 6))), 16),
    ("span_exact(4,1,(2,3,4,5))", lambda: strata.span_stratum_exact(4, 1, (2, 3, 4, 5)), 12),
    ("h_gap(4,1,4,...)", lambda: int(strata.h_gap(4, 1, 4, (3, 4, 5, 6))), 9),
    ("equal-degree gap at b=2", lambda: int(strata.h_gap(5, 1, 2, (3,) * 5)), 7),
    ("equal-degree gap at b=r", lambda: int(strata.h_gap(5, 2, 5, (3,) * 6)), 16),
    ("analysis gap", lambda: int(strata.analyze_spans(4, 1, (3, 4, 5, 6)).gap), 9),
    ("analysis verdict", lambda: strata.analyze_spans(4, 1, (3, 4, 5, 6)).verdict,
     strata.UNIQUE_MAX_LINEAR),
    ("worked example codim", lambda: strata.worked_example().codim, 16),
    ("worked example runner-up", lambda: strata.worked_example().second_largest_lower_bound, 25),
    ("nr_hypothesis((2,2,100))", lambda: strata.nr_hypothesis((2, 2, 100)), False),
    ("slope_gap(4,4,3)", lambda: strata.slope_gap(4, 4, 3), 3),
    ("kcl cone min", lambda: strata.kcl_cone_min(4, 1, 2, 2, 4, 10_000), ((2, 2, 2, 2), 3)),
    ("singular_line_codim(2,5)", lambda: apps.singular_line_codim(2, 5), 9),
    ("rnc_conditions(3,0,3)", lambda: apps.rnc_singular_conditions(3, 0, 3), 20),
    ("rnc_stratum(1,3,5)", lambda: apps.rnc_stratum_codim_lower(1, 3, 5), 12),
    ("rnc_stratum equals line codim", lambda: apps.rnc_stratum_codim_lower(1, 3, 5)
     == apps.singular_line_codim(3, 5), True),
    ("primed_span(4,2,3,2)", lambda: apps.primed_span_bound(4, 2, 3, 2), 20),
    ("threshold (3,5)", lambda: (apps.char2_threshold_report(3, 5).holds,
                                 tuple(v for _, v in apps.char2_threshold_report(3, 5).margins)),
     (True, (3, 4))),
    ("threshold (3,6)", lambda: apps.char2_threshold_report(3, 6).holds, False),
    ("prop2r1(4)", lambda: apps.prop2r1_report(4), {"max_codim": 12, "second_codim": 15, "gap": 3}),
    ("e1_bound(3,2)", lambda: apps.e1_bound(3, 2), 25),
    ("e1_bound first term", lambda: apps.e1_bound(6, 1), 28),
    ("lines(5,4)", lambda: sorted(apps.lines_verdict(5, 4).maximal_components),
     ["ContainsPlane", "EckardtPoint"]),
    ("lines(7,6)", lambda: sorted(apps.lines_verdict(7, 6).maximal_components), ["ContainsPlane"]),
    ("lines(4,6)", lambda: sorted(apps.lines_verdict(4, 6).maximal_components), ["ContainsLine"]),
    ("lines(6,3)", lambda: sorted(apps.lines_verdict(6, 3).maximal_components), ["EckardtPoint"]),
    ("GF(8) generator order",
     lambda: _oracle().gf(2, 3).element_order(_oracle().gf(2, 3).generator_code), 7),
    ("oracle excess F2 hits", lambda: _oracle().excess_experiment(
        2, (1, 1), 1, _oracle().gf(2), mode="exhaustive").hits, 22),
    ("oracle r=1 estimate", lambda: _oracle().excess_experiment(
        1, (1,), 1, _oracle().gf(2), mode="exhaustive").est_codim, 2.0),
    ("restriction(4,3,1)", lambda: _restriction_rank(4, 3, 1), 4),
    ("poonen odd identity", lambda: _poonen_check(), True),
]


def _restriction_rank(r: int, d: int, b: int) -> int:
    oracle, field = _oracle(), _oracle().gf(2)
    rmap = oracle.hilbert.restriction_map(field, r, b, oracle.DEFAULT_SEED, 0, d)
    return oracle.linalg.matrix_rank(field, rmap)


def _poonen_check() -> bool:
    oracle = _oracle()
    sample = oracle.poonen_sample(2, 5, oracle.gf(2), seed=oracle.DEFAULT_SEED)
    return all(
        sample.F.partial(i) == sample.base.partial(i) + sample.fudge[i].square()
        for i in range(3)
    )


def _cmd_selftest(args, report: Report):
    failures = 0
    for name, fn, expected in SELFTEST_CHECKS:
        actual = fn()
        ok = actual == expected
        failures += 0 if ok else 1
        report.add(name, "ok" if ok else f"FAIL: expected {expected}, got {actual}",
                   "exact", "pinned known value")
    report.add("failures", failures, "exact", "total mismatches")
    if failures:
        raise InvariantError(f"selftest found {failures} mismatches")


# -- parser ---------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    """The only declaration of each subcommand's arguments; their order here
    is the order of the echoed config."""
    parser = argparse.ArgumentParser(
        prog="excodim",
        description="Codimension bounds for hypersurface tuples with excess "
                    "intersection, application verdicts, and finite-field "
                    "oracle experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def finish(p, fn):
        """Every subcommand's last argument, --format, and its handler."""
        p.add_argument("--format", choices=["text", "json", "csv"], default="text")
        p.set_defaults(fn=fn)

    for name, summary, fn in (("bounds", "full stratum analysis", _cmd_bounds),
                              ("exact", "exact base-stratum codimension", _cmd_exact)):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--r", type=int, required=True)
        p.add_argument("--a", type=int, default=1)
        p.add_argument("--degrees", type=_parse_degrees, required=True)
        finish(p, fn)

    p = sub.add_parser("slope", help="cone membership and guaranteed gap")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--degrees", type=_parse_degrees, required=True)
    finish(p, _cmd_slope)

    finish(sub.add_parser("example", help="the worked running example"), _cmd_example)

    papps = sub.add_parser("apps", help="application verdicts")
    apps_sub = papps.add_subparsers(dest="apps_command", required=True)
    for name, summary, inner, inner_max, fn in (
        ("singular", "singular-hypersurface thresholds", "ell", 20, _cmd_apps_singular),
        ("lines", "lines-through-a-point verdicts", "d", 10, _cmd_apps_lines),
    ):
        p = apps_sub.add_parser(name, help=summary)
        p.add_argument("--r", type=int)
        p.add_argument(f"--{inner}", type=int)
        p.add_argument("--sweep", action="store_true")
        p.add_argument("--r-min", type=int, default=2)
        p.add_argument("--r-max", type=int, default=8)
        p.add_argument(f"--{inner}-min", type=int, default=3)
        p.add_argument(f"--{inner}-max", type=int, default=inner_max)
        finish(p, fn)

    poracle = sub.add_parser("oracle", help="finite-field experiments")
    oracle_sub = poracle.add_subparsers(dest="oracle_command", required=True)
    pexcess = oracle_sub.add_parser("excess", help="excess-intersection experiment")
    pexcess.add_argument("--r", type=int, required=True)
    pexcess.add_argument("--a", type=int, default=1)
    pexcess.add_argument("--degrees", type=_parse_degrees, required=True)
    psingular = oracle_sub.add_parser("singular", help="positive-dimensional singular locus")
    psingular.add_argument("--r", type=int, required=True)
    psingular.add_argument("--ell", type=int, required=True)
    for p in (pexcess, psingular):
        p.add_argument("--field", default="2")
        p.add_argument("--mode", choices=["auto", "exhaustive", "sampled"], default="auto")
        p.add_argument("--trials", type=int)
        p.add_argument("--seed", type=int)  # None: the oracle's DEFAULT_SEED
        finish(p, _cmd_oracle)

    finish(sub.add_parser("selftest", help="verify the pinned known values"), _cmd_selftest)

    return parser


def _config(args) -> dict:
    """The echoed configuration: the subcommand path, then each argument of
    the subcommand in the order ``_build_parser`` declares it."""
    fields = vars(args)
    path_dests = ("command", "apps_command", "oracle_command")  # the subparsers' dests
    path = " ".join(fields[dest] for dest in path_dests if dest in fields)
    return {"command": path,
            **{k: v for k, v in fields.items() if k not in path_dests and k != "fn"}}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        if args.format == "csv" and not getattr(args, "sweep", False):
            # refused before the oracle loads or any work starts
            raise ParameterError("csv output is only available for sweep commands")
        if "seed" in vars(args) and args.seed is None:
            # the default lives with the oracle, which only these commands load
            args.seed = _oracle().DEFAULT_SEED
        report = Report(_config(args))
        args.fn(args, report)
        print(report.render(args.format))
        return 0
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 1


def main():
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (``excodim ... | head``): send the rest to
        # devnull, so the flush at exit cannot fail again, and exit as a
        # process that SIGPIPE killed would, 128 + 13
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    # the report is out: spare the exit the collector's pass over every
    # object the run left alive
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
