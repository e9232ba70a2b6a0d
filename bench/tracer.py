"""Traced in-process run of one excodim CLI command, for per-layer numbers.

Usage: python3 bench/tracer.py <excodim argv...>

Wraps the public entry points of each layer in a span recorder, runs
``excodim.cli.run(argv)`` in this process with stdout captured, and prints one
JSON object: the exit code, the captured CLI output, the in-process wall time
and the per-layer metrics.  A wrapper replaces the function under every name
that refers to it in a loaded ``excodim`` module (``matrix_rank`` is imported
by both ``hilbert`` and ``experiments``), so calls made through any import are
recorded.  Spans nest on one stack, so the command must run with one worker
thread (``EXCODIM_THREADS=1``).
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from excodim import applications, cli, strata  # noqa: E402
from excodim.fforacle import experiments, fields, hilbert, linalg, points  # noqa: E402
from excodim.fforacle.polynomials import MultiPoly  # noqa: E402


class Tracer:
    """Spans as [name, start, end, parent index, note], kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, note=None):
        """A recording wrapper around fn; note(args, result) annotates a span
        whose call returned."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                span[4] = note(args, result)
            return result

        return wrapper

    def rebind(self, module, attr: str, name: str, note=None):
        """Replace module.attr under every excodim module attribute that
        holds it.  An entry point the program no longer has is skipped, and
        its metrics read 0."""
        fn = getattr(module, attr, None)
        if fn is None:
            return
        wrapper = self.wrap(name, fn, note)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "excodim" or mod_name.startswith("excodim."):
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)

    def patch(self, cls, attr: str, name: str, note=None):
        if cls is not None and hasattr(cls, attr):
            setattr(cls, attr, self.wrap(name, getattr(cls, attr), note))


def _rank_path(field) -> str:
    """The branch matrix_rank takes for this field."""
    if field.p == 2 and field.e == 1:
        return "gf2"
    return "prime" if field.e == 1 else "tables"


def install(tracer: Tracer):
    tracer.rebind(linalg, "matrix_rank", "linalg.rank",
                  lambda args, _: (_rank_path(args[0]), int(getattr(args[1], "size", 0))))
    tracer.rebind(hilbert, "projective_dim_hilbert", "hilbert.dim")
    tracer.rebind(hilbert, "hilbert_function", "hilbert.window")
    tracer.patch(getattr(hilbert, "GradedIdealPiece", None), "__init__", "hilbert.build",
                 lambda args, _: int(args[0].matrix.size))
    tracer.rebind(experiments, "excess_experiment", "experiments.run")
    tracer.rebind(experiments, "singular_experiment", "experiments.run")
    tracer.rebind(experiments, "common_zero_dim", "experiments.sample")
    tracer.rebind(experiments, "singular_membership", "experiments.sample")
    tracer.rebind(points, "projective_dim_points", "points.probe",
                  lambda _, result: bool(result.conclusive))
    tracer.patch(MultiPoly, "partial", "polynomials.partial")
    tracer.patch(fields.Field, "__init__", "fields.build")
    # the closed-form prediction each experiment attaches to its estimate
    tracer.rebind(strata, "span_stratum_exact", "strata.predict")
    tracer.rebind(applications, "singular_line_codim", "strata.predict")
    tracer.patch(cli.Report, "render", "cli.render")


def _percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts, busy time (inclusive) and self time from the spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total: dict[str, float] = {}
    count: dict[str, int] = {}
    self_s: dict[str, float] = {}
    rank_s = {"gf2": 0.0, "prime": 0.0, "tables": 0.0}
    rank_entries = build_entries = conclusive = detections = 0
    sample_ms: list[float] = []
    for i, (name, start, end, parent, note) in enumerate(spans):
        dur = end - start
        total[name] = total.get(name, 0.0) + dur
        count[name] = count.get(name, 0) + 1
        layer = name.split(".")[0]
        self_s[layer] = self_s.get(layer, 0.0) + dur - child_time[i]
        if name == "linalg.rank":
            if note is not None:
                rank_s[note[0]] += dur
                rank_entries += note[1]
            if parent >= 0 and spans[parent][0] == "experiments.sample":
                detections += 1  # a linear tuple's dimension comes from one rank
        elif name == "hilbert.dim":
            detections += 1
        elif name == "hilbert.build" and note is not None:
            build_entries += note
        elif name == "points.probe" and note:
            conclusive += 1
        elif name == "experiments.sample":
            sample_ms.append(dur * 1000.0)
    sample_ms.sort()
    rank_total = sum(rank_s.values())
    samples = count.get("experiments.sample", 0)
    dim_calls = count.get("hilbert.dim", 0)
    probes = count.get("points.probe", 0)
    return {
        "linalg.rank_calls": count.get("linalg.rank", 0),
        "linalg.rank_entries": rank_entries,
        "linalg.gf2.rank_s": rank_s["gf2"],
        "linalg.prime.rank_s": rank_s["prime"],
        "linalg.tables.rank_s": rank_s["tables"],
        "linalg.entries_per_s": rank_entries / rank_total if rank_total else 0.0,
        "hilbert.dim_calls": dim_calls,
        "hilbert.windows_per_call": count.get("hilbert.window", 0) / dim_calls if dim_calls else 0.0,
        "hilbert.build_s": total.get("hilbert.build", 0.0),
        "hilbert.build_entries": build_entries,
        "hilbert.self_s": self_s.get("hilbert", 0.0),
        "experiments.samples": samples,
        "experiments.sample_ms_p50": _percentile(sample_ms, 50),
        "experiments.sample_ms_p99": _percentile(sample_ms, 99),
        "experiments.self_s": self_s.get("experiments", 0.0),
        "experiments.detections_per_sample": detections / samples if samples else 0.0,
        "points.probe_calls": probes,
        "points.probe_s": total.get("points.probe", 0.0),
        "points.conclusive_frac": conclusive / probes if probes else 0.0,
        "polynomials.partial_s": total.get("polynomials.partial", 0.0),
        "fields.builds": count.get("fields.build", 0),
        "fields.build_s": total.get("fields.build", 0.0),
        "strata.span_exact_s": total.get("strata.predict", 0.0),
        "cli.render_s": total.get("cli.render", 0.0),
    }


def main(argv: list[str]) -> int:
    tracer = Tracer()
    install(tracer)
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    wall = time.perf_counter() - start
    print(json.dumps({
        "exit": code,
        "stdout": out.getvalue(),
        "wall_s": wall,
        "layers": layer_metrics(tracer.spans),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
