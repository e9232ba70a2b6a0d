"""Codimension experiments over small finite fields.

Membership probability of a closed locus decays like q^(-codim), so the
negated log_q hit rate of an exhaustive or sampled run estimates the
codimension and can confront the closed-form predictions.  Sampling is
counter-based (one Philox stream per fixed-size chunk), so results depend
only on the seed and configuration.

Both experiments, the excess-intersection locus and the locus of forms with
a positive-dimensional singular locus, are this one estimator and share
one code path.  ``_plan`` is the mode and budget policy: the
exhaustive cap is MAX_EXHAUSTIVE when each decision is cheap (linear
tuples, or plane curves looked up in a set) and SLOW_EXHAUSTIVE_LIMIT
otherwise; auto mode runs exhaustive under it, and an exhaustive run over
it raises BudgetError.  ``_walk`` is the chunk loop: it makes one
``decide`` call per chunk, sums the weighted hits and keeps every few rows
for the crosscheck.

Both loci are cones: V(c_1 g_1, ..., c_k g_k) = V(g_1, ..., g_k) for nonzero
scalars c_i, and every test below (the linear rank, the section test, the
Hilbert window and the point count) gives the same decision on each tuple
of such an orbit.  Exhaustive mode therefore decides one tuple per orbit:
it walks a mixed-radix index with one digit per form, the scaling class of
that form (zero, or a vector whose top nonzero coefficient is one), and
counts a hit with the weight (q - 1)^(nonzero forms) of its orbit.
``trials`` still counts every tuple, q^total.  Over GF(2) every orbit is a
single tuple and the walk is the plain base-2 enumeration.

The experiments run their chunks one after another.  A chunk's samples
form one (n, coefficients) block, built from the class indices in
exhaustive mode or drawn from the chunk's stream in sampled mode; no chunk
loop builds a ``MultiPoly`` per sample.  Linear excess tuples are ranked as
one (n, k, r + 1) stack by ``batch_rank``.  Every other block is decided by
the linear-section test, one ``batch_dim_at_least`` call per chunk: a
nonlinear excess block as drawn, and beyond the plane the singular block
[F | dF/dX_0 | ... | dF/dX_r] of ``_singular_block``, its partials taken by
``partial_rows``.  A plane curve is looked up in the exact set of forms with
a repeated factor, the sorted base-q values of their rows, built by
``repeated_factor_keys`` with one ``rows_times`` product per square H^2 that
multiplies every cofactor G at once; H runs over one form per scaling class,
from the same class walk.  An exhaustive plane run counts that set.

For odd ell the singular samples leave F out.  Euler's relation
ell * F = sum_i X_i dF/dX_i puts F in the ideal of its partials whenever the
characteristic does not divide ell, so V(F, dF) = V(dF) and the decision is
the same, on a smaller system: for ell = 3 over GF(2) the sections rank
24 x 15 matrices in degree 4 in place of 46 x 21 in degree 5.  For even ell
F stays.  The Hilbert reference that checks the plane's repeated-factor set
always keeps F, so that it stays independent.

In an excess run about CROSSCHECK_SAMPLES evenly spaced samples (orbit
representatives in exhaustive mode) are also checked against two
independent detectors: the Hilbert-window dimension must give the same
decision dim >= r - k + a, and a conclusive point count must be matched by
a positive Hilbert dimension.  After the last chunk, one
``batch_projective_dim_hilbert`` call on the block of their rows gives all
their dimensions, and one ``batch_projective_dim_points`` call on the rows
whose window fits gives all their point counts; the samples are then
compared one by one in sample order.  The window of a sample can go over
the matrix budget (from r = 4 on it mostly does); the reference gives None
for such a sample, which is neither probed nor checked, and the result
counts it in ``crosscheck_skipped``.  A plane singular run checks
VERIFY_SAMPLES forms the same way, half spaced through its repeated-factor
set and half drawn from Philox stream 2^31, with one batched reference call
on their [F | partials] block; there a window over budget raises
BudgetError.  Both checks compare through ``_crosscheck_sample``.  A failed
check raises ``InvariantError`` naming the first failing sample as
``poly_to_line`` lines with its seed and chunk, so it can be replayed.

The mode, trials and seed are checked before any work; a bad value,
or trials given to exhaustive mode, raises ParameterError.
"""

from __future__ import annotations

import math
from functools import lru_cache
from dataclasses import dataclass

import numpy as np

from ..applications import singular_line_codim
from ..errors import BudgetError, InvariantError, ParameterError
from ..strata import span_stratum_exact
from .fields import Field, gf
from .hilbert import (
    batch_dim_at_least,
    batch_projective_dim_hilbert,
    check_seed,
    projective_dim_hilbert,
    restriction_map,
)
from .linalg import batch_rank, matrix_rank, rows_times
from .points import PointProbe, batch_projective_dim_points
from .polynomials import MultiPoly, macaulay_stack, n_monomials, partial_rows, poly_to_line

DEFAULT_SEED = 271828
CHUNK = 4096
MAX_EXHAUSTIVE = 2**24
SLOW_EXHAUSTIVE_LIMIT = 4096  # per-sample dimension detection is expensive
MARKED_SET_BUDGET = 5_000_000
CROSSCHECK_SAMPLES = 48  # excess samples compared with the Hilbert reference per run
VERIFY_SAMPLES = 24  # plane forms checked against the repeated-factor set per run
PROBE_M_MAX = 2  # extension degrees the crosscheck's point probe counts over


@dataclass(frozen=True)
class ExperimentResult:
    """Outcome of one oracle run; est_codim is None when nothing hit."""

    kind: str
    q: int
    r: int
    mode: str
    trials: int
    hits: int
    seed: int
    est_codim: float | None
    predicted_codim: int
    status: str
    degrees: tuple[int, ...] | None = None
    ell: int | None = None
    a: int | None = None
    crosscheck_skipped: int = 0  # crosscheck samples whose Hilbert window is over budget


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, chunk_index]))


def _plan(mode: str, trials: int | None, q: int, total: int, cheap: bool,
          default: int) -> tuple[str, int]:
    """The mode and trials of a run over q^total tuples, after checking the
    given ones.  The exhaustive cap is MAX_EXHAUSTIVE when each decision is
    cheap and SLOW_EXHAUSTIVE_LIMIT otherwise: auto mode runs exhaustive
    under it, and an exhaustive run over it raises BudgetError.  A sampled
    run decides ``trials`` tuples, ``default`` when none are given."""
    if mode not in ("auto", "exhaustive", "sampled"):
        raise ParameterError(f"unknown mode {mode!r}")
    if trials is not None and trials < 1:
        raise ParameterError(f"need trials >= 1, got {trials}")
    if trials is not None and mode == "exhaustive":
        raise ParameterError("exhaustive mode examines every tuple; trials cannot be set")
    space, cap = q**total, MAX_EXHAUSTIVE if cheap else SLOW_EXHAUSTIVE_LIMIT
    if mode == "auto":
        mode = "exhaustive" if space <= cap else "sampled"
    if mode == "sampled":
        return mode, default if trials is None else trials
    if space > cap:
        raise BudgetError(f"exhaustive run over {q}^{total} tuples is over budget "
                          f"(cap {cap}); use sampled mode")
    return mode, space


def _digits(values: np.ndarray, q: int, n: int) -> np.ndarray:
    """The n base-q digits of each value, least significant first."""
    out = np.empty((len(values), n), dtype=np.uint16)
    for j in range(n):
        values, out[:, j] = np.divmod(values, q)
    return out


def _n_classes(q: int, n: int) -> int:
    """Scaling classes of vectors of n coefficients: zero and the lines."""
    return 1 + (q**n - 1) // (q - 1)


def _class_rows(q: int, n: int, x: np.ndarray) -> np.ndarray:
    """The coefficient row of each scaling class x of vectors of n
    coefficients.  Class 0 is zero; class x = 1 + (q^j - 1)/(q - 1) + t with
    0 <= t < q^j is the vector of base-q value q^j + t, whose top nonzero
    coefficient is the code 1, that is field.one.  Over GF(2) class x is the
    vector of value x."""
    starts = 1 + (q ** np.arange(n, dtype=np.int64) - 1) // (q - 1)
    j = np.maximum(np.searchsorted(starts, x, side="right") - 1, 0)
    return _digits(q**j + x - starts[j], q, n)


def _class_block(q: int, dims, lo: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows lo .. lo + n of the walk over scaling classes of tuples, a
    mixed-radix index with one digit per form (the first form least
    significant), and the weight of each row: its (q - 1)^(nonzero forms)
    tuples, all with the same decision."""
    rest = np.arange(lo, lo + n, dtype=np.int64)
    forms, live = [], np.zeros(n, dtype=np.int64)
    for size in dims:
        rest, x = np.divmod(rest, _n_classes(q, size))
        forms.append(_class_rows(q, size, x))
        live += x > 0
    return np.concatenate(forms, axis=1), (q - 1) ** live


def _walk(mode: str, q: int, dims, trials: int, seed: int, decide) -> tuple[int, list]:
    """Decide every sample of a run, one CHUNK-sized block at a time: the
    class walk with its orbit weights in exhaustive mode, the chunk's Philox
    draws in sampled mode.  ``decide`` maps a block to its bool decisions.
    Returns the weighted hits and the (row, decision, chunk) of every
    samples // CROSSCHECK_SAMPLES-th sample, for the crosscheck."""
    exhaustive = mode == "exhaustive"
    samples = math.prod(_n_classes(q, size) for size in dims) if exhaustive else trials
    check_every = max(1, samples // CROSSCHECK_SAMPLES)
    hits, checked = 0, []
    for lo in range(0, samples, CHUNK):
        chunk, n = lo // CHUNK, min(CHUNK, samples - lo)
        if exhaustive:
            block, weight = _class_block(q, dims, lo, n)
        else:
            block = _chunk_rng(seed, chunk).integers(0, q, size=(n, sum(dims)), dtype=np.uint16)
        hit = decide(block)
        hits += int(weight[hit].sum() if exhaustive else np.count_nonzero(hit))
        checked.extend((block[i], bool(hit[i]), chunk)
                       for i in range((-lo) % check_every, n, check_every))
    return hits, checked


def _estimate(hits: int, trials: int, q: int) -> tuple[float | None, str]:
    if hits == 0:
        return None, "inconclusive"
    return (math.log(trials) - math.log(hits)) / math.log(q), "ok"


def _replay_note(field: Field, r: int, degrees, row: np.ndarray, seed: int, chunk: int) -> str:
    """The sample's forms as exchange-format lines, with the seed and chunk
    that produced it."""
    forms = np.split(row, np.cumsum([n_monomials(r, d) for d in degrees])[:-1])
    lines = "\n".join(poly_to_line(MultiPoly(field, r, d, c)) for d, c in zip(degrees, forms))
    return f"seed {seed}, chunk {chunk}, generators:\n{lines}"


def _crosscheck_sample(field: Field, r: int, degrees, row: np.ndarray, seed: int, chunk: int,
                       s: int, hit: bool, hil: int, probe: PointProbe | None):
    """Independent-detector agreement for one sample, the coefficient row of
    forms of the given degrees: its Hilbert-window dimension hil must give
    the same decision dim >= s, and a conclusive positive point count
    (probe, None when no extension fits the point budget or none was taken)
    must be matched by it, or the run dies naming the sample."""
    if (hil >= s) != hit:
        raise InvariantError(
            f"the sample's decision dim >= {s} is {hit} but the Hilbert detector "
            f"gives dimension {hil}; {_replay_note(field, r, degrees, row, seed, chunk)}"
        )
    if probe is not None and probe.positive_dimensional and hil < 1:
        raise InvariantError(
            f"point count {probe.counts} exceeds cutoff {probe.cutoff} but the "
            f"Hilbert detector gives dimension {hil}; "
            f"{_replay_note(field, r, degrees, row, seed, chunk)}"
        )


def excess_experiment(r: int, degrees, a: int, field: Field, mode: str = "auto",
                      trials: int | None = None, seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Estimate the codimension of the locus of tuples whose common vanishing
    locus has dimension at least r - k + a, and attach the predicted value.

    Exhaustive mode counts all q^total tuples exactly but decides one tuple
    per scaling orbit, and takes no ``trials``; sampled mode decides
    ``trials`` seeded tuples (20000 by default)."""
    degrees = tuple(degrees)
    k = len(degrees)
    if a < 1:
        raise ParameterError(f"need a >= 1, got {a}")
    check_seed(seed)
    threshold = r - k + a
    if threshold < 0:
        raise ParameterError(f"need r - k + a >= 0, got {threshold}")
    predicted = span_stratum_exact(r, a, tuple(sorted(degrees)))

    q = field.q
    dims = [n_monomials(r, d) for d in degrees]
    linear = all(d == 1 for d in degrees)
    mode, trials = _plan(mode, trials, q, sum(dims), linear, 20_000)

    def decide(block):
        if linear:
            # the k x (r+1) coefficient matrix of a linear tuple cuts out a
            # linear space of projective dimension r - rank
            return r - batch_rank(field, block.reshape(len(block), k, r + 1)) >= threshold
        return batch_dim_at_least(field, r, degrees, block, threshold, seed)

    hits, checked = _walk(mode, q, dims, trials, seed, decide)
    # one batched reference and one batched point probe over the checked
    # samples, compared in sample order, so the first disagreeing sample is
    # the one named; a sample whose window is over budget (None) is skipped
    rows = np.array([row for row, _, _ in checked])
    hil_dims = batch_projective_dim_hilbert(field, r, degrees, rows)
    fits = [i for i, hil in enumerate(hil_dims) if hil is not None]
    probes = batch_projective_dim_points(field, r, degrees, rows[fits], PROBE_M_MAX)
    for i, probe in zip(fits, probes):
        row, hit, chunk = checked[i]
        _crosscheck_sample(field, r, degrees, row, seed, chunk, threshold, hit, hil_dims[i], probe)

    est, status = _estimate(hits, trials, q)
    return ExperimentResult(
        kind="excess", q=q, r=r, degrees=degrees, a=a, mode=mode,
        trials=trials, hits=hits, seed=seed, est_codim=est,
        predicted_codim=predicted, status=status, crosscheck_skipped=hil_dims.count(None),
    )


@dataclass(frozen=True)
class SingularMembership:
    sing_dim: int


def _singular_generators(F: MultiPoly) -> list[MultiPoly]:
    """F and its formal partial derivatives, which cut out Sing(F)."""
    return [F] + [F.partial(i) for i in range(F.r + 1)]


def singular_membership(F: MultiPoly) -> SingularMembership:
    """Projective dimension of the scheme cut out by F and its formal
    partial derivatives (the singular locus, scheme-theoretically)."""
    if F.d < 2:
        raise ParameterError(f"need deg F >= 2, got {F.d}")
    field, r = F.field, F.r
    gens = [g for g in _singular_generators(F) if not g.is_zero]
    dim = r if not gens else projective_dim_hilbert(gens, field=field, r=r)
    return SingularMembership(sing_dim=dim)


def _singular_block(field: Field, r: int, ell: int, rows: np.ndarray,
                    skip: int) -> tuple[list[int], np.ndarray]:
    """The degrees and the block [F | dF/dX_0 | ... | dF/dX_r] of the
    degree-ell forms F in rows, with its first ``skip`` forms left out."""
    forms = [rows] + [partial_rows(field, r, ell, i, rows) for i in range(r + 1)]
    return ([ell] + [ell - 1] * (r + 1))[skip:], np.concatenate(forms[skip:], axis=1)


def _all_coeff_rows(q: int, n: int) -> np.ndarray:
    """All q^n coefficient vectors, little-endian in the row index."""
    return _digits(np.arange(q**n, dtype=np.int64), q, n)


def _row_keys(q: int, rows: np.ndarray) -> np.ndarray:
    """The uint64 base-q value of each row, the inverse of ``_digits``."""
    return rows.astype(np.uint64) @ np.uint64(q) ** np.arange(rows.shape[1], dtype=np.uint64)


def _is_marked(marked: np.ndarray, q: int, rows: np.ndarray) -> np.ndarray:
    """Whether each row's key is in the sorted, nonempty keys marked."""
    keys = _row_keys(q, rows)
    return marked[np.minimum(np.searchsorted(marked, keys), marked.size - 1)] == keys


@lru_cache(maxsize=8)
def repeated_factor_keys(field: Field, r: int, ell: int) -> np.ndarray:
    """The sorted, read-only ``_row_keys`` of every degree-ell form divisible
    by the square of a positive-degree form (the zero form, key 0, included).

    In the plane this is exactly the positive-dimensional-singular-locus set:
    the partials of H^2*G are all divisible by H, so V(H) is singular on
    V(H^2*G); conversely a squarefree plane curve has a finite singular
    locus, and over a finite (perfect) field squarefree is a geometric
    property.  The enumeration is capped at MARKED_SET_BUDGET steps.
    """
    q = field.q
    if q ** n_monomials(r, ell) >= 2**64:
        raise BudgetError(f"degree-{ell} forms over GF({q}) have keys over 64 bits")
    cost = 0
    for h in range(1, ell // 2 + 1):
        reps = _n_classes(q, n_monomials(r, h)) - 1
        cost += reps * (q ** n_monomials(r, ell - 2 * h))
    if cost > MARKED_SET_BUDGET:
        raise BudgetError(f"repeated-factor enumeration needs ~{cost} steps, over budget")

    keys = []
    for h in range(1, ell // 2 + 1):
        all_g = _all_coeff_rows(q, n_monomials(r, ell - 2 * h))
        # one H per scaling class is enough: lambda H gives H^2 (lambda^2 G)
        n = n_monomials(r, h)
        for coeffs in _class_rows(q, n, np.arange(1, _n_classes(q, n))):
            H = MultiPoly(field, r, h, coeffs)
            # G -> H^2 * G is linear, its matrix the degree-ell Macaulay
            # matrix of H^2
            square = macaulay_stack(1, r, ell, [2 * h], [(H * H).coeffs[None]])[0]
            keys.append(_row_keys(q, rows_times(field, all_g, square)))
    marked = np.unique(np.concatenate(keys))
    marked.flags.writeable = False
    return marked


def singular_experiment(r: int, ell: int, field: Field, mode: str = "auto",
                        trials: int | None = None,
                        seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Estimate the codimension of the degree-ell forms whose singular locus
    is positive-dimensional, against the singular-line prediction."""
    if field.p != 2:
        raise ParameterError("the singular experiment runs over characteristic 2")
    if r < 2 or ell < 3:
        raise ParameterError(f"need r >= 2 and ell >= 3, got r={r}, ell={ell}")
    check_seed(seed)
    predicted = singular_line_codim(r, ell)
    q = field.q
    n = n_monomials(r, ell)
    mode, trials = _plan(mode, trials, q, n, r == 2, 1_000_000 if r == 2 else 2_000)

    if r == 2:
        marked = repeated_factor_keys(field, r, ell)
        if mode == "exhaustive":
            hits = marked.size  # the set is the exhaustive count
        else:
            hits, _ = _walk(mode, q, [n], trials, seed,
                            lambda rows: _is_marked(marked, q, rows))
        _verify_marked(field, r, ell, marked, seed)
    else:
        # no squarefree shortcut beyond the plane: the section test on F and
        # its partials decides dim Sing(F) >= 1.  Euler's relation puts F in
        # the ideal of its partials unless the characteristic divides ell;
        # F is then left out
        skip = 1 if ell % field.p else 0

        def decide(rows):
            degrees, block = _singular_block(field, r, ell, rows, skip)
            return batch_dim_at_least(field, r, degrees, block, 1, seed)

        hits, _ = _walk(mode, q, [n], trials, seed, decide)

    est, status = _estimate(hits, trials, q)
    return ExperimentResult(
        kind="singular", q=q, r=r, ell=ell, mode=mode,
        trials=trials, hits=hits, seed=seed, est_codim=est,
        predicted_codim=predicted, status=status,
    )


def _verify_marked(field: Field, r: int, ell: int, marked: np.ndarray, seed: int):
    """Spot-check the repeated-factor set against the Hilbert reference, on
    forms spaced through its nonzero keys and forms drawn from Philox stream
    2^31, with one batched call on their [F | partials] block.  A form whose
    window is over budget raises BudgetError: the check cannot pass on it."""
    half, n = VERIFY_SAMPLES // 2, n_monomials(r, ell)
    inside = marked[1:]  # key 0, the zero form, sorts first
    picks = _digits(inside[::max(1, inside.size // half)][:half], field.q, n)
    drawn = _chunk_rng(seed, 2**31).integers(0, field.q, size=(VERIFY_SAMPLES - len(picks), n),
                                             dtype=np.uint16)
    rows = np.concatenate([picks, drawn])
    hits = _is_marked(marked, field.q, rows)
    degrees, block = _singular_block(field, r, ell, rows, 0)
    for row, hit, dim in zip(rows, hits, batch_projective_dim_hilbert(field, r, degrees, block)):
        if dim is None:
            raise BudgetError(f"the Hilbert window of a degree-{ell} plane form is over budget")
        _crosscheck_sample(field, r, [ell], row, seed, 2**31, 1, hit, dim, None)


@dataclass(frozen=True)
class PoonenSample:
    F: MultiPoly
    base: MultiPoly
    fudge: tuple[MultiPoly, ...]


def poonen_combine(base: MultiPoly, fudge) -> MultiPoly:
    """Recombine a base form with squared fudge factors so that the partial
    derivatives decouple (characteristic 2 only).

    Odd degree: F = G + sum_i X_i * G_i^2, so dF/dX_i = dG/dX_i + G_i^2.
    Even degree: F = G + X_0*X_1*G_0^2 + X_0 * sum_{i>=1} X_i*G_i^2, so
    dF/dX_i = dG/dX_i + X_0*G_i^2 for i >= 2, with the G_0/G_1 terms joined
    through X_0*X_1.
    """
    field, r, ell = base.field, base.r, base.d
    if field.p != 2:
        raise ParameterError("fudge-factor decoupling needs characteristic 2")
    fudge = tuple(fudge)
    if len(fudge) != r + 1:
        raise ParameterError(f"need r + 1 = {r + 1} fudge factors, got {len(fudge)}")
    dg = (ell - 1) // 2  # ell = 2 dg + 1, or ell = 2 dg + 2
    if dg < 1:
        raise ParameterError(f"degree {ell} leaves no room for fudge factors")
    for G in fudge:
        if G.d != dg or G.field is not field or G.r != r:
            raise ParameterError(f"fudge factors must be degree {dg} forms on the same space")

    X = [MultiPoly.variable(field, r, i) for i in range(r + 1)]
    F = base
    if ell % 2 == 1:
        for i in range(r + 1):
            F = F + X[i] * fudge[i].square()
    else:
        F = F + X[0] * X[1] * fudge[0].square()
        for i in range(1, r + 1):
            F = F + X[0] * X[i] * fudge[i].square()
    return F


def poonen_sample(r: int, ell: int, field: Field, seed: int = DEFAULT_SEED) -> PoonenSample:
    """Draw (G, G_0..G_r) uniformly and recombine; the resulting F is itself
    uniform because G -> F is an affine shift for fixed fudge factors."""
    dg = (ell - 1) // 2  # ell = 2 dg + 1, or ell = 2 dg + 2
    check_seed(seed)
    rng = _chunk_rng(seed, 0)
    base = MultiPoly.random(field, r, ell, rng)
    fudge = tuple(MultiPoly.random(field, r, dg, rng) for _ in range(r + 1))
    return PoonenSample(F=poonen_combine(base, fudge), base=base, fudge=fudge)


def restriction_codim(r: int, d: int, b: int, field: Field | None = None,
                      seed: int = DEFAULT_SEED) -> int:
    """Rank of the restriction map from degree-d forms on projective r-space
    to a seeded b-plane, computed by explicit linear algebra; a genuine
    b-plane always gives C(d+b, b)."""
    if field is None:
        field = gf(2)
    if not 0 <= b <= r:
        raise ParameterError(f"need 0 <= b <= r, got b={b}, r={r}")
    if d < 1:
        raise ParameterError(f"need d >= 1, got {d}")
    check_seed(seed)
    return matrix_rank(field, restriction_map(field, r, b, seed, 0, d))
