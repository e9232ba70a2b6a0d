"""Codimension experiments over small finite fields.

Membership probability of a closed locus decays like q^(-codim), so the
negated log_q hit rate of an exhaustive or sampled run estimates the
codimension and can confront the closed-form predictions.  Sampling is
counter-based (one Philox stream per fixed-size chunk), so results depend
only on the seed and configuration.

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
[F | dF/dX_0 | ... | dF/dX_r], its partials taken by ``partial_rows``.  A plane
curve is looked up in the exact set of forms with a repeated factor, built
by ``repeated_factor_keys`` with one ``rows_times`` product per square H^2
that multiplies every cofactor G at once; H runs over one form per scaling
class, from the same class walk.

For odd ell the singular samples leave F out.  Euler's relation
ell * F = sum_i X_i dF/dX_i puts F in the ideal of its partials whenever the
characteristic does not divide ell, so V(F, dF) = V(dF) and the decision is
the same, on a smaller system: for ell = 3 over GF(2) the sections rank
24 x 15 matrices in degree 4 in place of 46 x 21 in degree 5.  For even ell
F stays.  ``singular_membership``, the Hilbert reference that checks the
plane's repeated-factor set, always keeps F, so that it stays independent.

In an excess run about CROSSCHECK_SAMPLES evenly spaced samples (orbit
representatives in exhaustive mode) are also checked against two
independent detectors: the Hilbert-window dimension must give the same
decision dim >= r - k + a, and a conclusive point count must be matched by
a positive Hilbert dimension.  After the last chunk, one
``batch_projective_dim_hilbert`` call on the block of their rows gives all
their dimensions, and one ``batch_projective_dim_points`` call on the rows
whose window fits gives all their point counts; the samples are then
compared one by one in sample order.  A failed check raises
``InvariantError`` naming the first failing sample as ``poly_to_line``
lines with its seed and chunk, so it can be replayed.  The window of a
sample can go over the matrix budget (from r = 4 on it mostly does); the
reference gives None for such a sample, which is neither probed nor
checked, and the result counts it in ``crosscheck_skipped``.

The mode, trials, seed and m_max are checked before any work; a bad value,
or trials given to exhaustive mode, raises ParameterError.
"""

from __future__ import annotations

import math
import time
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
    macaulay_stack,
    projective_dim_hilbert,
    restriction_map,
)
from .linalg import batch_rank, matrix_rank, rows_times
from .points import PointProbe, batch_projective_dim_points
from .polynomials import MultiPoly, n_monomials, partial_rows, poly_to_line

DEFAULT_SEED = 271828
CHUNK = 4096
MAX_EXHAUSTIVE = 2**24
SLOW_EXHAUSTIVE_LIMIT = 4096  # per-sample dimension detection is expensive
MARKED_SET_BUDGET = 5_000_000
CROSSCHECK_SAMPLES = 48  # excess samples compared with the Hilbert reference per run
VERIFY_SAMPLES = 24  # plane forms checked against the repeated-factor set per run


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
    runtime_s: float
    degrees: tuple[int, ...] | None = None
    ell: int | None = None
    a: int | None = None
    crosscheck_skipped: int = 0  # crosscheck samples whose Hilbert window is over budget


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, chunk_index]))


def _chunks(trials: int):
    """(index, first sample, size) of each CHUNK-sized chunk of a run."""
    for lo in range(0, trials, CHUNK):
        yield lo // CHUNK, lo, min(CHUNK, trials - lo)


def _check_run(mode: str, trials: int | None, seed: int):
    """The checks every experiment makes of its mode, trials and seed."""
    if mode not in ("auto", "exhaustive", "sampled"):
        raise ParameterError(f"unknown mode {mode!r}")
    if trials is not None and trials < 1:
        raise ParameterError(f"need trials >= 1, got {trials}")
    if trials is not None and mode == "exhaustive":
        raise ParameterError("exhaustive mode examines every tuple; trials cannot be set")
    check_seed(seed)


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


def _estimate(hits: int, trials: int, q: int) -> tuple[float | None, str]:
    if hits == 0:
        return None, "inconclusive"
    return (math.log(trials) - math.log(hits)) / math.log(q), "ok"


def _replay_note(generators, seed: int, chunk: int) -> str:
    """The sample as exchange-format lines, with the seed and chunk that
    produced it."""
    lines = "\n".join(poly_to_line(g) for g in generators)
    return f"seed {seed}, chunk {chunk}, generators:\n{lines}"


def _crosscheck_sample(generators, s: int, hit: bool, hil: int, probe: PointProbe | None,
                       seed: int, chunk: int):
    """Independent-detector agreement for one sample: its Hilbert-window
    dimension hil must give the same decision dim >= s, and a conclusive
    positive point count (probe, None when no extension fits the point
    budget) must be matched by it, or the run dies naming the sample."""
    if (hil >= s) != hit:
        raise InvariantError(
            f"the sample's decision dim >= {s} is {hit} but the Hilbert detector "
            f"gives dimension {hil}; {_replay_note(generators, seed, chunk)}"
        )
    if probe is not None and probe.positive_dimensional and hil < 1:
        raise InvariantError(
            f"point count {probe.counts} exceeds cutoff {probe.cutoff} but the "
            f"Hilbert detector gives dimension {hil}; "
            f"{_replay_note(generators, seed, chunk)}"
        )


def excess_experiment(r: int, degrees, a: int, field: Field, mode: str = "auto",
                      trials: int | None = None, seed: int = DEFAULT_SEED,
                      m_max: int = 2) -> ExperimentResult:
    """Estimate the codimension of the locus of tuples whose common vanishing
    locus has dimension at least r - k + a, and attach the predicted value.

    Exhaustive mode counts all q^total tuples exactly but decides one tuple
    per scaling orbit, and takes no ``trials``; sampled mode decides
    ``trials`` seeded tuples (20000 by default)."""
    start = time.perf_counter()
    degrees = tuple(degrees)
    k = len(degrees)
    if a < 1:
        raise ParameterError(f"need a >= 1, got {a}")
    _check_run(mode, trials, seed)
    if not 1 <= m_max <= 3:
        raise ParameterError(f"need 1 <= m_max <= 3, got {m_max}")
    threshold = r - k + a
    if threshold < 0:
        raise ParameterError(f"need r - k + a >= 0, got {threshold}")
    predicted = span_stratum_exact(r, a, tuple(sorted(degrees)))

    q = field.q
    dims = [n_monomials(r, d) for d in degrees]
    total = sum(dims)
    space = q**total
    linear = all(d == 1 for d in degrees)

    if mode == "auto":
        feasible = space <= MAX_EXHAUSTIVE and (linear or space <= SLOW_EXHAUSTIVE_LIMIT)
        mode = "exhaustive" if feasible else "sampled"
    if mode == "exhaustive":
        if space > MAX_EXHAUSTIVE:
            raise BudgetError(
                f"state space {q}^{total} exceeds the exhaustive cap {MAX_EXHAUSTIVE}"
            )
        if space > SLOW_EXHAUSTIVE_LIMIT and not linear:
            raise BudgetError(
                f"exhaustive run over {q}^{total} tuples with per-sample rank "
                f"detection is over budget; use sampled mode"
            )
        # scaling a form leaves its locus alone, so one tuple per orbit is
        # decided and counted with its orbit's size
        trials = space
        samples = math.prod(_n_classes(q, size) for size in dims)
    else:
        trials = samples = 20_000 if trials is None else trials

    check_every = max(1, samples // CROSSCHECK_SAMPLES)
    hits = 0
    checked = []  # (coefficient row, decision, chunk) of the samples due a crosscheck
    for chunk, lo, n in _chunks(samples):
        weight = None
        if mode == "exhaustive":
            block, weight = _class_block(q, dims, lo, n)
        else:
            block = _chunk_rng(seed, chunk).integers(0, q, size=(n, total), dtype=np.uint16)
        if linear:
            # the k x (r+1) coefficient matrix of a linear tuple cuts out a
            # linear space of projective dimension r - rank
            hit = r - batch_rank(field, block.reshape(n, k, r + 1)) >= threshold
        else:
            hit = batch_dim_at_least(field, r, degrees, block, threshold, seed)
        hits += int(np.count_nonzero(hit) if weight is None else weight[hit].sum())
        checked.extend((block[i], bool(hit[i]), chunk)
                       for i in range((-lo) % check_every, n, check_every))
    # one batched reference and one batched point probe over the checked
    # samples, compared in sample order, so the first disagreeing sample is
    # the one named; a sample whose window is over budget (None) is skipped
    rows = np.array([row for row, _, _ in checked])
    hil_dims = batch_projective_dim_hilbert(field, r, degrees, rows)
    fits = [i for i, hil in enumerate(hil_dims) if hil is not None]
    probes = batch_projective_dim_points(field, r, degrees, rows[fits], m_max)
    ends = np.cumsum(dims)[:-1]  # where each form's coefficients end in a row
    for i, probe in zip(fits, probes):
        row, hit, chunk = checked[i]
        gens = [MultiPoly(field, r, d, c) for d, c in zip(degrees, np.split(row, ends))]
        _crosscheck_sample(gens, threshold, hit, hil_dims[i], probe, seed, chunk)

    est, status = _estimate(hits, trials, q)
    return ExperimentResult(
        kind="excess", q=q, r=r, degrees=degrees, a=a, mode=mode,
        trials=trials, hits=hits, seed=seed, est_codim=est,
        predicted_codim=predicted, status=status,
        runtime_s=time.perf_counter() - start, crosscheck_skipped=hil_dims.count(None),
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


def _all_coeff_rows(q: int, n: int) -> np.ndarray:
    """All q^n coefficient vectors, little-endian in the row index."""
    return _digits(np.arange(q**n, dtype=np.int64), q, n)


@lru_cache(maxsize=8)
def repeated_factor_keys(field: Field, r: int, ell: int) -> frozenset[bytes]:
    """Coefficient keys of every degree-ell form divisible by the square of a
    positive-degree form (the zero form included).

    In the plane this is exactly the positive-dimensional-singular-locus set:
    the partials of H^2*G are all divisible by H, so V(H) is singular on
    V(H^2*G); conversely a squarefree plane curve has a finite singular
    locus, and over a finite (perfect) field squarefree is a geometric
    property.  The enumeration is capped at MARKED_SET_BUDGET steps.
    """
    q = field.q
    cost = 0
    for h in range(1, ell // 2 + 1):
        reps = _n_classes(q, n_monomials(r, h)) - 1
        cost += reps * (q ** n_monomials(r, ell - 2 * h))
    if cost > MARKED_SET_BUDGET:
        raise BudgetError(f"repeated-factor enumeration needs ~{cost} steps, over budget")

    marked: set[bytes] = set()
    for h in range(1, ell // 2 + 1):
        all_g = _all_coeff_rows(q, n_monomials(r, ell - 2 * h))
        # one H per scaling class is enough: lambda H gives H^2 (lambda^2 G)
        n = n_monomials(r, h)
        for coeffs in _class_rows(q, n, np.arange(1, _n_classes(q, n))):
            H = MultiPoly(field, r, h, coeffs)
            # G -> H^2 * G is linear, its matrix the degree-ell Macaulay
            # matrix of H^2
            square = macaulay_stack(1, r, ell, [2 * h], [(H * H).coeffs[None]])[0]
            marked.update(row.tobytes() for row in rows_times(field, all_g, square))
    return frozenset(marked)


def singular_experiment(r: int, ell: int, field: Field, mode: str = "auto",
                        trials: int | None = None,
                        seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Estimate the codimension of the degree-ell forms whose singular locus
    is positive-dimensional, against the singular-line prediction."""
    start = time.perf_counter()
    if field.p != 2:
        raise ParameterError("the singular experiment runs over characteristic 2")
    if r < 2 or ell < 3:
        raise ParameterError(f"need r >= 2 and ell >= 3, got r={r}, ell={ell}")
    _check_run(mode, trials, seed)
    predicted = singular_line_codim(r, ell)
    q = field.q
    n = n_monomials(r, ell)
    space = q**n

    if r == 2:
        marked = repeated_factor_keys(field, r, ell)
        if mode == "auto":
            mode = "exhaustive" if space <= MAX_EXHAUSTIVE else "sampled"
        if mode == "exhaustive":
            if space > MAX_EXHAUSTIVE:
                raise BudgetError(f"state space {q}^{n} exceeds the exhaustive cap")
            trials = space
            hits = len(marked)
        else:
            if trials is None:
                trials = 1_000_000
            hits = 0
            for chunk, _, m in _chunks(trials):
                rows = _chunk_rng(seed, chunk).integers(0, q, size=(m, n), dtype=np.uint16)
                hits += sum(1 for row in rows if row.tobytes() in marked)

        _verify_marked(field, r, ell, marked, seed)
    else:
        # no squarefree shortcut beyond the plane: the section test on F and
        # its partials decides dim Sing(F) >= 1, one chunk per call
        if mode == "exhaustive":
            # characteristic 2 with r >= 3 and ell >= 3 gives at least 2^20
            # forms, always above SLOW_EXHAUSTIVE_LIMIT
            raise BudgetError(f"exhaustive singular run over {q}^{n} forms is over budget")
        mode = "sampled"
        if trials is None:
            trials = 2_000
        hits = 0
        # Euler's relation puts F in the ideal of its partials unless the
        # characteristic divides ell; F is then left out
        skip = 1 if ell % field.p else 0
        degrees = ([ell] + [ell - 1] * (r + 1))[skip:]
        for chunk, _, m in _chunks(trials):
            rows = _chunk_rng(seed, chunk).integers(0, q, size=(m, n), dtype=np.uint16)
            forms = [rows] + [partial_rows(field, r, ell, i, rows) for i in range(r + 1)]
            block = np.concatenate(forms[skip:], axis=1)
            hits += int(np.count_nonzero(batch_dim_at_least(field, r, degrees, block, 1, seed)))

    est, status = _estimate(hits, trials, q)
    return ExperimentResult(
        kind="singular", q=q, r=r, ell=ell, mode=mode,
        trials=trials, hits=hits, seed=seed, est_codim=est,
        predicted_codim=predicted, status=status,
        runtime_s=time.perf_counter() - start,
    )


def _verify_marked(field: Field, r: int, ell: int, marked: frozenset[bytes], seed: int):
    """Spot-check the repeated-factor set against the rank detector."""
    n = n_monomials(r, ell)
    picks: list[bytes] = []
    inside = sorted(marked)
    step = max(1, len(inside) // (VERIFY_SAMPLES // 2))
    picks.extend(inside[::step][: VERIFY_SAMPLES // 2])
    rng = _chunk_rng(seed, 2**31)
    rows = rng.integers(0, field.q, size=(VERIFY_SAMPLES - len(picks), n), dtype=np.uint16)
    picks.extend(row.tobytes() for row in rows)
    for key in picks:
        coeffs = np.frombuffer(key, dtype=np.uint16)
        F = MultiPoly(field, r, ell, coeffs)
        if F.is_zero:
            continue
        expected = key in marked
        got = singular_membership(F).sing_dim >= 1
        if expected != got:
            raise InvariantError(
                f"repeated-factor set says {expected} but the Hilbert detector says "
                f"{got} (seed {seed}) on the form\n"
                f"{poly_to_line(F)}"
            )


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
    if ell % 2 == 1:
        dg = (ell - 1) // 2
    else:
        dg = ell // 2 - 1
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
    if ell % 2 == 1:
        dg = (ell - 1) // 2
    else:
        dg = ell // 2 - 1
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
