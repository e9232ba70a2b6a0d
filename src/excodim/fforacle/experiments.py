"""Codimension experiments over small finite fields.

Membership probability of a closed locus decays like q^(-codim), so the
negated log_q hit rate of an exhaustive or sampled run estimates the
codimension and can confront the closed-form predictions.  Sampling is
counter-based (one Philox stream per fixed-size chunk), so results depend
only on the seed and configuration.

Both experiments, the excess-intersection locus and the locus of forms with
a positive-dimensional singular locus, are this one estimator and share
one code path.  ``_plan`` is the mode and budget policy.  It checks the
mode and trials, and the experiments the seed, before any work: a bad value,
or trials given to exhaustive mode, raises ParameterError.  The budgets come
next, also before any work.  A run decided by the section test (nonlinear
excess tuples, singular forms beyond the plane) has its restriction maps,
their index tables and section pieces checked by
``hilbert.section_budget`` on all its degrees, and its section field built
by ``hilbert.section_field``, so a run over that budget, or whose section
field is over the table budget, raises BudgetError before its first draw.
The one exhaustive cap, MAX_EXHAUSTIVE, counts the scaling-class rows the
exhaustive walk decides: auto mode runs exhaustive when they fit, and an
exhaustive run over it raises BudgetError.  An exhaustive plane singular run
counts the repeated-factor set and walks no rows, so only MARKED_SET_BUDGET
bounds it, and auto mode always counts that set.  A given ``trials`` means a
sampled run of that many draws, in auto mode too, and more than MAX_TRIALS
raises BudgetError.  ``_plan`` also gives the walk its length, and ``_walk``
is the chunk loop: it makes one ``decide`` call per chunk, adds the weights
of the chunk's outcome codes (2 * certificate + decision, see ``hilbert``)
to one int64 histogram, and keeps every few rows for the crosscheck.  That
histogram is the run's result, ``ExperimentResult.outcomes``; the trials, the
hits (the tuples of the "in" codes), ``est_codim`` and ``status`` are reads
of it, not stored next to it.

Both loci are cones: V(c_1 g_1, ..., c_k g_k) = V(g_1, ..., g_k) for nonzero
scalars c_i, and every test below (the linear rank, the section test, the
Hilbert window and the point count) gives the same decision on each tuple
of such an orbit.  Exhaustive mode therefore decides one tuple per orbit:
it walks a mixed-radix index with one digit per form, the scaling class of
that form (zero, or a vector whose top nonzero coefficient is one), and
counts its code with the weight (q - 1)^(nonzero forms) of its orbit.  The
class rows, and the digit rows and keys of coefficient vectors, come from
``fields``, their one owner; the points of ``points`` are the same classes.
The weights sum to q^total, so ``trials`` still counts every tuple.  Over
GF(2) every orbit is a single tuple and the walk is the plain base-2
enumeration.

The experiments run their chunks one after another.  A chunk's samples
form one (n, coefficients) block, built from the class indices in
exhaustive mode or drawn from the chunk's stream in sampled mode; no chunk
loop builds a ``MultiPoly`` per sample.  ``_walk`` calls the run's decider
once per chunk, and every decider is a ``functools.partial`` of a
module-level function, so it pickles.  An excess chunk is one
``batch_dim_at_least`` call on the block as drawn, which ranks a block of
linear tuples exactly, as one (n, k, r + 1) stack, and decides any other by
the linear-section test.  Beyond the plane ``_singular_decide`` makes the
same call on the singular block [F | dF/dX_0 | ... | dF/dX_r] of
``_singular_block``, its partials taken by ``partial_rows`` and its degrees
written once, in ``_singular_degrees``.  In the plane ``_is_marked`` looks
each curve up in the exact set of forms with a repeated factor, the sorted
base-q values of their rows, built by ``repeated_factor_keys`` with one
``rows_times`` product per square H^2 that multiplies every cofactor G at
once; H runs over one form per scaling class, from the same class walk.  Its
codes are IN_SET and OUT_SET, and an exhaustive plane run fills that pair
from the size of the set.

The singular experiment runs over every supported field: the plane's
repeated-factor set and the Jacobian criterion V(F, dF) = Sing V(F) hold in
any characteristic.  Only ``poonen_combine`` needs characteristic 2.  When
the characteristic does not divide ell the singular samples leave F out:
Euler's relation ell * F = sum_i X_i dF/dX_i puts F in the ideal of its
partials, so V(F, dF) = V(dF) and the decision is the same, on a smaller
system: for ell = 3 over GF(2) the sections rank 24 x 15 matrices in degree
4 in place of 46 x 21 in degree 5.  Otherwise (even ell over GF(2)) F
stays.  The Hilbert reference that checks the plane's repeated-factor set
always keeps F, so that it stays independent.

Every crosscheck is one call of ``_crosscheck`` on a block of samples, their
rows, outcome codes and chunks, which checks each decision dim >= s against
independent detectors and returns how many rows it skipped.  Linear forms
whose P^r(F_q) has at most ``points.MAX_POINTS`` points are checked exactly,
off ``batch_rank``: a linear space of dimension delta has (q^(delta + 1) - 1)
/ (q - 1) points, so one ``_common_zeros`` count gives each row its dimension
(``_linear_dims``).  Any other block takes one ``batch_projective_dim_hilbert``
call, whose windows stop only on exact rules, where h persists or on two
coprime forms (see ``hilbert``), and the rows whose window fits one point
probe over PROBE_M_MAX extension degrees: a conclusive positive count must
be matched by a positive dimension.  A row whose window reaches a piece over
the matrix budget before it stops, or whose flat window could persist only
there, is skipped: at r = 4, every sample of three quadrics, and none of two
quadrics or of a linear form and a quadric; at r = 3, most samples of a
quadric and two cubics, finite schemes of degree 18.
Rows are compared in order, so the check is block-local: a block checked in
parts skips as many rows and fails on the same row with the same message.
An excess run checks the block ``_walk`` keeps, about CROSSCHECK_SAMPLES
evenly spaced samples (orbit representatives in exhaustive mode), and
reports the skips as ``crosscheck_skipped``; the in-by-rank tally of an
exhaustive linear run must also equal the number of k x (r + 1) matrices of
rank at most r - s over F_q (``_rank_count``).  A plane singular run checks
the [F | partials] rows of VERIFY_SAMPLES forms, half spaced through its
repeated-factor set and half drawn from Philox stream 2^31 (its chunk), with
s = 1; a skipped form raises BudgetError.  A failed check raises
``InvariantError`` naming the decision's certificate next to the reference
dimension, and the failing sample as ``poly_to_line`` lines (a plane form F
and then its partials) with its seed and chunk, so it can be replayed.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from dataclasses import dataclass

import numpy as np

from ..applications import singular_line_codim
from ..errors import BudgetError, InvariantError, ParameterError
from ..strata import span_stratum_exact
from .fields import Field, _all_coeff_rows, _class_rows, _digits, _n_classes, _row_keys
from .hilbert import (
    CERTIFICATES,
    IN_RANK,
    IN_SET,
    OUT_SET,
    batch_dim_at_least,
    batch_projective_dim_hilbert,
    check_seed,
    section_budget,
    section_field,
)
from .linalg import rows_times
from .points import MAX_POINTS, _common_zeros, batch_projective_dim_points
from .polynomials import MultiPoly, macaulay_stack, n_monomials, partial_rows, poly_to_line

DEFAULT_SEED = 271828
CHUNK = 4096
MAX_EXHAUSTIVE = 2**17  # scaling-class rows an exhaustive walk decides
MAX_TRIALS = 2**24  # sampled draws: chunk indices stay below 2^12, far from streams 2^31, 2^32 + k
MARKED_SET_BUDGET = 5_000_000
CROSSCHECK_SAMPLES = 48  # excess samples compared with the Hilbert reference per run
VERIFY_SAMPLES = 24  # plane forms checked against the repeated-factor set per run
PROBE_M_MAX = 2  # extension degrees the crosscheck's point probe counts over


@dataclass(frozen=True)
class ExperimentResult:
    """One oracle run: what it knows, and every tally read from its outcomes."""

    mode: str
    q: int
    seed: int
    predicted_codim: int
    outcomes: tuple[int, ...]  # tuples of each outcome code, indexed by code
    crosscheck_skipped: int = 0  # crosscheck samples whose Hilbert window is over budget

    @property
    def trials(self) -> int:
        """The draws of a sampled run, all q^total tuples of an exhaustive one."""
        return sum(self.outcomes)

    @property
    def hits(self) -> int:
        """The tuples of the "in" codes."""
        return sum(self.outcomes[1::2])

    @property
    def est_codim(self) -> float | None:
        """The negated log_q hit rate, None when nothing hit."""
        hits = self.hits
        return None if hits == 0 else (math.log(self.trials) - math.log(hits)) / math.log(self.q)

    @property
    def status(self) -> str:
        return "inconclusive" if self.hits == 0 else "ok"


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, chunk_index]))


def _plan(mode: str, trials: int | None, field: Field, dims, default: int,
          section=None, counted: bool = False) -> tuple[str, int | None]:
    """The mode and walk length of a run over tuples of forms with ``dims``
    coefficients: the scaling-class rows of an exhaustive run, the draws of
    a sampled one (``default`` when no trials are given).  The mode, trials
    and budgets are checked as the module docstring describes, before
    anything is drawn.  A ``counted`` run (the plane singular run) walks
    nothing in exhaustive mode, and a run decided by the section test gives
    its (r, degrees, s) as ``section``."""
    if mode not in ("auto", "exhaustive", "sampled"):
        raise ParameterError(f"unknown mode {mode!r}")
    if trials is not None and trials < 1:
        raise ParameterError(f"need trials >= 1, got {trials}")
    if trials is not None and mode == "exhaustive":
        raise ParameterError("exhaustive mode examines every tuple; trials cannot be set")
    if trials is not None and trials > MAX_TRIALS:
        raise BudgetError(f"{trials} trials are over budget (cap {MAX_TRIALS})")
    # a form of n coefficients has at least 2^(n - 1) classes, so rows far
    # over the cap (None) are told without building q^total
    far = sum(dims) - len(dims) >= MAX_EXHAUSTIVE.bit_length()
    rows = None if far else math.prod(_n_classes(field.q, n) for n in dims)
    fits = counted or (rows is not None and rows <= MAX_EXHAUSTIVE)
    if mode == "auto":
        mode = "exhaustive" if trials is None and fits else "sampled"
    if section is not None:
        section_budget(*section)
        section_field(field)
    if mode == "sampled":
        return mode, default if trials is None else trials
    if not fits:
        raise BudgetError(f"exhaustive run over {field.q}^{sum(dims)} tuples is over budget: "
                          f"it walks over {MAX_EXHAUSTIVE} scaling classes; use sampled mode")
    return mode, rows


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


def _walk(mode: str, q: int, dims, samples: int, seed: int,
          decide) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Decide the ``samples`` samples of a run, the walk length ``_plan``
    gives, one CHUNK-sized block at a time: the class walk with its orbit
    weights in exhaustive mode, the chunk's Philox draws in sampled mode.
    ``decide`` maps a block to its outcome codes.  Returns the int64
    histogram of the weighted codes and the kept block of every
    samples // CROSSCHECK_SAMPLES-th sample for ``_crosscheck``: its rows,
    codes and chunks, as three arrays."""
    check_every = max(1, samples // CROSSCHECK_SAMPLES)
    outcomes, kept = np.zeros(2 * len(CERTIFICATES), dtype=np.int64), []
    for lo in range(0, samples, CHUNK):
        chunk, n = lo // CHUNK, min(CHUNK, samples - lo)
        if mode == "exhaustive":
            block, weight = _class_block(q, dims, lo, n)
        else:
            block, weight = _chunk_rng(seed, chunk).integers(
                0, q, size=(n, sum(dims)), dtype=np.uint16), 1
        code = decide(block)
        np.add.at(outcomes, code, weight)
        keep = slice((-lo) % check_every, n, check_every)
        rows = block[keep]
        kept.append((rows, code[keep], np.full(len(rows), chunk)))
    return outcomes, *(np.concatenate(part) for part in zip(*kept))


def _rank_count(q: int, k: int, n: int, rho: int) -> int:
    """The number of k x n matrices of rank rho over F_q."""
    num = den = 1
    for i in range(rho):
        num *= (q**k - q**i) * (q**n - q**i)
        den *= q**rho - q**i
    return num // den


def _linear_dims(field: Field, r: int, rows: np.ndarray) -> list[int]:
    """The projective dimension of the linear space cut out by each row of
    linear forms, read off its point count over the field: a linear space of
    dimension delta has (q^(delta + 1) - 1) / (q - 1) points.  The count is
    one ``rows_times`` per form, independent of ``batch_rank``."""
    q, k = field.q, rows.shape[1] // (r + 1)
    counts = _common_zeros(*field.extension(1), r, [1] * k, np.split(rows, k, axis=1))
    dim_of = {(q ** (delta + 1) - 1) // (q - 1): delta for delta in range(-1, r + 1)}
    return [dim_of[count] for count in counts.tolist()]


def _replay_note(field: Field, r: int, degrees, row: np.ndarray, seed: int, chunk: int) -> str:
    """The sample's forms as exchange-format lines, with the seed and chunk
    that produced it."""
    forms = np.split(row, np.cumsum([n_monomials(r, d) for d in degrees])[:-1])
    lines = "\n".join(poly_to_line(MultiPoly(field, r, d, c)) for d, c in zip(degrees, forms))
    return f"seed {seed}, chunk {chunk}, generators:\n{lines}"


def _crosscheck(field: Field, r: int, degrees, s: int, rows: np.ndarray, codes: np.ndarray,
                chunks: np.ndarray, seed: int) -> int:
    """Check the decisions dim >= s of a block of samples, coefficient rows
    of forms of the given degrees with their outcome codes and chunks,
    against the reference the module docstring describes; the first
    disagreeing row raises InvariantError with its replay note.  Returns the
    number of rows skipped because their window is over budget."""
    exact = all(d == 1 for d in degrees) and _n_classes(field.q, r + 1) - 1 <= MAX_POINTS
    dims = (_linear_dims(field, r, rows) if exact else
            batch_projective_dim_hilbert(field, r, degrees, rows))
    fits = [i for i, dim in enumerate(dims) if dim is not None]
    probes = ([None] * len(fits) if exact else
              batch_projective_dim_points(field, r, degrees, rows[fits], PROBE_M_MAX))
    for i, probe in zip(fits, probes):
        code, ref = int(codes[i]), dims[i]
        hit = bool(code & 1)
        if (ref >= s) != hit:
            raise InvariantError(
                f"the sample's decision dim >= {s} is {hit}, by {CERTIFICATES[code >> 1]}, but "
                f"the reference gives dimension {ref}; "
                f"{_replay_note(field, r, degrees, rows[i], seed, chunks[i])}"
            )
        if probe is not None and probe.positive_dimensional and ref < 1:
            raise InvariantError(
                f"point count {probe.counts} exceeds cutoff {probe.cutoff} but the "
                f"Hilbert detector gives dimension {ref}; "
                f"{_replay_note(field, r, degrees, rows[i], seed, chunks[i])}"
            )
    return len(dims) - len(fits)


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
    mode, samples = _plan(mode, trials, field, dims, 20_000,
                          None if linear else (r, degrees, threshold))
    decide = partial(batch_dim_at_least, field, r, degrees, s=threshold, seed=seed)
    outcomes, *kept = _walk(mode, q, dims, samples, seed, decide)
    if linear and mode == "exhaustive":
        ranked = sum(_rank_count(q, k, r + 1, rho) for rho in range(r - threshold + 1))
        if outcomes[IN_RANK] != ranked:
            raise InvariantError(
                f"{outcomes[IN_RANK]} tuples are in by rank, but {ranked} {k}x{r + 1} "
                f"matrices over GF({q}) have rank at most {r - threshold}"
            )
    skipped = _crosscheck(field, r, degrees, threshold, *kept, seed)
    return ExperimentResult(mode=mode, q=q, seed=seed, predicted_codim=predicted,
                            outcomes=tuple(outcomes.tolist()), crosscheck_skipped=skipped)


def _singular_degrees(r: int, ell: int, skip: int) -> list[int]:
    """The degrees of the forms of ``_singular_block``."""
    return ([ell] + [ell - 1] * (r + 1))[skip:]


def _singular_block(field: Field, r: int, ell: int, rows: np.ndarray,
                    skip: int) -> np.ndarray:
    """The block [F | dF/dX_0 | ... | dF/dX_r] of the degree-ell forms F in
    rows, with its first ``skip`` forms left out; F and its partials cut out
    Sing(F)."""
    forms = [rows] + [partial_rows(field, r, ell, i, rows) for i in range(r + 1)]
    return np.concatenate(forms[skip:], axis=1)


def _singular_decide(field: Field, r: int, ell: int, skip: int, seed: int,
                     rows: np.ndarray) -> np.ndarray:
    """Whether each degree-ell form in rows has dim Sing(F) >= 1, by the
    section test on its ``_singular_block``."""
    block = _singular_block(field, r, ell, rows, skip)
    return batch_dim_at_least(field, r, _singular_degrees(r, ell, skip), block, 1, seed)


def _is_marked(marked: np.ndarray, q: int, rows: np.ndarray) -> np.ndarray:
    """Whether each row's key is in the sorted, nonempty keys marked, as
    the outcome codes IN_SET and OUT_SET."""
    keys = _row_keys(q, rows)
    found = marked[np.minimum(np.searchsorted(marked, keys), marked.size - 1)] == keys
    return np.where(found, IN_SET, OUT_SET).astype(np.uint8)


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
    if r < 2 or ell < 3:
        raise ParameterError(f"need r >= 2 and ell >= 3, got r={r}, ell={ell}")
    check_seed(seed)
    predicted = singular_line_codim(r, ell)
    q = field.q
    n = n_monomials(r, ell)
    # beyond the plane the section test on F and its partials decides
    # dim Sing(F) >= 1.  Euler's relation puts F in the ideal of its partials
    # unless the characteristic divides ell; F is then left out
    skip = 1 if ell % field.p else 0
    mode, samples = _plan(mode, trials, field, [n], 1_000_000 if r == 2 else 2_000,
                          None if r == 2 else (r, _singular_degrees(r, ell, skip), 1),
                          counted=r == 2)

    if r == 2:
        marked = repeated_factor_keys(field, r, ell)
        if mode == "exhaustive":  # the set is the exhaustive count
            outcomes = np.zeros(2 * len(CERTIFICATES), dtype=np.int64)
            outcomes[[OUT_SET, IN_SET]] = q**n - marked.size, marked.size
        else:
            outcomes, *_ = _walk(mode, q, [n], samples, seed, partial(_is_marked, marked, q))
        _verify_marked(field, r, ell, marked, seed)
    else:
        outcomes, *_ = _walk(mode, q, [n], samples, seed,
                             partial(_singular_decide, field, r, ell, skip, seed))

    return ExperimentResult(mode=mode, q=q, seed=seed, predicted_codim=predicted,
                            outcomes=tuple(outcomes.tolist()))


def _verify_marked(field: Field, r: int, ell: int, marked: np.ndarray, seed: int):
    """Spot-check the repeated-factor set on forms spaced through its
    nonzero keys and forms drawn from Philox stream 2^31: one ``_crosscheck``
    of their [F | partials] rows, with s = 1 and chunk 2^31.  A form whose
    window is over budget raises BudgetError: the check cannot pass on it."""
    half, n = VERIFY_SAMPLES // 2, n_monomials(r, ell)
    inside = marked[1:]  # key 0, the zero form, sorts first
    picks = _digits(inside[::max(1, inside.size // half)][:half], field.q, n)
    drawn = _chunk_rng(seed, 2**31).integers(0, field.q, size=(VERIFY_SAMPLES - len(picks), n),
                                             dtype=np.uint16)
    rows = np.concatenate([picks, drawn])
    block = _singular_block(field, r, ell, rows, 0)
    if _crosscheck(field, r, _singular_degrees(r, ell, 0), 1, block,
                   _is_marked(marked, field.q, rows), np.full(len(rows), 2**31), seed):
        raise BudgetError(f"the Hilbert window of a degree-{ell} plane form is over budget")


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
