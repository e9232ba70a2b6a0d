import dataclasses
import json
import math
import pickle
import re
import warnings
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from excodim import cli
from excodim.errors import BudgetError, InvariantError, ParameterError
from excodim.fforacle import experiments, hilbert
from excodim.fforacle.experiments import (
    CHUNK,
    DEFAULT_SEED,
    MAX_EXHAUSTIVE,
    MAX_TRIALS,
    ExperimentResult,
    _chunk_rng,
    _class_block,
    _plan,
    _singular_block,
    _singular_degrees,
    excess_experiment,
    poonen_combine,
    poonen_sample,
    repeated_factor_keys,
    singular_experiment,
)
from excodim.fforacle.fields import (
    _all_coeff_rows,
    _class_rows,
    _n_classes,
    _row_keys,
    gf,
    parse_field,
)
from excodim.fforacle.hilbert import (
    IN_SET,
    batch_dim_at_least,
    batch_projective_dim_hilbert,
    dim_at_least,
    projective_dim_hilbert,
    restriction_map,
)
from excodim.fforacle.linalg import batch_rank, matrix_rank
from excodim.fforacle.points import projective_dim_points
from excodim.fforacle.polynomials import MultiPoly, n_monomials, poly_from_line, poly_to_line


def test_excess_exhaustive_linear_pairs_f2():
    res = excess_experiment(2, (1, 1), 1, gf(2), mode="exhaustive")
    assert (res.trials, res.hits) == (64, 22)
    # independent count: pairs of linear forms spanning at most a line
    q = 2
    assert res.hits == q**3 + q * (q**3 - 1)
    assert res.predicted_codim == 2
    assert abs(res.est_codim - 2) < 0.8


def test_excess_exhaustive_linear_pairs_f3():
    res = excess_experiment(2, (1, 1), 1, gf(3), mode="exhaustive")
    q = 3
    assert (res.trials, res.hits) == (729, q**3 + q * (q**3 - 1))
    assert abs(res.est_codim - 2) < 0.8
    res2 = excess_experiment(2, (1, 1), 1, gf(2), mode="exhaustive")
    assert abs(res.est_codim - 2) < abs(res2.est_codim - 2)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_excess_exhaustive_linear_pairs_closed_form(q):
    # 2x3 matrices of rank <= 1: zero, or a nonzero column times a nonzero
    # row up to scale
    res = excess_experiment(2, (1, 1), 1, parse_field(str(q)), mode="exhaustive")
    assert (res.trials, res.hits) == (q**6, 1 + (q**2 - 1) * (q**3 - 1) // (q - 1))


def _plain_hits(r, degrees, a, field):
    """Hits among all q^total tuples, decided chunk by chunk on the plain
    base-q block with the experiment's own tests and seed."""
    dims = [n_monomials(r, d) for d in degrees]
    rows, s = _all_coeff_rows(field.q, sum(dims)), r - len(degrees) + a
    hits = 0
    for lo in range(0, len(rows), CHUNK):
        block = rows[lo:lo + CHUNK]
        if set(degrees) == {1}:
            hit = r - batch_rank(field, block.reshape(len(block), len(degrees), r + 1)) >= s
        else:
            hit = batch_dim_at_least(field, r, degrees, block, s, DEFAULT_SEED) & 1
        hits += int(np.count_nonzero(hit))
    return hits


@pytest.mark.parametrize("r, degrees, a, q", [
    *[(2, (1, 1), a, q) for q in (3, 4, 7, 9) for a in (1, 2)],
    (3, (1, 1, 1), 1, 3),
    (2, (2,), 1, 3),
    (1, (1, 2), 1, 4),
])
def test_exhaustive_orbit_walk_counts_every_tuple(r, degrees, a, q):
    # one tuple per scaling orbit, weighted by the orbit's size, gives the
    # count of the plain enumeration
    field = parse_field(str(q))
    res = excess_experiment(r, degrees, a, field, mode="exhaustive")
    total = sum(n_monomials(r, d) for d in degrees)
    assert (res.trials, res.hits) == (q**total, _plain_hits(r, degrees, a, field))


@pytest.mark.parametrize("q, dims", [(3, (3, 3)), (4, (3, 2)), (5, (1, 3)), (9, (2, 2, 1))])
def test_class_block_is_one_tuple_per_orbit(q, dims):
    field = parse_field(str(q))
    rows = math.prod(_n_classes(q, n) for n in dims)
    block, weight = _class_block(q, dims, 0, rows)
    assert weight.sum() == q ** sum(dims)
    assert len({row.tobytes() for row in block}) == rows
    ends = np.cumsum(dims)[:-1]
    for form in (f for row in block for f in np.split(row, ends)):
        nonzero = np.flatnonzero(form)
        assert len(nonzero) == 0 or form[nonzero[-1]] == field.one
    # each tuple, its forms scaled to top coefficient one, lands on a row,
    # and each row on as many tuples as its weight
    orbits = {}
    for row in _all_coeff_rows(q, sum(dims)):
        forms = []
        for form in np.split(row, ends):
            nonzero = np.flatnonzero(form)
            scale = field.INV[form[nonzero[-1]]] if len(nonzero) else field.one
            forms.append(field.MUL[scale, form])
        key = np.concatenate(forms).astype(np.uint16).tobytes()
        orbits[key] = orbits.get(key, 0) + 1
    assert orbits == {row.tobytes(): int(w) for row, w in zip(block, weight)}
    # chunks of the walk are slices of it
    assert np.array_equal(_class_block(q, dims, 7, 20)[0], block[7:27])


def test_class_block_over_gf2_is_the_plain_decode():
    for dims in ((3, 3), (4,), (1, 2, 3)):
        block, weight = _class_block(2, dims, 0, 2 ** sum(dims))
        assert np.array_equal(block, _all_coeff_rows(2, sum(dims)))
        assert (weight == 1).all()


def test_excess_sampled_linear_matches_row_by_row():
    field, r, degrees, trials, seed = gf(3), 3, (1, 1, 1), CHUNK + 904, 12
    res = excess_experiment(r, degrees, 1, field, mode="sampled", trials=trials, seed=seed)
    hits = 0
    for chunk, n in enumerate((CHUNK, trials - CHUNK)):
        rows = _chunk_rng(seed, chunk).integers(0, 3, size=(n, 12), dtype=np.uint16)
        for row in rows:
            # a linear tuple cuts out a linear space of dimension r - rank
            hits += r - matrix_rank(field, row.reshape(3, 4)) >= 1
    assert res.hits == hits


def test_excess_single_form_on_line():
    res = excess_experiment(1, (1,), 1, gf(2), mode="exhaustive")
    assert (res.trials, res.hits) == (4, 1)  # only the zero form
    assert res.est_codim == 2.0
    assert res.predicted_codim == 2
    assert res.status == "ok"


def test_excess_dependent_pair_count_matches_rank_oracle():
    # brute-force oracle: rank of the 2x3 coefficient matrix over F_3
    q = 3
    dependent = 0
    for a in product(range(q), repeat=3):
        for b in product(range(q), repeat=3):
            m = np.array([a, b]) % q
            minors = [
                m[0, i] * m[1, j] - m[0, j] * m[1, i]
                for i in range(3) for j in range(i + 1, 3)
            ]
            if all(x % q == 0 for x in minors):
                dependent += 1
    res = excess_experiment(2, (1, 1), 1, gf(3), mode="exhaustive")
    assert res.hits == dependent


def test_excess_sampled_mode_runs_and_is_seeded():
    res = excess_experiment(2, (1, 2), 1, gf(2), mode="sampled", trials=600, seed=7)
    again = excess_experiment(2, (1, 2), 1, gf(2), mode="sampled", trials=600, seed=7)

    assert res == again
    other = excess_experiment(2, (1, 2), 1, gf(2), mode="sampled", trials=600, seed=8)
    assert other != res


def test_excess_budget_guards():
    with pytest.raises(BudgetError):
        excess_experiment(3, (2, 2), 1, gf(2), mode="exhaustive")
    with pytest.raises(ParameterError):
        excess_experiment(2, (1, 1), 0, gf(2))
    for trials in (0, -5):
        with pytest.raises(ParameterError):
            excess_experiment(2, (1, 1), 1, gf(2), mode="sampled", trials=trials)
        with pytest.raises(ParameterError):
            singular_experiment(2, 3, gf(2), mode="sampled", trials=trials)


@pytest.mark.parametrize("run, planned", [
    (lambda: excess_experiment(2, (1, 1, 1), 1, gf(3)), ("exhaustive", 19683)),
    (lambda: excess_experiment(2, (2, 2), 1, gf(2)), ("exhaustive", 4096)),
    (lambda: excess_experiment(2, (1, 2), 1, gf(3)), ("exhaustive", 19683)),
    (lambda: excess_experiment(3, (2, 2), 1, gf(2), mode="exhaustive"), BudgetError),
    (lambda: singular_experiment(2, 3, gf(2)), ("exhaustive", 1024)),
    (lambda: singular_experiment(2, 5, gf(2)), ("exhaustive", 2**21)),
    (lambda: singular_experiment(3, 3, gf(2)), ("sampled", 2000)),
    (lambda: singular_experiment(3, 3, gf(2), mode="exhaustive"), BudgetError),
    # 2^344867425584 tuples: refused without building that number
    (lambda: excess_experiment(30, (15,), 1, gf(2)), BudgetError),
    (lambda: excess_experiment(30, (15,), 1, gf(2), mode="exhaustive"), BudgetError),
], ids=["excess-linear", "excess-slow-cap", "excess-over-slow-cap", "excess-exhaustive-over",
        "plane-small", "plane-over-slow-cap", "singular-space-auto", "singular-space-exhaustive",
        "excess-huge-auto", "excess-huge-exhaustive"])
def test_mode_policy(run, planned):
    # auto runs exhaustive when the scaling-class rows of the walk fit
    # MAX_EXHAUSTIVE (14 * 365 = 5110 rows for (1, 2) over GF(3)); the plane
    # counts its repeated-factor set and walks no rows, so auto always counts
    # it; an exhaustive run over the cap is a budget error, exit 3
    if planned is BudgetError:
        with pytest.raises(BudgetError):
            run()
    else:
        res = run()
        assert (res.mode, res.trials) == planned


def test_exhaustive_mode_refuses_trials():
    # every tuple is examined, so a trial count would be silently ignored
    with pytest.raises(ParameterError, match="trials cannot be set"):
        excess_experiment(2, (1, 1), 1, gf(3), mode="exhaustive", trials=5)
    for r in (2, 3):
        with pytest.raises(ParameterError, match="trials cannot be set"):
            singular_experiment(r, 3, gf(2), mode="exhaustive", trials=5)
    # a given trial count means a sampled run of that many draws, in auto mode too
    res = excess_experiment(2, (1, 1), 1, gf(3), mode="auto", trials=5)
    assert (res.mode, res.trials) == ("sampled", 5)


class Planned(Exception):
    pass


@pytest.mark.parametrize("field", [gf(2), gf(3), gf(2, 2), gf(5), gf(7), gf(2, 3), gf(3, 2)],
                         ids=lambda field: f"GF({field.q})")
def test_auto_runs_exhaustive_exactly_when_the_class_rows_fit(monkeypatch, field):
    # one cap on the scaling-class rows the walk decides, whatever the
    # degrees; _walk gets its length from _plan, the class rows of an
    # exhaustive run and the draws of a sampled one
    def planned(mode, q, dims, samples, seed, decide):
        raise Planned(mode, samples)

    monkeypatch.setattr(experiments, "_walk", planned)
    q = field.q
    for r in (1, 2, 3, 4):
        for degrees in ((1,), (2,), (3,), (1, 1), (1, 2), (2, 2), (1, 1, 1), (1, 1, 2)):
            if len(degrees) > r + 1:
                continue  # r - k + a < 0
            dims = [n_monomials(r, d) for d in degrees]
            rows = math.prod(_n_classes(q, n) for n in dims)
            fits = rows <= MAX_EXHAUSTIVE
            with pytest.raises(Planned) as caught:
                excess_experiment(r, degrees, 1, field)
            assert caught.value.args == (("exhaustive", rows) if fits else ("sampled", 20_000))
            if fits:
                assert _plan("exhaustive", None, field, dims, 20_000) == ("exhaustive", rows)
            else:
                with pytest.raises(BudgetError):
                    excess_experiment(r, degrees, 1, field, mode="exhaustive")


@pytest.mark.parametrize("run", [
    lambda: excess_experiment(2, (1, 1), 1, gf(2), mode="sampled", trials=MAX_TRIALS + 1),
    lambda: excess_experiment(2, (1, 1), 1, gf(2), trials=99999999999999999999),
    lambda: excess_experiment(2, (2, 2), 1, gf(3), trials=MAX_TRIALS + 1),
    lambda: singular_experiment(2, 3, gf(2), trials=MAX_TRIALS + 1),
    lambda: singular_experiment(3, 3, gf(2), mode="sampled", trials=MAX_TRIALS + 1),
], ids=["excess-sampled", "excess-auto", "excess-section", "plane", "singular-space"])
def test_trials_over_budget_are_refused_before_the_first_draw(monkeypatch, run):
    def no_draw(*args):
        raise AssertionError("a chunk was drawn")

    monkeypatch.setattr(experiments, "_chunk_rng", no_draw)
    with pytest.raises(BudgetError, match=f"cap {MAX_TRIALS}"):
        run()
    # the cap itself is a run
    assert _plan("sampled", MAX_TRIALS, gf(2), [3, 3], 20_000) == ("sampled", MAX_TRIALS)


def test_bad_mode_seed_and_m_max_raise_before_any_work():
    # the marked set for ell = 7 is over budget, and ell = 6 takes a while to
    # build: a bad mode must be rejected before either
    for r, ell in ((2, 7), (2, 6), (3, 3)):
        with pytest.raises(ParameterError, match="unknown mode 'bogus'"):
            singular_experiment(r, ell, gf(2), mode="bogus")
    with pytest.raises(ParameterError, match="unknown mode 'bogus'"):
        excess_experiment(2, (2, 2), 1, gf(2), mode="bogus")
    x0 = MultiPoly.variable(gf(2), 2, 0)
    for seed in (-1, 2**63, 2**64):
        with pytest.raises(ParameterError, match="seed"):
            excess_experiment(2, (1, 1), 1, gf(2), seed=seed)
        with pytest.raises(ParameterError, match="seed"):
            singular_experiment(2, 3, gf(2), seed=seed)
        with pytest.raises(ParameterError, match="seed"):
            dim_at_least([x0, x0], 1, seed=seed)
        with pytest.raises(ParameterError, match="seed"):
            poonen_sample(2, 5, gf(2), seed=seed)
    # m_max is no longer a parameter: the crosscheck's probe uses PROBE_M_MAX
    for m_max in (0, 4, 9):
        with pytest.raises(TypeError, match="m_max"):
            excess_experiment(4, (2, 2), 1, gf(2), mode="sampled", trials=300, m_max=m_max)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = excess_experiment(2, (1, 2), 1, gf(2), mode="sampled", trials=50, seed=2**63 - 1)
    assert res.trials == 50


def test_linear_rank_dimension_matches_detector():
    field = gf(3)
    rng = np.random.default_rng(44)
    for _ in range(40):
        k = int(rng.integers(1, 4))
        gens = [MultiPoly.random(field, 2, 1, rng) for _ in range(k)]
        fast = 2 - matrix_rank(field, np.stack([g.coeffs for g in gens]))
        slow = projective_dim_hilbert(gens, field=field, r=2) if any(
            not g.is_zero for g in gens
        ) else 2
        assert fast == slow


def observe_crosscheck(monkeypatch, run_it=True):
    """Record the block and skipped count of every ``_crosscheck`` call, and
    run the real check unless run_it is False (it then skips nothing)."""
    real, calls = experiments._crosscheck, []

    def observed(field, r, degrees, s, rows, codes, chunks, seed):
        call = dict(field=field, r=r, degrees=degrees, s=s, rows=rows, codes=codes,
                    chunks=chunks, seed=seed)
        calls.append(call)
        call["skipped"] = real(field, r, degrees, s, rows, codes, chunks, seed) if run_it else 0
        return call["skipped"]

    monkeypatch.setattr(experiments, "_crosscheck", observed)
    return calls


def sing_dim(F):
    """The Hilbert-window dimension of Sing(F), cut out by F and its
    partials."""
    return projective_dim_hilbert([F] + [F.partial(i) for i in range(F.r + 1)])


def test_singular_locus_dimension_cases():
    f2 = gf(2)
    cone = MultiPoly.from_terms(f2, 2, 3, {(2, 1, 0): 1})  # X0^2 X1
    assert sing_dim(cone) == 1

    f3 = gf(3)
    smooth_conic = MultiPoly.from_terms(
        f3, 2, 2, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}
    )
    assert sing_dim(smooth_conic) == -1

    # doubled line times a line is singular along the doubled line
    x0 = MultiPoly.variable(f2, 2, 0)
    x1 = MultiPoly.variable(f2, 2, 1)
    assert sing_dim(x0 * x0 * x1) >= 1

    cubic_cone = MultiPoly.from_terms(f2, 2, 3, {(3, 0, 0): 1})  # X0^3
    assert sing_dim(cubic_cone) >= 1


def test_repeated_factor_set_is_exactly_positive_singular_locus():
    # full-space agreement between the marked set and the Hilbert reference,
    # one batched call on the [F | partials] block of all 1024 cubics (the
    # zero form cuts out the whole plane)
    field = gf(2)
    marked = repeated_factor_keys(field, 2, 3)
    assert np.array_equal(marked, np.unique(marked)) and not marked.flags.writeable
    rows = _all_coeff_rows(2, n_monomials(2, 3))
    dims = batch_projective_dim_hilbert(field, 2, _singular_degrees(2, 3, 0),
                                        _singular_block(field, 2, 3, rows, 0))
    positive = np.array(dims) >= 1
    assert positive.tolist() == np.isin(_row_keys(2, rows), marked).tolist()
    assert np.count_nonzero(positive) == marked.size
    # the set sizes in the plane, over the prime and the extension fields
    sizes = {(2, 3): 50, (2, 4): 456, (2, 5): 7260, (2, 6): 230736,
             (4, 3): 1324, (4, 4): 88768, (8, 3): 37304}
    for (q, ell), size in sizes.items():
        assert repeated_factor_keys(parse_field(str(q)), 2, ell).size == size


def test_singular_exhaustive_small():
    res = singular_experiment(2, 3, gf(2), mode="exhaustive")
    assert res.trials == 2**10
    assert res.predicted_codim == 5
    assert abs(res.est_codim - 5) <= 1.5


def test_line_component_dominates_in_the_plane():
    # oracle form of the plane-curve dominance claim: forms with a repeated
    # linear factor account for almost all of the positive-singular locus
    field = gf(2)
    for ell in (4, 5):
        marked = set(repeated_factor_keys(field, 2, ell).tolist())
        line_keys = set()
        all_g = _all_coeff_rows(2, n_monomials(2, ell - 2))
        for coeffs in _class_rows(2, 3, np.arange(1, _n_classes(2, 3))):
            H = MultiPoly(field, 2, 1, coeffs)
            H2 = H * H
            for row in all_g:
                G = MultiPoly(field, 2, ell - 2, row)
                line_keys.add(int(_row_keys(2, (H2 * G).coeffs[None])[0]))
        assert line_keys <= marked
        assert len(line_keys) / len(marked) > 0.9


@pytest.mark.parametrize("q, hits", [(3, 339), (5, 3845)])
def test_singular_runs_in_odd_characteristic(monkeypatch, q, hits):
    # the repeated-factor set and the Jacobian criterion hold over any finite
    # field; the spot check against the Hilbert reference passes on every form
    calls = observe_crosscheck(monkeypatch)
    res = singular_experiment(2, 3, parse_field(str(q)))
    assert (res.mode, res.trials, res.hits, res.status) == ("exhaustive", q**10, hits, "ok")
    assert abs(res.est_codim - 5) < 0.35
    assert [(len(c["rows"]), c["skipped"]) for c in calls] == [(experiments.VERIFY_SAMPLES, 0)]


def test_singular_sampled_agrees_with_exhaustive_rate():
    exact = singular_experiment(2, 3, gf(2), mode="exhaustive")
    sampled = singular_experiment(2, 3, gf(2), mode="sampled", trials=40_000)
    rate = exact.hits / exact.trials
    got = sampled.hits / sampled.trials
    assert abs(got - rate) < 0.02


def test_zero_hits_reported_inconclusive():
    # hit rate ~ 8.5e-4 at degree 6, so 128 draws with this seed find nothing
    res = singular_experiment(2, 6, gf(2), mode="sampled", trials=128, seed=5)
    assert res.hits == 0
    assert res.est_codim is None
    assert res.status == "inconclusive"


def test_singular_exhaustive_cap():
    # degree 6 has 2^28 forms, but the exhaustive plane run counts the
    # repeated-factor set and walks none of them, so no walk cap applies;
    # sampling still works
    res = singular_experiment(2, 6, gf(2), mode="exhaustive")
    assert (res.trials, res.hits) == (2**28, 230_736)
    res = singular_experiment(2, 6, gf(2), mode="sampled", trials=50_000, seed=1)
    assert res.trials == 50_000
    with pytest.raises(BudgetError):
        singular_experiment(2, 7, gf(2), mode="sampled", trials=100)  # marked set too big


def test_poonen_odd_identities():
    field = gf(2)
    rng = np.random.default_rng(5)
    for _ in range(5):
        base = MultiPoly.random(field, 2, 5, rng)
        fudge = tuple(MultiPoly.random(field, 2, 2, rng) for _ in range(3))
        F = poonen_combine(base, fudge)
        assert F.d == 5
        for i in range(3):
            assert F.partial(i) == base.partial(i) + fudge[i].square()


def test_poonen_even_identities():
    field = gf(2)
    r, ell = 2, 4
    rng = np.random.default_rng(6)
    x = [MultiPoly.variable(field, r, i) for i in range(r + 1)]
    for _ in range(5):
        base = MultiPoly.random(field, r, ell, rng)
        fudge = tuple(MultiPoly.random(field, r, 1, rng) for _ in range(r + 1))
        F = poonen_combine(base, fudge)
        assert F.d == 4  # degree bookkeeping: 2 + 2*1
        for i in range(2, r + 1):
            assert F.partial(i) == base.partial(i) + x[0] * fudge[i].square()
        g01 = fudge[0].square() + fudge[1].square()
        assert F.partial(1) == base.partial(1) + x[0] * g01
        tail = MultiPoly.zero(field, r, ell - 1)
        tail = tail + x[1] * g01
        for i in range(2, r + 1):
            tail = tail + x[i] * fudge[i].square()
        assert F.partial(0) == base.partial(0) + tail


def test_poonen_shift_is_bijective():
    field = gf(2)
    rng = np.random.default_rng(8)
    fudge = tuple(MultiPoly.random(field, 1, 1, rng) for _ in range(2))
    seen = set()
    for row in _all_coeff_rows(2, 4):
        base = MultiPoly(field, 1, 3, row)
        seen.add(poonen_combine(base, fudge).coeffs.tobytes())
    assert len(seen) == 2**4


def test_poonen_uniformity_exhaustive():
    # every output form is reached equally often over all (G, G_0, G_1)
    field = gf(2)
    counts: dict[bytes, int] = {}
    linear = _all_coeff_rows(2, 2)
    for row in _all_coeff_rows(2, 4):
        base = MultiPoly(field, 1, 3, row)
        for f0 in linear:
            for f1 in linear:
                fudge = (MultiPoly(field, 1, 1, f0), MultiPoly(field, 1, 1, f1))
                key = poonen_combine(base, fudge).coeffs.tobytes()
                counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 2**4
    assert set(counts.values()) == {2**4}


def test_poonen_sample_wrapper():
    sample = poonen_sample(2, 5, gf(2), seed=DEFAULT_SEED)
    assert sample.F.d == 5 and len(sample.fudge) == 3
    with pytest.raises(ParameterError):
        poonen_combine(MultiPoly.zero(gf(3), 2, 5), [MultiPoly.zero(gf(3), 2, 2)] * 3)


def test_restriction_codim_values():
    # a b-plane imposes C(d + b, b) conditions on degree-d forms: the rank of
    # the restriction map
    def rank(r, d, b):
        return matrix_rank(gf(2), restriction_map(gf(2), r, b, DEFAULT_SEED, 0, d))

    assert rank(4, 3, 1) == 4
    assert rank(4, 2, 2) == 6
    assert rank(3, 5, 3) == 56
    assert rank(3, 2, 0) == 1


def test_detector_agreement_suite():
    # conclusive point-count positives always agree with the rank detector
    rng = np.random.default_rng(90125)
    conclusive = 0
    total = 0
    cases = [(2, 2, 1), (2, 3, 1), (2, 2, 2), (3, 2, 1)]  # (r, p, e), q <= 4
    while total < 500:
        r, p, e = cases[total % len(cases)]
        field = gf(p, e)
        k = int(rng.integers(1, r + 2))
        degs = [int(rng.integers(1, 4)) for _ in range(k)]
        gens = [MultiPoly.random(field, r, d, rng) for d in degs]
        live = [g for g in gens if not g.is_zero]
        total += 1
        if not live:
            continue
        m_max = 3 if r == 2 or field.q <= 3 else 2
        probe = projective_dim_points(live, m_max=m_max)
        if probe.conclusive:
            conclusive += 1
            assert projective_dim_hilbert(live) >= 1
    assert conclusive >= 50


def test_experiment_serialization(capsys):
    code = cli.run(["oracle", "excess", "--r", "2", "--degrees", "1,1", "--field", "2",
                    "--mode", "exhaustive", "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["command"] == "oracle excess"
    values = {r["name"]: r["value"] for r in report["results"]}
    assert values["hits"] == 22 and values["trials"] == 64
    res = excess_experiment(2, (1, 1), 1, gf(2), mode="exhaustive")
    assert math.isclose(values["est_codim"], res.est_codim)


def replayed_sample(message: str):
    """The seed, chunk and generators an InvariantError message names."""
    seed, chunk = (int(v) for v in re.search(r"seed (\d+), chunk (\d+)", message).groups())
    lines = [line for line in message.splitlines() if re.match(r"\d+ \d+ \d+ \d+ :", line)]
    return seed, chunk, [poly_from_line(line) for line in lines]


@pytest.mark.parametrize("r, degrees", [(2, (1, 1, 2)), (2, (2, 2)), (3, (1, 2))],
                         ids=["s0", "s1", "s2"])
def test_crosscheck_failure_names_nonlinear_sample(monkeypatch, r, degrees):
    # a section test that inverts every decision must trip the first check,
    # whatever the threshold s = r - k + 1
    real = experiments.batch_dim_at_least
    monkeypatch.setattr(experiments, "batch_dim_at_least", lambda *a, **kw: real(*a, **kw) ^ 1)
    field, seed, s = gf(2), 31, r - len(degrees) + 1
    with pytest.raises(InvariantError) as err:
        excess_experiment(r, degrees, 1, field, mode="sampled", trials=50, seed=seed)
    got_seed, chunk, gens = replayed_sample(str(err.value))
    assert (got_seed, chunk) == (seed, 0)
    ends = np.cumsum([n_monomials(r, d) for d in degrees])
    row = _chunk_rng(seed, 0).integers(0, 2, size=(50, ends[-1]), dtype=np.uint16)[0]
    assert [g.coeffs.tolist() for g in gens] == [
        row[lo:hi].tolist() for lo, hi in zip([0, *ends[:-1]], ends)]
    assert dim_at_least(gens, s, field, r, seed) == (projective_dim_hilbert(gens) >= s)


def wrong_reference_from(first_wrong: int, r: int, name: str = "batch_projective_dim_hilbert"):
    """A batched reference, the Hilbert window or the linear point count,
    that turns wrong from the checked sample with index first_wrong on:
    dimensions >= 1 become -1, the rest r."""
    real = getattr(experiments, name)

    def wrong(*args):
        dims = real(*args)
        return dims[:first_wrong] + [-1 if dim >= 1 else r for dim in dims[first_wrong:]]

    return wrong


def test_crosscheck_failure_names_chunk_and_replays(monkeypatch):
    # linear tuples over two chunks; their reference, the exact point count,
    # turns wrong from the first check of chunk 1 on
    field, r, trials, seed = gf(3), 3, CHUNK + 904, 12
    every = trials // experiments.CROSSCHECK_SAMPLES
    checks_in_chunk0 = -(-CHUNK // every)
    monkeypatch.setattr(experiments, "_linear_dims",
                        wrong_reference_from(checks_in_chunk0, r, "_linear_dims"))
    with pytest.raises(InvariantError) as err:
        excess_experiment(r, (1, 1, 1), 1, field, mode="sampled", trials=trials, seed=seed)
    got_seed, chunk, gens = replayed_sample(str(err.value))
    assert (got_seed, chunk) == (seed, 1)
    rows = _chunk_rng(seed, 1).integers(0, 3, size=(trials - CHUNK, 12), dtype=np.uint16)
    row = rows[checks_in_chunk0 * every - CHUNK]
    assert [g.coeffs.tolist() for g in gens] == [row[4 * i:4 * i + 4].tolist() for i in range(3)]
    assert (projective_dim_hilbert(gens) >= 1) == (r - matrix_rank(field, row.reshape(3, 4)) >= 1)


def test_crosscheck_failure_names_a_later_chunk(monkeypatch):
    # 13 chunks of 16 nonlinear tuples, checked every 4th sample; the
    # reference turns wrong at the 10th check, in chunk 2
    monkeypatch.setattr(experiments, "CHUNK", 16)
    monkeypatch.setattr(experiments, "batch_projective_dim_hilbert",
                        wrong_reference_from(9, 2))
    with pytest.raises(InvariantError) as err:
        excess_experiment(2, (2, 2), 1, gf(2), mode="sampled", trials=200, seed=8)
    assert replayed_sample(str(err.value))[:2] == (8, 2)


def test_crosscheck_point_probe_failure_names_the_sample(monkeypatch):
    # 13 chunks of 16 plane (2, 2) tuples, checked every 4th sample; the
    # batched probe reports "positive" on the first checked chunk-1 sample
    # of Hilbert dimension 0, with its real counts
    monkeypatch.setattr(experiments, "CHUNK", 16)
    field, seed, every = gf(2), 8, 200 // experiments.CROSSCHECK_SAMPLES
    chunk1 = _chunk_rng(seed, 1).integers(0, 2, size=(16, 12), dtype=np.uint16)
    samples = [(j, [MultiPoly(field, 2, 2, row[:6]), MultiPoly(field, 2, 2, row[6:])])
               for j, row in enumerate(chunk1) if j % every == 0]
    j, gens = next((j, gens) for j, gens in samples if projective_dim_hilbert(gens) == 0)
    real = experiments.batch_projective_dim_points

    def positive_at_target(*args):
        probes = real(*args)
        k = (16 + j) // every  # at r = 2 no window is over budget
        assert args[3][k].tolist() == chunk1[j].tolist()
        probes[k] = dataclasses.replace(probes[k], positive_dimensional=True, conclusive=True)
        return probes

    monkeypatch.setattr(experiments, "batch_projective_dim_points", positive_at_target)
    with pytest.raises(InvariantError) as err:
        excess_experiment(2, (2, 2), 1, field, mode="sampled", trials=200, seed=seed)
    message = str(err.value)
    probe = projective_dim_points(gens, m_max=2)
    assert message.startswith(f"point count {probe.counts} exceeds cutoff {probe.cutoff} "
                              "but the Hilbert detector gives dimension 0; seed 8, chunk 1, ")
    assert message.endswith("\n".join(poly_to_line(g) for g in gens))
    got_seed, chunk, replayed = replayed_sample(message)
    assert (got_seed, chunk, replayed) == (seed, 1, gens)


def test_plane_spot_check_over_budget_raises(monkeypatch):
    # a spot-checked form whose Hilbert window is over budget cannot pass
    monkeypatch.setattr(hilbert, "MAX_MATRIX_ENTRIES", 10)
    with pytest.raises(BudgetError):
        singular_experiment(2, 3, gf(2), mode="exhaustive")


@pytest.mark.parametrize("q, ell", [(2, 3), (4, 3), (2, 5)])
def test_plane_spot_check_picks_nonzero_members(monkeypatch, q, ell):
    # every form spaced through the set is a nonzero member: the zero form,
    # key 0, is never one of them
    calls = observe_crosscheck(monkeypatch, run_it=False)
    field = parse_field(str(q))
    experiments._verify_marked(field, 2, ell, repeated_factor_keys(field, 2, ell), DEFAULT_SEED)
    half = experiments.VERIFY_SAMPLES // 2
    members = set(repeated_factor_keys(field, 2, ell).tolist())
    [call] = calls
    # the block is [F | partials]; F is its first n_monomials(2, ell) columns
    picks = list(call["rows"][:half, :n_monomials(2, ell)])
    assert len(call["rows"]) == experiments.VERIFY_SAMPLES
    assert all(code == IN_SET for code in call["codes"][:half])
    assert all(row.any() for row in picks)
    assert all(int(key) in members for key in _row_keys(q, np.array(picks)))
    assert len({row.tobytes() for row in picks}) == half


def test_plane_spot_check_failure_names_the_form(monkeypatch):
    # the reference turns wrong on the forms drawn from stream 2^31: the
    # first of them is named, and replays to a form that it misjudges
    half = experiments.VERIFY_SAMPLES // 2
    monkeypatch.setattr(experiments, "batch_projective_dim_hilbert",
                        wrong_reference_from(half, 2))
    with pytest.raises(InvariantError) as err:
        singular_experiment(2, 3, gf(2), mode="exhaustive")
    message = str(err.value)
    seed, chunk, [F, *partials] = replayed_sample(message)
    assert (seed, chunk) == (DEFAULT_SEED, 2**31)
    drawn = _chunk_rng(DEFAULT_SEED, 2**31).integers(0, 2, size=(half, 10), dtype=np.uint16)
    assert F.coeffs.tolist() == drawn[0].tolist()
    # the note lists the forms the reference checked: F, then its partials
    assert partials == [F.partial(i) for i in range(3)]
    wrong = int(re.search(r"gives dimension (-?\d+)", message).group(1))
    assert (sing_dim(F) >= 1) != (wrong >= 1)


@pytest.mark.parametrize("degrees, mode, hits, checked, skipped", [
    # linear samples are checked by their exact point count, never skipped
    ((1, 1, 1), "exhaustive", 6728, 49, 0),
    ((1, 2), "sampled", 12, 50, 0),
    # two quadrics with independent degree-3 rows are coprime: their window
    # stops at its first piece, a surface, where it used to go over budget
    ((2, 2), "sampled", 0, 50, 0),
    ((1, 1, 2), "sampled", 27, 50, 0),
])
def test_excess_r4_counts_crosschecks_over_budget(monkeypatch, degrees, mode, hits, checked,
                                                  skipped):
    # at r = 4 the windows of a linear form and quadrics stop within the
    # budget: the run finishes, and every sample that fits is checked
    calls = observe_crosscheck(monkeypatch)
    trials = 300 if mode == "sampled" else None
    res = excess_experiment(4, degrees, 1, gf(2), mode=mode, trials=trials, seed=5)
    compared = [len(c["rows"]) - c["skipped"] for c in calls]
    assert (res.hits, res.crosscheck_skipped, compared) == (hits, skipped, [checked - skipped])
    assert [len(c["rows"]) for c in calls] == [checked]


def test_r3_gf3_run_is_crosschecked_in_full():
    # three quadrics on P^3 over GF(3): every kept window persists within
    # the budget, at its eight points or on its curve
    res = excess_experiment(3, (2, 2, 2), 1, gf(3), trials=20000, seed=5)
    assert (res.hits, res.crosscheck_skipped) == (139, 0)


def kept_block(monkeypatch, run):
    """The block one run hands ``_crosscheck``, as its keyword arguments."""
    calls = observe_crosscheck(monkeypatch)
    run()
    [call] = calls
    call.pop("skipped")
    return call


def checked_part(block, part, **changes):
    """``_crosscheck`` on the samples of a kept block that part selects."""
    args = {**block, **changes}
    return experiments._crosscheck(**{
        key: value[part] if key in ("rows", "codes", "chunks") else value
        for key, value in args.items()})


def test_crosscheck_in_two_halves_skips_as_one_call(monkeypatch):
    # a quadric and two cubics on P^3 mostly meet in 18 points, whose flat
    # window would persist only on its degree-19 piece, over the budget: 48
    # of the 49 kept samples are skipped, and row 15, a curve, is checked.
    # The skipped count of a kept block is the sum over its parts
    block = kept_block(monkeypatch, lambda: excess_experiment(
        3, (2, 3, 3), 1, gf(2), mode="sampled", trials=2000, seed=5))
    half = len(block["rows"]) // 2
    assert (len(block["rows"]), half) == (49, 24)
    dims = batch_projective_dim_hilbert(gf(2), 3, [2, 3, 3], block["rows"])
    assert [i for i, dim in enumerate(dims) if dim is not None] == [15]
    whole = checked_part(block, slice(None))
    halves = [checked_part(block, slice(None, half)), checked_part(block, slice(half, None))]
    assert (whole, halves) == (48, [23, 25])


def test_crosscheck_failure_in_the_second_half_names_the_same_sample(monkeypatch):
    # a decision inverted in the second half of a kept block fails the block
    # and that half with the same message
    monkeypatch.setattr(experiments, "CHUNK", 16)
    block = kept_block(monkeypatch, lambda: excess_experiment(
        2, (2, 2), 1, gf(2), mode="sampled", trials=200, seed=8))
    half, codes = len(block["rows"]) // 2, block["codes"].copy()
    codes[half + 3] ^= 1
    messages = []
    for part in (slice(None), slice(half, None)):
        with pytest.raises(InvariantError) as err:
            checked_part(block, part, codes=codes)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert replayed_sample(messages[0])[:2] == (8, block["chunks"][half + 3])
    assert checked_part(block, slice(None, half), codes=codes) == 0


def test_a_single_kept_row_replays_the_run_failure(monkeypatch):
    # chunks of 16, every 4th sample kept: row 8 of chunk 2 is kept sample
    # 10, and its decision alone is inverted.  The run's failure names it,
    # and that one kept row, checked alone, raises the same message
    monkeypatch.setattr(experiments, "CHUNK", 16)
    real, chunks = experiments.batch_dim_at_least, []

    def flip_chunk2_row8(*args, **kw):
        codes = real(*args, **kw).copy()
        if len(chunks) == 2:
            codes[8] ^= 1
        chunks.append(len(codes))
        return codes

    monkeypatch.setattr(experiments, "batch_dim_at_least", flip_chunk2_row8)
    calls = observe_crosscheck(monkeypatch)
    with pytest.raises(InvariantError) as err:
        excess_experiment(2, (2, 2), 1, gf(2), mode="sampled", trials=200, seed=8)
    message = str(err.value)
    [block] = calls  # the check raised, so no skipped count was recorded
    assert block["chunks"][10] == 2
    assert block["rows"][10].tolist() == _chunk_rng(8, 2).integers(
        0, 2, size=(16, 12), dtype=np.uint16)[8].tolist()
    assert checked_part(block, slice(None, 10)) == 0
    with pytest.raises(InvariantError) as alone:
        checked_part(block, slice(10, 11))
    assert str(alone.value) == message
    assert replayed_sample(message)[:2] == (8, 2)


def test_plane_spot_check_probe_names_f_and_its_partials(monkeypatch):
    # a conclusive "positive" probe on every plane form of Hilbert dimension
    # 0: the first drawn one fails, named as F and its partials with its
    # seed and stream 2^31
    real, seen = experiments.batch_projective_dim_points, []

    def positive_at_dimension_0(field, r, degrees, block, m_max):
        seen.append((list(degrees), block.shape, m_max))
        dims = batch_projective_dim_hilbert(field, r, degrees, block)
        return [dataclasses.replace(probe, positive_dimensional=True, conclusive=True)
                if dim == 0 else probe
                for probe, dim in zip(real(field, r, degrees, block, m_max), dims)]

    monkeypatch.setattr(experiments, "batch_projective_dim_points", positive_at_dimension_0)
    with pytest.raises(InvariantError) as err:
        singular_experiment(2, 3, gf(2), mode="exhaustive")
    message = str(err.value)
    assert seen == [([3, 2, 2, 2], (experiments.VERIFY_SAMPLES, 28), experiments.PROBE_M_MAX)]
    assert re.match(r"point count \(.*\) exceeds cutoff \d+ but the Hilbert detector gives "
                    r"dimension 0; seed 271828, chunk 2147483648, generators:\n", message)
    seed, chunk, [F, *partials] = replayed_sample(message)
    assert (seed, chunk) == (DEFAULT_SEED, 2**31)
    assert partials == [F.partial(i) for i in range(3)]
    half = experiments.VERIFY_SAMPLES // 2
    drawn = _chunk_rng(DEFAULT_SEED, 2**31).integers(0, 2, size=(half, 10), dtype=np.uint16)
    first = next(row for row in drawn if sing_dim(MultiPoly(gf(2), 2, 3, row)) == 0)
    assert F.coeffs.tolist() == first.tolist()


@pytest.mark.parametrize("run, hits", [
    (lambda: excess_experiment(3, (2, 2, 2), 1, gf(2), "sampled", 4096, seed=5), 313),
    # a zero linear form in 1/16 of the samples: the block holds two live
    # patterns
    (lambda: excess_experiment(3, (1, 2, 2), 1, gf(2), "sampled", 4096, seed=5), 714),
    (lambda: singular_experiment(4, 3, gf(2), trials=512, seed=5), 11),
    (lambda: singular_experiment(3, 3, gf(2, 2), trials=1024, seed=5), 1),
], ids=["excess-222", "excess-122", "singular-r4", "singular-gf4"])
def test_block_runs_keep_their_pinned_counts(run, hits):
    res = run()
    assert (res.hits, res.crosscheck_skipped) == (hits, 0)


def test_singular_space_sampled_matches_per_sample_decisions(monkeypatch):
    # chunks of 16: the section test batched over each chunk decides every
    # form as it does on that form alone
    monkeypatch.setattr(experiments, "CHUNK", 16)
    field, r, ell, trials, seed = gf(2), 3, 3, 100, 3
    res = singular_experiment(r, ell, field, mode="sampled", trials=trials, seed=seed)
    hits = 0
    for chunk, lo in enumerate(range(0, trials, 16)):
        size = (min(16, trials - lo), n_monomials(r, ell))
        rows = _chunk_rng(seed, chunk).integers(0, 2, size=size, dtype=np.uint16)
        for row in rows:
            F = MultiPoly(field, r, ell, row)
            hits += dim_at_least([F] + [F.partial(i) for i in range(r + 1)], 1, field, r, seed)
    assert res.hits == hits > 0


@pytest.mark.parametrize("ell, n", [(3, 256), (5, 64)])
def test_euler_drop_keeps_the_singular_decisions(ell, n):
    # odd ell over GF(2): F lies in the ideal of its partials, so the section
    # test decides every form the same with F and without it.  Half the
    # forms are random, half are singular along the line X_0 = X_1 = 0.
    field, r = gf(2), 3
    rng = np.random.default_rng(ell)
    x0, x1 = MultiPoly.variable(field, r, 0), MultiPoly.variable(field, r, 1)
    forms = [MultiPoly.random(field, r, ell, rng) for _ in range(n // 2)]
    forms += [x0 * x0 * a + x0 * x1 * b + x1 * x1 * c
              for a, b, c in ([MultiPoly.random(field, r, ell - 2, rng) for _ in range(3)]
                              for _ in range(n // 2))]
    block = _singular_block(field, r, ell, np.array([F.coeffs for F in forms]), 0)
    degrees = _singular_degrees(r, ell, 0)
    with_f = batch_dim_at_least(field, r, degrees, block, 1, 5) & 1
    without_f = batch_dim_at_least(field, r, degrees[1:], block[:, n_monomials(r, ell):],
                                   1, 5) & 1
    assert with_f.tolist() == without_f.tolist()
    assert with_f[n // 2:].all()


@pytest.mark.parametrize("ell", [3, 4, 5])
def test_singular_sections_keep_f_for_even_ell(monkeypatch, ell):
    sizes = set()
    section_test = experiments.batch_dim_at_least

    def spy(field, r, degrees, block, *args):
        sizes.add(len(degrees))
        return section_test(field, r, degrees, block, *args)

    monkeypatch.setattr(experiments, "batch_dim_at_least", spy)
    singular_experiment(3, ell, gf(2), mode="sampled", trials=8, seed=5)
    assert sizes == {4 if ell % 2 else 5}
    if ell % 2 == 0:
        # why F stays: the partials of X_0^3 X_1 + X_2^3 X_3 + X_1^4 vanish
        # on the line X_0 = X_2 = 0, but F has one zero there
        x = [MultiPoly.variable(gf(2), 3, i) for i in range(4)]
        F = x[0] * x[0] * x[0] * x[1] + x[2] * x[2] * x[2] * x[3] + x[1].square().square()
        with_f, without_f = (
            batch_dim_at_least(gf(2), 3, _singular_degrees(3, ell, skip),
                               _singular_block(gf(2), 3, ell, F.coeffs[None], skip), 1)[0] & 1
            for skip in (0, 1))
        assert not with_f and without_f


@pytest.mark.parametrize("r, ell", [(3, 4), (4, 3)])
def test_singular_beyond_the_plane_fits_the_budget(r, ell):
    res = singular_experiment(r, ell, gf(2), mode="sampled", trials=20, seed=4)
    assert res.trials == 20 and 0 <= res.hits <= 20


def test_cli_singular_r3_ell4_exits_0(capsys):
    code = cli.run(["oracle", "singular", "--r", "3", "--ell", "4", "--trials", "20",
                    "--format", "json"])
    assert code == 0
    values = {r["name"]: r["value"] for r in json.loads(capsys.readouterr().out)["results"]}
    assert values["trials"] == 20


@pytest.mark.parametrize("run", [
    lambda: singular_experiment(8, 8, gf(2)),
    lambda: excess_experiment(9, (6, 6, 6, 6), 1, gf(2), mode="sampled", trials=2000),
    lambda: excess_experiment(2, (2, 2), 1, gf(7, 2), mode="sampled", trials=10),
    lambda: excess_experiment(2, (2, 2), 1, gf(5, 3), mode="sampled", trials=10),
    lambda: excess_experiment(2, (2, 2), 1, gf(7, 3), mode="sampled", trials=10),
], ids=["singular", "excess", "gf49", "gf125", "gf343"])
def test_section_budget_is_refused_before_the_first_draw(monkeypatch, run):
    # the degree-7 maps of an octic's partials on P^8, and the degree-21
    # piece of four sextics on a 3-plane of P^9, are over the budget for
    # every sample, and so are the section fields GF(7^4), GF(5^6) and
    # GF(7^6) over MAX_TABLE_Q, so no chunk is drawn
    def no_draw(*args):
        raise AssertionError("a chunk was drawn")

    monkeypatch.setattr(experiments, "_chunk_rng", no_draw)
    with pytest.raises(BudgetError):
        run()



BENCH_ARGVS = {path.stem: json.loads(path.read_text())["argv"]
               for path in (Path(__file__).parent / "data").glob("cli_bench_*.json")}


class Captured(Exception):
    pass


@pytest.mark.parametrize("run", [
    lambda: cli.run(BENCH_ARGVS["cli_bench_linear_exhaustive"]),
    lambda: cli.run(BENCH_ARGVS["cli_bench_plane_gf4"]),
    lambda: cli.run(BENCH_ARGVS["cli_bench_space_singular"]),
    lambda: singular_experiment(2, 3, gf(2), mode="sampled"),
], ids=["linear-exhaustive", "plane-gf4", "space-singular", "plane-singular"])
def test_run_deciders_pickle(monkeypatch, run):
    # each run hands _walk a module-level decider that survives a pickle
    # round trip and decides a seeded block as before
    def capture(mode, q, dims, trials, seed, decide):
        raise Captured(q, dims, decide)

    monkeypatch.setattr(experiments, "_walk", capture)
    with pytest.raises(Captured) as caught:
        run()
    q, dims, decide = caught.value.args
    block = np.random.default_rng(5).integers(0, q, size=(256, sum(dims)), dtype=np.uint16)
    copy = pickle.loads(pickle.dumps(decide))
    assert copy(block).tolist() == decide(block).tolist()


def test_plane_lookup_codes_are_set_codes():
    # the zero form and X_0^2 X_1 have a repeated factor; the Fermat cubic
    # X_0^3 + X_1^3 + X_2^3 is smooth over GF(2)
    field = gf(2)
    x = [MultiPoly.variable(field, 2, i) for i in range(3)]
    forms = [MultiPoly.zero(field, 2, 3), x[0] * x[0] * x[1],
             x[0] * x[0] * x[0] + x[1] * x[1] * x[1] + x[2] * x[2] * x[2]]
    rows = np.array([F.coeffs for F in forms])
    codes = experiments._is_marked(repeated_factor_keys(field, 2, 3), 2, rows)
    assert codes.dtype == np.uint8
    assert codes.tolist() == [hilbert.IN_SET, hilbert.IN_SET, hilbert.OUT_SET]


def _histogram(**counts):
    outcomes = [0] * 2 * len(hilbert.CERTIFICATES)
    for name, count in counts.items():
        outcomes[getattr(hilbert, name)] = count
    return tuple(outcomes)


@pytest.mark.parametrize("run, outcomes", [
    (lambda: excess_experiment(2, (1, 1), 1, gf(7), mode="exhaustive"),
     _histogram(OUT_RANK=114_912, IN_RANK=2_737)),
    (lambda: excess_experiment(2, (2, 2), 1, gf(2, 2), mode="sampled", trials=200),
     _histogram(OUT_SECTION=197, PROBABLE=3)),
    (lambda: singular_experiment(3, 3, gf(2), mode="sampled", trials=40),
     _histogram(OUT_SECTION=40)),
    (lambda: singular_experiment(2, 3, gf(2), mode="exhaustive"),
     _histogram(OUT_SET=974, IN_SET=50)),
], ids=["linear-exhaustive", "plane-gf4", "space-singular", "plane-singular"])
def test_outcome_histograms_are_pinned(run, outcomes):
    # the benchmark runs at the default seed, and the plane cubics
    res = run()
    assert (res.outcomes, res.hits) == (outcomes, sum(outcomes[1::2]))


def test_tallies_are_reads_of_the_histogram():
    run = dict(mode="sampled", q=3, seed=1, predicted_codim=2)
    out = ExperimentResult(**run, outcomes=_histogram(OUT_COUNT=1, OUT_SECTION=80))
    assert (out.trials, out.hits, out.est_codim, out.status) == (81, 0, None, "inconclusive")
    # 9 of 81 tuples in, by three certificates
    mixed = ExperimentResult(**run, outcomes=_histogram(OUT_RANK=72, IN_RANK=2, IN_COUNT=1,
                                                        PROBABLE=6))
    assert (mixed.trials, mixed.hits, mixed.status) == (81, 9, "ok")
    assert mixed.est_codim == (math.log(81) - math.log(9)) / math.log(3)
    assert mixed.est_codim == pytest.approx(2)
    # the tallies are not fields: a result stores only what its run knows
    with pytest.raises(TypeError):
        ExperimentResult(**run, outcomes=mixed.outcomes, trials=81)
    with pytest.raises(AttributeError):
        mixed.hits = 10


@pytest.mark.parametrize("run, trials", [
    (lambda: excess_experiment(2, (1, 1), 1, gf(3), mode="exhaustive"), 3**6),
    (lambda: excess_experiment(2, (1, 1), 1, gf(3), mode="sampled", trials=500), 500),
    (lambda: excess_experiment(2, (1, 2), 1, gf(2), mode="exhaustive"), 2**9),
    (lambda: excess_experiment(2, (1, 2), 1, gf(2), mode="sampled", trials=500), 500),
    (lambda: excess_experiment(2, (2, 2, 2), 1, gf(2), mode="sampled", trials=300), 300),  # s = 0
    (lambda: excess_experiment(3, (1, 2), 1, gf(3), mode="sampled", trials=300), 300),
    (lambda: singular_experiment(2, 3, gf(2), mode="exhaustive"), 2**10),
    (lambda: singular_experiment(2, 3, gf(3), mode="sampled", trials=500), 500),
    (lambda: singular_experiment(3, 3, gf(2), mode="sampled", trials=64), 64),
], ids=["linear-exhaustive", "linear-sampled", "mixed-exhaustive",
        "mixed-sampled", "s0-sampled", "r3-sampled", "plane-exhaustive", "plane-sampled",
        "space-sampled"])
def test_outcomes_count_every_tuple(run, trials):
    # the orbit weights of an exhaustive walk add up to all q^total tuples,
    # and a sampled run's codes to its draws
    res = run()
    assert res.trials == trials
    assert len(res.outcomes) == 2 * len(hilbert.CERTIFICATES)
    assert res.outcomes[2 * hilbert.CERTIFICATES.index("probable")] == 0  # never set


def test_rank_count_matches_enumeration():
    for q, k, n in [(2, 1, 3), (2, 2, 3), (2, 3, 3), (3, 2, 3), (2, 4, 2), (4, 2, 2)]:
        ranks = batch_rank(parse_field(str(q)), _all_coeff_rows(q, k * n).reshape(-1, k, n))
        assert [experiments._rank_count(q, k, n, rho) for rho in range(min(k, n) + 2)] == [
            int(np.count_nonzero(ranks == rho)) for rho in range(min(k, n) + 2)]


EXHAUSTIVE_LINEAR_RUNS = [
    (q, r, k, a) for q in (2, 3, 4, 5, 7, 8, 9) for r in range(1, 5) for k in range(1, 5)
    for a in range(max(1, k - r), k + 1) if _n_classes(q, r + 1) ** k <= 4096]


@pytest.mark.parametrize("q, r, k, a", EXHAUSTIVE_LINEAR_RUNS)
def test_exhaustive_linear_runs_match_the_rank_count(q, r, k, a):
    # k linear forms on P^r cut out a space of dimension >= s = r - k + a
    # exactly when their k x (r + 1) matrix has rank <= r - s
    res = excess_experiment(r, (1,) * k, a, parse_field(str(q)), mode="exhaustive")
    in_rank = sum(experiments._rank_count(q, k, r + 1, rho) for rho in range(k - a + 1))
    assert res.outcomes == _histogram(OUT_RANK=q ** (k * (r + 1)) - in_rank, IN_RANK=in_rank)
    assert res.crosscheck_skipped == 0


def flipping_rank(index: int, r: int, s: int):
    """A ``batch_rank`` for the section test that moves the rank of one row
    of its first stack across r - s, flipping that row's decision."""
    real, calls = hilbert.batch_rank, []

    def flipped(field, stack):
        ranks = real(field, stack)
        if not calls:
            ranks = ranks.copy()
            ranks[index] = r - s + 1 if ranks[index] <= r - s else r - s
        calls.append(len(stack))
        return ranks

    return flipped


def test_linear_crosscheck_is_exact(monkeypatch):
    # r = 4 linear runs take no Hilbert window and no point probe, and the
    # exact point count checks all of their samples
    def no_reference(*args):
        raise AssertionError("a heuristic reference was taken")

    monkeypatch.setattr(experiments, "batch_projective_dim_hilbert", no_reference)
    monkeypatch.setattr(experiments, "batch_projective_dim_points", no_reference)
    res = excess_experiment(4, (1, 1), 1, gf(3))
    assert (res.mode, res.hits, res.crosscheck_skipped) == ("exhaustive", 969, 0)
    # P^4 over GF(3) has 121 points, a point 1, a line 4 and a plane 13
    x = [MultiPoly.variable(gf(3), 4, i) for i in range(5)]
    rows = np.array([np.concatenate([x[i].coeffs for i in forms]) for forms in (
        range(5), [0, 1, 2, 3, 3], [0, 1, 2, 2, 2], [0, 1, 1, 1, 1], [0] * 5)])
    assert experiments._linear_dims(gf(3), 4, rows) == [-1, 0, 1, 2, 3]


def test_flipped_rank_fails_the_sample_crosscheck(monkeypatch):
    # the first sample of chunk 0 is checked: its exact point count disagrees
    # with a decision from a wrong rank, and the failure names it
    field, r, degrees, seed = gf(3), 3, (1, 1, 1), 12
    monkeypatch.setattr(hilbert, "batch_rank", flipping_rank(0, r, 1))
    with pytest.raises(InvariantError) as err:
        excess_experiment(r, degrees, 1, field, mode="sampled", trials=500, seed=seed)
    message = str(err.value)
    assert re.match(r"the sample's decision dim >= 1 is (True|False), by rank, but the "
                    r"reference gives dimension -?\d+; seed 12, chunk 0", message)
    row = _chunk_rng(seed, 0).integers(0, 3, size=(500, 12), dtype=np.uint16)[0]
    _, _, gens = replayed_sample(message)
    assert [g.coeffs.tolist() for g in gens] == [row[4 * i:4 * i + 4].tolist() for i in range(3)]


def test_flipped_rank_fails_the_run_count(monkeypatch):
    # the second row of the walk is not crosschecked, so only the exhaustive
    # run's closed-form count catches its wrong rank
    field, r = gf(3), 2
    assert max(1, _n_classes(3, 3) ** 2 // experiments.CROSSCHECK_SAMPLES) > 1
    monkeypatch.setattr(hilbert, "batch_rank", flipping_rank(1, r, 1))
    with pytest.raises(InvariantError, match=r"^103 tuples are in by rank, but 105 2x3 matrices "
                                             r"over GF\(3\) have rank at most 1"):
        excess_experiment(r, (1, 1), 1, field, mode="exhaustive")


def test_crosscheck_failure_names_the_certificate(monkeypatch):
    # inverted section decisions keep their certificate, which the failure
    # names next to the reference dimension
    real = experiments.batch_dim_at_least
    monkeypatch.setattr(experiments, "batch_dim_at_least", lambda *a, **kw: real(*a, **kw) ^ 1)
    field, r, degrees, seed = gf(2), 2, (2, 2), 31
    with pytest.raises(InvariantError) as err:
        excess_experiment(r, degrees, 1, field, mode="sampled", trials=50, seed=seed)
    hit, certificate, dim = re.match(
        r"the sample's decision dim >= 1 is (True|False), by (\w+), but the reference gives "
        r"dimension (-?\d+)", str(err.value)).groups()
    row = _chunk_rng(seed, 0).integers(0, 2, size=(50, 12), dtype=np.uint16)[:1]
    code = int(real(field, r, list(degrees), row, 1, seed)[0])
    assert (hit, certificate) == (str(not code & 1), hilbert.CERTIFICATES[code >> 1])
    assert int(dim) == batch_projective_dim_hilbert(field, r, list(degrees), row)[0]
