import dataclasses
import json
import math
import re
import warnings
from itertools import product

import numpy as np
import pytest

from excodim import cli
from excodim.errors import BudgetError, InvariantError, ParameterError
from excodim.fforacle import experiments, hilbert
from excodim.fforacle.experiments import (
    CHUNK,
    DEFAULT_SEED,
    _all_coeff_rows,
    _chunk_rng,
    _class_block,
    _class_rows,
    _n_classes,
    _row_keys,
    _singular_generators,
    excess_experiment,
    poonen_combine,
    poonen_sample,
    repeated_factor_keys,
    restriction_codim,
    singular_experiment,
    singular_membership,
)
from excodim.fforacle.fields import gf, parse_field
from excodim.fforacle.hilbert import batch_dim_at_least, dim_at_least, projective_dim_hilbert
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
            hit = batch_dim_at_least(field, r, degrees, block, s, DEFAULT_SEED)
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
    (lambda: excess_experiment(2, (1, 2), 1, gf(3)), ("sampled", 20000)),
    (lambda: excess_experiment(3, (2, 2), 1, gf(2), mode="exhaustive"), BudgetError),
    (lambda: singular_experiment(2, 3, gf(2)), ("exhaustive", 1024)),
    (lambda: singular_experiment(2, 5, gf(2)), ("exhaustive", 2**21)),
    (lambda: singular_experiment(3, 3, gf(2)), ("sampled", 2000)),
    (lambda: singular_experiment(3, 3, gf(2), mode="exhaustive"), BudgetError),
], ids=["excess-linear", "excess-slow-cap", "excess-over-slow-cap", "excess-exhaustive-over",
        "plane-small", "plane-over-slow-cap", "singular-space-auto", "singular-space-exhaustive"])
def test_mode_policy(run, planned):
    # auto runs exhaustive under the cap, MAX_EXHAUSTIVE when each decision
    # is cheap (linear tuples, plane curves looked up in the repeated-factor
    # set) and SLOW_EXHAUSTIVE_LIMIT otherwise; an exhaustive run over its
    # cap is a budget error, exit 3
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
    assert excess_experiment(2, (1, 1), 1, gf(3), mode="auto", trials=5).trials == 3**6


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
            restriction_codim(3, 2, 1, seed=seed)
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


def test_singular_membership_cases():
    f2 = gf(2)
    cone = MultiPoly.from_terms(f2, 2, 3, {(2, 1, 0): 1})  # X0^2 X1
    assert singular_membership(cone).sing_dim == 1

    f3 = gf(3)
    smooth_conic = MultiPoly.from_terms(
        f3, 2, 2, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}
    )
    assert singular_membership(smooth_conic).sing_dim == -1

    # doubled line times a line is singular along the doubled line
    x0 = MultiPoly.variable(f2, 2, 0)
    x1 = MultiPoly.variable(f2, 2, 1)
    assert singular_membership(x0 * x0 * x1).sing_dim >= 1

    cubic_cone = MultiPoly.from_terms(f2, 2, 3, {(3, 0, 0): 1})  # X0^3
    assert singular_membership(cubic_cone).sing_dim >= 1


def test_repeated_factor_set_is_exactly_positive_singular_locus():
    # full-space agreement between the marked set and the rank detector
    field = gf(2)
    marked = repeated_factor_keys(field, 2, 3)
    assert np.array_equal(marked, np.unique(marked)) and not marked.flags.writeable
    members = set(marked.tolist())
    rows = _all_coeff_rows(2, n_monomials(2, 3))
    hits = 0
    for row, key in zip(rows, _row_keys(2, rows).tolist()):
        F = MultiPoly(field, 2, 3, row)
        in_marked = key in members
        if F.is_zero:
            assert in_marked
            hits += 1
            continue
        positive = singular_membership(F).sing_dim >= 1
        assert positive == in_marked
        hits += 1 if positive else 0
    assert hits == marked.size
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


def test_singular_requires_char2():
    with pytest.raises(ParameterError):
        singular_experiment(2, 3, gf(3), mode="exhaustive")


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
    # degree 6 needs 2^28 forms, above the exhaustive cap; sampling still works
    with pytest.raises(BudgetError):
        singular_experiment(2, 6, gf(2), mode="exhaustive")
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
    assert restriction_codim(4, 3, 1) == 4
    assert restriction_codim(4, 2, 2) == 6
    assert restriction_codim(3, 5, 3) == 56
    assert restriction_codim(3, 2, 0) == 1


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
    monkeypatch.setattr(experiments, "batch_dim_at_least", lambda *a, **kw: ~real(*a, **kw))
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


def wrong_reference_from(first_wrong: int, r: int):
    """A batched Hilbert reference that turns wrong from the checked sample
    with index first_wrong on: dimensions >= 1 become -1, the rest r."""
    real = experiments.batch_projective_dim_hilbert

    def wrong(*args):
        dims = real(*args)
        return dims[:first_wrong] + [-1 if dim >= 1 else r for dim in dims[first_wrong:]]

    return wrong


def test_crosscheck_failure_names_chunk_and_replays(monkeypatch):
    # linear tuples over two chunks; the Hilbert reference turns wrong from
    # the first check of chunk 1 on
    field, r, trials, seed = gf(3), 3, CHUNK + 904, 12
    every = trials // experiments.CROSSCHECK_SAMPLES
    checks_in_chunk0 = -(-CHUNK // every)
    monkeypatch.setattr(experiments, "batch_projective_dim_hilbert",
                        wrong_reference_from(checks_in_chunk0, r))
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
    seen = []
    monkeypatch.setattr(experiments, "_crosscheck_sample", lambda *a: seen.append(a))
    field = parse_field(str(q))
    experiments._verify_marked(field, 2, ell, repeated_factor_keys(field, 2, ell), DEFAULT_SEED)
    half = experiments.VERIFY_SAMPLES // 2
    members = set(repeated_factor_keys(field, 2, ell).tolist())
    picks = [a[3] for a in seen[:half]]
    assert len(seen) == experiments.VERIFY_SAMPLES and all(a[7] for a in seen[:half])
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
    seed, chunk, [F] = replayed_sample(message)
    assert (seed, chunk) == (DEFAULT_SEED, 2**31)
    drawn = _chunk_rng(DEFAULT_SEED, 2**31).integers(0, 2, size=(half, 10), dtype=np.uint16)
    assert F.coeffs.tolist() == drawn[0].tolist()
    wrong = int(re.search(r"gives dimension (-?\d+)", message).group(1))
    assert (singular_membership(F).sing_dim >= 1) != (wrong >= 1)


@pytest.mark.parametrize("degrees, mode, hits, checked, skipped", [
    ((1, 1, 1), "exhaustive", 6728, 49, 44),
    ((1, 2), "sampled", 12, 50, 47),
    ((2, 2), "sampled", 0, 50, 50),
])
def test_excess_r4_counts_crosschecks_over_budget(monkeypatch, degrees, mode, hits, checked,
                                                  skipped):
    # at r = 4 most crosscheck windows go over the matrix budget: the run
    # finishes, and the samples that fit are still checked
    real, seen = experiments._crosscheck_sample, []
    monkeypatch.setattr(experiments, "_crosscheck_sample",
                        lambda *a, **kw: seen.append(a) or real(*a, **kw))
    trials = 300 if mode == "sampled" else None
    res = excess_experiment(4, degrees, 1, gf(2), mode=mode, trials=trials, seed=5)
    assert (res.hits, res.crosscheck_skipped, len(seen)) == (hits, skipped, checked - skipped)


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
    block = np.array([np.concatenate([g.coeffs for g in _singular_generators(F)])
                      for F in forms])
    degrees = [ell] + [ell - 1] * (r + 1)
    with_f = batch_dim_at_least(field, r, degrees, block, 1, 5)
    without_f = batch_dim_at_least(field, r, degrees[1:], block[:, n_monomials(r, ell):], 1, 5)
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
        assert not dim_at_least(_singular_generators(F), 1)
        assert dim_at_least(_singular_generators(F)[1:], 1)


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
