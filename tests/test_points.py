import numpy as np
import pytest

from excodim.errors import BudgetError, ParameterError
from excodim.fforacle import hilbert, points
from excodim.fforacle.fields import gf
from excodim.fforacle.hilbert import projective_dim_hilbert
from excodim.fforacle.linalg import rows_times
from excodim.fforacle.points import (
    PointProbe,
    batch_projective_dim_points,
    count_projective_points,
    monomial_values,
    projective_dim_points,
    projective_points,
)
from excodim.fforacle.polynomials import MultiPoly, monomials, n_monomials


def test_projective_point_counts():
    for q, r in [(2, 2), (3, 2), (4, 3), (5, 1)]:
        field = gf(q) if q in (2, 3, 5, 7) else gf(2, 2)
        pts = projective_points(field, r)
        assert len(pts) == count_projective_points(field.q, r)
        # all rows normalized: first nonzero coordinate is one
        for row in pts[:50]:
            nz = [c for c in row if c != 0]
            assert nz and nz[0] == field.one


def test_point_rows_are_distinct():
    field = gf(3)
    pts = projective_points(field, 2)
    assert len({tuple(int(c) for c in row) for row in pts}) == len(pts)


def test_evaluation_counts_line_points():
    field = gf(3)
    line = MultiPoly.variable(field, 2, 0)
    vals = rows_times(field, line.coeffs[None], monomial_values(field, 2, 1))[0]
    assert int((vals == 0).sum()) == 4  # a line over F_3 has q + 1 points


def test_reducible_conic_is_positive_dimensional():
    field = gf(2)
    F = MultiPoly.from_terms(field, 2, 2, {(1, 1, 0): 1})  # X0 * X1
    probe = projective_dim_points([F], m_max=2)
    assert probe.positive_dimensional and probe.conclusive
    assert probe.cutoff == 2
    # two lines over F_2: 3 + 3 - 1 points, already conclusive at m = 1
    assert probe.counts[0][2] == 5


def test_generic_point_is_not_positive():
    field = gf(3)
    gens = [
        MultiPoly.variable(field, 2, 0),
        MultiPoly.variable(field, 2, 1),
    ]
    probe = projective_dim_points(gens, m_max=3)
    assert not probe.positive_dimensional and not probe.conclusive
    assert all(count == 1 for _, _, count in probe.counts)


def test_two_quadrics_in_space_agree_with_rank_detector():
    field = gf(2)
    rng = np.random.default_rng(31)
    agreements = 0
    for _ in range(12):
        gens = [MultiPoly.random(field, 3, 2, rng) for _ in range(2)]
        if any(g.is_zero for g in gens):
            continue
        hil = projective_dim_hilbert(gens)
        probe = projective_dim_points(gens, m_max=3)
        if probe.conclusive:
            assert probe.positive_dimensional and hil >= 1
            agreements += 1
    assert agreements >= 6  # a random (2,2) usually cuts out a genuine curve


def test_empty_generator_set_is_whole_space():
    probe = projective_dim_points([], field=gf(2), r=3)
    assert probe.positive_dimensional and probe.conclusive


def test_point_budget(monkeypatch):
    field = gf(7)
    monkeypatch.setattr(points, "MAX_POINTS", 10)
    with pytest.raises(BudgetError):
        projective_dim_points([MultiPoly.variable(field, 5, 0)], m_max=3)


def test_extension_counts_grow_like_q():
    # a line accumulates q^m + 1 points over the tower
    field = gf(2)
    line = MultiPoly.variable(field, 2, 0)
    counts = {}
    for m in (1, 2, 3):
        ext, emb = field.extension(m)
        counts[m] = int(points._common_zeros(ext, emb, 2, [1], [line.coeffs[None]])[0])
    assert counts == {1: 3, 2: 5, 3: 9}


def test_monomial_values_are_read_only_products_of_coordinates():
    field = gf(2, 2)
    values = monomial_values(field, 2, 2)
    pts = projective_points(field, 2)
    assert values.shape == (n_monomials(2, 2), len(pts)) and not values.flags.writeable
    for i, exp in enumerate(monomials(2, 2)):
        for j in (0, 7, len(pts) - 1):
            want = field.one
            for x, e in zip(pts[j], exp):
                for _ in range(e):
                    want = int(field.MUL[want, x])
            assert values[i, j] == want


def reference_zero_count(gens, ext, emb, r) -> int:
    """Common zeros of the forms over ext, evaluated term by term."""
    pts = projective_points(ext, r)
    zero = np.ones(len(pts), dtype=bool)
    for g in gens:
        acc = np.zeros(len(pts), dtype=np.uint16)
        for exp, code in g.support():
            term = np.full(len(pts), emb[code], dtype=np.uint16)
            for i, e in enumerate(exp):
                for _ in range(e):
                    term = ext.MUL[term, pts[:, i]]
            acc = ext.ADD[acc, term]
        zero &= acc == 0
    return int(zero.sum())


def probe_block(field, r, degrees, seed):
    """Eight samples: random ones, a zero row, one with its linear form
    zero, two whose forms all vanish on the planted line
    X_0 = ... = X_{r-2} = 0, and a sparse one."""
    rng = np.random.default_rng(seed)
    widths = [n_monomials(r, d) for d in degrees]
    block = rng.integers(0, field.q, size=(8, sum(widths)), dtype=np.uint16)
    block[1] = 0
    block[2, :widths[0]] = 0
    off_line = np.concatenate([[not any(e[:r - 1]) for e in monomials(r, d)] for d in degrees])
    block[3:5, off_line] = 0
    block[5, rng.random(sum(widths)) < 0.7] = 0
    return block


@pytest.mark.parametrize("p, e", [(2, 1), (3, 1), (2, 2), (7, 1)], ids=["q2", "q3", "q4", "q7"])
@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("m_max", [1, 2, 3])
def test_batched_probe_matches_per_sample_probe(monkeypatch, p, e, r, m_max):
    field = gf(p, e)
    degrees = [1, 2] if r == 2 else [1, 1, 2]
    block = probe_block(field, r, degrees, 10 * p + e + r)
    ends = np.cumsum([n_monomials(r, d) for d in degrees])[:-1]
    want = []
    for row in block:
        gens = [MultiPoly(field, r, d, c) for d, c in zip(degrees, np.split(row, ends))]
        probe = projective_dim_points(gens, m_max=m_max)
        live = [g for g in gens if not g.is_zero]
        for m, _, count in probe.counts:
            assert count == reference_zero_count(live, *field.extension(m), r)
        want.append(probe)
    assert want[1] == PointProbe(True, True, 1, ())  # the zero row
    assert want[2].cutoff == 2  # the zero linear form leaves the cutoff
    assert want[3].positive_dimensional and want[4].positive_dimensional
    assert batch_projective_dim_points(field, r, degrees, block, m_max) == want
    monkeypatch.setattr(hilbert, "STACK_ENTRIES", 7)  # one row per product
    assert batch_projective_dim_points(field, r, degrees, block, m_max) == want


def test_batched_probe_budget_and_m_max(monkeypatch):
    field = gf(7)
    block = np.zeros((3, 6), dtype=np.uint16)
    block[0, 0] = block[2, 5] = 1
    with pytest.raises(ParameterError):
        batch_projective_dim_points(field, 5, [1], block, m_max=4)
    monkeypatch.setattr(points, "MAX_POINTS", 10)
    # no extension fits: every row with a nonzero form gets None
    assert batch_projective_dim_points(field, 5, [1], block) == [
        None, PointProbe(True, True, 1, ()), None]
