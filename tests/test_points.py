import numpy as np
import pytest

from excodim.errors import BudgetError
from excodim.fforacle import points
from excodim.fforacle.fields import gf
from excodim.fforacle.hilbert import projective_dim_hilbert
from excodim.fforacle.points import (
    count_common_zeros,
    count_projective_points,
    evaluate_on_points,
    projective_dim_points,
    projective_points,
)
from excodim.fforacle.polynomials import MultiPoly


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
    pts = projective_points(field, 2)
    vals = evaluate_on_points(line, pts, field, np.arange(field.q, dtype=np.uint16))
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
        counts[m] = count_common_zeros([line], ext, emb, 2)
    assert counts == {1: 3, 2: 5, 3: 9}
