import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from excodim.errors import ParameterError
from excodim.fforacle.fields import gf
from excodim.fforacle.linalg import rows_times
from excodim.fforacle.points import projective_points
from excodim.fforacle.polynomials import (
    MultiPoly,
    monomial_index,
    monomials,
    n_monomials,
    partial_rows,
    poly_from_line,
    poly_to_line,
    substitute,
)


def test_monomial_order_is_graded_lex():
    assert monomials(1, 2) == ((2, 0), (1, 1), (0, 2))
    assert monomials(2, 2) == (
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2),
    )
    assert len(monomials(3, 4)) == n_monomials(3, 4) == 35


def test_monomial_order_leading_variable_first():
    mons = monomials(2, 3)
    assert mons[0] == (3, 0, 0)
    assert mons[-1] == (0, 0, 3)
    # strictly decreasing in lex order with X0 > X1 > X2
    assert all(a > b for a, b in zip(mons, mons[1:]))


def test_multipoly_construction_checks():
    f = gf(2)
    with pytest.raises(ParameterError):
        MultiPoly(f, 2, 2, [0, 0, 0])  # wrong length
    with pytest.raises(ParameterError):
        MultiPoly(f, 1, 1, [2, 0])  # code out of range
    cubic = MultiPoly.random(f, 2, 3, np.random.default_rng(0))
    for i in (-1, 3):
        with pytest.raises(ParameterError, match="out of range"):
            cubic.partial(i)


def test_multiplication_small_case():
    f = gf(2)
    x0 = MultiPoly.variable(f, 1, 0)
    x1 = MultiPoly.variable(f, 1, 1)
    prod = (x0 + x1) * (x0 + x1)
    # char 2: (X0 + X1)^2 = X0^2 + X1^2
    assert list(prod.coeffs) == [1, 0, 1]


def test_multiplication_matches_reference():
    # compare against integer polynomial arithmetic reduced mod p
    f = gf(5)
    rng = np.random.default_rng(3)
    for _ in range(30):
        a = MultiPoly.random(f, 2, 2, rng)
        b = MultiPoly.random(f, 2, 3, rng)
        got = a * b
        ref = {}
        for ea, ca in a.support():
            for eb, cb in b.support():
                key = tuple(x + y for x, y in zip(ea, eb))
                ref[key] = (ref.get(key, 0) + ca * cb) % 5
        want = MultiPoly.from_terms(f, 2, 5, {k: v for k, v in ref.items() if v})
        assert got == want


def reference_product(a: MultiPoly, b: MultiPoly) -> np.ndarray:
    """The coefficients of a * b, one term pair at a time."""
    f = a.field
    out = np.zeros(n_monomials(a.r, a.d + b.d), dtype=np.uint16)
    index = monomial_index(a.r, a.d + b.d)
    for ea, ca in a.support():
        for eb, cb in b.support():
            i = index[tuple(x + y for x, y in zip(ea, eb))]
            out[i] = f.ADD[out[i], f.MUL[ca, cb]]
    return out


@pytest.mark.parametrize("p, e", [(2, 1), (3, 1), (7, 1), (2, 2), (2, 3), (3, 2)])
def test_multiplication_matches_scalar_double_loop(p, e):
    f = gf(p, e)
    rng = np.random.default_rng([p, e, 1])
    for r in (1, 2, 3):
        for da, db in ((0, 2), (1, 1), (2, 3), (3, 0), (4, 2)):
            a, b = MultiPoly.random(f, r, da, rng), MultiPoly.random(f, r, db, rng)
            assert np.array_equal((a * b).coeffs, reference_product(a, b))


def evaluate(field, r, d, coeffs, pts) -> np.ndarray:
    """A degree-d form on P^r at each row of pts, term by term."""
    acc = np.zeros(len(pts), dtype=np.uint16)
    for exp, code in zip(monomials(r, d), coeffs):
        term = np.full(len(pts), code, dtype=np.uint16)
        for i, e in enumerate(exp):
            for _ in range(e):
                term = field.MUL[term, pts[:, i]]
        acc = field.ADD[acc, term]
    return acc


@st.composite
def substitutions(draw):
    # prime, characteristic-2 and odd extension fields, and b = 0 (points)
    field = gf(*draw(st.sampled_from([(3, 1), (7, 1), (2, 2), (2, 3), (3, 2), (5, 2)])))
    r, b, d = draw(st.integers(1, 3)), draw(st.integers(0, 2)), draw(st.integers(0, 4))
    codes = st.integers(0, field.q - 1)
    planes = draw(hnp.arrays(np.uint16, (draw(st.integers(1, 3)), r + 1, b + 1), elements=codes))
    form = draw(hnp.arrays(np.uint16, n_monomials(r, d), elements=codes))
    return field, r, d, planes, form


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(substitutions())
def test_substitute_pulls_forms_back_pointwise(case):
    # F(P y) = (F o P)(y) at every point y of P^b, for each plane P of the
    # stack; P need not have full rank
    field, r, d, planes, form = case
    b = planes.shape[2] - 1
    maps = substitute(field, r, d, planes)
    assert maps.shape == (len(planes), n_monomials(r, d), n_monomials(b, d))
    pts = projective_points(field, b)
    for plane, rmap in zip(planes, maps):
        image = np.zeros((len(pts), r + 1), dtype=np.uint16)
        for i in range(r + 1):
            for j in range(b + 1):
                image[:, i] = field.ADD[image[:, i], field.MUL[plane[i, j], pts[:, j]]]
        pulled = rows_times(field, form[None], rmap)[0]
        assert np.array_equal(evaluate(field, b, d, pulled, pts),
                              evaluate(field, r, d, form, image))


@pytest.mark.parametrize("p, e", [(2, 1), (3, 2), (7, 1)])
def test_substitute_identity_plane_is_the_identity_map(p, e):
    f = gf(p, e)
    for r in (0, 1, 3):
        identity = np.eye(r + 1, dtype=np.uint16)[None] * f.one
        for d in range(5):
            maps = substitute(f, r, d, identity)
            assert np.array_equal(maps[0], np.eye(n_monomials(r, d), dtype=np.uint16) * f.one)
    with pytest.raises(ParameterError):
        substitute(f, 2, 1, np.zeros((1, 2, 2), dtype=np.uint16))
    with pytest.raises(ParameterError):
        substitute(f, 2, -1, np.zeros((1, 3, 2), dtype=np.uint16))


def test_euler_identity():
    # sum_i X_i dF/dX_i = deg(F) * F, in any characteristic
    for p, e in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]:
        f = gf(p, e)
        rng = np.random.default_rng(p * 10 + e)
        for r in (2, 3):
            for d in (2, 3, 4):
                F = MultiPoly.random(f, r, d, rng)
                acc = MultiPoly.zero(f, r, d)
                for i in range(r + 1):
                    acc = acc + MultiPoly.variable(f, r, i) * F.partial(i)
                assert acc == F.scale(f.from_int(d))


@pytest.mark.parametrize("p, e", [(2, 1), (3, 1), (2, 2), (7, 1)])
def test_partial_rows_of_a_stack_match_each_row(p, e):
    f = gf(p, e)
    rng = np.random.default_rng([p, e])
    for r, d in ((1, 1), (2, 3), (3, 4)):
        rows = rng.integers(0, f.q, size=(9, n_monomials(r, d)), dtype=np.uint16)
        for i in range(r + 1):
            stack = partial_rows(f, r, d, i, rows)
            assert stack.shape == (9, n_monomials(r, d - 1))
            for row, got in zip(rows, stack):
                assert np.array_equal(partial_rows(f, r, d, i, row), got)


def test_char2_derivative_cancellation():
    f = gf(2)
    F = MultiPoly.from_terms(f, 2, 3, {(2, 1, 0): 1})  # X0^2 X1
    assert F.partial(0).is_zero
    assert list(F.partial(1).support()) == [((2, 0, 0), 1)]
    assert F.partial(2).is_zero


def test_char2_square_has_even_exponents():
    f = gf(2)
    rng = np.random.default_rng(11)
    F = MultiPoly.random(f, 2, 3, rng)
    sq = F.square()
    for exp, _ in sq.support():
        assert all(e % 2 == 0 for e in exp)
    for i in range(3):
        assert sq.partial(i).is_zero


def test_serialization_round_trip_prime_field():
    f = gf(3)
    rng = np.random.default_rng(5)
    F = MultiPoly.random(f, 2, 4, rng)
    line = poly_to_line(F)
    assert line.startswith("3 1 2 4 :")
    again = poly_from_line(line)
    assert again == F
    assert poly_to_line(again) == line


def test_serialization_round_trip_extension_field():
    f = gf(2, 3)
    rng = np.random.default_rng(9)
    F = MultiPoly.random(f, 1, 5, rng)
    line = poly_to_line(F)
    assert line.startswith("2 3 1 5 :")
    again = poly_from_line(line)
    assert again == F
    assert poly_to_line(again) == line


def test_zero_polynomial_is_valid():
    f = gf(2)
    z = MultiPoly.zero(f, 3, 4)
    assert z.is_zero
    assert list(z.support()) == []
    assert (z * MultiPoly.variable(f, 3, 0)).is_zero
