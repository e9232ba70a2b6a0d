import numpy as np
import pytest

from excodim.errors import ParameterError
from excodim.fforacle.fields import SUPPORTED_EXTENSIONS, SUPPORTED_PRIMES, gf, parse_field

ALL_FIELDS = [(p, e) for p in SUPPORTED_PRIMES for e in SUPPORTED_EXTENSIONS]


@pytest.mark.parametrize("p,e", ALL_FIELDS)
def test_pairwise_axioms_exhaustive(p, e):
    f = gf(p, e)
    q = f.q
    i = np.arange(q)
    grid_a, grid_b = np.meshgrid(i, i, indexing="ij")
    # commutativity on all q^2 pairs
    assert np.array_equal(f.ADD[grid_a, grid_b], f.ADD[grid_b, grid_a])
    assert np.array_equal(f.MUL[grid_a, grid_b], f.MUL[grid_b, grid_a])
    # identities and inverses
    assert np.array_equal(f.ADD[i, 0], i)
    assert np.array_equal(f.MUL[i, f.one], i)
    assert np.array_equal(f.ADD[i, f.NEG[i]], np.zeros(q, dtype=f.ADD.dtype))
    nz = i[1:]
    assert np.array_equal(f.MUL[nz, f.INV[nz]], np.full(q - 1, f.one, dtype=f.MUL.dtype))


@pytest.mark.parametrize("p,e", ALL_FIELDS)
def test_ternary_axioms(p, e):
    f = gf(p, e)
    q = f.q
    if q <= 49:
        a, b, c = np.meshgrid(np.arange(q), np.arange(q), np.arange(q), indexing="ij")
    else:
        rng = np.random.default_rng(q)
        a, b, c = rng.integers(0, q, size=(3, 200_000))
    assert np.array_equal(f.ADD[f.ADD[a, b], c], f.ADD[a, f.ADD[b, c]])
    assert np.array_equal(f.MUL[f.MUL[a, b], c], f.MUL[a, f.MUL[b, c]])
    assert np.array_equal(f.MUL[a, f.ADD[b, c]], f.ADD[f.MUL[a, b], f.MUL[a, c]])


@pytest.mark.parametrize("p,e", ALL_FIELDS)
def test_frobenius_is_pth_power(p, e):
    f = gf(p, e)
    i = np.arange(f.q)
    frob = i
    for _ in range(p - 1):
        frob = f.MUL[frob, i]  # x -> x^p over every code at once
    for x in range(f.q):
        power = f.one
        for _ in range(p):
            power = int(f.MUL[power, x])
        assert int(frob[x]) == power
    # Frobenius is additive
    ga, gb = np.meshgrid(i, i, indexing="ij")
    assert np.array_equal(frob[f.ADD[ga, gb]], f.ADD[frob[ga], frob[gb]])


def test_char2_squaring_facts():
    f2 = gf(2)
    i = np.arange(2)
    assert np.array_equal(f2.MUL[i, i], np.array([0, 1], dtype=np.uint16))
    f4 = gf(2, 2)
    for x in range(1, 4):
        assert int(f4.MUL[x, f4.INV[x]]) == f4.one


def test_generator_orders():
    assert gf(2, 3).element_order(gf(2, 3).generator_code) == 7
    assert gf(3, 2).element_order(gf(3, 2).generator_code) == 8
    assert gf(7, 1).element_order(gf(7, 1).generator_code) == 6


def test_prime_field_codes_are_residues():
    f = gf(5)
    assert int(f.ADD[3, 4]) == 2
    assert int(f.MUL[3, 4]) == 2
    assert f.from_int(12) == 2


@pytest.mark.parametrize("p, e", ALL_FIELDS)
def test_one_is_code_1(p, e):
    # the exhaustive walk's class representatives have top coefficient code 1
    assert gf(p, e).one == 1


def test_from_int_respects_characteristic():
    f4 = gf(2, 2)
    assert f4.from_int(2) == 0
    assert f4.from_int(3) == f4.one


def test_unsupported_fields_rejected():
    with pytest.raises(ParameterError):
        gf(11, 1)
    with pytest.raises(ParameterError):
        gf(2, 4)


def test_parse_field():
    assert parse_field("2").q == 2
    assert parse_field("9").q == 9
    assert parse_field("2^3").q == 8
    assert parse_field("7,2").q == 49
    with pytest.raises(ParameterError):
        parse_field("6")


@pytest.mark.parametrize("p,e,m", [(2, 1, 2), (2, 1, 3), (2, 2, 2), (3, 1, 2), (2, 3, 2), (3, 2, 2)])
def test_embedding_is_a_field_map(p, e, m):
    base = gf(p, e)
    ext, emb = base.extension(m)
    assert ext.q == base.q**m
    i = np.arange(base.q)
    ga, gb = np.meshgrid(i, i, indexing="ij")
    assert np.array_equal(emb[base.ADD[ga, gb]], ext.ADD[emb[ga], emb[gb]])
    assert np.array_equal(emb[base.MUL[ga, gb]], ext.MUL[emb[ga], emb[gb]])
    assert emb[0] == 0 and emb[base.one] == ext.one
    # injective
    assert len(set(int(x) for x in emb)) == base.q


def test_pow_table():
    f = gf(3)
    i = np.arange(f.q)
    # column j holds x^j for every code x, built through MUL
    columns = [np.full(f.q, f.one)]
    for _ in range(4):
        columns.append(f.MUL[columns[-1], i])
    table = np.stack(columns, axis=1)
    assert int(table[2, 0]) == 1
    assert int(table[2, 2]) == 1
    assert int(table[2, 3]) == 2
