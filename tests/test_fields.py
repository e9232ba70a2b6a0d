import hashlib
import tracemalloc

import numpy as np
import pytest

from excodim.errors import ParameterError
from excodim.fforacle.fields import (
    MAX_TABLE_Q,
    SUPPORTED_EXTENSIONS,
    SUPPORTED_PRIMES,
    _build_field,
    gf,
    parse_field,
)

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


# Codes are the wire format of serialized coefficients, and every seeded hit
# count depends on them, so the tables of every field and every embedding
# within MAX_TABLE_Q are pinned by SHA-256: tables as little-endian uint16,
# the modulus as int64 and generator_rep as 8 little-endian bytes.
def _field_digest(f) -> str:
    digest = hashlib.sha256()
    for table in (f.ADD, f.MUL, f.NEG, f.INV, f._code_from_rep):
        digest.update(np.ascontiguousarray(table, dtype="<u2").tobytes())
    digest.update(np.asarray(f.modulus, dtype="<i8").tobytes())
    digest.update(f.generator_rep.to_bytes(8, "little"))
    return digest.hexdigest()


FIELD_DIGESTS = {
    (2, 1): "e858c6dca1cfeabe4c513626187a807d7edc0c703ee8e420f52c5ec79399943e",
    (2, 2): "c8cec5631bef6408c36b7fc5e31012e871fc457d47587bf0b41a22ea6868341a",
    (2, 3): "9d98ad893ff20682143a415d601bc773dd73486cda4f2c9e97b35649652dc941",
    (2, 4): "00d0ee623acf85fc19a507e36f7bac723ea38a2868f94125ff9fe2f5d662368a",
    (2, 5): "d394a2dc1b2fabdbbcebbf6565799fff2a0e79d71ad65ae33293a4b32f089ee4",
    (2, 6): "916cc14f49d434042fa990de45a8e418c36471354270384d12fad9628ae0ecd3",
    (2, 7): "6184c9d5c39a688a713c0220dc6cdfb953ba984b8df730989a11dcc3f69382ef",
    (2, 8): "746ce22ced2950379373fce22ae32bd23cb0049a592f52ad62102060dac39ab2",
    (2, 9): "953facefb58daebdf12e56d840c7f6cd50f62376cbf22d28a5573f0f90f97405",
    (2, 10): "f50f50d979a893112229605a5b54a3ba20bfc38b98589f395cbd05533fe42d6d",
    (3, 1): "f8fd77cd581194cf66f4229897bb4d56dcdad569ce215f7aec8aa43a25098a6b",
    (3, 2): "20b57a18b0f331d3a2ba6801b78076adfafc786d68bbec0acf1f492955c56777",
    (3, 3): "6becc43cdfca1444d55156f615987bb52d2c4a6604fe2fd3acc156cdbda82769",
    (3, 4): "ca91a7310facd91a18a55bfe854101c0950fa41cd9672827387c39aae55e9ae4",
    (3, 5): "3a99dfe604c254dd5e9e55af236ac7cf1920d5e1396d3a7b7e513ff51fdf5cf1",
    (3, 6): "78b96ee744ab407de858ff7255175690bd34647a0e06661a634129cbfd30826b",
    (5, 1): "808a6634c6b363eeaabacf77b07c61dc189107e4f6e013751170b23a48933ab8",
    (5, 2): "c3207d98a3458bcd8abc08000ac5e5ff4bd5a2d0f42d1f193abaf0b5880e6c37",
    (5, 3): "e50decf0b536dd29234f58f38072c46bc33b2d88d31e1b5e953a631783c4ba77",
    (5, 4): "47b7bb44f1ad7cbec3039d48f3cc1b4c3d98492e3ed1a3f934c5055218de9f0c",
    (7, 1): "90050b4b04d5f6ceb84b0308291cd2424eaca978e81640dceab66a6949474cde",
    (7, 2): "d4aa3a7beff1e3315051717bbb2336da3c1f656f262fd053709665b086a5deda",
    (7, 3): "1900afc1a2baf9f810ff2842a4f22a819d9e2466af4dc5008dc86907d82a3cd7",
}

EMBEDDING_DIGESTS = {
    (2, 1, 2): "6b1e73a0094b7b812d3b9e22cffb4f8239319847522c4fa103753b6950020f93",
    (2, 1, 3): "6b1e73a0094b7b812d3b9e22cffb4f8239319847522c4fa103753b6950020f93",
    (2, 1, 4): "6b1e73a0094b7b812d3b9e22cffb4f8239319847522c4fa103753b6950020f93",
    (2, 1, 5): "6b1e73a0094b7b812d3b9e22cffb4f8239319847522c4fa103753b6950020f93",
    (2, 1, 6): "6b1e73a0094b7b812d3b9e22cffb4f8239319847522c4fa103753b6950020f93",
    (2, 1, 7): "6b1e73a0094b7b812d3b9e22cffb4f8239319847522c4fa103753b6950020f93",
    (2, 1, 8): "6b1e73a0094b7b812d3b9e22cffb4f8239319847522c4fa103753b6950020f93",
    (2, 1, 9): "6b1e73a0094b7b812d3b9e22cffb4f8239319847522c4fa103753b6950020f93",
    (2, 1, 10): "6b1e73a0094b7b812d3b9e22cffb4f8239319847522c4fa103753b6950020f93",
    (2, 2, 2): "d9cd6aacbf51bc31f2065722a78a42d4cbb6abfecdd03bf8165cff12ebff9b7f",
    (2, 2, 3): "7cee50869615866b1d45f1d5d7f4ed289d36e157e9e8a77effc407416fa7e4c0",
    (2, 2, 4): "90bd87ecef8409b6a78a59c66e4c5a50cae9320f4a6ec532412de0aedff9b89f",
    (2, 2, 5): "409bc9c88b10421ef497a91cb81f11b148da2fd049e9e27f25ef611530459afb",
    (2, 3, 2): "f0c67ce14d61347588770eca0e58ada1eb72985c6949dc837a2f0981c5a64847",
    (2, 3, 3): "b199c533c6db9d452c61aa119c43bb78b3542943b25e048ff80961c8b5e0717f",
    (3, 1, 2): "15c0c1581245a6b276a4542be6c836ab644d0f3b804f2cd780c1c64bb76e6aa0",
    (3, 1, 3): "45d072f10f556eb77ad86afda76b351953c416b072f1035307742c0fde36d494",
    (3, 1, 4): "0dac224cc2a39480b6220e79930e68bf2acc2429204871b8b99e7fa02e4972c3",
    (3, 1, 5): "c670e99b6941610c9ac3e3b7ee109b7ae973c81cbfef8175c84721ad8919818f",
    (3, 1, 6): "8870a577b6db71c6fc50472647a1c03c1d3fa3116cae3ad902dbb937d0e8be8a",
    (3, 2, 2): "e3bd059eb74832272d85a53b29b4e6909a5d412d2b8dde8a5c37f80fa75aeb1b",
    (3, 2, 3): "65ed86c66a56e5371fa41ddc55e14b8cc566692ff153fbc8e781fd568f1445a2",
    (3, 3, 2): "15b90cdff3f92d6601cff4a67d214d9c6bcfbb822ce06238a5db513399e1b829",
    (5, 1, 2): "f2f25b3a7699b8c6177a09e0f892f38f4c3efa659709ffcd649c576c2f461799",
    (5, 1, 3): "7d79cc677f45ad359357eae0dc84d6e400cdbae38cd364f95c963ea66d614919",
    (5, 1, 4): "bdccd62fd00e886d9b398bc9229cb5a41227adb78448ca35f6c98a1420caa1f4",
    (5, 2, 2): "2b69673b3a079bb04b72032a29275ae04d9cc8e4114e46c220b64354e6ec6352",
    (7, 1, 2): "9d20edaabbd7d2a90db24a7a705f96c4399a226e1d2a6e8bb4d37058bf15b3a6",
    (7, 1, 3): "e1500245d21fac96a9deea4d16ce18261c9869ff9ee10322574bd951652ad381",
}


def test_every_field_and_embedding_within_the_budget_is_pinned():
    fields = [(p, n) for p in SUPPORTED_PRIMES for n in range(1, 11) if p**n <= MAX_TABLE_Q]
    assert sorted(FIELD_DIGESTS) == fields
    assert sorted(EMBEDDING_DIGESTS) == [(p, e, m) for p, e in ALL_FIELDS for m in range(2, 11)
                                         if (p, e * m) in FIELD_DIGESTS]


@pytest.mark.parametrize("p, n", sorted(FIELD_DIGESTS))
def test_field_tables_are_pinned(p, n):
    assert _field_digest(_build_field(p, n)) == FIELD_DIGESTS[p, n]


@pytest.mark.parametrize("p, e, m", sorted(EMBEDDING_DIGESTS))
def test_embedding_tables_are_pinned(p, e, m):
    emb = gf(p, e).extension(m)[1]
    digest = hashlib.sha256(np.ascontiguousarray(emb, dtype="<u2").tobytes()).hexdigest()
    assert digest == EMBEDDING_DIGESTS[p, e, m]


def test_extension_tables_build_in_small_memory():
    # the sum table is built one digit at a time in one reused uint16
    # buffer: GF(2^10)'s four (q, q) tables need 4 MB, and the build peaks
    # at 10 MB at most (the int64 sum table alone was 8 MB)
    field = _build_field(2, 10)
    tables = [field.ADD.copy(), field.MUL.copy(), field.NEG.copy(), field.INV.copy()]
    tracemalloc.start()
    try:
        field._build_tables()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2**20
    for old, new in zip(tables, [field.ADD, field.MUL, field.NEG, field.INV]):
        assert new.dtype == np.uint16 and np.array_equal(old, new)
