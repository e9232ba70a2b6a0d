import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from excodim.combinatorics import binomial
from excodim.errors import BudgetError, ParameterError
from excodim.fforacle import hilbert
from excodim.fforacle.experiments import singular_experiment
from excodim.fforacle.fields import gf
from excodim.fforacle.hilbert import (
    batch_dim_at_least,
    batch_projective_dim_hilbert,
    dim_at_least,
    hilbert_function,
    projective_dim_hilbert,
    section_field,
)
from excodim.fforacle.points import projective_dim_points
from excodim.fforacle.polynomials import (
    MultiPoly,
    macaulay_stack,
    monomial_index,
    monomials,
    n_monomials,
)

ALL_FIELDS = [gf(p, e) for p in (2, 3, 5, 7) for e in (1, 2, 3)]


def test_empty_ideal():
    assert hilbert_function([], 2, field=gf(2), r=2) == 6
    assert projective_dim_hilbert([], field=gf(2), r=3) == 3


def test_single_quadric_in_plane():
    f = gf(2)
    conic = MultiPoly.from_terms(f, 2, 2, {(2, 0, 0): 1, (0, 1, 1): 1})
    assert hilbert_function([conic], 3) == 10 - 3


def test_principal_ideal_closed_form():
    # one nonzero form: multiplication by it is injective, so
    # h(t) = C(t+r, r) - C(t-d+r, r)
    for field in ALL_FIELDS:
        rng = np.random.default_rng(field.q)
        for r in (1, 2, 3, 4):
            for d in range(1, 6):
                F = MultiPoly.random(field, r, d, rng)
                while F.is_zero:
                    F = MultiPoly.random(field, r, d, rng)
                t = d + 2
                expected = binomial(t + r, r) - binomial(t - d + r, r)
                assert hilbert_function([F], t) == expected


def test_two_generic_conics():
    # independently frozen from the length-4 complete-intersection series:
    # h(t) = C(t+2,2) - 2 C(t,2) + C(t-2,2)
    f = gf(3)
    c1 = MultiPoly.from_terms(f, 2, 2, {(2, 0, 0): 1, (0, 1, 1): 1})
    c2 = MultiPoly.from_terms(f, 2, 2, {(0, 2, 0): 1, (1, 0, 1): 1})

    def series(t):
        terms = [(t + 2, 1), (t, -2), (t - 2, 1)]
        return sum(sign * binomial(n, 2) for n, sign in terms if n >= 0)

    assert hilbert_function([c1, c2], 3) == series(3) == 4
    for t in range(2, 8):
        assert hilbert_function([c1, c2], t) == series(t)
    assert projective_dim_hilbert([c1, c2]) == 0


def test_line_in_plane_and_plane_in_space():
    f = gf(2)
    assert projective_dim_hilbert([MultiPoly.variable(f, 2, 0)]) == 1
    assert projective_dim_hilbert([MultiPoly.variable(f, 3, 0)]) == 2


def test_doubled_line_support():
    # ideal (X0^2 X1, X0^2) = (X0^2): a line with multiplicity, dimension 1
    f = gf(2)
    F = MultiPoly.from_terms(f, 2, 3, {(2, 1, 0): 1})
    gens = [F] + [F.partial(i) for i in range(3)]
    assert projective_dim_hilbert(gens) == 1


def test_irrelevant_ideal_is_empty():
    f = gf(3)
    gens = [MultiPoly.variable(f, 2, i) for i in range(3)]
    assert projective_dim_hilbert(gens) == -1


def test_zero_generators_are_dropped():
    f = gf(2)
    z = MultiPoly.zero(f, 2, 2)
    x0 = MultiPoly.variable(f, 2, 0)
    assert projective_dim_hilbert([z, x0, z]) == 1


def test_graded_piece_rank_bound():
    f = gf(2)
    rng = np.random.default_rng(17)
    for _ in range(10):
        gens = [MultiPoly.random(f, 2, 2, rng), MultiPoly.random(f, 2, 3, rng)]
        # the piece's rank is n_monomials(2, 5) minus the Hilbert function
        assert 0 <= hilbert_function(gens, 5) <= n_monomials(2, 5)


def test_matrix_budget(monkeypatch):
    f = gf(2)
    gens = [MultiPoly.variable(f, 3, 0)]
    monkeypatch.setattr(hilbert, "MAX_MATRIX_ENTRIES", 100)
    with pytest.raises(BudgetError, match=r"degree-30 piece needs a 4960x5456 matrix"):
        hilbert_function(gens, 30)


def test_mixed_rings_rejected():
    with pytest.raises(ParameterError):
        hilbert_function([MultiPoly.variable(gf(2), 2, 0), MultiPoly.variable(gf(3), 2, 0)], 2)
    with pytest.raises(ParameterError):
        hilbert_function([], 2)


def test_dimension_over_every_supported_field():
    # a hyperplane has dimension r - 1 regardless of the field tables
    for field in ALL_FIELDS:
        assert projective_dim_hilbert([MultiPoly.variable(field, 2, 1)]) == 1


def test_complete_intersection_dimension_is_generic():
    # random tuples with k <= r usually have the expected dimension r - k;
    # failures happen with probability O(1/q), so demand a clear majority
    field = gf(7)
    rng = np.random.default_rng(123)
    good = 0
    total = 60
    for _ in range(total):
        gens = [MultiPoly.random(field, 3, 1, rng), MultiPoly.random(field, 3, 2, rng)]
        if projective_dim_hilbert(gens) == 1:
            good += 1
    assert good >= total * 0.8


def singular_generators(F):
    return [F] + [F.partial(i) for i in range(F.r + 1)]


@st.composite
def section_cases(draw, field, r):
    """Generators, s and a plane seed.  Planted positives: a common linear
    factor, and F in (X_0, X_1)^2 with its partials (singular along
    X_0 = X_1 = 0).  Edge cases: fewer than r - s + 1 live forms, all-zero
    forms.  The Hilbert reference costs up to seconds per sample at r = 3
    over GF(3) and GF(4), so the inputs there have at most one quadric and
    no cubics."""
    cheap = r == 2 or field.q == 2
    s = draw(st.sampled_from([0, 1, 2]))
    kinds = ["random", "common_factor", "few_live", "zero"]
    kind = draw(st.sampled_from(kinds + ["singular", "planted_singular"] if cheap else kinds))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def form(d):
        return MultiPoly.random(field, r, d, rng)

    # at least r - s + 1 forms where the cost allows, so the section is taken
    if kind == "random":
        degrees = [draw(st.integers(1, 2)) for _ in range(draw(st.integers(r - s + 1, r + 2)))]
        if not cheap:
            degrees = sorted(degrees, reverse=True)[:1] + [1] * (len(degrees) - 1)
        gens = [form(d) for d in degrees]
    elif kind == "common_factor":
        most = 3 if cheap else 2
        line = form(1)
        gens = [line * form(1) for _ in range(draw(st.integers(min(r - s + 1, most), most)))]
    elif kind == "singular":
        gens = singular_generators(form(3))
    elif kind == "planted_singular":
        x0, x1 = MultiPoly.variable(field, r, 0), MultiPoly.variable(field, r, 1)
        F = x0 * x0 * form(1) + x0 * x1 * form(1) + x1 * x1 * form(1)
        gens = singular_generators(F)
    elif kind == "few_live":
        live = [form(2) for _ in range(draw(st.integers(0, r - s)))]
        gens = live + [MultiPoly.zero(field, r, 2)] * draw(st.integers(1, 3))
    else:
        gens = [MultiPoly.zero(field, r, d) for d in (1, 2)]
    return gens, s, draw(st.integers(0, 2**32 - 1))


@pytest.mark.parametrize("spec, r, examples", [
    ((2, 1), 2, 40), ((3, 1), 2, 40), ((2, 2), 2, 40),
    ((2, 1), 3, 30), ((3, 1), 3, 25), ((2, 2), 3, 15),
])
def test_section_test_matches_hilbert_dimension(spec, r, examples):
    field = gf(*spec)

    @settings(max_examples=examples, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(section_cases(field, r))
    def check(case):
        gens, s, seed = case
        assert dim_at_least(gens, s, seed=seed) == (projective_dim_hilbert(gens) >= s)

    check()


def test_section_test_certified_cases():
    f = gf(3)
    x = [MultiPoly.variable(f, 3, i) for i in range(4)]
    zero = MultiPoly.zero(f, 3, 2)
    # two live forms cut out at least a line in P^3, whatever they are
    assert dim_at_least([x[0] * x[1], zero, x[2] * x[2], zero], 1)
    assert not dim_at_least([x[0] * x[1], x[2] * x[2]], 2)
    # all-zero forms cut out P^r itself
    assert dim_at_least([zero, zero], 3)
    assert not dim_at_least([zero, zero], 4)
    assert dim_at_least([], 3, field=f, r=3)
    # s = 0 asks whether the locus is nonempty in P^r
    assert not dim_at_least(x, 0)
    assert dim_at_least(x[:3], 0)
    assert dim_at_least([x[0] + x[1], x[1] + x[2], x[2] + x[3], x[3] + x[0]], 0)
    with pytest.raises(ParameterError):
        dim_at_least(x, -1)


@pytest.mark.parametrize("spec", [(2, 1), (3, 1), (2, 2)])
def test_section_test_sees_planted_loci_in_space(spec):
    # loci of known dimension in P^3, so no Hilbert reference is needed
    f = gf(*spec)
    x = [MultiPoly.variable(f, 3, i) for i in range(4)]
    minus_one = int(f.NEG[f.one])

    def minor(a, b, c, d):
        return a * b + (c * d).scale(minus_one)

    # twisted cubic: 2x2 minors of [[X0, X1, X2], [X1, X2, X3]], a curve
    cubic = [minor(x[0], x[2], x[1], x[1]), minor(x[0], x[3], x[1], x[2]),
             minor(x[1], x[3], x[2], x[2])]
    rng = np.random.default_rng(spec)
    line = MultiPoly.random(f, 3, 1, rng)
    while line.is_zero:
        line = MultiPoly.random(f, 3, 1, rng)
    # three forms through one plane
    factor = [line * MultiPoly.random(f, 3, 1, rng) for _ in range(3)]
    # a cubic in (X0, X1)^2 is singular along X0 = X1 = 0
    F = sum((m * MultiPoly.random(f, 3, 1, rng)
             for m in (x[0] * x[0], x[0] * x[1], x[1] * x[1])),
            MultiPoly.zero(f, 3, 3))
    for seed in range(3):
        assert dim_at_least(cubic, 1, seed=seed)
        assert not dim_at_least(cubic, 2, seed=seed)
        assert dim_at_least(factor, 2, seed=seed)
        assert dim_at_least(singular_generators(F), 1, seed=seed)


@pytest.mark.parametrize("spec, size", [
    ((2, 1), 64), ((2, 2), 64), ((2, 3), 64), ((3, 1), 81), ((3, 2), 81),
    ((5, 1), 125), ((7, 1), 343),
])
def test_section_field_is_smallest_proper_extension_with_64_elements(spec, size):
    base = gf(*spec)
    ext, emb = section_field(base)
    assert ext.q == size and ext.p == base.p
    # the embedding is a ring homomorphism
    codes = np.arange(base.q)
    assert np.array_equal(emb[base.MUL[codes[:, None], codes[None, :]]],
                          ext.MUL[emb[codes][:, None], emb[codes][None, :]])
    assert np.array_equal(emb[base.ADD[codes[:, None], codes[None, :]]],
                          ext.ADD[emb[codes][:, None], emb[codes][None, :]])


def loop_built_matrix(gens, t, field, r):
    """The degree-t Macaulay matrix built one entry at a time: the rows are
    m * g over the live generators g of degree <= t, generator by generator,
    and the degree-(t - deg g) monomials m in graded-lex order."""
    index = monomial_index(r, t)
    rows = []
    for g in gens:
        if g.is_zero or g.d > t:
            continue
        for m in monomials(r, t - g.d):
            row = np.zeros(n_monomials(r, t), dtype=np.uint16)
            for exp, code in g.support():
                row[index[tuple(a + b for a, b in zip(m, exp))]] = code
            rows.append(row)
    return np.array(rows, dtype=np.uint16).reshape(len(rows), n_monomials(r, t))


@pytest.mark.parametrize("spec", [(2, 1), (3, 1), (2, 2), (7, 1)])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_scatter_built_piece_matches_loop_build(spec, r):
    field = gf(*spec)
    rng = np.random.default_rng([spec[0], spec[1], r])
    for t in (0, 1, 2, 3, 5):
        for degrees in ((1,), (2, 1), (3, 2, 2), (1, 4)):
            gens = [MultiPoly.random(field, r, d, rng) for d in degrees]
            gens.append(MultiPoly.zero(field, r, 1))
            # the live generators, as the experiments and hilbert_function
            # pass them
            live = [g for g in gens if not g.is_zero]
            matrix = macaulay_stack(1, r, t, [g.d for g in live],
                                    [g.coeffs[None] for g in live])[0]
            expected = loop_built_matrix(gens, t, field, r)
            assert matrix.dtype == np.uint16
            assert np.array_equal(matrix, expected)


def window_dim(gens, field, r):
    """The Hilbert-window dimension computed one h value at a time."""
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return r
    t0 = sum(g.d - 1 for g in gens) + 1
    window = r + 2
    values, estimates = [], []
    for step in range(48):
        values.append(hilbert_function(gens, t0 + step))
        if len(values) < window:
            continue
        cur, level = values[-window:], 0
        while any(cur) and len(cur) >= 2:
            cur, level = [b - a for a, b in zip(cur, cur[1:])], level + 1
        est = level - 1 if not any(cur) and level - 1 <= r else None
        estimates.append(est)
        tail = estimates[-window:]
        if len(tail) == window and tail[0] is not None and tail.count(tail[0]) == window:
            return tail[0]
    raise AssertionError("window did not stabilize")


def as_block(samples):
    """Samples of forms of the same degrees as a block, one sample per row."""
    return np.array([np.concatenate([g.coeffs for g in gens]) for gens in samples],
                    dtype=np.uint16)


@st.composite
def sample_blocks(draw, field, r):
    """Several samples from ``section_cases`` with one s and one plane seed,
    as the rows of one block.  Samples whose forms have the same degrees
    share their columns and the other columns of a row are zero forms; in
    some samples one more form, at a drawn position, is zero.  So live
    patterns mix within a block.  Returns (degrees, block, the rows as
    lists of forms, s, seed)."""
    cases = draw(st.lists(section_cases(field, r), min_size=1, max_size=6))
    slots: dict[tuple[int, ...], int] = {}
    degrees: list[int] = []
    for gens, _, _ in cases:
        key = tuple(g.d for g in gens)
        if key not in slots:
            slots[key] = len(degrees)
            degrees.extend(key)
    samples = []
    for gens, _, _ in cases:
        forms = [MultiPoly.zero(field, r, d) for d in degrees]
        lo = slots[tuple(g.d for g in gens)]
        forms[lo:lo + len(gens)] = gens
        if draw(st.booleans()):
            pos = lo + draw(st.integers(0, len(gens) - 1))
            forms[pos] = MultiPoly.zero(field, r, degrees[pos])
        samples.append(forms)
    return degrees, as_block(samples), samples, cases[0][1], cases[0][2]


@pytest.mark.parametrize("spec, r, examples", [
    ((2, 1), 2, 25), ((3, 1), 2, 25), ((2, 2), 2, 25),
    ((2, 1), 3, 15), ((3, 1), 3, 10), ((2, 2), 3, 6),
])
def test_batched_tests_match_per_sample_results(spec, r, examples):
    field = gf(*spec)

    @settings(max_examples=examples, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(sample_blocks(field, r))
    def check(case):
        degrees, block, samples, s, seed = case
        dims = batch_projective_dim_hilbert(field, r, degrees, block)
        assert dims == [projective_dim_hilbert(g, field, r) for g in samples]
        assert dims == [window_dim(g, field, r) for g in samples]
        hits = batch_dim_at_least(field, r, degrees, block, s, seed)
        assert hits.tolist() == [dim_at_least(g, s, field, r, seed) for g in samples]

    check()


def test_batched_windows_split_into_small_stacks(monkeypatch):
    # 2 x 45 .. 72 x 55 matrices: a 4000-entry budget ranks one per stack
    field = gf(3)
    rng = np.random.default_rng(8)
    samples = [[MultiPoly.random(field, 2, 1, rng) for _ in range(2)] for _ in range(12)]
    block = as_block(samples)
    with monkeypatch.context() as patch:
        patch.setattr(hilbert, "MAX_MATRIX_ENTRIES", 4000)
        small = batch_projective_dim_hilbert(field, 2, [1, 1], block)
    assert small == batch_projective_dim_hilbert(field, 2, [1, 1], block) == [
        window_dim(g, field, 2) for g in samples]
    # under the 4M-entry budget a full chunk of singular sections, 4096
    # stacked 24 x 15 matrices, is ranked in stacks of at most 2^20 entries
    sizes = []
    rank = hilbert.batch_rank
    monkeypatch.setattr(hilbert, "batch_rank", lambda f, m: sizes.append(m.size) or rank(f, m))
    assert singular_experiment(3, 3, gf(2), trials=4096, seed=5).hits == 174
    assert max(sizes) <= hilbert.STACK_ENTRIES == 2**20 < sum(sizes)


def test_batched_reference_gives_none_over_budget():
    # three linear forms in P^4 need a 3003 x 1365 piece at t = 11; one
    # linear form stays within the budget
    f = gf(2)
    x = [MultiPoly.variable(f, 4, i) for i in range(5)]
    zero = MultiPoly.zero(f, 4, 1)
    block = as_block([x[:3], [x[0], zero, zero], x[1:4]])
    assert batch_projective_dim_hilbert(f, 4, [1, 1, 1], block) == [None, 3, None]
    assert batch_projective_dim_hilbert(f, 4, [1, 1, 1], block[:0]) == []
    with pytest.raises(BudgetError, match=r"degree-11 piece needs a 3003x1365 matrix"):
        projective_dim_hilbert(x[:3])


def test_budget_error_names_the_sample(monkeypatch):
    f = gf(2)
    line, conic = MultiPoly.variable(f, 2, 0), MultiPoly.variable(f, 2, 1).square()
    monkeypatch.setattr(hilbert, "MAX_WINDOW_STEPS", 3)
    block = as_block([[conic, MultiPoly.zero(f, 2, 1)], [MultiPoly.zero(f, 2, 2), line]])
    assert batch_projective_dim_hilbert(f, 2, [2, 1], block) == [None, None]
    with pytest.raises(BudgetError, match=r"within 3 steps \(generators of degrees \[2\]\)"):
        projective_dim_hilbert([conic])
    with pytest.raises(BudgetError, match=r"degrees \[1\]"):
        projective_dim_hilbert([line])
    assert batch_dim_at_least(f, 2, [2, 1], block[:0], 1).tolist() == []


@pytest.mark.parametrize("r, degrees, message", [
    # a singular octic in P^8 and its partials: the degree-7 map is 6435 x 3432
    (8, [8] + [7] * 9, r"degree-7 restriction map needs a 6435x3432 matrix"),
    # maps within the budget, but the degree-33 piece on P^7 has 18643560 columns
    (8, [5] * 8, r"degree-33 piece needs a 1x18643560 matrix"),
])
def test_section_budget_is_checked_before_any_map_is_built(monkeypatch, r, degrees, message):
    def no_map(*args):
        raise AssertionError("a restriction map was built")

    monkeypatch.setattr(hilbert, "substitute", no_map)
    block = np.ones((2, sum(binomial(r + d, r) for d in degrees)), dtype=np.uint16)
    with pytest.raises(BudgetError, match=message):
        batch_dim_at_least(gf(2), r, degrees, block, 1)


def test_blocks_of_the_wrong_shape_or_codes_are_rejected():
    f = gf(2)
    good = np.zeros((2, 9), dtype=np.uint16)  # a conic and a line on P^2 per row
    assert batch_dim_at_least(f, 2, [2, 1], good, 1).tolist() == [True, True]
    assert batch_projective_dim_hilbert(f, 2, [2, 1], good) == [2, 2]
    # a GF(3) code in a GF(2) block, a negative code, a wrong width, one row
    # without its block axis
    for block in (good + 2 * np.eye(2, 9, dtype=np.uint16), good.astype(np.int64) - 1,
                  good[:, :8], good[0]):
        with pytest.raises(ParameterError):
            batch_dim_at_least(f, 2, [2, 1], block, 1)
        with pytest.raises(ParameterError):
            batch_projective_dim_hilbert(f, 2, [2, 1], block)
    with pytest.raises(ParameterError, match=r"need an \(n, 9\) block"):
        batch_dim_at_least(f, 2, [2, 1], good[:, :8], 5)


@pytest.mark.parametrize("field, r", [(gf(2), 5), (gf(2), None), (None, 5), (gf(3), 3)],
                         ids=["both", "field", "r", "r-only-wrong"])
def test_given_ring_must_be_the_forms_ring(field, r):
    x0 = MultiPoly.variable(gf(3), 2, 0)
    for call in (lambda: dim_at_least([x0], 1, field=field, r=r),
                 lambda: projective_dim_hilbert([x0], field=field, r=r),
                 lambda: projective_dim_points([x0], field=field, r=r)):
        with pytest.raises(ParameterError, match="the generators live over GF"):
            call()
    # the forms' own ring, given or not, is accepted
    assert dim_at_least([x0], 1, field=gf(3), r=2) and dim_at_least([x0], 1)
    assert projective_dim_hilbert([x0], field=gf(3), r=2) == 1
