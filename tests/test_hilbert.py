import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from excodim.combinatorics import binomial
from excodim.errors import BudgetError, ParameterError
from excodim.fforacle import hilbert
from excodim.fforacle.experiments import _linear_dims, singular_experiment
from excodim.fforacle.fields import gf
from excodim.fforacle.hilbert import (
    batch_dim_at_least,
    batch_projective_dim_hilbert,
    dim_at_least,
    hilbert_function,
    projective_dim_hilbert,
    section_field,
)
from excodim.fforacle.linalg import matrix_rank
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
        hits = batch_dim_at_least(field, r, degrees, block, s, seed) & 1
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
    # three quadrics in P^4 cut a curve of degree 8 whose window neither
    # persists nor goes flat before its 3003 x 1820 piece at t = 12; two
    # coprime quadrics stop at their first piece, on a surface, and one live
    # quadric persists from its second value
    f = gf(2)
    x = [MultiPoly.variable(f, 4, i) for i in range(5)]
    zero = MultiPoly.zero(f, 4, 2)
    curve = [x[0] * x[1], x[2] * x[3], x[4] * x[4]]
    block = as_block([curve, [x[0] * x[1], x[2] * x[3], zero], [x[0] * x[1], zero, zero],
                      [x[0] * x[0], x[1] * x[1], zero]])
    assert batch_projective_dim_hilbert(f, 4, [2, 2, 2], block) == [None, 2, 3, 2]
    assert batch_projective_dim_hilbert(f, 4, [2, 2, 2], block[:0]) == []
    with pytest.raises(BudgetError, match=r"degree-12 piece needs a 3003x1820 matrix"):
        projective_dim_hilbert(curve)
    # three linear forms in P^4 cut a line, fixed by h(1) = 2, h(2) = 3: no
    # piece past t = 2 is built
    assert projective_dim_hilbert(x[:3]) == 1


def test_budget_error_names_the_sample(monkeypatch):
    # one step holds one h value: no window persists or settles in it
    f = gf(2)
    line, conic = MultiPoly.variable(f, 2, 0), MultiPoly.variable(f, 2, 1).square()
    monkeypatch.setattr(hilbert, "MAX_WINDOW_STEPS", 1)
    block = as_block([[conic, MultiPoly.zero(f, 2, 1)], [MultiPoly.zero(f, 2, 2), line]])
    assert batch_projective_dim_hilbert(f, 2, [2, 1], block) == [None, None]
    with pytest.raises(BudgetError, match=r"within 1 steps \(generators of degrees \[2\]\)"):
        projective_dim_hilbert([conic])
    with pytest.raises(BudgetError, match=r"degrees \[1\]"):
        projective_dim_hilbert([line])
    assert batch_dim_at_least(f, 2, [2, 1], block[:0], 1).tolist() == []


def test_persistence_decides_within_three_steps(monkeypatch):
    # a double line and a line persist at their second value, where a
    # finite-difference window of 2r + 3 values would need 7
    f = gf(2)
    line, conic = MultiPoly.variable(f, 2, 0), MultiPoly.variable(f, 2, 1).square()
    monkeypatch.setattr(hilbert, "MAX_WINDOW_STEPS", 3)
    block = as_block([[conic, MultiPoly.zero(f, 2, 1)], [MultiPoly.zero(f, 2, 2), line]])
    assert batch_projective_dim_hilbert(f, 2, [2, 1], block) == [1, 1]
    assert projective_dim_hilbert([conic]) == projective_dim_hilbert([line]) == 1


@pytest.mark.parametrize("h, h_next, t, dim", [
    (4, 5, 3, 1),  # 4 = C(4, 3), and 4^<3> = C(5, 4) = 5
    (4, 4, 3, None),
    (4, 4, 4, 0),  # 4 = C(4, 4) + C(3, 3) + C(2, 2) + C(1, 1)
    (5, 7, 2, 1),  # 5 = C(3, 2) + C(2, 1), and 5^<2> = C(4, 3) + C(3, 2) = 7
    (5, 6, 2, None),
    (1, 1, 6, 0),  # one point
    (3, 6, 1, 2),  # all of P^2
    (0, 0, 3, -1),
    (0, 9, 3, -1),  # h = 0 stays 0 whatever the generators
])
def test_persistent_dim_reads_the_macaulay_representation(h, h_next, t, dim):
    assert hilbert._persistent_dim(h, h_next, t) == dim


@pytest.mark.parametrize("spec", [(2, 1), (3, 1)])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_linear_windows_match_the_point_count(spec, r):
    # a linear space of dimension delta has h(t) = C(t + delta, delta), so
    # its window persists at its second value; the point count is exact
    field = gf(*spec)
    rng = np.random.default_rng([field.q, r])
    for k in range(1, r + 2):
        # sparse draws give dependent forms, and zero forms
        block = rng.integers(0, field.q, size=(40, k * (r + 1)), dtype=np.uint16)
        block[rng.random(block.shape) < 0.5] = 0
        dims = batch_projective_dim_hilbert(field, r, [1] * k, block)
        assert dims == _linear_dims(field, r, block)


@pytest.mark.parametrize("spec, r, degrees", [
    ((2, 1), 2, (2, 2)), ((3, 1), 2, (2, 3)), ((2, 2), 2, (1, 2, 2)),
    ((2, 1), 3, (2, 2, 2)), ((3, 1), 3, (1, 2, 2)), ((2, 1), 3, (2, 3)),
    # two cubics on P^3 persist only at t = 27, the Gotzmann number of
    # 9t - 9, past the degree-20 piece the budget refuses: on the dense rows
    # they stop at their first piece, as a coprime pair
    ((2, 1), 3, (3, 3)),
])
def test_persistence_agrees_with_the_heuristic_window(spec, r, degrees):
    # every dimension the exact stops fix is the one the finite-difference
    # window of the reference reaches; sparse rows give lines, planes and
    # empty loci
    field = gf(*spec)
    rng = np.random.default_rng([field.q, r, *degrees])
    block = rng.integers(0, field.q, size=(30, sum(n_monomials(r, d) for d in degrees)),
                         dtype=np.uint16)
    block[:15][rng.random((15, block.shape[1])) < 0.6] = 0
    dims = batch_projective_dim_hilbert(field, r, degrees, block)
    assert None not in dims and len(set(dims)) > 1
    ends = np.cumsum([n_monomials(r, d) for d in degrees])[:-1]
    samples = [[MultiPoly(field, r, d, c) for d, c in zip(degrees, np.split(row, ends))]
               for row in block]
    assert [window_dim(g, field, r) for g in samples] == dims


def cube(x):
    return x * x * x


@pytest.mark.parametrize("r, forms, dim, ranked", [
    # the common factor x0 gives the syzygy x2 * x0x1 = x1 * x0x2 in degree
    # t0 = 3, so the pair goes on to persistence, at its second value
    (3, lambda x: [x[0] * x[1], x[0] * x[2]], 2, [3, 4]),
    # coprime pairs stop at t0 with dimension r - 2
    (3, lambda x: [cube(x[0]), cube(x[1])], 1, [5]),
    (4, lambda x: [x[0] * x[1], x[2] * x[3]], 2, [3]),
    # a constant and a linear form have independent rows at t0 = 0 too, but
    # an empty locus
    (2, lambda x: [MultiPoly(x[0].field, 2, 0, [1]), x[0]], -1, [0, 1]),
    # 27 points: h(7) = h(8) = 27 persists at the earliest on the degree-28
    # piece, over the budget, so no piece past t = 8 is ranked
    (3, lambda x: [cube(x[0]), cube(x[1]), cube(x[2])], None, [7, 8]),
], ids=["common-factor", "coprime-cubics", "coprime-quadrics", "constant", "flat"])
def test_window_stops_on_an_exact_rule_or_is_refused(monkeypatch, r, forms, dim, ranked):
    f = gf(2)
    gens = forms([MultiPoly.variable(f, r, i) for i in range(r + 1)])
    seen: list[int] = []
    piece_ranks = hilbert._piece_ranks
    monkeypatch.setattr(hilbert, "_piece_ranks",
                        lambda *args: seen.append(args[2]) or piece_ranks(*args))
    block = as_block([gens])
    assert batch_projective_dim_hilbert(f, r, [g.d for g in gens], block) == [dim]
    assert seen == ranked
    if dim is None:
        with pytest.raises(BudgetError, match=r"degree-28 piece needs a 9828x4495 matrix"):
            projective_dim_hilbert(gens)
    else:
        assert projective_dim_hilbert(gens) == dim


@pytest.mark.parametrize("r, degrees, message", [
    # a singular octic in P^8 and its partials: the degree-7 map is 6435 x 3432
    (8, [8] + [7] * 9, r"degree-7 restriction map needs a 6435x3432 matrix"),
    # maps within the budget, but the degree-33 piece of eight quintics on P^7
    # holds 8 * C(35, 7) rows of C(40, 7) columns
    (8, [5] * 8, r"degree-33 piece needs a 53796160x18643560 matrix"),
    # a point section of a line: the map is 2101 x 1, but substitute stacks
    # one scatter_index(1, 1, t) table of t x 2 per t <= 2100
    (1, [2100], r"degree-2100 substitution table stack needs a 2206049x2 matrix"),
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
    assert batch_dim_at_least(f, 2, [2, 1], good, 1).tolist() == [hilbert.IN_COUNT] * 2
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
    # a form of degree -1 has no coefficients, and no window
    with pytest.raises(ParameterError, match=r"need degrees >= 0, got \[-1\]"):
        batch_projective_dim_hilbert(gf(3), 2, [-1], np.zeros((1, 0)))


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


@pytest.mark.parametrize("spec", [(2, 1), (3, 1), (2, 2)])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_linear_blocks_are_ranked_exactly(monkeypatch, spec, r):
    # k linear forms cut out a linear space of dimension r - rank: every
    # decision is exact, and no section plane is restricted to
    def no_map(*args):
        raise AssertionError("a restriction map was built")

    monkeypatch.setattr(hilbert, "restriction_map", no_map)
    field = gf(*spec)
    rng = np.random.default_rng([field.q, r])
    for k in range(1, r + 3):
        block = rng.integers(0, field.q, size=(60, k, r + 1), dtype=np.uint16)
        block[rng.random((60, k)) < 0.3] = 0  # zero forms in most rows
        ranks = [matrix_rank(field, row) for row in block]
        for s in range(r + 2):
            decided = batch_dim_at_least(field, r, [1] * k, block.reshape(60, -1), s, seed=7)
            assert decided.tolist() == [
                hilbert.OUT_COUNT if s > r else hilbert.IN_RANK if r - rank >= s
                else hilbert.OUT_RANK for rank in ranks]


@pytest.mark.parametrize("spec, degrees", [((2, 1), (2, 2, 2)), ((3, 1), (2, 2, 3))])
def test_s0_builds_only_the_first_plane(monkeypatch, spec, degrees):
    # at s = 0 the plane is all of P^r, so its one section decides each row
    planes = set()
    real_map = hilbert.restriction_map

    def recording_map(field, r, b, seed, k, d):
        planes.add(k)
        return real_map(field, r, b, seed, k, d)

    monkeypatch.setattr(hilbert, "restriction_map", recording_map)
    field, r = gf(*spec), 2
    rng = np.random.default_rng(list(degrees))
    block = rng.integers(0, field.q, size=(200, sum(n_monomials(r, d) for d in degrees)),
                         dtype=np.uint16)
    decided = batch_dim_at_least(field, r, degrees, block, 0, seed=3) & 1
    assert planes == {0}
    reference = batch_projective_dim_hilbert(field, r, degrees, block)
    assert decided.tolist() == [dim >= 0 for dim in reference]
    assert 0 < decided.sum() < len(block)  # a mixed block


def test_forms_of_degree_0_are_refused():
    # a nonzero constant cuts out nothing, but the dimension theorem's
    # "fewer than b + 1 live forms" would certify it in
    one = MultiPoly(gf(2), 2, 0, [1])
    assert projective_dim_hilbert([one]) == -1
    with pytest.raises(ParameterError, match="need degrees >= 1"):
        dim_at_least([one], 0)
    with pytest.raises(ParameterError, match="need degrees >= 1"):
        batch_dim_at_least(gf(3), 2, [1, 0], np.zeros((4, 4), dtype=np.uint16), 1)


def test_outcome_codes_name_their_certificate():
    # code = 2 * certificate + decision, set where the decision is known
    f, r = gf(2), 2
    x = [MultiPoly.variable(f, r, i) for i in range(3)]
    zero = MultiPoly.zero(f, r, 2)
    codes = (hilbert.OUT_RANK, hilbert.IN_RANK, hilbert.OUT_COUNT, hilbert.IN_COUNT,
             hilbert.OUT_SECTION, hilbert.IN_SECTION, hilbert.PROBABLE, hilbert.OUT_SET,
             hilbert.IN_SET)
    assert [(hilbert.CERTIFICATES[code >> 1], code & 1) for code in codes] == [
        ("rank", 0), ("rank", 1), ("count", 0), ("count", 1), ("section", 0), ("section", 1),
        ("probable", 1), ("set", 0), ("set", 1)]
    # linear: a repeated line cuts out a line, two lines a point
    linear = as_block([[x[0], x[0]], [x[0], x[1]]])
    assert batch_dim_at_least(f, r, [1, 1], linear, 1).tolist() == [
        hilbert.IN_RANK, hilbert.OUT_RANK]
    # s > r is out by count, for linear and other forms alike
    assert batch_dim_at_least(f, r, [1, 1], linear, 3).tolist() == [hilbert.OUT_COUNT] * 2
    conics = as_block([[x[0] * x[0], zero], [x[0] * x[0], x[1] * x[1]],
                       [x[0] * x[0], x[0] * x[1]]])
    assert batch_dim_at_least(f, r, [2, 2], conics, 3).tolist() == [hilbert.OUT_COUNT] * 3
    # s = 1 on P^2: one live conic is in by count; two conics meeting in a
    # point have an empty line section; two sharing the line X_0 = 0 are
    # probably in
    assert batch_dim_at_least(f, r, [2, 2], conics, 1).tolist() == [
        hilbert.IN_COUNT, hilbert.OUT_SECTION, hilbert.PROBABLE]
    # s = 0: the one section decides, both ways
    triples = as_block([[x[0] * x[0], x[0] * x[1], x[1] * x[1]],
                        [x[0] * x[0], x[1] * x[1], x[2] * x[2]]])
    assert batch_dim_at_least(f, r, [2, 2, 2], triples, 0).tolist() == [
        hilbert.IN_SECTION, hilbert.OUT_SECTION]
    for block, degrees, s in ((linear, [1, 1], 1), (conics, [2, 2], 1), (triples, [2, 2, 2], 0)):
        decided = batch_dim_at_least(f, r, degrees, block, s)
        assert decided.dtype == np.uint8
        assert (decided & 1).tolist() == [
            dim >= s for dim in batch_projective_dim_hilbert(f, r, degrees, block)]
