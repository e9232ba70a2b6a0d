"""Acceptance suite: each test pins one headline guarantee at its stated
tolerance and prints a PASS line (run with -s to see them)."""

import time

import numpy as np

from excodim.combinatorics import binomial, h_min
from excodim.errors import BudgetError
from excodim.applications import char2_threshold_report, lines_verdict, prop2r1_report
from excodim.strata import (
    UNIQUE_MAX_LINEAR,
    analyze_spans,
    brute_force_f,
    cone_sequences,
    f_lower,
    h_gap,
    kcl_cone_min,
    slope_gap,
    span_stratum_exact,
    worked_example,
)
from excodim.fforacle.experiments import (
    DEFAULT_SEED,
    excess_experiment,
    poonen_combine,
    singular_experiment,
)
from excodim.fforacle.fields import _all_coeff_rows, gf
from excodim.fforacle.hilbert import projective_dim_hilbert, restriction_map
from excodim.fforacle.linalg import matrix_rank
from excodim.fforacle.points import projective_dim_points
from excodim.fforacle.polynomials import MultiPoly


def _report(num: int, text: str):
    print(f"PASS criterion {num}: {text}", flush=True)


def test_criterion_1_worked_example():
    start = time.perf_counter()
    w = worked_example()
    by_b = {stage.b: stage for stage in w.stages}
    assert w.line_codim == 16
    assert [v for _, v in by_b[4].candidates] == [25, 51, 55, 35]
    assert by_b[4].chain_min == 25
    assert [v for _, v in by_b[3].candidates] == [35, 44, 39, 61, 56, 55]
    assert by_b[3].chain_min == 35 and by_b[3].bound == 31
    assert by_b[2].bound == 27
    assert w.codim == 16
    assert w.second_largest_lower_bound == 25
    assert w.verdict == UNIQUE_MAX_LINEAR
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"worked example exact (codim 16, runner-up 25) in {elapsed:.3f}s")


def test_criterion_2_line_dominance_in_the_cone():
    start = time.perf_counter()
    total = 0
    per_pair = 10_000 // 28  # spread the sequence budget over every (r, d1)
    for r in range(2, 9):
        for d1 in range(2, 6):
            for ds in cone_sequences(d1, r, max_count=per_pair):
                rep = analyze_spans(r, 1, ds)
                assert int(rep.base_codim) == -2 * (r - 1) + sum(d + 1 for d in ds)
                assert rep.verdict == UNIQUE_MAX_LINEAR
                assert int(rep.gap) >= slope_gap(r, r, d1)
                total += 1
    elapsed = time.perf_counter() - start
    assert total <= 10_000
    assert elapsed < 10.0
    _report(2, f"line stratum dominates on {total} cone sequences in {elapsed:.2f}s")


def test_criterion_3_equal_degree_gap_closed_forms():
    checked = 0
    for r in range(2, 9):
        for d in range(2, 7):
            for k in range(r, r + 4):
                a = k - r + 1
                ds = (d,) * k
                assert int(h_gap(r, a, 2, ds)) == r - 1 + (d - 2) * (r - 2) + d * (k - r)
                assert int(h_gap(r, a, r, ds)) == d * (k - r) * (r - 1) + (r - 1)
                checked += 1
    _report(3, f"equal-degree gap closed forms exact on {checked} cases")


def test_criterion_4_consecutive_degree_tuples():
    for r in range(2, 13):
        rep = prop2r1_report(r)
        assert rep["max_codim"] == (r * r + r + 4) // 2
        assert rep["second_codim"] == binomial(r + 2, 2)
        assert rep["gap"] == r - 1
        assert rep["max_codim"] == span_stratum_exact(r, 1, tuple(range(2, r + 2)))
    _report(4, "degrees 2..r+1 max/second codimensions exact for r = 2..12")


def test_criterion_5_singular_threshold_sweep():
    for r in range(2, 9):
        for ell in range(3, 21):
            rep = char2_threshold_report(r, ell)
            if r == 2:
                assert rep.holds
            else:
                assert rep.holds == ((ell % 2 == 1 and ell >= 5) or (ell % 2 == 0 and ell >= 8))
    for r in range(3, 9):
        failing = dict(char2_threshold_report(r, 6).margins)["d*r - 3*r + 3"]
        assert failing == 3 - r and failing <= 0
    for ell in range(3, 21):
        everywhere = all(char2_threshold_report(r, ell).holds for r in range(2, 9))
        assert everywhere == (ell >= 7 or ell == 5)
    _report(5, "thresholds: odd >= 5, even >= 8, degree-6 margin 3-r, rule '>= 7 or = 5'")


def test_criterion_6_lines_verdict_table():
    for r in range(2, 10):
        for d in range(3, 12):
            verdict = lines_verdict(r, d)
            expected_two = (r, d) == (5, 4)
            assert (len(verdict.maximal_components) == 2) == expected_two
    assert lines_verdict(4, 3).maximal_components == {"EckardtPoint"}
    assert lines_verdict(5, 4).maximal_components == {"EckardtPoint", "ContainsPlane"}
    assert lines_verdict(6, 5).maximal_components == {"ContainsPlane"}
    _report(6, "verdict table unique except (r,d)=(5,4); switch at r=5 in the critical degree")


def test_criterion_7_excess_oracle_vs_calculus():
    start = time.perf_counter()
    res2 = excess_experiment(2, (1, 1), 1, gf(2), mode="exhaustive")
    res3 = excess_experiment(2, (1, 1), 1, gf(3), mode="exhaustive")
    assert res2.predicted_codim == res3.predicted_codim == 2
    err2 = abs(res2.est_codim - 2)
    err3 = abs(res3.est_codim - 2)
    assert err2 <= 0.8 and err3 <= 0.8
    assert err3 < err2
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(7, f"excess oracle within 0.8 of 2 (F2 err {err2:.2f}, F3 err {err3:.2f}) "
               f"in {elapsed:.2f}s")


def test_criterion_8_singular_oracle():
    start = time.perf_counter()
    try:
        res = singular_experiment(2, 5, gf(2), mode="exhaustive")
    except BudgetError:
        res = singular_experiment(2, 5, gf(2), mode="sampled", trials=1_000_000)
    assert res.predicted_codim == 9
    err = abs(res.est_codim - 9)
    assert err <= 1.5
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(8, f"singular oracle ({res.mode}, {res.hits}/{res.trials}) "
               f"err {err:.2f} <= 1.5 in {elapsed:.1f}s")


def test_criterion_9_restriction_exactness():
    for field in (gf(2), gf(3)):
        for r in range(1, 6):
            for d in range(1, 7):
                for b in range(0, r + 1):
                    rmap = restriction_map(field, r, b, DEFAULT_SEED, 0, d)
                    assert matrix_rank(field, rmap) == binomial(d + b, b)
    _report(9, "restriction ranks equal C(d+b, b) for r <= 5, d <= 6, b <= r over F2 and F3")


def test_criterion_10_invariant_suites():
    # difference identities for the condition-count bound
    for r in range(11):
        for a in range(r + 1):
            for d in range(2, 13):
                assert h_min(r, a, d) - h_min(r, a, d - 1) == \
                    (r - a) * binomial(d + a - 2, d - 1) + binomial(d + a - 1, d)
                if a < r:
                    assert h_min(r, a + 1, d) - h_min(r, a, d) == \
                        (r - a) * binomial(d + a - 1, a + 1)

    # dynamic program vs explicit enumeration on >= 1000 random instances
    rng = np.random.default_rng(1618)
    for _ in range(1000):
        k = int(rng.integers(1, 11))
        r = int(rng.integers(1, 7))
        a = int(rng.integers(max(0, k - r), k + 1))
        degrees = tuple(int(x) for x in rng.integers(1, 6, size=k))
        assert f_lower(r, a, degrees) == brute_force_f(r, a, degrees)

    # brute-force cone minimization lands on the constant sequence
    kcl_runs = 0
    for r in range(2, 7):
        for d in (2, 3, 4):
            for b in (2, r):
                try:
                    seq, value = kcl_cone_min(r, 1, b, d, r, 60_000)
                except BudgetError:
                    continue
                assert seq == (d,) * r
                assert value == int(h_gap(r, 1, b, (d,) * r))
                kcl_runs += 1
    assert kcl_runs >= 12

    # dual-detector agreement on 500 random generator sets
    rng = np.random.default_rng(90125)
    cases = [(2, 2, 1), (2, 3, 1), (2, 2, 2), (3, 2, 1)]
    conclusive = 0
    for n in range(500):
        r, p, e = cases[n % len(cases)]
        field = gf(p, e)
        k = int(rng.integers(1, r + 2))
        gens = [MultiPoly.random(field, r, int(rng.integers(1, 4)), rng) for _ in range(k)]
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            continue
        probe = projective_dim_points(gens, m_max=3 if field.q <= 3 or r == 2 else 2)
        if probe.conclusive:
            conclusive += 1
            assert projective_dim_hilbert(gens) >= 1
    assert conclusive >= 50

    # fudge-factor recombination is exactly uniform on the smallest case
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
    assert len(counts) == 16 and set(counts.values()) == {16}

    _report(10, f"identity, enumeration, cone ({kcl_runs} runs), detector "
                f"({conclusive} conclusive), and uniformity suites all clean")
