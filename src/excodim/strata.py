"""Span-stratification calculus for tuples of hypersurfaces with
positive-dimensional excess intersection.

A problem instance is (r, a, d_1 <= ... <= d_k): tuples of hypersurfaces of
degrees d_i in projective r-space whose common vanishing locus has dimension
at least r - k + a.  The locus is stratified by the span dimension b of the
witness subvariety; each stratum gets a codimension lower bound, exact at the
base stratum b = r - k + a (linear spans).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, permutations

from .combinatorics import INF, ExtInt, as_extint, binomial, ext_min, h_min
from .errors import BudgetError, InvariantError, ParameterError

UNIQUE_MAX_LINEAR = "UniqueMaxLinear"
INCONCLUSIVE = "Inconclusive"


def grassmannian_dim(b: int, r: int) -> int:
    """Dimension of the parameter space of b-planes in projective r-space."""
    if not 0 <= b <= r:
        raise ParameterError(f"need 0 <= b <= r, got b={b}, r={r}")
    return (b + 1) * (r - b)


@dataclass(frozen=True)
class ProblemSpec:
    """Ambient dimension r, excess a, and the (sorted) degree sequence."""

    r: int
    a: int
    degrees: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(sorted(self.degrees)))
        if self.r < 1:
            raise ParameterError(f"need r >= 1, got {self.r}")
        if self.a < 0:
            raise ParameterError(f"need a >= 0, got {self.a}")
        if len(self.degrees) < 1:
            raise ParameterError("need at least one degree")
        if any(d < 1 for d in self.degrees):
            raise ParameterError(f"degrees must be >= 1, got {self.degrees}")

    @property
    def k(self) -> int:
        return len(self.degrees)

    @property
    def base_span(self) -> int:
        return self.r - self.k + self.a


@dataclass(frozen=True)
class StratumBound:
    """Codimension bound for the stratum of witnesses spanning a b-plane."""

    b: int
    value: ExtInt
    exact: bool
    argmin_indices: tuple[int, ...]


@dataclass(frozen=True)
class AnalysisReport:
    """All stratum bounds plus the dominant-stratum verdict."""

    spec: ProblemSpec
    strata: tuple[StratumBound, ...]
    base_codim: ExtInt
    runner_up: ExtInt
    gap: ExtInt | None
    verdict: str


def _weight(r: int, i: int, c: int, degree: int) -> int:
    # condition count for the c-th chosen form being the i-th of the tuple
    return h_min(r, r - i + c, degree)


def f_lower(r: int, a: int, degrees) -> tuple[ExtInt, tuple[int, ...]]:
    """Minimal total condition count over increasing index choices.

    Minimizes sum_j h_min(r, r - i_j + j, d_{i_j}) over 1 <= i_1 < ... < i_a <= k
    by dynamic programming on (position, count).  Returns the minimum and the
    lexicographically smallest minimizing index sequence; +infinity when a > k
    (no index choice exists, the locus is empty).
    """
    degrees = tuple(degrees)
    k = len(degrees)
    if a < 0:
        raise ParameterError(f"need a >= 0, got {a}")
    if a == 0:
        return ExtInt(0), ()
    if a > k:
        return INF, ()
    if r - k + a < 0:
        raise ParameterError(
            f"need r - k + a >= 0 for the condition counts to be defined, "
            f"got r={r}, k={k}, a={a}"
        )

    # suffix[c] = best cost choosing ranks c..a from positions pos..k
    suffix = [[None] * (a + 2) for _ in range(k + 2)]
    for pos in range(k + 2):
        suffix[pos][a + 1] = 0
    for pos in range(k, 0, -1):
        for c in range(a, 0, -1):
            best = suffix[pos + 1][c]
            # taking pos as the c-th choice needs pos >= c and room to finish
            if pos >= c and suffix[pos + 1][c + 1] is not None:
                take = _weight(r, pos, c, degrees[pos - 1]) + suffix[pos + 1][c + 1]
                if best is None or take < best:
                    best = take
            suffix[pos][c] = best

    total = suffix[1][1]
    if total is None:  # unreachable for a <= k, kept as a guard
        return INF, ()

    # reconstruct, preferring to take the earliest position on ties: this
    # yields the lexicographically smallest index sequence
    indices = []
    pos, c = 1, 1
    while c <= a:
        take = suffix[pos + 1][c + 1]
        if (
            pos >= c
            and take is not None
            and _weight(r, pos, c, degrees[pos - 1]) + take == suffix[pos][c]
        ):
            indices.append(pos)
            c += 1
        pos += 1
    return ExtInt(total), tuple(indices)


def f_candidates(r: int, a: int, degrees) -> tuple[tuple[tuple[int, ...], int], ...]:
    """All (index sequence, condition sum) candidates for f_lower.

    Enumerated in descending colexicographic order of the index sets, which is
    the order the one-form-at-a-time recursion produces them in.  Brute-force
    companion to the DP; also drives the narrative chains.
    """
    degrees = tuple(degrees)
    k = len(degrees)
    combos = sorted(
        combinations(range(1, k + 1), a),
        key=lambda t: tuple(reversed(t)),
        reverse=True,
    )
    out = []
    for idx in combos:
        total = sum(_weight(r, i, c, degrees[i - 1]) for c, i in enumerate(idx, start=1))
        out.append((idx, total))
    return tuple(out)


def g_lower(r: int, a: int, b: int, degrees) -> ExtInt:
    """Codimension lower bound for the span-b stratum.

    Restricting to a b-plane raises the excess to a + (r - b); sweeping the
    plane costs the dimension of the Grassmannian.  May be negative.
    """
    degrees = tuple(degrees)
    k = len(degrees)
    if not r - k + a <= b <= r:
        raise ParameterError(f"need r-k+a <= b <= r, got b={b}, r={r}, k={k}, a={a}")
    value, _ = f_lower(b, a + (r - b), degrees)
    return value - grassmannian_dim(b, r)


def span_stratum_exact(r: int, a: int, degrees) -> int:
    """Exact codimension of the base stratum (witnesses spanning a linear
    space of the minimal dimension r - k + a)."""
    spec = ProblemSpec(r, a, tuple(degrees))
    k, b0 = spec.k, spec.base_span
    if b0 < 0:
        raise ParameterError(f"need r - k + a >= 0, got {b0}")
    if a > k:
        raise ParameterError(f"empty locus for a > k (a={a}, k={k}); no finite codimension")
    return -(b0 + 1) * (k - a) + sum(binomial(d + b0, b0) for d in spec.degrees)


def h_gap(r: int, a: int, b: int, degrees) -> ExtInt:
    """Stratum bound minus the exact base codimension (the margin by which
    the span-b stratum loses to the linear stratum)."""
    return g_lower(r, a, b, degrees) - span_stratum_exact(r, a, degrees)


def analyze_spans(r: int, a: int, degrees) -> AnalysisReport:
    """Full stratum analysis: a bound per span dimension plus the verdict.

    The verdict is UniqueMaxLinear when every non-base stratum has a strictly
    larger codimension bound, so the base (linear-span) stratum is the unique
    component of maximal dimension.
    """
    spec = ProblemSpec(r, a, tuple(degrees))
    ds = spec.degrees
    if spec.a > spec.k:
        # dim >= r - k + a > r is impossible: empty locus, no strata to rank
        return AnalysisReport(spec, (), INF, INF, None, INCONCLUSIVE)

    b0 = spec.base_span
    if b0 < 0:
        raise ParameterError(f"need r - k + a >= 0, got {b0}")
    base = span_stratum_exact(r, a, ds)

    strata = []
    for b in range(b0, r + 1):
        value, argmin = f_lower(b, a + (r - b), ds)
        bound = value - grassmannian_dim(b, r)
        strata.append(StratumBound(b, bound, b == b0 or bound.is_infinite, argmin))

    if strata[0].value != base:
        raise InvariantError(
            f"base stratum bound {strata[0].value} != closed form {base} "
            f"for r={r}, a={a}, degrees={ds}"
        )

    runner_up = ext_min(s.value for s in strata[1:])
    gap = runner_up - base
    verdict = UNIQUE_MAX_LINEAR if gap > 0 else INCONCLUSIVE
    return AnalysisReport(spec, tuple(strata), ExtInt(base), runner_up, gap, verdict)


def nr_hypothesis(degrees) -> bool:
    """Whether a sorted degree sequence lies in the slope cone
    d_i <= d_1 + C(d_1, 2) * (i - 1)."""
    degrees = tuple(degrees)
    if list(degrees) != sorted(degrees):
        raise ParameterError("degrees must be sorted nondecreasing")
    d1 = degrees[0]
    if d1 < 2:
        raise ParameterError(f"need d_1 >= 2, got {d1}")
    slope = binomial(d1, 2)
    return all(d <= d1 + slope * (i - 1) for i, d in enumerate(degrees, start=1))


def slope_gap(r: int, k: int, d1: int) -> int:
    """Guaranteed codimension gap between the line stratum and every other
    stratum, for k forms in projective r-space with minimal degree d1
    inside the slope cone."""
    if not (k >= r >= 2):
        raise ParameterError(f"need k >= r >= 2, got k={k}, r={r}")
    if d1 < 2:
        raise ParameterError(f"need d1 >= 2, got {d1}")
    if k == r:
        return r - 1
    return r - 1 + (d1 - 2) * (r - 2) + d1 * (k - r)


def cone_sequences(d1: int, k: int, max_count: int | None = None):
    """Yield the sorted degree sequences of the slope cone with first entry
    exactly d1, in lexicographic order, truncated after max_count."""
    if d1 < 2:
        raise ParameterError(f"need d1 >= 2, got {d1}")
    if k < 1:
        raise ParameterError(f"need k >= 1, got {k}")
    slope = binomial(d1, 2)
    caps = [d1 + slope * (i - 1) for i in range(1, k + 1)]

    def rec(prefix):
        pos = len(prefix)
        if pos == k:
            yield tuple(prefix)
            return
        for d in range(prefix[-1], caps[pos] + 1):
            yield from rec(prefix + [d])

    count = 0
    for seq in rec([d1]):
        if max_count is not None and count >= max_count:
            return
        count += 1
        yield seq


def kcl_cone_min(r: int, a: int, b: int, d: int, k: int, cap: int) -> tuple[tuple[int, ...], int]:
    """Brute-force minimum of h_gap over the whole slope cone.

    Oracle confirming that the constant sequence (d, ..., d) minimizes the
    stratum gap over the cone; raises BudgetError when the cone has more than
    cap sequences (truncating would make the oracle unsound).
    """
    if r - k + a != 1:
        raise ParameterError(f"need r - k + a = 1, got r={r}, k={k}, a={a}")
    if not 2 <= b <= r:
        raise ParameterError(f"need 2 <= b <= r, got b={b}, r={r}")
    best_seq = None
    best_val = INF
    count = 0
    for seq in cone_sequences(d, k):
        count += 1
        if count > cap:
            raise BudgetError(f"cone for d={d}, k={k} exceeds enumeration cap {cap}")
        val = h_gap(r, a, b, seq)
        if val < best_val:
            best_val, best_seq = val, seq
    return best_seq, int(best_val)


@dataclass(frozen=True)
class SpanStage:
    """One span stratum of the narrative walkthrough: the candidate condition
    sums of its one-form-at-a-time chain, their minimum, and the bound after
    paying for the choice of plane."""

    b: int
    excess: int
    candidates: tuple[tuple[tuple[int, ...], int], ...]
    chain_min: int
    bound: int


@dataclass(frozen=True)
class WorkedExampleReport:
    r: int
    a: int
    degrees: tuple[int, ...]
    line_codim: int
    stages: tuple[SpanStage, ...]
    summary: dict = field(hash=False)
    codim: int
    second_largest_lower_bound: int
    verdict: str


def worked_example() -> WorkedExampleReport:
    """The (3,4,5,6) quadruple in projective 4-space, worked stratum by
    stratum with every intermediate value."""
    r, a = 4, 1
    ds = (3, 4, 5, 6)
    report = analyze_spans(r, a, ds)
    line_codim = span_stratum_exact(r, a, ds)

    stages = []
    for b in range(r, 1, -1):  # b = 4, 3, 2: the nonlinear span strata
        excess = a + (r - b)
        candidates = f_candidates(b, excess, ds)
        chain_min = min(v for _, v in candidates)
        bound = chain_min - grassmannian_dim(b, r)
        stages.append(SpanStage(b, excess, candidates, chain_min, bound))

    summary = {s.b: int(s.value) for s in report.strata}
    return WorkedExampleReport(
        r=r,
        a=a,
        degrees=ds,
        line_codim=line_codim,
        stages=tuple(stages),
        summary=summary,
        codim=line_codim,
        second_largest_lower_bound=int(report.runner_up),
        verdict=report.verdict,
    )


def brute_force_f(r: int, a: int, degrees) -> tuple[ExtInt, tuple[int, ...]]:
    """Independent check for f_lower: minimum over the explicit enumeration,
    ties broken by the lexicographically smallest index sequence."""
    degrees = tuple(degrees)
    k = len(degrees)
    if a == 0:
        return ExtInt(0), ()
    if a > k:
        return INF, ()
    best = None
    for idx in combinations(range(1, k + 1), a):
        total = sum(_weight(r, i, c, degrees[i - 1]) for c, i in enumerate(idx, start=1))
        if best is None or (total, idx) < best:
            best = (total, idx)
    return ExtInt(best[0]), best[1]


def sorted_is_maximal(r: int, a: int, degrees, max_perms: int = 24) -> bool:
    """True when the sorted order of the degrees gives the largest f_lower
    over a sample of permutations: the bound depends on the order and sorting
    nondecreasing is the sharp choice."""
    degrees = tuple(degrees)
    base, _ = f_lower(r, a, tuple(sorted(degrees)))
    for n, perm in enumerate(permutations(degrees)):
        if n >= max_perms:
            break
        value, _ = f_lower(r, a, perm)
        if base < as_extint(value):
            return False
    return True
