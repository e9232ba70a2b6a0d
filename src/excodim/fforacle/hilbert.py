"""Hilbert functions of graded ideals by rank computation, and the two
dimension detectors built on them.

The degree-t piece of the ideal generated by forms g_i is spanned by the
products m * g_i over monomials m of degree t - deg(g_i); its rank gives
h(t) = C(t+r, r) - rank for the quotient.  Its matrix, the Macaulay matrix, is
filled by ``polynomials.macaulay_stack``, and a whole batch of tuples whose
generators have the same degrees is filled as one (B, rows, cols) stack and
ranked by ``batch_rank``.  ``hilbert_function`` ranks one such piece, a stack
of one.

``dim_at_least`` answers the question every experiment asks of a sample,
"is dim V(g) >= s?", by a linear section.  With b = r - s it restricts the
forms to a seeded b-plane defined over the section field E (the smallest
GF(q^m), m >= 2, with at least SECTION_FIELD_MIN elements) and computes one
h value, in degree t = 1 + sum(d_i - 1) over the b + 1 largest degrees.  By the
Macaulay/Lazard bound, forms on P^b have no common zero over the algebraic
closure exactly when their ideal contains every degree-t monomial, that is
h(t) = 0.  Every b-plane meets a variety of dimension >= s, so an empty
section certifies dim < s.

``batch_dim_at_least`` gives each row an outcome code, 2 * certificate +
decision, so code & 1 is the decision and code >> 1 indexes CERTIFICATES.
The codes are:

- OUT_RANK, IN_RANK: every form linear.  The forms then cut out a linear
  space of projective dimension r - rank, so a block whose degrees are all
  1 is decided by one ``batch_rank`` of its (n, k, r + 1) stack, with no
  section;
- OUT_COUNT: s > r; IN_COUNT: fewer than b + 1 forms are nonzero (dimension
  theorem);
- OUT_SECTION: some section is empty; IN_SECTION: s = 0 and the section is
  nonempty (the "plane" is then all of P^r in new coordinates, so its one
  section decides and no other plane is built);
- PROBABLE (in): the sections on all SECTION_TRIES planes are nonempty.  A
  finite locus of D points passes one random plane with probability about
  D / |E|, so a false positive has probability about (D / |E|)^SECTION_TRIES;
- OUT_SET, IN_SET: set by the experiments, whose plane singular run looks a
  form up in an exact set.

The section field and the restriction map of each plane and degree are
built on first use (the map by ``polynomials.substitute``) and cached, so
later calls with the same field, r, s and seed only read them.  A stack of
forms is restricted by one ``rows_times`` product of its rows with the map.

``projective_dim_hilbert`` gives the dimension from a window of h values in
the full space, from t0 = 1 + sum(d_i - 1) up.  It stops at the first t with
h(t + 1) = h(t)^<t>, Macaulay's bound: the ideal is generated in degrees <= t,
so by Gotzmann's persistence theorem (Math. Z. 158, 1978; Bruns-Herzog,
Cohen-Macaulay Rings, Thm 4.3.3) h(t) and h(t + 1) fix the Hilbert
polynomial, whose degree, the dimension, is k - t for the top term C(k, t)
of h(t)'s t-th Macaulay representation; h(t) = 0 gives -1.  Two forms of
positive degree stop sooner, at t0 itself, when their degree-t0 rows are
independent: they are then coprime, a regular sequence (Bruns-Herzog,
Cohen-Macaulay Rings), whose locus has dimension r - 2.  Both stops are
exact, and there is no other: a window that reaches neither within its
budget is refused.  A flat window, h(t - 1) = h(t) = c > t, can persist
only from its degree-(c + 1) piece on, so it is refused as soon as that
piece is over the budget.  Its matrices are large; it serves as the
independent reference that the experiments cross-check the section test
against, not as a per-sample test.

Both tests take a batch of n samples through ``batch_dim_at_least`` and
``batch_projective_dim_hilbert`` as one block: an (n, sum_j C(r + d_j, r))
array of coefficient codes, row i holding the forms of sample i, of degrees
d_j, one after another.  The single-sample functions run their list of
forms as a block of one.  Rows are grouped by which of their forms are
nonzero, and each group advances through its planes or its window degrees
in lockstep, one Macaulay stack per step.  A sample leaves its group once it
is decided.

A piece costs every row its Macaulay stack holds, the rows of a form that
restricts to zero on a section plane included, so its cost depends on the
degrees alone and is known before any matrix is built.  A window that needs
more than MAX_WINDOW_STEPS degrees, or a piece of more than
MAX_MATRIX_ENTRIES entries, puts its sample over budget:
``batch_projective_dim_hilbert`` gives None for it, and
``projective_dim_hilbert`` raises its BudgetError.  A window piece is
checked when some row reaches it, so a window that stops first never meets
its larger pieces.  ``section_budget`` is
the section test's budget: from r, the degrees and s alone it gives the
section degree t, after checking every restriction map, the index tables
that build them, and the whole degree-t piece.  ``batch_dim_at_least``
calls it for each group of live forms before it builds any map, and the
experiments call it once on all their degrees before they draw anything, so
a run over budget stops before its first chunk.  The budgets are module
constants read at each call.

The split size of a stack is not the budget.  One piece may hold up to
MAX_MATRIX_ENTRIES (4M) entries before it raises BudgetError, but a stack is
ranked in parts of at most STACK_ENTRIES (2^20) entries, or of one matrix
when a single piece is larger.  A full chunk of 4096 section matrices of
46 x 21, the degree-5 pieces of a cubic and four quadrics on a plane, peaks
at about 70 MB split at 4M entries and at about 50 MB split at 2^20, in no
more time.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ..errors import BudgetError, InvariantError, ParameterError
from .fields import Field
from .linalg import batch_rank, matrix_rank, rows_times
from .polynomials import macaulay_stack, n_monomials, substitute

MAX_MATRIX_ENTRIES = 4_000_000
STACK_ENTRIES = 2**20  # split size of a Macaulay stack, below the budget
MAX_WINDOW_STEPS = 48
# Over planes of a 64-element field a false "dim >= s" needs four unlucky
# draws of odds about D/64 each; a larger field would cost more table memory
# and build time in every run.
SECTION_TRIES = 4
SECTION_FIELD_MIN = 64
PLANE_STREAM = 2**32  # plane k is drawn from the Philox key [seed, PLANE_STREAM + k]
MAX_PLANE_DRAWS = 64
# outcome codes, 2 * certificate + decision; no path sets 6, probable out
CERTIFICATES = ("rank", "count", "section", "probable", "set")
OUT_RANK, IN_RANK, OUT_COUNT, IN_COUNT, OUT_SECTION, IN_SECTION = range(6)
PROBABLE, OUT_SET, IN_SET = 7, 8, 9


def _ring_of(generators, field, r):
    """The field and r of a list of forms; a given field or r must be
    theirs."""
    gens = list(generators)
    if gens:
        ring = gens[0].field, gens[0].r
        if any(g.field is not ring[0] or g.r != ring[1] for g in gens):
            raise ParameterError("generators live over different rings")
        if field not in (None, ring[0]) or r not in (None, ring[1]):
            raise ParameterError(
                f"the generators live over {ring[0]} on P^{ring[1]}, "
                f"not the given field {field} and r={r}"
            )
        field, r = ring
    if field is None or r is None:
        raise ParameterError("field and r are required when no generators are given")
    return field, r


def _check_budget(t: int, nrows: int, ncols: int, what: str = "piece"):
    if nrows * ncols > MAX_MATRIX_ENTRIES:
        raise BudgetError(
            f"degree-{t} {what} needs a {nrows}x{ncols} matrix, over the budget"
        )


def _piece_shape(r: int, t: int, degrees) -> tuple[int, int]:
    """Rows and columns of the degree-t Macaulay matrix of forms of the given
    degrees on P^r."""
    return sum(n_monomials(r, t - d) for d in degrees), n_monomials(r, t)


def _piece_ranks(field: Field, r: int, t: int, degrees, coeffs) -> np.ndarray:
    """Ranks of the degree-t ideal pieces of a nonempty batch of generator
    tuples of degrees at most t (coefficient stacks as in
    ``macaulay_stack``), ranked in stacks of at most
    min(STACK_ENTRIES, MAX_MATRIX_ENTRIES) entries.  A piece costs every row
    its stack holds, which the degrees alone fix: a piece over the budget
    raises BudgetError before any stack is built."""
    nrows, ncols = _piece_shape(r, t, degrees)
    _check_budget(t, nrows, ncols)
    per = max(1, min(STACK_ENTRIES, MAX_MATRIX_ENTRIES) // max(nrows * ncols, 1))
    parts = ([c[lo:lo + per] for c in coeffs] for lo in range(0, len(coeffs[0]), per))
    return np.concatenate([
        batch_rank(field, macaulay_stack(len(part[0]), r, t, degrees, part)) for part in parts
    ])


def hilbert_function(generators, t: int, field: Field | None = None,
                     r: int | None = None) -> int:
    """Dimension of the degree-t graded piece of the quotient ring."""
    if t < 0:
        raise ParameterError(f"need t >= 0, got {t}")
    field, r = _ring_of(generators, field, r)
    gens = [g for g in generators if not g.is_zero and g.d <= t]
    if not gens:
        return n_monomials(r, t)
    rank = _piece_ranks(field, r, t, [g.d for g in gens], [g.coeffs[None] for g in gens])
    return n_monomials(r, t) - int(rank[0])


def check_seed(seed: int):
    """A seed is one word of a Philox key."""
    if not 0 <= seed < 2**63:
        raise ParameterError(f"need 0 <= seed < 2**63, got {seed}")


def _checked_block(field: Field, r: int, degrees, block) -> np.ndarray:
    """A block of forms of the given degrees as uint16 codes, after checking
    its degrees, its shape and its codes."""
    if min(degrees, default=0) < 0:
        raise ParameterError(f"need degrees >= 0, got {list(degrees)}")
    width = sum(n_monomials(r, d) for d in degrees)
    block = np.asarray(block)
    if block.ndim != 2 or block.shape[1] != width:
        raise ParameterError(f"need an (n, {width}) block, got shape {block.shape}")
    if block.size and (block.min() < 0 or block.max() >= field.q):
        raise ParameterError("coefficient code out of range")
    return block.astype(np.uint16, copy=False)


def _form_stacks(field: Field, r: int, degrees, block) -> tuple[list, np.ndarray]:
    """The coefficient stack of each form of a checked block, and the (n, k)
    mask of which forms of each row are nonzero."""
    block = _checked_block(field, r, degrees, block)
    widths = [n_monomials(r, d) for d in degrees]
    stacks = np.split(block, np.cumsum(widths)[:-1], axis=1)
    live = np.zeros((len(block), len(stacks)), dtype=bool)
    for j, c in enumerate(stacks):
        live[:, j] = c.any(axis=1)
    return stacks, live


def _live_groups(field: Field, r: int, degrees, block) -> list:
    """The rows of a block grouped by which of their forms are nonzero, as
    (degrees of the live forms, row indices, one coefficient stack per live
    form)."""
    stacks, live = _form_stacks(field, r, degrees, block)
    patterns, group = np.unique(live, axis=0, return_inverse=True)
    groups = []
    for j, pattern in enumerate(patterns):
        members = np.flatnonzero(group.reshape(-1) == j)
        forms = np.flatnonzero(pattern)
        groups.append(([degrees[f] for f in forms], members,
                       [stacks[f][members] for f in forms]))
    return groups


def _as_block(generators, field, r):
    """A list of forms as a block of one sample: (field, r, degrees, block)."""
    gens = list(generators)
    field, r = _ring_of(gens, field, r)
    row = np.concatenate([np.zeros(0, dtype=np.uint16)] + [g.coeffs for g in gens])
    return field, r, [g.d for g in gens], row[None]


def _persistent_dim(h: int, h_next: int, t: int) -> int | None:
    """The projective dimension that h = h(t) and h_next = h(t + 1) fix by
    Gotzmann's persistence theorem, for an ideal generated in degrees <= t:
    -1 when h = 0; k - t when h_next = h^<t>, where C(k, t) is the top term
    of the t-th Macaulay representation of h; else None."""
    if h == 0:
        return -1
    bound, rest, top = 0, h, None
    for i in range(t, 0, -1):
        k = i
        while math.comb(k + 1, i) <= rest:
            k += 1
        top = k if top is None else top
        bound += math.comb(k + 1, i + 1)
        rest -= math.comb(k, i)
        if not rest:  # by i = 1 at the latest, where k = rest
            return top - t if h_next == bound else None


def _check_window(r: int, degrees, t0: int, t: int):
    """Raise the BudgetError of the degree-t piece of a window that starts at
    t0: past MAX_WINDOW_STEPS, or over MAX_MATRIX_ENTRIES."""
    if t - t0 >= MAX_WINDOW_STEPS:
        raise BudgetError(
            f"Hilbert dimension did not stabilize within {MAX_WINDOW_STEPS} steps "
            f"(generators of degrees {list(degrees)})"
        )
    _check_budget(t, *_piece_shape(r, t, degrees))


def _window_dims(field: Field, r: int, degrees,
                 block) -> tuple[list[int], dict[int, BudgetError]]:
    """Window dimensions of the rows of a block, and the BudgetError of each
    row whose window goes over a budget (its dimension is then meaningless).

    Rows with the same live forms share every window degree, so each such
    group advances its windows in lockstep, with one stack of Macaulay
    matrices per degree t; a row leaves its group once its dimension is
    known.  Every window degree is at least t0 = sum(d_i - 1) + 1, which is
    at least every degree d_i >= 1, so persistence (``_persistent_dim``)
    applies from the second value on (a live constant makes every h zero,
    which needs no hypothesis).  Two forms of positive degree whose degree-t0
    rows are independent stop at t0, with dimension r - 2: a common factor
    of degree e >= 1 gives a syzygy of degree d_1 + d_2 - e <= t0, and
    coprime forms, a regular sequence, have only the Koszul syzygy, of
    degree d_1 + d_2.  A flat window, h(t - 1) = h(t) = c > t, that stays
    flat persists only on its degree-(c + 1) piece or later (c^<t> = c needs
    c <= t), as a finite scheme of degree c does: when that piece is over a
    budget, the row gets its BudgetError at once.  That can cost a row that
    is not finite its check, never its dimension.  A piece over budget stops
    only the rows that reach it.
    """
    groups = _live_groups(field, r, degrees, block)
    dims = [r] * len(block)  # no live generator: the whole space
    errors: dict[int, BudgetError] = {}
    for degrees, members, coeffs in groups:
        if not degrees:
            continue
        t0 = sum(d - 1 for d in degrees) + 1
        coprime = (_piece_shape(r, t0, degrees)[0]
                   if len(degrees) == 2 and min(degrees) >= 1 else None)
        last: list[int | None] = [None] * len(members)  # each row's h(t - 1)
        active, t = np.arange(len(members)), t0
        while active.size:
            try:
                _check_window(r, degrees, t0, t)
                ranks = _piece_ranks(field, r, t, degrees, [c[active] for c in coeffs])
            except BudgetError as err:
                errors.update((int(members[a]), err) for a in active)
                break
            still = []
            for a, rank in zip(active, ranks.tolist()):
                h, prev = n_monomials(r, t) - rank, last[a]
                dim = (r - 2 if rank == coprime and t == t0 else
                       None if prev is None else _persistent_dim(prev, h, t - 1))
                if dim is not None:
                    dims[members[a]] = dim
                    continue
                if prev == h > t:
                    try:
                        _check_window(r, degrees, t0, h + 1)
                    except BudgetError as err:
                        errors[int(members[a])] = err
                        continue
                last[a] = h
                still.append(a)
            active, t = np.array(still, dtype=np.intp), t + 1
    return dims, errors


def batch_projective_dim_hilbert(field: Field, r: int, degrees, block) -> list[int | None]:
    """``projective_dim_hilbert`` of every row of a block, with None for each
    row whose window goes over a budget."""
    dims, errors = _window_dims(field, r, degrees, block)
    return [None if i in errors else dim for i, dim in enumerate(dims)]


def projective_dim_hilbert(generators, field: Field | None = None,
                           r: int | None = None) -> int:
    """Projective dimension of the common vanishing locus, in {-1, 0, ..., r}.

    -1 encodes the empty scheme.  The window starts at
    t0 = sum(deg g_i - 1) + 1 and widens until h persists (h(t + 1) =
    h(t)^<t>, which fixes the dimension exactly); two coprime forms of
    positive degree, whose degree-t0 rows are independent, stop at t0 with
    dimension r - 2.  A window over budget, or a flat one whose earliest
    persistence is, raises its BudgetError.
    """
    dims, errors = _window_dims(*_as_block(generators, field, r))
    if errors:
        raise errors[0]
    return dims[0]


def section_field(field: Field) -> tuple[Field, np.ndarray]:
    """The field the section planes live in, with the embedding table of the
    base field: the smallest GF(q^m), m >= 2, with at least SECTION_FIELD_MIN
    elements.  Built on first use and cached by ``Field.extension``."""
    m = 2
    while field.q**m < SECTION_FIELD_MIN:
        m += 1
    return field.extension(m)


def _section_plane(field: Field, r: int, b: int, seed: int, k: int) -> np.ndarray:
    """Plane k: the first full-rank (r+1) x (b+1) matrix of field codes drawn
    from its own Philox stream; its columns span a b-plane of P^r."""
    rng = np.random.Generator(np.random.Philox(key=[seed, PLANE_STREAM + k]))
    for _ in range(MAX_PLANE_DRAWS):
        plane = rng.integers(0, field.q, size=(r + 1, b + 1), dtype=np.uint16)
        if matrix_rank(field, plane) == b + 1:
            return plane
    raise InvariantError(  # pragma: no cover - probability below 1e-9
        f"no full-rank {r + 1}x{b + 1} plane over {field} in {MAX_PLANE_DRAWS} draws"
    )


@lru_cache(maxsize=256)
def restriction_map(field: Field, r: int, b: int, seed: int, k: int, d: int) -> np.ndarray:
    """Restriction of degree-d forms on P^r to plane k, as a linear map.

    Row i holds the coefficients, as a degree-d form on P^b, of the i-th
    degree-d monomial composed with the plane's parameterization (the
    ``substitute`` map of the plane), so a form's restriction is its
    coefficient row times this matrix.
    """
    rmap = substitute(field, r, d, _section_plane(field, r, b, seed, k)[None])[0]
    rmap.flags.writeable = False
    return rmap


def section_budget(r: int, degrees, s: int) -> int:
    """The degree t of the section pieces of forms of the given degrees on
    P^r, tested for dim >= s on (r - s)-planes: 1 + sum(d_i - 1) over the
    r - s + 1 largest degrees.  Every restriction map, the index tables
    ``substitute`` builds for them (one ``scatter_index(r, 1, t)`` per t up
    to the largest degree, counted as one stack), and the degree-t piece
    with all the rows of every form, are checked against MAX_MATRIX_ENTRIES
    first; the first one over it raises BudgetError."""
    b = r - s
    for d in sorted(set(degrees)):
        _check_budget(d, n_monomials(r, d), n_monomials(b, d), "restriction map")
    top = max(degrees, default=1)
    _check_budget(top, n_monomials(r + 1, top - 1) - 1, r + 1, "substitution table stack")
    t = sum(sorted((d - 1 for d in degrees), reverse=True)[: b + 1]) + 1
    _check_budget(t, sum(n_monomials(b, t - d) for d in degrees), n_monomials(b, t))
    return t


def batch_dim_at_least(field: Field, r: int, degrees, block, s: int,
                       seed: int = 0) -> np.ndarray:
    """``dim_at_least`` of every row of a block, as a uint8 array of outcome
    codes (see the module docstring): code & 1 is the decision.

    A block of linear forms is ranked as one (n, k, r + 1) stack.  Otherwise
    rows with the same live forms share t and the planes, so each such group
    is restricted and ranked as one stack per plane; a row leaves its group
    at its first empty section.  The ``section_budget`` of every group is
    checked before any restriction map is built.  A degree below 1 raises
    ParameterError: the dimension theorem needs forms of positive degree.
    """
    if s < 0:
        raise ParameterError(f"need s >= 0, got {s}")
    if min(degrees, default=1) < 1:
        raise ParameterError(f"need degrees >= 1, got {list(degrees)}")
    check_seed(seed)
    block = _checked_block(field, r, degrees, block)
    if s > r:
        return np.full(len(block), OUT_COUNT, dtype=np.uint8)
    if all(d == 1 for d in degrees):
        rank = batch_rank(field, block.reshape(len(block), len(degrees), r + 1))
        return np.where(r - rank >= s, IN_RANK, OUT_RANK).astype(np.uint8)
    groups = _live_groups(field, r, degrees, block)
    code = np.full(len(block), IN_COUNT, dtype=np.uint8)
    b = r - s
    # fewer than b + 1 live forms: certified in
    sections = [(degrees, members, coeffs, section_budget(r, degrees, s))
                for degrees, members, coeffs in groups if len(degrees) > b]
    for degrees, members, coeffs, t in sections:
        code[members] = IN_SECTION if b == r else PROBABLE
        ext, emb = section_field(field)
        coeffs = [emb[c] for c in coeffs]
        # at s = 0 the plane is all of P^r: its one section is exact
        for k in range(1 if b == r else SECTION_TRIES):
            section = [rows_times(ext, c, restriction_map(ext, r, b, seed, k, d))
                       for d, c in zip(degrees, coeffs)]
            empty = _piece_ranks(ext, b, t, degrees, section) == n_monomials(b, t)
            code[members[empty]] = OUT_SECTION
            members = members[~empty]
            if not members.size:
                break
            coeffs = [c[~empty] for c in coeffs]
    return code


def dim_at_least(generators, s: int, field: Field | None = None, r: int | None = None,
                 seed: int = 0) -> bool:
    """Whether the common vanishing locus has projective dimension >= s.

    Linear forms are decided exactly, by the rank of their coefficient
    matrix.  Otherwise False is certified by an empty linear section, True
    is certified when fewer than r - s + 1 forms are nonzero or when s = 0,
    and probable otherwise (see the module docstring).  The planes depend
    only on the field, r, s and the seed.
    """
    field, r, degrees, block = _as_block(generators, field, r)
    return bool(batch_dim_at_least(field, r, degrees, block, s, seed)[0] & 1)
