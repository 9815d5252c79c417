"""Exact linear algebra against the earlier implementations it replaced.

sparse_nullspace eliminates modulo a prime, recovers the kernel by rational
reconstruction and certifies it over the integers. Its pivot rule takes the
shortest live row (lowest index on ties) at its column with the fewest
active rows (lowest column on ties). Two exact routines with the same pivot
rule are kept to check it against, dict for dict and in the same key order:
_reference_sparse_nullspace rescans every live row on every pivot step and
reduces the pivot rows too (Gauss-Jordan), and _exact_sparse_nullspace
eliminates gcd-normalised integer rows with the live rows in a heap.

_eliminate keeps the live rows in a heap keyed by length and index, and
pushes a row again only when an update changes its length.
_reference_eliminate is the plain search that rescans every live row on
every step; the two must return the same steps and rows, at the first prime
and at the second. A kernel that needs two primes joins their residues only
when their pivot searches leave the same free columns, so the two searches
must pick the same pivot columns on the systems here. The rule replaced a
column-first one (fewest active rows, then the shortest row in that
column); a hand-built system on which the two differ pins the new steps,
and the level-20 vacuum system of m = 3 pins the fill-in it saves.

level_coordinates reads the projection P = M^-1 G[kept, :] off the reduced
rows of the Gram matrix G. _reference_level_coordinates is the earlier
route: kept columns, the inverse of the kept minor M through the dense
Gauss-Jordan engine _reference_rref_dense (tests/reference_routes.py),
then the product with G. irreducible_coordinates applies P in one
pass over the entries of a vector; _reference_coords is G v on the kept
rows and then M^-1, and (M^-1 G) v = M^-1 (G v) exactly.

RowSpan keeps the reduced row echelon form, with each pivot the largest key
of its row, which is unique for a given span. The relation span of the mde
layer grows level by level on that fact, so the pivot rows must not depend
on the order in which rows were added.
"""

import random
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_routes import _reference_rref_dense
from traceform import linalg
from traceform.linalg import _PRIMES, RowSpan, _rational, sparse_nullspace
from traceform.virasoro import (
    VermaVector,
    _action_rows,
    _basis_at,
    gram_matrix,
    irreducible_coordinates,
    level_coordinates,
    minimal_model,
    verma_module,
    verma_monomial,
)


def _normalize(row):
    g = 0
    for v in row.values():
        g = gcd(g, v)
    return {c: v // g for c, v in row.items()} if g > 1 else row


def _reference_sparse_nullspace(rows, ncols):
    work = []
    for row in rows:
        denom = 1
        for v in row.values():
            f = Fraction(v)
            denom = denom * f.denominator // gcd(denom, f.denominator)
        cleared = {c: int(Fraction(v) * denom) for c, v in row.items() if v != 0}
        if cleared:
            work.append(_normalize(cleared))
    col_rows = {}
    active = set(range(len(work)))
    for i in active:
        for c in work[i]:
            col_rows.setdefault(c, set()).add(i)
    pivot_of = {}
    done = set()
    while active:
        pr = min(active, key=lambda i: (len(work[i]), i))
        col = min(work[pr], key=lambda c: (len(col_rows[c] & active), c))
        active.discard(pr)
        prow = work[pr]
        pval = prow[col]
        for i in [i for i in col_rows[col] - {pr} if i in active or i in done]:
            row = work[i]
            f = row[col]
            for c in row:
                col_rows[c].discard(i)
            new = {c2: pval * v for c2, v in row.items()}
            for c2, v in prow.items():
                new[c2] = new.get(c2, 0) - f * v
            new = _normalize({c2: v for c2, v in new.items() if v != 0})
            work[i] = new
            for c in new:
                col_rows[c].add(i)
            if i in active and not new:
                active.discard(i)
        pivot_of[col] = pr
        done.add(pr)
    basis = []
    for f in (c for c in range(ncols) if c not in pivot_of):
        vec = {f: Fraction(1)}
        for col, ri in pivot_of.items():
            if f in work[ri]:
                vec[col] = -Fraction(work[ri][f], work[ri][col])
        basis.append(vec)
    return basis


def _exact_sparse_nullspace(rows, ncols):
    """Exact elimination over the integers, with the live rows in a heap."""
    work = []
    for row in rows:
        denom = 1
        for v in row.values():
            f = Fraction(v)
            denom = denom * f.denominator // gcd(denom, f.denominator)
        cleared = {c: int(Fraction(v) * denom) for c, v in row.items() if v != 0}
        if cleared:
            work.append(_normalize(cleared))
    active_at = {}
    for i, row in enumerate(work):
        for c in row:
            active_at.setdefault(c, set()).add(i)
    heap = [(len(row), i) for i, row in enumerate(work)]
    heapify(heap)
    pivot_of = {}
    while heap:
        length, pr = heappop(heap)
        prow = work[pr]
        if length != len(prow) or pr in pivot_of.values():
            continue
        col = min(prow, key=lambda c: (len(active_at[c]), c))
        for c in prow:
            active_at[c].discard(pr)
        pval = prow[col]
        for i in list(active_at[col]):
            row = work[i]
            for c in row:
                active_at[c].discard(i)
            g = gcd(pval, row[col])
            a, b = pval // g, row[col] // g
            new = {c2: a * v for c2, v in row.items()}
            for c2, v in prow.items():
                w = new.get(c2, 0) - b * v
                if w:
                    new[c2] = w
                else:
                    del new[c2]
            new = _normalize(new)
            work[i] = new
            for c in new:
                active_at[c].add(i)
            if new and len(new) != len(row):
                heappush(heap, (len(new), i))
        pivot_of[col] = pr
    backward = list(pivot_of.items())[::-1]
    basis = []
    for f in (c for c in range(ncols) if c not in pivot_of):
        x = {f: Fraction(1)}
        for col, ri in backward:
            row = work[ri]
            acc = sum(v * x[c] for c, v in row.items() if c in x)
            if acc:
                x[col] = -acc / row[col]
        basis.append({f: x[f], **{col: x[col] for col in pivot_of if col in x}})
    return basis


def _random_rows(rng, nrows, ncols, density):
    rows = [{c: rng.randint(-5, 5) for c in range(ncols) if rng.random() < density}
            for _ in range(nrows)]
    # combinations of earlier rows add dependencies, so kernels grow
    for _ in range(rng.randint(0, 3)):
        if rows:
            a, b = rng.choice(rows), rng.choice(rows)
            k = rng.randint(-3, 3)
            rows.append({c: a.get(c, 0) + k * b.get(c, 0) for c in set(a) | set(b)})
    return rows


def _random_corpus():
    """400 sparse (rows, ncols) systems, the same ones on every call."""
    rng = random.Random(20240917)
    for _ in range(400):
        ncols = rng.randint(1, 16)
        yield _random_rows(rng, rng.randint(0, 14), ncols, rng.uniform(0.1, 0.6)), ncols


def _annihilated(rows, vec):
    return all(sum(Fraction(v) * vec.get(c, 0) for c, v in row.items()) == 0 for row in rows)


def _same(got, want):
    return got == want and [list(v.items()) for v in got] == [list(v.items()) for v in want]


def test_random_sparse_matrices_match_the_reference():
    dims = []
    for rows, ncols in _random_corpus():
        got = sparse_nullspace(rows, ncols)
        assert _same(got, _reference_sparse_nullspace(rows, ncols)), rows
        assert _same(got, _exact_sparse_nullspace(rows, ncols)), rows
        assert all(_annihilated(rows, v) for v in got), rows
        dims.append(len(got))
    assert sum(d >= 2 for d in dims) > 100
    assert 0 in dims


def test_rational_entries_and_wide_kernels():
    rng = random.Random(7)
    for _ in range(50):
        rows = [{c: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for c in rng.sample(range(20), 5)}
                for _ in range(6)]
        got = sparse_nullspace(rows, 20)
        assert len(got) >= 14
        assert _same(got, _reference_sparse_nullspace(rows, 20))
        assert _same(got, _exact_sparse_nullspace(rows, 20))
        assert all(_annihilated(rows, v) for v in got)


def test_empty_matrix_has_the_unit_kernel():
    assert sparse_nullspace([], 3) == [{0: 1}, {1: 1}, {2: 1}]
    assert sparse_nullspace([{}, {1: 0}], 2) == [{0: 1}, {1: 1}]


@pytest.mark.parametrize("m,h,levels", [
    (2, Fraction(0), range(2, 13)),
    (1, Fraction(1, 16), range(1, 7)),
    (1, Fraction(1, 3), range(1, 7)),
])
def test_raising_mode_matrices_match_the_reference(m, h, levels):
    c = minimal_model(m).c
    vacuum = h == 0
    for level in levels:
        basis = _basis_at(level, vacuum)
        rows, ncols = _action_rows(verma_module(c, h, vacuum), level, basis)
        got = sparse_nullspace(rows, ncols)
        assert _same(got, _reference_sparse_nullspace(rows, ncols)), level
        assert _same(got, _exact_sparse_nullspace(rows, ncols)), level
        assert all(_annihilated(rows, v) for v in got)


def _passes(monkeypatch):
    """Record the index in _PRIMES of the prime of every elimination pass."""
    log = []
    original = linalg._eliminate

    def logged(work, p):
        log.append(_PRIMES.index(p))
        return original(work, p)

    monkeypatch.setattr(linalg, "_eliminate", logged)
    return log


def test_the_twentieth_level_vacuum_system_matches_the_exact_elimination(monkeypatch):
    c = minimal_model(3).c
    rows, ncols = _action_rows(verma_module(c, Fraction(0), True), 20, _basis_at(20, True))
    assert (len(rows), ncols) == (193, 137)
    log = _passes(monkeypatch)
    got = sparse_nullspace(rows, ncols)
    assert _same(got, _exact_sparse_nullspace(rows, ncols))
    assert len(got) == 1 and _annihilated(rows, got[0])
    assert log == [0]


def test_an_entry_divisible_by_the_first_prime_moves_to_the_next(monkeypatch):
    p = _PRIMES[0]
    log = _passes(monkeypatch)
    for rows, ncols in (([{0: p, 1: 1}], 2),
                        ([{0: 2, 1: 3 * p, 2: 1}, {1: 1, 2: Fraction(p, 7)}], 4)):
        log.clear()
        got = sparse_nullspace(rows, ncols)
        assert _same(got, _exact_sparse_nullspace(rows, ncols)), rows
        assert all(_annihilated(rows, v) for v in got)
        # the entries near p need more than one prime, and the first is never used
        assert log[0] == 1 and len(log) > 1
        assert all(k > 0 for k in log)


def test_a_pivot_that_vanishes_modulo_the_prime_is_caught_and_retried(monkeypatch):
    p = _PRIMES[0]
    log = _passes(monkeypatch)
    # over Q the second row keeps p at column 1 after the first pivot;
    # modulo p it vanishes, the rank drops and the certificate must fail
    rows = [{0: 1, 1: 1}, {0: 1, 1: 1 + p}]
    assert sparse_nullspace(rows, 2) == _exact_sparse_nullspace(rows, 2) == []
    # modulo the next prime that row keeps an entry, so no column is free
    # and the residues start over there
    assert log == [0, 1]
    log.clear()
    # the rank survives modulo p, but the vanishing entry leaves column 1
    # free instead of column 2; the kernel needs more than one prime, and
    # the next prime frees column 2, so its residues start over and the two
    # primes after it join them
    rows = [{0: 1, 1: 1, 2: 1}, {0: 1, 1: 1 + p, 2: 2}, {0: 2, 1: 2, 2: 2}]
    got = sparse_nullspace(rows, 3)
    assert _same(got, _exact_sparse_nullspace(rows, 3))
    assert len(got) == 1 and _annihilated(rows, got[0])
    assert log == [0, 1, 2, 3]
    log.clear()
    # one entry vanishes modulo each of the first two primes, in one row at
    # one step, so the first two free columns differ, and so do those of
    # the second and third; the third prime starts the join
    q = _PRIMES[1]
    rows = [{0: 1, 1: 1, 2: 1}, {0: 1, 1: 1 + q, 2: 1 + p}]
    got = sparse_nullspace(rows, 3)
    assert _same(got, _exact_sparse_nullspace(rows, 3))
    assert log == [0, 1, 2, 3, 4]


def test_kernels_beyond_one_prime_are_joined_by_the_chinese_remainder_theorem(monkeypatch):
    rng = random.Random(127)
    log = _passes(monkeypatch)
    for bits in (70, 130, 260):
        a, b = rng.getrandbits(bits) | 1 << bits, rng.getrandbits(bits) | 1 << bits
        if gcd(a, b) > 1:
            b += 1
        rows = [{0: a, 1: b}]
        log.clear()
        got = sparse_nullspace(rows, 2)
        assert got == [{1: Fraction(1), 0: Fraction(-b, a)}]
        assert _same(got, _exact_sparse_nullspace(rows, 2))
        # one 127-bit prime recovers numerator and denominator up to 63 bits each
        passes = -(-(2 * (bits + 1) + 1) // 126)
        assert log == list(range(passes)), bits
    for _ in range(20):
        rows = [{c: rng.randint(-10**12, 10**12) for c in rng.sample(range(9), 6)} for _ in range(7)]
        got = sparse_nullspace(rows, 9)
        assert _same(got, _exact_sparse_nullspace(rows, 9)), rows
        assert all(_annihilated(rows, v) for v in got)
        big = max(max(abs(q.numerator), q.denominator) for v in got for q in v.values())
        assert big.bit_length() > 64


def test_one_prime_covers_exactly_the_entries_within_its_bound(monkeypatch):
    p = _PRIMES[0]
    bound = isqrt((p - 1) // 2)
    log = _passes(monkeypatch)
    for a, b, passes in ((bound, bound - 2, 1), (bound - 1, bound, 1),
                         (bound + 2, bound + 1, 2), (3 * bound // 2 + 1, 3 * bound // 2, 2)):
        assert gcd(a, b) == 1
        log.clear()
        assert sparse_nullspace([{0: b, 1: a}], 2) == [{1: 1, 0: Fraction(-a, b)}]
        assert len(log) == passes, (a, b)


def test_rational_reconstruction_within_and_beyond_the_bound():
    rng = random.Random(61)
    for m in (_PRIMES[0], _PRIMES[0] * _PRIMES[1]):
        bound = isqrt((m - 1) // 2)
        for _ in range(300):
            a = rng.randint(-bound, bound)
            b = rng.randint(1, bound)
            if gcd(a, b) != 1:
                continue
            assert _rational(a * pow(b, -1, m) % m, m, bound) == Fraction(a, b)
        assert _rational(bound, m, bound) == bound
        assert _rational(m - bound, m, bound) == -bound
        assert _rational(bound + 1, m, bound) is None
        assert _rational(pow(bound, -1, m), m, bound) == Fraction(1, bound)


def test_nullity_zero_and_wide_kernels():
    rng = random.Random(3)
    seen = set()
    for _ in range(60):
        n = rng.randint(1, 9)
        extra = rng.choice((0, 0, 1, 3, 6))
        rows = [{c: rng.randint(-30, 30) for c in range(n + extra) if rng.random() < 0.7} for _ in range(n)]
        got = sparse_nullspace(rows, n + extra)
        assert _same(got, _exact_sparse_nullspace(rows, n + extra)), rows
        assert all(_annihilated(rows, v) for v in got)
        seen.add(min(len(got), 2))
    assert seen == {0, 1, 2}


# ---------------------------------------------------------------------------
# the heap of live rows against a rescan of every live row on every step
# ---------------------------------------------------------------------------

def _reference_eliminate(work, p):
    """_eliminate with every live row rescanned on every step, in place of the heap."""
    rows = [{c: v % p for c, v in row.items()} for row in work]
    active_at = {}
    for i, row in enumerate(rows):
        for c in row:
            active_at.setdefault(c, set()).add(i)
    live = {i for i, row in enumerate(rows) if row}
    pivots = []
    while live:
        pr = min(live, key=lambda i: (len(rows[i]), i))
        col = min(rows[pr], key=lambda c: (len(active_at[c]), c))
        live.discard(pr)
        prow = rows[pr]
        inv = pow(prow[col], -1, p)
        if inv != 1:
            prow = rows[pr] = {c: v * inv % p for c, v in prow.items()}
        for c in prow:
            active_at[c].discard(pr)
        for i in list(active_at[col]):
            row = rows[i]
            f = p - row[col]
            for c, v in prow.items():
                old = row.get(c)
                if old is None:
                    row[c] = f * v % p
                    active_at[c].add(i)
                else:
                    w = (old + f * v) % p
                    if w:
                        row[c] = w
                    else:
                        del row[c]
                        active_at[c].discard(i)
            if not row:
                live.discard(i)
        pivots.append((col, pr))
    return pivots, rows


def _cleared(rows):
    """The integer rows sparse_nullspace hands to _eliminate."""
    work = []
    for row in rows:
        cleared = {c: v for c, v in zip(row, linalg._CommonDenominator(row.values()).nums) if v}
        if cleared:
            work.append(cleared)
    return work


def _same_elimination(got, want):
    (steps, rows), (steps_want, rows_want) = got, want
    return steps == steps_want and [list(r.items()) for r in rows] == [list(r.items()) for r in rows_want]


def _assert_search_matches_the_rescan(work):
    """Equal steps and rows at the first prime and at the second."""
    p, q = _PRIMES[0], _PRIMES[1]
    got = linalg._eliminate(work, p)
    assert _same_elimination(got, _reference_eliminate(work, p)), work
    assert _same_elimination(linalg._eliminate(work, q), _reference_eliminate(work, q)), work
    return got


def _vacuum_system(m):
    level = (m + 1) * (m + 2)   # (p - 1)(q - 1), where zhu_poly solves
    rows, ncols = _action_rows(verma_module(minimal_model(m).c, Fraction(0), True), level,
                                _basis_at(level, True))
    return _cleared(rows), ncols


def test_incremental_pivot_search_matches_the_full_refresh_on_random_matrices():
    # the corpus of test_random_sparse_matrices_match_the_reference; columns
    # grow, shrink and empty along the way
    steps = sum(len(_assert_search_matches_the_rescan(_cleared(rows))[0])
                for rows, _ in _random_corpus())
    assert steps > 1500


@pytest.mark.parametrize("m", [1, 2, 3])
def test_incremental_pivot_search_matches_the_full_refresh_on_the_vacuum_systems(m):
    work, ncols = _vacuum_system(m)
    steps, _ = _assert_search_matches_the_rescan(work)
    assert len(steps) == ncols - 1


def test_the_shortest_row_is_pivoted_before_the_sparsest_column():
    # column 3 is in one row only, so the column-first rule pivoted there
    # first, on row 2, and then at columns 2 and 0, leaving 1 and 4 free.
    # Row 0 is the shortest, so the row-first rule pivots on it, at column
    # 0 (both of its columns are in two rows; the lower wins). That leaves
    # row 1 as {1: 1, 2: 1}, whose column 1 is now in it alone; row 2's
    # columns are each in one row, so the lowest, 2, is its pivot.
    rows = [{0: 1, 1: 1}, {0: 1, 1: 2, 2: 1}, {2: 1, 3: 1, 4: 1}]
    steps, reduced = linalg._eliminate(rows, _PRIMES[0])
    assert steps == [(0, 0), (1, 1), (2, 2)]
    assert reduced == [{0: 1, 1: 1}, {1: 1, 2: 1}, {2: 1, 3: 1, 4: 1}]
    got = sparse_nullspace(rows, 5)
    want = [{3: 1, 0: -1, 1: 1, 2: -1}, {4: 1, 0: -1, 1: 1, 2: -1}]
    assert _same(got, want)
    assert _same(got, _reference_sparse_nullspace(rows, 5))
    assert _same(got, _exact_sparse_nullspace(rows, 5))


def test_the_twentieth_level_vacuum_system_freezes_few_entries():
    # the column-first rule froze pivot rows holding 1233 entries here
    work, ncols = _vacuum_system(3)
    assert (len(work), ncols) == (193, 137)
    steps, reduced = linalg._eliminate(work, _PRIMES[0])
    assert sum(len(reduced[ri]) for _, ri in steps) <= 400


def test_the_first_two_primes_pick_the_same_pivot_columns():
    # sparse_nullspace joins the residues of two primes only when their
    # searches leave the same free columns
    systems = [_cleared(rows) for rows, _ in _random_corpus()]
    systems += [_vacuum_system(m)[0] for m in (1, 2, 3)]
    for work in systems:
        p_steps, q_steps = (linalg._eliminate(work, p)[0] for p in _PRIMES[:2])
        assert [col for col, _ in p_steps] == [col for col, _ in q_steps], work


# ---------------------------------------------------------------------------
# row spans and inverses against dense Gauss-Jordan
# ---------------------------------------------------------------------------

_SPARSE_ROWS = st.lists(
    st.dictionaries(st.integers(0, 5), st.integers(-2, 2).map(Fraction), max_size=4),
    max_size=9)


@given(_SPARSE_ROWS, st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_rowspan_pivot_rows_do_not_depend_on_insertion_order(rows, rnd):
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    spans = []
    for order in (rows, shuffled):
        span = RowSpan()
        for row in order:
            span.add(row)
        spans.append(span)
    first, second = spans
    assert first.pivot_keys == second.pivot_keys
    for key in first.pivot_keys:
        row = first.pivot_row(key)
        assert row == second.pivot_row(key)
        assert max(row) == key and row[key] == 1
        assert not (first.pivot_keys - {key}) & set(row)


@lru_cache(maxsize=None)
def _reference_level_coordinates(c, h, level, vacuum):
    """(basis, rows, inverse, projection) by the earlier dense route."""
    gram = gram_matrix(c, h, level, vacuum)
    full = gram.basis
    span = RowSpan()
    kept = [j for j in range(len(full)) if span.add({i: gram.entries[i][j] for i in range(len(full))})]
    if not kept:
        return (), (), (), {mu: () for mu in full}
    m_cols = [[gram.entries[i][j] for j in kept] for i in range(len(full))]
    transpose = [[m_cols[i][t] for i in range(len(full))] for t in range(len(kept))]
    _, pivot_rows = _reference_rref_dense(transpose)
    square = [m_cols[i] for i in pivot_rows]
    k = len(kept)
    aug = [row + [Fraction(1 if i == j else 0) for j in range(k)] for i, row in enumerate(square)]
    red, pivots = _reference_rref_dense(aug)
    assert pivots[:k] == list(range(k))
    inverse = tuple(tuple(red[i][k:]) for i in range(k))
    projection = {}
    for j, mu in enumerate(full):
        col = (sum((inv[t] * gram.entries[i][j] for t, i in enumerate(pivot_rows)), Fraction(0))
               for inv in inverse)
        projection[mu] = tuple((s, p) for s, p in enumerate(col) if p != 0)
    return tuple(full[j] for j in kept), tuple(pivot_rows), inverse, projection


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_level_coordinates_match_the_dense_route(m):
    model = minimal_model(m)
    for h in model.distinct_weights():
        for level in range(10):
            lc = level_coordinates(model.c, h, level, h == 0)
            basis, _, _, projection = _reference_level_coordinates(model.c, h, level, h == 0)
            assert (lc.basis, lc.projection) == (basis, projection), (h, level)


def _reference_coords(lc, rows, inverse, vec):
    """The earlier coords: G v on the kept rows, then the inverse of the kept minor."""
    gram = gram_matrix(lc.c, lc.h, lc.level, lc.vacuum)
    idx = {mu: i for i, mu in enumerate(lc.full_basis)}
    gv = [sum((gram.entries[i][idx[mu]] * co for mu, co in vec.entries.items()), Fraction(0))
          for i in rows]
    return [sum((a * b for a, b in zip(row, gv)), Fraction(0)) for row in inverse]


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_projected_coords_match_the_inverse_route(m):
    rng = random.Random(4100 + m)
    model = minimal_model(m)
    for h in model.distinct_weights():
        vacuum = h == 0
        for level in range(10):
            lc = level_coordinates(model.c, h, level, vacuum)
            _, rows, inverse, _ = _reference_level_coordinates(model.c, h, level, vacuum)
            for _ in range(3):
                entries = {mu: rng.randint(-9, 9) for mu in lc.full_basis}
                vec = VermaVector(verma_module(model.c, h, vacuum), entries)
                want = _reference_coords(lc, rows, inverse, vec)
                assert irreducible_coordinates(vec) == {(level, t): co for t, co in enumerate(want) if co}, \
                    (h, level, entries)
            for s, mu in enumerate(lc.basis):
                assert irreducible_coordinates(verma_monomial(model.c, h, mu, vacuum)) == {(level, s): 1}
