"""Exact sparse kernels: the indexed pivot search against its reference.

sparse_nullspace keeps, per column, its active and its done rows apart and
refreshes pivot keys only where rows changed. _reference_sparse_nullspace
below is the earlier implementation, which rescans every column on every
pivot step; the pivot rule is the same, so both must return the same
kernel vectors, dict for dict and in the same order.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from traceform.linalg import sparse_nullspace
from traceform.virasoro import _action_rows, _basis_at, minimal_model


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
    while True:
        best = None
        for c, rows_here in col_rows.items():
            live = rows_here & active
            if not live:
                continue
            row_idx = min(live, key=lambda i: (len(work[i]), i))
            if best is None or (len(live), len(work[row_idx])) < (best[0], len(work[best[2]])):
                best = (len(live), c, row_idx)
        if best is None:
            break
        _, col, pr = best
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


def _annihilated(rows, vec):
    return all(sum(Fraction(v) * vec.get(c, 0) for c, v in row.items()) == 0 for row in rows)


def _same(got, want):
    return got == want and [list(v.items()) for v in got] == [list(v.items()) for v in want]


def test_random_sparse_matrices_match_the_reference():
    rng = random.Random(20240917)
    dims = []
    for _ in range(400):
        ncols = rng.randint(1, 16)
        rows = _random_rows(rng, rng.randint(0, 14), ncols, rng.uniform(0.1, 0.6))
        got = sparse_nullspace(rows, ncols)
        assert _same(got, _reference_sparse_nullspace(rows, ncols)), rows
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
        rows, ncols = _action_rows(c, h, level, vacuum, basis)
        got = sparse_nullspace(rows, ncols)
        assert _same(got, _reference_sparse_nullspace(rows, ncols)), level
        assert all(_annihilated(rows, v) for v in got)
