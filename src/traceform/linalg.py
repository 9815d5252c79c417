"""Exact linear algebra over the rationals.

Everything in this package that needs a rank, kernel, or solve goes through
these helpers.  Matrices are small (a few hundred rows, worst case 1039
columns for the m = 4 vacuum singular vector), so the dense routines
are plain Gauss-Jordan over fractions.Fraction.  The sparse nullspace keeps
integer rows normalized by their gcd, which is what makes the deeper Virasoro
computations affordable: action matrices of single modes are very sparse.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from math import gcd
from typing import Hashable, Iterable, Mapping, Sequence

Vector = list[Fraction]
Matrix = list[list[Fraction]]


def _as_fraction_matrix(rows: Iterable[Sequence[Fraction | int]]) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def rref_dense(rows: Iterable[Sequence[Fraction | int]]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form. Returns (nonzero rows, pivot column indices)."""
    mat = _as_fraction_matrix(rows)
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def rank_dense(rows: Iterable[Sequence[Fraction | int]]) -> int:
    return len(rref_dense(rows)[1])


def solve_dense(rows: Iterable[Sequence[Fraction | int]],
                rhs: Sequence[Fraction | int]) -> Vector | None:
    """One solution of A x = b, or None if inconsistent. Free variables are set to 0."""
    mat = _as_fraction_matrix(rows)
    b = [Fraction(x) for x in rhs]
    if len(mat) != len(b):
        raise ValueError("dimension mismatch")
    if not mat:
        return []
    ncols = len(mat[0])
    aug = [row + [bb] for row, bb in zip(mat, b)]
    red, pivots = rref_dense(aug)
    for row, p in zip(red, pivots):
        if p == ncols:
            return None
    x = [Fraction(0)] * ncols
    for row, p in zip(red, pivots):
        x[p] = row[ncols]
    return x


def _normalize_int_row(row: dict[int, int]) -> dict[int, int]:
    if not row:
        return row
    g = gcd(*row.values())
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


def sparse_nullspace(rows: Iterable[Mapping[int, Fraction | int]],
                     ncols: int) -> list[dict[int, Fraction]]:
    """Right kernel basis of a sparse matrix given as {column: entry} rows.

    Elimination with a minimum-degree pivot heuristic on integer-cleared rows.
    Returns kernel vectors as sparse {column: Fraction} dicts, one per free
    column, with the free coordinate set to 1.

    The pivot is the column with the fewest active rows, then the shortest
    such row, then the column seen first in the input; within the column the
    row is the shortest, then the lowest index. Each column indexes its
    active rows, and its (count, shortest length) key sits in a heap that is
    refreshed only for the columns whose active rows changed. A pivot row is
    frozen once chosen: only active rows are eliminated, and the kernel
    vectors come from back substitution through the pivot rows in reverse.
    """
    work: list[dict[int, int]] = []
    for row in rows:
        cleared: dict[int, int] = {}
        denom = 1
        for v in row.values():
            f = Fraction(v)
            denom = denom * f.denominator // gcd(denom, f.denominator)
        for c, v in row.items():
            f = Fraction(v) * denom
            if f != 0:
                cleared[c] = int(f)
        if cleared:
            work.append(_normalize_int_row(cleared))

    active_at: dict[int, set[int]] = {}   # column -> active rows holding it
    for i, row in enumerate(work):
        for c in row:
            active_at.setdefault(c, set()).add(i)
    order = {c: t for t, c in enumerate(active_at)}
    stride = len(work) + 1
    row_key = [len(row) * stride + i for i, row in enumerate(work)]  # orders (length, index)

    heap: list[tuple[int, int, int, int]] = []   # (count, shortest, order, column)
    choice: dict[int, tuple[int, int, int]] = {}  # column -> (count, shortest, row)
    dirty: set[int] = set(active_at)
    pivot_of: dict[int, int] = {}  # column -> its frozen pivot row
    while True:
        for c in dirty:
            live = active_at[c]
            if live:
                ri = min(live, key=row_key.__getitem__)
                key = (len(live), len(work[ri]))
                choice[c] = key + (ri,)
                heappush(heap, key + (order[c], c))
            else:
                choice.pop(c, None)
        dirty.clear()
        while heap:
            cnt, short, _, col = heap[0]
            cur = choice.get(col)
            if cur is not None and cur[0] == cnt and cur[1] == short:
                break
            heappop(heap)
        if not heap:
            break
        pr = choice[col][2]
        prow = work[pr]
        for c in prow:
            active_at[c].discard(pr)
        dirty.update(prow)
        pval = prow[col]
        for i in list(active_at[col]):
            row = work[i]
            for c in row:
                active_at[c].discard(i)
            g = gcd(pval, row[col])
            a, b = pval // g, row[col] // g
            new = {c2: a * v for c2, v in row.items()} if a != 1 else dict(row)
            for c2, v in prow.items():
                w = new.get(c2, 0) - b * v
                if w:
                    new[c2] = w
                else:
                    del new[c2]
            new = _normalize_int_row(new)
            work[i] = new
            row_key[i] = len(new) * stride + i
            for c in new:
                active_at[c].add(i)
            dirty.update(row)
            dirty.update(new)
        pivot_of[col] = pr

    # a pivot row holds only its own column, later pivots and free columns
    backward = list(pivot_of.items())[::-1]
    basis: list[dict[int, Fraction]] = []
    for f in (c for c in range(ncols) if c not in pivot_of):
        x: dict[int, Fraction] = {f: Fraction(1)}
        for col, ri in backward:
            row = work[ri]
            acc = sum(v * x[c] for c, v in row.items() if c in x)
            if acc:
                x[col] = -acc / row[col]
        basis.append({f: x[f], **{col: x[col] for col in pivot_of if col in x}})
    return basis


class RowSpan:
    """Incrementally built row space over Q with sparse Gauss-Jordan pivots.

    Vectors are {key: Fraction} dicts over any totally ordered hashable keys.
    reduce() eliminates every known pivot from a vector; add() returns True if
    the vector enlarged the span.
    """

    def __init__(self) -> None:
        self._pivots: dict[Hashable, dict[Hashable, Fraction]] = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    @property
    def pivot_keys(self) -> set[Hashable]:
        return set(self._pivots)

    def pivot_row(self, key: Hashable) -> dict[Hashable, Fraction]:
        """The stored row whose pivot is key (leading coefficient 1)."""
        return dict(self._pivots[key])

    def reduce(self, vec: Mapping[Hashable, Fraction]) -> dict[Hashable, Fraction]:
        out = {k: Fraction(v) for k, v in vec.items() if v != 0}
        while True:
            hit = next((k for k in out if k in self._pivots), None)
            if hit is None:
                return out
            f = out[hit]
            row = self._pivots[hit]
            for k, v in row.items():
                new = out.get(k, Fraction(0)) - f * v
                if new == 0:
                    out.pop(k, None)
                else:
                    out[k] = new

    def add(self, vec: Mapping[Hashable, Fraction]) -> bool:
        red = self.reduce(vec)
        if not red:
            return False
        pivot = max(red)
        inv = 1 / red[pivot]
        row = {k: v * inv for k, v in red.items()}
        for other in self._pivots.values():
            if pivot in other:
                f = other.pop(pivot)
                for k, v in row.items():
                    if k == pivot:
                        continue
                    new = other.get(k, Fraction(0)) - f * v
                    if new == 0:
                        other.pop(k, None)
                    else:
                        other[k] = new
        self._pivots[pivot] = row
        return True

    def contains(self, vec: Mapping[Hashable, Fraction]) -> bool:
        return not self.reduce(vec)
