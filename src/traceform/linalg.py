"""Exact linear algebra over the rationals.

Two elimination engines serve the package. RowSpan is an incremental row
space over Q with sparse Gauss-Jordan pivots on {key: Fraction} rows; every
rank and solve goes through it, and its pivot rows are the reduced row
echelon form that Gram coordinates are read from. sparse_nullspace is the
batch kernel of the Virasoro singular vector solves (worst case 1039
columns, for the m = 4 vacuum vector): it keeps integer rows normalized by
their gcd and picks pivots by a minimum-degree rule, which is what makes
those solves affordable, since action matrices of single modes are very
sparse.

_frac and _RationalLike are the rational coercion every layer shares.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from math import gcd
from typing import Hashable, Iterable, Mapping, Sequence

_RationalLike = Fraction | int


def _frac(x: _RationalLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def solve_dense(rows: Iterable[Sequence[Fraction | int]],
                rhs: Sequence[Fraction | int]) -> list[Fraction] | None:
    """One solution of A x = b, or None if inconsistent. Free variables are set to 0.

    One RowSpan pass over [A | b]. Column j is key ncols - j and b is key 0,
    so pivots fall on the leftmost columns and the span ends up holding the
    reduced row echelon form of [A | b].
    """
    mat = [list(row) for row in rows]
    if len(mat) != len(rhs):
        raise ValueError("dimension mismatch")
    if not mat:
        return []
    ncols = len(mat[0])
    span = RowSpan()
    for row, b in zip(mat, rhs):
        span.add({ncols - j: v for j, v in enumerate(row)} | {0: b})
    if 0 in span._pivots:
        return None
    x = [Fraction(0)] * ncols
    for key, row in span._pivots.items():
        x[ncols - key] = row.get(0, Fraction(0))
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
