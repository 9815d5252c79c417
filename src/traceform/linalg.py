"""Exact linear algebra over the rationals.

Two elimination engines serve the package. RowSpan is an incremental row
space over Q with sparse Gauss-Jordan pivots on {key: Fraction} rows; every
rank and solve goes through it, and its pivot rows are the reduced row
echelon form that Gram coordinates are read from. sparse_nullspace is the
batch kernel of the Virasoro singular vector solves (worst case 1039
columns, for the m = 4 vacuum vector). It picks pivots by a minimum-degree
rule, which is what makes those solves affordable, since action matrices
of single modes are very sparse. It eliminates modulo a 127-bit prime, so
entries stay below 2^127 instead of growing to hundreds of bits, and reads
the kernel back by rational reconstruction (Wang; Monagan, ISSAC 2004); the
kernel is certified exactly over the integers before it is returned. A
kernel that needs more bits than one prime holds is joined over further
primes by the Chinese remainder theorem, each pass replaying the pivots of
the first (the modular frame of Dixon, Numer. Math. 1982, with CRT in place
of p-adic lifting).

_frac and _RationalLike are the rational coercion every layer shares, and
_cleared brings a list of rationals to integer numerators over their least
common denominator for the integer kernels here and in zhu.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, isqrt, lcm
from typing import Hashable, Iterable, Mapping, Sequence

_RationalLike = Fraction | int


def _frac(x: _RationalLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _cleared(values: Iterable[_RationalLike]) -> tuple[list[int], int]:
    """Integer numerators of values over their least common denominator, and that denominator."""
    values = list(values)
    denom = lcm(*(v.denominator for v in values))
    return [v.numerator * (denom // v.denominator) for v in values], denom


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


# 127-bit primes, 2^127 - 1 first. One prime covers a kernel whose entries
# have numerators and denominators below 2^63; each further prime in the CRT
# adds 127 bits.
_PRIMES = tuple(2**127 - k for k in (1, 25, 39, 295, 309, 507, 511, 577, 697, 735, 801, 957,
                                     1081, 1105, 1141, 1201, 1231, 1447, 1485, 1495, 1741, 1747,
                                     2197, 2437))


_Step = tuple[int, int, tuple[int, ...]]   # pivot column, pivot row, lengths of the updated rows


def _eliminate(work: list[dict[int, int]], p: int, replay: list[_Step] | None = None
               ) -> tuple[list[_Step], list[dict[int, int]]] | None:
    """Eliminate the integer rows modulo p; return the pivot steps and the rows.

    Without replay, the pivot is the column with the fewest active rows, then
    the shortest such row, then the column seen first in the input; within
    the column the row is the shortest, then the lowest index. Each column
    indexes its active rows, and its (count, shortest length) key sits in a
    heap that is refreshed only for the columns whose key may have changed:
    those of the pivot row and those of a row whose length changed. With
    replay, the steps of an earlier pass are taken in order, and None is
    returned if a pivot vanishes modulo p or an updated row comes out with
    another length, that is, an entry vanished modulo one of the two primes
    only. Since no input entry vanishes modulo either prime, equal lengths
    also mean that no row is left over.

    A pivot row is scaled to 1 at its pivot and frozen once chosen, so an
    update is one multiply-subtract modulo p per entry of the pivot row, and
    only those entries change which active rows a column holds.
    """
    rows = [{c: v % p for c, v in row.items()} for row in work]
    active_at: dict[int, set[int]] = {}   # column -> active rows holding it
    for i, row in enumerate(rows):
        for c in row:
            active_at.setdefault(c, set()).add(i)
    order = {c: t for t, c in enumerate(active_at)}
    stride = len(rows) + 1
    row_key = [len(row) * stride + i for i, row in enumerate(rows)]  # orders (length, index)

    heap: list[tuple[int, int, int, int]] = []   # (count, shortest, order, column)
    choice: dict[int, tuple[int, int, int]] = {}  # column -> (count, shortest, row)
    dirty: set[int] = set() if replay else set(active_at)
    steps = iter(replay or ())
    pivots: list[_Step] = []
    while True:
        if replay:
            step = next(steps, None)
            if step is None:
                return pivots, rows
            col, pr, lengths = step
            if not rows[pr].get(col):
                return None
        else:
            for c in dirty:
                live = active_at[c]
                if live:
                    ri = min(live, key=row_key.__getitem__)
                    key = (len(live), len(rows[ri]))
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
                return pivots, rows
            pr = choice[col][2]
        prow = rows[pr]
        inv = pow(prow[col], -1, p)
        if inv != 1:
            prow = rows[pr] = {c: v * inv % p for c, v in prow.items()}
        for c in prow:
            active_at[c].discard(pr)
        dirty.update(prow)
        updated = list(active_at[col])
        for i in updated:
            row = rows[i]
            before = len(row)
            f = p - row[col]
            for c, v in prow.items():
                old = row.get(c)
                if old is None:   # fill-in: f v is a unit modulo p
                    row[c] = f * v % p
                    active_at[c].add(i)
                else:
                    w = (old + f * v) % p
                    if w:
                        row[c] = w
                    else:
                        del row[c]
                        active_at[c].discard(i)
            if len(row) != before and not replay:
                row_key[i] = len(row) * stride + i
                dirty.update(row)
        after = tuple(len(rows[i]) for i in updated)
        if replay and after != lengths:
            return None
        pivots.append((col, pr, after))


def _rational(r: int, m: int, bound: int) -> Fraction | None:
    """The a/b = r modulo m with |a|, b <= bound, or None; unique when 2 bound^2 < m.

    Runs the extended Euclidean algorithm on (m, r) until the remainder
    drops to the bound (Wang's rational reconstruction).
    """
    r0, r1, s0, s1 = m, r, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def sparse_nullspace(rows: Iterable[Mapping[int, Fraction | int]],
                     ncols: int) -> list[dict[int, Fraction]]:
    """Right kernel basis of a sparse matrix given as {column: entry} rows.

    Returns kernel vectors as sparse {column: Fraction} dicts, one per free
    column, with the free coordinate set to 1 and then the nonzero pivot
    coordinates in pivot order.

    Each row is cleared of denominators once and eliminated modulo the first
    prime of _PRIMES that divides no entry, with the minimum-degree pivot
    rule of _eliminate. Back substitution gives the kernel modulo p, and
    each entry is recovered by rational reconstruction. The result is then
    certified exactly: every cleared row must annihilate every vector, as an
    integer dot product over the vector's common denominator. Since the rank
    modulo p is at most the rank over Q, the certified vectors, independent
    through their free coordinates, are a basis of the kernel over Q, and
    each is the unique kernel vector with its free coordinates. If
    reconstruction or the certificate fails, the next prime replays the same
    pivots and its residues join the earlier ones by the Chinese remainder
    theorem; if the replay fails modulo that prime, the search starts over
    there.
    """
    work = []
    for row in rows:
        nums, _ = _cleared(row.values())
        cleared = {c: v for c, v in zip(row, nums) if v}
        if cleared:
            work.append(cleared)

    pivots: list[_Step] | None = None
    residues: list[list[int]] = []
    modulus = 1
    for p in _PRIMES:
        if any(v % p == 0 for row in work for v in row.values()):
            continue
        found = _eliminate(work, p, pivots) if pivots else None
        if found is None:
            found = _eliminate(work, p)
            residues, modulus = [], 1
        pivots, reduced = found
        # a pivot row holds only its own column, later pivots and free columns
        pivot_cols = [col for col, _, _ in pivots]
        backward = [(col, reduced[ri]) for col, ri, _ in reversed(pivots)]
        pivot_set = set(pivot_cols)
        free = [c for c in range(ncols) if c not in pivot_set]
        lift = pow(modulus, -1, p)
        for k, f in enumerate(free):
            x = {f: 1}
            for col, row in backward:
                acc = sum(v * x[c] for c, v in row.items() if c in x) % p
                if acc:
                    x[col] = p - acc
            vec = [x.get(col, 0) for col in pivot_cols]
            if modulus == 1:
                residues.append(vec)
            else:
                residues[k] = [a + modulus * ((b - a) * lift % p) for a, b in zip(residues[k], vec)]
        modulus *= p
        basis = _certified(work, free, pivot_cols, residues, modulus)
        if basis is not None:
            return basis
    raise ArithmeticError("kernel not certified with the primes of _PRIMES")


def _certified(work: list[dict[int, int]], free: list[int], pivot_cols: list[int],
               residues: list[list[int]], modulus: int) -> list[dict[int, Fraction]] | None:
    """The reconstructed kernel vectors if every row annihilates each of them, else None."""
    bound = isqrt((modulus - 1) // 2)
    basis = []
    for f, res in zip(free, residues):
        vec = {f: Fraction(1)}
        for col, r in zip(pivot_cols, res):
            if r:
                q = _rational(r, modulus, bound)
                if q is None:
                    return None
                vec[col] = q
        nums, _ = _cleared(vec.values())
        scaled = dict(zip(vec, nums))
        for row in work:
            if sum(v * scaled.get(c, 0) for c, v in row.items()):
                return None
        basis.append(vec)
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
