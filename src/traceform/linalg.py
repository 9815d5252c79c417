"""Exact linear algebra over the rationals.

Two elimination engines serve the package. RowSpan is an incremental row
space over Q with sparse Gauss-Jordan pivots on {key: Fraction} rows; every
rank and solve goes through it, and its pivot rows are the reduced row
echelon form that Gram coordinates are read from. A solve needs no dense
matrix: mde gives each unknown's row a tag key below every other key, so the
tags of a reduced vector record the row operations that reduced it.
sparse_nullspace is the batch kernel of the Virasoro singular vector solves
(worst case 1039 columns, for the m = 4 vacuum vector). Each pivot is the
shortest live row, at its column with the fewest active rows: a row-first
form of Markowitz's rule. Action matrices of single modes are very sparse,
and this rule keeps the fill-in small, which is what makes those solves
affordable; at level 30 of m = 4 its pivot rows hold a tenth of the entries
that a column-first rule left in them. It eliminates modulo a 127-bit prime,
so entries stay below 2^127 instead of growing to hundreds of bits, and
reads the kernel back by rational reconstruction (Wang; Monagan, ISSAC
2004); the kernel is certified exactly over the integers before it is
returned. A kernel that needs more bits than one prime holds is joined over
further primes by the Chinese remainder theorem, each prime with a pivot
search of its own (the modular frame of Dixon, Numer. Math. 1982, with CRT
in place of p-adic lifting).

_frac and _RationalLike are the rational coercion every layer shares, and
_CommonDenominator brings a list of rationals to integer numerators over
their least common denominator for every integer kernel of the package.
rational_roots finds the roots over Q of the Zhu polynomials and of the
indicial polynomials of mde.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, isqrt, lcm
from typing import Hashable, Iterable, Mapping

_RationalLike = Fraction | int


def _frac(x: _RationalLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class _CommonDenominator:
    """Rationals held as integer numerators nums over one denominator den.

    The constructor clears a batch to its least common denominator with one
    lcm. Series products and q-expansions, the integer kernels here and in
    zhu and elliptic, and the inputs of qseries.pow_rational and
    mde.frobenius_solve take integer dot products of these numerators
    instead of normalising a Fraction at every step.
    """

    __slots__ = ("nums", "den")

    def __init__(self, values: Iterable[_RationalLike]) -> None:
        values = list(values)
        self.den = lcm(*(v.denominator for v in values))
        self.nums = [v.numerator * (self.den // v.denominator) for v in values]


# 127-bit primes, 2^127 - 1 first. One prime covers a kernel whose entries
# have numerators and denominators below 2^63; each further prime in the CRT
# adds 127 bits.
_PRIMES = tuple(2**127 - k for k in (1, 25, 39, 295, 309, 507, 511, 577, 697, 735, 801, 957,
                                     1081, 1105, 1141, 1201, 1231, 1447, 1485, 1495, 1741, 1747,
                                     2197, 2437))


_Step = tuple[int, int]   # pivot column, pivot row


def _eliminate(work: list[dict[int, int]], p: int) -> tuple[list[_Step], list[dict[int, int]]]:
    """Eliminate the integer rows modulo p; return the pivot steps and the rows.

    Each step pivots on the shortest live row, the lowest index on ties, at
    its column with the fewest active rows, the lowest column on ties. This
    restricts the Markowitz cost (r - 1)(c - 1) (Markowitz, Management
    Science 1957) to the shortest rows, and keeps the fill-in of the action
    matrices small. The live rows wait in a heap keyed by (length, index);
    an update that changes a row's length pushes it again, a key that no
    longer matches its row is dropped when it surfaces, and rows that become
    empty leave the live set.

    A pivot row is scaled to 1 at its pivot and frozen once chosen, so an
    update is one multiply-subtract modulo p per entry of the pivot row, and
    only those entries change which active rows a column holds.
    """
    rows = [{c: v % p for c, v in row.items()} for row in work]
    active_at: dict[int, set[int]] = {}   # column -> active rows holding it
    for i, row in enumerate(rows):
        for c in row:
            active_at.setdefault(c, set()).add(i)
    live = sorted((len(row), i) for i, row in enumerate(rows) if row)   # a sorted list is a heap
    frozen: set[int] = set()
    pivots: list[_Step] = []
    while live:
        length, pr = heappop(live)
        prow = rows[pr]
        if length != len(prow) or pr in frozen:
            continue
        col = min(prow, key=lambda c: (len(active_at[c]), c))
        inv = pow(prow[col], -1, p)
        if inv != 1:
            prow = rows[pr] = {c: v * inv % p for c, v in prow.items()}
        for c in prow:
            active_at[c].discard(pr)
        frozen.add(pr)
        for i in list(active_at[col]):
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
            if row and len(row) != before:
                heappush(live, (len(row), i))
        pivots.append((col, pr))
    return pivots, rows


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
    prime of _PRIMES that divides no entry, with the row-first pivot rule
    of _eliminate. Back substitution gives the kernel modulo p, and
    each entry is recovered by rational reconstruction. The result is then
    certified exactly: every cleared row must annihilate every vector, as an
    integer dot product over the vector's common denominator. Since the rank
    modulo p is at most the rank over Q, the certified vectors, independent
    through their free coordinates, are a basis of the kernel over Q, and
    each is the unique kernel vector with its free coordinates. If
    reconstruction or the certificate fails, the next usable prime gets a
    pivot search of its own. When its free columns equal those of the
    earlier primes, each free column names the same rational vector, so its
    residues join theirs by the Chinese remainder theorem, in the key order
    of the first; otherwise the residues start over at this prime.
    """
    work = []
    for row in rows:
        cleared = {c: v for c, v in zip(row, _CommonDenominator(row.values()).nums) if v}
        if cleared:
            work.append(cleared)

    free: list[int] | None = None
    residues: list[list[int]] = []
    modulus = 1
    for p in _PRIMES:
        if any(v % p == 0 for row in work for v in row.values()):
            continue
        pivots, reduced = _eliminate(work, p)
        pivot_set = {col for col, _ in pivots}
        found = [c for c in range(ncols) if c not in pivot_set]
        if found != free:
            free, pivot_cols, residues, modulus = found, [col for col, _ in pivots], [], 1
        # a pivot row holds only its own column, later pivots and free columns
        backward = [(col, reduced[ri]) for col, ri in reversed(pivots)]
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
        scaled = dict(zip(vec, _CommonDenominator(vec.values()).nums))
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


def _poly_trim(a: list) -> list:
    while len(a) > 1 and a[-1] == 0:
        a = a[:-1]
    return a


def _divisors(n: int) -> list[int]:
    """Positive divisors of n != 0, ascending.

    Trial division divides out each prime factor as it is found, so the loop
    ends once d^2 exceeds what is left of n. The Zhu polynomials' leading
    coefficients are products of small primes (2^18 3^3 7^10 at m = 4) and
    factor in a few steps, where counting d up to sqrt(n) took seconds.
    """
    n = abs(n)
    out = [1]
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out = [x * d**k for x in out for k in range(e + 1)]
        d += 1
    if n > 1:
        out += [x * n for x in out]
    return sorted(out)


def _deflate(poly: list[int], p: int, q: int) -> list[int]:
    """Divide by (q x - p) over Z; by Gauss's lemma p/q in lowest terms leaves no remainder."""
    out = [0] * (len(poly) - 1)
    carry = poly[-1]
    for i in range(len(poly) - 2, -1, -1):
        out[i], rem = divmod(carry, q)
        if rem:
            raise ValueError("not a root")
        carry = poly[i] + p * out[i]
    if carry != 0:
        raise ValueError("not a root")
    return out


def _vanishes_at(poly: list[int], p: int, q: int) -> bool:
    """Whether sum_i a_i p^i q^(d-i), q^d times poly(p/q), is zero."""
    acc, qpow = 0, 1
    for co in reversed(poly):
        acc = acc * p + co * qpow
        qpow *= q
    return acc == 0


def rational_roots(poly: tuple[Fraction, ...]) -> tuple[list[tuple[Fraction, int]], int]:
    """All rational roots with multiplicity, plus the degree of the rootless rest.

    Works on the integer numerators of poly over one denominator: a root
    p/q in lowest terms has p dividing the constant and q the leading
    coefficient, each candidate is tested as an integer, and each root found
    is divided out over Z.
    """
    work = _CommonDenominator(_poly_trim(list(poly))).nums
    roots: dict[Fraction, int] = {}
    while len(work) > 1 and work[0] == 0:
        roots[Fraction(0)] = roots.get(Fraction(0), 0) + 1
        work = work[1:]
    while len(work) > 1:
        leading = _divisors(work[-1])
        found = next(((s * p, q) for p in _divisors(work[0]) for q in leading
                      if gcd(p, q) == 1 for s in (1, -1) if _vanishes_at(work, s * p, q)), None)
        if found is None:
            break
        root = Fraction(*found)
        roots[root] = roots.get(root, 0) + 1
        work = _deflate(work, *found)
    return sorted(roots.items()), len(work) - 1
