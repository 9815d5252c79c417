"""Zhu algebra of the universal Virasoro vertex algebra.

For homogeneous a of weight w the bilinear operations on V are

    a . u   = sum_{i=0}^{w}   C(w, i)   a(i-1) u      (the Zhu product)
    u * a   = sum_{i>=0}      C(w-1, i) a(i-1) u      (the opposite side)
    o(a, u) = sum_{i=0}^{w}   C(w, i)   a(i-2) u      (spans O(V))

and A(V) = V / O(V). The sum for u * a stops at i = w - 1 for w >= 1; at
w = 0, a is a multiple of the vacuum, whose only nonzero mode is a(-1), and
the binomial is the generalized C(-1, 0) = 1. For the vacuum Virasoro
algebra A(V) is the polynomial ring Q[x] with x the class of the conformal
vector. Membership of L(-3-n)b + 2L(-2-n)b + L(-1-n)b in O(V) for every
n >= 0 (the weight-shifted residue elements built from the conformal vector)
collapses any PBW monomial class to the closed form

    [L(-M) b] = (-1)^M ((M-1) x + wt b) [b],    M >= 1,

which class_polynomial implements. In particular [L(-1)b] = -wt(b) [b] and
[L(-2)b] = (x + wt b)[b]; OSpace exposes the direct truncated span so those
reduction relations can be checked against it rather than assumed.

zhu_poly(m) reads the level of the first vacuum singular vector of the
(p, q) = (m+2, m+3) minimal model off the Kac determinant, (p-1)(q-1), and
solves for that vector at that one level. Its class reduces to a monic
polynomial g whose roots recover the Kac weight table. The truncated ideal
span of its descendant classes [L(-mu) alpha] is built in closed form: each
is [alpha] times one linear factor per part of mu, by the same reduction rule.

The polynomial work runs over integers. class_polynomial clears the
vector's denominators once and divides by that one denominator at the end;
the ideal span is a fraction-free echelon keyed by degree that divides once,
to make its least element monic; and rational_roots tests each candidate
p/q as an integer and divides it out over Z. Only results leave as Fraction.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm

from . import virasoro
from .linalg import RowSpan, _RationalLike, _frac
from .virasoro import Partition, VermaVector, _gbinom, _sum_scaled, l_action, mode_action, minimal_model


def _require_vacuum(a: VermaVector) -> None:
    if not a.vacuum:
        raise ValueError("the left factor must live in the vacuum vertex algebra")


def a_dot_u(a: VermaVector, u: VermaVector) -> VermaVector:
    """Zhu product a . u, linear in both arguments."""
    _require_vacuum(a)
    return _sum_scaled(u, ((comb(w, i), mode_action(piece, i - 1, u))
                           for w, piece in a.level_components().items() for i in range(w + 1)))


def u_star_a(u: VermaVector, a: VermaVector) -> VermaVector:
    """Opposite-side product u * a, with u * 1 = u.

    The difference a . u - u * a is exactly sum_{j>=0} C(wt a - 1, j) a(j) u,
    summed over the homogeneous pieces of a.
    """
    _require_vacuum(a)
    return _sum_scaled(u, ((_gbinom(w - 1, i), mode_action(piece, i - 1, u))
                           for w, piece in a.level_components().items() for i in range(max(w, 1))))


def o_elem(a: VermaVector, u: VermaVector) -> VermaVector:
    """A single spanning element of O(V): sum_i C(w,i) a(i-2)u."""
    _require_vacuum(a)
    return _sum_scaled(u, ((comb(w, i), mode_action(piece, i - 2, u))
                           for w, piece in a.level_components().items() for i in range(w + 1)))


# ---------------------------------------------------------------------------
# classes in A(V) as polynomials in x = [omega]
# ---------------------------------------------------------------------------

def _cleared(poly: Iterable[_RationalLike]) -> list[int]:
    """Integer numerators of poly over the least common denominator."""
    poly = list(poly)
    denom = lcm(*(co.denominator for co in poly))
    return [co.numerator * (denom // co.denominator) for co in poly]


def _poly_trim(a: list) -> list:
    while len(a) > 1 and a[-1] == 0:
        a = a[:-1]
    return a


def _descend(poly: list[int], mu: tuple[int, ...], wt: int) -> list[int]:
    """[L(-mu) b] from [b] = poly and wt b, one reduction factor per part.

    Parts act from the right, so the factor of each part sees wt b plus the
    parts to its right.
    """
    for m_part in reversed(mu):
        sign = -1 if m_part % 2 else 1
        const, slope = sign * wt, sign * (m_part - 1)
        out = [const * co for co in poly] + [0]
        for i, co in enumerate(poly):
            out[i + 1] += slope * co
        poly = out
        wt += m_part
    return poly


def class_polynomial(vec: VermaVector) -> list[Fraction]:
    """[vec] in A(V) = Q[x], coefficients ascending in x.

    Applies [L(-M) b] = (-1)^M ((M-1)x + wt b)[b] factor by factor to each
    PBW monomial of vec, over the integer numerators of vec's coefficients
    cleared to one denominator, which divides out at the end.
    """
    _require_vacuum(vec)
    denom = lcm(*(co.denominator for co in vec.entries.values()))
    acc = [0]
    for mu, co in vec.entries.items():
        poly = _descend([co.numerator * (denom // co.denominator)], mu, 0)
        acc.extend([0] * (len(poly) - len(acc)))
        for i, a in enumerate(poly):
            acc[i] += a
    return [Fraction(a, denom) for a in _poly_trim(acc)]


# ---------------------------------------------------------------------------
# direct truncated picture of O(V)
# ---------------------------------------------------------------------------

class OSpace:
    """Truncated span of O(V) inside the irreducible vacuum algebra L(c,0).

    Generators o(a, u) are included once their top level l(a)+l(u)+1 fits
    under the truncation; quotient_dims[T] is dim L(c,0)_{<=T} modulo the
    generators available by level T, so a stabilizing tail is visible and a
    too-small truncation shows up honestly as a larger dimension.
    """

    def __init__(self, c: _RationalLike, trunc: int):
        self.c = _frac(c)
        self.trunc = trunc
        self._coords = [virasoro.level_coordinates(self.c, 0, l, vacuum=True)
                        for l in range(trunc + 1)]
        self.module_dims = [lc.dim for lc in self._coords]
        basis = [lc.basis for lc in self._coords]
        self._module = virasoro.verma_module(self.c, Fraction(0), True)
        gens_by_top: dict[int, list[VermaVector]] = {}
        for la in range(2, trunc + 1):
            for mu in basis[la]:
                a = self._module.monomial(mu)
                for lu in range(0, trunc - la):
                    for nu in basis[lu]:
                        u = self._module.monomial(nu)
                        gens_by_top.setdefault(la + lu + 1, []).append(o_elem(a, u))
        self._span = RowSpan()
        self.quotient_dims: list[int] = []
        total = 0
        for top in range(trunc + 1):
            total += self.module_dims[top]
            for w in gens_by_top.get(top, []):
                self._span.add(self.coords(w))
            self.quotient_dims.append(total - self._span.rank)

    @property
    def rank(self) -> int:
        return self._span.rank

    def coords(self, vec: VermaVector) -> dict[tuple[int, int], Fraction]:
        """Concatenated irreducible coordinates keyed by (level, index)."""
        top = max(map(sum, vec.entries), default=0)
        if top > self.trunc:
            raise ValueError(f"vector reaches level {top}, truncation is {self.trunc}")
        return virasoro.irreducible_coordinates(vec)

    def reduce(self, vec: VermaVector) -> dict[tuple[int, int], Fraction]:
        return self._span.reduce(self.coords(vec))

    def contains(self, vec: VermaVector) -> bool:
        return not self.reduce(vec)

    def quotient_basis(self, level_cap: int | None = None) -> list[tuple[int, int]]:
        """Non-pivot coordinate keys: a basis of the truncated quotient."""
        cap = self.trunc if level_cap is None else level_cap
        pivots = self._span.pivot_keys
        keys = []
        for lvl in range(cap + 1):
            for i in range(self.module_dims[lvl]):
                if (lvl, i) not in pivots:
                    keys.append((lvl, i))
        return keys

    def x_matrix(self, level_cap: int) -> tuple[list[tuple[int, int]], list[list[Fraction]]]:
        """Matrix of multiplication by [omega] on the truncated quotient.

        Needs every quotient basis key at level <= level_cap and the images
        to stay inside the same key set; raises if the truncation is too
        tight for that closure.
        """
        keys = self.quotient_basis()
        if any(lvl > level_cap for lvl, _ in keys):
            raise ValueError("quotient basis reaches above level_cap; raise the truncation")
        omega = self._module.monomial((2,))
        index = {k: t for t, k in enumerate(keys)}
        cols: list[list[Fraction]] = []
        for lvl, i in keys:
            rep = self._module.monomial(self._coords[lvl].basis[i])
            red = self._span.reduce(self.coords(a_dot_u(omega, rep)))
            col = [Fraction(0)] * len(keys)
            for key, co in red.items():
                if key not in index:
                    raise ValueError("omega action leaves the truncated quotient; raise the truncation")
                col[index[key]] = co
            cols.append(col)
        matrix = [[cols[j][i] for j in range(len(keys))] for i in range(len(keys))]
        return keys, matrix


# ---------------------------------------------------------------------------
# the Zhu polynomial of a minimal model
# ---------------------------------------------------------------------------

def _monic(poly: list[Fraction]) -> tuple[Fraction, ...]:
    poly = _poly_trim(list(poly))
    lead = poly[-1]
    if lead == 0:
        return (Fraction(0),)
    return tuple(co / lead for co in poly)


def _divisors(n: int) -> list[int]:
    """Positive divisors of n != 0, ascending.

    Trial division divides out each prime factor as it is found, so the loop
    ends once d^2 exceeds what is left of n. The leading coefficients here
    are products of small primes (2^18 3^3 7^10 at m = 4) and factor in a
    few steps, where counting d up to sqrt(n) took seconds.
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
    work = _cleared(_poly_trim(list(poly)))
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


@dataclass(frozen=True)
class ZhuPoly:
    """Monic image of the first vacuum singular vector in A(V) = Q[x].

    stabilization maps each truncation to the minimal monic polynomial of
    the ideal span there. Every descendant class is [alpha] times a
    polynomial and [alpha] itself is in the span, so that polynomial is
    coeffs at every truncation and stabilized holds by construction; the
    field stays as the cross-check of the closed-form ideal against g.
    """

    m: int
    c: Fraction
    singular_level: int
    trunc: int
    coeffs: tuple[Fraction, ...]                 # ascending, monic
    stabilization: dict[int, tuple[Fraction, ...]]  # trunc -> ideal generator
    roots: tuple[tuple[Fraction, int], ...]
    complete: bool                               # True if the polynomial split over Q

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def stabilized(self) -> bool:
        vals = list(self.stabilization.values())
        return all(v == vals[0] for v in vals)

    def root_set(self) -> tuple[Fraction, ...]:
        return tuple(r for r, _ in self.roots)


def _singular_level(m: int) -> int:
    """(p-1)(q-1) for (p, q) = (m+2, m+3): the first vacuum null level."""
    return (m + 1) * (m + 2)


def _find_vacuum_singular(m: int) -> VermaVector:
    """The singular vector of L(c,0)-to-be at the level the Kac table predicts.

    For the (p, q) minimal model the vacuum Verma module, with L(-1)1 already
    divided out, first degenerates at level (p-1)(q-1) (the Kac determinant;
    Feigin-Fuchs), so one kernel solve there replaces a level-by-level scan.
    The solve must find exactly one vector, and singular_vectors checks that
    L(1) and L(2) annihilate it.
    """
    level = _singular_level(m)
    found = virasoro.singular_vectors(minimal_model(m).c, 0, level, vacuum=True)
    if len(found) != 1:
        raise AssertionError(f"expected one singular vector at level {level}, found {len(found)}")
    return found[0]


def _span_generator(polys: Iterable[list[_RationalLike]]) -> tuple[Fraction, ...]:
    """Minimal monic polynomial in the span of polys (ascending coefficients).

    A fraction-free echelon keyed by degree: each poly is cleared to
    integers and reduced against the stored row of its leading degree by
    cross-multiplying the leading coefficients, with every row divided by
    the gcd of its entries. The span's elements of least degree are the
    multiples of the row of the least stored degree, which one division
    makes monic.
    """
    rows: dict[int, list[int]] = {}
    for poly in polys:
        row = _poly_trim(_cleared(poly))
        while row[-1]:
            deg = len(row) - 1
            pivot = rows.get(deg)
            g = gcd(*row)
            row = [co // g for co in row]
            if pivot is None:
                rows[deg] = row
                break
            a, b = pivot[deg], row[deg]
            g = gcd(a, b)
            row = _poly_trim([a // g * x - b // g * y for x, y in zip(row, pivot)])
    if not rows:
        raise AssertionError("descendant classes span nothing")
    row = rows[min(rows)]
    return tuple(Fraction(co, row[-1]) for co in row)


def _ideal_min_poly(alpha_class: list[Fraction], level: int, trunc: int) -> tuple[Fraction, ...]:
    """Minimal monic polynomial in the span of descendant classes of alpha.

    alpha_class is [alpha], for alpha of weight level. Spans [L(-mu) alpha]
    over all partitions mu with level + |mu| <= trunc, each built in closed
    form as [alpha] times the reduction factors of the parts of mu; every
    such class is a polynomial multiple of [alpha], so the minimum degree
    element of the span is the stabilized generator.
    """
    alpha = _cleared(alpha_class)
    return _span_generator(_descend(alpha, mu, level)
                           for extra in range(trunc - level + 1)
                           for mu in virasoro.partitions_of(extra))


def _ideal_min_poly_by_l_action(alpha: VermaVector, level: int, trunc: int) -> tuple[Fraction, ...]:
    """Reference route for _ideal_min_poly: each L(-mu) alpha built by l_action.

    Far slower (at m = 3 it takes seconds where the closed form takes
    milliseconds); the tests keep it to check the closed form against.
    """
    def descendant_class(mu: Partition) -> list[Fraction]:
        vec = alpha
        for part in reversed(mu):
            vec = l_action(-part, vec)
        return class_polynomial(vec)

    return _span_generator(descendant_class(mu)
                           for extra in range(trunc - level + 1)
                           for mu in virasoro.partitions_of(extra))


def zhu_poly(m: int, trunc: int | None = None) -> ZhuPoly:
    """Zhu polynomial of the (m+2, m+3) minimal model central charge.

    Checks the truncation against the predicted singular level before any
    solve, finds the singular vector there, reduces its class to a monic
    polynomial, and reports the minimal polynomial of the truncated ideal
    span at trunc and trunc+2. The sorted distinct roots reproduce the Kac
    weight table.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    level = _singular_level(m)
    if trunc is None:
        trunc = level + 4
    if trunc < level:
        raise ValueError(f"truncation {trunc} is below the singular level {level}")
    alpha_class = class_polynomial(_find_vacuum_singular(m))
    g = _monic(alpha_class)
    stab = {t: _ideal_min_poly(alpha_class, level, t) for t in (trunc, trunc + 2)}
    roots, rest = rational_roots(g)
    return ZhuPoly(m, minimal_model(m).c, level, trunc, g, stab, tuple(roots), rest == 0)
