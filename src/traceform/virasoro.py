"""Highest-weight Virasoro modules in exact rational arithmetic.

Conventions:

* [L(m), L(n)] = (m-n) L(m+n) + (c/12)(m^3 - m) delta_{m+n,0}.
* A Verma vector is a finite Q-linear combination of PBW monomials
  L(-n_1)...L(-n_k) v_h with n_1 >= ... >= n_k >= 1, stored as a map from
  the partition (n_1, ..., n_k) to its coefficient.
* Partitions are ordered reverse-lexicographically, largest parts first:
  at level 4 the order is (4), (3,1), (2,2), (2,1,1), (1,1,1,1).
* vacuum=True means the module is M(c,0)/<L(-1)1>, the universal vacuum
  module: partitions containing a part 1 are zero there, so its PBW basis
  uses partitions with all parts >= 2. This quotient exists only at h = 0,
  and verma_module raises ValueError for any other h.

verma_module(c, h, vacuum) returns the one VermaModule of a module; it
memoises the tables keyed on partitions and levels only. A VermaVector
holds only its module, which holds c, h and vacuum, and its entries.

The tables hold Python ints wherever a coefficient is an integer by
construction, as the normal-ordering coefficients of L(-m) L(-mu) v are.
Fraction enters only through c and h, in the central term and in
L(0)v = h v. What leaves the module is coerced once:
VermaVector entries, Gram entries and coordinates are always Fractions.

The contravariant (Shapovalov) form has <v_h, v_h> = 1 and adjoint
L(n)^+ = L(-n). Gram matrix ranks give the graded dimensions of the
irreducible quotient, kernels at the right levels expose singular vectors,
and the induced coordinates on the irreducible quotient are what the Zhu
algebra, cofiniteness, and modular ODE layers compute in. They all read
them through irreducible_coordinates, keyed by (level, index).

l_action is the one action on a module. The vertex algebra is strongly
generated by omega, and the modes of a = L(-k)1 have the closed form
a(n) = C(k-n-3, k-2) L(n-k+1), from Y(L(-k)1, z) = d^(k-2) T(z)/(k-2)!,
so a(-2) = (k-1) L(-k-1). Translation covariance, (L(-1)a)(n) =
[L(-1), a(n)], reduces the zero modes and trace relations of every L(-k)1
to those of omega, so the C2,0 quotient below and the trace relations of
traceform.mde are built from L(-1)u and L(-3)u alone. L(-k)1 is nonzero
in L(c,0) exactly when c != 0, since <L(-k)1, L(-k)1> = c (k^3 - k)/12;
at c = 0 there are no generators.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from . import linalg
from .linalg import _RationalLike, _frac

Partition = tuple[int, ...]


@lru_cache(maxsize=None)
def partitions_of(n: int, min_part: int = 1, max_part: int | None = None) -> tuple[Partition, ...]:
    """All partitions of n with parts in [min_part, max_part], reverse-lex order."""
    if n < 0:
        return ()
    if n == 0:
        return ((),)
    top = n if max_part is None else min(max_part, n)
    out: list[Partition] = []
    for head in range(top, min_part - 1, -1):
        for rest in partitions_of(n - head, min_part, head):
            out.append((head,) + rest)
    return tuple(out)


# ---------------------------------------------------------------------------
# minimal model data
# ---------------------------------------------------------------------------

class MinimalModelData(NamedTuple):
    """Central charge and conformal weight table of the (m+2, m+3) minimal model."""

    m: int
    c: Fraction
    weights: dict[tuple[int, int], Fraction]

    def distinct_weights(self) -> tuple[Fraction, ...]:
        return tuple(sorted(set(self.weights.values())))


def minimal_model(m: int) -> MinimalModelData:
    """Unitary series member with c = 1 - 6/((m+2)(m+3)), m >= 1.

    Weights h_{r,s} = (((m+3)r - (m+2)s)^2 - 1) / (4(m+2)(m+3)) over the
    fundamental domain 1 <= s <= r <= m+1.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    p, q = m + 2, m + 3
    c = 1 - Fraction(6, p * q)
    weights: dict[tuple[int, int], Fraction] = {}
    for r in range(1, m + 2):
        for s in range(1, r + 1):
            weights[(r, s)] = Fraction((q * r - p * s) ** 2 - 1, 4 * p * q)
    return MinimalModelData(m, c, weights)


# ---------------------------------------------------------------------------
# Verma vectors
# ---------------------------------------------------------------------------

class VermaVector:
    """Element of a highest-weight module, keyed by PBW partitions.

    module is the VermaModule of the vector, shared with every vector built
    from it, and holds c, h and vacuum; equality compares its key and entries.
    """

    __slots__ = ("module", "entries")
    __hash__ = None

    def __init__(self, module: VermaModule, entries: dict[Partition, _RationalLike]):
        self.module = module
        self.entries = {mu: _frac(co) for mu, co in entries.items() if co != 0}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.module.key == other.module.key and self.entries == other.entries

    def _like(self, entries: dict[Partition, Fraction]) -> "VermaVector":
        """A vector of the same module."""
        return VermaVector(self.module, entries)

    def __add__(self, other):
        if not isinstance(other, VermaVector):
            return NotImplemented
        if self.module.key != other.module.key:
            raise ValueError("vectors live in different modules")
        out = dict(self.entries)
        for mu, co in other.entries.items():
            _acc(out, mu, co)
        return self._like(out)

    def __neg__(self):
        return self._like({mu: -co for mu, co in self.entries.items()})

    def __sub__(self, other):
        if not isinstance(other, VermaVector):
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return self._like({mu: co * scalar for mu, co in self.entries.items()})

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.entries

    def __repr__(self):
        terms = ", ".join(f"{mu}: {co}" for mu, co in sorted(self.entries.items(), reverse=True))
        c, h, vacuum = self.module.key
        return f"VermaVector(c={c}, h={h}{' vacuum' if vacuum else ''}, {{{terms}}})"


def verma_monomial(c: _RationalLike, h: _RationalLike, mu: Partition, vacuum: bool = False) -> VermaVector:
    return verma_module(_frac(c), _frac(h), bool(vacuum)).monomial(mu)


# ---------------------------------------------------------------------------
# the module object and its tables
# ---------------------------------------------------------------------------

# (partition, coefficient) pairs; a coefficient is an int unless c or h reached it
_Terms = tuple[tuple[Partition, _RationalLike], ...]


def _acc(out: dict[Partition, _RationalLike], mu: Partition, co: _RationalLike) -> None:
    new = out.get(mu, 0) + co
    if new == 0:
        out.pop(mu, None)
    else:
        out[mu] = new


@lru_cache(maxsize=None)
def _lower(m: int, mu: Partition) -> _Terms:
    """Normal ordering of L(-m) L(-mu) v as a PBW combination; pure combinatorics."""
    if not mu or m >= mu[0]:
        return (((m,) + mu, 1),)
    head, rest = mu[0], mu[1:]
    out: dict[Partition, int] = {}
    for nu, co in _lower(m, rest):
        for nu2, co2 in _lower(head, nu):
            _acc(out, nu2, co * co2)
    for nu, co in _lower(m + head, rest):
        _acc(out, nu, (head - m) * co)
    return tuple(out.items())


def _strip_ones(entries: dict[Partition, _RationalLike]) -> dict[Partition, _RationalLike]:
    return {mu: co for mu, co in entries.items() if not mu or mu[-1] != 1}


def _basis_at(level: int, vacuum: bool) -> tuple[Partition, ...]:
    return partitions_of(level, min_part=2 if vacuum else 1)


class VermaModule:
    """M(c, h), or with vacuum=True the vacuum quotient M(c, 0)/<L(-1)v>.

    Three tables are memoised per instance, keyed on partitions and levels:
    _act (L(n) on the Verma module), _pairing (the contravariant form) and
    _coordinates (per level). Each gets its own lru_cache in __init__ and
    the recursions go through self, so clearing verma_module's cache drops
    every table. _gram coerces the pairings, which may be ints, to Fraction.
    """

    def __init__(self, c: _RationalLike, h: _RationalLike, vacuum: bool):
        if vacuum and h != 0:
            raise ValueError(f"the vacuum quotient by L(-1)v exists only at h = 0, got h = {h}")
        self.c, self.h, self.vacuum = _frac(c), _frac(h), bool(vacuum)
        for name in ("_act", "_pairing", "_coordinates"):
            setattr(self, name, lru_cache(maxsize=None)(getattr(self, name)))

    @property
    def key(self) -> tuple[Fraction, Fraction, bool]:   # what tells two modules apart
        return self.c, self.h, self.vacuum

    def monomial(self, mu: Partition) -> VermaVector:
        """L(-mu) v for a weakly decreasing partition mu of positive parts."""
        mu = tuple(mu)
        if any(mu[i] < mu[i + 1] for i in range(len(mu) - 1)) or any(p < 1 for p in mu):
            raise ValueError(f"{mu} is not a weakly decreasing positive partition")
        if self.vacuum and 1 in mu:
            raise ValueError("part 1 is zero in the vacuum module")
        return VermaVector(self, {mu: Fraction(1)})

    def _act(self, n: int, mu: Partition) -> _Terms:
        """L(n) L(-mu) v_h in the Verma module, for n >= 0."""
        if not mu:
            return (((), self.h),) if n == 0 and self.h != 0 else ()
        head, rest = mu[0], mu[1:]
        out: dict[Partition, _RationalLike] = {}
        for nu, co in self._act(n, rest):
            for nu2, co2 in _lower(head, nu):
                _acc(out, nu2, co * co2)
        k = n - head
        sub = self._act(k, rest) if k >= 0 else _lower(-k, rest)
        for nu, co in sub:
            _acc(out, nu, (n + head) * co)
        if n == head:
            central = Fraction(n ** 3 - n, 12) * self.c
            if central != 0:
                _acc(out, rest, central)
        return tuple(out.items())

    def _pairing(self, mu: Partition, nu: Partition) -> _RationalLike:
        """<L(-mu) v, L(-nu) v> by peeling raising operators off the left of mu."""
        vec: _Terms = ((nu, 1),)
        for m in mu:
            out: dict[Partition, _RationalLike] = {}
            for rho, co in vec:
                for rho2, co2 in self._act(m, rho):
                    _acc(out, rho2, co * co2)
            vec = tuple(out.items())
        return dict(vec).get((), 0)

    def _gram(self, level: int) -> GramMatrix:
        basis = _basis_at(level, self.vacuum)
        n = len(basis)
        # the form is symmetric: each pair is paired once, left index first
        entries = tuple(tuple(_frac(self._pairing(basis[min(i, j)], basis[max(i, j)]))
                              for j in range(n)) for i in range(n))
        return GramMatrix(self.c, self.h, level, self.vacuum, basis, entries)

    def _coordinates(self, level: int) -> LevelCoordinates:
        gram = self._gram(level)
        full = gram.basis
        n = len(full)
        # column j keyed n-1-j puts the pivots on the leftmost columns, so the
        # span ends up holding the reduced row echelon form of G
        span = linalg.RowSpan()
        for row in gram.entries:
            span.add({n - 1 - j: v for j, v in enumerate(row) if v != 0})
        keys = sorted(span.pivot_keys, reverse=True)
        kept = [n - 1 - key for key in keys]
        rows = [span.pivot_row(key) for key in keys]
        projection = {mu: tuple((s, row[n - 1 - j]) for s, row in enumerate(rows) if n - 1 - j in row)
                      for j, mu in enumerate(full)}
        if any(projection[full[j]] != ((s, 1),) for s, j in enumerate(kept)):
            raise AssertionError("projection is not the identity on the kept partitions")
        return LevelCoordinates(self.c, self.h, level, self.vacuum, full,
                                tuple(full[j] for j in kept), projection)


@lru_cache(maxsize=None)
def verma_module(c: _RationalLike, h: _RationalLike, vacuum: bool, /) -> VermaModule:
    """The one VermaModule of (c, h, vacuum); positional, so each has one entry."""
    return VermaModule(c, h, vacuum)


# ---------------------------------------------------------------------------
# the L(n) action
# ---------------------------------------------------------------------------

def l_action(n: int, vec: VermaVector) -> VermaVector:
    """L(n) applied to a Verma vector (any sign of n)."""
    act = vec.module._act
    out: dict[Partition, Fraction] = {}
    for mu, co in vec.entries.items():
        for nu, co2 in (_lower(-n, mu) if n < 0 else act(n, mu)):
            _acc(out, nu, co * co2)
    if vec.module.vacuum:
        out = _strip_ones(out)
    return vec._like(out)


# ---------------------------------------------------------------------------
# Gram matrices, singular vectors, graded dimensions
# ---------------------------------------------------------------------------

class GramMatrix(NamedTuple):
    """Contravariant form on one level, over the reverse-lex PBW basis."""

    c: Fraction
    h: Fraction
    level: int
    vacuum: bool
    basis: tuple[Partition, ...]
    entries: tuple[tuple[Fraction, ...], ...]


def gram_matrix(c: _RationalLike, h: _RationalLike, level: int, vacuum: bool = False) -> GramMatrix:
    return verma_module(_frac(c), _frac(h), bool(vacuum))._gram(level)


def graded_dims(c: _RationalLike, h: _RationalLike, max_level: int, vacuum: bool = False) -> list[int]:
    """Dimensions of the irreducible quotient L(c,h) at levels 0..max_level.

    Computed as Gram ranks, which quotient by the full radical whether or not
    the vacuum shortcut basis is in use. Each rank is the dim of the
    module's memoised level coordinates, so each level is eliminated once.
    """
    return [level_coordinates(c, h, lvl, vacuum).dim for lvl in range(max_level + 1)]


def _action_rows(module: VermaModule, level: int,
                 basis: tuple[Partition, ...]) -> tuple[list[dict[int, _RationalLike]], int]:
    """Stacked matrices of L(1) and L(2) off one level, rows indexed by targets."""
    act, vacuum = module._act, module.vacuum
    rows: list[dict[int, _RationalLike]] = []
    for n in (1, 2):
        targets = {mu: i for i, mu in enumerate(_basis_at(level - n, vacuum))}
        block: list[dict[int, _RationalLike]] = [dict() for _ in targets]
        for j, mu in enumerate(basis):
            for nu, co in act(n, mu):
                if vacuum and nu and nu[-1] == 1:
                    continue
                block[targets[nu]][j] = co
        rows.extend(block)
    return rows, len(basis)


def singular_vectors(c: _RationalLike, h: _RationalLike, level: int,
                     vacuum: bool = False) -> list[VermaVector]:
    """Highest-weight vectors at the given level: joint kernel of L(1) and L(2).

    These span the fresh singular directions and lie inside the kernel of the
    level Gram matrix; each is normalized so its first nonzero coefficient in
    reverse-lex order (the pure L(-level) monomial when present) is 1. The
    returned vectors are checked to be annihilated by L(1) and L(2).
    """
    module = verma_module(_frac(c), _frac(h), bool(vacuum))
    basis = _basis_at(level, module.vacuum)
    if level < 1 or not basis:
        return []
    rows, ncols = _action_rows(module, level, basis)
    kernel = linalg.sparse_nullspace(rows, ncols)
    out: list[VermaVector] = []
    for ker in kernel:
        first = min(ker)  # reverse-lex order is the basis order
        inv = 1 / ker[first]
        vec = VermaVector(module, {basis[j]: co * inv for j, co in ker.items()})
        for n in (1, 2):
            if not l_action(n, vec).is_zero():
                raise AssertionError("kernel vector not annihilated by a raising mode")
        out.append(vec)
    return out


# ---------------------------------------------------------------------------
# coordinates on the irreducible quotient
# ---------------------------------------------------------------------------

class LevelCoordinates(NamedTuple):
    """Coordinates of one graded piece of L(c,h).

    The class of a vector v is determined by the list of pairings
    <L(-mu) v_h, v> over the full PBW basis, i.e. by G v. basis holds the
    partitions whose classes were kept as a basis: the leftmost independent
    Gram columns, which are the pivots of the reduced row echelon form R of
    G. With M the kept principal minor, the coordinates of v solve
    G v = sum beta_j G b_j on the kept rows, so they are P v with
    P = M^-1 G[kept, :], and P is exactly the nonzero rows of R. projection
    holds the sparse column of P for each partition of full_basis, as
    (coordinate, entry) pairs; the column of a kept partition is a unit
    vector.
    """

    c: Fraction
    h: Fraction
    level: int
    vacuum: bool
    full_basis: tuple[Partition, ...]
    basis: tuple[Partition, ...]
    projection: dict[Partition, tuple[tuple[int, Fraction], ...]]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __repr__(self) -> str:   # without the projection, which repeats full_basis
        return "LevelCoordinates(" + ", ".join(f"{n}={v!r}" for n, v in zip(self._fields[:-1], self)) + ")"


def level_coordinates(c: _RationalLike, h: _RationalLike, level: int,
                      vacuum: bool = False) -> LevelCoordinates:
    """Coordinates of L(c,h) at one level, read from the module's level memo.

    The arguments are normalised first, so every call form of one module
    shares one VermaModule and each Gram level is eliminated once.
    """
    return verma_module(_frac(c), _frac(h), bool(vacuum))._coordinates(level)


def irreducible_coordinates(vec: VermaVector) -> dict[tuple[int, int], Fraction]:
    """Nonzero coordinates of [vec] in L(c,h), keyed by (level, index into that level's basis)."""
    levels = vec.module._coordinates
    out: dict[tuple[int, int], Fraction] = {}
    for mu, co in vec.entries.items():
        lvl = sum(mu)
        for t, p in levels(lvl).projection[mu]:
            _acc(out, (lvl, t), p * co)
    return out


# ---------------------------------------------------------------------------
# cofiniteness quotients
# ---------------------------------------------------------------------------

def _quotient_dims(c: _RationalLike, h: _RationalLike, max_level: int, zero_modes: bool) -> list[int]:
    """c2_quotient_dim, and with zero_modes c20_quotient_dim.

    a = L(-k)1 has a(-2)u = (k-1) L(-k-1)u, so the C2 quotient is by L(-n)u,
    n >= 3, whose span holds no L(-1)u. With zero_modes it holds every L(-1)x,
    and (L(-1)a)(-2)u = L(-1)(a(-2)u) - a(-2)(L(-1)u) puts each L(-n)u, n >= 4,
    in the span of L(-1)x and L(-3)x. At c = 0 nothing is quotiented.
    """
    c, h = _frac(c), _frac(h)
    module = verma_module(c, h, h == 0)
    steps = [] if c == 0 else [1, 3] if zero_modes else range(3, max_level + 1)
    span, dims, total = linalg.RowSpan(), [], 0
    for lvl in range(max_level + 1):
        total += module._coordinates(lvl).dim
        for n in steps:
            for nu in module._coordinates(lvl - n).basis if n <= lvl else ():
                span.add(irreducible_coordinates(l_action(-n, module.monomial(nu))))
        dims.append(total - span.rank)
    return dims


def c2_quotient_dim(c: _RationalLike, h: _RationalLike, max_level: int) -> list[int]:
    """dim of L(c,h) / span{a(-2)u} truncated at levels 0..max_level.

    Entry N is the dimension of U_{<=N} modulo every a(-2)u whose level fits
    below N, with u over a basis of L(c,h) and a over the strong generators
    L(-k)1 of L(c,0): a(-2)u = (k-1) L(-k-1)u, so the quotient is by every
    L(-n)u with n >= 3; at c = 0, where L(c,0) is one-dimensional, there is
    no a. Watching the list stabilize (or not) is the point.
    """
    return _quotient_dims(c, h, max_level, zero_modes=False)


def c20_quotient_dim(c: _RationalLike, h: _RationalLike, max_level: int) -> list[int]:
    """Square-bracket analogue of c2_quotient_dim with zero modes included.

    Quotients by both a[-2]u and a[0]u, computed as a(-2)u and a(0)u by Zhu's
    isomorphism as the traceform.mde docstring states it. Translation
    covariance reduces every a to omega here, so the quotient is by L(-1)u
    and L(-3)u alone (_quotient_dims); at c = 0 nothing is quotiented.
    """
    return _quotient_dims(c, h, max_level, zero_modes=True)
