"""Highest weight module machinery against closed-form classics.

The two heavyweight oracles are the level-2 Kac determinant, written out
as an explicit cubic in h, and the alternating-sum character formula for
the irreducible graded dimensions, which is implemented here from scratch
(partition convolution included) and compared against the Gram-rank route
used by the package.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

import pytest

from reference_routes import all_generators_quotient_dims, level_components, mode_action
from traceform import bracket, cli, virasoro
from traceform.linalg import RowSpan
from traceform.virasoro import (
    GramMatrix,
    VermaVector,
    c2_quotient_dim,
    c20_quotient_dim,
    gram_matrix,
    graded_dims,
    irreducible_coordinates,
    l_action,
    level_coordinates,
    minimal_model,
    partitions_of,
    singular_vectors,
    verma_module,
    verma_monomial,
)


# ---------------------------------------------------------------------------
# combinatorial plumbing
# ---------------------------------------------------------------------------

def test_partition_counts_match_the_classical_sequence():
    want = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for n, p in enumerate(want):
        assert len(partitions_of(n)) == p


def test_partitions_without_ones_count_the_vacuum_basis():
    # partitions into parts >= 2
    want = [1, 0, 1, 1, 2, 2, 4, 4, 7, 8, 12]
    for n, p in enumerate(want):
        assert len(partitions_of(n, min_part=2)) == p


def test_minimal_model_table():
    assert minimal_model(1).c == Fraction(1, 2)
    assert minimal_model(2).c == Fraction(7, 10)
    assert minimal_model(3).c == Fraction(4, 5)
    assert minimal_model(4).c == Fraction(6, 7)
    for m in (1, 2, 3):
        data = minimal_model(m)
        p, q = m + 2, m + 3
        for (r, s), h in data.weights.items():
            assert 1 <= s <= r <= m + 1
            assert h == Fraction((q * r - p * s) ** 2 - 1, 4 * p * q)
    assert len(minimal_model(1).distinct_weights()) == 3
    assert len(minimal_model(2).distinct_weights()) == 6
    assert len(minimal_model(3).distinct_weights()) == 10
    with pytest.raises(ValueError):
        minimal_model(0)


# ---------------------------------------------------------------------------
# the round-bracket action
# ---------------------------------------------------------------------------

C, H = Fraction(7, 10), Fraction(3, 80)


def test_round_modes_satisfy_the_virasoro_relations():
    samples = [
        verma_monomial(C, H, ()),
        verma_monomial(C, H, (1,)),
        verma_monomial(C, H, (2, 1)) + verma_monomial(C, H, (3,)) * 2,
    ]
    for v in samples:
        for m in range(-3, 4):
            for n in range(m, 4):
                lhs = l_action(m, l_action(n, v)) - l_action(n, l_action(m, v))
                rhs = l_action(m + n, v) * (m - n)
                if m + n == 0:
                    rhs = rhs + v * (C * Fraction(m ** 3 - m, 12))
                assert lhs == rhs, f"[L({m}), L({n})]"


def test_conformal_vector_modes_are_shifted_virasoro_modes():
    omega = verma_monomial(C, 0, (2,), vacuum=True)
    u = verma_monomial(C, H, (2, 1))
    for n in (-2, -1, 0, 1, 2, 3):
        assert mode_action(omega, n, u) == l_action(n - 1, u)


def test_the_strong_generators_have_closed_form_modes():
    # Y(L(-k)1, z) = d^(k-2) T(z)/(k-2)! gives L(-k)1 (n) = C(k-n-3, k-2) L(n-k+1),
    # which the package uses in place of the associativity formula; C is
    # written out here, so a wrong _gbinom cannot move both sides alike
    modules = (
        (Fraction(7, 10), Fraction(3, 5), False, [(), (1,), (2,), (2, 1), (1, 1, 1), (3, 1)]),
        (Fraction(1, 2), Fraction(0), True, [(), (2,), (3,), (4,), (2, 2), (3, 2)]),
        (Fraction(-22, 5), Fraction(-1, 5), False, [(), (1,), (1, 1), (3,), (2, 2), (2, 1, 1)]),
    )
    checked = 0
    for c, h, vacuum, parts in modules:
        for k in range(2, 8):
            v = verma_monomial(c, 0, (k,), vacuum=True)
            for mu in parts:
                u = verma_monomial(c, h, mu, vacuum)
                for n in range(-4, 7):
                    binom = Fraction(prod(range(k - n - 3, -n - 1, -1)), factorial(k - 2))   # C(k-n-3, k-2)
                    want = l_action(n - k + 1, u) * binom
                    assert mode_action(v, n, u) == want, (c, h, k, mu, n)
                    checked += 1
    assert checked == 1188


def test_single_part_vacuum_vectors_are_kept_exactly_when_c_is_nonzero():
    # <L(-k)1, L(-k)1> = c (k^3 - k)/12 and L(0,0) is one-dimensional, so the
    # strong generators behind the trace relations and the C2 quotients exist
    # in L(c,0) for every k >= 2 exactly when c != 0
    for c in (Fraction(0), Fraction(1, 2), Fraction(-22, 5), Fraction(4, 5), Fraction(1), Fraction(25)):
        for k in range(2, 9):
            assert ((k,) in level_coordinates(c, 0, k, vacuum=True).basis) == (c != 0), (c, k)


def test_vacuum_vector_acts_as_the_identity_mode():
    one = verma_monomial(C, 0, (), vacuum=True)
    u = verma_monomial(C, H, (1, 1))
    assert mode_action(one, -1, u) == u
    assert mode_action(one, 0, u).is_zero()
    assert mode_action(one, -2, u).is_zero()


# ---------------------------------------------------------------------------
# integer tables inside, Fractions outside
# ---------------------------------------------------------------------------

def _fraction_tables(module):
    """_lower and the module's _act as Fraction recursions, as first written."""

    def add(out, mu, co):
        out[mu] = out.get(mu, Fraction(0)) + co

    @lru_cache(maxsize=None)
    def lower(m, mu):
        if not mu or m >= mu[0]:
            return {(m,) + mu: Fraction(1)}
        head, rest = mu[0], mu[1:]
        out = {}
        for nu, co in lower(m, rest).items():
            for nu2, co2 in lower(head, nu).items():
                add(out, nu2, co * co2)
        for nu, co in lower(m + head, rest).items():
            add(out, nu, (head - m) * co)
        return {nu: co for nu, co in out.items() if co}

    @lru_cache(maxsize=None)
    def act(n, mu):
        if not mu:
            return {(): module.h} if n == 0 and module.h else {}
        head, rest = mu[0], mu[1:]
        out = {}
        for nu, co in act(n, rest).items():
            for nu2, co2 in lower(head, nu).items():
                add(out, nu2, co * co2)
        k = n - head
        for nu, co in (act(k, rest) if k >= 0 else lower(-k, rest)).items():
            add(out, nu, (n + head) * co)
        if n == head:
            add(out, rest, Fraction(n ** 3 - n, 12) * module.c)
        return {nu: co for nu, co in out.items() if co}

    return lower, act


@pytest.mark.parametrize("c,h,vacuum", [(Fraction(7, 10), Fraction(0), True),
                                        (Fraction(4, 5), Fraction(2, 3), False)])
def test_integer_tables_agree_with_the_fraction_recursion(c, h, vacuum):
    module = virasoro.verma_module(c, h, vacuum)
    lower, act = _fraction_tables(module)
    compared = 0
    for level in range(9):
        for mu in virasoro._basis_at(level, vacuum):
            for m in range(1, 9 - level):
                assert dict(virasoro._lower(m, mu)) == lower(m, mu), (m, mu)
            for n in range(level + 1):
                assert dict(module._act(n, mu)) == act(n, mu), (n, mu)
                compared += 1
    assert compared > 100


def test_lower_and_gbinom_are_ints():
    for level in range(9):
        for mu in partitions_of(level):
            for m in range(1, 9 - level):
                assert all(type(co) is int for _, co in virasoro._lower(m, mu)), (m, mu)
    for m in range(-6, 7):
        for i in range(7):
            got = bracket._gbinom(m, i)
            assert type(got) is int and got == Fraction(prod(m - t for t in range(i)), factorial(i))


def _fractions_only(values):
    return all(type(v) is Fraction for v in values)


@pytest.mark.parametrize("c,h,vacuum", [(Fraction(1, 2), Fraction(0), True),
                                        (Fraction(7, 10), Fraction(3, 80), False)])
def test_every_result_leaves_the_module_as_fractions(c, h, vacuum):
    for level in range(7):
        gram = gram_matrix(c, h, level, vacuum)
        assert _fractions_only(x for row in gram.entries for x in row), level
        coords = level_coordinates(c, h, level, vacuum)
        assert _fractions_only(p for col in coords.projection.values() for _, p in col), level
    assert gram_matrix(c, h, 0, vacuum).entries == ((1,),)
    omega = verma_monomial(c, 0, (2,), vacuum=True)
    u = verma_monomial(c, h, (3, 2) if vacuum else (2, 1), vacuum)
    w = VermaVector(verma_module(c, h, vacuum), {(2,): 3, (): 1})
    vectors = [u, w, u + w, u - w, w * 2, 2 * w, -w, verma_monomial(c, h, (), vacuum)]
    vectors += [l_action(n, u) for n in range(-2, 4)] + [mode_action(omega, n, u) for n in range(-2, 4)]
    vectors += [piece for v in vectors for piece in level_components(v).values()]
    for v in vectors:
        assert _fractions_only(v.entries.values()), v
        assert _fractions_only(irreducible_coordinates(v).values()), v
    singular = singular_vectors(c, h, 6 if vacuum else 4, vacuum)
    assert len(singular) == 1 and _fractions_only(singular[0].entries.values())


# ---------------------------------------------------------------------------
# Gram matrices and the Kac determinant
# ---------------------------------------------------------------------------

def test_level_one_gram_is_two_h():
    g = gram_matrix(C, H, 1)
    assert g.basis == ((1,),)
    assert g.entries == ((2 * H,),)


def test_level_two_gram_formula():
    for c, h in [(Fraction(1, 2), Fraction(1, 2)), (C, H),
                 (Fraction(4, 5), Fraction(2, 5)), (Fraction(3), Fraction(5, 7))]:
        g = gram_matrix(c, h, 2)
        assert g.basis == ((2,), (1, 1))
        assert g.entries == ((4 * h + c / 2, 6 * h),
                             (6 * h, 4 * h * (2 * h + 1)))
        assert g.entries[0][1] == g.entries[1][0]


def test_level_two_kac_determinant_factors():
    # det = 32 h^3 + (4c - 20) h^2 + 2 c h; for c = 1/2 the roots are
    # 0, 1/16 and 1/2
    for h in (Fraction(1, 3), Fraction(2), Fraction(-1, 4), Fraction(7, 5)):
        g = gram_matrix(Fraction(1, 2), h, 2)
        det = g.entries[0][0] * g.entries[1][1] - g.entries[0][1] * g.entries[1][0]
        assert det == 32 * h * (h - Fraction(1, 2)) * (h - Fraction(1, 16))


def test_vacuum_gram_at_level_two_is_the_central_term():
    g = gram_matrix(C, 0, 2, vacuum=True)
    assert g.basis == ((2,),)
    assert g.entries == ((C / 2,),)


def kac_c(t):
    """c = 13 - 6(t + 1/t)."""
    return 13 - 6 * (t + 1 / t)


def kac_h(r, s, t):
    """h_{r,s}(t) = (r^2 - 1)t/4 - (rs - 1)/2 + (s^2 - 1)/(4t)."""
    return (r * r - 1) * t / 4 - Fraction(r * s - 1, 2) + (s * s - 1) / (4 * t)


def kac_determinant(t, h, n):
    """det G_n(c(t), h) = prod_{rs <= n} (h - h_{r,s})^p(n-rs) ((2r)^s s!)^(p(n-rs) - p(n-r(s+1)))."""
    p = partition_numbers(n)
    det = Fraction(1)
    for r in range(1, n + 1):
        for s in range(1, n // r + 1):
            here = p[n - r * s]
            above = p[n - r * (s + 1)] if r * (s + 1) <= n else 0
            det *= (h - kac_h(r, s, t)) ** here * ((2 * r) ** s * factorial(s)) ** (here - above)
    return det


def _determinant(rows):
    """Plain Fraction elimination with row swaps."""
    a = [list(row) for row in rows]
    det = Fraction(1)
    for j in range(len(a)):
        pivot = next((i for i in range(j, len(a)) if a[i][j] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != j:
            a[j], a[pivot] = a[pivot], a[j]
            det = -det
        det *= a[j][j]
        for i in range(j + 1, len(a)):
            f = a[i][j] / a[j][j]
            a[i] = [x - f * y for x, y in zip(a[i], a[j])]
    return det


@pytest.mark.parametrize("t,h", [(Fraction(3, 7), Fraction(1, 3)), (Fraction(-2, 3), Fraction(-5, 11)),
                                 (Fraction(4, 5), Fraction(0))])
def test_gram_determinants_match_the_kac_formula(t, h):
    # the formula is an independent source; at (4/5, 0), on the Kac table of
    # c = 7/10, L(-1)v is null and both sides vanish from level 1
    for n in range(1, 9):
        got = _determinant(gram_matrix(kac_c(t), h, n).entries)
        assert got == kac_determinant(t, h, n), (t, h, n)
        assert (got == 0) == (h == 0), (t, h, n)


# ---------------------------------------------------------------------------
# singular vectors
# ---------------------------------------------------------------------------

LEVEL_TWO_CASES = [
    (Fraction(1, 2), Fraction(1, 2)),
    (Fraction(7, 10), Fraction(1, 10)),
    (Fraction(4, 5), Fraction(2, 5)),
    (Fraction(6, 7), Fraction(1, 7)),
]


def test_level_two_singular_vectors_exist_and_are_annihilated():
    for c, h in LEVEL_TWO_CASES:
        found = singular_vectors(c, h, 2)
        assert len(found) == 1, f"(c, h) = ({c}, {h})"
        v = found[0]
        assert l_action(1, v).is_zero()
        assert l_action(2, v).is_zero()
        # L(0) eigenvalue is h + 2
        assert l_action(0, v) == v * (h + 2)


def _compositions(r):
    if r == 0:
        yield ()
    for k in range(1, r + 1):
        for rest in _compositions(r - k):
            yield (k,) + rest


def benoit_saint_aubin(r, t):
    """The null vector of M(c(t), h_{r,1}(t)) at level r, built with l_action:
    the sum over compositions (k_1, ..., k_m) of r of
    (r-1)!^2 (-t)^(r-m) / prod_{i<m} K_i (r - K_i) L(-k_1)...L(-k_m) v,
    with K_i = k_1 + ... + k_i (Benoit and Saint-Aubin, 1988)."""
    c, h = kac_c(t), kac_h(r, 1, t)
    out = verma_monomial(c, h, ()) * 0
    for ks in _compositions(r):
        partial = [sum(ks[:i]) for i in range(1, len(ks))]
        co = factorial(r - 1) ** 2 * (-t) ** (r - len(ks)) / prod(k * (r - k) for k in partial)
        vec = verma_monomial(c, h, ())
        for k in reversed(ks):
            vec = l_action(-k, vec)
        out = out + vec * co
    return out


@pytest.mark.parametrize("t", [Fraction(3, 7), Fraction(-5, 2)])
@pytest.mark.parametrize("r", [2, 3, 4])
def test_benoit_saint_aubin_vectors_are_the_singular_vectors(r, t):
    v = benoit_saint_aubin(r, t)
    assert not v.is_zero()
    assert l_action(1, v).is_zero() and l_action(2, v).is_zero()
    (found,) = singular_vectors(kac_c(t), kac_h(r, 1, t), r)
    mu = next(iter(found.entries))
    ratio = v.entries.get(mu, Fraction(0)) / found.entries[mu]
    assert v == found * ratio and v != found * (2 * ratio)


def test_generic_weights_have_no_low_singular_vectors():
    for level in (1, 2, 3):
        assert singular_vectors(Fraction(1, 2), Fraction(1, 3), level) == []


def test_vacuum_verma_has_its_first_singular_vector_at_level_six():
    c = Fraction(1, 2)
    for level in range(2, 6):
        assert singular_vectors(c, 0, level, vacuum=True) == []
    found = singular_vectors(c, 0, 6, vacuum=True)
    assert len(found) == 1
    assert l_action(1, found[0]).is_zero()
    assert l_action(2, found[0]).is_zero()


# ---------------------------------------------------------------------------
# graded dimensions against the alternating character sum
# ---------------------------------------------------------------------------

def partition_numbers(n_max):
    p = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        for n in range(part, n_max + 1):
            p[n] += p[n - part]
    return p


def character_dims(p, q, r, s, n_max):
    """Graded dimensions of the irreducible (r, s) module of the (p, q)
    series from the alternating sum over the affine Weyl group: the level-n
    coefficient of sum_k (q^(pqk^2 + k(qr - ps)) - q^(pqk^2 + k(qr + ps) + rs))
    divided by the Euler product."""
    part = partition_numbers(n_max)
    dims = [0] * (n_max + 1)
    k = 0
    while True:
        hit = False
        for kk in {k, -k}:
            a = p * q * kk * kk + kk * (q * r - p * s)
            b = p * q * kk * kk + kk * (q * r + p * s) + r * s
            for sign, off in ((1, a), (-1, b)):
                if off <= n_max:
                    hit = True
                    for n in range(max(off, 0), n_max + 1):
                        dims[n] += sign * part[n - off]
        if not hit and k > 0:
            break
        k += 1
    return dims


def test_character_formula_reproduces_the_ising_vacuum():
    assert character_dims(3, 4, 1, 1, 8) == [1, 0, 1, 1, 2, 2, 3, 3, 5]


def test_graded_dims_match_the_character_formula_everywhere():
    for m in (1, 2):
        data = minimal_model(m)
        p, q = m + 2, m + 3
        for (r, s), h in sorted(data.weights.items()):
            want = character_dims(p, q, r, s, 8)
            got = graded_dims(data.c, h, 8, vacuum=(h == 0))
            assert got == want, f"model m={m}, (r, s)=({r}, {s}), h={h}"


def test_generic_verma_dims_are_plain_partition_counts():
    got = graded_dims(Fraction(1, 2), Fraction(1, 3), 8)
    assert got == partition_numbers(8)[:9]


def _gram_rank(c, h, level, vacuum):
    """Rank of the Gram matrix from a RowSpan over its rows, keyed by column index."""
    span = RowSpan()
    for row in gram_matrix(c, h, level, vacuum).entries:
        span.add(dict(enumerate(row)))
    return span.rank


def test_level_coordinates_dimensions_agree_with_graded_dims():
    # both read level_coordinates; _gram_rank is the independent route
    modules = [(c, h, False) for c, h in LEVEL_TWO_CASES]
    modules += [(minimal_model(m).c, Fraction(0), True) for m in (1, 2, 3)]
    for c, h, vacuum in modules:
        ranks = [_gram_rank(c, h, level, vacuum) for level in range(9)]
        assert [level_coordinates(c, h, level, vacuum).dim for level in range(9)] == ranks, (c, h)
        assert graded_dims(c, h, 8, vacuum) == ranks, (c, h)


def test_each_gram_level_is_eliminated_once(monkeypatch, capsys):
    for obj in vars(virasoro).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
    created = []

    class CountingSpan(RowSpan):
        def __init__(self):
            super().__init__()
            created.append(self)

    monkeypatch.setattr(virasoro.linalg, "RowSpan", CountingSpan)
    c, h = Fraction(1, 2), Fraction(1, 2)
    graded_dims(c, h, 8)
    for level in range(9):
        level_coordinates(c, h, level)
    assert cli.run(["gram", "--c", "1/2", "--h", "1/2", "--level", "5"]) == 0
    capsys.readouterr()
    assert len(created) == 9


# ---------------------------------------------------------------------------
# one module object per (c, h, vacuum)
# ---------------------------------------------------------------------------

def _clear_virasoro_caches():
    for obj in vars(virasoro).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()


def test_every_call_form_shares_one_module_object():
    _clear_virasoro_caches()
    first = level_coordinates(3, 2, 3)
    for args, kwargs in (((Fraction(3), Fraction(2), 3), {}), ((3, 2, 3, False), {}),
                         ((Fraction(3), 2, 3), {"vacuum": False}), ((3, Fraction(2), 3, 0), {})):
        assert level_coordinates(*args, **kwargs) is first, (args, kwargs)
    assert virasoro.verma_module.cache_info().currsize == 1
    module = virasoro.verma_module(Fraction(3), Fraction(2), False)
    assert (module.c, module.h, module.vacuum) == (3, 2, False)
    assert type(module.c) is Fraction and type(module.h) is Fraction
    assert verma_monomial(3, 2, (2, 1)).module is module
    assert verma_monomial(Fraction(3), 2, ()).module is module
    assert virasoro.verma_module.cache_info().currsize == 1


@pytest.mark.parametrize("first", [True, False])
def test_vacuum_and_verma_modules_at_h_zero_keep_separate_tables(first):
    for m in (1, 2, 3):
        _clear_virasoro_caches()
        c = minimal_model(m).c
        coords = {vacuum: level_coordinates(c, 0, 4, vacuum) for vacuum in (first, not first)}
        assert coords[True].full_basis == ((4,), (2, 2))
        assert coords[False].full_basis == partitions_of(4)
        assert all(1 not in mu for mu in coords[True].full_basis)
        assert virasoro.verma_module(c, 0, True) is not virasoro.verma_module(c, 0, False)
        assert graded_dims(c, 0, 8, vacuum=True) == graded_dims(c, 0, 8, vacuum=False), m


def test_clearing_the_caches_makes_the_next_call_recompute():
    c, h = Fraction(7, 10), Fraction(3, 5)
    _clear_virasoro_caches()
    module = virasoro.verma_module(c, h, False)
    before = level_coordinates(c, h, 4)
    assert level_coordinates(c, h, 4) is before
    _clear_virasoro_caches()
    assert virasoro.verma_module.cache_info().currsize == 0
    after = level_coordinates(c, h, 4)
    assert after is not before and after == before
    assert virasoro.verma_module(c, h, False) is not module


def test_the_vacuum_quotient_exists_only_at_h_zero():
    c, h = Fraction(1, 2), Fraction(1, 2)
    for build in (lambda: virasoro.verma_module(c, h, True),
                  lambda: verma_monomial(c, h, (2,), vacuum=True),
                  lambda: graded_dims(c, h, 4, vacuum=True)):
        with pytest.raises(ValueError, match="only at h = 0"):
            build()
    assert graded_dims(c, h, 4) == [1, 1, 1, 1, 2]
    # the Verma route at h = 0 stays legal and gives the irreducible dims
    assert graded_dims(c, 0, 4, vacuum=False) == [1, 0, 1, 1, 2]


def test_every_coordinate_route_reads_one_projection(monkeypatch):
    from reference_routes import OSpace
    from traceform import mde

    calls = []
    original = virasoro.irreducible_coordinates

    def counting(vec):
        calls.append(vec.module)
        return original(vec)

    monkeypatch.setattr(virasoro, "irreducible_coordinates", counting)
    c = Fraction(1, 2)
    u = verma_monomial(c, Fraction(1, 16), (2, 1))
    assert mde.graded_vector(u, e4=1) == {(lvl, t, 1, 0): co for (lvl, t), co in original(u).items()}
    assert len(calls) == 1
    space = OSpace(c, 4)
    seen = len(calls)
    assert seen > 1
    space.coords(verma_monomial(c, 0, (2, 2), vacuum=True))
    assert len(calls) == seen + 1
    c2_quotient_dim(c, Fraction(1, 16), 4)
    assert len(calls) > seen + 1
    assert {module.vacuum for module in calls} == {False, True}


# ---------------------------------------------------------------------------
# cofiniteness quotients
# ---------------------------------------------------------------------------

def test_ising_vacuum_c2_quotient_stabilizes_at_three():
    dims = c2_quotient_dim(Fraction(1, 2), Fraction(0), 8)
    assert dims[-1] == dims[-2] == 3


def test_zero_mode_quotients_collapse_to_one_dimension():
    for c, h in LEVEL_TWO_CASES:
        dims = c20_quotient_dim(c, h, 8)
        assert dims[-1] == dims[-2] == 1, f"(c, h) = ({c}, {h})"


QUOTIENT_ORACLE_MODULES = LEVEL_TWO_CASES + [(Fraction(c), Fraction(h)) for c, h in (
    ("1/2", "0"), ("1/2", "1/16"), ("1/2", "1/3"), ("7/10", "3/5"), ("7/10", "0"), ("7/10", "3/80"),
    ("-22/5", "-1/5"), ("4/5", "2/3"), ("1", "1/4"), ("0", "1"), ("0", "0"))]


def test_quotients_from_omega_equal_the_quotients_of_every_vacuum_vector():
    # a(-2)u and a(0)u for every basis vector a of L(c,0), through the
    # reference mode_action, span what L(-n)u, n >= 3, span, and with the
    # zero modes what L(-1)u and L(-3)u span
    for c, h in QUOTIENT_ORACLE_MODULES:
        assert c2_quotient_dim(c, h, 8) == all_generators_quotient_dims(c, h, 8, False), (c, h)
        assert c20_quotient_dim(c, h, 8) == all_generators_quotient_dims(c, h, 8, True), (c, h)


def test_generic_verma_zero_mode_quotient_keeps_growing():
    dims = c20_quotient_dim(Fraction(1, 2), Fraction(1, 3), 8)
    assert dims == [1, 1, 2, 2, 3, 3, 4, 4, 5]
    assert dims[-1] > dims[-2]
