"""Twisted elliptic series and Weierstrass-type expansions, exactly.

The central objects are the formal series

    P_k(z, q) = (1/(k-1)!) sum_{n != 0} n^(k-1) z^n / (1 - q^n),

expanded with 1/(1-q^n) = sum_{i>=0} q^(ni) for n > 0 and
1/(1-q^n) = -sum_{i>=1} q^(-ni) for n < 0, and the Weierstrass Laurent
expansions

    wp_k(z, q) = z^(-k) + (-1)^k sum_{n>=1} C(2n+1, k-1) E_{2n+2}(q) z^(2n+2-k),

both held as windows: a dict from each z-power of a finite range to the
tuple of its exact q-coefficients, zero rows included. A z-power without a
key lies outside the window, where coefficients are unknown, not zero.

Substituting z -> e^z into P_k needs care: termwise composition puts an
infinite geometric sum into every z-power of the q^0 part. The resummed q^0
part is (1/(k-1)!) (d/dz)^(k-1) applied to

    e^z/(1 - e^z) = -1/z - 1/2 - sum_{r>=1} B_{r+1} z^r / (r+1)!,

a Bernoulli generating function, while each q^l row (l >= 1) is the finite
divisor sum (1/(k-1)!) sum_{d|l} d^(k-1) (e^(dz) - (-1)^(k-1) e^(-dz)).
With that reading the expansions close exactly:

    P_1(e^z, q) = -wp_1 + E_2 z - 1/2
    P_2(e^z, q) =  wp_2 + E_2
    P_k(e^z, q) = (-1)^k wp_k            (k >= 3)

verify_p_wp_relations checks these coefficient by coefficient.

The residue identities verified here pair the c_i coefficients of
(1+z)^(w-1) / log(1+z) against residues in w of the two expansions of
(w - z)^i (inside vs outside the unit q-annulus). Term by term the i-sum is
infinite, but the difference of the two sides at fixed i is an i-th finite
difference of a polynomial of degree m-1 in the mode index, so it vanishes
for i >= m and the verifier sums a short stabilized range:

    bare integrand 1:            total 1
    integrand P_1 (less 1):      total -1/2
    integrand P_m, m >= 2:       total E_m  (zero for odd m)

verify_expansion_identity checks the mode expansion of C(w-1+n, i), from
math.comb as C(-a, i) = (-1)^i C(a+i-1, i) below 0, not bracket's binomial,
against the bracket coefficient rows and the z^n entries of P_{m+1}.

Every z^n row of P_k(z, q) and of P_k(zq, q) is n^(k-1)/(k-1)! times a 0/+-1
pattern, so _p_row keeps it as integer numerators over (k-1)!, built once
per (k, n, terms); p_series reads its rows from there. The residue sums and
the right-hand sides of the mode expansion run over int, with the c-row and
the bracket rows cleared to one denominator, and the divisor sums of
p_series_at_exp are qseries.sigma; only the results and the mismatch
reports are Fractions.
"""

from __future__ import annotations

import time
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from operator import add, sub
from typing import NamedTuple

from .bracket import bracket_coeffs
from .linalg import _CommonDenominator
from .qseries import bernoulli, eisenstein, sigma


Window = dict[int, tuple[Fraction, ...]]


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _p_row(k: int, n: int, terms: int, shifted: bool) -> tuple[int, ...]:
    """Integer numerators over (k-1)! of the z^n q-series of P_k(z, q), n != 0.

    shifted gives the row of P_k(zq, q) instead, the unshifted one moved by q^n.
    """
    if n == 0:
        raise ValueError("P_k has no z^0 entry")
    out = [0] * terms
    value = n ** (k - 1) if n > 0 else -n ** (k - 1)
    for i in range(abs(n) if (n > 0) == shifted else 0, terms, abs(n)):
        out[i] = value
    return tuple(out)


def p_series(k: int, terms: int, z_min: int = -8, z_max: int = 8) -> Window:
    """P_k(z, q) over the z-powers z_min..z_max."""
    if k < 1:
        raise ValueError("k must be >= 1")
    den = factorial(k - 1)
    zero = (Fraction(0),) * terms
    return {n: tuple(Fraction(c, den) for c in _p_row(k, n, terms, False)) if n else zero
            for n in range(z_min, z_max + 1)}


def wp_expansion(k: int, terms: int, z_max: int = 8) -> Window:
    """wp_k over z^-k..z^z_max: the pole z^(-k) plus Eisenstein coefficients
    at z^(2n+2-k), n >= 1.

    Only exponents congruent to -k mod 2 carry nonzero rows; in particular
    wp_2 has z^2 coefficient 3 E_4 and a zero z^0 row.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    sign = -1 if k % 2 else 1
    rows = {e: (Fraction(0),) * terms for e in range(-k, z_max + 1)}
    rows[-k] = (Fraction(1),) + rows[-k][1:]
    for n in range(1, (z_max + k) // 2):
        coeff = comb(2 * n + 1, k - 1) * sign
        rows[2 * n + 2 - k] = tuple(c * coeff for c in eisenstein(2 * n + 2, terms).coeffs)
    return rows


def p_series_at_exp(k: int, terms: int, z_max: int = 8) -> Window:
    """P_k(e^z, q) over z^-k..z^z_max, the q^0 tail resummed through Bernoulli numbers."""
    if k < 1:
        raise ValueError("k must be >= 1")
    # Laurent coefficients of e^z/(1-e^z) from z^-1 up to z^(z_max + k - 1)
    top = z_max + k - 1
    g: dict[int, Fraction] = {-1: Fraction(-1), 0: Fraction(-1, 2)}
    for r in range(1, top + 1):
        b = bernoulli(r + 1)
        if b != 0:
            g[r] = -b / factorial(r + 1)
    for _ in range(k - 1):
        g = {e - 1: co * e for e, co in g.items() if e != 0 and co != 0}
    # q^l, l >= 1: the divisor sum of the module docstring has z^e coefficient
    # 2 sigma_{k-1+e}(l) / ((k-1)! e!) when e >= 0 and k + e is even, else 0
    den = factorial(k - 1)
    rows = {}
    for e in range(-k, z_max + 1):
        if e < 0 or (k + e) % 2:
            tail = (Fraction(0),) * (terms - 1)
        else:
            tail = tuple(Fraction(2 * sigma(k - 1 + e, l), den * factorial(e)) for l in range(1, terms))
        rows[e] = (g.get(e, Fraction(0)) / den,) + tail
    return rows


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

class ResidueReport(NamedTuple):
    """Outcome of one exact identity check, with per-coefficient mismatches.

    runtime_s is the wall time of this check's own computation.
    """

    identity: str
    params: dict
    checked: int
    mismatches: tuple[tuple[str, str, str], ...]
    runtime_s: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def __repr__(self):
        state = "pass" if self.passed else f"FAIL ({len(self.mismatches)} mismatches)"
        return f"ResidueReport({self.identity}, {self.params}, checked={self.checked}: {state})"


def _require_sizes(**sizes: tuple[int, int]) -> None:
    """Raise ValueError unless each named size reaches its least value, so no
    report passes after checking nothing."""
    for name, (value, least) in sizes.items():
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")


def _window_mismatches(got: Window, want: Window) -> list[tuple[str, str, str]]:
    """Per-coefficient differences over the z-powers and q-terms both windows hold, as report rows."""
    return [(f"z^{e} q^{n}", str(a), str(b))
            for e in sorted(got.keys() & want.keys())
            for n, (a, b) in enumerate(zip(got[e], want[e])) if a != b]


def verify_p_wp_relations(k_max: int = 5, terms: int = 9, z_max: int = 8) -> list[ResidueReport]:
    """Check P_k(e^z, q) against the Weierstrass expansions, exactly.

    For each k <= k_max, compares every coefficient of z^-k..z^z_max and
    q^0..q^(terms-1) on both sides of the closed-form identities quoted in
    the module docstring.
    """
    _require_sizes(k_max=(k_max, 1), terms=(terms, 1))
    reports = []
    e2 = eisenstein(2, terms).coeffs
    for k in range(1, k_max + 1):
        start = time.perf_counter()
        lhs = p_series_at_exp(k, terms, z_max)
        rhs = {e: tuple(-c for c in row) if k % 2 else row
               for e, row in wp_expansion(k, terms, z_max).items()}
        if k == 1:
            rhs[1] = tuple(map(add, rhs[1], e2))
            rhs[0] = (rhs[0][0] - Fraction(1, 2),) + rhs[0][1:]
        elif k == 2:
            rhs[0] = tuple(map(add, rhs[0], e2))
        checked = (z_max + k + 1) * terms
        reports.append(ResidueReport("p-series-weierstrass", {"k": k, "terms": terms, "z_max": z_max},
                                     checked, tuple(_window_mismatches(lhs, rhs)),
                                     time.perf_counter() - start))
    return reports


def verify_wp_structure(k_max: int = 5, terms: int = 9, z_max: int = 8) -> list[ResidueReport]:
    """Structural checks tying the wp and P families together, exactly.

    The wp_k window only carries z-powers of the same parity as k, the
    derivative recursion wp_{k+1} = -(1/k) d/dz wp_k reproduces each
    expansion from the previous one, and z d/dz P_k = k P_{k+1} does the
    same on the q-series side. Each wp_k is built once, one z-power wider
    than z_max so that its derivative reaches z^z_max; that window serves
    the parity check up to z^z_max and both sides of the recursion. Each P_k
    window serves both of its derivative checks.
    """
    _require_sizes(k_max=(k_max, 1), terms=(terms, 1))
    reports = []
    start = time.perf_counter()
    wps = {k: wp_expansion(k, terms, z_max + 1) for k in range(1, k_max + 1)}
    parity_bad: list[tuple[str, str, str]] = []
    parity_checked = 0
    for k, wp in wps.items():
        for e, row in wp.items():
            if e <= z_max and any(row):
                parity_checked += 1
                if (e - k) % 2:
                    parity_bad.append((f"k={k} z^{e}", "nonzero entry", "parity forbids it"))
    reports.append(ResidueReport("wp-parity", {"k_max": k_max, "z_max": z_max},
                                 parity_checked, tuple(parity_bad), time.perf_counter() - start))
    p_next = p_series(1, terms, -z_max, z_max)
    for k in range(1, k_max):
        start = time.perf_counter()
        # -(1/k) d/dz of wp_k reaches z^z_max; the comparison runs over the
        # z-powers both windows hold
        rhs = {e - 1: tuple(c * Fraction(-e, k) for c in row) for e, row in wps[k].items()}
        reports.append(ResidueReport("wp-derivative-recursion",
                                     {"k": k, "terms": terms, "z_max": z_max},
                                     (z_max + k + 2) * terms, tuple(_window_mismatches(wps[k + 1], rhs)),
                                     time.perf_counter() - start))
        start = time.perf_counter()
        p_k, p_next = p_next, p_series(k + 1, terms, -z_max, z_max)
        plhs = {e: tuple(c * e for c in row) for e, row in p_k.items()}
        prhs = {e: tuple(c * k for c in row) for e, row in p_next.items()}
        reports.append(ResidueReport("p-z-derivative",
                                     {"k": k, "terms": terms, "z_max": z_max},
                                     2 * z_max * terms, tuple(_window_mismatches(plhs, prhs)),
                                     time.perf_counter() - start))
    return reports


# ---------------------------------------------------------------------------
# residue identities
# ---------------------------------------------------------------------------

def _residue_term(i: int, w: int, func, shifted_side: bool, terms: int) -> list[int]:
    """Residue in w of (w-z)^i z^(w-1-i) w^(-w) times a z-diagonal integrand.

    func(n) returns the integer row multiplying z^n in the integrand (None
    for no contribution). shifted_side chooses the |z| > |w| expansion of
    the i = -1 pole; for i >= 0 both expansions are the same polynomial. The
    q-coefficients are accumulated in one integer list, over the nonzero
    entries of each row only.
    """
    if i >= 0:
        pairs = [(i - j - w + 1, comb(i, j) * (-1) ** j) for j in range(i + 1)]
    elif not shifted_side:
        # (w - z)^(-1) = sum_j z^j w^(-1-j) for |w| > |z|
        pairs = [(-j - w, 1) for j in range(terms + w + 1)]
    else:
        # (-z + w)^(-1) = -sum_j z^(-1-j) w^j for |z| > |w|
        pairs = [(j - w + 1, -1) for j in range(terms + w + 1)]
    total = [0] * terms
    for n, beta in pairs:
        row = func(n)
        if row is not None:
            for k, co in enumerate(row):
                if co:
                    total[k] += co * beta
    return total


def _residue_identity_value(w: int, m: int | None, terms: int) -> tuple[Fraction, ...]:
    """q-coefficients of sum_i c_i (A_i - B_i) for integrand P_m (m=None: bare 1, m=1: P_1 - 1).

    c_{-1} = 1, c_0, c_1, ... is the bracket_coeffs(w, -1) row, the
    coefficients of (1+z)^(w-1)/log(1+z). The P_m rows are integers over
    (m-1)! and the c-row is cleared to integers, so the i-sum runs over int;
    only the total is divided out.
    """
    one = (1,) + (0,) * (terms - 1)
    if m is None:
        def afunc(n):
            return one if n == 0 else None

        bfunc = afunc
        i_top = 2
    else:
        def afunc(n):
            return _p_row(m, n, terms, False) if n != 0 else None

        def bfunc(n):
            if n != 0:
                return _p_row(m, n, terms, True)
            return tuple(-co for co in one) if m == 1 else None

        i_top = m + 2
    c_row = _CommonDenominator(bracket_coeffs(w, -1, i_top + 2))
    c, den = c_row.nums, c_row.den * (factorial(m - 1) if m else 1)
    total = [0] * terms
    tail: list[bool] = []
    for i in range(-1, i_top + 1):
        delta = list(map(sub, _residue_term(i, w, afunc, False, terms),
                         _residue_term(i, w, bfunc, True, terms)))
        for k, d in enumerate(delta):
            if d:
                total[k] += d * c[i + 1]
        tail.append(not any(delta))
    if not (tail[-1] and tail[-2]):
        raise AssertionError(f"residue i-sum did not stabilize for w={w}, m={m}")
    return tuple(Fraction(t, den) for t in total)


def verify_residue_identities(w: int, terms: int = 6) -> list[ResidueReport]:
    """Exact residue identity checks for weight w and the P_m integrands, m = 1..5.

    The bare integrand sums to the constant 1, the P_1 - 1 integrand to the
    constant -1/2, and P_m (m >= 2) to the Eisenstein series E_m, which is 0
    for odd m. Each total is compared with its target as the z^0 row of a
    window.
    """
    _require_sizes(w=(w, 1), terms=(terms, 1))
    reports = []
    zeros = (Fraction(0),) * (terms - 1)
    for m in (None, 1, 2, 3, 4, 5):
        start = time.perf_counter()
        got = _residue_identity_value(w, m, terms)
        if m is None:
            want = (Fraction(1),) + zeros
        elif m == 1:
            want = (Fraction(-1, 2),) + zeros
        elif m % 2 == 0:
            want = eisenstein(m, terms).coeffs
        else:
            want = (Fraction(0),) + zeros
        reports.append(ResidueReport("residue-unit" if m is None else f"residue-p{m}",
                                     {"w": w, "terms": terms}, terms,
                                     tuple(_window_mismatches({0: got}, {0: want})),
                                     time.perf_counter() - start))
    return reports


# ---------------------------------------------------------------------------
# the binomial mode expansion
# ---------------------------------------------------------------------------

def verify_expansion_identity(w: int, terms: int = 6, i_max: int = 8,
                              n_max: int = 6) -> ResidueReport:
    """Check the binomial mode expansion against P_{m+1} and the bracket rows.

    For each retained z-power i and each x-exponent n with 1 <= |n| <= n_max,
    the q-series C(w-1+n, i)/(1-q^n) must equal
    sum_{m=0}^{i} (z^n entry of P_{m+1}) * b_{i-m}, where b is the
    bracket_coeffs(w, m) row. Exact in every retained q-power. Rows are
    prefixes of deeper rows, so each m takes one row of depth i_max - m + 1.
    For each i the entries b_{i-m}/m! are cleared to one denominator, so each
    right-hand side is an integer sum over the nonzero entries of the
    P_{m+1} rows; 1/(1-q^n) is the z^n row of P_1.
    """
    _require_sizes(w=(w, 1), terms=(terms, 1), i_max=(i_max, 0), n_max=(n_max, 1))
    start = time.perf_counter()
    bad: list[tuple[str, str, str]] = []
    checked = 0
    rows = [bracket_coeffs(w, m, i_max - m + 1) for m in range(0, i_max + 1)]
    for i in range(0, i_max + 1):
        cleared = _CommonDenominator(rows[m][i - m] / factorial(m) for m in range(0, i + 1))
        beta, den = cleared.nums, cleared.den
        for n in list(range(-n_max, 0)) + list(range(1, n_max + 1)):
            scale = comb(w - 1 + n, i) if n >= 1 - w else (-1) ** i * comb(i - w - n, i)
            rhs = [0] * terms
            for m, b in enumerate(beta):
                for k, co in enumerate(_p_row(m + 1, n, terms, False)):
                    if co:
                        rhs[k] += co * b
            for k, g in enumerate(_p_row(1, n, terms, False)):
                if g * scale * den != rhs[k]:
                    bad.append((f"i={i} n={n} q^{k}", str(g * scale), str(Fraction(rhs[k], den))))
            checked += terms
    return ResidueReport("binomial-mode-expansion", {"w": w, "terms": terms},
                         checked, tuple(bad), time.perf_counter() - start)
