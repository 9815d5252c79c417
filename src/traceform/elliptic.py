"""Twisted elliptic series and Weierstrass-type expansions, exactly.

The central objects are the formal series

    P_k(z, q) = (1/(k-1)!) sum_{n != 0} n^(k-1) z^n / (1 - q^n),

expanded with 1/(1-q^n) = sum_{i>=0} q^(ni) for n > 0 and
1/(1-q^n) = -sum_{i>=1} q^(-ni) for n < 0, and the Weierstrass Laurent
expansions

    wp_k(z, q) = z^(-k) + (-1)^k sum_{n>=1} C(2n+1, k-1) E_{2n+2}(q) z^(2n+2-k),

both stored as BivariateLaurent: a finite window of z-powers, each carrying
an exact q-series. Outside the window coefficients are unknown, not zero.

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

verify_expansion_identity checks the mode expansion of (w-1+n choose i)
against the bracket coefficient tables and the z^n entries of P_{m+1}.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from operator import sub

from .bracket import bracket_coeffs
from .linalg import _RationalLike, _frac
from .qseries import PuiseuxSeries, bernoulli, eisenstein
from .virasoro import _gbinom


def _zero_series(terms: int) -> PuiseuxSeries:
    return PuiseuxSeries(0, [Fraction(0)] * terms)


def _const_series(value: Fraction, terms: int) -> PuiseuxSeries:
    return PuiseuxSeries(0, [value] + [Fraction(0)] * (terms - 1))


class BivariateLaurent:
    """Finite window of z-powers with an exact q-series on each.

    entries maps z-exponent -> PuiseuxSeries on the integer lattice with
    leading exponent 0 and a common truncation. Absent exponents inside
    [z_min, z_max] are zero; exponents outside the window are unknown.
    """

    __slots__ = ("entries", "z_min", "z_max", "qterms")

    def __init__(self, entries: dict[int, PuiseuxSeries], z_min: int, z_max: int, qterms: int):
        if z_min > z_max:
            raise ValueError("empty z-window")
        for e, s in entries.items():
            if not z_min <= e <= z_max:
                raise ValueError(f"entry z^{e} outside window [{z_min}, {z_max}]")
            if s.lam != 0 or len(s.coeffs) != qterms:
                raise ValueError(f"entry z^{e} must sit on the integer lattice with {qterms} terms")
        self.entries = {e: s for e, s in entries.items() if not s.is_zero()}
        self.z_min = z_min
        self.z_max = z_max
        self.qterms = qterms

    def entry(self, zexp: int) -> PuiseuxSeries:
        if not self.z_min <= zexp <= self.z_max:
            raise ValueError(f"z^{zexp} is outside the window [{self.z_min}, {self.z_max}]")
        series = self.entries.get(zexp)
        return _zero_series(self.qterms) if series is None else series

    def coefficient(self, zexp: int, qexp: _RationalLike) -> Fraction:
        return self.entry(zexp).coefficient(qexp)

    def __add__(self, other):
        if not isinstance(other, BivariateLaurent):
            return NotImplemented
        z_min = max(self.z_min, other.z_min)
        z_max = min(self.z_max, other.z_max)
        qterms = min(self.qterms, other.qterms)
        out: dict[int, PuiseuxSeries] = {}
        for e in range(z_min, z_max + 1):
            s = (self.entry(e) + other.entry(e)).truncate(qterms)
            out[e] = s
        return BivariateLaurent(out, z_min, z_max, qterms)

    def __neg__(self):
        return BivariateLaurent({e: -s for e, s in self.entries.items()},
                                self.z_min, self.z_max, self.qterms)

    def __sub__(self, other):
        if not isinstance(other, BivariateLaurent):
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return BivariateLaurent({e: s * _frac(scalar) for e, s in self.entries.items()},
                                self.z_min, self.z_max, self.qterms)

    __rmul__ = __mul__

    def with_entry_added(self, zexp: int, series: PuiseuxSeries) -> "BivariateLaurent":
        """Add a single q-series at one z-power, window unchanged."""
        out = dict(self.entries)
        out[zexp] = self.entry(zexp) + series.truncate(self.qterms)
        return BivariateLaurent(out, self.z_min, self.z_max, self.qterms)

    def d_dz(self) -> "BivariateLaurent":
        """d/dz: shifts the window down by one."""
        out = {e - 1: s * e for e, s in self.entries.items() if e != 0}
        return BivariateLaurent(out, self.z_min - 1, self.z_max - 1, self.qterms)

    def z_d_dz(self) -> "BivariateLaurent":
        """z d/dz: window unchanged."""
        out = {e: s * e for e, s in self.entries.items() if e != 0}
        return BivariateLaurent(out, self.z_min, self.z_max, self.qterms)

    def mismatches(self, other: "BivariateLaurent") -> list[tuple[str, str, str]]:
        """Per-coefficient differences over the common window, as report rows."""
        if not isinstance(other, BivariateLaurent):
            raise TypeError("can only compare BivariateLaurent objects")
        z_min = max(self.z_min, other.z_min)
        z_max = min(self.z_max, other.z_max)
        qterms = min(self.qterms, other.qterms)
        bad: list[tuple[str, str, str]] = []
        for e in range(z_min, z_max + 1):
            a, b = self.entry(e), other.entry(e)
            for n in range(qterms):
                if a.coeffs[n] != b.coeffs[n]:
                    bad.append((f"z^{e} q^{n}", str(a.coeffs[n]), str(b.coeffs[n])))
        return bad

    def __eq__(self, other):
        if not isinstance(other, BivariateLaurent):
            return NotImplemented
        return (self.z_min, self.z_max, self.qterms) == (other.z_min, other.z_max, other.qterms) \
            and not self.mismatches(other)

    def __repr__(self):
        return (f"BivariateLaurent(z^{self.z_min}..z^{self.z_max}, qterms={self.qterms}, "
                f"{len(self.entries)} nonzero entries)")


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def _geo_coeffs(n: int, terms: int) -> list[Fraction]:
    """1/(1 - q^n) expanded inside the unit q-disk, n != 0."""
    out = [Fraction(0)] * terms
    if n > 0:
        for i in range(0, terms, n):
            out[i] = Fraction(1)
    else:
        for i in range(-n, terms, -n):
            out[i] = Fraction(-1)
    return out


def p_zcoeff(k: int, n: int, terms: int) -> PuiseuxSeries:
    """Coefficient q-series of z^n in P_k(z, q), n != 0."""
    if n == 0:
        raise ValueError("P_k has no z^0 entry")
    scalar = Fraction(n ** (k - 1), factorial(k - 1))
    return PuiseuxSeries(0, [scalar * c if c else c for c in _geo_coeffs(n, terms)])


def p_series(k: int, terms: int, z_min: int = -8, z_max: int = 8) -> BivariateLaurent:
    """P_k(z, q) over a finite z-window."""
    if k < 1:
        raise ValueError("k must be >= 1")
    entries = {n: p_zcoeff(k, n, terms) for n in range(z_min, z_max + 1) if n != 0}
    return BivariateLaurent(entries, z_min, z_max, terms)


def wp_expansion(k: int, terms: int, z_max: int = 8) -> BivariateLaurent:
    """wp_k: pole z^(-k) plus Eisenstein coefficients at z^(2n+2-k), n >= 1.

    Only exponents congruent to -k mod 2 appear; in particular wp_2 has
    z^2 coefficient 3 E_4 and no z^0 term.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    entries: dict[int, PuiseuxSeries] = {-k: _const_series(Fraction(1), terms)}
    sign = -1 if k % 2 else 1
    n = 1
    while 2 * n + 2 - k <= z_max:
        coeff = _gbinom(2 * n + 1, k - 1) * sign
        if coeff != 0:
            entries[2 * n + 2 - k] = eisenstein(2 * n + 2, terms) * coeff
        n += 1
    return BivariateLaurent(entries, -k, z_max, terms)


def p_series_at_exp(k: int, terms: int, z_max: int = 8) -> BivariateLaurent:
    """P_k(e^z, q) with the q^0 tail resummed through Bernoulli numbers."""
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
    inv_fac = Fraction(1, factorial(k - 1))
    rows: dict[int, list[Fraction]] = {}
    for e in range(-k, z_max + 1):
        rows[e] = [Fraction(0)] * terms
        if e in g:
            rows[e][0] = g[e] * inv_fac
    for l in range(1, terms):
        d = 1
        while d <= l:
            if l % d == 0:
                dk = Fraction(d ** (k - 1), factorial(k - 1))
                flip = -1 if (k - 1) % 2 == 0 else 1
                for j in range(0, z_max + 1):
                    # e^{dz} contributes d^j/j!, e^{-dz} contributes (-d)^j/j!
                    term = dk * Fraction(d ** j, factorial(j))
                    rows[j][l] += term + flip * term * ((-1) ** j)
            d += 1
    entries = {e: PuiseuxSeries(0, coeffs) for e, coeffs in rows.items()}
    return BivariateLaurent(entries, -k, z_max, terms)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ResidueReport:
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


def _series_mismatches(label: str, got: PuiseuxSeries, want: PuiseuxSeries) -> list[tuple[str, str, str]]:
    bad = []
    n = min(len(got.coeffs), len(want.coeffs))
    for i in range(n):
        if got.coeffs[i] != want.coeffs[i]:
            bad.append((f"{label} q^{got.lam + i}", str(got.coeffs[i]), str(want.coeffs[i])))
    return bad


def verify_p_wp_relations(k_max: int = 5, terms: int = 9, z_max: int = 8) -> list[ResidueReport]:
    """Check P_k(e^z, q) against the Weierstrass expansions, exactly.

    For each k <= k_max, compares every coefficient of z^-k..z^z_max and
    q^0..q^(terms-1) on both sides of the closed-form identities quoted in
    the module docstring.
    """
    reports = []
    for k in range(1, k_max + 1):
        start = time.perf_counter()
        lhs = p_series_at_exp(k, terms, z_max)
        wp = wp_expansion(k, terms, z_max)
        if k == 1:
            rhs = (-wp).with_entry_added(1, eisenstein(2, terms)) \
                       .with_entry_added(0, _const_series(Fraction(-1, 2), terms))
        elif k == 2:
            rhs = wp.with_entry_added(0, eisenstein(2, terms))
        else:
            rhs = wp * ((-1) ** k)
        bad = lhs.mismatches(rhs)
        checked = (z_max + k + 1) * terms
        reports.append(ResidueReport("p-series-weierstrass", {"k": k, "terms": terms, "z_max": z_max},
                                     checked, tuple(bad), time.perf_counter() - start))
    return reports


def verify_wp_structure(k_max: int = 5, terms: int = 9, z_max: int = 8) -> list[ResidueReport]:
    """Structural checks tying the wp and P families together, exactly.

    The wp_k window only carries z-powers of the same parity as k, the
    derivative recursion wp_{k+1} = -(1/k) d/dz wp_k reproduces each
    expansion from the previous one, and z d/dz P_k = k P_{k+1} does the
    same on the q-series side.
    """
    reports = []
    start = time.perf_counter()
    parity_bad: list[tuple[str, str, str]] = []
    parity_checked = 0
    for k in range(1, k_max + 1):
        wp = wp_expansion(k, terms, z_max)
        for e in wp.entries:
            parity_checked += 1
            if (e - k) % 2:
                parity_bad.append((f"k={k} z^{e}", "nonzero entry", "parity forbids it"))
    reports.append(ResidueReport("wp-parity", {"k_max": k_max, "z_max": z_max},
                                 parity_checked, tuple(parity_bad), time.perf_counter() - start))
    for k in range(1, k_max):
        start = time.perf_counter()
        lhs = wp_expansion(k + 1, terms, z_max)
        rhs = wp_expansion(k, terms, z_max + 1).d_dz() * Fraction(-1, k)
        reports.append(ResidueReport("wp-derivative-recursion",
                                     {"k": k, "terms": terms, "z_max": z_max},
                                     (z_max + k + 2) * terms, tuple(lhs.mismatches(rhs)),
                                     time.perf_counter() - start))
        start = time.perf_counter()
        plhs = p_series(k, terms, -z_max, z_max).z_d_dz()
        prhs = p_series(k + 1, terms, -z_max, z_max) * k
        reports.append(ResidueReport("p-z-derivative",
                                     {"k": k, "terms": terms, "z_max": z_max},
                                     2 * z_max * terms, tuple(plhs.mismatches(prhs)),
                                     time.perf_counter() - start))
    return reports


# ---------------------------------------------------------------------------
# residue identities
# ---------------------------------------------------------------------------

def _c_row(w: int, depth: int) -> list[Fraction]:
    """c_{-1}, c_0, c_1, ... of (1+z)^(w-1)/log(1+z); c_{-1} = 1."""
    return list(bracket_coeffs(w, -1, depth))


def p_shift_zcoeff(k: int, n: int, terms: int) -> PuiseuxSeries:
    """Coefficient q-series of z^n in P_k(zq, q), n != 0: the q^n-shifted row."""
    if n == 0:
        raise ValueError("P_k has no z^0 entry")
    scalar = Fraction(n ** (k - 1), factorial(k - 1))
    out = [Fraction(0)] * terms
    if n > 0:
        for i in range(n, terms, n):
            out[i] = scalar
    else:
        for i in range(0, terms, -n):
            out[i] = -scalar
    return PuiseuxSeries(0, out)


def _residue_term(i: int, w: int, func, shifted_side: bool, terms: int) -> list[Fraction]:
    """Residue in w of (w-z)^i z^(w-1-i) w^(-w) times a z-diagonal integrand.

    func(n) returns the q-series multiplying z^n in the integrand (None for
    no contribution). shifted_side chooses the |z| > |w| expansion of the
    i = -1 pole; for i >= 0 both expansions are the same polynomial. The
    q-coefficients are accumulated in one list, over the nonzero entries of
    each func(n) only.
    """
    if i >= 0:
        pairs = [(i - j - w + 1, _gbinom(i, j) * (-1) ** j) for j in range(i + 1)]
    elif not shifted_side:
        # (w - z)^(-1) = sum_j z^j w^(-1-j) for |w| > |z|
        pairs = [(-j - w, 1) for j in range(terms + w + 1)]
    else:
        # (-z + w)^(-1) = -sum_j z^(-1-j) w^j for |z| > |w|
        pairs = [(j - w + 1, -1) for j in range(terms + w + 1)]
    total = [Fraction(0)] * terms
    for n, beta in pairs:
        val = func(n)
        if val is not None:
            for k, co in enumerate(val.coeffs):
                if co:
                    total[k] += co * beta
    return total


def _residue_identity_value(w: int, m: int | None, terms: int) -> PuiseuxSeries:
    """Total sum_i c_i (A_i - B_i) for integrand P_m (m=None: bare 1, m=1: P_1 - 1).

    The i-sum is accumulated in one coefficient list; one series is built
    for the total.
    """
    one = _const_series(Fraction(1), terms)
    if m is None:
        def afunc(n):
            return one if n == 0 else None

        bfunc = afunc
        i_top = 2
    else:
        def afunc(n):
            return p_zcoeff(m, n, terms) if n != 0 else None

        if m == 1:
            def bfunc(n):
                if n == 0:
                    return -one
                return p_shift_zcoeff(m, n, terms)
        else:
            def bfunc(n):
                return p_shift_zcoeff(m, n, terms) if n != 0 else None

        i_top = m + 2
    c = _c_row(w, i_top + 2)
    total = [Fraction(0)] * terms
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
    return PuiseuxSeries(0, total)


def verify_residue_identities(w: int, terms: int = 6,
                              ms: tuple[int, ...] = (1, 2, 3, 4, 5)) -> list[ResidueReport]:
    """Exact residue identity checks for weight w and the listed P_m integrands.

    The bare integrand sums to the constant 1, the P_1 - 1 integrand to the
    constant -1/2, and P_m (m >= 2) to the Eisenstein series E_m, which is 0
    for odd m.
    """
    if w < 1:
        raise ValueError("w must be a positive integer")
    reports = []
    start = time.perf_counter()
    got = _residue_identity_value(w, None, terms)
    want = _const_series(Fraction(1), terms)
    reports.append(ResidueReport("residue-unit", {"w": w, "terms": terms},
                                 terms, tuple(_series_mismatches("", got, want)),
                                 time.perf_counter() - start))
    for m in ms:
        start = time.perf_counter()
        got = _residue_identity_value(w, m, terms)
        if m == 1:
            want = _const_series(Fraction(-1, 2), terms)
        elif m % 2 == 0:
            want = eisenstein(m, terms)
        else:
            want = _zero_series(terms)
        reports.append(ResidueReport(f"residue-p{m}", {"w": w, "terms": terms},
                                     terms, tuple(_series_mismatches("", got, want)),
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
    prefixes of deeper rows, so each m takes one row of depth i_max - m + 1;
    each right-hand side is accumulated in one coefficient list over the
    nonzero entries of P_{m+1}.
    """
    if w < 1:
        raise ValueError("w must be a positive integer")
    start = time.perf_counter()
    bad: list[tuple[str, str, str]] = []
    checked = 0
    pseries = [p_series(m + 1, terms, -n_max, n_max) for m in range(0, i_max + 1)]
    rows = [bracket_coeffs(w, m, i_max - m + 1) for m in range(0, i_max + 1)]
    for i in range(0, i_max + 1):
        for n in list(range(-n_max, 0)) + list(range(1, n_max + 1)):
            scale = _gbinom(w - 1 + n, i)
            lhs = PuiseuxSeries(0, [co * scale for co in _geo_coeffs(n, terms)])
            rhs = [Fraction(0)] * terms
            for m in range(0, i + 1):
                b = rows[m][i - m]
                for k, co in enumerate(pseries[m].entry(n).coeffs):
                    if co:
                        rhs[k] += co * b
            checked += terms
            bad.extend(_series_mismatches(f"i={i} n={n}", lhs, PuiseuxSeries(0, rhs)))
    return ResidueReport("binomial-mode-expansion", {"w": w, "terms": terms},
                         checked, tuple(bad), time.perf_counter() - start)
