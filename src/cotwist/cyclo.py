"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are stored in the power basis 1, zeta_N, ..., zeta_N^(phi(N)-1),
reduced modulo the N-th cyclotomic polynomial, with Fraction coefficients.
Equality is coefficient-wise, so canonical form doubles as an equality test.
Arithmetic between two numbers requires equal conductors; callers embed into
a common conductor first (`CycNum.embed` / `common_conductor`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Mapping, Optional

from .errors import ConductorMismatch, CotwistError


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("conductor must be positive")
    result = n
    m, p = n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


# ---------------------------------------------------------------------------
# integer polynomial helpers (coefficient lists, low degree first)
# ---------------------------------------------------------------------------

def _int_poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    # exact division of integer polynomials; den must be monic up to sign
    num = list(num)
    dn = len(den) - 1
    lead = den[-1]
    quot = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c == 0:
            continue
        if c % lead != 0:
            raise ArithmeticError("non-exact polynomial division")
        q = c // lead
        quot[i - dn] = q
        for j, d in enumerate(den):
            num[i - dn + j] -= q * d
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, low degree first."""
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in _divisors(n):
        if d < n:
            poly = _int_poly_div_exact(poly, list(cyclotomic_poly(d)))
    return tuple(poly)


# per-conductor table of zeta^k reduced into the power basis
_POWER_TABLES: dict[int, list[tuple[Fraction, ...]]] = {}


def _power_mod(n: int, k: int) -> tuple[Fraction, ...]:
    deg = euler_phi(n)
    table = _POWER_TABLES.setdefault(n, [])
    if not table:
        row = [Fraction(0)] * deg
        row[0] = Fraction(1)
        table.append(tuple(row))
    phi = cyclotomic_poly(n)
    while len(table) <= k:
        prev = table[-1]
        row = [Fraction(0)] + list(prev)
        if len(row) > deg:
            top = row.pop()
            if top:
                for j in range(deg):
                    row[j] -= top * phi[j]
        table.append(tuple(row))
    return table[k]


# ---------------------------------------------------------------------------
# Fraction polynomial helpers for inversion
# ---------------------------------------------------------------------------

def _fpoly_trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _fpoly_divmod(a: list[Fraction], b: list[Fraction]):
    a = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    inv_lead = 1 / b[-1]
    while len(a) >= len(b):
        c = a[-1] * inv_lead
        d = len(a) - len(b)
        q[d] = c
        for j in range(len(b)):
            a[d + j] -= c * b[j]
        _fpoly_trim(a)
        if not a:
            break
    return q, a


def _fpoly_invert_mod(b: list[Fraction], modulus: list[Fraction]) -> list[Fraction]:
    # extended Euclid: returns u with u*b == 1 (mod modulus)
    r0, r1 = list(modulus), _fpoly_trim(list(b))
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while len(r1) > 1:
        q, r = _fpoly_divmod(r0, r1)
        s = list(s0)
        # s0 - q*s1
        prod = [Fraction(0)] * (len(q) + len(s1) - 1)
        for i, qi in enumerate(q):
            if qi:
                for j, sj in enumerate(s1):
                    prod[i + j] += qi * sj
        for i in range(max(len(s), len(prod))):
            if i >= len(s):
                s.append(Fraction(0))
            if i < len(prod):
                s[i] -= prod[i]
        r0, r1 = r1, _fpoly_trim(r)
        s0, s1 = s1, _fpoly_trim(s)
    if not r1:
        raise ZeroDivisionError("division by zero in cyclotomic field")
    c = r1[0]
    return [x / c for x in s1]


_ZERO = Fraction(0)


def _mul_quadratic(n: int, a: tuple, b: tuple) -> tuple:
    # phi(n) = 2, i.e. n = 3, 4, 6: z^2 = -c0 - c1*z.  Zero coefficients are
    # skipped because most products in practice are of rationals in Q(i).
    c0, c1, _ = cyclotomic_poly(n)
    a0, a1 = a
    b0, b1 = b
    lo = a0 * b0 if a0 and b0 else _ZERO
    hi = a0 * b1 if a0 and b1 else _ZERO
    if a1:
        if b0:
            hi += a1 * b0
        if b1:
            top = a1 * b1
            lo -= c0 * top
            if c1:
                hi -= c1 * top
    return lo, hi


@dataclass(frozen=True)
class CycNum:
    """An element of Q(zeta_N) in reduced power-basis form."""

    conductor: int
    coeffs: tuple[Fraction, ...]

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(conductor: int = 1) -> "CycNum":
        return CycNum(conductor, (Fraction(0),) * euler_phi(conductor))

    @staticmethod
    def one(conductor: int = 1) -> "CycNum":
        c = [Fraction(0)] * euler_phi(conductor)
        c[0] = Fraction(1)
        return CycNum(conductor, tuple(c))

    @staticmethod
    def rational(value, conductor: int = 1) -> "CycNum":
        c = [Fraction(0)] * euler_phi(conductor)
        c[0] = Fraction(value)
        return CycNum(conductor, tuple(c))

    @staticmethod
    def zeta(conductor: int, power: int = 1) -> "CycNum":
        return CycNum(conductor, _power_mod(conductor, power % conductor))

    @staticmethod
    def i() -> "CycNum":
        return CycNum.zeta(4)

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and all(c == 0 for c in self.coeffs[1:])

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise CotwistError(f"{self} is not rational")
        return self.coeffs[0]

    def _check(self, other: "CycNum") -> None:
        if self.conductor != other.conductor:
            raise ConductorMismatch(
                f"conductor {self.conductor} vs {other.conductor}; embed first"
            )

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "CycNum") -> "CycNum":
        self._check(other)
        return CycNum(self.conductor,
                      tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CycNum") -> "CycNum":
        self._check(other)
        return CycNum(self.conductor,
                      tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CycNum":
        return CycNum(self.conductor, tuple(-a for a in self.coeffs))

    def __mul__(self, other: "CycNum") -> "CycNum":
        self._check(other)
        n, deg = self.conductor, len(self.coeffs)
        if deg == 1:
            return CycNum(n, (self.coeffs[0] * other.coeffs[0],))
        if deg == 2:
            return CycNum(n, _mul_quadratic(n, self.coeffs, other.coeffs))
        prod = [Fraction(0)] * (2 * deg - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        prod[i + j] += a * b
        out = list(prod[:deg])
        for k in range(deg, 2 * deg - 1):
            c = prod[k]
            if c:
                row = _power_mod(n, k)
                for j in range(deg):
                    out[j] += c * row[j]
        return CycNum(n, tuple(out))

    def inverse(self) -> "CycNum":
        if self.is_zero():
            raise ZeroDivisionError("division by zero in cyclotomic field")
        phi = [Fraction(c) for c in cyclotomic_poly(self.conductor)]
        inv = _fpoly_invert_mod(list(self.coeffs), phi)
        deg = len(self.coeffs)
        inv = inv + [Fraction(0)] * (deg - len(inv))
        return CycNum(self.conductor, tuple(inv[:deg]))

    def __truediv__(self, other: "CycNum") -> "CycNum":
        return self * other.inverse()

    def __pow__(self, exponent: int) -> "CycNum":
        support = [k for k, c in enumerate(self.coeffs) if c]
        if len(support) == 1 and abs(self.coeffs[support[0]]) == 1:
            # +-zeta^k with k < phi(N): read the power off the table
            k = support[0]
            value = CycNum.zeta(self.conductor, k * exponent)
            return -value if self.coeffs[k] < 0 and exponent % 2 else value
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = CycNum.one(self.conductor)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- field maps ----------------------------------------------------------

    def embed(self, conductor: int) -> "CycNum":
        """Express the same element with a larger conductor (N must divide it)."""
        if conductor == self.conductor:
            return self
        if conductor % self.conductor != 0:
            raise ConductorMismatch(
                f"cannot embed conductor {self.conductor} into {conductor}"
            )
        step = conductor // self.conductor
        deg = euler_phi(conductor)
        out = [Fraction(0)] * deg
        for k, c in enumerate(self.coeffs):
            if c:
                row = _power_mod(conductor, k * step)
                for j in range(deg):
                    out[j] += c * row[j]
        return CycNum(conductor, tuple(out))

    def conj(self) -> "CycNum":
        """Complex conjugation, i.e. the Galois map zeta_N -> zeta_N^(-1)."""
        n = self.conductor
        deg = len(self.coeffs)
        out = [Fraction(0)] * deg
        for k, c in enumerate(self.coeffs):
            if c:
                row = _power_mod(n, (n - k) % n)
                for j in range(deg):
                    out[j] += c * row[j]
        return CycNum(n, tuple(out))

    # -- display -------------------------------------------------------------

    def __str__(self) -> str:
        return format_cycnum(self)

    def __repr__(self) -> str:
        return f"CycNum({self.conductor}, '{format_cycnum(self)}')"


def common_conductor(*values: CycNum) -> int:
    return lcm(*(v.conductor for v in values))


# ---------------------------------------------------------------------------
# roots of unity as exponents: k mod m means zeta_m^k, and the roots of unity
# in Q(zeta_N) are exactly those of order dividing lcm(2, N)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1024)
def root_of_unity(k: int, m: int, conductor: int) -> CycNum:
    """zeta_m^k as an element of Q(zeta_conductor)."""
    step = gcd(k, m)
    order = m // step
    field = lcm(2, conductor)
    if field % order:
        raise ConductorMismatch(
            f"a root of unity of order {order} is not in Q(zeta({conductor}))")
    e = (k // step) * (field // order) % field
    if field == conductor or e % 2 == 0:
        return CycNum.zeta(conductor, e * conductor // field)
    # odd conductor N: zeta_2N^e = -zeta_2N^(e + N) = -zeta_N^((e + N) / 2)
    return -CycNum.zeta(conductor, (e + conductor) // 2)


def root_exponent(value: CycNum, modulus: int) -> Optional[int]:
    """k in [0, modulus) with value == zeta_modulus^k, or None when value is
    not a root of unity of order dividing modulus."""
    order = gcd(modulus, lcm(2, value.conductor))
    for k in range(order):
        if root_of_unity(k, order, value.conductor) == value:
            return k * (modulus // order)
    return None


# ---------------------------------------------------------------------------
# canonical rendering
# ---------------------------------------------------------------------------

def _fmt_rational(f: Fraction) -> str:
    return str(f)


def _fmt_term(coeff: Fraction, power: int, conductor: int) -> str:
    if power == 0:
        return _fmt_rational(coeff)
    base = "i" if conductor == 4 else f"zeta({conductor})"
    sym = base if power == 1 else f"{base}^{power}"
    if coeff == 1:
        return sym
    if coeff == -1:
        return f"-{sym}"
    return f"{_fmt_rational(coeff)}*{sym}"


def format_cycnum(value: CycNum) -> str:
    """Deterministic text form, parseable by `parse_scalar`."""
    parts = []
    for k, c in enumerate(value.coeffs):
        if c:
            parts.append(_fmt_term(c, k, value.conductor))
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        if p.startswith("-"):
            out += " - " + p[1:]
        else:
            out += " + " + p
    return out


def parse_scalar(text: str, variables: Optional[Mapping[str, int]] = None) -> CycNum:
    """Parse a scalar expression: a degree-0 polynomial over the empty
    alphabet in the grammar of `freealg.parse_ncpoly`.

    The result carries the conductor the text names; embed into the
    computation's global conductor afterwards."""
    from .freealg import parse_ncpoly  # freealg builds on this module
    p = parse_ncpoly(text, (), 1, variables)
    return p.terms[()] if p.terms else CycNum.zero(p.conductor)
