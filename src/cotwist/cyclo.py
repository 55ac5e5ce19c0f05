"""Exact arithmetic in cyclotomic fields Q(zeta_N).

An element is a vector of integer numerators in the power basis
1, zeta_N, ..., zeta_N^(phi(N)-1), reduced modulo the N-th cyclotomic
polynomial, over one positive common denominator.  The representation is
always in lowest terms (gcd(den, *num) == 1, zero is (0, ..., 0)/1), so it
is canonical and doubles as an equality test and a hash key.  Arithmetic
works on the integers directly, and so does text rendering; `Fraction`
appears only at the boundary, imported on first use: the public
constructor, `rational` on a non-integer and `coeffs`.
Arithmetic between two numbers requires equal conductors; callers embed into
a common conductor first (`CycNum.embed` / `common_conductor`).

Every conductor shares this one arithmetic; for phi(N) = 1 (conductors 1
and 2) the vectors have length one.  The rewrite loop of `gbasis` does its
own arithmetic on rules over a common denominator; it takes only `CycNum`
and `_reduced` from here.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm
from operator import neg
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from .errors import ConductorMismatch, LimitExceeded

if TYPE_CHECKING:
    from fractions import Fraction


# The largest conductor of a parsed expression or a presentation (`freealg`
# checks both): a group of order <= 64 has its character and cocycle values
# in Q(zeta_N), N <= 128, and `gb --degree 5` over zeta(N) takes 0.5 s at
# N = 256 and 3.8 s at 512.
MAX_CONDUCTOR = 256


def check_conductor(n: int) -> int:
    """n, or LimitExceeded when it passes MAX_CONDUCTOR."""
    if n > MAX_CONDUCTOR:
        raise LimitExceeded(f"conductor {n} exceeds the limit {MAX_CONDUCTOR}")
    return n


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


# Each entry is a small tuple; the bound only caps a long-running process
# that meets many conductors.
@lru_cache(maxsize=256)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, low degree first."""
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in _divisors(n):
        if d < n:
            poly = _int_poly_div_exact(poly, list(cyclotomic_poly(d)))
    return tuple(poly)


# Per-conductor table of zeta^k reduced into the power basis; the rows are
# integers because the cyclotomic polynomial is monic.  The cache holds the
# growing list, so a table evicted by the bound is only rebuilt.
@lru_cache(maxsize=256)
def _power_table(n: int) -> list[tuple[int, ...]]:
    return [(1,) + (0,) * (euler_phi(n) - 1)]


def _power_rows(n: int, k: int) -> list[tuple[int, ...]]:
    """The table of zeta_n^0, zeta_n^1, ... in the power basis, grown to at
    least k + 1 rows."""
    table = _power_table(n)
    if len(table) <= k:
        phi = cyclotomic_poly(n)
        deg = len(phi) - 1
        while len(table) <= k:
            row = [0] + list(table[-1])
            top = row.pop()
            if top:
                for j in range(deg):
                    row[j] -= top * phi[j]
            table.append(tuple(row))
    return table


# ---------------------------------------------------------------------------
# integer vectors in the power basis of Z[zeta_N]
# ---------------------------------------------------------------------------

# Phi_N = x^2 + c1*x + 1 for the conductors with phi(N) = 2
_QUADRATIC_C1 = {n: cyclotomic_poly(n)[1] for n in (3, 4, 6)}


def _vmul(n: int, a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The product of two integer vectors, reduced modulo Phi_N."""
    deg = len(a)
    if deg == 2:
        # conductors 3, 4, 6: zeta^2 = -1 - c1*zeta
        x0, x1 = a
        y0, y1 = b
        top = x1 * y1
        return [x0 * y0 - top, x0 * y1 + x1 * y0 - _QUADRATIC_C1[n] * top]
    prod = [0] * (2 * deg - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    prod[i + j] += x * y
    out = prod[:deg]
    table = _power_rows(n, 2 * deg - 2)
    for k in range(deg, 2 * deg - 1):
        c = prod[k]
        if c:
            row = table[k]
            for j in range(deg):
                out[j] += c * row[j]
    return out


def _vsubst(n: int, a: Sequence[int], k: int) -> list[int]:
    """sum_j a_j zeta_n^(jk) in the power basis of Z[zeta_n]."""
    table = _power_rows(n, n - 1)
    deg = len(table[0])
    out = [0] * deg
    for j, c in enumerate(a):
        if c:
            row = table[j * k % n]
            for i in range(deg):
                out[i] += c * row[i]
    return out


_new = object.__new__


def _make(n: int, num: tuple, den: int) -> "CycNum":
    # trusted constructor: num/den must already be in lowest terms, den > 0;
    # the slot setters bypass CycNum.__setattr__, which refuses every write
    x = _new(CycNum)
    _set_conductor(x, n)
    _set_num(x, num)
    _set_den(x, den)
    return x


def _reduced(n: int, num: Sequence[int], den: int) -> "CycNum":
    g = gcd(den, *num)
    if g == 1:
        return _make(n, tuple(num), den)
    return _make(n, tuple(x // g for x in num), den // g)


def _mismatch(a: "CycNum", b: "CycNum") -> ConductorMismatch:
    return ConductorMismatch(
        f"conductor {a.conductor} vs {b.conductor}; embed first")


def _add_vector(n: int, a: Sequence[int], b: int, c: Sequence[int],
                d: int) -> "CycNum":
    if b == d:
        return _reduced(n, [x + y for x, y in zip(a, c)], b)
    g = gcd(b, d)
    s, e = b // g, d // g
    return _reduced(n, [x * e + y * s for x, y in zip(a, c)], s * d)


class CycNum:
    """An element of Q(zeta_N): integer numerators `num` in the power basis
    over the positive common denominator `den`, in lowest terms.  Values
    are immutable, and `zero`, `one` and the roots of unity are shared
    instances; every operation returns a new value."""

    __slots__ = ("conductor", "num", "den")

    def __init__(self, conductor: int, coeffs: Sequence) -> None:
        """The element with rational power-basis coefficients `coeffs`."""
        from fractions import Fraction
        fracs = [Fraction(c) for c in coeffs]
        if len(fracs) != euler_phi(conductor):
            raise ValueError(
                f"Q(zeta({conductor})) needs {euler_phi(conductor)} coefficients")
        den = lcm(*(f.denominator for f in fracs))
        _set_conductor(self, conductor)
        _set_num(self, tuple(f.numerator * (den // f.denominator) for f in fracs))
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("CycNum is immutable")

    def __delattr__(self, name):
        raise AttributeError("CycNum is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    @lru_cache(maxsize=64)
    def zero(conductor: int = 1) -> "CycNum":
        return _make(conductor, (0,) * euler_phi(conductor), 1)

    @staticmethod
    @lru_cache(maxsize=64)
    def one(conductor: int = 1) -> "CycNum":
        return _make(conductor, (1,) + (0,) * (euler_phi(conductor) - 1), 1)

    @staticmethod
    def rational(value, conductor: int = 1) -> "CycNum":
        if not isinstance(value, int):
            from fractions import Fraction
            value = Fraction(value)
        return _make(conductor,
                     (value.numerator,) + (0,) * (euler_phi(conductor) - 1),
                     value.denominator)

    @staticmethod
    def zeta(conductor: int, power: int = 1) -> "CycNum":
        k = power % conductor
        return _make(conductor, _power_rows(conductor, k)[k], 1)

    # -- structure -----------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coefficients as Fractions."""
        from fractions import Fraction
        return tuple(Fraction(x, self.den) for x in self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_one(self) -> bool:
        return self.den == 1 and self.num[0] == 1 and not any(self.num[1:])

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def height(self) -> int:
        """Bits of the largest numerator or of the denominator."""
        return max(self.den.bit_length(), *(abs(x).bit_length() for x in self.num))

    def __eq__(self, other) -> bool:
        if other.__class__ is not CycNum:
            return NotImplemented
        return (self.num == other.num and self.den == other.den
                and self.conductor == other.conductor)

    def __hash__(self) -> int:
        return hash((self.conductor, self.num, self.den))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "CycNum") -> "CycNum":
        n = self.conductor
        if other.conductor != n:
            raise _mismatch(self, other)
        return _add_vector(n, self.num, self.den, other.num, other.den)

    def __sub__(self, other: "CycNum") -> "CycNum":
        n = self.conductor
        if other.conductor != n:
            raise _mismatch(self, other)
        return _add_vector(n, self.num, self.den, tuple(map(neg, other.num)),
                           other.den)

    def __neg__(self) -> "CycNum":
        return _make(self.conductor, tuple(map(neg, self.num)), self.den)

    def __mul__(self, other: "CycNum") -> "CycNum":
        n = self.conductor
        if other.conductor != n:
            raise _mismatch(self, other)
        a, c = self.num, other.num
        den = self.den * other.den
        if len(a) == 2:
            # `_vmul` and `_reduced` inlined: products at conductor 4 are
            # the bulk of the crossed-product work
            x0, x1 = a
            y0, y1 = c
            top = x1 * y1
            lo = x0 * y0 - top
            hi = x0 * y1 + x1 * y0 - _QUADRATIC_C1[n] * top
            g = gcd(lo, hi, den)
            if g != 1:
                lo //= g
                hi //= g
                den //= g
            return _make(n, (lo, hi), den)
        return _reduced(n, _vmul(n, a, c), den)

    # Fused operations for the rewrite loop of `gbasis` at phi(N) >= 2 and
    # for the eliminations of `linalg`: each builds one value where the
    # operators would build two.

    def neg_mul(self, other: "CycNum") -> "CycNum":
        """-(self*other)."""
        n = self.conductor
        if other.conductor != n:
            raise _mismatch(self, other)
        return _reduced(n, [-x for x in _vmul(n, self.num, other.num)],
                        self.den * other.den)

    def sub_mul(self, a: "CycNum", b: "CycNum") -> "CycNum":
        """self - a*b."""
        n = self.conductor
        if a.conductor != n or b.conductor != n:
            raise _mismatch(self, b if a.conductor == n else a)
        return _add_vector(n, self.num, self.den,
                           [-t for t in _vmul(n, a.num, b.num)], a.den * b.den)

    def inverse(self) -> "CycNum":
        a, b, n = self.num, self.den, self.conductor
        if not any(a):
            raise ZeroDivisionError("division by zero in cyclotomic field")
        # 1/a = (product of the other Galois conjugates of a) / norm(a); for
        # phi(N) = 1 there are none and the norm is a itself
        others = [1] + [0] * (len(a) - 1)
        for k in range(2, n):
            if gcd(k, n) == 1:
                others = _vmul(n, others, _vsubst(n, a, k))
        norm = _vmul(n, a, others)[0]
        if norm < 0:
            b, norm = -b, -norm
        return _reduced(n, [b * x for x in others], norm)

    def __truediv__(self, other: "CycNum") -> "CycNum":
        return self * other.inverse()

    def __pow__(self, exponent: int) -> "CycNum":
        support = [k for k, c in enumerate(self.num) if c]
        if len(support) == 1 and self.den == 1 and abs(self.num[support[0]]) == 1:
            # +-zeta^k with k < phi(N): read the power off the table
            k = support[0]
            value = CycNum.zeta(self.conductor, k * exponent)
            return -value if self.num[k] < 0 and exponent % 2 else value
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

    # -- field map -----------------------------------------------------------
    # The embedding sends the ring of integers into a ring of integers, so it
    # keeps the numerators' content and the result stays in lowest terms.

    def embed(self, conductor: int) -> "CycNum":
        """Express the same element with a larger conductor (N must divide it)."""
        if conductor == self.conductor:
            return self
        if conductor % self.conductor != 0:
            raise ConductorMismatch(
                f"cannot embed conductor {self.conductor} into {conductor}")
        # zeta_N = zeta_M^(M/N)
        step = conductor // self.conductor
        return _make(conductor, tuple(_vsubst(conductor, self.num, step)),
                     self.den)

    # -- display -------------------------------------------------------------

    def __str__(self) -> str:
        return format_cycnum(self)

    def __repr__(self) -> str:
        return f"CycNum({self.conductor}, '{format_cycnum(self)}')"


_set_conductor = CycNum.conductor.__set__
_set_num = CycNum.num.__set__
_set_den = CycNum.den.__set__


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

def _fmt_term(n: int, d: int, power: int, conductor: int) -> str:
    """The term (n/d)*zeta^power, for n/d nonzero and in lowest terms."""
    coeff = str(n) if d == 1 else f"{n}/{d}"
    if power == 0:
        return coeff
    base = "i" if conductor == 4 else f"zeta({conductor})"
    sym = base if power == 1 else f"{base}^{power}"
    if d == 1 and n == 1:
        return sym
    if d == 1 and n == -1:
        return f"-{sym}"
    return f"{coeff}*{sym}"


def format_cycnum(value: CycNum) -> str:
    """Deterministic text form, parseable by `parse_scalar`."""
    den = value.den
    parts = []
    for k, x in enumerate(value.num):
        if x:
            g = gcd(x, den)
            parts.append(_fmt_term(x // g, den // g, k, value.conductor))
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
