"""Finite abelian groups, fixed dualities G ~ G^, 2-cocycles and coboundaries.

Group elements are residue vectors, enumerated in itertools.product order
(last coordinate fastest).  Cocycle and character values are restricted to
roots of unity and stored as integer exponents, k mod m meaning zeta_m^k:
every cohomology class has such a representative over an algebraically
closed field, and the restriction makes the coboundary decision exactly
finite.  A value becomes a `CycNum` only where it multiplies a field
coefficient, at the caller's conductor (`cyclo.root_of_unity`).
"""

from __future__ import annotations

import itertools
from math import gcd, lcm, prod
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from .cyclo import CycNum, common_conductor, parse_scalar, root_exponent
from .errors import LimitExceeded, ParseError, ValidationError

Element = tuple

# The largest group order for which a table indexed by G x G is built: a
# cocycle table, its validation (|G|^3 identity checks) and the |G|^2
# structure constants that `kgmu` prints.  The paper's examples have order
# <= 16.  Computations that never enumerate G x G, such as `schur_order`,
# take any order.
MAX_GROUP_ORDER = 64


class AbGroup:
    """Direct product of cyclic groups C_{n_1} x ... x C_{n_r}; immutable."""

    __slots__ = ("factors",)

    def __init__(self, factors: tuple):
        if not factors or any(n < 2 for n in factors):
            raise ValidationError("group factors must all be at least 2")
        object.__setattr__(self, "factors", factors)

    def __setattr__(self, name, value):
        raise AttributeError("AbGroup is immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is not AbGroup:
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self) -> int:
        return hash(self.factors)

    def __repr__(self) -> str:
        return f"AbGroup(factors={self.factors!r})"

    def require_table_order(self) -> None:
        """Raise LimitExceeded when |G| > MAX_GROUP_ORDER; called before a
        table indexed by G x G is built."""
        if self.order > MAX_GROUP_ORDER:
            raise LimitExceeded(
                f"group order {self.order} exceeds the limit {MAX_GROUP_ORDER}")

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def order(self) -> int:
        return prod(self.factors)

    def exponent(self) -> int:
        return lcm(*self.factors)

    def elements(self) -> list:
        return [tuple(v) for v in itertools.product(*(range(n) for n in self.factors))]

    def identity(self) -> Element:
        return (0,) * self.rank

    def generator(self, j: int) -> Element:
        return tuple(1 if k == j else 0 for k in range(self.rank))

    def mul(self, a: Element, b: Element) -> Element:
        return tuple((x + y) % n for x, y, n in zip(a, b, self.factors))

    def inv(self, a: Element) -> Element:
        return tuple((-x) % n for x, n in zip(a, self.factors))

    def order_of(self, a: Element) -> int:
        return lcm(*(n // gcd(x, n) for x, n in zip(a, self.factors)))

    def index(self, a: Element) -> int:
        idx = 0
        for x, n in zip(a, self.factors):
            idx = idx * n + (x % n)
        return idx

    def describe(self, a: Element) -> str:
        parts = [f"g{j + 1}" if x == 1 else f"g{j + 1}^{x}"
                 for j, x in enumerate(a) if x]
        return "*".join(parts) if parts else "e"


# ---------------------------------------------------------------------------
# dualities
# ---------------------------------------------------------------------------

class Duality(NamedTuple):
    """A fixed isomorphism g -> chi_g given by the bicharacter on the chosen
    cyclic generators: chi_{e_j}(e_k) = zeta_E^table[j][k], E = exp(G)."""

    group: AbGroup
    table: tuple

    def char_eval(self, g: Element, h: Element) -> int:
        """The exponent of chi_g(h) base zeta_E, in [0, E)."""
        total = 0
        for gj, row in zip(g, self.table):
            if gj:
                for hk, t in zip(h, row):
                    total += gj * hk * t
        return total % self.group.exponent()

    def values(self, g: Element) -> tuple:
        """The exponents of chi_g at the chosen generators e_1..e_r."""
        return tuple(self.char_eval(g, self.group.generator(k))
                     for k in range(self.group.rank))


def make_duality(group: AbGroup, table: Sequence[Sequence[CycNum]]) -> Duality:
    r = group.rank
    if len(table) != r or any(len(row) != r for row in table):
        raise ValidationError("duality table must be rank x rank")
    exponent = group.exponent()
    rows = []
    for j in range(r):
        row = []
        for k in range(r):
            order = gcd(group.factors[j], group.factors[k])
            e = root_exponent(table[j][k], order)
            if e is None:
                raise ValidationError(
                    f"duality entry ({j + 1},{k + 1}) is not killed by the "
                    f"generator orders")
            row.append(e * (exponent // order))
        rows.append(tuple(row))
    d = Duality(group, tuple(rows))
    for g in group.elements()[1:]:
        if not any(d.values(g)):
            raise ValidationError(
                f"duality is degenerate: chi trivial at {group.describe(g)}")
    return d


def standard_duality(group: AbGroup) -> Duality:
    """The bilinear pairing chi_{e_j}(e_k) = zeta_{n_j} if j == k else 1."""
    exponent = group.exponent()
    return Duality(group, tuple(
        tuple(exponent // n if j == k else 0 for k in range(group.rank))
        for j, n in enumerate(group.factors)))


def klein_duality() -> Duality:
    """The Klein four-group pairing with chi_g(h) = 1 exactly when g = e or
    h lies in {e, g}; generator table [[1,-1],[-1,1]]."""
    return Duality(AbGroup((2, 2)), ((0, 1), (1, 0)))


# ---------------------------------------------------------------------------
# cocycles
# ---------------------------------------------------------------------------

class Cocycle(NamedTuple):
    """A normalized 2-cocycle with root-of-unity values, stored as a full
    |G| x |G| exponent table in element enumeration order: values[a][b] = k
    means mu(g_a, g_b) = zeta_modulus^k.  The table is in lowest terms, so
    the modulus is the lcm of the value orders."""

    group: AbGroup
    modulus: int
    values: tuple

    def value(self, g: Element, h: Element) -> int:
        return self.values[self.group.index(g)][self.group.index(h)]


def validate_cocycle(group: AbGroup, modulus: int, table: Mapping) -> Cocycle:
    """Accept a mapping (g, h) -> k, meaning zeta_modulus^k, iff it satisfies
    normalization and the cocycle identity; the error names the first
    violation."""
    group.require_table_order()
    elements = group.elements()
    n = len(elements)
    v = [[table[(g, h)] % modulus for h in elements] for g in elements]
    for a, g in enumerate(elements):
        if v[0][a]:
            raise ValidationError(f"normalization at (e,{group.describe(g)})")
        if v[a][0]:
            raise ValidationError(f"normalization at ({group.describe(g)},e)")
    mul = [[group.index(group.mul(g, h)) for h in elements] for g in elements]
    for a in range(n):
        va, mul_a = v[a], mul[a]
        for b in range(n):
            vab, v_ab, mul_b, vb = va[b], v[mul_a[b]], mul[b], v[b]
            for c in range(n):
                if (vab + v_ab[c] - va[mul_b[c]] - vb[c]) % modulus:
                    names = (group.describe(elements[x]) for x in (a, b, c))
                    raise ValidationError(
                        "cocycle identity fails at ({},{},{})".format(*names))
    step = gcd(modulus, *(x for row in v for x in row))
    return Cocycle(group, modulus // step,
                   tuple(tuple(x // step for x in row) for row in v))


def cocycle_from_scalars(group: AbGroup, table: Mapping,
                         cell: Optional[Callable] = None) -> Cocycle:
    """Read a mapping (g, h) -> CycNum, in element enumeration order, as
    exponents and validate it.  A value that is not a root of unity is input
    this tool does not read: a ParseError naming `cell(g, h)`, by default
    the pair."""
    modulus = lcm(2, common_conductor(*table.values()))
    exponents, seen = {}, {}
    for (g, h), x in table.items():
        k = seen.get(x)
        if k is None:
            k = seen[x] = root_exponent(x, modulus)
            if k is None:
                where = (cell(g, h) if cell else
                         f"cocycle value at ({group.describe(g)},{group.describe(h)})")
                raise ParseError(f"{where} must be a root of unity, not {x}")
        exponents[(g, h)] = k
    return validate_cocycle(group, modulus, exponents)


def trivial_cocycle(group: AbGroup) -> Cocycle:
    group.require_table_order()
    n = group.order
    return Cocycle(group, 1, tuple((0,) * n for _ in range(n)))


def formula_table(group: AbGroup, formula: str) -> dict:
    """Evaluate an exponent formula over generator coordinates at every pair.

    Coordinates of the first argument bind to a1..ar, of the second to
    b1..br; for rank <= 2 the aliases p,q (first) and r,s (second) are
    also provided, matching the usual (p,q,r,s) notation.  The text is
    evaluated once per distinct value of the variables it names."""
    from .freealg import _tokenize  # cached; freealg builds on cyclo
    group.require_table_order()
    # (name, 0 for the first argument or 1 for the second, coordinate)
    bindings = [(f"{side}{j + 1}", s, j)
                for s, side in enumerate("ab") for j in range(group.rank)]
    if group.rank <= 2:
        bindings += [(name, s, j) for s, names in enumerate(("pq", "rs"))
                     for j, name in enumerate(names[:group.rank])]
    names = set(_tokenize(formula)[0])
    used = [b for b in bindings if b[0] in names]
    values, table = {}, {}
    for pair in itertools.product(group.elements(), repeat=2):
        key = tuple(pair[s][j] for _, s, j in used)
        x = values.get(key)
        if x is None:
            x = values[key] = parse_scalar(
                formula, {name: pair[s][j] for name, s, j in used})
        table[pair] = x
    return table


def cocycle_from_formula(group: AbGroup, formula: str) -> Cocycle:
    return cocycle_from_scalars(group, formula_table(group, formula))


def klein_mu() -> Cocycle:
    """The Klein cocycle mu(g1^p g2^q, g1^r g2^s) = (-1)^(p*s)."""
    group = AbGroup((2, 2))
    return validate_cocycle(group, 2, {(g, h): g[0] * h[1]
                                       for g in group.elements()
                                       for h in group.elements()})


def cocycle_product(a: Cocycle, b: Cocycle) -> Cocycle:
    if a.group != b.group:
        raise ValidationError("cocycles over different groups")
    m = lcm(a.modulus, b.modulus)
    sa, sb = m // a.modulus, m // b.modulus
    elements = a.group.elements()
    table = {(g, h): a.value(g, h) * sa + b.value(g, h) * sb
             for g in elements for h in elements}
    return validate_cocycle(a.group, m, table)


def cocycle_inverse(a: Cocycle) -> Cocycle:
    elements = a.group.elements()
    table = {(g, h): -a.value(g, h) for g in elements for h in elements}
    return validate_cocycle(a.group, a.modulus, table)


def coboundary(group: AbGroup, modulus: int, rho: Mapping) -> Cocycle:
    """delta(rho)(g,h) = rho(g) rho(h) rho(gh)^(-1) for rho: g -> k, meaning
    zeta_modulus^k, with rho(e) = 1."""
    if rho[group.identity()] % modulus:
        raise ValidationError("coboundary witness must send e to 1")
    elements = group.elements()
    table = {(g, h): rho[g] + rho[h] - rho[group.mul(g, h)]
             for g in elements for h in elements}
    return validate_cocycle(group, modulus, table)


def cocycle_pullback(mu: Cocycle, sigma: "GroupAut") -> Cocycle:
    """mu^sigma(g,h) = mu(sigma(g), sigma(h))."""
    if mu.group != sigma.group:
        raise ValidationError("automorphism and cocycle over different groups")
    elements = mu.group.elements()
    table = {(g, h): mu.value(sigma.apply(g), sigma.apply(h))
             for g in elements for h in elements}
    return validate_cocycle(mu.group, mu.modulus, table)


def commutator_radical(mu: Cocycle) -> list:
    """The radical {g : beta(g, .) = 0} of the alternating bicharacter
    beta(g,h) = mu(g,h) - mu(h,g) (in exponents), in enumeration order.

    It fixes the twisted group algebra kG_mu, with basis u_g and
    u_g u_h = mu(g,h) u_gh, in characteristic 0: the center is spanned by
    the u_g with g in the radical; the trace form is |G| mu(g,g^-1) on the
    g <-> g^-1 antidiagonal, so its rank is |G|; and kG_mu is a full matrix
    algebra exactly when the radical is trivial."""
    mu.group.require_table_order()
    rows = mu.values
    return [g for a, g in enumerate(mu.group.elements())
            if all(rows[a][b] == rows[b][a] for b in range(len(rows)))]


def is_coboundary(mu: Cocycle):
    """Decide whether mu is a coboundary; returns (flag, witness-or-None).

    A cocycle on a finite abelian group is a coboundary exactly when its
    alternating bicharacter is trivial, that is when mu is symmetric.  The
    witness rho is an exponent map g -> k meaning zeta_M^k with
    M = mu.modulus * exp(G), in closed form (`_exponent_witness`).  It is
    checked on every pair, and cocycles in lowest terms are equal exactly
    when their values are; a mismatch is a program fault, not a
    falsification, so it raises RuntimeError (an internal error)."""
    group = mu.group
    if len(commutator_radical(mu)) < group.order:
        return False, None
    rho = _exponent_witness(mu)
    if coboundary(group, mu.modulus * group.exponent(), rho) != mu:
        raise RuntimeError("coboundary witness failed to reproduce the cocycle")
    return True, rho


def _exponent_witness(mu: Cocycle) -> dict:
    """rho with delta(rho) = mu for a symmetric mu, base zeta_M, M = m * E
    with m = mu.modulus and E = exp(G).

    kG_mu is commutative.  The left-associated product
    u_{e_1}^{a_1} ... u_{e_r}^{a_r} is zeta_m^{s(g)} u_g, where s(g) sums mu
    along that word, and u_{e_i}^{n_i} = zeta_m^{c_i} with
    c_i = sum_{k=1}^{n_i-1} mu(k e_i, e_i).  Scaling u_{e_i} by zeta_M^{tau_i},
    tau_i = -(E/n_i) c_i, gives it order n_i, so the basis
    zeta_M^{sum_i a_i tau_i + E s(g)} u_g is multiplicative and rho(g) is
    minus that exponent."""
    group = mu.group
    exponent = group.exponent()
    modulus = mu.modulus * exponent
    tau = []
    for j, n in enumerate(group.factors):
        e_j, power, c = group.generator(j), group.identity(), 0
        for _ in range(n - 1):
            power = group.mul(power, e_j)
            c += mu.value(power, e_j)
        tau.append(-(exponent // n) * c)
    s, rho = {}, {}
    # in enumeration order g minus its last generator comes before g
    for g in group.elements():
        last = max((j for j, x in enumerate(g) if x), default=None)
        if last is None:
            s[g] = 0
        else:
            prev = g[:last] + (g[last] - 1,) + g[last + 1:]
            s[g] = s[prev] + mu.value(prev, group.generator(last))
        rho[g] = -(sum(a * t for a, t in zip(g, tau)) + exponent * s[g]) % modulus
    return rho


def schur_order(group: AbGroup) -> int:
    """Order of H^2(G, k^x) for abelian G over an algebraically closed field
    of coprime characteristic: the product of gcd(n_j, n_k) over j < k."""
    out = 1
    for j in range(group.rank):
        for k in range(j + 1, group.rank):
            out *= gcd(group.factors[j], group.factors[k])
    return out


# ---------------------------------------------------------------------------
# group automorphisms
# ---------------------------------------------------------------------------

class GroupAut(NamedTuple):
    """An automorphism given by the images of the chosen cyclic generators."""

    group: AbGroup
    images: tuple

    def apply(self, a: Element) -> Element:
        out = self.group.identity()
        for j, x in enumerate(a):
            img = self.images[j]
            scaled = tuple((x * y) % n for y, n in zip(img, self.group.factors))
            out = self.group.mul(out, scaled)
        return out

    def is_identity(self) -> bool:
        return all(self.images[j] == self.group.generator(j)
                   for j in range(self.group.rank))

    def inverse(self) -> "GroupAut":
        perm = {self.apply(g): g for g in self.group.elements()}
        return GroupAut(self.group,
                        tuple(perm[self.group.generator(j)]
                              for j in range(self.group.rank)))


def make_group_aut(group: AbGroup, images: Sequence[Element]) -> GroupAut:
    if len(images) != group.rank:
        raise ValidationError("one image per group generator required")
    for j, img in enumerate(images):
        if group.factors[j] % group.order_of(img):
            raise ValidationError(
                f"image of g{j + 1} has order not dividing {group.factors[j]}")
    aut = GroupAut(group, tuple(tuple(x) for x in images))
    seen = {aut.apply(g) for g in group.elements()}
    if len(seen) != group.order:
        raise ValidationError("generator images do not define a bijection")
    return aut


def all_automorphisms(group: AbGroup) -> list:
    """Every automorphism, by exhausting generator-image candidates."""
    out = []
    candidates = []
    for j in range(group.rank):
        ok = [g for g in group.elements()
              if group.factors[j] % group.order_of(g) == 0]
        candidates.append(ok)
    for images in itertools.product(*candidates):
        try:
            out.append(make_group_aut(group, images))
        except ValidationError:
            continue
    return out
