"""Independent brute-force oracles for the test suite.

Nothing here reuses the package's Groebner reduction, coboundary criterion
or Schur formula: cohomology oracles work on integer exponent tables, the
quotient-dimension oracle spans ideal consequences with its own sparse
elimination, and twisted group algebras are dense structure-constant tables
over the oracle's own cyclotomic fields.  These stay deliberately separate from the code paths they
check.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

from cotwist.cyclo import CycNum


def lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


# ---------------------------------------------------------------------------
# exponent-table cohomology: values zeta_m^e are represented by e mod m
# ---------------------------------------------------------------------------

class ExpGroup:
    """A finite abelian group with an integer multiplication table."""

    def __init__(self, factors):
        self.factors = tuple(factors)
        self.elements = [tuple(v) for v in
                         itertools.product(*(range(n) for n in factors))]
        self.n = len(self.elements)
        self.index = {g: i for i, g in enumerate(self.elements)}
        self.mul = [[self.index[tuple((x + y) % n for x, y, n
                                      in zip(g, h, self.factors))]
                     for h in self.elements] for g in self.elements]
        self.exponent = 1
        for n in factors:
            self.exponent = lcm(self.exponent, n)


def is_cocycle_table(group: ExpGroup, table, m: int) -> bool:
    """table[a][b] holds the exponent of mu(g_a, g_b) base zeta_m."""
    n = group.n
    for a in range(n):
        if table[0][a] % m or table[a][0] % m:
            return False
    mul = group.mul
    for a in range(n):
        ta = table[a]
        for b in range(n):
            ab = mul[a][b]
            t_ab = table[ab]
            v = ta[b]
            for c in range(n):
                if (v + t_ab[c] - ta[mul[b][c]] - table[b][c]) % m:
                    return False
    return True


def enumerate_cocycles(group: ExpGroup, m: int):
    """Every normalized mu_m-valued cocycle, by filtering all exponent
    tables on the non-identity block.  Feasible only for tiny groups."""
    n = group.n
    free = (n - 1) ** 2
    out = []
    for combo in itertools.product(range(m), repeat=free):
        table = [[0] * n for _ in range(n)]
        pos = 0
        for a in range(1, n):
            row = table[a]
            for b in range(1, n):
                row[b] = combo[pos]
                pos += 1
        if is_cocycle_table(group, table, m):
            out.append(tuple(tuple(row) for row in table))
    return out


def coboundary_table(group: ExpGroup, rho, m: int):
    """Exponent table of delta(rho) for rho given as exponents base zeta_m."""
    n = group.n
    return tuple(tuple((rho[a] + rho[b] - rho[group.mul[a][b]]) % m
                       for b in range(n)) for a in range(n))


def brute_force_is_coboundary(group: ExpGroup, table, m: int) -> bool:
    """Exhaustive witness search.  A mu_m-valued coboundary always has a
    witness with values in mu_{m * exp(G)} (the witness powers telescope to
    a product of cocycle values), so that search range is complete."""
    big = m * group.exponent
    step = big // m
    lifted = tuple(tuple(v * step % big for v in row) for row in table)
    n = group.n
    for combo in itertools.product(range(big), repeat=n - 1):
        rho = (0,) + combo
        if coboundary_table(group, rho, big) == lifted:
            return True
    return False


def _snf_diagonal(rows):
    """Elementary divisors of an integer matrix (no transform tracking);
    an independent miniature Smith reduction for solution counting."""
    seen = set()
    a = []
    for r in rows:
        t = tuple(r)
        if any(t) and t not in seen and tuple(-x for x in t) not in seen:
            seen.add(t)
            a.append(list(r))
    m = len(a)
    n = len(a[0]) if m else 0
    diag = []
    t = 0
    while t < min(m, n):
        best = None
        for i in range(t, m):
            row = a[i]
            for j in range(t, n):
                v = row[j]
                if v and (best is None or abs(v) < best[2]):
                    best = (i, j, abs(v))
                    if abs(v) == 1:
                        break
            if best and best[2] == 1:
                break
        if best is None:
            break
        bi, bj, _ = best
        a[t], a[bi] = a[bi], a[t]
        for row in a:
            row[t], row[bj] = row[bj], row[t]
        pivot = a[t][t]
        dirty = False
        for i in range(t + 1, m):
            v = a[i][t]
            if v:
                if v % pivot:
                    dirty = True
                q = v // pivot
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
        for j in range(t + 1, n):
            v = a[t][j]
            if v:
                if v % pivot:
                    dirty = True
                q = v // pivot
                if q:
                    for row in a:
                        row[j] -= q * row[t]
        if dirty or any(a[i][t] for i in range(t + 1, m)) \
                or any(a[t][j] for j in range(t + 1, n)):
            continue
        diag.append(abs(pivot))
        t += 1
    return diag


def count_mod_solutions(rows, ncols: int, m: int) -> int:
    """Number of solutions of a homogeneous system A x = 0 mod m: with
    elementary divisors s_i this is m^(ncols - r) * prod gcd(s_i, m)."""
    rows = [r for r in rows if any(v % m for v in r)]
    if not rows:
        return m ** ncols
    diag = _snf_diagonal(rows)
    total = m ** (ncols - len(diag))
    for d in diag:
        total *= gcd(d, m)
    return total


def count_cocycles(group: ExpGroup, m: int) -> int:
    """|Z^2(G, mu_m)| by literal table enumeration when feasible, otherwise
    by counting solutions of the cocycle-identity system over exponents."""
    n = group.n
    free = (n - 1) ** 2
    if m ** free <= 2 ** 20:
        return len(enumerate_cocycles(group, m))
    # cocycle identity as a homogeneous system over the free block
    def col(a, b):
        return (a - 1) * (n - 1) + (b - 1)

    rows = []
    mul = group.mul
    for a in range(n):
        for b in range(n):
            for c in range(n):
                row = [0] * free
                for (x, y, sign) in ((a, b, 1), (mul[a][b], c, 1),
                                     (a, mul[b][c], -1), (b, c, -1)):
                    if x and y:
                        row[col(x, y)] += sign
                if any(v % m for v in row):
                    rows.append(row)
    return count_mod_solutions(rows, free, m)


def count_homs(group: ExpGroup, modulus: int) -> int:
    """|Hom(G, Z_modulus)| by enumerating generator images."""
    count = 0
    rank = len(group.factors)
    for images in itertools.product(range(modulus), repeat=rank):
        if all((n * x) % modulus == 0 for n, x in zip(group.factors, images)):
            count += 1
    return count


def count_mu_m_coboundaries(group: ExpGroup, m: int) -> int:
    """Number of mu_m-valued coboundary tables.

    Witnesses live in mu_M with M = m * exp(G).  Counting fibers of the
    linear map delta on exponent vectors mod M:
      |{delta(rho) : mu_m-valued}| = |{rho : delta(rho) = 0 mod exp(G)}|
                                      / |ker(delta mod M)|,
    the numerator is |Hom(G, Z_exp)| * m^(|G|-1) because delta(rho) mod exp
    only depends on rho mod exp, and both kernels are Hom groups."""
    n = group.n
    big = m * group.exponent
    return (count_homs(group, group.exponent) * m ** (n - 1)
            // count_homs(group, big))


def cocycle_class_count(factors, m: int) -> int:
    """Brute-force |Z^2(G, mu_m)| / |B^2 cut to mu_m values|.  With
    m = exp(G) every cohomology class over an algebraically closed field has
    a mu_m-valued representative, so this counts the Schur multiplier."""
    group = ExpGroup(factors)
    return count_cocycles(group, m) // count_mu_m_coboundaries(group, m)


# ---------------------------------------------------------------------------
# dense degreewise quotient dimensions, independent of the Groebner engine
# ---------------------------------------------------------------------------

def words_of_degree(num_gens: int, weights, degree: int):
    """All words over the alphabet with total weight exactly `degree`."""
    if degree == 0:
        return [()]
    out = []
    for i in range(num_gens):
        rest = degree - weights[i]
        if rest < 0:
            continue
        for w in words_of_degree(num_gens, weights, rest):
            out.append((i,) + w)
    return out


def _sparse_rank(rows) -> int:
    """Row reduction on dict-of-word rows, eliminating by the largest key."""
    pivots = {}
    rank = 0
    for row in rows:
        row = dict(row)
        while row:
            key = max(row)
            if key not in pivots:
                inv = row[key].inverse()
                pivots[key] = {k: v * inv for k, v in row.items()}
                rank += 1
                break
            factor = row[key]
            for k, v in pivots[key].items():
                s = row.get(k, CycNum.zero(v.conductor)) - factor * v
                if s.is_zero():
                    row.pop(k, None)
                else:
                    row[k] = s
    return rank


def quotient_dims(presentation, bound: int):
    """dim A_d for d <= bound as (all degree-d words) modulo the span of
    u * relation * w, built by literal enumeration."""
    gens = presentation.generators
    weights = [g.degree for g in gens]
    n = len(gens)
    dims = []
    for d in range(bound + 1):
        words = words_of_degree(n, weights, d)
        rows = []
        for rel in presentation.relations:
            rd = rel.degree()
            if rd is None or rd > d:
                continue
            for left_deg in range(d - rd + 1):
                right_deg = d - rd - left_deg
                for u in words_of_degree(n, weights, left_deg):
                    for w in words_of_degree(n, weights, right_deg):
                        rows.append({u + mid + w: c
                                     for mid, c in rel.terms.items()})
        dims.append(len(words) - _sparse_rank(rows))
    return tuple(dims)


# ---------------------------------------------------------------------------
# reduction over Q by slice scan, independent of the rewrite loop
# ---------------------------------------------------------------------------

def fraction_normal_form(terms, rules, weights):
    """The normal form of sum c*w over `terms` ({word: Fraction}) by the rules
    `rules` ({leading word: {tail word: Fraction}}, each rewriting its
    leading word to minus its tail).  It rewrites the deglex-largest
    reducible word at its leftmost, then shortest, match, found by slicing
    every word against the leading words, until no word is reducible."""
    lengths = sorted({len(u) for u in rules})

    def first_match(w):
        for pos in range(len(w)):
            for n in lengths:
                if pos + n <= len(w) and w[pos:pos + n] in rules:
                    return pos, n
        return None

    def deglex(w):
        return sum(weights[i] for i in w), w

    terms = {w: Fraction(c) for w, c in terms.items() if c}
    matches = {}
    while True:
        for w in terms:
            if w not in matches:
                matches[w] = first_match(w)
        reducible = [w for w in terms if matches[w] is not None]
        if not reducible:
            return terms
        word = max(reducible, key=deglex)
        pos, n = matches[word]
        coeff = terms.pop(word)
        for u, c in rules[word[pos:pos + n]].items():
            target = word[:pos] + u + word[pos + n:]
            value = terms.get(target, 0) - coeff * c
            if value:
                terms[target] = value
            else:
                terms.pop(target, None)


# ---------------------------------------------------------------------------
# Q(zeta_N) as Fraction tuples, independent of cotwist.cyclo
#
# Polynomials are Fraction lists, low degree first.  The cyclotomic
# polynomial comes from x^N - 1 divided by Phi_d for the proper divisors d,
# every product is reduced by long division, and inverses come from the
# extended Euclidean algorithm; no power tables, no integer numerators.
# ---------------------------------------------------------------------------

def _ptrim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _pdivmod(a, b):
    a, b = _ptrim(a), _ptrim(b)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    while len(a) >= len(b):
        c = a[-1] / b[-1]
        shift = len(a) - len(b)
        q[shift] = c
        for j, y in enumerate(b):
            a[shift + j] -= c * y
        a = _ptrim(a)
    return q, a


def _pmul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _psub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


_CYCLOTOMIC: dict = {}


def oracle_cyclotomic(n: int):
    if n not in _CYCLOTOMIC:
        poly = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
        for d in range(1, n):
            if n % d == 0:
                poly, rest = _pdivmod(poly, oracle_cyclotomic(d))
                assert not rest
        _CYCLOTOMIC[n] = _ptrim(poly)
    return _CYCLOTOMIC[n]


class FracCyclo:
    """An element of Q(zeta_n): the Fraction coefficients of its remainder
    modulo Phi_n, in the basis 1, zeta_n, zeta_n^2, ..."""

    def __init__(self, n: int, poly):
        self.n = n
        self.modulus = oracle_cyclotomic(n)
        _, rest = _pdivmod([Fraction(c) for c in poly], self.modulus)
        deg = len(self.modulus) - 1
        self.coeffs = tuple(rest) + (Fraction(0),) * (deg - len(rest))

    def __add__(self, other):
        return FracCyclo(self.n, [x + y for x, y in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        return FracCyclo(self.n, _psub(self.coeffs, other.coeffs))

    def __neg__(self):
        return FracCyclo(self.n, [-x for x in self.coeffs])

    def __mul__(self, other):
        return FracCyclo(self.n, _pmul(self.coeffs, other.coeffs))

    def inverse(self):
        r0, r1 = self.modulus, _ptrim(self.coeffs)
        if not r1:
            raise ZeroDivisionError("zero has no inverse")
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while len(r1) > 1:
            q, r = _pdivmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _psub(s0, _pmul(q, s1))
        return FracCyclo(self.n, [x / r1[0] for x in s1])

    def __pow__(self, e: int):
        base = self if e >= 0 else self.inverse()
        out = FracCyclo(self.n, [1])
        for _ in range(abs(e)):
            out = out * base
        return out

    def substitute(self, m: int, k: int):
        """The image in Q(zeta_m) under zeta_n -> zeta_m^k."""
        poly = [Fraction(0)] * (k * len(self.coeffs) + 1)
        for j, c in enumerate(self.coeffs):
            poly[j * k] += c
        return FracCyclo(m, poly)

    def embed(self, m: int):
        return self.substitute(m, m // self.n)


# ---------------------------------------------------------------------------
# text rendering on Fraction coefficients: the reference for the integer
# rendering of `cyclo.format_cycnum`
# ---------------------------------------------------------------------------

def fraction_format(value: CycNum) -> str:
    """The canonical text of a CycNum, each power-basis coefficient taken
    as a Fraction and printed by `str(Fraction)`."""
    conductor = value.conductor
    parts = []
    for power, x in enumerate(value.num):
        coeff = Fraction(x, value.den)
        if not coeff:
            continue
        if power == 0:
            parts.append(str(coeff))
            continue
        base = "i" if conductor == 4 else f"zeta({conductor})"
        sym = base if power == 1 else f"{base}^{power}"
        if coeff == 1:
            parts.append(sym)
        elif coeff == -1:
            parts.append(f"-{sym}")
        else:
            parts.append(f"{coeff}*{sym}")
    if not parts:
        return "0"
    out = parts[0]
    for part in parts[1:]:
        out += " - " + part[1:] if part.startswith("-") else " + " + part
    return out


# ---------------------------------------------------------------------------
# dense Gauss-Jordan over FracCyclo: the reference for the sparse elimination
# ---------------------------------------------------------------------------

def frac_is_zero(x: FracCyclo) -> bool:
    return not any(x.coeffs)


def dense_rref(matrix, n: int):
    """(rows, pivots) of the reduced row echelon form of a matrix of
    FracCyclo entries in Q(zeta_n), by textbook elimination on full rows
    (skipping the products with a zero factor)."""
    rows = [list(r) for r in matrix]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        hit = next((i for i in range(r, len(rows))
                    if not frac_is_zero(rows[i][c])), None)
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x if frac_is_zero(x) else x * inv for x in rows[r]]
        for i in range(len(rows)):
            factor = rows[i][c]
            if i != r and not frac_is_zero(factor):
                rows[i] = [x if frac_is_zero(y) else x - factor * y
                           for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def dense_kernel(matrix, ncols: int, n: int):
    """Right-kernel basis: one vector per free column, scaled so its first
    nonzero coordinate is 1 and ordered by that coordinate."""
    rows, pivots = dense_rref(matrix, n)
    zero, one = FracCyclo(n, [0]), FracCyclo(n, [1])
    out = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [zero] * ncols
        vec[f] = one
        for r, p in enumerate(pivots):
            vec[p] = -rows[r][f]
        first = next(i for i, x in enumerate(vec) if not frac_is_zero(x))
        scale = vec[first].inverse()
        out.append((first, [x if frac_is_zero(x) else x * scale
                            for x in vec]))
    return [vec for _, vec in sorted(out, key=lambda pair: pair[0])]


def dense_inverse(matrix, n: int):
    """The inverse of a square matrix, or None when it is singular."""
    size = len(matrix)
    aug = [list(row) + [FracCyclo(n, [int(i == j)]) for j in range(size)]
           for i, row in enumerate(matrix)]
    rows, pivots = dense_rref(aug, n)
    if pivots[:size] != list(range(size)):
        return None
    return [row[size:] for row in rows[:size]]


# ---------------------------------------------------------------------------
# twisted group algebras kG_mu by dense structure constants
# ---------------------------------------------------------------------------

def dense_kgmu(group: ExpGroup, table, m: int):
    """Structure constants of kG_mu over Q(zeta_m): entry [a][b] is the
    coordinate vector of u_{g_a} u_{g_b} = zeta_m^table[a][b] u_{g_a g_b}."""
    zero = FracCyclo(m, [0])
    powers = [FracCyclo(m, [0] * k + [1]) for k in range(m)]
    out = []
    for a in range(group.n):
        plane = []
        for b in range(group.n):
            vec = [zero] * group.n
            vec[group.mul[a][b]] = powers[table[a][b] % m]
            plane.append(vec)
        out.append(plane)
    return out


def dense_center_basis(structure, m: int):
    """A basis of the center: the kernel of the commutant system
    sum_a z_a ([u_a, u_b])_d = 0 over every basis element u_b and coordinate
    d."""
    n = len(structure)
    zero = FracCyclo(m, [0])
    rows = []
    for b in range(n):
        for d in range(n):
            row = [structure[a][b][d] - structure[b][a][d]
                   if not (frac_is_zero(structure[a][b][d])
                           and frac_is_zero(structure[b][a][d])) else zero
                   for a in range(n)]
            if not all(frac_is_zero(x) for x in row):
                rows.append(row)
    return dense_kernel(rows, n, m)


def dense_trace_form_rank(structure, m: int) -> int:
    """The rank of the Gram matrix tr(L_{u_a u_b}) of the trace form, with
    tr(L_x) = sum_c x_c tr(L_{u_c}) and tr(L_{u_c}) = sum_d (u_c u_d)_d."""
    n = len(structure)
    zero = FracCyclo(m, [0])
    traces = []
    for c in range(n):
        t = zero
        for d in range(n):
            if not frac_is_zero(structure[c][d][d]):
                t = t + structure[c][d][d]
        traces.append(t)
    gram = []
    for a in range(n):
        row = []
        for b in range(n):
            t = zero
            for c, x in enumerate(structure[a][b]):
                if not (frac_is_zero(x) or frac_is_zero(traces[c])):
                    t = t + x * traces[c]
            row.append(t)
        gram.append(row)
    return len(dense_rref(gram, m)[1])
