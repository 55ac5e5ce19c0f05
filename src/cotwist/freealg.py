"""Words, noncommutative polynomials and graded presentations of free algebras.

Words are tuples of 0-based generator indices ordered by deglex (total
weight first, then lexicographic on the index sequence).  Polynomials are
sparse maps word -> CycNum with no zero terms, tied to a generator alphabet
and a conductor.  Presentations keep their relations N-homogeneous and
scaled so the leading deglex coefficient is 1, which turns "equal up to a
nonzero scalar" into literal equality.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import lcm
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

from .cyclo import CycNum, check_conductor
from .errors import AlphabetMismatch, ParseError, ValidationError

Word = tuple

_RESERVED_NAMES = {"i", "zeta"}
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")


class GeneratorInfo(NamedTuple):
    index: int
    name: str
    degree: int


def make_alphabet(pairs: Sequence[tuple[str, int]]) -> tuple:
    """Build a generator alphabet from (name, degree) pairs."""
    names = [name for name, _ in pairs]
    if len(set(names)) != len(names):
        raise ValidationError("generator names must be unique")
    for name in names:
        if not _NAME_RE.match(name) or name in _RESERVED_NAMES:
            raise ValidationError(f"bad generator name {name!r}")
    gens = []
    for idx, (name, degree) in enumerate(pairs):
        if degree < 1:
            raise ValidationError(f"generator {name!r} needs a positive degree")
        gens.append(GeneratorInfo(idx, name, degree))
    return tuple(gens)


def word_degree(word: Word, gens: Sequence[GeneratorInfo]) -> int:
    return sum(gens[i].degree for i in word)


def deglex_key(word: Word, gens: Sequence[GeneratorInfo]):
    return (word_degree(word, gens), word)


def _check_letters(word: Word, gens: tuple) -> None:
    if any(i < 0 or i >= len(gens) for i in word):
        raise AlphabetMismatch(f"word {word} has letters outside the alphabet")


class NcPoly:
    """A noncommutative polynomial over a fixed alphabet and conductor.

    The public constructor checks every word and coefficient; polynomials
    built from checked ones take the trusted path, `_trusted_poly`."""

    __slots__ = ("gens", "conductor", "terms", "_key", "_lead")

    def __init__(self, gens: tuple, conductor: int, terms: Mapping[Word, CycNum]):
        clean = {}
        for word, coeff in terms.items():
            if coeff.conductor != conductor:
                raise AlphabetMismatch(
                    f"coefficient conductor {coeff.conductor} != {conductor}")
            _check_letters(word, gens)
            if not coeff.is_zero():
                clean[word] = coeff
        _fill(self, gens, conductor, clean)

    def __setattr__(self, name, value):
        raise AttributeError("NcPoly is immutable")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(gens: tuple, conductor: int) -> "NcPoly":
        return NcPoly(gens, conductor, {})

    @staticmethod
    def one(gens: tuple, conductor: int) -> "NcPoly":
        return NcPoly(gens, conductor, {(): CycNum.one(conductor)})

    @staticmethod
    def gen(gens: tuple, conductor: int, index: int) -> "NcPoly":
        return NcPoly(gens, conductor, {(index,): CycNum.one(conductor)})

    @staticmethod
    def from_word(gens: tuple, conductor: int, word: Word,
                  coeff: Optional[CycNum] = None) -> "NcPoly":
        return NcPoly(gens, conductor,
                      {tuple(word): coeff if coeff is not None else CycNum.one(conductor)})

    # -- canonical identity --------------------------------------------------

    def key(self):
        cached = self._key
        if cached is None:
            cached = tuple(sorted(
                ((w, c.num, c.den) for w, c in self.terms.items()),
                key=lambda item: deglex_key(item[0], self.gens), reverse=True))
            object.__setattr__(self, "_key", cached)
        return cached

    def __eq__(self, other) -> bool:
        if not isinstance(other, NcPoly):
            return NotImplemented
        return (self.gens == other.gens and self.conductor == other.conductor
                and self.key() == other.key())

    def __hash__(self) -> int:
        return hash((self.gens, self.conductor, self.key()))

    # -- inspection ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> Optional[int]:
        """Maximum N-degree of the terms; None for the zero polynomial."""
        if not self.terms:
            return None
        return max(word_degree(w, self.gens) for w in self.terms)

    def homogeneous_degree(self) -> Optional[int]:
        """Common N-degree of all terms, or None if mixed or zero."""
        degrees = {word_degree(w, self.gens) for w in self.terms}
        if len(degrees) != 1:
            return None
        return degrees.pop()

    def leading_word(self) -> Word:
        cached = self._lead
        if cached is None:
            if not self.terms:
                raise ValueError("zero polynomial has no leading word")
            cached = max(self.terms, key=lambda w: deglex_key(w, self.gens))
            object.__setattr__(self, "_lead", cached)
        return cached

    def leading_coeff(self) -> CycNum:
        return self.terms[self.leading_word()]

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(),
                      key=lambda item: deglex_key(item[0], self.gens), reverse=True)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "NcPoly") -> None:
        if self.gens != other.gens:
            raise AlphabetMismatch("polynomials over different alphabets")
        if self.conductor != other.conductor:
            raise AlphabetMismatch(
                f"polynomials over conductors {self.conductor} and {other.conductor}")

    def __add__(self, other: "NcPoly") -> "NcPoly":
        self._check(other)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            if w in terms:
                s = terms[w] + c
                if s.is_zero():
                    del terms[w]
                else:
                    terms[w] = s
            else:
                terms[w] = c
        return _trusted_poly(self.gens, self.conductor, terms)

    def __sub__(self, other: "NcPoly") -> "NcPoly":
        return self + (-other)

    def __neg__(self) -> "NcPoly":
        return _trusted_poly(self.gens, self.conductor,
                             {w: -c for w, c in self.terms.items()})

    def scale(self, scalar: CycNum) -> "NcPoly":
        if scalar.conductor != self.conductor:
            raise AlphabetMismatch("scalar conductor mismatch")
        if scalar.is_zero():
            return NcPoly.zero(self.gens, self.conductor)
        # a product of nonzero field elements is nonzero
        return _trusted_poly(self.gens, self.conductor,
                             {w: c * scalar for w, c in self.terms.items()})

    def __mul__(self, other: "NcPoly") -> "NcPoly":
        self._check(other)
        terms: dict = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                w = wa + wb
                c = ca * cb
                if w in terms:
                    s = terms[w] + c
                    if s.is_zero():
                        del terms[w]
                    else:
                        terms[w] = s
                else:
                    terms[w] = c
        return NcPoly(self.gens, self.conductor, terms)

    def __pow__(self, exponent: int) -> "NcPoly":
        if exponent < 0:
            raise ValueError("negative powers are not defined in a free algebra")
        result = NcPoly.one(self.gens, self.conductor)
        for _ in range(exponent):
            result = result * self
        return result

    def monic(self) -> "NcPoly":
        if self.is_zero():
            return self
        inv = self.leading_coeff().inverse()
        return self.scale(inv)

    def word_mul_left(self, word: Word) -> "NcPoly":
        _check_letters(word, self.gens)
        return _trusted_poly(self.gens, self.conductor,
                             {word + w: c for w, c in self.terms.items()})

    def word_mul_right(self, word: Word) -> "NcPoly":
        _check_letters(word, self.gens)
        return _trusted_poly(self.gens, self.conductor,
                             {w + word: c for w, c in self.terms.items()})

    def with_conductor(self, conductor: int) -> "NcPoly":
        if conductor == self.conductor:
            return self
        return NcPoly(self.gens, conductor,
                      {w: c.embed(conductor) for w, c in self.terms.items()})

    def map_coeffs(self, fn: Callable[[Word, CycNum], CycNum]) -> "NcPoly":
        return NcPoly(self.gens, self.conductor,
                      {w: fn(w, c) for w, c in self.terms.items()})

    # -- display -------------------------------------------------------------

    def _word_str(self, word: Word) -> str:
        if not word:
            return "1"
        parts = []
        run_idx, run_len = word[0], 1
        for i in word[1:]:
            if i == run_idx:
                run_len += 1
            else:
                parts.append((run_idx, run_len))
                run_idx, run_len = i, 1
        parts.append((run_idx, run_len))
        return "*".join(
            self.gens[i].name if e == 1 else f"{self.gens[i].name}^{e}"
            for i, e in parts)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for word, coeff in self.sorted_terms():
            text = str(coeff)
            simple = " " not in text
            if not word:
                body = text if simple else f"({text})"
            elif coeff.is_one():
                body = self._word_str(word)
            elif (-coeff).is_one():
                body = "-" + self._word_str(word)
            elif simple:
                body = f"{text}*{self._word_str(word)}"
            else:
                body = f"({text})*{self._word_str(word)}"
            chunks.append(body)
        out = chunks[0]
        for body in chunks[1:]:
            if body.startswith("-") and not body.startswith("-("):
                out += " - " + body[1:]
            else:
                out += " + " + body
        return out

    def __repr__(self) -> str:
        return f"NcPoly({self})"


def _fill(p: NcPoly, gens: tuple, conductor: int, terms: dict) -> None:
    # object.__setattr__ bypasses NcPoly.__setattr__, which refuses every write
    object.__setattr__(p, "gens", gens)
    object.__setattr__(p, "conductor", conductor)
    object.__setattr__(p, "terms", terms)
    object.__setattr__(p, "_key", None)
    object.__setattr__(p, "_lead", None)


def _trusted_poly(gens: tuple, conductor: int, terms: dict) -> NcPoly:
    """An NcPoly that takes `terms` as it is, unchecked and uncopied: its
    words must lie over `gens`, its coefficients be nonzero and of this
    conductor, and no one else may hold the dict.  For polynomials built
    from checked ones."""
    p = object.__new__(NcPoly)
    _fill(p, gens, conductor, terms)
    return p


class Presentation(NamedTuple):
    """A connected graded algebra given by generators and homogeneous relations."""

    conductor: int
    generators: tuple
    relations: tuple

    def canonical_key(self):
        return (self.conductor, self.generators,
                tuple(r.key() for r in self.relations))

    def gen_poly(self, index: int) -> NcPoly:
        return NcPoly.gen(self.generators, self.conductor, index)

    def max_relation_degree(self) -> int:
        return max((r.degree() for r in self.relations if r.terms), default=0)

    def parse(self, text: str) -> NcPoly:
        return parse_ncpoly(text, self.generators, self.conductor)


def make_presentation(conductor: int, generators: tuple,
                      relations: Iterable[NcPoly]) -> Presentation:
    """Validate and canonicalize; idempotent on already-canonical input."""
    check_conductor(conductor)
    rels = []
    for k, rel in enumerate(relations, 1):
        if rel.gens != generators:
            raise AlphabetMismatch(f"relation {k} uses a different alphabet")
        rel = rel.with_conductor(lcm(conductor, rel.conductor))
        if rel.conductor != conductor:
            raise ValidationError(
                f"relation {k} needs conductor {rel.conductor}, got {conductor}")
        _check_relation(k, rel)
        rels.append(rel.monic())
    return Presentation(conductor, generators, tuple(rels))


def _check_relation(k: int, rel: NcPoly) -> None:
    """Refuse relation k (counted from 1) unless it is nonzero, homogeneous
    and of positive degree, as a connected graded algebra needs."""
    if rel.is_zero():
        raise ValidationError(f"relation {k} is zero")
    degree = rel.homogeneous_degree()
    if degree is None:
        raise ValidationError(
            f"relation {k} is not homogeneous: {rel}")
    if degree == 0:
        raise ValidationError(
            f"relation {k} is a nonzero constant, so the quotient is zero")


def embed_presentation(p: Presentation, conductor: int) -> Presentation:
    """The same presentation with all coefficients at a larger conductor."""
    if conductor == p.conductor:
        return p
    return make_presentation(conductor, p.generators,
                             [r.with_conductor(conductor) for r in p.relations])


class GenMap:
    """A degree-preserving assignment of a polynomial to each source
    generator; immutable."""

    __slots__ = ("source", "images")

    def __init__(self, source: tuple, images: tuple):
        if len(images) != len(source):
            raise ValidationError("one image per generator required")
        for g, img in zip(source, images):
            if img.is_zero():
                continue
            if img.homogeneous_degree() != g.degree:
                raise ValidationError(
                    f"image of {g.name} is not homogeneous of degree {g.degree}")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("GenMap is immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is not GenMap:
            return NotImplemented
        return self.source == other.source and self.images == other.images

    def __hash__(self) -> int:
        return hash((self.source, self.images))

    def __repr__(self) -> str:
        return f"GenMap(source={self.source!r}, images={self.images!r})"

    @property
    def target(self) -> tuple:
        return self.images[0].gens

    @property
    def conductor(self) -> int:
        return self.images[0].conductor

    def apply(self, p: NcPoly) -> NcPoly:
        if p.gens != self.source:
            raise AlphabetMismatch("polynomial is over a different source alphabet")
        out = NcPoly.zero(self.target, self.conductor)
        for word, coeff in p.terms.items():
            factor = NcPoly.one(self.target, self.conductor)
            for letter in word:
                factor = factor * self.images[letter]
            out = out + factor.scale(coeff.embed(self.conductor))
        return out

    @staticmethod
    def from_matrix(source: tuple, target: tuple, conductor: int,
                    matrix) -> "GenMap":
        """Column j of the matrix holds the target coordinates of the image
        of source generator j."""
        n = len(source)
        if len(matrix) != len(target) or any(len(row) != n for row in matrix):
            raise ValidationError("matrix shape does not match the alphabets")
        images = []
        for j in range(n):
            terms = {}
            for i in range(len(target)):
                c = matrix[i][j].embed(conductor) if matrix[i][j].conductor != conductor \
                    else matrix[i][j]
                if not c.is_zero():
                    terms[(i,)] = c
            images.append(NcPoly(target, conductor, terms))
        return GenMap(source, tuple(images))

    @staticmethod
    def identity(gens: tuple, conductor: int) -> "GenMap":
        return GenMap(gens, tuple(NcPoly.gen(gens, conductor, j)
                                  for j in range(len(gens))))

    @staticmethod
    def scaling(gens: tuple, conductor: int, scalars) -> "GenMap":
        return GenMap(gens, tuple(
            NcPoly.gen(gens, conductor, j).scale(s.embed(conductor))
            for j, s in enumerate(scalars)))


# ---------------------------------------------------------------------------
# the expression grammar
#
# One grammar serves relations, generator images, scalar tables and cocycle
# formulas; a scalar is a degree-0 polynomial over the empty alphabet.
#
#   expr  := term (('+' | '-') term)*
#   term  := unary (('*' | '/') unary)*
#   unary := ('+' | '-') unary | power
#   power := atom ['^' unary]                 (so '^' is right-associative)
#   atom  := integer | 'i' | 'zeta' '(' integer ')' | '(' expr ')'
#          | '[' expr ',' expr (']' | ']_+') | name
#
# '**' means '^', and ']' immediately followed by '+' means ']_+' (the
# anticommutator).  An exponent must evaluate to a rational integer of size
# at most MAX_EXPONENT and may be negative only on a scalar; division is only
# by a nonzero scalar.  A name is a generator, else a caller-bound integer
# variable.
# ---------------------------------------------------------------------------

# Bounds on '^', checked before the power is computed: the exponent's size;
# the bits of the coefficients (the exponent times the base's largest
# coefficient height); and for a polynomial base the terms (terms of the base
# to the exponent) and the degree (the exponent times the longest word of the
# base).  Past them the text is rejected with a ParseError.
MAX_EXPONENT = 10_000
MAX_POWER_BITS = 65_536
MAX_POWER_TERMS = 10_000
MAX_POWER_DEGREE = 256

# The longest decimal literal any input may hold, here or in a JSON file:
# CPython converts decimal text to int in quadratic time.  It is CPython's
# own default limit, which the command line lifts so that output can print
# any integer.
MAX_LITERAL_DIGITS = 4300

_TOKEN_RE = re.compile(r"(\d+|[A-Za-z_][A-Za-z_0-9]*|\*\*|\]_\+|[-+*/^()\[\],])")


@lru_cache(maxsize=256)
def _tokenize(text: str) -> tuple:
    """The tokens of an expression and the conductor its scalars name:
    4 for each `i` and N for each `zeta(N)`."""
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"bad character in expression: {text[pos:]!r}")
        tok = m.group(1)
        pos = m.end()
        if tok == "**":
            tok = "^"
        elif len(tok) > MAX_LITERAL_DIGITS and tok[0].isdigit():
            raise ParseError(f"a literal of {len(tok)} digits exceeds the "
                             f"limit {MAX_LITERAL_DIGITS}")
        if tok == "]" and text.startswith("+", pos):
            tok = "]_+"
            pos += 1
        tokens.append(tok)
    named = 1
    for k, tok in enumerate(tokens):
        if tok == "i":
            named = lcm(named, 4)
        elif tok == "zeta":
            # the parser rejects anything but zeta ( N ) with N >= 1
            arg = tokens[k + 2] if k + 2 < len(tokens) else ""
            if arg.isdigit() and int(arg) > 0:
                named = lcm(named, int(arg))
    return tuple(tokens), named


class _Parser:
    def __init__(self, tokens: tuple, gens: tuple, conductor: int,
                 variables: Mapping[str, int]):
        self.tokens = tokens
        self.pos = 0
        self.gens = gens
        self.conductor = conductor
        self.variables = variables
        self.by_name = {g.name: g.index for g in gens}

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.take()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}")

    def parse(self) -> NcPoly:
        p = self.expr()
        if self.peek() is not None:
            raise ParseError(f"trailing input in expression: {self.peek()!r}")
        return p

    def expr(self) -> NcPoly:
        p = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    def term(self) -> NcPoly:
        p = self.unary()
        while self.peek() in ("*", "/"):
            op = self.take()
            q = self.unary()
            if op == "*":
                p = p * q
            else:
                p = p.scale(self.inverse(self.constant(q)))
        return p

    def unary(self) -> NcPoly:
        if self.peek() == "-":
            self.take()
            return -self.unary()
        if self.peek() == "+":
            self.take()
            return self.unary()
        return self.power()

    def power(self) -> NcPoly:
        base = self.atom()
        if self.peek() != "^":
            return base
        self.take()
        exponent = self.constant(self.unary())
        if not exponent.is_rational() or exponent.den != 1:
            raise ParseError(f"an exponent must be a rational integer, got {exponent}")
        e = exponent.num[0]
        if abs(e) > MAX_EXPONENT:
            raise ParseError(f"exponent {e} exceeds the limit {MAX_EXPONENT}")
        if base.terms.keys() <= {()}:
            value = self.constant(base)
            if e < 0:
                value, e = self.inverse(value), -e
            self.check_power_bits(e, value.height())
            return self.scalar(value ** e)
        if e < 0:
            raise ParseError("negative powers only on scalars")
        if len(base.terms) ** e > MAX_POWER_TERMS:
            raise ParseError(f"a power with up to {len(base.terms)}^{e} terms "
                             f"exceeds the limit {MAX_POWER_TERMS}")
        degree = e * max(map(len, base.terms))
        if degree > MAX_POWER_DEGREE:
            raise ParseError(f"a power of degree {degree} exceeds the limit "
                             f"{MAX_POWER_DEGREE}")
        self.check_power_bits(e, max(c.height() for c in base.terms.values()))
        return base ** e

    @staticmethod
    def check_power_bits(e: int, height: int) -> None:
        if e * height > MAX_POWER_BITS:
            raise ParseError(f"a power of about {e * height} bits exceeds "
                             f"the limit {MAX_POWER_BITS}")

    def constant(self, p: NcPoly) -> CycNum:
        if not p.terms.keys() <= {()}:
            raise ParseError(f"expected a scalar, got {p}")
        return p.terms[()] if p.terms else CycNum.zero(self.conductor)

    @staticmethod
    def inverse(value: CycNum) -> CycNum:
        if value.is_zero():
            raise ParseError("division by zero")
        return value.inverse()

    def scalar(self, value: CycNum) -> NcPoly:
        return NcPoly(self.gens, self.conductor, {(): value})

    def atom(self) -> NcPoly:
        tok = self.take()
        if tok.isdigit():
            return self.scalar(CycNum.rational(int(tok), self.conductor))
        if tok == "i":
            return self.scalar(CycNum.zeta(self.conductor, self.conductor // 4))
        if tok == "zeta":
            self.expect("(")
            n_tok = self.take()
            if not n_tok.isdigit() or int(n_tok) < 1:
                raise ParseError(f"zeta() needs a positive integer, got {n_tok!r}")
            self.expect(")")
            return self.scalar(CycNum.zeta(self.conductor,
                                           self.conductor // int(n_tok)))
        if tok == "(":
            p = self.expr()
            self.expect(")")
            return p
        if tok == "[":
            a = self.expr()
            self.expect(",")
            b = self.expr()
            closing = self.take()
            if closing == "]":
                return a * b - b * a
            if closing == "]_+":
                return a * b + b * a
            raise ParseError(f"expected ']' or ']_+', got {closing!r}")
        if tok in self.by_name:
            return NcPoly.gen(self.gens, self.conductor, self.by_name[tok])
        if tok in self.variables:
            return self.scalar(CycNum.rational(self.variables[tok], self.conductor))
        raise ParseError(f"unknown name in expression: {tok!r}")


def parse_ncpoly(text: str, gens: tuple, conductor: int,
                 variables: Optional[Mapping[str, int]] = None) -> NcPoly:
    """Parse an expression over the alphabet `gens`, with `variables` bound
    to integers.  The result lives at lcm(conductor, the conductor the text
    names)."""
    tokens, named = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    return _Parser(tokens, gens, check_conductor(lcm(conductor, named)),
                   variables or {}).parse()
