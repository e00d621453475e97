"""Exact multivariate polynomials in x0..xn with rational coefficients.

Everything here is immutable and pure: a polynomial is a sparse map from
exponent tuples (one non-negative int per variable) to nonzero ``Fraction``
coefficients, printed in decreasing graded reverse-lexicographic order.  No
floating point is used anywhere.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm
from operator import add, index

from .documents import digest_of
from .errors import PolynomialSyntaxError


def _exact(c) -> Fraction:
    """A coefficient as a Fraction; a float is refused, as its binary value
    is not the number written."""
    if isinstance(c, float):
        raise ValueError(f"coefficient {c!r} is a float; use an int or a Fraction")
    return Fraction(c)


class Polynomial:
    """Sparse polynomial with exact rational coefficients.

    ``n`` is the top variable index, so there are n+1 variables.  ``terms``
    maps exponent tuples to coefficients: ``f.terms[(2, 0, 0)]`` is the
    coefficient of x0^2.  The zero polynomial is ``Polynomial(n)``; it has
    ``degree is None``, distinct from degree-0 constants.
    """

    __slots__ = ("n", "terms", "_hash")

    def __init__(self, n: int, terms=None):
        if n < 0:
            raise ValueError("need at least one variable")
        self.n = n
        clean: dict[tuple[int, ...], Fraction] = {}
        for e, c in (terms or {}).items():
            try:
                e = tuple(map(index, e))
            except TypeError:
                raise ValueError(f"monomial exponents must be ints, got {e!r}") from None
            if len(e) != n + 1:
                raise ValueError("monomial arity does not match variable count")
            if min(e) < 0:
                raise ValueError("monomial exponents must be non-negative")
            c = _exact(c)
            if c:
                clean[e] = clean.get(e, Fraction(0)) + c
                if not clean[e]:
                    del clean[e]
        self.terms = clean
        self._hash = None

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, n: int, c) -> "Polynomial":
        return cls(n, {(0,) * (n + 1): c})

    @classmethod
    def variable(cls, n: int, i: int) -> "Polynomial":
        if not 0 <= i <= n:
            raise ValueError(f"variable index {i} out of range 0..{n}")
        e = [0] * (n + 1)
        e[i] = 1
        return cls(n, {tuple(e): Fraction(1)})

    # -- basic queries ------------------------------------------------

    @property
    def degree(self):
        if not self.terms:
            return None
        return max(map(sum, self.terms))

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self) -> bool:
        return len(set(map(sum, self.terms))) <= 1

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self):
        # lru_cache keys on f at every degree of both pipelines
        if self._hash is None:
            self._hash = hash((self.n, frozenset(self.terms.items())))
        return self._hash

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_arity(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return Polynomial(self.n, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.n, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_arity(other)
            out: dict[tuple[int, ...], Fraction] = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(map(add, e1, e2))
                    out[e] = out.get(e, Fraction(0)) + c1 * c2
            return Polynomial(self.n, out)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        c = _exact(c)
        return Polynomial(self.n, {m: c * v for m, v in self.terms.items()})

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(self.n, 1)
        for _ in range(e):
            result = result * self
        return result

    def partial(self, i: int) -> "Polynomial":
        """Partial derivative with respect to x_i."""
        if not 0 <= i <= self.n:
            raise ValueError(f"variable index {i} out of range 0..{self.n}")
        out: dict[tuple[int, ...], Fraction] = {}
        for e, c in self.terms.items():
            if e[i]:
                out[e[:i] + (e[i] - 1,) + e[i + 1 :]] = c * e[i]
        return Polynomial(self.n, out)

    # -- canonical printing --------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=_grevlex_key, reverse=True):
            c = self.terms[e]
            body = _format_term(e, c)
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("-" if c < 0 else "+") + body)
        return "".join(parts)

    def __repr__(self):
        return f"Polynomial(n={self.n}, {str(self)!r})"

    def _check_arity(self, other: "Polynomial"):
        if self.n != other.n:
            raise ValueError("mixed variable counts")


def _grevlex_key(e: tuple[int, ...]):
    """Sort key of graded reverse-lexicographic order, increasing: ties in
    total degree go to the rightmost differing exponent, and the larger one
    is the smaller monomial."""
    return (sum(e), tuple(-k for k in reversed(e)))


def _format_term(e: tuple[int, ...], c: Fraction) -> str:
    a = abs(c)
    mono = "*".join(f"x{i}^{k}" if k > 1 else f"x{i}" for i, k in enumerate(e) if k)
    if not mono:
        return str(a)
    return mono if a == 1 else f"{a}*{mono}"


def pack(e) -> int:
    """The int key of an exponent vector, e_i in bits 16i..16i+15: while every
    exponent is below 2^16, the key of a product is the sum of the keys."""
    return sum(k << 16 * i for i, k in enumerate(e))


# the most monomials one grevlex_columns call may build, those of its
# smaller rings included: a table at the limit takes up to about 300 MB
_MONOMIAL_BUDGET = 1 << 20


@lru_cache(maxsize=None)
def grevlex_columns(n: int, k: int) -> dict[int, int]:
    """Column of each degree-k monomial, keyed by pack, in a matrix whose
    columns run in decreasing grevlex: the largest monomial is column 0, so
    a row's smallest column is its leading monomial.  The keys run in
    increasing grevlex, which within one degree is decreasing lex order on
    the reversed vector (e_n, ..., e_0): the exponent of x_n runs
    downwards, and in front of each value come the cached indexes of the
    smaller degrees in x_0..x_(n-1), already in order.  Callers must not
    change them.

    A degree from 2^16 on raises ValueError before anything is enumerated,
    and so does a call whose count C(n+k+1, k+1) is over _MONOMIAL_BUDGET:
    its smaller rings' indexes of the degrees up to k hold one key fewer,
    and its own C(n+k, k) keys are fewer still.  Under the budget a degree
    k >= 2 nests at most 182 rings deep; the index of degree 1, which may
    have far more variables, is spelled out."""
    if not 0 <= k < 1 << 16:
        raise ValueError(f"degree must be in [0, 2^16), got {k}")
    if (count := comb(n + k + 1, k + 1)) > _MONOMIAL_BUDGET:
        raise ValueError(
            f"degree {k} in x0..x{n} needs a monomial table of {count} entries, "
            f"over the limit of {_MONOMIAL_BUDGET}"
        )
    if n == 0 or k == 0:
        return {k: 0}
    if k == 1:  # x_n, .., x_0
        return {1 << 16 * i: i for i in range(n, -1, -1)}
    step = 1 << 16 * n  # pack of x_n: t is x_n^(k-j) in front of the run of degree j
    keys = [h + t for j, t in enumerate(range(k * step, -1, -step)) for h in grevlex_columns(n - 1, j)]
    return dict(zip(keys, range(len(keys) - 1, -1, -1)))


def dim_degree_piece(n: int, k: int) -> int:
    """Dimension of the degree-k piece of the polynomial ring; 0 for k < 0."""
    return comb(k + n, n) if k >= 0 else 0


# -- parsing -----------------------------------------------------------

_TOKEN = re.compile(r"\d+|x\d+|[-+*^()/]")
# each level of parentheses is four frames of the recursive descent
_MAX_NESTING = 100


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if not m:
            raise PolynomialSyntaxError(
                f"unexpected character {text[pos]!r}", pos
            )
        tokens.append((m.group(), pos))
        pos = m.end()
    tokens.append(("", len(text)))  # end marker
    return tokens


class _Parser:
    def __init__(self, text: str, n: int):
        self.n = n
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0  # parentheses open around the current token

    def peek(self):
        return self.tokens[self.i][0]

    def pos(self):
        return self.tokens[self.i][1]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> Polynomial:
        p = self.expression()
        if self.peek() != "":
            raise PolynomialSyntaxError(
                f"unexpected trailing input {self.peek()!r}", self.pos()
            )
        return p

    def expression(self) -> Polynomial:
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.take()[0] == "-" else 1
        acc = self.term().scale(sign)
        while self.peek() in ("+", "-"):
            op = self.take()[0]
            t = self.term()
            acc = acc + (t if op == "+" else -t)
        return acc

    def term(self) -> Polynomial:
        p = self.power()
        while True:
            nxt = self.peek()
            if nxt == "*":
                self.take()
                p = p * self.power()
            elif nxt and (nxt[0].isdigit() or nxt[0] == "x" or nxt == "("):
                p = p * self.power()  # adjacency means multiplication
            else:
                return p

    def power(self) -> Polynomial:
        base = self.atom()
        if self.peek() == "^":
            self.take()
            tok, pos = self.tokens[self.i]
            if not tok.isdigit():
                raise PolynomialSyntaxError("expected integer exponent", pos)
            self.take()
            e = int(tok)
            if e < 1:
                raise PolynomialSyntaxError("exponent must be >= 1", pos)
            if e >= 1 << 16:  # refused before it is expanded (see pack)
                raise PolynomialSyntaxError("exponent must be below 2^16", pos)
            base = base**e
        return base

    def atom(self) -> Polynomial:
        tok, pos = self.tokens[self.i]
        if tok.isdigit():
            self.take()
            num = int(tok)
            if self.peek() == "/":
                self.take()
                dtok, dpos = self.tokens[self.i]
                if not dtok.isdigit():
                    raise PolynomialSyntaxError("expected denominator", dpos)
                self.take()
                den = int(dtok)
                if den == 0:
                    raise PolynomialSyntaxError("zero denominator", dpos)
                return Polynomial.constant(self.n, Fraction(num, den))
            return Polynomial.constant(self.n, num)
        if tok.startswith("x"):
            self.take()
            idx = int(tok[1:])
            if idx > self.n:
                raise PolynomialSyntaxError(
                    f"variable x{idx} out of range for n={self.n}", pos
                )
            return Polynomial.variable(self.n, idx)
        if tok == "(":
            if self.depth == _MAX_NESTING:
                raise PolynomialSyntaxError(f"parentheses nest deeper than {_MAX_NESTING}", pos)
            self.take()
            self.depth += 1
            inner = self.expression()
            if self.peek() != ")":
                raise PolynomialSyntaxError("expected ')'", self.pos())
            self.take()
            self.depth -= 1
            return inner
        raise PolynomialSyntaxError("expected a coefficient, variable or '('", pos)


def parse(text: str, n: int) -> Polynomial:
    """Parse an expression in x0..xn into expanded normal form.

    The grammar accepts signed rational coefficients ``p`` or ``p/q``,
    variables ``x<k>``, powers ``^e`` with 1 <= e < 2^16, parentheses
    nested at most _MAX_NESTING deep, and implicit or explicit
    multiplication.  Errors carry the byte offset.
    """
    return _Parser(text, n).parse()


def infer_variable_count(text: str) -> int:
    """Largest variable index mentioned in the text (n for x0..xn)."""
    indices = [int(s[1:]) for s in re.findall(r"x\d+", text)]
    if not indices:
        raise PolynomialSyntaxError("no variables found", 0)
    return max(indices)


# -- input digest and squarefreeness ------------------------------------


def _input_digest(f: Polynomial) -> str:
    """SHA-256 hex digest of the canonical input ``f"{n}:{f}"``; reports
    carry it, and every seed derived from the input is 64 bits of it."""
    return digest_of(f"{f.n}:{f}")


def _seed_of(f: Polynomial, part: int = 0) -> int:
    """The part-th 64 bits of the input digest, as an int seed."""
    return int(_input_digest(f)[16 * part : 16 * part + 16], 16)


def _integral_terms(f: Polynomial) -> dict[tuple[int, ...], int]:
    """The terms of f times the lcm of its denominators, as plain ints in
    f's term order: f itself for integral coefficients.  A nonzero multiple
    has the same partials' ideal and the same factors, and this one is
    integral, so no prime divides a denominator of it."""
    scale = lcm(*(c.denominator for c in f.terms.values()))
    return {e: c.numerator * (scale // c.denominator) for e, c in f.terms.items()}


# a Mersenne prime far above any accepted degree: the squarefree check's modulus
_P = (1 << 61) - 1


def squarefree_check(f: Polynomial) -> bool:
    """Whether f has no repeated irreducible factor, read off one line.

    Restricts F, the primitive integer multiple of f, to the pencil
    t*a + b through two points drawn from the input digest and takes the
    gcd with the derivative mod P.  The leading coefficient is F(a); a line
    where it is 0 mod P is skipped.  If f = g^2*h, then F = G^2*H over the
    integers, so F(a) != 0 mod P forces G(a) != 0 mod P, and G(t*a + b) is
    a repeated factor of positive degree: a trivial gcd proves f
    squarefree.  A nontrivial one on a squarefree f comes only from a line
    tangent to it or from P dividing a resultant.  A homogeneous f
    restricted to a 1-dimensional subspace would collapse to c*t^d, hence
    the two-point pencil.
    """
    if f.is_zero() or not f.is_homogeneous() or f.degree < 1:
        raise ValueError("squarefree check needs a nonzero homogeneous f of degree >= 1")
    ints = _integral_terms(f)
    content = gcd(*ints.values())
    terms = {e: v // content % _P for e, v in ints.items()}
    rng = random.Random(_seed_of(f))
    span = 10**6
    for _attempt in range(50):
        a = [rng.randint(-span, span) for _ in range(f.n + 1)]
        b = [rng.randint(-span, span) for _ in range(f.n + 1)]
        coeffs = _restrict_to_line(terms, f.degree, a, b)
        if coeffs[-1]:
            return _gcd_with_derivative_degree(coeffs) == 0
    raise RuntimeError("could not find a line transverse to f")


def _restrict_to_line(terms: dict, d: int, a, b) -> list[int]:
    """Coefficients of t -> F(t*a + b) mod P, lowest degree first, for F
    homogeneous of degree d given by its terms mod P."""
    coeffs = [0] * (d + 1)
    for e, c in terms.items():
        t = [c]
        for ai, bi, k in zip(a, b, e):
            for _ in range(k):
                # multiply by (a_i * t + b_i)
                t = [(x * bi + y * ai) % _P for x, y in zip(t + [0], [0] + t)]
        coeffs = [x + y for x, y in zip(coeffs, t)]
    return [x % _P for x in coeffs]


def _gcd_with_derivative_degree(coeffs: list[int]) -> int:
    """Degree of the gcd mod P of a polynomial, given by its coefficients
    mod P lowest first, with its derivative; -1 for 0."""
    def trim(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    p = trim(list(coeffs))
    q = trim([i * c % _P for i, c in enumerate(coeffs)][1:])
    while q:
        # p mod q by monic long division
        inv = pow(q[-1], -1, _P)
        r = list(p)
        while len(r) >= len(q):
            f_ = r[-1] * inv % _P
            shift = len(r) - len(q)
            for i, v in enumerate(q):
                r[i + shift] = (r[i + shift] - f_ * v) % _P
            trim(r)
        p, q = q, r
    return len(p) - 1 if p else -1
