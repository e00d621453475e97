"""Exact multivariate polynomials in x0..xn with rational coefficients.

Everything here is immutable and pure: monomials are exponent vectors under
a fixed graded reverse-lexicographic order, polynomials are sparse maps from
monomials to nonzero ``Fraction`` coefficients.  No floating point is used
anywhere.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from math import comb

from .documents import digest_of
from .errors import PolynomialSyntaxError


class Monomial:
    """Exponent vector of one monomial in the variables x0..xn."""

    __slots__ = ("exponents", "degree")

    def __init__(self, exponents):
        exps = tuple(int(e) for e in exponents)
        if any(e < 0 for e in exps):
            raise ValueError("monomial exponents must be non-negative")
        self.exponents = exps
        self.degree = sum(exps)

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exponents == other.exponents

    def __hash__(self):
        return hash(self.exponents)

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(a + b for a, b in zip(self.exponents, other.exponents))

    # Rich comparison follows grevlex so that sorted() gives the fixed order.
    def __lt__(self, other):
        return grevlex_key(self) < grevlex_key(other)

    def __le__(self, other):
        return grevlex_key(self) <= grevlex_key(other)

    def __str__(self):
        parts = [
            f"x{i}^{e}" if e > 1 else f"x{i}"
            for i, e in enumerate(self.exponents)
            if e
        ]
        return "*".join(parts) if parts else "1"

    def __repr__(self):
        return f"Monomial({self.exponents})"


def grevlex_key(m: Monomial):
    """Sort key realizing graded reverse-lexicographic order, increasing.

    Ties in total degree are broken by the rightmost differing exponent:
    the monomial with the larger one is the smaller.
    """
    return (m.degree, tuple(-e for e in reversed(m.exponents)))


class Polynomial:
    """Sparse polynomial with exact rational coefficients.

    ``n`` is the top variable index, so there are n+1 variables.  The zero
    polynomial has ``degree is None``, distinct from degree-0 constants.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        if n < 0:
            raise ValueError("need at least one variable")
        self.n = n
        clean: dict[Monomial, Fraction] = {}
        for m, c in (terms or {}).items():
            if not isinstance(m, Monomial):
                m = Monomial(m)
            if len(m.exponents) != n + 1:
                raise ValueError("monomial arity does not match variable count")
            c = Fraction(c)
            if c:
                clean[m] = clean.get(m, Fraction(0)) + c
                if not clean[m]:
                    del clean[m]
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls(n)

    @classmethod
    def constant(cls, n: int, c) -> "Polynomial":
        return cls(n, {Monomial((0,) * (n + 1)): Fraction(c)})

    @classmethod
    def variable(cls, n: int, i: int) -> "Polynomial":
        if not 0 <= i <= n:
            raise ValueError(f"variable index {i} out of range 0..{n}")
        e = [0] * (n + 1)
        e[i] = 1
        return cls(n, {Monomial(e): Fraction(1)})

    # -- basic queries ------------------------------------------------

    @property
    def degree(self):
        if not self.terms:
            return None
        return max(m.degree for m in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self) -> bool:
        degs = {m.degree for m in self.terms}
        return len(degs) <= 1

    def coefficient(self, m: Monomial) -> Fraction:
        return self.terms.get(m, Fraction(0))

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

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
            out: dict[Monomial, Fraction] = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    m = m1 * m2
                    out[m] = out.get(m, Fraction(0)) + c1 * c2
            return Polynomial(self.n, out)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        c = Fraction(c)
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
        out: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            e = m.exponents[i]
            if e:
                ee = list(m.exponents)
                ee[i] -= 1
                out[Monomial(ee)] = c * e
        return Polynomial(self.n, out)

    def evaluate(self, point):
        """Evaluate at a tuple of numbers (exact if the inputs are exact)."""
        if len(point) != self.n + 1:
            raise ValueError("point arity does not match variable count")
        total = Fraction(0)
        for m, c in self.terms.items():
            v = c
            for x, e in zip(point, m.exponents):
                if e:
                    v *= Fraction(x) ** e
            total += v
        return total

    # -- canonical printing --------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=grevlex_key, reverse=True):
            c = self.terms[m]
            body = _format_term(m, c)
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


def _format_term(m: Monomial, c: Fraction) -> str:
    a = abs(c)
    if m.degree == 0:
        return str(a)
    mono = str(m)
    return mono if a == 1 else f"{a}*{mono}"


def partial(f: Polynomial, i: int) -> Polynomial:
    return f.partial(i)


def grevlex_exponents(n: int, k: int) -> list[tuple[int, ...]]:
    """Exponent vectors of all degree-k monomials in x0..xn, strictly
    increasing in grevlex.

    Increasing grevlex within one degree is decreasing lex order on the
    reversed vector (e_n, ..., e_0).  So the vectors are built one variable
    at a time: the new last exponent runs downwards, and in front of each
    value come the vectors of the remaining degree in the earlier
    variables, already in order.
    """
    if k < 0:
        raise ValueError("degree must be non-negative")
    # heads[j]: the degree-j vectors in the variables placed so far
    heads = [[(j,)] for j in range(k + 1)]
    for _ in range(n):
        heads = [
            [h + (e,) for e in range(j, -1, -1) for h in heads[j - e]]
            for j in range(k + 1)
        ]
    return heads[k]


def monomial_basis(n: int, k: int) -> list[Monomial]:
    """All degree-k monomials in x0..xn, strictly increasing in grevlex."""
    return [Monomial(e) for e in grevlex_exponents(n, k)]


def dim_degree_piece(n: int, k: int) -> int:
    """Dimension of the degree-k piece of the polynomial ring; 0 for k < 0."""
    return comb(k + n, n) if k >= 0 else 0


# -- parsing -----------------------------------------------------------

_TOKEN = re.compile(r"\d+|x\d+|[-+*^()/]")


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
            self.take()
            inner = self.expression()
            if self.peek() != ")":
                raise PolynomialSyntaxError("expected ')'", self.pos())
            self.take()
            return inner
        raise PolynomialSyntaxError("expected a coefficient, variable or '('", pos)


def parse(text: str, n: int) -> Polynomial:
    """Parse an expression in x0..xn into expanded normal form.

    The grammar accepts signed rational coefficients ``p`` or ``p/q``,
    variables ``x<k>``, powers ``^e`` with e >= 1, parentheses, and
    implicit or explicit multiplication.  Errors carry the byte offset.
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
    carry it, and every seed derived from the input is its first 64 bits."""
    return digest_of(f"{f.n}:{f}")


def _seed_of(f: Polynomial) -> int:
    return int(_input_digest(f)[:16], 16)


def squarefree_check(f: Polynomial, trials: int = 3, seed=None) -> bool:
    """Probabilistic check that f has no repeated irreducible factor.

    Restricts f to random lines (pencil parametrization t*a + b through two
    random points) and takes the univariate gcd with the derivative.  A
    repeated factor of f restricts to a repeated factor on every line whose
    direction avoids its zero locus, so ``trials`` independent trivial gcds
    make squarefreeness overwhelmingly likely.  Restriction to a genuinely
    1-dimensional subspace of the variables would collapse a homogeneous f
    to c*t^d, hence the two-point pencil.
    """
    if f.is_zero() or not f.is_homogeneous() or f.degree < 1:
        raise ValueError("squarefree check needs a nonzero homogeneous f of degree >= 1")
    if seed is None:
        seed = _seed_of(f)
    rng = random.Random(seed)
    span = 10**6
    for _ in range(trials):
        for _attempt in range(50):
            a = [rng.randint(-span, span) for _ in range(f.n + 1)]
            b = [rng.randint(-span, span) for _ in range(f.n + 1)]
            if f.evaluate(a) != 0:
                break
        else:
            raise RuntimeError("could not find a line transverse to f")
        g = _restrict_to_line(f, a, b)
        if _gcd_with_derivative_degree(g) != 0:
            return False
    return True


def _restrict_to_line(f: Polynomial, a, b) -> list[Fraction]:
    """Coefficients of t -> f(t*a + b), lowest degree first."""
    d = f.degree
    coeffs = [Fraction(0)] * (d + 1)
    for m, c in f.terms.items():
        t = [1]
        for i, e in enumerate(m.exponents):
            for _ in range(e):
                # multiply by (a_i * t + b_i)
                nt = [0] * (len(t) + 1)
                for j, v in enumerate(t):
                    nt[j] += v * b[i]
                    nt[j + 1] += v * a[i]
                t = nt
        for j, v in enumerate(t):
            coeffs[j] += c * v
    return coeffs


def _gcd_with_derivative_degree(coeffs: list[Fraction]) -> int:
    def trim(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    p = trim([Fraction(c) for c in coeffs])
    q = trim([Fraction(i * c) for i, c in enumerate(coeffs)][1:])
    while q:
        # p mod q by monic long division
        inv = 1 / q[-1]
        r = list(p)
        while len(r) >= len(q):
            f_ = r[-1] * inv
            shift = len(r) - len(q)
            for i, v in enumerate(q):
                r[i + shift] -= f_ * v
            trim(r)
            if not r:
                break
        p, q = q, r
    return len(p) - 1 if p else -1
