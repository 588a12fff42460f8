"""Exact arithmetic over prime fields and sparse multivariate polynomials.

Monomials at the public surface are plain tuples of exponents, one entry per
ring variable in declaration order (highest precedence first).  Internally a
PolynomialRing packs each monomial into a single integer "key" whose natural
integer order coincides with the active monomial order, so term merges and
comparisons stay cheap.
"""

from __future__ import annotations

import bisect
from heapq import heappop as _heappop, heappush as _heappush
from itertools import islice
from math import isqrt

ORDER_KINDS = ("grevlex", "lex", "deglex")

_FIELD_BITS = 16            # bits per exponent field in packed keys
_FIELD_MAX = (1 << 15) - 1  # largest exponent, and largest total degree, a key holds


class ArityError(ValueError):
    """Monomials of different lengths were combined."""


class NotDivisibleError(ArithmeticError):
    """Exact monomial or term division failed."""


class ZeroPolynomialError(ValueError):
    """An operation that needs a nonzero polynomial received zero."""


class NonHomogeneousError(ValueError):
    """An operation restricted to homogeneous input received mixed degrees."""


class ExponentOverflowError(OverflowError):
    """A monomial's total degree exceeds what a packed key can hold."""


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    for d in range(3, isqrt(p) + 1, 2):
        if p % d == 0:
            return False
    return True


class PrimeField:
    """The field Z/pZ for a prime p with 2 <= p < 2**31.

    Elements are plain ints in [0, p); arithmetic helpers keep them there.
    """

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not (2 <= p < 2 ** 31):
            raise ValueError(f"characteristic out of range: {p}")
        if not is_prime(p):
            raise ValueError(f"characteristic is not prime: {p}")
        self.p = p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0 in a prime field")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return a * self.inv(b) % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


# ---------------------------------------------------------------------------
# monomials as exponent tuples


def _check_arity(a, b):
    if len(a) != len(b):
        raise ArityError(f"monomial arity mismatch: {len(a)} vs {len(b)}")


def total_degree(a) -> int:
    return sum(a)


def monomial_mul(a, b):
    _check_arity(a, b)
    return tuple(x + y for x, y in zip(a, b))


def monomial_lcm(a, b):
    """Componentwise maximum; divisible by both inputs."""
    _check_arity(a, b)
    return tuple(x if x >= y else y for x, y in zip(a, b))


def monomial_divides(a, b) -> bool:
    """True when a divides b (componentwise <=)."""
    _check_arity(a, b)
    return all(x <= y for x, y in zip(a, b))


def monomial_div(a, b):
    """Exact quotient a / b; raises NotDivisibleError when b does not divide a."""
    _check_arity(a, b)
    out = []
    for x, y in zip(a, b):
        if y > x:
            raise NotDivisibleError(f"{b} does not divide {a}")
        out.append(x - y)
    return tuple(out)


class TermOrder:
    """An admissible monomial order: grevlex (default), lex, or deglex."""

    __slots__ = ("kind",)

    def __init__(self, kind: str = "grevlex"):
        if kind not in ORDER_KINDS:
            raise ValueError(f"unknown order {kind!r}; expected one of {ORDER_KINDS}")
        self.kind = kind

    def sort_key(self, a):
        if self.kind == "grevlex":
            return (sum(a), tuple(-e for e in reversed(a)))
        if self.kind == "deglex":
            return (sum(a), a)
        return tuple(a)

    def cmp(self, a, b) -> int:
        """-1, 0 or 1 as a is below, equal to, or above b."""
        _check_arity(a, b)
        ka, kb = self.sort_key(a), self.sort_key(b)
        if ka < kb:
            return -1
        if ka > kb:
            return 1
        return 0

    def __eq__(self, other):
        return isinstance(other, TermOrder) and self.kind == other.kind

    def __hash__(self):
        return hash(("TermOrder", self.kind))

    def __repr__(self):
        return f"TermOrder({self.kind!r})"


def order_cmp(order: TermOrder, a, b) -> int:
    """Compare monomials a, b under the given order (-1 | 0 | 1)."""
    return order.cmp(a, b)


# ---------------------------------------------------------------------------
# the ring: variable names, coefficient field, order, and key packing


def check_names(names) -> tuple:
    """names as a tuple; ValueError unless they are one or more distinct variable names."""
    names = tuple(names)
    if not names:
        raise ValueError("a polynomial ring needs at least one variable")
    seen = set()
    for name in names:
        if not (name[:1].isalpha() and all(c.isalnum() or c == "_" for c in name)):
            raise ValueError(f"bad variable name: {name!r}")
        if name in seen:
            raise ValueError(f"duplicate variable name: {name!r}")
        seen.add(name)
    return names


class PolynomialRing:
    """F_p[x_1, ..., x_n] with a fixed admissible order.

    Variable precedence follows declaration order: names[0] is the largest
    variable.  The ring owns the packed-key encoding used by Polynomial.
    """

    def __init__(self, char: int, names, order: str | TermOrder = "grevlex"):
        names = check_names(names)
        self.field = PrimeField(char)
        self.p = self.field.p
        self.names = names
        self.n = len(names)
        self.order = order if isinstance(order, TermOrder) else TermOrder(order)

        n = self.n
        W = _FIELD_BITS
        self._deg_shift = W * n
        # Every key has total degree <= _FIELD_MAX, so every exponent field
        # stays below 2**15 and adding two keys carries no field into the
        # next.  For graded orders the degree field then adds exactly, and a
        # product of keys ka, kb is too large iff ka + kb >= _deg_cap.
        self._deg_cap = (_FIELD_MAX + 1) << self._deg_shift
        self._graded = self.order.kind in ("grevlex", "deglex")
        if self.order.kind == "grevlex":
            # key = deg | (M - e_n) | ... | (M - e_1), variable i at offset W*i
            self.unit_key = sum(_FIELD_MAX << (W * i) for i in range(n))
        else:
            # lex: e_1 highest; deglex: deg then e_1 ... e_n
            self.unit_key = 0
        # word(key) = key ^ unit_key holds e_i in field i (grevlex's M - e_i
        # flipped back).  Exponents stay below 2**15, so bit 15 of every
        # field is free: with it set in b's word, subtracting a's word
        # borrows out of no field, and the bit survives in a field iff
        # e_i(a) <= e_i(b).  divides() and the divisor scans test
        # (word(b) | guard) - word(a) against the guard.
        self.guard = sum(1 << (W * i + W - 1) for i in range(n))
        self._ones = sum(1 << (W * i) for i in range(n))
        # Keys are below 2**sig_shift: a signature packs as index << sig_shift
        # | key, ordered as (index, key); key_mul(u, s) multiplies its monomial.
        self.sig_shift = W * (n + 1)
        self.sig_mask = (1 << self.sig_shift) - 1
        self.zero = Polynomial(self, ())
        self.one = Polynomial(self, ((self.unit_key, 1),))

    # -- key packing ------------------------------------------------------

    def key(self, exps) -> int:
        if len(exps) != self.n:
            raise ArityError(f"expected {self.n} exponents, got {len(exps)}")
        W = _FIELD_BITS
        kind = self.order.kind
        d = sum(exps)
        self.check_degree(d)
        k = 0
        if kind == "grevlex":
            for i, e in enumerate(exps):
                k |= (_FIELD_MAX - e) << (W * i)
            k |= d << self._deg_shift
        elif kind == "deglex":
            n1 = self.n - 1
            for i, e in enumerate(exps):
                k |= e << (W * (n1 - i))
            k |= d << self._deg_shift
        else:  # lex
            n1 = self.n - 1
            for i, e in enumerate(exps):
                k |= e << (W * (n1 - i))
        return k

    def exps(self, key: int):
        W = _FIELD_BITS
        mask = (1 << W) - 1
        kind = self.order.kind
        if kind == "grevlex":
            return tuple(_FIELD_MAX - ((key >> (W * i)) & mask) for i in range(self.n))
        n1 = self.n - 1
        return tuple((key >> (W * (n1 - i))) & mask for i in range(self.n))

    def key_mul(self, ka: int, kb: int) -> int:
        """Product key; caller guarantees the product packs (check_degree)."""
        return ka + kb - self.unit_key

    def key_div(self, ka: int, kb: int) -> int:
        """Quotient key; caller guarantees divisibility."""
        return ka - kb + self.unit_key

    def key_degree(self, key: int) -> int:
        if self._graded:
            return key >> self._deg_shift
        return sum(self.exps(key))

    def check_degree(self, d: int):
        """Raise ExponentOverflowError when total degree d does not pack.

        Products check the sum of their factors' degrees: every exponent is
        at most the total degree, so no exponent field can then wrap.
        """
        if d > _FIELD_MAX:
            raise ExponentOverflowError(
                f"total degree {d} exceeds the packed-key limit {_FIELD_MAX}"
            )

    def word(self, key: int) -> int:
        """The exponent word of a key: field i holds e_i (see guard)."""
        return key ^ self.unit_key

    def divides(self, ka: int, kb: int) -> bool:
        """True when the monomial keyed ka divides the one keyed kb."""
        g = self.guard
        return ((self.word(kb) | g) - self.word(ka)) & g == g

    def lcm(self, ka: int, kb: int) -> int:
        """Key of the least common multiple of the monomials keyed ka and kb."""
        return self.lcms(ka, (kb,))[0]

    def lcms(self, ka: int, keys) -> list:
        """Keys of lcm(a, b) for each key kb in keys, in the order of keys.

        On the exponent words with the degree field masked off, the guard
        marks each field where e_i(a) >= e_i(b) (see divides); the marks
        widen to field masks that select the larger exponent.  One multiply
        by sum(1 << W*i) sums the fields into the top one: every partial sum
        is at most deg(a) + deg(b) < 2**16, so no field carries.  Raises
        ExponentOverflowError when some lcm's total degree does not pack.
        """
        W, g, shift, unit = _FIELD_BITS, self.guard, self._deg_shift, self.unit_key
        low = (1 << shift) - 1
        fmask = (1 << W) - 1
        ones, top = self._ones, shift - W
        keep = -1 if self._graded else low  # lex keys have no degree field
        wa = (ka ^ unit) & low
        wag = wa | g
        out = []
        dmax = 0
        for kb in keys:
            wb = (kb ^ unit) & low
            w = wb ^ ((wa ^ wb) & ((((wag - wb) & g) >> (W - 1)) * fmask))
            d = (w * ones >> top) & fmask
            if d > dmax:
                dmax = d
            out.append(((w | d << shift) & keep) ^ unit)
        self.check_degree(dmax)
        return out

    # -- polynomial construction ------------------------------------------

    def from_terms(self, terms) -> Polynomial:
        """Build a polynomial from (exponent tuple, coefficient) pairs.

        Coefficients are reduced mod p, duplicate monomials merged, zero
        terms dropped, and the result sorted descending.  A negative exponent
        raises ValueError, a total degree past 32767 ExponentOverflowError.
        """
        acc: dict[int, int] = {}
        for exps, c in terms:
            if any(e < 0 for e in exps):
                raise ValueError(f"exponent out of range in {exps}")
            k = self.key(exps)
            acc[k] = (acc.get(k, 0) + c) % self.p
        packed = sorted(((k, c) for k, c in acc.items() if c), reverse=True)
        return Polynomial(self, tuple(packed))

    def constant(self, c: int) -> Polynomial:
        c %= self.p
        if not c:
            return self.zero
        return Polynomial(self, ((self.unit_key, c),))

    def variable(self, name: str) -> Polynomial:
        i = self.names.index(name)
        exps = tuple(1 if j == i else 0 for j in range(self.n))
        return self.from_terms([(exps, 1)])

    # -- rendering ---------------------------------------------------------

    def render_monomial(self, exps) -> str:
        parts = [
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(self.names, exps)
            if e
        ]
        return "*".join(parts)

    def render(self, poly: Polynomial) -> str:
        """Deterministic text form, terms descending, balanced coefficients."""
        if not poly.terms:
            return "0"
        p = self.p
        out = []
        for i, (key, c) in enumerate(poly.terms):
            if c > p // 2:
                sign, mag = "-", p - c
            else:
                sign, mag = "+", c
            mono = self.render_monomial(self.exps(key))
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if i == 0:
                out.append(body if sign == "+" else f"-{body}")
            else:
                out.append(f"{sign} {body}")
        return " ".join(out)

    def __eq__(self, other):
        return (
            isinstance(other, PolynomialRing)
            and self.p == other.p
            and self.names == other.names
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.p, self.names, self.order))

    def __repr__(self):
        return f"PolynomialRing(char={self.p}, names={self.names}, order={self.order.kind})"


def one_ring(a: PolynomialRing, b: PolynomialRing) -> PolynomialRing:
    """a, where b is the same ring (equal, if not identical); ValueError where not."""
    if a is b or a == b:
        return a
    raise ValueError(f"polynomials must live in one ring: {a!r} and {b!r}")


class Polynomial:
    """Sparse polynomial: packed terms strictly descending in the ring order.

    The zero polynomial has an empty term tuple; lt/lc raise on it.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolynomialRing, terms: tuple):
        self.ring = ring
        self.terms = terms

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def lt_key(self) -> int:
        if not self.terms:
            raise ZeroPolynomialError("head monomial of the zero polynomial")
        return self.terms[0][0]

    def lt(self):
        """Head monomial as an exponent tuple."""
        return self.ring.exps(self.lt_key())

    def lc(self) -> int:
        if not self.terms:
            raise ZeroPolynomialError("head coefficient of the zero polynomial")
        return self.terms[0][1]

    def degree(self) -> int:
        """Total degree (of the head for graded orders, max over terms otherwise)."""
        if not self.terms:
            raise ZeroPolynomialError("degree of the zero polynomial")
        kd = self.ring.key_degree
        if self.ring._graded:
            return kd(self.terms[0][0])
        return max(kd(k) for k, _ in self.terms)

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        kd = self.ring.key_degree
        d = kd(self.terms[0][0])
        return all(kd(k) == d for k, _ in self.terms)

    def monomials(self):
        """Exponent tuples of all terms, descending."""
        exps = self.ring.exps
        return [exps(k) for k, _ in self.terms]

    def dict(self):
        exps = self.ring.exps
        return {exps(k): c for k, c in self.terms}

    # -- arithmetic ---------------------------------------------------------

    def _merge(self, other: Polynomial, sign: int) -> Polynomial:
        ring = one_ring(self.ring, other.ring)
        p = ring.p
        acc = dict(self.terms)
        get = acc.get
        for k, c in other.terms:
            nc = (get(k, 0) + sign * c) % p
            if nc:
                acc[k] = nc
            else:
                acc.pop(k, None)
        # keys are unique, so the tuples sort by key alone
        return Polynomial(ring, tuple(sorted(acc.items(), reverse=True)))

    def __add__(self, other: Polynomial) -> Polynomial:
        return self._merge(other, 1)

    def __sub__(self, other: Polynomial) -> Polynomial:
        return self._merge(other, -1)

    def __neg__(self) -> Polynomial:
        p = self.ring.p
        return Polynomial(self.ring, tuple((k, p - c) for k, c in self.terms))

    def scale(self, c: int) -> Polynomial:
        p = self.ring.p
        c %= p
        if not c:
            return self.ring.zero
        return Polynomial(self.ring, tuple((k, (c * t) % p) for k, t in self.terms))

    def term_mul(self, exps, c: int) -> Polynomial:
        """Multiply by the term c * x^exps."""
        return self.term_mul_key(self.ring.key(exps), c)

    def term_mul_key(self, ku: int, c: int) -> Polynomial:
        ring = self.ring
        c %= ring.p
        if not c or not self.terms:
            return ring.zero
        # graded orders: one comparison on the head's key (see _deg_cap);
        # lex has no degree field and takes the maximum over the terms
        if not (ring._graded and self.terms[0][0] + ku < ring._deg_cap):
            ring.check_degree(self.degree() + ring.key_degree(ku))
        off = ku - ring.unit_key
        return Polynomial(ring, tuple((k + off, (c * t) % ring.p) for k, t in self.terms))

    def __mul__(self, other: Polynomial) -> Polynomial:
        return sum_products(self.ring, ((self, other),))

    def monic(self) -> Polynomial:
        if not self.terms:
            raise ZeroPolynomialError("cannot normalize the zero polynomial")
        c = self.terms[0][1]
        if c == 1:
            return self
        return self.scale(self.ring.field.inv(c))

    def is_unit(self) -> bool:
        """True for a nonzero constant."""
        return len(self.terms) == 1 and self.terms[0][0] == self.ring.unit_key

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring.p, self.ring.names, self.terms))

    def __repr__(self):
        return self.ring.render(self)


def sum_products(ring: PolynomialRing, pairs) -> Polynomial:
    """sum(a * b for a, b in pairs): the one term-by-term product loop.

    Raw integer products accumulate in one dict; the sum is reduced mod p,
    stripped of zeros and sorted once at the end.  A factor of another ring
    raises ValueError, and a nonzero pair whose product's total degree would
    not pack ExponentOverflowError, even if its terms cancel in the sum.
    """
    unit = ring.unit_key
    acc: dict[int, int] = {}
    get = acc.get
    for a, b in pairs:
        if a.ring is not ring or b.ring is not ring:
            one_ring(one_ring(ring, a.ring), b.ring)
        ta, tb = a.terms, b.terms
        if not ta or not tb:
            continue
        # graded orders: one comparison on the heads' keys (see _deg_cap)
        if not (ring._graded and ta[0][0] + tb[0][0] < ring._deg_cap):
            ring.check_degree(a.degree() + b.degree())
        if len(ta) > len(tb):
            ta, tb = tb, ta
        for ka, ca in ta:
            off = ka - unit
            for kb, cb in tb:
                k = off + kb
                acc[k] = get(k, 0) + ca * cb
    p = ring.p
    terms = [(k, r) for k, c in acc.items() if (r := c % p)]
    terms.sort(reverse=True)
    return Polynomial(ring, tuple(terms))


# ---------------------------------------------------------------------------
# S-polynomials and reduction


def spoly(p: Polynomial, q: Polynomial) -> Polynomial:
    """lc(q) * (lcm/lt(p)) * p  -  lc(p) * (lcm/lt(q)) * q.

    The heads cancel, so one dict sums the two shifted tails.  ring.lcm
    checks the lcm's degree, which bounds every term under a graded order;
    under lex a tail term can outgrow its head, so each tail's degree is
    checked too, and a product that would not pack raises
    ExponentOverflowError.
    """
    if p.is_zero() or q.is_zero():
        raise ZeroPolynomialError("S-polynomial of a zero polynomial")
    ring = one_ring(p.ring, q.ring)
    (kp, cp), (kq, cq) = p.terms[0], q.terms[0]
    lcm = ring.lcm(kp, kq)
    tp, tq = p.terms[1:], q.terms[1:]
    if not ring._graded:
        kd = ring.key_degree
        for k, tail in ((kp, tp), (kq, tq)):
            if tail:
                ring.check_degree(kd(lcm) - kd(k) + max(kd(t) for t, _ in tail))
    op, oq = lcm - kp, lcm - kq  # the key offsets of lcm/lt(p) and lcm/lt(q)
    acc = {k + op: c * cq for k, c in tp}
    get = acc.get
    for k, c in tq:
        k += oq
        acc[k] = get(k, 0) - c * cp
    P = ring.p
    terms = [(k, r) for k, c in acc.items() if (r := c % P)]
    terms.sort(reverse=True)
    return Polynomial(ring, tuple(terms))


def top_reduce_step(p: Polynomial, g: Polynomial) -> Polynomial:
    """One head cancellation: p - (lc(p)/lc(g)) * (lt(p)/lt(g)) * g."""
    if g.is_zero():
        raise ZeroPolynomialError("top reduction by the zero polynomial")
    ring = p.ring
    kp, kg = p.lt_key(), g.lt_key()
    if not ring.divides(kg, kp):
        raise NotDivisibleError(f"{g.lt()} does not divide {p.lt()}")
    c = ring.field.div(p.lc(), g.lc())
    return p - g.term_mul_key(ring.key_div(kp, kg), c)


def is_top_reducible(m, G) -> bool:
    """True when some nonzero g in G has lt(g) dividing the monomial m."""
    for g in G:
        if g and monomial_divides(g.lt(), m):
            return True
    return False


class ReducerSet:
    """A reduction target with fast divisor lookup.

    Heads are held ascending by key with their exponent words, so one
    guarded subtraction decides each divisibility test; lookups are
    memoized, so reusing one ReducerSet across many reductions against the
    same basis amortizes the divisor search; add grows the set in place
    with its divisor cache, and reduce_tail reduces an element's tail
    against the set in place, the one tail reduction in f5gb.  Ties
    between several dividing heads go to the largest by default (prefer=-1
    selects the smallest instead).  Against a Groebner basis every choice
    yields the same normal form, which is unique, though not the same
    work; against other input the normal form can depend on the choice.
    eliminations counts the eliminations of every fold against the set.
    cofactors, when given, lists one cofactor vector (or None) per element
    of polys over some reference system; zero polynomials are dropped with
    their vectors, and reduce_payload reads the vectors.  A length mismatch
    raises ValueError, as does a polynomial of another ring, here or given
    to reduce_full.
    Under lex a tail can outgrow its head, so a candidate carries its
    tail's degree where that exceeds its head's (0 otherwise, and on graded
    rings), and fold_normal_form checks each such elimination.
    """

    __slots__ = (
        "ring", "polys", "cofactors", "eliminations", "_keys", "_cands", "_cache", "_prefer",
        "_swept",
    )

    def __init__(self, ring: PolynomialRing, polys, prefer: int = 1, cofactors=None):
        self.ring = ring
        polys = list(polys)
        for g in polys:
            one_ring(ring, g.ring)
        if cofactors is not None:
            cofactors = [c for g, c in zip(polys, cofactors, strict=True) if g]
        self.polys = [g for g in polys if g]
        self.cofactors = cofactors
        self.eliminations = 0
        self._prefer = prefer
        order = sorted(range(len(self.polys)), key=lambda i: self.polys[i].lt_key())
        cands = [self._candidate(pos) for pos in order]
        self._keys = [c[0] for c in cands]
        self._cands = cands
        self._cache: dict[int, list | None] = {}
        self._swept: list[int] = []  # the cached keys as of the last add, ascending

    def add(self, g: Polynomial):
        """Append g to polys: every later answer is that of a set built over polys + [g].

        g's candidate goes after any equal heads, where a fresh sort puts
        it, and the cached answers g changes are rewritten: keys g's head
        divides that are cached as irreducible or with a head g's beats
        under prefer (g's is smaller, with prefer=-1; at least as large,
        otherwise).  A divisor's key is never above its multiple's, so only
        cached keys at or above g's head key are read; they are kept
        ascending in _swept, into which each add first merges the keys
        cached since the last one (the cache keeps insertion order and
        never drops a key), so lookups pay nothing for it.  A zero g is
        ignored, one of another ring raises, and so does a set with
        cofactor vectors (ValueError), which carry no vector for g.
        """
        one_ring(self.ring, g.ring)
        if self.cofactors is not None:
            raise ValueError("a ReducerSet with cofactor vectors cannot grow")
        if not g:
            return
        self.polys.append(g)
        cand = self._candidate(len(self.polys) - 1)
        hk, hw = cand[0], cand[1]
        at = bisect.bisect_right(self._keys, hk)
        self._keys.insert(at, hk)
        self._cands.insert(at, cand)
        cache, swept = self._cache, self._swept
        if len(cache) > len(swept):
            swept += islice(reversed(cache), len(cache) - len(swept))
            swept.sort()
        unit, guard = self.ring.unit_key, self.ring.guard
        smallest = self._prefer < 0
        for key in swept[bisect.bisect_left(swept, hk):]:
            if ((key ^ unit | guard) - hw) & guard == guard:
                old = cache[key]
                if old is None or (hk < old[0] if smallest else hk >= old[0]):
                    cache[key] = cand

    def reduce_tail(self, pos: int):
        """Reduce the tail of polys[pos], and its vector if any, against the set.

        The one tail reduction (reduce_payload).  The head stays, so every
        key keeps its answer, and the candidate takes the new tail and tail
        degree in place, where each cached answer that holds it sees them.
        """
        ring, g, vecs = self.ring, self.polys[pos], self.cofactors
        tail, vec = reduce_payload(
            self, Polynomial(ring, g.terms[1:]), None if vecs is None else vecs[pos], None
        )
        g = Polynomial(ring, g.terms[:1] + tail.terms)
        self.polys[pos] = g
        if vecs is not None:
            vecs[pos] = vec
        i = bisect.bisect_left(self._keys, g.terms[0][0])
        while self._cands[i][3] != pos:
            i += 1
        self._cands[i][4:] = self._tail(g)

    def _candidate(self, pos: int) -> list:
        """[head key, head word, 1/lc, position, tail, tail degree] of polys[pos].

        A list, so that reduce_tail can swap the tail where every cached
        answer sees it; the benchmark's counting pass reads the tail at
        index 4.
        """
        ring, g = self.ring, self.polys[pos]
        hk, hc = g.terms[0]
        return [hk, ring.word(hk), ring.field.inv(hc), pos, *self._tail(g)]

    def _tail(self, g: Polynomial) -> tuple:
        """(tail terms, tail degree) of g; the degree is 0 unless a lex tail outgrows the head."""
        ring, tail = self.ring, g.terms[1:]
        tail_deg = 0
        if not ring._graded and tail:
            tail_deg = max(ring.key_degree(k) for k, _ in tail)
            if tail_deg <= ring.key_degree(g.terms[0][0]):
                tail_deg = 0
        return tail, tail_deg

    def find_divisor(self, key: int):
        """Candidate whose head divides the keyed monomial, or None.

        The largest such head, or with prefer=-1 the smallest; the answer is
        memoized per key.
        """
        hit = self._cache.get(key, 0)
        if hit != 0:
            return hit
        g = self.ring.guard
        target = self.ring.word(key) | g
        stop = bisect.bisect_right(self._keys, key)
        found = None
        scan = range(stop - 1, -1, -1) if self._prefer >= 0 else range(stop)
        cands = self._cands
        for i in scan:
            if (target - cands[i][1]) & g == g:
                found = cands[i]
                break
        self._cache[key] = found
        return found

    def is_top_reducible(self, key: int) -> bool:
        return self.find_divisor(key) is not None

    def reduce_full(self, f: Polynomial, stats=None, quotients=None) -> Polynomial:
        """Normal form of f: no remaining monomial is divisible by any head.

        A bare fold of all of f into an empty WorkingPayload (fold_normal_form
        with the unit monomial and factor 1), returned as one sorted
        Polynomial.  Each head elimination counts one reduction step, and
        its reducer's tail terms as term ops, on stats.  When quotients is a list it receives accumulated {key: coeff}
        maps per reducer (aligned with self.polys) describing the subtracted
        multiples.
        """
        payload = WorkingPayload(one_ring(self.ring, f.ring).zero)
        self.fold_normal_form(payload, 0, 1, f.terms, stats, quotients)
        return payload.poly()

    def fold_normal_form(self, payload: WorkingPayload, off: int, mfac: int, terms,
                         stats=None, quotients=None):
        """Add NF(mfac * x^off * sum(terms)) to payload, whose keys are all irreducible.

        The one elimination loop: heap division with delayed reduction
        (Monagan & Pearce, JSC 2011).  payload.coeffs holds the payload's
        coefficients and this call's pending ones alike.  A key already
        there takes its addition; a new key is looked up once, in the
        divisor cache or with find_divisor on a miss, and goes onto this
        call's pending heap if a head divides it, onto payload.fresh if
        not.  Each elimination adds the raw products mfac * tc of a
        reducer's tail, mfac = p - fac, and a pending coefficient is reduced
        mod p once, when its key is popped, which removes the key from
        coeffs (one that sums to 0 there is dropped).  Pending keys are
        popped in descending order, and every key an elimination adds lies
        below the popped one, so a pending key's coefficient is final when
        popped.  Each elimination counts one step on self.eliminations and on
        stats, and the reducer tail terms it adds on stats.term_ops, and adds
        to quotients as reduce_full describes.  The monomial
        enters as off = key - ring.unit_key for its key.  Under lex a tail
        can outgrow its head, so the incoming multiple, and each elimination
        by a candidate with a tail degree, has its degree checked before its
        terms are added: a term that would not pack raises
        ExponentOverflowError.
        """
        ring = self.ring
        p, unit, kd = ring.p, ring.unit_key, ring.key_degree
        # the incoming multiple's tail degree: graded tails stay below their
        # heads, and a multiple by 1 packs, so only the other lex ones check
        tail_deg = 0 if ring._graded or not off else max((kd(k) for k, _ in terms), default=0)
        cache, find = self._cache, self.find_divisor
        coeffs, fresh = payload.coeffs, payload.fresh
        get = coeffs.get
        pending: list[int] = []
        pop, push = _heappop, _heappush
        steps = term_ops = 0
        while True:
            if tail_deg:
                ring.check_degree(kd(off + unit) + tail_deg)
            for tk, tc in terms:
                nk = off + tk
                prev = get(nk)
                if prev is not None:
                    coeffs[nk] = prev + mfac * tc
                    continue
                coeffs[nk] = mfac * tc
                cand = cache.get(nk, 0)
                if cand == 0:
                    cand = find(nk)
                if cand is None:
                    fresh.append(nk)
                else:
                    push(pending, -nk)
            while pending:
                key = -pop(pending)
                c = coeffs.pop(key) % p
                if c:
                    break
            else:
                break
            gk, _, inv_lc, pos, terms, tail_deg = cache[key]
            steps += 1
            term_ops += len(terms)
            fac = (c * inv_lc) % p
            if quotients is not None:
                qk = ring.key_div(key, gk)
                qmap = quotients[pos]
                qmap[qk] = (qmap.get(qk, 0) + fac) % p
            mfac = p - fac
            off = key - gk
        self.eliminations += steps
        if stats is not None:
            stats.reduction_steps += steps
            stats.term_ops += term_ops


class WorkingPayload:
    """A polynomial in flight: raw coefficients by key plus a max-heap of keys.

    ReducerSet.fold_normal_form adds normal forms into a payload: top
    reduction keeps one for a whole chain of steps, and reduce_full builds
    one per call.  Keys a fold adds wait in fresh until head() pushes them
    onto the heap.  A coefficient is reduced mod p when its key is read as
    the head, and the key is dropped there if it sums to 0; until then a
    key that sums to 0 stays in coeffs, and later folds add to it.
    """

    __slots__ = ("ring", "coeffs", "heap", "fresh")

    def __init__(self, poly: Polynomial):
        self.ring = poly.ring
        self.coeffs = dict(poly.terms)
        # the terms descend, so their negated keys ascend: already a heap
        self.heap = [-k for k, _ in poly.terms]
        self.fresh: list[int] = []

    def head(self):
        """(key, coefficient) of the leading term, or None for zero."""
        p, coeffs, heap = self.ring.p, self.coeffs, self.heap
        for key in self.fresh:
            _heappush(heap, -key)
        self.fresh.clear()
        while heap:
            key = -heap[0]
            c = coeffs[key] % p
            if c:
                coeffs[key] = c
                return key, c
            del coeffs[key]
            _heappop(heap)
        return None

    def drop_head(self):
        """Remove the leading term head() read; a top-reduction step cancels it."""
        del self.coeffs[-_heappop(self.heap)]

    def poly(self, scale: int = 1) -> Polynomial:
        """The payload times the field element scale, as one sorted Polynomial."""
        p = self.ring.p
        terms = [(k, r) for k, c in self.coeffs.items() if (r := c * scale % p)]
        terms.sort(reverse=True)
        return Polynomial(self.ring, tuple(terms))


def subtract_quotients(ring: PolynomialRing, cofs, quotients, basis_cofs):
    """cofs - sum_j q_j * basis_cofs[j] for quotient maps q_j ({key: coeff}).

    basis_cofs lists one cofactor vector per quotient map (another length
    raises ValueError).  Each updated cofactor cofs[m] - sum_j q_j *
    basis_cofs[j][m] is one sum_products call over the pairs (-q_j,
    basis_cofs[j][m]) and (cofs[m], 1); cofs None passes through.
    """
    if cofs is None:
        return None
    pairs = [[] for _ in cofs]
    for qmap, bcofs in zip(quotients, basis_cofs, strict=True):
        # a chain that eliminates one key twice may sum its quotient to 0
        terms = sorted(((k, c) for k, c in qmap.items() if c), reverse=True)
        if not terms:
            continue
        neg_q = -Polynomial(ring, tuple(terms))
        for m, c in enumerate(bcofs):
            if c:
                pairs[m].append((neg_q, c))
    out = list(cofs)
    for m, ps in enumerate(pairs):
        if ps:
            ps.append((cofs[m], ring.one))
            out[m] = sum_products(ring, ps)
    return out


def reduce_payload(reducers, poly: Polynomial, cofs, stats):
    """(h, cofs - sum_j q_j * reducers.cofactors[j]) for h = reducers.reduce_full(poly).

    The q_j are the quotients reduce_full records against reducers.polys,
    whose cofactor vectors reducers.cofactors lists in the same order (see
    subtract_quotients); cofs None records none and passes through.
    """
    quotients = None if cofs is None else [dict() for _ in reducers.polys]
    h = reducers.reduce_full(poly, stats=stats, quotients=quotients)
    return h, subtract_quotients(reducers.ring, cofs, quotients, reducers.cofactors)


def normal_form(p: Polynomial, G, stats=None) -> Polynomial:
    """Fully reduce p modulo G, zeros ignored: every monomial ends up irreducible."""
    return ReducerSet(p.ring, G).reduce_full(p, stats=stats)


def reduced_basis(G, cofs, stats=None):
    """Head minimization, then one tail pass against one shared ReducerSet.

    cofs lists one cofactor vector, or None, per element of G (another
    length raises ValueError).  Returns (reducers, dropped): reducers is
    the shared set, whose polys lists the kept elements, monic with
    pairwise indivisible heads and ascending, each with its tail fully
    reduced, and whose cofactors lists their vectors (None for None);
    dropped lists the elements head minimization removed.  The set's
    divisor cache stays valid, so it can serve as a reduction target
    next, where it takes the smallest dividing head (the tail pass takes
    the largest).  For a Groebner basis G, reducers.polys is its reduced basis and
    every dropped element reduces to zero against it; nothing here checks
    that (interreduce reduces them again in a next round,
    interreduce_with_cofactors raises, and drivers.groebner_check answers
    False).  With stats,
    stats.interreduction_steps counts the tail pass's eliminations and
    stats.dropped the removed elements.
    """
    live = sorted(
        ((g, c) for g, c in zip(G, cofs, strict=True) if g), key=lambda t: t[0].lt_key()
    )
    ring = G[0].ring if G else None  # an empty set never reads its ring
    guard = ring.guard if G else 0
    # head minimization: for a Groebner basis, elements whose head another
    # head divides reduce to zero against the rest and can be dropped; a kept
    # element is made monic, and its vector is scaled by the same 1/lc.  Each
    # kept head's exponent word is tested with one guarded subtraction (see
    # PolynomialRing.divides)
    kept, kwords, kcofs, dropped = [], [], [], []
    for g, c in live:
        w = ring.word(g.terms[0][0])
        t = w | guard
        if any((t - kw) & guard == guard for kw in kwords):
            dropped.append(g)
        else:
            inv = ring.field.inv(g.lc())
            kept.append(g.monic())
            kwords.append(w)
            kcofs.append(c if c is None or inv == 1 else [h.scale(inv) for h in c])
    # tail reduction against one shared reducer set: heads are pairwise
    # indivisible, so only tail monomials ever reduce, and any fixpoint with
    # these heads is the canonical reduced basis.  Tails go in ascending
    # head order, and every reducer of a tail has a smaller head, so each
    # reduced tail and vector is in the set before any tail can use it.
    shared = ReducerSet(ring, kept, cofactors=kcofs)
    for i in range(len(kept)):
        shared.reduce_tail(i)
    # against the set, a Groebner basis if G is one, the smallest dividing
    # head does less work than the largest; on the tails it did more
    # (katsura-6 f5r: 936 eliminations against 699).  The divisors cached
    # so far still divide their keys, so they stay.
    shared._prefer = -1
    if stats is not None:
        stats.interreduction_steps += shared.eliminations
        stats.dropped += len(dropped)
    return shared, dropped


def interreduce(G):
    """An interreduced basis of the ideal of G; of a Groebner basis, its reduced basis.

    Every output is monic, no monomial of any element is divisible by the
    head of another, and the result is sorted ascending by head monomial.
    Zero polynomials are dropped.  The nonzero inputs are sorted by their
    terms first, so the result depends only on the multiset of inputs.
    Then reduced_basis runs in rounds: the nonzero normal forms of a
    round's dropped elements against its result join that result in the
    next round, until none is left.  Each such normal form has a head no
    kept head divides, so the ideal of the heads grows every round, and
    Dickson's lemma ends the loop; a Groebner basis takes one round.  For
    other input the result is one interreduced basis of the ideal, not a
    unique one.
    """
    G = sorted((g for g in G if g), key=lambda g: g.terms)
    while True:
        reducers, dropped = reduced_basis(G, [None] * len(G))
        rest = [r for r in map(reducers.reduce_full, dropped) if r]
        if not rest:
            return reducers.polys
        G = reducers.polys + rest


def interreduce_with_cofactors(G, cofs):
    """interreduce, carrying one cofactor vector (or None) per element of G.

    Returns (result, result_cofs): result equals interreduce(G), and where
    cofs[i] writes G[i] over some system, result_cofs[a] writes result[a]
    over it (None where the input vectors are None).  G must be a Groebner
    basis and cofs as long as G: other input raises ValueError.
    """
    reducers, dropped = reduced_basis(G, cofs)
    if any(map(reducers.reduce_full, dropped)):
        raise ValueError("interreduce_with_cofactors needs a Groebner basis")
    return reducers.polys, reducers.cofactors


def homogenize(polys, var: str = "h"):
    """Homogenize with one fresh lowest-precedence variable; returns (ring, polys).

    A polynomial of another ring than the first one's raises ValueError.
    """
    if not polys:
        raise ValueError("nothing to homogenize")
    ring = polys[0].ring
    if var in ring.names:
        base = var
        k = 0
        while var in ring.names:
            k += 1
            var = f"{base}{k}"
    new_ring = PolynomialRing(ring.p, ring.names + (var,), ring.order.kind)
    out = []
    for f in polys:
        one_ring(ring, f.ring)
        if f.is_zero():
            out.append(new_ring.zero)
            continue
        d = max(total_degree(m) for m in f.monomials())
        out.append(
            new_ring.from_terms(
                (m + (d - total_degree(m),), c) for m, c in f.dict().items()
            )
        )
    return new_ring, out
