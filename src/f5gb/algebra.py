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
from math import isqrt

ORDER_KINDS = ("grevlex", "lex", "deglex")

_FIELD_BITS = 16            # bits per exponent field in packed keys
_FIELD_MAX = (1 << 15) - 1  # largest exponent, and largest total degree, a key holds
_MAX_EXPONENT = 1 << 14     # hard guard, far beyond any feasible computation


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


class PolynomialRing:
    """F_p[x_1, ..., x_n] with a fixed admissible order.

    Variable precedence follows declaration order: names[0] is the largest
    variable.  The ring owns the packed-key encoding used by Polynomial.
    """

    def __init__(self, char: int, names, order: str | TermOrder = "grevlex"):
        names = tuple(names)
        if not names:
            raise ValueError("a polynomial ring needs at least one variable")
        seen = set()
        for name in names:
            if not name or not (name[0].isalpha()) or not all(
                c.isalnum() or c == "_" for c in name
            ):
                raise ValueError(f"bad variable name: {name!r}")
            if name in seen:
                raise ValueError(f"duplicate variable name: {name!r}")
            seen.add(name)
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
        """Key of the least common multiple of the monomials keyed ka and kb.

        On the exponent words with the degree field masked off, the guard
        marks each field where e_i(a) >= e_i(b) (see divides); the marks
        widen to field masks that select the larger exponent.  One multiply
        by sum(1 << W*i) sums the fields into the top one: every partial sum
        is at most deg(a) + deg(b) < 2**16, so no field carries.  Raises
        ExponentOverflowError when the lcm's total degree does not pack.
        """
        W, g, shift = _FIELD_BITS, self.guard, self._deg_shift
        low = (1 << shift) - 1
        fmask = (1 << W) - 1
        wa = self.word(ka) & low
        wb = self.word(kb) & low
        m = ((((wa | g) - wb) & g) >> (W - 1)) * fmask
        w = wb ^ ((wa ^ wb) & m)
        d = (w * self._ones >> (shift - W)) & fmask
        self.check_degree(d)
        if self._graded:
            w |= d << shift
        return w ^ self.unit_key

    # -- polynomial construction ------------------------------------------

    def from_terms(self, terms) -> Polynomial:
        """Build a polynomial from (exponent tuple, coefficient) pairs.

        Coefficients are reduced mod p, duplicate monomials merged, zero
        terms dropped, and the result sorted descending.
        """
        acc: dict[int, int] = {}
        for exps, c in terms:
            if any(e < 0 or e >= _MAX_EXPONENT for e in exps):
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
        p = self.ring.p
        acc = dict(self.terms)
        get = acc.get
        for k, c in other.terms:
            nc = (get(k, 0) + sign * c) % p
            if nc:
                acc[k] = nc
            else:
                acc.pop(k, None)
        # keys are unique, so the tuples sort by key alone
        return Polynomial(self.ring, tuple(sorted(acc.items(), reverse=True)))

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
    stripped of zeros and sorted once at the end.  Each nonzero pair passes
    the packed-degree guard first, so a product whose total degree would not
    pack raises ExponentOverflowError even if its terms cancel in the sum.
    """
    unit = ring.unit_key
    acc: dict[int, int] = {}
    get = acc.get
    for a, b in pairs:
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
    """lc(q) * (lcm/lt(p)) * p  -  lc(p) * (lcm/lt(q)) * q."""
    if p.is_zero() or q.is_zero():
        raise ZeroPolynomialError("S-polynomial of a zero polynomial")
    ring = p.ring
    kp, kq = p.lt_key(), q.lt_key()
    lcm = ring.lcm(kp, kq)
    up, uq = ring.key_div(lcm, kp), ring.key_div(lcm, kq)
    return p.term_mul_key(up, q.lc()) - q.term_mul_key(uq, p.lc())


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
    """A fixed reduction target with fast divisor lookup.

    Heads are held ascending by key with their exponent words, so one
    guarded subtraction decides each divisibility test; lookups are
    memoized, so reusing one ReducerSet across many reductions against the
    same basis amortizes the divisor search.  Ties between several dividing
    heads go to the largest by default (prefer=-1 selects the smallest
    instead); any choice yields the same normal form.  eliminations counts
    the eliminations of every fold against the set.
    """

    __slots__ = ("ring", "polys", "eliminations", "_keys", "_cands", "_cache", "_prefer")

    def __init__(self, ring: PolynomialRing, polys, prefer: int = 1):
        self.ring = ring
        self.polys = [g for g in polys if g]
        self.eliminations = 0
        self._prefer = prefer
        order = sorted(range(len(self.polys)), key=lambda i: self.polys[i].lt_key())
        cands = []
        for pos in order:
            g = self.polys[pos]
            hk, hc = g.terms[0]
            # (head key, head word, 1/lc, position, tail); the benchmark's
            # counting pass reads the tail at index 4
            cands.append((hk, ring.word(hk), ring.field.inv(hc), pos, g.terms[1:]))
        self._keys = [c[0] for c in cands]
        self._cands = cands
        self._cache: dict[int, tuple | None] = {}

    def find_divisor(self, key: int):
        """Candidate with the largest head dividing the keyed monomial, or None."""
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

        Each head elimination counts one reduction step on stats.  When
        quotients is a list it receives accumulated {key: coeff} maps per
        reducer (aligned with self.polys) describing the subtracted multiples.

        The terms of f are looked up in order until the first one with a
        divisor, and f itself is returned when no term reduces.  Otherwise
        the irreducible prefix seeds a WorkingPayload, the rest of f is
        folded into it (fold_normal_form with the unit monomial and factor
        1), and the payload is returned as one sorted Polynomial.
        """
        terms = f.terms
        find = self.find_divisor
        for i, (key, _) in enumerate(terms):
            if find(key) is not None:
                break
        else:
            return f
        payload = WorkingPayload(Polynomial(self.ring, terms[:i]))
        self.fold_normal_form(payload, 0, 1, terms[i:], stats, quotients)
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
        stats, and adds to quotients as reduce_full describes.  The monomial
        enters as off = key - ring.unit_key for its key.
        """
        p = self.ring.p
        cache, find = self._cache, self.find_divisor
        coeffs, fresh = payload.coeffs, payload.fresh
        get = coeffs.get
        pending: list[int] = []
        pop, push = _heappop, _heappush
        steps = 0
        while True:
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
            gk, _, inv_lc, pos, terms = cache[key]
            steps += 1
            fac = (c * inv_lc) % p
            if quotients is not None:
                qk = self.ring.key_div(key, gk)
                qmap = quotients[pos]
                qmap[qk] = (qmap.get(qk, 0) + fac) % p
            mfac = p - fac
            off = key - gk
        self.eliminations += steps
        if stats is not None:
            stats.reduction_steps += steps


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


def reduce_payload(reducers, poly: Polynomial, cofs, basis_cofs, stats):
    """(h, cofs - sum_j q_j * basis_cofs[j]) for h = reducers.reduce_full(poly).

    The q_j are the quotients reduce_full records against reducers.polys,
    whose cofactor vectors basis_cofs lists in the same order (see
    subtract_quotients); cofs None passes through.
    """
    if cofs is None:
        return reducers.reduce_full(poly, stats=stats), None
    quotients = [dict() for _ in reducers.polys]
    h = reducers.reduce_full(poly, stats=stats, quotients=quotients)
    return h, subtract_quotients(reducers.ring, cofs, quotients, basis_cofs)


def normal_form(p: Polynomial, G, stats=None) -> Polynomial:
    """Fully reduce p modulo G: head and tail monomials all end up irreducible."""
    live = [g for g in G if g]
    if not live or p.is_zero():
        return p
    return ReducerSet(p.ring, live).reduce_full(p, stats=stats)


def _autoreduce(G):
    """Fixpoint interreduction: interreduce's fallback for non-Groebner input."""
    live = [g.monic() for g in G if g]
    changed = True
    while changed:
        changed = False
        live.sort(key=lambda g: g.lt_key())
        pos = 0
        while pos < len(live):
            g = live[pos]
            r = normal_form(g, live[:pos] + live[pos + 1:])
            if r == g:
                pos += 1
                continue
            changed = True
            if r.is_zero():
                live.pop(pos)
            else:
                live[pos] = r.monic()
                pos += 1
    live.sort(key=lambda g: g.lt_key())
    return live


def reduced_basis(G, cofs, stats=None):
    """Head minimization, then one tail pass against one shared ReducerSet.

    cofs lists one cofactor vector, or None, per element of G (another
    length raises ValueError).  Returns (result, result_cofs, dropped):
    result lists the kept elements, monic with pairwise indivisible heads
    and ascending, each with its tail fully reduced, result_cofs their
    cofactor vectors (None for None), and dropped the elements head
    minimization removed.  For a Groebner basis G, result is its reduced
    basis and every dropped element reduces to zero against it; nothing
    here checks that (interreduce and interreduce_with_cofactors do).  With
    stats, stats.interreduction_steps counts the tail pass's eliminations
    and stats.dropped the removed elements.
    """
    live = sorted(
        ((g, c) for g, c in zip(G, cofs, strict=True) if g), key=lambda t: t[0].lt_key()
    )
    if not live:
        return [], [], []
    ring = live[0][0].ring
    # head minimization: for a Groebner basis, elements whose head another
    # head divides reduce to zero against the rest and can be dropped; a kept
    # element is made monic, and its vector is scaled by the same 1/lc
    kept = []
    kcofs = []
    dropped = []
    for g, c in live:
        if any(ring.divides(h.lt_key(), g.lt_key()) for h in kept):
            dropped.append(g)
        else:
            inv = ring.field.inv(g.lc())
            kept.append(g.monic())
            kcofs.append(c if c is None or inv == 1 else [h.scale(inv) for h in c])
    # tail reduction against one shared reducer set: heads are pairwise
    # indivisible, so only tail monomials ever reduce, and any fixpoint with
    # these heads is the canonical reduced basis.  Tails go in ascending
    # head order, and every reducer of a tail has a smaller head, so each
    # element's reduced tail and vector replace its candidate's (kept
    # ascends, so candidate i is kept[i]) before any tail can use them; a
    # cached lookup that returns candidate i is made while reducing a later
    # element, after the replacement, so the divisor cache stays valid.
    shared = ReducerSet(ring, kept)
    cands = shared._cands
    result = []
    for i, g in enumerate(kept):
        tail, kcofs[i] = reduce_payload(
            shared, Polynomial(ring, g.terms[1:]), kcofs[i], kcofs, None
        )
        cands[i] = cands[i][:4] + (tail.terms,)
        result.append(Polynomial(ring, g.terms[:1] + tail.terms))
    if stats is not None:
        stats.interreduction_steps += shared.eliminations
        stats.dropped += len(dropped)
    return result, kcofs, dropped


def _reduce_to_zero(polys, G) -> bool:
    """True when every polynomial in polys reduces to zero against G."""
    if not polys:
        return True
    reducers = ReducerSet(polys[0].ring, G)
    return not any(reducers.reduce_full(f) for f in polys)


def interreduce(G):
    """The unique reduced basis of a Groebner basis G.

    Every output is monic, no monomial of any element is divisible by the
    head of another, and the result is sorted ascending by head monomial.
    Zero polynomials are dropped.  Uniqueness holds when G is a Groebner
    basis of its ideal (the caller's obligation); input whose dropped
    elements do not reduce to zero against reduced_basis's result falls
    back to a fixpoint interreduction.
    """
    result, _, dropped = reduced_basis(G, [None] * len(G))
    return result if _reduce_to_zero(dropped, result) else _autoreduce(G)


def interreduce_with_cofactors(G, cofs):
    """interreduce, carrying one cofactor vector (or None) per element of G.

    Returns (result, result_cofs): result equals interreduce(G), and where
    cofs[i] writes G[i] over some system, result_cofs[a] writes result[a]
    over it (None where the input vectors are None).  G must be a Groebner
    basis and cofs as long as G: other input raises ValueError.
    """
    result, result_cofs, dropped = reduced_basis(G, cofs)
    if not _reduce_to_zero(dropped, result):
        raise ValueError("interreduce_with_cofactors needs a Groebner basis")
    return result, result_cofs


def homogenize(polys, var: str = "h"):
    """Homogenize with one fresh lowest-precedence variable; returns (ring, polys)."""
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
