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

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return -a % self.p

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

    def divmask(self, exps) -> int:
        """Compressed divisibility signature: divisor masks are subsets."""
        m = 0
        shift = 0
        for e in exps:
            if e:
                b = 1
                if e >= 2:
                    b |= 2
                if e >= 4:
                    b |= 4
                if e >= 8:
                    b |= 8
                m |= b << shift
            shift += 4
        return m

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
        packed = sorted(
            ((k, c) for k, c in acc.items() if c), key=lambda t: t[0], reverse=True
        )
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

    def coeff(self, exps) -> int:
        k = self.ring.key(exps)
        for key, c in self.terms:
            if key == k:
                return c
        return 0

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
        return Polynomial(
            self.ring, tuple(sorted(acc.items(), key=lambda t: t[0], reverse=True))
        )

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

    def monomial_mul(self, exps) -> Polynomial:
        return self.term_mul(exps, 1)

    def __mul__(self, other: Polynomial) -> Polynomial:
        ring = self.ring
        if not self.terms or not other.terms:
            return ring.zero
        if not (ring._graded and self.terms[0][0] + other.terms[0][0] < ring._deg_cap):
            ring.check_degree(self.degree() + other.degree())
        p = ring.p
        unit = ring.unit_key
        acc: dict[int, int] = {}
        get = acc.get
        for ka, ca in self.terms:
            off = ka - unit
            for kb, cb in other.terms:
                k = off + kb
                nc = (get(k, 0) + ca * cb) % p
                if nc:
                    acc[k] = nc
                else:
                    acc.pop(k, None)
        return Polynomial(
            ring, tuple(sorted(acc.items(), key=lambda t: t[0], reverse=True))
        )

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


# ---------------------------------------------------------------------------
# S-polynomials and reduction


def spoly(p: Polynomial, q: Polynomial) -> Polynomial:
    """lc(q) * (lcm/lt(p)) * p  -  lc(p) * (lcm/lt(q)) * q."""
    if p.is_zero() or q.is_zero():
        raise ZeroPolynomialError("S-polynomial of a zero polynomial")
    lcm = monomial_lcm(p.lt(), q.lt())
    up = monomial_div(lcm, p.lt())
    uq = monomial_div(lcm, q.lt())
    return p.term_mul(up, q.lc()) - q.term_mul(uq, p.lc())


def top_reduce_step(p: Polynomial, g: Polynomial) -> Polynomial:
    """One head cancellation: p - (lc(p)/lc(g)) * (lt(p)/lt(g)) * g."""
    if g.is_zero():
        raise ZeroPolynomialError("top reduction by the zero polynomial")
    u = monomial_div(p.lt(), g.lt())
    c = p.ring.field.div(p.lc(), g.lc())
    return p - g.term_mul(u, c)


def is_top_reducible(m, G) -> bool:
    """True when some nonzero g in G has lt(g) dividing the monomial m."""
    for g in G:
        if g and monomial_divides(g.lt(), m):
            return True
    return False


class ReducerSet:
    """A fixed reduction target with fast divisor lookup.

    Heads are held ascending by key with divisibility masks for quick
    rejection; lookups are memoized, so reusing one ReducerSet across many
    reductions against the same basis amortizes the divisor search.  Ties
    between several dividing heads go to the largest by default (prefer=-1
    selects the smallest instead); any choice yields the same normal form.
    """

    __slots__ = ("ring", "polys", "_keys", "_cands", "_cache", "_prefer")

    def __init__(self, ring: PolynomialRing, polys, prefer: int = 1):
        self.ring = ring
        self.polys = [g for g in polys if g]
        self._prefer = prefer
        order = sorted(range(len(self.polys)), key=lambda i: self.polys[i].lt_key())
        cands = []
        for pos in order:
            g = self.polys[pos]
            hk, hc = g.terms[0]
            hexps = ring.exps(hk)
            cands.append(
                (
                    hk,
                    ring.divmask(hexps),
                    hexps,
                    ring.field.inv(hc),
                    g.terms[1:],
                    pos,
                )
            )
        self._keys = [c[0] for c in cands]
        self._cands = cands
        self._cache: dict[int, tuple | None] = {}

    def find_divisor(self, key: int):
        """Candidate with the largest head dividing the keyed monomial, or None."""
        hit = self._cache.get(key, 0)
        if hit != 0:
            return hit
        exps = self.ring.exps(key)
        mask = self.ring.divmask(exps)
        stop = bisect.bisect_right(self._keys, key)
        found = None
        scan = range(stop - 1, -1, -1) if self._prefer >= 0 else range(stop)
        for i in scan:
            cand = self._cands[i]
            if cand[1] & ~mask:
                continue
            gexps = cand[2]
            ok = True
            for ge, me in zip(gexps, exps):
                if ge > me:
                    ok = False
                    break
            if ok:
                found = cand
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
        """
        if not f.terms:
            return f
        ring = self.ring
        p = ring.p
        find = self.find_divisor
        work = dict(f.terms)
        heap = sorted(-k for k in work)
        pop, push = _heappop, _heappush
        out = []
        steps = 0
        while heap:
            key = -pop(heap)
            c = work.pop(key, 0)
            if not c:
                continue
            cand = find(key)
            if cand is None:
                out.append((key, c))
                continue
            gk, _, _, inv_lc, tail, pos = cand
            steps += 1
            fac = (c * inv_lc) % p
            if quotients is not None:
                qk = ring.key_div(key, gk)
                qmap = quotients[pos]
                qmap[qk] = (qmap.get(qk, 0) + fac) % p
            off = key - gk
            get = work.get
            for tk, tc in tail:
                nk = off + tk
                prev = get(nk)
                if prev is None:
                    nc = (-fac * tc) % p
                    if nc:
                        work[nk] = nc
                        push(heap, -nk)
                else:
                    nc = (prev - fac * tc) % p
                    if nc:
                        work[nk] = nc
                    else:
                        del work[nk]
        if stats is not None:
            stats.reduction_steps += steps
        return Polynomial(ring, tuple(out))


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


def _reduce_tails(G, with_quotients: bool):
    """Head minimization, then tail reduction against one shared ReducerSet.

    Returns (kept, result, quotients, clean).  kept lists (monic element,
    input position) with pairwise indivisible heads, ascending; result[i] is
    kept[i] with its tail fully reduced; quotients[i] holds that reduction's
    reduce_full quotient maps, aligned with kept (None unless with_quotients).
    clean is False when an element dropped by head minimization does not
    reduce to zero against the result, which means G is no Groebner basis.
    """
    live = sorted(
        ((g.monic(), i) for i, g in enumerate(G) if g), key=lambda t: t[0].lt_key()
    )
    if not live:
        return [], [], [], True
    ring = live[0][0].ring
    # head minimization: for a Groebner basis, elements whose head another
    # head divides reduce to zero against the rest and can be dropped
    kept = []
    dropped = []
    for g, i in live:
        if any(monomial_divides(h.lt(), g.lt()) for h, _ in kept):
            dropped.append(g)
        else:
            kept.append((g, i))
    # tail reduction against one shared reducer set: heads are pairwise
    # indivisible, so only tail monomials ever reduce, and any fixpoint with
    # these heads is the canonical reduced basis
    shared = ReducerSet(ring, [g for g, _ in kept])
    result = []
    quotients = []
    for g, _ in kept:
        q = [dict() for _ in kept] if with_quotients else None
        reduced_tail = shared.reduce_full(Polynomial(ring, g.terms[1:]), quotients=q)
        result.append(Polynomial(ring, g.terms[:1] + reduced_tail.terms))
        quotients.append(q)
    clean = True
    if dropped:
        verifier = ReducerSet(ring, result)
        clean = not any(verifier.reduce_full(d) for d in dropped)
    return kept, result, quotients, clean


def interreduce(G):
    """The unique reduced basis of a Groebner basis G.

    Every output is monic, no monomial of any element is divisible by the
    head of another, and the result is sorted ascending by head monomial.
    Zero polynomials are dropped.  Uniqueness holds when G is a Groebner
    basis of its ideal (the caller's obligation); other input falls back to
    a fixpoint interreduction.
    """
    _, result, _, clean = _reduce_tails(G, with_quotients=False)
    return result if clean else _autoreduce(G)


def interreduce_with_cofactors(G):
    """interreduce plus, per output, a {input position: Polynomial} combination.

    Each output equals sum(cof[i] * G[i]); used by certified-mode runs to
    carry module representations through the interreduction.  G must be a
    Groebner basis: other input raises ValueError.
    """
    kept, result, quotients, clean = _reduce_tails(G, with_quotients=True)
    if not clean:
        raise ValueError("interreduce_with_cofactors needs a Groebner basis")
    # kept[j] = G[i_j] / lc(G[i_j]), and output a = kept[a] - sum_j q_aj * kept[j]
    invs = [g.ring.field.inv(G[i].lc()) for g, i in kept]
    combos = []
    for (g, i), inv, qmaps in zip(kept, invs, quotients):
        combo = {i: g.ring.constant(inv)}
        for (_, j), inv_j, qmap in zip(kept, invs, qmaps):
            if qmap:
                q = Polynomial(g.ring, tuple(sorted(qmap.items(), reverse=True)))
                combo[j] = q.scale(-inv_j)
        combos.append(combo)
    return result, combos


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
