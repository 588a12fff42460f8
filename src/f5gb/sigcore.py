"""Signatures, the labeled-polynomial store, and rewrite-rule bookkeeping.

A signature (mu, nu) records module-level provenance: the labeled polynomial
has a representation over the run's input system whose nu-th cofactor has
head monomial mu and whose later cofactors vanish.  Signatures never change
once a store entry is created; only the polynomial payload may be replaced
during reduction.
"""

from __future__ import annotations

from .algebra import Polynomial, PolynomialRing, sum_products


class StoreCapExceeded(RuntimeError):
    """The labeled-polynomial store outgrew the configured safety cap."""


class AdmissibilityError(AssertionError):
    """A certified-mode store entry failed its admissibility check."""


class Signature:
    """(monomial, index) with index >= 1; ordered by index, then monomial.

    The public view of a packed signature: the store, the rule table and the
    engine hold only the int packed = index << ring.sig_shift | key, whose
    integer order is this order (see PolynomialRing.sig_shift).
    """

    __slots__ = ("ring", "key", "index", "packed")

    def __init__(self, ring: PolynomialRing, monomial, index: int):
        if index < 1:
            raise ValueError("signature index must be >= 1")
        self.ring = ring
        self.key = monomial if isinstance(monomial, int) else ring.key(monomial)
        self.index = index
        self.packed = index << ring.sig_shift | self.key

    @classmethod
    def unpack(cls, ring: PolynomialRing, packed: int) -> Signature:
        return cls(ring, packed & ring.sig_mask, packed >> ring.sig_shift)

    @property
    def monomial(self):
        return self.ring.exps(self.key)

    def mul(self, monomial) -> Signature:
        """Natural signature of the product: (u * mu, nu)."""
        ring = self.ring
        u = ring.key(monomial)
        ring.check_degree(ring.key_degree(u) + ring.key_degree(self.key))
        return Signature.unpack(ring, ring.key_mul(u, self.packed))

    def __eq__(self, other):
        return isinstance(other, Signature) and self.packed == other.packed

    def __hash__(self):
        return hash(self.packed)

    def __repr__(self):
        mono = self.ring.render_monomial(self.monomial) or "1"
        return f"({mono})e{self.index}"


def sig_cmp(a, b) -> int:
    """-1 | 0 | 1 as a is below, equal to, or above b."""
    return (a.packed > b.packed) - (a.packed < b.packed)


def sig_mul(u, s: Signature) -> Signature:
    """Multiply a signature by a monomial."""
    return s.mul(u)


def admissible_check(entry, system) -> bool:
    """Verify a labeled polynomial's signature against the reference system.

    True iff there is one cofactor per system element, the cofactors h
    vanish above the signature index nu, lt(h_nu) equals the signature
    monomial, and sum(h_l * system_l) == poly exactly (one sum_products
    call, compared term by term).  Requires certified mode (cofactors
    present).
    """
    if entry.cofactors is None:
        raise ValueError("admissible_check needs cofactor tracking (certified mode)")
    ring = entry.poly.ring
    cof = entry.cofactors
    if len(cof) != len(system):
        return False
    nu = entry.sig >> ring.sig_shift
    for lam in range(nu, len(cof)):
        if not cof[lam].is_zero():
            return False
    h_nu = cof[nu - 1]
    if h_nu.is_zero() or nu << ring.sig_shift | h_nu.lt_key() != entry.sig:
        return False
    return sum_products(ring, zip(cof, system)) == entry.poly


# -- cofactor arithmetic -----------------------------------------------------
# In certified mode every payload carries a cofactor vector over the store's
# reference system; in plain mode it carries None.  The engine and the drivers
# update cofactor vectors only through these helpers and
# algebra.subtract_quotients (which reduce_payload calls), which all pass
# None through, so the engine and F5R's interreduction run the same
# statements in both modes.


def cofactors_sub(ring, a, b, tb_key, tb_c, ta_key=None, ta_c=1):
    """ta*a - tb*b for terms t = c*x^key (ta is 1 without ta_key)."""
    if a is None:
        return None
    ta = ring.one if ta_key is None else Polynomial(ring, ((ta_key, ta_c),))
    neg_tb = Polynomial(ring, ((tb_key, -tb_c % ring.p),))
    return [sum_products(ring, ((ta, x), (neg_tb, y))) for x, y in zip(a, b)]


def cofactors_scale(a, c: int):
    """c*a for a field constant c."""
    if a is None:
        return None
    return [h.scale(c) for h in a]


class LabeledPolynomial:
    """One store entry: a fixed packed signature plus a mutable polynomial payload."""

    __slots__ = ("sig", "poly", "cofactors")

    def __init__(self, sig: int, poly: Polynomial, cofactors=None):
        self.sig = sig
        self.poly = poly
        self.cofactors = cofactors

    def __repr__(self):
        return f"LabeledPolynomial({Signature.unpack(self.poly.ring, self.sig)!r}, {self.poly!r})"


class PolyStore:
    """Append-only, 1-indexed store of labeled polynomials.

    Index 0 is reserved for the phantom polynomial that rebuilt rewrite rules
    may point at.  The reference system lists the inputs e_1, e_2, ... added
    so far.  In certified mode every append and payload replacement is
    checked for admissibility against it.

    Three lists run parallel to entries, so the engine's scans compare plain
    ints and touch no entry: sigs[k] is entry k's packed signature, and
    heads[k] and words[k] are the key and word of its payload's head (None
    for zero).  append and set_poly keep them in step; sigs[k] never changes
    and is the pin check_signatures_frozen compares entries[k].sig with.
    """

    def __init__(self, ring: PolynomialRing, cap: int = 1_000_000, certified: bool = False):
        self.ring = ring
        self.cap = cap
        self.certified = certified
        self.reset()

    @property
    def size(self) -> int:
        return len(self.entries) - 1

    def entry(self, k: int) -> LabeledPolynomial:
        e = self.entries[k]
        if e is None:
            raise IndexError(f"store has no entry {k}")
        return e

    def poly(self, k: int) -> Polynomial:
        return self.entry(k).poly

    def sig(self, k: int) -> Signature:
        return Signature.unpack(self.ring, self.entry(k).sig)

    def append(self, sig: int, poly: Polynomial, cofactors=None) -> int:
        if self.size >= self.cap:
            raise StoreCapExceeded(f"store grew past the cap of {self.cap} entries")
        self.entries.append(LabeledPolynomial(sig, poly, cofactors))
        self.sigs.append(sig)
        self.heads.append(None)
        self.words.append(None)
        self.set_poly(self.size, poly, cofactors)
        return self.size

    def set_poly(self, k: int, poly: Polynomial, cofactors=None):
        """Replace the payload of entry k and its cofactors; its signature is immutable."""
        entry = self.entry(k)
        entry.poly = poly
        entry.cofactors = cofactors
        self.heads[k] = head = poly.terms[0][0] if poly.terms else None
        self.words[k] = None if head is None else self.ring.word(head)
        if self.certified:
            self._certify(k)

    def add_input(self, poly: Polynomial) -> int:
        """Add poly as the next input e_nu: entry (1, e_nu); returns its index.

        In certified mode every entry's cofactor vector grows by a zero for
        e_nu, and the new entry gets the unit vector.
        """
        ring = self.ring
        self.reference_system.append(poly)
        nu = len(self.reference_system)
        cof = None
        if self.certified:
            for e in self.entries[1:]:
                e.cofactors = e.cofactors + [ring.zero]
            cof = [ring.zero] * (nu - 1) + [ring.one]
        return self.append(nu << ring.sig_shift | ring.unit_key, poly, cof)

    def reset(self) -> None:
        """Empty the store and its reference system (reduced-basis rebuild)."""
        self.entries, self.sigs, self.heads, self.words = [None], [None], [None], [None]
        self.reference_system: list[Polynomial] = []

    def check_signatures_frozen(self) -> bool:
        """Every entry still carries the signature it was created with."""
        return all(e is None or e.sig == s for e, s in zip(self.entries, self.sigs))

    def _certify(self, k: int):
        entry = self.entry(k)
        if entry.cofactors is None:
            raise AdmissibilityError(f"certified store entry {k} carries no cofactors")
        if not admissible_check(entry, self.reference_system):
            raise AdmissibilityError(f"store entry {k} is not admissible: sig={self.sig(k)!r}")


class RuleTable:
    """Per-index, append-only lists of (signature word, store index).

    Within each index list the nonzero store indices are strictly increasing;
    index 0 entries point at the phantom polynomial.  Rules take packed
    signatures and keep the exponent word ring.word(sig) of each, so one
    guarded subtraction decides whether a rule's monomial divides a query's.
    """

    def __init__(self, ring: PolynomialRing):
        self.ring = ring
        self._lists: list[list] = [None]  # 1-indexed by signature index

    def ensure_index(self, nu: int):
        while len(self._lists) <= nu:
            self._lists.append([])

    def reset(self, count: int):
        self._lists = [None] + [[] for _ in range(count)]

    def rules_for(self, nu: int):
        """Entries of Rules_nu as (monomial exponents, store index) pairs."""
        self.ensure_index(nu)
        ring = self.ring
        return [(ring.exps(ring.word(w)), j) for w, j in self._lists[nu]]

    def index_count(self) -> int:
        return len(self._lists) - 1

    def add_rule(self, sig: int, k: int):
        """Append (sig monomial, k) to the rules of sig's index; k = 0 is the phantom."""
        nu = sig >> self.ring.sig_shift
        self.ensure_index(nu)
        rules = self._lists[nu]
        if k and k <= (last := next((j for _, j in reversed(rules) if j), 0)):
            raise ValueError(f"rule store-indices must increase: {k} after {last}")
        rules.append((self.ring.word(sig), k))

    def find_rewriting(self, u: int, sig: int, k: int) -> int:
        """Latest rule of sig's index whose monomial divides u*mu (u a key), else k.

        Query and rule words carry index bits above the exponent fields;
        borrows run only upward, so the guard bits decide as on bare keys.
        """
        ring = self.ring
        nu = sig >> ring.sig_shift
        self.ensure_index(nu)
        g = ring.guard
        target = ring.word(ring.key_mul(u, sig)) | g
        for word, j in reversed(self._lists[nu]):
            if (target - word) & g == g:
                return j
        return k

    def is_rewritable(self, u: int, sig: int, k: int) -> bool:
        """True iff some later-recorded rule rewrites u * sig(k)."""
        j = self.find_rewriting(u, sig, k)
        if j and j < k:
            raise ValueError(
                f"rewriter {j} predates the entry {k} it rewrites: {(j, k)}"
            )
        return j != k
