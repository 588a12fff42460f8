"""Signatures, the labeled-polynomial store, and rewrite-rule bookkeeping.

A signature (mu, nu) records module-level provenance: the labeled polynomial
has a representation over the run's input system whose nu-th cofactor has
head monomial mu and whose later cofactors vanish.  Signatures never change
once a store entry is created; only the polynomial payload may be replaced
during reduction.
"""

from __future__ import annotations

from .algebra import Polynomial, PolynomialRing


class StoreCapExceeded(RuntimeError):
    """The labeled-polynomial store outgrew the configured safety cap."""


class AdmissibilityError(AssertionError):
    """A certified-mode store entry failed its admissibility check."""


class _ZeroSignature:
    """The distinguished signature of the zero module element.

    Compares below every proper signature.  Housed for completeness; no
    operation in this package produces it.
    """

    __slots__ = ()
    sort_key = (0, -1)

    def __repr__(self):
        return "Signature.ZERO"

    def __reduce__(self):
        return (_zero_signature, ())


def _zero_signature():
    return ZERO_SIGNATURE


ZERO_SIGNATURE = _ZeroSignature()


class Signature:
    """(monomial, index) with index >= 1; ordered by index, then monomial."""

    __slots__ = ("ring", "key", "index", "sort_key")

    ZERO = ZERO_SIGNATURE

    def __init__(self, ring: PolynomialRing, monomial, index: int):
        if index < 1:
            raise ValueError("signature index must be >= 1")
        self.ring = ring
        self.key = monomial if isinstance(monomial, int) else ring.key(monomial)
        self.index = index
        self.sort_key = (index, self.key)

    @property
    def monomial(self):
        return self.ring.exps(self.key)

    def mul(self, monomial) -> Signature:
        """Natural signature of the product: (u * mu, nu)."""
        ring = self.ring
        ukey = monomial if isinstance(monomial, int) else ring.key(monomial)
        ring.check_degree(ring.key_degree(ukey) + ring.key_degree(self.key))
        return Signature(ring, ring.key_mul(ukey, self.key), self.index)

    def __eq__(self, other):
        if other is ZERO_SIGNATURE:
            return False
        return (
            isinstance(other, Signature)
            and self.index == other.index
            and self.key == other.key
        )

    def __hash__(self):
        return hash(self.sort_key)

    def __repr__(self):
        mono = self.ring.render_monomial(self.monomial) or "1"
        return f"({mono})e{self.index}"


def sig_cmp(a, b) -> int:
    """-1 | 0 | 1; the zero signature sits below everything else."""
    ka = a.sort_key
    kb = b.sort_key
    if ka < kb:
        return -1
    if ka > kb:
        return 1
    return 0


def sig_mul(u, s: Signature) -> Signature:
    """Multiply a proper signature by a monomial; rejects the zero signature."""
    if s is ZERO_SIGNATURE:
        raise ValueError("cannot multiply the zero signature")
    return s.mul(u)


def admissible_check(entry, system) -> bool:
    """Verify a labeled polynomial's signature against the reference system.

    True iff the recorded cofactors h satisfy sum(h_l * system_l) == poly,
    vanish above the signature index, and lt(h_nu) equals the signature
    monomial.  Requires certified mode (cofactors present).
    """
    if entry.cofactors is None:
        raise ValueError("admissible_check needs cofactor tracking (certified mode)")
    sig = entry.sig
    cof = entry.cofactors
    if len(cof) != len(system):
        return False
    nu = sig.index
    for lam in range(nu, len(cof)):
        if not cof[lam].is_zero():
            return False
    h_nu = cof[nu - 1]
    if h_nu.is_zero() or h_nu.lt_key() != sig.key:
        return False
    ring = h_nu.ring
    total = ring.zero
    for h, f in zip(cof, system):
        if h:
            total = total + h * f
    return total == entry.poly


# -- cofactor arithmetic -----------------------------------------------------
# In certified mode every payload carries a cofactor vector over the store's
# reference system; in plain mode it carries None.  The engine and the drivers
# update cofactor vectors only through these helpers, which pass None through,
# so the engine runs the same statements in both modes.


def cofactors_sub(ring, a, b, tb_key, tb_c, ta_key=None, ta_c=1):
    """ta*a - tb*b for terms t = c*x^key (ta is 1 without ta_key)."""
    if a is None:
        return None
    tb = Polynomial(ring, ((tb_key, tb_c),))
    if ta_key is None:
        return [x - tb * y for x, y in zip(a, b)]
    ta = Polynomial(ring, ((ta_key, ta_c),))
    return [ta * x - tb * y for x, y in zip(a, b)]


def cofactors_scale(a, c: int):
    """c*a for a field constant c."""
    if a is None:
        return None
    return [h.scale(c) for h in a]


def reduce_payload(reducers, poly: Polynomial, cofs, basis_cofs, stats):
    """(h, cofs - sum_j q_j * basis_cofs[j]) for h = reducers.reduce_full(poly).

    The q_j are the quotients reduce_full records against reducers.polys,
    whose cofactor vectors basis_cofs lists in the same order.
    """
    if cofs is None:
        return reducers.reduce_full(poly, stats=stats), None
    ring = reducers.ring
    quotients = [dict() for _ in reducers.polys]
    h = reducers.reduce_full(poly, stats=stats, quotients=quotients)
    out = list(cofs)
    for qmap, bcofs in zip(quotients, basis_cofs):
        if not qmap:
            continue
        q = Polynomial(ring, tuple(sorted(qmap.items(), reverse=True)))
        for m, c in enumerate(bcofs):
            if c:
                out[m] = out[m] - q * c
    return h, out


def compose_cofactors(ring, combo, cofs):
    """sum_j combo[j] * cofs[j] for a {position: Polynomial} combination."""
    out = [ring.zero] * len(cofs[0])
    for j, q in combo.items():
        for m, c in enumerate(cofs[j]):
            if c:
                out[m] = out[m] + q * c
    return out


class LabeledPolynomial:
    """One store entry: a fixed signature plus a mutable polynomial payload."""

    __slots__ = ("sig", "poly", "cofactors", "head_key", "head_exps", "head_mask")

    def __init__(self, sig: Signature, poly: Polynomial, cofactors=None):
        self.sig = sig
        self.cofactors = cofactors
        self._set_poly(poly)

    def _set_poly(self, poly: Polynomial):
        self.poly = poly
        if poly.terms:
            ring = poly.ring
            self.head_key = poly.terms[0][0]
            self.head_exps = ring.exps(self.head_key)
            self.head_mask = ring.divmask(self.head_exps)
        else:
            self.head_key = None
            self.head_exps = None
            self.head_mask = None

    def __repr__(self):
        return f"LabeledPolynomial({self.sig!r}, {self.poly!r})"


class PolyStore:
    """Append-only, 1-indexed store of labeled polynomials.

    Index 0 is reserved for the phantom polynomial that rebuilt rewrite rules
    may point at.  The reference system lists the inputs e_1, e_2, ... added
    so far.  In certified mode every append and payload replacement is
    checked for admissibility against it, and the original signature object
    is pinned so mutation attempts surface.
    """

    def __init__(self, ring: PolynomialRing, cap: int = 1_000_000, certified: bool = False):
        self.ring = ring
        self.cap = cap
        self.certified = certified
        self.reference_system: list[Polynomial] = []
        self._entries: list[LabeledPolynomial | None] = [None]
        self._pinned_sigs: list = [None]

    def __len__(self):
        return len(self._entries) - 1

    @property
    def size(self) -> int:
        return len(self._entries) - 1

    def entry(self, k: int) -> LabeledPolynomial:
        e = self._entries[k]
        if e is None:
            raise IndexError(f"store has no entry {k}")
        return e

    def poly(self, k: int) -> Polynomial:
        return self.entry(k).poly

    def sig(self, k: int) -> Signature:
        return self.entry(k).sig

    def entries(self):
        return self._entries[1:]

    def append(self, sig: Signature, poly: Polynomial, cofactors=None) -> int:
        if self.size >= self.cap:
            raise StoreCapExceeded(f"store grew past the cap of {self.cap} entries")
        entry = LabeledPolynomial(sig, poly, cofactors)
        self._entries.append(entry)
        self._pinned_sigs.append(sig)
        if self.certified:
            self._certify(self.size)
        return self.size

    def set_poly(self, k: int, poly: Polynomial, cofactors=None):
        """Replace the payload of entry k and its cofactors; its signature is immutable."""
        entry = self.entry(k)
        entry._set_poly(poly)
        entry.cofactors = cofactors
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
            for e in self.entries():
                e.cofactors = e.cofactors + [ring.zero]
            cof = [ring.zero] * (nu - 1) + [ring.one]
        return self.append(Signature(ring, ring.unit_key, nu), poly, cof)

    def reset(self) -> None:
        """Empty the store and its reference system (reduced-basis rebuild)."""
        self._entries = [None]
        self._pinned_sigs = [None]
        self.reference_system = []

    def check_signatures_frozen(self) -> bool:
        """Every entry still carries the signature object it was created with."""
        return all(
            e is None or e.sig is s
            for e, s in zip(self._entries, self._pinned_sigs)
        )

    def _certify(self, k: int):
        entry = self.entry(k)
        if entry.cofactors is None:
            raise AdmissibilityError(
                f"certified store entry {k} carries no cofactors"
            )
        if not admissible_check(entry, self.reference_system):
            raise AdmissibilityError(
                f"store entry {k} is not admissible: sig={entry.sig!r}"
            )


class RuleTable:
    """Per-index, append-only lists of (signature monomial, store index).

    Within each index list the nonzero store indices are strictly increasing;
    index 0 entries point at the phantom polynomial.
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
        return [(ring.exps(mk), j) for mk, _, _, j in self._lists[nu]]

    def index_count(self) -> int:
        return len(self._lists) - 1

    def add_rule(self, sig: Signature, k: int):
        """Append (sig monomial, k) to Rules_{sig.index}; k = 0 is the phantom."""
        if sig is ZERO_SIGNATURE:
            raise ValueError("cannot record a rule for the zero signature")
        self.ensure_index(sig.index)
        rules = self._lists[sig.index]
        if k:
            for _, _, _, j in reversed(rules):
                if j:
                    if k <= j:
                        raise ValueError(
                            f"rule store-indices must increase: {k} after {j}"
                        )
                    break
        ring = self.ring
        exps = ring.exps(sig.key)
        rules.append((sig.key, exps, ring.divmask(exps), k))

    def find_rewriting(self, u, sig: Signature, k: int) -> int:
        """Latest rule of Rules_{sig.index} whose monomial divides u*mu, else k."""
        ukey = u if isinstance(u, int) else self.ring.key(u)
        target_key = self.ring.key_mul(ukey, sig.key)
        self.ensure_index(sig.index)
        rules = self._lists[sig.index]
        if not rules:
            return k
        ring = self.ring
        texps = ring.exps(target_key)
        tmask = ring.divmask(texps)
        for mk, mexps, mmask, j in reversed(rules):
            if mmask & ~tmask:
                continue
            if mk == target_key:
                return j
            ok = True
            for ge, me in zip(mexps, texps):
                if ge > me:
                    ok = False
                    break
            if ok:
                return j
        return k

    def is_rewritable(self, u, sig: Signature, k: int) -> bool:
        """True iff some later-recorded rule rewrites u * sig(k)."""
        j = self.find_rewriting(u, sig, k)
        # a nonzero rewriter always postdates the entry it rewrites
        assert j == k or j == 0 or j > k, (j, k)
        return j != k
