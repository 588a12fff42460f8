"""Top-level basis computations: F5, F5R, F5C, and the Buchberger oracle.

The three signature-based variants share one driver skeleton and differ only
in the ReducerSet the next iteration reduces against, which each iteration
carries forward at its end:

* f5  adds its new raw store polynomials to it,
* f5r passes its reduced basis plus the new elements, with their cofactor
  vectors (a plain run's None), through reduced_basis but keeps
  pairs/signatures on the raw store (identical pair and S-polynomial stream
  to f5),
* f5c does the same in setup_reduced_basis, which also rebuilds the store
  and rewrite rules around the reduced basis, so later iterations see fewer
  generators.

reduced_basis does not check that the elements it drops reduce to zero: the
F5 theorem makes each iteration's basis a Groebner basis, and a run's result
is checked where it is used (groebner_check, the oracle, the acceptance and
sympy tests).  groebner_check runs reduced_basis itself, checks that the
elements it drops reduce to zero, and applies Buchberger's criterion to the
kept, tail-reduced elements only; G is a Groebner basis iff both hold.

Where several heads divide a monomial, a ReducerSet picks one (prefer);
against a Groebner basis the pick changes the work, not the normal form.
Each set reduced against here takes the smallest dividing head: each
iteration's carried set (f5's raw basis, reduced_basis's result for f5r and
f5c), groebner_check's, and the oracle's running set, whose unique reduced
basis does not depend on the pick.  The oracle builds that set once and
grows it in place (ReducerSet.add), so one divisor cache serves its whole
run, and it keeps its basis reduced in that set (ReducerSet.replace_tail),
so it needs no final interreduction.  Against f5's raw basis the smallest
head saves the most (katsura-8: 5,584,563 reduction steps, against
8,708,308 with the largest).  The largest stays in reduced_basis's tail
pass, where it did less, and in the public normal_form, whose input need
not be a Groebner basis.

buchberger_reduced is the correctness oracle: a Buchberger loop under the
Gebauer-Moller criteria.  It shares no signature code with the engine, but it
does share the polynomial layer: packed-key arithmetic (ring.lcms, and the
guarded subtraction of ring.divides, inline in _gm_update) and ReducerSet,
with its fold_normal_form loop, but neither interreduce nor reduced_basis,
which groebner_check and the rebuilds run.  tests/test_sympy_differential.py
checks the oracle and the check against sympy, which shares none of that
code.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from heapq import heapify, heappop

from .algebra import (
    NonHomogeneousError,
    Polynomial,
    ReducerSet,
    ZeroPolynomialError,
    interreduce,  # unused here, but perfbench's check and tracer use drivers.interreduce
    # unused here, but perfbench/tracer.py wraps drivers.interreduce_with_cofactors
    interreduce_with_cofactors,
    normal_form,  # unused here, but perfbench/tracer.py wraps drivers.normal_form
    one_ring,
    reduced_basis,
    spoly,
)
from .engine import F5Engine, RunStats

VARIANTS = ("f5", "f5r", "f5c")


@dataclass(frozen=True)
class VariantConfig:
    """Knobs shared by the signature-based drivers."""

    variant: str = "f5"
    skip_rule_rebuild: bool = False
    certified: bool = False
    store_cap: int = 1_000_000

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.skip_rule_rebuild and self.variant != "f5c":
            raise ValueError("skip_rule_rebuild applies to f5c only")


@dataclass
class BasisResult:
    basis: list
    stats: RunStats
    reduced: bool = False


def _prepare_inputs(F, variant: str):
    """Validate, sort by (total degree, head monomial, position), make monic."""
    fs = list(F)
    if not fs:
        raise ValueError("empty input system")
    for f in fs:
        if not isinstance(f, Polynomial):
            raise ValueError(f"not a polynomial: {f!r}")
        ring = one_ring(fs[0].ring, f.ring)
        if f.is_zero():
            raise ZeroPolynomialError("zero polynomial in the input system")
        if not f.is_homogeneous():
            raise NonHomogeneousError(
                f"{variant} requires homogeneous input: {ring.render(f)}"
            )
    fs.sort(key=lambda f: (f.degree(), f.lt_key()))
    return ring, [f.monic() for f in fs]


def setup_reduced_basis(engine: F5Engine, curr, skip_rule_rebuild: bool = False):
    """Swap the store's contents for the reduced basis of curr; return its ReducerSet.

    reduced_basis builds the set once, counting on the iteration's stats.
    The store is reset to (e_j, B_j) for the reduced basis B (the set's
    polys), which becomes the reference system, and the set's cofactors
    become the store's vectors of B: unit vectors in certified runs, None
    in plain ones.  The rule table is cleared, and (unless
    skip_rule_rebuild) each Rules_j receives one phantom rule per smaller
    index, recording that the S-polynomials of B already reduce to zero.
    B's store indices are 1..#B.
    """
    ring = engine.ring
    store = engine.store
    # indexed, so no list of old polynomials outlives store.reset()
    reducers = reduced_basis([store.poly(k) for k in curr], [None] * len(curr), engine.it_stats)[0]
    B = reducers.polys
    store.reset()
    for b in B:
        store.add_input(b)
    reducers.cofactors = [e.cofactors for e in store.entries[1:]]
    engine.rules.reset(len(B))
    if not skip_rule_rebuild:
        heads = [b.lt_key() for b in B]
        for j, t in enumerate(heads):  # one lcm row per element
            for k, lcm in enumerate(ring.lcms(t, heads[j + 1:]), start=j + 1):
                u = ring.key_div(lcm, heads[k])
                engine.rules.add_rule((k + 1) << ring.sig_shift | u, 0)
    return reducers


def run_variant(F, config: VariantConfig, trace=None) -> BasisResult:
    """Run the signature-based variant config.variant on the system F."""
    variant = config.variant
    ring, fs = _prepare_inputs(F, variant)
    stats = RunStats(algorithm=variant, char=ring.p, order=ring.order.kind)
    engine = F5Engine(
        ring,
        store_cap=config.store_cap,
        certified=config.certified,
        trace=trace,
        stats=stats,
    )
    store = engine.store
    indices = [store.add_input(fs[0])]
    prev = ReducerSet(ring, [fs[0]], cofactors=[store.entry(1).cofactors])
    reduced = variant == "f5c" or len(fs) == 1
    for ordinal in range(2, len(fs) + 1):
        engine.begin_iteration(ordinal)
        engine.emit(f"Iteration {ordinal}")
        new = store.add_input(fs[ordinal - 1])
        old = len(indices)
        indices = engine.incremental_basis(store.sig(new).index, prev, indices)
        engine.emit(f"{len(indices)} polynomials in basis")
        if any(store.poly(k).is_unit() for k in indices):
            basis, reduced = [ring.one], True
            break
        if variant == "f5c":
            prev = setup_reduced_basis(engine, indices, config.skip_rule_rebuild)
            indices = list(range(1, len(prev.polys) + 1))
        elif ordinal < len(fs):
            # carry prev forward, its vectors padded to the reference system
            width = len(store.reference_system)
            polys = prev.polys + [store.poly(k) for k in indices[old:]]
            cofs = [c if c is None else c + [ring.zero] * (width - len(c))
                    for c in prev.cofactors]
            cofs += [store.entry(k).cofactors for k in indices[old:]]
            if variant == "f5":
                prev = ReducerSet(ring, polys, prefer=-1, cofactors=cofs)
            else:
                prev = reduced_basis(polys, cofs, engine.it_stats)[0]
            del polys, cofs  # the previous basis must not outlive the carry
    else:
        basis = [store.poly(k) for k in indices]
    stats.basis_size_final = len(basis)
    if trace is not None:
        engine.emit("")
        engine.emit(f"number of zero reductions: {stats.zero_reductions}")
        engine.emit(f"number of elements in g: {len(basis)}")
    return BasisResult(basis=basis, stats=stats, reduced=reduced)


def f5(F, config: VariantConfig | None = None, trace=None) -> BasisResult:
    """The incremental signature-based computation; output is the raw basis."""
    return run_variant(F, replace(config or VariantConfig(), variant="f5"), trace)


def f5r(F, config: VariantConfig | None = None, trace=None) -> BasisResult:
    """Same pair/S-polynomial stream as f5, but normal forms run against the
    interreduced previous basis; output matches f5's raw basis."""
    return run_variant(F, replace(config or VariantConfig(), variant="f5r"), trace)


def f5c(F, config: VariantConfig | None = None, trace=None) -> BasisResult:
    """Rebuilds signatures over each reduced basis; output is reduced."""
    return run_variant(F, replace(config or VariantConfig(), variant="f5c"), trace)


# ---------------------------------------------------------------------------
# the independent oracle


def _gm_entry(g):
    """[monic polynomial, head key]; a list, so the oracle can swap in a reduced tail."""
    return [g, g.lt_key()]


def _gm_pair(e1, e2, lcm, serial):
    """(lcm degree, lcm key, serial, e1, e2); the first three are the selection key."""
    return (e1[0].ring.key_degree(lcm), lcm, serial, e1, e2)


def _gm_update(G, pairs, h, serial):
    """Gebauer-Moller pair update: add the entry h to G, drop new and old pairs.

    G holds _gm_entry lists, with pairwise indivisible heads, none of which
    divides h's, and pairs holds _gm_pair tuples; serials number the pairs
    in creation order and make the selection key a total order.  Returns
    (new G, new pairs, next serial).  Every divisibility test is one guarded
    subtraction on exponent words, as in PolynomialRing.divides.
    """
    ring = h[0].ring
    ht = h[1]
    unit, g = ring.unit_key, ring.guard
    wh = ht ^ unit
    heads = [e[1] for e in G]
    row = ring.lcms(ht, heads)
    # new pairs (h, e), their lcms from one ring.lcms call: the chain
    # criterion drops a pair whose lcm another new pair's lcm divides; among
    # equal lcms the last one stays.  Coprime pairs take part in the chain
    # test and then go (product criterion); a pair is coprime iff its lcm
    # key is the product key, because ka + kb - unit_key - lcm is the key
    # offset of the gcd.  A divisor's key is never above its multiple's, so
    # the lcms go in ascending (key, position descending) order, each tested
    # against the lcm words kept so far only: the first divisor an lcm meets
    # has none before it, so it is kept, and an lcm is dropped iff some
    # other one before it divides it.  That drops the pairs a test of every
    # lcm against every other drops (the reference in tests/), since with
    # indivisible heads no coprime lcm equals another lcm.  E keeps G's
    # order, which numbers the serials.
    coprime = [m == ht + k - unit for m, k in zip(row, heads)]
    keep = [False] * len(row)
    words = []
    for i in sorted(range(len(row) - 1, -1, -1), key=row.__getitem__):
        w = row[i] ^ unit
        t = w | g
        if coprime[i] or not any((t - o) & g == g for o in words):
            keep[i] = True
            words.append(w)
    # old pairs (e1, e2): dropped when ht divides their lcm and neither
    # lcm(e1, h) nor lcm(h, e2) equals it, so the chain e1, h, e2 has
    # strictly smaller lcms.  Those lcms come from the new row, keyed by
    # head; an entry that already left G takes ring.lcm
    by_head = dict(zip(heads, row))

    def lcm_h(k):
        m = by_head.get(k)
        return ring.lcm(ht, k) if m is None else m

    kept_old = [
        p
        for p in pairs
        if ((p[1] ^ unit | g) - wh) & g != g or lcm_h(p[3][1]) == p[1] or lcm_h(p[4][1]) == p[1]
    ]
    E = [i for i, k in enumerate(keep) if k and not coprime[i]]
    new_pairs = kept_old + [_gm_pair(h, G[i], row[i], serial + n) for n, i in enumerate(E)]
    new_G = [e for e in G if ((e[1] ^ unit | g) - wh) & g != g] + [h]
    return new_G, new_pairs, serial + len(E)


def buchberger_reduced(F):
    """The unique reduced Groebner basis of <F> via Gebauer-Moller Buchberger.

    Independent of the signature engine, but it runs on the engine's
    packed-key arithmetic and ReducerSet; the sympy differential test is
    the check that shares none of them.  Input need not be homogeneous.
    Inputs and S-polynomials are normal-formed by one ReducerSet, built
    once, to which each new element h is added, so its divisor cache serves
    the whole run.  The set keeps the elements that _gm_update drops from
    G, but it reduces exactly as a set over G would: an element leaves G
    only for an h whose head properly divides its own, so with the smallest
    dividing head (prefer=-1) the head found for any monomial always
    belongs to an element still in G.

    G is kept reduced at every step, in place.  ReducerSet.add(h) returns
    the keys h's head made reducible; the elements of G whose tails hold
    them (an index from tail key to positions finds them) get tail :=
    NF(tail) against the set, in ascending position, and the new version
    replaces the old in the set (replace_tail), in its G entry, which the
    queued pairs share, and in the index.  So the result is G itself,
    sorted by head key.  Why this is correct: heads never change, so the
    criteria and the pair stream stay the same.  A new version g' differs
    from g by a sum of multiples of elements with a standard representation
    below lt(g), so each S-polynomial formed from it keeps its
    lcm-representation, and Buchberger's argument goes through.  Every
    tail key was cached as irreducible when its fold formed it, and only a
    new head can make such a key reducible, so at the end G is monic, its
    heads are pairwise indivisible and its tails irreducible: it is the
    unique reduced basis.
    """
    fs = [f for f in F if f]
    if not fs:
        raise ValueError("empty input system")
    fs = sorted((f.monic() for f in fs), key=lambda f: (f.degree(), f.lt_key()))
    ring = fs[0].ring
    G: list = []
    reducers = ReducerSet(ring, [], prefer=-1)
    entries: list = []  # the G entry of each of reducers.polys, None once dropped
    holders: dict = {}  # tail key -> positions of the live elements whose tails hold it
    pairs: list = []  # a heap on the selection key (lcm degree, lcm key, serial)
    serial = 0

    def reindex(pos, old, new):
        """Move pos in holders from the tail keys of old to those of new."""
        was, now = {k for k, _ in old.terms[1:]}, {k for k, _ in new.terms[1:]}
        for k in was - now:
            holders[k].remove(pos)
        for k in now - was:
            holders.setdefault(k, []).append(pos)

    def add(f):
        nonlocal G, pairs, serial
        h = reducers.reduce_full(f)
        if not h:
            return
        entry = _gm_entry(h.monic())
        size = len(G)
        G, pairs, serial = _gm_update(G, pairs, entry, serial)
        heapify(pairs)
        if len(G) <= size:  # h's head divides the heads of the entries that left G
            live = set(map(id, G))
            for pos, e in enumerate(entries):
                if e is not None and id(e) not in live:
                    reindex(pos, e[0], ring.zero)
                    entries[pos] = None
        made = reducers.add(entry[0])
        for pos in sorted({pos for k in made for pos in holders.get(k, ())}):
            e = entries[pos]
            g = e[0]
            tail = reducers.reduce_full(Polynomial(ring, g.terms[1:]))
            e[0] = Polynomial(ring, g.terms[:1] + tail.terms)
            reducers.replace_tail(pos, e[0])
            reindex(pos, g, e[0])
        reindex(len(entries), ring.zero, entry[0])
        entries.append(entry)

    for f in fs:
        add(f)
    while pairs:
        g1, g2 = heappop(pairs)[3:]
        add(spoly(g1[0], g2[0]))
    return sorted((e[0] for e in G), key=Polynomial.lt_key)


def groebner_check(G) -> bool:
    """Buchberger's criterion on the Gebauer-Moller pairs of G's reduced set.

    True iff G (zeros ignored) is a Groebner basis of the ideal it
    generates.  reduced_basis splits the nonzero members into a kept set K,
    monic with pairwise indivisible heads and tails reduced against K, and
    the dropped elements, each with a head some head of K divides.  The
    answer is False if a dropped element has a nonzero normal form against
    K.  Otherwise K, in ascending head order, goes one element at a time
    through the oracle's _gm_update, which applies the product criterion
    and the chain criterion with its fixed serial tie-break, and the
    S-polynomial of every surviving pair is reduced against K.  Both steps
    reduce with the one ReducerSet reduced_basis returns, with its warm
    divisor cache and the smallest dividing head.

    The answer is exact.  The tail pass only subtracts multiples of other
    elements of K, so <K> lies in <G>.  If every dropped element reduces to
    zero against K, then <K> = <G>, and <LT(K)> = <LT(G)> because each
    dropped head is a multiple of a head of K; so G is a Groebner basis iff
    K is.  Conversely, if G is a Groebner basis, then so is K, since K lies
    in <G> and its heads generate LT(<G>), and every dropped element, a
    member of <G> = <K>, reduces to zero against it.  For K, if every
    surviving pair reduces to zero, the Gebauer-Moller Buchberger algorithm
    run on K (Gebauer & Moller, JSC 1988) would add nothing and stop, and
    its correctness theorem makes K a Groebner basis: each pair it dropped
    has a standard representation through the chain of kept pairs that
    justified the pruning, and the serial tie-break keeps those chains from
    resting on each other.  If K is a Groebner basis, every S-polynomial
    reduces to zero against it.
    """
    Gs = [g for g in G if g]
    if not Gs:
        raise ValueError("empty basis")
    reducers, dropped = reduced_basis(Gs, [None] * len(Gs))
    if any(map(reducers.reduce_full, dropped)):
        return False
    entries: list = []
    pairs: list = []
    serial = 0
    for g in reducers.polys:
        entries, pairs, serial = _gm_update(entries, pairs, _gm_entry(g), serial)
    return not any(reducers.reduce_full(spoly(p[3][0], p[4][0])) for p in pairs)
