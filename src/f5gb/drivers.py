"""Top-level basis computations: F5, F5R, F5C, and the Buchberger oracle.

The three signature-based variants share one driver skeleton and differ only
in how the previous basis is carried between iterations:

* f5  keeps the raw store polynomials,
* f5r reduces against the interreduced basis but keeps pairs/signatures on
  the raw store (identical pair and S-polynomial stream to f5); one
  reduced_basis call carries the cofactor vectors through the
  interreduction, or passes a plain run's None through,
* f5c rebuilds the store and rewrite rules around the reduced basis after
  every iteration, so later iterations see fewer generators.

Both rebuilds build the reduced basis once with reduced_basis, which does not
check that the elements it drops reduce to zero: the F5 theorem makes each
iteration's basis a Groebner basis, and a run's result is checked where it is
used (groebner_check, the oracle, the acceptance and sympy tests).

buchberger_reduced is the correctness oracle: a Buchberger loop under the
Gebauer-Moller criteria.  It shares no signature code with the engine, but it
does share the polynomial layer: packed-key arithmetic (ring.lcm and
ring.divides), ReducerSet and interreduce.  tests/test_sympy_differential.py
checks both against sympy, which shares none of that code.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from heapq import heapify, heappop

from .algebra import (
    NonHomogeneousError,
    Polynomial,
    ReducerSet,
    ZeroPolynomialError,
    interreduce,
    # unused here, but perfbench/tracer.py wraps drivers.interreduce_with_cofactors
    interreduce_with_cofactors,
    normal_form,  # unused here, but perfbench/tracer.py wraps drivers.normal_form
    reduced_basis,
    spoly,
)
from .engine import F5Engine, PrevBasis, RunStats

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
    ring = fs[0].ring
    for f in fs:
        if not isinstance(f, Polynomial) or f.ring != ring:
            raise ValueError("all inputs must live in one ring")
        if f.is_zero():
            raise ZeroPolynomialError("zero polynomial in the input system")
        if not f.is_homogeneous():
            raise NonHomogeneousError(
                f"{variant} requires homogeneous input: {ring.render(f)}"
            )
    fs.sort(key=lambda f: (f.degree(), f.lt_key()))
    return ring, [f.monic() for f in fs]


def setup_reduced_basis(engine: F5Engine, curr, skip_rule_rebuild: bool = False):
    """Swap the store's contents for the interreduced basis of curr.

    reduced_basis builds it once, counting on the iteration's stats.  The
    store is reset to (e_j, B_j) for the reduced basis B, which becomes
    the reference system; the rule table is cleared, and (unless
    skip_rule_rebuild) each Rules_j receives one phantom rule per smaller
    index, recording that the S-polynomials of B already reduce to zero.
    Returns the new index set 1..#B.
    """
    ring = engine.ring
    store = engine.store
    # indexed, so no list of old polynomials outlives store.reset()
    B = reduced_basis([store.poly(k) for k in curr], [None] * len(curr), engine.it_stats)[0]
    store.reset()
    for b in B:
        store.add_input(b)
    engine.rules.reset(len(B))
    if not skip_rule_rebuild:
        heads = [b.lt_key() for b in B]
        for j in range(len(B) - 1):
            t = heads[j]
            for k in range(j + 1, len(B)):
                u = ring.key_div(ring.lcm(t, heads[k]), heads[k])
                engine.rules.add_rule((k + 1) << ring.sig_shift | u, 0)
    return list(range(1, len(B) + 1))


def _prev_bundle(engine: F5Engine, variant: str, prev_indices):
    """Build the PrevBasis a new iteration reduces against."""
    store = engine.store
    polys = [store.poly(k) for k in prev_indices]
    cofs = [store.entry(k).cofactors for k in prev_indices]
    if variant == "f5r":
        polys, cofs, _ = reduced_basis(polys, cofs, engine.it_stats)
    return PrevBasis(engine.ring, polys, cofs)


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
    reduced = variant == "f5c" or len(fs) == 1
    for ordinal in range(2, len(fs) + 1):
        engine.begin_iteration(ordinal)
        engine.emit(f"Iteration {ordinal}")
        prev = _prev_bundle(engine, variant, indices)
        new = store.add_input(fs[ordinal - 1])
        indices = engine.incremental_basis(store.sig(new).index, prev, indices)
        engine.emit(f"{len(indices)} polynomials in basis")
        if any(store.poly(k).is_unit() for k in indices):
            basis, reduced = [ring.one], True
            break
        if variant == "f5c":
            indices = setup_reduced_basis(
                engine, indices, skip_rule_rebuild=config.skip_rule_rebuild
            )
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
    """(monic polynomial, head key)."""
    return g, g.lt_key()


def _gm_pair(e1, e2, lcm, serial):
    """(lcm degree, lcm key, serial, e1, e2); the first three are the selection key."""
    return (e1[0].ring.key_degree(lcm), lcm, serial, e1, e2)


def _gm_update(G, pairs, h, serial):
    """Gebauer-Moller pair update: add the entry h to G, drop new and old pairs.

    G holds _gm_entry tuples and pairs holds _gm_pair tuples; serials number
    the pairs in creation order and make the selection key a total order.
    Returns (new G, new pairs, next serial).
    """
    ring = h[0].ring
    ht = h[1]
    divides, lcm = ring.divides, ring.lcm
    # new pairs (h, g): the chain criterion drops a pair whose lcm another
    # new pair's lcm divides; among equal lcms the last one stays.  Coprime
    # pairs take part in the chain test and then go (product criterion); a
    # pair is coprime iff its lcm key is the product key, because
    # ka + kb - unit_key - lcm is the key offset of the gcd.
    C = []
    for g in G:
        m = lcm(ht, g[1])
        C.append((m, m == ring.key_mul(ht, g[1]), g))
    D = []
    for i, c in enumerate(C):
        m = c[0]
        if c[1] or not (
            any(divides(o[0], m) for o in C[i + 1:]) or any(divides(o[0], m) for o in D)
        ):
            D.append(c)
    # old pairs (g1, g2): dropped when ht divides their lcm and neither
    # lcm(g1, h) nor lcm(h, g2) equals it, so the chain g1, h, g2 has
    # strictly smaller lcms
    kept_old = [
        p
        for p in pairs
        if not divides(ht, p[1]) or lcm(p[3][1], ht) == p[1] or lcm(ht, p[4][1]) == p[1]
    ]
    E = [c for c in D if not c[1]]
    new_pairs = kept_old + [_gm_pair(h, g, m, serial + n) for n, (m, _, g) in enumerate(E)]
    new_G = [g for g in G if not divides(ht, g[1])] + [h]
    return new_G, new_pairs, serial + len(E)


def buchberger_reduced(F):
    """The unique reduced Groebner basis of <F> via Gebauer-Moller Buchberger.

    Independent of the signature engine, but it runs on the engine's
    packed-key arithmetic, ReducerSet and interreduce; the sympy
    differential test is the check that shares none of them.  Input need not
    be homogeneous.  Inputs and S-polynomials are normal-formed by one
    ReducerSet over G, rebuilt only when G changes, so its divisor cache
    serves every reduction in between.
    """
    fs = [f for f in F if f]
    if not fs:
        raise ValueError("empty input system")
    fs = sorted((f.monic() for f in fs), key=lambda f: (f.degree(), f.lt_key()))
    G: list = []
    reducers = ReducerSet(fs[0].ring, [])
    pairs: list = []  # a heap on the selection key (lcm degree, lcm key, serial)
    serial = 0

    def add(f):
        nonlocal G, reducers, pairs, serial
        h = reducers.reduce_full(f)
        if h:
            G, pairs, serial = _gm_update(G, pairs, _gm_entry(h.monic()), serial)
            reducers = ReducerSet(h.ring, [g[0] for g in G])
            heapify(pairs)

    for f in fs:
        add(f)
    while pairs:
        g1, g2 = heappop(pairs)[3:]
        add(spoly(g1[0], g2[0]))
    return interreduce([g[0] for g in G])


def groebner_check(G) -> bool:
    """Buchberger's criterion on the Gebauer-Moller pairs of G.

    True iff G (zeros ignored) is a Groebner basis of the ideal it
    generates.  The nonzero members, made monic and sorted by head, go one
    at a time through the oracle's _gm_update, which applies the product
    criterion and the chain criterion with its fixed serial tie-break; the
    S-polynomial of every surviving pair is then reduced over all of G.

    The answer is exact.  If G is a Groebner basis, every S-polynomial
    reduces to zero over G.  Conversely, if every surviving pair reduces to
    zero, the Gebauer-Moller Buchberger algorithm run on G (Gebauer & Moller,
    JSC 1988) would add nothing and stop, and its correctness theorem makes G
    a Groebner basis: each pair it dropped has a standard representation
    through the chain of kept pairs that justified the pruning, and the
    serial tie-break keeps those chains from resting on each other.
    """
    Gs = sorted((g.monic() for g in G if g), key=lambda g: g.lt_key())
    if not Gs:
        raise ValueError("empty basis")
    entries: list = []
    pairs: list = []
    serial = 0
    for g in Gs:
        entries, pairs, serial = _gm_update(entries, pairs, _gm_entry(g), serial)
    # smallest dividing head keeps verification chains short
    reducers = ReducerSet(Gs[0].ring, Gs, prefer=-1)
    return not any(reducers.reduce_full(spoly(p[3][0], p[4][0])) for p in pairs)
