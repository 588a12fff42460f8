"""Top-level basis computations: F5, F5R, F5C, and the Buchberger oracle.

The three signature-based variants share one driver skeleton and differ only
in how the previous basis is carried between iterations:

* f5  keeps the raw store polynomials,
* f5r reduces against the interreduced basis but keeps pairs/signatures on
  the raw store (identical pair and S-polynomial stream to f5),
* f5c rebuilds the store and rewrite rules around the reduced basis after
  every iteration, so later iterations see fewer generators.

buchberger_reduced is the correctness oracle: a Gebauer-Moller-pruned
Buchberger loop that shares only the plain polynomial arithmetic with the
engine.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .algebra import (
    NonHomogeneousError,
    Polynomial,
    ReducerSet,
    ZeroPolynomialError,
    interreduce,
    interreduce_with_cofactors,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    normal_form,
    spoly,
)
from .engine import F5Engine, PrevBasis, RunStats
from .sigcore import Signature, compose_cofactors

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

    The store is reset to (e_j, B_j) for the reduced basis B, which becomes
    the reference system; the rule table is cleared, and (unless
    skip_rule_rebuild) each Rules_j receives one phantom rule per smaller
    index, recording that the S-polynomials of B already reduce to zero.
    Returns the new index set 1..#B.
    """
    ring = engine.ring
    store = engine.store
    B = interreduce([store.poly(k) for k in curr])
    store.reset()
    for b in B:
        store.add_input(b)
    engine.rules.reset(len(B))
    if not skip_rule_rebuild:
        heads = [b.lt() for b in B]
        for j in range(len(B) - 1):
            t = heads[j]
            for k in range(j + 1, len(B)):
                u = monomial_div(monomial_lcm(t, heads[k]), heads[k])
                engine.rules.add_rule(Signature(ring, u, k + 1), 0)
    return list(range(1, len(B) + 1))


def _prev_bundle(engine: F5Engine, variant: str, prev_indices):
    """Build the PrevBasis a new iteration reduces against."""
    ring = engine.ring
    store = engine.store
    polys = [store.poly(k) for k in prev_indices]
    cofs = [store.entry(k).cofactors for k in prev_indices]
    if variant == "f5r":
        if store.certified:
            polys, combos = interreduce_with_cofactors(polys)
            cofs = [compose_cofactors(ring, combo, cofs) for combo in combos]
        else:
            polys = interreduce(polys)
    return PrevBasis(ring, polys, cofs)


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
    cfg = replace(config or VariantConfig(), variant="f5", skip_rule_rebuild=False)
    return run_variant(F, cfg, trace)


def f5r(F, config: VariantConfig | None = None, trace=None) -> BasisResult:
    """Same pair/S-polynomial stream as f5, but normal forms run against the
    interreduced previous basis; output matches f5's raw basis."""
    cfg = replace(config or VariantConfig(), variant="f5r", skip_rule_rebuild=False)
    return run_variant(F, cfg, trace)


def f5c(F, config: VariantConfig | None = None, trace=None) -> BasisResult:
    """Rebuilds signatures over each reduced basis; output is reduced."""
    return run_variant(F, replace(config or VariantConfig(), variant="f5c"), trace)


# ---------------------------------------------------------------------------
# the independent oracle


def _coprime(a, b) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def _gm_update(G, pairs, h, serial):
    """Gebauer-Moller pair update: add h to G, prune new and old pairs.

    pairs entries are (g1, g2, lcm, serial); G holds monic polynomials.
    """
    ht = h.lt()
    C = [(g, monomial_lcm(ht, g.lt())) for g in G]
    D = []
    while C:
        g, lcm = C.pop(0)
        if _coprime(ht, g.lt()) or (
            not any(monomial_divides(l2, lcm) for _, l2 in C)
            and not any(monomial_divides(l2, lcm) for _, l2 in D)
        ):
            D.append((g, lcm))
    E = [(g, lcm) for g, lcm in D if not _coprime(ht, g.lt())]
    kept_old = []
    for g1, g2, lcm, ser in pairs:
        if (
            not monomial_divides(ht, lcm)
            or monomial_lcm(g1.lt(), ht) == lcm
            or monomial_lcm(ht, g2.lt()) == lcm
        ):
            kept_old.append((g1, g2, lcm, ser))
    new_pairs = kept_old + [(h, g, lcm, serial + n) for n, (g, lcm) in enumerate(E)]
    new_G = [g for g in G if not monomial_divides(ht, g.lt())] + [h]
    return new_G, new_pairs, serial + len(E)


def _buchberger(F, prune: bool, stats=None):
    fs = [f for f in F if f]
    if not fs:
        raise ValueError("empty input system")
    ring = fs[0].ring
    fs = sorted((f.monic() for f in fs), key=lambda f: (f.degree(), f.lt_key()))
    G: list = []
    pairs: list = []
    serial = 0
    for f in fs:
        h = normal_form(f, G, stats=stats)
        if h.is_zero():
            continue
        h = h.monic()
        if prune:
            G, pairs, serial = _gm_update(G, pairs, h, serial)
        else:
            pairs += [(g, h, monomial_lcm(g.lt(), h.lt()), serial + n) for n, g in enumerate(G)]
            serial += len(G)
            G.append(h)
    while pairs:
        best = min(
            range(len(pairs)),
            key=lambda idx: (
                sum(pairs[idx][2]),
                ring.key(pairs[idx][2]),
                pairs[idx][3],
            ),
        )
        g1, g2, _, _ = pairs.pop(best)
        s = spoly(g1, g2)
        h = normal_form(s, G, stats=stats)
        if h.is_zero():
            continue
        h = h.monic()
        if prune:
            G, pairs, serial = _gm_update(G, pairs, h, serial)
        else:
            pairs += [(g, h, monomial_lcm(g.lt(), h.lt()), serial + n) for n, g in enumerate(G)]
            serial += len(G)
            G.append(h)
    return interreduce(G)


def buchberger_reduced(F, stats=None):
    """The unique reduced Groebner basis of <F> via Gebauer-Moller Buchberger.

    Independent of the signature engine: shares only the polynomial
    arithmetic layer.  Input need not be homogeneous.
    """
    return _buchberger(F, prune=True, stats=stats)


def buchberger_reduced_unpruned(F, stats=None):
    """Criteria-free Buchberger; cross-checks the pair pruning on small inputs."""
    return _buchberger(F, prune=False, stats=stats)


def groebner_check(G) -> bool:
    """Buchberger's criterion by direct computation.

    True iff every pairwise S-polynomial of the nonzero members of G
    reduces to zero over G.
    """
    Gs = [g for g in G if g]
    if not Gs:
        raise ValueError("empty basis")
    # smallest dividing head keeps verification chains short
    reducers = ReducerSet(Gs[0].ring, Gs, prefer=-1)
    heads = [g.lt() for g in Gs]
    for i in range(len(Gs)):
        for j in range(i + 1, len(Gs)):
            if _coprime(heads[i], heads[j]):
                # product criterion: such S-polynomials reduce to zero
                continue
            if reducers.reduce_full(spoly(Gs[i], Gs[j])):
                return False
    return True
