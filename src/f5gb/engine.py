"""The incremental degree-by-degree machinery shared by the F5 variants.

One F5Engine owns a labeled-polynomial store and a rewrite-rule table for the
duration of a single Groebner computation.  incremental_basis extends a basis
of <f_1..f_{i-1}> to one of <f_1..f_i>, processing critical pairs in
nondecreasing lcm degree and reducing S-polynomials in increasing signature
order.  Pair creation applies both the previous-basis top-reducibility
criterion and the rewritability check; the latter only front-loads a skip the
S-polynomial stage would perform anyway, and keeps the processed-degree
stream identical to the reference traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from itertools import chain

from .algebra import PolynomialRing, ReducerSet
from .sigcore import (
    PolyStore,
    RuleTable,
    Signature,
    cofactors_scale,
    cofactors_sub,
    reduce_payload,
)


@dataclass
class IterationStats:
    """Counters for one incremental iteration."""

    i: int
    basis_size: int = 0
    pairs_by_degree: dict = field(default_factory=dict)
    spolys: int = 0
    reduction_steps: int = 0
    zero_reductions: int = 0

    def to_dict(self):
        return {
            "i": self.i,
            "basis_size": self.basis_size,
            "pairs_by_degree": {str(d): n for d, n in sorted(self.pairs_by_degree.items())},
            "spolys": self.spolys,
            "reduction_steps": self.reduction_steps,
            "zero_reductions": self.zero_reductions,
        }


@dataclass
class RunStats:
    """Per-run instrumentation: one record per iteration plus totals."""

    algorithm: str
    char: int
    order: str
    iterations: list = field(default_factory=list)
    basis_size_final: int = 0
    reduced_basis_agrees_with_oracle: bool | None = None

    def new_iteration(self, i: int) -> IterationStats:
        it = IterationStats(i=i)
        self.iterations.append(it)
        return it

    @property
    def spolys(self) -> int:
        return sum(it.spolys for it in self.iterations)

    @property
    def reduction_steps(self) -> int:
        return sum(it.reduction_steps for it in self.iterations)

    @property
    def zero_reductions(self) -> int:
        return sum(it.zero_reductions for it in self.iterations)

    @property
    def pair_count(self) -> int:
        return sum(sum(it.pairs_by_degree.values()) for it in self.iterations)

    def totals(self):
        return {
            "pairs": self.pair_count,
            "spolys": self.spolys,
            "reduction_steps": self.reduction_steps,
            "zero_reductions": self.zero_reductions,
        }

    def to_dict(self):
        return {
            "algorithm": self.algorithm,
            "char": self.char,
            "order": self.order,
            "iterations": [it.to_dict() for it in self.iterations],
            "totals": self.totals(),
            "basis_size_final": self.basis_size_final,
            "reduced_basis_agrees_with_oracle": self.reduced_basis_agrees_with_oracle,
        }


class CriticalPair:
    """(t, k, u, l, v): lcm t = u*lt(poly k) = v*lt(poly l), u*sig(k) >= v*sig(l)."""

    __slots__ = ("lcm_key", "degree", "k", "u_key", "l", "v_key")

    def __init__(self, lcm_key, degree, k, u_key, l, v_key):
        self.lcm_key = lcm_key
        self.degree = degree
        self.k = k
        self.u_key = u_key
        self.l = l
        self.v_key = v_key

    def decoded(self, ring: PolynomialRing):
        """(lcm, k, u, l, v) as exponent tuples, for inspection and tests."""
        return (
            ring.exps(self.lcm_key),
            self.k,
            ring.exps(self.u_key),
            self.l,
            ring.exps(self.v_key),
        )


class PrevBasis:
    """The previous iteration's basis: reduction target plus criterion heads.

    cofactors lists each basis polynomial's module representation over the
    run's reference system (certified mode); plain runs carry None.
    """

    __slots__ = ("polys", "reducers", "cofactors")

    def __init__(self, ring: PolynomialRing, polys, cofactors=None):
        self.polys = list(polys)
        self.reducers = ReducerSet(ring, self.polys)
        self.cofactors = cofactors


class F5Engine:
    """Store, rules, and the per-iteration pair/reduce loop."""

    def __init__(
        self,
        ring: PolynomialRing,
        stats: RunStats,
        store_cap: int = 1_000_000,
        certified: bool = False,
        trace=None,
    ):
        self.ring = ring
        self.store = PolyStore(ring, cap=store_cap, certified=certified)
        self.rules = RuleTable(ring)
        self.trace = trace
        self.stats = stats
        self.it_stats = IterationStats(i=0)  # replaced per iteration

    # -- plumbing -----------------------------------------------------------

    def emit(self, line: str):
        if self.trace is not None:
            self.trace(line)

    def begin_iteration(self, i: int):
        self.it_stats = self.stats.new_iteration(i)

    # -- Algorithm: critical pairs ------------------------------------------

    def critical_pair(self, k: int, l: int, i: int, prev: PrevBasis):
        """The necessary pair {k, l}, or None when a criterion discards it."""
        ring = self.ring
        store = self.store
        ek = store.entry(k)
        el = store.entry(l)
        lcm = tuple(
            a if a >= b else b for a, b in zip(ek.head_exps, el.head_exps)
        )
        lcm_key = ring.key(lcm)
        u1 = ring.key_div(lcm_key, ek.head_key)
        u2 = ring.key_div(lcm_key, el.head_key)
        s1 = ek.sig
        s2 = el.sig
        prev_heads = prev.reducers
        if s1.index == i and prev_heads.is_top_reducible(ring.key_mul(u1, s1.key)):
            return None
        if s2.index == i and prev_heads.is_top_reducible(ring.key_mul(u2, s2.key)):
            return None
        rules = self.rules
        if rules.is_rewritable(u1, s1, k) or rules.is_rewritable(u2, s2, l):
            return None
        if (s1.index, ring.key_mul(u1, s1.key)) < (s2.index, ring.key_mul(u2, s2.key)):
            k, l, u1, u2 = l, k, u2, u1
        return CriticalPair(lcm_key, sum(lcm), k, u1, l, u2)

    # -- Algorithm: S-polynomials -------------------------------------------

    def compute_spols(self, pairs) -> list:
        """Generate S-polynomials for one degree, smallest lcm first.

        Every generated polynomial is appended to the store with signature
        u*sig(k) and recorded in the rule table; only nonzero ones are
        returned, sorted by increasing signature.
        """
        ring = self.ring
        store = self.store
        rules = self.rules
        newpols = []
        for pair in sorted(pairs, key=lambda cp: (cp.lcm_key, cp.k, cp.l)):
            ek = store.entry(pair.k)
            el = store.entry(pair.l)
            if rules.is_rewritable(pair.u_key, ek.sig, pair.k):
                continue
            if rules.is_rewritable(pair.v_key, el.sig, pair.l):
                continue
            lc_k = ek.poly.lc()
            lc_l = el.poly.lc()
            s = ek.poly.term_mul_key(pair.u_key, lc_l) - el.poly.term_mul_key(
                pair.v_key, lc_k
            )
            new_sig = Signature(
                ring, ring.key_mul(pair.u_key, ek.sig.key), ek.sig.index
            )
            cof = cofactors_sub(
                ring, ek.cofactors, el.cofactors, pair.v_key, lc_k, pair.u_key, lc_l
            )
            idx = store.append(new_sig, s, cof)
            rules.add_rule(new_sig, idx)
            self.it_stats.spolys += 1
            if s:
                newpols.append(idx)
        newpols.sort(key=lambda j: (store.sig(j).sort_key, j))
        return newpols

    # -- Algorithm: reduction -----------------------------------------------

    def reduction(self, todo, prev: PrevBasis, curr) -> list:
        """Reduce queued S-polynomials; returns survivors in completion order.

        Each S-polynomial is first normal-formed against the previous basis.
        Every payload the loop meets is then a normal form, so each pop
        takes the minimal remaining signature and attempts one
        signature-aware top-reduction step via top_reduction.
        """
        store = self.store
        for j in todo:
            entry = store.entry(j)
            h, cof = reduce_payload(
                prev.reducers, entry.poly, entry.cofactors, prev.cofactors, self.it_stats
            )
            store.set_poly(j, h, cof)
        queue = [(store.sig(j).sort_key, j) for j in todo]
        heapify(queue)
        done: list = []
        while queue:
            k = heappop(queue)[1]
            completed, redo = self.top_reduction(k, prev, curr, done)
            done.extend(completed)
            for j in redo:
                heappush(queue, (store.sig(j).sort_key, j))
        return done

    def top_reduction(self, k: int, prev: PrevBasis, curr, done):
        """One signature-aware top-reduction attempt on store entry k.

        Returns (completed, redo).  A zero payload counts as a reduction to
        zero; a safe step replaces the payload and requeues k; an unsafe step
        spawns a new store entry carrying the larger signature.  Both store a
        normal form: the payload h of k is one, and normal forms against the
        previous basis are linear, so NF(h - c*u*r) = h + NF(-c*u*r).
        """
        ring = self.ring
        store = self.store
        entry = store.entry(k)
        if entry.poly.is_zero():
            self.it_stats.zero_reductions += 1
            self.emit("Reduction to zero!")
            return (), ()
        j = self.find_reductor(k, prev, curr, done)
        if j is None:
            if entry.poly.lc() != 1:
                inv = ring.field.inv(entry.poly.lc())
                store.set_poly(
                    k, entry.poly.scale(inv), cofactors_scale(entry.cofactors, inv)
                )
            return (k,), ()
        red = store.entry(j)
        u_key = ring.key_div(entry.head_key, red.head_key)
        c = ring.field.div(entry.poly.lc(), red.poly.lc())
        multiple = red.poly.term_mul_key(u_key, ring.p - c)  # -c*u*r
        cof = cofactors_sub(ring, entry.cofactors, red.cofactors, u_key, c)
        nf, cof = reduce_payload(prev.reducers, multiple, cof, prev.cofactors, self.it_stats)
        p = entry.poly + nf
        self.it_stats.reduction_steps += 1
        if p:
            inv = ring.field.inv(p.lc())
            if inv != 1:
                p = p.scale(inv)
                cof = cofactors_scale(cof, inv)
        new_sig_key = ring.key_mul(u_key, red.sig.key)
        if (red.sig.index, new_sig_key) < entry.sig.sort_key:
            store.set_poly(k, p, cof)
            return (), (k,)
        new_sig = Signature(ring, new_sig_key, red.sig.index)
        idx = store.append(new_sig, p, cof)
        self.rules.add_rule(new_sig, idx)
        return (), (k, idx)

    def find_reductor(self, k: int, prev: PrevBasis, curr, done):
        """First candidate (insertion order) passing the three safety tests."""
        ring = self.ring
        store = self.store
        rules = self.rules
        entry = store.entry(k)
        t_key = entry.head_key
        g = ring.guard
        target = entry.head_word | g
        sig_k = entry.sig.sort_key
        for j in chain(curr, done):
            cand = store.entry(j)
            if cand.head_key is None or (target - cand.head_word) & g != g:
                continue
            u_key = ring.key_div(t_key, cand.head_key)
            new_sig_key = ring.key_mul(u_key, cand.sig.key)
            if (
                (cand.sig.index, new_sig_key) != sig_k
                and not rules.is_rewritable(u_key, cand.sig, j)
                and not prev.reducers.is_top_reducible(new_sig_key)
            ):
                return j
        return None

    # -- Algorithm: one incremental iteration --------------------------------

    def incremental_basis(self, i: int, prev: PrevBasis, prev_indices) -> list:
        """Extend prev (a basis of the first i-1 inputs) by the newest input.

        The newest input must already sit at the top of the store with
        signature index i.  Returns the store indices of a Groebner basis of
        the enlarged ideal, in insertion order.
        """
        curridx = self.store.size
        curr = list(prev_indices) + [curridx]
        self.rules.ensure_index(i)
        pending: dict = {}  # lcm degree -> critical pairs, popped lowest first

        def add_pair(k, l):
            cp = self.critical_pair(k, l, i, prev)
            if cp is not None:
                pending.setdefault(cp.degree, []).append(cp)

        for j in prev_indices:
            add_pair(curridx, j)
        while pending:
            d = min(pending)
            batch = pending.pop(d)
            self.emit(f"Processing {len(batch)} critical pairs of degree {d}")
            stats = self.it_stats
            stats.pairs_by_degree[d] = stats.pairs_by_degree.get(d, 0) + len(batch)
            todo = self.compute_spols(batch)
            survivors = self.reduction(todo, prev, curr)
            for k in sorted(survivors):
                for j in curr:
                    add_pair(k, j)
                curr.append(k)
        self.it_stats.basis_size = len(curr)
        return curr
