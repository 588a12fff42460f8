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

from .algebra import PolynomialRing, ReducerSet, WorkingPayload, reduce_payload, subtract_quotients
from .sigcore import PolyStore, RuleTable, cofactors_scale, cofactors_sub


@dataclass
class IterationStats:
    """Counters for one incremental iteration.

    chains counts top_reduction calls: each takes one entry through its
    chain of safe_steps, which ends with no reductor, at zero, or at one of
    the unsafe_splits.  interreduction_steps counts the eliminations of an
    F5R or F5C rebuild's tail pass and dropped the elements its head
    minimization removed (f5r rebuilds the previous basis at the start of
    iteration i, f5c the new one at its end); neither is part of
    reduction_steps or totals().
    """

    i: int
    basis_size: int = 0
    pairs_by_degree: dict = field(default_factory=dict)
    spolys: int = 0
    reduction_steps: int = 0
    zero_reductions: int = 0
    safe_steps: int = 0
    unsafe_splits: int = 0
    chains: int = 0
    interreduction_steps: int = 0
    dropped: int = 0

    def to_dict(self):
        return {
            "i": self.i,
            "basis_size": self.basis_size,
            "pairs_by_degree": {str(d): n for d, n in sorted(self.pairs_by_degree.items())},
            "spolys": self.spolys,
            "reduction_steps": self.reduction_steps,
            "zero_reductions": self.zero_reductions,
            "safe_steps": self.safe_steps,
            "unsafe_splits": self.unsafe_splits,
            "chains": self.chains,
            "interreduction_steps": self.interreduction_steps,
            "dropped": self.dropped,
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
        heads, sigs = self.store.heads, self.store.sigs
        lcm_key = ring.lcm(heads[k], heads[l])
        u1 = ring.key_div(lcm_key, heads[k])
        u2 = ring.key_div(lcm_key, heads[l])
        # the packed u*sig: key_mul(key_div(lcm, head), sig) in one sum
        us1 = lcm_key - heads[k] + sigs[k]
        us2 = lcm_key - heads[l] + sigs[l]
        base = i << ring.sig_shift  # no signature index exceeds i
        prev_heads = prev.reducers
        if us1 >= base and prev_heads.is_top_reducible(us1 - base):
            return None
        if us2 >= base and prev_heads.is_top_reducible(us2 - base):
            return None
        rules = self.rules
        if rules.is_rewritable(u1, sigs[k], k) or rules.is_rewritable(u2, sigs[l], l):
            return None
        if us1 < us2:
            k, l, u1, u2 = l, k, u2, u1
        return CriticalPair(lcm_key, ring.key_degree(lcm_key), k, u1, l, u2)

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
        sigs = store.sigs
        newpols = []
        for pair in sorted(pairs, key=lambda cp: (cp.lcm_key, cp.k, cp.l)):
            if rules.is_rewritable(pair.u_key, sigs[pair.k], pair.k):
                continue
            if rules.is_rewritable(pair.v_key, sigs[pair.l], pair.l):
                continue
            ek = store.entries[pair.k]
            el = store.entries[pair.l]
            lc_k = ek.poly.lc()
            lc_l = el.poly.lc()
            s = ek.poly.term_mul_key(pair.u_key, lc_l) - el.poly.term_mul_key(
                pair.v_key, lc_k
            )
            new_sig = ring.key_mul(pair.u_key, sigs[pair.k])
            cof = cofactors_sub(
                ring, ek.cofactors, el.cofactors, pair.v_key, lc_k, pair.u_key, lc_l
            )
            idx = store.append(new_sig, s, cof)
            rules.add_rule(new_sig, idx)
            self.it_stats.spolys += 1
            if s:
                newpols.append(idx)
        newpols.sort(key=sigs.__getitem__)  # stable: equal signatures keep store order
        return newpols

    # -- Algorithm: reduction -----------------------------------------------

    def reduction(self, todo, prev: PrevBasis, curr) -> list:
        """Reduce queued S-polynomials; returns survivors in completion order.

        Each S-polynomial is first normal-formed against the previous basis
        (reduce_payload, the one reduce_full call per S-polynomial).  Every
        payload the loop meets is then a normal form, so each pop takes the
        minimal remaining signature and runs its whole chain of safe
        top-reduction steps via top_reduction, which folds each step's
        normal form into one working payload.  The heap holds the
        S-polynomials and the two entries of each unsafe split: a safe step
        would requeue the minimum under its unchanged (signature, index)
        pair, which the next pop would take again.
        """
        store = self.store
        for j in todo:
            entry = store.entries[j]
            h, cof = reduce_payload(
                prev.reducers, entry.poly, entry.cofactors, prev.cofactors, self.it_stats
            )
            store.set_poly(j, h, cof)
        sigs = store.sigs
        queue = [(sigs[j], j) for j in todo]
        heapify(queue)
        done: list = []
        while queue:
            k = heappop(queue)[1]
            completed, redo = self.top_reduction(k, prev, curr, done)
            done.extend(completed)
            for j in redo:
                heappush(queue, (sigs[j], j))
        return done

    def top_reduction(self, k: int, prev: PrevBasis, curr, done):
        """Run store entry k through its whole chain of safe top reductions.

        Returns (completed, redo): ((k,), ()) once no reductor is left, with
        k stored monic; ((), ()) for a reduction to zero; ((), (k, idx)) at an
        unsafe step, whose monic result is the new entry idx with the larger
        signature.  The chain keeps k's payload in one WorkingPayload: a step
        h -> h - c*u*r drops h's head and folds NF(-c*u*tail(r)) into it
        (h is a normal form and normal forms are linear), so no step builds
        a polynomial.  Polynomials are built, with one sort each, only where
        the store takes one: at the end of the chain, before an unsafe split
        and for the split's new entry.  The payload is not made monic between
        steps, so it holds lam times what a loop storing each step monic
        would hold (lam = lc(h) once a step is taken, 1 before); the store
        before an unsafe split and a zero result's cofactors are scaled by
        1/lam, so every stored payload is the same.  Cofactors are updated
        once per stored payload: the chain accumulates its quotient maps
        against the previous basis and its multiples c*u of each reductor r
        and subtracts them from k's vector with subtract_quotients.
        """
        ring, store, field = self.ring, self.store, self.ring.field
        stats = self.it_stats
        stats.chains += 1
        entry = store.entries[k]
        sig_k, cof = store.sigs[k], entry.cofactors
        if not entry.poly:
            return self._zero_result()
        reducers = prev.reducers
        quotients = None if cof is None else [{} for _ in reducers.polys]
        multiples: dict = {}  # reductor j -> {u key: c}: the chain subtracts c*u*r_j

        def chain_cofactors(inv):  # inv * (k's vector - the chain's subtractions)
            if cof is None:
                return None
            vec = subtract_quotients(
                ring,
                cof,
                quotients + list(multiples.values()),
                prev.cofactors + [store.entries[j].cofactors for j in multiples],
            )
            return cofactors_scale(vec, inv)

        h = WorkingPayload(entry.poly)
        head, lc = h.head()
        stepped = False
        while True:
            j = self.find_reductor(k, head, prev, curr, done)
            if j is None:
                inv = field.inv(lc)
                if stepped or inv != 1:
                    store.set_poly(k, h.poly(inv), chain_cofactors(inv))
                return (k,), ()
            red = store.entries[j]
            u_key = ring.key_div(head, store.heads[j])
            new_sig = ring.key_mul(u_key, store.sigs[j])
            safe = new_sig < sig_k
            if not safe and stepped:  # k as a step-by-step loop stored it
                inv = field.inv(lc)
                store.set_poly(k, h.poly(inv), chain_cofactors(inv))
            rterms = red.poly.terms
            if not ring._graded:  # lex: the tail may outgrow the head's degree
                ring.check_degree(red.poly.degree() + ring.key_degree(u_key))
            c = field.div(lc, rterms[0][1])
            if cof is not None:  # heads descend, so u is new for j
                multiples.setdefault(j, {})[u_key] = c
            h.drop_head()
            reducers.fold_normal_form(
                h, u_key - ring.unit_key, ring.p - c, rterms[1:], stats, quotients
            )
            stats.reduction_steps += 1
            top = h.head()
            if safe and top is not None:
                stats.safe_steps += 1
                (head, lc), stepped = top, True
                continue
            # a split's new entry is made monic; a zero result's cofactors
            # are scaled by 1/lam
            inv = field.inv(top[1]) if top is not None else field.inv(lc) if stepped else 1
            p_cof = chain_cofactors(inv)
            if safe:
                stats.safe_steps += 1
                store.set_poly(k, ring.zero, p_cof)
                return self._zero_result()
            stats.unsafe_splits += 1
            idx = store.append(new_sig, h.poly(inv), p_cof)
            self.rules.add_rule(new_sig, idx)
            return (), (k, idx)

    def _zero_result(self):
        self.it_stats.zero_reductions += 1
        self.emit("Reduction to zero!")
        return (), ()

    def find_reductor(self, k: int, head: int, prev: PrevBasis, curr, done):
        """First candidate (insertion order) passing the three safety tests.

        head keys the head of k's in-flight payload, which the store does not
        hold during a chain of safe steps.  curr and done hold nonzero entries
        of this iteration only.  That payload is a normal form against
        prev.reducers, whose heads span the head ideal of the previous basis
        (raw, interreduced or reduced alike), so no head of it divides head.
        """
        ring = self.ring
        heads, words, sigs = self.store.heads, self.store.words, self.store.sigs
        is_rewritable = self.rules.is_rewritable
        is_top_reducible = prev.reducers.is_top_reducible
        sig_k, mask, g = sigs[k], ring.sig_mask, ring.guard
        target = ring.word(head) | g
        for j in chain(curr, done):
            if (target - words[j]) & g != g:
                continue
            u_key = ring.key_div(head, heads[j])
            new_sig = ring.key_mul(u_key, sigs[j])
            if (
                new_sig != sig_k
                and not is_rewritable(u_key, sigs[j], j)
                and not is_top_reducible(new_sig & mask)
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
            survivors = self.reduction(todo, prev, curr[len(prev_indices):])
            for k in sorted(survivors):
                for j in curr:
                    add_pair(k, j)
                curr.append(k)
        self.it_stats.basis_size = len(curr)
        return curr
