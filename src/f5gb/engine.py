"""The incremental degree-by-degree machinery shared by the F5 variants.

One F5Engine owns a labeled-polynomial store and a rewrite-rule table for the
duration of a single Groebner computation.  incremental_basis extends a basis
of <f_1..f_{i-1}> to one of <f_1..f_i>, processing critical pairs in
nondecreasing lcm degree and reducing S-polynomials in increasing signature
order; an S-polynomial stays raw in the store until its chain of top
reductions starts.  Pair creation forms each new element's pairs in one batch
(critical_pairs) and applies both the previous-basis top-reducibility
criterion (the F5 criterion) and the rewritability check; the latter only
front-loads a skip the S-polynomial stage would perform anyway, and keeps the
processed-degree stream identical to the reference traces.  IterationStats
counts the pairs each check drops.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from heapq import heapify, heappop, heappush
from itertools import chain

from .algebra import PolynomialRing, ReducerSet, WorkingPayload, spoly, subtract_quotients
from .sigcore import PolyStore, RuleTable, cofactors_scale, cofactors_sub


@dataclass
class IterationStats:
    """Counters for one incremental iteration.

    chains counts top_reduction calls: each takes one entry through its
    chain of safe_steps, which ends with no reductor, at zero, or at one of
    the unsafe_splits.  interreduction_steps counts the eliminations of an
    F5R or F5C rebuild's tail pass and dropped the elements its head
    minimization removed (both rebuild reduced(B_{i-1}) plus the new
    elements at the end of iteration i, and f5r skips the last
    iteration's); neither is part of reduction_steps or totals().
    pairs_f5_criterion and pairs_rewritten count the candidate pairs
    critical_pairs drops by the F5 criterion and by the rewritten
    criterion, and spolys_rewritten the kept pairs compute_spols drops as
    rewritten, so the kept pairs (pairs_by_degree) are spolys +
    spolys_rewritten; none of the three is in totals().  term_ops counts
    the reducer tail terms that the eliminations against the previous basis
    add (fold_normal_form's part of reduction_steps; a top-reduction step
    adds none); it is not in totals() either.
    """

    i: int
    basis_size: int = 0
    pairs_by_degree: dict = field(default_factory=dict)
    spolys: int = 0
    reduction_steps: int = 0
    term_ops: int = 0
    zero_reductions: int = 0
    safe_steps: int = 0
    unsafe_splits: int = 0
    chains: int = 0
    interreduction_steps: int = 0
    dropped: int = 0
    pairs_f5_criterion: int = 0
    pairs_rewritten: int = 0
    spolys_rewritten: int = 0

    def to_dict(self):
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["pairs_by_degree"] = {str(d): n for d, n in sorted(self.pairs_by_degree.items())}
        return out


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

    def critical_pair(self, k: int, l: int, i: int, prev: ReducerSet):
        """The necessary pair {k, l}, or None when a criterion discards it.

        The one-pair case of critical_pairs; the engine calls the batch.
        """
        pairs = self.critical_pairs(k, (l,), i, prev)
        return pairs[0] if pairs else None

    def critical_pairs(self, k: int, ls, i: int, prev: ReducerSet) -> list:
        """The necessary pairs {k, l} for l in ls, in the order of ls.

        k's head and signature are read once, and the lcms come from one
        ring.lcms call.  Each pair then runs the tests in this order: the F5
        criterion on u*sig(k), then on v*sig(l) (a signature of index i whose
        monomial a head of the previous basis divides), then the rewritten
        criterion on k, then on l.  The F5 tests read prev's divisor
        cache (find_divisor's memo) and call find_divisor only on a miss.
        The drops are counted in pairs_f5_criterion and pairs_rewritten.
        """
        ring, stats = self.ring, self.it_stats
        heads, sigs = self.store.heads, self.store.sigs
        is_rewritable = self.rules.is_rewritable
        cache, find = prev._cache, prev.find_divisor
        unit = ring.unit_key
        base = i << ring.sig_shift  # no signature index exceeds i
        hk, sk = heads[k], sigs[k]
        # m = u*sig - base, the packed u*sig (key_mul(key_div(lcm, head), sig))
        # less base: its monomial's key when the index is i, negative if not
        off_k, u_off_k = sk - hk - base, unit - hk
        out = []
        f5_drops = rewritten = 0
        for l, lcm_key in zip(ls, ring.lcms(hk, [heads[l] for l in ls])):
            m1 = lcm_key + off_k
            if m1 >= 0:
                cand = cache.get(m1, 0)
                if cand == 0:
                    cand = find(m1)
                if cand is not None:
                    f5_drops += 1
                    continue
            hl, sl = heads[l], sigs[l]
            m2 = lcm_key - hl + sl - base
            if m2 >= 0:
                cand = cache.get(m2, 0)
                if cand == 0:
                    cand = find(m2)
                if cand is not None:
                    f5_drops += 1
                    continue
            u1, u2 = lcm_key + u_off_k, lcm_key - hl + unit
            if is_rewritable(u1, sk, k) or is_rewritable(u2, sl, l):
                rewritten += 1
                continue
            if m1 < m2:
                out.append(CriticalPair(lcm_key, ring.key_degree(lcm_key), l, u2, k, u1))
            else:
                out.append(CriticalPair(lcm_key, ring.key_degree(lcm_key), k, u1, l, u2))
        stats.pairs_f5_criterion += f5_drops
        stats.pairs_rewritten += rewritten
        return out

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
        rewritten = 0
        for pair in sorted(pairs, key=lambda cp: (cp.lcm_key, cp.k, cp.l)):
            if rules.is_rewritable(pair.u_key, sigs[pair.k], pair.k) or rules.is_rewritable(
                pair.v_key, sigs[pair.l], pair.l
            ):
                rewritten += 1
                continue
            ek = store.entries[pair.k]
            el = store.entries[pair.l]
            lc_k = ek.poly.lc()
            lc_l = el.poly.lc()
            s = spoly(ek.poly, el.poly)  # lc_l * u * f_k - lc_k * v * f_l
            new_sig = ring.key_mul(pair.u_key, sigs[pair.k])
            cof = cofactors_sub(
                ring, ek.cofactors, el.cofactors, pair.v_key, lc_k, pair.u_key, lc_l
            )
            idx = store.append(new_sig, s, cof)
            rules.add_rule(new_sig, idx)
            self.it_stats.spolys += 1
            if s:
                newpols.append(idx)
        self.it_stats.spolys_rewritten += rewritten
        newpols.sort(key=sigs.__getitem__)  # stable: equal signatures keep store order
        return newpols

    # -- Algorithm: reduction -----------------------------------------------

    def reduction(self, todo, prev: ReducerSet, curr) -> list:
        """Reduce queued S-polynomials; returns survivors in completion order.

        Each pop takes the minimal remaining signature and runs its whole
        chain via top_reduction.  The heap holds (signature, index, raw) for
        the S-polynomials, raw in the store until then, and for the two
        entries of each unsafe split, stored as normal forms (raw False): a
        safe step would requeue the minimum under its unchanged (signature,
        index) pair, which the next pop would take again.
        """
        sigs = self.store.sigs
        queue = [(sigs[j], j, True) for j in todo]
        heapify(queue)
        done: list = []
        while queue:
            _, k, raw = heappop(queue)
            completed, redo = self.top_reduction(k, prev, curr, done, raw)
            done.extend(completed)
            for j in redo:
                heappush(queue, (sigs[j], j, False))
        return done

    def top_reduction(self, k: int, prev: ReducerSet, curr, done, raw: bool = True):
        """Run store entry k through its whole chain of safe top reductions.

        Returns (completed, redo): ((k,), ()) once no reductor is left, with
        k stored monic; ((), ()) for a reduction to zero, stored as zero;
        ((), (k, idx)) at an unsafe step, which stores k's payload and the
        step's monic result as the new entry idx with the larger signature.
        The chain starts from k's payload, normal-formed against the previous
        basis if raw (an unsafe split stores normal forms), and keeps it in
        one WorkingPayload: a step h -> h - c*u*r drops h's head and folds
        NF(-c*u*tail(r)) into it (normal forms are linear), so a payload is
        built, with one sort, only where the store takes one after a step.
        The payload is not made monic between steps, so it holds lam times
        what a loop storing each step monic would hold (lam = lc(h) after the
        last safe step, 1 before any); k's payload stored at an unsafe split
        and a zero result's cofactors are scaled by 1/lam, so every stored
        payload is the same.  Cofactors are updated once per stored payload:
        the chain's quotient maps against the previous basis, a raw payload's
        normal form's included, and its multiples c*u of each reductor r are
        subtracted from k's vector with subtract_quotients.
        """
        ring, store, field = self.ring, self.store, self.ring.field
        stats = self.it_stats
        stats.chains += 1
        entry = store.entries[k]
        sig_k, cof = store.sigs[k], entry.cofactors
        quotients = None if cof is None else [{} for _ in prev.polys]
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

        nf = prev.reduce_full(entry.poly, stats, quotients) if raw else entry.poly
        h = WorkingPayload(nf)
        top, lam, stepped = h.head(), 1, False
        while top is not None:
            head, lc = top
            j = self.find_reductor(k, head, prev, curr, done)
            if j is None:  # until a step is taken, h holds nf: no rebuild
                inv = field.inv(lc)
                store.set_poly(k, h.poly(inv) if stepped else nf.scale(inv), chain_cofactors(inv))
                return (k,), ()
            u_key = ring.key_div(head, store.heads[j])
            new_sig = ring.key_mul(u_key, store.sigs[j])
            safe = new_sig < sig_k
            if not safe:  # k as a step-by-step loop stored it
                inv = field.inv(lam)
                store.set_poly(k, h.poly(inv) if stepped else nf, chain_cofactors(inv))
            rterms = store.entries[j].poly.terms
            c = field.div(lc, rterms[0][1])
            if cof is not None:  # heads descend, so u is new for j
                multiples.setdefault(j, {})[u_key] = c
            h.drop_head()
            prev.fold_normal_form(
                h, u_key - ring.unit_key, ring.p - c, rterms[1:], stats, quotients
            )
            stats.reduction_steps += 1
            top = h.head()
            if not safe:  # the new entry is made monic, or scaled by 1/lam if zero
                inv = field.inv(lam if top is None else top[1])
                stats.unsafe_splits += 1
                idx = store.append(new_sig, h.poly(inv), chain_cofactors(inv))
                self.rules.add_rule(new_sig, idx)
                return (), (k, idx)
            stats.safe_steps += 1
            if top is not None:
                lam, stepped = top[1], True
        store.set_poly(k, ring.zero, chain_cofactors(field.inv(lam)))
        stats.zero_reductions += 1
        self.emit("Reduction to zero!")
        return (), ()

    def find_reductor(self, k: int, head: int, prev: ReducerSet, curr, done):
        """First candidate (insertion order) passing the three safety tests.

        head keys the head of k's in-flight payload, which the store does not
        hold during a chain of safe steps.  curr and done hold nonzero entries
        of this iteration only.  That payload is a normal form against
        prev, whose heads span the head ideal of the previous basis
        (raw, interreduced or reduced alike), so no head of it divides head.
        """
        ring = self.ring
        heads, words, sigs = self.store.heads, self.store.words, self.store.sigs
        is_rewritable = self.rules.is_rewritable
        is_top_reducible = prev.is_top_reducible
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

    def incremental_basis(self, i: int, prev: ReducerSet, prev_indices) -> list:
        """Extend a basis of the first i-1 inputs by the newest input.

        prev_indices are the basis's store entries, and prev is the
        ReducerSet that S-polynomials are normal-formed against: a basis of
        the same ideal (raw, interreduced or reduced), carrying its
        elements' cofactor vectors.  The newest input must already sit at
        the top of the store with signature index i.  Returns the store
        indices of a Groebner basis of the enlarged ideal, in insertion
        order.
        """
        curridx = self.store.size
        curr = list(prev_indices) + [curridx]
        self.rules.ensure_index(i)
        pending: dict = {}  # lcm degree -> critical pairs, popped lowest first

        def add_pairs(k, ls):
            for cp in self.critical_pairs(k, ls, i, prev):
                pending.setdefault(cp.degree, []).append(cp)

        add_pairs(curridx, prev_indices)
        while pending:
            d = min(pending)
            batch = pending.pop(d)
            self.emit(f"Processing {len(batch)} critical pairs of degree {d}")
            stats = self.it_stats
            stats.pairs_by_degree[d] = stats.pairs_by_degree.get(d, 0) + len(batch)
            todo = self.compute_spols(batch)
            survivors = self.reduction(todo, prev, curr[len(prev_indices):])
            for k in sorted(survivors):
                add_pairs(k, curr)
                curr.append(k)
        self.it_stats.basis_size = len(curr)
        return curr
