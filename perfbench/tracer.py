"""Outside-in tracing of f5gb: spans and counters around public entry points.

The tracer replaces each entry point where callers look it up (a class
attribute for methods, a module attribute for functions), records what it
needs, and puts the original back on exit.  Nothing inside f5gb changes.

Two modes:

* ``Tracer(counting=False)``: the timed trace.  Every wrapped call records a
  span (name, start, end, parent, run id) in flat arrays, plus counts that
  are classified from arguments and return values.
* ``Tracer(counting=True)``: the counting pass.  It wraps the per-monomial
  ``ReducerSet.find_divisor`` and ``ReducerSet.reduce_full`` to count
  eliminations and tail-term operations.  Those wrappers would distort a
  timed trace, so the counting pass records no spans.

Counts are keyed by (scope, name); the benchmark sets ``scope`` to the
variant it is running, so criterion-5 units can be read per variant.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

import f5gb.drivers as drivers
import f5gb.sigcore as sigcore
from f5gb.algebra import ReducerSet
from f5gb.engine import F5Engine
from f5gb.sigcore import PolyStore, RuleTable

# (owner, attribute, span name); spans are timed only in the timed mode
TIMED = (
    (F5Engine, "incremental_basis", "engine.incremental_basis"),
    (F5Engine, "critical_pair", "engine.critical_pair"),
    (F5Engine, "compute_spols", "engine.compute_spols"),
    (F5Engine, "reduction", "engine.reduction"),
    (F5Engine, "top_reduction", "engine.top_reduction"),
    (F5Engine, "find_reductor", "engine.find_reductor"),
    (ReducerSet, "reduce_full", "algebra.reduce_full"),
    (RuleTable, "is_rewritable", "sigcore.is_rewritable"),
    (sigcore, "admissible_check", "sigcore.admissible_check"),
    (drivers, "interreduce", "algebra.interreduce"),
    (drivers, "interreduce_with_cofactors", "algebra.interreduce_with_cofactors"),
    (drivers, "normal_form", "algebra.normal_form"),
    (drivers, "setup_reduced_basis", "drivers.setup_reduced_basis"),
    (drivers, "groebner_check", "drivers.groebner_check"),
    (drivers, "buchberger_reduced", "drivers.buchberger_reduced"),
)


def _top_reduction_outcome(result):
    """Classify F5Engine.top_reduction's (completed, redo) return value."""
    completed, redo = result
    if completed:
        return "final"
    if not redo:
        return "zero"
    return "safe" if len(redo) == 1 else "unsafe"


class Tracer:
    """Context manager that wraps f5gb entry points for one traced pass."""

    def __init__(self, counting: bool = False):
        self.counting = counting
        self.scope = ""
        self.counts: Counter = Counter()
        self.peak_store = 0
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_run = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._patches: list = []
        # counting pass: per-ReducerSet looked-up and eliminated keys, kept
        # (with the set itself, so its id stays unique) until the root call ends
        self._reducers: dict = {}
        self._in_reduce: list = []

    # -- installing and restoring -------------------------------------------

    def _patch(self, owner, attr, wrap):
        """Replace owner.attr by wrap(original), remembering the original."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def __enter__(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            if self.counting:
                self._install_counting()
            else:
                self._install_timed()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _install_timed(self):
        hooks = {
            "engine.critical_pair": self._on_critical_pair,
            "engine.find_reductor": self._on_find_reductor,
            "engine.top_reduction": self._on_top_reduction,
            "sigcore.is_rewritable": self._on_is_rewritable,
        }
        for owner, attr, name in TIMED:
            self._patch(owner, attr, lambda fn, name=name: self.spanned(name, fn, hooks.get(name)))
        counts = self.counts

        def counted_add_rule(add_rule):
            def wrapper(rules, sig, k):
                counts[self.scope, "rules.added"] += 1
                if not k:
                    counts[self.scope, "rules.phantom"] += 1
                return add_rule(rules, sig, k)

            return wrapper

        def counted_append(append):
            def wrapper(store, sig, poly, cofactors=None):
                idx = append(store, sig, poly, cofactors)
                counts[self.scope, "store.appends"] += 1
                self.peak_store = max(self.peak_store, idx)
                return idx

            return wrapper

        self._patch(RuleTable, "add_rule", counted_add_rule)
        self._patch(PolyStore, "append", counted_append)

    def _install_counting(self):
        counts = self.counts
        reducers = self._reducers
        in_reduce = self._in_reduce

        def counted_find_divisor(find_divisor):
            def wrapper(rs, key):
                cand = find_divisor(rs, key)
                entry = reducers.get(id(rs))
                if entry is None:
                    entry = reducers[id(rs)] = (rs, set(), set())
                seen = entry[1]
                counts[self.scope, "find_divisor.calls"] += 1
                if key in seen:
                    counts[self.scope, "find_divisor.hits"] += 1
                else:
                    seen.add(key)
                if in_reduce and cand is not None and in_reduce[-1][0] is rs:
                    # an elimination: cand[4] is the reducer's tail
                    in_reduce[-1][1] += 1
                    in_reduce[-1][2] += len(cand[4])
                    entry[2].add(key)
                return cand

            return wrapper

        def counted_reduce_full(reduce_full):
            def wrapper(rs, f, stats=None, quotients=None):
                frame = [rs, 0, 0]  # reducer set, eliminations, tail terms
                in_reduce.append(frame)
                try:
                    return reduce_full(rs, f, stats=stats, quotients=quotients)
                finally:
                    in_reduce.pop()
                    scope = self.scope
                    counts[scope, "reduce_full.calls"] += 1
                    counts[scope, "reduce_full.eliminations"] += frame[1]
                    counts[scope, "reduce_full.term_ops"] += frame[2]
                    if not frame[1]:
                        counts[scope, "reduce_full.noop"] += 1
                    if stats is not None:
                        # only the engine passes stats: criterion-5 counting units
                        counts[scope, "engine.reduce_full.term_ops"] += frame[2]
                        if frame[1]:
                            counts[scope, "engine.reduce_full.subtracting_calls"] += 1

            return wrapper

        self._patch(ReducerSet, "find_divisor", counted_find_divisor)
        self._patch(ReducerSet, "reduce_full", counted_reduce_full)

    def end_call(self):
        """Fold per-ReducerSet key sets into counts at the end of a root call."""
        for _, _, eliminated in self._reducers.values():
            self.counts[self.scope, "reduce_full.distinct_eliminated"] += len(eliminated)
        self._reducers.clear()

    # -- spans --------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def spanned(self, name, fn, on_result=None):
        """fn wrapped so every call records a span (and feeds on_result)."""
        nid = self.name_id(name)
        stack = self._stack
        span_name = self.span_name
        span_parent = self.span_parent
        span_run = self.span_run
        span_start = self.span_start
        span_end = self.span_end
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            idx = len(span_name)
            span_name.append(nid)
            span_parent.append(parent)
            span_run.append(idx if parent < 0 else span_run[parent])
            span_end.append(0.0)
            stack.append(idx)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _on_critical_pair(self, result):
        if result is None:
            self.counts[self.scope, "critical_pair.dropped"] += 1

    def _on_find_reductor(self, result):
        if result is None:
            self.counts[self.scope, "find_reductor.none"] += 1

    def _on_top_reduction(self, result):
        self.counts[self.scope, "top_reduction." + _top_reduction_outcome(result)] += 1

    def _on_is_rewritable(self, result):
        if result:
            self.counts[self.scope, "is_rewritable.true"] += 1

    # -- summaries ----------------------------------------------------------

    def self_times(self):
        """Per span: its duration minus the durations of its direct children."""
        n = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        parent = self.span_parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        return [dur[i] - child[i] for i in range(n)], dur

    def layer_summary(self):
        """{span name: [calls, self seconds]} summed over all spans."""
        selfs, _ = self.self_times()
        out: dict = {}
        for i, s in enumerate(selfs):
            rec = out.setdefault(self.names[self.span_name[i]], [0, 0.0])
            rec[0] += 1
            rec[1] += s
        return out

    def total(self, name: str) -> int:
        """A count summed over all scopes."""
        return sum(v for (_, n), v in self.counts.items() if n == name)

    def write(self, path):
        """Write spans as tab-separated lines: run, id, parent, name, start, end."""
        with open(path, "w") as fh:
            fh.write("run\tid\tparent\tname\tstart\tend\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{self.span_run[i]}\t{i}\t{self.span_parent[i]}\t"
                    f"{self.names[self.span_name[i]]}\t"
                    f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n"
                )
