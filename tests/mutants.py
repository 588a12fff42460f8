"""The committed mutant suite: exact source edits the tests must detect.

Each mutant is one exact (file, old, new) edit under src/f5gb/ plus the
fast pytest selection that should fail under it.  For each mutant the
script copies src/, tests/ and pyproject.toml into a temporary directory,
applies the edit there (the working tree is never edited), runs the
selection under a timeout and reports

* killed: the selection failed or ran out of time,
* survived: the selection passed; a mutant marked equivalent cannot change
  a result, and its survival is expected.

Every selection must pass on the unmutated copy first, or the suite stops.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named mutants

Exit status: 0 when every mutant not marked equivalent is killed, 1 when
one survives, 2 when an edit does not apply or a selection fails unmutated.
This file is not collected by pytest (its name has no test_ prefix).
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 300


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to src/f5gb/
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple  # pytest arguments, relative to the repository root
    equivalent: str = ""  # why the mutant cannot change a result, if it cannot


COFACTOR_TESTS = (
    "tests/test_algebra.py::test_interreduce_with_cofactors_on_raw_f5_basis",
    "tests/test_algebra.py::test_interreduce_with_cofactors_rejects_non_groebner_input",
    "tests/test_algebra.py::test_reduced_basis_fixed_cases",
    "tests/test_algebra.py::test_reducer_set_rejects_a_cofactor_list_of_the_wrong_length",
    "tests/test_sympy_differential.py::test_certificates_hold_in_sympy",
)
TAIL_PASS_TESTS = (
    "tests/test_engine.py::test_interreduction_counters_golden",
    "tests/test_algebra.py::test_reduced_basis_fixed_cases",
)
CARRY_TESTS = (
    "tests/test_engine.py::test_interreduction_counters_golden",
    "tests/test_engine.py::test_run_stats_golden",
    "tests/test_drivers.py::test_rebuilds_carry_their_one_reducer_set",
    "tests/test_sympy_differential.py::test_certificates_hold_in_sympy",
)
INTERREDUCE_TESTS = (
    "tests/test_algebra.py::test_interreduce_trivial_cases",
    "tests/test_algebra.py::test_interreduce_properties_randomized",
    "tests/test_algebra.py::test_interreduce_result_does_not_depend_on_input_order",
    "tests/test_algebra.py::test_interreduce_with_cofactors_rejects_non_groebner_input",
)
KERNEL_TESTS = (  # the property tests last: shrinking a failure takes seconds
    "tests/test_algebra.py::test_reduce_full_fixed_cases_match_eager_reference",
    "tests/test_algebra.py::test_reducing_again_reads_only_the_divisor_cache",
    "tests/test_algebra.py::test_fold_normal_form_fixed_cases",
    "tests/test_algebra.py::test_working_payload_reads_and_drops_its_head",
    "tests/test_algebra.py::test_engine_runs_eliminate_as_the_eager_kernel",
    "tests/test_engine.py",
    "tests/test_algebra.py::test_reduce_full_matches_eager_reference",
    "tests/test_algebra.py::test_fold_normal_form_matches_reduce_full",
)
SUM_PRODUCTS_TESTS = (  # the property test last
    "tests/test_algebra.py::test_products_past_the_packed_degree_raise",
    "tests/test_algebra.py::test_sum_products_fixed_cases_match_reference",
    "tests/test_algebra.py::test_sum_products_edge_cases",
    "tests/test_algebra.py::test_sum_products_and_mul_match_exponent_tuple_reference",
)
RING_TESTS = ("tests/test_algebra.py::test_polynomials_of_two_rings_raise",)
RUN_STATS_TESTS = ("tests/test_engine.py::test_run_stats_golden",)
ORACLE_CHOICE_TESTS = (
    "tests/test_drivers.py::test_oracle_reduces_against_the_smallest_dividing_head",
)
ADD_TESTS = ("tests/test_algebra.py::test_reducer_set_grown_by_add_answers_as_a_fresh_set",)
SCAN_TESTS = ("tests/test_engine.py::test_find_reductor_scans_only_the_current_iteration",)
LCM_TESTS = (
    "tests/test_algebra.py::test_products_past_the_packed_degree_raise",
    "tests/test_algebra.py::test_lcms_is_the_lcm_of_each_key",
    "tests/test_engine.py::test_critical_pairs_raise_where_ring_lcm_does",
    "tests/test_algebra.py::test_key_divisibility_agrees_with_exponent_tuples",
)
LEX_GUARD_TESTS = (
    "tests/test_algebra.py::test_lex_eliminations_past_the_packed_degree_raise",
    "tests/test_algebra.py::test_lex_spoly_tails_past_the_packed_degree_raise",
    "tests/test_drivers.py::test_lex_tails_past_the_packed_degree_raise_in_the_oracle",
)
PARSER_TESTS = ("tests/test_cli.py",)
GM_TESTS = ("tests/test_drivers.py::test_gebauer_moller_pair_stream_is_pinned",)
GM_REFERENCE_TESTS = (
    "tests/test_drivers.py::test_gm_update_matches_the_all_pairs_reference",
    "tests/test_drivers.py::test_gm_update_replays_the_oracle_and_the_check_as_the_reference",
)
ORACLE_WORK_TESTS = ("tests/test_drivers.py::test_oracle_work_is_pinned",)
CRITERIA_TESTS = (
    "tests/test_acceptance.py::test_criterion_2_trace_fidelity",
    "tests/test_engine.py",
    "tests/test_drivers.py",
    "tests/test_sigcore.py",
)
ADMISSIBLE_TESTS = (
    "tests/test_sigcore.py::test_admissible_check_cofactor_length_must_match_system",
    "tests/test_sigcore.py::test_admissible_check_nonzero_cofactor_above_index",
)
PAIR_TESTS = (  # no whole file: pytest would run its tests in file order
    "tests/test_engine.py::test_critical_pairs_match_the_per_pair_reference",
    "tests/test_engine.py::test_pair_drop_counters_golden",
    "tests/test_acceptance.py::test_criterion_2_trace_fidelity",
    "tests/test_engine.py::test_run_stats_golden",
)

MUTANTS = (
    # -- cofactor vectors through the interreduction (algebra.reduced_basis
    #    and algebra.reduce_payload)
    Mutant(
        "kept-vectors-unscaled",
        "algebra.py",
        "c if c is None or inv == 1 else [h.scale(inv) for h in c]",
        "c",
        COFACTOR_TESTS,
    ),
    Mutant(
        "payload-drops-own-cofactor",
        "algebra.py",
        "            ps.append((cofs[m], ring.one))\n",
        "",
        COFACTOR_TESTS,
    ),
    Mutant(
        "tails-reduce-against-unscaled-vectors",
        "algebra.py",
        "    shared = ReducerSet(ring, kept, cofactors=kcofs)\n",
        "    shared = ReducerSet(ring, kept, cofactors=cofs)\n",
        COFACTOR_TESTS,
    ),
    Mutant(
        "non-groebner-input-accepted",
        "algebra.py",
        "    if any(map(reducers.reduce_full, dropped)):\n"
        "        raise ValueError(\"interreduce_with_cofactors needs a Groebner basis\")\n",
        "",
        COFACTOR_TESTS,
    ),
    Mutant(
        # each element keeps the vector it came in with, for later tails too
        "tail-vector-not-replaced",
        "algebra.py",
        "        tail, vecs[i] = reduce_payload(",
        "        tail, _ = reduce_payload(",
        COFACTOR_TESTS,
    ),
    # -- the tail pass (algebra.reduced_basis) and the public check around it
    Mutant(
        # a swap leaves the candidate's tail as it was (ReducerSet.replace_tail):
        # later tails reduce against the element's raw tail, the same basis,
        # but more eliminations, and vectors that no longer match the tails
        "tail-not-replaced",
        "algebra.py",
        "        self._cands[i][4:] = self._tail(g)\n",
        "",
        TAIL_PASS_TESTS,
    ),
    Mutant(
        # a swap reaches the candidate but not polys: the set keeps the
        # elements' raw tails, and f5c stores a basis that is not reduced
        "reduced-polys-not-stored",
        "algebra.py",
        "        self.polys[pos] = g\n",
        "",
        TAIL_PASS_TESTS,
    ),
    Mutant(
        "eliminations-not-counted",
        "algebra.py",
        "        self.eliminations += steps\n",
        "",
        TAIL_PASS_TESTS,
    ),
    Mutant(
        # one round only: the dropped elements' nonzero normal forms are lost
        "public-interreduce-skips-check",
        "algebra.py",
        "        if not rest:\n            return reducers.polys\n",
        "        return reducers.polys\n",
        INTERREDUCE_TESTS,
    ),
    Mutant(
        # the rounds see the input in the caller's order: on input that is
        # not a Groebner basis, the result can depend on that order
        "interreduce-input-order-kept",
        "algebra.py",
        "    G = sorted((g for g in G if g), key=lambda g: g.terms)\n",
        "    G = [g for g in G if g]\n",
        INTERREDUCE_TESTS,
    ),
    # -- the reduction target each iteration carries forward
    #    (drivers.run_variant and setup_reduced_basis, algebra.ReducerSet)
    Mutant(
        # f5r reduces against its raw basis, as f5 does: the same bases, but
        # f5's reduction steps and no interreduction
        "f5r-carries-raw-basis",
        "drivers.py",
        "            if variant == \"f5\":\n",
        "            if True:\n",
        CARRY_TESTS,
    ),
    Mutant(
        # the carried vectors keep the length of the iteration they were
        # made in, one entry short of the reference system
        "carried-vectors-unpadded",
        "drivers.py",
        "c if c is None else c + [ring.zero] * (width - len(c))",
        "c",
        CARRY_TESTS,
    ),
    Mutant(
        # f5c's next target keeps the [None] vectors the rebuild ran with
        "rebuilt-set-keeps-plain-vectors",
        "drivers.py",
        "    reducers.cofactors = [e.cofactors for e in store.entries[1:]]\n",
        "",
        CARRY_TESTS,
    ),
    Mutant(
        "reducer-set-accepts-wrong-length",
        "algebra.py",
        "zip(polys, cofactors, strict=True)",
        "zip(polys, cofactors)",
        COFACTOR_TESTS,
    ),
    # -- the criteria
    Mutant(
        "no-f5-criterion",
        "engine.py",
        "            if m1 >= 0:\n"
        "                cand = cache.get(m1, 0)\n"
        "                if cand == 0:\n"
        "                    cand = find(m1)\n"
        "                if cand is not None:\n"
        "                    f5_drops += 1\n"
        "                    continue\n"
        "            hl, sl = heads[l], sigs[l]\n"
        "            m2 = lcm_key - hl + sl - base\n"
        "            if m2 >= 0:\n"
        "                cand = cache.get(m2, 0)\n"
        "                if cand == 0:\n"
        "                    cand = find(m2)\n"
        "                if cand is not None:\n"
        "                    f5_drops += 1\n"
        "                    continue\n",
        "            hl, sl = heads[l], sigs[l]\n"
        "            m2 = lcm_key - hl + sl - base\n",
        CRITERIA_TESTS,
    ),
    # -- the batch of critical pairs (F5Engine.critical_pairs)
    Mutant(
        "f5-criterion-on-l-dropped",
        "engine.py",
        "            if m2 >= 0:\n",
        "            if False:\n",
        PAIR_TESTS,
    ),
    Mutant(
        # compute_spols still drops these pairs: the same basis, but not the
        # same pair counts or trace
        "rewritten-criterion-on-l-dropped",
        "engine.py",
        "            if is_rewritable(u1, sk, k) or is_rewritable(u2, sl, l):\n",
        "            if is_rewritable(u1, sk, k):\n",
        PAIR_TESTS,
    ),
    Mutant(
        "pair-swap-inverted",
        "engine.py",
        "            if m1 < m2:\n",
        "            if m1 > m2:\n",
        PAIR_TESTS,
    ),
    Mutant(
        "safe-step-flipped",
        "engine.py",
        "            safe = new_sig < sig_k\n",
        "            safe = new_sig > sig_k\n",
        CRITERIA_TESTS,
    ),
    # -- the chain of safe steps in F5Engine.top_reduction, and the check
    #    that certifies what it stores
    Mutant(
        # a safe step's cofactor update forgets the chain's earlier steps
        "chain-stale-cofactor",
        "engine.py",
        "multiples.setdefault(j, {})[u_key] = c",
        "multiples = {j: {u_key: c}}",
        CRITERIA_TESTS,
    ),
    Mutant(
        # the chain starts from the raw S-polynomial: its head may be
        # reducible by the previous basis, and the stores are not normal forms
        "chain-skips-first-normal-form",
        "engine.py",
        "nf = prev.reduce_full(entry.poly, stats, quotients)",
        "nf = entry.poly",
        CRITERIA_TESTS,
    ),
    Mutant(
        # the entries an unsafe split requeues, normal forms already, are
        # normal-formed again: the same stores, but more reduce_full calls
        "requeued-entry-normal-formed-again",
        "engine.py",
        "heappush(queue, (sigs[j], j, False))",
        "heappush(queue, (sigs[j], j, True))",
        ("tests/test_engine.py::test_requeued_entries_are_not_normal_formed_again",),
    ),
    Mutant(
        "chain-unscaled-store",
        "engine.py",
        "            if not safe:  # k as a step-by-step loop stored it\n"
        "                inv = field.inv(lam)\n",
        "            if not safe:  # k as a step-by-step loop stored it\n"
        "                inv = 1\n",
        CRITERIA_TESTS,
    ),
    Mutant(
        "chain-unscaled-zero-cofactors",
        "engine.py",
        "store.set_poly(k, ring.zero, chain_cofactors(field.inv(lam)))",
        "store.set_poly(k, ring.zero, chain_cofactors(1))",
        CRITERIA_TESTS,
    ),
    Mutant(
        # a chain that took steps stores its first normal form
        "chain-end-keeps-first-normal-form",
        "engine.py",
        "lam, stepped = top[1], True",
        "lam = top[1]",
        CRITERIA_TESTS,
    ),
    Mutant(
        "unstepped-chain-end-not-monic",
        "engine.py",
        "if stepped else nf.scale(inv)",
        "if stepped else nf",
        CRITERIA_TESTS,
    ),
    Mutant(
        "chain-unscaled-split-zero-cofactors",
        "engine.py",
        "inv = field.inv(lam if top is None else top[1])",
        "inv = field.inv(1 if top is None else top[1])",
        CRITERIA_TESTS,
    ),
    # -- the one elimination loop (algebra.ReducerSet.fold_normal_form, its
    #    caller reduce_full, and algebra.WorkingPayload)
    Mutant(
        "pending-pop-without-mod-p",
        "algebra.py",
        "                c = coeffs.pop(key) % p\n",
        "                c = coeffs.pop(key)\n",
        KERNEL_TESTS,
    ),
    Mutant(
        "pending-key-kept",
        "algebra.py",
        "                c = coeffs.pop(key) % p\n",
        "                c = coeffs[key] % p\n",
        KERNEL_TESTS,
    ),
    Mutant(
        "reduce-full-skips-first-term",
        "algebra.py",
        "self.fold_normal_form(payload, 0, 1, f.terms, stats, quotients)",
        "self.fold_normal_form(payload, 0, 1, f.terms[1:], stats, quotients)",
        KERNEL_TESTS,
    ),
    Mutant(
        "mfac-not-negated",
        "algebra.py",
        "            mfac = p - fac\n",
        "            mfac = fac\n",
        KERNEL_TESTS,
    ),
    Mutant(
        "fold-shared-pending-heap",
        "algebra.py",
        "        pending: list[int] = []\n",
        "        pending = globals().setdefault(\"_shared_pending\", [])\n",
        KERNEL_TESTS,
        equivalent="each call pops its pending heap until it is empty, so a shared"
        " heap is empty whenever a call starts",
    ),
    Mutant(
        "irreducible-key-pending",
        "algebra.py",
        "                if cand is None:\n                    fresh.append(nk)\n",
        "                if False:\n                    fresh.append(nk)\n",
        KERNEL_TESTS,
    ),
    Mutant(
        # correct results, but each new key goes to find_divisor again
        "divisor-cache-skipped",
        "algebra.py",
        "                cand = cache.get(nk, 0)\n",
        "                cand = 0\n",
        KERNEL_TESTS,
    ),
    Mutant(
        "fresh-keys-not-pushed",
        "algebra.py",
        "        for key in self.fresh:\n            _heappush(heap, -key)\n",
        "",
        KERNEL_TESTS,
    ),
    Mutant(
        "fresh-keys-pushed-twice",
        "algebra.py",
        "        self.fresh.clear()\n",
        "",
        KERNEL_TESTS,
    ),
    Mutant(
        "head-read-without-mod-p",
        "algebra.py",
        "            c = coeffs[key] % p\n",
        "            c = coeffs[key]\n",
        KERNEL_TESTS,
    ),
    Mutant(
        "cancelled-head-left",
        "algebra.py",
        "        del self.coeffs[-_heappop(self.heap)]\n",
        "        _heappop(self.heap)\n",
        KERNEL_TESTS,
    ),
    # -- lex tails that outgrow their heads (algebra.ReducerSet._candidate
    #    and fold_normal_form)
    Mutant(
        "lex-elimination-unchecked",
        "algebra.py",
        "            if tail_deg:\n                ring.check_degree(kd(off + unit) + tail_deg)\n",
        "",
        LEX_GUARD_TESTS,
    ),
    Mutant(
        # the incoming multiple a top-reduction step folds goes unchecked
        "lex-incoming-multiple-unchecked",
        "algebra.py",
        "        tail_deg = 0 if ring._graded or not off else",
        "        tail_deg = 0 if True else",
        LEX_GUARD_TESTS,
    ),
    Mutant(
        # a swapped tail keeps the degree of the tail it replaced
        "replaced-tail-degree-stale",
        "algebra.py",
        "        self._cands[i][4:] = self._tail(g)\n",
        "        self._cands[i][4] = g.terms[1:]\n",
        LEX_GUARD_TESTS,
    ),
    # -- the one term-by-term product loop (algebra.sum_products)
    Mutant(
        "products-degree-unguarded",
        "algebra.py",
        "        if not (ring._graded and ta[0][0] + tb[0][0] < ring._deg_cap):\n"
        "            ring.check_degree(a.degree() + b.degree())\n",
        "",
        SUM_PRODUCTS_TESTS,
    ),
    Mutant(
        "products-guard-graded-only",
        "algebra.py",
        "        if not (ring._graded and ta[0][0] + tb[0][0] < ring._deg_cap):\n",
        "        if ring._graded and ta[0][0] + tb[0][0] >= ring._deg_cap:\n",
        SUM_PRODUCTS_TESTS,
    ),
    Mutant(
        # a lex head need not be its polynomial's largest-degree term
        "products-guard-head-degrees-only",
        "algebra.py",
        "            ring.check_degree(a.degree() + b.degree())\n",
        "            ring.check_degree(ring.key_degree(ta[0][0]) + ring.key_degree(tb[0][0]))\n",
        SUM_PRODUCTS_TESTS,
    ),
    Mutant(
        "products-sum-without-mod-p",
        "algebra.py",
        "    terms = [(k, r) for k, c in acc.items() if (r := c % p)]\n",
        "    terms = [(k, c) for k, c in acc.items() if c]\n",
        SUM_PRODUCTS_TESTS,
    ),
    # -- polynomials of two rings never combine (algebra.one_ring and its callers)
    Mutant(
        "merge-ring-unchecked",
        "algebra.py",
        "        ring = one_ring(self.ring, other.ring)\n",
        "        ring = self.ring\n",
        RING_TESTS,
    ),
    Mutant(
        "products-ring-unchecked",
        "algebra.py",
        "            one_ring(one_ring(ring, a.ring), b.ring)\n",
        "            pass\n",
        RING_TESTS,
    ),
    Mutant(
        "reducer-set-ring-unchecked",
        "algebra.py",
        "        for g in polys:\n            one_ring(ring, g.ring)\n",
        "",
        RING_TESTS,
    ),
    Mutant(
        "reduce-full-ring-unchecked",
        "algebra.py",
        "WorkingPayload(one_ring(self.ring, f.ring).zero)",
        "WorkingPayload(self.ring.zero)",
        RING_TESTS,
    ),
    Mutant(
        "homogenize-ring-unchecked",
        "algebra.py",
        "    for f in polys:\n        one_ring(ring, f.ring)\n",
        "    for f in polys:\n",
        RING_TESTS,
    ),
    # -- the reducer choice: the smallest dividing head against a Groebner
    #    basis (drivers.run_variant, algebra.reduced_basis and
    #    drivers.buchberger_reduced); the same results, other work
    Mutant(
        "f5-prev-largest-head",
        "drivers.py",
        "ReducerSet(ring, polys, prefer=-1, cofactors=cofs)",
        "ReducerSet(ring, polys, cofactors=cofs)",
        RUN_STATS_TESTS,
    ),
    Mutant(
        # f5r's carried set and f5c's rebuilt one keep the tail pass's choice
        "carried-set-largest-head",
        "algebra.py",
        "    shared._prefer = -1\n",
        "",
        RUN_STATS_TESTS,
    ),
    Mutant(
        "oracle-largest-head",
        "drivers.py",
        "ReducerSet(ring, [], prefer=-1)",
        "ReducerSet(ring, [])",
        ORACLE_CHOICE_TESTS,
    ),
    Mutant(
        "tail-pass-smallest-head",
        "algebra.py",
        "    shared = ReducerSet(ring, kept, cofactors=kcofs)\n",
        "    shared = ReducerSet(ring, kept, prefer=-1, cofactors=kcofs)\n",
        TAIL_PASS_TESTS,
    ),
    # -- a set grown in place (algebra.ReducerSet.add) answers as a fresh one
    Mutant(
        "add-overwrites-regardless-of-prefer",
        "algebra.py",
        "                elif hk < old[0] if smallest else hk >= old[0]:\n",
        "                elif True:\n",
        ADD_TESTS,
    ),
    Mutant(
        "add-skips-irreducible-entries",
        "algebra.py",
        "                    made.append(key)\n                    cache[key] = cand\n",
        "                    made.append(key)\n",
        ADD_TESTS,
    ),
    Mutant(
        # the oracle re-reduces no tail: a basis that is not reduced
        "add-returns-no-keys",
        "algebra.py",
        "        return made\n",
        "        return []\n",
        ADD_TESTS + ORACLE_WORK_TESTS,
    ),
    Mutant(
        "add-merges-no-new-keys",
        "algebra.py",
        "        if len(cache) > len(swept):\n"
        "            swept += islice(reversed(cache), len(cache) - len(swept))\n"
        "            swept.sort()\n",
        "",
        ADD_TESTS,
    ),
    Mutant(
        "add-ties-to-the-new-candidate",
        "algebra.py",
        "at = bisect.bisect_right(self._keys, hk)",
        "at = bisect.bisect_left(self._keys, hk)",
        ADD_TESTS,
    ),
    # -- the packed-key lcm (algebra.PolynomialRing.lcms; lcm is its one-pair case)
    Mutant(
        "lcm-selects-minimum",
        "algebra.py",
        "            w = wb ^ ((wa ^ wb) &",
        "            w = wa ^ ((wa ^ wb) &",
        LCM_TESTS,
    ),
    Mutant(
        "lcm-degree-unchecked",
        "algebra.py",
        "        self.check_degree(dmax)\n",
        "",
        LCM_TESTS,
    ),
    Mutant(
        # lcm(a, b) alone still checks its degree; a batch checks its last lcm
        "lcms-checks-last-degree-only",
        "algebra.py",
        "            if d > dmax:\n                dmax = d\n",
        "            dmax = d\n",
        LCM_TESTS,
    ),
    # -- the phantom rules of F5C's rebuild (drivers.setup_reduced_basis)
    Mutant(
        "phantom-row-misaligned",
        "drivers.py",
        "enumerate(ring.lcms(t, heads[j + 1:]), start=j + 1)",
        "enumerate(ring.lcms(t, heads[j + 1:]), start=j)",
        ("tests/test_drivers.py::test_setup_reduced_basis_phantom_rule_monomials",),
    ),
    # -- the Gebauer-Moller update of the oracle and the check
    #    (drivers._gm_update), on exponent words
    Mutant(
        "no-product-criterion",
        "drivers.py",
        "    E = [i for i, k in enumerate(keep) if k and not coprime[i]]\n",
        "    E = [i for i, k in enumerate(keep) if k]\n",
        GM_TESTS,
    ),
    Mutant(
        "no-chain-test-among-new-pairs",
        "drivers.py",
        "        if coprime[i] or not any(",
        "        if True or not any(",
        GM_TESTS,
    ),
    Mutant(
        # among equal lcms the first stays, not the last: the same number of
        # pairs, but other ones, with other serials
        "chain-test-keeps-the-first-equal-lcm",
        "drivers.py",
        "sorted(range(len(row) - 1, -1, -1), key=row.__getitem__)",
        "sorted(range(len(row)), key=row.__getitem__)",
        GM_REFERENCE_TESTS,
    ),
    # -- the oracle's running basis, kept reduced in place
    #    (drivers.buchberger_reduced)
    Mutant(
        # the tail is swapped in G and in polys but not in the candidate: the
        # same basis, but later reductions meet the stale tail
        "oracle-swap-skips-candidate",
        "drivers.py",
        "            reducers.replace_tail(pos, e[0])\n",
        "            reducers.polys[pos] = e[0]\n",
        ORACLE_WORK_TESTS,
    ),
    Mutant(
        # the index keeps the old tail's keys: a key only the new tail holds
        # is never found again
        "oracle-index-not-updated",
        "drivers.py",
        "            reindex(pos, g, e[0])\n",
        "",
        ORACLE_WORK_TESTS,
    ),
    Mutant(
        # the elements that left G stay indexed: a new head that makes a key
        # of such a tail reducible sends the oracle to an entry that is gone
        "oracle-keeps-dropped-entries-indexed",
        "drivers.py",
        "                    reindex(pos, e[0], ring.zero)\n",
        "",
        ORACLE_WORK_TESTS,
    ),
    Mutant(
        "no-chain-test-on-old-pairs",
        "drivers.py",
        "        if ((p[1] ^ unit | g) - wh) & g != g or",
        "        if True or",
        GM_TESTS,
    ),
    # -- the check (drivers.groebner_check): the elements reduced_basis
    #    drops must reduce to zero against the kept ones
    Mutant(
        "check-skips-dropped-elements",
        "drivers.py",
        "    if any(map(reducers.reduce_full, dropped)):\n        return False\n",
        "",
        ("tests/test_drivers.py::test_groebner_check_reduces_the_dropped_elements",),
    ),
    # -- the S-polynomial's degree guard (algebra.spoly)
    Mutant(
        # the lcm still packs; y^13000 times the tail y^20000 wraps into x
        "spoly-lex-tails-unchecked",
        "algebra.py",
        "    if not ring._graded:\n        kd = ring.key_degree\n",
        "    if False:\n        kd = ring.key_degree\n",
        LEX_GUARD_TESTS,
    ),
    # -- the certified check (sigcore.admissible_check)
    Mutant(
        "admissible-no-length-clause",
        "sigcore.py",
        "    if len(cof) != len(system):\n        return False\n",
        "",
        ADMISSIBLE_TESTS,
    ),
    Mutant(
        "admissible-no-vanishing-clause",
        "sigcore.py",
        "    for lam in range(nu, len(cof)):\n"
        "        if not cof[lam].is_zero():\n"
        "            return False\n",
        "",
        ADMISSIBLE_TESTS,
    ),
    Mutant(
        "admissible-heads-only",
        "sigcore.py",
        "    return sum_products(ring, zip(cof, system)) == entry.poly\n",
        "    return True\n",
        CRITERIA_TESTS,
    ),
    Mutant(
        "no-phantom-rules",
        "drivers.py",
        "    if not skip_rule_rebuild:\n",
        "    if False:\n",
        CRITERIA_TESTS,
    ),
    Mutant(
        "find-rewriting-returns-k",
        "sigcore.py",
        "                return j\n        return k\n",
        "                return k\n        return k\n",
        CRITERIA_TESTS,
    ),
    Mutant(
        "reductor-scan-done-first",
        "engine.py",
        "        for j in chain(curr, done):\n",
        "        for j in chain(done, curr):\n",
        CRITERIA_TESTS,
        equivalent="no find_reductor call in f5, f5r or f5c on katsura-5/6, cyclic-5/6"
        " or 3,000 random 3-variable systems has two candidates that pass all three"
        " safety tests, so the scan order never decides",
    ),
    # -- the candidates F5Engine.find_reductor scans: this iteration's
    #    elements (incremental_basis), each through three safety tests
    Mutant(
        "reductor-scan-done-dropped",
        "engine.py",
        "        for j in chain(curr, done):\n",
        "        for j in curr:\n",
        SCAN_TESTS,
    ),
    Mutant(
        # no head of the previous basis divides a normal form against it, so
        # only the check of the scanned list sees this one
        "reductor-scan-previous-basis-again",
        "engine.py",
        "self.reduction(todo, prev, curr[len(prev_indices):])",
        "self.reduction(todo, prev, curr)",
        SCAN_TESTS,
    ),
    Mutant(
        "reductor-scan-new-input-left-out",
        "engine.py",
        "self.reduction(todo, prev, curr[len(prev_indices):])",
        "self.reduction(todo, prev, curr[len(prev_indices) + 1:])",
        SCAN_TESTS,
    ),
    Mutant(
        "reductor-rewritten-test-dropped",
        "engine.py",
        "                and not is_rewritable(u_key, sigs[j], j)\n",
        "",
        SCAN_TESTS,
    ),
    Mutant(
        "reductor-previous-basis-test-dropped",
        "engine.py",
        "                and not is_top_reducible(new_sig & mask)\n",
        "",
        SCAN_TESTS,
    ),
    # -- the system-file parser (cli.parse_polynomial and parse_system)
    Mutant(
        "int-token-takes-word-chars",
        "cli.py",
        "(?P<INT>\\d+)",
        "(?P<INT>\\d\\w*)",
        PARSER_TESTS,
    ),
    Mutant(
        "name-may-start-with-any-word-char",
        "cli.py",
        'if kind == "bad" or kind == "NAME" and not value[0].isalpha():',
        'if kind == "bad":',
        PARSER_TESTS,
    ),
    Mutant(
        "tab-not-a-blank",
        "cli.py",
        'r"[ \\t]+|',
        'r"[ ]+|',
        PARSER_TESTS,
    ),
    Mutant(
        "end-token-on-last-character",
        "cli.py",
        'tokens.append(("end", "", len(text) + 1))',
        'tokens.append(("end", "", len(text)))',
        PARSER_TESTS,
    ),
    Mutant(
        "exponent-adds-to-the-first-power",
        "cli.py",
        "            exps[var] += int(value) - 1",
        "            exps[var] += int(value)",
        PARSER_TESTS,
    ),
    Mutant(
        "overflow-escapes-the-parser",
        "cli.py",
        "except (ValueError, ExponentOverflowError) as exc:",
        "except ValueError as exc:",
        PARSER_TESTS,
    ),
    Mutant(
        "names-checked-at-polys",
        "cli.py",
        "                check(check_names, names, line_no, 6)\n",
        "",
        PARSER_TESTS,
    ),
    Mutant(
        "char-checked-at-polys",
        "cli.py",
        "                if char_override is None:\n"
        "                    check(PrimeField, char, line_no, 6)\n",
        "",
        PARSER_TESTS,
    ),
    Mutant(
        "order-checked-at-polys",
        "cli.py",
        "                check(TermOrder, order, line_no, 7)\n",
        "",
        PARSER_TESTS,
    ),
    Mutant(
        "char-accepts-digit-like",
        "cli.py",
        "if not value.isdecimal():",
        "if not value.isdigit():",
        PARSER_TESTS,
    ),
)


def _copy_tree(dest: str) -> None:
    for name in ("src", "tests"):
        shutil.copytree(
            os.path.join(ROOT, name),
            os.path.join(dest, name),
            ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
        )
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dest)


def _mutated(root: str, mutant: Mutant) -> str:
    """The text of mutant.file under root with the edit applied."""
    with open(os.path.join(root, "src", "f5gb", mutant.file)) as fh:
        text = fh.read()
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: the old text occurs {count} times in {mutant.file}")
    return text.replace(mutant.old, mutant.new)


def _run_selection(dest: str, tests) -> tuple[bool, float]:
    """(passed, seconds) for one pytest run of tests in the copy at dest."""
    env = dict(os.environ, PYTHONPATH=os.path.join(dest, "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    start = time.perf_counter()
    try:
        done = subprocess.run(
            cmd, cwd=dest, env=env, capture_output=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return False, time.perf_counter() - start
    return done.returncode == 0, time.perf_counter() - start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = ap.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        ap.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [known[n] for n in args.names] if args.names else list(MUTANTS)
    try:
        for m in chosen:  # every edit applies before anything runs
            _mutated(ROOT, m)
    except ValueError as exc:
        print(exc)
        return 2
    with tempfile.TemporaryDirectory(prefix="f5gb-mutants-") as tmp:
        clean = os.path.join(tmp, "clean")
        _copy_tree(clean)
        for tests in dict.fromkeys(m.tests for m in chosen):
            passed, secs = _run_selection(clean, tests)
            if not passed:
                print(f"selection fails without a mutant ({secs:.1f} s): {' '.join(tests)}")
                return 2
        shutil.rmtree(clean)
        status = 0
        for m in chosen:
            dest = os.path.join(tmp, m.name)
            _copy_tree(dest)
            text = _mutated(dest, m)
            with open(os.path.join(dest, "src", "f5gb", m.file), "w") as fh:
                fh.write(text)
            passed, secs = _run_selection(dest, m.tests)
            shutil.rmtree(dest)
            if not passed:
                verdict = "killed"
            elif m.equivalent:
                verdict = f"survived (equivalent: {m.equivalent})"
            else:
                verdict = "SURVIVED"
                status = 1
            print(f"{m.name:40s} {verdict}  ({secs:.1f} s)", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
