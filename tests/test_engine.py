"""Engine-level tests: critical pairs, S-polynomial generation, reduction.

The concrete expected values come from a hand trace of the worked
three-generator ideal; each intermediate matches the published run.
"""

import pytest

from f5gb.algebra import PolynomialRing, ReducerSet, reduce_payload
from f5gb.engine import CriticalPair, F5Engine, IterationStats, RunStats
from f5gb.sigcore import Signature, cofactors_scale, cofactors_sub
from tests.conftest import poly, polys


def seeded_engine(xyzt, appendix_system, **kw):
    """Engine mid-run: f1, f2 seeded the way the driver does for iteration 2."""
    ring = xyzt
    engine = F5Engine(ring, stats=RunStats("f5", ring.p, "grevlex"), **kw)
    fs = sorted(appendix_system, key=lambda f: (f.degree(), f.lt_key()))
    engine.store.append(Signature(ring, ring.unit_key, 1).packed, fs[0].monic())
    engine.begin_iteration(2)
    engine.store.append(Signature(ring, ring.unit_key, 2).packed, fs[1].monic())
    return engine, fs


def test_input_sort_order(xyzt, appendix_system):
    fs = sorted(appendix_system, key=lambda f: (f.degree(), f.lt_key()))
    assert [str(f.ring.render(f)) for f in fs] == [
        "x*z^2 - y^2*t",
        "x^2*y - z^2*t",
        "y*z^3 - x^2*t^2",
    ]


def test_critical_pair_first_iteration(xyzt, appendix_system):
    engine, fs = seeded_engine(xyzt, appendix_system)
    prev = ReducerSet(xyzt, [fs[0]])
    cp = engine.critical_pair(2, 1, 2, prev)
    lcm, k, u, l, v = cp.decoded(xyzt)
    assert lcm == (2, 1, 2, 0)  # x^2*y*z^2, degree 5
    assert (k, l) == (2, 1)
    assert u == (0, 0, 2, 0)  # z^2
    assert v == (1, 1, 0, 0)  # x*y
    assert cp.degree == 5


def test_critical_pair_rejected_by_previous_basis_criterion(xyzt, appendix_system):
    engine, fs = seeded_engine(xyzt, appendix_system)
    prev = ReducerSet(xyzt, [fs[0]])
    # compute through degree 5 so entry 3 = x*y^3*t - z^4*t with sig z^2 e2
    cp = engine.critical_pair(2, 1, 2, prev)
    todo = engine.compute_spols([cp])
    assert todo == [3]
    assert xyzt.render(engine.store.poly(3)) == "x*y^3*t - z^4*t"
    assert engine.store.sig(3) == Signature(xyzt, (0, 0, 2, 0), 2)
    # pair {3, 2}: u1*mu1 = x*z^2 is top-reducible by the previous basis
    assert engine.critical_pair(3, 2, 2, prev) is None
    # pair {3, 1} survives with lcm x*y^3*z^2*t of degree 7
    cp2 = engine.critical_pair(3, 1, 2, prev)
    lcm, k, u, l, v = cp2.decoded(xyzt)
    assert lcm == (1, 3, 2, 1)
    assert (k, l) == (3, 1)
    assert u == (0, 0, 2, 0)
    assert v == (0, 3, 0, 1)
    assert cp2.degree == 7


def test_compute_spols_appends_rule_and_sorts(xyzt, appendix_system):
    engine, fs = seeded_engine(xyzt, appendix_system)
    prev = ReducerSet(xyzt, [fs[0]])
    cp = engine.critical_pair(2, 1, 2, prev)
    engine.compute_spols([cp])
    assert engine.rules.rules_for(2) == [((0, 0, 2, 0), 3)]
    cp2 = engine.critical_pair(3, 1, 2, prev)
    todo = engine.compute_spols([cp2])
    assert todo == [4]
    # monic normalization happens at completion, not at construction
    s = engine.store.poly(4)
    assert s.lt() == (0, 0, 6, 1)  # z^6*t
    assert engine.store.sig(4) == Signature(xyzt, (0, 0, 4, 0), 2)
    assert engine.rules.rules_for(2) == [((0, 0, 2, 0), 3), ((0, 0, 4, 0), 4)]


def test_compute_spols_skips_rewritable_pair(xyzt, appendix_system):
    engine, fs = seeded_engine(xyzt, appendix_system)
    prev = ReducerSet(xyzt, [fs[0]])
    cp = engine.critical_pair(2, 1, 2, prev)
    engine.compute_spols([cp])
    # replaying the identical pair: u*sig(2) = z^2 e2 is now recorded as
    # rule (z^2, 3), so the component is rewritable and nothing is appended
    before = engine.store.size
    assert engine.compute_spols([cp]) == []
    assert engine.store.size == before


def test_reduction_survivor_and_stats(xyzt, appendix_system):
    engine, fs = seeded_engine(xyzt, appendix_system)
    prev = ReducerSet(xyzt, [fs[0], fs[1]])
    cp = engine.critical_pair(2, 1, 2, prev)
    todo = engine.compute_spols([cp])
    done = engine.reduction(todo, prev, [1, 2])
    assert done == [3]
    assert engine.store.poly(3) == poly(xyzt, "x*y^3*t - z^4*t")
    assert engine.it_stats.spolys == 1
    assert engine.it_stats.zero_reductions == 0


def test_reduction_empty_todo(xyzt, appendix_system):
    engine, fs = seeded_engine(xyzt, appendix_system)
    prev = ReducerSet(xyzt, [fs[0]])
    assert engine.reduction([], prev, [1, 2]) == []


def test_reduction_to_zero_counted():
    # the homogenized 4-cycle system has a non-principal syzygy that survives
    # the criteria and produces exactly one reduction to zero
    from f5gb.bench import cyclic
    from f5gb.drivers import f5

    lines = []
    result = f5(cyclic(4, 101), trace=lines.append)
    assert result.stats.zero_reductions == 1
    assert lines.count("Reduction to zero!") == 1


def test_top_reduction_zero_payload(xyzt, appendix_system):
    engine, fs = seeded_engine(xyzt, appendix_system)
    prev = ReducerSet(xyzt, [fs[0]])
    k = engine.store.append(
        Signature(xyzt, (0, 0, 2, 0), 2).packed, xyzt.zero
    )
    completed, redo = engine.top_reduction(k, prev, [1, 2], [])
    assert completed == () and redo == ()
    assert engine.it_stats.zero_reductions == 1


def test_top_reduction_no_reductor_normalizes(xyzt, appendix_system):
    engine, fs = seeded_engine(xyzt, appendix_system)
    prev = ReducerSet(xyzt, [fs[0]])
    k = engine.store.append(
        Signature(xyzt, (0, 0, 2, 0), 2).packed, poly(xyzt, "7*z^6*t - 7*y^5*t^2")
    )
    completed, redo = engine.top_reduction(k, prev, [1, 2], [])
    assert completed == (k,) and redo == ()
    assert engine.store.poly(k) == poly(xyzt, "z^6*t - y^5*t^2")


def test_top_reduction_unsafe_branch_creates_entry():
    # reductor with larger multiplied signature spawns a new labeled
    # polynomial instead of rewriting entry k in place
    ring = PolynomialRing(101, ("x", "y"))
    engine = F5Engine(ring, stats=RunStats("f5", 101, "grevlex"))
    engine.store.append(Signature(ring, ring.unit_key, 1).packed, poly(ring, "y^3"))
    engine.begin_iteration(2)
    j = engine.store.append(Signature(ring, (1, 0), 2).packed, poly(ring, "x^2"))
    k = engine.store.append(Signature(ring, (0, 1), 2).packed, poly(ring, "x^2 + y^2"))
    engine.rules.ensure_index(2)
    prev = ReducerSet(ring, [])
    completed, redo = engine.top_reduction(k, prev, [j], [])
    assert completed == ()
    assert redo == (k, engine.store.size)
    new = engine.store.size
    # the new entry carries signature 1*sig(j) = x e2 and the reduced payload
    assert engine.store.sig(new) == Signature(ring, (1, 0), 2)
    assert engine.store.poly(new) == poly(ring, "y^2")
    # entry k itself is untouched by the unsafe step
    assert engine.store.poly(k) == poly(ring, "x^2 + y^2")
    assert engine.rules.rules_for(2)[-1] == ((1, 0), new)


def unsafe_system():
    """Three deglex generators over F_7, found by randomized search, that
    drive top_reduction through the signature-raising branch."""
    ring = PolynomialRing(7, ("w", "x", "y"), "deglex")
    return polys(
        ring,
        "w^2*x + w*x*y - 2*w*y^2 + x^3 + 2*x*y^2",
        "-3*w^2*x + 2*w*x^2",
        "-3*w^2*y + 2*w*y^2 + 2*x*y^2",
    )


def test_unsafe_branch_organic_system_certified():
    # this three-generator system drives top_reduction through the
    # signature-raising branch three times; in certified mode every spawned
    # entry passes its admissibility check, and the final bases still agree
    # with the oracle
    import f5gb.engine as eng
    from f5gb.algebra import interreduce
    from f5gb.drivers import VariantConfig, buchberger_reduced, f5, f5c

    gens = unsafe_system()
    unsafe = [0]
    orig = eng.F5Engine.top_reduction

    def counting(self, k, prev, curr, done, raw):
        completed, redo = orig(self, k, prev, curr, done, raw)
        if len(redo) == 2:
            unsafe[0] += 1
        return completed, redo

    eng.F5Engine.top_reduction = counting
    try:
        certified = f5(gens, config=VariantConfig("f5", certified=True))
        assert unsafe[0] == 3
        reduced = f5c(gens, config=VariantConfig("f5c", certified=True))
    finally:
        eng.F5Engine.top_reduction = orig
    assert interreduce(certified.basis) == reduced.basis == buchberger_reduced(gens)
    assert certified.stats.zero_reductions == 5


@pytest.mark.parametrize("certified", [False, True], ids=["plain", "certified"])
def test_requeued_entries_are_not_normal_formed_again(certified, monkeypatch):
    # an unsafe split requeues k and the split's new entry, both stored as
    # normal forms against the previous basis: only a raw S-polynomial's
    # chain starts with reduce_full, whose engine calls are the ones that
    # pass stats, so they number chains - 2 * unsafe_splits
    from f5gb.bench import cyclic, katsura
    from f5gb.drivers import VARIANTS, VariantConfig, run_variant

    calls = [0]
    orig = ReducerSet.reduce_full

    def counted(self, f, stats=None, quotients=None):
        calls[0] += stats is not None
        return orig(self, f, stats, quotients)

    monkeypatch.setattr(ReducerSet, "reduce_full", counted)
    splits = 0
    for F in (unsafe_system(), cyclic(5, 101), katsura(4, 101)):
        for variant in VARIANTS:
            calls[0] = 0
            its = run_variant(F, VariantConfig(variant, certified=certified)).stats.iterations
            unsafe = sum(it.unsafe_splits for it in its)
            assert calls[0] == sum(it.chains for it in its) - 2 * unsafe, (F, variant)
            splits += unsafe
    assert splits


def test_top_reduction_safe_branch_rewrites_in_place():
    ring = PolynomialRing(101, ("x", "y"))
    engine = F5Engine(ring, stats=RunStats("f5", 101, "grevlex"))
    engine.store.append(Signature(ring, ring.unit_key, 1).packed, poly(ring, "y^3"))
    engine.begin_iteration(2)
    j = engine.store.append(Signature(ring, (0, 1), 2).packed, poly(ring, "x^2"))
    k = engine.store.append(Signature(ring, (1, 0), 2).packed, poly(ring, "x^2 + y^2"))
    engine.rules.ensure_index(2)
    prev = ReducerSet(ring, [])
    completed, redo = engine.top_reduction(k, prev, [j], [])
    # the safe step's result y^2 has no reductor, so the chain ends there
    assert completed == (k,) and redo == ()
    assert engine.store.poly(k) == poly(ring, "y^2")
    assert engine.store.sig(k) == Signature(ring, (1, 0), 2)


def test_find_reductor_rejects_equal_signature():
    ring = PolynomialRing(101, ("x", "y"))
    engine = F5Engine(ring, stats=RunStats("f5", 101, "grevlex"))
    engine.store.append(Signature(ring, ring.unit_key, 1).packed, poly(ring, "y^3"))
    engine.begin_iteration(2)
    j = engine.store.append(Signature(ring, (0, 1), 2).packed, poly(ring, "x^2"))
    k = engine.store.append(Signature(ring, (0, 1), 2).packed, poly(ring, "x^2 + y^2"))
    prev = ReducerSet(ring, [])
    assert engine.find_reductor(k, engine.store.heads[k], prev, [j], []) is None


def test_find_reductor_rejects_criterion_blocked_candidate(xyzt, appendix_system):
    # iteration 3 of the worked ideal: y^6*t^2 is divisible by y^5*t^2, but
    # the multiplied signature monomial x^2*y*z is top-reducible by the
    # previous basis, so the reduction is forbidden and the redundant head
    # stays in the basis
    from f5gb.drivers import f5

    result = f5(appendix_system)
    heads = {xyzt.render_monomial(g.lt()) for g in result.basis}
    assert "y^6*t^2" in heads and "y^5*t^2" in heads


def test_incremental_basis_iteration_two(xyzt, appendix_system):
    engine, fs = seeded_engine(xyzt, appendix_system)
    prev = ReducerSet(xyzt, [fs[0]])
    curr = engine.incremental_basis(2, prev, [1])
    assert curr == [1, 2, 3, 4]
    assert sorted(engine.it_stats.pairs_by_degree.items()) == [(5, 1), (7, 1)]
    assert engine.it_stats.basis_size == 4


def test_incremental_basis_iteration_three_degrees(xyzt, appendix_system):
    engine, fs = seeded_engine(xyzt, appendix_system)
    prev = ReducerSet(xyzt, [fs[0]])
    curr = engine.incremental_basis(2, prev, [1])
    engine.begin_iteration(3)
    engine.store.append(Signature(xyzt, xyzt.unit_key, 3).packed, fs[2])
    prev = ReducerSet(xyzt, [engine.store.poly(k) for k in curr])
    curr = engine.incremental_basis(3, prev, curr)
    assert len(curr) == 10
    assert sorted(engine.it_stats.pairs_by_degree.items()) == [
        (5, 1),
        (6, 1),
        (7, 4),
        (8, 1),
    ]


def test_degree_stream_nondecreasing_and_rule_appends_match_store(xyzt, appendix_system):
    ring = xyzt
    engine = F5Engine(ring, stats=RunStats("f5", ring.p, "grevlex"))
    fs = sorted(appendix_system, key=lambda f: (f.degree(), f.lt_key()))
    engine.store.append(Signature(ring, ring.unit_key, 1).packed, fs[0])
    seen_lines = []
    engine.trace = lambda line: seen_lines.append(line)
    prev_indices = [1]
    for i in (2, 3):
        engine.begin_iteration(i)
        engine.store.append(Signature(ring, ring.unit_key, i).packed, fs[i - 1])
        prev = ReducerSet(ring, [engine.store.poly(k) for k in prev_indices])
        seen_lines.clear()
        prev_indices = engine.incremental_basis(i, prev, prev_indices)
        degrees = [
            int(line.rsplit(" ", 1)[1])
            for line in seen_lines
            if line.startswith("Processing")
        ]
        # within one iteration the processed degrees never decrease
        assert degrees == sorted(degrees)
    # every S-polynomial or unsafe-reduction append recorded exactly one rule
    # carrying the identical signature
    recorded = sorted(
        (j, nu, mono)
        for nu in range(1, engine.rules.index_count() + 1)
        for mono, j in engine.rules.rules_for(nu)
        if j
    )
    expected = sorted(
        (k, engine.store.sig(k).index, engine.store.sig(k).monomial)
        for k in range(1, engine.store.size + 1)
        if engine.store.sig(k).monomial != (0, 0, 0, 0)
    )
    assert recorded == expected


# pinned counters of each variant: (pairs, spolys, reduction_steps,
# zero_reductions) and the final basis size; a kernel change that keeps the
# algorithm must keep every one of them.  One change of reducer choice moved
# reduction_steps on purpose: since reductions against a Groebner basis
# (f5's raw basis, the carried F5R and F5C sets) take the smallest dividing
# head, katsura-5 takes 1,014, 510 and 423 steps, not 919, 506 and 420, while
# katsura-6 f5 fell from 20,035 to 19,239 and cyclic-5 did not move
GOLDEN_RUN_STATS = {
    ("katsura-5", "f5"): ((36, 28, 1014, 0), 34),
    ("katsura-5", "f5r"): ((36, 28, 510, 0), 34),
    ("katsura-5", "f5c"): ((29, 28, 423, 0), 22),
    ("cyclic-5", "f5"): ((71, 38, 271, 0), 43),
    ("cyclic-5", "f5r"): ((71, 38, 264, 0), 43),
    ("cyclic-5", "f5c"): ((48, 38, 261, 0), 38),
}


@pytest.mark.parametrize("name, variant", sorted(GOLDEN_RUN_STATS))
def test_run_stats_golden(name, variant):
    from f5gb.bench import cyclic, katsura
    from f5gb.drivers import VariantConfig, run_variant

    F = katsura(5) if name == "katsura-5" else cyclic(5)
    totals, size = GOLDEN_RUN_STATS[name, variant]
    plain = run_variant(F, VariantConfig(variant))
    assert tuple(plain.stats.totals().values()) == totals
    assert plain.stats.basis_size_final == size
    certified = run_variant(F, VariantConfig(variant, certified=True))
    assert certified.basis == plain.basis
    assert certified.stats.to_dict() == plain.stats.to_dict()


# per iteration: the eliminations of the rebuild's tail pass and the elements
# its head minimization dropped.  f5r and f5c both rebuild reduced(B_{i-1})
# plus the new elements at the end of iteration i, so their rows agree but
# in the last iteration, which f5r skips (its output is the raw basis); f5
# never rebuilds.  Each tail reduces against the reduced tails of the
# elements below it; against their raw tails it would take 160, 381, 15 and
# 85 steps in all (cyclic-5 under f5r takes 15 either way).
GOLDEN_INTERREDUCTION = {
    ("katsura-5", "f5r"): ([1, 3, 28, 85, 0], [0, 0, 1, 3, 0]),
    ("katsura-5", "f5c"): ([1, 3, 28, 85, 198], [0, 0, 1, 3, 8]),
    ("cyclic-5", "f5r"): ([0, 1, 14, 0], [1, 1, 1, 0]),
    ("cyclic-5", "f5c"): ([0, 1, 14, 69], [1, 1, 1, 2]),
    ("cyclic-5", "f5"): ([0, 0, 0, 0], [0, 0, 0, 0]),
}


@pytest.mark.parametrize("name, variant", sorted(GOLDEN_INTERREDUCTION))
def test_interreduction_counters_golden(name, variant):
    from f5gb.bench import cyclic, katsura
    from f5gb.drivers import VariantConfig, run_variant

    F = katsura(5) if name == "katsura-5" else cyclic(5)
    steps, dropped = GOLDEN_INTERREDUCTION[name, variant]
    its = run_variant(F, VariantConfig(variant)).stats.iterations
    assert [it.to_dict()["interreduction_steps"] for it in its] == steps
    assert [it.to_dict()["dropped"] for it in its] == dropped


# per iteration: candidate pairs the F5 criterion dropped, pairs the
# rewritten criterion dropped at pair time, and pairs it dropped in
# compute_spols.  f5r forms the pairs of f5 on the same store, so it drops
# the same ones.
GOLDEN_PAIR_DROPS = {
    ("katsura-5", "f5"): ([1, 4, 17, 91, 388], [0, 0, 2, 4, 18], [0, 0, 0, 5, 3]),
    ("katsura-5", "f5r"): ([1, 4, 17, 91, 388], [0, 0, 2, 4, 18], [0, 0, 0, 5, 3]),
    ("katsura-5", "f5c"): ([1, 4, 17, 83, 323], [0, 0, 2, 8, 17], [0, 0, 0, 0, 1]),
    ("cyclic-5", "f5"): ([2, 8, 59, 683], [0, 1, 6, 73], [0, 1, 4, 28]),
    ("cyclic-5", "f5r"): ([2, 8, 59, 683], [0, 1, 6, 73], [0, 1, 4, 28]),
    ("cyclic-5", "f5c"): ([2, 6, 45, 599], [0, 1, 8, 88], [0, 0, 0, 10]),
}


@pytest.mark.parametrize("name, variant", sorted(GOLDEN_PAIR_DROPS))
def test_pair_drop_counters_golden(name, variant):
    from f5gb.bench import cyclic, katsura
    from f5gb.drivers import VariantConfig, run_variant

    F = katsura(5) if name == "katsura-5" else cyclic(5)
    stats = run_variant(F, VariantConfig(variant)).stats
    its = [it.to_dict() for it in stats.iterations]
    keys = ("pairs_f5_criterion", "pairs_rewritten", "spolys_rewritten")
    assert tuple([it[key] for it in its] for key in keys) == GOLDEN_PAIR_DROPS[name, variant]
    # every kept pair is either made into an S-polynomial or rewritten there
    for it in its:
        assert sum(it["pairs_by_degree"].values()) == it["spolys"] + it["spolys_rewritten"]
    assert set(stats.totals()) == {"pairs", "spolys", "reduction_steps", "zero_reductions"}


def per_pair_critical_pair(engine, k, l, i, prev):
    """Reference for F5Engine.critical_pairs: one pair, one call chain.

    Returns (pair or None, reason), reason naming the criterion that
    dropped the pair ("f5" or "rewritten"), or None for a kept pair.
    """
    ring = engine.ring
    heads, sigs = engine.store.heads, engine.store.sigs
    lcm_key = ring.lcm(heads[k], heads[l])
    u1 = ring.key_div(lcm_key, heads[k])
    u2 = ring.key_div(lcm_key, heads[l])
    us1 = ring.key_mul(u1, sigs[k])
    us2 = ring.key_mul(u2, sigs[l])
    base = i << ring.sig_shift
    for us in (us1, us2):
        if us >= base and prev.is_top_reducible(us - base):
            return None, "f5"
    rules = engine.rules
    if rules.is_rewritable(u1, sigs[k], k) or rules.is_rewritable(u2, sigs[l], l):
        return None, "rewritten"
    if us1 < us2:
        k, l, u1, u2 = l, k, u2, u1
    return CriticalPair(lcm_key, ring.key_degree(lcm_key), k, u1, l, u2), None


def _pair_fields(cp):
    return (cp.lcm_key, cp.degree, cp.k, cp.u_key, cp.l, cp.v_key)


def test_critical_pairs_match_the_per_pair_reference(monkeypatch):
    # every batch of real runs, in every variant, keeps the pairs the
    # per-pair reference keeps, in the same order and with the same fields,
    # and counts the reference's drops by criterion
    from f5gb.bench import cyclic, katsura
    from f5gb.drivers import VARIANTS, VariantConfig, run_variant

    seen = {"batches": 0, "f5": 0, "rewritten": 0, "kept": 0, "swapped": 0}
    batch = F5Engine.critical_pairs

    def checked(self, k, ls, i, prev):
        expected = [per_pair_critical_pair(self, k, l, i, prev) for l in ls]
        stats = self.it_stats
        before = stats.pairs_f5_criterion, stats.pairs_rewritten
        pairs = batch(self, k, ls, i, prev)
        kept = [cp for cp, _ in expected if cp is not None]
        assert [_pair_fields(cp) for cp in pairs] == [_pair_fields(cp) for cp in kept]
        reasons = [reason for _, reason in expected]
        assert stats.pairs_f5_criterion - before[0] == reasons.count("f5")
        assert stats.pairs_rewritten - before[1] == reasons.count("rewritten")
        seen["batches"] += 1
        seen["f5"] += reasons.count("f5")
        seen["rewritten"] += reasons.count("rewritten")
        seen["kept"] += len(kept)
        seen["swapped"] += sum(cp.k != k for cp in kept)
        return pairs

    monkeypatch.setattr(F5Engine, "critical_pairs", checked)
    systems = [katsura(4), katsura(5), cyclic(4), cyclic(5), unsafe_system()]
    for order in ("lex", "deglex"):
        ring = PolynomialRing(101, ("x", "y", "z"), order)
        systems.append(polys(ring, "x^2 - y*z", "y^2 - x*z", "z^2 - x*y"))
    for F in systems:
        for variant in VARIANTS:
            run_variant(F, VariantConfig(variant))
    assert all(seen.values()), seen


@pytest.mark.parametrize("order", ["grevlex", "deglex", "lex"])
def test_critical_pairs_raise_where_ring_lcm_does(order):
    # heads near the packed-degree limit: lcm(x^16383*z^2, y^16382) has
    # degree 32767 and packs, lcm(x^16383*z^2, y^16383*z) has degree 32768
    from f5gb.algebra import ExponentOverflowError

    ring = PolynomialRing(101, ("x", "y", "z"), order)
    engine = F5Engine(ring, stats=RunStats("f5", 101, order))
    engine.begin_iteration(2)
    for text, index in [("x*y", 1), ("y^16382", 1), ("y^16383*z", 1), ("z^3", 1),
                        ("x^16383*z^2", 2)]:
        engine.store.append(Signature(ring, ring.unit_key, index).packed, poly(ring, text))
    k, ls = 5, [1, 2, 3, 4]
    prev = ReducerSet(ring, [poly(ring, "x*y")])
    heads = engine.store.heads
    overflows = []
    for l in ls:
        try:
            ring.lcm(heads[k], heads[l])
        except ExponentOverflowError:
            overflows.append(l)
    assert overflows == [3]
    for l in ls:
        if l in overflows:
            with pytest.raises(ExponentOverflowError):
                engine.critical_pair(k, l, 2, prev)
        else:
            engine.critical_pair(k, l, 2, prev)
    with pytest.raises(ExponentOverflowError):
        engine.critical_pairs(k, ls, 2, prev)
    kept = engine.critical_pairs(k, [1, 2, 4], 2, prev)
    assert [cp.degree for cp in kept] == [16386, 32767, 16386]


def _is_normal_form(reducers, f):
    steps = IterationStats(i=0)
    return reducers.reduce_full(f, stats=steps) == f and steps.reduction_steps == 0


@pytest.mark.parametrize("certified", [False, True], ids=["plain", "certified"])
def test_stored_payloads_are_normal_forms(certified, monkeypatch):
    # every payload reduction stores, through set_poly or append, is a normal
    # form against the previous basis: the first normal forms of the
    # S-polynomials, the end of each chain of safe steps, a payload stored
    # before an unsafe split and the entry the split creates; and every
    # survivor of reduction is one
    from f5gb.bench import cyclic, katsura
    from f5gb.drivers import VARIANTS, VariantConfig, run_variant
    from f5gb.sigcore import PolyStore

    orig_reduction = F5Engine.reduction
    orig_set, orig_append = PolyStore.set_poly, PolyStore.append
    reducing = []  # the previous basis of the open reduction call
    checked = {"set_poly": 0, "append": 0, "survivor": 0}

    def check(kind, poly):
        if reducing:
            assert _is_normal_form(reducing[-1], poly), kind
            checked[kind] += 1

    def set_poly(self, k, poly, cofactors=None):
        check("set_poly", poly)
        orig_set(self, k, poly, cofactors)

    def append(self, sig, poly, cofactors=None):
        check("append", poly)
        return orig_append(self, sig, poly, cofactors)

    def reduction(self, todo, prev, curr):
        reducing.append(prev)
        try:
            done = orig_reduction(self, todo, prev, curr)
        finally:
            reducing.pop()
        for k in done:
            assert _is_normal_form(prev, self.store.poly(k)), k
            checked["survivor"] += 1
        return done

    monkeypatch.setattr(PolyStore, "set_poly", set_poly)
    monkeypatch.setattr(PolyStore, "append", append)
    monkeypatch.setattr(F5Engine, "reduction", reduction)
    # the deglex system drives the unsafe branch (see the organic test above)
    for F in (katsura(4, 101), cyclic(5, 101), unsafe_system()):
        for variant in VARIANTS:
            run_variant(F, VariantConfig(variant, certified=certified))
    assert all(checked.values()), checked


@pytest.mark.parametrize("certified", [False, True], ids=["plain", "certified"])
def test_find_reductor_scans_only_the_current_iteration(certified, monkeypatch):
    # incremental_basis hands find_reductor only this iteration's elements:
    # the new input, then the survivors of each earlier degree.  At every
    # call no head of the previous basis divides the in-flight head it is
    # given (each payload is a normal form against it, and the raw,
    # interreduced and reduced previous bases share one head ideal), and the
    # answer equals a reference scan over chain(prev_indices, fresh, done) in
    # insertion order with the three safety tests, written on exponent tuples
    # and Signature objects.  Killed mutants: done dropped from the scan, the previous
    # basis scanned again, the new input left out, the rewritten or the
    # previous-basis test dropped.  Reordering the scan survives: on every
    # system tried (these, katsura-5/6, cyclic-6 and 3,000 random ones) no
    # call has two candidates that pass all three tests.
    from itertools import chain

    from f5gb.algebra import is_top_reducible, monomial_div, monomial_divides
    from f5gb.bench import cyclic, katsura
    from f5gb.drivers import VARIANTS, VariantConfig, run_variant

    orig_basis, orig_reduction = F5Engine.incremental_basis, F5Engine.reduction
    orig_find = F5Engine.find_reductor
    frames = []  # per open iteration: (prev_indices, this iteration's elements)
    checked = {"fresh": 0, "done": 0, "none": 0}

    def incremental_basis(self, i, prev, prev_indices):
        frames.append((list(prev_indices), [self.store.size]))
        try:
            return orig_basis(self, i, prev, prev_indices)
        finally:
            frames.pop()

    def reduction(self, todo, prev, curr):
        done = orig_reduction(self, todo, prev, curr)
        frames[-1][1].extend(sorted(done))
        return done

    def reference(engine, k, head, prev, done):
        prev_indices, fresh = frames[-1]
        store = engine.store
        t = engine.ring.exps(head)
        for j in chain(prev_indices, fresh, done):
            if not monomial_divides(store.poly(j).lt(), t):
                continue
            us = store.sig(j).mul(monomial_div(t, store.poly(j).lt()))
            rewriter = next(
                (idx for mono, idx in reversed(engine.rules.rules_for(us.index))
                 if monomial_divides(mono, us.monomial)),
                j,
            )
            if (
                us != store.sig(k)
                and rewriter == j
                and not is_top_reducible(us.monomial, prev.polys)
            ):
                return j
        return None

    def find_reductor(self, k, head, prev, curr, done):
        prev_indices, fresh = frames[-1]
        assert list(curr) == fresh, (curr, fresh)
        t = self.ring.exps(head)
        for j in prev_indices:
            assert not monomial_divides(self.store.poly(j).lt(), t), (k, j)
        expected = reference(self, k, head, prev, done)
        got = orig_find(self, k, head, prev, curr, done)
        assert got == expected, (k, got, expected)
        checked["none" if got is None else "done" if got in done else "fresh"] += 1
        return got

    monkeypatch.setattr(F5Engine, "incremental_basis", incremental_basis)
    monkeypatch.setattr(F5Engine, "reduction", reduction)
    monkeypatch.setattr(F5Engine, "find_reductor", find_reductor)
    for F in (katsura(4, 101), cyclic(5, 101), unsafe_system()):
        for variant in VARIANTS:
            run_variant(F, VariantConfig(variant, certified=certified))
    assert all(checked.values()), checked


def per_step_top_reduction(self, k, prev, curr, done):
    """Reference for F5Engine.top_reduction: one step per call, as in F5.

    Each call first stores the payload's normal form against the previous
    basis (an S-polynomial's first one; a no-op on a payload stored by an
    earlier call).  A zero payload counts as a reduction to zero.  With no
    reductor the payload is stored monic and k completes.  Otherwise one step
    h + NF(-c*u*r) is made monic; a safe step stores it in place and
    requeues k (((), (k,))), an unsafe one appends it under the larger
    signature (((), (k, idx))).  top_reduction must store what this loop
    stores, though it takes a whole chain of safe steps per call.  Every
    call that does not requeue k alone ends a chain.
    """
    ring = self.ring
    store = self.store
    entry = store.entries[k]
    store.set_poly(k, *reduce_payload(prev, entry.poly, entry.cofactors, self.it_stats))
    if entry.poly.is_zero():
        self.it_stats.chains += 1
        self.it_stats.zero_reductions += 1
        self.emit("Reduction to zero!")
        return (), ()
    j = self.find_reductor(k, store.heads[k], prev, curr, done)
    if j is None:
        self.it_stats.chains += 1
        if entry.poly.lc() != 1:
            inv = ring.field.inv(entry.poly.lc())
            store.set_poly(k, entry.poly.scale(inv), cofactors_scale(entry.cofactors, inv))
        return (k,), ()
    red = store.entries[j]
    u_key = ring.key_div(store.heads[k], store.heads[j])
    c = ring.field.div(entry.poly.lc(), red.poly.lc())
    multiple = red.poly.term_mul_key(u_key, ring.p - c)  # -c*u*r
    cof = cofactors_sub(ring, entry.cofactors, red.cofactors, u_key, c)
    nf, cof = reduce_payload(prev, multiple, cof, self.it_stats)
    p = entry.poly + nf
    self.it_stats.reduction_steps += 1
    if p:
        inv = ring.field.inv(p.lc())
        if inv != 1:
            p = p.scale(inv)
            cof = cofactors_scale(cof, inv)
    new_sig = ring.key_mul(u_key, store.sigs[j])
    if new_sig < store.sigs[k]:
        self.it_stats.safe_steps += 1
        store.set_poly(k, p, cof)
        return (), (k,)
    self.it_stats.chains += 1
    self.it_stats.unsafe_splits += 1
    idx = store.append(new_sig, p, cof)
    self.rules.add_rule(new_sig, idx)
    return (), (k, idx)


def _store_state(store):
    """(signature, payload terms, cofactor terms) of every store entry."""
    return [
        (e.sig, e.poly.terms, None if e.cofactors is None else [h.terms for h in e.cofactors])
        for e in store.entries[1:]
    ]


@pytest.mark.parametrize("certified", [False, True], ids=["plain", "certified"])
def test_chained_top_reduction_matches_the_per_step_reference(certified, monkeypatch):
    # top_reduction takes a whole chain of safe steps per call and stores
    # once at its end; per_step_top_reduction stores after every step and
    # sends k back through the signature heap.  Both must leave the same
    # store entries (signature, payload and cofactor vector) at each f5c
    # rebuild and at the end, the same RunStats and the same trace.  Their
    # store writes must agree once each run of writes to one entry is cut
    # to its last: this pins what a chain stores before an unsafe split and
    # for a zero result, which later writes would overwrite.  The chain
    # counters in RunStats (equal in both, as the whole to_dict is) must
    # also match what an outside observer of top_reduction sees: one chain
    # per call, and one unsafe split per ((), (k, idx)) return.
    from f5gb import drivers
    from f5gb.bench import cyclic, katsura
    from f5gb.sigcore import PolyStore

    engines, states, writes = [], [], []
    orig_setup, orig_set = drivers.setup_reduced_basis, PolyStore.set_poly

    class RecordingEngine(F5Engine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    def setup_reduced_basis(engine, curr, skip_rule_rebuild=False):
        states.append(_store_state(engine.store))
        return orig_setup(engine, curr, skip_rule_rebuild)

    def set_poly(self, k, poly, cofactors=None):
        if writes and writes[-1][0] == k:
            writes.pop()
        writes.append((k, poly.terms, None if cofactors is None else [h.terms for h in cofactors]))
        orig_set(self, k, poly, cofactors)

    branches = {"safe": 0, "unsafe": 0}
    observed = {"calls": 0, "unsafe": 0}
    orig_top = F5Engine.top_reduction

    def chained_top(self, k, prev, curr, done, raw):
        completed, redo = orig_top(self, k, prev, curr, done, raw)
        observed["calls"] += 1
        observed["unsafe"] += len(redo) == 2
        return completed, redo

    def reference(self, k, prev, curr, done, raw):
        # the per-step loop normal-forms every entry, raw or not
        completed, redo = per_step_top_reduction(self, k, prev, curr, done)
        if redo:
            branches["safe" if len(redo) == 1 else "unsafe"] += 1
        return completed, redo

    def run(F, variant):
        for log in (engines, states, writes):
            log.clear()
        observed.update(calls=0, unsafe=0)
        lines = []
        config = drivers.VariantConfig(variant, certified=certified)
        result = drivers.run_variant(F, config, trace=lines.append)
        states.append(_store_state(engines[0].store))
        its = result.stats.iterations
        counted = {"calls": sum(it.chains for it in its), "unsafe": sum(it.unsafe_splits for it in its)}
        return [g.terms for g in result.basis], result.stats.to_dict(), lines, states[:], writes[:], counted

    monkeypatch.setattr(drivers, "F5Engine", RecordingEngine)
    monkeypatch.setattr(drivers, "setup_reduced_basis", setup_reduced_basis)
    monkeypatch.setattr(PolyStore, "set_poly", set_poly)
    for F in (katsura(4, 101), cyclic(5), cyclic(4, 7), unsafe_system()):
        for variant in drivers.VARIANTS:
            monkeypatch.setattr(F5Engine, "top_reduction", chained_top)
            chained = run(F, variant)
            assert chained[-1] == observed, (F, variant)
            monkeypatch.setattr(F5Engine, "top_reduction", reference)
            stepped = run(F, variant)
            assert chained == stepped, (F, variant)
    assert all(branches.values()), branches
