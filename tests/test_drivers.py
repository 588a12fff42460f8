"""Driver-level tests: the three variants, the oracle, and their agreement."""

import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import f5gb.drivers
from f5gb.algebra import (
    ORDER_KINDS,
    ExponentOverflowError,
    NonHomogeneousError,
    Polynomial,
    PolynomialRing,
    ReducerSet,
    ZeroPolynomialError,
    homogenize,
    interreduce,
    normal_form,
    reduced_basis,
    spoly,
)
from f5gb.bench import cyclic, katsura
from f5gb.drivers import (
    VARIANTS,
    VariantConfig,
    buchberger_reduced,
    f5,
    f5c,
    f5r,
    groebner_check,
    run_variant,
    setup_reduced_basis,
)
from f5gb.engine import F5Engine, RunStats
from f5gb.sigcore import Signature, StoreCapExceeded
from tests.conftest import APPENDIX_RAW_BASIS, APPENDIX_REDUCED_BASIS, poly, polys


def canon(ring, texts):
    return sorted(polys(ring, *texts), key=lambda g: g.lt_key())


# ---------------------------------------------------------------------------
# the worked ideal


def test_f5_matches_published_ten_element_basis(xyzt, appendix_system):
    result = f5(appendix_system)
    assert not result.reduced
    expected = canon(xyzt, APPENDIX_RAW_BASIS)
    assert sorted(result.basis, key=lambda g: g.lt_key()) == expected
    assert result.stats.zero_reductions == 0


def test_f5_trace_matches_published_run(xyzt, appendix_system):
    lines = []
    f5(appendix_system, trace=lines.append)
    assert lines == [
        "Iteration 2",
        "Processing 1 critical pairs of degree 5",
        "Processing 1 critical pairs of degree 7",
        "4 polynomials in basis",
        "Iteration 3",
        "Processing 1 critical pairs of degree 5",
        "Processing 1 critical pairs of degree 6",
        "Processing 4 critical pairs of degree 7",
        "Processing 1 critical pairs of degree 8",
        "10 polynomials in basis",
        "",
        "number of zero reductions: 0",
        "number of elements in g: 10",
    ]


def test_f5c_returns_published_reduced_basis(xyzt, appendix_system):
    result = f5c(appendix_system)
    assert result.reduced
    assert result.basis == polys(xyzt, *APPENDIX_REDUCED_BASIS)
    # a result flagged reduced is an interreduce fixed point
    assert interreduce(result.basis) == result.basis


def test_buchberger_matches_published_reduced_basis(xyzt, appendix_system):
    assert buchberger_reduced(appendix_system) == polys(xyzt, *APPENDIX_REDUCED_BASIS)


def test_interreduce_of_f5_output_is_reduced_basis(xyzt, appendix_system):
    raw = f5(appendix_system).basis
    assert interreduce(raw) == polys(xyzt, *APPENDIX_REDUCED_BASIS)
    # uniqueness: any permutation interreduces to the identical sequence
    for perm in itertools.islice(itertools.permutations(raw), 0, 24, 7):
        assert interreduce(list(perm)) == polys(xyzt, *APPENDIX_REDUCED_BASIS)


def test_f5r_reproduces_f5_stream_exactly(xyzt, appendix_system):
    a = f5(appendix_system)
    b = f5r(appendix_system)
    assert a.basis == b.basis
    assert [it.pairs_by_degree for it in a.stats.iterations] == [
        it.pairs_by_degree for it in b.stats.iterations
    ]
    assert [it.basis_size for it in a.stats.iterations] == [
        it.basis_size for it in b.stats.iterations
    ]
    assert [it.spolys for it in a.stats.iterations] == [
        it.spolys for it in b.stats.iterations
    ]
    assert a.stats.zero_reductions == b.stats.zero_reductions
    # the reduced normal-form target makes f5r cheaper on nontrivial runs
    assert b.stats.reduction_steps <= a.stats.reduction_steps


def test_groebner_check_on_variant_outputs(appendix_system):
    assert groebner_check(f5(appendix_system).basis)
    assert groebner_check(f5c(appendix_system).basis)


# ---------------------------------------------------------------------------
# trivial and error cases


def test_single_generator(xyzt):
    f = poly(xyzt, "3*x^2*y")
    result = f5([f])
    assert result.basis == [poly(xyzt, "x^2*y")]
    assert result.reduced
    for driver in (f5r, f5c):
        assert driver([f]).basis == [poly(xyzt, "x^2*y")]


def test_unit_ideal_branch(xyzt):
    F = polys(xyzt, "5", "x^2 - y^2")
    for driver in (f5, f5r, f5c):
        result = driver(F)
        assert result.basis == [xyzt.one]
        assert result.reduced


def test_already_reduced_pair():
    ring = PolynomialRing(32003, ("x", "y"))
    F = polys(ring, "x", "y")
    result = f5c(F)
    assert result.basis == polys(ring, "y", "x")


def test_non_homogeneous_rejected(xyzt):
    F = polys(xyzt, "x^2 - y")
    for driver in (f5, f5r, f5c):
        with pytest.raises(NonHomogeneousError):
            driver(F)


def test_zero_input_rejected(xyzt):
    with pytest.raises(ZeroPolynomialError):
        f5([xyzt.zero])
    with pytest.raises(ValueError):
        f5([])
    # an input that is not a polynomial raises wherever it stands, first too
    x = xyzt.variable("x")
    for F in ([x, 1], [1, x]):
        with pytest.raises(ValueError, match="not a polynomial"):
            f5(F)


def test_store_cap_is_hard_error(appendix_system):
    with pytest.raises(StoreCapExceeded):
        f5(appendix_system, config=VariantConfig("f5", store_cap=4))


# ---------------------------------------------------------------------------
# setup_reduced_basis


def engine_after_iteration_two(xyzt, appendix_system):
    ring = xyzt
    engine = F5Engine(ring, stats=RunStats("f5c", ring.p, "grevlex"))
    fs = sorted(appendix_system, key=lambda f: (f.degree(), f.lt_key()))
    engine.store.append(Signature(ring, ring.unit_key, 1).packed, fs[0])
    engine.begin_iteration(2)
    engine.store.append(Signature(ring, ring.unit_key, 2).packed, fs[1])
    prev = ReducerSet(ring, [fs[0]])
    curr = engine.incremental_basis(2, prev, [1])
    return engine, curr


def test_setup_reduced_basis_rebuilds_store_and_rules(xyzt, appendix_system):
    engine, curr = engine_after_iteration_two(xyzt, appendix_system)
    assert len(curr) == 4
    reducers = setup_reduced_basis(engine, curr)
    # the rebuild's set is the next reduction target: the new store's
    # polynomials, with the store's vectors (None in a plain run)
    assert reducers.polys == [engine.store.poly(j) for j in range(1, 5)]
    assert reducers.cofactors == [None] * 4
    assert engine.store.size == 4
    for j in range(1, 5):
        sig = engine.store.sig(j)
        assert sig.index == j and sig.monomial == (0, 0, 0, 0)
        # Rules_j carries exactly j-1 phantom entries
        assert [idx for _, idx in engine.rules.rules_for(j)] == [0] * (j - 1)
    # the four polynomials were already pairwise reduced, so they survive
    heads = [xyzt.render_monomial(engine.store.poly(j).lt()) for j in range(1, 5)]
    assert heads == ["x*z^2", "x^2*y", "x*y^3*t", "z^6*t"]


def test_setup_reduced_basis_phantom_rule_monomials(xyzt, appendix_system):
    engine, curr = engine_after_iteration_two(xyzt, appendix_system)
    setup_reduced_basis(engine, curr)
    # rule monomial for (B_j, B_k), k > j, is lcm(lt B_j, lt B_k)/lt(B_k)
    assert engine.rules.rules_for(2) == [((0, 0, 2, 0), 0)]  # z^2
    assert engine.rules.rules_for(3) == [((0, 0, 2, 0), 0), ((1, 0, 0, 0), 0)]
    assert engine.rules.rules_for(4) == [
        ((1, 0, 0, 0), 0),
        ((2, 1, 0, 0), 0),
        ((1, 3, 0, 0), 0),
    ]


def test_setup_reduced_basis_single_element(xyzt):
    ring = xyzt
    engine = F5Engine(ring, stats=RunStats("f5c", ring.p, "grevlex"))
    engine.store.append(Signature(ring, ring.unit_key, 1).packed, poly(ring, "x^2 + y^2"))
    reducers = setup_reduced_basis(engine, [1])
    assert reducers.polys == [engine.store.poly(1)]
    assert engine.rules.rules_for(1) == []


def test_setup_reduced_basis_skip_rules(xyzt, appendix_system):
    engine, curr = engine_after_iteration_two(xyzt, appendix_system)
    setup_reduced_basis(engine, curr, skip_rule_rebuild=True)
    for j in range(1, 5):
        assert engine.rules.rules_for(j) == []


@pytest.mark.parametrize("certified", [False, True], ids=["plain", "certified"])
def test_rebuilds_carry_their_one_reducer_set(certified, monkeypatch):
    # each iteration reduces against one ReducerSet, which the driver
    # carries forward: f5 builds one per iteration over its raw basis, and
    # f5r and f5c build none but reduced_basis's shared set, one per
    # rebuild, which incremental_basis receives as is at the next iteration
    # (f5r skips the rebuild after the last iteration, f5c does not)
    from f5gb import algebra

    built, rebuilt, received = [], [], []
    orig_reduced_basis = f5gb.drivers.reduced_basis
    orig_incremental_basis = F5Engine.incremental_basis

    class CountingReducerSet(ReducerSet):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    def reduced_basis(G, cofs, stats=None):
        out = orig_reduced_basis(G, cofs, stats)
        rebuilt.append(out[0])
        return out

    def incremental_basis(self, i, prev, prev_indices):
        received.append(prev)
        return orig_incremental_basis(self, i, prev, prev_indices)

    monkeypatch.setattr(algebra, "ReducerSet", CountingReducerSet)
    monkeypatch.setattr(f5gb.drivers, "ReducerSet", CountingReducerSet)
    monkeypatch.setattr(f5gb.drivers, "reduced_basis", reduced_basis)
    monkeypatch.setattr(F5Engine, "incremental_basis", incremental_basis)
    F = cyclic(5, 101)
    for variant, rebuilds in (("f5", 0), ("f5r", len(F) - 2), ("f5c", len(F) - 1)):
        for log in (built, rebuilt, received):
            log.clear()
        run_variant(F, VariantConfig(variant, certified=certified))
        assert len(received) == len(F) - 1
        assert received == built[: len(F) - 1]  # identity: sets define no ==
        if variant != "f5":
            assert len(rebuilt) == rebuilds
            assert built[1:] == rebuilt


def test_skip_rule_rebuild_equivalence(appendix_system):
    plain = f5c(appendix_system)
    skipped = f5c(appendix_system, config=VariantConfig("f5c", skip_rule_rebuild=True))
    assert plain.basis == skipped.basis
    assert plain.stats.zero_reductions == skipped.stats.zero_reductions


def test_skip_rule_rebuild_only_valid_for_f5c(appendix_system):
    with pytest.raises(ValueError):
        VariantConfig("f5", skip_rule_rebuild=True)
    # the f5 and f5r wrappers keep the flag, so their configs reject it too
    for driver in (f5, f5r):
        with pytest.raises(ValueError):
            driver(appendix_system, VariantConfig("f5c", skip_rule_rebuild=True))


# ---------------------------------------------------------------------------
# the oracle


def test_buchberger_accepts_non_homogeneous():
    ring = PolynomialRing(32003, ("x", "y"))
    out = buchberger_reduced(polys(ring, "x^2", "x"))
    assert out == [poly(ring, "x")]


def test_buchberger_affine_cross_check_against_homogenized_f5c():
    ring = PolynomialRing(32003, ("x", "y"))
    F = polys(ring, "y^2 - 1", "x*y + x")
    direct = buchberger_reduced(F)
    assert direct == polys(ring, "y^2 - 1", "x*y + x")
    hring, HF = homogenize(F)
    reduced_h = f5c(HF).basis
    # dehomogenize (h := 1) and interreduce: same affine reduced basis
    dehom = [
        ring.from_terms((m[:-1], c) for m, c in g.dict().items()) for g in reduced_h
    ]
    assert interreduce(dehom) == direct


def criteria_free_buchberger(F):
    """Buchberger with every pair and no criteria: the reference for the oracle.

    Inputs, then the S-polynomial of each new pair, are reduced first in,
    first out; a nonzero remainder joins G and pairs with every element.
    """
    G = []
    todo = list(F)
    while todo:
        h = normal_form(todo.pop(0), G)
        if h:
            h = h.monic()
            todo += [spoly(g, h) for g in G]
            G.append(h)
    return interreduce(G)


def test_gebauer_moller_matches_unpruned_buchberger():
    ring3 = PolynomialRing(101, ("x", "y", "z"))
    systems = [
        polys(ring3, "x^2 - y*z", "y^2 - x*z", "z^2 - x*y"),
        polys(ring3, "x*y + z^2", "y*z - x^2", "x^3 - y^3"),
        polys(ring3, "x + y + z", "x*y + y*z + z*x", "x*y*z - 1"),
        polys(ring3, "x^2*y - z", "y^2 - x", "z^2 - y"),
    ]
    for F in systems:
        assert buchberger_reduced(F) == criteria_free_buchberger(F)


def test_oracle_builds_one_reducer_set(monkeypatch):
    # the oracle reduces every input and S-polynomial against one ReducerSet
    # and grows it in place when _gm_update changes G; normal_form would
    # build a fresh set on every call, and a final interreduce one more
    counts = {"builds": 0, "changes": 0}

    def counted(name, counter):
        original = getattr(f5gb.drivers, name)

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(f5gb.drivers, name, wrapper)

    counted("ReducerSet", "builds")
    counted("normal_form", "builds")
    counted("interreduce", "builds")  # its reduced_basis would build another set
    counted("_gm_update", "changes")
    F = cyclic(5, 101)
    basis = buchberger_reduced(F)
    assert counts["changes"] > 0
    assert counts["builds"] == 1
    monkeypatch.undo()
    assert basis == criteria_free_buchberger(F)


def test_groebner_check_cases():
    ring = PolynomialRing(32003, ("x", "y"), "lex")
    assert groebner_check(polys(ring, "x + y", "y"))
    gr = PolynomialRing(32003, ("x", "y"))
    assert not groebner_check(polys(gr, "x^2*y - 1", "x*y^2 - 1"))
    # S(x^2 - y, x*y - 1) = x - y^2 under lex: its head x is stuck at once
    assert not groebner_check(polys(ring, "x^2 - y", "x*y - 1"))
    # S(x^2 + x*z + z^2, x*y) = x*y*z + y*z^2: the head reduces by x*y, and the
    # lower term y*z^2 is stuck; with y*z^2 added the set is a basis
    xyz = PolynomialRing(32003, ("x", "y", "z"))
    assert not groebner_check(polys(xyz, "x^2 + x*z + z^2", "x*y"))
    assert groebner_check(polys(xyz, "x^2 + x*z + z^2", "x*y", "y*z^2"))


def all_pairs_check(G):
    """Buchberger's criterion with no pair pruning at all: the reference."""
    Gs = [g for g in G if g]
    return not any(normal_form(spoly(f, g), Gs) for f, g in itertools.combinations(Gs, 2))


@st.composite
def small_systems(draw):
    """1-2 polynomials in x, y, or 2-3 homogeneous ones in x, y, z; 2-4 terms each.

    Homogeneity in three variables keeps lex bases small; without it a lex
    basis of three quadrics can take minutes.
    """
    p = draw(st.sampled_from((2, 3, 5, 32003, 2**31 - 1)))
    names = draw(st.sampled_from((("x", "y"), ("x", "y", "z"))))
    ring = PolynomialRing(p, names, draw(st.sampled_from(ORDER_KINDS)))
    F = []
    for _ in range(draw(st.integers(1, 2) if len(names) == 2 else st.integers(2, 3))):
        if len(names) == 2:
            exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
        else:
            d = draw(st.integers(2, 3))
            exps = st.tuples(st.integers(0, d), st.integers(0, d)).filter(
                lambda e, d=d: sum(e) <= d
            ).map(lambda e, d=d: e + (d - sum(e),))
        terms = st.lists(st.tuples(exps, st.integers(1, p - 1)), min_size=2, max_size=4)
        F.append(ring.from_terms(draw(terms)))
    return [f for f in F if f] or [ring.one]


@settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
@given(small_systems(), st.data())
def test_groebner_check_agrees_with_all_pairs(F, data):
    B = buchberger_reduced(F)
    assert groebner_check(B)
    cases = [B, B + F]  # the inputs add equal and divisible heads
    if len(B) > 1:
        drop = data.draw(st.integers(0, len(B) - 1))
        cases.append(B[:drop] + B[drop + 1:])
    tails = [i for i, g in enumerate(B) if len(g.terms) > 1]
    if tails:
        i = data.draw(st.sampled_from(tails))
        j = data.draw(st.integers(1, len(B[i].terms) - 1))
        terms = list(B[i].terms)
        k, c = terms[j]
        terms[j] = (k, (c + 1) % B[i].ring.p)  # over F_2 the term drops out
        changed = Polynomial(B[i].ring, tuple(t for t in terms if t[1]))
        cases.append(B[:i] + [changed] + B[i + 1:])
    for G in cases:
        assert groebner_check(G) == all_pairs_check(G)


def test_groebner_check_reduces_only_the_gebauer_moller_pairs(monkeypatch):
    basis = f5(cyclic(5)).basis
    heads = [g.lt() for g in basis]
    non_coprime = sum(
        1
        for a, b in itertools.combinations(heads, 2)
        if any(x and y for x, y in zip(a, b))
    )
    assert (len(basis), non_coprime) == (43, 780)
    calls, dropped = [], []

    def counting_spoly(f, g):
        calls.append(1)
        return spoly(f, g)

    def counting_reduced_basis(G, cofs):
        out = reduced_basis(G, cofs)
        dropped.extend(out[1])
        return out

    monkeypatch.setattr(f5gb.drivers, "spoly", counting_spoly)
    monkeypatch.setattr(f5gb.drivers, "reduced_basis", counting_reduced_basis)
    assert groebner_check(basis)
    # the pairs of the 38 kept, tail-reduced elements, plus the 5 dropped
    # elements, each reduced to zero against them
    assert (len(calls), len(dropped)) == (108, 5)


def test_groebner_check_reduces_the_dropped_elements():
    # the kept set alone is a Groebner basis in each False case: the answer
    # rests on the normal forms of the dropped elements
    ring = PolynomialRing(32003, ("x", "y"))
    # equal heads: the first in input order stays, x + y leaves y
    assert not groebner_check(polys(ring, "x", "x + y"))
    assert not groebner_check(polys(ring, "x + y", "x"))
    assert groebner_check(polys(ring, "x + y", "2*x + 2*y"))
    assert groebner_check(polys(ring, "x + y", "y", "x*y + y^2", "x"))
    # f5's raw cyclic-5 basis, with the coefficient of one tail term of a
    # dropped element raised by 1, a term no kept head divides: the
    # element's normal form is now that term
    basis = f5(cyclic(5)).basis
    reducers, dropped = reduced_basis(basis, [None] * len(basis))
    d = dropped[0]
    j = next(j for j in range(1, len(d.terms)) if not reducers.is_top_reducible(d.terms[j][0]))
    terms = list(d.terms)
    terms[j] = (terms[j][0], (terms[j][1] + 1) % d.ring.p)
    changed = [Polynomial(d.ring, tuple(terms)) if g is d else g for g in basis]
    assert groebner_check(basis) and not groebner_check(changed)


def test_gebauer_moller_pair_stream_is_pinned(monkeypatch):
    # a changed coprime or chain test can still yield correct bases; it
    # moves these counts of the oracle's pair stream
    counts = {"_gm_update": 0, "spoly": 0}
    for name in counts:
        original = getattr(f5gb.drivers, name)

        def wrapper(*args, original=original, name=name):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(f5gb.drivers, name, wrapper)
    basis = buchberger_reduced(cyclic(5, 32003))
    assert counts["_gm_update"] == 38
    counts["spoly"] = 0
    assert groebner_check(basis)
    assert counts["spoly"] == 108


def test_oracle_pair_stream_is_pinned_on_katsura5(monkeypatch):
    # the oracle's own stream, on a regular sequence: G changes 22 times and
    # 64 pairs survive the criteria to be reduced
    counts = {"_gm_update": 0, "spoly": 0}
    for name in counts:
        original = getattr(f5gb.drivers, name)

        def wrapper(*args, original=original, name=name):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(f5gb.drivers, name, wrapper)
    buchberger_reduced(katsura(5, 32003))
    assert counts == {"_gm_update": 22, "spoly": 64}


def reference_gm_update(G, pairs, h, serial):
    """drivers._gm_update with the all-pairs chain test among the new pairs.

    Each new lcm is tested against every later new lcm and every kept one,
    so one update costs time quadratic in |G|: the reference the update's
    sorted scan must match.
    """
    ring = h[0].ring
    ht = h[1]
    unit, g = ring.unit_key, ring.guard
    wh = ht ^ unit
    heads = [e[1] for e in G]
    row = ring.lcms(ht, heads)
    # C holds (lcm word, coprime, lcm, entry); among equal lcms the last stays
    C = [(m ^ unit, m == ht + e[1] - unit, m, e) for m, e in zip(row, G)]
    D = []
    for i, c in enumerate(C):
        t = c[0] | g
        if c[1] or not (
            any((t - o[0]) & g == g for o in C[i + 1:]) or any((t - o[0]) & g == g for o in D)
        ):
            D.append(c)
    by_head = dict(zip(heads, row))

    def lcm_h(k):
        m = by_head.get(k)
        return ring.lcm(ht, k) if m is None else m

    kept_old = [
        p
        for p in pairs
        if ((p[1] ^ unit | g) - wh) & g != g or lcm_h(p[3][1]) == p[1] or lcm_h(p[4][1]) == p[1]
    ]
    E = [c for c in D if not c[1]]
    new_pairs = kept_old + [
        f5gb.drivers._gm_pair(h, c[3], c[2], serial + n) for n, c in enumerate(E)
    ]
    new_G = [e for e in G if ((e[1] ^ unit | g) - wh) & g != g] + [h]
    return new_G, new_pairs, serial + len(E)


@pytest.mark.parametrize("kind", ORDER_KINDS)
def test_gm_update_matches_the_all_pairs_reference(kind):
    # random monomial heads, each divisible by no head in G (the update's
    # precondition, which the oracle and the check keep); a head may divide
    # older ones, which leave G, and some pairs are popped between updates,
    # as the oracle pops them, so old pairs can name entries that left G
    rnd = random.Random(kind)
    ring = PolynomialRing(32003, ("x", "y", "z", "w"), kind)
    entry = f5gb.drivers._gm_entry
    updates = 0
    for _ in range(80):
        G, pairs, serial = [], [], 0
        for _ in range(rnd.randint(3, 30)):
            exps = tuple(rnd.choice((0, 0, 1, 2, 3)) for _ in range(4))
            key = ring.key(exps)
            if any(ring.divides(e[1], key) for e in G):
                continue
            h = entry(ring.from_terms([(exps, 1)]), updates)
            expected = reference_gm_update(G, pairs, h, serial)
            G, pairs, serial = f5gb.drivers._gm_update(G, pairs, h, serial)
            assert (G, pairs, serial) == expected
            updates += 1
            for _ in range(rnd.randint(0, min(2, len(pairs)))):
                pairs.pop(rnd.randrange(len(pairs)))
    assert updates > 400


@pytest.mark.parametrize("name", ["katsura-5", "cyclic-5"])
def test_gm_update_replays_the_oracle_and_the_check_as_the_reference(name, monkeypatch):
    real, calls = f5gb.drivers._gm_update, []

    def compared(G, pairs, h, serial):
        out = real(G, pairs, h, serial)
        assert out == reference_gm_update(G, pairs, h, serial)
        calls.append(len(G))
        return out

    monkeypatch.setattr(f5gb.drivers, "_gm_update", compared)
    basis = buchberger_reduced((katsura if name == "katsura-5" else cyclic)(5, 32003))
    assert groebner_check(basis)
    assert len(calls) == {"katsura-5": 22 + 22, "cyclic-5": 38 + 38}[name]


def test_an_lcm_past_the_packed_degree_raises_everywhere():
    # the heads are coprime, so the product criterion drops their pair, but
    # its lcm (total degree 32768) does not pack: the oracle and the check
    # raise as f5 does
    ring = PolynomialRing(32003, ("x", "y", "z", "w"))
    F = [ring.from_terms([((16383, 1, 0, 0), 1)]), ring.from_terms([((0, 0, 16383, 1), 1)])]
    for compute in (buchberger_reduced, groebner_check, f5):
        with pytest.raises(ExponentOverflowError):
            compute(F)


def test_lex_tails_past_the_packed_degree_raise_in_the_oracle():
    # x^5 reduced by x - y^16000 would reach y^80000; unguarded, the oracle
    # returned [y^30464, x - y^16000] and the check accepted it
    ring = PolynomialRing(32003, ("x", "y"), "lex")
    F = polys(ring, "x^5", "x - y^16000")
    for compute in (buchberger_reduced, groebner_check):
        with pytest.raises(ExponentOverflowError):
            compute(F)


def test_oracle_agreement_small_suite():
    ring = PolynomialRing(32003, ("x", "y", "z"))
    systems = [
        polys(ring, "x^2 - y*z", "y^2 - x*z", "z^2 - x*y"),
        polys(ring, "x^2 + y^2 + z^2", "x*y + y*z + z*x"),
        polys(ring, "x^3 - y^2*z", "x*y*z - z^3", "y^3 - x^2*z"),
    ]
    for F in systems:
        oracle = buchberger_reduced(F)
        assert interreduce(f5(F).basis) == oracle
        assert interreduce(f5r(F).basis) == oracle
        assert f5c(F).basis == oracle
        assert groebner_check(f5(F).basis)


# ---------------------------------------------------------------------------
# the reducer choice: the smallest dividing head against a Groebner basis


def _checked_spolys(G, monkeypatch):
    """(f, g) for each S-polynomial groebner_check(G) reduces, G a Groebner
    basis: pairs of the kept, tail-reduced elements reduced_basis returns."""
    pairs = []

    def recorded(f, g):
        pairs.append((f, g))
        return spoly(f, g)

    with monkeypatch.context() as m:
        m.setattr(f5gb.drivers, "spoly", recorded)
        assert groebner_check(G)
    return pairs


@pytest.mark.parametrize("p", [32003, 101])
@pytest.mark.parametrize("name", ["katsura-5", "cyclic-5"])
def test_reducer_choice_changes_work_not_results(name, p, monkeypatch):
    # against a Groebner basis normal forms are unique: the largest
    # (prefer=1) and the smallest (prefer=-1) dividing head reduce each
    # S-polynomial groebner_check forms (to zero) and its lcm monomial (to
    # the same standard form) alike, on f5's raw basis (a Groebner basis,
    # not reduced) and on the reduced basis, but in other numbers of
    # eliminations
    F = (katsura if name == "katsura-5" else cyclic)(5, p)
    raw = f5(F).basis
    for G in (raw, interreduce(raw)):
        ring = G[0].ring
        largest, smallest = ReducerSet(ring, G), ReducerSet(ring, G, prefer=-1)
        standard = 0
        for f, g in _checked_spolys(G, monkeypatch):
            s = spoly(f, g)
            assert largest.reduce_full(s) == smallest.reduce_full(s) == ring.zero
            lcm = ring.one.term_mul_key(ring.lcm(f.lt_key(), g.lt_key()), 1)
            nf = largest.reduce_full(lcm)
            assert smallest.reduce_full(lcm) == nf
            standard += bool(nf)
        assert standard
        assert largest.eliminations != smallest.eliminations


def test_reducer_choice_decides_normal_forms_off_a_groebner_basis():
    # {x + z, x*y + z^2} is no Groebner basis (its S-polynomial y*z - z^2
    # does not reduce), and the two heads that divide x*y reduce it to two
    # different normal forms.  So the choice is free only against a
    # Groebner basis, and normal_form and interreduce's fallback, whose
    # input need not be one, keep the largest head
    ring = PolynomialRing(32003, ("x", "y", "z"))
    G = polys(ring, "x + z", "x*y + z^2")
    f = poly(ring, "x*y")
    assert not groebner_check(G)
    assert ReducerSet(ring, G).reduce_full(f) == poly(ring, "-z^2")
    assert ReducerSet(ring, G, prefer=-1).reduce_full(f) == poly(ring, "-y*z")
    assert normal_form(f, G) == poly(ring, "-z^2")


def _oracle_run(F, monkeypatch, prefer=None):
    """(basis, eliminations, tail reductions) of buchberger_reduced(F), the
    eliminations summed over the running sets it builds and the tail
    reductions counted on them; prefer, where given, replaces the choice
    each set is built with."""
    sets, tails = [], []

    class Built(ReducerSet):
        def __init__(self, *args, **kwargs):
            if prefer is not None:
                kwargs["prefer"] = prefer
            super().__init__(*args, **kwargs)
            sets.append(self)

        def reduce_tail(self, pos):
            tails.append(pos)
            super().reduce_tail(pos)

    with monkeypatch.context() as m:
        m.setattr(f5gb.drivers, "ReducerSet", Built)
        basis = buchberger_reduced(F)
    return basis, sum(rs.eliminations for rs in sets), len(tails)


@pytest.mark.parametrize("name", ["katsura-5", "cyclic-5"])
def test_oracle_reduces_against_the_smallest_dividing_head(name, monkeypatch):
    # the oracle's running set is no Groebner basis until the end, so the
    # choice changes the elements it adds, but not the reduced basis it
    # returns, which is unique.  It takes the smallest head: on katsura-6
    # its running set eliminates 16,429 times, against 16,835 with the
    # largest (cyclic-6: 14,281 against 13,356)
    F = (katsura if name == "katsura-5" else cyclic)(5)
    basis, eliminations, tails = _oracle_run(F, monkeypatch)
    assert _oracle_run(F, monkeypatch, prefer=-1) == (basis, eliminations, tails)
    largest = _oracle_run(F, monkeypatch, prefer=1)
    assert largest[0] == basis and largest[1] != eliminations


def test_oracle_work_is_pinned(monkeypatch):
    # the oracle keeps its running basis reduced, and each new head
    # re-reduces only the tails it makes reducible.  A tail left stale in
    # the set moves the eliminations (with one final interreduction and no
    # tail reductions they read 3,242 and 1,517, that interreduction's
    # eliminations not counted).  A tail re-reduced in vain leaves them and
    # the basis as they are, since its normal form is already reached, but
    # moves the tail reductions (re-reducing every tail on every add,
    # katsura-5 counts 253 of them)
    assert _oracle_run(katsura(5, 32003), monkeypatch)[1:] == (2789, 15)
    assert _oracle_run(cyclic(5, 32003), monkeypatch)[1:] == (1289, 41)
    # affine katsura-3 under lex: new heads divide older ones 25 times, and
    # the elements that leave G are no longer scanned
    K = katsura(3, 32003)
    ring = PolynomialRing(32003, K[0].ring.names[:-1], "lex")
    F = [ring.from_terms((m[:-1], c) for m, c in f.dict().items()) for f in K]
    basis, eliminations, tails = _oracle_run(F, monkeypatch)
    assert (eliminations, tails) == (202, 62) and basis == criteria_free_buchberger(F)


# ---------------------------------------------------------------------------
# certified mode invariants


def test_certified_runs_validate_every_mutation(appendix_system):
    for driver, name in ((f5, "f5"), (f5r, "f5r"), (f5c, "f5c")):
        result = driver(
            appendix_system, config=VariantConfig(name, certified=True)
        )
        assert len(result.basis) == (8 if name == "f5c" else 10)


@pytest.mark.parametrize("name", ["appendix", "katsura-4", "cyclic-5", "cyclic-4"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_certified_run_matches_plain_run(name, variant, appendix_system):
    from f5gb.bench import cyclic, katsura

    systems = {
        "appendix": lambda: appendix_system,
        "katsura-4": lambda: katsura(4, 101),
        "cyclic-5": lambda: cyclic(5, 101),
        "cyclic-4": lambda: cyclic(4, 101),
    }
    F = systems[name]()
    plain = run_variant(F, VariantConfig(variant))
    certified = run_variant(F, VariantConfig(variant, certified=True))
    assert certified.basis == plain.basis
    assert certified.stats.to_dict() == plain.stats.to_dict()


@pytest.mark.parametrize("variant", VARIANTS)
def test_certified_run_catches_dropped_cofactor_multiple(variant, monkeypatch):
    # a cofactor update that forgets the subtracted multiple leaves the
    # payload and its cofactors out of step; the store must notice
    import f5gb.engine as engine_module
    from f5gb.bench import katsura
    from f5gb.sigcore import AdmissibilityError, cofactors_sub

    def dropped(ring, a, b, *terms):
        return cofactors_sub(ring, a, [ring.zero] * len(b), *terms)

    monkeypatch.setattr(engine_module, "cofactors_sub", dropped)
    with pytest.raises(AdmissibilityError):
        run_variant(katsura(3, 101), VariantConfig(variant, certified=True))


def test_certified_cyclic_with_zero_reductions():
    from f5gb.bench import cyclic

    F = cyclic(4, 101)
    for driver, name in ((f5, "f5"), (f5r, "f5r"), (f5c, "f5c")):
        result = driver(F, config=VariantConfig(name, certified=True))
        assert result.stats.zero_reductions >= 1
        assert groebner_check(result.basis)


def test_stats_spolys_count_store_appends(appendix_system):
    result = f5(appendix_system)
    # iteration 2 computed 2 S-polynomials, iteration 3 computed 5
    assert [it.spolys for it in result.stats.iterations] == [2, 5]
    assert result.stats.spolys == 7


def test_run_is_deterministic(appendix_system):
    a = f5(appendix_system)
    b = f5(appendix_system)
    assert a.basis == b.basis
    assert a.stats.to_dict() == b.stats.to_dict()


@pytest.mark.parametrize("order", ["lex", "deglex"])
def test_variants_agree_under_other_orders(order):
    ring = PolynomialRing(101, ("x", "y", "z"), order)
    F = polys(ring, "x^2 - y*z", "y^2 - x*z", "z^2 - x*y")
    oracle = buchberger_reduced(F)
    assert interreduce(f5(F).basis) == oracle
    assert interreduce(f5r(F).basis) == oracle
    assert f5c(F).basis == oracle
    assert groebner_check(f5(F).basis)


def test_concurrent_runs_are_isolated(appendix_system):
    import threading

    expected = f5(appendix_system).basis
    results = [None] * 4

    def work(slot):
        results[slot] = f5(appendix_system).basis

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == expected for r in results)
