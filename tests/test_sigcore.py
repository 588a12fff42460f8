"""Signature ordering, rewrite-rule, and admissibility tests."""

import itertools
import random

import pytest

from f5gb.algebra import ExponentOverflowError, PolynomialRing
from f5gb.sigcore import (
    LabeledPolynomial,
    PolyStore,
    RuleTable,
    Signature,
    StoreCapExceeded,
    admissible_check,
    sig_cmp,
    sig_mul,
)


@pytest.fixture
def ring():
    return PolynomialRing(32003, ("x", "y", "z", "t"))


def sig(ring, exps, index):
    return Signature(ring, exps, index)


def packed(ring, exps, index):
    """The packed int the store and the rule table hold for (exps, index)."""
    return Signature(ring, exps, index).packed


def test_sig_cmp_index_dominates(ring):
    # y*e1 < 1*e2
    a = sig(ring, (0, 1, 0, 0), 1)
    b = sig(ring, (0, 0, 0, 0), 2)
    assert sig_cmp(a, b) == -1
    assert sig_cmp(b, a) == 1


def test_sig_cmp_same_index_uses_monomial_order(ring):
    # x*e2 vs y*e2 under grevlex with x > y
    a = sig(ring, (1, 0, 0, 0), 2)
    b = sig(ring, (0, 1, 0, 0), 2)
    assert sig_cmp(a, b) == 1
    assert sig_cmp(a, a) == 0


def test_sig_cmp_well_order_on_generated_sets(ring):
    rng = random.Random(5)
    sigs = [
        sig(ring, tuple(rng.randrange(3) for _ in range(4)), rng.randrange(1, 4))
        for _ in range(40)
    ]
    for a, b in itertools.product(sigs, repeat=2):
        assert sig_cmp(a, b) == -sig_cmp(b, a)
    for a, b, c in itertools.product(sigs[:15], repeat=3):
        if sig_cmp(a, b) <= 0 and sig_cmp(b, c) <= 0:
            assert sig_cmp(a, c) <= 0
    # the packed int orders as (index, monomial order) under every order, for
    # indices up to 2**10 and monomials up to the packed degree 32767
    for kind in ("grevlex", "lex", "deglex"):
        r = PolynomialRing(32003, ("x", "y", "z"), kind)
        monos = [(0, 0, 0), (32767, 0, 0), (0, 0, 32767), (1, 0, 32766), (16383, 16384, 0)]
        for _ in range(15):
            d = rng.choice((rng.randrange(4), rng.randrange(32768), 32767))
            a = rng.randrange(d + 1)
            b = rng.randrange(d - a + 1)
            monos.append((a, b, d - a - b))
        labeled = [(nu, m) for m in monos for nu in (1, 2, 2**10 - 1, 2**10)]
        for (nu, m), (mu, n) in itertools.product(labeled, repeat=2):
            ref = (nu > mu) - (nu < mu) or r.order.cmp(m, n)
            a, b = Signature(r, m, nu), Signature(r, n, mu)
            assert (a.index, a.monomial) == (nu, m)
            assert sig_cmp(a, b) == ref
            assert (a.packed > b.packed) - (a.packed < b.packed) == ref


def test_sig_mul(ring):
    s = sig(ring, (0, 1, 0, 0), 2)  # y*e2
    assert sig_mul((1, 0, 0, 0), s) == sig(ring, (1, 1, 0, 0), 2)
    assert sig_mul((0, 0, 0, 0), s) == s
    # z^2 * (z^2 e2) = z^4 e2
    s2 = sig(ring, (0, 0, 2, 0), 2)
    assert sig_mul((0, 0, 2, 0), s2) == sig(ring, (0, 0, 4, 0), 2)


@pytest.mark.parametrize("kind", ["grevlex", "lex", "deglex"])
def test_sig_mul_past_the_packed_degree_raises(kind):
    ring = PolynomialRing(32003, ("x", "y"), kind)
    for nu in (1, 2**10):
        s = Signature(ring, (16000, 1), nu)
        assert s.mul((16000, 766)).monomial == (32000, 767)
        # u*s on the packed int is one key_mul; at degree 32767 the index
        # field stays intact
        for u, product in (((16000, 766), (32000, 767)), ((0, 16766), (16000, 16767))):
            us = ring.key_mul(ring.key(u), s.packed)
            assert us == Signature(ring, product, nu).packed == s.mul(u).packed
            assert Signature.unpack(ring, us).monomial == product
            assert us >> ring.sig_shift == nu
        with pytest.raises(ExponentOverflowError):
            s.mul((16000, 767))
        with pytest.raises(ExponentOverflowError):
            s.mul((0, 16767))
        assert (s.index, s.monomial) == (nu, (16000, 1))


def test_signature_requires_positive_index(ring):
    with pytest.raises(ValueError):
        Signature(ring, (0, 0, 0, 0), 0)


# ---------------------------------------------------------------------------
# rule table


def test_add_rule_and_backwards_scan(ring):
    rules = RuleTable(ring)
    z2 = (0, 0, 2, 0)
    z4 = (0, 0, 4, 0)
    rules.add_rule(packed(ring, z2, 2), 3)
    assert rules.rules_for(2) == [(z2, 3)]
    rules.add_rule(packed(ring, z4, 2), 4)
    assert rules.rules_for(2) == [(z2, 3), (z4, 4)]

    # query (z^2, entry 3 with sig z^2 e2): z^4 | z^2*z^2, latest match is 4
    s3 = packed(ring, z2, 2)
    assert rules.find_rewriting(ring.key(z2), s3, 3) == 4
    assert rules.is_rewritable(ring.key(z2), s3, 3)

    # query (1, entry 3): only (z^2, 3) divides z^2; own entry, not rewritable
    one = (0, 0, 0, 0)
    assert rules.find_rewriting(ring.key(one), s3, 3) == 3
    assert not rules.is_rewritable(ring.key(one), s3, 3)


def test_find_rewriting_empty_rules(ring):
    rules = RuleTable(ring)
    s = packed(ring, (0, 0, 0, 0), 1)
    assert rules.find_rewriting(ring.key((1, 0, 0, 0)), s, 7) == 7
    assert not rules.is_rewritable(ring.key((1, 0, 0, 0)), s, 7)


def test_phantom_rule_rewrites(ring):
    rules = RuleTable(ring)
    u = (1, 2, 0, 0)
    rules.add_rule(packed(ring, u, 3), 0)
    assert rules.rules_for(3) == [(u, 0)]
    s = packed(ring, (0, 0, 0, 0), 3)
    assert rules.find_rewriting(ring.key(u), s, 5) == 0
    assert rules.is_rewritable(ring.key(u), s, 5)  # 0 != 5


def test_rule_index_monotonicity_enforced(ring):
    rules = RuleTable(ring)
    rules.add_rule(packed(ring, (0, 0, 2, 0), 2), 3)
    rules.add_rule(packed(ring, (0, 0, 0, 1), 2), 0)  # phantom interleaves freely
    rules.add_rule(packed(ring, (0, 0, 4, 0), 2), 4)
    with pytest.raises(ValueError):
        rules.add_rule(packed(ring, (0, 0, 6, 0), 2), 4)
    with pytest.raises(ValueError):
        rules.add_rule(packed(ring, (0, 0, 6, 0), 2), 2)


def test_rewriter_older_than_its_entry_raises(ring):
    # a nonzero rule recorded for entry 3 matches a query about the newer
    # entry 5: the table violates "a rewriter postdates what it rewrites"
    rules = RuleTable(ring)
    rules.add_rule(packed(ring, (0, 0, 2, 0), 2), 3)
    s = packed(ring, (0, 0, 2, 0), 2)
    with pytest.raises(ValueError, match=r"\(3, 5\)"):
        rules.is_rewritable(ring.unit_key, s, 5)
    assert not rules.is_rewritable(ring.unit_key, s, 3)


def test_rules_are_per_index(ring):
    rules = RuleTable(ring)
    rules.add_rule(packed(ring, (0, 0, 2, 0), 2), 3)
    s1 = packed(ring, (0, 0, 2, 0), 1)
    # same monomial, different index: Rules_1 is empty
    assert not rules.is_rewritable(ring.unit_key, s1, 9)


# ---------------------------------------------------------------------------
# store


def mono_poly(ring, *terms):
    return ring.from_terms((e, c) for c, e in terms)


def test_store_append_and_cap(ring):
    store = PolyStore(ring, cap=2)
    f = mono_poly(ring, (1, (1, 0, 0, 0)))
    store.append(packed(ring, (0, 0, 0, 0), 1), f)
    store.append(packed(ring, (0, 0, 0, 0), 2), f)
    assert store.size == 2
    assert store.poly(1) == f
    with pytest.raises(StoreCapExceeded):
        store.append(packed(ring, (0, 0, 0, 0), 3), f)
    with pytest.raises(IndexError):
        store.entry(0)


def test_store_signature_frozen_across_payload_updates(ring):
    store = PolyStore(ring)
    f = mono_poly(ring, (1, (1, 0, 0, 0)), (1, (0, 1, 0, 0)))
    s = sig(ring, (0, 0, 0, 0), 1)
    k = store.append(s.packed, f)
    store.set_poly(k, mono_poly(ring, (1, (0, 1, 0, 0))))
    assert store.sig(k) == s and store.sigs[k] is s.packed
    assert store.check_signatures_frozen()
    assert store.poly(k) == mono_poly(ring, (1, (0, 1, 0, 0)))


# ---------------------------------------------------------------------------
# admissibility


def xy_ring():
    return PolynomialRing(32003, ("x", "y"))


def test_admissible_check_unit_representation():
    ring = xy_ring()
    f1 = mono_poly(ring, (1, (1, 1)), (1, (1, 0)))  # xy + x
    f2 = mono_poly(ring, (1, (0, 2)), (-1, (0, 0)))  # y^2 - 1
    F = [f1, f2]
    entry = LabeledPolynomial(
        Signature(ring, (0, 0), 1).packed, f1, cofactors=[ring.one, ring.zero]
    )
    assert admissible_check(entry, F)


def test_admissible_check_module_relation():
    # f1 = y*f1 - x*f2, so (x e2) is a signature of f1 with cofactors (y, -x)
    ring = xy_ring()
    f1 = mono_poly(ring, (1, (1, 1)), (1, (1, 0)))
    f2 = mono_poly(ring, (1, (0, 2)), (-1, (0, 0)))
    F = [f1, f2]
    y = ring.variable("y")
    x = ring.variable("x")
    entry = LabeledPolynomial(Signature(ring, (1, 0), 2).packed, f1, cofactors=[y, -x])
    assert admissible_check(entry, F)


def test_admissible_check_head_condition_violated():
    ring = xy_ring()
    f1 = mono_poly(ring, (1, (1, 1)), (1, (1, 0)))
    f2 = mono_poly(ring, (1, (0, 2)), (-1, (0, 0)))
    F = [f1, f2]
    entry = LabeledPolynomial(
        Signature(ring, (1, 0), 2).packed, f1, cofactors=[ring.one, ring.zero]
    )
    # lt(h_2) is undefined (h_2 = 0), so (x e2) is not certified by (1, 0)
    assert not admissible_check(entry, F)


def test_admissible_check_requires_cofactors():
    ring = xy_ring()
    f = mono_poly(ring, (1, (1, 0)))
    entry = LabeledPolynomial(Signature(ring, (0, 0), 1).packed, f)
    with pytest.raises(ValueError):
        admissible_check(entry, [f])


def test_certified_store_rejects_bad_entry():
    from f5gb.sigcore import AdmissibilityError

    ring = xy_ring()
    f1 = mono_poly(ring, (1, (1, 1)), (1, (1, 0)))
    f2 = mono_poly(ring, (1, (0, 2)), (-1, (0, 0)))
    store = PolyStore(ring, certified=True)
    store.reference_system = [f1, f2]
    store.append(Signature(ring, (0, 0), 1).packed, f1, cofactors=[ring.one, ring.zero])
    with pytest.raises(AdmissibilityError):
        store.append(
            Signature(ring, (1, 0), 2).packed, f1, cofactors=[ring.one, ring.zero]
        )


def _xy_system(ring):
    f1 = mono_poly(ring, (1, (1, 1)), (1, (1, 0)))  # xy + x
    f2 = mono_poly(ring, (1, (0, 2)), (-1, (0, 0)))  # y^2 - 1
    return [f1, f2]


def test_admissible_check_wrong_tail_coefficient():
    # (x e2) with cofactors (y, -x) certifies xy + x; a changed tail
    # coefficient under the same head, in the payload or in a cofactor, does not
    ring = xy_ring()
    F = _xy_system(ring)
    x, y = ring.variable("x"), ring.variable("y")
    s = Signature(ring, (1, 0), 2)
    wrong_poly = mono_poly(ring, (1, (1, 1)), (2, (1, 0)))
    assert not admissible_check(LabeledPolynomial(s.packed, wrong_poly, cofactors=[y, -x]), F)
    wrong_cof = -x + ring.constant(5)
    assert wrong_cof.lt_key() == s.key
    assert not admissible_check(LabeledPolynomial(s.packed, F[0], cofactors=[y, wrong_cof]), F)


def test_admissible_check_nonzero_cofactor_above_index():
    # f1 + f2 = 1*f1 + 1*f2 holds, but (1 e1) claims h_2 = 0
    ring = xy_ring()
    F = _xy_system(ring)
    entry = LabeledPolynomial(
        Signature(ring, (0, 0), 1).packed, F[0] + F[1], cofactors=[ring.one, ring.one]
    )
    assert not admissible_check(entry, F)
    entry.sig = Signature(ring, (0, 0), 2).packed
    assert admissible_check(entry, F)


@pytest.mark.parametrize("cofs", [1, 3])
def test_admissible_check_cofactor_length_must_match_system(cofs):
    # the sum alone would hold: the missing cofactor is zero, the extra one
    # multiplies nothing
    ring = xy_ring()
    F = _xy_system(ring)
    cof = [ring.one] + [ring.zero] * (cofs - 1)
    entry = LabeledPolynomial(Signature(ring, (0, 0), 1).packed, F[0], cofactors=cof)
    assert not admissible_check(entry, F)
    entry.cofactors = [ring.one, ring.zero]
    assert admissible_check(entry, F)


def test_admissible_check_sum_cancels_only_mod_p():
    # over F_3: 1*(x + 2y) + 2*(x + y) = 3x + 4y = y and
    # (2x + 2)*(2x + 2) = 4x^2 + 8x + 4 = x^2 + 2x + 1
    ring = PolynomialRing(3, ("x", "y"))
    F = [
        mono_poly(ring, (1, (1, 0)), (2, (0, 1))),
        mono_poly(ring, (1, (1, 0)), (1, (0, 1))),
    ]
    entry = LabeledPolynomial(
        Signature(ring, (0, 0), 2).packed,
        ring.variable("y"),
        cofactors=[ring.one, ring.constant(2)],
    )
    assert admissible_check(entry, F)
    g = mono_poly(ring, (2, (1, 0)), (2, (0, 0)))
    square = mono_poly(ring, (1, (2, 0)), (2, (1, 0)), (1, (0, 0)))
    entry = LabeledPolynomial(Signature(ring, (1, 0), 1).packed, square, cofactors=[g])
    assert admissible_check(entry, [g])
