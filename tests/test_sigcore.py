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
    ZERO_SIGNATURE,
    admissible_check,
    sig_cmp,
    sig_mul,
)


@pytest.fixture
def ring():
    return PolynomialRing(32003, ("x", "y", "z", "t"))


def sig(ring, exps, index):
    return Signature(ring, exps, index)


def test_zero_signature_below_everything(ring):
    s = sig(ring, (0, 0, 0, 0), 1)
    assert sig_cmp(ZERO_SIGNATURE, s) == -1
    assert sig_cmp(s, ZERO_SIGNATURE) == 1
    assert sig_cmp(ZERO_SIGNATURE, ZERO_SIGNATURE) == 0
    assert ZERO_SIGNATURE is Signature.ZERO


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
    sigs = [ZERO_SIGNATURE] + [
        sig(ring, tuple(rng.randrange(3) for _ in range(4)), rng.randrange(1, 4))
        for _ in range(40)
    ]
    for a, b in itertools.product(sigs, repeat=2):
        assert sig_cmp(a, b) == -sig_cmp(b, a)
    for a, b, c in itertools.product(sigs[:15], repeat=3):
        if sig_cmp(a, b) <= 0 and sig_cmp(b, c) <= 0:
            assert sig_cmp(a, c) <= 0


def test_sig_mul(ring):
    s = sig(ring, (0, 1, 0, 0), 2)  # y*e2
    assert sig_mul((1, 0, 0, 0), s) == sig(ring, (1, 1, 0, 0), 2)
    assert sig_mul((0, 0, 0, 0), s) == s
    # z^2 * (z^2 e2) = z^4 e2
    s2 = sig(ring, (0, 0, 2, 0), 2)
    assert sig_mul((0, 0, 2, 0), s2) == sig(ring, (0, 0, 4, 0), 2)
    with pytest.raises(ValueError):
        sig_mul((1, 0, 0, 0), ZERO_SIGNATURE)


@pytest.mark.parametrize("kind", ["grevlex", "lex", "deglex"])
def test_sig_mul_past_the_packed_degree_raises(kind):
    ring = PolynomialRing(32003, ("x", "y"), kind)
    s = Signature(ring, (16000, 1), 1)
    assert s.mul((16000, 766)).monomial == (32000, 767)
    assert s.mul(ring.key((0, 16766))).monomial == (16000, 16767)
    with pytest.raises(ExponentOverflowError):
        s.mul((16000, 767))
    with pytest.raises(ExponentOverflowError):
        s.mul(ring.key((0, 16767)))


def test_signature_requires_positive_index(ring):
    with pytest.raises(ValueError):
        Signature(ring, (0, 0, 0, 0), 0)


# ---------------------------------------------------------------------------
# rule table


def test_add_rule_and_backwards_scan(ring):
    rules = RuleTable(ring)
    z2 = (0, 0, 2, 0)
    z4 = (0, 0, 4, 0)
    rules.add_rule(sig(ring, z2, 2), 3)
    assert rules.rules_for(2) == [(z2, 3)]
    rules.add_rule(sig(ring, z4, 2), 4)
    assert rules.rules_for(2) == [(z2, 3), (z4, 4)]

    # query (z^2, entry 3 with sig z^2 e2): z^4 | z^2*z^2, latest match is 4
    s3 = sig(ring, z2, 2)
    assert rules.find_rewriting(z2, s3, 3) == 4
    assert rules.is_rewritable(z2, s3, 3)

    # query (1, entry 3): only (z^2, 3) divides z^2; own entry, not rewritable
    one = (0, 0, 0, 0)
    assert rules.find_rewriting(one, s3, 3) == 3
    assert not rules.is_rewritable(one, s3, 3)


def test_find_rewriting_empty_rules(ring):
    rules = RuleTable(ring)
    s = sig(ring, (0, 0, 0, 0), 1)
    assert rules.find_rewriting((1, 0, 0, 0), s, 7) == 7
    assert not rules.is_rewritable((1, 0, 0, 0), s, 7)


def test_phantom_rule_rewrites(ring):
    rules = RuleTable(ring)
    u = (1, 2, 0, 0)
    rules.add_rule(sig(ring, u, 3), 0)
    assert rules.rules_for(3) == [(u, 0)]
    s = sig(ring, (0, 0, 0, 0), 3)
    assert rules.find_rewriting(u, s, 5) == 0
    assert rules.is_rewritable(u, s, 5)  # 0 != 5


def test_rule_index_monotonicity_enforced(ring):
    rules = RuleTable(ring)
    rules.add_rule(sig(ring, (0, 0, 2, 0), 2), 3)
    rules.add_rule(sig(ring, (0, 0, 0, 1), 2), 0)  # phantom interleaves freely
    rules.add_rule(sig(ring, (0, 0, 4, 0), 2), 4)
    with pytest.raises(ValueError):
        rules.add_rule(sig(ring, (0, 0, 6, 0), 2), 4)
    with pytest.raises(ValueError):
        rules.add_rule(sig(ring, (0, 0, 6, 0), 2), 2)


def test_rules_are_per_index(ring):
    rules = RuleTable(ring)
    rules.add_rule(sig(ring, (0, 0, 2, 0), 2), 3)
    s1 = sig(ring, (0, 0, 2, 0), 1)
    # same monomial, different index: Rules_1 is empty
    assert not rules.is_rewritable((0, 0, 0, 0), s1, 9)


# ---------------------------------------------------------------------------
# store


def mono_poly(ring, *terms):
    return ring.from_terms((e, c) for c, e in terms)


def test_store_append_and_cap(ring):
    store = PolyStore(ring, cap=2)
    f = mono_poly(ring, (1, (1, 0, 0, 0)))
    store.append(sig(ring, (0, 0, 0, 0), 1), f)
    store.append(sig(ring, (0, 0, 0, 0), 2), f)
    assert store.size == 2
    assert store.poly(1) == f
    with pytest.raises(StoreCapExceeded):
        store.append(sig(ring, (0, 0, 0, 0), 3), f)
    with pytest.raises(IndexError):
        store.entry(0)


def test_store_signature_frozen_across_payload_updates(ring):
    store = PolyStore(ring)
    f = mono_poly(ring, (1, (1, 0, 0, 0)), (1, (0, 1, 0, 0)))
    s = sig(ring, (0, 0, 0, 0), 1)
    k = store.append(s, f)
    store.set_poly(k, mono_poly(ring, (1, (0, 1, 0, 0))))
    assert store.sig(k) is s
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
        Signature(ring, (0, 0), 1), f1, cofactors=[ring.one, ring.zero]
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
    entry = LabeledPolynomial(Signature(ring, (1, 0), 2), f1, cofactors=[y, -x])
    assert admissible_check(entry, F)


def test_admissible_check_head_condition_violated():
    ring = xy_ring()
    f1 = mono_poly(ring, (1, (1, 1)), (1, (1, 0)))
    f2 = mono_poly(ring, (1, (0, 2)), (-1, (0, 0)))
    F = [f1, f2]
    entry = LabeledPolynomial(
        Signature(ring, (1, 0), 2), f1, cofactors=[ring.one, ring.zero]
    )
    # lt(h_2) is undefined (h_2 = 0), so (x e2) is not certified by (1, 0)
    assert not admissible_check(entry, F)


def test_admissible_check_requires_cofactors():
    ring = xy_ring()
    f = mono_poly(ring, (1, (1, 0)))
    entry = LabeledPolynomial(Signature(ring, (0, 0), 1), f)
    with pytest.raises(ValueError):
        admissible_check(entry, [f])


def test_certified_store_rejects_bad_entry():
    from f5gb.sigcore import AdmissibilityError

    ring = xy_ring()
    f1 = mono_poly(ring, (1, (1, 1)), (1, (1, 0)))
    f2 = mono_poly(ring, (1, (0, 2)), (-1, (0, 0)))
    store = PolyStore(ring, certified=True)
    store.reference_system = [f1, f2]
    store.append(Signature(ring, (0, 0), 1), f1, cofactors=[ring.one, ring.zero])
    with pytest.raises(AdmissibilityError):
        store.append(
            Signature(ring, (1, 0), 2), f1, cofactors=[ring.one, ring.zero]
        )
