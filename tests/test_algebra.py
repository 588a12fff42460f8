"""Field, monomial-order, and sparse-polynomial arithmetic tests."""

import itertools
import random

import pytest

from f5gb.algebra import (
    ArityError,
    ExponentOverflowError,
    NotDivisibleError,
    Polynomial,
    PolynomialRing,
    PrimeField,
    TermOrder,
    ZeroPolynomialError,
    homogenize,
    interreduce,
    interreduce_with_cofactors,
    is_prime,
    is_top_reducible,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
    normal_form,
    order_cmp,
    spoly,
    top_reduce_step,
)


def ring_xyzt(p=32003, order="grevlex"):
    return PolynomialRing(p, ("x", "y", "z", "t"), order)


def P(ring, *terms):
    """Build a polynomial from (coeff, exps) pairs written head-first or not."""
    return ring.from_terms((e, c) for c, e in terms)


# ---------------------------------------------------------------------------
# prime field


def test_prime_field_validation():
    PrimeField(2)
    PrimeField(32003)
    with pytest.raises(ValueError):
        PrimeField(1)
    with pytest.raises(ValueError):
        PrimeField(32004)
    with pytest.raises(ValueError):
        PrimeField(2 ** 31 + 11)


def test_field_axioms_f101_exhaustive():
    F = PrimeField(101)
    for a in range(101):
        for b in range(101):
            assert F.add(a, b) == (a + b) % 101
            assert F.mul(a, b) == (a * b) % 101
        if a:
            assert F.mul(a, F.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 101, 32003}
    for n in range(2, 120):
        assert is_prime(n) == all(n % d for d in range(2, n))
    assert all(is_prime(p) for p in primes)


# ---------------------------------------------------------------------------
# monomial orders.  Reference comparator implements the textbook definitions
# directly on exponent tuples and serves as the independent oracle.


def ref_cmp(kind, a, b):
    if kind in ("grevlex", "deglex"):
        if sum(a) != sum(b):
            return -1 if sum(a) < sum(b) else 1
    if kind == "grevlex":
        for x, y in zip(reversed(a), reversed(b)):
            if x != y:
                return 1 if x < y else -1
        return 0
    for x, y in zip(a, b):
        if x != y:
            return -1 if x < y else 1
    return 0


def all_monomials(n, max_deg):
    for exps in itertools.product(range(max_deg + 1), repeat=n):
        if sum(exps) <= max_deg:
            yield exps


@pytest.mark.parametrize("kind", ["grevlex", "lex", "deglex"])
def test_order_matches_reference_exhaustively(kind):
    order = TermOrder(kind)
    monos = list(all_monomials(3, 4))
    for a in monos:
        for b in monos:
            assert order_cmp(order, a, b) == ref_cmp(kind, a, b)


@pytest.mark.parametrize("kind", ["grevlex", "lex", "deglex"])
def test_order_is_admissible(kind):
    order = TermOrder(kind)
    one = (0, 0, 0)
    monos = [m for m in all_monomials(3, 3) if m != one]
    for m in monos:
        assert order_cmp(order, one, m) == -1  # 1 is minimal
    for a in monos:
        for b in monos:
            c = order_cmp(order, a, b)
            # compatible with multiplication
            u = (1, 0, 2)
            assert order_cmp(order, monomial_mul(a, u), monomial_mul(b, u)) == c
            # antisymmetry
            assert order_cmp(order, b, a) == -c


def test_order_cmp_worked_cases():
    # x^2*y vs x*z^2 under grevlex with x>y>z>t
    assert order_cmp(TermOrder("grevlex"), (2, 1, 0, 0), (1, 0, 2, 0)) == 1
    assert order_cmp(TermOrder("grevlex"), (1, 2, 3, 4), (1, 2, 3, 4)) == 0
    # lex: x vs y^2 with x>y
    assert order_cmp(TermOrder("lex"), (1, 0), (0, 2)) == 1


def test_order_cmp_arity_mismatch():
    with pytest.raises(ArityError):
        order_cmp(TermOrder("grevlex"), (1, 0), (1, 0, 0))


def test_packed_keys_agree_with_order():
    for kind in ("grevlex", "lex", "deglex"):
        ring = PolynomialRing(101, ("x", "y", "z"), kind)
        order = TermOrder(kind)
        monos = list(all_monomials(3, 4))
        for a in monos:
            assert ring.exps(ring.key(a)) == a
            for b in monos:
                ka, kb = ring.key(a), ring.key(b)
                assert (ka > kb) - (ka < kb) == order_cmp(order, a, b)
                assert ring.key_mul(ka, kb) == ring.key(monomial_mul(a, b))
        u = (1, 2, 0)
        for a in monos:
            full = monomial_mul(a, u)
            assert ring.key_div(ring.key(full), ring.key(u)) == ring.key(a)


@pytest.mark.parametrize("kind", ["grevlex", "lex", "deglex"])
def test_products_past_the_packed_degree_raise(kind):
    # unguarded, grevlex wraps (x^16000) * (x^16000*y)^2 to head (-17536, 3)
    ring = PolynomialRing(32003, ("x", "y"), kind)
    a = P(ring, (1, (16000, 0)))
    b = P(ring, (1, (16000, 1)), (2, (0, 16001)))
    b2 = b * b
    assert b2.lt() == (32000, 2) and ring.key_degree(b2.lt_key()) == 32002
    with pytest.raises(ExponentOverflowError):
        a * b2
    with pytest.raises(ExponentOverflowError):
        b2.term_mul_key(a.lt_key(), 1)
    with pytest.raises(ExponentOverflowError):
        spoly(b2, P(ring, (1, (0, 16000))))
    with pytest.raises(ExponentOverflowError):
        ring.key((32767, 1))
    if kind == "lex":
        # a lex head need not have the largest degree: the reducer's tail
        # term y^16383 becomes x^16382*y^32766
        f = P(ring, (1, (16383, 16383)))
        with pytest.raises(ExponentOverflowError):
            top_reduce_step(f, P(ring, (1, (1, 0)), (1, (0, 16383))))
    # degree 32767 still packs: every term of the product decodes exactly
    c = b2.term_mul((0, 765), 3)
    assert c.dict() == {(32000, 767): 3, (16000, 16767): 12, (0, 32767): 12}
    assert (a * P(ring, (1, (383, 16383)))).lt() == (16383, 16383)


# ---------------------------------------------------------------------------
# monomial lcm / division


def test_mono_lcm_examples():
    # lcm(x^2*y, x*z^2) = x^2*y*z^2
    assert monomial_lcm((2, 1, 0, 0), (1, 0, 2, 0)) == (2, 1, 2, 0)
    m = (3, 0, 1, 2)
    assert monomial_lcm(m, (0, 0, 0, 0)) == m
    assert monomial_lcm(m, m) == m


def test_mono_div_examples():
    assert monomial_div((2, 1, 2, 0), (2, 1, 0, 0)) == (0, 0, 2, 0)
    m = (5, 1, 0, 2)
    assert monomial_div(m, (0, 0, 0, 0)) == m
    with pytest.raises(NotDivisibleError):
        monomial_div((1, 0), (0, 1))
    with pytest.raises(ArityError):
        monomial_div((1, 0), (1, 0, 0))


def test_mono_lcm_laws_randomized():
    rng = random.Random(7)
    for _ in range(300):
        a = tuple(rng.randrange(5) for _ in range(4))
        b = tuple(rng.randrange(5) for _ in range(4))
        c = tuple(rng.randrange(5) for _ in range(4))
        ab = monomial_lcm(a, b)
        assert ab == monomial_lcm(b, a)
        assert monomial_lcm(ab, c) == monomial_lcm(a, monomial_lcm(b, c))
        assert monomial_lcm(a, a) == a
        # division of the lcm by either input always succeeds
        assert monomial_mul(monomial_div(ab, a), a) == ab
        assert monomial_divides(a, ab) and monomial_divides(b, ab)


# ---------------------------------------------------------------------------
# polynomials


def test_from_terms_normalizes():
    ring = ring_xyzt(7)
    f = ring.from_terms([((1, 0, 0, 0), 9), ((1, 0, 0, 0), 5), ((0, 1, 0, 0), 7)])
    # 9 + 5 = 14 = 0 mod 7 and the y term vanishes mod 7
    assert f.is_zero()
    g = ring.from_terms([((0, 0, 0, 0), -3), ((1, 0, 0, 0), 1)])
    assert g.dict() == {(1, 0, 0, 0): 1, (0, 0, 0, 0): 4}
    assert g.lt() == (1, 0, 0, 0)
    assert g.lc() == 1


def test_zero_polynomial_partial_ops():
    ring = ring_xyzt()
    with pytest.raises(ZeroPolynomialError):
        ring.zero.lt()
    with pytest.raises(ZeroPolynomialError):
        ring.zero.lc()
    with pytest.raises(ZeroPolynomialError):
        ring.zero.monic()


def test_poly_ring_arithmetic_matches_brute_force():
    rng = random.Random(11)
    ring = PolynomialRing(101, ("x", "y"), "grevlex")

    def rand_poly():
        return ring.from_terms(
            ((rng.randrange(4), rng.randrange(4)), rng.randrange(101))
            for _ in range(rng.randrange(6))
        )

    def brute_mul(f, g):
        acc = {}
        for mf, cf in f.dict().items():
            for mg, cg in g.dict().items():
                m = monomial_mul(mf, mg)
                acc[m] = (acc.get(m, 0) + cf * cg) % 101
        return ring.from_terms(acc.items())

    for _ in range(200):
        f, g = rand_poly(), rand_poly()
        assert (f + g).dict() == {
            m: c
            for m in set(f.dict()) | set(g.dict())
            if (c := (f.dict().get(m, 0) + g.dict().get(m, 0)) % 101)
        }
        assert f * g == brute_mul(f, g)
        assert f - f == ring.zero
        assert (f + g) - g == f


def test_terms_strictly_descending_invariant():
    rng = random.Random(13)
    ring = ring_xyzt(101)
    for _ in range(100):
        f = ring.from_terms(
            (tuple(rng.randrange(4) for _ in range(4)), rng.randrange(101))
            for _ in range(8)
        )
        keys = [k for k, _ in f.terms]
        assert keys == sorted(keys, reverse=True)
        assert all(c for _, c in f.terms)


# ---------------------------------------------------------------------------
# S-polynomials


def test_spoly_example_from_module_representation():
    # spoly(xy + x, y^2 - 1) = y*(xy+x) - x*(y^2-1) = xy + x
    ring = PolynomialRing(32003, ("x", "y"))
    f1 = P(ring, (1, (1, 1)), (1, (1, 0)))
    f2 = P(ring, (1, (0, 2)), (-1, (0, 0)))
    assert spoly(f1, f2) == f1


def test_spoly_two_variable_homogeneous_example():
    # spoly(xh + h^2, yh + h^2) = y*(xh+h^2) - x*(yh+h^2) = yh^2 - xh^2
    ring = PolynomialRing(32003, ("x", "y", "h"))
    f1 = P(ring, (1, (1, 0, 1)), (1, (0, 0, 2)))
    f2 = P(ring, (1, (0, 1, 1)), (1, (0, 0, 2)))
    s = spoly(f1, f2)
    assert s == P(ring, (1, (0, 1, 2)), (-1, (1, 0, 2)))


def test_spoly_self_is_zero_and_zero_errors():
    ring = ring_xyzt()
    f = P(ring, (3, (1, 2, 0, 0)), (1, (0, 0, 1, 0)))
    assert spoly(f, f).is_zero()
    with pytest.raises(ZeroPolynomialError):
        spoly(f, ring.zero)


def test_spoly_head_cancellation_property():
    rng = random.Random(17)
    ring = PolynomialRing(101, ("x", "y", "z"))
    made = 0
    while made < 120:
        f = ring.from_terms(
            ((rng.randrange(4), rng.randrange(4), rng.randrange(4)), rng.randrange(1, 101))
            for _ in range(rng.randrange(1, 5))
        )
        g = ring.from_terms(
            ((rng.randrange(4), rng.randrange(4), rng.randrange(4)), rng.randrange(1, 101))
            for _ in range(rng.randrange(1, 5))
        )
        if f.is_zero() or g.is_zero():
            continue
        made += 1
        s = spoly(f, g)
        lcm_key = ring.key(monomial_lcm(f.lt(), g.lt()))
        if s:
            assert s.lt_key() < lcm_key


# ---------------------------------------------------------------------------
# top reduction and normal forms


def test_top_reduce_step_cases():
    ring = PolynomialRing(32003, ("x", "y"))
    p = P(ring, (1, (2, 0)), (1, (1, 1)))
    g = P(ring, (1, (1, 0)), (1, (0, 1)))
    assert top_reduce_step(p, g).is_zero()  # x^2 + xy - x*(x + y) = 0
    with pytest.raises(NotDivisibleError):
        top_reduce_step(P(ring, (1, (2, 0))), P(ring, (1, (0, 1))))


def test_top_reduce_step_single_subtraction():
    ring = ring_xyzt()
    p = P(ring, (1, (2, 1, 2, 0)), (-1, (0, 0, 4, 1)))  # x2yz2 - z4t
    g = P(ring, (1, (2, 1, 0, 0)), (-1, (0, 0, 2, 1)))  # x2y - z2t
    # p - z^2 * g = -z4t + z4t = 0
    assert top_reduce_step(p, g).is_zero()


def test_top_reduce_head_strictly_decreases():
    rng = random.Random(23)
    ring = PolynomialRing(101, ("x", "y", "z"))
    done = 0
    while done < 100:
        g = ring.from_terms(
            ((rng.randrange(3), rng.randrange(3), rng.randrange(3)), rng.randrange(1, 101))
            for _ in range(rng.randrange(1, 4))
        )
        if g.is_zero():
            continue
        u = tuple(rng.randrange(3) for _ in range(3))
        extra = ring.from_terms(
            ((rng.randrange(2), rng.randrange(2), rng.randrange(2)), rng.randrange(101))
            for _ in range(2)
        )
        p = g.term_mul(u, rng.randrange(1, 101)) + extra
        if p.is_zero() or not monomial_divides(g.lt(), p.lt()):
            continue
        done += 1
        r = top_reduce_step(p, g)
        if r:
            assert r.lt_key() < p.lt_key()


def test_is_top_reducible():
    ring = ring_xyzt()
    g = P(ring, (1, (1, 0, 2, 0)), (-1, (0, 2, 0, 1)))  # xz2 - y2t
    assert is_top_reducible((1, 0, 4, 0), [g])  # xz2 | xz4
    assert not is_top_reducible((0, 0, 4, 0), [g])
    assert not is_top_reducible((0, 0, 4, 0), [])


def test_normal_form_basics():
    ring = ring_xyzt()
    G = [
        P(ring, (1, (1, 0, 2, 0)), (-1, (0, 2, 0, 1))),  # xz2 - y2t
        P(ring, (1, (2, 1, 0, 0)), (-1, (0, 0, 2, 1))),  # x2y - z2t
    ]
    assert normal_form(ring.zero, G).is_zero()
    f = P(ring, (1, (1, 3, 0, 1)), (-1, (0, 0, 4, 1)))  # xy3t - z4t
    assert normal_form(f, G) == f  # nothing divisible


def test_normal_form_full_reduction_and_congruence():
    rng = random.Random(31)
    ring = PolynomialRing(101, ("x", "y", "z"))

    def rand_poly(nterms, deg=3):
        return ring.from_terms(
            (
                (rng.randrange(deg), rng.randrange(deg), rng.randrange(deg)),
                rng.randrange(101),
            )
            for _ in range(nterms)
        )

    for _ in range(150):
        G = [g for g in (rand_poly(3), rand_poly(2)) if g]
        f = rand_poly(5)
        r = normal_form(f, G)
        # no monomial of the result is divisible by any head
        for m in r.monomials():
            assert not is_top_reducible(m, G)
        # idempotence
        assert normal_form(r, G) == r
        # congruence: f - r lies in <G> (certified by quotient tracking)
        from f5gb.algebra import ReducerSet

        reducers = ReducerSet(ring, G)
        quotients = [dict() for _ in reducers.polys]
        r2 = reducers.reduce_full(f, quotients=quotients)
        assert r2 == r
        rebuilt = ring.zero
        for qmap, g in zip(quotients, reducers.polys):
            q = Polynomial(ring, tuple(sorted(qmap.items(), reverse=True)))
            rebuilt = rebuilt + q * g
        assert rebuilt + r == f


def test_normal_form_against_other_reduced_basis_members():
    # the raw basis element x^5*t^2 - y^2*z^3*t^2 tail-reduces against the
    # other seven reduced-basis elements to x^5*t^2 - z^2*t^5; against the
    # full reduced basis (which contains that very element) it drops to 0
    ring = PolynomialRing(32003, ("x", "y", "z", "t"))
    from f5gb.cli import parse_polynomial

    others = [
        parse_polynomial(ring, s)
        for s in (
            "x*z^2 - y^2*t",
            "x^2*y - z^2*t",
            "y*z^3 - x^2*t^2",
            "y^3*z*t - x^3*t^2",
            "x*y^3*t - z^4*t",
            "z^5*t - x^4*t^2",
            "y^5*t^2 - x^4*z*t^2",
        )
    ]
    raw = parse_polynomial(ring, "x^5*t^2 - y^2*z^3*t^2")
    reduced = parse_polynomial(ring, "x^5*t^2 - z^2*t^5")
    assert normal_form(raw, others) == reduced
    assert normal_form(raw, others + [reduced]).is_zero()


def test_normal_form_counts_steps():
    class Stats:
        reduction_steps = 0

    ring = PolynomialRing(101, ("x", "y"))
    g = P(ring, (1, (1, 0)), (1, (0, 1)))  # x + y
    f = P(ring, (1, (3, 0)))  # x^3 -> x^2 y -> x y^2 -> y^3: 3 steps
    stats = Stats()
    r = normal_form(f, [g], stats=stats)
    assert r == P(ring, (-1, (0, 3)))
    assert stats.reduction_steps == 3


# ---------------------------------------------------------------------------
# interreduction


def test_interreduce_trivial_cases():
    ring = PolynomialRing(32003, ("x", "y"))
    x = ring.variable("x")
    y = ring.variable("y")
    out = interreduce([x, x + y])
    assert out == [y, x]  # ascending heads, y < x under grevlex
    f = P(ring, (5, (1, 1)), (3, (0, 1)))
    assert interreduce([f]) == [f.monic()]
    assert interreduce([ring.zero, x]) == [x]


def test_interreduce_properties_randomized():
    rng = random.Random(37)
    ring = PolynomialRing(101, ("x", "y", "z"))
    for _ in range(100):
        G = [
            ring.from_terms(
                (
                    (rng.randrange(3), rng.randrange(3), rng.randrange(3)),
                    rng.randrange(101),
                )
                for _ in range(rng.randrange(1, 4))
            )
            for _ in range(rng.randrange(1, 5))
        ]
        out = interreduce(G)
        heads = [g.lt() for g in out]
        keys = [g.lt_key() for g in out]
        assert keys == sorted(keys)
        for i, g in enumerate(out):
            assert g.lc() == 1
            others = out[:i] + out[i + 1 :]
            for m in g.monomials():
                assert not is_top_reducible(m, others)
        assert len(set(heads)) == len(heads)


def test_interreduce_permutation_invariance_on_groebner_bases():
    # permutation invariance is asserted on actual Groebner bases in the
    # driver tests; here a head-disjoint family is its own reduced basis
    ring = ring_xyzt()
    G = [
        P(ring, (1, (1, 0, 2, 0)), (-1, (0, 2, 0, 1))),
        P(ring, (1, (2, 1, 0, 0)), (-1, (0, 0, 2, 1))),
        P(ring, (2, (0, 1, 3, 0)), (-2, (2, 0, 0, 2))),
    ]
    expected = interreduce(G)
    for perm in itertools.permutations(G):
        assert interreduce(list(perm)) == expected


def test_interreduce_with_cofactors_on_raw_f5_basis():
    from f5gb.bench import katsura
    from f5gb.drivers import f5

    G = f5(katsura(3, 101)).basis
    ring = G[0].ring
    outputs, combos = interreduce_with_cofactors(G)
    assert outputs == interreduce(G)
    assert len(combos) == len(outputs)
    for out, combo in zip(outputs, combos):
        total = ring.zero
        for i, q in combo.items():
            total = total + q * G[i]
        assert total == out


def test_interreduce_with_cofactors_rejects_non_groebner_input():
    ring = PolynomialRing(32003, ("x", "y"))
    # head minimization drops x^2*y^2, which reduces to y, not 0
    G = [
        P(ring, (1, (2, 1)), (-1, (0, 0))),
        P(ring, (1, (1, 2)), (-1, (0, 0))),
        P(ring, (1, (2, 2))),
    ]
    with pytest.raises(ValueError):
        interreduce_with_cofactors(G)


# ---------------------------------------------------------------------------
# homogenize


def test_homogenize_adds_lowest_variable():
    ring = PolynomialRing(7, ("x", "y"))
    f = P(ring, (1, (2, 0)), (1, (0, 1)), (3, (0, 0)))
    new_ring, (g,) = homogenize([f])
    assert new_ring.names == ("x", "y", "h")
    assert g.is_homogeneous()
    assert g.dict() == {(2, 0, 0): 1, (0, 1, 1): 1, (0, 0, 2): 3}


def test_homogenize_fresh_name():
    ring = PolynomialRing(7, ("x", "h"))
    f = P(ring, (1, (1, 0)), (1, (0, 0)))
    new_ring, _ = homogenize([f])
    assert new_ring.names[-1] not in ("x", "h")


def test_render_and_degree():
    ring = ring_xyzt(7)
    f = P(ring, (1, (2, 1, 0, 0)), (-3, (0, 0, 2, 1)))
    assert ring.render(f) == "x^2*y - 3*z^2*t"
    assert f.degree() == 3
    assert f.is_homogeneous()
    assert ring.render(ring.zero) == "0"
