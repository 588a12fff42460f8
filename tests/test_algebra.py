"""Field, monomial-order, and sparse-polynomial arithmetic tests."""

import itertools
import random
from heapq import heappop, heappush

import pytest
from hypothesis import given, settings, strategies as st

from f5gb.algebra import (
    ORDER_KINDS,
    ArityError,
    ExponentOverflowError,
    NotDivisibleError,
    Polynomial,
    PolynomialRing,
    PrimeField,
    ReducerSet,
    TermOrder,
    WorkingPayload,
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
    reduce_payload,
    reduced_basis,
    spoly,
    sum_products,
    top_reduce_step,
)
from f5gb.bench import cyclic, katsura
from f5gb.drivers import (
    VARIANTS,
    VariantConfig,
    buchberger_reduced,
    f5,
    groebner_check,
    run_variant,
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
    # an lcm of degree 32767 packs, coprime or not; one more y does not
    for u, v in [((0, 16383), (16384, 0)), ((10000, 16383), (16384, 10000))]:
        lcm = ring.lcm(ring.key(u), ring.key(v))
        assert ring.exps(lcm) == (16384, 16383) and ring.key_degree(lcm) == 32767
        with pytest.raises(ExponentOverflowError):
            ring.lcm(ring.key((u[0], u[1] + 1)), ring.key(v))


def test_lex_eliminations_past_the_packed_degree_raise():
    # under lex a reducer's tail can outgrow its head: each elimination by
    # x - y^16383 trades one x for 16383 y's
    ring = PolynomialRing(32003, ("x", "y"), "lex")
    g = P(ring, (1, (1, 0)), (32002, (0, 16383)))
    assert normal_form(P(ring, (1, (2, 1))), [g]).terms == ((ring.key((0, 32767)), 1),)
    with pytest.raises(ExponentOverflowError):
        normal_form(P(ring, (1, (2, 2))), [g])  # unguarded: y^32768
    with pytest.raises(ExponentOverflowError):
        normal_form(P(ring, (1, (5, 0))), [P(ring, (1, (1, 0)), (32002, (0, 16000)))])
    # the tail pass reduces y - z^2 to y - w^20000 before x - y^2 uses it:
    # x - w^40000 does not pack
    ring = PolynomialRing(32003, ("x", "y", "z", "w"), "lex")
    G = [P(ring, (1, (1, 0, 0, 0)), (32002, (0, 2, 0, 0))),
         P(ring, (1, (0, 1, 0, 0)), (32002, (0, 0, 2, 0))),
         P(ring, (1, (0, 0, 1, 0)), (32002, (0, 0, 0, 10000)))]
    y_w = ((ring.key((0, 1, 0, 0)), 1), (ring.key((0, 0, 0, 20000)), 32002))
    assert interreduce(G[1:])[1].terms == y_w
    with pytest.raises(ExponentOverflowError):
        interreduce(G)
    # a multiple folded into a payload, as a top-reduction step does
    rs, payload = ReducerSet(ring, []), WorkingPayload(ring.zero)
    off = ring.key((0, 0, 0, 16000)) - ring.unit_key
    rs.fold_normal_form(payload, off, 1, ((ring.key((0, 0, 0, 16767)), 1),))
    assert payload.poly().terms == ((ring.key((0, 0, 0, 32767)), 1),)
    with pytest.raises(ExponentOverflowError):
        rs.fold_normal_form(payload, off, 1, ((ring.key((0, 0, 0, 16768)), 1),))


def test_lex_spoly_tails_past_the_packed_degree_raise():
    # the lcm x*y^13000 packs, but y^13000 times the tail y^20000 does not,
    # in either argument order; a tail one degree lower packs exactly
    ring = PolynomialRing(32003, ("x", "y"), "lex")
    f = P(ring, (1, (1, 0)), (1, (0, 20000)))
    g = P(ring, (1, (1, 13000)))
    for a, b in ((f, g), (g, f)):
        with pytest.raises(ExponentOverflowError):
            spoly(a, b)
    h = P(ring, (1, (1, 0)), (1, (0, 19767)))
    assert spoly(h, g) == P(ring, (1, (0, 32767)))


@st.composite
def monomials(draw, n, budget):
    """n exponents of total degree at most budget; 0, 16383 and the rest of
    the budget are drawn often."""
    exps = []
    for _ in range(n):
        e = draw(
            st.one_of(
                st.integers(0, 3), st.integers(0, 16383), st.just(16383), st.just(budget)
            )
        )
        e = min(e, budget)
        budget -= e
        exps.append(e)
    return tuple(exps)


@st.composite
def divisibility_cases(draw):
    """(ring, a, b) up to the packed limit 32767; b is often a, the unit
    monomial, a times one variable, or another multiple of a."""
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(ORDER_KINDS))
    ring = PolynomialRing(32003, tuple(f"x{i}" for i in range(n)), kind)
    a = draw(monomials(n, 32766))
    how = draw(st.sampled_from(("any", "equal", "unit", "times_var", "multiple")))
    if how == "any":
        b = draw(monomials(n, 32767))
    elif how == "equal":
        b = a
    elif how == "unit":
        b = (0,) * n
    elif how == "times_var":
        i = draw(st.integers(0, n - 1))
        b = a[:i] + (a[i] + 1,) + a[i + 1:]
    else:
        b = monomial_mul(a, draw(monomials(n, 32767 - sum(a))))
    return ring, a, b


@given(divisibility_cases())
def test_key_divisibility_agrees_with_exponent_tuples(case):
    ring, a, b = case
    ka, kb = ring.key(a), ring.key(b)
    assert ring.divides(ka, kb) == monomial_divides(a, b)
    assert ring.divides(kb, ka) == monomial_divides(b, a)
    # ring.lcm packs exactly where ring.key(monomial_lcm(a, b)) does
    lcm = monomial_lcm(a, b)
    if sum(lcm) > 32767:
        with pytest.raises(ExponentOverflowError):
            ring.lcm(ka, kb)
    else:
        assert ring.lcm(ka, kb) == ring.lcm(kb, ka) == ring.key(lcm)


@pytest.mark.parametrize("kind", ORDER_KINDS)
def test_lcms_is_the_lcm_of_each_key(kind):
    # one batch against exponent tuples; a batch raises when any of its
    # lcms does not pack, wherever that pair sits in it
    ring = PolynomialRing(32003, ("x", "y", "z"), kind)
    rng = random.Random(7)
    a = (3, 0, 5)
    bs = [tuple(rng.randint(0, 6) for _ in range(3)) for _ in range(40)]
    expected = [ring.key(monomial_lcm(a, b)) for b in bs]
    assert ring.lcms(ring.key(a), [ring.key(b) for b in bs]) == expected
    assert ring.lcms(ring.key(a), []) == []
    big = ring.key((16383, 0, 2))
    near = [ring.key(b) for b in ((0, 16382, 0), (0, 16383, 1), (1, 1, 1))]
    with pytest.raises(ExponentOverflowError):
        ring.lcms(big, near)
    assert ring.lcms(big, near[::2]) == [ring.key((16383, 16382, 2)), ring.key((16383, 1, 2))]


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


def _reference_sum_products(ring, pairs):
    """sum(a * b) from exponent tuples: monomial_mul on every term pair, then
    one from_terms, which packs each product and raises past degree 32767."""
    return ring.from_terms(
        (monomial_mul(ma, mb), ca * cb)
        for a, b in pairs
        for ma, ca in a.dict().items()
        for mb, cb in b.dict().items()
    )


def _outcome(f, *args):
    try:
        return f(*args)
    except ExponentOverflowError:
        return ExponentOverflowError


@st.composite
def product_sums(draw):
    """(ring, pairs) over p in {2, 3, 32003, 2**31 - 1}: coefficients p - 1
    (products near 2**62) and exponents up to 8191, so that with three or
    more variables a product's degree can pass the packed limit 32767.
    Terms come from a small pool of monomials, so products collide and
    their sums cancel."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(ORDER_KINDS))
    p = draw(st.sampled_from((2, 3, 32003, 2**31 - 1)))
    ring = PolynomialRing(p, tuple(f"x{i}" for i in range(n)), kind)
    exponent = st.one_of(st.integers(0, 1), st.just(8191), st.integers(0, 8191))
    pool = draw(st.lists(st.tuples(*[exponent] * n), min_size=1, max_size=4))
    coeff = st.one_of(st.just(p - 1), st.integers(0, p - 1), st.just(1))
    term = st.tuples(st.sampled_from(pool), coeff)
    poly = st.lists(term, max_size=5).map(ring.from_terms)
    return ring, draw(st.lists(st.tuples(poly, poly), max_size=4))


def _check_sum_products(ring, pairs):
    # __mul__'s guard: a nonzero pair whose degrees sum past the limit raises
    overflow = any(a and b and a.degree() + b.degree() > 32767 for a, b in pairs)
    expected = _outcome(_reference_sum_products, ring, pairs)
    assert (expected is ExponentOverflowError) == overflow
    assert _outcome(sum_products, ring, pairs) == expected
    for a, b in pairs:
        assert _outcome(a.__mul__, b) == _outcome(_reference_sum_products, ring, [(a, b)])


@given(product_sums())
@settings(max_examples=200)
def test_sum_products_and_mul_match_exponent_tuple_reference(case):
    _check_sum_products(*case)


def _fixed_product_sums():
    """Cases the draws may miss: raw sums of products near 2**62 that cancel
    only mod p, and a lex product past the packed degree whose head is not
    its largest-degree term."""
    big = PolynomialRing(2**31 - 1, ("x", "y"))
    f = P(big, (2**31 - 2, (1, 0)), (2**31 - 2, (0, 1)))  # -x - y
    g = P(big, (2**31 - 2, (1, 0)), (1, (0, 0)))  # -x + 1
    lex = PolynomialRing(3, ("w", "x", "y", "z"), "lex")
    h = P(lex, (1, (1, 0, 0, 0)), (2, (0, 8191, 8191, 8191)))  # head w
    return {
        "cancel_near_2_62": (big, [(f, g), (f, -g)]),
        "sum_past_2_62": (big, [(f, f), (f, f), (g, g)]),
        "lex_overflow_below_head": (lex, [(h, h)]),
        "lex_tail_degree_packs": (lex, [(h, lex.one), (lex.one, h)]),
    }


@pytest.mark.parametrize("name", sorted(_fixed_product_sums()))
def test_sum_products_fixed_cases_match_reference(name):
    _check_sum_products(*_fixed_product_sums()[name])


def test_sum_products_edge_cases():
    ring = ring_xyzt(3)
    f = P(ring, (2, (1, 0, 0, 0)), (1, (0, 0, 0, 0)))  # 2x + 1
    assert sum_products(ring, []) == ring.zero
    assert sum_products(ring, [(ring.zero, f), (f, ring.zero)]) == ring.zero
    assert f * ring.zero == ring.zero and ring.zero * f == ring.zero
    # (2x + 1)^2 + 2x * x = 6x^2 + 4x + 1 = x + 1 over F_3: the x^2
    # coefficient cancels only mod p
    x = ring.variable("x")
    assert sum_products(ring, [(f, f), (x.scale(2), x)]) == P(
        ring, (1, (1, 0, 0, 0)), (1, (0, 0, 0, 0))
    )
    # a product past the packed degree raises even when the sum cancels it
    big = P(ring, (1, (16000, 0, 0, 0)))
    huge = P(ring, (1, (16000, 800, 0, 0)))
    with pytest.raises(ExponentOverflowError):
        sum_products(ring, [(big, huge), (big.scale(2), huge)])


def _two_ring_cases():
    """Name -> a call that combines polynomials of two rings: x^2 - y (or
    x*y) over F_7 with x*y over F_11, and a grevlex ring with a lex one."""
    r7, r11 = PolynomialRing(7, ("x", "y")), PolynomialRing(11, ("x", "y"))
    lex7 = PolynomialRing(7, ("x", "y"), "lex")
    x7, y7, x11, y11 = r7.variable("x"), r7.variable("y"), r11.variable("x"), r11.variable("y")
    f7, g11 = x7 * x7 - y7, x11 * y11
    return {
        "sum": lambda: x7 * x7 + lex7.variable("x") * lex7.variable("y"),
        "product": lambda: x7 * x11,
        "sum_products": lambda: sum_products(r7, [(x7, r7.one), (x11, r11.one)]),
        "spoly": lambda: spoly(f7, g11),
        "normal_form": lambda: normal_form(x7 * x7, [x11]),
        "reducer_set": lambda: ReducerSet(r7, [x7, y11]),
        "reduce_full": lambda: ReducerSet(r7, [x7]).reduce_full(x11 * x11),
        "interreduce": lambda: interreduce([f7, g11]),
        "buchberger_reduced": lambda: buchberger_reduced([f7, g11]),
        "groebner_check": lambda: groebner_check([f7, g11]),
        # f5 takes homogeneous input only
        "f5": lambda: f5([x7 * y7, g11]),
        "run_variant": lambda: run_variant([x7 * y7, g11], VariantConfig("f5c")),
        "homogenize": lambda: homogenize([f7, g11]),
    }


@pytest.mark.parametrize("name", sorted(_two_ring_cases()))
def test_polynomials_of_two_rings_raise(name):
    with pytest.raises(ValueError, match="one ring"):
        _two_ring_cases()[name]()


def test_equal_rings_built_separately_combine():
    a, b = PolynomialRing(7, ("x", "y")), PolynomialRing(7, ("x", "y"))
    x, y = a.variable("x"), b.variable("y")
    assert (x + y).terms == (a.variable("x") + a.variable("y")).terms
    assert sum_products(a, [(x, y), (y, x)]) == (x * y).scale(2)
    assert spoly(x * x, x * y) == a.zero
    assert normal_form(x * y + y * y, [y]) == a.zero
    assert ReducerSet(b, [x]).reduce_full(x * y + y * y) == y * y
    assert interreduce([x * x, y.scale(3)]) == [y, x * x]


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
        term_ops = 0

    ring = PolynomialRing(101, ("x", "y"))
    g = P(ring, (1, (1, 0)), (1, (0, 1)))  # x + y
    f = P(ring, (1, (3, 0)))  # x^3 -> x^2 y -> x y^2 -> y^3: 3 steps
    stats = Stats()
    r = normal_form(f, [g], stats=stats)
    assert r == P(ring, (-1, (0, 3)))
    assert stats.reduction_steps == 3
    assert stats.term_ops == 3  # each step adds the one tail term of g


def eager_reduce_full(rs, f, stats=None, quotients=None):
    """The eager reduce_full, the reference the kernel must match: every term
    operation reduces mod p and deletes a key that cancels, and every call
    builds its dict and heap from all of f.  Each elimination counts one
    step and its reducer's tail terms on stats."""
    if not f.terms:
        return f
    ring = rs.ring
    p = ring.p
    find = rs.find_divisor
    work = dict(f.terms)
    heap = sorted(-k for k in work)
    out = []
    steps = term_ops = 0
    while heap:
        key = -heappop(heap)
        c = work.pop(key, 0)
        if not c:
            continue
        cand = find(key)
        if cand is None:
            out.append((key, c))
            continue
        gk, _, inv_lc, pos, tail = cand[:5]
        steps += 1
        term_ops += len(tail)
        fac = (c * inv_lc) % p
        if quotients is not None:
            qk = ring.key_div(key, gk)
            qmap = quotients[pos]
            qmap[qk] = (qmap.get(qk, 0) + fac) % p
        off = key - gk
        get = work.get
        for tk, tc in tail:
            nk = off + tk
            prev = get(nk)
            if prev is None:
                nc = (-fac * tc) % p
                if nc:
                    work[nk] = nc
                    heappush(heap, -nk)
            else:
                nc = (prev - fac * tc) % p
                if nc:
                    work[nk] = nc
                else:
                    del work[nk]
    if stats is not None:
        stats.reduction_steps += steps
        stats.term_ops += term_ops
    return Polynomial(ring, tuple(out))


class _Steps:
    reduction_steps = 0
    term_ops = 0


class _RecordingReducerSet(ReducerSet):
    """A ReducerSet that logs every key passed to find_divisor."""

    __slots__ = ("keys",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.keys = []

    def find_divisor(self, key):
        self.keys.append(key)
        return super().find_divisor(key)


class _LoggedQuotients(dict):
    """A quotient map that logs (reducer position, quotient key) per write,
    so the log lists the eliminations in the order a kernel made them."""

    def __init__(self, pos, log):
        super().__init__()
        self.pos, self.log = pos, log

    def __setitem__(self, key, value):
        self.log.append((self.pos, key))
        super().__setitem__(key, value)


def _logged_quotients(n):
    """n empty logged quotient maps that share one elimination log."""
    log = []
    return [_LoggedQuotients(pos, log) for pos in range(n)], log


def _assert_each_key_looked_up_once(keys):
    assert len(set(keys)) == len(keys), "a key was passed to find_divisor twice"


def _run_kernel(kernel, ring, G, f, prefer):
    """(result, (steps, term ops), quotient maps, elimination log,
    looked-up keys) of one reduction."""
    rs = _RecordingReducerSet(ring, G, prefer=prefer)
    stats = _Steps()
    quotients, log = _logged_quotients(len(rs.polys))
    result = kernel(rs, f, stats=stats, quotients=quotients)
    return result, (stats.reduction_steps, stats.term_ops), quotients, log, rs.keys


def _check_against_eager(ring, G, f, prefer=1):
    got = _run_kernel(ReducerSet.reduce_full, ring, G, f, prefer)
    want = _run_kernel(eager_reduce_full, ring, G, f, prefer)
    assert got[0].terms == want[0].terms
    assert got[1:4] == want[1:4]
    _assert_each_key_looked_up_once(got[4])
    return got


@st.composite
def reduction_cases(draw):
    """(ring, G, f, prefer) over p in {2, 3, 32003, 2**31 - 1}.  Exponents
    stay small, so heads divide many monomials and eliminations collide on
    shared keys; coefficients are often p - 1, so raw sums grow large."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(ORDER_KINDS))
    p = draw(st.sampled_from((2, 3, 32003, 2**31 - 1)))
    ring = PolynomialRing(p, tuple(f"x{i}" for i in range(n)), kind)
    exps = st.tuples(*[st.integers(0, 3)] * n)
    coeff = st.one_of(st.just(p - 1), st.integers(1, p - 1), st.just(1))
    poly = st.lists(st.tuples(exps, coeff), max_size=8).map(ring.from_terms)
    G = draw(st.lists(poly, min_size=1, max_size=4))
    return ring, G, draw(poly), draw(st.sampled_from((1, -1)))


@given(reduction_cases())
@settings(max_examples=300)
def test_reduce_full_matches_eager_reference(case):
    _check_against_eager(*case)


def _fixed_reduction_cases():
    """(ring, G, f, normal form) for cases the draws may miss, each named for
    the kernel path it pins."""
    big = PolynomialRing(2**31 - 1, ("a", "b", "c", "d", "z"))
    m = 2**31 - 2  # -1
    # a, b, c, d -> z: four eliminations each add the raw product
    # (p - 1) * (p - 1) to z, about 2**64 in all before the pop reduces it
    units = [tuple(int(i == j) for j in range(5)) for i in range(4)]
    linear = [P(big, (1, e), (m, (0, 0, 0, 0, 1))) for e in units]
    small = PolynomialRing(7, ("x", "y", "z", "w"))
    heads = [
        P(small, (1, (2, 0, 0, 0)), (6, (0, 0, 0, 2))),  # x^2 - w^2
        P(small, (1, (0, 2, 0, 0)), (1, (0, 0, 0, 2))),  # y^2 + w^2
        P(small, (1, (0, 0, 2, 0)), (6, (0, 0, 0, 2))),  # z^2 - w^2
    ]
    y2 = [P(small, (1, (0, 2, 0, 0)), (3, (0, 0, 2, 0)))]  # y^2 + 3z^2
    front = ((2, (3, 0, 0, 0)), (5, (2, 1, 0, 0)))  # 2x^3 + 5x^2y
    return {
        "four_products_past_2_63": (
            big, linear, P(big, *((1, e) for e in units)), P(big, (4, (0, 0, 0, 0, 1)))
        ),
        # x^2 and y^2 add 36 + 6 = 42 = 0 mod 7 to w^2; z^2 then adds 36 more
        "cancel_to_zero_then_hit": (
            small, heads, P(small, *((1, g.lt()) for g in heads)), P(small, (1, (0, 0, 0, 2)))
        ),
        "cancel_to_zero": (
            small, heads[:2], P(small, *((1, g.lt()) for g in heads[:2])), small.zero
        ),
        # y^2 divides nothing in front of x*y^2
        "irreducible_prefix": (
            small,
            y2,
            P(small, *front, (1, (1, 2, 0, 0)), (4, (0, 0, 3, 0))),
            P(small, *front, (4, (1, 0, 2, 0)), (4, (0, 0, 3, 0))),
        ),
        "fully_irreducible": (
            small, y2, P(small, *front, (4, (0, 0, 3, 0))), P(small, *front, (4, (0, 0, 3, 0)))
        ),
    }


@pytest.mark.parametrize("name", sorted(_fixed_reduction_cases()))
@pytest.mark.parametrize("prefer", [1, -1])
def test_reduce_full_fixed_cases_match_eager_reference(name, prefer):
    ring, G, f, expected = _fixed_reduction_cases()[name]
    assert _check_against_eager(ring, G, f, prefer)[0] == expected


@pytest.mark.parametrize("F", [katsura(4), cyclic(5)], ids=["katsura-4", "cyclic-5"])
def test_engine_runs_eliminate_as_the_eager_kernel(F, monkeypatch):
    """Pin that every reduce_full call of real runs, plain and certified,
    makes the reference kernel's eliminations in its order, and passes no
    key to find_divisor twice.  These calls are the first normal forms of
    the S-polynomials, F5R's and F5C's interreductions, the oracle and the
    verification.  Top-reduction steps call fold_normal_form directly,
    which the fold tests below check against the reference."""
    kernel, find = ReducerSet.reduce_full, ReducerSet.find_divisor
    open_logs = []  # the key log of each reduction in progress
    compared = []  # the reference's looked-up keys per call

    def recording_find(rs, key):
        if open_logs:
            open_logs[-1].append(key)
        return find(rs, key)

    def logged(run, rs, f, stats, quotients):
        open_logs.append([])
        try:
            return run(rs, f, stats=stats, quotients=quotients), open_logs[-1]
        finally:
            open_logs.pop()

    def checked_reduce_full(rs, f, stats=None, quotients=None):
        # both kernels write logged maps, copied into the caller's (empty) ones
        assert not any(quotients or ())
        got_q, got_log = _logged_quotients(len(rs.polys))
        ref_q, ref_log = _logged_quotients(len(rs.polys))
        ref_stats = _Steps()
        before = (stats.reduction_steps, stats.term_ops) if stats is not None else None
        result, keys = logged(kernel, rs, f, stats, got_q)
        expected, ref_keys = logged(eager_reduce_full, rs, f, ref_stats, ref_q)
        _assert_each_key_looked_up_once(keys)
        assert result.terms == expected.terms
        assert got_q == ref_q and got_log == ref_log
        if stats is not None:
            assert stats.reduction_steps - before[0] == ref_stats.reduction_steps
            assert stats.term_ops - before[1] == ref_stats.term_ops
        for q, g in zip(quotients or (), got_q):
            q.update(g)
        compared.append(len(ref_keys))
        return result

    monkeypatch.setattr(ReducerSet, "find_divisor", recording_find)
    monkeypatch.setattr(ReducerSet, "reduce_full", checked_reduce_full)
    for certified in (False, True):
        for variant in VARIANTS:
            run_variant(F, VariantConfig(variant, certified=certified))
    assert len(compared) > 100 and sum(compared) > 1000


def test_reducing_again_reads_only_the_divisor_cache():
    # the S-polynomials of cyclic-4's reduced basis, reduced twice on one
    # set: the first pass looks up each new key once, and the second finds
    # every key in the divisor cache, so it passes none to find_divisor
    G = buchberger_reduced(cyclic(4))
    rs = _RecordingReducerSet(G[0].ring, G)
    S = [spoly(f, g) for f, g in itertools.combinations(G, 2)]
    first = [rs.reduce_full(s) for s in S]
    assert rs.keys
    _assert_each_key_looked_up_once(rs.keys)
    rs.keys.clear()
    assert [rs.reduce_full(s) for s in S] == first
    assert rs.keys == []


def _fold_and_reference(ring, G, f, folds, prefer=1):
    """Fold each (u, c, r) of folds into the normal form of f, once with
    fold_normal_form and once as h + eager_reduce_full(c*u*r) on a reducer
    set of its own; assert that both give the same terms, steps, term ops,
    quotient maps and elimination order after every fold, that no fold
    passes a key to find_divisor twice, and return the folded payload's
    terms."""
    rs = _RecordingReducerSet(ring, G, prefer=prefer)
    ref = ReducerSet(ring, G, prefer=prefer)
    h = eager_reduce_full(ref, f)
    payload = WorkingPayload(h)
    got_stats, want_stats = _Steps(), _Steps()
    got_q, got_log = _logged_quotients(len(rs.polys))
    want_q, want_log = _logged_quotients(len(rs.polys))
    for u, c, r in folds:
        u_key = ring.key(u)
        rs.keys.clear()
        rs.fold_normal_form(payload, u_key - ring.unit_key, c, r.terms, got_stats, got_q)
        _assert_each_key_looked_up_once(rs.keys)
        h = h + eager_reduce_full(ref, r.term_mul_key(u_key, c), stats=want_stats, quotients=want_q)
        got = payload.poly()
        assert got.terms == h.terms
        assert payload.head() == (h.terms[0] if h else None)
        assert got_stats.reduction_steps == want_stats.reduction_steps
        assert got_stats.term_ops == want_stats.term_ops
        assert got_q == want_q and got_log == want_log
    return payload.poly()


@st.composite
def fold_cases(draw):
    """(ring, G, f, folds): reduction_cases' rings and reducers, and up to
    three multiples c*u*r to fold into the normal form of f."""
    ring, G, f, prefer = draw(reduction_cases())
    p, n = ring.p, ring.n
    exps = st.tuples(*[st.integers(0, 3)] * n)
    coeff = st.one_of(st.just(p - 1), st.integers(1, p - 1), st.just(1))
    poly = st.lists(st.tuples(exps, coeff), max_size=8).map(ring.from_terms)
    folds = draw(st.lists(st.tuples(st.tuples(*[st.integers(0, 2)] * n), coeff, poly), min_size=1, max_size=3))
    return ring, G, f, folds, prefer


@given(fold_cases())
@settings(max_examples=200)
def test_fold_normal_form_matches_reduce_full(case):
    _fold_and_reference(*case)


def test_fold_normal_form_fixed_cases():
    small = PolynomialRing(7, ("x", "y", "z", "w"))
    G = [P(small, (1, (2, 0, 0, 0)), (6, (0, 0, 0, 2)))]  # x^2 - w^2
    one = (0, 0, 0, 0)
    y2, z2, w2 = (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)
    # z^2 cancels to 0 below the head and comes back; then the head y^2
    # cancels, is dropped when read, and comes back in a later fold
    f = P(small, (1, y2), (1, z2), (1, w2))
    folds = [
        (one, 6, P(small, (1, z2))),
        (one, 2, P(small, (1, z2))),
        (one, 6, P(small, (1, y2))),
        (one, 3, P(small, (1, y2))),
    ]
    assert _fold_and_reference(small, G, f, folds) == P(small, (3, y2), (2, z2), (1, w2))
    # x^2 - x*y, a reducer itself: eliminating x^2 adds 6 * 6 = 1 to the
    # pending x*y, whose 6 then sums to 0 mod 7; then x^2 + y*z, reduced
    # through x*y to y^2 + y*z
    x2, xy, yz = (2, 0, 0, 0), (1, 1, 0, 0), (0, 1, 1, 0)
    G = [P(small, (1, x2), (6, xy)), P(small, (1, xy), (6, y2))]
    folds = [(one, 1, G[0]), (one, 1, P(small, (1, x2), (1, yz)))]
    assert _fold_and_reference(small, G, f, folds) == P(small, (2, y2), (1, yz), (1, z2), (1, w2))
    # a, b, c, d -> z: four eliminations add the raw product (p - 1)**2 to
    # the payload's z, about 2**64 on top of its own p - 1
    big = PolynomialRing(2**31 - 1, ("a", "b", "c", "d", "z"))
    m = 2**31 - 2  # -1
    units = [tuple(int(i == j) for j in range(5)) for i in range(4)]
    z = (0, 0, 0, 0, 1)
    linear = [P(big, (1, e), (m, z)) for e in units]
    got = _fold_and_reference(big, linear, P(big, (m, z)), [((0,) * 5, m, P(big, *((m, e) for e in units)))])
    assert got == P(big, (3, z))


def test_working_payload_reads_and_drops_its_head():
    ring = PolynomialRing(7, ("x", "y"))
    f = P(ring, (3, (2, 0)), (5, (1, 1)), (1, (0, 2)))
    payload = WorkingPayload(f)
    assert payload.head() == (f.lt_key(), 3)
    assert payload.poly(5) == f.scale(5)
    payload.coeffs[ring.key((1, 1))] += 2  # 5 + 2 = 0 mod 7, read as the head below
    payload.drop_head()
    assert payload.head() == (ring.key((0, 2)), 1)
    assert payload.poly() == P(ring, (1, (0, 2)))
    payload.drop_head()
    assert payload.head() is None and payload.poly() == ring.zero


def test_reducer_set_rejects_a_cofactor_list_of_the_wrong_length():
    ring = PolynomialRing(32003, ("x", "y"))
    x, y = P(ring, (1, (1, 0))), P(ring, (1, (0, 1)))
    unit = [[ring.one, ring.zero], [ring.zero, ring.one]]
    reducers = ReducerSet(ring, [x, y], cofactors=unit)
    f = P(ring, (1, (1, 1)), (1, (0, 2)))  # x*y + y^2: both quotients are y
    # over the system (x, y): f = y*x + y*y
    h, cofs = reduce_payload(reducers, f, [y, y], None)
    assert h.is_zero() and cofs == [ring.zero, ring.zero]
    assert reduce_payload(reducers, f, None, None) == (h, None)
    # without y's vector, the quotient against y would be dropped silently
    with pytest.raises(ValueError):
        ReducerSet(ring, [x, y], cofactors=unit[:1])
    # a zero polynomial is dropped with its vector, so the rest stay aligned
    padded = ReducerSet(ring, [x, ring.zero, y], cofactors=[unit[0], [y, x], unit[1]])
    assert padded.polys == [x, y] and padded.cofactors == unit
    assert reduce_payload(padded, f, [y, y], None) == (h, cofs)
    with pytest.raises(ValueError):
        ReducerSet(ring, [x, ring.zero, y], cofactors=unit)


def _random_poly(rnd, ring, head=None, size=4):
    """A random polynomial with small exponents; with head, monic with that
    head monomial and a tail of smaller monomials."""
    n = len(ring.names)
    terms = [(tuple(rnd.randint(0, 2) for _ in range(n)), rnd.randrange(1, ring.p))
             for _ in range(size)]
    if head is None:
        return ring.from_terms(terms)
    hk = ring.key(head)
    return ring.from_terms([(head, 1)] + [(e, c) for e, c in terms if ring.key(e) < hk])


def _next_reducer(rnd, ring, added):
    """A random monic polynomial; often its head equals an older head or
    properly divides one."""
    roll = rnd.random()
    if added and roll < 0.5:
        old = list(rnd.choice(added).lt())
        if roll < 0.3 and any(old):  # a proper divisor of the older head
            i = rnd.choice([i for i, e in enumerate(old) if e])
            old[i] -= rnd.randint(1, old[i])
        return _random_poly(rnd, ring, tuple(old))
    g = _random_poly(rnd, ring, size=rnd.randint(1, 4))
    return g.monic() if g else g


def _answers(rs, keys, F):
    """find_divisor of each key, then (terms, steps, term ops) of each
    reduce_full, on rs."""
    out = [rs.find_divisor(k) for k in keys]
    for f in F:
        stats = _Steps()
        out.append((rs.reduce_full(f, stats=stats).terms, stats.reduction_steps, stats.term_ops))
    return out


@pytest.mark.parametrize("kind", ORDER_KINDS)
@pytest.mark.parametrize("prefer", [1, -1])
def test_reducer_set_grown_by_add_answers_as_a_fresh_set(kind, prefer):
    # lookups before and between the adds leave keys cached as irreducible
    # and keys cached with a divisor, which each add must carry or rewrite;
    # add returns the keys it made reducible, and the tail swaps between
    # the adds must reach every cached answer that holds the element
    rnd = random.Random(f"{kind} {prefer}")
    ring = PolynomialRing(101, ("x", "y", "z"), kind)
    for _ in range(25):
        grown, added, current = ReducerSet(ring, [], prefer=prefer), [], []
        for f in [_random_poly(rnd, ring) for _ in range(rnd.randint(0, 3))]:
            grown.reduce_full(f)
        for _ in range(6):
            g = _next_reducer(rnd, ring, added)
            irreducible = [k for k, cand in grown._cache.items() if cand is None]
            made = grown.add(g)
            assert made == sorted(k for k in irreducible if grown._cache[k] is not None)
            added.append(g)
            if g:
                current.append(g)
            if current and rnd.random() < 0.6:
                pos = rnd.randrange(len(current))
                old = current[pos]
                new = _random_poly(rnd, ring, old.lt(), size=rnd.randint(0, 5)).scale(old.lc())
                grown.replace_tail(pos, new)
                current[pos] = new
            assert grown.polys == current
            fresh = ReducerSet(ring, current, prefer=prefer)
            keys = list(grown._cache)
            F = [_random_poly(rnd, ring, size=6) for _ in range(3)]
            assert _answers(grown, keys, F) == _answers(fresh, keys, F)


def test_reducer_set_add_edge_cases():
    ring = PolynomialRing(32003, ("x", "y"))
    x, y = P(ring, (1, (1, 0))), P(ring, (1, (0, 1)))
    grown = ReducerSet(ring, [x])
    grown.add(ring.zero)  # a zero polynomial is dropped, as by the constructor
    assert grown.polys == [x]
    other = PolynomialRing(32003, ("a", "b"))
    with pytest.raises(ValueError):
        grown.add(P(other, (1, (0, 1))))
    with_vectors = ReducerSet(ring, [x], cofactors=[[ring.one]])
    with pytest.raises(ValueError):  # y would have no cofactor vector
        with_vectors.add(y)
    assert with_vectors.polys == [x]
    # a tail swap keeps the leading term: a new head, a new leading
    # coefficient, zero or another ring raises and leaves the set as it was
    swapped = ReducerSet(ring, [x + y, y])
    swapped.replace_tail(0, x)
    assert swapped.polys == [x, y] and swapped.find_divisor(x.lt_key())[4] == ()
    for bad in (y, x.scale(2) + y, ring.zero, P(other, (1, (1, 0)))):
        with pytest.raises(ValueError):
            swapped.replace_tail(0, bad)
    assert swapped.polys == [x, y]


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
    shuffler = random.Random(38)  # its own stream: the draws stay those of seed 37
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
        shuffled = list(G)
        shuffler.shuffle(shuffled)
        assert interreduce(shuffled) == out


def _order_cases():
    """Name -> (inputs, their interreduced basis), on input that is not a
    Groebner basis and whose result could depend on the input order."""
    dl, gr = PolynomialRing(101, ("x", "y"), "deglex"), PolynomialRing(7, ("x", "y"))
    return {
        # head minimization drops both x^2*y^2 elements, whose normal forms
        # -12*x^2 and 34*y^2 against x*y join the basis; fixpoint
        # interreduction in input order gives [x*y, x^2 + 26*y^2,
        # y^4 + 14*y^2] here, and y^4 - 2*y^3 + 14*y^2 with the last two
        # swapped
        "dropped_normal_forms_join": (
            [
                P(dl, (-9, (1, 1))),
                P(dl, (28, (2, 2)), (45, (2, 1)), (-12, (2, 0))),
                P(dl, (16, (2, 2)), (34, (0, 2))),
            ],
            [P(dl, (1, (0, 2))), P(dl, (1, (1, 1))), P(dl, (1, (2, 0)))],
        ),
        # two heads x^2*y: whichever head minimization keeps decides the
        # result ([y, x^2] where 3*x^2*y precedes x^2*y - 3*x^2), unless
        # the input is put in one order first
        "equal_heads": (
            [
                P(gr, (3, (2, 1))),
                P(gr, (-3, (2, 2)), (2, (1, 1)), (-3, (0, 1))),
                P(gr, (1, (2, 1)), (-3, (2, 0))),
            ],
            [P(gr, (1, (1, 1)), (2, (0, 1))), P(gr, (1, (2, 0)))],
        ),
    }


@pytest.mark.parametrize("name", sorted(_order_cases()))
def test_interreduce_result_does_not_depend_on_input_order(name):
    G, expected = _order_cases()[name]
    for perm in itertools.permutations(G):
        assert interreduce(list(perm)) == expected


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

    # f5's basis elements are monic; distinct leading coefficients make the
    # output vectors depend on the 1/lc scaling of the kept elements
    G = [g.scale(c) for c, g in enumerate(f5(katsura(3, 101)).basis, start=2)]
    ring = G[0].ring
    units = [[ring.one if j == i else ring.zero for j in range(len(G))] for i in range(len(G))]
    outputs, cofs = interreduce_with_cofactors(G, units)
    assert outputs == interreduce(G)
    assert len(cofs) == len(outputs)
    for out, cof in zip(outputs, cofs):
        total = ring.zero
        for q, g in zip(cof, G):
            total = total + q * g
        assert total == out
    # plain runs carry None vectors, which pass straight through
    assert interreduce_with_cofactors(G, [None] * len(G)) == (outputs, [None] * len(outputs))
    with pytest.raises(ValueError):
        interreduce_with_cofactors(G, units[:-1])


def test_interreduce_with_cofactors_rejects_non_groebner_input():
    ring = PolynomialRing(32003, ("x", "y"))
    # head minimization drops x^2*y^2, which reduces to y, not 0
    G = [
        P(ring, (1, (2, 1)), (-1, (0, 0))),
        P(ring, (1, (1, 2)), (-1, (0, 0))),
        P(ring, (1, (2, 2))),
    ]
    with pytest.raises(ValueError):
        interreduce_with_cofactors(G, [None] * len(G))


def _autoreduce(G):
    """Fixpoint interreduction, the reference for interreduce on Groebner bases:
    each element in turn is replaced by its normal form against the others
    until no element changes."""
    live = [g.monic() for g in G if g]
    changed = True
    while changed:
        changed = False
        live.sort(key=lambda g: g.lt_key())
        pos = 0
        while pos < len(live):
            g = live[pos]
            r = normal_form(g, live[:pos] + live[pos + 1:])
            if r == g:
                pos += 1
                continue
            changed = True
            if r.is_zero():
                live.pop(pos)
            else:
                live[pos] = r.monic()
                pos += 1
    live.sort(key=lambda g: g.lt_key())
    return live


@pytest.mark.parametrize("p", [32003, 101])
@pytest.mark.parametrize(
    "family, n", [(katsura, 4), (katsura, 5), (cyclic, 4), (cyclic, 5)],
    ids=["katsura-4", "katsura-5", "cyclic-4", "cyclic-5"],
)
def test_reduced_basis_fixed_cases(family, n, p, monkeypatch):
    # the rebuilds' builder on the raw f5 and f5r bases, with the certified
    # store's vectors: the same reduced basis as interreduce and the fixpoint
    # interreduction, vectors that compose it over the inputs, and no
    # ReducerSet but the shared one it returns (no check of the dropped
    # elements)
    from f5gb import algebra, drivers

    engines = []

    class RecordingEngine(drivers.F5Engine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    built = []

    class CountingReducerSet(ReducerSet):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(drivers, "F5Engine", RecordingEngine)
    for variant in ("f5", "f5r"):
        engines.clear()
        G = run_variant(family(n, p), VariantConfig(variant, certified=True)).basis
        store = engines[0].store
        vectors = {id(e.poly): e.cofactors for e in store.entries[1:]}
        cofs = [vectors[id(g)] for g in G]
        built.clear()
        with monkeypatch.context() as m:
            m.setattr(algebra, "ReducerSet", CountingReducerSet)
            reducers, dropped = reduced_basis(G, cofs)
        assert built == [reducers]
        result, result_cofs = reducers.polys, reducers.cofactors
        assert result == interreduce(G) == _autoreduce(G)
        assert len(result) + len(dropped) == len(G)
        assert all(not normal_form(d, result) for d in dropped)
        ring = G[0].ring
        for g, vec in zip(result, result_cofs, strict=True):
            assert sum_products(ring, zip(vec, store.reference_system)) == g


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
