"""Differential tests against sympy's Groebner bases.

The oracle, groebner_check and the F5 variants share f5gb's packed-key
arithmetic, ReducerSet and interreduce, so a fault there could cancel out
between them.  sympy shares none of that code: these tests compare every
basis with the monic reduced basis of sympy.groebner(..., modulus=p), and
re-check certified runs' cofactor vectors with sympy's arithmetic.
"""

import pytest
import sympy
from hypothesis import HealthCheck, given, settings, strategies as st

from f5gb.algebra import PolynomialRing, interreduce, monomial_divides
from f5gb.bench import cyclic, katsura
from f5gb.drivers import (
    VariantConfig,
    buchberger_reduced,
    f5,
    f5c,
    f5r,
    groebner_check,
    run_variant,
)
from f5gb.engine import F5Engine
from f5gb.sigcore import PolyStore, Signature

PRIMES = (2, 3, 101, 32003, 2**31 - 1)
SYMPY_ORDER = {"grevlex": "grevlex", "lex": "lex", "deglex": "grlex"}


def homogeneous(draw, ring, d):
    """A homogeneous polynomial of degree d in three variables, 2-4 terms."""
    exps = st.integers(0, d).flatmap(
        lambda a: st.integers(0, d - a).map(lambda b: (a, b, d - a - b))
    )
    terms = st.lists(st.tuples(exps, st.integers(1, ring.p - 1)), min_size=2, max_size=4)
    return ring.from_terms(draw(terms))


@st.composite
def systems(draw):
    """2-3 homogeneous generators of degree 2-3 over F_p in x > y > z, and
    sometimes a dependent one: a copy, a scalar or monomial multiple, or a
    sum of two generators."""
    p = draw(st.sampled_from(PRIMES))
    ring = PolynomialRing(p, ("x", "y", "z"), draw(st.sampled_from(tuple(SYMPY_ORDER))))
    F = []
    for _ in range(draw(st.integers(2, 3))):
        F.append(homogeneous(draw, ring, draw(st.integers(2, 3))))
    F = [f for f in F if f]
    how = draw(st.sampled_from(("none", "copy", "scale", "times_var", "sum")))
    if F and how == "copy":
        F.append(draw(st.sampled_from(F)))
    elif F and how == "scale":
        F.append(draw(st.sampled_from(F)).scale(draw(st.integers(1, p - 1))))
    elif F and how == "times_var":
        F.append(draw(st.sampled_from(F)) * ring.variable(draw(st.sampled_from(ring.names))))
    elif how == "sum":
        by_degree = {}
        for f in F:
            by_degree.setdefault(f.degree(), []).append(f)
        same = [fs for fs in by_degree.values() if len(fs) > 1]
        if same:
            a, b = draw(st.sampled_from(same))[:2]
            F.append(a + b)
    F = [f for f in F if f]
    return F or [ring.variable("x")]


def sympy_reduced(ring, G):
    """sympy's reduced basis of G, as monic f5gb polynomials sorted by head."""
    gens = sympy.symbols(ring.names)
    polys = [sympy.Poly.from_dict(g.dict(), *gens, modulus=ring.p) for g in G]
    basis = sympy.groebner(polys, *gens, order=SYMPY_ORDER[ring.order.kind], modulus=ring.p)
    out = [
        ring.from_terms((m, int(c)) for m, c in g.terms()).monic() for g in basis.polys
    ]
    return sorted(out, key=lambda g: g.lt_key())


@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
@given(systems())
def test_bases_and_groebner_check_agree_with_sympy(F):
    ring = F[0].ring
    S = sympy_reduced(ring, F)
    assert buchberger_reduced(F) == S
    for variant in (f5, f5r, f5c):
        assert interreduce(variant(F).basis) == S
    assert groebner_check(S)
    for drop in range(len(S) if len(S) > 1 else 0):
        H = S[:drop] + S[drop + 1:]
        # a subset of a reduced basis may itself be a basis of its ideal
        assert groebner_check(H) == (sympy_reduced(ring, H) == H)


SMALL_TABLE3 = {"katsura-4": (katsura, 4), "katsura-5": (katsura, 5), "cyclic-5": (cyclic, 5)}


@pytest.mark.parametrize("name", sorted(SMALL_TABLE3))
def test_table3_small_systems_agree_with_sympy(name):
    # the three smallest systems of the paper's Table 3, at p = 32003 under
    # grevlex
    family, n = SMALL_TABLE3[name]
    F = family(n)
    ring = F[0].ring
    S = sympy_reduced(ring, F)
    assert buchberger_reduced(F) == S
    raw = [variant(F).basis for variant in (f5, f5r, f5c)]
    for basis in raw:
        assert interreduce(basis) == S
    # each H below generates <F>, so it is a Groebner basis iff its heads
    # divide every head of sympy's basis; the inputs themselves are not one
    for H in (S, F, raw[0], raw[2]):
        expected = all(any(monomial_divides(h.lt(), s.lt()) for h in H) for s in S)
        assert groebner_check(H) == expected
    assert not groebner_check(F)


CERTIFIED_SYSTEMS = {"katsura-4": (katsura, 4), "cyclic-4": (cyclic, 4), "katsura-5": (katsura, 5)}


# katsura-5: the smallest of the katsura and cyclic systems whose certified
# f5r vectors differ between a tail pass against the reducers' reduced tails
# and one against their raw tails
@pytest.mark.parametrize("name", list(CERTIFIED_SYSTEMS))
def test_certificates_hold_in_sympy(name, monkeypatch):
    # admissible_check verifies sum_l h_l * f_l == g with f5gb's own
    # sum_products; here the final state of every certified store entry
    # (each f5c rebuild's store included) is re-checked in sympy: the sum,
    # h_l == 0 for l > nu, and lm(h_nu) equal to the signature monomial.
    # Every vector of the sets f5 and f5r carry into iteration i must have
    # one entry per input before e_i and compose its polynomial: f5r's
    # interreduced ones come from reduced_basis alone.
    family, n = CERTIFIED_SYSTEMS[name]
    F = family(n)
    ring = F[0].ring
    gens = sympy.symbols(ring.names)
    order = SYMPY_ORDER[ring.order.kind]

    def sym(g):
        return sympy.Poly.from_dict(g.dict(), *gens, modulus=ring.p)

    def composes(cofs, system, g):
        total = sympy.Poly(0, *gens, modulus=ring.p)
        for h, f in zip(cofs, system, strict=True):
            total += sym(h) * f
        return total == sym(g)

    generations = []  # (entries, reference system) lists of every store
    reset = PolyStore.reset

    def recording_reset(store):
        reset(store)
        generations.append((store.entries, store.reference_system))

    prevs = []  # (i, the set iteration i reduces against)
    incremental_basis = F5Engine.incremental_basis

    def recording_incremental_basis(engine, i, prev, prev_indices):
        prevs.append((i, prev))
        return incremental_basis(engine, i, prev, prev_indices)

    monkeypatch.setattr(PolyStore, "reset", recording_reset)
    monkeypatch.setattr(F5Engine, "incremental_basis", recording_incremental_basis)
    checked = 0
    for variant in ("f5", "f5r", "f5c"):
        generations.clear()
        prevs.clear()
        run_variant(F, VariantConfig(variant, certified=True))
        for entries, system in generations:
            system = [sym(f) for f in system]
            for e in entries[1:]:
                sig = Signature.unpack(ring, e.sig)
                nu = sig.index
                assert composes(e.cofactors, system, e.poly)
                assert all(h.is_zero() for h in e.cofactors[nu:])
                h_nu = sym(e.cofactors[nu - 1])
                assert not h_nu.is_zero and h_nu.monoms(order=order)[0] == sig.monomial
                checked += 1
        if variant != "f5c":
            assert len(prevs) == len(F) - 1
            # one store: its reference system is the inputs in run order
            system = [sym(f) for f in generations[0][1]]
            for i, prev in prevs:
                assert len(prev.cofactors) == len(prev.polys)
                for g, cofs in zip(prev.polys, prev.cofactors):
                    assert composes(cofs, system[: i - 1], g)
                    checked += 1
    assert checked > 40
