#!/usr/bin/env python3
"""Inspect signatures, rewrite rules, and certified admissibility checking.

Certified mode carries full module cofactors for every labeled polynomial
and re-verifies admissibility at every store mutation, which turns the
central invariant of the signature machinery into a runtime check.

Run: python demos/certified_signatures.py
"""

from f5gb import PolynomialRing, Signature, VariantConfig, admissible_check, f5, sig_cmp
from f5gb.cli import parse_polynomial
from f5gb.engine import F5Engine, PrevBasis, RunStats
from f5gb.sigcore import LabeledPolynomial

ring = PolynomialRing(32003, ("x", "y"), "grevlex")
f1 = parse_polynomial(ring, "x*y + x")
f2 = parse_polynomial(ring, "y^2 - 1")

# (1)e1 certifies f1 trivially; (x)e2 certifies it via f1 = y*f1 - x*f2
unit = LabeledPolynomial(Signature(ring, (0, 0), 1), f1, cofactors=[ring.one, ring.zero])
relation = LabeledPolynomial(
    Signature(ring, (1, 0), 2),
    f1,
    cofactors=[parse_polynomial(ring, "y"), parse_polynomial(ring, "-x")],
)
print("admissible via the unit representation:", admissible_check(unit, [f1, f2]))
print("admissible via the module relation:  ", admissible_check(relation, [f1, f2]))

a = Signature(ring, (0, 1), 1)  # y*e1
b = Signature(ring, (0, 0), 2)  # 1*e2
print("\nsignature order: index dominates, then the monomial order")
print(f"  {a!r} < {b!r}: {sig_cmp(a, b) < 0}")

# a certified run re-checks every store entry at every mutation point
hring = PolynomialRing(32003, ("x", "y", "z", "t"), "grevlex")
F = [
    parse_polynomial(hring, "y*z^3 - x^2*t^2"),
    parse_polynomial(hring, "x*z^2 - y^2*t"),
    parse_polynomial(hring, "x^2*y - z^2*t"),
]
result = f5(F, config=VariantConfig("f5", certified=True))
print(f"\ncertified f5 run finished with {len(result.basis)} basis elements")
print("every intermediate labeled polynomial passed its admissibility check")

# the rewrite-rule table after one iteration, seen from the engine
engine = F5Engine(hring, stats=RunStats("f5", 32003, "grevlex"))
fs = sorted(F, key=lambda f: (f.degree(), f.lt_key()))
engine.store.add_input(fs[0])
engine.begin_iteration(2)
engine.store.add_input(fs[1])
engine.incremental_basis(2, PrevBasis(hring, [fs[0]]), [1])
print("\nrewrite rules recorded for signature index 2:")
for mono, idx in engine.rules.rules_for(2):
    print(f"  ({hring.render_monomial(mono) or '1'}, store entry {idx})")
