"""Benchmark system generators and the variant comparison harness."""

from __future__ import annotations

from .algebra import PolynomialRing, interreduce
from .drivers import VariantConfig, buchberger_reduced, run_variant

__all__ = [
    "katsura",
    "cyclic",
    "compare_variants",
]


def katsura(n: int, p: int = 32003):
    """The homogenized Katsura-n system: n+1 generators in n+2 variables.

    Variables are x0..xn plus the homogenizer h (lowest precedence).  One
    linear form x0 + 2*sum(x_i) - h, and for m = 0..n-1 the quadric
    sum_{l=-n..n} x_|l| * x_|m-l| - x_m * h, reading x_j = 0 for |j| > n.
    """
    if n < 1:
        raise ValueError("katsura needs n >= 1")
    names = tuple(f"x{i}" for i in range(n + 1)) + ("h",)
    ring = PolynomialRing(p, names)
    nv = n + 2
    h_pos = n + 1

    def var_exp(i, j=None):
        e = [0] * nv
        e[i] += 1
        if j is not None:
            e[j] += 1
        return tuple(e)

    polys = []
    linear = [(var_exp(0), 1), (var_exp(h_pos), -1)]
    linear += [(var_exp(i), 2) for i in range(1, n + 1)]
    polys.append(ring.from_terms(linear))
    for m in range(n):
        terms = []
        for l in range(-n, n + 1):
            if abs(m - l) > n:
                continue
            terms.append((var_exp(abs(l), abs(m - l)), 1))
        terms.append((var_exp(m, h_pos), -1))
        polys.append(ring.from_terms(terms))
    return polys


def cyclic(n: int, p: int = 32003):
    """The homogenized cyclic-n system: n generators in n+1 variables.

    For k = 1..n-1 the sum of products of k cyclically consecutive
    variables, plus x1*...*xn - h^n.
    """
    if n < 2:
        raise ValueError("cyclic needs n >= 2")
    names = tuple(f"x{i}" for i in range(1, n + 1)) + ("h",)
    ring = PolynomialRing(p, names)
    nv = n + 1
    polys = []
    for k in range(1, n):
        terms = []
        for i in range(1, n + 1):
            e = [0] * nv
            for j in range(k):
                e[(i + j - 1) % n] += 1
            terms.append((tuple(e), 1))
        polys.append(ring.from_terms(terms))
    product = [1] * n + [0]
    hn = [0] * n + [n]
    polys.append(ring.from_terms([(tuple(product), 1), (tuple(hn), -1)]))
    return polys


def compare_variants(
    F,
    variants=("f5", "f5r", "f5c"),
    certified: bool = False,
    store_cap: int = 1_000_000,
    check_oracle: bool = True,
):
    """Run each variant on identical input and collect RunStats records.

    Returns a list of RunStats in variant order.  When check_oracle is set,
    each record's reduced_basis_agrees_with_oracle flag compares the
    variant's reduced output against buchberger_reduced.
    """
    oracle = buchberger_reduced(F) if check_oracle else None
    out = []
    for name in variants:
        cfg = VariantConfig(variant=name, certified=certified, store_cap=store_cap)
        result = run_variant(F, cfg)
        basis = result.basis if result.reduced else interreduce(result.basis)
        if oracle is not None:
            result.stats.reduced_basis_agrees_with_oracle = basis == oracle
        out.append(result.stats)
    return out
