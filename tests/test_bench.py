"""Benchmark generator and comparison-harness tests."""

import pytest

from f5gb.bench import compare_variants, cyclic, katsura


def render_all(F):
    return [F[0].ring.render(f) for f in F]


def test_katsura_1():
    F = katsura(1)
    assert render_all(F) == ["x0 + 2*x1 - h", "x0^2 + 2*x1^2 - x0*h"]


def test_katsura_2_degree_profile():
    F = katsura(2)
    assert len(F) == 3
    assert [f.degree() for f in F] == [1, 2, 2]
    assert render_all(F)[2] == "2*x0*x1 + 2*x1*x2 - x1*h"


def test_katsura_9_has_ten_generators():
    F = katsura(9)
    assert len(F) == 10
    assert F[0].ring.n == 11  # x0..x9 plus the homogenizer


def test_katsura_rejects_zero():
    with pytest.raises(ValueError):
        katsura(0)


def test_cyclic_2_and_3():
    F2 = cyclic(2)
    assert render_all(F2) == ["x1 + x2", "x1*x2 - h^2"]
    F3 = cyclic(3)
    assert render_all(F3) == [
        "x1 + x2 + x3",
        "x1*x2 + x1*x3 + x2*x3",
        "x1*x2*x3 - h^3",
    ]


def test_cyclic_count_and_validation():
    for n in range(2, 7):
        assert len(cyclic(n)) == n
    with pytest.raises(ValueError):
        cyclic(1)


@pytest.mark.parametrize("gen,n", [(katsura, 1), (katsura, 3), (cyclic, 3), (cyclic, 5)])
def test_generated_systems_are_homogeneous(gen, n):
    for f in gen(n):
        assert f.is_homogeneous()


def test_compare_variants_agreement_and_conservation():
    F = katsura(3)
    records = compare_variants(F)
    assert [s.algorithm for s in records] == ["f5", "f5r", "f5c"]
    for stats in records:
        assert stats.reduced_basis_agrees_with_oracle is True
        assert stats.reduction_steps >= 0
        totals = stats.totals()
        assert totals["spolys"] == sum(it.spolys for it in stats.iterations)
        assert totals["zero_reductions"] == stats.zero_reductions
        assert stats.basis_size_final > 0


def test_compare_variants_reduction_ordering_small():
    records = compare_variants(katsura(4), check_oracle=False)
    by_name = {s.algorithm: s.reduction_steps for s in records}
    assert by_name["f5c"] <= by_name["f5r"] <= by_name["f5"]
    assert by_name["f5c"] < by_name["f5"]


def test_compare_variants_cyclic5_ordering():
    records = compare_variants(cyclic(5), check_oracle=False)
    by_name = {s.algorithm: s.reduction_steps for s in records}
    assert by_name["f5c"] <= by_name["f5r"] <= by_name["f5"]


def test_f5c_per_iteration_sizes_dominated_on_katsura7():
    from f5gb.drivers import f5, f5c

    F = katsura(7)
    plain = f5(F).stats
    reduced = f5c(F).stats
    sizes_f5 = [it.basis_size for it in plain.iterations]
    sizes_f5c = [it.basis_size for it in reduced.iterations]
    assert len(sizes_f5) == len(sizes_f5c) == 7
    assert all(c <= f for c, f in zip(sizes_f5c, sizes_f5))
    assert sizes_f5c[-1] < sizes_f5[-1]


def test_compare_variants_deterministic():
    a = compare_variants(cyclic(4), check_oracle=False)
    b = compare_variants(cyclic(4), check_oracle=False)
    assert [s.to_dict() for s in a] == [s.to_dict() for s in b]


def test_stats_serialization_schema():
    (stats,) = compare_variants(katsura(2), variants=("f5",))
    payload = stats.to_dict()
    assert set(payload) == {
        "algorithm",
        "char",
        "order",
        "iterations",
        "totals",
        "basis_size_final",
        "reduced_basis_agrees_with_oracle",
    }
    for it in payload["iterations"]:
        assert set(it) == {
            "i",
            "basis_size",
            "pairs_by_degree",
            "spolys",
            "reduction_steps",
            "zero_reductions",
            "safe_steps",
            "unsafe_splits",
            "chains",
            "interreduction_steps",
            "dropped",
        }
        assert all(isinstance(k, str) for k in it["pairs_by_degree"])
