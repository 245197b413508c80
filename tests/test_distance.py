"""Socle reduction, exact distances, Hensel-lift equality and the bound."""

import pytest

from chaincodes import (
    Ambient,
    BudgetExceeded,
    DomainError,
    Poly,
    code_from_exponents,
    code_from_generators,
    decompose,
    distance_bound,
    enumerate_codes,
    hensel_lift_distance_check,
    min_distance,
    ring_construct,
)
from chaincodes.oracle import distance_bruteforce, span_of_code


def hamming_lift(amb_x7):
    dec = decompose(amb_x7)
    q_ham = next(
        g
        for g in dec.lifted_factorizations[0].factors
        if [c.data for c in g.coeffs] == [3, 1, 2, 1]
    )
    return code_from_generators(amb_x7, [amb_x7.from_polynomial(q_ham)])


def test_socle_rules(amb_x7):
    full = code_from_exponents(amb_x7, [0, 0, 0])
    assert full.socle().exps == (1, 1, 1)
    zero = code_from_exponents(amb_x7, [2, 2, 2])
    assert zero.socle() == zero
    K = code_from_exponents(amb_x7, {(1,): 0, (0,): 1, (3,): 2})
    assert K.socle().exps == (1, 1, 2)


def test_socle_is_annihilator_of_radical(amb_x7):
    """K.socle() == {c in K : a c = 0} by exhaustive check."""
    ring = amb_x7.ring
    for K in list(enumerate_codes(amb_x7))[::3]:
        span = span_of_code(K)
        soc_span = span_of_code(K.socle())
        expected = {
            v
            for v in span.elements()
            if all(c == ring._zero for c in ring_times(ring, v))
        }
        got = set(soc_span.elements())
        assert got == expected


def ring_times(ring, vec):
    # a * vec, payload level
    return tuple(ring._mul(ring._a, c) for c in vec)


def test_hamming_lift_distance(amb_x7):
    K = hamming_lift(amb_x7)
    assert K.exps == (0, 2, 0)
    assert K.cardinality() == 4**4
    assert K.is_hensel_lift()
    assert min_distance(K) == 3
    check = hensel_lift_distance_check(K)
    assert check.distance == 3 and check.residue_distance == 3 and check.equal


def test_separator_code_distance(amb_x7):
    # <h_{1,2,4}> is the dim-3 component code: the simplex code of distance 4
    K = code_from_exponents(amb_x7, {(1,): 0, (0,): 2, (3,): 2})
    assert min_distance(K) == 4


def test_repetition_distance(amb_x7):
    K = code_from_exponents(amb_x7, {(0,): 1, (1,): 2, (3,): 2})
    assert min_distance(K) == 7


def test_full_ring_distance(amb_x7):
    assert min_distance(code_from_exponents(amb_x7, [0, 0, 0])) == 1


def test_zero_code_rejected(amb_x7):
    with pytest.raises(DomainError):
        min_distance(code_from_exponents(amb_x7, [2, 2, 2]))


def test_budget(amb_x7):
    K = code_from_exponents(amb_x7, [0, 0, 0])
    with pytest.raises(BudgetExceeded):
        min_distance(K, budget=2)


def test_distance_equals_socle_distance(amb_x7, amb_x3y3, amb_z9):
    for amb in (amb_x7, amb_x3y3, amb_z9):
        for K in enumerate_codes(amb):
            if K.is_zero():
                continue
            d = min_distance(K)
            assert d == min_distance(K.socle())
            # socle enumerations over R are small: oracle-check them all
            assert d == distance_bruteforce(span_of_code(K.socle()))


def test_distance_vs_full_oracle(amb_x7, amb_z9):
    for amb in (amb_x7, amb_z9):
        for K in enumerate_codes(amb):
            if K.is_zero():
                continue
            assert min_distance(K) == distance_bruteforce(span_of_code(K))


def test_residue_comparison(amb_x7):
    # K = <h_{1,2,4}, 2 h_{0}>: K-bar is the component code of {1,2,4}
    K = code_from_exponents(amb_x7, {(1,): 0, (0,): 1, (3,): 2})
    check = hensel_lift_distance_check(K)
    assert check.distance <= check.residue_distance
    # K = <2>: residue image is zero, comparison skipped
    mid = code_from_exponents(amb_x7, [1, 1, 1])
    check = hensel_lift_distance_check(mid)
    assert check.residue_distance is None and check.equal is None


def test_hensel_lift_equality_everywhere(amb_x7, amb_x3y3):
    for amb in (amb_x7, amb_x3y3):
        for K in enumerate_codes(amb):
            if K.is_zero():
                continue
            check = hensel_lift_distance_check(K)
            if K.is_hensel_lift():
                assert check.equal
            if check.residue_distance is not None:
                assert check.distance <= check.residue_distance


def test_bound_univariate_equals_exact(amb_x7):
    for K in enumerate_codes(amb_x7):
        if K.is_zero():
            continue
        assert distance_bound(K) == min_distance(K)


def test_bound_below_exact_bivariate(amb_x3y3, amb_z9):
    for amb in (amb_x3y3, amb_z9):
        for K in enumerate_codes(amb):
            if K.is_zero():
                continue
            assert distance_bound(K) <= min_distance(K)


def test_bound_full_ring(amb_x3y3):
    assert distance_bound(code_from_exponents(amb_x3y3, [0] * 5)) == 1


def test_bound_product_parity_example():
    """F_2 ambient <X^3-1, Y^3-1>, defining set = everything but {(0,0)}."""
    f2 = ring_construct({"kind": "galois", "p": 2, "t": 1, "l": 1})
    amb = Ambient(
        f2,
        [Poly.from_ints(f2, [1, 0, 0, 1], var=0), Poly.from_ints(f2, [1, 0, 0, 1], var=1)],
    )
    dec = decompose(amb)
    exps = [1 if cd.cls.rep == (0, 0) else 0 for cd in dec.data]
    K = code_from_exponents(amb, exps)
    b = distance_bound(K)
    d = min_distance(K)
    assert b <= d


def test_bound_requires_abelian(z4):
    amb = Ambient(z4, [Poly.from_ints(z4, [3, 1, 2, 1])])
    K = code_from_exponents(amb, [0])
    with pytest.raises(DomainError):
        distance_bound(K)
