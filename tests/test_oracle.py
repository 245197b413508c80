"""The brute-force oracle layer itself: spans, duals, annihilators, census."""

import pytest

from chaincodes import (
    Ambient,
    BudgetExceeded,
    DomainError,
    Poly,
    code_from_exponents,
    decompose,
    enumerate_codes,
    parse_univariate,
    ring_construct,
)
from chaincodes.oracle import (
    annihilator_bruteforce,
    distance_bruteforce,
    dual_bruteforce,
    ideal_census,
    ideal_span,
    module_span,
    monomial_multiples,
    span_of_code,
)


def test_span_examples(amb_x3, z4):
    sp = ideal_span(amb_x3, [(2, 2, 2)])
    assert sp.cardinality == 2
    assert sp.explicit_set() == frozenset({(0, 0, 0), (2, 2, 2)})
    full = ideal_span(amb_x3, [(1, 0, 0)])
    assert full.cardinality == 4**3
    empty = module_span(z4, 3, [])
    assert empty.cardinality == 1
    assert empty.contains((0, 0, 0)) and not empty.contains((2, 0, 0))


def test_span_membership_and_elements(amb_x7):
    K = code_from_exponents(amb_x7, {(0,): 1, (1,): 0, (3,): 2})
    span = span_of_code(K)
    elems = list(span.elements())
    assert len(elems) == len(set(elems)) == span.cardinality == K.cardinality()
    for v in elems[:50]:
        assert span.contains(v)
    assert span.explicit_set() == set(elems)


PRODUCT_AMBIENTS = [
    # (ring descriptor, moduli, unchecked)
    ({"kind": "galois", "p": 2, "t": 2, "l": 1}, ["x^15-1"], False),
    ({"kind": "galois", "p": 2, "t": 2, "l": 1}, ["x^127-1"], False),
    ({"kind": "galois", "p": 2, "t": 3, "l": 1}, ["x^3-1", "y^3-1", "z^3-1"], False),
    ({"kind": "galois", "p": 3, "t": 2, "l": 1}, ["x^4-1", "y^4-1"], False),
    ({"kind": "galois", "p": 2, "t": 2, "l": 2}, ["x^15-1"], False),
    ({"kind": "truncated", "p": 3, "t": 2, "l": 1}, ["x^13-1"], False),
    ({"kind": "truncated", "p": 2, "t": 3, "l": 2}, ["x^5+x+1"], False),
    ({"kind": "galois", "p": 2, "t": 2, "l": 1}, ["x^3+x+1", "y^2+y+1"], False),
    ({"kind": "galois", "p": 2, "t": 2, "l": 1}, ["x+3"], False),
    ({"kind": "galois", "p": 2, "t": 2, "l": 1}, ["x^2-1"], True),
]


def test_monomial_multiples_match_mpoly():
    """Monomial and dense products against the oracle's independent
    single-variable shifts: X^alpha * f and f*g = sum_alpha g_alpha X^alpha f."""
    import random

    rng = random.Random(5)
    for desc, moduli, unchecked in PRODUCT_AMBIENTS:
        ring = ring_construct(desc)
        amb = Ambient(
            ring,
            [parse_univariate(m, ring, var=i) for i, m in enumerate(moduli)],
            unchecked=unchecked,
        )
        for _ in range(3):
            f, g = (
                amb.from_vector([ring.from_rank(rng.randrange(ring.size)) for _ in range(amb.n)])
                for _ in range(2)
            )
            mults = monomial_multiples(amb, tuple(c.data for c in f.coeffs))
            expected = [ring._zero] * amb.n
            for rank, c in enumerate(g.coeffs):
                for i, m in enumerate(mults[rank]):
                    expected[i] = ring._add(expected[i], ring._mul(c.data, m))
            got = [c.data for c in (f * g).coeffs]
            assert got == expected, (ring, moduli)
            for rank in range(amb.n):
                mono = amb.monomial(amb.exps(rank))
                assert tuple(c.data for c in (mono * f).coeffs) == mults[rank]


def test_dual_bruteforce_extremes(amb_x3):
    ring = amb_x3.ring
    full = ideal_span(amb_x3, [(1, 0, 0)])
    d = dual_bruteforce(amb_x3, full)
    assert d.cardinality == 1
    zero = module_span(ring, 3, [])
    d2 = dual_bruteforce(amb_x3, zero)
    assert d2.cardinality == 4**3


def test_dual_bruteforce_involution(amb_x3):
    for K in enumerate_codes(amb_x3):
        span = span_of_code(K)
        dd = dual_bruteforce(amb_x3, dual_bruteforce(amb_x3, span))
        assert dd == span
        assert span.cardinality * dual_bruteforce(amb_x3, span).cardinality == 4**3


def test_annihilator_examples(amb_x3):
    ring = amb_x3.ring
    one = tuple(c.data for c in amb_x3.one().coeffs)
    ann = annihilator_bruteforce(amb_x3, amb_x3.one())
    assert ann.cardinality == 1
    two = amb_x3.one() * 2  # a^{t-1}
    ann2 = annihilator_bruteforce(amb_x3, two)
    assert ann2.cardinality == ring.size**3 // ring.q**3
    assert not ann2.contains(one)


def test_annihilator_matches_component_ideals(amb_x7):
    dec = decompose(amb_x7)
    for cd in dec.data:
        ann = annihilator_bruteforce(amb_x7, cd.h, naive=False)
        ic = ideal_span(amb_x7, cd.ideal_generators(amb_x7))
        assert ann == ic


def test_naive_tiers_agree(amb_x3):
    span = span_of_code(code_from_exponents(amb_x3, [0, 1]))
    # naive=True internally cross-checks the scan against the kernel
    d1 = dual_bruteforce(amb_x3, span, naive=True)
    d2 = dual_bruteforce(amb_x3, span, naive=False)
    assert d1 == d2
    dec = decompose(amb_x3)
    a1 = annihilator_bruteforce(amb_x3, dec.data[0].h, naive=True)
    a2 = annihilator_bruteforce(amb_x3, dec.data[0].h, naive=False)
    assert a1 == a2


def test_distance_bruteforce(amb_x7, amb_x3):
    rep = code_from_exponents(amb_x7, {(0,): 1, (1,): 2, (3,): 2})
    assert distance_bruteforce(span_of_code(rep)) == 7
    full1 = ideal_span(Ambient(amb_x3.ring, [Poly.from_ints(amb_x3.ring, [-1, 1])]), [(1,)])
    assert distance_bruteforce(full1) == 1
    with pytest.raises(DomainError):
        distance_bruteforce(module_span(amb_x3.ring, 3, []))
    with pytest.raises(BudgetExceeded):
        distance_bruteforce(span_of_code(code_from_exponents(amb_x3, [0, 0])), budget=4)


def test_census_sizes(amb_x3, amb_z9):
    assert len(ideal_census(amb_x3)) == 9
    assert len(ideal_census(amb_z9)) == 81


def test_census_budget(amb_x3y3):
    with pytest.raises(BudgetExceeded):
        ideal_census(amb_x3y3)  # 4^9 > 2^16


def test_smith_kernel_random_matrices(z4, z9, f3u2):
    """Kernel generators annihilate the rows and the kernel size matches a
    brute-force count."""
    import itertools
    import random

    from chaincodes.oracle import _dot, _smith_kernel

    rng = random.Random(11)
    for ring in (z4, z9, f3u2):
        for _ in range(8):
            k, n = rng.randint(1, 3), rng.randint(1, 4)
            rows = [
                tuple(ring._from_rank(rng.randrange(ring.size)) for _ in range(n))
                for _ in range(k)
            ]
            gens = _smith_kernel(ring, rows, n)
            z = ring._zero
            for g in gens:
                assert all(_dot(ring, row, g) == z for row in rows)
            kernel = module_span(ring, n, gens)
            payloads = [ring._from_rank(r) for r in range(ring.size)]
            brute = [
                vec
                for vec in itertools.product(payloads, repeat=n)
                if all(_dot(ring, row, vec) == z for row in rows)
            ]
            assert len(brute) == kernel.cardinality
            assert all(kernel.contains(v) for v in brute)


def test_truncated_ring_spans(f3u2):
    amb = Ambient(f3u2, [Poly.from_ints(f3u2, [-1, 0, 0, 0, 1])])  # x^4 - 1
    u = f3u2.a.data
    sp = ideal_span(amb, [(u, u, u, u)])
    assert sp.cardinality == 3
    census = ideal_census(amb)
    spans = [span_of_code(K) for K in enumerate_codes(amb)]
    # classes mod 4 under multiplication by q = 3: {0}, {1,3}, {2}
    assert len(census) == len(spans) == 3**3
    for sp in spans:
        assert any(c == sp for c in census)
