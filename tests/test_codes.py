"""Semisimple code objects, canonical generators and the ideal census."""

import pytest

from chaincodes import (
    Ambient,
    DomainError,
    Poly,
    code_from_exponents,
    code_from_generators,
    decompose,
    enumerate_codes,
)
from chaincodes.oracle import (
    annihilator_bruteforce,
    ideal_census,
    ideal_span,
    module_span,
    span_of_code,
)


def test_code_from_exponents(amb_x7):
    full = code_from_exponents(amb_x7, [0, 0, 0])
    assert full.cardinality() == 4**7
    zero = code_from_exponents(amb_x7, [2, 2, 2])
    assert zero.is_zero() and zero.cardinality() == 1
    K = code_from_exponents(amb_x7, {(0,): 1, (1,): 0, (3,): 2})
    assert K.cardinality() == 128


def test_exponent_validation(amb_x7):
    with pytest.raises(DomainError):
        code_from_exponents(amb_x7, [0, 0])
    with pytest.raises(DomainError):
        code_from_exponents(amb_x7, [0, 0, 3])
    with pytest.raises(DomainError):
        code_from_exponents(amb_x7, {(0,): 0, (1,): 0})
    # 0 and (0,) name the same class; neither entry silently wins
    with pytest.raises(DomainError, match="twice"):
        code_from_exponents(amb_x7, {(0,): 1, 0: 2, (1,): 0, (3,): 2})


@pytest.mark.parametrize(
    "exps",
    [
        [1.7, 0, 2],
        ["1", 0, 2],
        [True, False, True],
        "102",
        {(0,): 1, (1,): 0, (3,): 2.0},
        {(0,): 1, (True,): 0, (3,): 2},
        {((0,),): 1, (1,): 0, (3,): 2},
    ],
    ids=["float", "str", "bool", "text", "dict-float", "bool-label", "nested-label"],
)
def test_exponent_maps_take_plain_ints_only(amb_x7, exps):
    """Anything that only converts to an int, or compares equal to one, is refused."""
    with pytest.raises(DomainError):
        code_from_exponents(amb_x7, exps)


def test_code_from_generators(amb_x7):
    dec = decompose(amb_x7)
    K = code_from_generators(amb_x7, [dec.data[0].h])
    assert K.exps == (0, 2, 2)
    zero = code_from_generators(amb_x7, [amb_x7.zero()])
    assert zero.is_zero()
    # a^t * anything is zero
    K2 = code_from_generators(amb_x7, [dec.data[1].h * 4])
    assert K2.is_zero()


def test_normalization_makes_one_product_per_class(z4, monkeypatch):
    """One generator on Z4 x^15-1 with exponents 0, 1 and 2: exactly one
    e_C * g per class, and no membership re-check."""
    from chaincodes.polys import MPoly

    amb = Ambient(z4, [Poly.from_ints(z4, [-1] + [0] * 14 + [1])])
    dec = decompose(amb)
    N = dec.class_count
    exps = [(0, 1, 2)[i % 3] for i in range(N)]
    G = code_from_exponents(amb, exps).generators().G
    calls = []
    real = MPoly.__mul__
    monkeypatch.setattr(MPoly, "__mul__", lambda a, b: calls.append(1) or real(a, b))
    K = code_from_generators(amb, [G])
    assert K.exps == tuple(exps)
    assert len(calls) == N


def test_generator_round_trip(amb_x7):
    for K in enumerate_codes(amb_x7):
        G = K.generators().G
        assert code_from_generators(amb_x7, [G]) == K


def test_canonical_generator_slots(amb_x7):
    dec = decompose(amb_x7)
    K = code_from_exponents(amb_x7, {(1,): 0, (0,): 1, (3,): 2})
    gens = K.generators()
    assert gens.gs[1] == dec.data[1].e  # exponent 0 classes
    assert gens.gs[2] == dec.data[0].e  # exponent 1 classes
    assert gens.gs[0] == dec.data[2].e  # exponent t classes
    full = code_from_exponents(amb_x7, [0, 0, 0])
    assert full.generators().gs[1] == amb_x7.one()
    assert all(g.is_zero() for g in full.generators().gs[2:] + full.generators().gs[:1])
    zero = code_from_exponents(amb_x7, [2, 2, 2])
    assert zero.generators().gs[0] == amb_x7.one()


def test_generators_span_the_code(amb_x7):
    """K == <G_1, a G_2, ..., a^{t-1} G_t> + I and K == <G>, by oracle spans."""
    ring = amb_x7.ring
    for K in enumerate_codes(amb_x7):
        gens = K.generators()
        rows = [gens.gs[1], gens.gs[2] * ring.a]
        family_span = ideal_span(amb_x7, rows)
        defn_span = span_of_code(K)
        g_span = ideal_span(amb_x7, [gens.G])
        assert family_span == defn_span == g_span


def test_annihilator_structure_of_generators(amb_x7):
    """The Ann<G_i> are pairwise comaximal and intersect in I."""
    ring = amb_x7.ring
    n = amb_x7.n
    total = ring.size**n
    K = code_from_exponents(amb_x7, {(1,): 0, (0,): 1, (3,): 2})
    gens = K.generators()
    anns = [annihilator_bruteforce(amb_x7, g, naive=False) for g in gens.gs]
    # pairwise comaximal
    for i in range(len(anns)):
        for j in range(i + 1, len(anns)):
            rows = [row for _, _, row in anns[i].pivots] + [
                row for _, _, row in anns[j].pivots
            ]
            assert module_span(ring, n, rows).cardinality == total
    # intersection is I (the zero module of the quotient)
    inter = anns[0].explicit_set()
    for sp in anns[1:]:
        inter = {v for v in inter if sp.contains(v)}
    assert inter == {(ring._zero,) * n}


def test_cardinality_vs_oracle(amb_x7, amb_z9):
    for amb in (amb_x7, amb_z9):
        for K in enumerate_codes(amb):
            assert span_of_code(K).cardinality == K.cardinality()


def test_contains(amb_x7):
    dec = decompose(amb_x7)
    K = code_from_exponents(amb_x7, {(0,): 1, (1,): 2, (3,): 2})
    assert K.cardinality() == 2
    assert K.contains(amb_x7.zero())
    assert not K.contains(dec.data[0].h)
    assert K.contains(dec.data[0].h * 2)
    G = K.generators().G
    assert K.contains(G)


def test_contains_vs_oracle(amb_x7):
    import random

    rng = random.Random(3)
    ring = amb_x7.ring
    for K in list(enumerate_codes(amb_x7))[::5]:
        span = span_of_code(K)
        for _ in range(20):
            vec = tuple(ring._from_rank(rng.randrange(ring.size)) for _ in range(amb_x7.n))
            f = amb_x7.from_vector([ring.elem(d) for d in vec])
            assert K.contains(f) == span.contains(vec)


def test_enumerate_counts(amb_x7, amb_x3y3, amb_z9):
    assert len(list(enumerate_codes(amb_x7))) == 27
    assert len(list(enumerate_codes(amb_x3y3))) == 243
    assert len(list(enumerate_codes(amb_z9))) == 81


def test_census_matches_enumeration(amb_x3, amb_z9):
    for amb in (amb_x3, amb_z9):
        census = ideal_census(amb)
        spans = [span_of_code(K) for K in enumerate_codes(amb)]
        assert len(census) == len(spans)
        for sp in spans:
            assert any(c == sp for c in census)
        for c in census:
            assert any(c == sp for sp in spans)


def test_is_hensel_lift(amb_x7):
    dec = decompose(amb_x7)
    K = code_from_generators(amb_x7, [dec.data[1].h])
    assert K.exps == (2, 0, 2)
    assert K.is_hensel_lift()
    assert not code_from_exponents(amb_x7, {(0,): 1, (1,): 2, (3,): 2}).is_hensel_lift()
    assert code_from_exponents(amb_x7, [0, 0, 0]).is_hensel_lift()
    assert not code_from_exponents(amb_x7, [2, 2, 2]).is_hensel_lift()


def test_intersect_and_add(amb_x7):
    K1 = code_from_exponents(amb_x7, [0, 1, 2])
    K2 = code_from_exponents(amb_x7, [2, 1, 0])
    assert K1.intersect(K2).exps == (2, 1, 2)
    assert K1.add(K2).exps == (0, 1, 0)


def test_code_json(amb_x7):
    K = code_from_exponents(amb_x7, {(1,): 0, (0,): 1, (3,): 2})
    rec = K.to_json()
    assert rec["cardinality"] == "128"
    assert [tuple(rep) for rep, _ in rec["exponents"]] == [(0,), (1,), (3,)]


def test_generators_skip_the_product_by_one(amb_x7, monkeypatch):
    """G = G_1 + a G_2 for t = 2 takes no MPoly product: the scaling by a
    runs on the lanes (`MPoly.times_a`)."""
    from chaincodes.polys import MPoly

    K = code_from_exponents(amb_x7, [0, 1, 2])
    A = amb_x7
    K.dec.data  # the idempotents, built before counting
    calls = []
    real = MPoly.__mul__
    monkeypatch.setattr(MPoly, "__mul__", lambda a, b: calls.append(1) or real(a, b))
    gens = K.generators()
    assert len(calls) == 0
    monkeypatch.undo()
    gs = gens.gs
    assert gens.G == A.zero() + gs[1] * A.ring.one + gs[2] * A.ring.a
    assert gens.G.to_text() == (gs[1] + 2 * gs[2]).to_text()
