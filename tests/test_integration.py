"""End-to-end batteries on rings beyond the headline trio: nilpotency
index 3, the truncated family, and a non-prime residue field."""

import os
import subprocess
import sys

import pytest

import chaincodes
from chaincodes import (
    Ambient,
    CanonicalGenerators,
    CyclotomicClass,
    Poly,
    decompose,
    dual,
    enumerate_codes,
    min_distance,
    ring_construct,
)
from chaincodes.oracle import (
    distance_bruteforce,
    dual_bruteforce,
    ideal_census,
    span_of_code,
)


@pytest.fixture(scope="module")
def amb_z8():
    z8 = ring_construct({"kind": "galois", "p": 2, "t": 3, "l": 1})
    return Ambient(z8, [Poly.from_ints(z8, [-1, 0, 0, 1])])


@pytest.fixture(scope="module")
def amb_f3u():
    f3u = ring_construct({"kind": "truncated", "p": 3, "t": 2, "l": 1})
    return Ambient(f3u, [Poly.from_ints(f3u, [-1, 0, 0, 0, 1])])


@pytest.fixture(scope="module")
def amb_gr42():
    gr42 = ring_construct({"kind": "galois", "p": 2, "t": 2, "l": 2})
    return Ambient(gr42, [Poly.from_ints(gr42, [-1, 0, 0, 1])])


def _full_battery(amb, expected_codes):
    ring = amb.ring
    total = ring.size**amb.n
    dec = decompose(amb)

    # CRT structure
    ssum = amb.zero()
    prod = 1
    for i, cd in enumerate(dec.data):
        assert cd.e * cd.e == cd.e
        assert cd.g * cd.h == cd.e
        ssum = ssum + cd.e
        prod *= cd.component_size
        for cj in dec.data[i + 1 :]:
            assert (cd.e * cj.e).is_zero()
    assert ssum == amb.one()
    assert prod == total

    codes = list(enumerate_codes(amb))
    assert len(codes) == expected_codes

    census = ideal_census(amb)
    spans = [span_of_code(K) for K in codes]
    assert len(census) == len(spans)
    for sp in spans:
        assert any(c == sp for c in census)

    for K, span in zip(codes, spans):
        assert span.cardinality == K.cardinality()
        Kd = dual(K)
        assert span_of_code(Kd) == dual_bruteforce(amb, span, naive=False)
        assert dual(Kd) == K
        assert K.cardinality() * Kd.cardinality() == total
        if not K.is_zero():
            d = min_distance(K)
            assert d == min_distance(K.socle())
            assert d == distance_bruteforce(span)


def test_z8_cubic_battery(amb_z8):
    # t = 3: four exponent values per class, 4^2 = 16 codes
    _full_battery(amb_z8, 16)


def test_truncated_battery(amb_f3u):
    # F_3[u]/u^2, x^4 - 1: classes {0}, {1,3}, {2}; 3^3 = 27 codes
    _full_battery(amb_f3u, 27)


def test_gr42_battery(amb_gr42):
    # residue field F_4 splits x^3 - 1 into linear factors: 3 classes
    _full_battery(amb_gr42, 27)


def test_z8_no_selfdual(amb_z8):
    from chaincodes import is_selfdual

    assert not any(is_selfdual(K) for K in enumerate_codes(amb_z8))


def test_degree_one_modulus_battery():
    """A degree-1 modulus gives a trivial variable; everything still works."""
    z4 = ring_construct({"kind": "galois", "p": 2, "t": 2, "l": 1})
    amb = Ambient(
        z4,
        [Poly.from_ints(z4, [-1, 1], var=0), Poly.from_ints(z4, [-1, 0, 0, 1], var=1)],
    )
    dec = decompose(amb)
    assert [(cd.cls.rep, cd.cls.size) for cd in dec.data] == [((0, 0), 1), ((0, 1), 2)]
    _full_battery(amb, 9)


def test_three_variable_bound():
    """r = 3: the recursive product bound stays below the exact distance."""
    import random

    from chaincodes import BudgetExceeded, code_from_exponents, distance_bound

    z4 = ring_construct({"kind": "galois", "p": 2, "t": 2, "l": 1})
    amb = Ambient(z4, [Poly.from_ints(z4, [-1, 0, 0, 1], var=v) for v in range(3)])
    dec = decompose(amb)
    assert dec.class_count == 14
    exps = [0 if cd.cls.rep == (1, 1, 0) else 2 for cd in dec.data]
    K = code_from_exponents(amb, exps)
    assert distance_bound(K) == min_distance(K) == 18
    rng = random.Random(2)
    checked = 0
    for _ in range(6):
        exps = [rng.choice([0, 1, 2]) for _ in dec.data]
        K = code_from_exponents(amb, exps)
        if K.is_zero():
            continue
        try:
            d = min_distance(K, budget=2**20)
        except BudgetExceeded:
            continue
        assert distance_bound(K, budget=2**20) <= d
        checked += 1
    assert checked


def test_high_nilpotency_lift():
    """t = 4 factor lifting reaches full precision."""
    from chaincodes import factor_squarefree, lift_factorization

    z16 = ring_construct({"kind": "galois", "p": 2, "t": 4, "l": 1})
    f = Poly.from_ints(z16, [-1, 0, 0, 0, 0, 0, 0, 1])
    rf = factor_squarefree(f.residue(), seed=0)
    lifted = lift_factorization(f, rf)
    prod = Poly.one(z16)
    for g in lifted.factors:
        prod = prod * g
    assert prod == f
    assert [g.residue() for g in lifted.factors] == list(rf)


def test_field_ambient_duality():
    """t = 1: codes over F_2 itself, duals against brute force."""
    f2 = ring_construct({"kind": "galois", "p": 2, "t": 1, "l": 1})
    amb = Ambient(f2, [Poly.from_ints(f2, [1, 0, 0, 0, 0, 0, 0, 1])])
    codes = list(enumerate_codes(amb))
    assert len(codes) == 8
    for K in codes:
        span = span_of_code(K)
        assert dual_bruteforce(amb, span, naive=True) == span_of_code(dual(K))
        assert K.cardinality() * dual(K).cardinality() == 2**7


def test_bivariate_nontrivial_selfdual():
    """Z4[X,Y]/(X^7-1, Y^3-1): lcm(e) = 21 admits a non-trivial self-dual."""
    from chaincodes import (
        build_nontrivial_selfdual,
        is_selfdual,
        nontrivial_selfdual_exists,
        trivial_selfdual,
    )

    z4 = ring_construct({"kind": "galois", "p": 2, "t": 2, "l": 1})
    amb = Ambient(
        z4,
        [
            Poly.from_ints(z4, [-1, 0, 0, 0, 0, 0, 0, 1], var=0),
            Poly.from_ints(z4, [-1, 0, 0, 1], var=1),
        ],
    )
    dec = decompose(amb)
    assert [cd.cls.size for cd in dec.data] == [1, 2, 3, 6, 3, 6]
    assert nontrivial_selfdual_exists(amb)
    K = build_nontrivial_selfdual(amb)
    assert is_selfdual(K)
    assert K != trivial_selfdual(amb)
    assert K.cardinality() ** 2 == 4**21
    assert dual(K) == K  # includes the internal generator-form cross-check


def test_truncated_selfdual(amb_f3u):
    from chaincodes import (
        is_selfdual,
        nontrivial_selfdual_exists,
        trivial_selfdual,
    )

    exists = nontrivial_selfdual_exists(amb_f3u)
    swept = any(
        is_selfdual(K) and K != trivial_selfdual(amb_f3u)
        for K in enumerate_codes(amb_f3u)
    )
    assert exists == swept
    # 3^1 = 3 = -1 mod 4, so only the trivial self-dual code exists
    assert exists is False
    assert is_selfdual(trivial_selfdual(amb_f3u))


def test_records_are_named_tuples_and_import_no_dataclasses(amb_z8):
    """The result records are namedtuple subclasses (`ClassData` a plain
    class), so importing the package loads no `dataclasses`, and with it no
    inspect, ast or dis.  They are built and read by field name, and equal
    records are equal and hash alike; none is changed after it is built."""
    src = os.path.dirname(os.path.dirname(chaincodes.__file__))
    probe = "import sys, chaincodes; print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
    dec = decompose(amb_z8)
    cls = dec.data[1].cls
    again = CyclotomicClass(members=cls.members, rep=cls.rep)
    assert again == cls and hash(again) == hash(cls) and again.size == len(cls.members)
    gens = CanonicalGenerators(gs=(amb_z8.one(),), G=amb_z8.one())
    assert gens.G == gens.gs[0]
    with pytest.raises(AttributeError):
        cls.rep = ()
