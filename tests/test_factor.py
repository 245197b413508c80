"""Residue-field factorization, splitting fields and cyclotomic classes."""

import functools
from math import lcm

import pytest

from chaincodes import (
    Ambient,
    DomainError,
    FiniteField,
    Poly,
    cyclotomic_classes,
    decompose,
    factor_squarefree,
    is_squarefree,
)


def test_is_squarefree():
    f2 = FiniteField(2)
    assert is_squarefree(Poly.from_ints(f2, [1, 0, 0, 0, 0, 0, 0, 1]))  # x^7+1
    assert not is_squarefree(Poly.from_ints(f2, [1, 0, 1]))  # (x+1)^2
    assert is_squarefree(Poly.from_ints(f2, [0, 1]))  # x


def test_factor_x7_plus_1():
    f2 = FiniteField(2)
    f = Poly.from_ints(f2, [1, 0, 0, 0, 0, 0, 0, 1])
    facs = factor_squarefree(f, seed=0)
    assert [[c.data for c in g.coeffs] for g in facs] == [
        [1, 1],
        [1, 1, 0, 1],
        [1, 0, 1, 1],
    ]
    prod = Poly.one(f2)
    for g in facs:
        prod = prod * g
    assert prod == f


def test_factor_seed_independent_as_set():
    f2 = FiniteField(2)
    f = Poly.from_ints(f2, [1, 0, 0, 0, 0, 0, 0, 1])
    base = {tuple(c.data for c in g.coeffs) for g in factor_squarefree(f, seed=0)}
    for seed in (1, 2, 3):
        got = {tuple(c.data for c in g.coeffs) for g in factor_squarefree(f, seed=seed)}
        assert got == base


def test_factor_irreducible_returns_itself():
    f3 = FiniteField(3)
    f = Poly.from_ints(f3, [1, 0, 1])  # x^2+1, no roots in F_3
    assert factor_squarefree(f) == [f]


def test_factor_over_f4():
    f4 = FiniteField(2, 2)
    f = Poly.from_ints(f4, [1, 1, 1])
    facs = factor_squarefree(f, seed=0)
    assert len(facs) == 2 and all(g.degree == 1 for g in facs)
    # the roots are omega and omega^2 = omega + 1
    roots = {tuple((-g.coeff(0)).coords()) for g in facs}
    assert roots == {(0, 1), (1, 1)}


def test_factor_rejects_bad_input():
    f2 = FiniteField(2)
    with pytest.raises(DomainError):
        factor_squarefree(Poly.from_ints(f2, [1, 0, 1]))


def test_splitting_data(amb_x7, amb_x3y3, amb_z9):
    sd = decompose(amb_x7).splitting
    assert sd.M == 3 and len(sd.roots[0]) == 7
    sd2 = decompose(amb_x3y3).splitting
    assert sd2.M == 2 and all(len(h) == 3 for h in sd2.roots)
    sd3 = decompose(amb_z9).splitting
    assert sd3.M == 1 and all(len(h) == 2 for h in sd3.roots)
    # exponent labels correspond to actual roots of the modulus
    xi = sd.primitive_roots[0]
    assert xi**7 == sd.field.one
    seen = {tuple((xi**a).coords()) for a in sd.roots[0]}
    assert len(seen) == 7


def test_classes_x7(amb_x7):
    classes = cyclotomic_classes(amb_x7)
    assert [set(m[0] for m in c.members) for c in classes] == [
        {0},
        {1, 2, 4},
        {3, 5, 6},
    ]
    assert [c.size for c in classes] == [1, 3, 3]


def test_classes_x3y3(amb_x3y3):
    classes = cyclotomic_classes(amb_x3y3)
    assert [c.rep for c in classes] == [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2)]
    assert [c.size for c in classes] == [1, 2, 2, 2, 2]
    members = [set(c.members) for c in classes]
    assert {(1, 2), (2, 1)} in members


def test_classes_z9(amb_z9):
    classes = cyclotomic_classes(amb_z9)
    assert len(classes) == 4
    assert all(c.size == 1 for c in classes)


def test_class_partition_and_lcm(amb_x7, amb_x3y3, amb_z9, orbit_length):
    for amb in (amb_x7, amb_x3y3, amb_z9):
        classes = cyclotomic_classes(amb)
        q = amb.ring.q
        exps = amb.exponents
        assert sum(c.size for c in classes) == amb.n
        seen = set()
        for c in classes:
            for m in c.members:
                assert m not in seen
                seen.add(m)
            ds = [orbit_length(lab, e, q) for lab, e in zip(c.rep, exps)]
            assert c.size == lcm(*ds)


def test_classes_nonabelian_labels(z4):
    # a non-abelian semisimple modulus: x^3 + 2x^2 + x + 3 (a basic irreducible)
    amb = Ambient(z4, [Poly.from_ints(z4, [3, 1, 2, 1])])
    sd = decompose(amb).splitting
    assert sd.primitive_roots is None
    classes = cyclotomic_classes(amb, sd)
    assert len(classes) == 1 and classes[0].size == 3


class _Draws:
    """A stand-in for `random.Random` that hands out fixed ranks, then stops."""

    def __init__(self, ranks):
        self.ranks = list(ranks)

    def randrange(self, n):
        if not self.ranks:
            raise LookupError("out of draws")
        return self.ranks.pop(0)


@pytest.mark.parametrize("p,l,split", [(2, 1, 2), (2, 2, 8), (3, 1, 4), (5, 1, 12)])
def test_split_chance_per_draw(p, l, split):
    """Of the q^2 draws r of degree < 2 on (x - 1)(x - a), (q^2 - 1) / 2
    split for odd q and q^2 / 2 in characteristic 2; the budget in
    `_equal_degree` is sized from the worst, 4 of 9 at GF(3)."""
    from itertools import product

    from chaincodes.factor import _equal_degree

    field = FiniteField(p, l)
    a = field.from_rank(2 if p > 2 else 0)
    g = Poly.from_coeffs(field, [-field.one, field.one]) * Poly.from_coeffs(field, [-a, field.one])
    splits = 0
    for ranks in product(range(field.size), repeat=2):
        try:
            _equal_degree(g, 1, _Draws(ranks))
        except LookupError:
            continue
        splits += 1
    assert splits == split


def test_equal_degree_gives_up_after_its_budget(monkeypatch):
    import random

    from chaincodes import factor
    from chaincodes.errors import InternalError

    f2 = FiniteField(2)
    g = Poly.from_ints(f2, [0, 1, 1])  # x (x + 1)
    draws = []
    real_random_poly = factor._random_poly
    monkeypatch.setattr(factor, "poly_gcd", lambda f, h: Poly.one(f.ring, var=f.var))
    monkeypatch.setattr(factor, "_random_poly", lambda *a: draws.append(1) or real_random_poly(*a))
    with pytest.raises(InternalError, match="no split"):
        factor._equal_degree(g, 1, random.Random(0))
    assert len(draws) == factor.SPLIT_DRAWS


NON_ABELIAN = {
    "Z4 x^3+x+1,y^2+y+1": ({"kind": "galois", "p": 2, "t": 2, "l": 1}, ["x^3+x+1", "y^2+y+1"]),
    "GF(2) x^4+x+1,y^3+y+1": ({"kind": "galois", "p": 2, "t": 1, "l": 1}, ["x^4+x+1", "y^3+y+1"]),
    "GF(2) x^5+x^2+1,y^3+y+1": (
        {"kind": "galois", "p": 2, "t": 1, "l": 1}, ["x^5+x^2+1", "y^3+y+1"]
    ),
    "Z9 x^2+1,y^3+2y+1": ({"kind": "galois", "p": 3, "t": 2, "l": 1}, ["x^2+1", "y^3+2*y+1"]),
    "GR(4,2) x^3+x+1,y^2+y+1": (
        {"kind": "galois", "p": 2, "t": 2, "l": 2}, ["x^3+x+1", "y^2+y+1"]
    ),
    "F2[u]/u^2 x^3+x+1,y^5+y^2+1": (
        {"kind": "truncated", "p": 2, "t": 2, "l": 1}, ["x^3+x+1", "y^5+y^2+1"]
    ),
}


def _non_abelian_ambient(name):
    from chaincodes import parse_univariate, ring_construct

    desc, moduli = NON_ABELIAN[name]
    ring = ring_construct(desc)
    return Ambient(ring, [parse_univariate(m, ring, var=i) for i, m in enumerate(moduli)])


@functools.cache
def _scanned_roots(big, m):
    """The roots of a residue modulus m by evaluation at every element of
    the splitting field, sorted by coordinates: the reference for the
    labels that `splitting_data` reads off equal-degree splitting.  Cached,
    as the two ambients with M = 15 share both residue moduli."""
    embed = (lambda c: c) if big == m.ring else big.embed
    rs = [c for c in big.elements() if m.evaluate(c, embed).is_zero()]
    assert len(rs) == m.degree
    return tuple(sorted(rs, key=lambda c: tuple(c.coords())))


@pytest.mark.parametrize("name", sorted(NON_ABELIAN))
def test_split_root_labels_match_the_element_scan(name):
    ambient = _non_abelian_ambient(name)
    sd = decompose(ambient).splitting
    assert sd.primitive_roots is None
    for m, roots in zip(ambient.moduli, sd.roots):
        m = m.residue() if ambient.ring.t > 1 else m
        want = _scanned_roots(sd.field, m)
        assert [list(c) for c in roots] == [c.coords() for c in want]


def test_non_abelian_splitting_scans_no_field(monkeypatch):
    """Non-abelian root labels come from splitting, never from a scan of
    the splitting field's elements."""
    from chaincodes.factor import splitting_data
    from chaincodes.rings import ExtensionRing

    dec = decompose(_non_abelian_ambient("Z4 x^3+x+1,y^2+y+1"))

    def no_scan(self):
        raise AssertionError("the splitting field was scanned")

    monkeypatch.setattr(ExtensionRing, "elements", no_scan)
    sd = splitting_data(dec.ambient, dec.factor_lists)
    assert isinstance(sd.field, ExtensionRing) and sd.M == 6
    assert [len(rs) for rs in sd.roots] == [3, 2]


@pytest.mark.parametrize("name", sorted(NON_ABELIAN))
def test_class_representatives_key_an_exponent_map(name):
    from chaincodes import code_from_exponents

    ambient = _non_abelian_ambient(name)
    dec = decompose(ambient)
    exps = [i % (ambient.ring.t + 1) for i in range(dec.class_count)]
    keyed = {cls.rep: j for cls, j in zip(dec.classes, exps)}
    assert code_from_exponents(ambient, keyed) == code_from_exponents(ambient, exps)


@pytest.mark.parametrize("name", sorted(NON_ABELIAN))
def test_non_abelian_labels_build_no_ring_elements(name, monkeypatch):
    """The splitting and the class walk read and write root labels as
    coordinate tuples over payloads, the form they print in."""
    from chaincodes.codes import is_root_label
    from chaincodes.rings import RingElem

    dec = decompose(_non_abelian_ambient(name))
    dec.factor_lists

    def no_elem(self, ring, data):
        raise AssertionError("a RingElem was built")

    monkeypatch.setattr(RingElem, "__init__", no_elem)
    sd, classes = dec.splitting, dec.classes
    monkeypatch.undo()
    assert all(is_root_label(x) for rs in sd.roots for x in rs)
    assert all(is_root_label(x) for cls in classes for mu in cls.members for x in mu)


def _generator_from_rank_one(field):
    """The least-rank generator of field^*, scanned from rank 1."""
    from chaincodes.factor import prime_factors

    order = field.size - 1
    for r in range(1, field.size):
        g = field.from_rank(r)
        if all(g ** (order // ell) != field.one for ell in prime_factors(order)):
            return g


@pytest.mark.parametrize(
    "p,l,M", [(2, 1, 3), (2, 2, 3), (2, 3, 2), (3, 1, 2), (3, 2, 2), (5, 1, 2), (2, 2, 1), (7, 1, 1)]
)
def test_generator_scan_skips_the_base_constants(p, l, M):
    from chaincodes.factor import _multiplicative_generator, _splitting_field

    field = _splitting_field(FiniteField(p, l), M)
    assert _multiplicative_generator(field) == _generator_from_rank_one(field)


def test_generator_scan_of_a_degree_one_extension_starts_at_one():
    from chaincodes.factor import _multiplicative_generator
    from chaincodes.rings import ExtensionRing

    f4 = FiniteField(2, 2)
    field = ExtensionRing(f4, Poly.from_coeffs(f4, [f4.from_rank(3), f4.one]))
    assert field.deg == 1 and field.base.size == field.size
    assert _multiplicative_generator(field) == _generator_from_rank_one(field)


@pytest.mark.parametrize(
    "p, n, degrees, rems",
    [(2, 31, [1] + [5] * 6, [31, 30]), (3, 13, [1] + [3] * 4, [13, 12])],
    ids=["GF(2) x^31-1", "GF(3) x^13-1"],
)
def test_factoring_builds_one_layout_per_modulus(monkeypatch, p, n, degrees, rems):
    """x^n-1 is x-1 times equal-degree factors: the distinct-degree loop
    splits off x-1 at d = 1 and the rest at one later d, so it builds the
    layouts of R[X]/(rem) for two remainders, not one per d.  Equal-degree
    splitting builds one for each product it splits, one fewer than its
    factors, however many draws each split takes."""
    from chaincodes import factor, polys

    f = Poly.from_ints(FiniteField(p), [-1] + [0] * (n - 1) + [1])
    built = {"distinct": [], "equal": []}
    for module, key in ((polys, "distinct"), (factor, "equal")):
        def counted(r, m, real=module.packed_layout, key=key):
            built[key].append(m)
            return real(r, m)

        monkeypatch.setattr(module, "packed_layout", counted)
    factors = factor_squarefree(f)
    assert sorted(q.degree for q in factors) == degrees
    assert [m[0].degree for m in built["distinct"]] == rems
    assert len(built["equal"]) == len(degrees) - 2
