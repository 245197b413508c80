"""Chain ring construction, arithmetic and the Teichmuller machinery."""

import itertools

import pytest

from chaincodes import (
    DomainError,
    ExtensionRing,
    FiniteField,
    Poly,
    ring_construct,
    ring_from_json,
    ring_to_json,
    ring_trace,
)


def test_z4_basics(z4):
    assert z4.size == 4
    assert z4.q == 2
    assert z4.residue_field.size == 2
    assert z4.a == z4.from_int(2)


def test_gr42_construction(gr42):
    assert gr42.size == 16
    assert gr42.q == 4
    # default modulus Y^2+Y+1 is irreducible over F_2
    assert [c.data for c in gr42.modulus.coeffs] == [1, 1, 1]


def test_truncated_ring(f3u2):
    assert f3u2.size == 9
    assert f3u2.q == 3
    assert (f3u2.a * f3u2.a).is_zero()


def test_construct_errors():
    with pytest.raises(DomainError):
        ring_construct({"kind": "galois", "p": 4, "t": 2, "l": 1})
    with pytest.raises(DomainError):
        ring_construct({"kind": "galois", "p": 2, "t": 0, "l": 1})
    with pytest.raises(DomainError):
        # Y^2+1 = (Y+1)^2 over F_2 is reducible
        ring_construct({"kind": "galois", "p": 2, "t": 2, "l": 2, "modulus": [1, 0, 1]})
    with pytest.raises(DomainError):
        ring_construct({"kind": "nonsense", "p": 2, "t": 2, "l": 1})


def test_residue(z4, f3u2):
    assert z4.from_int(3).residue() == z4.residue_field.from_int(1)
    assert z4.from_int(2).residue().is_zero()
    x = f3u2.from_coords([2, 1])  # 2 + u
    assert x.residue() == f3u2.residue_field.from_int(2)


def test_valuation(z4):
    assert z4.from_int(2).valuation() == 1
    assert z4.from_int(3).valuation() == 0
    assert z4.zero.valuation() == 2


def test_valuation_multiplicative(z4, gr42, f3u2):
    for ring in (z4, gr42, f3u2):
        for a, b in itertools.product(ring.elements(), repeat=2):
            assert (a * b).valuation() == min(
                a.valuation() + b.valuation(), ring.t
            )


def test_units_invert_exhaustively(z4, gr42, f3u2):
    for ring in (z4, gr42, f3u2):
        units = 0
        for x in ring.elements():
            if x.valuation() == 0:
                units += 1
                assert ring.unit_inverse(x) * x == ring.one
            else:
                with pytest.raises(DomainError):
                    ring.unit_inverse(x)
        assert units == ring.size - ring.size // ring.q


def test_ideals_form_chain(z4, gr42):
    # every additively closed, R-scaled subset generated by one element is <a^k>
    for ring in (z4, gr42):
        apowers = []
        cur = ring.one
        for k in range(ring.t + 1):
            apowers.append({(x * cur).data for x in ring.elements()})
            cur = cur * ring.a
        for x in ring.elements():
            principal = {(y * x).data for y in ring.elements()}
            assert principal == apowers[x.valuation()]


def test_extend_ring(z4, gr42):
    ext = ExtensionRing(z4, Poly.from_ints(z4, [1, 1, 1]))
    assert ext.size == 16 and ext.q == 4 and ext.t == 2
    assert ext.embed(z4.from_int(3)) == ext.from_int(3)
    # degree-1 extension is isomorphic to the base
    triv = ExtensionRing(z4, Poly.from_ints(z4, [-1, 1]))
    assert triv.size == 4 and triv.q == 2
    with pytest.raises(DomainError):
        ExtensionRing(z4, Poly.from_ints(z4, [1, 0, 1]))
    # extension of GR(4,2) by a residue-irreducible cubic: GR(4,6)-sized
    fq = gr42.residue_field
    cubic = None
    for rank in range(fq.size**3):
        coeffs, r = [], rank
        for _ in range(3):
            coeffs.append(fq.from_rank(r % fq.size))
            r //= fq.size
        cand = Poly.from_coeffs(fq, coeffs + [fq.one])
        from chaincodes.polys import is_irreducible

        if is_irreducible(cand):
            cubic = cand.map_coeffs(gr42.lift, gr42)
            break
    big = ExtensionRing(gr42, cubic)
    assert big.q == 4**3 and big.size == 4**6 and big.t == 2


def test_teichmuller_sets(z4, gr42, f3u2):
    assert sorted(x.data for x in z4.teichmuller_set()) == [0, 1]
    got = {tuple(x.coords()) for x in gr42.teichmuller_set()}
    assert got == {(0, 0), (1, 0), (0, 1), (3, 3)}  # {0, 1, w, 3w+3}
    assert {tuple(x.coords()) for x in f3u2.teichmuller_set()} == {
        (0, 0),
        (1, 0),
        (2, 0),
    }


def test_teichmuller_properties(gr42):
    ts = gr42.teichmuller_set()
    residues = {tuple(x.residue().coords()) for x in ts}
    assert len(residues) == gr42.q  # bijective onto the residue field
    for x in ts:
        assert x**gr42.q == x
        for y in ts:
            assert x * y in ts  # closed under multiplication


def test_adic_digits(gr42):
    for x in gr42.elements():
        digits = gr42.adic_digits(x)
        acc = gr42.zero
        apow = gr42.one
        for g in digits:
            assert g ** gr42.q == g
            acc = acc + apow * g
            apow = apow * gr42.a
        assert acc == x


def test_ring_trace(z4, gr42):
    w = gr42.from_coords([0, 1])
    assert ring_trace(gr42, w) == z4.from_int(3)  # w + w^2 = 3
    assert ring_trace(gr42, gr42.one) == z4.from_int(2)
    assert ring_trace(gr42, gr42.zero) == z4.zero
    # trace is Z4-linear
    for x in gr42.elements():
        for c in z4.elements():
            assert ring_trace(gr42, gr42.embed(c) * x) == c * ring_trace(gr42, x)


# Minimal-rank monic irreducibles over F_p, ascending with the leading 1.
_MINIMAL_IRREDUCIBLES = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 1, 0, 1, 1, 0, 0, 0, 1),
    (3, 2): (1, 0, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 1, 0, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (3, 7): (2, 0, 1, 0, 0, 0, 0, 1),
    (3, 8): (2, 0, 1, 0, 0, 0, 0, 0, 1),
    (5, 2): (2, 0, 1),
    (5, 3): (1, 1, 0, 1),
    (5, 4): (2, 0, 0, 0, 1),
    (7, 2): (1, 0, 1),
    (7, 3): (2, 0, 0, 1),
}


def test_default_moduli_are_minimal_irreducibles(monkeypatch):
    """Each default is searched (once per process), minimal and irreducible."""
    from chaincodes import rings
    from chaincodes.polys import is_irreducible
    from chaincodes.rings import IntegerModRing, default_modulus

    searched = []
    real = rings.smallest_irreducible
    monkeypatch.setattr(
        rings, "smallest_irreducible", lambda f, d: searched.append((f.p, d)) or real(f, d)
    )
    default_modulus.cache_clear()
    for (p, deg), entry in sorted(_MINIMAL_IRREDUCIBLES.items()):
        assert default_modulus(IntegerModRing(p, 1), deg).data == entry
        assert default_modulus(IntegerModRing(p, 1), deg).data == entry
        assert searched[-1] == (p, deg)
    assert len(searched) == len(_MINIMAL_IRREDUCIBLES)
    default_modulus.cache_clear()
    for (p, deg), entry in sorted(_MINIMAL_IRREDUCIBLES.items()):
        field = IntegerModRing(p, 1)
        assert is_irreducible(Poly.from_ints(field, entry))
        # minimal by coefficient rank: nothing smaller is irreducible
        rank = sum(c * p**i for i, c in enumerate(entry[:-1]))
        for smaller in range(rank):
            coeffs, r = [], smaller
            for _ in range(deg):
                coeffs.append(r % p)
                r //= p
            assert not is_irreducible(Poly.from_ints(field, coeffs + [1]))
    assert default_modulus(IntegerModRing(2, 1), 1).data == (0, 1)
    assert default_modulus(IntegerModRing(11, 1), 2).data[-1] == 1


def test_json_round_trip(z4, gr42, f3u2):
    for ring in (z4, gr42, f3u2):
        desc = ring_to_json(ring)
        again = ring_from_json(desc)
        assert again == ring


def test_finite_field_with_a_modulus_round_trips():
    f8 = FiniteField(2, 3, (1, 0, 1, 1))  # x^3 + x^2 + 1, not the default x^3 + x + 1
    desc = ring_to_json(f8)
    assert desc == {"kind": "galois", "p": 2, "t": 1, "l": 3, "modulus": [1, 0, 1, 1]}
    assert ring_from_json(desc) == f8 != FiniteField(2, 3)
    desc["modulus"][0] = 0  # a copy: the ring's descriptor stays as built
    assert ring_to_json(f8)["modulus"] == [1, 0, 1, 1]


def test_element_serialization(gr42):
    for x in gr42.elements():
        assert gr42.from_coords(x.coords()) == x
        assert all(0 <= c < 4 for c in x.coords())


def test_extension_of_truncated(f3u2):
    # generic extension works over the truncated family too
    ext = ExtensionRing(f3u2, Poly.from_ints(f3u2, [1, 0, 1]))
    assert ext.q == 9 and ext.t == 2 and ext.size == 81
    for x in ext.elements():
        if x.valuation() == 0:
            assert ext.unit_inverse(x) * x == ext.one


def test_divide_by_a_power_is_repeated_single_steps():
    import random

    gr82 = ring_construct({"kind": "galois", "p": 2, "t": 3, "l": 2})
    rings = [
        ring_construct({"kind": "galois", "p": 2, "t": 40, "l": 1}),
        ring_construct({"kind": "galois", "p": 3, "t": 2, "l": 1}),
        ring_construct({"kind": "galois", "p": 2, "t": 2, "l": 2}),
        ring_construct({"kind": "truncated", "p": 3, "t": 3, "l": 1}),
        ExtensionRing(gr82, Poly.from_ints(gr82, [1, 1, 0, 1])),  # a tower over GR(8, 2)
    ]
    rng = random.Random(7)
    for ring in rings:
        for _ in range(20):
            y = ring.from_rank(rng.randrange(ring.size))
            for k in range(ring.t + 1):
                x = ring.a**k * y
                step = x
                for _ in range(k):
                    step = ring.divide_by_a(step)
                assert ring.divide_by_a(x, k) == step
                assert ring.a**k * step == x
            if y.valuation() == 0 and ring.t > 1:
                with pytest.raises(DomainError):
                    ring.divide_by_a(ring.a * y, 2)


def test_searched_moduli_are_not_rechecked(monkeypatch):
    """A modulus found by `default_modulus` or `smallest_irreducible` is
    irreducible, and so is its monic lift, so building GR(4,2), GF(4) and
    the splitting field of GF(4) x^21-1 runs no irreducibility test; a
    user's modulus still gets one."""
    from chaincodes import Ambient, decompose, parse_univariate, rings
    from chaincodes.rings import IntegerModRing, default_modulus

    default_modulus(IntegerModRing(2, 1), 2)

    def forbidden(f):
        raise AssertionError("irreducibility test on a searched modulus")

    monkeypatch.setattr(rings, "is_irreducible", forbidden)
    assert ring_construct({"kind": "galois", "p": 2, "t": 2, "l": 2}).size == 16
    gf4 = ring_construct({"kind": "galois", "p": 2, "t": 1, "l": 2})
    assert gf4.size == 4
    big = decompose(Ambient(gf4, [parse_univariate("x^21-1", gf4)])).splitting.field
    assert big.size == 4**3
    with pytest.raises(AssertionError, match="searched modulus"):
        ring_construct({"kind": "galois", "p": 2, "t": 2, "l": 2, "modulus": [1, 1, 1]})


def test_splitting_field_moduli_are_searched_once_per_field_and_degree(monkeypatch):
    """`default_modulus` serves every base field, so two decompositions
    over GF(4) that both split in GF(4^3) search its modulus once; a
    non-prime field is a cache key like F_p."""
    from chaincodes import Ambient, decompose, parse_univariate, polys
    from chaincodes.rings import default_modulus

    gf4 = ring_construct({"kind": "galois", "p": 2, "t": 1, "l": 2})
    tests = []
    real = polys.is_irreducible
    monkeypatch.setattr(polys, "is_irreducible", lambda f: tests.append(f) or real(f))
    default_modulus.cache_clear()
    fields = [decompose(Ambient(gf4, [parse_univariate(m, gf4)])).splitting.field for m in ("x^21-1", "x^7-1")]
    assert fields[0] == fields[1] and fields[0].size == 4**3
    assert tests and all(f.ring == gf4 and f.degree == 3 for f in tests)
    searched = len(tests)
    assert decompose(Ambient(gf4, [parse_univariate("x^9-1", gf4)])).splitting.field == fields[0]
    assert len(tests) == searched


def test_a_ring_descriptor_checks_its_prime_once(monkeypatch):
    """`ring_construct` checks p, and so does every `IntegerModRing` it
    builds: Z_(p^2), the F_p of the default modulus and the residue field.
    Trial division, one `isqrt` per run, runs once for all of them."""
    from chaincodes import rings

    roots = []
    real = rings.isqrt
    monkeypatch.setattr(rings, "isqrt", lambda n: roots.append(n) or real(n))
    rings._is_prime.cache_clear()
    ring = ring_construct({"kind": "galois", "p": 1099511627689, "t": 2, "l": 2})
    assert ring.residue_field.size == 1099511627689**2
    assert roots == [1099511627689]
