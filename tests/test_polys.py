"""Polynomial arithmetic, normal forms, the inversion map and vectors."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaincodes import (
    Ambient,
    BudgetExceeded,
    DomainError,
    FiniteField,
    Poly,
    parse_univariate,
    poly_to_text,
)
from chaincodes.factor import prime_factors
from chaincodes.polys import (
    MAX_AMBIENT_LENGTH,
    is_irreducible,
    poly_gcd,
    pow_mod,
    smallest_irreducible,
)


def test_product_reassembles_x7_minus_1(z4):
    f1 = Poly.from_ints(z4, [3, 1])
    f2 = Poly.from_ints(z4, [3, 1, 2, 1])
    f3 = Poly.from_ints(z4, [3, 2, 3, 1])
    assert f1 * f2 * f3 == Poly.from_ints(z4, [-1, 0, 0, 0, 0, 0, 0, 1])


def test_divmod(z4):
    x7m1 = Poly.from_ints(z4, [-1, 0, 0, 0, 0, 0, 0, 1])
    q, r = divmod(x7m1, Poly.from_ints(z4, [-1, 1]))
    assert q == Poly.from_ints(z4, [1] * 7)
    assert r.is_zero()
    f = Poly.from_ints(z4, [3, 1, 2, 1])
    q, r = divmod(f, f)
    assert q == Poly.one(z4) and r.is_zero()
    with pytest.raises(DomainError):
        divmod(f, Poly.from_ints(z4, [1, 2]))  # leading coefficient 2 not a unit


def test_poly_parse_and_format(z4):
    f = parse_univariate("x^7-1", z4)
    assert f == Poly.from_ints(z4, [-1, 0, 0, 0, 0, 0, 0, 1])
    assert poly_to_text(f) == "x^7+3"
    assert parse_univariate("3*x+2", z4) == Poly.from_ints(z4, [2, 3])
    assert parse_univariate(poly_to_text(f), z4) == f
    # one variable: any letter, bare or indexed 1, names it
    assert parse_univariate("y^7-1", z4) == parse_univariate("t1^7-1", z4) == f
    with pytest.raises(DomainError):
        parse_univariate("x2^7-1", z4)


def test_normal_form(z4, amb_x7, amb_x3y3):
    assert amb_x7.from_terms({(7,): z4.one}) == amb_x7.one()
    got = amb_x3y3.from_terms({(3, 1): z4.one})
    assert got == amb_x3y3.monomial((0, 1))
    # (X+3)(X^2+X+1) + 1 = X^3+3 + 1 == 0 + 1 in Z4[x]/(x^3-1)
    amb_x3 = Ambient(z4, [Poly.from_ints(z4, [-1, 0, 0, 1])])
    f = amb_x3.parse("x+3") * amb_x3.parse("x^2+x+1") + amb_x3.one()
    assert f == amb_x3.one()


def test_semisimple_check(z4):
    with pytest.raises(DomainError):
        Ambient(z4, [Poly.from_ints(z4, [-1, 0, 1])])  # x^2-1 == (x+1)^2 mod 2
    forced = Ambient(z4, [Poly.from_ints(z4, [-1, 0, 1])], unchecked=True)
    assert not forced.semisimple


def test_tau(z4, amb_x7, amb_x3y3):
    x = amb_x7.monomial((1,))
    assert x.tau() == amb_x7.monomial((6,))
    assert amb_x7.one().tau() == amb_x7.one()
    m = amb_x3y3.monomial((1, 2))
    assert m.tau() == amb_x3y3.monomial((2, 1))
    with pytest.raises(DomainError):
        Ambient(z4, [Poly.from_ints(z4, [1, 1])]).one().tau()


def _weight(f):
    """Hamming weight of the coefficient vector."""
    return sum(1 for c in f.coeffs if not c.is_zero())


def test_tau_weight_and_multiplicativity(amb_x3y3):
    rng = random.Random(1)
    ring = amb_x3y3.ring
    for _ in range(200):
        f = amb_x3y3.from_vector(
            [ring.from_rank(rng.randrange(ring.size)) for _ in range(amb_x3y3.n)]
        )
        g = amb_x3y3.from_vector(
            [ring.from_rank(rng.randrange(ring.size)) for _ in range(amb_x3y3.n)]
        )
        assert _weight(f.tau()) == _weight(f)
        assert f.tau().tau() == f
        assert (f * g).tau() == f.tau() * g.tau()


def test_mpoly_json_round_trip(amb_x3y3, gr42):
    f = amb_x3y3.parse("3*x1^2*x2+2*x1+1")
    assert amb_x3y3.from_json(f.to_json()) == f
    amb = Ambient(gr42, [Poly.from_ints(gr42, [-1, 0, 0, 1])])
    g = amb.monomial((2,), gr42.from_coords([1, 2]))
    assert amb.from_json(g.to_json()) == g


def test_coeff_vector(z4, amb_x3y3):
    amb = Ambient(z4, [Poly.from_ints(z4, [-1, 0, 0, 1])])
    assert [c.data for c in amb.one().coeffs] == [1, 0, 0]
    f = amb.parse("2+2*x+2*x^2")
    assert [c.data for c in f.coeffs] == [2, 2, 2]
    y = amb_x3y3.monomial((0, 1))
    vec = y.coeffs
    assert [c.data for c in vec] == [0, 0, 0, 1, 0, 0, 0, 0, 0]
    assert amb_x3y3.from_vector(vec) == y


def test_foreign_ring_elements_are_domain_errors(z4):
    """The lanes of another ring's element mean nothing in this ambient."""
    amb = Ambient(z4, [parse_univariate("x^3-1", z4)])
    one2 = FiniteField(2).one
    f = amb.parse("x^2+3")
    for op in (
        lambda: amb.from_vector([one2] * 3),
        lambda: amb.constant(one2),
        lambda: amb.monomial((1,), one2),
        lambda: f * one2,
        lambda: one2 * f,
        lambda: f + one2,
        lambda: f - one2,
        lambda: f * None,
        lambda: f + "x",
    ):
        with pytest.raises(DomainError):
            op()


def test_monomial_exponents_must_be_in_normal_form(z4, amb_x3y3):
    """X1^3 is 1 here, so an exponent outside 0 <= e_i < 3 (or a tuple of the
    wrong length) is a DomainError, not an alias of another monomial."""
    assert amb_x3y3.monomial((2, 1), 3) == amb_x3y3.parse("3*x1^2*x2")
    for exps in ((3, 0), (-1, 0), (0, 3), (1,), (0, 0, 0)):
        with pytest.raises(DomainError):
            amb_x3y3.monomial(exps)
    # raw exponents are reduced by from_terms
    assert amb_x3y3.from_terms({(3, 0): z4.one}) == amb_x3y3.one()


def test_from_terms_takes_int_coefficients(z4, amb_x3y3):
    f = amb_x3y3.from_terms({(1, 0): 1, (4, 2): 3, (0, 0): 4, (2, 2): z4.from_int(2)})
    assert f == amb_x3y3.parse("x1+3*x1*x2^2+2*x1^2*x2^2")
    assert amb_x3y3.from_terms({(5, 0): -1}) == amb_x3y3.parse("3*x1^2")
    with pytest.raises(DomainError):
        amb_x3y3.from_terms({(1, 0): FiniteField(2).one})


def test_from_terms_checks_raw_exponent_tuples(z4, amb_x3y3):
    """A raw exponent tuple holds r ints >= 0: a negative exponent, a short
    tuple and a long one are DomainErrors through from_terms and from_json,
    not x1^2*x2^2, a padded x1 or an IndexError."""
    for exps in ((-1, 0), (1,), (0, 0, 1), (1.0, 0), (True, 0), (0, "1")):
        with pytest.raises(DomainError, match="non-negative integers"):
            amb_x3y3.from_terms({exps: 1})
        with pytest.raises(DomainError, match="non-negative integers"):
            amb_x3y3.from_json({"vars": 2, "coeffs": [[list(exps), 1]]})
    # exponents at or above the degree still reduce, through pow_mod
    assert amb_x3y3.from_json({"vars": 2, "coeffs": [[[4, 6], 3]]}) == amb_x3y3.parse("3*x1")
    assert amb_x3y3.from_terms({(2**70 + 1, 5): 1}) == amb_x3y3.parse("x1^2*x2^2")


def test_from_json_sums_repeated_exponents_and_refuses_bad_shapes(amb_x3y3):
    """Two terms with one exponent list sum, as in `parse`; a term, an
    exponent list or a coefficient of another shape is a DomainError."""
    twice = {"vars": 2, "coeffs": [[[1, 0], 1], [[1, 0], 1]]}
    assert amb_x3y3.from_json(twice) == amb_x3y3.parse("x1+x1") == amb_x3y3.parse("2*x1")
    for obj in (
        {"vars": 2, "coeffs": [[5, 1]]},
        {"vars": 2, "coeffs": [[[1, 0]]]},
        {"vars": 2, "coeffs": [[[1, 0], 1, 1]]},
        {"vars": 2, "coeffs": [[[[1], 0], 1]]},
        {"vars": 2, "coeffs": [[[1, 0], "1"]]},
        {"vars": 2, "coeffs": [[[1, 0], True]]},
        {"vars": 2, "coeffs": [[[1, 0], [1, "0"]]]},
        {"vars": 2, "coeffs": {"x1": 1}},
        {"vars": 2},
        [[[1, 0], 1]],
        {"vars": 3, "coeffs": []},
    ):
        with pytest.raises(DomainError):
            amb_x3y3.from_json(obj)


def test_poly_refuses_foreign_values(z4):
    """`Poly.from_coeffs` and the operators take ints and elements of the
    polynomial's ring; anything else is a DomainError."""
    gf2, gf4 = FiniteField(2), FiniteField(2, 2)
    x = Poly.x(z4)
    for op in (
        lambda: Poly.from_coeffs(z4, [gf2.one, z4.one]),
        lambda: Poly.from_coeffs(z4, ["1"]),
        lambda: x + gf4.one,
        lambda: x * gf2.one,
        lambda: gf2.one - x,
        lambda: divmod(x, gf4.one),
        lambda: x + None,
        lambda: x.map_coeffs(lambda c: gf2.one),
    ):
        with pytest.raises(DomainError):
            op()
    f = Poly.from_coeffs(z4, [1, 2, z4.one, 0, 4])
    assert f.data == (1, 2, 1) and f == Poly.from_ints(z4, [1, 2, 1])
    assert x != gf2.one and x != None and x + 1 == Poly.from_coeffs(z4, [1, 1])


def test_equality_with_non_members_is_false(z4, amb_x3):
    f = amb_x3.one()
    for other in (None, "x", 1.0, FiniteField(2).one, Ambient(z4, [parse_univariate("x^2+x+1", z4)]).one()):
        assert not f == other and f != other
    assert f == 1 and f == 5 and f == z4.one and amb_x3.zero() == 0 and amb_x3.zero() != 1
    assert amb_x3.from_vector([z4.one, z4.zero, z4.zero]) == f


def test_ring_axioms_random_triples(amb_x7, amb_z9):
    for amb in (amb_x7, amb_z9):
        ring = amb.ring
        rng = random.Random(0)

        def rand():
            return amb.from_vector(
                [ring.from_rank(rng.randrange(ring.size)) for _ in range(amb.n)]
            )

        for _ in range(1000):
            f, g, h = rand(), rand(), rand()
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert f * g == g * f


def test_normal_form_is_homomorphism(amb_x7):
    ring = amb_x7.ring
    rng = random.Random(7)
    for _ in range(100):
        raw_f = {
            (rng.randrange(14),): ring.from_rank(rng.randrange(ring.size))
            for _ in range(4)
        }
        raw_g = {
            (rng.randrange(14),): ring.from_rank(rng.randrange(ring.size))
            for _ in range(4)
        }
        f, g = amb_x7.from_terms(raw_f), amb_x7.from_terms(raw_g)
        raw_prod = {}
        for ef, cf in raw_f.items():
            for eg, cg in raw_g.items():
                key = (ef[0] + eg[0],)
                raw_prod[key] = raw_prod.get(key, ring.zero) + cf * cg
        assert amb_x7.from_terms(raw_prod) == f * g


@st.composite
def z4_polys(draw):
    from chaincodes import ring_construct

    ring = ring_construct({"kind": "galois", "p": 2, "t": 2, "l": 1})
    coeffs = draw(st.lists(st.integers(0, 3), max_size=6))
    return Poly.from_ints(ring, coeffs)


@settings(max_examples=150, deadline=None)
@given(f=z4_polys(), g=z4_polys(), h=z4_polys())
def test_poly_ring_axioms(f, g, h):
    assert (f + g) * h == f * h + g * h
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)


@settings(max_examples=150, deadline=None)
@given(f=z4_polys(), g=z4_polys())
def test_poly_divmod_identity(f, g):
    g = g + Poly.from_ints(f.ring, [0] * (len(g.coeffs)) + [1])  # force monic
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.degree < g.degree


def test_mixed_ambients_rejected(z4):
    a = Ambient(z4, [parse_univariate("x^7-1", z4)])
    b = Ambient(z4, [parse_univariate("x^3-1", z4)])
    with pytest.raises(DomainError):
        a.one() + b.one()
    with pytest.raises(DomainError):
        a.one() * b.one()
    # equal ambients built separately still mix
    a2 = Ambient(z4, [parse_univariate("x^7-1", z4)])
    assert a.one() * a2.one() + a2.one() == a.constant(z4.from_int(2))


def test_multivariate_text_names_only_its_variables(z4, amb_x3y3):
    """x1..xr and the aliases x, y, z, w; any other name is an error, not x1."""
    for text in ("q^2+q+1", "t2", "x3", "z", "xy"):
        with pytest.raises(DomainError):
            amb_x3y3.parse(text)
    assert amb_x3y3.parse("y^2+x") == amb_x3y3.parse("x2^2+x1")
    amb4 = Ambient(z4, [Poly.from_ints(z4, [-1, 0, 0, 1], var=i) for i in range(4)])
    assert amb4.parse("w*z+y+x") == amb4.parse("x4*x3+x2+x1")


def _rabin_is_irreducible(f):
    """Irreducibility over the coefficient field (Rabin's test): the
    reference for `is_irreducible`, which runs Ben-Or's test."""
    field = f.ring
    if field.t != 1:
        raise DomainError("irreducibility test requires field coefficients")
    d = f.degree
    if d < 1:
        return False
    if d == 1:
        return True
    f = f.monic()
    q = field.size
    x = Poly.x(field, var=f.var)
    h = pow_mod(x, q**d, f)
    if h != x % f:
        return False
    for ell in prime_factors(d):
        h = pow_mod(x, q ** (d // ell), f)
        if poly_gcd(h - x, f).degree != 0:
            return False
    return True


def _monic_polys(field, max_degree):
    """Every monic polynomial of degree <= max_degree, the constant 1 included."""
    for d in range(max_degree + 1):
        for rank in range(field.size**d):
            coeffs = []
            for _ in range(d):
                coeffs.append(field.from_rank(rank % field.size))
                rank //= field.size
            yield Poly.from_coeffs(field, coeffs + [field.one])


@pytest.mark.parametrize("p,l,max_degree", [(2, 1, 6), (3, 1, 6), (2, 2, 4)])
def test_ben_or_agrees_with_rabin(p, l, max_degree):
    field = FiniteField(p, l)
    units = [field.from_rank(r) for r in range(2, field.size)]
    irreducible = 0
    for f in _monic_polys(field, max_degree):
        want = _rabin_is_irreducible(f)
        assert is_irreducible(f) == want, f
        irreducible += want
        # unit multiples: irreducibility ignores the leading coefficient
        if f.degree >= 1 and f.coeff(0) == field.one:
            for u in units:
                assert is_irreducible(f * u) == want, (f, u)
    # the counts of monic irreducibles, by Gauss's formula
    assert irreducible == {2: 2 + 1 + 2 + 3 + 6 + 9, 3: 3 + 3 + 8 + 18 + 48 + 116,
                           4: 4 + 6 + 20 + 60}[field.size]


def test_is_irreducible_needs_field_coefficients(z4):
    with pytest.raises(DomainError):
        is_irreducible(Poly.from_ints(z4, [1, 1, 1]))


@pytest.mark.parametrize(
    "p,l,degree,low",
    [
        (2, 1, 40, [[1], [0], [0], [1], [1], [1]]),
        (2, 2, 12, [[1, 0], [0, 1], [1, 0], [1, 0]]),
        (3, 1, 20, [[1], [2], [0], [1]]),
    ],
    ids=["GF(2)^40", "GF(4)^12", "GF(3)^20"],
)
def test_smallest_irreducible_is_pinned(p, l, degree, low):
    """The minimal-rank irreducibles that Rabin's test found stay the same:
    ``low`` holds the coordinates of the coefficients below the zero run
    that ends at the leading 1."""
    got = smallest_irreducible(FiniteField(p, l), degree)
    zero, one = [0] * l, [1] + [0] * (l - 1)
    assert [list(c.coords()) for c in got.coeffs] == low + [zero] * (degree - len(low)) + [one]


def test_ambient_length_is_bounded(z4):
    with pytest.raises(BudgetExceeded, match="modulus degree 65537"):
        parse_univariate("x^65537-1", z4)
    assert parse_univariate(f"x^{MAX_AMBIENT_LENGTH}-1", z4).degree == MAX_AMBIENT_LENGTH
    # each modulus is small, their product is not (and not square-free either)
    moduli = [parse_univariate(t, z4, var=i) for i, t in enumerate(["x^300-1", "y^300-1"])]
    with pytest.raises(BudgetExceeded, match="ambient length 90000"):
        Ambient(z4, moduli)


def test_from_polynomial_places_lanes_and_refuses_foreign_input(z4, gr42):
    """`Ambient.from_polynomial` reduces modulo its variable's modulus, as
    the `from_terms` route does, and raises for a polynomial over another
    ring or in a variable the ambient does not have."""
    amb = Ambient(z4, [parse_univariate("x^3-1", z4, var=0), parse_univariate("y^2+y+1", z4, var=1)])
    f = parse_univariate("3*y^5+2*y+1", z4, var=1)
    assert amb.from_polynomial(f) == amb.from_terms({(0, i): c for i, c in enumerate(f.coeffs)})
    for bad in (parse_univariate("x+1", gr42), Poly(z4, f.data, var=2), Poly(z4, f.data, var=-1)):
        with pytest.raises(DomainError):
            amb.from_polynomial(bad)
