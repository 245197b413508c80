"""Hensel lifting of factorizations and idempotents."""

import pytest

from chaincodes import (
    DomainError,
    ExtensionRing,
    InternalError,
    Poly,
    factor_squarefree,
    lift_factorization,
    lift_idempotent,
    ring_construct,
)


def test_lift_x7_minus_1(z4):
    f = Poly.from_ints(z4, [-1, 0, 0, 0, 0, 0, 0, 1])
    residue_factors = factor_squarefree(f.residue(), seed=0)
    lifted = lift_factorization(f, residue_factors)
    assert [[c.data for c in g.coeffs] for g in lifted.factors] == [
        [3, 1],
        [3, 1, 2, 1],
        [3, 2, 3, 1],
    ]
    prod = Poly.one(z4)
    for g in lifted.factors:
        prod = prod * g
    assert prod == f
    for g, gbar in zip(lifted.factors, residue_factors):
        assert g.residue() == gbar


def test_lift_unique_up_to_permutation(z4):
    f = Poly.from_ints(z4, [-1, 0, 0, 0, 0, 0, 0, 1])
    rf = factor_squarefree(f.residue(), seed=0)
    base = {tuple(c.data for c in g.coeffs) for g in lift_factorization(f, rf).factors}
    permuted = lift_factorization(f, [rf[2], rf[0], rf[1]])
    assert {tuple(c.data for c in g.coeffs) for g in permuted.factors} == base


def test_lift_over_gr42(gr42):
    f = Poly.from_ints(gr42, [1, 1, 1])  # Y^2+Y+1
    rf = factor_squarefree(f.residue(), seed=0)
    lifted = lift_factorization(f, rf)
    coeffsets = {tuple(tuple(c.coords()) for c in g.coeffs) for g in lifted.factors}
    # (Y - w)(Y - (3w+3)) with w the Teichmuller generator: {Y+3w, Y+w+1}
    assert coeffsets == {((0, 3), (1, 0)), ((1, 1), (1, 0))}
    assert lifted.factors[0] * lifted.factors[1] == f


def test_lift_single_factor(z4):
    f = Poly.from_ints(z4, [-1, 0, 0, 0, 0, 0, 0, 1])
    lifted = lift_factorization(f, [f.residue()])
    assert lifted.factors == (f,)


def test_lift_over_extension_tower(z4):
    # lifting over S = Z4[X]/(X^2+X+1), as needed by the z/sigma liftings
    ext = ExtensionRing(z4, Poly.from_ints(z4, [1, 1, 1]))
    f = Poly.from_ints(ext, [1, 1, 1])
    rf = factor_squarefree(f.residue(), seed=0)
    lifted = lift_factorization(f, rf)
    assert lifted.factors[0] * lifted.factors[1] == f
    assert all(g.residue() == gbar for g, gbar in zip(lifted.factors, rf))


def test_lift_errors(z4):
    f = Poly.from_ints(z4, [-1, 0, 0, 0, 0, 0, 0, 1])
    rf = factor_squarefree(f.residue(), seed=0)
    with pytest.raises(DomainError):
        lift_factorization(f, rf[:2])  # product mismatch
    g = Poly.from_ints(z4, [1, 0, 0, 1])  # residue (x+1)(x^2+x+1)
    with pytest.raises(DomainError):
        lift_factorization(
            g, [Poly.from_ints(z4.residue_field, [1, 1])] * 3
        )  # not coprime


def test_lift_truncated_family(f3u2):
    f = Poly.from_ints(f3u2, [-1, 0, 0, 0, 1])  # x^4 - 1 over F_3[u]/u^2
    rf = factor_squarefree(f.residue(), seed=0)
    assert len(rf) == 3  # (x-1)(x+1)(x^2+1)
    lifted = lift_factorization(f, rf)
    prod = Poly.one(f3u2)
    for g in lifted.factors:
        prod = prod * g
    assert prod == f


def test_lift_idempotent_x7(z4, amb_x7):
    abar = amb_x7.residue_ambient
    ebar = abar.parse("x+x^2+x^4")
    assert ebar * ebar == ebar
    lifted = lift_idempotent(ebar.lift_to(amb_x7))
    assert lifted * lifted == lifted
    assert lifted.residue() == ebar
    # t = 2: a single cubic iteration already fixes it, and relifting is stable
    assert lift_idempotent(lifted) == lifted


def test_lift_idempotent_trivial(amb_x7):
    assert lift_idempotent(amb_x7.one()) == amb_x7.one()
    assert lift_idempotent(amb_x7.zero()) == amb_x7.zero()


def test_lift_idempotent_rejects_non_idempotent(amb_x7):
    with pytest.raises(DomainError):
        lift_idempotent(amb_x7.monomial((1,)))


def test_lift_idempotent_high_nilpotency():
    z8 = ring_construct({"kind": "galois", "p": 2, "t": 3, "l": 1})
    from chaincodes import Ambient

    amb = Ambient(z8, [Poly.from_ints(z8, [-1, 0, 0, 0, 0, 0, 0, 1])])
    ebar = amb.residue_ambient.parse("x+x^2+x^4")
    lifted = lift_idempotent(ebar.lift_to(amb))
    assert lifted * lifted == lifted
    assert lifted.residue() == ebar


def test_shift_down_divides_once(monkeypatch):
    """Step k of the lift shifts its whole defect f - prod down by a^k with
    one `_lane_shift(lanes, -k)` call on the defect's lanes.  Over Z_{2^t}
    the factors that enter step k are the final lifts mod 2^k: each step
    adds one binary digit."""
    for t in (2, 5, 300):
        ring = ring_construct({"kind": "galois", "p": 2, "t": t, "l": 1})
        f = Poly.from_ints(ring, [-1, 0, 0, 0, 0, 0, 0, 1])
        rf = factor_squarefree(f.residue(), seed=0)
        final = lift_factorization(f, rf).factors
        want = []
        for k in range(1, t):
            prod = Poly.one(ring)
            for g in final:
                prod = prod * Poly.from_ints(ring, [c % 2**k for c in g.data])
            defect = f - prod
            if defect.is_zero():
                break
            want.append((tuple(ring._lanes(defect.data)), -k))
        real = ring._lane_shift
        calls = []

        def counted(lanes, k):
            if k < 0:
                calls.append((tuple(lanes), k))
            return real(lanes, k)

        monkeypatch.setattr(ring, "_lane_shift", counted)
        assert lift_factorization(f, rf).factors == final
        assert calls == want and len({k for _, k in want}) == t - 1


@pytest.mark.parametrize(
    "desc, text",
    [
        ({"kind": "galois", "p": 2, "t": 300, "l": 1}, "x^7-1"),
        ({"kind": "galois", "p": 2, "t": 2, "l": 2}, "x^15-1"),
        ({"kind": "truncated", "p": 3, "t": 2, "l": 1}, "x^13-1"),
    ],
    ids=["Z_2^300", "GR(4,2)", "F3[u]/u^2"],
)
def test_lift_steps_map_whole_lane_vectors(desc, text, monkeypatch):
    """The lift reads its defects and corrections through the `Poly` lane
    views alone: no element-level lift, residue or division by a^k."""
    from chaincodes.polys import parse_univariate

    ring = ring_construct(desc)
    f = parse_univariate(text, ring)
    rf = factor_squarefree(f.residue(), seed=0)
    want = lift_factorization(f, rf).factors

    def forbidden(*args):
        raise AssertionError("an element-level lane map was called")

    for name in ("_lift", "_residue", "_div_a"):
        monkeypatch.setattr(ring, name, forbidden)
    assert lift_factorization(f, rf).factors == want and len(want) == len(rf) > 1


def _shift_down(ring, c, k):
    """Divide by a^k, assuming valuation(c) >= k."""
    if c.valuation() < k:
        raise InternalError("defect has unexpectedly small valuation")  # pragma: no cover
    return ring.elem(ring._div_a(c.data, k))


def _lift_factorization_reference(f, residue_factors):
    """The replaced `lift_factorization`, verbatim: a pairwise gcd check and
    each Bezout cofactor from the product of the other N - 1 factors."""
    from chaincodes.hensel import LiftedFactorization
    from chaincodes.polys import poly_ext_gcd, poly_gcd

    ring = f.ring
    field = ring.residue_field
    if not f.is_monic():
        raise DomainError("only monic polynomials can be lifted")
    residue_factors = list(residue_factors)
    for g in residue_factors:
        if not g.is_monic():
            raise DomainError("residue factors must be monic")
    fbar = f.residue() if ring.t > 1 else f
    prod = Poly.one(field, var=f.var)
    for g in residue_factors:
        prod = prod * g
    if prod != fbar:
        raise DomainError("residue factors do not multiply to the residue of f")
    for i in range(len(residue_factors)):
        for j in range(i + 1, len(residue_factors)):
            if poly_gcd(residue_factors[i], residue_factors[j]).degree != 0:
                raise DomainError("residue factors are not pairwise coprime")

    if len(residue_factors) <= 1 or ring.t == 1:
        if len(residue_factors) == 1 and ring.t == 1:
            factors = (residue_factors[0],)
        elif len(residue_factors) == 1:
            factors = (f,)
        else:
            factors = tuple(residue_factors)
        return LiftedFactorization(f, factors, tuple(residue_factors))

    betas = []
    for i, g in enumerate(residue_factors):
        h = Poly.one(field, var=f.var)
        for j, other in enumerate(residue_factors):
            if j != i:
                h = h * other
        d, _, beta = poly_ext_gcd(g, h)
        assert d.degree == 0
        betas.append(beta % g)

    lift_poly = lambda g: g.map_coeffs(ring.lift, ring)
    factors = [lift_poly(g) for g in residue_factors]
    for step in range(1, ring.t):
        prod = Poly.one(ring, var=f.var)
        for g in factors:
            prod = prod * g
        defect = f - prod
        if defect.is_zero():
            break
        scaled = defect.map_coeffs(lambda c: _shift_down(ring, c, step), ring)
        dbar = scaled.residue()
        a_pow = ring.a**step
        for i, g in enumerate(residue_factors):
            delta = (dbar * betas[i]) % g
            if delta.is_zero():
                continue
            factors[i] = factors[i] + lift_poly(delta).map_coeffs(lambda c: c * a_pow, ring)
    return LiftedFactorization(f, tuple(factors), tuple(residue_factors))


# every modulus of the benchmark's structure and census ambients
LIFT_CASES = [
    ({"kind": "galois", "p": 2, "t": 2, "l": 1}, ["x^15-1", "x^31-1", "x^45-1", "x^3-1", "x^3+x+1", "y^2+y+1"]),
    ({"kind": "galois", "p": 2, "t": 2, "l": 2}, ["x^15-1"]),
    ({"kind": "galois", "p": 2, "t": 3, "l": 1}, ["x^15-1"]),
    ({"kind": "truncated", "p": 3, "t": 2, "l": 1}, ["x^13-1"]),
    ({"kind": "galois", "p": 2, "t": 1, "l": 2}, ["x^21-1"]),
    ({"kind": "galois", "p": 3, "t": 2, "l": 1}, ["x^4-1", "y^4-1", "x^8-1"]),
    # and long lifts, over both kinds of radical generator
    ({"kind": "galois", "p": 2, "t": 300, "l": 1}, ["x^7-1"]),
    ({"kind": "galois", "p": 3, "t": 50, "l": 1}, ["x^10-1"]),
    ({"kind": "truncated", "p": 3, "t": 12, "l": 2}, ["x^8-1"]),
]


@pytest.mark.parametrize(
    "desc, moduli", LIFT_CASES, ids=["Z4", "GR(4,2)", "Z8", "F3[u]/u^2", "GF(4)", "Z9", "Z_2^300", "Z_3^50", "F9[u]/u^12"]
)
def test_lift_factorization_matches_pairwise_reference(desc, moduli):
    from chaincodes.polys import parse_univariate

    ring = ring_construct(desc)
    for text in moduli:
        var = 1 if text.startswith("y") else 0
        f = parse_univariate(text, ring, var=var)
        fbar = f.residue() if ring.t > 1 else f
        for seed in range(4):
            rf = factor_squarefree(fbar, seed=seed)
            got, want = lift_factorization(f, rf), _lift_factorization_reference(f, rf)
            assert [(g.var, [c.data for c in g.coeffs]) for g in got.factors] == [
                (g.var, [c.data for c in g.coeffs]) for g in want.factors
            ]
            assert got.residue_factors == want.residue_factors


@pytest.mark.parametrize(
    "desc", [{"kind": "galois", "p": 2, "t": 2, "l": 1}, {"kind": "galois", "p": 2, "t": 1, "l": 1}], ids=["Z4", "GF(2)"]
)
def test_lift_rejects_a_repeated_factor(desc):
    """(x+1)^2 = (x+1)(x+1) multiplies back but is not coprime, for t = 2
    and for t = 1, where nothing is lifted."""
    ring = ring_construct(desc)
    f = Poly.from_ints(ring, [1, 2, 1])
    x1 = Poly.from_ints(ring.residue_field, [1, 1])
    with pytest.raises(DomainError, match="not pairwise coprime"):
        lift_factorization(f, [x1, x1])


def test_lift_takes_no_pairwise_gcd(monkeypatch):
    from chaincodes import hensel, polys

    cases = []
    for desc in ({"kind": "galois", "p": 2, "t": 2, "l": 1}, {"kind": "galois", "p": 2, "t": 2, "l": 2},
                 {"kind": "galois", "p": 2, "t": 1, "l": 1}):
        ring = ring_construct(desc)
        f = Poly.from_ints(ring, [-1] + [0] * 14 + [1])
        cases.append((f, factor_squarefree(f.residue() if ring.t > 1 else f, seed=0)))

    def forbidden(*args):
        raise AssertionError("poly_gcd called")

    monkeypatch.setattr(polys, "poly_gcd", forbidden)
    monkeypatch.setattr(hensel, "poly_gcd", forbidden, raising=False)
    for f, rf in cases:
        lifted = lift_factorization(f, rf)
        prod = Poly.one(f.ring)
        for g in lifted.factors:
            prod = prod * g
        assert prod == f and len(lifted.factors) == len(rf) > 1
