"""Hensel lifting of factorizations and idempotents."""

import pytest

from chaincodes import (
    DomainError,
    ExtensionRing,
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
    from chaincodes import hensel

    ring = ring_construct({"kind": "galois", "p": 2, "t": 300, "l": 1})
    real = ring._div_a
    calls = []

    def counted(a, k):
        calls.append(k)
        return real(a, k)

    monkeypatch.setattr(ring, "_div_a", counted)
    assert hensel._shift_down(ring, ring.from_int(3 * 2**250), 250) == ring.from_int(3)
    assert calls == [250]
