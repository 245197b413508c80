"""The one square-and-multiply helper behind every `**` and `pow_mod`.

The previous right-to-left loop, which multiplied by one first and squared
once past the last bit, is kept verbatim as the reference for large powers.
"""

import random

import pytest

from chaincodes import Ambient, DomainError, Poly, polys, ring_construct
from chaincodes.polys import MPoly, parse_univariate, pow_mod, power

Z4 = {"kind": "galois", "p": 2, "t": 2, "l": 1}
GR42 = {"kind": "galois", "p": 2, "t": 2, "l": 2}
LARGE = 10**6 + 3


def _pow_reference(x, e, one):
    result = one
    base = x
    while e:
        if e & 1:
            result = result * base
        base = base * base
        e >>= 1
    return result


def _pow_mod_reference(f, e, mod):
    result = Poly.one(f.ring, var=f.var)
    base = f % mod
    while e:
        if e & 1:
            result = (result * base) % mod
        base = (base * base) % mod
        e >>= 1
    return result


def _repeated(x, e, one, mul=lambda a, b: a * b):
    out = one
    for _ in range(e):
        out = mul(out, x)
    return out


def _cases():
    rng = random.Random(3)
    gr = ring_construct(GR42)
    z4 = ring_construct(Z4)
    unit = gr.from_coords([3, 1])
    f = Poly.from_coeffs(z4, [z4.from_int(rng.randrange(4)) for _ in range(5)] + [z4.one])
    amb = Ambient(gr, [parse_univariate("x^5-1", gr)])
    h = amb.from_vector([gr.from_rank(rng.randrange(gr.size)) for _ in range(amb.n)])
    return unit, f, h


def test_ring_element_power():
    x, _, _ = _cases()
    for e in range(10):
        assert x**e == _repeated(x, e, x.ring.one)
    assert x**LARGE == _pow_reference(x, LARGE, x.ring.one)
    inv = x.ring.unit_inverse(x)
    assert x**-3 == inv * inv * inv


def test_poly_power():
    _, f, _ = _cases()
    one = Poly.one(f.ring)
    for e in range(10):
        assert f**e == _repeated(f, e, one)
    assert f**37 == _pow_reference(f, 37, one)
    with pytest.raises(DomainError, match="negative polynomial power"):
        f**-1


def test_mpoly_power():
    _, _, h = _cases()
    one = h.ambient.one()
    for e in range(10):
        assert h**e == _repeated(h, e, one)
    assert h**LARGE == _pow_reference(h, LARGE, one)
    with pytest.raises(DomainError, match="negative power in quotient algebra"):
        h**-1


def test_pow_mod():
    _, f, _ = _cases()
    z4 = f.ring
    mod = Poly.from_ints(z4, [1, 1, 0, 1])
    one = Poly.one(z4)
    for e in range(10):
        assert pow_mod(f, e, mod) == _repeated(f % mod, e, one, lambda a, b: (a * b) % mod)
    assert pow_mod(f, LARGE, mod) == _pow_mod_reference(f, LARGE, mod)
    with pytest.raises(DomainError):
        pow_mod(f, -1, mod)


def test_products_are_the_binary_minimum(monkeypatch):
    """bitlen(e) - 1 squarings and popcount(e) - 1 other products."""
    _, f, h = _cases()
    calls = []
    real = MPoly.__mul__

    def counted(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(MPoly, "__mul__", counted)
    for e in (1, 2, 3, 8, 13, LARGE):
        calls.clear()
        h**e
        assert len(calls) == e.bit_length() - 1 + bin(e).count("1") - 1
    calls.clear()
    h**0
    assert calls == []

    # pow_mod reduces f once and then multiplies packed lane vectors only
    mod = Poly.from_ints(f.ring, [1, 1, 0, 1])
    products, reductions, packed = [], [], []
    real_mul, real_divmod, real_packed = Poly.__mul__, Poly.__divmod__, polys.packed_product
    monkeypatch.setattr(Poly, "__mul__", lambda a, b: products.append(1) or real_mul(a, b))
    monkeypatch.setattr(Poly, "__divmod__", lambda a, b: reductions.append(1) or real_divmod(a, b))
    monkeypatch.setattr(polys, "packed_product", lambda *a: packed.append(1) or real_packed(*a))
    for e in (1, 2, 3, 8, 13, LARGE):
        for counts in (products, reductions, packed):
            counts.clear()
        pow_mod(f, e, mod)
        assert (len(products), len(reductions)) == (0, 1)
        assert len(packed) == e.bit_length() - 1 + bin(e).count("1") - 1


def test_power_helper_returns_one_only_for_zero():
    sentinel = object()
    assert power(5, 0, sentinel) is sentinel
    assert power(3, 5, 1) == 243
    with pytest.raises(DomainError):
        power(3, -1, 1)
