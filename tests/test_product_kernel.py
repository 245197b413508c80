"""The shared convolve-and-fold kernel against the object loops it replaced.

`Poly.__mul__`, `Poly.__divmod__` and `ExtensionRing._mul` once ran
per-coefficient loops: `RingElem` loops for `Poly`, and a convolution plus a
fold table built with `Poly` pow and mod for extension rings.  Those loops
are kept here verbatim as references, and the payloads of the kernel's
results must equal theirs on seeded random inputs over every ring family,
a degree-1 extension and a tower ring.
"""

import random

import pytest

from chaincodes import Ambient, DomainError, Poly, decompose, ring_construct
from chaincodes.polys import parse_univariate
from chaincodes.rings import ExtensionRing, IntegerModRing


def _poly_mul_reference(self, other):
    other = self._coerce(other)
    if self.is_zero() or other.is_zero():
        return Poly.zero(self.ring, var=self.var)
    out = [self.ring.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
    for i, a in enumerate(self.coeffs):
        if a.is_zero():
            continue
        for j, b in enumerate(other.coeffs):
            out[i + j] = out[i + j] + a * b
    return Poly(self.ring, out, var=self.var)


def _poly_divmod_reference(self, other):
    other = self._coerce(other)
    if other.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    lead = other.leading
    if lead.valuation() != 0:
        raise DomainError("divisor leading coefficient is not a unit")
    inv = lead.ring.unit_inverse(lead)
    rem = list(self.coeffs)
    dq = len(self.coeffs) - len(other.coeffs)
    if dq < 0:
        return Poly.zero(self.ring, var=self.var), self
    quo = [self.ring.zero] * (dq + 1)
    for k in range(dq, -1, -1):
        c = rem[k + other.degree] * inv
        quo[k] = c
        if c.is_zero():
            continue
        for j, b in enumerate(other.coeffs):
            rem[k + j] = rem[k + j] - c * b
    return (
        Poly(self.ring, quo, var=self.var),
        Poly(self.ring, rem[: other.degree], var=self.var),
    )


class _FoldTableMul:
    """An extension ring's product by the fold table of Z^{m+k} mod the
    modulus; `_fold_table` and `_mul` are the replaced methods, verbatim."""

    def __init__(self, ring):
        self.base = ring.base
        self.deg = ring.deg
        self.modulus = ring.modulus
        self._fold = self._fold_table()

    def _fold_table(self):
        # Z^{m+k} reduced mod the modulus, k = 0..m-2, as base payload tuples
        m = self.deg
        table = []
        cur = Poly.x(self.base) ** m % self.modulus if m > 1 else None
        if m == 1:
            return table
        for _ in range(m - 1):
            table.append(tuple(cur.coeff(i).data for i in range(m)))
            cur = (cur * Poly.x(self.base)) % self.modulus
        return table

    def _mul(self, a, b):
        base = self.base
        m = self.deg
        conv = [base._zero] * (2 * m - 1)
        for i, x in enumerate(a):
            if x == base._zero:
                continue
            for j, y in enumerate(b):
                if y == base._zero:
                    continue
                conv[i + j] = base._add(conv[i + j], base._mul(x, y))
        out = conv[:m]
        for k in range(m - 1):
            c = conv[m + k]
            if c == base._zero:
                continue
            fold = self._fold[k]
            out = [base._add(o, base._mul(c, f)) for o, f in zip(out, fold)]
        return tuple(out)


def _galois(p, t, l=1):
    return ring_construct({"kind": "galois", "p": p, "t": t, "l": l})


def _truncated(p, t, l=1):
    return ring_construct({"kind": "truncated", "p": p, "t": t, "l": l})


def _degree_one():
    z4 = _galois(2, 2)
    return ExtensionRing(z4, Poly.from_ints(z4, [1, 1]))


def _tower():
    gr = _galois(2, 2, 2)
    amb = Ambient(gr, [parse_univariate("x^15-1", gr)])
    ring = max((cd.component_ring for cd in decompose(amb).data), key=lambda r: r.size)
    assert isinstance(ring, ExtensionRing) and isinstance(ring.base, ExtensionRing)
    return ring


RINGS = {
    "Z4": lambda: _galois(2, 2),
    "Z8": lambda: _galois(2, 3),
    "Z9": lambda: _galois(3, 2),
    "GF(4)": lambda: _galois(2, 1, 2),
    "GR(4,2)": lambda: _galois(2, 2, 2),
    "GR(4,3)": lambda: _galois(2, 2, 3),
    "F3[u]/u^2": lambda: _truncated(3, 2),
    "F4[u]/u^3": lambda: _truncated(2, 3, 2),
    "degree-1 extension": _degree_one,
    "tower": _tower,
}


@pytest.fixture(scope="module", params=sorted(RINGS))
def ring(request):
    return RINGS[request.param]()


def _elem(ring, rng, unit=False):
    while True:
        x = ring.from_rank(rng.randrange(ring.size))
        if not unit or x.valuation() == 0:
            return x


def _poly(ring, rng, degree, var=0, lead=None):
    """A random polynomial of exactly this degree (zero for degree -1)."""
    coeffs = [_elem(ring, rng) for _ in range(degree)]
    if degree >= 0:
        coeffs.append(lead if lead is not None else _elem(ring, rng, unit=True))
    return Poly(ring, coeffs, var=var)


def _data(f):
    return [c.data for c in f.coeffs]


def test_poly_mul_matches_reference(ring):
    rng = random.Random(11)
    for _ in range(40):
        f = _poly(ring, rng, rng.randrange(-1, 7), var=1)
        g = _poly(ring, rng, rng.randrange(-1, 7), var=1)
        got, want = f * g, _poly_mul_reference(f, g)
        assert _data(got) == _data(want)
        assert got.var == want.var == 1
    # zero divisors of the ring: products whose leading terms cancel
    if ring.t > 1:
        f = Poly(ring, [ring.one, ring.a])
        g = Poly(ring, [ring.one, ring.a ** (ring.t - 1)])
        assert _data(f * g) == _data(_poly_mul_reference(f, g))
        assert (f * g).degree < 2


def test_poly_divmod_matches_reference(ring):
    rng = random.Random(12)
    cases = []
    for _ in range(30):
        div = _poly(ring, rng, rng.randrange(0, 5), lead=ring.one)
        cases.append((_poly(ring, rng, rng.randrange(-1, 10)), div))
    # a non-monic divisor whose leading coefficient is a unit
    units = [x for x in (ring.from_rank(r) for r in range(min(ring.size, 64)))
             if x.valuation() == 0 and x != ring.one]
    for lead in units[:3]:
        for deg in (0, 1, 3):
            cases.append((_poly(ring, rng, 7), _poly(ring, rng, deg, lead=lead)))
    # a dividend shorter than the divisor, and a zero dividend
    cases.append((_poly(ring, rng, 2), _poly(ring, rng, 4)))
    cases.append((Poly.zero(ring), _poly(ring, rng, 3)))
    for f, g in cases:
        got, want = divmod(f, g), _poly_divmod_reference(f, g)
        assert [_data(x) for x in got] == [_data(x) for x in want]
        q, r = got
        assert q * g + r == f and r.degree < g.degree
    if ring.t > 1:
        with pytest.raises(DomainError):
            divmod(_poly(ring, rng, 4), Poly(ring, [ring.one, ring.a]))
    with pytest.raises(ZeroDivisionError):
        divmod(_poly(ring, rng, 3), Poly.zero(ring))


def _extensions(ring):
    """The ExtensionRing layers in this ring: itself, its bases, its field."""
    out = []
    cur = getattr(ring, "field", ring)
    while isinstance(cur, ExtensionRing):
        out.append(cur)
        cur = cur.base
    return out


def test_extension_mul_matches_fold_table(ring):
    rng = random.Random(13)
    layers = _extensions(ring)
    if not layers:
        assert isinstance(ring, IntegerModRing) or isinstance(ring.field, IntegerModRing)
        return
    for ext in layers:
        ref = _FoldTableMul(ext)
        elems = [ext._zero, ext._one] + [ext._from_rank(rng.randrange(ext.size)) for _ in range(60)]
        for a in elems[:20]:
            for b in elems:
                assert ext._mul(a, b) == ref._mul(a, b)


def test_residue_field_is_built_once(ring):
    assert ring.residue_field is ring.residue_field
    assert ring.residue_field.t == 1 and ring.residue_field.q == ring.q


def test_mixing_coefficient_rings_is_a_domain_error():
    z4, z9 = _galois(2, 2), _galois(3, 2)
    f, g = Poly.from_ints(z4, [1, 1]), Poly.from_ints(z9, [1, 1])
    for op in (lambda: f + g, lambda: f * g, lambda: divmod(f, g)):
        with pytest.raises(DomainError):
            op()
    assert f * Poly.from_ints(_galois(2, 2), [1, 1]) == Poly.from_ints(z4, [1, 2, 1])
