"""The product kernels against the code they replaced.

`Poly.__mul__`, `Poly.__divmod__` and `ExtensionRing._mul` once ran
per-coefficient loops: `RingElem` loops for `Poly`, and a convolution plus a
fold table built with `Poly` pow and mod for extension rings.  Later the
payloads of extension and truncated rings were nested tuples, one per tower
level: `convolve_fold` and `divide_monic` ran `Poly` products and division
over them by one ring call per coefficient product, an extension's element
product was its base ring's convolution folded by the modulus, and
`TruncatedRing._mul` had its own row loop, stopped at u^t.  `pow_mod` once
took a `Poly` product and a `Poly` division per step.  `MPoly.__mul__` once
ran `convolve_fold` on coefficient payloads in the box of the old
`product_box(moduli)`, and every other `MPoly` operation ran one `RingElem`
operation per coefficient.  `packed_product` once folded every layout
position by position; that pass is still the general path, and the
whole-int shift steps of cyclic layouts must agree with it.  Those are
kept here as references, and the payloads of today's results must equal
theirs on seeded random inputs over every ring family, degree-1
extensions and tower rings.
"""

import random
from array import array

import pytest

from chaincodes import Ambient, DomainError, MPoly, Poly, decompose, kernel, polys, rings, ring_construct
from chaincodes.decompose import _poly_over_tower_to_mpoly
from chaincodes.kernel import LaneBox, packed_product
from chaincodes.polys import parse_univariate
from chaincodes.rings import ChainRing, ExtensionRing, IntegerModRing, LaneRing, RingElem, TruncatedRing, default_modulus


def convolve_fold(a, b, size, folds, ring):
    """The product box of two (position, payload) sequences over ``ring``:
    one convolution, then the top-down `folds` of `product_box`."""
    add, mul, z = ring._add, ring._mul, ring._zero
    box = [z] * size
    rhs = [(pb, y) for pb, y in b if y != z]
    for pa, x in a:
        if x != z:
            for pb, y in rhs:
                box[pa + pb] = add(box[pa + pb], mul(x, y))
    for pos, rule in folds:
        c = box[pos]
        if c != z:
            for off, f in rule:
                box[pos + off] = add(box[pos + off], mul(c, f))
    return box


def divide_monic(rem, div, ring):
    """Long division in place of the payload list ``rem`` by X^d - (div[0] +
    div[1] X + ... + div[d-1] X^(d-1)), d = len(div) >= 0: step k, from the
    top down to d, leaves the quotient coefficient of X^(k-d) at rem[k],
    which no later step touches, and rem[:d] ends as the remainder."""
    add, mul, z = ring._add, ring._mul, ring._zero
    d = len(div)
    for k in range(len(rem) - 1, d - 1, -1):
        c = rem[k]
        if c != z:
            for j, b in enumerate(div, k - d):
                rem[j] = add(rem[j], mul(c, b))
    return rem


class _NestedExt:
    """The replaced `ExtensionRing` payload operations on nested payloads,
    tuples of base payloads, verbatim: `_mul` is the base's `convolve_fold`
    folded by the modulus, whose coefficients ``modulus`` are nested too."""

    def __init__(self, base, modulus):
        m = len(modulus) - 1
        self.base = base
        self.deg = m
        self._zero = (base._zero,) * m
        rule = tuple((j, 0, base._neg(c)) for j, c in enumerate(modulus[:m]) if c != base._zero)
        _, self._box_size, self._folds = kernel.product_box(((m, rule),))

    def _add(self, a, b):
        return tuple(map(self.base._add, a, b))

    def _neg(self, a):
        return tuple(map(self.base._neg, a))

    def _mul(self, a, b):
        return tuple(convolve_fold(enumerate(a), enumerate(b), self._box_size, self._folds, self.base)[: self.deg])

    def _val(self, a):
        return min(self.base._val(x) for x in a)

    def _residue(self, a):
        return tuple(self.base._residue(x) for x in a)

    def _lift(self, a):
        return tuple(self.base._lift(x) for x in a)

    def _div_a(self, a, k):
        return tuple(self.base._div_a(x, k) for x in a)


class _NestedTrunc:
    """The replaced `TruncatedRing` payload operations on nested payloads,
    tuples of field payloads per power of u, verbatim."""

    def __init__(self, field, t):
        self.field = field
        self.t = t
        self._zero = (field._zero,) * t

    def _add(self, a, b):
        return tuple(map(self.field._add, a, b))

    def _neg(self, a):
        return tuple(map(self.field._neg, a))

    def _mul(self, a, b):
        # only the t(t+1)/2 products below u^t: row i meets b's first t - i coordinates
        field = self.field
        add, mul, z = field._add, field._mul, field._zero
        out = [z] * self.t
        for i, x in enumerate(a):
            if x != z:
                for j, y in enumerate(b[: self.t - i], i):
                    if y != z:
                        out[j] = add(out[j], mul(x, y))
        return tuple(out)

    def _val(self, a):
        for i, x in enumerate(a):
            if x != self.field._zero:
                return i
        return self.t

    def _residue(self, a):
        return a[0]

    def _lift(self, a):
        return (a,) + (self.field._zero,) * (self.t - 1)

    def _div_a(self, a, k):
        return a[k:] + (self.field._zero,) * k


def _inner(ring):
    return ring.base if isinstance(ring, ExtensionRing) else ring.field


def _nested(ring):
    """The nested-payload form of a ring: Z_m itself, else `_NestedExt` or
    `_NestedTrunc` over the nested form of its base or field."""
    if isinstance(ring, IntegerModRing):
        return ring
    if isinstance(ring, ExtensionRing):
        return _NestedExt(_nested(ring.base), [_nest(ring.base, c) for c in ring.modulus.data])
    return _NestedTrunc(_nested(ring.field), ring.t)


def _nest(ring, a):
    """A payload of ring as the nested payload of `_nested(ring)`."""
    if isinstance(ring, IntegerModRing):
        return a
    return tuple(_nest(_inner(ring), x) for x in _inner(ring)._from_lanes(a))


def _flat(ring, x):
    """Inverse of `_nest`: the lanes of a nested payload."""
    if isinstance(ring, IntegerModRing):
        return x
    return tuple(_inner(ring)._lanes([_flat(_inner(ring), c) for c in x]))


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
    return Poly.from_coeffs(self.ring, out, var=self.var)


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
        Poly.from_coeffs(self.ring, quo, var=self.var),
        Poly.from_coeffs(self.ring, rem[: other.degree], var=self.var),
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
    # payloads whose product sums pass 64 bits before their one reduction
    "Z_2^70": lambda: _galois(2, 70),
    "GR(3^40,2)": lambda: _galois(3, 40, 2),
    "GF(2^31-1)": lambda: _galois(2**31 - 1, 1),
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
    return Poly.from_coeffs(ring, coeffs, var=var)


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
        f = Poly.from_coeffs(ring, [ring.one, ring.a])
        g = Poly.from_coeffs(ring, [ring.one, ring.a ** (ring.t - 1)])
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
            divmod(_poly(ring, rng, 4), Poly.from_coeffs(ring, [ring.one, ring.a]))
    with pytest.raises(ZeroDivisionError):
        divmod(_poly(ring, rng, 3), Poly.zero(ring))


def _padded(f, n):
    return list(f.coeffs) + [f.ring.zero] * (n - len(f.coeffs))


def _poly_add_reference(self, other):
    other = self._coerce(other)
    n = max(len(self.coeffs), len(other.coeffs))
    return Poly.from_coeffs(self.ring, [a + b for a, b in zip(_padded(self, n), _padded(other, n))], var=self.var)


def _poly_neg_reference(self):
    return Poly.from_coeffs(self.ring, [-c for c in self.coeffs], var=self.var)


def _poly_derivative_reference(self):
    return Poly.from_coeffs(
        self.ring,
        [self.coeffs[i] * self.ring.from_int(i) for i in range(1, len(self.coeffs))],
        var=self.var,
    )


def _poly_monic_reference(self):
    if self.is_zero() or self.is_monic():
        return self
    inv = self.ring.unit_inverse(self.leading)
    return Poly.from_coeffs(self.ring, [c * inv for c in self.coeffs], var=self.var)


def _poly_residue_reference(self):
    return Poly.from_coeffs(self.ring.residue_field, [c.residue() for c in self.coeffs], var=self.var)


def _rank_key_reference(self):
    return (self.degree, tuple(tuple(c.coords()) for c in reversed(self.coeffs)))


def test_poly_ops_match_per_coefficient_reference(ring):
    """Sums, differences, negation, monic, derivative, residue and rank_key
    on payloads against the `RingElem` forms they replaced: results, their
    variable and the trailing-zero normal form, cancelling leads included."""
    rng = random.Random(15)
    operands = [Poly.zero(ring, var=1)] + [_poly(ring, rng, d, var=1) for d in (0, 1, 3, 6, 6)]
    operands.append(-operands[-1] + _poly(ring, rng, 2, var=1))  # cancels down to degree 2
    c = _elem(ring, rng)
    for f in operands:
        assert (-f).data == _poly_neg_reference(f).data and (-f).var == 1
        assert f.derivative().data == _poly_derivative_reference(f).data
        assert f.monic().data == _poly_monic_reference(f).data
        assert f.monic().is_zero() or f.monic().leading == ring.one
        res = f.residue()
        assert res.ring is ring.residue_field and res.var == 1
        assert res.data == _poly_residue_reference(f).data
        assert f.rank_key() == _rank_key_reference(f)
        for other in (c, 3, -1):
            assert (f + other).data == _poly_add_reference(f, other).data == (other + f).data
        for g in operands:
            assert (f + g).data == _poly_add_reference(f, g).data and (f + g).var == 1
            assert (f - g).data == _poly_add_reference(f, _poly_neg_reference(g)).data
            assert all(x != ring._zero for x in (f + g).data[-1:])
        assert (f - f).is_zero() and (f - f).data == ()
    if ring.t > 1:
        with pytest.raises(DomainError):
            Poly.from_coeffs(ring, [ring.one, ring.a]).monic()


def test_poly_ops_build_no_ring_element(ring, monkeypatch):
    """+ - * divmod == hash monic derivative residue valuation times_a
    lift_to rank_key pow_mod and poly_gcd run on payloads alone: no
    `RingElem` is built."""
    rng = random.Random(16)
    unit = _elem(ring, rng, unit=True)
    f, g = _poly(ring, rng, 6), _poly(ring, rng, 3, lead=unit)
    mod = _poly(ring, rng, 4, lead=ring.one)
    field = ring.residue_field
    u = _poly(field, rng, 6) * _poly(field, rng, 2)
    v = _poly(field, rng, 4, lead=_elem(field, rng, unit=True)) * _poly(field, rng, 2)
    ops = {
        "+": lambda: f + g + 1,
        "-": lambda: (f - g, 2 - f, -f),
        "*": lambda: (f * g, 3 * f),
        "divmod": lambda: divmod(f, g),
        "==": lambda: (f == g, f == f * 1, f == unit),
        "hash": lambda: hash(f),
        "monic": lambda: g.monic(),
        "derivative": lambda: f.derivative(),
        "residue": lambda: f.residue(),
        "valuation": lambda: f.valuation(),
        "times_a": lambda: (f.times_a(ring.t - 1), f.times_a(ring.t - 1).times_a(1 - ring.t)),
        "lift_to": lambda: u.lift_to(ring),
        "rank_key": lambda: f.rank_key(),
        "pow_mod": lambda: polys.pow_mod(f, ring.q + 3, mod),
        "poly_gcd": lambda: polys.poly_gcd(u, v),
    }
    want = {name: op() for name, op in ops.items()}

    def forbidden(*args):
        raise AssertionError("a RingElem was built")

    monkeypatch.setattr(ChainRing, "elem", forbidden)
    monkeypatch.setattr(RingElem, "__init__", forbidden)
    for name, op in ops.items():
        assert op() == want[name], name


def test_poly_lane_views_match_per_coefficient_reference(ring):
    """`Poly.valuation`, `times_a`, `residue` and `lift_to`, and the lane
    sums, negation and derivative, against one `RingElem` operation per
    coefficient: the least valuation (t for zero), c * a^k and the exact
    quotient by a^k, c.residue(), ring.lift(c), c + d, -c and c * i, with
    degrees past the lane modulus so that i * c can vanish."""
    rng = random.Random(17)
    field = ring.residue_field
    degrees = (0, 1, 4, ring.lane_modulus + 3) if ring.lane_modulus < 20 else (0, 1, 4, 9)
    operands = [Poly.zero(ring, var=1)] + [_poly(ring, rng, d, var=1) for d in degrees]
    shifts = sorted({0, 1, 2, ring.t - 1, ring.t, ring.t + 1})
    operands += [f.times_a(k) for f in operands[2:] for k in shifts[1:-1]]
    for f in operands:
        assert f.valuation() == min([c.valuation() for c in f.coeffs], default=ring.t)
        for k in shifts:
            g = f.times_a(k)
            assert g.var == 1 and g.data == Poly.from_coeffs(ring, [c * ring.a**k for c in f.coeffs]).data
            if k <= f.valuation():
                want = Poly.from_coeffs(ring, [ring.divide_by_a(c, k) for c in f.coeffs])
                assert f.times_a(-k).data == want.data and f.times_a(-k).times_a(k) == f
        res = f.residue()
        assert res.ring is field and res.var == 1
        assert res.data == Poly.from_coeffs(field, [c.residue() for c in f.coeffs]).data
        lifted = res.lift_to(ring)
        assert lifted.var == 1 and lifted.data == Poly.from_coeffs(ring, [ring.lift(c) for c in res.coeffs]).data
        assert lifted.residue() == res
        assert (-f).data == Poly.from_coeffs(ring, [-c for c in f.coeffs]).data
        want = Poly.from_coeffs(ring, [c * i for i, c in enumerate(f.coeffs)][1:], var=1)
        assert f.derivative().data == want.data and f.derivative().var == 1
        for g in operands:
            n = max(len(f.data), len(g.data))
            want = [a + b for a, b in zip(_padded(f, n), _padded(g, n))]
            assert (f + g).data == Poly.from_coeffs(ring, want).data
            want = [a - b for a, b in zip(_padded(f, n), _padded(g, n))]
            assert (f - g).data == Poly.from_coeffs(ring, want).data
    if field is not ring:
        with pytest.raises(DomainError):
            operands[-1].lift_to(ring)


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
        ref, base = _FoldTableMul(ext), ext.base
        elems = [ext._zero, ext._one] + [ext._from_rank(rng.randrange(ext.size)) for _ in range(60)]
        for a in elems[:20]:
            for b in elems:
                want = ref._mul(tuple(base._from_lanes(a)), tuple(base._from_lanes(b)))
                assert ext._mul(a, b) == tuple(base._lanes(want))


def _truncated_mul_reference(self, a, b):
    """The replaced `TruncatedRing._mul`, verbatim."""
    field = self.field
    out = [field._zero] * self.t
    for i, x in enumerate(a):
        if x == field._zero:
            continue
        for j, y in enumerate(b):
            if i + j >= self.t:
                break
            out[i + j] = field._add(out[i + j], field._mul(x, y))
    return tuple(out)


@pytest.mark.parametrize("p, t, l", [(3, 2, 1), (2, 3, 1), (2, 2, 2)])
def test_truncated_mul_matches_row_loop(p, t, l):
    """F_3[u]/u^2, F_2[u]/u^3 and GF(4)[u]/u^2, on every pair of elements."""
    ring = _truncated(p, t, l)
    field = ring.field
    elems = [ring._from_rank(r) for r in range(ring.size)]
    for a in elems:
        for b in elems:
            want = _truncated_mul_reference(ring, field._from_lanes(a), field._from_lanes(b))
            assert ring._mul(a, b) == tuple(field._lanes(want))


class _CountedLane(int):
    """A lane that counts the products it takes part in."""

    products = 0

    def __mul__(self, other):
        _CountedLane.products += 1
        return int(self) * int(other)

    __rmul__ = __mul__


def test_truncated_mul_forms_only_products_below_u_t():
    """Dense elements of F_3[u]/u^3 take t(t+1)/2 = 6 lane products, not
    t^2 = 9: the `kernel.LaneBox` loop never forms the products that would
    land at u^3 or above.  Over GF(4)[u]/u^2, two lanes per u-level, that
    is 12 of 16, and a `Poly` product cuts the same way per coefficient pair."""
    for ring, a, b, formed in (
        (_truncated(3, 3), (1, 2, 1), (2, 2, 1), 6),
        (_truncated(2, 2, 2), (1, 1, 1, 1), (1, 1, 1, 1), 12),
    ):
        field = ring.field
        want = _truncated_mul_reference(ring, field._from_lanes(a), field._from_lanes(b))
        ca, cb = (tuple(map(_CountedLane, x)) for x in (a, b))
        _CountedLane.products = 0
        assert ring._mul(ca, cb) == tuple(field._lanes(want))
        assert _CountedLane.products == formed
        _CountedLane.products = 0
        square = Poly(ring, [ca, cb]) * Poly(ring, [ca, cb])
        assert _CountedLane.products == 4 * formed
        assert square.data == Poly(ring, [ring._mul(a, a), ring._add(*[ring._mul(a, b)] * 2), ring._mul(b, b)]).data


def _gf4_cubed():
    gf4 = _galois(2, 1, 2)
    return ExtensionRing(gf4, default_modulus(gf4, 3), check=False)


def _lifted_extension(ring, deg):
    """The extension of ring by the lift of the default modulus of its residue field."""
    return ExtensionRing(ring, Poly(ring, [ring._lift(c) for c in default_modulus(ring.residue_field, deg).data]))


def _over_f4_u2(deg=2):
    """An extension of F4[u]/u^2: u sits between two ruled lane variables."""
    return _lifted_extension(_truncated(2, 2, 2), deg)


LANE_RINGS = {
    **RINGS,
    "tower over GR(4,2)": lambda: _towers()[0],
    "tower over F3[u]/u^2": lambda: _towers()[1],
    "GF(4^3)": _gf4_cubed,
    "GF(4)[u]/u^2 (deg 2)": _over_f4_u2,
    # more than 8 lanes: element products list the nonzero lanes of b per
    # call without a u, and read the lane pair table with one
    "GR(4,3)(deg 3)": lambda: _lifted_extension(_galois(2, 2, 3), 3),
    "GF(4)[u]/u^2 (deg 3)": lambda: _over_f4_u2(3),
}


@pytest.fixture(scope="module", params=sorted(LANE_RINGS))
def lane_ring(request):
    return LANE_RINGS[request.param]()


def _nested_divmod(ring, f, g):
    """The replaced `Poly.__divmod__` on nested payloads: `divide_monic` by
    g / lead, and the quotient scaled by 1 / lead."""
    nested = _nested(ring)
    inv = _nest(ring, ring._inverse(g.data[-1]))
    div = [nested._neg(nested._mul(_nest(ring, b), inv)) for b in g.data[:-1]]
    rem = divide_monic([_nest(ring, c) for c in f.data], div, nested)
    quo = [nested._mul(c, inv) for c in rem[g.degree :]]
    return tuple(Poly(ring, [_flat(ring, c) for c in part]).data for part in (quo, rem[: g.degree]))


def test_lane_ring_matches_nested_payload_route(lane_ring):
    """Element products, sums, valuations, residues, lifts and divisions by
    a^k, and `Poly` products and division, on flat lane payloads against
    the nested payload route they replaced."""
    ring, rng = lane_ring, random.Random(31)
    nested, rf = _nested(ring), ring.residue_field
    elems = [ring._zero, ring._one, ring._a] + [ring._from_rank(rng.randrange(ring.size)) for _ in range(40)]
    elems += [ring._mul(x, ring._a) for x in elems[3:8]]
    for a in elems:
        na = _nest(ring, a)
        assert _flat(ring, na) == a
        assert ring._val(a) == nested._val(na)
        r = ring._residue(a)
        assert r == _flat(rf, nested._residue(na))
        assert ring._lift(r) == _flat(ring, nested._lift(_nest(rf, r)))
        for k in range(ring._val(a) + 1):
            assert ring._div_a(a, k) == _flat(ring, nested._div_a(na, k))
        for b in elems[:16]:
            nb = _nest(ring, b)
            assert ring._mul(a, b) == _flat(ring, nested._mul(na, nb))
            assert ring._add(a, b) == _flat(ring, nested._add(na, nb))
    for _ in range(12):
        f, g = (_poly(ring, rng, rng.randrange(-1, 7)) for _ in range(2))
        if f.is_zero() or g.is_zero():
            continue
        box = convolve_fold(*(enumerate([_nest(ring, c) for c in h.data]) for h in (f, g)), len(f.data) + len(g.data) - 1, (), nested)
        assert (f * g).data == Poly(ring, [_flat(ring, c) for c in box]).data
        for lead in (ring.one, _elem(ring, rng, unit=True)):
            div = _poly(ring, rng, rng.randrange(0, 4), lead=lead)
            assert tuple(h.data for h in divmod(f, div)) == _nested_divmod(ring, f, div)


def test_lane_pair_table_matches_listed_lanes(lane_ring):
    """An element product read from the lane pair table equals the one that
    lists the nonzero lanes of b per call, on every lane ring."""
    ring, rng = lane_ring, random.Random(34)
    if isinstance(ring, IntegerModRing):
        return
    box = ring._box
    listed = LaneBox(box.place, box.size, box.folds, box.levels, box.cut, box.m, table=False)
    assert listed.pairs is None
    assert (box.pairs is not None) == (ring._u is not None or ring.ncoords <= kernel._PAIR_LANES)
    elems = [ring._zero, ring._one, ring._a] + [ring._from_rank(rng.randrange(ring.size)) for _ in range(30)]
    for a in elems:
        for b in elems[:12]:
            assert box.product(a, b) == listed.product(a, b)


def _is_payload(ring, x):
    """An int in [0, m) over Z_m, else a tuple of exactly ncoords ints in [0, m)."""
    m = ring.lane_modulus
    if isinstance(ring, IntegerModRing):
        return type(x) is int and 0 <= x < m
    return type(x) is tuple and len(x) == ring.ncoords and all(type(v) is int and 0 <= v < m for v in x)


def test_payloads_are_flat_lane_tuples(lane_ring):
    """Every payload from `_from_rank`, `_mul`, `_add`, `_lift`, `embed` and
    `Poly` arithmetic is a Z_m int or the flat tuple of its lanes."""
    ring, rng = lane_ring, random.Random(33)
    elems = [ring._from_rank(rng.randrange(ring.size)) for _ in range(20)]
    out = list(elems) + [ring._zero, ring._one, ring._a, ring._from_int(-3), ring._from_coords(list(range(ring.ncoords)))]
    for a, b in zip(elems, elems[1:]):
        out += [ring._mul(a, b), ring._add(a, b), ring._neg(a), ring._lift(ring._residue(a))]
        assert _is_payload(ring.residue_field, ring._residue(a))
    if isinstance(ring, ExtensionRing):
        out += [ring.embed(ring.base.from_rank(rng.randrange(ring.base.size))).data]
    f, g = _poly(ring, rng, 6), _poly(ring, rng, 3, lead=_elem(ring, rng, unit=True))
    mod = _poly(ring, rng, 4, lead=ring.one)
    for h in (f * g, f + g, f - g, -f, *divmod(f, g), f.derivative(), g.monic(), polys.pow_mod(f, 5, mod)):
        out += h.data
    assert all(_is_payload(ring, x) for x in out)


def test_a_power_scaling_matches_product_route(ring):
    """`MPoly.times_a(k)` and `_lane_shift` of an element scale by a^k on
    the lanes: the same as the product by the constant a^k, k up to t + 1."""
    rng = random.Random(32)
    for moduli in (("x^5-1",), ("x^3-1", "y^2-1")):
        amb = _ambient(ring, moduli)
        for f in [amb.zero(), amb.one()] + [_mpoly(amb, rng, density) for density in (0.3, 1.0)]:
            for k in range(ring.t + 2):
                want = f * amb.constant(ring.a**k)
                assert f.times_a(k) == want and f.times_a(k).lanes == want.lanes
    for _ in range(10):
        x = _elem(ring, rng)
        for k in range(ring.t + 2):
            assert ring._lane_shift(tuple(ring._lanes([x.data])), k) == tuple(ring._lanes([(x * ring.a**k).data]))


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


def _pow_mod_reference(f, e, mod):
    """The replaced `polys.pow_mod`, verbatim: every step a `Poly` product
    and a `Poly` division."""
    return polys.power(f % mod, e, Poly.one(f.ring, var=f.var), lambda a, b: (a * b) % mod)


def _monic_moduli(ring, rng):
    """Random monic moduli of degrees 1 to 8, then reducible ones: products
    of two random monic factors, and a square."""
    out = [_poly(ring, rng, d, lead=ring.one) for d in range(1, 9)]
    for d1, d2 in ((1, 1), (1, 2), (2, 3), (3, 5)):
        out.append(_poly(ring, rng, d1, lead=ring.one) * _poly(ring, rng, d2, lead=ring.one))
    g = _poly(ring, rng, 2, lead=ring.one)
    return out + [g * g]


def test_pow_mod_matches_reference(ring):
    """Packed `pow_mod` against the `Poly` product-and-division loop, for
    e in {0, 1, 2, q, (q^d - 1)/2, a random 200-bit e}, on dividends of
    degree up to 2 deg g; the result keeps the dividend's variable."""
    rng = random.Random(14)
    big = rng.getrandbits(200) | 1 << 199
    for g in _monic_moduli(ring, rng):
        d = g.degree
        f = _poly(ring, rng, rng.randrange(-1, 2 * d + 1), var=2)
        exponents = [0, 1, 2, ring.q, (ring.q**d - 1) // 2]
        if ring.size < 64 or d <= 3:
            exponents.append(big)
        for e in exponents:
            got = polys.pow_mod(f, e, g)
            assert _data(got) == _data(_pow_mod_reference(f, e, g)), (g, e)
            assert got.var == f.var == 2
    with pytest.raises(DomainError):
        polys.pow_mod(f, 2, Poly.from_coeffs(ring, [ring.one, ring.one, ring.a]) if ring.t > 1 else Poly.one(ring))


def _product_box_reference(moduli):
    """The payload box of the old `MPoly.__mul__`, verbatim."""
    degs = [m.degree for m in moduli]
    strides = [1]
    for d in degs[:-1]:
        strides.append(strides[-1] * (2 * d - 1))
    size = strides[-1] * (2 * degs[-1] - 1)
    place = [0]
    for d, s in zip(degs, strides):
        place = [p + e * s for e in range(d) for p in place]
    rules = [
        tuple(((j - d) * s, m.ring._neg(c.data)) for j, c in enumerate(m.coeffs[:d]) if not c.is_zero())
        for m, d, s in zip(moduli, degs, strides)
    ]
    folds = []
    for pos in range(size - 1, 0, -1):
        rule = next((rule for d, s, rule in zip(degs, strides, rules) if pos // s % (2 * d - 1) >= d), None)
        if rule:
            folds.append((pos, rule))
    return tuple(place), size, tuple(folds)


def _mpoly_mul_reference(self, other):
    """The old `MPoly.__mul__` for two `MPoly`s: `convolve_fold` on payloads."""
    amb = self.ambient
    ring = amb.ring
    place, box_size, folds = _product_box_reference(amb.moduli)
    a, b = ([c.data for c in f.coeffs] for f in (self, other))
    box = convolve_fold(zip(place, a), zip(place, b), box_size, folds, ring)
    return amb.from_vector([ring.elem(box[p]) for p in place])


MPOLY_RINGS = {
    "Z4": lambda: _galois(2, 2),
    "Z8": lambda: _galois(2, 3),
    "Z9": lambda: _galois(3, 2),
    "Z_2^300": lambda: _galois(2, 300),
    "GF(4)": lambda: _galois(2, 1, 2),
    "GR(4,2)": lambda: _galois(2, 2, 2),
    "GR(9,3)": lambda: _galois(3, 2, 3),
    "F3[u]/u^2": lambda: _truncated(3, 2),
    "F4[u]/u^3": lambda: _truncated(2, 3, 2),
    "degree-1 extension": _degree_one,
}

# abelian, two-variable, non-abelian, and degree-1 moduli
MODULI = [("x^15-1",), ("x^4-1", "y^4-1"), ("x^3+x+1", "y^2+y+1"), ("x^5-1",), ("x+3",)]


def _ambient(ring, moduli):
    return Ambient(ring, [parse_univariate(m, ring, var=i) for i, m in enumerate(moduli)], unchecked=True)


def _mpoly(amb, rng, density):
    ring = amb.ring
    return amb.from_vector(
        [ring.from_rank(rng.randrange(ring.size)) if rng.random() < density else ring.zero for _ in range(amb.n)]
    )


def _payloads(f):
    return [c.data for c in f.coeffs]


def _assert_products_match(amb, operands):
    for f in operands:
        for g in operands:
            assert _payloads(f * g) == _payloads(_mpoly_mul_reference(f, g))
        assert _payloads(f * f) == _payloads(_mpoly_mul_reference(f, f))


@pytest.mark.parametrize("name", sorted(MPOLY_RINGS))
def test_mpoly_mul_matches_payload_kernel(name):
    ring = MPOLY_RINGS[name]()
    rng = random.Random(21)
    for moduli in MODULI:
        amb = _ambient(ring, moduli)
        operands = [amb.zero(), amb.one()] + [_mpoly(amb, rng, density) for density in (0.2, 0.6, 1.0)]
        _assert_products_match(amb, operands)


def _towers():
    """Component rings of real decompositions: towers over a Galois ring
    and over a truncated ring."""
    out = []
    for ring, modulus in ((_galois(2, 2, 2), "x^15-1"), (_truncated(3, 2), "x^13-1")):
        amb = Ambient(ring, [parse_univariate(modulus, ring)])
        out.append(max((cd.component_ring for cd in decompose(amb).data), key=lambda r: r.size))
    return out


def test_mpoly_mul_matches_payload_kernel_over_towers():
    """Moduli whose coefficients are random tower elements, so every fold
    rule of X carries lanes of several tower variables."""
    rng = random.Random(22)
    towers = _towers()
    assert isinstance(towers[0].base, ExtensionRing)
    assert isinstance(towers[1].base, TruncatedRing)
    for ring in towers:
        for degs in ((1,), (2,), (3,), (2, 2)):
            moduli = [
                Poly.from_coeffs(ring, [ring.from_rank(rng.randrange(ring.size)) for _ in range(d)] + [ring.one], var=i)
                for i, d in enumerate(degs)
            ]
            if len(degs) > 1:
                assert any(any(c.data[ring.base.ncoords :]) for m in moduli for c in m.coeffs)
            amb = Ambient(ring, moduli, unchecked=True)
            _assert_products_match(amb, [amb.zero()] + [_mpoly(amb, rng, 0.7) for _ in range(3)])


@pytest.mark.parametrize(
    "p, t, modulus",
    [
        (2, 2, "x^127-1"),
        # lanes of exactly 9, 17 and 65 bits: one bit fewer would overflow
        (2, 2, "x^31-1"),
        (2, 6, "x^31-1"),
        (2, 30, "x^31-1"),
        # lanes wider than 64 bits go through int.to_bytes
        (2, 300, "x^15-1"),
        (3, 2, "x^26-1"),
    ],
)
def test_mpoly_mul_worst_case_lanes(p, t, modulus):
    """Dense operands with every coefficient p^t - 1 fill each product lane."""
    ring = _galois(p, t)
    amb = _ambient(ring, (modulus,))
    top = amb.from_vector([ring.from_int(-1)] * amb.n)
    rng = random.Random(23)
    _assert_products_match(amb, [top, _mpoly(amb, rng, 1.0)])


def test_mpoly_mul_calls_no_element_product(monkeypatch):
    """An `MPoly` product over a Galois or truncated ring is one packed
    product: no element product and no payload loop."""
    cases = []
    for ring, modulus in ((_galois(2, 2, 2), "x^15-1"), (_truncated(3, 2), "x^13-1")):
        amb = _ambient(ring, (modulus,))
        rng = random.Random(24)
        f, g = _mpoly(amb, rng, 0.6), _mpoly(amb, rng, 0.6)
        cases.append((f, g, _mpoly_mul_reference(f, g), _mpoly_mul_reference(f, f)))

    def forbidden(*args):
        raise AssertionError("element product inside an MPoly product")

    monkeypatch.setattr(LaneRing, "_mul", forbidden)
    monkeypatch.setattr(LaneBox, "product", forbidden)
    monkeypatch.setattr(rings, "convolve_mod", forbidden)
    for f, g, want, square in cases:
        assert _payloads(f * g) == _payloads(want)
        assert _payloads(f * f) == _payloads(square)


def _coeffwise(f, op, *others):
    """The payloads of ``op`` applied to the `RingElem` coefficients of f
    (and of ``others``), one coefficient at a time."""
    return [op(*cs).data for cs in zip(f.coeffs, *(g.coeffs for g in others))]


def test_mpoly_ops_match_per_coefficient_reference(ring):
    """Every lane-vector operation of `MPoly` against one `RingElem`
    operation per coefficient, on every ring family."""
    rng = random.Random(25)
    for moduli in (("x^5-1",), ("x^3-1", "y^2-1")):
        amb = _ambient(ring, moduli)
        ra = amb.residue_ambient
        operands = [amb.zero(), amb.one()] + [_mpoly(amb, rng, density) for density in (0.3, 1.0)]
        for f in operands:
            c = _elem(ring, rng)
            assert _payloads(-f) == _coeffwise(f, lambda a: -a)
            for k in (0, 1, 3, -1, -5, ring.lane_modulus + 2):
                want = _coeffwise(f, lambda a: a * ring.from_int(k))
                assert _payloads(k * f) == _payloads(f * k) == want
            assert _payloads(f * c) == _payloads(c * f) == _coeffwise(f, lambda a: a * c)
            assert _payloads(f + c) == _payloads(f + amb.constant(c))
            for g in operands:
                assert _payloads(f + g) == _coeffwise(f, lambda a, b: a + b, g)
                assert _payloads(f - g) == _coeffwise(f, lambda a, b: a - b, g)
                want = _mpoly_mul_reference(f, g)
                assert _payloads(f * g) == _payloads(want)
                assert (f * g == want) and hash(f * g) == hash(want)
                assert (f + g == f) == (g.is_zero()) == all(c.is_zero() for c in g.coeffs)
            cube = _mpoly_mul_reference(_mpoly_mul_reference(f, f), f)
            assert _payloads(f**3) == _payloads(cube) and f**0 == amb.one()
            assert _payloads(f.residue()) == [a.residue().data for a in f.coeffs]
            assert f.residue().ambient is ra
            assert _payloads(f.residue().lift_to(amb)) == [ring.lift(a.residue()).data for a in f.coeffs]
            tau = [None] * amb.n
            for rank, a in enumerate(f.coeffs):
                tau[amb.tau_permutation[rank]] = a.data
            assert _payloads(f.tau()) == tau
            # the same class from every constructor is equal and hashes equal
            terms = {amb.exps(rank): a for rank, a in enumerate(f.coeffs) if not a.is_zero()}
            for g in (amb.from_vector(f.coeffs), amb.from_terms(terms), f * amb.one(), amb.one() * f):
                assert g == f and hash(g) == hash(f) and g.lanes == f.lanes
        x, y = amb.parse("x"), amb.parse("x^3+2*x+3")
        for g in (
            (x + 1) * amb.parse("x^2-x+3"),
            amb.from_terms({amb.exps(0): ring.from_int(3), amb.exps(1): ring.from_int(2), (3,) + (0,) * (amb.r - 1): ring.one}),
            x**3 + 2 * x + 3,
        ):
            assert g == y and hash(g) == hash(y)


def test_mpoly_sums_and_comparisons_build_no_ring_element(monkeypatch):
    """Sums, differences, negation, int scaling, products, equality, hashing
    and `is_zero` run on lane vectors alone: no `RingElem` is built."""
    cases = []
    for ring in (_galois(2, 2), _galois(2, 2, 2), _truncated(3, 2), _towers()[0]):
        amb = _ambient(ring, ("x^5-1",))
        rng = random.Random(26)
        f, g = _mpoly(amb, rng, 0.6), _mpoly(amb, rng, 0.6)
        cases.append((f, g, amb.from_vector(f.coeffs), _mpoly_mul_reference(f, g)))

    def forbidden(*args):
        raise AssertionError("a RingElem was built")

    monkeypatch.setattr(ChainRing, "elem", forbidden)
    monkeypatch.setattr(RingElem, "__init__", forbidden)
    for f, g, same, product in cases:
        assert f + g == g + f and f - g == -(g - f) and -(-f) == f
        assert 3 * f == f + f + f and f * 3 == 3 * f and f + 0 == f and 1 + f == f + 1
        assert f * g == product and hash(f * g) == hash(product)
        assert f == same and hash(f) == hash(same) and f != g
        assert (f - same).is_zero() and not f.is_zero()


def test_mpoly_views_build_no_ring_element(ring, monkeypatch):
    """`MPoly.residue`, `lift_to`, `valuation`, `to_text` and `to_json`,
    `poly_to_text` and the tower placement of the class data read lanes
    alone: no `RingElem` is built."""
    rng = random.Random(27)
    amb = _ambient(ring, ("x^2+x+1", "y^3+2*y+1"))
    f = _mpoly(amb, rng, 0.6)
    g = _poly(ring, rng, 4, var=1)
    # a root of X_1's modulus over the ring, and a cubic in X_2 over it: the
    # placement reduces it modulo X_2's modulus and copies lane blocks
    tower = ExtensionRing(ring, amb.moduli[0], check=False)
    h = _poly(tower, rng, 3, var=1)
    ops = {
        "residue": lambda: f.residue(),
        "lift_to": lambda: f.residue().lift_to(amb),
        "valuation": lambda: f.valuation(),
        "to_text": lambda: f.to_text(),
        "to_json": lambda: f.to_json(),
        "poly_to_text": lambda: polys.poly_to_text(g, amb.var_names()),
        "placement": lambda: _poly_over_tower_to_mpoly(h, amb, 1),
    }
    want = {name: op() for name, op in ops.items()}

    def forbidden(*args):
        raise AssertionError("a RingElem was built")

    monkeypatch.setattr(ChainRing, "elem", forbidden)
    monkeypatch.setattr(RingElem, "__init__", forbidden)
    for name, op in ops.items():
        assert op() == want[name], name


def _packed_product_reference(a, b, ring, moduli):
    """The old `packed_product`, verbatim but for its layout argument: the
    positional pass over the box of `kernel.product_box`, for every layout."""
    rules = tuple((g.degree, ring.fold_rule(g)) for g in moduli)
    (place, size, folds), m = kernel.product_box(ring.lane_vars + rules), ring.lane_modulus
    nonzeros = min(len(a) - a.count(0), len(b) - b.count(0))
    nbytes = (2 * (m - 1).bit_length() + nonzeros.bit_length() + 7) // 8
    nbytes, tc = kernel._LANE_TYPES.get(nbytes, (nbytes, None))
    packed = []
    for vec in (a,) if b is a else (a, b):
        box = [0] * size
        for p, x in zip(place, vec):
            box[p] = x
        raw = array(tc, box).tobytes() if tc else b"".join(x.to_bytes(nbytes, "little") for x in box)
        packed.append(int.from_bytes(raw, "little"))
    raw = (packed[0] * packed[-1]).to_bytes(size * nbytes, "little")
    if tc:
        box = array(tc, raw).tolist()
    else:
        box = [int.from_bytes(raw[i : i + nbytes], "little") for i in range(0, len(raw), nbytes)]
    for pos, rule in folds:
        c = box[pos] % m
        if c:
            for off, f in rule:
                box[pos + off] += c * f
    return [box[p] % m for p in place]


# abelian at r = 1, 2 and 3, abelian with a degree-1 modulus, and mixed:
# x^5-1 with y^3+y+1 must keep the positional folds alone
SHIFT_MODULI = [("x^15-1",), ("x^4-1", "y^3-1"), ("x^3-1", "y^2-1", "z^3-1"), ("x-1", "y^5-1"), ("x^5-1", "y^3+y+1")]


def test_shift_folds_match_positional_folds(ring):
    """An ambient's layout folds each X_i^e - 1, and the ring's one rule
    variable, as whole-int steps; its products must equal the old positional
    `packed_product` and the payload kernel of the old `MPoly.__mul__`,
    dense operands with every lane m - 1 included."""
    rng = random.Random(28)
    m = ring.lane_modulus
    for moduli in SHIFT_MODULI:
        amb = _ambient(ring, moduli)
        layout = amb.layout
        if amb.abelian:
            assert layout.steps
        else:
            rules = tuple((g.degree, ring.fold_rule(g)) for g in amb.moduli)
            assert not layout.steps and layout.folds == kernel.product_box(ring.lane_vars + rules)[2]
        top = MPoly(amb, [m - 1] * len(amb.one().lanes))
        operands = [amb.zero(), amb.one(), top] + [_mpoly(amb, rng, density) for density in (0.3, 1.0)]
        for f in operands:
            for g in operands:
                got = packed_product(f.lanes, g.lanes, layout)
                assert got == _packed_product_reference(f.lanes, g.lanes, ring, amb.moduli)
                assert _payloads(MPoly(amb, got)) == _payloads(_mpoly_mul_reference(f, g))


@pytest.mark.parametrize("name", ["Z4", "Z9", "Z_2^70", "GF(4)", "GR(4,2)", "F3[u]/u^2", "F4[u]/u^3"])
def test_cyclic_ambients_leave_no_positional_fold(name):
    """Over Z_m, and over a ring with one rule variable, fastest, an
    ambient of X_i^e_i - 1 folds by whole-int steps alone, and so does
    R[X]/(X^e - 1); R[X]/(g) for another g keeps every positional fold, and
    a tower keeps only the folds of its ring variables."""
    ring = RINGS[name]()
    for moduli in (("x^45-1",), ("x^4-1", "y^4-1"), ("x^3-1", "y^3-1", "z^3-1")):
        amb = _ambient(ring, moduli)
        assert amb.layout.folds == () and amb.layout.steps
    cyclic, other = (parse_univariate(g, ring) for g in ("x^9-1", "x^9+x+1"))
    assert polys.packed_layout(ring, (cyclic,)).folds == ()
    layout = polys.packed_layout(ring, (other,))
    assert not layout.steps and layout.folds == kernel.product_box(ring.lane_vars + ((9, ring.fold_rule(other)),))[2]
    tower = RINGS["tower"]()
    amb = _ambient(tower, ("x^4-1", "y^3-1"))
    ring_folds = kernel.product_box(tower.lane_vars)[2]
    assert amb.layout.steps and len(amb.layout.folds) == amb.n * len(ring_folds)


def test_valuation_matches_per_coefficient_minimum(ring):
    """`MPoly.valuation` reads lanes: the gcd of all lanes over Galois-type
    rings, the least nonzero u-level over truncated rings.  It must equal the
    least coefficient valuation, t for the zero class, also when every lane
    is divisible by p^k (every coefficient a multiple of a^k)."""
    rng = random.Random(29)
    for moduli in (("x^5-1",), ("x^3-1", "y^2-1")):
        amb = _ambient(ring, moduli)
        assert amb.zero().valuation() == ring.t
        for density in (0.1, 0.5, 1.0):
            f = _mpoly(amb, rng, density)
            for k in range(ring.t + 1):
                g = f * amb.constant(ring.a**k) if k else f
                assert g.valuation() == min(c.valuation() for c in g.coeffs), (density, k)
        for k in range(ring.t):
            # one coefficient of valuation exactly k, the others zero or higher
            g = amb.constant(ring.a**k) + amb.parse("x") * ring.a ** min(k + 1, ring.t)
            assert g.valuation() == k == min(c.valuation() for c in g.coeffs)


def test_int_scalings_are_not_mpoly_products(monkeypatch):
    """int * f scales lanes through `MPoly.__rmul__`: once every e and g of
    Z8 x^15-1 is built, every `MPoly.__mul__` call was an MPoly x MPoly
    product (`hensel.lift_idempotent` scales by 3 and 2)."""
    ring = _galois(2, 3)
    amb = Ambient(ring, [parse_univariate("x^15-1", ring)])
    calls, products = [], []
    real = MPoly.__mul__

    def counted(self, other):
        calls.append(1)
        products.extend([1] if isinstance(other, MPoly) else [])
        return real(self, other)

    monkeypatch.setattr(MPoly, "__mul__", counted)
    dec = decompose(amb)
    for cd in dec.data:
        cd.e, cd.g
    assert calls and len(calls) == len(products)
    f = amb.parse("x^3+2*x+5")
    assert 3 * f == f + f + f == f * 3 and -2 * f == f * -2
