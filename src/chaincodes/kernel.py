"""The product kernels: one box, one top-down pass of folds.

A product runs in the box of `product_box`: every variable of the quotient
gets extent 2*deg - 1, so the product of two normal forms fits without
wrapping.  The pass that follows folds each position whose exponents leave
the normal form back through the rule of one variable.  One pass is
enough: a fold acts on the fastest variable whose exponent is at least its
degree, and its rule coefficients use only faster variables, each with
exponent below its degree.  So every target stays inside the box (each
exponent stays below 2*deg - 1) and lies strictly lower, where the pass has
not yet been.  A rule-less variable (u^t = 0) is never lowered by a fold,
so positions where it overflows never reach the output and are skipped.

`packed_product` serves every quotient by monic rules: every ring here is
a quotient of Z_m[Z_1..Z_k] (`rings.ChainRing.lane_vars`), so a product is
one polynomial product over Z_m, taken as one big-int product of the
packed boxes (Kronecker substitution; Harvey, J. Symbolic Comput. 2009;
von zur Gathen & Gerhard, Modern Computer Algebra, 8.4), then unpacked and
folded on plain ints, reducing mod m only while folding and at the output.
It has three users, each on lane vectors: `polys.MPoly`, whose stored
lanes need no flattening; and R[X]/(g) for one monic g, where
`polys.pow_mod` squares and multiplies and `factor._equal_degree` sums the
repeated squares of its characteristic-2 trace map, converting from and to
`Poly` only at entry and exit.

`convolve_fold` is the Python loop on raw coefficient payloads for
element-sized products: `polys.Poly` (no folds) and the elements of
extension rings (one variable).  Packing loses at that size: one product
of random nonzero elements, with lanes flattened and rebuilt, took 5.0 us
packed against 2.0 us in the loop over GR(4,2), and 4.6 against 1.7 us
over F_3[u]/u^2 (best of 9, Python 3.11, 2-core VM).  F_q[u]/u^t keeps
its own row loop, which forms only the t(t+1)/2 products below u^t: the
same cut in this loop cost 7 to 18 % on extension-ring elements of 2 to 8
coordinates (alternating runs, best of 41, same machine).

Over Z_m itself (`rings.IntegerModRing`, whose payloads are ints in
[0, m)) that loop, and the long division of `divide_monic`, run on plain
ints as `convolve_fold_mod` and `divide_monic_mod`: products are summed
per output coefficient and reduced mod m once, and each fold or quotient
coefficient is reduced before it is used, so every int stays below about
n * m^2 for n summands.  The callback loop pays a Python call and a `%`
per product and per sum.  So the coefficient ring's class picks the loop
(`ChainRing._convolve` and `_divide`): `Poly` products and divisions over
Z_m and the elements of its extensions (GF(4), GR(4,2), GF(q^M) over
F_p) take the int loop, and rings with tuple payloads -- extensions of
extensions, towers, F_q[u]/u^t -- keep the callback loop, whose element
products are themselves int loops one level down.  A degree-8 by degree-4
`Poly` product over Z4 took 3.6 us against 7.4 us in the callback loop,
its division 5.0 against 7.0 us, and one GF(4) element product 1.3
against 1.9 us (best of 5, Python 3.11, 2-core VM).
"""

from __future__ import annotations

from array import array


def product_box(variables):
    """The product box of a quotient by one monic rule per variable Y_i,
    Y_1 fastest, as (place, size, folds).  ``variables`` holds (d_i, rule):
    Y_i^{d_i} is the sum of value * Y_i^j * (the lane-th normal-form
    monomial of Y_1..Y_{i-1}) over the (j, lane, value) triples of rule, or
    0 when rule is None.  Y_i has extent 2*d_i - 1; place[rank] is where a
    normal-form monomial sits, and folds lists top-down the (pos, ((offset,
    value), ...)) of each pos by the rule of its fastest e_i >= d_i; every
    offset is negative.  No fold lowers an exponent of a rule-less Y_i, so
    a pos with such an e_i >= d_i never reaches a place and is left out."""
    place, size, rules = [0], 1, []
    for d, rule in variables:
        if rule is not None:
            rule = tuple(((j - d) * size + place[lane], value) for j, lane, value in rule)
        rules.append((d, size, rule))
        place = [p + e * size for e in range(d) for p in place]
        size *= 2 * d - 1
    folds = []
    for pos in range(size - 1, 0, -1):
        over = [rule for d, s, rule in rules if pos // s % (2 * d - 1) >= d]
        if over and over[0] and None not in over:
            folds.append((pos, over[0]))
    return tuple(place), size, tuple(folds)


# bytes -> (itemsize, typecode) of the narrowest unsigned array type that wide
_LANE_TYPES = {
    n: min((array(tc).itemsize, tc) for tc in "BHILQ" if array(tc).itemsize >= n) for n in range(1, 9)
}


def packed_product(a, b, layout):
    """The normal-form lanes of a * b for lane vectors of ints in [0, m)
    and ``layout`` = product_box(...) + (m,).  A box position is a lane of
    at least 2*bitlen(m - 1) + bitlen(min nonzeros) bits: a product lane
    sums at most that many products of two ints below m, so no lane
    carries.  Lanes up to 64 bits pack through `array`, wider ones bytewise."""
    place, size, folds, m = layout
    nonzeros = min(len(a) - a.count(0), len(b) - b.count(0))
    nbytes = (2 * (m - 1).bit_length() + nonzeros.bit_length() + 7) // 8
    nbytes, tc = _LANE_TYPES.get(nbytes, (nbytes, None))
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


def convolve_fold_mod(a, b, size, folds, m):
    """`convolve_fold` of two payload sequences over Z_m, positions 0, 1,
    ...: plain int products summed per position, each fold coefficient
    reduced before it is used, and every position reduced once at the end."""
    box = [0] * size
    rhs = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in rhs:
                box[i + j] += x * y
    for pos, rule in folds:
        c = box[pos] % m
        if c:
            for off, f in rule:
                box[pos + off] += c * f
    return [c % m for c in box]


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


def divide_monic_mod(rem, div, m):
    """`divide_monic` over Z_m on plain ints: each quotient coefficient is
    reduced before it is used, and the remainder once at the end."""
    d = len(div)
    for k in range(len(rem) - 1, d - 1, -1):
        c = rem[k] = rem[k] % m
        if c:
            for j, b in enumerate(div, k - d):
                rem[j] += c * b
    rem[:d] = [c % m for c in rem[:d]]
    return rem
