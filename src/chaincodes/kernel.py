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

A `PackedLayout` folds whole ints instead when every X_i of degree > 1
has the rule X_i^e_i = 1: the abelian ambients R[X_1..X_r]/(X_i^e_i - 1)
of the paper's codes, and R[X]/(X^e - 1).  The step of X_i, slowest
first, is high = P & M; P = P - high + (high >> shift) on the product int
P: M holds the lanes where the exponent of X_i is at least e_i, and shift
is e_i lanes times the stride of X_i.  If the ring has one rule variable
and it is the fastest (the Z of GR(p^t, l), GF(q) or F_q[u]/u^t), Z folds
too, one step per exponent level from the top: the level's lanes move
down once per rule term, times its coefficient.  A rule-less u (u^t = 0)
needs no step: its overflow lanes are dead, never read.  The masks are
byte patterns repeated over the box, built once per lane width by the
first product of that width.

Headroom: an X step needs none, since after the cyclic folds a lane still
sums at most one product per nonzero lane of an operand.  Over Z_(2^t)
every Z step starts by masking each lane to t bits, which leaves it
unchanged mod m, so lanes stay below m * (1 + the largest rule
coefficient); over other m the Z steps multiply the lane bound by the
growth of the level pass, whose bits widen the lanes.  Over Z_(2^t) a
last mask reduces every lane, so the result needs no `%`.  Operands go
into the box, and results come out, by strided slice copies along the
variable of largest degree.

The positional pass stays the general path: R[X]/(g) for any other g, as
in factoring, ambients with any other modulus, and the ring variables of
towers, which a cyclic layout folds position by position after its X
steps.  Z4 x^45-1 products took 6.0 us against 16.9 us positionally,
GR(4,2) x^15-1 7.4 against 17.8 us, and Z4 x^15-1,y^15-1,z^15-1 5.6
against 9.1 ms (dense operands, best of 15, Python 3.11, 2-core VM).

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


def _box(variables):
    """place, size and, per variable, (d, stride, rule offsets) of the box
    of `product_box`."""
    place, size, rules = [0], 1, []
    for d, rule in variables:
        if rule is not None:
            rule = tuple(((j - d) * size + place[lane], value) for j, lane, value in rule)
        rules.append((d, size, rule))
        place = [p + e * size for e in range(d) for p in place]
        size *= 2 * d - 1
    return place, size, rules


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
    place, size, rules = _box(variables)
    return tuple(place), size, _folds(size, rules)


def _folds(size, rules):
    """The top-down folds of `product_box` from the rules of `_box`."""
    folds = []
    for pos in range(size - 1, 0, -1):
        over = [rule for d, s, rule in rules if pos // s % (2 * d - 1) >= d]
        if over and over[0] and None not in over:
            folds.append((pos, over[0]))
    return tuple(folds)


# bytes -> (itemsize, typecode) of the narrowest unsigned array type that wide
_LANE_TYPES = {
    n: min((array(tc).itemsize, tc) for tc in "BHILQ" if array(tc).itemsize >= n) for n in range(1, 9)
}

# The rule of Y^d = 1 in the form of `product_box`
_CYCLIC = ((0, 0, 1),)


class PackedLayout:
    """The `packed_product` layout of Z_m[Z_1..Z_k][X_1..X_r] modulo one
    monic rule per variable: ``ring_vars`` are the (d, rule) of the Z_i,
    fastest first, and ``xvars`` those of the X_i, in the form of
    `product_box`.

    ``runs`` copies lane vectors into and out of the box: one pair of
    strided slices (box, vector) along the variable of largest degree for
    each normal-form exponent of the others, or None when the places are
    0, 1, 2, ... already.  When every X_i of degree > 1 is ruled by
    X_i^d = 1, the X_i fold as whole-int steps, slowest first, and so does
    the ring's rule variable when it is the only one and the fastest: one
    step per exponent level, top level first.  ``folds`` keeps the
    positional folds of the rest (every fold of any other layout; of a
    cyclic one, only the folds of a tower's ring variables).  A step
    is (region, extent, stride, lo, hi, terms, reduce): in the lowest
    ``region`` positions, the positions whose exponent lies in [lo, hi)
    move down by each term's shift, times its factor; ``reduce`` masks
    every lane to t bits first over Z_(2^t).  Masks depend on the lane
    width, so `plan` builds them once per width from byte patterns.

    At every stage every lane is at most nonzeros * ``top``, nonzeros the
    fewer nonzero lanes of the two operands."""

    __slots__ = ("place", "folds", "m", "runs", "span", "steps", "region", "top", "plans")

    def __init__(self, ring_vars, xvars, m):
        variables = tuple(ring_vars) + tuple(xvars)
        cyclic = all(d == 1 or rule == _CYCLIC for d, rule in xvars)
        place, size, rules = _box(variables)
        self.place, self.m = tuple(place), m
        self.folds = () if cyclic else _folds(size, rules)
        self.span, self.region = max(place) + 1, size
        self.runs = None if place == list(range(len(place))) else _runs(rules)
        self.top, self.steps, self.plans = (m - 1) ** 2, (), {}
        if not cyclic:
            return
        # the slowest X_r folds over the whole box, the others within its d_r blocks
        d, s, _ = rules[-1]
        self.region = s * d
        steps = [
            (size if i == 0 else self.region, 2 * d - 1, s, d, 2 * d - 1, ((d * s, 1),), False)
            for i, (d, s, _) in enumerate(reversed(rules[len(ring_vars) :]))
            if d > 1
        ]
        ruled = [i for i, (d, rule) in enumerate(ring_vars) if rule is not None]
        if ruled == [0]:
            d, s, rule = rules[0]
            pow2 = not m & (m - 1)
            growth = [1] * (2 * d - 1)
            for e in range(2 * d - 2, d - 1, -1):
                steps.append((self.region, 2 * d - 1, s, e, e + 1, tuple((-off, f) for off, f in rule), pow2))
                for off, f in rule:
                    growth[e + off] += growth[e] * f
            if pow2:  # each step starts from lanes below m
                self.top = (m - 1) * max(m - 1, 1 + max((f for _, f in rule), default=0))
            else:
                self.top *= max(growth)
        elif ruled:
            _, ring_size, ring_folds = product_box(ring_vars)
            bases = sorted({p - p % ring_size for p in place}, reverse=True)
            self.folds = tuple((b + pos, rule) for b in bases for pos, rule in ring_folds)
        self.steps = tuple(steps)

    def plan(self, nbytes):
        """(masked steps, final lane mask) for lanes of ``nbytes`` bytes: a
        masked step is (mask, ((shift, factor), ...), lane mask or 0); the
        final lane mask is 0 unless m = 2^t and no positional fold is left."""
        plan = self.plans.get(nbytes)
        if plan is None:
            ones, w = b"\xff" * nbytes, 8 * nbytes
            pow2 = not self.m & (self.m - 1)
            lane = (self.m - 1).to_bytes(nbytes, "little")

            def lanes(region):
                return int.from_bytes(lane * region, "little")

            steps = []
            for region, extent, s, lo, hi, terms, reduce in self.steps:
                block = bytes(lo * s * nbytes) + ones * ((hi - lo) * s) + bytes((extent - hi) * s * nbytes)
                mask = int.from_bytes(block * (region // (extent * s)), "little")
                steps.append((mask, tuple((sh * w, f) for sh, f in terms), lanes(region) if reduce else 0))
            final = lanes(self.region) if pow2 and not self.folds else 0
            plan = self.plans[nbytes] = (tuple(steps), final)
        return plan


def _runs(rules):
    """The (box slice, vector slice) pairs of `PackedLayout.runs`."""
    axis = max(range(len(rules)), key=lambda i: rules[i][0])
    bases, stride = [(0, 0)], 1
    for i, (d, s, _) in enumerate(rules):
        if i == axis:
            d_axis, s_axis, t_axis = d, s, stride
        else:
            bases = [(bp + e * s, bv + e * stride) for e in range(d) for bp, bv in bases]
        stride *= d
    return tuple(
        (slice(bp, bp + (d_axis - 1) * s_axis + 1, s_axis), slice(bv, bv + (d_axis - 1) * t_axis + 1, t_axis))
        for bp, bv in bases
    )


def packed_product(a, b, layout):
    """The normal-form lanes of a * b for lane vectors of ints in [0, m)
    over a `PackedLayout`.  A box position is a lane wide enough for
    nonzeros * layout.top, nonzeros the fewer nonzero lanes of a and b:
    a product lane sums at most that many products of two ints below m,
    so no lane carries, and the fold steps keep within that bound.  Lanes
    up to 64 bits pack through `array`, wider ones bytewise."""
    nonzeros = min(len(a) - a.count(0), len(b) - b.count(0))
    if not nonzeros:
        return [0] * len(layout.place)
    nbytes = ((nonzeros * layout.top).bit_length() + 7) // 8
    nbytes, tc = _LANE_TYPES.get(nbytes, (nbytes, None))
    steps, final = layout.plans.get(nbytes) or layout.plan(nbytes)
    pa = _pack(a, layout, nbytes, tc)
    prod = pa * pa if b is a else pa * _pack(b, layout, nbytes, tc)
    for mask, terms, lanes in steps:
        if lanes:
            prod &= lanes
        high = prod & mask
        prod -= high
        for shift, f in terms:
            prod += (high >> shift) * f if f != 1 else high >> shift
    if final:
        prod &= final
    raw = prod.to_bytes(layout.region * nbytes, "little")
    if tc:
        box = array(tc, raw)
    else:
        box = [int.from_bytes(raw[i : i + nbytes], "little") for i in range(0, len(raw), nbytes)]
    m, n, runs = layout.m, len(layout.place), layout.runs
    if layout.folds:
        box = box.tolist() if tc else box
        for pos, rule in layout.folds:
            c = box[pos] % m
            if c:
                for off, f in rule:
                    box[pos + off] += c * f
        return [box[p] % m for p in layout.place]
    if runs is None:
        out = box[:n]
    else:
        out = array(tc, bytes(n * nbytes)) if tc else [0] * n
        for sb, sv in runs:
            out[sv] = box[sb]
    out = out.tolist() if tc else out
    return out if final else [x % m for x in out]


def _pack(vec, layout, nbytes, tc):
    """The big int of a lane vector placed in the box, ``nbytes`` a lane."""
    if layout.runs is None:
        box = vec
    else:
        box = array(tc, bytes(layout.span * nbytes)) if tc else [0] * layout.span
        vec = array(tc, vec) if tc else vec
        for sb, sv in layout.runs:
            box[sb] = vec[sv]
    raw = array(tc, box).tobytes() if tc else b"".join(x.to_bytes(nbytes, "little") for x in box)
    return int.from_bytes(raw, "little")


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
