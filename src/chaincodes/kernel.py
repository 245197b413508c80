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

`LaneBox` is the int loop of element-sized products on lanes.  The
payload of an extension or truncated ring is the flat tuple of its
lanes, so one loop serves its element products and `polys.Poly` products
and divisions over it, whose k coefficients stand in k ring boxes side by
side (`LaneBox.blocks`): every nonzero lane of one operand meets the
nonzero lanes of the other in plain int products, then each ring box is
folded once and its places are read mod m.  An element product of a ring
with a u or with at most 8 lanes reads its lane pairs from a table built
once per ring instead, and lists nothing per call.  With a rule-less u
the loop forms only the products below u^t.  Packing loses at element
size: one product of random nonzero elements, with lanes flattened and
rebuilt, took 5.0 us packed against 2.0 us in a loop over GR(4,2) (best
of 9, Python 3.11, 2-core VM).

Over Z_m itself (`rings.IntegerModRing`, whose payloads are ints in
[0, m)), `Poly` products and the long division of `divide_monic_mod` run
on plain ints, as does `rings.LaneRing._divide` on lanes: products are
summed per output coefficient and reduced mod m once, and each quotient
coefficient is reduced before it is used, so every int stays below about
n * m^2 for n summands.
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


# Up to this many lanes an element product reads a table of all the lane
# pairs, which visits the zero lanes of b too, rather than listing the
# nonzero lanes of b per call; a u always gets the table, which holds only
# the products below u^t.  Per product: GF(4) 1.2 against 1.5 us, GF(2^8)
# 3.9 both, GF(2^12) 6.1 against 5.5 (Python 3.11, 2-core VM).
_PAIR_LANES = 8


class LaneBox:
    """The int product loop of a ring whose payloads are the tuples of their
    lanes (`rings.LaneRing`), in the box of `product_box(lane_vars)`: its
    place, size and folds, the u-level of each lane and the cut.

    `blocks` stacks k ring boxes, one per coefficient of a sequence of
    payloads such as a `Poly`, read as its flat lanes: so the one loop of
    `product` multiplies two elements or two whole sequences, and each
    output coefficient is one ring box, folded once and read mod m.
    ``levels`` holds the u-level of each lane and ``cut`` is t when the
    ring has a rule-less u (u^t = 0), else every level is 0 and ``cut`` is
    1: a lane of level L meets only the lanes below level t - L, so the
    products at u^t and above, which no fold or place reads, are never
    formed.  The box of one element lists, once per ring, the (lane of b,
    box position) of the products each lane of a forms (``pairs``), so
    that its product builds no list but the box; a box of blocks, or of
    many lanes without a u, lists the nonzero lanes of b per call instead."""

    __slots__ = ("place", "size", "folds", "levels", "cut", "m", "pairs")

    def __init__(self, place, size, folds, levels, cut, m, table=True):
        self.place, self.size, self.folds, self.levels, self.cut, self.m = place, size, folds, levels, cut, m
        self.pairs = None
        if table and (cut > 1 or len(place) <= _PAIR_LANES):
            self.pairs = [
                [(j, p + q) for j, q in enumerate(place) if levels[j] + l < cut] for p, l in zip(place, levels)
            ]

    def blocks(self, k):
        """The box of sequences of k payloads: k ring boxes side by side."""
        size = self.size
        place = [i * size + p for i in range(k) for p in self.place]
        folds = [(i * size + pos, rule) for i in range(k) for pos, rule in self.folds]
        return LaneBox(place, k * size, folds, self.levels * k, self.cut, self.m, table=False)

    def product(self, a, b):
        """The reduced lanes of a * b for two lane vectors of this box."""
        m, place, table = self.m, self.place, self.pairs
        box = [0] * self.size
        if table:
            for x, pairs in zip(a, table):
                if x:
                    for j, pos in pairs:
                        box[pos] += x * b[j]
        else:
            # below[L]: the nonzero lanes of b, as (box position, lane),
            # that a lane of level L meets
            cut, levels = self.cut, self.levels
            below = [[(q, y) for q, y, l in zip(place, b, levels) if y and l < cut - level] for level in range(cut)]
            for p, x, level in zip(place, a, levels):
                if x:
                    for q, y in below[level]:
                        box[p + q] += x * y
        for pos, rule in self.folds:
            c = box[pos] % m
            if c:
                for off, f in rule:
                    box[pos + off] += c * f
        return tuple([box[p] % m for p in place])


def convolve_mod(a, b, m):
    """The product of two int sequences over Z_m, positions 0, 1, ...:
    plain int products summed per position, each reduced once at the end."""
    box = [0] * (len(a) + len(b) - 1)
    rhs = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in rhs:
                box[i + j] += x * y
    return [c % m for c in box]


def divide_monic_mod(rem, div, m):
    """Long division in place of the int list ``rem`` over Z_m by X^d -
    (div[0] + div[1] X + ... + div[d-1] X^(d-1)), d = len(div) >= 0: step
    k, from the top down to d, leaves the quotient coefficient of X^(k-d)
    at rem[k], reduced before it is used, which no later step touches, and
    rem[:d] ends as the remainder, reduced once at the end."""
    d = len(div)
    for k in range(len(rem) - 1, d - 1, -1):
        c = rem[k] = rem[k] % m
        if c:
            for j, b in enumerate(div, k - d):
                rem[j] += c * b
    rem[:d] = [c % m for c in rem[:d]]
    return rem
