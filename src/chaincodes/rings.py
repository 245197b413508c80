"""Finite chain rings: Z_{p^t}, Galois rings, truncated polynomial rings,
and extensions of all of these by basic irreducible polynomials.

A chain ring here is one of three concrete classes sharing one interface:

* `IntegerModRing(p, t)` -- Z_{p^t}; elements are ints in [0, p^t).
* `ExtensionRing(base, modulus)` -- base[Z]/(modulus) for a monic basic
  irreducible modulus.  Galois rings GR(p^t, l) are
  `ExtensionRing(IntegerModRing(p, t), g)` and towers of extensions realize
  the rings R(mu_1, ..., mu_k) used by the class decomposition.
* `TruncatedRing(field, t)` -- F_q[u]/(u^t).

Every ring is a quotient of Z_m[Z_1..Z_k] (`ChainRing.lane_vars`), and an
element of an extension or truncated ring is the flat tuple of its ncoords
ints in [0, m), its lanes, in that order: one `LaneRing` class runs their
arithmetic from ``lane_vars`` and ``lane_modulus`` alone, on ints.  A ring
loops over sequences of payloads only for `Poly` products and division
(``_convolve``, ``_divide``): `Poly` and `MPoly` sums, valuation, residue,
lift and a-shifts are maps over their lane vectors mod m.

Finite fields are simply chain rings with nilpotency index t = 1, so every
algorithm written against this interface works over fields as well.

All values are immutable; every operation is a pure function, so rings and
elements can be shared freely between threads.
"""

from __future__ import annotations

import copy
import json
import sys
from functools import cached_property, lru_cache
from math import gcd, isqrt
from operator import add

from .errors import BudgetExceeded, DomainError, InternalError
from .kernel import LaneBox, convolve_mod, divide_monic_mod, product_box
from .polys import Poly, _coeff_text, is_irreducible, power, smallest_irreducible


class RingElem:
    """An element of a chain ring; raw payload plus owning ring."""

    __slots__ = ("ring", "data")

    def __init__(self, ring, data):
        self.ring = ring
        self.data = data

    def _coerce(self, other):
        if isinstance(other, RingElem):
            if other.ring is self.ring or other.ring == self.ring:
                return other
            raise DomainError(f"mixing elements of {self.ring} and {other.ring}")
        if isinstance(other, int):
            return RingElem(self.ring, self.ring._from_int(other))
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RingElem(self.ring, self.ring._add(self.data, other.data))

    __radd__ = __add__

    def __neg__(self):
        return RingElem(self.ring, self.ring._neg(self.data))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RingElem(self.ring, self.ring._add(self.data, self.ring._neg(other.data)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RingElem(self.ring, self.ring._mul(self.data, other.data))

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            return self.ring.unit_inverse(self) ** (-e)
        return power(self, e, self.ring.one)

    def __eq__(self, other):
        if isinstance(other, int):
            other = RingElem(self.ring, self.ring._from_int(other))
        return (
            isinstance(other, RingElem)
            and self.ring == other.ring
            and self.data == other.data
        )

    def __hash__(self):
        return hash(self.data)

    def is_zero(self):
        return self.data == self.ring._zero

    def valuation(self):
        """Largest k with self in <a^k>; the zero element gets t."""
        return self.ring._val(self.data)

    def residue(self):
        """Image in the residue field."""
        rf = self.ring.residue_field
        return RingElem(rf, self.ring._residue(self.data))

    def coords(self):
        """Flat integer coordinates (ascending basis order)."""
        return self.ring._coords(self.data)

    def int_repr(self):
        return _coeff_text(self.coords())

    def __repr__(self):
        return f"RingElem({self.int_repr()}, {self.ring!r})"


class ChainRing:
    """Shared interface of the three concrete chain ring classes.

    Subclasses set: p (residue characteristic), t (nilpotency index),
    l (residue degree over F_p), q = p^l, size = q^t, ncoords, key, and the
    raw payload operations _add/_neg/_mul/_val/... used by `RingElem`.

    Every ring here is also a quotient of Z_m[Z_1,...,Z_k] (m = p^t, or p
    over a truncated ring): ``lane_modulus`` is m and ``lane_vars`` lists
    (deg, rule) per Z_i, Z_1 fastest, in the form `kernel.product_box`
    reads.  An extension contributes its base's
    variables plus (deg, its modulus); F_q[u]/u^t its field's plus (t, None),
    since u^t = 0.  ``_lanes`` flattens payloads to their ncoords ints in
    that order, and ``_from_lanes`` is its inverse on reduced ints.

    The radical generator a is p, or u when a rule-less u is present, so
    the ``_lane_*`` maps read a lane vector of any number of elements -- a
    payload, or the lanes of a `Poly` or an `MPoly` -- in two cases: lanes
    mod p or divided by p^k, or the lanes at u-level 0 or shifted by k
    u-levels.
    """

    def _coords(self, a):
        return self._lanes([a])

    def _from_int(self, v):
        return self._from_lanes([v % self.lane_modulus] + [0] * (self.ncoords - 1))[0]

    def _from_coords(self, coords):
        return self._from_lanes([c % self.lane_modulus for c in coords])[0]

    def _from_rank(self, r):
        m = self.lane_modulus
        return self._from_lanes([r // m**i % m for i in range(self.ncoords)])[0]

    def fold_rule(self, modulus):
        """X^d = -(modulus - X^d) for a monic modulus of degree d over this
        ring, as the (j, lane, value) triples of `kernel.product_box`: value
        times X^j times the lane-th monomial of `lane_vars`."""
        lanes = self._lanes([self._neg(c) for c in modulus.data[:-1]])
        k = self.ncoords
        return tuple((i // k, i % k, v) for i, v in enumerate(lanes) if v)

    # (stride, t) of the rule-less lane variable u, or None when a = p
    _u = None

    def _lane_val(self, lanes):
        """The least valuation of the elements of a lane vector, t when all
        are zero.  With a = u it is the least u-level with a nonzero lane in
        any element.  With a = p an element's valuation is the least v_p of
        its lanes (capped at t), so the vector's is min v_p over all lanes:
        v_p of their gcd with m = p^t, one gcd."""
        if self._u:
            s, t = self._u
            for i in range(t):
                if any(any(lanes[j :: s * t]) for j in range(i * s, (i + 1) * s)):
                    return i
            return t
        g, v = gcd(self.lane_modulus, *lanes), 0
        while g > 1:
            g //= self.p
            v += 1
        return v

    def _lane_residue(self, lanes):
        """The residue field lanes of a lane vector: every lane mod p, or
        the lanes at u-level 0."""
        if self._u:
            s, t = self._u
            return tuple([x for i in range(0, len(lanes), s * t) for x in lanes[i : i + s]])
        return tuple([x % self.p for x in lanes])

    def _lane_lift(self, lanes):
        """The coordinatewise lift of residue field lanes: the same lanes,
        or those lanes at u-level 0 and zero above."""
        if self._u:
            s, t = self._u
            pad = (0,) * (s * (t - 1))
            return tuple([x for i in range(0, len(lanes), s) for x in (*lanes[i : i + s], *pad)])
        return tuple(lanes)

    def _lane_shift(self, lanes, k):
        """Every element of a lane vector times a^k, or for k < 0 divided
        by a^-k, which is exact on elements of valuation at least -k: lanes
        times p^k mod m or divided by p^-k, or moved k u-levels up or down."""
        if self._u:
            s, t = self._u
            span = s * t
            pad = (0,) * min(s * abs(k), span)
            if k < 0:
                return tuple([x for i in range(0, len(lanes), span) for x in (*lanes[i + len(pad) : i + span], *pad)])
            return tuple([x for i in range(0, len(lanes), span) for x in (*pad, *lanes[i : i + span - len(pad)])])
        if k < 0:
            return tuple([x // self.p**-k for x in lanes])
        m = self.lane_modulus
        f = self.p**k % m
        return tuple([x * f % m for x in lanes])

    @property
    def zero(self):
        return RingElem(self, self._zero)

    @property
    def one(self):
        return RingElem(self, self._one)

    @property
    def a(self):
        """A fixed generator of the maximal ideal (zero when t = 1)."""
        return RingElem(self, self._a)

    def elem(self, data):
        return RingElem(self, data)

    def _payload(self, x):
        """The payload of an int or of an element of this ring; anything
        else, an element of another ring included, is a `DomainError`."""
        if isinstance(x, int):
            return self._from_int(x)
        if isinstance(x, RingElem) and (x.ring is self or x.ring == self):
            return x.data
        raise DomainError(f"{x!r} is not an element of {self!r}")

    def from_int(self, v):
        return RingElem(self, self._from_int(int(v)))

    def from_coords(self, coords):
        coords = list(coords)
        if len(coords) != self.ncoords:
            raise DomainError(f"expected {self.ncoords} coordinates, got {len(coords)}")
        return RingElem(self, self._from_coords(coords))

    def from_rank(self, r):
        return RingElem(self, self._from_rank(r))

    def elements(self):
        """All elements in a fixed order (rank ascending)."""
        for r in range(self.size):
            yield RingElem(self, self._from_rank(r))

    def lift(self, fe):
        """A fixed section of the residue map (coordinatewise lift)."""
        if fe.ring != self.residue_field:
            raise DomainError("lift expects a residue field element")
        return RingElem(self, self._lift(fe.data))

    def divide_by_a(self, x, k=1):
        """The canonical y with a^k * y = x; requires valuation(x) >= k."""
        if self._val(x.data) < k:
            raise DomainError(f"element is not divisible by a^{k}")
        return RingElem(self, self._div_a(x.data, k))

    def unit_inverse(self, x):
        """Multiplicative inverse of a unit; `_inverse` on its payload is
        x^(q-2) over a field, else Newton steps v <- v(2 - xv) from the
        lifted residue inverse."""
        return RingElem(self, self._inverse(x.data))

    def _inverse(self, a):
        if self._val(a) != 0:
            raise DomainError("not a unit")
        if self.t == 1:
            return power(a, self.size - 2, self._one, self._mul)
        v = self._lift(self.residue_field._inverse(self._residue(a)))
        two = self._from_int(2)
        for _ in range(self.t.bit_length() + 1):
            err = self._mul(a, v)
            if err == self._one:
                return v
            v = self._mul(v, self._add(two, self._neg(err)))
        raise InternalError("unit inversion did not converge")  # pragma: no cover

    # -- Teichmuller machinery ------------------------------------------------

    def teichmuller(self, x):
        """The Teichmuller representative sharing x's residue (y with y^q = y)."""
        y = x
        for _ in range(self.t - 1):
            y = y**self.q
        return y

    def teichmuller_set(self):
        """All q solutions of y^q = y, one per residue class, in residue order."""
        return [self.teichmuller(self.lift(c)) for c in self.residue_field.elements()]

    def adic_digits(self, x):
        """Teichmuller digits g_i with x = sum a^i g_i, unique."""
        digits = []
        cur = x
        for i in range(self.t):
            g = self.teichmuller(cur)
            digits.append(g)
            if i < self.t - 1:
                cur = self.divide_by_a(cur - g)
        return digits

    def __eq__(self, other):
        return isinstance(other, ChainRing) and self.key == other.key

    def __hash__(self):
        return hash(self.key)


class IntegerModRing(ChainRing):
    """Z_{p^t}: the prime-power integer ring (a field when t = 1)."""

    def __init__(self, p, t):
        if p < 2 or not _is_prime(p):
            raise DomainError(f"p = {p} is not prime")
        if t < 1:
            raise DomainError(f"nilpotency index t = {t} must be >= 1")
        self.p = p
        self.t = t
        self.l = 1
        self.q = p
        self.size = p**t
        self.ncoords = 1
        self.key = ("zmod", p, t)
        self._zero = 0
        self._one = 1 % self.size
        self._a = p % self.size if t > 1 else 0
        self.lane_modulus = self.size
        self.lane_vars = ()

    def _add(self, a, b):
        return (a + b) % self.size

    def _neg(self, a):
        return (-a) % self.size

    def _mul(self, a, b):
        return (a * b) % self.size

    def _convolve(self, a, b):
        return convolve_mod(a, b, self.size)

    def _divide(self, rem, div):
        return divide_monic_mod(rem, div, self.size)

    def _val(self, a):
        if a == 0:
            return self.t
        v = 0
        while a % self.p == 0:
            a //= self.p
            v += 1
        return v

    def _residue(self, a):
        return a % self.p

    def _lift(self, a):
        return a

    def _div_a(self, a, k):
        return a // self.p**k

    def _lanes(self, payloads):
        return payloads

    def _from_lanes(self, lanes):
        return lanes

    @cached_property
    def residue_field(self):
        return self if self.t == 1 else IntegerModRing(self.p, 1)

    def _inverse(self, a):
        try:
            return pow(a, -1, self.size)
        except ValueError:
            raise DomainError("not a unit") from None

    def __repr__(self):
        if self.t == 1:
            return f"GF({self.p})"
        return f"Z{self.size}"


class LaneRing(ChainRing):
    """The payload operations of a ring whose elements are the tuples of
    their ncoords lanes, from ``lane_vars`` and ``lane_modulus`` alone:
    sums lanewise mod m, products in the int loop of `kernel.LaneBox`, and
    valuation, residue, lift and division by a^k by the ``_lane_*`` maps.
    Subclasses set p, t and l, then `_init_lanes` sets the lanes, q and
    size."""

    def _init_lanes(self, lane_vars, m):
        self.lane_vars, self.lane_modulus, self.ncoords = lane_vars, m, 1
        for d, rule in lane_vars:
            if rule is None:
                self._u = self.ncoords, d
            self.ncoords *= d
        self.q, self.size = self.p**self.l, m**self.ncoords
        self._zero = (0,) * self.ncoords
        self._one = (1,) + self._zero[1:]
        self._a = self._lane_shift(self._one, 1)

    @cached_property
    def _box(self):
        place, size, folds = product_box(self.lane_vars)
        s, t = self._u or (1, 1)
        return LaneBox(place, size, folds, tuple(i // s % t for i in range(self.ncoords)), t, self.lane_modulus)

    def _add(self, a, b):
        m = self.lane_modulus
        return tuple([(x + y) % m for x, y in zip(a, b)])

    def _neg(self, a):
        m = self.lane_modulus
        return tuple([-x % m for x in a])

    def _mul(self, a, b):
        return self._box.product(a, b)

    def _convolve(self, a, b):
        box = self._box.blocks(len(a) + len(b) - 1)
        return self._from_lanes(box.product(self._lanes(a), self._lanes(b)))

    def _divide(self, rem, div):
        """`kernel.divide_monic_mod` on lanes: the long division of the
        payload list ``rem`` by X^d - (div[0] + div[1] X + ... + div[d-1]
        X^(d-1)), div given as its d * ncoords lanes, d >= 0, as the list of
        quotient coefficients above the d of the remainder.  Each step
        reduces the quotient coefficient c of X^(k-d) and adds c times all
        of div in one `kernel.LaneBox` product to the lanes below; the
        remainder is reduced once at the end."""
        n, m, d = self.ncoords, self.lane_modulus, len(div) // self.ncoords
        box, lanes = self._box.blocks(d), self._lanes(rem)
        for k in range(len(rem) - 1, d - 1, -1):
            c = lanes[k * n : (k + 1) * n] = [x % m for x in lanes[k * n : (k + 1) * n]]
            if any(c):
                lanes[(k - d) * n : k * n] = map(add, lanes[(k - d) * n : k * n], box.product(div, c))
        return self._from_lanes([x % m for x in lanes])

    _val = ChainRing._lane_val

    def _residue(self, a):
        return self.residue_field._from_lanes(self._lane_residue(a))[0]

    def _lift(self, a):
        return self._lane_lift(self.residue_field._lanes([a]))

    def _div_a(self, a, k):
        return self._lane_shift(a, -k)

    def _lanes(self, payloads):
        return [x for a in payloads for x in a]

    def _from_lanes(self, lanes):
        return list(zip(*[iter(lanes)] * self.ncoords))


class ExtensionRing(LaneRing):
    """base[Z]/(modulus) for a monic basic irreducible modulus.

    Shares the radical generator and nilpotency index of the base; the
    residue field gains degree deg(modulus).  An element's lanes are the
    base lanes of its coordinates in the monomial basis 1, Z, ...,
    Z^{deg-1}, one block per coordinate.
    """

    def __init__(self, base, modulus, check=True):
        if not modulus.is_monic() or modulus.degree < 1:
            raise DomainError("extension modulus must be monic of degree >= 1")
        if modulus.ring != base:
            raise DomainError("extension modulus must have coefficients in the base ring")
        if check and not is_irreducible(modulus.residue()):
            raise DomainError("extension modulus is not basic irreducible")
        m = modulus.degree
        self.base = base
        self.modulus = modulus
        self.deg = m
        self.p = base.p
        self.t = base.t
        self.l = base.l * m
        self.key = ("ext", base.key, modulus.data)
        self._init_lanes(base.lane_vars + ((m, base.fold_rule(modulus)),), base.lane_modulus)

    @cached_property
    def residue_field(self):
        if self.t == 1:
            return self
        return ExtensionRing(self.base.residue_field, self.modulus.residue(), check=False)

    def embed(self, x):
        """The base ring inside the extension: the base lanes, then zeros."""
        if x.ring != self.base:
            raise DomainError("embed expects a base ring element")
        return RingElem(self, tuple(self.base._lanes([x.data])) + self._zero[self.base.ncoords :])

    def retract(self, x):
        """Inverse of embed; fails when x is not in the base ring."""
        k = self.base.ncoords
        if any(x.data[k:]):
            raise DomainError("element does not lie in the base ring")
        return RingElem(self.base, self.base._from_lanes(x.data[:k])[0])

    def __repr__(self):
        if isinstance(self.base, IntegerModRing) and self.t == 1:
            return f"GF({self.size})"
        if isinstance(self.base, IntegerModRing):
            return f"GR({self.base.size},{self.deg})"
        return f"Ext({self.base!r},deg={self.deg})"


class TruncatedRing(LaneRing):
    """F_q[u]/(u^t): chain ring of characteristic p with radical generator
    u; an element's lanes are the field lanes of its coordinates at u^0,
    ..., u^{t-1}, one block per power of u.  At t = 1 it is its own residue
    field, as every ring with t = 1 is."""

    def __init__(self, field, t):
        if field.t != 1:
            raise DomainError("truncated ring coefficients must form a field")
        if t < 1:
            raise DomainError(f"nilpotency index t = {t} must be >= 1")
        self.field, self.residue_field = field, self if t == 1 else field
        self.p = field.p
        self.t = t
        self.l = field.l
        self.key = ("trunc", field.key, t)
        self._init_lanes(field.lane_vars + ((t, None),), field.lane_modulus)

    def __repr__(self):
        return f"GF({self.q})[u]/u^{self.t}"


# -- construction from descriptors --------------------------------------------


# The largest trial divisor `_is_prime` tries: enough for every n <= 2^40.
PRIME_TRIAL_DIVISORS = 2**20


@lru_cache(maxsize=None)
def _is_prime(n):
    """n is prime, by trial division up to `PRIME_TRIAL_DIVISORS`; when no
    divisor that small divides n and sqrt(n) lies beyond, `BudgetExceeded`.
    Run once per n and process: a ring descriptor builds up to three
    `IntegerModRing`s of one p after `ring_construct` has checked it."""
    if n < 2:
        return False
    root = isqrt(n)
    for d in range(2, min(root, PRIME_TRIAL_DIVISORS) + 1):
        if n % d == 0:
            return False
    if root > PRIME_TRIAL_DIVISORS:
        raise BudgetExceeded(f"p = {n} has no factor up to 2^20 and is too large to prove prime")
    return True


@lru_cache(maxsize=None)
def default_modulus(field, degree):
    """`smallest_irreducible(field, degree)`, searched once per process: the
    reproducible modulus of Galois ring, field and splitting field extensions."""
    return smallest_irreducible(field, degree)


def ring_construct(desc):
    """Build a chain ring from its JSON descriptor, a dict with the keys
    kind ("galois" or "truncated"), p, t, l (1 when absent) and an optional
    modulus (ascending coefficients, only for l > 1).  The ring's
    ``descriptor`` holds the descriptor with l filled in."""
    if not isinstance(desc, dict):
        raise DomainError("a ring descriptor must be a JSON object")
    unknown = [k for k in desc if k not in ("kind", "p", "t", "l", "modulus")]
    if unknown:
        raise DomainError(f"ring descriptor has unknown keys {unknown}")
    try:
        kind, p, t, l = desc["kind"], desc["p"], desc["t"], desc.get("l", 1)
        modulus = list(desc["modulus"]) if "modulus" in desc else None
    except KeyError as exc:
        raise DomainError(f"ring descriptor has no {exc.args[0]!r}") from None
    except TypeError as exc:
        raise DomainError(f"bad ring descriptor: {exc}") from None
    for value in (p, t, l, *(modulus or ())):
        if type(value) is not int:
            raise DomainError(f"bad ring descriptor: {value!r} is not an integer")
    if kind not in ("galois", "truncated"):
        raise DomainError(f"unknown ring kind {kind!r}")
    if not _is_prime(p):
        raise DomainError(f"p = {p} is not prime")
    if t < 1 or l < 1:
        raise DomainError("t and l must both be >= 1")
    # A Galois ring's coordinates are ints below p^t; each must print within
    # the int-to-text digit limit, p^t <= 10^limit.  p^t >= 2^((bitlen(p) - 1) t)
    # refuses a large t before p^t is formed, and no int is converted to text.
    limit = sys.get_int_max_str_digits()
    if kind == "galois" and limit and not ((p.bit_length() - 1) * t < 4 * limit and p**t <= 10**limit):
        raise BudgetExceeded(f"p^t = {p}^{t} has coordinates past the {limit}-digit int-to-text limit")
    if l == 1 and modulus is not None:
        raise DomainError("a modulus applies only when l > 1")
    if modulus is not None and len(modulus) != l + 1:
        raise DomainError(f"modulus must have degree l = {l}")

    # Z_(p^t) for a Galois ring and F_p under a truncated one, extended when
    # l > 1: a searched default is irreducible, and so is its monic lift; a
    # user's modulus is checked
    ring = IntegerModRing(p, t if kind == "galois" else 1)
    if l > 1:
        coeffs = default_modulus(IntegerModRing(p, 1), l).data if modulus is None else modulus
        ring = ExtensionRing(ring, Poly.from_ints(ring, coeffs), check=modulus is not None)
    if kind == "truncated":
        ring = TruncatedRing(ring, t)
    ring.descriptor = {"kind": kind, "p": p, "t": t, "l": l}
    if modulus is not None:
        ring.descriptor["modulus"] = modulus
    return ring


def printable_count(n, what):
    """n, an exact count that JSON output prints as text; past the
    int-to-text digit limit, n >= 10^limit, it is a `BudgetExceeded`, as a
    ring whose coordinates would be.  8^limit < 10^limit, so a count of at
    most 3 * limit bits passes without 10^limit being formed."""
    limit = sys.get_int_max_str_digits()
    if limit and n.bit_length() > 3 * limit and n >= 10**limit:
        raise BudgetExceeded(f"the {what} has more than {limit} digits, past the int-to-text limit")
    return n


def ring_from_json(text_or_obj):
    obj = json.loads(text_or_obj) if isinstance(text_or_obj, str) else text_or_obj
    return ring_construct(obj)


def ring_to_json(ring):
    desc = getattr(ring, "descriptor", None)
    if desc is None:
        raise DomainError("ring was not built from a descriptor")
    return copy.deepcopy(desc)


def FiniteField(p, l=1, modulus=None):
    """Convenience constructor for F_{p^l} as a chain ring with t = 1."""
    desc = {"kind": "galois", "p": p, "t": 1, "l": l}
    return ring_construct(desc if modulus is None else {**desc, "modulus": modulus})


def frobenius_lift(ring, x, q=None):
    """The automorphism acting on Teichmuller digits by q-th powers."""
    if q is None:
        if not isinstance(ring, ExtensionRing):
            raise DomainError("frobenius_lift needs an extension ring or explicit q")
        q = ring.base.q
    digits = ring.adic_digits(x)
    acc = ring.zero
    apow = ring.one
    for g in digits:
        acc = acc + apow * g**q
        apow = apow * ring.a
    return acc


def ring_trace(ext, x):
    """Trace of x from an extension ring down to its base ring."""
    if not isinstance(ext, ExtensionRing):
        raise DomainError("ring_trace expects an ExtensionRing")
    q = ext.base.q
    total = x
    y = x
    for _ in range(ext.deg - 1):
        y = frobenius_lift(ext, y, q)
        total = total + y
    return ext.retract(total)
