"""Exact polynomial arithmetic over chain rings and finite fields.

A univariate polynomial (`Poly`) holds payloads: it is the tuple of its raw
coefficient payloads in ascending degree, with a nonzero leading one; the
zero polynomial has an empty tuple.
Multivariate residue classes (`MPoly`) live in a fixed quotient
R[X_1,...,X_r]/<t_1(X_1),...,t_r(X_r)> (an `Ambient`) and are kept in normal
form: a dense coefficient vector indexed by the mixed-radix rank of the
exponent tuple, X_1 varying fastest.  An `MPoly` stores that vector only as
its lanes: every ring here is a quotient of Z_m[Z_1..Z_k] (see
`rings.ChainRing`), and each coefficient is its k-lane block of ints in
[0, m), the ring's own variables fastest.

Every product runs a kernel of `kernel.py`.  `MPoly.__mul__` is one packed
big-int product of two lane vectors, and sums, negation, scaling by an int
or by a power of a, and equality are operations on them; `pow_mod` runs
the same packed product in R[X]/(g).  `Poly` products and division run the
coefficient ring's payload loops, `_convolve` and `_divide`: plain ints
over Z_m, and over every other ring the int loop of `kernel.LaneBox`, one
ring box per output coefficient.  Every other `Poly` operation runs on
payloads too.  The `MPoly` views -- residue, lift, valuation, text and
JSON -- read lanes, and `poly_to_text` and `MPoly.to_text` render the same
(exponents, coordinates) pairs.  So
`RingElem`s are built only at the API edge, by the ``coeffs``/``coeff``/
``leading`` views, `evaluate` and `map_coeffs`, and `Poly.from_coeffs`
takes ints and elements in.

Over a field, `distinct_degree` is the one distinct-degree loop, and its
first stage alone is Ben-Or's irreducibility test, `is_irreducible`.

Everything here is generic over the coefficient ring: it relies on the raw
payload operations ``_add``/``_neg``/``_mul``/``_inverse``/``_zero``/
``_payload`` and ``elem`` of the ring, on its payload loops ``_add_vec``/
``_neg_vec``/``_convolve``/``_divide``, on its lane maps ``_lanes``/
``_from_lanes``/``_lane_*`` and ``lane_modulus``, and on ``zero``/``one``/
``from_int`` for elements.
"""

from __future__ import annotations

import operator
from functools import cached_property

from .errors import BudgetExceeded, DomainError, InternalError
from .kernel import PackedLayout, packed_product

# Bound on n = deg t_1 * ... * deg t_r, the length of an ambient's dense vectors
MAX_AMBIENT_LENGTH = 2**16


class Poly:
    """Univariate polynomial: the tuple ``data`` of its raw coefficient
    payloads, ascending degree, with no trailing zero (see the module
    docstring).  ``Poly(ring, data, var)`` is internal; `from_coeffs` is the
    way in for ints and elements, and ``coeffs`` builds the `RingElem`s."""

    __slots__ = ("ring", "data", "var")

    def __init__(self, ring, data, var=0):
        z = ring._zero
        n = len(data)
        while n and data[n - 1] == z:
            n -= 1
        self.ring = ring
        self.data = tuple(data[:n])
        self.var = var

    @classmethod
    def from_coeffs(cls, ring, coeffs, var=0):
        """The polynomial with these ints or elements of ``ring`` as
        coefficients, ascending degree (`ChainRing._payload`)."""
        return cls(ring, [ring._payload(c) for c in coeffs], var)

    from_ints = from_coeffs  # the public name for int coefficients, kept

    @classmethod
    def from_lanes(cls, ring, lanes, var=0):
        """Wrap a lane vector (the inverse of `mod_lanes`)."""
        return cls(ring, ring._from_lanes(lanes), var)

    @classmethod
    def one(cls, ring, var=0):
        return cls(ring, (ring._one,), var)

    @classmethod
    def zero(cls, ring, var=0):
        return cls(ring, (), var)

    @classmethod
    def x(cls, ring, var=0):
        return cls(ring, (ring._zero, ring._one), var)

    @property
    def coeffs(self):
        """The coefficients as `RingElem`s, built anew on every read."""
        return tuple([self.ring.elem(c) for c in self.data])

    @property
    def degree(self):
        """Degree, with -1 for the zero polynomial."""
        return len(self.data) - 1

    def is_zero(self):
        return not self.data

    def coeff(self, i):
        return self.ring.elem(self.data[i]) if 0 <= i < len(self.data) else self.ring.zero

    @property
    def leading(self):
        return self.coeff(len(self.data) - 1)

    def is_monic(self):
        return bool(self.data) and self.data[-1] == self.ring._one

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.ring is not self.ring and other.ring != self.ring:
                raise DomainError(f"mixing polynomials over {self.ring} and {other.ring}")
            return other
        # an int or a bare ring element
        return Poly(self.ring, (self.ring._payload(other),), self.var)

    def __add__(self, other):
        a, b = self.data, self._coerce(other).data
        if len(a) < len(b):
            a, b = b, a
        return Poly(self.ring, self.ring._add_vec(a, b) + a[len(b):], self.var)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, self.ring._neg_vec(self.data), self.var)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        a, b = self.data, self._coerce(other).data
        if not a or not b:
            return Poly(self.ring, (), self.var)
        return Poly(self.ring, self.ring._convolve(a, b), self.var)

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise DomainError("negative polynomial power")
        return power(self, e, Poly.one(self.ring, var=self.var))

    def __divmod__(self, other):
        """Exact division with remainder; the divisor needs a unit leading
        coefficient (monic divisors in particular always work)."""
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        ring = self.ring
        lead = other.data[-1]
        if ring._val(lead) != 0:
            raise DomainError("divisor leading coefficient is not a unit")
        dv = other.degree
        if len(self.data) <= dv:
            return Poly(ring, (), self.var), self
        # divide by the monic other / lead, then scale the quotient by 1 / lead
        mul = ring._mul
        monic = lead == ring._one
        inv = lead if monic else ring._inverse(lead)
        div = ring._neg_vec(other.data[:-1] if monic else [mul(b, inv) for b in other.data[:-1]])
        rem = ring._divide(list(self.data), div)
        quo = rem[dv:] if monic else [mul(c, inv) for c in rem[dv:]]
        return Poly(ring, quo, self.var), Poly(ring, rem[:dv], self.var)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __eq__(self, other):
        if not isinstance(other, Poly):
            try:
                other = self._coerce(other)
            except DomainError:
                return False
        return self.ring == other.ring and self.data == other.data

    def __hash__(self):
        return hash((self.ring, self.data))

    def evaluate(self, x, embed=None):
        """Horner evaluation at ``x``; ``embed`` maps coefficients into
        x's ring when that ring is an extension."""
        if embed is None:
            embed = lambda c: c
        acc = x.ring.zero
        for c in reversed(self.coeffs):
            acc = acc * x + embed(c)
        return acc

    def derivative(self):
        mul, from_int = self.ring._mul, self.ring._from_int
        return Poly(self.ring, [mul(c, from_int(i)) for i, c in enumerate(self.data[1:], 1)], self.var)

    def monic(self):
        """Unit-normalize so the leading coefficient is one."""
        if self.is_zero() or self.is_monic():
            return self
        ring = self.ring
        inv = ring._inverse(self.data[-1])
        return Poly(ring, [ring._mul(c, inv) for c in self.data], self.var)

    def map_coeffs(self, fn, ring=None):
        return Poly.from_coeffs(ring or self.ring, [fn(c) for c in self.coeffs], self.var)

    def residue(self):
        """Coefficientwise reduction to the residue field."""
        ring = self.ring
        return Poly(ring.residue_field, [ring._residue(c) for c in self.data], self.var)

    def rank_key(self):
        """Deterministic sort key: (degree, coefficient rank), the rank
        comparing coefficients from the leading one down."""
        return (self.degree, tuple(tuple(self.ring._coords(c)) for c in reversed(self.data)))

    def __repr__(self):
        return f"Poly({poly_to_text(self)!r})"


def poly_gcd(f, g):
    """Monic gcd over a field."""
    while not g.is_zero():
        f, g = g, f % g
    if f.is_zero():
        return f
    return f.monic()


def poly_ext_gcd(f, g):
    """Extended Euclid over a field: returns (d, s, t) with s*f + t*g = d, d monic."""
    ring = f.ring
    r0, r1 = f, g
    s0, s1 = Poly.one(ring, var=f.var), Poly.zero(ring, var=f.var)
    t0, t1 = Poly.zero(ring, var=f.var), Poly.one(ring, var=f.var)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    unit = Poly(ring, (ring._inverse(r0.data[-1]),), f.var)
    return r0 * unit, s0 * unit, t0 * unit


def power(base, e, one, mul=operator.mul):
    """base**e for an int e >= 0 by left-to-right square-and-multiply:
    bitlen(e) - 1 squarings and popcount(e) - 1 further products, none of
    them by ``one``, which is returned only for e = 0."""
    if e < 0:
        raise DomainError("negative power")
    if e == 0:
        return one
    result = base
    for bit in bin(e)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, base)
    return result


def packed_layout(ring, moduli):
    """The `kernel.PackedLayout` of ring[X_1..X_r]/(moduli) for monic
    moduli, X_1 fastest after the ring's own lane variables: an `Ambient`'s,
    and that of R[X]/(g) in `pow_mod` and `factor`."""
    rules = tuple((m.degree, ring.fold_rule(m)) for m in moduli)
    return PackedLayout(ring.lane_vars, rules, ring.lane_modulus)


def mod_lanes(f, mod):
    """The lane vector of f % mod, the `packed_layout` operand of
    R[X]/(mod): ncoords lanes for each of the deg(mod) coefficients."""
    ring = f.ring
    data = (f % mod).data
    return ring._lanes(data + (ring._zero,) * (mod.degree - len(data)))


def pow_mod(f, e, mod):
    """f**e modulo a monic ``mod`` of degree >= 1, in the variable of f.
    The square-and-multiply runs in R[X]/(mod) as packed products of
    lane vectors; `Poly`s are built only for f % mod and the result."""
    if not mod.is_monic() or mod.degree < 1:
        raise DomainError("pow_mod needs a monic modulus of degree >= 1")
    return _pow_mod(f, e, mod, packed_layout(f.ring, (mod,)))


def _pow_mod(f, e, mod, layout):
    """`pow_mod` with the `packed_layout` of R[X]/(mod) given."""
    ring = f.ring
    one = ring._lanes([ring._one] + [ring._zero] * (mod.degree - 1))
    lanes = power(mod_lanes(f, mod), e, one, lambda a, b: packed_product(a, b, layout))
    return Poly.from_lanes(ring, lanes, var=f.var)


def is_squarefree(f):
    """gcd(f, f') = 1 over the coefficient field."""
    if f.is_zero():
        raise DomainError("square-freeness of the zero polynomial is undefined")
    return poly_gcd(f, f.derivative()).degree == 0


def distinct_degree(f):
    """Lazy pairs (g, d), d ascending: g is the product of the degree-d
    irreducible factors of a monic square-free f over F_q, and the last
    pair is what is left once d passes half its degree.  For any f of
    degree >= 1, square-free or not, the first pair has d = deg f exactly
    when f is irreducible (Ben-Or): else it has a factor of degree <= deg/2.
    The `packed_layout` of R[X]/(rem) is built once per rem, so once per
    split and not once per d."""
    q = f.ring.size
    x = Poly.x(f.ring, var=f.var)
    rem, h, d, layout = f, x, 0, None
    while rem.degree >= 2 * (d + 1):
        d += 1
        layout = layout or packed_layout(f.ring, (rem,))
        h = _pow_mod(h, q, rem, layout)
        g = poly_gcd(h - x, rem)
        if g.degree > 0:
            yield g, d
            rem, layout = rem // g, None
            h = h % rem
    if rem.degree > 0:
        yield rem, rem.degree


def is_irreducible(f):
    """Irreducibility over the coefficient field: Ben-Or's test, one `distinct_degree` stage."""
    if f.ring.t != 1:
        raise DomainError("irreducibility test requires field coefficients")
    return f.degree >= 1 and next(distinct_degree(f.monic()))[1] == f.degree


def smallest_irreducible(field, degree):
    """The monic irreducible of the given degree over a field whose lower
    coefficients, read as base-|F| digits (constant term first), have the
    smallest rank."""
    size = field.size
    for rank in range(size**degree):
        coeffs = []
        r = rank
        for _ in range(degree):
            coeffs.append(field._from_rank(r % size))
            r //= size
        cand = Poly(field, coeffs + [field._one])
        if is_irreducible(cand):
            return cand
    raise InternalError(f"no irreducible of degree {degree} over {field}")  # pragma: no cover


def _coeff_text(coords):
    """A coefficient as text: its one coordinate, or "[c_0,...,c_{k-1}]"."""
    return str(coords[0]) if len(coords) == 1 else "[" + ",".join(map(str, coords)) + "]"


def _nonzero_blocks(lanes, k):
    """(i, coordinates) of each nonzero k-lane block i of a lane vector, i ascending."""
    blocks = (lanes[i : i + k] for i in range(0, len(lanes), k))
    return [(i, cs) for i, cs in enumerate(blocks) if any(cs)]


def _terms_text(terms, names):
    """The 'c*x1^a1*...*xr^ar' terms of (exponents, coordinates) pairs,
    joined by '+' in the given order; "0" when there are none."""
    out = []
    for exps, cs in terms:
        c = _coeff_text(cs)
        factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e]
        out.append(c if not factors else "*".join(factors if c == "1" else [c, *factors]))
    return "+".join(out) or "0"


def poly_to_text(f, var_names=None):
    """Render a polynomial in the 'c*x^k' text format (univariate)."""
    names = ("x",) if var_names is None else (var_names[f.var],)
    blocks = _nonzero_blocks(f.ring._lanes(f.data), f.ring.ncoords)
    return _terms_text([((i,), cs) for i, cs in reversed(blocks)], names)


def parse_poly_text(text, ring, nvars=1):
    """Parse the term format 'c*x1^a1*...*xr^ar' joined by '+' or '-'.

    Univariate input may use a bare variable letter; coefficients are
    integers reduced into the ring. Returns a dict exponent tuple -> element.
    """
    s = text.replace(" ", "").replace("**", "^")
    if not s:
        raise DomainError("empty polynomial string")
    # split into signed terms
    terms = []
    cur = ""
    sign = 1
    for ch in s:
        if ch in "+-" and cur:
            terms.append((sign, cur))
            sign = 1 if ch == "+" else -1
            cur = ""
        elif ch in "+-" and not cur:
            if ch == "-":
                sign = -sign
        else:
            cur += ch
    if cur:
        terms.append((sign, cur))
    out = {}
    for sign, term in terms:
        coeff = 1
        exps = [0] * nvars
        for factor in term.split("*"):
            if not factor:
                raise DomainError(f"malformed term in {text!r}")
            if factor[0].isdigit():
                coeff *= _decimal(factor, "coefficient", text)
                continue
            namepart, caret, ppart = factor.partition("^")
            exps[_var_index(namepart, nvars)] += _decimal(ppart, "exponent", text) if caret else 1
        key = tuple(exps)
        add = ring.from_int(sign * coeff)
        out[key] = out.get(key, ring.zero) + add
    return {e: c for e, c in out.items() if not c.is_zero()}


def _decimal(digits, what, text):
    """int(digits); DomainError unless digits is decimal text within
    Python's int-from-text digit limit."""
    if not digits.isdecimal():
        raise DomainError(f"bad {what} {digits!r} in {text!r}")
    try:
        return int(digits)
    except ValueError:
        raise DomainError(f"bad {what}: {len(digits)} digits") from None


def _var_index(name, nvars):
    """x1..xr, or the bare aliases x, y, z, w of the first four variables.
    With one variable any letter, bare or indexed, names it: univariate
    moduli such as "y^4-1" are written in the letter of their variable."""
    name = name.lower()
    letter, index = name[:1], name[1:]
    if not letter.isalpha() or nvars > 1 and not (letter == "x" if index else name in "xyzw"):
        raise DomainError(f"bad variable name {name!r}")
    if index:
        idx = _decimal(index, "variable name", name) - 1
    else:
        idx = 0 if nvars == 1 else "xyzw".index(name)
    if not 0 <= idx < nvars:
        raise DomainError(f"variable {name!r} out of range for {nvars} variables")
    return idx


def parse_univariate(text, ring, var=0):
    terms = parse_poly_text(text, ring, nvars=1)
    if not terms:
        return Poly.zero(ring, var=var)
    deg = max(e[0] for e in terms)
    if deg > MAX_AMBIENT_LENGTH:
        raise BudgetExceeded(f"modulus degree {deg} exceeds the bound {MAX_AMBIENT_LENGTH}")
    data = [ring._zero] * (deg + 1)
    for (e,), c in terms.items():
        data[e] = c.data
    return Poly(ring, data, var)


class Ambient:
    """The quotient algebra R[X_1,...,X_r]/<t_1(X_1),...,t_r(X_r)>.

    Construction bounds n by `MAX_AMBIENT_LENGTH` and, unless ``unchecked``,
    checks that each residue modulus is square-free (semisimplicity); the
    term order (X_1 fastest) is frozen here for every vector downstream.
    """

    def __init__(self, ring, moduli, unchecked=False):
        moduli = tuple(moduli)
        if not moduli:
            raise DomainError("ambient needs at least one modulus")
        for i, m in enumerate(moduli):
            if not m.is_monic() or m.degree < 1 or m.ring != ring:
                raise DomainError(f"modulus {i + 1} must be monic of degree >= 1 over {ring}")
        self.ring = ring
        self.moduli = tuple(Poly(ring, m.data, i) for i, m in enumerate(moduli))
        self.degs = tuple(m.degree for m in moduli)
        self.r = len(moduli)
        strides = [1]
        for d in self.degs[:-1]:
            strides.append(strides[-1] * d)
        self.strides = tuple(strides)
        self.n = strides[-1] * self.degs[-1]
        if self.n > MAX_AMBIENT_LENGTH:
            raise BudgetExceeded(f"ambient length {self.n} exceeds the bound {MAX_AMBIENT_LENGTH}")
        self.unchecked = bool(unchecked)
        if ring.t > 1:
            # the residue ambient tests each residue modulus, and raises as below
            self.semisimple = self.residue_ambient.semisimple
        else:
            self.semisimple = all(is_squarefree(m) for m in self.moduli)
            if not self.semisimple and not unchecked:
                raise DomainError("residue moduli are not square-free; pass unchecked=True to force")

    @cached_property
    def layout(self):
        """The `packed_layout` of this ambient, built by its first product."""
        return packed_layout(self.ring, self.moduli)

    @property
    def abelian(self):
        return self.exponents is not None

    @property
    def exponents(self):
        """(e_1,...,e_r) when every modulus is X_i^e_i - 1, else None."""
        ring = self.ring
        minus_one = ring._neg(ring._one)
        for m in self.moduli:
            if m.data[:-1] != (minus_one,) + (ring._zero,) * (m.degree - 1):
                return None
        return self.degs

    def rank(self, exps):
        return sum(e * s for e, s in zip(exps, self.strides))

    def exps(self, rank):
        out = []
        for d in self.degs:
            out.append(rank % d)
            rank //= d
        return tuple(out)

    def key(self):
        return (
            self.ring,
            tuple(m.data for m in self.moduli),
        )

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, Ambient) and self.key() == other.key()

    def __hash__(self):
        return hash(("ambient", self.ring, self.degs))

    def __repr__(self):
        mods = ", ".join(poly_to_text(m, self.var_names()) for m in self.moduli)
        return f"Ambient({self.ring!r}; {mods})"

    def var_names(self):
        if self.r == 1:
            return ("x",)
        return tuple(f"x{i + 1}" for i in range(self.r))

    @cached_property
    def residue_ambient(self):
        """Same moduli over the residue field (identity when t = 1)."""
        if self.ring.t == 1:
            return self
        return Ambient(
            self.ring.residue_field,
            [m.residue() for m in self.moduli],
            unchecked=self.unchecked,
        )

    # -- element construction ------------------------------------------------

    def zero(self):
        return MPoly(self, [0] * (self.n * self.ring.ncoords))

    def one(self):
        return self.constant(1)

    def constant(self, c):
        return self.monomial((0,) * self.r, c)

    def monomial(self, exps, c=1):
        """c X^exps, for exponents in normal form 0 <= e_i < deg t_i.  Here,
        in `constant`, `from_vector` and `from_terms`, c is an int or an
        element of the ambient's ring (`ChainRing._payload`)."""
        exps = tuple(exps)
        if len(exps) != self.r or not all(0 <= e < d for e, d in zip(exps, self.degs)):
            raise DomainError(f"exponents {exps} are not in normal form for degrees {self.degs}")
        vec = [self.ring._zero] * self.n
        vec[self.rank(exps)] = self.ring._payload(c)
        return MPoly(self, self.ring._lanes(vec))

    def from_vector(self, coeffs):
        coeffs = list(coeffs)
        if len(coeffs) != self.n:
            raise DomainError(f"vector length {len(coeffs)} != ambient length {self.n}")
        return MPoly(self, self.ring._lanes([self.ring._payload(c) for c in coeffs]))

    def from_terms(self, terms):
        """Normal form of a raw exponent dict {exps: coeff}; each exps is a
        tuple of r ints >= 0, and one >= deg t_k reduces through `pow_mod`."""
        ring = self.ring
        vec = [ring._zero] * self.n
        for exps, c in terms.items():
            self._check_raw(exps)
            c = ring._payload(c)
            if c == ring._zero:
                continue
            for rank, cc in self._reduce_monomial(exps, c):
                vec[rank] = ring._add(vec[rank], cc)
        return MPoly(self, ring._lanes(vec))

    def _check_raw(self, exps):
        if not (type(exps) is tuple and len(exps) == self.r and all(type(e) is int and e >= 0 for e in exps)):
            raise DomainError(f"exponents {exps!r} are not {self.r} non-negative integers")

    def _reduce_monomial(self, exps, c):
        # reduce one raw monomial with payload c to normal form, variable by variable
        ring = self.ring
        parts = [(0, c)]
        for k, e in enumerate(exps):
            stride = self.strides[k]
            if e < self.degs[k]:
                parts = [(rank + e * stride, cc) for rank, cc in parts]
                continue
            xe = pow_mod(Poly.x(ring, var=k), e, self.moduli[k])
            expansion = [(j, ce) for j, ce in enumerate(xe.data) if ce != ring._zero]
            parts = [
                (rank + j * stride, ring._mul(cc, ce))
                for rank, cc in parts
                for j, ce in expansion
            ]
        return parts

    def from_polynomial(self, f):
        """Embed a univariate Poly (in variable f.var) into the quotient."""
        if f.ring != self.ring or not 0 <= f.var < self.r:
            raise DomainError(f"{f!r} is not a polynomial over {self.ring!r} in one of {self.r} variables")
        return _poly_over_tower_to_mpoly(f, self, f.var, 0)

    def parse(self, text):
        return self.from_terms(parse_poly_text(text, self.ring, nvars=self.r))

    def from_json(self, obj):
        """Inverse of MPoly.to_json: {"vars": r, "coeffs": [[exps, c], ...]}
        with exps a list of r ints >= 0 and c an int or a list of int
        coordinates; terms with the same exps sum, as in `parse`."""
        if not isinstance(obj, dict) or type(obj.get("coeffs")) is not list or obj.get("vars", self.r) != self.r:
            raise DomainError(f'polynomial JSON must be {{"vars": {self.r}, "coeffs": [...]}}')
        terms = {}
        for term in obj["coeffs"]:
            c = term[1] if type(term) is list and len(term) == 2 and type(term[0]) is list else None
            if not (type(c) is int or type(c) is list and all(type(x) is int for x in c)):
                raise DomainError("a polynomial JSON term is not [exponent list, int or list of ints]")
            exps = tuple(term[0])
            self._check_raw(exps)
            c = self.ring.from_coords(c) if type(c) is list else self.ring.from_int(c)
            terms[exps] = terms[exps] + c if exps in terms else c
        return self.from_terms(terms)

    @cached_property
    def tau_permutation(self):
        """Rank permutation of the inversion X_i -> X_i^{e_i - 1} (abelian)."""
        es = self.exponents
        if es is None:
            raise DomainError("the inversion automorphism needs an abelian ambient")
        return tuple(
            self.rank(tuple((-a) % e for a, e in zip(self.exps(rank), es)))
            for rank in range(self.n)
        )


class MPoly:
    """A residue class in an `Ambient`, always in normal form, held as its
    lane vector only (see the module docstring).  ``MPoly(ambient, lanes)``
    is internal: the `Ambient` constructors are the way in, and ``coeffs``
    builds the `RingElem`s."""

    __slots__ = ("ambient", "lanes")

    def __init__(self, ambient, lanes):
        self.ambient = ambient
        self.lanes = tuple(lanes)

    @property
    def coeffs(self):
        """The n coefficients as `RingElem`s, built anew on every read."""
        ring = self.ambient.ring
        return tuple([ring.elem(x) for x in ring._from_lanes(self.lanes)])

    def _coerce(self, other):
        if isinstance(other, MPoly):
            if other.ambient is not self.ambient and other.ambient != self.ambient:
                raise DomainError("polynomials live in different ambients")
            return other
        return self.ambient.constant(other)  # an int or a bare ring element

    def __add__(self, other):
        m = self.ambient.ring.lane_modulus
        return MPoly(self.ambient, [(x + y) % m for x, y in zip(self.lanes, self._coerce(other).lanes)])

    __radd__ = __add__

    def __neg__(self):
        m = self.ambient.ring.lane_modulus
        return MPoly(self.ambient, [-x % m for x in self.lanes])

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, int):
            return self.__rmul__(other)
        amb = self.ambient
        return MPoly(amb, packed_product(self.lanes, self._coerce(other).lanes, amb.layout))

    def __rmul__(self, other):
        """k * f for an int k scales the lanes mod m, so `__mul__` is called
        for products only; c * f for a ring element c is f * c."""
        if not isinstance(other, int):
            return self * other
        m = self.ambient.ring.lane_modulus
        return MPoly(self.ambient, [x * other % m for x in self.lanes])

    def __pow__(self, e):
        if e < 0:
            raise DomainError("negative power in quotient algebra")
        return power(self, e, self.ambient.one())

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            try:
                other = self._coerce(other)
            except DomainError:
                return False
        return self.lanes == other.lanes and self.ambient == other.ambient

    def __hash__(self):
        return hash(self.lanes)

    def is_zero(self):
        return not any(self.lanes)

    def valuation(self):
        """Minimum coefficient valuation (t for the zero class), read on the
        lanes (`ChainRing._lane_val`)."""
        return self.ambient.ring._lane_val(self.lanes)

    def times_a(self, k):
        """self * a^k, on the lanes (`ChainRing._lane_shift`): every lane
        times p^k mod m, or every coefficient moved up k u-levels."""
        return MPoly(self.ambient, self.ambient.ring._lane_shift(self.lanes, k))

    def residue(self):
        """Image in the residue quotient algebra."""
        ra = self.ambient.residue_ambient
        if ra is self.ambient:
            return self
        return MPoly(ra, self.ambient.ring._lane_residue(self.lanes))

    def lift_to(self, ambient):
        """Coefficientwise lift into an ambient over the full chain ring."""
        ring, field = ambient.ring, self.ambient.ring
        if field != ring.residue_field:
            raise DomainError("lift expects a residue field element")
        if self.ambient.n != ambient.n:
            raise DomainError(f"vector length {self.ambient.n} != ambient length {ambient.n}")
        return MPoly(ambient, ring._lane_lift(self.lanes))

    def tau(self):
        """The weight-preserving inversion automorphism X_i -> X_i^{-1}."""
        amb, lanes = self.ambient, self.lanes
        perm, k = amb.tau_permutation, amb.ring.ncoords
        # an involution: rank s takes the coefficient at rank perm[s]
        return MPoly(amb, [lanes[perm[s // k] * k + s % k] for s in range(len(lanes))])

    def to_text(self):
        amb = self.ambient
        blocks = _nonzero_blocks(self.lanes, amb.ring.ncoords)
        return _terms_text([(amb.exps(i), cs) for i, cs in reversed(blocks)], amb.var_names())

    def to_json(self):
        amb = self.ambient
        return {
            "vars": amb.r,
            "coeffs": [
                [list(amb.exps(i)), cs[0] if len(cs) == 1 else list(cs)]
                for i, cs in _nonzero_blocks(self.lanes, amb.ring.ncoords)
            ],
        }

    def __repr__(self):
        return f"MPoly({self.to_text()!r})"


def _embed_poly(f, ring):
    """f over ``ring``, a tower of extensions of f.ring: a base coordinate
    vector padded with zeros is the same element in the tower, so each
    coefficient's lanes are padded to ring.ncoords."""
    k = f.ring.ncoords
    lanes, pad = f.ring._lanes(f.data), (0,) * (ring.ncoords - k)
    padded = [x for i in range(0, len(lanes), k) for x in (*lanes[i : i + k], *pad)]
    return Poly.from_lanes(ring, padded, f.var)


def _poly_over_tower_to_mpoly(f, ambient, var, depth=None):
    """f, a polynomial in X_{var+1} whose coefficients lie in a tower of
    ``depth`` (by default ``var``) extensions of ambient.ring, root i (from
    0) standing for X_{i+1}, as an ambient element; `Ambient.from_polynomial`
    is the depth-0 case.

    A tower element's lanes are its coordinates over ambient.ring: one
    ncoords block per monomial in the roots, the first root fastest.  Once f
    is reduced modulo the embedded t_{var+1}, every power of X_{var+1} and
    of each root is below its modulus's degree, so each block is copied to
    the lanes of its monomial's rank."""
    ring, k = f.ring, ambient.ring.ncoords
    degs, level = [], ring
    for _ in range(var if depth is None else depth):
        degs.append(level.deg)
        level = level.base
    offsets = [0]
    for stride, d in zip(ambient.strides, reversed(degs)):
        offsets = [o + e * stride for e in range(d) for o in offsets]
    mod = ambient.moduli[var]
    f = f % (mod if mod.ring is ring else _embed_poly(mod, ring))
    src = ring._lanes(f.data)
    lanes = [0] * (ambient.n * k)
    ranks = [o + j * ambient.strides[var] for j in range(len(f.data)) for o in offsets]
    for b, rank in enumerate(ranks):
        lanes[rank * k : (rank + 1) * k] = src[b * k : (b + 1) * k]
    return MPoly(ambient, lanes)
