"""Desk-scale reproduction of the Teichmuller / trace-code construction.

Over R = GR(q^2, 4) and its odd-degree extension S, the base linear code
collects the words (Tr(xi th^i) + a) over the Teichmuller powers of a
generator th; projecting through the coordinatewise map
gamma*(a) = (gamma_1(a), gamma_1(a) (+) w_1 gamma_0(a), ...) yields the
shortened generalized Kerdock code, a nonlinear code over the Teichmuller
alphabet.  The same words embed as a multivariable polynomial code in
R[X_1,...,X_r]/<X_1^tau - 1, X_2^2 - 1, ..., X_r^2 - 1>; that ambient is
deliberately not semisimple (X_i^2 - 1 is a square mod 2) and is built with
the unchecked flag.

Each fact is computed once, with the library's mechanisms: th is the
Teichmuller lift of the factorizer's least-rank generator of the residue
field of S, the digits g0, g1 are `ChainRing.adic_digits`, gamma* and (+)
are tabulated once per alphabet symbol, and the embedding reads each
coefficient unit from the instance's unit list.

Only q = 2 with small odd m is wired into the CLI; the construction itself
is generic in (l, m).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import isqrt

from .errors import DomainError, InternalError
from .factor import _multiplicative_generator
from .polys import Ambient, Poly
from .rings import ExtensionRing, default_modulus, ring_construct, ring_trace


class KerdockInstance(namedtuple("KerdockInstance", "q m R S theta tau teich_R units etas")):
    """The rings, Teichmuller data and unit group of one (q, m) instance:
    ``theta`` generates the Teichmuller group of S, tau = q^m - 1,
    ``teich_R`` is Gamma(R) = {w_0 = 0, w_1, ..., w_{q-1}}, ``units`` is
    U = 1 + 2R in the eta-product order (see `_unit_products`) and
    ``etas`` are the order-2 generators of U."""

    __slots__ = ()


def kerdock_instance(q=2, m=3):
    """Build R = GR(q^2, 4), S its degree-m extension, and the demo data."""
    if m < 3 or m % 2 == 0:
        raise DomainError("the construction needs odd m >= 3")
    lpow = q.bit_length() - 1
    if q != 2**lpow:
        raise DomainError("q must be a power of 2")
    R = ring_construct({"kind": "galois", "p": 2, "t": 2, "l": lpow})
    # a monic lift of a searched irreducible residue is basic irreducible
    modulus = default_modulus(R.residue_field, m).lift_to(R)
    S = ExtensionRing(R, modulus, check=False)

    tau = q**m - 1
    # T(lift(.)) maps the residue field's units isomorphically onto the
    # Teichmuller units, so the least-rank generator lifts to one of order tau
    theta = S.teichmuller(S.lift(_multiplicative_generator(S.residue_field)))
    if theta**tau != S.one:  # pragma: no cover
        raise InternalError("the Teichmuller generator does not have order tau")
    teich_R = _ordered_teichmuller(R)
    etas = _unit_generators(R)
    units = _unit_products(R, etas)
    return KerdockInstance(
        q=q, m=m, R=R, S=S, theta=theta, tau=tau,
        teich_R=teich_R, units=units, etas=etas,
    )


def _ordered_teichmuller(R):
    """Gamma(R) with zero first, the rest in coordinate order."""
    ts = R.teichmuller_set()
    zero = [g for g in ts if g.is_zero()]
    rest = sorted((g for g in ts if not g.is_zero()), key=lambda g: tuple(g.coords()))
    return zero + rest


def _unit_generators(R):
    """Order-2 generators of U = 1 + 2R, one per F_2-basis vector of R-bar."""
    two = R.from_int(2)
    gens = []
    for i in range(R.l):
        coords = [0] * R.ncoords
        coords[i] = 1
        gens.append(R.one + two * R.from_coords(coords))
    return gens


def _unit_products(R, etas):
    """U in the eta-exponent mixed-radix order: units[i] is the product of
    the eta_j over the set bits j of i, the first eta the lowest bit."""
    out = [R.one]
    for eta in etas:
        out += [u * eta for u in out]
    return out


def teichmuller_decompose(S, x):
    """The unique (g0, g1) in Gamma(S)^2 with x = g0 + 2 g1: the 2-adic
    digits of x, since t = 2."""
    g0, g1 = S.adic_digits(x)
    return g0, g1


def teich_add(S, a, b):
    """The Teichmuller field addition a (+) b = gamma_0(a + b)."""
    return S.teichmuller(a + b)


def _trace_functional(S):
    """Tr as an R-linear functional on the coordinates of S (precomputed on
    the monomial basis, cross-checked against the digitwise definition)."""
    R = S.base
    basis_traces = []
    for i in range(S.deg):
        coords = [R._zero] * S.deg
        coords[i] = R._one
        basis_traces.append(ring_trace(S, S.elem(tuple(R._lanes(coords)))))

    def trace(x):
        acc = R.zero
        for c, tr in zip(R._from_lanes(x.data), basis_traces):
            acc = acc + R.elem(c) * tr
        return acc

    probe = list(S.elements())[:: max(1, S.size // 8)]
    for x in probe:
        if trace(x) != ring_trace(S, x):  # pragma: no cover
            raise InternalError("linear trace disagrees with the digitwise trace")
    return trace


def base_linear_code(inst):
    """L = {(Tr(xi th^i) + a)_i : xi in S, a in R}, length tau over R."""
    S, R = inst.S, inst.R
    trace = _trace_functional(S)
    theta_pows = []
    cur = S.one
    for _ in range(inst.tau):
        theta_pows.append(cur)
        cur = cur * inst.theta
    words = []
    for xi in S.elements():
        traces = [trace(xi * tp) for tp in theta_pows]
        for a in R.elements():
            words.append(tuple(tr + a for tr in traces))
    if len(set(words)) != len(words):  # pragma: no cover
        raise InternalError("base linear code words are not distinct")
    return words


def gamma_star(inst, a):
    """(gamma_1(a), gamma_1(a) (+) w_1 gamma_0(a), ..., w_{q-1} ...)."""
    R = inst.R
    g0, g1 = teichmuller_decompose(R, a)
    out = [g1]
    for w in inst.teich_R[1:]:
        out.append(teich_add(R, g1, w * g0))
    return tuple(out)


def kerdock_project(inst, words):
    """Apply gamma* coordinatewise: length tau*q words over Gamma(R), from
    one table of gamma* over R."""
    image = {a.data: gamma_star(inst, a) for a in inst.R.elements()}
    return [tuple(c for a in word for c in image[a.data]) for word in words]


def _pairwise_min_distance(words):
    """Exact minimum Hamming distance of a (possibly nonlinear) code, None
    below two words.  Each word packs one-hot, one bit per (coordinate,
    symbol), so two words differ in popcount(u ^ v) / 2 coordinates."""
    index = {}
    for w in words:
        for c in w:
            index.setdefault(c.data, len(index))
    s = len(index)
    masks = [sum(1 << (i * s + index[c.data]) for i, c in enumerate(w)) for w in words]
    best = None
    for i, u in enumerate(masks):
        for v in masks[i + 1 :]:
            d = (u ^ v).bit_count()
            if best is None or d < best:
                best = d
                if best == 2:
                    return 1
    return None if best is None else best // 2


def nonlinearity_witness(inst, projected):
    """Two codewords whose coordinatewise (+)-sum is not a codeword; (+) is
    tabulated once per pair of symbols that occur."""
    R = inst.R
    symbols = {c.data: c for w in projected for c in w}.values()
    add = {(a.data, b.data): teich_add(R, a, b) for a in symbols for b in symbols}
    codeset = set(projected)
    for i, u in enumerate(projected):
        for v in projected[i + 1 :]:
            s = tuple(add[a.data, b.data] for a, b in zip(u, v))
            if s not in codeset:
                return u, v
    return None


def polycyclic_embed(inst, words=None):
    """The multivariable form: coefficient of X_1^{i_1} X_2^{i_2} ... is
    (Tr(xi th^{i_1}) + a) * eta_1^{i_2} * ..., the unit being
    units[i_2 + 2 i_3 + ...]; returns (ambient, codewords)."""
    R = inst.R
    r = len(inst.etas) + 1
    moduli = [Poly.from_ints(R, [-1] + [0] * (inst.tau - 1) + [1], var=0)]
    for v in range(1, r):
        moduli.append(Poly.from_ints(R, [-1, 0, 1], var=v))
    ambient = Ambient(R, moduli, unchecked=True)
    if words is None:
        words = base_linear_code(inst)
    # the first variable runs fastest: rank = i_1 + tau * (i_2 + 2 i_3 + ...)
    tau, units = inst.tau, inst.units
    out = [
        ambient.from_vector([word[k % tau] * units[k // tau] for k in range(ambient.n)])
        for word in words
    ]
    if len(set(out)) != len(out):  # pragma: no cover
        raise InternalError("polycyclic embedding is not injective")
    return ambient, out


def distance_formula_candidates(inst):
    """(q-1)/q (n - sqrt(n)) - q for both readings of n (tau*q and q^m), as
    exact parts (rational + sqrt_n_coeff * sqrt(n), `Fraction` strings) and
    its floor: (q-1) sqrt(n) is s = isqrt((q-1)^2 n) for square n, and lies
    strictly between s and s + 1 otherwise."""
    q = inst.q
    out = {}
    for label, n in (("n=tau*q", inst.tau * q), ("n=q^m", q**inst.m)):
        s = isqrt((q - 1) ** 2 * n)
        out[label] = {
            "n": n,
            "rational": str(Fraction((q - 1) * n, q) - q),
            "sqrt_n_coeff": str(Fraction(1 - q, q)),
            "floor": ((q - 1) * n - q * q - s - (isqrt(n) ** 2 != n)) // q,
        }
    return out


def kerdock_demo(q=2, m=3):
    """The full demo: build, project, count, measure; returns a JSON dict."""
    inst = kerdock_instance(q, m)
    words = base_linear_code(inst)
    expected = q ** (2 * (m + 1))
    if len(words) != expected:  # pragma: no cover
        raise InternalError("base code cardinality mismatch")
    projected = kerdock_project(inst, words)
    distinct = len(set(projected))
    dist = _pairwise_min_distance(projected)
    witness = nonlinearity_witness(inst, projected)
    ambient, embedded = polycyclic_embed(inst, words)
    return {
        "q": q,
        "m": m,
        "length": inst.tau * q,
        "cardinality": distinct,
        "exact_distance": dist,
        "formula_value": distance_formula_candidates(inst),
        "base_length": inst.tau,
        "base_cardinality": len(words),
        "nonlinear": witness is not None,
        "embedded_cardinality": len(set(embedded)),
        "embedding_vars": ambient.r,
    }
