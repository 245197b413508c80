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

Only q = 2 with small odd m is wired into the CLI; the construction itself
is generic in (l, m).
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction
from math import isqrt

from .errors import DomainError, InternalError
from .factor import prime_factors
from .polys import Ambient, Poly
from .rings import ExtensionRing, default_modulus, ring_construct, ring_trace


class KerdockInstance(namedtuple("KerdockInstance", "q m R S theta tau teich_R units etas")):
    """The rings, Teichmuller data and unit group of one (q, m) instance:
    ``theta`` generates the Teichmuller group of S, tau = q^m - 1,
    ``teich_R`` is Gamma(R) = {w_0 = 0, w_1, ..., w_{q-1}}, ``units`` is
    U = 1 + 2R in the eta-product order and ``etas`` are the order-2
    generators of U."""

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
    theta = _teichmuller_generator(S, tau)
    teich_R = _ordered_teichmuller(R)
    etas = _unit_generators(R)
    units = _unit_products(R, etas)
    return KerdockInstance(
        q=q, m=m, R=R, S=S, theta=theta, tau=tau,
        teich_R=teich_R, units=units, etas=etas,
    )


def _teichmuller_generator(S, tau):
    nonzero = [g for g in S.teichmuller_set() if not g.is_zero()]
    primes = prime_factors(tau)
    for g in nonzero:
        if g**tau == S.one and all(g ** (tau // p) != S.one for p in primes):
            return g
    raise InternalError("no Teichmuller generator found")  # pragma: no cover


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
    """U in the eta-exponent mixed-radix order (first eta fastest)."""
    out = []
    for bits in itertools.product((0, 1), repeat=len(etas)):
        u = R.one
        for b, eta in zip(bits, etas):
            if b:
                u = u * eta
        out.append(u)
    return out


def teichmuller_decompose(S, x):
    """The unique (g0, g1) in Gamma(S)^2 with x = g0 + 2 g1."""
    g0 = S.teichmuller(x)
    g1 = S.teichmuller(S.divide_by_a(x - g0))
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
    """Apply gamma* coordinatewise: length tau*q words over Gamma(R)."""
    out = []
    for word in words:
        img = []
        for a in word:
            img.extend(gamma_star(inst, a))
        out.append(tuple(img))
    return out


def _pairwise_min_distance(words):
    """Exact minimum Hamming distance of a (possibly nonlinear) code."""
    alphabet = {c.data for w in words for c in w}
    if alphabet <= {words[0][0].ring._zero, words[0][0].ring._one}:
        # binary alphabet: pack into ints, distance = popcount of the xor
        zero = words[0][0].ring._zero
        masks = [
            sum(1 << i for i, c in enumerate(w) if c.data != zero) for w in words
        ]
        best = None
        for i, u in enumerate(masks):
            for v in masks[i + 1 :]:
                d = (u ^ v).bit_count()
                if best is None or d < best:
                    best = d
                    if best == 1:
                        return best
        return best
    best = None
    for i, u in enumerate(words):
        for v in words[i + 1 :]:
            d = sum(1 for a, b in zip(u, v) if a != b)
            if best is None or d < best:
                best = d
                if best == 1:
                    return best
    return best


def nonlinearity_witness(inst, projected):
    """Two codewords whose coordinatewise (+)-sum is not a codeword."""
    R = inst.R
    codeset = set(projected)
    for i, u in enumerate(projected):
        for v in projected[i + 1 :]:
            s = tuple(teich_add(R, a, b) for a, b in zip(u, v))
            if s not in codeset:
                return u, v
    return None


def polycyclic_embed(inst, words=None):
    """The multivariable form: coefficient of X_1^{i_1} X_2^{i_2} ... is
    (Tr(xi th^{i_1}) + a) * eta_1^{i_2} * ... ; returns (ambient, codewords)."""
    R = inst.R
    r = len(inst.etas) + 1
    moduli = [Poly.from_ints(R, [-1] + [0] * (inst.tau - 1) + [1], var=0)]
    for v in range(1, r):
        moduli.append(Poly.from_ints(R, [-1, 0, 1], var=v))
    ambient = Ambient(R, moduli, unchecked=True)
    if words is None:
        words = base_linear_code(inst)
    out = []
    for word in words:
        vec = [R.zero] * ambient.n
        for rank in range(ambient.n):
            exps = ambient.exps(rank)
            u = R.one
            for b, eta in zip(exps[1:], inst.etas):
                if b:
                    u = u * eta
            vec[rank] = word[exps[0]] * u
        out.append(ambient.from_vector(vec))
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
