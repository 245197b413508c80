"""Hensel lifting: factorizations of monic polynomials and idempotents.

Lifting raises a pairwise-coprime monic factorization over the residue
field to an exact factorization over the chain ring, one radical power per
step; t - 1 linear steps reach full precision.  The Bezout cofactor of each
residue factor g comes from one exact division per factor: fbar // g is the
product of the other factors, and one extended Euclid of g against it mod g
gives the cofactor, its gcd being the coprimality check.  Idempotents lift
by the cubic iteration e -> 3e^2 - 2e^3, which squares the radical-adic
error.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, InternalError
from .polys import Poly, poly_ext_gcd


@dataclass
class LiftedFactorization:
    """A monic polynomial over a chain ring with its exact lifted factors."""

    poly: Poly
    factors: tuple  # monic Poly over the ring, product == poly
    residue_factors: tuple  # the field-level factorization that was lifted


def lift_factorization(f, residue_factors):
    """Lift a coprime monic factorization of residue(f) to the ring of f.

    The factors come back in the order of ``residue_factors``; each reduces
    to its input and the product reassembles f bit-exactly.
    """
    ring = f.ring
    field = ring.residue_field
    if not f.is_monic():
        raise DomainError("only monic polynomials can be lifted")
    residue_factors = list(residue_factors)
    for g in residue_factors:
        if not g.is_monic():
            raise DomainError("residue factors must be monic")
    fbar = f.residue() if ring.t > 1 else f
    prod = Poly.one(field, var=f.var)
    for g in residue_factors:
        prod = prod * g
    if prod != fbar:
        raise DomainError("residue factors do not multiply to the residue of f")
    # Bezout cofactors: beta_i * prod_{j != i} g_j == 1 (mod g_i), with
    # deg beta_i < deg g_i.  The cofactor product is fbar // g_i, and the gcd
    # of the extended Euclid is the coprimality check: g_i is prime to every
    # other g_j exactly when it is prime to their product.
    betas = []
    if len(residue_factors) > 1:
        for g in residue_factors:
            d, _, beta = poly_ext_gcd(g, (fbar // g) % g)
            if d.degree != 0:
                raise DomainError("residue factors are not pairwise coprime")
            betas.append(beta)

    if len(residue_factors) <= 1 or ring.t == 1:
        if len(residue_factors) == 1 and ring.t == 1:
            factors = (residue_factors[0],)
        elif len(residue_factors) == 1:
            factors = (f,)
        else:
            factors = tuple(residue_factors)
        return LiftedFactorization(f, factors, tuple(residue_factors))

    lift_poly = lambda g: g.map_coeffs(ring.lift, ring)
    factors = [lift_poly(g) for g in residue_factors]
    for step in range(1, ring.t):
        prod = Poly.one(ring, var=f.var)
        for g in factors:
            prod = prod * g
        defect = f - prod
        if defect.is_zero():
            break
        scaled = defect.map_coeffs(
            lambda c: _shift_down(ring, c, step), ring
        )
        dbar = scaled.residue()
        a_pow = ring.a**step
        for i, g in enumerate(residue_factors):
            delta = (dbar * betas[i]) % g
            if delta.is_zero():
                continue
            factors[i] = factors[i] + lift_poly(delta).map_coeffs(
                lambda c: c * a_pow, ring
            )

    prod = Poly.one(ring, var=f.var)
    for g in factors:
        prod = prod * g
    if prod != f:
        raise InternalError("Hensel lifting failed to reassemble the input")  # pragma: no cover
    return LiftedFactorization(f, tuple(factors), tuple(residue_factors))


def _shift_down(ring, c, k):
    """Divide by a^k, assuming valuation(c) >= k."""
    if c.valuation() < k:
        raise InternalError("defect has unexpectedly small valuation")  # pragma: no cover
    return ring.elem(ring._div_a(c.data, k))


def lift_idempotent(e):
    """The unique exact idempotent sharing the residue of ``e``.

    Requires residue(e) idempotent; iterates e <- 3e^2 - 2e^3, at most
    ceil(log2 t) + 1 times.
    """
    ebar = e.residue()
    if ebar * ebar != ebar:
        raise DomainError("residue is not idempotent")
    t = e.ambient.ring.t
    cur = e
    for _ in range(max(1, t.bit_length() + 1)):
        sq = cur * cur
        if sq == cur:
            return cur
        cur = 3 * sq - 2 * (sq * cur)
    if cur * cur == cur:
        return cur
    raise InternalError("idempotent lifting did not converge")  # pragma: no cover
