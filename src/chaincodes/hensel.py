"""Hensel lifting: factorizations of monic polynomials and idempotents.

Lifting raises a pairwise-coprime monic factorization over the residue
field to an exact factorization over the chain ring, one radical power per
step; t - 1 linear steps reach full precision.  The Bezout cofactor of each
residue factor g comes from one exact division per factor: fbar // g is the
product of the other factors, and one extended Euclid of g against it mod g
gives the cofactor, its gcd being the coprimality check.  Each step maps
whole lane vectors, as `MPoly` does (`Poly.valuation`, `times_a`,
`residue`, `lift_to`): step k shifts the defect f - prod down by a^k and
reduces it in one map each, and adds each correction's lift shifted up by
a^k.  Idempotents lift by the cubic iteration e -> 3e^2 - 2e^3, which
squares the radical-adic error.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from operator import mul

from .errors import DomainError, InternalError
from .polys import Poly, poly_ext_gcd


class LiftedFactorization(namedtuple("LiftedFactorization", "poly factors residue_factors")):
    """A monic polynomial ``poly`` over a chain ring with its exact lifted
    ``factors``, monic with product poly, and the field-level factorization
    ``residue_factors`` that was lifted."""

    __slots__ = ()


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
    fbar = f.residue()
    if reduce(mul, residue_factors, Poly.one(field, var=f.var)) != fbar:
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

    if len(residue_factors) == 1 and ring.t > 1:
        return LiftedFactorization(f, (f,), tuple(residue_factors))
    if len(residue_factors) <= 1 or ring.t == 1:
        return LiftedFactorization(f, tuple(residue_factors), tuple(residue_factors))

    factors = [g.lift_to(ring) for g in residue_factors]
    for step in range(1, ring.t):
        defect = f - reduce(mul, factors, Poly.one(ring, var=f.var))
        if defect.is_zero():
            break
        if defect.valuation() < step:
            raise InternalError("defect has unexpectedly small valuation")  # pragma: no cover
        dbar = defect.times_a(-step).residue()
        for i, g in enumerate(residue_factors):
            delta = (dbar * betas[i]) % g
            if not delta.is_zero():
                factors[i] += delta.lift_to(ring).times_a(step)

    if reduce(mul, factors, Poly.one(ring, var=f.var)) != f:
        raise InternalError("Hensel lifting failed to reassemble the input")  # pragma: no cover
    return LiftedFactorization(f, tuple(factors), tuple(residue_factors))


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
