"""Minimum Hamming distance of semisimple codes.

The distance of a code over a chain ring equals the distance of its socle,
which is carried by the residue-field code L generated by the residues of
the canonical generators; so every exact distance computation enumerates
a field code over an F_q-basis b_0, ..., b_{k-1}.  The code is the direct
sum of the minimal ideals <e_C> of its classes with j = 0, and the basis
is the concatenation of their rows from the `Decomposition.rows` stage.
That stage holds each row already packed, once per decomposition, so a
distance on a warm ambient does nothing but the walk.

Words are packed into one int (`decompose._pack_rows`).  With q = p^l,
write u_0, ..., u_{l-1} for the F_p-basis of F_q given by the unit
coordinate vectors; F_p digit m of coordinate pos sits in lane m*n + pos,
which is w bits wide, and each row b comes as the l words u_m*b.  For
p = 2, w = 1 and addition is XOR.  For odd p, w = bitlen(p-1) + 1, so a
lane sum s <= 2p - 2 never carries into the next lane; adding 2^(w-1) - p
to every lane sets a lane's top bit exactly where s >= p, and p is
subtracted in those lanes.  Likewise adding 2^(w-1) - 1 sets the top bit
of exactly the nonzero lanes; the weight ORs the l digit planes of those
bits together and counts them.

For any basis, a nonzero word has a unique leading row i, the first with a
nonzero coefficient, so it is an F_q-multiple of exactly one word b_i + (an
F_q-combination of b_{i+1}, ..., b_{k-1}).  So for each leading row i the
walk starts at b_i = u_0*b_i and follows the modular p-ary Gray code on the
l(k-1-i) generators u_m*b_j, j > i: step s adds the generator numbered by
the count of trailing zero base-p digits of s, read within a block of
steps from a table built once per walk.  The walk examines
(q^k - 1)/(q - 1) words, one per projective point, at one packed add and
one bit count each, and stops at weight 1.  The budget still counts all
q^k codewords and is checked before any work.

The multivariable lower bound splits the defining classes by their first-
variable minimal polynomial and recursively multiplies a univariate exact
distance with an exact distance in one variable less over an extension
field.
"""

from __future__ import annotations

from collections import namedtuple

from .codes import code_from_generators
from .decompose import _lane_width
from .errors import BudgetExceeded, DomainError, InternalError
from .polys import Ambient, Poly, _embed_poly, _poly_over_tower_to_mpoly
from .rings import ExtensionRing

DEFAULT_BUDGET = 2**24

# Most Gray steps come from a precomputed block of at most this many.
_GRAY_BLOCK = 256

DistanceCheck = namedtuple("DistanceCheck", "distance residue_distance equal")


def min_distance(code, budget=DEFAULT_BUDGET):
    """Exact minimum distance, via the residue carrier code."""
    if code.is_zero():
        raise DomainError("the zero code has no minimum distance")
    if code.ambient.ring.t == 1:
        field_code = code
    else:
        field_code = code.socle_field_code()
    return _min_weight(field_code.ambient, _field_basis(field_code), budget)


def _field_basis(code):
    """The packed F_p-generators of a t = 1 code: the `Decomposition.rows`
    words of its classes with j = 0, l per F_q-row.

    The sum of the minimal ideals is direct, as the idempotents are
    orthogonal, so the concatenation needs no elimination.
    """
    if code.ambient.ring.t != 1:
        raise DomainError("basis extraction expects a field code")
    return [word for words, j in zip(code.dec.rows, code.exps) if j == 0 for word in words]


def _min_weight(ambient, words, budget):
    """Least weight of a nonzero word in the F_q-span of packed rows, given
    as the words u_m * b_i of `decompose._pack_rows`.

    A Gray-code walk that examines one word per projective point; the
    budget still counts all q^k codewords.  Dependent rows meet the zero
    word, which raises `InternalError`.
    """
    field = ambient.ring
    n, p, l = ambient.n, field.p, field.l
    k = len(words) // l
    if field.size**k > budget:
        raise BudgetExceeded(
            f"enumerating {field.size}^{k} codewords exceeds the budget {budget}"
        )
    w = _lane_width(p)
    ones = sum(1 << (w * lane) for lane in range(l * n))
    top = ones << (w - 1)
    wrap = ones * ((1 << (w - 1)) - p)
    live = ones * ((1 << (w - 1)) - 1)
    plane = (1 << (w * n)) - 1
    folds = [w * n << j for j in range((l - 1).bit_length())]

    # Gray steps s = hi * p^r + lo run in blocks of p^r: step lo > 0 adds
    # steps[nu(lo)], read from the ruler nu(1), ..., nu(p^r - 1), and the
    # block's first step adds steps[r + nu(hi)] (nothing, i.e. 0, in the
    # first block, which starts at b_i).
    r, ruler = 0, []
    while r < l * (k - 1) and p ** (r + 1) <= _GRAY_BLOCK:
        ruler = (ruler + [r]) * (p - 1) + ruler
        r += 1
    best = n
    for i in range(k):
        word = words[l * i]
        steps = words[l * (i + 1) :]
        r = min(r, len(steps))
        block = [0] + [steps[d] for d in ruler[: p**r - 1]]
        for hi in range(p ** (len(steps) - r)):
            if hi:
                block[0] = steps[r + _trailing_zero_digits(hi, p)]
            for g in block:
                if p == 2:
                    word ^= g
                    nonzero = word
                else:
                    word += g
                    word -= (((word + wrap) & top) >> (w - 1)) * p
                    nonzero = (word + live) & top
                for f in folds:
                    nonzero |= nonzero >> f
                weight = (nonzero & plane).bit_count()
                if weight < best:
                    if weight == 0:
                        raise InternalError("the rows of the code are linearly dependent")
                    best = weight
                    if best == 1:
                        return 1
    return best


def _trailing_zero_digits(s, p):
    """nu_p(s): the number of trailing zero base-p digits of s > 0."""
    v = 0
    while s % p == 0:
        s //= p
        v += 1
    return v


def hensel_lift_distance_check(code, budget=DEFAULT_BUDGET):
    """(d(K), d(K-bar), equal), with Nones when the residue image is zero."""
    d = min_distance(code, budget)
    image = code.residue_image()
    if image is None:
        return DistanceCheck(d, None, None)
    dbar = min_distance(image, budget)
    return DistanceCheck(d, dbar, d == dbar)


def distance_bound(code, budget=DEFAULT_BUDGET):
    """The product lower bound min_i d_i * delta_i on the exact distance.

    Classes of the defining set are grouped by their first-variable minimal
    polynomial; d_i is the exact distance of a univariate code over F_q and
    delta_i the exact distance of a code in one variable less over the
    extension field F_q[X_1]/(p_i).  For r = 1 the (empty) delta factor is
    taken as 1, making the bound the exact univariate distance.
    """
    A = code.ambient
    if A.exponents is None:
        raise DomainError("the product bound requires an abelian ambient")
    if code.is_zero():
        raise DomainError("the zero code has no distance bound")
    t = A.ring.t
    rdec = code.dec.residue
    Abar = rdec.ambient
    field = Abar.ring

    defining = [i for i, j in enumerate(code.exps) if j < t]
    groups = []  # (p_poly, [class indices])
    for idx in defining:
        p1 = rdec.class_polys[idx].p_polys[0]
        for gp, members in groups:
            if gp == p1:
                members.append(idx)
                break
        else:
            groups.append((p1, [idx]))

    univariate = Ambient(field, [Abar.moduli[0]])
    best = None
    for gi in range(len(groups)):
        tail = Poly.one(field)
        for gp, _ in groups[gi:]:
            tail = tail * gp
        gen_u, rem = divmod(Abar.moduli[0], tail)
        if not rem.is_zero():  # pragma: no cover
            raise InternalError("defining polynomials do not divide the modulus")
        du_code = code_from_generators(univariate, [univariate.from_polynomial(gen_u)])
        d_i = min_distance(du_code, budget)
        delta_i = 1 if A.r == 1 else _delta_distance(
            Abar, rdec, groups[gi], budget
        )
        value = d_i * delta_i
        if best is None or value < best:
            best = value
    return best


def _delta_distance(Abar, rdec, group, budget):
    """Distance of the code generated by sum_j F_ij over F_q[X_1]/(p_i).

    The lanes of the first level of each class's residue tower, F_q(mu_1),
    are those of ext = F_q[X_1]/(p_i), so its tower polynomials are placed
    onto V over ext with X_1 read as the root of p_i."""
    field = Abar.ring
    p1, members = group
    # p1 is a `factor_squarefree` output, irreducible by construction, so
    # the extension does not repeat the irreducibility test
    ext = ExtensionRing(field, p1, check=False) if p1.degree > 1 else field
    V = Ambient(ext, [_embed_poly(m, ext) for m in Abar.moduli[1:]])

    gen = V.zero()
    for idx in members:
        cd = rdec.class_polys[idx]
        term = V.one()
        for k in range(1, Abar.r):
            quot, rem = divmod(V.moduli[k - 1], _embed_poly(cd.p_polys[k], ext))
            if not rem.is_zero():  # pragma: no cover
                raise InternalError("class polynomial does not divide its modulus")
            term = term * V.from_polynomial(quot)
            term = term * _poly_over_tower_to_mpoly(cd.pi_polys[k], V, k - 1)
        gen = gen + term
    if gen.is_zero():  # pragma: no cover
        raise InternalError("group generator collapsed to zero")
    dcode = code_from_generators(V, [gen])
    return min_distance(dcode, budget)
