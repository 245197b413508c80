"""Duals and self-duality of abelian semisimple codes.

For abelian ambients (every modulus X_i^{e_i} - 1) the dual of a code is
computed at the exponent level: the class of mu^{-1} receives t - j(C(mu)).
The generator form <tau(G_0), a tau(G_t), ..., a^{t-1} tau(G_2)> is built
alongside and checked equal on every call.  Self-duality reduces to the
exponent condition, and the existence of non-trivial self-dual codes to a
number-theoretic test on q modulo lcm(e_1, ..., e_r), cross-checked against
the class-inversion test.
"""

from __future__ import annotations

from math import lcm

from .codes import SemisimpleCode, code_from_generators
from .decompose import decompose
from .errors import DomainError, InternalError


def inverse_class_map(dec):
    """index -> index of the inverse class, for abelian ambients: the
    `Decomposition.inverse_map` stage."""
    return dec.inverse_map


def dual(code, check_generator_form=True):
    """The dual code K-perp, by the exponent rule j'(C^{-1}) = t - j(C)."""
    dec = code.dec
    inv = inverse_class_map(dec)
    t = code.ambient.ring.t
    exps = [0] * len(code.exps)
    for idx, j in enumerate(code.exps):
        exps[inv[idx]] = t - j
    out = SemisimpleCode(dec, exps)
    if check_generator_form:
        A = code.ambient
        gs = code.generators().gs
        gens = [gs[0].tau()] + [gs[t + 1 - i].tau().times_a(i) for i in range(1, t)]
        alt = code_from_generators(A, gens, seed=dec.seed)
        if alt != out:  # pragma: no cover
            raise InternalError("generator-form dual disagrees with the exponent rule")
    return out


def dual_cardinality(code):
    """|K-perp| = q^(sum over classes of j_C |C|)."""
    ring = code.ambient.ring
    if code.ambient.exponents is None:
        raise DomainError("dual cardinality requires an abelian ambient")
    digits = sum(j * cls.size for cls, j in zip(code.dec.classes, code.exps))
    return ring.q**digits


def is_selfdual(code):
    """j(C^{-1}) = t - j(C) on every class."""
    inv = inverse_class_map(code.dec)
    t = code.ambient.ring.t
    return all(code.exps[inv[idx]] == t - j for idx, j in enumerate(code.exps))


def selfdual_group_code_exists(p, t, group_order):
    """Whether the group algebra R(G) carries any self-dual group code:
    p odd with t even, or p even with t*|G| even."""
    if p % 2 == 1:
        return t % 2 == 0
    return (t * group_order) % 2 == 0


def _q_power_hits_minus_one(q, modulus):
    """Is q^i = -1 (mod modulus) for some i >= 1?  One order cycle decides."""
    if modulus == 1:
        return True  # -1 and everything else are 0 mod 1
    target = (-1) % modulus
    cur = q % modulus
    seen = 0
    while True:
        seen += 1
        if cur == target:
            return True
        if cur == 1 % modulus:
            return False
        cur = (cur * q) % modulus
        if seen > 2 * modulus:  # pragma: no cover
            raise InternalError("order search failed to terminate")


def nontrivial_selfdual_exists(ambient, seed=0):
    """t even and no power of q congruent to -1 mod lcm(e_1, ..., e_r).

    Both the number-theoretic test and the direct class test (some class
    differs from its inverse) are evaluated and must agree.
    """
    es = ambient.exponents
    if es is None:
        raise DomainError("self-duality analysis requires an abelian ambient")
    if ambient.ring.t % 2 != 0:
        return False
    number_test = not _q_power_hits_minus_one(ambient.ring.q, lcm(*es))
    dec = decompose(ambient, seed=seed)
    inv = inverse_class_map(dec)
    class_test = any(inv[idx] != idx for idx in range(len(inv)))
    if number_test != class_test:  # pragma: no cover
        raise InternalError("self-duality criteria disagree")
    return number_test


def build_nontrivial_selfdual(ambient, seed=0):
    """A self-dual code different from <a^{t/2}>: the smallest class C with
    C != C^{-1} gets exponent t/2 - 1, its inverse t/2 + 1, the rest t/2."""
    if not nontrivial_selfdual_exists(ambient, seed=seed):
        raise DomainError("no non-trivial self-dual code exists in this ambient")
    dec = decompose(ambient, seed=seed)
    inv = inverse_class_map(dec)
    t = ambient.ring.t
    half = t // 2
    pick = next(idx for idx in range(len(inv)) if inv[idx] != idx)
    exps = [half] * len(inv)
    exps[pick] = half - 1
    exps[inv[pick]] = half + 1
    code = SemisimpleCode(dec, exps)
    if not is_selfdual(code):  # pragma: no cover
        raise InternalError("constructed code failed the self-duality check")
    return code


def trivial_selfdual(ambient, seed=0):
    """<a^{t/2}>, defined for even t."""
    t = ambient.ring.t
    if t % 2 != 0:
        raise DomainError("the trivial self-dual code needs an even nilpotency index")
    dec = decompose(ambient, seed=seed)
    return SemisimpleCode(dec, (t // 2,) * dec.class_count)
