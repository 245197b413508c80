"""e_C and g_C from a chain of q-th powers, and the suffix-sum idempotent check.

The previous formulas are kept verbatim as references: e-bar as the plain
power h-bar^(q^|C| - 1), v-bar as e-bar * h-bar^(q^|C| - 2), and the
pairwise orthogonality loop of the idempotent check.
"""

import pytest

from chaincodes import Ambient, decompose, ring_construct
from chaincodes.decompose import check_idempotent_family
from chaincodes.errors import InternalError
from chaincodes.hensel import lift_idempotent
from chaincodes.polys import parse_univariate

AMBIENTS = [
    ({"kind": "galois", "p": 2, "t": 1, "l": 2}, ["x^21-1"]),
    ({"kind": "galois", "p": 2, "t": 2, "l": 1}, ["x^15-1"]),
    ({"kind": "galois", "p": 2, "t": 2, "l": 1}, ["x^31-1"]),
    ({"kind": "galois", "p": 2, "t": 3, "l": 1}, ["x^15-1"]),
    ({"kind": "galois", "p": 2, "t": 2, "l": 2}, ["x^15-1"]),
    ({"kind": "truncated", "p": 3, "t": 2, "l": 1}, ["x^13-1"]),
    ({"kind": "galois", "p": 3, "t": 2, "l": 1}, ["x^4-1", "y^4-1"]),
    ({"kind": "galois", "p": 2, "t": 2, "l": 1}, ["x^3-1", "y^3-1", "z^3-1"]),
    ({"kind": "galois", "p": 2, "t": 2, "l": 1}, ["x^3+x+1", "y^2+y+1"]),
    ({"kind": "galois", "p": 2, "t": 2, "l": 1}, ["x+3"]),
]
IDS = [f"{d['kind']}-{d['p']}-{d['t']}-{d['l']}:{','.join(m)}" for d, m in AMBIENTS]


def _ambient(desc, moduli):
    ring = ring_construct(desc)
    return Ambient(ring, [parse_univariate(m, ring, var=i) for i, m in enumerate(moduli)])


def _e_reference(cd):
    """The primitive idempotent: the lift of h-bar^(q^|C| - 1)."""
    A = cd.h.ambient
    ebar = cd.h.residue() ** (A.ring.q**cd.cls.size - 1)
    if A.ring.t == 1:
        return ebar
    return lift_idempotent(ebar.lift_to(A))


def _g_reference(cd, e):
    """The cofactor with g * h == e, by Newton iteration on the component."""
    A = cd.h.ambient
    qc = A.ring.q**cd.cls.size
    hbar = cd.h.residue()
    ebar = e.residue()
    vbar = ebar * hbar ** (qc - 2) if qc > 2 else ebar
    v = vbar.lift_to(A) * e if A.ring.t > 1 else vbar
    two_e = e + e
    for _ in range(A.ring.t.bit_length() + 1):
        prod = cd.h * v
        if prod == e:
            return v
        v = v * (two_e - prod)
    raise InternalError("cofactor iteration did not converge")


def _family_reference(A, es):
    """The previous check: idempotent, sum to one, then every pair."""
    total = A.zero()
    for e in es:
        if e * e != e:
            raise InternalError("lifted class idempotent is not idempotent")
        total = total + e
    if total != A.one():
        raise InternalError("idempotents do not sum to one")
    for i, ei in enumerate(es):
        for ej in es[i + 1 :]:
            if not (ei * ej).is_zero():
                raise InternalError("idempotents are not orthogonal")


def _accepts(check, A, es):
    try:
        check(A, es)
    except InternalError:
        return False
    return True


@pytest.mark.parametrize("desc,moduli", AMBIENTS, ids=IDS)
def test_e_and_g_match_the_plain_powers(desc, moduli):
    A = _ambient(desc, moduli)
    for cd in decompose(A).data:
        e = _e_reference(cd)
        assert cd.e == e
        assert cd.g == _g_reference(cd, e)
        assert "_frobenius_product" not in cd.__dict__


@pytest.mark.parametrize("desc,moduli", AMBIENTS, ids=IDS)
def test_suffix_check_agrees_with_pairwise_check(desc, moduli):
    A = _ambient(desc, moduli)
    es = [cd.e for cd in decompose(A).data]
    families = [es, es[::-1]]
    if len(es) > 1:
        families += [
            [es[0] + es[1]] + es[1:],  # idempotent, not orthogonal, wrong sum
            [es[1]] + es[1:],  # a repeated idempotent
            es[:-1],  # orthogonal, sum short of one
        ]
    for family in families:
        assert _accepts(check_idempotent_family, A, family) == _accepts(_family_reference, A, family)
    assert _accepts(check_idempotent_family, A, es)


def test_suffix_check_rejects_non_orthogonal_family_summing_to_one():
    """(1, 1, 1) over GF(2): each is idempotent and they sum to 1."""
    A = _ambient({"kind": "galois", "p": 2, "t": 1, "l": 1}, ["x^3-1"])
    family = [A.one()] * 3
    with pytest.raises(InternalError, match="not orthogonal"):
        check_idempotent_family(A, family)
    with pytest.raises(InternalError, match="not orthogonal"):
        _family_reference(A, family)


def test_suffix_check_reports_each_broken_invariant():
    A = _ambient({"kind": "galois", "p": 2, "t": 1, "l": 1}, ["x^3-1"])
    with pytest.raises(InternalError, match="not idempotent"):
        check_idempotent_family(A, [A.parse("x")])
    with pytest.raises(InternalError, match="do not sum to one"):
        check_idempotent_family(A, [A.zero()])
