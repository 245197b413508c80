"""Socle reduction, exact distances, Hensel-lift equality and the bound."""

import itertools
import random
from types import SimpleNamespace

import pytest

from chaincodes import (
    Ambient,
    BudgetExceeded,
    DomainError,
    InternalError,
    Poly,
    code_from_exponents,
    code_from_generators,
    decompose,
    distance_bound,
    enumerate_codes,
    hensel_lift_distance_check,
    min_distance,
    ring_construct,
)
from chaincodes import distance
from chaincodes.decompose import _pack_rows
from chaincodes.oracle import distance_bruteforce, span_of_code
from chaincodes.polys import parse_univariate


def hamming_lift(amb_x7):
    dec = decompose(amb_x7)
    q_ham = next(
        g
        for g in dec.lifted_factorizations[0].factors
        if [c.data for c in g.coeffs] == [3, 1, 2, 1]
    )
    return code_from_generators(amb_x7, [amb_x7.from_polynomial(q_ham)])


def test_socle_rules(amb_x7):
    full = code_from_exponents(amb_x7, [0, 0, 0])
    assert full.socle().exps == (1, 1, 1)
    zero = code_from_exponents(amb_x7, [2, 2, 2])
    assert zero.socle() == zero
    K = code_from_exponents(amb_x7, {(1,): 0, (0,): 1, (3,): 2})
    assert K.socle().exps == (1, 1, 2)


def test_socle_is_annihilator_of_radical(amb_x7):
    """K.socle() == {c in K : a c = 0} by exhaustive check."""
    ring = amb_x7.ring
    for K in list(enumerate_codes(amb_x7))[::3]:
        span = span_of_code(K)
        soc_span = span_of_code(K.socle())
        expected = {
            v
            for v in span.elements()
            if all(c == ring._zero for c in ring_times(ring, v))
        }
        got = set(soc_span.elements())
        assert got == expected


def ring_times(ring, vec):
    # a * vec, payload level
    return tuple(ring._mul(ring._a, c) for c in vec)


def test_hamming_lift_distance(amb_x7):
    K = hamming_lift(amb_x7)
    assert K.exps == (0, 2, 0)
    assert K.cardinality() == 4**4
    assert K.is_hensel_lift()
    assert min_distance(K) == 3
    check = hensel_lift_distance_check(K)
    assert check.distance == 3 and check.residue_distance == 3 and check.equal


def test_separator_code_distance(amb_x7):
    # <h_{1,2,4}> is the dim-3 component code: the simplex code of distance 4
    K = code_from_exponents(amb_x7, {(1,): 0, (0,): 2, (3,): 2})
    assert min_distance(K) == 4


def test_repetition_distance(amb_x7):
    K = code_from_exponents(amb_x7, {(0,): 1, (1,): 2, (3,): 2})
    assert min_distance(K) == 7


def test_full_ring_distance(amb_x7):
    assert min_distance(code_from_exponents(amb_x7, [0, 0, 0])) == 1


def test_zero_code_rejected(amb_x7):
    with pytest.raises(DomainError):
        min_distance(code_from_exponents(amb_x7, [2, 2, 2]))


def test_budget(amb_x7):
    K = code_from_exponents(amb_x7, [0, 0, 0])
    with pytest.raises(BudgetExceeded):
        min_distance(K, budget=2)


def test_distance_equals_socle_distance(amb_x7, amb_x3y3, amb_z9):
    for amb in (amb_x7, amb_x3y3, amb_z9):
        for K in enumerate_codes(amb):
            if K.is_zero():
                continue
            d = min_distance(K)
            assert d == min_distance(K.socle())
            # socle enumerations over R are small: oracle-check them all
            assert d == distance_bruteforce(span_of_code(K.socle()))


def test_distance_vs_full_oracle(amb_x7, amb_z9):
    for amb in (amb_x7, amb_z9):
        for K in enumerate_codes(amb):
            if K.is_zero():
                continue
            assert min_distance(K) == distance_bruteforce(span_of_code(K))


def test_residue_comparison(amb_x7):
    # K = <h_{1,2,4}, 2 h_{0}>: K-bar is the component code of {1,2,4}
    K = code_from_exponents(amb_x7, {(1,): 0, (0,): 1, (3,): 2})
    check = hensel_lift_distance_check(K)
    assert check.distance <= check.residue_distance
    # K = <2>: residue image is zero, comparison skipped
    mid = code_from_exponents(amb_x7, [1, 1, 1])
    check = hensel_lift_distance_check(mid)
    assert check.residue_distance is None and check.equal is None


def test_hensel_lift_equality_everywhere(amb_x7, amb_x3y3):
    for amb in (amb_x7, amb_x3y3):
        for K in enumerate_codes(amb):
            if K.is_zero():
                continue
            check = hensel_lift_distance_check(K)
            if K.is_hensel_lift():
                assert check.equal
            if check.residue_distance is not None:
                assert check.distance <= check.residue_distance


def test_bound_univariate_equals_exact(amb_x7):
    for K in enumerate_codes(amb_x7):
        if K.is_zero():
            continue
        assert distance_bound(K) == min_distance(K)


def test_bound_below_exact_bivariate(amb_x3y3, amb_z9):
    for amb in (amb_x3y3, amb_z9):
        for K in enumerate_codes(amb):
            if K.is_zero():
                continue
            assert distance_bound(K) <= min_distance(K)


def test_bound_full_ring(amb_x3y3):
    assert distance_bound(code_from_exponents(amb_x3y3, [0] * 5)) == 1


def test_bound_product_parity_example():
    """F_2 ambient <X^3-1, Y^3-1>, defining set = everything but {(0,0)}."""
    f2 = ring_construct({"kind": "galois", "p": 2, "t": 1, "l": 1})
    amb = Ambient(
        f2,
        [Poly.from_ints(f2, [1, 0, 0, 1], var=0), Poly.from_ints(f2, [1, 0, 0, 1], var=1)],
    )
    dec = decompose(amb)
    exps = [1 if cd.cls.rep == (0, 0) else 0 for cd in dec.data]
    K = code_from_exponents(amb, exps)
    b = distance_bound(K)
    d = min_distance(K)
    assert b <= d


def test_bound_tests_no_factor_for_irreducibility(monkeypatch):
    """The bound's extension fields F_q[X_1]/(p_1) take p_1 from the
    factorization, irreducible by construction, so none is tested again."""
    import chaincodes.rings as rings

    def boom(f):
        raise AssertionError("the bound tested a factor for irreducibility")

    f2 = ring_construct({"kind": "galois", "p": 2, "t": 1, "l": 1})
    amb = Ambient(f2, [parse_univariate(m, f2, var=i) for i, m in enumerate(["x^7-1", "y^5-1"])])
    K = code_from_generators(amb, [amb.parse("x1^2+x2+1")])
    monkeypatch.setattr(rings, "is_irreducible", boom)
    assert distance_bound(K) == 1


def test_bound_requires_abelian(z4):
    amb = Ambient(z4, [Poly.from_ints(z4, [3, 1, 2, 1])])
    K = code_from_exponents(amb, [0])
    with pytest.raises(DomainError):
        distance_bound(K)


# The recursive enumeration that the packed Gray-code walk replaced.
def _min_weight_reference(ambient, basis, budget):
    field = ambient.ring
    k = len(basis)
    if field.size**k > budget:
        raise BudgetExceeded(
            f"enumerating {field.size}^{k} codewords exceeds the budget {budget}"
        )
    n = ambient.n
    zero = field._zero
    scalars = [field._from_rank(r) for r in range(field.size)]
    mults = [
        [[field._mul(c, b) for b in row] for c in scalars] for row in basis
    ]
    best = n + 1

    def rec(i, acc):
        nonlocal best
        if i == k:
            w = sum(1 for c in acc if c != zero)
            if 0 < w < best:
                best = w
            return
        for m in mults[i]:
            if best == 1:
                return
            rec(i + 1, [field._add(a, b) for a, b in zip(acc, m)])

    rec(0, [zero] * n)
    return best


# The per-code elimination that the cached per-class rows replaced.
def _field_basis_reference(code):
    A = code.ambient
    field = A.ring
    zero = field._zero
    basis = []
    pivots = []
    for cd, j in zip(code.dec.data, code.exps):
        if j != 0:
            continue
        for rank in range(A.n):
            mp = A.monomial(A.exps(rank)) * cd.e
            row = [c.data for c in mp.coeffs]
            for pc, brow in zip(pivots, basis):
                c = row[pc]
                if c != zero:
                    neg = field._neg(c)
                    row = [
                        field._add(a, field._mul(neg, b)) for a, b in zip(row, brow)
                    ]
            pc = next((i for i, c in enumerate(row) if c != zero), None)
            if pc is None:
                continue
            inv = field.unit_inverse(field.elem(row[pc])).data
            row = [field._mul(c, inv) for c in row]
            basis.append(row)
            pivots.append(pc)
    expected = sum(cd.cls.size for cd, j in zip(code.dec.data, code.exps) if j == 0)
    assert len(basis) == expected
    return basis


def _field(p, t, l, kind="galois"):
    return ring_construct({"kind": kind, "p": p, "t": t, "l": l})


def _unpack(field, n, words):
    """The payload rows of packed words: F_p digit m of coordinate pos is
    the w-bit lane m*n + pos, w = 1 for p = 2 and bitlen(p-1) + 1 else."""
    w = 1 if field.p == 2 else (field.p - 1).bit_length() + 1
    digit = lambda word, lane: word >> (w * lane) & ((1 << w) - 1)
    return [
        [field._from_coords([digit(word, m * n + pos) for m in range(field.l)]) for pos in range(n)]
        for word in words
    ]


def _walk(fn, ambient, basis, budget):
    """fn's least weight, or "over budget"."""
    try:
        return fn(ambient, basis, budget)
    except BudgetExceeded:
        return "over budget"


def _both(ambient, words, budget):
    """(packed walk on the words u_m*b_i, recursive reference on the rows
    b_i = u_0*b_i), or both raising over the budget."""
    rows = _unpack(ambient.ring, ambient.n, words[:: ambient.ring.l])
    return [
        _walk(distance._min_weight, ambient, words, budget),
        _walk(_min_weight_reference, ambient, rows, budget),
    ]


@pytest.mark.parametrize(
    "ring, moduli, budget",
    [
        (_field(2, 1, 2), ["x^5-1"], 2**14),
        (_field(5, 1, 1), ["x^6-1"], 2**14),
        (_field(3, 1, 2), ["x^4-1"], 2**14),
        # the reference is too slow for all of GF(8) x^7-1 here: the 64
        # codes with 8^k > 2^10 are only checked to raise on both
        (_field(2, 1, 3), ["x^7-1"], 2**10),
        (_field(2, 3, 2, kind="truncated"), ["x^5+x+1"], 2**14),
        (_field(2, 2, 1), ["x^3+x+1", "y^2+y+1"], 2**14),  # non-abelian
        # walks of several Gray blocks: the binary Golay code, and GF(3) x^13-1
        (_field(2, 1, 1), ["x^23-1"], 2**14),
        (_field(3, 1, 1), ["x^13-1"], 2**14),
    ],
    ids=["GF4", "GF5", "GF9", "GF8", "F4[u]/u^3", "Z4-nonabelian", "GF2-Golay", "GF3"],
)
def test_packed_walk_matches_reference_on_carriers(ring, moduli, budget):
    amb = Ambient(ring, [parse_univariate(m, ring, var=i) for i, m in enumerate(moduli)])
    for K in enumerate_codes(amb):
        if K.is_zero():
            continue
        L = K if ring.t == 1 else K.socle_field_code()
        new, old = _both(L.ambient, distance._field_basis(L), budget)
        assert new == old, K.exps


@pytest.mark.parametrize("p, l", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_packed_walk_matches_reference_on_random_bases(p, l):
    """Seeded full-rank bases with q^k <= 2^12: a unit at each row's pivot,
    zeros at the earlier rows' pivots, random entries elsewhere.  Each row
    b is packed as its l words u_m*b, which unpack to u_m*b."""
    field = _field(p, 1, l)
    units = [field._from_coords([int(m == j) for m in range(l)]) for j in range(l)]
    rng = random.Random(p * 10 + l)
    kmax = max(k for k in range(1, 13) if field.size**k <= 2**12)
    for k in range(1, kmax + 1):
        for _ in range(3):
            n = 2 * k + rng.randrange(1, 9)
            pivots = rng.sample(range(n), k)
            basis = []
            for i, pc in enumerate(pivots):
                row = [field._from_rank(rng.randrange(field.size)) for _ in range(n)]
                for earlier in pivots[:i]:
                    row[earlier] = field._zero
                row[pc] = field._from_rank(rng.randrange(1, field.size))
                basis.append(row)
            amb = SimpleNamespace(ring=field, n=n)
            words = _pack_rows(field, basis)
            assert _unpack(field, n, words) == [
                [field._mul(u, c) for c in row] for row in basis for u in units
            ]
            new, old = _both(amb, words, 2**12)
            assert new == old != "over budget", (k, n)


@pytest.mark.parametrize("q", [3, 4])
def test_budget_counts_all_q_to_the_k_words(amb_z9, gr42, q):
    """The walk examines (q^k-1)/(q-1) words, yet the budget counts q^k."""
    if q == 3:
        K = code_from_exponents(amb_z9, [0, 1, 2, 0])
    else:
        amb = Ambient(gr42, [Poly.from_ints(gr42, [-1, 0, 0, 1])])
        K = code_from_exponents(amb, [0, 1, 2])
    L = K.socle_field_code()
    assert L.ambient.ring.size == q
    k = len(distance._field_basis(L)) // L.ambient.ring.l
    assert k >= 2
    d = distance_bruteforce(span_of_code(K.socle()))
    assert min_distance(K, budget=q**k) == d
    with pytest.raises(BudgetExceeded):
        min_distance(K, budget=q**k - 1)


def _rank(field, rows):
    """F_q-rank of a list of payload rows, by elimination."""
    zero = field._zero
    reduced = []  # (pivot, row with a unit pivot)
    for row in rows:
        row = list(row)
        for pc, brow in reduced:
            if row[pc] != zero:
                neg = field._neg(row[pc])
                row = [field._add(a, field._mul(neg, b)) for a, b in zip(row, brow)]
        pc = next((i for i, c in enumerate(row) if c != zero), None)
        if pc is not None:
            inv = field.unit_inverse(field.elem(row[pc])).data
            reduced.append((pc, [field._mul(c, inv) for c in row]))
    return len(reduced)


_ROW_AMBIENTS = [
    (_field(2, 1, 2), ["x^5-1"]),
    (_field(2, 1, 1), ["x^23-1"]),
    (_field(2, 3, 2, kind="truncated"), ["x^5+x+1"]),
    (_field(2, 2, 1), ["x^3+x+1", "y^2+y+1"]),  # non-abelian
    (_field(3, 2, 1), ["x^4-1", "y^4-1"]),
    (_field(2, 2, 1), ["x^3-1", "y^3-1", "z^3-1"]),
]
_ROW_IDS = ["GF4", "GF2-Golay", "F4[u]/u^3", "Z4-nonabelian", "Z9-x4y4", "Z4-x3y3z3"]


def _row_ambient(ring, moduli):
    return Ambient(ring, [parse_univariate(m, ring, var=i) for i, m in enumerate(moduli)])


@pytest.mark.parametrize("ring, moduli", _ROW_AMBIENTS, ids=_ROW_IDS)
def test_class_rows_match_per_code_elimination(ring, moduli):
    """Every socle carrier: the concatenated class rows span the same F_q-code
    as the per-code elimination, and the walk reads the same distance.

    A carrier depends only on which classes have j < t, so the codes with
    every j in {0, t} reach each nonzero carrier once.  Over 2^8 carriers a
    seeded sample of 2^8 is taken.
    """
    amb = _row_ambient(ring, moduli)
    t = ring.t
    N = decompose(amb).class_count
    carriers = list(itertools.product((0, t), repeat=N))[:-1]  # drop the zero code
    if len(carriers) > 2**8:
        carriers = random.Random(N).sample(carriers, 2**8)
    for exps in carriers:
        K = code_from_exponents(amb, exps)
        L = K if t == 1 else K.socle_field_code()
        field = L.ambient.ring
        new = distance._field_basis(L)
        rows = _unpack(field, L.ambient.n, new)
        old = _field_basis_reference(L)
        assert len(new) == field.l * len(old), exps
        assert _rank(field, rows[:: field.l]) == len(old) == _rank(field, rows + old), exps
        assert _walk(distance._min_weight, L.ambient, new, 2**12) == _walk(
            _min_weight_reference, L.ambient, old, 2**12
        ), exps


@pytest.mark.parametrize("ring, moduli", _ROW_AMBIENTS, ids=_ROW_IDS)
def test_class_rows_lie_in_their_minimal_ideal(ring, moduli):
    """Each class has |C| rows, packed as l|C| words, and e-bar_C fixes every
    one of them."""
    Abar = _row_ambient(ring, moduli).residue_ambient
    field = Abar.ring
    dec = decompose(Abar)
    for cd, words in zip(dec.data, dec.rows):
        assert len(words) == field.l * cd.cls.size
        for row in _unpack(field, Abar.n, words):
            v = Abar.from_vector([field.elem(c) for c in row])
            assert cd.e * v == v


@pytest.mark.parametrize(
    "ring, moduli",
    [
        (_field(2, 1, 1), ["x^23-1"]),
        (_field(2, 1, 2), ["x^15-1"]),
        (_field(2, 1, 1), ["x^3-1", "y^3-1", "z^3-1"]),
    ],
    ids=["GF2-Golay", "GF4-x15", "GF2-x3y3z3"],
)
def test_class_rows_stop_at_the_class_size(ring, moduli, monkeypatch):
    """Reading every class's rows makes one product X^a * e_C per row: |C|
    per class and n in all, in one variable and in three."""
    from chaincodes.polys import MPoly

    amb = _row_ambient(ring, moduli)
    dec = decompose(amb)
    dec.data  # the idempotents, built before counting
    calls = []
    real = MPoly.__mul__
    monkeypatch.setattr(MPoly, "__mul__", lambda a, b: calls.append(1) or real(a, b))
    dec.rows
    assert len(calls) == amb.n


@pytest.mark.parametrize(
    "ring, moduli, exps",
    [
        (_field(2, 1, 1), ["x^23-1"], (1, 0, 1)),
        (_field(3, 1, 1), ["x^13-1"], (1, 0, 1, 0, 1)),
    ],
    ids=["GF2-Golay", "GF3-x13"],
)
def test_walk_raises_on_dependent_rows(ring, moduli, exps):
    """With its first row repeated, a basis of a code of distance > 1 spans
    the zero word, and the walk raises instead of reading weight 0."""
    amb = _row_ambient(ring, moduli)
    code = code_from_exponents(amb, exps)
    assert min_distance(code) > 1
    words = distance._field_basis(code)
    with pytest.raises(InternalError):
        distance._min_weight(amb, words[: ring.l] + words, 2**16)


@pytest.mark.parametrize(
    "ring, moduli, exps",
    [
        (_field(2, 1, 2), ["x^15-1"], None),
        (_field(2, 2, 2), ["x^15-1"], None),
        (_field(3, 2, 1), ["x^8-1"], None),
        (_field(2, 1, 1), ["x^23-1"], (0, 1, 0)),
    ],
    ids=["GF4", "GR(4,2)", "Z9", "GF2-Golay"],
)
def test_warm_distance_only_walks(ring, moduli, exps, monkeypatch):
    """A second min_distance on the same warm decomposition packs nothing:
    the carrier field's _coords and _mul raise, and the distance is unchanged.
    Without a pinned code, a seeded sample of 12 nonzero codes whose carrier
    has q^k <= 2^16 is taken."""
    amb = _row_ambient(ring, moduli)
    dec = decompose(amb)
    t, q = ring.t, ring.q
    if exps:
        codes = [code_from_exponents(amb, exps)]
    else:
        def carrier_dim(e):
            return sum(c.size for c, j in zip(dec.classes, e) if j < t)

        fits = [
            e
            for e in itertools.product(range(t + 1), repeat=dec.class_count)
            if 0 < carrier_dim(e) and q ** carrier_dim(e) <= 2**16
        ]
        codes = [code_from_exponents(amb, e) for e in random.Random(len(fits)).sample(fits, 12)]
    first = [min_distance(K) for K in codes]
    field = amb.residue_ambient.ring

    def boom(*args):
        raise AssertionError("a warm distance repacked a row")

    monkeypatch.setattr(type(field), "_coords", boom)
    monkeypatch.setattr(type(field), "_mul", boom)
    assert [min_distance(K) for K in codes] == first
