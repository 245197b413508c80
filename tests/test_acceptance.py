"""Acceptance battery: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to see them all,
or read the captured output of a failing criterion).
"""

import json
import time
from math import lcm

from chaincodes import (
    build_nontrivial_selfdual,
    code_from_generators,
    decompose,
    distance_bound,
    dual,
    enumerate_codes,
    hensel_lift_distance_check,
    is_selfdual,
    kerdock_demo,
    min_distance,
    nontrivial_selfdual_exists,
    trivial_selfdual,
)
from chaincodes.cli import main as cli_main
from chaincodes.oracle import (
    annihilator_bruteforce,
    distance_bruteforce,
    dual_bruteforce,
    ideal_census,
    ideal_span,
    span_of_code,
)

Z4_JSON = '{"kind":"galois","p":2,"t":2,"l":1}'


def _finish(num, desc, started, limit):
    elapsed = time.monotonic() - started
    ok = elapsed < limit
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {desc} [{elapsed:.2f}s < {limit}s]")
    assert ok, f"criterion {num} exceeded its time limit ({elapsed:.2f}s >= {limit}s)"


def test_criterion_1_hensel_factorization(capsys):
    started = time.monotonic()
    code = cli_main(["factor", "--ring", Z4_JSON, "--moduli", "x^7-1"])
    out = capsys.readouterr().out
    assert code == 0
    obj = json.loads(out)
    lifted = obj["factorizations"][0]["lifted_factors"]
    assert set(lifted) == {"x+3", "x^3+2*x^2+x+3", "x^3+3*x^2+2*x+3"}
    # product reassembles x^7 - 1 bit-exactly
    from chaincodes import Poly, parse_univariate, ring_from_json

    ring = ring_from_json(Z4_JSON)
    prod = Poly.one(ring)
    for text in lifted:
        prod = prod * parse_univariate(text, ring)
    assert prod == parse_univariate("x^7-1", ring)
    with capsys.disabled():
        _finish(1, "Hensel factorization of x^7-1 over Z4", started, 1.0)


def test_criterion_2_class_census(amb_x7, amb_x3y3, amb_z9, orbit_length, capsys):
    started = time.monotonic()
    expectations = [
        (amb_x7, 3, [1, 3, 3]),
        (amb_x3y3, 5, [1, 2, 2, 2, 2]),
        (amb_z9, 4, [1, 1, 1, 1]),
    ]
    for amb, n_expect, sizes in expectations:
        t0 = time.monotonic()
        dec = decompose(amb)
        assert dec.class_count == n_expect
        assert [cd.cls.size for cd in dec.data] == sizes
        q = amb.ring.q
        exps = amb.exponents
        for cd in dec.data:
            ds = [orbit_length(lab, e, q) for lab, e in zip(cd.cls.rep, exps)]
            assert cd.cls.size == lcm(*ds)
        assert time.monotonic() - t0 < 1.0
    with capsys.disabled():
        _finish(2, "class censuses with independent lcm sizes", started, 3.0)


def test_criterion_3_code_counting(amb_x7, amb_x3y3, amb_z9, capsys):
    started = time.monotonic()
    assert len(list(enumerate_codes(amb_x7))) == 27
    assert len(list(enumerate_codes(amb_x3y3))) == 243
    assert len(list(enumerate_codes(amb_z9))) == 81
    for amb in (amb_x7, amb_z9):  # the |R|^n <= 2^16 ambients
        census = ideal_census(amb)
        spans = [span_of_code(K) for K in enumerate_codes(amb)]
        assert len(census) == len(spans)
        for sp in spans:
            assert any(c == sp for c in census)
        for c in census:
            assert any(sp == c for sp in spans)
    with capsys.disabled():
        _finish(3, "(t+1)^N counts and exhaustive ideal census", started, 60.0)


def test_criterion_4_crt_idempotents(amb_x7, amb_x3y3, amb_z9, capsys):
    started = time.monotonic()
    for amb in (amb_x7, amb_x3y3, amb_z9):
        dec = decompose(amb)
        total = amb.zero()
        comp_product = 1
        for i, cd in enumerate(dec.data):
            assert cd.e * cd.e == cd.e
            total = total + cd.e
            comp_product *= cd.component_size
            for cj in dec.data[i + 1 :]:
                assert (cd.e * cj.e).is_zero()
        assert total == amb.one()
        assert comp_product == amb.ring.size**amb.n
        for cd in dec.data:
            ann = annihilator_bruteforce(amb, cd.h, naive=False)
            ic = ideal_span(amb, cd.ideal_generators(amb))
            assert ann == ic
    with capsys.disabled():
        _finish(4, "CRT, idempotents, annihilator identities", started, 60.0)


def test_criterion_5_generator_round_trip(amb_x7, capsys):
    started = time.monotonic()
    for K in enumerate_codes(amb_x7):
        gens = K.generators()
        assert code_from_generators(amb_x7, [gens.G]) == K
        assert span_of_code(K).cardinality == K.cardinality()
    with capsys.disabled():
        _finish(5, "single-generator round trip and cardinality vs oracle", started, 60.0)


def test_criterion_6_duality(amb_x7, amb_z9, capsys):
    started = time.monotonic()
    for amb in (amb_x7, amb_z9):
        total = amb.ring.size**amb.n
        for K in enumerate_codes(amb):
            span = span_of_code(K)
            brute = dual_bruteforce(amb, span, naive=True)
            assert span_of_code(dual(K)) == brute
            assert dual(dual(K)) == K
            assert K.cardinality() * dual(K).cardinality() == total
    with capsys.disabled():
        _finish(6, "formula dual == brute dual on 27 + 81 codes", started, 300.0)


def test_criterion_7_self_duality(amb_x7, amb_x3y3, amb_z9, capsys):
    started = time.monotonic()
    assert nontrivial_selfdual_exists(amb_x7) is True
    assert nontrivial_selfdual_exists(amb_z9) is False
    assert nontrivial_selfdual_exists(amb_x3y3) is False
    K = build_nontrivial_selfdual(amb_x7)
    assert K.cardinality() == 128
    assert K != trivial_selfdual(amb_x7)
    span = span_of_code(K)
    assert dual_bruteforce(amb_x7, span, naive=True) == span  # K == K-perp
    for amb in (amb_x7, amb_x3y3, amb_z9):
        swept = any(
            is_selfdual(C) and C != trivial_selfdual(amb) for C in enumerate_codes(amb)
        )
        assert swept == nontrivial_selfdual_exists(amb)
    with capsys.disabled():
        _finish(7, "self-duality criterion, construction, exhaustive sweep", started, 60.0)


def test_criterion_8_distance(amb_x7, amb_x3y3, amb_z9, capsys):
    started = time.monotonic()
    # the Hensel lift of the [7,4,3] Hamming code: generator residue x^3+x+1
    dec = decompose(amb_x7)
    q_ham = next(
        g
        for g in dec.lifted_factorizations[0].factors
        if [c.data for c in g.coeffs] == [3, 1, 2, 1]
    )
    K = code_from_generators(amb_x7, [amb_x7.from_polynomial(q_ham)])
    assert K.is_hensel_lift()
    check = hensel_lift_distance_check(K)
    assert check.distance == 3 and check.residue_distance == 3 and check.equal

    for amb in (amb_x7, amb_x3y3, amb_z9):
        for C in enumerate_codes(amb):
            if C.is_zero():
                continue
            d = min_distance(C)
            assert d == min_distance(C.socle())
            assert d == distance_bruteforce(span_of_code(C.socle()))
            assert distance_bound(C) <= d
    # full R-level oracle enumeration where it is cheap
    for amb in (amb_x7, amb_z9):
        for C in enumerate_codes(amb):
            if C.is_zero():
                continue
            assert min_distance(C) == distance_bruteforce(span_of_code(C))
    with capsys.disabled():
        _finish(8, "distances: Hamming lift, socle equality, bound", started, 300.0)


def test_criterion_9_kerdock(capsys):
    started = time.monotonic()
    demo = kerdock_demo(2, 3)
    assert demo["base_cardinality"] == 256  # q^{2(m+1)}
    assert demo["length"] == 14
    assert demo["cardinality"] == 256
    assert demo["nonlinear"] is True
    assert demo["exact_distance"] >= 1
    assert demo["formula_value"]
    with capsys.disabled():
        _finish(9, "Kerdock demo: counts, nonlinearity, exact distance", started, 30.0)
