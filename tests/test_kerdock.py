"""The Teichmuller trace-code demo at desk scale (q = 2, m = 3)."""

import itertools
import json
import random
from types import SimpleNamespace

import pytest

from chaincodes import DomainError, base_linear_code, kerdock_demo, kerdock_instance
from chaincodes import kerdock as kerdock_mod
from chaincodes.factor import prime_factors
from chaincodes.kerdock import (
    _pairwise_min_distance,
    distance_formula_candidates,
    gamma_star,
    kerdock_project,
    nonlinearity_witness,
    polycyclic_embed,
    teich_add,
    teichmuller_decompose,
)


@pytest.fixture(scope="module")
def inst():
    return kerdock_instance(2, 3)


@pytest.fixture(scope="module")
def words(inst):
    return base_linear_code(inst)


def test_instance_shape(inst):
    assert inst.tau == 7
    assert inst.R.size == 4 and inst.S.size == 64
    assert inst.theta**7 == inst.S.one
    assert len(inst.units) == 2 and len(inst.teich_R) == 2


def test_gamma_field_structure(inst):
    """(Gamma(S), (+), *) is the field with q^m = 8 elements."""
    S = inst.S
    gam = S.teichmuller_set()
    assert len(gam) == 8
    for a, b in itertools.product(gam, repeat=2):
        assert teich_add(S, a, b) in gam
        assert a * b in gam
        for c in gam:
            assert teich_add(S, teich_add(S, a, b), c) == teich_add(S, a, teich_add(S, b, c))
            assert a * teich_add(S, b, c) == teich_add(S, a * b, a * c)


def test_decompose_bijection(inst):
    S = inst.S
    seen = set()
    for x in S.elements():
        g0, g1 = teichmuller_decompose(S, x)
        assert g0**8 == g0 and g1**8 == g1
        assert x == g0 + 2 * g1
        seen.add((g0.data, g1.data))
    assert len(seen) == S.size


def test_decompose_examples(inst):
    R = inst.R
    assert teichmuller_decompose(R, R.zero) == (R.zero, R.zero)
    assert teichmuller_decompose(R, R.from_int(2)) == (R.zero, R.one)
    assert teichmuller_decompose(R, R.from_int(3)) == (R.one, R.one)


def test_gamma_star_is_gray_map(inst):
    R = inst.R
    images = {
        a: tuple(c.coords()[0] for c in gamma_star(inst, R.from_int(a)))
        for a in range(4)
    }
    assert images == {0: (0, 0), 1: (0, 1), 2: (1, 1), 3: (1, 0)}


def test_base_code(inst, words):
    assert len(words) == 256  # q^{2(m+1)}
    assert all(len(w) == 7 for w in words)
    zero = tuple(inst.R.zero for _ in range(7))
    ones = tuple(inst.R.one for _ in range(7))
    assert zero in words and ones in words
    # R-linear: closed under addition and scaling
    wset = set(words)
    import random

    rng = random.Random(0)
    sample = rng.sample(words, 24)
    for u in sample:
        for v in sample:
            assert tuple(a + b for a, b in zip(u, v)) in wset
        for c in inst.R.elements():
            assert tuple(c * a for a in u) in wset


def test_projection(inst, words):
    projected = kerdock_project(inst, words)
    assert len(projected) == 256
    assert len(set(projected)) == 256
    assert all(len(w) == 14 for w in projected)
    zero_img = kerdock_project(inst, [tuple(inst.R.zero for _ in range(7))])[0]
    assert all(c.is_zero() for c in zero_img)


def test_projection_nonlinear(inst, words):
    projected = kerdock_project(inst, words)
    witness = nonlinearity_witness(inst, projected)
    assert witness is not None
    u, v = witness
    s = tuple(teich_add(inst.R, a, b) for a, b in zip(u, v))
    assert s not in set(projected)


def test_polycyclic_embedding_is_tensor(inst, words):
    ambient, embedded = polycyclic_embed(inst, words)
    assert ambient.r == 2 and ambient.n == 14
    assert not ambient.semisimple  # X_2^2 - 1 is a square mod 2
    assert len(set(embedded)) == 256
    # coefficient vectors equal word (x) units in the fixed term order
    for word, mp in zip(words[:32], embedded[:32]):
        vec = mp.coeffs
        for rank in range(ambient.n):
            i1, i2 = ambient.exps(rank)
            unit = inst.units[i2]
            assert vec[rank] == word[i1] * unit


def test_demo_summary():
    demo = kerdock_demo(2, 3)
    assert demo["base_cardinality"] == 256
    assert demo["length"] == 14
    assert demo["cardinality"] == 256
    assert demo["nonlinear"] is True
    assert demo["embedded_cardinality"] == 256
    assert demo["exact_distance"] >= 1
    assert set(demo["formula_value"]) == {"n=tau*q", "n=q^m"}


def test_formula_is_exact():
    demo = kerdock_demo(2, 3)

    def no_float(x):
        if isinstance(x, dict):
            return all(no_float(v) for v in x.values())
        if isinstance(x, (list, tuple)):
            return all(no_float(v) for v in x)
        return not isinstance(x, float)

    assert no_float(demo)
    assert json.loads(json.dumps(demo)) == demo
    assert demo["formula_value"] == {
        "n=tau*q": {"n": 14, "rational": "5", "sqrt_n_coeff": "-1/2", "floor": 3},
        "n=q^m": {"n": 8, "rational": "2", "sqrt_n_coeff": "-1/2", "floor": 0},
    }


def test_formula_floor_brackets_the_value():
    """floor <= (q-1)/q (n - sqrt(n)) - q < floor + 1, checked in integers:
    with A = (q-1) n - q^2 the value is (A - (q-1) sqrt(n)) / q."""
    for q in (2, 3, 4, 8):
        for tau in range(1, 40):
            for m in (1, 2, 3):
                inst = SimpleNamespace(q=q, tau=tau, m=m)
                for n, got in zip((tau * q, q**m), distance_formula_candidates(inst).values()):
                    a, r2 = (q - 1) * n - q * q, (q - 1) ** 2 * n
                    lo, hi = a - q * got["floor"], a - q * (got["floor"] + 1)
                    assert got["n"] == n
                    assert lo >= 0 and lo * lo >= r2  # floor <= value
                    assert hi < 0 or hi * hi < r2  # value < floor + 1


def test_demo_m5():
    demo = kerdock_demo(2, 5)
    assert demo["base_length"] == 31
    assert demo["length"] == 62
    assert demo["cardinality"] == 4096  # q^{2(m+1)}
    assert demo["nonlinear"] is True
    assert demo["exact_distance"] >= 1


def test_rejects_bad_parameters():
    with pytest.raises(DomainError):
        kerdock_instance(2, 4)  # m must be odd
    with pytest.raises(DomainError):
        kerdock_instance(3, 3)  # q must be a power of 2


def _scanned_teichmuller_generator(S, tau):
    """The first element of order tau in `teichmuller_set`, the reference
    for theta."""
    nonzero = [g for g in S.teichmuller_set() if not g.is_zero()]
    primes = prime_factors(tau)
    for g in nonzero:
        if g**tau == S.one and all(g ** (tau // p) != S.one for p in primes):
            return g


@pytest.mark.parametrize("q, m", [(2, 3), (2, 5), (2, 7), (4, 3), (8, 3)])
def test_theta_is_the_first_teichmuller_element_of_order_tau(q, m):
    inst = kerdock_instance(q, m)
    assert inst.theta == _scanned_teichmuller_generator(inst.S, inst.tau)


@pytest.mark.parametrize("q", [4, 8])
def test_units_run_first_eta_fastest(q):
    inst = kerdock_instance(q, 3)
    R = inst.R
    assert len(inst.units) == 2 ** len(inst.etas) == q
    for i, u in enumerate(inst.units):
        want = R.one
        for j, eta in enumerate(inst.etas):
            if i >> j & 1:
                want = want * eta
        assert u == want
    assert len(set(inst.units)) == q


def test_polycyclic_embed_matches_the_per_rank_eta_product():
    inst = kerdock_instance(4, 3)
    R = inst.R
    rng = random.Random(1)
    elems = list(R.elements())
    words = [tuple(rng.choice(elems) for _ in range(inst.tau)) for _ in range(3)]
    ambient, embedded = polycyclic_embed(inst, words)
    assert ambient.r == 3 and ambient.n == 4 * inst.tau
    for word, mp in zip(words, embedded):
        for rank in range(ambient.n):
            exps = ambient.exps(rank)
            u = R.one
            for b, eta in zip(exps[1:], inst.etas):
                if b:
                    u = u * eta
            assert mp.coeffs[rank] == word[exps[0]] * u


def _per_coordinate_min_distance(words):
    """The reference loop, which stops at distance 1 as the demo's does."""
    best = None
    for i, u in enumerate(words):
        for v in words[i + 1 :]:
            d = sum(1 for a, b in zip(u, v) if a != b)
            if best is None or d < best:
                best = d
                if best == 1:
                    return best
    return best


@pytest.mark.parametrize("symbols", [2, 3, 4])
def test_pairwise_min_distance_matches_the_per_coordinate_loop(inst, symbols):
    alphabet = list(inst.R.elements())[:symbols]
    rng = random.Random(symbols)
    for count in (0, 1, 2, 3, 9, 30):
        for length in (1, 5, 12):
            words = [tuple(rng.choice(alphabet) for _ in range(length)) for _ in range(count)]
            assert _pairwise_min_distance(words) == _per_coordinate_min_distance(words)
    assert _pairwise_min_distance([()]) is None
    assert _pairwise_min_distance([tuple(alphabet)] * 2) == 0


def test_teichmuller_decompose_is_two_teichmuller_maps(inst):
    for ring in (inst.R, inst.S):
        for x in ring.elements():
            g0 = ring.teichmuller(x)
            g1 = ring.teichmuller(ring.divide_by_a(x - g0))
            assert teichmuller_decompose(ring, x) == (g0, g1)


def test_demo_maps_each_symbol_once(monkeypatch):
    """gamma* is computed once per element of R and (+) once per pair of
    Teichmuller symbols, beside the q - 1 sums inside each gamma*."""
    calls = {"gamma_star": 0, "teich_add": 0}
    for name in calls:
        real = getattr(kerdock_mod, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(kerdock_mod, name, counted)
    inst = kerdock_instance(2, 3)
    kerdock_demo(2, 3)
    size, teich = inst.R.size, len(inst.teich_R)
    assert calls["gamma_star"] <= size
    assert calls["teich_add"] <= size * (inst.q - 1) + teich**2
