"""Class data, separator polynomials, idempotents and the CRT structure."""

import importlib
import random

import pytest

from chaincodes import (
    Ambient,
    DomainError,
    Poly,
    code_from_exponents,
    code_from_generators,
    decompose,
    distance_bound,
    dual,
    dual_cardinality,
    enumerate_codes,
    factor_squarefree,
    ideal_span,
    inverse_class_map,
    min_distance,
    parse_univariate,
    ring_construct,
)
from chaincodes import distance
from chaincodes.decompose import _poly_over_tower_to_mpoly
from chaincodes.oracle import annihilator_bruteforce, distance_bruteforce, span_of_code
from chaincodes.rings import ChainRing, ExtensionRing, RingElem
from test_product_kernel import RINGS


def test_h_for_singleton_class(amb_x7):
    dec = decompose(amb_x7)
    assert dec.data[0].cls.rep == (0,)
    assert dec.data[0].h.to_text() == "x^6+x^5+x^4+x^3+x^2+x+1"


def test_component_rings(amb_x7, amb_x3y3):
    dec = decompose(amb_x7)
    assert [cd.component_size for cd in dec.data] == [4, 64, 64]
    assert [cd.component_ring.q for cd in dec.data] == [2, 8, 8]
    dec2 = decompose(amb_x3y3)
    by_rep = {cd.cls.rep: cd for cd in dec2.data}
    assert by_rep[(1, 1)].component_size == 16  # GR(4,2)-sized


def test_crt_component_product(amb_x7, amb_x3y3, amb_z9):
    for amb in (amb_x7, amb_x3y3, amb_z9):
        dec = decompose(amb)
        prod = 1
        for cd in dec.data:
            prod *= cd.component_size
        assert prod == amb.ring.size**amb.n


def test_class_polynomials_example(amb_x3y3):
    """mu = (w, w): p_i = X_i^2+X_i+1, w_2 = X_2+X_1, pi_2 = X_2+X_1+1."""
    dec = decompose(amb_x3y3)
    cd = next(c for c in dec.data if c.cls.rep == (1, 1))
    assert [c.data for c in cd.p_polys[0].coeffs] == [1, 1, 1]
    assert [c.data for c in cd.p_polys[1].coeffs] == [1, 1, 1]
    ra = amb_x3y3.residue_ambient
    w2 = _poly_over_tower_to_mpoly(cd.w_polys[1], ra, 1)
    pi2 = _poly_over_tower_to_mpoly(cd.pi_polys[1], ra, 1)
    assert w2 == ra.parse("x2+x1")
    assert pi2 == ra.parse("x2+x1+1")


def test_degree_one_class(amb_z9):
    """mu = (1, 1): q_i = X_i - 1, z_2 = X_2 - 1, sigma_2 = 1."""
    dec = decompose(amb_z9)
    cd = next(c for c in dec.data if c.cls.rep == (0, 0))
    assert [c.data for c in cd.q_polys[0].coeffs] == [8, 1]
    z2 = _poly_over_tower_to_mpoly(cd.z_polys[1], amb_z9, 1)
    assert z2 == amb_z9.parse("x2+8")
    assert cd.sigma_polys[1].degree == 0


def test_lifted_class_polynomials_example(amb_x3y3, z4):
    """mu = (w, w) over Z4: z_2 = X_2+3X_1, sigma_2 = X_2+X_1+1."""
    dec = decompose(amb_x3y3)
    cd = next(c for c in dec.data if c.cls.rep == (1, 1))
    assert [c.data for c in cd.q_polys[0].coeffs] == [1, 1, 1]
    z2 = _poly_over_tower_to_mpoly(cd.z_polys[1], amb_x3y3, 1)
    s2 = _poly_over_tower_to_mpoly(cd.sigma_polys[1], amb_x3y3, 1)
    assert z2 == amb_x3y3.parse("x2+3*x1")
    assert s2 == amb_x3y3.parse("x2+x1+1")
    # z * sigma multiplies back to q_2 inside the tower ring
    prod = cd.z_polys[1] * cd.sigma_polys[1]
    ring1 = cd.tower[0]
    q_emb = cd.q_polys[1].map_coeffs(ring1.embed, ring1)
    assert prod == q_emb


def test_h_example_x3y3(amb_x3y3):
    dec = decompose(amb_x3y3)
    cd = next(c for c in dec.data if c.cls.rep == (1, 1))
    expected = (
        amb_x3y3.parse("x1+3") * amb_x3y3.parse("x2+3") * amb_x3y3.parse("x2+x1+1")
    )
    assert cd.h == expected


def test_h_degenerate_single_class(z4):
    amb = Ambient(z4, [Poly.from_ints(z4, [-1, 1])])  # t = x-1, one class
    dec = decompose(amb)
    assert dec.class_count == 1
    assert dec.data[0].h == amb.one()
    assert dec.data[0].e == amb.one()
    assert dec.data[0].g == amb.one()


def test_idempotent_family(amb_x7, amb_x3y3, amb_z9):
    for amb in (amb_x7, amb_x3y3, amb_z9):
        dec = decompose(amb)
        total = amb.zero()
        for i, cd in enumerate(dec.data):
            assert cd.e * cd.e == cd.e
            assert cd.g * cd.h == cd.e
            total = total + cd.e
            for cj in dec.data[i + 1 :]:
                assert (cd.e * cj.e).is_zero()
        assert total == amb.one()


def _ambient(ring, *moduli):
    return Ambient(ring, [parse_univariate(m, ring, var=i) for i, m in enumerate(moduli)])


def _idempotent_from_h(dec, idx):
    """Route-independent idempotent: a plain power of h_C."""
    cd = dec.data[idx]
    t = dec.ambient.ring.t
    qc = dec.ambient.ring.q ** cd.cls.size
    exponent = t * (qc**t - qc ** (t - 1))
    return cd.h**exponent


def test_idempotent_two_routes_agree(amb_x7, amb_x3y3, amb_z9, z4, z9):
    """Definition-faithful h-power route vs the uncorrected lifted-CRT route."""
    for amb in (
        amb_x7,
        amb_x3y3,
        amb_z9,
        _ambient(z4, "x^15-1"),
        _ambient(z9, "x^8-1"),
        _ambient(z4, "x^3-1", "y^3-1", "z^3-1"),
        _ambient(z4, "x^3+x+1", "y^2+y+1"),
    ):
        dec = decompose(amb)
        for i in range(dec.class_count):
            assert _idempotent_from_h(dec, i) == dec.data[i].e


def test_z9_idempotents_match_characters(amb_z9):
    dec = decompose(amb_z9)
    for cd in dec.data:
        a, b = cd.cls.rep
        mu1, mu2 = (1, 8)[a], (1, 8)[b]  # the lifted roots +-1 in Z9
        char = amb_z9.parse(
            f"7+{(7 * mu1) % 9}*x1+{(7 * mu2) % 9}*x2+{(7 * mu1 * mu2) % 9}*x1*x2"
        )
        assert cd.e.residue() == char.residue()
        assert char * char == char  # 4^{-1} = 7 makes these exact over Z9 too
        assert cd.e == char


def test_degree_one_relative_polynomials(amb_x3y3):
    """mu = (1, 1) over F_2: p_i = X_i + 1, w_2 = X_2 + 1, pi_2 = 1."""
    dec = decompose(amb_x3y3)
    cd = next(c for c in dec.data if c.cls.rep == (0, 0))
    assert [c.data for c in cd.p_polys[0].coeffs] == [1, 1]
    assert [c.data for c in cd.p_polys[1].coeffs] == [1, 1]
    assert cd.w_polys[1].degree == 1
    assert cd.pi_polys[1].degree == 0


def test_univariate_minimal_polynomial(amb_x7):
    """The class {1,2,4} has minimal polynomial x^3 + x + 1 (no w or pi)."""
    dec = decompose(amb_x7)
    cd = next(c for c in dec.data if c.cls.rep == (1,))
    assert [c.data for c in cd.p_polys[0].coeffs] == [1, 1, 0, 1]
    assert len(cd.w_polys) == 1  # nothing beyond the placeholder slot


def _evaluate(f, point, embed):
    """An ambient element evaluated at a tuple of elements of a larger field."""
    acc = point[0].ring.zero
    for rank, c in enumerate(f.coeffs):
        if c.is_zero():
            continue
        term = embed(c)
        for x, e in zip(point, f.ambient.exps(rank)):
            if e:
                term = term * x**e
        acc = acc + term
    return acc


def test_zero_locus(amb_x7, amb_x3y3):
    """residue(h_C) vanishes exactly off C."""
    import itertools

    for amb in (amb_x7, amb_x3y3):
        dec = decompose(amb)
        sd = dec.splitting
        for cd in dec.data:
            hbar = cd.h.residue()
            members = set(cd.cls.members)
            for mu in itertools.product(*sd.roots):
                point = [sd.field.elem(sd.root(i, lab)) for i, lab in enumerate(mu)]
                value = _evaluate(hbar, point, sd.embed)
                if mu in members:
                    assert not value.is_zero()
                else:
                    assert value.is_zero()


def test_annihilator_identity(amb_x7, amb_x3y3, amb_z9):
    """Ann(<h_C + I>) == span(I_C + I), via the oracle."""
    for amb in (amb_x7, amb_x3y3, amb_z9):
        dec = decompose(amb)
        for cd in dec.data:
            ann = annihilator_bruteforce(amb, cd.h, naive=False)
            ic = ideal_span(amb, cd.ideal_generators(amb))
            assert ann == ic


def test_intersection_identity(amb_x7, amb_z9):
    """The I_C intersect to I: equivalently the idempotents sum to one and
    the component spans intersect trivially."""
    for amb in (amb_x7, amb_z9):
        dec = decompose(amb)
        spans = [ideal_span(amb, cd.ideal_generators(amb)) for cd in dec.data]
        common = spans[0].explicit_set()
        for sp in spans[1:]:
            common = {v for v in common if sp.contains(v)}
        assert common == {(amb.ring._zero,) * amb.n}


def test_comaximality(amb_x7, amb_x3y3, amb_z9):
    for amb in (amb_x7, amb_x3y3, amb_z9):
        dec = decompose(amb)
        one = tuple(c.data for c in amb.one().coeffs)
        for i, ci in enumerate(dec.data):
            for cj in dec.data[i + 1 :]:
                gens = ci.ideal_generators(amb) + cj.ideal_generators(amb)
                sp = ideal_span(amb, gens)
                assert sp.cardinality == amb.ring.size**amb.n
                assert sp.contains(one)


def test_crt_projection_bijective(amb_x3, z4):
    """f -> (e_C f)_C is a bijection on an exhaustively enumerated quotient."""
    import itertools

    dec = decompose(amb_x3)
    seen = set()
    payloads = [z4.from_rank(r) for r in range(4)]
    for coeffs in itertools.product(payloads, repeat=3):
        f = amb_x3.from_vector(coeffs)
        image = tuple(tuple(c.data for c in (cd.e * f).coeffs) for cd in dec.data)
        assert image not in seen
        seen.add(image)
    assert len(seen) == 4**3


def test_representative_independence(amb_x3y3):
    dec = decompose(amb_x3y3)
    for idx, cd in enumerate(dec.data):
        for rep in cd.cls.members[1:]:
            alt = dec._build_class(dec.classes[idx], dec.residue._class_polys_at(dec.classes[idx], rep))
            assert alt.h == cd.h
            assert [f.coeffs for f in alt.q_polys] == [f.coeffs for f in cd.q_polys]
            assert [f.coeffs for f in alt.p_polys] == [f.coeffs for f in cd.p_polys]


def test_non_semisimple_rejected(z4):
    amb = Ambient(z4, [Poly.from_ints(z4, [-1, 0, 1])], unchecked=True)
    with pytest.raises(DomainError):
        decompose(amb)


def test_component_ring_chain_structure(amb_x7):
    """The component is a chain ring: its ideals are exactly <a^k>."""
    dec = decompose(amb_x7)
    comp = dec.data[1].component_ring  # GR(4,3)-sized tower
    ring_elems = list(comp.elements())
    apowers = []
    cur = comp.one
    for _ in range(comp.t + 1):
        apowers.append({(x * cur).data for x in ring_elems})
        cur = cur * comp.a
    for x in ring_elems[:64]:
        principal = {(y * x).data for y in ring_elems}
        assert principal == apowers[x.valuation()]


def test_stages_built_on_first_use(z4):
    amb = _ambient(z4, "x^7-1")
    dec = decompose(amb)
    assert dec.lifted_factorizations[0].factors[0] == parse_univariate("x+3", z4)
    assert dec.class_count == 3
    inverse_class_map(dec)
    code = code_from_exponents(amb, {(0,): 1, (1,): 0, (3,): 2})
    assert repr(code) == "SemisimpleCode((0,):1, (1,):0, (3,):2)"
    assert code.cardinality() == 128 and dual_cardinality(code) == 128
    assert code.to_json(with_generator=False)["exponents"] == [[[0], 1], [[1], 0], [[3], 2]]
    # abelian labels are exponents: none of this builds the splitting field
    assert "splitting" not in vars(dec)
    assert "data" not in vars(dec)
    cd = dec.data[1]
    assert "g" not in vars(cd)
    assert cd.g * cd.h == cd.e


def test_decomposition_cache_is_keyed_by_seed(z4):
    amb = _ambient(z4, "x^7-1")
    dec = decompose(amb, seed=5)
    assert dec.seed == 5 and decompose(amb, seed=5) is dec
    assert decompose(amb, seed=0) is not dec
    # every decomposition a seed-5 code makes internally reuses seed 5
    amb = _ambient(z4, "x^7-1")
    code = code_from_exponents(amb, [1, 0, 2], seed=5)
    dual(code)
    assert code.residue_image().dec.seed == 5
    assert code.socle_field_code().dec.seed == 5
    distance_bound(code)
    assert set(amb._decompositions) == {5}
    assert set(amb.residue_ambient._decompositions) == {5}


def test_class_towers_repeat_no_irreducibility_test(monkeypatch):
    """Every tower modulus of `_build_class` lifts a `factor_squarefree`
    output or a degree-1 factor, so building the class data runs no
    irreducibility test; a user's reducible ring modulus still fails it."""
    from chaincodes import rings
    from chaincodes.rings import ring_construct

    z4 = ring_construct({"kind": "galois", "p": 2, "t": 2, "l": 1})
    gr = ring_construct({"kind": "galois", "p": 2, "t": 2, "l": 2})
    ambients = [
        Ambient(gr, [parse_univariate("x^15-1", gr)]),
        Ambient(z4, [parse_univariate(m, z4, var=i) for i, m in enumerate(("x^3-1", "y^3-1", "z^3-1"))]),
    ]

    def forbidden(f):
        raise AssertionError("irreducibility test while building class data")

    monkeypatch.setattr(rings, "is_irreducible", forbidden)
    for amb in ambients:
        dec = decompose(amb)
        assert sum(cd.cls.size for cd in dec.data) == amb.n
        assert max(len(cd.tower) for cd in dec.data) == amb.r
    monkeypatch.undo()
    with pytest.raises(DomainError, match="not basic irreducible"):
        ring_construct({"kind": "galois", "p": 2, "t": 2, "l": 2, "modulus": [1, 0, 1]})


def _flatten_tower_reference(x, base):
    """The replaced `decompose._flatten_tower`, verbatim but for reading
    the coordinates of a flat payload through its base's lanes: tower
    element -> {exponent tuple: base element}, first root innermost."""
    ring = x.ring
    if ring == base:
        return {(): x} if not x.is_zero() else {}
    out = {}
    for j in range(ring.deg):
        sub = _flatten_tower_reference(RingElem(ring.base, ring.base._from_lanes(x.data)[j]), base)
        for exps, c in sub.items():
            out[exps + (j,)] = c
    return out


def _poly_over_tower_to_mpoly_reference(f, base, ambient, var):
    """The replaced placement, verbatim: flattened terms through `Ambient.from_terms`."""
    terms = {}
    r = ambient.r
    for j, c in enumerate(f.coeffs):
        for exps, cc in _flatten_tower_reference(c, base).items():
            full = list(exps) + [0] * (r - len(exps))
            full[var] = j
            terms[tuple(full)] = cc
    return ambient.from_terms(terms)


@pytest.mark.parametrize(
    "ring, moduli, zero_w",
    [
        ({"kind": "galois", "p": 2, "t": 2}, ("x^3+x+1", "y^2+y+1"), True),
        ({"kind": "galois", "p": 2, "t": 2}, ("x^3-1", "y^3-1", "z^3-1"), False),
        ({"kind": "truncated", "p": 2, "t": 2}, ("x^3+x+1", "y^5+y^2+1"), True),
    ],
)
def test_tower_placement_matches_from_terms_route(ring, moduli, zero_w):
    """w, pi, z and sigma of every class land where the flattened
    `from_terms` route puts them.  On Z4 x^3+x+1, y^2+y+1 the size-6 class
    has w_2 = z_2 = t_2, which the placement must reduce to 0, and so does
    the class of y^5+y^2+1, irreducible over GF(8)."""
    ring = ring_construct(ring)
    amb = Ambient(ring, [parse_univariate(m, ring, var=i) for i, m in enumerate(moduli)])
    ra = amb.residue_ambient
    zeros = 0
    for cd in decompose(amb).data:
        for v in range(1, amb.r):
            pairs = ((cd.w_polys[v], ra), (cd.pi_polys[v], ra), (cd.z_polys[v], amb), (cd.sigma_polys[v], amb))
            for f, target in pairs:
                placed = _poly_over_tower_to_mpoly(f, target, v)
                assert placed == _poly_over_tower_to_mpoly_reference(f, target.ring, target, v)
                zeros += placed.is_zero()
    assert (zeros > 0) == zero_w


def _substitute_first_var_reference(f, base_field, ext, theta, embed, V, var):
    """The replaced `distance._substitute_first_var`, verbatim."""
    terms = {}
    for jj, c in enumerate(f.coeffs):
        for exps, cc in _flatten_tower_reference(c, base_field).items():
            e1 = exps[0] if exps else 0
            key = [0] * V.r
            for pos, e in enumerate(exps[1:]):
                key[pos] = e
            key[var] = jj
            key = tuple(key)
            contrib = (theta**e1) * embed(cc)
            terms[key] = terms.get(key, ext.zero) + contrib
    return V.from_terms(terms)


def _delta_distance_reference(Abar, rdec, group, budget):
    """The replaced `distance._delta_distance`, verbatim but for ``ext.gen``,
    deleted and inlined here as the flat lanes of the root.  It also checks
    that today's placement of each pi equals the substitution."""
    field = Abar.ring
    p1, members = group
    ext = ExtensionRing(field, p1) if p1.degree > 1 else field
    if p1.degree > 1:
        theta = RingElem(ext, ext._from_lanes(field._lanes([field._zero, field._one] + [field._zero] * (ext.deg - 2)))[0])
    else:
        theta = -p1.coeff(0)
    embed = (lambda c: ext.embed(c)) if p1.degree > 1 else (lambda c: c)
    moduli = [
        Poly.from_coeffs(ext, [embed(c) for c in m.coeffs], var=v)
        for v, m in enumerate(Abar.moduli[1:])
    ]
    V = Ambient(ext, moduli)

    gen = V.zero()
    for idx in members:
        cd = rdec.data[idx]
        term = V.one()
        for k in range(1, Abar.r):
            quot, rem = divmod(Abar.moduli[k], cd.p_polys[k])
            assert rem.is_zero()
            term = term * V.from_polynomial(
                Poly.from_coeffs(ext, [embed(c) for c in quot.coeffs], var=k - 1)
            )
            pi = _substitute_first_var_reference(cd.pi_polys[k], field, ext, theta, embed, V, k - 1)
            assert _poly_over_tower_to_mpoly(cd.pi_polys[k], V, k - 1) == pi
            term = term * pi
        gen = gen + term
    dcode = code_from_generators(V, [gen])
    return min_distance(dcode, budget)


@pytest.mark.parametrize(
    "ring, moduli",
    [
        ({"kind": "galois", "p": 2, "t": 1}, ("x^7-1", "y^5-1")),
        ({"kind": "galois", "p": 3, "t": 1}, ("x^4-1", "y^2-1")),
        ({"kind": "galois", "p": 2, "t": 1, "l": 2}, ("x^5-1", "y^3-1")),
    ],
)
def test_distance_bound_matches_first_variable_substitution(ring, moduli, monkeypatch):
    """The product bound with each pi placed onto F_q[X_1]/(p_1) by lanes
    equals the one with X_1 substituted by the root of p_1, on the code of
    each single class and on seeded random codes; first-variable factors
    of degree 1 (GF(3)) and above take both branches."""
    ring = ring_construct(ring)
    amb = Ambient(ring, [parse_univariate(m, ring, var=i) for i, m in enumerate(moduli)])
    n = decompose(amb).class_count
    rng = random.Random(29)
    exps = [[0 if i == c else 1 for i in range(n)] for c in range(n)]
    exps += [[rng.randrange(2) for _ in range(n)] for _ in range(8)]
    codes = [code_from_exponents(amb, e) for e in exps if 0 in e]
    bounds = [distance_bound(K) for K in codes]
    monkeypatch.setattr(distance, "_delta_distance", _delta_distance_reference)
    assert [distance_bound(K) for K in codes] == bounds


def _tower_eval_reference(x, base, images, embed_base):
    """The replaced `decompose._tower_eval`, verbatim but for reading the
    coordinates of a flat payload through its base's lanes: evaluate a
    tower element by sending the j-th adjoined root to images[j]."""
    ring = x.ring
    if ring == base:
        return embed_base(x)
    depth = _tower_depth_reference(ring, base)
    mu = images[depth - 1]
    acc = mu.ring.zero
    for j in range(ring.deg - 1, -1, -1):
        cj = RingElem(ring.base, ring.base._from_lanes(x.data)[j])
        acc = acc * mu + _tower_eval_reference(cj, base, images, embed_base)
    return acc


def _tower_depth_reference(ring, base):
    """The replaced `decompose._tower_depth`, verbatim."""
    depth = 0
    cur = ring
    while cur != base:
        depth += 1
        cur = cur.base
    return depth


def _class_search_reference(dec, mu):
    """The replaced `RingElem` search of `Decomposition._build_class`,
    verbatim but for its lifts, on a field decomposition: (p, w, pi) at the
    root tuple mu, through `Poly.evaluate` and `_tower_eval_reference`."""
    Fq = dec.ambient.ring
    sd = dec.splitting
    r = dec.ambient.r
    if sd.primitive_roots is None:
        mu_elems = [sd.field.elem(sd.root(v, lab)) for v, lab in enumerate(mu)]
    else:
        mu_elems = [sd.primitive_roots[v] ** mu[v] for v in range(r)]
    p_polys = []
    for v in range(r):
        for fac in dec.factor_lists[v]:
            if fac.evaluate(mu_elems[v], sd.embed).is_zero():
                p_polys.append(fac)
                break
    w_polys, pi_polys = [None], [None]
    tower = [ExtensionRing(Fq, p_polys[0], check=False)]
    for v in range(1, r):
        field_below = tower[-1]
        p_emb = distance._embed_poly(p_polys[v], field_below)
        if p_emb.degree == 1:
            w = p_emb
        else:
            w = None
            for cand in factor_squarefree(p_emb, seed=0):
                val = cand.evaluate(
                    mu_elems[v],
                    embed=lambda c: _tower_eval_reference(c, Fq, mu_elems[:v], sd.embed),
                )
                if val.is_zero():
                    w = cand
                    break
        pi, rem = divmod(p_emb, w)
        assert rem.is_zero()
        w_polys.append(w)
        pi_polys.append(pi)
        tower.append(ExtensionRing(field_below, w, check=False))
    return p_polys, w_polys, pi_polys


@pytest.mark.parametrize(
    "ring, moduli",
    [
        ({"kind": "galois", "p": 2, "t": 2}, ("x^3+x+1", "y^2+y+1")),
        ({"kind": "truncated", "p": 2, "t": 2}, ("x^3+x+1", "y^5+y^2+1")),
        ({"kind": "galois", "p": 2, "t": 1}, ("x^5+x^2+1", "y^3+y+1")),
        ({"kind": "galois", "p": 2, "t": 2}, ("x^3-1", "y^3-1", "z^3-1")),
        ({"kind": "truncated", "p": 2, "t": 2, "l": 2}, ("x^3-1", "y^3-1")),
    ],
)
def test_payload_class_search_matches_ring_element_route(ring, moduli):
    """The payload search finds the p, w and pi of the `RingElem` route at
    every member of every class, and the stage holds those at each
    representative."""
    ring = ring_construct(ring)
    rdec = decompose(_ambient(ring, *moduli)).residue
    for cls, found in zip(rdec.classes, rdec.class_polys):
        assert rdec._class_polys_at(cls, cls.rep) == found
        for mu in cls.members:
            got = rdec._class_polys_at(cls, mu)
            assert (got.p_polys, got.w_polys, got.pi_polys) == _class_search_reference(rdec, mu)


@pytest.mark.parametrize(
    "ring, moduli",
    [
        ({"kind": "galois", "p": 2, "t": 1, "l": 2}, ("x^21-1",)),
        ({"kind": "galois", "p": 2, "t": 2}, ("x^3-1", "y^3-1", "z^3-1")),
    ],
)
def test_class_roots_test_only_factors_of_the_degrees_the_class_fixes(ring, moduli, monkeypatch):
    """At every member mu of every class C, each factor evaluated at mu_v
    has the degree of the factor found there, which C fixes: deg p_v =
    |{nu_v : nu in C}| for the factors of t_v, and deg w_v = |proj_{<=v} C| /
    |proj_{<v} C| for those of p_v over F_q(mu_1, ..., mu_{v-1})."""
    decompose_mod = importlib.import_module("chaincodes.decompose")
    rdec = decompose(_ambient(ring_construct(ring), *moduli)).residue
    Fq, r = rdec.ambient.ring, rdec.ambient.r
    rdec.class_polys
    calls = []
    real = decompose_mod._vanishing
    monkeypatch.setattr(decompose_mod, "_vanishing", lambda cands, rows, p: calls.append(cands) or real(cands, rows, p))
    w_tests = 0
    for cls in rdec.classes:
        for mu in cls.members:
            calls.clear()
            found = rdec._class_polys_at(cls, mu)
            v = -1
            for cands in calls:
                assert cands
                if all(f.ring == Fq for f in cands):
                    v += 1
                    want = found.p_polys[v].degree
                    assert want == len({nu[v] for nu in cls.members})
                else:
                    w_tests += 1
                    want = found.w_polys[v].degree
                    assert want == len({nu[: v + 1] for nu in cls.members}) // len({nu[:v] for nu in cls.members})
                assert [f.degree for f in cands] == [want] * len(cands)
            assert v == r - 1
    assert (w_tests > 0) == (r > 1)


def test_chain_decomposition_lifts_the_residue_one(monkeypatch):
    """A chain-ring decomposition reads the factor lists, splitting field,
    classes and class polynomials of the residue field's decomposition, and
    the residue codes live there: each residue modulus is factored once for
    the class data, the socle carrier, the residue image and the bound."""
    decompose_mod = importlib.import_module("chaincodes.decompose")
    z4 = ring_construct({"kind": "galois", "p": 2, "t": 2, "l": 1})
    amb = _ambient(z4, "x^7-1", "y^5-1")
    moduli = amb.residue_ambient.moduli
    counts = [0] * len(moduli)
    real = decompose_mod.factor_squarefree

    def counted(f, seed=0):
        for i, m in enumerate(moduli):
            counts[i] += f == m
        return real(f, seed=seed)

    monkeypatch.setattr(decompose_mod, "factor_squarefree", counted)
    dec = decompose(amb, seed=3)
    assert dec.residue is decompose(amb.residue_ambient, 3) and dec.residue.residue is dec.residue
    for stage in ("factor_lists", "splitting", "classes", "class_polys", "inverse_map"):
        assert getattr(dec, stage) is getattr(dec.residue, stage)
    assert [cd.p_polys for cd in dec.data] == [cd.p_polys for cd in dec.residue.data]
    # defining classes off X_1 = 1 only, so that the bound's codes over
    # GF(8)[X_2] factor nothing over GF(2)
    code = code_from_exponents(amb, [2 if cls.rep[0] == 0 else 0 for cls in dec.classes], seed=3)
    assert code.socle_field_code().dec is dec.residue
    assert code.residue_image().dec is dec.residue
    assert counts == [1, 1]
    distance_bound(code)
    # the bound's univariate code lives in an ambient of its own
    assert counts == [2, 1]


@pytest.mark.parametrize(
    "ring, modulus",
    [
        ({"kind": "galois", "p": 2, "t": 1, "l": 1}, "x^83-1"),
        ({"kind": "galois", "p": 2, "t": 2, "l": 1}, "x^15-1"),
    ],
    ids=["GF2-x83", "Z4-x15"],
)
def test_abelian_classes_factor_nothing(ring, modulus, monkeypatch):
    """Abelian classes and their inversion are read off the exponents, so
    neither the decomposition nor those stages factor a residue modulus."""
    decompose_mod = importlib.import_module("chaincodes.decompose")

    def boom(f, seed=0):
        raise AssertionError("an abelian class stage factored a modulus")

    monkeypatch.setattr(decompose_mod, "factor_squarefree", boom)
    dec = decompose(_ambient(ring_construct(ring), modulus))
    assert dec.classes and len(dec.inverse_map) == dec.class_count


def test_chain_ring_with_only_an_abelian_residue_shares_its_classes(z4):
    """x^3+2x+3 over Z4 is not x^3 - 1, but its residue is: the classes
    are the residue decomposition's, with exponent labels, every code
    reaches its residue carrier, and class inversion still needs the
    ambient itself to be abelian."""
    amb = _ambient(z4, "x^3+2*x+3")
    dec = decompose(amb)
    assert not amb.abelian and amb.residue_ambient.abelian
    assert [cls.rep for cls in dec.classes] == [(0,), (1,)]
    for K in enumerate_codes(amb):
        if not K.is_zero():
            assert min_distance(K) == distance_bruteforce(span_of_code(K))
    with pytest.raises(DomainError, match="abelian"):
        dec.inverse_map


_SEARCH_RINGS = sorted(RINGS) + ["non-abelian"]


@pytest.mark.parametrize("name", _SEARCH_RINGS)
def test_class_search_builds_no_ring_elements(name, monkeypatch):
    """Once the splitting field and the classes are read, the class search
    runs on payloads: it constructs no `RingElem`, on every ring family and
    on a non-abelian ambient, whose root labels are field elements."""
    if name == "non-abelian":
        amb = _ambient(ring_construct({"kind": "galois", "p": 2, "t": 2, "l": 1}), "x^3+x+1", "y^2+y+1")
    else:
        ring = RINGS[name]()
        amb = _ambient(ring, *(("x^3-1", "y^5-1") if ring.p == 2 else ("x^4-1", "y^2-1")))
    dec = decompose(amb)
    dec.splitting, dec.classes

    def refuse(*args):
        raise AssertionError("a RingElem was built in the class search")

    monkeypatch.setattr(ChainRing, "elem", refuse)
    monkeypatch.setattr(RingElem, "__init__", refuse)
    found = dec.class_polys
    monkeypatch.undo()
    assert len(found) == dec.class_count
    assert sum(cd.cls.size for cd in dec.data) == amb.n
