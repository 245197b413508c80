"""Per-class structural data and the chain-ring CRT decomposition.

For each cyclotomic class the decomposition records:

* field level: the minimal polynomials p_i of the root coordinates over
  F_q, and for each later coordinate the relative minimal polynomial w_i
  over the field generated by the earlier ones, with its complement
  pi_i = p_i / w_i;
* ring level: the Hensel lifts q_i (of p_i, inside the factorization of
  the modulus t_i) and z_i, sigma_i (of w_i, pi_i, over the extension ring
  generated by the earlier lifted roots);
* the separator polynomial h_C = prod_i (t_i / q_i) * prod_i sigma_i whose
  residue vanishes off the class, the primitive idempotent e_C, and the
  cofactor g_C with g_C * h_C = e_C.

The field level belongs to the decomposition of the residue ambient over
F_q.  It alone computes the factor lists of the residue moduli, the
splitting field GF(q^M) (`splitting`), the `classes`, `inverse_map` and
`class_polys`, the p_i, w_i and pi_i at each class representative, found
by evaluating at the roots on payloads.  The class fixes the degrees of
the factors that can vanish there: deg p_i is the number of distinct i-th
coordinates of its members, and deg w_i, the degree of F_q(mu_1..mu_i)
over F_q(mu_1..mu_{i-1}), is the ratio of the numbers of distinct
prefixes of lengths i and i - 1, since each field degree over F_q is the
length of a Frobenius orbit.  So only factors of those degrees are
evaluated, and p_i needs no factoring over the field below when the two
degrees agree.  A chain-ring decomposition holds
it as `residue`, from the same per-ambient cache and seed, reads those
stages as the very same objects and only lifts them: its own stages are
the lifted factorizations and, per class, q_i, z_i, sigma_i, the tower,
h_C, e_C and g_C.  Over a field `residue` is the decomposition itself,
and q = p, z = w and sigma = pi.

The component ring R[X_1,...,X_r]/<q_1, z_2, ..., z_r> is realized as the
iterated extension tower, so its chain-ring arithmetic comes for free.  A
tower element's lanes are its coordinates over R, one block per monomial in
the roots, so a tower polynomial is placed into the ambient by copying lane
blocks (`polys._poly_over_tower_to_mpoly`), and a polynomial over R enters
the tower by padding its lanes (`polys._embed_poly`).

Each idempotent e_C is the lift of its residue e-bar = h-bar^(q^|C| - 1),
taken as (h-bar * P)^(q - 1) with P = h-bar^q * h-bar^(q^2) * ... *
h-bar^(q^(|C|-1)): each factor is the q-th power of the one before, so
the chain costs |C| - 1 small powers and as many products instead of a
square-and-multiply chain to q^|C| - 1 (Itoh & Tsujii, 1988).  Those
q-th powers are plain `MPoly` powers through the one packed product
kernel; there is no separate Frobenius map.
The residue of the cofactor, e-bar * h-bar^(q^|C| - 2), reuses P as
e-bar * h-bar^(q - 2) * P^(q - 1).  An idempotent lifts uniquely modulo
the nilpotent radical, so the product of two lifts is an idempotent with
zero residue, which is 0: the lifts are orthogonal as they stand and need
no correction.  That they are idempotent, orthogonal and sum to one is
still checked whenever the class data is built, orthogonality with one
product per class against a running suffix sum.

Every stage is computed on first use, and so is, over a field, `rows`: the
|C| F_q-rows X^a * e_C of each minimal ideal <e_C>, one per monomial basis
element of its residue tower.  So a caller that needs the lifted
factorizations alone never computes an idempotent, and abelian classes,
whose labels are exponents, factor nothing and build no GF(q^M).
"""

from __future__ import annotations

import itertools
import operator
from collections import namedtuple
from functools import cached_property, wraps

from .errors import DomainError, InternalError
from .factor import cyclotomic_classes, factor_squarefree, splitting_data
from .hensel import lift_factorization, lift_idempotent
from .polys import Poly, _embed_poly, _poly_over_tower_to_mpoly, poly_to_text
from .rings import ExtensionRing


def _lane_width(p):
    """Bits per F_p digit in a packed word: 1 for p = 2, where addition is
    XOR, else bitlen(p - 1) + 1, so a lane sum s <= 2p - 2 never carries."""
    return 1 if p == 2 else (p - 1).bit_length() + 1


def _pack_rows(field, rows):
    """The words u_m * b, m < l, of each payload row b over F_q = F_p^l,
    row by row: u_m is the m-th unit coordinate vector, and F_p digit m' of
    coordinate pos sits in the `_lane_width` lane m' * n + pos."""
    n, l, w = len(rows[0]), field.l, _lane_width(field.p)
    shifts = [w * (m * n + pos) for pos in range(n) for m in range(l)]
    units = [field._from_coords([int(m == j) for m in range(l)]) for j in range(l)]
    lanes = (field._lanes([field._mul(u, c) for c in row]) for row in rows for u in units)
    return [sum(d << s for d, s in zip(word, shifts)) for word in lanes]


class ClassData:
    """Everything attached to one cyclotomic class ``cls``: ``p_polys``,
    Poly over F_q, one per variable, and ``q_polys``, their Hensel lifts
    over R; from index v >= 1, ``w_polys``, Poly over the tower residue field
    below v, ``pi_polys`` = p_v / w_v over the same field, and their Hensel
    lifts over the tower ring below v, ``z_polys`` and ``sigma_polys``;
    ``tower``, R(mu_1), R(mu_1,mu_2), ..., R(mu_1..mu_r); and the MPoly
    ``h``."""

    def __init__(self, cls, p_polys, q_polys, w_polys, pi_polys, z_polys, sigma_polys, tower, h):
        self.cls, self.p_polys, self.q_polys, self.w_polys = cls, p_polys, q_polys, w_polys
        self.pi_polys, self.z_polys, self.sigma_polys = pi_polys, z_polys, sigma_polys
        self.tower, self.h = tower, h

    @cached_property
    def _frobenius_product(self):
        """P = h-bar^q * h-bar^(q^2) * ... * h-bar^(q^(|C|-1)), or None when
        |C| = 1; read by `e` and `g`, and dropped by `g`."""
        q = self.h.ambient.ring.q
        image = self.h.residue()
        P = None
        for _ in range(self.cls.size - 1):
            image = image ** q
            P = image if P is None else P * image
        return P

    @cached_property
    def e(self):
        """The primitive idempotent: the lift of e-bar = h-bar^(q^|C| - 1).
        As q^|C| - 1 = (q - 1)(1 + q + ... + q^(|C|-1)), e-bar is
        (h-bar * P)^(q - 1) with P from `_frobenius_product`."""
        A = self.h.ambient
        hbar, P = self.h.residue(), self._frobenius_product
        ebar = (hbar if P is None else hbar * P) ** (A.ring.q - 1)
        if A.ring.t == 1:
            return ebar
        return lift_idempotent(ebar.lift_to(A))

    @cached_property
    def g(self):
        """The cofactor with g * h == e, by Newton iteration on the component
        from v-bar = e-bar * h-bar^(q^|C| - 2) = e-bar * h-bar^(q - 2) * P^(q - 1)."""
        A = self.h.ambient
        q = A.ring.q
        ebar = self.e.residue()
        P = self._frobenius_product
        del self._frobenius_product
        vbar = ebar if P is None else ebar * P ** (q - 1)
        if q > 2:
            vbar = vbar * self.h.residue() ** (q - 2)
        v = vbar.lift_to(A) * self.e if A.ring.t > 1 else vbar
        two_e = self.e + self.e
        for _ in range(A.ring.t.bit_length() + 1):
            prod = self.h * v
            if prod == self.e:
                return v
            v = v * (two_e - prod)
        raise InternalError("cofactor iteration did not converge")  # pragma: no cover

    @property
    def component_ring(self):
        """R[X]/I_C as a chain ring (the full extension tower)."""
        return self.tower[-1]

    @property
    def component_size(self):
        return self.component_ring.size

    def ideal_generators(self, ambient):
        """Generators of I_C = <q_1, z_2, ..., z_r> as ambient elements."""
        gens = [ambient.from_polynomial(self.q_polys[0])]
        for v in range(1, len(self.p_polys)):
            gens.append(_poly_over_tower_to_mpoly(self.z_polys[v], ambient, v))
        return gens

    def to_json(self, ambient):
        names = ambient.var_names()
        out = {
            "class": self.cls.to_json(),
            "p": [poly_to_text(f, names) for f in self.p_polys],
            "q": [poly_to_text(f, names) for f in self.q_polys],
            "h": self.h.to_text(),
            "e": self.e.to_text(),
            "g": self.g.to_text(),
            "component_size": self.component_size,
        }
        r = len(self.p_polys)
        if r > 1:
            ra = ambient.residue_ambient
            for key, polys, amb in (
                ("w", self.w_polys, ra),
                ("pi", self.pi_polys, ra),
                ("z", self.z_polys, ambient),
                ("sigma", self.sigma_polys, ambient),
            ):
                out[key] = [_poly_over_tower_to_mpoly(polys[v], amb, v).to_text() for v in range(1, r)]
        return out


def check_idempotent_family(ambient, es):
    """Raise `InternalError` unless e_1, ..., e_N are idempotent, pairwise
    orthogonal and sum to one, using N - 1 products for orthogonality.

    With the suffix sums T_i = e_{i+1} + ... + e_N, it checks e_i * T_i = 0
    for i < N.  Given that every e_i is idempotent, this is equivalent to
    pairwise orthogonality.  By downward induction on i, suppose the e_k
    with k > i are pairwise orthogonal; then T_i * e_k = e_k * e_k = e_k
    for k > i, so e_i * e_k = (e_i * T_i) * e_k = 0.
    """
    for e in es:
        if e * e != e:
            raise InternalError("lifted class idempotent is not idempotent")
    suffix = es[-1]
    for e in reversed(es[:-1]):
        if not (e * suffix).is_zero():
            raise InternalError("idempotents are not orthogonal")
        suffix = suffix + e
    if suffix != ambient.one():
        raise InternalError("idempotents do not sum to one")


# What `Decomposition._class_polys_at` finds at one root tuple, over F_q
ClassPolys = namedtuple("ClassPolys", "p_polys w_polys pi_polys tower")


def _vanishing(candidates, rows, p):
    """The first candidate that vanishes at a root, from the rows of
    `Decomposition._class_polys_at`: its value there is the sum of its
    lanes times the rows, and it vanishes when every column of that sum is
    0 mod p."""
    cols = list(zip(*rows))
    for f in candidates:
        lanes = f.ring._lanes(f.data)
        if not any(sum(map(operator.mul, lanes, col)) % p for col in cols):
            return f
    raise InternalError("no factor vanishes at the class root")  # pragma: no cover


def _residue_stage(build):
    """A stage owned by the field decomposition: ``build`` runs there, and a
    chain-ring decomposition reads the same object through `residue`."""
    def stage(self):
        return build(self) if self.residue is self else getattr(self.residue, build.__name__)
    return cached_property(wraps(build)(stage))


class Decomposition:
    """Classes, class data and idempotents of one semisimple ambient.

    The constructor checks semisimplicity and links the residue field's
    decomposition; every stage, the factor lists and the splitting field
    included, is computed when it is first read.
    """

    def __init__(self, ambient, seed=0):
        if not ambient.semisimple:
            raise DomainError("cannot decompose a non-semisimple ambient")
        self.ambient = ambient
        self.seed = seed
        self.residue = decompose(ambient.residue_ambient, seed) if ambient.ring.t > 1 else self

    @_residue_stage
    def factor_lists(self):
        """The irreducible factors over F_q of each residue modulus."""
        return tuple(factor_squarefree(m, seed=self.seed) for m in self.ambient.moduli)

    @_residue_stage
    def splitting(self):
        """The common splitting field GF(q^M) and the labelled roots."""
        return splitting_data(self.ambient, self.factor_lists)

    @_residue_stage
    def classes(self):
        """The cyclotomic classes in canonical order."""
        return cyclotomic_classes(self.ambient, None if self.ambient.abelian else self.splitting)

    @cached_property
    def inverse_map(self):
        """index -> index of the class of the inverse roots mu^{-1}, for
        abelian ambients."""
        es = self.ambient.exponents
        if es is None:
            raise DomainError("class inversion requires an abelian ambient")
        if self.residue is not self:
            return self.residue.inverse_map
        lookup = {mu: idx for idx, cls in enumerate(self.classes) for mu in cls.members}
        return tuple(lookup[tuple((-a) % e for a, e in zip(cls.rep, es))] for cls in self.classes)

    @_residue_stage
    def class_polys(self):
        """Per class, in class order, the `ClassPolys` at its representative."""
        return [self._class_polys_at(cls, cls.rep) for cls in self.classes]

    @cached_property
    def lifted_factorizations(self):
        """The Hensel lift of each modulus's residue factorization."""
        return [
            lift_factorization(modulus, factors)
            for modulus, factors in zip(self.ambient.moduli, self.factor_lists)
        ]

    @cached_property
    def data(self):
        """Class data in canonical class order; checks the idempotent family."""
        data = [self._build_class(cls, polys) for cls, polys in zip(self.classes, self.class_polys)]
        check_idempotent_family(self.ambient, [cd.e for cd in data])
        return data

    @cached_property
    def rows(self):
        """Over a field (t = 1), per class in `data` order, the `_pack_rows`
        words u_m * b of the |C| F_q-rows b = X^a * e_C, a_v < deg w_v (w_1 =
        p_1): the packed F_p-generators of the minimal ideal <e_C> that the
        distance walk reads.

        They are a basis.  f * e_C takes f's values at the roots of C and 0 at
        all others, so it is 0 exactly when f vanishes at mu, that is, lies in
        I_C = <p_1, w_2, ..., w_r>; so f -> f * e_C maps F_q[X]/I_C
        isomorphically onto <e_C>.
        That quotient is the residue tower F_q(mu_1, ..., mu_r), and as each
        w_v is monic in X_v over the field below, the monomials X^a with a_v <
        deg w_v are an F_q-basis of it; deg w_v <= deg t_v keeps each X^a in
        normal form in the ambient.  `_build_class` checked that the tower has
        q^|C| elements, so there are |C| of them.
        """
        A = self.ambient
        field = A.ring
        if field.t != 1:
            raise DomainError("class rows are defined over a field ambient")
        out = []
        for cd in self.data:
            box = itertools.product(*(range(level.deg) for level in cd.tower))
            rows = [field._from_lanes((A.monomial(a) * cd.e).lanes) for a in box]
            out.append(_pack_rows(field, rows))
        return out

    # -- construction ---------------------------------------------------------

    def _class_polys_at(self, cls, mu):
        """The `ClassPolys` at the member mu of the class cls, over a field:
        p_v is the factor of t_v that vanishes at mu_v, and w_v the factor of
        p_v over F_q(mu_1, ..., mu_{v-1}) that does, with w_1 = p_1.

        The class fixes both degrees, so only the factors of those degrees
        are tested.  The degree of F_q(x) over F_q is the length of the
        Frobenius orbit of x, a root or a tuple of roots, and C is the orbit
        of mu, so proj_{<=v} C is the orbit of (mu_1, ..., mu_v):
        deg p_v = |{nu_v : nu in C}|, and deg w_v, the degree of
        F_q(mu_1, ..., mu_v) over F_q(mu_1, ..., mu_{v-1}), is
        |proj_{<=v} C| / |proj_{<v} C|.  When the two are equal, p_v stays
        irreducible over the field below and is w_v, with nothing to factor.

        A candidate's value at mu_v in GF(q^M) is F_p-linear in its lanes:
        lane b multiplies row b of ``rows``, the lanes of one power of
        mu_v times one monomial in the roots below (first root fastest, as
        in a tower element's lanes) times one F_p-basis element of F_q.  The
        powers of mu_v are built once per root and shared by the candidates."""
        Fq, sd = self.ambient.ring, self.splitting
        big, char = sd.field, Fq.p
        k = Fq.ncoords
        # the F_p-basis of F_q whose lanes are unit vectors, in GF(q^M) (whose
        # lanes start with those of F_q), after its first element, which is 1
        units = big._from_lanes([int(i == j) for i in range(1, k) for j in range(big.ncoords)])

        def rows(monomials):
            return [big._lanes([y]) for m in monomials for y in (m, *(big._mul(u, m) for u in units))]

        # Every tower modulus is irreducible by construction, so no
        # ExtensionRing repeats the irreducibility test: p_1 is a
        # `factor_squarefree` output, irreducible by the distinct-degree and
        # equal-degree argument, and each w is either such an output over the
        # field below or p_v itself by its degree.  A chain-ring
        # decomposition's tower moduli q_1 and z_v lift these, so they are
        # basic irreducible.
        p_polys, w_polys, pi_polys, tower = [], [None], [None], []
        images = [big._one]
        for v, label in enumerate(mu):
            dp = len({nu[v] for nu in cls.members})
            dw = len({nu[: v + 1] for nu in cls.members}) // len({nu[:v] for nu in cls.members})
            root = sd.root(v, label)
            powers = [big._one]
            for _ in range(dp):
                powers.append(big._mul(powers[-1], root))
            w = _vanishing([f for f in self.factor_lists[v] if f.degree == dp], rows(powers), char)
            p_polys.append(w)
            if tower:
                p_emb = w = _embed_poly(w, tower[-1])
                if dw < dp:
                    cands = [f for f in factor_squarefree(p_emb, seed=0) if f.degree == dw]
                    w = _vanishing(cands, rows([big._mul(m, x) for x in powers[: dw + 1] for m in images]), char)
                pi, rem = divmod(p_emb, w)
                if not rem.is_zero():  # pragma: no cover
                    raise InternalError("w does not divide p")
                w_polys.append(w)
                pi_polys.append(pi)
            tower.append(ExtensionRing(tower[-1] if tower else Fq, w, check=False))
            if v + 1 < len(mu):
                images = [big._mul(m, x) for x in powers[:dw] for m in images]
        return ClassPolys(p_polys, w_polys, pi_polys, tower)

    def _build_class(self, cls, polys):
        """The class data of cls from the `ClassPolys` at one of its members:
        over a field q = p, z = w and sigma = pi; over a chain ring they are
        the Hensel lifts, and so is the tower."""
        A, R = self.ambient, self.ambient.ring
        if R.t == 1:
            q_polys, z_polys, sigma_polys, tower = polys.p_polys, polys.w_polys, polys.pi_polys, polys.tower
        else:
            lifts = zip(self.lifted_factorizations, polys.p_polys)
            q_polys = [lf.factors[lf.residue_factors.index(p)] for lf, p in lifts]
            z_polys, sigma_polys = [None], [None]
            tower = [ExtensionRing(R, q_polys[0], check=False)]
            for v in range(1, A.r):
                ring_below = tower[-1]
                q_emb = _embed_poly(q_polys[v], ring_below)
                if polys.pi_polys[v].degree == 0:
                    z, sigma = q_emb, Poly.one(ring_below, var=v)
                else:
                    z, sigma = lift_factorization(q_emb, [polys.w_polys[v], polys.pi_polys[v]]).factors
                z_polys.append(z)
                sigma_polys.append(sigma)
                tower.append(ExtensionRing(ring_below, z, check=False))

        if tower[-1].q != R.residue_field.size ** cls.size:  # pragma: no cover
            raise InternalError("component residue degree does not match the class size")

        h = A.one()
        for v in range(A.r):
            quot, rem = divmod(A.moduli[v], q_polys[v])
            if not rem.is_zero():  # pragma: no cover
                raise InternalError("lifted factor does not divide the modulus")
            h = h * A.from_polynomial(quot)
        for v in range(1, A.r):
            h = h * _poly_over_tower_to_mpoly(sigma_polys[v], A, v)

        p_polys, w_polys, pi_polys, _ = polys
        return ClassData(cls, p_polys, q_polys, w_polys, pi_polys, z_polys, sigma_polys, tower, h)

    # -- queries --------------------------------------------------------------

    @property
    def class_count(self):
        return len(self.classes)


def decompose(ambient, seed=0):
    """The cached decomposition of an ambient for one factorization seed."""
    cache = ambient.__dict__.setdefault("_decompositions", {})
    dec = cache.get(seed)
    if dec is None:
        dec = cache[seed] = Decomposition(ambient, seed=seed)
    return dec
