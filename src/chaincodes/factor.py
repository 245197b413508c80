"""Factorization over the residue field and cyclotomic classes of roots.

`factor_squarefree` splits the stages of `polys.distinct_degree` by equal
degree with seeded pseudo-randomness, so the returned (sorted) factor list
is deterministic and independent of the seed as a set.  `splitting_data`
builds the common splitting field of the residue moduli from their factor
lists and labels the roots as they print: as exponents of a primitive root
for abelian ambients, otherwise as the coordinate tuples of the roots that
equal-degree splitting finds.  `cyclotomic_classes` partitions the root
tuples into orbits of the simultaneous q-power map, a -> q*a mod e_i on
exponent labels, so only non-abelian classes read the splitting field.
"""

from __future__ import annotations

import itertools
import random
from collections import namedtuple
from math import lcm

from .errors import DomainError, InternalError
from .kernel import packed_product
from .polys import Poly, _embed_poly, _pow_mod, distinct_degree, is_squarefree, mod_lanes, packed_layout
from .polys import poly_gcd, power
from .rings import ExtensionRing, default_modulus


def prime_factors(n):
    """The distinct prime factors of n, ascending, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def factor_squarefree(f, seed=0):
    """Irreducible factors of a monic square-free polynomial over F_q.

    Distinct-degree splitting first, then seeded equal-degree splitting
    (Cantor-Zassenhaus for odd q, trace splitting in characteristic 2).
    The output is sorted by (degree, coefficient rank) and multiplies back
    to the input exactly.
    """
    field = f.ring
    if field.t != 1:
        raise DomainError("factorization works over the residue field")
    if not f.is_monic():
        raise DomainError("factor_squarefree expects a monic polynomial")
    if not is_squarefree(f):
        raise DomainError("factor_squarefree expects a square-free polynomial")
    rng = random.Random(seed)
    factors = [h for g, d in distinct_degree(f) for h in _equal_degree(g, d, rng)]
    factors.sort(key=lambda p: p.rank_key())

    check = Poly.one(field, var=f.var)
    for p in factors:
        check = check * p
    if check != f:
        raise InternalError("internal factorization check failed")  # pragma: no cover
    return factors


def _random_poly(field, degree, rng):
    return Poly(field, [field._from_rank(rng.randrange(field.size)) for _ in range(degree)])


# Draws `_equal_degree` makes before it gives up on one split.
SPLIT_DRAWS = 128


def _equal_degree(g, d, rng):
    """Split a product of distinct irreducible factors, all of degree d.

    A draw r of degree < 2d maps onto any two factors' residue fields
    F_Q x F_Q, Q = q^d, uniformly, so it separates them with chance 1/2 in
    characteristic 2 (their traces differ) and (Q^2 - 1) / (2 Q^2) for odd
    q (one power r^((Q-1)/2) is 1 and the other is not), counting the
    constant draws, which never split.  The worst case is 4/9, at GF(3) and
    d = 1; GF(2) with d = 1 gives 1/2, where half the draws are constants
    and every other one splits.  So a correct split misses all
    `SPLIT_DRAWS` draws with chance at most (5/9)^128 < 2^-100, and running
    out of draws raises `InternalError` instead of looping on broken
    arithmetic.
    """
    if g.degree == d:
        return [g.monic()]
    field = g.ring
    q = field.size
    layout = packed_layout(field, (g,))
    for _ in range(SPLIT_DRAWS):
        r = _random_poly(field, 2 * d, rng)
        if r.degree < 1:
            continue
        if field.p == 2:
            # the trace map to F_2 splits in characteristic 2: the sum of the
            # dl - 1 repeated squares of r, as packed products in F_q[X]/(g)
            # whose lanes are bits
            s = acc = mod_lanes(r, g)
            for _ in range(d * field.l - 1):
                s = packed_product(s, s, layout)
                acc = [x ^ y for x, y in zip(acc, s)]
            cand = poly_gcd(Poly.from_lanes(field, acc, var=r.var), g)
        else:
            s = _pow_mod(r, (q**d - 1) // 2, g, layout)
            cand = poly_gcd(s - Poly.one(field, var=g.var), g)
        if 0 < cand.degree < g.degree:
            left = cand.monic()
            right = (g // cand).monic()
            return _equal_degree(left, d, rng) + _equal_degree(right, d, rng)
    raise InternalError(f"no split of a degree-{g.degree} product in {SPLIT_DRAWS} draws")


class SplittingData(namedtuple("SplittingData", "M field roots primitive_roots")):
    """Roots of the residue moduli in their common splitting field
    ``field``, F_{q^M} as a t = 1 chain ring, and ``roots``, per variable
    the tuple of root labels.

    For abelian ambients ``primitive_roots`` holds primitive e_i-th roots
    xi_i and the root labels are integers a, standing for xi_i^a; otherwise
    it is None and the labels are the roots' coordinate tuples in ``field``.
    Both are the form the labels print in.
    """

    __slots__ = ()

    def embed(self, c):
        """F_q into the splitting field."""
        if self.field == c.ring:
            return c
        return self.field.embed(c)

    def root(self, i, label):
        """The payload of the field element behind a root label of variable i."""
        if self.primitive_roots is None:
            return self.field._from_coords(label)
        return power(self.primitive_roots[i].data, label, self.field._one, self.field._mul)


def _splitting_field(base_field, M):
    if M == 1:
        return base_field
    # the minimal-rank irreducible of degree M over F_q; its search proved it irreducible
    return ExtensionRing(base_field, default_modulus(base_field, M), check=False)


def _multiplicative_generator(field):
    """The generator of the cyclic group field^* of least nonzero rank.

    Over an extension of degree > 1 the scan starts at rank base.size: the
    ranks below are the payloads (c, 0, ..., 0), the base field's constants,
    a proper subfield whose units have order dividing base.size - 1 <
    field.size - 1.  None of them generates field^*, so the scan from rank 1
    finds the same element.  A degree-1 extension is its base and scans from 1.
    """
    order = field.size - 1
    primes = prime_factors(order)
    start = field.base.size if isinstance(field, ExtensionRing) and field.deg > 1 else 1
    for r in range(start, field.size):
        g = field.from_rank(r)
        if all(g ** (order // ell) != field.one for ell in primes):
            return g
    raise InternalError("no multiplicative generator found")  # pragma: no cover


def splitting_data(ambient, factor_lists):
    """Common splitting field and labelled roots of the residue moduli,
    given each modulus's irreducible factors over the residue field."""
    field = ambient.ring.residue_field
    M = 1
    for fl in factor_lists:
        for p in fl:
            M = lcm(M, p.degree)
    big = _splitting_field(field, M)

    exps = ambient.exponents
    if exps is not None:
        g = _multiplicative_generator(big)
        order = big.size - 1
        prim = []
        for e in exps:
            if order % e != 0:
                raise InternalError(  # pragma: no cover
                    f"splitting field has no elements of order {e}"
                )
            prim.append(g ** (order // e))
        roots = tuple(tuple(range(e)) for e in exps)
        return SplittingData(M, big, roots, tuple(prim))
    # The roots are the linear factors X - c over GF(q^M).  Sorted, they do
    # not depend on the draws, so a fixed seed leaves the labels unchanged.
    rng = random.Random(0)
    roots = []
    for fl in factor_lists:
        lins = [lin for f in fl for lin in _equal_degree(_embed_poly(f, big), 1, rng)]
        roots.append(tuple(sorted(tuple(big._coords(big._neg(lin.data[0]))) for lin in lins)))
    return SplittingData(M, big, tuple(roots), None)


class CyclotomicClass(namedtuple("CyclotomicClass", "members rep")):
    """A Frobenius orbit on root tuples, ``members`` sorted, with its
    canonical representative ``rep``, the lexicographically smallest."""

    __slots__ = ()

    @property
    def size(self):
        return len(self.members)

    def to_json(self):
        return {
            "repr": list(self.rep),
            "size": self.size,
            "members": [list(mu) for mu in self.members],
        }


def cyclotomic_classes(ambient, splitting=None):
    """Partition of H_1 x ... x H_r under mu -> (mu_1^q, ..., mu_r^q); the
    splitting data is read only on non-abelian ambients."""
    q = ambient.ring.q
    exps = ambient.exponents

    if exps is not None:
        labels = [range(e) for e in exps]
        def step(mu):
            return tuple((a * q) % e for a, e in zip(mu, exps))
    else:
        if splitting is None:
            raise DomainError("non-abelian classes need the splitting data")
        labels, big = splitting.roots, splitting.field
        # the q-th power of each root, taken once on its payload
        frob = [{x: tuple(big._coords(power(big._from_coords(x), q, big._one, big._mul))) for x in rs}
                for rs in labels]
        def step(mu):
            return tuple(f[x] for f, x in zip(frob, mu))

    all_tuples = list(itertools.product(*labels))
    seen = set()
    classes = []
    for mu in all_tuples:
        if mu in seen:
            continue
        orbit = []
        cur = mu
        while cur not in seen:
            seen.add(cur)
            orbit.append(cur)
            cur = step(cur)
        orbit.sort()
        classes.append(CyclotomicClass(members=tuple(orbit), rep=orbit[0]))
    classes.sort(key=lambda c: c.rep)

    total = sum(c.size for c in classes)
    if total != len(all_tuples):
        raise InternalError("classes do not partition the root tuples")  # pragma: no cover
    return classes
