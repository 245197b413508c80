"""Semisimple codes: ideals of R[X_1,...,X_r]/<t_1,...,t_r>.

A code is represented semantically by its exponent map: for every
cyclotomic class C an integer j_C in [0, t], meaning the component carries
the ideal <a^{j_C}>.  The map is a complete invariant; generator lists are
normalized onto it on entry with one product e_C * g per class and
generator and no re-check (see `code_from_generators`); the canonical family
G_0, ..., G_t (sums of primitive idempotents grouped by exponent) plus the
single generator G = sum a^i G_{i+1} are reconstructed from it on demand.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .decompose import decompose
from .errors import DomainError


class CanonicalGenerators(namedtuple("CanonicalGenerators", "gs G")):
    """The family G_0,...,G_t of MPolys (G_{i+1} collects exponent-i
    classes), as the tuple ``gs``, and the single generator G = sum_{i<t}
    a^i G_{i+1}."""

    __slots__ = ()


class SemisimpleCode:
    """An ideal of a semisimple ambient, held as its exponent map."""

    __slots__ = ("dec", "exps")

    def __init__(self, dec, exps):
        exps = tuple(exps)
        t = dec.ambient.ring.t
        if len(exps) != dec.class_count:
            raise DomainError("exponent map must cover every class")
        for j in exps:
            if type(j) is not int:
                raise DomainError(f"exponent {j!r} is not an int")
            if not 0 <= j <= t:
                raise DomainError(f"exponent {j} outside [0, {t}]")
        self.dec = dec
        self.exps = exps

    @property
    def ambient(self):
        return self.dec.ambient

    def __eq__(self, other):
        return (
            isinstance(other, SemisimpleCode)
            and self.ambient == other.ambient
            and self.exps == other.exps
        )

    def __hash__(self):
        return hash((self.ambient.degs, self.exps))

    def __repr__(self):
        pairs = ", ".join(
            f"{cls.rep}:{j}" for cls, j in zip(self.dec.classes, self.exps)
        )
        return f"SemisimpleCode({pairs})"

    # -- structure ------------------------------------------------------------

    def cardinality(self):
        """|K| = q^(sum over classes of (t - j_C)|C|)."""
        ring = self.ambient.ring
        digits = sum(
            (ring.t - j) * cls.size for cls, j in zip(self.dec.classes, self.exps)
        )
        return ring.q**digits

    def is_zero(self):
        t = self.ambient.ring.t
        return all(j == t for j in self.exps)

    def contains(self, f):
        """Membership: the projection on every component has valuation >= j_C."""
        for cd, j in zip(self.dec.data, self.exps):
            if j == 0:
                continue
            if (cd.e * f).valuation() < j:
                return False
        return True

    def generators(self):
        """The canonical generator family; each G_i is itself an idempotent."""
        A = self.ambient
        t = A.ring.t
        gs = [A.zero() for _ in range(t + 1)]
        for cd, j in zip(self.dec.data, self.exps):
            slot = 0 if j == t else j + 1
            gs[slot] = gs[slot] + cd.e
        G = gs[1]
        for i in range(1, t):
            G = G + gs[i + 1].times_a(i)
        return CanonicalGenerators(gs=tuple(gs), G=G)

    def definition_generators(self):
        """The a^{j_C} h_C generators of the component-sum form."""
        A = self.ambient
        t = A.ring.t
        out = []
        for cd, j in zip(self.dec.data, self.exps):
            if j == t:
                continue
            out.append(cd.h.times_a(j))
        return out

    def is_hensel_lift(self):
        """True iff every exponent is 0 or t and some component is full."""
        t = self.ambient.ring.t
        return all(j in (0, t) for j in self.exps) and any(j == 0 for j in self.exps)

    def socle(self):
        """{c in K : a c = 0}: nonzero components drop to exponent t - 1."""
        t = self.ambient.ring.t
        return SemisimpleCode(
            self.dec, tuple(t - 1 if j < t else t for j in self.exps)
        )

    def residue_image(self):
        """The image code in the residue quotient (a t = 1 code), or None."""
        if all(j > 0 for j in self.exps):
            return None
        return SemisimpleCode(self.dec.residue, tuple(0 if j == 0 else 1 for j in self.exps))

    def socle_field_code(self):
        """The residue code L carrying the distance of K (a t = 1 code)."""
        if self.is_zero():
            raise DomainError("the zero code has no residue distance carrier")
        t = self.ambient.ring.t
        return SemisimpleCode(self.dec.residue, tuple(0 if j < t else 1 for j in self.exps))

    def intersect(self, other):
        _same_ambient(self, other)
        return SemisimpleCode(
            self.dec, tuple(max(a, b) for a, b in zip(self.exps, other.exps))
        )

    def add(self, other):
        _same_ambient(self, other)
        return SemisimpleCode(
            self.dec, tuple(min(a, b) for a, b in zip(self.exps, other.exps))
        )

    def to_json(self, with_generator=True):
        out = {
            "exponents": [[list(cls.rep), j] for cls, j in zip(self.dec.classes, self.exps)],
            "cardinality": str(self.cardinality()),
        }
        if with_generator:
            out["generator"] = self.generators().G.to_text()
        return out


def _same_ambient(a, b):
    if a.ambient != b.ambient:
        raise DomainError("codes live in different ambients")


def is_root_label(x):
    """An int or a tuple of int coordinates; a bool, equal to 0 or 1, is neither."""
    return type(x) is int or type(x) is tuple and all(type(c) is int for c in x)


def code_from_exponents(ambient, exps, seed=0):
    """Build a code from an exponent map (sequence in canonical class order,
    or a dict keyed by class representative tuples)."""
    dec = decompose(ambient, seed=seed)
    if isinstance(exps, dict):
        table = {}
        for key, j in exps.items():
            if not isinstance(key, tuple):
                key = (key,)
            if not all(is_root_label(x) for x in key):
                raise DomainError(f"bad class representative {key!r}")
            if key in table:
                raise DomainError(f"class representative {key!r} appears twice")
            table[key] = j
        ordered = []
        for cls in dec.classes:
            if cls.rep not in table:
                raise DomainError(f"missing exponent for class {cls.rep}")
            ordered.append(table[cls.rep])
        if len(table) != dec.class_count:
            raise DomainError("exponent map names an unknown class")
        exps = ordered
    return SemisimpleCode(dec, exps)


def code_from_generators(ambient, gens, seed=0):
    """Normalize an arbitrary generator list to its exponent map.

    j_C is the least valuation of the e_C * g, one product per class and
    generator until j_C reaches 0.  No membership re-check follows: where
    j_C > 0 every e_C * g was computed and j_C is their minimum, which is
    all `contains` would recompute.  What can fail, that the e_C sum to one
    (so g = sum e_C * g), is checked when `dec.data` is built.
    """
    dec = decompose(ambient, seed=seed)
    t = ambient.ring.t
    exps = []
    for cd in dec.data:
        j = t
        for g in gens:
            j = min(j, (cd.e * g).valuation())
            if j == 0:
                break
        exps.append(j)
    return SemisimpleCode(dec, exps)


def enumerate_codes(ambient, seed=0):
    """All (t+1)^N semisimple codes, mixed-radix over the class order."""
    dec = decompose(ambient, seed=seed)
    t = ambient.ring.t
    for exps in itertools.product(range(t + 1), repeat=dec.class_count):
        yield SemisimpleCode(dec, exps)

