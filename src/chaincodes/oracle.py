"""Independent brute-force reference implementations.

Everything here works on raw coefficient vectors (tuples of ring payloads)
and deliberately shares no code with the main decomposition machinery
beyond ring arithmetic: monomial multiplication is reimplemented from the
moduli, spans are closed by chain-ring echelonization (pivots of minimal
valuation, with the annihilator multiple of each pivot row re-injected so
membership peeling is exact), and kernels come from a Smith-style
diagonalization with tracked column operations.

Two tiers: explicit set enumeration gives absolute certainty on small
ambients (|R|^n <= 2^16 by default) and echelonized spans extend the reach
beyond that.
"""

from __future__ import annotations

import itertools

from .errors import BudgetExceeded, DomainError, InternalError
from .rings import IntegerModRing

NAIVE_LIMIT = 2**16
DEFAULT_BUDGET = 2**24


# -- raw vector helpers --------------------------------------------------------


def _vec_add(ring, u, v):
    add = ring._add
    return tuple(add(a, b) for a, b in zip(u, v))


def _vec_scale(ring, u, c):
    mul = ring._mul
    return tuple(mul(a, c) for a in u)


def _vec_is_zero(ring, u):
    z = ring._zero
    return all(a == z for a in u)


def _vec_weight(ring, u):
    z = ring._zero
    return sum(1 for a in u if a != z)


def _dot(ring, u, v):
    if isinstance(ring, IntegerModRing):
        return sum(a * b for a, b in zip(u, v)) % ring.size
    acc = ring._zero
    for a, b in zip(u, v):
        acc = ring._add(acc, ring._mul(a, b))
    return acc


def _unit_part_inverse(ring, c, v):
    u = ring._div_a(c, v)
    return ring.unit_inverse(ring.elem(u)).data


def _coset_reps(ring, ndigits):
    """Payload representatives of R modulo <a^ndigits>, q^ndigits of them."""
    teich = [g.data for g in ring.teichmuller_set()]
    apows = []
    cur = ring._one
    for _ in range(ndigits):
        apows.append(cur)
        cur = ring._mul(cur, ring._a)
    reps = []
    for digits in itertools.product(teich, repeat=ndigits):
        acc = ring._zero
        for g, ap in zip(digits, apows):
            acc = ring._add(acc, ring._mul(g, ap))
        reps.append(acc)
    return reps


# -- independent monomial action ----------------------------------------------


def _fold_coeffs(ambient, k):
    """X_k^{deg t_k} = -(lower part of t_k), as payloads."""
    m = ambient.moduli[k]
    ring = ambient.ring
    return [ring._neg(c) for c in m.data[:-1]]


def _var_shift(ambient, vec, k, fold):
    """Multiply a coefficient vector by X_k."""
    ring = ambient.ring
    z = ring._zero
    out = [z] * ambient.n
    stride = ambient.strides[k]
    dk = ambient.degs[k]
    for rank, c in enumerate(vec):
        if c == z:
            continue
        e = (rank // stride) % dk
        if e + 1 < dk:
            out[rank + stride] = ring._add(out[rank + stride], c)
        else:
            base = rank - e * stride
            for j, fc in enumerate(fold):
                if fc == z:
                    continue
                idx = base + j * stride
                out[idx] = ring._add(out[idx], ring._mul(c, fc))
    return tuple(out)


def monomial_multiples(ambient, vec):
    """All X^alpha * vec for alpha in the monomial box, via single shifts."""
    folds = [_fold_coeffs(ambient, k) for k in range(ambient.r)]
    vecs = [None] * ambient.n
    vecs[0] = tuple(vec)
    for rank in range(1, ambient.n):
        exps = ambient.exps(rank)
        for k, e in enumerate(exps):
            if e > 0:
                pred = rank - ambient.strides[k]
                vecs[rank] = _var_shift(ambient, vecs[pred], k, folds[k])
                break
    return vecs


# -- module spans ---------------------------------------------------------------


class ModuleSpan:
    """An R-submodule of R^n held as an echelonized pivot basis."""

    __slots__ = ("ring", "n", "pivots", "cardinality")

    def __init__(self, ring, n, pivots):
        self.ring = ring
        self.n = n
        self.pivots = tuple(pivots)  # (col, val, row) with strictly rising cols
        card = 1
        for _, v, _ in pivots:
            card *= ring.q ** (ring.t - v)
        self.cardinality = card

    def contains(self, vec):
        ring = self.ring
        x = list(vec)
        z = ring._zero
        for col, v, row in self.pivots:
            c = x[col]
            if c == z:
                continue
            if ring._val(c) < v:
                return False
            coef = ring._div_a(c, v)
            x = [ring._add(a, ring._neg(ring._mul(coef, b))) for a, b in zip(x, row)]
        return all(a == z for a in x)

    def elements(self, budget=None):
        """Every element, once; nested transversals over the pivot rows."""
        if budget is not None and self.cardinality > budget:
            raise BudgetExceeded(
                f"span has {self.cardinality} elements, budget {budget}"
            )
        ring = self.ring
        zero = (ring._zero,) * self.n

        def rec(i, acc):
            if i == len(self.pivots):
                yield acc
                return
            _, v, row = self.pivots[i]
            for rep in _coset_reps(ring, ring.t - v):
                yield from rec(i + 1, _vec_add(ring, acc, _vec_scale(ring, row, rep)))

        yield from rec(0, zero)

    def explicit_set(self):
        """Naive additive closure of the pivot rows; asserts the cardinality."""
        ring = self.ring
        zero = (ring._zero,) * self.n
        out = {zero}
        scalars = [ring._from_rank(r) for r in range(ring.size)]
        for _, _, row in self.pivots:
            for c in scalars:
                x = _vec_scale(ring, row, c)
                if x in out:
                    continue
                base = list(out)
                cur = x
                while cur not in out:
                    out.update(_vec_add(ring, s, cur) for s in base)
                    cur = _vec_add(ring, cur, x)
        if len(out) != self.cardinality:  # pragma: no cover
            raise InternalError("explicit closure disagrees with echelon cardinality")
        return frozenset(out)

    def __eq__(self, other):
        if not isinstance(other, ModuleSpan):
            return NotImplemented
        if self.ring != other.ring or self.n != other.n:
            return False
        if self.cardinality != other.cardinality:
            return False
        return all(other.contains(row) for _, _, row in self.pivots)

    def __hash__(self):
        return hash((self.n, self.cardinality, tuple(p[:2] for p in self.pivots)))

    def fingerprint(self):
        return (self.cardinality, tuple((c, v) for c, v, _ in self.pivots))

    def __repr__(self):
        return f"ModuleSpan(n={self.n}, |M|={self.cardinality})"


def module_span(ring, n, rows):
    """Echelonize arbitrary generating rows into a `ModuleSpan`."""
    t = ring.t
    z = ring._zero
    active = [list(r) for r in rows if not _vec_is_zero(ring, r)]
    pivots = []
    for col in range(n):
        best = None
        best_v = t
        for idx, row in enumerate(active):
            if row[col] == z:
                continue
            v = ring._val(row[col])
            if v < best_v:
                best_v = v
                best = idx
                if v == 0:
                    break
        if best is None:
            continue
        row = active.pop(best)
        v = best_v
        uinv = _unit_part_inverse(ring, row[col], v)
        row = [ring._mul(c, uinv) for c in row]
        for other in active:
            c = other[col]
            if c == z:
                continue
            coef = ring._div_a(c, v)
            for i in range(n):
                other[i] = ring._add(other[i], ring._neg(ring._mul(coef, row[i])))
        active = [r for r in active if not _vec_is_zero(ring, r)]
        if v > 0:
            apow = ring._one
            for _ in range(t - v):
                apow = ring._mul(apow, ring._a)
            extra = [ring._mul(c, apow) for c in row]
            if not _vec_is_zero(ring, extra):
                active.append(extra)
        pivots.append((col, v, tuple(row)))
    return ModuleSpan(ring, n, pivots)


def ideal_span(ambient, gens):
    """Smallest ideal of the quotient containing ``gens`` (MPoly or vectors).

    Echelonized spans cost polynomial work in n, so no budget applies here;
    budgets guard the element-materializing operations below.
    """
    rows = []
    for g in gens:
        vec = g if isinstance(g, tuple) else tuple(ambient.ring._from_lanes(g.lanes))
        rows.extend(monomial_multiples(ambient, vec))
    return module_span(ambient.ring, ambient.n, rows)


# -- kernels via Smith-style diagonalization ------------------------------------


def _smith_kernel(ring, rows, n):
    """Generators of {x in R^n : row . x = 0 for every row}."""
    t = ring.t
    z = ring._zero
    A = [list(r) for r in rows]
    k = len(A)
    V = [[ring._one if i == j else z for j in range(n)] for i in range(n)]
    pos = 0
    diag = {}
    while pos < min(k, n):
        best = None
        best_v = t
        for i in range(pos, k):
            for j in range(pos, n):
                if A[i][j] == z:
                    continue
                v = ring._val(A[i][j])
                if v < best_v:
                    best_v = v
                    best = (i, j)
                    if v == 0:
                        break
            if best_v == 0:
                break
        if best is None:
            break
        bi, bj = best
        A[pos], A[bi] = A[bi], A[pos]
        if bj != pos:
            for row in A:
                row[pos], row[bj] = row[bj], row[pos]
            for row in V:
                row[pos], row[bj] = row[bj], row[pos]
        v = best_v
        uinv = _unit_part_inverse(ring, A[pos][pos], v)
        A[pos] = [ring._mul(c, uinv) for c in A[pos]]
        for i in range(k):
            if i == pos or A[i][pos] == z:
                continue
            coef = ring._div_a(A[i][pos], v)
            A[i] = [
                ring._add(a, ring._neg(ring._mul(coef, b)))
                for a, b in zip(A[i], A[pos])
            ]
        for j in range(pos + 1, n):
            c = A[pos][j]
            if c == z:
                continue
            coef = ring._div_a(c, v)
            negcoef = ring._neg(coef)
            for i in range(k):
                A[i][j] = ring._add(A[i][j], ring._mul(negcoef, A[i][pos]))
            for i in range(n):
                V[i][j] = ring._add(V[i][j], ring._mul(negcoef, V[i][pos]))
        diag[pos] = v
        pos += 1

    gens = []
    for j in range(n):
        d = diag.get(j, t)
        if d == 0:
            continue
        col = tuple(V[i][j] for i in range(n))
        if d < t:
            apow = ring._one
            for _ in range(t - d):
                apow = ring._mul(apow, ring._a)
            col = _vec_scale(ring, col, apow)
        gens.append(col)
    return gens


# -- the oracle operations -------------------------------------------------------


def span_of_code(code):
    """The module span of a code's defining generators a^{j_C} h_C."""
    return ideal_span(code.ambient, code.definition_generators())


def dual_bruteforce(ambient, span, naive=None, budget=DEFAULT_BUDGET):
    """K-perp = {x : x . c = 0 for all c in K}, exactly."""
    ring = ambient.ring
    n = ambient.n
    total = ring.size**n
    if naive is None:
        naive = total <= NAIVE_LIMIT
    rows = [row for _, _, row in span.pivots]
    kernel = module_span(ring, n, _smith_kernel(ring, rows, n))
    if naive:
        if total > budget:
            raise BudgetExceeded(f"naive dual scan over {total} vectors exceeds budget")
        z = ring._zero
        payloads = [ring._from_rank(r) for r in range(ring.size)]
        count = 0
        for vec in itertools.product(payloads, repeat=n):
            if all(_dot(ring, vec, row) == z for row in rows):
                count += 1
                if not kernel.contains(vec):  # pragma: no cover
                    raise InternalError("naive dual disagrees with kernel dual")
        if count != kernel.cardinality:  # pragma: no cover
            raise InternalError("naive dual count disagrees with kernel dual")
    return kernel


def annihilator_bruteforce(ambient, f, naive=None, budget=DEFAULT_BUDGET):
    """{g : g * f = 0 in the quotient} as a module span."""
    ring = ambient.ring
    n = ambient.n
    vec = tuple(ring._from_lanes(f.lanes))
    mults = monomial_multiples(ambient, vec)
    # rows indexed by output coordinate: row_beta[alpha] = (X^alpha f)_beta
    rows = [tuple(mults[alpha][beta] for alpha in range(n)) for beta in range(n)]
    kernel = module_span(ring, n, _smith_kernel(ring, rows, n))
    total = ring.size**n
    if naive is None:
        naive = total <= NAIVE_LIMIT
    if naive:
        if total > budget:
            raise BudgetExceeded(f"naive annihilator scan over {total} vectors exceeds budget")
        z = ring._zero
        payloads = [ring._from_rank(r) for r in range(ring.size)]
        count = 0
        for g in itertools.product(payloads, repeat=n):
            image = [z] * n
            ok = True
            for alpha, c in enumerate(g):
                if c == z:
                    continue
                mv = mults[alpha]
                image = [ring._add(x, ring._mul(c, y)) for x, y in zip(image, mv)]
            ok = all(x == z for x in image)
            if ok:
                count += 1
                if not kernel.contains(g):  # pragma: no cover
                    raise InternalError("naive annihilator disagrees with kernel")
        if count != kernel.cardinality:  # pragma: no cover
            raise InternalError("naive annihilator count disagrees with kernel")
    return kernel


def distance_bruteforce(span, budget=DEFAULT_BUDGET):
    """Minimum Hamming weight over all nonzero elements."""
    if span.cardinality == 1:
        raise DomainError("the zero code has no minimum distance")
    if span.cardinality > budget:
        raise BudgetExceeded(
            f"distance enumeration over {span.cardinality} words exceeds budget"
        )
    ring = span.ring
    best = span.n + 1
    for vec in span.elements():
        w = _vec_weight(ring, vec)
        if 0 < w < best:
            best = w
            if best == 1:
                break
    return best


def ideal_census(ambient, budget=NAIVE_LIMIT):
    """Every ideal of the quotient, independently of the CRT theory.

    Builds the span of every principal ideal, deduplicates, then verifies
    the collection is closed under ideal sums; for a finite commutative
    ring every ideal is a finite sum of principal ideals, so the result is
    the complete ideal lattice.
    """
    ring = ambient.ring
    n = ambient.n
    total = ring.size**n
    if total > budget:
        raise BudgetExceeded(f"census over {total} ring elements exceeds budget")
    payloads = [ring._from_rank(r) for r in range(ring.size)]
    buckets = {}
    ideals = []
    for vec in itertools.product(payloads, repeat=n):
        span = ideal_span(ambient, [vec])
        key = span.fingerprint()
        bucket = buckets.setdefault(key, [])
        if not any(known.contains(vec) for known in bucket):
            bucket.append(span)
            ideals.append(span)

    # closure under sums: the sum of any two census ideals is a census ideal
    for i, si in enumerate(ideals):
        for sj in ideals[i + 1 :]:
            rows = [row for _, _, row in si.pivots] + [row for _, _, row in sj.pivots]
            total_span = module_span(ring, n, rows)
            bucket = buckets.get(total_span.fingerprint(), [])
            if not any(known == total_span for known in bucket):  # pragma: no cover
                raise InternalError("census is not closed under ideal sums")
    ideals.sort(key=lambda s: (s.cardinality, s.fingerprint()))
    return ideals
