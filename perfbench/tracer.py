"""Spans and counters around the package's layer entry points.

The tracer rebinds functions from the outside while it is installed and
restores them on ``uninstall``; the package itself is not edited.  A
function is rebound at every binding site: its defining module or class,
every ``chaincodes`` module that imported it by name (``decompose.py``
imports ``lift_factorization`` and its neighbours that way) and the
package's own re-exports.

Each call of a traced function records a span (name, start, end, parent).
Spans stay in memory while an op runs and are folded into per-name totals
when it ends, so memory does not grow with the length of the run.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# span name -> (module, attribute path); a dotted path names a class method.
SPANS = {
    "polys.mpoly_mul": ("chaincodes.polys", "MPoly.__mul__"),
    "polys.mpoly_pow": ("chaincodes.polys", "MPoly.__pow__"),
    "polys.poly_mul": ("chaincodes.polys", "Poly.__mul__"),
    "polys.poly_divmod": ("chaincodes.polys", "Poly.__divmod__"),
    "factor.splitting_data": ("chaincodes.factor", "splitting_data"),
    "factor.factor_squarefree": ("chaincodes.factor", "factor_squarefree"),
    "factor.cyclotomic_classes": ("chaincodes.factor", "cyclotomic_classes"),
    "hensel.lift_factorization": ("chaincodes.hensel", "lift_factorization"),
    "hensel.lift_idempotent": ("chaincodes.hensel", "lift_idempotent"),
    "decompose.build": ("chaincodes.decompose", "Decomposition.__init__"),
    "codes.from_generators": ("chaincodes.codes", "code_from_generators"),
    "codes.from_exponents": ("chaincodes.codes", "code_from_exponents"),
    "codes.to_json": ("chaincodes.codes", "SemisimpleCode.to_json"),
    "duality.dual": ("chaincodes.duality", "dual"),
    "distance.min_distance": ("chaincodes.distance", "min_distance"),
    "distance.field_basis": ("chaincodes.distance", "_field_basis"),
    "cli.main": ("chaincodes.cli", "main"),
}

# counter name -> RingElem operator methods it counts (counted, not timed)
COUNTERS = {
    "rings.elem_mul_calls": ("__mul__", "__rmul__"),
    "rings.elem_add_calls": ("__add__", "__radd__", "__sub__", "__rsub__"),
}

# The decomposition stages whose time ``decompose.rest_s`` leaves out.
DECOMPOSE_STAGES = frozenset(
    {
        "factor.splitting_data",
        "factor.cyclotomic_classes",
        "hensel.lift_factorization",
        "hensel.lift_idempotent",
    }
)


class Totals:
    """Per-name calls, inclusive time (outermost spans only) and self time."""

    __slots__ = ("calls", "incl", "self_s")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index) of the current op
        self.stack = []
        self.totals = {name: Totals() for name in SPANS}
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.rest_s = 0.0  # decompose.build time outside DECOMPOSE_STAGES
        self.dual_check_s = 0.0  # codes.from_generators directly under dual
        self.words_bound = 0  # sum of q^k over min_distance calls
        self.carrier_calls = 0
        self.carrier_repeats = 0
        self.carriers = set()
        self._bindings = self._find_bindings()

    # -- installation ---------------------------------------------------------

    def _find_bindings(self):
        """(owner, attribute, original, replacement) for every binding site."""
        pkg_modules = [
            m
            for n, m in list(sys.modules.items())
            if n == "chaincodes" or n.startswith("chaincodes.")
        ]
        out = []
        for name, (modname, path) in SPANS.items():
            owner, attr = _resolve(importlib.import_module(modname), path)
            original = owner.__dict__[attr]
            wrapped = self._span(name, original)
            # a class's aliases (__rmul__ = __mul__) share the function object
            owners = [owner] if isinstance(owner, type) else pkg_modules
            for site in owners:
                for key, value in list(vars(site).items()):
                    if value is original:
                        out.append((site, key, original, wrapped))
        ring_elem = importlib.import_module("chaincodes.rings").RingElem
        for counter, methods in COUNTERS.items():
            for method in methods:
                original = ring_elem.__dict__[method]
                out.append((ring_elem, method, original, self._counted(counter, original)))
        return out

    def install(self):
        for owner, attr, _, replacement in self._bindings:
            setattr(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    def _span(self, name, fn):
        spans = self.spans
        stack = self.stack
        on_distance = name == "distance.min_distance"

        def traced(*args, **kwargs):
            if on_distance:
                self._note_carrier(args[0])
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return traced

    def _counted(self, counter, fn):
        counts = self.counts

        def counted(*args):
            counts[counter] += 1
            return fn(*args)

        return counted

    def _note_carrier(self, code):
        """q^k of the socle carrier, and whether this pass has seen it."""
        ring = code.ambient.ring
        carrier = tuple(j < ring.t for j in code.exps)
        k = sum(cd.cls.size for cd, full in zip(code.dec.data, carrier) if full)
        self.words_bound += ring.q**k
        self.carrier_calls += 1
        key = (id(code.dec), carrier)
        if key in self.carriers:
            self.carrier_repeats += 1
        else:
            self.carriers.add(key)

    # -- aggregation ----------------------------------------------------------

    def new_pass(self):
        """Carriers repeat only within one pass over the workload's inputs."""
        self.carriers.clear()

    def fold(self):
        """Fold the spans of the op that just ended into the totals."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for idx, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            tot = self.totals[name]
            tot.calls += 1
            tot.self_s += dur - child[idx]
            # walk to the root: is this the outermost span of its name, and
            # is it a stage directly under a decomposition build?
            outermost = True
            under_build = False
            under_stage = False
            up = parent
            while up >= 0:
                up_name = spans[up][0]
                if up_name == name:
                    outermost = False
                if not under_build:
                    if up_name == "decompose.build":
                        under_build = True
                    elif up_name in DECOMPOSE_STAGES:
                        under_stage = True
                up = spans[up][3]
            if outermost:
                tot.incl += dur
            if name in DECOMPOSE_STAGES and under_build and not under_stage:
                self.rest_s -= dur
            if name == "decompose.build" and outermost:
                self.rest_s += dur
            if (
                name == "codes.from_generators"
                and parent >= 0
                and spans[parent][0] == "duality.dual"
            ):
                self.dual_check_s += dur
        spans.clear()

    def metrics(self, ops):
        """Per-layer metrics per traced op (the carrier ratio is a ratio)."""
        t = self.totals

        def per_op(x):
            return x / ops

        out = {
            "rings.elem_mul_calls": per_op(self.counts["rings.elem_mul_calls"]),
            "rings.elem_add_calls": per_op(self.counts["rings.elem_add_calls"]),
            "polys.mpoly_mul.calls": per_op(t["polys.mpoly_mul"].calls),
            "polys.mpoly_mul.self_s": per_op(t["polys.mpoly_mul"].self_s),
            "polys.mpoly_pow.calls": per_op(t["polys.mpoly_pow"].calls),
            "polys.mpoly_pow.s": per_op(t["polys.mpoly_pow"].incl),
            "polys.poly_mul.calls": per_op(t["polys.poly_mul"].calls),
            "polys.poly_mul.self_s": per_op(t["polys.poly_mul"].self_s),
            "polys.poly_divmod.calls": per_op(t["polys.poly_divmod"].calls),
            "polys.poly_divmod.self_s": per_op(t["polys.poly_divmod"].self_s),
            "factor.splitting_data.s": per_op(t["factor.splitting_data"].incl),
            "factor.factor_squarefree.s": per_op(t["factor.factor_squarefree"].incl),
            "factor.cyclotomic_classes.s": per_op(t["factor.cyclotomic_classes"].incl),
            "hensel.lift_factorization.s": per_op(t["hensel.lift_factorization"].incl),
            "hensel.lift_idempotent.calls": per_op(t["hensel.lift_idempotent"].calls),
            "hensel.lift_idempotent.s": per_op(t["hensel.lift_idempotent"].incl),
            "decompose.build.calls": per_op(t["decompose.build"].calls),
            "decompose.build.s": per_op(t["decompose.build"].incl),
            "decompose.rest_s": per_op(self.rest_s),
            "codes.from_generators.calls": per_op(t["codes.from_generators"].calls),
            "codes.from_generators.s": per_op(t["codes.from_generators"].incl),
            "codes.from_exponents.s": per_op(t["codes.from_exponents"].incl),
            "codes.to_json.s": per_op(t["codes.to_json"].incl),
            "duality.dual.calls": per_op(t["duality.dual"].calls),
            "duality.dual.s": per_op(t["duality.dual"].incl),
            "duality.dual.check_s": per_op(self.dual_check_s),
            "distance.min_distance.calls": per_op(t["distance.min_distance"].calls),
            "distance.min_distance.s": per_op(t["distance.min_distance"].incl),
            "distance.basis_s": per_op(t["distance.field_basis"].incl),
            "distance.words_bound": per_op(self.words_bound),
            "distance.carrier_repeat_ratio": (
                self.carrier_repeats / self.carrier_calls if self.carrier_calls else 0.0
            ),
            "cli.main.s": per_op(t["cli.main"].incl),
            "cli.self_s": per_op(t["cli.main"].self_s),
        }
        return out


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]
