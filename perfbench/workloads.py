"""The three benchmark workloads and the checks on every op's output.

A workload has a ``setup(seed)`` that builds everything the ops share
(rings, ambients, decompositions, reference digests) and a
``round(state, rng)`` that returns one round of ops in a seeded order.
Every op is a fixed mix of request kinds, so whole rounds give the same
mix whatever the seed; the seed only picks the order, the inputs drawn
from each kind and the factorizer seed.

An op runs through the package's public API or its in-process CLI and
returns the bytes a user would see; its check returns True or raises.

The caller must put the checkout's ``src`` on ``sys.path`` first
(``run.use_checkout_source``).
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
from collections import namedtuple
from functools import partial
from pathlib import Path

from chaincodes.errors import BudgetExceeded
from chaincodes.polys import Ambient, parse_univariate
from chaincodes.rings import ring_from_json

# Modules are reached by their full names: ``from chaincodes import
# decompose`` yields the re-exported function, not the module.  Ops look
# functions up on these modules at call time, so a tracer that rebinds them
# sees every call.
cli_mod = importlib.import_module("chaincodes.cli")
codes_mod = importlib.import_module("chaincodes.codes")
decompose_mod = importlib.import_module("chaincodes.decompose")
distance_mod = importlib.import_module("chaincodes.distance")
duality_mod = importlib.import_module("chaincodes.duality")
oracle_mod = importlib.import_module("chaincodes.oracle")

REFERENCE = Path(__file__).resolve().parent / "reference.json"

RINGS = {
    "Z4": '{"kind":"galois","p":2,"t":2,"l":1}',
    "Z8": '{"kind":"galois","p":2,"t":3,"l":1}',
    "Z9": '{"kind":"galois","p":3,"t":2,"l":1}',
    "GR(4,2)": '{"kind":"galois","p":2,"t":2,"l":2}',
    "F3[u]/u^2": '{"kind":"truncated","p":3,"t":2,"l":1}',
    "GF(4)": '{"kind":"galois","p":2,"t":1,"l":2}',
}

# Factorizer seeds are drawn from range(FACTOR_SEEDS); the reference digests
# cover each of them, because the CLI promises byte-identical output only
# for a fixed seed.
FACTOR_SEEDS = 8


class OpFailed(Exception):
    """An op returned a nonzero exit code or failed its output check."""


class Op:
    """One request: ``run()`` returns its output text, ``check(out)`` is True
    when the output is right (and may raise when it is not)."""

    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


def ambient_key(ring, moduli):
    return f"{ring}:{','.join(moduli)}"


def build_ambient(ring, moduli):
    r = ring_from_json(RINGS[ring])
    return Ambient(r, [parse_univariate(s, r, var=i) for i, s in enumerate(moduli)])


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_is(expected, out):
    return digest(out) == expected


def load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def dump(obj):
    """The JSON dump the CLI writes, looked up at call time."""
    return cli_mod._dump(obj)


# -- structure: cold CLI requests --------------------------------------------

# (ring, moduli, copies per round).  Every request rebuilds its ambient, so
# the per-ambient decomposition cache never hits.  The copies make a 30-op
# round, so a run holds at least 100 ops, and they place p50 in the middle
# of the Z8 requests (12 cheaper ops below, 12 dearer above) and p90 in the
# middle of the GR(4,2) requests, not on the edge between two groups of
# requests of different cost.
STRUCTURE_POOL = (
    ("Z4", ("x^15-1",), 2),
    ("Z4", ("x^31-1",), 1),
    ("Z4", ("x^45-1",), 1),
    ("GR(4,2)", ("x^15-1",), 1),
    ("Z8", ("x^15-1",), 3),
    ("F3[u]/u^2", ("x^13-1",), 2),
    ("GF(4)", ("x^21-1",), 1),
    ("Z9", ("x^4-1", "y^4-1"), 1),
    ("Z4", ("x^3-1", "y^3-1", "z^3-1"), 1),
    ("Z4", ("x^3+x+1", "y^2+y+1"), 2),
)
STRUCTURE_COMMANDS = (("factor",), ("classes", "--full"))


def structure_argv(ring, moduli, command, factor_seed):
    return [
        *command,
        "--ring",
        RINGS[ring],
        "--moduli",
        *moduli,
        "--seed",
        str(factor_seed),
    ]


def structure_key(ring, moduli, command, factor_seed):
    return f"{ambient_key(ring, moduli)}|{' '.join(command)}|{factor_seed}"


def run_cli(argv):
    """``chaincodes.cli.main(argv)`` with stdout captured; nonzero exit fails."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_mod.main(argv)
    if code != 0:
        raise OpFailed(f"exit code {code}: {buf.getvalue()[:200]}")
    return buf.getvalue()


def structure_setup(seed):
    return load_reference()["structure"]


def structure_round(refs, rng):
    ops = []
    for ring, moduli, copies in STRUCTURE_POOL:
        for command in STRUCTURE_COMMANDS:
            for _ in range(copies):
                fs = rng.randrange(FACTOR_SEEDS)
                key = structure_key(ring, moduli, command, fs)
                argv = structure_argv(ring, moduli, command, fs)
                ops.append(Op(key, partial(run_cli, argv), partial(digest_is, refs[key])))
    rng.shuffle(ops)
    return ops


# -- census: every enumerate record of two warm ambients ---------------------

CENSUS_AMBIENTS = (("Z4", ("x^15-1",)), ("Z9", ("x^8-1",)))


def census_record(code):
    """One line of ``chaincodes enumerate``: the calls ``_cmd_enumerate`` makes."""
    rec = code.to_json()
    if code.is_zero():
        rec["distance"] = None
    else:
        try:
            rec["distance"] = distance_mod.min_distance(code, budget=distance_mod.DEFAULT_BUDGET)
        except BudgetExceeded:
            rec["distance"] = None
            rec["distance_budget_exceeded"] = True
    return dump(rec)


def census_setup(seed):
    fs = seed % FACTOR_SEEDS
    refs = load_reference()["census"]
    entries = []
    for ring, moduli in CENSUS_AMBIENTS:
        amb = build_ambient(ring, moduli)
        decompose_mod.decompose(amb, seed=fs)
        decompose_mod.decompose(amb.residue_ambient, seed=fs)
        key = ambient_key(ring, moduli)
        for idx, code in enumerate(codes_mod.enumerate_codes(amb, seed=fs)):
            entries.append((f"{key}|{idx}", code))
    return entries, refs


def census_round(state, rng):
    entries, refs = state
    ops = [
        Op(label, partial(census_record, code), partial(digest_is, refs[label]))
        for label, code in entries
    ]
    rng.shuffle(ops)
    return ops


def census_oracle_failures(state, rng, per_ambient):
    """Labels of seeded sample records whose distance differs from the
    oracle's brute-force distance; only spans within NAIVE_LIMIT qualify."""
    entries, _ = state
    wrong = []
    for ring, moduli in CENSUS_AMBIENTS:
        key = ambient_key(ring, moduli) + "|"
        fits = [
            (label, code)
            for label, code in entries
            if label.startswith(key)
            and not code.is_zero()
            and code.cardinality() <= oracle_mod.NAIVE_LIMIT
        ]
        for label, code in rng.sample(fits, per_ambient):
            expected = oracle_mod.distance_bruteforce(oracle_mod.span_of_code(code))
            if json.loads(census_record(code))["distance"] != expected:
                wrong.append(label)
    return wrong


# -- queries: a library session on warm ambients -----------------------------

QUERY_AMBIENTS = (
    ("Z4", ("x^45-1",)),
    ("Z9", ("x^4-1", "y^4-1")),
    ("GR(4,2)", ("x^15-1",)),
    ("F3[u]/u^2", ("x^13-1",)),
)

# request kind -> copies per round, for every ambient.  The two kinds that
# normalize generators are heavy and the other two are cheap; the cheap
# ones run twice so that p50 lies inside the cheap group and p90 inside the
# heavy one.
QUERY_MIX = (("info-gens", 1), ("dual", 1), ("self-dual", 2), ("info-exponents", 2))


def query_setup(seed):
    fs = seed % FACTOR_SEEDS
    out = []
    for ring, moduli in QUERY_AMBIENTS:
        amb = build_ambient(ring, moduli)
        dec = decompose_mod.decompose(amb, seed=fs)
        duality_mod.inverse_class_map(dec)
        out.append((ambient_key(ring, moduli), amb, dec, fs))
    return out


def _random_exps(dec, rng):
    t = dec.ambient.ring.t
    return tuple(rng.randint(0, t) for _ in range(dec.class_count))


def _random_selfdual_exps(dec, rng):
    """A self-dual map: j(C^-1) = t - j(C); self-inverse classes get t/2."""
    t = dec.ambient.ring.t
    inv = duality_mod.inverse_class_map(dec)
    exps = [None] * dec.class_count
    for idx in range(dec.class_count):
        if exps[idx] is not None:
            continue
        if inv[idx] == idx:
            exps[idx] = t // 2
        else:
            exps[idx] = rng.randint(0, t)
            exps[inv[idx]] = t - exps[idx]
    return tuple(exps)


def _out_exps(out):
    return tuple(j for _, j in json.loads(out)["exponents"])


def _cardinality(dec, exps):
    """q^(sum (t - j_C)|C|), from the class sizes alone."""
    ring = dec.ambient.ring
    return ring.q ** sum((ring.t - j) * cd.cls.size for cd, j in zip(dec.data, exps))


def _op_info_gens(amb, exps, mono, fs):
    code = codes_mod.code_from_exponents(amb, exps, seed=fs)
    gen = code.generators().G * amb.monomial(mono)
    return dump(codes_mod.code_from_generators(amb, [gen], seed=fs).to_json())


def _check_info_gens(exps, out):
    return _out_exps(out) == exps


def _op_dual(amb, exps, fs):
    code = codes_mod.code_from_exponents(amb, exps, seed=fs)
    return dump(duality_mod.dual(code).to_json())


def _check_dual(amb, dec, exps, fs, out):
    code = codes_mod.code_from_exponents(amb, exps, seed=fs)
    perp = codes_mod.code_from_exponents(amb, _out_exps(out), seed=fs)
    size = int(json.loads(out)["cardinality"])
    return (
        duality_mod.dual(perp, check_generator_form=False) == code
        and size == _cardinality(dec, perp.exps)
        and size * code.cardinality() == amb.ring.size**amb.n
    )


def _op_selfdual(amb, exps, fs):
    code = codes_mod.code_from_exponents(amb, exps, seed=fs)
    return dump({"selfdual": duality_mod.is_selfdual(code)})


def _check_selfdual(amb, exps, fs, out):
    code = codes_mod.code_from_exponents(amb, exps, seed=fs)
    expected = duality_mod.dual(code, check_generator_form=False) == code
    return json.loads(out) == {"selfdual": expected}


def _op_info_exps(amb, exps, fs):
    return dump(codes_mod.code_from_exponents(amb, exps, seed=fs).to_json())


def _check_info_exps(dec, exps, out):
    return _out_exps(out) == exps and int(json.loads(out)["cardinality"]) == _cardinality(
        dec, exps
    )


def query_round(state, rng):
    ops = []
    for key, amb, dec, fs in state:
        for kind, copies in QUERY_MIX:
            for _ in range(copies):
                label = f"{key}|{kind}"
                if kind == "info-gens":
                    exps = _random_exps(dec, rng)
                    mono = tuple(rng.randrange(d) for d in amb.degs)
                    op = Op(
                        label,
                        partial(_op_info_gens, amb, exps, mono, fs),
                        partial(_check_info_gens, exps),
                    )
                elif kind == "dual":
                    exps = _random_exps(dec, rng)
                    op = Op(
                        label,
                        partial(_op_dual, amb, exps, fs),
                        partial(_check_dual, amb, dec, exps, fs),
                    )
                elif kind == "self-dual":
                    if rng.random() < 0.5:
                        exps = _random_selfdual_exps(dec, rng)
                    else:
                        exps = _random_exps(dec, rng)
                    op = Op(
                        label,
                        partial(_op_selfdual, amb, exps, fs),
                        partial(_check_selfdual, amb, exps, fs),
                    )
                else:
                    exps = _random_exps(dec, rng)
                    op = Op(
                        label,
                        partial(_op_info_exps, amb, exps, fs),
                        partial(_check_info_exps, dec, exps),
                    )
                ops.append(op)
    rng.shuffle(ops)
    return ops


Workload = namedtuple("Workload", "setup round")

WORKLOADS = {
    "structure": Workload(structure_setup, structure_round),
    "census": Workload(census_setup, census_round),
    "queries": Workload(query_setup, query_round),
}
