"""CLI behaviour: JSON schemas, determinism, exit codes."""

import json
import sys

import pytest

from chaincodes.cli import main
from chaincodes.decompose import Decomposition

Z4 = '{"kind":"galois","p":2,"t":2,"l":1}'
Z9 = '{"kind":"galois","p":3,"t":2,"l":1}'

# JSON nested deeper than the parser's recursion allows, and an integer one
# digit past Python's int-from-text limit (0 means no limit)
DEEP = "[" * 10_000 + "]" * 10_000
INT_LIMIT = sys.get_int_max_str_digits()
BIG = "1" * (INT_LIMIT + 1)
needs_int_limit = pytest.mark.skipif(INT_LIMIT == 0, reason="int-from-text is unlimited")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_classes(capsys):
    code, out = run(capsys, "classes", "--ring", Z4, "--moduli", "x^7-1")
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 3
    assert [c["size"] for c in obj["classes"]] == [1, 3, 3]


def test_classes_full(capsys):
    code, out = run(capsys, "classes", "--ring", Z4, "--moduli", "x^7-1", "--full")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["class_data"]) == 3
    assert obj["class_data"][0]["h"] == "x^6+x^5+x^4+x^3+x^2+x+1"


def test_factor(capsys):
    code, out = run(capsys, "factor", "--ring", Z4, "--moduli", "x^7-1")
    assert code == 0
    obj = json.loads(out)
    assert obj["factorizations"][0]["lifted_factors"] == [
        "x+3",
        "x^3+2*x^2+x+3",
        "x^3+3*x^2+2*x+3",
    ]


def test_enumerate_streams_records(capsys):
    code, out = run(capsys, "enumerate", "--ring", Z9, "--moduli", "x^2-1", "y^2-1")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 81
    records = [json.loads(line) for line in lines]
    assert records[0]["cardinality"] == str(9**4)
    assert records[-1]["cardinality"] == "1"
    assert records[-1]["distance"] is None
    assert all("exponents" in r for r in records)


def test_info_and_dual(capsys):
    code, out = run(
        capsys,
        "info",
        "--ring",
        Z4,
        "--moduli",
        "x^7-1",
        "--exponents",
        "[1, 0, 2]",
    )
    assert code == 0
    assert json.loads(out)["cardinality"] == "128"
    code, out = run(
        capsys,
        "dual",
        "--ring",
        Z4,
        "--moduli",
        "x^7-1",
        "--exponents",
        "[1, 0, 2]",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["exponents"] == [[[0], 1], [[1], 0], [[3], 2]]


def test_info_pair_form_exponents(capsys):
    code, out = run(
        capsys,
        "info",
        "--ring",
        Z4,
        "--moduli",
        "x^7-1",
        "--exponents",
        "[[[0], 1], [[1], 0], [[3], 2]]",
    )
    assert code == 0
    assert json.loads(out)["cardinality"] == "128"


def test_enumerate_budget_marks_records(capsys):
    code, out = run(
        capsys,
        "enumerate",
        "--ring",
        Z4,
        "--moduli",
        "x^7-1",
        "--budget",
        "8",
    )
    assert code == 0
    records = [json.loads(line) for line in out.strip().split("\n")]
    assert len(records) == 27
    flagged = [r for r in records if r.get("distance_budget_exceeded")]
    assert flagged and all(r["distance"] is None for r in flagged)
    small = [r for r in records if r["distance"] is not None]
    assert small  # low-dimension codes still get exact distances


def test_info_from_generators(capsys):
    code, out = run(
        capsys,
        "info",
        "--ring",
        Z4,
        "--moduli",
        "x^7-1",
        "--gens",
        "x^3+2*x^2+x+3",
    )
    assert code == 0
    assert json.loads(out)["cardinality"] == "256"


def test_self_dual_subcommands(capsys):
    code, out = run(capsys, "self-dual", "--ring", Z4, "--moduli", "x^7-1", "--exists")
    assert code == 0 and json.loads(out)["exists"] is True
    code, out = run(capsys, "self-dual", "--ring", Z4, "--moduli", "x^7-1", "--construct")
    assert code == 0
    obj = json.loads(out)
    assert obj["cardinality"] == "128" and obj["selfdual"] is True
    code, out = run(
        capsys,
        "self-dual",
        "--ring",
        Z4,
        "--moduli",
        "x^7-1",
        "--check",
        "--exponents",
        "[1, 1, 1]",
    )
    assert code == 0 and json.loads(out)["selfdual"] is True
    code, out = run(
        capsys, "self-dual", "--ring", Z4, "--moduli", "x^3-1", "y^3-1", "--construct"
    )
    assert code == 1
    assert json.loads(out)["code"] == "domain_error"


def test_distance_command(capsys):
    code, out = run(
        capsys,
        "distance",
        "--ring",
        Z4,
        "--moduli",
        "x^7-1",
        "--gens",
        "x^3+2*x^2+x+3",
        "--exact",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["distance"] == 3 and obj["residue_distance"] == 3
    assert obj["hensel_lift"] is True
    code, out = run(
        capsys,
        "distance",
        "--ring",
        Z4,
        "--moduli",
        "x^7-1",
        "--gens",
        "x^3+2*x^2+x+3",
        "--bound",
    )
    assert code == 0 and json.loads(out)["bound"] == 3


def test_budget_exit_code(capsys):
    code, out = run(
        capsys,
        "distance",
        "--ring",
        Z4,
        "--moduli",
        "x^7-1",
        "--exponents",
        "[0, 0, 0]",
        "--budget",
        "2",
    )
    assert code == 2
    assert json.loads(out)["code"] == "budget_exceeded"


def test_budget_below_one_is_a_usage_error(capsys):
    # rejected while parsing, before any record is computed
    for budget in ("0", "-1"):
        code, out = run(capsys, "enumerate", "--ring", Z4, "--moduli", "x^7-1", "--budget", budget)
        assert code == 2 and out == ""


def test_splitting_field_built_only_when_read(capsys, monkeypatch):
    from chaincodes import factor

    class Built(Exception):
        pass

    def refuse(*args):
        raise Built

    monkeypatch.setattr(factor, "_splitting_field", refuse)
    for argv in (
        ("factor", "--ring", Z4, "--moduli", "x^7-1"),
        ("classes", "--ring", Z4, "--moduli", "x^7-1"),
        ("factor", "--ring", '{"kind":"galois","p":2,"t":1}', "--moduli", "x^83-1"),
        ("classes", "--ring", '{"kind":"galois","p":2,"t":1}', "--moduli", "x^83-1"),
    ):
        code, out = run(capsys, *argv)
        assert code == 0 and json.loads(out)
    # class data and non-abelian root labels still read it
    for argv in (
        ("classes", "--ring", Z4, "--moduli", "x^7-1", "--full"),
        ("classes", "--ring", Z4, "--moduli", "x^3+x+1", "y^2+y+1"),
    ):
        with pytest.raises(Built):
            main(list(argv))


def test_domain_error_exit_code(capsys):
    code, out = run(capsys, "classes", "--ring", Z4, "--moduli", "x^2-1")
    assert code == 1
    assert json.loads(out)["code"] == "domain_error"


@pytest.mark.parametrize(
    "argv",
    [
        ("factor", "--ring", '{"kind":"galois"}', "--moduli", "x^7-1"),
        ("factor", "--ring", Z4, "--moduli", "2x^7-1"),
        ("info", "--ring", Z4, "--moduli", "x^7-1", "--gens", "x^q"),
        ("info", "--ring", Z4, "--moduli", "x^7-1", "--exponents", "[[1,2]]"),
        # a modulus only applies to an extension (l > 1)
        ("classes", "--ring", '{"kind":"galois","p":2,"t":2,"l":1,"modulus":[5,7]}',
         "--moduli", "x^7-1"),
        ("classes", "--ring", '{"kind":"truncated","p":2,"t":2,"l":1,"modulus":[5,7]}',
         "--moduli", "x^7-1"),
        # p, t, l and the modulus coefficients must be plain ints
        ("factor", "--ring", '{"kind":"galois","p":2.5,"t":2}', "--moduli", "x^7-1"),
        ("factor", "--ring", '{"kind":"galois","p":2,"t":true}', "--moduli", "x^7-1"),
        ("factor", "--ring", '{"kind":"galois","p":2,"t":"2"}', "--moduli", "x^7-1"),
        ("factor", "--ring", '{"kind":"galois","p":2,"t":2,"l":1.0}', "--moduli", "x^7-1"),
        # so must exponents and representative labels: true is not the label 1
        ("info", "--ring", Z4, "--moduli", "x^7-1", "--exponents", "[true,false,true]"),
        ("info", "--ring", Z4, "--moduli", "x^7-1", "--exponents", "[1.0,0,2]"),
        ("info", "--ring", Z4, "--moduli", "x^7-1", "--exponents",
         "[[[0],1],[[true],0],[[3],2]]"),
        ("info", "--ring", Z4, "--moduli", "x^7-1", "--exponents",
         "[[[0],1],[[1],false],[[3],2]]"),
        # a repeated representative, whichever entry would come last
        ("info", "--ring", Z4, "--moduli", "x^3-1", "--exponents", "[[[0],1],[[1],2],[[1],0]]"),
        # an unknown key is refused, not ignored: a misspelt modulus is not the default
        ("classes", "--ring", '{"kind":"galois","p":2,"t":2,"l":2,"modulos":[1,1,1]}',
         "--moduli", "x^3-1"),
        # two variables: only x1, x2 and the aliases x, y name them
        ("info", "--ring", Z4, "--moduli", "x^3-1", "y^3-1", "--gens", "q^2+q+1"),
        ("info", "--ring", Z4, "--moduli", "x^3-1", "y^3-1", "--gens", "t2+1"),
        ("factor", "--ring", Z4, "--moduli", "x\u00b2-1"),
        pytest.param(("info", "--ring", Z4, "--moduli", "x^7-1", "--gens", f"{BIG}*x+1"),
                     marks=needs_int_limit),
        # a descriptor is a JSON object, and its p a prime
        ("factor", "--ring", "[1,2]", "--moduli", "x^7-1"),
        ("factor", "--ring", '{"kind":"galois","p":4,"t":2}', "--moduli", "x^7-1"),
    ],
)
def test_malformed_input_is_a_domain_error(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 1
    assert json.loads(out)["code"] == "domain_error"


@pytest.mark.parametrize(
    "p,code",
    [(2**61 - 1, "budget_exceeded"), (2**62, "domain_error"), (10**9 + 7, None)],
    ids=["prime-2^61-1", "even-2^62", "prime-10^9+7"],
)
def test_primality_of_p_stops_at_its_trial_division_budget(capsys, p, code):
    """Trial division up to 2^20 proves every p <= 2^40 prime or not; a
    larger p with no factor that small is refused, not left running."""
    ring = f'{{"kind":"galois","p":{p},"t":1}}'
    rc, out = run(capsys, "factor", "--ring", ring, "--moduli", "x-1")
    assert rc == {None: 0, "domain_error": 1, "budget_exceeded": 2}[code]
    assert json.loads(out).get("code") == code


@needs_int_limit
@pytest.mark.parametrize(
    "moduli,what",
    [(f"x^7-{BIG}", "coefficient"), (f"x^{BIG}-1", "exponent")],
    ids=["coefficient", "exponent"],
)
def test_integer_text_past_the_digit_limit_is_named(capsys, moduli, what):
    code, out = run(capsys, "factor", "--ring", Z4, "--moduli", moduli)
    assert code == 1
    assert json.loads(out)["message"] == f"bad {what}: {INT_LIMIT + 1} digits"


@pytest.mark.parametrize(
    "argv,message",
    [
        (("factor", "--ring", '{"kind":"galois",', "--moduli", "x^7-1"), None),
        (("factor", "--ring", DEEP, "--moduli", "x^7-1"), None),
        (("info", "--ring", Z4, "--moduli", "x^7-1", "--exponents", DEEP), None),
        pytest.param(("factor", "--ring", f'{{"kind":"galois","p":{BIG},"t":2,"l":1}}',
                      "--moduli", "x^7-1"), f"an integer has more than {INT_LIMIT} digits",
                     marks=needs_int_limit),
        pytest.param(("info", "--ring", Z4, "--moduli", "x^7-1", "--exponents", f"[{BIG},0,2]"),
                     f"an integer has more than {INT_LIMIT} digits", marks=needs_int_limit),
    ],
    ids=["truncated", "deep-ring", "deep-exponents", "long-int-ring", "long-int-exponents"],
)
def test_unparseable_json_is_bad_json(capsys, argv, message):
    code, out = run(capsys, *argv)
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["code"] == "bad_json"
    if message is not None:
        # our own words: the advice in Python's text is no CLI option
        assert json.loads(lines[0])["message"] == message


@pytest.mark.parametrize(
    "moduli,message",
    [
        (["x^99999999999999999999-1"], "modulus degree 99999999999999999999 exceeds the bound"),
        (["x^65537-1"], "modulus degree 65537 exceeds the bound"),
        (["x^300-1", "y^300-1"], "ambient length 90000 exceeds the bound"),
    ],
    ids=["overflowing-degree", "degree-65537", "length-90000"],
)
def test_ambient_length_past_the_bound_is_a_budget_error(capsys, moduli, message):
    ring = '{"kind":"galois","p":2,"t":2,"l":1}'
    code, out = run(capsys, "factor", "--ring", ring, "--moduli", *moduli)
    assert code == 2
    obj = json.loads(out)
    assert obj["code"] == "budget_exceeded"
    assert obj["message"].startswith(message)


@pytest.mark.parametrize("l", [1, 2])
@pytest.mark.parametrize("modulus", ["[]", "0", "false", "{}", "null"])
def test_a_present_modulus_is_validated(capsys, modulus, l):
    """A falsy "modulus" is not the default modulus."""
    ring = f'{{"kind":"galois","p":2,"t":2,"l":{l},"modulus":{modulus}}}'
    code, out = run(capsys, "factor", "--ring", ring, "--moduli", "x^7-1")
    assert code == 1
    assert json.loads(out)["code"] == "domain_error"


def test_enumerate_writes_records_before_an_error(capsys, monkeypatch):
    from chaincodes import distance
    from chaincodes.errors import DomainError

    real = distance.min_distance
    calls = []

    def failing_third_call(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise DomainError("third distance fails")
        return real(*args, **kwargs)

    monkeypatch.setattr(distance, "min_distance", failing_third_call)
    code, out = run(capsys, "enumerate", "--ring", Z4, "--moduli", "x^7-1")
    assert code == 1
    lines = [json.loads(line) for line in out.strip().split("\n")]
    assert len(lines) == 3
    assert all("exponents" in rec for rec in lines[:2])
    assert lines[2] == {"code": "domain_error", "message": "third distance fails"}


def test_broken_invariant_is_an_internal_error(capsys, monkeypatch):
    # with the idempotent lift skipped, e_C * e_C != e_C over Z4
    monkeypatch.setattr(sys.modules["chaincodes.decompose"], "lift_idempotent", lambda e: e)
    code, out = run(capsys, "classes", "--ring", Z4, "--moduli", "x^7-1", "--full")
    assert code == 1
    assert json.loads(out)["code"] == "internal_error"


def test_deterministic_output(capsys):
    _, first = run(capsys, "classes", "--ring", Z4, "--moduli", "x^7-1", "--full")
    _, second = run(capsys, "classes", "--ring", Z4, "--moduli", "x^7-1", "--full")
    assert first == second


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out = run(
        capsys,
        "classes",
        "--ring",
        Z4,
        "--moduli",
        "x^7-1",
        "--output",
        str(target),
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["count"] == 3


def test_unopenable_output_is_a_usage_error(tmp_path, capsys):
    for target in (tmp_path / "missing" / "x.json", tmp_path):
        code, out = run(
            capsys, "classes", "--ring", Z4, "--moduli", "x^7-1", "--output", str(target)
        )
        assert code == 2
        assert json.loads(out)["code"] == "usage_error"


def test_kerdock_command(capsys):
    code, out = run(capsys, "kerdock-demo", "--q", "2", "--m", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["length"] == 14 and obj["cardinality"] == 256
    code, out = run(capsys, "kerdock-demo", "--q", "2", "--m", "7")
    assert code == 1  # only m in {3, 5} is wired up


def test_oracle_check(capsys):
    code, out = run(capsys, "oracle-check", "--suite", "all")
    assert code == 0
    obj = json.loads(out)
    assert obj["all_pass"] is True
    names = {c["check"] for c in obj["checks"]}
    assert {
        "idempotent-sum",
        "annihilator-identity",
        "ideal-census",
        "dual-formula",
        "distance-vs-oracle",
        "selfdual-criterion",
    } <= names


def test_unbounded_split_retry_is_an_internal_error(capsys, monkeypatch):
    # every gcd taken while splitting equal-degree factors is one, as with
    # broken arithmetic: the retry budget runs out instead of looping
    from chaincodes import factor
    from chaincodes.polys import Poly

    real = factor.poly_gcd

    def no_split(f, g):
        if sys._getframe(1).f_code is factor._equal_degree.__code__:
            return Poly.one(f.ring, var=f.var)
        return real(f, g)

    monkeypatch.setattr(factor, "poly_gcd", no_split)
    code, out = run(capsys, "factor", "--ring", Z4, "--moduli", "x^7-1")
    assert code == 1
    assert json.loads(out) == {
        "code": "internal_error",
        "message": f"no split of a degree-6 product in {factor.SPLIT_DRAWS} draws",
    }


@needs_int_limit
def test_ring_past_the_print_limit_is_a_budget_error(capsys):
    """A coordinate of Z_(2^t) is an int below 2^t.  The largest t with
    2^t <= 10^limit still prints; one more is refused up front, not a
    `ValueError` from printing a coefficient."""
    t = (10**INT_LIMIT).bit_length() - 1
    for p, big_t in ((2, t + 1), (2, 15000), (3, 10**18)):
        ring = json.dumps({"kind": "galois", "p": p, "t": big_t})
        code, out = run(capsys, "factor", "--ring", ring, "--moduli", "x-1")
        assert code == 2
        [line] = out.splitlines()
        assert json.loads(line)["code"] == "budget_exceeded"
    code, out = run(capsys, "factor", "--ring", json.dumps({"kind": "galois", "p": 2, "t": t}), "--moduli", "x-1")
    assert code == 0
    assert len(json.loads(out)["factorizations"][0]["lifted_factors"][0]) == len("x+") + INT_LIMIT


@needs_int_limit
def test_component_size_past_the_print_limit_is_refused_before_class_data(capsys, monkeypatch):
    """Over Z_(2^5000), x^7-1 has classes of size 3, whose components have
    2^15000 elements; the count is refused without building class data."""
    def unbuilt(self):
        raise AssertionError("class data was built")

    monkeypatch.setattr(Decomposition, "data", property(unbuilt))
    ring = json.dumps({"kind": "galois", "p": 2, "t": 5000})
    code, out = run(capsys, "classes", "--full", "--ring", ring, "--moduli", "x^7-1")
    assert code == 2
    [line] = out.splitlines()
    assert json.loads(line)["code"] == "budget_exceeded"


@pytest.mark.parametrize("moduli", [["x^7-1"], ["x^3-1", "y^5-1"]])
def test_component_size_is_the_ring_size_to_the_class_size(capsys, moduli):
    code, out = run(capsys, "classes", "--full", "--ring", Z4, "--moduli", *moduli)
    assert code == 0
    for cd in json.loads(out)["class_data"]:
        assert cd["component_size"] == 4 ** cd["class"]["size"]


@pytest.mark.parametrize("field", [{"p": 2}, {"p": 3, "l": 2}])
@pytest.mark.parametrize("moduli", [["x^7-1"], ["x^3+x+1"], ["x^5-1", "y^4-1"]])
@pytest.mark.parametrize("command", [["factor"], ["classes", "--full"]])
def test_truncated_ring_at_t1_is_its_field(capsys, field, moduli, command):
    """F_q[u]/(u) is F_q: factor and classes print what they print over the
    Galois field, apart from the echoed ring."""
    outs = []
    for kind in ("truncated", "galois"):
        ring = json.dumps({"kind": kind, "t": 1, **field})
        code, out = run(capsys, *command, "--ring", ring, "--moduli", *moduli)
        obj = json.loads(out)
        obj.pop("ring", None)
        outs.append((code, obj))
    assert outs[0] == outs[1]


@needs_int_limit
def test_count_past_the_print_limit_is_a_budget_error(capsys):
    """GR(2^t, 10) over x-1 has full code and component ring of 2^(10t)
    elements.  The largest t with 2^(10t) < 10^limit prints both counts;
    one more gives one `budget_exceeded` line for every command that
    prints a count, not a `ValueError` from printing it.  The dual of the
    zero code is the full code."""
    t = ((10**INT_LIMIT).bit_length() - 1) // 10
    size = 2 ** (10 * t)
    ring = json.dumps({"kind": "galois", "p": 2, "t": t, "l": 10})
    for argv in (["info", "--exponents", "[0]"], ["dual", "--exponents", f"[{t}]"]):
        code, out = run(capsys, *argv, "--ring", ring, "--moduli", "x-1")
        assert code == 0 and json.loads(out)["cardinality"] == str(size)
    code, out = run(capsys, "classes", "--full", "--ring", ring, "--moduli", "x-1")
    assert code == 0 and json.loads(out)["class_data"][0]["component_size"] == size
    ring = json.dumps({"kind": "galois", "p": 2, "t": t + 1, "l": 10})
    for argv in (["info", "--exponents", "[0]"], ["classes", "--full"], ["enumerate"], ["dual", "--exponents", f"[{t + 1}]"]):
        code, out = run(capsys, *argv, "--ring", ring, "--moduli", "x-1")
        assert code == 2
        [line] = out.splitlines()
        assert json.loads(line)["code"] == "budget_exceeded"
