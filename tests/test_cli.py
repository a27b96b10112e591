"""End-to-end checks of the command line front end: every verb, the
exit-code contract, determinism, and agreement with direct library
calls."""

import decimal
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from affaut import greenberg as gb
from affaut import witt as wt
from affaut.autgroup import TruncPoly, compose, iterate, member, order, SubgroupSpec
from affaut.cli import VERBS, main
from affaut.inversion import invert
from affaut.rings import IntModRing

GOLDEN = pathlib.Path(__file__).parent / "golden"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh(*argv, timeout=30):
    """The command run as its own ``python -m affaut.cli`` process, which
    loads only the modules the verb imports; a hang ends at the timeout
    instead of stalling the suite."""
    return subprocess.run(
        [sys.executable, "-m", "affaut.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def write_poly(tmp_path, name, coeffs):
    path = tmp_path / name
    path.write_text(json.dumps({"coeffs": [str(c) for c in coeffs]}))
    return str(path)


def test_compose_matches_library_and_roundtrips(tmp_path, capsys):
    ring = IntModRing(27, q=3)
    fp = write_poly(tmp_path, "f.json", [1, 4, 3])
    gp = write_poly(tmp_path, "g.json", [2, 1, 0, 9])
    code, out, err = run(
        capsys, "compose", "--ring", "zmod:27:q=3", "--f", fp, "--g", gp
    )
    assert code == 0 and err == ""
    payload = json.loads(out)
    expected = compose(
        TruncPoly(ring, [1, 4, 3]), TruncPoly(ring, [2, 1, 0, 9])
    )
    assert TruncPoly.from_json(ring, payload) == expected
    # the emitted object is itself valid verb input
    back = tmp_path / "h.json"
    back.write_text(out)
    code2, out2, _ = run(
        capsys, "compose", "--ring", "zmod:27:q=3", "--f", str(back), "--g", gp
    )
    assert code2 == 0
    assert TruncPoly.from_json(ring, json.loads(out2)) == compose(
        expected, TruncPoly(ring, [2, 1, 0, 9])
    )


def test_invert_with_check(tmp_path, capsys):
    fp = write_poly(tmp_path, "f.json", [5, 3, 2, 4])
    code, out, _ = run(
        capsys, "invert", "--ring", "zmod:16:q=2", "--f", fp, "--check"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["oracle_agrees"] is True
    assert payload["depth"] >= 1
    ring = IntModRing(16, q=2)
    assert TruncPoly.from_json(ring, payload) == invert(
        TruncPoly(ring, [5, 3, 2, 4])
    )


def test_order_member_iterate(tmp_path, capsys):
    ring = IntModRing(8, q=2)
    f = TruncPoly(ring, [0, 1, 2])
    fp = write_poly(tmp_path, "f.json", [0, 1, 2])
    code, out, _ = run(capsys, "order", "--ring", "zmod:8:q=2", "--f", fp)
    assert code == 0
    assert json.loads(out)["order"] == order(f)
    code, out, _ = run(
        capsys, "member", "--ring", "zmod:8:q=2", "--f", fp,
        "--subgroup", "atilde:1",
    )
    assert code == 0
    assert json.loads(out)["member"] == member(f, SubgroupSpec.parse("atilde:1"))
    code, out, _ = run(
        capsys, "iterate", "--ring", "zmod:8:q=2", "--f", fp, "--times", "3"
    )
    assert code == 0
    assert TruncPoly.from_json(ring, json.loads(out)) == iterate(f, 3)


def test_series_needs_seed_and_reports(capsys):
    code, _, err = run(capsys, "series", "--ring", "zmod:16:q=2")
    assert code == 2 and "--seed" in err
    code, out, _ = run(capsys, "series", "--ring", "zmod:16:q=2", "--seed", "9")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_kernels_abelian"] is True
    assert [s["from_modulus"] for s in payload["steps"]] == ["16", "4"]
    code, out, _ = run(capsys, "series", "--ring", "zmod:12", "--seed", "9")
    assert code == 0
    assert json.loads(out)["steps"][0]["to_modulus"] == "6"


def test_witt_verbs_roundtrip(tmp_path, capsys):
    code, out, _ = run(
        capsys, "witt-iso", "--value", "7", "--p", "2", "--level", "2"
    )
    assert code == 0
    vec_file = tmp_path / "u.json"
    vec_file.write_text(out)
    u = wt.WittVec.from_json(json.loads(out))
    assert wt.witt_to_residue(u).value == 7
    code, out, _ = run(capsys, "witt-iso", "--u", str(vec_file))
    assert code == 0
    back = json.loads(out)
    assert back["residue"] == "7" and back["modulus"] == "8"

    code, out2, _ = run(
        capsys, "witt-iso", "--value", "5", "--p", "2", "--level", "2"
    )
    vec2 = tmp_path / "v.json"
    vec2.write_text(out2)
    code, out3, _ = run(capsys, "witt-add", "--u", str(vec_file), "--v", str(vec2))
    assert code == 0
    total = wt.WittVec.from_json(json.loads(out3))
    assert wt.witt_to_residue(total).value == (7 + 5) % 8
    code, out4, _ = run(capsys, "witt-mul", "--u", str(vec_file), "--v", str(vec2))
    prod = wt.WittVec.from_json(json.loads(out4))
    assert wt.witt_to_residue(prod).value == (7 * 5) % 8

    code, out5, _ = run(capsys, "ghost", "--u", str(vec_file))
    assert code == 0
    gh = json.loads(out5)["ghost"]
    assert gh == [
        u.ring.payload_to_json(c) for c in wt.ghost_components(u)
    ]


def test_witt_iso_usage_errors(capsys):
    code, _, err = run(capsys, "witt-iso", "--value", "3")
    assert code == 2 and "--p" in err
    code, _, err = run(capsys, "witt-iso")
    assert code == 2
    code, _, err = run(
        capsys, "witt-iso", "--value", "x", "--p", "2", "--level", "1"
    )
    assert code == 2


def test_witt_iso_at_a_large_level_is_fast():
    """Digit extraction keeps one running remainder, so 10^5 digits of 5
    over Z/2^100001 take one pass; run as a fresh process, so a hang ends
    at the timeout."""
    out = fresh("witt-iso", "--value", "5", "--p", "2", "--level", "100000", timeout=10)
    assert out.returncode == 0, out.stderr
    u = json.loads(out.stdout)
    assert u["components"][:4] == ["1", "0", "1", "0"]
    assert not any(c != "0" for c in u["components"][4:])


def test_witt_iso_prints_residues_past_the_int_digit_limit(tmp_path):
    """The residue of a level-20000 vector has a 6 021-digit modulus, past
    Python's default int-to-str limit of 4 300 digits."""
    big = tmp_path / "big.json"
    out = fresh("witt-iso", "--value", "5", "--p", "2", "--level", "20000", "--out", str(big))
    assert out.returncode == 0, out.stderr
    out = fresh("witt-iso", "--u", str(big))
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout)
    with decimal.localcontext() as ctx:  # str(int) would hit that limit here
        ctx.prec = 7000
        assert got["modulus"] == str(decimal.Decimal(2) ** 20001)
    assert got["residue"] == "5"


@pytest.mark.parametrize("p, level", [(3, 10000), (7, 3000)])
def test_witt_iso_lifts_large_levels_by_newton(tmp_path, p, level):
    """Each digit's Teichmueller lift comes from Newton's method on
    x^(p-1) = 1, not from a power whose exponent has level * log2(p) bits,
    so both directions end within 2 s in a fresh process and the round
    trip gives back the residue."""
    vec = tmp_path / "u.json"
    t0 = time.perf_counter()
    out = fresh("witt-iso", "--value", "5", "--p", str(p), "--level", str(level),
                "--out", str(vec), timeout=10)
    t1 = time.perf_counter()
    assert out.returncode == 0, out.stderr
    assert t1 - t0 < 2
    out = fresh("witt-iso", "--u", str(vec), timeout=10)
    assert time.perf_counter() - t1 < 2
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["residue"] == "5"


def test_witt_add_and_mul_refuse_large_lifts_at_once(tmp_path):
    """Over Z/p^k with k > 1, witt-add and witt-mul lift to integers of
    about p^level * bits(m - 1) bits, and the ceiling counts them k times:
    Z/8 at level 18 exits 1 with TooLarge at once, where unweighted it
    passed and took seconds."""
    vec = tmp_path / "u.json"
    ring = {"kind": "zmod", "m": "8", "n": 3, "p": "2"}
    vec.write_text(json.dumps({"p": 2, "ring": ring, "components": ["7"] * 19}))
    for verb in ("witt-add", "witt-mul"):
        t0 = time.perf_counter()
        out = fresh(verb, "--u", str(vec), "--v", str(vec), timeout=10)
        assert time.perf_counter() - t0 < 2
        assert out.returncode == 1, (verb, out.stderr)
        assert out.stderr.startswith("TooLarge:") and "witt-iso" not in out.stderr


def test_witt_add_and_mul_over_fp_answer_at_large_levels(tmp_path):
    """Over F_p, witt-add and witt-mul go through the residues mod
    p^(level+1): levels whose integer lifts would hold millions of bits
    answer in a fresh process within 2 s, with the vector of the residue
    sum or product."""
    for p, level in ((3, 14), (5, 10), (2, 24), (3, 10000)):
        vec = tmp_path / f"u{p}.json"
        made = fresh("witt-iso", "--value", str(p - 1), "--p", str(p), "--level", str(level), "--out", str(vec))
        assert made.returncode == 0, made.stderr
        m = p ** (level + 1)
        for verb, want in (("witt-add", 2 * (p - 1) % m), ("witt-mul", (p - 1) ** 2 % m)):
            t0 = time.perf_counter()
            out = fresh(verb, "--u", str(vec), "--v", str(vec), timeout=10)
            assert time.perf_counter() - t0 < 2, (verb, p, level)
            assert out.returncode == 0, (verb, p, level, out.stderr)
            back = tmp_path / "w.json"
            back.write_text(out.stdout)
            res = fresh("witt-iso", "--u", str(back))
            assert res.returncode == 0, res.stderr
            assert json.loads(res.stdout)["residue"] == str(want), (verb, p, level)


def test_witt_derive_deterministic(capsys):
    code, out1, _ = run(capsys, "witt-derive", "--p", "3", "--level", "1")
    code2, out2, _ = run(capsys, "witt-derive", "--p", "3", "--level", "1")
    assert code == code2 == 0
    assert out1 == out2
    law = wt.derive_witt_laws(3, 1)
    assert json.loads(out1) == law.to_json()


def test_greenberg_cli(tmp_path, capsys):
    poly = tmp_path / "poly.json"
    poly.write_text(
        json.dumps(
            {
                "variables": ["x", "y"],
                "terms": [
                    {"coeff": "1", "exponents": {"x": 2}},
                    {"coeff": "1", "exponents": {"y": 1}},
                ],
            }
        )
    )
    code, out, _ = run(
        capsys, "greenberg", "--p", "2", "--level", "1", "--poly", str(poly)
    )
    assert code == 0
    from affaut.rings import RingElem, SymbolicRing

    src = SymbolicRing(("x", "y"))
    f = RingElem(
        src,
        src.add(
            src.mul(src.gen("x"), src.gen("x")), src.gen("y")
        ),
    )
    assert json.loads(out) == gb.greenberg_transform(f, 2, 1).to_json()


def test_greenberg_law_exhaustive(capsys):
    code, out, _ = run(
        capsys, "greenberg-law", "--p", "2", "--d", "2",
        "--verify", "exhaustive",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["axioms"]["identity"] is True
    assert payload["axioms"]["associativity"] is True
    assert payload["law"] == gb.group_law_shape(2, 2).to_json()
    code, out, _ = run(
        capsys, "greenberg-law", "--p", "2", "--d", "1", "--format", "text"
    )
    assert code == 0 and "a1_0'' = a1_0*a1_0'" in out


def test_greenberg_law_sampled_needs_seed(capsys):
    code, _, err = run(
        capsys, "greenberg-law", "--p", "3", "--d", "1", "--verify", "sampled"
    )
    assert code == 2 and "--seed" in err
    code, out1, _ = run(
        capsys, "greenberg-law", "--p", "3", "--d", "1",
        "--verify", "sampled", "--seed", "4", "--samples", "60",
    )
    assert code == 0
    code, out2, _ = run(
        capsys, "greenberg-law", "--p", "3", "--d", "1",
        "--verify", "sampled", "--seed", "4", "--samples", "60",
    )
    assert out1 == out2


def test_greenberg_law_at_large_shapes_finishes():
    """Laws are composed once over the functions on Teichmüller points, so
    the (3, 4) and (2, 5) shape laws build in well under a second; run as
    fresh processes, so a hang ends at the timeout."""
    for p, d in (("3", "4"), ("2", "5")):
        out = fresh("greenberg-law", "--p", p, "--d", d, timeout=10)
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["law"]["descriptor"]["d"] == int(d)


# Malformed inputs, each a usage error that names its source: a file, a
# flag read by a handler or "argument <flag>" for one argparse reads.  Each
# row holds the arguments, the files they name ({path} is the directory
# they are written to; f.json always holds the map T) and the stderr line
# it must print.
F = "{path}/f.json"
MALFORMED = {
    # a negative exponent once spun binary powering forever
    "negative-exponent": (
        ["greenberg", "--p", "2", "--level", "1", "--poly", "{path}/p.json"],
        {"p.json": {"variables": ["x"], "terms": [{"coeff": "1", "exponents": {"x": -3}}]}},
        "usage error: {path}/p.json: negative exponent -3 of x",
    ),
    "greenberg-term-not-an-object": (
        ["greenberg", "--p", "2", "--level", "2", "--poly", "{path}/p.json"],
        {"p.json": {"variables": ["x"], "terms": [[[3], 1]]}},
        "usage error: {path}/p.json: term must be an object, got list",
    ),
    "greenberg-terms-a-string": (
        ["greenberg", "--p", "2", "--level", "2", "--poly", "{path}/p.json"],
        {"p.json": {"variables": ["x"], "terms": "xx"}},
        "usage error: {path}/p.json: polynomial terms must be a list, got str",
    ),
    "greenberg-variables-a-string": (
        ["greenberg", "--p", "2", "--level", "1", "--poly", "{path}/p.json"],
        {"p.json": {"variables": "xy", "terms": []}},
        "usage error: {path}/p.json: polynomial variables must be a list, got str",
    ),
    "greenberg-boolean-denominator": (
        ["greenberg", "--p", "2", "--level", "1", "--poly", "{path}/p.json"],
        {"p.json": {"variables": ["x"], "terms": [], "b_denominator": True}},
        "usage error: {path}/p.json: polynomial b_denominator must be an integer, got the boolean True",
    ),
    "greenberg-denominator-without-inverse": (
        ["greenberg", "--p", "2", "--level", "1", "--poly", "{path}/p.json"],
        {"p.json": {"variables": ["x"], "terms": [{"coeff": "1"}], "b_denominator": 1}},
        "usage error: {path}/p.json: b_denominator 1, but Z[x] inverts nothing",
    ),
    "symbolic-coefficient-a-string": (
        ["compose", "--ring", "sym", "--f", "{path}/s.json", "--g", "{path}/s.json"],
        {"s.json": {"coeffs": ["1", "1"]}},
        "usage error: {path}/s.json: coeffs must be an object, got str",
    ),
    "witt-components-a-string": (
        ["ghost", "--u", "{path}/u.json"],
        {"u.json": {"p": 3, "ring": {"kind": "zmod", "m": "27"}, "components": "10"}},
        "usage error: {path}/u.json: vector components must be a list, got str",
    ),
    "series-order-a-boolean": (
        ["ghost", "--u", "{path}/u.json"],
        {"u.json": {"p": 3, "ring": {"kind": "truncseries", "base": "fp", "e": True, "p": "3"},
                    "components": [["1"]]}},
        "usage error: {path}/u.json: ring e must be an integer, got the boolean True",
    ),
    "symbolic-generators-a-string": (
        ["ghost", "--u", "{path}/u.json"],
        {"u.json": {"p": 2, "ring": {"kind": "symbolic", "generators": "ab"}, "components": [{}]}},
        "usage error: {path}/u.json: ring generators must be a list, got str",
    ),
    "symbolic-q-below-2": (
        ["ghost", "--u", "{path}/u.json"],
        {"u.json": {"p": 2, "ring": {"kind": "symbolic", "generators": ["x"], "q": "1"},
                    "components": [{}]}},
        "usage error: {path}/u.json: q must be at least 2",
    ),
    "series-coefficient-a-string": (
        ["compose", "--ring", "tq:5:2", "--f", "{path}/t.json", "--g", "{path}/t.json"],
        {"t.json": {"coeffs": ["12", ["1"]]}},
        "usage error: {path}/t.json: coeffs must be a list, got str",
    ),
    "rational-a-float": (
        ["compose", "--ring", "tq:Q:2", "--f", "{path}/t.json", "--g", "{path}/t.json"],
        {"t.json": {"coeffs": [[0.5], ["1"]]}},
        "usage error: {path}/t.json: coeffs must be an integer, got 0.5",
    ),
    "rational-an-exponent": (
        ["compose", "--ring", "tq:Q:2", "--f", "{path}/t.json", "--g", "{path}/t.json"],
        {"t.json": {"coeffs": [["1e2"], ["1"]]}},
        "usage error: {path}/t.json: coeffs must be an integer, got '1e2'",
    ),
    "integer-with-underscore": (
        ["compose", "--ring", "zmod:81", "--f", "{path}/t.json", "--g", F],
        {"t.json": {"coeffs": ["1_0", "1"]}},
        "usage error: {path}/t.json: coeffs must be an integer, got '1_0'",
    ),
    "integer-with-space": (
        ["compose", "--ring", "zmod:81", "--f", "{path}/t.json", "--g", F],
        {"t.json": {"coeffs": [" 2", "1"]}},
        "usage error: {path}/t.json: coeffs must be an integer, got ' 2'",
    ),
    "integer-a-boolean": (
        ["compose", "--ring", "zmod:27:q=3", "--f", "{path}/t.json", "--g", F],
        {"t.json": {"coeffs": ["1", True]}},
        "usage error: {path}/t.json: coeffs must be an integer, got the boolean True",
    ),
    "coeffs-a-string": (
        ["compose", "--ring", "zmod:81:q=3", "--f", "{path}/t.json", "--g", F],
        {"t.json": {"coeffs": "12"}},
        "usage error: {path}/t.json: polynomial coeffs must be a list, got str",
    ),
    "file-not-utf8": (
        ["compose", "--ring", "zmod:8", "--f", "{path}/t.json", "--g", F],
        {"t.json": b"\xff\xfe"},
        "usage error: {path}/t.json does not hold JSON",
    ),
    "file-nested-too-deep": (
        ["compose", "--ring", "zmod:8", "--f", "{path}/t.json", "--g", F],
        {"t.json": b"[" * 100000 + b"]" * 100000},
        "usage error: {path}/t.json does not hold JSON",
    ),
    "modulus-with-underscore": (
        ["compose", "--ring", "zmod:8_1", "--f", F, "--g", F],
        {},
        "usage error: --ring zmod:8_1: modulus must be an integer, got '8_1'",
    ),
    "modulus-not-a-number": (
        ["compose", "--ring", "zmod:abc", "--f", F, "--g", F],
        {},
        "usage error: --ring zmod:abc: modulus must be an integer, got 'abc'",
    ),
    "series-order-not-a-number": (
        ["compose", "--ring", "tq:3:x", "--f", F, "--g", F],
        {},
        "usage error: --ring tq:3:x: truncation order e must be an integer, got 'x'",
    ),
    "law-degree-a-boolean": (
        ["verify-law", "--law", "{path}/l.json"],
        {"l.json": {"descriptor": {"kind": "shape", "p": 2, "d": True}}},
        "usage error: {path}/l.json: law descriptor d must be an integer, got the boolean True",
    ),
    "law-precision-a-float": (
        ["verify-law", "--law", "{path}/l.json"],
        {"l.json": {"descriptor": {"kind": "capped", "p": 2, "precision": 2.0, "degree_cap": 1}}},
        "usage error: {path}/l.json: law descriptor precision must be an integer, got 2.0",
    ),
    "law-file-not-an-object": (
        ["verify-law", "--law", "{path}/l.json"],
        {"l.json": 5},
        "usage error: {path}/l.json: law file must be an object, got int",
    ),
    "subgroup-degree-with-space": (
        ["member", "--ring", "zmod:8", "--f", F, "--subgroup", "atilde: 2"],
        {},
        "usage error: --subgroup atilde: 2: subgroup d must be an integer, got ' 2'",
    ),
    "subgroup-level-missing": (
        ["member", "--ring", "zmod:8", "--f", F, "--subgroup", "n:2"],
        {},
        "usage error: --subgroup n:2: subgroup r must be an integer, got ''",
    ),
    "times-with-underscore": (
        ["iterate", "--ring", "zmod:8", "--f", F, "--times", "1_0"],
        {},
        "usage error: argument --times: the value must be an integer, got '1_0'",
    ),
    "samples-with-underscore": (
        ["series", "--ring", "zmod:8", "--seed", "1", "--samples", "2_0"],
        {},
        "usage error: argument --samples: the value must be an integer, got '2_0'",
    ),
    "value-with-underscore": (
        ["witt-iso", "--value", "1_000", "--p", "2", "--level", "1"],
        {},
        "usage error: argument --value: the value must be an integer, got '1_000'",
    ),
    "p-with-underscore": (
        ["witt-derive", "--p", "1_1", "--level", "1"],
        {},
        "usage error: argument --p: the value must be an integer, got '1_1'",
    ),
    "required-flag-missing": (
        ["compose", "--ring", "zmod:8", "--f", F],
        {},
        "usage error: the following arguments are required: --g",
    ),
    "out-unwritable": (
        ["witt-derive", "--p", "2", "--level", "1", "--out", "{path}/no/dir.json"],
        {},
        "usage error: cannot write {path}/no/dir.json",
    ),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_input_is_a_usage_error(tmp_path, case):
    """In a fresh process, so that a hang ends at the timeout."""
    argv, files, stderr = MALFORMED[case]
    files = {"f.json": {"coeffs": ["0", "1"]}, **files}
    for name, content in files.items():
        raw = content if isinstance(content, bytes) else json.dumps(content).encode()
        (tmp_path / name).write_bytes(raw)
    out = fresh(*[a.format(path=tmp_path) for a in argv], timeout=10)
    assert out.returncode == 2 and out.stdout == ""
    assert "Traceback" not in out.stderr
    assert stderr.format(path=tmp_path) in out.stderr


def test_verify_law_cli(tmp_path, capsys):
    law_file = tmp_path / "law.json"
    code, _, _ = run(
        capsys, "greenberg-law", "--p", "2", "--d", "1", "--out", str(law_file)
    )
    assert code == 0
    code, out, _ = run(capsys, "verify-law", "--law", str(law_file))
    assert code == 0
    payload = json.loads(out)
    assert payload["matches_build"] is True
    assert payload["axioms"]["inverses"] is True

    stored = json.loads(law_file.read_text())
    stored["law"]["laws"]["a0_0"] = "tampered"
    law_file.write_text(json.dumps(stored))
    code, out, _ = run(capsys, "verify-law", "--law", str(law_file))
    assert code == 1
    assert json.loads(out)["matches_build"] is False


def test_capped_law_via_cli(capsys):
    code, out, _ = run(
        capsys, "greenberg-law", "--p", "2", "--d", "1", "--precision", "2",
    )
    assert code == 0
    assert json.loads(out)["law"] == gb.group_law_capped(2, 2, 1).to_json()


def test_ad_cli(tmp_path, capsys):
    fp = write_poly(tmp_path, "f.json", [1, 1])
    gp = write_poly(tmp_path, "g.json", [0, 1, 3])
    code, out, _ = run(
        capsys, "ad", "--ring", "zmod:9:q=3", "--f", fp, "--g", gp,
        "--level", "1",
    )
    assert code == 0
    assert json.loads(out)["coeffs"] == ["3", "4", "3"]
    # outside the abelian range the library refuses: domain error, code 1
    code, _, err = run(
        capsys, "ad", "--ring", "zmod:27:q=3", "--f",
        write_poly(tmp_path, "f3.json", [1, 1]), "--g",
        write_poly(tmp_path, "g3.json", [0, 1, 3]), "--level", "1",
    )
    assert code == 1 and "NotAbelian" in err


def test_ad_matrix_cli_symbolic_matches_golden(capsys):
    code, out, _ = run(
        capsys, "ad-matrix", "--ring", "sym:n=3", "--subgroup", "n:3,1",
        "--allow-nonabelian",
    )
    assert code == 0
    with (GOLDEN / "conj_matrix_n31.json").open() as fh:
        assert json.loads(out) == json.load(fh)
    code, out, _ = run(
        capsys, "ad-matrix", "--ring", "sym:n=4", "--subgroup", "k:4,2",
        "--degree", "3",
    )
    assert code == 0
    with (GOLDEN / "conj_matrix_k42.json").open() as fh:
        assert json.loads(out) == json.load(fh)


def test_ad_matrix_cli_numeric(tmp_path, capsys):
    fp = write_poly(tmp_path, "f.json", [1, 1, 2])
    code, out, _ = run(
        capsys, "ad-matrix", "--ring", "zmod:16:q=2", "--f", fp,
        "--subgroup", "k:4,2",
    )
    assert code == 0
    assert json.loads(out)["size"] == 5
    code, _, err = run(
        capsys, "ad-matrix", "--ring", "zmod:16:q=2", "--subgroup", "k:4,2"
    )
    assert code == 2 and "--f" in err


def test_module_decomp_cli(capsys):
    code, out, _ = run(capsys, "module-decomp", "--ring", "zmod:16:q=2")
    assert code == 0
    payload = json.loads(out)
    assert payload["summands"] == [2, 2, 2, 2, 1]
    assert payload["agrees"] is True
    code, out, _ = run(
        capsys, "module-decomp", "--ring", "zmod:16:q=2", "--format", "text"
    )
    assert "R/q^2 ^ 4 (+) R/q" in out


def test_exit_codes_and_stderr(tmp_path, capsys):
    # argparse exits on an unknown verb; main converts that to a code
    assert main(["no-such-verb"]) == 2
    capsys.readouterr()
    code, _, err = run(capsys, "compose", "--ring", "huh:3", "--f", "x", "--g", "y")
    assert code == 2 and "usage error" in err
    code, _, err = run(
        capsys, "compose", "--ring", "zmod:9:q=3", "--f",
        str(tmp_path / "missing.json"), "--g", str(tmp_path / "missing.json"),
    )
    assert code == 2 and "cannot read" in err
    fp = write_poly(tmp_path, "bad.json", [0, 3])  # 3 is not a unit mod 9
    code, _, err = run(capsys, "invert", "--ring", "zmod:9:q=3", "--f", fp)
    assert code == 1 and "NotAnAutomorphism" in err
    ident = write_poly(tmp_path, "t.json", [0, 1])
    code, out, err = run(
        capsys, "member", "--ring", "zmod:16:q=2", "--f", ident, "--subgroup", "k:4,5"
    )
    assert code == 1 and out == "" and "congruence level 5 outside 1..4" in err


def test_out_flag_writes_same_bytes(tmp_path, capsys):
    code, out, _ = run(capsys, "witt-derive", "--p", "2", "--level", "1")
    dest = tmp_path / "law.json"
    code2, stdout2, _ = run(
        capsys, "witt-derive", "--p", "2", "--level", "1", "--out", str(dest)
    )
    assert code == code2 == 0
    assert stdout2 == ""
    assert dest.read_text() == out


def test_text_format_for_polynomials(tmp_path, capsys):
    fp = write_poly(tmp_path, "f.json", [1, 4, 3])
    gp = write_poly(tmp_path, "g.json", [0, 1])
    code, out, _ = run(
        capsys, "compose", "--ring", "zmod:27:q=3", "--f", fp, "--g", gp,
        "--format", "text",
    )
    assert code == 0
    ring = IntModRing(27, q=3)
    assert out.strip() == repr(TruncPoly(ring, [1, 4, 3]))


def test_non_prime_p_is_a_usage_error(tmp_path, capsys):
    code, out, err = run(capsys, "witt-derive", "--p", "4", "--level", "1")
    assert code == 2 and out == "" and "not a prime" in err
    code, _, err = run(capsys, "greenberg-law", "--p", "6", "--d", "1")
    assert code == 2 and "not a prime" in err
    code, _, err = run(
        capsys, "witt-iso", "--value", "3", "--p", "1", "--level", "1"
    )
    assert code == 2 and "not a prime" in err
    vec = tmp_path / "u.json"
    vec.write_text(json.dumps(
        {"p": 4, "ring": {"kind": "zmod", "m": "4"}, "components": ["1", "2"]}
    ))
    code, _, err = run(capsys, "ghost", "--u", str(vec))
    assert code == 2 and "not a prime" in err


def test_sampled_verdicts_need_a_positive_sample_count(tmp_path, capsys):
    law = tmp_path / "law.json"
    law.write_text(json.dumps(gb.group_law_shape(2, 1).to_json()))
    for samples in ("-5", "0"):
        for argv in (
            ["series", "--ring", "zmod:81:q=3"],
            ["greenberg-law", "--p", "2", "--d", "1", "--verify", "sampled"],
            ["verify-law", "--law", str(law), "--verify", "sampled"],
        ):
            code, out, err = run(capsys, *argv, "--seed", "1", "--samples", samples)
            assert code == 2 and out == "" and "--samples" in err


def test_order_cap_below_one_is_a_usage_error(tmp_path, capsys):
    fp = write_poly(tmp_path, "f.json", [0, 1])
    for cap in ("0", "-3"):
        code, out, err = run(
            capsys, "order", "--ring", "zmod:8:q=2", "--f", fp, "--cap", cap
        )
        assert code == 2 and out == "" and "--cap" in err


def test_order_over_rational_series_is_infinite_at_once(tmp_path, capsys):
    # T + t*T^2: the kernel of reduction mod t is torsion-free over Q
    fp = tmp_path / "f.json"
    fp.write_text(json.dumps({"coeffs": [["0"], ["1"], ["0", "1"]]}))
    code, out, _ = run(
        capsys, "order", "--ring", "tq:Q:3", "--f", str(fp), "--cap", "100000"
    )
    assert code == 0 and json.loads(out) == {"order": None, "cap": 100000}


def test_order_of_a_slope_over_a_prime_field_with_a_hard_p_minus_one(tmp_path):
    """2T over F_p with p - 1 = 48 * 10640865532228231 * 11640865532228237:
    rho would take hours to split p - 1, but an order up to the default
    cap of 10^6 needs only the primes of p - 1 up to the cap.  Run as a
    fresh process, so a hang ends at the timeout instead of stalling the
    suite."""
    fp = write_poly(tmp_path, "g.json", [0, 2])
    out = fresh("order", "--ring", "zmod:5945706470745172254322227204419857", "--f", fp)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == {"order": None, "cap": 10 ** 6}


def test_order_of_a_translation_over_a_large_prime_field(tmp_path, capsys):
    # T + 1 over F_p, p = 2^61 - 1, has order p, beyond the default cap;
    # the affine order comes from a closed form, not from stepping
    fp = write_poly(tmp_path, "f.json", [1, 1])
    code, out, _ = run(capsys, "order", "--ring", "zmod:2305843009213693951", "--f", fp)
    assert code == 0 and json.loads(out) == {"order": None, "cap": 10 ** 6}


def test_factoring_beyond_the_rho_budget_is_a_named_error(tmp_path):
    """Pollard rho needs about p^(1/2) steps for the smallest prime p it
    splits off, hours for the two below; past its fixed step budget the
    verb exits 1 with TooLarge, which names a cheaper route."""
    f = write_poly(tmp_path, "f.json", [1, 1])
    g = write_poly(tmp_path, "g.json", [0, 2])
    m = (2 ** 61 - 1) * (2 ** 89 - 1)
    out = fresh("compose", "--ring", f"zmod:{m}", "--f", f, "--g", f)
    assert out.returncode == 1 and out.stdout == ""
    assert out.stderr.startswith("TooLarge: ") and "prime power" in out.stderr
    # p - 1 = 48 * 10640865532228231 * 11640865532228237; caps up to 10^6
    # need only its primes up to the cap
    out = fresh(
        "order", "--ring", "zmod:5945706470745172254322227204419857",
        "--f", g, "--cap", "2000000",
    )
    assert out.returncode == 1 and out.stdout == ""
    assert out.stderr.startswith("TooLarge: ") and "cap of at most 10^6" in out.stderr


def test_exhaustive_verification_past_its_limit_is_a_named_error(tmp_path):
    """The exhaustive axiom check counts its triples first: --d 3 (256
    points) and --d 4 (8192 points, 5.5e11 triples, hours of work) exit 1
    with TooLarge, which names the sampled mode, within 2 s."""
    for d in ("3", "4"):
        start = time.perf_counter()
        out = fresh("greenberg-law", "--p", "2", "--d", d, "--verify", "exhaustive")
        assert time.perf_counter() - start < 2
        assert out.returncode == 1 and out.stdout == ""
        assert out.stderr.startswith("TooLarge: ") and "--verify sampled" in out.stderr
    # verify-law checks exhaustively by default; a stored (3, 2) law has
    # 162 points, so only the sampled mode runs it
    law = str(tmp_path / "law.json")
    assert main(["greenberg-law", "--p", "3", "--d", "2", "--out", law]) == 0
    out = fresh("verify-law", "--law", law)
    assert out.returncode == 1 and out.stdout == ""
    assert out.stderr.startswith("TooLarge: ") and "162^3" in out.stderr
    out = fresh("verify-law", "--law", law, "--verify", "sampled", "--seed", "1",
                "--samples", "50")
    assert out.returncode == 0 and json.loads(out.stdout)["axioms"]["mode"] == "sampled"


def test_every_verb_in_a_fresh_process_matches_main(tmp_path, capsys):
    """In-process calls run after other tests loaded every module, so a
    verb that works only because something else loaded its module first
    would pass there; a fresh process loads what the verb imports."""
    f = write_poly(tmp_path, "f.json", [1, 1, 3])
    g = write_poly(tmp_path, "g.json", [0, 1, 3])
    h = write_poly(tmp_path, "h.json", [1, 1, 2])
    u, v, law = (str(tmp_path / n) for n in ("u.json", "v.json", "law.json"))
    assert main(["witt-iso", "--value", "7", "--p", "2", "--level", "2", "--out", u]) == 0
    assert main(["witt-iso", "--value", "5", "--p", "2", "--level", "2", "--out", v]) == 0
    assert main(["greenberg-law", "--p", "2", "--d", "1", "--out", law]) == 0
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({
        "variables": ["x", "y"],
        "terms": [
            {"coeff": "1", "exponents": {"x": 2}},
            {"coeff": "1", "exponents": {"y": 1}},
        ],
    }))
    cases = [
        ["compose", "--ring", "zmod:81:q=3", "--f", f, "--g", g],
        ["invert", "--ring", "zmod:81:q=3", "--f", f, "--check"],
        ["order", "--ring", "zmod:81:q=3", "--f", f],
        ["member", "--ring", "zmod:81:q=3", "--f", f, "--subgroup", "atilde:2"],
        ["iterate", "--ring", "zmod:81:q=3", "--f", f, "--times", "5"],
        ["series", "--ring", "zmod:16:q=2", "--seed", "3", "--samples", "5"],
        ["witt-derive", "--p", "2", "--level", "2"],
        ["witt-add", "--u", u, "--v", v],
        ["witt-mul", "--u", u, "--v", v],
        ["ghost", "--u", u],
        ["witt-iso", "--u", u, "--format", "text"],
        ["greenberg", "--p", "2", "--level", "1", "--poly", str(poly)],
        ["greenberg-law", "--p", "2", "--d", "1", "--verify", "sampled",
         "--seed", "4", "--samples", "20"],
        ["verify-law", "--law", law],
        ["ad", "--ring", "zmod:9:q=3", "--f", f, "--g", g, "--level", "1"],
        ["ad-matrix", "--ring", "zmod:16:q=2", "--f", h, "--subgroup", "k:4,2"],
        ["module-decomp", "--ring", "zmod:16:q=2"],
    ]
    assert [c[0] for c in cases] == list(VERBS)
    capsys.readouterr()
    for argv in cases:
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        child = fresh(*argv)
        assert (child.returncode, child.stdout) == (code, out), (argv, child.stderr)
