"""The package's import contract: public names load their module on first
use, and each CLI verb runs only the modules it calls.  Checks of what
loads run in fresh interpreters, since this one has loaded everything."""

import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import affaut
from affaut.autgroup import TruncPoly, compose
from affaut.inversion import invert
from affaut.rings import TruncSeriesRing

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
SUBMODULES = ("rings", "autgroup", "inversion", "witt", "greenberg", "adjoint")

# Records, by an audit hook, the affaut modules whose code runs: the
# exec event fires for each module body whether or not bytecode is cached.
AUDIT = """
import os, sys
ran = set()
def hook(event, args):
    if event == "exec":
        path = getattr(args[0], "co_filename", "")
        if os.path.basename(os.path.dirname(path)) == "affaut":
            ran.add(os.path.basename(path)[:-3])
sys.addaudithook(hook)
"""


def fresh_python(code: str):
    """stdout of ``code`` run in a new interpreter, read as JSON."""
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_public_names_are_the_objects_of_their_modules():
    for name in affaut.__all__:
        obj = getattr(affaut, name)
        home = sys.modules[obj.__module__]
        assert home.__name__.split(".")[0] == "affaut"
        assert getattr(home, name) is obj, name
    assert set(affaut.__all__) <= set(dir(affaut))
    star = {}
    exec("from affaut import *", star)
    assert set(affaut.__all__) <= set(star)


def test_the_q_adic_contract_lives_in_rings():
    """The truncation check and the precision transport are Ring methods
    that no ring class overrides or other module copies, and q_val has
    no infinite value, so the contract cannot fork again."""
    from affaut import adjoint, autgroup, inversion, rings

    for mod in (autgroup, inversion, adjoint):
        for name in ("_transport", "_require_truncated", "require_truncated"):
            assert not hasattr(mod, name), (mod.__name__, name)
    classes = [c for c in vars(rings).values() if isinstance(c, type) and issubclass(c, rings.Ring)]
    assert len(classes) == 5
    for cls in classes:
        assert not hasattr(cls, "has_q"), cls
        assert cls is rings.Ring or "require_truncated" not in vars(cls), cls
    assert not hasattr(rings, "INFINITE_VAL")


def test_the_unpacked_rings_have_one_arithmetic():
    """The schoolbook rings multiply by one function and the series ring
    fixes its field at construction, so the removed second paths stay
    gone."""
    from affaut import autgroup, rings

    for name in ("_Dense", "_dense_codec"):
        assert not hasattr(autgroup, name), name
    assert not hasattr(rings.TruncSeriesRing, "_szero")


def test_the_group_layer_asks_the_ring_and_the_map():
    """The ring questions of autgroup are ring members and the automorphism
    check and the inverse about T live once, so the removed helpers stay
    gone."""
    from affaut import autgroup, inversion, rings

    for mod, name in (
        (autgroup, "_residue_characteristic"),
        (autgroup, "_rand_nilpotent"),
        (inversion, "_negate_about_identity"),
        (rings, "_freeze"),
    ):
        assert not hasattr(mod, name), name


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        affaut.no_such_name
    assert not hasattr(affaut, "_no_such_module")


def test_bare_import_registers_every_submodule_and_runs_none():
    got = fresh_python(AUDIT + """
import json
import affaut
names = ["affaut." + m for m in %r]
print(json.dumps({
    "registered": [n in sys.modules for n in names],
    "ran": sorted(ran),
}))
""" % (SUBMODULES,))
    assert got == {"registered": [True] * len(SUBMODULES), "ran": ["__init__"]}


def test_each_verb_runs_only_its_modules(tmp_path):
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"coeffs": ["1", "3", "9"]}))
    code = AUDIT + """
import io, json, contextlib
from affaut.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    status = main(%r)
print(json.dumps({"status": status, "ran": sorted(ran),
                  "fractions": "fractions" in sys.modules}))
"""
    got = fresh_python(code % (["compose", "--ring", "zmod:81:q=3", "--f", str(f), "--g", str(f)],))
    assert got == {
        "status": 0,
        "ran": ["__init__", "autgroup", "cli", "errors", "rings"],
        "fractions": False,
    }
    # a series ring over F_p composes without loading fractions either
    series = tmp_path / "s.json"
    series.write_text(json.dumps({"coeffs": [["1", "2", "0"], ["1", "0", "3"], ["0", "4"]]}))
    argv = ["compose", "--ring", "tq:5:3", "--f", str(series), "--g", str(series)]
    got = fresh_python(code % (argv,))
    assert got == {
        "status": 0,
        "ran": ["__init__", "autgroup", "cli", "errors", "rings"],
        "fractions": False,
    }
    got = fresh_python(code % (["witt-derive", "--p", "2", "--level", "2"],))
    assert got["status"] == 0 and "witt" in got["ran"]
    assert not {"autgroup", "adjoint", "inversion", "greenberg"} & set(got["ran"])
    # greenberg_transform works on ghost components alone; only the law
    # generator composes with autgroup
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({"variables": ["x", "y"], "terms": [
        {"coeff": "1", "exponents": {"x": 2, "y": 1}},
        {"coeff": "3", "exponents": {"y": 1}},
    ]}))
    got = fresh_python(code % (["greenberg", "--p", "2", "--level", "2", "--poly", str(poly)],))
    assert got["status"] == 0 and {"greenberg", "witt"} <= set(got["ran"])
    assert not {"autgroup", "adjoint", "inversion"} & set(got["ran"])


def test_rational_series_load_fractions_on_demand(tmp_path):
    # T + (t/2) T^2 over Q[t]/(t^3)
    coeffs = [["0", "0", "0"], ["1", "0", "0"], ["0", "1/2", "0"]]
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"coeffs": coeffs}))
    got = fresh_python("""
import io, json, sys, contextlib
from affaut.cli import main
from affaut.rings import TruncSeriesRing
loaded = "fractions" in sys.modules
outs = []
for argv in (["compose", "--ring", "tq:Q:3", "--f", %r, "--g", %r],
             ["invert", "--ring", "tq:Q:3", "--f", %r]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    outs.append(json.loads(buf.getvalue()))
from fractions import Fraction
x = TruncSeriesRing("fp", 3, p=3).elem([Fraction(4, 1), 2])
print(json.dumps({"loaded_before": loaded, "outs": outs, "scalar": x.ring.payload_to_json(x.value)}))
""" % (str(f), str(f), str(f)))
    assert got["loaded_before"] is False
    R = TruncSeriesRing("rationals", 3)
    g = TruncPoly(R, [tuple(Fraction(c) for c in cs) for cs in coeffs])
    assert TruncPoly.from_json(R, got["outs"][0]) == compose(g, g)
    assert TruncPoly.from_json(R, got["outs"][1]) == invert(g)
    assert got["scalar"] == ["1", "2", "0"]
