"""The package's record types: the seven NamedTuples and the two slotted
classes keep equality, hashing, immutability and validation, and
importing the package (CLI included) stays free of `dataclasses` and
`inspect`."""

import os
import pathlib
import random
import subprocess
import sys

import pytest

from affaut.adjoint import (
    AdjointMatrix,
    ModuleDecomposition,
    ad_matrix,
    module_decomposition,
)
from affaut.autgroup import (
    FiltrationStep,
    SubgroupSpec,
    TruncPoly,
    composition_series,
    identity_map,
)
from affaut.errors import PreconditionFailed, ShapeMismatch
from affaut.greenberg import (
    AxiomReport,
    ComponentSystem,
    GroupLaw,
    greenberg_transform,
    group_law_shape,
    verify_group_axioms,
)
from affaut.rings import IntModRing, RingElem, SymbolicRing
from affaut.witt import UniversalWittLaw, WittVec, derive_witt_laws

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_import_loads_neither_dataclasses_nor_inspect():
    code = (
        "import sys, affaut, affaut.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def _greenberg_example():
    S = SymbolicRing(("X", "Y"))
    f = RingElem(S, S.add(S.mul(S.gen("X"), S.gen("Y")), S.gen("X")))
    return greenberg_transform(f, 2, 1)


def _builders():
    """Each record type with a function building a fresh instance, so
    that two calls give equal but distinct objects."""
    ring = IntModRing(16, q=2)
    return {
        SubgroupSpec: lambda: SubgroupSpec.parse("k:4,2"),
        FiltrationStep: lambda: composition_series(
            ring, rng=random.Random(5), samples=3
        )[0],
        AdjointMatrix: lambda: ad_matrix(TruncPoly(ring, [1, 3, 2]), "k:4,2"),
        ModuleDecomposition: lambda: module_decomposition(ring, 2),
        ComponentSystem: _greenberg_example,
        AxiomReport: lambda: verify_group_axioms(
            group_law_shape(2, 2), "sampled", rng=random.Random(6), samples=20
        ),
        UniversalWittLaw: lambda: UniversalWittLaw.from_json(
            derive_witt_laws(3, 1).to_json()
        ),
        WittVec: lambda: WittVec.make(3, IntModRing(9, q=3), [4, 7]),
        GroupLaw: lambda: group_law_shape(2, 2),
    }


def _fields(x):
    return x._fields if isinstance(x, tuple) else type(x).__slots__


def test_equal_builds_compare_and_hash_equal():
    for cls, build in _builders().items():
        a, b = build(), build()
        assert type(a) is cls and a is not b
        assert a == b and not a != b, cls.__name__
        if cls is GroupLaw:
            # its descriptor is a dict, so a law has no hash
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b), cls.__name__
            assert len({a, b}) == 1


def test_records_differing_in_one_field_compare_unequal():
    ring = IntModRing(16, q=2)
    pairs = [
        (SubgroupSpec.parse("k:4,2"), SubgroupSpec.parse("k:4,1")),
        (
            ad_matrix(TruncPoly(ring, [1, 3, 2]), "k:4,2"),
            ad_matrix(identity_map(ring), "k:4,2"),
        ),
        (module_decomposition(ring, 2), module_decomposition(ring, 3)),
        (derive_witt_laws(2, 1), derive_witt_laws(3, 1)),
        (
            WittVec.make(3, IntModRing(9, q=3), [4, 7]),
            WittVec.make(3, IntModRing(9, q=3), [4, 8]),
        ),
        (group_law_shape(2, 2), group_law_shape(3, 2)),
    ]
    for a, b in pairs:
        assert a != b and not a == b, type(a).__name__
    # the slotted classes equal only their own kind
    u = WittVec.make(3, IntModRing(9, q=3), [4, 7])
    for other in (None, 4, (3, u.ring, (4, 7)), group_law_shape(2, 2)):
        assert u != other and not u == other


def test_every_field_is_read_only():
    for cls, build in _builders().items():
        x = build()
        for name in _fields(x):
            with pytest.raises(AttributeError):
                setattr(x, name, None)
            with pytest.raises(AttributeError):
                delattr(x, name)
        with pytest.raises(AttributeError):
            x.extra = 1


def test_witt_vectors_are_validated():
    R = IntModRing(9, q=3)
    for p in (1, 4, 9, -3, 3.0):
        with pytest.raises(PreconditionFailed):
            WittVec(p, R, (1, 2))
    with pytest.raises(ShapeMismatch):
        WittVec(3, R, ())
    u = WittVec(3, R, (4, 7))
    assert (u.p, u.ring, u.components, u.level) == (3, R, (4, 7), 1)
    assert repr(u) == f"WittVec(p=3, ring={R!r}, components=(4, 7))"


def test_group_laws_equal_whatever_their_compiled_cache():
    a, b = group_law_shape(2, 2), group_law_shape(2, 2)
    e = a.identity_point()
    assert a.compose_points(e, e) == e  # fills a's cache, not b's
    assert a._compiled is not None and b._compiled is None
    assert a == b
    assert "_compiled" not in repr(a) and repr(a) == repr(b)
