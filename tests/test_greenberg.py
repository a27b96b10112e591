"""Component-coordinate transforms and generated composition laws."""

import itertools
import json
import math
import pathlib
import random
import time

import pytest

from affaut.autgroup import (
    TruncPoly,
    atilde_coefficient_valuation,
    compose,
    identity_map,
)
from affaut import greenberg as gb
from affaut.errors import PreconditionFailed, ShapeMismatch, TooLarge
from affaut.greenberg import (
    GroupLaw,
    capped_coordinate_scheme,
    enumerate_points,
    greenberg_transform,
    group_law_capped,
    group_law_shape,
    sample_point,
    shape_coordinate_scheme,
    simplify_mod_p,
    verify_group_axioms,
)
from affaut.rings import IntegerRing, IntModRing, RingElem, SymbolicRing
from affaut.witt import (
    WittVec,
    derive_witt_laws,
    unghost,
    witt_add,
    witt_mul,
    witt_to_residue,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"


def sym_poly(gens, build):
    ring = SymbolicRing(tuple(gens))
    return RingElem(ring, build(ring))


# ---------------------------------------------------------------------------
# simplification pass


def test_simplify_drops_p_multiples_and_reduces_exponents():
    R = SymbolicRing(("u", "v"))
    a = R.add(
        R.add(R.monomial(3, {"u": 1}), R.monomial(2, {"u": 4})),
        R.monomial(1, {"v": 5}),
    )
    out = simplify_mod_p(R, a, 3)
    # 3u dies, 2u^4 -> 2u^2, v^5 -> v
    assert out == R.add(R.monomial(2, {"u": 2}), R.monomial(1, {"v": 1}))


def test_simplify_is_pointwise_faithful():
    rng = random.Random(512)
    R = SymbolicRing(("u", "v"))
    for p in (2, 3, 5):
        base = IntModRing(p, q=p)
        for _ in range(40):
            terms = {}
            for _ in range(6):
                e = (rng.randrange(0, 7), rng.randrange(0, 7))
                terms[e] = terms.get(e, 0) + rng.randrange(-9, 10)
            a = R._norm(dict(terms), 0)
            s = simplify_mod_p(R, a, p)
            for uval in range(p):
                for vval in range(p):
                    asg = {"u": uval, "v": vval}
                    assert R.substitute(a, base, asg) == R.substitute(s, base, asg)


# ---------------------------------------------------------------------------
# the polynomial transform


def test_transform_of_single_variable_is_componentwise():
    f = sym_poly(("x",), lambda R: R.gen("x"))
    for p, n in ((2, 1), (3, 2)):
        cs = greenberg_transform(f, p, n)
        for k, g in enumerate(cs.polys):
            assert g == cs.ring.gen(f"x_{k}")


def test_transform_of_sum_is_the_addition_law():
    f = sym_poly(("x", "y"), lambda R: R.add(R.gen("x"), R.gen("y")))
    for p in (2, 3):
        cs = greenberg_transform(f, p, 1)
        law = derive_witt_laws(p, 1)
        rename = {}
        for i in range(2):
            rename[f"x{i}"] = cs.ring.gen(f"x_{i}")
            rename[f"y{i}"] = cs.ring.gen(f"y_{i}")
        for mine, theirs in zip(cs.polys, law.sum_polys):
            assert mine == law.ring.substitute(theirs, cs.ring, rename)


def test_transform_square_plus_shift_frozen():
    """The level-1 components of x^2 + y, written out by hand from the
    ghost equations."""
    f = sym_poly(
        ("x", "y"), lambda R: R.add(R.mul(R.gen("x"), R.gen("x")), R.gen("y"))
    )
    for p in (2, 3):
        cs = greenberg_transform(f, p, 1)
        R = cs.ring
        x0, x1, y0, y1 = (R.gen(g) for g in ("x_0", "x_1", "y_0", "y_1"))

        def pw(a, e):
            out = R.one()
            for _ in range(e):
                out = R.mul(out, a)
            return out

        g0 = R.add(pw(x0, 2), y0)
        assert cs.polys[0] == g0
        mix = R.zero()
        for j in range(1, p):
            c = math.comb(p, j) // p
            mix = R.add(
                mix, R.mul(R.from_int(c), R.mul(pw(x0, 2 * j), pw(y0, p - j)))
            )
        g1 = R.sub(
            R.add(
                R.add(R.mul(R.from_int(2), R.mul(pw(x0, p), x1)),
                      R.mul(R.from_int(p), pw(x1, 2))),
                y1,
            ),
            mix,
        )
        assert cs.polys[1] == g1


def test_transform_evaluation_matches_witt_arithmetic():
    f = sym_poly(
        ("x", "y"),
        lambda R: R.add(
            R.mul(R.gen("x"), R.mul(R.gen("x"), R.gen("y"))),
            R.monomial(3, {"y": 2}),
        ),
    )
    rng = random.Random(808)
    for p, n in ((2, 1), (2, 2), (3, 1), (5, 1)):
        cs = greenberg_transform(f, p, n)
        base = IntModRing(p, q=p)
        for _ in range(25):
            xs = [rng.randrange(p) for _ in range(n + 1)]
            ys = [rng.randrange(p) for _ in range(n + 1)]
            xv = WittVec.make(p, base, xs)
            yv = WittVec.make(p, base, ys)
            three = WittVec.make(p, base, [3 % p] + [0] * n)
            want = witt_add(
                witt_mul(xv, witt_mul(xv, yv)),
                witt_mul(
                    _embed_int(3, p, base, n + 1), witt_mul(yv, yv)
                ),
            )
            values = {f"x_{k}": xs[k] for k in range(n + 1)}
            values.update({f"y_{k}": ys[k] for k in range(n + 1)})
            assert cs.evaluate(values) == want


def _embed_int(c, p, ring, length):
    """The integer c as a Witt vector over ring (Z/m or torsion-free): the
    vector with constant ghost c, solved over the integers."""
    u = unghost(p, IntegerRing(q=p), (c,) * length)
    return WittVec(p, ring, tuple(ring.from_int(x) for x in u.components))


def _transform_by_witt_arithmetic(f, p, level):
    """Reference for greenberg_transform: evaluate f term by term with
    witt_mul and witt_add on the symbolic component vectors."""
    src = f.ring
    names = [f"{v}_{k}" for v in src.gens for k in range(level + 1)]
    R = SymbolicRing(tuple(names), q=p)
    vecs = {
        v: WittVec(p, R, tuple(R.gen(f"{v}_{k}") for k in range(level + 1)))
        for v in src.gens
    }
    total = _embed_int(0, p, R, level + 1)
    for e, c in f.value.terms.items():
        term = _embed_int(c, p, R, level + 1)
        for v, k in zip(src.gens, e):
            for _ in range(k):
                term = witt_mul(term, vecs[v])
        total = witt_add(total, term)
    return R, total.components


def test_transform_matches_termwise_witt_arithmetic():
    polys = (
        lambda R: R.add(
            R.add(R.monomial(1, {"x": 2, "y": 1}), R.monomial(3, {"y": 1})),
            R.from_int(2),
        ),
        lambda R: R.sub(R.monomial(1, {"x": 3}), R.from_int(5)),
        lambda R: R.add(
            R.monomial(-7, {"x": 1, "y": 2}), R.sub(R.gen("x"), R.gen("y"))
        ),
    )
    for build in polys:
        f = sym_poly(("x", "y"), build)
        for p, level in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2)):
            cs = greenberg_transform(f, p, level)
            R, want = _transform_by_witt_arithmetic(f, p, level)
            assert cs.ring == R
            assert cs.polys == want


def test_transform_point_level_defining_property():
    """Evaluating the component system then identifying with the residue
    ring equals evaluating the source polynomial in the residue ring."""
    f = sym_poly(
        ("x", "y"), lambda R: R.add(R.mul(R.gen("x"), R.gen("x")), R.gen("y"))
    )
    # exhaustive at p = 2
    p, n = 2, 1
    cs = greenberg_transform(f, p, n)
    target = IntModRing(p ** (n + 1), q=p)
    base = IntModRing(p, q=p)
    for bits in itertools.product(range(p), repeat=2 * (n + 1)):
        xs, ys = bits[: n + 1], bits[n + 1:]
        values = {f"x_{k}": xs[k] for k in range(n + 1)}
        values.update({f"y_{k}": ys[k] for k in range(n + 1)})
        got = witt_to_residue(cs.evaluate(values)).value
        xres = witt_to_residue(WittVec.make(p, base, xs)).value
        yres = witt_to_residue(WittVec.make(p, base, ys)).value
        assert got == (xres * xres + yres) % target.m
    # sampled at p = 3, 5
    rng = random.Random(99)
    for p in (3, 5):
        n = 1
        cs = greenberg_transform(f, p, n)
        base = IntModRing(p, q=p)
        mod = p ** (n + 1)
        for _ in range(60):
            xs = [rng.randrange(p) for _ in range(n + 1)]
            ys = [rng.randrange(p) for _ in range(n + 1)]
            values = {f"x_{k}": xs[k] for k in range(n + 1)}
            values.update({f"y_{k}": ys[k] for k in range(n + 1)})
            got = witt_to_residue(cs.evaluate(values)).value
            xres = witt_to_residue(WittVec.make(p, base, xs)).value
            yres = witt_to_residue(WittVec.make(p, base, ys)).value
            assert got == (xres * xres + yres) % mod


def test_transform_rejects_non_symbolic_input():
    ring = IntModRing(4, q=2)
    with pytest.raises(PreconditionFailed):
        greenberg_transform(RingElem(ring, 1), 2, 1)


def test_non_prime_p_is_rejected():
    f = sym_poly(["x"], lambda R: R.mul(R.gen("x"), R.gen("x")))
    for p in (1, 4, 6):
        with pytest.raises(PreconditionFailed):
            greenberg_transform(f, p, 1)
        with pytest.raises(PreconditionFailed):
            group_law_shape(p, 2)
        with pytest.raises(PreconditionFailed):
            group_law_capped(p, 2, 1)


def test_sampled_axioms_need_a_sample():
    law = group_law_shape(2, 1)
    with pytest.raises(PreconditionFailed):
        verify_group_axioms(law, mode="sampled", rng=random.Random(1), samples=0)


def test_transform_json():
    f = sym_poly(("x",), lambda R: R.mul(R.gen("x"), R.gen("x")))
    cs = greenberg_transform(f, 2, 1)
    j = cs.to_json()
    assert j["p"] == 2 and j["level"] == 1
    assert len(j["components"]) == 2


# ---------------------------------------------------------------------------
# coordinate schemes


def test_shape_scheme_counts():
    # d coordinates for each of the two low coefficients, then a shrinking
    # tail: total d + d(d+1)/2 + ... laid out as (coefficient, slot) pairs
    for d in (1, 2, 3, 4):
        scheme = shape_coordinate_scheme(d)
        assert len(scheme) == 2 * d + sum(d - (j - 1) for j in range(2, d + 1))
    assert shape_coordinate_scheme(2) == [
        (0, 0), (0, 1), (1, 0), (1, 1), (2, 1),
    ]


def test_capped_scheme_matches_membership_valuations():
    for prec, cap in ((2, 2), (3, 1), (3, 2), (4, 2)):
        scheme = capped_coordinate_scheme(cap, prec)
        max_deg = cap * 2 ** (prec - 2)
        assert max(j for j, _ in scheme) == max_deg
        for j in range(max_deg + 1):
            slots = [s for jj, s in scheme if jj == j]
            pin = atilde_coefficient_valuation(cap, j, prec)
            assert slots == list(range(pin, prec))


# ---------------------------------------------------------------------------
# generated shape laws


def test_shape_law_anchor_relations():
    """The three clean composition relations in degree 2, as fixed
    reference points: constant, slope, and top coefficient."""
    for p in (2, 3, 5):
        law = group_law_shape(p, 2)
        S = law.ring
        by_name = dict(zip(law.coordinates, law.laws))
        a0, a1_0, a2_1 = S.gen("a0_0"), S.gen("a1_0"), S.gen("a2_1")
        a0r, a1_0r, a2_1r = S.gen("a0_0'"), S.gen("a1_0'"), S.gen("a2_1'")
        assert by_name["a0_0"] == S.add(a0, S.mul(a1_0, a0r))
        assert by_name["a1_0"] == S.mul(a1_0, a1_0r)
        sq = S.mul(a1_0r, a1_0r) if p != 2 else a1_0r
        assert by_name["a2_1"] == S.add(S.mul(a1_0, a2_1r), S.mul(sq, a2_1))


def test_shape_law_identity_point():
    for p, d in ((2, 2), (3, 2), (2, 3)):
        law = group_law_shape(p, d)
        e = law.identity_point()
        f = law.point_to_aut(e)
        assert f == identity_map(f.ring)
        assert law.aut_to_point(f) == e


def test_shape_law_point_count():
    law = group_law_shape(2, 2)
    pts = enumerate_points(law)
    assert len(pts) == 16
    law3 = group_law_shape(3, 2)
    assert len(enumerate_points(law3)) == 2 * 3 ** 4


def test_shape_law_isomorphic_to_composition_exhaustive():
    """Every pair of degree-2 coordinate tuples composes the same way the
    underlying polynomial maps do."""
    law = group_law_shape(2, 2)
    pts = enumerate_points(law)
    auts = {t: law.point_to_aut(t) for t in pts}
    for s in pts:
        for t in pts:
            direct = compose(auts[s], auts[t])
            assert law.compose_points(s, t) == law.aut_to_point(direct)


def test_shape_law_axioms_exhaustive_p2():
    rep = verify_group_axioms(group_law_shape(2, 2), "exhaustive")
    assert rep.all_ok
    assert rep.points_checked == 16
    assert rep.triples_checked == 16 ** 3


def test_exhaustive_axioms_refuse_past_the_triple_limit(monkeypatch):
    """The exhaustive mode counts (p - 1) * p^(free - 1) points before it
    enumerates anything and refuses more than the limit of triples."""
    with pytest.raises(TooLarge, match="sampled mode"):
        verify_group_axioms(group_law_shape(3, 2), "exhaustive")  # 162^3
    with pytest.raises(TooLarge, match="8192\\^3"):
        verify_group_axioms(group_law_shape(2, 4), "exhaustive")
    law = group_law_shape(2, 2)  # 16 points
    monkeypatch.setattr(gb, "_EXHAUSTIVE_TRIPLES", 16 ** 3)
    assert verify_group_axioms(law, "exhaustive").triples_checked == 16 ** 3
    monkeypatch.setattr(gb, "_EXHAUSTIVE_TRIPLES", 16 ** 3 - 1)
    with pytest.raises(TooLarge):
        verify_group_axioms(law, "exhaustive")
    # the sampled mode has no such limit
    rep = verify_group_axioms(law, "sampled", rng=random.Random(5), samples=20)
    assert rep.all_ok and rep.triples_checked == 20


def test_shape_law_axioms_sampled_p3():
    rep = verify_group_axioms(
        group_law_shape(3, 2), "sampled", rng=random.Random(21), samples=2000
    )
    assert rep.all_ok
    assert rep.triples_checked == 2000


def test_corrupted_law_fails_associativity():
    law = group_law_shape(3, 2)
    S = law.ring
    idx = law.coordinates.index("a2_1")
    # flip a sign in the top-coefficient relation
    bad_poly = S.sub(law.laws[idx], S.mul(S.from_int(2), law.laws[idx]))
    laws = list(law.laws)
    laws[idx] = bad_poly
    bad = GroupLaw(law.descriptor, laws)
    rng = random.Random(3)
    found = None
    for _ in range(200):
        a, b, c = (sample_point(bad, rng) for _ in range(3))
        if bad.compose_points(bad.compose_points(a, b), c) != bad.compose_points(
            a, bad.compose_points(b, c)
        ):
            found = (a, b, c)
            break
    assert found is not None
    rep = verify_group_axioms(bad, "sampled", rng=random.Random(4), samples=500)
    assert not rep.all_ok
    assert rep.counterexample is not None


def _witt_horner_laws(law):
    """The Z-level components of the Witt-Horner composite, aligned with
    the scheme of law."""
    composed = _compose_by_witt_horner(law)
    return [composed[j].components[slot] for j, slot in law.scheme]


def test_simplification_is_conservative_on_points():
    """The generated laws agree with the Z-level Witt-Horner composite at
    F_p points: exhaustive for p = 2, sampled for p = 3."""
    law = group_law_shape(2, 2)
    base = IntModRing(2, q=2)
    gens = law.ring.gens
    oracle = _witt_horner_laws(law)
    for bits in itertools.product(range(2), repeat=len(gens)):
        asg = dict(zip(gens, bits))
        for raw, simp in zip(oracle, law.laws):
            assert law.ring.substitute(raw, base, asg) == law.ring.substitute(
                simp, base, asg
            )
    rng = random.Random(77)
    law3 = group_law_shape(3, 2)
    base3 = IntModRing(3, q=3)
    oracle3 = _witt_horner_laws(law3)
    for _ in range(300):
        asg = {g: rng.randrange(3) for g in law3.ring.gens}
        for raw, simp in zip(oracle3, law3.laws):
            assert law3.ring.substitute(raw, base3, asg) == law3.ring.substitute(
                simp, base3, asg
            )


def test_tower_restriction_reproduces_smaller_law():
    """Dropping the top coefficient and the last component slot of a
    degree-3 law leaves exactly the degree-2 law."""
    for p in (2, 3):
        big = group_law_shape(p, 3)
        small = group_law_shape(p, 2)
        keep = set(small.coordinates) | {n + "'" for n in small.coordinates}
        rename = {}
        for g in big.ring.gens:
            rename[g] = (
                small.ring.gen(g) if g in keep else small.ring.zero()
            )
        by_name_big = dict(zip(big.coordinates, big.laws))
        for name, small_law in zip(small.coordinates, small.laws):
            big_poly = by_name_big[name]
            # the restricted relations may not mention dropped coordinates
            for e, _ in big_poly.terms.items():
                for g, k in zip(big.ring.gens, e):
                    if k and g not in keep:
                        raise AssertionError(
                            f"law for {name} leaks dropped coordinate {g}"
                        )
            assert big.ring.substitute(big_poly, small.ring, rename) == small_law


def _compose_by_witt_horner(law):
    """Reference for the generator: the composite of the symbolic left and
    right coefficient vectors by Horner's rule, with every coefficient
    product and sum done by witt_mul and witt_add."""
    p, S, length = law.p, law.ring, law.length
    top = max(j for j, _ in law.scheme)
    free = set(law.scheme)

    def side(mark):
        return [
            WittVec(p, S, tuple(
                S.gen(f"a{j}_{slot}{mark}") if (j, slot) in free else S.zero()
                for slot in range(length)
            ))
            for j in range(top + 1)
        ]

    fs, gs = side(""), side("'")
    acc = [fs[-1]]
    for f in reversed(fs[:-1]):
        out = [_embed_int(0, p, S, length)] * (len(acc) + len(gs) - 1)
        for i, u in enumerate(acc):
            for k, v in enumerate(gs):
                out[i + k] = witt_add(out[i + k], witt_mul(u, v))
        out[0] = witt_add(out[0], f)
        acc = out
    return acc


def test_raw_laws_match_witt_horner_composition():
    """Each law is the mod-p normal form of the Z-level Witt-Horner
    composite."""
    laws = [group_law_shape(p, d) for p, d in ((2, 2), (3, 2), (2, 3))]
    laws += [group_law_capped(p, prec, 1) for p, prec in ((2, 2), (3, 2), (2, 3))]
    for law in laws:
        want = tuple(
            simplify_mod_p(law.ring, c, law.p) for c in _witt_horner_laws(law)
        )
        assert law.laws[: len(want)] == want, law.descriptor
        assert law.raw_laws == law.laws


def test_shape_law_p2_d5_term_count():
    law = group_law_shape(2, 5)
    assert sum(len(a.terms) for a in law.laws) == 1334


def test_point_to_aut_rejects_invalid():
    law = group_law_shape(2, 2)
    with pytest.raises(PreconditionFailed):
        law.point_to_aut((0, 0, 0, 0, 0))  # slope digit zero
    ring = IntModRing(4, q=2)
    with pytest.raises(ShapeMismatch):
        law.aut_to_point(TruncPoly(ring, [0, 1, 1]))  # unit top coefficient
    with pytest.raises(ShapeMismatch):
        law.aut_to_point(TruncPoly(ring, [0, 1, 0, 2]))  # degree too high


# ---------------------------------------------------------------------------
# degree-capped laws for the full group


def _perturbed(law, name, change):
    """law with the law f of one coordinate replaced by change(ring, f)."""
    laws = list(law.laws)
    i = law.coordinates.index(name)
    laws[i] = change(law.ring, laws[i])
    return GroupLaw(law.descriptor, laws)


def _cross(S, f):  # the added term is zero when either factor is the identity
    return S.add(f, S.mul(S.gen("a0_0"), S.gen("a0_0'")))


def _report(mode, points, triples, axioms, witness):
    identity, associativity, inverses = axioms
    return {
        "mode": mode, "points_checked": points, "triples_checked": triples,
        "identity": identity, "associativity": associativity,
        "inverses": inverses, "counterexample": witness,
    }


# corrupted laws with the full reports of both modes, frozen: the counts
# and the first witness pin down the order of the checks
FROZEN_REPORTS = [
    (
        lambda: _perturbed(group_law_shape(2, 2), "a0_0", _cross),
        _report("exhaustive", 16, 1041, (True, False, False),
                [[0, 0, 1, 1, 0], [1, 0, 1, 0, 0], [1, 0, 1, 0, 0]]),
        _report("sampled", 200, 5, (True, False, False),
                [[1, 0, 1, 1, 0], [1, 1, 1, 1, 0], [1, 1, 1, 1, 0]]),
    ),
    (
        # a0_1'' = a0_1: the right factor and the carries dropped
        lambda: _perturbed(group_law_shape(2, 2), "a0_1", lambda S, f: S.gen("a0_1")),
        _report("exhaustive", 16, 4096, (False, True, False), [[0, 1, 1, 0, 0]]),
        _report("sampled", 200, 200, (False, True, False), [[1, 1, 1, 1, 0]]),
    ),
    (
        lambda: _perturbed(group_law_capped(2, 2, 1), "a0_1", _cross),
        _report("exhaustive", 8, 512, (True, True, True), None),
        _report("sampled", 200, 200, (True, True, False), [[1, 0, 1, 0, 1]]),
    ),
    (
        lambda: _perturbed(group_law_capped(2, 3, 1), "a0_1", _cross),
        _report("exhaustive", 64, 4162, (True, False, False), [
            [1, 0, 0, 1, 0, 0, 0, 1], [1, 0, 0, 1, 0, 0, 0, 1],
            [0, 1, 0, 1, 0, 0, 0, 1],
        ]),
        _report("sampled", 200, 0, (True, False, False), [
            [0, 1, 0, 1, 0, 0, 0, 1], [1, 0, 0, 1, 0, 1, 0, 1],
            [1, 0, 1, 1, 1, 0, 1, 1],
        ]),
    ),
]


@pytest.mark.parametrize("build, exhaustive, sampled", FROZEN_REPORTS)
def test_corrupted_law_reports_frozen(build, exhaustive, sampled):
    bad = build()
    assert verify_group_axioms(bad, "exhaustive").to_json() == exhaustive
    rep = verify_group_axioms(bad, "sampled", rng=random.Random(7), samples=200)
    assert rep.to_json() == sampled


def test_sampled_failure_stops_drawing_triples():
    """The sampled mode draws each triple as it checks it, in the order a
    list of all of them had, so a failure at the fifth triple returns at
    once with the report of a run of 400 samples, which draw the same 400
    identity points, however many triples were asked for."""
    bad = FROZEN_REPORTS[0][0]()
    small = verify_group_axioms(bad, "sampled", rng=random.Random(7), samples=400)
    assert not small.associativity_ok and small.triples_checked < 10
    t0 = time.perf_counter()
    rep = verify_group_axioms(bad, "sampled", rng=random.Random(7), samples=200000)
    assert time.perf_counter() - t0 < 1.0
    assert rep.to_json() == small.to_json()


# shape (p, d) and capped (p, precision, degree_cap) laws
LAW_SPECS = [
    ("shape", 2, 2), ("shape", 3, 2), ("shape", 5, 2), ("shape", 7, 2),
    ("shape", 2, 3), ("shape", 3, 3), ("shape", 2, 4),
    ("capped", 2, 2, 1), ("capped", 2, 2, 2), ("capped", 3, 2, 1),
    ("capped", 3, 2, 2), ("capped", 2, 3, 1), ("capped", 3, 3, 1),
]


def test_group_law_is_its_descriptor_and_laws():
    for kind, *args in LAW_SPECS:
        law = (group_law_shape if kind == "shape" else group_law_capped)(*args)
        assert GroupLaw(law.descriptor, law.laws) == law
        assert law.has_aux == (kind == "capped")
    with pytest.raises(PreconditionFailed, match="unknown law kind"):
        GroupLaw({"kind": "affine", "p": 2}, ())
    with pytest.raises(PreconditionFailed, match="not a prime"):
        GroupLaw({"kind": "shape", "p": 4, "d": 2}, ())


def test_capped_law_degree_one_is_affine():
    law = group_law_capped(2, 2, 1)
    assert law.coordinates == ("a0_0", "a0_1", "a1_0", "a1_1", "y")
    S = law.ring
    by_name = dict(zip(law.coordinates, law.laws))
    assert by_name["a0_0"] == S.add(S.gen("a0_0"), S.mul(S.gen("a1_0"), S.gen("a0_0'")))
    assert by_name["a1_0"] == S.mul(S.gen("a1_0"), S.gen("a1_0'"))
    assert by_name["y"] == S.mul(S.gen("y"), S.gen("y'"))
    rep = verify_group_axioms(law, "exhaustive")
    assert rep.all_ok and rep.points_checked == 8


def test_capped_law_point_count_matches_enumeration():
    law = group_law_capped(2, 2, 2)
    pts = enumerate_points(law)
    ring = IntModRing(4, q=2)
    brute = 0
    for a in range(4):
        for b in range(4):
            for c in range(4):
                f = TruncPoly(ring, [a, b, c])
                if f.is_automorphism():
                    brute += 1
    assert len(pts) == brute == 16


def test_capped_law_unit_relation_preserved():
    law = group_law_capped(3, 2, 2)
    rng = random.Random(31)
    for _ in range(100):
        s, t = sample_point(law, rng), sample_point(law, rng)
        st = law.compose_points(s, t)
        unit = st[law.coordinates.index("a1_0")]
        assert (unit * st[-1]) % 3 == 1


def test_capped_law_composition_oracle_random_pairs():
    rng = random.Random(606)
    for p, prec, cap in ((2, 2, 2), (3, 2, 3), (2, 3, 2)):
        law = group_law_capped(p, prec, cap)
        for _ in range(150):
            s, t = sample_point(law, rng), sample_point(law, rng)
            direct = compose(law.point_to_aut(s), law.point_to_aut(t))
            assert law.compose_points(s, t) == law.aut_to_point(direct)


def test_capped_law_axioms_precision_three():
    for p in (2, 3):
        law = group_law_capped(p, 3, 1)
        rep = verify_group_axioms(
            law, "sampled", rng=random.Random(p), samples=400
        )
        assert rep.all_ok


# ---------------------------------------------------------------------------
# reports and serialization


def test_axiom_report_json():
    rep = verify_group_axioms(group_law_shape(2, 2), "exhaustive")
    j = rep.to_json()
    assert j["identity"] and j["associativity"] and j["inverses"]
    assert j["counterexample"] is None


def test_group_law_json_and_text():
    law = group_law_shape(2, 2)
    j = law.to_json()
    assert set(j["laws"]) == set(law.coordinates)
    assert j["unit_coordinate"] == "a1_0"
    txt = law.render_text()
    assert "a1_0'' = a1_0*a1_0'" in txt
    cap = group_law_capped(2, 2, 1)
    assert "relation" in cap.to_json()


def test_golden_shape_laws():
    for p, d in ((2, 2), (3, 2)):
        path = GOLDEN / f"group_law_shape_p{p}_d{d}.json"
        want = json.loads(path.read_text())
        got = json.loads(json.dumps(group_law_shape(p, d).to_json()))
        assert got == want, f"generated law for p={p}, d={d} drifted"
