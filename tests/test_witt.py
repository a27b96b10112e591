"""Witt vector arithmetic against the ghost-map defining equations."""

import itertools
import json
import pathlib
import random

import pytest

from affaut.errors import (
    IntegralityViolation,
    PreconditionFailed,
    RingMismatch,
    ShapeMismatch,
    TooLarge,
)
from affaut import witt as wt
from affaut.rings import IntegerRing, IntModRing, SymbolicRing, TruncSeriesRing
from affaut.witt import (
    UniversalWittLaw,
    WittVec,
    derive_witt_laws,
    ghost_components,
    ghost_map,
    residue_to_witt,
    unghost,
    witt_add,
    witt_mul,
    witt_to_residue,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"


def fp_vec(p, values):
    ring = IntModRing(p, q=p)
    return WittVec.make(p, ring, values)


def int_vec(p, values):
    return WittVec.make(p, IntegerRing(q=p), values)


def witt_zero(p, ring, length):
    return WittVec(p, ring, (ring.zero(),) * length)


def integer_witt(c, p, ring, length):
    """The image of the integer c under the unique ring map into Witt
    vectors: the vector with constant ghost (c, c, ..., c), solved over
    the integers and reduced into ring when ring is Z/m."""
    if isinstance(ring, IntModRing):
        u = unghost(p, IntegerRing(q=p), (c,) * length)
        return WittVec(p, ring, tuple(ring.from_int(x) for x in u.components))
    return unghost(p, ring, (ring.from_int(c),) * length)


def witt_one(p, ring, length):
    return WittVec(p, ring, (ring.one(),) + (ring.zero(),) * (length - 1))


def witt_neg(u):
    """-u through the ghost map: negate the ghosts over the integers, solve
    back, and reduce into u's ring."""
    zr = IntegerRing(q=u.p)
    lifted = WittVec(u.p, zr, tuple(int(c) for c in u.components))
    neg = unghost(u.p, zr, tuple(-g for g in ghost_components(lifted)))
    return WittVec(u.p, u.ring, tuple(u.ring.from_int(c) for c in neg.components))


# ---------------------------------------------------------------------------
# ghost polynomials


def witt_polynomial(p, j):
    """w_j in x_0 ... x_j, as the ghost map computes it on the vector of
    symbols (x_0, ..., x_j)."""
    R = SymbolicRing(tuple(f"x{i}" for i in range(j + 1)), q=p)
    return ghost_map(WittVec(p, R, tuple(R.gen(f"x{i}") for i in range(j + 1))))[j]


def test_witt_polynomial_degree_zero():
    w0 = witt_polynomial(2, 0)
    assert w0.value == w0.ring.gen("x0")


def test_witt_polynomial_level_one():
    for p in (2, 3, 5):
        w1 = witt_polynomial(p, 1)
        R = w1.ring
        x0, x1 = R.gen("x0"), R.gen("x1")
        expect = R.add(_pow(R, x0, p), R.mul(R.from_int(p), x1))
        assert w1.value == expect


def test_witt_polynomial_p2_level_two():
    w2 = witt_polynomial(2, 2)
    R = w2.ring
    x0, x1, x2 = R.gen("x0"), R.gen("x1"), R.gen("x2")
    expect = R.add(
        R.add(_pow(R, x0, 4), R.mul(R.from_int(2), _pow(R, x1, 2))),
        R.mul(R.from_int(4), x2),
    )
    assert w2.value == expect


def _pow(ring, a, e):
    out = ring.one()
    for _ in range(e):
        out = ring.mul(out, a)
    return out


def test_ghost_map_symbolic_level_one():
    for p in (2, 3):
        R = SymbolicRing(("x0", "x1"), q=p)
        u = WittVec(p, R, (R.gen("x0"), R.gen("x1")))
        g = ghost_components(u)
        assert g[0] == R.gen("x0")
        assert g[1] == R.add(_pow(R, R.gen("x0"), p), R.mul(R.from_int(p), R.gen("x1")))


def test_ghost_map_frozen_values():
    u = int_vec(2, [3, 5])
    g = [e.value for e in ghost_map(u)]
    assert g == [3, 19]
    z = int_vec(2, [0, 0, 0])
    assert [e.value for e in ghost_map(z)] == [0, 0, 0]


def test_unghost_inverts_ghost():
    rng = random.Random(411)
    for p in (2, 3, 5):
        for _ in range(50):
            n = rng.randrange(1, 4)
            u = int_vec(p, [rng.randrange(-9, 10) for _ in range(n + 1)])
            back = unghost(p, u.ring, ghost_components(u))
            assert back == u


def test_unghost_rejects_non_integral_ghost():
    with pytest.raises(IntegralityViolation):
        unghost(2, IntegerRing(q=2), [1, 0])


def test_unghost_needs_torsion_free_ring():
    with pytest.raises(PreconditionFailed):
        unghost(2, IntModRing(4, q=2), [1, 0])


# ---------------------------------------------------------------------------
# universal laws


def test_law_level_zero_components():
    law = derive_witt_laws(2, 0)
    R = law.ring
    assert law.sum_polys[0] == R.add(R.gen("x0"), R.gen("y0"))
    assert law.prod_polys[0] == R.mul(R.gen("x0"), R.gen("y0"))


def test_law_level_one_frozen_p2():
    # solving (x0+y0)^2 + 2 s1 = x0^2 + 2 x1 + y0^2 + 2 y1 by hand
    # gives s1 = x1 + y1 - x0 y0, and the product equation gives
    # m1 = x0^2 y1 + x1 y0^2 + 2 x1 y1.
    law = derive_witt_laws(2, 1)
    R = law.ring
    x0, x1, y0, y1 = (R.gen(g) for g in ("x0", "x1", "y0", "y1"))
    s1 = R.sub(R.add(x1, y1), R.mul(x0, y0))
    assert law.sum_polys[1] == s1
    m1 = R.add(
        R.add(R.mul(_pow(R, x0, 2), y1), R.mul(x1, _pow(R, y0, 2))),
        R.mul(R.from_int(2), R.mul(x1, y1)),
    )
    assert law.prod_polys[1] == m1


def test_law_level_one_frozen_p3():
    law = derive_witt_laws(3, 1)
    R = law.ring
    x0, x1, y0, y1 = (R.gen(g) for g in ("x0", "x1", "y0", "y1"))
    # s1 = x1 + y1 - x0^2 y0 - x0 y0^2  (the binomial coefficients of
    # (x0+y0)^3 divided by 3)
    s1 = R.sub(
        R.add(x1, y1),
        R.add(
            R.mul(_pow(R, x0, 2), y0),
            R.mul(x0, _pow(R, y0, 2)),
        ),
    )
    assert law.sum_polys[1] == s1
    m1 = R.add(
        R.add(R.mul(_pow(R, x0, 3), y1), R.mul(x1, _pow(R, y0, 3))),
        R.mul(R.from_int(3), R.mul(x1, y1)),
    )
    assert law.prod_polys[1] == m1


def test_law_level_one_frozen_p5_sum():
    law = derive_witt_laws(5, 1)
    R = law.ring
    x0, x1, y0, y1 = (R.gen(g) for g in ("x0", "x1", "y0", "y1"))
    mix = R.zero()
    for k, c in ((1, 1), (2, 2), (3, 2), (4, 1)):
        term = R.mul(R.from_int(c), R.mul(_pow(R, x0, k), _pow(R, y0, 5 - k)))
        mix = R.add(mix, term)
    assert law.sum_polys[1] == R.sub(R.add(x1, y1), mix)


def test_law_defining_equations_hold_symbolically():
    for p, n in ((2, 2), (3, 1), (5, 1), (2, 3)):
        law = derive_witt_laws(p, n)
        R = law.ring
        xs = WittVec(p, R, tuple(R.gen(f"x{i}") for i in range(n + 1)))
        ys = WittVec(p, R, tuple(R.gen(f"y{i}") for i in range(n + 1)))
        gx, gy = ghost_components(xs), ghost_components(ys)
        gs = ghost_components(WittVec(p, R, law.sum_polys))
        gm = ghost_components(WittVec(p, R, law.prod_polys))
        for j in range(n + 1):
            assert R.is_zero(R.sub(gs[j], R.add(gx[j], gy[j])))
            assert R.is_zero(R.sub(gm[j], R.mul(gx[j], gy[j])))


def test_law_rederivation_with_zeroed_slot_matches():
    """Each s_j is forced: recomputing it from the j-th ghost equation with
    the j-th slot zeroed out must land on the identical polynomial."""
    for p, n in ((2, 2), (3, 2), (5, 1)):
        law = derive_witt_laws(p, n)
        R = law.ring
        for polys, combine in ((law.sum_polys, R.add), (law.prod_polys, R.mul)):
            for j in range(1, n + 1):
                xs = WittVec(p, R, tuple(R.gen(f"x{i}") for i in range(j + 1)))
                ys = WittVec(p, R, tuple(R.gen(f"y{i}") for i in range(j + 1)))
                target = combine(
                    ghost_components(xs)[j], ghost_components(ys)[j]
                )
                zeroed = WittVec(p, R, tuple(polys[:j]) + (R.zero(),))
                rest = ghost_components(zeroed)[j]
                recovered = R.exact_div_q(R.sub(target, rest), j)
                assert recovered == polys[j]


def test_law_derivation_survives_generator_permutation():
    """Deriving in a ring whose generators are declared y-first gives the
    same polynomials once transported back."""
    p, n = 2, 2
    law = derive_witt_laws(p, n)
    names = tuple(f"y{i}" for i in range(n + 1)) + tuple(
        f"x{i}" for i in range(n + 1)
    )
    R2 = SymbolicRing(names, q=p)
    xs = WittVec(p, R2, tuple(R2.gen(f"x{i}") for i in range(n + 1)))
    ys = WittVec(p, R2, tuple(R2.gen(f"y{i}") for i in range(n + 1)))
    s2 = witt_add(xs, ys)
    m2 = witt_mul(xs, ys)
    assignment = {g: law.ring.gen(g) for g in names}
    for mine, theirs in zip(law.sum_polys, s2.components):
        assert mine == R2.substitute(theirs, law.ring, assignment)
    for mine, theirs in zip(law.prod_polys, m2.components):
        assert mine == R2.substitute(theirs, law.ring, assignment)


def test_law_cache_returns_same_object():
    assert derive_witt_laws(2, 1) is derive_witt_laws(2, 1)


def evaluate_law(law, polys, u, v):
    """u + v (polys = law.sum_polys) or u * v (law.prod_polys) by
    substituting the components of u and v into the universal laws."""
    assignment = {f"x{i}": c for i, c in enumerate(u.components)}
    assignment.update({f"y{i}": c for i, c in enumerate(v.components)})
    comps = tuple(law.ring.substitute(s, u.ring, assignment) for s in polys)
    return WittVec(u.p, u.ring, comps)


def test_law_evaluation_matches_lifted_arithmetic():
    rng = random.Random(7616)
    for p, n in ((2, 2), (3, 1), (5, 1)):
        law = derive_witt_laws(p, n)
        for _ in range(60):
            u = fp_vec(p, [rng.randrange(p) for _ in range(n + 1)])
            v = fp_vec(p, [rng.randrange(p) for _ in range(n + 1)])
            assert evaluate_law(law, law.sum_polys, u, v) == witt_add(u, v)
            assert evaluate_law(law, law.prod_polys, u, v) == witt_mul(u, v)


# ---------------------------------------------------------------------------
# arithmetic over concrete rings


def test_add_frozen_f2():
    assert witt_add(fp_vec(2, [1, 0]), fp_vec(2, [1, 0])) == fp_vec(2, [0, 1])


def test_mul_frozen_f2():
    assert witt_mul(fp_vec(2, [1, 1]), fp_vec(2, [1, 1])) == fp_vec(2, [1, 0])


def test_lifted_arithmetic_refuses_past_the_bit_ceiling(monkeypatch):
    """Over Z/m with m not prime the components are lifted to Z, where the
    top ghost component holds about p^level * bits(m - 1) bits, counted k
    times over Z/p^k; past _LIFT_BITS witt_add and witt_mul refuse before
    lifting anything.  Over F_p nothing is lifted: the vectors add and
    multiply as residues mod p^(level+1), under any ceiling."""
    u = fp_vec(3, [2, 1, 2])
    monkeypatch.setattr(wt, "_LIFT_BITS", 1)
    x = int(witt_to_residue(u).value)
    assert witt_to_residue(witt_add(u, u)).value == 2 * x % 27
    assert witt_to_residue(witt_mul(u, u)).value == x * x % 27
    w = WittVec.make(3, IntModRing(9, q=3), [8, 8, 8])  # 3^2 * 4 bits, k = 2
    monkeypatch.setattr(wt, "_LIFT_BITS", 72)
    assert witt_add(w, w) == wt._reduce_vec(witt_add(wt._lift_vec(w), wt._lift_vec(w)), w.ring)
    monkeypatch.setattr(wt, "_LIFT_BITS", 71)
    for op in (witt_add, witt_mul):
        with pytest.raises(TooLarge) as err:
            op(w, w)
        assert "witt-iso" not in str(err.value)
    # torsion-free rings are not lifted, so the ceiling does not apply
    assert witt_add(int_vec(3, [2, 1, 2]), int_vec(3, [0, 0, 0])) == int_vec(3, [2, 1, 2])


def test_fp_arithmetic_matches_the_ghost_route_on_1000_cases():
    """Over F_p witt_add and witt_mul go through the residue isomorphism;
    the ghost route (lift to Z, combine ghosts, back-solve, reduce) gives
    the same vectors on random pairs for p in {2, 3, 5, 7} at levels up to
    8, 7, 4 and 3, where the lifts stay small."""
    rng = random.Random(461)
    top = {2: 8, 3: 7, 5: 4, 7: 3}
    cases = 0
    for i in range(520):
        p = (2, 3, 5, 7)[i % 4]
        level = rng.randint(0, top[p])
        u, v = (fp_vec(p, [rng.randrange(p) for _ in range(level + 1)]) for _ in "uv")
        lu, lv = wt._lift_vec(u), wt._lift_vec(v)
        for op in (witt_add, witt_mul):
            assert op(u, v) == wt._reduce_vec(op(lu, lv), u.ring), (p, level, op)
            cases += 1
    assert cases >= 1000


def test_add_zero_is_identity():
    rng = random.Random(99)
    for p in (2, 3, 5):
        for n in range(3):
            u = fp_vec(p, [rng.randrange(p) for _ in range(n + 1)])
            z = witt_zero(p, u.ring, n + 1)
            assert witt_add(u, z) == u
            assert witt_mul(u, witt_one(p, u.ring, n + 1)) == u


def test_neg_cancels():
    rng = random.Random(100)
    for p in (2, 3):
        for _ in range(20):
            u = fp_vec(p, [rng.randrange(p) for _ in range(3)])
            z = witt_zero(p, u.ring, 3)
            assert witt_add(u, witt_neg(u)) == z
            w = int_vec(p, [rng.randrange(-5, 6) for _ in range(3)])
            assert witt_add(w, witt_neg(w)) == witt_zero(p, w.ring, 3)


def test_ring_axioms_exhaustive_p2():
    p = 2
    for n in (0, 1, 2):
        ring = IntModRing(p, q=p)
        vecs = []
        count = p ** (n + 1)
        for code in range(count):
            digits = []
            c = code
            for _ in range(n + 1):
                digits.append(c % p)
                c //= p
            vecs.append(WittVec.make(p, ring, digits))
        for u in vecs:
            for v in vecs:
                assert witt_add(u, v) == witt_add(v, u)
                assert witt_mul(u, v) == witt_mul(v, u)
        for u in vecs:
            for v in vecs:
                for w in vecs:
                    assert witt_add(witt_add(u, v), w) == witt_add(u, witt_add(v, w))
                    assert witt_mul(witt_mul(u, v), w) == witt_mul(u, witt_mul(v, w))
                    left = witt_mul(u, witt_add(v, w))
                    right = witt_add(witt_mul(u, v), witt_mul(u, w))
                    assert left == right


def test_ring_axioms_sampled_p3_p5():
    rng = random.Random(2024)
    for p in (3, 5):
        for n in (1, 2, 3):
            for _ in range(40):
                u = fp_vec(p, [rng.randrange(p) for _ in range(n + 1)])
                v = fp_vec(p, [rng.randrange(p) for _ in range(n + 1)])
                w = fp_vec(p, [rng.randrange(p) for _ in range(n + 1)])
                assert witt_add(u, v) == witt_add(v, u)
                assert witt_add(witt_add(u, v), w) == witt_add(u, witt_add(v, w))
                assert witt_mul(witt_mul(u, v), w) == witt_mul(u, witt_mul(v, w))
                assert witt_mul(u, witt_add(v, w)) == witt_add(
                    witt_mul(u, v), witt_mul(u, w)
                )


def test_ghost_homomorphism_random_integer_vectors():
    rng = random.Random(515)
    for p in (2, 3, 5):
        for _ in range(150):
            n = rng.randrange(1, 4)
            u = int_vec(p, [rng.randrange(-20, 21) for _ in range(n + 1)])
            v = int_vec(p, [rng.randrange(-20, 21) for _ in range(n + 1)])
            gu, gv = ghost_components(u), ghost_components(v)
            gs = ghost_components(witt_add(u, v))
            gm = ghost_components(witt_mul(u, v))
            for j in range(n + 1):
                assert gs[j] == gu[j] + gv[j]
                assert gm[j] == gu[j] * gv[j]


def test_integer_embedding():
    for p in (2, 3):
        for c in (-3, -1, 0, 1, 2, 7):
            u = integer_witt(c, p, IntegerRing(q=p), 3)
            assert all(g == c for g in ghost_components(u))
    assert integer_witt(1, 2, IntModRing(2, q=2), 3) == witt_one(
        2, IntModRing(2, q=2), 3
    )
    # the embedded integers add and multiply like integers
    a = integer_witt(5, 3, IntModRing(3, q=3), 3)
    b = integer_witt(8, 3, IntModRing(3, q=3), 3)
    assert witt_add(a, b) == integer_witt(13, 3, IntModRing(3, q=3), 3)
    assert witt_mul(a, b) == integer_witt(40, 3, IntModRing(3, q=3), 3)


def test_shape_and_ring_guards():
    u = fp_vec(2, [1, 0])
    with pytest.raises(ShapeMismatch):
        witt_add(u, fp_vec(2, [1, 0, 1]))
    with pytest.raises(ShapeMismatch):
        witt_add(u, fp_vec(3, [1, 0]))
    with pytest.raises(RingMismatch):
        witt_add(u, int_vec(2, [1, 0]))
    series = TruncSeriesRing("fp", 2, p=2)
    sv = WittVec(2, series, (series.one(), series.zero()))
    with pytest.raises(PreconditionFailed):
        witt_add(sv, sv)


# ---------------------------------------------------------------------------
# the residue-ring identification


def test_residue_frozen_values():
    assert witt_to_residue(fp_vec(2, [0, 0])).value == 0
    assert witt_to_residue(fp_vec(2, [1, 0])).value == 1
    assert witt_to_residue(fp_vec(2, [0, 1])).value == 2
    assert witt_to_residue(fp_vec(2, [1, 1])).value == 3


def test_residue_roundtrip_and_homomorphism_exhaustive():
    for p in (2, 3):
        for n in (0, 1, 2, 3):
            ring = IntModRing(p, q=p)
            mod = p ** (n + 1)
            vecs = []
            for code in range(mod):
                digits = []
                c = code
                for _ in range(n + 1):
                    digits.append(c % p)
                    c //= p
                vecs.append(WittVec.make(p, ring, digits))
            images = set()
            for u in vecs:
                r = witt_to_residue(u)
                assert r.ring.m == mod
                images.add(r.value)
                assert residue_to_witt(r) == u
            assert images == set(range(mod))
            for u in vecs:
                for v in vecs:
                    ru = witt_to_residue(u).value
                    rv = witt_to_residue(v).value
                    assert witt_to_residue(witt_add(u, v)).value == (ru + rv) % mod
                    assert witt_to_residue(witt_mul(u, v)).value == (ru * rv) % mod


def test_residue_from_plain_integer():
    u = residue_to_witt(7, p=2, level=2)
    assert witt_to_residue(u).value == 7


def test_residue_lift_independence():
    rng = random.Random(31337)
    for p in (2, 3, 5):
        n = 3
        mod = p ** (n + 1)
        for _ in range(100):
            comps = [rng.randrange(p) for _ in range(n + 1)]
            canonical = 0
            signed = 0
            for i, c in enumerate(comps):
                alt = c if c <= p // 2 else c - p
                canonical += p ** i * c ** (p ** (n - i))
                signed += p ** i * alt ** (p ** (n - i))
            assert canonical % mod == signed % mod
            assert witt_to_residue(fp_vec(p, comps)).value == canonical % mod


def _residue_by_exact_powers(p, comps):
    # the defining formula, with every power taken over the integers
    n = len(comps) - 1
    return sum(p ** i * c ** (p ** (n - i)) for i, c in enumerate(comps)) % p ** (n + 1)


def test_residue_maps_match_the_exact_formula():
    for p in (2, 3, 5):
        for n in range(4):
            for comps in itertools.product(range(p), repeat=n + 1):
                x = _residue_by_exact_powers(p, comps)
                assert witt_to_residue(fp_vec(p, comps)).value == x
                assert residue_to_witt(x, p=p, level=n) == fp_vec(p, comps)


def test_residue_roundtrip_at_high_level():
    # exact powers here would have 7^7 = 823543-fold exponents
    for comps in ([6] * 8, [3] * 8, [0, 6, 1, 5, 2, 4, 3, 6]):
        u = fp_vec(7, comps)
        assert residue_to_witt(witt_to_residue(u)) == u


def test_p_must_be_prime():
    for p in (1, 4, 6, 9):
        with pytest.raises(PreconditionFailed):
            derive_witt_laws(p, 1)
        with pytest.raises(PreconditionFailed):
            residue_to_witt(3, p=p, level=1)
        with pytest.raises(PreconditionFailed):
            WittVec.make(p, IntegerRing(), [1, 2])
        with pytest.raises(PreconditionFailed):
            unghost(p, IntegerRing(), [1, 3])


# ---------------------------------------------------------------------------
# serialization


def test_wittvec_json_roundtrip():
    u = fp_vec(3, [2, 0, 1])
    j = u.to_json()
    assert j["p"] == 3
    assert WittVec.from_json(j) == u


def test_law_json_roundtrip():
    law = derive_witt_laws(3, 1)
    j = law.to_json()
    assert j["p"] == 3 and j["level"] == 1
    back = UniversalWittLaw.from_json(json.loads(json.dumps(j)))
    assert back.sum_polys == law.sum_polys
    assert back.prod_polys == law.prod_polys


def test_golden_laws():
    for p, n in ((2, 2), (3, 1), (5, 1)):
        path = GOLDEN / f"witt_law_p{p}_n{n}.json"
        want = json.loads(path.read_text())
        got = json.loads(json.dumps(derive_witt_laws(p, n).to_json()))
        assert got == want, f"law for p={p}, n={n} drifted from the golden file"


def test_teichmuller_lift_is_the_frobenius_limit():
    """Newton's root of x^(p-1) = 1 mod p^k congruent to c is the power
    c^(p^(k-1)) mod p^k that the lift used to be."""
    for p in (2, 3, 5, 7, 11, 13):
        for k in range(1, 12):
            for c in range(p):
                assert wt._teichmuller(c, p, k) == pow(c, p ** (k - 1), p ** k)
