"""End-to-end gate.

Each test below re-checks one advertised guarantee of the package on a
fixed grid, prints exactly one PASS or FAIL line with the measured wall
time, and enforces a runtime budget where one is part of the guarantee.
All comparisons are exact; there are no tolerances anywhere.
"""

import json
import os
import random

import time

from affaut import (
    IntModRing,
    ad,
    ad_matrix,
    check_abelian_kernel,
    compose,
    composition_series,
    derive_witt_laws,
    ghost_map,
    group_law_shape,
    identity_map,
    invert,
    invert_with_depth,
    kernel_element,
    member,
    nd_coordinates,
    nd_element,
    oracle_invert,
    order,
    residue_to_witt,
    sample_automorphism,
    sample_filtered,
    sample_kernel_element,
    scalar_mul,
    specialize_matrix,
    universal_element,
    verify_group_axioms,
    witt_add,
    witt_mul,
    witt_to_residue,
    WittVec,
)
from affaut.autgroup import SubgroupSpec, TruncPoly, _commutation_probe
from affaut.greenberg import enumerate_points
from affaut.rings import IntegerRing

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _gate(num, budget, body):
    t0 = time.perf_counter()
    try:
        detail = body()
    except BaseException as e:
        dt = time.perf_counter() - t0
        print(f"FAIL criterion {num}: {type(e).__name__}: {e} [{dt:.2f}s]")
        raise
    dt = time.perf_counter() - t0
    if budget is not None and dt >= budget:
        print(f"FAIL criterion {num}: over budget, {dt:.2f}s >= {budget:.0f}s")
        raise AssertionError(f"criterion {num} exceeded its {budget:.0f}s budget")
    clock = f"[{dt:.2f}s < {budget:.0f}s]" if budget is not None else f"[{dt:.2f}s]"
    print(f"PASS criterion {num}: {detail} {clock}")


def test_criterion_01_closure_of_the_degree_filtered_subgroups():
    """1000 pairs per (p, n, d) in {2,3,5} x {3..6} x {1..4}: the composite
    of two filtered automorphisms, and its inverse, stay filtered."""

    def body():
        rng = random.Random(101)
        pairs = 0
        for p in (2, 3, 5):
            for n in range(3, 7):
                ring = IntModRing(p ** n, q=p)
                for d in range(1, 5):
                    spec = SubgroupSpec.parse(f"atilde:{d}")
                    for _ in range(1000):
                        f = sample_filtered(ring, d, rng)
                        g = sample_filtered(ring, d, rng)
                        h = compose(f, g)
                        assert member(h, spec)
                        assert member(invert(h), spec)
                        pairs += 1
        return f"{pairs} composites and their inverses stayed degree-filtered"

    _gate(1, 30.0, body)


def test_criterion_02_doubling_bound_iterates_of_the_sparse_generator():
    """T + qT^d + q^2T^2d + q^3T^4d + q^4T^8d + q^5T^16d at precision 6 is
    filtered, has finite order, and every iterate obeys the doubling
    degree bounds level by level."""

    def body():
        orders = []
        for p in (2, 3):
            ring = IntModRing(p ** 6, q=p)
            for d in (1, 2, 3):
                coeffs = [0] * (16 * d + 1)
                coeffs[1] = 1
                for k in range(1, 6):
                    j = (1 << (k - 1)) * d
                    coeffs[j] = (coeffs[j] + p ** k) % ring.m
                psi = TruncPoly(ring, coeffs)
                spec = SubgroupSpec.parse(f"atilde:{d}")
                assert member(psi, spec)
                o = order(psi)
                assert o is not None
                g = identity_map(ring)
                for _ in range(o):
                    g = compose(psi, g)
                    assert member(g, spec)
                assert g == identity_map(ring)
                orders.append(f"p={p},d={d}:{o}")
        return "orders " + " ".join(orders) + "; all iterates within the bounds"

    _gate(2, 10.0, body)


def test_criterion_03_degree_four_map_has_finite_order():
    def body():
        orders = []
        for p in (2, 3, 5):
            ring = IntModRing(p ** 4, q=p)
            f = TruncPoly(ring, [1, 1, p, p * p, p ** 3])
            assert f.is_automorphism()
            o = order(f)
            assert o is not None
            g = identity_map(ring)
            for _ in range(o):
                g = compose(f, g)
                dg = g.degree()
                assert dg is None or dg <= 4
            assert g == identity_map(ring)
            orders.append(f"p={p}:{o}")
        return "automorphisms of degree <= 4 with orders " + " ".join(orders)

    _gate(3, 5.0, body)


def test_criterion_04_inversion_routes_depth_and_two_sided_inverses():
    """1000 automorphisms per (p, n) on the criterion-1 grid: both
    inversion routes agree, compose to T on both sides, and the descent
    depth is exactly ceil(log2 n).

    The samples pin a unit constant term and a q-valuation-one quadratic
    term so no reduction level falls into the affine or near-identity
    closed forms, which legitimately return shallower depths."""

    def body():
        rng = random.Random(404)
        tested = 0
        for p in (2, 3, 5):
            for n in range(3, 7):
                ring = IntModRing(p ** n, q=p)
                ident = identity_map(ring)
                want = (n - 1).bit_length()
                for _ in range(1000):
                    coeffs = [
                        ring.rand_unit(rng),
                        ring.rand_unit(rng),
                        p * ring.rand_unit(rng) % ring.m,
                    ]
                    for _ in range(3, n + 1):
                        coeffs.append(p * rng.randrange(p ** (n - 1)) % ring.m)
                    f = TruncPoly(ring, coeffs)
                    g, depth = invert_with_depth(f)
                    assert depth == want
                    assert compose(f, g) == ident
                    assert compose(g, f) == ident
                    assert oracle_invert(f) == g
                    tested += 1
        return f"{tested} inverses, halving route == lifting route, depth == ceil(log2 n)"

    _gate(4, 30.0, body)


def test_criterion_05_witt_laws_ghost_homomorphism_and_residue_isomorphism():
    def body():
        # the level-0 laws are plain sum and product
        for p in (2, 3, 5):
            law = derive_witt_laws(p, 1)
            R = law.ring
            assert law.sum_polys[0] == R.add(R.gen("x0"), R.gen("y0"))
            assert law.prod_polys[0] == R.mul(R.gen("x0"), R.gen("y0"))

        # ghost map turns vector arithmetic into componentwise arithmetic
        rng = random.Random(505)
        zring = IntegerRing()
        trials = 0
        for p in (2, 3, 5):
            for i in range(10000):
                n = 1 + i % 3
                u = WittVec.make(
                    p, zring, [rng.randrange(-999, 1000) for _ in range(n + 1)]
                )
                v = WittVec.make(
                    p, zring, [rng.randrange(-999, 1000) for _ in range(n + 1)]
                )
                gu = [e.value for e in ghost_map(u)]
                gv = [e.value for e in ghost_map(v)]
                gs = [e.value for e in ghost_map(witt_add(u, v))]
                gm = [e.value for e in ghost_map(witt_mul(u, v))]
                assert gs == [a + b for a, b in zip(gu, gv)]
                assert gm == [a * b for a, b in zip(gu, gv)]
                trials += 1

        # vectors over the prime field are exactly the residues mod p^(n+1)
        import itertools

        for p, n in ((2, 1), (2, 2), (3, 1), (3, 2)):
            base = IntModRing(p, q=p)
            modulus = p ** (n + 1)
            vecs = [
                WittVec.make(p, base, digits)
                for digits in itertools.product(range(p), repeat=n + 1)
            ]
            residues = [int(witt_to_residue(u).value) for u in vecs]
            assert sorted(residues) == list(range(modulus))
            for u in vecs:
                back = residue_to_witt(int(witt_to_residue(u).value), p=p, level=n)
                assert back.components == u.components
            for u, ru in zip(vecs, residues):
                for v, rv in zip(vecs, residues):
                    s = int(witt_to_residue(witt_add(u, v)).value)
                    m = int(witt_to_residue(witt_mul(u, v)).value)
                    assert s == (ru + rv) % modulus
                    assert m == (ru * rv) % modulus
        return (
            f"level-0 laws are x0+y0 and x0*y0; ghost map additive and "
            f"multiplicative on {trials} integer pairs; residue map is a "
            f"ring isomorphism on all four small grids"
        )

    _gate(5, 60.0, body)


def test_criterion_06_degree_two_law_relations_axioms_and_point_dictionary():
    """The generated degree-2 composition law carries the three clean
    relations (constant, slope, top coefficient), satisfies the group
    axioms exhaustively at p = 2, and its 16 points are exactly the
    degree-2 shape automorphisms over Z/4, compatibly with composition.

    At p = 2 the slope-squared factor appears Fermat-reduced, since the
    stored laws are canonical pointwise forms over F_p."""

    def body():
        for p in (2, 3, 5):
            law = group_law_shape(p, 2)
            S = law.ring
            by_name = dict(zip(law.coordinates, law.laws))
            a0, a1, a2 = S.gen("a0_0"), S.gen("a1_0"), S.gen("a2_1")
            a0r, a1r, a2r = S.gen("a0_0'"), S.gen("a1_0'"), S.gen("a2_1'")
            assert by_name["a0_0"] == S.add(a0, S.mul(a1, a0r))
            assert by_name["a1_0"] == S.mul(a1, a1r)
            slope_sq = S.mul(a1r, a1r) if p != 2 else a1r
            assert by_name["a2_1"] == S.add(S.mul(a1, a2r), S.mul(slope_sq, a2))

        law2 = group_law_shape(2, 2)
        pts = enumerate_points(law2)
        assert len(pts) == 16
        report = verify_group_axioms(law2, mode="exhaustive")
        assert report.all_ok

        auts = {}
        for t in pts:
            f = law2.point_to_aut(t)
            assert law2.aut_to_point(f) == t
            auts[t] = f
        ring4 = IntModRing(4, q=2)
        shape = set()
        for c0 in range(4):
            for c1 in (1, 3):
                for c2 in (0, 2):
                    shape.add(TruncPoly(ring4, [c0, c1, c2]))
        assert set(auts.values()) == shape
        for s in pts:
            for t in pts:
                assert law2.point_to_aut(law2.compose_points(s, t)) == compose(
                    auts[s], auts[t]
                )
        return (
            "three anchor relations verbatim (p=2 Fermat-reduced); 16-point "
            "exhaustive axioms pass; point dictionary is an isomorphism onto "
            "the degree-2 shape group over Z/4"
        )

    _gate(6, 20.0, body)


def test_criterion_07_coordinate_count_report():
    """Deterministic report: observed coordinate count of the degree-d law
    against the closed-form prediction d + d(d+1)/2, for d <= 3."""

    def body():
        rows = []
        all_match = True
        for d in (1, 2, 3):
            law = group_law_shape(2, d)
            observed = len(law.scheme)
            predicted = d + d * (d + 1) // 2
            rows.append(f"d={d}:{observed}/{predicted}")
            all_match = all_match and observed == predicted
        verdict = "matches" if all_match else "DIFFERS from"
        return (
            "observed/predicted coordinates " + " ".join(rows)
            + f"; {verdict} the closed-form count"
        )

    _gate(7, None, body)


def test_criterion_08_conjugation_linearity_and_closed_form():
    """ad(f, c*g) == c*ad(f, g) at every strictly-abelian level, 1000
    samples per (p, n); each ad call checks its closed form c by the
    defining equation c . f = f . g internally and raises on any
    mismatch."""

    def body():
        rng = random.Random(808)
        tested = 0
        for p in (2, 3, 5):
            for n in range(3, 7):
                ring = IntModRing(p ** n, q=p)
                levels = [r for r in range((n + 1) // 2, n) if 2 * r > n]
                per = 1000 // len(levels)
                for r in levels:
                    for _ in range(per):
                        c = ring.rand(rng)
                        g = sample_kernel_element(ring, r, n, rng)
                        f = sample_automorphism(ring, n, rng)
                        lhs = ad(f, scalar_mul(c, g, r), r)
                        rhs = scalar_mul(c, ad(f, g, r), r)
                        assert lhs == rhs
                        tested += 1
        return f"{tested} conjugations linear in the correction, each closed form satisfying c.f = f.g"

    _gate(8, 30.0, body)


def test_criterion_09_frozen_conjugation_matrices_and_specializations():
    """The symbolic conjugation matrices match their golden files (whose
    entries are re-derived coefficientwise in the adjoint unit tests), and
    specializing the symbols commutes with building the matrix numerically
    at 200 random points per setting."""

    def body():
        rng = random.Random(909)
        jobs = (
            ("n:3,1", 3, 3, True, "conj_matrix_n31.json"),
            ("n:4,1", 4, 4, True, "conj_matrix_n41.json"),
            ("k:4,2", 4, 3, False, "conj_matrix_k42.json"),
        )
        points = 0
        for spec, n, degree, allow, fname in jobs:
            f_sym = universal_element(n, degree=degree)
            m_sym = ad_matrix(f_sym, spec, allow_nonabelian=allow)
            with open(os.path.join(GOLDEN, fname), encoding="utf-8") as fh:
                assert m_sym.to_json() == json.load(fh)
            for _ in range(200):
                p = rng.choice((2, 3, 5, 7))
                ring = IntModRing(p ** n, q=p)
                assignment = {
                    "a": ring.rand(rng),
                    "b": ring.rand_unit(rng),
                    "c": ring.rand(rng),
                    "d": ring.rand(rng),
                    "e": ring.rand(rng),
                    "q": p,
                }
                coeffs = [assignment["a"], assignment["b"]]
                for jdx, name in enumerate(("c", "d", "e")[: degree - 1], start=2):
                    coeffs.append(ring.q_power(jdx - 1) * assignment[name] % ring.m)
                f_num = TruncPoly(ring, coeffs)
                m_num = ad_matrix(f_num, spec, allow_nonabelian=allow)
                target = ring.at_precision(m_sym.ring.truncation)
                m_spec = specialize_matrix(m_sym, target, assignment)
                assert m_spec.rows == m_num.rows
                assert m_spec.warning == m_num.warning
                points += 1
        return (
            "both graded matrices and the full-kernel table match their "
            f"frozen entries; {points} numeric specializations agree; no divergence"
        )

    _gate(9, 20.0, body)


def test_criterion_10_solvable_filtration_kernels_abelian():
    """Precision-halving chains over Z/p^n (p = 2, 3; n <= 4) and over
    Z/12, Z/72: every kernel re-checked abelian, exhaustively at degree
    cap 4 for p = 2 and on 10^4 sampled pairs otherwise."""

    def body():
        rng = random.Random(1010)
        kernels = 0
        exhaust_pairs = 0
        for p in (2, 3):
            for n in (2, 3, 4):
                ring = IntModRing(p ** n, q=p)
                steps = composition_series(ring, rng=rng)
                assert steps[0].from_exponent == n
                assert steps[-1].to_exponent == 1
                assert all(s.kernel_abelian for s in steps)
                for s in steps:
                    cur = IntModRing(p ** s.from_exponent, q=p)
                    if p == 2:
                        ok, cnt, wit = check_abelian_kernel(
                            cur, s.to_exponent, mode="exhaustive", deg_cap=4
                        )
                        exhaust_pairs += cnt
                    else:
                        ok, cnt, wit = check_abelian_kernel(
                            cur,
                            s.to_exponent,
                            mode="sampled",
                            samples=10000,
                            deg_cap=4,
                            rng=rng,
                        )
                    assert ok, wit
                    kernels += 1
        for m in (12, 72):
            ring = IntModRing(m)
            steps = composition_series(ring, rng=rng)
            assert all(s.kernel_abelian for s in steps)
            assert steps[-1].to_modulus == IntModRing(m).radical
            for s in steps:
                ok, cnt, wit = _commutation_probe(
                    IntModRing(s.from_modulus), s.to_modulus, 10000, 4, rng
                )
                assert ok, wit
                kernels += 1
        return (
            f"{kernels} kernels abelian ({exhaust_pairs} exhaustive pairs at "
            "p=2, 10^4 sampled pairs elsewhere)"
        )

    _gate(10, 60.0, body)


def test_criterion_11_low_congruence_kernel_is_not_abelian():
    """Negative control at precision 4, congruence level 1: random search
    finds a non-commuting pair, and the pinned pair T+2T^2, T+2T^3 over
    Z/16 separates at the quartic coefficient (8 versus 12)."""

    def body():
        rng = random.Random(1111)
        ring = IntModRing(16, q=2)
        ok, checked, wit = check_abelian_kernel(
            ring, 1, mode="sampled", samples=4000, deg_cap=4, rng=rng
        )
        assert not ok and wit is not None
        f, g = wit
        assert compose(f, g) != compose(g, f)
        f0 = TruncPoly(ring, [0, 1, 2])
        g0 = TruncPoly(ring, [0, 1, 0, 2])
        left = compose(f0, g0)
        right = compose(g0, f0)
        assert left != right
        assert int(left.coeff(4).value) == 8
        assert int(right.coeff(4).value) == 12
        return f"non-commuting pair found on sample {checked}; pinned pair splits 8 vs 12 at T^4"

    _gate(11, 10.0, body)


def test_criterion_12_slab_addition_uses_d_plus_1_coordinates_not_d():
    """The last filtration slab composes by coordinatewise addition on
    1000 random pairs per (p, d), d in {2, 3, 4}.  The coordinate count
    is d+1 (constant through degree-d terms), one more than a rank-d
    reading would give; the test name records that mismatch.  d = 1 is
    excluded: the slab construction needs q^(2(d-1)) = 0."""

    def body():
        rng = random.Random(1212)
        pairs = 0
        for p in (2, 3, 5):
            for d in (2, 3, 4):
                ring = IntModRing(p ** d, q=p)
                for _ in range(1000):
                    u = [rng.randrange(p) for _ in range(d + 1)]
                    v = [rng.randrange(p) for _ in range(d + 1)]
                    fu = nd_element(ring, u)
                    fv = nd_element(ring, v)
                    w = [(x + y) % p for x, y in zip(u, v)]
                    both = compose(fu, fv)
                    assert both == nd_element(ring, w)
                    assert both == compose(fv, fu)
                    assert nd_coordinates(fu) == [x % p for x in u]
                    assert len(nd_coordinates(fu)) == d + 1
                    pairs += 1
        return f"{pairs} slab pairs compose additively on their d+1 coordinates"

    _gate(12, None, body)
