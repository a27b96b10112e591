"""Conjugation on congruence subgroups: closed form, matrices, module
structure.  The three wide matrices checked entry by entry near the end
were worked out by hand from the closed form
f . (T + q^r h) . finv = T + q^r h(finv) f'(finv) before being frozen
here and in tests/golden/."""

import json
import math
import pathlib
import random

import pytest

from affaut.adjoint import (
    AdjointMatrix,
    ad,
    ad_matrix,
    check_kernel_element,
    h_part,
    kernel_element,
    module_decomposition,
    scalar_mul,
    specialize_matrix,
    universal_element,
)
from affaut.autgroup import (
    TruncPoly,
    _kernel_h,
    compose,
    identity_map,
    sample_automorphism,
    sample_filtered,
    sample_kernel_element,
)
from affaut.errors import (
    AlgebraError,
    KernelMismatch,
    NotAbelian,
    NotAnAutomorphism,
    PreconditionFailed,
    RingMismatch,
    ShapeMismatch,
)
from affaut.inversion import invert, oracle_invert
from affaut.rings import (
    IntegerRing,
    IntModRing,
    TruncSeriesRing,
    parse_ring_flag,
    universal_coefficient_ring,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_kernel_element_roundtrip():
    ring = IntModRing(16, q=2)
    g = kernel_element(ring, 2, [3, 1, 0, 2])
    assert g == TruncPoly(ring, [12, 5, 0, 8])
    h = h_part(g, 2)
    assert h.ring.truncation == 2
    assert h == TruncPoly(h.ring, [3, 1, 0, 2])


def test_kernel_element_rejections():
    ring = IntModRing(16, q=2)
    with pytest.raises(KernelMismatch):
        check_kernel_element(TruncPoly(ring, [1, 1]), 2)
    with pytest.raises(PreconditionFailed):
        kernel_element(ring, 0, [1])
    with pytest.raises(PreconditionFailed):
        kernel_element(ring, 5, [1])
    with pytest.raises(PreconditionFailed):
        kernel_element(IntegerRing(q=2), 1, [1])
    with pytest.raises(NotAnAutomorphism):
        check_kernel_element(TruncPoly(ring, [0, 1, 1]), 1)
    # at full congruence there is no residue ring for h to live in
    with pytest.raises(PreconditionFailed):
        h_part(identity_map(ring), 4)


def test_scalar_mul_frozen():
    ring = IntModRing(16, q=2)
    g = TruncPoly(ring, [0, 1, 0, 4])  # T + 4 T^3, level 2
    assert scalar_mul(3, g, 2) == TruncPoly(ring, [0, 1, 0, 12])
    assert scalar_mul(1, g, 2) == g
    assert scalar_mul(0, g, 2) == identity_map(ring)
    # 4 = q^(n-r) lands in the annihilator
    assert scalar_mul(4, g, 2) == identity_map(ring)


def test_scalar_mul_is_a_module_action():
    """Over the abelian range, composition of level-r elements is
    addition of h parts, and rescaling distributes over it."""
    rng = random.Random(2401)
    for p in (2, 3, 5):
        ring = IntModRing(p ** 4, q=p)
        for _ in range(20):
            g = sample_kernel_element(ring, 2, 4, rng)
            c1 = ring.rand(rng)
            c2 = ring.rand(rng)
            once = scalar_mul(c1, scalar_mul(c2, g, 2), 2)
            assert once == scalar_mul(c1 * c2, g, 2)
            split = compose(scalar_mul(c1, g, 2), scalar_mul(c2, g, 2))
            assert split == scalar_mul(c1 + c2, g, 2)


def test_ad_frozen_example():
    ring = IntModRing(9, q=3)
    f = TruncPoly(ring, [1, 1])
    g = TruncPoly(ring, [0, 1, 3])
    assert ad(f, g, 1) == TruncPoly(ring, [3, 4, 3])


def test_ad_by_identity_fixes_everything():
    ring = IntModRing(27, q=3)
    rng = random.Random(7)
    for _ in range(10):
        g = sample_kernel_element(ring, 2, 3, rng)
        assert ad(identity_map(ring), g, 2) == g


def test_ad_routes_agree_randomized():
    """ad always checks its closed form c by the defining equation
    c . f = f . g and raises if it fails; running it over a spread of
    rings is that check at work."""
    rng = random.Random(5512)
    count = 0
    for p in (2, 3, 5):
        for n in (2, 3, 4, 5, 6):
            ring = IntModRing(p ** n, q=p)
            for r in range((n + 1) // 2, n):
                for _ in range(6):
                    f = sample_automorphism(ring, n, rng)
                    g = sample_kernel_element(ring, r, n, rng)
                    out = ad(f, g, r)
                    assert out.identity_congruence() >= r
                    count += 1
    assert count >= 150


def test_ad_at_full_level_is_the_identity():
    """At r = n the kernel is {T} and no residue ring is left: ad returns
    T without building a precision-0 ring, and still refuses a conjugator
    that is not an automorphism."""
    rng = random.Random(1601)
    for ring in (IntModRing(3 ** 4, q=3), TruncSeriesRing("fp", 3, p=2)):
        n = ring.truncation
        ident = identity_map(ring)
        for _ in range(5):
            f = sample_automorphism(ring, n, rng)
            assert ad(f, ident, n) == ident
    ring = IntModRing(9, q=3)
    with pytest.raises(NotAnAutomorphism):
        ad(TruncPoly(ring, [0, 3]), identity_map(ring), 2)


def test_ad_over_the_generic_ring_matches_direct_conjugation():
    f = universal_element(4, 3)
    ring = f.ring
    finv = invert(f)
    for r, h in ((2, "ac"), (2, "be"), (3, "db"), (4, "e")):
        g = kernel_element(ring, r, [ring.gen(x) for x in h])
        assert ad(f, g, r) == f.compose(g).compose(finv)


def _corrupted_closed_form(kernel_poly, j):
    """_kernel_poly with q^(n-1) T^j added to its result: since f is an
    automorphism, (c + q^(n-1) T^j) . f differs from c . f mod q^n."""

    def closed_form(ring, gen, hs):
        delta = [ring.zero()] * j + [ring.q_power(ring.truncation - 1)]
        return kernel_poly(ring, gen, hs) + TruncPoly._raw(ring, delta)

    return closed_form


def test_ad_and_oracle_invert_differential_1000_cases(monkeypatch):
    """On 1000 seeded cases over Z/p^n (p in 2, 3, 5, 7) and F_p[t]/(t^e),
    with r from ceil(n/2) to n: ad equals f . g . invert(f) composed
    here, oracle_invert equals invert, and ad with its closed form
    corrupted still raises AlgebraError."""
    import affaut.adjoint as adjoint

    rng = random.Random(1616)
    rings = [IntModRing(p ** n, q=p) for p in (2, 3, 5, 7) for n in range(2, 8)]
    rings += [TruncSeriesRing("fp", e, p=p) for p in (2, 3, 5) for e in range(2, 7)]
    cases = []
    for i in range(1000):
        ring = rings[i % len(rings)]
        n = ring.truncation
        r = rng.randrange((n + 1) // 2, n + 1)
        if i % 2:
            f = sample_filtered(ring, rng.choice((1, 2, 4)), rng)
        else:
            f = sample_automorphism(ring, rng.randrange(1, n + 2), rng)
        g = sample_kernel_element(ring, r, rng.randrange(0, n + 2), rng)
        cases.append((f, g, r, rng.randrange(n + 1)))
    for f, g, r, _ in cases:
        finv = invert(f)
        assert ad(f, g, r) == f.compose(g).compose(finv)
        assert oracle_invert(f) == finv
    kernel_poly = adjoint._kernel_poly
    for f, g, r, j in cases:
        monkeypatch.setattr(adjoint, "_kernel_poly", _corrupted_closed_form(kernel_poly, j))
        with pytest.raises(AlgebraError, match="closed form"):
            ad(f, g, r)


def test_ad_is_linear_in_the_correction():
    rng = random.Random(914)
    for p, n, r in ((2, 4, 2), (3, 4, 2), (5, 3, 2), (2, 6, 3)):
        ring = IntModRing(p ** n, q=p)
        for _ in range(10):
            f = sample_automorphism(ring, n, rng)
            g = sample_kernel_element(ring, r, n, rng)
            c = ring.rand(rng)
            assert ad(f, scalar_mul(c, g, r), r) == scalar_mul(c, ad(f, g, r), r)


def test_ad_is_additive():
    rng = random.Random(915)
    for p, n, r in ((2, 4, 2), (3, 4, 2), (2, 5, 3), (5, 4, 2)):
        ring = IntModRing(p ** n, q=p)
        for _ in range(10):
            f = sample_automorphism(ring, n, rng)
            g1 = sample_kernel_element(ring, r, n, rng)
            g2 = sample_kernel_element(ring, r, n, rng)
            lhs = ad(f, compose(g1, g2), r)
            rhs = compose(ad(f, g1, r), ad(f, g2, r))
            assert lhs == rhs


def test_ad_rejections():
    ring = IntModRing(16, q=2)
    other = IntModRing(81, q=3)
    f = TruncPoly(ring, [1, 3])
    g = kernel_element(ring, 2, [1, 1])
    with pytest.raises(NotAbelian):
        ad(f, kernel_element(ring, 1, [1]), 1)
    with pytest.raises(KernelMismatch):
        ad(f, TruncPoly(ring, [2, 1]), 2)
    with pytest.raises(RingMismatch):
        ad(TruncPoly(other, [1, 1]), g, 2)


def is_identity(m):
    ring = m.ring
    one, zero = ring.one(), ring.zero()
    return all(
        e == (one if i == j else zero)
        for i, row in enumerate(m.rows)
        for j, e in enumerate(row)
    )


def matrix_product(a, b):
    """The rows of a times b over their common entry ring."""
    assert a.ring == b.ring and a.size == b.size
    ring, k = a.ring, a.size
    rows = []
    for i in range(k):
        row = []
        for j in range(k):
            acc = ring.zero()
            for l in range(k):
                acc = ring.add(acc, ring.mul(a.rows[i][l], b.rows[l][j]))
            row.append(acc)
        rows.append(tuple(row))
    return AdjointMatrix(a.spec, a.mode, ring, tuple(rows), False)


def test_ad_matrix_of_identity_conjugator():
    """The graded table of T is the identity matrix.  The full-kernel
    table is diagonal but picks up q at the weight-3 slot, whose
    generator has h-coordinate q rather than 1."""
    ring = IntModRing(16, q=2)
    ident = identity_map(ring)
    m1 = ad_matrix(ident, "n:4,1", allow_nonabelian=True)
    m2 = ad_matrix(ident, "k:4,2")
    assert is_identity(m1) and m1.size == 5
    assert m1.warning and not m2.warning
    expected = tuple(
        tuple(
            (2 if i == 4 else 1) if i == j else 0 for j in range(5)
        )
        for i in range(5)
    )
    assert m2.rows == expected


def _shape_sample(ring, n, rng):
    """A conjugator whose T^j coefficient carries q^(j-1); composites of
    such stay inside the degree window the matrix tabulates."""
    coeffs = [ring.rand(rng), ring.rand_unit(rng)]
    for j in range(2, n + 1):
        coeffs.append(ring.mul(ring.q_power(j - 1), ring.rand(rng)))
    return TruncPoly(ring, coeffs)


def test_graded_matrix_is_multiplicative():
    """The graded table is a genuine representation: the matrix of a
    composite is the product of the matrices, in the same order."""
    rng = random.Random(3311)
    for p in (2, 3):
        ring = IntModRing(p ** 4, q=p)
        for spec in ("n:4,1", "n:4,2", "n:4,3"):
            for _ in range(10):
                f = _shape_sample(ring, 4, rng)
                g = _shape_sample(ring, 4, rng)
                kw = {"allow_nonabelian": spec == "n:4,1"}
                big = ad_matrix(compose(f, g), spec, **kw)
                prod = matrix_product(ad_matrix(f, spec, **kw), ad_matrix(g, spec, **kw))
                assert big.rows == prod.rows


def test_full_kernel_table_reproduces_the_action():
    """Applying the weight-aware column combination to an arbitrary
    kernel element's coordinates reproduces conjugation itself, which
    is the sense in which the full-kernel table is linear algebra."""
    rng = random.Random(4412)
    for p in (2, 3, 5):
        ring = IntModRing(p ** 4, q=p)
        er = ring.at_precision(2)
        for _ in range(10):
            f = _shape_sample(ring, 4, rng)
            m = ad_matrix(f, "k:4,2")
            assert m.ring == er
            # x = T + q^2(v_0 + v_1 T + ... + v_4 T^4) with q | v_4
            vs = [er.rand(rng) for _ in range(4)] + [
                er.mul(er.q_power(1), er.rand(rng))
            ]
            x = kernel_element(ring, 2, vs)
            image = h_part(ad(f, x, 2), 2)
            combo = [er.zero()] * 5
            for j in range(5):
                c = er.exact_div_q(vs[j], max(2, j - 1) - 2)
                for i in range(5):
                    combo[i] = er.add(combo[i], er.mul(c, m.rows[i][j]))
            assert tuple(combo) == image.raw_coeffs() + (er.zero(),) * (
                5 - len(image.raw_coeffs())
            )


def test_top_slab_lies_in_the_matrix_kernel():
    """Elements T + q^(n-1) h conjugate every basis correction to itself
    up to terms the entry reduction kills, so their matrix is the
    identity."""
    rng = random.Random(88)
    for p in (2, 3, 5):
        ring = IntModRing(p ** 4, q=p)
        unit_table = ad_matrix(identity_map(ring), "k:4,2")
        for _ in range(8):
            f = kernel_element(
                ring, 3, [ring.rand(rng) for _ in range(5)]
            )
            assert is_identity(ad_matrix(f, "n:4,1", allow_nonabelian=True))
            assert ad_matrix(f, "k:4,2").rows == unit_table.rows


def test_ad_matrix_rejections():
    ring = IntModRing(16, q=2)
    f = TruncPoly(ring, [1, 1])
    with pytest.raises(NotAbelian):
        ad_matrix(f, "n:4,1")
    with pytest.raises(NotAbelian):
        ad_matrix(f, "k:4,1")
    with pytest.raises(PreconditionFailed):
        ad_matrix(f, "a:3")
    with pytest.raises(PreconditionFailed):
        ad_matrix(f, "k:3,2")  # precision mismatch
    with pytest.raises(NotAnAutomorphism):
        ad_matrix(TruncPoly(ring, [0, 2]), "k:4,2")


def _direct_table(f, flavor, r):
    """ad_matrix by direct conjugation: column j is the h-part of
    f . g_j . invert(f) for the basis correction g_j, at full precision;
    "shape" when a column leaves the degree-n window."""
    ring = f.ring
    n = ring.truncation
    entry = ring.at_precision(1 if flavor == "n" else n - r)
    finv = invert(f)
    columns = []
    for j in range(n + 1):
        w = r if flavor == "n" else max(r, j - 1)
        g = kernel_element(ring, w, [0] * j + [1])
        col = _kernel_h(f.compose(g).compose(finv), r, entry)
        if any(not entry.is_zero(x) for x in col[n + 1 :]):
            return "shape"
        columns.append(col[: n + 1] + [entry.zero()] * (n + 1 - len(col)))
    return entry, tuple(tuple(c[i] for c in columns) for i in range(n + 1))


def _corrupted_column(closed_form, column):
    """_closed_form with q^(n-r-1) T^column added to its result on its
    column-th call: the lift of the column then moves by q^(n-1) T^column,
    which changes c . f mod q^n."""
    calls = []

    def corrupted(u, terms, w, r):
        k = closed_form(u, terms, w, r)
        calls.append(None)
        if len(calls) != column + 1:
            return k
        low = k.ring
        delta = [low.zero()] * column + [low.q_power(low.truncation - 1)]
        return k + TruncPoly._raw(low, delta)

    return corrupted


def test_ad_matrix_differential_against_direct_conjugation(monkeypatch):
    """On 1000 seeded cases over Z/p^n and F_p[t]/(t^e), both flavors and
    every level 1..n-1, and on the symbolic universal_element for n <= 5:
    ad_matrix equals the table of direct conjugations, raises
    ShapeMismatch exactly where a direct column leaves the window, and
    with one column of its closed form corrupted raises AlgebraError
    inside and outside the abelian range."""
    import affaut.adjoint as adjoint

    rng = random.Random(1818)
    rings = [IntModRing(p ** n, q=p) for p in (2, 3, 5) for n in range(2, 7)]
    rings += [TruncSeriesRing("fp", e, p=p) for p in (2, 3) for e in range(2, 7)]
    cases = []
    for i in range(1000):
        ring = rings[i % len(rings)]
        n = ring.truncation
        if i % 3:
            f = _shape_sample(ring, n, rng)
        else:
            f = sample_automorphism(ring, rng.randrange(1, n + 2), rng)
        cases.append((f, rng.choice("nk"), rng.randrange(1, n), "numeric"))
    for n in range(2, 6):
        f = universal_element(n)
        cases += [(f, fl, r, "symbolic") for fl in "nk" for r in range(1, n)]
    kept = []
    for f, flavor, r, mode in cases:
        spec = f"{flavor}:{f.ring.truncation},{r}"
        want = _direct_table(f, flavor, r)
        if want == "shape":
            with pytest.raises(ShapeMismatch):
                ad_matrix(f, spec, allow_nonabelian=True)
            continue
        m = ad_matrix(f, spec, allow_nonabelian=True)
        assert (m.ring, m.rows, m.mode) == want + (mode,)
        assert m.warning == (2 * r < f.ring.truncation)
        kept.append((f, spec, mode, m.warning))
    assert len(cases) // 2 < len(kept) < len(cases)
    closed_form = adjoint._closed_form
    corrupted = kept[::10] + [case for case in kept if case[2] == "symbolic"]
    assert {warning for *_, warning in corrupted} == {True, False}
    for f, spec, mode, _ in corrupted:
        column = rng.randrange(f.ring.truncation + 1)
        monkeypatch.setattr(adjoint, "_closed_form", _corrupted_column(closed_form, column))
        with pytest.raises(AlgebraError, match="closed form"):
            ad_matrix(f, spec, allow_nonabelian=True)


def test_ad_matrix_sees_an_error_common_to_every_column(monkeypatch):
    """The equation on the sum of the basis corrections weighs an error
    shared by all n + 1 columns by n + 1, which vanishes where
    (n + 1) q^(n-1) = 0, as over Z/8, F_2[t]/(t^3) and Z/3^5; the second
    equation, on column 0 alone, still sees it.  With 1 added to
    coefficient 0 of every column, every table is refused."""
    import affaut.adjoint as adjoint

    closed_form = adjoint._closed_form

    def shifted(u, terms, w, r):
        k = closed_form(u, terms, w, r)
        return k + TruncPoly._raw(k.ring, [k.ring.one()])

    monkeypatch.setattr(adjoint, "_closed_form", shifted)
    cases = [
        (TruncPoly(IntModRing(8, q=2), [1, 3, 2]), "k:3,2"),
        (TruncPoly(TruncSeriesRing("fp", 3, p=2), [(1,), (1, 1), (0, 1)]), "n:3,2"),
        (TruncPoly(IntModRing(3 ** 5, q=3), [2, 1, 3, 9]), "k:5,4"),
        (TruncPoly(IntModRing(27, q=3), [1, 2, 3]), "k:3,2"),  # seen by the sum
    ]
    for f, spec in cases:
        with pytest.raises(AlgebraError, match="closed form"):
            ad_matrix(f, spec)


# ---------------------------------------------------------------------------
# the three frozen symbolic matrices


def _affine_action_entries(ring, size):
    """Entry (i, j) = C(j, i) (-a)^(j-i) b^(1-j): the coordinates of
    (T - a)^j b^(1-j), which is where conjugation by a + bT + (higher
    q-order terms) sends the degree-j correction once entries are read
    mod q."""
    a = ring.gen("a")
    rows = []
    for i in range(size):
        row = []
        for j in range(size):
            if i > j:
                row.append(ring.zero())
                continue
            c = ring.from_int(math.comb(j, i) * (-1) ** (j - i))
            for _ in range(j - i):
                c = ring.mul(c, a)
            bpow = ring.monomial(1, {"b": 1}) if j == 0 else ring.monomial(
                1, {}, bk=j - 1
            )
            row.append(ring.mul(c, bpow))
        rows.append(tuple(row))
    return tuple(rows)


def test_graded_matrix_precision_3_frozen():
    f = universal_element(3)
    m = ad_matrix(f, "n:3,1", allow_nonabelian=True)
    assert m.size == 4
    assert m.ring.truncation == 1
    assert m.rows == _affine_action_entries(m.ring, 4)
    with (GOLDEN / "conj_matrix_n31.json").open() as fh:
        assert json.load(fh) == m.to_json()


def test_graded_matrix_precision_4_frozen():
    f = universal_element(4)
    m = ad_matrix(f, "n:4,1", allow_nonabelian=True)
    assert m.size == 5
    assert m.rows == _affine_action_entries(m.ring, 5)
    # the degree-4 coefficient e is invisible mod q, like c and d
    for row in m.rows:
        for entry in row:
            assert all(
                not any(k and g in ("c", "d", "e", "q") for g, k in zip(m.ring.gens, exp))
                for exp in entry.terms
            )
    with (GOLDEN / "conj_matrix_n41.json").open() as fh:
        assert json.load(fh) == m.to_json()


def test_full_kernel_matrix_frozen():
    """Half-precision kernel at precision 4, degree-3 conjugator: the
    5x5 matrix with mod q^2 entries, one hand-computed column at a
    time."""
    f = universal_element(4, degree=3)
    m = ad_matrix(f, "k:4,2")
    assert m.size == 5 and not m.warning
    S = m.ring
    assert S.truncation == 2

    def mono(k, b_down=0, **exps):
        return S.monomial(k, exps, bk=b_down)

    def tsum(*ts):
        acc = S.zero()
        for t in ts:
            acc = S.add(acc, t)
        return acc

    cols = [
        (
            tsum(mono(1, b=1), mono(-2, 1, a=1, c=1, q=1)),
            mono(2, 1, c=1, q=1),
            S.zero(),
            S.zero(),
            S.zero(),
        ),
        (
            tsum(mono(-1, a=1), mono(1, 2, a=2, c=1, q=1)),
            tsum(S.one(), mono(-2, 2, a=1, c=1, q=1)),
            mono(1, 2, c=1, q=1),
            S.zero(),
            S.zero(),
        ),
        (
            mono(1, 1, a=2),
            mono(-2, 1, a=1),
            mono(1, 1),
            S.zero(),
            S.zero(),
        ),
        (
            tsum(mono(-1, 2, a=3), mono(-1, 4, a=4, c=1, q=1)),
            tsum(mono(3, 2, a=2), mono(4, 4, a=3, c=1, q=1)),
            tsum(mono(-3, 2, a=1), mono(-6, 4, a=2, c=1, q=1)),
            tsum(mono(1, 2), mono(4, 4, a=1, c=1, q=1)),
            mono(-1, 4, c=1, q=1),
        ),
        (
            mono(1, 3, a=4, q=1),
            mono(-4, 3, a=3, q=1),
            mono(6, 3, a=2, q=1),
            mono(-4, 3, a=1, q=1),
            mono(1, 3, q=1),
        ),
    ]
    for j, col in enumerate(cols):
        assert m.column(j) == col, f"column {j} diverged"
    with (GOLDEN / "conj_matrix_k42.json").open() as fh:
        assert json.load(fh) == m.to_json()


def test_symbolic_matrices_specialize_to_numeric():
    """Substituting numbers for a..e commutes with building the matrix:
    60 draws spread over the three frozen settings."""
    rng = random.Random(60460)
    jobs = (
        (3, 3, "n:3,1", True),
        (4, 4, "n:4,1", True),
        (4, 3, "k:4,2", False),
    )
    for n, degree, spec, allow in jobs:
        f_sym = universal_element(n, degree=degree)
        m_sym = ad_matrix(
            f_sym,
            spec,
            allow_nonabelian=allow,
        )
        for _ in range(20):
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


def test_matrix_json_roundtrip_and_text():
    f = universal_element(3)
    m = ad_matrix(f, "n:3,1", allow_nonabelian=True)
    again = AdjointMatrix.from_json(json.loads(json.dumps(m.to_json())))
    assert again == m
    text = m.render_text()
    assert "n:3,1" in text
    assert sum(1 for ln in text.splitlines() if ln.startswith("[ ")) == 4
    ring = IntModRing(16, q=2)
    m2 = ad_matrix(TruncPoly(ring, [1, 1]), "k:4,2")
    assert AdjointMatrix.from_json(m2.to_json()) == m2


def test_specialized_matrices_read_back():
    """A specialization takes the mode of its target ring, so it reads
    back whether the target is numeric or symbolic."""
    m = ad_matrix(universal_element(3), "n:3,1", allow_nonabelian=True)
    sym = universal_coefficient_ring(1)
    for target, assignment in (
        (IntModRing(5, q=5), dict(zip("abcdeq", (1, 2, 3, 4, 0, 0)))),
        (sym, {g: sym.gen(g) for g in "abcdeq"}),
    ):
        s = specialize_matrix(m, target, assignment)
        assert AdjointMatrix.from_json(json.loads(json.dumps(s.to_json()))) == s


def test_matrix_reader_refuses_a_malformed_shape():
    """A stored matrix reads back only when it is square of size n + 1
    for the n of a congruence subgroup with 1 <= r < n, and its mode is
    the one its entry ring implies; a short row used to read back and
    break render_text."""
    good = ad_matrix(TruncPoly(IntModRing(16, q=2), [1, 1]), "k:4,2").to_json()
    assert AdjointMatrix.from_json(good).render_text()
    short = json.loads(json.dumps(good))
    short["rows"][0] = short["rows"][0][:2]
    bad = [
        short,
        good | {"rows": good["rows"][:4]},
        good | {"rows": [row + ["0"] for row in good["rows"]]},
        good | {"subgroup": "k:5,2"},
        good | {"subgroup": "k:4,4"},
        good | {"subgroup": "a:2"},
        good | {"subgroup": "full"},
        good | {"mode": "exact"},
        good | {"mode": "symbolic"},
    ]
    for doc in bad:
        with pytest.raises(PreconditionFailed):
            AdjointMatrix.from_json(doc)


# ---------------------------------------------------------------------------
# module decomposition


def test_module_decomposition_precision_2():
    for p in (2, 3, 5):
        dec = module_decomposition(IntModRing(p * p, q=p))
        assert dec.r == 1
        assert dec.orders == (1, 1, 1)
        assert dec.summands == (1, 1, 1)
        assert dec.agrees


def test_module_decomposition_precision_4():
    dec = module_decomposition(IntModRing(16, q=2))
    assert dec.weights == (2, 2, 2, 2, 3)
    assert dec.orders == (2, 2, 2, 2, 1)
    assert dec.summands == (2, 2, 2, 2, 1)
    assert dec.agrees
    # same shape over a truncated series coefficient ring
    dec2 = module_decomposition(parse_ring_flag("tq:5:4"))
    assert dec2.summands == (2, 2, 2, 2, 1)


def test_module_decomposition_matches_closed_form_at_high_levels():
    ring = IntModRing(3 ** 5, q=3)
    for r in (3, 4):
        dec = module_decomposition(ring, r)
        assert dec.agrees
        assert dec.summands == tuple(
            sorted((5 - max(r, j - 1) for j in range(6) if max(r, j - 1) < 5), reverse=True)
        )


def test_module_decomposition_edge_cases():
    ring = IntModRing(16, q=2)
    assert module_decomposition(ring, 4).summands == ()
    with pytest.raises(NotAbelian):
        module_decomposition(ring, 1)
    with pytest.raises(PreconditionFailed):
        module_decomposition(IntModRing(8, q=2))
    assert module_decomposition(IntModRing(8, q=2), 2).summands == (1, 1, 1, 1)


def test_module_decomposition_report():
    dec = module_decomposition(IntModRing(16, q=2))
    j = dec.to_json()
    assert j["agrees"] is True
    assert j["summands"] == [2, 2, 2, 2, 1]
    text = dec.render_text()
    assert "R/q^2 ^ 4" in text and "R/q" in text
    empty = module_decomposition(IntModRing(16, q=2), 4)
    assert empty.render_text().endswith("0")


# (n, r): slot weights and slot orders of module_decomposition, frozen
# from the route that rescaled whole polynomials; the expected orders and
# the summands are read off them below
DECOMPOSITIONS = {
    (1, 1): ("11", "00"),
    (2, 1): ("111", "111"),
    (2, 2): ("222", "000"),
    (3, 2): ("2222", "1111"),
    (3, 3): ("3333", "0000"),
    (4, 2): ("22223", "22221"),
    (4, 3): ("33333", "11111"),
    (4, 4): ("44444", "00000"),
    (5, 3): ("333334", "222221"),
    (5, 4): ("444444", "111111"),
    (5, 5): ("555555", "000000"),
    (6, 3): ("3333345", "3333321"),
    (6, 4): ("4444445", "2222221"),
    (6, 5): ("5555555", "1111111"),
    (6, 6): ("6666666", "0000000"),
    (7, 4): ("44444456", "33333321"),
    (7, 5): ("55555556", "22222221"),
    (7, 6): ("66666666", "11111111"),
    (7, 7): ("77777777", "00000000"),
}


def test_module_decomposition_frozen():
    """Every abelian level at precision n <= 7 over Z/p^n, F_p[t]/(t^e),
    Q[t]/(t^e) and the generic coefficient ring."""
    for (n, r), (weights, orders) in DECOMPOSITIONS.items():
        rings = [IntModRing(p ** n, q=p) for p in (2, 3, 5)]
        rings += [TruncSeriesRing("fp", n, p=p) for p in (2, 3)]
        rings += [TruncSeriesRing("rationals", n), universal_coefficient_ring(n)]
        orders = tuple(map(int, orders))
        for ring in rings:
            dec = module_decomposition(ring, r)
            assert dec.weights == tuple(map(int, weights))
            assert dec.orders == dec.expected == orders
            assert dec.summands == tuple(k for k in orders if k)
    assert set(DECOMPOSITIONS) == {
        (n, r) for n in range(1, 8) for r in range((n + 1) // 2, n + 1)
    }
