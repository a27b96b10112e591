import hashlib
import json
import math
import random
import time
from fractions import Fraction

import pytest

from affaut.autgroup import (
    SubgroupSpec,
    TruncPoly,
    atilde_coefficient_valuation,
    check_abelian_kernel,
    compose,
    composition_series,
    identity_map,
    iterate,
    lift_precision,
    member,
    nd_coordinates,
    nd_element,
    order,
    reduce_precision,
    sample_automorphism,
    sample_filtered,
    sample_kernel_element,
)
from affaut.autgroup import (
    _EXHAUSTIVE_PAIRS,
    _affine_compose_int,
    _affine_order,
    _compose_bsgs,
    _exact_slot,
    _poly_mul,
)
from affaut.errors import (
    InfiniteCoefficientRing,
    NotAnAutomorphism,
    PreconditionFailed,
    ShapeMismatch,
    TooLarge,
)
from affaut.inversion import invert, oracle_invert
from affaut.rings import (
    IntegerRing,
    IntModRing,
    SymbolicRing,
    TruncSeriesRing,
    universal_coefficient_ring,
)


# --------------------------------------------------------------------------
# independent composition oracle: schoolbook expansion on plain int lists,
# sharing no code with the library paths


def _trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_mul_naive(a, b, m):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % m
    return _trim(out)


def compose_naive(f, g, m):
    res = []
    for a in reversed(f):
        res = poly_mul_naive(res, g, m)
        if res:
            res[0] = (res[0] + a) % m
        elif a % m:
            res = [a % m]
    return _trim(res)


def P(ring, coeffs):
    return TruncPoly(ring, coeffs)


# --------------------------------------------------------------------------
# composition


def test_compose_frozen_mod25():
    R = IntModRing(25, q=5)
    f = P(R, [1, 2, 5])
    g = P(R, [3, 1, 5])
    out = compose(f, g)
    assert [c.value for c in out.coeffs] == [2, 7, 15]
    assert compose_naive([1, 2, 5], [3, 1, 5], 25) == [2, 7, 15]


def test_compose_frozen_mod16():
    # the cross terms carry a factor 4*4 = 16 and die
    R = IntModRing(16, q=2)
    f = P(R, [0, 1, 0, 4])
    g = P(R, [0, 1, 4])
    out = compose(f, g)
    assert [c.value for c in out.coeffs] == [0, 1, 4, 4]
    assert compose_naive([0, 1, 0, 4], [0, 1, 4], 16) == [0, 1, 4, 4]


def test_compose_identity_both_sides():
    R = IntModRing(81, q=3)
    t = identity_map(R)
    f = P(R, [5, 7, 3, 9])
    assert compose(f, t) == f
    assert compose(t, f) == f


def test_compose_matches_naive_small_random():
    rng = random.Random(420)
    for m, q in ((64, 2), (81, 3), (125, 5), (12, None)):
        R = IntModRing(m, q=q)
        for _ in range(40):
            fc = [rng.randrange(m) for _ in range(rng.randrange(1, 7))]
            gc = [rng.randrange(m) for _ in range(rng.randrange(1, 7))]
            got = compose(P(R, fc), P(R, gc))
            assert [c.value for c in got.coeffs] == compose_naive(fc, gc, m)


def test_compose_matches_naive_taylor_path():
    """Degrees above the crossover with a unit-slope inner map exercise the
    expansion around the affine part; the schoolbook oracle keeps it
    honest."""
    rng = random.Random(421)
    for m, p in ((64, 2), (729, 3)):
        R = IntModRing(m, q=p)
        for _ in range(10):
            deg_f = rng.randrange(9, 14)
            deg_g = rng.randrange(11, 16)
            fc = [rng.randrange(m) for _ in range(deg_f + 1)]
            fc[-1] = fc[-1] or 1
            gc = [rng.randrange(m), rng.choice([1, 1 + p, m - 1])]
            gc += [p * rng.randrange(m // p) for _ in range(deg_g - 1)]
            gc[-1] = gc[-1] or p
            assert deg_f * deg_g > 96
            got = compose(P(R, fc), P(R, gc))
            assert [c.value for c in got.coeffs] == compose_naive(fc, gc, m)


def test_compose_matches_naive_nonunit_slope():
    # inner maps that are not automorphisms must fall back cleanly
    rng = random.Random(422)
    R = IntModRing(32, q=2)
    for _ in range(10):
        fc = [rng.randrange(32) for _ in range(12)]
        gc = [rng.randrange(32) for _ in range(12)]
        gc[1] = 2 * rng.randrange(16)
        got = compose(P(R, fc), P(R, gc))
        assert [c.value for c in got.coeffs] == compose_naive(fc, gc, 32)


def test_compose_affine_inner_long_outer():
    rng = random.Random(423)
    R = IntModRing(625, q=5)
    for _ in range(8):
        fc = [rng.randrange(625) for _ in range(40)]
        gc = [rng.randrange(625), rng.randrange(1, 625)]
        got = compose(P(R, fc), P(R, gc))
        assert [c.value for c in got.coeffs] == compose_naive(fc, gc, 625)


def test_compose_series_ring_path():
    R = TruncSeriesRing("fp", 3, p=5)
    f = P(R, [(1, 0, 0), (0, 1, 0)])
    g = P(R, [(2, 1, 0), (1, 0, 0), (0, 0, 1)])
    out = compose(f, g)
    # f = 1 + t*T so f(g) = 1 + t*g
    want = P(R, [(1, 2, 1), (0, 1, 0), (0, 0, 0)])
    assert out == want


# schoolbook reference over F_p[t]/(t^e): coefficients are e-tuples of ints


def series_mul_naive(x, y, p, e):
    out = [0] * e
    for i in range(e):
        for j in range(e - i):
            out[i + j] = (out[i + j] + x[i] * y[j]) % p
    return tuple(out)


def series_poly_mul_naive(a, b, p, e):
    zero = (0,) * e
    out = [zero] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            xy = series_mul_naive(x, y, p, e)
            out[i + j] = tuple((u + v) % p for u, v in zip(out[i + j], xy))
    while out and out[-1] == zero:
        out.pop()
    return out


def series_compose_naive(f, g, p, e):
    res = []
    for a in reversed(f):
        res = series_poly_mul_naive(res, g, p, e)
        if res:
            res[0] = tuple((u + v) % p for u, v in zip(res[0], a))
        elif any(a):
            res = [a]
    while res and not any(res[-1]):
        res.pop()
    return res


SERIES_PRIMES = (2, 3, 5, 7, 2147483647)  # the last needs slots wider than 8 bytes


def _series_coeff(rng, p, e, nilpotent=False):
    c = [rng.randrange(p) if rng.random() < 0.7 else 0 for _ in range(e)]
    if nilpotent:
        c[0] = 0
    return tuple(c)


def _series_poly(rng, p, e, length):
    return [_series_coeff(rng, p, e) for _ in range(length)]


def test_series_product_kernel_matches_schoolbook():
    rng = random.Random(430)
    for p in SERIES_PRIMES:
        for e in range(1, 8):
            R = TruncSeriesRing("fp", e, p=p)
            for la, lb in [(0, 0), (0, 3), (1, 1), (1, 5), (2, 2), (4, 9), (13, 6)]:
                a = P(R, _series_poly(rng, p, e, la)).raw_coeffs()
                b = P(R, _series_poly(rng, p, e, lb)).raw_coeffs()
                want = series_poly_mul_naive(a, b, p, e)
                assert _poly_mul(a, b, R) == want
                assert _poly_mul(b, a, R) == want
                assert (P(R, a) * P(R, b)).raw_coeffs() == tuple(want)


def test_series_compose_matches_schoolbook():
    """Empty, constant and affine maps on either side, inner maps with a
    slope that is not a unit, and long random maps."""
    rng = random.Random(431)
    for p in SERIES_PRIMES:
        for e in range(1, 8):
            R = TruncSeriesRing("fp", e, p=p)
            unit = (rng.randrange(1, p),) + _series_coeff(rng, p, e)[1:]
            shapes = [
                [],
                [_series_coeff(rng, p, e)],
                [_series_coeff(rng, p, e), unit],
                _series_poly(rng, p, e, 5),
            ]
            nonunit_slope = [_series_coeff(rng, p, e), _series_coeff(rng, p, e, True)]
            nonunit_slope += [_series_coeff(rng, p, e, True) for _ in range(3)]
            for fc in shapes + [_series_poly(rng, p, e, 9)]:
                for gc in shapes + [nonunit_slope]:
                    f, g = P(R, fc), P(R, gc)
                    want = series_compose_naive(f.raw_coeffs(), g.raw_coeffs(), p, e)
                    assert compose(f, g).raw_coeffs() == tuple(want)
            # filtered automorphisms: the shape the group operations compose
            if 2 <= e <= 5 and p < 100:
                for d in (1, 2):
                    f = sample_filtered(R, d, rng)
                    g = sample_filtered(R, d, rng)
                    want = series_compose_naive(f.raw_coeffs(), g.raw_coeffs(), p, e)
                    assert compose(f, g).raw_coeffs() == tuple(want)


def test_zmod_product_kernel_matches_schoolbook():
    # moduli whose slots take 1, 2, 4, 8 bytes and more
    rng = random.Random(432)
    for m in (2, 16, 251, 3 ** 10, 2 ** 40, 2 ** 100):
        for la, lb in [(0, 2), (1, 1), (3, 7), (20, 33), (70, 1)]:
            a = _trim([rng.randrange(m) for _ in range(la)])
            b = _trim([rng.randrange(m) for _ in range(lb)])
            assert _poly_mul(a, b, IntModRing(m)) == poly_mul_naive(a, b, m)


def test_compose_zmod_every_path_matches_schoolbook():
    """Random pairs over Z/m, from 1-byte slots to wide ones: short pairs go
    through the integers, longer ones by the general baby-step/giant-step
    composition, affine inner maps through the integers or by the
    level-by-level Taylor shift, and unit-slope inner maps with nilpotent
    tail take the expansion around the affine part."""
    rng = random.Random(433)
    for m in (2, 12, 3 ** 6, 5 ** 6, 2 ** 40, 2 ** 100):
        R = IntModRing(m)
        for lf, lg in [(1, 3), (2, 2), (5, 4), (9, 9), (12, 12), (17, 2),
                       (40, 2), (65, 2), (25, 9)]:
            for nilpotent_tail in (False, True):
                fc = [rng.randrange(m) for _ in range(lf)]
                gc = [rng.randrange(m) for _ in range(lg)]
                if nilpotent_tail and lg > 2:
                    gc[1] = 1
                    gc[2:] = [R.radical * rng.randrange(m // R.radical)
                              for _ in range(lg - 2)]
                got = compose(P(R, fc), P(R, gc))
                want = compose_naive(fc, _trim(list(gc)), m)
                assert [c.value for c in got.coeffs] == want, (m, lf, lg)


def _valued(rng, p, n, length, vmin=0):
    """Coefficients p^v * r mod p^n, v uniform in [vmin, n]: an arbitrary
    valuation profile, with zeros (v = n) anywhere in the list."""
    m = p ** n
    return [p ** v * rng.randrange(1, m) % m for v in
            (rng.randint(vmin, n) for _ in range(length))]


def test_compose_zmod_valuation_profiles_match_schoolbook():
    """Over Z/p^n up to n = 10, maps whose coefficients carry arbitrary
    valuations, not the filtered ones: the Taylor path with tails of
    valuation sigma = 1, 2, 3 (so the terms stop at j*sigma >= n, and the
    powers and derivatives run at falling moduli p^(n - j*sigma)), and the
    affine path, at unit and non-unit slopes."""
    rng = random.Random(434)
    for p in (2, 3, 5, 7):
        for n in (2, 4, 7, 10):
            m = p ** n
            R = IntModRing(m, q=p)
            for sigma in (1, 2, 3):
                lf, lg = rng.randrange(13, 26), rng.randrange(9, 12)
                fc = _valued(rng, p, n, lf)
                fc[-1] = fc[-1] or 1
                gc = [rng.randrange(m), rng.randrange(1, m)]
                while gc[1] % p == 0:
                    gc[1] = rng.randrange(1, m)
                gc += _valued(rng, p, n, lg - 2, vmin=min(sigma, n))
                got = compose(P(R, fc), P(R, gc))
                assert [c.value for c in got.coeffs] == compose_naive(fc, _trim(gc), m), (p, n, sigma)
            for slope in (rng.randrange(1, m), p * rng.randrange(1, m // p) if n > 1 else 1):
                fc = _valued(rng, p, n, rng.randrange(25, 70))
                fc[-1] = fc[-1] or 1
                gc = [rng.randrange(m), slope]
                got = compose(P(R, fc), P(R, gc))
                assert [c.value for c in got.coeffs] == compose_naive(fc, gc, m), (p, n)


def test_compose_composite_modulus_scaled_terms_match_schoolbook():
    """Composite m with a tail whose gcd d with m has powers d^j that are
    not divisors of m (m = 96, d = 6: 36 = 12 * 3), and affine halves with
    a common divisor of m."""
    rng = random.Random(435)
    for m in (96, 864, 1800):
        R = IntModRing(m)
        rad = R.radical
        for _ in range(4):
            fc = [rng.randrange(m) * rng.choice((1, 2, 6, 30)) % m for _ in range(20)]
            fc[-1] = fc[-1] or 1
            gc = [rng.randrange(m), R.rand_unit(rng)]
            gc += [rad * rng.randrange(m // rad) for _ in range(8)]
            got = compose(P(R, fc), P(R, gc))
            assert [c.value for c in got.coeffs] == compose_naive(fc, _trim(gc), m), m
            fc = [rng.randrange(m) * rng.choice((1, 2, 6, 30)) % m for _ in range(40)]
            fc[-1] = fc[-1] or 1
            gc = [rng.randrange(m), rng.randrange(1, m)]
            got = compose(P(R, fc), P(R, gc))
            assert [c.value for c in got.coeffs] == compose_naive(fc, gc, m), m


def _slot_moduli(w):
    """2, 3, 2^k and 2^k +- 1, prime powers and, past 8 bytes, a composite
    m > 2^64: every modulus whose m - 1 fits the w-byte slot's W - 1 bits."""
    top = 8 * w - 1
    ms = {2, 3, 3 ** 4, 5 ** 3, 7 ** 2, 2 ** top, 2 ** top - 1}
    for k in (2, 3, top // 2, top - 1):
        ms |= {2 ** k - 1, 2 ** k, 2 ** k + 1}
    for p in (3, 5, 7, 65521):
        ms.add(p ** max(1, int(top / math.log2(p))))
    if w > 8:
        ms.add(6 ** 30 * 35)
    return sorted(m for m in ms if m >= 2 and (m - 1).bit_length() <= top)


def test_packed_reduction_matches_per_slot_mod():
    """_mod_slots against x % m on every slot, at 1, 2, 4 and 8 bytes
    (array slots) and 11 bytes (the bytes path): slots of 0, m - 1, m,
    multiples of m, 2^(W-1) - 1 and random values below 2^(W-1), in 1, 2,
    3, 8 and 33 slots."""
    from affaut.autgroup import _mod_slots, _pack, _unpack, _unpack_mod

    rng = random.Random(450)
    for w in (1, 2, 4, 8, 11):
        cap = 2 ** (8 * w - 1)  # every slot is below 2^(W-1)
        for m in _slot_moduli(w):
            special = [0, m - 1, m, cap - 1, (cap - 1) // m * m]
            special += [m * rng.randrange((cap - 1) // m + 1) for _ in range(3)]
            special = [x for x in special if x < cap]
            for count in (1, 2, 3, 8, 33):
                for _ in range(3):
                    xs = [rng.choice(special) if rng.random() < 0.5 else rng.randrange(cap)
                          for _ in range(count)]
                    want = [x % m for x in xs]
                    got = _mod_slots(_pack(xs, w), count, w, m)
                    assert list(_unpack(got, count, w)) == want, (w, m, count)
                    assert _unpack_mod(_pack(xs, w), count, w, m) == _trim(want)


def test_every_zmod_slot_width_leaves_the_spare_bit(monkeypatch):
    """The slot widths keep every slot below 2^(W-1), the bound the packed
    reduction needs.  _product_slot (the codec, the affine Taylor shift,
    the expansion) and _exact_slot hold their worst cases with the spare
    bit at every boundary of their formulas.  Through the routes, with
    all-(m-1) maps, the largest nilpotent tails, long filtered pairs and
    a q-adic split over Z/2^30 whose three terms, each below 2^30, sum
    past 2^31 in some slots, no slot that reaches _mod_slots is larger."""
    import affaut.autgroup as ag
    from affaut.autgroup import _compose_int_split, _product_slot

    for bits in range(1, 70):
        for m in (2 ** bits, 2 ** bits + 1):
            for b in range(1, 12):
                for terms in (2 ** b - 1, 2 ** b):
                    w = _product_slot(m, terms)
                    assert terms * (m - 1) ** 2 + m - 1 < 2 ** (8 * w - 1), (m, terms)
            for f_len in range(1, 40):
                for g_sum in (1, 2 ** bits - 1, 2 ** bits):
                    w = _exact_slot(f_len, g_sum, m)
                    assert (m - 1) * f_len * g_sum ** (f_len - 1) < 2 ** (8 * w - 1)

    reduce, seen = ag._mod_slots, set()

    def checked(n, count, w, m):
        assert max(ag._unpack(n, count, w)) < 2 ** (8 * w - 1), (count, w, m)
        seen.add(w)
        return reduce(n, count, w, m)

    monkeypatch.setattr(ag, "_mod_slots", checked)
    counts = _route_counts(monkeypatch)
    rng = random.Random(453)
    for m in (2, 3, 8192, 3 ** 10, 5 ** 10, 2 ** 31, 2 ** 40, 1800, 6 ** 30 * 35):
        R = IntModRing(m)
        top = m - R.radical  # the largest nilpotent
        for lf, lg in ((1, 5), (3, 3), (8, 9), (31, 31), (40, 2), (130, 2), (300, 2)):
            f = [m - 1] * lf
            assert _poly_mul(f, [m - 1] * lg, R) == poly_mul_naive(f, [m - 1] * lg, m)
            for g in ([m - 1] * lg, [m - 1, m - 1] + [top] * (lg - 2)):
                got = P(R, f).compose(P(R, g))
                if lf * lg <= 1000:
                    assert _coeffs(got) == compose_naive(f, _trim(g), m), (m, lf, lg)
    for p, n, d in ((2, 10, 2), (3, 10, 4), (5, 10, 4), (3, 8, 2)):
        R = IntModRing(p ** n, q=p)
        sample_filtered(R, d, rng).compose(sample_filtered(R, d, rng))
    R = IntModRing(2 ** 30, q=2)
    fc = [rng.randrange(R.m) for _ in range(100)]
    fc += [2 ** 19 * rng.randrange(1, 2 ** 11) for _ in range(100, 300)]
    gc = [rng.randrange(R.m), R.rand_unit(rng)] + [2 ** 15 * rng.randrange(1, 2 ** 15) for _ in range(4)]
    assert _compose_int_split(fc, gc, R) == compose_naive(fc, gc, R.m)
    assert all(counts.values()), counts
    assert seen >= {1, 2, 4, 8} and max(seen) > 8


def test_affine_compose_int_matches_schoolbook():
    """f(c + u*T) against the schoolbook composition over Z/p^k and
    composite m, 2^100 included: every length 0..70, and 2^k - 1, 2^k,
    2^k + 1 up to 513, which leave the last pair of a level full, partial
    or without its hi block; c = 0, u = 0, a non-unit u, and coefficients
    all m - 1, which fill the slots of every level to their bound.  Over
    Z/2^100, c = 500 and u = 13 at lengths 16 and 17 as well: the exact
    result of the first packs into 512 bytes, that of the second does not."""
    rng = random.Random(436)
    lengths = list(range(71)) + [2 ** k + d for k in range(7, 10) for d in (-1, 0, 1)]
    for m in (2, 3 ** 5, 2 ** 10, 7 ** 12, 12, 1800, 2 ** 100):
        p = next(d for d in range(2, m + 1) if m % d == 0)
        for n in lengths:
            full = [m - 1] * n
            rand = [rng.randrange(m) for _ in range(n)]
            for f, c, u in [
                (full, m - 1, m - 1),
                (rand, 0, rng.randrange(1, m)),
                (rand, rng.randrange(m), 0),
                (rand, rng.randrange(m), p * rng.randrange(m) % m),
            ]:
                want = compose_naive(f, [c, u], m)
                assert _affine_compose_int(f, c, u, m) == want, (m, n, c, u)
    rng = random.Random(437)
    m, c, u = 2 ** 100, 500, 13
    for n in (16, 17):
        f = [rng.randrange(m) for _ in range(n)]
        assert _affine_compose_int(f, c, u, m) == compose_naive(f, [c, u], m), n


# the baby-step/giant-step composition: f in blocks of k coefficients
# (k = isqrt((len(f) - 1) // 2) + 1), so lengths 0..70 put the last block at
# every fill, k^2 and k^2 +- 1 included


def _inner_maps(coeff, nilpotent, zero, one):
    """g = 0, a constant, an affine map, a non-unit slope, and a longer
    map with a tail that is not nilpotent."""
    return [
        [],
        [coeff()],
        [coeff(), one],
        [coeff(), nilpotent(), nilpotent()],
        [coeff(), coeff(), coeff(), coeff()],
        [zero, one, zero, coeff()],
    ]


# --------------------------------------------------------------------------
# the q-adic split of long compositions over Z/p^n


def _split_results(monkeypatch, split_len=None):
    """The result of every q-adic split attempt from here on; None marks a
    declined one.  A split_len below the default lets maps short enough
    for the schoolbook reference split: the split is exact at any length,
    and the threshold only keeps it where it pays."""
    import affaut.autgroup as ag

    if split_len is not None:
        monkeypatch.setattr(ag, "_SPLIT_LEN", split_len)
    results = []
    split = ag._compose_int_split
    monkeypatch.setattr(
        ag, "_compose_int_split",
        lambda f, g, ring: results.append(split(f, g, ring)) or results[-1],
    )
    return results


def _coeffs(h):
    return list(h.raw_coeffs())


def test_compose_split_matches_schoolbook_on_filtered_maps(monkeypatch):
    """Filtered pairs over p in {2, 3, 5, 7}, n = 2..12, d in {1, 2, 4},
    splitting from 16 terms on.  Maps of at most 129 terms meet the
    schoolbook composition; the longer ones, whose schoolbook composition
    runs to 10^11 steps, meet the unsplit expansion, which the tests
    above tie to the schoolbook."""
    import affaut.autgroup as ag

    results = _split_results(monkeypatch, 16)
    rng = random.Random(440)
    for p in (2, 3, 5, 7):
        for n in range(2, 13):
            R = IntModRing(p ** n, q=p)
            for d in (1, 2, 4):
                f, g = sample_filtered(R, d, rng), sample_filtered(R, d, rng)
                fc, gc = _coeffs(f), _coeffs(g)
                if len(fc) <= 129:
                    want = compose_naive(fc, gc, R.m)
                else:
                    want = ag._compose_int_taylor(fc, gc, R)
                assert _coeffs(f.compose(g)) == want, (p, n, d)
    # the split ran, on schoolbook-checked pairs among others
    assert sum(r is not None for r in results) > 20


def test_compose_split_declines_unfiltered_maps(monkeypatch):
    """Unfiltered automorphisms of 60 to 300 terms have no short low part:
    the split declines them at once instead of recursing on f itself."""
    results = _split_results(monkeypatch, 32)
    rng = random.Random(441)
    for p, n in ((2, 16), (3, 10), (5, 8), (7, 6)):
        R = IntModRing(p ** n, q=p)
        for length in (60, 130, 300):
            f = sample_automorphism(R, length - 1, rng)
            g = sample_automorphism(R, rng.randrange(2, 6), rng)
            assert _coeffs(f.compose(g)) == compose_naive(_coeffs(f), _coeffs(g), R.m)
    assert results and all(r is None for r in results)


def test_compose_split_without_q_and_never_over_composite_moduli(monkeypatch):
    """Z/p^n built without q splits as Z/p^n with q does; a composite m has
    no p and never splits."""
    results = _split_results(monkeypatch, 16)
    rng = random.Random(442)
    for p, n, d in ((2, 9, 1), (3, 8, 2), (5, 7, 4)):
        Rq, R = IntModRing(p ** n, q=p), IntModRing(p ** n)
        f, g = sample_filtered(Rq, d, rng), sample_filtered(Rq, d, rng)
        got = P(R, _coeffs(f)).compose(P(R, _coeffs(g)))
        without_q = results[:]
        results.clear()
        assert _coeffs(got) == _coeffs(f.compose(g)) == compose_naive(_coeffs(f), _coeffs(g), R.m)
        assert results == without_q and results[-1] == _coeffs(got)
        results.clear()
    R = IntModRing(2 ** 7 * 3 ** 5)
    for length in (130, 300):
        fc = [rng.randrange(R.m) * 6 ** rng.randrange(8) % R.m for _ in range(length)]
        fc[-1] = fc[-1] or 1
        gc = [rng.randrange(R.m), R.rand_unit(rng)] + [6 * rng.randrange(R.m) % R.m for _ in range(3)]
        got = P(R, fc).compose(P(R, gc))
        assert _coeffs(got) == compose_naive(fc, _trim(gc), R.m)
    assert not results


def test_compose_split_at_the_top_level_and_with_no_high_part_of_g(monkeypatch):
    """Over Z/65521^4 no level below n - 1 gives F 4-byte slots, so
    kf = n - 1 and F runs mod p.  An inner map below p^ceil(n/2), as
    inversion lifts it, has G = 0: only f splits."""
    from affaut.autgroup import _compose_int_split

    rng = random.Random(443)
    p, n = 65521, 4
    R = IntModRing(p ** n, q=p)
    fc = [rng.randrange(R.m) for _ in range(2)]
    fc += [p ** (1 if j < 40 else 3) * rng.randrange(R.m) % R.m for j in range(2, 130)]
    fc[-1] = fc[-1] or p ** 3
    gc = [rng.randrange(R.m), R.rand_unit(rng)] + [p * rng.randrange(R.m) % R.m for _ in range(4)]
    gc[-1] = gc[-1] or p
    assert _compose_int_split(fc, gc, R) == compose_naive(fc, gc, R.m)
    R = IntModRing(3 ** 8, q=3)
    for _ in range(3):
        f = sample_filtered(R, 4, rng)
        phi = lift_precision(reduce_precision(sample_filtered(R, 4, rng), 4), 8)
        assert all(c < 3 ** 4 for c in _coeffs(phi))
        want = compose_naive(_coeffs(f), _coeffs(phi), R.m)
        assert _compose_int_split(_coeffs(f), _coeffs(phi), R) == want
        assert _coeffs(f.compose(phi)) == want


def test_compose_splits_a_long_filtered_pair(monkeypatch):
    """At (p, n, d) = (3, 10, 4) both maps run to 1025 terms: the split
    takes the composition once, and it meets the unsplit expansion."""
    import affaut.autgroup as ag

    results = _split_results(monkeypatch)
    R = IntModRing(3 ** 10, q=3)
    rng = random.Random(444)
    f, g = sample_filtered(R, 4, rng), sample_filtered(R, 4, rng)
    h = f.compose(g)
    # the compositions inside it have short inner maps and no slot to
    # narrow: they decline
    assert results[-1] == _coeffs(h) and not any(results[:-1])
    assert _coeffs(h) == ag._compose_int_taylor(_coeffs(f), _coeffs(g), R)


def test_split_agrees_with_the_unsplit_routes_on_1000_cases(monkeypatch):
    """compose, invert, oracle_invert and ad, 250 cases each, with the
    split on from 16 terms and off (the routes before it)."""
    import affaut.autgroup as ag
    from affaut.adjoint import ad
    from affaut.inversion import invert, oracle_invert

    rng = random.Random(445)
    shapes = [(2, 7, 4), (2, 8, 2), (3, 7, 4), (3, 8, 2), (5, 7, 4), (7, 7, 4), (3, 8, 4)]
    cases = []
    for i in range(1000):
        p, n, d = shapes[i % len(shapes)]
        R = IntModRing(p ** n, q=p)
        f, g = sample_filtered(R, d, rng), sample_filtered(R, d, rng)
        if i % 4 == 3:  # ad needs a kernel element at a level r with 2r >= n
            g = sample_kernel_element(R, (n + 1) // 2, rng.randrange(1, 9), rng)
        cases.append((i % 4, f, g, (n + 1) // 2))
    ops = (
        lambda f, g, r: f.compose(g),
        lambda f, g, r: invert(f),
        lambda f, g, r: oracle_invert(f),
        lambda f, g, r: ad(f, g, r),
    )
    monkeypatch.setattr(ag, "_SPLIT_LEN", 16)
    split = [ops[k](f, g, r) for k, f, g, r in cases]
    monkeypatch.setattr(ag, "_SPLIT_LEN", 10 ** 9)
    assert [ops[k](f, g, r) for k, f, g, r in cases] == split


def _route_counts(monkeypatch):
    """Counts of the Z/m composition routes run from here on: the exact
    route through the integers, the level-by-level affine Taylor shift,
    the expansion around the affine part, a q-adic split that did not
    decline, and baby steps and giant steps."""
    import affaut.autgroup as ag

    counts = dict.fromkeys(("exact", "affine levels", "taylor", "split", "bsgs"), 0)

    def counted(name, fn, ran=lambda out: True):
        def wrapper(*args):
            out = fn(*args)
            counts[name] += ran(out)
            return out
        return wrapper

    for name, attr in (("exact", "_compose_int_exact"), ("affine levels", "_affine_compose_int"),
                       ("taylor", "_compose_int_taylor"), ("bsgs", "_compose_bsgs")):
        monkeypatch.setattr(ag, attr, counted(name, getattr(ag, attr)))
    split = counted("split", ag._compose_int_split, lambda out: out is not None)
    monkeypatch.setattr(ag, "_compose_int_split", split)
    return counts


def test_zmod_composition_routes_are_frozen(monkeypatch):
    """Seeded compositions over Z/p^n, p in {2, 3, 5} and n up to 10, and
    over composite moduli, one of them above 2^64, through every Z/m
    route, hashed.  The digest was recorded with the per-coefficient
    reduction (x % m on each unpacked slot) that the packed one replaced,
    so it ties every route's reduction to that one."""
    counts = _route_counts(monkeypatch)
    rng = random.Random(451)
    outs = []
    for p in (2, 3, 5):
        for n in (2, 4, 6, 8, 10):
            R = IntModRing(p ** n, q=p)
            for d in (1, 2, 4):
                f, g = sample_filtered(R, d, rng), sample_filtered(R, d, rng)
                outs += [f.compose(g), g.compose(f)]
            f = sample_automorphism(R, rng.randrange(2, 40), rng)
            outs.append(f.compose(sample_automorphism(R, rng.randrange(1, 6), rng)))
            fc = [R.rand(rng) for _ in range(rng.randrange(100, 300))]
            outs.append(P(R, fc).compose(P(R, [R.rand(rng), R.rand_unit(rng)])))
    for m in (12, 1800, 2 ** 7 * 3 ** 5, 6 ** 30 * 35):
        R = IntModRing(m)
        for lf, lg in ((3, 3), (6, 5), (30, 20), (150, 2)):
            fc = [rng.randrange(m) for _ in range(lf)]
            gc = [rng.randrange(m) for _ in range(lg)]
            outs.append(P(R, fc).compose(P(R, gc)))
            f = sample_automorphism(R, lf, rng)
            outs.append(f.compose(sample_automorphism(R, lg, rng)))
    assert all(counts.values()), counts
    blob = json.dumps([_coeffs(h) for h in outs]).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "bbd60303400ae3f05eaaf06a505736df29cc10407d2d2ff94a2f6d514f9eb757"
    )


def test_bsgs_compose_series_every_length_matches_schoolbook():
    rng = random.Random(437)
    rings = [(p, e) for p in SERIES_PRIMES for e in range(1, 8)]
    for n in range(71):
        p, e = rings[n % len(rings)]
        R = TruncSeriesRing("fp", e, p=p)
        zero, one = (0,) * e, (1,) + (0,) * (e - 1)
        fc = _series_poly(rng, p, e, n)
        if fc:
            fc[-1] = fc[-1] if any(fc[-1]) else one
        gs = _inner_maps(
            lambda: _series_coeff(rng, p, e),
            lambda: _series_coeff(rng, p, e, True),
            zero, one,
        )
        for gc in gs[n % 3::3]:
            f, g = P(R, fc), P(R, gc)
            want = series_compose_naive(f.raw_coeffs(), g.raw_coeffs(), p, e)
            assert _compose_bsgs(f.raw_coeffs(), g.raw_coeffs(), R) == want, (p, e, n, gc)
            assert compose(f, g).raw_coeffs() == tuple(want)


def test_bsgs_compose_zmod_every_length_matches_schoolbook():
    """Every length of f, over prime-power, composite and wide moduli, with
    the inner maps that reach the general path of compose: non-unit
    slopes and tails that are not nilpotent."""
    rng = random.Random(438)
    moduli = (2, 12, 3 ** 6, 2 ** 40, 10 ** 12 + 39, 2 ** 100, 6 ** 30)
    for n in range(71):
        m = moduli[n % len(moduli)]
        R = IntModRing(m)
        fc = [rng.randrange(m) for _ in range(n)]
        if fc:
            fc[-1] = fc[-1] or 1
        gs = _inner_maps(
            lambda: rng.randrange(m),
            lambda: R.radical * rng.randrange(m // R.radical) % m,
            0, 1,
        )
        for gc in gs[n % 2::2]:
            gc = _trim(list(gc))
            want = compose_naive(fc, gc, m)
            assert _compose_bsgs(fc, gc, R) == want, (m, n, gc)
            assert [c.value for c in compose(P(R, fc), P(R, gc)).coeffs] == want


def test_bsgs_compose_fills_its_slots():
    """Coefficients m - 1 everywhere make the slots of the packed block sums
    and products as large as they can be; moduli 2^b for b = 1..40 and
    Mersenne primes p put the slot width at every byte boundary.  With
    g = -1 every odd power of g is m - 1, so the k-term block sums of a
    long f (k = 10 from length 163 on) fill their slots too."""
    for b in range(1, 41):
        m = 2 ** b
        R = IntModRing(m)
        cases = [(5, 2), (9, 3), (33, 2), (18, 5), (163, 1), (170, 1)]
        for n, lg in cases:
            fc, gc = [m - 1] * n, [m - 1] * lg
            assert _compose_bsgs(fc, gc, R) == compose_naive(fc, gc, m), (m, n, lg)
    for p in (3, 7, 31, 127, 8191, 2147483647):
        for e in (1, 2, 3, 7):
            R = TruncSeriesRing("fp", e, p=p)
            top = (p - 1,) * e
            cases = [(n, lg) for n in range(1, 9) for lg in (1, 2, 3)]
            for n, lg in cases + [(13, 3), (26, 2)]:
                fc, gc = [top] * n, [top] * lg
                want = series_compose_naive(fc, gc, p, e)
                assert _compose_bsgs(fc, gc, R) == want, (p, e, n, lg)
            minus_one = (p - 1,) + (0,) * (e - 1)
            for n in (163, 170):
                fc, gc = [top] * n, [minus_one]
                want = series_compose_naive(fc, gc, p, e)
                assert _compose_bsgs(fc, gc, R) == want, (p, e, n)


def _ring_compose_naive(f, g, ring):
    """Horner's rule with schoolbook products, on the ring's payload
    arithmetic."""
    def mul(a, b):
        out = [ring.zero()] * (len(a) + len(b) - 1) if a and b else []
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = ring.add(out[i + j], ring.mul(x, y))
        return out

    res = []
    for a in reversed(f):
        res = mul(res, g)
        res = [ring.add(res[0], a)] + res[1:] if res else [a]
        while res and ring.is_zero(res[-1]):
            res.pop()
    return res


def test_bsgs_compose_rational_series_and_symbolic_rings():
    """The rings with the schoolbook product compose by Horner's rule
    (blocks of one coefficient), for every length of f up to 12."""
    rng = random.Random(439)
    Q = TruncSeriesRing("rationals", 3)

    def rational():
        return tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3))

    S = SymbolicRing(("a", "b", "q"), inverted="b", q="q", trunc=3)

    def symbolic():
        x = S.zero()
        for _ in range(rng.randint(0, 2)):
            exps = {"a": rng.randint(0, 2), "b": rng.randint(0, 1), "q": rng.randint(0, 2)}
            x = S.add(x, S.monomial(rng.randint(-3, 3), exps, bk=rng.randint(0, 1)))
        return x

    for ring, coeff in ((Q, rational), (S, symbolic)):
        for n in range(13):
            f = P(ring, [coeff() for _ in range(n)])
            for gc in _inner_maps(coeff, coeff, ring.zero(), ring.one()):
                g = P(ring, gc)
                want = _ring_compose_naive(f.raw_coeffs(), g.raw_coeffs(), ring)
                assert _compose_bsgs(f.raw_coeffs(), g.raw_coeffs(), ring) == want
                assert list(compose(f, g).raw_coeffs()) == want, (ring, n)
        # the top coefficient cancels: (T - c) o c = 0
        c = coeff()
        assert _compose_bsgs((ring.neg(c), ring.one()), (c,), ring) == []


def test_compose_zero_and_constant():
    R = IntModRing(27, q=3)
    z = P(R, [])
    f = P(R, [4, 2, 9])
    assert compose(f, z).coeffs[0].value == 4
    assert compose(z, f).is_zero()
    c = P(R, [5])
    assert [x.value for x in compose(f, c).coeffs] == [(4 + 2 * 5 + 9 * 25) % 27]


def test_compose_degree_upper_bound():
    rng = random.Random(424)
    R = IntModRing(49, q=7)
    for _ in range(30):
        fc = [rng.randrange(49) for _ in range(rng.randrange(2, 6))]
        gc = [rng.randrange(49) for _ in range(rng.randrange(2, 6))]
        f, g = P(R, fc), P(R, gc)
        out = compose(f, g)
        if out.degree() is not None and f.degree() and g.degree():
            assert out.degree() <= f.degree() * g.degree()


def test_degree_law_mod_q2():
    """Automorphism pairs of distinct degree mod q^2 compose to the max of
    the two degrees: the nilpotent tails cannot interact below q^2."""
    rng = random.Random(425)
    for p in (2, 3, 5):
        R = IntModRing(p * p, q=p)
        hits = 0
        while hits < 60:
            f = sample_automorphism(R, rng.randrange(2, 7), rng)
            g = sample_automorphism(R, rng.randrange(2, 7), rng)
            if f.degree() == g.degree():
                continue
            hits += 1
            assert compose(f, g).degree() == max(f.degree(), g.degree())


# --------------------------------------------------------------------------
# automorphism recognition


def test_is_automorphism_basics():
    for p in (2, 3, 5):
        R = IntModRing(p ** 4, q=p)
        assert identity_map(R).is_automorphism()
        f = P(R, [1, 1, p, p * p, p ** 3])
        assert f.is_automorphism()
    R9 = IntModRing(9, q=3)
    assert not P(R9, [0, 1, 1]).is_automorphism()
    assert not P(R9, [3]).is_automorphism()
    assert not P(R9, []).is_automorphism()
    assert not P(R9, [1, 3]).is_automorphism()  # nilpotent slope


def test_is_automorphism_composite_modulus():
    R = IntModRing(12)
    assert P(R, [0, 1, 6]).is_automorphism()  # 6 is nilpotent mod 12
    assert not P(R, [0, 1, 4]).is_automorphism()  # 4 is not
    assert P(R, [3, 5, 0, 6]).is_automorphism()


def test_automorphisms_compose_and_sample():
    rng = random.Random(426)
    for m in (16, 27, 12):
        R = IntModRing(m)
        for _ in range(25):
            f = sample_automorphism(R, 4, rng)
            g = sample_automorphism(R, 4, rng)
            assert f.is_automorphism()
            assert compose(f, g).is_automorphism()



def _sampling_digest(ring, seed):
    """sha256 prefix of three filtered samples, 20 draws each of rand and
    rand_unit, and the generator's next 64 bits, from Random(seed)."""
    rng = random.Random(seed)
    out = [sample_filtered(ring, d, rng).to_json() for d in (1, 2, 3)]
    out.append([ring.payload_to_json(ring.rand(rng)) for _ in range(20)])
    out.append([ring.payload_to_json(ring.rand_unit(rng)) for _ in range(20)])
    out.append(rng.getrandbits(64))
    return hashlib.sha256(json.dumps(out).encode()).hexdigest()[:16]


def test_seeded_sampling_is_frozen():
    """Seeded samples, and the state they leave the generator in, as
    drawn one randrange call per scalar."""
    frozen = {
        IntModRing(2 ** 10, q=2): ("713590b0e9e508c3", "78ffc2bc378999d3", "185f250b6e262629"),
        IntModRing(3 ** 6, q=3): ("250a4aeab0282a81", "7bf9a452357c1a56", "11c566207734822a"),
        IntModRing(5 ** 4, q=5): ("284636846d1b74ae", "ddd2e73b8d35cf6c", "bbb979e6b144a01f"),
        IntModRing(7, q=7): ("5f77d28928e94b2c", "dec02f5dcc462151", "52931abfbb2723e1"),
        TruncSeriesRing("fp", 5, p=2): ("caa95fc6a9c167bf", "2e7674fcd5773bf4", "94c762b728124748"),
        TruncSeriesRing("fp", 4, p=3): ("b329253459aa8ff6", "5292f139e8486d36", "9f366236665f21a4"),
        TruncSeriesRing("fp", 1, p=5): ("ec71b5a5a8cc25b5", "100c29092db6cac9", "d5c769dee8c1846d"),
        TruncSeriesRing("fp", 3, p=7): ("c2a59213c137d3eb", "7e3cbce961f1fd43", "4b64eac6a9fab369"),
    }
    for ring, digests in frozen.items():
        assert tuple(_sampling_digest(ring, seed) for seed in (1, 2, 3)) == digests, ring


def test_sample_filtered_refuses_d_below_1():
    """The filtered subgroup of parameter 0 holds no automorphism; a
    sample used to come back anyway, a map member() rejects."""
    for ring in (IntModRing(27, q=3), TruncSeriesRing("fp", 3, p=2)):
        for d in (0, -1):
            with pytest.raises(PreconditionFailed, match="at least 1"):
                sample_filtered(ring, d, random.Random(1))

# --------------------------------------------------------------------------
# degree bookkeeping: a reference for the degree of f mod q^m


def degree_mod(f, m):
    """Degree of the reduction of f mod q^m, None when that reduction is
    zero; PreconditionFailed when the ring is not truncated or m is out of
    range."""
    ring = f.ring
    if not 1 <= m <= ring.require_truncated():
        raise PreconditionFailed(f"exponent {m} out of range")
    cs = f.raw_coeffs()
    return max((i for i, c in enumerate(cs) if ring.q_val(c) < m), default=None)


def test_degree_mod_frozen():
    R8 = IntModRing(8, q=2)
    f = P(R8, [1, 1, 0, 2])
    assert degree_mod(f, 1) == 1
    assert degree_mod(f, 2) == 3
    R27 = IntModRing(27, q=3)
    g = P(R27, [0, 1, 0, 0, 0, 9])
    assert degree_mod(g, 2) == 1
    assert degree_mod(g, 3) == 5


def test_degree_mod_range_checked():
    R = IntModRing(8, q=2)
    f = P(R, [0, 1])
    with pytest.raises(PreconditionFailed):
        degree_mod(f, 0)
    with pytest.raises(PreconditionFailed):
        degree_mod(f, 4)


def test_degree_mod_zero_reduction():
    R = IntModRing(8, q=2)
    assert degree_mod(P(R, [4, 4]), 1) is None
    assert degree_mod(P(R, []), 2) is None


# --------------------------------------------------------------------------
# membership


def test_member_filtered_doubling_tower():
    for p in (2, 3):
        R = IntModRing(p ** 6, q=p)
        for d in (1, 2, 3):
            coeffs = [0] * (16 * d + 1)
            coeffs[1] = 1
            for k, e in ((d, 1), (2 * d, 2), (4 * d, 3), (8 * d, 4), (16 * d, 5)):
                coeffs[k] = (coeffs[k] + p ** e) % p ** 6
            psi = P(R, coeffs)
            assert member(psi, SubgroupSpec.parse(f"atilde:{d}"))


def test_member_identity_everything():
    R = IntModRing(16, q=2)
    t = identity_map(R)
    for s in ("full", "a:1", "a:3", "atilde:2", "n:4,2", "k:4,3"):
        assert member(t, SubgroupSpec.parse(s))


def test_member_filtered_degree_violation():
    for p, d in ((2, 2), (3, 1)):
        R = IntModRing(p * p, q=p)
        coeffs = [0, 1] + [0] * d
        coeffs.append(p)  # q * T^(d+1)
        f = P(R, coeffs)
        assert not member(f, SubgroupSpec(flavor="atilde", d=d))


def test_member_atilde_matches_degree_bounds():
    """Membership in the degree-filtered subgroup against its definition,
    deg(f mod q^m) <= d*2^(m-2) for 2 <= m <= n, on filtered samples with
    one coefficient pushed off its valuation now and then."""
    rng = random.Random(379)
    for p, n in ((2, 5), (3, 4), (5, 3), (2, 1)):
        R = IntModRing(p ** n, q=p)
        for _ in range(60):
            d = rng.randrange(1, 4)
            c = list(sample_filtered(R, d, rng).raw_coeffs())
            if len(c) > 2 and rng.random() < 0.6:
                i = rng.randrange(2, len(c))
                c[i] = (c[i] + p) % (p ** n)
            f = P(R, c)
            for dd in (0, 1, d, d + 1):
                want = all(
                    (degree_mod(f, m) or 0) <= dd * 2 ** (m - 2)
                    for m in range(2, n + 1)
                )
                assert member(f, SubgroupSpec.parse(f"atilde:{dd}")) == want



def test_member_atilde_one_valuation_short_at_every_block_boundary():
    """member checks each block (d*2^(m-2), d*2^(m-1)] of coefficients
    against q^m once.  Against the per-level definition: maps with every
    coefficient at its least valuation, then one coefficient on either
    side of each block boundary, and one past the last, a valuation
    short; and random filtered maps over F_p[t]/(t^e)."""
    def in_atilde(f, d, n):
        return all((degree_mod(f, m) or 0) <= d * 2 ** (m - 2) for m in range(2, n + 1))

    rng = random.Random(2201)
    for ring in (IntModRing(2 ** 5, q=2), IntModRing(3 ** 4, q=3), TruncSeriesRing("fp", 4, p=5)):
        n = ring.truncation
        for d in (1, 2, 3):
            top = d << (n - 2)
            tight = [ring.zero(), ring.one()] + [
                ring.q_power(atilde_coefficient_valuation(d, j, n)) for j in range(2, top + 2)
            ]
            spec = SubgroupSpec("atilde", d=d)
            assert member(P(ring, tight), spec) and in_atilde(P(ring, tight), d, n)
            edges = {j + k for m in range(2, n + 1) for j in [d << (m - 2)] for k in (0, 1)}
            for j in sorted(edges):
                v = atilde_coefficient_valuation(d, j, n)
                if j < 2 or v < 2:
                    continue  # a valuation short would be no automorphism
                short = list(tight)
                short[j] = ring.q_power(v - 1)
                f = P(ring, short)
                assert not member(f, spec) and not in_atilde(f, d, n), (ring, d, j)
            for _ in range(20):
                c = list(sample_filtered(ring, d, rng).raw_coeffs())
                i = rng.randrange(2, len(c)) if len(c) > 2 else None
                if i is not None:
                    c[i] = ring.add(c[i], ring.q_power(rng.randrange(1, n + 1)))
                f = P(ring, c)
                for dd in (0, 1, d, d + 1):
                    assert member(f, SubgroupSpec("atilde", d=dd)) == in_atilde(f, dd, n)


def test_the_filtration_blocks_are_frozen():
    """The valuation blocks of the degree-filtered subgroups.
    atilde_coefficient_valuation meets the per-level definition, the least
    v >= 1 with T^j in q^m at every level m <= n where d*2^(m-2) < j, for
    d from -1 to 5.  sample_filtered draws, in one seeded stream, twice at
    each n = 1..8 and d = 1..4 over Z/2^n, Z/3^n, F_2[t]/(t^n) and
    F_3[t]/(t^n), hashed; n = 1 draws a block that q^1 then sends to 0,
    and the stream after it is part of the digest."""
    for n in range(1, 9):
        for d in range(-1, 6):
            for j in range(max(d, 1) << n):
                levels = [m for m in range(2, n + 1) if d * 2 ** (m - 2) < j]
                want = 0 if j <= 1 else min(n, max([1] + levels))
                assert atilde_coefficient_valuation(d, j, n) == want, (d, j, n)
    rng = random.Random(2401)
    outs = []
    for n in range(1, 9):
        for ring in (IntModRing(2 ** n, q=2), IntModRing(3 ** n, q=3),
                     TruncSeriesRing("fp", n, p=2), TruncSeriesRing("fp", n, p=3)):
            for d in range(1, 5):
                outs += [list(sample_filtered(ring, d, rng).raw_coeffs()) for _ in range(2)]
    blob = json.dumps(outs).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "94d4d339b909193fc7cd3ff5b878a36d483f195a976d8aab64001f788d4c889b"
    )


def test_identity_congruence_matches_valuations():
    rng = random.Random(380)
    R = IntModRing(3 ** 5, q=3)
    S = TruncSeriesRing("fp", 4, p=2)
    for _ in range(50):
        r, deg = rng.randrange(0, 6), rng.randrange(0, 5)
        if r:
            f = sample_kernel_element(R, r, deg, rng)
        else:  # T + h, with the draws sample_kernel_element makes at r >= 1
            f = identity_map(R) + P(R, [R.rand(rng) for _ in range(deg + 1)])
        c = list(f.raw_coeffs()) + [0] * (2 - len(f.raw_coeffs()))
        c[1] -= 1
        want = min(min(R.q_val(x % 243) for x in c), 5)
        assert f.identity_congruence() == want
    assert P(R, []).identity_congruence() == 0
    assert P(R, [9, 1]).identity_congruence() == 2
    assert P(S, [(0, 0, 1, 0), (1, 0, 0, 1)]).identity_congruence() == 2
    assert identity_map(S).identity_congruence() == 4


def test_member_rejects_non_automorphism():
    R = IntModRing(9, q=3)
    with pytest.raises(NotAnAutomorphism):
        member(P(R, [0, 1, 1]), SubgroupSpec(flavor="atilde", d=2))


def test_member_shape_flavor():
    for p in (2, 3, 5):
        R = IntModRing(p ** 4, q=p)
        f = P(R, [1, 1, p, p * p, p ** 3])
        assert member(f, SubgroupSpec.parse("a:4"))
        assert not member(f, SubgroupSpec.parse("a:3"))
    R = IntModRing(8, q=2)
    g = P(R, [0, 1, 1])  # slope of T^2 coefficient not divisible by q
    with pytest.raises(NotAnAutomorphism):
        member(g, SubgroupSpec.parse("a:2"))
    h = P(R, [0, 1, 2])
    assert member(h, SubgroupSpec.parse("a:2"))


def test_member_kernel_flavors():
    R = IntModRing(8, q=2)
    f = P(R, [0, 1, 4])
    assert member(f, SubgroupSpec.parse("k:3,2"))
    assert not member(f, SubgroupSpec.parse("k:3,3"))
    g = P(R, [4, 5, 4, 4])
    assert member(g, SubgroupSpec.parse("n:3,2"))
    assert not member(g, SubgroupSpec.parse("n:3,3"))
    with pytest.raises(PreconditionFailed):
        member(f, SubgroupSpec.parse("k:4,2"))


def test_member_refuses_congruence_levels_outside_1_to_n():
    """The identity lies in every congruence subgroup, so a level outside
    1..n has no false answer: member refuses it, like every other entry
    point that takes a congruence level."""
    ident = P(IntModRing(16, q=2), [0, 1])
    for s in ("k:4,5", "n:4,5", "k:4,0"):
        with pytest.raises(PreconditionFailed, match="congruence level"):
            member(ident, SubgroupSpec.parse(s))
    assert member(ident, SubgroupSpec.parse("k:4,4"))
    assert member(ident, SubgroupSpec.parse("n:4,1"))


def test_sample_kernel_element_refuses_levels_outside_1_to_n():
    """Like kernel_element, the sampler takes a level 1 <= r <= n only: over
    Z/16, r = -1 raised ValueError, r = 0 drew a map in no kernel and
    r = 5 gave T."""
    R = IntModRing(16, q=2)
    for r in (-1, 0, 5):
        with pytest.raises(PreconditionFailed, match="congruence level"):
            sample_kernel_element(R, r, 3, random.Random(1))
    assert sample_kernel_element(R, 4, 3, random.Random(1)) == identity_map(R)


def test_subgroup_spec_parse_roundtrip():
    for s in ("full", "a:2", "atilde:4", "n:4,2", "k:6,3"):
        assert SubgroupSpec.parse(s).show() == s
    with pytest.raises(PreconditionFailed):
        SubgroupSpec.parse("b:1")


def test_closure_in_filtered_subgroup():
    rng = random.Random(427)
    for p, n, d in ((2, 4, 2), (3, 3, 3), (5, 3, 1), (2, 6, 4)):
        R = IntModRing(p ** n, q=p)
        spec = SubgroupSpec(flavor="atilde", d=d)
        for _ in range(30):
            f = sample_filtered(R, d, rng)
            g = sample_filtered(R, d, rng)
            assert member(f, spec)
            assert member(g, spec)
            assert member(compose(f, g), spec)


def test_shape_subgroup_closed_at_matching_precision():
    rng = random.Random(428)
    for p, d in ((2, 3), (3, 4), (5, 2)):
        R = IntModRing(p ** d, q=p)
        spec = SubgroupSpec(flavor="a", d=d)
        for _ in range(30):
            coeffs = [R.rand(rng), R.rand_unit(rng)]
            coeffs += [p ** (i - 1) * rng.randrange(p ** (d - i + 1)) % p ** d
                       for i in range(2, d + 1)]
            f = P(R, coeffs)
            coeffs = [R.rand(rng), R.rand_unit(rng)]
            coeffs += [p ** (i - 1) * rng.randrange(p ** (d - i + 1)) % p ** d
                       for i in range(2, d + 1)]
            g = P(R, coeffs)
            assert member(f, spec) and member(g, spec)
            assert member(compose(f, g), spec)


# --------------------------------------------------------------------------
# the composition term bound, instrumented
#
# Write psi = a0 + a1*T + q*f_1 + ... + q^(n-1)*f_(n-1) with ord_T f_i >=
# i+1 (each coefficient of T^k, k >= 2, is pushed down to the smallest
# slice index its q-valuation allows).  Expanding psi(g) around the affine
# part of g makes every piece q^(i+j) * H_j(f_i)(g_aff) * A^j with
# A = (g - g_aff)/q, and each piece obeys a degree budget of
#   D(n-j-1) - j + j*D(n-i-j),   D(k) = d * 2^(k-1),
# which is what forces the doubling filtration to be closed.


def hasse_derivative(f, j):
    """The divided j-th derivative: the coefficient c_k of T^k goes to
    C(k, j) * c_k at T^(k-j), integral in every characteristic."""
    ring = f.ring
    cs = f.raw_coeffs()
    return P(ring, [ring.mul(ring.from_int(math.comb(k, j)), cs[k])
                    for k in range(j, len(cs))])


def _slice_decomposition(f):
    ring = f.ring
    n = ring.truncation
    slices = {}
    cs = f.raw_coeffs()
    for k in range(2, len(cs)):
        if ring.is_zero(cs[k]):
            continue
        i = min(max(1, ring.q_val(cs[k])), k - 1, n - 1)
        slices.setdefault(i, {})[k] = ring.exact_div_q(cs[k], i)
    out = {}
    for i, entries in slices.items():
        coeffs = [ring.zero()] * (max(entries) + 1)
        for k, v in entries.items():
            coeffs[k] = v
        out[i] = TruncPoly(ring, coeffs)
    return out


def test_composition_term_degree_budget():
    rng = random.Random(429)
    for p, n, d in ((2, 4, 2), (3, 4, 3), (2, 6, 2), (5, 3, 2)):
        R = IntModRing(p ** n, q=p)

        def D(k):
            return d * 2 ** (k - 1)

        for _ in range(12):
            psi = sample_filtered(R, d, rng)
            phi = sample_filtered(R, d, rng)
            slices = _slice_decomposition(psi)
            aff = P(R, [phi.coeff(0), phi.coeff(1)])
            tail = phi - aff
            A = P(R, [R.exact_div_q(c, 1) for c in tail.raw_coeffs()])
            a_pow = P(R, [1])  # A^0
            for j in range(0, n - 1):
                if j > 0:
                    a_pow = a_pow * A
                for i, fi in slices.items():
                    if j > n - i - 1:
                        continue
                    term = hasse_derivative(fi, j).compose(aff) * a_pow
                    term = term.scale(R.q_power(i + j))
                    if term.is_zero():
                        continue
                    budget = D(n - j - 1) - j + j * D(n - i - j)
                    assert term.degree() <= budget
            total = compose(psi, phi)
            if total.degree() is not None:
                assert total.degree() <= d * 2 ** (n - 2)


# --------------------------------------------------------------------------
# iteration and order


def test_iterate_translation():
    R = IntModRing(27, q=3)
    f = P(R, [1, 1])
    for k in (0, 1, 5, 26, 27):
        assert iterate(f, k) == P(R, [k % 27, 1])


def test_iterate_zero_is_identity():
    R = IntModRing(16, q=2)
    f = P(R, [3, 5, 4])
    assert iterate(f, 0) == identity_map(R)


def test_iterate_matches_unrolled():
    rng = random.Random(430)
    R = IntModRing(81, q=3)
    for _ in range(10):
        f = sample_automorphism(R, 3, rng)
        g = identity_map(R)
        for k in range(8):
            assert iterate(f, k) == g
            g = compose(g, f)


def test_order_identity_and_translation():
    R = IntModRing(16, q=2)
    assert order(identity_map(R)) == 1
    assert order(P(R, [1, 1])) == 16
    R3 = IntModRing(9, q=3)
    assert order(P(R3, [1, 1])) == 9


def test_order_nontrivial_mod16():
    R = IntModRing(16, q=2)
    f = P(R, [1, 1, 2, 4, 8])
    k = order(f)
    assert k is not None
    assert iterate(f, k) == identity_map(R)
    # brute confirmation with the naive oracle
    cur = [0, 1]
    steps = 0
    fc = [1, 1, 2, 4, 8]
    while True:
        cur = compose_naive(fc, cur, 16)
        steps += 1
        if cur == [0, 1]:
            break
        assert steps <= k
    assert steps == k


def test_order_cap_returns_none():
    R = IntModRing(729, q=3)
    assert order(P(R, [1, 1]), cap=100) is None


def _reference_order(f, step, ident, cap):
    """Least k <= cap with f^(k) = ident by plain stepping, or None."""
    g = f
    for k in range(1, cap + 1):
        if g == ident:
            return k
        g = step(g, f)
    return None


def _check_order(f, want):
    assert order(f) == want
    if want is not None:
        assert order(f, cap=want) == want
        if want > 1:
            assert order(f, cap=want - 1) is None


def test_order_matches_stepping_reference():
    """The affine stage and the p-power ladder against one composition per
    step: Z/p^n, F_p[t]/(t^e) and composite Z/m, each order also with cap
    equal to it (returned) and one below it (None)."""
    rng = random.Random(436)
    for p, top in ((2, 6), (3, 5), (5, 3), (7, 3), (11, 2)):
        for n in range(1, top + 1):
            m = p ** n
            R = IntModRing(m, q=p)
            for deg in (1, 2, 3):
                fc = list(sample_automorphism(R, deg, rng).raw_coeffs())
                want = _reference_order(
                    fc, lambda a, b: compose_naive(a, b, m), [0, 1], 10 ** 4
                )
                assert want is not None
                _check_order(P(R, fc), want)
    for p, e in ((2, 3), (2, 4), (3, 3), (5, 2), (7, 2), (11, 2)):
        R = TruncSeriesRing("fp", e, p=p)
        ident = [(0,) * e, (1,) + (0,) * (e - 1)]
        for deg in (1, 2, 3):
            fc = list(sample_automorphism(R, deg, rng).raw_coeffs())
            want = _reference_order(
                fc, lambda a, b: series_compose_naive(a, b, p, e), ident, 10 ** 4
            )
            assert want is not None
            _check_order(P(R, fc), want)
    for m in (12, 36):
        R = IntModRing(m)
        for deg in (1, 2, 3):
            fc = list(sample_automorphism(R, deg, rng).raw_coeffs())
            want = _reference_order(
                fc, lambda a, b: compose_naive(a, b, m), [0, 1], 10 ** 4
            )
            _check_order(P(R, fc), want)


def test_order_in_characteristic_zero():
    """Over Q[t]/(t^3) the kernel of reduction mod t is torsion-free and an
    affine map of finite order has order 1 or 2."""
    R = TruncSeriesRing("rationals", 3)
    t = (0, 1, 0)

    def Q(*coeffs):
        return P(R, [R.from_int(c) if isinstance(c, int) else c for c in coeffs])

    ident = identity_map(R)
    for f, want in [
        (Q(0, 1), 1),
        (Q(0, -1), 2),
        (Q(1, -1), 2),
        (Q(t, -1), 2),
        (Q(1, 1), None),
        (Q(0, 2), None),
        (Q(t, 1), None),
        (Q(0, 1, t), None),
        (Q(0, -1, t), None),
    ]:
        assert _reference_order(f, compose, ident, 50) == want
        _check_order(f, want)


def test_order_takes_few_compositions(monkeypatch):
    """T + t*T^2 over Q[t]/(t^3) has infinite order, found without stepping
    to the cap; an order 4 * 5^5 over Z/5^6 takes tens of compositions,
    not thousands."""
    calls = []
    compose_once = TruncPoly.compose

    def counting(self, g):
        calls.append(1)
        return compose_once(self, g)

    monkeypatch.setattr(TruncPoly, "compose", counting)
    R = TruncSeriesRing("rationals", 3)
    f = P(R, [R.zero(), R.one(), (0, 1, 0)])
    assert order(f, cap=100000) is None
    assert len(calls) <= 2
    calls.clear()
    R = IntModRing(5 ** 6, q=5)
    f = P(R, [1, 2, 5])
    assert order(f) == 4 * 5 ** 5
    assert len(calls) <= 50


def test_affine_order_matches_the_map_order_under_every_cap():
    """_affine_order(a, b, p, cap) against the order of x -> a + b*x found
    by iterating the map on all of F_p, for every cap from 1 to p + 1.
    Small caps take the trial-division route, where only the primes of
    p - 1 up to the cap are known."""
    for p in (2, 3, 5, 7, 11, 13, 31, 37):
        for a in range(p):
            for b in range(1, p):
                pts = list(range(p))
                k, cur = 1, [(a + b * x) % p for x in pts]
                while cur != pts:
                    cur = [(a + b * x) % p for x in cur]
                    k += 1
                for cap in range(1, p + 2):
                    want = k if k <= cap else None
                    assert _affine_order(a, b, p, cap) == want, (a, b, p, cap)


def test_affine_order_over_a_large_prime_field(monkeypatch):
    """Over F_p with p = 2^61 - 1 the order of a + b*T comes from p - 1 and
    its factors, not from stepping: a translation has order p, beyond the
    default cap, and a slope b the multiplicative order of b.  Each order
    is checked by composition: f^(k) = T, and f^(k/r) != T for each prime
    r dividing k."""
    calls = []
    compose_once = TruncPoly.compose

    def counting(self, g):
        calls.append(1)
        return compose_once(self, g)

    monkeypatch.setattr(TruncPoly, "compose", counting)
    p = 2 ** 61 - 1
    R = IntModRing(p)
    ident = identity_map(R)
    for f in (P(R, [1, 1]), P(R, [5, 3]), P(R, [0, p - 1]), P(R, [7, 1 << 30])):
        calls.clear()
        k = order(f, cap=p)
        assert k is not None and len(calls) <= 200
        assert iterate(f, k) == ident
        for r in IntModRing(k)._factors if k > 1 else ():
            assert iterate(f, k // r) != ident
    for cap, want in ((10 ** 6, None), (p, p), (p - 1, None)):
        calls.clear()
        assert order(P(R, [1, 1]), cap=cap) == want
        assert len(calls) <= 200


def test_order_rejects_a_cap_below_one():
    R = IntModRing(9, q=3)
    for cap in (0, -3):
        with pytest.raises(PreconditionFailed):
            order(identity_map(R), cap=cap)


def test_order_rejects_non_automorphism():
    R = IntModRing(9, q=3)
    with pytest.raises(NotAnAutomorphism):
        order(P(R, [0, 1, 1]))


def test_iterate_degree_stays_bounded():
    """Iterates never outgrow 2^(n-2) times the degree mod q^2 (sampling
    keeps the top coefficient visible mod q^2 so that the bound's premise
    holds)."""
    rng = random.Random(431)
    for p, n in ((2, 4), (3, 4), (2, 6), (5, 3)):
        R = IntModRing(p ** n, q=p)
        for _ in range(6):
            f = sample_automorphism(R, rng.randrange(2, 5), rng)
            cs = list(f.raw_coeffs())
            if len(cs) > 2 and R.q_val(cs[-1]) > 1:
                cs[-1] = p  # pin valuation 1 at the top
                f = P(R, cs)
            d2 = degree_mod(f, 2)
            g = f
            for _ in range(20):
                g = compose(g, f)
                if g.degree() is not None:
                    assert g.degree() <= 2 ** (n - 2) * d2


# --------------------------------------------------------------------------
# the additive slab coordinates


def test_nd_composition_is_coordinatewise_addition():
    rng = random.Random(432)
    for p in (2, 3, 5):
        for d in (2, 3, 4):
            R = IntModRing(p ** d, q=p)
            for _ in range(25):
                u = [rng.randrange(p) for _ in range(d + 1)]
                v = [rng.randrange(p) for _ in range(d + 1)]
                fu, fv = nd_element(R, u), nd_element(R, v)
                s = nd_element(R, [(a + b) % p for a, b in zip(u, v)])
                assert compose(fu, fv) == s
                assert compose(fv, fu) == s


def test_nd_coordinate_count_is_d_plus_one():
    # the coordinate map genuinely has d+1 slots, one per power of T from
    # 0 through d
    rng = random.Random(433)
    for d in (2, 3, 4):
        R = IntModRing(3 ** d, q=3)
        f = nd_element(R, [rng.randrange(3) for _ in range(d + 1)])
        coords = nd_coordinates(f)
        assert len(coords) == d + 1
        assert nd_element(R, coords) == f


def test_nd_roundtrip_and_shape_errors():
    R = IntModRing(8, q=2)
    f = nd_element(R, [1, 0, 1, 1])
    assert [c for c in nd_coordinates(f)] == [1, 0, 1, 1]
    with pytest.raises(ShapeMismatch):
        nd_coordinates(P(R, [0, 1, 2]))  # congruence level 1 < d-1 = 2


# --------------------------------------------------------------------------
# precision transport


def test_lift_and_reduce_frozen():
    R5 = IntModRing(5, q=5)
    f = P(R5, [3, 2])
    lifted = lift_precision(f, 2)
    assert lifted.ring.m == 25
    assert [c.value for c in lifted.coeffs] == [3, 2]
    back = reduce_precision(lifted, 1)
    assert back == f


def test_reduce_then_lift_sections():
    rng = random.Random(434)
    R = IntModRing(3 ** 5, q=3)
    for _ in range(50):
        f = sample_automorphism(R, 4, rng)
        r = rng.randrange(1, 5)
        down = reduce_precision(f, r)
        assert reduce_precision(lift_precision(down, 5), r) == down


# Rings without q^n = 0: no q (Z/12), a q that is not nilpotent (Z with
# q = 2), and the generic ring without a truncation.
_Z, _Z12, _GENERIC = IntegerRing(q=2), IntModRing(12), universal_coefficient_ring()
_UNTRUNCATED = (_Z, _Z12, _GENERIC)


@pytest.mark.parametrize("call, rings", [
    (lambda R: identity_map(R).identity_congruence(), _UNTRUNCATED),
    (lambda R: reduce_precision(identity_map(R), 1), _UNTRUNCATED),
    (lambda R: lift_precision(identity_map(R), 2), _UNTRUNCATED),
    (lambda R: member(identity_map(R), SubgroupSpec("atilde", d=2)), _UNTRUNCATED),
    (lambda R: sample_filtered(R, 2, random.Random(1)), _UNTRUNCATED),
    (lambda R: nd_element(R, [0, 0, 0]), _UNTRUNCATED),
    (lambda R: nd_coordinates(identity_map(R)), _UNTRUNCATED),
    (lambda R: invert(P(R, [0, 1, 6])), (_Z12,)),  # T + 6T^2, 6 nilpotent
    (lambda R: oracle_invert(P(R, [0, 1, 6])), (_Z12,)),
    (lambda R: reduce_precision(identity_map(R), 3), (IntModRing(9, q=3),)),
    (lambda R: lift_precision(identity_map(R), 1), (IntModRing(9, q=3),)),
], ids=[
    "identity_congruence", "reduce_precision", "lift_precision", "member-atilde",
    "sample_filtered", "nd_element", "nd_coordinates", "invert", "oracle_invert",
    "reduce-upward", "lift-downward",
])
def test_truncated_ring_preconditions_refuse(call, rings):
    """Each entry point that needs q^n = 0 refuses the rings that lack it,
    and a precision change refuses to go the wrong way, all by
    PreconditionFailed."""
    for R in rings:
        with pytest.raises(PreconditionFailed):
            call(R)


def test_transport_series_ring():
    R = TruncSeriesRing("fp", 3, p=2)
    f = P(R, [(1, 1, 1), (1, 0, 0)])
    down = reduce_precision(f, 2)
    assert down.ring.e == 2
    up = lift_precision(down, 3)
    assert [c.value for c in up.coeffs] == [(1, 1, 0), (1, 0, 0)]


# --------------------------------------------------------------------------
# solvability chain


def test_series_prime_power_chain():
    rng = random.Random(435)
    steps = composition_series(IntModRing(16, q=2), rng=rng, samples=40)
    assert [(s.from_exponent, s.to_exponent) for s in steps] == [(4, 2), (2, 1)]
    assert all(s.kernel_abelian for s in steps)
    steps = composition_series(IntModRing(9, q=3), rng=rng, samples=40)
    assert [(s.from_exponent, s.to_exponent) for s in steps] == [(2, 1)]
    assert composition_series(IntModRing(5, q=5), rng=rng) == []


def test_series_composite_chain():
    rng = random.Random(436)
    steps = composition_series(IntModRing(72), rng=rng, samples=40)
    assert [(s.from_modulus, s.to_modulus) for s in steps] == [(72, 12), (12, 6)]
    assert all(s.kernel_abelian for s in steps)
    steps = composition_series(IntModRing(12), rng=rng, samples=40)
    assert [(s.from_modulus, s.to_modulus) for s in steps] == [(12, 6)]
    assert composition_series(IntModRing(30), rng=rng) == []


def test_abelian_kernel_guaranteed_regime():
    rng = random.Random(437)
    for p, n, r in ((2, 4, 2), (3, 3, 2), (5, 4, 3), (2, 6, 3)):
        R = IntModRing(p ** n, q=p)
        ok, checked, wit = check_abelian_kernel(R, r, samples=60, rng=rng)
        assert ok and wit is None and checked == 60


def test_abelian_kernel_exhaustive_small():
    R = IntModRing(4, q=2)
    ok, checked, wit = check_abelian_kernel(R, 1, mode="exhaustive", deg_cap=2)
    assert ok and wit is None
    assert checked == 8 * 7 // 2  # 2 choices per slot, 3 slots


def test_nonabelian_kernel_below_half():
    """r = 1 against precision 4 leaves room for interaction: a
    non-commuting pair exists and the sampler finds one."""
    rng = random.Random(438)
    R = IntModRing(16, q=2)
    ok, checked, wit = check_abelian_kernel(R, 1, samples=400, deg_cap=3, rng=rng)
    assert not ok
    f, g = wit
    assert compose(f, g) != compose(g, f)
    # a fixed witness pair, independent of the sampler
    f = P(R, [0, 1, 2])
    g = P(R, [0, 1, 0, 2])
    assert compose(f, g) != compose(g, f)


def test_series_steps_frozen():
    """Moduli, exponents, verdicts and pair counts of the filtration, step
    for step, over a composite modulus and a prime power."""
    steps = composition_series(IntModRing(72), rng=random.Random(72), samples=25)
    assert [tuple(s[:6]) + (s.witness,) for s in steps] == [
        (72, 12, None, None, True, 25, None),
        (12, 6, None, None, True, 25, None),
    ]
    steps = composition_series(IntModRing(81), rng=random.Random(81), samples=25)
    assert [tuple(s[:6]) + (s.witness,) for s in steps] == [
        (81, 9, 4, 2, True, 25, None),
        (9, 3, 2, 1, True, 25, None),
    ]


def test_kernel_of_degree_cap_zero_is_the_translations():
    """Degree cap 0 gives T + q^r c, never a constant: K_2 over Z/16 is
    abelian in both probe modes."""
    R = IntModRing(16, q=2)
    rng = random.Random(440)
    for _ in range(20):
        f = sample_kernel_element(R, 2, 0, rng)
        c = f.raw_coeffs()
        assert c[1:] == (1,) and c[0] % 4 == 0 and f.is_automorphism()
    assert check_abelian_kernel(R, 2, samples=50, deg_cap=0, rng=rng) == (True, 50, None)
    ok, checked, wit = check_abelian_kernel(R, 2, mode="exhaustive", deg_cap=0)
    assert ok and wit is None
    assert checked == 4 * 3 // 2  # T + 4c for c = 0..3


def test_exhaustive_kernel_check_over_series():
    """F_p[t]/(t^e) takes the exhaustive path of Z/p^n: the elements of
    R/q^(n-r) carried up to R.  K_2 of F_2[t]/(t^4) at degree cap 1 has 16
    elements and K_1 a non-commuting pair; K_4 is {T}."""
    R = TruncSeriesRing("fp", 4, p=2)
    assert check_abelian_kernel(R, 2, mode="exhaustive", deg_cap=1) == (True, 120, None)
    ok, checked, (f, g) = check_abelian_kernel(R, 1, mode="exhaustive", deg_cap=1)
    assert (ok, checked, repr(f), repr(g)) == (False, 155, "(1 + t^2)*T", "t + T")
    assert check_abelian_kernel(R, 4, mode="exhaustive", deg_cap=1) == (True, 0, None)
    F3 = TruncSeriesRing("fp", 2, p=3)
    assert check_abelian_kernel(F3, 1, mode="exhaustive", deg_cap=1) == (True, 36, None)


def test_exhaustive_kernel_check_counts_pairs_first():
    """The exhaustive mode counts the kernel elements before listing them:
    K_3 over Z/2^6 at degree cap 4 has 8^5 elements, 5.4 * 10^8 pairs, and
    is refused at once; the largest kernel of acceptance criterion 10, K_2
    over Z/16 at degree cap 4 (523 776 pairs), stays within the limit."""
    t0 = time.perf_counter()
    with pytest.raises(TooLarge, match="sampled mode"):
        check_abelian_kernel(IntModRing(2 ** 6, q=2), 3, mode="exhaustive", deg_cap=4)
    assert time.perf_counter() - t0 < 2
    assert 1024 * 1023 // 2 <= _EXHAUSTIVE_PAIRS


def test_abelian_kernel_rejects_unknown_mode_and_infinite_rings():
    R = IntModRing(16, q=2)
    with pytest.raises(PreconditionFailed):
        check_abelian_kernel(R, 2, mode="exhastive", samples=5, rng=random.Random(1))
    with pytest.raises(InfiniteCoefficientRing):
        check_abelian_kernel(TruncSeriesRing("rationals", 3), 1, mode="exhaustive")


def test_abelian_kernel_checks_its_bounds():
    """r outside 1..n, no samples and a negative degree cap are refused;
    they used to give a verdict backed by no pair or a stray TypeError or
    ValueError."""
    R = IntModRing(16, q=2)
    for r in (0, -1, 5):
        for mode in ("exhaustive", "sampled"):
            with pytest.raises(PreconditionFailed, match="outside 1..4"):
                check_abelian_kernel(R, r, mode=mode, rng=random.Random(1))
    with pytest.raises(PreconditionFailed, match="at least one sample"):
        check_abelian_kernel(R, 2, samples=0, rng=random.Random(1))
    for mode in ("exhaustive", "sampled"):
        with pytest.raises(PreconditionFailed, match="degree cap"):
            check_abelian_kernel(R, 2, mode=mode, deg_cap=-1, rng=random.Random(1))
    # the ends of the range stay allowed: r = n is the trivial kernel {T},
    # and K_1 = {T + 2h} is not abelian
    assert check_abelian_kernel(R, 4, mode="exhaustive", deg_cap=1) == (True, 0, None)
    assert check_abelian_kernel(R, 1, samples=50, rng=random.Random(1))[0] is False


def test_filtration_step_json():
    rng = random.Random(439)
    steps = composition_series(IntModRing(16, q=2), rng=rng, samples=10)
    j = steps[0].to_json()
    assert j["from_modulus"] == "16" and j["to_modulus"] == "4"
    assert j["kernel_abelian"] is True and j["from_exponent"] == 4


# --------------------------------------------------------------------------
# serialization


def test_truncpoly_json_roundtrip():
    R = IntModRing(625, q=5)
    f = P(R, [7, 123, 0, 5])
    assert TruncPoly.from_json(R, f.to_json()) == f
    assert f.to_json() == {"coeffs": ["7", "123", "0", "5"]}


def test_truncpoly_repr_readable():
    R = IntModRing(25, q=5)
    assert repr(P(R, [2, 7, 15])) == "2 + 7*T + 15*T^2"
    assert repr(P(R, [])) == "0"
    assert repr(identity_map(R)) == "T"


def test_coeffs_must_be_a_list():
    R = IntModRing(81, q=3)
    with pytest.raises(PreconditionFailed):
        TruncPoly.from_json(R, {"coeffs": "12"})
    assert TruncPoly.from_json(R, {"coeffs": ["1", "2"]}) == P(R, [1, 2])


def test_composition_series_rejects_zero_samples():
    for ring in (IntModRing(81, q=3), IntModRing(72)):
        with pytest.raises(PreconditionFailed):
            composition_series(ring, rng=random.Random(1), samples=0)
        steps = composition_series(ring, rng=random.Random(1), samples=1)
        assert steps and all(s.pairs_checked == 1 for s in steps)
