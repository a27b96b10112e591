import math
import random
from fractions import Fraction

import pytest

from affaut.autgroup import (
    SubgroupSpec,
    TruncPoly,
    compose,
    identity_map,
    member,
    reduce_precision,
    sample_automorphism,
    sample_filtered,
    sample_kernel_element,
)
from affaut.errors import NotAnAutomorphism, PreconditionFailed
from affaut.inversion import invert, invert_with_depth, lift_aut, oracle_invert
from affaut.rings import IntModRing, TruncSeriesRing


def P(ring, coeffs):
    return TruncPoly(ring, coeffs)


def test_invert_identity():
    R = IntModRing(16, q=2)
    assert invert(identity_map(R)) == identity_map(R)


def test_invert_affine_frozen():
    # slope inverse 13 satisfies 2*13 = 26 = 1 mod 25
    R = IntModRing(25, q=5)
    g = invert(P(R, [3, 2]))
    assert [c.value for c in g.coeffs] == [11, 13]


def test_invert_self_inverse_mod4():
    R = IntModRing(4, q=2)
    f = P(R, [1, 1, 2])
    assert invert(f) == f
    assert compose(f, f) == identity_map(R)


def test_oracle_kernel_negation():
    for p in (2, 3, 5):
        R = IntModRing(p * p, q=p)
        g = oracle_invert(P(R, [0, 1, p]))
        assert [c.value for c in g.coeffs] == [0, 1, p * p - p]


def test_oracle_translation():
    for p in (2, 3):
        R = IntModRing(p ** 3, q=p)
        g = oracle_invert(P(R, [1, 1]))
        assert [c.value for c in g.coeffs] == [p ** 3 - 1, 1]


def test_oracle_skips_a_digit_the_defect_lacks():
    """T + q^2 T^2 agrees with T mod q^2, so round 1 finds the defect zero
    mod q^2 and adds no digit; the lifting must go on to the digits the
    defect still has mod q^n rather than stop there."""
    for p in (2, 3):
        R = IntModRing(p ** 4, q=p)
        f = P(R, [0, 1, p * p])
        assert oracle_invert(f) == invert(f) == P(R, [0, 1, -p * p, 0, 0])
    R = TruncSeriesRing("fp", 4, p=3)
    f = P(R, [(0, 0, 1, 0), (1, 0, 0, 0), (0, 0, 0, 1)])
    assert oracle_invert(f) == invert(f)


def test_invert_rejects_non_automorphism():
    R = IntModRing(9, q=3)
    with pytest.raises(NotAnAutomorphism):
        invert(P(R, [0, 1, 1]))
    with pytest.raises(NotAnAutomorphism):
        oracle_invert(P(R, [0, 3]))


def test_invert_matches_oracle_randomized():
    rng = random.Random(440)
    for p, n in ((2, 3), (2, 5), (3, 4), (5, 3), (3, 6)):
        R = IntModRing(p ** n, q=p)
        for _ in range(40):
            f = sample_automorphism(R, rng.randrange(2, 5), rng)
            gi = invert(f)
            go = oracle_invert(f)
            assert gi == go
            assert compose(f, gi) == identity_map(R)
            assert compose(gi, f) == identity_map(R)


def test_invert_on_series_ring():
    R = TruncSeriesRing("fp", 3, p=2)
    t = (0, 1, 0)
    f = P(R, [t, (1, 0, 0), t])  # t + T + t*T^2
    g = invert(f)
    assert compose(f, g) == identity_map(R)
    assert compose(g, f) == identity_map(R)
    assert oracle_invert(f) == g


def test_invert_on_rational_series_ring():
    R = TruncSeriesRing("rationals", 4)
    half = (Fraction(1, 2), Fraction(0), Fraction(0), Fraction(0))
    t = (Fraction(0), Fraction(1), Fraction(0), Fraction(0))
    f = P(R, [t, half, (Fraction(0),) * 4, t])
    g = invert(f)
    assert compose(f, g) == identity_map(R)
    assert compose(g, f) == identity_map(R)


def test_invert_kernel_is_negation():
    """Congruent-to-identity elements above half precision invert by
    flipping the sign of their perturbation."""
    rng = random.Random(441)
    for p, n in ((2, 4), (3, 5), (5, 4)):
        R = IntModRing(p ** n, q=p)
        for r in range(n // 2 + 1, n):
            for _ in range(10):
                g = sample_kernel_element(R, r, 4, rng)
                ginv, depth = invert_with_depth(g)
                assert depth == 0
                two_t = P(R, [0, 2])
                assert ginv == two_t - g


def test_invert_preserves_membership():
    rng = random.Random(442)
    for p, n, d in ((2, 4, 2), (3, 3, 3), (5, 3, 2)):
        R = IntModRing(p ** n, q=p)
        spec = SubgroupSpec(flavor="atilde", d=d)
        for _ in range(20):
            f = sample_filtered(R, d, rng)
            assert member(invert(f), spec)
    for p, d in ((2, 3), (3, 4)):
        R = IntModRing(p ** d, q=p)
        spec = SubgroupSpec(flavor="a", d=d)
        for _ in range(20):
            coeffs = [R.rand(rng), R.rand_unit(rng)]
            coeffs += [
                p ** (i - 1) * rng.randrange(p ** (d - i + 1)) % p ** d
                for i in range(2, d + 1)
            ]
            f = P(R, coeffs)
            assert member(f, spec)
            assert member(invert(f), spec)


def test_recursion_depth_log2():
    """A generic quadratic map stays non-affine at every halving, so the
    descent count hits its ceiling exactly."""
    for p in (2, 3):
        for n in range(1, 9):
            R = IntModRing(p ** n, q=p)
            f = P(R, [1, 1, p]) if n > 1 else P(R, [1, 1])
            g, depth = invert_with_depth(f)
            assert depth == (math.ceil(math.log2(n)) if n > 1 else 0)
            assert compose(f, g) == identity_map(R)


def test_lift_aut_section():
    rng = random.Random(443)
    R = IntModRing(3 ** 5, q=3)
    assert lift_aut(identity_map(IntModRing(3, q=3)), 5) == identity_map(R)
    for _ in range(30):
        f = sample_automorphism(R, 4, rng)
        r = rng.randrange(1, 5)
        down = reduce_precision(f, r)
        assert reduce_precision(lift_aut(down, 5), r) == down
    with pytest.raises(NotAnAutomorphism):
        lift_aut(P(IntModRing(9, q=3), [1, 3]), 4)


def test_affine_inversion_composite_modulus():
    R = IntModRing(12)
    g = invert(P(R, [5, 7]))
    assert [c.value for c in g.coeffs] == [1, 7]
    assert compose(P(R, [5, 7]), g) == identity_map(R)
    with pytest.raises(PreconditionFailed):
        invert(P(R, [0, 1, 6]))


def test_oracle_equals_invert_on_filtered_samples():
    rng = random.Random(444)
    for p, n, d in ((2, 6, 2), (3, 5, 2), (5, 4, 3)):
        R = IntModRing(p ** n, q=p)
        for _ in range(15):
            f = sample_filtered(R, d, rng)
            assert invert(f) == oracle_invert(f)
