import hashlib
import json
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
from affaut import inversion
from affaut.errors import (
    AlgebraError,
    KernelMismatch,
    NoSolution,
    NotAnAutomorphism,
    PreconditionFailed,
)
from affaut.inversion import invert, invert_with_depth, lift_aut, oracle_invert
from affaut.rings import IntModRing, SymbolicRing, TruncSeriesRing


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


def _inversion_cases(rng):
    """Seeded automorphisms (and two kinds of refused input) for the frozen
    inversion digest: filtered, sampled and near-identity maps over Z/p^n,
    p in {2, 3, 5, 7} and n = 1..10, and over F_p[t]/(t^e), e = 1..8;
    hand-built ones over Q[t]/(t^e) and over a truncated symbolic ring."""
    for p in (2, 3, 5, 7):
        for n in range(1, 11):
            R = IntModRing(p ** n, q=p)
            for d in (1, 2, 3):
                yield sample_filtered(R, d, rng)
                yield sample_filtered(R, d, rng)
            for _ in range(5):
                yield sample_automorphism(R, rng.randrange(1, 9), rng)
            for r in range(1, n + 1, 3):
                yield sample_kernel_element(R, r, 4, rng)
    for p in (2, 3, 5, 7):
        for e in range(1, 9):
            R = TruncSeriesRing("fp", e, p=p)
            for d in (1, 2):
                for _ in range(4):
                    yield sample_filtered(R, d, rng)
            for _ in range(6):
                yield sample_automorphism(R, rng.randrange(1, 7), rng)
            yield sample_kernel_element(R, (e + 1) // 2, 3, rng)

    def rational(nilpotent):
        cs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(e)]
        cs[0] = Fraction(0) if nilpotent else cs[0] or Fraction(1)
        return tuple(cs)

    for e in range(1, 5):
        R = TruncSeriesRing("rationals", e)
        for _ in range(8):
            coeffs = [rational(False), rational(False)]
            coeffs += [rational(True) for _ in range(rng.randrange(0, 5))]
            yield P(R, coeffs)

    S = SymbolicRing(("a", "b", "q"), inverted="b", q="q", trunc=4)

    def symbolic(q_least):
        x = S.zero()
        for _ in range(rng.randint(0, 2)):
            exps = {"a": rng.randint(0, 2), "b": rng.randint(0, 1), "q": rng.randint(q_least, 3)}
            x = S.add(x, S.monomial(rng.randint(-3, 3), exps, bk=rng.randint(0, 1)))
        return x

    for _ in range(16):
        unit = S.monomial(rng.choice((-1, 1)), {"b": rng.randint(0, 2)}, bk=rng.randint(0, 1))
        coeffs = [symbolic(0), S.add(unit, symbolic(1))]
        coeffs += [symbolic(1) for _ in range(rng.randrange(0, 4))]
        yield P(S, coeffs)
    # refused: a non-automorphism over each kind of ring, a composite modulus
    yield P(IntModRing(9, q=3), [0, 1, 1])
    yield P(IntModRing(9, q=3), [0, 3])
    yield P(TruncSeriesRing("fp", 3, p=2), [(0, 0, 0), (0, 1, 0)])
    yield P(S, [S.zero(), S.gen("a")])
    yield P(IntModRing(12), [0, 1, 6])


def test_inversions_are_frozen():
    """Both inversion routes on 1 056 seeded automorphisms over Z/p^n,
    F_p[t]/(t^e), Q[t]/(t^e) and a truncated symbolic ring, hashed with
    the descent depth and with the class and message of every refusal.
    The digest was recorded with the TruncPoly arithmetic that the payload
    descent and lifting replaced."""
    outs = []
    for f in _inversion_cases(random.Random(461)):
        case = []
        for route in (invert_with_depth, oracle_invert):
            try:
                out = route(f)
            except AlgebraError as e:
                case.append([type(e).__name__, str(e)])
                continue
            g, depth = out if route is invert_with_depth else (out, None)
            case.append([g.to_json(), depth])
        outs.append(case)
    assert len(outs) >= 1000
    blob = json.dumps(outs).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "bfb4540e595fb8fbe643f699c39e2a653bb253eacb4917e0973a1317bf2a8382"
    )


def _mutant_cases():
    """1 + T + qT^2 over Z/p^n and F_p[t]/(t^e): non-affine at every level
    of the descent and never near the identity, so the descent goes the
    full ceil(log2 n) levels, each with a nonzero Newton correction."""
    rings = [IntModRing(p ** n, q=p) for p in (2, 3) for n in (2, 3, 5, 8)]
    rings += [TruncSeriesRing("fp", e, p=p) for p in (2, 5) for e in (2, 3, 5, 8)]
    return [P(R, [1, 1, R.q_power(1)]) for R in rings]


def test_descent_without_its_newton_correction_is_caught(monkeypatch):
    """_descend's correction phi' * delta dropped: a descent of two or more
    levels raises KernelMismatch at the level above the first uncorrected
    one, and a one-level descent returns a map that oracle_invert, which
    never multiplies, disagrees with."""
    cases = [(f, invert_with_depth(f)[1], oracle_invert(f)) for f in _mutant_cases()]
    monkeypatch.setattr(inversion, "_poly_mul", lambda a, b, ring: [])
    for f, depth, want in cases:
        if depth >= 2:
            with pytest.raises(KernelMismatch):
                invert(f)
        else:
            assert depth == 1 and invert(f) != want == oracle_invert(f)


def test_oracle_invert_catches_a_corrupted_composition(monkeypatch):
    """One composition of oracle_invert, any round's or the final f(g),
    comes back with q^(k-1) added to its constant term at precision k,
    the least change that precision shows: a later round's valuation check
    or the final equation f(g) = T raises NoSolution."""
    clean = inversion._compose
    for f in _mutant_cases():
        n = f.ring.truncation
        calls = []

        def corrupt(a, b, ring):
            out = clean(a, b, ring)
            if len(calls) == bad:
                out = [ring.add(out[0], ring.q_power(ring.truncation - 1)), *out[1:]]
            calls.append(ring)
            return out

        monkeypatch.setattr(inversion, "_compose", corrupt)
        bad = None
        oracle_invert(f)
        assert len(calls) == n  # n - 1 rounds and the final equation
        for bad in range(n):
            calls.clear()
            with pytest.raises(NoSolution):
                oracle_invert(f)
