import json
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from affaut import greenberg as gb
from affaut.adjoint import AdjointMatrix, ad_matrix
from affaut.autgroup import SubgroupSpec, TruncPoly
from affaut.errors import (
    NotAUnit,
    NotDivisible,
    PreconditionFailed,
    RingMismatch,
)
from affaut.rings import (
    IntegerRing,
    IntModRing,
    SymbolicRing,
    TruncSeriesRing,
    _factorize,
    _is_prime,
    _pow_payload,
    _prime_power_split,
    _require_prime,
    parse_ring_flag,
    ring_from_descriptor,
    universal_coefficient_ring,
)
from affaut.witt import UniversalWittLaw, WittVec, derive_witt_laws

GOLDEN = pathlib.Path(__file__).parent / "golden"


# Independent oracles, deliberately written without touching the library
# internals they check.

def egcd_inverse(a, m):
    """Extended-gcd modular inverse; classic three-row iteration."""
    r0, r1 = m, a % m
    s0, s1 = 0, 1
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if r0 != 1:
        return None
    return s0 % m


def geometric_series_inverse(coeffs, e, p=None):
    """Invert a series with unit constant term as c0^-1 * sum (-c0^-1 u)^k
    where u is the augmentation part."""
    c0 = coeffs[0]
    c0i = pow(c0, -1, p) if p else Fraction(1) / c0
    u = [c * c0i for c in coeffs]
    u[0] = 0 * c0i
    acc = [0] * e
    acc[0] = 1
    power = [0] * e
    power[0] = 1
    for _ in range(1, e):
        nxt = [0] * e
        for i, x in enumerate(power):
            if x == 0:
                continue
            for j, y in enumerate(u):
                if i + j < e:
                    nxt[i + j] += x * y
        power = [-v for v in nxt]
        acc = [a + b for a, b in zip(acc, power)]
    out = [a * c0i for a in acc]
    if p:
        out = [a % p for a in out]
    return out


def test_intmod_inverse_frozen_values():
    R = IntModRing(25, q=5)
    assert R.elem(7).inv() == R.elem(18)
    assert 7 * 18 % 25 == 1
    R9 = IntModRing(9, q=3)
    with pytest.raises(NotAUnit):
        R9.elem(3).inv()


def test_intmod_inverse_against_egcd_oracle():
    rng = random.Random(901)
    for m in (4, 9, 12, 25, 27, 72, 625, 15625):
        R = IntModRing(m)
        for _ in range(200):
            a = rng.randrange(m)
            want = egcd_inverse(a, m)
            if want is None:
                with pytest.raises(NotAUnit):
                    R.elem(a).inv()
            else:
                got = R.elem(a).inv()
                assert got.value == want
                assert (a * got.value) % m == 1


def test_intmod_q_structure():
    R = IntModRing(27, q=3)
    assert R.elem(18).q_valuation() == 2  # 18 = 2 * 3^2
    assert R.elem(0).q_valuation() == 3
    assert R.elem(1).q_valuation() == 0
    assert R.elem(18).exact_div_by_q(2) == R.elem(2)
    with pytest.raises(NotDivisible):
        R.elem(5).exact_div_by_q(1)
    # composite modulus: plain arithmetic fine, q-adic ops rejected
    R12 = IntModRing(12)
    assert R12.elem(7) * R12.elem(5) == R12.elem(11)
    assert R12.elem(6).is_nilpotent()
    assert not R12.elem(4).is_nilpotent()  # 4 misses the prime 3
    assert not R12.elem(2).is_nilpotent()
    with pytest.raises(PreconditionFailed):
        R12.elem(6).q_valuation()
    with pytest.raises(PreconditionFailed):
        IntModRing(12, q=2)


def test_q_val_min_is_smallest_valuation():
    rng = random.Random(903)
    R = IntModRing(5 ** 4, q=5)
    S = TruncSeriesRing("fp", 3, p=3)
    for _ in range(100):
        xs = [rng.choice([0, 1, 5, 25, 125]) * rng.randrange(625) % 625
              for _ in range(rng.randrange(0, 6))]
        assert R.q_val_min(xs) == min([R.q_val(x) for x in xs], default=4)
        ys = [tuple(rng.randrange(3) * (i >= k) for i in range(3))
              for k in (rng.randrange(4) for _ in range(rng.randrange(0, 4)))]
        assert S.q_val_min(ys) == min([S.q_val(y) for y in ys], default=3)
    assert R.q_val_min([0, 250, 125]) == 3
    with pytest.raises(PreconditionFailed):
        IntModRing(12).q_val_min([6])
    # series payloads: the first t-degree where any payload is nonzero, e
    # (the valuation of zero) for the empty list and all-zero payloads
    for S in (TruncSeriesRing("fp", 6, p=5), TruncSeriesRing("rationals", 4)):
        e = S.e
        zero = S.zero()
        assert S.q_val_min([]) == e
        assert S.q_val_min([zero, zero]) == e
        for _ in range(100):
            ys = [S.coerce_payload([rng.randrange(5) * (i >= k) for i in range(e)])
                  for k in (rng.randrange(e + 1) for _ in range(rng.randrange(0, 5)))]
            assert S.q_val_min(ys) == min([S.q_val(y) for y in ys], default=e)


def test_intmod_nilpotency_matches_brute_force():
    rng = random.Random(904)
    for m in (4, 9, 12, 16, 72):
        R = IntModRing(m)
        brute = [any(pow(a, k, m) == 0 for k in range(1, 40)) for a in range(m)]
        for a in range(m):
            assert R.elem(a).is_nilpotent() == brute[a], (m, a)
        assert R.all_nilpotent([])
        for _ in range(200):
            xs = [rng.randrange(m) for _ in range(rng.randrange(1, 5))]
            assert R.all_nilpotent(xs) == all(brute[a] for a in xs), (m, xs)


def test_series_inverse_frozen():
    R = TruncSeriesRing("fp", 3, p=2)
    one_plus_t = R.elem([1, 1, 0])
    assert one_plus_t.inv() == R.elem([1, 1, 1])
    got = one_plus_t * one_plus_t.inv()
    assert got == R.elem([1, 0, 0])
    with pytest.raises(NotAUnit):
        R.elem([0, 1, 0]).inv()


def test_series_inverse_against_geometric_oracle():
    rng = random.Random(902)
    for p, e in ((2, 4), (3, 5), (5, 3)):
        R = TruncSeriesRing("fp", e, p=p)
        for _ in range(100):
            c = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(e - 1)]
            want = geometric_series_inverse(c, e, p)
            assert list(R.elem(c).inv().value) == want
    RQ = TruncSeriesRing("rationals", 4)
    x = RQ.elem([Fraction(2), Fraction(1, 3), Fraction(0), Fraction(5)])
    want = geometric_series_inverse(list(x.value), 4)
    assert list(x.inv().value) == want
    assert x * x.inv() == RQ.elem(1)


def test_rational_series_arithmetic_against_list_reference():
    """Q[t]/(t^e) against truncated list arithmetic written here, for
    e = 1..5; every scalar of every result is a Fraction."""
    rng = random.Random(905)
    zero = Fraction(0)

    def scalar():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

    def product(a, b, e):
        out = [zero] * e
        for i in range(e):
            for j in range(e - i):
                out[i + j] += a[i] * b[j]
        return out

    for e in range(1, 6):
        R = TruncSeriesRing("rationals", e)
        one = [Fraction(1)] + [zero] * (e - 1)
        for _ in range(60):
            a, b = [scalar() for _ in range(e)], [scalar() for _ in range(e)]
            k, n = rng.randint(0, e), rng.randint(-6, 6)
            shifted = [zero] * k + a[:e - k]
            checks = [
                (R.add(tuple(a), tuple(b)), [x + y for x, y in zip(a, b)]),
                (R.sub(tuple(a), tuple(b)), [x - y for x, y in zip(a, b)]),
                (R.neg(tuple(a)), [-x for x in a]),
                (R.mul(tuple(a), tuple(b)), product(a, b, e)),
                (R.q_power(k), [Fraction(int(i == k)) for i in range(e)]),
                (R.exact_div_q(tuple(shifted), k), a[:e - k] + [zero] * k),
                (R.from_int(n), [Fraction(n)] + [zero] * (e - 1)),
            ]
            if a[0]:
                inv = R.inv(tuple(a))
                assert product(a, list(inv), e) == one
                checks.append((inv, list(inv)))  # for the type of its scalars
            else:
                with pytest.raises(NotAUnit):
                    R.inv(tuple(a))
            if any(a[:k]):
                with pytest.raises(NotDivisible):
                    R.exact_div_q(tuple(a), k)
            for d in range(1, 7):
                (moved,) = R.transport([tuple(a)], R.at_precision(d))
                checks.append((moved, a[:d] + [zero] * (d - e)))
            for got, want in checks:
                assert list(got) == want, (e, got, want)
                assert all(type(c) is Fraction for c in got), (e, got)


def test_series_q_structure():
    R = TruncSeriesRing("fp", 4, p=3)
    t2 = R.elem([0, 0, 2, 1])
    assert t2.q_valuation() == 2
    assert R.elem(0).q_valuation() == 4
    assert t2.exact_div_by_q(2) == R.elem([2, 1, 0, 0])
    with pytest.raises(NotDivisible):
        t2.exact_div_by_q(3)


def test_integers_exact_division():
    Z = IntegerRing(q=2)
    assert Z.elem(12).exact_div_by_q(2) == Z.elem(3)
    with pytest.raises(NotDivisible):
        Z.elem(6).exact_div_by_q(2)
    assert Z.elem(0).q_valuation() is None
    assert Z.q_val_min([0, 12, 0]) == 2  # untruncated: zeros are skipped
    assert Z.q_val_min([0]) is None and Z.q_val_min([]) is None
    assert Z.elem(-8).q_valuation() == 3
    with pytest.raises(NotAUnit):
        Z.elem(2).inv()
    assert Z.elem(-1).inv() == Z.elem(-1)


def test_ring_axioms_randomized():
    rng = random.Random(903)
    rings = [
        IntModRing(16, q=2),
        IntModRing(72),
        TruncSeriesRing("fp", 3, p=5),
    ]
    for R in rings:
        for _ in range(150):
            a = R.elem(R.rand(rng))
            b = R.elem(R.rand(rng))
            c = R.elem(R.rand(rng))
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + R.elem(0) == a
            assert a * R.elem(1) == a
            assert a - a == R.elem(0)


def test_unit_times_inverse_randomized():
    rng = random.Random(904)
    for R in (IntModRing(625, q=5), IntModRing(72), TruncSeriesRing("fp", 5, p=3)):
        for _ in range(100):
            u = R.elem(R.rand_unit(rng))
            assert u * u.inv() == R.elem(1)


def test_ring_mismatch_detected():
    a = IntModRing(25, q=5).elem(3)
    b = IntModRing(27, q=3).elem(3)
    with pytest.raises(RingMismatch):
        a + b


def test_symbolic_basic_arithmetic():
    S = SymbolicRing(("x", "y"))
    x = S.elem(S.gen("x"))
    y = S.elem(S.gen("y"))
    assert (x + y) * (x - y) == x * x - y * y
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y
    assert x - x == S.elem(0)


def test_symbolic_integer_q_division():
    # polynomial ring over Z with the prime 2 designated: divisions hit the
    # integer coefficients
    S = SymbolicRing(("x0", "y0"), q=2)
    two_x0y0 = S.elem(S.monomial(2, {"x0": 1, "y0": 1}))
    assert two_x0y0.exact_div_by_q(1) == S.elem(S.monomial(1, {"x0": 1, "y0": 1}))
    with pytest.raises(NotDivisible):
        two_x0y0.exact_div_by_q(2)
    assert two_x0y0.q_valuation() == 1


def test_symbolic_inverted_generator():
    S = universal_coefficient_ring(trunc=3)
    b = S.elem(S.gen("b"))
    a = S.elem(S.gen("a"))
    q = S.elem(S.gen("q"))
    binv = b.inv()
    assert b * binv == S.elem(1)
    # denominators collapse: (a/b) * b = a
    assert (a * binv) * b == a
    # unit with nilpotent tail: b + q*a
    u = b + q * a
    ui = u.inv()
    assert u * ui == S.elem(1)
    with pytest.raises(NotAUnit):
        a.inv()
    with pytest.raises(NotAUnit):
        (a + b).inv()


def test_symbolic_truncation():
    S = universal_coefficient_ring(trunc=2)
    q = S.elem(S.gen("q"))
    assert q * q == S.elem(0)
    assert (1 + q) * (1 - q) == S.elem(1)


def test_symbolic_substitution():
    S = universal_coefficient_ring(trunc=3)
    R = IntModRing(8, q=2)
    expr = S.elem(S.monomial(1, {"a": 2})) + S.elem(S.gen("b")).inv()
    got = S.substitute(expr.value, R, {"a": 3, "b": 5, "c": 0, "d": 0, "e": 0, "q": 2})
    # 9 + 5^-1 = 1 + 5 = 6 mod 8
    assert got == R.pay(6)


def test_descriptor_and_element_json_round_trip():
    rng = random.Random(905)
    rings = [
        IntegerRing(q=3),
        IntModRing(25, q=5),
        IntModRing(72),
        TruncSeriesRing("fp", 4, p=3),
        TruncSeriesRing("rationals", 3),
        universal_coefficient_ring(trunc=3),
    ]
    for R in rings:
        R2 = ring_from_descriptor(json.loads(json.dumps(R.descriptor())))
        assert R2 == R
    R = IntModRing(625, q=5)
    for _ in range(20):
        x = R.elem(R.rand(rng))
        back = R.payload_from_json(json.loads(json.dumps(x.to_json())))
        assert back == x.value
    S = universal_coefficient_ring(trunc=3)
    expr = S.add(
        S.monomial(-3, {"a": 2, "q": 1}, bk=2),
        S.monomial(7, {"c": 1}),
    )
    back = S.payload_from_json(json.loads(json.dumps(S.payload_to_json(expr))))
    assert back == expr


def test_symbolic_json_is_deterministic():
    S = universal_coefficient_ring(trunc=3)
    e1 = S.add(S.monomial(1, {"a": 1}), S.monomial(2, {"b": 1}))
    e2 = S.add(S.monomial(2, {"b": 1}), S.monomial(1, {"a": 1}))
    assert json.dumps(S.payload_to_json(e1)) == json.dumps(S.payload_to_json(e2))


def test_parse_ring_flag():
    assert parse_ring_flag("zmod:25:q=5") == IntModRing(25, q=5)
    assert parse_ring_flag("zmod:72") == IntModRing(72)
    assert parse_ring_flag("tq:5:3") == TruncSeriesRing("fp", 3, p=5)
    assert parse_ring_flag("tq:Q:4") == TruncSeriesRing("rationals", 4)
    assert parse_ring_flag("sym:n=3") == universal_coefficient_ring(trunc=3)
    with pytest.raises(PreconditionFailed):
        parse_ring_flag("zmod")
    with pytest.raises(PreconditionFailed):
        parse_ring_flag("what:3")


def test_canonical_representatives():
    R = IntModRing(25, q=5)
    assert R.elem(-3) == R.elem(22)
    assert R.elem(28).value == 3
    S = universal_coefficient_ring(trunc=3)
    # b/b^2 collapses to 1/b
    e = S.monomial(1, {"b": 1}, bk=2)
    assert e.bk == 1 and list(e.terms) == [(0, 0, 0, 0, 0, 0)]


def _trial_factors(m):
    out, d = {}, 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


M61 = 2 ** 61 - 1  # a Mersenne prime, far beyond trial division


def test_large_prime_moduli_are_recognised():
    R = IntModRing(M61)
    assert (R.p, R.n, R.radical) == (M61, 1, M61)
    R2 = IntModRing(M61 ** 2, q=M61)
    assert (R2.p, R2.n, R2.nilpotency_index) == (M61, 2, 2)
    assert _require_prime(M61) == M61
    for composite in (M61 * (2 ** 31 - 1), M61 ** 2, 2 ** 64):
        with pytest.raises(PreconditionFailed):
            _require_prime(composite)
    with pytest.raises(PreconditionFailed):
        IntModRing(M61 * (2 ** 31 - 1), q=M61)


def test_factorization_and_primality_against_trial_division():
    # composites with large factors go through Pollard rho
    assert _factorize(M61 * (2 ** 31 - 1)) == {2 ** 31 - 1: 1, M61: 1}
    assert _factorize(1009 ** 3 * 1013 ** 2 * 12) == {2: 2, 3: 1, 1009: 3, 1013: 2}
    R = IntModRing(1009 * 1013 * (2 ** 31 - 1))
    assert R.p is None and R.radical == R.m and R.nilpotency_index == 1
    rng = random.Random(17)
    for m in list(range(2, 3000)) + [rng.randrange(2, 10 ** 10) for _ in range(200)]:
        want = _trial_factors(m)
        assert _factorize(m) == want, m
        assert _is_prime(m) == (want == {m: 1}), m
        R = IntModRing(m)
        split = next(iter(want.items())) if len(want) == 1 else (None, None)
        assert (R.p, R.n) == split, m
    # numbers with no prime below the trial bound
    for p, n in ((1009, 3), (M61, 2), (2 ** 31 - 1, 3), (1000003, 1)):
        assert _prime_power_split(p ** n) == (p, n)
    for m in (1009 ** 2 * 1013 ** 2, M61 * (2 ** 31 - 1), 1013 * 1009 ** 3):
        assert _prime_power_split(m) is None, m
    # strong pseudoprimes to the first nine and twelve prime bases
    for spsp in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not _is_prime(spsp)


def test_large_prime_power_moduli_construct_quickly():
    """Z/2^20001 and Z/3^12000 each construct within 2 s, timed in a fresh
    process; a hang ends at the timeout instead of stalling the suite."""
    code = (
        "import time; from affaut.rings import IntModRing\n"
        "for m, q in ((2 ** 20001, 2), (3 ** 12000, 3)):\n"
        "    t = time.perf_counter(); R = IntModRing(m, q=q)\n"
        "    print(R.p, R.n, time.perf_counter() - t)\n"
    )
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert out.returncode == 0, out.stderr
    rows = [line.split() for line in out.stdout.splitlines()]
    assert [(int(p), int(n)) for p, n, _ in rows] == [(2, 20001), (3, 12000)]
    assert all(float(t) < 2 for _, _, t in rows), rows


def test_one_power_helper_for_every_ring():
    rings_and_values = [
        (IntModRing(81, q=3), 5),
        (TruncSeriesRing("fp", 3, p=5), (2, 1, 3)),
        (TruncSeriesRing("rationals", 2), (Fraction(1, 2), Fraction(3))),
        (universal_coefficient_ring(3), universal_coefficient_ring(3).gen("b")),
    ]
    for ring, v in rings_and_values:
        acc = ring.one()
        for k in range(7):
            assert _pow_payload(ring, v, k) == acc
            assert (ring.elem(v) ** k).value == acc
            acc = ring.mul(acc, v)


_GONE = object()


def _with(doc, path, value):
    """A copy of the JSON document doc with the value at path (keys and
    indices) replaced by value, or removed when value is _GONE."""
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    node = doc
    for k in path[:-1]:
        node = node[k]
    if value is _GONE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


def _json_readers():
    """(reader, a document it reads, paths to its integers, to its lists
    and objects, to its required fields), one row per reader of outside
    JSON."""
    S = universal_coefficient_ring(trunc=3)
    matrix = ad_matrix(TruncPoly(IntModRing(16, q=2), [1, 1]), "k:4,2")
    return [
        (IntegerRing(q=3).payload_from_json, "5", [()], [], []),
        (IntModRing(27, q=3).payload_from_json, "5", [()], [], []),
        (TruncSeriesRing("fp", 2, p=3).payload_from_json, ["1", "2"], [(0,)], [()], []),
        (TruncSeriesRing("rationals", 2).payload_from_json, ["1/2", "3"], [(1,)], [()], []),
        (
            S.payload_from_json,
            {"terms": [{"coeff": "2", "exponents": {"a": 1}}], "b_denominator": 1},
            [("terms", 0, "coeff"), ("terms", 0, "exponents", "a"), ("b_denominator",)],
            [("terms",), ("terms", 0), ("terms", 0, "exponents")],
            [("terms", 0, "coeff")],
        ),
        (ring_from_descriptor, IntegerRing(q=3).descriptor(), [("q",)], [()], [("kind",)]),
        (
            ring_from_descriptor, IntModRing(27, q=3).descriptor(),
            [("m",), ("p",)], [], [("m",)],
        ),
        (
            ring_from_descriptor, TruncSeriesRing("fp", 2, p=3).descriptor(),
            [("e",), ("p",)], [], [("base",), ("e",)],
        ),
        (ring_from_descriptor, S.descriptor(), [("n",)], [("generators",)], [("generators",)]),
        (
            lambda j: TruncPoly.from_json(IntModRing(27), j), {"coeffs": ["1", "2"]},
            [("coeffs", 1)], [("coeffs",)], [("coeffs",)],
        ),
        (
            WittVec.from_json, WittVec.make(3, IntModRing(9, q=3), [1, 2]).to_json(),
            [("p",), ("components", 1), ("ring", "m")], [("components",), ("ring",)],
            [("p",), ("ring",), ("components",)],
        ),
        (
            UniversalWittLaw.from_json, derive_witt_laws(2, 1).to_json(),
            [("p",), ("level",), ("sum", 0, "terms", 0, "coeff")], [("sum",), ("prod",)],
            [("p",), ("level",), ("sum",), ("prod",)],
        ),
        (
            AdjointMatrix.from_json, matrix.to_json(), [("rows", 0, 0)],
            [("rows",), ("rows", 0), ("ring",)],
            [("ring",), ("rows",), ("subgroup",), ("mode",)],
        ),
        (
            gb._layout, {"kind": "capped", "p": 2, "precision": 2, "degree_cap": 1},
            [("p",), ("precision",), ("degree_cap",)], [()],
            [("kind",), ("p",), ("precision",), ("degree_cap",)],
        ),
        (gb._layout, {"kind": "shape", "p": 2, "d": 2}, [("d",)], [], [("d",)]),
    ]


# JSON values that are not integers, though Python's int() or a truth
# test would take them for one
NOT_INTEGERS = (True, False, 1.5, "1_0", " 3", "\u0663", "+3")


def test_json_booleans_are_not_integers():
    """bool is a subclass of int, so true and false must be refused by
    name rather than read as 1 and 0.  Every reader of outside JSON
    refuses them, and with them every other malformed input: a float or a
    string int() would take in an integer's place, a string in a list's
    place, a missing field."""
    for read, doc, ints, lists, required in _json_readers():
        read(doc)
        cases = [(p, bad) for p in ints for bad in NOT_INTEGERS]
        cases += [(p, "12") for p in lists] + [(p, _GONE) for p in required]
        for path, bad in cases:
            with pytest.raises(PreconditionFailed) as e:
                read(_with(doc, path, bad))
            if isinstance(bad, bool):
                assert "boolean" in str(e.value)
    with pytest.raises(PreconditionFailed, match="empty"):
        WittVec.from_json(WittVec.make(3, IntModRing(9), [1]).to_json() | {"components": []})
    law = derive_witt_laws(2, 1).to_json()
    for bad in ({"p": 4}, {"level": -1}):
        with pytest.raises(PreconditionFailed):
            UniversalWittLaw.from_json({**law, **bad})
    Q = TruncSeriesRing("rationals", 2)
    assert Q.payload_from_json(["-1/2", "3"]) == (Fraction(-1, 2), Fraction(3))
    for bad in ("1/0", "1/-2", "1/ 2", "1/2/3", "/2", "0.5"):
        with pytest.raises(PreconditionFailed):
            Q.payload_from_json([bad])


def test_package_output_reads_back_through_the_strict_readers():
    """Strictness must not refuse what the package writes: every to_json
    output reads back equal, the golden files included."""
    Q = TruncSeriesRing("rationals", 2)
    S = universal_coefficient_ring(trunc=3)
    half = (Fraction(1, 2), Fraction(-3, 4))
    polys = [
        TruncPoly(IntModRing(72), [5, 1, 70]),
        TruncPoly(TruncSeriesRing("fp", 3, p=5), [(1, 2, 3), (1,)]),
        TruncPoly(Q, [half, (1,), (Fraction(5, 3),)]),
        TruncPoly(S, [S.monomial(-3, {"a": 2, "q": 1}, bk=2), S.one(), S.gen("c")]),
        TruncPoly(derive_witt_laws(2, 1).ring, [0, 1]),
    ]
    for f in polys:
        assert TruncPoly.from_json(f.ring, json.loads(json.dumps(f.to_json()))) == f
        assert ring_from_descriptor(json.loads(json.dumps(f.ring.descriptor()))) == f.ring
    vectors = (
        WittVec.make(3, IntModRing(27, q=3), [1, 2, 26]),
        WittVec.make(2, Q, [half, (3,)]),
    )
    for u in vectors:
        assert WittVec.from_json(json.loads(json.dumps(u.to_json()))) == u
    for spec in ("full", "a:2", "atilde:1", "n:3,1", "k:4,2"):
        assert SubgroupSpec.parse(spec).show() == spec
    for path in sorted(GOLDEN.iterdir()):
        j = json.loads(path.read_text())
        if path.name.startswith("witt_law"):
            assert UniversalWittLaw.from_json(j).to_json() == j
        elif path.name.startswith("conj_matrix"):
            assert AdjointMatrix.from_json(j).to_json() == j
        else:
            law = gb._build_law(j["descriptor"])
            laws = [law.ring.payload_from_json(j["laws"][c]) for c in law.coordinates]
            assert laws == list(law.laws) and law.to_json() == j


def test_flag_grammars_read_integers_by_the_same_rule():
    templates = (
        (parse_ring_flag, ("zmod:{}", "zmod:9:q={}", "tq:{}:2", "tq:3:{}", "sym:n={}")),
        (SubgroupSpec.parse, ("a:{}", "atilde:{}", "n:{},1", "k:3,{}")),
    )
    for read, forms in templates:
        for form in forms:
            read(form.format(3))
            for bad in ("1_0", " 3", "1.5", "true", "\u0663", ""):
                with pytest.raises(PreconditionFailed):
                    read(form.format(bad))


def test_negative_exponents_are_refused():
    S = universal_coefficient_ring(trunc=3)
    with pytest.raises(PreconditionFailed, match="negative exponent"):
        S.payload_from_json({"terms": [{"coeff": "1", "exponents": {"a": -3}}]})
    for ring, v in ((IntModRing(81, q=3), 5), (S, S.gen("b"))):
        with pytest.raises(PreconditionFailed, match="negative power"):
            _pow_payload(ring, v, -1)
        with pytest.raises(PreconditionFailed, match="negative power"):
            ring.elem(v) ** -2


def test_symbolic_ring_refuses_an_integer_q_below_2():
    """As IntegerRing does: with q = 1 q_val looped for ever, with q = 0 it
    divided by zero, and q = -3 was taken as a ring Z[x, q=-3]."""
    for q in ("1", "0", "-3"):
        with pytest.raises(PreconditionFailed, match="q must be at least 2"):
            ring_from_descriptor({"kind": "symbolic", "generators": ["x"], "q": q})
    with pytest.raises(PreconditionFailed, match="q must be at least 2"):
        SymbolicRing(("x",), q=1)
    assert ring_from_descriptor({"kind": "symbolic", "generators": ["x"], "q": "2"}).q == 2


def test_series_exact_division_past_the_truncation_is_canonical():
    """Dividing zero by t^k with k >= e gives the zero of length e, which
    compares equal to the ring's zero."""
    R = TruncSeriesRing("fp", 3, p=2)
    for k in (3, 5):
        assert R.exact_div_q((0, 0, 0), k) == (0, 0, 0)
        assert R.elem([0, 0, 0]).exact_div_by_q(k) == R.elem(0)
    with pytest.raises(NotDivisible):
        R.exact_div_q((0, 0, 1), 5)


def test_series_transport_keeps_the_field():
    """transport changes the precision only: a change of base field or of
    p is a RingMismatch, as between rings of different kinds."""
    F2 = TruncSeriesRing("fp", 3, p=2)
    for dst in (
        TruncSeriesRing("rationals", 4),
        TruncSeriesRing("fp", 4, p=3),
        IntModRing(8, q=2),
    ):
        with pytest.raises(RingMismatch):
            F2.transport([(1, 0, 1)], dst)
    with pytest.raises(RingMismatch):
        TruncSeriesRing("rationals", 2).transport([F2.zero()], F2)
    assert F2.transport([(1, 0, 1)], TruncSeriesRing("fp", 4, p=2)) == [(1, 0, 1, 0)]


def test_q_power_refuses_a_negative_exponent():
    """Every ring with a q: Z/16 raised ValueError, F_2[t]/(t^3) returned
    a tuple of length 4, and the integer rings returned a float."""
    for ring in (
        IntModRing(16, q=2),
        TruncSeriesRing("fp", 3, p=2),
        TruncSeriesRing("rationals", 3),
        IntegerRing(q=2),
        SymbolicRing(("x",), q=3),
        universal_coefficient_ring(trunc=3),
    ):
        with pytest.raises(PreconditionFailed, match="exponent of q"):
            ring.q_power(-1)
        assert ring.q_power(0) == ring.one()


def test_equal_elements_hash_alike():
    """Equal elements of one ring, built apart, collapse to one in a set,
    for each ring kind; elements of different rings stay apart."""
    S = universal_coefficient_ring(trunc=3)
    F2, Q = TruncSeriesRing("fp", 3, p=2), TruncSeriesRing("rationals", 2)
    pairs = [
        (IntegerRing(q=2).elem(12), IntegerRing(q=2).elem(6) * 2),
        (IntModRing(16, q=2).elem(3), IntModRing(16, q=2).elem(19)),
        (F2.elem([1, 3]), TruncSeriesRing("fp", 3, p=2).elem([1, 1, 0])),
        (Q.elem([Fraction(1, 2)]), TruncSeriesRing("rationals", 2).elem(2).inv()),
        (S.elem(S.gen("a")) * S.elem(S.gen("b")), S.elem(S.gen("b")) * S.elem(S.gen("a"))),
        (S.elem(S.gen("b")).inv() * S.elem(S.gen("b")), S.elem(1)),
    ]
    for x, y in pairs:
        assert x == y and len({x, y}) == 1
    assert len({IntModRing(16, q=2).elem(3), IntModRing(32, q=2).elem(3)}) == 2
