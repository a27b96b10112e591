"""Polynomial maps of the affine line over a truncated ring, under
composition.

A :class:`TruncPoly` is a univariate polynomial f(T) over one of the
coefficient rings from :mod:`affaut.rings`; it represents the substitution
map T -> f(T).  Composition is the group operation; f is invertible
exactly when its linear coefficient is a unit and all higher ones are
nilpotent.

Products of coefficient lists go through one per-ring kernel: Kronecker
substitution over Z/m, bivariate Kronecker substitution over F_p[t]/(t^e),
both by one codec (_codec), and the schoolbook product (_schoolbook) over
Q[t]/(t^e) and symbolic rings.  A packed integer over either packed ring
is reduced in packed form (_mod_slots): a few whole-integer operations
divide every slot by m (by p over F_p[t]/(t^e), where a mask then drops
the t-degrees from e on) at once, by Granlund and Montgomery's division
by an invariant integer, and the list is read out only after that, or
not at all between the steps of the Taylor shifts and the baby-step/
giant-step composition.  That division is exact for slots below
2^(W-1), W the slot's bits, so every slot width has one spare bit.

The two packed rings compose by one baby-step/giant-step routine
over their kernel (Paterson-Stockmeyer): f splits into blocks of about
sqrt(deg f / 2) coefficients, each block is evaluated at g from the
packed powers of g without reduction, and Horner's rule in a power of g
joins the blocks.  The schoolbook rings compose in the same routine by
Horner's rule over _schoolbook.  Over Z/m two more paths take over: at
high degree, an expansion around the affine part of a unit-slope inner
map with nilpotent tail; at low degree, one Horner pass over big
integers that carry the exact integer coefficients.  The expansion
starts from the affine composition f(c + uT), at every length a Taylor
shift that doubles its block size level by level with one packed
product per level, and adds the terms of the tail: term j is needed
only modulo m / gcd(m, d^j), with d the common divisor of the tail and
m (q^sigma over Z/p^n), so in the filtered groups, where high degrees
carry high powers of q, those terms run at falling precision and stop
where the precision runs out.

A long f over Z/p^n splits q-adically first.  With f = f_lo + p^kf F and
g = g_lo + p^kg G, where f_lo = f mod p^kf, g_lo = g mod p^kg and
kg = ceil(n/2) <= kf,

    f(g) = f_lo(g_lo) + p^kg G f_lo'(g_lo) + p^kf F(g)   (mod p^n).

The middle term is exact because 2kg >= n ends the Taylor series of f_lo
around g_lo after its linear term.  The last two terms are needed only
mod p^(n-kg) and p^(n-kf), because p^k X mod p^n depends on X mod
p^(n-k) alone.  In the filtered groups f_lo, g_lo and g mod p^(n-kf) are
short, so only the composition of F stays long, and it runs at a
precision whose Taylor slots fit 4 bytes.  The tests check every path
against a schoolbook reference.

The order of an automorphism comes from the q-adic filtration as well:
the order of its affine reduction mod q has a closed form over F_p, and a
p-power ladder finds the order in the kernel of that reduction, a p-group
over Z/p^n and F_p[t]/(t^e); see :func:`order`.

The congruence kernels K_r = {T + q^r h}, the maps congruent to T mod q^r,
are built by one function and read back by one (_kernel_poly, _kernel_h):
sampling, the slab coordinates, the commutation probe behind
:func:`composition_series`, and the conjugation action in
:mod:`affaut.adjoint` all go through them.
"""

from __future__ import annotations

import functools
import itertools
import math
from array import array
from typing import NamedTuple, Optional, Sequence, Union

from .errors import (
    AlgebraError,
    InfiniteCoefficientRing,
    NotAnAutomorphism,
    PreconditionFailed,
    RingMismatch,
    ShapeMismatch,
    TooLarge,
)
from .rings import (
    IntModRing,
    Ring,
    RingElem,
    TruncSeriesRing,
    _as,
    _as_int,
    _draws,
    _factorize,
    _field,
    _trim,
)

# ---------------------------------------------------------------------------
# integer coefficient-list helpers (hot path: plain ints, no wrappers)
#
# Kronecker substitution: a list of nonnegative ints becomes one big integer
# with a fixed number of bytes per slot, so one CPython bigint multiply does
# a whole convolution.  Slots of 1, 2, 4 or 8 bytes go through array and
# memoryview; wider slots, for large moduli, go through bytes.
_ARRAY_CODE = {array(code).itemsize: code for code in "BHILQ"}


def _slot_width(bits: int) -> int:
    """Bytes per slot for values below 2**bits."""
    for w in _ARRAY_CODE:  # ascending: array item sizes grow along "BHILQ"
        if bits <= 8 * w:
            return w
    return (bits + 7) // 8


def _pack(xs: Sequence[int], w: int) -> int:
    code = _ARRAY_CODE.get(w)
    if code:
        return int.from_bytes(array(code, xs).tobytes(), "little")
    return int.from_bytes(b"".join(x.to_bytes(w, "little") for x in xs), "little")


def _unpack(n: int, count: int, w: int) -> list:
    buf = n.to_bytes(w * count, "little")
    code = _ARRAY_CODE.get(w)
    if code:
        return memoryview(buf).cast(code).tolist()
    return [int.from_bytes(buf[i:i + w], "little") for i in range(0, len(buf), w)]


# a zmod-filtered sweep (seed 1) uses about 140 masks, 200 KB in all
@functools.lru_cache(maxsize=256)
def _block_mask(width: int, blocks: int, stride: int) -> int:
    """The low `width` bytes of each of `blocks` blocks of `stride` bytes."""
    return int.from_bytes((b"\xff" * width + bytes(stride - width)) * blocks, "little")


def _mod_slots(n: int, count: int, w: int, m: int) -> int:
    """n with each of its `count` w-byte slots reduced mod m, in packed
    form; every slot must be below 2^(W-1), W = 8w, so each slot width
    over Z/m has a spare bit.

    Division by an invariant integer (Granlund and Montgomery, PLDI 1994,
    Thm 4.2) on all slots at once: with l = bits(m-1), k = W-1+l and
    M = 2^k // m + 1, floor(x*M / 2^k) = x // m for every x < 2^(W-1),
    and x*M < 2^(2W-1).  So the even and the odd slots, each spread over
    2W-bit fields by the even mask, multiply M without a carry between
    fields; a shift by k puts each quotient, below 2^(W-l), at its
    field's start, and the quotient mask, the even mask shifted down by l
    bits and cut to its fields, keeps its W-l bits, since the discarded
    low bits of the next field land from bit W+1-l on.  Subtracting q*m,
    at most the slot, borrows from no other slot.  The mask covers a
    power-of-two number of pairs, so few masks serve every count: an AND
    costs only the shorter operand."""
    width = 8 * w
    bits = (m - 1).bit_length()
    k = width - 1 + bits
    big = (1 << k) // m + 1
    half = _block_mask(w, 1 << ((count - 1) // 2).bit_length(), 2 * w)
    quot = half >> bits & half
    q = (n & half) * big >> k & quot | ((n >> width & half) * big >> k & quot) << width
    return n - q * m


def _unpack_mod(n: int, count: int, w: int, m: int) -> list:
    """The `count` w-byte slots of n reduced mod m, as a trimmed list."""
    return _trim(_unpack(_mod_slots(n, count, w, m), count, w))


def _product_slot(m: int, terms: int) -> int:
    """Bytes per slot for any sum of `terms` products of two canonical
    coefficients over Z/m, each at most (m-1)^2, plus one canonical
    coefficient, and the spare bit that _mod_slots needs."""
    return _slot_width(2 * (m - 1).bit_length() + terms.bit_length() + 1)


# Compositions over Z/m whose exact integer result packs into at most this
# many bytes run through the integers; larger ones reduce mod m as they go.
_EXACT_BYTES = 512


def _exact_slot(f_len: int, g_sum: int, m: int) -> int:
    """Bytes per slot that hold every coefficient of f(g) over Z, for
    canonical f of length f_len and canonical g with coefficient sum g_sum:
    those coefficients are nonnegative and sum to f(g_sum), at most
    (m-1) * f_len * g_sum^(f_len-1), and the slot keeps the spare bit of
    _mod_slots."""
    bits = (m - 1).bit_length() + f_len.bit_length() + 1
    return _slot_width(bits + (f_len - 1) * max(g_sum, 1).bit_length())


def _compose_int_exact(f: Sequence[int], g: Sequence[int], m: int, w: int) -> list:
    """f(g) mod m through the integers, for g of length at least 2 and w
    from _exact_slot: f evaluated at the packed g carries the coefficients
    of f(g) over Z in its w-byte digits, so one Horner pass over big
    integers does the whole composition."""
    pg = _pack(g, w)
    acc = 0
    for a in reversed(f):
        acc = acc * pg + a
    return _unpack_mod(acc, (len(f) - 1) * (len(g) - 1) + 1, w, m)


def _affine_compose_int(f: Sequence[int], c: int, u: int, m: int) -> list:
    """f(c + u*T) mod m by a Taylor shift, level by level: at block size
    s = 1, 2, 4, ..., every pair of neighbouring blocks (lo, hi) of the
    coefficient list becomes lo + (c + u*T)^s * hi, a block of 2s
    coefficients.  All pairs of one level take one Kronecker
    product: a byte mask and a shift split the packed list into its lo
    and hi blocks, the hi blocks multiply the packed row (c + u*T)^s at
    once, since each product fills its pair's 2s slots and no more.  The
    level's result and the next row, the square of this one, are reduced
    mod m in packed form, so f is packed once and read out once, after
    the last level.  A slot holds lo plus at most s + 1 products of
    canonical coefficients, with s < len(f), and the spare bit that the
    packed reduction needs (_product_slot)."""
    n = len(f)
    if not n:
        return []
    w = _product_slot(m, n)
    acc = _pack(f, w)
    row = _pack((c, u), w)
    s = 1
    while True:
        mask = _block_mask(w * s, -(-n // (2 * s)), 2 * w * s)
        acc = (acc & mask) + (acc >> 8 * w * s & mask) * row
        s *= 2
        if s >= n:
            return _unpack_mod(acc, n, w, m)
        acc = _mod_slots(acc, n, w, m)
        row = _mod_slots(row * row, s + 1, w, m)


def _compose_int_taylor(f: Sequence[int], g: Sequence[int], ring: IntModRing) -> list:
    """f(g) mod m via the expansion around the affine part of g:

        f(b0 + rest) = sum_j (H_j f)(b0) * rest^j

    with H_j the j-th Hasse derivative and b0 = g_0 + g_1*T.  Because
    (H_j f)(b0) = u^-j * H_j(f o b0) when b0 is affine with unit slope u,
    one affine composition f o b0 (_affine_compose_int, at the full
    modulus) plus binomial scalings of its coefficients covers every j.

    With s = rest/u and d = gcd(m, s) (q^sigma over Z/p^n), term j is
    d^j * H_j(f o b0) * (s/d)^j, so both factors are needed only mod
    m_j = m / gcd(m, d^j).  The filtration makes the high coefficients of
    both vanish there, so the products shrink as j grows, and the sum
    stops at m_j = 1, which nilpotency of rest guarantees."""
    m = ring.m
    if not f:
        return []
    c = g[0] if g else 0
    u = g[1] if len(g) > 1 else 0
    base = _affine_compose_int(f, c, u, m)
    rest = _trim([0, 0] + list(g[2:]))
    if not rest or len(f) == 1:
        return base
    uinv = ring.inv(u)
    s = [x * uinv % m for x in rest]
    d = math.gcd(m, *s)
    t = [x // d for x in s]
    # d^j = G * e with G = gcd(m, d^j) and m_j = m / G, so term j is
    # G * (e * H_j(base) * t^j mod m_j).  The terms add up in one packed
    # integer: a slot sums base's coefficient and at most len(base)
    # products below m^2 for each j < terms, since d, a multiple of the
    # radical of m, has d^j = 0 mod m from the nilpotency index on.  t^j
    # stays packed too, reduced mod m_j in place: a slot of t^(j-1) * t
    # holds at most len(t) such products.  The binomial rows C(i, j) come
    # from running sums of the previous row.
    terms = min(len(f), ring.nilpotency_index)
    w = _product_slot(m, terms * max(len(base), len(t)))
    acc = _pack(base, w)
    count = len(base)
    tp = _pack(t, w)
    power = 0
    binom = [1] * len(base)
    top = len(base)  # base[top:] vanishes mod m_j
    scale = 1
    for j in range(1, terms):
        scale = scale * d % m
        big = math.gcd(m, scale)
        mj = m // big
        if mj == 1:
            break
        while top > j and not base[top - 1] % mj:
            top -= 1
        if top <= j:
            break
        tp = _mod_slots(tp, len(t), w, mj)
        power = _mod_slots(power * tp, plen + len(t) - 1, w, mj) if power else tp
        if not power:
            break
        plen = -(-power.bit_length() // (8 * w))
        e = scale // big
        binom = [0, *itertools.accumulate(binom[:top - 1])]
        hj = [big * (k * b * e % mj) for k, b in zip(binom[j:], base[j:top])]
        acc += _pack(hj, w) * power
        count = max(count, len(hj) + plen - 1)
    return _unpack_mod(acc, count, w, m)


# Over Z/p^n an outer map at least this long splits q-adically.  On filtered
# maps of 256 to 511 terms the split took 0.72x to 0.86x the time of the
# unsplit expansion where it did not decline; of 128 to 255 terms, 1.2x to
# 1.4x over Z/2^7 to Z/2^9.
_SPLIT_LEN = 256


def _compose_int_split(f: Sequence[int], g: Sequence[int], ring: IntModRing):
    """f(g) over Z/p^n by the q-adic split of the module docstring, or
    None when it gains nothing: when f has no short low part, or g is
    short and F's slots are no narrower than f's.  kf is the least level
    from kg on at which F's Taylor slots fit 4 bytes (n - 1 when none
    does); G is 0 when g has no short low part."""
    p, n = ring.p, ring.n
    kf = kg = (n + 1) // 2
    while kf < n - 1 and _product_slot(p ** (n - kf), len(f)) > 4:
        kf += 1
    narrower = _product_slot(p ** (n - kf), len(f)) < _product_slot(ring.m, len(f))
    if len(g) < _SPLIT_LEN and not narrower:
        return None  # nothing long to shorten, no slot to narrow
    qf, qg = p ** kf, p ** kg
    f_lo = _trim([x % qf for x in f])
    if 2 * len(f_lo) > len(f):
        return None
    g_lo = _trim([x % qg for x in g])
    if 2 * len(g_lo) > len(g):
        g_lo = g  # G = 0
    terms = [(_compose_int(f_lo, g_lo, ring), 1)]
    if g_lo is not g:
        low = ring.at_precision(n - kg)
        d_lo = _trim([k * a % low.m for k, a in enumerate(f_lo)][1:])
        d_at = _compose_int(d_lo, _trim([x % low.m for x in g_lo]), low)
        terms.append((_poly_mul([x // qg for x in g], d_at, low), qg))
    low = ring.at_precision(n - kf)
    hi = _compose_int([x // qf for x in f], _trim([x % low.m for x in g]), low)
    terms.append((hi, qf))
    # each term is below p^n: one slot holds their sum and the spare bit
    w = _slot_width((3 * ring.m).bit_length() + 1)
    count = max(len(t) for t, _ in terms)
    acc = sum(_pack(t, w) * s for t, s in terms)
    return _unpack_mod(acc, count, w, ring.m)


def _compose_int(f: Sequence[int], g: Sequence[int], ring: IntModRing) -> list:
    """f(g) over Z/m.  A long f over Z/p^n with a unit-slope inner map
    whose tail is nilpotent splits q-adically; such pairs otherwise take
    the expansion around the affine part of g.  Short pairs whose exact
    integer result packs small go through the integers, and the rest
    through baby steps and giant steps."""
    df, dg = len(f) - 1, len(g) - 1
    if df >= 1 and dg >= 1:
        # on filtered pairs with df*dg in (48, 96] the expansion took 0.82x
        # the time of the integers or baby steps, summed over 472 of them
        if df * dg > 48 and ring.is_unit(g[1]) and ring.all_nilpotent(g[2:]):
            if len(f) >= _SPLIT_LEN and ring.p is not None and ring.n >= 2:
                out = _compose_int_split(f, g, ring)
                if out is not None:
                    return out
            return _compose_int_taylor(f, g, ring)
        w = _exact_slot(len(f), sum(g), ring.m)
        if w * (df * dg + 1) <= _EXACT_BYTES:
            return _compose_int_exact(f, g, ring.m, w)
    return _compose_bsgs(f, g, ring)


# ---------------------------------------------------------------------------
# the per-ring product kernel and the one general composition
#
# A codec turns canonical coefficient lists over one ring into big integers
# that add and multiply as the polynomials do, reduces them in packed form,
# and reads them back, by Kronecker substitution over Z/m and F_p[t]/(t^e).
# The other rings multiply by _schoolbook.


def _schoolbook(a: Sequence, b: Sequence, ring: Ring) -> list:
    """a*b by the schoolbook product, len(a)*len(b) ring operations, for
    the rings with no packed form (Q[t]/(t^e), symbolic rings); trailing
    zeros are trimmed."""
    if not a or not b:
        return []
    add, mul, is_zero = ring.add, ring.mul, ring.is_zero
    out = [ring.zero()] * (len(a) + len(b) - 1)
    top = 0  # out[top:] holds no product yet: store, do not add
    for i, x in enumerate(a):
        if is_zero(x):
            continue
        for k, y in enumerate(b, i):
            out[k] = add(out[k], mul(x, y)) if k < top else mul(x, y)
        top = i + len(b)
    return ring.trim(out)


def _codec(ring: Ring, terms: int):
    """(pack, scalar, reduce, unpack) for canonical coefficient lists over
    ring, with slots for sums of `terms` coefficient products, or None
    when the ring packs into no integer.  reduce(n) reduces every slot of
    a packed sum of products in packed form, with a few whole-integer
    operations (_mod_slots; the slot's spare top bit keeps that division
    exact); unpack(n) reads a reduced n out, up to its highest nonzero
    slot, so the list comes out trimmed.  Both take the slot count from
    n's bit length.

    Over Z/m one coefficient is a slot of _product_slot(m, terms) bytes.
    A scalar packs as itself.

    Over F_p[t]/(t^e) the substitution is bivariate: the t^k part of the
    T^i coefficient goes to slot i*(2e-1) + k, so the t-degrees of a
    product, at most 2e-2, never reach the next T-coefficient; reduce
    takes every slot mod p and a mask keeps k < e.  A product of two
    canonical coefficients puts at most e terms below (p-1)^2 in a slot,
    and a slot holds any sum of `terms` such products and the spare bit.
    A scalar packs as the e slots of one T-coefficient."""
    if isinstance(ring, IntModRing):
        m = ring.m
        w = _product_slot(m, terms)

        def pack(a: Sequence[int]) -> int:
            return _pack(a, w)

        def reduce(n: int) -> int:
            return _mod_slots(n, -(-n.bit_length() // (8 * w)), w, m)

        def unpack(n: int) -> list:
            return _unpack(n, -(-n.bit_length() // (8 * w)), w)

        return pack, int, reduce, unpack
    if not isinstance(ring, TruncSeriesRing) or ring.p is None:
        return None
    p, e = ring.p, ring.e
    stride = 2 * e - 1
    pad = (0,) * (e - 1)
    w = _slot_width(2 * (p - 1).bit_length() + (terms * e).bit_length() + 1)
    bits = 8 * w * stride  # per T-coefficient

    def pack(a: Sequence[tuple]) -> int:
        return _pack([x for c in a for x in c + pad], w)

    def scalar(c: tuple) -> int:
        return _pack(c, w)

    def reduce(n: int) -> int:
        count = -(-n.bit_length() // bits)
        mask = _block_mask(w * e, 1 << count.bit_length(), w * stride)
        return _mod_slots(n, count * stride, w, p) & mask

    def unpack(n: int) -> list:
        slots = _unpack(n, -(-n.bit_length() // bits) * stride, w)
        return list(zip(*[slots[k::stride] for k in range(e)]))

    return pack, scalar, reduce, unpack


def _poly_mul(a: Sequence, b: Sequence, ring: Ring) -> list:
    if not a or not b:
        return []
    codec = _codec(ring, min(len(a), len(b)))
    if codec is None:
        return _schoolbook(a, b, ring)
    pack, _, reduce, unpack = codec
    return unpack(reduce(pack(a) * pack(b)))


def _compose_bsgs(f: Sequence, g: Sequence, ring: Ring) -> list:
    """f(g) by baby steps and giant steps (Paterson and Stockmeyer, SIAM J.
    Comput. 2, 1973; Brent and Kung, J. ACM 25, 1978).

    f splits into blocks of k coefficients, f = sum_i B_i * T^(ik) with
    deg B_i < k, so f(g) = sum_i B_i(g) * G^i with G = g^k.  The baby
    steps form g^1 .. g^k once, packed.  Each B_i(g) is a sum of scalar
    multiples of those packed powers, added up without reduction: the slots
    hold k such terms on top of one product.  Horner's rule in G combines
    the blocks, with one reduced product each.  The powers, G and the
    Horner sum stay packed throughout, a reduced product being a bigint
    multiply and a packed reduction, and the result is read out once; a
    composition makes about k + len(f)/k products in place of len(f), and
    since CPython multiplies large integers by Karatsuba, the fewer and
    larger giant products also cost less in total than Horner's lopsided
    ones.

    The rings with no codec run Horner's rule over _schoolbook instead:
    a schoolbook product costs len(a)*len(b) ring operations, so the
    giant steps on g^k alone would cost what Horner's rule costs."""
    n = len(f)
    if not n:
        return []
    # k near sqrt(len(f)/2) timed best on filtered compositions over
    # F_p[t]/(t^e), against sqrt(len(f)), sqrt(len(f)/3) and
    # (len(f)^2/2)^(1/3)
    k = math.isqrt((n - 1) // 2) + 1
    top = (len(g) - 1) * k + 1 if g else 0  # len(g^k) at most
    codec = _codec(ring, top + k)
    if codec is None:
        res = []
        for c in reversed(f):
            res = _schoolbook(res, g, ring)
            res[:1] = [ring.add(res[0], c)] if res else [c]
            res = ring.trim(res)  # only a lone constant can vanish
        return res
    pack, scalar, reduce, unpack = codec
    powers = [None, pack(g)]  # g^j packed
    for _ in range(k - 1):
        powers.append(reduce(powers[-1] * powers[1]))
    res = 0
    for i in reversed(range(0, n, k)):
        acc = scalar(f[i])
        for j in range(1, min(k, n - i)):
            acc = acc + scalar(f[i + j]) * powers[j]
        res = reduce(res * powers[k] + acc)
    return unpack(res)


# ---------------------------------------------------------------------------


class TruncPoly:
    """Immutable univariate polynomial over a coefficient ring, acting on
    the line by substitution.  Coefficients are stored low degree first
    with trailing zeros trimmed, so equality is canonical."""

    __slots__ = ("ring", "_c")

    def __init__(self, ring: Ring, coeffs: Sequence):
        self.ring = ring
        self._c = tuple(ring.trim([ring.pay(c) for c in coeffs]))

    @classmethod
    def _raw(cls, ring: Ring, payloads: Sequence) -> "TruncPoly":
        obj = object.__new__(cls)
        object.__setattr__(obj, "ring", ring)
        object.__setattr__(obj, "_c", tuple(ring.trim(payloads)))
        return obj

    def __setattr__(self, k, v):
        if k in ("ring", "_c") and not hasattr(self, "_c"):
            object.__setattr__(self, k, v)
        else:
            raise AttributeError("TruncPoly is immutable")

    # -- basic views ------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        return tuple(RingElem(self.ring, c) for c in self._c)

    def coeff(self, i: int) -> RingElem:
        c = self._c[i] if 0 <= i < len(self._c) else self.ring.zero()
        return RingElem(self.ring, c)

    def raw_coeffs(self) -> tuple:
        return self._c

    def degree(self) -> Optional[int]:
        """Degree, or None for the zero polynomial."""
        return len(self._c) - 1 if self._c else None

    def is_zero(self) -> bool:
        return not self._c

    def __eq__(self, other):
        if not isinstance(other, TruncPoly):
            return NotImplemented
        return self.ring == other.ring and self._c == other._c

    def __hash__(self):
        return hash((self.ring.describe(), self._c))

    def __repr__(self):
        if not self._c:
            return "0"
        parts = []
        for i, c in enumerate(self._c):
            if self.ring.is_zero(c):
                continue
            s = self.ring.show(c)
            if i > 0 and (" " in s or "+" in s or "-" in s[1:]):
                s = f"({s})"
            if i == 0:
                parts.append(s)
            elif i == 1:
                parts.append(f"{s}*T" if s != "1" else "T")
            else:
                parts.append(f"{s}*T^{i}" if s != "1" else f"T^{i}")
        return " + ".join(parts) if parts else "0"

    # -- arithmetic on coefficients ----------------------------------------

    def __add__(self, other: "TruncPoly") -> "TruncPoly":
        self._check(other)
        ring = self.ring
        a, b = self._c, other._c
        if len(a) < len(b):
            a, b = b, a
        out = list(map(ring.add, a, b))
        out += a[len(b):]
        return TruncPoly._raw(ring, out)

    def __sub__(self, other: "TruncPoly") -> "TruncPoly":
        self._check(other)
        ring = self.ring
        a, b = self._c, other._c
        out = list(map(ring.sub, a, b))
        out += a[len(b):]
        if len(b) > len(a):
            z = ring.zero()
            out += [ring.sub(z, y) for y in b[len(a):]]
        return TruncPoly._raw(ring, out)

    def scale(self, c) -> "TruncPoly":
        ring = self.ring
        cp = ring.pay(c)
        return TruncPoly._raw(ring, [ring.mul(cp, x) for x in self._c])

    def __mul__(self, other: "TruncPoly") -> "TruncPoly":
        self._check(other)
        return TruncPoly._raw(self.ring, _poly_mul(self._c, other._c, self.ring))

    def derivative(self, i: int = 1) -> "TruncPoly":
        """The i-th divided derivative, sum over m of C(m, i) c_m T^(m-i)."""
        ring = self.ring
        ks = (ring.from_int(math.comb(m, i)) for m in range(i, len(self._c)))
        return TruncPoly._raw(ring, list(map(ring.mul, ks, self._c[i:])))

    def evaluate(self, x) -> RingElem:
        ring = self.ring
        xp = ring.pay(x)
        acc = ring.zero()
        for c in reversed(self._c):
            acc = ring.add(ring.mul(acc, xp), c)
        return RingElem(ring, acc)

    def _check(self, other: "TruncPoly"):
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")

    # -- the group structure ----------------------------------------------

    def compose(self, g: "TruncPoly") -> "TruncPoly":
        """self(g(T)) -- apply g first, then self."""
        self._check(g)
        ring = self.ring
        if isinstance(ring, IntModRing):
            return TruncPoly._raw(ring, _compose_int(self._c, g._c, ring))
        return TruncPoly._raw(ring, _compose_bsgs(self._c, g._c, ring))

    def is_automorphism(self) -> bool:
        """Unit linear coefficient and nilpotent higher coefficients; this
        is exactly invertibility under composition over these rings."""
        ring = self.ring
        if len(self._c) < 2:
            return False
        if not ring.is_unit(self._c[1]):
            return False
        return ring.all_nilpotent(self._c[2:])

    def require_automorphism(self) -> "TruncPoly":
        """self, once it is an automorphism; NotAnAutomorphism otherwise."""
        if not self.is_automorphism():
            raise NotAnAutomorphism(repr(self))
        return self

    def identity_congruence(self) -> int:
        """Largest r (capped at the truncation exponent) with
        self = T mod q^r."""
        n = self.ring.require_truncated()
        return min(n, self.ring.q_val_min(_offset(self)))

    def to_json(self) -> dict:
        return {"coeffs": [self.ring.payload_to_json(c) for c in self._c]}

    @classmethod
    def from_json(cls, ring: Ring, j: dict) -> "TruncPoly":
        coeffs = _field(j, "coeffs", "polynomial", list)
        return cls(ring, [ring.payload_from_json(c, "coeffs") for c in coeffs])


def identity_map(ring: Ring) -> TruncPoly:
    return TruncPoly._raw(ring, [ring.zero(), ring.one()])


def compose(f: TruncPoly, g: TruncPoly) -> TruncPoly:
    return f.compose(g)


# ---------------------------------------------------------------------------
# precision changes


def _to_precision(f: TruncPoly, k: int, lift: bool) -> TruncPoly:
    """f carried to precision k by Ring.transport: a lift (k >= n) or a
    reduction (k <= n) from the precision n of its ring."""
    src = f.ring
    n = src.require_truncated()
    if (k < n) if lift else (k > n):
        raise PreconditionFailed(f"cannot {'lift' if lift else 'reduce'} from q^{n} to q^{k}")
    dst = src.at_precision(k)
    return TruncPoly._raw(dst, src.transport(f._c, dst))


def reduce_precision(f: TruncPoly, m: int) -> TruncPoly:
    """Push f along R/q^n -> R/q^m (m <= n)."""
    return _to_precision(f, m, lift=False)


def lift_precision(f: TruncPoly, n: int) -> TruncPoly:
    """Lift f along canonical representatives to precision n >= current."""
    return _to_precision(f, n, lift=True)


# ---------------------------------------------------------------------------
# congruence kernels: the maps T + q^r h


def _kernel_poly(ring: Ring, gen, hs: Sequence) -> TruncPoly:
    """T + gen * h for a payload gen of ring and the payloads hs of h, low
    degree first; an h of degree below 1 still gives the linear T."""
    cs = [ring.mul(gen, h) for h in hs]
    cs += [ring.zero()] * (2 - len(cs))
    cs[1] = ring.add(ring.one(), cs[1])
    return TruncPoly._raw(ring, cs)


def _offset(g: TruncPoly) -> list:
    """The coefficients of g - T, low degree first, degrees 0 and 1 always present."""
    ring = g.ring
    cs = list(g._c) + [ring.zero()] * (2 - len(g._c))
    cs[1] = ring.sub(cs[1], ring.one())
    return cs


def _kernel_h(g: TruncPoly, r: int, dst: Ring) -> list:
    """The coefficients of (g - T)/q^r, low degree first and carried to
    dst, for g congruent to T mod q^r; degrees 0 and 1 always appear."""
    ring = g.ring
    return ring.transport([ring.exact_div_q(c, r) for c in _offset(g)], dst)


def _commutation_probe(
    ring: Ring, gen, samples: int, deg_cap: int, rng
) -> tuple[bool, int, Optional[tuple]]:
    """Compose `samples` random pairs T + gen * h, deg h <= deg_cap, both
    ways; returns (verdict, pairs checked, a non-commuting pair or None)."""
    for checked in range(1, samples + 1):
        f, g = (
            _kernel_poly(ring, gen, [ring.rand(rng) for _ in range(deg_cap + 1)])
            for _ in range(2)
        )
        if f.compose(g) != g.compose(f):
            return False, checked, (f, g)
    return True, samples, None


# ---------------------------------------------------------------------------
# iteration and order


def _power(f: TruncPoly, r: int) -> TruncPoly:
    """f^(r) for r >= 0 by repeated squaring, without composing with T."""
    acc = None
    while r:
        if r & 1:
            acc = f if acc is None else acc.compose(f)
        r >>= 1
        if r:
            f = f.compose(f)
    return identity_map(f.ring) if acc is None else acc


def iterate(f: TruncPoly, r: int) -> TruncPoly:
    """r-fold composition of f with itself (r >= 0) by repeated squaring;
    iterates of automorphisms keep the degree bounds of their filtered
    subgroup, so sizes stay tame."""
    if r < 0:
        raise PreconditionFailed("negative iteration count")
    return _power(f, r)


def _step_order(f: TruncPoly, cap: int) -> Optional[int]:
    """Least k <= cap with f^(k) = T, one composition per step; None
    when there is none."""
    ident = identity_map(f.ring)
    g = f
    k = 1
    while g != ident:
        if k >= cap:
            return None
        g = g.compose(f)
        k += 1
    return k


def _affine_order(a: int, b: int, p: int, cap: int) -> Optional[int]:
    """Order of the map a + b*T over F_p, b != 0, or None when it exceeds
    cap: 1 for T, p for the translations, and otherwise the multiplicative
    order of b, since the map then fixes a/(1 - b) and is conjugate to
    b*T.  That order divides p - 1; when it is at most cap, it divides
    the part S of p - 1 made of primes up to cap.  So for caps up to 10^6
    trial division finds S, and b^S != 1 means None, without splitting
    the large primes of p - 1, which can take rho hours.  Larger caps need
    all of p - 1, and raise TooLarge when rho cannot split it."""
    if b == 1:
        k = p if a else 1
        return k if k <= cap else None
    try:
        factors = _factorize(p - 1, smooth=cap if cap <= 10 ** 6 else None)
    except TooLarge as e:
        raise TooLarge(
            f"the order of {b} mod {p} needs the primes of p - 1: {e}; "
            "a cap of at most 10^6 needs only the primes up to the cap"
        ) from None
    k = math.prod(r ** e for r, e in factors.items())
    if pow(b, k, p) != 1:
        return None
    for r in factors:
        while k % r == 0 and pow(b, k // r, p) == 1:
            k //= r
    return k if k <= cap else None


def order(f: TruncPoly, cap: int = 10 ** 6) -> Optional[int]:
    """Least k >= 1 with f^(k) = T, or None when the order exceeds cap
    (infinite orders included).

    Reduction mod q is a homomorphism onto the affine maps over the
    residue ring, and its kernel, the maps T mod q, is filtered by the
    layers T + q^r h mod q^(r+1), each an additive group.  So the order
    of f is k0, the order of its affine reduction, times the order of
    f^(k0) in the kernel.  In residue characteristic p the residue ring is
    F_p, where k0 has a closed form (_affine_order), every layer has
    exponent p, the kernel is a p-group, and a p-power ladder f^(k0 p^i)
    ends at T after at most n - 1 rungs over Z/p^n (e - 1 over
    F_p[t]/(t^e)).  In characteristic 0 the layers are torsion-free, and
    over these residue rings (Q, and integer polynomials with b inverted)
    an affine map of finite order has order 1 or 2: u^k = 1 forces
    u = +-1, and T + c has infinite order unless c = 0.  So stepping finds
    k0 <= 2, and the order is k0 when f^(k0) = T and infinite otherwise.
    Composite Z/m has no q: there stepping runs on f itself."""
    if cap < 1:
        raise PreconditionFailed(f"cap must be at least 1, got {cap}")
    ring = f.require_automorphism().ring
    p = ring.residue_char
    if p is None:
        return _step_order(f, cap)
    if p:
        a, b = map(ring.residue, f._c[:2])
        k = _affine_order(a, b, p, cap)
    else:
        affine = reduce_precision(f, 1) if ring.truncation is not None else f
        k = _step_order(affine, min(cap, 2))
    if k is None:
        return None
    h = _power(f, k)
    ident = identity_map(ring)
    while h != ident:
        if not p or k * p > cap:
            return None
        h = _power(h, p)
        k *= p
    return k


# ---------------------------------------------------------------------------
# subgroup specifications and membership


class SubgroupSpec(NamedTuple):
    """Which subgroup a membership question refers to.

    flavor "full"   -- every automorphism;
    flavor "a"      -- degree <= d with coefficient of T^i divisible by
                       q^(i-1) for i >= 2;
    flavor "atilde" -- deg(f mod q^m) <= d*2^(m-2) for every 2 <= m <= n;
    flavor "n"      -- the "a"-shape at precision n, congruent to T mod q^r;
    flavor "k"      -- any automorphism congruent to T mod q^r.
    """

    flavor: str
    d: Optional[int] = None
    n: Optional[int] = None
    r: Optional[int] = None

    @classmethod
    def parse(cls, s: str) -> "SubgroupSpec":
        s = _as(s, str, "subgroup").strip().lower()
        if s == "full":
            return cls("full")
        head, _, tail = s.partition(":")
        if head in ("a", "atilde"):
            return cls(head, d=_as_int(tail, "subgroup d"))
        if head in ("n", "k"):
            n_s, _, r_s = tail.partition(",")
            return cls(head, n=_as_int(n_s, "subgroup n"), r=_as_int(r_s, "subgroup r"))
        raise PreconditionFailed(f"unknown subgroup spec {s!r}")

    def show(self) -> str:
        if self.flavor == "full":
            return "full"
        if self.flavor in ("a", "atilde"):
            return f"{self.flavor}:{self.d}"
        return f"{self.flavor}:{self.n},{self.r}"


def _atilde_blocks(d: int, n: int) -> list:
    """The valuation blocks of the degree-filtered subgroup of parameter d
    at precision n, v = 1 .. n in turn: (v, lo, hi) puts the coefficients
    of T^lo .. T^(hi-1) in q^v, and hi is None for v = n.  The bound
    deg(f mod q^m) <= d*2^(m-2) puts T^j past d*2^(m-2) in q^m, and the
    bounds nest, so v = 1 on 2 <= j <= d (affineness mod q), v on
    d*2^(v-2) < j <= d*2^(v-1), and v = n past d*2^(n-2).  For d <= 0
    the bounds leave no linear term: the v = n block starts at T^1."""
    ends = [max(d << v, 0) + 1 for v in range(n - 1)]
    return list(zip(range(1, n + 1), [2] + ends, ends + [None]))


def atilde_coefficient_valuation(d: int, j: int, n: int) -> int:
    """Minimum q-valuation forced on the coefficient of T^j by the degree
    bounds deg(f mod q^m) <= d*2^(m-2), together with affineness mod q."""
    n = _as_int(n, "the precision n", 1)
    if j <= 1:
        return 0
    return next((v for v, _, hi in _atilde_blocks(d, n) if hi is None or j < hi), n)


def member(f: TruncPoly, spec: SubgroupSpec) -> bool:
    if spec.flavor == "full":
        return f.is_automorphism()
    ring = f.require_automorphism().ring
    if spec.flavor == "atilde":
        c = f._c
        # an automorphism has its v = 1 block in q already
        for v, lo, hi in _atilde_blocks(spec.d, ring.require_truncated())[1:]:
            if lo < len(c) and ring.q_val_min(c[lo:hi]) < v:
                return False
        return True
    if spec.flavor not in ("a", "n", "k"):
        raise PreconditionFailed(f"unknown flavor {spec.flavor!r}")
    if spec.flavor != "a":
        if ring.truncation != spec.n:
            raise PreconditionFailed(
                f"ring precision {ring.truncation} != subgroup precision {spec.n}"
            )
        ring.require_truncated(spec.r)
    if spec.flavor != "k":
        # the "a"-shape, at degree d for "a" and at the precision n for "n"
        if len(f._c) - 1 > (spec.d if spec.flavor == "a" else spec.n):
            return False
        for i in range(2, len(f._c)):
            if ring.q_val(f._c[i]) < i - 1:
                return False
    return spec.flavor == "a" or f.identity_congruence() >= spec.r


# ---------------------------------------------------------------------------
# sampling


def sample_automorphism(ring: Ring, max_deg: int, rng) -> TruncPoly:
    """Uniform over automorphisms of degree <= max_deg (constant term free,
    unit linear term, nilpotent higher terms)."""
    coeffs = [ring.rand(rng), ring.rand_unit(rng)]
    coeffs += [ring.rand_nilpotent(rng) for _ in range(max_deg - 1)]
    return TruncPoly._raw(ring, coeffs)


def sample_filtered(ring: Ring, d: int, rng) -> TruncPoly:
    """Uniform over the degree-filtered subgroup of parameter d >= 1 (flavor
    "atilde"): T^j gets q^v times a draw of ring.rand, v the valuation the
    degree bounds force on it; one _draws call, on randrange's stream."""
    n = ring.require_truncated()
    d = _as_int(d, "the subgroup parameter d", 1)
    coeffs = [ring.rand(rng), ring.rand_unit(rng)]
    # the blocks below q^n; n = 1 draws its v = 1 block, which q^1 sends to 0
    blocks = _atilde_blocks(d, max(n, 2))[:-1]
    top = blocks[-1][2]
    if isinstance(ring, IntModRing):
        p, xs = ring.p, _draws(rng, ring.m, top - 2)
        for v, lo, hi in blocks:  # q^v x mod p^n = (x mod p^(n-v)) p^v
            r, a = p ** (n - v), p ** v
            coeffs += [x % r * a for x in xs[lo - 2:hi - 2]]
    else:
        # q^v x over F_p[t]/(t^n) shifts x up by v <= n places
        xs = tuple(_draws(rng, ring.p, n * (top - 2)))
        for v, lo, hi in blocks:
            coeffs += [(0,) * v + xs[i:i + n - v] for i in range(n * (lo - 2), n * (hi - 2), n)]
    return TruncPoly._raw(ring, coeffs)


def sample_kernel_element(ring: Ring, r: int, deg_cap: int, rng) -> TruncPoly:
    """Uniform over automorphisms congruent to T mod q^r with degree <=
    deg_cap, for a level 1 <= r <= n."""
    ring.require_truncated(r)
    qr = ring.q_power(r)
    return _kernel_poly(ring, qr, [ring.rand(rng) for _ in range(deg_cap + 1)])


# ---------------------------------------------------------------------------
# the last filtration slab of the degree-d shape group
#
# Inside the group of shape-d automorphisms at precision d, the elements
# reducing to T at precision d-1 form T + q^(d-1)*h with deg h <= d; the
# d+1 coefficients of h mod q are honest coordinates and composition is
# coordinatewise addition (valid for d >= 2, where q^(2(d-1)) = 0).


def nd_element(ring: Ring, coords: Sequence) -> TruncPoly:
    """Build T + q^(d-1) * sum(coords[j] * T^j) over a ring truncated at
    q^d; coords has d+1 entries read mod q."""
    d = ring.require_truncated()
    if len(coords) != d + 1:
        raise PreconditionFailed(f"need {d + 1} coordinates over a q^{d}-truncated ring")
    return _kernel_poly(ring, ring.q_power(d - 1), [ring.pay(c) for c in coords])


def nd_coordinates(f: TruncPoly) -> list:
    """Recover the d+1 coordinates of a slab element; inverse of
    nd_element up to reduction of each coordinate mod q."""
    ring = f.ring
    d = ring.require_truncated()
    if f.degree() is not None and f.degree() > d:
        raise ShapeMismatch(f"degree {f.degree()} exceeds {d}")
    if f.identity_congruence() < d - 1:
        raise ShapeMismatch("element does not reduce to T one level down")
    r0 = ring.at_precision(1)
    out = _kernel_h(f, d - 1, r0)
    return out + [r0.zero()] * (d + 1 - len(out))


# ---------------------------------------------------------------------------
# solvable filtration


class FiltrationStep(NamedTuple):
    """One precision-halving step of the filtration; levels are precision
    exponents for prime powers and plain moduli for composite m."""

    from_modulus: int
    to_modulus: int
    from_exponent: Optional[int]
    to_exponent: Optional[int]
    kernel_abelian: bool
    pairs_checked: int
    witness: Optional[tuple] = None

    def to_json(self) -> dict:
        out = {
            "from_modulus": str(self.from_modulus),
            "to_modulus": str(self.to_modulus),
            "kernel_abelian": self.kernel_abelian,
            "pairs_checked": self.pairs_checked,
        }
        if self.from_exponent is not None:
            out["from_exponent"] = self.from_exponent
            out["to_exponent"] = self.to_exponent
        if self.witness is not None:
            out["witness"] = [w.to_json() for w in self.witness]
        return out


# the most pairs the exhaustive commutation check composes: about 25 s at
# the 44 000 pairs a second of K_2 over Z/16 at degree cap 4 (Python 3.11)
_EXHAUSTIVE_PAIRS = 10 ** 6


def _kernel_elements_exhaustive(ring: Ring, r: int, deg_cap: int) -> list:
    """All automorphisms = T mod q^r with degree <= deg_cap, for Z/p^n or
    F_p[t]/(t^e): T + q^r h for h running over the polynomials over
    R/q^(n-r), lifted by transport.  They are counted before any is
    listed; more than _EXHAUSTIVE_PAIRS pairs are refused."""
    p = ring.residue_char
    if p == 0:
        raise InfiniteCoefficientRing(f"cannot enumerate kernels of {ring}")
    n = ring.require_truncated()
    count = p ** ((n - r) * (deg_cap + 1))
    if count * (count - 1) // 2 > _EXHAUSTIVE_PAIRS:
        raise TooLarge(
            f"{count} kernel elements make more than {_EXHAUSTIVE_PAIRS} "
            "pairs; use the sampled mode"
        )
    if r < n:
        low = ring.at_precision(n - r)
        hs = low.transport(low.elements(), ring)
    else:
        hs = [ring.zero()]
    qr = ring.q_power(r)
    return [_kernel_poly(ring, qr, c) for c in itertools.product(hs, repeat=deg_cap + 1)]


def check_abelian_kernel(
    ring: Ring,
    r: int,
    mode: str = "sampled",
    samples: int = 200,
    deg_cap: int = 4,
    rng=None,
) -> tuple[bool, int, Optional[tuple]]:
    """Probe whether the congruence kernel at level r is abelian, by
    composing pairs both ways.  Returns (verdict, pairs checked, witness),
    the witness being a non-commuting pair when one is found."""
    if mode not in ("exhaustive", "sampled"):
        raise PreconditionFailed(f"unknown mode {mode!r}")
    n = ring.truncation
    if r < 1 or (n is not None and r > n):
        raise PreconditionFailed(f"kernel level r = {r} is outside 1..{n or ''}")
    if deg_cap < 0:
        raise PreconditionFailed(f"degree cap must be at least 0, got {deg_cap}")
    if mode == "exhaustive":
        elems = _kernel_elements_exhaustive(ring, r, deg_cap)
        pairs = itertools.combinations(elems, 2)
        for checked, (f, g) in enumerate(pairs, 1):
            if f.compose(g) != g.compose(f):
                return False, checked, (f, g)
        return True, len(elems) * (len(elems) - 1) // 2, None
    if rng is None:
        raise PreconditionFailed("sampled mode needs an rng")
    if samples < 1:
        raise PreconditionFailed(f"need at least one sample, got {samples}")
    return _commutation_probe(ring, ring.q_power(r), samples, deg_cap, rng)


_SERIES_DEG_CAP = 4  # the degree of h in the sampled kernel elements T + m2 h


def composition_series(
    ring: IntModRing,
    rng=None,
    samples: int = 100,
) -> list[FiltrationStep]:
    """The precision-halving filtration of Z/m down to Z/rad(m), whose
    kernels are abelian, witnessing solvability down to the affine group.

    Each step halves every prime exponent of the modulus (rounded up), from
    m to m2; the kernel ideal I = (m2) then satisfies I^2 = 0, so the
    kernel {T + m2 h} is abelian.  For a prime power p^n the steps run
    n -> ceil(n/2) -> ... -> 1 and carry those exponents.  With an rng,
    each step carries sampled commutation evidence (deterministic given
    rng)."""
    if not isinstance(ring, IntModRing):
        raise PreconditionFailed("composition series works over Z/m")
    if rng is not None and samples < 1:
        raise PreconditionFailed(f"need at least one sample per kernel, got {samples}")
    steps: list[FiltrationStep] = []
    m, exps = ring.m, ring._factors
    while m != ring.radical:
        half = {p: (e + 1) // 2 for p, e in exps.items()}
        m2 = math.prod(p ** e for p, e in half.items())
        if m % m2 or (m2 * m2) % m:
            raise AlgebraError(f"kernel ideal ({m2}) of Z/{m} does not square to zero")
        ok, checked, wit = (
            _commutation_probe(IntModRing(m), m2, samples, _SERIES_DEG_CAP, rng)
            if rng is not None
            else (True, 0, None)
        )
        steps.append(
            FiltrationStep(
                from_modulus=m,
                to_modulus=m2,
                from_exponent=exps.get(ring.p),
                to_exponent=half.get(ring.p),
                kernel_abelian=ok,
                pairs_checked=checked,
                witness=wit,
            )
        )
        m, exps = m2, half
    return steps
