"""Coefficient rings with exact arithmetic and explicit q-adic structure.

Four kinds of ring are provided:

* ``IntegerRing`` -- arbitrary-precision integers, optionally with a
  distinguished prime q for valuations and exact division.
* ``IntModRing`` -- integers mod m.  When m = p^n the ring carries the
  q-adic structure q = p (valuations, canonical q-power multiples);
  composite m is supported for plain arithmetic and nilpotency tests.
* ``TruncSeriesRing`` -- truncated power series K[t]/(t^e) with K a prime
  field or the rationals; q = t.
* ``SymbolicRing`` -- multivariate polynomials over the integers in named
  generators, with at most one generator inverted (denominators are powers
  of that generator only) and an optional designated nilpotent generator q
  truncated at q^n.  The same kind doubles as a plain polynomial ring over
  the integers when the distinguished q is an integer prime instead of a
  generator (exact division then acts on the integer coefficients).

The q-adic contract.  A ring is *truncated* when it has a q with q^n = 0;
``truncation`` is that n, and None when the ring has no q (Z, composite
Z/m) or its q is not nilpotent (Z with a q, an untruncated symbolic
ring).  A truncation always comes with a q: ``SymbolicRing`` takes one
only with a q generator, and Z/m has one only for m a prime power.  The
filtration, the congruence levels and every precision change rest on
it, so the other modules ask ``require_truncated`` before using it and
carry payloads between precisions by ``transport``.  ``q_val`` is an
integer or None: zero has valuation n in a truncated ring and None in an
untruncated one.

The payload formats belong to this module, and three are read outside
it: the integers of Z/m, by the integer kernels of :mod:`affaut.autgroup`
and by the Witt and Greenberg modules; the terms of a symbolic element,
which :mod:`affaut.greenberg` reduces mod p; and the coefficient tuples
of F_p[t]/(t^e), by ``_series_codec`` in :mod:`affaut.autgroup`.  What
the group layer asks of a payload otherwise (its residue mod q, a random
nilpotent, every element of a finite ring) it asks the ring.

Values are immutable and kept in canonical form, so ``==`` is structural
equality and every element may be used as a dict key.  All operations are
pure; nothing here mutates shared state after construction.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import (
    InfiniteCoefficientRing,
    NotAUnit,
    NotDivisible,
    PreconditionFailed,
    RingMismatch,
    TooLarge,
)

# The one checker of outside input: every reader of JSON files and flags
# goes through it and raises only PreconditionFailed, naming the field.
def _as_int(x, what: str = "value", least: Optional[int] = None) -> int:
    """x as an int: a JSON int, or a string of ASCII decimal digits with
    an optional leading minus.  Booleans, floats and the other spellings
    int() takes ("1_0", " 2", non-ASCII digits) are refused."""
    digits = x.removeprefix("-") if isinstance(x, str) else ""
    if type(x) is not int and not (digits.isascii() and digits.isdigit()):
        kind = "the boolean " if isinstance(x, bool) else ""
        raise PreconditionFailed(f"{what} must be an integer, got {kind}{x!r}")
    k = int(x)
    if least is not None and k < least:
        raise PreconditionFailed(f"{what} must be at least {least}, got {k}")
    return k


def _as(x, kind: type, what: str):
    """x, when it is a JSON value of the kind given: int (by _as_int), list,
    dict (an object) or str.  A string is never a list of its characters."""
    if kind is int:
        return _as_int(x, what)
    if not isinstance(x, kind):
        name = {list: "a list", dict: "an object", str: "a string"}[kind]
        raise PreconditionFailed(f"{what} must be {name}, got {type(x).__name__}")
    return x


def _field(j, key: str, what: str, kind: Optional[type] = None, *default):
    """j[key] of the JSON object j that holds what, checked by _as when a
    kind is given; like dict.pop, the default if the key is absent and
    one is given.  Other keys are ignored."""
    if key not in _as(j, dict, what):
        if not default:
            raise PreconditionFailed(f"{what} has no {key!r} field")
        return default[0]
    return j[key] if kind is None else _as(j[key], kind, f"{what} {key}")


# Miller-Rabin with the first thirteen primes as bases decides primality
# exactly below 3317044064679887385961981 (Sorenson and Webster, Math.
# Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(m: int) -> bool:
    """Strong-probable-prime test to the bases _MR_BASES.

    Exact for m below about 3.3 * 10^24 (the bound above).  Above it
    every prime is still reported prime, but a composite that is a strong
    pseudoprime to all thirteen bases is misread as prime, as the bound
    itself is.  Such composites are rare and do not turn up by chance,
    yet they can be built on purpose: there, primality is trusted, not
    proven."""
    if m < 2:
        return False
    for b in _MR_BASES:
        if m % b == 0:
            return m == b
    d, s = m - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _iroot(m: int, k: int) -> int:
    """floor(m^(1/k)) for m >= 1, by Newton's method on integers."""
    x = 1 << -(-m.bit_length() // k)  # at least the root
    while True:
        y = ((k - 1) * x + m // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


# _factorize divides out the primes below this bound before it splits
# what is left, so _prime_power_split sees only primes at least this large.
_TRIAL_BOUND = 1000


def _prime_power_split(m: int) -> Optional[tuple[int, int]]:
    """Return (p, n) with m = p^n and p prime, or None, for m > 1 that is
    prime or has no prime factor below _TRIAL_BOUND: one primality test
    per exponent n with an exact integer n-th root, and p^n = m with
    p >= _TRIAL_BOUND bounds the exponents past n = 1."""
    n = 1
    while n == 1 or _TRIAL_BOUND ** n <= m:
        p = _iroot(m, n)
        if p ** n == m and _is_prime(p):
            return p, n
        n += 1
    return None


def _require_prime(p) -> int:
    """p, when it is a prime integer; PreconditionFailed otherwise."""
    if not isinstance(p, int) or not _is_prime(p):
        raise PreconditionFailed(f"{p!r} is not a prime")
    return p


# Pollard rho's steps for one divisor: under a second in CPython, and
# enough for every prime factor below about 10^10.  Two factors above
# 10^12 would take hours.
_RHO_BUDGET = 1 << 19


def _rho_divisor(m: int) -> int:
    """A proper divisor of the odd composite m by Pollard's rho in Brent's
    form, gcds taken over batches of 128 steps.  It takes about p^(1/2)
    steps for the smallest prime factor p of m, and raises TooLarge
    rather than take more than _RHO_BUDGET."""
    steps = 0
    for c in itertools.count(1):
        y, r, acc, g = 2, 1, 1, 1
        while g == 1:
            steps += 2 * r  # r to move x, up to r more in the batches
            if steps > _RHO_BUDGET:
                raise TooLarge(
                    f"Pollard rho finds no prime factor of {m} in {_RHO_BUDGET} steps"
                )
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % m
                    acc = acc * abs(x - y) % m
                g = math.gcd(acc, m)
                k += 128
            r <<= 1
        if g == m:  # the batch overshot: step through it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = math.gcd(abs(x - ys), m)
        if g != m:
            return g


def _factorize(m: int, smooth: Optional[int] = None) -> dict[int, int]:
    """Prime factorization: trial division below _TRIAL_BOUND, then prime
    powers are split by _prime_power_split and other composites by
    _rho_divisor.  Primality is decided by _is_prime, with the guarantee
    stated there.  With smooth, only the primes up to smooth are wanted:
    trial division runs up to it, and what is left of m, whose primes
    are all larger, is dropped."""
    out: dict[int, int] = {}
    for d in range(2, _TRIAL_BOUND if smooth is None else smooth + 1):
        if d * d > m:
            break
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
    # m is now 1, a prime, or has no prime factor up to the trial bound
    todo = [m] if m > 1 and (smooth is None or m <= smooth) else []
    while todo:
        x = todo.pop()
        split = _prime_power_split(x)
        if split:
            p, n = split
            out[p] = out.get(p, 0) + n
        else:
            d = _rho_divisor(x)
            todo += [d, x // d]
    return dict(sorted(out.items()))


def _int_val(a: int, q: int) -> int:
    """The largest v with q^v | a, for a nonzero integer a."""
    v = 0
    while a % q == 0:
        a //= q
        v += 1
    return v


class Ring:
    """Abstract base.  Subclasses provide payload-level arithmetic; the
    thin :class:`RingElem` wrapper adds operator syntax on top."""

    kind: str = "?"
    # p when R/q = F_p and the kernel of reduction mod q is a p-group
    # (Z/p^n, F_p[t]/(t^e)); 0 in characteristic 0; None for Z/m with no q
    residue_char: Optional[int] = 0

    # -- element plumbing -------------------------------------------------

    def elem(self, x) -> "RingElem":
        return RingElem(self, self.pay(x))

    def pay(self, x):
        """Coerce ``x`` (int, payload, or RingElem of this ring) to a
        payload value."""
        if isinstance(x, RingElem):
            if x.ring != self:
                raise RingMismatch(f"element of {x.ring} used in {self}")
            return x.value
        if isinstance(x, int):
            return self.from_int(x)
        return self.coerce_payload(x)

    def coerce_payload(self, x):
        raise PreconditionFailed(f"cannot interpret {x!r} in {self}")

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def all_nilpotent(self, xs: Sequence) -> bool:
        """Whether every payload in xs is nilpotent; true when xs is
        empty."""
        return all(map(self.is_nilpotent, xs))

    # -- q-adic structure (see the module docstring) ------------------------

    @property
    def truncation(self) -> Optional[int]:
        """Exponent n with q^n = 0, or None when q is not nilpotent or the
        ring has no q at all."""
        return None

    def require_truncated(self, r: Optional[int] = None) -> int:
        """The truncation n, checking 1 <= r <= n for a level r."""
        n = self.truncation
        if n is None:
            raise PreconditionFailed(f"{self} is not truncated: it has no q with q^n = 0")
        if r is not None and not 1 <= r <= n:
            raise PreconditionFailed(f"congruence level {r} outside 1..{n}")
        return n

    def transport(self, xs: Sequence, dst: "Ring") -> list:
        """The payloads xs carried to dst, another precision of this ring,
        along the canonical map: reduction, or lifting by canonical
        representatives."""
        raise RingMismatch(f"cannot transport between {self} and {dst}")

    @property
    def nilpotency_index(self) -> Optional[int]:
        """Smallest k with x^k = 0 for every nilpotent x, or None when the
        ring has no nilpotents to speak of."""
        return self.truncation

    def q_power(self, k: int):
        raise PreconditionFailed(f"{self} has no q-adic structure")

    def q_val(self, a) -> Optional[int]:
        raise PreconditionFailed(f"{self} has no q-adic structure")

    def q_val_min(self, xs: Sequence) -> Optional[int]:
        """The smallest q_val over xs, zeros skipped where their q_val is
        None; the q_val of zero when nothing is left."""
        vals = [v for v in map(self.q_val, xs) if v is not None]
        return min(vals) if vals else self.q_val(self.zero())

    def exact_div_q(self, a, k: int):
        raise PreconditionFailed(f"{self} has no q-adic structure")

    # -- sampling ----------------------------------------------------------

    def rand(self, rng):
        raise InfiniteCoefficientRing(f"cannot sample uniformly from {self}")

    def rand_unit(self, rng):
        raise InfiniteCoefficientRing(f"cannot sample uniformly from {self}")

    # -- serialization -----------------------------------------------------

    def descriptor(self) -> dict:
        raise NotImplementedError

    def payload_to_json(self, a):
        raise NotImplementedError

    def payload_from_json(self, j, what: str = "value"):
        return self.from_int(_as_int(j, what))

    def __repr__(self):
        return self.describe()

    def describe(self) -> str:
        return self.kind


class RingElem:
    """A ring payload tagged with its ring.  Cheap enough for tests and
    public API; hot loops operate on raw payloads instead."""

    __slots__ = ("ring", "value")

    def __init__(self, ring: Ring, value):
        self.ring = ring
        self.value = value

    def _pay(self, other):
        return self.ring.pay(other)

    def __add__(self, other):
        return RingElem(self.ring, self.ring.add(self.value, self._pay(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return RingElem(self.ring, self.ring.sub(self.value, self._pay(other)))

    def __rsub__(self, other):
        return RingElem(self.ring, self.ring.sub(self._pay(other), self.value))

    def __mul__(self, other):
        return RingElem(self.ring, self.ring.mul(self.value, self._pay(other)))

    __rmul__ = __mul__

    def __neg__(self):
        return RingElem(self.ring, self.ring.neg(self.value))

    def __pow__(self, k: int):
        return RingElem(self.ring, _pow_payload(self.ring, self.value, k))

    def inv(self) -> "RingElem":
        return RingElem(self.ring, self.ring.inv(self.value))

    def is_zero(self) -> bool:
        return self.ring.is_zero(self.value)

    def is_unit(self) -> bool:
        return self.ring.is_unit(self.value)

    def is_nilpotent(self) -> bool:
        return self.ring.is_nilpotent(self.value)

    def q_valuation(self):
        return self.ring.q_val(self.value)

    def exact_div_by_q(self, k: int = 1) -> "RingElem":
        return RingElem(self.ring, self.ring.exact_div_q(self.value, k))

    def to_json(self):
        return self.ring.payload_to_json(self.value)

    def __eq__(self, other):
        if isinstance(other, RingElem):
            return self.ring == other.ring and self.value == other.value
        if isinstance(other, int):
            return self.value == self.ring.from_int(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.ring, self.value))

    def __repr__(self):
        return f"{self.ring.show(self.value)}"


# ---------------------------------------------------------------------------
# Integers


class IntegerRing(Ring):
    kind = "integers"

    def __init__(self, q: Optional[int] = None):
        if q is not None and q < 2:
            raise PreconditionFailed("q must be at least 2")
        self.q = q

    def __eq__(self, other):
        return isinstance(other, IntegerRing) and other.q == self.q

    def __hash__(self):
        return hash(("integers", self.q))

    def describe(self):
        return f"Z(q={self.q})" if self.q else "Z"

    def from_int(self, k: int) -> int:
        return k

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_zero(self, a):
        return a == 0

    def is_unit(self, a):
        return a in (1, -1)

    def is_nilpotent(self, a):
        return a == 0

    def inv(self, a):
        if a in (1, -1):
            return a
        raise NotAUnit(f"{a} is not a unit in Z")

    def q_power(self, k: int):
        self._need_q()
        _as_int(k, "the exponent of q", 0)
        return self.q ** k

    def q_val(self, a):
        self._need_q()
        return None if a == 0 else _int_val(a, self.q)

    def exact_div_q(self, a, k: int):
        self._need_q()
        d = self.q ** k
        if a % d:
            raise NotDivisible(f"{a} is not divisible by {self.q}^{k}")
        return a // d

    def _need_q(self):
        if self.q is None:
            raise PreconditionFailed("no distinguished q was set for Z")

    def at_precision(self, n: int) -> "IntModRing":
        self._need_q()
        return IntModRing(self.q ** n, q=self.q)

    def descriptor(self):
        d = {"kind": "integers"}
        if self.q is not None:
            d["q"] = str(self.q)
        return d

    def payload_to_json(self, a):
        return str(a)

    def show(self, a):
        return str(a)


# ---------------------------------------------------------------------------
# Integers mod m


@functools.lru_cache(maxsize=128)
def _prime_power_ring(p: int, k: int) -> "IntModRing":
    """Z/p^k, shared between the precision changes of inversion, which
    would otherwise factor the same modulus again on every call."""
    return IntModRing(p ** k, q=p)


class IntModRing(Ring):
    kind = "zmod"

    def __init__(self, m: int, q: Optional[int] = None):
        if m < 2:
            raise PreconditionFailed("modulus must be at least 2")
        self.m = m
        try:
            self._factors = _factorize(m)
        except TooLarge as e:
            raise TooLarge(
                f"Z/{m} needs the primes of m: {e}; "
                "work modulo each prime power that divides m"
            ) from None
        if q is not None and list(self._factors) != [q]:
            raise PreconditionFailed(f"{m} is not a power of {q}")
        split = len(self._factors) == 1
        self.p, self.n = next(iter(self._factors.items())) if split else (None, None)
        self.residue_char = self.p
        self.radical = 1
        for pp in self._factors:
            self.radical *= pp
        self._nilpotency = max(self._factors.values())

    def __eq__(self, other):
        return isinstance(other, IntModRing) and other.m == self.m

    def __hash__(self):
        return hash(("zmod", self.m))

    def describe(self):
        return f"Z/{self.m}"

    @property
    def truncation(self):
        return self.n

    @property
    def nilpotency_index(self):
        return self._nilpotency

    def from_int(self, k: int) -> int:
        return k % self.m

    def add(self, a, b):
        return (a + b) % self.m

    def sub(self, a, b):
        return (a - b) % self.m

    def neg(self, a):
        return (-a) % self.m

    def mul(self, a, b):
        return (a * b) % self.m

    def is_zero(self, a):
        return a % self.m == 0

    def is_unit(self, a):
        return math.gcd(a, self.m) == 1

    def is_nilpotent(self, a):
        # a^k = 0 (mod m) eventually iff every prime of m divides a.
        return a % self.radical == 0

    def all_nilpotent(self, xs):
        # the radical divides every x exactly when it divides their gcd
        return math.gcd(self.radical, *xs) == self.radical

    def inv(self, a):
        try:
            return pow(a, -1, self.m)
        except ValueError:
            raise NotAUnit(f"{a} is not a unit mod {self.m}") from None

    def _need_q(self):
        if self.p is None:
            raise PreconditionFailed(
                f"q-adic operations need a prime-power modulus, got {self.m}"
            )

    def q_power(self, k: int):
        self._need_q()
        _as_int(k, "the exponent of q", 0)
        return pow(self.p, k, self.m) if k < self.n else 0

    def q_val(self, a):
        """Largest k <= n with p^k | a; the truncation exponent n doubles
        as the valuation of zero."""
        self._need_q()
        a %= self.m
        return self.n if a == 0 else _int_val(a, self.p)

    def q_val_min(self, xs):
        # p^k divides every x exactly when it divides their gcd with m
        return self.q_val(math.gcd(self.m, *xs))

    def transport(self, xs, dst):
        if not isinstance(dst, IntModRing):
            return super().transport(xs, dst)
        m = dst.m
        return [a % m for a in xs]

    def exact_div_q(self, a, k: int):
        """Divide the canonical representative by p^k.  The result is only
        canonical in Z/p^(n-k); callers that care re-reduce there."""
        self._need_q()
        d = self.p ** k
        a %= self.m
        if a % d:
            raise NotDivisible(f"{a} is not divisible by {self.p}^{k} mod {self.m}")
        return a // d

    def at_precision(self, k: int) -> "IntModRing":
        self._need_q()
        return _prime_power_ring(self.p, k)

    def residue(self, a) -> int:
        return a % self.p

    def elements(self) -> range:
        return range(self.m)

    def rand(self, rng):
        return rng.randrange(self.m)

    def rand_nilpotent(self, rng):
        return self.radical * rng.randrange(self.m // self.radical) % self.m

    def rand_unit(self, rng):
        while True:
            a = rng.randrange(1, self.m)
            if math.gcd(a, self.m) == 1:
                return a

    def descriptor(self):
        d = {"kind": "zmod", "m": str(self.m)}
        if self.p is not None:
            d["p"] = str(self.p)
            d["n"] = self.n
        return d

    def payload_to_json(self, a):
        return str(a % self.m)

    def show(self, a):
        return str(a % self.m)


# ---------------------------------------------------------------------------
# Truncated power series K[t]/(t^e)


def _fraction():
    """fractions.Fraction, imported here so that only the Q[t]/(t^e) paths
    pay for loading fractions and decimal."""
    from fractions import Fraction

    return Fraction


def _identity(c):
    return c


class TruncSeriesRing(Ring):
    """K[t]/(t^e) with K = F_p or K = Q; payloads are coefficient tuples of
    length e, lowest degree first.  The field is fixed once, at
    construction, as a scalar reduction (mod p over F_p; over Q, where
    scalars are Fractions, the identity) with the zero and one of K, so
    the arithmetic has one body for both fields."""

    kind = "truncseries"

    def __init__(self, base: str, e: int, p: Optional[int] = None):
        if base not in ("fp", "rationals"):
            raise PreconditionFailed(f"unknown base field {base!r}")
        if base == "fp":
            if p is None:
                raise PreconditionFailed("prime p required for an F_p base")
            _require_prime(p)
            self._reduce, self._zero, self._one = p.__rmod__, 0, 1
        else:
            p = None
            Fraction = _fraction()
            self._reduce, self._zero, self._one = _identity, Fraction(0), Fraction(1)
        if e < 1:
            raise PreconditionFailed("truncation order must be positive")
        self.base = base
        self.p = p
        self.residue_char = p or 0
        self.e = e
        self._zeros = (self._zero,) * e

    def __eq__(self, other):
        return (
            isinstance(other, TruncSeriesRing)
            and other.base == self.base
            and other.p == self.p
            and other.e == self.e
        )

    def __hash__(self):
        return hash(("truncseries", self.base, self.p, self.e))

    def describe(self):
        k = f"F_{self.p}" if self.base == "fp" else "Q"
        return f"{k}[t]/(t^{self.e})"

    @property
    def truncation(self):
        return self.e

    def _scalar(self, c):
        if self.base == "fp":
            if isinstance(c, int):
                return c % self.p
            # no Fraction exists before fractions is loaded
            fractions = sys.modules.get("fractions")
            if fractions and isinstance(c, fractions.Fraction) and c.denominator == 1:
                return c.numerator % self.p
            raise PreconditionFailed(f"bad F_{self.p} scalar {c!r}")
        Fraction = _fraction()
        if isinstance(c, (int, str, Fraction)):
            return Fraction(c)
        raise PreconditionFailed(f"bad rational scalar {c!r}")

    def from_int(self, k: int):
        return (self._scalar(k),) + self._zeros[1:]

    def coerce_payload(self, x):
        if isinstance(x, (tuple, list)):
            cs = [self._scalar(c) for c in x]
            if any(c != 0 for c in cs[self.e:]):
                raise PreconditionFailed("series longer than truncation order")
            return tuple(cs[: self.e]) + self._zeros[len(cs):]
        raise PreconditionFailed(f"not a coefficient sequence: {x!r}")

    def add(self, a, b):
        return tuple(map(self._reduce, map(operator.add, a, b)))

    def sub(self, a, b):
        return tuple(map(self._reduce, map(operator.sub, a, b)))

    def neg(self, a):
        return tuple(map(self._reduce, map(operator.neg, a)))

    def mul(self, a, b):
        e = self.e
        out = list(self._zeros)
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                if i + j >= e:
                    break
                out[i + j] += x * y
        return tuple(map(self._reduce, out))

    def is_zero(self, a):
        return all(c == 0 for c in a)

    def is_unit(self, a):
        return a[0] != 0

    def is_nilpotent(self, a):
        return a[0] == 0

    def inv(self, a):
        """Power-series inversion by the standard recurrence."""
        if a[0] == 0:
            raise NotAUnit("constant term vanishes")
        c0inv = pow(a[0], -1, self.p) if self.base == "fp" else self._one / a[0]
        out = [c0inv]
        for k in range(1, self.e):
            acc = self._zero
            for i in range(1, k + 1):
                acc += a[i] * out[k - i]
            out.append(self._reduce(-c0inv * acc))
        return tuple(out)

    def q_power(self, k: int):
        _as_int(k, "the exponent of q", 0)
        if k >= self.e:
            return self._zeros
        return (self._zero,) * k + (self._one,) + (self._zero,) * (self.e - k - 1)

    def q_val(self, a):
        for i, c in enumerate(a):
            if c != 0:
                return i
        return self.e

    def q_val_min(self, xs):
        # the first t-degree at which any payload is nonzero
        for k, column in enumerate(zip(*xs)):
            if any(column):
                return k
        return self.e

    def exact_div_q(self, a, k: int):
        if any(c != 0 for c in a[:k]):
            raise NotDivisible(f"series has a nonzero coefficient below t^{k}")
        return a[k:] + self._zeros[:k]

    def transport(self, xs, dst):
        if not isinstance(dst, TruncSeriesRing) or dst.p != self.p:
            return super().transport(xs, dst)
        e = dst.e
        pad = dst._zeros[self.e:]
        return [a[:e] + pad for a in xs]

    def at_precision(self, k: int) -> "TruncSeriesRing":
        return TruncSeriesRing(self.base, k, self.p)

    def residue(self, a):
        return a[0]

    def elements(self):
        if self.base != "fp":
            raise InfiniteCoefficientRing("cannot list Q[t]/(t^e)")
        return itertools.product(range(self.p), repeat=self.e)

    def rand(self, rng):
        if self.base != "fp":
            raise InfiniteCoefficientRing("cannot sample Q[t]/(t^e) uniformly")
        return tuple(rng.randrange(self.p) for _ in range(self.e))

    def rand_nilpotent(self, rng):
        return self.mul(self.q_power(1), self.rand(rng))

    def rand_unit(self, rng):
        if self.base != "fp":
            raise InfiniteCoefficientRing("cannot sample Q[t]/(t^e) uniformly")
        first = rng.randrange(1, self.p)
        return (first,) + tuple(rng.randrange(self.p) for _ in range(self.e - 1))

    def descriptor(self):
        d = {"kind": "truncseries", "base": self.base, "e": self.e}
        if self.p is not None:
            d["p"] = str(self.p)
        return d

    def payload_to_json(self, a):
        return [str(c) for c in a]

    def payload_from_json(self, j, what="value"):
        scalars = _as(j, list, what)
        return self.coerce_payload([self._parse_scalar(s, what) for s in scalars])

    def _parse_scalar(self, s, what):
        """An integer, or over Q also the "a/b" payload_to_json writes."""
        if self.base == "rationals" and isinstance(s, str) and "/" in s:
            a, _, b = s.partition("/")
            return _fraction()(_as_int(a, what), _as_int(b, f"{what} denominator", 1))
        return _as_int(s, what)

    def show(self, a):
        parts = []
        for i, c in enumerate(a):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*t" if c != 1 else "t")
            else:
                parts.append(f"{c}*t^{i}" if c != 1 else f"t^{i}")
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Symbolic polynomials over Z, with one optional inverted generator


class SymElem:
    """Payload for :class:`SymbolicRing`: integer-coefficient terms keyed by
    exponent tuples, over a common denominator b^bk (b the inverted
    generator; bk is 0 when nothing is inverted).  Instances are canonical
    and treated as frozen."""

    __slots__ = ("terms", "bk", "_frozen")

    def __init__(self, terms: dict, bk: int):
        self.terms = terms
        self.bk = bk
        self._frozen = None

    def _key(self):
        if self._frozen is None:
            self._frozen = (self.bk, tuple(sorted(self.terms.items())))
        return self._frozen

    def __eq__(self, other):
        return isinstance(other, SymElem) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"SymElem({self.terms!r}, bk={self.bk})"


class SymbolicRing(Ring):
    kind = "symbolic"

    def __init__(
        self,
        generators: Sequence[str],
        inverted: Optional[str] = None,
        q: Union[None, int, str] = None,
        trunc: Optional[int] = None,
    ):
        gens = tuple(_as(g, str, "generator name") for g in generators)
        if len(set(gens)) != len(gens):
            raise PreconditionFailed("duplicate generator names")
        self.gens = gens
        self.gidx = {g: i for i, g in enumerate(gens)}
        if inverted is not None and inverted not in gens:
            raise PreconditionFailed(f"inverted generator {inverted!r} unknown")
        self.inverted = inverted
        self.inv_idx = self.gidx[inverted] if inverted else None
        if isinstance(q, str):
            if q not in self.gidx:
                raise PreconditionFailed(f"q generator {q!r} unknown")
            if q == inverted:
                raise PreconditionFailed("q cannot be the inverted generator")
        if isinstance(q, int) and q < 2:
            raise PreconditionFailed("q must be at least 2")
        if trunc is not None and not isinstance(q, str):
            raise PreconditionFailed("truncation requires q to be a generator")
        if trunc is not None and trunc < 1:
            raise PreconditionFailed("truncation exponent must be positive")
        self.q = q
        self.q_idx = self.gidx[q] if isinstance(q, str) else None
        self.trunc = trunc
        self._zero_exp = (0,) * len(gens)

    def __eq__(self, other):
        return (
            isinstance(other, SymbolicRing)
            and other.gens == self.gens
            and other.inverted == self.inverted
            and other.q == self.q
            and other.trunc == self.trunc
        )

    def __hash__(self):
        return hash(("symbolic", self.gens, self.inverted, self.q, self.trunc))

    def describe(self):
        inv = f", 1/{self.inverted}" if self.inverted else ""
        qq = f", q={self.q}" if self.q is not None else ""
        tt = f", q^{self.trunc}=0" if self.trunc else ""
        return f"Z[{', '.join(self.gens)}{inv}{qq}{tt}]"

    @property
    def truncation(self):
        return self.trunc

    # -- canonicalization --------------------------------------------------

    def _norm(self, terms: dict, bk: int) -> SymElem:
        qix = self.q_idx
        tr = self.trunc
        if tr is not None:
            terms = {e: c for e, c in terms.items() if c and e[qix] < tr}
        else:
            terms = {e: c for e, c in terms.items() if c}
        iix = self.inv_idx
        if bk and terms and iix is not None:
            shift = min(min(e[iix] for e in terms), bk)
            if shift:
                bk -= shift
                terms = {
                    e[:iix] + (e[iix] - shift,) + e[iix + 1:]: c
                    for e, c in terms.items()
                }
        if not terms:
            bk = 0
        return SymElem(terms, bk)

    def from_int(self, k: int) -> SymElem:
        if k == 0:
            return SymElem({}, 0)
        return SymElem({self._zero_exp: k}, 0)

    def gen(self, name: str) -> SymElem:
        i = self.gidx[name]
        e = self._zero_exp[:i] + (1,) + self._zero_exp[i + 1:]
        return SymElem({e: 1}, 0)

    def monomial(self, coeff: int, exps: Mapping[str, int], bk: int = 0) -> SymElem:
        e = list(self._zero_exp)
        for g, k in exps.items():
            e[self.gidx[g]] = k
        return self._norm({tuple(e): coeff}, bk)

    def coerce_payload(self, x):
        if isinstance(x, SymElem):
            return x
        raise PreconditionFailed(f"not a symbolic element: {x!r}")

    # -- arithmetic ----------------------------------------------------------

    def _scale_by_inv_gen(self, terms: dict, k: int) -> dict:
        if k == 0:
            return terms
        i = self.inv_idx
        return {e[:i] + (e[i] + k,) + e[i + 1:]: c for e, c in terms.items()}

    def add(self, a: SymElem, b: SymElem) -> SymElem:
        bk = max(a.bk, b.bk)
        ta = self._scale_by_inv_gen(a.terms, bk - a.bk)
        tb = self._scale_by_inv_gen(b.terms, bk - b.bk)
        out = dict(ta)
        for e, c in tb.items():
            nc = out.get(e, 0) + c
            if nc:
                out[e] = nc
            else:
                out.pop(e, None)
        return self._norm(out, bk)

    def neg(self, a: SymElem) -> SymElem:
        return SymElem({e: -c for e, c in a.terms.items()}, a.bk)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a: SymElem, b: SymElem) -> SymElem:
        qix = self.q_idx
        tr = self.trunc
        out: dict = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                if tr is not None and e1[qix] + e2[qix] >= tr:
                    continue
                e = tuple(x + y for x, y in zip(e1, e2))
                nc = out.get(e, 0) + c1 * c2
                if nc:
                    out[e] = nc
                else:
                    out.pop(e, None)
        return self._norm(out, a.bk + b.bk)

    def is_zero(self, a):
        return not a.terms

    def is_nilpotent(self, a):
        if not a.terms:
            return True
        if self.q_idx is not None and self.trunc is not None:
            return all(e[self.q_idx] >= 1 for e in a.terms)
        return False

    def _q_free_part(self, a: SymElem) -> tuple[dict, dict]:
        """Split terms into (q-exponent zero, q-exponent positive)."""
        qix = self.q_idx
        base = {}
        rest = {}
        for e, c in a.terms.items():
            (base if e[qix] == 0 else rest)[e] = c
        return base, rest

    def is_unit(self, a):
        try:
            self.inv(a)
            return True
        except NotAUnit:
            return False

    def inv(self, a: SymElem) -> SymElem:
        """Units are (+/-) b^k, possibly plus a q-nilpotent tail when the
        ring is q-truncated; the tail is inverted by a finite geometric
        series."""
        if not a.terms:
            raise NotAUnit("zero is not a unit")
        if self.q_idx is not None and self.trunc is not None:
            base_terms, tail_terms = self._q_free_part(a)
        else:
            base_terms, tail_terms = dict(a.terms), {}
        u0 = self._invert_monomial_part(base_terms, a.bk)
        if not tail_terms:
            return u0
        tail = SymElem(tail_terms, a.bk)
        # (u + t)^-1 = u0 * sum_j (-t u0)^j  with u0 = u^-1
        x = self.mul(tail, u0)
        acc = self.from_int(1)
        term = self.from_int(1)
        for _ in range(1, self.trunc):
            term = self.neg(self.mul(term, x))
            if not term.terms:
                break
            acc = self.add(acc, term)
        return self.mul(u0, acc)

    def _invert_monomial_part(self, terms: dict, bk: int) -> SymElem:
        if len(terms) != 1:
            raise NotAUnit("q-free part is not a single monomial")
        (e, c), = terms.items()
        if c not in (1, -1):
            raise NotAUnit(f"coefficient {c} is not invertible over Z")
        iix = self.inv_idx
        for i, k in enumerate(e):
            if k and i != iix:
                raise NotAUnit(f"generator {self.gens[i]} is not inverted")
        if iix is None:
            return SymElem({self._zero_exp: c}, 0)
        # (c * b^j / b^bk)^-1 = c * b^bk / b^j
        j = e[iix]
        ne = e[:iix] + (bk,) + e[iix + 1:]
        return self._norm({ne: c}, j)

    # -- q-adic structure ----------------------------------------------------

    def q_power(self, k: int) -> SymElem:
        _as_int(k, "the exponent of q", 0)
        if isinstance(self.q, int):
            return self.from_int(self.q ** k)
        if self.q_idx is None:
            raise PreconditionFailed("no q in this ring")
        if self.trunc is not None and k >= self.trunc:
            return SymElem({}, 0)
        e = list(self._zero_exp)
        e[self.q_idx] = k
        return SymElem({tuple(e): 1}, 0)

    def q_val(self, a: SymElem):
        if isinstance(self.q, int):
            if not a.terms:
                return None
            return min(_int_val(c, self.q) for c in a.terms.values())
        if self.q_idx is None:
            raise PreconditionFailed("no q in this ring")
        if not a.terms:
            return self.trunc
        return min(e[self.q_idx] for e in a.terms)

    def exact_div_q(self, a: SymElem, k: int) -> SymElem:
        if isinstance(self.q, int):
            d = self.q ** k
            out = {}
            for e, c in a.terms.items():
                if c % d:
                    raise NotDivisible(
                        f"coefficient {c} is not divisible by {self.q}^{k}"
                    )
                out[e] = c // d
            return SymElem(out, a.bk)
        if self.q_idx is None:
            raise PreconditionFailed("no q in this ring")
        qix = self.q_idx
        out = {}
        for e, c in a.terms.items():
            if e[qix] < k:
                raise NotDivisible(f"term with q-exponent {e[qix]} < {k}")
            out[e[:qix] + (e[qix] - k,) + e[qix + 1:]] = c
        return self._norm(out, a.bk)

    def transport(self, xs, dst):
        if not isinstance(dst, SymbolicRing):
            return super().transport(xs, dst)
        return [dst._norm(dict(a.terms), a.bk) for a in xs]

    def at_precision(self, k: int) -> "SymbolicRing":
        if self.q_idx is None:
            raise PreconditionFailed("truncation requires a q generator")
        return SymbolicRing(self.gens, self.inverted, self.q, k)

    # -- substitution ----------------------------------------------------------

    def substitute(self, a: SymElem, target: Ring, assignment: Mapping[str, object]):
        """Evaluate ``a`` in ``target`` with every generator assigned a
        payload value there.  The inverted generator's assignment must be a
        unit in the target."""
        vals = []
        for g in self.gens:
            if g not in assignment:
                raise PreconditionFailed(f"no value for generator {g}")
            vals.append(target.pay(assignment[g]))
        total = target.zero()
        for e, c in a.terms.items():
            term = target.from_int(c)
            for v, k in zip(vals, e):
                if k:
                    term = target.mul(term, _pow_payload(target, v, k))
            total = target.add(total, term)
        if a.bk:
            binv = target.inv(vals[self.inv_idx])
            total = target.mul(total, _pow_payload(target, binv, a.bk))
        return total

    # -- sampling / serialization ----------------------------------------------

    def descriptor(self):
        d: dict = {"kind": "symbolic", "generators": list(self.gens)}
        if self.inverted:
            d["inverted"] = self.inverted
        if self.q is not None:
            d["q"] = str(self.q)
        if self.trunc is not None:
            d["n"] = self.trunc
        return d

    def payload_to_json(self, a: SymElem):
        terms = []
        for e, c in sorted(a.terms.items()):
            exps = {g: k for g, k in zip(self.gens, e) if k}
            terms.append({"coeff": str(c), "exponents": exps})
        out = {"terms": terms}
        if a.bk:
            out["b_denominator"] = a.bk
        return out

    def payload_from_json(self, j, what="value"):
        terms: dict = {}
        for t in _field(j, "terms", what, list, []):
            e = list(self._zero_exp)
            for g, k in _field(t, "exponents", "term", dict, {}).items():
                if g not in self.gidx:
                    raise PreconditionFailed(f"exponent of unknown generator {g}")
                k = _as_int(k, f"exponent of {g}")
                if k < 0:
                    raise PreconditionFailed(f"negative exponent {k} of {g}")
                e[self.gidx[g]] = k
            e = tuple(e)
            terms[e] = terms.get(e, 0) + _field(t, "coeff", "term", int)
        bk = _field(j, "b_denominator", what, int, 0)
        if bk and self.inverted is None:
            raise PreconditionFailed(f"b_denominator {bk}, but {self} inverts nothing")
        return self._norm(terms, bk)

    def show(self, a: SymElem):
        if not a.terms:
            return "0"
        parts = []
        for e, c in sorted(a.terms.items(), reverse=True):
            factors = []
            for g, k in zip(self.gens, e):
                if k == 1:
                    factors.append(g)
                elif k > 1:
                    factors.append(f"{g}^{k}")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(f"{c}*" + "*".join(factors))
        s = " + ".join(parts).replace("+ -", "- ")
        if a.bk:
            s = f"({s})/{self.inverted}^{a.bk}" if a.bk > 1 else f"({s})/{self.inverted}"
        return s


def _pow_payload(ring: Ring, v, k: int):
    """v^k for k >= 0 by binary powering; the last square is skipped."""
    if k < 0:
        raise PreconditionFailed(f"negative power {k}; inverses go through inv()")
    out = ring.one()
    while k:
        if k & 1:
            out = ring.mul(out, v)
        k >>= 1
        if k:
            v = ring.mul(v, v)
    return out


# ---------------------------------------------------------------------------
# descriptor round-trip


def ring_from_descriptor(d: Mapping) -> Ring:
    kind = _field(d, "kind", "ring")
    if kind == "integers":
        return IntegerRing(q=_field(d, "q", "ring", int, None))
    if kind == "zmod":
        return IntModRing(_field(d, "m", "ring", int), _field(d, "p", "ring", int, None))
    if kind == "truncseries":
        base, e = _field(d, "base", "ring"), _field(d, "e", "ring", int)
        return TruncSeriesRing(base, e, p=_field(d, "p", "ring", int, None))
    if kind == "symbolic":
        gens, q = _field(d, "generators", "ring", list), d.get("q")
        q = q if q is None or q in gens else _as_int(q, "ring q")
        trunc = _field(d, "n", "ring", int, None)
        return SymbolicRing(gens, d.get("inverted"), q, trunc)
    raise PreconditionFailed(f"unknown ring kind {kind!r}")


def parse_ring_flag(flag: str) -> Ring:
    """Parse the command-line ring grammar:

    * ``zmod:<m>`` or ``zmod:<m>:q=<p>``
    * ``tq:<p>:<e>`` (series over F_p) or ``tq:Q:<e>`` (over the rationals)
    * ``sym`` (the ring with a,b,c,d,e, 1/b and nilpotent q), optionally
      ``sym:n=<k>`` to truncate at q^k
    """
    parts = flag.split(":")
    if parts[0] == "zmod":
        if len(parts) < 2:
            raise PreconditionFailed("zmod needs a modulus: zmod:<m>[:q=<p>]")
        m = _as_int(parts[1], "modulus")
        q = None
        for extra in parts[2:]:
            if extra.startswith("q="):
                q = _as_int(extra[2:], "q")
            else:
                raise PreconditionFailed(f"bad zmod option {extra!r}")
        return IntModRing(m, q=q)
    if parts[0] == "tq":
        if len(parts) != 3:
            raise PreconditionFailed("series grammar: tq:<p|Q>:<e>")
        e = _as_int(parts[2], "truncation order e")
        if parts[1] in ("Q", "q", "rationals"):
            return TruncSeriesRing("rationals", e)
        return TruncSeriesRing("fp", e, p=_as_int(parts[1], "p"))
    if parts[0] == "sym":
        trunc = None
        for extra in parts[1:]:
            if extra.startswith("n="):
                trunc = _as_int(extra[2:], "n")
            else:
                raise PreconditionFailed(f"bad sym option {extra!r}")
        return universal_coefficient_ring(trunc)
    raise PreconditionFailed(f"unknown ring flag {flag!r}")


def universal_coefficient_ring(trunc: Optional[int] = None) -> SymbolicRing:
    """Z[a, b, c, d, e, 1/b][q], optionally with q^trunc = 0.  This is the
    coefficient ring used for symbolic adjoint matrices."""
    return SymbolicRing(
        ("a", "b", "c", "d", "e", "q"), inverted="b", q="q", trunc=trunc
    )
