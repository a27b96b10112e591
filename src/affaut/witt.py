"""p-typical Witt vectors of finite length.

The single source of truth for the arithmetic is the ghost map: the
component sequence [u_0, ..., u_n] has ghost components

    w_j(u) = sum_{i<=j} p^i * u_i^(p^(j-i)),

and addition/multiplication are the unique component operations making
the ghost map a ring homomorphism.  Over p-torsion-free rings (integers,
integer polynomial rings) the operations are computed directly by
combining ghosts and back-solving with exact division.  Over F_p a vector
of length n+1 is a residue mod p^(n+1) (witt_to_residue, a ring
isomorphism), combined by one modular add or multiply.  Over other Z/m the
components are lifted canonically to the integers, combined there, and
reduced, which evaluates the universal laws without expanding them.

The universal law polynomials themselves come out of the same engine run
on symbolic component vectors; they are derived, cached, and checked
against their defining equations rather than copied from anywhere.
"""

from __future__ import annotations

import operator
from typing import NamedTuple, Optional, Sequence, Tuple

from .errors import (
    IntegralityViolation,
    NotDivisible,
    PreconditionFailed,
    RingMismatch,
    ShapeMismatch,
    TooLarge,
)
from .rings import (
    IntegerRing,
    IntModRing,
    Ring,
    RingElem,
    SymbolicRing,
    _as_int,
    _field,
    _pow_payload,
    _require_prime,
    ring_from_descriptor,
)


def _is_torsion_free(ring: Ring) -> bool:
    return isinstance(ring, (IntegerRing, SymbolicRing))


# ---------------------------------------------------------------------------


class _Frozen:
    """Base of the immutable slotted records: equality, hash and repr over
    the public slots in order (at least two, so that _values is a tuple);
    slots named with a leading "_" are caches and take no part."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._public = tuple(k for k in cls.__slots__ if k[0] != "_")
        cls._values = property(operator.attrgetter(*cls._public))

    def __init__(self, *values):
        for k, v in zip(self.__slots__, values):
            object.__setattr__(self, k, v)

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in zip(self._public, self._values))
        return f"{type(self).__name__}({args})"


class WittVec(_Frozen):
    """Component vector of length n+1 with entries in a stated base ring
    (payload form)."""

    __slots__ = ("p", "ring", "components")

    def __init__(self, p: int, ring: Ring, components: Tuple):
        _require_prime(p)
        if len(components) < 1:
            raise ShapeMismatch("a Witt vector needs at least one component")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "components", components)

    @classmethod
    def make(cls, p: int, ring: Ring, values: Sequence) -> "WittVec":
        return cls(p, ring, tuple(ring.pay(v) for v in values))

    @property
    def level(self) -> int:
        return len(self.components) - 1

    def elems(self) -> Tuple[RingElem, ...]:
        return tuple(RingElem(self.ring, c) for c in self.components)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "ring": self.ring.descriptor(),
            "components": [self.ring.payload_to_json(c) for c in self.components],
        }

    @classmethod
    def from_json(cls, j: dict) -> "WittVec":
        ring = ring_from_descriptor(_field(j, "ring", "vector"))
        cs = _field(j, "components", "vector", list)
        if not cs:
            raise PreconditionFailed("vector components must not be empty")
        p = _field(j, "p", "vector", int)
        return cls(p, ring, tuple(ring.payload_from_json(c, "components") for c in cs))


def _check_shapes(u: WittVec, v: WittVec):
    if u.p != v.p:
        raise ShapeMismatch(f"p mismatch: {u.p} vs {v.p}")
    if len(u.components) != len(v.components):
        raise ShapeMismatch(
            f"length mismatch: {len(u.components)} vs {len(v.components)}"
        )
    if u.ring != v.ring:
        raise RingMismatch(f"{u.ring} vs {v.ring}")


# ---------------------------------------------------------------------------
# ghost map and its inverse over torsion-free rings


def ghost_components(u: WittVec) -> Tuple:
    """[w_0(u), ..., w_n(u)] as payloads of the base ring.  Defined over
    any ring; a homomorphism only when the ring is p-torsion free."""
    ring = u.ring
    p = u.p
    out = []
    for j in range(len(u.components)):
        acc = ring.zero()
        for i in range(j + 1):
            power = _pow_payload(ring, u.components[i], p ** (j - i))
            term = ring.mul(ring.from_int(p ** i), power)
            acc = ring.add(acc, term)
        out.append(acc)
    return tuple(out)


def ghost_map(u: WittVec) -> Tuple[RingElem, ...]:
    return tuple(RingElem(u.ring, c) for c in ghost_components(u))


def _exact_div_int(ring: Ring, a, k: int, p: int):
    """a / p^k with integrality asserted."""
    if k == 0:
        return a
    if isinstance(ring, IntegerRing):
        d = p ** k
        if a % d:
            raise IntegralityViolation(f"{a} is not divisible by {p}^{k}")
        return a // d
    try:
        return ring.exact_div_q(a, k)
    except NotDivisible as e:
        raise IntegralityViolation(str(e)) from None


def unghost(p: int, ring: Ring, ghost: Sequence) -> WittVec:
    """Solve for the components with the given ghost sequence; needs a
    p-torsion-free ring so each division is exact."""
    _require_prime(p)
    if not _is_torsion_free(ring):
        raise PreconditionFailed(f"unghost needs a p-torsion-free ring, got {ring}")
    if isinstance(ring, SymbolicRing) and ring.q != p:
        raise PreconditionFailed(
            f"symbolic unghost needs the ring constructed with q={p}"
        )
    comps = []
    for j, g in enumerate(ghost):
        acc = ring.pay(g)
        for i in range(j):
            power = _pow_payload(ring, comps[i], p ** (j - i))
            acc = ring.sub(acc, ring.mul(ring.from_int(p ** i), power))
        comps.append(_exact_div_int(ring, acc, j, p))
    return WittVec(p, ring, tuple(comps))


# ---------------------------------------------------------------------------
# arithmetic


def _lift_vec(u: WittVec) -> WittVec:
    zr = IntegerRing(q=u.p)
    return WittVec(u.p, zr, tuple(int(c) for c in u.components))


def _reduce_vec(u: WittVec, ring: Ring) -> WittVec:
    return WittVec(u.p, ring, tuple(ring.from_int(c) for c in u.components))


# the most bits, about p^level * bits(m - 1), the top ghost component of a
# vector over Z/m holds once lifted to the integers; the integer components
# of a sum or product grow to that size too.  Counted k times over Z/p^k,
# the measure refuses Z/8 at level 18, which took 1.7-2.6 s; at the ceiling,
# vectors of m - 1 over Z/4 at level 18 took 0.4-1.1 s (Python 3.11, 2 cores).
_LIFT_BITS = 2 ** 20


def _combine(u: WittVec, v: WittVec, op: str) -> WittVec:
    _check_shapes(u, v)
    ring = u.ring
    if _is_torsion_free(ring):
        gu = ghost_components(u)
        gv = ghost_components(v)
        joined = [
            ring.add(a, b) if op == "add" else ring.mul(a, b)
            for a, b in zip(gu, gv)
        ]
        return unghost(u.p, ring, joined)
    if not isinstance(ring, IntModRing):
        raise PreconditionFailed(f"Witt arithmetic is not defined over {ring}")
    if ring.m == u.p:
        # over F_p, witt_to_residue is a ring isomorphism onto Z/p^(level+1)
        x, y = witt_to_residue(u), witt_to_residue(v)
        z = residue_to_witt(x + y if op == "add" else x * y)
        return WittVec(u.p, ring, z.components)
    bits = (ring.m - 1).bit_length()
    k = ring._factors.get(u.p, 1)
    # p^21 > _LIFT_BITS already, so a capped exponent keeps this cheap
    if u.p ** min(u.level, 21) * bits * k > _LIFT_BITS:
        raise TooLarge(
            f"Witt arithmetic at level {u.level} over Z/m with m of {bits} bits "
            f"lifts to integers of about {u.p}^{u.level}*{bits} bits, counted {k} "
            f"times for the {u.p}-power part of m, more than {_LIFT_BITS}"
        )
    lifted = _combine(_lift_vec(u), _lift_vec(v), op)
    return _reduce_vec(lifted, ring)


def witt_add(u: WittVec, v: WittVec) -> WittVec:
    return _combine(u, v, "add")


def witt_mul(u: WittVec, v: WittVec) -> WittVec:
    return _combine(u, v, "mul")


# ---------------------------------------------------------------------------
# the universal laws


class UniversalWittLaw(NamedTuple):
    """Integer polynomials s_0..s_n and m_0..m_n in x_0..x_n, y_0..y_n
    satisfying w_j(s) = w_j(x) + w_j(y) and w_j(m) = w_j(x) * w_j(y)."""

    p: int
    level: int
    ring: SymbolicRing
    sum_polys: Tuple
    prod_polys: Tuple

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "level": self.level,
            "sum": [self.ring.payload_to_json(c) for c in self.sum_polys],
            "prod": [self.ring.payload_to_json(c) for c in self.prod_polys],
        }

    @classmethod
    def from_json(cls, j: dict) -> "UniversalWittLaw":
        p = _require_prime(_field(j, "p", "law", int))
        level = _as_int(_field(j, "level", "law"), "law level", least=0)
        ring = _law_ring(p, level)
        sums, prods = (
            tuple(ring.payload_from_json(c, key) for c in _field(j, key, "law", list))
            for key in ("sum", "prod")
        )
        return cls(p, level, ring, sums, prods)


def _law_ring(p: int, n: int) -> SymbolicRing:
    names = tuple(f"x{i}" for i in range(n + 1)) + tuple(
        f"y{i}" for i in range(n + 1)
    )
    return SymbolicRing(names, q=p)


_LAW_CACHE: dict = {}


def derive_witt_laws(p: int, level: int) -> UniversalWittLaw:
    """Run the ghost-solve engine on fully symbolic component vectors; the
    components of the symbolic sum/product are the universal laws.  Cached
    per (p, level); the cache is never mutated afterwards."""
    _require_prime(p)
    key = (p, level)
    got = _LAW_CACHE.get(key)
    if got is not None:
        return got
    ring = _law_ring(p, level)
    xs = WittVec(p, ring, tuple(ring.gen(f"x{i}") for i in range(level + 1)))
    ys = WittVec(p, ring, tuple(ring.gen(f"y{i}") for i in range(level + 1)))
    s = witt_add(xs, ys)
    m = witt_mul(xs, ys)
    law = UniversalWittLaw(
        p=p, level=level, ring=ring, sum_polys=s.components,
        prod_polys=m.components,
    )
    # the defining system, verified symbolically before the law is trusted
    sg = ghost_components(s)
    xg = ghost_components(xs)
    yg = ghost_components(ys)
    mg = ghost_components(m)
    for j in range(level + 1):
        if not ring.is_zero(ring.sub(sg[j], ring.add(xg[j], yg[j]))):
            raise IntegralityViolation(f"sum law violates ghost equation {j}")
        if not ring.is_zero(ring.sub(mg[j], ring.mul(xg[j], yg[j]))):
            raise IntegralityViolation(f"product law violates ghost equation {j}")
    _LAW_CACHE[key] = law
    return law


# ---------------------------------------------------------------------------
# the residue-ring identification


def _teichmuller(c: int, p: int, k: int) -> int:
    """tau(c) mod p^k, the root of x^(p-1) = 1 congruent to c mod p (0 for
    c = 0), which is c^(p^(k-1)) mod p^k: Newton's method doubles the
    precision of the root each step, where the power would take an
    exponent of k*log2(p) bits."""
    if c < 2:
        return c
    x, e = c, 1
    while e < k:
        e = min(2 * e, k)
        m = p ** e
        x = (x - (pow(x, p - 1, m) - 1) * pow((p - 1) * pow(x, p - 2, m), -1, m)) % m
    return x


def witt_to_residue(u: WittVec) -> RingElem:
    """Send [u_0..u_n] over F_p to w_n of its canonical integer lifts in
    Z/p^(n+1); a ring isomorphism from length-(n+1) vectors.  The term
    p^i * u_i^(p^(n-i)) is p^i * tau(u_i) mod p^(n+1), so the value is
    sum_i p^i * tau(u_i), with each Teichmueller lift computed once."""
    p = u.p
    n = u.level
    if not isinstance(u.ring, (IntModRing, IntegerRing)):
        raise PreconditionFailed("residue identification needs integer components")
    m = p ** (n + 1)
    target = IntModRing(m, q=p)
    lifts: dict = {}
    total = 0
    for c in reversed(u.components):
        c = int(c) % p
        if c not in lifts:
            lifts[c] = _teichmuller(c, p, n + 1)
        total = (total * p + lifts[c]) % m
    return RingElem(target, total)


def residue_to_witt(x, p: Optional[int] = None, level: Optional[int] = None) -> WittVec:
    """Inverse of witt_to_residue by greedy digit extraction: x is the sum
    of p^i * tau(u_i), so u_0 = x mod p and (x - tau(u_0))/p holds the
    rest; each lift is computed once."""
    if isinstance(x, RingElem):
        ring = x.ring
        if not isinstance(ring, IntModRing) or ring.p is None:
            raise PreconditionFailed("need an element of Z/p^(n+1)")
        p = ring.p
        level = ring.n - 1
        val = x.value
    else:
        if p is None or level is None:
            raise PreconditionFailed("plain integers need explicit p and level")
        _require_prime(p)
        if level < 0:
            raise PreconditionFailed(f"level must be at least 0, got {level}")
        val = x % p ** (level + 1)
    lifts: dict = {}
    comps = []
    for _ in range(level + 1):
        c = val % p
        if c not in lifts:
            lifts[c] = _teichmuller(c, p, level + 1)
        val = (val - lifts[c]) // p
        comps.append(c)
    return WittVec(p, IntModRing(p, q=p), tuple(comps))
