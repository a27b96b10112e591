"""Component-level transforms: rewriting polynomial maps over Z/p^k as
polynomial systems over F_p in Witt coordinates, and machine generation
of composition laws for automorphism subgroups in those coordinates.

A law is a function on F_p points.  It is built over the Z/p^n-valued
functions on the Teichmüller points, where a coefficient's Witt vector
[u_0..u_(n-1)] is the residue sum_i p^i * u_i: the symbolic maps compose
once there, and exact divisions peel the Witt digits off each composite
coefficient, every digit mod p a law in canonical form.  The component
systems of greenberg_transform stay exact over Z, through the ghost map.
Nothing is copied from a formula table; closure facts (composite
coefficients vanishing beyond the degree budget, forced zero slots) are
asserted during generation, so a law is a machine-checked closure proof.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import (
    NoSolution,
    PreconditionFailed,
    ShapeMismatch,
    TooLarge,
)
from .rings import (
    IntModRing, RingElem, SymbolicRing, SymElem, _field, _pow_payload, _require_prime,
)
from .witt import (
    WittVec,
    _Frozen,
    ghost_components,
    residue_to_witt,
    unghost,
    witt_to_residue,
)

# ---------------------------------------------------------------------------
# functions on Teichmüller points


class _PointFunctions(SymbolicRing):
    """Z/p^k[v]/(v^p - v) in every generator v.  Mod p, v^p - v splits into
    distinct linear factors, so by the CRT this is the ring of Z/p^k-valued
    functions on the Teichmüller points ({0} u mu_(p-1))^N, which reduce
    mod p to the F_p points.  The normal form keeps exponents in 0..p-1
    and coefficients in 0..p^k-1; at k = 1 it is the canonical form of the
    function a polynomial induces on F_p points."""

    def __init__(self, generators: Sequence[str], p: int, k: int):
        super().__init__(generators, q=p)
        self.modulus = p ** k

    def __eq__(self, other):
        return (
            SymbolicRing.__eq__(self, other)
            and getattr(other, "modulus", None) == self.modulus
        )

    def __hash__(self):
        return hash((self.gens, self.modulus))

    def _norm(self, terms: dict, bk: int) -> SymElem:
        # v^p = v: an exponent e >= 1 becomes ((e - 1) mod (p - 1)) + 1
        p1, m = self.q - 1, self.modulus
        out: dict = {}
        for e, c in terms.items():
            ne = tuple((k - 1) % p1 + 1 if k else 0 for k in e)
            out[ne] = (out.get(ne, 0) + c) % m
        return SymElem({e: c for e, c in out.items() if c}, 0)


def simplify_mod_p(ring: SymbolicRing, a: SymElem, p: int) -> SymElem:
    """The function a induces on F_p points, in normal form: p-divisible
    terms dropped and exponents e >= 1 reduced to ((e-1) mod (p-1)) + 1."""
    if a.bk:
        raise PreconditionFailed("cannot simplify with inverted-generator tails")
    return _PointFunctions(ring.gens, p, 1)._norm(a.terms, 0)


# ---------------------------------------------------------------------------
# the polynomial transform


class ComponentSystem(NamedTuple):
    """g_0 ... g_n with g_i giving component i of evaluating the source
    polynomial through Witt arithmetic on component vectors."""

    p: int
    level: int
    var_names: Tuple[str, ...]
    source_ring: SymbolicRing
    source_poly: SymElem
    ring: SymbolicRing
    polys: Tuple[SymElem, ...]

    def evaluate(self, values: Dict[str, int]) -> WittVec:
        """Evaluate every g_i at F_p component values; returns the result
        as a vector over F_p."""
        base = IntModRing(self.p, q=self.p)
        assignment = {g: base.from_int(values[g]) for g in self.ring.gens}
        comps = tuple(
            self.ring.substitute(g, base, assignment) for g in self.polys
        )
        return WittVec(self.p, base, comps)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "level": self.level,
            "variables": list(self.var_names),
            "source": self.source_ring.payload_to_json(self.source_poly),
            "components": [self.ring.payload_to_json(g) for g in self.polys],
        }


def greenberg_transform(f: RingElem, p: int, level: int) -> ComponentSystem:
    """Rewrite an integer polynomial as component polynomials: the Witt
    components of f evaluated at fully symbolic component vectors.  Ghost
    components are ring maps and f has integer coefficients, so ghost j
    of f(vectors) is f of the ghost j's: one substitution per ghost
    component, then one unghost, which is exact because the component
    ring is torsion-free, so the ghost map on it is injective."""
    src = f.ring
    if not isinstance(src, SymbolicRing):
        raise PreconditionFailed("the input lives in a symbolic polynomial ring")
    if src.inverted is not None or f.value.bk:
        raise PreconditionFailed("inverted generators are not supported here")
    names = []
    for v in src.gens:
        names.extend(f"{v}_{k}" for k in range(level + 1))
    cring = SymbolicRing(tuple(names), q=p)
    ghosts = {
        v: ghost_components(
            WittVec(p, cring, tuple(cring.gen(f"{v}_{k}") for k in range(level + 1)))
        )
        for v in src.gens
    }
    total = unghost(p, cring, [
        src.substitute(f.value, cring, {v: w[j] for v, w in ghosts.items()})
        for j in range(level + 1)
    ])
    return ComponentSystem(
        p=p,
        level=level,
        var_names=src.gens,
        source_ring=src,
        source_poly=f.value,
        ring=cring,
        polys=total.components,
    )


# ---------------------------------------------------------------------------
# coordinate schemes for automorphism subgroups
#
# A coefficient of T^j is carried as a Witt vector over F_p whose first
# few slots are pinned to zero, encoding its forced p-divisibility.  The
# free slots are the coordinates.


def shape_coordinate_scheme(d: int) -> List[Tuple[int, int]]:
    """(coefficient index, slot) pairs for the degree-d shape-bounded
    subgroup at ring precision d: coefficient j carries q^(j-1), so its
    first j-1 slots are pinned."""
    if d < 1:
        raise PreconditionFailed("degree bound must be at least 1")
    coords = []
    for j in range(d + 1):
        for slot in range(max(0, j - 1), d):
            coords.append((j, slot))
    return coords


def capped_coordinate_scheme(degree_cap: int, precision: int) -> List[Tuple[int, int]]:
    if degree_cap < 1 or precision < 2:
        raise PreconditionFailed("need degree_cap >= 1 and precision >= 2")
    from .autgroup import atilde_coefficient_valuation

    max_deg = degree_cap * 2 ** (precision - 2)
    coords = []
    for j in range(max_deg + 1):
        # the pinned slots: the valuation membership in the filtered
        # subgroup forces on the T^j coefficient
        pin = atilde_coefficient_valuation(degree_cap, j, precision)
        for slot in range(pin, precision):
            coords.append((j, slot))
    return coords


# ---------------------------------------------------------------------------
# group laws


def _layout(descriptor: dict):
    """What a law descriptor fixes: p, the Witt vector length (= ring
    precision), the coordinate scheme, the coordinate names and the
    generators: left coordinates, then the primed right ones, then y and
    y' for the capped kind, whose y inverts the unit coordinate a1_0."""
    kind = _field(descriptor, "kind", "law descriptor")
    if kind == "shape":
        length = _field(descriptor, "d", "law descriptor", int)
        scheme = shape_coordinate_scheme(length)
    elif kind == "capped":
        length = _field(descriptor, "precision", "law descriptor", int)
        cap = _field(descriptor, "degree_cap", "law descriptor", int)
        scheme = capped_coordinate_scheme(cap, length)
    else:
        raise PreconditionFailed(f"unknown law kind {kind!r}")
    p = _require_prime(_field(descriptor, "p", "law descriptor", int))
    names = tuple(f"a{j}_{slot}" for j, slot in scheme)
    aux = ("y",) if kind == "capped" else ()
    gens = names + tuple(n + "'" for n in names) + aux + tuple(n + "'" for n in aux)
    return p, length, tuple(scheme), names + aux, gens


class GroupLaw(_Frozen):
    """Composition written as polynomials over F_p in the coordinates of
    the left factor and the primed coordinates of the right factor, each
    law in the normal form of the function it induces on F_p points.
    A law is its descriptor and its laws, aligned with the coordinates;
    every other field follows from the descriptor (see _layout).  The
    unit coordinate is a1_0; with the auxiliary y, a point satisfies the
    relation a1_0 * y - 1.  _compiled caches the point programs; equality
    and repr leave it out."""

    __slots__ = (
        "p", "descriptor", "length", "scheme", "coordinates", "unit_coordinate",
        "has_aux", "ring", "laws", "relation", "_compiled",
    )

    def __init__(self, descriptor: dict, laws: Sequence[SymElem]):
        p, length, scheme, coordinates, gens = _layout(descriptor)
        ring = SymbolicRing(gens, q=p)
        has_aux = len(coordinates) > len(scheme)
        relation = None
        if has_aux:
            relation = ring.sub(ring.mul(ring.gen("a1_0"), ring.gen("y")), ring.one())
        super().__init__(
            p, descriptor, length, scheme, coordinates, "a1_0",
            has_aux, ring, tuple(laws), relation, None,
        )

    @property
    def raw_laws(self) -> Tuple[SymElem, ...]:  # generated in normal form
        return self.laws

    # -- point arithmetic over F_p ------------------------------------------

    def _compile(self):
        if self._compiled is not None:
            return self._compiled
        progs = []
        for law in self.laws:
            terms = []
            for e, c in sorted(law.terms.items()):
                powers = tuple((i, k) for i, k in enumerate(e) if k)
                terms.append((c, powers))
            progs.append(tuple(terms))
        object.__setattr__(self, "_compiled", tuple(progs))
        return self._compiled

    def _point(self, digits: Sequence[int]) -> Tuple[int, ...]:
        """The point with these scheme coordinates, y = unit^-1 mod p
        appended when the law has it."""
        if not self.has_aux:
            return tuple(digits)
        unit = digits[self.coordinates.index(self.unit_coordinate)]
        return (*digits, pow(unit, -1, self.p))

    def identity_point(self) -> Tuple[int, ...]:
        return self._point([int(key == (1, 0)) for key in self.scheme])

    def is_valid_point(self, t: Sequence[int]) -> bool:
        if len(t) != len(self.coordinates):
            return False
        if any(not 0 <= v < self.p for v in t):
            return False
        unit = t[self.coordinates.index(self.unit_coordinate)]
        if unit % self.p == 0:
            return False
        if self.has_aux and (unit * t[-1]) % self.p != 1:
            return False
        return True

    def compose_points(
        self, left: Sequence[int], right: Sequence[int]
    ) -> Tuple[int, ...]:
        if len(left) != len(self.coordinates) or len(right) != len(self.coordinates):
            raise ShapeMismatch("point arity does not match the coordinate list")
        progs = self._compile()
        # generator order is left coords, right coords, then y, y'
        if self.has_aux:
            values = (
                list(left[:-1]) + list(right[:-1]) + [left[-1], right[-1]]
            )
        else:
            values = list(left) + list(right)
        p = self.p
        out = []
        for prog in progs:
            total = 0
            for c, powers in prog:
                term = c
                for i, k in powers:
                    term = term * pow(values[i], k, p)
                total += term
            out.append(total % p)
        return tuple(out)

    # -- the dictionary between points and polynomial maps -------------------

    def point_to_aut(self, t: Sequence[int]):
        from .autgroup import TruncPoly

        if not self.is_valid_point(t):
            raise PreconditionFailed("not a valid coordinate tuple")
        ring = IntModRing(self.p ** self.length, q=self.p)
        top = max(j for j, _ in self.scheme)
        digits = {j: [0] * self.length for j in range(top + 1)}
        for val, (j, slot) in zip(t, self.scheme):
            digits[j][slot] = val
        base = IntModRing(self.p, q=self.p)
        coeffs = []
        for j in range(top + 1):
            vec = WittVec.make(self.p, base, digits[j])
            coeffs.append(int(witt_to_residue(vec).value))
        return TruncPoly(ring, coeffs)

    def aut_to_point(self, f) -> Tuple[int, ...]:
        ring = f.ring
        if not isinstance(ring, IntModRing) or ring.p != self.p or ring.n != self.length:
            raise PreconditionFailed(
                f"expected a polynomial over Z/{self.p}^{self.length}"
            )
        top = max(j for j, _ in self.scheme)
        if f.degree() is not None and f.degree() > top:
            raise ShapeMismatch("degree exceeds the coordinate scheme")
        free = set(self.scheme)
        digits = {}
        for j in range(top + 1):
            for slot, c in enumerate(residue_to_witt(f.coeff(j)).components):
                digits[j, slot] = int(c)
                if c and (j, slot) not in free:
                    raise ShapeMismatch(
                        f"coefficient of T^{j} has forced slot {slot} set"
                    )
        return self._point([digits[key] for key in self.scheme])

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        out = {
            "p": self.p,
            "descriptor": self.descriptor,
            "coordinates": list(self.coordinates),
            "unit_coordinate": self.unit_coordinate,
            "laws": {
                name: self.ring.payload_to_json(law)
                for name, law in zip(self.coordinates, self.laws)
            },
        }
        if self.relation is not None:
            out["relation"] = self.ring.payload_to_json(self.relation)
        return out

    def render_text(self) -> str:
        lines = [f"# composition law, {self.descriptor}"]
        for name, law in zip(self.coordinates, self.laws):
            lines.append(f"{name}'' = {self.ring.show(law)}")
        if self.relation is not None:
            lines.append(f"relation: {self.ring.show(self.relation)} = 0")
        return "\n".join(lines)


def _build_law(descriptor: dict) -> GroupLaw:
    """The law a descriptor names: one composition of the symbolic left
    and right maps over the functions on Teichmüller points, then the Witt
    digits of every composite coefficient, with closure assertions on the
    digits; with the auxiliary y, its law is y * y'."""
    from .autgroup import TruncPoly

    p, length, scheme, coordinates, gens = _layout(descriptor)
    top = max(j for j, _ in scheme)
    R = _PointFunctions(gens, p, length)

    # at Teichmüller points witt_to_residue sends the coefficient vector of
    # T^j to sum_slot p^slot * a{j}_{slot}
    def side(mark: str) -> TruncPoly:
        coeffs = [R.zero()] * (top + 1)
        for name, (j, slot) in zip(coordinates, scheme):
            coeffs[j] = R.add(coeffs[j], R.monomial(p ** slot, {name + mark: 1}))
        return TruncPoly(R, coeffs)

    # peel the digits: d_s is x mod p, and d_s^(p^(length-1-s)) its
    # Teichmüller lift to the precision left, so x less it divides by p.
    # Every digit outside the scheme must vanish on F_p points.
    free = set(scheme)
    digits = {}
    for k, x in enumerate(side("").compose(side("'")).raw_coeffs()):
        for slot in range(length):
            d = digits[k, slot] = simplify_mod_p(R, x, p)
            if d.terms and (k, slot) not in free:
                raise NoSolution(
                    f"composite escaped the scheme at T^{k}, slot {slot}"
                )
            if slot + 1 < length:
                lift = _pow_payload(R, d, p ** (length - 1 - slot))
                x = R.exact_div_q(R.sub(x, lift), 1)

    laws = [digits.get(key, R.zero()) for key in scheme]
    if len(coordinates) > len(scheme):
        laws.append(R.mul(R.gen("y"), R.gen("y'")))
    return GroupLaw(descriptor, laws)


def group_law_shape(p: int, d: int) -> GroupLaw:
    """Composition law for the degree-d shape-bounded subgroup at ring
    precision d, on Witt coordinates over F_p."""
    return _build_law({"kind": "shape", "p": p, "d": d})


def group_law_capped(p: int, precision: int, degree_cap: int) -> GroupLaw:
    """Composition law for degree-filtered automorphisms at the given ring
    precision, with the unit-slope locus carried by the auxiliary
    coordinate y and the relation a1_0 * y - 1."""
    return _build_law(
        {"kind": "capped", "p": p, "precision": precision, "degree_cap": degree_cap}
    )


# ---------------------------------------------------------------------------
# axiom verification


class AxiomReport(NamedTuple):
    mode: str
    points_checked: int
    triples_checked: int
    identity_ok: bool
    associativity_ok: bool
    inverses_ok: bool
    counterexample: Optional[tuple]

    @property
    def all_ok(self) -> bool:
        return self.identity_ok and self.associativity_ok and self.inverses_ok

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "points_checked": self.points_checked,
            "triples_checked": self.triples_checked,
            "identity": self.identity_ok,
            "associativity": self.associativity_ok,
            "inverses": self.inverses_ok,
            "counterexample": (
                [list(t) for t in self.counterexample]
                if self.counterexample
                else None
            ),
        }


def enumerate_points(law: GroupLaw) -> List[Tuple[int, ...]]:
    """Every valid point, the first scheme coordinate varying fastest."""
    unit = law.coordinates.index(law.unit_coordinate)
    return [
        law._point(digits[::-1])
        for digits in itertools.product(range(law.p), repeat=len(law.scheme))
        if digits[-1 - unit]
    ]


def sample_point(law: GroupLaw, rng) -> Tuple[int, ...]:
    digits = [rng.randrange(law.p) for _ in law.scheme]
    digits[law.coordinates.index(law.unit_coordinate)] = rng.randrange(1, law.p)
    return law._point(digits)


# the most triples the exhaustive mode checks: about 40 s at the 25 000
# triples a second of the capped (2, 3, 1) law on one core (Python 3.11)
_EXHAUSTIVE_TRIPLES = 10 ** 6


def verify_group_axioms(
    law: GroupLaw,
    mode: str = "exhaustive",
    rng=None,
    samples: int = 10000,
) -> AxiomReport:
    """Check the group axioms of a law on F_p points.

    The exhaustive mode takes every valid point: the identity on each,
    associativity on every triple (refused with TooLarge past
    _EXHAUSTIVE_TRIPLES), and a two-sided inverse for each, searched
    among the points.  The sampled mode draws min(samples, 400) points
    for the identity, then `samples` random triples for associativity,
    and checks the inverses of the first 50 points through `invert` on
    the polynomial maps they stand for.  The counterexample is the
    first failure in that order of checks."""
    compose = law.compose_points
    e = law.identity_point()
    if mode == "exhaustive":
        count = (law.p - 1) * law.p ** (len(law.scheme) - 1)
        if count ** 3 > _EXHAUSTIVE_TRIPLES:
            raise TooLarge(
                f"exhaustive verification takes {count}^3 triples, more than "
                f"{_EXHAUSTIVE_TRIPLES}; use the sampled mode (--verify sampled)"
            )
        points = inverse_points = enumerate_points(law)
        # a∘b once per pair, then every c against it
        rows = ((a, b, points) for a in points for b in points)

        def has_inverse(t):
            return any(compose(t, u) == e and compose(u, t) == e for u in points)

    elif mode == "sampled":
        if rng is None:
            raise PreconditionFailed("sampled verification needs an rng")
        if samples < 1:
            raise PreconditionFailed(f"need at least one sample, got {samples}")
        points = [sample_point(law, rng) for _ in range(min(samples, 400))]
        # drawn as they are checked: an early failure stops the draws
        rows = (
            (sample_point(law, rng), sample_point(law, rng), (sample_point(law, rng),))
            for _ in range(samples)
        )
        inverse_points = points[:50]
        from .inversion import invert

        def has_inverse(t):
            u = law.aut_to_point(invert(law.point_to_aut(t)))
            return compose(t, u) == e and compose(u, t) == e

    else:
        raise PreconditionFailed(f"unknown mode {mode!r}")

    witness = next(
        ((t,) for t in points if compose(e, t) != t or compose(t, e) != t), None
    )
    identity_ok = witness is None

    associativity_ok = True
    triples_checked = 0
    for a, b, cs in rows:
        ab = compose(a, b)
        for c in cs:
            if compose(ab, c) != compose(a, compose(b, c)):
                associativity_ok = False
                witness = witness or (a, b, c)
                break
            triples_checked += 1
        if not associativity_ok:
            break

    missing = next((t for t in inverse_points if not has_inverse(t)), None)
    if missing is not None:
        witness = witness or (missing,)

    return AxiomReport(
        mode=mode,
        points_checked=len(points),
        triples_checked=triples_checked,
        identity_ok=identity_ok,
        associativity_ok=associativity_ok,
        inverses_ok=missing is None,
        counterexample=witness,
    )
