"""Conjugation on the near-identity subgroups of the truncated line.

An automorphism congruent to the identity to q-adic level r, written
T + q^r * h(T), is pinned down by h modulo q^(n-r).  Once 2r >= n every
product of two such corrections vanishes, so composition is plain
addition of h parts and rescaling h by a ring constant is well defined;
the congruence subgroup becomes a module over R/q^(n-r).  Conjugation by
an automorphism f follows from Taylor's formula with the divided
derivatives f^[i] of f (f^[1] = f'):

    f . (T + q^w h) . finv  =  T + sum_i q^(w i) * h(finv)^i * f^[i](finv).

Divided by q^r it is needed only mod q^(n-r), where only the i with
w i < n survive, and once 2r >= n only the linear term.  ``ad`` and
``ad_matrix`` invert f once at that residue precision, evaluate the sum
there, and check each lift c by the defining equation c . f = f . g at
full precision, computed by composition alone.  ``ad_matrix`` tabulates
the action on a basis of monomial corrections, either with coefficients
reduced mod q (the graded action, well defined for every r >= 1) or with
full mod q^(n-r) entries on the shape-constrained basis, over a finite
ring or over a generic coefficient ring Z[a, b, c, d, e, 1/b][q] whose
matrices specialize to numeric ones entrywise.  ``module_decomposition``
recovers the abelian group structure of the congruence subgroup as a
direct sum of cyclic pieces R/q^k by rescaling each basis slot's
correction until it vanishes.
"""

from __future__ import annotations

import itertools
from typing import Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from .autgroup import (
    SubgroupSpec,
    TruncPoly,
    _kernel_h,
    _kernel_poly,
    _offset,
    identity_map,
    reduce_precision,
)
from .errors import (
    AlgebraError,
    KernelMismatch,
    NotAbelian,
    PreconditionFailed,
    ShapeMismatch,
)
from .inversion import invert
from .rings import (
    Ring, SymbolicRing, _as, _field, ring_from_descriptor, universal_coefficient_ring,
)


def check_kernel_element(g: TruncPoly, r: int) -> None:
    """Raise unless g is an automorphism congruent to T mod q^r."""
    g.ring.require_truncated(r)
    have = g.require_automorphism().identity_congruence()
    if have < r:
        raise KernelMismatch(
            f"element agrees with T only to q^{have}, needed q^{r}"
        )


def kernel_element(ring: Ring, r: int, h_coeffs: Sequence) -> TruncPoly:
    """Build T + q^r * (h_0 + h_1 T + ...) from the coefficients of h."""
    ring.require_truncated(r)
    return _kernel_poly(ring, ring.q_power(r), [ring.pay(c) for c in h_coeffs])


def h_part(g: TruncPoly, r: int) -> TruncPoly:
    """The correction h with g = T + q^r h, over the residue ring
    R/q^(n-r) where it is canonical."""
    check_kernel_element(g, r)
    ring = g.ring
    n = ring.truncation
    if r == n:
        raise PreconditionFailed("no residue ring left at full congruence")
    dst = ring.at_precision(n - r)
    return TruncPoly._raw(dst, _kernel_h(g, r, dst))


def scalar_mul(c, g: TruncPoly, r: int) -> TruncPoly:
    """Rescale the correction: c . (T + q^r h) = T + q^r (c h).

    c is read in the base ring; only its residue mod q^(n-r) matters,
    since any two lifts differ by q^(n-r) and the difference is wiped
    out by the q^r in front.
    """
    check_kernel_element(g, r)
    return _kernel_poly(g.ring, g.ring.pay(c), _offset(g))


def _require_abelian(n: int, r: int, hint: str = "") -> None:
    """Refuse a level r outside the abelian range 2r >= n of precision n."""
    if 2 * r < n:
        msg = f"level {r} at precision {n} is outside the abelian range 2r >= n"
        raise NotAbelian(msg + hint)


def _low_inverse(f: TruncPoly, r: int) -> Tuple[TruncPoly, list]:
    """finv over R/q^(n-r) (R/q at r = n) and there the divided derivatives
    f^[i] with r*i < n, the only ones the Taylor sum needs."""
    n = f.ring.truncation
    f_low = reduce_precision(f, max(n - r, 1))
    return invert(f_low), [f_low.derivative(i) for i in range(1, -(-n // r))]


def _closed_form(u: TruncPoly, terms: Sequence[TruncPoly], w: int, r: int) -> TruncPoly:
    """k = sum_i q^(w i - r) u^i D_i mod q^(n-r), for w >= r.  With u = h . finv
    and D_i = f^[i] . finv, f . (T + q^w h) . finv = T + q^r k; with u = h
    and D_i = f^[i], the same holds for k . finv in place of k."""
    low, ui, parts = u.ring, u, []
    for i, d in enumerate(terms, 1):
        if w * i - r >= low.truncation:
            break
        ui = ui * u if i > 1 else u
        parts.append((ui * d).scale(low.q_power(w * i - r)) if w * i > r else ui * d)
    return sum(parts[1:], parts[0]) if parts else TruncPoly._raw(low, [])


def _check_conjugate(f: TruncPoly, g: TruncPoly, k: TruncPoly, r: int) -> TruncPoly:
    """The lift c = T + q^r k, once it meets c . f = f . g at full precision."""
    ring = f.ring
    c = _kernel_poly(ring, ring.q_power(r), k.ring.transport(k.raw_coeffs(), ring))
    if c.compose(f) != f.compose(g):
        raise AlgebraError("the closed form fails c . f = f . g where its precondition held")
    return c


def ad(f: TruncPoly, g: TruncPoly, r: int) -> TruncPoly:
    """The conjugate f . g . finv of a level-r congruence element g.

    Requires 2r >= n so the congruence subgroup is abelian and the
    closed form T + q^r h(finv) f'(finv) applies.  It is evaluated at
    the residue precision q^(n-r) and its lift checked by c . f = f . g.
    """
    f._check(g)
    n = f.ring.require_truncated()
    check_kernel_element(g, r)
    _require_abelian(n, r)
    finv, derivs = _low_inverse(f.require_automorphism(), r)  # none at r = n, where c = T
    h = TruncPoly._raw(finv.ring, _kernel_h(g, r, finv.ring))
    return _check_conjugate(f, g, _closed_form(h, derivs, r, r).compose(finv), r)


# ---------------------------------------------------------------------------
# matrix form of the conjugation action
#
# Basis of monomial corrections, one per degree 0..n.  Two flavors:
#
#   flavor "n": g_j = T + q^r T^j with the uniform level r; the matrix
#   holds the coordinates of (conjugate - T)/q^r reduced mod q.  This is
#   the action on the graded slice at level r, linear and multiplicative
#   for every r >= 1 even when the subgroup itself is not abelian.
#
#   flavor "k": g_j = T + q^max(r, j-1) T^j, the shape-constrained
#   generators of the full congruence subgroup; entries are the
#   coordinates of (conjugate - T)/q^r kept to the full residue
#   precision q^(n-r).
#
# Column j is always the image of g_j, rows follow the same monomial
# order.  Flavor "n" is an honest matrix representation: the basis
# corrections are unit coordinate vectors mod q, so the matrix of a
# composite is the product of the matrices.  Flavor "k" is a generator
# tabulation, not a representation: the generator of a weight-w slot
# has h-coordinate q^(w-r) rather than 1 (visible as the q on the
# diagonal of the identity's own table), and recovering the image of an
# arbitrary element means scaling column j by the q^(w_j - r)-divided
# coordinate, not by the coordinate itself.


class AdjointMatrix(NamedTuple):
    """Square matrix of a conjugation action on monomial corrections."""

    spec: SubgroupSpec
    mode: str
    ring: Ring
    rows: Tuple[tuple, ...]
    warning: bool = False

    @property
    def size(self) -> int:
        return len(self.rows)

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.rows)

    def to_json(self) -> dict:
        out = {
            "kind": "conjugation-matrix",
            "subgroup": self.spec.show(),
            "mode": self.mode,
            "ring": self.ring.descriptor(),
            "size": self.size,
            "rows": [
                [self.ring.payload_to_json(e) for e in row] for row in self.rows
            ],
        }
        if self.warning:
            out["warning"] = "outside the abelian range"
        return out

    @classmethod
    def from_json(cls, j: dict) -> "AdjointMatrix":
        ring = ring_from_descriptor(_field(j, "ring", "matrix"))
        mode = _field(j, "mode", "matrix", str)
        spec = _as_spec(_field(j, "subgroup", "matrix", str))
        if mode != _mode(ring):
            raise PreconditionFailed(f"mode {mode!r} does not fit the ring {ring}")
        rows = tuple(
            tuple(ring.payload_from_json(e, "rows") for e in _as(row, list, "row"))
            for row in _field(j, "rows", "matrix", list)
        )
        if {len(rows), *map(len, rows)} != {spec.n + 1}:
            raise PreconditionFailed(f"a matrix on {spec.show()} is square of size {spec.n + 1}")
        return cls(spec, mode, ring, rows, bool(j.get("warning")))

    def render_text(self) -> str:
        ring = self.ring
        cells = [[ring.show(e) for e in row] for row in self.rows]
        widths = [
            max(len(cells[i][j]) for i in range(self.size))
            for j in range(self.size)
        ]
        lines = [
            "conjugation matrix on %s over %s" % (self.spec.show(), ring.describe())
        ]
        if self.warning:
            lines.append("(outside the abelian range)")
        for row in cells:
            lines.append(
                "[ " + "   ".join(s.rjust(w) for s, w in zip(row, widths)) + " ]"
            )
        return "\n".join(lines)


def _mode(ring: Ring) -> str:
    """The mode of a matrix whose conjugator or entries lie in ring."""
    return "symbolic" if isinstance(ring, SymbolicRing) else "numeric"


def _as_spec(spec: Union[SubgroupSpec, str]) -> SubgroupSpec:
    """spec, once it names a congruence subgroup with 1 <= r < n."""
    if isinstance(spec, str):
        spec = SubgroupSpec.parse(spec)
    if spec.flavor not in ("n", "k"):
        raise PreconditionFailed(
            f"matrix form needs a congruence subgroup, got {spec.show()!r}"
        )
    if not 1 <= spec.r < spec.n:
        raise PreconditionFailed(f"congruence level {spec.r} outside 1..{spec.n - 1}")
    return spec


def ad_matrix(
    f: TruncPoly, spec: Union[SubgroupSpec, str], *, allow_nonabelian: bool = False
) -> AdjointMatrix:
    """The matrix of conjugation by f on the subgroup named by spec.

    Its mode follows f's ring: "symbolic" over the generic coefficient
    ring (see universal_element), "numeric" otherwise.  When the
    subgroup parameters leave the abelian range the matrix columns are
    still the images of the basis corrections, but only the graded
    flavor "n" is guaranteed multiplicative there; that regime is
    refused unless allow_nonabelian is set, and the result then carries
    a warning flag.  Column j is the Taylor sum for h = T^j at precision
    q^(n-r), reduced mod q for flavor "n".  Where conjugation is additive
    (2r >= n) one equation c . f = f . g checks the sum of the basis
    corrections, and where (n + 1) q^(n-1) = 0 a second one column 0;
    below that range each column is checked on its own.
    """
    ring = f.ring
    spec = _as_spec(spec)
    n, r = ring.require_truncated(), spec.r
    if n != spec.n:
        raise PreconditionFailed(f"ring precision {n} != subgroup precision {spec.n}")
    warning = 2 * r < n
    if not allow_nonabelian:
        _require_abelian(n, r, "; pass allow_nonabelian=True to tabulate the action anyway")
    finv, derivs = _low_inverse(f.require_automorphism(), r)
    terms, low = [d.compose(finv) for d in derivs], finv.ring
    entry_ring = ring.at_precision(1) if spec.flavor == "n" else low
    checks, columns, power = [], [], TruncPoly._raw(low, [low.one()])
    for j in range(n + 1):
        power = power * finv if j else power
        w = r if spec.flavor == "n" else max(r, j - 1)
        k = _closed_form(power, terms, w, r)
        checks.append((TruncPoly._raw(ring, [ring.zero()] * j + [ring.q_power(w)]), k))
        col = low.transport(k.raw_coeffs(), entry_ring)
        if not all(map(entry_ring.is_zero, col[n + 1 :])):
            raise ShapeMismatch(
                f"conjugate of the degree-{j} correction leaves the degree-{n} window"
            )
        columns.append(col[: n + 1] + [entry_ring.zero()] * (n + 1 - len(col)))
    if not warning:  # additive on an abelian kernel: one equation for the sum
        total = tuple(sum(side[1:], side[0]) for side in zip(*checks))
        # the sum weighs an error common to all n + 1 columns by n + 1, which
        # hides it where (n + 1) q^(n-1) = 0; column 0 alone weighs it by 1
        blind = ring.is_zero(ring.mul(ring.from_int(n + 1), ring.q_power(n - 1)))
        checks = [total] + checks[:1] if blind else [total]
    for g_minus_t, k in checks:  # (g_j - T, k_j)
        _check_conjugate(f, identity_map(ring) + g_minus_t, k, r)
    return AdjointMatrix(spec, _mode(ring), entry_ring, tuple(zip(*columns)), warning)


def universal_element(n: int, degree: Optional[int] = None) -> TruncPoly:
    """The generic shape automorphism over Z[a, b, c, d, e, 1/b][q]/q^n:
    a + b T + q c T^2 + q^2 d T^3 + q^3 e T^4, cut at the given degree
    (default n, at most 4 with this generator supply)."""
    if degree is None:
        degree = min(n, 4)
    if not 1 <= degree <= 4:
        raise PreconditionFailed("generic degree must be between 1 and 4")
    if degree > n:
        raise PreconditionFailed(f"degree {degree} exceeds precision {n}")
    ring = universal_coefficient_ring(n)
    names = ("a", "b", "c", "d", "e")
    coeffs = [ring.gen("a"), ring.gen("b")]
    for j in range(2, degree + 1):
        coeffs.append(ring.mul(ring.q_power(j - 1), ring.gen(names[j])))
    return TruncPoly._raw(ring, coeffs)


def specialize_matrix(
    m: AdjointMatrix, target: Ring, assignment: Mapping[str, object]
) -> AdjointMatrix:
    """Evaluate a symbolic matrix entrywise in an entry ring of the same
    q-adic precision, numeric or not."""
    ring = m.ring
    if not isinstance(ring, SymbolicRing):
        raise PreconditionFailed("only symbolic matrices specialize")
    if target.truncation != ring.truncation:
        raise PreconditionFailed(
            f"target precision {target.truncation} != {ring.truncation}"
        )
    rows = tuple(
        tuple(ring.substitute(e, target, assignment) for e in row)
        for row in m.rows
    )
    return AdjointMatrix(m.spec, _mode(target), target, rows, m.warning)


# ---------------------------------------------------------------------------
# the congruence subgroup as a direct sum of cyclic pieces


class ModuleDecomposition(NamedTuple):
    """Cyclic decomposition of the level-r congruence subgroup at
    precision n, one slot per monomial correction degree.

    orders[j] is the annihilator exponent of the degree-j slot, found by
    actually rescaling the nonzero payloads of the basis correction by
    growing powers of q until they vanish.  expected[j] is the closed-form n -
    max(r, j-1).  summands lists the nonzero orders largest first, so
    the module reads (+) over k of R/q^summands[k].
    """

    n: int
    r: int
    weights: Tuple[int, ...]
    orders: Tuple[int, ...]
    expected: Tuple[int, ...]

    @property
    def agrees(self) -> bool:
        return self.orders == self.expected

    @property
    def summands(self) -> Tuple[int, ...]:
        return tuple(sorted((k for k in self.orders if k > 0), reverse=True))

    def to_json(self) -> dict:
        return {
            "kind": "module-decomposition",
            "precision": self.n,
            "level": self.r,
            "slot_weights": list(self.weights),
            "slot_orders": list(self.orders),
            "expected_orders": list(self.expected),
            "agrees": self.agrees,
            "summands": list(self.summands),
        }

    def render_text(self) -> str:
        parts = []
        for k, run in itertools.groupby(self.summands):
            piece = f"R/q^{k}" if k > 1 else "R/q"
            count = len(list(run))
            parts.append(piece if count == 1 else f"{piece} ^ {count}")
        body = " (+) ".join(parts) or "0"
        tag = "" if self.agrees else "   [differs from the closed form]"
        return (
            f"level {self.r} congruence subgroup at precision {self.n}: "
            + body
            + tag
        )


def module_decomposition(ring: Ring, r: Optional[int] = None) -> ModuleDecomposition:
    """Decompose the level-r congruence subgroup over a q^n-truncated
    ring into cyclic q-power pieces.  Defaults to the half-precision
    level r = n/2 (n even), the smallest level that is always abelian.
    """
    n = ring.require_truncated()
    if r is None:
        if n % 2:
            raise PreconditionFailed(
                f"no default level at odd precision {n}; pass r explicitly"
            )
        r = n // 2
    ring.require_truncated(r)
    _require_abelian(n, r)
    weights = tuple(min(max(r, j - 1), n) for j in range(n + 1))
    ident, orders = identity_map(ring), []
    for j, w in enumerate(weights):
        step = TruncPoly._raw(ring, [ring.zero()] * j + [ring.q_power(w)])  # q^w T^j
        check_kernel_element(ident + step, r)  # once, where scalar_mul would per step
        correction = [c for c in step.raw_coeffs() if not ring.is_zero(c)]
        k = 0
        while any(not ring.is_zero(ring.mul(ring.q_power(k), c)) for c in correction):
            k += 1
            if k > n:
                raise AlgebraError("annihilator search left the q-adic range")
        orders.append(k)
    return ModuleDecomposition(n, r, weights, tuple(orders), tuple(n - w for w in weights))
