"""Exact verification suites.

Everything here is a yes/no question decided by exact rational
arithmetic: the moment identities behind the orthogonality proofs, the
deformation limits that produce the measures and row polynomials, full
Gram matrices, and a nullspace search certifying that a constructed
family consists of eigenfunctions of a higher order difference operator
on the quadratic lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial
from operator import mul

from .exact import (
    IndexSet,
    Polynomial,
    RationalFunction,
    involution,
    limit_at_zero,
    nullspace_exact,
    pochhammer,
    poly_dot,
)
from .classical import dual_hahn_poly, hahn_poly, lambda_map, lambda_poly
from .measures import (
    DiscreteMeasure,
    NuParams,
    nu_basic,
    nu_u_transform,
    rho_transformed,
)
from .wpoly import (
    PsiContext,
    WFamily,
    anchor_poly,
    psi_mirror,
    psi_plain,
    row_range,
    w_family,
    w_mid_explicit,
    w_mid_limit,
    w_param_explicit,
    w_param_limit,
)
from .constructors import Family, alt_params, shifted_params


@dataclass(frozen=True)
class IdentityReport:
    """One exactly-checked identity instance."""

    identity: str
    params: dict
    lhs: object
    rhs: object

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs

    def as_record(self) -> dict:
        return {
            "identity": self.identity,
            "params": {k: str(v) for k, v in self.params.items()},
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "pass": self.passed,
        }


class _Moments:
    """Moments of one measure against R_k(x) (x + c)^m for one family of
    polynomials k -> R_k.  Each R_k is built and evaluated at the atoms
    once, weighted by the masses; a moment is then a dot product."""

    def __init__(self, measure: DiscreteMeasure, family, c=0):
        self._atoms = tuple((p, p + c, w) for _, p, w in measure.atoms)
        self._family = family
        self._weighted = {}

    def __call__(self, k: int, m: int):
        weighted = self._weighted.get(k)
        if weighted is None:
            R = self._family(k)
            weighted = self._weighted[k] = tuple((y, R(p) * w) for p, y, w in self._atoms)
        total = Fraction(0)
        for y, rw in weighted:
            total = total + rw * y**m
        return total


class IdentityContext:
    """Evaluation context of the moment identities of one configuration.

    The configuration is (a, b, N, free) for the basic and mirrored
    identities, with the points U for the transformed ones, or (a, b, N, F)
    for the generic Christoffel ones.  The measure, the dual Hahn values at
    its atoms and the row functionals are built once, when an identity
    first needs them, so every identity is a dot product over stored
    values.  Build one per configuration for a batch of identities and let
    it go with the batch: nothing in it is kept beyond its owner.
    """

    def __init__(self, a, b, N, free=None, U=None, F=None):
        self.a, self.b, self.N = a, b, N
        self.free, self.U, self.F = free, U, F
        # checked before any identity runs
        self.params = NuParams(a, b, N, free) if free is not None else None
        self._plain = {}

    @cached_property
    def nu(self) -> DiscreteMeasure:
        return nu_basic(self.params)

    @cached_property
    def psi(self) -> PsiContext:
        return PsiContext.build(self.a, self.b, self.N, self.free)

    @cached_property
    def nu_moments(self) -> _Moments:
        a, b, N = self.a, self.b, self.N
        return _Moments(self.nu, lambda k: dual_hahn_poly(k, a, b, N))

    @cached_property
    def mirror_moments(self) -> _Moments:
        """Dual Hahn rows with a and b exchanged, argument shifted by a+b."""
        a, b, N = self.a, self.b, self.N
        return _Moments(self.nu, lambda k: dual_hahn_poly(k, b, a, N), a + b)

    @cached_property
    def wmir(self) -> WFamily:
        a, b, N = self.a, self.b, self.N
        inv = tuple(1 / Fraction(x) for x in self.free)
        return w_family(a, b, Fraction(-2 - N - a - b), inv, rows=range(a, a + b))

    @cached_property
    def alt(self):
        return alt_params(self.a, self.b, self.N, self.U)

    @cached_property
    def alt_psi(self) -> PsiContext:
        alt = self.alt
        return PsiContext.build(
            alt.a_alt, alt.b_alt, alt.N_alt, self.free, rows=list(alt.G_rows)
        )

    @cached_property
    def transformed_moments(self) -> _Moments:
        """Shifted-parameter dual Hahn rows in the argument x - s_shift."""
        alt = self.alt
        return _Moments(
            nu_u_transform(self.params, self.U).measure,
            lambda k: dual_hahn_poly(k, alt.a_alt, alt.b_alt, alt.N_alt).shift_argument(
                -alt.s_shift
            ),
            -alt.s_shift,
        )

    @cached_property
    def christoffel_moments(self) -> _Moments:
        a, b, N = self.a, self.b, self.N
        return _Moments(
            rho_transformed(a, b, N, self.F), lambda k: dual_hahn_poly(k, a, b, N)
        )

    @cached_property
    def christoffel_rows(self) -> dict:
        """Row g of I(F) -> the Hahn polynomial h_g^{-a,-b,-2-N}."""
        return {g: _hahn_neg(g, self.a, self.b, self.N) for g in involution(self.F)}

    @cached_property
    def christoffel_anchor(self) -> Polynomial:
        return anchor_poly(self.a, self.b, involution(self.F).elements)

    def plain_functional(self, g: int, m: int) -> Fraction:
        """``psi_plain`` of a Christoffel row, once per (g, m)."""
        key = (g, m)
        if key not in self._plain:
            self._plain[key] = psi_plain(
                g, m, self.a, self.b, self.N, self.christoffel_anchor
            )
        return self._plain[key]


def verify_moment_identity(kind: str, context: IdentityContext, **indices) -> IdentityReport:
    """Evaluate both sides of one moment identity exactly.

    The left side is always an inner product over the relevant measure;
    the right side a weighted sum of row polynomial evaluations.
    ``context`` is the IdentityContext of the configuration, shared by a
    batch of identities; the keywords are the indices (m and s, or n); see
    the per-kind helpers.
    """
    helper = _IDENTITY_HELPERS.get(kind)
    if helper is None:
        raise ValueError(f"unknown identity kind {kind!r}")
    return helper(context, **indices)


def _nu_lower(ctx: IdentityContext, m: int, s: int) -> IdentityReport:
    """Lower-triangular identity on the basic measure: the moment of the
    degree-s dual Hahn polynomial is a weighted sum of row values at -s-1.
    Valid for m - a + 1 <= s (negative s means a zero left side)."""
    a, b, N, psi = ctx.a, ctx.b, ctx.N, ctx.psi
    lhs = (
        Fraction((-1) ** (a + s + 1))
        * ctx.nu_moments(s, m)
        / (factorial(a - 1) * pochhammer(Fraction(N + 2), b - 1))
    )
    rhs = pochhammer(Fraction(b + N - s + 1), s) * sum(
        (psi.value_power(g, m) * psi.wfam[g](Fraction(-s - 1)) for g in row_range(a, b)),
        Fraction(0),
    )
    return IdentityReport(
        "nu-lower", dict(a=a, b=b, N=N, free=ctx.free, m=m, s=s), lhs, rhs
    )


def _nu_diagonal(ctx: IdentityContext, n: int) -> IdentityReport:
    """Diagonal identity on the basic measure, 0 <= n <= N + a."""
    a, b, N, psi = ctx.a, ctx.b, ctx.N, ctx.psi
    lhs = (
        Fraction((-1) ** (n + 1))
        * ctx.nu_moments(n - a, n)
        / (
            factorial(a - 1)
            * pochhammer(Fraction(N + 2), b - 1)
            * pochhammer(Fraction(b + N - n + a + 1), n - a)
        )
    )
    rhs = Fraction((-1) ** (n + 1)) * factorial(n) * factorial(N + 1) / (
        factorial(a - 1) * factorial(N + a - n)
    ) + sum(
        (psi.value_power(g, n) * psi.wfam[g](Fraction(-n + a - 1)) for g in row_range(a, b)),
        Fraction(0),
    )
    return IdentityReport("nu-diagonal", dict(a=a, b=b, N=N, free=ctx.free, n=n), lhs, rhs)


def _christoffel_constant(a, b, N: int, F: IndexSet) -> Fraction:
    mx = F.max
    n_g = len(involution(F))
    return (
        Fraction((-1) ** (n_g + 1))
        * pochhammer(b - mx, N + mx + 2)
        * factorial(N + 1)
        / (pochhammer(a - mx, mx) * factorial(N + mx + 1) ** 2)
    )


def _christoffel_lower(ctx: IdentityContext, m: int, s: int) -> IdentityReport:
    """Lower-triangular identity for the Christoffel transform of the dual
    Hahn measure at generic parameters (a, b > max F).  Valid for
    m - |I(F)| + 1 <= s."""
    a, b, N, F = ctx.a, ctx.b, ctx.N, ctx.F
    lhs = ctx.christoffel_moments(s, m)
    total = sum(
        (
            ctx.plain_functional(g, m) * h(Fraction(-s - 1))
            for g, h in ctx.christoffel_rows.items()
        ),
        Fraction(0),
    )
    rhs = (
        pochhammer(b + N - s + 1, s + 1)
        / (Fraction((-1) ** s) * _christoffel_constant(a, b, N, F))
        * total
    )
    return IdentityReport(
        "christoffel-lower", dict(a=a, b=b, N=N, F=F.elements, m=m, s=s), lhs, rhs
    )


def _christoffel_diagonal(ctx: IdentityContext, n: int) -> IdentityReport:
    """Diagonal identity for the generic Christoffel transform.

    The normalizing factorial ratio is implemented as the rising factorial
    (a)_{n - |G| + 1}, and the left-side column normalization carries the
    exponent n - |G| + 1 (both forced by exact checking; the same reading
    reduces to the basic one at the merged index set).
    """
    a, b, N, F = ctx.a, ctx.b, ctx.N, ctx.F
    n_g = len(ctx.christoffel_rows)
    c = _christoffel_constant(a, b, N, F)
    lhs = (
        Fraction((-1) ** (n - n_g))
        * c
        * ctx.christoffel_moments(n - n_g, n)
        / pochhammer(b + N - n + n_g + 1, n - n_g + 1)
    )
    rhs = Fraction((-1) ** (n + 1)) * pochhammer(a, n - n_g + 1) * factorial(N + 1) / factorial(
        N + n_g - n
    ) + sum(
        (
            ctx.plain_functional(g, n) * h(Fraction(-n + n_g - 1))
            for g, h in ctx.christoffel_rows.items()
        ),
        Fraction(0),
    )
    return IdentityReport(
        "christoffel-diagonal", dict(a=a, b=b, N=N, F=F.elements, n=n), lhs, rhs
    )


def _hahn_neg(g: int, a, b, N):
    return hahn_poly(g, -Fraction(a), -Fraction(b), Fraction(-2 - N))


def _mirror_prefactor(a: int, b: int, N: int, k: int) -> Fraction:
    return (
        factorial(b - 1)
        * pochhammer(Fraction(N + 2), b - 1)
        * pochhammer(Fraction(-a - b - N), k)
        / (Fraction((-1) ** b) * pochhammer(Fraction(b + N + 1), a))
    )


def _mirror_lower(ctx: IdentityContext, m: int, s: int) -> IdentityReport:
    """Lower-triangular identity on the mirrored side (a and b exchanged
    in the dual Hahn row, argument shifted by a+b)."""
    a, b, N, wmir = ctx.a, ctx.b, ctx.N, ctx.wmir
    lhs = ctx.mirror_moments(s, m)
    rhs = _mirror_prefactor(a, b, N, s + b) * sum(
        (
            psi_mirror(f, m, a, b, N, wmir) * wmir[f](Fraction(a + N - s))
            for f in range(a, a + b)
        ),
        Fraction(0),
    )
    return IdentityReport(
        "mirror-lower", dict(a=a, b=b, N=N, free=ctx.free, m=m, s=s), lhs, rhs
    )


def _mirror_diagonal(ctx: IdentityContext, n: int) -> IdentityReport:
    """Diagonal identity on the mirrored side, 0 <= n <= N + b."""
    a, b, N, wmir = ctx.a, ctx.b, ctx.N, ctx.wmir
    lhs = ctx.mirror_moments(n - b, n)
    rhs = factorial(n) * pochhammer(Fraction(b + N + 1 - n), a) * pochhammer(
        Fraction(-a - b - N), n
    ) ** 2 / pochhammer(Fraction(b + N + 1), a) ** 2 + _mirror_prefactor(
        a, b, N, n
    ) * sum(
        (
            psi_mirror(f, n, a, b, N, wmir) * wmir[f](Fraction(a + b + N - n))
            for f in range(a, a + b)
        ),
        Fraction(0),
    )
    return IdentityReport(
        "mirror-diagonal", dict(a=a, b=b, N=N, free=ctx.free, n=n), lhs, rhs
    )


def _transformed_lower(ctx: IdentityContext, m: int, s: int) -> IdentityReport:
    """Lower-triangular identity for the integer-point Christoffel
    transform, written in the shifted parameters."""
    a, b, N, alt, psi = ctx.a, ctx.b, ctx.N, ctx.alt, ctx.alt_psi
    rows = list(alt.G_rows)
    n_g = len(rows)
    lhs = (
        factorial(alt.N_alt + 1)
        * ctx.transformed_moments(s, m)
        / (
            Fraction((-1) ** (n_g + s + 1))
            * factorial(alt.a_alt - 1)
            * factorial(N + b)
        )
    )
    rhs = pochhammer(Fraction(b + N - s + 1), s) * sum(
        (psi.value_power(g, m) * psi.wfam[g](Fraction(-s - 1)) for g in rows),
        Fraction(0),
    )
    return IdentityReport(
        "transformed-lower",
        dict(a=a, b=b, N=N, free=ctx.free, U=tuple(ctx.U), m=m, s=s),
        lhs,
        rhs,
    )


def _transformed_diagonal(ctx: IdentityContext, n: int) -> IdentityReport:
    """Diagonal identity for the integer-point Christoffel transform."""
    a, b, N, alt, psi = ctx.a, ctx.b, ctx.N, ctx.alt, ctx.alt_psi
    rows = list(alt.G_rows)
    n_g, n_u = len(rows), len(ctx.U)
    lhs = (
        Fraction((-1) ** (n + 1))
        * factorial(alt.N_alt + 1)
        * ctx.transformed_moments(n - n_g, n)
        / (
            factorial(alt.a_alt - 1)
            * factorial(N + b)
            * pochhammer(Fraction(b + N - n + n_g + 1), n - n_g)
        )
    )
    rhs = factorial(n + n_u) * pochhammer(Fraction(N + a - n - n_u + 1), n) / (
        Fraction((-1) ** (n + 1))
        * factorial(alt.a_alt - 1)
        * pochhammer(Fraction(alt.N_alt + 2), alt.a_alt - 1 - n_u)
    ) + sum(
        (psi.value_power(g, n) * psi.wfam[g](Fraction(-n + n_g - 1)) for g in rows),
        Fraction(0),
    )
    return IdentityReport(
        "transformed-diagonal",
        dict(a=a, b=b, N=N, free=ctx.free, U=tuple(ctx.U), n=n),
        lhs,
        rhs,
    )


_IDENTITY_HELPERS = {
    "nu-lower": _nu_lower,
    "nu-diagonal": _nu_diagonal,
    "christoffel-lower": _christoffel_lower,
    "christoffel-diagonal": _christoffel_diagonal,
    "mirror-lower": _mirror_lower,
    "mirror-diagonal": _mirror_diagonal,
    "transformed-lower": _transformed_lower,
    "transformed-diagonal": _transformed_diagonal,
}
MOMENT_IDENTITIES = tuple(_IDENTITY_HELPERS)


def triangular_product_report(a: int, b: int, N: int, free) -> IdentityReport:
    """The functional-times-minor matrix is upper triangular with the
    stated nonzero diagonal, which forces the order-zero minor to be
    nonzero."""
    psi = PsiContext.build(a, b, N, free)
    rows = list(row_range(a, b))
    # each row polynomial at 0..a-1, evaluated once for every i
    wvals = {g: [psi.wfam[g](Fraction(l)) for l in range(a)] for g in rows}
    prod = [
        [
            sum(
                (psi.value_power(g, a - i) * wvals[g][l - 1] for g in rows),
                Fraction(0),
            )
            for l in range(1, a + 1)
        ]
        for i in range(1, a + 1)
    ]
    expected = [
        [
            Fraction((-1) ** (a - l)) * factorial(a - l) * factorial(N + 1)
            / (factorial(a - 1) * factorial(N + l))
            if i == l
            else (Fraction(0) if l < i else prod[i - 1][l - 1])
            for l in range(1, a + 1)
        ]
        for i in range(1, a + 1)
    ]
    return IdentityReport(
        "triangular-product", dict(a=a, b=b, N=N, free=free), prod, expected
    )


def deformed_parameters(a: int, b: int, M: Fraction):
    """The one-parameter deformation used by every limit: a moves by
    -s/M, b by +s."""
    return (
        RationalFunction(Polynomial((Fraction(a), -1 / Fraction(M)))),
        RationalFunction(Polynomial((Fraction(b), Fraction(1)))),
    )


def limit_of_measure(mu: DiscreteMeasure, a0: int, b0: int) -> DiscreteMeasure:
    """Exact s -> 0 limit of a deformed measure.

    Atom indices merging to the same lattice point (an index and its
    reflection) are combined; vanished atoms are dropped.
    """
    sums = {}
    for i, _, m in mu.atoms:
        ci = max(i, -i - a0 - b0 - 1)
        sums[ci] = sums.get(ci, Fraction(0)) + limit_at_zero(RationalFunction._coerce(m))
    return DiscreteMeasure.from_masses(
        a0, b0, [(i, v) for i, v in sums.items() if v]
    )


def basic_limit_constant(a: int, b: int, N: int) -> Fraction:
    """Normalization constant relating the deformed-measure limit to the
    basic measure (everything-equal free parameters)."""
    return (
        Fraction((-1) ** (a + b + 1))
        * factorial(b - 1)
        * pochhammer(Fraction(N + b + 1), a) ** 2
        / factorial(a - 1)
    )


def verify_measure_limit_basic(a: int, b: int, N: int, M) -> IdentityReport:
    """The Christoffel transform at the minimal merged set of the deformed
    dual Hahn measure tends exactly to the basic measure scaled by the
    stated constant over M."""
    M = Fraction(M)
    a_s, b_s = deformed_parameters(a, b, M)
    F0 = IndexSet.of(range(a, a + b))
    lim = limit_of_measure(rho_transformed(a_s, b_s, N, F0), a, b)
    target = nu_basic(NuParams(a, b, N, (M,) * b)).scaled(basic_limit_constant(a, b, N) / M)
    return IdentityReport(
        "measure-limit-basic", dict(a=a, b=b, N=N, M=M), lim.atoms, target.atoms
    )


def verify_measure_limit_transformed(a: int, b: int, N: int, M, U) -> IdentityReport:
    """The deformed transform at the merged index set tends to the
    transformed measure exactly, up to one nonzero constant.

    The limit lives on the shifted lattice; atom i corresponds to atom
    i + shift of the transformed measure.  Checked as exact atom-by-atom
    proportionality; the constant is reported in the params.
    """
    M = Fraction(M)
    alt = shifted_params(a, b, N, U)
    U = tuple(int(u) for u in U)  # integers: alt_params rejects any other point
    a_s, b_s = deformed_parameters(alt.a_alt, alt.b_alt, M)
    lim = limit_of_measure(
        rho_transformed(a_s, b_s, alt.N_alt, alt.F_merged), alt.a_alt, alt.b_alt
    )
    nuU = nu_u_transform(NuParams(a, b, N, (M,) * b), U).measure
    t = max(-1, max(U, default=-1)) + 1
    shifted = tuple(i + t for i in lim.indices)
    constant = None
    masses_match = False
    if shifted == nuU.indices and lim.atoms:
        ratios = {lm / nm for (_, _, lm), (_, _, nm) in zip(lim.atoms, nuU.atoms)}
        if len(ratios) == 1:
            constant = ratios.pop()
            masses_match = constant != 0
    return IdentityReport(
        "measure-limit-transformed",
        dict(a=a, b=b, N=N, M=M, U=tuple(U), constant=constant),
        (shifted, masses_match),
        (nuU.indices, True),
    )


def verify_row_parameter_limit(a: int, b: int, N: int, g: int, M) -> IdentityReport:
    """Parameter row polynomial: deformation limit against closed form."""
    M = Fraction(M)
    return IdentityReport(
        "row-parameter-limit",
        dict(a=a, b=b, N=N, g=g, M=M),
        w_param_limit(g, a, b, Fraction(N), M),
        w_param_explicit(g, a, b, Fraction(N), M),
    )


def verify_row_window_limit(a: int, b: int, N: int, g: int) -> IdentityReport:
    """Proportional-window row polynomial: one-sided deformation limit
    against closed form."""
    return IdentityReport(
        "row-window-limit",
        dict(a=a, b=b, N=N, g=g),
        w_mid_limit(g, a, b, Fraction(N)),
        w_mid_explicit(g, a, b, Fraction(N)),
    )


def verify_evaluation_limit(a: int, b: int, N: int, n: int, f: int, M) -> IdentityReport:
    """Deformed dual Hahn value at a parameter-row lattice point: the
    limit over s equals the mirrored row polynomial expression."""
    M = Fraction(M)
    s = RationalFunction.var()
    ah = RationalFunction(Polynomial((Fraction(-b), -1 / M)))
    bh = RationalFunction(Polynomial((Fraction(-a), Fraction(1))))
    Nh = N + a + b
    R = dual_hahn_poly(n, ah, bh, Nh)
    val = RationalFunction._coerce(R(lambda_map(ah, bh, f)))
    lhs = limit_at_zero(val / s)
    inv = ((1 / M),) * b
    wmir = w_family(a, b, Fraction(-2 - N - a - b), inv, rows=range(a, a + b))
    rhs = (
        (1 - M)
        * pochhammer(Fraction(-N - a - b), n)
        * wmir[f](Fraction(N + a + b - n))
        / (
            Fraction((-1) ** f)
            * M
            * pochhammer(Fraction(n - b + 1), b)
            * factorial(f - b)
            * pochhammer(Fraction(-N - a - b), f)
        )
    )
    return IdentityReport(
        "evaluation-limit", dict(a=a, b=b, N=N, n=n, f=f, M=M), lhs, rhs
    )


LIMIT_KINDS = (
    "measure-basic",
    "measure-transformed",
    "row-parameter",
    "row-window",
    "evaluation",
    "quotient",
)


def verify_limits(kind: str, **kw) -> IdentityReport:
    """Dispatching front end for the exact s -> 0 limit checks."""
    if kind == "measure-basic":
        return verify_measure_limit_basic(**kw)
    if kind == "measure-transformed":
        return verify_measure_limit_transformed(**kw)
    if kind == "row-parameter":
        return verify_row_parameter_limit(**kw)
    if kind == "row-window":
        return verify_row_window_limit(**kw)
    if kind == "evaluation":
        return verify_evaluation_limit(**kw)
    if kind == "quotient":
        return verify_quotient_identity(**kw)
    raise ValueError(f"unknown limit kind {kind!r}")


def verify_quotient_identity(a: int, b: int, N: int, n: int) -> IdentityReport:
    """Negative-parameter dual Hahn quotient: cross-multiplied polynomial
    identity relating the shifted polynomial to the reduced one."""
    lhs_num = dual_hahn_poly(n, -b, -a, N + a + b).shift_argument(Fraction(a + b))
    den = Polynomial.from_roots(
        [lambda_map(-a, -b, f) - a - b for f in range(a, a + b)]
    )
    rhs = dual_hahn_poly(n - b, b, a, N) / pochhammer(Fraction(n - b + 1), b)
    return IdentityReport(
        "quotient-identity", dict(a=a, b=b, N=N, n=n), lhs_num, den * rhs
    )


@dataclass(frozen=True)
class GramReport:
    """Full Gram matrix of a family against a measure."""

    entries: tuple
    expected_diagonal: tuple

    @property
    def diagonal_ok(self) -> bool:
        n = len(self.entries)
        return all(
            self.entries[i][i] == self.expected_diagonal[i] for i in range(n)
        )

    @property
    def off_diagonal_ok(self) -> bool:
        n = len(self.entries)
        return all(
            not self.entries[i][j] for i in range(n) for j in range(n) if i != j
        )

    @property
    def passed(self) -> bool:
        return self.diagonal_ok and self.off_diagonal_ok


def orthogonality_report(polys, measure: DiscreteMeasure, expected_norms) -> GramReport:
    """Compute the full Gram matrix exactly and compare with expectations.
    Each polynomial is evaluated once per atom; an entry is then a
    mass-weighted dot product of two rows of values."""
    values = [[p(x) for _, x, _ in measure.atoms] for p in polys]
    weighted = [[v * m for v, (_, _, m) in zip(row, measure.atoms)] for row in values]
    entries = tuple(
        tuple(sum(map(mul, wi, vj), Fraction(0)) for vj in values) for wi in weighted
    )
    return GramReport(entries, tuple(expected_norms))


@dataclass(frozen=True)
class LatticeOperator:
    """Difference operator on the quadratic lattice with rational
    coefficients over one shared denominator.

    Acting on p(point(x)) it produces sum_j h_j(x) p(point(x+j)) with
    h_j = numerators[j]/denominator; gammas[n] is the eigenvalue on the
    degree-n member of the family it was built from.
    """

    shift_bound: int
    numerators: dict
    denominator: Polynomial
    gammas: tuple
    lattice: tuple

    def apply_cleared(self, poly_in_x: Polynomial) -> Polynomial:
        """Denominator-cleared action on a polynomial already composed
        with the lattice map: sum_j numerators[j] * p(x+j)."""
        return poly_dot(
            self.numerators.values(),
            [poly_in_x.shift_argument(Fraction(j)) for j in self.numerators],
        )

    def maps_lattice_powers(self, k_max: int = 3) -> bool:
        """Membership in the lattice operator algebra: applying the
        operator to point(x)^k must give a polynomial in point(x), i.e.
        the cleared action is divisible by the denominator and the
        quotient is symmetric under the lattice reflection."""
        a, b = self.lattice
        lam = lambda_poly(a, b)
        for k in range(k_max + 1):
            out = self.apply_cleared(lam**k)
            quot, rem = out.divmod(self.denominator)
            if not rem.is_zero:
                return False
            if quot.reflect_argument(-a - b - 1) != quot:
                return False
        return True


def operator_search(fam, r: int):
    """Search for a difference operator diagonalizing the family.

    The operator is sum_j h_j(x) p(point(x + j)) over the shifts j in
    [-r, r], with h_j = numerators[j] / d_t.  The denominator is pinned,
    as the D-operator construction gives it: at degree t it is the monic
    d_t(x) = prod_{i<t} (x + (a+b+1)/2 - (t-1)/2 + i), whose t roots lie
    one apart and are centred on -(a+b+1)/2.  The unknowns are the
    numerator coefficients (degree t + r) and one eigenvalue gamma_n per
    member; member n contributes the coefficients of
    sum_j h_j(x) Q_n(x + j) - gamma_n d_t(x) Q_n(x), Q_n being the member
    composed with the lattice map.  The first member's eigenvalue is 0,
    which removes the identity operator from the solution space.  One
    system is solved at t = r(r+1)/2 and, only if it yields no operator,
    one at t + 1.  Kernel vectors are tried in order and must give
    pairwise distinct eigenvalues and nonzero extreme shifts; the winner
    is scaled so that the second member's eigenvalue is 1.  The system
    takes every nondegenerate member of the family.  The winner is
    checked once more, each eigen-equation as an exact polynomial identity
    in x, which holds at every lattice point.  Returns None when no such
    operator exists at either degree.

    This certifies (a,b) = (1,1), (2,1) and (2,2) at r = ab + 1; at
    (3,1) it finds no operator at r = ab + 1 = 4, so the shift range per
    (a,b) is not settled.
    """
    if isinstance(fam, Family):
        polys, (a, b) = fam.polys, (fam.params.a, fam.params.b)
    else:
        polys, a, b = fam  # (list of polynomials in the point variable, a, b)
    n_max = len(polys) - 1
    if n_max < 2 * r + 2:
        raise ValueError("need at least 2r + 3 family members for the search")
    # members whose determinant collapsed to zero impose no constraint
    usable = [n for n in range(n_max + 1) if polys[n].degree == n]
    if len(usable) < 2 * r + 3:
        raise ValueError("not enough nondegenerate family members")
    lam = lambda_poly(a, b)
    Q = {n: polys[n].compose(lam) for n in usable}
    shifts = list(range(-r, r + 1))
    shifted = {
        (n, j): Q[n].shift_argument(Fraction(j)) for n in usable for j in shifts
    }
    tri = r * (r + 1) // 2
    for t in (tri, tri + 1):
        low = Fraction(a + b + 1, 2) - Fraction(t - 1, 2)
        den = Polynomial.from_roots([-low - i for i in range(t)])
        op = _operator_search_at(a, b, Q, shifted, shifts, den, usable, n_max)
        if op is not None:
            if not _verify_operator(op, Q, shifted):
                raise ArithmeticError("operator failed its exact identity check")
            return op
    return None


def _operator_search_at(a, b, Q, shifted, shifts, den, usable, n_max):
    """One system: numerators of degree t + r over the denominator den of
    degree t, and one eigenvalue column per free member."""
    d1 = den.degree + max(shifts)
    n_h = len(shifts) * (d1 + 1)
    free_ns = usable[1:]  # eigenvalue of the first usable member pinned to 0
    total_cols = n_h + len(free_ns)
    rows = []
    for n in usable:
        width = d1 + 2 * n + 1
        # (first column, coefficients of p, d): column first + k holds the
        # coefficients of x^k p for k = 0..d
        blocks = [
            (idx * (d1 + 1), shifted[(n, j)].coeffs, d1) for idx, j in enumerate(shifts)
        ]
        if n in free_ns:
            off = n_h + free_ns.index(n)
            blocks.append((off, tuple(-c for c in (den * Q[n]).coeffs), 0))
        for deg in range(width):
            row = [Fraction(0)] * total_cols
            touched = False
            for first, coeffs, d in blocks:
                # the coefficient of x^deg in x^k p is p's coefficient of x^(deg-k)
                for k in range(max(0, deg - len(coeffs) + 1), min(d, deg) + 1):
                    v = coeffs[deg - k]
                    if v:
                        row[first + k] = v
                        touched = True
            if touched:
                rows.append(row)
    for vec in nullspace_exact(rows):
        op = _assemble_operator(a, b, vec, shifts, den, usable, n_max, n_h)
        if op is not None:
            return op
    return None


def _assemble_operator(a, b, vec, shifts, den, usable, n_max, n_h):
    gammas = dict(zip(usable, (Fraction(0), *vec[n_h:])))
    if len(set(gammas.values())) != len(gammas):
        return None
    width = n_h // len(shifts)
    nums = {
        j: Polynomial(vec[idx * width : (idx + 1) * width])
        for idx, j in enumerate(shifts)
    }
    if nums[shifts[0]].is_zero or nums[shifts[-1]].is_zero:
        return None
    # nonzero, as it differs from the first member's eigenvalue 0
    scale = gammas[usable[1]]
    return LatticeOperator(
        shift_bound=max(shifts),
        numerators={j: p / scale for j, p in nums.items()},
        denominator=den,
        gammas=tuple(
            gammas[n] / scale if n in gammas else None for n in range(n_max + 1)
        ),
        lattice=(a, b),
    )


def _verify_operator(op: LatticeOperator, Q, shifted) -> bool:
    """Each eigen-equation as an exact polynomial identity in x:
    sum_j numerators[j] * Q_n(x + j) == gamma_n * denominator * Q_n, with
    Q_n(x + j) read from ``shifted``."""
    for n, q in Q.items():
        gamma = op.gammas[n]
        if gamma is None:
            return False
        lhs = poly_dot(op.numerators.values(), [shifted[(n, j)] for j in op.numerators])
        if lhs != op.denominator * (gamma * q):
            return False
    return True
