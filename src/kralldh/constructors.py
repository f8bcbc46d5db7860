"""Determinantal construction of the orthogonal families.

Three representations of the same orthogonal family are built here:

* the direct one: a determinant with one polynomial row of dual Hahn
  polynomials, rows of auxiliary polynomials evaluated at shifted
  integers, and one row per Christoffel point, divided exactly by the
  Christoffel factor;
* the shifted-parameter one, whose rows are indexed by the involution
  image of the merged index set and whose dual Hahn polynomials take a
  translated argument;
* the mirrored one, built from the parameter-inverted auxiliary family
  evaluated on the other side of the lattice.

Existence of the family is equivalent to nonvanishing of the leading
minors, which are returned along with the polynomials and the closed-form
norms.  Each degree takes one row of signed cofactors from its numeric
block, by one fraction-free elimination over the integers: the cofactor
in the lead column is the leading minor, and the expansion along the
polynomial row is the determinant.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import factorial

from .exact import (
    IndexSet,
    InexactDivisionError,
    Polynomial,
    cofactor_row,
    involution,
    pochhammer,
    poly_dot,
)
from .classical import dual_hahn_poly, lambda_map
from .measures import (
    DiscreteMeasure,
    NuParams,
    check_pair_condition,
    christoffel_measure,
    inner_product,
    nu_basic,
    nu_u_transform,
)
from .wpoly import row_range, w_family


class FamilyExistenceError(ArithmeticError):
    """A leading minor vanished: no orthogonal family exists there."""


@dataclass(frozen=True)
class Family:
    """A constructed orthogonal family bundle.

    ``polys[n]`` has degree n, ``phis[n]`` is the leading minor (the norm
    of degree n needs phis[n] and phis[n+1]), ``norms[n]`` the closed-form
    squared norm.  ``measure`` is the orthogonality measure.  For the
    direct representation without Christoffel points the plain-normalized
    view (divided by the column scalings) is carried alongside, since its
    minor and norm formulas are the ones stated for the basic family.
    """

    representation: str
    params: NuParams
    U: tuple
    rows: tuple
    polys: list
    phis: list
    norms: list
    measure: DiscreteMeasure
    polys_plain: list = None
    phis_plain: list = None
    norms_plain: list = None

    @property
    def n_max(self) -> int:
        return len(self.polys) - 1


def _cached_dual_hahn(a, b, N, shift=0):
    """k -> the degree-k dual Hahn polynomial in the argument x + ``shift``;
    each k is built once per call of the construction."""
    cache = {}

    def get(k: int) -> Polynomial:
        if k not in cache:
            poly = dual_hahn_poly(k, a, b, N)
            cache[k] = poly.shift_argument(shift) if shift else poly
        return cache[k]

    return get


def _standard_params(params: NuParams) -> tuple:
    if params.orientation != "standard":
        raise ValueError("constructions are stated for the standard orientation")
    return params.a, params.b, params.N, params.free


def _determinantal_family(
    measure, n_max, k, column, top, lead_col, divisor, lead, norm, extend=False
):
    """The determinantal engine shared by the three representations.

    ``column(n, c)`` is column c (0..k) of the k x (k+1) numeric block of
    degree n, one entry per auxiliary row and per Christoffel point;
    ``top(n)`` is the polynomial row, whose highest-degree entry sits in
    column ``lead_col``.  With C the ``cofactor_row`` of block n, the
    leading minor (no lead column) is phi_n = (-1)^lead_col C[lead_col];
    the determinant with the polynomial row on top, sum_j C_j top(n)_j,
    divided exactly by ``divisor`` is the degree-n polynomial.  Its leading
    coefficient must be ``lead(n, phi_n)`` and its squared norm is
    ``norm(n, phi_n, phi_{n+1})``.  Beyond the support (only with
    ``extend``) a minor may vanish and no norm is given.

    Returns (polys, phis, norms).
    """
    n_support = len(measure.atoms)
    if n_max is None:
        n_max = n_support - 1
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    if not extend and n_max > n_support - 1:
        raise ValueError("n_max exceeds the support size of the measure")

    blocks = (zip(*(column(n, c) for c in range(k + 1))) for n in range(n_max + 2))
    cofactors = [cofactor_row(block) for block in blocks]
    phis = [(-1) ** lead_col * row[lead_col] for row in cofactors]
    polys, norms = [], []
    for n in range(n_max + 1):
        if not phis[n] and n < n_support:
            raise FamilyExistenceError(f"leading minor vanishes at n = {n}")
        q = poly_dot(map(Polynomial.constant, cofactors[n]), top(n)).divexact(divisor)
        if phis[n] and (q.degree != n or q.leading() != lead(n, phis[n])):
            raise InexactDivisionError(
                f"degree-{n} polynomial has wrong degree or leading coefficient"
            )
        polys.append(q)
        # no norm beyond the support: orthogonality only holds there
        norms.append(norm(n, phis[n], phis[n + 1]) if n < n_support else None)
    return polys, phis, norms


def construct_selected_rows(params: NuParams, G, U=(), n_max=None, extend=False) -> Family:
    """Shared direct-representation constructor.

    G selects which auxiliary rows appear (the full row range gives the
    basic family); U adds one evaluation row per Christoffel point.  The
    orthogonality measure is the basic measure times the Christoffel
    factors of U and of the dropped rows' points.
    """
    a, b, N, free = _standard_params(params)
    U = check_pair_condition(a, b, U)
    all_rows = list(row_range(a, b))
    G = sorted(G)
    if any(g not in all_rows for g in G):
        raise ValueError("selected rows must lie in the basic row range")
    dropped = [h for h in all_rows if h not in G]
    half_window = [h for h in dropped if h <= (a + b + 1) // 2 - 1]
    for h in half_window:
        if (a + b - 1 - h) not in dropped:
            raise ValueError(
                f"dropping row {h} needs its partner {a + b - 1 - h} dropped too"
            )
    n_u, n_g = len(U), len(G)
    wfam = w_family(a, b, N, free)
    R = _cached_dual_hahn(a, b, N)
    u_points = [lambda_map(a, b, u) for u in U]

    factor = Polynomial.from_roots(
        u_points + [lambda_map(a, b, -h - 1) for h in dropped]
    )
    measure = christoffel_measure(nu_basic(params), factor)
    if not measure.atoms:
        raise ValueError("transform annihilated the whole measure")

    def column(n, c):
        return [
            pochhammer(Fraction(b + N - n - n_u + c + 1), a + n_u - c)
            * wfam[g](Fraction(c - n - n_u - 1))
            for g in G
        ] + [Fraction((-1) ** c) * R(n + n_u - c)(pt) for pt in u_points]

    def top(n):
        return [Fraction((-1) ** c) * R(n + n_u - c) for c in range(n_g + n_u + 1)]

    polys, phis, norms = _determinantal_family(
        measure,
        n_max,
        k=n_g + n_u,
        column=column,
        top=top,
        lead_col=0,
        divisor=Polynomial.from_roots(u_points),
        lead=lambda n, phi: phi / factorial(n + n_u),
        norm=lambda n, phi, phi1: _selected_norm(a, b, N, n, n_u, n_g, phi, phi1),
        extend=extend,
    )
    return Family("direct", params, U, tuple(G), polys, phis, norms, measure)


def _selected_norm(a, b, N, n, n_u, n_g, phi_n, phi_n1) -> Fraction:
    num = (
        Fraction((-1) ** n_u)
        * factorial(n)
        * pochhammer(Fraction(n + 1), a - n_g)
        * Fraction(factorial(N + b)) ** 2
        * Fraction(N + a + b - n) ** n_g
        * phi_n
        * phi_n1
    )
    den = (
        factorial(n + n_u)
        * factorial(N + n_g - n)
        * factorial(N + n_g + b - n)
    )
    return num / den


def _plain_column_scalings(a, b, N, n):
    """Column normalizations relating the Christoffel-ready direct minors
    and polynomials to the plain basic ones (empty U only)."""
    e = Fraction(1)
    for j in range(1, a + 1):
        e *= pochhammer(Fraction(b + N - n + j + 1), a - j)
    d = pochhammer(Fraction(b + N - n + 1), a) * e
    return d, e


def construct_basic(params: NuParams, U=(), n_max=None, extend=False) -> Family:
    """The direct-representation family for the (transformed) basic measure.

    With empty U the plain-normalized view (divided column scalings, whose
    minors never vanish spuriously at the top degree) is attached as
    polys_plain/phis_plain/norms_plain.
    """
    a, b, N = params.a, params.b, params.N
    fam = construct_selected_rows(params, row_range(a, b), U, n_max, extend)
    # the plain view's column scalings vanish beyond the top degree
    if U or fam.n_max > N + b:
        return fam
    polys_plain, phis_plain, norms_plain = [], [], []
    for n, phi in enumerate(fam.phis):
        _, e = _plain_column_scalings(a, b, N, n)
        phis_plain.append(phi / e)
    for n, q in enumerate(fam.polys):
        d, _ = _plain_column_scalings(a, b, N, n)
        p = q / d
        if p.leading() != phis_plain[n] / (
            pochhammer(Fraction(b + N - n + 1), a) * factorial(n)
        ):
            raise InexactDivisionError("plain leading coefficient mismatch")
        polys_plain.append(p)
        if n <= N + b:
            norms_plain.append(
                Fraction(factorial(N + b)) ** 2
                * phis_plain[n]
                * phis_plain[n + 1]
                / (
                    factorial(N + a - n)
                    * factorial(N + b - n)
                    * pochhammer(Fraction(N + b - n + 1), a) ** 2
                )
            )
        else:
            norms_plain.append(None)
    return replace(
        fam, polys_plain=polys_plain, phis_plain=phis_plain, norms_plain=norms_plain
    )


def construct_dropped_rows(params: NuParams, G, U=(), n_max=None) -> Family:
    """Direct-representation family with a proper subset of rows.

    The orthogonality measure gains one Christoffel factor per dropped
    row; dropped rows in the lower pairing window must come with their
    reflection partners, otherwise no orthogonal family exists on the
    resulting measure.
    """
    fam = construct_selected_rows(params, G, U, n_max)
    return replace(fam, representation="dropped-rows")


@dataclass(frozen=True)
class AltParams:
    """Shifted parameters of the transformed representation.

    The shift is max(-1, max U) + 1; the merged index set combines the
    basic parameter block with the translated Christoffel points, and the
    row set is its involution image.  b_alt + N_alt is an invariant.
    """

    a_alt: int
    b_alt: int
    N_alt: int
    s_shift: Fraction
    F_merged: IndexSet
    G_rows: IndexSet

    @property
    def n_rows(self) -> int:
        return len(self.G_rows)


def alt_params(a: int, b: int, N: int, U) -> AltParams:
    """Derive the shifted parameters for integer Christoffel points.

    Needs 1 <= b <= a <= N.  Every u must be an integer hitting a
    removable support point (the index -1 and the deep-reflected
    representatives are rejected: the merged index set must consist of
    positive integers).
    """
    if not 1 <= b <= a <= N:
        raise ValueError("the shifted parameters need 1 <= b <= a <= N")
    U = check_pair_condition(a, b, U)
    for u in U:
        if u.denominator != 1:
            raise ValueError(f"point {u} is not an integer")
    U = [int(u) for u in U]
    allowed = set(range(-a - b + 1, -a)) | set(range(-b, -1)) | set(range(0, N + 1))
    for u in U:
        if u not in allowed:
            raise ValueError(f"point index {u} outside the removable range")
    t = max(-1, max(U, default=-1)) + 1
    merged = IndexSet.of(list(range(a, a + b)) + [a + b + u for u in U])
    return AltParams(
        a_alt=a + t,
        b_alt=b + t,
        N_alt=N - t,
        s_shift=lambda_map(a, b, t),
        F_merged=merged,
        G_rows=involution(merged),
    )


def determinant_sizes(a: int, b: int, N: int, U) -> tuple:
    """Sizes of the three determinant representations for the same family."""
    alt = alt_params(a, b, N, U)
    return (a + len(U) + 1, alt.n_rows + 1, b + len(U) + 1)


def shifted_params(a: int, b: int, N: int, U) -> AltParams:
    """``alt_params`` for the shifted lattice, where each merged index
    must be distinct: a point that repeats or lies in -b..-2 (on the
    parameter block) is rejected."""
    alt = alt_params(a, b, N, U)
    if len(alt.F_merged) != b + len(U):
        raise ValueError(
            "the shifted representation needs distinct merged indices: "
            "a point repeats or lies in -b..-2"
        )
    return alt


def construct_shifted(params: NuParams, U, n_max=None) -> Family:
    """Second representation: shifted parameters and translated argument.

    Valid for integer Christoffel points only, each merged index distinct:
    a repeated point, or one in -b..-2 (which lands on the parameter
    block), is rejected.  Orthogonal with respect to the same transformed
    measure as the direct representation.
    """
    a, b, N, free = _standard_params(params)
    alt = shifted_params(a, b, N, U)
    aU, bU, NU = alt.a_alt, alt.b_alt, alt.N_alt
    rows = list(alt.G_rows)
    n_g = len(rows)
    n_u = len(U)
    wfam = w_family(aU, bU, NU, free, rows=rows)
    # R(k) is the dual Hahn polynomial in the translated argument x - s_shift
    R = _cached_dual_hahn(aU, bU, NU, -alt.s_shift)
    measure = nu_u_transform(params, U).measure

    def column(n, c):
        return [wfam[g](Fraction(c - n - 1)) for g in rows]

    def top(n):
        return [
            R(n - c)
            * (Fraction((-1) ** c) / pochhammer(Fraction(b + N - n + c + 1), n_g - c))
            for c in range(n_g + 1)
        ]

    def norm(n, phi, phi1):
        return (
            phi
            * phi1
            * factorial(n + n_u)
            * Fraction(factorial(N + b)) ** 2
            * factorial(N + b - n)
            / (
                factorial(n)
                * factorial(N + a - n - n_u)
                * Fraction(factorial(N + b - n + n_g)) ** 2
            )
        )

    polys, phis, norms = _determinantal_family(
        measure,
        n_max,
        k=n_g,
        column=column,
        top=top,
        lead_col=0,
        divisor=Polynomial.one(),
        lead=lambda n, phi: phi / (pochhammer(Fraction(b + N - n + 1), n_g) * factorial(n)),
        norm=norm,
    )
    U = tuple(Fraction(u) for u in U)
    return Family("shifted", params, U, tuple(rows), polys, phis, norms, measure)


def construct_mirror(params: NuParams, U=(), n_max=None) -> Family:
    """Third representation: parameter-inverted auxiliary rows.

    The auxiliary family takes the inverted free parameters and a negative
    N slot, evaluated on the reflected side; the polynomial row holds dual
    Hahn polynomials with a and b exchanged.
    """
    a, b, N, free = _standard_params(params)
    U = check_pair_condition(a, b, U)
    n_u = len(U)
    rows = range(a, a + b)
    inv_free = tuple(1 / m for m in free)
    wmir = w_family(a, b, -2 - N - a - b, inv_free, rows=rows)
    R = _cached_dual_hahn(b, a, N)
    u_points = [lambda_map(a, b, u) for u in U]
    measure = nu_u_transform(params, U).measure if U else nu_basic(params)

    def column(n, c):
        return [
            pochhammer(Fraction(-N - a - b), n + c)
            * wmir[f](Fraction(N + a + b - n - c))
            for f in rows
        ] + [R(n - b + c)(pt) for pt in u_points]

    def top(n):
        return [R(n - b + c) for c in range(b + n_u + 1)]

    def norm(n, phi, phi1):
        return (
            factorial(n)
            * pochhammer(Fraction(-N - a - b), n) ** 2
            * pochhammer(Fraction(N + b + 1 - n), a)
            * phi
            * phi1
            / (
                Fraction((-1) ** (n_u + b))
                * factorial(n + n_u)
                * pochhammer(Fraction(N + b + 1), a) ** 2
            )
        )

    polys, phis, norms = _determinantal_family(
        measure,
        n_max,
        k=b + n_u,
        column=column,
        top=top,
        lead_col=b + n_u,
        divisor=Polynomial.from_roots(u_points),
        lead=lambda n, phi: Fraction((-1) ** (b + n_u)) * phi / factorial(n + n_u),
        norm=norm,
    )
    return Family("mirror", params, U, tuple(rows), polys, phis, norms, measure)


def recurrence_coeffs(fam: Family, n: int):
    """Closed-form lower and upper recurrence coefficients plus the exact
    diagonal one.

    The three-term recurrence for the direct representation reads
    x q_n = a_{n+1} q_{n+1} + b_n q_n + c_n q_{n-1}; a_n and c_n come from
    the stated minor ratios, b_n from the exact inner products (the stated
    closed form for b_n involves an undefined symbol and is not used).
    """
    if fam.representation != "direct":
        raise ValueError("recurrence coefficients apply to the direct representation")
    a, b, N = fam.params.a, fam.params.b, fam.params.N
    n_u = len(fam.U)
    if not (0 <= n <= fam.n_max and fam.phis[n] and fam.phis[n + 1]):
        raise ValueError("recurrence needs nonvanishing neighboring minors")
    a_n = (n + n_u) * fam.phis[n - 1] / fam.phis[n] if n >= 1 else None
    c_n = (
        n
        * (a + N - n + 1)
        * (a + b + N - n + 1)
        * Fraction(a + b + N - n, a + b + N - n + 1) ** a
        * fam.phis[n + 1]
        / fam.phis[n]
    )
    q_n = fam.polys[n]
    norm_n = inner_product(q_n, q_n, fam.measure)
    b_n = inner_product(Polynomial((0, 1)) * q_n, q_n, fam.measure) / norm_n
    return a_n, b_n, c_n
