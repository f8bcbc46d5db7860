"""Auxiliary polynomials of the determinantal construction.

The degree-g polynomials built here replace the rows of Hahn polynomials
with negative integer parameters that would otherwise collapse (to lower
degree, to a proportional row, or to zero) in the determinants.  There are
three regimes for the row index g:

* below the collapse window the plain Hahn polynomial h_g^{-a,-b,-2-N} is
  kept;
* in the window where two rows would become proportional, the polynomial
  is the exact s-derivative at 0 of a normalized deformed series, equal to
  a one-sided deformation limit;
* in the window where the row would vanish identically, the polynomial is
  the exact limit (1/s) of the doubly deformed Hahn polynomial, scaled by
  M/(M-1); only these rows carry the continuous parameters.

The standard orientation builds both windows from their closed forms
over the rationals (w_mid_explicit, w_param_explicit); the limits and the
series are the references that the limit suite and the tests compare
them with.  The flipped orientation is built from its deformation limits,
and the flip suite checks its symmetry with the standard rows.

The module also builds the anchor polynomials whose roots are (negatives
or shifts of) the eigenvalues at the row indices, their deflations at
double roots, and the normalized row-functional tables used by the moment
identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil, comb, factorial

from .exact import (
    Polynomial,
    RationalFunction,
    as_scalar,
    limit_at_zero,
    pochhammer,
    residue_inv,
)
from .classical import hahn_poly, lambda_map, phi_pair

# Entries kept by each of the row and functional-context caches.  Every
# key holds the free parameters, so a caller that keeps drawing new ones
# would otherwise grow them without limit; 128 keeps a repeated working
# set of a few configurations (verify-grid's five use 48 rows and 5
# contexts) resident.
CACHE_SIZE = 128


def mid_range(a: int, b: int) -> range:
    """Row indices whose Hahn rows become pairwise proportional."""
    if b <= a:
        return range(ceil((a + b) / 2), a)
    return range(ceil((a + b) / 2), b)


def param_range(a: int, b: int) -> range:
    """Row indices whose Hahn rows vanish; these carry the parameters."""
    if b <= a:
        return range(a, a + b)
    return range(b, a + b)


def row_range(a: int, b: int) -> range:
    """All row indices of the basic determinants for either orientation."""
    return range(min(a, b), a + b)


def _limit_coeffs_over_s(poly: Polynomial) -> Polynomial:
    """Exact limit at s = 0 of poly/s, coefficient-wise.

    The input must vanish at s = 0; a pole means the deformation direction
    is wrong and is reported as a hard error.
    """
    s = RationalFunction.var()
    out = []
    for c in poly.coeffs:
        c = RationalFunction._coerce(c)
        out.append(limit_at_zero(c / s))
    return Polynomial(out)


def w_param_limit(g: int, a: int, b: int, N, Mg: Fraction) -> Polynomial:
    """Parameter-carrying row polynomial as an exact deformation limit.

    Both parameters move at once (a by -s/M, b by +s); the limit of the
    deformed Hahn polynomial over s, scaled by M/(M-1), has degree g.
    It also serves the flipped orientation: deforming the other way (a by
    +s/M, b by -s) and scaling by M/(1-M) is the substitution s -> -s,
    which gives the same limit.
    """
    N = as_scalar(N)
    s = RationalFunction.var()
    h = hahn_poly(g, -a + s / Mg, -b - s, -2 - N)
    return _limit_coeffs_over_s(h) * (Mg / (Mg - 1))


def w_param_explicit(g: int, a: int, b: int, N, Mg: Fraction) -> Polynomial:
    """Closed form of the parameter-carrying row polynomial.

    Combination of a truncated factorial times a shifted Hahn polynomial
    of degree g-a and a complementary Hahn polynomial weighted by
    1/(M-1); agrees with w_param_limit identically.
    """
    N = as_scalar(N)
    negx_a = _neg_falling(a)
    term1 = negx_a * hahn_poly(g - a, Fraction(a), Fraction(-b), -2 - N - a).shift_argument(
        Fraction(-a)
    ) * factorial(b + a - g - 1)
    term2 = hahn_poly(a + b - g - 1, Fraction(-a), Fraction(-b), -2 - N) * (
        factorial(g - a) * pochhammer(N + a + b + 1 - g, 2 * g - a - b + 1) / (Mg - 1)
    )
    return (term1 + term2) * (Fraction((-1) ** (b + g)) * factorial(g - b))


def w_mid_series(g: int, a: int, b: int, N) -> Polynomial:
    """Proportional-window row polynomial via series derivatives at s = 0."""
    N = as_scalar(N)
    _, d1 = phi_pair(g, Fraction(a), Fraction(b), -2 - N)
    _, d2 = phi_pair(a + b - g - 1, Fraction(a), Fraction(b), -2 - N)
    return d1 - d2


def w_mid_limit(g: int, a: int, b: int, N, anchor=Fraction(0)) -> Polynomial:
    """Proportional-window row polynomial as a one-sided deformation limit.

    Only a moves (by +s); the proportional partner row is subtracted with
    the ratio of values at ``anchor`` before dividing by s.  The standard
    orientation anchors at 0; the flipped one at -2-N, which is what makes
    the orientation symmetry exact.
    """
    N = as_scalar(N)
    s = RationalFunction.var()
    gp = a + b - g - 1
    hg = hahn_poly(g, -a - s, Fraction(-b), -2 - N)
    hgp = hahn_poly(gp, -a - s, Fraction(-b), -2 - N)
    ratio = RationalFunction._coerce(hg(anchor)) / RationalFunction._coerce(hgp(anchor))
    return _limit_coeffs_over_s(hg - hgp * ratio)


def w_mid_explicit(g: int, a: int, b: int, N) -> Polynomial:
    """Closed-form double sum for the proportional-window polynomial.

    High-order part: falling factorial of order a+b-g times a terminating
    sum; low-order part: Hahn-type terms weighted by partial-fraction
    sums.  Agrees with w_mid_series and w_mid_limit identically.
    """
    N = as_scalar(N)
    k = a + b - g
    m = 2 * g - a - b
    high = Polynomial.zero()
    for j in range(m + 1):
        shifted = Polynomial.one()
        for i in range(j):
            shifted = shifted * Polynomial((k + i, -1))
        num = (
            pochhammer(j + 2 + N + k, m - j)
            * pochhammer(Fraction(j + b - g + 1), m - j)
            * pochhammer(Fraction(-m), j)
        )
        high = high + shifted * (num / (k * comb(j + k, j)))
    high = _neg_falling(k) * high * (pochhammer(Fraction(-g), k) * Fraction((-1) ** k))
    low = Polynomial.zero()
    for j in range(k):
        num = (
            pochhammer(j + 2 + N, g - j)
            * pochhammer(Fraction(-a + j + 1), g - j)
            * pochhammer(Fraction(-g), j)
            * pochhammer(Fraction(g - a - b + 1), j)
        )
        weight = sum(
            (Fraction(m + 1, (-g + i) * (g - a - b + 1 + i)) for i in range(j)),
            Fraction(0),
        )
        low = low + _neg_falling(j) * (num / factorial(j)) * weight
    return high + low


def _neg_falling(j: int) -> Polynomial:
    """(-x)_j as a polynomial in x."""
    p = Polynomial.one()
    for i in range(j):
        p = p * Polynomial((i, -1))
    return p


def w_poly(g: int, a: int, b: int, N, free, orientation: str = "standard") -> Polynomial:
    """The degree-g auxiliary row polynomial.

    ``free`` is the tuple of continuous parameters (length min(a, b));
    only indices in param_range use them.  N may be any rational: the
    mirrored determinant representation passes a negative value here.
    Results are cached, at most CACHE_SIZE of them (everything is
    immutable).
    """
    return _w_poly_cached(g, a, b, as_scalar(N), tuple(as_scalar(m) for m in free), orientation)


@lru_cache(maxsize=CACHE_SIZE)
def _w_poly_cached(g: int, a: int, b: int, N, free, orientation: str) -> Polynomial:
    if g < 0:
        raise ValueError("row index must be nonnegative")
    if orientation == "standard":
        if b > a:
            raise ValueError("standard orientation needs b <= a")
        if g in param_range(a, b):
            return w_param_explicit(g, a, b, N, as_scalar(free[g - a]))
        if g in mid_range(a, b):
            return w_mid_explicit(g, a, b, N)
        return hahn_poly(g, Fraction(-a), Fraction(-b), -2 - N)
    if orientation == "flipped":
        if a > b:
            raise ValueError("flipped orientation needs a <= b")
        if g in param_range(a, b):
            return w_param_limit(g, a, b, N, as_scalar(free[g - b]))
        if g in mid_range(a, b):
            return w_mid_limit(g, a, b, N, anchor=-2 - N)
        return hahn_poly(g, Fraction(-a), Fraction(-b), -2 - N)
    raise ValueError(f"unknown orientation {orientation!r}")


@dataclass(frozen=True)
class WFamily:
    """Bundle of auxiliary row polynomials indexed by g.

    ``polys`` maps every needed row index to its polynomial; only the
    indices in param_range depend on the free parameters.
    """

    a: int
    b: int
    N: object
    free: tuple
    orientation: str
    polys: dict

    def __getitem__(self, g: int) -> Polynomial:
        return self.polys[g]


def w_family(a: int, b: int, N, free, orientation: str = "standard", rows=None) -> WFamily:
    """Construct the auxiliary family over the basic row indices.

    ``rows`` can extend or restrict the index set (the transformed
    determinants need rows outside the contiguous basic range).
    """
    indices = list(rows) if rows is not None else list(row_range(a, b))
    polys = {g: w_poly(g, a, b, N, free, orientation) for g in indices}
    return WFamily(a, b, as_scalar(N), tuple(as_scalar(m) for m in free), orientation, polys)


def eigen_defect_scale(g: int, a: int, b: int, N) -> Fraction:
    """Constant in front of the extra term of the second order eigen
    relation on the proportional window: applying the auxiliary operator
    to the reflected row polynomial produces the eigenvalue multiple plus
    this constant times the complementary Hahn row."""
    N = as_scalar(N)
    return (
        (a + b - 2 * g - 1)
        * pochhammer(Fraction(b - g), 2 * g - a - b + 1)
        * pochhammer(N + a + b - g + 1, 2 * g - a - b + 1)
    )


def anchor_poly(a2, b2, rows) -> Polynomial:
    """Product of (x + point(-g-1)) over the row indices g.

    Its roots are the negatives of the eigenvalues attached to the rows;
    rows paired by the lattice reflection produce double roots.
    """
    a2, b2 = as_scalar(a2), as_scalar(b2)
    return Polynomial.from_roots([-lambda_map(a2, b2, -g - 1) for g in rows])


def anchor_deflations(a2: int, b2: int, rows, anchor: Polynomial) -> dict:
    """Deflated anchor polynomials at the double roots.

    For i in the doubled window (both i and its reflection partner are
    rows) the deflation is (2i+1-a2-b2) anchor / (x + point(-i-1))^2; the
    self-paired middle index (odd a2+b2) has a simple root and is skipped.
    """
    out = {}
    for i in rows:
        partner = a2 + b2 - 1 - i
        if partner == i or partner not in rows:
            continue
        root = -lambda_map(a2, b2, -i - 1)
        square = Polynomial.from_roots([root, root])
        out[i] = anchor.divexact(square) * Fraction(2 * i + 1 - a2 - b2)
    return out


def pairing_condition_set(a2: int, b2: int, rows) -> set:
    """Row indices whose deflations enter the functionals with the
    derivative correction: the lower half of each doubled pair, excluding
    the self-paired middle index when a2+b2 is odd."""
    half = ceil((a2 + b2) / 2)
    out = set()
    for i in rows:
        if i <= half - 2 or (i == half - 1 and (a2 + b2) % 2 == 0):
            if (a2 + b2 - 1 - i) in rows:
                out.add(i)
    return out


def mirror_anchor_poly(a: int, b: int) -> Polynomial:
    """Anchor for the mirrored representation: product over the parameter
    rows f of (x - a - b - point(-f-1)); all roots are simple."""
    return Polynomial.from_roots(
        [a + b + lambda_map(a, b, -f - 1) for f in range(a, a + b)]
    )


def u_correction(i: int, r: Polynomial, a2, b2, deflations: dict, cond_set) -> Fraction:
    """Derivative correction entering the doubled-row functionals.

    Zero unless i is in the pairing condition set; otherwise the argument
    polynomial's derivative at the eigenvalue times the deflation ratio.
    """
    if i not in cond_set:
        return Fraction(0)
    ev = lambda_map(a2, b2, -i - 1)
    root = -ev
    di = deflations[i]
    return r.derivative()(ev) * di(root) / di.derivative()(root)


@dataclass(frozen=True)
class PsiContext:
    """Normalized row functionals used by the moment identities.

    ``value_power(g, m)`` is the functional of row g on the monomial x^m.
    Three regimes: doubled lower rows take the derivative correction and
    the residue of 1/anchor; the proportional window divides by the
    deflation and the Hahn value at 0; every other row uses the residue
    and the row polynomial's value at 0.  Each row's constants are
    computed once, when the context is built: the lattice eigenvalue ev,
    the derivative correction's deflation ratio (0 off the pairing
    condition set) and the normalizing scale, so that the functional of
    x^m is (ev^m + m ev^(m-1) ratio) scale.
    """

    a2: int
    b2: int
    N2: object
    wfam: WFamily
    anchor: Polynomial
    deflations: dict
    cond: frozenset
    row_constants: dict

    @classmethod
    def build(cls, a2: int, b2: int, N2, free, rows=None) -> "PsiContext":
        rows = tuple(rows) if rows is not None else tuple(row_range(a2, b2))
        return _psi_context_cached(
            cls, a2, b2, as_scalar(N2), tuple(as_scalar(m) for m in free), rows
        )

    def value_power(self, g: int, m: int) -> Fraction:
        ev, ratio, scale = self.row_constants[g]
        return (ev**m + m * ev ** (m - 1) * ratio) * scale


@lru_cache(maxsize=CACHE_SIZE)
def _psi_context_cached(cls, a2, b2, N2, free, rows) -> "PsiContext":
    wfam = w_family(a2, b2, N2, free, rows=rows)
    anchor = anchor_poly(a2, b2, rows)
    defl = anchor_deflations(a2, b2, rows, anchor)
    cond = frozenset(pairing_condition_set(a2, b2, rows))
    linear = Polynomial.x()
    constants = {}
    for g in rows:
        ev = lambda_map(a2, b2, -g - 1)
        root = -ev
        if g in mid_range(a2, b2):
            h0 = hahn_poly(g, Fraction(-a2), Fraction(-b2), -2 - N2)(Fraction(0))
            constants[g] = (ev, Fraction(0), 1 / (defl[g](root) * h0))
        else:
            # the correction of the argument x is the ratio itself
            ratio = u_correction(g, linear, a2, b2, defl, cond)
            constants[g] = (ev, ratio, residue_inv(anchor, root) / wfam[g](Fraction(0)))
    return cls(a2, b2, N2, wfam, anchor, defl, cond, constants)


def psi_plain(g: int, m: int, a2, b2, N, anchor: Polynomial) -> Fraction:
    """Row functional for generic parameters (all anchor roots simple)."""
    ev = lambda_map(a2, b2, -g - 1)
    root = -ev
    h0 = hahn_poly(g, -as_scalar(a2), -as_scalar(b2), -2 - as_scalar(N))(Fraction(0))
    return ev**m / (anchor.derivative()(root) * h0)


def psi_mirror(f: int, m: int, a: int, b: int, N, w_mirror: WFamily) -> Fraction:
    """Row functional of the mirrored representation.

    The anchor roots are shifted by a+b instead of negated, and the
    normalization evaluates the mirrored row polynomial at a+N+1.
    """
    q = a + b + lambda_map(a, b, -f - 1)
    anchor = mirror_anchor_poly(a, b)
    return q**m / (anchor.derivative()(q) * w_mirror[f](Fraction(a + N + 1)))
