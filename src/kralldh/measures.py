"""Discrete measures on the quadratic lattice and their transforms.

A measure is a finite list of atoms (index, point, mass) with the point
always equal to the lattice map of the index.  Masses may be Fractions or
rational functions of the deformation variable s; the latter appear while
taking exact s -> 0 limits.  Zero-mass atoms produced by a Christoffel
factor are dropped eagerly so that support counts match the conventions
used by the determinantal constructions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from typing import NamedTuple

from .exact import IndexSet, Polynomial, as_scalar, binomial_rational, pochhammer
from .classical import lambda_map


class MeasureUndefinedError(ValueError):
    """A mass formula hit a vanishing denominator."""


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finite discrete measure on the quadratic lattice of (a, b).

    Atoms are (index, point, mass) triples with strictly increasing indices
    and point = index (index + a + b + 1).
    """

    a: object
    b: object
    atoms: tuple

    @classmethod
    def from_masses(cls, a, b, indexed_masses) -> "DiscreteMeasure":
        """Build from (index, mass) pairs; points are derived from indices."""
        a, b = as_scalar(a), as_scalar(b)
        atoms = tuple(
            (int(i), lambda_map(a, b, i), m)
            for i, m in sorted(indexed_masses, key=lambda im: im[0])
        )
        return cls(a, b, atoms)

    @property
    def indices(self):
        return tuple(i for i, _, _ in self.atoms)

    @property
    def points(self):
        return tuple(p for _, p, _ in self.atoms)

    def mass_at_index(self, i: int):
        for j, _, m in self.atoms:
            if j == i:
                return m
        return Fraction(0)

    def total_mass(self):
        total = Fraction(0)
        for _, _, m in self.atoms:
            total = total + m
        return total

    def drop_zero_masses(self) -> "DiscreteMeasure":
        return DiscreteMeasure(self.a, self.b, tuple(t for t in self.atoms if t[2]))

    def scaled(self, c) -> "DiscreteMeasure":
        return DiscreteMeasure(
            self.a, self.b, tuple((i, p, m * c) for i, p, m in self.atoms)
        )


def translate_measure(measure: DiscreteMeasure, u: int) -> DiscreteMeasure:
    """Shift every atom u steps down in index, on the same lattice map."""
    return DiscreteMeasure.from_masses(
        measure.a, measure.b, [(i - u, m) for i, _, m in measure.atoms]
    )


def christoffel_measure(measure: DiscreteMeasure, r: Polynomial) -> DiscreteMeasure:
    """Multiply the measure by the polynomial r of the point variable.

    Atoms whose new mass is exactly zero are removed.
    """
    atoms = []
    for i, p, m in measure.atoms:
        scaled = r(p) * m
        if scaled:
            atoms.append((i, p, scaled))
    return DiscreteMeasure(measure.a, measure.b, tuple(atoms))


def inner_product(p: Polynomial, q: Polynomial, measure: DiscreteMeasure):
    """Exact integral of p*q against the measure."""
    total = Fraction(0)
    for _, point, mass in measure.atoms:
        total = total + p(point) * q(point) * mass
    return total


def dual_hahn_mass(a, b, N: int, x: int):
    """Mass of the dual Hahn measure at lattice index x, 0 <= x <= N.

    Parameters may be deformed (rational functions in s); N must be a
    nonnegative integer.  Raises MeasureUndefinedError when a denominator
    Pochhammer vanishes, i.e. when the parameters sit in the forbidden
    negative-integer ranges.
    """
    a, b = as_scalar(a), as_scalar(b)
    den = pochhammer(x + a + b + 1, N + 1) * pochhammer(b + 1, x)
    if not den:
        raise MeasureUndefinedError(
            f"dual Hahn mass undefined at x={x} (vanishing denominator)"
        )
    num = (
        (2 * x + a + b + 1)
        * pochhammer(a + 1, x)
        * pochhammer(-N, x)
        * Fraction((-1) ** x * factorial(N), factorial(x))
    )
    return num / den


def dual_hahn_measure(a, b, N: int) -> DiscreteMeasure:
    """The finite dual Hahn measure with N + 1 atoms."""
    if N < 0:
        raise ValueError("N must be a nonnegative integer")
    return DiscreteMeasure.from_masses(
        a, b, [(x, dual_hahn_mass(a, b, N, x)) for x in range(N + 1)]
    )


def dual_hahn_norm(n: int, a, b, N: int):
    """Squared norm of the degree-n dual Hahn polynomial, 0 <= n <= N.

    Binomials with rational parameters are Pochhammer ratios, so the value
    is exact for any rational a, b.
    """
    if not 0 <= n <= N:
        raise ValueError("norm index outside 0..N")
    a, b = as_scalar(a), as_scalar(b)
    binom_top = binomial_rational(a + n, n)
    binom_bot = binomial_rational(b + N - n, N - n)
    if not binom_bot:
        raise MeasureUndefinedError("norm denominator binomial vanishes")
    return pochhammer(-N, n) ** 2 * binom_top / binom_bot


@dataclass(frozen=True)
class NuParams:
    """Parameters of the Geronimus-transformed basic measure.

    Requires positive integers with min(a, b) <= max(a, b) <= N.  The free
    parameter list has length min(a, b) and none of its entries may be 0
    or 1.  Orientation "standard" means b <= a; "flipped" means a <= b.
    """

    a: int
    b: int
    N: int
    free: tuple = field(default=())

    def __post_init__(self):
        a, b, N = self.a, self.b, self.N
        if not (isinstance(a, int) and isinstance(b, int) and isinstance(N, int)):
            raise ValueError("a, b, N must be integers")
        if not (1 <= min(a, b) and max(a, b) <= N):
            raise ValueError("need 1 <= min(a,b) and max(a,b) <= N")
        free = tuple(as_scalar(m) for m in self.free)
        if len(free) != min(a, b):
            raise ValueError(f"need {min(a, b)} free parameters, got {len(free)}")
        if any(m == 0 or m == 1 for m in free):
            raise ValueError("free parameters must avoid 0 and 1")
        object.__setattr__(self, "free", free)

    @property
    def orientation(self) -> str:
        return "standard" if self.b <= self.a else "flipped"


def nu_basic(params: NuParams) -> DiscreteMeasure:
    """The basic Geronimus-transformed measure.

    min(a,b) negative-index atoms carry the free parameters; the
    nonnegative atoms are dual Hahn masses (with a and b exchanged)
    divided by the Geronimus factor.  Positive iff every free parameter
    is positive.
    """
    a, b, N, free = params.a, params.b, params.N, params.free
    lo = -min(a, b)
    masses = []
    for x in range(lo, 0):
        num = (2 * x + a + b + 1) * pochhammer(Fraction(N + 1 - x), x + b)
        den = pochhammer(Fraction(N + b + 1), x + a + 1)
        masses.append((x, free[x - lo] * num / den))
    scale = pochhammer(Fraction(N + 1), b) ** 2 / pochhammer(Fraction(b + 1), a - b)
    for x in range(N + 1):
        geron = Fraction(1)
        for i in range(b):
            geron *= (x + a + i + 1) * (x + b - i)
        masses.append((x, scale * dual_hahn_mass(b, a, N, x) / geron))
    return DiscreteMeasure.from_masses(a, b, masses)


def geronimus_factor(params: NuParams) -> Polynomial:
    """The polynomial (in the point variable) that undoes the transform:
    its Christoffel action on the basic measure returns a scaled dual Hahn
    measure with parameters exchanged."""
    a, b = params.a, params.b
    lo = min(a, b)
    return Polynomial.from_roots(
        [lambda_map(a, b, i - lo) for i in range(lo)]
    )


def check_pair_condition(a: int, b: int, U) -> tuple:
    """The points of U as exact scalars, after checking that none of them
    repeats and that no two of them (or one taken twice) sum to -a-b-1:
    their Christoffel factors would share a root, squaring it."""
    U = tuple(as_scalar(u) for u in U)
    for i, u in enumerate(U):
        if u in U[:i]:
            raise ValueError(f"repeated point u = {u}")
    for u in U:
        for v in U:
            if u + v == -a - b - 1:
                raise ValueError(f"root doubling: ({u}) + ({v}) = -a-b-1")
    return U


class NuU(NamedTuple):
    measure: DiscreteMeasure
    n_support: int
    n_minus: int


def killed_region(a: int, b: int):
    """Integer u values whose Christoffel factor annihilates a
    free-parameter atom of the basic measure.

    These are the parameter-atom indices -b..-1 themselves plus their
    lattice reflections -a-b..-a-1 (the reflection of -1, namely -a-b,
    annihilates that atom too and is counted here, so that the number of
    surviving continuous parameters is always min(a,b) minus this count).
    """
    return set(range(-a - b, -a)) | set(range(-b, 0))


def nu_u_transform(params: NuParams, U) -> NuU:
    """Christoffel transform of the basic measure by the points of U.

    U is a finite set of rationals; no two entries may sum to -a-b-1
    (that would square a root).  Returns the transformed measure together
    with its support count and the number of annihilated free-parameter
    atoms.
    """
    if params.orientation != "standard":
        raise ValueError("transforms are defined on the standard orientation")
    a, b = params.a, params.b
    U = check_pair_condition(a, b, U)
    base = nu_basic(params)
    factor = Polynomial.from_roots([lambda_map(a, b, u) for u in U])
    out = christoffel_measure(base, factor)
    if not out.atoms:
        raise ValueError("transform annihilated the whole measure")
    killed = killed_region(a, b)
    n_minus = sum(1 for u in U if u.denominator == 1 and int(u) in killed)
    return NuU(out, len(out.atoms), n_minus)


def hatted_params(a, b, N: int, F: IndexSet):
    """Shift parameters by max F + 1: the Christoffel transform below is
    built on the dual Hahn measure with these hatted parameters."""
    t = F.max + 1
    return as_scalar(a) - t, as_scalar(b) - t, N + t


def rho_transformed(a, b, N: int, F: IndexSet) -> DiscreteMeasure:
    """Christoffel-then-translate transform of the hatted dual Hahn measure.

    The atoms live at indices -(max F + 1) .. N of the (a, b) lattice; the
    mass at index x is the hatted dual Hahn mass at x + max F + 1 times the
    Christoffel factor, which by the lattice shift identity equals the
    product of (point(x) - point(f - max F - 1)) over f in F.  Parameters
    may be deformed; the empty F gives back the plain dual Hahn measure.
    """
    ah, bh, Nh = hatted_params(a, b, N, F)
    t = F.max + 1
    a, b = as_scalar(a), as_scalar(b)
    masses = []
    for x in range(-t, N + 1):
        base = dual_hahn_mass(ah, bh, Nh, x + t)
        fac = Fraction(1)
        for f in F:
            fac = fac * (lambda_map(a, b, x) - lambda_map(a, b, f - t))
        masses.append((x, fac * base))
    return DiscreteMeasure.from_masses(a, b, masses).drop_zero_masses()
