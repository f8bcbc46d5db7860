"""Exact scalar, polynomial and rational-function primitives.

Every quantity in this package is an exact rational number
(``fractions.Fraction``), a dense univariate polynomial over such numbers,
or a rational function of the deformation variable ``s``.  There is no
floating point anywhere; equality always means exact equality.

Representation conventions:

* rationals are ``fractions.Fraction`` (always reduced, denominator > 0);
* a polynomial is a tuple of coefficients in ascending degree with no
  trailing zeros, the zero polynomial being the empty tuple;
* a rational function is an unreduced quotient ``num/den`` of polynomials
  in ``s``; equality cross-multiplies, and an s -> 0 limit compares the
  orders to which num and den vanish at 0, so no gcd is ever taken.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, lcm, prod
from operator import mul

Rational = Fraction


class ExactError(Exception):
    """Base class for failures of the exactness contract."""


class PoleAtZeroError(ExactError):
    """A rational function in s was evaluated (or limited) at a pole."""


class InexactDivisionError(ExactError):
    """A division that must be exact left a nonzero remainder."""


def as_scalar(value):
    """Coerce ints, strings and Fractions to an exact scalar.

    Fractions and RationalFunctions pass through unchanged.  Floats are
    rejected: they have no place in an exact computation.
    """
    if isinstance(value, (Fraction, RationalFunction)):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return scalar_from_str(value)
    raise TypeError(f"not an exact scalar: {value!r}")


def scalar_from_str(text: str) -> Fraction:
    """Parse "p/q" or a plain integer literal into a Fraction."""
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"{text.strip()!r} has a zero denominator") from None


def scalar_to_str(value) -> str:
    """Serialize a Fraction as "p/q" (integers are emitted as "p/1")."""
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def pochhammer(x, m: int):
    """Rising factorial (x)_m = x (x+1) ... (x+m-1), with (x)_0 = 1.

    Negative m uses the standard extension (x)_{-k} = 1/(x-k)_k, which
    keeps (x)_{m+n} = (x)_m (x+m)_n valid whenever no factor vanishes.
    Works for any scalar x, including rational functions in s.
    """
    if m < 0:
        return Fraction(1) / pochhammer(x + m, -m)
    acc = Fraction(1)
    for i in range(m):
        acc = acc * (x + i)
    return acc


def pochhammer_pair(x, y, m: int):
    """The paired rising factorial (x, y)_m = (x)_m (y)_m."""
    return pochhammer(x, m) * pochhammer(y, m)


def binomial_rational(z, k: int) -> Fraction:
    """Binomial coefficient C(z, k) for rational z and integer k >= 0."""
    if k < 0:
        raise ValueError("binomial lower index must be nonnegative")
    return pochhammer(z - k + 1, k) / factorial(k)


class Polynomial:
    """Dense univariate polynomial with exact coefficients.

    Coefficients live in any exact field (Fraction, or RationalFunction in
    s); mixed arithmetic coerces upward.  Immutable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        exact = (Fraction, RationalFunction)
        cs = [c if isinstance(c, exact) else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    @classmethod
    def x(cls) -> "Polynomial":
        return cls((0, 1))

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls((c,))

    @classmethod
    def monomial(cls, power: int, coeff=1) -> "Polynomial":
        return cls((0,) * power + (coeff,))

    @classmethod
    def from_roots(cls, roots) -> "Polynomial":
        """Monic product prod (x - r) over the given roots."""
        acc = cls.one()
        for r in roots:
            acc = acc * cls((-as_scalar(r), 1))
        return acc

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction, RationalFunction)):
            return self == Polynomial((other,))
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            tuple(self.coefficient(i) + other.coefficient(i) for i in range(n))
        )

    __radd__ = __add__

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction, RationalFunction)):
            return Polynomial(tuple(c * other for c in self.coeffs))
        if not isinstance(other, Polynomial):
            return NotImplemented
        return poly_dot((self,), (other,))

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Polynomial":
        if isinstance(scalar, (int, Fraction, RationalFunction)):
            return Polynomial(tuple(c / scalar for c in self.coeffs))
        return NotImplemented

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        acc, base = Polynomial.one(), self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    @staticmethod
    def _coerce(other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction, RationalFunction)):
            return Polynomial((other,))
        return NotImplemented

    def __call__(self, point):
        """Exact evaluation by Horner's rule."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def derivative(self) -> "Polynomial":
        return Polynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def compose(self, inner: "Polynomial") -> "Polynomial":
        """Exact composition self(inner(x))."""
        acc = Polynomial()
        for c in reversed(self.coeffs):
            acc = acc * inner + Polynomial((c,))
        return acc

    def shift_argument(self, c) -> "Polynomial":
        """Return p(x + c) by the Taylor shift: n(n+1)/2 steps of
        synthetic division, a[k] += c a[k+1], in place.

        Over the rationals it runs on integers.  With D the lcm of the
        coefficient denominators and c = u/v, B_k = D p_k v^(n-k) are
        integers, and p(x + c) = C(vx) / (D v^n) where C(y) = B(y + u).
        """
        a, n, c = list(self.coeffs), len(self.coeffs) - 1, as_scalar(c)
        rational = isinstance(c, Fraction) and not any(
            isinstance(x, RationalFunction) for x in a
        )
        if rational:
            a, d = _integer_row(a)
            c, v = c.numerator, c.denominator
            scales = [v ** (n - k) for k in range(n + 1)]
            a = [x * w for x, w in zip(a, scales)]
        for i in range(n):
            for k in range(n - 1, i - 1, -1):
                a[k] += c * a[k + 1]
        if rational:
            a = [Fraction(x, d * w) for x, w in zip(a, scales)]
        return Polynomial(a)

    def reflect_argument(self, c) -> "Polynomial":
        """Return p(c - x): p(x + c) with its odd coefficients negated."""
        shifted = self.shift_argument(c).coeffs
        return Polynomial([-x if k % 2 else x for k, x in enumerate(shifted)])

    def divmod(self, divisor: "Polynomial"):
        """Exact Euclidean division; returns (quotient, remainder)."""
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dcs = divisor.coeffs
        dn = len(dcs) - 1
        lead = dcs[-1]
        if len(rem) <= dn:
            return Polynomial(), self
        quot = [Fraction(0)] * (len(rem) - dn)
        for k in range(len(rem) - dn - 1, -1, -1):
            q = rem[k + dn] / lead
            quot[k] = q
            if q:
                for i, dc in enumerate(dcs):
                    rem[k + i] = rem[k + i] - q * dc
        return Polynomial(tuple(quot)), Polynomial(tuple(rem[:dn]))

    def divexact(self, divisor: "Polynomial") -> "Polynomial":
        """Division that must leave no remainder; anything else is a bug."""
        q, r = self.divmod(divisor)
        if not r.is_zero:
            raise InexactDivisionError(
                f"nonzero remainder of degree {r.degree} in exact division"
            )
        return q

    def monic(self) -> "Polynomial":
        if self.is_zero:
            return self
        return self / self.leading()

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"({c})*x")
            else:
                parts.append(f"({c})*x^{i}")
        return " + ".join(parts)


def poly_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Monic gcd of two polynomials over the rationals.

    The package itself keeps rational functions unreduced and calls no
    gcd; the tests reduce reference quotients with it.
    """
    a, b = p, q
    while not b.is_zero:
        a, b = b, a.divmod(b)[1]
    return a.monic() if not a.is_zero else a


class RationalFunction:
    """Quotient num/den of polynomials in the deformation variable s.

    The quotient is kept as built: nothing is cancelled, so one value has
    many representations.  Equality cross-multiplies, which makes a
    rational function unhashable.  Sums over one shared denominator add
    the numerators; every other operation cross-multiplies.
    """

    __slots__ = ("num", "den")
    __hash__ = None

    def __init__(self, num, den=None):
        num = Polynomial._coerce(num)
        den = Polynomial.one() if den is None else Polynomial._coerce(den)
        if num is NotImplemented or den is NotImplemented:
            raise TypeError("rational function parts must be polynomial-like")
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            den = Polynomial.one()
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def var(cls) -> "RationalFunction":
        """The deformation variable s itself."""
        return cls(Polynomial.x())

    @classmethod
    def _coerce(cls, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (int, Fraction)):
            return cls(Polynomial((other,)))
        if isinstance(other, Polynomial):
            return cls(other)
        return NotImplemented

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self) -> bool:
        return not self.num.is_zero

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            return RationalFunction(self.num + other.num, self.den)
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __call__(self, point) -> Fraction:
        """num(point) / den(point); a common root of num and den is
        reported as a pole, since nothing has been cancelled."""
        d = self.den(point)
        if not d:
            raise ZeroDivisionError(f"pole at s = {point}")
        return self.num(point) / d

    def derivative(self) -> "RationalFunction":
        return RationalFunction(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"

    def __str__(self):
        return f"({self.num})/({self.den})"


def limit_at_zero(f) -> Fraction:
    """Exact limit at s = 0 of a rational function of s.

    With s^k the lowest power of s in den, the common factor s^k is divided
    out of num and den; the limit is then num_k / den_k.  It is a pole
    exactly when num vanishes at 0 to a lower order than k.
    """
    if isinstance(f, (int, Fraction)):
        return Fraction(f)
    if not isinstance(f, RationalFunction):
        raise TypeError(f"cannot take an s-limit of {f!r}")
    k = next(i for i, c in enumerate(f.den.coeffs) if c)
    if any(f.num.coeffs[:k]):
        raise PoleAtZeroError("pole at s = 0")
    return f.num.coefficient(k) / f.den.coeffs[k]


def derivative_at_zero(f) -> Fraction:
    """d/ds at s = 0 for a rational function regular at 0."""
    if isinstance(f, (int, Fraction)):
        return Fraction(0)
    return limit_at_zero(f.derivative())


def det_exact(matrix) -> Fraction:
    """Exact determinant of a square matrix of ints and Fractions.

    Takes a list of rows and expands along the first one over the signed
    cofactors of the rows below it, from ``cofactor_row``.
    """
    n = len(matrix)
    if any(len(r) != n for r in matrix):
        raise ValueError("determinant of a non-square matrix")
    return sum(map(mul, matrix[0], cofactor_row(matrix[1:])), Fraction(0)) if n else Fraction(1)


def cofactor_row(rows) -> list:
    """The signed cofactors C_j = (-1)^j det(block without column j),
    j = 0..k, of a k x (k+1) block (an iterable of k rows of ints and
    Fractions).

    The rows are cleared of denominators and reduced by fraction-free
    Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968): each pivot
    row is subtracted from every other row, and every entry, a minor of
    the block, is divided exactly by the previous pivot.  At rank k one
    column f has no pivot; each pivot column then holds the last pivot,
    the minor without column f, and row i of column f that minor with
    column f in place of pivot column i (Cramer's rule).  The swap sign
    and the product of the row scales are applied once; below rank k
    every cofactor is 0.
    """
    cleared = [_integer_row(r) for r in rows]
    k = len(cleared)
    if any(len(r) != k + 1 for r, _ in cleared):
        raise ValueError("cofactors need a k x (k+1) block")
    m, scale = [r for r, _ in cleared], prod(d for _, d in cleared)
    sign, prev, pivots = 1, 1, []
    for c in range(k + 1):
        r = len(pivots)
        pivot_row = next((i for i in range(r, k) if m[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
            sign = -sign
        prow, pivot = m[r], m[r][c]
        for i, row in enumerate(m):
            if i != r:
                f = row[c]
                m[i] = [(v * pivot - f * w) // prev for v, w in zip(row, prow)]
        prev = pivot
        pivots.append(c)
    if len(pivots) < k:
        return [Fraction(0)] * (k + 1)
    free = next(c for c in range(k + 1) if c not in pivots)
    sign *= (-1) ** free
    pivot_of = dict(zip(pivots, m))
    return [
        Fraction(-sign * pivot_of[c][free] if c in pivot_of else sign * prev, scale)
        for c in range(k + 1)
    ]


def det_with_poly_row(top_row, numeric_rows) -> Polynomial:
    """Determinant with one polynomial row of k+1 Polynomials on top of a
    k x (k+1) numeric block: sum_j C_j top_j over the block's
    ``cofactor_row`` C, one ``poly_dot``."""
    cofactors = cofactor_row(numeric_rows)
    if len(top_row) != len(cofactors):
        raise ValueError("cofactor expansion needs an n x n shape")
    return poly_dot(map(Polynomial.constant, cofactors), top_row)


def poly_dot(xs, ys) -> Polynomial:
    """sum_j xs[j] * ys[j] over two sequences of Polynomials.

    Over the rationals every polynomial is cleared of denominators, the
    products are summed over the integers on one common denominator, and
    that is divided out once at the end.  With RationalFunction
    coefficients it is the schoolbook double loop over the field.
    """
    pairs = [(x.coeffs, y.coeffs) for x, y in zip(xs, ys) if x and y]
    if not pairs:
        return Polynomial()
    out = [0] * (max(len(p) + len(q) for p, q in pairs) - 1)
    if any(isinstance(c, RationalFunction) for p, q in pairs for c in p + q):
        for p, q in pairs:
            for i, u in enumerate(p):
                if u:
                    for j, w in enumerate(q):
                        out[i + j] += u * w
        return Polynomial(out)
    cleared = [(_integer_row(p), _integer_row(q)) for p, q in pairs]
    den = lcm(*(dp * dq for (_, dp), (_, dq) in cleared))
    for (p, dp), (q, dq) in cleared:
        f = den // (dp * dq)
        for i, u in enumerate(p):
            if u:
                u *= f
                for j, w in enumerate(q):
                    out[i + j] += u * w
    return Polynomial([Fraction(v, den) for v in out])


def _integer_row(row) -> tuple:
    """A rational row scaled by the lcm of its denominators to ints,
    with that lcm."""
    fr = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in row]
    den = lcm(*(v.denominator for v in fr))
    return [v.numerator * (den // v.denominator) for v in fr], den


def _eliminate(row, c, pivot_row, support) -> list:
    """Clear column c of an integer row with the pivot row.

    The row is scaled by pivot/g and pivot_row/g is subtracted
    (g = gcd(pivot, row[c])), over the pivot row's nonzero columns
    ``support`` only; the result is divided by its content.
    """
    pv, f = pivot_row[c], row[c]
    g = gcd(pv, f)
    s, t = pv // g, f // g
    if s != 1:
        row = [s * v for v in row]
    for j in support:
        row[j] -= t * pivot_row[j]
    g = gcd(*row)
    if g > 1:
        row = [v // g for v in row]
    return row


def nullspace_exact(rows):
    """Basis of the right nullspace of a matrix over the rationals.

    Fraction-free Gauss-Jordan elimination over the integers (in the
    style of Bareiss, Math. Comp. 22, 1968): each row is cleared of
    denominators, eliminated below each pivot and then above it from the
    last pivot back, with every row kept a primitive integer vector.  The
    pivot in each column is the first nonzero entry at or below the
    current row.  Every integer row stays a nonzero multiple of the row
    a rational elimination would hold, so the reduced row echelon form,
    and with it the basis, is the rational one exactly.  Returns a list
    of basis vectors (lists of Fractions), one per free column with a 1
    there, empty when the kernel is trivial (or there are no rows).
    """
    m = [_integer_row(row)[0] for row in rows]
    ncols = len(m[0]) if m else 0
    m = [row for row in m if any(row)]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        prow = m[r]
        support = [j for j in range(c, ncols) if prow[j]]
        below = (
            _eliminate(row, c, prow, support) if row[c] else row for row in m[r + 1 :]
        )
        m[r + 1 :] = [row for row in below if any(row)]  # zero rows hold no pivot
        pivots.append(c)
    for k in range(len(pivots) - 1, 0, -1):
        c, prow = pivots[k], m[k]
        support = [j for j in range(c, ncols) if prow[j]]
        for i in range(k):
            if m[i][c]:
                m[i] = _eliminate(m[i], c, prow, support)
    pivot_of = dict(zip(pivots, m))
    basis = []
    for fc in range(ncols):
        if fc in pivot_of:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for pc, row in pivot_of.items():
            if row[fc]:
                vec[pc] = Fraction(-row[fc], row[pc])
        basis.append(vec)
    return basis


@dataclass(frozen=True)
class IndexSet:
    """Strictly increasing finite set of integers.

    max (and min) of the empty set is -1 by convention, which makes the
    hatted parameter maps act as the identity on the empty set.
    """

    elements: tuple

    def __post_init__(self):
        els = tuple(self.elements)
        if any(not isinstance(e, int) for e in els):
            raise ValueError("index sets hold integers")
        if any(els[i] >= els[i + 1] for i in range(len(els) - 1)):
            raise ValueError("index set must be strictly increasing")
        object.__setattr__(self, "elements", els)

    @classmethod
    def of(cls, iterable) -> "IndexSet":
        return cls(tuple(sorted(set(int(e) for e in iterable))))

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, e):
        return e in self.elements

    @property
    def max(self) -> int:
        return self.elements[-1] if self.elements else -1

    @property
    def min(self) -> int:
        return self.elements[0] if self.elements else -1


def involution(index_set: IndexSet) -> IndexSet:
    """The complement-reflection involution on finite sets of positive ints.

    F maps to {1, ..., max F} minus {max F - f : f in F}; applying it twice
    gives back F, and the image size is max F - |F| + 1.
    """
    els = index_set.elements
    if not els:
        return IndexSet(())
    if els[0] <= 0:
        raise ValueError("involution needs positive integers")
    top = els[-1]
    removed = {top - f for f in els}
    return IndexSet(tuple(e for e in range(1, top + 1) if e not in removed))


def vandermonde(index_set: IndexSet) -> Fraction:
    """Vandermonde product prod_{i<j} (f_j - f_i); 1 for empty/singleton."""
    els = index_set.elements
    acc = Fraction(1)
    for i in range(len(els)):
        for j in range(i + 1, len(els)):
            acc *= els[j] - els[i]
    return acc


def residue_inv(poly: Polynomial, z0) -> Fraction:
    """Residue of 1/poly at a root z0 of multiplicity one or two.

    For a simple root the residue is 1/poly'(z0); for a double root with
    poly = (x - z0)^2 Q it is -Q'(z0)/Q(z0)^2.
    """
    z0 = as_scalar(z0)
    linear = Polynomial((-z0, 1))
    q1, r1 = poly.divmod(linear)
    if not r1.is_zero:
        raise ValueError(f"{z0} is not a root")
    q2, r2 = q1.divmod(linear)
    if not r2.is_zero:
        return Fraction(1) / q1(z0)
    q3, r3 = q2.divmod(linear)
    if r3.is_zero:
        raise ValueError(f"root {z0} has multiplicity > 2")
    val = q2(z0)
    return -q2.derivative()(z0) / (val * val)


def poly_to_strings(poly: Polynomial):
    """Serialize a polynomial as a list of "p/q" strings, ascending degree."""
    return [scalar_to_str(c) for c in poly.coeffs]
