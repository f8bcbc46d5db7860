"""Core exact-arithmetic primitives: scalars, polynomials, determinants, sets."""

from fractions import Fraction as F

import pytest
from hypothesis import assume, given, seed, settings, strategies as st

from kralldh.exact import (
    IndexSet,
    PoleAtZeroError,
    Polynomial,
    RationalFunction,
    cofactor_row,
    det_exact,
    det_with_poly_row,
    involution,
    limit_at_zero,
    nullspace_exact,
    pochhammer,
    poly_dot,
    poly_gcd,
    poly_to_strings,
    residue_inv,
    scalar_from_str,
    scalar_to_str,
    vandermonde,
)

rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=7
)


def test_pochhammer_basic():
    assert pochhammer(F(7, 3), 0) == 1
    assert pochhammer(3, 2) == 12
    assert pochhammer(-2, 3) == 0


def test_pochhammer_negative_extension():
    # (x)_{-k} = 1/(x-k)_k keeps the concatenation rule valid
    x = F(9, 2)
    assert pochhammer(x, -2) == 1 / ((x - 2) * (x - 1))
    for m, n in [(3, -2), (-1, 4), (2, 2)]:
        assert pochhammer(x, m + n) == pochhammer(x, m) * pochhammer(x + m, n)


@settings(max_examples=60, deadline=None)
@given(rationals, rationals, rationals)
def test_rational_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    if a:
        assert a * (1 / a) == 1


# --- determinants -----------------------------------------------------------


def det_cofactor(rows):
    """Oracle: Laplace expansion along the first row."""
    n = len(rows)
    if n == 0:
        return F(1)
    if n == 1:
        return rows[0][0]
    total = F(0)
    for j in range(n):
        if not rows[0][j]:
            continue
        minor = [[r[c] for c in range(n) if c != j] for r in rows[1:]]
        total += F((-1) ** j) * rows[0][j] * det_cofactor(minor)
    return total


def test_det_identity_and_2x2():
    eye = [[F(i == j) for j in range(3)] for i in range(3)]
    assert det_exact(eye) == 1
    assert det_exact([[F(1), F(2)], [F(3), F(4)]]) == -2
    assert det_exact([[F(1, 2), 3], [0, F(2, 3)]]) == F(1, 3)  # ints mix in


def test_det_hilbert_3x3():
    hilbert = [[F(1, i + j + 1) for j in range(3)] for i in range(3)]
    expected = det_cofactor(hilbert)
    assert expected == F(1, 2160)
    assert det_exact(hilbert) == expected


@st.composite
def square_matrices(draw):
    """Rational n x n matrices, n = 0..6, with zero entries common, often
    a zero leading pivot, and singular ones from a repeated (scaled) row
    or a zero column."""
    n = draw(st.integers(0, 6))
    entry = st.one_of(st.just(F(0)), rationals)
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    if n and draw(st.booleans()):
        rows[0][0] = F(0)
    if n >= 2 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        scale = draw(st.sampled_from([F(1), F(-1), F(3, 2)]))
        rows[i] = [scale * v for v in rows[j]]
    if n and draw(st.booleans()):
        c = draw(st.integers(0, n - 1))
        for row in rows:
            row[c] = F(0)
    return rows


@seed(20261018)
@settings(max_examples=120, deadline=None)
@given(square_matrices())
def test_det_agrees_with_cofactor(rows):
    assert det_exact(rows) == det_cofactor(rows)


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        det_exact([[F(1), F(2)]])


def test_det_with_poly_row_matches_scalar_case():
    top = [Polynomial((F(1), F(1))), Polynomial((F(2),)), Polynomial((F(0), F(3)))]
    rest = [[F(1), F(0), F(2)], [F(4), F(1), F(1)]]
    got = det_with_poly_row(top, rest)
    for x in range(-3, 4):
        full = [[p(F(x)) for p in top]] + rest
        assert got(F(x)) == det_exact(full)


def det_with_poly_row_reference(top_row, numeric_rows):
    """Oracle: the cofactor expansion along the polynomial row, one
    Laplace-expanded minor per column."""
    n = len(top_row)
    acc = Polynomial()
    for j, p in enumerate(top_row):
        minor = [[row[c] for c in range(n) if c != j] for row in numeric_rows]
        acc = acc + p * (F((-1) ** j) * det_cofactor(minor))
    return acc


@st.composite
def poly_row_blocks(draw, kind):
    """A polynomial row over a rational k x (k+1) block, k = 0..5.

    ``kind`` is "generic"; "equal-rows" (two equal rows, so the rank is
    below k); "col0-minor" (column 1 a combination of columns 2..k, so
    the minor without column 0 vanishes); or "last-minor" (column 0 a
    combination of columns 1..k-1, so the minor without the last column,
    the mirror representation's ``lead_col``, vanishes).
    """
    low = {"generic": 0, "equal-rows": 2}.get(kind, 1)
    k = draw(st.integers(low, 5))
    rows = [draw(st.lists(rationals, min_size=k + 1, max_size=k + 1)) for _ in range(k)]
    if kind == "equal-rows":
        i, j = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
        rows[i] = list(rows[j])
    elif kind in ("col0-minor", "last-minor"):
        target, sources = (1, range(2, k + 1)) if kind == "col0-minor" else (0, range(1, k))
        weights = {c: draw(rationals) for c in sources}
        for row in rows:
            row[target] = sum((w * row[c] for c, w in weights.items()), F(0))
    coeffs = st.lists(st.one_of(st.just(F(0)), rationals), max_size=4)
    top = [Polynomial(tuple(draw(coeffs))) for _ in range(k + 1)]
    return top, rows


@pytest.mark.parametrize("kind", ["generic", "equal-rows", "col0-minor", "last-minor"])
@seed(20261018)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_det_with_poly_row_equals_cofactor_reference(kind, data):
    top, rows = data.draw(poly_row_blocks(kind))
    k = len(rows)
    got = det_with_poly_row(top, rows)
    assert got == det_with_poly_row_reference(top, rows)
    assert cofactor_row(rows) == [
        F((-1) ** j) * det_cofactor([row[:j] + row[j + 1 :] for row in rows])
        for j in range(k + 1)
    ]
    if kind == "equal-rows":
        assert got.is_zero
    elif kind != "generic":
        # the minor named by the kind vanishes; count only blocks of rank k
        c = 0 if kind == "col0-minor" else k
        assert det_cofactor([row[:c] + row[c + 1 :] for row in rows]) == 0
        assume(len(nullspace_fraction_reference(rows)) == 1)


def test_nullspace_exact_simple():
    # x + y = 0 over three unknowns: kernel dimension 2
    basis = nullspace_exact([[F(1), F(1), F(0)]])
    assert len(basis) == 2
    for vec in basis:
        assert vec[0] + vec[1] == 0


def nullspace_fraction_reference(rows):
    """Oracle: Gauss-Jordan over Fractions, pivot the first nonzero entry
    at or below the current row, one basis vector per free column."""
    m = [list(map(F, r)) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [v / pv for v in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [vi - f * vr for vi, vr in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [F(0)] * ncols
        vec[fc] = F(1)
        for row_idx, pc in enumerate(pivots):
            vec[pc] = -m[row_idx][fc]
        basis.append(vec)
    return basis


@st.composite
def rational_matrices(draw):
    """Rational matrices, tall, wide or without rows, with zero entries
    common and some zero columns, zero rows and repeated (scaled) rows."""
    nrows = draw(st.integers(0, 8))
    ncols = draw(st.integers(1, 8))
    entry = st.one_of(st.just(F(0)), rationals)
    rows = [draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    for c in draw(st.sets(st.integers(0, ncols - 1), max_size=2)):
        for row in rows:
            row[c] = F(0)
    if rows:
        index = st.integers(0, len(rows) - 1)
        if draw(st.booleans()):
            rows[draw(index)] = [F(0)] * ncols
        for _ in range(draw(st.integers(0, 2))):
            scale = draw(st.sampled_from([F(1), F(-1), F(3, 2)]))
            rows.insert(draw(index), [scale * v for v in rows[draw(index)]])
    return rows


@seed(20261018)
@settings(max_examples=200, deadline=None)
@given(rational_matrices())
def test_nullspace_exact_equals_fraction_reference(rows):
    basis = nullspace_exact(rows)
    assert basis == nullspace_fraction_reference(rows)
    for vec in basis:
        for row in rows:
            assert sum((x * v for x, v in zip(row, vec)), F(0)) == 0


def test_nullspace_exact_on_operator_search_systems(monkeypatch):
    # the system operator_search builds at (a,b,N) = (1,1,3), M = 2: 30
    # numerator coefficients and 6 eigenvalues; the denominator degree
    # r(r+1)/2 = 3 gives a one-dimensional kernel
    from kralldh import verify
    from kralldh.constructors import construct_basic
    from kralldh.measures import NuParams

    systems = []

    def capture(rows):
        systems.append(rows)
        return nullspace_exact(rows)

    monkeypatch.setattr(verify, "nullspace_exact", capture)
    fam = construct_basic(NuParams(1, 1, 3, (F(2),)), n_max=6, extend=True)
    assert verify.operator_search(fam, r=2) is not None
    assert [(len(rows), len(rows[0])) for rows in systems] == [(82, 36)]
    basis = nullspace_exact(systems[0])
    assert basis == nullspace_fraction_reference(systems[0])
    assert len(basis) == 1


# --- residues ---------------------------------------------------------------


def test_residue_simple_roots():
    P = Polynomial.from_roots([F(1), F(2)])
    assert residue_inv(P, F(1)) == -1
    assert residue_inv(Polynomial((0, 1)), F(0)) == 1


def test_residue_double_root():
    # partial-fraction oracle: writing 1/((x-1)^2 (x-3)) as
    # A/(x-1) + B/(x-1)^2 + C/(x-3), clearing denominators gives
    # B = 1/(1-3) = -1/2, C = 1/(3-1)^2 = 1/4 by direct substitution,
    # and matching the x^2 coefficient forces A + C = 0; the residue at
    # the double root is A
    B = F(1, 1 - 3)
    C = F(1, (3 - 1) ** 2)
    A = -C
    # cross-check the decomposition at a fresh point
    x = F(7)
    assert A / (x - 1) + B / (x - 1) ** 2 + C / (x - 3) == 1 / ((x - 1) ** 2 * (x - 3))
    assert A == F(-1, 4)
    P = Polynomial.from_roots([F(1), F(1), F(3)])
    assert residue_inv(P, F(1)) == A
    assert residue_inv(P, F(3)) == C


def test_residue_rejects_bad_roots():
    P = Polynomial.from_roots([F(1), F(1), F(1)])
    with pytest.raises(ValueError):
        residue_inv(P, F(1))
    with pytest.raises(ValueError):
        residue_inv(P, F(2))


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(-4, 4), min_size=2, max_size=4, unique=True),
    st.booleans(),
)
def test_residue_sum_is_zero(simple_roots, doubled):
    # residues of 1/P over all roots sum to zero once deg P >= 2,
    # including with one doubled root
    roots = [F(r) for r in simple_roots]
    all_roots = roots + ([roots[0]] if doubled else [])
    P = Polynomial.from_roots(all_roots)
    total = sum((residue_inv(P, r) for r in set(roots)), F(0))
    assert total == 0


# --- rational functions in s -------------------------------------------------


def test_limit_at_zero_examples():
    s = RationalFunction.var()
    assert limit_at_zero((s * s + s) / s) == 1
    assert limit_at_zero(((1 + s) * (1 + s) - 1) / s) == 2
    assert limit_at_zero((s * s) / s) == 0
    with pytest.raises(PoleAtZeroError):
        limit_at_zero(1 / s)


def test_rational_function_is_an_unreduced_quotient():
    s = RationalFunction.var()
    f = (s * s - 1) / (s - 1)
    assert f == s + 1  # equal by cross-multiplication, nothing cancelled
    assert f.den == s.num - 1
    g = RationalFunction(Polynomial((F(2), F(2))), Polynomial((F(0), F(4))))
    assert g == (s + 1) / (2 * s) and g != (s + 1) / s
    with pytest.raises(TypeError):
        hash(f)


@settings(max_examples=40, deadline=None)
@given(rationals, rationals, rationals, rationals)
def test_rational_function_arithmetic_matches_pointwise(p, q, r, w):
    s = RationalFunction.var()
    f = RationalFunction._coerce(p) + q * s
    g = RationalFunction._coerce(r) + w * s
    for t in (F(0), F(1), F(-2)):
        assert (f * g)(t) == f(t) * g(t)
        assert (f + g)(t) == f(t) + g(t)
        if g(t):
            assert (f / g)(t) == f(t) / g(t)


def reduced_reference(num, den):
    """The reduced form of num/den: divide by the monic gcd, then make
    the denominator monic.  A pole at 0 shows as den(0) == 0."""
    if num.is_zero:
        return Polynomial(), Polynomial.one()
    g = poly_gcd(num, den)
    num, den = num.divexact(g), den.divexact(g)
    return num / den.leading(), den / den.leading()


polys_in_s = st.lists(st.one_of(st.just(F(0)), rationals), max_size=4).map(
    lambda cs: Polynomial(tuple(cs))
)
denominators_in_s = st.one_of(
    # constants other than 1 included; polynomials vanishing at 0 included
    st.sampled_from([F(1), F(3), F(-1, 2)]).map(lambda c: Polynomial((c,))),
    polys_in_s.filter(lambda p: not p.is_zero),
)


def assert_limit_matches_reference(f, num, den):
    """limit_at_zero of f, which equals num/den, gives the verdict of
    the reduced quotient: its value at 0, or a pole."""
    num, den = reduced_reference(num, den)
    if den(F(0)):
        assert limit_at_zero(f) == num(F(0)) / den(F(0))
    else:
        with pytest.raises(PoleAtZeroError):
            limit_at_zero(f)


@seed(20261018)
@settings(max_examples=150, deadline=None)
@given(polys_in_s, denominators_in_s, polys_in_s, denominators_in_s)
def test_rational_function_arithmetic_equals_general_formulas(n1, d1, n2, d2):
    f, g = RationalFunction(n1, d1), RationalFunction(n2, d2)
    results = {
        "add": (f + g, (n1 * d2 + n2 * d1, d1 * d2)),
        "sub": (f - g, (n1 * d2 - n2 * d1, d1 * d2)),
        "mul": (f * g, (n1 * n2, d1 * d2)),
        "self-sub": (f - f, (Polynomial(), Polynomial.one())),
    }
    if not n2.is_zero:
        results["div"] = (f / g, (n1 * d2, d1 * n2))
    for name, (got, (num, den)) in results.items():
        assert got == RationalFunction(num, den), name
        assert_limit_matches_reference(got, num, den)


# c + d s with d != 0 when c = 0, so each factor vanishes at 0 to order 0 or 1
linear_factors = st.one_of(
    st.tuples(st.just(F(0)), rationals.filter(bool)),
    st.tuples(rationals.filter(bool), rationals),
)
factor_lists = st.lists(linear_factors, max_size=4)


@seed(20261020)
@settings(max_examples=100, deadline=None)
@given(factor_lists, factor_lists)
def test_limit_at_zero_by_order_of_vanishing(top, bottom):
    # num and den vanish at 0 to independent orders; the quotient is built
    # by the arithmetic, factor by factor, as the deformation limits build it
    s = RationalFunction.var()
    f = RationalFunction._coerce(F(1))
    num, den = Polynomial.one(), Polynomial.one()
    for c, d in top:
        f, num = f * (c + d * s), num * Polynomial((c, d))
    for c, d in bottom:
        f, den = f / (c + d * s), den * Polynomial((c, d))
    assert f == RationalFunction(num, den)
    assert_limit_matches_reference(f, num, den)


# --- polynomials -------------------------------------------------------------


def test_polynomial_basics():
    p = Polynomial((F(1), F(0), F(2)))
    q = Polynomial((F(0), F(1)))
    assert (p * q)(F(3)) == p(F(3)) * 3
    assert p.degree == 2 and Polynomial().degree == -1
    assert p.derivative() == Polynomial((0, 4))
    assert p.compose(q) == p
    assert p.shift_argument(F(1))(F(2)) == p(F(3))
    assert p.reflect_argument(F(5))(F(2)) == p(F(3))


def schoolbook_product(p, q):
    """The product as a double sum over the field elements themselves,
    the reference for the integer convolution in ``Polynomial.__mul__``."""
    if p.is_zero or q.is_zero:
        return Polynomial()
    out = [F(0)] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] = out[i + j] + a * b
    return Polynomial(out)


def compose_reference(p, inner):
    """p(inner(x)) by Horner's rule over the schoolbook product, the
    reference for the Taylor shift: p(x + c) = p(compose (c, 1)) and
    p(c - x) = p(compose (c, -1))."""
    acc = Polynomial()
    for c in reversed(p.coeffs):
        acc = schoolbook_product(acc, inner) + Polynomial((c,))
    return acc


_s = RationalFunction.var()
# rational functions of s with a nonconstant denominator, and polynomials in s
rational_functions = st.one_of(
    st.builds(lambda p, q, r: (p + q * _s) / (1 + r * _s), rationals, rationals, rationals),
    st.builds(lambda p, q: p + q * _s * _s, rationals, rationals),
)
scalars = st.one_of(st.just(F(0)), rationals)
# up to degree 5; the empty list is the zero polynomial, one entry a constant
fraction_polys = st.lists(scalars, max_size=6).map(Polynomial)
rf_polys = st.lists(st.one_of(scalars, rational_functions), max_size=4).map(Polynomial)


@pytest.mark.parametrize(
    "p",
    [Polynomial(), Polynomial((F(-3, 4),)), Polynomial((F(1, 2), F(0), F(-5, 3), F(2)))],
)
@pytest.mark.parametrize("c", [F(0), F(3), F(-7, 5)])
def test_shift_and_reflect_edge_cases(p, c):
    assert p.shift_argument(c) == compose_reference(p, Polynomial((c, 1)))
    assert p.reflect_argument(c) == compose_reference(p, Polynomial((c, -1)))
    assert p.shift_argument(F(0)) == p


@seed(20261018)
@settings(max_examples=150, deadline=None)
@given(fraction_polys, scalars)
def test_taylor_shift_equals_composition_over_fractions(p, c):
    assert p.shift_argument(c) == compose_reference(p, Polynomial((c, 1)))
    assert p.reflect_argument(c) == compose_reference(p, Polynomial((c, -1)))


@seed(20261018)
@settings(max_examples=40, deadline=None)
@given(rf_polys, st.one_of(scalars, rational_functions))
def test_taylor_shift_equals_composition_over_rational_functions(p, c):
    assert p.shift_argument(c) == compose_reference(p, Polynomial((c, 1)))
    assert p.reflect_argument(c) == compose_reference(p, Polynomial((c, -1)))


@seed(20261018)
@settings(max_examples=150, deadline=None)
@given(fraction_polys, fraction_polys)
def test_integer_convolution_equals_schoolbook_product(p, q):
    assert p * q == schoolbook_product(p, q)
    assert all(isinstance(c, F) for c in (p * q).coeffs)


@seed(20261018)
@settings(max_examples=40, deadline=None)
@given(rf_polys, st.one_of(fraction_polys, rf_polys))
def test_product_with_rational_function_coefficients(p, q):
    assert p * q == schoolbook_product(p, q)
    assert q * p == schoolbook_product(q, p)


@seed(20261020)
@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(fraction_polys, fraction_polys), max_size=4),
    st.lists(st.tuples(rf_polys, fraction_polys), max_size=2),
)
def test_poly_dot_equals_sum_of_schoolbook_products(rational_pairs, rf_pairs):
    for pairs in (rational_pairs, rational_pairs + rf_pairs):
        xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
        expected = Polynomial()
        for x, y in pairs:
            expected = expected + schoolbook_product(x, y)
        assert poly_dot(xs, ys) == expected


def test_polynomial_divmod_roundtrip():
    p = Polynomial.from_roots([F(1), F(2), F(3)]) * F(7, 3)
    d = Polynomial.from_roots([F(2)])
    q, r = p.divmod(d)
    assert q * d + r == p and r.is_zero
    assert p.divexact(d) == q


def test_polynomial_no_trailing_zeros():
    assert Polynomial((F(1), F(0), F(0))).coeffs == (F(1),)
    assert Polynomial((F(0),)).is_zero


# --- index sets ---------------------------------------------------------------


def test_involution_examples():
    assert involution(IndexSet(())) == IndexSet(())
    assert involution(IndexSet((1, 2))) == IndexSet((2,))
    assert involution(IndexSet((2,))) == IndexSet((1, 2))


def powerset(universe):
    sets = [()]
    for e in universe:
        sets += [s + (e,) for s in sets]
    return sets


def test_involution_is_involutive_and_counts():
    for els in powerset(range(1, 7)):
        f = IndexSet(els)
        g = involution(f)
        assert involution(g) == f
        if els:
            assert g.max == f.max
            assert len(g) == f.max - len(f) + 1


def test_involution_rejects_nonpositive():
    with pytest.raises(ValueError):
        involution(IndexSet((0, 2)))


def test_vandermonde():
    assert vandermonde(IndexSet((1, 2, 3))) == 2
    assert vandermonde(IndexSet((5,))) == 1
    assert vandermonde(IndexSet((0, 2))) == 2


def test_index_set_sorted_invariant():
    with pytest.raises(ValueError):
        IndexSet((2, 1))
    assert IndexSet.of([3, 1, 3]).elements == (1, 3)
    assert IndexSet(()).max == -1


# --- serialization ------------------------------------------------------------


def test_scalar_strings():
    assert scalar_to_str(F(-3, 7)) == "-3/7"
    assert scalar_to_str(F(5)) == "5/1"
    assert scalar_from_str("5") == 5
    assert scalar_from_str("-3/7") == F(-3, 7)


def test_poly_strings_roundtrip():
    p = Polynomial((F(1, 2), F(-3), F(0), F(7, 5)))
    assert Polynomial(tuple(F(t) for t in poly_to_strings(p))) == p
