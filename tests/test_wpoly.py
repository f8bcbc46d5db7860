"""Auxiliary row polynomials, anchors, and row functionals."""

import contextlib
import io
from fractions import Fraction as F

import pytest

from kralldh.cli import main
from kralldh.exact import Polynomial, residue_inv
from kralldh.classical import (
    apply_operator,
    aux_operator,
    aux_operator_mirror,
    hahn_poly,
    lambda_map,
)
from kralldh.wpoly import (
    CACHE_SIZE,
    PsiContext,
    _psi_context_cached,
    _w_poly_cached,
    anchor_deflations,
    anchor_poly,
    eigen_defect_scale,
    mid_range,
    mirror_anchor_poly,
    pairing_condition_set,
    param_range,
    psi_mirror,
    psi_plain,
    row_range,
    u_correction,
    w_family,
    w_mid_explicit,
    w_mid_limit,
    w_mid_series,
    w_param_explicit,
    w_param_limit,
    w_poly,
)

GRID = [(1, 1, 2), (2, 1, 3), (2, 2, 3), (3, 1, 4), (3, 2, 5), (3, 3, 5), (4, 2, 6)]


def free_for(a, b):
    return tuple(F(2) + i for i in range(min(a, b)))


@pytest.mark.parametrize("a,b,N", GRID)
def test_row_polynomials_have_full_degree(a, b, N):
    fam = w_family(a, b, N, free_for(a, b))
    for g in row_range(a, b):
        assert fam[g].degree == g


@pytest.mark.parametrize("a,b,N", GRID)
def test_only_parameter_rows_depend_on_free_parameters(a, b, N):
    f1 = w_family(a, b, N, free_for(a, b))
    f2 = w_family(a, b, N, tuple(m + 3 for m in free_for(a, b)))
    for g in row_range(a, b):
        if g in param_range(a, b):
            assert f1[g] != f2[g]
        else:
            assert f1[g] == f2[g]


def test_parameter_row_index_mapping():
    # row a + i carries exactly the i-th parameter
    a, b, N = 3, 2, 5
    base = free_for(a, b)
    for i in range(b):
        bumped = tuple(m + (7 if k == i else 0) for k, m in enumerate(base))
        f1, f2 = w_family(a, b, N, base), w_family(a, b, N, bumped)
        for g in row_range(a, b):
            assert (f1[g] == f2[g]) == (g != a + i)


# Every size at which the test suite builds a parameter row: the direct
# sizes, the mirror representation's slots N' = -2-N-a-b (N' < 0) and the
# shifted representation's (a_alt, b_alt, N_alt); then the benchmark
# ladder's top sizes with their mirror slots.  The closed form is the
# production row, so the limit is compared with it at each of them.
PARAM_SIZES = GRID + [
    (1, 1, 1), (1, 1, 3), (1, 1, 4), (1, 1, 5),
    (1, 1, -5), (1, 1, -6), (1, 1, -7), (1, 1, -8),
    (2, 1, 2), (2, 1, 4), (2, 1, 5), (2, 1, -7), (2, 1, -8), (2, 1, -9),
    (2, 2, 2), (2, 2, 4), (2, 2, 5), (2, 2, -8), (2, 2, -9), (2, 2, -10),
    (3, 1, 3), (3, 1, 5), (3, 1, -9), (3, 1, -10), (3, 1, -11),
    (3, 2, 3), (3, 2, 4), (3, 2, 6),
    (3, 2, -10), (3, 2, -11), (3, 2, -12), (3, 2, -13),
    (3, 3, 1), (3, 3, 3), (3, 3, 4), (3, 3, -11), (3, 3, -12),
    (4, 3, 1), (4, 3, 8), (4, 3, -17),
    (5, 2, 8), (5, 4, 1), (5, 4, 3), (5, 5, 1), (10, 9, -1), (13, 12, -1),
    (5, 3, 10), (5, 3, -20), (6, 4, 12), (6, 4, -24),
]
# at its two largest sizes the shifted representation builds only these
# parameter rows; all of param_range there would dominate the suite's time
SHIFTED_PARAM_ROWS = {(10, 9, -1): (11,), (13, 12, -1): (14, 15)}


@pytest.mark.parametrize("a,b,N", PARAM_SIZES)
def test_parameter_rows_closed_form_equals_limit(a, b, N):
    for g in SHIFTED_PARAM_ROWS.get((a, b, N), param_range(a, b)):
        for M in (F(2), F(1, 2), F(-3)):
            assert w_param_explicit(g, a, b, F(N), M) == w_param_limit(g, a, b, F(N), M)


# every size at which the test suite builds a window row, then the
# benchmark ladder's top sizes
@pytest.mark.parametrize(
    "a,b,N",
    [(3, 1, 4), (4, 1, 5), (4, 2, 6), (5, 2, 7), (5, 3, 8),
     (3, 1, 3), (3, 1, 5), (5, 2, 8), (5, 3, 10), (6, 4, 12)],
)
def test_window_rows_series_equals_limit_and_double_sum(a, b, N):
    for g in mid_range(a, b):
        series = w_mid_series(g, a, b, F(N))
        assert series == w_mid_limit(g, a, b, F(N))
        assert series == w_mid_explicit(g, a, b, F(N))


@pytest.mark.parametrize("a,b,N", GRID)
def test_rows_outside_windows_are_hahn(a, b, N):
    fam = w_family(a, b, N, free_for(a, b))
    for g in row_range(a, b):
        if g not in param_range(a, b) and g not in mid_range(a, b):
            assert fam[g] == hahn_poly(g, F(-a), F(-b), F(-2 - N))


@pytest.mark.parametrize("a,b,N", GRID)
def test_eigen_relations_with_defect(a, b, N):
    fam = w_family(a, b, N, free_for(a, b))
    op = aux_operator(a, b, N)
    for g in row_range(a, b):
        W = fam[g]
        func = lambda x: W(-x - 1)
        for x in range(0, N + 2):
            lhs = apply_operator(op, func, F(x))
            rhs = lambda_map(a, b, -g - 1) * func(F(x))
            if g in mid_range(a, b):
                comp = hahn_poly(a + b - g - 1, F(-a), F(-b), F(-2 - N))
                rhs += eigen_defect_scale(g, a, b, F(N)) * comp(F(-x - 1))
            assert lhs == rhs


@pytest.mark.parametrize("a,b,N", [(1, 1, 2), (2, 1, 3), (2, 2, 3), (3, 2, 4)])
def test_mirror_rows_eigen_relation(a, b, N):
    free = free_for(a, b)
    inv = tuple(1 / m for m in free)
    wmir = w_family(a, b, F(-2 - N - a - b), inv, rows=range(a, a + b))
    op = aux_operator_mirror(a, b, N)
    for f in range(a, a + b):
        W = wmir[f]
        func = lambda x: W(a + N - x)
        for x in range(-2, N + 3):
            assert apply_operator(op, func, F(x)) == lambda_map(a, b, -f - 1) * func(F(x))


# --- anchors -----------------------------------------------------------------


def test_anchor_examples():
    # a=2,b=1: simple roots 4 and 3
    P = anchor_poly(2, 1, row_range(2, 1))
    assert P == Polynomial.from_roots([F(4), F(3)])
    # a=3,b=1: double root 6, simple root 4
    P2 = anchor_poly(3, 1, row_range(3, 1))
    assert P2 == Polynomial.from_roots([F(6), F(6), F(4)])
    defl = anchor_deflations(3, 1, list(row_range(3, 1)), P2)
    assert set(defl) == {1, 2}
    # mirrored anchor always has simple roots
    for a, b in [(2, 1), (3, 2), (2, 2)]:
        Q = mirror_anchor_poly(a, b)
        roots = [a + b + lambda_map(a, b, -f - 1) for f in range(a, a + b)]
        assert len(set(roots)) == len(roots)
        assert Q == Polynomial.from_roots(roots)


@pytest.mark.parametrize("a,b", [(3, 1), (4, 1), (4, 2), (5, 2), (5, 3)])
def test_deflation_antisymmetry(a, b):
    rows = list(row_range(a, b))
    P = anchor_poly(a, b, rows)
    defl = anchor_deflations(a, b, rows, P)
    cond = pairing_condition_set(a, b, rows)
    for i in cond:
        assert defl[i] == -defl[a + b - 1 - i]


def test_pairing_condition_set_examples():
    # odd a+b excludes the self-paired middle index
    assert pairing_condition_set(2, 1, row_range(2, 1)) == set()
    assert pairing_condition_set(3, 1, row_range(3, 1)) == {1}
    # even a+b includes the boundary index
    assert pairing_condition_set(3, 1, row_range(3, 1)) == {1}
    assert pairing_condition_set(4, 2, row_range(4, 2)) == {2}
    assert pairing_condition_set(5, 1, row_range(5, 1)) == {1, 2}


def test_u_correction_vanishes_for_constants_and_off_condition():
    a, b, N = 3, 1, 4
    rows = list(row_range(a, b))
    P = anchor_poly(a, b, rows)
    defl = anchor_deflations(a, b, rows, P)
    cond = pairing_condition_set(a, b, rows)
    one = Polynomial.one()
    for i in rows:
        assert u_correction(i, one, a, b, defl, cond) == 0
    linear = Polynomial((0, 1))
    assert u_correction(2, linear, a, b, defl, cond) == 0  # 2 not in cond set
    assert u_correction(1, linear, a, b, defl, cond) != 0


def test_psi_values_hand_example():
    # a=2,b=1,N=2: anchor (x-4)(x-3); residues 1 and -1; the two row
    # polynomials evaluate at 0 to -4 and -20; the lattice eigenvalues at
    # -2 and -3 are -4 and -3.  Assembling the functional by hand:
    a, b, N = 2, 1, 2
    psi = PsiContext.build(a, b, N, (F(2),))
    P = psi.anchor
    assert P == Polynomial.from_roots([F(4), F(3)])
    assert residue_inv(P, F(4)) == 1 and residue_inv(P, F(3)) == -1
    assert psi.wfam[1](F(0)) == -4 and psi.wfam[2](F(0)) == -20
    assert psi.value_power(1, 0) == (1 + 0) * 1 / F(-4) == F(-1, 4)
    assert psi.value_power(2, 0) == 1 * (-1) / F(-20) == F(1, 20)
    assert psi.value_power(1, 1) == F(-4) * 1 / F(-4) == 1
    assert psi.value_power(2, 1) == F(-3) * (-1) / F(-20) == F(-3, 20)


def test_flip_symmetry_sign_is_parity_of_row():
    for a, b, N in [(1, 2, 3), (1, 3, 4), (2, 3, 4)]:
        free = free_for(a, b)
        flipped = w_family(a, b, N, free, orientation="flipped")
        std = w_family(b, a, N, tuple(1 / m for m in free))
        for g in row_range(a, b):
            assert flipped[g] * F((-1) ** g) == std[g].reflect_argument(F(-2 - N))
            assert flipped[g].degree == g


def test_flipped_window_row_is_anchored_limit():
    # independent path: the one-sided limit anchored at -2-N
    a, b, N = 1, 3, 4
    g = 2
    direct = w_mid_limit(g, a, b, F(N), anchor=F(-2 - N))
    assert w_poly(g, a, b, N, free_for(a, b), orientation="flipped") == direct


def test_w_poly_rejects_wrong_orientation():
    with pytest.raises(ValueError):
        w_poly(1, 1, 2, 3, (F(2),), orientation="standard")
    with pytest.raises(ValueError):
        w_poly(1, 2, 1, 3, (F(2),), orientation="flipped")


def test_anchor_polys_and_deflations():
    rows = row_range(3, 1)
    P = anchor_poly(3, 1, rows)
    assert sorted(anchor_deflations(3, 1, rows, P)) == [1, 2]
    assert mirror_anchor_poly(2, 1).degree == 1
    merged = anchor_poly(2, 1, (1, 3, 4))
    assert merged.degree == 3
    assert anchor_deflations(2, 1, (1, 3, 4), merged) == {}


def test_row_functional_variants():
    ctx = PsiContext.build(2, 1, 2, (F(2),))
    assert ctx.value_power(1, 0) == F(-1, 4) and ctx.value_power(2, 1) == F(-3, 20)
    a2, b2, rows = F(7, 2), F(5, 2), (1, 2)
    anchor = anchor_poly(a2, b2, rows)
    assert [psi_plain(g, 0, a2, b2, 3, anchor) for g in rows] == [F(1, 25), F(1, 225)]
    wmir = w_family(2, 1, F(-2 - 3 - 2 - 1), (F(1, 2),), rows=range(2, 3))
    assert psi_mirror(2, 0, 2, 1, F(3), wmir) == F(1, 30)


def test_row_caches_stay_bounded_under_fresh_parameters():
    # every fresh M misses the row cache; the bound keeps it from growing
    # with the number of requests, and still holds a repeated working set
    assert CACHE_SIZE >= 48  # the rows of verify-grid's five configurations
    assert _w_poly_cached.cache_info().maxsize == CACHE_SIZE
    assert _psi_context_cached.cache_info().maxsize == CACHE_SIZE
    _w_poly_cached.cache_clear()
    for i in range(100):
        argv = ["generate", "--a", "2", "--b", "1", "--N", "3", "--M", f"{i + 2}/{i + 3}"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
    info = _w_poly_cached.cache_info()
    assert info.misses > CACHE_SIZE
    assert info.currsize <= CACHE_SIZE
