"""Determinantal families: existence, orthogonality, norms, equivalence."""

from fractions import Fraction as F
from math import factorial

import pytest

from kralldh.exact import Polynomial, pochhammer
from kralldh.classical import lambda_map
from kralldh.measures import (
    NuParams,
    christoffel_measure,
    inner_product,
    nu_basic,
)
from kralldh.constructors import (
    FamilyExistenceError,
    alt_params,
    construct_basic,
    construct_dropped_rows,
    construct_mirror,
    construct_selected_rows,
    construct_shifted,
    determinant_sizes,
    recurrence_coeffs,
)
from kralldh.wpoly import row_range


def gram_matches(fam):
    n = fam.n_max
    for i in range(n + 1):
        for j in range(n + 1):
            expected = fam.norms[i] if i == j else 0
            if inner_product(fam.polys[i], fam.polys[j], fam.measure) != expected:
                return False
    return True


def gram_schmidt(measure, count):
    """Independent oracle: orthogonalize the monomials against the measure."""
    basis = []
    for n in range(count):
        p = Polynomial.monomial(n)
        for q in basis:
            p = p - q * (inner_product(p, q, measure) / inner_product(q, q, measure))
        basis.append(p)
    return basis


def test_degree_zero_is_nonzero_constant():
    fam = construct_basic(NuParams(2, 1, 3, (F(2),)))
    assert fam.polys[0].degree == 0
    assert fam.phis[0] != 0


def test_small_family_against_gram_schmidt():
    params = NuParams(1, 1, 2, (F(2),))
    fam = construct_basic(params)
    assert fam.n_max == 3 and gram_matches(fam)
    oracle = gram_schmidt(fam.measure, 4)
    for n in range(4):
        scale = fam.polys[n].leading()
        assert fam.polys[n] == oracle[n] * scale


def test_existence_is_equivalent_to_nonvanishing_minors():
    # the parameter value -2 makes the order-1 minor vanish at a=b=N=1
    # (the single row value 1 + 3/(M-1) hits zero exactly there)
    with pytest.raises(FamilyExistenceError):
        construct_basic(NuParams(1, 1, 1, (F(-2),)))
    # nearby values are fine
    fam = construct_basic(NuParams(1, 1, 1, (F(-3),)))
    assert gram_matches(fam)


def test_positive_parameters_always_construct():
    for free in [(F(2),), (F(1, 2),), (F(5),)]:
        fam = construct_basic(NuParams(2, 1, 3, free))
        assert gram_matches(fam)


def test_leading_coefficients():
    params = NuParams(2, 1, 3, (F(2),))
    for U in [(), (F(1),)]:
        fam = construct_basic(params, U=U)
        n_u = len(U)
        for n in range(fam.n_max + 1):
            assert fam.polys[n].leading() == fam.phis[n] / factorial(n + n_u)
    fam = construct_basic(params)
    for n in range(fam.n_max + 1):
        lead = fam.phis_plain[n] / (
            pochhammer(F(1 + 3 - n + 1), 2) * factorial(n)
        )
        assert fam.polys_plain[n].leading() == lead


@pytest.mark.parametrize(
    "a,b,N,U",
    [
        (1, 1, 3, (F(1),)),
        (2, 1, 3, (F(1), F(2))),
        (2, 2, 4, (F(-3),)),
        (2, 1, 3, (F(5, 2),)),
    ],
)
def test_transformed_families_orthogonal_with_stated_norms(a, b, N, U):
    fam = construct_basic(NuParams(a, b, N, tuple(F(2) + i for i in range(b))), U=U)
    assert gram_matches(fam)


def test_pair_condition_rejected():
    with pytest.raises(ValueError):
        construct_basic(NuParams(2, 1, 3, (F(2),)), U=(F(1), F(-5)))


def test_nmax_bounded_by_support():
    with pytest.raises(ValueError):
        construct_basic(NuParams(1, 1, 2, (F(2),)), n_max=4)
    fam = construct_basic(NuParams(1, 1, 2, (F(2),)), n_max=5, extend=True)
    assert len(fam.polys) == 6
    assert fam.norms[5] is None


def test_alt_params_examples():
    alt = alt_params(2, 1, 3, ())
    assert (alt.a_alt, alt.b_alt, alt.N_alt, alt.s_shift) == (2, 1, 3, 0)
    assert alt.G_rows.elements == tuple(row_range(2, 1))
    alt1 = alt_params(2, 1, 3, (1,))
    assert (alt1.a_alt, alt1.b_alt, alt1.N_alt) == (4, 3, 1)
    assert alt1.s_shift == lambda_map(2, 1, 2)
    # the sum b + N is invariant
    for U in [(), (1,), (1, 2), (-3,)]:
        alt_u = alt_params(2, 2, 4, U)
        assert alt_u.b_alt + alt_u.N_alt == 2 + 4


def test_alt_params_rejects_unremovable_points():
    with pytest.raises(ValueError):
        alt_params(2, 1, 3, (-1,))  # the innermost atom may not be removed
    with pytest.raises(ValueError):
        alt_params(2, 1, 3, (4,))  # beyond the support
    with pytest.raises(ValueError):
        alt_params(3, 1, 4, (-2,))  # a point with no atom at all
    with pytest.raises(ValueError, match="not an integer"):
        alt_params(2, 1, 3, (F(1, 2),))  # never truncated to 0
    with pytest.raises(ValueError, match="1 <= b <= a <= N"):
        alt_params(0, 1, 3, ())


@pytest.mark.parametrize(
    "a,b,N,U",
    [
        (4, 3, 8, (-3,)),  # -b lands on the parameter block
        (4, 3, 8, (-2,)),
        (3, 2, 6, (-2,)),
        (2, 1, 3, (1, 1)),  # a repeated point
    ],
)
def test_shifted_rejects_colliding_points(a, b, N, U):
    params = NuParams(a, b, N, tuple(F(2) + i for i in range(b)))
    # the shared pair condition names a repeated point before the merge
    message = "repeated point" if len(set(U)) < len(U) else "distinct merged indices"
    with pytest.raises(ValueError, match=message):
        construct_shifted(params, U)


def test_determinant_sizes_triple():
    assert determinant_sizes(5, 2, 8, (-2, 0, 1, 5, 6)) == (11, 9, 8)


@pytest.mark.parametrize(
    "a,b,N,U",
    [(1, 1, 3, ()), (2, 1, 3, (1,)), (2, 2, 4, (-3,)), (2, 1, 4, (0,))],
)
def test_three_representations_agree(a, b, N, U):
    params = NuParams(a, b, N, tuple(F(2) + i for i in range(b)))
    f_direct = construct_basic(params, U=tuple(F(u) for u in U))
    f_shift = construct_shifted(params, U)
    f_mirror = construct_mirror(params, U=tuple(F(u) for u in U))
    assert gram_matches(f_shift) and gram_matches(f_mirror)
    top = min(f_direct.n_max, f_shift.n_max, f_mirror.n_max)
    for n in range(top + 1):
        for other in (f_shift, f_mirror):
            c = f_direct.polys[n].leading() / other.polys[n].leading()
            assert f_direct.polys[n] == other.polys[n] * c
            assert f_direct.norms[n] == c * c * other.norms[n]


def test_dropped_rows_reduce_to_basic_when_full():
    params = NuParams(2, 1, 3, (F(2),))
    full = construct_selected_rows(params, row_range(2, 1))
    basic = construct_basic(params)
    assert full.polys == basic.polys and full.norms == basic.norms


def test_dropped_rows_orthogonal():
    fam = construct_dropped_rows(
        NuParams(5, 2, 8, (F(2), F(3))), G=[3], n_max=5
    )
    assert gram_matches(fam)


def test_dropped_rows_double_root_case():
    params = NuParams(2, 2, 4, (F(2), F(3)))
    fam = construct_dropped_rows(params, G=[3], U=(F(-3),))
    pt = lambda_map(2, 2, -3)
    square = Polynomial.from_roots([pt, pt])
    assert fam.measure.atoms == christoffel_measure(nu_basic(params), square).atoms
    assert gram_matches(fam)


def test_dropped_rows_requires_partner():
    with pytest.raises(ValueError):
        construct_dropped_rows(NuParams(5, 1, 7, (F(2),)), G=[1, 3, 4, 5])


def test_recurrence_holds_exactly():
    X = Polynomial((0, 1))
    for a, b, N, U in [(1, 1, 2, ()), (2, 1, 3, ()), (2, 1, 3, (F(1),))]:
        fam = construct_basic(NuParams(a, b, N, (F(2),) * b), U=U)
        for n in range(fam.n_max - 1):
            a_next, _, _ = recurrence_coeffs(fam, n + 1)
            _, b_n, c_n = recurrence_coeffs(fam, n)
            prev = fam.polys[n - 1] if n else Polynomial.zero()
            residual = (
                X * fam.polys[n]
                - a_next * fam.polys[n + 1]
                - b_n * fam.polys[n]
                - c_n * prev
            )
            assert residual.is_zero
            if n == 0:
                assert c_n == 0
            else:
                # the closed form for the lowest coefficient agrees with
                # the exact inner-product definition
                exact = inner_product(X * fam.polys[n], prev, fam.measure) / fam.norms[n - 1]
                assert c_n == exact


def test_recurrence_requires_direct_representation():
    fam = construct_mirror(NuParams(1, 1, 2, (F(2),)))
    with pytest.raises(ValueError):
        recurrence_coeffs(fam, 1)
