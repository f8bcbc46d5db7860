"""Discrete measures: dual Hahn, the basic transform, and Christoffel ops."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from kralldh.exact import IndexSet, Polynomial, pochhammer
from kralldh.classical import dual_hahn_poly, lambda_map
from kralldh.measures import (
    MeasureUndefinedError,
    NuParams,
    christoffel_measure,
    dual_hahn_measure,
    dual_hahn_norm,
    geronimus_factor,
    inner_product,
    killed_region,
    nu_basic,
    nu_u_transform,
    rho_transformed,
    translate_measure,
)


def test_dual_hahn_measure_smallest():
    mu = dual_hahn_measure(1, 1, 1)
    assert mu.points == (F(0), F(4))
    assert [m for _, _, m in mu.atoms] == [F(1, 4), F(1, 4)]
    assert mu.total_mass() == F(1, 2)


def test_dual_hahn_norms_match_direct_sums():
    mu = dual_hahn_measure(1, 1, 1)
    R0 = dual_hahn_poly(0, 1, 1, 1)
    R1 = dual_hahn_poly(1, 1, 1, 1)
    # direct sum oracle: R_1 takes values -2 and 2 at the two atoms
    assert R1(F(0)) == -2 and R1(F(4)) == 2
    assert inner_product(R0, R0, mu) == F(1, 2) == dual_hahn_norm(0, 1, 1, 1)
    assert inner_product(R1, R1, mu) == (-2) ** 2 * F(1, 4) + 2**2 * F(1, 4) == 2
    assert dual_hahn_norm(1, 1, 1, 1) == 2
    assert inner_product(R0, R1, mu) == 0


def test_norm_degree_zero_is_reciprocal_binomial():
    for a, b, N in [(2, 1, 3), (3, 3, 4), (1, 2, 5)]:
        binom = pochhammer(F(b + 1), N) / pochhammer(F(1), N)
        assert dual_hahn_norm(0, a, b, N) == 1 / binom


@pytest.mark.parametrize(
    "a,b", [(F(1), F(1)), (F(1, 2), F(3, 2)), (F(3), F(2))]
)
def test_classical_orthogonality(a, b):
    N = 4
    mu = dual_hahn_measure(a, b, N)
    R = [dual_hahn_poly(n, a, b, N) for n in range(N + 1)]
    for n in range(N + 1):
        for m in range(N + 1):
            expected = dual_hahn_norm(n, a, b, N) if n == m else 0
            assert inner_product(R[n], R[m], mu) == expected


def test_measure_undefined_for_forbidden_parameters():
    with pytest.raises(MeasureUndefinedError):
        dual_hahn_measure(F(-2), F(1), 3)


def test_transforms_basics():
    mu = dual_hahn_measure(1, 1, 2)
    assert translate_measure(mu, 0) == mu
    assert christoffel_measure(mu, Polynomial.one()) == mu
    shifted = translate_measure(mu, 1)
    assert shifted.indices == (-1, 0, 1)
    assert shifted.mass_at_index(-1) == mu.mass_at_index(0)


def test_christoffel_drops_killed_atom():
    mu = dual_hahn_measure(1, 1, 1)
    out = christoffel_measure(mu, Polynomial((0, 1)))  # multiply by the point
    assert out.atoms == ((1, F(4), F(1)),)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=1, max_size=3),
       st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=1, max_size=3))
def test_inner_product_symmetric(pc, qc):
    mu = dual_hahn_measure(1, 1, 2)
    p, q = Polynomial(pc), Polynomial(qc)
    assert inner_product(p, q, mu) == inner_product(q, p, mu)


def test_nu_params_validation():
    with pytest.raises(ValueError):
        NuParams(2, 1, 3, (F(1),))  # forbidden value 1
    with pytest.raises(ValueError):
        NuParams(2, 1, 3, (F(0),))
    with pytest.raises(ValueError):
        NuParams(2, 1, 3, (F(2), F(2)))  # wrong count
    with pytest.raises(ValueError):
        NuParams(2, 1, 1, (F(2),))  # max(a,b) > N
    assert NuParams(2, 1, 3, (F(2),)).orientation == "standard"
    assert NuParams(1, 2, 3, (F(2),)).orientation == "flipped"


def test_nu_basic_first_negative_atom():
    for N in (2, 3, 5):
        params = NuParams(1, 1, N, (F(2),))
        nu = nu_basic(params)
        assert nu.mass_at_index(-1) == F(2) / (N + 2)
        assert len(nu.atoms) == N + 2


@pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_nu_positivity_iff_positive_parameters(signs):
    free = tuple(F(2) * s for s in signs)
    nu = nu_basic(NuParams(3, 2, 4, free))
    masses = [m for _, _, m in nu.atoms]
    if all(s > 0 for s in signs):
        assert all(m > 0 for m in masses)
    else:
        assert any(m < 0 for m in masses)


@pytest.mark.parametrize("a,b,N", [(1, 1, 2), (2, 1, 3), (3, 2, 5), (2, 2, 4), (3, 3, 5)])
def test_geronimus_identity(a, b, N):
    params = NuParams(a, b, N, tuple(F(2) + i for i in range(b)))
    nu = nu_basic(params)
    lhs = christoffel_measure(nu, geronimus_factor(params))
    scale = pochhammer(F(N + 1), b) ** 2 / pochhammer(F(b + 1), a - b)
    rhs = dual_hahn_measure(b, a, N).scaled(scale)
    assert lhs.atoms == rhs.atoms


def test_flipped_measure_shape():
    nu = nu_basic(NuParams(1, 2, 3, (F(2),)))
    assert nu.indices == (-1, 0, 1, 2, 3)
    assert all(m > 0 for _, _, m in nu.atoms)


def test_nu_u_identity_and_kills():
    params = NuParams(2, 1, 3, (F(2),))
    out = nu_u_transform(params, ())
    assert out.measure.atoms == nu_basic(params).atoms
    assert out.n_support == 5 and out.n_minus == 0
    # the annihilating region: the parameter atom -1 and its reflection -3
    killed = killed_region(2, 1)
    assert killed == {-1, -3}
    out2 = nu_u_transform(params, (F(-3),))
    assert out2.n_minus == 1
    assert -1 not in out2.measure.indices  # the parameter atom is gone
    assert out2.n_support == 4
    # a point off the support kills nothing
    out3 = nu_u_transform(params, (F(5),))
    assert out3.n_support == 5 and out3.n_minus == 0


def test_nu_u_support_counts_for_integer_points():
    params = NuParams(2, 2, 4, (F(2), F(3)))
    for U in [(1,), (1, 2), (-3,), (-3, 1)]:
        out = nu_u_transform(params, tuple(F(u) for u in U))
        assert out.n_support == params.b + params.N + 1 - len(U)


def test_nu_u_pair_condition():
    params = NuParams(2, 1, 3, (F(2),))
    with pytest.raises(ValueError):
        nu_u_transform(params, (F(1), F(-5)))  # 1 + (-5) = -(a+b+1)
    with pytest.raises(ValueError):
        nu_u_transform(params, (F(-2),) * 1 + (F(-2),))


def test_rho_transform_empty_set_is_identity():
    a, b, N = F(1, 2), F(3, 2), 3
    assert rho_transformed(a, b, N, IndexSet(())).atoms == dual_hahn_measure(a, b, N).atoms


def test_rho_transform_generic_parameters():
    # at generic rational parameters above max F the transform just scales
    # masses by the Christoffel factor at shifted roots
    a, b, N = F(7, 2), F(5, 2), 3
    Fset = IndexSet.of([1, 2])
    out = rho_transformed(a, b, N, Fset)
    t = Fset.max + 1
    base = dual_hahn_measure(a - t, b - t, N + t)
    for i, point, mass in out.atoms:
        fac = F(1)
        for f in Fset:
            fac *= lambda_map(a, b, i) - lambda_map(a, b, f - t)
        assert mass == fac * base.mass_at_index(i + t)


def test_rho_transform_undefined_base():
    with pytest.raises(MeasureUndefinedError):
        rho_transformed(F(2), F(1), 3, IndexSet.of([2]))
