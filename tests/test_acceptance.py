"""Acceptance criteria.

Every criterion is checked by exact equality (tolerance zero); the stated
runtime ceilings are asserted.  One summary line is printed per criterion
(visible with ``pytest -s`` or on failure).
"""

import time
from fractions import Fraction as F

from kralldh.exact import IndexSet, Polynomial, pochhammer
from kralldh.classical import dual_hahn_poly, lambda_map
from kralldh.measures import (
    NuParams,
    christoffel_measure,
    dual_hahn_measure,
    dual_hahn_norm,
    geronimus_factor,
    inner_product,
    nu_basic,
    nu_u_transform,
)
from kralldh.wpoly import mid_range, param_range, row_range, w_family
from kralldh.constructors import (
    FamilyExistenceError,
    construct_basic,
    construct_mirror,
    construct_shifted,
    determinant_sizes,
    recurrence_coeffs,
)
from kralldh.verify import (
    IdentityContext,
    operator_search,
    triangular_product_report,
    verify_evaluation_limit,
    verify_measure_limit_basic,
    verify_measure_limit_transformed,
    verify_moment_identity,
    verify_quotient_identity,
    verify_row_parameter_limit,
    verify_row_window_limit,
)


def report(number, name, elapsed, limit=None):
    line = f"ACCEPTANCE C{number:02d} {name}: PASS ({elapsed:.1f}s"
    line += f" < {limit}s)" if limit else ")"
    print(line)
    if limit is not None:
        assert elapsed < limit, f"criterion {number} exceeded {limit}s"


def positive_free(b):
    return (F(2), F(1, 2), F(5))[:b]


def test_criterion_01_classical_orthogonality():
    start = time.time()
    for N in range(1, 6):
        for a in range(1, N + 1):
            for b in range(1, a + 1):
                mu = dual_hahn_measure(a, b, N)
                R = [dual_hahn_poly(n, a, b, N) for n in range(N + 1)]
                for n in range(N + 1):
                    for m in range(N + 1):
                        expected = dual_hahn_norm(n, a, b, N) if n == m else 0
                        assert inner_product(R[n], R[m], mu) == expected
    report(1, "classical-orthogonality", time.time() - start, 5)


def test_criterion_02_geronimus_identity():
    start = time.time()
    for N in range(1, 6):
        for a in range(1, N + 1):
            for b in range(1, a + 1):
                params = NuParams(a, b, N, tuple(F(2) + i for i in range(b)))
                lhs = christoffel_measure(nu_basic(params), geronimus_factor(params))
                scale = pochhammer(F(N + 1), b) ** 2 / pochhammer(F(b + 1), a - b)
                rhs = dual_hahn_measure(b, a, N).scaled(scale)
                assert lhs.atoms == rhs.atoms
    report(2, "geronimus-identity", time.time() - start)


def gram_schmidt(measure, count):
    basis = []
    for n in range(count):
        p = Polynomial.monomial(n)
        for q in basis:
            p = p - q * (inner_product(p, q, measure) / inner_product(q, q, measure))
        basis.append(p)
    return basis


def c3_parameter_patterns(b):
    positive = [(F(2),) * b, (F(2), F(1, 2), F(5))[:b]]
    mixed = [(F(-3), F(2), F(1, 2))[:b]]
    return positive, mixed


def test_criterion_03_basic_families():
    start = time.time()
    for a in range(1, 4):
        for b in range(1, a + 1):
            for N in range(a, 6):
                positive, mixed = c3_parameter_patterns(b)
                for free in positive:
                    fam = construct_basic(NuParams(a, b, N, free))
                    top = fam.n_max
                    assert top == N + b
                    for n in range(top + 1):
                        assert fam.polys_plain[n].degree == n
                    for i in range(top + 1):
                        for j in range(top + 1):
                            expected = fam.norms_plain[i] if i == j else 0
                            got = inner_product(
                                fam.polys_plain[i], fam.polys_plain[j], fam.measure
                            )
                            assert got == expected
                    oracle = gram_schmidt(fam.measure, top + 1)
                    for n in range(top + 1):
                        assert fam.polys_plain[n] == oracle[n] * fam.polys_plain[n].leading()
                for free in mixed:
                    # mixed signs may or may not admit a family; when they
                    # do, the same exact claims hold
                    try:
                        fam = construct_basic(NuParams(a, b, N, free))
                    except FamilyExistenceError:
                        continue
                    for i in range(fam.n_max + 1):
                        for j in range(i):
                            assert inner_product(
                                fam.polys[i], fam.polys[j], fam.measure
                            ) == 0
    report(3, "basic-families", time.time() - start, 60)


def test_criterion_04_transformed_families():
    start = time.time()
    for a in range(1, 4):
        for b in range(1, a + 1):
            for N in range(a, 6):
                free = positive_free(b)
                params = NuParams(a, b, N, free)
                for U in [(), (F(1),), (F(-a - 1),), (F(1), F(2))]:
                    if any(u + v == -a - b - 1 for u in U for v in U):
                        continue
                    fam = construct_basic(params, U=U)
                    for i in range(fam.n_max + 1):
                        for j in range(fam.n_max + 1):
                            expected = fam.norms[i] if i == j else 0
                            assert (
                                inner_product(fam.polys[i], fam.polys[j], fam.measure)
                                == expected
                            )
                    if U == (F(-a - 1),):
                        # the reflected point annihilates the atom at -b
                        out = nu_u_transform(params, U)
                        assert out.n_minus == 1
                        assert -b not in out.measure.indices
    report(4, "transformed-families", time.time() - start)


def test_criterion_05_recurrence():
    start = time.time()
    X = Polynomial((0, 1))
    for a, b, N, U in [
        (1, 1, 3, ()),
        (2, 1, 3, ()),
        (2, 1, 4, (F(1),)),
        (2, 2, 4, ()),
        (3, 2, 5, (F(1),)),
    ]:
        fam = construct_basic(NuParams(a, b, N, positive_free(b)), U=U)
        n_u = len(U)
        for n in range(0, min(3, fam.n_max - 1) + 1):
            a_next, _, _ = recurrence_coeffs(fam, n + 1)
            _, b_n, c_n = recurrence_coeffs(fam, n)
            prev = fam.polys[n - 1] if n else Polynomial.zero()
            assert (
                X * fam.polys[n]
                - a_next * fam.polys[n + 1]
                - b_n * fam.polys[n]
                - c_n * prev
            ).is_zero
            # the stated closed forms for the outer coefficients
            assert a_next == (n + 1 + n_u) * fam.phis[n] / fam.phis[n + 1]
            expected_c = (
                n
                * (a + N - n + 1)
                * (a + b + N - n + 1)
                * F(a + b + N - n, a + b + N - n + 1) ** a
                * fam.phis[n + 1]
                / fam.phis[n]
            )
            assert c_n == expected_c
    report(5, "three-term-recurrence", time.time() - start)


def test_criterion_06_representation_equivalence():
    start = time.time()
    cases = [
        (1, 1, 3, (1,)),
        (2, 1, 3, (1,)),
        (2, 1, 4, (0,)),
        (2, 2, 4, (-3,)),
        (2, 2, 4, (1, 2)),
        (3, 2, 5, (-4, 1)),
    ]
    for a, b, N, U in cases:
        params = NuParams(a, b, N, positive_free(b))
        f_direct = construct_basic(params, U=tuple(F(u) for u in U))
        f_shift = construct_shifted(params, U)
        f_mirror = construct_mirror(params, U=tuple(F(u) for u in U))
        top = min(f_direct.n_max, f_shift.n_max, f_mirror.n_max)
        for n in range(top + 1):
            for other in (f_shift, f_mirror):
                c = f_direct.polys[n].leading() / other.polys[n].leading()
                assert f_direct.polys[n] == other.polys[n] * c
                assert f_direct.norms[n] == c * c * other.norms[n]
    assert determinant_sizes(5, 2, 8, (-2, 0, 1, 5, 6)) == (11, 9, 8)
    report(6, "representation-equivalence", time.time() - start)


def test_criterion_07_limit_suite():
    start = time.time()
    for a in range(1, 4):
        for b in range(1, a + 1):
            for N in range(a, 5):
                assert verify_measure_limit_basic(a, b, N, F(2)).passed
                for g in param_range(a, b):
                    for M in (F(2), F(-3)):
                        assert verify_row_parameter_limit(a, b, N, g, M).passed
                for g in mid_range(a, b):
                    assert verify_row_window_limit(a, b, N, g).passed
                for n in range(b, b + 2):
                    for f in range(a, a + b):
                        assert verify_evaluation_limit(a, b, N, n, f, F(2)).passed
                for n in range(b, b + 3):
                    assert verify_quotient_identity(a, b, N, n).passed
    for a, b, N, U in [(2, 1, 3, (1,)), (2, 2, 4, (-3,)), (2, 1, 4, (1, 2))]:
        assert verify_measure_limit_transformed(a, b, N, F(2), U).passed
    report(7, "limit-suite", time.time() - start, 60)


def test_criterion_08_moment_identities():
    # one evaluation context per configuration: the measure, the dual Hahn
    # values at its atoms and the row functionals are built once for all
    # of that configuration's identities
    start = time.time()
    patterns = {
        1: [(F(2),), (F(1, 2),), (F(-3),)],
        2: [(F(2), F(1, 2)), (F(-3), F(2))],
        3: [(F(2), F(1, 2), F(-3))],
    }
    for a in range(1, 4):
        for b in range(1, a + 1):
            for N in range(a, 6):
                for free in patterns[b]:
                    ctx = IdentityContext(a, b, N, free)
                    for n in range(0, 5):
                        for m in range(0, n + 1):
                            for s in range(m - a + 1, n + 1):
                                rep = verify_moment_identity("nu-lower", ctx, m=m, s=s)
                                assert rep.passed, rep.as_record()
                    for n in range(0, N + a + 1):
                        rep = verify_moment_identity("nu-diagonal", ctx, n=n)
                        assert rep.passed, rep.as_record()
                    # order-zero minor never vanishes, via the triangular
                    # product structure with the stated diagonal
                    assert triangular_product_report(a, b, N, free).passed
    # mirrored identities (the lower range extends below zero exactly
    # down to m - b + 1)
    for a, b, N in [(2, 1, 3), (2, 2, 4), (3, 2, 4), (3, 1, 5)]:
        ctx = IdentityContext(a, b, N, positive_free(b))
        for n in range(0, 4):
            for m in range(0, n + 1):
                for s in range(m - b + 1, n + 1):
                    rep = verify_moment_identity("mirror-lower", ctx, m=m, s=s)
                    assert rep.passed, rep.as_record()
        for n in range(0, N + b + 1):
            rep = verify_moment_identity("mirror-diagonal", ctx, n=n)
            assert rep.passed, rep.as_record()
    # generic-parameter transforms over merge sets inside {1,2,3}
    for els in [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]:
        Fset = IndexSet.of(els)
        a = F(Fset.max + 1) + F(1, 2)
        b = F(Fset.max + 1) + F(3, 2)
        N = 4
        n_g = Fset.max - len(Fset) + 1
        ctx = IdentityContext(a, b, N, F=Fset)
        for n in range(0, 5):
            for m in range(0, n + 1):
                for s in range(m - n_g + 1, n + 1):
                    rep = verify_moment_identity("christoffel-lower", ctx, m=m, s=s)
                    assert rep.passed, rep.as_record()
        for n in range(0, N + n_g + 1):
            rep = verify_moment_identity("christoffel-diagonal", ctx, n=n)
            assert rep.passed, rep.as_record()
    # integer-point transforms in the shifted parameters
    for a, b, N, U in [(2, 1, 3, (1,)), (2, 2, 4, (-3,)), (2, 1, 4, (1, 2))]:
        from kralldh.constructors import alt_params

        ctx = IdentityContext(a, b, N, positive_free(b), U=U)
        n_g = len(alt_params(a, b, N, U).G_rows)
        for n in range(0, 4):
            for m in range(0, n + 1):
                for s in range(m - n_g + 1, n + 1):
                    rep = verify_moment_identity("transformed-lower", ctx, m=m, s=s)
                    assert rep.passed, rep.as_record()
        for n in range(0, a + N - len(U) + 2):
            rep = verify_moment_identity("transformed-diagonal", ctx, n=n)
            assert rep.passed, rep.as_record()
    report(8, "moment-identities", time.time() - start)


def test_criterion_09_bispectral_operators():
    start = time.time()
    for a, b in [(1, 1), (2, 1)]:
        r = a * b + 1
        for N in (3, 4):
            # one family member degenerates to zero just above the
            # orthogonality range for a = 2; extra members keep the
            # search system overdetermined
            n_max = 2 * r + 2 if (a, b) == (1, 1) else 2 * r + 5
            fam = construct_basic(
                NuParams(a, b, N, (F(2),) * b), n_max=n_max, extend=True
            )
            op = operator_search(fam, r=r)
            assert op is not None, (a, b, N)
            assert not op.numerators[-r].is_zero and not op.numerators[r].is_zero
            gammas = [g for g in op.gammas if g is not None]
            assert len(set(gammas)) == len(gammas)
            assert op.maps_lattice_powers(3)
            # explicit lattice-point verification, including points far
            # outside the measure support
            lam_poly_vals = [
                (x, lambda_map(a, b, x)) for x in list(range(0, N + 1)) + [-7, 13, 29]
            ]
            for n, q in enumerate(fam.polys[: n_max + 1]):
                if op.gammas[n] is None:
                    continue
                for x, lx in lam_poly_vals:
                    lhs = sum(
                        (
                            num(F(x)) * q(lambda_map(a, b, x + j))
                            for j, num in op.numerators.items()
                        ),
                        F(0),
                    )
                    assert lhs == op.gammas[n] * op.denominator(F(x)) * q(lx)
    # negative control: a same-degree perturbation admits no operator
    fam = construct_basic(NuParams(1, 1, 3, (F(2),)), n_max=6, extend=True)
    polys = list(fam.polys)
    polys[1] = polys[1] + Polynomial((0, F(1, 7)))
    assert operator_search((polys, 1, 1), r=2) is None
    report(9, "bispectral-operators", time.time() - start, 120)


def test_criterion_09_bispectral_operator_2_2():
    # (a,b) = (2,2) at the command line's shift range r = ab + 1 and
    # family size 2r + 5
    start = time.time()
    a, b, N, r = 2, 2, 3, 5
    n_max = 2 * r + 5
    fam = construct_basic(NuParams(a, b, N, (F(2), F(2))), n_max=n_max, extend=True)
    op = operator_search(fam, r=r)
    assert op is not None
    assert op.denominator.degree == r * (r + 1) // 2 == 15
    assert not op.numerators[-r].is_zero and not op.numerators[r].is_zero
    gammas = [g for g in op.gammas if g is not None]
    assert len(set(gammas)) == len(gammas)
    assert op.maps_lattice_powers(3)
    # every eigen-equation by Horner's rule at lattice points, inside the
    # support and far outside it; each polynomial is evaluated once per point
    xs = [*range(0, N + 2), -7, 13, 29]
    h = {x: {j: num(F(x)) for j, num in op.numerators.items()} for x in xs}
    needed = {x + j for x in xs for j in op.numerators}
    for n, q in enumerate(fam.polys):
        if op.gammas[n] is None:
            continue
        at = {i: q(lambda_map(a, b, i)) for i in needed}
        for x in xs:
            lhs = sum((hj * at[x + j] for j, hj in h[x].items()), F(0))
            assert lhs == op.gammas[n] * op.denominator(F(x)) * at[x], (n, x)
    report(9, "bispectral-operator-2-2", time.time() - start, 30)


def test_criterion_10_flipped_orientation():
    start = time.time()
    for a, b in [(1, 2), (1, 3), (2, 3)]:
        N = b + 1
        free = tuple(F(2) + i for i in range(a))
        params = NuParams(a, b, N, free)
        nu = nu_basic(params)
        assert len(nu.atoms) == a + N + 1
        assert all(m > 0 for _, _, m in nu.atoms)
        flipped = w_family(a, b, N, free, orientation="flipped")
        std = w_family(b, a, N, tuple(1 / m for m in free))
        for g in row_range(a, b):
            # the resolved sign exponent is the row index g
            assert flipped[g] * F((-1) ** g) == std[g].reflect_argument(F(-2 - N))
            assert flipped[g].degree == g
    report(10, "flipped-orientation", time.time() - start)
