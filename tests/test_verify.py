"""Verification suites: identities, limits, Gram reports, operator search."""

from dataclasses import replace
from fractions import Fraction as F

import pytest

from kralldh.exact import IndexSet, Polynomial, nullspace_exact
from kralldh.classical import dual_hahn_poly, lambda_map, lambda_poly
from kralldh.measures import NuParams, dual_hahn_measure, dual_hahn_norm
from kralldh.constructors import Family, construct_basic
from kralldh.verify import (
    MOMENT_IDENTITIES,
    IdentityContext,
    LatticeOperator,
    _verify_operator,
    operator_search,
    orthogonality_report,
    triangular_product_report,
    verify_evaluation_limit,
    verify_measure_limit_basic,
    verify_measure_limit_transformed,
    verify_moment_identity,
    verify_quotient_identity,
    verify_row_parameter_limit,
    verify_row_window_limit,
)


FREE = {1: (F(2),), 2: (F(2), F(5)), 3: (F(2), F(5), F(1, 2))}


def test_basic_measure_moment_identities():
    for a, b, N in [(2, 1, 3), (1, 1, 2), (2, 2, 3)]:
        ctx = IdentityContext(a, b, N, FREE[b])
        for m in range(0, 3):
            for s in range(m - a + 1, 3):
                rep = verify_moment_identity("nu-lower", ctx, m=m, s=s)
                assert rep.passed, rep.as_record()
        for n in range(0, N + a + 1):
            rep = verify_moment_identity("nu-diagonal", ctx, n=n)
            assert rep.passed, rep.as_record()


def test_christoffel_moment_identities_generic_parameters():
    for els in [(1,), (2,), (1, 2)]:
        Fset = IndexSet.of(els)
        a = F(Fset.max + 1) + F(1, 2)
        b = F(Fset.max + 1) + F(3, 2)
        N = 4
        n_g = Fset.max - len(Fset) + 1
        ctx = IdentityContext(a, b, N, F=Fset)
        for m in range(0, 2):
            for s in range(m - n_g + 1, 3):
                rep = verify_moment_identity("christoffel-lower", ctx, m=m, s=s)
                assert rep.passed, rep.as_record()
        for n in range(0, N + n_g + 1):
            rep = verify_moment_identity("christoffel-diagonal", ctx, n=n)
            assert rep.passed, rep.as_record()


def test_christoffel_lower_reduces_to_classical_orthogonality():
    # empty merge set: the right side has no rows, so the moments of the
    # degree-s polynomial below degree s vanish
    Fset = IndexSet(())
    ctx = IdentityContext(F(3, 2), F(5, 2), 4, F=Fset)
    for s in range(1, 4):
        for m in range(0, s):
            rep = verify_moment_identity("christoffel-lower", ctx, m=m, s=s)
            assert rep.passed and rep.rhs == 0


def test_mirror_moment_identities():
    for a, b, N in [(2, 1, 3), (2, 2, 3)]:
        ctx = IdentityContext(a, b, N, FREE[b])
        for m in range(0, 2):
            for s in range(max(0, m - b + 1), 3):
                rep = verify_moment_identity("mirror-lower", ctx, m=m, s=s)
                assert rep.passed, rep.as_record()
        for n in range(0, N + b + 1):
            rep = verify_moment_identity("mirror-diagonal", ctx, n=n)
            assert rep.passed, rep.as_record()


def test_transformed_moment_identities():
    from kralldh.constructors import alt_params

    for a, b, N, U in [(2, 1, 3, (1,)), (2, 2, 4, (-3,))]:
        n_g = len(alt_params(a, b, N, U).G_rows)
        ctx = IdentityContext(a, b, N, FREE[b], U=U)
        for m in range(0, 2):
            for s in range(m - n_g + 1, 2):
                rep = verify_moment_identity("transformed-lower", ctx, m=m, s=s)
                assert rep.passed, rep.as_record()
        for n in range(0, 4):
            rep = verify_moment_identity("transformed-diagonal", ctx, n=n)
            assert rep.passed, rep.as_record()


def test_moment_identity_dispatch():
    assert len(MOMENT_IDENTITIES) == 8
    with pytest.raises(ValueError):
        verify_moment_identity("nonsense", IdentityContext(1, 1, 2, FREE[1]))


def test_shared_context_reports_equal_standalone_ones():
    # a context shared by a batch gives each identity the record it gets
    # from a fresh context of its own, whatever order the batch asks in
    Fset = IndexSet.of((1, 2))
    configs = [
        (dict(a=3, b=2, N=4, free=FREE[2]), ("nu", "mirror")),
        (dict(a=2, b=2, N=4, free=FREE[2], U=(-3,)), ("transformed",)),
        (dict(a=F(7, 2), b=F(9, 2), N=4, F=Fset), ("christoffel",)),
    ]
    for config, families in configs:
        ctx = IdentityContext(**config)
        for family in families:
            for n in (3, 0, 2):
                for m, s in ((0, n), (n, n), (n // 2, n)):
                    shared = verify_moment_identity(f"{family}-lower", ctx, m=m, s=s)
                    alone = verify_moment_identity(
                        f"{family}-lower", IdentityContext(**config), m=m, s=s
                    )
                    assert shared.passed and shared.as_record() == alone.as_record()
                shared = verify_moment_identity(f"{family}-diagonal", ctx, n=n)
                alone = verify_moment_identity(
                    f"{family}-diagonal", IdentityContext(**config), n=n
                )
                assert shared.passed and shared.as_record() == alone.as_record()
    with pytest.raises(TypeError):
        verify_moment_identity("nu-lower", ctx, a=3, m=0, s=0)
    with pytest.raises(TypeError):  # the configuration comes only as a context
        verify_moment_identity("nu-lower", a=1, b=1, N=2, free=FREE[1], m=0, s=0)


def test_triangular_product_structure():
    rep = triangular_product_report(3, 2, 4, FREE[2])
    assert rep.passed


def test_measure_limit_basic():
    for a, b, N in [(1, 1, 2), (2, 1, 3), (2, 2, 3)]:
        rep = verify_measure_limit_basic(a, b, N, F(2))
        assert rep.passed, (a, b, N)


def test_measure_limit_transformed_is_proportional():
    for a, b, N, U in [(2, 1, 3, (1,)), (2, 2, 4, (-3,))]:
        rep = verify_measure_limit_transformed(a, b, N, F(2), U)
        assert rep.passed
        assert rep.params["constant"] != 0


def test_row_limits():
    assert verify_row_parameter_limit(2, 1, 3, 2, F(2)).passed
    assert verify_row_window_limit(3, 1, 4, 2).passed


def test_evaluation_and_quotient_limits():
    for n in (1, 2):
        assert verify_evaluation_limit(2, 1, 3, n, 2, F(2)).passed
    for n in (1, 2, 3):
        assert verify_quotient_identity(2, 1, 3, n).passed


def test_orthogonality_report_and_negative_control():
    a, b, N = 1, 1, 2
    mu = dual_hahn_measure(a, b, N)
    R = [dual_hahn_poly(n, a, b, N) for n in range(N + 1)]
    norms = [dual_hahn_norm(n, a, b, N) for n in range(N + 1)]
    good = orthogonality_report(R, mu, norms)
    assert good.passed
    # corrupt the degree-1 member: the report must flag it
    R_bad = [R[0], R[1] + Polynomial.one(), R[2]]
    bad = orthogonality_report(R_bad, mu, norms)
    assert not bad.passed and not bad.off_diagonal_ok


def test_operator_search_classical_three_term_structure():
    a, b, N = F(1, 2), F(3, 2), 6
    polys = [dual_hahn_poly(n, a, b, N) for n in range(6)]
    op = operator_search((polys, a, b), r=1)
    assert op is not None
    # the classical difference equation: eigenvalue n, rational coefficients
    assert op.gammas == tuple(F(n) for n in range(6))
    # found at the second denominator degree, r(r+1)/2 + 1 = 2
    assert op.denominator == Polynomial.from_roots([-1, -2])
    assert op.maps_lattice_powers(3)


def test_operator_search_finds_rational_operator_for_basic_family():
    # the (1,1) sizes of the certify-operator benchmark workload
    for N in range(3, 7):
        fam = construct_basic(NuParams(1, 1, N, (F(2),)), n_max=6, extend=True)
        op = operator_search(fam, r=2)
        assert op is not None, N
        assert not op.numerators[-2].is_zero and not op.numerators[2].is_zero
        gammas = [g for g in op.gammas if g is not None]
        assert len(gammas) >= 5 and len(set(gammas)) == len(gammas)
        assert op.maps_lattice_powers(3)
        # every eigen-equation by Horner's rule at the lattice points
        # lambda(x + j), inside the support and far outside it: no
        # polynomial is composed or shifted, so this is independent of the
        # exact identity that operator_search checks
        for n, q in enumerate(fam.polys):
            if op.gammas[n] is None:
                continue
            for x in [*range(0, N + 2), -20, -7, 13, 29]:
                lhs = sum(
                    (
                        num(F(x)) * q(lambda_map(1, 1, x + j))
                        for j, num in op.numerators.items()
                    ),
                    F(0),
                )
                rhs = op.gammas[n] * op.denominator(F(x)) * q(lambda_map(1, 1, x))
                assert lhs == rhs, (N, n, x)


@pytest.mark.parametrize(
    "a,b,N,r,n_max", [(1, 1, N, 2, 6) for N in range(3, 7)] + [(2, 1, 3, 3, 11)]
)
def test_operator_search_solves_one_system_at_the_first_degree(
    monkeypatch, a, b, N, r, n_max
):
    # the certificates of the tests and the benchmark sit at denominator
    # degree r(r+1)/2, where the kernel is one-dimensional
    from kralldh import verify

    dims = []

    def capture(rows):
        basis = nullspace_exact(rows)
        dims.append(len(basis))
        return basis

    monkeypatch.setattr(verify, "nullspace_exact", capture)
    fam = construct_basic(NuParams(a, b, N, (F(2),)), n_max=n_max, extend=True)
    op = operator_search(fam, r=r)
    assert op is not None
    assert op.denominator.degree == r * (r + 1) // 2
    assert dims == [1]


@pytest.mark.parametrize("a,b,N,r,n_max", [(1, 1, 3, 2, 6), (2, 1, 3, 3, 11)])
def test_operator_numerators_reflect_under_the_lattice_symmetry(a, b, N, r, n_max):
    # h_{-j}(x) = (-1)^t h_j(-x-a-b-1), t the denominator degree: the
    # numerators of opposite shifts determine each other
    fam = construct_basic(NuParams(a, b, N, (F(2),)), n_max=n_max, extend=True)
    op = operator_search(fam, r=r)
    assert op is not None
    sign = (-1) ** op.denominator.degree
    for j, h in op.numerators.items():
        assert op.numerators[-j] == sign * h.reflect_argument(F(-a - b - 1)), j


def test_operator_search_negative_control():
    fam = construct_basic(NuParams(1, 1, 3, (F(2),)), n_max=6, extend=True)
    polys = list(fam.polys)
    # same-degree perturbation: no operator of this shift range can have
    # the tampered family as eigenfunctions
    polys[1] = polys[1] + Polynomial((0, F(1, 7)))
    assert operator_search((polys, 1, 1), r=2) is None


def operator_search_unpinned_reference(fam, r):
    """The operator search without the pinned denominator: each free
    member n gets a polynomial multiple e_n of degree t of the
    denominator, and a kernel vector counts only if every e_n factors as
    gamma_n * d for one d.  Same degrees t = r(r+1)/2 then t + 1, same
    column order, kernel vectors tried in order, same normalisation (d
    monic, the second member's eigenvalue 1); no final identity check."""
    polys, a, b = (fam.polys, fam.params.a, fam.params.b) if isinstance(fam, Family) else fam
    usable = [n for n, p in enumerate(polys) if p.degree == n]
    free = usable[1:]
    lam = lambda_poly(a, b)
    Q = {n: polys[n].compose(lam) for n in usable}
    tri = r * (r + 1) // 2
    for t in (tri, tri + 1):
        d1 = t + r
        rows = []
        for n in usable:
            # the unknown (q, k) enters member n's equation as x^k q(x)
            shifted = [Q[n].shift_argument(F(j)) for j in range(-r, r + 1)]
            cols = [(q, k) for q in shifted for k in range(d1 + 1)]
            cols += [
                (-Q[n] if m == n else Polynomial.zero(), k) for m in free for k in range(t + 1)
            ]
            rows += [[q.coefficient(deg - k) for q, k in cols] for deg in range(d1 + 2 * n + 1)]
        n_h = (2 * r + 1) * (d1 + 1)
        for vec in nullspace_exact(rows):
            nums = {
                j: Polynomial(vec[i * (d1 + 1) : (i + 1) * (d1 + 1)])
                for i, j in enumerate(range(-r, r + 1))
            }
            es = [
                Polynomial(vec[n_h + i * (t + 1) : n_h + (i + 1) * (t + 1)])
                for i in range(len(free))
            ]
            den = es[0]  # a zero e_n would repeat the first member's eigenvalue 0
            if den.is_zero:
                continue
            gammas = [F(0)] + [F(0) if e.is_zero else e.leading() / den.leading() for e in es]
            if any(e != den * g for e, g in zip(es, gammas[1:])):
                continue
            if len(set(gammas)) != len(gammas) or nums[-r].is_zero or nums[r].is_zero:
                continue
            lead = den.leading()
            by_member = dict(zip(usable, gammas))
            return LatticeOperator(
                shift_bound=r,
                numerators={j: p / lead for j, p in nums.items()},
                denominator=den / lead,
                gammas=tuple(by_member.get(n) for n in range(len(polys))),
                lattice=(a, b),
            )
    return None


def test_pinned_search_equals_unpinned_reference():
    # the pinned denominator d_t and one eigenvalue per member find the
    # operator that free per-member multiples of a common denominator find
    cases = [
        (construct_basic(NuParams(1, 1, N, (M,)), n_max=6, extend=True), 2)
        for N in range(3, 7)
        for M in (F(2), F(7, 3), F(1, 4))
    ]
    cases.append((construct_basic(NuParams(2, 1, 3, (F(2),)), n_max=11, extend=True), 3))
    a, b = F(1, 2), F(3, 2)
    cases.append((([dual_hahn_poly(n, a, b, 6) for n in range(6)], a, b), 1))
    for fam, r in cases:
        op, ref = operator_search(fam, r=r), operator_search_unpinned_reference(fam, r)
        assert op is not None and ref is not None
        assert op.numerators == ref.numerators
        assert op.denominator == ref.denominator
        assert op.gammas == ref.gammas
    # the negative control: neither search finds an operator
    polys = list(cases[0][0].polys)
    polys[1] = polys[1] + Polynomial((0, F(1, 7)))
    assert operator_search((polys, 1, 1), r=2) is None
    assert operator_search_unpinned_reference((polys, 1, 1), 2) is None


def test_verify_operator_rejects_a_perturbed_operator():
    fam = construct_basic(NuParams(1, 1, 3, (F(2),)), n_max=6, extend=True)
    op = operator_search(fam, r=2)
    lam = lambda_poly(1, 1)
    Q = {n: q.compose(lam) for n, q in enumerate(fam.polys) if op.gammas[n] is not None}
    shifted = {(n, j): q.shift_argument(F(j)) for n, q in Q.items() for j in op.numerators}
    assert _verify_operator(op, Q, shifted)
    gammas = list(op.gammas)
    gammas[3] += F(1, 11)
    assert not _verify_operator(replace(op, gammas=tuple(gammas)), Q, shifted)
    numerators = dict(op.numerators)
    numerators[1] = numerators[1] + Polynomial.monomial(2, F(1, 11))
    assert not _verify_operator(replace(op, numerators=numerators), Q, shifted)


def test_verify_limits_dispatch():
    from kralldh.verify import LIMIT_KINDS, verify_limits

    assert len(LIMIT_KINDS) == 6
    assert verify_limits("measure-basic", a=1, b=1, N=2, M=F(2)).passed
    assert verify_limits("row-window", a=3, b=1, N=4, g=2).passed
    with pytest.raises(ValueError):
        verify_limits("nonsense")


def test_identity_report_record():
    rep = verify_moment_identity("nu-lower", IdentityContext(1, 1, 2, (F(2),)), m=0, s=0)
    rec = rep.as_record()
    assert rec["pass"] is True
    assert set(rec) == {"identity", "params", "lhs", "rhs", "pass"}
