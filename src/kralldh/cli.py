"""Command line front end: generate families, run verification suites.

Exit codes: 0 all requested work passed, 1 a verification failed or an
exact computation contradicted itself, 2 invalid configuration.  All
emitted numbers are exact "p/q" strings; output is byte-deterministic
for identical configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .exact import (
    ExactError,
    poly_to_strings,
    scalar_from_str,
    scalar_to_str,
)
from .measures import (
    DiscreteMeasure,
    NuParams,
    dual_hahn_measure,
    dual_hahn_norm,
    nu_basic,
)
from .classical import dual_hahn_poly
from .constructors import (
    Family,
    FamilyExistenceError,
    construct_basic,
    construct_dropped_rows,
    construct_mirror,
    construct_shifted,
    determinant_sizes,
)
from .wpoly import mid_range, row_range, w_family
from .verify import (
    IdentityContext,
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

REPRESENTATIONS = ("basic", "dropped", "shifted", "mirror")


def measure_to_json(measure: DiscreteMeasure) -> dict:
    return {
        "lattice": {"a": scalar_to_str(measure.a), "b": scalar_to_str(measure.b)},
        "atoms": [
            {"i": i, "point": scalar_to_str(p), "mass": scalar_to_str(m)}
            for i, p, m in measure.atoms
        ],
    }


def family_to_json(fam: Family) -> dict:
    data = {
        "representation": fam.representation,
        "a": fam.params.a,
        "b": fam.params.b,
        "N": fam.params.N,
        "M": [scalar_to_str(m) for m in fam.params.free],
        "U": [scalar_to_str(u) for u in fam.U],
        "rows": list(fam.rows),
        "polys": [
            {
                "n": n,
                "q": poly_to_strings(fam.polys[n]),
                "phi": scalar_to_str(fam.phis[n]),
                "norm": scalar_to_str(fam.norms[n]) if fam.norms[n] is not None else None,
            }
            for n in range(len(fam.polys))
        ],
        "phi_top": scalar_to_str(fam.phis[len(fam.polys)]),
        "measure": measure_to_json(fam.measure),
    }
    if fam.polys_plain is not None:
        data["plain"] = {
            "polys": [poly_to_strings(p) for p in fam.polys_plain],
            "phis": [scalar_to_str(p) for p in fam.phis_plain],
            "norms": [
                scalar_to_str(v) if v is not None else None for v in fam.norms_plain
            ],
        }
    return data


def family_to_csv(fam: Family) -> str:
    lines = ["n,phi,norm,coefficients-ascending"]
    for n in range(len(fam.polys)):
        norm = scalar_to_str(fam.norms[n]) if fam.norms[n] is not None else ""
        cells = [str(n), scalar_to_str(fam.phis[n]), norm]
        cells.extend(poly_to_strings(fam.polys[n]))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _parse_fraction_list(text: str):
    if not text:
        return ()
    return tuple(scalar_from_str(t) for t in text.split(","))


def _parse_int_list(text: str):
    if not text:
        return ()
    return tuple(int(t) for t in text.split(","))


def _build_family(args) -> Family:
    params = NuParams(args.a, args.b, args.N, _parse_fraction_list(args.M))
    U = _parse_fraction_list(args.U)
    if args.rep == "basic":
        return construct_basic(params, U=U, n_max=args.nmax)
    if args.rep == "dropped":
        rows = _parse_int_list(args.G)
        if not rows:
            raise ValueError("--rep dropped needs --G with the kept row indices")
        return construct_dropped_rows(params, rows, U=U, n_max=args.nmax)
    if args.rep == "shifted":
        return construct_shifted(params, U, n_max=args.nmax)
    if args.rep == "mirror":
        return construct_mirror(params, U=U, n_max=args.nmax)
    raise ValueError(f"unknown representation {args.rep!r}")


def _write(text: str, out) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def run_generate(args) -> int:
    fam = _build_family(args)
    if args.format == "json":
        text = json.dumps(family_to_json(fam), indent=2, sort_keys=True) + "\n"
    else:
        text = family_to_csv(fam)
    _write(text, args.out)
    return 0


def _size(args, suite, default, names=("a", "b", "N")):
    """The flags ``names`` if all of them were given, ``default`` if none
    was (an empty default stands for the suite's own grid).  A partial
    size is an invalid configuration, and so is a missing one where
    ``default`` is None."""
    given = tuple(getattr(args, name) for name in names)
    if None not in given:
        return given
    flags = " ".join(f"--{name}" for name in names)
    if default is None:
        raise ValueError(f"--suite {suite} needs {flags}")
    if given.count(None) < len(given):
        raise ValueError(f"--suite {suite} takes {flags} together or none of them")
    return default


def _free(args, a, b):
    """--M, or 2 for each of the min(a,b) free parameters."""
    return _parse_fraction_list(args.M) or (Fraction(2),) * min(a, b)


def _gram_record(name, polys, measure, norms) -> dict:
    rep = orthogonality_report(polys, measure, norms)
    return {"case": name, "pass": rep.passed}


def _suite_orthogonality(args):
    records = []
    size = _size(args, "orthogonality", ())
    if size and not args.M:
        raise ValueError("--suite orthogonality needs --M with --a --b --N")
    cases = (
        [(*size, _parse_fraction_list(args.M))]
        if size
        else [(1, 1, 2, (Fraction(2),)), (2, 1, 3, (Fraction(2),)), (2, 2, 3, (Fraction(2), Fraction(3)))]
    )
    for a, b, N, M in cases:
        mu = dual_hahn_measure(a, b, N)
        R = [dual_hahn_poly(n, a, b, N) for n in range(N + 1)]
        records.append(
            _gram_record(
                f"classical a={a} b={b} N={N}",
                R,
                mu,
                [dual_hahn_norm(n, a, b, N) for n in range(N + 1)],
            )
        )
        fam = construct_basic(NuParams(a, b, N, M))
        records.append(
            _gram_record(
                f"basic a={a} b={b} N={N} M={[str(m) for m in M]}",
                fam.polys,
                fam.measure,
                fam.norms,
            )
        )
    return records


def _suite_identities(args):
    records = []
    a, b, N = _size(args, "identities", (2, 1, 3))
    M = _free(args, a, b)
    ctx = IdentityContext(a, b, N, M)
    for m in range(0, 3):
        for s in range(m - a + 1, 3):
            records.append(verify_moment_identity("nu-lower", ctx, m=m, s=s).as_record())
    for n in range(0, N + a + 1):
        records.append(verify_moment_identity("nu-diagonal", ctx, n=n).as_record())
    for m in range(0, 2):
        for s in range(max(0, m - b + 1), 3):
            records.append(verify_moment_identity("mirror-lower", ctx, m=m, s=s).as_record())
    for n in range(0, N + b + 1):
        records.append(verify_moment_identity("mirror-diagonal", ctx, n=n).as_record())
    records.append(triangular_product_report(a, b, N, M).as_record())
    return records


def _suite_limits(args):
    records = []
    a, b, N = _size(args, "limits", (2, 1, 3))
    if b > a:
        raise ValueError("--suite limits needs the standard orientation b <= a")
    # every value is checked before any limit runs; the deformation has one
    # parameter, so the limits take all free parameters equal to the first
    M = NuParams(a, b, N, _free(args, a, b)).free[0]
    records.append(verify_measure_limit_basic(a, b, N, M).as_record())
    for g in row_range(a, b):
        if a <= g <= a + b - 1:
            records.append(verify_row_parameter_limit(a, b, N, g, M).as_record())
    for g in mid_range(a, b):
        records.append(verify_row_window_limit(a, b, N, g).as_record())
    for n in range(b, b + 2):
        for f in range(a, a + b):
            records.append(verify_evaluation_limit(a, b, N, n, f, M).as_record())
    for n in range(b, b + 3):
        records.append(verify_quotient_identity(a, b, N, n).as_record())
    U = _parse_fraction_list(args.U) or (1,)
    records.append(verify_measure_limit_transformed(a, b, N, M, U).as_record())
    return records


def _suite_equivalence(args):
    a, b, N = _size(args, "equivalence", (2, 1, 3))
    M = _free(args, a, b)
    U = _parse_fraction_list(args.U) or (1,)
    params = NuParams(a, b, N, M)
    f_direct = construct_basic(params, U=U)
    f_shift = construct_shifted(params, U)
    f_mirror = construct_mirror(params, U=U)
    ok = True
    for n in range(min(f_direct.n_max, f_shift.n_max, f_mirror.n_max) + 1):
        for other in (f_shift, f_mirror):
            c = f_direct.polys[n].leading() / other.polys[n].leading()
            if f_direct.polys[n] != other.polys[n] * c:
                ok = False
            if f_direct.norms[n] != c * c * other.norms[n]:
                ok = False
    return [_sizes_record(a, b, N, U, ok)]


def _sizes_record(a, b, N, U, ok) -> dict:
    return {
        # the points are integers: determinant_sizes rejects any other
        "params": {"a": a, "b": b, "N": N, "U": [int(u) for u in U]},
        "sizes": list(determinant_sizes(a, b, N, U)),
        "pass": ok,
    }


def _suite_sizes(args):
    a, b, N = _size(args, "sizes", None)
    return [_sizes_record(a, b, N, _parse_fraction_list(args.U), True)]


def _suite_operator(args):
    a, b, N = _size(args, "operator", (1, 1, 3))
    M = _free(args, a, b)
    r = a * b + 1
    if a * b > 1:
        # a member just above the orthogonality range degenerates to zero
        # (n = 6 at (2,1,3)); extra members keep the system overdetermined
        n_max = 2 * r + 5
    else:
        n_max = 2 * r + 2
        if N + b + 2 <= n_max:
            n_max += 1
    fam = construct_basic(NuParams(a, b, N, M), n_max=n_max, extend=True)
    op = operator_search(fam, r=r)
    rec = {
        "params": {"a": a, "b": b, "N": N, "M": [str(m) for m in M]},
        "shift_range": r,
        "pass": op is not None,
    }
    if op is not None:
        rec["eigenvalues"] = [str(g) if g is not None else None for g in op.gammas]
        rec["denominator_degree"] = op.denominator.degree
        rec["algebra_membership"] = op.maps_lattice_powers(3)
        rec["pass"] = rec["pass"] and rec["algebra_membership"]
    return [rec]


def _suite_flip(args):
    records = []
    size = _size(args, "flip", (), names=("a", "b"))
    if size and args.suite == "all":
        # the other suites read the pair in the standard orientation b <= a
        size = (min(size), max(size))
    pairs = [size] if size else [(1, 2), (1, 3), (2, 3)]
    for a, b in pairs:
        N = max(a, b) + 1 if args.N is None else args.N
        M = _parse_fraction_list(args.M) or tuple(
            Fraction(2) + i for i in range(min(a, b))
        )
        params = NuParams(a, b, N, M)
        nu = nu_basic(params)
        fam_fl = w_family(a, b, N, M, orientation="flipped")
        inv = tuple(1 / m for m in M)
        fam_std = w_family(b, a, N, inv)
        sym = all(
            fam_fl[g] * Fraction((-1) ** g)
            == fam_std[g].reflect_argument(Fraction(-2 - N))
            for g in row_range(a, b)
        )
        records.append(
            {
                "params": {"a": a, "b": b, "N": N, "M": [str(m) for m in M]},
                "atoms": len(nu.atoms),
                "sign_exponent": "g",
                "pass": sym and len(nu.atoms) == min(a, b) + N + 1,
            }
        )
    return records


# Every suite in the order --suite all runs it; all leaves out sizes,
# which has no default size.
SUITES = {
    "orthogonality": _suite_orthogonality,
    "identities": _suite_identities,
    "limits": _suite_limits,
    "equivalence": _suite_equivalence,
    "sizes": _suite_sizes,
    "operator": _suite_operator,
    "flip": _suite_flip,
}


def run_verify(args) -> int:
    if args.suite in ("operator", "flip") and args.U:
        # under --suite all, --U is meant for the limit and equivalence suites
        raise ValueError(
            f"--suite {args.suite} takes no --U: its families have no Christoffel points"
        )
    if args.suite == "all":
        names = [name for name in SUITES if name != "sizes"]
    else:
        names = [args.suite]
    records = []
    for name in names:
        for rec in SUITES[name](args):
            rec["suite"] = name
            records.append(rec)
    records.sort(key=lambda r: json.dumps(r, sort_keys=True))
    _write("\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n", args.out)
    return 0 if all(r.get("pass", False) for r in records) else 1


def _add_common(parser):
    parser.add_argument("--a", type=int, default=None)
    parser.add_argument("--b", type=int, default=None)
    parser.add_argument("--N", type=int, default=None)
    parser.add_argument("--M", type=str, default="", help="comma list of rationals")
    parser.add_argument("--U", type=str, default="", help="comma list of rationals")
    parser.add_argument("--out", type=str, default=None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kralldh",
        description="exact Krall dual Hahn families: generation and verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    gen = sub.add_parser("generate", help="construct a family and emit it")
    _add_common(gen)
    gen.add_argument("--rep", choices=REPRESENTATIONS, default="basic")
    gen.add_argument("--nmax", type=int, default=None)
    gen.add_argument("--G", type=str, default="", help="kept rows for --rep dropped")
    gen.add_argument("--format", choices=("json", "csv"), default="json")
    ver = sub.add_parser("verify", help="run a verification suite")
    _add_common(ver)
    ver.add_argument("--suite", choices=(*SUITES, "all"), default="all")
    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            if args.a is None or args.b is None or args.N is None:
                raise ValueError("generate needs --a --b --N --M")
            return run_generate(args)
        return run_verify(args)
    except (ValueError, FamilyExistenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ExactError, ArithmeticError) as exc:
        # an internal inconsistency, not an input the user can fix
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
