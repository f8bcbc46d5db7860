"""Command line interface: formats, determinism, exit codes."""

import json

import pytest

from kralldh.cli import family_to_json, main
from kralldh.constructors import construct_basic
from kralldh.exact import RationalFunction
from kralldh.measures import NuParams
from kralldh.wpoly import _w_poly_cached
from fractions import Fraction as F


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_emits_expected_polynomial_count(tmp_path, capsys):
    out = tmp_path / "fam.json"
    code, _, _ = run_cli(
        capsys, "generate", "--a", "1", "--b", "1", "--N", "2", "--M", "2",
        "--out", str(out),
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert len(data["polys"]) == 4  # support has N + b + 1 = 4 points
    assert data["polys"][3]["q"][-1] != "0/1"


def test_generate_deterministic(tmp_path, capsys):
    args = ["generate", "--a", "2", "--b", "1", "--N", "3", "--M", "2", "--U", "1"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_generate_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "generate", "--a", "2", "--b", "2", "--N", "3", "--M", "2,1/2"
    )
    assert code == 0
    direct = construct_basic(NuParams(2, 2, 3, (F(2), F(1, 2))))
    assert json.loads(out) == family_to_json(direct)


def test_generate_rejects_forbidden_parameter(capsys):
    code, _, err = run_cli(
        capsys, "generate", "--a", "1", "--b", "1", "--N", "2", "--M", "1"
    )
    assert code == 2
    assert "0 and 1" in err


def test_generate_rejects_pair_condition(capsys):
    code, _, err = run_cli(
        capsys,
        "generate", "--a", "2", "--b", "1", "--N", "3", "--M", "2",
        "--U", "1,-5",
    )
    assert code == 2
    assert "-a-b-1" in err


def test_generate_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "generate", "--a", "1", "--b", "1", "--N", "2", "--M", "2",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert "." not in out  # exact rationals only, never decimals


def test_verify_sizes(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--suite", "sizes",
        "--a", "5", "--b", "2", "--N", "8", "--U=-2,0,1,5,6",
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["sizes"] == [11, 9, 8]


def test_verify_orthogonality_single_case(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--suite", "orthogonality",
        "--a", "2", "--b", "1", "--N", "3", "--M", "2",
    )
    assert code == 0
    assert all(json.loads(line)["pass"] for line in out.strip().splitlines())


def test_verify_equivalence(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--suite", "equivalence",
        "--a", "2", "--b", "1", "--N", "3", "--M", "2", "--U", "1",
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["sizes"] == [4, 4, 3]


def test_verify_flip(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "flip", "--a", "1", "--b", "2")
    assert code == 0
    rec = json.loads(out)
    assert rec["sign_exponent"] == "g"


def test_verify_all_with_a_standard_size_flips_the_pair(capsys):
    # the flip suite reads the size given for the standard orientation as
    # the pair (min, max), so every suite runs at one size
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "all", "--a", "2", "--b", "1", "--N", "3", "--M", "2"
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert all(r["pass"] for r in records)
    flips = [r for r in records if r["suite"] == "flip"]
    assert [r["params"] for r in flips] == [{"a": 1, "b": 2, "N": 3, "M": ["2"]}]
    assert {r["suite"] for r in records} == {
        "orthogonality", "identities", "limits", "equivalence", "operator", "flip"
    }


def test_verify_operator_certifies_2_1_3(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "operator", "--a", "2", "--b", "1", "--N", "3"
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["pass"] is True and rec["shift_range"] == 3


def test_missing_required_flags(capsys):
    code, _, err = run_cli(capsys, "generate", "--a", "1", "--b", "1")
    assert code == 2
    assert "generate needs" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        # non-integer points are rejected, never truncated to an integer
        (["generate", "--a", "2", "--b", "1", "--N", "3", "--M", "2",
          "--rep", "shifted", "--U", "1/2"], "not an integer"),
        (["verify", "--suite", "sizes", "--a", "2", "--b", "1", "--N", "3",
          "--U", "1/2"], "not an integer"),
        (["verify", "--suite", "limits", "--U", "1/2"], "not an integer"),
        (["verify", "--suite", "equivalence", "--U", "1/2"], "not an integer"),
        # an explicit 0 is a value, not an absent flag
        (["verify", "--suite", "identities", "--a", "0", "--b", "1", "--N", "3"],
         "1 <= min(a,b)"),
        (["verify", "--suite", "sizes", "--a", "0", "--b", "1", "--N", "3"],
         "1 <= b <= a <= N"),
        # colliding merged indices in the shifted representation
        (["generate", "--a", "4", "--b", "3", "--N", "8", "--M", "2,3,4",
          "--rep", "shifted", "--U=-3"], "distinct merged indices"),
        (["generate", "--a", "2", "--b", "1", "--N", "3", "--M", "2",
          "--rep", "shifted", "--U", "1,1"], "repeated point u = 1"),
        # a partial size is never passed on to the suite
        (["verify", "--suite", "orthogonality", "--a", "2"],
         "--a --b --N together or none"),
        (["verify", "--suite", "flip", "--a", "2"], "--a --b together or none"),
        # a repeated point squares its Christoffel root in every representation
        (["generate", "--a", "2", "--b", "1", "--N", "3", "--M", "2",
          "--rep", "basic", "--U", "1,1"], "repeated point u = 1"),
        (["generate", "--a", "2", "--b", "1", "--N", "3", "--M", "2",
          "--rep", "mirror", "--U", "1/2,1/2"], "repeated point u = 1/2"),
        # the limit suite checks M before any limit divides by it
        (["verify", "--suite", "limits", "--M", "0"], "avoid 0 and 1"),
        (["verify", "--suite", "limits", "--M", "1"], "avoid 0 and 1"),
        # every --M value is checked, not only the first
        (["verify", "--suite", "limits", "--M", "2,0"], "need 1 free parameters, got 2"),
        (["verify", "--suite", "limits", "--a", "2", "--b", "2", "--N", "4",
          "--M", "2,0"], "avoid 0 and 1"),
        # the limit suite is stated for the standard orientation only
        (["verify", "--suite", "limits", "--a", "1", "--b", "2", "--N", "3"],
         "standard orientation b <= a"),
        # a negative --nmax is not an empty family
        (["generate", "--a", "2", "--b", "1", "--N", "3", "--M", "2", "--nmax", "-1"],
         "n_max must be nonnegative"),
        # a zero denominator is a malformed rational, not an internal error
        (["generate", "--a", "2", "--b", "1", "--N", "3", "--M", "1/0"],
         "'1/0' has a zero denominator"),
        (["generate", "--a", "2", "--b", "1", "--N", "3", "--M", "2", "--U", "1/0"],
         "'1/0' has a zero denominator"),
        # the measure limit lives on the shifted lattice, which needs
        # distinct merged indices as construct_shifted does
        (["verify", "--suite", "limits", "--a", "3", "--b", "2", "--N", "3",
          "--M=2,3", "--U=-2"], "distinct merged indices"),
        # the flip suite has no Christoffel points, so --U is never ignored
        (["verify", "--suite", "flip", "--a", "1", "--b", "2", "--N", "3", "--M", "2",
          "--U=-2,-2"], "--suite flip takes no --U"),
        (["verify", "--suite", "flip", "--a", "1", "--b", "2", "--N", "3", "--M", "2",
          "--U=1/0"], "--suite flip takes no --U"),
        # neither is the operator suite's family
        (["verify", "--suite", "operator", "--U", "1"], "--suite operator takes no --U"),
        # every suite with a default size takes all of it or none of it
        (["verify", "--suite", "identities", "--a", "3"],
         "--suite identities takes --a --b --N together or none"),
        (["verify", "--suite", "limits", "--a", "2", "--N", "3"],
         "--suite limits takes --a --b --N together or none"),
        (["verify", "--suite", "equivalence", "--b", "1"],
         "--suite equivalence takes --a --b --N together or none"),
        (["verify", "--suite", "operator", "--a", "2", "--b", "1"],
         "--suite operator takes --a --b --N together or none"),
        (["verify", "--suite", "sizes", "--a", "2", "--b", "1"],
         "--suite sizes needs --a --b --N"),
        # a sized orthogonality suite, alone or first in --suite all, needs --M
        (["verify", "--suite", "orthogonality", "--a", "2", "--b", "1", "--N", "3"],
         "--suite orthogonality needs --M with --a --b --N"),
        (["verify", "--suite", "all", "--a", "2", "--b", "1", "--N", "3"],
         "--suite orthogonality needs --M with --a --b --N"),
        # a leading minor that vanishes inside the support: no family exists
        (["generate", "--a", "1", "--b", "1", "--N", "5", "--M=-5/2"],
         "leading minor vanishes at n = 2"),
    ],
)
def test_invalid_configuration_exits_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err


def test_internal_arithmetic_error_exits_1(monkeypatch, capsys):
    # an exact computation that contradicts itself is a failure of the
    # program, reported on one line, not an invalid configuration
    from kralldh import cli

    def broken(fam, r):
        raise ArithmeticError("operator failed its exact identity check")

    monkeypatch.setattr(cli, "operator_search", broken)
    code, out, err = run_cli(
        capsys, "verify", "--suite", "operator", "--a", "1", "--b", "1", "--N", "3"
    )
    assert code == 1 and out == ""
    assert err == "internal error: ArithmeticError: operator failed its exact identity check\n"


def test_verify_operator_eigenvalue_collision_exits_1(capsys):
    # at M = -2/3 two eigenvalues of the (2,1) operator coincide, so the
    # search finds no operator with distinct eigenvalues: a failed check
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "operator", "--a", "2", "--b", "1", "--N", "8",
        "--M=-2/3",
    )
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_verify_rejects_nmax(capsys):
    # only generate takes --nmax; verify must not accept and ignore it
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "operator", "--a", "1", "--b", "1", "--N", "3",
              "--nmax", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --nmax" in capsys.readouterr().err


def test_generate_builds_no_rational_functions(monkeypatch, capsys):
    # rational functions in s belong to the deformation limits that the
    # verification suites check, never to the construction path
    built = []
    init = RationalFunction.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RationalFunction, "__init__", counting_init)
    _w_poly_cached.cache_clear()  # rows cached by earlier tests would hide the work
    for rep in ("basic", "dropped", "shifted", "mirror"):
        for U in ((), (-5, 8)):
            argv = ["generate", "--a", "4", "--b", "3", "--N", "8", "--M", "3/2,5,7",
                    "--rep", rep, "--G", "4,5,6"]
            if U:
                argv.append("--U=" + ",".join(map(str, U)))
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0 and out
    assert built == []


def test_generate_takes_one_cofactor_row_per_block(monkeypatch, capsys):
    # blocks n = 0 .. n_max + 1 give the polynomials and the leading minors
    # phi_0 .. phi_{n_max+1}; no kernel or separate determinant is taken
    from kralldh import constructors, exact

    calls = []
    cofactor_row = constructors.cofactor_row

    def counting_cofactor_row(rows):
        calls.append(rows)
        return cofactor_row(rows)

    def forbidden(*args):
        raise AssertionError("the construction takes no kernel or determinant")

    monkeypatch.setattr(constructors, "cofactor_row", counting_cofactor_row)
    for name in ("nullspace_exact", "det_exact"):
        monkeypatch.setattr(exact, name, forbidden)
    for rep in ("basic", "dropped", "shifted", "mirror"):
        for U in ((), (-5, 8)):
            argv = ["generate", "--a", "4", "--b", "3", "--N", "8", "--M", "3/2,5,7",
                    "--rep", rep, "--G", "4,5,6"]
            if U:
                argv.append("--U=" + ",".join(map(str, U)))
            calls.clear()
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            n_max = len(json.loads(out)["polys"]) - 1
            assert len(calls) == n_max + 2


def test_identities_suite_builds_each_measure_once(monkeypatch, capsys):
    # one evaluation context per call: the 41 identities at this size
    # share one measure instead of building one each
    from kralldh import measures, verify

    built = []
    nu_basic = measures.nu_basic

    def counting_nu_basic(params):
        built.append(params)
        return nu_basic(params)

    monkeypatch.setattr(measures, "nu_basic", counting_nu_basic)
    monkeypatch.setattr(verify, "nu_basic", counting_nu_basic)
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "identities", "--a", "4", "--b", "2", "--N", "6",
        "--M=3/2,5", "--U", "1",
    )
    assert code == 0 and len(out.splitlines()) == 42
    assert built and len(built) == len(set(built))
