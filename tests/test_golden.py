"""Golden CLI outputs: byte-identical exit codes and stdout.

The pinned grid is `generate` for three sizes, every representation and
no, one or two Christoffel points, plus one CSV case, `verify --suite
all`, the (1,1), (2,1) and (2,2) operator certificates, and the limit and
identity suites at (a,b,N) = (4,2,6), M = (3/2, 5), U = (1), the
limit suite at (8,5,16), the flip suite at (4,7,9), and CSV `generate`
at (6,4,12), U = (-7), for the basic and mirror representations.  Each file
under tests/golden/ holds the exit code on its first line and the exact
stdout after it.
After a deliberate output change, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
from pathlib import Path

import pytest

from kralldh.cli import main

GOLDEN = Path(__file__).parent / "golden"
SIZES = ((2, 1, 3, "2"), (3, 2, 6, "2,1/2"), (4, 3, 8, "3/2,5,7"))
REPS = ("basic", "dropped", "shifted", "mirror")


def _generate_argv(a, b, N, M, rep, U):
    argv = ["generate", "--a", str(a), "--b", str(b), "--N", str(N), "--M", M, "--rep", rep]
    if U:
        argv.append("--U=" + ",".join(map(str, U)))
    if rep == "dropped":
        # drop the lowest row b and its partner a - 1
        kept = [g for g in range(b, a + b) if g not in (b, a - 1)]
        argv += ["--G", ",".join(map(str, kept))]
    return argv


def golden_cases() -> dict:
    cases = {}
    for a, b, N, M in SIZES:
        for rep in REPS:
            for U in ((), (-a - 1,), (-a - 1, N)):
                name = f"generate_{a}_{b}_{N}_{rep}_U{len(U)}"
                cases[name] = _generate_argv(a, b, N, M, rep, U)
    cases["generate_3_2_6_basic_U1_csv"] = _generate_argv(
        3, 2, 6, "2,1/2", "basic", (-4,)
    ) + ["--format", "csv"]
    cases["verify_all"] = ["verify", "--suite", "all"]
    for b in (1, 2):
        cases[f"verify_operator_2_{b}_3"] = [
            "verify", "--suite", "operator", "--a", "2", "--b", str(b), "--N", "3"
        ]
    # the family of the certify-operator benchmark workload; the name sorts
    # last, so the ids of the earlier cases keep their indices
    cases["verify_operator_certify_1_1_3"] = [
        "verify", "--suite", "operator", "--a", "1", "--b", "1", "--N", "3", "--M", "2"
    ]
    # the two suites that run through rational functions in s, at larger
    # sizes; "wide" sorts after "operator", so earlier ids keep their indices
    cases["verify_wide_limits_8_5_16"] = [
        "verify", "--suite", "limits", "--a", "8", "--b", "5", "--N", "16"
    ]
    cases["verify_wide_flip_4_7_9"] = [
        "verify", "--suite", "flip", "--a", "4", "--b", "7", "--N", "9",
        "--M", "2,3/5,7,11/3",
    ]
    # the top of the generate-fresh benchmark ladder, with the lead column
    # first (basic) and last (mirror); "wide_" sorts after every other name
    for rep in ("basic", "mirror"):
        cases[f"wide_generate_6_4_12_{rep}_csv"] = _generate_argv(
            6, 4, 12, "2,1/2,3,5/7", rep, (-7,)
        ) + ["--format", "csv"]
    for suite in ("limits", "identities"):
        cases[f"verify_{suite}_4_2_6"] = [
            "verify", "--suite", suite, "--a", "4", "--b", "2", "--N", "6",
            "--M=3/2,5", "--U", "1",
        ]
    return cases


def run_case(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return f"{code}\n{out.getvalue()}"


@pytest.mark.parametrize("name,argv", sorted(golden_cases().items()))
def test_golden_output(name, argv):
    expected = (GOLDEN / f"{name}.txt").read_text()
    assert run_case(argv) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(golden_cases().items()):
        (GOLDEN / f"{name}.txt").write_text(run_case(argv))
