"""The benchmark's workloads: seeded request streams, execution and exact checks.

Every request goes in-process through kralldh's public API.  A request's
output is a string payload; the check parses the payload (not the
objects behind it), so a corrupted payload fails its check.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from math import gcd

import kralldh
from kralldh import cli

LADDER = ((3, 2, 6), (4, 3, 8), (5, 3, 10), (6, 4, 12))
REPS = ("basic", "dropped", "shifted", "mirror")
CERTIFY_N = (3, 4, 5, 6)
# (a, b, N, M, U) of the verify-grid pool; every config is checked by
# each of the four suites
VERIFY_POOL = (
    (2, 1, 3, "2", "1"),
    (2, 2, 4, "2,3", "1"),
    (3, 1, 4, "3", "2"),
    (3, 2, 5, "2,1/2", "1"),
    (4, 2, 6, "3/2,5", "1"),
)
VERIFY_SUITES = ("orthogonality", "identities", "limits", "equivalence")


class RequestFailed(Exception):
    """A request exited with a non-zero code."""


def _positive_parameter(rng, above_one=False) -> str:
    """A positive rational p/q in lowest terms with p, q <= 31, other
    than 1 (above 1 if asked)."""
    while True:
        p, q = rng.randint(1, 31), rng.randint(1, 31)
        if gcd(p, q) == 1 and (p > q if above_one else p != q):
            return f"{p}/{q}"


def _point_sets(a: int, b: int, N: int):
    """No point, one point and two points U for one size of the ladder.

    They remove atoms at the ends of the support, so the transformed
    measure keeps one sign and the family exists for every positive M.
    Interior points make the measure signed, and then a leading minor can
    vanish at special M (at (3,2,6), dropped, U = (1), M = (7/18, 6/17)
    the degree-3 Hankel determinant is 0) and kralldh rightly exits 2.
    The lowest atom i = -b is given by its reflected representative
    u = -a-1, the next one by -a-2; (3,2,6) has no second low point the
    shifted representation accepts, so it pairs the lowest atom with the
    highest, N.
    """
    low = -a - 1
    return ((), (low,), (low, low - 1) if b >= 3 else (low, N))


def _run_cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RequestFailed(f"exit code {code}")
    return out.getvalue()


def _horner(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


class GenerateFresh:
    """`kralldh generate` over the size ladder with fresh M on every request."""

    name = "generate-fresh"
    # the first 16 requests (every size and rep, no points) run untimed:
    # the first round of a process ran 5-18% slower than later ones
    warmup = 16

    def round(self, rng, seen):
        # sizes vary fastest, so any prefix of the stream holds every size
        # in nearly equal shares
        out = []
        for k in range(3):
            for rep in REPS:
                for a, b, N in LADDER:
                    U = _point_sets(a, b, N)[k]
                    # no (size, M) twice in a stream: every request is fresh
                    while True:
                        M = ",".join(_positive_parameter(rng) for _ in range(b))
                        if (a, b, N, M) not in seen:
                            seen.add((a, b, N, M))
                            break
                    argv = ["generate", "--a", str(a), "--b", str(b), "--N", str(N),
                            "--M", M, "--rep", rep]
                    if U:
                        argv.append("--U=" + ",".join(map(str, U)))
                    if rep == "dropped":
                        # drop the lowest row b and its partner a - 1: their
                        # points lie below the support
                        kept = [g for g in range(b, a + b) if g not in (b, a - 1)]
                        argv += ["--G", ",".join(map(str, kept))]
                    out.append({"a": a, "b": b, "N": N, "rep": rep, "U": U, "M": M,
                                "argv": argv})
        return out

    def mix_key(self, req) -> str:
        return f"({req['a']},{req['b']},{req['N']}) {req['rep']} |U|={len(req['U'])}"

    def execute(self, req) -> str:
        return _run_cli(req["argv"])

    def check(self, req, payload) -> bool:
        """Echoed parameters match and the exact Gram matrix of the emitted
        polynomials against the emitted measure is diagonal with the
        emitted norms."""
        data = json.loads(payload)
        if (data["a"], data["b"], data["N"]) != (req["a"], req["b"], req["N"]):
            return False
        if data["M"] != req["M"].split(","):
            return False
        if [Fraction(u) for u in data["U"]] != [Fraction(u) for u in req["U"]]:
            return False
        atoms = [(Fraction(t["point"]), Fraction(t["mass"]))
                 for t in data["measure"]["atoms"]]
        polys = [[Fraction(c) for c in rec["q"]] for rec in data["polys"]]
        norms = [rec["norm"] for rec in data["polys"]]
        if not polys or any(len(q) != n + 1 for n, q in enumerate(polys)):
            return False
        if any(v is None for v in norms):
            return False
        values = [[_horner(q, x) for x, _ in atoms] for q in polys]
        masses = [m for _, m in atoms]
        for i, vi in enumerate(values):
            for j in range(i + 1):
                g = sum((m * p * q for m, p, q in zip(masses, vi, values[j])), Fraction(0))
                if g != (Fraction(norms[i]) if i == j else 0):
                    return False
        return True


class CertifyOperator:
    """(a,b) = (1,1) bispectrality certificates with seeded M."""

    name = "certify-operator"
    warmup = 0
    r = 2
    n_max = 6

    def round(self, rng, seen):
        # M > 1: below 1 a minor beyond the support can vanish (M = 1/6 at
        # N = 3), leaving fewer than 2r + 3 members for the search, which
        # operator_search rejects as a precondition
        return [{"N": N, "M": _positive_parameter(rng, above_one=True)} for N in CERTIFY_N]

    def mix_key(self, req) -> str:
        return f"(1,1,{req['N']})"

    def execute(self, req) -> str:
        params = kralldh.NuParams(1, 1, req["N"], (Fraction(req["M"]),))
        fam = kralldh.construct_basic(params, n_max=self.n_max, extend=True)
        op = kralldh.operator_search(fam, r=self.r)
        record = {
            "N": req["N"],
            "M": req["M"],
            "polys": [[str(c) for c in q.coeffs] for q in fam.polys],
            "operator": None,
        }
        if op is not None:
            record["operator"] = {
                "numerators": {str(j): [str(c) for c in p.coeffs]
                               for j, p in sorted(op.numerators.items())},
                "denominator": [str(c) for c in op.denominator.coeffs],
                "gammas": [None if g is None else str(g) for g in op.gammas],
                "maps_lattice_powers": op.maps_lattice_powers(3),
            }
        return json.dumps(record, sort_keys=True)

    def check(self, req, payload) -> bool:
        """An operator was found, lies in the lattice operator algebra,
        has pairwise distinct eigenvalues and nonzero extreme shifts, and
        satisfies every eigen-equation at lattice points inside and far
        outside the support."""
        data = json.loads(payload)
        op = data["operator"]
        if data["N"] != req["N"] or data["M"] != req["M"] or op is None:
            return False
        if op["maps_lattice_powers"] is not True:
            return False
        gammas = [Fraction(g) for g in op["gammas"] if g is not None]
        if len(gammas) < 2 * self.r + 3 or len(set(gammas)) != len(gammas):
            return False
        nums = {int(j): [Fraction(c) for c in cs] for j, cs in op["numerators"].items()}
        if not nums.get(-self.r) or not nums.get(self.r):
            return False
        den = [Fraction(c) for c in op["denominator"]]
        lam = lambda x: x * (x + 3)  # lattice point(x) for a = b = 1
        for q, g in zip(data["polys"], op["gammas"]):
            if g is None:
                continue
            q = [Fraction(c) for c in q]
            for x in list(range(req["N"] + 1)) + [-7, 13, 29]:
                x = Fraction(x)
                lhs = sum((_horner(h, x) * _horner(q, lam(x + j)) for j, h in nums.items()),
                          Fraction(0))
                if lhs != Fraction(g) * _horner(den, x) * _horner(q, lam(x)):
                    return False
        return True


class VerifyGrid:
    """`kralldh verify` suites over a small fixed pool, repeated."""

    name = "verify-grid"
    # one pass of the pool fills the row caches before timing starts
    warmup = len(VERIFY_POOL) * len(VERIFY_SUITES)

    def round(self, rng, seen):
        out = [
            {"a": a, "b": b, "N": N, "M": M, "U": U, "suite": suite,
             "argv": ["verify", "--suite", suite, "--a", str(a), "--b", str(b),
                      "--N", str(N), "--M", M, "--U", U]}
            for a, b, N, M, U in VERIFY_POOL
            for suite in VERIFY_SUITES
        ]
        rng.shuffle(out)
        return out

    def mix_key(self, req) -> str:
        return f"({req['a']},{req['b']},{req['N']}) {req['suite']}"

    def execute(self, req) -> str:
        return _run_cli(req["argv"])

    def check(self, req, payload) -> bool:
        """Every emitted record belongs to the requested suite and passed."""
        records = [json.loads(line) for line in payload.splitlines()]
        return bool(records) and all(
            r.get("suite") == req["suite"] and r.get("pass") is True for r in records
        )


WORKLOADS = {w.name: w for w in (GenerateFresh(), CertifyOperator(), VerifyGrid())}


class Stream:
    """Seeded request stream: request i depends only on (workload, seed, i).

    Rounds are drawn in order, round k from a generator seeded by
    (workload, seed, k), so the stream grows on demand as far as a run
    gets without changing earlier requests.
    """

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self._requests = []
        self._rounds = 0
        self._seen = set()

    def __getitem__(self, i: int):
        while i >= len(self._requests):
            rng = random.Random(f"{self.workload.name}:{self.seed}:{self._rounds}")
            self._requests.extend(self.workload.round(rng, self._seen))
            self._rounds += 1
        return self._requests[i]
