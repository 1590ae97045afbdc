"""The four workloads: inputs, one request, and the check of its output.

Every request goes through `hasseweil`'s public API or its CLI entry point,
called in-process.  `hw` is the namespace of freshly imported `hasseweil`
modules (see `program.import_program`), so nothing here imports the program at
module level.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os

import gen
import checks

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

EULER_S = 2
EULER_PMAX = 5 * 10**5
EULER_CATALOG = 40  # recorded curves; a run on the seed code uses 2-3
RANK_ARGV = ["bsd", "0", "1", "1", "-2", "0", "--gen=-1,1", "--gen=0,0", "--json"]
SCAN_CURVE = (0, 1, 1, -2, 0)  # 389a
TABLE_BANDS = 6
# a row's cost grows with sqrt(N) (2.0 s at N ~ 500, 3.8 s at N ~ 15000 on the
# seed code), and a run holds about six rows, so rows come from a narrow range of N
TABLE_CONDUCTORS = range(2000, 10001)


def load_reference(name: str) -> dict:
    path = os.path.join(REFERENCE_DIR, f"{name}.json")
    if not os.path.exists(path):
        return {}
    with open(path) as handle:
        return json.load(handle)


def curve_key(coeffs) -> str:
    return " ".join(str(a) for a in coeffs)


def cli_json(hw, argv: list[str]) -> dict:
    """Run `hasseweil <argv>` in-process and parse its --json stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = hw.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
    return json.loads(out.getvalue())


class Workload:
    """A workload's recorded references and the check every request gets."""

    name = ""

    def load_reference(self) -> None:
        self.reference = load_reference(self.name)

    def key(self, item) -> str:
        """The input's key in the reference file."""
        return curve_key(item)

    def invariants(self, item, out) -> list[str]:
        return []

    def check(self, item, out) -> list[str]:
        problems = self.invariants(item, out)
        ref = self.reference.get(self.key(item))
        if ref is None:
            return problems + ["no recorded reference"]
        return problems + checks.compare(ref, out)


class Table(Workload):
    """Cold rows, one distinct curve each: `analyze --json` then `rank --json`."""

    name = "table"
    unit = "rows"
    trace_requests = 5

    def setup(self, hw, seed: int):
        self.load_reference()
        # rows of analytic rank >= 2 cost ~10x a rank <= 1 row; see README
        conductor = {tuple(map(int, key.split())): ref["analyze"]["conductor"]
                     for key, ref in self.reference.items()
                     if ref["rank"]["rank_analytic"] <= 1
                     and ref["analyze"]["conductor"] in TABLE_CONDUCTORS}
        # the cost still grows across the range, so draw evenly over N
        return gen.stratified(self.name, seed, list(conductor), conductor.get, TABLE_BANDS)

    def request(self, hw, coeffs):
        args = [str(a) for a in coeffs]
        row = {"analyze": cli_json(hw, ["analyze", *args, "--json"]),
               "rank": cli_json(hw, ["rank", *args, "--json"])}
        return row, 1

    def invariants(self, coeffs, row) -> list[str]:
        return checks.table_invariants(coeffs, row)


class Euler(Workload):
    """Euler product of L(E, 2) to p = 5e5 on distinct catalog curves."""

    name = "euler"
    unit = "a_p"
    trace_requests = 1

    def setup(self, hw, seed: int):
        self.load_reference()
        self.primes = checks.primes_up_to(EULER_PMAX)
        return gen.stream(self.name, seed, self.catalog())

    @staticmethod
    def catalog():
        """The recorded curves: a prefix of `euler`'s own fixed shuffle."""
        return gen.catalog_order("euler")[:EULER_CATALOG]

    def request(self, hw, coeffs):
        curve = hw.curves.WeierstrassCurve(*coeffs)
        value = hw.lseries.eval_euler(curve, EULER_S, EULER_PMAX)
        return {"real": value.real, "imag": value.imag}, len(self.primes)

    def invariants(self, coeffs, out) -> list[str]:
        return checks.euler_bracket(coeffs, out["real"], out["imag"], EULER_S, self.primes)


class Rank(Workload):
    """BSD report of the rank-2 curve 389a with its two generators."""

    name = "rank"
    unit = "reports"
    trace_requests = 1

    def setup(self, hw, seed: int):
        self.load_reference()
        return itertools.repeat(RANK_ARGV)

    def request(self, hw, argv):
        return cli_json(hw, list(argv)), 1

    def key(self, argv) -> str:
        return " ".join(argv)

    def invariants(self, argv, report) -> list[str]:
        problems = []
        for field, want in (("N", 389), ("w", 1), ("rank_analytic", 2)):
            if report.get(field) != want:
                problems.append(f"{field}: got {report.get(field)!r}, want {want!r}")
        sha = report["sha_predicted"]["value"]
        if not abs(sha - 1) < 1e-4:
            problems.append(f"sha_predicted: got {sha!r}, want 1 within 1e-4")
        return problems


class Scan(Workload):
    """One warm context for 389a, Lambda(1 + it) at seeded grid points t."""

    name = "scan"
    unit = "points"
    trace_requests = 8

    def setup(self, hw, seed: int):
        self.load_reference()
        self.ctx = hw.analytic.AnalyticContext(hw.curves.WeierstrassCurve(*SCAN_CURVE))
        self.w = self.ctx.w
        return gen.scan_points(seed)

    def request(self, hw, k):
        value = hw.analytic.lambda_value(self.ctx, complex(1, k / gen.SCAN_DENOM))
        return {"real": float(value.value.real), "imag": float(value.value.imag),
                "n_max": self.ctx.n_max, "w": self.w}, 1

    def key(self, k) -> str:
        return str(k)

    def invariants(self, k, out) -> list[str]:
        problems = []
        if (out["n_max"], out["w"]) != (234, 1):
            problems.append(f"context: n_max {out['n_max']}, w {out['w']}; want 234, 1")
        # Lambda(1+it) = w conj(Lambda(1+it)) for real coefficients, so w = +1
        # makes it real
        if abs(out["imag"]) > 1e-10 * abs(out["real"]):
            problems.append(f"Lambda(1+{k}i/{gen.SCAN_DENOM}) not real: {out['imag']}")
        return problems


WORKLOADS = {w.name: w for w in (Table, Euler, Rank, Scan)}



def rank2_share() -> float:
    """Share of recorded catalog curves of analytic rank >= 2 (left out of `table`)."""
    ranks = [ref["rank"]["rank_analytic"] for ref in load_reference("table").values()]
    return sum(r >= 2 for r in ranks) / len(ranks) if ranks else 0.0
