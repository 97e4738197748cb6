"""Per-item oracle checks, run after each pass and outside every timed region.

``check`` returns the list of problems found with one item's outputs; an
empty list means the item passed.  The checks are:

- ``linear``: r_b against the largest |eig| from ``numpy.linalg.eigvals``
  (computed at generation time), to relative 1e-8;
- ``singular``: r_b against sigma_1 from ``numpy.linalg.svd``, same tolerance;
- every other family: ``cw_bounds`` at the returned eigenvector brackets r_b
  to within 10 * tol;
- every solve, and every certify of a plain power solve: the residual is at
  most 10 * tol;
- continuation: ``r_extrapolated`` equals the known limit;
- the certificate kind of solve and certify equals the generator's kind;
- analyze: rho(A), regime, irreducibility and primitivity of A;
- graph: edge count, strong connectivity and the existence condition.

An item on ``Oracle.EXPECTED_FAILURES`` that ends with exactly its documented
shortfall report still fails (it counts in ``failed``), but its problem is
marked as expected, so it does not make the run's outputs incorrect.  Any
other report from it is an unexpected failure, and a correct converged
answer passes.
"""

from __future__ import annotations

import json
import math

REL_TOL = 1e-8
EXPECTED = "expected failure: "  # prefix of the problem an expected failure reports


def _close(value, ref, tol) -> bool:
    return value is not None and abs(value - ref) <= tol


class Oracle:
    # Known shortfalls of the program, by item name.  Each such item is
    # counted as failed on every pass until the program is fixed.
    EXPECTED_FAILURES = {
        "defective-default": "the default DeltaSchedule ends at max_iter after 36 400 iterations, exit 3",
    }

    @staticmethod
    def unexpected(problems: list[str]) -> list[str]:
        return [p for p in problems if not p.startswith(EXPECTED)]

    def __init__(self, lib, runner):
        self.lib = lib
        self.runner = runner
        self._maps = {}

    def _map(self, item):
        if item.third is None:
            return self.runner.library_map(item)[0]
        if item.name not in self._maps:
            self._maps[item.name] = self.lib.cli.parse_instance(json.loads(item.doc_text)).map
        return self._maps[item.name]

    def _bracket(self, item, x_blocks, weights, r_b, tol) -> list[str]:
        x = self.lib.cones.ProductVector(x_blocks)
        lo, hi = self.lib.solver.cw_bounds(self._map(item), x, weights)
        eps = 10.0 * tol
        if not (lo * (1.0 - eps) <= r_b <= hi * (1.0 + eps)):
            return [f"cw_bounds [{lo:.17g}, {hi:.17g}] do not bracket r_b={r_b:.17g}"]
        if hi > lo * (1.0 + eps):
            return [f"cw_bounds [{lo:.17g}, {hi:.17g}] wider than 10*tol"]
        return []

    def _eigen(self, item, x_blocks, weights, r_b) -> list[str]:
        e = item.expect
        kind = e["oracle"]
        if kind in ("eig", "svd"):
            if not _close(r_b, e["ref"], REL_TOL * e["ref"]):
                return [f"r_b={r_b!r} differs from the {kind} reference {e['ref']!r}"]
            return []
        if kind == "cw":
            return self._bracket(item, x_blocks, weights, r_b, e["tol"])
        return []

    def check(self, item, outcome: dict) -> list[str]:
        if outcome.get("error"):
            return [outcome["error"]]
        if item.third is None:
            return self._check_library(item, outcome)
        return self._check_cli(item, outcome)

    def _check_cli(self, item, outcome) -> list[str]:
        e = item.expect
        code, text = outcome["solve"]
        rep = json.loads(text)
        if code == 3 and item.name in self.EXPECTED_FAILURES:
            # the documented shortfall: exit 3 with status max_iter and a message
            if rep["status"] != "max_iter" or not any("failed to close" in m for m in rep["messages"]):
                return [f"exit 3 without the max_iter shortfall report (status {rep['status']})"]
            return [f"{EXPECTED}solve exit 3, status max_iter after {rep['iterations']} iterations"]
        if code != 0:
            return [f"solve exit {code} (status {rep['status']})"]
        problems = self._eigen(item, rep["eigenvector"], rep["weights"], rep["r_b"])
        if e["oracle"] == "extrapolated" and not _close(rep.get("r_extrapolated"), e["limit"], e["limit_tol"]):
            problems.append(f"r_extrapolated={rep.get('r_extrapolated')!r} is not the limit {e['limit']!r}")
        if not rep["residual"] <= 10.0 * e["tol"]:
            problems.append(f"residual {rep['residual']!r} exceeds 10*tol")
        kind = (rep["certificate"] or {}).get("kind")
        if kind != e["cert"]:
            problems.append(f"solve certificate {kind!r}, expected {e['cert']!r}")
        if outcome["certify"] is None:
            return problems + ["certify step did not run"]
        code, text = outcome["certify"]
        certified = json.loads(text)
        kind = certified["certificate"]["kind"]
        if code != 0 or kind != e["cert"]:
            problems.append(f"certify exit {code} kind {kind!r}, expected {e['cert']!r}")
        problems += self._certify_residual(e, certified["residual"])
        if outcome["third"] is None:
            return problems + [f"{item.third} step did not run"]
        code, text = outcome["third"]
        if code != 0:
            return problems + [f"{item.third} exit {code}"]
        report = json.loads(text)
        if item.third == "analyze":
            problems += self._check_analyze(e["analyze"], report)
        else:
            problems += self._check_graph(e["graph"], report)
        return problems

    @staticmethod
    def _check_analyze(e, rep) -> list[str]:
        problems = []
        if not _close(rep["rho"], e["rho"], REL_TOL * max(e["rho"], 1.0)):
            problems.append(f"analyze rho={rep['rho']!r}, expected {e['rho']!r}")
        got = (rep["regime"], rep["A_irreducible"], rep["A_primitive"])
        want = (e["regime"], e["irreducible"], e["primitive"])
        if got != want:
            problems.append(f"analyze (regime, irreducible, primitive) = {got}, expected {want}")
        return problems

    @staticmethod
    def _check_graph(e, rep) -> list[str]:
        got = (len(rep["edges"]), rep["strongly_connected"], rep["existence_condition"])
        want = (e["edges"], e["strongly_connected"], e["existence"])
        return [] if got == want else [f"graph (edges, strongly_connected, existence) = {got}, expected {want}"]

    def _check_library(self, item, outcome) -> list[str]:
        e = item.expect
        code, (rep, cert) = outcome["solve"]
        if code != 0 or rep.eigenpair is None:
            return [f"library solve ended {rep.status}"]
        pair = rep.eigenpair
        problems = self._eigen(item, [list(b) for b in pair.x.blocks], rep.weights, pair.r_b)
        if not rep.residual <= 10.0 * e["tol"]:
            problems.append(f"residual {rep.residual!r} exceeds 10*tol")
        if cert.kind != e["cert"]:
            problems.append(f"solve certificate {cert.kind!r}, expected {e['cert']!r}")
        code, (cert2, res) = outcome["certify"]
        if cert2.kind != e["cert"]:
            problems.append(f"certify kind {cert2.kind!r}, expected {e['cert']!r}")
        return problems + self._certify_residual(e, res)

    @staticmethod
    def _certify_residual(e, res) -> list[str]:
        # a continuation pair belongs to the smallest shifted map, not to F
        bound = math.inf if e["oracle"] == "extrapolated" else 10.0 * e["tol"]
        return [] if res <= bound else [f"certify residual {res!r} exceeds {bound:g}"]
