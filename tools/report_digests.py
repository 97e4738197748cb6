"""Digest of every report the benchmark workloads and a set of documents make, to compare two checkouts.

Usage, from the repository root:

    python3 tools/report_digests.py OUT.json
    python3 tools/report_digests.py --diff PARENT.json CHANGE.json

For the four workloads of ``perfbench/workloads.py`` at seeds 1 and 2, every
item runs its solve, certify and third (analyze or graph) step the way the
benchmark does, through ``workloads.Runner``, and OUT.json maps
``workload/seed/item/step`` to ``"<exit code> <sha1 of the report text>"``.
The ``many_blocks`` items are library calls; their report text is every
float of the eigenpair, bracket trace, residual and certificate data in
``float.hex``, so the digest sees the last bit.  Every step runs even after
a non-zero exit, and a step that raises is recorded by its exception.
OUT.json also maps ``documents/<name>/<step>`` to the exit code and sha1 of
the analyze, solve, graph and certify reports (certify reads the solve
report) of every document in ``tests/data/certificates.json``, one per map
family, and of the documents in ``EXTRA_DOCS``, which no workload has: an
explicit start vector, a continuation on its own schedule, a sparse order-4
``tensor_eigen``, a rectangular ``pq_singular`` with p != q and a
single-entry row, a reducible ``linear``, a continuation whose inner
solve fails, and four maps whose plain power steps stall: the period-2
``linear`` ``[[0, .27], [.99, 0]]``, a 3-cycle permutation ``linear`` from
a random start, ``singular`` of the 2 x 2 identity from a random start,
and ``linear`` ``[[2, 0], [0, 1]]``, whose eigenvector lies on the
boundary.  Four more carry the flags that the closure rule of ``maps``
derives into a report: a ``hadamard`` with a ``nonirr`` part (inexact
homogeneity, the analyze note), a ``weighted_sum`` under max-norms (not
differentiable, certify's kink test), a ``compose`` with a ``dual`` part
(the open-cone domain), and a one-block ``tight`` from a random start (the
full-length spread of its block power).  Three sit on both sides of the
complete-pattern rule of ``_digraph``, at sizes no workload has: a positive
60 x 60 ``linear`` (a complete pattern of L, no search), the same matrix
with one off-diagonal zero (searched), and ``singular`` of a positive
20 x 30 matrix (a bipartite L, searched).  Three end inside a block of the
power loop, which runs steps back to back and checks them together: the
Jordan block ``[[1, 1], [0, 1]]`` cut at ``"max_iter": 37``, a long
strict-contraction ``pq_singular`` solve at ``"tol": 1e-14`` from a random
start, and a continuation of a block-cyclic ``linear`` map on the shifts
1e-13 down to 2.5e-14, whose first inner solve switches to lazy steps at
step 87.
One overflows: a ``compose`` of ``pq_singular`` (p = q = 1.01) over
``singular``, whose graph probe at t = 1e6 is not finite.  Four take the
fallback of the CLI's dense reader, numpy's own reading: a ``linear`` whose
matrix holds the strings ``"2"`` (read as numbers), one that holds
``true``, a ragged matrix and a ragged ``tensor_eigen`` tensor (both
refused).  A step that
raises ``InstanceError`` is recorded as exit 2, its error line the report
text, as the command line ends it.
Each document, and each workload item that runs through the CLI (all but
``many_blocks``), also has a ``canonical`` key: the text of
``dump_json(canonical_instance(parse_instance(doc)))``, which pins the
report writer on every matrix and tensor of the documents.
OUT.json also maps ``demos/<stem>`` to ``"<exit code> <sha1 of its stdout>"``
for every ``demos/*.py``, each run in a subprocess with this interpreter and
a ``PYTHONPATH`` that puts the ``mhspectral`` used above first, so ``--diff``
also checks that a change leaves the demo output as it was.

``mhspectral`` is imported from ``PYTHONPATH`` when that holds it, else from
this checkout's ``src/``; stderr names the one used.  To list the reports a
change moves, run the script once against each side and compare the files:

    git archive --prefix=parent/ HEAD~1 | tar -x -C /tmp
    PYTHONPATH=/tmp/parent/src python3 tools/report_digests.py parent.json
    python3 tools/report_digests.py change.json
    python3 tools/report_digests.py --diff parent.json change.json

``--diff`` prints one line per key whose digest differs, or that only one
file has, with the exit code on each side (``raised`` for a step that raised,
``-`` for a missing key), and exits 1 when it printed any line, else 0.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # as the benchmark pins it

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.append(str(ROOT / "src"))

import numpy as np  # noqa: E402

import mhspectral  # noqa: E402
import mhspectral.cli  # noqa: E402  (workloads.Runner reads lib.cli)
import workloads  # noqa: E402

SEEDS = (1, 2)

# one document per map family, three with explicit weights
CERTIFICATES = ROOT / "tests" / "data" / "certificates.json"


def _sparse_tensor(n: int, order: int, entries: dict) -> list:
    """The nested lists of an order-``order`` tensor of side n, zero but at ``entries``."""
    T = np.zeros((n,) * order)
    for index, value in entries.items():
        T[index] = value
    return T.tolist()


def _positive(m: int, n: int) -> list:
    """An m x n matrix of entries in [1/17, 1], all positive, from a fixed formula."""
    i, j = np.ogrid[:m, :n]
    return (((7 * i + 13 * j + i * j) % 17 + 1) / 17).tolist()


def _one_zero(M: list, i: int, j: int) -> list:
    M = copy.deepcopy(M)
    M[i][j] = 0.0
    return M


# [[0, B], [C, 0]], B and C near the identity: irreducible of period 2, with
# a slow transient before the plain steps' bracket gap stalls (at step 87)
_BLOCK_CYCLIC = [[0, 0, 0, 1.21, 0.12, 0.07], [0, 0, 0, 0.06, 1.26, 0.28], [0, 0, 0, 0.21, 0.24, 1.19],
                 [1.28, 0.26, 0.06, 0, 0, 0], [0.27, 1.07, 0.24, 0, 0, 0], [0.1, 0.27, 1.19, 0, 0, 0]]

_LINEAR_1234 = {"family": "linear", "params": {"matrix": [[1, 2], [3, 4]]}}
_LINEAR_2111 = {"family": "linear", "params": {"matrix": [[2, 1], [1, 1]]}}

EXTRA_DOCS = {
    "explicit-x0": {
        "map": {"family": "motivating"},
        "weights": [0.25, 1.0],
        "solver": {"x0": [[1.0, 2.0], [3.0, 1.0]]},
    },
    "custom-schedule": {
        "map": {"family": "linear", "params": {"matrix": [[1, 1], [0, 1]]}},
        "solver": {
            "method": "continuation",
            "max_iter": 20000,
            "delta_schedule": {"delta0": 2.0, "factor": 0.25, "floor": 1e-4},
        },
    },
    "sparse-order-4-tensor": {
        "map": {
            "family": "tensor_eigen",
            "params": {"tensor": _sparse_tensor(3, 4, {(0, 1, 1, 2): 1.0, (0, 0, 2, 2): 0.5, (1, 2, 0, 0): 2.0,
                                                       (2, 0, 0, 1): 1.5, (2, 2, 2, 2): 0.25}), "p": 5},
        },
    },
    "rectangular-pq-single-entry-row": {
        "map": {"family": "pq_singular", "params": {"matrix": [[1, 0, 0], [0.5, 2, 1]], "p": 3, "q": 4}},
    },
    "reducible-linear": {
        "map": {"family": "linear", "params": {"matrix": [[1, 1, 0], [1, 1, 0], [0, 0, 2]]}},
    },
    "continuation-failed-inner-solve": {
        "map": {"family": "singular", "params": {"matrix": [[1, 2], [3, 1]]}},
        "weights": [1, 2],
        "solver": {"method": "continuation", "max_iter": 1},
    },
    "period-2-linear": {
        "map": {"family": "linear", "params": {"matrix": [[0, 0.27], [0.99, 0]]}},
    },
    "three-cycle-random-start": {
        "map": {"family": "linear", "params": {"matrix": [[0, 1, 0], [0, 0, 1], [1, 0, 0]]}},
        "solver": {"x0": "random"},
    },
    "singular-identity-random-start": {
        "map": {"family": "singular", "params": {"matrix": [[1, 0], [0, 1]]}},
        "solver": {"x0": "random"},
    },
    "boundary-eigenvector-linear": {
        "map": {"family": "linear", "params": {"matrix": [[2, 0], [0, 1]]}},
    },
    "hadamard-nonirr": {
        "map": {"family": "hadamard", "params": {"left": {"family": "nonirr"}, "right": {"family": "motivating"}}},
        "weights": [0.5, 0.5],
    },
    "weighted-sum-max-norm": {
        "map": {"family": "weighted_sum", "params": {"left": _LINEAR_1234, "right": _LINEAR_2111, "d_matrix": [[1]]}},
        "norms": [{"p": "inf"}],
    },
    "compose-dual-part": {
        "map": {"family": "compose", "params": {"outer": {"family": "dual", "params": {"base": _LINEAR_1234}},
                                                "inner": _LINEAR_2111}},
    },
    "one-block-tight": {
        "map": {"family": "tight", "params": {"exponents": [[0.5]], "sizes": [3]}},
        "solver": {"x0": "random"},
    },
    "positive-linear-60": {
        "map": {"family": "linear", "params": {"matrix": _positive(60, 60)}},
    },
    "positive-linear-60-one-zero": {
        "map": {"family": "linear", "params": {"matrix": _one_zero(_positive(60, 60), 0, 59)}},
    },
    "positive-singular-20x30": {
        "map": {"family": "singular", "params": {"matrix": _positive(20, 30)}},
    },
    "jordan-max-iter-37": {
        "map": {"family": "linear", "params": {"matrix": [[1, 1], [0, 1]]}},
        "solver": {"max_iter": 37},
    },
    "pq-singular-tol-1e-14": {
        "map": {"family": "pq_singular", "params": {"matrix": [[1, 0.5, 0.25, 0.2], [0.3, 1, 0.6, 0.1],
                                                               [0.2, 0.4, 1, 0.7]], "p": 2.2, "q": 2.1}},
        "norms": [{"p": 2.2}, {"p": 2.1}],
        "solver": {"tol": 1e-14, "x0": "random"},
    },
    "continuation-lazy-mid-run": {
        "map": {"family": "linear", "params": {"matrix": _BLOCK_CYCLIC}},
        "solver": {"method": "continuation", "delta_schedule": {"delta0": 1e-13, "factor": 0.5, "floor": 2.5e-14}},
    },
    "graph-probe-overflow": {
        "map": {
            "family": "compose",
            "params": {
                "outer": {"family": "pq_singular", "params": {"matrix": [[1, 2], [3, 4]], "p": 1.01, "q": 1.01}},
                "inner": {"family": "singular", "params": {"matrix": [[1, 2], [3, 4]]}},
            },
        },
    },
    "string-entries-linear": {
        "map": {"family": "linear", "params": {"matrix": [["2", 1], [1, "2"]]}},
    },
    "boolean-entry-linear": {
        "map": {"family": "linear", "params": {"matrix": [[True, 1], [1, 1]]}},
    },
    "ragged-matrix-linear": {
        "map": {"family": "linear", "params": {"matrix": [[1, 2], [3]]}},
    },
    "ragged-tensor-eigen": {
        "map": {"family": "tensor_eigen", "params": {"tensor": [[[1, 1], [1, 1]], [[1, 1], [1]]], "p": 3}},
    },
}

DOCUMENT_STEPS = ("analyze", "solve", "graph", "certify")


def _hex(values) -> str:
    return " ".join(float(v).hex() for v in np.ravel(np.asarray(values, dtype=float)))


def _value(v) -> str:
    if isinstance(v, (float, np.floating)):
        return float(v).hex()
    return repr(v)


def _certificate_text(cert) -> str:
    data = " ".join(f"{k}={_value(v)}" for k, v in cert.data.items())
    return f"certificate {cert.kind} {data}"


def _library_text(step: str, result) -> str:
    """The library outputs of one ``many_blocks`` step as text, floats in hex."""
    if step == "certify":
        cert, res = result
        return f"{_certificate_text(cert)}\nresidual {_value(res)}\n"
    rep, cert = result
    lines = [f"status {rep.status}", f"iterations {rep.iterations}", f"messages {rep.messages!r}",
             f"residual {_value(rep.residual)}", f"bracket_trace {_hex(rep.bracket_trace)}"]
    if rep.eigenpair is not None:
        ep = rep.eigenpair
        lines += [f"x {_hex(ep.x.flat)}", f"lam {_hex(ep.lam)}", f"r_b {_value(ep.r_b)}"]
    lines.append(_certificate_text(cert))
    return "\n".join(lines) + "\n"


def item_digests(runner, item) -> dict:
    docs = [runner.prepare(item) for _ in range(3)]
    out, solved = {}, None
    for step in ("solve", "certify", item.third):
        if step is None:
            continue
        try:
            if step == "solve":
                code, result, _ = runner.solve(item, docs[0])
                solved = result
            elif step == "certify":
                code, result, _ = runner.certify(item, docs[1], solved)
            else:
                code, result, _ = runner.third_step(item, docs[2])
        except Exception as exc:  # recorded, so a raise shows up in the diff
            out[step] = f"raised {type(exc).__name__}: {exc}"
            continue
        text = result if isinstance(result, str) else _library_text(step, result)
        out[step] = f"{code} {hashlib.sha1(text.encode()).hexdigest()}"
    if item.third is not None:
        out["canonical"] = canonical_digest(runner.prepare(item))
    return out


def canonical_digest(doc: dict) -> str:
    """``"<exit code> <sha1>"`` of the canonical instance text, ``dump_json(canonical_instance(parse_instance(doc)))``."""
    cli = mhspectral.cli
    try:
        text = cli.dump_json(cli.canonical_instance(cli.parse_instance(copy.deepcopy(doc))))
    except cli.InstanceError as exc:  # the command's exit 2, its error line the text
        code, text = 2, f"error: {exc}\n"
    except Exception as exc:  # recorded, so a raise shows up in the diff
        return f"raised {type(exc).__name__}: {exc}"
    else:
        code = 0
    return f"{code} {hashlib.sha1(text.encode()).hexdigest()}"


def document_digests() -> dict:
    """``documents/<name>/<step>`` -> ``"<exit code> <sha1 of the report text>"``."""
    cli = mhspectral.cli
    docs = {name: entry["doc"] for name, entry in json.loads(CERTIFICATES.read_text()).items()}
    docs.update(EXTRA_DOCS)
    out = {}
    for name, doc in docs.items():
        solved = "null"  # certify of a solve that raised fails on its report
        for step in DOCUMENT_STEPS:
            key = f"documents/{name}/{step}"
            try:
                if step == "certify":
                    code, report = cli.run_certify(copy.deepcopy(doc), json.loads(solved))
                else:
                    code, report = getattr(cli, f"run_{step}")(copy.deepcopy(doc))
            except cli.InstanceError as exc:  # the command's exit 2, its error line the text
                code, text = 2, f"error: {exc}\n"
            except Exception as exc:  # recorded, so a raise shows up in the diff
                out[key] = f"raised {type(exc).__name__}: {exc}"
                continue
            else:
                text = cli.dump_json(report)
                if step == "solve":
                    solved = text
            out[key] = f"{code} {hashlib.sha1(text.encode()).hexdigest()}"
        out[f"documents/{name}/canonical"] = canonical_digest(doc)
    return out


def demo_digests() -> dict:
    """``demos/<stem>`` -> ``"<exit code> <sha1 of stdout>"`` for every demo script."""
    paths = [str(Path(mhspectral.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    out = {}
    for path in sorted((ROOT / "demos").glob("*.py")):
        proc = subprocess.run([sys.executable, str(path)], capture_output=True, env=env, cwd=ROOT)
        out[f"demos/{path.stem}"] = f"{proc.returncode} {hashlib.sha1(proc.stdout).hexdigest()}"
    return out


def _exit_code(digest) -> str:
    if digest is None:
        return "-"
    return "raised" if digest.startswith("raised ") else digest.split(" ", 1)[0]


def diff(parent: dict, change: dict) -> list[str]:
    """``key: parent exit -> change exit`` for every key whose digest differs."""
    return [
        f"{key}: {_exit_code(parent.get(key))} -> {_exit_code(change.get(key))}"
        for key in sorted(parent.keys() | change.keys())
        if parent.get(key) != change.get(key)
    ]


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--diff":
        lines = diff(*(json.loads(Path(p).read_text()) for p in argv[1:]))
        for line in lines:
            print(line)
        print(f"{len(lines)} reports differ", file=sys.stderr)
        return 1 if lines else 0
    if len(argv) != 1 or argv[0].startswith("--"):
        print("\n".join(line.strip() for line in __doc__.strip().splitlines()[4:6]), file=sys.stderr)
        return 2
    print(f"mhspectral from {Path(mhspectral.__file__).parent}", file=sys.stderr)
    digests = {}
    for workload in workloads.GENERATORS:
        for seed in SEEDS:
            runner = workloads.Runner(mhspectral)
            for item in workloads.generate(workload, seed):
                for step, digest in item_digests(runner, item).items():
                    digests[f"{workload}/{seed}/{item.name}/{step}"] = digest
    digests.update(document_digests())
    digests.update(demo_digests())
    Path(argv[0]).write_text(json.dumps(digests, indent=0) + "\n")
    print(f"{len(digests)} reports -> {argv[0]}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
