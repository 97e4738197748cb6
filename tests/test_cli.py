"""Instance parsing, report serialization, exit codes, and CLI pipelines."""

import copy
import json
import math
import pathlib
import re

import numpy as np
import pytest

from mhspectral import graphs, homogeneity
from mhspectral.cli import (
    InstanceError,
    canonical_instance,
    dump_json,
    main,
    parse_instance,
    run_analyze,
    run_certify,
    run_graph,
    run_solve,
)

MOTIVATING_DOC = {
    "map": {"family": "motivating", "params": {}},
    "norms": [{"p": 2}, {"p": 2}],
    "weights": [0.25, 1.0],
    "solver": {"tol": 1e-10, "seed": 0, "x0": "uniform"},
}

def _write(tmp_path, name, doc):
    """Write doc as JSON, or a str as the document's text."""
    path = tmp_path / name
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)

class TestParsing:
    def test_shape_consistency_check(self):
        doc = copy.deepcopy(MOTIVATING_DOC)
        doc["shape"] = {"sizes": [2, 3]}
        with pytest.raises(InstanceError, match="disagree"):
            parse_instance(doc)

    def test_unknown_family_positioned_error(self):
        with pytest.raises(InstanceError, match=r"\$\.map"):
            parse_instance({"map": {"family": "nope"}})

    def test_nested_families(self):
        doc = {
            "map": {
                "family": "shifted",
                "params": {"base": {"family": "motivating", "params": {}}, "delta": 0.5},
            },
            "norms": [{"p": 2}, {"p": 2}],
        }
        inst = parse_instance(doc)
        assert inst.map.label.startswith("shifted(")

    def test_inf_norm_selector(self):
        doc = {
            "map": {"family": "max_example", "params": {"eps": 0.3}},
            "norms": [{"p": "inf"}],
        }
        inst = parse_instance(doc)
        assert inst.config.norms.selectors[0] == ("p", math.inf)

    def test_round_trip_idempotent(self):
        c1 = dump_json(canonical_instance(parse_instance(copy.deepcopy(MOTIVATING_DOC))))
        c2 = dump_json(canonical_instance(parse_instance(json.loads(c1))))
        assert c1 == c2

    def test_round_trip_over_drawn_documents(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        positive = st.floats(0.05, 3.0)

        def block(k):
            return st.lists(positive, min_size=k, max_size=k)

        def maybe(data, key, strategy, out):
            if data.draw(st.booleans(), f"has {key}"):
                out[key] = data.draw(strategy, key)

        @hypothesis.settings(max_examples=40, deadline=None)
        @hypothesis.given(st.data())
        def check(data):
            n = data.draw(st.integers(1, 3), "n")
            matrix = st.lists(block(n), min_size=n, max_size=n)
            family = data.draw(st.sampled_from(["linear", "pq_singular", "max_example", "motivating"]))
            params = {
                "linear": st.fixed_dictionaries({"matrix": matrix}),
                "pq_singular": st.fixed_dictionaries(
                    {"matrix": matrix, "p": st.floats(1.5, 5.0), "q": st.floats(1.5, 5.0)}
                ),
                "max_example": st.fixed_dictionaries({"eps": st.floats(0.01, 0.99)}),
                "motivating": st.just({}),
            }[family]
            map_doc = {"family": family, "params": data.draw(params, "params")}
            sizes = parse_instance({"map": map_doc}).map.shape.sizes
            doc = {"map": map_doc}
            if data.draw(st.booleans(), "shape"):
                doc["shape"] = {"sizes": list(sizes)}
            selectors = [
                st.sampled_from([{"p": "inf"}, {"p": 1}, {"p": 2}]),
                st.fixed_dictionaries({"p": st.floats(1.0, 6.0)}),
            ]
            doc["norms"] = [data.draw(st.one_of(*selectors, st.fixed_dictionaries({"phi": block(k)}))) for k in sizes]
            maybe(data, "weights", block(len(sizes)), doc)
            solver = {}
            maybe(data, "tol", st.floats(1e-14, 1e-3), solver)
            maybe(data, "max_iter", st.integers(1, 10**6), solver)
            maybe(data, "seed", st.integers(0, 2**31), solver)
            maybe(data, "method", st.sampled_from(["power", "continuation"]), solver)
            x0 = st.tuples(*map(block, sizes)).map(list)
            maybe(data, "x0", st.one_of(st.sampled_from(["uniform", "random"]), x0), solver)
            schedule = st.fixed_dictionaries(
                {}, optional={"delta0": positive, "factor": st.floats(0.1, 0.9), "floor": st.floats(1e-10, 1e-3)}
            )
            maybe(data, "delta_schedule", schedule, solver)
            doc["solver"] = solver
            c1 = dump_json(canonical_instance(parse_instance(copy.deepcopy(doc))))
            c2 = dump_json(canonical_instance(parse_instance(json.loads(c1))))
            assert c1 == c2

        check()

_MOTIVATING = {"family": "motivating"}
_FULL_PARAMS = {
    "linear": {"matrix": [[1, 2], [3, 4]]},
    "singular": {"matrix": [[1, 2], [3, 4]]},
    "pq_singular": {"matrix": [[1, 2], [3, 4]], "p": 3, "q": 3},
    "tensor_eigen": {"tensor": [[[1, 1], [1, 1]], [[1, 1], [1, 1]]], "p": 3},
    "max_example": {"eps": 0.3},
    "tight": {"exponents": [[0.5, 0.2], [0.1, 0.4]], "sizes": [2, 2]},
    "compose": {"outer": _MOTIVATING, "inner": _MOTIVATING},
    "hadamard": {"left": _MOTIVATING, "right": _MOTIVATING},
    "weighted_sum": {"left": _MOTIVATING, "right": _MOTIVATING, "d_matrix": [[0, 2], [0.125, 0]]},
    "shifted": {"base": _MOTIVATING, "delta": 0.5},
    "dual": {"base": _MOTIVATING},
}
_ALL_FAMILIES = (
    "('linear', 'singular', 'pq_singular', 'tensor_eigen', 'max_example', 'motivating', "
    "'nonirr', 'irrex', 'tight', 'compose', 'hadamard', 'weighted_sum', 'shifted', 'dual')"
)


_LINEAR_2X2 = {"family": "linear", "params": {"matrix": [[1, 2], [3, 4]]}}


class TestParseErrors:
    @pytest.mark.parametrize("family", sorted(_FULL_PARAMS))
    def test_full_params_parse(self, family):
        parse_instance({"map": {"family": family, "params": copy.deepcopy(_FULL_PARAMS[family])}})

    @pytest.mark.parametrize(
        "family,field",
        [(fam, key) for fam in sorted(_FULL_PARAMS) for key in _FULL_PARAMS[fam]],
    )
    def test_missing_param_names_path_and_field(self, family, field):
        params = copy.deepcopy(_FULL_PARAMS[family])
        del params[field]
        with pytest.raises(InstanceError) as err:
            parse_instance({"map": {"family": family, "params": params}})
        assert str(err.value) == f"$.map.params: missing required field '{field}'"

    def test_nested_missing_param(self):
        inner = {"family": "tight", "params": {"sizes": [2, 2]}}
        doc = {"map": {"family": "compose", "params": {"outer": _MOTIVATING, "inner": inner}}}
        with pytest.raises(InstanceError) as err:
            parse_instance(doc)
        assert str(err.value) == "$.map.params.inner.params: missing required field 'exponents'"

    def test_non_matrix_matrix(self):
        with pytest.raises(InstanceError) as err:
            parse_instance({"map": {"family": "linear", "params": {"matrix": [1, 2, 3]}}})
        assert str(err.value) == "$.map.params: expected a matrix (list of rows)"
        with pytest.raises(InstanceError) as err:
            parse_instance({"map": {"family": "linear", "params": {"matrix": "abc"}}})
        assert str(err.value) == "$.map.params: expected a dense numeric matrix"

    def test_list_valued_family(self):
        with pytest.raises(InstanceError) as err:
            parse_instance({"map": {"family": ["linear"]}})
        assert str(err.value) == f"$.map: unknown family '['linear']'; expected one of {_ALL_FAMILIES}"

    def test_unknown_family_full_message(self):
        with pytest.raises(InstanceError) as err:
            parse_instance({"map": {"family": "nope"}})
        assert str(err.value) == f"$.map: unknown family 'nope'; expected one of {_ALL_FAMILIES}"

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"map": {"family": "tight", "params": {"exponents": [[0.5]], "sizes": [2.7]}}},
             "$.map.params.sizes: expected a finite integer, got 2.7"),
            ({"map": _LINEAR_2X2, "shape": {"sizes": [2.9]}},
             "$.shape.sizes: expected a finite integer, got 2.9"),
            ({"map": {"family": "shifted", "params": {"base": _LINEAR_2X2, "delta": True}}},
             "$.map.params.delta: expected a finite number, got True"),
            ({"map": {"family": "tensor_eigen", "params": {"tensor": [[[1, 1], [1, 1]]] * 2, "p": "2"}}},
             "$.map.params.p: expected a finite number, got '2'"),
            ({"map": _LINEAR_2X2, "norms": [{"p": True}]}, "$.norms[0].p: expected a finite number, got True"),
            ({"map": _LINEAR_2X2, "norms": [{"phi": [True, 1]}]},
             "$.norms[0].phi: expected a list of numbers, got [True, 1]"),
            # numeric strings in the short number lists
            ({"map": _LINEAR_2X2, "norms": [{"phi": ["1", "2"]}]},
             "$.norms[0].phi: expected a list of numbers, got ['1', '2']"),
            ({"map": {"family": "motivating"}, "weights": ["0.5", "1"]},
             "$.weights: weights must be 'auto' or a list of numbers, one per block"),
            ({"map": {"family": "motivating"}, "solver": {"x0": [["1", "2"], [1, 2]]}},
             "$.solver.x0: x0 must be 'uniform', 'random', or explicit blocks of numbers"),
        ],
    )
    def test_bools_strings_and_fractions_are_not_numbers(self, tmp_path, capsys, doc, message):
        # each was once read as a number (a size of 2, a delta or a 1-norm of 1, a p of 2, a phi,
        # weights or a start of the numbers in its strings)
        with pytest.raises(InstanceError) as err:
            parse_instance(copy.deepcopy(doc))
        assert str(err.value) == message
        assert main(["solve", _write(tmp_path, "bad.json", doc)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("p", ["inf", "Infinity", math.inf])
    def test_max_norm_spellings_parse(self, p):
        inst = parse_instance({"map": _LINEAR_2X2, "norms": [{"p": p}]})
        assert inst.config.norms.selectors[0] == ("p", math.inf)

    def test_weighted_sum_norms_error_names_map_path(self):
        params = copy.deepcopy(_FULL_PARAMS["weighted_sum"])
        with pytest.raises(InstanceError) as err:
            parse_instance({"map": {"family": "weighted_sum", "params": params}, "norms": [{"p": 2}]})
        assert str(err.value).startswith("$.map (norms): norms must list one selector per block")


class TestAnalyze:
    def test_motivating_regime(self):
        code, rep = run_analyze(copy.deepcopy(MOTIVATING_DOC))
        assert code == 0
        assert rep["regime"] == "strict_contraction"
        assert abs(rep["rho"] - 0.5) < 1e-12
        assert abs(rep["lipschitz_bound"] - 0.5) < 1e-12

    def test_identity_linear_non_expansive(self):
        code, rep = run_analyze(
            {"map": {"family": "linear", "params": {"matrix": [[1, 0], [0, 1]]}}}
        )
        assert rep["regime"] == "non_expansive"

    def test_expansive_tight_map_refuses_solve(self):
        doc = {
            "map": {
                "family": "tight",
                "params": {"exponents": [[1.2, 0.3], [0.1, 1.1]], "sizes": [2, 2]},
            }
        }
        code, rep = run_analyze(copy.deepcopy(doc))
        assert rep["regime"] == "expansive"
        assert any("refused" in n for n in rep["notes"])
        with pytest.raises(InstanceError, match="hypothesis"):
            run_solve(copy.deepcopy(doc))

class TestSolve:
    def test_motivating_report(self):
        code, rep = run_solve(copy.deepcopy(MOTIVATING_DOC))
        assert code == 0
        assert rep["status"] == "converged"
        assert abs(rep["r_b"] - 2 ** (5 / 16)) < 1e-9
        assert rep["certificate"]["kind"] == "contraction"
        assert len(rep["eigenvector"]) == 2

    def test_determinism_bit_identical(self):
        doc = copy.deepcopy(MOTIVATING_DOC)
        doc["solver"]["x0"] = "random"
        doc["solver"]["seed"] = 42
        t1 = dump_json(run_solve(copy.deepcopy(doc))[1])
        t2 = dump_json(run_solve(copy.deepcopy(doc))[1])
        assert t1 == t2
        # a report made with the per-A memo cold equals one made with it warm
        doc["weights"] = "auto"
        singular = {"map": {"family": "singular", "params": {"matrix": [[1, 2, 0], [0, 1, 3]]}}}
        for case in (doc, singular):
            for run in (run_analyze, run_solve):
                homogeneity._MEMO.clear()
                cold = dump_json(run(copy.deepcopy(case))[1])
                assert homogeneity._MEMO
                assert dump_json(run(copy.deepcopy(case))[1]) == cold
            solved = json.loads(cold)
            homogeneity._MEMO.clear()
            cold = dump_json(run_certify(copy.deepcopy(case), solved)[1])
            assert dump_json(run_certify(copy.deepcopy(case), solved)[1]) == cold

    def test_max_iter_exit_code(self):
        doc = {
            "map": {"family": "linear", "params": {"matrix": [[1, 1], [0, 1]]}},
            "solver": {"max_iter": 50, "x0": "random", "seed": 3},
        }
        code, rep = run_solve(doc)
        assert code == 3 and rep["status"] == "max_iter"

    def test_explicit_x0_blocks(self):
        doc = copy.deepcopy(MOTIVATING_DOC)
        doc["solver"]["x0"] = [[1.0, 2.0], [3.0, 1.0]]
        code, rep = run_solve(doc)
        assert code == 0 and rep["status"] == "converged"
        assert abs(rep["r_b"] - 2 ** (5 / 16)) < 1e-9

    def test_continuation_method(self):
        doc = {
            "map": {"family": "linear", "params": {"matrix": [[1, 1], [0, 1]]}},
            "solver": {
                "method": "continuation",
                "max_iter": 20000,
                "delta_schedule": {"delta0": 1.0, "factor": 0.5, "floor": 1e-4},
            },
        }
        code, rep = run_solve(doc)
        assert code == 0
        assert "delta_trace" in rep and len(rep["delta_trace"]) >= 10

    def test_bracket_beyond_the_double_range_is_infinity(self):
        # weight 800 on a 1e10 ratio: exp(800 * ln 1e10) overflows a double
        doc = {
            "map": {"family": "linear", "params": {"matrix": [[1, 1], [1, 1]]}},
            "weights": [800],
            "solver": {"x0": [[1, 1e-10]]},
        }
        code, rep = run_solve(doc)
        assert code == 0 and rep["status"] == "converged"
        assert rep["bracket_trace"][0][1] == math.inf
        text = dump_json(rep)
        assert "Infinity" in text and json.loads(text)["bracket_trace"][0][1] == math.inf

    def test_bracket_trace_logged_only_when_debug_is_on(self, monkeypatch):
        import logging

        from mhspectral import cli

        calls = []
        monkeypatch.setattr(cli.log, "debug", lambda *a: calls.append(a))
        level = cli.log.level
        try:
            cli.log.setLevel(logging.ERROR)
            assert run_solve(copy.deepcopy(MOTIVATING_DOC))[0] == 0
            assert calls == []
            cli.log.setLevel(logging.DEBUG)
            code, rep = run_solve(copy.deepcopy(MOTIVATING_DOC))
        finally:
            cli.log.setLevel(level)
        assert len(calls) == len(rep["bracket_trace"]) > 0
        assert calls[0][1:] == (0, *rep["bracket_trace"][0])


class TestGraphCommand:
    def test_nonirr_verdicts(self):
        code, rep = run_graph({"map": {"family": "nonirr", "params": {}}})
        assert rep["existence_condition"] is True
        assert rep["strongly_connected"] is False
        assert len(rep["edges"]) == 6

    def test_positive_matrix_graph_step_takes_no_search(self, monkeypatch):
        # the index graph of a positive matrix is complete: both verdicts
        # are read from one P.all(), and no successor list is built
        from mhspectral import _digraph

        calls = []
        successors = _digraph._successors
        monkeypatch.setattr(_digraph, "_successors", lambda P: calls.append(P.shape) or successors(P))
        i, j = np.ogrid[:60, :60]
        positive = (((7 * i + 13 * j + i * j) % 17 + 1) / 17).tolist()
        code, rep = run_graph({"map": {"family": "linear", "params": {"matrix": positive}}})
        assert code == 0 and rep["strongly_connected"] is True and rep["existence_condition"] is True
        assert calls == []
        positive[0][59] = 0.0  # one zero entry: the same step searches
        code, rep = run_graph({"map": {"family": "linear", "params": {"matrix": positive}}})
        assert rep["strongly_connected"] is True and rep["existence_condition"] is True
        assert calls == [(60, 60), (60, 60)]

    def test_nonirr_dual_self_loops(self):
        code, rep = run_graph({"map": {"family": "nonirr", "params": {}}}, dual=True)
        assert rep["edges"] == [[[0, 0], [0, 0]], [[0, 1], [0, 1]]]

    def test_max_example_both_true(self):
        code, rep = run_graph({"map": {"family": "max_example", "params": {"eps": 0.3}}})
        assert rep["strongly_connected"] is True
        assert rep["existence_condition"] is True

    def test_probed_primal_graph_without_edges_says_probed(self):
        # dual(F) stays bounded as one coordinate grows: F_k(1/x) keeps its
        # other positive terms
        base = {"family": "linear", "params": {"matrix": [[1, 2], [3, 4]]}}
        code, rep = run_graph({"map": {"family": "dual", "params": {"base": base}}})
        assert code == 0 and rep["edges"] == [] and rep["mode"] == "probed"

    def test_probed_dual_graph_without_edges_says_probed(self):
        # a positive matrix product never vanishes as one coordinate goes to 0
        lin = {"family": "linear", "params": {"matrix": [[1, 2], [3, 4]]}}
        doc = {"map": {"family": "compose", "params": {"outer": lin, "inner": lin}}}
        code, rep = run_graph(doc, dual=True)
        assert code == 0 and rep["edges"] == [] and rep["mode"] == "probed"


GRAPH_GOLDEN = pathlib.Path(__file__).resolve().parent / "data" / "graph_reports.json"
# The golden reports come from run_graph of the former edge-tuple index graphs,
# which said "oracle" for a probed graph without edges.  These two reports are
# such graphs; their mode line is the only one that reads "probed" now.
_MODE_MENDED = {("compose", "dual"), ("dual", "primal")}


class TestGraphGolden:
    """run_graph reproduces the stored reports of one document per family, byte for byte."""

    def test_every_family_has_a_golden_document(self):
        from mhspectral.cli import _FAMILIES

        assert list(json.loads(GRAPH_GOLDEN.read_text())) == list(_FAMILIES)

    @pytest.mark.parametrize("kind", ["primal", "dual"])
    def test_reports_match(self, kind):
        for family, entry in json.loads(GRAPH_GOLDEN.read_text()).items():
            want = entry[kind]
            if (family, kind) in _MODE_MENDED:
                assert '"edges": []' in want
                want = want.replace('"mode": "oracle"', '"mode": "probed"')
                assert want != entry[kind]
            _, report = run_graph(copy.deepcopy(entry["doc"]), dual=kind == "dual")
            assert dump_json(report) == want, (family, kind)


CERT_GOLDEN = pathlib.Path(__file__).resolve().parent / "data" / "certificates.json"


class TestCertificateGolden:
    """Certificate kinds and rho_L of one solve + certify document per family.

    The stored values come from the dense ``spectral_radius`` of L.  Where the
    Collatz-Wielandt enclosure now decides rho(L) = 1, rho_L is its midpoint,
    within 1e-9 of the stored value; every kind is unchanged.
    """

    def test_every_family_has_a_golden_document(self):
        from mhspectral.cli import _FAMILIES

        assert list(json.loads(CERT_GOLDEN.read_text())) == list(_FAMILIES)

    def test_kinds_and_rho_L_match(self):
        for family, entry in json.loads(CERT_GOLDEN.read_text()).items():
            _, solved = run_solve(copy.deepcopy(entry["doc"]))
            _, certified = run_certify(copy.deepcopy(entry["doc"]), json.loads(dump_json(solved)))
            for step, report in (("solve", solved), ("certify", certified)):
                cert, want = report["certificate"], entry[step]
                assert cert["kind"] == want["kind"], (family, step)
                rho_L = cert["data"].get("rho_L")
                if want["rho_L"] is None:
                    assert rho_L is None, (family, step)
                else:
                    assert abs(rho_L - want["rho_L"]) <= 1e-9, (family, step)


class TestCertifyCommand:
    def test_motivating(self):
        _, solve_rep = run_solve(copy.deepcopy(MOTIVATING_DOC))
        _, rep = run_certify(copy.deepcopy(MOTIVATING_DOC), solve_rep)
        assert rep["certificate"]["kind"] == "contraction"

    def test_irrex_dirr(self):
        doc = {
            "map": {"family": "irrex", "params": {}},
            "weights": [0.5, 0.5],
            "solver": {"x0": "random", "seed": 7},
        }
        _, solve_rep = run_solve(copy.deepcopy(doc))
        _, rep = run_certify(copy.deepcopy(doc), solve_rep)
        cert = rep["certificate"]
        assert cert["kind"] == "dirr"
        assert (cert["data"]["block"], cert["data"]["tau"]) == (0, 2)
        assert cert["data"]["df_irreducible"] is False

    def test_linear_positive(self):
        doc = {
            "map": {"family": "linear", "params": {"matrix": [[1, 2], [3, 4]]}},
        }
        _, solve_rep = run_solve(copy.deepcopy(doc))
        _, rep = run_certify(copy.deepcopy(doc), solve_rep)
        assert rep["certificate"]["kind"] == "jacobian_irreducible"

    def test_boundary_report_runs_maximality_comparison(self):
        doc = {"map": {"family": "max_example", "params": {"eps": 0.3}}}
        fake_report = {
            "eigenvector": [[1.0, 0.3, 0.0]],
            "lambda": [1.0],
            "weights": [1.0],
        }
        # (1, 0.3, 0) is not an eigenvector, but certify must still report the
        # boundary-versus-interior eigenvalue-product comparison
        _, rep = run_certify(copy.deepcopy(doc), fake_report)
        assert "maximality" in rep
        assert "interior_product" in rep["maximality"]

    def test_zero_eigenvalue_gives_zero_boundary_product(self):
        doc = {"map": {"family": "linear", "params": {"matrix": [[0, 1], [0, 1]]}}}
        report = {"eigenvector": [[1, 0]], "lambda": [0], "weights": [1]}
        _, rep = run_certify(copy.deepcopy(doc), report)
        assert rep["maximality"]["boundary_product"] == 0.0
        assert '"boundary_product": 0,' in dump_json(rep)


# the probe of node (0, 0) at t = 1e6 overflows the outer map
GRAPH_OVERFLOW_DOC = {
    "map": {
        "family": "compose",
        "params": {
            "outer": {"family": "pq_singular", "params": {"matrix": [[1, 2], [3, 4]], "p": 1.01, "q": 1.01}},
            "inner": {"family": "singular", "params": {"matrix": [[1, 2], [3, 4]]}},
        },
    }
}
_LINEAR_1234 = {"family": "linear", "params": {"matrix": [[1, 2], [3, 4]]}}


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestNumericalShortfalls:
    """Documents that parse but overflow end with an error line or a status: no traceback, no warning."""

    def test_graph_probe_overflow_exits_two(self, tmp_path, capsys):
        assert main(["graph", _write(tmp_path, "g.json", GRAPH_OVERFLOW_DOC)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: graph probe failed: non-finite evaluation probing (0, 0) at t=1e+06\n"

    def test_build_graph_still_raises(self):
        F = parse_instance(copy.deepcopy(GRAPH_OVERFLOW_DOC)).map
        with pytest.raises(ValueError, match=r"non-finite evaluation probing \(0, 0\) at t=1e\+06"):
            graphs.build_graph(F)

    @pytest.mark.parametrize(
        "base, report, reason",
        [
            # L = DF(u) / 1e-310 overflows
            (
                _LINEAR_1234,
                {"eigenvector": [[0.5, 0.8]], "lambda": [1e-310], "weights": [1.0]},
                "no rho(lambda^{-1} DF(u)): matrix must be nonnegative and finite",
            ),
            # differencing F at 1e308 overflows
            (
                {"family": "shifted", "params": {"delta": 0.001, "base": _LINEAR_1234}},
                {"eigenvector": [[1e308, 1e308]], "lambda": [1.0]},
                "no Jacobian at the eigenvector: non-finite evaluations while differencing near u",
            ),
            # L is finite, but its Collatz-Wielandt quotient overflows
            (_LINEAR_1234, {"eigenvector": [[1e-300, 1.0]], "lambda": [1e-300]}, "rho(lambda^{-1} DF(u)) is not 1"),
            # F(u) - lambda u is inf - inf: the residual is NaN
            (_LINEAR_1234, {"eigenvector": [[1e-320, 1e308]], "lambda": [1e300]}, "rho(lambda^{-1} DF(u)) is not 1"),
        ],
    )
    def test_certify_overflow_gives_none(self, tmp_path, capsys, base, report, reason):
        inst = _write(tmp_path, "inst.json", {"map": base})
        assert main(["certify", inst, _write(tmp_path, "report.json", report)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        cert = json.loads(out)["certificate"]
        assert cert["kind"] == "none" and cert["data"]["rho_A"] == 1.0 and cert["data"]["reason"] == reason


_PLAIN = {dict, list, str, int, float, bool, type(None)}


def _not_plain(obj, path="$"):
    """The paths in a report whose value is of a type outside _PLAIN (a numpy scalar, say)."""
    if type(obj) not in _PLAIN:
        yield path
    if type(obj) is dict:
        for key, value in obj.items():
            yield from _not_plain(value, f"{path}.{key}")
    elif type(obj) is list:
        for k, value in enumerate(obj):
            yield from _not_plain(value, f"{path}[{k}]")


class TestPlainReports:
    @pytest.mark.parametrize("family", ["linear", "motivating", "irrex", "shifted"])
    def test_reports_hold_plain_values_only(self, family):
        doc = json.loads(CERT_GOLDEN.read_text())[family]["doc"]
        _, analyzed = run_analyze(copy.deepcopy(doc))
        _, solved = run_solve(copy.deepcopy(doc))
        _, certified = run_certify(copy.deepcopy(doc), solved)
        assert analyzed["weights"] is not None and solved["eigenvector"] is not None
        for report in (analyzed, solved, certified):
            assert list(_not_plain(report)) == []


def _set(report, key, value):
    report[key] = value
    return report


def _set_entry(report, key, index, value):
    report[key][index] = value
    return report


def _set_block_entry(report, value):
    report["eigenvector"][1][0] = value
    return report


class TestMalformedSolveReport:
    """certify exits 2 with one error line naming the report path at fault."""

    @pytest.mark.parametrize(
        "path, mutate",
        [
            ("$report", lambda rep: [rep]),
            ("$report.lambda", lambda rep: _set_entry(rep, "lambda", 0, "big")),
            ("$report.eigenvector", lambda rep: _set_block_entry(rep, "x")),
            ("$report.eigenvector", lambda rep: _set(rep, "eigenvector", rep["eigenvector"][:1])),
            ("$report.eigenvector", lambda rep: _set_entry(rep, "eigenvector", 0, [1.0])),
            ("$report.lambda", lambda rep: _set(rep, "lambda", rep["lambda"] + [1.0])),
            ("$report.weights", lambda rep: _set(rep, "weights", [1.0])),
            ("$report.eigenvector", lambda rep: _set_block_entry(rep, -0.5)),
            ("$report.lambda", lambda rep: _set_entry(rep, "lambda", 1, math.nan)),
            ("$report.weights", lambda rep: _set(rep, "weights", [-0.25, 1.0])),
        ],
        ids=[
            "list",
            "non-numeric-lambda",
            "non-numeric-eigenvector",
            "eigenvector-blocks",
            "eigenvector-block-length",
            "lambda-length",
            "weights-length",
            "negative-eigenvector",
            "nan-lambda",
            "negative-weights",
        ],
    )
    def test_exits_two(self, tmp_path, capsys, path, mutate):
        _, report = run_solve(copy.deepcopy(MOTIVATING_DOC))
        report = mutate(json.loads(dump_json(report)))
        inst = _write(tmp_path, "inst.json", MOTIVATING_DOC)
        bad = tmp_path / "report.json"
        bad.write_text(json.dumps(report))
        assert main(["certify", inst, str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err

    def test_boundary_eigenvector_of_an_interior_map(self, tmp_path, capsys):
        doc = {"map": {"family": "dual", "params": {"base": {"family": "motivating"}}}}
        report = {"eigenvector": [[1.0, 0.0], [1.0, 1.0]], "lambda": [1.0, 1.0]}
        inst = _write(tmp_path, "inst.json", doc)
        assert main(["certify", inst, _write(tmp_path, "report.json", report)]) == 2
        assert capsys.readouterr().err.startswith("error: $report.eigenvector: ")


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and runs the tasks in this process."""

    def __init__(self, made, max_workers):
        made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return list(map(fn, items))


class TestJobs:
    @pytest.fixture
    def made(self, monkeypatch):
        import concurrent.futures

        made = []
        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", lambda max_workers: _RecordingPool(made, max_workers)
        )
        return made

    @pytest.mark.parametrize("docs, jobs, workers", [(2, "64", [2]), (3, "2", [2]), (1, "8", []), (2, "1", [])])
    def test_at_most_one_worker_per_document(self, tmp_path, capsys, made, docs, jobs, workers):
        inst = _write(tmp_path, "batch.json", [MOTIVATING_DOC] * docs)
        assert main(["analyze", inst, "--jobs", jobs]) == 0
        assert made == workers
        assert capsys.readouterr().out.count('"regime"') == docs

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_fewer_than_one_job_exits_two(self, tmp_path, capsys, made, jobs):
        inst = _write(tmp_path, "batch.json", [MOTIVATING_DOC] * 2)
        with pytest.raises(SystemExit) as exc:
            main(["analyze", inst, "--jobs", jobs])
        assert exc.value.code == 2 and not made
        assert "--jobs must be at least 1" in capsys.readouterr().err


class TestMainEntry:
    def test_end_to_end_solve_and_out_file(self, tmp_path, capsys):
        inst = _write(tmp_path, "inst.json", MOTIVATING_DOC)
        out = tmp_path / "report.json"
        code = main(["solve", inst, "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["status"] == "converged"
        assert capsys.readouterr().out.strip().startswith("{")

    def test_graph_text_output(self, tmp_path, capsys):
        inst = _write(tmp_path, "n.json", {"map": {"family": "nonirr", "params": {}}})
        code = main(["graph", inst, "--dual"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert lines[0] == "0,0 -> 0,0"
        assert "strongly_connected: false" in lines

    def test_parse_failure_exit_two(self, tmp_path, capsys):
        inst = _write(tmp_path, "bad.json", {"map": {"family": "nope"}})
        assert main(["solve", inst]) == 2

    @pytest.mark.parametrize("argv", [["solve", "{bad}"], ["certify", "{good}", "{bad}"]])
    def test_file_that_is_not_utf8_exits_two(self, tmp_path, capsys, argv):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"map": {"family": "motivating"}, "x": "\xff"}')
        good = _write(tmp_path, "good.json", MOTIVATING_DOC)
        assert main([a.format(bad=bad, good=good) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and "utf-8" in err and err.count("\n") == 1, err

    @staticmethod
    def _exits_two_everywhere(tmp_path, capsys, doc, path: str):
        """Every command exits 2 on doc with one error line that names path."""
        inst = _write(tmp_path, "bad.json", doc)
        report = _write(tmp_path, "report.json", {})
        for argv in (["analyze", inst], ["solve", inst], ["graph", inst], ["certify", inst, report]):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err
        return err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("tol", "abc"),
            ("tol", math.nan),
            ("max_iter", math.nan),
            ("max_iter", "many"),
            ("seed", "x"),
            ("seed", -1),
            ("delta_schedule.delta0", math.inf),
            ("delta_schedule.factor", "half"),
            ("delta_schedule.floor", math.nan),
            ("x0", 5),
            ("x0", [[1, 2], ["a", 3]]),
            ("x0", [[1, 2], [3]]),
            ("x0", [[1, 2, 3]]),
            ("x0", [[1, math.inf], [3, 1]]),
            ("x0", [[0, 0], [3, 1]]),
            # JSON booleans and strings are not numbers, and a count is integral
            ("tol", True),
            ("tol", "1e-3"),
            ("max_iter", 2.5),
            ("max_iter", "7"),
            ("max_iter", False),
            ("seed", 1.9),
            ("seed", "3"),
            ("seed", True),
            ("delta_schedule.floor", "1e-8"),
            ("delta_schedule.delta0", True),
            # an explicit start must be strictly positive
            ("x0", [[0, 1], [3, 1]]),
            ("x0", [[1, -1], [3, 1]]),
            # JSON booleans in a start vector are not 0 and 1
            ("x0", [[True, True], [1, 2]]),
            ("x0", [[1.0, 2.0], [3.0, False]]),
        ],
    )
    def test_malformed_solver_setting_exits_two(self, tmp_path, capsys, key, value):
        doc = copy.deepcopy(MOTIVATING_DOC)
        *outer, last = key.split(".")
        settings = doc["solver"]
        for name in outer:
            settings = settings.setdefault(name, {})
        settings[last] = value
        self._exits_two_everywhere(tmp_path, capsys, doc, f"$.solver.{key}")

    @pytest.mark.parametrize("method", ["power", "continuation"])
    @pytest.mark.parametrize(
        "schedule",
        [{"factor": 3}, {"factor": 1.0}, {"delta0": 1e-9, "floor": 1e-8}, {"factor": 1.0 - 1e-12}],
    )
    def test_malformed_delta_schedule_exits_two(self, tmp_path, capsys, schedule, method):
        # refused by every command, whatever the method
        doc = copy.deepcopy(MOTIVATING_DOC)
        doc["solver"].update(method=method, delta_schedule=schedule)
        self._exits_two_everywhere(tmp_path, capsys, doc, "$.solver.delta_schedule")

    @pytest.mark.parametrize("settings", [{"tol": 0}, {"tol": -1e-3}, {"max_iter": 0}, {"max_iter": -5}])
    def test_unmeetable_solver_setting_exits_two(self, tmp_path, capsys, settings):
        doc = copy.deepcopy(MOTIVATING_DOC)
        doc["solver"].update(settings)
        self._exits_two_everywhere(tmp_path, capsys, doc, "$.solver")

    @pytest.mark.parametrize(
        "weights", [[1.0], [1.0, 0.0], [1.0, -2.0], "heavy", 1.0, True, None, {"a": 1}, [True, True], [1.0, True]]
    )
    def test_malformed_weights_exit_two(self, tmp_path, capsys, weights):
        doc = copy.deepcopy(MOTIVATING_DOC)
        doc["weights"] = weights
        self._exits_two_everywhere(tmp_path, capsys, doc, "$.weights")

    def test_phi_of_another_length_than_its_block_exits_two(self, tmp_path, capsys):
        # certify once raised the norm kernel's ValueError uncaught
        doc = {"map": {"family": "motivating"}, "norms": [{"phi": [1, 1, 1]}, {"p": 2}]}
        err = self._exits_two_everywhere(tmp_path, capsys, doc, "$.norms")
        assert "phi weight length mismatch in block 0" in err

    def test_boolean_tolerance_is_not_a_converged_solve(self, tmp_path, capsys):
        # "tol": true once read as 1.0 and stopped after one step, above rho
        doc = {"map": {"family": "linear", "params": {"matrix": [[1, 2], [3, 1]]}}, "solver": {"tol": True}}
        err = self._exits_two_everywhere(tmp_path, capsys, doc, "$.solver.tol")
        assert err == "error: $.solver.tol: expected a finite number, got True\n"

    @pytest.mark.parametrize("sizes", [["a", 2], 5, [2, None]])
    def test_malformed_shape_sizes_exit_two(self, tmp_path, capsys, sizes):
        doc = {"map": {"family": "motivating"}, "shape": {"sizes": sizes}}
        self._exits_two_everywhere(tmp_path, capsys, doc, "$.shape.sizes")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "where, build",
        [
            ("$.map.params", lambda v: {"map": {"family": "linear", "params": {"matrix": [[v, 1], [1, 1]]}}}),
            ("$.map.params", lambda v: {"map": {"family": "singular", "params": {"matrix": [[1, 1], [v, 1]]}}}),
            (
                "$.map.params",
                lambda v: {"map": {"family": "pq_singular", "params": {"matrix": [[1, v]], "p": 3, "q": 3}}},
            ),
            (
                "$.map.params",
                lambda v: {"map": {"family": "tensor_eigen", "params": {"tensor": [[1, 1], [1, v]], "p": 2}}},
            ),
            ("$.norms", lambda v: {"map": {"family": "motivating"}, "norms": [{"phi": [1, v]}, {"p": 2}]}),
            ("$.weights", lambda v: {"map": {"family": "motivating"}, "weights": [v, 1.0]}),
        ],
    )
    def test_non_finite_map_parameter_exits_two(self, tmp_path, capsys, where, build, bad):
        err = self._exits_two_everywhere(tmp_path, capsys, build(bad), where)
        # explicit weights are checked by SolverConfig: "strictly positive and finite"
        assert re.search(r"must be (strictly positive and )?finite", err), err

    @pytest.mark.parametrize("delta", ["Infinity", "1e400"])
    def test_non_finite_shift_exits_two(self, tmp_path, capsys, delta):
        # json reads 1e400 as inf
        text = (
            '{"map": {"family": "shifted", "params": {"delta": %s, '
            '"base": {"family": "linear", "params": {"matrix": [[1, 1], [0, 1]]}}}}}' % delta
        )
        err = self._exits_two_everywhere(tmp_path, capsys, text, "$.map.params")
        assert err == "error: $.map.params: delta must be positive and finite\n"

    def test_batch_with_jobs(self, tmp_path, capsys):
        docs = [copy.deepcopy(MOTIVATING_DOC), {"map": {"family": "irrex", "params": {}}, "weights": [0.5, 0.5]}]
        inst = _write(tmp_path, "batch.json", docs)
        code = main(["solve", inst, "--jobs", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count('"status"') == 2

    def test_seed_override_changes_start(self, tmp_path, capsys):
        doc = copy.deepcopy(MOTIVATING_DOC)
        doc["solver"]["x0"] = "random"
        inst = _write(tmp_path, "seeded.json", doc)
        main(["solve", inst, "--seed", "1"])
        out1 = capsys.readouterr().out
        main(["solve", inst, "--seed", "1"])
        out2 = capsys.readouterr().out
        assert out1 == out2

    def test_negative_seed_override_is_refused_by_the_parser(self, tmp_path, capsys):
        inst = _write(tmp_path, "inst.json", MOTIVATING_DOC)
        for command in ("analyze", "solve", "graph"):
            with pytest.raises(SystemExit) as exc:
                main([command, inst, "--seed", "-3"])
            err = capsys.readouterr().err
            assert exc.value.code == 2
            assert "--seed must be nonnegative, got -3" in err and "$.solver" not in err

    @pytest.mark.parametrize("argv", [[], ["--seed", "3"]])
    def test_empty_batch_prints_an_empty_list(self, tmp_path, capsys, argv):
        inst = _write(tmp_path, "empty.json", [])
        for command in ("analyze", "solve", "graph"):
            assert main([command, inst, *argv]) == 0
            assert capsys.readouterr().out == "[]\n"

    @pytest.mark.parametrize(
        "doc, error",
        [
            ([{"map": {"family": "motivating"}}, 7], "$: instance must be a JSON object"),
            ({"map": {"family": "motivating"}, "solver": 5}, "$.solver: solver settings must be an object"),
            ([{"map": {"family": "motivating"}, "solver": [1]}], "$.solver: solver settings must be an object"),
        ],
    )
    def test_seed_override_leaves_malformed_documents_to_the_parser(self, tmp_path, capsys, doc, error):
        inst = _write(tmp_path, "bad.json", doc)
        for argv in (["solve", inst], ["solve", inst, "--seed", "3"]):
            assert main(argv) == 2, argv
            assert capsys.readouterr().err == f"error: {error}\n"

    def test_overflowing_block_norm_exits_four(self, tmp_path, capsys):
        doc = {"map": {"family": "linear", "params": {"matrix": [[1e308, 1e308], [1e308, 1e308]]}}}
        inst = _write(tmp_path, "huge.json", doc)
        assert main(["solve", inst]) == 4
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "diverged" and report["lambda"] is None
        assert report["messages"] == ["block norm overflowed"]

    def test_a_schedule_of_too_many_shifts_exits_two(self, tmp_path, capsys):
        doc = {
            "map": {"family": "linear", "params": {"matrix": [[1.0, 1.0], [0.0, 1.0]]}},
            "solver": {"method": "continuation", "delta_schedule": {"factor": 1.0 - 1e-12}},
        }
        inst = _write(tmp_path, "long.json", doc)
        assert main(["solve", inst]) == 2
        assert "shifts, more than 10000" in capsys.readouterr().err

    def test_log_env_levels(self, tmp_path, capsys, monkeypatch):
        inst = _write(tmp_path, "inst.json", MOTIVATING_DOC)
        for level in ("error", "info", "trace"):
            monkeypatch.setenv("MHSPECTRAL_LOG", level)
            assert main(["analyze", inst]) == 0
            capsys.readouterr()

    def test_float_lists_print_like_single_floats(self):
        import numpy as np

        vals = [0.1, -0.0, 0.0, 1e-300, 5e-324, 1.7976931348623157e308]
        vals += [math.inf, -math.inf, math.nan, 2.0**0.5]
        # plain floats are formatted in place, numpy floats through the
        # recursive call: both must print the same, in lists and tuples
        fast = dump_json(vals)
        assert dump_json([np.float64(v) for v in vals]) == fast
        assert dump_json(vals + [1]) == fast[: -3] + ",\n  1\n]\n"
        assert dump_json(tuple(vals)) == fast
        assert fast.splitlines()[1:4] == ["  0.10000000000000001,", "  -0,", "  0,"]
        assert fast.splitlines()[7:10] == ["  Infinity,", "  -Infinity,", "  NaN,"]
        assert dump_json({"t": [[1.5, 2.5]]}) == '{\n  "t": [\n    [\n      1.5,\n      2.5\n    ]\n  ]\n}\n'

    def test_int_lists_print_like_single_ints(self):
        import numpy as np

        # plain ints are formatted in place; bools and numpy ints are not
        # plain ints and take the recursive call
        assert dump_json([3, -1, 0]) == "[\n  3,\n  -1,\n  0\n]\n"
        assert dump_json([np.int64(3), np.int32(-1), 0]) == dump_json([3, -1, 0])
        assert dump_json([True, False, 1]) == "[\n  true,\n  false,\n  1\n]\n"
        assert dump_json([[0, 1], [2, 3]]) == dump_json([[np.int64(0), 1], (2, np.int8(3))])

    def test_int_list_fast_path_matches_the_general_path(self, monkeypatch):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        import numpy as np

        from mhspectral import cli

        def general(obj, level):
            with monkeypatch.context() as m:
                m.setattr(cli, "_encode_plain_list", lambda *args: None)
                return cli._encode(obj, level)

        def refill(x, leaf):
            return [refill(v, leaf) for v in x] if isinstance(x, list) else leaf()

        def leaf_paths(x, path=()):
            if not isinstance(x, list):
                return [path]
            return [p for i, v in enumerate(x) for p in leaf_paths(v, path + (i,))]

        shapes = st.recursive(st.integers(), lambda ch: st.lists(ch, max_size=4), max_leaves=12)
        intruders = st.sampled_from([
            None, True, False, np.int64(7), np.int32(-3), np.uint8(2), np.float64(0.5),
            math.nan, math.inf, -math.inf,
        ])

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(shapes, st.integers(1, 5), st.randoms(use_true_random=False), intruders,
                          st.booleans(), st.booleans(), st.integers(0, 3))
        def check(shape, n, rnd, intruder, floats, ragged, level):
            if floats:
                leaf = lambda: rnd.choice([-0.0, 0.0, 1e-300, 1e300, 5e-324]) * rnd.uniform(-2, 2)
            else:
                leaf = lambda: rnd.randint(-(2**70), 2**70)
            obj = [refill(shape, leaf) for _ in range(n)]
            ragged = ragged and n > 1 and isinstance(obj[-1], list)
            if ragged:
                obj[-1].append(leaf())
            paths = leaf_paths(obj)
            if intruder is None and paths and rnd.random() < 0.3:
                # an int among floats or a float among ints
                intruder = 3 if floats else 2.5
            if intruder is not None and paths:
                path = rnd.choice(paths)
                target = obj
                for i in path[:-1]:
                    target = target[i]
                target[path[-1]] = intruder
            else:
                intruder = None
            fast = cli._encode_plain_list(obj, level)
            assert cli._encode(obj, level) == general(obj, level)
            # a plain finite float or int as the only leaf makes a valid plain list
            lone_plain = (
                len(paths) == 1 and type(intruder) in (int, float) and math.isfinite(intruder)
            )
            if intruder is not None and not lone_plain:
                # bools, numpy scalars, non-finite floats and mixed leaves never take it
                assert fast is None
            elif fast is not None:
                assert fast == general(obj, level)

        check()
        edges = [[[0, k], [1, -k]] for k in range(50)]
        assert cli._encode_plain_list(edges, 1) == general(edges, 1)
        assert cli._encode_plain_list([7, -8, 2**80], 0) == general([7, -8, 2**80], 0)
        trace = [[1.0 / (k + 1), -0.0 if k % 2 else 2.0**-1074] for k in range(50)]
        assert cli._encode_plain_list(trace, 1) == general(trace, 1)
        for bad in ([[1.0, math.inf]], [[math.nan, 1.0]], [[1.0, 2]]):
            assert cli._encode_plain_list(bad, 1) is None
        huge = [[1.5e308, 1.5e308]]  # a sum that overflows takes the general path
        assert cli._encode(huge, 1) == general(huge, 1)

    def test_17_digit_floats_round_trip(self):
        values = {"a": 2 ** (5 / 16), "b": 0.1 + 0.2, "c": 1.0 / 3.0}
        text = dump_json(values)
        assert "0.30000000000000004" in text  # needs all 17 significant digits
        assert json.loads(text) == values  # bit-exact reload
