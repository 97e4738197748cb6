"""Instance parsing, report serialization, exit codes, and CLI pipelines."""

import copy
import json
import math
import pathlib

import pytest

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
    path = tmp_path / name
    path.write_text(json.dumps(doc))
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
        assert inst.norms.selectors[0] == ("p", math.inf)

    def test_round_trip_idempotent(self):
        c1 = dump_json(canonical_instance(parse_instance(copy.deepcopy(MOTIVATING_DOC))))
        c2 = dump_json(canonical_instance(parse_instance(json.loads(c1))))
        assert c1 == c2

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

    def test_max_iter_exit_code(self):
        doc = {
            "map": {"family": "singular", "params": {"matrix": [[1, 0], [0, 1]]}},
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
                return cli._encode(obj, 2, level)

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
            fast = cli._encode_plain_list(obj, 2, level)
            assert cli._encode(obj, 2, level) == general(obj, level)
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
        assert cli._encode_plain_list(edges, 2, 1) == general(edges, 1)
        assert cli._encode_plain_list([7, -8, 2**80], 2, 0) == general([7, -8, 2**80], 0)
        trace = [[1.0 / (k + 1), -0.0 if k % 2 else 2.0**-1074] for k in range(50)]
        assert cli._encode_plain_list(trace, 2, 1) == general(trace, 1)
        for bad in ([[1.0, math.inf]], [[math.nan, 1.0]], [[1.0, 2]]):
            assert cli._encode_plain_list(bad, 2, 1) is None
        huge = [[1.5e308, 1.5e308]]  # a sum that overflows takes the general path
        assert cli._encode(huge, 2, 1) == general(huge, 1)

    def test_17_digit_floats_round_trip(self):
        values = {"a": 2 ** (5 / 16), "b": 0.1 + 0.2, "c": 1.0 / 3.0}
        text = dump_json(values)
        assert "0.30000000000000004" in text  # needs all 17 significant digits
        assert json.loads(text) == values  # bit-exact reload
