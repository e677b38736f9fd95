import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mexkit import cli, oracle
from mexkit.graphs import graph_from_edges, format_edge_list, parse_edge_list


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestScalarCommands:
    def test_mex_exact_bytes(self, capsys):
        code, out, _ = run(capsys, "mex", "--m", "25", "--s", "3", "--r", "3", "--format", "json")
        assert code == 0
        assert out == '{"m":25,"s":3,"r":3,"value":22}\n'

    def test_mex_at_huge_m(self, capsys):
        code, out, _ = run(capsys, "mex", "--m", "1000000000000000000", "--s", "5", "--r", "7")
        assert code == 0
        assert out == (
            '{"m":1000000000000000000,"s":5,"r":7,'
            '"value":10391328090445474684967734727491266115841929}\n'
        )

    def test_ex(self, capsys):
        code, out, _ = run(capsys, "ex", "--n", "6", "--t", "3", "--r", "3")
        assert code == 0
        assert json.loads(out) == {"n": 6, "t": 3, "r": 3, "value": 8}

    def test_bound(self, capsys):
        code, out, _ = run(capsys, "bound", "--m", "6", "--s", "3")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(4.0)

    def test_constants(self, capsys):
        code, out, _ = run(capsys, "constants", "--r", "3", "--s", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["beta_square"] == "4/3"
        assert payload["c_square"] == "1/27"

    def test_mex_profile_csv(self, capsys):
        code, out, _ = run(capsys, "mex", "--profile", "--m-max", "3", "--s", "3", "--r", "3")
        assert code == 0
        assert out.splitlines() == ["m,value", "1,0", "2,0", "3,1"]

    def test_deterministic_output(self, capsys):
        first = run(capsys, "search", "mex", "--m", "5", "--s", "3", "--forbid-clique", "4")
        second = run(capsys, "search", "mex", "--m", "5", "--s", "3", "--forbid-clique", "4")
        assert first == second


class TestConstruct:
    def test_ct_emits_figure_edges(self, capsys):
        code, out, _ = run(capsys, "construct", "ct", "--r", "3", "--m", "25")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 25
        got = {tuple(sorted(map(int, line.split()))) for line in lines}
        assert {(1, 9), (2, 9), (4, 9), (5, 9)} <= got

    def test_edges_round_trip(self, capsys):
        code, out, _ = run(capsys, "construct", "turan", "--r", "3", "--n", "7")
        g = parse_edge_list(out)
        assert g.edge_count == 16

    def test_gadget_json_reports_attachment(self, capsys):
        code, out, _ = run(
            capsys, "construct", "gadget", "--r", "3", "--m", "24", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["attach_count"] == 3
        assert payload["m"] == 24

    def test_blowup_from_file(self, capsys, tmp_path):
        path = tmp_path / "k3.edges"
        path.write_text(format_edge_list(graph_from_edges([(1, 2), (1, 3), (2, 3)])))
        code, out, _ = run(capsys, "construct", "blowup", "--input", str(path), "--t", "2")
        assert code == 0
        assert parse_edge_list(out).edge_count == 12


class TestCount:
    def test_count_t(self, capsys, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("1 2\n1 3\n2 3\n3 4\n")
        code, out, _ = run(capsys, "count", "--input", str(path), "--t", "3")
        assert json.loads(out)["value"] == 1

    def test_profile_and_degrees(self, capsys, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("1 2\n1 3\n2 3\n")
        code, out, _ = run(capsys, "count", "--input", str(path), "--profile")
        assert json.loads(out)["profile"] == [3, 3, 1]
        code, out, _ = run(
            capsys, "count", "--input", str(path), "--min-degrees", "--s", "3"
        )
        payload = json.loads(out)
        assert (payload["min_vertex"], payload["min_edge"]) == (1, 1)

    def test_profile_of_colex_turan_pinned_bytes(self, capsys, tmp_path):
        path = tmp_path / "ct.edges"
        path.write_text(run(capsys, "construct", "ct", "--r", "6", "--m", "2000")[1])
        code, out, _ = run(capsys, "count", "--input", str(path), "--profile")
        assert code == 0
        assert out == '{"n":70,"m":2000,"profile":[70,2000,30498,262143,1202904,2300400]}\n'


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "mex", "--bogus", "1")
        assert code == 2

    def test_validation_error(self, capsys):
        code, _, err = run(capsys, "mex", "--m", "-3", "--s", "3", "--r", "3")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "--input", "G", "--t", "3", "--profile"),
            ("count", "--input", "G", "--vertex", "1", "--edge", "1", "2"),
            ("mex", "--m", "10", "--profile", "--m-max", "3", "--s", "3", "--r", "3"),
            ("mex", "--m", "5", "--m-max", "9", "--s", "3", "--r", "3"),
            ("mex", "--m", "5", "--format", "csv", "--s", "3", "--r", "3"),
            ("mex", "--profile", "--s", "3", "--r", "3"),
            ("count", "--input", "G", "--t", "3", "--s", "5"),
            ("count", "--input", "G", "--profile", "--s", "4"),
        ],
    )
    def test_dropped_flag_is_usage_error(self, capsys, tmp_path, argv):
        # a flag its mode does not read, or a mode without the flag it needs
        path = tmp_path / "g.edges"
        path.write_text("1 2\n1 3\n2 3\n")
        code, out, err = run(capsys, *(str(path) if a == "G" else a for a in argv))
        assert (code, out) == (2, "") and "error: " in err

    def test_cap_exceeded(self, capsys):
        code, _, err = run(
            capsys, "search", "ex", "--n", "9", "--t", "2", "--forbid-clique", "3"
        )
        assert code == 3 and "cap" in err

    def test_cap_override_env(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "long_path.edges"
        path.write_text("".join(f"{i} {i + 1}\n" for i in range(1, 17)))
        code, _, _ = run(capsys, "search", "min-edits", "--input", str(path), "--r", "2")
        assert code == 3
        monkeypatch.setenv("MEXKIT_CAP_OVERRIDE", "1")
        code, out, _ = run(capsys, "search", "min-edits", "--input", str(path), "--r", "2")
        assert code == 0
        assert json.loads(out)["value"] == 0

    @pytest.mark.parametrize("text", ["1 100000000\n", "n 100001\n1 2\n"], ids=["label", "header"])
    def test_input_vertex_cap_fails_before_any_graph(self, capsys, tmp_path, monkeypatch, text):
        def no_graph(*args, **kwargs):
            raise AssertionError("built a graph past the cap")

        path = tmp_path / "far.edges"
        path.write_text(text)
        monkeypatch.setattr(cli.graphs, "graph_from_edges", no_graph)
        code, out, err = run(capsys, "count", "--input", str(path), "--t", "2")
        assert (code, out) == (3, "")
        assert "input vertex count" in err and "MEXKIT_CAP_OVERRIDE=1" in err

    def test_input_vertex_cap_override_env(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "far.edges"
        path.write_text("n 100001\n1 2\n")
        monkeypatch.setenv("MEXKIT_CAP_OVERRIDE", "1")
        code, out, _ = run(capsys, "count", "--input", str(path), "--t", "2")
        assert code == 0
        assert json.loads(out) == {"n": 100001, "m": 1, "t": 2, "value": 1}

    def test_sparse_input_at_the_vertex_cap(self, capsys, tmp_path):
        # one edge to the largest label the cap allows: the graph checks
        # each neighbour mask's range in time for its size, not for n
        path = tmp_path / "far.edges"
        path.write_text("1 100000\n")
        code, out, _ = run(capsys, "count", "--input", str(path), "--t", "2")
        assert code == 0
        assert json.loads(out) == {"n": 100000, "m": 1, "t": 2, "value": 1}

    def test_cap_is_per_component(self, capsys, tmp_path):
        path = tmp_path / "matching.edges"
        path.write_text("".join(f"{2 * i - 1} {2 * i}\n" for i in range(1, 10)))
        code, out, _ = run(capsys, "search", "min-edits", "--input", str(path), "--r", "2")
        assert code == 0
        assert json.loads(out) == {"r": 2, "n": 18, "m": 9, "value": 0}

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "frohmader", "--r", "3", "--s", "3", "--m-max", "11"),
            ("verify", "zykov", "--r", "3", "--t", "3", "--n-max", "9"),
        ],
        ids=["frohmader", "zykov"],
    )
    def test_verify_past_the_cap_fails_before_any_search(self, capsys, monkeypatch, argv):
        def no_search(*args, **kwargs):
            raise AssertionError("searched past the cap")

        monkeypatch.setattr(cli.oracle, "brute_force_mex_profile", no_search)
        monkeypatch.setattr(cli.oracle, "brute_force_ex", no_search)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert "exceeds the safety cap" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("frohmader", "--r", "3", "--s", "4", "--m-max", "5"), "need r >= s >= 2"),
            (("zykov", "--r", "7", "--t", "8", "--n-max", "8"), "need n >= r >= t >= 2"),
        ],
        ids=["frohmader", "zykov"],
    )
    def test_verify_outside_the_closed_form_fails_before_any_search(
        self, capsys, monkeypatch, argv, message
    ):
        def no_search(*args, **kwargs):
            raise AssertionError("searched outside the closed form's domain")

        monkeypatch.setattr(cli.oracle, "brute_force_mex_profile", no_search)
        monkeypatch.setattr(cli.oracle, "brute_force_ex", no_search)
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out) == (2, "")
        assert message in err

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (("verify", "gadget", "--r", "3", "--m", "24", "--s", "5"), 2, "need r >= s >= 2"),
            (("verify", "gadget", "--r", "3", "--m", "24", "--s", "0"), 2, "need r >= s >= 2"),
            (("process", "stability", "--input", "T", "--r", "3", "--s", "5",
              "--epsilon", "0.1"), 2, "need r >= s >= 2"),
            (("process", "stability", "--input", "T", "--r", "3", "--s", "3",
              "--epsilon", "0.1"), 3, "exceeds the safety cap"),
        ],
        ids=["gadget", "gadget-s0", "stability", "stability-cap"],
    )
    def test_rejected_input_fails_before_any_clique_count(
        self, capsys, monkeypatch, tmp_path, argv, code, message
    ):
        # T_3(18) is one component on 18 vertices, past the partition cap of 16
        from mexkit import processes
        from mexkit.constructions import turan_graph

        def no_count(*args, **kwargs):
            raise AssertionError("counted cliques of a rejected input")

        path = tmp_path / "t18.edges"
        path.write_text(format_edge_list(turan_graph(3, 18)))
        monkeypatch.delenv("MEXKIT_CAP_OVERRIDE", raising=False)
        monkeypatch.setattr(cli.graphs, "count_cliques", no_count)
        monkeypatch.setattr(processes, "count_cliques", no_count)
        got, out, err = run(capsys, *(str(path) if a == "T" else a for a in argv))
        assert (got, out) == (code, "")
        assert message in err

    def test_verify_cap_override_env(self, capsys, monkeypatch):
        monkeypatch.setenv("MEXKIT_CAP_OVERRIDE", "1")
        monkeypatch.setattr(oracle, "DEFAULT_EDGE_CAP", 2)
        code, out, _ = run(capsys, "verify", "frohmader", "--r", "3", "--s", "3", "--m-max", "4")
        assert code == 0 and out.count("ok") == 5

    @pytest.mark.parametrize(
        "argv",
        [
            ("bound", "--m", "9" * 401, "--s", "3"),
            ("process", "constants", "--r", "3", "--s", "200", "--epsilon", "0.1"),
            ("process", "edge", "--s", "2000", "--r", "3", "--epsilon", "0.3"),
            ("process", "edge", "--s", "3", "--r", "3", "--epsilon", "0.3",
             "--exponent", "1e308"),
            ("process", "vertex", "--s", "3", "--r", "3", "--epsilon", "0.3",
             "--exponent", "1e308"),
        ],
        ids=["bound-huge-m", "constants-huge-s", "edge-huge-s", "edge-huge-exponent",
             "vertex-huge-exponent"],
    )
    def test_float_overflow_is_usage_error(self, capsys, tmp_path, argv):
        # a quantity past the float range is bad input: one error line, no traceback
        from mexkit.constructions import colex_turan_graph

        if argv[0] == "process" and argv[1] != "constants":
            path = tmp_path / "ct.edges"
            path.write_text(format_edge_list(colex_turan_graph(3, 40)))
            argv = (*argv[:2], "--input", str(path), *argv[2:])
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        if "--exponent" in argv:
            assert "exponent" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("process", "edge", "--s", "120", "--r", "3", "--epsilon", "0.2"),
             "default edge coefficient underflows to 0 (s=120, epsilon=0.2)"),
            (("process", "edge", "--s", "171", "--r", "3", "--epsilon", "0.9"),
             "s! overflows a float in rho_lower (s=171, epsilon=0.9)"),
            (("process", "edge", "--s", "173", "--r", "3", "--epsilon", "0.9", "--budget", "1"),
             "(s-2)! overflows a float in the default edge coefficient (s=173, epsilon=0.9)"),
            (("process", "constants", "--r", "3", "--s", "171", "--epsilon", "0.2"),
             "s! overflows a float in rho_lower (s=171, epsilon=0.2)"),
        ],
        ids=[
            "edge-coefficient-underflow", "edge-rho-overflow", "edge-coefficient-overflow",
            "constants-rho-overflow",
        ],
    )
    def test_large_s_names_the_default_constant(self, capsys, tmp_path, argv, message):
        if argv[1] == "edge":
            path = tmp_path / "paw.edges"
            path.write_text("1 2\n1 3\n2 3\n3 4\n")
            argv = (*argv[:2], "--input", str(path), *argv[2:])
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("--s", "171", "--epsilon", "0.9", "--coefficient", "1", "--budget", "1"),
            ("--s", "120", "--epsilon", "0.2", "--coefficient", "1"),
        ],
        ids=["rho-replaced", "coefficient-replaced"],
    )
    def test_a_flag_spares_the_default_it_replaces(self, capsys, tmp_path, argv):
        # the default that would fail is never computed; without the flags
        # these runs fail on it (test_large_s_names_the_default_constant)
        path = tmp_path / "paw.edges"
        path.write_text("1 2\n1 3\n2 3\n3 4\n")
        code, out, err = run(capsys, "process", "edge", "--input", str(path), "--r", "3", *argv)
        assert (code, err) == (0, "")
        assert out.splitlines()[-1].startswith('{"kind":"summary",'), out

    @pytest.mark.parametrize("mode", ["edge", "vertex"])
    @pytest.mark.parametrize("flag", ["--coefficient", "--exponent"])
    def test_non_finite_threshold_is_usage_error(self, capsys, tmp_path, mode, flag):
        # nan would otherwise pass silently as a run of zero steps
        path = tmp_path / "paw.edges"
        path.write_text("1 2\n1 3\n2 3\n3 4\n")
        for bad in ("nan", "inf"):
            code, out, err = run(
                capsys, "process", mode, "--input", str(path), "--s", "3", "--r", "3",
                "--epsilon", "0.3", flag, bad,
            )
            assert (code, out) == (2, "")
            assert err == f"error: {flag[2:]} must be finite\n"

    @pytest.mark.parametrize(
        "flag, value",
        [("--exponent", "-1e-3"), ("--exponent", "-1e308"), ("--exponent", "-1E-3"),
         ("--coefficient", "-2e0"), ("--exponent", "-inf")],
    )
    def test_negative_float_in_scientific_notation_is_a_value(
        self, capsys, tmp_path, flag, value
    ):
        # argparse alone reads -1e-3 as a flag: "expected one argument"
        path = tmp_path / "paw.edges"
        path.write_text("1 2\n1 3\n2 3\n3 4\n")
        argv = ("process", "edge", "--input", str(path), "--s", "3", "--r", "3", "--epsilon", "0.3")
        got = run(capsys, *argv, flag, value)
        assert got == run(capsys, *argv, f"{flag}={value}")
        assert "expected one argument" not in got[2]
        if value == "-inf":
            assert got == (2, "", "error: exponent must be finite\n")
        elif flag == "--coefficient":
            assert got == (2, "", "error: coefficient must be positive\n")
        else:
            assert got[0] == 0 and got[1].endswith('"budget_exhausted":false}\n')

    def test_verify_pass_is_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "enumeration", "--m-max", "3")
        assert code == 0 and "ok" in out

    def test_verify_failure_is_one(self, capsys, monkeypatch):
        def fake_profile(m_max, s, forbidden, cap=None):
            return [999] * m_max

        monkeypatch.setattr(cli.oracle, "brute_force_mex_profile", fake_profile)
        code, out, _ = run(capsys, "verify", "frohmader", "--r", "3", "--s", "3", "--m-max", "2")
        assert code == 1 and "FAIL" in out


class TestVerifySubcommands:
    def test_frohmader_small(self, capsys):
        code, out, _ = run(capsys, "verify", "frohmader", "--r", "3", "--s", "3", "--m-max", "4")
        assert code == 0
        assert out.count("ok") == 5

    def test_frohmader_pinned_stdout(self, capsys):
        code, out, _ = run(capsys, "verify", "frohmader", "--r", "3", "--s", "3", "--m-max", "10")
        assert code == 0
        assert out == (
            "m=1 brute=0 closed=0 ok\n"
            "m=2 brute=0 closed=0 ok\n"
            "m=3 brute=1 closed=1 ok\n"
            "m=4 brute=1 closed=1 ok\n"
            "m=5 brute=2 closed=2 ok\n"
            "m=6 brute=2 closed=2 ok\n"
            "m=7 brute=3 closed=3 ok\n"
            "m=8 brute=4 closed=4 ok\n"
            "m=9 brute=4 closed=4 ok\n"
            "m=10 brute=5 closed=5 ok\n"
            "frohmader r=3 s=3 m<=10: ok\n"
        )

    def test_frohmader_builds_one_knapsack_table(self, capsys, monkeypatch):
        # the rows below m-max are read from one table, each connected class
        # scored once; level m-max is scored from its kept children, so a
        # fresh store labels only the levels below it
        calls = []
        knapsack = oracle._knapsack
        labelings = []
        label = oracle._component_bits

        def counted(m, score):
            calls.append(m)
            return knapsack(m, score)

        def counted_label(adjacency, comp):
            labelings.append(comp)
            return label(adjacency, comp)

        monkeypatch.setattr(oracle, "_knapsack", counted)
        monkeypatch.setattr(oracle, "_component_bits", counted_label)
        monkeypatch.setattr(oracle, "_LEVELS", {})
        monkeypatch.setattr(oracle, "_AUTOMORPHISMS", {})
        code, out, _ = run(capsys, "verify", "frohmader", "--r", "3", "--s", "3", "--m-max", "7")
        assert (code, out.count(" ok\n"), calls) == (0, 8, [6])
        below = len(labelings)
        monkeypatch.setattr(oracle, "_LEVELS", {})
        monkeypatch.setattr(oracle, "_AUTOMORPHISMS", {})
        labelings.clear()
        oracle._connected_upto(6)
        assert below == len(labelings) > 0

    @pytest.mark.parametrize(
        "argv, code, err",
        [
            (("--n", "4", "--k", "3", "--p", "2", "--size-max", "5"), 2, "size must lie in 0..4"),
            (
                ("--n", "6", "--k", "3", "--p", "2", "--size-max", "3", "--r", "2"),
                2,
                "no 2-colorable family of 3-sets exists",
            ),
            (
                ("--n", "8", "--k", "3", "--p", "2", "--size-max", "12"),
                3,
                "family search space 32468436 exceeds the safety cap 10000000; "
                "pass cap=None (CLI: MEXKIT_CAP_OVERRIDE=1) to override",
            ),
            (
                ("--n", "5", "--k", "3", "--p", "2", "--size-max", "6", "--r", "3"),
                2,
                "no qualifying family exists at this size",
            ),
            (
                # 176 part-size multisets times C(420, 2) pairs of rainbow edges
                ("--n", "30", "--k", "2", "--p", "1", "--size-max", "2", "--r", "15"),
                3,
                "coloring search space 15486240 exceeds the safety cap 10000000; "
                "pass cap=None (CLI: MEXKIT_CAP_OVERRIDE=1) to override",
            ),
        ],
        ids=[
            "size bound",
            "colourable",
            "family cap",
            "largest colourable family",
            "colouring cap",
        ],
    )
    def test_shadows_fail_before_any_row(self, capsys, monkeypatch, argv, code, err):
        monkeypatch.delenv("MEXKIT_CAP_OVERRIDE", raising=False)
        assert run(capsys, "verify", "shadows", *argv) == (code, "", f"error: {err}\n")

    @pytest.mark.parametrize(
        "m_max, code, err",
        [
            ("11", 3, "edge count 11 exceeds the safety cap 10"),
            ("13", 2, "reference counts available only for m <= 12"),
        ],
    )
    def test_enumeration_fails_before_any_row(self, capsys, monkeypatch, m_max, code, err):
        def no_search(*args, **kwargs):
            raise AssertionError("enumerated past a check")

        monkeypatch.delenv("MEXKIT_CAP_OVERRIDE", raising=False)
        monkeypatch.setattr(cli.oracle, "enumerate_graphs", no_search)
        got = run(capsys, "verify", "enumeration", "--m-max", m_max)
        assert got[:2] == (code, "")
        assert got[2].startswith(f"error: {err}")

    def test_enumeration_to_the_edge_cap(self, capsys):
        code, out, _ = run(capsys, "verify", "enumeration", "--m-max", "10")
        assert code == 0
        assert out.splitlines()[-2:] == [
            "m=10 enumerated=4613 expected=4613 ok",
            "enumeration m<=10: ok",
        ]

    def test_zykov_small(self, capsys):
        code, out, _ = run(capsys, "verify", "zykov", "--r", "3", "--t", "3", "--n-max", "5")
        assert code == 0

    def test_shadows(self, capsys):
        code, _, _ = run(
            capsys, "verify", "shadows", "--n", "5", "--k", "3", "--p", "2", "--size-max", "3"
        )
        assert code == 0
        code, _, _ = run(
            capsys,
            "verify", "shadows", "--n", "5", "--k", "3", "--p", "2", "--size-max", "3",
            "--r", "3",
        )
        assert code == 0

    @pytest.mark.parametrize(
        "r, label",
        # the plain rows: the colex bound read as the colouring with n colours
        [((), "kruskal-katona"), (("--r", "9"), "ffk")],
    )
    def test_shadows_bytes(self, capsys, r, label):
        code, out, err = run(
            capsys, "verify", "shadows", "--n", "6", "--k", "3", "--p", "2", "--size-max", "6", *r
        )
        assert (code, err) == (0, "")
        shadows = (0, 3, 5, 6, 6, 8, 9)
        assert out == "".join(
            f"size={size} brute={m} closed={m} ok\n" for size, m in enumerate(shadows)
        ) + f"{label} n=6 k=3 p=2 size<=6: ok\n"

    def test_closed_form_builds_each_graph_once(self, capsys, monkeypatch):
        # one CT_r(t_r(n)) per row; the sha256 pins the bytes of the 213 rows
        builds = []
        build = cli.extremal.colex_turan_graph

        def counted(r, m):
            builds.append((r, m))
            return build(r, m)

        monkeypatch.setattr(cli.extremal, "colex_turan_graph", counted)
        monkeypatch.setattr(cli.constructions, "colex_turan_graph", counted)
        code, out, _ = run(capsys, "verify", "closed-form", "--r-max", "6", "--n-max", "60")
        assert code == 0 and len(builds) == 213 == len(out.splitlines()) - 1
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "6b48b4b26c6179fa69c1461cc3e9f2eaac860faf1855dab9d771cd4344499550"
        )

    def test_closed_form_and_constants(self, capsys):
        code, _, _ = run(capsys, "verify", "closed-form", "--r-max", "3", "--n-max", "9")
        assert code == 0
        code, out, _ = run(capsys, "verify", "constants", "--r-max", "6")
        assert (code, out) == (0, "constant identities r<=6: ok\n")

    def test_constants_prints_only_failing_rows(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli.extremal, "verify_constant_identities", lambda r, s: (r, s) != (3, 4)
        )
        code, out, _ = run(capsys, "verify", "constants", "--r-max", "3")
        assert (code, out) == (1, "r=3 s=4 FAIL\nconstant identities r<=3: FAIL\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("frohmader", "--r", "3", "--s", "3", "--m-max", "0"),
            ("zykov", "--r", "0", "--t", "3", "--n-max", "2"),
            ("zykov", "--r", "3", "--t", "3", "--n-max", "2"),
            ("closed-form", "--r-max", "1", "--n-max", "10"),
            ("closed-form", "--r-max", "3", "--n-max", "1"),
            ("constants", "--r-max", "1"),
            ("shadows", "--n", "4", "--k", "2", "--p", "1", "--size-max", "-1"),
            ("enumeration", "--m-max", "0"),
        ],
    )
    def test_empty_range_is_a_usage_error(self, capsys, argv):
        # a verify command that checks no instance must not pass
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out) == (2, "")
        assert "empty range" in err

    def test_gadget(self, capsys):
        code, out, _ = run(capsys, "verify", "gadget", "--r", "3", "--m", "24")
        assert code == 0 and "gadget=21" in out


class TestSearch:
    def test_mex_json_schema(self, capsys):
        code, out, _ = run(
            capsys, "search", "mex", "--m", "7", "--s", "3", "--forbid-clique", "4"
        )
        payload = json.loads(out)
        assert payload == {
            "optimum": 3,
            "witness_count": payload["witness_count"],
            "search_space_size": 177,
        }
        assert "elapsed_ms" not in payload

    def test_timing_flag_adds_elapsed(self, capsys):
        code, out, _ = run(
            capsys, "search", "mex", "--m", "4", "--s", "3", "--forbid-clique", "4",
            "--timing",
        )
        assert "elapsed_ms" in json.loads(out)

    def test_witness_dump_round_trips(self, capsys, tmp_path):
        out_dir = tmp_path / "witnesses"
        code, out, _ = run(
            capsys,
            "search", "mex", "--m", "3", "--s", "3", "--forbid-clique", "4",
            "--witnesses-dir", str(out_dir),
        )
        assert code == 0
        files = sorted(out_dir.glob("witness_*.edges"))
        assert files
        for f in files:
            g = parse_edge_list(f.read_text())
            assert g.edge_count == 3

    def test_mex_pinned_bytes(self, capsys, tmp_path):
        # 45 triangle-free graphs with 6 edges attain s = 2; the dump stops at 16
        out_dir = tmp_path / "witnesses"
        code, out, _ = run(
            capsys,
            "search", "mex", "--m", "6", "--s", "2", "--forbid-clique", "3",
            "--witnesses-dir", str(out_dir),
        )
        assert code == 0
        assert out == '{"optimum":6,"witness_count":45,"search_space_size":68}\n'
        want = [
            "1 4\n2 4\n3 4\n1 5\n2 5\n3 5\n",
            "2 5\n3 5\n4 5\n1 6\n3 6\n4 6\n",
            "3 4\n3 5\n1 6\n2 6\n4 6\n5 6\n",
            "3 4\n2 5\n3 5\n1 6\n4 6\n5 6\n",
            "2 3\n3 4\n2 5\n1 6\n4 6\n5 6\n",
            "2 3\n2 4\n1 5\n3 6\n4 6\n5 6\n",
            "2 3\n2 4\n1 5\n4 5\n1 6\n3 6\n",
            "1 2\n4 5\n4 6\n3 7\n5 7\n6 7\n",
            "1 2\n4 5\n3 6\n5 6\n3 7\n4 7\n",
            "1 3\n2 3\n4 6\n5 6\n4 7\n5 7\n",
            "1 7\n2 7\n3 7\n4 7\n5 7\n6 7\n",
            "5 6\n1 7\n2 7\n3 7\n4 7\n6 7\n",
            "4 6\n5 6\n1 7\n2 7\n3 7\n6 7\n",
            "3 6\n4 6\n5 6\n1 7\n2 7\n5 7\n",
            "4 5\n5 6\n1 7\n2 7\n3 7\n6 7\n",
            "4 5\n3 6\n1 7\n2 7\n5 7\n6 7\n",
        ]
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(
            f"witness_{i}.edges" for i in range(len(want))
        )
        assert [(out_dir / f"witness_{i}.edges").read_text() for i in range(len(want))] == want

    def test_witnesses_dir_drops_an_earlier_runs_witnesses(self, capsys, tmp_path):
        # the first run dumps 16 witnesses, the second 2; only files named
        # witness_<digits>.edges are the dump's to remove
        out_dir, fresh = tmp_path / "witnesses", tmp_path / "fresh"
        first = ("search", "mex", "--m", "6", "--s", "2", "--forbid-clique", "3")
        second = ("search", "mex", "--m", "7", "--s", "3", "--forbid-clique", "4")
        assert run(capsys, *first, "--witnesses-dir", str(out_dir))[0] == 0
        assert len(list(out_dir.iterdir())) == 16
        (out_dir / "notes.txt").write_text("kept\n")
        (out_dir / "witness_best.edges").write_text("1 2\n")
        assert run(capsys, *second, "--witnesses-dir", str(out_dir))[0] == 0
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "notes.txt", "witness_0.edges", "witness_1.edges", "witness_best.edges",
        ]
        assert (out_dir / "notes.txt").read_text() == "kept\n"
        assert run(capsys, *second, "--witnesses-dir", str(fresh))[0] == 0
        for name in ("witness_0.edges", "witness_1.edges"):
            assert (out_dir / name).read_text() == (fresh / name).read_text()

    def test_mex_disconnected_forbidden_pinned_bytes(self, capsys, tmp_path):
        path = tmp_path / "2k2.edges"
        path.write_text("1 2\n3 4\n")
        code, out, _ = run(
            capsys, "search", "mex", "--m", "5", "--s", "2", "--forbid-file", str(path)
        )
        assert code == 0
        assert out == '{"optimum":5,"witness_count":1,"search_space_size":26}\n'

    def test_min_shadow(self, capsys):
        code, out, _ = run(
            capsys, "search", "min-shadow", "--n", "6", "--k", "3", "--size", "2", "--p", "2"
        )
        assert json.loads(out)["value"] == 5

    def test_min_shadow_colourable_within_the_default_cap(self, capsys, monkeypatch):
        # the cap counts the walk, 19 part-size multisets times the 125
        # rainbow triples of (5, 5, 5), not the 3^15 colourings
        monkeypatch.delenv("MEXKIT_CAP_OVERRIDE", raising=False)
        argv = ("--n", "15", "--k", "3", "--size", "1", "--p", "2", "--r", "3")
        assert run(capsys, "search", "min-shadow", *argv) == (
            0,
            '{"n":15,"k":3,"size":1,"p":2,"r":3,"value":3}\n',
            "",
        )

    def test_blowup(self, capsys, tmp_path):
        path = tmp_path / "t39.edges"
        from mexkit.constructions import turan_graph

        path.write_text(format_edge_list(turan_graph(3, 9)))
        code, out, _ = run(
            capsys, "search", "blowup", "--input", str(path), "--parts", "3", "--t", "3"
        )
        payload = json.loads(out)
        assert payload["found"] is True and len(payload["witness"]) == 3

    def test_blowup_cap_override_env(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "k4.edges"
        path.write_text("1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n")
        argv = ("search", "blowup", "--input", str(path), "--parts", "2", "--t", "4")
        monkeypatch.delenv("MEXKIT_CAP_OVERRIDE", raising=False)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "") and "blowup part size 4" in err
        monkeypatch.setenv("MEXKIT_CAP_OVERRIDE", "1")
        assert run(capsys, *argv) == (0, '{"parts":2,"t":4,"found":false}\n', "")


class TestProcess:
    def test_edge_trace_lines(self, capsys, tmp_path):
        path = tmp_path / "paw.edges"
        path.write_text("1 2\n1 3\n2 3\n3 4\n")
        code, out, _ = run(
            capsys,
            "process", "edge", "--input", str(path), "--s", "3", "--r", "3",
            "--epsilon", "0.3", "--coefficient", "1.0", "--exponent", "0.0",
            "--budget", "4",
        )
        lines = [json.loads(line) for line in out.splitlines()]
        assert lines[0] == {
            "step": 0, "kind": "edge", "item": [3, 4], "value": 0, "edges_after": 3,
        }
        assert lines[-1]["kind"] == "summary"

    def test_edge_trace_pinned_bytes(self, capsys, tmp_path):
        from mexkit.constructions import colex_turan_graph

        path = tmp_path / "ct.edges"
        path.write_text(format_edge_list(colex_turan_graph(4, 40)))
        code, out, _ = run(
            capsys,
            "process", "edge", "--input", str(path), "--s", "4", "--r", "4",
            "--epsilon", "0.3", "--coefficient", "1000000", "--exponent", "0",
            "--budget", "20",
        )
        assert code == 0
        assert out == (
            '{"step":0,"kind":"edge","item":[1,11],"value":1,"edges_after":39}\n'
            '{"step":1,"kind":"edge","item":[2,11],"value":0,"edges_after":38}\n'
            '{"step":2,"kind":"edge","item":[4,11],"value":0,"edges_after":37}\n'
            '{"step":3,"kind":"edge","item":[1,2],"value":4,"edges_after":36}\n'
            '{"step":4,"kind":"edge","item":[1,3],"value":4,"edges_after":35}\n'
            '{"step":5,"kind":"edge","item":[1,4],"value":2,"edges_after":34}\n'
            '{"step":6,"kind":"edge","item":[1,6],"value":1,"edges_after":33}\n'
            '{"step":7,"kind":"edge","item":[1,7],"value":1,"edges_after":32}\n'
            '{"step":8,"kind":"edge","item":[1,8],"value":0,"edges_after":31}\n'
            '{"step":9,"kind":"edge","item":[1,10],"value":0,"edges_after":30}\n'
            '{"step":10,"kind":"edge","item":[2,3],"value":4,"edges_after":29}\n'
            '{"step":11,"kind":"edge","item":[2,4],"value":2,"edges_after":28}\n'
            '{"step":12,"kind":"edge","item":[2,5],"value":1,"edges_after":27}\n'
            '{"step":13,"kind":"edge","item":[2,7],"value":1,"edges_after":26}\n'
            '{"step":14,"kind":"edge","item":[2,8],"value":0,"edges_after":25}\n'
            '{"step":15,"kind":"edge","item":[2,9],"value":0,"edges_after":24}\n'
            '{"step":16,"kind":"edge","item":[3,4],"value":4,"edges_after":23}\n'
            '{"step":17,"kind":"edge","item":[3,5],"value":2,"edges_after":22}\n'
            '{"step":18,"kind":"edge","item":[3,6],"value":1,"edges_after":21}\n'
            '{"step":19,"kind":"edge","item":[3,8],"value":1,"edges_after":20}\n'
            '{"kind":"summary","steps":20,"final_edges":20,"budget_exhausted":true}\n'
        )

    def test_vertex_negative_exponent_once_no_edge_is_left(self, capsys, tmp_path):
        # coefficient * 0**exponent is +inf for exponent < 0: the isolated
        # vertices left at m = 0 qualify at zero cost, as under exponent 0
        path = tmp_path / "matching.edges"
        path.write_text("1 2\n3 4\n")
        code, out, _ = run(
            capsys,
            "process", "vertex", "--input", str(path), "--s", "3", "--r", "3",
            "--epsilon", "0.3", "--coefficient", "10", "--exponent", "-0.5",
            "--budget", "2",
        )
        assert code == 0
        assert out == (
            '{"step":0,"kind":"vertex","item":1,"value":1,"edges_after":1}\n'
            '{"step":1,"kind":"vertex","item":2,"value":0,"edges_after":1}\n'
            '{"step":2,"kind":"vertex","item":3,"value":1,"edges_after":0}\n'
            '{"step":3,"kind":"vertex","item":4,"value":0,"edges_after":0}\n'
            '{"kind":"summary","steps":4,"final_edges":0,"budget_exhausted":false}\n'
        )

    @pytest.mark.parametrize(
        "flags, config",
        [
            ("--epsilon 0.6 --coefficient 2 --exponent 0.5 --budget 8",
             ("vertex", 3, 3, 0.6, 2.0, 0.5, 8)),
            ("--epsilon 0.2 --coefficient 2 --exponent 0 --budget 2",
             ("edge", 2, 3, 0.2, 2.0, 0.0, 2)),
        ],
        ids=["vertex-epsilon-past-default", "edge-s-below-default"],
    )
    def test_all_flags_skip_the_defaults(self, capsys, tmp_path, flags, config):
        # with every default replaced, a config that only the defaults reject
        # runs as the API runs it
        from mexkit import processes
        from mexkit.constructions import turan_graph

        g = turan_graph(3, 9)
        path = tmp_path / "t39.edges"
        path.write_text(format_edge_list(g))
        mode, s, r = config[:3]
        got = run(
            capsys, "process", mode, "--input", str(path), "--s", str(s), "--r", str(r),
            *flags.split(),
        )
        config = processes.ProcessConfig(*config)
        process = getattr(processes, f"{mode}_deletion_process")
        cli._trace_to_lines(process(g, config))
        assert got == (0, capsys.readouterr().out, "")
        # one vertex step and its summary; two edge steps and theirs
        assert got[1].count("\n") == {"vertex": 2, "edge": 3}[mode]

    def test_stability_report(self, capsys, tmp_path):
        path = tmp_path / "ct.edges"
        from mexkit.constructions import colex_turan_graph

        path.write_text(format_edge_list(colex_turan_graph(3, 25)))
        code, out, _ = run(
            capsys,
            "process", "stability", "--input", str(path), "--r", "3", "--s", "3",
            "--epsilon", "0.1",
        )
        payload = json.loads(out)
        assert payload["ratio"] == 1.0
        assert payload["edits_to_partite"] == 0

    def test_stability_cap_override_env(self, capsys, tmp_path, monkeypatch):
        # one component on 18 vertices: past the exact partition cap of 16
        from mexkit.constructions import turan_graph

        path = tmp_path / "t18.edges"
        path.write_text(format_edge_list(turan_graph(3, 18)))
        argv = ("process", "stability", "--input", str(path), "--r", "3", "--s", "3",
                "--epsilon", "0.1")
        monkeypatch.delenv("MEXKIT_CAP_OVERRIDE", raising=False)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "") and "MEXKIT_CAP_OVERRIDE=1" in err
        monkeypatch.setenv("MEXKIT_CAP_OVERRIDE", "1")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and '"edits_to_partite":0' in out

    def test_proof_constants(self, capsys):
        code, out, _ = run(
            capsys, "process", "constants", "--r", "3", "--s", "3", "--epsilon", "0.1"
        )
        payload = json.loads(out)
        assert payload["epsilon_prime"] == pytest.approx(0.1 / 49)
        assert 0 < payload["rho"] < 1


def _command_paths():
    for name, entry in cli._COMMANDS.items():
        if isinstance(entry, cli._Command):
            yield (name,), entry
        else:
            for command_name, command in entry.commands.items():
                yield (name, command_name), command


def _valid_flags(command):
    # a value for every required argument, and an int flag to spoil
    flags, int_flag = [], None
    for spec in command.args:
        if isinstance(spec, str):
            flags += [spec, "1"]
            int_flag = int_flag or spec
        elif isinstance(spec, list):
            flags += [spec[0][0], "3"]
        else:
            flag, keywords = spec
            if keywords.get("type") is int:
                int_flag = int_flag or flag
            if keywords.get("required"):
                flags += [flag, "0.1" if keywords.get("type") is float else "g.edges"]
    return flags, int_flag


def _exclusive_corpus():
    # the first two flags of each exclusive group, given together
    for path, command in _command_paths():
        flags, _ = _valid_flags(command)
        for spec in command.args:
            if isinstance(spec, list):
                flag, keywords = spec[1]
                second = [flag] if keywords.get("action") else [flag, "1"]
                yield pytest.param([*path, *flags, *second], id=f"{' '.join(path)} exclusive")


def _path_corpus():
    for path, command in _command_paths():
        flags, int_flag = _valid_flags(command)
        name = " ".join(path)
        yield pytest.param([*path, "-h"], id=f"{name} -h")
        yield pytest.param([*path, *flags[2:]], id=f"{name} missing")
        yield pytest.param([*path, *flags, int_flag, "x"], id=f"{name} bad int")
        yield pytest.param([*path, *flags, "--bogus"], id=f"{name} unknown flag")
    yield from _exclusive_corpus()
    mex = ["mex", "--m", "5", "--s", "3", "--r", "3"]
    yield pytest.param([*mex, "--format", "xml"], id="mex bad choice")
    yield pytest.param(mex[:-1], id="mex flag without value")
    yield pytest.param([*mex, "extra"], id="mex extra positional")
    yield pytest.param(["count", "--input", "-", "--edge", "1"], id="count short nargs")
    for argv in (
        [], ["-h"], ["verify"], ["verify", "-h"], ["bogus"], ["verify", "bogus"], ["--", "mex"]
    ):
        yield pytest.param(argv, id=" ".join(argv) or "empty")


class TestParserPaths:
    @pytest.mark.parametrize("argv", _path_corpus())
    def test_same_bytes_as_the_full_parser(self, capsys, monkeypatch, argv):
        got = run(capsys, *argv)
        monkeypatch.setattr(cli, "_command_path", lambda argv: None)
        assert got == run(capsys, *argv)

    @pytest.mark.parametrize("argv", _exclusive_corpus())
    def test_exclusive_flags_are_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and "not allowed with argument" in err

    def test_same_namespace_as_the_full_parser(self):
        for path, command in _command_paths():
            flags, _ = _valid_flags(command)
            got = cli.build_parser(path).parse_args(flags)
            assert vars(got) == vars(cli.build_parser().parse_args([*path, *flags])), path

    @pytest.mark.parametrize(
        "argv, most",
        [
            (["verify", "frohmader", "--r", "3", "--s", "3", "--m-max", "2"], 1),
            (["mex", "--m", "5", "--s", "3", "--r", "3"], 1),
        ],
    )
    def test_builds_only_the_command_parser(self, capsys, monkeypatch, argv, most):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert run(capsys, *argv)[0] == 0
        assert len(built) <= most

    @pytest.mark.parametrize(
        "argv, code, count",
        [
            (["verify", "frohmader", "--r", "3", "--s", "3"], 2, 1),
            (["verify", "frohmader", "--r", "3", "--s", "x", "--m-max", "2"], 2, 1),
            (["mex", "--m", "5", "--profile", "--s", "3", "--r", "3"], 2, 1),
            (["verify", "frohmader", "-h"], 0, 1),
            ([], 2, 31),
            (["verify", "frohmader", "--r", "3", "--s", "3", "--m-max", "2", "--bogus"], 2, 32),
        ],
        ids=["missing flag", "bad int", "exclusive pair", "command -h", "empty", "unrecognized"],
    )
    def test_parsers_built_per_run(self, capsys, monkeypatch, argv, code, count):
        # a command's own parser reports its usage errors and help; only bare
        # `mexkit` and unrecognized arguments build the full parser
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert run(capsys, *argv)[0] == code
        assert len(built) == count


def test_python_dash_m_mexkit_is_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    argv = ["verify", "gadget", "--r", "3", "--m", "24"]
    got, want = (
        subprocess.run(
            [sys.executable, "-m", module, *argv], capture_output=True, text=True, env=env
        )
        for module in ("mexkit", "mexkit.cli")
    )
    assert (got.returncode, got.stdout) == (want.returncode, want.stdout)
    assert want.returncode == 0 and "gadget=21" in want.stdout


def test_import_leaves_process_machinery_unloaded():
    # a cold `mexkit` process pays for every module it imports
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    probe = (
        "import sys, mexkit.cli; "
        "print(*[m for m in ('concurrent.futures', 'multiprocessing', 'subprocess') "
        "if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=True, env=env
    )
    assert proc.stdout.split() == []
