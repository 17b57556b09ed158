import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treeshift import analysis, cli
from treeshift.cli import ParseError, build_parser, cert_dict, emit, load_tree_spec, main
from treeshift.series import EventuallyIncreasing, TermsDoNotVanish
from treeshift.trees import OmegaVertex

FOUR_VERTEX = {
    "vertices": ["r", "a", "b", "c"],
    "edges": [
        {"parent": "r", "child": "a", "weight": 1.0},
        {"parent": "r", "child": "b", "weight": [0.5, 0.5]},
        {"parent": "a", "child": "c", "weight": 2.0},
    ],
}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.err


class TestAnalyze:
    def test_builtin_family_report(self, tmp_path, capsys):
        path = write(tmp_path, "tree.json", {"family": "paper"})
        code, report, err = run(capsys, ["analyze", path, "--t", "0.5"])
        assert code == 0
        verdicts = report["verdicts"]
        assert verdicts["densely_defined"]["status"] == "family"
        assert verdicts["hyponormal"]["verdict"] == "hyponormal"
        margin = verdicts["hyponormal"]["margins"]["family"]
        assert margin["value"] == pytest.approx(0.65085, abs=1e-4)
        assert margin["kind"] == "closed-form-tail"
        domain = verdicts["aluthge_domain"]
        assert domain["status"] == "certified-family"
        assert domain["family_certificate"]["kind"] == "eventually-increasing"
        assert domain["family_certificate"]["ratio"] > 1
        assert "hyponormal" in err

    def test_reports_are_byte_identical(self, tmp_path, capsys):
        path = write(tmp_path, "tree.json", {"family": "paper"})
        argv = ["analyze", path, "--t", "0.25", "--sample-seed", "3"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_finite_tree_all_in_domain(self, tmp_path, capsys):
        path = write(tmp_path, "tree.json", FOUR_VERTEX)
        code, report, _ = run(capsys, ["analyze", path, "--t", "1.0"])
        assert code == 0
        domain = report["verdicts"]["aluthge_domain"]
        assert domain["status"] == "refuted"
        assert domain["refuted_vertex"] == "r"

    def test_descendant_family(self, tmp_path, capsys):
        doc = {"family": "descendant", "apex": {"level": 0, "digits": [2]}}
        path = write(tmp_path, "tree.json", doc)
        code, report, _ = run(capsys, ["analyze", path, "--t", "0.75"])
        assert code == 0
        assert report["verdicts"]["aluthge_domain"]["status"] == "certified-family"

    def test_malformed_file_names_position(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"family": ')
        code, report, err = run(capsys, ["analyze", str(path)])
        assert code == 1
        assert report is None
        assert "position" in err or "parse error" in err

    def test_unknown_field_rejected(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json", {"familia": "paper"})
        code, _, err = run(capsys, ["analyze", path])
        assert code == 1
        assert "family" in err

    def test_t_out_of_range(self, tmp_path, capsys):
        path = write(tmp_path, "tree.json", {"family": "paper"})
        code, _, err = run(capsys, ["analyze", path, "--t", "1.5"])
        assert code == 1
        assert "(0, 1]" in err

    def test_nat_path_family(self, tmp_path, capsys):
        doc = {"family": "nat_path", "weights": {"kind": "constant", "value": 2.0}}
        path = write(tmp_path, "tree.json", doc)
        code, report, _ = run(capsys, ["analyze", path, "--t", "0.5"])
        assert code == 0
        assert report["verdicts"]["densely_defined"]["status"] == "sample"
        assert report["verdicts"]["hyponormal"]["verdict"] == "hyponormal"


class TestAluthgeWeightsCommand:
    def test_table_matches_closed_form(self, tmp_path, capsys):
        path = write(tmp_path, "tree.json", {"family": "paper"})
        code, report, _ = run(
            capsys,
            ["aluthge-weights", path, "--t", "0.5", "--vertex", "1:3", "--vertex", "1:"],
        )
        assert code == 0
        rows = {row["vertex"]: row for row in report["table"]}
        # digits (3,): transformed weight 2^(3 - 0.5*3) / 4 = 2^1.5 / 4
        got = rows["1:3"]["aluthge"][0]
        assert got == pytest.approx(2.0**1.5 / 4.0, rel=1e-12)
        assert rows["1:"]["aluthge"][0] == pytest.approx(1.0, rel=1e-12)
        # polar modulus 1/((digit+1) gamma)
        import math

        from treeshift.series import inverse_square_sum

        gamma = math.sqrt(inverse_square_sum().value)
        assert rows["1:3"]["polar"][0] == pytest.approx(1.0 / (4 * gamma), rel=1e-12)

    def test_explicit_tree_by_name(self, tmp_path, capsys):
        path = write(tmp_path, "tree.json", FOUR_VERTEX)
        code, report, _ = run(capsys, ["aluthge-weights", path, "--t", "1.0", "--vertex", "a"])
        assert code == 0
        (row,) = report["table"]
        assert row["vertex"] == "a"
        # at t = 1: norm(a) / norm(r) * weight(a)
        import math

        norm_a = 2.0
        norm_r = math.sqrt(1.0 + 0.5)
        assert row["aluthge"][0] == pytest.approx(norm_a / norm_r * 1.0, rel=1e-12)

    def test_root_vertex_rejected(self, tmp_path, capsys):
        path = write(tmp_path, "tree.json", FOUR_VERTEX)
        code, _, err = run(capsys, ["aluthge-weights", path, "--vertex", "r"])
        assert code == 1
        assert "root" in err


class TestOracleCommand:
    def test_random_corpus_passes(self, tmp_path, capsys):
        code, report, err = run(
            capsys, ["oracle", "--random", "12", "--seed", "42", "--t", "0.1,0.5,1.0"]
        )
        assert code == 0
        assert report["max_discrepancy"] <= 1e-8
        assert report["hyponormality_disagreements"] == 0
        assert "PASS" in err

    def test_infinite_family_rejected(self, tmp_path, capsys):
        path = write(tmp_path, "tree.json", {"family": "paper"})
        code, _, err = run(capsys, ["oracle", path])
        assert code == 1
        assert "finite" in err

    def test_single_vertex_all_zero(self, tmp_path, capsys):
        path = write(tmp_path, "tree.json", {"vertices": ["only"], "edges": []})
        code, report, _ = run(capsys, ["oracle", path, "--t", "0.5"])
        assert code == 0
        assert report["max_discrepancy"] == 0.0

    def test_explicit_tree(self, tmp_path, capsys):
        path = write(tmp_path, "tree.json", FOUR_VERTEX)
        code, report, _ = run(capsys, ["oracle", path, "--t", "0.5,0.9"])
        assert code == 0
        assert report["max_discrepancy"] <= 1e-8

    # numpy's ``default_rng`` used to refuse the seed without naming the flag.
    def test_negative_seed_names_the_flag(self, capsys):
        code, report, err = run(capsys, ["oracle", "--random", "3", "--seed", "-1"])
        assert (code, report, err) == (1, None, "error: --seed must be at least 0, got -1\n")

    def test_random_count_is_bounded_before_any_tree_is_built(self, capsys, monkeypatch):
        from treeshift import oracle

        built = []
        monkeypatch.setattr(oracle, "random_tree_corpus", lambda count, *args, **kwargs: built.append(count) or [])
        code, report, err = run(capsys, ["oracle", "--random", "100000000", "--t", "0.5"])
        assert (code, report, err) == (1, None, "error: --random must be at most 10,000, got 100,000,000\n")
        assert built == []
        # the bound itself is accepted
        code, report, _ = run(capsys, ["oracle", "--random", "10000", "--t", "0.5"])
        assert code == 0 and built == [10000] and report["inputs"]["source"]["random"] == 10000

    def test_tree_file_size_is_bounded_before_any_comparison(self, tmp_path, capsys, monkeypatch):
        from treeshift import oracle

        compared = []

        def record(w, tree, t_values):
            compared.append(len(tree.vertices()))
            return oracle.ComparisonReport(n=compared[-1])

        def star(n):
            edges = [{"parent": "0", "child": str(v), "weight": 1.0} for v in range(1, n)]
            return {"vertices": [str(v) for v in range(n)], "edges": edges}

        monkeypatch.setattr(oracle, "compare_with_formula", record)
        code, report, err = run(capsys, ["oracle", write(tmp_path, "over.json", star(4001))])
        assert (code, report, err) == (1, None, "error: oracle takes a tree of at most 4,000 vertices, got 4,001\n")
        assert compared == []
        # the bound itself is accepted
        code, report, _ = run(capsys, ["oracle", write(tmp_path, "bound.json", star(4000))])
        assert code == 0 and compared == [4000] and report["instances"][0]["n"] == 4000

    # A repeated value ran every comparison twice under one report key.
    @pytest.mark.parametrize(
        "t, repeated", [("0.5,0.5", "0.5"), ("0.1,0.5,0.50", "0.5"), ("1,0.9,1.0", "1.0")]
    )
    def test_repeated_t_rejected_before_any_tree_is_built(self, capsys, monkeypatch, t, repeated):
        from treeshift import oracle

        built = []
        monkeypatch.setattr(oracle, "random_tree_corpus", lambda count, *args, **kwargs: built.append(count) or [])
        code, report, err = run(capsys, ["oracle", "--random", "3", "--t", t])
        assert (code, report, err) == (1, None, f"error: --t lists {repeated} more than once\n")
        assert built == []

    def test_file_run_ignores_the_seed(self, tmp_path, capsys):
        path = write(tmp_path, "tree.json", FOUR_VERTEX)
        code, report, _ = run(capsys, ["oracle", path, "--t", "0.5", "--seed", "-1"])
        assert code == 0
        assert report["seed"] == -1
        assert report["inputs"]["source"] == {"file": FOUR_VERTEX}


class TestWitnessCommand:
    def test_default_vertex_crossing(self, capsys):
        code, report, err = run(capsys, ["witness", "--t", "0.5", "--K", "40"])
        assert code == 0
        assert report["crossing_index"] == 31
        assert report["growth_certificate"]["kind"] == "eventually-increasing"
        assert report["ratio_limit"] == pytest.approx(2.0)
        assert "crossed at K=31" in err

    def test_t_one_rejected(self, capsys):
        code, _, err = run(capsys, ["witness", "--t", "1.0"])
        assert code == 1
        assert "(0, 1)" in err

    def test_custom_vertex(self, capsys):
        code, report, _ = run(capsys, ["witness", "--t", "0.25", "--vertex", "2:1,0", "--K", "10"])
        assert code == 0
        assert report["base_vertex"] == "1:1"

    @pytest.mark.parametrize("t, start", [("0.99", 143), ("0.999", 1442)])
    def test_certificate_beyond_reported_terms(self, capsys, t, start):
        # the claim starts past the default K = 60; its window is checked all the same
        code, report, _ = run(capsys, ["witness", "--t", t])
        assert code == 0
        assert report["growth_certificate"]["start"] == start
        assert len(report["partial_sums"]) == 60


class TestFiniteReports:
    def test_witness_stops_before_an_overflowing_sum(self, capsys):
        # every term is finite, but the 36th running sum passes the double range
        code = main(["witness", "--t", "0.5", "--vertex", "2:500,0", "--K", "60"])
        captured = capsys.readouterr()
        assert code == 0
        report = json.loads(captured.out, parse_constant=pytest.fail)
        assert len(report["partial_sums"]) == 35
        assert all(math.isfinite(x) for x in report["partial_sums"])
        assert "partial sums end after 35 terms; the next overflows\n" in captured.err

    def test_long_witness_stops_before_an_overflowing_term(self, capsys):
        # 4^((1-t) k) leaves the double range at k = 1024 for t = 0.5
        code = main(["witness", "--t", "0.5", "--vertex", "1:", "--K", "5000"])
        captured = capsys.readouterr()
        assert code == 0
        report = json.loads(captured.out, parse_constant=pytest.fail)
        assert len(report["partial_sums"]) == 1024
        assert all(math.isfinite(x) for x in report["partial_sums"])
        assert "partial sums end after 1024 terms; the next overflows\n" in captured.err

    def test_emit_refuses_a_non_finite_value(self, capsys):
        with pytest.raises(ArithmeticError, match="non-finite"):
            emit({"value": math.inf}, ["summary"])
        assert capsys.readouterr().out == ""

    def test_non_finite_report_exits_three(self, monkeypatch, capsys):
        real = analysis.nonclosability_witness
        monkeypatch.setattr(
            analysis,
            "nonclosability_witness",
            lambda *a, **k: dataclasses.replace(real(*a, **k), ratio_limit=math.nan),
        )
        code, report, err = run(capsys, ["witness", "--t", "0.5", "--K", "5"])
        assert code == 3
        assert report is None
        assert err.startswith("numerical failure: the report holds a non-finite value")


FAMILY_DOCS = {
    "paper": {"family": "paper"},
    "descendant": {"family": "descendant", "apex": {"level": 0, "digits": [2]}},
}
START_CAP_REASON = "numerical failure: no increasing index found; growth too close to 1\n"
# 1e-300 ** v raises OverflowError for v <= -2 rather than giving inf; -6 is
# the first such vertex the command reads.  |1e300|^2 leaves the double range,
# though the norm at a, 1, does not.
OVERFLOW_DOCS = {
    "tiny_base": {"family": "int_path", "weights": {"kind": "geometric", "base": 1e-300}},
    "huge_weight": {
        "vertices": ["r", "a", "b"],
        "edges": [
            {"parent": "r", "child": "a", "weight": 1e300},
            {"parent": "a", "child": "b", "weight": 1.0},
        ],
    },
}


class TestNumericalFailures:
    @pytest.mark.parametrize(
        "argv, message",
        [
            # just below the start cap, near t = 1.45e-7: no index up to 10**7
            # has a ratio the check can confirm
            (["analyze", "{paper}", "--t", "1.4e-7"], START_CAP_REASON),
            (["analyze", "{descendant}", "--t", "1.4e-7"], START_CAP_REASON),
            (["analyze", "{paper}", "--t", "1e-8"], START_CAP_REASON),
            (["analyze", "{descendant}", "--t", "1e-8"], START_CAP_REASON),
            (
                ["aluthge-weights", "{paper}", "--t", "0.5", "--vertex", "2:600,1"],
                "numerical failure: squared-weight sum at OmegaVertex(1, (600,)) overflows\n",
            ),
            (
                ["aluthge-weights", "{tiny_base}", "--t", "0.5"],
                "numerical failure: path weight at -6 overflows\n",
            ),
            (["analyze", "{huge_weight}"], "numerical failure: margin term at 1 overflows\n"),
            (
                # the adjoint takes e_(0:512,0) to 2^512 e_(-1:512)
                ["witness", "--t", "0.5", "--vertex=0:512,0"],
                "numerical failure: squared adjoint coefficient at OmegaVertex(-1, (512,)) overflows\n",
            ),
        ],
        ids=[
            "analyze-small-t",
            "analyze-small-t-descendant",
            "analyze-start-cap",
            "analyze-start-cap-descendant",
            "aluthge-weights-overflow",
            "path-weight-power-overflow",
            "margin-term-overflow",
            "adjoint-coefficient-overflow",
        ],
    )
    def test_exit_three_without_traceback(self, tmp_path, capsys, argv, message):
        docs = {**FAMILY_DOCS, **OVERFLOW_DOCS}
        paths = {name: write(tmp_path, f"{name}.json", doc) for name, doc in docs.items()}
        code, report, err = run(capsys, [arg.format(**paths) for arg in argv])
        assert code == 3
        assert report is None
        assert err == message

    def test_overflowing_family_weight_names_its_vertex(self, tmp_path, capsys):
        # 2^(digit sum - last digit) passes the double range at 2^1024
        path = write(tmp_path, "tree.json", {"family": "paper"})
        vertex = "1:" + ",".join(["9"] * 120)
        code, report, err = run(capsys, ["aluthge-weights", path, "--t", "0.5", "--vertex", vertex])
        assert (code, report) == (3, None)
        assert err == f"numerical failure: weight at OmegaVertex(1, {(9,) * 120}) overflows\n"

    def test_overflowing_path_weight(self, tmp_path, capsys):
        # the first weight overflows itself; the second is finite, but its square is not
        for base, scale in [(1e308, 1e308), (1e300, 1.0)]:
            doc = {"family": "nat_path", "weights": {"kind": "geometric", "base": base, "scale": scale}}
            code, report, err = run(capsys, ["analyze", write(tmp_path, "tree.json", doc), "--t", "0.5"])
            assert code == 3
            assert report is None
            assert err == "numerical failure: squared-weight sum at 0 overflows\n"

    def test_witness_ratio_inside_the_float_slack(self, capsys):
        # the ratio at the first rising index, 1 + 1.9e-10, cannot be checked,
        # so the claim starts later, at the first ratio the check confirms
        code, report, err = run(capsys, ["witness", "--t", "0.99996", "--K", "5"])
        assert code == 0
        assert report["growth_certificate"] == {
            "heuristic": False,
            "kind": "eventually-increasing",
            "ratio": 1.0000000017280017,
            "start": 36067,
        }

    def test_witness_growth_too_close_to_one(self, capsys):
        # 4^(1-t) is so close to 1 that the certificate would start past 10**7
        code, report, err = run(capsys, ["witness", "--t", "0.9999999999"])
        assert code == 3
        assert report is None
        assert err == "numerical failure: no increasing index found; growth too close to 1\n"


class TestFamilyAtSmallT:
    # The transform's ratio claim is checked on the family's stream in units
    # of 4^S(u), whose terms stay finite however late the claim starts; the
    # t below the checkable range are in ``TestNumericalFailures``.
    # 0.0011222833119529131 and 4e-5 are where the first rising index's
    # ratio lies inside the check's slack, and 1.5e-7 is just above the cap.
    @pytest.mark.parametrize(
        "t", ["0.003", "0.002", "0.001", "1e-4", "0.0011222833119529131", "4e-5", "1.5e-7"]
    )
    @pytest.mark.parametrize("family", sorted(FAMILY_DOCS))
    def test_certified_family(self, tmp_path, capsys, family, t):
        path = write(tmp_path, "tree.json", FAMILY_DOCS[family])
        code, report, _ = run(capsys, ["analyze", path, "--t", t])
        assert code == 0
        domain = report["verdicts"]["aluthge_domain"]
        assert domain["status"] == "certified-family"
        assert domain["family_certificate"]["start"] > 400


class TestNonFiniteWeights:
    def test_nan_edge_weight_rejected(self, tmp_path, capsys):
        path = tmp_path / "tree.json"
        path.write_text(
            '{"vertices": ["r", "a"], "edges": [{"parent": "r", "child": "a", "weight": NaN}]}'
        )
        code, report, err = run(capsys, ["analyze", str(path), "--t", "0.5"])
        assert code == 1
        assert report is None
        assert "finite" in err


    @pytest.mark.parametrize(
        "weights",
        [
            {"kind": "constant", "value": math.nan},
            {"kind": "constant", "value": "nan"},
            {"kind": "geometric", "base": math.inf},
            {"kind": "geometric", "scale": "-inf"},
        ],
        ids=["nan-value", "nan-string-value", "infinite-base", "infinite-string-scale"],
    )
    def test_non_finite_path_weight_is_a_parse_error(self, tmp_path, capsys, weights):
        path = write(tmp_path, "tree.json", {"family": "int_path", "weights": weights})
        with pytest.raises(ParseError, match="must be finite"):
            load_tree_spec(path)
        code, report, err = run(capsys, ["analyze", path, "--t", "0.5"])
        assert code == 1
        assert report is None
        assert "must be finite" in err

    @pytest.mark.parametrize("base", [0.0, -0.0, 0])
    def test_zero_base_on_int_path_is_a_parse_error(self, tmp_path, capsys, base):
        # int_path has negative vertices, where base**v does not exist
        doc = {"family": "int_path", "weights": {"kind": "geometric", "base": base}}
        path = write(tmp_path, "tree.json", doc)
        with pytest.raises(ParseError, match="^'weights' field 'base' must be nonzero"):
            load_tree_spec(path)
        code, report, err = run(capsys, ["analyze", path, "--t", "0.5"])
        assert code == 1
        assert report is None
        assert "'weights' field 'base'" in err

    def test_zero_base_on_nat_path_stays_valid(self, tmp_path, capsys):
        doc = {"family": "nat_path", "weights": {"kind": "geometric", "base": 0.0}}
        path = write(tmp_path, "tree.json", doc)
        weights, _ = load_tree_spec(path)
        assert [weights.weight(v) for v in (1, 2)] == [0.0, 0.0]
        code, report, _ = run(capsys, ["analyze", path, "--t", "0.5"])
        assert code == 0
        assert report is not None


class TestWrongTypedWeights:
    # Strings and booleans were cast to numbers and reported with exit 0.
    @pytest.mark.parametrize(
        "doc",
        [
            {"family": "nat_path", "weights": {"kind": "constant", "value": "2"}},
            {"family": "nat_path", "weights": {"kind": "constant", "value": True}},
            {"family": "int_path", "weights": {"kind": "geometric", "scale": "1+1j"}},
            {"vertices": ["r", "a"], "edges": [{"parent": "r", "child": "a", "weight": True}]},
        ],
        ids=["string-value", "boolean-value", "string-scale", "boolean-edge-weight"],
    )
    def test_parse_error(self, tmp_path, capsys, doc):
        path = write(tmp_path, "tree.json", doc)
        with pytest.raises(ParseError, match="must be finite, given as a number"):
            load_tree_spec(path)
        code, report, err = run(capsys, ["analyze", path, "--t", "0.5"])
        assert code == 1
        assert report is None
        assert err.startswith("error:")


class TestMalformedSpecs:
    @pytest.mark.parametrize(
        "doc",
        [
            {"vertices": ["a", "b"], "edges": [["a", "b"]]},
            {"vertices": ["a", "b"], "edges": [{"parent": "a", "child": "b", "weight": [1, None]}]},
            {"family": "nat_path", "weights": "constant"},
            {"family": "nat_path", "weights": {"kind": "geometric", "base": None}},
            {"family": "descendant", "apex": {"level": 0, "digits": ["a"]}},
            {"family": "descendant", "apex": {"level": math.inf}},
            {"vertices": ["a", "b"], "edges": [{"parent": "a", "child": "b", "weight": 10**400}]},
            {"family": "descendant", "apex": {"level": 1.5, "digits": [2]}},
            {"family": "descendant", "apex": {"level": 1, "digits": [2.7]}},
            {"family": "descendant", "apex": {"level": True}},
            {"family": "descendant", "apex": {"level": 0, "digits": [False, 1]}},
        ],
        ids=[
            "edge-not-object",
            "null-imaginary-part",
            "weights-not-object",
            "null-base",
            "non-integer-digit",
            "infinite-level",
            "integer-beyond-double",
            "fractional-level",
            "fractional-digit",
            "boolean-level",
            "boolean-digit",
        ],
    )
    def test_parse_error_without_traceback(self, tmp_path, capsys, doc):
        path = write(tmp_path, "tree.json", doc)
        code, report, err = run(capsys, ["analyze", path, "--t", "0.5"])
        assert code == 1
        assert report is None
        assert err.startswith("error:")
        assert "Traceback" not in err


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.just(10**400)
    | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
# apex entries: integers, integral and fractional floats, and booleans
APEX_ENTRIES = (
    st.integers(-5, 5)
    | st.integers(-5, 5).map(float)
    | st.floats(-5, 5, allow_nan=False).filter(lambda x: not x.is_integer())
    | st.booleans()
)
NAMES = st.sampled_from(["r", "a", "b"]) | JSON_VALUES
FAMILY_SPECS = st.fixed_dictionaries(
    {"family": st.sampled_from(["paper", "descendant", "nat_path", "int_path"]) | JSON_VALUES},
    optional={
        "apex": JSON_VALUES
        | st.fixed_dictionaries(
            {}, optional={"level": JSON_VALUES, "digits": JSON_VALUES | st.lists(JSON_VALUES, max_size=3)}
        ),
        "weights": JSON_VALUES
        | st.fixed_dictionaries(
            {"kind": st.sampled_from(["constant", "geometric"]) | JSON_VALUES},
            optional={"value": JSON_VALUES, "base": JSON_VALUES, "scale": JSON_VALUES},
        ),
    },
)
EXPLICIT_SPECS = st.fixed_dictionaries(
    {
        "vertices": JSON_VALUES | st.lists(NAMES, max_size=4),
        "edges": JSON_VALUES
        | st.lists(
            JSON_VALUES
            | st.fixed_dictionaries(
                {}, optional={"parent": NAMES, "child": NAMES, "weight": JSON_VALUES}
            ),
            max_size=4,
        ),
    }
)


class TestSpecParsingProperty:
    @given(doc=FAMILY_SPECS | EXPLICIT_SPECS)
    @settings(max_examples=400, deadline=None)
    def test_returns_or_raises_parse_error(self, tmp_path_factory, doc):
        path = tmp_path_factory.getbasetemp() / "property-spec.json"
        path.write_text(json.dumps(doc))
        try:
            load_tree_spec(str(path))
        except ParseError:
            pass

    @given(
        level=APEX_ENTRIES,
        digits=st.lists(APEX_ENTRIES, max_size=3),
    )
    @settings(max_examples=200, deadline=None)
    def test_apex_is_read_exactly_or_refused(self, tmp_path_factory, level, digits):
        path = tmp_path_factory.getbasetemp() / "property-apex.json"
        path.write_text(json.dumps({"family": "descendant", "apex": {"level": level, "digits": digits}}))
        entries = [level, *digits]
        integral = all(
            not isinstance(x, bool) and (isinstance(x, int) or x.is_integer()) for x in entries
        )
        if not integral or any(x < 0 for x in digits):
            with pytest.raises(ParseError):
                load_tree_spec(str(path))
            return
        weights, _ = load_tree_spec(str(path))
        words = [int(x) for x in digits]
        while words and words[0] == 0:
            words.pop(0)
        assert weights.tree.apex == OmegaVertex(int(level), tuple(words))


# The input contract: every command on every well-formed input ends in a
# report or a documented exit code with a reason, never a traceback.  Weights
# come from the whole double range; wrong values are not judged here.
DOUBLES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e-170, 1e170, 1e300, -1e300, 1.7976931348623157e308]
)
WEIGHTS = DOUBLES | st.lists(DOUBLES, min_size=2, max_size=2)
CONTRACT_T = st.floats(0.0, 1.0, exclude_min=True) | st.sampled_from([1.0, 0.5, 1e-3, 4e-5, 1e-8, 5e-324])


@st.composite
def explicit_trees(draw):
    """A tree of 1 to 12 vertices, each vertex below one drawn earlier."""
    count = draw(st.integers(1, 12))
    edges = [
        {"parent": f"v{draw(st.integers(0, i - 1))}", "child": f"v{i}", "weight": draw(WEIGHTS)}
        for i in range(1, count)
    ]
    return {"vertices": [f"v{i}" for i in range(count)], "edges": edges}


PATH_DOCS = st.fixed_dictionaries(
    {
        "family": st.sampled_from(["nat_path", "int_path"]),
        "weights": st.fixed_dictionaries({"kind": st.just("constant"), "value": WEIGHTS})
        | st.fixed_dictionaries({"kind": st.just("geometric"), "base": DOUBLES, "scale": WEIGHTS}),
    }
)
LARGE_DIGITS = st.integers(0, 9) | st.integers(0, 2**70) | st.just(10**400)
APEXES = st.tuples(st.integers(-5, 5), st.lists(LARGE_DIGITS, max_size=3))


def contract_runs(case, t):
    """``(argv, tree document or None)`` for each command the drawn input reaches."""
    kind, value = case
    doc = value
    if kind == "apex":
        level, digits = value
        doc = {"family": "descendant", "apex": {"level": level, "digits": digits}}
    commands = ["analyze", "aluthge-weights"] + (["oracle"] if kind == "explicit" else [])
    runs = [([command, "{file}", "--t", repr(t)], doc) for command in commands]
    if kind == "apex":
        word = f"{level}:{','.join(map(str, digits))}"
        runs.append((["witness", "--t", repr(min(t, 0.999)), f"--vertex={word}", "--K", "40"], None))
    return runs


class TestInputContract:
    @given(
        case=st.tuples(st.just("explicit"), explicit_trees())
        | st.tuples(st.just("path"), PATH_DOCS)
        | st.tuples(st.just("apex"), APEXES),
        t=CONTRACT_T,
    )
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_every_command_ends_in_a_report_or_a_reason(self, tmp_path_factory, case, t):
        path = tmp_path_factory.getbasetemp() / "contract.json"
        for argv, doc in contract_runs(case, t):
            if doc is not None:
                path.write_text(json.dumps(doc))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([arg.format(file=path) for arg in argv])
            out, err = out.getvalue(), err.getvalue()
            assert code in (0, 1, 2, 3), (argv, doc)
            if code == 0:
                json.loads(out)
            elif code == 2:
                assert argv[0] == "oracle", (argv, doc, err)
                json.loads(out)
                assert "oracle: FAIL" in err
            else:
                assert out == "", (argv, doc)
                reason = err.partition("error: " if code == 1 else "numerical failure: ")[2]
                assert reason.strip(), (argv, doc, err)
                assert re.search(r"\(\d+, '", err) is None, (argv, doc, err)  # a bare errno tuple


class TestOutOfRangeCounts:
    # Each of these used to exit 0 with a report that misread the flag.
    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["witness", "--t", "0.5", "--K", "-5"], "--K must be at least 0, got -5"),
            (["witness", "--t", "0.5", "--threshold", "nan"], "--threshold must be finite, got nan"),
            (["aluthge-weights", "{paper}", "--limit", "-3"], "--limit must be at least 0, got -3"),
            (["oracle", "--random", "-4"], "--random must be at least 1, got -4"),
            (["analyze", "{paper}", "--depth", "-2"], "--depth must be at least 0, got -2"),
            (["analyze", "{paper}", "--digits", "-1"], "--digits must be at least 0, got -1"),
        ],
        ids=["K", "threshold", "limit", "random", "depth", "digits"],
    )
    def test_rejected_with_reason(self, tmp_path, capsys, argv, reason):
        path = write(tmp_path, "tree.json", {"family": "paper"})
        code, report, err = run(capsys, [arg.format(paper=path) for arg in argv])
        assert code == 1
        assert report is None
        assert err == f"error: {reason}\n"

    @pytest.mark.parametrize(
        "argv",
        [["witness", "--t", "0.5", "--K", "0"], ["aluthge-weights", "{paper}", "--limit", "0"]],
        ids=["K", "limit"],
    )
    def test_zero_counts_still_report(self, tmp_path, capsys, argv):
        path = write(tmp_path, "tree.json", {"family": "paper"})
        code, report, _ = run(capsys, [arg.format(paper=path) for arg in argv])
        assert code == 0
        assert report.get("partial_sums", report.get("table")) == []


class TestSampleWindowBound:
    # Each of these ran with no output until it was killed; the depth-only
    # one has 11 vertices, but six deep words of about 10^8 digits each.
    DESCENDANT = {"family": "descendant", "apex": {"level": 0, "digits": [2]}}

    @pytest.mark.parametrize(
        "argv, size",
        [
            (["analyze", "{paper}", "--digits", "40", "--depth", "4"], "1,404,098"),
            (["analyze", "{paper}", "--digits", "3", "--depth", "12"], "3,786,621"),
            (["analyze", "{paper}", "--digits", "0", "--depth", "100000000"], "600,000,024"),
            (["analyze", "{descendant}", "--digits", "9", "--depth", "7"], "7,654,321"),
            (["aluthge-weights", "{paper}", "--digits", "40", "--depth", "4"], "1,404,098"),
        ],
        ids=["wide", "deep", "depth-only", "descendant", "aluthge-weights"],
    )
    def test_refused_with_its_size(self, tmp_path, capsys, argv, size):
        paths = {
            "paper": write(tmp_path, "paper.json", {"family": "paper"}),
            "descendant": write(tmp_path, "desc.json", self.DESCENDANT),
        }
        code, report, err = run(capsys, [arg.format(**paths) for arg in argv])
        assert code == 1
        assert report is None
        assert err == (
            f"error: sample window too large: at least {size} vertices and digits, above 1,000,000\n"
        )

    @pytest.mark.parametrize("depth, digits", [(3, 3), (2, 3), (3, 2)])
    @pytest.mark.parametrize("family", ["paper", "descendant"])
    def test_default_and_benchmark_windows_report(self, tmp_path, capsys, family, depth, digits):
        path = write(tmp_path, "tree.json", self.DESCENDANT if family == "descendant" else {"family": family})
        code, report, _ = run(capsys, ["analyze", path, "--depth", str(depth), "--digits", str(digits)])
        assert code == 0
        assert report["inputs"]["depth"] == depth and report["inputs"]["digits"] == digits


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 1

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0

    def test_one_parser_serves_every_call(self, tmp_path, capsys, monkeypatch):
        built = []
        real = argparse.ArgumentParser.add_subparsers
        monkeypatch.setattr(
            argparse.ArgumentParser, "add_subparsers", lambda self, **kw: built.append(1) or real(self, **kw)
        )
        build_parser.cache_clear()
        path = write(tmp_path, "paper.json", {"family": "paper"})
        assert main(["analyze"]) == 1
        capsys.readouterr()
        assert main(["analyze", path]) == 0
        out = capsys.readouterr().out
        assert built == [1]
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        fresh = subprocess.run(
            [sys.executable, "-m", "treeshift.cli", "analyze", path],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert fresh.returncode == 0, fresh.stderr
        assert out == fresh.stdout


class TestCertificateSerialization:
    @pytest.mark.parametrize(
        "cert, expected",
        [
            (
                TermsDoNotVanish(start=3, lower_bound=1.5),
                {"kind": "terms-do-not-vanish", "start": 3, "lower_bound": 1.5, "heuristic": False},
            ),
            (
                EventuallyIncreasing(start=2, ratio=1.125),
                {"kind": "eventually-increasing", "start": 2, "ratio": 1.125, "heuristic": False},
            ),
        ],
    )
    def test_exact_fields(self, cert, expected):
        got = cert_dict(cert)
        assert got == expected
        assert list(got) == list(expected)


def stdlib_text(report) -> str:
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


def emitted(report) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        emit(report, ["summary"])
    return out.getvalue()


REPORT_STRINGS = st.text() | st.text(st.sampled_from("a\x00\x1f\x7f\"\\\n\t\u00e9\u2028\ud800\U0001f600"))
REPORT_SCALARS = (
    st.none()
    | st.booleans()
    | st.sampled_from([0, 1, -1, 2**64, -(2**64), 10**40, -0.0, 0.0, 5e-324, 1e308, -1e308])
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | REPORT_STRINGS
)
REPORT_TREES = st.recursive(
    REPORT_SCALARS | st.sampled_from([[], {}, ()]),
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(REPORT_STRINGS, inner, max_size=5),
    max_leaves=40,
)


class TestReportWriter:
    """``emit`` writes what ``json.dumps(..., sort_keys=True, indent=2)`` writes."""

    @given(report=REPORT_TREES)
    @example(report={"b": [True, 1, False, 0], "a": {"\u00e9\x01": [[], {}, ()], "": (-0.0, 5e-324)}})
    @example(report=[2**64 + 1, -(2**70), 1e308, [[[{}]]], {"z": True, "y": 1, "x": False, "w": 0}])
    @settings(max_examples=400, deadline=None)
    def test_equals_the_stdlib_encoder(self, report):
        assert emitted(report) == stdlib_text(report)

    def test_shared_containers_take_each_indent(self):
        pair = [1.5, "x", {}]
        cert = {"kind": "k", "start": 3, "pair": pair}
        report = {
            "a": cert,
            "b": cert,
            "deep": [[cert, pair], {"again": cert}],
            "pairs": [pair, pair],
            "top": pair,
        }
        assert emitted(report) == stdlib_text(report)

    def test_non_finite_value_in_a_shared_container(self, capsys):
        shared = [1.0, {"value": math.nan}]
        with pytest.raises(ArithmeticError, match="^the report holds a non-finite value"):
            emit({"a": shared, "b": [shared]}, ["summary"])
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "report",
        [{"z": 1j}, {"s": {1, 2}}, {"nested": [{3: "int key"}]}],
        ids=["complex", "set", "int-key"],
    )
    def test_other_types_raise(self, capsys, report):
        with pytest.raises(TypeError):
            emit(report, ["summary"])
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "{paper}", "--t", "0.5"],
            ["analyze", "{four}", "--t", "0.9"],
            ["aluthge-weights", "{paper}", "--t", "0.1"],
            ["witness", "--t", "0.999", "--K", "5"],
            ["oracle", "--random", "5", "--t", "0.1,0.5,1.0"],
        ],
        ids=["analyze-paper", "analyze-four", "aluthge-weights", "witness", "oracle"],
    )
    def test_command_reports_equal_the_stdlib_encoder(self, tmp_path, capsys, monkeypatch, argv):
        reports = []
        real = cli.emit
        monkeypatch.setattr(cli, "emit", lambda report, lines: reports.append(report) or real(report, lines))
        paths = {
            "paper": write(tmp_path, "paper.json", {"family": "paper"}),
            "four": write(tmp_path, "four.json", FOUR_VERTEX),
        }
        assert main([arg.format(**paths) for arg in argv]) == 0
        [report] = reports
        assert capsys.readouterr().out == stdlib_text(report)

    def test_certificates_are_shared_by_identity(self, tmp_path, capsys, monkeypatch):
        # Equal certificates stay apart: 2 and 2.0 print differently.
        cert = EventuallyIncreasing(start=4, ratio=2)
        certs = {"1:": cert, "2:": EventuallyIncreasing(start=4, ratio=2.0), "3:": cert}
        real = analysis.certify_trivial_aluthge_domain
        monkeypatch.setattr(
            analysis,
            "certify_trivial_aluthge_domain",
            lambda *a: dataclasses.replace(real(*a), per_vertex=certs),
        )
        reports = []
        monkeypatch.setattr(cli, "emit", lambda report, lines: reports.append(report))
        assert main(["analyze", write(tmp_path, "paper.json", {"family": "paper"})]) == 0
        per_vertex = reports[0]["verdicts"]["aluthge_domain"]["per_vertex"]
        assert per_vertex["1:"] is per_vertex["3:"]
        assert per_vertex["1:"] is not per_vertex["2:"]
        printed = json.loads(emitted(reports[0]))["verdicts"]["aluthge_domain"]["per_vertex"]
        assert [type(printed[k]["ratio"]) for k in ("1:", "2:", "3:")] == [int, float, int]
