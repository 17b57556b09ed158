import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeshift import analysis
from treeshift.cli import ParseError, cert_dict, emit, load_tree_spec, main
from treeshift.series import EventuallyIncreasing, PartialSumExceeds, TermsDoNotVanish
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


class TestNumericalFailures:
    @pytest.mark.parametrize(
        "argv",
        [["analyze", "{paper}", "--t", "0.001"]],
        ids=["analyze-small-t"],
    )
    def test_exit_three_without_traceback(self, tmp_path, capsys, argv):
        path = write(tmp_path, "tree.json", {"family": "paper"})
        code, report, err = run(capsys, [arg.format(paper=path) for arg in argv])
        assert code == 3
        assert report is None
        assert err.startswith("numerical failure:")

    def test_overflowing_path_weight(self, tmp_path, capsys):
        # the first weight overflows itself; the second is finite, but its square is not
        for base, scale in [(1e308, 1e308), (1e300, 1.0)]:
            doc = {"family": "nat_path", "weights": {"kind": "geometric", "base": base, "scale": scale}}
            code, report, err = run(capsys, ["analyze", write(tmp_path, "tree.json", doc), "--t", "0.5"])
            assert code == 3
            assert report is None
            assert err == "numerical failure: squared-weight sum at 0 overflows\n"

    def test_witness_growth_too_close_to_one(self, capsys):
        # 4^(1-t) is so close to 1 that the certificate would start past 10**7
        code, report, err = run(capsys, ["witness", "--t", "0.9999999999"])
        assert code == 3
        assert report is None
        assert err == "numerical failure: no increasing index found; growth too close to 1\n"


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


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 1

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0


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
            (
                PartialSumExceeds(threshold=1e12, crossed_at=7),
                {"kind": "partial-sum-exceeds", "threshold": 1e12, "crossed_at": 7, "heuristic": True},
            ),
        ],
    )
    def test_exact_fields(self, cert, expected):
        got = cert_dict(cert)
        assert got == expected
        assert list(got) == list(expected)
