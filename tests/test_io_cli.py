"""JSON formats and the command-line front end."""

import itertools
import json
import random
from fractions import Fraction

import pytest

import desir.cones
from desir.bernstein import BernsteinPoly
from desir.cli import main
from desir.gambles import CountSpace, Gamble, SequenceSpace
from desir.io import (
    SchemaError,
    format_gamble,
    format_polynomial,
    format_rational,
    format_space,
    parse_assessment,
    parse_counts,
    parse_frequency,
    parse_gamble,
    parse_polynomial,
    parse_rational,
    parse_sample,
    parse_script,
    parse_space,
    point_key,
)

F = Fraction
BW = ("b", "w")

ASSESSMENT = {
    "space": {"categories": ["b", "w"], "length": 2},
    "generators": [
        {"values": {"bb": "-3", "bw": "1", "wb": "1", "ww": "-3"}}
    ],
    "lineality": "exchangeable",
}

GAMBLE_IBW = {"values": {"bb": "0", "bw": "1", "wb": "0", "ww": "0"}}

EXPLICIT_LINEALITY = {
    "space": {"categories": ["b", "w"], "length": 2},
    "generators": [{"values": {"bb": "1", "bw": "-1", "wb": "0", "ww": "0"}}],
    "lineality": [{"values": {"bb": "1", "bw": "0", "wb": "0", "ww": "0"}}],
}

POLY_DIP = {
    "categories": ["b", "w"],
    "degree": 2,
    "coefficients": {"2,0": "-3", "1,1": "1", "0,2": "-3"},
}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestRationals:
    def test_round_trip(self):
        rng = random.Random(3)
        for _ in range(50):
            value = F(rng.randint(-40, 40), rng.randint(1, 12))
            assert parse_rational(format_rational(value), "x") == value

    def test_integers_pass_through(self):
        assert parse_rational(-7, "x") == -7
        assert format_rational(F(6, 3)) == "2"

    def test_rejects_floats_bools_and_decimals(self):
        for bad in (0.5, True, "0.5", "1/0", "1/-2", "", "two"):
            with pytest.raises(SchemaError):
                parse_rational(bad, "x")


class TestSpacesAndGambles:
    def test_space_round_trip(self):
        for space in (SequenceSpace(BW, 3), CountSpace(("x", "y", "z"), 2)):
            assert parse_space(format_space(space)) == space

    def test_exactly_one_size_field(self):
        with pytest.raises(SchemaError):
            parse_space({"categories": ["b", "w"]})
        with pytest.raises(SchemaError):
            parse_space({"categories": ["b", "w"], "length": 2, "total": 2})

    def test_multicharacter_labels_use_commas(self):
        space = SequenceSpace(("lo", "hi"), 2)
        assert point_key(space, ("lo", "hi")) == "lo,hi"
        g = Gamble.unit(space)
        assert parse_gamble(format_gamble(g)) == g

    def test_gamble_round_trip_exact(self):
        rng = random.Random(11)
        space = SequenceSpace(BW, 2)
        for _ in range(20):
            g = Gamble.from_function(
                space, lambda x: F(rng.randint(-9, 9), rng.randint(1, 7))
            )
            assert parse_gamble(format_gamble(g)) == g

    def test_count_gamble_round_trip(self):
        space = CountSpace(BW, 3)
        g = Gamble.from_function(space, lambda m: F(m[0] - m[1], 2))
        assert parse_gamble(format_gamble(g)) == g

    def test_bare_values_need_context(self):
        with pytest.raises(SchemaError):
            parse_gamble(GAMBLE_IBW)
        g = parse_gamble(GAMBLE_IBW, "gamble", SequenceSpace(BW, 2))
        assert g[("b", "w")] == 1

    def test_reports_missing_and_duplicate_points(self):
        space = SequenceSpace(BW, 2)
        with pytest.raises(SchemaError):
            parse_gamble({"values": {"bb": "1"}}, "g", space)
        with pytest.raises(SchemaError):
            parse_gamble(
                {"values": {"bb": "1", "bw": "0", "wb": "0", "ww": "0", "b,b": "2"}},
                "g",
                space,
            )

    def test_space_context_conflict_rejected(self):
        payload = {
            "space": {"categories": ["b", "w"], "length": 3},
            "values": {},
        }
        with pytest.raises(SchemaError):
            parse_gamble(payload, "g", SequenceSpace(BW, 2))


class TestAssessmentsAndPolynomials:
    def test_assessment_parses(self):
        spec = parse_assessment(ASSESSMENT)
        assert spec.space == SequenceSpace(BW, 2)
        assert len(spec.generators) == 1
        assert spec.lineality == "exchangeable"

    def test_lineality_defaults_to_empty(self):
        spec = parse_assessment({"space": {"categories": ["b", "w"], "length": 2}})
        assert spec.lineality == ()

    def test_exchangeable_needs_sequences(self):
        with pytest.raises(SchemaError):
            parse_assessment(
                {"space": {"categories": ["b", "w"], "total": 2},
                 "lineality": "exchangeable"}
            )

    def test_polynomial_round_trip(self):
        p = parse_polynomial(POLY_DIP)
        assert isinstance(p, BernsteinPoly) and p.degree == 2
        assert parse_polynomial(format_polynomial(p)).coefficients == p.coefficients

    def test_counts_samples_frequencies(self):
        assert parse_counts("2,1", "c", BW) == (2, 1)
        assert parse_counts([0, 3], "c", BW) == (0, 3)
        assert parse_sample("bwb", "s", BW) == ("b", "w", "b")
        theta = parse_frequency("1/4,3/4", BW)
        assert theta.values == (F(1, 4), F(3, 4))
        with pytest.raises(SchemaError):
            parse_counts("2,-1", "c", BW)
        with pytest.raises(SchemaError):
            parse_sample("bx", "s", BW)
        with pytest.raises(SchemaError):
            parse_frequency("1/4,1/4", BW)


class TestScripts:
    def test_script_with_file_references(self, tmp_path):
        write(tmp_path, "assessment.json", ASSESSMENT)
        write(tmp_path, "gamble.json", GAMBLE_IBW)
        script = {
            "space": {"categories": ["b", "w"], "length": 2},
            "model": {"assessment": "assessment.json"},
            "queries": [
                {"op": "check"},
                {"op": "member", "gamble": "gamble.json"},
            ],
        }
        parsed = parse_script(script, tmp_path)
        assert parsed.cap is None
        assert [q.op for q in parsed.queries] == ["check", "member"]
        assert parsed.spec.lineality == "exchangeable"

    def test_inline_generators_and_cap(self, tmp_path):
        script = {
            "space": {"categories": ["b", "w"], "length": 2},
            "model": {"generators": [GAMBLE_IBW], "cap": 12},
            "queries": [{"op": "check"}],
        }
        parsed = parse_script(script, tmp_path)
        assert parsed.cap == 12
        assert len(parsed.spec.generators) == 1

    def test_assessment_and_generators_conflict(self, tmp_path):
        write(tmp_path, "assessment.json", ASSESSMENT)
        script = {
            "space": {"categories": ["b", "w"], "length": 2},
            "model": {"assessment": "assessment.json", "generators": []},
            "queries": [{"op": "check"}],
        }
        with pytest.raises(SchemaError):
            parse_script(script, tmp_path)

    def test_update_query_operand_typing(self, tmp_path):
        script = {
            "space": {"categories": ["b", "w"], "length": 2},
            "model": {},
            "queries": [
                {"op": "update", "counts": "1,0", "gamble": {"values": {"1,0": "1", "0,1": "2"}}}
            ],
        }
        parsed = parse_script(script, tmp_path)
        q = parsed.queries[0]
        assert q.params["counts"] == (1, 0)
        assert q.params["gamble"].space == CountSpace(BW, 1)

    def test_script_lineality_list_matches_the_assessment_file(self, tmp_path):
        script = {
            "space": EXPLICIT_LINEALITY["space"],
            "model": {"generators": EXPLICIT_LINEALITY["generators"],
                      "lineality": EXPLICIT_LINEALITY["lineality"]},
            "queries": [{"op": "check"}],
        }
        assert parse_script(script, tmp_path).spec == parse_assessment(EXPLICIT_LINEALITY)

    @pytest.mark.parametrize("space, lineality, field", [
        ({"categories": ["b", "w"], "length": 2}, "symmetric", "script.model.lineality"),
        ({"categories": ["b", "w"], "length": 2}, 3, "script.model.lineality"),
        ({"categories": ["b", "w"], "total": 2}, "exchangeable", "script.model.lineality"),
        ({"categories": ["b", "w"], "length": 2}, [{"values": {"bb": "1"}}],
         "script.model.lineality[0].values"),
    ])
    def test_script_lineality_errors_name_the_field(self, tmp_path, capsys, space, lineality,
                                                    field):
        script = {"space": space, "model": {"lineality": lineality},
                  "queries": [{"op": "check"}]}
        with pytest.raises(SchemaError) as info:
            parse_script(script, tmp_path)
        assert info.value.field == field
        assert main(["run", write(tmp_path, "script.json", script)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {field}: ")

    def test_unknown_op_rejected(self, tmp_path):
        script = {
            "space": {"categories": ["b", "w"], "length": 2},
            "queries": [{"op": "frobnicate"}],
        }
        with pytest.raises(SchemaError):
            parse_script(script, tmp_path)


class TestCliCommands:
    def test_check_reports_avoidance(self, tmp_path, capsys):
        path = write(tmp_path, "a.json", ASSESSMENT)
        assert main(["check", path]) == 0
        out = capsys.readouterr().out
        assert out == "avoids non-positivity under exchangeability: true\n"

    def test_check_incoherent_exits_two(self, tmp_path, capsys):
        bad = {
            "space": {"categories": ["b", "w"], "length": 2},
            "generators": [{"values": {"bb": "-1", "bw": "0", "wb": "0", "ww": "-1"}}],
        }
        path = write(tmp_path, "bad.json", bad)
        assert main(["check", path]) == 2
        out = capsys.readouterr().out
        assert "avoids non-positivity: false" in out
        assert "witness combination" in out

    def test_member_prints_decomposition(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", ASSESSMENT)
        g = write(tmp_path, "g.json", GAMBLE_IBW)
        assert main(["member", a, g]) == 0
        out = capsys.readouterr().out
        assert out.startswith("member: yes\n")
        assert "generator weights" in out

    def test_member_quiet_suppresses_certificates(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", ASSESSMENT)
        g = write(tmp_path, "g.json", GAMBLE_IBW)
        assert main(["member", a, g, "--quiet"]) == 0
        assert capsys.readouterr().out == "member: yes\n"

    def test_lpr_exact_and_decimal(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", ASSESSMENT)
        g = write(tmp_path, "g.json", GAMBLE_IBW)
        assert main(["lpr", a, g]) == 0
        assert capsys.readouterr().out == (
            "lower prevision: 3/8\nupper prevision: 1/2\n"
        )
        assert main(["lpr", a, g, "--decimal"]) == 0
        out = capsys.readouterr().out
        assert "3/8 (~0.375)" in out and "1/2 (~0.5)" in out

    def test_update_with_counts(self, tmp_path, capsys):
        model = {
            "space": {"categories": ["b", "w"], "length": 2},
            "generators": [],
        }
        a = write(tmp_path, "a.json", model)
        g = write(tmp_path, "g.json", {"values": {"1,0": "1", "0,1": "-1"}})
        assert main(["update", a, g, "--counts", "1,0"]) == 0
        out = capsys.readouterr().out
        assert "observed counts: 1,0" in out
        assert "updated member:" in out
        assert "transformed count gamble: 2,0=1 1,1=-1/2 0,2=0" in out

    def test_extend_finite_refusal_exits_zero(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", ASSESSMENT)
        assert main(["extend-finite", a, "--extra", "1"]) == 0
        out = capsys.readouterr().out
        assert "extendable: no" in out
        assert "sure loss (sequences):" in out

    def test_extend_infinite_refusal(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", ASSESSMENT)
        assert main(["extend-infinite", a]) == 0
        out = capsys.readouterr().out
        assert "extendable: no" in out and "violated at degree: 3" in out

    def test_bernstein_raise_range_eval(self, tmp_path, capsys):
        p = write(tmp_path, "p.json", POLY_DIP)
        assert main(["bernstein", "raise", p, "--to", "3"]) == 0
        assert capsys.readouterr().out == (
            "coefficients at degree 3: 3,0=-3 2,1=-1/3 1,2=-1/3 0,3=-3\n"
        )
        assert main(["bernstein", "range", p, "--to", "8"]) == 0
        assert "[-3, -5/7]" in capsys.readouterr().out
        assert main(["bernstein", "eval", p, "--at", "1/2,1/2"]) == 0
        assert capsys.readouterr().out == "value at 1/2,1/2: -1\n"

    def test_bernstein_expand_respects_cap_flag(self, tmp_path, capsys):
        p = write(
            tmp_path,
            "sq.json",
            {"categories": ["b", "w"], "degree": 2,
             "coefficients": {"2,0": "1", "1,1": "-1", "0,2": "1"}},
        )
        assert main(["bernstein", "expand", p, "--cap", "8"]) == 0
        out = capsys.readouterr().out
        assert "positive expansion: undecided at cap 8" in out
        assert "nonpositive expansion: never" in out

    def test_cap_environment_variable(self, tmp_path, capsys, monkeypatch):
        p = write(
            tmp_path,
            "sq.json",
            {"categories": ["b", "w"], "degree": 2,
             "coefficients": {"2,0": "1", "1,1": "-1", "0,2": "1"}},
        )
        monkeypatch.setenv("DESIR_CAP", "4")
        assert main(["bernstein", "expand", p]) == 0
        assert "undecided at cap 4" in capsys.readouterr().out
        monkeypatch.setenv("DESIR_CAP", "junk")
        assert main(["bernstein", "expand", p]) == 1

    def test_schema_problems_exit_one(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["check", missing]) == 1
        err = capsys.readouterr().err
        assert "error:" in err

    @pytest.mark.parametrize("model, command", [
        ({"space": {"categories": ["a", "b", "c"], "length": 20}, "generators": []},
         ["check"]),
        ({"space": {"categories": ["b", "w"], "length": 2},
          "generators": [{"values": {"bb": "1", "bw": "-1", "wb": "-1", "ww": "1"}}]},
         ["extend-finite", "--extra", "2000000"]),
    ])
    def test_spaces_over_the_size_budget_exit_one(self, tmp_path, capsys, model, command):
        a = write(tmp_path, "a.json", model)
        assert main([command[0], a, *command[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "budget" in lines[0]

    @pytest.mark.parametrize("action", ["raise", "range"])
    def test_bernstein_degree_over_the_size_budget_exits_one(self, tmp_path, capsys, action):
        p = write(tmp_path, "p.json", {"categories": ["b", "w"], "degree": 1,
                                       "coefficients": {"1,0": "1", "0,1": "-1"}})
        assert main(["bernstein", action, p, "--to", "2000000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "budget" in lines[0]

    @pytest.mark.parametrize("extra", [9, 22])
    def test_extend_finite_past_the_kernel_basis_budget(self, tmp_path, capsys, extra):
        # The count check decides; the extended sequence model, whose
        # kernel basis would be over the budget, is never built.
        a = write(tmp_path, "a.json", {
            "space": {"categories": ["b", "w"], "length": 2},
            "generators": [{"values": {"bb": "1", "bw": "-1", "wb": "-1", "ww": "1"}}]})
        assert main(["extend-finite", a, "--extra", str(extra)]) == 0
        captured = capsys.readouterr()
        assert captured.out == f"extendable: yes\nextended length: {2 + extra}\n"
        assert captured.err == ""

    @pytest.mark.parametrize("command", [
        ["update", "g.json", "--counts", "1,0"],
        ["extend-finite", "--extra", "1"],
        ["extend-infinite"],
    ])
    def test_explicit_lineality_is_refused_by_exchangeable_operations(
        self, tmp_path, capsys, command
    ):
        # These operations read the generators as an exchangeable
        # assessment; an explicit lineality would be silently dropped.
        a = write(tmp_path, "a.json", EXPLICIT_LINEALITY)
        write(tmp_path, "g.json", {"values": {"1,0": "1", "0,1": "1"}})
        args = [command[0], a] + [str(tmp_path / x) if x.endswith(".json") else x
                                  for x in command[1:]]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {command[0]}: ")
        assert "lineality" in lines[0]
        assert main(["check", a]) == 2

    def test_incoherent_member_query_exits_two(self, tmp_path, capsys):
        bad = {
            "space": {"categories": ["b", "w"], "length": 2},
            "generators": [{"values": {"bb": "-1", "bw": "0", "wb": "0", "ww": "-1"}}],
        }
        a = write(tmp_path, "a.json", bad)
        g = write(tmp_path, "g.json", GAMBLE_IBW)
        assert main(["member", a, g]) == 2
        assert "error: incoherent model" in capsys.readouterr().out


class TestCliScripts:
    def _script_files(self, tmp_path):
        write(tmp_path, "assessment.json", ASSESSMENT)
        write(tmp_path, "gamble.json", GAMBLE_IBW)
        write(tmp_path, "poly.json", POLY_DIP)
        script = {
            "space": {"categories": ["b", "w"], "length": 2},
            "model": {"assessment": "assessment.json"},
            "queries": [
                {"op": "check"},
                {"op": "member", "gamble": "gamble.json"},
                {"op": "lpr", "gamble": "gamble.json"},
                {"op": "extend-finite", "extra": 1},
                {"op": "extend-infinite", "cap": 16},
                {"op": "bernstein", "action": "raise", "polynomial": "poly.json", "to": 3},
            ],
        }
        return write(tmp_path, "script.json", script)

    def test_script_runs_all_queries(self, tmp_path, capsys):
        path = self._script_files(tmp_path)
        assert main(["run", path]) == 0
        out = capsys.readouterr().out
        for index in range(1, 7):
            assert f"[{index}]" in out

    def test_script_output_is_deterministic(self, tmp_path, capsys):
        path = self._script_files(tmp_path)
        main(["run", path])
        first = capsys.readouterr().out
        main(["run", path])
        second = capsys.readouterr().out
        assert first == second

    def test_script_stops_on_raised_incoherence(self, tmp_path, capsys):
        bad = {
            "space": {"categories": ["b", "w"], "length": 2},
            "generators": [{"values": {"bb": "-1", "bw": "0", "wb": "0", "ww": "-1"}}],
            "lineality": "exchangeable",
        }
        write(tmp_path, "bad.json", bad)
        write(tmp_path, "gamble.json", GAMBLE_IBW)
        script = {
            "space": {"categories": ["b", "w"], "length": 2},
            "model": {"assessment": "bad.json"},
            "queries": [
                {"op": "member", "gamble": "gamble.json"},
                {"op": "check"},
            ],
        }
        path = write(tmp_path, "script.json", script)
        assert main(["run", path]) == 2
        out = capsys.readouterr().out
        assert "error: incoherent model" in out
        assert "[2]" not in out

    def test_script_refuses_explicit_lineality_for_update(self, tmp_path, capsys):
        write(tmp_path, "a.json", EXPLICIT_LINEALITY)
        script = {
            "space": {"categories": ["b", "w"], "length": 2},
            "model": {"assessment": "a.json"},
            "queries": [
                {"op": "check"},
                {"op": "update", "counts": "1,0",
                 "gamble": {"values": {"1,0": "1", "0,1": "1"}}},
            ],
        }
        path = write(tmp_path, "script.json", script)
        assert main(["run", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: script.queries[1]: ")

    def test_exchangeable_queries_solve_count_space_programs(self, tmp_path, capsys,
                                                             monkeypatch):
        # The sequence view of this model has 16 points; every program
        # must stay on count vectors, the largest of which, after one
        # extra variable, has 6 points.
        rows = []
        solve = desir.cones.solve

        def recording_solve(problem):
            rows.append(len(problem.equalities) + len(problem.inequalities))
            return solve(problem)

        monkeypatch.setattr(desir.cones, "solve", recording_solve)
        sequences = ["".join(x) for x in itertools.product("bw", repeat=4)]
        first_black = {x: "1/2" if x[0] == "b" else "-1/2" for x in sequences}
        script = {
            "space": {"categories": ["b", "w"], "length": 4},
            "model": {"generators": [{"values": first_black}], "lineality": "exchangeable"},
            "queries": [
                {"op": "check"},
                {"op": "member", "gamble": {"values": {x: str(x.count("b")) for x in sequences}}},
                {"op": "lpr", "gamble": {"values": {x: str(int(x[1] == "w")) for x in sequences}}},
                {"op": "update", "counts": "1,0",
                 "gamble": {"values": {"3,0": "1", "2,1": "0", "1,2": "-1", "0,3": "1"}}},
                {"op": "extend-finite", "extra": 1},
            ],
        }
        path = write(tmp_path, "script.json", script)
        assert main(["run", path]) == 0
        out = capsys.readouterr().out
        assert "avoids non-positivity under exchangeability: true" in out
        assert "member: yes" in out and "extendable: yes" in out
        assert rows and max(rows) <= CountSpace(BW, 5).size + 1

    def test_script_cap_overrides_flag(self, tmp_path, capsys):
        write(
            tmp_path,
            "sq.json",
            {"categories": ["b", "w"], "degree": 2,
             "coefficients": {"2,0": "1", "1,1": "-1", "0,2": "1"}},
        )
        script = {
            "space": {"categories": ["b", "w"], "length": 2},
            "model": {"cap": 4},
            "queries": [
                {"op": "bernstein", "action": "expand", "polynomial": "sq.json"}
            ],
        }
        path = write(tmp_path, "script.json", script)
        assert main(["run", path, "--cap", "32"]) == 0
        assert "undecided at cap 4" in capsys.readouterr().out
