import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from intercept.core import (
    CaptureSpec,
    PlanarPoint,
    make_custom_trajectory,
    make_line_trajectory,
    make_lissajous_trajectory,
    make_piecewise_linear_trajectory,
)
from intercept.plants import SIMPLE_MOTIONS
from intercept.scenario import (
    Scenario,
    ScenarioError,
    emit_result,
    emit_scenario,
    parse_result,
    parse_scenario,
)
from intercept.solver import EstimatorKind, SolveStatus, solve

MINIMAL = """
{
  "plant": "simple",
  "trajectory": {"kind": "line", "xi": 0, "eta": 1, "phi": 0, "v": 0.25},
  "capture": {"ell": 0.1, "epsilon": 1e-06}
}
"""


class TestParseScenario:
    def test_minimal_document(self):
        scenario = parse_scenario(MINIMAL)
        assert scenario.plant == "simple"
        assert scenario.trajectory.kind == "line"
        assert scenario.trajectory.v == 0.25
        assert scenario.capture == CaptureSpec(0.1, 1e-6)
        assert scenario.estimator is EstimatorKind.BEST
        assert scenario.horizon == 50.0

    def test_missing_ell_names_the_field(self):
        doc = json.loads(MINIMAL)
        del doc["capture"]["ell"]
        with pytest.raises(ScenarioError, match="ell"):
            parse_scenario(json.dumps(doc))

    def test_zero_frequency_rejected(self):
        doc = json.loads(MINIMAL)
        doc["trajectory"] = {
            "kind": "lissajous", "xi": 0, "eta": 0, "omega_x": 0, "omega_y": 1, "v": 1,
        }
        with pytest.raises(ScenarioError, match="frequencies"):
            parse_scenario(json.dumps(doc))

    @pytest.mark.parametrize("bound", [-0.9, -1])
    def test_negative_speed_bound_names_the_trajectory(self, bound):
        doc = json.loads(MINIMAL)
        doc["trajectory"] = {
            "kind": "lissajous", "xi": 3, "eta": 3, "omega_x": 1, "omega_y": 1, "v": 0.5,
            "speed_bound": bound,
        }
        with pytest.raises(ScenarioError, match="speed bound must be finite and >= 0") as info:
            parse_scenario(json.dumps(doc))
        assert info.value.field == "trajectory"

    def test_unknown_top_level_field_rejected(self):
        doc = json.loads(MINIMAL)
        doc["speed"] = 3
        with pytest.raises(ScenarioError, match="speed"):
            parse_scenario(json.dumps(doc))

    def test_unknown_trajectory_field_rejected(self):
        doc = json.loads(MINIMAL)
        doc["trajectory"]["slope"] = 3
        with pytest.raises(ScenarioError, match="slope"):
            parse_scenario(json.dumps(doc))

    def test_unknown_plant_rejected(self):
        doc = json.loads(MINIMAL)
        doc["plant"] = "rocket"
        with pytest.raises(ScenarioError, match="rocket"):
            parse_scenario(json.dumps(doc))

    def test_syntax_error_reports_line(self):
        with pytest.raises(ScenarioError, match="line"):
            parse_scenario("{\n  broken\n}")

    def test_negative_epsilon_rejected(self):
        doc = json.loads(MINIMAL)
        doc["capture"]["epsilon"] = -1.0
        with pytest.raises(ScenarioError):
            parse_scenario(json.dumps(doc))

    def test_samples_only_for_piecewise(self):
        doc = json.loads(MINIMAL)
        doc["samples"] = [[0, [0, 0]]]
        with pytest.raises(ScenarioError, match="samples"):
            parse_scenario(json.dumps(doc))

    def test_piecewise_requires_samples(self):
        doc = json.loads(MINIMAL)
        doc["trajectory"] = {"kind": "piecewise_linear"}
        with pytest.raises(ScenarioError, match="samples"):
            parse_scenario(json.dumps(doc))

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400])
    @pytest.mark.parametrize(
        "path, field",
        [
            (("trajectory", "xi"), "trajectory.xi"),
            (("capture", "ell"), "capture.ell"),
            (("capture", "epsilon"), "capture.epsilon"),
            (("horizon",), "horizon"),
        ],
    )
    def test_non_finite_number_names_the_field(self, literal, path, field):
        doc = json.loads(MINIMAL)
        owner = doc
        for key in path[:-1]:
            owner = owner[key]
        owner[path[-1]] = "@"
        text = json.dumps(doc).replace('"@"', literal)
        with pytest.raises(ScenarioError, match="finite") as exc:
            parse_scenario(text)
        assert exc.value.field == field

    @pytest.mark.parametrize(
        "literal", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400, "true", "null", '"1"']
    )
    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_non_finite_sample_names_the_sample(self, literal, slot):
        numbers = ["0", "1", "2"]
        numbers[slot] = literal
        text = (
            '{"plant": "simple", "trajectory": {"kind": "piecewise_linear"}, '
            '"samples": [[0, [0, 0]], [%s, [%s, %s]]], '
            '"capture": {"ell": 0.1, "epsilon": 1e-6}}'
        ) % tuple(numbers)
        with pytest.raises(ScenarioError, match="finite") as exc:
            parse_scenario(text)
        assert exc.value.field == "samples[1]"

    @pytest.mark.parametrize("entry", ["[0, [1]]", "[0, [1, 2, 3]]", "[0, 1, 2]", '{"t": 0}'])
    def test_malformed_sample_names_the_sample(self, entry):
        text = (
            '{"plant": "simple", "trajectory": {"kind": "piecewise_linear"}, '
            '"samples": [[0, [0, 0]], %s], "capture": {"ell": 0.1, "epsilon": 1e-6}}'
        ) % entry
        with pytest.raises(ScenarioError, match=r"\[t, \[x, y\]\]") as exc:
            parse_scenario(text)
        assert exc.value.field == "samples[1]"

    @pytest.mark.parametrize(
        "samples, index",
        [
            ("[[1, [0, 0]], [2, [1, 1]]]", "#0"),
            ("[[0, [0, 0]], [1, [1, 1]], [1, [2, 2]]]", "#2"),
            ("[[0, [0, 0]], [2, [1, 1]], [1, [2, 2]]]", "#2"),
        ],
    )
    def test_sample_order_names_the_samples(self, samples, index):
        text = (
            '{"plant": "simple", "trajectory": {"kind": "piecewise_linear"}, '
            '"samples": %s, "capture": {"ell": 0.1, "epsilon": 1e-6}}'
        ) % samples
        with pytest.raises(ScenarioError, match=index) as exc:
            parse_scenario(text)
        assert exc.value.field == "samples"

    def test_document_that_is_not_an_object_rejected(self):
        with pytest.raises(ScenarioError, match="JSON object") as exc:
            parse_scenario("[1, 2]")
        assert exc.value.field is None

    @pytest.mark.parametrize(
        "changes, field",
        [
            ({"trajectory": None}, "trajectory"),
            ({"trajectory": [0, 1]}, "trajectory"),
            ({"trajectory": {"kind": "spiral"}}, "trajectory.kind"),
            ({"capture": None}, "capture"),
            ({"capture": 0.1}, "capture"),
            ({"trajectory": {"kind": "piecewise_linear"}, "samples": {}}, "samples"),
            ({"trajectory": {"kind": "piecewise_linear"}, "samples": []}, "samples"),
            ({"estimator": "fastest"}, "estimator"),
            ({"horizon": 0}, "horizon"),
            ({"horizon": -1}, "horizon"),
        ],
    )
    def test_malformed_entry_names_the_field(self, changes, field):
        # None deletes the entry
        doc = json.loads(MINIMAL)
        for key, value in changes.items():
            if value is None:
                del doc[key]
            else:
                doc[key] = value
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(json.dumps(doc))
        assert exc.value.field == field

    def test_bool_is_not_a_number(self):
        doc = json.loads(MINIMAL)
        doc["capture"]["ell"] = True
        with pytest.raises(ScenarioError, match="number"):
            parse_scenario(json.dumps(doc))


@st.composite
def scenarios(draw):
    plant = draw(st.sampled_from(["simple", "dubins"]))
    finite = st.floats(
        min_value=-10, max_value=10, allow_nan=False, allow_subnormal=False
    )
    speed = st.floats(min_value=0, max_value=3, allow_nan=False, allow_subnormal=False)
    kind = draw(st.sampled_from(["line", "lissajous", "piecewise"]))
    if kind == "line":
        traj = make_line_trajectory(
            draw(finite), draw(finite), draw(finite), draw(speed)
        )
    elif kind == "lissajous":
        freq = st.floats(
            min_value=0.01, max_value=5, allow_nan=False, allow_subnormal=False
        )
        bound = draw(st.one_of(st.none(), st.floats(min_value=0, max_value=5)))
        traj = make_lissajous_trajectory(
            draw(finite), draw(finite), draw(freq), draw(freq), draw(speed),
            speed_bound=bound,
        )
    else:
        n = draw(st.integers(min_value=1, max_value=5))
        times = [0.0]
        for _ in range(n - 1):
            times.append(
                times[-1]
                + draw(st.floats(min_value=0.01, max_value=3, allow_subnormal=False))
            )
        pts = [PlanarPoint(draw(finite), draw(finite)) for _ in range(n)]
        traj = make_piecewise_linear_trajectory(list(zip(times, pts)))
    capture = CaptureSpec(
        draw(st.floats(min_value=0, max_value=2, allow_subnormal=False)),
        draw(st.floats(min_value=1e-12, max_value=1e-2, allow_subnormal=False)),
    )
    estimator = draw(st.sampled_from(list(EstimatorKind)))
    horizon = draw(st.floats(min_value=0.1, max_value=1000, allow_subnormal=False))
    return Scenario(plant, traj, capture, estimator, horizon)


class TestRoundTrip:
    @given(scenarios())
    @settings(max_examples=200)
    def test_parse_emit_identity(self, scenario):
        assert parse_scenario(emit_scenario(scenario)) == scenario

    def test_emitted_numbers_are_bit_exact(self):
        traj = make_line_trajectory(1 / 3, math.pi, 0.1, 2 / 7)
        scenario = Scenario("simple", traj, CaptureSpec(0.1, 1e-6), EstimatorKind.BEST, 50.0)
        back = parse_scenario(emit_scenario(scenario))
        assert back.trajectory.xi == 1 / 3
        assert back.trajectory.eta == math.pi
        assert back.trajectory.v == 2 / 7


class TestEmitScenario:
    def _emit(self, traj):
        return json.loads(
            emit_scenario(
                Scenario("simple", traj, CaptureSpec(0.1, 1e-6), EstimatorKind.BEST, 50.0)
            )
        )

    def test_lissajous_default_bound_is_not_written(self):
        doc = self._emit(make_lissajous_trajectory(0, 0, 1, 2, 0.5))
        assert doc["trajectory"] == {
            "kind": "lissajous", "xi": 0.0, "eta": 0.0, "omega_x": 1.0, "omega_y": 2.0, "v": 0.5,
        }
        strict = self._emit(make_lissajous_trajectory(0, 0, 1, 2, 0.5, speed_bound=0.75))
        assert strict["trajectory"]["speed_bound"] == 0.75

    def test_lissajous_bound_given_equal_to_v_is_written_and_kept(self):
        traj = make_lissajous_trajectory(0, 0, 1, 2, 0.5, speed_bound=0.5)
        scenario = Scenario("simple", traj, CaptureSpec(0.1, 1e-6), EstimatorKind.BEST, 50.0)
        text = emit_scenario(scenario)
        assert json.loads(text)["trajectory"]["speed_bound"] == 0.5
        back = parse_scenario(text)
        assert back.trajectory.scenario_fields() == traj.scenario_fields()
        assert emit_scenario(back) == text

    def test_piecewise_samples_sit_at_the_top_level(self):
        traj = make_piecewise_linear_trajectory([(0, PlanarPoint(1, 2)), (1, PlanarPoint(2, 2))])
        doc = self._emit(traj)
        assert doc["trajectory"] == {"kind": "piecewise_linear"}
        assert doc["samples"] == [[0.0, [1.0, 2.0]], [1.0, [2.0, 2.0]]]

    def test_custom_trajectory_cannot_be_serialized(self):
        with pytest.raises(ValueError, match="custom"):
            self._emit(make_custom_trajectory(lambda t: PlanarPoint(t, 0.0), 1.0))


class TestEmitResult:
    def test_trace_length_matches_iteration_count(self):
        traj = make_line_trajectory(0, 1, 0, 0.25)
        result = solve(SIMPLE_MOTIONS, traj, CaptureSpec(0.1, 1e-6))
        doc = json.loads(emit_result(result))
        assert doc["status"] == "intercepted"
        assert len(doc["trace"]) == doc["iterations"] + 1
        assert doc["path"] is not None

    def test_budget_result_has_no_path(self):
        traj = make_line_trajectory(0, 1, math.pi / 2, 2.0)
        result = solve(SIMPLE_MOTIONS, traj, CaptureSpec(0.1, 1e-6), max_iterations=20)
        doc = json.loads(emit_result(result))
        assert doc["status"] == "budget"
        assert doc["path"] is None

    def test_round_trip_is_bit_exact(self):
        traj = make_line_trajectory(0, 1, 0, 0.25)
        result = solve(SIMPLE_MOTIONS, traj, CaptureSpec(0.1, 1e-6))
        back = parse_result(emit_result(result))
        assert back.trace.iterates == result.trace.iterates
        assert back.t_star == result.t_star
        assert back.status is SolveStatus.INTERCEPTED
        assert back.path == result.path

    def test_no_termination_key_and_older_documents_still_parse(self):
        traj = make_line_trajectory(0, 1, 0, 0.25)
        result = solve(SIMPLE_MOTIONS, traj, CaptureSpec(0.1, 1e-6))
        doc = json.loads(emit_result(result))
        assert "termination" not in doc
        # results written before the key was dropped carried it next to status
        doc["termination"] = "captured"
        assert parse_result(json.dumps(doc)) == result


@pytest.mark.parametrize("literal", ["NaN", "Infinity"])
def test_parse_result_rejects_a_segment_duration_that_is_not_finite(literal):
    traj = make_line_trajectory(0, 1, 0, 0.25)
    doc = json.loads(emit_result(solve(SIMPLE_MOTIONS, traj, CaptureSpec(0.1, 1e-6))))
    doc["path"]["segments"][0]["duration"] = "@"
    text = json.dumps(doc).replace('"@"', literal)
    with pytest.raises(ValueError, match="segment duration must be finite"):
        parse_result(text)


def test_emitters_refuse_non_finite_numbers():
    # strict JSON: a NaN or an infinity is an error, never written as a literal
    traj = make_line_trajectory(0, 1, 0, 0.25)
    result = solve(SIMPLE_MOTIONS, traj, CaptureSpec(0.1, 1e-6))
    with pytest.raises(ValueError):
        emit_result(result._replace(t_star=math.inf))
    scenario = Scenario("simple", traj, CaptureSpec(0.1, 1e-6), EstimatorKind.BEST, math.nan)
    with pytest.raises(ValueError):
        emit_scenario(scenario)
