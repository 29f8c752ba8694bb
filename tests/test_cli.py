import json
import math
import xml.etree.ElementTree as ET

import pytest

from intercept.cli import main

LINE_SIMPLE = {
    "plant": "simple",
    "trajectory": {"kind": "line", "xi": 0.0, "eta": 1.0, "phi": 0.0, "v": 0.25},
    "capture": {"ell": 0.1, "epsilon": 1e-06},
    "estimator": "best",
    "horizon": 50.0,
}

FLEEING = {
    "plant": "simple",
    "trajectory": {"kind": "line", "xi": 0.0, "eta": 1.0, "phi": math.pi / 2, "v": 2.0},
    "capture": {"ell": 0.1, "epsilon": 1e-06},
    "horizon": 10.0,
}


@pytest.fixture
def scenario_file(tmp_path):
    def write(doc):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        return str(path)

    return write


def test_solve_success(scenario_file, capsys):
    code = main(["solve", scenario_file(LINE_SIMPLE)])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "intercepted"
    assert abs(doc["t_star"] - 0.9264731) < 1e-4


def test_solve_malformed_scenario_names_field(scenario_file, capsys):
    doc = dict(LINE_SIMPLE)
    doc["capture"] = {"epsilon": 1e-6}
    code = main(["solve", scenario_file(doc)])
    err = capsys.readouterr().err
    assert code == 1
    assert "ell" in err


def test_solve_missing_file(capsys):
    code = main(["solve", "/nonexistent/scenario.json"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_solve_budget_exit_code(scenario_file, capsys):
    code = main(["solve", scenario_file(FLEEING), "--max-iterations", "25"])
    out = capsys.readouterr()
    assert code == 2
    assert json.loads(out.out)["status"] == "budget"


def test_output_is_deterministic(scenario_file, capsys):
    path = scenario_file(LINE_SIMPLE)
    main(["solve", path])
    first = capsys.readouterr().out
    main(["solve", path])
    second = capsys.readouterr().out
    assert first == second


def test_trace_prints_iterate_table(scenario_file, capsys):
    code = main(["trace", scenario_file(LINE_SIMPLE)])
    out = capsys.readouterr().out
    assert code == 0
    assert "t_n" in out.splitlines()[0]
    assert "intercepted" in out


def test_plot_writes_wellformed_svg(scenario_file, tmp_path, capsys):
    out_file = tmp_path / "plot.svg"
    code = main(["plot", scenario_file(LINE_SIMPLE), "--out", str(out_file)])
    assert code == 0
    root = ET.parse(out_file).getroot()
    assert root.tag.endswith("svg")


def test_plot_capture_above_ell_exits_zero(scenario_file, tmp_path, capsys):
    # the solve stops 5.4e-4 above ell, inside ell * (1 + epsilon)
    doc = {
        "plant": "dubins",
        "trajectory": {"kind": "line", "xi": 0.0, "eta": 3.0, "phi": 0.0, "v": 0.5},
        "capture": {"ell": 1.0, "epsilon": 1e-3},
        "estimator": "best",
        "horizon": 50.0,
    }
    path = scenario_file(doc)
    assert main(["solve", path]) == 0
    assert json.loads(capsys.readouterr().out)["path"] is not None
    out = tmp_path / "plot.svg"
    assert main(["plot", path, "--out", str(out)]) == 0
    assert ET.parse(out).getroot().tag.endswith("svg")


def test_oracle_agrees_with_solve(scenario_file, capsys):
    path = scenario_file(LINE_SIMPLE)
    main(["solve", path])
    solve_doc = json.loads(capsys.readouterr().out)
    code = main(["oracle", path, "--resolution", "1e-6"])
    oracle_doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert oracle_doc["found"] is True
    assert abs(oracle_doc["t_star"] - solve_doc["t_star"]) <= 2e-6 + 0.1 * 1e-6


def test_oracle_not_found(scenario_file, capsys):
    doc = dict(FLEEING)
    code = main(["oracle", scenario_file(doc)])
    out = capsys.readouterr()
    assert code == 2
    assert json.loads(out.out)["found"] is False


def test_lissajous_note_on_stderr(scenario_file, capsys):
    doc = {
        "plant": "simple",
        "trajectory": {
            "kind": "lissajous", "xi": -1.0, "eta": -2.0,
            "omega_x": 1.0, "omega_y": math.sqrt(2), "v": 1.0,
        },
        "capture": {"ell": 0.1, "epsilon": 1e-06},
    }
    code = main(["solve", scenario_file(doc)])
    captured = capsys.readouterr()
    assert code == 0
    assert "speed bound" in captured.err


def test_non_finite_input_is_an_input_error(scenario_file, capsys):
    # Python's JSON parser reads NaN; the solve used to report a capture at
    # t = 0 after 0 iterations
    doc = dict(LINE_SIMPLE, trajectory=dict(LINE_SIMPLE["trajectory"], xi=math.nan))
    code = main(["solve", scenario_file(doc)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "trajectory.xi" in captured.err


def test_estimator_override(scenario_file, capsys):
    path = scenario_file(LINE_SIMPLE)
    code = main(["solve", path, "--estimator", "simple"])
    assert code == 0
    json.loads(capsys.readouterr().out)


def test_unknown_flag_rejected(scenario_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", scenario_file(LINE_SIMPLE), "--turbo"])
    assert exc.value.code == 2  # argparse usage error


def test_table_runs_and_reports_matches(capsys):
    code = main(["table"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert "match" in lines[0]
    assert "56 cells" in lines[-1]
    assert "56 matching" in lines[-1]
