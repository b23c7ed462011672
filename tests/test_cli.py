"""Subcommand behaviour, document plumbing, and exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bellift
from bellift import Report, ReportRow, SeesawConfig, mabk, make_state, sum_squared_correlations
from bellift.cli import _build_parser, main
from bellift.documents import parse_expression, serialize_expression
from bellift.quantum import DEGENERACY_TOL, STATE_NAMES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_doc(tmp_path, name, expr):
    path = tmp_path / name
    path.write_text(json.dumps(serialize_expression(expr)))
    return str(path)


def test_mabk_roundtrip(capsys):
    code, out, _ = run(capsys, "mabk", "2")
    assert code == 0
    assert parse_expression(out) == mabk(2)


def test_lr_bound_and_tightness(capsys, tmp_path):
    path = write_doc(tmp_path, "chsh.json", mabk(2))
    code, out, _ = run(capsys, "lr-bound", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["lr_max"] == "1"
    assert payload["witness"] is not None

    code, out, _ = run(capsys, "tightness", path)
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "lr_max": "1",
        "saturating": 4,
        "rank": 4,
        "valid": True,
        "tight": True,
    }


def test_stdin_input(capsys, monkeypatch):
    doc = json.dumps(serialize_expression(mabk(2)))
    monkeypatch.setattr("sys.stdin", __import__("io").StringIO(doc))
    code, out, _ = run(capsys, "lr-bound", "-")
    assert code == 0
    assert json.loads(out)["lr_max"] == "1"


def test_facets_command(capsys):
    code, out, _ = run(capsys, "facets", "2", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 16
    assert all(parse_expression(doc) for doc in payload["facets"])
    code, out, _ = run(capsys, "facets", "3", "3")
    assert code == 0 and json.loads(out)["count"] == 90


def test_lift2_command(capsys, tmp_path):
    from bellift import BellExpression, Scenario

    one = Scenario((2,))
    d0 = write_doc(tmp_path, "d0.json", BellExpression.from_terms(one, [((0,), 1)]))
    d1 = write_doc(tmp_path, "d1.json", BellExpression.from_terms(one, [((1,), 1)]))
    code, out, _ = run(capsys, "lift2", d0, d1)
    assert code == 0
    doc = json.loads(out)
    assert parse_expression(doc) == mabk(2)
    assert doc["metadata"]["inputs_tight"] == [True, True]
    assert doc["metadata"]["output_tight"] is True


def test_lift3_and_compat_on_incompatible_triple(capsys, tmp_path):
    from bellift import BellExpression, Scenario

    two = Scenario((2, 2))
    paths = [
        write_doc(tmp_path, f"e{k}.json", BellExpression.from_terms(two, [(idx, 1)]))
        for k, idx in enumerate([(0, 0), (0, 1), (1, 0)])
    ]
    code, out, err = run(capsys, "compat", *paths)
    assert code == 0
    payload = json.loads(out)
    assert payload["holds"] is False
    assert payload["witness"] is not None

    code, out, err = run(capsys, "lift3", *paths, "--no-diagnose")
    assert code == 0
    assert "compatibility condition fails" in err
    assert json.loads(out)["metadata"]["compatibility"] is False


def test_compat_on_a_compatible_triple_has_no_witness(capsys, tmp_path):
    from bellift import symmetry_images, wbz333

    _, b2, b3 = symmetry_images()
    paths = [write_doc(tmp_path, f"e{k}.json", e) for k, e in enumerate([wbz333(), b2, b3])]
    code, out, _ = run(capsys, "compat", *paths)
    assert code == 0
    assert json.loads(out) == {"holds": True, "witness": None}


def test_lift_metadata_keys_in_order(capsys, tmp_path):
    from bellift import BellExpression, Scenario, symmetry_images, wbz333

    _, b2, b3 = symmetry_images()
    paths = [write_doc(tmp_path, f"{k}.json", e) for k, e in enumerate((wbz333(), b2, b3))]
    code, out, err = run(capsys, "lift3", *paths)
    assert code == 0 and err == ""
    meta = json.loads(out)["metadata"]
    assert list(meta) == ["name", "compatibility", "inputs_tight", "output_tight"]
    assert meta == {
        "name": "lift3",
        "compatibility": True,
        "inputs_tight": [True, True, True],
        "output_tight": True,
    }

    two = Scenario((2, 2))
    paths = [
        write_doc(tmp_path, f"e{k}.json", BellExpression.from_terms(two, [(idx, 1)]))
        for k, idx in enumerate([(0, 0), (0, 1), (1, 0)])
    ]
    code, out, err = run(capsys, "lift3", *paths)
    assert code == 0 and "compatibility condition fails" in err
    assert list(json.loads(out)["metadata"]) == [
        "name", "compatibility", "compatibility_witness", "inputs_tight", "output_tight"
    ]

    code, out, err = run(capsys, "lift2", *paths[:2])
    assert code == 0 and err == ""
    assert list(json.loads(out)["metadata"]) == ["name", "inputs_tight", "output_tight"]


@pytest.mark.parametrize("command", ["lift2", "lift3"])
def test_lift_help(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert "--no-diagnose" in capsys.readouterr().out


def test_builtin_commands(capsys):
    code, out, _ = run(capsys, "builtin", "four-party-19")
    assert code == 0
    doc = json.loads(out)
    assert doc["settings"] == [3, 3, 3, 3]
    assert len(doc["terms"]) == 46

    code, out, _ = run(capsys, "builtin", "symmetry-images")
    assert code == 0
    images = json.loads(out)
    assert len(images) == 3
    assert {img["metadata"]["name"] for img in images} == {
        "swap-settings-0-1",
        "swap-settings-0-2",
        "cycle-settings-201",
    }


def test_violate_then_spectrum(capsys, tmp_path):
    chsh = write_doc(tmp_path, "chsh.json", mabk(2))
    code, out, _ = run(
        capsys, "violate", chsh, "--state", "bell-pair", "--restarts", "5"
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["value"] - math.sqrt(2)) < 1e-9
    assert payload["scale"] == "1"

    settings_path = tmp_path / "settings.json"
    settings_path.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "spectrum", chsh, str(settings_path))
    assert code == 0
    eigs = json.loads(out)["eigenvalues"]
    assert abs(eigs[0] - math.sqrt(2)) < 1e-9


@pytest.mark.parametrize("settings", [3, {"settings": "x"}], ids=["number", "wrapped-string"])
def test_spectrum_refuses_a_settings_document_that_is_not_a_list(capsys, tmp_path, settings):
    settings_path = tmp_path / "settings.json"
    settings_path.write_text(json.dumps(settings))
    chsh = write_doc(tmp_path, "chsh.json", mabk(2))
    code, _, err = run(capsys, "spectrum", chsh, str(settings_path))
    assert code == 1 and "must be a list" in err


def test_violate_state_options(capsys, tmp_path):
    chsh = write_doc(tmp_path, "chsh.json", mabk(2))
    code, _, err = run(capsys, "violate", chsh, "--state", "generalized-ghz")
    assert code == 1 and "--lam-deg" in err
    code, _, err = run(capsys, "violate", chsh, "--state", "ghz")
    assert code == 1 and "--parties" in err
    code, _, err = run(capsys, "violate", chsh, "--state", "bell-pair", "--restarts", "0")
    assert code == 1 and err.startswith("bellift: error:") and "restarts" in err
    code, _, err = run(capsys, "violate", chsh, "--state", "bell-pair", "--tol", "nan")
    assert code == 1 and err.startswith("bellift: error:") and "tol" in err


def test_oversized_states_exit_with_the_cap_code(capsys, tmp_path):
    chsh = write_doc(tmp_path, "chsh.json", mabk(2))
    code, _, err = run(capsys, "violate", chsh, "--state", "ghz", "--parties", "40")
    assert code == 2 and "cap" in err
    code, _, err = run(capsys, "corr-tensor", "--state", "ghz", "--parties", "40")
    assert code == 2 and "cap" in err
    code, _, err = run(capsys, "corr-tensor", "--state", "ghz", "--parties", "1000000000")
    assert code == 2 and "cap" in err
    # a 13-party Bell operator would have 4^13 entries
    doc = tmp_path / "thirteen.json"
    doc.write_text(json.dumps({"settings": [1] * 13, "terms": [{"s": [0] * 13, "c": "1"}]}))
    directions = tmp_path / "directions.json"
    directions.write_text(json.dumps([[[0.0, 0.0, 1.0]]] * 13))
    code, _, err = run(capsys, "spectrum", str(doc), str(directions))
    assert code == 2 and "cap" in err


def test_non_finite_directions_are_refused(capsys, tmp_path):
    chsh = write_doc(tmp_path, "chsh.json", mabk(2))
    for bad in (math.nan, math.inf):
        directions = tmp_path / "directions.json"
        directions.write_text(json.dumps([[[bad, 0.0, 0.0], [0.0, 1.0, 0.0]]] * 2))
        code, out, err = run(capsys, "spectrum", chsh, str(directions))
        assert code == 1 and "unit vectors" in err and out == ""


def test_oversized_expressions_exit_with_the_cap_code(capsys, tmp_path):
    for n in ("40", "24"):
        code, out, err = run(capsys, "mabk", n)
        assert code == 2 and "cap" in err and out == ""
    doc = tmp_path / "thirty.json"
    doc.write_text(json.dumps({"settings": [2] * 30, "terms": [{"s": [0] * 30, "c": "1"}]}))
    code, out, err = run(capsys, "lr-bound", str(doc))
    assert code == 2 and "cap" in err and out == ""
    # 2^18 saturating vertices x 343 coordinates, refused before the rows exist
    doc = tmp_path / "seven.json"
    doc.write_text(json.dumps({"settings": [7, 7, 7], "terms": [{"s": [0, 0, 0], "c": "1"}]}))
    code, out, err = run(capsys, "tightness", str(doc))
    assert code == 2 and "cap" in err and out == ""


def test_corr_tensor_command(capsys):
    code, out, _ = run(capsys, "corr-tensor", "--state", "bell-pair")
    assert code == 0
    payload = json.loads(out)
    assert payload["parties"] == 2
    assert abs(payload["sum_squares"] - 3.0) < 1e-9
    assert abs(payload["values"][2][2] - 1.0) < 1e-12  # zz


@pytest.mark.parametrize("name", STATE_NAMES)
def test_corr_tensor_takes_every_state_name(capsys, name):
    extra, param = {
        "ghz": (["--parties", "2"], 2),
        "product-zeros": (["--parties", "2"], 2),
        "generalized-ghz": (["--lam-deg", "10"], math.radians(10)),
    }.get(name, ([], None))
    code, out, _ = run(capsys, "corr-tensor", "--state", name, *extra)
    assert code == 0
    assert json.loads(out)["sum_squares"] == sum_squared_correlations(make_state(name, param))


def test_unknown_state_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["corr-tensor", "--state", "nope"])
    assert exc.value.code == 1
    assert "invalid choice: 'nope'" in capsys.readouterr().err


def test_mabk_needs_a_party(capsys):
    code, out, err = run(capsys, "mabk", "0")
    assert code == 1 and out == ""
    assert err == "bellift: error: mabk needs at least one party\n"


def test_defaults_come_from_the_library():
    parser, cfg = _build_parser(), SeesawConfig()
    args = parser.parse_args(["violate", "e.json", "--state", "ghz4"])
    assert (args.restarts, args.seed, args.tol) == (cfg.restarts, cfg.seed, cfg.tol)
    args = parser.parse_args(["reproduce"])
    assert (args.restarts, args.seed) == (cfg.restarts, cfg.seed)
    assert parser.parse_args(["spectrum", "e.json", "s.json"]).tol == DEGENERACY_TOL


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "chsh.json"
    code, out, _ = run(capsys, "mabk", "2", "--out", str(target))
    assert code == 0 and out == ""
    assert parse_expression(target.read_text()) == mabk(2)


def test_exit_codes(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"settings": [2, 2], "terms": [{"s": [0, 9], "c": "1"}]}')
    code, _, err = run(capsys, "lr-bound", str(bad))
    assert code == 1 and "out of bounds" in err

    code, _, err = run(capsys, "facets", "3", "3", "3")  # 128 vertices > 64
    assert code == 2 and "cap" in err

    code, _, err = run(capsys, "facets", "24")  # refused before any table is built
    assert code == 2 and "cap" in err

    code, _, err = run(capsys, "lr-bound", str(tmp_path / "missing.json"))
    assert code == 1

    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1


def test_reproduce_exit_codes(capsys, monkeypatch):
    def fake_report(seed=0, restarts=50):
        rows = (ReportRow("q", "1", "1", "exact", True, 0.0),)
        return Report(rows, seed, restarts, 0.0)

    monkeypatch.setattr("bellift.cli.reproduce_report", fake_report)
    code, out, _ = run(capsys, "reproduce")
    assert code == 0
    assert "pass" in out

    def failing_report(seed=0, restarts=50):
        rows = (ReportRow("q", "1", "2", "exact", False, 0.0),)
        return Report(rows, seed, restarts, 0.0)

    monkeypatch.setattr("bellift.cli.reproduce_report", failing_report)
    code, out, _ = run(capsys, "reproduce")
    assert code == 3
    assert "FAIL" in out


def test_reproduce_out_accepts_numpy_bool_rows(capsys, monkeypatch, tmp_path):
    # rows whose pass flag came from a numpy comparison must still serialize,
    # and the exit code must stay 3 rather than turning into a write error
    def report_with_numpy_flag(seed=0, restarts=50):
        rows = (ReportRow("q", "1", "2", "exact", np.bool_(False), 0.25),)
        return Report(rows, seed, restarts, 0.0)

    monkeypatch.setattr("bellift.cli.reproduce_report", report_with_numpy_flag)
    out_file = tmp_path / "report.json"
    code, _, _ = run(capsys, "reproduce", "--out", str(out_file))
    assert code == 3
    payload = json.loads(out_file.read_text())
    assert payload["passed"] is False
    assert payload["rows"][0]["passed"] is False
    assert payload["rows"][0]["elapsed_s"] == 0.25


def test_console_script_is_installed():
    # the child imports the same bellift as the tests, installed or not
    src = str(Path(bellift.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-m", "bellift.cli", "mabk", "1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["settings"] == [2]
