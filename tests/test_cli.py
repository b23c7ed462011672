"""Subcommand behaviour, document plumbing, and exit codes."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from bellift import Report, ReportRow, mabk
from bellift.cli import main
from bellift.documents import parse_expression, serialize_expression


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


def test_oversized_expressions_exit_with_the_cap_code(capsys, tmp_path):
    for n in ("40", "24"):
        code, out, err = run(capsys, "mabk", n)
        assert code == 2 and "cap" in err and out == ""
    doc = tmp_path / "thirty.json"
    doc.write_text(json.dumps({"settings": [2] * 30, "terms": [{"s": [0] * 30, "c": "1"}]}))
    code, out, err = run(capsys, "lr-bound", str(doc))
    assert code == 2 and "cap" in err and out == ""


def test_corr_tensor_command(capsys):
    code, out, _ = run(capsys, "corr-tensor", "--state", "bell-pair")
    assert code == 0
    payload = json.loads(out)
    assert payload["parties"] == 2
    assert abs(payload["sum_squares"] - 3.0) < 1e-9
    assert abs(payload["values"][2][2] - 1.0) < 1e-12  # zz


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
    out = subprocess.run(
        [sys.executable, "-m", "bellift.cli", "mabk", "1"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["settings"] == [2]
