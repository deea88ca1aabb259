"""Command-line surface: flags, JSON/CSV artifacts, exit codes, determinism."""

import csv
import json

from cicensus.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bounds_command(capsys):
    code, out, _ = _run(capsys, "bounds", "--n", "3", "--s", "2",
                        "--d", "2,1", "--q", "101")
    assert code == 0
    doc = json.loads(out)
    assert doc["pattern"]["delta"] == 2
    assert doc["probability"]["ci"]["bound"] == "93/101"
    assert doc["probability"]["nons"]["bound"] == "85/101"
    assert doc["probability"]["irr"]["bound"] == "89/101"
    assert doc["probability"]["ci"]["guard"] == "met"
    assert doc["p_n"] == 101 ** 3 + 101 ** 2 + 101 + 1


def test_bounds_without_q(capsys):
    code, out, _ = _run(capsys, "bounds", "--n", "2", "--s", "1", "--d", "3")
    assert code == 0
    doc = json.loads(out)
    assert "probability" not in doc
    assert doc["degree_bounds"]["nons"]["per_i"] == [16]


def test_test_command(tmp_path, capsys):
    path = tmp_path / "conic.sys"
    path.write_text("field 3\nnvars 3\npoly 1: 1:2,0,0 + 1:0,1,1\n")
    code, out, _ = _run(capsys, "test", "--field", "3",
                        "--system", str(path), "--cert", "nons")
    assert code == 0
    assert "nons: pass" in out
    assert "nonsingular complete intersection" in out


def test_test_command_failing_certificate(tmp_path, capsys):
    path = tmp_path / "crossed.sys"
    path.write_text("field 3\nnvars 3\npoly 1: 1:1,1,0\n")
    code, out, _ = _run(capsys, "test", "--field", "3",
                        "--system", str(path), "--cert", "nons")
    assert code == 0
    assert "nons: fail" in out and "sufficient condition" in out


def test_test_command_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.sys"
    path.write_text("field 3\nnvars 3\npoly 1: 1:2,0\n")
    code, _, err = _run(capsys, "test", "--field", "3", "--system", str(path))
    assert code == 1
    assert "line 3" in err


def test_exhaustive_command_with_artifacts(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CICENSUS_OUTDIR", str(tmp_path / "outdir"))
    code, out, _ = _run(capsys, "exhaustive", "--n", "2", "--s", "1",
                        "--d", "2", "--q", "2", "--cert", "stci",
                        "--out", "run.json", "--csv", "run.csv")
    assert code == 0
    doc = json.loads(out)
    assert doc["per_cert"]["stci"]["count"] == 32
    ondisk = json.loads((tmp_path / "outdir" / "run.json").read_text())
    assert ondisk == doc
    with open(tmp_path / "outdir" / "run.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "cert"
    assert len(rows) == 1 + len(doc["per_cert"])


def test_sample_command_deterministic(capsys):
    args = ("sample", "--n", "3", "--s", "2", "--d", "2,1", "--q", "101",
            "--trials", "40", "--seed", "3", "--jobs", "1", "--cert", "ci")
    code1, out1, _ = _run(capsys, *args)
    code2, out2, _ = _run(capsys, *args)
    assert code1 == code2 == 0
    d1, d2 = json.loads(out1), json.loads(out2)
    for doc in (d1, d2):
        doc.pop("runtime_ms")
        doc.pop("timestamp")
    assert d1 == d2


def test_patterns_command(tmp_path, capsys):
    code, out, _ = _run(capsys, "patterns", "--b", "12", "--n", "4", "--s", "3",
                        "--csv", str(tmp_path / "pat.csv"))
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "consistent"
    assert doc["g"] == 1595 and doc["best_rival_margin"] == 1600
    assert [tuple(e["pattern"]) for e in doc["entries"]][0] == (12, 1, 1)
    with open(tmp_path / "pat.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + len(doc["entries"])


def test_chow_command(capsys):
    code, out, _ = _run(capsys, "chow", "--n", "3", "--s", "2", "--d", "2,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_match"]
    assert doc["nons"]["per_i"][0]["coefficient"] == 24
    assert doc["irr"]["top"]["coefficient"] == 16


def test_oracle_check_command(capsys):
    code, out, _ = _run(capsys, "oracle-check", "--trials", "10", "--seed", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["trials"] == 10 and doc["agreement_rate"] == 1.0


def test_usage_error_exit_code(capsys):
    code, _, err = _run(capsys, "bounds", "--n", "2", "--s", "2", "--d", "2,1")
    assert code == 1
    assert "error" in err.lower()


def test_bad_degree_list(capsys):
    code, _, err = _run(capsys, "bounds", "--n", "3", "--s", "2", "--d", "2;1")
    assert code == 1
    assert "degree list" in err


def test_bounds_reports_matrix_shapes(capsys):
    code, out, _ = _run(capsys, "bounds", "--n", "5", "--s", "3",
                        "--d", "2,2,2")
    assert code == 0
    entries = json.loads(out)["degree_bounds"]
    assert entries["irr"]["macaulay_shape"] == [882, 495]
    assert entries["irr"]["exceeds_cap"] is False
    for cert, entry in entries.items():
        rows, cols = entry["macaulay_shape"]
        assert entry["exceeds_cap"] == (rows * cols > 1 << 25), cert
    # (6, 3, (2, 2, 2)) nons slices to a 44044x18564 matrix, over the cap
    code, out, _ = _run(capsys, "bounds", "--n", "6", "--s", "3",
                        "--d", "2,2,2")
    nons = json.loads(out)["degree_bounds"]["nons"]
    assert nons["macaulay_shape"] == [44044, 18564]
    assert nons["exceeds_cap"] is True


def _bounds_at(capsys, q):
    return _run(capsys, "bounds", "--n", "2", "--s", "1", "--d", "3",
                "--q", q)


def test_bounds_refuses_q_0_and_1(capsys):
    # the probability floors would divide by zero at q = 0 and q = 1
    for q in ("0", "1"):
        code, out, err = _bounds_at(capsys, q)
        assert code == 1 and not out
        assert err.startswith("error: ") and "prime power" in err


def test_bounds_refuses_a_q_no_field_has(capsys):
    for q in ("6", "-3", str(1 << 40)):
        code, out, err = _bounds_at(capsys, q)
        assert code == 1 and not out and err.startswith("error: ")


def test_test_command_refuses_an_unparsable_field(tmp_path, capsys):
    path = tmp_path / "conic.sys"
    path.write_text("field 3\nnvars 3\npoly 1: 1:2,0,0 + 1:0,1,1\n")
    for spec in ("abc", "3^x", "3^", "^2"):
        code, out, err = _run(capsys, "test", "--field", spec,
                              "--system", str(path))
        assert code == 1 and not out
        assert err == f"error: cannot parse field spec {spec!r}\n"
