"""Command-line interface.

Claims:
    - every verb produces the documented output and exit codes
    - JSON output is canonical (load + re-dump is byte-identical)
    - bad names, non-chain diagrams and bad flags exit nonzero
    - importing the CLI leaves numpy unloaded; only ``export`` needs it
"""

import json
import subprocess
import sys

import pytest

from platonic.cli import canonical_json, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def roundtrip(text):
    return canonical_json(json.loads(text)) == text.strip()


class TestInfo:
    def test_h4(self, capsys):
        code, out, _ = run(capsys, "info", "H4")
        assert code == 0
        assert "14400" in out and "60" in out and "chain:        yes" in out

    def test_d5(self, capsys):
        code, out, _ = run(capsys, "info", "D5")
        assert code == 0
        assert "1920" in out and "40" in out and "chain:        no" in out

    def test_unknown_name(self, capsys):
        code, _, err = run(capsys, "info", "Q9")
        assert code != 0
        assert "Q9" in err

    def test_json_roundtrip(self, capsys):
        code, out, _ = run(capsys, "info", "B6", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["group_order"] == 46080
        assert roundtrip(out)

    def test_bare_family_with_rank_flag(self, capsys):
        code, out, _ = run(capsys, "info", "B", "--n", "6", "--json")
        assert code == 0
        assert json.loads(out)["name"] == "B6"

    def test_conflicting_rank(self, capsys):
        code, _, err = run(capsys, "info", "B6", "--n", "7")
        assert code != 0


class TestFaces:
    def test_a3_counts(self, capsys):
        code, out, _ = run(capsys, "faces", "A3", "left")
        assert code == 0
        assert "tetrahedron" in out
        counts = [int(line.split()[-1]) for line in out.splitlines()[2:]]
        assert counts == [4, 6, 4]

    def test_h4_left_counts(self, capsys):
        code, out, _ = run(capsys, "faces", "H4", "left")
        counts = [int(line.split()[-1]) for line in out.splitlines()[2:]]
        assert code == 0 and counts == [120, 720, 1200, 600]

    def test_b6_left_vertices(self, capsys):
        code, out, _ = run(capsys, "faces", "B6", "left", "--json")
        payload = json.loads(out)
        assert code == 0 and payload["rows"][0]["count"] == 12

    def test_fork_rejected(self, capsys):
        code, _, err = run(capsys, "faces", "D5", "left")
        assert code != 0
        assert "chain" in err

    def test_json_schema_and_roundtrip(self, capsys):
        code, out, _ = run(capsys, "faces", "H3", "right", "--json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"diagram", "end", "rows", "meets"}
        assert roundtrip(out)


class TestMeet:
    def test_f4(self, capsys):
        code, out, _ = run(capsys, "meet", "F4", "left", "--c", "0", "--d", "1")
        assert code == 0 and "8" in out

    def test_h4_right(self, capsys):
        code, out, _ = run(capsys, "meet", "H4", "right", "--c", "1", "--d", "2", "--json")
        assert code == 0
        assert json.loads(out)["ratio"] == 3
        assert roundtrip(out)

    def test_b3_wide_gap_shows_both(self, capsys):
        code, out, _ = run(capsys, "meet", "B3", "left", "--c", "0", "--d", "2", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["ratio"] == 8 and payload["geometric"] == 4

    def test_600cell_note(self, capsys):
        code, out, _ = run(capsys, "meet", "H4", "left", "--c", "0", "--d", "1")
        assert code == 0
        assert "12" in out and "note" in out and "20" in out

    def test_geometric_flag_for_consecutive(self, capsys):
        code, out, _ = run(capsys, "meet", "A3", "left", "--c", "0", "--d", "1",
                           "--geometric", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["ratio"] == 3 and payload["geometric"] == 3

    def test_out_of_range(self, capsys):
        code, _, err = run(capsys, "meet", "A3", "left", "--c", "2", "--d", "1")
        assert code != 0


class TestEnumerate:
    def test_h3_all_dims(self, capsys):
        code, out, _ = run(capsys, "enumerate", "H3", "left", "--json")
        payload = json.loads(out)
        assert code == 0
        assert [row["enumerated"] for row in payload["classes"]] == [12, 30, 20]
        assert all(row["match"] for row in payload["classes"])
        assert roundtrip(out)

    def test_single_dim(self, capsys):
        code, out, _ = run(capsys, "enumerate", "B3", "left", "--d", "2")
        assert code == 0 and "8 faces" in out


class TestExport:
    def test_off_to_file(self, capsys, tmp_path):
        path = tmp_path / "h3.off"
        code, _, err = run(capsys, "export", "H3", "left", "--out", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "OFF"
        assert lines[1].split()[:2] == ["12", "20"]

    def test_off_stdout(self, capsys):
        code, out, _ = run(capsys, "export", "B3", "right", "--format", "off")
        assert code == 0
        assert out.splitlines()[1].split()[:2] == ["8", "6"]

    def test_json_default_for_4d(self, capsys, tmp_path):
        path = tmp_path / "a4.json"
        code, _, _ = run(capsys, "export", "A4", "left", "--out", str(path))
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["name"] == "pentatope"
        assert len(payload["vertices"]) == 5

    def test_off_rejected_for_4d(self, capsys):
        code, _, err = run(capsys, "export", "H4", "left", "--format", "off")
        assert code != 0
        assert "rank 3" in err

    def test_unwritable_path(self, capsys, tmp_path):
        code, _, err = run(capsys, "export", "A3", "left",
                           "--out", str(tmp_path / "missing" / "x.off"))
        assert code != 0


class TestVerify:
    def test_all_pass_with_note(self, capsys):
        code, out, _ = run(capsys, "verify", "--json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 9
        statuses = {row["number"]: row["status"] for row in payload}
        assert statuses[4] == "PASS-WITH-NOTE"
        assert all(s in ("PASS", "PASS-WITH-NOTE") for s in statuses.values())
        assert roundtrip(out)


class TestStartup:
    def test_import_leaves_numpy_unloaded(self):
        code = "import sys, platonic.cli; sys.exit('numpy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr or "numpy was imported"


class TestBadUsage:
    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["info", "A3", "--bogus"])
        assert exc.value.code == 2

    def test_unknown_verb(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "A3"])
        assert exc.value.code == 2
