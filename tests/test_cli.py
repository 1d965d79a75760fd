"""Command-line interface.

Claims:
    - every verb produces the documented output and exit codes
    - JSON output is canonical (load + re-dump is byte-identical)
    - bad names, non-chain diagrams and bad flags exit nonzero
    - ``info`` on a group order past the int-to-str digit limit prints no
      partial output: one ``error:`` line and exit 1, before any chain walk
    - importing the CLI leaves numpy unloaded; only ``export`` needs it
    - a failed cross-check is an ``error:`` line and exit 1, not a traceback;
      inside ``verify`` it fails its own check and the battery runs on
    - ``verify`` passes under ``python -O``, which strips asserts
    - a reader that closes the pipe early gets exit 1 and no ``error:`` line
    - in one process, repeated requests answer as fresh ones do: the parser
      and the decoration chains are built once and hold no per-call state
"""

import json
import math
import os
import subprocess
import sys

import pytest

from platonic import chain, verify
from platonic.cli import build_parser, canonical_json, main


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

    def test_bare_family_with_no_such_rank(self, capsys):
        code, out, err = run(capsys, "info", "H", "--n", "5")
        assert (code, out) == (1, "")
        [line] = err.splitlines()
        assert line.startswith("error: unknown diagram name: 'H5'")
        assert "F4, H2, H3, H4" in line

    def test_conflicting_rank(self, capsys):
        code, _, err = run(capsys, "info", "B6", "--n", "7")
        assert code != 0

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no int-to-str digit limit")
    @pytest.mark.parametrize("flags", [(), ("--json",)], ids=["text", "json"])
    def test_order_past_the_digit_limit_prints_nothing(self, capsys, flags):
        # |W(A1700)| = 1701! has more digits than str() converts by default
        assert math.lgamma(1702) / math.log(10) > 4300
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code, out, err = run(capsys, "info", "A1700", *flags)
            assert (code, out) == (1, "")
            assert err.startswith("error: ") and err.count("\n") == 1
            code, out, _ = run(capsys, "info", "A1557", *flags)  # 1558! has 4300 digits
            assert code == 0 and str(math.factorial(1558)) in out
        finally:
            sys.set_int_max_str_digits(old)

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no int-to-str digit limit")
    def test_order_past_the_digit_limit_walks_no_chain(self, capsys):
        # the verdict walks rank decorations of rank marks from each end; a
        # refused |W| must fail before that walk starts
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        chain.cache_clear()  # a walk cached by an earlier request would count as hits
        try:
            code, out, _ = run(capsys, "info", "A1700")
            assert (code, out) == (1, "")
            assert chain.cache_info().misses == 0
        finally:
            sys.set_int_max_str_digits(old)


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

    def test_passes_under_optimize(self):
        proc = subprocess.run([sys.executable, "-O", "-m", "platonic", "verify"],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "9/9 checks passed" in proc.stdout


class TestConsistency:
    def test_tampered_count_is_an_error_line(self, capsys, tampered_face_count):
        code, out, err = run(capsys, "enumerate", "A3")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "counting gives" in err

    def test_tampered_count_fails_its_check(self, capsys, tampered_face_count):
        results = verify.run_all()
        assert [r.number for r in results] == list(range(1, 10))
        assert results[1].status == "FAIL"
        assert "geometric enumeration found 4 faces, counting gives 5" in results[1].failures
        code, out, _ = run(capsys, "verify")
        assert code == 1
        assert "FAIL           2. " in out and "checks passed" in out


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


class TestClosedPipe:
    # Buffered, a short output is first written by the flush at exit;
    # unbuffered, each print meets the closed pipe.
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [("faces", "A24"), ("info", "A3")], ids="-".join)
    def test_reader_gone_is_not_an_error(self, argv, unbuffered):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen([sys.executable, "-m", "platonic", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        proc.stdout.close()  # before the child has started, so before it writes
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert err == ""  # no ``error:`` line, no traceback


# One request of each verb and form, then a usage error (exit 2) and two
# ``error:`` lines (exit 1): a bad rank flag and a diagram with no chain.
WARM_STREAM = (
    ("info", "H4"), ("info", "B", "--n", "5", "--json"),
    ("faces", "A3", "right"), ("faces", "B4", "left", "--json"),
    ("meet", "H4", "right", "--c", "1", "--d", "2"),
    ("meet", "B3", "left", "--c", "0", "--d", "2", "--json"),
    ("enumerate", "H3", "left", "--d", "1"), ("export", "B3", "right"),
    ("faces", "A3", "up"), ("info", "B3", "--n", "3"), ("faces", "D4"),
)


def serve(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestWarmProcess:
    def test_repeated_stream_answers_as_fresh_calls(self, capsys):
        first = [serve(capsys, argv) for argv in WARM_STREAM]
        second = [serve(capsys, argv) for argv in WARM_STREAM]
        fresh = []
        for argv in WARM_STREAM:
            build_parser.cache_clear()
            chain.cache_clear()
            fresh.append(serve(capsys, argv))
        assert [code for code, _, _ in first] == [0] * 8 + [2, 1, 1]
        assert "invalid choice: 'up'" in first[8][2]
        assert first[9][2].startswith("error: ") and first[10][2].startswith("error: ")
        assert second == first
        assert fresh == first

    def test_parser_built_once(self):
        assert build_parser() is build_parser()
