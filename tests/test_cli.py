import argparse
import itertools
import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from dpsketch import cli, guard, harness, sketch
from dpsketch.errors import FormatError
from dpsketch.lra import LraConfig, LraState, new_lra
from dpsketch.matprod import MatProdState, new_matprod
from dpsketch.regress import RegressState, new_regress


def write_csv(path, m):
    with open(path, "w") as fh:
        for row in np.atleast_2d(m):
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


@pytest.fixture
def small_matrices(tmp_path):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((30, 6))
    b = rng.standard_normal((30, 4))
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(pa, a)
    write_csv(pb, b)
    return a, b, str(pa), str(pb)


class TestParsing:
    def test_missing_eps_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.parse_args(["lra", "--input", "x.csv", "--rank", "3", "--delta", "0.01"])
        assert err.value.code == 2

    def test_valid_parse(self):
        cfg = cli.parse_args(
            ["lra", "--input", "x.csv", "--rank", "5", "--eps", "1", "--delta", "0.01"]
        )
        assert cfg.command == "lra" and cfg.rank == 5

    def test_domain_violation_exits_2(self):
        rc = cli.main(
            ["lra", "--input", "x.csv", "--rank", "5", "--eps", "1", "--delta", "2"]
        )
        assert rc == 2

    @pytest.mark.parametrize("oversample", ["1", "0", "-3"])
    def test_oversample_below_two_exits_2(self, small_matrices, capsys, oversample):
        # The parser refuses it, like --rank 0, before any input is read.
        _, _, pa, _ = small_matrices
        rc = cli.main(["lra", "--input", pa, "--rank", "2", "--oversample", oversample,
                       "--eps", "1", "--delta", "0.01"])
        assert rc == 2
        assert "oversampling must be >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["lra", "--input", "{a}", "--rank", "2", "--eps", "1", "--delta", "0.01"],
        ["multiply", "--input", "{a}", "--input-b", "{b}", "--eps", "1", "--delta", "0.01",
         "--alpha", "0.5", "--beta", "0.2"],
        ["regress", "--input", "{a}", "--input-b", "{b}", "--eps", "1", "--delta", "0.01",
         "--alpha", "0.5", "--beta", "0.2"],
        ["verify"],
    ], ids=["lra", "multiply", "regress", "verify"])
    def test_negative_seed_exits_2(self, small_matrices, capsys, argv):
        _, _, pa, pb = small_matrices
        rc = cli.main([x.format(a=pa, b=pb) for x in argv] + ["--seed", "-1"])
        assert rc == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err

    def test_unknown_flag(self):
        with pytest.raises(SystemExit):
            cli.parse_args(["lra", "--frobnicate"])

    def test_readme_options_table_matches_parser(self):
        # README's per-command options table lists exactly the option
        # strings of each command's sub-parser.
        lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
        start = lines.index("| command | options |") + 2
        documented = {}
        for line in itertools.takewhile(lambda x: x.startswith("|"), lines[start:]):
            _, commands, options, _ = line.split("|")
            for command in re.findall(r"`([a-z]+)`", commands):
                documented[command] = set(re.findall(r"`(--[a-z-]+)`", options))
        subparsers = next(
            a for a in cli._build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        ).choices
        assert set(documented) == set(subparsers)
        for command, parser in subparsers.items():
            flags = {f for a in parser._actions for f in a.option_strings} - {"-h", "--help"}
            assert documented[command] == flags, command


class TestIoFaults:
    """A file that cannot be read or written ends as an error line, exit 1."""

    def _assert_error_line(self, capsys, needle):
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and needle in err
        assert "Traceback" not in err

    def test_missing_input(self, tmp_path, capsys):
        missing = str(tmp_path / "nonexistent.csv")
        rc = cli.main(["lra", "--input", missing, "--rank", "2", "--eps", "1",
                       "--delta", "0.01"])
        assert rc == 1
        self._assert_error_line(capsys, "No such file or directory")

    def test_unwritable_report(self, small_matrices, tmp_path, capsys):
        _, _, pa, pb = small_matrices
        report = str(tmp_path / "nonexistent" / "out.json")
        rc = cli.main(["multiply", "--input", pa, "--input-b", pb, "--eps", "1",
                       "--delta", "0.01", "--alpha", "0.5", "--beta", "0.2",
                       "--report", report])
        assert rc == 1
        self._assert_error_line(capsys, "No such file or directory")

    def test_dpmt_read_as_csv(self, tmp_path, capsys):
        p = tmp_path / "a.dpmt"
        cli.save_matrix(str(p), np.random.default_rng(3).standard_normal((30, 6)))
        with pytest.raises(FormatError, match="not text"):
            list(cli.iter_matrix_chunks(str(p), "csv"))
        rc = cli.main(["lra", "--input", str(p), "--rank", "2", "--eps", "1",
                       "--delta", "0.01"])
        assert rc == 1
        self._assert_error_line(capsys, "--format dpbin")


class TestMatrixIo:
    def test_csv_2x2(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,2\n3,4\n")
        m = cli.load_matrix(str(p), "csv")
        np.testing.assert_array_equal(m, [[1.0, 2.0], [3.0, 4.0]])

    def test_ragged_row_names_line(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,2\n3,4,5\n")
        with pytest.raises(FormatError, match="line 2"):
            cli.load_matrix(str(p), "csv")

    def test_nan_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,nan\n")
        with pytest.raises(FormatError):
            cli.load_matrix(str(p), "csv")

    def test_dpbin_roundtrip_bit_exact(self, tmp_path):
        m = np.random.default_rng(1).standard_normal((7, 5))
        p = tmp_path / "m.dpmt"
        cli.save_matrix(str(p), m)
        back = cli.load_matrix(str(p), "dpbin")
        assert np.array_equal(back, m)

    def test_dpbin_truncated(self, tmp_path):
        m = np.ones((4, 3))
        p = tmp_path / "m.dpmt"
        cli.save_matrix(str(p), m)
        data = p.read_bytes()
        p.write_bytes(data[:-7])
        with pytest.raises(FormatError, match="offset"):
            cli.load_matrix(str(p), "dpbin")

    def test_csv_leading_blank_lines_are_skipped(self, tmp_path):
        # The shape probe skips blank lines the way the reader does.
        p = tmp_path / "m.csv"
        p.write_text("\n1,2\n3,4\n")
        assert cli.matrix_shape(str(p), "csv") == (2, 2)
        np.testing.assert_array_equal(cli.load_matrix(str(p), "csv"), [[1.0, 2.0], [3.0, 4.0]])
        p.write_text("\n \n")
        with pytest.raises(FormatError, match="empty CSV matrix"):
            cli.matrix_shape(str(p), "csv")

    def test_dpbin_bad_magic(self, tmp_path):
        p = tmp_path / "m.dpmt"
        cli.save_matrix(str(p), np.ones((2, 2)))
        raw = bytearray(p.read_bytes())
        raw[:4] = b"WHAT"
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            cli.matrix_shape(str(p), "dpbin")


class TestChunkedReader:
    def _dpmt(self, tmp_path, m):
        p = tmp_path / "m.dpmt"
        cli.save_matrix(str(p), m)
        return p

    @pytest.fixture(autouse=True)
    def four_row_chunks(self, monkeypatch):
        # Three-column inputs are then read in chunks of four rows.
        monkeypatch.setattr(sketch, "TILE_ENTRIES", 12)

    @pytest.mark.parametrize("fmt", ["csv", "dpbin"])
    def test_chunks_cover_matrix_in_order(self, tmp_path, fmt):
        m = np.random.default_rng(2).standard_normal((10, 3))
        if fmt == "csv":
            p = tmp_path / "m.csv"
            write_csv(p, m)
        else:
            p = self._dpmt(tmp_path, m)
        chunks = list(cli.iter_matrix_chunks(str(p), fmt))
        assert [i0 for i0, _ in chunks] == [0, 4, 8]
        assert [c.shape for _, c in chunks] == [(4, 3), (4, 3), (2, 3)]
        assert np.array_equal(np.vstack([c for _, c in chunks]), m)

    def test_dpbin_truncated_chunk_reports_offset(self, tmp_path):
        p = self._dpmt(tmp_path, np.ones((10, 3)))
        data = p.read_bytes()
        p.write_bytes(data[:-7])
        with pytest.raises(FormatError, match=f"offset {len(data) - 7}"):
            list(cli.iter_matrix_chunks(str(p), "dpbin"))

    def test_dpbin_trailing_bytes_report_offset(self, tmp_path, capsys):
        # A header of 10 rows over a payload of 20 rows, or of 10 rows and
        # one byte: the reader refuses the file instead of dropping the rest.
        p = self._dpmt(tmp_path, np.ones((20, 4)))
        raw = bytearray(p.read_bytes())
        raw[: cli._MATRIX_HEADER.size] = cli._MATRIX_HEADER.pack(cli.MATRIX_MAGIC, 1, 10, 4)
        end = cli._MATRIX_HEADER.size + 8 * 10 * 4
        for payload in (bytes(raw), bytes(raw[: end + 1])):
            p.write_bytes(payload)
            with pytest.raises(FormatError, match=f"extra bytes from offset {end}"):
                list(cli.iter_matrix_chunks(str(p), "dpbin"))
            with pytest.raises(FormatError, match=f"extra bytes from offset {end}"):
                cli.load_matrix(str(p), "dpbin")
        args = ["lra", "--input", str(p), "--format", "dpbin", "--rank", "1",
                "--eps", "1", "--delta", "0.01", "--report", str(tmp_path / "r.json")]
        assert cli.main(args) == 1
        assert f"extra bytes from offset {end}" in capsys.readouterr().err

    def test_dpbin_size_checked_before_any_row(self, tmp_path, monkeypatch, capsys):
        # A 10-row header over a 20-row payload is refused by the shape
        # probe: the release ingests no row before it exits 1.
        p = self._dpmt(tmp_path, np.ones((20, 4)))
        raw = bytearray(p.read_bytes())
        raw[: cli._MATRIX_HEADER.size] = cli._MATRIX_HEADER.pack(cli.MATRIX_MAGIC, 1, 10, 4)
        p.write_bytes(bytes(raw))
        ingested = []
        original = LraState.ingest_rows

        def spy(self, i0, block):
            ingested.append(block.shape[0])
            return original(self, i0, block)

        monkeypatch.setattr(LraState, "ingest_rows", spy)
        args = ["lra", "--input", str(p), "--format", "dpbin", "--rank", "1",
                "--eps", "1", "--delta", "0.01", "--report", str(tmp_path / "r.json")]
        assert cli.main(args) == 1
        assert "extra bytes from offset" in capsys.readouterr().err
        assert ingested == []

    def test_dpbin_non_finite_in_later_chunk_names_global_row(self, tmp_path):
        p = self._dpmt(tmp_path, np.ones((10, 3)))
        raw = bytearray(p.read_bytes())
        offset = cli._MATRIX_HEADER.size + 8 * (9 * 3 + 1)
        raw[offset : offset + 8] = struct.pack("<d", float("inf"))
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="binary row 9"):
            list(cli.iter_matrix_chunks(str(p), "dpbin"))
        with pytest.raises(FormatError, match="binary row 9"):
            cli.load_matrix(str(p), "dpbin")

    def test_csv_errors_in_later_chunk_name_the_line(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,2,3\n3,4,5\n\n5,6,7\n7,8,9\n8,9,10,11\n")
        with pytest.raises(FormatError, match="ragged row at line 6"):
            list(cli.iter_matrix_chunks(str(p), "csv"))
        p.write_text("1,2,3\n3,4,5\n5,6,7\n\n7,8,9\n7,nan,1\n")
        with pytest.raises(FormatError, match="non-finite entry at line 6"):
            list(cli.iter_matrix_chunks(str(p), "csv"))

    def _multiply(self, tmp_path, monkeypatch, pa, pb, fmt):
        # Runs multiply on A and B; returns the exit code and the i0 of each
        # chunk pair ingested.
        ingested = []
        original = MatProdState.ingest_rows

        def spy(self, i0, a_rows, b_rows):
            ingested.append(i0)
            return original(self, i0, a_rows, b_rows)

        monkeypatch.setattr(MatProdState, "ingest_rows", spy)
        args = ["multiply", "--input", str(pa), "--input-b", str(pb), "--format", fmt,
                "--eps", "1", "--delta", "0.01", "--alpha", "0.5", "--beta", "0.2",
                "--report", str(tmp_path / "r.json")]
        return cli.main(args), ingested

    def test_multiply_b_dpbin_fault_exits_1_at_its_chunk(self, tmp_path, monkeypatch, capsys):
        # A and B are read in lockstep: B's fault in row 9 is reported when
        # its chunk (rows 8-9) is reached, after the chunk pairs before it.
        pa = tmp_path / "a.dpmt"
        cli.save_matrix(str(pa), np.ones((10, 3)))
        pb = self._dpmt(tmp_path, np.ones((10, 3)))
        raw = bytearray(pb.read_bytes())
        offset = cli._MATRIX_HEADER.size + 8 * (9 * 3 + 1)
        raw[offset : offset + 8] = struct.pack("<d", float("nan"))
        pb.write_bytes(bytes(raw))
        rc, ingested = self._multiply(tmp_path, monkeypatch, pa, pb, "dpbin")
        assert rc == 1
        assert "non-finite entry in binary row 9" in capsys.readouterr().err
        assert ingested == [0, 4]

    @pytest.mark.parametrize(
        "bad_line, message",
        [("8,9,10,11", "ragged row at line 6"), ("7,nan,1", "non-finite entry at line 6")],
    )
    def test_multiply_b_csv_fault_exits_1_naming_its_line(
        self, tmp_path, monkeypatch, capsys, bad_line, message
    ):
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(pa, np.ones((10, 3)))
        lines = ["1,2,3"] * 10
        lines[5] = bad_line
        pb.write_text("\n".join(lines) + "\n")
        rc, ingested = self._multiply(tmp_path, monkeypatch, pa, pb, "csv")
        assert rc == 1
        assert message in capsys.readouterr().err
        assert ingested == [0]

    def _regress(self, tmp_path, monkeypatch, pa, pb, fmt):
        # Runs regress on the design A and the queries B; returns the exit
        # code and the i0 of each chunk pair ingested.
        ingested = []
        original = RegressState._ingest_rows

        def spy(self, i0, *pairs):
            ingested.append(i0)
            return original(self, i0, *pairs)

        monkeypatch.setattr(RegressState, "_ingest_rows", spy)
        args = ["regress", "--input", str(pa), "--input-b", str(pb), "--format", fmt,
                "--eps", "1", "--delta", "0.01", "--alpha", "0.5", "--beta", "0.2",
                "--report", str(tmp_path / "r.json")]
        return cli.main(args), ingested

    def test_regress_b_dpbin_fault_exits_1_at_its_chunk(self, tmp_path, monkeypatch, capsys):
        # The design and the queries are read in lockstep: a query fault in
        # row 9 is reported when its chunk (rows 8-9) is reached.
        pa = tmp_path / "a.dpmt"
        cli.save_matrix(str(pa), np.ones((10, 3)))
        pb = self._dpmt(tmp_path, np.ones((10, 3)))
        raw = bytearray(pb.read_bytes())
        offset = cli._MATRIX_HEADER.size + 8 * (9 * 3 + 1)
        raw[offset : offset + 8] = struct.pack("<d", float("nan"))
        pb.write_bytes(bytes(raw))
        rc, ingested = self._regress(tmp_path, monkeypatch, pa, pb, "dpbin")
        assert rc == 1
        assert "non-finite entry in binary row 9" in capsys.readouterr().err
        assert ingested == [0, 4]

    @pytest.mark.parametrize(
        "bad_line, message",
        [("8,9,10,11", "ragged row at line 6"), ("7,nan,1", "non-finite entry at line 6")],
    )
    def test_regress_b_csv_fault_exits_1_naming_its_line(
        self, tmp_path, monkeypatch, capsys, bad_line, message
    ):
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(pa, np.ones((10, 3)))
        lines = ["1,2,3"] * 10
        lines[5] = bad_line
        pb.write_text("\n".join(lines) + "\n")
        rc, ingested = self._regress(tmp_path, monkeypatch, pa, pb, "csv")
        assert rc == 1
        assert message in capsys.readouterr().err
        assert ingested == [0]

    def test_multiply_row_count_mismatch_refused_before_any_row(
        self, tmp_path, monkeypatch, capsys
    ):
        pa = tmp_path / "a.dpmt"
        cli.save_matrix(str(pa), np.ones((10, 3)))
        pb = self._dpmt(tmp_path, np.ones((9, 3)))
        rc, ingested = self._multiply(tmp_path, monkeypatch, pa, pb, "dpbin")
        assert rc == 1
        assert "row counts differ: A has 10, B has 9" in capsys.readouterr().err
        assert ingested == []


def _line_by_line(lines, linenos, expected):
    """Reference: the block of ``_parse_csv_line`` rows, or its FormatError text."""
    try:
        return np.vstack([cli._parse_csv_line(x, n, expected) for x, n in zip(lines, linenos)])
    except FormatError as exc:
        return str(exc)


# Three-entry lines at the edges of the CSV number syntax. The bulk reader
# must give the bits ``float()`` gives, or hand the chunk to the line parse.
EDGE_LINES = [
    "1.5,-2.25,3",
    " 1.5 ,\t2 , 3 ",
    "1_0,2,3",  # float() reads underscores; numpy's reader does not
    "１,2,3",  # full-width digit one, likewise
    "٣,2,3",  # Arabic-Indic digit three, likewise
    "1,,3",
    "1,2,3,",
    "1,2",
    "1,2,3,4",
    "0x10,2,3",
    "1d5,2,3",
    '"1",2,3',
    "1,2,3 #x",  # accepted if the reader strips comments
    "#1,2,3",
    "1;2;3",
    "1 2,3,4",
    "1,2,3\r",
    "1\x1c,2,3",  # an ASCII separator: numpy strips it, float() refuses it
    "1,\x1f2,3",
    "\xa01,2　,3",
    "nan,2,3",
    "1,inf,3",
    "1,2,-Infinity",
    "1e400,2,3",
    "9" * 400 + ",2,3",
    "1e-400,4.9e-324,2.2250738585072014e-308",
    "0.123456789012345678901234567890123456,1.0000000000000002,-0.0",
    "+.5,5.,1E+3",
    "1e,2,3",
    "true,2,3",
]


class TestCsvChunkParser:
    """``_parse_csv_chunk`` against the line-by-line parse it replaces."""

    @pytest.mark.parametrize("line", EDGE_LINES)
    @pytest.mark.parametrize("chunk", ["two rows", "one row"])
    def test_matches_line_by_line(self, line, chunk):
        lines = ["0.1,-7,2.5e3\n", line + "\n"] if chunk == "two rows" else [line + "\n"]
        linenos = [4, 6][-len(lines):]
        want = _line_by_line(lines, linenos, 3)
        if isinstance(want, str):
            with pytest.raises(FormatError) as err:
                cli._parse_csv_chunk(lines, linenos, 3)
            assert str(err.value) == want
        else:
            got = cli._parse_csv_chunk(lines, linenos, 3)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("line", ["1_0,2,3", "１０,2,3"])
    def test_float_only_syntax_keeps_its_values(self, line):
        got = cli._parse_csv_chunk(["4,5,6\n", line + "\n"], [1, 2], 3)
        np.testing.assert_array_equal(got, [[4.0, 5.0, 6.0], [10.0, 2.0, 3.0]])

    @pytest.mark.parametrize("line", ["nan,2,3", "1,inf,3", "1e400,2,3"])
    def test_non_finite_names_its_line(self, line):
        with pytest.raises(FormatError, match="^non-finite entry at line 9$"):
            cli._parse_csv_chunk(["1,2,3\n", line + "\n"], [8, 9], 3)

    def test_single_column_keeps_two_dimensions(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sketch, "TILE_ENTRIES", 12)
        p = tmp_path / "m.csv"
        p.write_text("".join(f"{i / 7!r}\n" for i in range(30)) + "1_0\n")
        chunks = list(cli.iter_matrix_chunks(str(p), "csv"))
        assert [c.shape for _, c in chunks] == [(12, 1), (12, 1), (7, 1)]
        want = np.array([i / 7 for i in range(30)] + [10.0]).reshape(-1, 1)
        assert np.vstack([c for _, c in chunks]).tobytes() == want.tobytes()
        assert cli._parse_csv_chunk(["2.5\n"], [1], 1).shape == (1, 1)

    def test_load_matrix_matches_line_by_line_at_benchmark_size(self, tmp_path):
        a = np.random.default_rng(11).standard_normal((2000, 1000))
        p = tmp_path / "a.csv"
        with open(p, "w") as fh:
            for row in a.tolist():
                fh.write(",".join(map(repr, row)) + "\n")
        lines = p.read_text().splitlines(keepends=True)
        want = _line_by_line(lines, range(1, len(lines) + 1), 1000)
        got = cli.load_matrix(str(p), "csv")
        assert got.tobytes() == want.tobytes() == a.tobytes()


class TestCsvChunkFaults:
    @pytest.fixture(autouse=True)
    def four_row_chunks(self, monkeypatch):
        # Three-column inputs are then read in chunks of four rows.
        monkeypatch.setattr(sketch, "TILE_ENTRIES", 12)

    def test_uniformly_wider_later_chunk_is_ragged(self, tmp_path):
        # The second chunk is rectangular, so numpy's reader takes it; only
        # its width, against the first line's, shows the fault.
        p = tmp_path / "m.csv"
        p.write_text("1,2,3\n" * 4 + "1,2,3,4\n" * 4)
        with pytest.raises(FormatError, match="^ragged row at line 5: 4 entries, expected 3$"):
            list(cli.iter_matrix_chunks(str(p), "csv"))

    def test_line_numbers_count_blank_lines_across_chunks(self, tmp_path):
        # Line 10 holds the fault; it is the eighth row.
        p = tmp_path / "m.csv"
        p.write_bytes(b"1,2,3\n" * 4 + b"\r\n\n" + b"4,5,6\r\n" * 3 + b"1,inf,3\n")
        with pytest.raises(FormatError, match="^non-finite entry at line 10$"):
            list(cli.iter_matrix_chunks(str(p), "csv"))
        p.write_bytes(b"1,2,3\n" * 4 + b"\r\n\n" + b"4,5,6\r\n" * 3 + b"7,8,9\n")
        chunks = list(cli.iter_matrix_chunks(str(p), "csv"))
        assert [(i0, c.shape) for i0, c in chunks] == [(0, (4, 3)), (4, (4, 3))]
        assert np.vstack([c for _, c in chunks]).tolist() == [[1, 2, 3]] * 4 + [[4, 5, 6]] * 3 + [[7, 8, 9]]

    def _spy_line_parses(self, monkeypatch):
        # The line numbers ``_parse_csv_line`` is called for.
        called = []
        original = cli._parse_csv_line

        def spy(line, lineno, expected):
            called.append(lineno)
            return original(line, lineno, expected)

        monkeypatch.setattr(cli, "_parse_csv_line", spy)
        return called

    def test_clean_file_takes_the_bulk_path(self, tmp_path, monkeypatch):
        # Only the width probe of line 1 is parsed line by line.
        p = tmp_path / "m.csv"
        write_csv(p, np.random.default_rng(5).standard_normal((10, 3)))
        called = self._spy_line_parses(monkeypatch)
        assert len(list(cli.iter_matrix_chunks(str(p), "csv"))) == 3
        assert called == [1]

    def test_only_the_faulty_chunk_is_parsed_again(self, tmp_path, monkeypatch):
        # The third chunk is lines 9-10, and line 10 holds the fault.
        p = tmp_path / "m.csv"
        p.write_text("1,2,3\n" * 9 + "1,2,x\n")
        called = self._spy_line_parses(monkeypatch)
        with pytest.raises(FormatError, match="unparseable entry at line 10"):
            list(cli.iter_matrix_chunks(str(p), "csv"))
        assert called == [1, 9, 10]


class TestCommands:
    def test_lra_end_to_end(self, small_matrices, tmp_path):
        _, _, pa, _ = small_matrices
        report_path = str(tmp_path / "report.json")
        rc = cli.main(
            ["lra", "--input", pa, "--rank", "2", "--eps", "1", "--delta", "0.01",
             "--seed", "3", "--report", report_path, "--oracle"]
        )
        assert rc == 0
        report = json.loads(Path(report_path).read_text())
        for key in ("params", "guard_report", "error_vs_oracle", "space_entries", "wall_time_ms"):
            assert key in report
        assert report["guard_report"]["passed"]
        assert len(report["factor_files"]) == 2
        uhat = cli.load_matrix(report["factor_files"][0], "dpbin")
        assert uhat.shape[1] == 2

    def test_factor_files_sit_next_to_the_report(self, small_matrices, tmp_path):
        # A dot in a directory name is not the report's extension.
        _, _, pa, _ = small_matrices
        out_dir = tmp_path / "runs.v2"
        out_dir.mkdir()
        rc = cli.main(
            ["lra", "--input", pa, "--rank", "2", "--eps", "1", "--delta", "0.01",
             "--report", str(out_dir / "out")]
        )
        assert rc == 0
        want = [str(out_dir / "out.uhat.dpmt"), str(out_dir / "out.lam.dpmt")]
        assert json.loads((out_dir / "out").read_text())["factor_files"] == want
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "b.csv", "runs.v2"]
        assert cli.load_matrix(want[0], "dpbin").shape == (30 + 6, 2)

    def test_multiply_end_to_end(self, small_matrices, tmp_path, capsys):
        a, b, pa, pb = small_matrices
        rc = cli.main(
            ["multiply", "--input", pa, "--input-b", pb, "--eps", "1", "--delta", "0.01",
             "--alpha", "0.5", "--beta", "0.2", "--seed", "3", "--oracle"]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["space_entries"] > 0
        assert report["error_vs_oracle"]["frobenius_error"] <= report["error_vs_oracle"]["error_bound"]

    def test_multiply_mismatched_rows(self, tmp_path):
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(pa, np.ones((4, 2)))
        write_csv(pb, np.ones((5, 2)))
        rc = cli.main(
            ["multiply", "--input", str(pa), "--input-b", str(pb), "--eps", "1",
             "--delta", "0.01", "--alpha", "0.5", "--beta", "0.2"]
        )
        assert rc == 1

    @pytest.mark.parametrize("tile_entries", [None, 50])
    def test_multiply_generates_each_tile_once(self, tmp_path, monkeypatch, tile_entries):
        # A and B share every data tile: the release regenerates the lift
        # block once and each data column once, r * (n + max(d1, d2)) normals.
        if tile_entries is not None:
            monkeypatch.setattr(sketch, "TILE_ENTRIES", tile_entries)
        n, d1, d2 = 40, 6, 3
        rng = np.random.default_rng(7)
        pa, pb = tmp_path / "a.dpmt", tmp_path / "b.dpmt"
        cli.save_matrix(str(pa), rng.standard_normal((n, d1)))
        cli.save_matrix(str(pb), rng.standard_normal((n, d2)))
        normals = []
        original = sketch.GaussianSketcher.column_block

        def spy(self, j0, j1):
            normals.append(self.r * (j1 - j0))
            return original(self, j0, j1)

        monkeypatch.setattr(sketch.GaussianSketcher, "column_block", spy)
        rc = cli.main(
            ["multiply", "--input", str(pa), "--input-b", str(pb), "--format", "dpbin",
             "--eps", "1", "--delta", "0.01", "--alpha", "0.5", "--beta", "0.2",
             "--report", str(tmp_path / "r.json")]
        )
        assert rc == 0
        r = guard.matmult_sketch_dim(guard.AccuracySpec(0.5, 0.2))
        assert sum(normals) == r * (n + max(d1, d2))

    @pytest.mark.parametrize("tile_entries", [None, 50])
    def test_regress_generates_each_tile_once(self, tmp_path, monkeypatch, tile_entries):
        # The design and the queries share every data tile: the release
        # generates the data block once and the lift once, r * (n + d)
        # normals, where a second pass for the queries would add r * n.
        if tile_entries is not None:
            monkeypatch.setattr(sketch, "TILE_ENTRIES", tile_entries)
        n, d, q = 40, 3, 5
        rng = np.random.default_rng(8)
        pa, pb = tmp_path / "a.dpmt", tmp_path / "b.dpmt"
        cli.save_matrix(str(pa), rng.standard_normal((n, d)))
        cli.save_matrix(str(pb), rng.standard_normal((n, q)))
        normals = []
        original = sketch.GaussianSketcher._generate_block

        def spy(self, j0, j1):
            normals.append(self.r * (j1 - j0))
            return original(self, j0, j1)

        monkeypatch.setattr(sketch.GaussianSketcher, "_generate_block", spy)
        rc = cli.main(
            ["regress", "--input", str(pa), "--input-b", str(pb), "--format", "dpbin",
             "--eps", "1", "--delta", "0.01", "--alpha", "0.5", "--beta", "0.2",
             "--report", str(tmp_path / "r.json")]
        )
        assert rc == 0
        r = guard.linreg_sketch_dim(guard.AccuracySpec(0.5, 0.2), d)
        assert sum(normals) == r * (n + d)

    def test_regress_end_to_end(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((25, 3))
        queries = rng.standard_normal((25, 2))
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(pa, a)
        write_csv(pb, queries)
        rc = cli.main(
            ["regress", "--input", str(pa), "--input-b", str(pb), "--eps", "1",
             "--delta", "0.01", "--alpha", "0.5", "--beta", "0.2", "--oracle"]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        oracle = report["error_vs_oracle"]
        assert len(oracle["residuals"]) == 2
        for res, rhs in zip(oracle["residuals"], oracle["error_bound"]):
            assert res <= rhs

    @pytest.mark.parametrize("argv", [
        ["multiply", "--input", "{a}", "--input-b", "{b}", "--eps", "1", "--delta", "0.01",
         "--alpha", "0.5", "--beta", "0.2", "--halve-budget"],
        ["lra", "--input", "{a}", "--rank", "2", "--eps", "1", "--delta", "0.01",
         "--alpha", "0.5", "--beta", "0.2"],
        ["verify", "--oracle"],
        ["lra", "--input", "{a}", "--rank", "2", "--eps", "1", "--delta", "0.01",
         "--halve-budget"],
        ["lra", "--input", "{a}", "--rank", "2", "--eps", "1", "--delta", "0.01",
         "--no-halve-budget"],
        ["lra", "--input", "{a}", "--rank", "2", "--eps", "1", "--delta", "0.01",
         "--constant-c", "8"],
    ], ids=["multiply-halve-budget", "lra-alpha-beta", "verify-oracle",
            "lra-halve-budget", "lra-no-halve-budget", "lra-constant-c"])
    def test_unread_options_are_usage_errors(self, small_matrices, capsys, argv):
        # Each command accepts only the options it reads.
        _, _, pa, pb = small_matrices
        assert cli.main([x.format(a=pa, b=pb) for x in argv]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_verify_failure_exits_3(self, capsys, monkeypatch):
        from dpsketch import harness

        def broken(*args, **kwargs):
            return harness.BoundReport(
                check="jl_concentration", trials=1, violations=1,
                allowed=0.0,
            )

        monkeypatch.setattr(harness, "mc_jl", broken)
        rc = cli.main(["verify", "--seed", "1"])
        capsys.readouterr()
        assert rc == 3

    @pytest.mark.parametrize("command", ["lra", "multiply", "regress"])
    def test_small_tiles_give_the_same_release(self, tmp_path, monkeypatch, command):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((40, 6))
        pa, pb = tmp_path / "a.dpmt", tmp_path / "b.dpmt"
        cli.save_matrix(str(pa), a)
        cli.save_matrix(str(pb), rng.standard_normal((40, 3)))
        args = [command, "--input", str(pa), "--format", "dpbin", "--seed", "3",
                "--eps", "1", "--delta", "0.01", "--oracle"]
        if command == "lra":
            args += ["--rank", "2"]
        else:
            args += ["--input-b", str(pb), "--alpha", "0.5", "--beta", "0.2"]

        def errors(tag):
            rp = tmp_path / f"{tag}.json"
            assert cli.main(args + ["--report", str(rp)]) == 0
            oracle = json.loads(rp.read_text())["error_vs_oracle"]
            return np.atleast_1d(oracle.get("frobenius_error", oracle.get("residuals")))

        default = errors("default")
        monkeypatch.setattr(sketch, "TILE_ENTRIES", 50)
        small = errors("small")
        assert np.allclose(small, default, rtol=1e-9, atol=0)


class TestOracleIsHarness:
    """Every --oracle number is the harness error function's, on the same release."""

    @pytest.mark.parametrize("command", ["lra", "multiply", "regress"])
    def test_error_vs_oracle_equals_harness(self, tmp_path, small_matrices, command):
        a, b, pa, pb = small_matrices
        rp = tmp_path / "report.json"
        args = [command, "--input", pa, "--seed", "4", "--eps", "1", "--delta", "0.01",
                "--report", str(rp), "--oracle"]
        acc_args = ["--input-b", pb, "--alpha", "0.5", "--beta", "0.2"]
        budget, acc = guard.PrivacyBudget(1.0, 0.01), guard.AccuracySpec(0.5, 0.2)
        # 30 rows make one input chunk, so one ingest call is the CLI's release.
        if command == "lra":
            args += ["--rank", "2"]
            lcfg = LraConfig(n=30, d=6, k=2, budget=budget, seed=4)
            state = new_lra(lcfg)
            state.ingest_rows(0, a)
            want = harness.lra_errors(a, state.finalize(), lcfg)
        elif command == "multiply":
            args += acc_args
            state = new_matprod(30, 6, 4, budget, acc, 4)
            state.ingest_rows(0, a, b)
            want = harness.matprod_errors(a, b, state.product_query(), state)
        else:
            args += acc_args
            state = new_regress(30, 6, budget, acc, 4)
            state.ingest_rows(0, a)
            want = harness.regress_errors(a, b, state.query_many(b), state)
        assert cli.main(args) == 0
        assert json.loads(rp.read_text())["error_vs_oracle"] == want


class TestReportSchema:
    """The report of every release command, key for key, in both guard modes."""

    ORACLE_KEYS = {
        "lra": {"frobenius_error", "eckart_young_optimum", "error_bound", "trivial_error"},
        "multiply": {"frobenius_error", "error_bound", "trivial_error"},
        "regress": {"residuals", "optima", "error_bound", "trivial_error"},
    }
    GUARD_KEYS = {"required_sigma_min", "observed_sigma_min", "passed", "mode"}
    # params holds exactly the options the command parsed, so multiply and
    # regress reports list no lra option such as rank.
    RELEASE_PARAMS = {"command", "seed", "report", "input", "fmt", "oracle", "eps", "delta"}
    PARAM_KEYS = {
        "lra": RELEASE_PARAMS | {"rank", "oversample"},
        "multiply": RELEASE_PARAMS | {"input_b", "alpha", "beta"},
        "regress": RELEASE_PARAMS | {"input_b", "alpha", "beta"},
    }

    @pytest.fixture
    def inputs(self, tmp_path):
        rng = np.random.default_rng(12)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(pa, rng.standard_normal((30, 6)))
        write_csv(pb, rng.standard_normal((30, 3)))
        return str(pa), str(pb)

    def _report(self, tmp_path, inputs, command, oracle):
        pa, pb = inputs
        rp = tmp_path / "report.json"
        args = [command, "--input", pa, "--seed", "4", "--eps", "1", "--delta", "0.01",
                "--report", str(rp)]
        if command == "lra":
            args += ["--rank", "2"]
        else:
            args += ["--input-b", pb, "--alpha", "0.5", "--beta", "0.2"]
        if oracle:
            args.append("--oracle")
        assert cli.main(args) == 0
        return json.loads(rp.read_text())

    @staticmethod
    def _structural_pair(command):
        """(required, observed) a structural guard report must carry."""
        budget = guard.PrivacyBudget(1.0, 0.01)
        acc = guard.AccuracySpec(0.5, 0.2)
        if command == "lra":
            lcfg = LraConfig(n=30, d=6, k=2, budget=budget, seed=4)
            required = guard.sigma_min_psg2(lcfg.effective_budget, lcfg.k + lcfg.oversample)
            return required, new_lra(lcfg).w
        if command == "multiply":
            state = new_matprod(30, 6, 3, budget, acc, 4)
        else:
            state = new_regress(30, 6, budget, acc, 4)
        return guard.sigma_min_psg1(budget, state.r), state.s

    @pytest.mark.parametrize("oracle", [False, True], ids=["structural", "oracle"])
    @pytest.mark.parametrize("command", ["lra", "multiply", "regress"])
    def test_report_keys(self, tmp_path, inputs, command, oracle):
        report = self._report(tmp_path, inputs, command, oracle)
        keys = {"params", "guard_report", "error_vs_oracle", "space_entries", "wall_time_ms"}
        if command == "lra":
            keys.add("factor_files")
        assert set(report) == keys
        assert set(report["params"]) == self.PARAM_KEYS[command]
        assert report["params"]["command"] == command and report["params"]["oracle"] == oracle
        assert set(report["guard_report"]) == self.GUARD_KEYS
        assert report["space_entries"] > 0
        if oracle:
            assert report["guard_report"]["mode"] == "exact"
            assert set(report["error_vs_oracle"]) == self.ORACLE_KEYS[command]
        else:
            assert report["guard_report"]["mode"] == "structural"
            assert report["error_vs_oracle"] is None

    @pytest.mark.parametrize("command", ["lra", "multiply", "regress"])
    def test_structural_guard_is_lift_against_threshold(self, tmp_path, inputs, command):
        greport = self._report(tmp_path, inputs, command, oracle=False)["guard_report"]
        required, lift = self._structural_pair(command)
        assert greport["required_sigma_min"] == required
        assert greport["observed_sigma_min"] == lift
        assert greport["passed"] == (lift >= required)
