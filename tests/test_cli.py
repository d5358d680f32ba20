import argparse
import fcntl
import itertools
import json
import os
import random
import re
import resource
import signal
import struct
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from dpsketch import cli, guard, harness, sketch
from dpsketch.errors import FormatError
from dpsketch.lra import LowRankFactor, LraConfig, LraState, new_lra
from dpsketch.matprod import LiftedSketch, lifted_matrix, new_matprod
from dpsketch.regress import new_regress


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


def _spy_pulled_chunks(monkeypatch, record):
    """Call record(i0, rows) for every chunk that a multiply or regress walk
    pulls from its stream, as it pulls it."""
    original = LiftedSketch._project_chunks

    def spy(self, chunks, widths):
        def pulled():
            for chunk in chunks:
                record(chunk[0], len(chunk[1]))
                yield chunk

        return original(self, pulled(), widths)

    monkeypatch.setattr(LiftedSketch, "_project_chunks", spy)


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

    @pytest.mark.parametrize("argv", [
        ["lra", "--input", "{a}", "--rank", "2", "--eps", "1", "--delta", "0.01"],
        ["verify"],
    ], ids=["lra", "verify"])
    def test_seed_past_128_bits_exits_2(self, small_matrices, capsys, argv):
        # A seed is Philox's 128-bit key; a wider one is refused, not masked.
        _, _, pa, pb = small_matrices
        rc = cli.main([x.format(a=pa, b=pb) for x in argv] + ["--seed", str(1 << 128)])
        assert rc == 2
        assert f"seed must be < 2**128, got {1 << 128}" in capsys.readouterr().err

    def test_seedless_release_draws_128_bits(self, monkeypatch):
        widths = []
        monkeypatch.setattr(cli.secrets, "randbits", lambda k: widths.append(k) or 1)
        cfg = cli.parse_args(["lra", "--input", "x.csv", "--rank", "2", "--eps", "1",
                              "--delta", "0.01"])
        assert (widths, cfg.seed) == ([128], 1)

    def test_parser_is_built_once_and_keeps_no_state(self):
        # One parser serves every parse, and each parse starts from its
        # defaults: an option given to one does not carry to the next.
        argv = ["lra", "--input", "x.csv", "--rank", "5", "--eps", "1", "--delta", "0.01"]
        assert cli.parse_args(argv + ["--oversample", "7"]).oversample == 7
        assert cli.parse_args(argv).oversample is None
        assert cli._build_parser() is cli._build_parser()

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
        # In chunks of 4 rows the bad entry is row 1 of the third chunk: the
        # first two are yielded, and the row is named as i0 + 1.
        chunks = cli.iter_matrix_chunks(str(p), "dpbin", 4)
        assert [next(chunks)[0] for _ in range(2)] == [0, 4]
        with pytest.raises(FormatError, match="^non-finite entry in binary row 9$"):
            next(chunks)

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
        # chunk pair the release's walk pulled.
        ingested = []
        _spy_pulled_chunks(monkeypatch, lambda i0, _rows: ingested.append(i0))
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
        # code and the i0 of each chunk pair the release's walk pulled.
        ingested = []
        _spy_pulled_chunks(monkeypatch, lambda i0, _rows: ingested.append(i0))
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

    @pytest.mark.parametrize("command", ["multiply", "regress"])
    def test_multiply_row_count_mismatch_refused_before_any_row(
        self, tmp_path, monkeypatch, capsys, command
    ):
        pa = tmp_path / "a.dpmt"
        cli.save_matrix(str(pa), np.ones((10, 3)))
        pb = self._dpmt(tmp_path, np.ones((9, 3)))
        run = self._multiply if command == "multiply" else self._regress
        rc, ingested = run(tmp_path, monkeypatch, pa, pb, "dpbin")
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


def _mixed_csv(path, m, bad=None):
    """m's rows as CSV lines, CRLF-ended on every third, with a blank line
    after every fifth ("\r\n" and "\n" by turns); ``bad`` = (row, text)
    replaces that row's line."""
    out = []
    for i, row in enumerate(m.tolist()):
        line = ",".join(map(repr, row))
        if bad is not None and bad[0] == i:
            line = bad[1]
        out.append(line + ("\r\n" if i % 3 == 2 else "\n"))
        if i % 5 == 4:
            out.append("\r\n" if i % 10 == 4 else "\n")
    Path(path).write_bytes("".join(out).encode())


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _probe(path):
    """The (rows, cols) shape and the marks of a CSV file, as a release
    probes it (``cli.matrix_shape``)."""
    marks = []
    return cli.matrix_shape(str(path), "csv", marks), marks


class _NeverReady:
    # A poll object that finds no report ready.
    def register(self, fd, events):
        pass

    def poll(self, timeout):
        return []


def _newline_csv(path, seed, endings, lead, bad=None):
    """13 rows of 3 entries, each line ended by a seeded choice of
    ``endings``, with blank and whitespace-only lines (empty, " ", "\\t",
    "\\x1c", U+3000) between rows at random, and one before the first where
    ``lead``; ``bad`` = (row, text) replaces that row's line."""
    rng = random.Random(seed)
    out = ["\n"] if lead else []
    for i, row in enumerate(np.random.default_rng(seed).standard_normal((13, 3)).tolist()):
        line = bad[1] if bad is not None and bad[0] == i else ",".join(map(repr, row))
        out.append(line + rng.choice(endings))
        if rng.random() < 0.4:
            out.append(rng.choice(["", " ", "\t", "\x1c", "\u3000"]) + rng.choice(endings))
    Path(path).write_bytes("".join(out).encode())


# (id, line endings, leading blank line): the newline table.
_NEWLINES = [("crlf", ["\r\n"], False), ("bare-cr", ["\r"], False),
             ("mixed", ["\n", "\r\n", "\r"], False), ("leading-blank", ["\n"], True)]


@pytest.mark.skipif(not cli._can_fork(), reason="needs os.fork, os.memfd_create and Python below 3.12")
class TestForkedCsvReader:
    """The two-process CSV read of a release (cli._release_chunks under a
    plan that forks it, BLAS on one thread): the release and a forked child
    each read the chunks they claim from the shape probe's marks and parse
    them, and the blocks, faults and line numbers are the serial reader's,
    whichever process parses a chunk. Where a test needs one process to
    parse a chunk, it makes the other one late on each chunk (``_slow``)."""

    STEP = 4  # rows a chunk
    PLAN = sketch.ReleasePlan(cpus=2, one_blas=True, walk="serial", csv_reader="forked",
                              chunk_rows=STEP, tile_cols=1)

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        # BLAS entry points that go to one thread; the release then forks,
        # which ``forks`` counts.
        threads = [2]
        monkeypatch.setattr(sketch, "_blas_thread_fns",
                            lambda: (lambda: threads[0], lambda n: threads.__setitem__(0, n)))
        self.forks = []
        original = cli._forked_csv_chunks

        def spy(path, step, *probe_and_record):
            self.forks.append(step)
            return original(path, step, *probe_and_record)

        monkeypatch.setattr(cli, "_forked_csv_chunks", spy)
        self.parent = os.getpid()
        # (i0, refused) for each chunk the release took a report on.
        self.taken = []
        original_take = cli._ForkShare.take

        def take(share, k):
            got = original_take(share, k)
            if share.live:
                self.taken.append((k * share.step, got is None))
            return got

        monkeypatch.setattr(cli._ForkShare, "take", take)

    def _in_child(self):
        return os.getpid() != self.parent

    def _slow(self, monkeypatch, parses):
        # The process that is not to parse is 30 ms late on each chunk: the
        # release (where the parser "parses") before it takes its next one,
        # the parser before each claim. The parser then supplies every chunk
        # past the release's first, or none.
        if parses == "parser":
            original = cli._in_lockstep

            def late(streams):
                for chunk in original(streams):
                    yield chunk
                    time.sleep(0.03)

            monkeypatch.setattr(cli, "_in_lockstep", late)
            return
        original_claim = cli._claim

        def claim(fd):
            if self._in_child():
                time.sleep(0.03)
            return original_claim(fd)

        monkeypatch.setattr(cli, "_claim", claim)

    def _read(self, path, step=STEP):
        # [(i0, block)] as a release reads them, and its FormatError text;
        # the release's execution record is kept in ``execution``.
        got = []
        plan = self.PLAN._replace(chunk_rows=step)
        try:
            with cli._release_chunks(plan, [str(path)], "csv", *_probe(path)) as (chunks, self.execution):
                for i0, block in chunks:
                    got.append((i0, block))
        except FormatError as exc:
            return got, str(exc)
        finally:
            _no_child_left()
        return got, None

    def _serial(self, path, step=STEP):
        got = []
        try:
            for i0, block in cli.iter_matrix_chunks(str(path), "csv", step):
                got.append((i0, block))
        except FormatError as exc:
            return got, str(exc)
        return got, None

    @staticmethod
    def _same(a, b):
        return [i0 for i0, _ in a] == [i0 for i0, _ in b] and all(
            x.shape == y.shape and x.tobytes() == y.tobytes() for (_, x), (_, y) in zip(a, b))

    @pytest.mark.parametrize(
        "rows, bad",
        [(10, None), (17, None), (24, None), (17, (5, "1_0,2,3")), (17, (13, "٣,2,3"))],
        ids=["3-chunks", "5-chunks", "6-chunks", "child-refuses-1_0", "child-refuses-digit"],
    )
    def test_blocks_are_the_serial_readers(self, tmp_path, monkeypatch, rows, bad):
        # Read as it falls, then with the release slowed, so that the
        # parser parses (or refuses) every chunk past the first.
        p = tmp_path / "m.csv"
        _mixed_csv(p, np.random.default_rng(rows).standard_normal((rows, 3)), bad)
        want, _ = self._serial(p)
        for slowed in (False, True):
            with monkeypatch.context() as patch:
                if slowed:
                    self._slow(patch, "parser")
                got, err = self._read(p)
            assert err is None
            assert self._same(got, want) and self.execution["csv_reader"] == "forked"
            for _i0, block in got:
                assert block.dtype == np.float64 and block.flags.c_contiguous and block.flags.writeable
        assert self.forks == [self.STEP] * 2
        assert {i0 for i0, _refused in self.taken} >= set(range(self.STEP, rows, self.STEP))

    def test_a_child_that_shifts_its_rows_fails(self, tmp_path, monkeypatch):
        # Negative control: the child hands back its blocks rolled by one
        # row. Exactly the chunks it supplied differ from the serial
        # reader's (but the last, of one row): every one past the first
        # with the release slowed, none with the parser slowed.
        p = tmp_path / "m.csv"
        _mixed_csv(p, np.random.default_rng(3).standard_normal((17, 3)))
        original = cli._bulk_csv_chunk

        def shifted(lines, expected):
            block = original(lines, expected)
            return np.roll(block, 1, axis=0) if self._in_child() else block

        monkeypatch.setattr(cli, "_bulk_csv_chunk", shifted)
        want, _ = self._serial(p)
        for parses, supplied in (("parser", {4, 8, 12, 16}), ("release", set())):
            self.taken.clear()
            with monkeypatch.context() as patch:
                self._slow(patch, parses)
                got, err = self._read(p)
            assert err is None
            assert {i0 for i0, refused in self.taken if not refused} == supplied
            assert self._same(got, want) == (parses == "release")
            assert [self._same([g], [w]) for g, w in zip(got, want)] == [
                i0 not in supplied or len(block) == 1 for i0, block in want]
        assert self.forks == [self.STEP] * 2

    @pytest.mark.parametrize("row", [5, 6, 13])
    @pytest.mark.parametrize(
        "text", ["1,2", "1,2,3,4", "1,nan,3", "1,inf,3", "1,x,3", "1e400,2,3", "1\x1c,2,3"])
    def test_a_fault_is_the_serial_readers(self, tmp_path, monkeypatch, row, text):
        # Rows 5, 6 and 13 fall in chunks 1 and 3, which the parser claims
        # and refuses with the release slowed, and which the release parses
        # itself with the parser slowed.
        p = tmp_path / "m.csv"
        _mixed_csv(p, np.random.default_rng(4).standard_normal((17, 3)), (row, text))
        want, want_err = self._serial(p)
        assert want_err is not None
        for parses in ("parser", "release"):
            self.taken.clear()
            with monkeypatch.context() as patch:
                self._slow(patch, parses)
                got, err = self._read(p)
            assert err == want_err and self._same(got, want)
            assert ((row // self.STEP * self.STEP, True) in self.taken) == (parses == "parser")
        assert self.forks == [self.STEP] * 2

    @pytest.mark.parametrize("name, endings, lead", _NEWLINES, ids=[row[0] for row in _NEWLINES])
    def test_newlines_and_blank_lines_are_the_serial_readers(self, tmp_path, monkeypatch,
                                                             name, endings, lead):
        # Chunks of 3 rows, with a mark at every row or every 4 (so that most
        # chunks start between marks), read by the parser past the first
        # chunk, then by the release alone: the blocks, the line numbers and
        # a fault's message are the serial reader's.
        p = tmp_path / "m.csv"
        for tile_entries in (3, 12):
            monkeypatch.setattr(sketch, "TILE_ENTRIES", tile_entries)
            for bad in (None, (7, "1,nan,3")):
                _newline_csv(p, 17, endings, lead, bad)
                want, want_err = self._serial(p, 3)
                assert (want_err is None) == (bad is None)
                (rows, cols), marks = _probe(p)
                with open(p) as fh:
                    lines, linenos = cli._csv_rows(fh, 1, rows)
                    wanted = [(lines[i:i + 3], linenos[i:i + 3]) for i in range(0, rows, 3)]
                    assert [cli._chunk_rows(fh, k, 3, cols, marks)
                            for k in range(len(wanted))] == wanted
                for parses in ("parser", "release"):
                    with monkeypatch.context() as patch:
                        self._slow(patch, parses)
                        got, err = self._read(p, 3)
                    assert err == want_err and self._same(got, want)

    def test_a_read_that_splits_bytes_on_lf_fails_on_bare_cr(self, tmp_path, monkeypatch):
        # Negative control of the newline table: a read that splits the
        # file's bytes on b"\n" gives the serial blocks where every line
        # ends in "\n" ("\r\n" too), and not where a line ends in a bare "\r".
        def split_on_lf(fh, lineno, count, skip=0):
            lines, linenos = [], []
            for raw in iter(fh.buffer.readline, b""):
                line = raw.decode()
                if line.strip():
                    if skip:
                        skip -= 1
                    else:
                        lines.append(line)
                        linenos.append(lineno)
                        if len(lines) == count:
                            break
                lineno += 1
            return lines, linenos

        same = {}
        for name, endings, lead in _NEWLINES:
            p = tmp_path / f"{name}.csv"
            _newline_csv(p, 17, endings, lead)
            want, _ = self._serial(p, 3)
            with monkeypatch.context() as patch:
                patch.setattr(cli, "_csv_rows", split_on_lf)
                got, err = self._read(p, 3)
            same[name] = err is None and self._same(got, want)
        assert same == {"crlf": True, "bare-cr": False, "mixed": False, "leading-blank": True}

    @pytest.mark.parametrize("how", ["before-writing", "mid-block"])
    def test_a_child_that_dies_gives_the_serial_blocks(self, tmp_path, monkeypatch, how):
        p = tmp_path / "m.csv"
        _mixed_csv(p, np.random.default_rng(5).standard_normal((24, 3)))
        original = os.pwrite

        def dying(fd, data, offset):
            # The child's writes past offset 0 (the claim count) are its
            # block slots: it dies at the first, before it or halfway in.
            if self._in_child() and offset > 0:
                if how == "before-writing":
                    os._exit(1)
                view = memoryview(data).cast("B")
                original(fd, view[: view.nbytes // 2], offset)
                os._exit(1)
            return original(fd, data, offset)

        monkeypatch.setattr(os, "pwrite", dying)
        # The release is slowed, so the child claims chunks, and dies
        # writing the first to its slot, before reporting it.
        self._slow(monkeypatch, "parser")
        got, err = self._read(p)
        want, _ = self._serial(p)
        assert err is None and self.forks == [self.STEP]
        assert self._same(got, want) and self.execution["parser_chunks"] == 0

    def test_a_claim_past_the_last_chunk_leaves_it_to_the_child(self, tmp_path, monkeypatch):
        # 10 rows: the child claims chunks 1 and 2 (2 rows) while the
        # release is slowed, and writes chunk 2 to its slot late, so the
        # release, at chunk 2, claims past the last chunk, and then takes
        # both from the child, the last at its own row count.
        p = tmp_path / "m.csv"
        _mixed_csv(p, np.random.default_rng(10).standard_normal((10, 3)))
        self._slow(monkeypatch, "parser")
        original = os.pwrite

        def late(fd, data, offset):
            # A slot write (past the claim count at offset 0) of a block
            # shorter than a full chunk.
            if self._in_child() and offset > 0 and memoryview(data).nbytes < self.STEP * 3 * 8:
                time.sleep(0.2)
            return original(fd, data, offset)

        monkeypatch.setattr(os, "pwrite", late)
        got, err = self._read(p)
        want, _ = self._serial(p)
        assert err is None and self._same(got, want)
        assert self.taken == [(4, False), (8, False)] and self.execution["parser_chunks"] == 2

    def test_each_chunk_is_read_once_by_the_process_that_parses_it(self, tmp_path, monkeypatch):
        # 22 rows: chunks 0-4 of 4 rows and chunk 5 of 2, a mark at each
        # chunk, and in chunk 2 a row that only float() reads, so the
        # child refuses it. The release sees no report ready and claims
        # late, by which time the child has reported the next chunk and
        # claimed the one after: at chunk 1 the release claims chunk 3, at
        # chunk 4 it claims past the last. It takes chunks 1, 2, 4 and 5
        # from the child, the last at its own row count. The child reads
        # the lines of chunks 1, 2, 4 and 5 and the release those of chunks
        # 0 and 3, and of chunk 2 a second time: no process reads a line of
        # a chunk it does not parse. Negative control: a read that walks to
        # its chunk from the top of the file.
        monkeypatch.setattr(sketch, "TILE_ENTRIES", 12)  # a mark every 4 rows of 3
        p = tmp_path / "m.csv"
        _mixed_csv(p, np.random.default_rng(14).standard_normal((22, 3)), (9, "1_0,2,3"))
        want, _ = self._serial(p)
        with open(p) as fh:
            _lines, linenos = cli._csv_rows(fh, 1, 22)
        spans = [range(linenos[i], linenos[min(i + 3, 21)] + 1) for i in range(0, 22, 4)]
        monkeypatch.setattr(cli.select, "poll", _NeverReady)
        claimed, original_claim = [], cli._claim

        def claim(fd):
            if not self._in_child() and claimed:
                time.sleep(0.2)
            got = original_claim(fd)
            if not self._in_child():
                claimed.append(got)
            return got

        monkeypatch.setattr(cli, "_claim", claim)
        original_read = cli._csv_rows

        def from_the_top(fh, lineno, count, skip=0):
            fh.seek(0)
            for _ in range(lineno - 1):
                fh.readline()
            return original_read(fh, lineno, count, skip)

        def reads(read):
            # The lines each process read, with how often it read each.
            log = tmp_path / "reads"
            log.write_text("")

            def counted(fh, lineno, count, skip=0):
                n = [0]

                class Handle:
                    def readline(self):
                        line = fh.readline()
                        n[0] += bool(line)
                        return line

                    def seek(self, at):
                        return fh.seek(at)

                got = read(Handle(), lineno, count, skip)
                with open(log, "a") as out:
                    out.write(f"{'child' if self._in_child() else 'release'} {lineno} {n[0]}\n")
                return got

            with monkeypatch.context() as patch:
                patch.setattr(cli, "_csv_rows", counted)
                self.taken.clear()
                claimed.clear()
                got, err = self._read(p)
            assert err is None and self._same(got, want)
            assert claimed == [0, 3, 6]
            assert self.taken == [(4, False), (8, True), (16, False), (20, False)]
            seen = {"child": Counter(), "release": Counter()}
            for entry in log.read_text().splitlines():
                who, lineno, n = entry.split()
                seen[who].update(range(int(lineno), int(lineno) + int(n)))
            return seen

        def lines_of(*chunks):
            return Counter(line for k in chunks for line in spans[k])

        assert reads(original_read) == {"child": lines_of(1, 2, 4, 5), "release": lines_of(0, 3, 2)}
        assert reads(from_the_top) != {"child": lines_of(1, 2, 4, 5), "release": lines_of(0, 3, 2)}

    def test_a_file_that_is_not_text_fails_in_the_probe(self, tmp_path, monkeypatch, capsys):
        # 200 x 200 with one 0xff byte in row 100: the shape probe reads
        # every line as text, so a release on one CPU, and one whose plan
        # forks its reader (chunks of 4 rows here), exits 1 with the serial
        # reader's message before it ingests a row or forks. Negative
        # control: a probe that counts the lines in bytes lets the release
        # ingest the rows before the fault.
        monkeypatch.setattr(sketch, "TILE_ENTRIES", 12)
        p = tmp_path / "m.csv"
        write_csv(p, np.random.default_rng(13).standard_normal((200, 200)))
        data = bytearray(p.read_bytes())
        data[sum(map(len, data.splitlines(keepends=True)[:100])) + 5] = 0xFF
        p.write_bytes(data)
        _, want_err = self._serial(p)
        assert want_err.startswith("CSV input is not text")
        ingested = []
        original = LraState.ingest_rows

        def spy(state, i0, block):
            ingested.append(i0)
            return original(state, i0, block)

        monkeypatch.setattr(LraState, "ingest_rows", spy)
        argv = ["lra", "--input", str(p), "--rank", "1", "--oversample", "2", "--eps", "1",
                "--delta", "0.01", "--seed", "0", "--report", str(tmp_path / "r.json")]

        def release(cpus):
            monkeypatch.setattr(sketch, "_usable_cpus", lambda: cpus)
            ingested.clear()
            code = cli.main(argv)
            _no_child_left()
            return code, capsys.readouterr().err

        for cpus in (1, 2):
            assert release(cpus) == (1, f"error: {want_err}\n") and ingested == []
        assert self.forks == []

        def byte_probe(path, fmt, marks=None):
            with open(path, "rb") as fh:
                lines = [line for line in fh if line.strip()]
            return len(lines), lines[0].count(b",") + 1

        monkeypatch.setattr(cli, "matrix_shape", byte_probe)
        assert release(1) == (1, f"error: {want_err}\n") and ingested

    def test_a_reports_pipe_on_a_high_fd_is_read(self, tmp_path, monkeypatch):
        # The reader's pipes moved onto fds above 1024, which select()
        # refuses: the release still reads the child's blocks, and closes
        # the fds.
        if resource.getrlimit(resource.RLIMIT_NOFILE)[0] < 1200:
            pytest.skip("the open-file limit is below 1200")
        p = tmp_path / "m.csv"
        _mixed_csv(p, np.random.default_rng(15).standard_normal((24, 3)))
        high, original_pipe = [], os.pipe

        def pipe():
            fds = []
            for fd in original_pipe():
                fds.append(fcntl.fcntl(fd, fcntl.F_DUPFD_CLOEXEC, 1100))
                os.close(fd)
            high.extend(fds)
            return tuple(fds)

        monkeypatch.setattr(os, "pipe", pipe)
        self._slow(monkeypatch, "parser")
        got, err = self._read(p)
        want, _ = self._serial(p)
        assert len(high) == 4 and min(high) >= 1024
        assert err is None and self._same(got, want) and self.execution["parser_chunks"] == 5
        for fd in high:
            with pytest.raises(OSError):
                os.fstat(fd)

    def test_a_failed_fork_gives_the_serial_blocks(self, tmp_path, monkeypatch):
        p = tmp_path / "m.csv"
        _mixed_csv(p, np.random.default_rng(8).standard_normal((17, 3)))

        def fork():
            raise BlockingIOError("Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fork)
        got, err = self._read(p)
        want, _ = self._serial(p)
        assert err is None and self.forks == [self.STEP]
        # No child was forked, and the release's record says so.
        assert self._same(got, want) and self.execution["csv_reader"] == "serial"

    @staticmethod
    def _chunk_peak(chunks):
        # (fixed, peak): what the reader holds once it has yielded the first
        # chunk, but for that chunk's block (its fixed state: a file handle,
        # pipes, a poll object), and the most tracemalloc saw held while a
        # chunk after the first was read, the fixed state included.
        peaks = []
        tracemalloc.start()
        try:
            it = iter(chunks)
            item = next(it)
            fixed = tracemalloc.get_traced_memory()[0] - item[1].nbytes
            while item is not None:
                tracemalloc.reset_peak()
                item = next(it, None)
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return fixed, max(peaks)

    def test_the_parent_holds_no_more_than_the_serial_reader(self, tmp_path, monkeypatch):
        # One chunk's lines and one block at a time: no more than the
        # serial reader holds, but for the reader's fixed state, measured
        # apart. As it falls, and with the parser slowed, so that the
        # release parses every chunk. Negative control: a read that keeps a
        # chunk's lines while the next chunk's are read holds more than the
        # serial reader and that fixed state.
        p = tmp_path / "m.csv"
        write_csv(p, np.random.default_rng(9).standard_normal((240, 200)))
        probe = _probe(p)

        def forked_peak():
            plan = self.PLAN._replace(chunk_rows=40)
            with cli._release_chunks(plan, [str(p)], "csv", *probe) as (chunks, _execution):
                return self._chunk_peak(chunks)

        _, serial = self._chunk_peak(cli.iter_matrix_chunks(str(p), "csv", 40))
        fixed, peak = forked_peak()
        assert peak <= serial + fixed
        self._slow(monkeypatch, "release")
        fixed, peak = forked_peak()
        assert peak <= serial + fixed
        original, held = cli._csv_rows, []

        def holding(*args):
            got = original(*args)
            held[:] = [got]  # until the next read has returned
            return got

        monkeypatch.setattr(cli, "_csv_rows", holding)
        assert forked_peak()[1] > serial + fixed
        assert self.forks == [40, 40, 40]

    def test_a_walk_left_early_leaves_no_child(self, tmp_path):
        p = tmp_path / "m.csv"
        _mixed_csv(p, np.random.default_rng(6).standard_normal((24, 3)))
        probe = _probe(p)
        with cli._release_chunks(self.PLAN, [str(p)], "csv", *probe) as (chunks, _execution):
            assert next(chunks)[0] == 0
        _no_child_left()
        with pytest.raises(RuntimeError):
            with cli._release_chunks(self.PLAN, [str(p)], "csv", *probe) as (chunks, _execution):
                for i0, _block in chunks:
                    if i0:
                        raise RuntimeError("the consumer stops at chunk 1")
        _no_child_left()
        assert self.forks == [self.STEP, self.STEP]

    @pytest.mark.parametrize("row, text", [(21, "1,2"), (37, "1,nan,3"), (40, "x,2,3")])
    def test_a_release_fails_as_the_serial_one(self, tmp_path, monkeypatch, capsys, row, text):
        # lra reads 3-column inputs in chunks of 16 rows here: the faulty
        # row's chunk (rows 16-31 or 32-47) is refused by the parser with
        # the release slowed, and parsed by the release with the parser
        # slowed.
        monkeypatch.setattr(sketch, "TILE_ENTRIES", 12)
        p = tmp_path / "m.csv"
        _mixed_csv(p, np.random.default_rng(7).standard_normal((50, 3)), (row, text))
        ingested = []
        original = LraState.ingest_rows

        def spy(state, i0, block):
            ingested.append((i0, block.copy()))
            return original(state, i0, block)

        monkeypatch.setattr(LraState, "ingest_rows", spy)
        argv = ["lra", "--input", str(p), "--rank", "1", "--oversample", "2", "--eps", "1",
                "--delta", "0.01", "--seed", "0", "--report", str(tmp_path / "r.json")]

        def release(cpus):
            monkeypatch.setattr(sketch, "_usable_cpus", lambda: cpus)
            ingested.clear()
            code = cli.main(argv)
            _no_child_left()
            return code, capsys.readouterr().err, list(ingested)

        code1, err1, rows_in1 = release(1)
        for parses in ("parser", "release"):
            self.taken.clear()
            with monkeypatch.context() as patch:
                self._slow(patch, parses)
                code, err, rows_in = release(2)
            assert ((row // 16 * 16, True) in self.taken) == (parses == "parser")
            assert code == code1 == 1
            assert err == err1 and err.startswith("error: ") and err.count("\n") == 1
            assert self._same(rows_in, rows_in1) and len(rows_in) == row // 16
        assert self.forks == [16, 16]


def _alternating_csv_chunks(path, step, shape, marks, execution):
    # The fixed split the forked reader took before chunks went to whichever
    # process is free: a forked child parses every odd chunk and this
    # process every even one. The balance tests' negative control; it reads
    # clean inputs only. Each process reads its chunks from their marks; the
    # child sends its blocks' raw bytes over a pipe, in order.
    rows, cols = shape
    chunks = range(-(-rows // step))
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(rfd)
            with open(wfd, "wb") as out, open(path) as fh:
                for k in chunks[1::2]:
                    lines, _linenos = cli._chunk_rows(fh, k, step, cols, marks)
                    out.write(cli._bulk_csv_chunk(lines, cols).tobytes())
        finally:
            os._exit(0)
    os.close(wfd)
    try:
        with open(rfd, "rb") as data, open(path) as fh:
            for k in chunks:
                if k % 2:
                    n = min(step, rows - k * step)
                    block = np.frombuffer(bytearray(data.read(8 * n * cols))).reshape(n, cols)
                    execution["parser_chunks"] += 1
                else:
                    block = cli._parse_csv_chunk(*cli._chunk_rows(fh, k, step, cols, marks), cols)
                yield k * step, block
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


@pytest.mark.skipif(not cli._can_fork(), reason="needs os.fork, os.memfd_create and Python below 3.12")
class TestForkedReaderBalance:
    """Chunks go to whichever process is free: in an lra release of 16
    chunks, with the release slowed (in ``LraState.ingest_rows``) the
    parser supplies most of them, and with the parser slowed (before each
    claim) the release parses most. The fixed odd/even alternation gives
    the parser 8 whatever the delay, and fails. The parser holds at most
    ``cli._RUN_AHEAD`` parsed blocks the release has not taken."""

    CHUNKS = 16

    @pytest.fixture(autouse=True)
    def forked_plan(self, monkeypatch):
        # lra reads 3-column inputs in chunks of 16 rows here, on a plan
        # that forks its reader: two CPUs and BLAS entry points.
        monkeypatch.setattr(sketch, "TILE_ENTRIES", 12)
        monkeypatch.setattr(sketch, "_usable_cpus", lambda: 2)
        threads = [2]
        monkeypatch.setattr(sketch, "_blas_thread_fns",
                            lambda: (lambda: threads[0], lambda n: threads.__setitem__(0, n)))
        self.parent = os.getpid()

    def _release(self, tmp_path, monkeypatch, slow):
        # The execution record of an lra release of 16 chunks, with the
        # release or the parser 10 ms late on each chunk.
        if slow == "release":
            original = LraState.ingest_rows

            def ingest(state, i0, block):
                time.sleep(0.01)
                return original(state, i0, block)

            monkeypatch.setattr(LraState, "ingest_rows", ingest)
        else:
            original_claim = cli._claim

            def claim(fd):
                if os.getpid() != self.parent:
                    time.sleep(0.01)
                return original_claim(fd)

            monkeypatch.setattr(cli, "_claim", claim)
        path = tmp_path / "a.csv"
        write_csv(path, np.random.default_rng(11).standard_normal((16 * self.CHUNKS, 3)))
        report = tmp_path / "r.json"
        argv = ["lra", "--input", str(path), "--rank", "1", "--oversample", "2", "--eps", "1",
                "--delta", "0.01", "--seed", "0", "--report", str(report)]
        assert cli.main(argv) == 0
        _no_child_left()
        execution = json.loads(report.read_text())["execution"]
        assert execution["csv_reader"] == "forked"
        return execution["parser_chunks"]

    def _free_process_did_most(self, slow, supplied):
        return (supplied if slow == "release" else self.CHUNKS - supplied) > self.CHUNKS / 2

    @pytest.mark.parametrize("slow", ["release", "parser"])
    def test_the_free_process_parses_most_chunks(self, tmp_path, monkeypatch, slow):
        supplied = self._release(tmp_path, monkeypatch, slow)
        assert self._free_process_did_most(slow, supplied)

    @pytest.mark.parametrize("slow", ["release", "parser"])
    def test_a_fixed_alternation_fails(self, tmp_path, monkeypatch, slow):
        monkeypatch.setattr(cli, "_forked_csv_chunks", _alternating_csv_chunks)
        supplied = self._release(tmp_path, monkeypatch, slow)
        assert supplied == self.CHUNKS / 2
        assert not self._free_process_did_most(slow, supplied)

    def _most_untaken(self, tmp_path, monkeypatch):
        # The most blocks the parser had parsed that the release had not
        # taken, seen after each chunk of a read of 12 chunks that the
        # release takes 20 ms over each.
        log = tmp_path / "parsed"
        original = cli._bulk_csv_chunk

        def logged(lines, expected):
            block = original(lines, expected)
            if os.getpid() != self.parent:
                with open(log, "a") as fh:
                    fh.write("+")
            return block

        monkeypatch.setattr(cli, "_bulk_csv_chunk", logged)
        path = tmp_path / "a.csv"
        write_csv(path, np.random.default_rng(12).standard_normal((48, 3)))
        plan = sketch.ReleasePlan(cpus=2, one_blas=True, walk="serial", csv_reader="forked",
                                  chunk_rows=4, tile_cols=1)
        most = 0
        with cli._release_chunks(plan, [str(path)], "csv", *_probe(path)) as (chunks, execution):
            for _chunk in chunks:
                time.sleep(0.02)
                parsed = len(log.read_text()) if log.exists() else 0
                most = max(most, parsed - execution["parser_chunks"])
        _no_child_left()
        return most

    def test_the_parser_runs_at_most_its_bound_ahead(self, tmp_path, monkeypatch):
        assert self._most_untaken(tmp_path, monkeypatch) == cli._RUN_AHEAD

    def test_an_unbounded_run_ahead_fails(self, tmp_path, monkeypatch):
        # Negative control: a parser that may claim every chunk at once,
        # with a slot for each of the 12.
        monkeypatch.setattr(cli, "_RUN_AHEAD", 12)
        assert self._most_untaken(tmp_path, monkeypatch) > 2


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
             "--seed", "0", "--report", str(out_dir / "out")]
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
    def test_multiply_generates_each_tile_once(
        self, tmp_path, monkeypatch, tile_calls, tile_entries
    ):
        # A and B share every data tile: the release regenerates the lift
        # block once and each data column once, r * (n + max(d1, d2)) normals.
        if tile_entries is not None:
            monkeypatch.setattr(sketch, "TILE_ENTRIES", tile_entries)
        n, d1, d2 = 40, 6, 3
        rng = np.random.default_rng(7)
        pa, pb = tmp_path / "a.dpmt", tmp_path / "b.dpmt"
        cli.save_matrix(str(pa), rng.standard_normal((n, d1)))
        cli.save_matrix(str(pb), rng.standard_normal((n, d2)))
        rc = cli.main(
            ["multiply", "--input", str(pa), "--input-b", str(pb), "--format", "dpbin",
             "--eps", "1", "--delta", "0.01", "--alpha", "0.5", "--beta", "0.2",
             "--report", str(tmp_path / "r.json")]
        )
        assert rc == 0
        r = guard.matmult_sketch_dim(guard.AccuracySpec(0.5, 0.2))
        assert tile_calls.normals == r * (n + max(d1, d2))

    @pytest.mark.parametrize("tile_entries", [None, 50])
    def test_regress_generates_each_tile_once(
        self, tmp_path, monkeypatch, tile_calls, tile_entries
    ):
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
        rc = cli.main(
            ["regress", "--input", str(pa), "--input-b", str(pb), "--format", "dpbin",
             "--eps", "1", "--delta", "0.01", "--alpha", "0.5", "--beta", "0.2",
             "--report", str(tmp_path / "r.json")]
        )
        assert rc == 0
        r = guard.linreg_sketch_dim(guard.AccuracySpec(0.5, 0.2), d)
        assert tile_calls.normals == r * (n + d)

    @staticmethod
    def _ingested_blocks(tmp_path, monkeypatch, command):
        """(i0, rows) of every block the mechanism ingests (lra) or every
        chunk its walk pulls (multiply, regress) in one release of an
        80 x 6 input (and an 80 x 4 second input)."""
        rng = np.random.default_rng(9)
        pa, pb = tmp_path / "a.dpmt", tmp_path / "b.dpmt"
        cli.save_matrix(str(pa), rng.standard_normal((80, 6)))
        cli.save_matrix(str(pb), rng.standard_normal((80, 4)))
        blocks = []
        lra_ingest = LraState.ingest_rows

        def lra_spy(self, i0, rows):
            blocks.append((i0, len(rows)))
            return lra_ingest(self, i0, rows)

        monkeypatch.setattr(LraState, "ingest_rows", lra_spy)
        _spy_pulled_chunks(monkeypatch, lambda i0, rows: blocks.append((i0, rows)))
        args = ["--rank", "2"] if command == "lra" else [
            "--input-b", str(pb), "--alpha", "0.5", "--beta", "0.2"]
        rc = cli.main([command, "--input", str(pa), "--format", "dpbin", "--eps", "1",
                       "--delta", "0.01", *args])
        assert rc == 0
        return blocks

    @pytest.mark.parametrize("command", ["lra", "multiply", "regress"])
    def test_chunk_rule(self, tmp_path, monkeypatch, capsys, command):
        # One tile of the widest input per chunk, and four for lra, which
        # regenerates its data block once per chunk. Under a tile of 50
        # entries that is 8 rows of 6 columns, and 32 for lra.
        monkeypatch.setattr(sketch, "TILE_ENTRIES", 50)
        step = (4 if command == "lra" else 1) * sketch.per_tile(6)
        assert step == (32 if command == "lra" else 8)
        want = [(i0, min(step, 80 - i0)) for i0 in range(0, 80, step)]
        assert self._ingested_blocks(tmp_path, monkeypatch, command) == want
        if command == "lra":
            # Negative control: a reader that ignores the rule's step feeds
            # lra 1-tile chunks, which the rule does not allow.
            read = cli.iter_matrix_chunks
            monkeypatch.setattr(cli, "iter_matrix_chunks", lambda path, fmt, step: read(path, fmt))
            assert self._ingested_blocks(tmp_path, monkeypatch, command) != want

    def test_regress_end_to_end(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((25, 3))
        queries = rng.standard_normal((25, 2))
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(pa, a)
        write_csv(pb, queries)
        rc = cli.main(
            ["regress", "--input", str(pa), "--input-b", str(pb), "--eps", "1",
             "--delta", "0.01", "--alpha", "0.5", "--beta", "0.2", "--seed", "0", "--oracle"]
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
            factor = state.finalize()
            release = [factor.u_hat, factor.lam.reshape(1, -1)]
            score = lambda uhat, lam: harness.lra_errors(a, LowRankFactor(uhat, lam[0], 2), lcfg)
        elif command == "multiply":
            args += acc_args
            state = new_matprod(30, 6, 4, budget, acc, 4)
            state.ingest_rows(0, a, b)
            release = [state.product_query()]
            score = lambda estimate: harness.matprod_errors(a, b, estimate, state)
        else:
            args += acc_args
            state = new_regress(30, 6, budget, acc, 4)
            state.ingest_rows(0, a)
            release = [state.query_many(b)]
            score = lambda solutions: harness.regress_errors(a, b, solutions, state)
        assert cli.main(args) == 0
        report = json.loads(rp.read_text())
        assert report["error_vs_oracle"] == score(*release)
        # The published files are what --oracle scored: they hold the
        # release bit for bit, and the harness run on them as read back
        # gives the report's errors bit for bit.
        published = [cli.load_matrix(path, "dpbin") for path in report["factor_files"]]
        for got, want in zip(published, release, strict=True):
            np.testing.assert_array_equal(got, want)
        assert score(*published) == report["error_vs_oracle"]


class TestReportSchema:
    """The report of every release command, key for key, in both guard modes."""

    ORACLE_KEYS = {
        "lra": {"frobenius_error", "eckart_young_optimum", "error_bound", "trivial_error"},
        "multiply": {"frobenius_error", "error_bound", "trivial_error"},
        "regress": {"residuals", "optima", "error_bound", "trivial_error"},
    }
    GUARD_KEYS = {"required_sigma_min", "observed_sigma_min", "passed", "mode"}
    EXECUTION_KEYS = {"usable_cpus", "blas_build", "blas_threads", "walk", "csv_reader",
                      "parser_chunks", "walk_tile_columns"}
    # params holds exactly the options the command parsed, so multiply and
    # regress reports list no lra option such as rank, less the secret seed.
    RELEASE_PARAMS = {"command", "report", "input", "fmt", "oracle", "eps", "delta"}
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
        keys = {"params", "guard_report", "error_vs_oracle", "space_entries", "wall_time_ms",
                "factor_files", "execution"}
        assert set(report) == keys
        assert set(report["execution"]) == self.EXECUTION_KEYS
        assert report["execution"]["walk"] in ("serial", "two-thread")
        assert report["execution"]["csv_reader"] in ("serial", "forked")
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

    @pytest.mark.parametrize("scale", [1.0, 1 + 1e-6], ids=["same-lift", "scaled-lift"])
    @pytest.mark.parametrize("command", ["lra", "multiply", "regress"])
    def test_exact_guard_is_last_singular_value_of_the_lift(
        self, tmp_path, inputs, monkeypatch, command, scale
    ):
        # The --oracle guard is the smallest singular value of the lifted
        # input, built here from the unscaled lift: [w I, A] for lra and
        # lifted_matrix(A, s, d) otherwise. Negative control: a program lift
        # 1 + 1e-6 too large no longer matches it.
        a = cli.load_matrix(inputs[0], "csv")
        lift = self._structural_pair(command)[1]
        lifted = np.hstack([lift * np.eye(30), a]) if command == "lra" else lifted_matrix(a, lift, 6)
        want = float(np.linalg.svd(lifted, compute_uv=False)[-1])
        scaled = "lra_lift_w" if command == "lra" else "lift_scale_s"
        original = getattr(guard, scaled)
        monkeypatch.setattr(guard, scaled, lambda *args: original(*args) * scale)
        greport = self._report(tmp_path, inputs, command, oracle=True)["guard_report"]
        assert greport["mode"] == "exact"
        assert (greport["observed_sigma_min"] == want) == (scale == 1.0)

    def test_verify_report_keys(self, tmp_path):
        rp = tmp_path / "verify.json"
        assert cli.main(["verify", "--report", str(rp)]) == 0
        assert set(json.loads(rp.read_text())) == {"params", "checks", "wall_time_ms"}


def _values(node):
    """Every leaf value of a parsed JSON report."""
    if isinstance(node, dict):
        for v in node.values():
            yield from _values(v)
    elif isinstance(node, list):
        for v in node:
            yield from _values(v)
    else:
        yield node


class TestSecretSeed:
    """A release's seed fixes its projection, so no release publishes it."""

    def test_seedless_runs_publish_different_factors(self, small_matrices, tmp_path):
        _, _, pa, _ = small_matrices
        lams = []
        for tag in ("one", "two"):
            rp = tmp_path / f"{tag}.json"
            assert cli.main(["lra", "--input", pa, "--rank", "2", "--eps", "1",
                             "--delta", "0.01", "--report", str(rp)]) == 0
            lam_path = json.loads(rp.read_text())["factor_files"][1]
            lams.append(Path(lam_path).read_bytes())
        assert lams[0] != lams[1]

    @pytest.mark.parametrize("command", ["lra", "multiply", "regress"])
    @pytest.mark.parametrize("seed", [None, 918_273_645])
    def test_no_report_value_is_the_seed(self, small_matrices, tmp_path, monkeypatch,
                                         command, seed):
        # With no --seed, the drawn seed is caught on its way out of secrets.
        drawn = []
        randbits = cli.secrets.randbits

        def spy(k):
            drawn.append(randbits(k))
            return drawn[-1]

        monkeypatch.setattr(cli.secrets, "randbits", spy)
        _, _, pa, pb = small_matrices
        rp = tmp_path / "report.json"
        args = [command, "--input", pa, "--eps", "1", "--delta", "0.01",
                "--report", str(rp), "--oracle"]
        args += ["--rank", "2"] if command == "lra" else [
            "--input-b", pb, "--alpha", "0.5", "--beta", "0.2"]
        if seed is not None:
            args += ["--seed", str(seed)]
        assert cli.main(args) == 0
        assert len(drawn) == (1 if seed is None else 0)
        secret = drawn[0] if seed is None else seed
        text = rp.read_text()
        assert "seed" not in json.loads(text)["params"]
        assert all(v != secret and v != str(secret) for v in _values(json.loads(text)))
        assert str(secret) not in text
