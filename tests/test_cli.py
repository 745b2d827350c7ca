"""Command line interface, driven in-process through main()."""

import subprocess
import sys

import pytest

from treerepair import parse_xml
from treerepair.cli import main

from conftest import BOOKS, subprocess_env


@pytest.fixture
def books_file(tmp_path):
    path = tmp_path / "books.xml"
    path.write_bytes(BOOKS)
    return path


class TestCompressDecompress:
    def test_roundtrip(self, tmp_path, books_file):
        packed = tmp_path / "books.tr"
        restored = tmp_path / "restored.xml"
        assert main(["compress", str(books_file), str(packed)]) == 0
        assert main(["decompress", str(packed), str(restored)]) == 0
        assert restored.read_bytes() == BOOKS
        assert packed.stat().st_size < len(BOOKS)

    def test_flags_are_accepted(self, tmp_path, books_file):
        out_a = tmp_path / "a.tr"
        out_b = tmp_path / "b.tr"
        args = ["compress", "-optimize", "edges", "-max_rank", "99", "-no_dag"]
        assert main(args + [str(books_file), str(out_a)]) == 0
        assert main(args + [str(books_file), str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_rejects_negative_rank(self, tmp_path, books_file, capsys):
        out = tmp_path / "books.tr"
        code = main(["compress", "-max_rank", "-1", str(books_file), str(out)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_stats_rejects_negative_rank_like_compress(self, tmp_path, books_file,
                                                      capsys):
        out = tmp_path / "books.tr"
        assert main(["compress", "-max_rank", "-1", str(books_file), str(out)]) == 1
        assert not out.exists()
        assert main(["stats", "-max_rank", "-1", str(books_file)]) == 1
        err = capsys.readouterr().err
        assert err == "error: max_rank must not be negative\n" * 2

    def test_rejects_unknown_objective(self, tmp_path, books_file):
        out = tmp_path / "books.tr"
        with pytest.raises(SystemExit) as info:
            main(["compress", "-optimize", "bogus", str(books_file), str(out)])
        assert info.value.code == 2

    def test_rejects_garbage_stream(self, tmp_path, capsys):
        bad = tmp_path / "bad.tr"
        bad.write_bytes(b"\x00" * 16)
        out = tmp_path / "out.xml"
        assert main(["decompress", str(bad), str(out)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path, capsys):
        out = tmp_path / "out.tr"
        assert main(["compress", str(tmp_path / "nope.xml"), str(out)]) == 1
        assert "error:" in capsys.readouterr().err


class TestStats:
    def test_report_lines(self, books_file, capsys):
        assert main(["stats", str(books_file)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        table = dict(line.split(": ") for line in lines)
        assert table["input bytes"] == "200"
        assert table["binary tree edges"] == "20"
        assert table["grammar edges"] == "12"
        assert table["edge factor %"] == "60.000"
        assert table["file size factor %"] == "30.500"
        assert float(table["wall ms"]) > 0


class TestGen:
    @pytest.mark.parametrize("family,param,n_elements", [
        ("perfect", 3, 15),
        ("M", 1, 7),
        ("U", 3, 17),
    ])
    def test_generated_xml_parses(self, tmp_path, family, param, n_elements):
        out = tmp_path / "gen.xml"
        assert main(["gen", family, str(param), str(out)]) == 0
        bt = parse_xml(out.read_bytes())
        assert bt.node_count == n_elements

    def test_generated_file_compresses(self, tmp_path):
        xml = tmp_path / "u.xml"
        packed = tmp_path / "u.tr"
        restored = tmp_path / "u2.xml"
        assert main(["gen", "U", "4", str(xml)]) == 0
        assert main(["compress", str(xml), str(packed)]) == 0
        assert main(["decompress", str(packed), str(restored)]) == 0
        assert restored.read_bytes() == xml.read_bytes()

    def test_rejects_bad_param(self, tmp_path, capsys):
        out = tmp_path / "gen.xml"
        assert main(["gen", "perfect", "0", str(out)]) == 1
        assert "error:" in capsys.readouterr().err


def test_module_is_executable(tmp_path):
    src = tmp_path / "books.xml"
    src.write_bytes(BOOKS)
    out = tmp_path / "books.tr"
    proc = subprocess.run(
        [sys.executable, "-m", "treerepair", "compress", str(src), str(out)],
        capture_output=True, env=subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert out.stat().st_size > 0
