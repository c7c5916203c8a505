import os
import subprocess
import sys
from pathlib import Path

from twotypes.cli import main
from twotypes.fingroup import symmetric3
from twotypes.textio import (
    ParseError, ValidationError, describe_group, format_xmod, parse_text,
)
from twotypes.xmod import xmod_identity

ROOT = Path(__file__).resolve().parent.parent
FIX = ROOT / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParsing:
    def test_all_fixture_files_load(self):
        for path in sorted(FIX.iterdir()):
            parse_text(path.read_text())

    def test_comments_and_blanks_ignored(self):
        ws = parse_text("# a comment\n\ngroup g order 1  # inline\n0\n")
        assert ws.subject()[0] == "group"

    def test_duplicate_name_rejected(self):
        text = "group g order 1\n0\ngroup g order 1\n0\n"
        try:
            parse_text(text)
            assert False
        except ParseError as exc:
            assert "duplicate" in exc.expected

    def test_bad_table_is_validation_error(self):
        try:
            parse_text("group g order 2\n0 1\n0 1\n")
            assert False
        except ValidationError as exc:
            assert exc.name == "g"

    def test_unknown_block_kind(self):
        try:
            parse_text("widget w size 3\n")
            assert False
        except ParseError as exc:
            assert exc.line == 1

    def test_describe_group(self):
        from twotypes.fingroup import cyclic, klein_four, symmetric3, \
            trivial_group
        assert describe_group(trivial_group()) == "trivial"
        assert describe_group(cyclic(4)) == "Z/4-order-4"
        assert describe_group(klein_four()) == "V4-order-4"
        assert describe_group(symmetric3()) == "group-order-6"


class TestCommands:
    def test_check(self, capsys):
        code, out, _ = run(capsys, "check", str(FIX / "z2.group"))
        assert code == 0
        assert out == "group z2: ok\n"

    def test_invariants(self, capsys):
        code, out, _ = run(capsys, "invariants", str(FIX / "z2to1.xmod"))
        assert code == 0
        assert out == "pi1: trivial; pi2: Z/2-order-2\n"

    def test_nerve(self, capsys):
        code, out, _ = run(capsys, "nerve", str(FIX / "z2.xmod"))
        assert code == 0
        assert out == "levels: 1 2 4 8 16\n"

    def test_nerve_trunc(self, capsys):
        code, out, _ = run(capsys, "nerve", str(FIX / "z2to1.xmod"),
                           "--trunc", "3")
        assert (code, out) == (0, "levels: 1 1 2 8\n")

    def test_sset2_on_sphere(self, capsys):
        code, out, _ = run(capsys, "sset2", str(FIX / "sphere.sset"))
        assert code == 1
        assert out == "kan: yes; coskeletal3: yes; minimal2: no; sset2: no\n"

    def test_sset2_on_nerve(self, capsys):
        code, out, _ = run(capsys, "sset2", str(FIX / "nz2.sset"))
        assert (code, out) == (
            0, "kan: yes; coskeletal3: yes; minimal2: yes; sset2: yes\n")

    def test_reconstruct(self, capsys):
        code, out, _ = run(capsys, "reconstruct", str(FIX / "nz2.sset"))
        assert (code, out) == (
            0, "objects: 1; cells1: 2; cells2: 2; pentagon: ok\n")

    def test_enumerate_maps(self, capsys):
        code, out, _ = run(capsys, "enumerate-maps", str(FIX / "nz2.sset"),
                           str(FIX / "nz2.sset"))
        assert (code, out) == (0, "maps: 2\n")

    def test_hom(self, capsys):
        code, out, _ = run(capsys, "hom", str(FIX / "z2.xmod"),
                           str(FIX / "z2to1.xmod"), "--pointed")
        assert (code, out) == (0, "objects: 2; cells1: 4; cells2: 4\n")

    def test_pi0hom(self, capsys):
        code, out, _ = run(capsys, "pi0hom", str(FIX / "z2.xmod"),
                           str(FIX / "z2to1.xmod"), "--pointed")
        assert (code, out) == (0, "classes: 2\n")

    def test_cohomology(self, capsys):
        code, out, _ = run(capsys, "cohomology",
                           "--gamma", str(FIX / "z3.group"),
                           "--coeff", str(FIX / "z3.group"))
        assert (code, out) == (0, "h1: Z/3-order-3; h2: Z/3-order-3\n")

    def test_roundtrip(self, capsys):
        code, out, _ = run(capsys, "roundtrip", str(FIX / "bz2.2gpd"),
                           "--strategy", "seeded:7")
        assert (code, out) == (
            0, "nerve∘reconstruct: isomorphic; pentagon: ok\n")


class TestDeterminism:
    def test_reports_are_byte_identical(self, capsys):
        cases = [
            ("invariants", str(FIX / "z4to2.xmod")),
            ("nerve", str(FIX / "z2to1.xmod")),
            ("pi0hom", str(FIX / "z2.xmod"), str(FIX / "z2to1.xmod"),
             "--pointed"),
            ("roundtrip", str(FIX / "nz2.sset"), "--strategy", "seeded:3"),
            ("reconstruct", str(FIX / "nz2.sset"), "--seed", "9"),
        ]
        for argv in cases:
            first = run(capsys, *argv)
            second = run(capsys, *argv)
            assert first == second


class TestExitCodes:
    def test_parse_error_is_2(self, capsys, tmp_path):
        p = tmp_path / "bad.group"
        p.write_text("group g order two\n")
        code, _, err = run(capsys, "check", str(p))
        assert code == 2
        assert "parse error" in err

    def test_validation_error_is_1(self, capsys, tmp_path):
        p = tmp_path / "bad.group"
        p.write_text("group g order 2\n0 1\n0 1\n")
        code, _, err = run(capsys, "check", str(p))
        assert code == 1
        assert "validation error" in err

    def test_missing_file_is_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", str(tmp_path / "nope.group"))
        assert code == 2

    def test_bad_subcommand_is_2(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_cap_exceeded_is_3(self, capsys):
        code, _, err = run(capsys, "hom", str(FIX / "z2.xmod"),
                           str(FIX / "z2to1.xmod"), "--cap", "1")
        assert code == 3
        assert "cap" in err

    def test_cohomology_cap_exceeded_is_3(self, capsys):
        code, out, err = run(capsys, "cohomology", "--gamma",
                             str(FIX / "s3.group"), "--coeff",
                             str(FIX / "z4.group"), "--cap", "1000")
        assert code == 3
        assert out == ""
        assert "cohomology exceeded the cap of 1000 steps" in err

    def test_nerve_over_size_cap_is_3(self, tmp_path):
        # level 4 of the nerve of id_s3 would hold 6^10 simplices; a fresh
        # process keeps the million rows built before the cap out of this one
        p = tmp_path / "ids3.xmod"
        p.write_text(format_xmod("ids3", xmod_identity(symmetric3())))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "twotypes.cli", "nerve", str(p)],
            capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 3
        assert done.stdout == ""
        assert "cap exceeded" in done.stderr
        assert "Traceback" not in done.stderr

    def test_bad_strategy_is_2(self, capsys):
        for command in ("reconstruct", "roundtrip"):
            for strategy in ("bogus", "seeded:x"):
                code, out, err = run(capsys, command, str(FIX / "nz2.sset"),
                                     "--strategy", strategy)
                assert (code, out) == (2, "")
                assert "usage:" in err and "--strategy" in err

    def test_negative_trunc_is_2(self, capsys):
        code, out, err = run(capsys, "nerve", str(FIX / "z2.xmod"),
                             "--trunc", "-1")
        assert (code, out) == (2, "")
        assert "usage:" in err and "--trunc" in err

    def test_wrong_subject_kind_is_2(self, capsys):
        code, _, err = run(capsys, "sset2", str(FIX / "z2.group"))
        assert code == 2
        assert "line 1:" in err
