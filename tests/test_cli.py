import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from twotypes.cli import main
from twotypes.fingroup import direct_product, klein_four, symmetric3
from twotypes.textio import (
    ParseError, ValidationError, describe_group, format_group, format_xmod,
    parse_text,
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

    def test_errors_name_the_file(self, capsys, tmp_path):
        # with several files, the message says which one is bad
        short, bad = tmp_path / "short.group", tmp_path / "bad.group"
        short.write_text("group z3 order 3\n0 1 2\n1 2 0\n")
        bad.write_text("group z3 order 3\n0 1 2\n1 2 7\n2 0 1\n")
        z2 = str(FIX / "z2.group")
        assert run(capsys, "check", z2, str(short)) == (
            2, "", f"parse error: {short}: line 4: expected row of group "
                   "table\n")
        assert run(capsys, "check", z2, str(bad)) == (
            1, "", f"validation error: {bad}: z3: entry out of range "
                   "(witness: (1, 2))\n")
        # parse_text reads no file, and names none
        try:
            parse_text(short.read_text())
            assert False
        except ParseError as exc:
            assert str(exc) == "line 4: expected row of group table"

    @pytest.mark.parametrize("text, line, expected", [
        ("sset x trunc 1 sizes 1 1\n", 1, "counts"),
        ("sset x trunc 1 counts 1 1 base 0\n", 1, "basepoint <i>"),
        ("sset x trunc 1 counts 1 1\nfaces 2\n", 2, "faces 1"),
        ("sset x trunc 1 counts 1 1\nfaces 1\n0 0\ndegens 1\n0\n", 4,
         "degens 0"),
        ("# no name\ngroup\n0\n", 2, "block header with a name"),
        ("group g\n0\n", 1, "header key order"),
    ], ids=["sset-counts", "sset-basepoint", "sset-faces", "sset-degens",
            "header-name", "header-key"])
    def test_header_errors_name_the_file_and_line(self, capsys, tmp_path,
                                                  text, line, expected):
        p = tmp_path / "bad.txt"
        p.write_text(text)
        assert run(capsys, "check", str(p)) == (
            2, "", f"parse error: {p}: line {line}: expected {expected}\n")

    def test_validation_error_is_1(self, capsys, tmp_path):
        p = tmp_path / "bad.group"
        p.write_text("group g order 2\n0 1\n0 1\n")
        code, _, err = run(capsys, "check", str(p))
        assert code == 1
        assert "validation error" in err

    def test_missing_file_is_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", str(tmp_path / "nope.group"))
        assert code == 2

    def test_directory_is_2(self, capsys):
        code, out, err = run(capsys, "check", str(FIX))
        assert (code, out) == (2, "")
        assert err == f"parse error: a directory, not a file: {FIX}\n"

    def test_undecodable_file_is_2(self, capsys, tmp_path):
        p = tmp_path / "bad.group"
        p.write_bytes(b"group g order 1\n0\n\xff\n")
        code, out, err = run(capsys, "check", str(p))
        assert (code, out) == (2, "")
        assert err == f"parse error: line 3: expected UTF-8 text in {p}\n"

    def test_nerve_of_an_empty_file_is_2(self, capsys):
        code, out, err = run(capsys, "nerve", os.devnull)
        assert (code, out) == (2, "")
        assert err == f"parse error: line 1: expected a block in " \
                      f"{os.devnull}\n"
        # an empty file holds no object, and check has nothing to report
        assert run(capsys, "check", os.devnull) == (0, "", "")

    def test_hom_into_an_empty_file_is_2(self, capsys):
        code, out, err = run(capsys, "hom", str(FIX / "z2.xmod"), os.devnull)
        assert (code, out) == (2, "")
        assert err == f"parse error: line 1: expected a block in " \
                      f"{os.devnull}\n"

    def test_bad_subcommand_is_2(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_cap_exceeded_is_3(self, capsys):
        code, _, err = run(capsys, "hom", str(FIX / "z2.xmod"),
                           str(FIX / "z2to1.xmod"), "--cap", "1")
        assert code == 3
        assert "cap" in err

    def test_cap_of_hom_and_pi0hom_in_transformations(self, capsys):
        # one cap covers every search of the command; the functor search of
        # hom and the weak-map search of pi0hom take 83 steps each here, so
        # 100 steps run out in the transformation searches
        pair = [str(FIX / "z3.xmod"), str(FIX / "z4to2.xmod")]
        for command in ("hom", "pi0hom"):
            code, out, err = run(capsys, command, *pair, "--cap", "100")
            assert (code, out) == (3, "")
            assert f"{command} transformations exceeded the cap of 100 " \
                   f"steps" in err

    def test_cap_of_pointed_enumerate_maps(self, capsys):
        # 12 steps: the basepoint is set before the search and takes none
        nz2 = str(FIX / "nz2.sset")
        for cap, code, out in (("12", 0, "maps: 2\n"), ("11", 3, "")):
            assert run(capsys, "enumerate-maps", nz2, nz2, "--pointed",
                       "--cap", cap)[:2] == (code, out)

    def test_pointed_without_basepoint_is_1(self, capsys, tmp_path):
        p = tmp_path / "unpointed.2gpd"
        p.write_text((FIX / "bz2.2gpd").read_text().replace(
            " basepoint 0", ""))
        z2, nz2 = str(FIX / "z2.xmod"), str(FIX / "nz2.sset")
        sphere = str(FIX / "sphere.sset")  # has no basepoint either
        for argv in (("hom", str(p), z2), ("hom", z2, str(p)),
                     ("enumerate-maps", nz2, sphere),
                     ("enumerate-maps", sphere, nz2)):
            code, out, err = run(capsys, *argv, "--pointed")
            assert (code, out) == (1, "")
            assert err == ("validation error: pointed-without-basepoint "
                           "fails at None\n")
            assert run(capsys, *argv)[0] == 0

    def test_basepoint_out_of_range_is_1(self, capsys, tmp_path):
        bad2 = tmp_path / "bp5.2gpd"
        bad2.write_text((FIX / "bz2.2gpd").read_text().replace(
            "basepoint 0", "basepoint 5"))
        bads = tmp_path / "bp7.sset"
        bads.write_text((FIX / "nz2.sset").read_text().replace(
            "basepoint 0", "basepoint 7"))
        for argv, name, path, bp in (
                (("check", str(bad2)), "bz2", bad2, 5),
                (("invariants", str(bad2)), "bz2", bad2, 5),
                (("hom", str(bad2), str(bad2), "--pointed"), "bz2", bad2, 5),
                (("check", str(bads)), "nz2", bads, 7),
                (("enumerate-maps", str(bads), str(bads), "--pointed"),
                 "nz2", bads, 7)):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, "")
            assert err == (f"validation error: {path}: {name}: "
                           f"basepoint-range fails at {bp}\n")

    def test_xmod_shape_is_1(self, capsys, tmp_path):
        # the boundary maps G1 -> G1; the check must hold under python -O
        p = tmp_path / "bad.xmod"
        p.write_text((FIX / "z2.xmod").read_text().replace(
            "hom z2_phi dom z2_g2 cod z2_g1\n0\n",
            "hom z2_phi dom z2_g1 cod z2_g1\n0 1\n"))
        want = f"validation error: {p}: z2: phi-domain fails at None\n"
        for command in ("check", "invariants"):
            assert run(capsys, command, str(p)) == (1, "", want)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-O", "-m", "twotypes.cli", "check", str(p)],
            capture_output=True, text=True, env=env, timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == (1, "", want)

    def test_group_entry_past_int64_is_1(self, capsys, tmp_path):
        p = tmp_path / "big.group"
        p.write_text("group z2 order 2\n0 99999999999999999999\n1 0\n")
        assert run(capsys, "check", str(p)) == (
            1, "", f"validation error: {p}: z2: entry out of range "
                   "(witness: (0, 1))\n")

    def test_action_entry_out_of_range_is_1(self, capsys, tmp_path):
        lines = (FIX / "z2.xmod").read_text().splitlines()
        assert lines[11] == "0 0"
        for entry in ("-2", "-1", "99999999999999999999"):
            lines[11] = f"0 {entry}"
            p = tmp_path / "bad.xmod"
            p.write_text("\n".join(lines) + "\n")
            for command in ("check", "invariants"):
                assert run(capsys, command, str(p)) == (
                    1, "", f"validation error: {p}: z2_act: entry out of "
                           "range (witness: (0, 1))\n")

    def test_cohomology_action_of_other_groups_is_1(self, capsys, tmp_path):
        # an action of Z/2 on Z/2, given with Gamma = A = Z/4
        p = tmp_path / "z2.action"
        p.write_text((FIX / "z2.group").read_text().replace(
            "group z2", "group a") +
            "action act actor a space a\n0 0\n1 1\n")
        z4 = str(FIX / "z4.group")
        code, out, err = run(capsys, "cohomology", "--gamma", z4,
                             "--coeff", z4, "--action", str(p))
        assert (code, out, err) == (
            1, "", "validation error: action-actor fails at None\n")

    def test_invariants_of_unpointed_2gpd_is_1(self, capsys, tmp_path):
        p = tmp_path / "unpointed.2gpd"
        p.write_text((FIX / "bz2.2gpd").read_text().replace(
            " basepoint 0", ""))
        assert run(capsys, "invariants", str(p)) == (
            1, "", "validation error: pointed-without-basepoint fails at "
                   "None\n")
        assert run(capsys, "invariants", str(FIX / "bz2.2gpd"))[0] == 0

    def test_cohomology_cap_exceeded_is_3(self, capsys):
        code, out, err = run(capsys, "cohomology", "--gamma",
                             str(FIX / "s3.group"), "--coeff",
                             str(FIX / "z4.group"), "--cap", "1000")
        assert code == 3
        assert out == ""
        assert "cohomology exceeded the cap of 1000 steps" in err

    def test_cohomology_cap_is_the_count_of_matrix_entries(self, capsys):
        # S3 on Z/4, on the 5 elements other than e, with 2 generators: h1
        # builds d0 (5 x 1) and the rows of d1 at the generators (10 x 5),
        # h2 builds d1 whole (25 x 5) and the rows of d2 at the generators
        # (50 x 25), all under one cap
        total = 5 * 1 + 10 * 5 + 25 * 5 + 50 * 25
        assert total == 1430
        argv = ["cohomology", "--gamma", str(FIX / "s3.group"),
                "--coeff", str(FIX / "z4.group"), "--cap"]
        assert run(capsys, *argv, str(total)) == (
            0, "h1: Z/2-order-2; h2: Z/2-order-2\n", "")
        code, out, err = run(capsys, *argv, str(total - 1))
        assert (code, out) == (3, "")
        assert f"cohomology exceeded the cap of {total - 1} steps" in err

    def test_cohomology_answer_table_is_counted_against_the_cap(
            self, capsys, tmp_path):
        # V4 on (Z/2)^4: the matrices take 3 360 steps and the table of
        # H1 (256 elements) 65 536 entries, but H2 has 4 096 elements, so
        # its table would hold 16 777 216 entries; none is built
        p = tmp_path / "z2x4.group"
        p.write_text(format_group(
            "z2x4", direct_product(klein_four(), klein_four())))
        start = time.process_time()
        code, out, err = run(capsys, "cohomology", "--gamma",
                             str(FIX / "v4.group"), "--coeff", str(p),
                             "--cap", "100000")
        assert time.process_time() - start < 10
        assert (code, out) == (3, "")
        assert err == ("cap exceeded: cohomology: 16777216 table entries "
                       "exceed the cap of 100000\n")

    def test_nerve_over_size_cap_is_3(self, tmp_path):
        # level 4 of the nerve of id_s3 would hold 6^10 simplices; it is
        # counted up to the cap and none is built
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

    def test_cap_of_nerve_and_roundtrip(self, capsys, tmp_path):
        p = tmp_path / "ids3.xmod"
        p.write_text(format_xmod("ids3", xmod_identity(symmetric3())))
        # level 3 of the nerve of id_s3 holds (6 * 6)^3 = 46 656 simplices,
        # admitted before its 2-group of 1 548 table entries is built
        code, out, err = run(capsys, "nerve", str(p), "--cap", "1000")
        assert (code, out) == (3, "")
        assert err == ("cap exceeded: nerve: the simplices of level 3 "
                       "exceed the cap of 1000\n")
        # level 4 of the nerve of BZ/3 holds 81 simplices
        for cap, code in (("80", 3), ("81", 0)):
            for command in ("nerve", "roundtrip"):
                got, out, _ = run(capsys, command, str(FIX / "z3.xmod"),
                                  "--cap", cap)
                assert (got, bool(out)) == (code, code == 0)

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

    def test_bad_cap_is_2(self, capsys):
        pair = [str(FIX / "z2.xmod"), str(FIX / "z2to1.xmod")]
        commands = [
            ["nerve", str(FIX / "z2.xmod")],
            ["roundtrip", str(FIX / "z2.xmod")],
            ["enumerate-maps", str(FIX / "nz2.sset"), str(FIX / "nz2.sset")],
            ["hom", *pair], ["pi0hom", *pair],
            ["cohomology", "--gamma", str(FIX / "z2.group"),
             "--coeff", str(FIX / "z2.group")]]
        for command in commands:
            for cap in ("-5", "-1", "x", "1.5"):
                code, out, err = run(capsys, *command, "--cap", cap)
                assert (code, out) == (2, "")
                assert "usage:" in err and "--cap" in err
            # 0 is a cap: the first step of the search goes past it
            code, out, _ = run(capsys, *command, "--cap", "0")
            assert (code, out) == (3, "")

    def test_wrong_subject_kind_is_2(self, capsys):
        code, _, err = run(capsys, "sset2", str(FIX / "z2.group"))
        assert code == 2
        assert "line 1:" in err
