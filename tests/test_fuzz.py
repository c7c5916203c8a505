"""Seeded token mutants of the fixtures through `cli.main`.

Each mutant is a fixture with one to three edits: a number set to -2 ..
100, a huge or malformed number, a token copied over another, deleted or
doubled, the file cut short, or two lines swapped.  Every mutant runs
through `check`, `invariants`, `nerve`, `sset2`, `reconstruct` and
`roundtrip`, and, as the domain with its own fixture as the codomain,
through `hom`, `pi0hom` and `enumerate-maps` under `--cap 2000`.  Each
run must return 0, 1, 2 or 3 and write no traceback.  The mutants are
fixed by the seed; to run more of them:

    PYTHONPATH=src python tests/test_fuzz.py <seed> <count>
"""

import contextlib
import io
import random
import sys
import traceback
from pathlib import Path

from twotypes.cli import main

FIX = Path(__file__).resolve().parent.parent / "fixtures"
FIXTURES = sorted(p.name for p in FIX.iterdir())
SEED = 9
COUNT = 160

MALFORMED = ("99999999999999999999", "-99999999999999999999", "1x", "-",
             "0.5", "--3", "+1", "")
SINGLE = ("check", "invariants", "nerve", "sset2", "reconstruct",
          "roundtrip")
PAIRED = ("hom", "pi0hom", "enumerate-maps")


def _edit(rows, rng):
    """One edit of `rows` (lists of tokens) in place."""
    tokens = [(i, j) for i, row in enumerate(rows) for j in range(len(row))]
    i, j = rng.choice(tokens)
    kind = rng.randrange(7)
    if kind == 0:
        rows[i][j] = str(rng.randint(-2, 100))
    elif kind == 1:
        rows[i][j] = rng.choice(MALFORMED)
    elif kind == 2:
        k, m = rng.choice(tokens)
        rows[i][j] = rows[k][m]
    elif kind == 3:
        del rows[i][j]
    elif kind == 4:
        rows[i].insert(j, rows[i][j])
    elif kind == 5:
        del rows[rng.randrange(len(rows)):]
    else:
        k = rng.randrange(len(rows))
        rows[i], rows[k] = rows[k], rows[i]


def mutants(seed, count):
    """(fixture name, mutated text) pairs, the same for the same seed."""
    rng = random.Random(seed)
    texts = {name: (FIX / name).read_text(encoding="utf-8")
             for name in FIXTURES}
    for _ in range(count):
        name = rng.choice(FIXTURES)
        rows = [line.split() for line in texts[name].splitlines()]
        for _ in range(rng.randint(1, 3)):
            if any(rows):
                _edit(rows, rng)
        yield name, "\n".join(" ".join(row) for row in rows) + "\n"


def run_all(name, text, directory):
    """The argv of each run of one mutant that raised or wrote a
    traceback, with what it raised."""
    path = directory / f"mutant.{name.rsplit('.', 1)[1]}"
    path.write_text(text, encoding="utf-8")
    runs = [[command, str(path)] for command in SINGLE]
    runs += [[command, str(path), str(FIX / name), "--cap", "2000"]
             for command in PAIRED]
    bad = []
    for argv in runs:
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
        except Exception:
            bad.append((argv, traceback.format_exc()))
            continue
        if code not in (0, 1, 2, 3) or "Traceback" in err.getvalue():
            bad.append((argv, f"exit {code}: {err.getvalue()}"))
    return bad


def test_mutants_exit_0_to_3_without_traceback(tmp_path):
    failures = [(name, text, bad) for name, text in mutants(SEED, COUNT)
                for bad in run_all(name, text, tmp_path)]
    assert not failures, failures[0]


if __name__ == "__main__":
    import tempfile
    seed, count = int(sys.argv[1]), int(sys.argv[2])
    with tempfile.TemporaryDirectory() as tmp:
        for number, (name, text) in enumerate(mutants(seed, count)):
            for argv, error in run_all(name, text, Path(tmp)):
                print(f"mutant {number} of {name}, {argv[0]}:\n{text}"
                      f"{error.splitlines()[-1]}\n")
