"""The four workloads and the answers they are checked against.

A workload builds its inputs from a seed (`build`) and turns them into
operations (`ops`).  An operation is one item: a corpus entry, an (n, m)
step, a (Gamma, A) case or a command.  Its `run` is what is timed; its
`check` compares the answer with a value derived without the library and
returns None or a description of the mismatch.

Expected values come from formulas, never from the code under test:

- level n of the nerve of a crossed module G2 -> G1 has
  |G1|^n * |G2|^C(n,2) simplices;
- pointed maps B(Z/n) -> B^2(Z/m) are the normalised 2-cocycles Z/n x Z/n
  -> Z/m, m^(n-1) of them, in gcd(n, m) = |H^2(Z/n, Z/m)| classes;
- with trivial action H^1(G, A) = Hom(G_ab, A) and, by the universal
  coefficient theorem, H^2(G, A) = Ext(G_ab, A) + Hom(H_2 G, A); for Z/2
  acting on Z/k by inversion the cyclic-group formulas give
  H^1 = H^2 = Z/gcd(2, k).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from math import comb, gcd
from pathlib import Path
from typing import Any, Callable, Optional

from twotypes import cli, textio
from twotypes.cohom import h1, h2
from twotypes.fingroup import (
    cyclic, inversion_action_z2_on, klein_four, symmetric3,
)
from twotypes.nerve import nerve
from twotypes.reconstruct import (
    choose_fillers, pentagon_via_4simplex, reconstruct, roundtrip_report,
)
from twotypes.simpset import (
    coskeleton, is_coskeletal_at, is_k_minimal, is_kan, make_sset,
    simplicial_maps,
)
from twotypes.twogpd import two_groupoid_isomorphic, xmod_to_2group
from twotypes.weakmaps import (
    enumerate_transformations, enumerate_xmod_weak_maps, hom_full,
    pi0_hom_vs_homotopy_classes, to_strict,
)
from twotypes.xmod import xmod_b2g, xmod_bg

from relabel import Relabeller, corpus

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


def expect(value):
    """A check against one expected value."""
    def check(got):
        return None if got == value else f"got {got!r}, expected {value!r}"
    return check


# -- nerve_audit -------------------------------------------------------------

class NerveAudit:
    """Every corpus entry except id_s3 through the full sSet2 audit and the
    reconstruction round trip."""

    # id_s3 has about 6^10 level-4 tuples and no size guard stops it
    SKIP = ("id_s3",)

    def build(self, seed):
        return seed, corpus(Relabeller(seed), skip=self.SKIP)

    def ops(self, inputs):
        seed, entries = inputs
        return [Op(name, self._audit(xm, seed), expect(self._expected(xm)))
                for name, xm in entries]

    @staticmethod
    def _expected(xm):
        g1, g2 = xm.g1.order, xm.g2.order
        counts = tuple(g1 ** n * g2 ** comb(n, 2) for n in range(5))
        return counts, (True,) * 4, True, True, True, True, True

    @staticmethod
    def _audit(xm, seed):
        def run():
            g = xmod_to_2group(xm)
            x = nerve(g)
            kan = tuple(is_kan(x, (d,)) for d in (1, 2, 3, 4))
            cosk = is_coskeletal_at(x, 3)
            minimal = is_k_minimal(x, 2)
            fc = choose_fillers(x, f"seeded:{seed}")
            w = reconstruct(x, fc)
            pent = pentagon_via_4simplex(x, fc)
            rt = roundtrip_report(x, fc, w).ok
            # only least-index fillers give identity associators
            strict = to_strict(reconstruct(x, choose_fillers(x, "first")))
            iso = two_groupoid_isomorphic(strict, g) is not None
            return x.counts, kan, cosk, minimal, pent, rt, iso
        return run


# -- map_classes -------------------------------------------------------------

class MapClasses:
    """Maps B(Z/n) -> B^2(Z/m) three ways: simplicial maps of nerves, weak
    maps of crossed modules up to transformation, and the bridge between
    transformations and pointed homotopies."""

    SIZES = (2, 3, 4)
    # the bridge alone takes about 17 s on (4, 3) and 175 s on (4, 4)
    NO_BRIDGE = ((4, 3), (4, 4))

    def build(self, seed):
        rl = Relabeller(seed)
        bg = {n: xmod_bg(rl.group(cyclic(n))) for n in self.SIZES}
        b2g = {m: xmod_b2g(rl.group(cyclic(m))) for m in self.SIZES}
        return ({n: (xm, xmod_to_2group(xm)) for n, xm in bg.items()},
                {m: (xm, xmod_to_2group(xm)) for m, xm in b2g.items()})

    def ops(self, inputs):
        bg, b2g = inputs
        out = []
        for n, m in itertools.product(self.SIZES, repeat=2):
            bridge = (n, m) not in self.NO_BRIDGE
            out.append(Op(f"{n},{m}", self._step(bg[n], b2g[m], bridge),
                          expect((m ** (n - 1), m ** (n - 1), gcd(n, m),
                                  True if bridge else None))))
        # objects: the 27 pointed weak functors; cells1: one transformation
        # for each ordered pair, as Hom(Z/4, Z/3) = 0 and H^2(Z/4, Z/3) = 0;
        # cells2: only identity modifications between pointed ones
        out.append(Op("hom 4,3", lambda: self._hom(bg[4][1], b2g[3][1]),
                      expect((27, 729, 729))))
        return out

    @staticmethod
    def _step(dom, cod, bridge):
        (h, bh), (g, bg) = dom, cod

        def run():
            maps = simplicial_maps(nerve(bh), nerve(bg), pointed=True)
            weak = enumerate_xmod_weak_maps(h, g)
            reps = []
            for w in weak:
                if not any(enumerate_transformations(r, w, pointed_only=True)
                           for r in reps):
                    reps.append(w)
            agree = pi0_hom_vs_homotopy_classes(bh, bg) if bridge else None
            return len(maps), len(weak), len(reps), agree
        return run

    @staticmethod
    def _hom(dom, cod):
        hom = hom_full(dom, cod, pointed_only=True)
        return hom.n_objects, hom.n1, hom.n2


# -- cohomology --------------------------------------------------------------

def abelian_orders(cyclic_orders) -> list[int]:
    """Sorted element orders of the sum of cyclic groups Z/d; they determine
    a finite abelian group up to isomorphism."""
    out = []
    for elt in itertools.product(*(range(d) for d in cyclic_orders)):
        order = 1
        for a, d in zip(elt, cyclic_orders):
            k = d // gcd(a, d)
            order = order * k // gcd(order, k)
        out.append(order)
    return sorted(out)


def hom_cyclic(src, dst) -> list[int]:
    """Hom and Ext between sums of cyclic groups: Z/gcd for each pair."""
    return [gcd(a, b) for a in src for b in dst if gcd(a, b) > 1]


class Cohomology:
    """H^1 and H^2 by brute force for small groups and coefficients; the
    seed relabels the coefficients only (see relabel.py)."""

    # (label, Gamma, A, inversion action?, Gamma_ab, H_2(Gamma), A), the
    # last three as orders of cyclic summands
    CASES = (
        ("z4/z4", lambda: cyclic(4), lambda: cyclic(4), False,
         (4,), (), (4,)),
        ("v4/v4", klein_four, klein_four, False, (2, 2), (2,), (2, 2)),
        ("v4/z4", klein_four, lambda: cyclic(4), False, (2, 2), (2,), (4,)),
        ("z4/v4", lambda: cyclic(4), klein_four, False, (4,), (), (2, 2)),
        ("s3/z2", symmetric3, lambda: cyclic(2), False, (2,), (), (2,)),
        ("s3/z3", symmetric3, lambda: cyclic(3), False, (2,), (), (3,)),
        ("z6/z3", lambda: cyclic(6), lambda: cyclic(3), False,
         (6,), (), (3,)),
        ("z5/z5", lambda: cyclic(5), lambda: cyclic(5), False,
         (5,), (), (5,)),
        ("z2-inv/z3", None, lambda: cyclic(3), True, None, None, (3,)),
        ("z2-inv/z4", None, lambda: cyclic(4), True, None, None, (4,)),
        # H^2 raises OverflowError here: the known int64 cochain packing
        ("z6/z4", lambda: cyclic(6), lambda: cyclic(4), False,
         (6,), (), (4,)),
    )

    def build(self, seed):
        rl = Relabeller(seed)
        out = []
        for label, gamma, coeff, twisted, ab, schur, a in self.CASES:
            if twisted:
                act = inversion_action_z2_on(coeff())
                g = act.actor
                space, act = rl.action(act)
                k = a[0]
                want = ([gcd(2, k)], [gcd(2, k)])
            else:
                g, space, act = gamma(), rl.group(coeff()), None
                want = (hom_cyclic(ab, a),
                        hom_cyclic(ab, a) + hom_cyclic(schur, a))
            out.append((label, g, space, act,
                        tuple(abelian_orders(w) for w in want)))
        return out

    def ops(self, inputs):
        return [Op(label, self._case(g, a, act), self._check(want))
                for label, g, a, act, want in inputs]

    @staticmethod
    def _case(g, a, act):
        return lambda: (h1(g, a, act), h2(g, a, act))

    @staticmethod
    def _check(want):
        def check(groups):
            got = tuple(sorted(grp.element_order(x) for x in range(grp.order))
                        for grp in groups)
            return None if got == want else f"element orders {got}, " \
                                            f"expected {want}"
        return check


# -- cli ---------------------------------------------------------------------

def _sphere_2skeleton():
    """One vertex, one edge, and a non-degenerate 2-simplex on it."""
    return make_sset(2, [1, 1, 2],
                     [(), [(0, 0)], [(0, 0, 0), (0, 0, 0)]],
                     [[(0,)], [(0, 0)]])


def write_cli_inputs(rl: Relabeller, directory: Path) -> None:
    """The command inputs, relabelled and written with textio's
    formatters."""
    def write(name, text):
        (directory / name).write_text(text, encoding="utf-8")

    # z2 and v4 are the groups Gamma of the cohomology commands, so they
    # keep their labelling (see relabel.py); z4 is only a coefficient group
    write("z2.group", textio.format_group("z2", cyclic(2)))
    write("v4.group", textio.format_group("v4", klein_four()))
    write("z4.group", textio.format_group("z4", rl.group(cyclic(4))))
    xmods = {"bz2": xmod_bg(rl.group(cyclic(2))),
             "bz3": xmod_bg(rl.group(cyclic(3))),
             "bs3": xmod_bg(rl.group(symmetric3())),
             "b2z2": xmod_b2g(rl.group(cyclic(2)))}
    for name, xm in xmods.items():
        write(f"{name}.xmod", textio.format_xmod(name, xm))
    write("bz2.2gpd",
          textio.format_2gpd("bz2", xmod_to_2group(xmods["bz2"])))
    ssets = {"nbz2": nerve(xmod_to_2group(xmods["bz2"])),
             "nbz3": nerve(xmod_to_2group(xmods["bz3"])),
             "nb2z2": nerve(xmod_to_2group(xmods["b2z2"])),
             "sphere": coskeleton(_sphere_2skeleton(), 2, trunc=4)}
    for name, x in ssets.items():
        write(f"{name}.sset", textio.format_sset(name, rl.sset(x)))
    # Z/2 acting on Z/4 by inversion; the action file repeats both groups
    inv = inversion_action_z2_on(cyclic(4))
    z2 = inv.actor
    z4, inv = rl.action(inv)
    write("inv_z2.group", textio.format_group("z2", z2))
    write("inv_z4.group", textio.format_group("z4", z4))
    write("inv.action", "\n".join([
        textio.format_group("z2", z2), textio.format_group("z4", z4),
        textio.format_action("inv", "z2", "z4", inv)]))
    # a group block whose table stops one row short
    write("broken.group", "group z3 order 3\n0 1 2\n1 2 0\n")


def cli_commands(seed):
    """(argv, exit code, stdout) for each command; file names are relative
    to the input directory."""
    yes = "kan: yes; coskeletal3: yes"
    bz3 = ["group bz3_g2: ok", "group bz3_g1: ok", "hom bz3_phi: ok",
           "action bz3_act: ok", "xmod bz3: ok"]
    return [
        (["check", "z2.group", "bz3.xmod"], 0,
         "\n".join(["group z2: ok"] + bz3)),
        (["invariants", "b2z2.xmod"], 0, "pi1: trivial; pi2: Z/2-order-2"),
        (["invariants", "bs3.xmod"], 0, "pi1: group-order-6; pi2: trivial"),
        (["invariants", "bz2.2gpd"], 0, "pi1: Z/2-order-2; pi2: trivial"),
        (["nerve", "bz3.xmod"], 0, "levels: 1 3 9 27 81"),
        (["nerve", "b2z2.xmod", "--trunc", "3"], 0, "levels: 1 1 2 8"),
        (["sset2", "sphere.sset"], 1,
         f"{yes}; minimal2: no; sset2: no"),
        (["sset2", "nbz2.sset"], 0, f"{yes}; minimal2: yes; sset2: yes"),
        (["reconstruct", "nbz2.sset", "--seed", str(seed)], 0,
         "objects: 1; cells1: 2; cells2: 2; pentagon: ok"),
        (["roundtrip", "bz2.2gpd", "--seed", str(seed)], 0,
         "nerve∘reconstruct: isomorphic; pentagon: ok"),
        (["roundtrip", "bz3.xmod"], 0,
         "nerve∘reconstruct: isomorphic; pentagon: ok"),
        (["enumerate-maps", "nbz3.sset", "nb2z2.sset", "--pointed"], 0,
         "maps: 4"),
        (["hom", "bz2.xmod", "b2z2.xmod", "--pointed"], 0,
         "objects: 2; cells1: 4; cells2: 4"),
        (["pi0hom", "bz2.xmod", "b2z2.xmod", "--pointed"], 0, "classes: 2"),
        (["pi0hom", "bz3.xmod", "b2z2.xmod", "--pointed"], 0, "classes: 1"),
        (["cohomology", "--gamma", "z2.group", "--coeff", "z2.group"], 0,
         "h1: Z/2-order-2; h2: Z/2-order-2"),
        (["cohomology", "--gamma", "v4.group", "--coeff", "z4.group"], 0,
         "h1: V4-order-4; h2: group-order-8"),
        (["cohomology", "--gamma", "inv_z2.group", "--coeff", "inv_z4.group",
          "--action", "inv.action"], 0, "h1: Z/2-order-2; h2: Z/2-order-2"),
        (["check", "broken.group"], 2, ""),
        (["enumerate-maps", "nbz3.sset", "nb2z2.sset", "--cap", "1"], 3, ""),
    ]


# Runs `python -m twotypes.cli ARGS` and, at exit, writes the command's own
# peak resident memory to stderr.  A child's ru_maxrss would not do: it also
# holds the peak of the process that started it.
CLI_LAUNCHER = """\
import atexit, runpy, sys
def _peak():
    with open('/proc/self/status') as status:
        kb = [line.split()[1] for line in status if line.startswith('VmHWM:')]
    print('VmHWM', *kb, file=sys.stderr)
atexit.register(_peak)
runpy.run_module('twotypes.cli', run_name='__main__', alter_sys=True)
"""


class Cli:
    """`twotypes` commands one after another, each in a fresh interpreter,
    on small files written for the seed."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.command_peak_kb = 0

    def build(self, seed):
        directory = Path(tempfile.mkdtemp(prefix="cli-", dir=self.workdir))
        write_cli_inputs(Relabeller(seed), directory)
        return directory, cli_commands(seed)

    def ops(self, inputs):
        directory, commands = inputs
        return [self._op(directory, argv, code, out, self._subprocess)
                for argv, code, out in commands]

    def trace_ops(self, inputs):
        """The same commands through `cli.main` in this process, where the
        tracer can see them."""
        directory, commands = inputs
        return [self._op(directory, argv, code, out, self._in_process)
                for argv, code, out in commands]

    @staticmethod
    def _op(directory, argv, code, out, runner):
        paths = [str(directory / a) if (directory / a).is_file() else a
                 for a in argv]
        want = (code, out + "\n" if out else "")
        return Op(" ".join(argv), lambda: runner(paths), expect(want))

    def _subprocess(self, argv):
        done = subprocess.run(
            [sys.executable, "-c", CLI_LAUNCHER, *argv],
            capture_output=True, encoding="utf-8", env=library_env(),
            timeout=120)
        lines = done.stderr.splitlines()
        if lines and lines[-1].startswith("VmHWM "):
            peak_kb = int(lines.pop().split()[1])
            self.command_peak_kb = max(self.command_peak_kb, peak_kb)
        if "Traceback" in done.stderr:
            raise RuntimeError(lines[-1])
        return done.returncode, done.stdout

    @staticmethod
    def _in_process(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()


def library_env() -> dict:
    """Environment for a child interpreter that imports twotypes from this
    checkout."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    env["PYTHONIOENCODING"] = "utf-8"
    return env
