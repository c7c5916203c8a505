"""Command line interface over the text formats.

Exit codes: 0 success, 1 validation failure, 2 parse or usage error,
3 search cap exceeded.  Reports are deterministic: the same inputs and
flags always produce byte-identical output.  Each command imports the
modules it runs, so that it loads only what its input kind needs.
"""

from __future__ import annotations

import argparse
import sys

from .search import DEFAULT_CAP, Budget, SizeCapExceeded, classes
from .textio import (
    ParseError, ValidationError, Workspace, describe_group, parse_file,
)
from .xmod import (
    ANotAbelian, FillingFailure, Violation, check_pointed, pi1 as xmod_pi1,
    pi2 as xmod_pi2,
)


def _load(paths) -> Workspace:
    ws = Workspace()
    for p in paths:
        parse_file(p, ws)
    return ws


def _subject(path: str, kinds) -> tuple:
    """(kind, name, object) of the last block in the file, which must be
    one of the given kinds."""
    ws = _load([path])
    if not ws.order:
        raise ParseError(1, f"a block in {path}")
    kind, name, obj = ws.subject()
    if kind not in kinds:
        raise ParseError(ws.lines[name], f"file {path} ending in one of "
                                         f"{kinds}, got {kind}")
    return kind, name, obj


def _as_2gpd(path: str, cap: int | Budget = DEFAULT_CAP):
    kind, _, obj = _subject(path, ("2gpd", "xmod"))
    if kind == "xmod":
        from .twogpd import xmod_to_2group
        return xmod_to_2group(obj, cap)
    return obj


def _nerve(kind, obj, budget: Budget):
    """The nerve; a crossed module's level 3 is admitted before its 2-group."""
    from . import nerve
    if kind == "xmod":
        from .twogpd import xmod_to_2group
        budget.admit(nerve.xmod_level3_count(obj), "the simplices of level 3")
        obj = xmod_to_2group(obj, budget)
    return nerve.nerve(obj, cap=budget)


def _strategy(text: str) -> str:
    """A filler strategy: "first" or "seeded:<int>"."""
    if text == "first":
        return text
    kind, _, seed = text.partition(":")
    try:
        if kind == "seeded":
            int(seed)
            return text
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected first or seeded:<int>, got {text!r}")


def _natural(text: str) -> int:
    """A truncation level or a cap: an integer >= 0."""
    try:
        level = int(text)
    except ValueError:
        level = -1
    if level < 0:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 0, got {text!r}")
    return level


def _fillers(x, args):
    from . import reconstruct
    strategy = args.strategy
    if args.seed is not None:
        strategy = f"seeded:{args.seed}"
    return reconstruct.choose_fillers(x, strategy=strategy)


def cmd_check(args) -> int:
    ws = _load(args.files)
    for name in ws.order:
        kind, _ = ws.objects[name]
        print(f"{kind} {name}: ok")
    return 0


def cmd_invariants(args) -> int:
    kind, _, obj = _subject(args.file, ("xmod", "2gpd"))
    if kind == "xmod":
        p1, p2 = xmod_pi1(obj), xmod_pi2(obj)
    else:
        from .twogpd import pi1_at, pi2_at
        check_pointed(obj)
        p1, p2 = pi1_at(obj, obj.basepoint), pi2_at(obj, obj.basepoint)
    print(f"pi1: {describe_group(p1)}; pi2: {describe_group(p2)}")
    return 0


def cmd_nerve(args) -> int:
    kind, _, obj = _subject(args.file, ("2gpd", "xmod"))
    x = _nerve(kind, obj, Budget(args.cap, "nerve"))
    top = min(args.trunc, x.trunc) if args.trunc is not None else x.trunc
    print("levels: " + " ".join(str(c) for c in x.counts[:top + 1]))
    return 0


def cmd_sset2(args) -> int:
    from .simpset import in_sset2
    _, _, x = _subject(args.file, ("sset",))
    rep = in_sset2(x)

    def yn(b):
        return "yes" if b else "no"

    print(f"kan: {yn(rep.kan)}; coskeletal3: {yn(rep.coskeletal3)}; "
          f"minimal2: {yn(rep.minimal2)}; sset2: {yn(rep.ok)}")
    return 0 if rep.ok else 1


def cmd_reconstruct(args) -> int:
    from . import reconstruct
    _, _, x = _subject(args.file, ("sset",))
    fillers = _fillers(x, args)
    g = reconstruct.reconstruct(x, fillers)
    pent = reconstruct.pentagon_via_4simplex(x, fillers)
    print(f"objects: {g.n_objects}; cells1: {g.n1}; cells2: {g.n2}; "
          f"pentagon: {'ok' if pent else 'fail'}")
    return 0 if pent else 1


def cmd_enumerate_maps(args) -> int:
    from .simpset import simplicial_maps
    _, _, x = _subject(args.dom, ("sset",))
    _, _, y = _subject(args.cod, ("sset",))
    maps = simplicial_maps(x, y, pointed=args.pointed, cap=args.cap)
    print(f"maps: {len(maps)}")
    return 0


def cmd_hom(args) -> int:
    from . import weakmaps
    budget = Budget(args.cap, "hom")
    d, c = _as_2gpd(args.dom, budget), _as_2gpd(args.cod, budget)
    h = weakmaps.hom_full(d, c, pointed_only=args.pointed, cap=budget)
    print(f"objects: {h.n_objects}; cells1: {h.n1}; cells2: {h.n2}")
    return 0


def cmd_pi0hom(args) -> int:
    from . import weakmaps
    _, _, h = _subject(args.dom, ("xmod",))
    _, _, g = _subject(args.cod, ("xmod",))
    budget = Budget(args.cap, "pi0hom weak maps")
    maps = weakmaps.enumerate_xmod_weak_maps(h, g, cap=budget)
    budget.stage = "pi0hom transformations"
    found = classes(len(maps), lambda i, j: bool(
        weakmaps.enumerate_transformations(maps[i], maps[j],
                                           pointed_only=args.pointed,
                                           cap=budget)))
    print(f"classes: {len(found)}")
    return 0


def cmd_cohomology(args) -> int:
    from . import cohom
    _, _, gamma = _subject(args.gamma, ("group",))
    _, _, a = _subject(args.coeff, ("group",))
    action = None
    if args.action is not None:
        _, _, action = _subject(args.action, ("action",))
    budget = Budget(args.cap, "cohomology")
    one = cohom.h1(gamma, a, action, cap=budget)
    two = cohom.h2(gamma, a, action, cap=budget)
    print(f"h1: {describe_group(one)}; h2: {describe_group(two)}")
    return 0


def cmd_roundtrip(args) -> int:
    from . import reconstruct
    kind, _, obj = _subject(args.file, ("2gpd", "xmod", "sset"))
    budget = Budget(args.cap, "roundtrip")
    x = obj if kind == "sset" else _nerve(kind, obj, budget)
    fillers = _fillers(x, args)
    rep = reconstruct.roundtrip_report(x, fillers, cap=budget)
    pent = reconstruct.pentagon_via_4simplex(x, fillers)
    iso = "isomorphic" if rep.ok else "not-isomorphic"
    print(f"nerve∘reconstruct: {iso}; pentagon: {'ok' if pent else 'fail'}")
    return 0 if rep.ok and pent else 1


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="twotypes",
        description="finite models of homotopy 2-types: checks, nerves, "
                    "reconstruction, map enumeration, cohomology")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("check", cmd_check, help="load and validate every object")
    sp.add_argument("files", nargs="+")

    sp = add("invariants", cmd_invariants,
             help="pi1 and pi2 of a crossed module or pointed 2-groupoid")
    sp.add_argument("file")

    sp = add("nerve", cmd_nerve, help="simplex counts of the nerve")
    sp.add_argument("file")
    sp.add_argument("--trunc", type=_natural, default=None)
    sp.add_argument("--cap", type=_natural, default=DEFAULT_CAP)

    sp = add("sset2", cmd_sset2,
             help="test the Kan, coskeletal and minimality conditions")
    sp.add_argument("file")

    for name, fn in (("reconstruct", cmd_reconstruct),
                     ("roundtrip", cmd_roundtrip)):
        sp = add(name, fn,
                 help="rebuild a weak 2-groupoid from fillers" if
                      name == "reconstruct" else
                      "compare a complex with the nerve of its "
                      "reconstruction")
        sp.add_argument("file")
        sp.add_argument("--strategy", type=_strategy, default="first")
        sp.add_argument("--seed", type=int, default=None)
        if name == "roundtrip":
            sp.add_argument("--cap", type=_natural, default=DEFAULT_CAP)

    sp = add("enumerate-maps", cmd_enumerate_maps,
             help="count simplicial maps between two complexes")
    sp.add_argument("dom")
    sp.add_argument("cod")
    sp.add_argument("--pointed", action="store_true")
    sp.add_argument("--cap", type=_natural, default=DEFAULT_CAP)

    sp = add("hom", cmd_hom,
             help="cell counts of the weak functor 2-groupoid")
    sp.add_argument("dom")
    sp.add_argument("cod")
    sp.add_argument("--pointed", action="store_true")
    sp.add_argument("--cap", type=_natural, default=DEFAULT_CAP)

    sp = add("pi0hom", cmd_pi0hom,
             help="transformation classes of weak maps of crossed modules")
    sp.add_argument("dom")
    sp.add_argument("cod")
    sp.add_argument("--pointed", action="store_true")
    sp.add_argument("--cap", type=_natural, default=DEFAULT_CAP)

    sp = add("cohomology", cmd_cohomology,
             help="first and second cohomology of a group with abelian "
                  "coefficients")
    sp.add_argument("--gamma", required=True)
    sp.add_argument("--coeff", required=True)
    sp.add_argument("--action", default=None)
    sp.add_argument("--cap", type=_natural, default=DEFAULT_CAP)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"parse error: no such file: {exc.filename}", file=sys.stderr)
        return 2
    except IsADirectoryError as exc:
        print(f"parse error: a directory, not a file: {exc.filename}",
              file=sys.stderr)
        return 2
    except (ValidationError, Violation, FillingFailure, ANotAbelian) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except SizeCapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
