"""Plain-text block formats and the named workspace they load into.

A file is a sequence of blocks.  Each block starts with a header line
naming its kind and object, followed by the rows the kind prescribes:

    group <name> order <n>            n rows of n indices
    hom <name> dom <g> cod <g>        one row of |dom| indices
    action <name> actor <g> space <g> |space| rows of |actor| indices
    xmod <name> g2 <g> g1 <g> phi <h> action <a>
    2gpd <name> objects <k> cells1 <n1> cells2 <n2> [basepoint <i>]
        src1/tgt1 rows (n1), id1 row (k), comp1 matrix (n1 x n1),
        src2/tgt2 rows (n2), id2 row (n1), vcomp and hcomp2 matrices
    sset <name> trunc <t> counts <c0 .. ct> [basepoint <i>]
        faces <n> sections for n = 1..t, degens <n> sections for n < t

Blank lines and lines starting with # are ignored.  Every object is
validated on load; -1 marks an undefined composite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .fingroup import (
    ImageNotNormal, NotAGroup, NotAHom, NotAnAction, make_action, make_group,
    make_hom,
)
from .xmod import Violation, check_crossed_module


class ParseError(ValueError):
    def __init__(self, line: int, expected: str):
        self.line = line
        self.expected = expected
        super().__init__(f"line {line}: expected {expected}")


class ValidationError(ValueError):
    def __init__(self, name: str, cause: Exception):
        self.name = name
        self.cause = cause
        super().__init__(f"{name}: {cause}")


@dataclass
class Workspace:
    objects: dict = field(default_factory=dict)   # name -> (kind, object)
    order: list = field(default_factory=list)     # names in load order
    lines: dict = field(default_factory=dict)     # name -> header line

    def add(self, name: str, kind: str, obj, line: int) -> None:
        if name in self.objects:
            raise ParseError(line, f"fresh name (duplicate {name!r})")
        self.objects[name] = (kind, obj)
        self.order.append(name)
        self.lines[name] = line

    def get(self, name: str, kind: str, line: int):
        if name not in self.objects or self.objects[name][0] != kind:
            raise ParseError(line, f"known {kind} name, got {name!r}")
        return self.objects[name][1]

    def subject(self):
        """The last object defined, with its kind and name."""
        name = self.order[-1]
        kind, obj = self.objects[name]
        return kind, name, obj


class _Cursor:
    def __init__(self, text: str):
        self.rows = []
        for i, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                self.rows.append((i, line.split()))
        self.at = 0

    def done(self) -> bool:
        return self.at >= len(self.rows)

    def take(self, expected: str):
        if self.done():
            raise ParseError(self.rows[-1][0] + 1 if self.rows else 1,
                             expected)
        row = self.rows[self.at]
        self.at += 1
        return row


def _ints(tokens, count, line, what):
    if len(tokens) != count:
        raise ParseError(line, f"{count} integers for {what}")
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise ParseError(line, f"integers for {what}")


def _int(token, line, what):
    try:
        return int(token)
    except ValueError:
        raise ParseError(line, f"integer for {what}")


def _keyed(tokens, line, keys, optional=()):
    """Header tail of the form key value key value ..."""
    if len(tokens) % 2 != 0:
        raise ParseError(line, "key value pairs")
    seen = {}
    for k, v in zip(tokens[::2], tokens[1::2]):
        if k in seen or (k not in keys and k not in optional):
            raise ParseError(line, f"header keys {keys}")
        seen[k] = v
    for k in keys:
        if k not in seen:
            raise ParseError(line, f"header key {k}")
    return seen


def _matrix(cur, rows, cols, what):
    out = []
    for _ in range(rows):
        line, toks = cur.take(f"row of {what}")
        out.append(_ints(toks, cols, line, what))
    return out


_VALIDATION_ERRORS = (Violation, NotAGroup, NotAHom, NotAnAction,
                     ImageNotNormal)


def parse_text(text: str, ws: Workspace | None = None) -> Workspace:
    ws = ws if ws is not None else Workspace()
    cur = _Cursor(text)
    while not cur.done():
        line, toks = cur.take("block header")
        kind = toks[0]
        if len(toks) < 2:
            raise ParseError(line, "block header with a name")
        name = toks[1]
        try:
            if kind == "group":
                keys = _keyed(toks[2:], line, ("order",))
                n = _int(keys["order"], line, "order")
                obj = make_group(_matrix(cur, n, n, "group table"))
            elif kind == "hom":
                keys = _keyed(toks[2:], line, ("dom", "cod"))
                dom = ws.get(keys["dom"], "group", line)
                cod = ws.get(keys["cod"], "group", line)
                l2, row = cur.take("hom values")
                obj = make_hom(dom, cod,
                               _ints(row, dom.order, l2, "hom values"))
            elif kind == "action":
                keys = _keyed(toks[2:], line, ("actor", "space"))
                actor = ws.get(keys["actor"], "group", line)
                space = ws.get(keys["space"], "group", line)
                obj = make_action(actor, space,
                                  _matrix(cur, space.order, actor.order,
                                          "action table"))
            elif kind == "xmod":
                keys = _keyed(toks[2:], line, ("g2", "g1", "phi", "action"))
                obj = check_crossed_module(
                    ws.get(keys["g2"], "group", line),
                    ws.get(keys["g1"], "group", line),
                    ws.get(keys["phi"], "hom", line),
                    ws.get(keys["action"], "action", line))
            elif kind == "2gpd":
                keys = _keyed(toks[2:], line,
                              ("objects", "cells1", "cells2"), ("basepoint",))
                k = _int(keys["objects"], line, "objects")
                n1 = _int(keys["cells1"], line, "cells1")
                n2 = _int(keys["cells2"], line, "cells2")
                bp = (_int(keys["basepoint"], line, "basepoint")
                      if "basepoint" in keys else None)

                def vector(label, count):
                    l2, row = cur.take(label)
                    if row[0] != label:
                        raise ParseError(l2, label)
                    return _ints(row[1:], count, l2, label)

                def labeled_matrix(label, rows, cols):
                    l2, row = cur.take(label)
                    if row != [label]:
                        raise ParseError(l2, label)
                    return _matrix(cur, rows, cols, label)

                src1 = vector("src1", n1)
                tgt1 = vector("tgt1", n1)
                id1 = vector("id1", k)
                comp1 = labeled_matrix("comp1", n1, n1)
                src2 = vector("src2", n2)
                tgt2 = vector("tgt2", n2)
                id2 = vector("id2", n1)
                vcomp = labeled_matrix("vcomp", n2, n2)
                hcomp2 = labeled_matrix("hcomp2", n2, n2)
                from .twogpd import build_two_groupoid
                obj = build_two_groupoid(k, src1, tgt1, id1, comp1,
                                         src2, tgt2, id2, vcomp, hcomp2,
                                         basepoint=bp)
            elif kind == "sset":
                if len(toks) < 4 or toks[2] != "trunc":
                    raise ParseError(line, "sset header with trunc")
                t = _int(toks[3], line, "trunc")
                rest = toks[4:]
                if not rest or rest[0] != "counts":
                    raise ParseError(line, "counts")
                counts = _ints(rest[1:t + 2], t + 1, line, "counts")
                tail = rest[t + 2:]
                bp = None
                if tail:
                    if len(tail) != 2 or tail[0] != "basepoint":
                        raise ParseError(line, "basepoint <i>")
                    bp = _int(tail[1], line, "basepoint")
                faces = [()]
                for n in range(1, t + 1):
                    l2, row = cur.take(f"faces {n}")
                    if row != ["faces", str(n)]:
                        raise ParseError(l2, f"faces {n}")
                    faces.append(_matrix(cur, counts[n], n + 1,
                                         f"faces {n}"))
                degens = []
                for n in range(t):
                    l2, row = cur.take(f"degens {n}")
                    if row != ["degens", str(n)]:
                        raise ParseError(l2, f"degens {n}")
                    degens.append(_matrix(cur, counts[n], n + 1,
                                          f"degens {n}"))
                from .simpset import make_sset
                obj = make_sset(t, counts, faces, degens, basepoint=bp)
            else:
                raise ParseError(line, "block kind group|hom|action|xmod|"
                                       "2gpd|sset")
        except _VALIDATION_ERRORS as exc:
            raise ValidationError(name, exc)
        ws.add(name, kind, obj, line)
    return ws


def parse_file(path: str, ws: Workspace | None = None) -> Workspace:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(data.count(b"\n", 0, exc.start) + 1,
                         f"UTF-8 text in {path}") from None
    try:
        return parse_text(text, ws)
    except (ParseError, ValidationError) as exc:
        exc.args = (f"{path}: {exc}",)  # the message names the file
        raise


def _rows(table) -> str:
    return "\n".join(" ".join(str(v) for v in row) for row in table)


def format_group(name: str, g) -> str:
    return f"group {name} order {g.order}\n{_rows(g.mul)}\n"


def format_hom(name: str, dom: str, cod: str, h) -> str:
    vals = " ".join(str(v) for v in h.image)
    return f"hom {name} dom {dom} cod {cod}\n{vals}\n"


def format_action(name: str, actor: str, space: str, act) -> str:
    return f"action {name} actor {actor} space {space}\n{_rows(act.act)}\n"


def format_xmod(name: str, xm) -> str:
    """A self-contained file: both groups, the boundary hom, the action,
    and the crossed module block itself."""
    parts = [
        format_group(f"{name}_g2", xm.g2),
        format_group(f"{name}_g1", xm.g1),
        format_hom(f"{name}_phi", f"{name}_g2", f"{name}_g1", xm.phi),
        format_action(f"{name}_act", f"{name}_g1", f"{name}_g2", xm.action),
        f"xmod {name} g2 {name}_g2 g1 {name}_g1 "
        f"phi {name}_phi action {name}_act\n",
    ]
    return "\n".join(parts)


def format_2gpd(name: str, g) -> str:
    from .twogpd import dense_table
    head = (f"2gpd {name} objects {g.n_objects} "
            f"cells1 {g.n1} cells2 {g.n2}")
    if g.basepoint is not None:
        head += f" basepoint {g.basepoint}"
    vec = " ".join
    lines = [head,
             "src1 " + vec(map(str, g.src1)),
             "tgt1 " + vec(map(str, g.tgt1)),
             "id1 " + vec(map(str, g.id1)),
             "comp1", _rows(dense_table(g.comp1)),
             "src2 " + vec(map(str, g.src2)),
             "tgt2 " + vec(map(str, g.tgt2)),
             "id2 " + vec(map(str, g.id2)),
             "vcomp", _rows(dense_table(g.vcomp)),
             "hcomp2", _rows(dense_table(g.hcomp2))]
    return "\n".join(lines) + "\n"


def format_sset(name: str, x) -> str:
    head = (f"sset {name} trunc {x.trunc} counts "
            + " ".join(str(c) for c in x.counts))
    if x.basepoint is not None:
        head += f" basepoint {x.basepoint}"
    lines = [head]
    for n in range(1, x.trunc + 1):
        lines.append(f"faces {n}")
        if x.counts[n]:
            lines.append(_rows(x.faces[n]))
    for n in range(x.trunc):
        lines.append(f"degens {n}")
        if x.counts[n]:
            lines.append(_rows(x.degens[n]))
    return "\n".join(lines) + "\n"


def describe_group(g) -> str:
    """Canonical short name: trivial, Z/n, V4, or the bare order."""
    n = g.order
    if n == 1:
        return "trivial"
    if any(g.element_order(a) == n for a in range(n)):
        return f"Z/{n}-order-{n}"
    if n == 4:
        return "V4-order-4"
    return f"group-order-{n}"
