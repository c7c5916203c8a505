"""`textio.format_2gpd` writes a 2-groupoid that `parse_text` reads back
field for field: the fixtures' 2-groupoids, the 2-groups of the fixtures'
crossed modules, and a pointed hom 2-groupoid."""

import dataclasses
from pathlib import Path

import pytest

from twotypes.fingroup import cyclic
from twotypes.textio import format_2gpd, parse_file, parse_text
from twotypes.twogpd import TwoGroupoid, xmod_to_2group
from twotypes.weakmaps import hom_full
from twotypes.xmod import xmod_b2g, xmod_bg

FIX = Path(__file__).resolve().parent.parent / "fixtures"


def subject(path, kind):
    got, name, obj = parse_file(str(path)).subject()
    assert got == kind
    return name, obj


def pointed_hom():
    d = xmod_to_2group(xmod_bg(cyclic(2)))
    c = xmod_to_2group(xmod_b2g(cyclic(2)))
    return "hom_bz2_b2z2", hom_full(d, c, pointed_only=True)


CASES = {
    **{p.name: (lambda p=p: subject(p, "2gpd"))
       for p in sorted(FIX.glob("*.2gpd"))},
    **{p.name: (lambda p=p: (p.stem, xmod_to_2group(subject(p, "xmod")[1])))
       for p in sorted(FIX.glob("*.xmod"))},
    "pointed hom": pointed_hom,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_round_trip(case):
    name, g = CASES[case]()
    kind, got_name, back = parse_text(format_2gpd(name, g)).subject()
    assert (kind, got_name) == ("2gpd", name)
    assert isinstance(back, TwoGroupoid)
    for field in dataclasses.fields(TwoGroupoid):
        assert getattr(back, field.name) == getattr(g, field.name), field.name
    if case == "pointed hom":
        assert g.basepoint is not None and g.n1 > 1
