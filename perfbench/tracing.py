"""Spans around the library's public functions, and the per-layer metrics
derived from them.

`Tracer.install` replaces each listed function in every `twotypes` module
namespace that binds it (so `cohom.cokernel_of_image` is wrapped as well as
`fingroup.cokernel_of_image`), which also catches calls made inside the
library.  `Tracer.remove` puts the originals back.  Spans stay in memory as
[name, start, end, parent index].  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


# Counters taken from a wrapped call: fn(tracer, args, kwargs, result).

def _hom_pairs(t, args, kwargs, result):
    dom = _arg(args, kwargs, 0, "dom")
    t.counts["fingroup.make_hom_pairs"] += dom.order ** 2


def _coskeleton_sizes(t, args, kwargs, result):
    k = _arg(args, kwargs, 1, "k")
    t.counts["simpset.tuples"] += sum(result.counts[k + 1:])
    if result.trunc >= 4:
        t.counts["simpset.level4_simplices"] += result.counts[4]


def _search(t, args, kwargs, result):
    t.counts["simpset.search_calls"] += 1
    if kwargs.get("first_only"):
        t.counts["simpset.search_exists_calls"] += 1
        t.counts["simpset.search_exists_hits"] += bool(result)


def _nerve_calls(t, args, kwargs, result):
    g = _arg(args, kwargs, 0, "g")
    t.counts["nerve.calls"] += 1
    if t.seen.get(id(g)) is g:
        t.counts["nerve.repeats"] += 1
    t.seen[id(g)] = g


def _count(key):
    def hook(t, args, kwargs, result):
        t.counts[key] += 1
    return hook


def _cocycles(t, args, kwargs, result):
    t.counts["cohom.cocycles"] += len(result)


def _cochains(t, args, kwargs, result):
    gamma, a = _arg(args, kwargs, 0, "gamma"), _arg(args, kwargs, 1, "a")
    t.counts["cohom.cochains"] += a.order ** gamma.order


def _parsed_bytes(t, args, kwargs, result):
    t.counts["textio.bytes"] += len(_arg(args, kwargs, 0, "text")
                                    .encode("utf-8"))


# (module, function, span name, counter hook); is_kan is split per dimension
WRAPPED = (
    ("fingroup", "make_hom", "fingroup.make_hom", _hom_pairs),
    ("fingroup", "cokernel_of_image", "fingroup.cokernel", None),
    ("xmod", "check_crossed_module", "xmod.check", None),
    ("twogpd", "xmod_to_2group", "twogpd.to_2group", None),
    ("twogpd", "two_groupoid_isomorphic", "twogpd.iso", None),
    ("twogpd", "build_two_groupoid", "twogpd.build", None),
    ("simpset", "coskeleton", "simpset.coskeleton", _coskeleton_sizes),
    ("simpset", "is_coskeletal_at", "simpset.coskeletal", None),
    ("simpset", "is_k_minimal", "simpset.minimal", None),
    ("simpset", "enumerate_maps_3trunc", "simpset.search", _search),
    ("simpset", "product", "simpset.product", None),
    ("simpset", "make_sset", "simpset.make_sset", None),
    ("nerve", "nerve", "nerve.nerve", _nerve_calls),
    ("nerve", "nerve_of_weak_functor", "nerve.functor", None),
    ("reconstruct", "choose_fillers", "reconstruct.fillers", None),
    ("reconstruct", "reconstruct", "reconstruct.reconstruct", None),
    ("reconstruct", "pentagon_via_4simplex", "reconstruct.pentagon", None),
    ("reconstruct", "roundtrip_report", "reconstruct.roundtrip", None),
    ("weakmaps", "enumerate_weak_functors", "weakmaps.functors", None),
    ("weakmaps", "enumerate_xmod_weak_maps", "weakmaps.xmod_maps", None),
    ("weakmaps", "enumerate_transformations", "weakmaps.trans",
     _count("weakmaps.trans_calls")),
    ("weakmaps", "transformation_to_homotopy", "weakmaps.to_homotopy", None),
    ("weakmaps", "pi0_hom_vs_homotopy_classes", "weakmaps.bridge", None),
    ("weakmaps", "hom_full", "weakmaps.hom", None),
    ("cohom", "two_cocycles", "cohom.cocycles", _cocycles),
    ("cohom", "coboundary_hom", "cohom.coboundary", _cochains),
    ("cohom", "h1", "cohom.h1", None),
    ("cohom", "h2", "cohom.h2", None),
    ("textio", "parse_text", "textio.parse", _parsed_bytes),
    ("cli", "main", "cli.main", None),
)
KAN_DIMS = (1, 2, 3, 4)


def _self(span):
    return lambda t: t.self_s[span]


def _counter(key):
    return lambda t: t.counts[key]


def _ratio(num, den):
    return lambda t: t.counts[num] / t.counts[den] if t.counts[den] else 0.0


# (metric, unit, better, value from a finished Tracer); every *_s metric is
# the summed self time of its spans, except cli.inproc_s, the whole
# in-process command time
LAYER_METRICS = (
    ("fingroup.make_hom_s", "s", "lower", _self("fingroup.make_hom")),
    ("fingroup.make_hom_pairs", "count", "lower",
     _counter("fingroup.make_hom_pairs")),
    ("fingroup.cokernel_s", "s", "lower", _self("fingroup.cokernel")),
    ("xmod.check_s", "s", "lower", _self("xmod.check")),
    ("twogpd.to_2group_s", "s", "lower", _self("twogpd.to_2group")),
    ("twogpd.iso_s", "s", "lower", _self("twogpd.iso")),
    ("twogpd.build_s", "s", "lower", _self("twogpd.build")),
    ("simpset.coskeleton_s", "s", "lower", _self("simpset.coskeleton")),
    ("simpset.tuples", "count", "lower", _counter("simpset.tuples")),
    *((f"simpset.kan{d}_s", "s", "lower", _self(f"simpset.kan{d}"))
      for d in KAN_DIMS),
    ("simpset.coskeletal_s", "s", "lower", _self("simpset.coskeletal")),
    ("simpset.minimal_s", "s", "lower", _self("simpset.minimal")),
    ("simpset.level4_simplices", "count", "lower",
     _counter("simpset.level4_simplices")),
    ("simpset.search_s", "s", "lower", _self("simpset.search")),
    ("simpset.search_calls", "count", "lower",
     _counter("simpset.search_calls")),
    ("simpset.search_exists_calls", "count", "lower",
     _counter("simpset.search_exists_calls")),
    ("simpset.search_exists_hit_ratio", "ratio", "higher",
     _ratio("simpset.search_exists_hits", "simpset.search_exists_calls")),
    ("simpset.product_s", "s", "lower", _self("simpset.product")),
    ("simpset.make_sset_s", "s", "lower", _self("simpset.make_sset")),
    ("nerve.self_s", "s", "lower", _self("nerve.nerve")),
    ("nerve.calls", "count", "lower", _counter("nerve.calls")),
    ("nerve.repeat_share", "ratio", "higher",
     _ratio("nerve.repeats", "nerve.calls")),
    ("nerve.functor_s", "s", "lower", _self("nerve.functor")),
    ("reconstruct.fillers_s", "s", "lower", _self("reconstruct.fillers")),
    ("reconstruct.reconstruct_s", "s", "lower",
     _self("reconstruct.reconstruct")),
    ("reconstruct.pentagon_s", "s", "lower", _self("reconstruct.pentagon")),
    ("reconstruct.roundtrip_s", "s", "lower",
     _self("reconstruct.roundtrip")),
    ("weakmaps.functors_s", "s", "lower", _self("weakmaps.functors")),
    ("weakmaps.xmod_maps_s", "s", "lower", _self("weakmaps.xmod_maps")),
    ("weakmaps.trans_s", "s", "lower", _self("weakmaps.trans")),
    ("weakmaps.trans_calls", "count", "lower",
     _counter("weakmaps.trans_calls")),
    ("weakmaps.to_homotopy_s", "s", "lower", _self("weakmaps.to_homotopy")),
    ("weakmaps.bridge_self_s", "s", "lower", _self("weakmaps.bridge")),
    ("weakmaps.hom_s", "s", "lower", _self("weakmaps.hom")),
    ("cohom.cocycles_s", "s", "lower", _self("cohom.cocycles")),
    ("cohom.cocycles", "count", "lower", _counter("cohom.cocycles")),
    ("cohom.cochains", "count", "lower", _counter("cohom.cochains")),
    ("cohom.coboundary_s", "s", "lower", _self("cohom.coboundary")),
    ("cohom.h1_s", "s", "lower", _self("cohom.h1")),
    ("cohom.failed", "count", "lower", _counter("cohom.failed")),
    ("textio.parse_s", "s", "lower", _self("textio.parse")),
    ("textio.bytes", "bytes", "lower", _counter("textio.bytes")),
    ("cli.inproc_s", "s", "lower", lambda t: t.total_s["cli.main"]),
)


def library_modules():
    return {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
            if name.startswith("twotypes.") and mod is not None}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.seen: dict[int, object] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)

    def wrap(self, name, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0,
                   tracer._stack[-1] if tracer._stack else None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if name in ("cohom.h1", "cohom.h2"):
                    tracer.counts["cohom.failed"] += 1
                raise
            finally:
                rec[2] = perf_counter()
                tracer._stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result
        return traced

    def _wrap_kan(self, fn):
        per_dim = {d: self.wrap(f"simpset.kan{d}", fn) for d in KAN_DIMS}

        @functools.wraps(fn)
        def is_kan(x, dims=KAN_DIMS):
            # the same dimensions in the same order, one span each
            for d in dims:
                found = per_dim[d](x, (d,)) if d in per_dim else fn(x, (d,))
                if found is not True:
                    return found
            return True
        return is_kan

    def install(self, also=()):
        """Wrap every listed function wherever a `twotypes` module, or one
        of the modules in `also`, binds it."""
        mods = library_modules()
        targets = [(getattr(mods[m], f), self.wrap(span, getattr(mods[m], f),
                                                    hook))
                   for m, f, span, hook in WRAPPED]
        kan = mods["simpset"].is_kan
        targets.append((kan, self._wrap_kan(kan)))
        namespaces = [*mods.values(), *also]
        for original, wrapper in targets:
            for mod in namespaces:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def remove(self):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def finish(self):
        """Fold the spans into per-name self and total times."""
        self.self_s, self.total_s = span_times(self.spans)

    def metrics(self) -> dict[str, tuple[float, str]]:
        return {name: (value(self), unit)
                for name, unit, _, value in LAYER_METRICS}


def span_times(spans):
    """(self seconds, total seconds) per span name; self is the span's
    duration minus that of its direct children."""
    children = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            children[parent] += end - start
    own, total = defaultdict(float), defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        own[name] += end - start - children[i]
        total[name] += end - start
    return own, total
