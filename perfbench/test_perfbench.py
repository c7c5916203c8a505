"""Tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from relabel import CORPUS, Relabeller, corpus  # noqa: E402
from twotypes import nerve as nerve_mod  # noqa: E402
from twotypes import simpset  # noqa: E402
from twotypes.fingroup import cyclic, klein_four  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _orders(g):
    return sorted(g.element_order(a) for a in range(g.order))


def test_relabelled_groups_are_isomorphic_copies():
    for seed in (1, 2, 3):
        rl = Relabeller(seed)
        for g in (cyclic(4), cyclic(6), klein_four()):
            h = rl.group(g)
            assert _orders(h) == _orders(g)
    assert Relabeller(0).group(cyclic(5)).mul == cyclic(5).mul


def test_corpus_matches_the_test_fixtures():
    spec = importlib.util.spec_from_file_location(
        "fixture_corpus", ROOT / "tests" / "conftest.py")
    fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fixtures)
    theirs = fixtures.build_corpus()
    ours = corpus(Relabeller(0))
    assert [name for name, _ in CORPUS] == [name for name, _ in theirs]
    for (_, a), (_, b) in zip(ours, theirs):
        assert (a.g2.mul, a.g1.mul, a.phi.image, a.action.act) == \
            (b.g2.mul, b.g1.mul, b.phi.image, b.action.act)


def test_relabelling_preserves_nerve_audit_answers():
    small = ("pt", "b_z2", "b2_z2", "id_z2", "b_z3")
    wl = workloads.NerveAudit()
    for seed in (1, 2):
        entries = [(n, xm) for n, xm in corpus(Relabeller(seed))
                   if n in small]
        results = run.run_pass(wl.ops((seed, entries)))
        assert [r.status for r in results] == ["ok"] * 5


def test_relabelling_preserves_map_counts_and_cohomology():
    wl = workloads.MapClasses()
    for seed in (0, 2):
        bg, b2g = wl.build(seed)
        ops = {op.label: op for op in wl.ops((bg, b2g))}
        for label in ("2,2", "2,3", "3,2"):
            assert ops[label].check(ops[label].run()) is None
    coh = workloads.Cohomology()
    for seed in (0, 1):
        for op in coh.ops(coh.build(seed)):
            if op.label in ("z4/v4", "s3/z2", "z2-inv/z4"):
                assert op.check(op.run()) is None


def test_expected_abelian_groups():
    # Hom(V4, Z/4) = (Z/2)^2; Ext + Hom(H_2 V4, Z/4) = (Z/2)^3
    assert workloads.hom_cyclic((2, 2), (4,)) == [2, 2]
    assert workloads.abelian_orders([2, 2, 2]) == [1] + [2] * 7
    assert workloads.abelian_orders([4]) == [1, 2, 4, 4]


def test_cli_commands_pass_in_process(tmp_path):
    wl = workloads.Cli(tmp_path)
    results = run.run_pass(wl.trace_ops(wl.build(5)))
    assert [(r.label, r.status) for r in results if r.status != "ok"] == []


def test_self_time_is_duration_minus_direct_children():
    spans = [["a", 0.0, 10.0, None],
             ["b", 1.0, 4.0, 0],
             ["c", 2.0, 3.0, 1],
             ["b", 5.0, 6.0, 0],
             ["c", 11.0, 13.0, None]]
    own, total = tracing.span_times(spans)
    assert own == {"a": 6.0, "b": 3.0, "c": 3.0}
    assert total == {"a": 10.0, "b": 4.0, "c": 3.0}


def test_probe_loops_are_taken_out_of_an_operation_and_set_its_scale():
    def op():
        run._probes.append(0.5)  # as if the timer had run the loop here
    try:
        _, error, seconds, cpu_s, probes = run.timed(op)
    finally:
        run._probes.clear()
    assert error is None and probes == [0.5]
    assert -0.5 <= seconds < -0.4 and -0.5 <= cpu_s < -0.4
    # a machine at half the nominal speed: the loop takes twice as long
    slow = 2 * run.REF_NOMINAL_S
    assert abs(run.at_nominal_speed(3.0, [slow, slow, slow]) - 1.5) < 1e-12


def test_tracer_wraps_every_binding_and_restores_it():
    original_nerve = nerve_mod.nerve
    original_make_sset = simpset.make_sset
    tracer = tracing.Tracer()
    tracer.install(also=(workloads,))
    try:
        # nerve.py binds make_sset by name; both bindings are wrapped
        assert nerve_mod.make_sset is simpset.make_sset
        assert simpset.make_sset is not original_make_sset
        assert workloads.nerve is nerve_mod.nerve
        wl = workloads.NerveAudit()
        entries = [e for e in corpus(Relabeller(0)) if e[0] == "b_z2"]
        assert run.run_pass(wl.ops((0, entries)))[0].status == "ok"
    finally:
        tracer.remove()
    assert nerve_mod.nerve is original_nerve
    assert workloads.nerve is original_nerve
    assert simpset.make_sset is original_make_sset
    tracer.finish()
    names = {span[0] for span in tracer.spans}
    assert {"nerve.nerve", "simpset.coskeleton", "simpset.make_sset",
            "simpset.kan4", "reconstruct.roundtrip"} <= names
    values = tracer.metrics()
    # roundtrip_report builds one more nerve, of the reconstruction
    assert values["nerve.calls"][0] == 2
    assert values["simpset.level4_simplices"][0] == 2 * 16
    assert values["nerve.self_s"][0] > 0


def test_metric_tables_match_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in doc["end_to_end"]] == list(run.END_TO_END)
    layer = [(n, u, b) for n, u, b, _ in tracing.LAYER_METRICS]
    layer += list(run.EXTRA_LAYER_METRICS)
    assert [(m["name"], m["unit"], m["better"])
            for m in doc["per_layer"]] == layer
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) for n in names)
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_run_refuses_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
