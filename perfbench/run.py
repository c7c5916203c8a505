"""Benchmark of the twotypes library and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from `src/`.  One
run is one fresh process and one workload (see workloads.py).  With
`--trace 0` it sets up the inputs, then runs passes over the workload's
operations until `--seconds` have gone by, and reports the end-to-end
metrics.  Its times are CPU seconds (user + system) of this process and
of the commands it starts, scaled to a nominal machine speed by a fixed
reference loop timed between operations (see `reference_cpu`).  With
`--trace 1` it runs one untraced pass and one pass with spans around the
library's public functions, and reports the per-layer metrics (see
tracing.py).  Every answer is checked; a wrong answer, an exception or an
unexpected exit code counts as a failed operation.  The last line of
stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter, process_time
from typing import NamedTuple, Optional

# numpy's BLAS would start a thread per core at import, and each `cli`
# command imports numpy; twotypes does no BLAS work, so one thread is enough.
# Children inherit the setting through workloads.library_env.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("nerve_audit", "map_classes", "cohomology", "cli")
SETUP_REPEATS = 5
STARTUP_REPEATS = 5

# (metric, unit, better, bound); the same table is BENCHMARK.json's
# end_to_end list
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("scaled_cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_ratio", "ratio", "higher", 0.05),
)
# per-layer metrics reported beside tracing.LAYER_METRICS
EXTRA_LAYER_METRICS = (
    ("startup_s", "s", "lower"),
    ("import.numpy_s", "s", "lower"),
    ("import.twotypes_s", "s", "lower"),
    ("src.lines", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)


# The speed of a shared machine drifts by 10-20% over seconds to minutes,
# and CPU time drifts with it.  So each measured CPU time is scaled by the
# CPU time of a fixed loop, timed before and after it and, while the timer
# of `probing` runs, every PROBE_INTERVAL_S of CPU time during it.  The loop
# hashes small tuples and looks them up in a dict, as the library mostly
# does, so it slows down with the machine.  It allocates nothing, so that
# the state of the program's heap cannot change its speed.
_REF_TABLE = {(i, i & 7): i for i in range(2_000)}
_REF_KEYS = list(_REF_TABLE)
REF_ROUNDS = 40
# about the loop's CPU time inside the library workloads' operations on the
# 2-vCPU machine the bounds were set on
REF_NOMINAL_S = 0.008
PROBE_INTERVAL_S = 0.5
_probes: list[float] = []  # loop times taken by the timer, in order
_in_reference = False


def reference_cpu() -> float:
    """CPU seconds of the reference loop."""
    global _in_reference
    table, keys = _REF_TABLE, _REF_KEYS
    _in_reference = True
    try:
        start = process_time()
        total = 0
        for _ in range(REF_ROUNDS):
            for key in keys:
                total += table[key] ^ key[1]
        return process_time() - start
    finally:
        _in_reference = False


@contextlib.contextmanager
def probing():
    """Time the reference loop every PROBE_INTERVAL_S of this process's CPU
    time, from a SIGPROF handler, so that a long operation is scaled by
    the speed it ran at.  Commands started meanwhile do not inherit it."""
    def probe(signum, frame):
        if not _in_reference:
            _probes.append(reference_cpu())
    previous = signal.signal(signal.SIGPROF, probe)
    signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)


def at_nominal_speed(cpu_s, refs) -> float:
    return cpu_s * REF_NOMINAL_S * len(refs) / sum(refs)


class Result(NamedTuple):
    label: str
    seconds: float  # wall time
    cpu_s: float  # CPU time of this process and its waited-for children
    scaled_s: float  # cpu_s at nominal speed
    status: str  # ok, wrong or error
    detail: Optional[str]


def cpu_now() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def timed(fn):
    """(value, exception, wall seconds, CPU seconds, probes) of one call of
    `fn`.  The probes are the reference loop times the timer took during
    the call; they are taken out of both times."""
    first = len(_probes)
    start, cpu_start = perf_counter(), cpu_now()
    try:
        value, error = fn(), None
    except Exception as exc:  # reported by the caller
        value, error = None, exc
    seconds, cpu_s = perf_counter() - start, cpu_now() - cpu_start
    probes = _probes[first:]
    return value, error, seconds - sum(probes), cpu_s - sum(probes), probes


def run_pass(ops) -> list[Result]:
    """Run each operation once.  Only `run` is timed, not the check."""
    out = []
    ref_before = reference_cpu()
    for op in ops:
        answer, error, seconds, cpu_s, probes = timed(op.run)
        if error is not None:  # a failed operation, not a failed run
            status, detail = "error", f"{type(error).__name__}: {error}"[:300]
        else:
            detail = op.check(answer)
            status = "ok" if detail is None else "wrong"
        ref_after = reference_cpu()
        scaled_s = at_nominal_speed(cpu_s, [ref_before, *probes, ref_after])
        out.append(Result(op.label, seconds, cpu_s, scaled_s, status, detail))
        ref_before = ref_after
    return out


def pass_seconds(results) -> float:
    return sum(r.seconds for r in results)


def make_workload(name, workdir):
    import workloads
    if name == "cli":
        return workloads.Cli(workdir)
    return {"nerve_audit": workloads.NerveAudit,
            "map_classes": workloads.MapClasses,
            "cohomology": workloads.Cohomology}[name]()


def scaled_cpu(fn):
    """`fn()` and its CPU seconds at nominal speed; `fn` must not fail."""
    ref_before = reference_cpu()
    value, error, _, cpu_s, probes = timed(fn)
    if error is not None:
        raise error
    return value, at_nominal_speed(cpu_s, [ref_before, *probes,
                                           reference_cpu()])


def child_seconds(argv) -> float:
    from workloads import library_env
    start = perf_counter()
    subprocess.run(argv, check=True, env=library_env(), timeout=120,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return perf_counter() - start


def import_cpu() -> float:
    """CPU seconds, at nominal speed, of a fresh interpreter that imports the
    library and the workloads, as this run did before its set-up."""
    code = f"import sys; sys.path.insert(0, {str(HERE)!r}); import workloads"
    return scaled_cpu(lambda: child_seconds([sys.executable, "-c", code]))[1]


def timed_run(name, wl, seed, seconds):
    """Whole passes until `seconds` have gone by; the last pass stops at
    the deadline.  A pass's time is estimated operation by operation, as
    the sum over its operations of the median of their samples."""
    build = lambda: wl.build(seed)  # noqa: E731
    with probing():
        setups = [scaled_cpu(build)[1] for _ in range(SETUP_REPEATS)]
        passes = []
        deadline = perf_counter() + seconds
        while not passes or perf_counter() < deadline:
            inputs, build_s = scaled_cpu(build)
            setups.append(build_s)
            ops = wl.ops(inputs)
            if passes:
                ops = itertools.takewhile(
                    lambda _: perf_counter() < deadline, ops)
            passes.append(run_pass(ops))
            if len(passes) == 1:
                rss_kb = wl.command_peak_kb if name == "cli" else \
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        imports = [import_cpu() for _ in range(SETUP_REPEATS)]
    samples = [[p[i] for p in passes if i < len(p)]
               for i in range(len(passes[0]))]
    scaled_s = sum(statistics.median(r.scaled_s for r in op)
                   for op in samples)
    cpu_s = sum(statistics.median(r.cpu_s for r in op) for op in samples)
    wall_s = sum(statistics.median(r.seconds for r in op) for op in samples)
    lat = sorted(r.seconds for p in passes for r in p)
    attempted = len(lat)
    failed = sum(r.status != "ok" for p in passes for r in p)
    # per operation, so that a last pass cut short does not move it
    ok_ops = sum(all(r.status == "ok" for r in op) for op in samples)
    values = {
        "setup_s": statistics.median(imports) + statistics.median(setups),
        "scaled_cpu_s": scaled_s,
        "peak_rss_mb": rss_kb / 1024,
        "ok_ratio": ok_ops / len(samples),
    }
    print(f"{name}: {len(passes)} passes, the last "
          f"{len(passes[-1])}/{len(samples)} operations; {attempted} "
          f"runs of an operation, {failed} failed; ok_ratio "
          f"{ok_ops}/{len(samples)} operations")
    print(f"  setup_s: median of {len(imports)} imports "
          f"{statistics.median(imports):.4f} s + median of {len(setups)} "
          f"input builds, CPU time at nominal speed")
    print(f"  a pass: scaled_cpu_s {scaled_s:.4f} s, CPU time {cpu_s:.4f} s, "
          f"wall time {wall_s:.4f} s; {len(_probes)} probes")
    print(f"  latency_p50_s {statistics.median(lat):.4f} s, latency_p90_s "
          f"{statistics.quantiles(lat, n=10)[8]:.4f} s, over {attempted} "
          f"runs")
    units = {m: unit for m, unit, _, _ in END_TO_END}
    metrics = {m: {"value": v, "unit": units[m]} for m, v in values.items()}
    return passes, metrics


def import_times():
    """Median cumulative import seconds of numpy and of twotypes.cli,
    numpy included, from `python -X importtime`."""
    from workloads import library_env
    samples = {"numpy": [], "twotypes.cli": []}
    for _ in range(STARTUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import twotypes.cli"],
            capture_output=True, text=True, env=library_env(), timeout=120,
            check=True)
        for line in done.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in samples:
                samples[parts[2]].append(int(parts[1]) / 1e6)
    return (statistics.median(samples["numpy"]),
            statistics.median(samples["twotypes.cli"]))


def source_lines() -> int:
    return sum(1 for path in (ROOT / "src" / "twotypes").rglob("*.py")
               for line in path.read_text(encoding="utf-8").splitlines()
               if line.strip())


def trace_run(name, wl, seed):
    import relabel
    import tracing
    import workloads
    ops = getattr(wl, "trace_ops", wl.ops)
    untraced = run_pass(ops(wl.build(seed)))
    tracer = tracing.Tracer()
    tracer.install(also=(workloads, relabel))
    try:
        traced = run_pass(ops(wl.build(seed)))
    finally:
        tracer.remove()
    tracer.finish()
    values = tracer.metrics()
    numpy_s, twotypes_s = import_times()
    startup = statistics.median(
        child_seconds([sys.executable, "-c", "import twotypes.cli"])
        for _ in range(STARTUP_REPEATS))
    values.update({
        "startup_s": (startup, "s"),
        "import.numpy_s": (numpy_s, "s"),
        "import.twotypes_s": (twotypes_s, "s"),
        "src.lines": (source_lines(), "count"),
        "trace.overhead_s": (pass_seconds(traced) - pass_seconds(untraced),
                             "s"),
        "trace.spans": (len(tracer.spans), "count"),
    })
    print(f"{name} traced: {len(tracer.spans)} spans; pass "
          f"{pass_seconds(untraced):.4f} s untraced, "
          f"{pass_seconds(traced):.4f} s traced")
    metrics = {m: {"value": v, "unit": unit}
               for m, (v, unit) in values.items()}
    return [untraced, traced], metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "twotypes" / "__init__.py").is_file():
        print(f"no twotypes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        sys.path.insert(0, str(ROOT / "src"))
        wl = make_workload(args.workload, workdir)  # imports the library
        if args.trace:
            passes, metrics = trace_run(args.workload, wl, args.seed)
        else:
            passes, metrics = timed_run(args.workload, wl, args.seed,
                                        args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run still holds its directory
            pass

    results = [r for p in passes for r in p]
    for r in results:
        if r.status != "ok":
            print(f"  FAILED {r.label} ({r.status}, {r.seconds:.4f} s): "
                  f"{r.detail}")
    print(json.dumps({
        "correct": all(r.status != "wrong" for r in results),
        "attempted": len(results),
        "failed": sum(r.status != "ok" for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
