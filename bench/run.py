"""causal-sep benchmark: seeded job lists run as real CLI processes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each op is one ``python -m causal_sep.cli ...`` child started from the
checkout's ``src/``, one after another from this single process (a closed
loop with one client).  Every child runs under an address-space ceiling and
a CPU-time limit set with ``resource.setrlimit`` in the child only, plus a
wall-clock timeout; an op that exits non-zero, hits the ceiling or times out
counts as failed and is never skipped.  Each child's BLAS pool is pinned to
one thread.  Every successful op's output is checked
against numpy oracles in ``jobs.py``.  The time and memory metrics are the
children's own figures over the ops that succeeded; a failed op counts in
``failed`` and gets a report line of its own.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each op
twice, plainly and under ``tracer.py`` (in-process through
``causal_sep.cli.main`` with layer spans), and prints the per-layer metrics
plus the tracing overhead.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# One BLAS thread per process (at most nproc), this one included, set before
# numpy loads: ops run one at a time on small to mid matrices, where a second
# OpenBLAS thread mostly spin-waits (a D=3, N=4 compare op: 1.24 s CPU for
# 0.67 s wall with two threads, equal CPU and wall with one) and competes with
# the main thread for the CPUs.  In this process it would also slow the
# oracle checks (a 1024-dim complex eigvalsh: 0.8 s with one thread, 12.6 s
# with two on a 2-vCPU Xeon VM) and leave idle pool threads spinning while a
# child is timed.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

import jobs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
TRACER = Path(__file__).resolve().parent / "tracer.py"

MEM_LIMIT_BYTES = 2 * 2**30   # per-op address-space ceiling
OP_TIMEOUT_S = 60             # per-op CPU-time limit and wall-clock timeout
SETUP_REPEATS = 5

# Seconds one pass of the job list took when the benchmark was defined (2-vCPU
# Xeon VM, failed ops included); the job list repeats
# max(1, floor(--seconds / this)) times, so a faster or slower program runs
# the same ops and its percentiles stay comparable.
NOMINAL_PASS_S = {"classify-batch": 12.5, "cross-validate": 41.2, "dim-cap": 31.0}

# Which end-to-end metric each layer metric should move, and on which
# workload; written before any optimization is measured.
LAYER_MAP = {
    "cli.startup_s": "op_p50_s on cross-validate",
    "cli.format_s": "wall_s on classify-batch",
    "cli.payload_bytes": "wall_s on classify-batch",
    # peak_rss_mb on dim-cap is the 4096-dim sweeps' peak, which the 1024-dim
    # loads and saves stay far below
    "density.load_*": "wall_s on dim-cap; flat on cross-validate",
    "density.save_*": "wall_s on dim-cap; flat on cross-validate",
    "density.pt_*": "scores_per_s on classify-batch; peak_rss_mb, error_rate on dim-cap",
    "density.eig_*": "wall_s on dim-cap; grid_points_per_s on cross-validate",
    "config_calculus.partition_s, greedy_distinct, census_K": "wall_s on dim-cap via classify(2,10)",
    "config_calculus.partner_*": "scores_per_s on classify-batch",
    "criterion.classify_s, score_self_s, scores, index_calls": "scores_per_s on classify-batch",
    "criterion.causal_W_s": "grid_points_per_s on dim-cap",
    "ec_family.build_*": "grid_points_per_s, peak_rss_mb on dim-cap; grid_points_per_s on cross-validate; "
                         "flat on classify-batch",
    "ec_family.closed_form_s": "control: no planned change moves it",
    "ec_family.sign_mismatches": "must not rise (a-weak-coupled closed form vs matrix)",
    "ppt.*": "grid_points_per_s on cross-validate; wall_s on dim-cap",
}

# Printed for every plain run but not gated: the two failure figures are
# zero at the seed on two workloads, and each rate applies to some workloads
# only (work_per_s carries the one that applies).
REPORT_UNITS = {
    "n": "count", "passes": "count", "op_tail_percentile": "%", "error_rate": "1",
    "wrong_outputs": "count", "scores_per_s": "1/s", "grid_points_per_s": "1/s",
}
# Metric names and units are declared once, in BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


# ---------------------------------------------------------------------------
# one child process
# ---------------------------------------------------------------------------

@dataclass
class Child:
    wall: float
    cpu: float
    rss_mb: float
    failure: str | None   # None, "memory", "timeout", "exit N" or "signal N"
    stdout: Path
    spawned: float


def _child_limits() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEM_LIMIT_BYTES, MEM_LIMIT_BYTES))
    resource.setrlimit(resource.RLIMIT_CPU, (OP_TIMEOUT_S, OP_TIMEOUT_S + 5))


def run_child(argv: list[str], env: dict, work: Path) -> Child:
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    state = {"done": False, "timed_out": False}

    def on_alarm(signum, frame):
        if not state["done"]:
            state["timed_out"] = True
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    previous = signal.signal(signal.SIGALRM, on_alarm)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=env, cwd=ROOT, preexec_fn=_child_limits)
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            state["done"] = True
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    failure = None
    if state["timed_out"] or proc.returncode == -signal.SIGXCPU:
        failure = "timeout"
    elif proc.returncode != 0:
        tail = err_path.read_bytes()[-4096:]
        if b"MemoryError" in tail:
            failure = "memory"
        elif proc.returncode < 0:
            failure = f"signal {-proc.returncode}"
        else:
            failure = f"exit {proc.returncode}"
    return Child(wall=wall, cpu=usage.ru_utime + usage.ru_stime, rss_mb=usage.ru_maxrss / 1024,
                 failure=failure, stdout=out_path, spawned=start)


# ---------------------------------------------------------------------------
# a run
# ---------------------------------------------------------------------------

@dataclass
class Record:
    op: jobs.Op
    child: Child
    outcome: jobs.Outcome
    pass_no: int
    stdout_bytes: int
    saved_bytes: int            # size of the --out file an op wrote
    trace: dict | None = None   # tracer.py's layer totals, traced ops only

    @property
    def ok(self) -> bool:
        return self.child.failure is None


def run_op(op: jobs.Op, env: dict, work: Path, rng, pass_no: int, tracer_result=None) -> Record:
    if tracer_result is None:
        argv = [sys.executable, "-m", "causal_sep.cli"] + op.argv
    else:
        argv = [sys.executable, str(TRACER), str(tracer_result)] + op.argv
    if op.out is not None:
        op.out.unlink(missing_ok=True)
    child = run_child(argv, env, work)
    outcome = jobs.Outcome()
    if child.failure is None:
        outcome = jobs.check(op, child.stdout.read_text(encoding="utf-8"), rng)
    trace = None
    if tracer_result is not None and tracer_result.exists():
        trace = json.loads(tracer_result.read_text(encoding="utf-8"))
        tracer_result.unlink()
    saved = op.out.stat().st_size if op.out is not None and op.out.exists() else 0
    return Record(op, child, outcome, pass_no, child.stdout.stat().st_size, saved, trace)


def setup(workload: str, seed: int, work: Path, env: dict, scale: str):
    """Generate the seeded inputs and warm the interpreter; returns (ops, seconds)."""
    start = time.perf_counter()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = jobs.build_jobs(workload, seed, work, scale)
    warm = run_child([sys.executable, "-m", "causal_sep.cli", "crossover", "--D", "3"], env, work)
    if warm.failure is not None:
        raise RuntimeError(f"warm-up CLI call failed ({warm.failure}); see {work / 'stderr.txt'}")
    return ops, time.perf_counter() - start


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten invocations beyond it, and the
    median when fewer than 21 invocations leave none above the median."""
    return max(50.0, 100.0 * (n - 10) / n)


def _rate(records: list[Record], kinds: tuple[str, ...], field: str) -> float | None:
    chosen = [r for r in records if r.op.kind in kinds]
    if not chosen:
        return None
    return sum(getattr(r.outcome, field) for r in chosen) / sum(r.child.wall for r in chosen)


def end_to_end(records: list[Record], setup_s: float, workload: str) -> tuple[dict, dict]:
    """(gated metrics, report-only figures) of a plain run.

    Times and memory are taken over the ops that succeeded: a failed op's
    figures say when it hit a limit, not what the program costs.
    """
    ok = [r for r in records if r.ok]
    if not ok:
        raise RuntimeError("every op failed; no time or memory figure to report")
    walls = [r.child.wall for r in ok]
    passes = sorted({r.pass_no for r in ok})
    q = tail_percentile(len(walls))
    scores_per_s = _rate(ok, ("classify",), "scores")
    grid_per_s = _rate(ok, ("compare", "sweep"), "rows")
    pass_sum = lambda value: statistics.median(
        sum(value(r.child) for r in ok if r.pass_no == p) for p in passes)
    metrics = {
        "setup_s": setup_s,
        "wall_s": pass_sum(lambda c: c.wall),
        "cpu_s": pass_sum(lambda c: c.cpu),
        "op_p50_s": float(np.percentile(walls, 50)),
        "op_tail_s": float(np.percentile(walls, q)),
        "peak_rss_mb": max(r.child.rss_mb for r in ok),
        "work_per_s": scores_per_s if workload == "classify-batch" else grid_per_s,
    }
    failed = len(records) - len(ok)
    extra = {
        "op_tail_percentile": q,
        "n": len(walls),
        "passes": len(passes),
        "error_rate": failed / len(records),
        "wrong_outputs": sum(r.outcome.wrong is not None for r in records),
        "scores_per_s": scores_per_s,
        "grid_points_per_s": grid_per_s,
    }
    return metrics, extra


def layers(plain: list[Record], traced: list[Record]) -> dict:
    metrics = {name: 0.0 for name in LAYER_UNITS}
    for t in traced:
        for name, value in (t.trace or {}).get("layers", {}).items():
            if name == "density.load_peak_mb":
                metrics[name] = max(metrics[name], value)
            else:
                metrics[name] += value
    starts = [t.trace["import_done"] - t.child.spawned for t in traced if t.trace]
    metrics["cli.startup_s"] = statistics.median(starts) if starts else 0.0
    metrics["cli.payload_bytes"] = sum(t.stdout_bytes + t.saved_bytes for t in traced)
    metrics["density.save_bytes"] = sum(t.saved_bytes for t in traced)
    metrics["ec_family.sign_mismatches"] = sum(t.outcome.sign_mismatches for t in traced)
    metrics["ec_family.weak_coupled_gap"] = max((t.outcome.gap for t in traced), default=0.0)
    both = [(p, t) for p, t in zip(plain, traced) if p.ok and t.ok]
    metrics["trace.overhead_s"] = sum(t.child.wall - p.child.wall for p, t in both)
    return metrics


def machine(args) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
        mem_kb = next(int(line.split()[1]) for line in Path("/proc/meminfo").read_text().splitlines()
                      if line.startswith("MemTotal"))
    except (OSError, StopIteration, ValueError):
        mem_kb = 0
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": round(mem_kb / 1024),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "op_mem_limit_mb": MEM_LIMIT_BYTES // 2**20,
        "op_timeout_s": OP_TIMEOUT_S,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(NOMINAL_PASS_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test scale: every job kind at its smallest size, one pass")
    args = parser.parse_args(argv)
    if not (SRC / "causal_sep" / "cli.py").is_file():
        print(f"error: no causal_sep sources under {SRC}", file=sys.stderr)
        return 2

    # a terminated run still stops its child and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(SRC)  # BLAS pins come from os.environ
    scale = "tiny" if args.tiny else "full"
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    print("machine " + json.dumps(machine(args)), flush=True)
    try:
        setups = [setup(args.workload, args.seed, work, env, scale) for _ in range(SETUP_REPEATS)]
        ops = setups[-1][0]
        setup_s = statistics.median(s for _, s in setups)
        rng = np.random.default_rng([args.seed, 1])
        passes = 1 if args.tiny or args.trace else max(1, int(args.seconds // NOMINAL_PASS_S[args.workload]))
        plain, traced = [], []
        for pass_no in range(passes):
            for op in ops:
                plain.append(run_op(op, env, work, rng, pass_no))
                if args.trace:
                    traced.append(run_op(op, env, work, rng, pass_no, work / "trace.json"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is still using it

    measured = traced if args.trace else plain
    checked = plain + traced
    for how, records in (("plain", plain), ("traced", traced)):
        for r in records:
            if not r.ok:
                print(f"report failed op {r.op.label} {how}: {r.child.failure} after "
                      f"{r.child.wall:.3f} s wall, {r.child.cpu:.3f} s cpu, rss {r.child.rss_mb:.0f} MB")
            elif r.outcome.wrong:
                print(f"op {r.op.label} {how}: wrong output: {r.outcome.wrong}")
    for i, op in enumerate(ops):
        mine = [r for r in plain[i::len(ops)] if r.ok]
        if mine:
            print(f"op {i} {op.label} {' '.join(op.argv[1:]) if op.kind != 'sweep' else ' '.join(op.argv[2:])}: "
                  f"wall {statistics.median(r.child.wall for r in mine):.3f} s, "
                  f"rss {max(r.child.rss_mb for r in mine):.0f} MB")
    metrics, extra = end_to_end(plain, setup_s, args.workload)
    for key, unit in REPORT_UNITS.items():
        value = "n/a" if extra[key] is None else extra[key]
        print(f"report {key} = {value} {unit}")
    if args.trace:
        metrics = layers(plain, traced)
        units = LAYER_UNITS
        for layer, target in LAYER_MAP.items():
            print(f"map {layer} -> {target}")
    else:
        units = E2E_UNITS
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    for name, value in metrics.items():
        if units[name] in ("count", "bytes"):
            metrics[name] = value = int(value)
        print(f"metric {name} = {value} {units[name]}")
    result = {
        "correct": all(r.outcome.wrong is None for r in checked),
        "attempted": len(measured),
        "failed": sum(not r.ok for r in measured),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
