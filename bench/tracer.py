"""Run one ``causal-sep`` command in-process with layer spans.

    python3 bench/tracer.py RESULT_JSON CLI_ARG...

The traced benchmark run starts this script once per op, in place of
``python -m causal_sep.cli``, under the same memory ceiling and timeout.
It calls ``causal_sep.cli.main(argv)`` after replacing the names each
caller module looks up across a module boundary (``criterion.partial_transpose``,
``cli.load_matrix``, ``ppt.hermitian_eigenvalues``, ...) with timing
wrappers, so nothing in the package changes.  The CLI payload goes to
stdout as usual; the per-layer totals of this op go to RESULT_JSON.
"""
import time

IMPORT_START = time.perf_counter()

import causal_sep.cli as cli  # noqa: E402

IMPORT_DONE = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from collections import defaultdict  # noqa: E402

from causal_sep import config_calculus, criterion, density, ec_family, ppt  # noqa: E402

MODULES = (cli, config_calculus, criterion, density, ec_family, ppt)
PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")
RSS_SAMPLE_S = 0.002


def _rss_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * PAGE_BYTES


class PeakSampler:
    """Peak resident-set growth over a block, sampled from a side thread.

    A sample can only land while the main thread releases the interpreter
    lock, so a spike inside one long C call can be missed.
    """

    def __enter__(self):
        self.base = self.peak = _rss_bytes()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def _run(self):
        while not self._stop.wait(RSS_SAMPLE_S):
            self.peak = max(self.peak, _rss_bytes())

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, _rss_bytes())
        return False

    @property
    def growth_mb(self) -> float:
        return (self.peak - self.base) / 2**20


class Tracer:
    """Spans kept as per-(name, parent) totals; counters by name."""

    def __init__(self):
        self.stack = []  # frames: [name, start, time covered by child spans]
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.under = defaultdict(float)  # (name, parent name) -> total
        self.count = defaultdict(float)
        self.save_start = None

    def span(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            if name == "format" and self.save_start is not None:
                return fn(*args, **kwargs)  # serializing the saved matrix
            frame = [name, time.perf_counter(), 0.0]
            self.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                dur = time.perf_counter() - frame[1]
                parent = self.stack[-1][0] if self.stack else None
                if self.stack:
                    self.stack[-1][2] += dur
                self.total[name] += dur
                self.self_time[name] += dur - frame[2]
                self.calls[name] += 1
                self.under[name, parent] += dur
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self.count[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def install(tracer: Tracer) -> None:
    """Wrap each boundary function wherever another module holds it."""

    def load(fn):
        def wrapper(path, *args, **kwargs):
            tracer.count["load_bytes"] += _file_size(path)
            with PeakSampler() as peak:
                result = traced_load(path, *args, **kwargs)
            tracer.count["load_peak_mb"] = max(tracer.count["load_peak_mb"], peak.growth_mb)
            return result

        traced_load = tracer.span("load", fn)
        return wrapper

    def save(fn):
        # the save runs from building the payload until the file is written,
        # which is when cli.main returns
        def wrapper(*args, **kwargs):
            tracer.save_start = time.perf_counter()
            return fn(*args, **kwargs)

        return wrapper

    def add(key, value):
        tracer.count[key] += value

    def on_partition(args, result):
        D, N = args[0], args[1]
        add("greedy_distinct", len(result.distinct))
        add("census_K", -(-(D**N) // (1 + (D - 1) ** N)))

    wrappers = {
        density.load_matrix: load,
        density.matrix_to_payload: save,
        cli._json_payload: lambda fn: tracer.span("format", fn),
        cli._csv_payload: lambda fn: tracer.span("format", fn),
        density.partial_transpose: lambda fn: tracer.span(
            "pt", fn, lambda a, r: add("pt_bytes", 16 * r.dim**2)),
        density.hermitian_eigenvalues: lambda fn: tracer.span("eig", fn),
        config_calculus.partition_distinct: lambda fn: tracer.span("partition", fn, on_partition),
        config_calculus.orthogonal_partners: lambda fn: tracer.span("partners", fn),
        density.config_to_index: lambda fn: tracer.counted("index_calls", fn),
        criterion.classify: lambda fn: tracer.span(
            "classify", fn, lambda a, r: add("scores", len(r.scores))),
        criterion.causal_W: lambda fn: tracer.span("causal_W", fn),
        ec_family.build_ec_matrix: lambda fn: tracer.span(
            "build", fn, lambda a, r: add("build_bytes", 16 * r.dim**2)),
        ec_family.closed_form_W: lambda fn: tracer.span("closed_form", fn),
        ec_family.classify_ec: lambda fn: tracer.span("closed_form", fn),
        ec_family.threshold: lambda fn: tracer.span("closed_form", fn),
        ppt.ppt_report: lambda fn: tracer.span("ppt_report", fn),
        ppt.ppt_check: lambda fn: tracer.span("ppt_check", fn),
    }
    # callers inside the defining module: ppt_report calls ppt_check, and
    # the cli commands call the cli formatters
    home_too = {ppt.ppt_check, cli._json_payload, cli._csv_payload}
    for original, make in wrappers.items():
        wrapped = make(original)
        for module in MODULES:
            if module.__name__ == original.__module__ and original not in home_too:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    criterion.CriterionReport.to_dict = tracer.span("format", criterion.CriterionReport.to_dict)


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def layer_totals(tracer: Tracer, end: float) -> dict:
    t, s, c, u, n = tracer.total, tracer.self_time, tracer.calls, tracer.under, tracer.count
    save_s = end - tracer.save_start if tracer.save_start is not None else 0.0
    return {
        "cli.format_s": t["format"],
        "density.load_s": t["load"],
        "density.load_bytes": n["load_bytes"],
        "density.load_peak_mb": n["load_peak_mb"],
        "density.save_s": save_s,
        "density.pt_s": t["pt"],
        "density.pt_calls": c["pt"],
        "density.pt_bytes": n["pt_bytes"],
        "density.eig_s": t["eig"],
        "density.eig_calls": c["eig"],
        "config_calculus.partition_s": t["partition"],
        "config_calculus.greedy_distinct": n["greedy_distinct"],
        "config_calculus.census_K": n["census_K"],
        "config_calculus.partner_calls": c["partners"],
        "config_calculus.partner_s": t["partners"],
        "criterion.classify_s": t["classify"],
        "criterion.score_self_s": s["classify"],
        "criterion.scores": n["scores"],
        "criterion.index_calls": n["index_calls"],
        "criterion.causal_W_s": t["causal_W"],
        "ec_family.build_s": t["build"],
        "ec_family.build_calls": c["build"],
        "ec_family.build_bytes": n["build_bytes"],
        "ec_family.closed_form_s": t["closed_form"],
        "ppt.report_s": t["ppt_report"] + t["ppt_check"] - u["ppt_check", "ppt_report"],
        "ppt.check_calls": c["ppt_check"],
        "ppt.self_s": s["ppt_check"],
    }


def main() -> int:
    result_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    code = None
    try:
        code = cli.main(argv)
    finally:
        end = time.perf_counter()
        record = {"import_start": IMPORT_START, "import_done": IMPORT_DONE,
                  "layers": layer_totals(tracer, end)}
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
