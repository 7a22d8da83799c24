"""Command-line interface: ``causal-sep <command> [flags]``.

Machine payloads (JSON with a "schema" tag, or CSV with a fixed header,
streamed a batch of rows at a time) go to stdout or --out; human
diagnostics go to stderr.  Output is deterministic for identical inputs,
with floats printed as shortest round-trip decimals.  Exit codes: 0
success, 1 domain error, 2 I/O or parse error (argparse usage errors
also exit 2).
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from itertools import chain, cycle, islice, repeat
from typing import Iterable, Iterator

import numpy as np

from .config_calculus import (
    ENUMERATION_CAP,
    CouplingMode,
    count_configurations,
    greedy_distinct_count,
)
from .criterion import CriterionReport, OverallVerdict, ScoreVerdict, causal_W, classify
from .density import (
    DensityMatrix,
    MatrixFormatError,
    PartySubset,
    float_texts,
    load_matrix,
    matrix_chunks,
)
from .ec_family import (
    ECClass,
    ECParams,
    Mixing,
    a_root,
    all_variants,
    b_roots,
    build_ec_matrix,
    classify_ec,
    closed_form_W,
    crossover_N,
    duality_residuals,
    ec_min_eigenvalue,
    ec_operator,
    float_base,
    m_abs_values,
    threshold,
    variant_name,
)
from .ppt import PPT_TOL, any_npt, ppt_check, ppt_report

SCHEMA = "causal-sep/1"
# Rows per piece of a CSV table, and configurations per batch of classify's scores
SCORE_BATCH = 16


# ---------------------------------------------------------------------------
# output formatting
# ---------------------------------------------------------------------------

def _payload(args, command: str, header, rows, key=None, head=None, tail=None) -> Iterable[str]:
    """A table as text pieces.  CSV: the header, then the rows.  JSON: the
    schema tag, the command, ``head``, the rows as objects under ``key`` (with
    no key, the one row's fields), then ``tail``.  A list or tuple cell is a
    JSON array, or its items joined by ";" in CSV.  ``rows`` may be a
    ``CriterionReport``, whose scores are written from its arrays."""
    report = None
    if isinstance(rows, CriterionReport):
        report, rows = rows, []
    if args.format == "csv":
        return _csv_payload(header, rows, report)
    payload = {"schema": SCHEMA, "command": command, **(head or {})}
    if report is None:
        objects = [dict(zip(header, row)) for row in rows]
        payload.update({key: objects} if key else objects[0])
    return _json_payload({**payload, **(tail or {})}, report)


def _json_payload(payload: dict, report: CriterionReport | None = None) -> Iterable[str]:
    """One JSON line: json.dumps of ``payload`` updated with ``report.to_dict()``,
    byte for byte, the report's scores written from its arrays a batch at a time."""
    if report is None:
        return [json.dumps(payload, separators=(",", ":")) + "\n"]
    head = {**payload, "mode": report.mode.value, "overall": report.overall.value}
    head_text = f'{json.dumps(head, separators=(",", ":"))[:-1]},"scores":['
    return chain([head_text], _json_scores(report), ["]}\n"])


def _json_scores(report: CriterionReport) -> Iterator[str]:
    for k, cells in enumerate(_score_batches(report, ",", _JSON_SCORE_FIELDS, json.dumps)):
        if k:
            yield ","
        yield ",".join(map("".join, cells))


def _cell(x):
    """A CSV cell: csv itself writes None as "", a float as its repr and
    any other value as its str."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (list, tuple)):
        return ";".join(map(str, x))
    return x


def _csv_payload(
    header: list[str], rows: Iterable[list], report: CriterionReport | None = None
) -> Iterator[str]:
    """CSV text: the header and the rows, ``SCORE_BATCH`` rows a piece, then
    one line per score of ``report``, a batch at a time, each joined from its
    pieces with no string per line."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    rows = chain([header], rows)
    while batch := list(islice(rows, SCORE_BATCH)):
        buf.seek(0)
        buf.truncate()
        writer.writerows([_cell(x) for x in row] for row in batch)
        yield buf.getvalue()
    if report is not None:
        batches = _score_batches(report, ";", _CSV_SCORE_FIELDS)
        yield from map("".join, map(chain.from_iterable, batches))


# Text around the six cells of a score (config, subset, P_ignorance,
# P_transition, W, verdict): before each cell, then after the last.
_JSON_SCORE_FIELDS = (
    '{"config":[', '],"subset":[', '],"P_ignorance":', ',"P_transition":', ',"W":',
    ',"verdict":"', '"}',
)
_CSV_SCORE_FIELDS = ("", ",", ",", ",", ",", ",", "\n")


def _score_batches(report: CriterionReport, sep: str, fields: tuple[str, ...], nonfinite=repr):
    """The scores of ``report`` in report order, one iterator of line pieces
    per batch of ``SCORE_BATCH`` configurations: the six cells of a score
    between ``fields``, labels joined by ``sep``, floats by ``float_texts``.
    Each batch converts its own rows at once, formats each distinct float of
    a column once and zips the columns; no Python code runs per score."""
    subsets = [sep.join(map(str, s.members)) + fields[2] for s in report.subsets]
    verdicts = [fields[5] + v.value + fields[6] for v in ScoreVerdict]  # by the entangled flag
    per_config = lambda cells: chain.from_iterable(map(repeat, cells, repeat(len(subsets))))
    for lo in range(0, len(report.configs), SCORE_BATCH):
        rows = slice(lo, lo + SCORE_BATCH)
        configs = report.configs[rows].tolist()
        yield zip(
            per_config(fields[0] + sep.join(map(str, c)) + fields[1] for c in configs),
            cycle(subsets),
            per_config(x + fields[3] for x in float_texts(report.P_ignorance[rows], nonfinite)),
            float_texts(report.P_transition[rows].ravel(), nonfinite),
            repeat(fields[4]),
            float_texts(report.W[rows].ravel(), nonfinite),
            map(verdicts.__getitem__, report.entangled[rows].ravel().tolist()),
        )


# ---------------------------------------------------------------------------
# flag parsing helpers
# ---------------------------------------------------------------------------

def _parse_p(text: str) -> complex:
    try:
        return complex(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse mixing parameter {text!r}")


def _parse_subset(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse party subset {text!r}; expected i,j,...")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", default=None, help="write the payload to this file")


def _add_dims(p: argparse.ArgumentParser) -> None:
    p.add_argument("--D", type=int, required=True, help="levels per party")
    p.add_argument("--N", type=int, required=True, help="number of parties")


def _add_variant_flags(p: argparse.ArgumentParser, *, required: bool) -> None:
    p.add_argument("--class", dest="ec_class", choices=["a", "b"], required=required)
    p.add_argument("--mixing", choices=["weak", "strong"], required=required)
    default = None if not required else "free"
    p.add_argument("--coupling", choices=["free", "coupled"], default=default)


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    _add_variant_flags(p, required=True)
    _add_dims(p)
    p.add_argument("--m-abs", type=int, default=None)
    p.add_argument("--steps", type=int, default=101, help="number of grid points")
    p.add_argument("--p-start", type=float, default=0.0)
    p.add_argument("--p-end", type=float, default=1.0)
    _add_output_flags(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causal-sep",
        description="Causal separability criterion, EC state family, PPT oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("config-count", help="distinct/orthogonal configuration census")
    _add_dims(p)
    p.add_argument("--coupling", choices=["free", "coupled"], default="free")
    _add_output_flags(p)
    p.set_defaults(func=cmd_config_count)

    ec = sub.add_parser("ec", help="equally-connected family commands")
    ec_sub = ec.add_subparsers(dest="ec_command", required=True)

    p = ec_sub.add_parser("build", help="materialize an EC matrix as matrix JSON")
    _add_variant_flags(p, required=True)
    _add_dims(p)
    p.add_argument("--p", type=_parse_p, required=True, help="mixing parameter")
    p.add_argument("--out", default=None, help="write the matrix JSON to this file")
    p.set_defaults(func=cmd_ec_build)

    p = ec_sub.add_parser("threshold", help="closed-form separability thresholds")
    _add_variant_flags(p, required=False)
    _add_dims(p)
    p.add_argument("--m-abs", type=int, default=None, help="|m| for b-class windows")
    _add_output_flags(p)
    p.set_defaults(func=cmd_ec_threshold)

    p = ec_sub.add_parser("sweep", help="W and verdict over a p grid")
    _add_grid_flags(p)
    p.set_defaults(func=cmd_ec_sweep)

    p = sub.add_parser("classify", help="causal-criterion report for a matrix file")
    p.add_argument("--input", required=True, help="matrix JSON file")
    p.add_argument("--coupling", choices=["free", "coupled"], default="free")
    _add_output_flags(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("ppt", help="partial-transpose eigenvalue oracle")
    p.add_argument("--input", required=True, help="matrix JSON file")
    p.add_argument("--subset", type=_parse_subset, default=None, help="parties i,j,...")
    _add_output_flags(p)
    p.set_defaults(func=cmd_ppt)

    p = sub.add_parser("compare", help="causal criterion vs PPT over a p grid")
    _add_grid_flags(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("duality", help="threshold duality residuals")
    _add_dims(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_duality)

    p = sub.add_parser("crossover", help="crossover party number ln(D-1)")
    p.add_argument("--D", type=int, required=True)
    _add_output_flags(p)
    p.set_defaults(func=cmd_crossover)

    return parser


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_config_count(args) -> Iterable[str]:
    census = count_configurations(args.D, args.N, CouplingMode(args.coupling))
    # For D > 2 the greedy pick can disagree with the ceiling count; the JSON
    # reports both rather than hiding it.
    extra = {}
    if args.coupling == "free" and args.D > 2:
        greedy = greedy_distinct_count(args.D, args.N)
        extra = {"greedy_distinct": greedy, "greedy_matches_K": greedy == census.K}
    return _payload(
        args, "config-count", ["D", "N", "coupling", "K", "K_bar"],
        [[census.D, census.N, args.coupling, census.K, census.K_bar]], tail=extra,
    )


Variant = tuple[ECClass, Mixing, CouplingMode]


def _variant(args) -> Variant:
    return ECClass(args.ec_class), Mixing(args.mixing), CouplingMode(args.coupling or "free")


def _params(variant: Variant, args, p: complex) -> ECParams:
    return ECParams(*variant, D=args.D, N=args.N, p=p)


def cmd_ec_build(args) -> Iterable[str]:
    variant = _variant(args)
    params = _params(variant, args, args.p)
    rho = build_ec_matrix(params)
    min_eig = ec_min_eigenvalue(params)
    psd = min_eig >= -PPT_TOL
    print(
        f"note: {variant_name(*variant)} D={params.D} N={params.N} p={args.p!r}: "
        f"trace = {rho.trace()!r}, normalized = {rho.normalized}, "
        f"min eigenvalue = {min_eig!r} ({'PSD' if psd else 'not PSD'})",
        file=sys.stderr,
    )
    return matrix_chunks(rho)


def _threshold_rows(variant: Variant, D: int, N: int, m_abs: int | None) -> Iterable[list]:
    """The variant's rows of the threshold table: the call raises any error
    of the table, and the b-class rows are computed as they are read."""
    ec_class, mixing, coupling = variant
    name = variant_name(*variant)
    x = float_base(D, N)
    if ec_class is ECClass.A:
        p_th = a_root(mixing, coupling, x, N)
        return [[name, D, N, None, p_th, p_th]]
    m_values = m_abs_values(N, m_abs)
    roots = b_roots(mixing, coupling, x, N, m_values)
    return ([name, D, N, m, *sorted(pair)] for m, pair in zip(m_values, roots))


def cmd_ec_threshold(args) -> Iterable[str]:
    if args.ec_class is None:
        if args.mixing is not None or args.coupling is not None:
            raise ValueError(
                "pass all of --class/--mixing/--coupling for one variant, "
                "or none of them for the full table"
            )
        if args.format != "csv":
            raise ValueError("the all-variant threshold table is CSV only")
        variants = all_variants()
    elif args.mixing is None or args.coupling is None:
        raise ValueError("--mixing and --coupling are required alongside --class")
    else:
        variants = [_variant(args)]
    # the CSV table has a row per variant and |m|; the JSON payload is one
    # threshold in full
    if args.format == "csv":
        tables = [_threshold_rows(v, args.D, args.N, args.m_abs) for v in variants]
        header = ["variant", "D", "N", "m_abs", "p_th1", "p_th2"]
        return _payload(args, "ec-threshold", header, chain.from_iterable(tables))

    (variant,) = variants
    if variant[0] is ECClass.B and args.m_abs is None:
        raise ValueError("b-class JSON threshold needs --m-abs (use CSV for all values)")
    th = threshold(*variant, args.D, args.N, args.m_abs)
    fields = {
        "variant": variant_name(*variant),
        "D": args.D,
        "N": args.N,
        "m_abs": th.m_abs,
        "kind": th.kind.value,
        "p_th": th.p_th1,
        "p_th1": th.p_th1,
        "p_th2": th.p_th2,
        "window": th.window,
        "separable_region": th.separable_region,
    }
    # a single threshold carries no |m| or window; a window no single p_th
    for key in ("m_abs", "window") if variant[0] is ECClass.A else ("p_th",):
        del fields[key]
    return _payload(args, "ec-threshold", fields.keys(), [fields.values()])


def _grid(args) -> list[float]:
    if args.steps < 0:
        raise ValueError(f"--steps must be non-negative, got {args.steps}")
    if args.steps > ENUMERATION_CAP:
        raise ValueError(f"--steps {args.steps} exceeds the grid limit {ENUMERATION_CAP}")
    with np.errstate(over="ignore", invalid="ignore"):  # a NaN point is ECParams' error
        grid = np.linspace(args.p_start, args.p_end, args.steps)
    return [float(p) for p in grid]


def _b_closed_W_binding(params: ECParams, m_abs: int) -> float | None:
    """min over the signed branches m = +-m_abs; None where the closed form
    diverges (zero base under a negative power at a p endpoint)."""
    m_j = sum(params.b_sites)
    values = []
    for m in (m_abs, -m_abs):
        p = params.p_real
        if (p == 0.0 and params.N - m_j + m < 0) or (p == 1.0 and m_j - m < 0):
            continue
        values.append(closed_form_W(params, m_j=m_j, m=m))
    return min(values) if values else None


def cmd_ec_sweep(args) -> Iterable[str]:
    variant = _variant(args)
    name = variant_name(*variant)
    if variant[0] is ECClass.B and args.m_abs is None:
        raise ValueError("b-class sweeps need --m-abs")
    th = threshold(*variant, args.D, args.N, args.m_abs)
    subset = PartySubset((0,), args.N)
    j0 = (0,) * args.N
    rows = []
    for p in _grid(args):
        params = _params(variant, args, complex(p))
        # the operator checks the dimension cap before any closed form runs,
        # and W_matrix is read from its site factors: no D^N x D^N matrix
        op = ec_operator(params)
        if variant[0] is ECClass.A:
            w_closed = closed_form_W(params)
        else:
            w_closed = _b_closed_W_binding(params, args.m_abs)
        verdict = classify_ec(params, args.m_abs)
        w_matrix = causal_W(op, j0, subset, params.coupling).W
        rows.append(
            [name, args.D, args.N, p, w_closed, w_matrix, th.p_th1, th.p_th2, verdict.value]
        )
    header = ["variant", "D", "N", "p", "W_closed", "W_matrix", "p_th1", "p_th2", "verdict"]
    head = {"variant": name, "D": args.D, "N": args.N}
    return _payload(args, "ec-sweep", header, rows, "rows", head=head)


def cmd_classify(args) -> Iterable[str]:
    rho = load_matrix(args.input)
    report = classify(rho, CouplingMode(args.coupling))
    header = ["config", "subset", "P_ignorance", "P_transition", "W", "verdict"]
    return _payload(args, "classify", header, report, head={"D": rho.D, "N": rho.N})


def cmd_ppt(args) -> Iterable[str]:
    rho = load_matrix(args.input)
    if args.subset is not None:
        checks = [ppt_check(rho, PartySubset(args.subset, rho.N))]
    else:
        checks = ppt_report(rho)
    overall = "npt_entangled" if any_npt(checks) else "ppt_separable_consistent"
    rows = [[v.subset.members, v.min_eigenvalue, v.verdict.value, v.conclusive] for v in checks]
    return _payload(
        args, "ppt", ["subset", "min_eigenvalue", "verdict", "conclusive"], rows, "checks",
        head={"D": rho.D, "N": rho.N}, tail={"overall": overall},
    )


def cmd_compare(args) -> Iterable[str]:
    variant = _variant(args)
    if variant[0] is ECClass.B:
        if args.m_abs is None:
            raise ValueError("b-class comparisons need --m-abs")
        threshold(*variant, args.D, args.N, args.m_abs)  # checks the range of --m-abs
    name = variant_name(*variant)
    mode = variant[2]
    rows = []
    disagreements = 0
    causal = None
    for p in _grid(args):
        params = _params(variant, args, complex(p))
        tr = ec_operator(params).trace()  # the dense matrix's, bit for bit
        if tr <= 1e-300:
            raise ValueError(f"matrix trace vanishes at p={p!r}; shrink the p range")
        # class b: rho / trace is the same matrix at every p (see ec_family),
        # so it is built and classified at the first p only
        if causal is None or variant[0] is ECClass.A:
            rho = build_ec_matrix(params)
            if not rho.normalized:
                # dividing by a real scalar keeps the matrix exactly Hermitian
                rho = DensityMatrix._adopt(rho.D, rho.N, rho.matrix / tr, True, hermitian=True)
            causal = classify(rho, mode).overall
        # a partial transpose keeps an EC matrix's spectrum, so every cut is
        # NPT exactly when the normalized matrix has a negative eigenvalue
        npt = ec_min_eigenvalue(params) / tr < -PPT_TOL
        ppt_side = "npt_entangled" if npt else "ppt_separable_consistent"
        agree = (causal is OverallVerdict.ENTANGLED) == npt
        if not agree:
            disagreements += 1
        rows.append([name, args.D, args.N, p, causal.value, ppt_side, agree])
    header = ["variant", "D", "N", "p", "causal", "ppt", "agree"]
    head = {"variant": name, "D": args.D, "N": args.N, "disagreements": disagreements}
    return _payload(args, "compare", header, rows, "rows", head=head)


def cmd_duality(args) -> Iterable[str]:
    r_a, r_b = duality_residuals(args.D, args.N)
    return _payload(args, "duality", ["D", "N", "r_a", "r_b"], [[args.D, args.N, r_a, r_b]])


def cmd_crossover(args) -> Iterable[str]:
    return _payload(args, "crossover", ["D", "N_cr"], [[args.D, crossover_N(args.D)]])


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a command raises its errors before returning, so they come before
        # any output; the text pieces it returns are then written one at a time
        chunks = args.func(args)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
        else:
            sys.stdout.writelines(chunks)
    except (MatrixFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
