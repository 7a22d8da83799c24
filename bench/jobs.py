"""Seeded job lists, set-up inputs and independent output checks.

Nothing here imports ``causal_sep``: inputs are written and outputs are
verified with plain numpy, so a defect in the program cannot also hide in
its own check.  Matrix entries come from one of two oracles, a dense array
(random states) or the EC site-product form (EC states).  Partial-transpose
spectra are recomputed with a dense eigensolve, and criterion values with a
direct gather:

    <j| rho^{T_S} |l> = rho[j with S-labels from l, l with S-labels from j]
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import reduce
from pathlib import Path

import numpy as np

SCHEMA = "causal-sep/1"
W_TOL = 1e-10       # the program's entangled/separable decision tolerance
CHECK_TOL = 1e-12   # agreement required between program and oracle values
SIGN_ZERO = 1e-12   # |W| below this has no sign for the closed-vs-matrix test
EIG_TOL = 1e-10     # agreement required between program and oracle eigenvalues
CLASSIFY_SAMPLES = 48
BOTH_MODES = ("free", "coupled")
VARIANTS = [(c, mx, cp) for c in "ab" for mx in ("weak", "strong") for cp in ("free", "coupled")]

# Job-list sizes.  "full" is the benchmark; "tiny" keeps every job kind at
# the smallest sizes so the self-test runs in seconds.
SIZES = {
    "full": {
        # (D, N, state, coupling modes): the (2,8) states run in both modes
        # and give 16 of the 20 ops a run, so the median invocation sits near
        # the middle of that class; (3,5) and (4,4) run in one mode each
        # (both modes stay covered at mid sizes), since two more ops below
        # the class would pull the median to its noisy lower edge
        "classify": [(2, 8, "rand", BOTH_MODES), (2, 8, "rand", BOTH_MODES),
                     (2, 8, "rand", BOTH_MODES), (2, 8, "ec", BOTH_MODES),
                     (3, 5, "rand", ("free",)), (4, 4, "ec", ("coupled",))],
        "cross": [(2, 2), (2, 3), (3, 3), (3, 4)],
        # no sweeps at (2,2): the compares there already build and score
        # every variant, and the sign-mismatch counter lives at (2,3)..(3,4)
        "cross_sweeps": [(2, 3), (3, 3), (3, 4)],
        "cross_variants": VARIANTS,
        "compare_steps": 21,
        # the (3,4) compares run three times a pass: they are the slowest
        # ops, about twice the start-up-bound ones, and with 24 of 72 the
        # tail percentile (ten invocations above it) sits near the median of
        # their class rather than on its sparse edge or on a class boundary
        "compare_repeats": {(3, 4): 3},
        "sweep_steps": 101,
        # one 1024-dim save and load: a (4,5) pair would add about 11 s a
        # run for the same density I/O paths
        "cap_io": [(2, 10)],
        "cap_classify": (2, 10),
        "cap_sweep": [(2, 12), (4, 6)],
        "cap_sweep_steps": 2,
    },
    "tiny": {
        "classify": [(2, 3, "rand", BOTH_MODES), (2, 3, "ec", BOTH_MODES)],
        "cross": [(2, 2)],
        "cross_sweeps": [(2, 2)],
        "cross_variants": [("a", "weak", "coupled"), ("b", "strong", "free")],
        "compare_steps": 3,
        "compare_repeats": {},
        "sweep_steps": 5,
        "cap_io": [(2, 4)],
        "cap_classify": (2, 4),
        "cap_sweep": [(2, 5)],
        "cap_sweep_steps": 2,
    },
}


# ---------------------------------------------------------------------------
# matrix oracles
# ---------------------------------------------------------------------------

def _digits(idx: np.ndarray, D: int, N: int) -> np.ndarray:
    """Row-major labels of flat indices, last party fastest: shape (..., N)."""
    powers = D ** np.arange(N - 1, -1, -1)
    return (np.asarray(idx)[..., None] // powers) % D


def _index(labels: np.ndarray, D: int) -> np.ndarray:
    N = labels.shape[-1]
    return labels @ (D ** np.arange(N - 1, -1, -1))


class DenseOracle:
    def __init__(self, D: int, N: int, matrix: np.ndarray):
        self.D, self.N, self.matrix = D, N, matrix

    def entries(self, rows, cols) -> np.ndarray:
        return self.matrix[rows, cols]


class ECOracle:
    """EC matrix entries as two site products; ``dense`` materializes it.

    rho = Dsite_1 (x) ... (x) Dsite_N + Osite_1 (x) ... (x) Osite_N, with the
    site factors of the family definition (class a unit trace, class b
    unnormalized with b_sites all 1).
    """

    def __init__(self, ec_class: str, mixing: str, D: int, N: int, p: complex):
        self.D, self.N = D, N
        hub = np.zeros((D, D), dtype=np.complex128)
        hub[1:, 0] = 1.0
        if ec_class == "a":
            a = abs(p)
            d = np.diag([1.0 - a] + [a / (D - 1)] * (D - 1)).astype(np.complex128)
            amp = p if mixing == "strong" else p / (D - 1)
            o = amp * hub + np.conj(amp) * hub.T
        else:
            f = 1.0 - p.real  # b_sites all 1
            d = f * np.diag([1.0] + [1.0 / (D - 1)] * (D - 1)).astype(np.complex128)
            amp = f if mixing == "strong" else f / (D - 1)
            o = amp * (hub + hub.T)
        self.diag_site, self.off_site = d, o

    def entries(self, rows, cols) -> np.ndarray:
        r = _digits(rows, self.D, self.N)
        c = _digits(cols, self.D, self.N)
        left = np.ones(r.shape[:-1], dtype=np.complex128)
        right = np.ones(r.shape[:-1], dtype=np.complex128)
        for n in range(self.N):
            left = left * self.diag_site[r[..., n], c[..., n]]
            right = right * self.off_site[r[..., n], c[..., n]]
        return left + right

    def dense(self) -> np.ndarray:
        return reduce(np.kron, [self.diag_site] * self.N) + reduce(np.kron, [self.off_site] * self.N)


def partial_transpose(matrix: np.ndarray, D: int, N: int, subset) -> np.ndarray:
    """Dense partial transpose over the parties in ``subset``."""
    axes = list(range(2 * N))
    for n in subset:
        axes[n], axes[N + n] = axes[N + n], axes[n]
    return matrix.reshape((D,) * (2 * N)).transpose(axes).reshape(D**N, D**N)


def pt_min_eigenvalue(matrix: np.ndarray, D: int, N: int, subset) -> float:
    return float(np.linalg.eigvalsh(partial_transpose(matrix, D, N, subset))[0])


def oracle_npt(matrix: np.ndarray, D: int, N: int) -> bool | None:
    """Whether any canonical split (subsets holding party 0) has a partial
    transpose eigenvalue below -W_TOL; None when one sits within CHECK_TOL
    of that threshold, where the program's verdict may go either way."""
    matrix = matrix / np.trace(matrix).real
    npt = False
    for size in range(1, N):
        for rest in itertools.combinations(range(1, N), size - 1):
            low = pt_min_eigenvalue(matrix, D, N, (0,) + rest)
            if abs(low + W_TOL) <= CHECK_TOL:
                return None
            npt |= low < -W_TOL
    return npt


def random_state(D: int, N: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Random PSD unit-trace matrix, exactly Hermitian in floating point."""
    dim = D**N
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2.0
    return m / np.trace(m).real


def write_matrix(path: Path, D: int, N: int, matrix: np.ndarray) -> None:
    """The program's matrix JSON format, floats as shortest round-trip text."""
    normalized = abs(np.trace(matrix).real - 1.0) <= 1e-12
    entries = np.ascontiguousarray(matrix).view(np.float64).reshape(-1, 2).tolist()
    payload = {"D": D, "N": N, "normalized": bool(normalized), "entries": entries}
    path.write_text(json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# criterion by direct gather
# ---------------------------------------------------------------------------

def partners(j: np.ndarray, D: int, mode: str) -> np.ndarray:
    if mode == "coupled":
        return (j[None, :] + np.arange(1, D)[:, None]) % D
    choices = [[x for x in range(D) if x != label] for label in j]
    return np.array(list(itertools.product(*choices)), dtype=np.int64).reshape(-1, len(j))


def gather_W(oracle, j, subset, mode: str) -> tuple[float, float, float]:
    """(P_ignorance, P_transition, W) at configuration j and party subset S."""
    D, N = oracle.D, oracle.N
    j = np.asarray(j, dtype=np.int64)
    in_s = np.zeros(N, dtype=bool)
    in_s[list(subset)] = True
    swapped = "free" if mode == "coupled" else "coupled"
    jj = _index(j, D)
    ign = _index(partners(j, D, mode), D)
    p_ign = float(oracle.entries(jj, jj).real * oracle.entries(ign, ign).real.sum())
    trans = partners(j, D, swapped)
    rows = _index(np.where(in_s, trans, j), D)
    cols = _index(np.where(in_s, j, trans), D)
    p_trans = float((np.abs(oracle.entries(rows, cols)) ** 2).sum())
    return p_ign, p_trans, p_ign - p_trans


def greedy_distinct_count(D: int, N: int) -> int:
    distinct = np.empty((0, N), dtype=np.int64)
    for c in _digits(np.arange(D**N), D, N):
        if not (distinct != c).all(axis=1).any():
            distinct = np.vstack([distinct, c])
    return len(distinct)


def _tol(values) -> float:
    """CHECK_TOL relative to the largest term (class-b states are unnormalized)."""
    return CHECK_TOL * max(1.0, *(abs(v) for v in values))


def _sign(w: float) -> int:
    return 0 if abs(w) <= SIGN_ZERO else (1 if w > 0 else -1)


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------

@dataclass
class Op:
    """One CLI invocation and what its output must satisfy."""

    kind: str                      # classify | compare | sweep | build | ppt
    argv: list[str]                # arguments after ``python -m causal_sep.cli``
    D: int
    N: int
    oracle: object = None          # matrix the op reads or builds
    out: Path | None = None        # --out file, for build
    info: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return f"{self.kind}({self.D},{self.N})"


@dataclass
class Outcome:
    wrong: str | None = None       # first failed check, None when correct
    scores: int = 0                # criterion scores emitted (classify)
    rows: int = 0                  # grid rows emitted (compare, sweep)
    sign_mismatches: int = 0       # a-weak-coupled closed-vs-matrix sign flips
    gap: float = 0.0               # a-weak-coupled max |W_closed - W_matrix|


def _variant_flags(ec_class: str, mixing: str, coupling: str) -> list[str]:
    return ["--class", ec_class, "--mixing", mixing, "--coupling", coupling]


def build_jobs(workload: str, seed: int, work: Path, scale: str = "full") -> list[Op]:
    """The workload's job list for one pass, writing any input files to ``work``."""
    rng = np.random.default_rng([seed, sum(map(ord, workload))])
    sizes = SIZES[scale]
    if workload == "classify-batch":
        return _classify_batch(rng, sizes, work)
    if workload == "cross-validate":
        return _cross_validate(rng, sizes)
    if workload == "dim-cap":
        return _dim_cap(rng, sizes, work)
    raise ValueError(f"unknown workload {workload!r}")


def _classify_batch(rng, sizes, work: Path) -> list[Op]:
    ops = []
    for k, (D, N, state, modes) in enumerate(sizes["classify"]):
        if state == "rand":
            matrix = random_state(D, N, int(rng.integers(2, 9)), rng)
        else:
            p = complex(rng.uniform(0.1, 0.9) * np.exp(1j * rng.uniform(0.0, 2 * np.pi)))
            matrix = ECOracle("a", str(rng.choice(["weak", "strong"])), D, N, p).dense()
        oracle = DenseOracle(D, N, matrix)
        path = work / f"{state}{D}_{N}_{k}.json"
        write_matrix(path, D, N, matrix)
        for mode in modes:
            argv = ["classify", "--input", str(path), "--coupling", mode]
            ops.append(Op("classify", argv, D, N, oracle, info={"mode": mode}))
    return ops


def _cross_validate(rng, sizes) -> list[Op]:
    ops = []
    for D, N in sizes["cross"]:
        for ec_class, mixing, coupling in sizes["cross_variants"]:
            flags = _variant_flags(ec_class, mixing, coupling) + ["--D", str(D), "--N", str(N)]
            info = {"variant": (ec_class, mixing, coupling)}
            if ec_class == "a":
                # class-a sweeps keep the fixed 101-point [0, 1] grid the
                # sign-mismatch counter is defined on
                compare_end, sweep_end = float(rng.uniform(0.9, 1.0)), 1.0
            else:
                # p = 1 zeroes the class-b trace (a documented domain error)
                flags += ["--m-abs", str(int(rng.integers(1, N)))]
                compare_end = sweep_end = float(rng.uniform(0.9, 0.99))
            compare = flags + ["--steps", str(sizes["compare_steps"]), "--p-end", repr(compare_end)]
            sweep = flags + ["--steps", str(sizes["sweep_steps"]), "--p-end", repr(sweep_end)]
            for _ in range(sizes["compare_repeats"].get((D, N), 1)):
                ops.append(Op("compare", ["compare"] + compare, D, N, info=info))
            if (D, N) in sizes["cross_sweeps"]:
                ops.append(Op("sweep", ["ec", "sweep"] + sweep, D, N, info=info))
    return ops


def _dim_cap(rng, sizes, work: Path) -> list[Op]:
    ops = []
    for D, N in sizes["cap_io"]:
        mixing = str(rng.choice(["weak", "strong"]))
        p = complex(rng.uniform(0.1, 0.9) * np.exp(1j * rng.uniform(0.0, 2 * np.pi)))
        oracle = ECOracle("a", mixing, D, N, p)
        path = work / f"cap{D}_{N}.json"
        argv = (["ec", "build"] + _variant_flags("a", mixing, "free")
                + ["--D", str(D), "--N", str(N), "--p", str(p), "--out", str(path)])
        ops.append(Op("build", argv, D, N, oracle, out=path))
        # one load per saved file: the ppt op sits between the faster build
        # and the slower sweeps, so the median of the four ops that succeed
        # at the seed is the mean of the ppt op and the faster sweep
        size = int(rng.integers(1, N))
        subset = sorted(int(x) for x in rng.choice(N, size=size, replace=False))
        argv = ["ppt", "--input", str(path), "--subset", ",".join(map(str, subset))]
        ops.append(Op("ppt", argv, D, N, oracle, info={"subset": subset}))
        if (D, N) == sizes["cap_classify"]:
            # D^N = 1024 sits inside the dimension cap; at the seed this op
            # runs into the memory ceiling and is counted as failed
            argv = ["classify", "--input", str(path)]
            ops.append(Op("classify", argv, D, N, oracle, info={"mode": "free"}))
    for D, N in sizes["cap_sweep"]:
        ec_class, mixing, coupling = VARIANTS[int(rng.integers(len(VARIANTS)))]
        flags = _variant_flags(ec_class, mixing, coupling) + ["--D", str(D), "--N", str(N)]
        if ec_class == "b":
            flags += ["--m-abs", str(int(rng.integers(1, N)))]
        lo, hi = sorted(float(x) for x in rng.uniform(0.05, 0.95, size=2))
        flags += ["--steps", str(sizes["cap_sweep_steps"]), "--p-start", repr(lo), "--p-end", repr(hi)]
        ops.append(Op("sweep", ["ec", "sweep"] + flags, D, N,
                      info={"variant": (ec_class, mixing, coupling)}))
    return ops


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def check(op: Op, stdout: str, rng: np.random.Generator) -> Outcome:
    """Verify one successful op's output; ``wrong`` names the first failure."""
    try:
        if op.kind == "build":
            return _check_build(op)
        payload = json.loads(stdout)
        if not isinstance(payload, dict) or payload.get("schema") != SCHEMA:
            return Outcome(wrong=f"payload lacks schema {SCHEMA!r}")
        return {"classify": _check_classify, "compare": _check_compare,
                "sweep": _check_sweep, "ppt": _check_ppt}[op.kind](op, payload, rng)
    except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
        return Outcome(wrong=f"unreadable output: {type(exc).__name__}: {exc}")


def _check_classify(op: Op, payload: dict, rng) -> Outcome:
    scores = payload["scores"]
    mode = op.info["mode"]
    if payload["mode"] != mode or (payload["D"], payload["N"]) != (op.D, op.N):
        return Outcome(wrong="classify header does not match the input")
    n_subsets = 2 ** (op.N - 1) - 1
    configs = {tuple(s["config"]) for s in scores}
    if len(configs) != greedy_distinct_count(op.D, op.N) or len(scores) != len(configs) * n_subsets:
        return Outcome(wrong=f"classify emitted {len(scores)} scores over {len(configs)} configurations")
    entangled = False
    for s in scores:
        if s["subset"][0] != 0 or (s["verdict"] == "m_entangled") != (s["W"] < -W_TOL):
            return Outcome(wrong=f"score verdict inconsistent at {s['config']} {s['subset']}")
        entangled |= s["verdict"] == "m_entangled"
    if payload["overall"] != ("entangled" if entangled else "separable_by_criterion"):
        return Outcome(wrong="overall verdict disagrees with the scores")
    for k in rng.choice(len(scores), size=min(CLASSIFY_SAMPLES, len(scores)), replace=False):
        s = scores[int(k)]
        want = gather_W(op.oracle, s["config"], s["subset"], mode)
        got = (s["P_ignorance"], s["P_transition"], s["W"])
        if max(abs(a - b) for a, b in zip(want, got)) > _tol(want):
            return Outcome(wrong=f"W at {s['config']} {s['subset']} is {got}, gather gives {want}")
    return Outcome(scores=len(scores))


def _grid(argv: list[str]) -> list[float]:
    flag = lambda name, default: float(argv[argv.index(name) + 1]) if name in argv else default
    steps = int(flag("--steps", 101))
    return [float(p) for p in np.linspace(flag("--p-start", 0.0), flag("--p-end", 1.0), steps)]


def _check_compare(op: Op, payload: dict, rng) -> Outcome:
    rows = payload["rows"]
    if [r["p"] for r in rows] != _grid(op.argv):
        return Outcome(wrong="compare grid does not match the request")
    disagree = 0
    for r in rows:
        agree = (r["causal"] == "entangled") == (r["ppt"] == "npt_entangled")
        if r["agree"] != agree:
            return Outcome(wrong=f"compare agree flag wrong at p={r['p']}")
        disagree += not agree
    if payload["disagreements"] != disagree:
        return Outcome(wrong="compare disagreement count wrong")
    ec_class, mixing, _ = op.info["variant"]
    for r in rows:
        npt = oracle_npt(ECOracle(ec_class, mixing, op.D, op.N, complex(r["p"])).dense(), op.D, op.N)
        if npt is not None and (r["ppt"] == "npt_entangled") != npt:
            return Outcome(wrong=f"compare ppt verdict at p={r['p']} disagrees with the dense eigensolve")
    if (op.D, op.N) == (2, 2) and disagree:
        return Outcome(wrong=f"{disagree} D=2,N=2 rows disagree where PPT is conclusive")
    return Outcome(rows=len(rows))


def _check_sweep(op: Op, payload: dict, rng) -> Outcome:
    rows = payload["rows"]
    if [r["p"] for r in rows] != _grid(op.argv):
        return Outcome(wrong="sweep grid does not match the request")
    ec_class, mixing, coupling = op.info["variant"]
    out = Outcome(rows=len(rows))
    j0, subset = (0,) * op.N, (0,)
    for r in rows:
        oracle = ECOracle(ec_class, mixing, op.D, op.N, complex(r["p"]))
        p_ign, p_trans, want = gather_W(oracle, j0, subset, coupling)
        if abs(want - r["W_matrix"]) > _tol((p_ign, p_trans)):
            return Outcome(wrong=f"W_matrix at p={r['p']} is {r['W_matrix']}, gather gives {want}")
        if ec_class != "a":
            continue
        flipped = _sign(r["W_closed"]) != _sign(r["W_matrix"])
        if (mixing, coupling) == ("weak", "coupled"):
            # known closed-form/matrix divergence: counted, never filtered
            out.sign_mismatches += flipped
            out.gap = max(out.gap, abs(r["W_closed"] - r["W_matrix"]))
        elif flipped:
            return Outcome(wrong=f"sign(W_closed) != sign(W_matrix) at p={r['p']}")
    return out


def _check_ppt(op: Op, payload: dict, rng) -> Outcome:
    checks = payload["checks"]
    if len(checks) != 1 or checks[0]["subset"] != op.info["subset"]:
        return Outcome(wrong="ppt did not report exactly the requested subset")
    v = checks[0]
    want = pt_min_eigenvalue(op.oracle.dense(), op.D, op.N, op.info["subset"])
    if not math.isfinite(v["min_eigenvalue"]) or abs(v["min_eigenvalue"] - want) > EIG_TOL * max(1.0, abs(want)):
        return Outcome(wrong=f"ppt min eigenvalue {v['min_eigenvalue']}, dense eigensolve gives {want}")
    npt = v["min_eigenvalue"] < -W_TOL
    if (v["verdict"] == "npt_entangled") != npt or v["conclusive"] != (op.D == 2 and op.N == 2):
        return Outcome(wrong="ppt verdict inconsistent with its eigenvalue")
    if payload["overall"] != ("npt_entangled" if npt else "ppt_separable_consistent"):
        return Outcome(wrong="ppt overall verdict inconsistent")
    return Outcome()


def _check_build(op: Op) -> Outcome:
    payload = json.loads(op.out.read_text(encoding="utf-8"))
    dim = op.D**op.N
    if (payload["D"], payload["N"]) != (op.D, op.N) or len(payload["entries"]) != dim * dim:
        return Outcome(wrong="built matrix has the wrong shape")
    flat = np.array(payload["entries"], dtype=np.float64)
    want = op.oracle.dense()
    if np.max(np.abs(flat[:, 0] + 1j * flat[:, 1] - want.ravel())) > CHECK_TOL:
        return Outcome(wrong="built matrix entries differ from the EC site products")
    if payload["normalized"] != (abs(np.trace(want).real - 1.0) <= 1e-12):
        return Outcome(wrong="built matrix normalized flag is wrong")
    return Outcome()
