"""Equally-connected (EC) one-parameter density-matrix family.

Eight variants: class (a | b) x mixing (weak | strong) x coupling
(free | coupled).  Class a mixes a distinguished configuration (0,...,0)
with every completely orthogonal partner at equal weight |p|; class b
carries a per-site binary pattern b_sites and real p in [0, 1].  The
coupling never changes the matrix -- it selects the partner counting
inside the criterion.

Matrices come from the defining recurrence, which telescopes into a sum
of two site products:

    rho = Dsite_1 (x) ... (x) Dsite_N  +  Osite_1 (x) ... (x) Osite_N

  class a:  Dsite = diag(1-|p|, |p|/(D-1), ..., |p|/(D-1))
            Osite = amp * sum_k |k><0|  +  conj(amp) * sum_k |0><k|,
            amp = p/(D-1) (weak) or p (strong)
  class b:  Dsite_n = f_n * diag(1, 1/(D-1), ..., 1/(D-1))
            Osite_n = amp_n * sum_k (|k><0| + |0><k|),
            f_n = (1-p) if b_sites[n] else p,
            amp_n = f_n/(D-1) (weak) or f_n (strong)

``ec_operator`` holds the 2N site factors as a ``KronSum``, which reads
any entry as those two products without materializing the D^N x D^N
matrix; ``build_ec_matrix`` multiplies them out with ``np.kron``.

Class a has unit trace; class b has trace prod_n 2*f_n and is NOT
renormalized -- the ``normalized`` flag on the result reports the actual
trace.  Neither class is guaranteed positive semidefinite at large p;
that violation is part of what the oracles measure, and every sign-of-W
conclusion is invariant under positive rescaling.

The class-b matrix is F * (Dhat (x) ... (x) Dhat + Ohat_1 (x) ... (x) Ohat_N)
with F = prod_n f_n and p-free site factors Dhat = Dsite_n / f_n,
Ohat_n = Osite_n / f_n.  So rho / trace is the same matrix for every p in
(0, 1): the sign of W_matrix, both ``compare`` verdicts and the minimum
eigenvalue over the trace are constant in p, and no class-b matrix probe
can reproduce the closed-form window, which varies with p.

``ec_min_eigenvalue`` reads the smallest eigenvalue off the site factors
in closed form; it also decides the PPT test on every cut.

Threshold formula map (x = D-1, stable logistic 1/(1 + x**g)):

  class a (single threshold in |p|):
      weak  free     g = -(2 - 1/N)
      strong free    g = +1/N
      weak  coupled  g = -1/N
      strong coupled g = +(2 - 1/N)
  class b (window in p, per |m| = 1..N-1, bracket constant c = x**e):
      weak  free     e = -(2N - 1)
      strong free    e = +1
      weak  coupled  e = -1
      strong coupled e = +(2N - 1)
      lower root (constraint p >=) = 1/(1 + c**(-1/(2|m|)))
      upper root (constraint p <=) = 1/(1 + c**(+1/(2|m|)))

For strong mixing with D > 2 the roots invert (lower > upper): the
separable window is empty.  At D = 2 every b-window collapses to the
single point p = 1/2 exactly (g = 0 in the logistic).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import density
from .config_calculus import ENUMERATION_CAP, CouplingMode, check_dims, is_integer, label_weights
from .density import TRACE_TOL, DensityMatrix


class ECClass(Enum):
    A = "a"
    B = "b"


class Mixing(Enum):
    WEAK = "weak"
    STRONG = "strong"


class ECVerdict(Enum):
    SEPARABLE = "separable"
    ENTANGLED = "entangled"


@dataclass(frozen=True)
class ECParams:
    ec_class: ECClass
    mixing: Mixing
    coupling: CouplingMode
    D: int
    N: int
    p: complex
    b_sites: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        check_dims(self.D, self.N, D_min=2, N_min=2)
        p = complex(self.p)
        if self.ec_class is ECClass.A:
            if self.b_sites is not None:
                raise ValueError("b_sites applies to the b-class only")
            if not abs(p) <= 1.0 + 1e-12:  # NaN fails too
                raise ValueError(f"class-a mixing parameter needs |p| <= 1, got |p| = {abs(p)}")
        else:
            if p.imag != 0.0:
                raise ValueError("b-class mixing parameter must be real")
            if not 0.0 <= p.real <= 1.0:
                raise ValueError(f"b-class mixing parameter must lie in [0, 1], got {p.real}")
            sites = tuple(self.b_sites if self.b_sites is not None else (1,) * self.N)
            if len(sites) != self.N:
                raise ValueError(
                    f"b_sites must have length N={self.N}, got {len(sites)}"
                )
            if not all(is_integer(s) and s in (0, 1) for s in sites):
                raise ValueError(f"b_sites entries must be 0 or 1, got {sites!r}")
            object.__setattr__(self, "b_sites", tuple(map(int, sites)))
        object.__setattr__(self, "p", p)

    @property
    def p_abs(self) -> float:
        return abs(self.p)

    @property
    def p_real(self) -> float:
        return float(self.p.real)


def variant_name(ec_class: ECClass, mixing: Mixing, coupling: CouplingMode) -> str:
    return f"{ec_class.value}-{mixing.value}-{coupling.value}"


def all_variants() -> list[tuple[ECClass, Mixing, CouplingMode]]:
    return [
        (c, mx, cp)
        for c in (ECClass.A, ECClass.B)
        for mx in (Mixing.WEAK, Mixing.STRONG)
        for cp in (CouplingMode.N_FREE, CouplingMode.N_COUPLED)
    ]


# ---------------------------------------------------------------------------
# matrix construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class KronSum:
    """The EC matrix Dsite_0 (x) ... (x) Dsite_{N-1} + Osite_0 (x) ... (x)
    Osite_{N-1}, held as its 2N site factors (two (N, D, D) stacks).

    ``entries`` reads any entry as two products of N site factors, taken in
    party order with the diagonal product added first, the order in which
    ``np.kron`` forms them: every entry equals the dense matrix's bit for bit.
    """

    D: int
    N: int
    diag_sites: np.ndarray
    off_sites: np.ndarray

    @property
    def dim(self) -> int:
        return self.D**self.N

    def entries(self, flat: np.ndarray) -> np.ndarray:
        """Entries at the row-major flat indices ``row * dim + col``."""
        # a leading axis over the parties holds the site labels of row and col
        shape = (self.N,) + (1,) * flat.ndim
        powers = label_weights(self.D, self.N).reshape(shape)
        row, col = np.divmod(flat, self.dim)
        at = (np.arange(self.N).reshape(shape), row // powers % self.D, col // powers % self.D)
        return reduce(np.multiply, self.diag_sites[at]) + reduce(np.multiply, self.off_sites[at])

    def trace(self) -> float:
        """The real part of the trace, the diagonal summed as ``np.trace``
        sums it: bit for bit the dense matrix's ``DensityMatrix.trace()``."""
        return float(self.entries(np.arange(self.dim) * (self.dim + 1)).sum().real)


def ec_operator(params: ECParams) -> KronSum:
    """The site factors of the EC matrix in ``params``, from the recurrence.

    The coupling mode is carried in ``params`` but does not enter the
    matrix; it only selects the partner counting when the criterion is
    evaluated on the result.
    """
    D, N = params.D, params.N
    check_dims(D, N, capped=True)

    hub_lower = np.zeros((D, D), dtype=np.complex128)
    hub_lower[1:, 0] = 1.0

    if params.ec_class is ECClass.A:
        a = params.p_abs
        site_d = np.diag([1.0 - a] + [a / (D - 1)] * (D - 1)).astype(np.complex128)
        amp = params.p if params.mixing is Mixing.STRONG else params.p / (D - 1)
        site_o = amp * hub_lower + np.conj(amp) * hub_lower.conj().T
        diag_sites = np.stack([site_d] * N)
        off_sites = np.stack([site_o] * N)
    else:
        p = params.p_real
        # one f_n per site, on a leading axis over the parties
        f = np.where(np.array(params.b_sites) == 1, 1.0 - p, p)[:, None, None]
        site_d = np.diag([1.0] + [1.0 / (D - 1)] * (D - 1)).astype(np.complex128)
        amp = f if params.mixing is Mixing.STRONG else f / (D - 1)
        diag_sites = f * site_d
        off_sites = amp * (hub_lower + hub_lower.T)
    return KronSum(D, N, diag_sites, off_sites)


def build_ec_matrix(params: ECParams) -> DensityMatrix:
    """Materialize the EC matrix of ``ec_operator(params)`` as a dense
    D^N x D^N DensityMatrix.

    The matrix is written a block of rows at a time, each block the sum of
    the two site products' rows, so no second D^N x D^N array is held.
    Every entry is bit for bit ``reduce(np.kron, diag_sites) +
    reduce(np.kron, off_sites)``: the same factors multiplied in the same
    order, then one addition.  The site factors are Hermitian, and the
    conjugate factors multiply to the conjugate product exactly, so the
    matrix is Hermitian exactly and is adopted without a Hermiticity scan.
    Its entries are products of N site entries of modulus about 1 or less,
    so they are finite when the 2N site factors are.
    """
    op = ec_operator(params)
    if not (np.isfinite(op.diag_sites).all() and np.isfinite(op.off_sites).all()):
        raise ValueError("matrix entries must be finite")
    D, N, dim = op.D, op.N, op.dim
    # a block is the rows whose first ``fixed`` site labels agree, within
    # ROW_BLOCK_BYTES where it can be: fixed stops at N - 1, and before the
    # leading sites' product (16 D^(2 fixed) bytes) outgrows a block, so
    # that it is never a second whole matrix nor a large share of one
    fixed, budget = 0, density.ROW_BLOCK_BYTES
    while (fixed < N - 1 and 16 * dim * D ** (N - fixed) > budget
           and 16 * D ** (2 * fixed + 2) <= budget):
        fixed += 1
    matrix = np.empty((dim, dim), dtype=np.complex128)
    blocks = matrix.reshape(D**fixed, -1, dim)
    stacks = (op.diag_sites, op.off_sites)
    # the leading sites' product, formed once: its row b, times the other
    # sites from the left, is block b, the same products in the same order
    if fixed:
        heads = [reduce(np.kron, sites[:fixed]) for sites in stacks]
    for b, block in enumerate(blocks):
        chains = [[h[b : b + 1], *s[fixed:]] for h, s in zip(heads, stacks)] if fixed else stacks
        block[...] = reduce(np.kron, chains[0])
        block += reduce(np.kron, chains[1])
    trace = float(np.trace(matrix).real)
    return DensityMatrix._adopt(D, N, matrix, abs(trace - 1.0) <= TRACE_TOL, hermitian=True)


def ec_min_eigenvalue(params: ECParams) -> float:
    """Smallest eigenvalue of the EC matrix in ``params``, in O(N).

    Per site, take the basis {|0>, |u> = sum_{k>=1} |k>/sqrt(D-1), D-2
    vectors orthogonal to both}.  There Dsite is diag(d0, du, du, ...) and
    Osite maps |0> <-> |u> with modulus c = |Osite[1,0]| sqrt(D-1) and kills
    the rest.  So every 0/u string s pairs with its complement sbar in a
    2x2 block [[d_s, z*], [z, d_sbar]], |z| = prod_n c_n, whose eigenvalues
    are (d_s + d_sbar)/2 +- hypot((d_s - d_sbar)/2, |z|); d_s is the product
    of d0 over the 0-sites and du over the u-sites of s.  A string with an
    orthogonal site is an eigenvector of eigenvalue d_s for the 0/u string s
    that puts u there, which its block's lower eigenvalue never exceeds.

    For both classes d_s depends only on the number k of u-sites, so the
    string with u on the first k sites stands for every block of that k.
    The partial transpose over any parties only conjugates the phases of z,
    so this is also the minimum partial-transpose eigenvalue on every cut.
    """
    op = ec_operator(params)
    d0 = op.diag_sites[:, 0, 0].real
    du = op.diag_sites[:, 1, 1].real
    z = np.prod(np.abs(op.off_sites[:, 1, 0]) * math.sqrt(op.D - 1))
    one = np.ones(1)
    # products over the first k sites and over the last N-k, for k = 0..N
    head_0, head_u = (np.concatenate([one, np.cumprod(d)]) for d in (d0, du))
    tail_0, tail_u = (np.concatenate([np.cumprod(d[::-1])[::-1], one]) for d in (d0, du))
    d_s = head_u * tail_0
    d_sbar = head_0 * tail_u
    return float(np.min((d_s + d_sbar) / 2 - np.hypot((d_s - d_sbar) / 2, z)))


# ---------------------------------------------------------------------------
# closed-form W
# ---------------------------------------------------------------------------

def closed_form_W(
    params: ECParams, m_j: int | None = None, m: int | None = None
) -> float:
    """Closed-form criterion difference W for the variant in ``params``.

    Class a depends only on |p| (any phase cancels between the paired
    conjugate entries); m_j and m are accepted and ignored.  a-weak-coupled
    keeps the as-printed prefactor |p|^(2N): the matrix route at j = 0...0,
    S = {0} gives W_matrix with |p|^(2N) replaced by |p|^N, the same sign.  Class b needs
    m_j in 1..N (diagonal exponent of the probed configuration) and a
    signed m with 1 <= |m| <= N-1 (partner offset); the two-term expanded
    form is used so the p = 0, 1 endpoints stay finite wherever the
    algebra allows, and a domain error is raised where they genuinely
    diverge.
    """
    D, N = params.D, params.N
    x = float_base(D, N)
    if params.ec_class is ECClass.A:
        a = params.p_abs
        weak = params.mixing is Mixing.WEAK
        if params.coupling is CouplingMode.N_FREE:
            if weak:
                return a**N * ((1.0 - a) ** N - a**N / x ** (2 * N - 1))
            return a**N * ((1.0 - a) ** N - x * a**N)
        if weak:
            return (a ** (2 * N) / x**N) * (x * (1.0 - a) ** N - a**N)
        return a**N * ((1.0 - a) ** N / x ** (N - 1) - x**N * a**N)

    if m_j is None or m is None:
        raise ValueError("b-class closed form needs both m_j and m")
    if not is_integer(m_j) or not 1 <= m_j <= N:
        raise ValueError(f"m_j must be an integer in 1..N={N}, got {m_j!r}")
    if not is_integer(m) or m == 0 or abs(m) > N - 1:
        raise ValueError(f"m must be a nonzero integer with |m| <= N-1={N - 1}, got {m!r}")
    m_j, m = int(m_j), int(m)
    p = params.p_real
    c = x ** _b_bracket_exponent(params.mixing, params.coupling, N)
    term1 = _pow_finite(1.0 - p, 2 * m_j) * _pow_finite(p, 2 * (N - m_j))
    term2 = c * _pow_finite(1.0 - p, 2 * (m_j - m)) * _pow_finite(p, 2 * (N - m_j + m))
    w = term1 - term2
    if params.coupling is CouplingMode.N_COUPLED:
        w /= x ** (N - 1)
    return float(w)


def _pow_finite(base: float, exp: int) -> float:
    if base == 0.0 and exp < 0:
        raise ValueError(
            "closed-form W diverges: zero base raised to a negative power "
            "(p endpoint incompatible with these m_j, m)"
        )
    return float(base**exp)


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------

class ThresholdKind(Enum):
    SINGLE = "single"
    WINDOW = "window"


@dataclass(frozen=True)
class ThresholdResult:
    """Separability threshold(s) of one variant.

    ``p_th1 <= p_th2`` always (for SINGLE both equal the threshold).  For
    WINDOW kinds, ``window`` carries the branch-ordered separable interval
    (lower-bound root, upper-bound root) or None when the constraints are
    incompatible and the separable set is empty -- for strong mixing with
    D > 2 the sorted display pair reverses the branch order.
    """

    kind: ThresholdKind
    p_th1: float
    p_th2: float
    separable_region: str
    m_abs: int | None = None
    window: tuple[float, float] | None = None

    @property
    def p_th(self) -> float:
        if self.kind is not ThresholdKind.SINGLE:
            raise ValueError("p_th is defined for SINGLE thresholds only")
        return self.p_th1


def _inv1p_exp(t: float) -> float:
    """1/(1 + exp(t)) without overflow for any t."""
    if t >= 0.0:
        e = math.exp(-t)
        return e / (1.0 + e)
    return 1.0 / (1.0 + math.exp(t))


def a_root(mixing: Mixing, coupling: CouplingMode, x: float, N: int) -> float:
    """The class-a threshold 1/(1 + x**g) in |p|, through log space: exact
    0.5 when x == 1."""
    if coupling is CouplingMode.N_FREE:
        g = -(2.0 - 1.0 / N) if mixing is Mixing.WEAK else 1.0 / N
    else:
        g = -1.0 / N if mixing is Mixing.WEAK else (2.0 - 1.0 / N)
    return _inv1p_exp(g * math.log(x))


def _b_bracket_exponent(mixing: Mixing, coupling: CouplingMode, N: int) -> int:
    if coupling is CouplingMode.N_FREE:
        return -(2 * N - 1) if mixing is Mixing.WEAK else 1
    return -1 if mixing is Mixing.WEAK else (2 * N - 1)


def float_base(D: int, N: int) -> float:
    """The base D - 1 of the closed forms as a float, after ``check_dims``.
    A D or N whose D - 1 or exponent 2N - 1 lies beyond the float range is
    refused: the closed forms compute in floats."""
    check_dims(D, N, D_min=2, N_min=2)
    for name, value in (("D", D - 1), ("N", 2 * N - 1)):
        if value > sys.float_info.max:
            raise ValueError(f"{name} is beyond the float range of the closed forms")
    return float(D - 1)


def m_abs_values(N: int, m_abs: int | None = None) -> Sequence[int]:
    """The |m| of the b-class windows: ``[m_abs]``, checked to lie in
    1..N-1, or with no ``m_abs`` all of 1..N-1, refused past
    ``ENUMERATION_CAP`` values before any is computed."""
    if m_abs is not None:
        if not is_integer(m_abs) or not 1 <= m_abs <= N - 1:
            raise ValueError(f"m_abs must be an integer in 1..N-1={N - 1}, got {m_abs!r}")
        return [int(m_abs)]
    if N - 1 > ENUMERATION_CAP:
        raise ValueError(f"N - 1 = {N - 1} values of |m| exceed the limit {ENUMERATION_CAP}")
    return range(1, N)


def threshold_rows(
    ec_class: ECClass, mixing: Mixing, coupling: CouplingMode, D: int, N: int,
    m_abs: int | None = None,
) -> Iterable[tuple[int | None, float, float]]:
    """The closed-form threshold rows (|m|, lower, upper) of one variant; the
    call checks D and N, then (class b) m_abs, before any row is read.

    Class a has one row, (None, p_th, p_th), whatever m_abs is.  Class b has
    a row per |m| of ``m_abs_values(N, m_abs)``, computed as it is read: the
    window roots 1/(1 + c**(-+1/(2|m|))), c = x**e, in branch order (p >=
    lower from m = -|m|, p <= upper from m = +|m|), exact 0.5 when x == 1,
    each one ``math.exp`` (``np.exp`` differs in the last bit on some roots).
    """
    x = float_base(D, N)
    if ec_class is ECClass.A:
        p_th = a_root(mixing, coupling, x, N)
        return [(None, p_th, p_th)]
    return _window_rows(_b_bracket_exponent(mixing, coupling, N), x, m_abs_values(N, m_abs))


def _window_rows(e: int, x: float, m_values: Iterable[int]) -> Iterator[tuple[int, float, float]]:
    log_x = math.log(x)
    for m in m_values:
        t = e / (2.0 * m) * log_x
        yield m, _inv1p_exp(-t), _inv1p_exp(t)


def threshold(
    ec_class: ECClass,
    mixing: Mixing,
    coupling: CouplingMode,
    D: int,
    N: int,
    m_abs: int | None = None,
) -> ThresholdResult:
    """Closed-form separability threshold(s) for one variant.

    Class a yields a SINGLE threshold in |p| (m_abs is ignored).  Class b
    yields a WINDOW per |m| = m_abs in 1..N-1.
    """
    if ec_class is ECClass.B and m_abs is None:
        float_base(D, N)  # D and N are refused before the missing m_abs
        raise ValueError("b-class thresholds need m_abs (1 <= m_abs <= N-1)")
    ((m, lower, upper),) = threshold_rows(ec_class, mixing, coupling, D, N, m_abs)
    if ec_class is ECClass.A:
        return ThresholdResult(
            kind=ThresholdKind.SINGLE,
            p_th1=lower,
            p_th2=upper,
            separable_region=f"0 <= |p| <= {lower!r}",
        )
    window = (lower, upper) if lower <= upper else None
    if window is None:
        region = "empty (entangled at every p)"
    elif lower == upper:
        region = f"p = {lower!r} only"
    else:
        region = f"{lower!r} <= p <= {upper!r}"
    p1, p2 = sorted((lower, upper))
    return ThresholdResult(
        kind=ThresholdKind.WINDOW,
        p_th1=p1,
        p_th2=p2,
        separable_region=region,
        m_abs=m,
        window=window,
    )


def classify_ec(params: ECParams, m_abs: int | None = None) -> ECVerdict:
    """Threshold verdict for the parameter point in ``params``.

    Class a: separable iff |p| <= p_th.  Class b: separable iff p lies in
    the branch-ordered window for |m| = m_abs (closed interval; empty
    window means entangled everywhere).
    """
    if params.ec_class is ECClass.B and m_abs is None:
        raise ValueError("b-class verdict needs m_abs")
    th = threshold(params.ec_class, params.mixing, params.coupling, params.D, params.N, m_abs)
    if params.ec_class is ECClass.A:
        inside = params.p_abs <= th.p_th
    else:
        inside = th.window is not None and th.window[0] <= params.p_real <= th.window[1]
    return ECVerdict.SEPARABLE if inside else ECVerdict.ENTANGLED


# ---------------------------------------------------------------------------
# dualities and crossover
# ---------------------------------------------------------------------------

def duality_residuals(D: int, N: int) -> tuple[float, float]:
    """Numeric residuals of the weak/strong <-> free/coupled dualities.

    r_a: the a-class thresholds swap mixing when evaluated at the inverted
    base 1/(D-1) -- both pairings, literal substitution into the closed
    form.  r_b: the free-variant window roots equal the mixing-swapped
    coupled-variant roots in exchanged order (th1 <-> th2), for every
    |m| = 1..N-1.  Both residuals are expected to vanish to 1e-14.
    """
    r_a = r_b = 0.0
    for mix_free, mix_coupled in ((Mixing.WEAK, Mixing.STRONG), (Mixing.STRONG, Mixing.WEAK)):
        ((_, lhs, _),) = threshold_rows(ECClass.A, mix_free, CouplingMode.N_FREE, D, N)
        rhs = a_root(mix_coupled, CouplingMode.N_COUPLED, 1.0 / (D - 1), N)
        r_a = max(r_a, abs(lhs - rhs))
        free = threshold_rows(ECClass.B, mix_free, CouplingMode.N_FREE, D, N)
        coupled = threshold_rows(ECClass.B, mix_coupled, CouplingMode.N_COUPLED, D, N)
        for (_, th1_f, th2_f), (_, th1_c, th2_c) in zip(free, coupled):
            r_b = max(r_b, abs(th1_f - th2_c), abs(th2_f - th1_c))
    return r_a, r_b


def crossover_N(D: int) -> float:
    """Party-number scale separating the dilution-dominated regime from the
    mixing-dominated one: N_cr = ln(D-1).  Defined for integer D >= 3
    (the scale degenerates to 0 at D = 2)."""
    check_dims(D, None, D_min=3)
    return math.log(D - 1)
