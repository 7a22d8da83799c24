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
from dataclasses import dataclass
from enum import Enum
from functools import reduce

import numpy as np

from .config_calculus import CouplingMode, check_dims
from .density import DensityMatrix


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
            sites = self.b_sites if self.b_sites is not None else (1,) * self.N
            sites = tuple(int(s) for s in sites)
            if len(sites) != self.N:
                raise ValueError(
                    f"b_sites must have length N={self.N}, got {len(sites)}"
                )
            if any(s not in (0, 1) for s in sites):
                raise ValueError(f"b_sites entries must be 0 or 1, got {sites!r}")
            object.__setattr__(self, "b_sites", sites)
        object.__setattr__(self, "p", p)

    @property
    def p_abs(self) -> float:
        return abs(self.p)

    @property
    def p_real(self) -> float:
        return float(self.p.real)

    def variant_key(self) -> str:
        return variant_name(self.ec_class, self.mixing, self.coupling)


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
        powers = self.D ** np.arange(self.N - 1, -1, -1).reshape(shape)
        row, col = np.divmod(flat, self.dim)
        at = (np.arange(self.N).reshape(shape), row // powers % self.D, col // powers % self.D)
        return reduce(np.multiply, self.diag_sites[at]) + reduce(np.multiply, self.off_sites[at])


def ec_operator(params: ECParams) -> KronSum:
    """The site factors of the EC matrix in ``params``, from the recurrence.

    The coupling mode is carried in ``params`` but does not enter the
    matrix; it only selects the partner counting when the criterion is
    evaluated on the result.
    """
    D, N = params.D, params.N
    check_dims(D, N, capped=True)

    hub_lower = np.zeros((D, D), dtype=np.complex128)
    for k in range(1, D):
        hub_lower[k, 0] = 1.0

    if params.ec_class is ECClass.A:
        a = params.p_abs
        site_d = np.diag([1.0 - a] + [a / (D - 1)] * (D - 1)).astype(np.complex128)
        amp = params.p if params.mixing is Mixing.STRONG else params.p / (D - 1)
        site_o = amp * hub_lower + np.conj(amp) * hub_lower.conj().T
        diag_sites = [site_d] * N
        off_sites = [site_o] * N
    else:
        p = params.p_real
        hub = hub_lower + hub_lower.T
        diag_sites = []
        off_sites = []
        for bit in params.b_sites:
            f = (1.0 - p) if bit else p
            diag_sites.append(
                f * np.diag([1.0] + [1.0 / (D - 1)] * (D - 1)).astype(np.complex128)
            )
            amp = f if params.mixing is Mixing.STRONG else f / (D - 1)
            off_sites.append(amp * hub)
    return KronSum(D, N, np.stack(diag_sites), np.stack(off_sites))


def build_ec_matrix(params: ECParams) -> DensityMatrix:
    """Materialize the EC matrix of ``ec_operator(params)`` as a dense
    D^N x D^N DensityMatrix."""
    op = ec_operator(params)
    matrix = reduce(np.kron, op.diag_sites)
    matrix += reduce(np.kron, op.off_sites)
    trace = float(np.trace(matrix).real)
    return DensityMatrix._adopt(op.D, op.N, matrix, abs(trace - 1.0) <= 1e-12)


# ---------------------------------------------------------------------------
# closed-form W
# ---------------------------------------------------------------------------

def closed_form_W(
    params: ECParams, m_j: int | None = None, m: int | None = None
) -> float:
    """Closed-form criterion difference W for the variant in ``params``.

    Class a depends only on |p| (any phase cancels between the paired
    conjugate entries); m_j and m are accepted and ignored.  Class b needs
    m_j in 1..N (diagonal exponent of the probed configuration) and a
    signed m with 1 <= |m| <= N-1 (partner offset); the two-term expanded
    form is used so the p = 0, 1 endpoints stay finite wherever the
    algebra allows, and a domain error is raised where they genuinely
    diverge.
    """
    D, N = params.D, params.N
    x = float(D - 1)
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
    if not isinstance(m_j, int) or not 1 <= m_j <= N:
        raise ValueError(f"m_j must be an integer in 1..N={N}, got {m_j!r}")
    if not isinstance(m, int) or m == 0 or abs(m) > N - 1:
        raise ValueError(f"m must be a nonzero integer with |m| <= N-1={N - 1}, got {m!r}")
    p = params.p_real
    c = x ** _b_bracket_exponent(params.mixing, params.coupling, N)
    term1 = _pow_finite(1.0 - p, 2 * m_j) * _pow_finite(p, 2 * (N - m_j))
    term2 = c * _pow_finite(1.0 - p, 2 * (m_j - m)) * _pow_finite(p, 2 * (N - m_j + m))
    w = term1 - term2
    if params.coupling is CouplingMode.N_COUPLED:
        w /= x ** (N - 1)
    return float(w)


def _pow_finite(base: float, exp: int) -> float:
    if base == 0.0:
        if exp < 0:
            raise ValueError(
                "closed-form W diverges: zero base raised to a negative power "
                "(p endpoint incompatible with these m_j, m)"
            )
        if exp == 0:
            return 1.0
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


def _logistic(g: float, base: float) -> float:
    """1/(1 + base**g) through log space; exact 0.5 when base == 1."""
    return _inv1p_exp(g * math.log(base))


def _a_exponent(mixing: Mixing, coupling: CouplingMode, N: int) -> float:
    if coupling is CouplingMode.N_FREE:
        return -(2.0 - 1.0 / N) if mixing is Mixing.WEAK else 1.0 / N
    return -1.0 / N if mixing is Mixing.WEAK else (2.0 - 1.0 / N)


def _b_bracket_exponent(mixing: Mixing, coupling: CouplingMode, N: int) -> int:
    if coupling is CouplingMode.N_FREE:
        return -(2 * N - 1) if mixing is Mixing.WEAK else 1
    return -1 if mixing is Mixing.WEAK else (2 * N - 1)


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
    check_dims(D, N, D_min=2, N_min=2)
    x = float(D - 1)
    if ec_class is ECClass.A:
        v = _logistic(_a_exponent(mixing, coupling, N), x)
        return ThresholdResult(
            kind=ThresholdKind.SINGLE,
            p_th1=v,
            p_th2=v,
            separable_region=f"0 <= |p| <= {v!r}",
        )
    if m_abs is None:
        raise ValueError("b-class thresholds need m_abs (1 <= m_abs <= N-1)")
    if not isinstance(m_abs, int) or isinstance(m_abs, bool) or not 1 <= m_abs <= N - 1:
        raise ValueError(f"m_abs must be an integer in 1..N-1={N - 1}, got {m_abs!r}")
    e = _b_bracket_exponent(mixing, coupling, N)
    lower = _logistic(-e / (2.0 * m_abs), x)  # from the m = -|m| branch: p >= lower
    upper = _logistic(+e / (2.0 * m_abs), x)  # from the m = +|m| branch: p <= upper
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
        m_abs=m_abs,
        window=window,
    )


def classify_ec(params: ECParams, m_abs: int | None = None) -> ECVerdict:
    """Threshold verdict for the parameter point in ``params``.

    Class a: separable iff |p| <= p_th.  Class b: separable iff p lies in
    the branch-ordered window for |m| = m_abs (closed interval; empty
    window means entangled everywhere).
    """
    if params.ec_class is ECClass.A:
        th = threshold(params.ec_class, params.mixing, params.coupling, params.D, params.N)
        return ECVerdict.SEPARABLE if params.p_abs <= th.p_th else ECVerdict.ENTANGLED
    if m_abs is None:
        raise ValueError("b-class verdict needs m_abs")
    th = threshold(params.ec_class, params.mixing, params.coupling, params.D, params.N, m_abs)
    if th.window is None:
        return ECVerdict.ENTANGLED
    lower, upper = th.window
    return (
        ECVerdict.SEPARABLE
        if lower <= params.p_real <= upper
        else ECVerdict.ENTANGLED
    )


# ---------------------------------------------------------------------------
# dualities, crossover, renormalized threshold
# ---------------------------------------------------------------------------

def duality_residuals(D: int, N: int) -> tuple[float, float]:
    """Numeric residuals of the weak/strong <-> free/coupled dualities.

    r_a: the a-class thresholds swap mixing when evaluated at the inverted
    base 1/(D-1) -- both pairings, literal substitution into the closed
    form.  r_b: the free-variant window roots equal the mixing-swapped
    coupled-variant roots in exchanged order (th1 <-> th2), for every
    |m| = 1..N-1.  Both residuals are expected to vanish to 1e-14.
    """
    check_dims(D, N, D_min=2, N_min=2)
    x = float(D - 1)
    inv = 1.0 / x

    r_a = 0.0
    for mix_free, mix_coupled in ((Mixing.WEAK, Mixing.STRONG), (Mixing.STRONG, Mixing.WEAK)):
        lhs = _logistic(_a_exponent(mix_free, CouplingMode.N_FREE, N), x)
        rhs = _logistic(_a_exponent(mix_coupled, CouplingMode.N_COUPLED, N), inv)
        r_a = max(r_a, abs(lhs - rhs))

    r_b = 0.0
    for m in range(1, N):
        for mix_free, mix_coupled in (
            (Mixing.WEAK, Mixing.STRONG),
            (Mixing.STRONG, Mixing.WEAK),
        ):
            e_f = _b_bracket_exponent(mix_free, CouplingMode.N_FREE, N)
            e_c = _b_bracket_exponent(mix_coupled, CouplingMode.N_COUPLED, N)
            th1_f = _logistic(-e_f / (2.0 * m), x)
            th2_f = _logistic(+e_f / (2.0 * m), x)
            th1_c = _logistic(-e_c / (2.0 * m), x)
            th2_c = _logistic(+e_c / (2.0 * m), x)
            r_b = max(r_b, abs(th1_f - th2_c), abs(th2_f - th1_c))
    return r_a, r_b


def crossover_N(D: int) -> float:
    """Party-number scale separating the dilution-dominated regime from the
    mixing-dominated one: N_cr = ln(D-1).  Defined for integer D >= 3
    (the scale degenerates to 0 at D = 2)."""
    check_dims(D, None, D_min=3)
    return math.log(D - 1)


def renormalized_threshold(gamma: float, m: int, N: int, D: int, alpha: float) -> float:
    """Threshold 1/(1 + (gamma * m!/N!)**(1/N) * (D-1)**alpha).

    Factorials go through lgamma in log space, so N in the hundreds is
    exact enough and never overflows.  Requires gamma > 0 and 1 <= m <= N.
    """
    check_dims(D, N, D_min=2)
    if not isinstance(m, int) or isinstance(m, bool) or not 1 <= m <= N:
        raise ValueError(f"m must be an integer in 1..N={N}, got {m!r}")
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma!r}")
    t = (math.log(gamma) + math.lgamma(m + 1) - math.lgamma(N + 1)) / N
    t += alpha * math.log(D - 1)
    return _inv1p_exp(t)
