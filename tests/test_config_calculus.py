import re
import sys

import numpy as np
import pytest

from causal_sep.config_calculus import (
    ConfigCensus,
    CouplingMode,
    EnumerationBudgetError,
    count_configurations,
    enumerate_configurations,
    is_completely_orthogonal,
    orthogonal_partners,
    partition_distinct,
)
from causal_sep.density import DensityMatrix, MatrixFormatError, PartySubset, payload_to_matrix
from causal_sep.ec_family import (
    ECClass,
    ECParams,
    Mixing,
    crossover_N,
    duality_residuals,
    renormalized_threshold,
    threshold,
)

FREE = CouplingMode.N_FREE
COUPLED = CouplingMode.N_COUPLED


def test_enumerate_small():
    assert enumerate_configurations(2, 2) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert enumerate_configurations(1, 3) == [(0, 0, 0)]


def test_enumerate_lexicographic_last_fastest():
    configs = enumerate_configurations(3, 2)
    assert len(configs) == 9
    assert configs[0] == (0, 0)
    assert configs[1] == (0, 1)  # last subsystem varies fastest
    assert configs[-1] == (2, 2)
    assert configs == sorted(configs)


def test_enumerate_budget():
    # 2^21 configurations exceed the default 2^20 cap
    with pytest.raises(EnumerationBudgetError):
        enumerate_configurations(2, 21)
    assert len(enumerate_configurations(2, 21, cap=2**21)) == 2**21


def test_enumerate_bad_dims():
    with pytest.raises(ValueError):
        enumerate_configurations(0, 2)
    with pytest.raises(ValueError):
        enumerate_configurations(2, 0)


# (entry point, dimension name, value below its minimum, error type)
_DIMENSION_ENTRY_POINTS = {
    "DensityMatrix.D": (lambda v: DensityMatrix(D=v, N=2, matrix=np.eye(1)), "D", 0, ValueError),
    "DensityMatrix.N": (lambda v: DensityMatrix(D=2, N=v, matrix=np.eye(1)), "N", -1, ValueError),
    "PartySubset.N": (lambda v: PartySubset((0,), v), "N", 1, ValueError),
    "ECParams.D": (lambda v: ECParams(ECClass.A, Mixing.WEAK, FREE, D=v, N=2, p=0.3), "D", 1, ValueError),
    "ECParams.N": (lambda v: ECParams(ECClass.A, Mixing.WEAK, FREE, D=2, N=v, p=0.3), "N", 1, ValueError),
    "threshold.D": (lambda v: threshold(ECClass.A, Mixing.WEAK, FREE, v, 2), "D", 1, ValueError),
    "threshold.N": (lambda v: threshold(ECClass.A, Mixing.WEAK, FREE, 2, v), "N", 1, ValueError),
    "duality_residuals.D": (lambda v: duality_residuals(v, 2), "D", 1, ValueError),
    "duality_residuals.N": (lambda v: duality_residuals(2, v), "N", 1, ValueError),
    "crossover_N.D": (crossover_N, "D", 2, ValueError),
    "renormalized_threshold.D": (lambda v: renormalized_threshold(1.0, 1, 2, v, 1.0), "D", 1, ValueError),
    "renormalized_threshold.N": (lambda v: renormalized_threshold(1.0, 1, v, 2, 1.0), "N", 0, ValueError),
    "count_configurations.D": (lambda v: count_configurations(v, 2, FREE), "D", 0, ValueError),
    "count_configurations.N": (lambda v: count_configurations(2, v, FREE), "N", 0, ValueError),
    "payload_to_matrix.D": (
        lambda v: payload_to_matrix({"D": v, "N": 1, "normalized": True, "entries": []}),
        "D", 0, MatrixFormatError,
    ),
    "payload_to_matrix.N": (
        lambda v: payload_to_matrix({"D": 2, "N": v, "normalized": True, "entries": []}),
        "N", -1, MatrixFormatError,
    ),
}


@pytest.mark.parametrize("bad", [True, 2.0, "2", "below"])
@pytest.mark.parametrize("entry", sorted(_DIMENSION_ENTRY_POINTS))
def test_dimensions_must_be_integers_at_or_above_minimum(entry, bad):
    call, name, below, error = _DIMENSION_ENTRY_POINTS[entry]
    value = below if bad == "below" else bad
    with pytest.raises(error, match=rf"integer {name} >= \d+, got {name}={value!r}"):
        call(value)


def test_completely_orthogonal():
    assert is_completely_orthogonal((0, 0), (1, 1))
    assert not is_completely_orthogonal((0, 0), (0, 1))
    assert not is_completely_orthogonal((0, 1), (1, 1))
    with pytest.raises(ValueError):
        is_completely_orthogonal((0, 0), (1, 1, 1))


def test_partners_free():
    assert orthogonal_partners((0, 0), 2, FREE) == [(1, 1)]
    assert orthogonal_partners((0, 0), 3, FREE) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    partners = orthogonal_partners((0, 1, 2), 3, FREE)
    assert len(partners) == 8
    assert all(is_completely_orthogonal((0, 1, 2), l) for l in partners)
    assert partners == sorted(partners)


def test_partners_coupled():
    assert orthogonal_partners((0, 0), 3, COUPLED) == [(1, 1), (2, 2)]
    assert orthogonal_partners((0, 1), 3, COUPLED) == [(1, 2), (2, 0)]
    assert orthogonal_partners((0, 0), 2, COUPLED) == [(1, 1)]


def test_partners_validation():
    with pytest.raises(ValueError):
        orthogonal_partners((0, 3), 3, FREE)


@pytest.mark.parametrize(
    "D,N,mode,K",
    [
        (2, 2, FREE, 2),
        (2, 3, FREE, 4),
        (3, 2, FREE, 2),
        (2, 2, COUPLED, 2),
        (3, 2, COUPLED, 3),
        (1, 1, FREE, 1),
    ],
)
def test_count_examples(D, N, mode, K):
    census = count_configurations(D, N, mode)
    assert census.K == K
    assert census.K + census.K_bar == D**N


def test_count_qubit_closed_form():
    # D=2: K = 2^(N-1) in both modes
    for N in range(2, 13):
        assert count_configurations(2, N, FREE).K == 2 ** (N - 1)
        assert count_configurations(2, N, COUPLED).K == 2 ** (N - 1)


def test_count_exact_ceiling():
    # D=3, N=2: x = 9/5 = 1.8 rounds up to 2
    assert count_configurations(3, 2, FREE).K == 2
    # huge inputs stay exact (no float ceiling anywhere)
    census = count_configurations(10, 40, FREE)
    denom = 1 + 9**40
    assert census.K == (10**40 + denom - 1) // denom


def test_census_invariant_guard():
    with pytest.raises(ValueError):
        ConfigCensus(D=2, N=2, K=3, K_bar=2)


def test_partition_small():
    part = partition_distinct(2, 2)
    assert part.distinct == [(0, 0), (0, 1)]
    assert part.orthogonal == [(1, 0), (1, 1)]
    part = partition_distinct(1, 2)
    assert part.distinct == [(0, 0)]
    assert part.orthogonal == []


def test_partition_covers_everything():
    part = partition_distinct(3, 3)
    assert len(part.distinct) + len(part.orthogonal) == 27
    # every orthogonal config has a completely orthogonal distinct witness
    for c in part.orthogonal:
        assert any(is_completely_orthogonal(c, d) for d in part.distinct)
    # no distinct pair is completely orthogonal
    for i, a in enumerate(part.distinct):
        for b in part.distinct[i + 1 :]:
            assert not is_completely_orthogonal(a, b)


def test_partition_greedy_vs_census_mismatch_is_visible():
    # For D > 2 the greedy size can exceed the ceiling count; both numbers
    # are exposed so the discrepancy is reported, not hidden.
    census = count_configurations(3, 2, FREE)
    part = partition_distinct(3, 2)
    assert census.K == 2
    assert len(part.distinct) == 3
    # for qubits the two counts agree
    for N in range(2, 9):
        assert len(partition_distinct(2, N).distinct) == count_configurations(2, N, FREE).K


def test_count_rejects_counts_beyond_the_integer_string_limit():
    limit = sys.get_int_max_str_digits()
    # 10^limit has limit + 1 digits, but K_bar = 10^limit - K has limit
    assert len(str(count_configurations(10, limit, FREE).K_bar)) == limit
    for D, N in [(10, limit + 1), (2, 4 * limit), (10, 30_000_000), (7, 10**12)]:
        with pytest.raises(ValueError, match=re.escape(
            f"the counts for D^N = {D}^{N} have more than {limit} decimal digits"
        )):
            count_configurations(D, N, COUPLED)
