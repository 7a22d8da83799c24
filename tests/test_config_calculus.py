import re
import sys

import numpy as np
import pytest

from conftest import is_completely_orthogonal, partner_tuples, payload_to_matrix
from causal_sep.config_calculus import (
    ConfigCensus,
    CouplingMode,
    config_labels,
    count_configurations,
    label_weights,
    orthogonal_partners,
    partition_distinct,
)
from causal_sep.density import DensityMatrix, MatrixFormatError, PartySubset
from causal_sep.ec_family import (
    ECClass,
    ECParams,
    Mixing,
    crossover_N,
    duality_residuals,
    threshold,
)
from test_ec_family import renormalized_threshold

FREE = CouplingMode.N_FREE
COUPLED = CouplingMode.N_COUPLED


def test_config_labels_small():
    assert config_labels(2, 2).tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]
    assert config_labels(1, 3).tolist() == [[0, 0, 0]]
    # one empty configuration at N = 0, none at D = 0 (the free partners of D = 1)
    assert config_labels(3, 0).shape == (1, 0)
    assert config_labels(0, 3).shape == (0, 3)
    assert config_labels(2, 3).dtype == np.int64


@pytest.mark.parametrize("D, N", [(1, 1), (2, 1), (3, 2), (2, 5), (4, 3)])
def test_config_labels_lexicographic_last_fastest(D, N):
    configs = config_labels(D, N)
    assert configs.tolist() == sorted(configs.tolist())
    assert configs[:2].tolist() == [[0] * N, [0] * (N - 1) + [1]][: D**N]
    # row k is the configuration of index k
    assert np.array_equal(configs @ label_weights(D, N), np.arange(D**N))


def test_partition_refuses_over_the_dimension_cap():
    # 2^13 configurations exceed DIM_CAP = 4096: refused in check_dims' words
    with pytest.raises(ValueError, match=r"^D\^N = 8192 exceeds the dimension cap 4096$"):
        partition_distinct(2, 13)
    with pytest.raises(ValueError, match=r"^N = 13 parties exceed the dimension cap 4096$"):
        partition_distinct(1, 13)
    assert len(partition_distinct(2, 12).distinct) == 2**11


def test_partition_bad_dims():
    with pytest.raises(ValueError, match="integer D >= 1"):
        partition_distinct(0, 2)
    with pytest.raises(ValueError, match="integer N >= 1"):
        partition_distinct(2, 0)


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
    "orthogonal_partners.D": (
        lambda v: orthogonal_partners(np.zeros((1, 2), dtype=int), v, FREE), "D", 0, ValueError,
    ),
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
    assert partner_tuples((0, 0), 2, FREE) == [(1, 1)]
    assert partner_tuples((0, 0), 3, FREE) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    partners = partner_tuples((0, 1, 2), 3, FREE)
    assert len(partners) == 8
    assert all(is_completely_orthogonal((0, 1, 2), l) for l in partners)
    assert partners == sorted(partners)


def test_partners_coupled():
    assert partner_tuples((0, 0), 3, COUPLED) == [(1, 1), (2, 2)]
    assert partner_tuples((0, 1), 3, COUPLED) == [(1, 2), (2, 0)]
    assert partner_tuples((0, 0), 2, COUPLED) == [(1, 1)]


def test_partners_validation():
    with pytest.raises(ValueError, match=re.escape("label 3 is not an integer in 0..2")):
        partner_tuples((0, 3), 3, FREE)


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
    assert part.distinct.tolist() == [[0, 0], [0, 1]]
    assert part.orthogonal.tolist() == [[1, 0], [1, 1]]
    part = partition_distinct(1, 2)
    assert part.distinct.tolist() == [[0, 0]]
    assert part.orthogonal.shape == (0, 2)


def test_partition_covers_everything():
    distinct, orthogonal = (configs.tolist() for configs in partition_distinct(3, 3))
    assert len(distinct) + len(orthogonal) == 27
    # every orthogonal config has a completely orthogonal distinct witness
    for c in orthogonal:
        assert any(is_completely_orthogonal(c, d) for d in distinct)
    # no distinct pair is completely orthogonal
    for i, a in enumerate(distinct):
        for b in distinct[i + 1 :]:
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


@pytest.mark.parametrize("labels, named", [
    ([[0, 1], [1, 2]], "2"),
    ([[0, 1], [-1, 0]], "-1"),
    ([[0.0, 1.0]], "0.0"),
    ([[0.5, 1.0]], "0.5"),
    ([[True, False]], "True"),
    ([["1", "0"]], "'1'"),
    ([[np.nan, 0.0]], "nan"),
], ids=["at-D", "negative", "integral-float", "float", "bool", "string", "nan"])
def test_orthogonal_partners_take_integer_labels_only(labels, named):
    # a label array that is not of an integer dtype is refused whole, even
    # where its values are integral: a cast to int64 would cut 0.5 to 0
    for mode in (FREE, COUPLED):
        with pytest.raises(ValueError, match=re.escape(f"label {named} is not an integer in 0..1")):
            orthogonal_partners(np.array(labels), 2, mode)


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint8, np.uint64])
def test_orthogonal_partners_take_any_integer_dtype(dtype):
    configs = config_labels(3, 3)
    for mode in (FREE, COUPLED):
        got = orthogonal_partners(configs.astype(dtype), 3, mode)
        assert got.dtype == np.int64
        assert np.array_equal(got, orthogonal_partners(configs, 3, mode))


@pytest.mark.parametrize("configs, D, message", [
    (np.zeros((1, 2), dtype=int), np.int64(2), "expected an integer D >= 1, got D=np.int64(2)"),
    (np.zeros((1, 0), dtype=int), 2, "expected an integer N >= 1, got N=0"),
    (np.zeros(2, dtype=int), 2, "expected a (J, N) label array, got shape (2,)"),
    (np.zeros((1, 1, 2), dtype=int), 2, "expected a (J, N) label array, got shape (1, 1, 2)"),
], ids=["D-numpy", "N-zero", "one-axis", "three-axes"])
def test_orthogonal_partners_check_the_label_array_shape(configs, D, message):
    # D and N go through check_dims (D also in _DIMENSION_ENTRY_POINTS); N is
    # the label array's second axis
    with pytest.raises(ValueError, match=re.escape(message)):
        orthogonal_partners(configs, D, FREE)
