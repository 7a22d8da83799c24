import numpy as np

from causal_sep.density import DensityMatrix, config_to_index


def random_hermitian(D, N, rng, scale=1.0):
    """Random Hermitian matrix (not normalized, not PSD in general)."""
    dim = D**N
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return DensityMatrix(D=D, N=N, matrix=scale * (raw + raw.conj().T) / 2, normalized=False)


def random_state(D, N, rng):
    """Random PSD unit-trace matrix (a proper density matrix)."""
    dim = D**N
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    psd = raw @ raw.conj().T
    return DensityMatrix(D=D, N=N, matrix=psd / np.trace(psd).real, normalized=True)


def run_cli(argv, capsys):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    from causal_sep import cli

    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def element(rho, row, col):
    """Entry <row| rho |col> addressed by configurations."""
    if len(row) != rho.N or len(col) != rho.N:
        raise ValueError(
            f"configuration length must be N={rho.N}, got {len(row)} and {len(col)}"
        )
    return complex(rho.matrix[config_to_index(row, rho.D), config_to_index(col, rho.D)])


def is_completely_orthogonal(a, b):
    """True when configurations a and b differ in every component."""
    if len(a) != len(b):
        raise ValueError(f"configurations have different lengths: {len(a)} vs {len(b)}")
    return all(x != y for x, y in zip(a, b))
