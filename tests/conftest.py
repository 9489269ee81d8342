import numpy as np
from hypothesis import settings

# Every run draws the same examples and replays no stored failure, so a
# test passes or fails alike on every machine and every rerun.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def matrix(op) -> np.ndarray:
    """Explicit complex 2x2 matrix of a HermitianOp: the tests' oracle."""
    m = op.trace_part * np.eye(2, dtype=complex)
    for c, p in zip(op.bloch, _PAULI):
        m = m + c * p
    return m


def effect(b, lam: float, sign: int) -> np.ndarray:
    """Explicit POVM element ``(I + sign*lam*B)/2`` of an unsharp measurement."""
    return 0.5 * (np.eye(2) + sign * lam * matrix(b))


def pytest_configure(config):
    config.acceptance_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "acceptance_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
