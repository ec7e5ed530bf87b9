import numpy as np
import pytest

from odlab.dynamics import OrbitParams


@pytest.fixture(scope="session")
def params() -> OrbitParams:
    """The reference parameter point used throughout the study."""
    return OrbitParams(C=0.15, W=0.409)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20260816)


def field_rates(field, y) -> np.ndarray:
    """Rates of (n, d) states from a field(y, out) on (d, n) rows."""
    rows = np.ascontiguousarray(np.asarray(y, dtype=float).T)
    out = np.empty_like(rows)
    field(rows, out)
    return out.T


# --- acceptance reporting ----------------------------------------------------

_acceptance_lines: list[str] = []


def record_criterion(num: int, ok: bool, detail: str) -> str:
    """Log one acceptance verdict; the caller asserts on the returned line."""
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    _acceptance_lines.append(line)
    return line


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_acceptance_lines):
            terminalreporter.write_line(line)
