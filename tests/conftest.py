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


# --- hand-made triangulations ------------------------------------------------


def hand_triangulation(vertices, triangles):
    """Triangulation of the given vertices, each its own input point, with
    the given counter-clockwise triangles; vertices no triangle uses still
    set the bounding box."""
    from odlab.geometry import Triangulation
    v = np.asarray(vertices, dtype=float)
    return Triangulation(vertices=v, triangles=np.asarray(triangles, dtype=np.int32),
                         point_vertex=np.arange(len(v)))


def sliver_case():
    """(tri, vertex values, keep) over the box [0, 9] x [0, 11], so a 10 x 12
    grid has unit steps and its nodes sit at integer points.

    Kept: a sliver whose candidate rows start at row 2 but whose first
    covered nodes lie in row 7 (its tip at x = 2 falls between two grid
    columns), and a small triangle whose candidate rows start at row 4 and
    that covers node (4, 9).  Left out: a triangle covering node (1, 1).
    The covered rows are therefore 4..8 and the columns 5..9.
    """
    tri = hand_triangulation(
        [(0.0, 0.0), (9.0, 11.0),
         (2.0, 5.5), (8.0, 4.8), (8.0, 6.2),
         (3.6, 8.5), (4.4, 8.5), (4.0, 9.4),
         (0.5, 0.5), (1.5, 0.5), (1.0, 1.5)],
        [(2, 3, 4), (5, 6, 7), (8, 9, 10)])
    values = np.linspace(0.5, 1.5, 11)
    return tri, values, np.array([True, True, False])
