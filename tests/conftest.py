"""Helpers shared by the test modules."""

import numpy as np
import pytest

try:
    from hypothesis import Phase, settings
except ImportError:
    pass
else:
    # ``--hypothesis-profile=no-shrink`` stops at the first failing example,
    # as found: for a run that asks only whether a test fails (tools/mutants.py).
    settings.register_profile(
        "no-shrink", phases=[Phase.explicit, Phase.reuse, Phase.generate], report_multiple_bugs=False
    )


def _report_cells(report) -> np.ndarray:
    """The cells of a GeometryReport in the order of ``report_header``,
    read from its fields: the point, the scalars, then the sectional
    curvatures per pair i < k, the elasticities, the MRS per ordered pair
    i != k, the Hicks and Allen elasticities per pair and the bordered
    determinant."""
    n = report.n
    pairs = [(i, k) for i in range(n) for k in range(i + 1, n)]
    ordered = [(i, k) for i in range(n) for k in range(n) if i != k]
    return np.array([
        *report.point.coords, report.value, report.slope, report.gauss_kronecker, report.mean_curvature,
        *(report.sectional[p] for p in pairs), *report.elasticities, *(report.mrs[p] for p in ordered),
        *(report.hicks[p] for p in pairs), *(report.allen[p] for p in pairs), report.allen_determinant,
    ])


@pytest.fixture(scope="session")
def report_cells():
    """``_report_cells``, the reference row of ``report_table`` at a point."""
    return _report_cells
