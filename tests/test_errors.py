"""Argument errors raised by the package are PentavecErrors.

Each also subclasses the builtin exception the site raised before, so
callers that catch ValueError or ZeroDivisionError still catch it, and the
command line turns it into one ``error:`` line with exit code 2.
"""

import numpy as np
import pytest

from pentavec.connection import coordinates_from_parallel_metric, parallel_frame_metric
from pentavec.errors import DegenerateKappa, NotFinite, NotNull, OutOfRange, PentavecError
from pentavec.grids import FieldOnGrid, Grid, scheme_width
from pentavec.stress_energy import plane_wave_stress_samples

LINE = Grid(origin=(0.0,) * 4, spacing=(0.25, 1.0, 1.0, 1.0), shape=(4, 1, 1, 1))
WAVE = Grid(origin=(0.0,) * 4, spacing=(0.25, 0.25, 0.25, 1.0), shape=(5, 5, 5, 1))


# Every row carries an explicit id, so adding or deleting a row renames no other.
@pytest.mark.parametrize(
    "call, error, builtin",
    [
        # scheme names are matched exactly: no unlisted orders
        pytest.param(lambda: scheme_width("central6"), OutOfRange, ValueError, id="<lambda>-OutOfRange-ValueError1"),
        pytest.param(
            lambda: coordinates_from_parallel_metric(parallel_frame_metric(np.zeros(4), 1.0), 0.0),
            DegenerateKappa,
            ZeroDivisionError,
            id="<lambda>-DegenerateKappa-ZeroDivisionError",
        ),
        pytest.param(lambda: scheme_width("upwind"), OutOfRange, ValueError, id="<lambda>-OutOfRange-ValueError3"),
        pytest.param(
            lambda: FieldOnGrid(LINE, np.full((4, 1, 1, 1), np.nan)),
            NotFinite,
            ValueError,
            id="<lambda>-NotFinite-ValueError",
        ),
        pytest.param(
            lambda: Grid(origin=(0.0,) * 4, spacing=(0.5, np.inf, 0.5, 0.5), shape=(2,) * 4),
            NotFinite,
            ValueError,
            id="grid-NotFinite-ValueError",
        ),
        pytest.param(
            lambda: plane_wave_stress_samples([1.0, 0.0, 0.0, 0.0], WAVE),
            NotNull,
            ValueError,
            id="<lambda>-NotNull-ValueError",
        ),
    ],
)
def test_argument_errors_are_pentavec_errors(call, error, builtin):
    with pytest.raises(error) as raised:
        call()
    assert isinstance(raised.value, PentavecError)
    assert isinstance(raised.value, builtin)
