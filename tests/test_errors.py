"""Argument errors raised by the package are PentavecErrors.

Each also subclasses the builtin exception the site raised before, so
callers that catch ValueError or ZeroDivisionError still catch it, and the
command line turns it into one ``error:`` line with exit code 2.
"""

import numpy as np
import pytest

from pentavec.algebra import MetricH, label_to_slot, slot_to_label
from pentavec.bases import OrientationTensor
from pentavec.connection import coordinates_from_parallel_metric, parallel_frame_metric, transport
from pentavec.errors import DegenerateKappa, InvalidMetric, NotFinite, NotNull, OutOfRange, PentavecError
from pentavec.grids import FieldOnGrid, Grid, scheme_width
from pentavec.stress_energy import plane_wave_stress_samples

LINE = Grid(origin=(0.0,) * 4, spacing=(0.25, 1.0, 1.0, 1.0), shape=(4, 1, 1, 1))
WAVE = Grid(origin=(0.0,) * 4, spacing=(0.25, 0.25, 0.25, 1.0), shape=(5, 5, 5, 1))
ASYMMETRIC = np.diag([1.0, 1.0, -1.0, -1.0, -1.0]) + np.triu(np.ones((5, 5)), 1)


@pytest.mark.parametrize(
    "call, error, builtin",
    [
        (lambda: label_to_slot(4), OutOfRange, ValueError),
        (lambda: slot_to_label(5), OutOfRange, ValueError),
        (lambda: MetricH(ASYMMETRIC), InvalidMetric, ValueError),
        (lambda: MetricH(np.zeros((5, 5))), InvalidMetric, ValueError),
        (lambda: MetricH(np.diag([1.0, -1.0, -1.0, -1.0, -1.0])), InvalidMetric, ValueError),
        (lambda: OrientationTensor(sign=0), OutOfRange, ValueError),
        (
            lambda: coordinates_from_parallel_metric(parallel_frame_metric(np.zeros(4), 1.0), 0.0),
            DegenerateKappa,
            ZeroDivisionError,
        ),
        (lambda: transport(np.zeros(5), np.zeros(4), np.ones(4), "Q", 1.0), OutOfRange, ValueError),
        (lambda: scheme_width("upwind"), OutOfRange, ValueError),
        (lambda: FieldOnGrid(LINE, np.full((4, 1, 1, 1), np.nan)), NotFinite, ValueError),
        pytest.param(
            lambda: Grid(origin=(0.0,) * 4, spacing=(0.5, np.inf, 0.5, 0.5), shape=(2,) * 4),
            NotFinite,
            ValueError,
            id="grid-NotFinite-ValueError",
        ),
        (lambda: plane_wave_stress_samples([1.0, 0.0, 0.0, 0.0], WAVE), NotNull, ValueError),
    ],
)
def test_argument_errors_are_pentavec_errors(call, error, builtin):
    with pytest.raises(error) as raised:
        call()
    assert isinstance(raised.value, PentavecError)
    assert isinstance(raised.value, builtin)
