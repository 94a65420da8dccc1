import numpy as np
import pytest

from cartanweyl.errors import ShapeError
from cartanweyl.forms import MForm
from cartanweyl.reduction import worst_entry

NAN = float("nan")


def _form(values, slope, lead):
    """(3, 3) 0-form of order 1 at the points ``lead``: ``values`` on the
    value coefficients, ``slope`` on every degree-1 coefficient."""
    f = MForm.zeros(3, (3, 3), 0, 0, 1, lead)
    f.data[..., 0] = np.reshape(values, lead + (1, 1, 1))
    f.data[..., 1:] = slope
    return f


def _array(lead, where, x):
    """(..., 3, 4) zeros at the points ``lead`` with ``x`` at ``where``."""
    a = np.zeros(lead + (3, 4))
    a[where] = x
    return a


CASES = [
    pytest.param(_form([0.5, -0.25], 10.0, (2,)), (2,), [0.5, 0.25], id="form_reads_values"),
    pytest.param(_array((2,), (1, 2, 3), -7.0), (2,), [0.0, 7.0], id="array_read_whole"),
    pytest.param((_array((2,), (0, 0, 0), NAN), _array((2,), ..., 5.0)), (2,), [NAN, 5.0],
                 id="nan_first_in_tuple"),
    pytest.param((_array((2,), ..., 5.0), _form([-1.0, NAN], 0.0, (2,))), (2,), [5.0, NAN],
                 id="nan_last_in_tuple"),
    pytest.param(np.zeros((2, 0)), (2,), [0.0, 0.0], id="no_entries"),
    pytest.param((), (2,), [0.0, 0.0], id="empty_tuple"),
    pytest.param(0.0, (2,), [0.0, 0.0], id="float_over_points"),
    pytest.param((2.5, _array((2,), (0, 1, 1), -3.0)), (2,), [3.0, 2.5], id="float_in_tuple"),
    pytest.param(_form(-0.75, 4.0, ()), (), 0.75, id="lone_point"),
    pytest.param(_array((3,), (2, 0, 0), 1.0), (2,), ShapeError, id="other_point_axis"),
    # a (2, 2) form at one point has leading sizes (2,), but no point axis
    pytest.param(MForm.zeros(3, (2, 2), 0, 0, 1), (2,), ShapeError, id="no_point_axis"),
]


@pytest.mark.parametrize("residual, lead, want", CASES)
def test_worst_entry_reads_a_residual_at_each_point(residual, lead, want):
    """One value per point, the max over every axis after the point axes of
    an array, of an MForm's value coefficients or of a tuple's members; NaN
    wins wherever it sits, no entries read 0.0, a float counts at every
    point, and a lone point gives a Python float."""
    if want is ShapeError:
        with pytest.raises(ShapeError):
            worst_entry(residual, lead)
        return
    got = worst_entry(residual, lead)
    if lead:
        assert isinstance(got, np.ndarray) and got.shape == lead
    else:
        assert type(got) is float
    np.testing.assert_array_equal(got, want)
