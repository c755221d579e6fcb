import numpy as np
import pytest

from gridfreq.solver import INF, SolverModel


def test_matrix_follows_added_columns_and_rows():
    m = SolverModel()
    a, b = m.add_vars(2)
    m.add_rows([[a, b]], [[1.0, 2.0]], -INF, 4.0)
    first = m.matrix()
    assert first is m.matrix()
    assert first.shape == (1, 2)

    c, = m.add_vars(1)
    assert m.matrix().shape == (1, 3)
    m.add_rows([[b, c]], [[-1.0, 3.0]], 1.0, INF)
    assert np.array_equal(m.matrix().toarray(),
                          [[1.0, 2.0, 0.0], [0.0, -1.0, 3.0]])
    # the new row is checked: 3 * 0 - 1 * 1 misses its lower bound 1 by 2
    assert np.array_equal(m.residuals(np.array([0.0, 1.0, 0.0])),
                          [0.0, 2.0])


def test_row_with_unknown_column_is_rejected():
    m = SolverModel()
    a, b = m.add_vars(2)
    for bad in (2, -2):
        with pytest.raises(IndexError,
                           match=f"row references unknown variable {bad}"):
            m.add_rows([[a, bad]], [[1.0, 1.0]], -INF, 4.0)
    assert m.n_rows == 0
