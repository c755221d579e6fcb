import numpy as np

from gridfreq.solver import SolverModel


def test_matrix_follows_added_columns_and_rows():
    m = SolverModel()
    a, b = m.add_vars(2)
    m.add_le([(a, 1.0), (b, 2.0)], 4.0)
    first = m.matrix()
    assert first is m.matrix()
    assert first.shape == (1, 2)

    c, = m.add_vars(1)
    assert m.matrix().shape == (1, 3)
    m.add_ge([(b, -1.0), (c, 3.0)], 1.0)
    assert np.array_equal(m.matrix().toarray(),
                          [[1.0, 2.0, 0.0], [0.0, -1.0, 3.0]])
    # the new row is checked: 3 * 0 - 1 * 1 misses its lower bound 1 by 2
    assert np.array_equal(m.residuals(np.array([0.0, 1.0, 0.0])),
                          [0.0, 2.0])
