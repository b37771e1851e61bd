from hypothesis import given, strategies as st
import numpy as np
import pytest
import sympy

from latticelab import mat2
from latticelab.errors import PreconditionError


def square_int_matrices(n):
    row = st.lists(st.integers(-9, 9), min_size=n, max_size=n)
    return st.lists(row, min_size=n, max_size=n)


@given(st.sampled_from([3, 4]).flatmap(square_int_matrices))
def test_exact_det_and_inverse_match_sympy(rows):
    m = mat2.mat_from(rows)
    ref = sympy.Matrix(rows)
    det = mat2.mat_det(m)
    assert det == int(ref.det())
    if det == 0:
        with pytest.raises(PreconditionError):
            mat2.mat_inv(m)
        return
    inv = [[sympy.Rational(x.numerator, x.denominator) for x in r] for r in mat2.mat_inv(m)]
    assert inv == ref.inv().tolist()
    assert mat2.mat_mul(m, mat2.mat_inv(m)) == mat2.mat_identity(len(rows))


@pytest.mark.parametrize("m", [np.zeros((2, 2)), np.array([[1.0, 2.0], [2.0, 4.0]]),
                               np.stack([np.eye(2), np.ones((2, 2))])])
def test_float_singular_inverse_is_a_precondition_violation(m):
    with pytest.raises(PreconditionError, match="singular matrix"):
        mat2.mat_inv(m)
