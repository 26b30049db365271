"""The one array guard (``errors._numbers``) at each entry point that converts
numbers: ragged, non-numeric, too large, wrongly shaped and empty input each
end in the entry point's own ``ValidationError``, saying what it expected; and
the conversions that convert number by number name a too-large integer too."""

import numpy as np
import pytest

from convexinfo import (
    DensityMatrix,
    JointState,
    Polytope,
    Povm,
    ProbVector,
    build_model,
    make_effect,
    make_preset,
    make_state,
)
from convexinfo.convex_kernel import Constraint, LinearProgram, decomposition_program
from convexinfo.errors import (
    BadParameter,
    DegenerateModel,
    DimensionMismatch,
    InvalidDensityMatrix,
    InvalidPovm,
    InvalidProbVector,
    NotNormalized,
    ValidationError,
    _numbers,
)
from convexinfo.probvec import normalize
from convexinfo.quantum import mutual_information

_SQUARE = build_model("regular_polygon", n=4)
_TRIANGLE = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
#: An integer beyond the float range: converting it raises OverflowError.
_HUGE = 10**400
_MATRIX = {"ragged": [[1, 0], [0]], "text": [["a", "b"], ["c", "d"]], "huge": [[_HUGE]],
           "ndim": [1.0], "empty": np.zeros((0, 0))}

#: Each guarded site: the call on one argument, its error, and a ragged, a
#: non-numeric, a too-large, a wrong-ndim and an empty argument.
_SITES = {
    "make_state": (lambda x: make_state(_SQUARE, x), DimensionMismatch,
                   {"ragged": [[0], [0, 1]], "text": ["a", 0], "huge": [_HUGE, 0],
                    "ndim": [[0, 0]], "empty": []}),
    "make_effect": (lambda x: make_effect(_SQUARE, x), DimensionMismatch,
                    {"ragged": [[0], [0, 1], 1], "text": ["a", 0, 0], "huge": [_HUGE, 0, 0],
                     "ndim": [[0, 0, 1]], "empty": []}),
    "build_model": (lambda x: build_model("custom_polytope", vertices=x), DegenerateModel,
                    {"ragged": [[1, 0], [0, 1, 2], [1, 1]], "text": [[1, "a"], [0, 1], [1, 1]],
                     "huge": [[_HUGE, 0], [0, 1], [1, 1]], "ndim": [1, 0], "empty": [[]]}),
    "Polytope": (Polytope, DegenerateModel,
                 {"ragged": [[0, 0], [1]], "text": [["a", "b"]], "huge": [[_HUGE, 0]],
                  "ndim": (1.0, 2.0), "empty": [[]]}),
    "decomposition_program-vertices": (lambda x: decomposition_program(x, [0.2, 0.2]),
                                       DimensionMismatch,
                                       {"ragged": [[0, 0], [1]], "text": [["a", "b"]],
                                        "huge": [[_HUGE, 0]], "ndim": [0.0, 1.0],
                                        "empty": [[]]}),
    "decomposition_program-point": (lambda x: decomposition_program(_TRIANGLE, x),
                                    DimensionMismatch,
                                    {"ragged": [[0.2], [0.2, 0.1]], "text": ["a", "b"],
                                     "huge": [_HUGE, 0.2], "ndim": [[0.2, 0.2]],
                                     "empty": []}),
    "JointState": (JointState, DimensionMismatch, _MATRIX),
    "DensityMatrix": (DensityMatrix, InvalidDensityMatrix, _MATRIX),
    "Povm": (lambda x: Povm([x]), InvalidPovm, _MATRIX),
    "mutual_information": (mutual_information, NotNormalized, _MATRIX),
}
_CASES = [(site, kind) for site, (_, _, inputs) in _SITES.items() for kind in inputs]


@pytest.mark.parametrize("site, kind", _CASES, ids=[f"{s}-{k}" for s, k in _CASES])
def test_each_guarded_site_names_its_own_error(site, kind):
    call, error, inputs = _SITES[site]
    assert issubclass(error, ValidationError)
    with pytest.raises(ValidationError, match="^expected ") as raised:
        call(inputs[kind])
    assert type(raised.value) is error


def test_the_guard_returns_a_fresh_c_ordered_array():
    given = np.asfortranarray(np.arange(6.0).reshape(2, 3))
    array = _numbers(given, DimensionMismatch, "a table", 2)
    assert array.flags.c_contiguous and array.dtype == float
    assert np.array_equal(array, given) and not np.shares_memory(array, given)
    assert _numbers([[1, 2]], DimensionMismatch, "a matrix", 2, complex).dtype == complex


@pytest.mark.parametrize("call, error", [
    (lambda: ProbVector([_HUGE]), InvalidProbVector),
    (lambda: normalize([_HUGE, 1]), InvalidProbVector),
    (lambda: Constraint((_HUGE,), "<=", 1.0), DimensionMismatch),
    (lambda: Constraint((1.0,), "<=", _HUGE), DimensionMismatch),
    (lambda: LinearProgram(1, (_HUGE,), ()), DimensionMismatch),
    (lambda: LinearProgram(1, (1.0,), (), bounds=((0, _HUGE),)), DimensionMismatch),
    (lambda: make_preset("renyi", _HUGE), BadParameter),
], ids=["ProbVector", "normalize", "Constraint-coeffs", "Constraint-bound",
        "LinearProgram-objective", "LinearProgram-bounds", "make_preset"])
def test_each_own_conversion_names_an_integer_too_large_for_a_float(call, error):
    # float() of such an integer raises OverflowError, which once escaped
    with pytest.raises(error):
        call()
