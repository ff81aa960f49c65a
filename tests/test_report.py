import json

import numpy as np
import pytest

from gapfill.report import jsonable


def jsonable_by_element(value):
    """Reference: the conversion recursing into every element of an array."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return float(value)
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return [jsonable_by_element(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {k: jsonable_by_element(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable_by_element(v) for v in value]
    return value


rng = np.random.default_rng(17)


@pytest.mark.parametrize("array", [
    rng.standard_normal(7) * 1e5,
    rng.standard_normal((12, 3)),
    np.array([0.1, -0.0, 1e300, 5e-324, 2.0]),
    rng.integers(-1000, 1000, 9),
    rng.integers(-1000, 1000, (4, 3), dtype=np.int32),
    rng.uniform(size=6) < 0.5,
    rng.uniform(size=(3, 2)) < 0.5,
], ids=["float-1d", "float-2d", "float-edge", "int-1d", "int32-2d", "bool-1d", "bool-2d"])
def test_array_dumps_as_before(array):
    got = json.dumps(jsonable({"a": array, "nested": [array]}), indent=2)
    assert got == json.dumps(jsonable_by_element({"a": array, "nested": [array]}), indent=2)
