import math

import pytest

from mmcsetup.errors import InternalInconsistencyError, TruncationInsufficientError, certify


def test_certify_returns_its_value_at_the_tolerance():
    assert certify("gap", 1e-12, 1e-12) == 1e-12
    assert certify("gap", 0.0, 1e-12) == 0.0


@pytest.mark.parametrize("value", [2e-12, math.inf, math.nan])
def test_certify_raises_past_the_tolerance_and_on_a_nan(value):
    with pytest.raises(InternalInconsistencyError) as exc:
        certify("some gap", value, 1e-12)
    assert str(exc.value) == f"some gap {value!r} exceeds 1e-12"
    with pytest.raises(TruncationInsufficientError, match="^tail mass "):
        certify("tail mass", value, 1e-12, TruncationInsufficientError)
