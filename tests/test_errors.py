import math

import numpy as np
import pytest

from ionlink.errors import MAX_ROWS, DomainError, check, steps


class TestCheck:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected_whatever_the_bounds(self, value):
        with pytest.raises(DomainError, match=r"^x out of range: (nan|inf|-inf) \(must be finite"):
            check("x", value, -math.inf, math.inf)

    @pytest.mark.parametrize("value, kwargs", [
        (-1e-300, {}), (0.0, {"open_lo": True}), (1.0000000000000002, {"hi": 1.0}),
        (0.5, {"lo": 1.0}),
    ])
    def test_out_of_bounds_rejected(self, value, kwargs):
        with pytest.raises(DomainError, match=f"^x out of range: {value}"):
            check("x", value, **kwargs)

    def test_bounds_are_inclusive_unless_open(self):
        assert check("x", 0.0) == 0.0
        assert check("x", 1.0, 0.0, 1.0) == 1.0
        assert check("x", 5e-324, open_lo=True) == 5e-324

    def test_value_returned_unchanged(self):
        value = np.float64(0.25)
        assert check("x", value) is value

    def test_message_format(self):
        with pytest.raises(DomainError) as closed:
            check("NA", 1.5, 0.0, 1.0)
        assert str(closed.value) == "NA out of range: 1.5 (must be finite and lie in [0, 1])"
        with pytest.raises(DomainError) as half_open:
            check("r", 0.0, open_lo=True)
        assert str(half_open.value) == "r out of range: 0.0 (must be finite and lie in (0, inf))"


class TestSteps:
    def test_span_over_step(self):
        assert type(steps("s", 0.5, 2.0)) is int
        assert steps("s", 0.5, 2.0) == 4
        assert steps("s", 1.0, 0.0) == 0
        assert steps("s", 7.0, 180.0) == 25
        # 180 / 1.8e-4 rounds to 999999.9999999999: a rounding error short of the end
        assert steps("s", 1.8e-4, 180.0) == 1_000_000

    @pytest.mark.parametrize("step", [0.0, -1.0, math.nan, math.inf, 2.0])
    def test_step_outside_its_range_rejected(self, step):
        with pytest.raises(DomainError, match=r"^s out of range"):
            steps("s", step, 1.0, hi=1.0)

    def test_grid_capped(self):
        assert steps("s", 1.0, MAX_ROWS - 1) == MAX_ROWS - 1
        for step, span in ((1.0, MAX_ROWS), (1e-300, 1.0), (1e-320, 1.0)):
            with pytest.raises(DomainError, match=f"^s {step} is too small"):
                steps("s", step, span)
