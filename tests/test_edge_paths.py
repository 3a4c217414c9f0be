"""Refusals and branches that no other test reaches, one row each."""

import math

import pytest

from dilatorus.errors import NotTransverse
from dilatorus.geometry import square_room
from dilatorus.intervalmaps import AffineBranch, PiecewiseAffineMap
from dilatorus.quadratics import QuadraticNumber
from dilatorus.surface import CrossSection, first_return_map, rotation_number

ROOM = square_room(math.log(2.0), math.log(2.0))
# image [0.5, 0.75] on [0, 0.5), then [0, 0.25]: a jump down at 0.5
JUMP = PiecewiseAffineMap((AffineBranch(0.0, 0.5, 0.5, 0.5),
                           AffineBranch(0.5, 1.0, 0.5, -0.25)))
# p - q*sqrt(2) for convergents p/q of sqrt(2): the value lies within
# 1e-16 of 0, while float() cancels to 2.0 and to -4.0, so a floor
# read off the float would be 3 too high and 4 too low
BELOW_ZERO = QuadraticNumber(14398739476117879, -10181446324101389, 2)
ABOVE_ZERO = QuadraticNumber(34761632124320657, -24580185800219268, 2)


# each row: a call, then its value or the (error, message) it raises
CASES = [
    # the square room's door and its diagonal V0V2 both run at pi/4
    pytest.param(lambda: first_return_map(ROOM, math.pi / 4,
                                          CrossSection(0, 2)),
                 (NotTransverse, "parallel to the section"),
                 id="return-map-section-parallel-to-the-flow"),
    pytest.param(lambda: first_return_map(ROOM, 3 * math.pi / 4,
                                          CrossSection(0, 2)),
                 (ValueError, "must point into the surface"),
                 id="return-map-outward-direction"),
    pytest.param(lambda: CrossSection(0, 1),
                 (ValueError, "not a pentagon diagonal"),
                 id="cross-section-on-a-side"),
    pytest.param(lambda: rotation_number(2.0, 0.5, max_iter=0),
                 (ValueError, "max_iter must be at least 1"),
                 id="rotation-number-no-iterations"),
    pytest.param(lambda: JUMP.evaluate(1.5),
                 (ValueError, "outside the domain"),
                 id="evaluate-outside-the-domain"),
    pytest.param(lambda: JUMP.evaluate(0.5, side="left"), 0.75,
                 id="evaluate-left-limit-at-the-jump"),
    pytest.param(lambda: JUMP.evaluate(0.5, side="right"), 0.0,
                 id="evaluate-right-limit-at-the-jump"),
    pytest.param(BELOW_ZERO.floor, -1, id="floor-corrects-downward"),
    pytest.param(ABOVE_ZERO.floor, 0, id="floor-corrects-upward"),
]


@pytest.mark.parametrize("call, expected", CASES)
def test_edge_path(call, expected):
    if isinstance(expected, tuple):
        exc, match = expected
        with pytest.raises(exc, match=match):
            call()
    else:
        assert call() == expected


def test_floor_rows_start_from_a_wrong_float_floor():
    assert (float(BELOW_ZERO), float(ABOVE_ZERO)) == (2.0, -4.0)
    assert -1 < BELOW_ZERO < 0 < ABOVE_ZERO < 1
