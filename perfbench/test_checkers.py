"""Hand-worked cases for the benchmark's reference computations.

Run with ``python3 -m pytest perfbench``.
"""

import math

import pytest

import checkers


def test_stationary_target_captured_at_range_minus_radius():
    # a 3-4-5 triangle: the unit-speed plant covers 5 - r
    assert checkers.line_capture_time(3.0, 4.0, 0.0, 0.0, 0.0) == pytest.approx(5.0)
    assert checkers.line_capture_time(3.0, 4.0, 1.0, 0.0, 1.0) == pytest.approx(4.0)


def test_receding_line_target():
    # from (1, 0) moving away along +x at 1/2: 1 + t/2 = t gives t = 2
    assert checkers.line_capture_time(1.0, 0.0, 0.0, 0.5, 0.0) == pytest.approx(2.0)


def test_faster_receding_target_is_never_captured():
    assert checkers.line_capture_time(1.0, 0.0, 0.0, 1.5, 0.1) is None


def test_first_paper_row_matches_its_quadratic():
    # target (t/4, 1), r = 1/10: (15/16) t^2 + t/5 - 99/100 = 0
    a, b, c = 15 / 16, 0.2, -0.99
    expected = (-b + math.sqrt(b * b - 4 * a * c)) / (2 * a)
    got = checkers.line_capture_time(0.0, 1.0, 0.0, 0.25, 0.1)
    assert got == pytest.approx(expected, abs=1e-15)


def test_already_captured_at_start():
    assert checkers.line_capture_time(0.05, 0.0, 0.0, 0.5, 0.1) == 0.0


def test_polyline_capture_in_second_segment():
    # rests at (4, 0) on [0, 1], out of reach; on [1, 2] it runs toward the
    # origin at speed 2, and 4 - 2 (t - 1) = t gives t = 2

    samples = ((0.0, (4.0, 0.0)), (1.0, (4.0, 0.0)), (2.0, (2.0, 0.0)))
    assert checkers.polyline_capture_time(samples, 0.0) == pytest.approx(2.0)


def test_polyline_capture_after_last_sample():
    samples = ((0.0, (6.0, 8.0)), (1.0, (6.0, 8.0)))
    assert checkers.polyline_capture_time(samples, 0.5) == pytest.approx(9.5)


def test_polyline_position_interpolates_and_rests():
    samples = ((0.0, (0.0, 0.0)), (2.0, (2.0, 4.0)))
    assert checkers.polyline_position(samples, 1.0) == (1.0, 2.0)
    assert checkers.polyline_position(samples, 5.0) == (2.0, 4.0)


def test_lipschitz_scan_on_a_stationary_lissajous_target():
    # v = 0: the curve rests at (3, 4), captured at 5 - r
    def position(t):
        return checkers.lissajous_position(3.0, 4.0, 1.0, 2.0, 0.0, t)

    got = checkers.lipschitz_capture_lower_bound(position, 0.0, 0.5)
    assert got <= 4.5
    assert got == pytest.approx(4.5, abs=1e-12)


def test_lipschitz_scan_is_a_lower_bound_on_a_line():
    def position(t):
        return checkers.line_position(0.0, 1.0, 0.0, 0.75, t)

    exact = checkers.line_capture_time(0.0, 1.0, 0.0, 0.75, 0.1)
    got = checkers.lipschitz_capture_lower_bound(position, 0.75, 0.1)
    assert got <= exact
    assert got == pytest.approx(exact, abs=1e-11)


def test_integrator_quarter_turns():
    # start at the origin heading +y; a left quarter turn ends at (-1, 1)
    (x, y), total = checkers.integrate_path([("arc", math.pi / 2, "left")])
    assert (x, y) == pytest.approx((-1.0, 1.0))
    assert total == pytest.approx(math.pi / 2)
    (x, y), _ = checkers.integrate_path([("arc", math.pi / 2, "right")])
    assert (x, y) == pytest.approx((1.0, 1.0))


def test_integrator_full_circle_returns_home():
    (x, y), _ = checkers.integrate_path([("arc", 2 * math.pi, "right")])
    assert (x, y) == pytest.approx((0.0, 0.0), abs=1e-12)


def test_integrator_turn_straight_wait():
    # right quarter turn to heading +x at (1, 1), then 2 straight, then idle
    segments = [("arc", math.pi / 2, "right"), ("straight", 2.0, None), ("wait", 3.0, None)]
    (x, y), total = checkers.integrate_path(segments)
    assert (x, y) == pytest.approx((3.0, 1.0))
    assert total == pytest.approx(math.pi / 2 + 5.0)


def test_published_table_shape():
    rows = checkers.PUBLISHED_ROWS
    assert len(rows) == 28
    assert sum(1 for r in rows if r[0] == "line") == 12
    assert sum(len(r[2]) + len(r[3]) for r in rows) == 168
    # first and last cells as printed in the paper
    assert rows[0][2:] == ((5, 10, 15), (5, 10, 15))
    assert rows[-1][2:] == ((21, 36, 51), (9, 16, 23))
