"""SVG rendering of rooms and direction scans.

Plain SVG 1.1 built by string assembly; no drawing dependency.  The
pentagon view color-codes the two glued side pairs and the door, the
direction wheel paints classified angle intervals on a circle.
"""

from __future__ import annotations

import math

from .geometry import Room
from .surface import ScanResult

# one fixed color per gluing orbit, plus neutral tones
COLOR_BOTTOM_TOP = "#d95f02"
COLOR_RIGHT_LEFT = "#1b9e77"
COLOR_DOOR = "#7570b3"
COLOR_FILL = "#f4f1ea"
COLOR_NEUTRAL = "#d9d9d9"
# width and height of every drawing, in pixels
SIZE = 480

_SIDE_COLORS = {0: COLOR_BOTTOM_TOP, 1: COLOR_RIGHT_LEFT,
                2: COLOR_BOTTOM_TOP, 3: COLOR_DOOR, 4: COLOR_RIGHT_LEFT}

_HEADER = ('<?xml version="1.0" encoding="UTF-8"?>\n'
           '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
           'width="{s}" height="{s}" viewBox="0 0 {s} {s}">\n')


def _fmt(x: float) -> str:
    return f"{x:.4f}".rstrip("0").rstrip(".")


def pentagon_svg(room: Room) -> str:
    """Pentagon of the room with glued-side color coding.

    Sides 0/2 (bottom and its dilated top copy) share one color, 1/4
    (right and left) another, the door a third.  Screen y runs down, so
    plane coordinates are flipped vertically.
    """
    verts = [v.as_floats() for v in room.vertices()]
    xs = [p[0] for p in verts]
    ys = [p[1] for p in verts]
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1e-30)
    pad = 0.08 * SIZE
    scale = (SIZE - 2 * pad) / span
    x0 = 0.5 * (min(xs) + max(xs))
    y0 = 0.5 * (min(ys) + max(ys))

    def to_screen(p: tuple[float, float]) -> tuple[float, float]:
        return (0.5 * SIZE + (p[0] - x0) * scale,
                0.5 * SIZE - (p[1] - y0) * scale)

    pts = [to_screen(p) for p in verts]
    m1, m2 = room.params.as_floats()

    out = [_HEADER.format(s=SIZE)]
    out.append(f"  <title>room mu=({m1:.6g}, {m2:.6g})</title>\n")
    poly = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
    out.append(f'  <polygon points="{poly}" fill="{COLOR_FILL}" '
               'stroke="none"/>\n')
    for side in room.sides():
        (x1, y1), (x2, y2) = pts[side.index], pts[(side.index + 1) % 5]
        color = _SIDE_COLORS[side.index]
        width = 4 if side.is_door else 3
        out.append(f'  <line x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
                   f'x2="{_fmt(x2)}" y2="{_fmt(y2)}" stroke="{color}" '
                   f'stroke-width="{width}" stroke-linecap="round"/>\n')
    for k, (x, y) in enumerate(pts):
        out.append(f'  <circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="4" '
                   'fill="#333333"/>\n')
        lx, ly = x + 8, y - 8
        out.append(f'  <text x="{_fmt(lx)}" y="{_fmt(ly)}" '
                   f'font-size="13" fill="#333333">V{k}</text>\n')
    out.append("</svg>\n")
    return "".join(out)


def direction_wheel_svg(room: Room, scan: ScanResult) -> str:
    """Ring of inward directions with found cylinder intervals painted.

    The neutral ring spans the inward half-circle; each cylinder
    interval is drawn over it, and the door direction gets a radial
    tick.  Angles follow the plane convention (counterclockwise from
    east), flipped to screen coordinates.
    """
    c = 0.5 * SIZE
    r = 0.40 * SIZE
    stroke = 0.055 * SIZE

    def point(theta: float, radius: float) -> tuple[float, float]:
        return (c + radius * math.cos(theta), c - radius * math.sin(theta))

    def arc(theta1: float, theta2: float, color: str, width: float) -> str:
        x1, y1 = point(theta1, r)
        x2, y2 = point(theta2, r)
        large = 1 if theta2 - theta1 > math.pi else 0
        return (f'  <path d="M {_fmt(x1)} {_fmt(y1)} '
                f'A {_fmt(r)} {_fmt(r)} 0 {large} 0 '
                f'{_fmt(x2)} {_fmt(y2)}" fill="none" stroke="{color}" '
                f'stroke-width="{_fmt(width)}"/>\n')

    lo, hi = room.inward_directions()
    out = [_HEADER.format(s=SIZE)]
    out.append(f"  <title>direction wheel, {len(scan.cylinders)} "
               "cylinder intervals</title>\n")
    out.append(arc(lo, hi - 1e-9, COLOR_NEUTRAL, stroke))
    for cyl in scan.cylinders:
        out.append(arc(cyl.theta1, cyl.theta2, COLOR_RIGHT_LEFT, stroke))
    door = room.door_direction()
    for theta in (door, door + math.pi):
        x1, y1 = point(theta, r - 0.8 * stroke)
        x2, y2 = point(theta, r + 0.8 * stroke)
        out.append(f'  <line x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
                   f'x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
                   f'stroke="{COLOR_DOOR}" stroke-width="2"/>\n')
    out.append(f'  <circle cx="{_fmt(c)}" cy="{_fmt(c)}" r="3" '
               'fill="#333333"/>\n')
    out.append("</svg>\n")
    return "".join(out)
