"""Renormalization of two-slope maps by first-return induction.

One step compares the break point x_t with the two branch images.  When x_t
lies in the image of the right branch (x_t below rho_b/(1+rho_b)) the left
letter L is recorded and the first return to (x_t, 1] is again a two-slope
map with slopes (rho_a*rho_b, rho_b); symmetrically x_t above 1/(1+rho_a)
records R and induces on [0, x_t) with slopes (rho_a, rho_a*rho_b).  Between
the thresholds the image misses x_t entirely and the dynamics falls into an
attracting 2-cycle.  Pulling the hole back through the inverse parameter
maps produces the nested word intervals whose intersection is the Cantor set
of infinitely renormalizable parameters.

A step is its letter, "L" or "R", and a word is its string of letters:
`classify_step` returns the letter a step records, or the terminal,
"halt" or "boundary", that ends the run.

`iterate_induction` runs these steps on plain scalars: it carries the
current map as (rho_a, rho_b, x_t) and each step's chart as a (scale,
offset) pair, computed by `induce`'s expressions, and builds no
TwoSlopeMap, AffineChart or step record along the word.  One classifier,
`classify_step`, which `induce` shares, decides each step once, and each
induced triple is checked by `intervalmaps.check_two_slope`, the rule
every TwoSlopeMap is built under, at a slack read once since exactness
holds along the word.  A halt's 2-cycle is lifted back through the inverse
charts and then iterated with the original map's branch laws.  The
plain-loop oracle in the tests, built on `induce` and `evaluate`, holds
the loop to the same bits.

Each letter's inverse parameter map is a Moebius factor, so the pull-back
along a word is their product.  One top-down walk of the word tree serves
the word intervals and the survivor measure.  The pull-back sends 0 to q/s
and 1 to u/v, homogeneous pairs whose numerators (q, u) and denominators
(s, v) are its two rows read at 0 and 1.  A child's pull-back is its
parent's times the letter's factor on the right, and a product on the
right maps each row by itself and both rows by the same rule, so the walk
carries one row: every node carries its slopes as numerator/denominator
pairs, the row and det, the product of the letters' determinants, each
extended by one factor per letter.  A measure walks the denominators' row
alone, and word intervals zip the walks of both rows, which take the same
branches.  A leaf's interval is (q/s, u/v), and every scalar track reads
its length, exactly hi - lo, as det/(s*v): divided twice, det/s/v, so that
no float product s*v overflows where s and v do not.  Only internal nodes
go on the walk's stack: a node with one letter left yields its leaves
itself, and about half the nodes of the tree are leaves.  A pull-back is
projective, so each factor is scaled by its slope's denominator without
moving any point: int and Fraction slopes then keep every entry an int,
and each endpoint is reduced once, as a Fraction, at its leaf.  Float
slopes carry denominator 1.0 (a pair with one float slope is read as two
floats), and a float survivor measure takes the correctly rounded sum
(math.fsum) of the leaves' lengths as the walk yields them.

Every entry of a leaf is a sum of products of positive numbers, so a
float walk subtracts nowhere and no leaf divides by 0 (s, v >= 1).  Its
error against the exact walk of the same floats is bounded, in units of
u = 2^-53 relative and to first order, by counting roundings: a slope at
depth k carries at most F(k+2) - 1 of them (F the Fibonacci numbers,
F(1) = F(2) = 1), and a letter adds at most a slope's count plus 2 to an
entry and plus 1 to det, so at depth n an entry carries at most
F(n+3) + n - 2 and det at most F(n+3) - 2.  An endpoint is then within
2F(n+3) + 2n - 3 units, a leaf's length within 3F(n+3) + 2n - 4, and a
measure, whose sum rounds once, within 3F(n+3) + 2n - 3.  The bound holds
while every entry stays in the normal float range.  Every feasibility
test agrees with the exact one, so a float walk walks the exact walk's
tree at any depth: a slope product that could round to the wrong side
of 1 is decided exactly and, where it did, moved to the float nearest 1
on the right side (`_straddle_products`), no farther from its exact
value than the rounded product or one unit.  Past the float range
an entry can overflow.  Word intervals with a leaf whose s or v is
infinite are refused with ValueError, since an endpoint would read 0 or
inf/inf; a measure is refused only when a length reads inf/inf, and a
leaf whose s or v alone overflows adds 0, short of its length by less
than det/1.8e308.  No float walk returns a NaN.

On int entries the survivor measure builds no endpoint: a leaf's length
is the unreduced pair (det, s*v).  The lengths are summed in balanced
pairs, since a running sum's denominator grows with every term; the lowest
two levels add unreduced int (numerator, denominator) pairs, and Fraction
normalizes only above them.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import count, islice
from typing import NamedTuple, Optional

from .errors import AtDiscontinuity, NonConvergence, NotRenormalizable
from .intervalmaps import (
    INJECTIVITY_SLACK,
    AffineChart,
    PeriodicCycle,
    TwoSlopeMap,
    attracting_cycle_in_hole,
    check_two_slope,
    thresholds,
)
from .quadratics import Scalar, as_float, as_ratio, is_exact, slack

# A cycle lifted back to the original map runs for its period, which the
# induction counts; a float lift must then be back within CYCLE_CLOSE_TOL
# of its first point, in the map's [0, 1] coordinate.  A period above
# RECONSTRUCT_CAP is refused before any step.
CYCLE_CLOSE_TOL: float = 1e-9
RECONSTRUCT_CAP: int = 10 ** 6
# Induction on float slopes stops once a slope (unitless) leaves
# (FLOAT_SLOPE_MIN, FLOAT_SLOPE_MAX).
FLOAT_SLOPE_MIN: float = 1e-150
FLOAT_SLOPE_MAX: float = 1e150
# An exact survivor measure of more leaves is refused before its sum,
# whose gcds run on numbers up to the result's denominator.  Below the
# cap the time depends on the slopes: at (1/2, 1/2), whose sums cancel
# heavily, depth 14 (2^14 leaves) takes seconds; at generic slopes
# such as (5/6, 4/7) the sum alone takes 0.64 s at depth 11, 5.2 s at
# depth 12 and 41 s at depth 13, where the denominator has 6.98M bits
# and the CLI refuses to print it (cli.MAX_PRINTED_DIGITS).
EXACT_MEASURE_MAX_LEAVES: int = 2 ** 14


def classify_step(ra: Scalar, rb: Scalar, xt: Scalar) -> str:
    """The letter the step of the map (ra, rb, xt) records: "L" when the
    B branch's image captures the break point and "R" when the A
    branch's does; otherwise the terminal that ends the run: "halt"
    when neither image holds it and "boundary" on a threshold tie.  The
    one classifier of a step; its thresholds are those of `thresholds`,
    written out, since the induction loop calls it on every step."""
    thr_b, thr_a = rb / (1 + rb), 1 / (1 + ra)
    if xt == thr_b or xt == thr_a:
        return "boundary"
    if xt < thr_b:
        return "L"
    if xt > thr_a:
        return "R"
    return "halt"


class InductionStep(NamedTuple):
    induced: TwoSlopeMap
    letter: str               # "L" or "R"
    chart: AffineChart        # induced subinterval -> [0, 1]


def induce(tsm: TwoSlopeMap) -> InductionStep:
    """One renormalization step; requires a letter, "L" or "R".

    The break parameter transforms by a Moebius map in each case; the chart
    rescales the induced subinterval ([0,x_t) for R, (x_t,1] for L) back to
    the unit interval.  Rational inputs stay rational.  `iterate_induction`
    runs the same expressions on plain scalars.
    """
    letter = classify_step(*tsm)
    ra, rb, xt = tsm
    if letter == "R":
        slopes, new_xt = (ra, ra * rb), ((1 + ra) * xt - 1) / (ra * xt)
        chart = AffineChart(1 / xt, 0 * xt)
    elif letter == "L":
        slopes, new_xt = (ra * rb, rb), xt / (rb * (1 - xt))
        chart = AffineChart(1 / (1 - xt), -xt / (1 - xt))
    else:
        raise NotRenormalizable(f"step class is {letter}; no winner")
    try:
        return InductionStep(TwoSlopeMap(*slopes, new_xt), letter, chart)
    except ValueError as exc:
        raise _invalid_induced_map(exc) from exc


def _invalid_induced_map(exc: ValueError) -> NotRenormalizable:
    """The refusal of an induced map that float rounding pushed past
    the validity rule of a two-slope map."""
    return NotRenormalizable(f"induced map is not a valid two-slope map: "
                             f"{exc}")


class Subdivision(NamedTuple):
    """The three parameter intervals of one induction step."""

    rho_a: Scalar
    rho_b: Scalar

    @property
    def left(self) -> tuple[Scalar, Scalar]:
        return (0, thresholds(self.rho_a, self.rho_b)[0])

    @property
    def hole(self) -> Optional[tuple[Scalar, Scalar]]:
        thr_b, thr_a = thresholds(self.rho_a, self.rho_b)
        return (thr_b, thr_a) if thr_b < thr_a else None

    @property
    def right(self) -> tuple[Scalar, Scalar]:
        return (thresholds(self.rho_a, self.rho_b)[1], 1)

    def lengths(self) -> tuple[Scalar, Scalar, Scalar]:
        hole = self.hole
        hole_len = hole[1] - hole[0] if hole else 0
        return (self.left[1], hole_len, self.rho_a / (1 + self.rho_a))


def _check_slopes(rho_a: Scalar, rho_b: Scalar) -> None:
    """ValueError unless both slopes are positive, and finite when they
    are floats."""
    if not all(math.isfinite(x) for x in (rho_a, rho_b)
               if isinstance(x, float)):
        raise ValueError(f"slopes must be finite, got ({rho_a!r}, {rho_b!r})")
    if not (rho_a > 0 and rho_b > 0):
        raise ValueError("slopes must be positive")


def subdivision(rho_a: Scalar, rho_b: Scalar) -> Subdivision:
    """The subdivision at slopes that are positive, and finite when they
    are floats."""
    _check_slopes(rho_a, rho_b)
    return Subdivision(rho_a, rho_b)


class RauzyOutcome(NamedTuple):
    """The word an induction recorded and how it ended: `terminal` is
    "halt" (with the pulled-back `cycle`), "boundary" (a threshold tie)
    or "budget_exhausted" (see `iterate_induction`)."""

    word: str
    terminal: str
    cycle: Optional[PeriodicCycle]


def _pull_back_cycle(tsm: TwoSlopeMap, final: tuple, charts: list[tuple],
                     period: int) -> PeriodicCycle:
    """Lift the final map's 2-cycle to the full cycle of the original map.

    `final` is the last induced map's (rho_a, rho_b, x_t) and `charts`
    the steps' (scale, offset) pairs, first step first.  The inverse
    charts send one cycle point back to original coordinates; the
    remaining points are recovered by iterating the original map's
    branch laws, since the induced maps are first returns.  Each point
    is refused as `intervalmaps.evaluate` refuses it: outside [0, 1] or
    on the break point.  The cycle has `period` points, the two branch
    return times of `final` summed, so the lift takes exactly that many
    steps: a contracting cycle may pass closer to its first point before
    it closes.  The multiplier is the slope product along the loop,
    which equals the final map's rho_a*rho_b.
    """
    if period > RECONSTRUCT_CAP:
        raise NonConvergence(f"cycle period {period} exceeds the "
                             f"reconstruction cap {RECONSTRUCT_CAP}")
    seed = attracting_cycle_in_hole(final).points[0]
    for scale, offset in reversed(charts):
        seed = (seed - offset) / scale
    ra, rb, xt = tsm
    intercept_a = 1 - ra * xt
    pts: list = []
    append = pts.append
    x, mult = seed, 1
    for _ in range(period):
        # a point below x_t is below 1 and one above it is above 0, so
        # each branch tests one end of [0, 1]; NaN takes neither branch
        if x < xt and x >= 0:
            append(x)
            mult *= ra
            x = ra * x + intercept_a
        elif x > xt and x <= 1:
            append(x)
            mult *= rb
            x = rb * (x - xt)
        elif x == xt:
            raise AtDiscontinuity(f"map is undefined at its break point {x}")
        else:
            raise ValueError(f"{x} is outside [0, 1]")
    tol = slack(CYCLE_CLOSE_TOL, ra, rb, xt, seed)
    if not abs(x - seed) <= tol:        # a NaN never closes
        raise NonConvergence(
            f"cycle lift does not return to its first point after its period "
            f"of {period} steps; the chart pullback must be wrong")
    return PeriodicCycle(tuple(pts), mult)


def iterate_induction(tsm: TwoSlopeMap, budget: int) -> RauzyOutcome:
    """Renormalize until the dynamics halts ("halt"), hits a threshold
    tie ("boundary"), or the step budget runs out ("budget_exhausted").
    A run on float slopes also ends "budget_exhausted" once a slope
    leaves (FLOAT_SLOPE_MIN, FLOAT_SLOPE_MAX), short of its budget.
    Budget 0 classifies the first step only.

    The loop steps the plain scalars (rho_a, rho_b, x_t) and keeps each
    chart as a (scale, offset) pair, both by `induce`'s expressions: each
    step is classified once by `classify_step`, and each induced triple is
    checked by `intervalmaps.check_two_slope`, the rule a TwoSlopeMap
    applies, at the injectivity slack of the input, read once.  The
    return times (t_a, t_b) of the current map's branches to the
    original map start at (1, 1); letter L adds t_b to t_a and letter R
    adds t_a to t_b."""
    if budget < 0:
        raise ValueError("induction budget must be nonnegative")
    ra, rb, xt = tsm
    # an induced map is exact exactly when its input is: a float slope
    # or break point passes into every later map, so the slack, 0 on
    # exact data only, holds along the loop
    tol = slack(INJECTIVITY_SLACK, ra, rb, xt)
    charts: list[tuple] = []
    letters: list[str] = []
    t_a = t_b = 1
    for step in range(budget + 1):
        letter = classify_step(ra, rb, xt)
        if letter == "halt":
            cycle = _pull_back_cycle(tsm, (ra, rb, xt), charts, t_a + t_b)
            return RauzyOutcome("".join(letters), letter, cycle)
        if letter == "boundary":
            return RauzyOutcome("".join(letters), letter, None)
        if step == budget:
            break
        if tol and not (FLOAT_SLOPE_MIN < float(ra) < FLOAT_SLOPE_MAX
                        and FLOAT_SLOPE_MIN < float(rb) < FLOAT_SLOPE_MAX):
            # Float slopes grow without bound along non-halting words;
            # past this range the induced data is no longer meaningful.
            break
        # `induce`'s expressions, on the scalars
        if letter == "L":
            rest = 1 - xt
            charts.append((1 / rest, -xt / rest))
            ra, xt = ra * rb, xt / (rb * rest)
            t_a += t_b
        else:
            charts.append((1 / xt, 0 * xt))
            rb, xt = ra * rb, ((1 + ra) * xt - 1) / (ra * xt)
            t_b += t_a
        letters.append(letter)
        try:
            check_two_slope(ra, rb, xt, tol)
        except ValueError as exc:
            raise _invalid_induced_map(exc) from exc
    return RauzyOutcome("".join(letters), "budget_exhausted", None)


# --- parameter intervals of induction words ---

def _straddle_products(rho_a: Scalar, rho_b: Scalar,
                       depth: int) -> dict[tuple[int, float, float], float]:
    """The slope product that `_walk` takes in place of x*y at each node,
    to `depth`, whose float slopes (x, y) lie on both sides of 1 and
    whose x*y rounded to 1 or past it: the float nearest 1 on the side
    of the exact product of the same floats, keyed by (k, x, y) with k
    the letters left below the node.  Empty unless both slopes are
    floats, and not both powers of 2; empty, too, for almost every pair.

    Rounding is monotone and 1 is a float, so a product of floats on
    one side of 1 rounds to that side, and to 1 only when it is 1: only
    a product of slopes on both sides of 1 can be decided wrong.  Of the
    children of such a node, the one that takes the product in place of
    the slope on the product's side of 1 straddles 1 again and the other
    does not, so these nodes form one path, one node per depth.  The
    slopes along it are rho_a**i * rho_b**j, and a product's side of 1
    is the sign of t = i*ln(rho_a) + j*ln(rho_b), which is 0 only when
    both slopes are powers of 2, whose products along the path are
    exact.  Decimal's ln is correctly rounded, so t read at P digits is
    off by less than 10**(2 - P) * (i*|ln(rho_a)| + j*|ln(rho_b)|); P
    grows until |t| passes that."""
    path, x, y = {}, (rho_a, 1, 0), (rho_b, 0, 1)
    rounded = type(rho_a) is type(rho_b) is float and (
        math.frexp(rho_a)[0] != 0.5 or math.frexp(rho_b)[0] != 0.5)
    for k in reversed(range(depth)):
        if not (rounded and (x[0] < 1 < y[0] or y[0] < 1 < x[0])):
            break
        p, i, j = x[0] * y[0], x[1] + y[1], x[2] + y[2]
        with localcontext() as ctx:
            for ctx.prec in count(32, 32):
                la, lb = Decimal(rho_a).ln(), Decimal(rho_b).ln()
                t = i * la + j * lb
                if abs(t) > (i * abs(la) + j * abs(lb)).scaleb(2 - ctx.prec):
                    break
        if not (p < 1 if t < 0 else p > 1):     # rounded to 1 or past it
            p = path[k, x[0], y[0]] = math.nextafter(1.0, 2.0 * (t > 0))
        x, y = ((p, i, j), y) if (p < 1) == (x[0] < 1) else (x, (p, i, j))
    return path


def _walk(root: tuple, path: dict):
    """Yield the leaf (a, b, det) of every feasible word of the root's
    length k, L before R.  (a, b) is the root's row, the numerators'
    (q, u) or the denominators' (s, v), mapped along the word, and det is
    the word's determinant: the word's interval is (q/s, u/v) and its
    length det/(s*v).

    The tree is walked top-down on an explicit stack of internal nodes
    (xn, xd, yn, yd, a, b, det, k): slopes rho_a = xn/xd and rho_b = yn/yd
    (denominators positive), the node's row and determinant, and the
    letters still to take.  A child's pull-back is its parent's times the
    letter's Moebius factor on the right: y -> rho_b*y / (1 + rho_b*y) for
    L, y -> 1 / (1 + rho_a*(1 - y)) for R, as the matrices
    [[yn, 0], [yn, yd]] and [[0, xd], [-xn, xd + xn]], of determinants
    yn*yd and xn*xd.  A product on the right maps each row of the
    pull-back by itself, and both rows alike: read as its images (a, b)
    of 0 and 1, a row goes to (a*yd, b*yn + a*yd) under L and to
    (b*xd + a*xn, b*xd) under R.  The factor is scaled by the slope's
    denominator, which moves no point, so integer slope pairs keep every
    entry an integer; at denominator 1.0 the float operations are those
    of the unscaled factor.  Every entry is a sum of products of positive
    numbers: the R factor's negative entry never enters, so a float walk
    subtracts nowhere, and the denominators' row stays >= 1.  A leaf is
    never pushed: a node with one letter left yields its L child's leaf
    and then its R child's, so about half the nodes of the tree never go
    through the stack.  The products xn*yn and xd*yd, which a node's
    feasibility test and its children's slopes read, are taken once; on
    float slopes, xn*yn is read from `path`, the walk's
    `_straddle_products`, at the nodes where it rounded to the wrong side
    of 1, or to 1.  A node's branches depend on its slopes alone, so the
    walks of both rows take the same ones.

    With rho_a*rho_b >= 1 the injectivity constraint confines valid break
    points to one side: below the B-threshold when rho_a > 1 (forced L),
    above the A-threshold when rho_b > 1 (forced R).  The walk is lazy: a
    caller that stops early stops it at that leaf.
    """
    if not root[-1]:
        yield root[4:7]
        return
    stack = [root]
    pop, push = stack.pop, stack.append
    while stack:
        xn, xd, yn, yd, a, b, det, k = pop()
        k -= 1
        xyn, xyd = path.get((k, xn, yn), xn * yn) if path else xn * yn, xd * yd
        free = xyn < xyd
        go_l, go_r = free or yn <= yd, free or xn <= xd
        if k:
            if go_r:                    # pushed first, so L is popped first
                bd = b * xd
                push((xn, xd, xyn, xyd, bd + a * xn, bd, det * (xn * xd), k))
            if go_l:
                ad = a * yd
                push((xyn, xyd, yn, yd, ad, b * yn + ad, det * (yn * yd), k))
            continue
        if go_l:
            ad = a * yd
            yield ad, b * yn + ad, det * (yn * yd)
        if go_r:
            bd = b * xd
            yield bd + a * xn, bd, det * (xn * xd)


def _left_the_float_range(rho_a: Scalar, rho_b: Scalar,
                          depth: int) -> ValueError:
    """The refusal of a float walk whose leaf entries overflowed: word
    intervals with an infinite s or v, whose endpoint would read 0 or
    inf/inf, or a measure with a length that reads inf/inf."""
    return ValueError(
        f"the float walk at slopes ({rho_a!r}, {rho_b!r}) to depth {depth} "
        "left the float range")


def _checked_root(rho_a: Scalar, rho_b: Scalar,
                  depth: int) -> tuple[tuple, dict, bool]:
    """The root node (xn, xd, yn, yd, a, b, det, k) of a walk of the
    denominators' row to `depth`: the identity pull-back's row (1, 1),
    det 1 and k = `depth`.  With it the walk's `_straddle_products` and
    whether all its entries are ints; ValueError unless the depth is
    nonnegative and `_check_slopes` passes.  Exact slopes from two
    quadratic fields raise `quadratics.one_field`'s ValueError where the
    walk first multiplies them, at its first step, so at depth 0 they
    give the one root.  A pair with a float slope is read as two floats,
    so that the walk is a float walk throughout."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if not is_exact(rho_a, rho_b):      # a pair with a float walks as floats
        rho_a, rho_b = as_float(rho_a, "a slope"), as_float(rho_b, "a slope")
    _check_slopes(rho_a, rho_b)
    xn, xd = as_ratio(rho_a)
    yn, yd = as_ratio(rho_b)
    one = 1 + 0 * xn * yn
    return ((xn, xd, yn, yd, one, one, one, depth),
            _straddle_products(rho_a, rho_b, depth),
            all(type(v) is int for v in (xn, xd, yn, yd)))


def survivor_intervals(rho_a: Scalar, rho_b: Scalar,
                       depth: int) -> list[tuple[Scalar, Scalar]]:
    """Disjoint closed intervals of n-times renormalizable parameters.

    One interval per feasible word of length `depth`, words in order with
    L before R: the image of [0, 1] under the word's composed pull-back,
    one Moebius factor per letter scaled by the slope's denominator (see
    `_walk`): the numerators' row (0, 1) and the denominators' row (1, 1)
    are each walked, sharing one `_straddle_products`, and zipped leaf by
    leaf.  That is O(2^depth) scalar operations.  Int and Fraction
    slopes keep every entry an int and give Fraction endpoints, normalized
    once per leaf; QuadraticNumber slopes give exact endpoints too, and
    float slopes run the float operations of the unscaled factors, within
    the error bound the module docstring states, and refuse with
    ValueError a walk that left the float range.  Slopes must be
    positive, and finite when they are floats.
    """
    root, path, integral = _checked_root(rho_a, rho_b, depth)
    rows = zip(_walk((*root[:4], 0 * root[4], *root[5:]), path),
               _walk(root, path), strict=True)
    leaves = [(q, s, u, v) for (q, u, _), (s, v, _) in rows]
    if not is_exact(rho_a, rho_b) and not all(
            max(s, v) < math.inf for _, s, _, v in leaves):
        raise _left_the_float_range(rho_a, rho_b, depth)
    if integral:
        return [(Fraction(q, s), Fraction(u, v)) for q, s, u, v in leaves]
    return [(q / s, u / v) for q, s, u, v in leaves]


def _pairwise_sum(terms: list) -> Scalar:
    """Sum of a nonempty list by balanced pairs, which keeps exact
    operands of similar size."""
    while len(terms) > 1:
        pairs = [terms[i] + terms[i + 1] for i in range(0, len(terms) - 1, 2)]
        terms = pairs + terms[len(pairs) * 2:]
    return terms[0]


def _exact_leaves(root: tuple, path: dict) -> list[tuple]:
    """The leaves (s, v, det) an exact survivor measure sums: the walk of
    the denominators' row from `root`.  ValueError when there are more
    than EXACT_MEASURE_MAX_LEAVES, found by a walk that stops at the
    first leaf past the cap."""
    leaves = list(islice(_walk(root, path), EXACT_MEASURE_MAX_LEAVES + 1))
    if len(leaves) > EXACT_MEASURE_MAX_LEAVES:
        raise ValueError(
            f"an exact measure at depth {root[-1]} sums more than "
            f"EXACT_MEASURE_MAX_LEAVES = {EXACT_MEASURE_MAX_LEAVES} "
            "interval lengths")
    return leaves


def check_exact_measures(rho_a: Scalar, rho_b: Scalar, depth: int) -> None:
    """Refuse with ValueError, before any sum, a table of exact survivor
    measures at depths 0 to `depth` if one of them has more than
    EXACT_MEASURE_MAX_LEAVES leaves: the check survivor_measure makes at
    each depth, with the first depth past the cap in its message."""
    _checked_root(rho_a, rho_b, depth)      # refuses a negative depth
    for k in range(depth + 1):              # each depth walks its own path
        root, path, _ = _checked_root(rho_a, rho_b, k)
        _exact_leaves(root, path)


def survivor_measure(rho_a: Scalar, rho_b: Scalar, depth: int) -> Scalar:
    """Lebesgue measure of the n-times renormalizable parameter set.

    Only the denominators' row is walked: every track reads a leaf's
    length as det/(s*v) off the leaf (s, v, det) that `_walk` yields from
    the row (1, 1), which is exactly hi - lo: the unreduced pair
    (det, s*v) on ints, det/s/v otherwise.  Int and Fraction slopes sum
    the lengths in balanced pairs: the lowest two levels as unreduced int
    (numerator, denominator) pairs, Fractions above them.  QuadraticNumber
    slopes sum them in balanced pairs; float slopes take their correctly
    rounded sum as the walk yields them, holding no list of intervals,
    and refuse with ValueError a walk that left the float range.

    Exact slopes with more than EXACT_MEASURE_MAX_LEAVES leaves are
    refused with ValueError before the sum: the walk stops at the first
    leaf past the cap, so a refusal costs the same at any depth."""
    root, path, integral = _checked_root(rho_a, rho_b, depth)
    if not is_exact(rho_a, rho_b):
        total = math.fsum(det / s / v for s, v, det in _walk(root, path))
        if not math.isfinite(total):
            raise _left_the_float_range(rho_a, rho_b, depth)
        return total
    leaves = _exact_leaves(root, path)
    if not leaves:
        return 0 * rho_a
    if not integral:
        return _pairwise_sum([det / s / v for s, v, det in leaves])
    terms = [(det, s * v) for s, v, det in leaves]
    for _ in range(2):              # the lowest two levels, unreduced
        terms = [(a * d + c * b, b * d) for (a, b), (c, d)
                 in zip(terms[::2], terms[1::2])] + terms[len(terms) & ~1:]
    return _pairwise_sum([Fraction(n, d) for n, d in terms])
