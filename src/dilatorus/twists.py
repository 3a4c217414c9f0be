"""Elementary shear moves on rooms and the parameter dynamics they generate.

The two shears and their inverses act on (e1, e2, mu1, mu2) by

    S1:     (e1 + nu1*e2, nu1*e2),  (mu1, mu1 + mu2)
    S2:     (nu2*e1, e2 + nu2*e1),  (mu1 + mu2, mu2)
    S1inv:  (e1 - e2, e2/nu1),      (mu1, mu2 - mu1)
    S2inv:  (e1/nu2, e2 - e1),      (mu1 - mu2, mu2)

so the parameter pair transforms by unimodular integer matrices while the
basis picks up dilation factors.  A move is a letter: S1 = A, S2 = B, and
the other case is the inverse.  A word is its string of letters, a `str`
over A, a, B, b; a letter outside these four is refused with ValueError
before any move.  Words drive the subtractive contraction algorithm and
the density search in parameter space.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional

from .errors import (
    BudgetExhausted,
    InadmissibleAtStep,
    NonOrientedBasis,
    OrientationLostToRounding,
    RationalRatio,
)
from .geometry import DilationParams, Room, Vec2
from .quadratics import convergents, is_exact, quadratic

# A float subtractive block of x by y takes k = floor(x/y - FLOAT_MARGIN)
# moves and needs a remainder above FLOAT_MARGIN * max(|x|, |y|):
# unitless, once on the ratio and once relative to the larger parameter.
FLOAT_MARGIN: float = 1e-12
DENOMINATOR_CAP: int = 10 ** 6
# reach_target's default cap on the word length
DEFAULT_REACH_BUDGET: int = 10 ** 5
# A float convergent p/q witnesses a rational ratio mu1/mu2 (unitless)
# only when it lies within RATIO_TOL of it, absolutely.
RATIO_TOL: float = 1e-9
# a convergent only counts as a rational witness when it beats the generic
# 1/q^2 approximation quality by this factor; otherwise every irrational
# would be certified once q^2 exceeds 1/RATIO_TOL
ANOMALY_FACTOR: float = 1e-3


# action on (mu1, mu2) as the integer rows (r11, r12, r21, r22) of each move
MU_ACTION: dict[str, tuple[int, int, int, int]] = {
    "A": (1, 0, 1, 1),
    "B": (1, 1, 0, 1),
    "a": (1, 0, -1, 1),
    "b": (1, -1, 0, 1),
}

def word_from_string(s: str) -> str:
    """`s` itself, once each of its letters is one of A, a, B, b."""
    if s.strip("AaBb"):
        raise ValueError(f"invalid word letter in {s!r}")
    return s


# --- single moves ---

def twist_mu(g: str, params: DilationParams) -> DilationParams:
    """Parameter part of a move; exact when the inputs are exact."""
    if g not in MU_ACTION:
        raise ValueError(f"invalid move {g!r}: a move is one of A, a, B, b")
    r11, r12, r21, r22 = MU_ACTION[g]
    m1, m2 = params.mu1, params.mu2
    return DilationParams(r11 * m1 + r12 * m2, r21 * m1 + r22 * m2)


def twist_basis(g: str, e1: Vec2, e2: Vec2,
                params: DilationParams) -> tuple[Vec2, Vec2]:
    if g not in MU_ACTION:
        raise ValueError(f"invalid move {g!r}: a move is one of A, a, B, b")
    nu1, nu2 = params.nu()
    if g == "A":
        return (e1 + e2 * nu1, e2 * nu1)
    if g == "B":
        return (e1 * nu2, e2 + e1 * nu2)
    if g == "a":
        return (e1 - e2, e2 * (1.0 / nu1))
    return (e1 * (1.0 / nu2), e2 - e1)


# --- words ---

def mu_path(word: str, params: DilationParams) -> Iterator[DilationParams]:
    """The parameters before `word` and after each move, lazily: the one
    fold of `twist_mu` along a word.  Raises InadmissibleAtStep at the
    first result outside the open positive quadrant, or at step 0 when a
    nonempty word starts outside it.

    Each move is `twist_mu`'s multiply-add and `in_positive_quadrant`'s
    test, inline, in the same order of operations; its oracle is
    `tests/oracles.mu_path_oracle`, the plain fold of `twist_mu`."""
    word_from_string(word)
    if word and not params.in_positive_quadrant():
        raise InadmissibleAtStep(0, "start parameters are not in the "
                                    "positive quadrant")
    yield params
    m1, m2 = params
    new = tuple.__new__
    for k, g in enumerate(word):
        r11, r12, r21, r22 = MU_ACTION[g]
        m1, m2 = r11 * m1 + r12 * m2, r21 * m1 + r22 * m2
        if not (m1 > 0 and m2 > 0):
            raise InadmissibleAtStep(k)
        yield new(DilationParams, (m1, m2))


def mu_after(word: str, params: DilationParams) -> DilationParams:
    """The parameters after `word`: the last value `mu_path` yields, folded
    with its operations and its refusals but no record per move."""
    word_from_string(word)
    if word and not params.in_positive_quadrant():
        raise InadmissibleAtStep(0, "start parameters are not in the "
                                    "positive quadrant")
    m1, m2 = params
    for k, g in enumerate(word):
        r11, r12, r21, r22 = MU_ACTION[g]
        m1, m2 = r11 * m1 + r12 * m2, r21 * m1 + r22 * m2
        if not (m1 > 0 and m2 > 0):
            raise InadmissibleAtStep(k)
    return tuple.__new__(DilationParams, (m1, m2)) if word else params


class WordResult(NamedTuple):
    room: Room
    mu_path: tuple[tuple[float, float], ...]


def apply_word(word: str, room: Room) -> WordResult:
    """Apply a word move by move, requiring every prefix to stay admissible.

    The moves keep the basis oriented, but its float entries can grow
    until the rounded determinant turns over; that raises
    OrientationLostToRounding."""
    fold = mu_path(word, room.params)
    params = next(fold)
    e1, e2 = room.e1, room.e2
    path = [params.as_floats()]
    for g in word:
        # the basis first: a factor past the float range is refused
        # before a later move leaves the quadrant
        e1, e2 = twist_basis(g, e1, e2, params)
        params = next(fold)
        path.append(params.as_floats())
    try:
        final = Room(e1, e2, params)
    except NonOrientedBasis as exc:
        big = max(abs(c) for c in (*e1.as_floats(), *e2.as_floats()))
        raise OrientationLostToRounding(
            f"rounding flipped the float basis after {len(word)} moves "
            f"(entries up to {big:.3g}; {exc}), though every move multiplies "
            "the true determinant by a positive dilation factor") from None
    return WordResult(final, tuple(path))


# --- subtractive contraction ---

class ContractionResult(NamedTuple):
    word: str
    blocks: tuple[tuple[str, int], ...]     # (letter, k): k moves of it
    final: DilationParams


def _exact_block_count(x, y) -> int:
    """Largest k with x - k*y > 0, for exact positive scalars x > y:
    ceil(x/y) - 1, which is at least 1."""
    return -(-quadratic(x) / quadratic(y)).floor() - 1


def _float_block_count(x: float, y: float) -> int:
    q = x / y
    # past the float range no remainder can be certified: k = 0 refuses
    k = math.floor(q - FLOAT_MARGIN) if q < math.inf else 0
    if k < 1 or x - k * y <= FLOAT_MARGIN * max(abs(x), abs(y)):
        raise RationalRatio(
            f"cannot certify a positive remainder for ({x}, {y})")
    return k


def gauss_contraction(params: DilationParams, eps: float,
                      max_generators: int = 10 ** 6) -> ContractionResult:
    """Shrink positive parameters below eps by maximal subtractive blocks.

    While mu1 > mu2 the move S2inv = b subtracts mu2 from mu1 (k times, k
    maximal with a positive remainder); symmetrically S1inv = a subtracts
    mu1 from mu2.
    Rationally dependent pairs run into a tie, or on floats into a
    remainder too small to certify: RationalRatio.  A block that would
    take the word past max_generators raises BudgetExhausted before it is
    built, with the (word, blocks) before it as the partial result.

    Exact parameters stop on the exact test m1^2 + m2^2 < eps^2, floats
    on their hypot.  Refused with ValueError: a negative or NaN eps,
    which no contraction could meet, a non-finite float start, and a
    float eps at or below ulp(min(m1, m2)).  Both floats, and every
    rounded k*y and x - k*y computed from them, are multiples of that
    spacing, so no smaller norm can be reached.  Exact parameters from
    two quadratic fields raise `quadratics.one_field`'s ValueError where
    the loop first combines them, so an infinite eps, which every start
    meets, gives the empty contraction.
    """
    if not eps >= 0:
        raise ValueError(f"tolerance eps must be nonnegative, got {eps!r}")
    if not params.in_positive_quadrant():
        raise ValueError("contraction needs strictly positive parameters")
    exact = is_exact(*params)
    if exact:
        if eps == math.inf:     # no Fraction; every start already meets it
            return ContractionResult("", (), params)
        m1, m2 = params.mu1, params.mu2
        eps_sq = Fraction(eps) ** 2
    else:
        m1, m2 = params.as_floats()
        if not (m1 < math.inf and m2 < math.inf):
            raise ValueError(f"contraction start ({m1!r}, {m2!r}) must be "
                             "finite floats")
        spacing = math.ulp(min(m1, m2))
        if eps <= spacing:
            raise ValueError(
                f"contraction tolerance {eps!r} is not above the float "
                f"spacing {spacing!r} of the smaller parameter, so no float "
                "contraction reaches it (reach derives this tolerance from "
                "--tol)")
    blocks: list[tuple[str, int]] = []
    word = ""
    while (m1 * m1 + m2 * m2 >= eps_sq if exact
           else math.hypot(m1, m2) >= eps):
        if m1 == m2:
            raise RationalRatio("parameters became equal")
        if m1 > m2:
            x, y, letter = m1, m2, "b"
        else:
            x, y, letter = m2, m1, "a"
        k = _exact_block_count(x, y) if exact else _float_block_count(x, y)
        if len(word) + k > max_generators:
            raise BudgetExhausted("contraction word exceeded the generator cap",
                                  partial=(word, blocks))
        rem = x - k * y
        if m1 > m2:
            m1 = rem
        else:
            m2 = rem
        blocks.append((letter, k))
        word += letter * k
    return ContractionResult(word, tuple(blocks), DilationParams(m1, m2))


# --- density search in the positive quadrant ---

class ReachReport(NamedTuple):
    """Search result in parameter space.

    No end room is carried: after thousands of moves the sheared basis
    exceeds what float coordinates can orient, while the parameter path
    stays well conditioned.  Build a fresh room from final_params.
    """

    word: str
    mu_checkpoints: tuple[tuple[str, tuple[float, float]], ...]
    final_error: float
    final_params: DilationParams


def _spread_exponents(a: int, c: int) -> tuple[int, int, list[int]]:
    """For coprime a, c >= 1: the least nonnegative (b, d) with
    a*d - c*b == 1, and the exponents of [[a, b], [c, d]] =
    R^t0 L^t1 R^t2 ... in R = [[1, 1], [0, 1]] and L = [[1, 0], [1, 1]].

    `convergents` gives the continued fraction of a/c, and (b, d) is the
    convergent before a/c, with (1, 0) before the first.  An odd number
    of terms, whose product has determinant -1, has its last term t
    split into t - 1 and 1, and the convergent that t - 1 ends, (a, c)
    minus the one before a/c, becomes the one before a/c."""
    expansion = [(None, 1, 0), *convergents(a, c)]
    terms = [t for t, _, _ in expansion[1:]]
    _, b, d = expansion[-2]
    if len(terms) % 2:
        terms[-1:] = [terms[-1] - 1, 1]
        b, d = a - b, c - d
    return b, d, terms


def reach_target(params: DilationParams, mu_target, eps: float,
                 budget: int = DEFAULT_REACH_BUDGET) -> ReachReport:
    """Admissible word moving `params` within eps of a positive target.

    Three phases: contract toward the origin, push the first coordinate out
    along a near-rational ray with S2 powers, then spread with a nonnegative
    unimodular word whose leading column approximates the target direction.
    The word's parameter action is re-folded move by move by `mu_after`,
    verifying both admissibility and the final error before the report
    is returned.
    A negative or NaN eps, which no word could meet, a negative budget,
    a start outside the open positive quadrant or past the float range,
    and a NaN or infinite target, or a target ratio that is not a
    positive finite float, are refused.  A start from two quadratic
    fields raises `quadratics.one_field`'s ValueError where a move or a
    contraction first combines them, so a start within eps of the
    target gives the empty word.  The search walks the exact continued
    fraction of the float target ratio.  A convergent whose word would
    pass the budget is skipped before the word is built, and the walk
    stops at the first whose entries pass the float range.  On a float start it also stops, once a contraction
    has run, at the first whose contraction tolerance eta is not above
    the float spacing of the smaller parameter, which gauss_contraction
    refuses; no later eta is larger.  So an exhausted search raises
    BudgetExhausted, and the spacing refusal is left to a first
    contraction that no float could reach.
    """
    if not eps >= 0:
        raise ValueError(f"tolerance eps must be nonnegative, got {eps!r}")
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget!r}")
    if not params.in_positive_quadrant():
        raise ValueError("search starts from the open positive quadrant")
    m1, m2 = params.as_floats()
    if not (m1 < math.inf and m2 < math.inf):
        raise ValueError(f"start ({m1!r}, {m2!r}) must be finite floats")
    t1, t2 = float(mu_target[0]), float(mu_target[1])
    if t1 <= 0 or t2 <= 0:
        raise ValueError("target must lie in the open positive quadrant")
    if not (t1 < math.inf and t2 < math.inf and 0 < t1 / t2 < math.inf):
        raise ValueError(f"target ({t1!r}, {t2!r}) and its ratio must be "
                         "finite, positive floats")
    if math.hypot(m1 - t1, m2 - t2) <= eps:
        return ReachReport("", (("start", (m1, m2)),),
                           math.hypot(m1 - t1, m2 - t2), params)

    # a float contraction reaches no eta at or below this (gauss_contraction)
    spacing = 0.0 if is_exact(*params) else math.ulp(min(m1, m2))
    last_error, contraction = math.inf, None
    for _, a, c in convergents(*(t1 / t2).as_integer_ratio()):
        try:                    # the convergent 0/1 aims at no direction
            if not a or abs(c * (t1 / a) - t2) > eps / 3.0:
                continue
            b, d, exponents = _spread_exponents(a, c)
            eta = eps / (3.0 * (a + b + c + d + 1))
        except OverflowError:   # past the float range: no direction error,
            break               # eta or prediction here, nor further on
        # past a first contraction, a tolerance at the float spacing ends
        # the search: a + b + c + d never falls along convergents
        if contraction and eta <= spacing:
            break
        try:
            contraction = gauss_contraction(params, eta,
                                            max_generators=budget)
        except BudgetExhausted as exc:
            raise BudgetExhausted("budget exhausted during contraction",
                                  partial=exc.partial) from exc
        eps1, eps2 = contraction.final.as_floats()
        # the S2 pushes toward t1 / a: near eps2 = 0 their count can pass
        # any budget, or the float range, so it is capped before rounding
        pushes = (t1 / a - eps1) / eps2 if eps2 else math.inf
        n = max(0, round(min(pushes, budget + 1)))
        if len(contraction.word) + n + sum(exponents) > budget:
            continue
        # verified parameter trajectory
        x_mid = (eps1 + n * eps2, eps2)
        final = (a * x_mid[0] + b * x_mid[1], c * x_mid[0] + d * x_mid[1])
        err = math.hypot(final[0] - t1, final[1] - t2)
        last_error = min(last_error, err)
        if err <= eps:
            # matrices act right to left: the last exponent moves first,
            # S2 for each R and S1 for each L
            word = contraction.word + "B" * n
            for i in reversed(range(len(exponents))):
                word += "AB"[i % 2 == 0] * exponents[i]
            try:
                cur = mu_after(word, params)
            except InadmissibleAtStep:
                continue
            got = cur.as_floats()
            true_err = math.hypot(got[0] - t1, got[1] - t2)
            if true_err > eps:
                continue
            checkpoints = (
                ("start", (m1, m2)),
                ("contracted", (eps1, eps2)),
                ("pushed", x_mid),
                ("final", got),
            )
            return ReachReport(word, checkpoints, true_err, cur)
    raise BudgetExhausted(
        f"no admissible word within budget reached the target "
        f"(best predicted error {last_error})")


# --- holonomy ---

class HolonomyClass(NamedTuple):
    """Discreteness of the holonomy: `verdict` is "discrete", with a
    `witness` (p, q) of the ratio mu1 : mu2 = p : q, "non_discrete" or
    "undecided_float"."""

    verdict: str
    witness: Optional[tuple[int, int]] = None

    @property
    def orbit_closure(self) -> str:
        if self.verdict == "discrete":
            return "closed"
        if self.verdict == "non_discrete":
            return "dense"
        return "unknown"


def _exact_ratio_witness(m1, m2) -> Optional[tuple[int, int]]:
    q1, q2 = quadratic(m1), quadratic(m2)
    if q2 == 0:
        return (1, 0) if q1 != 0 else None
    if q1 == 0:
        return (0, 1)
    if q1.d != q2.d:      # different fields, or one rational and one not
        return None
    ratio = q1 / q2
    if not ratio.is_rational:
        return None
    f = ratio.as_fraction()
    return (f.numerator, f.denominator)


def holonomy_class(params: DilationParams) -> HolonomyClass:
    """Discreteness of the subgroup generated by the two dilation factors.

    The multiplicative holonomy group is discrete exactly when mu1, mu2 are
    rationally dependent.  Exact inputs are decided; floats are screened by
    the continued-fraction test, on the exact expansion of their float
    ratio, and otherwise reported undecided.  Float parameters that are
    NaN or infinite, or whose ratio is, are refused.
    """
    if params.is_zero():
        raise ValueError("zero parameters do not define a dilation surface")
    if is_exact(*params):
        witness = _exact_ratio_witness(params.mu1, params.mu2)
        if witness is None:
            return HolonomyClass("non_discrete")
        return HolonomyClass("discrete", witness)
    m1, m2 = params.as_floats()
    if not (math.isfinite(m1) and math.isfinite(m2)
            and (m2 == 0.0 or math.isfinite(m1 / m2))):
        raise ValueError(f"parameters ({m1!r}, {m2!r}) and their ratio must "
                         "be finite floats")
    if m2 == 0.0:
        return HolonomyClass("discrete", (1, 0))
    r = m1 / m2
    for _, p, q in convergents(*abs(r).as_integer_ratio()):
        if q > DENOMINATOR_CAP:
            break
        err = abs(abs(r) - p / q)
        if err < RATIO_TOL and err * q * q < ANOMALY_FACTOR:
            return HolonomyClass("discrete", (-p if r < 0 else p, q))
    return HolonomyClass("undecided_float")
