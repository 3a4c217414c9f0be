"""Command-line front end.

Thin wrappers over the library: build and act on rooms, apply twist
words, search for parameter targets, classify directions, scan for
cylinders, run the flow monitor, and compute rotation numbers,
survivor measures and orbit closures.  Each command prints one JSON
document to stdout (canonically serialized, so outputs are
byte-stable), or CSV where a table is the natural shape; --svg adds a
drawing for the commands whose schema allows one.  This module lays
out every JSON and CSV document: the library returns records, and
`svgout` draws.

The grammar is data: each command's row in `_COMMANDS` lists its
flags as (flag, keywords) pairs, from which `_Grammar` parses argv, as
argparse would without prefixes, and writes --help.

Failures are machine readable: bad input exits 2 with a one-line JSON
diagnostic on stderr; an exhausted budget or iteration cap exits 3 with
a one-line JSON diagnostic on stdout, which for NonConvergence adds the
bracket the estimate did establish.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional

from .errors import BudgetExhausted, DilatorusError, NonConvergence
from .geometry import (DilationParams, Room, SL2Matrix, apply_sl2,
                       build_room, canonicalize, geodesic_matrix)
from .quadratics import (QuadraticNumber, as_float, is_exact, one_field,
                         quadratic)
from .rauzy import check_exact_measures, survivor_measure
from .surface import (DEFAULT_INDUCTION_BUDGET, ROTATION_MAX_ITER,
                      ROTATION_TOL, classify_direction, find_cylinders,
                      rotation_number)
from .teichmuller import (DEFAULT_THETA_TOL, MULTIPLIER_THRESHOLD,
                          MonitorReport, divergence_monitor)
from .twists import (DEFAULT_REACH_BUDGET, apply_word, holonomy_class,
                     reach_target, word_from_string)

DEFAULT_FLOW_STEPS = 12
DEFAULT_FLOW_BUDGET = 2000
DEFAULT_EPS_ANGLE = 0.05
DEFAULT_REACH_EPS = 1e-2
# depth n walks up to 2^n survivor intervals, and the float sum holds no
# list of them; README's `measure` row gives the time and peak RSS of
# depth 20
MAX_MEASURE_DEPTH = 20
# The most decimal digits of an int the CLI reads or prints: the
# interpreter's cap on int <-> str conversions is raised to it, and an
# exact measure with a longer numerator or denominator is refused.
MAX_PRINTED_DIGITS = 10 ** 6
# `_decimal` hands str(), whose time grows with the square of the
# length, only ints below 10**PRINT_LEAF_DIGITS (3,402 bits).
PRINT_LEAF_DIGITS = 1024


class UsageError(Exception):
    """Flag-level rejection: a malformed flag, reported before any
    computation runs, an --svg path that cannot be written, or an exact
    measure too long to print."""


def canonical_json(obj) -> str:
    """The byte-stable serialization every command prints."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _decimal(n: int) -> str:
    """str(n) in the time of a few divmods rather than str()'s, which
    grows with the square of the length: n is split at powers
    10**(PRINT_LEAF_DIGITS * 2**k) until each piece is a leaf."""
    if n < 0:
        return "-" + _decimal(-n)
    powers = [10 ** PRINT_LEAF_DIGITS]
    # until n < powers[-1]**2, read off the bit lengths
    while 2 * powers[-1].bit_length() - 1 <= n.bit_length():
        powers.append(powers[-1] * powers[-1])
    return _digits(n, powers, len(powers) - 1)


def _digits(n: int, powers: list[int], k: int) -> str:
    """The digits of 0 <= n < powers[k]**2, with no leading zero, where
    powers[j] == 10**(PRINT_LEAF_DIGITS << j)."""
    while k >= 0 and n < powers[k]:
        k -= 1
    if k < 0:
        return str(n)
    hi, lo = divmod(n, powers[k])
    return (_digits(hi, powers, k - 1)
            + _digits(lo, powers, k - 1).zfill(PRINT_LEAF_DIGITS << k))


def _rational_text(q) -> str:
    """str(q) for an int or a Fraction q, its parts printed by `_decimal`.
    A part of more than MAX_PRINTED_DIGITS digits is refused with
    UsageError, decided from the bit lengths before any conversion."""
    parts = [q.numerator] if q.denominator == 1 else [q.numerator,
                                                      q.denominator]
    bits = int(MAX_PRINTED_DIGITS * math.log2(10)) + 1   # 10**cap - 1's
    for n in parts:
        b = abs(n).bit_length()
        if b > bits or b == bits and abs(n) >= 10 ** MAX_PRINTED_DIGITS:
            raise UsageError(f"an exact value of {b} bits has more than "
                             f"MAX_PRINTED_DIGITS = {MAX_PRINTED_DIGITS} "
                             "decimal digits, the most the CLI prints")
    return "/".join(map(_decimal, parts))


# --- flag parsing helpers ---

def _parse_floats(text: str, n: int, flag: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != n:
        raise UsageError(f"{flag} expects {n} comma-separated numbers, "
                         f"got {text!r}")
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise UsageError(f"{flag}: non-numeric entry in {text!r}") from None


def _parse_exact(text: str, flag: str):
    """Comma triple a,b,d meaning a + b*sqrt(d); d=0 gives the rational a."""
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"{flag} expects an a,b,d triple, got {text!r}")
    try:
        a, b = Fraction(parts[0]), Fraction(parts[1])
        d = int(parts[2])
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{flag}: cannot parse triple {text!r}") from None
    if d == 0:
        if b != 0:
            raise UsageError(f"{flag}: nonzero irrational part needs d > 0")
        return a
    try:
        return QuadraticNumber(a, b, d)
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from None


def _parse_mu_pair(args, name1: str = "mu1", name2: str = "mu2"):
    """One exact or one float parameter pair; mixing is rejected."""
    f1, f2 = getattr(args, name1), getattr(args, name2)
    x1 = getattr(args, f"{name1}_exact")
    x2 = getattr(args, f"{name2}_exact")
    float_given = f1 is not None or f2 is not None
    exact_given = x1 is not None or x2 is not None
    if float_given and exact_given:
        raise UsageError(f"--{name1}/--{name2} cannot be mixed with the "
                         "-exact forms")
    if exact_given:
        if x1 is None or x2 is None:
            raise UsageError(f"both --{name1}-exact and --{name2}-exact "
                             "are required")
        return (_parse_exact(x1, f"--{name1}-exact"),
                _parse_exact(x2, f"--{name2}-exact"))
    if not float_given:
        raise UsageError(f"parameters required: --{name1}/--{name2} or "
                         "the -exact forms")
    if f1 is None or f2 is None:
        raise UsageError(f"both --{name1} and --{name2} are required")
    return (f1, f2)


def _require_one_field(x1, x2, flag1: str, flag2: str) -> None:
    """Reject up front, naming the flags, exact values from two quadratic
    fields, which the library refuses where it first combines them
    (`quadratics.one_field`)."""
    try:
        one_field(*(x for x in (x1, x2) if is_exact(x)))
    except ValueError as exc:
        raise UsageError(f"{flag1} and {flag2} must share one radicand: "
                         f"{exc}") from None


def _room_from_args(args) -> Room:
    mu = _parse_mu_pair(args)
    e1 = _parse_floats(args.e1, 2, "--e1")
    e2 = _parse_floats(args.e2, 2, "--e2")
    return build_room(e1, e2, mu)


def _room_payload(room: Room) -> dict:
    data: dict = {
        "e1": list(room.e1.as_floats()),
        "e2": list(room.e2.as_floats()),
    }
    if is_exact(*room.params):
        # each parameter as its (a, b, d) triple, a + b*sqrt(d)
        data["mu_exact"] = [[str(q.a), str(q.b), q.d]
                            for q in map(quadratic, room.params)]
    data["mu"] = list(room.params.as_floats())
    data["vertices"] = [list(v.as_floats()) for v in room.vertices()]
    data["nu"] = list(room.params.nu())
    return data


def _write_svg(path: Optional[str], draw: Callable) -> None:
    """Write `draw(svgout)` to the --svg path, if one is given; callers do
    so before printing the document, so an unwritable path leaves stdout
    empty.  Only a drawing loads `svgout`."""
    if not path:
        return
    from . import svgout
    text = draw(svgout)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"--svg: cannot write the drawing: {exc}") from None


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


# --- commands ---

def cmd_room(args) -> int:
    room = canonicalize(_room_from_args(args))
    _write_svg(args.svg, lambda svg: svg.pentagon_svg(room))
    _emit(canonical_json(_room_payload(room)))
    return 0


def cmd_act(args) -> int:
    room = _room_from_args(args)
    chosen = [x for x in (args.matrix, args.rotate, args.t) if x is not None]
    if len(chosen) != 1:
        raise UsageError("exactly one of --matrix, --rotate, --t is required")
    if args.matrix is not None:
        a, b, c, d = _parse_floats(args.matrix, 4, "--matrix")
        try:
            m = SL2Matrix(a, b, c, d)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    elif args.rotate is not None:
        m = SL2Matrix.rotation(args.rotate)
    else:
        m = geodesic_matrix(args.t)
    moved = apply_sl2(m, room)
    _write_svg(args.svg, lambda svg: svg.pentagon_svg(moved))
    _emit(canonical_json(_room_payload(moved)))
    return 0


def cmd_twist(args) -> int:
    room = _room_from_args(args)
    _require_one_field(room.params.mu1, room.params.mu2,
                       "--mu1-exact", "--mu2-exact")
    try:
        word = word_from_string(args.word)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    result = apply_word(word, room)
    _write_svg(args.svg, lambda svg: svg.pentagon_svg(result.room))
    _emit(canonical_json({
        "word": args.word,
        "mu_path": [list(p) for p in result.mu_path],
        "room": _room_payload(result.room),
    }))
    return 0


def cmd_reach(args) -> int:
    mu1, mu2 = _parse_mu_pair(args)
    _require_one_field(mu1, mu2, "--mu1-exact", "--mu2-exact")
    report = reach_target(DilationParams(mu1, mu2),
                          (args.target1, args.target2), args.tol, args.budget)
    _emit(canonical_json({
        "word": report.word,
        "mu_trajectory": [[stage, list(mu)]
                          for stage, mu in report.mu_checkpoints],
        "final_error": report.final_error,
    }))
    return 0


def cmd_classify(args) -> int:
    room = _room_from_args(args)
    verdict = classify_direction(room, args.theta, budget=args.budget)
    _emit(canonical_json({
        "theta": args.theta,
        "kind": verdict.kind,
        "word": verdict.word,
        "multiplier": verdict.multiplier,
    }))
    return 0


def cmd_scan(args) -> int:
    room = _room_from_args(args)
    scan = find_cylinders(room, args.eps, budget=args.budget)
    _write_svg(args.svg, lambda svg: svg.direction_wheel_svg(room, scan))
    if args.format == "csv":
        lines = ["theta1,theta2,angle,word,multiplier"]
        for c in scan.cylinders:
            lines.append(f"{c.theta1!r},{c.theta2!r},{c.angle!r},"
                         f"{c.word},{c.multiplier!r}")
        _emit("\n".join(lines) + "\n")
    else:
        _emit(canonical_json({
            "eps_angle": args.eps,
            "n_samples": scan.n_samples,
            "exhausted": scan.exhausted,
            "cylinders": [
                {"theta1": c.theta1, "theta2": c.theta2, "angle": c.angle,
                 "word": c.word, "multiplier": c.multiplier}
                for c in scan.cylinders
            ],
        }))
    return 0


def _flow_payload(report: MonitorReport, theta_tol: float) -> dict:
    """The monitor's JSON document, echoing the criterion 1 tolerance it
    ran with and the criterion 2 threshold."""
    return {
        "criterion1": report.criterion1,
        "criterion2": report.criterion2,
        "theta_tol": theta_tol,
        "multiplier_threshold": MULTIPLIER_THRESHOLD,
        "tracked": [
            {"interval": [c.theta1, c.theta2], "word": c.word,
             "multiplier": c.multiplier} for c in report.tracked
        ],
        "samples": [
            {"t": s.t, "theta_sup": s.theta_sup,
             "max_multiplier": s.max_multiplier,
             "flags": sorted(s.verdict_flags),
             "budget_exhausted": s.budget_exhausted}
            for s in report.samples
        ],
    }


def _flow_csv(report: MonitorReport) -> str:
    lines = ["t,theta_sup,max_multiplier,flags,budget_exhausted"]
    for s in report.samples:
        flags = "|".join(sorted(s.verdict_flags))
        lines.append(f"{s.t!r},{s.theta_sup!r},{s.max_multiplier!r},"
                     f"{flags},{int(s.budget_exhausted)}")
    return "\n".join(lines) + "\n"


def cmd_flow(args) -> int:
    room = _room_from_args(args)
    report = divergence_monitor(room, args.t_max, args.steps, args.eps,
                                args.budget, theta_tol=args.tol)
    if args.format == "csv":
        _emit(_flow_csv(report))
    else:
        _emit(canonical_json(_flow_payload(report, args.tol)))
    return 0


def cmd_rotnum(args) -> int:
    rho_a, rho_b = _parse_mu_pair(args, "rhoA", "rhoB")
    _require_one_field(rho_a, rho_b, "--rhoA-exact", "--rhoB-exact")
    value = rotation_number(rho_a, rho_b, tol=args.tol, max_iter=args.budget)
    exact = is_exact(value)
    if args.format == "csv":
        _emit("rho_a,rho_b,rotation_number\n"
              f"{float(rho_a)!r},{float(rho_b)!r},{float(value)!r}\n")
    else:
        _emit(canonical_json({
            "rho_a": float(rho_a),
            "rho_b": float(rho_b),
            "rotation_number": float(value),
            "exact": exact,
            "fraction": str(value) if exact else None,
        }))
    return 0


def _parse_rho(text: str, exact: bool, flag: str):
    try:
        return Fraction(text) if exact else float(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{flag}: cannot parse {text!r}") from None


def cmd_measure(args) -> int:
    rho_a = _parse_rho(args.rhoA, args.exact, "--rhoA")
    rho_b = _parse_rho(args.rhoB, args.exact, "--rhoB")
    if not 0 <= args.n <= MAX_MEASURE_DEPTH:
        raise UsageError(f"--n must be in [0, {MAX_MEASURE_DEPTH}]")
    if args.format == "csv":
        if args.exact:
            check_exact_measures(rho_a, rho_b, args.n)
        lines = ["n,measure"]
        for k in range(args.n + 1):
            m = survivor_measure(rho_a, rho_b, k)
            lines.append(f"{k},{_rational_text(m)}" if args.exact
                         else f"{k},{m!r}")
        _emit("\n".join(lines) + "\n")
    else:
        # the payload's floats are refused before the measure is computed
        ra_f, rb_f = as_float(rho_a, "--rhoA"), as_float(rho_b, "--rhoB")
        m = survivor_measure(rho_a, rho_b, args.n)
        _emit(canonical_json({
            "rho_a": ra_f,
            "rho_b": rb_f,
            "n": args.n,
            "measure": _rational_text(m) if args.exact else m,
            "measure_float": float(m),
        }))
    return 0


def cmd_orbit_closure(args) -> int:
    mu1, mu2 = _parse_mu_pair(args)
    hc = holonomy_class(DilationParams(mu1, mu2))
    _emit(canonical_json({
        "verdict": hc.verdict,
        "orbit_closure": hc.orbit_closure,
        "witness": list(hc.witness) if hc.witness is not None else None,
    }))
    return 0


# --- grammar ---

def _pair(name1: str, name2: str) -> tuple:
    """The float and the exact form of a parameter pair (`_parse_mu_pair`)."""
    return ((f"--{name1}", {"type": float}),
            (f"--{name2}", {"type": float}),
            (f"--{name1}-exact", {"metavar": "a,b,d"}),
            (f"--{name2}-exact", {"metavar": "a,b,d"}))


_MU = _pair("mu1", "mu2")
_ROOM = _MU + (
    ("--e1", {"default": "1,0", "metavar": "x,y"}),
    ("--e2", {"default": "0,1", "metavar": "x,y"}),
)
_FORMAT = (("--format", {"choices": ("json", "csv"), "default": "json",
                         "help": "json or csv"}),)
_SVG = (("--svg", {"metavar": "PATH"}),)

# name -> (handler, help line, (flag, keywords) of exactly the flags it
# reads, in --help order); keywords as argparse's add_argument takes them
_COMMANDS: dict[str, tuple[Callable, str, tuple]] = {
    "room": (cmd_room, "build, validate and canonicalize a room",
             _ROOM + _SVG),
    "act": (cmd_act, "apply a linear map to a room", _ROOM + _SVG + (
        ("--matrix", {"metavar": "a,b,c,d"}),
        ("--rotate", {"type": float, "metavar": "ALPHA"}),
        ("--t", {"type": float, "metavar": "T", "help": "geodesic flow time"}),
    )),
    "twist": (cmd_twist, "apply a twist word", _ROOM + _SVG + (
        ("--word", {"required": True, "help": "string over A,a,B,b"}),
    )),
    "reach": (cmd_reach, "search a word reaching a parameter target", _MU + (
        ("--target1", {"type": float, "required": True}),
        ("--target2", {"type": float, "required": True}),
        ("--budget", {"type": int, "default": DEFAULT_REACH_BUDGET,
                      "help": "cap on the word length"}),
        ("--tol", {"type": float, "default": DEFAULT_REACH_EPS,
                   "help": "distance to the target"}),
    )),
    "classify": (cmd_classify, "classify one flow direction", _ROOM + (
        ("--theta", {"type": float, "required": True}),
        ("--budget", {"type": int, "default": DEFAULT_INDUCTION_BUDGET,
                      "help": "renormalization steps"}),
    )),
    "scan": (cmd_scan, "scan directions for cylinders",
             _ROOM + _FORMAT + _SVG + (
        ("--eps", {"type": float, "default": DEFAULT_EPS_ANGLE,
                   "help": "angle resolution"}),
        ("--budget", {"type": int, "default": DEFAULT_INDUCTION_BUDGET,
                      "help": "renormalization steps per direction"}),
    )),
    "flow": (cmd_flow, "run the geodesic flow monitor", _ROOM + _FORMAT + (
        ("--t-max", {"type": float, "required": True}),
        ("--steps", {"type": int, "default": DEFAULT_FLOW_STEPS}),
        ("--eps", {"type": float, "default": DEFAULT_EPS_ANGLE}),
        ("--budget", {"type": int, "default": DEFAULT_FLOW_BUDGET,
                      "help": "renormalization steps per direction"}),
        ("--tol", {"type": float, "default": DEFAULT_THETA_TOL,
                   "help": "criterion 1 angle tolerance"}),
    )),
    "rotnum": (cmd_rotnum, "rotation number of the two-slope circle map",
               _FORMAT + _pair("rhoA", "rhoB") + (
        ("--budget", {"type": int, "default": ROTATION_MAX_ITER,
                      "help": "iteration cap of the float estimate"}),
        ("--tol", {"type": float, "default": ROTATION_TOL,
                   "help": "agreement of successive float estimates"}),
    )),
    "measure": (cmd_measure, "survivor measure after n subdivision steps",
                _FORMAT + (
        ("--rhoA", {"required": True}),
        ("--rhoB", {"required": True}),
        ("--n", {"type": int, "required": True}),
        ("--exact", {"action": "store_true", "default": False,
                     "help": "exact rational arithmetic"}),
    )),
    "orbit-closure": (cmd_orbit_closure,
                      "orbit closure of the parameter point", _MU),
}


class _Grammar(NamedTuple):
    """The grammar of every command (None), which `build_parser`
    returns, or of `command` alone, read from the flags after its name,
    which --help of that command prints."""
    command: Optional[str] = None

    def parse_args(self, argv: list[str]) -> Optional[SimpleNamespace]:
        """The command's name and its flag values as attributes (--t-max
        sets t_max), or None once --help is printed."""
        command, extras = self.command, []
        if command is None:
            # the command's name is the first token that is not a flag
            k = next((i for i, a in enumerate(argv) if a[:1] != "-"),
                     len(argv))
            command, extras, argv = (argv + [None])[k], argv[:k], argv[k + 1:]
            if {"-h", "--help"} & set(extras):
                return _emit(self.format_help())
            if command is None:
                raise UsageError("the following arguments are required: "
                                 "command")
            if command not in _COMMANDS:
                raise UsageError(f"argument command: invalid choice: "
                                 f"{command!r} (choose from "
                                 f"{', '.join(map(repr, _COMMANDS))})")
        rows = dict(_COMMANDS[command][2])
        values = {flag: kw.get("default") for flag, kw in rows.items()}
        tokens = iter(argv)
        for token in tokens:
            if token in ("-h", "--help"):
                return _emit(_Grammar(command).format_help())
            flag, eq, value = token.partition("=")
            kw = rows.get(flag)
            if kw is None:
                extras.append(token)
                continue
            if "action" in kw:      # store_true
                if eq:
                    raise UsageError(f"argument {flag}: ignored explicit "
                                     f"argument {value!r}")
                values[flag] = True
                continue
            if not eq:
                value = next(tokens, "--")  # "-0.3" is a value, "--x" not
                if value.startswith("--"):
                    raise UsageError(f"argument {flag}: expected one argument")
            try:
                value = kw.get("type", str)(value)
            except ValueError:
                raise UsageError(f"argument {flag}: invalid "
                                 f"{kw['type'].__name__} value: {value!r}"
                                 ) from None
            if "choices" in kw and value not in kw["choices"]:
                raise UsageError(f"argument {flag}: invalid choice: "
                                 f"{value!r} (choose from "
                                 f"{', '.join(map(repr, kw['choices']))})")
            values[flag] = value
        missing = [flag for flag, kw in rows.items()
                   if kw.get("required") and values[flag] is None]
        if missing:
            raise UsageError("the following arguments are required: "
                             + ", ".join(missing))
        if extras:
            raise UsageError("unrecognized arguments: " + " ".join(extras))
        return SimpleNamespace(command=command, **{
            flag[2:].replace("-", "_"): v for flag, v in values.items()})

    def format_help(self) -> str:
        """Each command with its help line, or one command's flags with
        their metavars and help strings, marking the required ones."""
        rows = [(name, line) for name, (_, line, _) in _COMMANDS.items()]
        if self.command is not None:
            rows = [(self.command, _COMMANDS[self.command][1])]
            for flag, kw in _COMMANDS[self.command][2]:
                if "action" not in kw:
                    flag += " " + kw.get("metavar", flag[2:].upper())
                rows.append((flag, "(required) " * kw.get("required", False)
                             + kw.get("help", "")))
        return (f"usage: dilatorus {self.command or 'COMMAND'} [flags]\n\n"
                + "".join(f"  {a:<22} {b}".rstrip() + "\n" for a, b in rows))


def build_parser() -> _Grammar:
    """The CLI grammar of every command."""
    return _Grammar()


def _diagnostic(name: str, detail: str, **extra) -> str:
    data = {"error": name, "detail": detail}
    data.update(extra)
    return canonical_json(data)


def main(argv: Optional[list[str]] = None) -> int:
    # exact slopes and room parameters are read, and printed, as long
    # decimals; the caller's limit comes back on every exit
    limited = hasattr(sys, "set_int_max_str_digits")
    if limited:
        callers_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(MAX_PRINTED_DIGITS)
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(argv)
        return 0 if args is None else _COMMANDS[args.command][0](args)
    except UsageError as exc:
        print(_diagnostic("BadInput", str(exc)), file=sys.stderr)
        return 2
    except NonConvergence as exc:
        bracket = list(exc.bracket) if exc.bracket is not None else None
        _emit(_diagnostic("NonConvergence", str(exc), bracket=bracket))
        return 3
    except BudgetExhausted as exc:
        _emit(_diagnostic("BudgetExhausted", str(exc)))
        return 3
    except DilatorusError as exc:
        print(_diagnostic(type(exc).__name__, str(exc)), file=sys.stderr)
        return 2
    except ValueError as exc:
        print(_diagnostic("ValueError", str(exc)), file=sys.stderr)
        return 2
    finally:
        if limited:
            sys.set_int_max_str_digits(callers_limit)


if __name__ == "__main__":
    sys.exit(main())
