"""Output checks: committed reference, symmetries and invariants.

Outputs are compared by the rules the project holds speed-ups to:
verdict kinds, words, flags and exact values identical; multipliers and
other floats within relative 1e-9; cylinder edges within
CYLINDER_EDGE_TOL.  Each check returns a list of problems; an empty
list means the outputs are right.  `Checker` applies them to each op as
it finishes and keeps only what later ops are compared against, so the
benchmark's own memory does not grow with the run.
"""

from __future__ import annotations

import hashlib
import json
import math

from dilatorus.geometry import DilationParams
from dilatorus.surface import CYLINDER_EDGE_TOL
from dilatorus.twists import twist_mu, word_from_string

REL_TOL = 1e-9
# Flowed angles are cylinder edges pushed through the projective action
# of diag(e^t, e^-t), which stretches them by up to e^t at t = 12.
FLOWED_ANGLE_TOL = CYLINDER_EDGE_TOL * math.exp(12.0)
# A rotated room is a different float input: its edges are bisected
# afresh, so they agree with the unrotated scan to a few bisection
# tolerances, not to one.
ROTATED_EDGE_TOL = 1e-8
EDGE_KEYS = {"theta1", "theta2", "interval"}
LONG_STRING = 200


def digest(value):
    """Long exact values (survivor measures) are stored by their sha256."""
    if isinstance(value, str) and len(value) > LONG_STRING:
        return "sha256:" + hashlib.sha256(value.encode()).hexdigest()
    if isinstance(value, list):
        return [digest(v) for v in value]
    if isinstance(value, dict):
        return {k: digest(v) for k, v in value.items()}
    return value


def _float_tol(key: str, ref: float) -> float:
    if key in EDGE_KEYS:
        return CYLINDER_EDGE_TOL
    if key == "angle":
        return 2.0 * CYLINDER_EDGE_TOL
    if key == "theta_sup":
        return FLOWED_ANGLE_TOL
    return REL_TOL * abs(ref)


def compare(ref, got, path: str = "", key: str = "") -> list[str]:
    """Differences between a reference JSON value and a digested output."""
    if isinstance(ref, bool) or ref is None or isinstance(ref, str):
        return [] if ref == got else [f"{path}: {got!r} != {ref!r}"]
    if isinstance(ref, (int, float)):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return [f"{path}: {got!r} is not a number"]
        if isinstance(ref, int) and isinstance(got, int):
            return [] if ref == got else [f"{path}: {got} != {ref}"]
        if abs(got - ref) <= _float_tol(key, ref):
            return []
        return [f"{path}: {got!r} differs from {ref!r}"]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: length {len(got) if isinstance(got, list) else '?'}"
                    f" != {len(ref)}"]
        out = []
        for i, (r, g) in enumerate(zip(ref, got)):
            out += compare(r, g, f"{path}[{i}]", key)
        return out
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{path}: keys differ"]
        out = []
        for k in sorted(ref):
            out += compare(ref[k], got[k], f"{path}.{k}", k)
        return out
    return [f"{path}: unexpected reference value {ref!r}"]


def parse(text: str):
    """The JSON document an op printed, or None for no output."""
    text = text.strip()
    return json.loads(text) if text else None


def record(argv, code: int, out: str, err: str) -> dict:
    """What the reference keeps of one op."""
    return {"argv": argv, "code": code,
            "out": digest(parse(out)), "err": digest(parse(err))}


def against_reference(ref: dict, got: dict) -> list[str]:
    if ref["argv"] != got["argv"]:
        return ["op differs from the reference op"]
    if ref["code"] != got["code"]:
        return [f"exit code {got['code']} != {ref['code']}"]
    return (compare(ref["out"], got["out"], "stdout")
            + compare(ref["err"], got["err"], "stderr"))


def _angle_gap(a: float, b: float) -> float:
    return abs((a - b + math.pi) % (2.0 * math.pi) - math.pi)


def rotated_cylinders(base: list, got: list, alpha: float) -> list[str]:
    """A scan of the room turned by alpha finds the base cylinders turned by alpha."""
    if len(base) != len(got):
        return [f"{len(got)} cylinders, unrotated panel room has {len(base)}"]
    out = []
    for i, (b, g) in enumerate(zip(base, got)):
        if b["word"] != g["word"]:
            out.append(f"cylinder {i}: word {g['word']!r} != {b['word']!r}")
        if abs(g["multiplier"] - b["multiplier"]) > REL_TOL * b["multiplier"]:
            out.append(f"cylinder {i}: multiplier {g['multiplier']!r} != "
                       f"{b['multiplier']!r}")
        for k in ("theta1", "theta2"):
            if _angle_gap(g[k] - alpha, b[k]) > ROTATED_EDGE_TOL:
                out.append(f"cylinder {i}: {k} is not the unrotated edge "
                           "turned by the room's rotation")
    return out


def flow_cylinders(doc) -> list:
    return [{"theta1": t["interval"][0], "theta2": t["interval"][1],
             "word": t["word"], "multiplier": t["multiplier"]}
            for t in doc["tracked"]]


# The parts of an output that a rotation (classify) or a half-turn (flow)
# of the room leaves unchanged.
_INVARIANT_KEYS = {"classify": ("kind", "word", "multiplier"),
                   "flow": ("criterion1", "criterion2", "samples")}


def same_slot(kind: str, first, doc) -> list[str]:
    """Repeats of one slot agree on everything the symmetry preserves."""
    keys = _INVARIANT_KEYS.get(kind, ())
    return compare({k: first[k] for k in keys}, {k: doc[k] for k in keys},
                   "repeat")


def measure_twins(e: float, f: float) -> list[str]:
    """Exact and float survivor measures at one depth agree."""
    if abs(e - f) > REL_TOL * abs(e):
        return [f"float measure {f!r} differs from exact {e!r}"]
    return []


def reach_word(doc, mu, target, tol: float) -> list[str]:
    """The printed word, folded through twist_mu, lands within tol."""
    params = DilationParams(*mu)
    for g in word_from_string(doc["word"]):
        params = twist_mu(g, params)
        if not params.in_positive_quadrant():
            return ["reach word leaves the positive quadrant"]
    m1, m2 = params.as_floats()
    err = math.hypot(m1 - target[0], m2 - target[1])
    if err > tol:
        return [f"reach word ends {err:.3e} from the target, above tol {tol}"]
    return []


class Checker:
    """Checks every op of a run against the reference, its repeats and invariants."""

    def __init__(self, base: dict, reference):
        self.base = base                # unrotated panel cylinders by room name
        self.reference = reference      # passes of records, or None
        self.problems: list[str] = []
        self._seen: dict[tuple, tuple] = {}
        self._slot0: dict[int, tuple] = {}
        self._exact_measure: dict[tuple, float] = {}

    def add(self, r, out: str, err: str) -> None:
        where = f"pass {r.pass_index} op {r.index} ({r.op.argv[0]})"
        problems: list[str] = []
        if self._seen.setdefault(tuple(r.op.argv), (r.code, r.digest)) != (r.code, r.digest):
            problems.append("repeated op printed other bytes")
        kind, info = r.op.kind, r.op.info
        doc = parse(out) if r.code == 0 else None
        if r.pass_index == 0:
            self._slot0[r.index] = (r.code, doc if kind in _INVARIANT_KEYS else None)
        else:
            code0, doc0 = self._slot0[r.index]
            if code0 != r.code:
                problems.append(f"exit {r.code}, pass 0 of this slot exited {code0}")
            elif doc0 is not None:
                problems += same_slot(kind, doc0, doc)
        if self.reference is not None and r.pass_index < len(self.reference):
            problems += against_reference(self.reference[r.pass_index][r.index],
                                          record(r.op.argv, r.code, out, err))
        if doc is not None:
            if kind in ("scan", "flow"):
                cylinders = (doc["cylinders"] if kind == "scan"
                             else flow_cylinders(doc))
                problems += rotated_cylinders(self.base[info["base"]], cylinders,
                                              info["alpha"])
            elif kind == "measure_exact":
                self._exact_measure[(r.pass_index, r.index)] = doc["measure_float"]
            elif kind == "measure_float":
                exact = self._exact_measure.pop((r.pass_index, info["twin"]), None)
                if exact is not None:
                    problems += measure_twins(exact, doc["measure"])
            elif kind == "reach":
                problems += reach_word(doc, info["mu"], info["target"], info["tol"])
        self.problems += [f"{where}: {p}" for p in problems]
