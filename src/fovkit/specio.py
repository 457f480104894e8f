"""Read and write display spec files and sampled curve tables.

Display specs are UTF-8 JSON documents, by convention with the extension
``.spec.json``::

    {
      "name": "example",
      "tiers": [
        {"resolution_cpd": 30.0, "half_fov_deg": 16.0,
         "steerable": false, "steer_range_deg": 0.0, "blend_width_deg": 0.0}
      ],
      "degradation": {"kind": "none", "breakpoints": []},
      "notes": ""
    }

``tiers[*].steerable``/``steer_range_deg``/``blend_width_deg``, the
``degradation`` block and ``notes`` may be omitted when they hold their
defaults; the serializer always writes them out explicitly, in the canonical
key order above, so ``parse(serialize(spec)) == spec`` for every valid spec.

Curve tables are UTF-8 CSV with one header row, LF line endings and fixed
6-decimal values, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .display import (
    DEGRADATION_NONE,
    DEGRADATION_PIECEWISE_LINEAR,
    DisplaySpec,
    OffAxisDegradation,
    Tier,
)

SPEC_FILE_SUFFIX = ".spec.json"

# Most rows a curve table may have, so a mistyped step or range fails at once.
MAX_CURVE_ROWS = 1_000_000


class SpecFileError(ValueError):
    """Syntax or schema problem in a display spec document."""


def _require(value, types, where: str):
    allowed = types if isinstance(types, tuple) else (types,)
    # bool is an int subclass; never accept it where a number is expected
    if (isinstance(value, bool) and bool not in allowed) or not isinstance(value, allowed):
        names = "/".join(t.__name__ for t in allowed)
        raise SpecFileError(f"wrong type at {where}: expected {names}, got {type(value).__name__}")
    return value


def _reject_unknown(obj: dict, allowed, where: str):
    for key in obj:
        if key not in allowed:
            raise SpecFileError(f"unknown key {key!r} at {where}")


def _unique_keys(pairs) -> dict:
    """``object_pairs_hook``: a repeated key would silently keep its last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise SpecFileError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def _reject_constant(token: str):
    """``parse_constant``: ``NaN`` and ``Infinity`` are not standard JSON."""
    raise SpecFileError(f"non-standard JSON number {token!r}")


def _parse_tier(obj, where: str) -> Tier:
    _require(obj, dict, where)
    _reject_unknown(
        obj,
        ("resolution_cpd", "half_fov_deg", "steerable", "steer_range_deg", "blend_width_deg"),
        where,
    )
    for required in ("resolution_cpd", "half_fov_deg"):
        if required not in obj:
            raise SpecFileError(f"missing key {required!r} at {where}")
    return Tier(
        resolution_cpd=_require(obj["resolution_cpd"], (int, float), f"{where}.resolution_cpd"),
        half_fov_deg=_require(obj["half_fov_deg"], (int, float), f"{where}.half_fov_deg"),
        steerable=_require(obj.get("steerable", False), bool, f"{where}.steerable"),
        steer_range_deg=_require(
            obj.get("steer_range_deg", 0.0), (int, float), f"{where}.steer_range_deg"
        ),
        blend_width_deg=_require(
            obj.get("blend_width_deg", 0.0), (int, float), f"{where}.blend_width_deg"
        ),
    )


def _parse_degradation(obj, where: str) -> OffAxisDegradation:
    _require(obj, dict, where)
    _reject_unknown(obj, ("kind", "breakpoints"), where)
    kind = _require(obj.get("kind", DEGRADATION_NONE), str, f"{where}.kind")
    if kind not in (DEGRADATION_NONE, DEGRADATION_PIECEWISE_LINEAR):
        raise SpecFileError(f"unknown degradation kind {kind!r} at {where}.kind")
    raw = _require(obj.get("breakpoints", []), list, f"{where}.breakpoints")
    breakpoints = []
    for i, pair in enumerate(raw):
        pair_where = f"{where}.breakpoints[{i}]"
        _require(pair, list, pair_where)
        if len(pair) != 2:
            raise SpecFileError(f"expected [eccentricity, multiplier] pair at {pair_where}")
        breakpoints.append(
            (
                _require(pair[0], (int, float), f"{pair_where}[0]"),
                _require(pair[1], (int, float), f"{pair_where}[1]"),
            )
        )
    return OffAxisDegradation(kind=kind, breakpoints=tuple(breakpoints))


def parse_display_spec(text: str) -> DisplaySpec:
    """Parse a display spec document; raises :class:`SpecFileError` with the
    line/column for syntax errors, the key for a repeated key, the token for
    ``NaN``/``Infinity``, the key path for schema errors, and lets
    :class:`~fovkit.display.DisplaySpecError` name any violated invariant."""
    try:
        root = json.loads(text, object_pairs_hook=_unique_keys, parse_constant=_reject_constant)
    except json.JSONDecodeError as e:
        raise SpecFileError(f"syntax error at line {e.lineno}, column {e.colno}: {e.msg}") from None
    _require(root, dict, "$")
    _reject_unknown(root, ("name", "tiers", "degradation", "notes"), "$")
    for required in ("name", "tiers"):
        if required not in root:
            raise SpecFileError(f"missing key {required!r} at $")
    name = _require(root["name"], str, "$.name")
    tiers_raw = _require(root["tiers"], list, "$.tiers")
    if not tiers_raw:
        raise SpecFileError("schema violation at $.tiers: display needs at least one tier")
    tiers = tuple(_parse_tier(t, f"$.tiers[{i}]") for i, t in enumerate(tiers_raw))
    degradation = _parse_degradation(root.get("degradation", {"kind": "none"}), "$.degradation")
    notes = _require(root.get("notes", ""), str, "$.notes")
    return DisplaySpec(name=name, tiers=tiers, degradation=degradation, notes=notes)


def load_display_spec(path) -> DisplaySpec:
    """Read and parse a spec file, naming the file in any error."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise SpecFileError(f"cannot read spec file {path!s}: {e.strerror or e}") from None
    try:
        return parse_display_spec(text)
    except ValueError as e:
        raise type(e)(f"{path!s}: {e}") from None


def serialize_display_spec(spec: DisplaySpec) -> str:
    """Canonical JSON for a spec: fixed key order, defaults written out."""
    doc = {
        "name": spec.name,
        "tiers": [
            {
                "resolution_cpd": t.resolution_cpd,
                "half_fov_deg": t.half_fov_deg,
                "steerable": t.steerable,
                "steer_range_deg": t.steer_range_deg,
                "blend_width_deg": t.blend_width_deg,
            }
            for t in spec.tiers
        ],
        "degradation": {
            "kind": spec.degradation.kind,
            "breakpoints": [[e, m] for e, m in spec.degradation.breakpoints],
        },
        "notes": spec.notes,
    }
    return json.dumps(doc, indent=2) + "\n"


@dataclass(frozen=True)
class CurveTable:
    """Sampled curves on a shared eccentricity grid."""

    columns: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"row width {len(row)} does not match {len(self.columns)} columns"
                )

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(f"{v:.6f}" for v in row))
        return "\n".join(lines) + "\n"


def emit_curves(curves, start: float, stop: float, step: float) -> CurveTable:
    """Sample named evaluables on a shared grid from start to stop inclusive.

    ``curves`` is a sequence of (name, evaluable) pairs; an evaluable is
    anything with ``eval_many`` or a plain callable of eccentricity.
    """
    curves = list(curves)
    if not curves:
        raise ValueError("no curves to emit")
    for what, value in (("start", start), ("stop", stop), ("step", step)):
        if not math.isfinite(value):
            raise ValueError(f"curve {what} must be finite, got {value!r}")
    if not step > 0:
        raise ValueError(f"step must be > 0, got {step!r}")
    if stop < start:
        raise ValueError(f"curve range is reversed: [{start!r}, {stop!r}]")
    intervals = (stop - start) / step + 1e-9
    if intervals >= MAX_CURVE_ROWS:
        raise ValueError(f"step {step!r} gives {intervals + 1:.3g} rows, over {MAX_CURVE_ROWS:,}")
    count = int(np.floor(intervals)) + 1
    grid = start + step * np.arange(count)
    columns = ["eccentricity_deg"]
    values = [grid]
    for name, curve in curves:
        ev = getattr(curve, "eval_many", None)
        sampled = np.asarray(ev(grid), float) if callable(ev) else np.array(
            [float(curve(x)) for x in grid]
        )
        columns.append(str(name))
        values.append(sampled)
    rows = tuple(tuple(float(col[i]) for col in values) for i in range(count))
    return CurveTable(columns=tuple(columns), rows=rows)


def bundled_spec_names() -> tuple[str, ...]:
    """Names of the display specs shipped with the package."""
    pkg = resources.files(__package__).joinpath("specs")
    return tuple(
        sorted(
            entry.name[: -len(SPEC_FILE_SUFFIX)]
            for entry in pkg.iterdir()
            if entry.name.endswith(SPEC_FILE_SUFFIX)
        )
    )


def bundled_spec_text(name: str) -> str:
    path = resources.files(__package__).joinpath("specs").joinpath(name + SPEC_FILE_SUFFIX)
    try:
        return path.read_text(encoding="utf-8")
    except (FileNotFoundError, OSError):
        raise KeyError(
            f"no bundled display spec named {name!r}; available: {', '.join(bundled_spec_names())}"
        ) from None


def load_bundled_spec(name: str) -> DisplaySpec:
    """Load one of the display specs shipped with the package, by name."""
    return parse_display_spec(bundled_spec_text(name))
