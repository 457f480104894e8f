"""Visual acuity arithmetic and eccentricity-falloff models.

Converts letter-chart fractions to spatial frequency, sizes the dot pitch
needed at a viewing distance, and models how perceivable resolution decays
away from the line of sight.  Two falloff models are provided:

* ``"constant-fovea"`` -- a constant-acuity plateau of fixed angular size
  followed by a hyperbolic rolloff with an absolute slope in cpd/degree.
* ``"slope"`` -- the rolloff rate is fixed *relative* to the peak, so lower
  acuities degrade proportionally faster in the periphery.

All angles are degrees, all spatial frequencies cycles per degree (cpd).
Models are frozen dataclasses and every function is pure, so values can be
shared freely across threads.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace

import numpy as np

SNELLEN_BASELINE_CPD = 30.0

CONSTANT_FOVEA = "constant-fovea"
SLOPE = "slope"
ADF_KINDS = (CONSTANT_FOVEA, SLOPE)

DEFAULT_FOVEA_DEG = 2.0
DEFAULT_ROLLOFF_CPD_PER_DEG = 75.0
# Two published fits to classical peripheral-acuity measurements.
DEFAULT_ROLLOFF_PER_DEG = 0.55
ALT_ROLLOFF_PER_DEG = 0.44

# Widest quadrature panel, in degrees: the metrics split every interval
# between cuts into panels no wider, and the tail's graded cuts stop here.
QUADRATURE_PANEL_DEG = 0.5


class SnellenParseError(ValueError):
    """Raised when a Snellen fraction string cannot be parsed."""


@dataclass(frozen=True)
class SnellenFraction:
    """A letter-chart acuity ratio such as 20/20 or 6/6."""

    numerator: float
    denominator: float

    def __post_init__(self):
        object.__setattr__(self, "numerator", float(self.numerator))
        object.__setattr__(self, "denominator", float(self.denominator))
        if not math.isfinite(self.numerator) or self.numerator <= 0:
            raise SnellenParseError(
                f"numerator must be a positive finite number, got {self.numerator!r}"
            )
        if not math.isfinite(self.denominator) or self.denominator <= 0:
            raise SnellenParseError(
                f"denominator must be a positive finite number, got {self.denominator!r}"
            )
        ratio = self.value()
        if not 0 < ratio < math.inf:
            raise SnellenParseError(
                f"acuity ratio {self.numerator!r}/{self.denominator!r} = {ratio!r} "
                "is not a positive finite number"
            )

    def value(self) -> float:
        return self.numerator / self.denominator

    def __str__(self) -> str:
        return f"{self.numerator:g}/{self.denominator:g}"


_SNELLEN_RE = re.compile(r"^\s*([^/\s]+)\s*/\s*([^/\s]+)\s*$")


def parse_snellen(text: str) -> SnellenFraction:
    """Parse ``"N/M"`` (integers or decimals, e.g. ``20/40`` or ``6/6``)."""
    m = _SNELLEN_RE.match(text)
    if m is None:
        raise SnellenParseError(f"expected acuity in N/M form, got {text!r}")
    parts = []
    for token in m.groups():
        try:
            parts.append(float(token))
        except ValueError:
            raise SnellenParseError(f"not a number in acuity fraction: {token!r}") from None
    return SnellenFraction(parts[0], parts[1])


def _as_fraction(acuity: SnellenFraction | str) -> SnellenFraction:
    if isinstance(acuity, str):
        return parse_snellen(acuity)
    return acuity


def snellen_to_cpd(acuity: SnellenFraction | str) -> float:
    """Peak (foveal) spatial frequency for an acuity fraction: 30 cpd at 20/20."""
    return SNELLEN_BASELINE_CPD * _as_fraction(acuity).value()


def cpd_to_dpi(cpd: float, viewing_distance_in: float) -> float:
    """Dot pitch (dots per inch) that presents ``cpd`` at a distance in inches.

    One dot subtends half a cycle, i.e. ``1/(2*cpd)`` degrees; the result is
    the reciprocal of its linear size at the given distance.  Raises
    ``ValueError`` unless both inputs and the result are positive and finite
    and the dot is narrower than 90 degrees, where the tangent stops growing.
    """
    if not 0 < cpd < math.inf:
        raise ValueError(f"cycles per degree must be > 0 and finite, got {cpd!r}")
    if not 0 < viewing_distance_in < math.inf:
        raise ValueError(f"viewing distance must be > 0 and finite, got {viewing_distance_in!r}")
    dot_angle_deg = 1.0 / (2.0 * cpd)
    if not dot_angle_deg < 90.0:
        raise ValueError(f"{cpd!r} cpd makes one dot {dot_angle_deg!r} deg wide, not under 90 deg")
    dot_size_in = viewing_distance_in * math.tan(math.radians(dot_angle_deg))
    dpi = 1.0 / dot_size_in if dot_size_in > 0 else math.inf
    if not 0 < dpi < math.inf:
        raise ValueError(
            f"{cpd!r} cpd at {viewing_distance_in!r} in gives {dpi!r} dpi, "
            "not a positive finite number"
        )
    return dpi


@dataclass(frozen=True)
class AcuityModel:
    """Perceivable resolution as a function of gaze eccentricity.

    ``foveation_error_deg`` widens the plateau: the model is evaluated at
    ``max(e - foveation_error_deg, 0)``, the worst-case shift of a monotone
    non-increasing falloff over an angular tracking-error disc.
    """

    kind: str
    foveal_cpd: float
    fovea_deg: float = DEFAULT_FOVEA_DEG
    rolloff_cpd_per_deg: float | None = None
    rolloff_per_deg: float | None = None
    foveation_error_deg: float = 0.0

    def __post_init__(self):
        if self.kind not in ADF_KINDS:
            raise ValueError(f"unknown acuity model kind {self.kind!r}, expected one of {ADF_KINDS}")
        rolloff, other = ("rolloff_cpd_per_deg", "rolloff_per_deg")
        if self.kind == SLOPE:
            rolloff, other = other, rolloff
        for name in ("foveal_cpd", "fovea_deg", "foveation_error_deg", rolloff, other):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not self.foveal_cpd > 0:
            raise ValueError(f"foveal_cpd must be > 0, got {self.foveal_cpd!r}")
        for name in ("fovea_deg", "foveation_error_deg"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        value = getattr(self, rolloff)
        if value is None or not value > 0:
            raise ValueError(f"{self.kind} model requires {rolloff} > 0, got {value!r}")
        if getattr(self, other) is not None:
            raise ValueError(f"{self.kind} model does not take {other}")

    @property
    def plateau_end_deg(self) -> float:
        """Eccentricity where the constant-acuity plateau ends."""
        return self.fovea_deg + self.foveation_error_deg

    def eval(self, eccentricity_deg: float) -> float:
        """Perceivable resolution in cpd at one gaze eccentricity."""
        e = float(eccentricity_deg)
        if e < 0:
            raise ValueError(f"eccentricity must be >= 0, got {e!r}")
        shifted = max(e - self.foveation_error_deg, 0.0)
        if shifted <= self.fovea_deg:
            return self.foveal_cpd
        tail = shifted - self.fovea_deg
        if self.kind == CONSTANT_FOVEA:
            s = self.rolloff_cpd_per_deg
            return s / (tail + s / self.foveal_cpd)
        return self.foveal_cpd / (self.rolloff_per_deg * tail + 1.0)

    def eval_many(self, eccentricities_deg) -> np.ndarray:
        """Vectorised :meth:`eval` over an array of eccentricities."""
        e = np.asarray(eccentricities_deg, dtype=float)
        if np.any(e < 0):
            raise ValueError("eccentricities must be >= 0")
        tail = np.maximum(np.maximum(e - self.foveation_error_deg, 0.0) - self.fovea_deg, 0.0)
        if self.kind == CONSTANT_FOVEA:
            s = self.rolloff_cpd_per_deg
            return s / (tail + s / self.foveal_cpd)
        return self.foveal_cpd / (self.rolloff_per_deg * tail + 1.0)

    @property
    def _tail(self) -> tuple[float, float]:
        """``(k, c)`` of the tail written ``k / (e - plateau_end + c)``."""
        if self.kind == CONSTANT_FOVEA:
            return self.rolloff_cpd_per_deg, self.rolloff_cpd_per_deg / self.foveal_cpd
        return self.foveal_cpd / self.rolloff_per_deg, 1.0 / self.rolloff_per_deg

    def crossings(self, start, end, v0, v1) -> np.ndarray:
        """Sorted eccentricities where straight lines meet this model.

        Line ``i`` runs from ``(start[i], v0[i])`` to ``(end[i], v1[i])``;
        the four arguments broadcast.  Only isolated crossings within each
        line's ``[start, end]`` count, so a line lying along the plateau has
        none on it.  On the plateau a crossing is a linear root; on the
        tail, written ``k / (e - plateau_end + c)``, a quadratic one.
        """
        lines = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (start, end, v0, v1)))
        return np.sort(self._line_crossings(*(x.ravel() for x in lines))[0])

    def _line_crossings(self, start, end, v0, v1) -> tuple[np.ndarray, np.ndarray]:
        """The crossings of :meth:`crossings`, unsorted, and the index of each one's line.

        The four arguments are 1-D float arrays of one length.
        """
        p = self.plateau_end_deg
        k, c = self._tail
        roots = np.empty((3, len(start)))
        found = np.empty(roots.shape, dtype=bool)
        with np.errstate(all="ignore"):  # no root gives inf or nan, filtered below
            slope = (v1 - v0) / (end - start)
            roots[0] = start + (self.foveal_cpd - v0) / slope
            # With x = e - p + c the line is a + slope * x, so a crossing
            # solves slope * x**2 + a * x - k = 0; the roots are taken in
            # the form that does not cancel (with slope 0 only -k / q is a root).
            a = v0 + slope * (p - c - start)
            q = -0.5 * (a + np.copysign(np.sqrt(a * a + 4.0 * slope * k), a))
            roots[1] = q / slope
            roots[2] = -k / q
            roots[1:] += p - c
            found[0] = (start <= roots[0]) & (roots[0] <= np.minimum(end, p))
            found[1:] = (np.maximum(start, p) <= roots[1:]) & (roots[1:] <= end)
        found &= end > start
        return roots[found], np.nonzero(found)[1]

    def breakpoints(self) -> tuple[float, ...]:
        """Quadrature panel boundaries: the plateau end, then graded cuts.

        The tail ``k / (e - p + c)``, with ``p`` the plateau end, has a pole
        at ``p - c``.  When ``c`` is small (a steep rolloff), the cuts
        ``p + c * (2**j - 1)`` for ``j = 1, 2, ...`` keep every panel at
        least its own width from the pole, which a Gauss rule needs to be
        exact to rounding.  They stop once the next panel, ``c * 2**j``
        wide, would reach ``QUADRATURE_PANEL_DEG``; past the last cut the
        pole is at least that far away.  The default rolloffs add no cut.
        """
        p = self.plateau_end_deg
        _, c = self._tail
        cuts, width = [p], c
        while 0.0 < width < QUADRATURE_PANEL_DEG:
            width *= 2.0
            cuts.append(p + (width - c))
        return tuple(cuts)

    def with_foveation_error(self, error_deg: float) -> "AcuityModel":
        """Copy of this model degraded by an angular tracking error."""
        return replace(self, foveation_error_deg=error_deg)


def make_adf(
    kind: str,
    acuity: SnellenFraction | str,
    fovea_deg: float = DEFAULT_FOVEA_DEG,
    slope: float | None = None,
    foveation_error_deg: float = 0.0,
) -> AcuityModel:
    """Build an acuity model from a Snellen fraction.

    ``slope`` is the rolloff parameter for the requested kind and defaults to
    75 cpd/deg for ``"constant-fovea"`` and 0.55 /deg for ``"slope"``.
    """
    if kind not in ADF_KINDS:
        raise ValueError(f"unknown acuity model kind {kind!r}, expected one of {ADF_KINDS}")
    peak = snellen_to_cpd(acuity)
    if kind == CONSTANT_FOVEA:
        return AcuityModel(
            kind=kind,
            foveal_cpd=peak,
            fovea_deg=fovea_deg,
            rolloff_cpd_per_deg=DEFAULT_ROLLOFF_CPD_PER_DEG if slope is None else slope,
            foveation_error_deg=foveation_error_deg,
        )
    return AcuityModel(
        kind=kind,
        foveal_cpd=peak,
        fovea_deg=fovea_deg,
        rolloff_per_deg=DEFAULT_ROLLOFF_PER_DEG if slope is None else slope,
        foveation_error_deg=foveation_error_deg,
    )


def inflate_for_foveation_error(model: AcuityModel, error_deg: float) -> AcuityModel:
    """Return ``model`` degraded by an angular tracking error (pointwise >= it)."""
    return model.with_foveation_error(error_deg)
