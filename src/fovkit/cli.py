"""Command-line surface: convert, curves, metrics, classify.

Outputs are pure functions of the arguments and input files; repeated runs
are byte-identical.  Exit codes: 0 success, 1 input or domain failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import fields
from pathlib import Path

from . import specio
from .acuity import (
    ADF_KINDS,
    CONSTANT_FOVEA,
    DEFAULT_FOVEA_DEG,
    cpd_to_dpi,
    make_adf,
    parse_snellen,
    snellen_to_cpd,
)
from .classify import AcuityRangeWarning, ClassifierConfig, classify
from .display import build_rdf
from .metrics import metrics_report


def _range_arg(text: str) -> tuple[float, float]:
    try:
        a, b = text.split(":")
        return float(a), float(b)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a range like 0:80, got {text!r}") from None


def _add_adf_options(parser: argparse.ArgumentParser, *, repeatable: bool) -> None:
    parser.add_argument(
        "--adf-model",
        choices=ADF_KINDS,
        action="append" if repeatable else "store",
        default=None,
        help="acuity falloff model (default: constant-fovea)",
    )
    parser.add_argument("--e0", type=float, default=DEFAULT_FOVEA_DEG, metavar="DEG",
                        help="half-width of the constant-acuity plateau")
    parser.add_argument("--slope", type=float, default=None,
                        help="rolloff parameter for the chosen model")
    parser.add_argument(
        "--fov-error",
        type=float,
        action="append" if repeatable else "store",
        default=None,
        metavar="DEG",
        help="angular tracking error inflating the falloff" + (" (repeatable)" if repeatable else ""),
    )


def _add_config_options(parser: argparse.ArgumentParser) -> None:
    """One ``--field-name`` flag per :class:`ClassifierConfig` field."""
    group = parser.add_argument_group("classifier thresholds")
    for f in fields(ClassifierConfig):
        flag = f.name.replace("_", "-")
        group.add_argument(f"--{flag}", type=float, default=None, dest=f.name, metavar="V")


def _config_from_args(args) -> ClassifierConfig:
    overrides = {
        f.name: getattr(args, f.name)
        for f in fields(ClassifierConfig)
        if getattr(args, f.name) is not None
    }
    return ClassifierConfig(**overrides)


def _resolve_spec(token: str) -> "specio.DisplaySpec":
    """A --spec value is a file path, or the name of a bundled spec."""
    path = Path(token)
    if path.exists():
        return specio.load_display_spec(path)
    if "/" not in token and "\\" not in token and token in specio.bundled_spec_names():
        return specio.load_bundled_spec(token)
    raise specio.SpecFileError(
        f"cannot read spec file {token!s}: no such file, and {token!r} is not a bundled spec "
        f"(bundled: {', '.join(specio.bundled_spec_names())})"
    )


def _format_config(cfg: ClassifierConfig) -> str:
    return (
        f"fovea {cfg.fovea_boundary:g} deg | periphery from {cfg.periphery_start:g} deg | "
        f"full field >= {cfg.min_full_field_half_angle:g} deg | "
        f"deficit tol {cfg.foveal_deficit_tol:g}/{cfg.peripheral_deficit_tol:g} cycles | "
        f"noticeability {cfg.noticeability_tol:g} cpd | "
        f"gaze bounds {cfg.class4_bound:g}/{cfg.class3_bound:g}/{cfg.full_gaze_range:g} deg"
    )


def _cmd_convert(args) -> int:
    cpd = snellen_to_cpd(args.snellen)
    lines = [f"{cpd:.1f} cpd"]
    if args.distance_in is not None:
        dpi = cpd_to_dpi(cpd, args.distance_in)
        text = f"{dpi:.1f}"
        if float(text) == 0.0:  # a valid result under 0.05 dpi
            text = f"{dpi:.3g}"
        lines.append(f"{text} dpi")
    print("\n".join(lines))
    return 0


def _curve_set(args):
    """Cross product of requested models, acuities and tracking errors."""
    models = args.adf_model or [CONSTANT_FOVEA]
    errors = args.fov_error or [0.0]
    curves = []
    for model in models:
        for acuity in args.acuity or []:
            for err in errors:
                name = f"adf_{model}_{str(acuity).replace('/', '_')}"
                if err:
                    name += f"_err{err:g}"
                curves.append(
                    (name, make_adf(model, acuity, fovea_deg=args.e0, slope=args.slope,
                                    foveation_error_deg=err))
                )
    for token in args.spec or []:
        spec = _resolve_spec(token)
        curves.append((f"rdf_{spec.name}", build_rdf(spec)))
    return curves


def _cmd_curves(args) -> int:
    curves = _curve_set(args)
    if not curves:
        print("error: nothing to sample; give --acuity and/or --spec", file=sys.stderr)
        return 1
    a, b = args.range
    table = specio.emit_curves(curves, a, b, args.step)
    Path(args.out).write_text(table.to_csv(), encoding="utf-8", newline="")
    return 0


def _cmd_metrics(args) -> int:
    spec = _resolve_spec(args.spec)
    cfg = _config_from_args(args)
    model = args.adf_model or CONSTANT_FOVEA
    adf = make_adf(model, args.acuity, fovea_deg=args.e0, slope=args.slope,
                   foveation_error_deg=args.fov_error or 0.0)
    rdf = build_rdf(spec)
    report = metrics_report(
        rdf,
        adf,
        eval_range=args.range,
        fovea_boundary_deg=cfg.fovea_boundary,
        periphery_start_deg=cfg.periphery_start,
    )
    print(f"display: {spec.name}")
    print(f"acuity: {args.acuity} ({model})")
    print(f"eval range: {report.eval_range[0]:g}..{report.eval_range[1]:g} deg")
    print(f"cycle count: {report.cycle_count:.6f}")
    print(f"pixel deficit: {report.deficit:.6f}")
    print(f"pixel waste: {report.waste:.6f}")
    print(f"rdf efficiency: {report.efficiency:.6f}")
    print(f"foveal deficit [0..{cfg.fovea_boundary:g}]: {report.foveal_deficit:.6f}")
    print(f"peripheral deficit [{cfg.periphery_start:g}..edge]: {report.peripheral_deficit:.6f}")
    return 0


def _cmd_classify(args) -> int:
    cfg = _config_from_args(args)
    model = args.adf_model or CONSTANT_FOVEA
    error = args.fov_error or 0.0
    for token in args.spec:
        spec = _resolve_spec(token)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", AcuityRangeWarning)
            result = classify(
                spec,
                args.acuity,
                cfg,
                kind=model,
                fovea_deg=args.e0,
                slope=args.slope,
                foveation_error_deg=error,
            )
        ev = result.evidence
        print(f"display: {spec.name}")
        print(f"acuity: {result.acuity_label} ({model})")
        for w in caught:
            print(f"warning: {w.message}")
        print(
            f"resolution class: {result.resolution_class} "
            f"(foveal deficit {ev.foveal_deficit:.6f}, "
            f"peripheral deficit {ev.peripheral_deficit:.6f}, "
            f"edge artifact: {'yes' if ev.edge_artifact else 'no'})"
        )
        print(
            f"gaze class: {result.gaze_class} "
            f"(invariance range {ev.gaze_invariance_range:.1f} deg)"
        )
        print(f"cycle count: {ev.report.cycle_count:.6f}")
        print(f"pixel deficit: {ev.report.deficit:.6f}")
        print(f"pixel waste: {ev.report.waste:.6f}")
        print(f"rdf efficiency: {ev.report.efficiency:.6f}")
        print(f"config: {_format_config(cfg)}")
        print(f"{spec.name}: {result.combined}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fovkit",
        description="Acuity and resolution modelling for displays that vary across the visual field.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="acuity fraction to cpd (and dpi at a distance)")
    p.add_argument("--snellen", required=True, type=parse_snellen, metavar="N/M")
    p.add_argument("--distance-in", type=float, default=None, metavar="INCHES")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("curves", help="sample falloff/profile curves to CSV")
    p.add_argument("--acuity", action="append", type=parse_snellen, metavar="N/M")
    _add_adf_options(p, repeatable=True)
    p.add_argument("--spec", action="append", metavar="FILE", help="also sample this display's profile")
    p.add_argument("--range", type=_range_arg, required=True, metavar="A:B")
    p.add_argument("--step", type=float, required=True, metavar="DEG")
    p.add_argument("--out", required=True, metavar="PATH")
    p.set_defaults(func=_cmd_curves)

    p = sub.add_parser("metrics", help="deficit/waste/efficiency of a display")
    p.add_argument("--spec", required=True, metavar="FILE")
    p.add_argument("--acuity", required=True, type=parse_snellen, metavar="N/M")
    _add_adf_options(p, repeatable=False)
    p.add_argument("--range", type=_range_arg, default=None, metavar="A:B")
    _add_config_options(p)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("classify", help="combined resolution/gaze class of displays")
    p.add_argument("--spec", action="append", required=True, metavar="FILE")
    p.add_argument("--acuity", required=True, type=parse_snellen, metavar="N/M")
    _add_adf_options(p, repeatable=False)
    _add_config_options(p)
    p.set_defaults(func=_cmd_classify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
