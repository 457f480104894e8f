#!/usr/bin/env python3
"""Cycle budget of brute-force uniform displays versus the acuity falloff.

For each acuity, a display holding the full foveal resolution uniformly over
the slice is compared with what the user can actually resolve: total cycles,
the cycles the falloff needs, the waste, and the resulting efficiency.
"""

import argparse

from fovkit import (
    DisplaySpec,
    Tier,
    build_rdf,
    integrate,
    make_adf,
    metrics_report,
    snellen_to_cpd,
)

ACUITIES = ("20/10", "20/20", "20/30", "20/40")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--half-fov", default=80.0, type=float)
    args = parser.parse_args()
    edge = args.half_fov

    print(f"{'acuity':>7} {'uniform cpd':>12} {'cycles':>9} {'needed':>9} "
          f"{'waste':>9} {'efficiency':>11}")
    for acuity in ACUITIES:
        peak = snellen_to_cpd(acuity)
        adf = make_adf("constant-fovea", acuity)
        spec = DisplaySpec(
            name="brute", tiers=(Tier(resolution_cpd=peak, half_fov_deg=edge),)
        )
        report = metrics_report(build_rdf(spec), adf)
        needed = integrate(adf, 0.0, edge)
        print(f"{acuity:>7} {peak:>12.1f} {report.cycle_count:>9.1f} {needed:>9.1f} "
              f"{report.waste:>9.1f} {report.efficiency:>10.1%}")


if __name__ == "__main__":
    main()
