#!/usr/bin/env python3
"""Run the README CLI walkthrough on the bundled baseline and filtered
scenarios (``simulate``, ``analyze`` and ``report``) and print the headline
distortion / power-factor table from the files it writes under an output
directory.  Exits 1 unless the filters flip IEEE-519 from fail to pass.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from harmflow import cli, presets

CASES = ("baseline", "filtered")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out", help="output directory")
    out = Path(parser.parse_args().out)
    out.mkdir(parents=True, exist_ok=True)
    commands = [
        ["simulate", str(presets.SCENARIOS / f"{c}.json"), "-o", str(out / f"{c}.csv")]
        for c in CASES
    ] + [
        ["analyze", str(out / f"{c}.csv"), "--channel", "i_src_a",
         "--v-channel", "v_src_a", "-o", str(out / c)]
        for c in CASES
    ] + [["report", *(str(out / f"{c}.csv") for c in CASES), "-o", str(out / "comparison")]]
    for argv in commands:
        if code := cli.main(argv):
            return code

    def read(name: str) -> dict:
        return json.loads((out / name).read_text())

    for c in CASES:
        summary, meta = read(f"{c}.summary.json"), read(f"{c}.meta.json")
        print(
            f"{c:>9}: THD {100 * summary['thd']:6.2f}%   "
            f"DPF {summary['power']['displacement_power_factor']:6.4f}   "
            f"PF {summary['power']['true_power_factor']:6.4f}   "
            f"IEEE-519 {'pass' if summary['ieee519']['passed'] else 'FAIL'}   "
            f"({meta['wall_time_s']:.1f}s)"
        )
    report = read("comparison.report.json")
    print(f"THD drop: {-100 * report['thd_delta']:.2f} percentage points; outputs in {out}/")
    if not report["ieee519_flip"]:
        print("error: the filters do not flip IEEE-519 from fail to pass", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
