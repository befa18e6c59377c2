#!/usr/bin/env python3
"""Renders the served depth curve from a bench_ablation_depth --json report.

Reads, for each depth d in {2, 3, 4}, the per-request validation cycles
with the closure cache priced as hardware (one flat probe per hit) and
with the paper-faithful per-node chain walk, plus the served throughput.
With matplotlib available a PNG is written; without it (the CI
containers have only the stdlib) the same curve is printed as ASCII, so
the script is always runnable and its exit code still validates the
report.

Validation (exit 1 on violation): every depth_served_* key present and
finite, then the depth gates of gates.py (DEPTH: cached depth-3 <= 1.15 x
cached depth-2, and the per-node walk grows with depth).

Usage: plot_depth.py DEPTH.json [OUT.png]
"""
import json
import math
import sys

from gates import DEPTH, FLAT_BUDGET, require

DEPTHS = [2, 3, 4]


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path):
    with open(path) as f:
        report = json.load(f)
    values = {"cached": {}, "walk": {}, "rps": {}}
    for depth in DEPTHS:
        for series, key in [
            ("cached", f"depth_served_validation_cycles_cached_d{depth}"),
            ("walk", f"depth_served_validation_cycles_walk_d{depth}"),
            ("rps", f"depth_served_requests_per_sec_d{depth}"),
        ]:
            if key not in report:
                fail(f"{path} is missing {key} "
                     "(bench_ablation_depth too old?)")
            value = float(report[key])
            if not math.isfinite(value) or value < 0:
                fail(f"{key} = {value!r} is not a sane value")
            values[series][depth] = value
    require(DEPTH, report)
    return values


def ascii_chart(values):
    top = max(max(values["walk"].values()),
              max(values["cached"].values()), 1.0)
    width = 40
    print("validation cycles per request vs nesting depth "
          "(lower is better)")
    for depth in DEPTHS:
        for series, label in [("cached", "cache"), ("walk", "walk ")]:
            value = values[series][depth]
            ticks = max(1, int(round(value / top * width)))
            bar = "#" * min(width, ticks)
            print(f"  d{depth} {label} {value:8.1f} |{bar}")
    print(f"  gate: cached d3 <= {FLAT_BUDGET} x cached d2")
    for depth in DEPTHS:
        print(f"  d{depth} served {values['rps'][depth]:12.0f} req/s")


def png_chart(values, path):
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return False
    fig, ax = plt.subplots(figsize=(6, 3.2))
    ax.plot(DEPTHS, [values["walk"][d] for d in DEPTHS], "o-",
            color="#b4513c", label="per-node walk")
    ax.plot(DEPTHS, [values["cached"][d] for d in DEPTHS], "s-",
            color="#3c78b4", label="closure cache")
    ax.set_xticks(DEPTHS)
    ax.set_xlabel("nesting depth of the served chain")
    ax.set_ylabel("validation cycles / request")
    ax.set_ylim(bottom=0)
    ax.legend()
    fig.tight_layout()
    fig.savefig(path, dpi=150)
    print(f"wrote {path}")
    return True


def main():
    if len(sys.argv) not in (2, 3):
        fail("usage: plot_depth.py DEPTH.json [OUT.png]")
    values = load(sys.argv[1])
    if len(sys.argv) == 3 and png_chart(values, sys.argv[2]):
        return
    ascii_chart(values)


if __name__ == "__main__":
    main()
