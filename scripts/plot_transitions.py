#!/usr/bin/env python3
"""Renders the transition-tax ablation from a bench_serve --json report.

Reads the three per-request transition figures (classic one-pair-per-
request dispatch, batch-8 amortized dispatch, exit-less switchless
rings) and draws a log-scale horizontal bar chart. With matplotlib
available a PNG is written; without it (the CI containers have only the
stdlib) the same chart is printed as ASCII art, so the script is always
runnable and its exit code still validates the report.

Validation (exit 1 on violation): all three transitions_per_request_*
keys present and finite, then the transition-tax gates of gates.py
(TRANSITION_TAX, the same table CI asserts).

Usage: plot_transitions.py SERVE.json [OUT.png]
"""
import json
import math
import sys

from gates import SWITCHLESS_BUDGET, TRANSITION_TAX, require

MODES = [
    ("classic", "transitions_per_request_classic"),
    ("batched", "transitions_per_request_batched"),
    ("switchless", "transitions_per_request_switchless"),
]


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path):
    with open(path) as f:
        report = json.load(f)
    values = {}
    for mode, key in MODES:
        if key not in report:
            fail(f"{path} is missing {key} (bench_serve too old?)")
        value = float(report[key])
        if not math.isfinite(value) or value < 0:
            fail(f"{key} = {value!r} is not a sane rate")
        values[mode] = value
    require(TRANSITION_TAX, report)
    return values


def ascii_chart(values):
    # Log-scale bars: the whole point of the ablation is orders of
    # magnitude, and a linear bar for 0.0 vs 2.0 would render as
    # nothing vs everything. Floor at one tick so zero still shows.
    width = 50
    floor = SWITCHLESS_BUDGET / 10
    top = max(max(values.values()), 1.0)
    span = math.log10(top / floor)
    print("transitions per request (log scale, lower is better)")
    for mode, _ in MODES:
        value = values[mode]
        ticks = 1
        if value > floor and span > 0:
            ticks = 1 + int(round(
                (math.log10(value / floor) / span) * (width - 1)))
        bar = "#" * max(1, min(width, ticks))
        print(f"  {mode:>10} {value:8.4f} |{bar}")
    print(f"  budget: switchless <= {SWITCHLESS_BUDGET}")


def png_chart(values, path):
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return False
    modes = [mode for mode, _ in MODES]
    rates = [max(values[m], SWITCHLESS_BUDGET / 10) for m in modes]
    fig, ax = plt.subplots(figsize=(7, 2.8))
    ax.barh(modes, rates, color=["#b4513c", "#c9a227", "#3c78b4"])
    ax.set_xscale("log")
    ax.axvline(SWITCHLESS_BUDGET, ls="--", c="gray", lw=1,
               label=f"budget {SWITCHLESS_BUDGET}")
    ax.set_xlabel("enclave transitions per request (post-arming)")
    ax.invert_yaxis()
    ax.legend()
    fig.tight_layout()
    fig.savefig(path, dpi=150)
    print(f"wrote {path}")
    return True


def main():
    if len(sys.argv) not in (2, 3):
        fail("usage: plot_transitions.py SERVE.json [OUT.png]")
    values = load(sys.argv[1])
    if len(sys.argv) == 3 and png_chart(values, sys.argv[2]):
        return
    ascii_chart(values)


if __name__ == "__main__":
    main()
