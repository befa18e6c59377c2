#!/usr/bin/env python3
"""Every bound CI holds the bench reports to, written once.

A gate is a Python expression over the keys of one --json report; the
report passes when every expression holds. CI runs the tables below
through this script, and plot_transitions.py / plot_depth.py check the
same tables before they draw, so no bound is restated anywhere else.

Usage:
  gates.py transitions T2.json   # bench_table2_transitions --json
  gates.py serve SERVE.json      # bench_serve --json

Exit 0 when every gate holds; 1 with one line per violated gate (the
expression and the values it read); 2 on bad usage.
"""
import json
import sys

SWITCHLESS_BUDGET = 0.01  # transitions/request the exit-less path may leak
FLAT_BUDGET = 1.15  # cached depth-3 vs depth-2 validation ratio ceiling

# bench_table2_transitions measures every cell in both TLB models: the
# context-tagged TLB must be strictly cheaper than the paper-faithful
# flush-on-transition model in all four transition cells.
TRANSITIONS = [
    "tagged_emulated_ecall_us < emulated_ecall_us",
    "tagged_emulated_ocall_us < emulated_ocall_us",
    "tagged_nested_necall_us < nested_necall_us",
    "tagged_nested_nocall_us < nested_nocall_us",
]

# The transition-tax ablation: each mode must strictly beat the previous
# one, and the exit-less path must be (near) transition-free at the
# 4x-oversubscribed tenant load.
TRANSITION_TAX = [
    "transitions_per_request_classic > transitions_per_request_batched"
    " > transitions_per_request_switchless",
    f"transitions_per_request_switchless <= {SWITCHLESS_BUDGET}",
]

SERVE = [
    # Batching reduces enclave transitions per request, and the service
    # survives EPC pressure (forced tenant evictions + transparent
    # reloads) and injected faults with zero integrity failures.
    "neenter_per_req_batch8 < neenter_per_req_batch1",
    "pressure_evictions >= 10",
    "pressure_integrity_failures == 0",
    "pressure_watermark_misses == 0",
    "chaos_faults_injected > 0",
    "chaos_fault_sites >= 5",
    "chaos_rebuilds >= 1",
    "chaos_silent_empties == 0",
    "chaos_breaker_opens >= 1",
    "chaos_breaker_closes >= 1",
    "chaos_retries >= 1",
] + TRANSITION_TAX + [
    "switchless_integrity_failures == 0",
    # Depth-3 cvm tree (bench 6/10): every response verified, the
    # per-hop rings keep the deeper chain transition-free, and EPC
    # pressure actually paged depth-3 subtrees.
    "cvm_verified == cvm_submitted",
    "cvm_integrity_failures == 0",
    "cvm_transitions_per_request <= 0.01",
    "cvm_evictions >= 10",
    # Live migration (bench 7/10): the 24-tenant two-host fleet must
    # verify every sealed response across 40 gateway moves and 20
    # cross-host moves with zero aborts, and the move latency histogram
    # must be populated.
    "migrate_verified == migrate_submitted == 480",
    "migrate_integrity_failures == 0",
    "migrate_gateway_moves >= 24",
    "migrate_host_moves >= 1",
    "migrate_aborted == 0",
    "migrate_pages_drained > 0",
    "migrate_p95_cycles >= migrate_p50_cycles > 0",
    # Chaos x topology sweep (bench 8/10): the depth-3 cvm tree under the
    # fault storm with migrations mid-flight — faults and migrations
    # must both actually fire, every tenant must recover, and nothing
    # may fail silently.
    "cvm_chaos_faults_injected > 0",
    "cvm_chaos_fault_sites >= 5",
    "cvm_chaos_silent_empties == 0",
    "cvm_chaos_migrations >= 1",
    "cvm_chaos_recovered == 24",
    # Failure-domain supervision (bench 9/10): mid-chaos gateway kill +
    # whole-host degrade on the 24-tenant fleet. Every request must
    # verify (the epoch fence redirects instead of dropping), the
    # watchdog must detect the wedges, and all 24 tenants must evacuate
    # to the healthy host with populated latency histograms.
    "evac_verified == evac_target == 480",
    "evac_integrity_failures == 0",
    "evac_silent_empties == 0",
    "evac_evacuations >= 24",
    "evac_failed == 0",
    "evac_redirects >= 1",
    "evac_p95_cycles >= evac_p50_cycles > 0",
    "evac_recovery_cycles > 0",
    "supervise_wedges >= 1",
    "supervise_subtree_rebuilds >= 1",
    "supervise_detection_p50 > 0",
    "supervise_faults_fired >= 2",
    # Tenant sweep (bench 10/10): EPC victim search is O(1) amortised
    # per pick, so the host cost of a tenant must not grow with the
    # fleet: 500 tenants may cost at most twice the wall ms per tenant
    # of 100.
    "sweep_t500_ms_per_tenant <= 2 * sweep_t100_ms_per_tenant",
]

# bench_ablation_depth's served curve: the closure cache keeps
# validation flat as the chain deepens from the flat pair to the
# CVM -> gateway -> tenant tree, while the per-node walk it is measured
# against grows with depth.
DEPTH = [
    f"depth_served_validation_cycles_cached_d3"
    f" <= {FLAT_BUDGET} * depth_served_validation_cycles_cached_d2",
    "depth_served_validation_cycles_walk_d4"
    " > depth_served_validation_cycles_walk_d3"
    " > depth_served_validation_cycles_walk_d2",
]


def violations(gates, report):
    """The gates `report` fails, each with the values it read."""
    out = []
    for expr in gates:
        code = compile(expr, "<gate>", "eval")
        missing = [name for name in code.co_names if name not in report]
        if missing:
            out.append(f"{expr}: report lacks {', '.join(missing)}")
        elif not eval(code, {"__builtins__": {}}, report):
            read = ", ".join(f"{n}={report[n]}" for n in code.co_names)
            out.append(f"{expr}: {read}")
    return out


def require(gates, report):
    """Exits 1, naming every violation, unless `report` passes `gates`."""
    failed = violations(gates, report)
    for line in failed:
        print(f"gate failed: {line}", file=sys.stderr)
    if failed:
        sys.exit(1)


SUITES = {
    "transitions": (
        TRANSITIONS,
        "tagged TLB strictly cheaper in all four transition cells"),
    "serve": (
        SERVE,
        "batching amortizes transitions; service survives pressure and "
        "self-heals under injected faults; {migrate_gateway_moves} gateway "
        "+ {migrate_host_moves} cross-host live migrations verified"),
}


def main():
    if len(sys.argv) != 3 or sys.argv[1] not in SUITES:
        print("usage: gates.py {transitions|serve} REPORT.json",
              file=sys.stderr)
        sys.exit(2)
    with open(sys.argv[2]) as f:
        report = json.load(f)
    gates, summary = SUITES[sys.argv[1]]
    require(gates, report)
    print(summary.format(**report))


if __name__ == "__main__":
    main()
