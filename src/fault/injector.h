/**
 * Deterministic, seed-driven fault injection for the hardware and SGX
 * layers (robustness harness, Guardian-style adversarial driving:
 * arXiv:2105.05962).
 *
 * A FaultPlan maps injection *sites* (EWB blob corruption, version-array
 * slot loss, EPC allocation failure, spurious AEX storms, refused
 * transition/paging leaves) onto *triggers* (fire at the Nth occurrence,
 * every Kth occurrence, or with a seeded per-occurrence probability).
 * The FaultInjector evaluates the plan as the machine runs: every hook
 * site asks `shouldInject` once per occurrence, so a fixed (plan, seed)
 * pair replays the exact same fault schedule run after run.
 *
 * The machine holds a *nullable pointer* to an injector: with none armed
 * every hook is a single predictable branch, keeping the hot paths
 * byte-identical to the uninstrumented model (the golden trace-counter
 * corpus relies on that).
 */
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "support/rng.h"
#include "support/status.h"

namespace nesgx::fault {

/** Where a fault can be injected. Spec names are the kebab-case forms
 *  in siteName(). */
enum class FaultSite : std::uint8_t {
    EcreateFail,   ///< ECREATE refuses with #GP ("ecreate-fail")
    EaddFail,      ///< EADD refuses with #GP ("eadd-fail")
    EenterFail,    ///< EENTER refuses with #GP ("eenter-fail")
    NeenterFail,   ///< NEENTER refuses with #GP ("neenter-fail")
    ElduFail,      ///< ELDU refuses with PagingIntegrity ("eldu-fail")
    EwbCorrupt,    ///< bit-flip in the EWB ciphertext ("ewb-corrupt")
    EwbDropSlot,   ///< version-array slot lost post-EWB ("ewb-drop-slot")
    EpcAllocFail,  ///< kernel EPC allocator refuses ("epc-alloc-fail")
    AexStorm,      ///< spurious AEX+ERESUME on an access ("aex-storm")
    RingStall,     ///< switchless ring wedges post-push ("ring-stall")
    MigrateExportFail,  ///< migration export aborts pre-seal; the
                        ///< source keeps serving ("migrate-export-fail")
    MigrateImportFail,  ///< migration import aborts post-stage; the
                        ///< destination instance is rolled back
                        ///< ("migrate-import-fail")
    PollerWedge,   ///< switchless channel wedges: posts land but the
                   ///< poller stops draining until disarm ("poller-wedge")
    GatewayCrash,  ///< gateway outer marked crashed; data-plane
                   ///< dispatches refuse until the subtree is rebuilt
                   ///< ("gateway-crash")
    HostDegrade,   ///< whole host marked degraded; data plane refuses
                   ///< while control plane (export/import) still works,
                   ///< so evacuation can drain it ("host-degrade")
};

constexpr std::size_t kFaultSiteCount =
    std::size_t(FaultSite::HostDegrade) + 1;

const char* siteName(FaultSite site);

/** Parses a kebab-case site name; false when unknown. */
bool siteFromName(std::string_view name, FaultSite& out);

/** When a site fires, relative to its occurrence counter (1-based). */
struct Trigger {
    enum class Mode : std::uint8_t {
        Off,          ///< never fires
        Nth,          ///< fires exactly once, at occurrence `n`
        EveryK,       ///< fires at occurrences k, 2k, 3k, ...
        Probability,  ///< fires per occurrence with seeded probability `p`
    };
    Mode mode = Mode::Off;
    std::uint64_t n = 0;
    std::uint64_t k = 0;
    double p = 0.0;

    static Trigger nth(std::uint64_t n);
    static Trigger every(std::uint64_t k);
    static Trigger probability(double p);
};

/** Site -> trigger table, parseable from a `--faults` spec string. */
struct FaultPlan {
    std::array<Trigger, kFaultSiteCount> triggers{};

    bool empty() const;
    void set(FaultSite site, Trigger trigger);
    const Trigger& trigger(FaultSite site) const
    {
        return triggers[std::size_t(site)];
    }

    /**
     * Spec grammar: `site@trigger` clauses joined by ';' (or ','), where
     * trigger is `n=<N>`, `every=<K>` or `p=<float>`. Whitespace around
     * tokens is ignored. Example:
     *
     *   ewb-corrupt@n=3; eldu-fail@every=7; aex-storm@p=0.001
     *
     * On failure `error` (when non-null) receives a human-readable
     * diagnostic naming the offending clause — unknown sites come back
     * with a "did you mean" suggestion so a typo'd chaos plan fails
     * loudly instead of running fault-free.
     */
    static Result<FaultPlan> parse(const std::string& spec,
                                   std::string* error = nullptr);

    /** Round-trippable description (parse(describe()) == *this). */
    std::string describe() const;
};

/**
 * Evaluates a FaultPlan deterministically. Each `shouldInject(site)`
 * call advances that site's occurrence counter by one and reports
 * whether the armed trigger fires there; probability triggers draw from
 * a private seeded stream, so schedules replay exactly for a fixed
 * (plan, seed).
 */
class FaultInjector {
  public:
    FaultInjector(FaultPlan plan, std::uint64_t seed);

    /** One occurrence of `site`: count it, decide, account the hit. */
    bool shouldInject(FaultSite site);

    /** Stops firing (counters keep advancing); `arm` re-enables. */
    void disarm() { armed_ = false; }
    void arm() { armed_ = true; }
    bool armed() const { return armed_; }

    const FaultPlan& plan() const { return plan_; }
    std::uint64_t occurrences(FaultSite site) const
    {
        return occurrences_[std::size_t(site)];
    }
    std::uint64_t injected(FaultSite site) const
    {
        return injected_[std::size_t(site)];
    }
    std::uint64_t totalInjected() const;

  private:
    FaultPlan plan_;
    Rng rng_;
    bool armed_ = true;
    std::array<std::uint64_t, kFaultSiteCount> occurrences_{};
    std::array<std::uint64_t, kFaultSiteCount> injected_{};
};

}  // namespace nesgx::fault
