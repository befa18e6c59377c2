#include "fault/injector.h"

#include <cstdlib>
#include <sstream>
#include <vector>

#include "support/suggest.h"

namespace nesgx::fault {

const char*
siteName(FaultSite site)
{
    switch (site) {
      case FaultSite::EcreateFail: return "ecreate-fail";
      case FaultSite::EaddFail: return "eadd-fail";
      case FaultSite::EenterFail: return "eenter-fail";
      case FaultSite::NeenterFail: return "neenter-fail";
      case FaultSite::ElduFail: return "eldu-fail";
      case FaultSite::EwbCorrupt: return "ewb-corrupt";
      case FaultSite::EwbDropSlot: return "ewb-drop-slot";
      case FaultSite::EpcAllocFail: return "epc-alloc-fail";
      case FaultSite::AexStorm: return "aex-storm";
      case FaultSite::RingStall: return "ring-stall";
      case FaultSite::MigrateExportFail: return "migrate-export-fail";
      case FaultSite::MigrateImportFail: return "migrate-import-fail";
      case FaultSite::PollerWedge: return "poller-wedge";
      case FaultSite::GatewayCrash: return "gateway-crash";
      case FaultSite::HostDegrade: return "host-degrade";
    }
    return "unknown";
}

bool
siteFromName(std::string_view name, FaultSite& out)
{
    for (std::size_t i = 0; i < kFaultSiteCount; ++i) {
        if (name == siteName(FaultSite(i))) {
            out = FaultSite(i);
            return true;
        }
    }
    return false;
}

Trigger
Trigger::nth(std::uint64_t n)
{
    Trigger t;
    t.mode = Mode::Nth;
    t.n = n;
    return t;
}

Trigger
Trigger::every(std::uint64_t k)
{
    Trigger t;
    t.mode = Mode::EveryK;
    t.k = k;
    return t;
}

Trigger
Trigger::probability(double p)
{
    Trigger t;
    t.mode = Mode::Probability;
    t.p = p;
    return t;
}

bool
FaultPlan::empty() const
{
    for (const Trigger& t : triggers) {
        if (t.mode != Trigger::Mode::Off) return false;
    }
    return true;
}

void
FaultPlan::set(FaultSite site, Trigger trigger)
{
    triggers[std::size_t(site)] = trigger;
}

namespace {

std::string_view
trimmed(std::string_view s)
{
    while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
        s.remove_prefix(1);
    }
    while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
        s.remove_suffix(1);
    }
    return s;
}

void
setError(std::string* error, const std::string& message)
{
    if (error != nullptr) *error = message;
}

}  // namespace

Result<FaultPlan>
FaultPlan::parse(const std::string& spec, std::string* error)
{
    FaultPlan plan;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        std::size_t end = spec.find_first_of(";,", pos);
        if (end == std::string::npos) end = spec.size();
        std::string_view clause =
            trimmed(std::string_view(spec).substr(pos, end - pos));
        pos = end + 1;
        if (clause.empty()) continue;

        std::size_t at = clause.find('@');
        if (at == std::string_view::npos) {
            setError(error, "clause '" + std::string(clause) +
                                "' has no '@' (expected site@trigger)");
            return Err::BadCallBuffer;
        }
        FaultSite site;
        const std::string name(trimmed(clause.substr(0, at)));
        if (!siteFromName(name, site)) {
            std::vector<std::string_view> sites;
            for (std::size_t i = 0; i < kFaultSiteCount; ++i) {
                sites.push_back(siteName(FaultSite(i)));
            }
            std::string message = "unknown fault site '" + name + "'";
            const std::string suggestion = closestName(name, sites);
            if (!suggestion.empty()) {
                message += " — did you mean '" + suggestion + "'?";
            }
            setError(error, message);
            return Err::NotFound;
        }
        std::string_view trig = trimmed(clause.substr(at + 1));
        std::size_t eq = trig.find('=');
        if (eq == std::string_view::npos) {
            setError(error, "trigger '" + std::string(trig) + "' for site '" +
                                name + "' has no '=' (expected n=<N>, "
                                "every=<K> or p=<float>)");
            return Err::BadCallBuffer;
        }
        std::string_view key = trimmed(trig.substr(0, eq));
        std::string value(trimmed(trig.substr(eq + 1)));
        if (value.empty()) {
            setError(error, "trigger '" + std::string(key) + "' for site '" +
                                name + "' has an empty value");
            return Err::BadCallBuffer;
        }

        char* parseEnd = nullptr;
        if (key == "n") {
            std::uint64_t n = std::strtoull(value.c_str(), &parseEnd, 10);
            if (*parseEnd != '\0' || n == 0) {
                setError(error, "bad occurrence count '" + value +
                                    "' for site '" + name +
                                    "' (expected a positive integer)");
                return Err::BadCallBuffer;
            }
            plan.set(site, Trigger::nth(n));
        } else if (key == "every") {
            std::uint64_t k = std::strtoull(value.c_str(), &parseEnd, 10);
            if (*parseEnd != '\0' || k == 0) {
                setError(error, "bad period '" + value + "' for site '" +
                                    name +
                                    "' (expected a positive integer)");
                return Err::BadCallBuffer;
            }
            plan.set(site, Trigger::every(k));
        } else if (key == "p") {
            double p = std::strtod(value.c_str(), &parseEnd);
            if (*parseEnd != '\0' || p < 0.0 || p > 1.0) {
                setError(error, "bad probability '" + value + "' for site '" +
                                    name + "' (expected 0.0 <= p <= 1.0)");
                return Err::BadCallBuffer;
            }
            plan.set(site, Trigger::probability(p));
        } else {
            std::string message = "unknown trigger '" + std::string(key) +
                                  "' for site '" + name + "'";
            if (editDistance(key, "every") <= 2) {
                message += " — did you mean 'every'?";
            }
            setError(error, message);
            return Err::BadCallBuffer;
        }
    }
    return plan;
}

std::string
FaultPlan::describe() const
{
    std::ostringstream out;
    bool first = true;
    for (std::size_t i = 0; i < kFaultSiteCount; ++i) {
        const Trigger& t = triggers[i];
        if (t.mode == Trigger::Mode::Off) continue;
        if (!first) out << ";";
        first = false;
        out << siteName(FaultSite(i)) << "@";
        switch (t.mode) {
          case Trigger::Mode::Nth: out << "n=" << t.n; break;
          case Trigger::Mode::EveryK: out << "every=" << t.k; break;
          case Trigger::Mode::Probability: out << "p=" << t.p; break;
          case Trigger::Mode::Off: break;
        }
    }
    return out.str();
}

FaultInjector::FaultInjector(FaultPlan plan, std::uint64_t seed)
    : plan_(plan), rng_(seed ^ 0xfa17fa17fa17fa17ull)
{
}

bool
FaultInjector::shouldInject(FaultSite site)
{
    std::lock_guard<std::mutex> g(m_);
    const std::size_t index = std::size_t(site);
    const std::uint64_t occurrence = ++occurrences_[index];
    if (!armed_) return false;

    const Trigger& trigger = plan_.triggers[index];
    bool fire = false;
    switch (trigger.mode) {
      case Trigger::Mode::Off:
        break;
      case Trigger::Mode::Nth:
        fire = occurrence == trigger.n;
        break;
      case Trigger::Mode::EveryK:
        fire = occurrence % trigger.k == 0;
        break;
      case Trigger::Mode::Probability:
        // The draw happens on every occurrence (hit or not) so the
        // stream position — and thus the schedule — depends only on the
        // occurrence count, never on earlier decisions.
        fire = rng_.nextDouble() < trigger.p;
        break;
    }
    if (fire) ++injected_[index];
    return fire;
}

std::uint64_t
FaultInjector::totalInjected() const
{
    std::lock_guard<std::mutex> g(m_);
    std::uint64_t total = 0;
    for (std::uint64_t n : injected_) total += n;
    return total;
}

}  // namespace nesgx::fault
