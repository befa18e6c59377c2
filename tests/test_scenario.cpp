/**
 * Tests for serve::Scenario, the serving run shared by nesgx_serve,
 * bench_serve and these tests: typed validation refusals instead of
 * crashes, the chaos plan's composition, and a Chrome trace on the
 * simulated clock's real timescale.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "serve/scenario.h"
#include "serve/service.h"

namespace nesgx::serve {
namespace {

Err
refusal(const Scenario& s, std::string* why = nullptr)
{
    return s.validate(why).code();
}

TEST(ScenarioValidate, DefaultsAreValid)
{
    EXPECT_EQ(refusal(Scenario{}), Err::Ok);
}

TEST(ScenarioValidate, RefusesZeroOrTooManyTenantsAndThreads)
{
    Scenario s;
    s.tenants = 0;
    std::string why;
    EXPECT_EQ(refusal(s, &why), Err::InvalidConfig);
    EXPECT_NE(why.find("--tenants"), std::string::npos) << why;

    s = Scenario{};
    s.threads = 0;
    EXPECT_EQ(refusal(s), Err::InvalidConfig);
    s.threads = kMaxScenarioThreads;
    EXPECT_EQ(refusal(s), Err::Ok);
    // Used to reach bad_alloc through coreCount = uint32_t(threads).
    s.threads = 99999999999ull;
    EXPECT_EQ(refusal(s), Err::InvalidConfig);
}

TEST(ScenarioValidate, RefusesZeroBatchAndZeroQueueDepth)
{
    TenantService::Config sc;
    EXPECT_TRUE(sc.validate().isOk());
    sc.pool.batchSize = 0;
    EXPECT_EQ(sc.validate().code(), Err::InvalidConfig);
    sc = TenantService::Config{};
    sc.admission.maxQueueDepth = 0;  // every submit backpressures forever
    EXPECT_EQ(sc.validate().code(), Err::InvalidConfig);

    Scenario s;
    s.batch = 0;
    EXPECT_EQ(refusal(s), Err::InvalidConfig);
    s = Scenario{};
    s.queueDepth = 0;
    EXPECT_EQ(refusal(s), Err::InvalidConfig);
}

TEST(ScenarioValidate, RefusesMalformedFaultPlanWithSuggestion)
{
    Scenario s;
    s.faults = "gatway-crash@n=1";
    std::string why;
    EXPECT_EQ(refusal(s, &why), Err::InvalidConfig);
    EXPECT_NE(why.find("did you mean 'gateway-crash'"), std::string::npos)
        << why;
}

TEST(ScenarioValidate, RefusesOversizedEpcAndUnreachableMigration)
{
    Scenario s;
    s.epcPages = ~std::uint64_t(0);  // (epc + slack) pages would wrap
    EXPECT_EQ(refusal(s), Err::InvalidConfig);
    s = Scenario{};
    s.migrateEvery = s.requests + 1;
    EXPECT_EQ(refusal(s), Err::InvalidConfig);
    s.migrateEvery = s.requests;
    EXPECT_EQ(refusal(s), Err::Ok);
}

TEST(Scenario, RunRefusesAnInvalidScenarioBeforeBuildingAnything)
{
    Scenario s;
    s.tenants = 0;
    const ScenarioResult r = s.run();
    EXPECT_EQ(r.status.code(), Err::InvalidConfig);
    EXPECT_FALSE(r.error.empty());
    EXPECT_EQ(r.simCycles, 0u);
}

TEST(Scenario, ChaosPlanGainsTheSitesTheScenarioEnables)
{
    Scenario s;
    EXPECT_EQ(s.faultPlan(), "");
    s.chaos = true;
    const std::string base = s.faultPlan();
    EXPECT_NE(base.find("ewb-corrupt@n=3"), std::string::npos);
    EXPECT_EQ(base.find("migrate-export-fail"), std::string::npos);
    s.migrateEvery = 6;
    s.supervise = true;
    EXPECT_NE(s.faultPlan().find("migrate-import-fail@n=2"),
              std::string::npos);
    EXPECT_NE(s.faultPlan().find("gateway-crash@n=2"), std::string::npos);
    // An explicit plan replaces the chaos default.
    s.faults = "aex-storm@every=7";
    EXPECT_EQ(s.faultPlan(), "aex-storm@every=7");
}

TEST(Scenario, SmallRunVerifiesEveryResponse)
{
    Scenario s;
    s.tenants = 3;
    s.requests = 24;
    const ScenarioResult r = s.run();
    ASSERT_TRUE(r.status.isOk()) << r.error;
    EXPECT_EQ(r.submitted, 24u);
    EXPECT_EQ(r.verified, 24u);
    EXPECT_EQ(r.failures, 0u);
    EXPECT_EQ(r.silentEmpties, 0u);
    EXPECT_EQ(r.latency.count(), 24u);
}

TEST(Scenario, ChromeTraceTimestampsUseTheSimClockFrequency)
{
    Scenario s;
    s.tenants = 2;
    s.requests = 8;
    s.chromeTrace = testing::TempDir() + "/nesgx_scenario_trace.json";
    const ScenarioResult r = s.run();
    ASSERT_TRUE(r.status.isOk()) << r.error;

    std::ifstream in(s.chromeTrace);
    ASSERT_TRUE(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    const std::size_t at = text.rfind("\"ts\":");
    ASSERT_NE(at, std::string::npos);
    const double lastTs = std::stod(text.substr(at + 5));
    // The run ends on its last batch: the final event sits at the final
    // clock, in microseconds of the 3.6 GHz simulated clock.
    EXPECT_NEAR(lastTs, double(r.simCycles) / 3600.0, 1e-6 * lastTs);
    std::remove(s.chromeTrace.c_str());
}

}  // namespace
}  // namespace nesgx::serve
