/**
 * Regression tests for the bench harness edge cases fixed alongside the
 * threading work: non-finite JSON metrics written as 0 with a warning
 * (never bare nan/inf tokens), and Histogram's sorted-append fast path
 * staying correct across add/query interleavings. (The strict flag
 * parser's tests live in test_support, next to support/flags.h.)
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"

namespace nesgx::bench {
namespace {

Flags
makeFlags(std::vector<std::string> args)
{
    static std::vector<std::string> storage;
    storage = std::move(args);
    storage.insert(storage.begin(), "test");
    static std::vector<char*> argv;
    argv.clear();
    for (auto& s : storage) argv.push_back(s.data());
    return Flags(int(argv.size()), argv.data());
}

TEST(BenchJsonReport, NonFiniteValuesWriteZeroNotNanTokens)
{
    const std::string path = testing::TempDir() + "/nesgx_json_nan.json";
    Flags flags = makeFlags({"--json", path});
    JsonReport json(flags);
    json.set("good", 1.5);
    json.set("bad_nan", std::nan(""));
    json.set("bad_inf", 1.0 / 0.0);
    json.write();

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    EXPECT_NE(text.find("\"good\": 1.5"), std::string::npos) << text;
    EXPECT_NE(text.find("\"bad_nan\": 0"), std::string::npos) << text;
    EXPECT_NE(text.find("\"bad_inf\": 0"), std::string::npos) << text;
    // No bare non-finite tokens in value position — invalid JSON (the
    // key names themselves contain "nan"/"inf", so match after ": ").
    EXPECT_EQ(text.find(": nan"), std::string::npos) << text;
    EXPECT_EQ(text.find(": -nan"), std::string::npos) << text;
    EXPECT_EQ(text.find(": inf"), std::string::npos) << text;
    EXPECT_EQ(text.find(": -inf"), std::string::npos) << text;
    std::remove(path.c_str());
}

TEST(BenchHistogram, EmptyAndSingleSample)
{
    Histogram h;
    EXPECT_TRUE(h.empty());
    EXPECT_EQ(h.p50(), 0u);
    EXPECT_EQ(h.p99(), 0u);
    h.add(42);
    EXPECT_FALSE(h.empty());
    EXPECT_EQ(h.p50(), 42u);
    EXPECT_EQ(h.p95(), 42u);
    EXPECT_EQ(h.p99(), 42u);
}

TEST(BenchHistogram, SortedAppendFastPathSurvivesQueryInterleaving)
{
    // The old `sorted_` logic marked the samples dirty forever after the
    // first percentile query, so a later in-order add of an equal value
    // could leave the vector unsorted while sorted_ claimed otherwise.
    Histogram h;
    h.add(10);
    h.add(20);
    EXPECT_EQ(h.p50(), 10u);  // query between adds
    h.add(20);                // equal to back(): still in order
    h.add(30);
    EXPECT_EQ(h.p50(), 20u);
    EXPECT_EQ(h.p99(), 30u);

    // Out-of-order add forces the resort path.
    h.add(5);
    EXPECT_EQ(h.p50(), 20u);
    EXPECT_EQ(h.p99(), 30u);
}

TEST(BenchHistogram, PercentilesMatchNearestRankOnShuffledInput)
{
    Histogram h;
    // 1..100 inserted in a scrambled order with interleaved queries.
    for (std::uint64_t i = 0; i < 100; ++i) {
        h.add((i * 37 + 13) % 100 + 1);
        if (i % 10 == 9) (void)h.p50();
    }
    EXPECT_EQ(h.p50(), 50u);
    EXPECT_EQ(h.p95(), 95u);
    EXPECT_EQ(h.p99(), 99u);
    EXPECT_EQ(h.percentile(0), 1u);
    EXPECT_EQ(h.percentile(100), 100u);
    EXPECT_EQ(h.min(), 1u);
    EXPECT_EQ(h.max(), 100u);
    EXPECT_EQ(h.count(), 100u);
}

}  // namespace
}  // namespace nesgx::bench
