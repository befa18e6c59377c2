/** Tests for the support substrate: bytes, rng, status, flags, and the
 *  did-you-mean helper. */
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "support/bytes.h"
#include "support/flags.h"
#include "support/rng.h"
#include "support/status.h"
#include "support/suggest.h"

namespace nesgx {
namespace {

TEST(Bytes, HexRoundTrip)
{
    Bytes data = {0x00, 0x01, 0xab, 0xff};
    EXPECT_EQ(toHex(data), "0001abff");
    EXPECT_EQ(fromHex("0001abff"), data);
    EXPECT_EQ(fromHex("0001ABFF"), data);
}

TEST(Bytes, HexRejectsGarbage)
{
    EXPECT_THROW(fromHex("abc"), std::invalid_argument);
    EXPECT_THROW(fromHex("zz"), std::invalid_argument);
}

TEST(Bytes, ConstantTimeEqual)
{
    Bytes a = {1, 2, 3};
    Bytes b = {1, 2, 3};
    Bytes c = {1, 2, 4};
    Bytes d = {1, 2};
    EXPECT_TRUE(constantTimeEqual(a, b));
    EXPECT_FALSE(constantTimeEqual(a, c));
    EXPECT_FALSE(constantTimeEqual(a, d));
}

TEST(Bytes, EndianHelpers)
{
    std::uint8_t buf[8];
    storeLe64(buf, 0x0102030405060708ull);
    EXPECT_EQ(buf[0], 0x08);
    EXPECT_EQ(loadLe64(buf), 0x0102030405060708ull);
    storeBe64(buf, 0x0102030405060708ull);
    EXPECT_EQ(buf[0], 0x01);
    EXPECT_EQ(loadBe64(buf), 0x0102030405060708ull);
    storeBe32(buf, 0xdeadbeef);
    EXPECT_EQ(loadBe32(buf), 0xdeadbeefu);
    storeLe32(buf, 0xdeadbeef);
    EXPECT_EQ(loadLe32(buf), 0xdeadbeefu);
}

TEST(Rng, Deterministic)
{
    Rng a(7), b(7);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.next(), b.next());
    }
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    bool anyDifferent = false;
    for (int i = 0; i < 10; ++i) {
        if (a.next() != b.next()) anyDifferent = true;
    }
    EXPECT_TRUE(anyDifferent);
}

TEST(Rng, BoundedValues)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.nextBelow(17), 17u);
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, GaussianMoments)
{
    Rng rng(11);
    double sum = 0, sq = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        double g = rng.nextGaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.05);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, FillCoversAllLengths)
{
    Rng rng(5);
    for (std::size_t len : {0u, 1u, 7u, 8u, 9u, 63u, 64u, 65u}) {
        Bytes b = rng.bytes(len);
        EXPECT_EQ(b.size(), len);
    }
}

TEST(Status, OkAndError)
{
    Status ok;
    EXPECT_TRUE(ok.isOk());
    EXPECT_TRUE(bool(ok));
    Status pf(Err::PageFault);
    EXPECT_FALSE(pf.isOk());
    EXPECT_STREQ(pf.name(), "PageFault");
    EXPECT_THROW(pf.orThrow("ctx"), NesgxError);
    EXPECT_NO_THROW(ok.orThrow("ctx"));
}

TEST(Status, ResultCarriesValueOrFault)
{
    Result<int> good(42);
    EXPECT_TRUE(good.isOk());
    EXPECT_EQ(good.value(), 42);
    Result<int> bad(Err::OutOfMemory);
    EXPECT_FALSE(bad.isOk());
    EXPECT_EQ(bad.code(), Err::OutOfMemory);
    EXPECT_THROW(bad.orThrow("ctx"), NesgxError);
}

TEST(Status, ErrNamesAreUnique)
{
    EXPECT_STREQ(errName(Err::Ok), "Ok");
    EXPECT_STREQ(errName(Err::AssociationRejected), "AssociationRejected");
    EXPECT_STREQ(errName(Err::TrackingIncomplete), "TrackingIncomplete");
    EXPECT_STREQ(errName(Err::InvalidConfig), "InvalidConfig");
}

TEST(Status, EveryErrHasADistinctRealName)
{
    // Exhaustive round trip: every enumerator must carry its own name —
    // a forgotten switch case would fall through to the placeholder and
    // collide here.
    std::set<std::string> seen;
    for (std::size_t i = 0; i < kErrCount; ++i) {
        const std::string name = errName(Err(i));
        EXPECT_NE(name, "") << "Err " << i;
        EXPECT_NE(name, "Unknown") << "Err " << i;
        EXPECT_TRUE(seen.insert(name).second)
            << "duplicate errName: " << name;
    }
    // Out-of-range values get the placeholder, not garbage.
    EXPECT_STREQ(errName(Err(kErrCount)), "Unknown");
}

Flags
makeFlags(std::vector<std::string> args,
          std::vector<std::string> switches = {})
{
    static std::vector<std::string> storage;
    storage = std::move(args);
    storage.insert(storage.begin(), "test");
    static std::vector<char*> argv;
    argv.clear();
    for (auto& s : storage) argv.push_back(s.data());
    return Flags(int(argv.size()), argv.data(), std::move(switches));
}

TEST(BenchFlags, ValidValuesParseAndFallbacksApply)
{
    Flags flags = makeFlags({"--threads", "4", "--rate", "2.5"});
    EXPECT_EQ(flags.u64("threads", 1), 4u);
    EXPECT_DOUBLE_EQ(flags.f64("rate", 1.0), 2.5);
    EXPECT_EQ(flags.u64("absent", 7), 7u);
    EXPECT_DOUBLE_EQ(flags.f64("absent", 0.25), 0.25);
    EXPECT_EQ(flags.str("absent", "x"), "x");
}

TEST(BenchFlagsDeathTest, TrailingGarbageExitsTwo)
{
    // "4x" used to parse as 4 via stoull's partial consume.
    EXPECT_EXIT(
        {
            Flags flags = makeFlags({"--threads", "4x"});
            flags.u64("threads", 1);
        },
        testing::ExitedWithCode(2), "expects a non-negative number");
}

TEST(BenchFlagsDeathTest, NegativeU64ExitsTwo)
{
    // "-1" used to wrap to 2^64-1 through stoull.
    EXPECT_EXIT(
        {
            Flags flags = makeFlags({"--threads", "-1"});
            flags.u64("threads", 1);
        },
        testing::ExitedWithCode(2), "expects a non-negative number");
}

TEST(BenchFlagsDeathTest, NonNumericExitsTwo)
{
    // "abc" used to abort with an uncaught std::invalid_argument.
    EXPECT_EXIT(
        {
            Flags flags = makeFlags({"--threads", "abc"});
            flags.u64("threads", 1);
        },
        testing::ExitedWithCode(2), "expects a non-negative number");
}

TEST(BenchFlagsDeathTest, NegativeF64ExitsTwo)
{
    EXPECT_EXIT(
        {
            Flags flags = makeFlags({"--rate", "-0.5"});
            flags.f64("rate", 1.0);
        },
        testing::ExitedWithCode(2), "expects a non-negative number");
}

TEST(BenchFlagsDeathTest, TrailingFlagWithoutValueExitsTwo)
{
    EXPECT_EXIT(makeFlags({"--threads"}), testing::ExitedWithCode(2),
                "expects a value");
}

TEST(Flags, SwitchesTakeNoValueAndDashHIsHelp)
{
    Flags flags =
        makeFlags({"--trace", "--seeds", "4", "-h"}, {"trace", "help"});
    EXPECT_TRUE(flags.has("trace"));
    EXPECT_TRUE(flags.has("help"));
    EXPECT_FALSE(flags.has("depth-ops"));
    EXPECT_EQ(flags.u64("seeds", 16), 4u);
    flags.finish();  // everything given was read
}

TEST(Flags, ToggleAcceptsOnlyZeroOrOne)
{
    Flags flags = makeFlags({"--attest", "0", "--switchless", "1"});
    EXPECT_FALSE(flags.toggle("attest", true));
    EXPECT_TRUE(flags.toggle("switchless", false));
    EXPECT_TRUE(flags.toggle("absent", true));
}

TEST(FlagsDeathTest, ToggleOtherValueExitsTwo)
{
    EXPECT_EXIT(
        {
            Flags flags = makeFlags({"--attest", "2"});
            flags.toggle("attest", true);
        },
        testing::ExitedWithCode(2), "expects 0 or 1");
}

TEST(FlagsDeathTest, UnreadFlagExitsTwoWithSuggestion)
{
    EXPECT_EXIT(
        {
            Flags flags = makeFlags({"--tenant", "3"});
            flags.u64("tenants", 8);
            flags.finish();
        },
        testing::ExitedWithCode(2),
        "unknown flag --tenant — did you mean '--tenants'");
}

TEST(FlagsDeathTest, StrayPositionalExitsTwo)
{
    EXPECT_EXIT(makeFlags({"--tenants", "3", "extra"}),
                testing::ExitedWithCode(2), "unexpected argument \"extra\"");
}

TEST(Suggest, ClosestNameWithinHalfTheTypoLength)
{
    EXPECT_EQ(editDistance("gatway-crash", "gateway-crash"), 1u);
    EXPECT_EQ(editDistance("", "abc"), 3u);
    EXPECT_EQ(closestName("tenant", {"requests", "tenants", "threads"}),
              "tenants");
    // Too far from every candidate: no suggestion beats a wrong one.
    EXPECT_EQ(closestName("zzzzzzzz", {"tenants", "threads"}), "");
}

}  // namespace
}  // namespace nesgx
