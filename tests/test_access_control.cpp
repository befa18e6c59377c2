/**
 * Access-validation tests: the Fig.-6 flow and the §VII-A security
 * invariants 1-4, including hostile page tables built by the malicious
 * OS model. These are the paper's central isolation claims:
 *
 *   - inner enclave reads/writes its outer enclave's memory
 *   - outer enclave cannot touch inner enclave memory
 *   - peer inner enclaves cannot touch each other
 *   - non-enclave code can never reach the PRM
 *   - enclave code cannot execute from untrusted pages
 */
#include <gtest/gtest.h>

#include "harness.h"

namespace nesgx::test {
namespace {

/** Fixture with a loaded nested pair and helper enclave addresses. */
class AccessControl : public ::testing::Test {
  protected:
    void SetUp() override
    {
        world_ = std::make_unique<World>();
        pair_ = loadNestedPair(*world_, tinySpec("ac-outer"),
                               tinySpec("ac-inner"));
        outerHeapVa_ = pair_.outer->heap().alloc(64);
        innerHeapVa_ = pair_.inner->heap().alloc(64);
        ASSERT_NE(outerHeapVa_, 0u);
        ASSERT_NE(innerHeapVa_, 0u);
    }

    /** Puts core 0 inside the given enclave (depth 1). */
    void enter(sdk::LoadedEnclave* enclave)
    {
        auto tcs = firstTcs(enclave);
        ASSERT_TRUE(world_->machine.eenter(0, tcs).isOk());
    }

    /** outer -> inner on core 0. */
    void enterNested()
    {
        enter(pair_.outer);
        auto tcs = firstTcs(pair_.inner);
        ASSERT_TRUE(world_->machine.neenter(0, tcs).isOk());
    }

    hw::Paddr firstTcs(sdk::LoadedEnclave* enclave)
    {
        const auto* rec = world_->kernel.enclaveRecord(enclave->secsPage());
        for (const auto& [va, pa] : rec->pages) {
            const auto& entry = world_->machine.epcm().entry(
                world_->machine.mem().epcPageIndex(pa));
            if (entry.type == sgx::PageType::Tcs) return pa;
        }
        return 0;
    }

    Status tryRead(hw::Vaddr va)
    {
        std::uint8_t buf[8];
        return world_->machine.read(0, va, buf, 8);
    }

    Status tryWrite(hw::Vaddr va)
    {
        std::uint8_t buf[8] = {1, 2, 3, 4, 5, 6, 7, 8};
        return world_->machine.write(0, va, buf, 8);
    }

    std::unique_ptr<World> world_;
    NestedPair pair_;
    hw::Vaddr outerHeapVa_ = 0;
    hw::Vaddr innerHeapVa_ = 0;
};

TEST_F(AccessControl, EnclaveAccessesOwnMemory)
{
    enter(pair_.outer);
    EXPECT_TRUE(tryWrite(outerHeapVa_).isOk());
    EXPECT_TRUE(tryRead(outerHeapVa_).isOk());
}

TEST_F(AccessControl, InnerAccessesOuterMemory)
{
    // The asymmetric permission at the heart of the design (§IV-A).
    enterNested();
    EXPECT_TRUE(tryWrite(outerHeapVa_).isOk());
    EXPECT_TRUE(tryRead(outerHeapVa_).isOk());
    EXPECT_TRUE(tryRead(innerHeapVa_).isOk());
}

TEST_F(AccessControl, OuterCannotAccessInnerMemory)
{
    enter(pair_.outer);
    EXPECT_EQ(tryRead(innerHeapVa_).code(), Err::PageFault);
    EXPECT_EQ(tryWrite(innerHeapVa_).code(), Err::PageFault);
}

TEST_F(AccessControl, UntrustedCannotAccessEitherEnclave)
{
    // Core 0 stays in non-enclave mode: both ELRANGEs are EPC-backed.
    EXPECT_EQ(tryRead(outerHeapVa_).code(), Err::PageFault);
    EXPECT_EQ(tryRead(innerHeapVa_).code(), Err::PageFault);
}

TEST_F(AccessControl, PeerInnersAreIsolated)
{
    // Add a second inner to the same outer; it must not read the first.
    auto i2Spec = tinySpec("ac-inner2");
    i2Spec.expectedOuter = expectEnclave(pair_.outerImage);
    auto i2Image = sdk::buildImage(i2Spec, authorKey());
    // Outer was built allowing only inner-1; rebuild world with both.
    World world2;
    auto outerSpec = tinySpec("ac-outer2");
    outerSpec.allowedInners.push_back(expectSigner(authorKey()));
    auto i1Spec = tinySpec("ac2-inner1");
    auto i2Spec2 = tinySpec("ac2-inner2");
    i1Spec.expectedOuter = expectSigner(authorKey());
    i2Spec2.expectedOuter = expectSigner(authorKey());

    auto outer = world2.urts->load(sdk::buildImage(outerSpec, authorKey()))
                     .orThrow("outer");
    auto i1 = world2.urts->load(sdk::buildImage(i1Spec, authorKey()))
                  .orThrow("i1");
    auto i2 = world2.urts->load(sdk::buildImage(i2Spec2, authorKey()))
                  .orThrow("i2");
    ASSERT_TRUE(world2.urts->associate(i1, outer).isOk());
    ASSERT_TRUE(world2.urts->associate(i2, outer).isOk());

    hw::Vaddr i1Heap = i1->heap().alloc(32);
    // Enter inner-2 (via outer) and try to read inner-1's heap.
    const auto* rec = world2.kernel.enclaveRecord(outer->secsPage());
    hw::Paddr outerTcs = 0;
    for (const auto& [va, pa] : rec->pages) {
        const auto& e = world2.machine.epcm().entry(
            world2.machine.mem().epcPageIndex(pa));
        if (e.type == sgx::PageType::Tcs) {
            outerTcs = pa;
            break;
        }
    }
    ASSERT_TRUE(world2.machine.eenter(0, outerTcs).isOk());
    const auto* recI2 = world2.kernel.enclaveRecord(i2->secsPage());
    hw::Paddr i2Tcs = 0;
    for (const auto& [va, pa] : recI2->pages) {
        const auto& e = world2.machine.epcm().entry(
            world2.machine.mem().epcPageIndex(pa));
        if (e.type == sgx::PageType::Tcs) {
            i2Tcs = pa;
            break;
        }
    }
    ASSERT_TRUE(world2.machine.neenter(0, i2Tcs).isOk());
    std::uint8_t buf[8];
    EXPECT_EQ(world2.machine.read(0, i1Heap, buf, 8).code(), Err::PageFault);
}

TEST_F(AccessControl, EnclaveReadsUntrustedMemory)
{
    hw::Vaddr untrusted = world_->kernel.mapUntrusted(world_->pid, 1);
    enter(pair_.outer);
    EXPECT_TRUE(tryWrite(untrusted).isOk());
    EXPECT_TRUE(tryRead(untrusted).isOk());
}

TEST_F(AccessControl, EnclaveCannotExecuteUntrustedMemory)
{
    // Fig. 6 bottom: translations to unsecure pages get X disabled.
    hw::Vaddr untrusted = world_->kernel.mapUntrusted(world_->pid, 1);
    enter(pair_.outer);
    EXPECT_EQ(world_->machine.fetch(0, untrusted).code(), Err::PageFault);
}

TEST_F(AccessControl, EnclaveExecutesOwnCodePages)
{
    enter(pair_.outer);
    // Code region starts after the TCS pages.
    hw::Vaddr codeVa =
        pair_.outer->base() + pair_.outer->image().spec.tcsCount *
                                  hw::kPageSize;
    EXPECT_TRUE(world_->machine.fetch(0, codeVa).isOk());
}

TEST_F(AccessControl, WritesToCodePagesFault)
{
    enter(pair_.outer);
    hw::Vaddr codeVa =
        pair_.outer->base() + pair_.outer->image().spec.tcsCount *
                                  hw::kPageSize;
    EXPECT_EQ(tryWrite(codeVa).code(), Err::PageFault);
}

// --- invariant 1: non-enclave TLB never holds PRM translations -------------

TEST_F(AccessControl, Invariant1NonEnclaveTlbHasNoPrmEntries)
{
    hw::Vaddr untrusted = world_->kernel.mapUntrusted(world_->pid, 4);
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(tryRead(untrusted + i * hw::kPageSize).isOk());
    }
    // Try (and fail) to touch enclave memory too.
    EXPECT_FALSE(tryRead(outerHeapVa_).isOk());
    for (const auto& [vpn, entry] : world_->machine.core(0).tlb().entries()) {
        EXPECT_FALSE(world_->machine.mem().inPrm(entry.paddr));
    }
}

// --- invariant 3/4: EPCM vaddr binding defeats OS remapping ----------------

TEST_F(AccessControl, HostileRemapWithinEnclaveFaults)
{
    // The OS remaps one enclave VA to a *different* enclave page's frame:
    // the EPCM-recorded vaddr no longer matches, so validation fails.
    const auto* rec = world_->kernel.enclaveRecord(pair_.outer->secsPage());
    auto it = rec->pages.find(hw::pageBase(outerHeapVa_));
    ASSERT_NE(it, rec->pages.end());
    hw::Paddr heapFrame = it->second;

    hw::Vaddr otherVa = hw::pageBase(outerHeapVa_) + hw::kPageSize;
    world_->kernel.hostileRemap(world_->pid, otherVa, heapFrame, true, false);

    enter(pair_.outer);
    EXPECT_EQ(tryRead(otherVa).code(), Err::PageFault);
    // The original mapping still validates.
    EXPECT_TRUE(tryRead(outerHeapVa_).isOk());
}

TEST_F(AccessControl, HostileRemapUntrustedToEpcFaults)
{
    // The OS points an untrusted VA at an EPC frame and reads from
    // non-enclave mode: invariant 1 blocks it.
    const auto* rec = world_->kernel.enclaveRecord(pair_.inner->secsPage());
    hw::Paddr innerFrame = rec->pages.begin()->second;
    hw::Vaddr trap = world_->kernel.mapUntrusted(world_->pid, 1);
    world_->kernel.hostileRemap(world_->pid, trap, innerFrame, true, false);
    EXPECT_EQ(tryRead(trap).code(), Err::PageFault);
}

TEST_F(AccessControl, HostileRemapOuterVaToInnerFrameFaults)
{
    // The OS maps an *outer-ELRANGE* VA at an inner enclave frame, hoping
    // the outer enclave reads the inner page: EPCM owner check rejects.
    const auto* recInner =
        world_->kernel.enclaveRecord(pair_.inner->secsPage());
    auto it = recInner->pages.find(hw::pageBase(innerHeapVa_));
    ASSERT_NE(it, recInner->pages.end());
    hw::Paddr innerFrame = it->second;

    hw::Vaddr victimVa = hw::pageBase(outerHeapVa_);
    world_->kernel.hostileRemap(world_->pid, victimVa, innerFrame, true,
                                false);
    enter(pair_.outer);
    EXPECT_EQ(tryRead(victimVa).code(), Err::PageFault);
}

TEST_F(AccessControl, UnmappedEnclavePageFaults)
{
    world_->kernel.hostileUnmap(world_->pid, hw::pageBase(outerHeapVa_));
    enter(pair_.outer);
    EXPECT_EQ(tryRead(outerHeapVa_).code(), Err::PageFault);
}

// --- TLB behaviour -----------------------------------------------------------

TEST_F(AccessControl, TransitionsInvalidateOrIsolate)
{
    // Default config: tagged TLB. Entries *survive* the exit, but the
    // enclave-validated translation is unreachable from untrusted mode.
    enter(pair_.outer);
    ASSERT_TRUE(tryRead(outerHeapVa_).isOk());
    EXPECT_GT(world_->machine.core(0).tlb().size(), 0u);
    ASSERT_TRUE(world_->machine.eexit(0).isOk());
    EXPECT_GT(world_->machine.core(0).tlb().size(), 0u);
    EXPECT_EQ(world_->machine.core(0).tlb().lookup(outerHeapVa_, 0), nullptr);
    EXPECT_GT(world_->machine.stats().flushesAvoided, 0u);
}

TEST_F(AccessControl, FlushModeTransitionsFlushTlb)
{
    // Paper-faithful configuration: every transition flushes the core.
    auto config = World::smallConfig();
    config.taggedTlb = false;
    World world(config);
    auto pair = loadNestedPair(world, tinySpec("acf-outer"),
                               tinySpec("acf-inner"));
    hw::Vaddr heapVa = pair.outer->heap().alloc(64);
    hw::Paddr tcs = 0;
    const auto* rec = world.kernel.enclaveRecord(pair.outer->secsPage());
    for (const auto& [va, pa] : rec->pages) {
        if (world.machine.epcm()
                .entry(world.machine.mem().epcPageIndex(pa))
                .type == sgx::PageType::Tcs) {
            tcs = pa;
            break;
        }
    }
    ASSERT_TRUE(world.machine.eenter(0, tcs).isOk());
    std::uint8_t buf[8];
    ASSERT_TRUE(world.machine.read(0, heapVa, buf, 8).isOk());
    EXPECT_GT(world.machine.core(0).tlb().size(), 0u);
    ASSERT_TRUE(world.machine.eexit(0).isOk());
    EXPECT_EQ(world.machine.core(0).tlb().size(), 0u);
    EXPECT_EQ(world.machine.stats().flushesAvoided, 0u);
    EXPECT_GT(world.machine.stats().tlbFlushes, 0u);
}

TEST_F(AccessControl, TlbHitSkipsRevalidation)
{
    enter(pair_.outer);
    ASSERT_TRUE(tryRead(outerHeapVa_).isOk());
    auto missesBefore = world_->machine.stats().tlbMisses;
    ASSERT_TRUE(tryRead(outerHeapVa_).isOk());
    EXPECT_EQ(world_->machine.stats().tlbMisses, missesBefore);
    EXPECT_GT(world_->machine.stats().tlbHits, 0u);
}

TEST_F(AccessControl, NestedAccessWalksOuterChain)
{
    enterNested();
    auto nestedBefore = world_->machine.stats().nestedChecks;
    ASSERT_TRUE(tryRead(outerHeapVa_).isOk());
    EXPECT_GT(world_->machine.stats().nestedChecks, nestedBefore);
}

// --- parameterized sweep over the validation decision table ----------------

enum class Mode { Untrusted, Outer, InnerNested };
enum class Target { OuterHeap, InnerHeap, UntrustedPage };

struct SweepCase {
    Mode mode;
    Target target;
    hw::Access access;
    bool expectOk;
    // gtest names each instance after the raw bytes of its parameter, so
    // the tail padding is spelled out and zeroed to keep the names stable.
    unsigned char pad[3]{};
};
static_assert(sizeof(SweepCase) == 16, "SweepCase must have no implicit padding");

class AccessSweep : public AccessControl,
                    public ::testing::WithParamInterface<SweepCase> {
};

TEST_P(AccessSweep, DecisionTable)
{
    const SweepCase& c = GetParam();
    hw::Vaddr untrusted = world_->kernel.mapUntrusted(world_->pid, 1);

    switch (c.mode) {
      case Mode::Untrusted: break;
      case Mode::Outer: enter(pair_.outer); break;
      case Mode::InnerNested: enterNested(); break;
    }

    hw::Vaddr va = 0;
    switch (c.target) {
      case Target::OuterHeap: va = outerHeapVa_; break;
      case Target::InnerHeap: va = innerHeapVa_; break;
      case Target::UntrustedPage: va = untrusted; break;
    }

    auto result = world_->machine.translate(0, va, c.access);
    EXPECT_EQ(result.isOk(), c.expectOk)
        << "mode=" << int(c.mode) << " target=" << int(c.target)
        << " access=" << int(c.access);
}

INSTANTIATE_TEST_SUITE_P(
    Fig6, AccessSweep,
    ::testing::Values(
        // Untrusted mode: EPC unreachable, plain pages fine.
        SweepCase{Mode::Untrusted, Target::OuterHeap, hw::Access::Read, false},
        SweepCase{Mode::Untrusted, Target::InnerHeap, hw::Access::Read, false},
        SweepCase{Mode::Untrusted, Target::OuterHeap, hw::Access::Write, false},
        SweepCase{Mode::Untrusted, Target::UntrustedPage, hw::Access::Read, true},
        SweepCase{Mode::Untrusted, Target::UntrustedPage, hw::Access::Write, true},
        SweepCase{Mode::Untrusted, Target::UntrustedPage, hw::Access::Execute, true},
        // Outer enclave: own heap RW, inner unreachable, untrusted NX.
        SweepCase{Mode::Outer, Target::OuterHeap, hw::Access::Read, true},
        SweepCase{Mode::Outer, Target::OuterHeap, hw::Access::Write, true},
        SweepCase{Mode::Outer, Target::OuterHeap, hw::Access::Execute, false},
        SweepCase{Mode::Outer, Target::InnerHeap, hw::Access::Read, false},
        SweepCase{Mode::Outer, Target::InnerHeap, hw::Access::Write, false},
        SweepCase{Mode::Outer, Target::UntrustedPage, hw::Access::Read, true},
        SweepCase{Mode::Outer, Target::UntrustedPage, hw::Access::Execute, false},
        // Inner enclave (nested): everything below it readable.
        SweepCase{Mode::InnerNested, Target::OuterHeap, hw::Access::Read, true},
        SweepCase{Mode::InnerNested, Target::OuterHeap, hw::Access::Write, true},
        SweepCase{Mode::InnerNested, Target::InnerHeap, hw::Access::Read, true},
        SweepCase{Mode::InnerNested, Target::InnerHeap, hw::Access::Write, true},
        SweepCase{Mode::InnerNested, Target::UntrustedPage, hw::Access::Read, true},
        SweepCase{Mode::InnerNested, Target::UntrustedPage, hw::Access::Execute, false}));

}  // namespace
}  // namespace nesgx::test
