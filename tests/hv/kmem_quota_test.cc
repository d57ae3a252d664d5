// Per-PD kernel-memory quotas: donation at CreatePd, charge/credit on
// every object-creation path, exhaustion-safe failure (kNoMem with no
// partial object), donation return on destroy, deterministic alloc-fail
// fault injection, and ledger round trips on every create call.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/fault.h"
#include "tests/hv/test_util.h"

namespace nova::hv {
namespace {

class KmemQuotaTest : public HvTest {
 protected:
  // The own-PD capability chunk plus the page-table root frame: the
  // minimum any domain consumes just by existing.
  static constexpr std::uint64_t kPdBaseFrames = 2;
};

TEST_F(KmemQuotaTest, RootAccountIsBoundedByTheKernelPool) {
  ASSERT_TRUE(root_->kmem().bounded());
  // One frame of the reserve is the pool's base offset (frame 0 is never
  // handed out); everything else is donatable.
  EXPECT_EQ(root_->kmem().limit(), hv_.kernel_reserve() / hw::kPageSize - 1);
  // Boot itself charged the root's table frame and first cap chunk.
  EXPECT_GE(root_->kmem().used(), kPdBaseFrames);
  EXPECT_LT(root_->kmem().used(), root_->kmem().limit());
}

TEST_F(KmemQuotaTest, ZeroQuotaCreatePdFailsWithNoPartialObject) {
  const std::uint64_t frames_before = hv_.FramesInUse();
  const std::uint64_t root_used = root_->kmem().used();
  const std::uint64_t root_limit = root_->kmem().limit();

  const CapSel sel = Free(root_);
  Pd* out = nullptr;
  EXPECT_EQ(hv_.CreatePd(root_, sel, "starved", false, &out, /*quota_frames=*/0),
            Status::kNoMem);
  EXPECT_EQ(out, nullptr);
  // No half-visible domain: the destination slot is empty and every frame
  // (pool and accounting) went back.
  EXPECT_EQ(root_->caps().LookupRef(sel), nullptr);
  EXPECT_EQ(hv_.FramesInUse(), frames_before);
  EXPECT_EQ(root_->kmem().used(), root_used);
  EXPECT_EQ(root_->kmem().limit(), root_limit);
}

TEST_F(KmemQuotaTest, QuotaLargerThanDonorAvailableIsRejected) {
  const std::uint64_t root_limit = root_->kmem().limit();
  const CapSel sel = Free(root_);
  EXPECT_EQ(hv_.CreatePd(root_, sel, "greedy", false, nullptr,
                         root_->kmem().available() + 1),
            Status::kNoMem);
  EXPECT_EQ(root_->caps().LookupRef(sel), nullptr);
  EXPECT_EQ(root_->kmem().limit(), root_limit);
}

TEST_F(KmemQuotaTest, DonationRoundTripsThroughDestroy) {
  const std::uint64_t frames_before = hv_.FramesInUse();
  const std::uint64_t root_limit = root_->kmem().limit();
  constexpr std::uint64_t kQuota = 16;

  const CapSel sel = Free(root_);
  Pd* child = nullptr;
  ASSERT_EQ(hv_.CreatePd(root_, sel, "child", false, &child, kQuota),
            Status::kSuccess);
  ASSERT_NE(child, nullptr);
  // The quota was carved out of the root's limit, and the child has
  // already paid for its own existence out of it.
  EXPECT_EQ(root_->kmem().limit(), root_limit - kQuota);
  EXPECT_TRUE(child->kmem().bounded());
  EXPECT_EQ(child->kmem().limit(), kQuota);
  EXPECT_EQ(child->kmem().used(), kPdBaseFrames);

  ASSERT_EQ(hv_.DestroyPd(root_, sel), Status::kSuccess);
  // Destruction returns the full donation and every pool frame.
  EXPECT_EQ(root_->kmem().limit(), root_limit);
  EXPECT_EQ(hv_.FramesInUse(), frames_before);
}

TEST_F(KmemQuotaTest, ObjectCreationUnderExhaustedQuotaFailsCleanly) {
  // Exactly enough for the domain itself: every subsequent object charge
  // must fail with kNoMem and leave no partial object behind.
  const CapSel pd_sel = Free(root_);
  Pd* child = nullptr;
  ASSERT_EQ(hv_.CreatePd(root_, pd_sel, "pinched", false, &child, kPdBaseFrames),
            Status::kSuccess);
  ASSERT_EQ(child->kmem().available(), 0u);
  const std::uint64_t frames_before = hv_.FramesInUse();

  const CapSel ec_sel = Free(root_);
  Ec* ec = nullptr;
  EXPECT_EQ(hv_.CreateEcLocal(root_, ec_sel, pd_sel, 0, [](std::uint64_t) {}, &ec),
            Status::kNoMem);
  EXPECT_EQ(ec, nullptr);
  EXPECT_EQ(root_->caps().LookupRef(ec_sel), nullptr);

  // Sm charges the *caller's* own domain.
  const CapSel sm_sel = child->caps().FindFree(kSelFirstFree);
  EXPECT_EQ(hv_.CreateSm(child, sm_sel, 0), Status::kNoMem);
  EXPECT_EQ(child->caps().LookupRef(sm_sel), nullptr);

  EXPECT_EQ(child->kmem().used(), kPdBaseFrames);
  EXPECT_EQ(hv_.FramesInUse(), frames_before);
}

TEST_F(KmemQuotaTest, ScCreationExhaustingQuotaFailsWithoutAttaching) {
  // Room for the domain plus one EC, but not for the EC's scheduling
  // context.
  const CapSel pd_sel = Free(root_);
  Pd* child = nullptr;
  ASSERT_EQ(
      hv_.CreatePd(root_, pd_sel, "pinched-sc", false, &child, kPdBaseFrames + 1),
      Status::kSuccess);

  const CapSel ec_sel = Free(root_);
  Ec* ec = nullptr;
  ASSERT_EQ(hv_.CreateEcGlobal(root_, ec_sel, pd_sel, 0, nullptr, &ec),
            Status::kSuccess);
  ASSERT_EQ(child->kmem().available(), 0u);

  const CapSel sc_sel = Free(root_);
  EXPECT_EQ(hv_.CreateSc(root_, sc_sel, ec_sel, 1, 1'000'000), Status::kNoMem);
  EXPECT_EQ(root_->caps().LookupRef(sc_sel), nullptr);
  EXPECT_EQ(ec->sc(), nullptr);
  EXPECT_EQ(child->kmem().used(), kPdBaseFrames + 1);
}

TEST_F(KmemQuotaTest, ObjectChargesAreCreditedOnDestroy) {
  const std::uint64_t frames_before = hv_.FramesInUse();
  const std::uint64_t root_limit = root_->kmem().limit();

  const CapSel pd_sel = Free(root_);
  Pd* child = nullptr;
  ASSERT_EQ(hv_.CreatePd(root_, pd_sel, "full", false, &child, 8), Status::kSuccess);
  const CapSel ec_sel = Free(root_);
  ASSERT_EQ(hv_.CreateEcGlobal(root_, ec_sel, pd_sel, 0, nullptr), Status::kSuccess);
  const CapSel sm_sel = child->caps().FindFree(kSelFirstFree);
  ASSERT_EQ(hv_.CreateSm(child, sm_sel, 0), Status::kSuccess);
  EXPECT_EQ(child->kmem().used(), kPdBaseFrames + 2);

  ASSERT_EQ(hv_.DestroyPd(root_, pd_sel), Status::kSuccess);
  EXPECT_EQ(root_->kmem().limit(), root_limit);
  EXPECT_EQ(hv_.FramesInUse(), frames_before);
}

TEST_F(KmemQuotaTest, PassThroughChildChargesTheBoundedAncestor) {
  // child (bounded 8) -> grandchild (pass-through): the grandchild's
  // consumption lands on the child's account.
  const CapSel child_sel = Free(root_);
  Pd* child = nullptr;
  ASSERT_EQ(hv_.CreatePd(root_, child_sel, "parent", false, &child, 8),
            Status::kSuccess);
  const std::uint64_t child_used = child->kmem().used();

  const CapSel gc_sel = child->caps().FindFree(kSelFirstFree);
  Pd* grandchild = nullptr;
  ASSERT_EQ(hv_.CreatePd(child, gc_sel, "leaf", false, &grandchild),
            Status::kSuccess);
  EXPECT_FALSE(grandchild->kmem().bounded());
  EXPECT_EQ(grandchild->kmem().used(), kPdBaseFrames);
  EXPECT_EQ(child->kmem().used(), child_used + kPdBaseFrames);

  // Exhaust the ancestor through the pass-through child: object creation
  // in the grandchild fails once the *ancestor* runs dry.
  while (child->kmem().available() > 0) {
    const CapSel sm = child->caps().FindFree(kSelFirstFree);
    ASSERT_EQ(hv_.CreateSm(child, sm, 0), Status::kSuccess);
  }
  const CapSel gc_sm = grandchild->caps().FindFree(kSelFirstFree);
  EXPECT_EQ(hv_.CreateSm(grandchild, gc_sm, 0), Status::kNoMem);
}

TEST_F(KmemQuotaTest, AllocFailFaultPlanFailsCreationTransiently) {
  sim::FaultPlan plan(/*seed=*/5);
  plan.Schedule({.at = 0,
                 .kind = sim::FaultKind::kAllocFail,
                 .target = "victim",
                 .count = 1,
                 .rate = 1.0});
  plan.Arm(&machine_.events());
  hv_.SetFaultPlan(&plan);

  const std::uint64_t frames_before = hv_.FramesInUse();
  const CapSel sel = Free(root_);
  // First attempt hits the armed alloc-fail fault and fails cleanly...
  EXPECT_EQ(hv_.CreatePd(root_, sel, "victim", false), Status::kNoMem);
  EXPECT_EQ(root_->caps().LookupRef(sel), nullptr);
  EXPECT_EQ(hv_.FramesInUse(), frames_before);
  EXPECT_EQ(plan.injected(sim::FaultKind::kAllocFail), 1u);
  // ...the budget is spent, so the retry succeeds: the fault is transient.
  EXPECT_EQ(hv_.CreatePd(root_, sel, "victim", false), Status::kSuccess);
  // Other domains were never at risk: the fault matched by target name.
  const CapSel other = Free(root_);
  EXPECT_EQ(hv_.CreatePd(root_, other, "bystander", false), Status::kSuccess);
}

// --- Ledger round trips ------------------------------------------------------
//
// The ledger is the kernel frame pool plus the account of every live domain.
// A create whose capability insert fails must leave it unchanged, and a
// create followed by a destroy must return it to where it started. The
// object charges of the six object-creating calls credit themselves
// (KmemCharge); page-table frames, CreatePd's quota donation and
// capability-space chunks are still paired by hand.
class LedgerTest : public KmemQuotaTest {
 protected:
  // Name#oid -> (used, limit); "pool" -> (frames in use, 0).
  using Ledger = std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>;

  LedgerTest() {
    EXPECT_EQ(hv_.CreatePd(root_, kVmSel, "vm", /*is_vm=*/true), Status::kSuccess);
    EXPECT_EQ(hv_.CreateEcLocal(root_, kHandlerSel, kSelOwnPd, 0,
                                [](std::uint64_t) {}),
              Status::kSuccess);
    EXPECT_EQ(hv_.CreateEcGlobal(root_, kThreadSel, kSelOwnPd, 0, [] {}),
              Status::kSuccess);
    EXPECT_EQ(hv_.CreateSm(root_, kOccupiedSel, 0), Status::kSuccess);
  }

  Ledger Take() {
    Ledger ledger{{"pool", {hv_.FramesInUse(), 0}}};
    for (std::uint64_t oid = 0; oid < hv_.ObjectCount(); ++oid) {
      auto pd = RefAs<Pd>(hv_.ObjectByOid(oid), ObjType::kPd);
      if (pd != nullptr && !pd->dead()) {
        ledger[pd->name() + "#" + std::to_string(oid)] = {pd->kmem().used(),
                                                         pd->kmem().limit()};
      }
    }
    return ledger;
  }

  // Drops the root's capability at `sel`, the last reference to the object.
  void Destroy(CapSel sel) {
    ASSERT_EQ(hv_.Revoke(root_, Crd::Obj(sel, 0, perm::kAll), /*include_self=*/true),
              Status::kSuccess);
    EXPECT_EQ(root_->caps().LookupRef(sel), nullptr);
  }

  static constexpr CapSel kVmSel = 100;
  static constexpr CapSel kHandlerSel = 101;  // Local EC: a portal handler.
  static constexpr CapSel kThreadSel = 102;   // Global EC without an SC.
  static constexpr CapSel kOccupiedSel = 103;
  static constexpr CapSel kNewSel = 104;
};

TEST_F(LedgerTest, CreatePdInsertFailureLeavesLedgerUnchanged) {
  for (const std::uint64_t quota : {KmemQuota::kUnlimited, std::uint64_t{8}}) {
    const Ledger before = Take();
    EXPECT_EQ(hv_.CreatePd(root_, kOccupiedSel, "child", false, nullptr, quota),
              Status::kBusy);
    EXPECT_EQ(Take(), before) << "quota " << quota;
  }
}

TEST_F(LedgerTest, ObjectInsertFailureLeavesLedgerUnchanged) {
  const Ledger before = Take();
  EXPECT_EQ(hv_.CreateEcLocal(root_, kOccupiedSel, kSelOwnPd, 0,
                              [](std::uint64_t) {}),
            Status::kBusy);
  EXPECT_EQ(hv_.CreateEcGlobal(root_, kOccupiedSel, kSelOwnPd, 0, [] {}),
            Status::kBusy);
  EXPECT_EQ(hv_.CreateVcpu(root_, kOccupiedSel, kVmSel, 0, 200), Status::kBusy);
  EXPECT_EQ(hv_.CreateSc(root_, kOccupiedSel, kThreadSel, 1, 1'000'000),
            Status::kBusy);
  EXPECT_EQ(hv_.CreatePt(root_, kOccupiedSel, kHandlerSel, 0, 7), Status::kBusy);
  EXPECT_EQ(hv_.CreateSm(root_, kOccupiedSel, 0), Status::kBusy);
  EXPECT_EQ(Take(), before);
  // CreateSc left the EC without an SC, and the occupant is still there.
  const auto thread = RefAs<Ec>(root_->caps().LookupRef(kThreadSel), ObjType::kEc);
  ASSERT_NE(thread, nullptr);
  EXPECT_EQ(thread->sc(), nullptr);
  EXPECT_NE(RefAs<Sm>(root_->caps().LookupRef(kOccupiedSel), ObjType::kSm),
            nullptr);
}

TEST_F(LedgerTest, CreatePdThenDestroyRestoresLedger) {
  for (const std::uint64_t quota : {KmemQuota::kUnlimited, std::uint64_t{8}}) {
    const Ledger before = Take();
    ASSERT_EQ(hv_.CreatePd(root_, kNewSel, "child", false, nullptr, quota),
              Status::kSuccess);
    EXPECT_NE(Take(), before);
    ASSERT_EQ(hv_.DestroyPd(root_, kNewSel), Status::kSuccess);
    EXPECT_EQ(Take(), before) << "quota " << quota;
  }
}

TEST_F(LedgerTest, ObjectCreateThenDestroyRestoresLedger) {
  const std::vector<std::pair<const char*, std::function<Status()>>> creates = {
      {"ec-local",
       [&] {
         return hv_.CreateEcLocal(root_, kNewSel, kSelOwnPd, 0,
                                  [](std::uint64_t) {});
       }},
      {"ec-global",
       [&] { return hv_.CreateEcGlobal(root_, kNewSel, kSelOwnPd, 0, [] {}); }},
      {"vcpu", [&] { return hv_.CreateVcpu(root_, kNewSel, kVmSel, 0, 200); }},
      {"pt", [&] { return hv_.CreatePt(root_, kNewSel, kHandlerSel, 0, 7); }},
      {"sm", [&] { return hv_.CreateSm(root_, kNewSel, 0); }},
  };
  for (const auto& [what, create] : creates) {
    const Ledger before = Take();
    ASSERT_EQ(create(), Status::kSuccess) << what;
    EXPECT_NE(Take(), before) << what;
    Destroy(kNewSel);
    EXPECT_EQ(Take(), before) << what;
  }
}

TEST_F(LedgerTest, CreateScThenDestroyRestoresLedger) {
  // An SC sits in its core's ready queue from creation on; it leaves the
  // queue with its domain, so the round trip runs in a child domain.
  const Ledger before = Take();
  ASSERT_EQ(hv_.CreatePd(root_, kNewSel, "child", false), Status::kSuccess);
  const CapSel ec_sel = Free(root_);
  ASSERT_EQ(hv_.CreateEcGlobal(root_, ec_sel, kNewSel, 0, [] {}), Status::kSuccess);
  const std::uint64_t used = root_->kmem().used();
  const CapSel sc_sel = Free(root_);
  ASSERT_EQ(hv_.CreateSc(root_, sc_sel, ec_sel, 1, 1'000'000), Status::kSuccess);
  EXPECT_EQ(root_->kmem().used(), used + 1);
  ASSERT_EQ(hv_.DestroyPd(root_, kNewSel), Status::kSuccess);
  Destroy(sc_sel);
  Destroy(ec_sel);
  EXPECT_EQ(Take(), before);
}

}  // namespace
}  // namespace nova::hv
