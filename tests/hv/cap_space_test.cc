#include "src/hv/cap_space.h"

#include <gtest/gtest.h>

#include "src/hv/objects.h"

namespace nova::hv {
namespace {

ObjRef MakeSm(std::uint64_t v = 0) { return std::make_shared<Sm>(v); }

TEST(CapSpace, InsertAndLookup) {
  CapSpace caps;
  ASSERT_EQ(caps.Insert(5, Capability{MakeSm(), perm::kAll}), Status::kSuccess);
  const Capability* cap = caps.Lookup(5);
  ASSERT_NE(cap, nullptr);
  EXPECT_EQ(cap->object->type(), ObjType::kSm);
  EXPECT_EQ(cap->perms, perm::kAll);
}

TEST(CapSpace, EmptySlotLookupFails) {
  CapSpace caps;
  EXPECT_EQ(caps.Lookup(5), nullptr);
  EXPECT_EQ(caps.Lookup(kCapSpaceSlots + 10), nullptr);
}

TEST(CapSpace, OccupiedSlotRejectsInsert) {
  CapSpace caps;
  ASSERT_EQ(caps.Insert(5, Capability{MakeSm(), perm::kAll}), Status::kSuccess);
  EXPECT_EQ(caps.Insert(5, Capability{MakeSm(), perm::kAll}), Status::kBusy);
}

TEST(CapSpace, OutOfRangeInsertOverflows) {
  CapSpace caps;
  EXPECT_EQ(caps.Insert(kCapSpaceSlots, Capability{MakeSm(), 0}), Status::kOverflow);
}

TEST(CapSpace, TypedLookupChecksTypeAndPerms) {
  CapSpace caps;
  (void)caps.Insert(3, Capability{MakeSm(), perm::kSmUp});
  EXPECT_NE(caps.LookupAs<Sm>(3, ObjType::kSm, perm::kSmUp), nullptr);
  // Wrong type.
  EXPECT_EQ(caps.LookupAs<Pt>(3, ObjType::kPt, 0), nullptr);
  // Missing permission.
  EXPECT_EQ(caps.LookupAs<Sm>(3, ObjType::kSm, perm::kSmDown), nullptr);
}

// A downcast that finds no object of the expected type is empty, and
// dereferencing it aborts, naming that type, where a raw pointer would
// have followed null.
TEST(CapSpaceDeathTest, DereferencingAnEmptyHandleAbortsNamingTheType) {
  CapSpace caps;
  ASSERT_EQ(caps.Insert(3, Capability{MakeSm(), perm::kAll}), Status::kSuccess);
  const auto ec = RefAs<Ec>(caps.LookupRef(3), ObjType::kEc);
  EXPECT_FALSE(ec);
  EXPECT_DEATH((void)ec->kind(), "Checked<Ec>: dereferenced an empty handle");
  const auto pt = caps.LookupAs<Pt>(3, ObjType::kPt, 0);
  EXPECT_DEATH((void)(*pt).id(), "Checked<Pt>: dereferenced an empty handle");
  // A handle that holds its object dereferences as the object.
  EXPECT_EQ(caps.LookupAs<Sm>(3, ObjType::kSm, 0)->counter(), 0u);
}

TEST(CapSpace, DeadObjectLookupFails) {
  CapSpace caps;
  auto sm = MakeSm();
  (void)caps.Insert(4, Capability{sm, perm::kAll});
  sm->MarkDead();
  EXPECT_EQ(caps.Lookup(4), nullptr);
}

TEST(CapSpace, RemoveFreesSlot) {
  CapSpace caps;
  (void)caps.Insert(6, Capability{MakeSm(), perm::kAll});
  EXPECT_EQ(caps.Remove(6), Status::kSuccess);
  EXPECT_EQ(caps.Lookup(6), nullptr);
  EXPECT_EQ(caps.Insert(6, Capability{MakeSm(), perm::kAll}), Status::kSuccess);
}

TEST(CapSpace, FindFreeSkipsUsedSlots) {
  CapSpace caps;
  (void)caps.Insert(32, Capability{MakeSm(), perm::kAll});
  (void)caps.Insert(33, Capability{MakeSm(), perm::kAll});
  EXPECT_EQ(caps.FindFree(32), 34u);
}

TEST(CapSpace, UsedCountsOccupiedSlots) {
  CapSpace caps;
  EXPECT_EQ(caps.used(), 0u);
  (void)caps.Insert(1, Capability{MakeSm(), perm::kAll});
  (void)caps.Insert(2, Capability{MakeSm(), perm::kAll});
  EXPECT_EQ(caps.used(), 2u);
}

}  // namespace
}  // namespace nova::hv
