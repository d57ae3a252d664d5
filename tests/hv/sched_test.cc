// Scheduler semantics: priorities, round robin, blocking, semaphores,
// GSI-to-semaphore interrupt delivery.
#include <gtest/gtest.h>

#include "src/hv/scheduler.h"
#include "tests/hv/test_util.h"

namespace nova::hv {
namespace {

TEST(RunQueue, PriorityOrder) {
  auto pd = std::shared_ptr<Pd>();
  auto ec = std::make_shared<Ec>(Ec::Kind::kGlobal, pd, 0);
  Sc low(ec, 10, 1000), mid(ec, 100, 1000), high(ec, 200, 1000);
  RunQueue q;
  q.Enqueue(&low);
  q.Enqueue(&high);
  q.Enqueue(&mid);
  EXPECT_EQ(q.TopPriority(), 200);
  EXPECT_EQ(q.Dequeue(), &high);
  EXPECT_EQ(q.Dequeue(), &mid);
  EXPECT_EQ(q.Dequeue(), &low);
  EXPECT_EQ(q.Dequeue(), nullptr);
  EXPECT_TRUE(q.empty());
}

TEST(RunQueue, RoundRobinWithinPriority) {
  auto pd = std::shared_ptr<Pd>();
  auto ec = std::make_shared<Ec>(Ec::Kind::kGlobal, pd, 0);
  Sc a(ec, 50, 1000), b(ec, 50, 1000);
  RunQueue q;
  q.Enqueue(&a);
  q.Enqueue(&b);
  Sc* first = q.Dequeue();
  q.Enqueue(first);  // Tail.
  EXPECT_EQ(q.Dequeue(), &b);
}

TEST(RunQueue, EnqueueAtHeadPreserved) {
  auto pd = std::shared_ptr<Pd>();
  auto ec = std::make_shared<Ec>(Ec::Kind::kGlobal, pd, 0);
  Sc a(ec, 50, 1000), b(ec, 50, 1000);
  RunQueue q;
  q.Enqueue(&a);
  q.Enqueue(&b, /*at_head=*/true);
  EXPECT_EQ(q.Dequeue(), &b);
}

TEST(RunQueue, DoubleEnqueueIgnored) {
  auto pd = std::shared_ptr<Pd>();
  auto ec = std::make_shared<Ec>(Ec::Kind::kGlobal, pd, 0);
  Sc a(ec, 50, 1000);
  RunQueue q;
  q.Enqueue(&a);
  q.Enqueue(&a);
  EXPECT_EQ(q.Dequeue(), &a);
  EXPECT_TRUE(q.empty());
}

TEST(RunQueue, RemoveUnlinks) {
  auto pd = std::shared_ptr<Pd>();
  auto ec = std::make_shared<Ec>(Ec::Kind::kGlobal, pd, 0);
  Sc a(ec, 50, 1000), b(ec, 50, 1000);
  RunQueue q;
  q.Enqueue(&a);
  q.Enqueue(&b);
  (void)q.Remove(&a);
  EXPECT_EQ(q.Dequeue(), &b);
  EXPECT_TRUE(q.empty());
}

class SchedTest : public HvTest {};

TEST_F(SchedTest, HigherPriorityRunsFirst) {
  std::vector<int> order;
  Ec* lo_ec = nullptr;
  Ec* hi_ec = nullptr;
  ASSERT_EQ(hv_.CreateEcGlobal(root_, 100, kSelOwnPd, 0,
                               [&] {
                                 order.push_back(0);
                                 machine_.cpu(0).Charge(100);
                                 lo_ec->set_block_state(Ec::BlockState::kBlockedSm);
                               },
                               &lo_ec),
            Status::kSuccess);
  ASSERT_EQ(hv_.CreateEcGlobal(root_, 101, kSelOwnPd, 0,
                               [&] {
                                 order.push_back(1);
                                 machine_.cpu(0).Charge(100);
                                 hi_ec->set_block_state(Ec::BlockState::kBlockedSm);
                               },
                               &hi_ec),
            Status::kSuccess);
  ASSERT_EQ(hv_.CreateSc(root_, 102, 100, /*prio=*/10, 100000), Status::kSuccess);
  ASSERT_EQ(hv_.CreateSc(root_, 103, 101, /*prio=*/20, 100000), Status::kSuccess);

  hv_.StepOnce();
  hv_.StepOnce();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);  // High priority first.
  EXPECT_EQ(order[1], 0);
}

TEST_F(SchedTest, SemaphoreBlocksAndWakes) {
  constexpr CapSel kSm = 90;
  ASSERT_EQ(hv_.CreateSm(root_, kSm, 0), Status::kSuccess);
  int runs = 0;
  Ec* waiter = nullptr;
  ASSERT_EQ(hv_.CreateEcGlobal(root_, 100, kSelOwnPd, 0,
                               [&] {
                                 if (hv_.SmDown(waiter, kSm) ==
                                     Hypervisor::DownResult::kBlocked) {
                                   return;
                                 }
                                 ++runs;
                               },
                               &waiter),
            Status::kSuccess);
  ASSERT_EQ(hv_.CreateSc(root_, 101, 100, 10, 100000), Status::kSuccess);

  hv_.StepOnce();  // Blocks on the empty semaphore.
  EXPECT_EQ(runs, 0);
  EXPECT_EQ(waiter->block_state(), Ec::BlockState::kBlockedSm);
  EXPECT_FALSE(hv_.StepOnce());  // Nothing runnable, no events.

  ASSERT_EQ(hv_.SmUp(root_, kSm), Status::kSuccess);
  EXPECT_EQ(waiter->block_state(), Ec::BlockState::kRunnable);
  hv_.StepOnce();
  EXPECT_EQ(runs, 1);
}

TEST_F(SchedTest, SemaphoreCountingSemantics) {
  constexpr CapSel kSm = 90;
  ASSERT_EQ(hv_.CreateSm(root_, kSm, 2), Status::kSuccess);
  Ec* waiter = nullptr;
  ASSERT_EQ(hv_.CreateEcGlobal(root_, 100, kSelOwnPd, 0, [] {}, &waiter),
            Status::kSuccess);
  ASSERT_EQ(hv_.CreateSc(root_, 101, 100, 10, 100000), Status::kSuccess);
  EXPECT_EQ(hv_.SmDown(waiter, kSm), Hypervisor::DownResult::kAcquired);
  EXPECT_EQ(hv_.SmDown(waiter, kSm), Hypervisor::DownResult::kAcquired);
  EXPECT_EQ(hv_.SmDown(waiter, kSm), Hypervisor::DownResult::kBlocked);
}

TEST_F(SchedTest, SemaphoreWaitDeadlineTimesOutAndRerunsCleanly) {
  constexpr CapSel kSm = 90;
  ASSERT_EQ(hv_.CreateSm(root_, kSm, 0), Status::kSuccess);
  std::vector<Hypervisor::DownResult> log;
  Ec* waiter = nullptr;
  ASSERT_EQ(hv_.CreateEcGlobal(root_, 100, kSelOwnPd, 0,
                               [&] {
                                 const auto r =
                                     hv_.SmDown(waiter, kSm, /*unmask_gsi=*/false,
                                                sim::Milliseconds(1));
                                 if (r == Hypervisor::DownResult::kBlocked) {
                                   return;
                                 }
                                 log.push_back(r);
                                 if (r == Hypervisor::DownResult::kTimeout) {
                                   // Retry: the wait must re-enter cleanly.
                                   log.push_back(hv_.SmDown(waiter, kSm));
                                 }
                               },
                               &waiter),
            Status::kSuccess);
  ASSERT_EQ(hv_.CreateSc(root_, 101, 100, 10, 100000), Status::kSuccess);

  hv_.StepOnce();  // Blocks with a 1 ms deadline.
  EXPECT_EQ(waiter->block_state(), Ec::BlockState::kBlockedSm);
  hv_.StepOnce();  // Idle: skips to the deadline event, which expires the wait.
  EXPECT_EQ(waiter->block_state(), Ec::BlockState::kRunnable);

  // The timed-out waiter was removed from the semaphore queue, so this Up
  // finds nobody to wake and banks the count instead. If the waiter had
  // leaked in the queue, the Up would be consumed waking it and the retry
  // below would block rather than acquire.
  ASSERT_EQ(hv_.SmUp(root_, kSm), Status::kSuccess);

  hv_.StepOnce();  // Re-entry reports the timeout; the retry acquires.
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], Hypervisor::DownResult::kTimeout);
  EXPECT_EQ(log[1], Hypervisor::DownResult::kAcquired);
}

TEST_F(SchedTest, GsiDeliveryWakesDriverThread) {
  constexpr CapSel kSm = 90;
  constexpr std::uint32_t kGsi = 7;
  ASSERT_EQ(hv_.CreateSm(root_, kSm, 0), Status::kSuccess);
  ASSERT_EQ(hv_.AssignGsi(root_, kSm, kGsi, 0), Status::kSuccess);

  int handled = 0;
  Ec* driver = nullptr;
  ASSERT_EQ(hv_.CreateEcGlobal(root_, 100, kSelOwnPd, 0,
                               [&] {
                                 if (hv_.SmDown(driver, kSm, /*unmask_gsi=*/true) ==
                                     Hypervisor::DownResult::kBlocked) {
                                   return;
                                 }
                                 ++handled;
                               },
                               &driver),
            Status::kSuccess);
  ASSERT_EQ(hv_.CreateSc(root_, 101, 100, 10, 100000), Status::kSuccess);

  hv_.StepOnce();  // Driver blocks; GSI unmasked by the handshake.
  EXPECT_EQ(handled, 0);

  machine_.irq().Assert(kGsi);
  hv_.StepOnce();  // Kernel masks + acks + ups; driver runs.
  EXPECT_EQ(handled, 1);
  // The GSI was masked by the kernel on delivery: a second edge latches.
  machine_.irq().Assert(kGsi);
  hv_.StepOnce();  // Driver blocks again (and unmasks -> latched edge fires).
  hv_.StepOnce();
  EXPECT_EQ(handled, 2);
}

TEST_F(SchedTest, QuantumDepletionRotatesEqualPriority) {
  std::vector<int> order;
  Ec* a_ec = nullptr;
  Ec* b_ec = nullptr;
  ASSERT_EQ(hv_.CreateEcGlobal(root_, 100, kSelOwnPd, 0,
                               [&] {
                                 order.push_back(0);
                                 machine_.cpu(0).Charge(2000);  // Deplete.
                               },
                               &a_ec),
            Status::kSuccess);
  ASSERT_EQ(hv_.CreateEcGlobal(root_, 101, kSelOwnPd, 0,
                               [&] {
                                 order.push_back(1);
                                 machine_.cpu(0).Charge(2000);
                               },
                               &b_ec),
            Status::kSuccess);
  ASSERT_EQ(hv_.CreateSc(root_, 102, 100, 10, 1000), Status::kSuccess);
  ASSERT_EQ(hv_.CreateSc(root_, 103, 101, 10, 1000), Status::kSuccess);

  for (int i = 0; i < 4; ++i) {
    hv_.StepOnce();
  }
  // Depleted quantum sends each SC to the tail: strict alternation.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 0, 1}));
}

TEST_F(SchedTest, IdleSkipsToDeviceEvent) {
  bool fired = false;
  constexpr auto kTestOwner = sim::EventQueue::OwnerToken("test.events");
  machine_.events().RegisterOwner(kTestOwner, [&](const sim::EventTag&) {
    return [&] { fired = true; };
  });
  machine_.events().ScheduleAt(sim::Milliseconds(5),
                               sim::EventTag{kTestOwner, 1});
  EXPECT_TRUE(hv_.StepOnce());  // Nothing runnable: skips to the event.
  EXPECT_TRUE(fired);
  EXPECT_GE(machine_.cpu(0).NowPs(), sim::Milliseconds(5));
  EXPECT_FALSE(hv_.StepOnce());  // Now truly nothing left.
}

}  // namespace
}  // namespace nova::hv
