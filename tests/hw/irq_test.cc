#include "src/hw/irq.h"

#include <gtest/gtest.h>

namespace nova::hw {
namespace {

TEST(IrqChip, UnroutedInterruptDropped) {
  sim::Tracer tracer;
  IrqChip chip(tracer);
  chip.Assert(5);
  EXPECT_FALSE(chip.HasPending(0));
  EXPECT_EQ(chip.asserted(5), 1u);
}

TEST(IrqChip, MaskedInterruptLatchesUntilUnmask) {
  sim::Tracer tracer;
  IrqChip chip(tracer);
  chip.Configure(3, 0, 35);  // Routes start masked.
  chip.Assert(3);
  EXPECT_FALSE(chip.HasPending(0));
  chip.Unmask(3);
  EXPECT_TRUE(chip.HasPending(0));
  EXPECT_EQ(chip.PendingVector(0), 35);
}

TEST(IrqChip, UnmaskedDeliversImmediately) {
  sim::Tracer tracer;
  IrqChip chip(tracer);
  chip.Configure(3, 1, 35);
  chip.Unmask(3);
  chip.Assert(3);
  EXPECT_FALSE(chip.HasPending(0));  // Routed to CPU 1, not 0.
  EXPECT_TRUE(chip.HasPending(1));
}

TEST(IrqChip, AcknowledgeConsumes) {
  sim::Tracer tracer;
  IrqChip chip(tracer);
  chip.Configure(3, 0, 35);
  chip.Unmask(3);
  chip.Assert(3);
  chip.Acknowledge(0, 35);
  EXPECT_FALSE(chip.HasPending(0));
}

TEST(IrqChip, HighestVectorWins) {
  sim::Tracer tracer;
  IrqChip chip(tracer);
  chip.Configure(1, 0, 33);
  chip.Configure(9, 0, 41);
  chip.Unmask(1);
  chip.Unmask(9);
  chip.Assert(1);
  chip.Assert(9);
  EXPECT_EQ(chip.PendingVector(0), 41);
  chip.Acknowledge(0, 41);
  EXPECT_EQ(chip.PendingVector(0), 33);
}

TEST(IrqChip, PendingVectorsSnapshot) {
  sim::Tracer tracer;
  IrqChip chip(tracer);
  chip.Configure(1, 0, 33);
  chip.Configure(2, 0, 34);
  chip.Unmask(1);
  chip.Unmask(2);
  chip.Assert(1);
  chip.Assert(2);
  const auto vectors = chip.PendingVectors(0);
  ASSERT_EQ(vectors.size(), 2u);
  EXPECT_EQ(vectors[0], 34);  // Highest first.
  EXPECT_EQ(vectors[1], 33);
  // Snapshot does not consume.
  EXPECT_TRUE(chip.HasPending(0));
}

TEST(IrqChip, RemaskWhilePendingKeepsPendingBit) {
  sim::Tracer tracer;
  IrqChip chip(tracer);
  chip.Configure(4, 0, 36);
  chip.Unmask(4);
  chip.Assert(4);
  chip.Mask(4);
  // Already-delivered interrupt stays pending at the CPU.
  EXPECT_TRUE(chip.HasPending(0));
  // New edges latch while masked.
  chip.Acknowledge(0, 36);
  chip.Assert(4);
  EXPECT_FALSE(chip.HasPending(0));
  chip.Unmask(4);
  EXPECT_TRUE(chip.HasPending(0));
}

TEST(IrqChip, OutOfRangeIgnored) {
  sim::Tracer tracer;
  IrqChip chip(tracer);
  chip.Configure(kNumGsis + 1, 0, 40);  // No crash.
  chip.Assert(kNumGsis + 1);
  chip.Unmask(kNumGsis + 1);
  EXPECT_FALSE(chip.HasPending(0));
  EXPECT_FALSE(chip.PendingVector(kMaxCpus + 1).has_value());
}

}  // namespace
}  // namespace nova::hw
