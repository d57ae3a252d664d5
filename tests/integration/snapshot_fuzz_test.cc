// Snapshot-mutation fuzz (DESIGN.md §13): seeded mutations of a compile
// scenario's midpoint snapshot, at two levels.
//   Wire: bit flips, truncations, spliced, swapped, repeated and dropped
//     section records of Encode() output. Decode either fails with a Status
//     or yields a snapshot whose Encode() is the mutated input, so no
//     snapshot has a second encoding.
//   Payload: bit flips, truncations and 8-byte overwrites of one section,
//     re-sealed with a valid checksum through Section(...).Bytes(...). A
//     fresh twin's LoadState must return, whatever its Status, without a
//     crash or a sanitizer report.
// The oracle stops at the restore: running a forged state that loaded is
// not held to anything yet. The ForgedSection tests pin five loader
// bounds. The same payload mutations, followed by a run, found four: each
// index loaded with kSuccess and crashed the run. The fifth is the CPU
// clock: one forged near 2^64 cycles loaded, and the run then stalled or
// wrapped the clock.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "bench/scenario.h"
#include "src/hw/ahci.h"
#include "src/hw/irq.h"
#include "src/root/platform.h"
#include "src/sim/rng.h"

namespace nova::bench {
namespace {

using Bytes = std::vector<std::uint8_t>;

constexpr sim::PicoSeconds kDeadline = sim::Seconds(120);
constexpr std::uint64_t kSeeds[] = {42, 7, 1234};

RunConfig ShortConfig(std::uint64_t seed) {
  RunConfig c;
  c.stack = StackKind::kNova;
  c.workload.processes = 2;
  c.workload.ws_pages = 64;
  c.workload.total_units = 400;
  c.workload.compute_cycles = 8000;
  c.workload.mem_bursts = 3;
  c.workload.switch_every = 10;
  c.workload.disk_every = 80;
  c.workload.recycle_every = 200;
  c.workload.seed = seed;
  return c;
}

// `scn` checkpointed with half its compile units retired.
sim::Snapshot MidpointSnapshot(CompileScenario& scn) {
  guest::CompileWorkload* w = &scn.workload();
  const std::uint64_t half = scn.config().workload.total_units / 2;
  scn.system().hv.RunUntilCondition(
      [w, half] { return w->units_done() >= half; }, kDeadline);
  EXPECT_FALSE(scn.done());
  sim::Snapshot snap;
  EXPECT_EQ(scn.SaveState(snap), Status::kSuccess);
  return snap;
}
sim::Snapshot MidpointSnapshot(const RunConfig& config) {
  CompileScenario scn(config);
  return MidpointSnapshot(scn);
}

Bytes SectionBytes(const sim::Snapshot& snap, const std::string& name) {
  sim::SnapReader r = snap.Open(name, snap.SectionVersion(name));
  const std::size_t len = r.remaining();
  const std::uint8_t* at = r.View(len);
  return {at, at + len};
}

// --- Wire level --------------------------------------------------------------

constexpr std::size_t kHeader = sizeof sim::Snapshot::kMagic + 4 + 4;
constexpr std::size_t kCountAt = kHeader - 4;

Bytes Cut(const Bytes& b, std::size_t from, std::size_t to) {
  return Bytes(b.data() + from, b.data() + to);
}
Bytes Join(std::initializer_list<Bytes> parts) {
  Bytes out;
  for (const Bytes& part : parts) {
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

// One section record of an encoded stream: bytes [at, end).
struct Record {
  std::size_t at = 0;
  std::size_t end = 0;
};

struct Wire {
  Bytes bytes;
  std::vector<Record> records;

  explicit Wire(Bytes b) : bytes(std::move(b)) {
    sim::SnapReader r(bytes.data() + kHeader, bytes.size() - kHeader);
    while (!r.AtEnd()) {
      const std::size_t at = bytes.size() - r.remaining();
      (void)r.Str();
      (void)r.U16();
      const std::uint64_t size = r.U64();
      (void)r.U64();
      (void)r.View(static_cast<std::size_t>(size));
      records.push_back({at, bytes.size() - r.remaining()});
    }
  }
  Bytes Before(const Record& rec) const { return Cut(bytes, 0, rec.at); }
  Bytes Of(const Record& rec) const { return Cut(bytes, rec.at, rec.end); }
  Bytes After(const Record& rec) const {
    return Cut(bytes, rec.end, bytes.size());
  }
};

// `b` with its section count moved by `delta`.
Bytes Recount(Bytes b, int delta) {
  std::uint32_t count = 0;
  std::memcpy(&count, b.data() + kCountAt, sizeof count);
  count += static_cast<std::uint32_t>(delta);
  std::memcpy(b.data() + kCountAt, &count, sizeof count);
  return b;
}

// One seeded mutation of `self`; `other` is another seed's stream, whose
// records have the same names.
Bytes MutateWire(const Wire& self, const Wire& other, sim::Rng& rng) {
  const std::size_t n = self.records.size();
  const std::size_t i = rng.Below(n);
  const Record& rec = self.records[i];
  switch (rng.Below(7)) {
    case 0: {  // Bit flips anywhere.
      Bytes out = self.bytes;
      for (std::uint64_t k = rng.Range(1, 3); k > 0; --k) {
        out[rng.Below(out.size())] ^=
            static_cast<std::uint8_t>(1u << rng.Below(8));
      }
      return out;
    }
    case 1: {  // A bit flip in the container header or a record's fields.
      Bytes out = self.bytes;
      const std::size_t at =
          rng.Chance(0.2) ? rng.Below(kHeader) : rec.at + rng.Below(40);
      out[std::min(at, out.size() - 1)] ^=
          static_cast<std::uint8_t>(1u << rng.Below(8));
      return out;
    }
    case 2: {  // Truncation, anywhere or near a record's start.
      const std::size_t len = rng.Chance(0.5) ? rng.Below(self.bytes.size())
                                              : rec.at + rng.Below(48);
      return Cut(self.bytes, 0, std::min(len, self.bytes.size()));
    }
    case 3:  // Splice: the same section from the other stream.
      return Join(
          {self.Before(rec), other.Of(other.records[i]), self.After(rec)});
    case 4: {  // Swap two records.
      const std::size_t j = rng.Below(n);
      if (i == j) {
        return self.bytes;
      }
      const Record& a = self.records[std::min(i, j)];
      const Record& b = self.records[std::max(i, j)];
      return Join({self.Before(a), self.Of(b), Cut(self.bytes, a.end, b.at),
                   self.Of(a), self.After(b)});
    }
    case 5:  // Repeat a record, counted or not.
      return Recount(Join({self.Before(rec), self.Of(rec), self.Of(rec),
                           self.After(rec)}),
                     rng.Chance(0.5) ? 1 : 0);
    default:  // Drop a record, counted or not.
      return Recount(Join({self.Before(rec), self.After(rec)}),
                     rng.Chance(0.5) ? -1 : 0);
  }
}

TEST(SnapshotFuzz, MutatedStreamsFailOrReencodeIdentically) {
  std::vector<Wire> wires;
  for (const std::uint64_t seed : kSeeds) {
    wires.emplace_back(MidpointSnapshot(ShortConfig(seed)).Encode());
  }
  int decoded = 0;
  int refused = 0;
  for (std::size_t s = 0; s < wires.size(); ++s) {
    const Wire& self = wires[s];
    const Wire& other = wires[(s + 1) % wires.size()];
    ASSERT_EQ(self.records.size(), other.records.size());
    sim::Rng rng(kSeeds[s]);
    for (int m = 0; m < 400; ++m) {
      const Bytes mutated = MutateWire(self, other, rng);
      sim::Snapshot snap;
      if (!Ok(snap.Decode(mutated))) {
        ++refused;
        EXPECT_TRUE(snap.SectionNames().empty());
        continue;
      }
      ++decoded;
      ASSERT_EQ(snap.Encode(), mutated)
          << "seed " << kSeeds[s] << " mutation " << m
          << " decoded to another encoding";
    }
  }
  // Both outcomes occur: splices and counted drops decode.
  EXPECT_GT(decoded, 0);
  EXPECT_GT(refused, 0);
}

// --- Payload level -----------------------------------------------------------

Bytes MutatePayload(Bytes bytes, sim::Rng& rng) {
  switch (rng.Below(3)) {
    case 0:  // Bit flips.
      if (!bytes.empty()) {
        for (std::uint64_t k = rng.Range(1, 3); k > 0; --k) {
          bytes[rng.Below(bytes.size())] ^=
              static_cast<std::uint8_t>(1u << rng.Below(8));
        }
      }
      break;
    case 1:  // Truncation.
      bytes.resize(bytes.empty() ? 0 : rng.Below(bytes.size()));
      break;
    default: {  // An 8-byte overwrite: small, near 2^64, 2^k or random.
      if (bytes.size() < 8) {
        bytes.assign(8, 0xff);
        break;
      }
      const std::uint64_t picks[] = {
          rng.Below(16), ~std::uint64_t{0} - rng.Below(4),
          std::uint64_t{1} << rng.Below(64), rng.Next()};
      const std::uint64_t v = picks[rng.Below(4)];
      std::memcpy(bytes.data() + rng.Below(bytes.size() - 7), &v, sizeof v);
      break;
    }
  }
  return bytes;
}

TEST(SnapshotFuzz, MutatedSectionsLoadOrFailWithAStatus) {
  for (const std::uint64_t seed : kSeeds) {
    const RunConfig config = ShortConfig(seed);
    sim::Snapshot snap = MidpointSnapshot(config);
    const std::vector<std::string> names = snap.SectionNames();
    sim::Rng rng(seed);
    int loaded = 0;
    for (int m = 0; m < 400; ++m) {
      const std::string& name = names[rng.Below(names.size())];
      const std::uint16_t version = snap.SectionVersion(name);
      const Bytes original = SectionBytes(snap, name);
      const Bytes mutated = MutatePayload(original, rng);
      snap.Section(name, version).Bytes(mutated.data(), mutated.size());
      {
        CompileScenario twin(config);
        loaded += Ok(twin.LoadState(snap)) ? 1 : 0;
      }
      snap.Section(name, version).Bytes(original.data(), original.size());
    }
    // A changed guest-memory byte or counter is a state a save could
    // write: some mutations load.
    EXPECT_GT(loaded, 0) << "seed " << seed;
  }
}

// --- Forged sections: the loader bounds ------------------------------------

template <class T>
T Get(const Bytes& b, std::size_t at) {
  T v = 0;
  std::memcpy(&v, b.data() + at, sizeof v);
  return v;
}
void Put32(Bytes& b, std::size_t at, std::uint32_t v) {
  std::memcpy(b.data() + at, &v, sizeof v);
}
void Put64(Bytes& b, std::size_t at, std::uint64_t v) {
  std::memcpy(b.data() + at, &v, sizeof v);
}

class ForgedSection : public ::testing::Test {
 protected:
  ForgedSection()
      : config_(ShortConfig(42)), original_(config_),
        snap_(MidpointSnapshot(original_)) {}

  // Loads the snapshot with section `name` replaced by `bytes` onto a
  // fresh twin.
  Status LoadForged(const std::string& name, const Bytes& bytes) {
    sim::Snapshot forged = snap_;
    forged.Section(name, snap_.SectionVersion(name))
        .Bytes(bytes.data(), bytes.size());
    CompileScenario twin(config_);
    return twin.LoadState(forged);
  }

  RunConfig config_;
  CompileScenario original_;
  sim::Snapshot snap_;
};

TEST_F(ForgedSection, HonestSnapshotLoads) {
  CompileScenario twin(config_);
  EXPECT_EQ(twin.LoadState(snap_), Status::kSuccess);
}

// hw.cpus: the CPU count (u32), then each CPU, its cycle clock first. A
// clock whose NowPs passes half the picosecond range fails; one at that
// bound loads.
TEST_F(ForgedSection, CpuClockNearWrapFails) {
  Bytes cpus = SectionBytes(snap_, "hw.cpus");
  hw::Machine& machine = original_.system().machine;
  ASSERT_EQ(Get<std::uint32_t>(cpus, 0), machine.num_cpus());
  ASSERT_EQ(Get<std::uint64_t>(cpus, 4), machine.cpu(0).cycles());
  Put64(cpus, 4, ~std::uint64_t{0} - 100'000'000);
  EXPECT_EQ(LoadForged("hw.cpus", cpus), Status::kBadParameter);

  const sim::Cycles bound = machine.cpu(0).model().frequency.PicosToCycles(
      ~sim::PicoSeconds{0} / 2);
  Put64(cpus, 4, bound);
  EXPECT_EQ(LoadForged("hw.cpus", cpus), Status::kSuccess);
  Put64(cpus, 4, bound + 1);
  EXPECT_EQ(LoadForged("hw.cpus", cpus), Status::kBadParameter);
}

// hw.irq: 64 routes of 7 bytes (enabled, masked, cpu u32, vector), 64
// latched flags, then 8 CPUs' 4-word pending bitmaps and 64 assert counts.
constexpr std::size_t kRouteBytes = 7;
constexpr std::size_t kPendingAt = hw::kNumGsis * kRouteBytes + hw::kNumGsis;

TEST_F(ForgedSection, IrqRouteToACpuBeyondTheChipFails) {
  Bytes irq = SectionBytes(snap_, "hw.irq");
  ASSERT_EQ(irq.size(), kPendingAt + hw::kMaxCpus * 32 + hw::kNumGsis * 8);
  const std::size_t route = root::kAhciGsi * kRouteBytes;
  ASSERT_EQ(irq[route], 1);  // Enabled, at vector 32 + GSI.
  ASSERT_EQ(irq[route + 6], 32 + root::kAhciGsi);
  Put32(irq, route + 2, hw::kMaxCpus);
  EXPECT_EQ(LoadForged("hw.irq", irq), Status::kBadParameter);
}

TEST_F(ForgedSection, PendingVectorBeyondTheGsisFails) {
  Bytes irq = SectionBytes(snap_, "hw.irq");
  ASSERT_EQ(irq.size(), kPendingAt + hw::kMaxCpus * 32 + hw::kNumGsis * 8);
  // CPU 0's vectors 64..127: set 32 + kNumGsis, the first without a GSI.
  const std::size_t word = kPendingAt + 8;
  irq[word + (32 + hw::kNumGsis - 64) / 8] |= 1u << ((32 + hw::kNumGsis) % 8);
  EXPECT_EQ(LoadForged("hw.irq", irq), Status::kBadParameter);
}

// svc.disk: the channel count, 29 bytes per channel (two u32 selectors,
// the ring page, three u32 cursors, open), the free list (count32, u32
// ids), then 32 slots of 41 bytes (active, channel u32, ...) and 76 bytes
// of counters and settings.
TEST_F(ForgedSection, DiskSlotOnAChannelNeverOpenedFails) {
  Bytes disk = SectionBytes(snap_, "svc.disk");
  const std::uint32_t channels = Get<std::uint32_t>(disk, 0);
  const std::size_t free_at = 4 + 29 * std::size_t{channels};
  const std::uint32_t free_ids = Get<std::uint32_t>(disk, free_at);
  const std::size_t slots_at = free_at + 4 + 4 * std::size_t{free_ids};
  ASSERT_EQ(disk.size(), slots_at + hw::ahci::kNumSlots * 41 + 76);
  disk[slots_at] = 1;  // Slot 0 active...
  Put32(disk, slots_at + 1, channels);  // ...on the first unopened channel.
  EXPECT_EQ(LoadForged("svc.disk", disk), Status::kBadParameter);
}

// guest.workload ends with current_ (u32), five u64 counters from
// units_done_, two u32 cursors and done_.
TEST_F(ForgedSection, WorkloadOnAProcessBeyondItsTableFails) {
  Bytes work = SectionBytes(snap_, "guest.workload");
  const std::size_t units_at = work.size() - (5 * 8 + 2 * 4 + 1);
  ASSERT_EQ(Get<std::uint64_t>(work, units_at),
            original_.workload().units_done());
  const std::size_t current_at = units_at - 4;
  ASSERT_LT(Get<std::uint32_t>(work, current_at), config_.workload.processes);
  Put32(work, current_at, config_.workload.processes);
  EXPECT_EQ(LoadForged("guest.workload", work), Status::kBadParameter);
}

}  // namespace
}  // namespace nova::bench
