// Differential test of the software guest page-table walks: the engine's
// nested 2-D walk (VmEngine::Translate), the vTLB fill (Vtlb::Resolve) and
// the VMM emulator (InsnEmulator::WalkGuest) must agree with a reference
// two-level x86 walker on random guest tables, and each must charge the
// same cycles per probe as it always has (digests pinned below).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/hv/vtlb.h"
#include "src/hw/machine.h"
#include "src/hw/paging.h"
#include "src/hw/vm_engine.h"
#include "src/sim/rng.h"
#include "src/vmm/emulator.h"

namespace nova {
namespace {

// Guest-physical layout. The host maps only [0, kMapped); tables and
// leaves above it are guest-physical addresses no host page backs.
constexpr std::uint64_t kGuestSize = 8ull << 20;
constexpr std::uint64_t kMapped = 6ull << 20;
constexpr std::uint64_t kRootGpa = 0x1000;
constexpr std::uint64_t kGuestBase = 32ull << 20;  // GPA 0 == HPA 32 MiB.
constexpr std::uint64_t kHostTables = 64ull << 20;  // Host-table frame pool.
constexpr std::uint64_t kShadowPool = 96ull << 20;  // vTLB shadow frames.
constexpr int kProbes = 2000;

// x86 PDE/PTE bits, spelled out here so the oracle owes nothing to
// src/hw/paging.h.
constexpr std::uint32_t kP = 1u << 0;
constexpr std::uint32_t kW = 1u << 1;
constexpr std::uint32_t kU = 1u << 2;
constexpr std::uint32_t kA = 1u << 5;
constexpr std::uint32_t kD = 1u << 6;
constexpr std::uint32_t kPs = 1u << 7;
constexpr std::uint32_t kG = 1u << 8;

// Random guest tables: the root at kRootGpa plus every level-0 table a
// PDE points to inside the mapped range, as gpa -> 32-bit entry.
using GuestImage = std::map<std::uint64_t, std::uint32_t>;

std::uint32_t RandomFlags(sim::Rng& rng) {
  std::uint32_t f = 0;
  for (const std::uint32_t bit : {kW, kU, kA, kD, kG}) {
    if (rng.Chance(0.5)) {
      f |= bit;
    }
  }
  return f;
}

GuestImage BuildImage(std::uint64_t seed) {
  sim::Rng rng(seed);
  GuestImage img;
  // Backed level-0 tables, one page each, clear of the root.
  std::vector<std::uint64_t> tables;
  for (std::uint64_t i = 0; i < 24; ++i) {
    tables.push_back(0x10000 + i * 0x3000);
  }
  for (const std::uint64_t t : tables) {
    for (std::uint64_t i = 0; i < 1024; ++i) {
      std::uint32_t e = RandomFlags(rng) | (rng.Chance(0.1) ? kPs : 0);
      e |= static_cast<std::uint32_t>(rng.Below(kGuestSize >> 12) << 12);
      if (rng.Chance(0.7)) {
        e |= kP;
      }
      img[t + i * 4] = e;
    }
  }
  for (std::uint64_t i = 0; i < 1024; ++i) {
    std::uint32_t e = RandomFlags(rng);
    const std::uint64_t kind = rng.Below(10);
    if (kind < 3) {
      // Not present; the other bits are noise.
      e |= static_cast<std::uint32_t>(rng.Below(kGuestSize >> 12) << 12);
    } else if (kind < 5) {
      // 4 MiB leaf; bits 12-21 are junk the walk must ignore.
      e |= kP | kPs | static_cast<std::uint32_t>(rng.Below(3) << 22) |
           static_cast<std::uint32_t>(rng.Below(1024) << 12);
    } else if (kind < 9) {
      e |= kP | static_cast<std::uint32_t>(tables[rng.Below(tables.size())]);
    } else {
      // A level-0 table above the host-mapped range.
      e |= kP | static_cast<std::uint32_t>(
                    kMapped + (rng.Below((kGuestSize - kMapped) >> 12) << 12));
    }
    img[kRootGpa + i * 4] = e;
  }
  return img;
}

// What the architecture says a supervisor walk of the image yields.
struct RefWalk {
  enum class Kind { kTranslated, kGuestFault, kTableFault } kind;
  std::uint64_t addr = 0;  // gpa when translated, entry gpa on a table fault.
};

RefWalk Reference(const GuestImage& img, std::uint64_t gva, bool write) {
  std::uint64_t table = kRootGpa;
  for (int level = 1; level >= 0; --level) {
    const std::uint64_t entry_gpa = table + ((gva >> (12 + 10 * level)) & 0x3ff) * 4;
    if (entry_gpa >= kMapped) {
      return {RefWalk::Kind::kTableFault, entry_gpa};
    }
    const std::uint32_t e = img.at(entry_gpa);
    if (!(e & kP) || (write && !(e & kW))) {
      return {RefWalk::Kind::kGuestFault};
    }
    if (level == 0 || (e & kPs)) {
      const std::uint64_t page = level == 0 ? 1ull << 12 : 1ull << 22;
      return {RefWalk::Kind::kTranslated,
              (e & ~std::uint64_t{0xfff} & ~(page - 1)) | (gva & (page - 1))};
    }
    table = e & ~0xfffu;
  }
  return {RefWalk::Kind::kGuestFault};
}

// One machine per entry point, each with its own copy of the guest
// tables and a host table mapping [0, kMapped) at kGuestBase.
struct World {
  hw::Machine machine{hw::MachineConfig{.cpus = {&hw::CoreI7_920()},
                                        .ram_size = 128ull << 20}};
  hw::PhysAddr next_host_frame = kHostTables;
  hw::PageTable host{&machine.mem(), hw::PagingMode::kFourLevel, NextHostFrame()};

  explicit World(const GuestImage& img) {
    (void)machine.mem().Zero(host.root(), hw::kPageSize);
    for (std::uint64_t gpa = 0; gpa < kMapped; gpa += hw::kPageSize) {
      EXPECT_EQ(host.Map(gpa, kGuestBase + gpa, hw::kPageSize,
                         hw::pte::kWritable | hw::pte::kUser,
                         [this] { return NextHostFrame(); }),
                Status::kSuccess);
    }
    for (const auto& [gpa, entry] : img) {
      (void)machine.mem().Write32(kGuestBase + gpa, entry);
    }
  }

  hw::PhysAddr NextHostFrame() {
    const hw::PhysAddr f = next_host_frame;
    next_host_frame += hw::kPageSize;
    return f;
  }
  std::uint64_t GpaToHpa(std::uint64_t gpa) const {
    return gpa < kMapped ? kGuestBase + gpa : ~0ull;
  }
  std::uint32_t Entry(std::uint64_t gpa) { return machine.mem().Read32(kGuestBase + gpa); }
  hw::Cpu& cpu() { return machine.cpu(0); }
};

struct EngineWorld : World {
  hw::VmEngine engine{&machine.cpu(0), &machine.mem(), &machine.bus(), &machine.irq()};
  hw::GuestState gs;
  hw::VmControls ctl;

  explicit EngineWorld(const GuestImage& img) : World(img) {
    gs.paging = true;
    gs.cr3 = kRootGpa;
    ctl.mode = hw::TranslationMode::kNested;
    ctl.nested_format = hw::PagingMode::kFourLevel;
    ctl.nested_root = host.root();
    ctl.tag = ctl.base_tag = 1;
  }

  hw::VmEngine::XlatResult Probe(std::uint64_t gva, bool write) {
    cpu().tlb().FlushAll();
    engine.FlushNestedTlb(ctl.tag);
    return engine.Translate(gs, ctl, gva, hw::Access{.write = write});
  }
};

struct VtlbWorld : World {
  hw::GuestState gs;
  hw::VmControls ctl;
  hv::HvCosts costs;
  sim::StatRegistry stats;
  sim::Tracer tracer;
  hw::TlbTagAllocator tags{2};
  hw::PhysAddr next_shadow = kShadowPool;
  std::vector<hw::PhysAddr> free_shadow;
  std::unique_ptr<hv::Vtlb> vtlb;

  explicit VtlbWorld(const GuestImage& img) : World(img) {
    gs.paging = true;
    gs.cr3 = kRootGpa;
    ctl.mode = hw::TranslationMode::kShadow;
    ctl.nested_format = hw::PagingMode::kTwoLevel;
    ctl.tag = ctl.base_tag = 1;
    hv::Vtlb::Env env;
    env.cpu = &cpu();
    env.mem = &machine.mem();
    env.host = &host;
    env.gs = &gs;
    env.ctl = &ctl;
    env.pd_root = host.root();
    env.costs = &costs;
    env.alloc = [this] {
      if (!free_shadow.empty()) {
        const hw::PhysAddr f = free_shadow.back();
        free_shadow.pop_back();
        return f;
      }
      const hw::PhysAddr f = next_shadow;
      next_shadow += hw::kPageSize;
      return f;
    };
    env.free = [this](hw::PhysAddr f) { free_shadow.push_back(f); };
    env.tags = &tags;
    env.stats = &stats;
    env.tracer = &tracer;
    vtlb = std::make_unique<hv::Vtlb>(std::move(env), hv::VtlbPolicy{});
  }

  hv::Vtlb::Outcome Probe(std::uint64_t gva, bool write, std::uint64_t* gpa) {
    hw::VmExit exit;
    exit.reason = hw::ExitReason::kPageFault;
    exit.gva = gva;
    exit.is_write = write;
    return vtlb->Resolve(exit, gpa);
  }
};

struct EmulatorWorld : World {
  vmm::InsnEmulator emu{&machine.mem(), &machine.cpu(0),
                        [this](std::uint64_t gpa) { return GpaToHpa(gpa); }};
  hv::ArchState arch;

  explicit EmulatorWorld(const GuestImage& img) : World(img) {
    arch.paging = true;
    arch.cr3 = kRootGpa;
  }
};

// FNV-1a over the little-endian bytes of each probe's cycle charge.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void Fold(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
    }
  }
};

struct Pinned {
  std::uint64_t seed;
  std::uint64_t engine;
  std::uint64_t vtlb;
  std::uint64_t emulator;
};

// Recorded before the walkers were unified; a change here means a walk
// now charges different cycles.
constexpr Pinned kPinned[] = {
    {3, 0xb4fda434708effeaull, 0x5055f1c521df5409ull, 0x0e513b201e8f9a65ull},
    {11, 0x19bafab1fec9b60aull, 0xa345aa5d615a662dull, 0x398af9ac0ba0f125ull},
    {42, 0x6a76cca74ff1b685ull, 0xf0ac39a9b536d076ull, 0x49b12270da2750cdull},
};

class WalkerEquivalence : public ::testing::TestWithParam<Pinned> {};

TEST_P(WalkerEquivalence, EntryPointsAgreeWithReference) {
  const Pinned pinned = GetParam();
  const GuestImage img = BuildImage(pinned.seed);
  EngineWorld ew(img);
  VtlbWorld vw(img);
  EmulatorWorld mw(img);

  sim::Rng rng(pinned.seed * 7919 + 1);
  Digest engine_digest;
  Digest vtlb_digest;
  Digest emu_digest;
  // Probes per reference outcome: every class must occur, or the
  // comparison proves little.
  int in_ram = 0;
  int outside_ram = 0;
  int guest_faults = 0;
  int table_faults = 0;
  for (int i = 0; i < kProbes; ++i) {
    const std::uint64_t gva = rng.Below(1ull << 32);
    const bool write = rng.Chance(0.5);
    const RefWalk ref = Reference(img, gva, write);
    const bool translated = ref.kind == RefWalk::Kind::kTranslated;
    const bool backed = translated && ref.addr < kMapped;
    if (backed) {
      ++in_ram;
    } else if (translated) {
      ++outside_ram;
    } else if (ref.kind == RefWalk::Kind::kGuestFault) {
      ++guest_faults;
    } else {
      ++table_faults;
    }
    SCOPED_TRACE(::testing::Message() << "probe " << i << " gva 0x" << std::hex
                                      << gva << (write ? " write" : " read"));

    // Engine: a host fault names the gpa that did not resolve, the leaf's
    // for an unbacked page and the entry's for an unbacked table.
    const sim::Cycles e0 = ew.cpu().cycles();
    const hw::VmEngine::XlatResult x = ew.Probe(gva, write);
    engine_digest.Fold(ew.cpu().cycles() - e0);
    using XK = hw::VmEngine::XlatResult::Kind;
    if (backed) {
      ASSERT_EQ(x.kind, XK::kOk);
      EXPECT_EQ(x.hpa, kGuestBase + ref.addr);
    } else if (ref.kind == RefWalk::Kind::kGuestFault) {
      ASSERT_EQ(x.kind, XK::kGuestFault);
    } else {
      ASSERT_EQ(x.kind, XK::kHostFault);
      EXPECT_EQ(x.gpa, ref.addr);
    }

    // vTLB: same contract, reported as an Outcome plus *gpa.
    std::uint64_t vgpa = 0;
    const sim::Cycles v0 = vw.cpu().cycles();
    const hv::Vtlb::Outcome o = vw.Probe(gva, write, &vgpa);
    vtlb_digest.Fold(vw.cpu().cycles() - v0);
    if (backed) {
      ASSERT_EQ(o, hv::Vtlb::Outcome::kFilled);
      EXPECT_EQ(vgpa, ref.addr);
    } else if (ref.kind == RefWalk::Kind::kGuestFault) {
      ASSERT_EQ(o, hv::Vtlb::Outcome::kGuestFault);
    } else {
      ASSERT_EQ(o, hv::Vtlb::Outcome::kHostFault);
      EXPECT_EQ(vgpa, ref.addr);
    }

    // Emulator: both faults are `false`; an unbacked leaf still translates.
    std::uint64_t mgpa = 0;
    const sim::Cycles m0 = mw.cpu().cycles();
    const bool ok = mw.emu.WalkGuest(mw.arch, gva, write, &mgpa);
    emu_digest.Fold(mw.cpu().cycles() - m0);
    ASSERT_EQ(ok, translated);
    if (translated) {
      EXPECT_EQ(mgpa, ref.addr);
    }
  }

  EXPECT_GT(in_ram, 0);
  EXPECT_GT(outside_ram, 0);
  EXPECT_GT(guest_faults, 0);
  EXPECT_GT(table_faults, 0);

  EXPECT_EQ(engine_digest.h, pinned.engine) << std::hex << "0x" << engine_digest.h;
  EXPECT_EQ(vtlb_digest.h, pinned.vtlb) << std::hex << "0x" << vtlb_digest.h;
  EXPECT_EQ(emu_digest.h, pinned.emulator) << std::hex << "0x" << emu_digest.h;
}

INSTANTIATE_TEST_SUITE_P(Seeds, WalkerEquivalence, ::testing::ValuesIn(kPinned),
                         [](const ::testing::TestParamInfo<Pinned>& p) {
                           return "Seed" + std::to_string(p.param.seed);
                         });

// x86 sets A on every entry a walk uses and D on the leaf of a write; each
// software walk must leave clean guest tables as the hardware would.
TEST(WalkerAccessedDirty, WriteWalkSetsAccessedAndDirty) {
  constexpr std::uint64_t kTable = 0x10000;
  constexpr std::uint64_t kGva = 0x00403000;  // PDE 1, PTE 3.
  constexpr std::uint64_t kPde = kRootGpa + 1 * 4;
  constexpr std::uint64_t kPte = kTable + 3 * 4;
  const GuestImage img = {{kPde, kTable | kP | kW}, {kPte, 0x200000 | kP | kW}};
  const auto expect_ad = [&](World& w, const char* who) {
    SCOPED_TRACE(who);
    EXPECT_EQ(w.Entry(kPde) & (kA | kD), kA);
    EXPECT_EQ(w.Entry(kPte) & (kA | kD), kA | kD);
  };

  EngineWorld ew(img);
  ASSERT_EQ(ew.Probe(kGva, /*write=*/true).kind, hw::VmEngine::XlatResult::Kind::kOk);
  expect_ad(ew, "engine");

  VtlbWorld vw(img);
  std::uint64_t gpa = 0;
  ASSERT_EQ(vw.Probe(kGva, /*write=*/true, &gpa), hv::Vtlb::Outcome::kFilled);
  expect_ad(vw, "vtlb");

  EmulatorWorld mw(img);
  ASSERT_TRUE(mw.emu.WalkGuest(mw.arch, kGva, /*is_write=*/true, &gpa));
  EXPECT_EQ(gpa, 0x200000u);
  expect_ad(mw, "emulator");
}

}  // namespace
}  // namespace nova
