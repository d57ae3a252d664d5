// Microbenchmarks of the hypervisor's hot paths (google-benchmark).
//
// These measure *host* wall-clock performance of the implementation — how
// fast the reproduction itself executes — complementing the simulated-
// cycle figures (fig8/fig9). Also includes simulated-cycle ablations of
// design choices the paper calls out (MTD-size state transfer, per-event
// portals).
#include <benchmark/benchmark.h>

#include <vector>

#include "bench/scenario.h"
#include "src/hv/dirty_log.h"
#include "src/sim/rng.h"

namespace nova::bench {
namespace {

// --- Host-performance microbenchmarks -------------------------------------

void BM_CapSpaceLookup(benchmark::State& state) {
  hv::CapSpace caps;
  (void)caps.Insert(100, hv::Capability{std::make_shared<hv::Sm>(0), hv::perm::kAll});
  for (auto _ : state) {
    benchmark::DoNotOptimize(caps.Lookup(100));
  }
}
BENCHMARK(BM_CapSpaceLookup);

void BM_PageTableWalk(benchmark::State& state) {
  hw::PhysMem mem(256ull << 20);
  hw::PhysAddr next = 0x100000;
  hw::PageTable pt(&mem, hw::PagingMode::kFourLevel, 0x1000);
  (void)pt.Map(0x400000, 0x200000, hw::kPageSize, hw::pte::kWritable | hw::pte::kUser,
         [&next] {
           const hw::PhysAddr f = next;
           next += hw::kPageSize;
           return f;
         });
  for (auto _ : state) {
    benchmark::DoNotOptimize(pt.Walk(0x400123, hw::Access{}, false));
  }
}
BENCHMARK(BM_PageTableWalk);

// Frames spread over several 2 MiB directory chunks, and an 8-byte offset
// that walks each frame: the accesses the PhysMem benches cycle through.
constexpr std::uint64_t kBenchFrames = 256;
hw::PhysAddr BenchAddr(std::uint64_t i) {
  return (i % kBenchFrames) * 33 * hw::kPageSize + ((i * 8) & hw::kPageMask);
}

// One 8-byte read, the size of a fetch, a data load or a PTE read: of a
// resident frame (Arg 1) or of an absent one, which reads as zero (Arg 0).
void BM_PhysMemRead(benchmark::State& state) {
  hw::PhysMem mem(512ull << 20);
  if (state.range(0) != 0) {
    for (std::uint64_t i = 0; i < kBenchFrames; ++i) {
      (void)mem.Write64(BenchAddr(i), i);
    }
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mem.Read64(BenchAddr(i++)));
  }
}
BENCHMARK(BM_PhysMemRead)->Arg(0)->Arg(1);

// One 8-byte write into a resident frame, with no write observer set.
void BM_PhysMemWrite(benchmark::State& state) {
  hw::PhysMem mem(512ull << 20);
  for (std::uint64_t i = 0; i < kBenchFrames; ++i) {
    (void)mem.Write64(BenchAddr(i), i);
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mem.Write64(BenchAddr(i), i));
    benchmark::ClobberMemory();
    ++i;
  }
}
BENCHMARK(BM_PhysMemWrite);

// Tearing down a shadow-table-sized tree: 192 4 KiB pages in 24 clusters,
// under the two-level format (Arg 0) or the four-level one (Arg 1).
// FreeTables only reads the tree, so each iteration releases the same one.
void BM_PageTableFreeTables(benchmark::State& state) {
  const hw::PagingMode mode = state.range(0) != 0 ? hw::PagingMode::kFourLevel
                                                  : hw::PagingMode::kTwoLevel;
  hw::PhysMem mem(256ull << 20);
  hw::PhysAddr next = 0x100000;
  hw::PageTable pt(&mem, mode, 0x1000);
  for (std::uint64_t cluster = 0; cluster < 24; ++cluster) {
    for (std::uint64_t page = 0; page < 8; ++page) {
      (void)pt.Map((cluster << 26) + (page << 12), 0x8000000 + (page << 12),
                   hw::kPageSize, hw::pte::kWritable | hw::pte::kUser,
                   [&next] {
                     next += hw::kPageSize;
                     return next - hw::kPageSize;
                   });
    }
  }
  std::uint64_t released = 0;
  for (auto _ : state) {
    pt.FreeTables([&released](hw::PhysAddr) { ++released; });
  }
  benchmark::DoNotOptimize(released);
}
BENCHMARK(BM_PageTableFreeTables)->Arg(0)->Arg(1);

void BM_TlbLookup(benchmark::State& state) {
  hw::Tlb tlb(512, 32);
  for (std::uint64_t i = 0; i < 256; ++i) {
    (void)tlb.Insert(1, i << 12, (i + 1000) << 12, hw::kPageSize, true, true, true);
  }
  std::uint64_t va = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tlb.Lookup(1, (va++ % 256) << 12, hw::Access{}));
  }
}
BENCHMARK(BM_TlbLookup);

// A 4 KiB class full under one tag: every insert of a new page evicts the
// least recently used entry.
void BM_TlbInsertAtCapacity(benchmark::State& state) {
  hw::Tlb tlb(512, 32);
  std::uint64_t page = 0;
  for (; page < 512; ++page) {
    tlb.Insert(1, page << 12, page << 12, hw::kPageSize, true, true, true);
  }
  for (auto _ : state) {
    tlb.Insert(1, page << 12, page << 12, hw::kPageSize, true, true, true);
    ++page;
  }
}
BENCHMARK(BM_TlbInsertAtCapacity);

// Disk I/O's IPC shape: every call into a host PD flushes the host tag of
// a nearly empty TLB (four live entries), which then refills.
void BM_TlbFlushTagSparse(benchmark::State& state) {
  hw::Tlb tlb(512, 32);
  for (auto _ : state) {
    for (std::uint64_t i = 0; i < 4; ++i) {
      tlb.Insert(hw::kHostTag, i << 12, (i + 1000) << 12, hw::kPageSize, true,
                 true, true);
    }
    tlb.FlushTag(hw::kHostTag);
  }
}
BENCHMARK(BM_TlbFlushTagSparse);

void BM_IpcCallReply(benchmark::State& state) {
  hw::Machine machine(hw::MachineConfig{.cpus = {&hw::CoreI7_920()},
                                        .ram_size = 256ull << 20});
  hv::Hypervisor hv(&machine);
  hv::Pd* root = hv.Boot();
  hv::Pd* server = nullptr;
  (void)hv.CreatePd(root, 100, "server", false, &server);
  hv::Ec* handler = nullptr;
  (void)hv.CreateEcLocal(root, 110, 100, 0, [](std::uint64_t) {}, &handler);
  (void)hv.CreatePt(root, 111, 110, 0, 0);
  hv::Ec* client = nullptr;
  (void)hv.CreateEcGlobal(root, 112, hv::kSelOwnPd, 0, [] {}, &client);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hv.Call(client, 111));
  }
}
BENCHMARK(BM_IpcCallReply);

void BM_GuestInstructionDispatch(benchmark::State& state) {
  hw::Machine machine(hw::MachineConfig{.cpus = {&hw::CoreI7_920()},
                                        .ram_size = 64ull << 20});
  hw::VmEngine engine(&machine.cpu(0), &machine.mem(), &machine.bus(),
                      &machine.irq());
  hw::isa::Assembler as(0x10000);
  const std::uint64_t top = as.AddImm(1, 1);
  as.Jmp(top);
  (void)machine.mem().Write(as.base(), as.bytes().data(), as.bytes().size());
  hw::GuestState gs;
  gs.rip = 0x10000;
  for (auto _ : state) {
    engine.Run(gs, hw::VmControls{}, 256);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(engine.instructions()));
}
BENCHMARK(BM_GuestInstructionDispatch);

// Guest loads and stores: a native-mode loop that loads one word of each
// of Arg pages in turn, adds to it and stores it back, and after each pass
// moves on to the next 64-byte line of every page (an And wraps it within
// the page). Every page is materialized first. 256 pages stay in the
// 512-entry TLB and their 1 MiB in the host's L2 cache; 768 pages cycle
// through both, so each access misses the TLB (paging is off: a miss
// inserts the identity translation without a walk) and the host's L2.
void BM_GuestMemoryAccess(benchmark::State& state) {
  const auto pages = static_cast<std::uint64_t>(state.range(0));
  constexpr std::uint64_t kData = 0x100000;
  hw::Machine machine(hw::MachineConfig{.cpus = {&hw::CoreI7_920()},
                                        .ram_size = 64ull << 20});
  hw::VmEngine engine(&machine.cpu(0), &machine.mem(), &machine.bus(),
                      &machine.irq());
  hw::isa::Assembler as(0x10000);
  const std::uint64_t top = as.AddImm(4, 64);  // This pass's line offset.
  as.AndImm(4, hw::kPageMask);
  as.MovImm(3, 0);
  as.AddReg(3, 4);       // Address of the word, less kData.
  as.MovImm(5, pages);   // Pages left in this pass.
  const std::uint64_t next = as.Load(1, 3, kData);
  as.AddImm(1, 3);
  as.Store(1, 3, kData);
  as.AddImm(3, hw::kPageSize);
  as.Loop(5, next);
  as.Jmp(top);
  (void)machine.mem().Write(as.base(), as.bytes().data(), as.bytes().size());
  for (std::uint64_t page = 0; page < pages; ++page) {
    (void)machine.mem().Write64(kData + page * hw::kPageSize, page);
  }
  hw::GuestState gs;
  gs.rip = 0x10000;
  for (auto _ : state) {
    engine.Run(gs, hw::VmControls{}, 256);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(engine.instructions()));
}
BENCHMARK(BM_GuestMemoryAccess)->Arg(256)->Arg(768);

void BM_DelegateRevoke(benchmark::State& state) {
  hw::Machine machine(hw::MachineConfig{.cpus = {&hw::CoreI7_920()},
                                        .ram_size = 512ull << 20});
  hv::Hypervisor hv(&machine);
  hv::Pd* root = hv.Boot();
  (void)hv.CreatePd(root, 100, "child", false);
  const std::uint64_t page = (hv.kernel_reserve() >> hw::kPageShift) + 512;
  for (auto _ : state) {
    (void)hv.Delegate(root, 100, hv::Crd::Mem(page, 4, hv::perm::kRw), page);
    (void)hv.Revoke(root, hv::Crd::Mem(page, 4, hv::perm::kRw), false);
  }
}
BENCHMARK(BM_DelegateRevoke);

// A guest's memory space as the VMM builds it: 32 768 pages (128 MiB)
// delegated in 512-page chunks onto consecutive host frames.
constexpr std::uint64_t kSpacePages = 32768;
void MapGuestPages(hv::MemSpace& space, std::uint64_t hpa_page) {
  for (std::uint64_t page = 0; page < kSpacePages; page += 512) {
    (void)space.Map(page, hpa_page + page, 512, hv::perm::kRw, false);
  }
}

// Saving that space's bookkeeping: what every snapshot of a VM pays.
void BM_MemSpaceSave(benchmark::State& state) {
  hw::PhysMem mem(1ull << 30);
  hw::PhysAddr next = 0x100000;
  hv::MemSpace space(&mem, hw::PagingMode::kFourLevel, 0x1000, [&next] {
    next += hw::kPageSize;
    return next - hw::kPageSize;
  });
  MapGuestPages(space, 0x10000);
  for (auto _ : state) {
    sim::SnapWriter w;
    (void)space.SaveState(w);
    benchmark::DoNotOptimize(w.data().data());
  }
  state.SetItemsProcessed(state.iterations() * kSpacePages);
}
BENCHMARK(BM_MemSpaceSave);

// One pre-copy round's collection over that space with 1 % of its pages
// dirty; dirtying them (one 8-byte write each) is not timed.
void BM_DirtyLogCollect(benchmark::State& state) {
  hw::Machine machine(hw::MachineConfig{.cpus = {&hw::CoreI7_920()},
                                        .ram_size = 512ull << 20});
  hv::Hypervisor hv(&machine);
  hv::Pd* root = hv.Boot();
  hv::Pd* vm = nullptr;
  (void)hv.CreatePd(root, 100, "vm", true, &vm);
  const std::uint64_t hpa_page = hv.kernel_reserve() >> hw::kPageShift;
  MapGuestPages(vm->mem_space(), hpa_page);
  hv::DirtyLog log(&hv, vm);
  log.Arm();
  std::vector<std::uint64_t> dirty;
  for (auto _ : state) {
    state.PauseTiming();
    for (std::uint64_t page = 0; page < kSpacePages; page += 100) {
      (void)machine.mem().Write64((hpa_page + page) << hw::kPageShift, page);
    }
    dirty.clear();
    state.ResumeTiming();
    log.CollectAndReset(&dirty);
    benchmark::DoNotOptimize(dirty.data());
  }
  state.SetItemsProcessed(state.iterations() * kSpacePages);
}
BENCHMARK(BM_DirtyLogCollect);

// Encoding a snapshot and decoding it again: one section of Arg MiB of
// guest memory beside two small ones. Bytes/s is per payload byte.
void BM_SnapshotEncodeDecode(benchmark::State& state) {
  const std::uint64_t bytes = static_cast<std::uint64_t>(state.range(0)) << 20;
  sim::Snapshot snap;
  std::vector<std::uint8_t> ram(bytes);
  sim::Rng rng(1);
  for (std::uint8_t& b : ram) {
    b = static_cast<std::uint8_t>(rng.Next());
  }
  snap.Section("mem", 1).Bytes(ram.data(), ram.size());
  snap.Section("cpu", 1).U64(42);
  snap.Section("vmm", 1).Str("state");
  for (auto _ : state) {
    const std::vector<std::uint8_t> encoded = snap.Encode();
    sim::Snapshot decoded;
    benchmark::DoNotOptimize(decoded.Decode(encoded));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(snap.PayloadBytes()));
}
BENCHMARK(BM_SnapshotEncodeDecode)->Arg(1)->Arg(8);

// --- Simulated-cycle ablations ---------------------------------------------

// The paper's transfer-descriptor optimization (§5.2): minimal vs full
// state transfer per exit. Reports simulated cycles per CPUID exit.
void BM_Ablation_MtdStateTransfer(benchmark::State& state) {
  const bool full = state.range(0) != 0;
  double cycles_per_exit = 0;
  {
    root::SystemConfig sc;
    sc.machine =
        hw::MachineConfig{.cpus = {&hw::CoreI7_920()}, .ram_size = 512ull << 20};
    root::NovaSystem system(sc);
    GuestVm vm(system,
               vmm::VmmConfig{.guest_mem_bytes = 64ull << 20,
                              .full_state_transfer = full},
               GuestVm::Disk::kNone);
    hw::isa::Assembler& as = vm.kernel().text();
    const std::uint64_t main = as.Here();
    as.MovImm(5, 1000);
    const std::uint64_t top = as.Cpuid();
    as.Loop(5, top);
    as.Hlt();
    vm.Boot(main);
    hw::GuestState& gs = vm.vmm().gstate();
    const sim::Cycles before = system.machine.cpu(0).cycles();
    system.hv.RunUntilCondition([&gs] { return gs.halted; }, sim::Seconds(10));
    cycles_per_exit =
        static_cast<double>(system.machine.cpu(0).cycles() - before) / 1000.0;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(cycles_per_exit);
  }
  state.counters["sim_cycles_per_exit"] = cycles_per_exit;
}
BENCHMARK(BM_Ablation_MtdStateTransfer)->Arg(0)->Arg(1);

}  // namespace
}  // namespace nova::bench

BENCHMARK_MAIN();
