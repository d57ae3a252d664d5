#include "probes.h"

#include <array>
#include <vector>

#include "src/sim/rng.h"
#include "src/sim/snapshot.h"

namespace nova::perfbench {
namespace {

// Neither class exposes its contents, but both serialize them; the probes
// read the entry lists back through the snapshot decoder.
std::vector<std::uint64_t> ResidentFrames(const hw::PhysMem& mem) {
  sim::SnapWriter w;
  (void)mem.SaveState(w);
  sim::SnapReader r(w.data().data(), w.size());
  (void)r.U64();  // Installed RAM size.
  const std::uint64_t n = r.U64();
  std::vector<std::uint64_t> frames;
  std::array<std::uint8_t, hw::kPageSize> skip{};
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    frames.push_back(r.U64());
    r.Bytes(skip.data(), skip.size());
  }
  return r.ok() ? frames : std::vector<std::uint64_t>{};
}

struct TlbKey {
  hw::TlbTag tag;
  hw::VirtAddr va;
};

std::vector<TlbKey> TlbEntries(const hw::Tlb& tlb) {
  sim::SnapWriter w;
  (void)tlb.SaveState(w);
  sim::SnapReader r(w.data().data(), w.size());
  (void)r.U32();  // 4 KiB count.
  (void)r.U32();  // Large count.
  for (int i = 0; i < 4; ++i) {
    (void)r.U64();  // LRU clock, hits, misses, flushes.
  }
  const std::uint32_t n = r.U32();
  std::vector<TlbKey> keys;
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    const hw::TlbTag tag = r.U16();
    const std::uint64_t vpage = r.U64();
    (void)r.Bool();  // Large.
    (void)r.U64();   // Physical page.
    (void)r.U64();   // Page size.
    for (int b = 0; b < 4; ++b) {
      (void)r.Bool();  // Writable, user, dirty, global.
    }
    (void)r.U64();  // LRU stamp.
    keys.push_back({tag, vpage << hw::kPageShift});
  }
  return r.ok() ? keys : std::vector<TlbKey>{};
}

volatile std::uint64_t probe_sink = 0;

double NsPer(sim::PicoSeconds begin, sim::PicoSeconds end, std::uint64_t n) {
  return static_cast<double>(end - begin) / 1e3 / static_cast<double>(n);
}

}  // namespace

HwProbeNs ProbeHw(hw::PhysMem& mem, hw::Cpu& cpu, const hw::PageTable& host_pt,
                  std::uint64_t guest_pages, std::uint64_t seed,
                  HostTrace& trace) {
  HwProbeNs out;
  sim::Rng rng(seed);
  std::uint64_t sink = 0;

  // PhysMem::Read over resident frames, in a random order.
  const std::vector<std::uint64_t> frames = ResidentFrames(mem);
  if (frames.empty()) {
    out.error = "no resident frame read back from PhysMem::SaveState";
    return out;
  }
  {
    std::vector<hw::PhysAddr> addrs(1 << 16);
    for (hw::PhysAddr& a : addrs) {
      a = (frames[rng.Below(frames.size())] << hw::kPageShift) |
          (rng.Below(hw::kPageSize / 8) * 8);
    }
    constexpr std::uint64_t kReads = 1u << 21;
    const auto span = trace.Span(trace.Intern("probe:PhysMem::Read"), Layer::kHw);
    const sim::PicoSeconds t0 = HostNowPs();
    for (std::uint64_t i = 0; i < kReads; ++i) {
      std::uint64_t v = 0;
      (void)mem.Read(addrs[i & (addrs.size() - 1)], &v, sizeof v);
      sink += v;
    }
    out.physmem_read = NsPer(t0, HostNowPs(), kReads);
  }

  // Tlb::Lookup of the translations the run left in CPU 0's TLB. Every
  // lookup must hit, or the keys read back are not the TLB's.
  hw::Tlb& tlb = cpu.tlb();
  const std::vector<TlbKey> keys = TlbEntries(tlb);
  if (keys.empty()) {
    out.error = "no TLB entry read back from Tlb::SaveState";
    return out;
  }
  {
    constexpr std::uint64_t kLookups = 1u << 20;
    const std::uint64_t hits0 = tlb.hits().value();
    const auto span = trace.Span(trace.Intern("probe:Tlb::Lookup"), Layer::kHw);
    const sim::PicoSeconds t0 = HostNowPs();
    for (std::uint64_t i = 0; i < kLookups; ++i) {
      const TlbKey& k = keys[i % keys.size()];
      sink += tlb.Lookup(k.tag, k.va, hw::Access{}).value_or(0);
    }
    out.tlb_lookup = NsPer(t0, HostNowPs(), kLookups);
    if (tlb.hits().value() - hits0 != kLookups) {
      out.error = "Tlb::Lookup probe missed the entries Tlb::SaveState listed";
      return out;
    }
  }

  // Tlb::Insert at capacity: fill the 4 KiB class under a tag no guest
  // uses, then every further insert of a new page evicts one entry.
  {
    constexpr hw::TlbTag kProbeTag = 0xfffe;
    const std::uint64_t cap = cpu.model().tlb_4k_entries;
    std::uint64_t page = 0;
    for (; page < cap; ++page) {
      tlb.Insert(kProbeTag, page << hw::kPageShift, 0, hw::kPageSize, true,
                 true, true);
    }
    constexpr std::uint64_t kInserts = 1u << 14;
    const auto span =
        trace.Span(trace.Intern("probe:Tlb::Insert(full)"), Layer::kHw);
    const sim::PicoSeconds t0 = HostNowPs();
    for (std::uint64_t i = 0; i < kInserts; ++i, ++page) {
      tlb.Insert(kProbeTag, page << hw::kPageShift, page << hw::kPageShift,
                 hw::kPageSize, true, true, true);
    }
    out.tlb_insert_evict = NsPer(t0, HostNowPs(), kInserts);
  }

  // PageTable::Walk of the VM's host (GPA->HPA) table; no A/D write-back.
  if (guest_pages != 0) {
    std::vector<hw::VirtAddr> gpas(1 << 12);
    for (hw::VirtAddr& g : gpas) {
      g = rng.Below(guest_pages) << hw::kPageShift;
    }
    constexpr std::uint64_t kWalks = 1u << 18;
    const auto span = trace.Span(trace.Intern("probe:PageTable::Walk"), Layer::kHw);
    const sim::PicoSeconds t0 = HostNowPs();
    for (std::uint64_t i = 0; i < kWalks; ++i) {
      sink += host_pt.Walk(gpas[i & (gpas.size() - 1)], hw::Access{}, false).pa;
    }
    out.pt_walk = NsPer(t0, HostNowPs(), kWalks);
  }

  probe_sink = sink;  // Keeps the probed loops from being elided.
  return out;
}

}  // namespace nova::perfbench
