// The virtual-TLB subsystem: software shadow paging for hardware without
// nested paging (§5.3), layered with the paper's §8.4 optimizations.
//
// Each shadow-mode vCPU owns one Vtlb instance holding its shadow state.
// The subsystem is layered as an optimization ladder:
//
//   naive        — one shadow tree; every guest MOV CR3 frees it, rebuilds
//                  on demand and flushes the hardware TLB (the seed
//                  behaviour, Figure 9's bottom rung).
//   cached       — a shadow-context cache keyed by guest CR3: switching
//                  back to a previously seen address space reuses its
//                  shadow tree instead of re-filling it. A bounded LRU
//                  policy (VtlbPolicy::max_cached_frames) evicts whole
//                  contexts and returns their frames to the kernel pool.
//   cached+VPID  — when the CPU model supports tagged TLBs (VPID/ASID),
//                  every cached context additionally gets its own hardware
//                  tag, so the context switch becomes a tag switch and the
//                  hardware TLB is not flushed at all (PCID-style reuse).
//
// Invalidation invariant: INVLPG and guest page-table write-protect
// upgrades are applied to *every* cached context (shadow entry unmap +
// per-tag hardware flush), so a stale translation can never survive in a
// dormant context.
#ifndef SRC_HV_VTLB_H_
#define SRC_HV_VTLB_H_

#include <cstdint>
#include <functional>
#include <map>

#include "src/hv/event_counter.h"
#include "src/hv/types.h"
#include "src/hw/cpu.h"
#include "src/hw/guest_state.h"
#include "src/hw/paging.h"
#include "src/hw/phys_mem.h"
#include "src/hw/tlb.h"
#include "src/sim/snapshot.h"
#include "src/sim/stats.h"
#include "src/sim/status.h"
#include "src/sim/trace.h"

namespace nova::hv {

class Pd;

// Policy knob for the optimization ladder. The default reproduces the
// paper's naive vTLB (and this repository's seed behaviour) exactly;
// benchmarks sweep the ladder by enabling the layers one at a time.
struct VtlbPolicy {
  bool cache_contexts = false;      // Layer 1: shadow-context cache.
  bool use_vpid = false;            // Layer 2: per-context hardware tags
                                    // (effective only on tagged CPUs).
  std::uint32_t max_cached_frames = 512;  // Shadow-frame budget before LRU
                                          // context eviction kicks in.
  template <class Ar>
  void Io(Ar& ar) {
    ar.Io(cache_contexts, use_vpid, max_cached_frames);
  }
};

class Vtlb {
 public:
  // [[nodiscard]]: a dropped Outcome means a dropped guest fault or a
  // silently ignored kNoMem — both must reach the dispatch loop.
  enum class [[nodiscard]] Outcome : std::uint8_t {
    kFilled,
    kGuestFault,
    kHostFault,
    kNoMem,  // Kernel-memory quota exhausted even after pressure eviction.
  };

  // Everything the subsystem needs from its surroundings. All pointers
  // must outlive the Vtlb (they live in the owning Ec / Pd / Machine).
  struct Env {
    hw::Cpu* cpu = nullptr;          // Cycle accounting + hardware TLB.
    hw::PhysMem* mem = nullptr;
    hw::PageTable* host = nullptr;   // The VM's host (GPA->HPA) page table.
    hw::GuestState* gs = nullptr;
    hw::VmControls* ctl = nullptr;
    Pd* pd = nullptr;                // Owning VM (revocation filtering).
    hw::PhysAddr pd_root = 0;        // Host table root (never a shadow root).
    const HvCosts* costs = nullptr;
    std::function<hw::PhysAddr()> alloc;       // Kernel frame pool.
    std::function<void(hw::PhysAddr)> free;
    hw::TlbTagAllocator* tags = nullptr;       // Per-context hardware tags.
    sim::StatRegistry* stats = nullptr;
    // Machine tracer; the permanently disabled default keeps direct Vtlb
    // construction in tests null-check free.
    sim::Tracer* tracer = &sim::Tracer::Disabled();
  };

  Vtlb(Env env, VtlbPolicy policy);
  ~Vtlb();

  Vtlb(const Vtlb&) = delete;
  Vtlb& operator=(const Vtlb&) = delete;

  // Handle a shadow-mode translation miss: parse the real guest page
  // table, charge the walk, and install the translation in the active
  // context's shadow tree.
  Outcome Resolve(const hw::VmExit& exit, std::uint64_t* gpa_out);

  // Guest wrote CR3: switch address space. Naive mode tears the shadow
  // tree down; cached mode switches to (or creates) the context for the
  // new CR3 value.
  void HandleMovCr3(std::uint64_t new_cr3);

  // Guest executed INVLPG: drop the translation from every cached context
  // and from the hardware TLB under every context tag.
  void HandleInvlpg(std::uint64_t gva);

  // Guest-initiated full flush (CR3 rewrite semantics / kTlbFlush reply):
  // every cached context is dropped; the active root survives zeroed.
  void Flush();

  // Host-initiated teardown (memory revocation): silently free every
  // shadow frame and hardware tag. No guest-visible charges or counters —
  // the revoke path accounts for itself.
  void DropAllContexts();

  Pd* pd() const { return env_.pd; }
  const VtlbPolicy& policy() const { return policy_; }
  std::size_t cached_contexts() const { return contexts_.size(); }
  std::uint64_t frames_held() const { return frames_held_; }

  // Bookkeeping-only serialization: shadow trees are real frames whose
  // bytes ride the snapshot's memory section; the context map only records
  // which roots/tags belong to which guest CR3. The twin must have
  // identical Env wiring (same pool, same tag allocator state) before
  // LoadState overlays the map.
  Status SaveState(sim::SnapWriter& w) const;
  Status LoadState(sim::SnapReader& r);
  template <class Ar>
  void Io(Ar& ar);

 private:
  struct Context {
    hw::PhysAddr root = 0;
    hw::TlbTag tag = hw::kHostTag;
    std::uint64_t frames = 0;     // Frames in this tree, incl. the root.
    std::uint64_t last_use = 0;
    template <class Ar>
    void Io(Ar& ar) {
      ar.Io(root, tag, frames, last_use);
    }
  };

  // Per-context hardware tags in effect?
  bool tagged() const {
    return policy_.use_vpid && env_.cpu->model().has_guest_tlb_tags;
  }
  // Cache key for the running address space.
  std::uint64_t ActiveKey() const {
    return policy_.cache_contexts ? env_.gs->cr3 : 0;
  }

  Context& EnsureActive();
  Context& ContextFor(std::uint64_t key, bool* created);
  hw::PhysAddr AllocCounted(Context& ctx);
  // AllocCounted plus graceful degradation: on allocation failure, evict
  // the VM's own LRU dormant contexts one at a time and retry, so quota
  // pressure degrades into extra re-fills instead of a guest failure.
  hw::PhysAddr AllocWithPressure(Context& ctx);
  // Evict one LRU dormant context (never `keep`, never the active one) to
  // relieve allocation pressure. False when nothing is evictable.
  bool EvictOneForPressure(const Context* keep);
  // Free every table below `root` through `free`, then zero the root.
  void FreeBelow(hw::PhysAddr root,
                 const std::function<void(hw::PhysAddr)>& free);
  void FreeBelowRoot(Context& ctx);   // Tree minus root; root zeroed.
  void FreeTree(Context& ctx);        // Whole tree, including the root.
  void EnforceFrameBudget();

  Env env_;
  VtlbPolicy policy_;
  std::map<std::uint64_t, Context> contexts_;  // Keyed by ActiveKey().
  std::uint64_t active_key_ = 0;
  bool has_active_ = false;
  std::uint64_t use_clock_ = 0;
  std::uint64_t frames_held_ = 0;

  // Counted in the kernel's registry and traced on the owning CPU.
  EventCounter flushes_{*env_.stats, *env_.tracer, sim::TraceCat::kVtlb,
                        "vTLB Flush"};
  EventCounter switch_hits_{*env_.stats, *env_.tracer, sim::TraceCat::kVtlb,
                            "vTLB Context Hit"};
  EventCounter switch_misses_{*env_.stats, *env_.tracer, sim::TraceCat::kVtlb,
                              "vTLB Context Miss"};
  EventCounter evictions_{*env_.stats, *env_.tracer, sim::TraceCat::kVtlb,
                          "vTLB Context Evict"};
  EventCounter pressure_evictions_{*env_.stats, *env_.tracer,
                                   sim::TraceCat::kVtlb, "vTLB Pressure Evict"};
};

}  // namespace nova::hv

#endif  // SRC_HV_VTLB_H_
