// The virtual-TLB algorithm: software shadow paging for hardware without
// nested paging (§5.3).
//
// On a shadow-table miss the subsystem parses the real multi-level guest
// page table. Guest page tables contain guest-physical addresses; the
// paper's trick of running the hypervisor on the VM's host page table
// makes the GPA->HPA step free for the software walk (the MMU reinterprets
// GPAs as HVAs) — modelled here as a single memory access per guest level
// plus a recovery path for guest PTEs pointing outside mapped
// guest-physical memory. The final translation is installed in the shadow
// table of the *active context* — the shadow tree for the guest address
// space currently loaded in CR3 — which is what the hardware walker uses.
//
// With VtlbPolicy::cache_contexts the subsystem keeps one such context per
// guest CR3 value it has seen, so a MOV CR3 back to a known address space
// reuses the already-filled tree (§8.4's big lever). With
// VtlbPolicy::use_vpid on a tagged-TLB part, each context also keeps its
// own hardware tag, so the switch leaves the hardware TLB intact too.
#include "src/hv/vtlb.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace nova::hv {

namespace {

// Free every page-table frame strictly below `table`. `level` is the level
// of the entries *referenced by* `table` (Levels(mode) - 1 for the root):
// entries at level >= 1 point to child tables, which are freed; level-0
// entries and superpage leaves map data pages the vTLB does not own.
void FreeShadowLevel(hw::PhysMem& mem, hw::PagingMode mode, hw::PhysAddr table,
                     int level, const std::function<void(hw::PhysAddr)>& free) {
  const int entries = mode == hw::PagingMode::kTwoLevel ? 1024 : 512;
  const int esize = mode == hw::PagingMode::kTwoLevel ? 4 : 8;
  for (int i = 0; i < entries; ++i) {
    std::uint64_t entry = 0;
    (void)mem.Read(table + static_cast<std::uint64_t>(i) * esize, &entry, esize);
    if (!(entry & hw::pte::kPresent) || (entry & hw::pte::kLarge)) {
      continue;
    }
    if (level > 1) {
      FreeShadowLevel(mem, mode, entry & hw::pte::kAddrMask, level - 1, free);
    }
    if (level >= 1) {
      free(entry & hw::pte::kAddrMask);
    }
  }
}

}  // namespace

Vtlb::Vtlb(Env env, VtlbPolicy policy)
    : env_(std::move(env)),
      policy_(policy),
      flushes_(env_.stats->counter("vTLB Flush")),
      switch_hits_(env_.stats->counter("vTLB Context Hit")),
      switch_misses_(env_.stats->counter("vTLB Context Miss")),
      evictions_(env_.stats->counter("vTLB Context Evict")),
      pressure_evictions_(env_.stats->counter("vTLB Pressure Evict")),
      trace_flush_(env_.tracer->Intern("vTLB Flush")),
      trace_hit_(env_.tracer->Intern("vTLB Context Hit")),
      trace_miss_(env_.tracer->Intern("vTLB Context Miss")),
      trace_evict_(env_.tracer->Intern("vTLB Context Evict")),
      trace_pevict_(env_.tracer->Intern("vTLB Pressure Evict")) {}

Vtlb::~Vtlb() { DropAllContexts(); }

hw::PhysAddr Vtlb::AllocCounted(Context& ctx) {
  const hw::PhysAddr frame = env_.alloc();
  if (frame == 0) {
    return 0;  // Quota or pool exhausted; the caller runs the pressure path.
  }
  ++ctx.frames;
  ++frames_held_;
  return frame;
}

hw::PhysAddr Vtlb::AllocWithPressure(Context& ctx) {
  hw::PhysAddr frame = AllocCounted(ctx);
  while (frame == 0 && EvictOneForPressure(&ctx)) {
    frame = AllocCounted(ctx);
  }
  return frame;
}

bool Vtlb::EvictOneForPressure(const Context* keep) {
  // last_use stamps come from ++use_clock_ and are unique, so the
  // strict-min victim is walk-order independent.
  auto victim = contexts_.end();
  // nova-lint: allow(determinism) -- strict min over unique last_use stamps
  for (auto it = contexts_.begin(); it != contexts_.end(); ++it) {
    if (&it->second == keep || it->second.root == 0) {
      continue;
    }
    if (has_active_ && it->first == active_key_) {
      continue;  // The hardware is walking the active tree: pinned.
    }
    if (victim == contexts_.end() ||
        it->second.last_use < victim->second.last_use) {
      victim = it;
    }
  }
  if (victim == contexts_.end()) {
    return false;
  }
  Context& ctx = victim->second;
  if (ctx.tag != env_.ctl->base_tag) {
    env_.cpu->tlb().FlushTag(ctx.tag);
    env_.tags->Release(ctx.tag);
  }
  FreeTree(ctx);
  pressure_evictions_.Add();
  Mark(trace_pevict_, victim->first);
  contexts_.erase(victim);
  return true;
}

void Vtlb::FreeBelowRoot(Context& ctx) {
  if (ctx.root == 0) {
    return;
  }
  FreeShadowLevel(*env_.mem, env_.ctl->nested_format, ctx.root,
                  hw::Levels(env_.ctl->nested_format) - 1,
                  [this, &ctx](hw::PhysAddr f) {
                    env_.free(f);
                    --ctx.frames;
                    --frames_held_;
                  });
  (void)env_.mem->Zero(ctx.root, hw::kPageSize);
}

void Vtlb::FreeTree(Context& ctx) {
  if (ctx.root == 0) {
    return;
  }
  FreeBelowRoot(ctx);
  env_.free(ctx.root);
  ctx.root = 0;
  --ctx.frames;
  --frames_held_;
}

Vtlb::Context& Vtlb::ContextFor(std::uint64_t key, bool* created) {
  auto [it, inserted] = contexts_.try_emplace(key);
  Context& ctx = it->second;
  if (inserted) {
    // Non-tagged parts (and the naive policy) keep running under the VM's
    // identity tag; tagged parts give each guest address space its own
    // VPID so its hardware-TLB entries survive dormancy.
    ctx.tag = tagged() ? env_.tags->Allocate() : env_.ctl->base_tag;
  }
  if (created != nullptr) {
    *created = inserted;
  }
  return ctx;
}

Vtlb::Context& Vtlb::EnsureActive() {
  const std::uint64_t key = ActiveKey();
  Context& ctx = ContextFor(key, nullptr);
  if (ctx.root == 0) {
    // The seed adopted a caller-provided shadow root; keep that quirk so a
    // VMM that pre-allocates the root sees identical behaviour. A root
    // equal to the host table means "unset" (the kNested default).
    if (env_.ctl->nested_root != 0 && env_.ctl->nested_root != env_.pd_root &&
        !has_active_) {
      ctx.root = env_.ctl->nested_root;
      ++ctx.frames;
      ++frames_held_;
    } else {
      // May stay 0 under hard quota pressure; Resolve reports kNoMem and
      // the next attempt retries once frames have been credited back.
      ctx.root = AllocWithPressure(ctx);
    }
  }
  active_key_ = key;
  has_active_ = true;
  ctx.last_use = ++use_clock_;
  env_.ctl->nested_root = ctx.root;
  if (tagged()) {
    env_.ctl->tag = ctx.tag;
  }
  return ctx;
}

Vtlb::Outcome Vtlb::Resolve(const hw::VmExit& exit, std::uint64_t* gpa_out) {
  hw::Cpu& c = *env_.cpu;
  const hw::CpuModel& model = c.model();
  hw::GuestState& gs = *env_.gs;
  hw::PhysMem& mem = *env_.mem;
  hw::PageTable& host = *env_.host;

  // Determining the cause of the vTLB miss requires reading six VMCS
  // fields (§8.4, Figure 9).
  const sim::Cycles read_cost = model.vmread != 0 ? model.vmread : model.mem_access;
  c.Charge(6 * read_cost);
  c.Charge(env_.costs->vtlb_fill_base);

  const std::uint64_t gva = exit.gva;
  const hw::Access access{.write = exit.is_write, .user = false};

  std::uint64_t gpa = gva;
  std::uint64_t guest_page = hw::kPageSize;
  std::uint64_t guest_leaf = hw::pte::kWritable | hw::pte::kUser;
  if (gs.paging) {
    // Parse the real guest page table (two-level 32-bit format).
    std::uint64_t table_gpa = gs.cr3;
    for (int level = 1; level >= 0; --level) {
      const int shift = 12 + 10 * level;
      const std::uint64_t index = (gva >> shift) & 0x3ff;
      const std::uint64_t entry_gpa = table_gpa + index * 4;

      // GPA->HPA for the entry: with the host-page-table trick this is a
      // direct dereference; the walk below models the recovery check for
      // entries pointing outside the mapped guest-physical space.
      const hw::WalkResult hx =
          host.Walk(entry_gpa, hw::Access{.write = false}, /*set_ad=*/false);
      if (!Ok(hx.status)) {
        *gpa_out = entry_gpa;
        return Outcome::kHostFault;
      }
      std::uint64_t entry = 0;
      (void)mem.Read(hx.pa, &entry, 4);
      c.Charge(model.mem_access);  // One dereference per guest level.

      if (!(entry & hw::pte::kPresent) ||
          (access.write && !(entry & hw::pte::kWritable))) {
        return Outcome::kGuestFault;
      }

      const bool leaf = level == 0 || (entry & hw::pte::kLarge) != 0;
      std::uint64_t updated = entry | hw::pte::kAccessed;
      if (leaf && access.write) {
        updated |= hw::pte::kDirty;
      }
      if (updated != entry) {
        (void)mem.Write(hx.pa, &updated, 4);
        c.Charge(model.mem_access);
        entry = updated;
      }
      if (leaf) {
        guest_page = level == 0 ? hw::kPageSize : (4ull << 20);
        gpa = (entry & hw::pte::kAddrMask & ~(guest_page - 1)) |
              (gva & (guest_page - 1));
        guest_leaf = entry;
        break;
      }
      table_gpa = entry & hw::pte::kAddrMask;
    }
  }

  // Final GPA->HPA through the VM's host page table.
  const hw::WalkResult fx = host.Walk(gpa, access, /*set_ad=*/false);
  c.Charge(static_cast<sim::Cycles>(fx.accesses) * model.mem_access);
  if (!Ok(fx.status)) {
    *gpa_out = gpa;
    return Outcome::kHostFault;  // Unmapped guest-physical: MMIO.
  }

  // Install the shadow entry. Writable only once the guest dirty bit is
  // set, so the first write to a clean page faults back into the vTLB.
  const bool host_writable = (fx.pte & hw::pte::kWritable) != 0;
  const bool guest_writable = (guest_leaf & hw::pte::kWritable) != 0;
  const bool dirty = (guest_leaf & hw::pte::kDirty) != 0 || !gs.paging;
  std::uint64_t flags = hw::pte::kUser;
  if (guest_writable && host_writable && (dirty || access.write)) {
    flags |= hw::pte::kWritable | hw::pte::kDirty;
  }

  Context& ctx = EnsureActive();
  *gpa_out = gpa;
  if (ctx.root == 0) {
    return Outcome::kNoMem;  // Could not even build a shadow root.
  }
  hw::PageTable shadow(&mem, env_.ctl->nested_format, ctx.root);
  // Shadow granularity: a guest superpage can only be shadowed at host
  // superpage granularity when the backing is contiguous; install the
  // covering 4 KiB entry otherwise. We install 4 KiB entries always —
  // simple and faithful to fill-on-demand behaviour.
  const std::uint64_t page_va = gva & ~(hw::kPageSize - 1);
  const std::uint64_t page_pa = fx.pa & ~(hw::kPageSize - 1);
  // Graceful degradation: a failed table-node allocation evicts one LRU
  // dormant context and retries the fill, so a quota-pinched VM trades
  // re-fills for forward progress instead of failing.
  Status ms = shadow.Map(page_va, page_pa, hw::kPageSize, flags,
                         [this, &ctx] { return AllocCounted(ctx); });
  while (ms == Status::kOverflow && EvictOneForPressure(&ctx)) {
    ms = shadow.Map(page_va, page_pa, hw::kPageSize, flags,
                    [this, &ctx] { return AllocCounted(ctx); });
  }
  c.Charge(env_.costs->map_page);
  if (!Ok(ms)) {
    return Outcome::kNoMem;
  }
  EnforceFrameBudget();
  return Outcome::kFilled;
}

void Vtlb::HandleMovCr3(std::uint64_t new_cr3) {
  if (!policy_.cache_contexts) {
    env_.gs->cr3 = new_cr3;
    Flush();
    return;
  }

  const bool same_space = has_active_ && new_cr3 == active_key_;
  env_.gs->cr3 = new_cr3;
  if (same_space) {
    // Reloading the running CR3 is x86's explicit full-flush request for
    // this address space: the guest may have edited its page tables, so
    // the shadow tree cannot be trusted.
    auto it = contexts_.find(active_key_);
    if (it == contexts_.end() || it->second.root == 0) {
      return;
    }
    FreeBelowRoot(it->second);
    env_.cpu->tlb().FlushTag(it->second.tag);
    env_.cpu->Charge(env_.cpu->model().tlb_flush);
    flushes_.Add();
    Mark(trace_flush_, new_cr3);
    return;
  }

  // Switch to the context for the new address space; build it lazily on
  // first sight. Switching to a *different* CR3 needs no shadow
  // invalidation: page-table edits must be advertised by INVLPG or a
  // same-CR3 reload, both of which we apply across all cached contexts.
  bool created = false;
  Context& ctx = ContextFor(new_cr3, &created);
  const bool hit = !created && ctx.root != 0;
  if (ctx.root == 0) {
    // Under pressure the root may stay unallocated; the vCPU's next page
    // fault retries through Resolve once frames are credited back.
    ctx.root = AllocWithPressure(ctx);
  }
  (hit ? switch_hits_ : switch_misses_).Add();
  Mark(hit ? trace_hit_ : trace_miss_, new_cr3);
  active_key_ = new_cr3;
  has_active_ = true;
  ctx.last_use = ++use_clock_;
  env_.ctl->nested_root = ctx.root;
  if (tagged()) {
    // Tagged TLB: the context switch is a tag switch. The dormant
    // context's hardware-TLB entries stay live under its own VPID.
    env_.ctl->tag = ctx.tag;
  } else {
    // Untagged part: all contexts share the VM's identity tag, so the
    // hardware TLB must be flushed exactly as on real silicon.
    env_.ctl->tag = env_.ctl->base_tag;
    env_.cpu->tlb().FlushTag(env_.ctl->base_tag);
    env_.cpu->Charge(env_.cpu->model().tlb_flush);
  }
  env_.cpu->Charge(env_.costs->addr_space_switch);
  EnforceFrameBudget();
}

void Vtlb::HandleInvlpg(std::uint64_t gva) {
  if (contexts_.empty() && env_.ctl->nested_root == 0) {
    return;
  }
  if (contexts_.empty()) {
    // Adopted-root quirk before the first fill: operate on the raw root.
    hw::PageTable shadow(env_.mem, env_.ctl->nested_format,
                         env_.ctl->nested_root);
    (void)shadow.Unmap(gva & ~(hw::kPageSize - 1));
    env_.cpu->tlb().FlushVa(env_.ctl->tag, gva);
    env_.cpu->Charge(env_.costs->map_page);
    return;
  }
  // Invalidation invariant: the translation dies in *every* cached
  // context and under every context tag, so it cannot resurface when a
  // dormant address space is switched back in. Each context's shadow tree
  // is disjoint, Unmap frees nothing, and Charge sums — order cannot show.
  // nova-lint: allow(determinism) -- independent per-context ops, no frees
  for (auto& [key, ctx] : contexts_) {
    if (ctx.root == 0) {
      continue;
    }
    hw::PageTable shadow(env_.mem, env_.ctl->nested_format, ctx.root);
    (void)shadow.Unmap(gva & ~(hw::kPageSize - 1));
    env_.cpu->tlb().FlushVa(ctx.tag, gva);
    env_.cpu->Charge(env_.costs->map_page);
  }
}

void Vtlb::Flush() {
  if (contexts_.empty() && env_.ctl->nested_root == 0) {
    return;
  }
  if (contexts_.empty()) {
    // Adopted root, nothing tracked yet: free its subtree in place. Its
    // frames were never counted against this Vtlb, so bypass the counted
    // helpers. A root equal to the host table means "unset" — never free
    // the VM's real page table.
    if (env_.ctl->nested_root == env_.pd_root) {
      return;
    }
    FreeShadowLevel(*env_.mem, env_.ctl->nested_format, env_.ctl->nested_root,
                    hw::Levels(env_.ctl->nested_format) - 1,
                    [this](hw::PhysAddr f) { env_.free(f); });
    (void)env_.mem->Zero(env_.ctl->nested_root, hw::kPageSize);
  } else {
    // Drop every dormant context outright; the active tree survives with
    // a zeroed root because the VMCS still points at it. Walk in sorted
    // key order: tags and frames are released into LIFO free lists, so a
    // hash-order walk would tie recycling order to the hash seed.
    std::vector<std::uint64_t> keys;
    keys.reserve(contexts_.size());
    // nova-lint: allow(determinism) -- key collection, sorted before use
    for (const auto& [key, ctx] : contexts_) {
      keys.push_back(key);
    }
    std::sort(keys.begin(), keys.end());
    for (const std::uint64_t key : keys) {
      const auto it = contexts_.find(key);
      Context& ctx = it->second;
      if (has_active_ && key == active_key_) {
        FreeBelowRoot(ctx);
        continue;
      }
      if (ctx.tag != env_.ctl->base_tag) {
        env_.cpu->tlb().FlushTag(ctx.tag);
        env_.tags->Release(ctx.tag);
      }
      FreeTree(ctx);
      contexts_.erase(it);
    }
  }
  env_.cpu->tlb().FlushTag(env_.ctl->tag);
  env_.cpu->Charge(env_.cpu->model().tlb_flush);
  flushes_.Add();
  Mark(trace_flush_, env_.gs->cr3);
}

void Vtlb::DropAllContexts() {
  // Sorted key order: tag and frame recycling below feeds LIFO free
  // lists, so the walk order decides what later allocations hand out.
  std::vector<std::uint64_t> keys;
  keys.reserve(contexts_.size());
  // nova-lint: allow(determinism) -- key collection, sorted before use
  for (const auto& [key, ctx] : contexts_) {
    keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  for (const std::uint64_t key : keys) {
    Context& ctx = contexts_.at(key);
    if (ctx.tag != env_.ctl->base_tag) {
      // Released tags are recycled, so their hardware-TLB entries must not
      // outlive the context. The VM's identity tag is the revoke path's
      // responsibility.
      env_.cpu->tlb().FlushTag(ctx.tag);
      env_.tags->Release(ctx.tag);
    }
    FreeTree(ctx);
  }
  contexts_.clear();
  has_active_ = false;
  env_.ctl->nested_root = 0;
  env_.ctl->tag = env_.ctl->base_tag;
}

void Vtlb::EnforceFrameBudget() {
  if (!policy_.cache_contexts) {
    return;
  }
  while (frames_held_ > policy_.max_cached_frames) {
    // Evict the least recently used *dormant* context; the active tree is
    // pinned (the hardware is walking it). last_use stamps are unique
    // (++use_clock_), so the strict-min victim is walk-order independent.
    auto victim = contexts_.end();
    // nova-lint: allow(determinism) -- strict min over unique last_use stamps
    for (auto it = contexts_.begin(); it != contexts_.end(); ++it) {
      if (has_active_ && it->first == active_key_) {
        continue;
      }
      if (victim == contexts_.end() ||
          it->second.last_use < victim->second.last_use) {
        victim = it;
      }
    }
    if (victim == contexts_.end()) {
      return;  // Only the active context remains; it may exceed the budget.
    }
    Context& ctx = victim->second;
    if (ctx.tag != env_.ctl->base_tag) {
      env_.cpu->tlb().FlushTag(ctx.tag);
      env_.tags->Release(ctx.tag);
    }
    FreeTree(ctx);
    evictions_.Add();
    Mark(trace_evict_, victim->first);
    contexts_.erase(victim);
  }
}

template <class Ar>
void Vtlb::Io(Ar& ar) {
  // The twin's lazily-attached Vtlb starts empty (fresh boot never ran a
  // shadow fill before the checkpoint overlay), so there is nothing to
  // free here; the restored roots are pool frames whose contents arrived
  // with the memory section. The counters alias the kernel StatRegistry
  // and travel with it; trace ids are interned at construction.
  if constexpr (Ar::kLoading) {
    contexts_.clear();
  }
  ar.Keyed(sim::kCount64, contexts_);
  ar.Io(active_key_, has_active_, use_clock_, frames_held_);
}

Status Vtlb::SaveState(sim::SnapWriter& w) const { return w.Save(*this); }
Status Vtlb::LoadState(sim::SnapReader& r) { return r.Restore(*this); }

}  // namespace nova::hv
