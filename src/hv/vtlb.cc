// The virtual-TLB algorithm: software shadow paging for hardware without
// nested paging (§5.3).
//
// On a shadow-table miss the subsystem parses the real multi-level guest
// page table. Guest page tables contain guest-physical addresses; the
// paper's trick of running the hypervisor on the VM's host page table
// makes the GPA->HPA step free for the software walk (the MMU reinterprets
// GPAs as HVAs) — modelled here as hw::PageTable's guest walk, charged one
// memory access per entry read or A/D write, whose resolver is the
// uncharged host walk: it only catches guest tables outside mapped
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

#include <utility>

namespace nova::hv {

Vtlb::Vtlb(Env env, VtlbPolicy policy)
    : env_(std::move(env)), policy_(policy) {}

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
  auto victim = contexts_.end();
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
  pressure_evictions_.Count(*env_.cpu, victim->first);
  contexts_.erase(victim);
  return true;
}

void Vtlb::FreeBelow(hw::PhysAddr root,
                     const std::function<void(hw::PhysAddr)>& free) {
  // FreeTables releases children before their parent. The order matters:
  // the LIFO pool hands the frames out again in reverse.
  hw::PageTable(env_.mem, env_.ctl->nested_format, root)
      .FreeTables([&](hw::PhysAddr f) {
        if (f != root) {
          free(f);
        }
      });
  (void)env_.mem->Zero(root, hw::kPageSize);
}

void Vtlb::FreeBelowRoot(Context& ctx) {
  if (ctx.root == 0) {
    return;
  }
  FreeBelow(ctx.root, [this, &ctx](hw::PhysAddr f) {
    env_.free(f);
    --ctx.frames;
    --frames_held_;
  });
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
  // Without guest paging every access is to a writable, already-dirty page.
  bool guest_writable = true;
  bool guest_dirty = true;
  if (gs.paging) {
    // Parse the real guest page table. Each entry's GPA->HPA step is the
    // free host walk (the host-page-table trick, see above); a guest table
    // outside mapped guest-physical memory ends the walk as a host fault.
    const auto resolve = [&host](hw::PhysAddr entry_gpa) {
      const hw::WalkResult hx =
          host.Walk(entry_gpa, hw::Access{.write = false}, /*set_ad=*/false);
      return Ok(hx.status) ? hx.pa : hw::kNoHpa;
    };
    const hw::WalkResult w = hw::PageTable(&mem, hw::PagingMode::kTwoLevel, gs.cr3)
                                 .Walk(gva, access, /*set_ad=*/true, resolve);
    c.Charge(static_cast<sim::Cycles>(w.accesses) * model.mem_access);
    if (w.table_fault) {
      *gpa_out = w.pte_addr;
      return Outcome::kHostFault;
    }
    if (!Ok(w.status)) {
      return Outcome::kGuestFault;
    }
    gpa = w.pa;
    guest_writable = w.writable();
    guest_dirty = w.dirty();
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
  std::uint64_t flags = hw::pte::kUser;
  if (guest_writable && fx.writable() && (guest_dirty || access.write)) {
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
    flushes_.Count(*env_.cpu, new_cr3);
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
  (hit ? switch_hits_ : switch_misses_).Count(*env_.cpu, new_cr3);
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
  // dormant address space is switched back in.
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
    FreeBelow(env_.ctl->nested_root, env_.free);
  } else {
    // Drop every dormant context outright; the active tree survives with
    // a zeroed root because the VMCS still points at it. The map walks in
    // key order, so the LIFO tag and frame pools recycle deterministically.
    for (auto it = contexts_.begin(); it != contexts_.end();) {
      Context& ctx = it->second;
      if (has_active_ && it->first == active_key_) {
        FreeBelowRoot(ctx);
        ++it;
        continue;
      }
      if (ctx.tag != env_.ctl->base_tag) {
        env_.cpu->tlb().FlushTag(ctx.tag);
        env_.tags->Release(ctx.tag);
      }
      FreeTree(ctx);
      it = contexts_.erase(it);
    }
  }
  env_.cpu->tlb().FlushTag(env_.ctl->tag);
  env_.cpu->Charge(env_.cpu->model().tlb_flush);
  flushes_.Count(*env_.cpu, env_.gs->cr3);
}

void Vtlb::DropAllContexts() {
  // The map walks in key order: tag and frame recycling below feeds LIFO
  // free lists, so the walk order decides what later allocations hand out.
  for (auto& [key, ctx] : contexts_) {
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
    // pinned (the hardware is walking it).
    auto victim = contexts_.end();
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
    evictions_.Count(*env_.cpu, victim->first);
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
