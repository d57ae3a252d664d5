// Kernel checkpoint/restore: serialization of the hypervisor's mutable
// state (see DESIGN.md §13).
//
// Identity model: objects are addressed by creation-order oid; the
// restore target is a *twin* — a Hypervisor whose scenario construction
// ran the identical creation sequence, so oid i names the equivalent
// object on both sides. Loading overlays mutable state onto the twin's
// objects; immutable construction parameters (names, kinds, home CPUs,
// priorities) are verified, not restored, so a mismatched twin fails
// loudly instead of silently diverging.
#include <memory>
#include <type_traits>
#include <vector>

#include "src/hv/kernel.h"

namespace nova::hv {
namespace {

// Kernel-object references travel as oids, kNoOid for null; loading
// resolves them in the twin's registry.
class OidRefs {
 public:
  explicit OidRefs(const Hypervisor& hv) : hv_(hv) {}

  // Null, or an oid naming no object of the pointee's type, loads as null.
  template <class Ar, class P>
  void Io(Ar& ar, P& ref) {
    Visit(ar, ref, /*required=*/false);
  }
  // Must name a registered object of the pointee's type, in both
  // directions.
  template <class Ar, class P>
  void Required(Ar& ar, P& ref) {
    Visit(ar, ref, /*required=*/true);
  }

 private:
  template <class Ar, class P>
  void Visit(Ar& ar, P& ref, bool required) {
    using T = typename std::pointer_traits<P>::element_type;
    std::uint64_t oid = ref == nullptr ? KObject::kNoOid : ref->oid();
    ar.Io(oid);
    if constexpr (Ar::kLoading) {
      std::shared_ptr<T> obj;
      if constexpr (std::is_same_v<T, KObject>) {
        obj = hv_.ObjectByOid(oid);
      } else {
        obj = RefAs<T>(hv_.ObjectByOid(oid), T::kType).shared();
      }
      if constexpr (std::is_pointer_v<P>) {
        ref = obj == nullptr ? nullptr : obj.get();
      } else {
        ref = std::move(obj);
      }
    }
    if (required && (oid == KObject::kNoOid || ref == nullptr)) {
      ar.Fail();
    }
  }

  const Hypervisor& hv_;
};

}  // namespace

template <class Ar>
void Hypervisor::Io(Ar& ar) {
  OidRefs refs(*this);
  // Every registered object, held for the whole visit. An expired entry
  // means a checkpoint racing domain destruction — refuse rather than
  // guess — or a twin that already destroyed something; holding the rest
  // keeps each object and its charge alive while references are rewritten.
  std::vector<ObjRef> objs;
  objs.reserve(objects_.size());
  for (const std::weak_ptr<KObject>& slot : objects_) {
    objs.push_back(slot.lock());
    if (objs.back() == nullptr) {
      ar.Fail();
      return;
    }
  }

  // Pool / allocator / boot state, kernel stat registry (Table 2
  // counters) and per-CPU VM engines.
  ar.Io(kernel_reserve_, pool_next_);
  ar.Seq(sim::kCount64, pool_free_);
  ar.Io(boot_cpu_for_step_, sched_lock_, mdb_lock_, xcall_lock_, tlb_tags_,
        vtlb_policy_, stats_);
  ar.Verify(static_cast<std::uint32_t>(engines_.size()));
  for (auto& engine : engines_) {
    ar.Io(*engine);
  }

  // Object graph, in creation (oid) order.
  ar.Verify(std::uint64_t{objects_.size()});
  for (const ObjRef& obj : objs) {
    ar.Verify(obj->type());
    bool dead = obj->dead();
    ar.Io(dead);
    if (!ar.ok()) {
      return;
    }
    if constexpr (Ar::kLoading) {
      if (dead) {
        obj->MarkDead();
      }
    }
    switch (obj->type()) {
      case ObjType::kPd:
        static_cast<Pd&>(*obj).Io(ar, refs);
        break;
      case ObjType::kEc: {
        auto& ec = static_cast<Ec&>(*obj);
        ec.Io(ar, refs);
        bool has_vtlb = ec.vtlb() != nullptr;
        ar.Io(has_vtlb);
        if (has_vtlb) {
          // Attaches the twin's vTLB, which it has not needed yet.
          Vtlb& vtlb = VtlbFor(&ec);
          ar.Io(vtlb);
        }
        break;
      }
      case ObjType::kSc:
        static_cast<Sc&>(*obj).Io(ar, refs);
        break;
      case ObjType::kPt:
        static_cast<Pt&>(*obj).Io(ar, refs);
        break;
      case ObjType::kSm:
        static_cast<Sm&>(*obj).Io(ar, refs);
        break;
    }
  }

  // GSI bindings. Snapshots run with the machine quiesced; no delivery or
  // rebind can race them.
  for (auto& sm : gsi_sms_.Get(SerialPhase::kQuiescedSnapshot)) {
    refs.Io(ar, sm);
  }
  for (auto& ec : gsi_direct_.Get(SerialPhase::kQuiescedSnapshot)) {
    refs.Io(ar, ec);
  }
  if constexpr (Ar::kLoading) {
    // Delivery indexes these tables by vector - 32, the kernel routing GSI
    // g at vector 32 + g: a pending vector past them in the machine's IRQ
    // chip, restored before this section, can only be forged.
    ForEachCpu(machine_->num_cpus(), [&](CpuId c) {
      const std::vector<std::uint8_t> pending =
          machine_->irq().PendingVectors(c);
      if (!pending.empty() && pending.front() >= 32 + hw::kNumGsis) {
        ar.Fail(Status::kBadParameter);
      }
    });
  }

  // Per-core scheduler state, core by core.
  ar.Verify(static_cast<std::uint32_t>(machine_->num_cpus()));
  ForEachCpu(machine_->num_cpus(), [&](CpuId c) {
    CpuState& state = cpu_state(c);
    Sc* current = state.current();
    std::vector<Sc*> ready;  // Dequeue order: priority-descending, FIFO.
    if constexpr (!Ar::kLoading) {
      state.CollectReady(&ready);
    }
    refs.Io(ar, current);
    ar.Seq(sim::kCount32, ready, [&](Sc*& sc) { refs.Required(ar, sc); });
    ar.Seq(sim::kCount32, state.halted(),
           [&](std::shared_ptr<Ec>& ec) { refs.Required(ar, ec); });
    if constexpr (Ar::kLoading) {
      state.SetCurrent(current);
      state.ClearReady();
      // Enqueueing in the saved dequeue order reproduces the exact deque
      // contents; the queued flag was already overlaid, so drop it for the
      // guard and re-set it via Enqueue.
      for (Sc* sc : ready) {
        if (sc != nullptr) {
          sc->set_queued(false);
          state.Enqueue(sc);
        }
      }
    }
  });

  // Mapping database and root sanity anchor.
  mdb_.Get(SerialPhase::kQuiescedSnapshot).Io(ar, refs);
  ar.Verify(root_pd_ == nullptr ? KObject::kNoOid : root_pd_->oid());
}

Status Hypervisor::SaveState(sim::SnapWriter& w) const { return w.Save(*this); }
Status Hypervisor::LoadState(sim::SnapReader& r) { return r.Restore(*this); }

}  // namespace nova::hv
