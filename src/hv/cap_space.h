// Per-protection-domain capability space.
//
// Capabilities are opaque and immutable to user code: applications only
// hold integral selectors. The space maps selectors to (object, perms)
// pairs; delegation installs narrowed copies in other domains' spaces.
#ifndef SRC_HV_CAP_SPACE_H_
#define SRC_HV_CAP_SPACE_H_

#include <functional>
#include <utility>
#include <vector>

#include "src/hv/object.h"
#include "src/hv/types.h"
#include "src/sim/snapshot.h"
#include "src/sim/status.h"

namespace nova::hv {

struct Capability {
  ObjRef object;            // Null: empty slot.
  std::uint8_t perms = 0;

  bool Valid() const { return object != nullptr && !object->dead(); }
};

class CapSpace {
 public:
  CapSpace() : slots_(kCapSpaceSlots) {}

  // Install `cap` at `sel`. Fails with kOverflow when out of range,
  // kBusy when the slot is occupied, and kNoMem when committing the
  // backing chunk is refused by the owner's kernel-memory account.
  Status Insert(CapSel sel, Capability cap);

  // Selector space is committed lazily in chunks of kChunkSlots; the
  // first Insert into a chunk charges one kernel frame through this
  // callback (unset: no accounting, the pre-quota behaviour).
  static constexpr CapSel kChunkSlots = 256;
  using ChargeFn = std::function<bool(std::uint64_t frames)>;
  void set_charge_fn(ChargeFn fn) { charge_ = std::move(fn); }

  // Chunks committed so far (each is one charged kernel frame).
  std::uint64_t committed_chunks() const { return committed_count_; }

  // Look up a selector. Returns nullptr for empty, dead or out-of-range
  // slots. Cost is charged by the hypercall layer.
  const Capability* Lookup(CapSel sel) const;

  // Typed lookup with permission check.
  template <typename T>
  Checked<T*> LookupAs(CapSel sel, ObjType type, std::uint8_t required_perms) const {
    const Capability* cap = Lookup(sel);
    if (cap == nullptr || cap->object->type() != type ||
        (cap->perms & required_perms) != required_perms) {
      return {};
    }
    return Checked(static_cast<T*>(cap->object.get()));
  }

  // Keep the object alive: shared_ptr form of Lookup.
  ObjRef LookupRef(CapSel sel) const;

  Status Remove(CapSel sel);

  // First free selector at or after `from` (for kernel-chosen slots).
  CapSel FindFree(CapSel from) const;

  std::size_t used() const;

  // Drop every capability without touching the charge accounting (kernel
  // teardown; see ~Hypervisor).
  void Clear() { slots_.assign(slots_.size(), Capability{}); }

  // Snapshot field list. Occupied slots travel as (selector, object,
  // perms); `refs` encodes the object as its oid because the object
  // registry lives in the hypervisor (hv/snapshot.cc). Loading replaces
  // every slot and never invokes the charge callback: the owning account
  // is overlaid separately by the kernel snapshot.
  template <class Ar, class Refs>
  void Io(Ar& ar, Refs& refs) {
    ar.Io(committed_, committed_count_);
    std::vector<std::pair<CapSel, Capability>> used;
    if constexpr (Ar::kLoading) {
      slots_.assign(kCapSpaceSlots, Capability{});
    } else {
      for (CapSel sel = 0; sel < slots_.size(); ++sel) {
        if (slots_[sel].object != nullptr) {
          used.emplace_back(sel, slots_[sel]);
        }
      }
    }
    ar.Seq(sim::kCount32, used, [&](std::pair<CapSel, Capability>& e) {
      ar.Io(e.first);
      refs.Required(ar, e.second.object);
      ar.Io(e.second.perms);
      if constexpr (Ar::kLoading) {
        if (e.first >= slots_.size()) {
          ar.Fail();
        } else {
          slots_[e.first] = e.second;
        }
      }
    });
  }

 private:
  std::vector<Capability> slots_;
  ChargeFn charge_;
  std::uint32_t committed_ = 0;  // Bitmask, one bit per chunk.
  std::uint64_t committed_count_ = 0;
};

}  // namespace nova::hv

#endif  // SRC_HV_CAP_SPACE_H_
