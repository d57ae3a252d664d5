// Kernel object base. The microhypervisor interface is organized around
// five object types (§5): protection domains, execution contexts,
// scheduling contexts, portals and semaphores.
#ifndef SRC_HV_OBJECT_H_
#define SRC_HV_OBJECT_H_

#include <cstdint>
#include <memory>
#include <utility>

#include "src/hv/kmem.h"

namespace nova::hv {

enum class ObjType : std::uint8_t { kPd, kEc, kSc, kPt, kSm };

class KObject {
 public:
  explicit KObject(ObjType type) : type_(type) {}
  virtual ~KObject() = default;

  KObject(const KObject&) = delete;
  KObject& operator=(const KObject&) = delete;

  ObjType type() const { return type_; }

  // Creation-order object id, assigned by the hypervisor's object registry
  // at creation. Snapshots address kernel objects by oid: a twin system
  // constructed from the identical scenario assigns identical oids, so a
  // restored reference resolves to the equivalent object.
  static constexpr std::uint64_t kNoOid = ~0ull;
  std::uint64_t oid() const { return oid_; }
  void set_oid(std::uint64_t oid) { oid_ = oid; }

  // Set when the object has been destroyed via its control capability;
  // dangling capabilities elsewhere become dead.
  bool dead() const { return dead_; }
  void MarkDead() { dead_ = true; }

  // The charge that paid for this object, handed over when the kernel
  // publishes it. It credits the owning PD's account chain when the last
  // capability drops and the object is destroyed (a dead object can
  // outlive its domain's reclaim).
  void set_kmem_charge(KmemCharge charge) { kmem_charge_ = std::move(charge); }

 private:
  ObjType type_;
  std::uint64_t oid_ = kNoOid;
  bool dead_ = false;
  KmemCharge kmem_charge_;
};

using ObjRef = std::shared_ptr<KObject>;

// Checked downcast for capability lookups: null unless the object is of
// the expected type. (A static_pointer_cast through the wrong dynamic type
// is undefined behaviour even if the result is discarded after a type
// check.)
template <typename T>
std::shared_ptr<T> RefAs(ObjRef ref, ObjType type) {
  if (ref == nullptr || ref->type() != type) {
    return nullptr;
  }
  return std::static_pointer_cast<T>(std::move(ref));
}

}  // namespace nova::hv

#endif  // SRC_HV_OBJECT_H_
