// Kernel object base. The microhypervisor interface is organized around
// five object types (§5): protection domains, execution contexts,
// scheduling contexts, portals and semaphores.
#ifndef SRC_HV_OBJECT_H_
#define SRC_HV_OBJECT_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <type_traits>
#include <utility>

#include "src/hv/kmem.h"

namespace nova::hv {

enum class ObjType : std::uint8_t { kPd, kEc, kSc, kPt, kSm };

constexpr const char* ObjTypeName(ObjType type) {
  switch (type) {
    case ObjType::kPd:
      return "Pd";
    case ObjType::kEc:
      return "Ec";
    case ObjType::kSc:
      return "Sc";
    case ObjType::kPt:
      return "Pt";
    case ObjType::kSm:
      return "Sm";
  }
  return "?";
}

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

// What a checked downcast returns: RefAs below, CapSpace::LookupAs and
// Hypervisor::LookupCharged. It holds the object, or nothing when the
// capability is missing, dead, of another type or short of the required
// rights. Test it before use (`if (!pt)`, `pt == nullptr`): `->` and `*`
// on an empty handle abort and name the expected type, where a raw
// pointer would follow null. `P` is `T*` for an object the capability
// space keeps alive, `std::shared_ptr<T>` for one the caller holds.
template <class P>
class [[nodiscard]] Checked {
 public:
  using T = typename std::pointer_traits<P>::element_type;

  Checked() = default;
  explicit Checked(P ptr) : ptr_(std::move(ptr)) {}

  explicit operator bool() const { return ptr_ != nullptr; }
  friend bool operator==(const Checked& c, std::nullptr_t) {
    return c.ptr_ == nullptr;
  }

  // The object, or null: for passing on after the test.
  T* get() const {
    if constexpr (std::is_pointer_v<P>) {
      return ptr_;
    } else {
      return ptr_.get();
    }
  }
  // The caller's own reference, or null (shared_ptr handles only).
  const P& shared() const
    requires(!std::is_pointer_v<P>)
  {
    return ptr_;
  }

  T& operator*() const {
    if (ptr_ == nullptr) {
      std::fprintf(stderr,
                   "hv::Checked<%s>: dereferenced an empty handle (the "
                   "capability is missing, dead, of another type or short "
                   "of rights)\n",
                   ObjTypeName(T::kType));
      std::abort();
    }
    return *ptr_;
  }
  T* operator->() const { return &**this; }

 private:
  P ptr_{};
};

// Checked downcast of an object reference: empty unless the object is of
// the expected type. (A static_pointer_cast through the wrong dynamic type
// is undefined behaviour even if the result is discarded after a type
// check.)
template <typename T>
Checked<std::shared_ptr<T>> RefAs(ObjRef ref, ObjType type) {
  if (ref == nullptr || ref->type() != type) {
    return {};
  }
  return Checked(std::static_pointer_cast<T>(std::move(ref)));
}

}  // namespace nova::hv

#endif  // SRC_HV_OBJECT_H_
