// The five kernel object types of the microhypervisor (§5): protection
// domains, execution contexts, scheduling contexts, portals, semaphores.
#ifndef SRC_HV_OBJECTS_H_
#define SRC_HV_OBJECTS_H_

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/hw/guest_state.h"
#include "src/hv/cap_space.h"
#include "src/hv/kmem.h"
#include "src/hv/object.h"
#include "src/hv/spaces.h"
#include "src/hv/types.h"
#include "src/hv/utcb.h"

namespace nova::hv {

class Ec;
class Sc;
class Sm;
class Vtlb;

// Protection domain: spatial isolation. Acts as a resource container and
// abstracts from the difference between a user application and a VM.
class Pd : public KObject {
 public:
  static constexpr ObjType kType = ObjType::kPd;

  Pd(std::string name, bool is_vm, hw::PhysMem* mem, hw::PagingMode mode,
     hw::PhysAddr pt_root, KmemPool* pool)
      : KObject(kType),
        name_(std::move(name)),
        is_vm_(is_vm),
        pool_(pool),
        // Page-table frames charged here are credited by MemSpace's
        // teardown walk (spaces.cc), not in this file.
        mem_space_(mem, mode, pt_root,
                   [this] { return pool_->AllocFrameFor(this); }) {
    // Capability-space chunks are credited when the domain dies
    // (Hypervisor::FreeDomainMemory).
    caps_.set_charge_fn([this](std::uint64_t frames) {
      return ChargeKmem(frames);
    });
  }

  const std::string& name() const { return name_; }
  bool is_vm() const { return is_vm_; }

  // Kernel-memory account (frames). Charges walk the donor chain to the
  // nearest bounded account; every account on the path records the usage
  // so used() always reflects this PD's subtree.
  KmemQuota& kmem() { return kmem_; }
  const KmemQuota& kmem() const { return kmem_; }
  const std::shared_ptr<Pd>& kmem_donor() const { return kmem_donor_; }
  void set_kmem_donor(std::shared_ptr<Pd> donor) {
    kmem_donor_ = std::move(donor);
  }

  [[nodiscard]] bool ChargeKmem(std::uint64_t frames) {
    Pd* terminal = this;
    while (!terminal->kmem_.bounded() && terminal->kmem_donor_ != nullptr) {
      terminal = terminal->kmem_donor_.get();
    }
    if (!terminal->kmem_.TryCharge(frames)) {
      return false;
    }
    for (Pd* pd = this; pd != terminal; pd = pd->kmem_donor_.get()) {
      pd->kmem_.RecordCharge(frames);
    }
    return true;
  }

  void CreditKmem(std::uint64_t frames) {
    Pd* pd = this;
    while (true) {
      pd->kmem_.Credit(frames);
      if (pd->kmem_.bounded() || pd->kmem_donor_ == nullptr) break;
      pd = pd->kmem_donor_.get();
    }
  }

  CapSpace& caps() { return caps_; }
  const CapSpace& caps() const { return caps_; }
  MemSpace& mem_space() { return mem_space_; }
  IoSpace& io_space() { return io_space_; }

  // TLB tag (VPID/ASID) assigned to this domain when it is a VM.
  hw::TlbTag vm_tag() const { return vm_tag_; }
  void set_vm_tag(hw::TlbTag tag) { vm_tag_ = tag; }

  // DMA-capable devices assigned to this domain; detached on destroy so
  // a dead driver domain can no longer program DMA.
  std::vector<std::uint16_t>& assigned_devices() { return devices_; }

  // Cores whose TLBs may hold translations tagged with this domain's
  // vm_tag (bit i = CPU i). Maintained by the vCPU dispatch path and
  // consumed by the shootdown protocol: only cores in the mask receive
  // an IPI on unmap/invalidate.
  std::uint64_t cores_mask() const { return cores_mask_; }
  void NoteCore(std::uint32_t cpu_id) { cores_mask_ |= 1ull << cpu_id; }
  void ClearCores() { cores_mask_ = 0; }
  // Snapshot field list; `refs` encodes kernel-object references as oids
  // (hv/snapshot.cc). Name and kind are construction invariants.
  template <class Ar, class Refs>
  void Io(Ar& ar, Refs& refs) {
    ar.Verify(name_);
    ar.Verify(is_vm_);
    ar.Io(kmem_);
    refs.Io(ar, kmem_donor_);
    caps_.Io(ar, refs);
    ar.Io(mem_space_, io_space_, vm_tag_);
    ar.Seq(sim::kCount32, devices_);
    ar.Io(cores_mask_);
  }

 private:
  std::string name_;
  bool is_vm_;
  KmemPool* pool_;
  KmemQuota kmem_;
  std::shared_ptr<Pd> kmem_donor_;
  CapSpace caps_;
  MemSpace mem_space_;
  IoSpace io_space_;
  hw::TlbTag vm_tag_ = hw::kHostTag;
  std::vector<std::uint16_t> devices_;
  std::uint64_t cores_mask_ = 0;
};

// Execution context: a thread, a dedicated event handler, or a virtual CPU.
class Ec : public KObject {
 public:
  static constexpr ObjType kType = ObjType::kEc;

  enum class Kind : std::uint8_t {
    kLocal,   // Portal handler; runs only on incoming IPC (no own SC).
    kGlobal,  // Thread with its own scheduling context.
    kVcpu,    // Virtual CPU of a VM.
  };

  enum class BlockState : std::uint8_t {
    kRunnable,
    kBlockedSm,    // Waiting in a semaphore queue.
    kBlockedHalt,  // Halted vCPU waiting for an interrupt or recall.
  };

  // A local EC's handler: invoked when a portal bound to it is called.
  // The message is in utcb(); the handler's return is the reply.
  using Handler = std::function<void(std::uint64_t portal_id)>;
  // A global EC's body: invoked when scheduled; must perform a bounded
  // chunk of work and return (it is re-invoked while runnable).
  using StepFn = std::function<void()>;

  Ec(Kind kind, std::shared_ptr<Pd> pd, std::uint32_t cpu)
      : KObject(kType), kind_(kind), pd_(std::move(pd)), cpu_(cpu) {}

  Kind kind() const { return kind_; }
  Pd& pd() { return *pd_; }
  std::shared_ptr<Pd> pd_ref() { return pd_; }
  CpuId cpu() const { return CpuId(cpu_); }

  Utcb& utcb() { return utcb_; }

  Handler& handler() { return handler_; }
  void set_handler(Handler h) { handler_ = std::move(h); }
  StepFn& step_fn() { return step_fn_; }
  void set_step_fn(StepFn f) { step_fn_ = std::move(f); }

  // vCPU state (kind kVcpu only).
  hw::GuestState& gstate() { return gstate_; }
  hw::VmControls& ctl() { return ctl_; }
  CapSel evt_base() const { return evt_base_; }
  void set_evt_base(CapSel base) { evt_base_ = base; }

  // Shadow-paging state: lazily attached by the hypervisor when the vCPU
  // runs in TranslationMode::kShadow (see hv/vtlb.h).
  const std::shared_ptr<Vtlb>& vtlb() const { return vtlb_; }
  void set_vtlb(std::shared_ptr<Vtlb> v) { vtlb_ = std::move(v); }

  BlockState block_state() const { return block_state_; }
  void set_block_state(BlockState s) { block_state_ = s; }

  // Why the last blocking wait ended: kSuccess for a normal wake-up,
  // kTimeout when the deadline fired, kAbort when the semaphore's domain
  // died. Consumed by the next SmDown.
  Status wake_status() const { return wake_status_; }
  void set_wake_status(Status s) { wake_status_ = s; }

  // The semaphore this EC currently waits on (kBlockedSm only), plus the
  // pending deadline event (0 = none). Lets teardown and timeout paths
  // find and unlink the waiter without scanning every semaphore.
  Sm* blocked_on() const { return blocked_on_; }
  void set_blocked_on(Sm* sm) { blocked_on_ = sm; }
  std::uint64_t timeout_event() const { return timeout_event_; }
  void set_timeout_event(std::uint64_t id) { timeout_event_ = id; }

  Sc* sc() const { return sc_; }
  void set_sc(Sc* sc) { sc_ = sc; }

  // Re-entrance guard for local handler ECs.
  bool busy() const { return busy_; }
  void set_busy(bool b) { busy_ = b; }

  // Snapshot field list (the vTLB, attached lazily by the kernel, follows
  // in hv/snapshot.cc). Kind, home CPU and domain are construction
  // invariants.
  template <class Ar, class Refs>
  void Io(Ar& ar, Refs& refs) {
    ar.Verify(kind_);
    ar.Verify(cpu_);
    ar.Verify(pd_->oid());
    ar.Io(utcb_, evt_base_, block_state_, wake_status_);
    refs.Io(ar, blocked_on_);
    ar.Io(timeout_event_);
    refs.Io(ar, sc_);
    ar.Io(busy_, gstate_, ctl_);
  }

 private:
  Kind kind_;
  std::shared_ptr<Pd> pd_;
  std::uint32_t cpu_;
  Utcb utcb_;
  Handler handler_;
  StepFn step_fn_;
  hw::GuestState gstate_;
  hw::VmControls ctl_;
  std::shared_ptr<Vtlb> vtlb_;
  CapSel evt_base_ = kInvalidSel;
  BlockState block_state_ = BlockState::kRunnable;
  Status wake_status_ = Status::kSuccess;
  Sm* blocked_on_ = nullptr;
  std::uint64_t timeout_event_ = 0;
  Sc* sc_ = nullptr;
  bool busy_ = false;
};

// Scheduling context: couples a time quantum with a priority (§5.1).
class Sc : public KObject {
 public:
  static constexpr ObjType kType = ObjType::kSc;

  Sc(std::shared_ptr<Ec> ec, std::uint8_t prio, sim::Cycles quantum)
      : KObject(kType), ec_(std::move(ec)), prio_(prio), quantum_(quantum),
        left_(quantum) {}

  Ec& ec() { return *ec_; }
  std::shared_ptr<Ec> ec_ref() { return ec_; }
  std::uint8_t prio() const { return prio_; }
  sim::Cycles quantum() const { return quantum_; }
  // Home core: an SC is bound to its EC's CPU (Hedron model) and only
  // ever sits in that core's run queue.
  CpuId cpu() const { return ec_->cpu(); }

  sim::Cycles left() const { return left_; }
  void Refill() { left_ = quantum_; }
  // Consume cycles; returns true if the quantum is depleted.
  bool Consume(sim::Cycles c) {
    left_ = c >= left_ ? 0 : left_ - c;
    return left_ == 0;
  }

  bool queued() const { return queued_; }
  void set_queued(bool q) { queued_ = q; }

  template <class Ar, class Refs>
  void Io(Ar& ar, Refs& /*refs*/) {
    ar.Verify(ec_->oid());
    ar.Verify(prio_);
    ar.Verify(quantum_);
    ar.Io(left_, queued_);
  }

 private:
  std::shared_ptr<Ec> ec_;
  std::uint8_t prio_;
  sim::Cycles quantum_;
  sim::Cycles left_;
  bool queued_ = false;
};

// Portal: a dedicated entry point into a protection domain (§5.2).
class Pt : public KObject {
 public:
  static constexpr ObjType kType = ObjType::kPt;

  Pt(std::shared_ptr<Ec> handler, Mtd m, std::uint64_t id)
      : KObject(kType), handler_(std::move(handler)), mtd_(m), id_(id) {}

  Ec& handler() { return *handler_; }
  Mtd mtd() const { return mtd_; }
  void set_mtd(Mtd m) { mtd_ = m; }
  std::uint64_t id() const { return id_; }

  template <class Ar, class Refs>
  void Io(Ar& ar, Refs& /*refs*/) {
    ar.Verify(handler_->oid());
    ar.Io(mtd_);
    ar.Verify(id_);
  }

 private:
  std::shared_ptr<Ec> handler_;
  Mtd mtd_;
  std::uint64_t id_;
};

// Counting semaphore; also the kernel's signalling mechanism for hardware
// interrupts (§5, Semaphore).
class Sm : public KObject {
 public:
  static constexpr ObjType kType = ObjType::kSm;

  explicit Sm(std::uint64_t initial) : KObject(kType), counter_(initial) {}

  std::uint64_t counter() const { return counter_; }
  void set_counter(std::uint64_t c) { counter_ = c; }

  std::deque<std::shared_ptr<Ec>>& waiters() { return waiters_; }

  // GSI binding (set by assign_gsi).
  bool bound_gsi_valid() const { return gsi_ != ~0u; }
  std::uint32_t bound_gsi() const { return gsi_; }
  void bind_gsi(std::uint32_t gsi) { gsi_ = gsi; }

  // Domain that created the semaphore. When it dies, waiters from other
  // domains are woken with kAbort.
  Pd* owner() const { return owner_; }
  void set_owner(Pd* pd) { owner_ = pd; }

  template <class Ar, class Refs>
  void Io(Ar& ar, Refs& refs) {
    ar.Io(counter_, gsi_);
    refs.Io(ar, owner_);
    ar.Seq(sim::kCount32, waiters_,
           [&](std::shared_ptr<Ec>& ec) { refs.Required(ar, ec); });
  }

 private:
  std::uint64_t counter_;
  std::deque<std::shared_ptr<Ec>> waiters_;
  std::uint32_t gsi_ = ~0u;
  Pd* owner_ = nullptr;
};

}  // namespace nova::hv

#endif  // SRC_HV_OBJECTS_H_
