// The NOVA microhypervisor.
//
// The only component that runs in the most privileged mode. It provides
// mechanisms — communication (portal IPC with scheduling-context
// donation), resource delegation/revocation through the mapping database,
// interrupt control (GSI-to-semaphore binding), scheduling, and memory
// virtualization (nested paging or the vTLB algorithm) — and no policy.
//
// User components (root partition manager, VMMs, drivers) are C++ objects
// holding capability selectors; they invoke the hypercall methods below.
// Execution is cooperative: the kernel's scheduler literally decides which
// execution context runs next, and all work is charged in cycles to the
// simulated CPUs.
#ifndef SRC_HV_KERNEL_H_
#define SRC_HV_KERNEL_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/hw/machine.h"
#include "src/hw/vm_engine.h"
#include "src/hv/event_counter.h"
#include "src/hv/guarded.h"
#include "src/hv/kmem.h"
#include "src/hv/mdb.h"
#include "src/hv/objects.h"
#include "src/hv/scheduler.h"
#include "src/hv/types.h"
#include "src/hv/vtlb.h"
#include "src/sim/fault.h"
#include "src/sim/stats.h"
#include "src/sim/trace.h"

namespace nova::hv {

// Well-known selectors in a fresh protection domain.
constexpr CapSel kSelOwnPd = 0;
constexpr CapSel kSelFirstFree = 32;

class Hypervisor : public KmemPool {
 public:
  explicit Hypervisor(hw::Machine* machine, HvCosts costs = HvCosts{});
  ~Hypervisor();

  // --- Boot ------------------------------------------------------------
  // Claims the bottom `kernel_reserve` bytes of RAM for kernel data (page
  // tables, UTCBs), shields them from DMA, and creates the root protection
  // domain holding capabilities for all remaining resources (§6).
  Pd* Boot(std::uint64_t kernel_reserve = 64ull << 20);
  Pd* root_pd() { return root_pd_.get(); }

  // --- Hypercalls -------------------------------------------------------
  // `caller` is the invoking protection domain (all selectors are resolved
  // in its capability space).

  // `quota_frames` bounds the new domain's kernel-memory account; the
  // quota is carved out of (donated from) the caller's nearest bounded
  // account and returned when the domain is destroyed. The default leaves
  // the account pass-through: charges land on the creator's account, the
  // pre-quota behaviour.
  Status CreatePd(Pd* caller, CapSel dst_sel, const std::string& name, bool is_vm,
                  Pd** out = nullptr,
                  std::uint64_t quota_frames = KmemQuota::kUnlimited);
  Status DestroyPd(Pd* caller, CapSel pd_sel);

  Status CreateEcLocal(Pd* caller, CapSel dst_sel, CapSel pd_sel, std::uint32_t cpu,
                       Ec::Handler handler, Ec** out = nullptr);
  Status CreateEcGlobal(Pd* caller, CapSel dst_sel, CapSel pd_sel, std::uint32_t cpu,
                        Ec::StepFn step, Ec** out = nullptr);
  // A vCPU: `evt_base` is the base selector (in the *VM's* capability
  // space) of its VM-exit portal table.
  Status CreateVcpu(Pd* caller, CapSel dst_sel, CapSel vm_pd_sel, std::uint32_t cpu,
                    CapSel evt_base, Ec** out = nullptr);

  Status CreateSc(Pd* caller, CapSel dst_sel, CapSel ec_sel, std::uint8_t prio,
                  sim::Cycles quantum);

  Status CreatePt(Pd* caller, CapSel dst_sel, CapSel handler_ec_sel, Mtd m,
                  std::uint64_t id);
  Status PtCtrlMtd(Pd* caller, CapSel pt_sel, Mtd m);

  Status CreateSm(Pd* caller, CapSel dst_sel, std::uint64_t initial);

  // IPC: send the message in `caller_ec`'s UTCB through the portal; the
  // handler's reply lands back in the same UTCB. The caller donates its
  // scheduling context to the handler for the duration of the call (§5.2).
  Status Call(Ec* caller_ec, CapSel pt_sel);

  Status SmUp(Pd* caller, CapSel sm_sel);
  enum class [[nodiscard]] DownResult : std::uint8_t {
    kAcquired,  // Counter was positive; decremented without blocking.
    kBlocked,   // Caller enqueued on the semaphore; retry after wake-up.
    kTimeout,   // A previous blocked wait's deadline expired (kTimeout).
    kAborted,   // The semaphore's domain died while the caller waited.
    kError,
  };
  // `unmask_gsi`: for interrupt semaphores, unmask the bound GSI before
  // waiting (the driver's handled-the-interrupt handshake). A non-zero
  // `deadline_ps` bounds a blocking wait: if no Up arrives by then the
  // waiter is removed from the queue and its next SmDown reports kTimeout.
  DownResult SmDown(Ec* caller_ec, CapSel sm_sel, bool unmask_gsi = false,
                    sim::PicoSeconds deadline_ps = 0);

  // Resource delegation: transfer `src` (a range of the caller's memory,
  // I/O or capability space) into `dst_pd_sel`'s space at `hotspot`,
  // possibly narrowing permissions. `large` requests superpage host
  // mappings (memory only).
  Status Delegate(Pd* caller, CapSel dst_pd_sel, const Crd& src,
                  std::uint64_t hotspot, std::uint8_t perms_mask = 0xff,
                  bool large = false);
  // Recursively revoke everything delegated from the caller's range; with
  // `include_self`, drop the caller's own holding too.
  Status Revoke(Pd* caller, const Crd& crd, bool include_self);

  // Interrupt control: bind a semaphore to a GSI routed to `cpu`. The
  // kernel masks + acks the interrupt and performs an Up on arrival.
  Status AssignGsi(Pd* caller, CapSel sm_sel, std::uint32_t gsi, std::uint32_t cpu);
  // Route a GSI directly into a vCPU (idealized direct interrupt delivery
  // used by the "Direct" configuration of §8.1).
  Status AssignGsiDirect(Pd* caller, CapSel vcpu_sel, std::uint32_t gsi);

  // Register a device MMIO window (physical addresses outside RAM) as a
  // delegatable resource owned by the root partition manager. Called by
  // platform bring-up code after devices are placed on the bus.
  Status GrantDeviceWindow(hw::PhysAddr base, std::uint64_t size);

  // Attach a DMA-capable device to a protection domain: the IOMMU then
  // translates the device's DMA with the PD's own page table, so a driver
  // (or a VM with a directly assigned device) can only reach memory that
  // was delegated to it (§4.2).
  Status AssignDev(Pd* caller, CapSel pd_sel, hw::DeviceId dev, std::uint32_t gsi);

  // Force a vCPU back into its VMM (§7.5): wakes a halted vCPU and makes
  // its next instruction boundary exit through the recall portal.
  Status Recall(Pd* caller, CapSel ec_sel);

  // --- Scheduling / time ------------------------------------------------
  // Run the machine until `deadline_ps` of simulated time (or until no
  // work remains and no device events are pending).
  void RunUntil(sim::PicoSeconds deadline_ps);
  // Run until `pred()` holds, checking between scheduling steps.
  void RunUntilCondition(const std::function<bool()>& pred,
                         sim::PicoSeconds deadline_ps);
  // One scheduling decision + execution chunk. False when fully idle with
  // no pending device events.
  bool StepOnce();
  // Runnable work (or device events) pending before `deadline_ps`?
  bool WorkRemainsBefore(sim::PicoSeconds deadline_ps);

  // --- Introspection ----------------------------------------------------
  hw::Machine& machine() { return *machine_; }
  hw::VmEngine& engine(std::uint32_t cpu) { return *engines_[cpu]; }
  sim::StatRegistry& stats() { return stats_; }
  const HvCosts& costs() const { return costs_; }
  // Test accessor: callers inspect a stopped machine.
  Mdb& mdb() { return mdb_.Get(SerialPhase::kQuiescedSnapshot); }

  // Kernel frame allocator (exposed for the root PM to build tables for
  // guests during image installation). Charged to the root PD's account.
  [[nodiscard]] hw::PhysAddr AllocFrame();
  void FreeFrame(hw::PhysAddr frame);
  // KmemPool: allocate/free one kernel frame charged to `pd`'s quota
  // chain. Returns 0 on quota or pool exhaustion — never a fake frame.
  [[nodiscard]] hw::PhysAddr AllocFrameFor(Pd* pd) override;
  void FreeFrameFor(Pd* pd, hw::PhysAddr frame) override;

  // Deterministic fault injection: when set, every charged allocation
  // consults the plan for FaultKind::kAllocFail (target = owning PD's
  // name) and fails transiently on a hit. Null (the default) costs
  // nothing on the allocation path.
  void SetFaultPlan(sim::FaultPlan* plan) { fault_plan_ = plan; }
  std::uint64_t kernel_reserve() const { return kernel_reserve_; }
  // Frames currently handed out by the pool (leak accounting in tests).
  std::uint64_t FramesInUse() const {
    return (pool_next_ - hw::kPageSize) / hw::kPageSize - pool_free_.size();
  }

  // vTLB policy for shadow-mode vCPUs. Applies to Vtlb instances attached
  // after the call (they are attached lazily, on a vCPU's first
  // shadow-paging exit), so set it before the VM first runs.
  void set_vtlb_policy(const VtlbPolicy& policy) { vtlb_policy_ = policy; }
  const VtlbPolicy& vtlb_policy() const { return vtlb_policy_; }
  // The per-vCPU shadow-paging subsystem, attached on first use.
  Vtlb& VtlbFor(Ec* vcpu);

  // Wake an EC blocked on halt (used internally and by tests).
  void WakeEc(Ec* ec);

  // Table 2 counters, keyed by the paper's row names.
  std::uint64_t EventCount(const std::string& name) const {
    return stats_.Value(name);
  }

  // --- Checkpoint/restore ----------------------------------------------
  // Serialize every piece of mutable kernel state (object graph, cap
  // spaces, quotas, mapping database, scheduler queues, vTLB contexts,
  // frame pool, tag allocator, lock models, kernel stat registry, VM
  // engines) as one section (NovaSystem names it "hv.kernel"). Object
  // identity on the wire is the creation-order oid; restore overlays a
  // twin Hypervisor whose scenario construction ran the identical creation
  // sequence. Fails kBadParameter if any registered object was already
  // destroyed (snapshot before domain teardown only).
  Status SaveState(sim::SnapWriter& w) const;
  Status LoadState(sim::SnapReader& r);
  template <class Ar>
  void Io(Ar& ar);

  // Object registry: every kernel object gets a creation-order ordinal.
  ObjRef ObjectByOid(std::uint64_t oid) const {
    return oid < objects_.size() ? objects_[oid].ref.lock() : nullptr;
  }
  std::uint64_t ObjectCount() const { return objects_.size(); }

 private:
  friend class VcpuDriver;

  hw::Cpu& cpu(std::uint32_t id) { return machine_->cpu(id); }
  void Charge(std::uint32_t cpu_id, sim::Cycles c) { cpu(cpu_id).Charge(c); }

  // The only door to per-core kernel state: call sites must name the core
  // (nova-lint rule per-cpu-state enforces the discipline).
  CpuState& cpu_state(std::uint32_t cpu_id) { return cpu_states_[cpu_id]; }

  // Put `sc` on its home core's ready queue (Hedron: SCs have core
  // affinity; the queue is always the one keyed by Sc::cpu). A wakeup
  // posted from a different core pays for that queue's lock.
  void EnqueueSc(Sc* sc, bool at_head = false);
  // Pull a dying EC out of its core's ready queue and halted list.
  void UnscheduleEc(Ec* ec);

  // A simple contention model for kernel structures shared across cores:
  // an acquire from a different core within the previous holder's hold
  // window pays the contended-spinlock price. Free on 1-CPU machines.
  struct LockState {
    std::uint32_t last_cpu = ~0u;
    sim::PicoSeconds hold_until_ps = 0;
    template <class Ar>
    void Io(Ar& ar) {
      ar.Io(last_cpu, hold_until_ps);
    }
  };
  // Lock `L`. ChargeLock returns the token that opens the state `L`
  // guards (guarded.h).
  template <LockId L>
  struct KernelLock : LockState {};
  template <LockId L>
  LockToken<L> ChargeLock(KernelLock<L>& lock, std::uint32_t cpu_id) {
    ChargeContention(lock, cpu_id);
    return LockToken<L>();
  }
  void ChargeContention(LockState& lock, std::uint32_t cpu_id);

  // Advance device/event-queue time to the machine-wide floor: the minimum
  // local clock over cores that still have runnable work (idle cores are
  // dragged up to the floor first so they can never hold time back).
  void SyncDeviceTime();

  // Tagged-TLB shootdown: cores in `targets` (excluding `origin_cpu`)
  // holding translations under `tag` receive a simulated IPI, flush, and
  // ack; the origin spins until the last ack. No-op on 1-CPU machines.
  void ShootdownRemotes(std::uint32_t origin_cpu, std::uint64_t targets,
                        hw::TlbTag tag);
  // vTLB flavour: a shadow-paging INVLPG on one vCPU invalidates the
  // cached translation in sibling vCPUs' shadow contexts on other cores.
  void ShootdownVtlb(Ec* origin_vcpu, std::uint64_t gva);

  // Object creation plumbing.
  Status InstallCap(Pd* target, CapSel sel, ObjRef obj, std::uint8_t perms);
  std::shared_ptr<Pd> MakePd(const std::string& name, bool is_vm,
                             std::shared_ptr<Pd> donor,
                             std::uint64_t quota_frames);

  // Raw pool operations (no accounting); everything outside Boot goes
  // through the charged AllocFrameFor/FreeFrameFor pair.
  [[nodiscard]] hw::PhysAddr PoolAlloc();
  void PoolFree(hw::PhysAddr frame);
  // Charge `frames` to `pd` for a kernel object (UTCB, VMCS, SC, portal,
  // semaphore); consults the fault plan like a real frame allocation. The
  // charge is empty when the quota or the fault plan refuses it.
  [[nodiscard]] KmemCharge ChargeObjectFrames(const std::shared_ptr<Pd>& pd,
                                              std::uint64_t frames);
  // The publish step every object-creating hypercall but CreatePd ends
  // with: insert `obj`'s capability at `dst_sel` in `caller`'s space. On
  // success `obj` takes over `charge` and gets the next oid; on failure
  // the charge credits itself as it goes out of scope.
  Status Publish(Pd* caller, CapSel dst_sel, const ObjRef& obj,
                 KmemCharge charge);
  // The one body of CreateEcLocal and CreateEcGlobal.
  Status CreateEc(Pd* caller, CapSel dst_sel, CapSel pd_sel, std::uint32_t cpu_id,
                  Ec::Kind kind, Ec::Handler handler, Ec::StepFn step, Ec** out);
  // The caller's own-PD reference (selector 0), for donor chains and
  // object charges that outlive the raw pointer.
  std::shared_ptr<Pd> SelfRef(Pd* caller);

  // IPC internals.
  Status DoCall(Ec* caller_ec, Pt* portal);
  // DoCall's second half on the handler's core: portal traversal, the
  // handler's run on the donated SC, and the reply.
  Status TraversePortal(Ec* caller_ec, Pt* portal);
  void TransferWords(Utcb& from, Utcb& to, std::uint32_t cpu_id);
  Status ApplyTypedItems(Pd* sender, Pd* receiver, Utcb& msg, std::uint32_t cpu_id);

  // VM-exit plumbing (vcpu.cc).
  void RunVcpu(Sc* sc, sim::Cycles budget);
  bool DispatchVmEvent(Ec* vcpu, Event event, const hw::VmExit& exit);
  void TransferToUtcb(Ec* vcpu, const hw::VmExit& exit, Mtd m, Utcb& utcb);
  void TransferFromUtcb(Ec* vcpu, Mtd m, const Utcb& utcb);

  // vTLB (shadow paging): drop all shadow state of a VM's vCPUs after a
  // host-side unmap, so no stale translation survives revocation.
  void DropShadowContexts(Pd* pd);

  // Interrupt plumbing.
  void ProcessPendingIrqs(std::uint32_t cpu_id);

  // Scheduling internals: choose the runnable core with the smallest
  // local clock (~0u = none), then run one dispatch on it.
  std::uint32_t PickNextCpu();
  bool DispatchOn(std::uint32_t cpu_id);

  // Unlink an EC from its semaphore wait and make it runnable again with
  // `status` as the wake reason (kSuccess = normal Up).
  void WakeSmWaiter(Ec* ec, Status status);

  // An SmDown deadline fired: remove the waiter and wake it with kTimeout.
  // The "hv.kernel" event factory (op 1) builds the call from the tag's
  // (ec oid, sm oid), live and at restore.
  void SmDeadlineExpired(std::shared_ptr<Ec> ec_ref, std::shared_ptr<Sm> sm_ref);

  // Assign the next creation-order oid to a freshly created object. The
  // registry is append-only (weak refs: registration never extends an
  // object's lifetime) so oids stay stable across destruction.
  void RegisterObject(const ObjRef& obj);
  // Full teardown of a dying domain: abort waiters, unschedule its ECs,
  // drop shadow state, detach devices, free its paging structures.
  void ReclaimPd(Pd* pd);
  // A dead domain's kernel memory: page-table frames back to the pool, and
  // capability-space chunks credited (its capability to itself keeps its
  // Pd alive, so the Pd's destructor cannot credit them).
  void FreeDomainMemory(Pd* pd);

  // Charged capability lookup.
  template <typename T>
  T* LookupCharged(Pd* caller, CapSel sel, ObjType type, std::uint8_t perms,
                   std::uint32_t cpu_id) {
    Charge(cpu_id, costs_.cap_lookup);
    return caller->caps().LookupAs<T>(sel, type, perms);
  }

  // The hypervisor's events, and the names it only traces, declared in
  // trace-id order: ids are dense and every golden digest folds them, so a
  // new name only ever appends. A Vtlb declares its own events.
  struct Events {
    using Cat = sim::TraceCat;
    static std::array<std::uint16_t, hw::kNumExitReasons> InternExitNames(
        sim::Tracer& t);

    sim::StatRegistry& s;
    sim::Tracer& t;
    // Table 2 rows: counter and trace share the paper's row name.
    EventCounter hlt{s, t, Cat::kVmExit, "HLT"};
    EventCounter hw_intr{s, t, Cat::kVmExit, "Hardware Interrupts"};
    EventCounter recall{s, t, Cat::kVmExit, "Recall"};
    EventCounter vtlb_fill{s, t, Cat::kVmExit, "vTLB Fill"};
    EventCounter guest_pf{s, t, Cat::kVmExit, "Guest Page Fault"};
    EventCounter mmio{s, t, Cat::kVmExit, "Memory-Mapped I/O"};
    EventCounter pio{s, t, Cat::kVmExit, "Port I/O"};
    EventCounter cpuid{s, t, Cat::kVmExit, "CPUID"};
    EventCounter mov_cr{s, t, Cat::kVmExit, "CR Read/Write"};
    EventCounter invlpg{s, t, Cat::kVmExit, "INVLPG"};
    EventCounter intr_window{s, t, Cat::kVmExit, "Interrupt Window"};
    EventCounter vmcall{s, t, Cat::kVmExit, "VMCALL"};
    EventCounter vm_error{s, t, Cat::kVmExit, "VM Error"};
    EventCounter ipc_call{s, t, Cat::kIpc, "ipc-calls", "IPC Call"};  // Spans.
    EventCounter vm_event_ipc{s, t, Cat::kIpc, "vm-event-ipc", "VM Event IPC"};
    std::uint16_t sched_dispatch = t.Intern("Sched Dispatch");
    std::uint16_t sched_preempt = t.Intern("Sched Preempt");
    EventCounter gsi_delivered{s, t, Cat::kIrq, "gsi-delivered", "GSI Delivered"};
    // Host-side handling span per exit reason ("exit:<reason>").
    std::array<std::uint16_t, hw::kNumExitReasons> exit = InternExitNames(t);
    EventCounter vm_event_unhandled{s, t, Cat::kVmExit, "vm-event-unhandled"};
    // SMP names; single-core runs never emit them.
    EventCounter ipc_xcall{s, t, Cat::kIpc, "ipc-xcalls", "IPC Xcall"};  // Spans.
    EventCounter tlb_shootdown{s, t, Cat::kIrq, "TLB Shootdown"};
    std::uint16_t tlb_shootdown_ack = t.Intern("TLB Shootdown Ack");
    EventCounter lock_contention{s, t, Cat::kSched, "lock-contention"};
  };

  hw::Machine* machine_;
  HvCosts costs_;
  sim::StatRegistry stats_;
  sim::Tracer* tracer_{&machine_->tracer()};
  Events events_{stats_, *tracer_};
  Guarded<Mdb, LockId::kMdb> mdb_;

  // Kernel memory pool.
  std::uint64_t kernel_reserve_ = 0;
  hw::PhysAddr pool_next_ = 0;
  std::vector<hw::PhysAddr> pool_free_;
  sim::FaultPlan* fault_plan_ = nullptr;

  std::shared_ptr<Pd> root_pd_;
  std::vector<std::unique_ptr<hw::VmEngine>> engines_;
  std::vector<CpuState> cpu_states_;

  // GSI bindings. Rebinding a route races interrupt delivery on another
  // core, so writers outside single-core phases take the scheduler lock.
  Guarded<std::array<std::shared_ptr<Sm>, hw::kNumGsis>, LockId::kSched>
      gsi_sms_;
  Guarded<std::array<std::shared_ptr<Ec>, hw::kNumGsis>, LockId::kSched>
      gsi_direct_;

  hw::TlbTagAllocator tlb_tags_;  // VM identity tags + vTLB context tags.
  VtlbPolicy vtlb_policy_{};
  std::vector<std::weak_ptr<Ec>> vcpus_;  // All vCPUs ever created.
  std::vector<std::weak_ptr<Ec>> ecs_;    // All ECs ever created (teardown).
  std::vector<std::weak_ptr<Sm>> sms_;    // All Sms ever created (teardown).
  hw::PagingMode host_paging_mode_;
  std::uint32_t boot_cpu_for_step_ = 0;

  // Creation-order object registry (snapshot identity). Entries are never
  // pruned; `type` is kept so save can name an expired object in errors.
  struct ObjSlot {
    std::weak_ptr<KObject> ref;
    ObjType type = ObjType::kPd;
  };
  std::vector<ObjSlot> objects_;

  // Shared kernel structures with a contention price under SMP.
  KernelLock<LockId::kSched> sched_lock_;
  KernelLock<LockId::kMdb> mdb_lock_;
  KernelLock<LockId::kXcall> xcall_lock_;

  sim::EventOwner event_owner_;  // Last member: unregisters first.
};

}  // namespace nova::hv

#endif  // SRC_HV_KERNEL_H_
