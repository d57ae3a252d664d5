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

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/hw/machine.h"
#include "src/hw/vm_engine.h"
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
  // semaphore); consults the fault plan like a real frame allocation.
  [[nodiscard]] bool ChargeObjectFrames(Pd* pd, std::uint64_t frames);
  // The caller's own-PD reference (selector 0), for donor chains and
  // object charges that outlive the raw pointer.
  std::shared_ptr<Pd> SelfRef(Pd* caller);

  // IPC internals.
  Status DoCall(Ec* caller_ec, Pt* portal);
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

  // Charged capability lookup.
  template <typename T>
  T* LookupCharged(Pd* caller, CapSel sel, ObjType type, std::uint8_t perms,
                   std::uint32_t cpu_id) {
    Charge(cpu_id, costs_.cap_lookup);
    return caller->caps().LookupAs<T>(sel, type, perms);
  }

  // Hot-path event counters resolved once at construction: the VM-exit
  // dispatch and interrupt paths bump these without a string-keyed map
  // lookup. The registry stays authoritative for dump/reset.
  struct HotCounters {
    explicit HotCounters(sim::StatRegistry& s)
        : hlt(s.counter("HLT")),
          hw_intr(s.counter("Hardware Interrupts")),
          recall(s.counter("Recall")),
          vtlb_fill(s.counter("vTLB Fill")),
          guest_pf(s.counter("Guest Page Fault")),
          mmio(s.counter("Memory-Mapped I/O")),
          pio(s.counter("Port I/O")),
          cpuid(s.counter("CPUID")),
          mov_cr(s.counter("CR Read/Write")),
          invlpg(s.counter("INVLPG")),
          intr_window(s.counter("Interrupt Window")),
          vmcall(s.counter("VMCALL")),
          vm_error(s.counter("VM Error")),
          vm_event_ipc(s.counter("vm-event-ipc")),
          vm_event_unhandled(s.counter("vm-event-unhandled")),
          gsi_delivered(s.counter("gsi-delivered")),
          ipc_calls(s.counter("ipc-calls")),
          ipc_xcalls(s.counter("ipc-xcalls")),
          tlb_shootdown(s.counter("TLB Shootdown")),
          lock_contention(s.counter("lock-contention")) {}
    sim::Counter& hlt;
    sim::Counter& hw_intr;
    sim::Counter& recall;
    sim::Counter& vtlb_fill;
    sim::Counter& guest_pf;
    sim::Counter& mmio;
    sim::Counter& pio;
    sim::Counter& cpuid;
    sim::Counter& mov_cr;
    sim::Counter& invlpg;
    sim::Counter& intr_window;
    sim::Counter& vmcall;
    sim::Counter& vm_error;
    sim::Counter& vm_event_ipc;
    sim::Counter& vm_event_unhandled;
    sim::Counter& gsi_delivered;
    sim::Counter& ipc_calls;
    sim::Counter& ipc_xcalls;
    sim::Counter& tlb_shootdown;
    sim::Counter& lock_contention;
  };

  // Interned trace-name ids resolved once at construction. The Table 2
  // rows reuse the exact counter-registry row names and are emitted
  // adjacent to the counter bumps, which is what lets bench/tab2_events
  // derive the table from a TraceReport and cross-check it against the
  // counters record for record.
  struct HotTraceIds {
    explicit HotTraceIds(sim::Tracer& t);
    std::uint16_t hlt, hw_intr, recall, vtlb_fill, guest_pf, mmio, pio,
        cpuid, mov_cr, invlpg, intr_window, vmcall, vm_error;
    std::uint16_t ipc_call, vm_event, sched_dispatch, sched_preempt,
        gsi_delivered, vtlb_resolve;
    // Host-side handling span per exit reason ("exit:<reason>").
    std::uint16_t exit[hw::kNumExitReasons] = {};
    // Interned AFTER everything above (see the ctor): ids are dense and
    // golden trace digests depend on them, so new names only ever append.
    std::uint16_t vm_event_unhandled = 0;
    // SMP names, appended after vm_event_unhandled (same rule).
    std::uint16_t ipc_xcall = 0, tlb_shootdown = 0, tlb_shootdown_ack = 0,
        lock_contention = 0;
  };

  // Bump a Table 2 counter and emit the matching trace instant (stamped
  // with the CPU's local clock; the timestamp is only computed when the
  // tracer is enabled).
  void CountEvent(sim::Counter& c, std::uint16_t name, std::uint32_t cpu_id,
                  std::uint64_t a0 = 0,
                  sim::TraceCat cat = sim::TraceCat::kVmExit) {
    c.Add();
    if (tracer_->enabled()) {
      tracer_->InstantAt(cpu(cpu_id).NowPs(), cat, name,
                         static_cast<std::uint8_t>(cpu_id), a0);
    }
  }

  hw::Machine* machine_;
  HvCosts costs_;
  sim::StatRegistry stats_;
  HotCounters ctr_{stats_};
  sim::Tracer* tracer_{&machine_->tracer()};
  HotTraceIds trc_{*tracer_};
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
