// A complete virtualized compile-workload node as one restorable object.
//
// Wraps the construction sequence RunCompile performs for virtualized
// stacks — NovaSystem, VMM, guest kernel, AHCI driver, workload — behind
// an object whose whole mutable state can be checkpointed into a
// `sim::Snapshot` and restored onto a twin built from the identical
// RunConfig. This is the unit the migration driver moves between nodes
// and the snapshot round-trip tests verify digest-exactness on.
#ifndef BENCH_SCENARIO_H_
#define BENCH_SCENARIO_H_

#include <memory>

#include "bench/common.h"

namespace nova::bench {

// Guest RAM every benchmark guest receives (the paper machine gives the
// guest 512 MiB; the model scales down, keeping relative behaviour).
constexpr std::uint64_t kBenchGuestMem = 128ull << 20;

class CompileScenario {
 public:
  // Builds the full stack and starts the guest (boot entry primed, vCPU
  // runnable). Identical configs produce identical twins — the snapshot
  // restore convention.
  explicit CompileScenario(const RunConfig& config);

  bool done() const { return workload_->done(); }
  sim::PicoSeconds now() const;
  // Run until the workload finishes or absolute `deadline_ps`.
  void RunUntilDone(sim::PicoSeconds deadline_ps);
  // Advance this node by `dt` of simulated time.
  void RunFor(sim::PicoSeconds dt);

  root::NovaSystem& system() { return *system_; }
  vmm::Vmm& vm() { return *vm_; }
  guest::GuestKernel& guest_kernel() { return *gk_; }
  guest::GuestAhciDriver& driver() { return *driver_; }
  guest::CompileWorkload& workload() { return *workload_; }
  const RunConfig& config() const { return config_; }

  // Node sections (via NovaSystem) plus the scenario layers: the VMM's
  // device models and the host-side guest bookkeeping.
  Status SaveState(sim::Snapshot& snap) const;
  Status LoadState(const sim::Snapshot& snap);
  template <class Ar>
  void Io(Ar& ar);

 private:
  RunConfig config_;
  std::unique_ptr<root::NovaSystem> system_;
  std::unique_ptr<vmm::Vmm> vm_;
  guest::GuestLogicMux mux_;
  std::unique_ptr<guest::GuestKernel> gk_;
  std::unique_ptr<guest::GuestAhciDriver> driver_;
  std::unique_ptr<guest::CompileWorkload> workload_;
};

}  // namespace nova::bench

#endif  // BENCH_SCENARIO_H_
