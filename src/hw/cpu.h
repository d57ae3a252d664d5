// A simulated processor: a cycle counter at a fixed frequency plus the
// structures hardware keeps per logical CPU (TLB). Execution is driven by
// the microhypervisor; the CPU itself only accounts time.
#ifndef SRC_HW_CPU_H_
#define SRC_HW_CPU_H_

#include <cstdint>

#include "src/hw/cpu_model.h"
#include "src/hw/tlb.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace nova::hw {

class Cpu {
 public:
  Cpu(std::uint32_t id, const CpuModel* model)
      : id_(id),
        model_(model),
        tlb_(model->tlb_4k_entries, model->tlb_large_entries) {
    busy_.SetBusy(0, true);  // A CPU is busy unless explicitly idled.
  }

  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;

  std::uint32_t id() const { return id_; }
  const CpuModel& model() const { return *model_; }
  Tlb& tlb() { return tlb_; }

  // Account `c` cycles of work on this CPU.
  void Charge(sim::Cycles c) { cycles_ += c; }
  sim::Cycles cycles() const { return cycles_; }

  // Current local time.
  sim::PicoSeconds NowPs() const { return model_->frequency.CyclesToPicos(cycles_); }

  // Jump local time forward to `t` (idle skip: the CPU was halted while
  // devices worked).
  void AdvanceToPs(sim::PicoSeconds t) {
    const sim::Cycles target = model_->frequency.PicosToCycles(t);
    if (target > cycles_) {
      cycles_ = target;
    }
  }

  // Busy/idle accounting for the utilization figures. "Idle" means the CPU
  // sits in the hypervisor idle loop or a halted guest.
  void SetIdle(bool idle) {
    busy_.SetBusy(NowPs(), !idle);
    idle_ = idle;
  }
  bool idle() const { return idle_; }
  double Utilization() const { return busy_.Utilization(NowPs()); }
  void ResetUtilization() { busy_.Reset(NowPs()); }

  Status SaveState(sim::SnapWriter& w) const { return w.Save(*this); }
  Status LoadState(sim::SnapReader& r) { return r.Restore(*this); }
  template <class Ar>
  void Io(Ar& ar) {
    ar.Io(cycles_, idle_, busy_, tlb_);
  }

 private:
  std::uint32_t id_;
  const CpuModel* model_;
  Tlb tlb_;
  sim::Cycles cycles_ = 0;
  sim::UtilizationTracker busy_;
  bool idle_ = false;
};

}  // namespace nova::hw

#endif  // SRC_HW_CPU_H_
