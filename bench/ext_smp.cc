// Extension: many-VM consolidation across cores.
//
// The multicore payoff scenario: a rack-style consolidation host packs
// mixed-profile VMs — kernel-compile, pure compute, disk-backed I/O and
// an interrupt-heavy "network service" stand-in — onto 1..8 cores with
// per-core run queues. Disk VMs on remote cores reach the core-0 disk
// server through cross-core portal calls (xcalls); a balloon thread
// periodically revokes scratch memory from a victim VM, driving the
// tagged-TLB shootdown protocol across every core that cached the
// mapping. Reported per core count: aggregate throughput (scaling),
// Jain fairness across identical VMs, and the SMP overhead counters.
// A same-seed rerun of one configuration must reproduce the trace
// digest bit-for-bit: the multicore scheduler is deterministic.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/scenario.h"

namespace nova::bench {
namespace {

constexpr std::uint64_t kGuestMem = 32ull << 20;
constexpr std::uint64_t kScratchPages = 4;  // Balloon unit: order-2 block.

enum class Profile { kCompile, kCompute, kDisk, kNet };

const char* ProfileName(Profile p) {
  switch (p) {
    case Profile::kCompile: return "compile";
    case Profile::kCompute: return "compute";
    case Profile::kDisk: return "disk";
    case Profile::kNet: return "net";
  }
  return "?";
}

// Per-profile workload shapes. Units are sized so every profile finishes
// the same order of magnitude of simulated time on an unloaded core.
guest::CompileWorkload::Config WorkloadFor(Profile p, bool smoke) {
  guest::CompileWorkload::Config w;
  w.recycle_every = 100000;  // Recycling off: churn is not under test here.
  switch (p) {
    case Profile::kCompile:
      // The fig5 shape, scaled down: parallel jobs, working-set faults,
      // context switches. Runs under shadow paging.
      w.processes = 4;
      w.ws_pages = 64;
      w.total_units = smoke ? 90 : 500;
      w.compute_cycles = 20000;
      w.mem_bursts = 4;
      w.switch_every = 8;
      w.disk_every = 0;
      break;
    case Profile::kCompute:
      // Batch job: long compute bursts, almost no exits.
      w.processes = 1;
      w.ws_pages = 16;
      w.total_units = smoke ? 70 : 400;
      w.compute_cycles = 60000;
      w.mem_bursts = 1;
      w.switch_every = 1000;
      w.disk_every = 0;
      break;
    case Profile::kDisk:
      // I/O-bound: every few units a disk read through the virtual AHCI
      // controller and the core-0 disk server (cross-core IPC when the
      // VM lives elsewhere).
      w.processes = 2;
      w.ws_pages = 24;
      w.total_units = smoke ? 40 : 220;
      w.compute_cycles = 12000;
      w.mem_bursts = 2;
      w.switch_every = 16;
      w.disk_every = 8;
      break;
    case Profile::kNet:
      // Network-service stand-in: many small units with frequent context
      // switches — the exit- and scheduler-heavy end of the mix.
      w.processes = 2;
      w.ws_pages = 8;
      w.total_units = smoke ? 150 : 800;
      w.compute_cycles = 3000;
      w.mem_bursts = 1;
      w.switch_every = 4;
      w.disk_every = 0;
      break;
  }
  return w;
}

// One guest VM and its workload.
struct VmInstance {
  Profile profile;
  std::uint32_t cpu = 0;
  std::unique_ptr<GuestVm> vm;
  std::unique_ptr<guest::CompileWorkload> workload;
  std::uint64_t total_units = 0;
  sim::PicoSeconds done_ps = 0;  // 0 = still running.
};

struct ConsolidationResult {
  std::uint32_t cores = 0;
  std::uint32_t vms = 0;
  bool completed = false;
  double ms = 0;                 // Max busy-core time.
  double agg_units_per_s = 0;    // Total units / max completion time.
  double fairness = 1.0;         // Min Jain index across profile groups.
  std::uint64_t xcalls = 0;
  std::uint64_t shootdowns = 0;
  std::uint64_t lock_contention = 0;
  std::uint64_t trace_digest = 0;
};

// Jain's fairness index over per-VM throughput within one profile group:
// (sum x)^2 / (n * sum x^2); 1.0 = perfectly even progress.
double JainIndex(const std::vector<double>& xs) {
  if (xs.size() < 2) {
    return 1.0;
  }
  double sum = 0, sq = 0;
  for (double x : xs) {
    sum += x;
    sq += x * x;
  }
  if (sq <= 0) {
    return 0;
  }
  return sum * sum / (static_cast<double>(xs.size()) * sq);
}

// The profile mix. The first VM placed on each core is a compile VM:
// interrupts reach a busy core through VM-exit delivery of whatever guest
// is running there, so every core keeps one never-halting tenant and
// blocked I/O VMs cannot starve behind an idle core.
Profile ProfileFor(std::uint32_t vm_idx, std::uint32_t cores) {
  if (vm_idx < cores) {
    return Profile::kCompile;
  }
  // Satellite cycle length 3 is coprime with every power-of-two core
  // count, so each profile rotates across cores instead of pinning to one.
  switch ((vm_idx - cores) % 3) {
    case 0: return Profile::kCompute;
    case 1: return Profile::kDisk;
    default: return Profile::kNet;
  }
}

ConsolidationResult RunConsolidation(std::uint32_t cores, std::uint32_t vms,
                                     bool smoke, bool collect_digest) {
  root::SystemConfig sc;
  sc.machine.ram_size = 1ull << 30;
  sc.machine.cpus.assign(cores, &hw::CoreI7_920());
  root::NovaSystem system(sc);
  system.hv.set_vtlb_policy(hv::VtlbPolicy{.cache_contexts = true});

  std::vector<std::unique_ptr<VmInstance>> fleet;
  for (std::uint32_t i = 0; i < vms; ++i) {
    auto inst = std::make_unique<VmInstance>();
    inst->profile = ProfileFor(i, cores);
    inst->cpu = i % cores;
    const auto wcfg = WorkloadFor(inst->profile, smoke);
    inst->total_units = wcfg.total_units;

    // A consolidation host time-slices finely: with the default quantum a
    // single slice spans most of the run and co-tenants finish in arrival
    // order instead of advancing in lockstep. Disk VMs reach the core-0
    // disk server.
    inst->vm = std::make_unique<GuestVm>(
        system,
        vmm::VmmConfig{
            .name = std::string(ProfileName(inst->profile)) + std::to_string(i),
            .guest_mem_bytes = kGuestMem,
            .mode = inst->profile == Profile::kCompile
                        ? hw::TranslationMode::kShadow
                        : hw::TranslationMode::kNested,
            .first_cpu = inst->cpu,
            .quantum = 200'000},
        wcfg.disk_every != 0 ? GuestVm::Disk::kServer : GuestVm::Disk::kNone);
    inst->workload = std::make_unique<guest::CompileWorkload>(
        &inst->vm->kernel(), inst->vm->driver(), wcfg);
    inst->vm->Boot(inst->workload->EmitMain());
    fleet.push_back(std::move(inst));
  }

  // Balloon scratch: one block of host frames per VM, delegated into the
  // VM's space above its RAM. Revoking a block mid-run fires the tagged
  // shootdown at every core holding the VM's translations plus the
  // host-mapping flush at the rest.
  const std::uint64_t scratch_base =
      system.root->AllocPages(kScratchPages * vms, kScratchPages);
  std::uint32_t balloons_sent = 0;
  if (scratch_base != 0) {
    for (std::uint32_t i = 0; i < vms; ++i) {
      (void)system.hv.Delegate(
          system.root->pd(), fleet[i]->vm->vmm().ExposeVmToRoot(),
          hv::Crd{hv::CrdKind::kMem, scratch_base + i * kScratchPages, 2,
                  hv::perm::kRwx},
          (kGuestMem >> hw::kPageShift) + i * kScratchPages);
    }
  }

  sim::Tracer& tracer = system.machine.tracer();
  if (collect_digest) {
    tracer.Reset();
    tracer.set_enabled(true);
  }

  auto all_done = [&fleet, &system] {
    bool done = true;
    for (auto& inst : fleet) {
      if (inst->workload->done()) {
        if (inst->done_ps == 0) {
          inst->done_ps = system.machine.cpu(inst->cpu).NowPs();
        }
      } else {
        done = false;
      }
    }
    return done;
  };

  // Run in slices; between slices the balloon revokes the next victim's
  // scratch block. Core 0 always hosts a compile VM, so its clock is a
  // sound wall-clock proxy for the balloon cadence.
  const sim::PicoSeconds balloon_period =
      smoke ? sim::PicoSeconds(500'000'000ull)     // 0.5 ms
            : sim::PicoSeconds(2'000'000'000ull);  // 2 ms
  sim::PicoSeconds next_balloon = balloon_period;
  const sim::PicoSeconds deadline = sim::Seconds(120);
  while (true) {
    system.hv.RunUntilCondition(
        [&] {
          return all_done() ||
                 (balloons_sent < vms &&
                  system.machine.cpu(0).NowPs() >= next_balloon);
        },
        deadline);
    if (all_done()) {
      break;
    }
    if (balloons_sent < vms && scratch_base != 0 &&
        system.machine.cpu(0).NowPs() >= next_balloon) {
      (void)system.hv.Revoke(
          system.root->pd(),
          hv::Crd{hv::CrdKind::kMem,
                  scratch_base + balloons_sent * kScratchPages, 2,
                  hv::perm::kRwx},
          /*include_self=*/false);
      ++balloons_sent;
      next_balloon += balloon_period;
      continue;
    }
    break;  // Deadline hit or nothing left to make progress.
  }

  if (collect_digest) {
    tracer.set_enabled(false);
  }

  ConsolidationResult r;
  r.cores = cores;
  r.vms = vms;
  r.completed = all_done();
  sim::PicoSeconds end = 0;
  std::uint64_t total_units = 0;
  for (auto& inst : fleet) {
    const sim::PicoSeconds t =
        inst->done_ps != 0 ? inst->done_ps
                           : system.machine.cpu(inst->cpu).NowPs();
    end = std::max(end, t);
    total_units += inst->workload->units_done();
  }
  r.ms = static_cast<double>(end) / 1e9;
  r.agg_units_per_s = static_cast<double>(total_units) / (r.ms / 1e3);

  // Fairness per profile group: identical VMs should make identical
  // progress; the reported figure is the worst group.
  for (Profile p : {Profile::kCompile, Profile::kCompute, Profile::kDisk,
                    Profile::kNet}) {
    std::vector<double> rates;
    for (auto& inst : fleet) {
      if (inst->profile != p || inst->done_ps == 0) {
        continue;
      }
      rates.push_back(static_cast<double>(inst->workload->units_done()) /
                      static_cast<double>(inst->done_ps));
    }
    r.fairness = std::min(r.fairness, JainIndex(rates));
  }

  r.xcalls = system.hv.EventCount("ipc-xcalls");
  r.shootdowns = system.hv.EventCount("TLB Shootdown");
  r.lock_contention = system.hv.EventCount("lock-contention");
  r.trace_digest = collect_digest ? tracer.digest() : 0;
  return r;
}

void Run(const BenchOptions& opts) {
  PrintHeader("Extension: many-VM consolidation across cores");

  const std::uint32_t vms = opts.smoke ? 6 : 16;
  const std::vector<std::uint32_t> core_counts =
      opts.smoke ? std::vector<std::uint32_t>{1, 2}
                 : std::vector<std::uint32_t>{1, 2, 4, 8};

  std::printf("%5s %4s | %10s %12s %8s %9s | %8s %10s %9s\n", "cores", "vms",
              "time[ms]", "agg-units/s", "speedup", "fairness", "xcalls",
              "shootdown", "lock-cont");
  double base_rate = 0;
  double last_rate = 0;
  for (std::uint32_t cores : core_counts) {
    const ConsolidationResult r =
        RunConsolidation(cores, vms, opts.smoke, /*collect_digest=*/false);
    if (base_rate == 0) {
      base_rate = r.agg_units_per_s;
    }
    last_rate = r.agg_units_per_s;
    std::printf("%5u %4u | %10.3f %12.0f %7.2fx %9.3f | %8llu %10llu %9llu%s\n",
                r.cores, r.vms, r.ms, r.agg_units_per_s,
                r.agg_units_per_s / base_rate, r.fairness,
                static_cast<unsigned long long>(r.xcalls),
                static_cast<unsigned long long>(r.shootdowns),
                static_cast<unsigned long long>(r.lock_contention),
                r.completed ? "" : "  [INCOMPLETE]");
  }
  const double scaling = base_rate > 0 ? last_rate / base_rate : 0;
  std::printf("\nscaling 1->%u cores: %.2fx aggregate throughput\n",
              core_counts.back(), scaling);

  // Determinism: the same configuration twice must produce bit-identical
  // trace digests — the multicore scheduler has no hidden nondeterminism.
  const std::uint32_t dcores = opts.smoke ? 2 : 4;
  const std::uint32_t dvms = opts.smoke ? 4 : 8;
  const ConsolidationResult a =
      RunConsolidation(dcores, dvms, /*smoke=*/true, /*collect_digest=*/true);
  const ConsolidationResult b =
      RunConsolidation(dcores, dvms, /*smoke=*/true, /*collect_digest=*/true);
  std::printf("determinism (%u cores, %u vms): digest %016llx vs %016llx [%s]\n",
              dcores, dvms, static_cast<unsigned long long>(a.trace_digest),
              static_cast<unsigned long long>(b.trace_digest),
              a.trace_digest == b.trace_digest ? "OK" : "MISMATCH");

  std::printf(
      "\nShape: per-core run queues keep dispatch contention-free, so "
      "aggregate throughput scales with cores until the shared services "
      "bind — disk VMs funnel through the core-0 disk server (xcalls) and "
      "balloon revocations broadcast shootdowns. Fairness stays near 1.0: "
      "identical VMs on different cores advance in lockstep because an "
      "idle core's clock never depends on a busy neighbour.\n");
}

}  // namespace
}  // namespace nova::bench

int main(int argc, char** argv) {
  nova::bench::Run(nova::bench::ParseBenchArgs(argc, argv));
  return 0;
}
