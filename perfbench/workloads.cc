#include "workloads.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <memory>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "bench/common.h"
#include "bench/scenario.h"
#include "probes.h"
#include "src/guest/workload_disk.h"
#include "src/services/migration.h"

namespace nova::perfbench {
namespace {

using Rows = std::map<std::string, sim::TraceReport::Entry>;

constexpr const char* kWorkloadNames[] = {"compile_ept", "compile_shadow",
                                          "disk_4k", "migrate"};

// Set-up-only samples per untraced run, spaced evenly over its host-time
// budget, and set-up split samples per traced run.
constexpr std::size_t kSetupSamples = 20;
constexpr int kSplitSetups = 5;
// Back-to-back migrations per migrate episode.
constexpr std::uint32_t kMigrations = 4;
// Simulated time both migration nodes run on for the oracle check.
constexpr sim::PicoSeconds kOracleSlice = sim::Milliseconds(1);

// --- Workload configurations --------------------------------------------

// Figure 5 / Table 2's kernel-compile guest (fig5_kernel_compile.cc,
// tab2_events.cc): NOVA bar, EPT+VPID with 2 MiB host pages, or the
// paper's vTLB (fig5's "ctx-cache+VPID" rung) under shadow paging.
bench::RunConfig CompileConfig(const Options& o) {
  bench::RunConfig c;
  c.stack = bench::StackKind::kNova;
  c.workload.processes = 4;
  c.workload.ws_pages = 192;
  c.workload.total_units = o.compile_units;
  c.workload.compute_cycles = 30000;
  c.workload.mem_bursts = 6;
  c.workload.fresh_prob = 0.04;
  c.workload.switch_every = 20;
  c.workload.disk_every = 150;
  c.workload.seed = o.seed;
  if (o.workload == WorkloadKind::kCompileShadow) {
    c.mode = hw::TranslationMode::kShadow;
    c.vtlb = hv::VtlbPolicy{.cache_contexts = true, .use_vpid = true};
  }
  return c;
}

// Table 2's disk column: the same NOVA node with the timer off.
bench::RunConfig DiskConfig() {
  bench::RunConfig c;
  c.timer_hz = 0;
  return c;
}

// Part 1 of ext_migrate at its 256-page working sets: a live compile guest
// that never finishes and keeps dirtying its working set.
bench::RunConfig MigrateConfig(const Options& o) {
  bench::RunConfig c;
  c.stack = bench::StackKind::kNova;
  c.workload.processes = 2;
  c.workload.ws_pages = 256;
  c.workload.total_units = 10'000'000;
  c.workload.compute_cycles = 8000;
  c.workload.mem_bursts = 3;
  c.workload.switch_every = 10;
  c.workload.disk_every = 80;
  c.workload.recycle_every = 1'000'000;
  c.workload.seed = o.seed;
  return c;
}

services::MigrationConfig MigrationLink() {
  services::MigrationConfig mc;
  mc.bandwidth_mbps = 40000;
  mc.max_rounds = 8;
  mc.stop_copy_threshold_pages = 64;
  return mc;
}

constexpr std::uint64_t kGuestPages = bench::kBenchGuestMem >> hw::kPageShift;

// --- Run context ----------------------------------------------------------

struct SpanNames {
  explicit SpanNames(HostTrace& h)
      : step(h.Intern("hv::StepOnce")),
        node(h.Intern("setup:node")),
        system(h.Intern("setup:root::NovaSystem")),
        vmm(h.Intern("setup:vmm::Vmm+DiskServer")),
        guest(h.Intern("setup:guest image+Vmm::Start")),
        driver(h.Intern("mig:MigrationDriver::Run")),
        run_source(h.Intern("mig:run_source")),
        save(h.Intern("mig:SaveState")),
        encode(h.Intern("mig:Snapshot::Encode")),
        decode(h.Intern("mig:Snapshot::Decode")),
        load(h.Intern("mig:LoadState")),
        native(h.Intern("accuracy:native run")) {}
  std::uint16_t step, node, system, vmm, guest, driver, run_source, save,
      encode, decode, load, native;
};

struct Ctx {
  // Untraced runs never record host spans: a token ring keeps the peak
  // RSS of their episodes free of the tracer's buffer.
  explicit Ctx(const Options& o) : opts(o), host(o.trace ? 1u << 18 : 16) {}
  const Options& opts;
  HostTrace host;
  SpanNames names{host};
  std::vector<double> step_us;          // Every timed StepOnce.
  std::vector<double> driver_self_ms;   // MigrationDriver::Run minus hooks.
  std::uint64_t migration_index = 0;    // Groups one migration's spans.
};

// What one episode's machine tracer recorded over its measurement windows.
struct Tracing {
  bool on = false;
  Rows rows;
  std::uint64_t records = 0;
  std::string sim_json;  // Chrome export of each window, when requested.
};

// Runs `hv` exactly as Hypervisor::RunUntilCondition does. In a traced
// episode every StepOnce is timed and recorded as a host span.
void Drive(hv::Hypervisor& hv, const std::function<bool()>& done,
           sim::PicoSeconds deadline, Ctx& ctx, bool traced) {
  if (!traced) {
    hv.RunUntilCondition(done, deadline);
    return;
  }
  while (!done() && hv.WorkRemainsBefore(deadline)) {
    const sim::PicoSeconds t0 = HostNowPs();
    const bool progressed = hv.StepOnce();
    const sim::PicoSeconds t1 = HostNowPs();
    ctx.host.Record(ctx.names.step, Layer::kHv, t0, t1);
    ctx.step_us.push_back(static_cast<double>(t1 - t0) / 1e6);
    if (!progressed) {
      return;
    }
  }
}

// The machine tracer on over one measurement window, as tab2 does.
// Closing folds the window into the episode's rows and resets the tracer
// to its never-enabled state, so snapshots of traced and untraced runs
// carry identical bytes.
class TraceWindow {
 public:
  TraceWindow(sim::Tracer& tracer, Tracing& t) : tracer_(tracer), t_(t) {
    if (t_.on) {
      open_ = true;
      tracer_.Reset();
      tracer_.set_sink(&report_);
      tracer_.set_enabled(true);
    }
  }
  ~TraceWindow() { Close(); }
  TraceWindow(const TraceWindow&) = delete;
  TraceWindow& operator=(const TraceWindow&) = delete;

  void Close() {
    if (!open_) {
      return;
    }
    open_ = false;
    tracer_.set_enabled(false);
    if (!t_.sim_json.empty()) {
      (void)tracer_.WriteChromeJsonFile(t_.sim_json);
    }
    report_.FoldRemaining(tracer_);
    for (const auto& [name, e] : report_.Rows(tracer_)) {
      t_.rows[name].count += e.count;
      t_.rows[name].total_ps += e.total_ps;
    }
    t_.records += tracer_.total_records();
    tracer_.set_sink(nullptr);
    tracer_.Reset();
  }

 private:
  sim::Tracer& tracer_;
  Tracing& t_;
  sim::TraceReport report_;
  bool open_ = false;
};

// Counter-registry and component statistics of one node. Every workload
// reports every key (zero where the layer does no work), so runs of all
// workloads print the same per-layer metric set.
void AddNodeStats(root::NovaSystem& sys, vmm::Vmm& vm, SimStats* s) {
  const sim::StatRegistry& st = sys.hv.stats();
  hw::Tlb& tlb = sys.machine.cpu(0).tlb();
  const auto v = [&st](const char* name) {
    return static_cast<double>(st.Value(name));
  };
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  const double hits = static_cast<double>(tlb.hits().value());
  const double lookups = hits + static_cast<double>(tlb.misses().value());
  (*s)["hw.insns"] = static_cast<double>(sys.hv.engine(0).instructions());
  (*s)["hw.tlb.lookups"] = lookups;
  (*s)["hw.tlb.hit_ratio"] = ratio(hits, lookups);
  (*s)["hw.tlb.flushes"] = static_cast<double>(tlb.flushes().value());
  (*s)["hw.mem.resident_mib"] =
      static_cast<double>(sys.machine.mem().resident_frames() * hw::kPageSize) /
      (1 << 20);
  (*s)["hv.event.mmio"] = v("Memory-Mapped I/O");
  (*s)["hv.event.pio"] = v("Port I/O");
  (*s)["hv.ipc.calls"] = v("ipc-calls");
  (*s)["hv.vm_event_ipc"] = v("vm-event-ipc");
  (*s)["hv.gsi.delivered"] = v("gsi-delivered");
  (*s)["hv.vtlb.fills"] = v("vTLB Fill");
  (*s)["hv.vtlb.flushes"] = v("vTLB Flush");
  const double ctx_hits = v("vTLB Context Hit");
  (*s)["hv.vtlb.ctx_hit_ratio"] =
      ratio(ctx_hits, ctx_hits + v("vTLB Context Miss"));
  (*s)["hv.vtlb.ctx_evictions"] =
      v("vTLB Context Evict") + v("vTLB Pressure Evict");
  (*s)["vmm.exits"] = static_cast<double>(vm.exits_handled());
  (*s)["vmm.irqs_injected"] = static_cast<double>(vm.interrupts_injected());
  const services::DiskServer* server = sys.disk_server.get();
  (*s)["svc.disk.completed"] =
      server ? static_cast<double>(server->requests_completed()) : 0;
  (*s)["svc.disk.retried"] =
      server ? static_cast<double>(server->requests_retried()) : 0;
  for (const char* name :
       {"svc.mig.rounds", "svc.mig.precopy_pages", "svc.mig.stop_copy_pages",
        "svc.mig.resend_ratio", "svc.mig.downtime_us", "sim.snap.mib"}) {
    (*s)[name] = 0;
  }
}

void AddGuestStats(double units, double disk_reads, double ctx_switches,
                   SimStats* s) {
  (*s)["guest.units"] = units;
  (*s)["guest.disk_reads"] = disk_reads;
  (*s)["guest.ctx_switches"] = ctx_switches;
}

// Simulated CPU busy cycles over a window, in thousands per operation.
double BusyKcyclesPerOp(hw::Cpu& cpu, sim::Cycles since, double ops) {
  return cpu.Utilization() * static_cast<double>(cpu.cycles() - since) /
         1e3 / ops;
}

// --- Episodes --------------------------------------------------------------

// One fixed-size unit of measured work on freshly built node(s).
class Episode {
 public:
  virtual ~Episode() = default;
  // The timed phase; returns its host seconds.
  virtual double Run(Ctx& ctx, Tracing& t) = 0;
  // Adds the simulated statistics; returns the first failed output check.
  virtual std::string Collect(SimStats* s) = 0;
  virtual std::uint64_t ops() const = 0;
  // The node the host probes run on after the run.
  virtual root::NovaSystem& system() = 0;
  virtual vmm::Vmm& vm() = 0;
};

// A node built in the three set-up phases the per-layer metrics time. The
// sequence is bench::CompileScenario's for the kNova stack, which is also
// tab2's disk stack (tab2_events.cc RunDisk4k).
struct Node {
  std::unique_ptr<root::NovaSystem> system;
  std::unique_ptr<vmm::Vmm> vm;
  guest::GuestLogicMux mux;
  std::unique_ptr<guest::GuestKernel> gk;
  std::unique_ptr<guest::GuestAhciDriver> driver;
  std::unique_ptr<guest::CompileWorkload> compile;
  std::unique_ptr<guest::DiskWorkload> disk;
};

// `disk_requests` != 0 installs the sequential 4 KiB disk workload instead
// of the compile workload. `phase_s` receives the three phases' host time.
std::unique_ptr<Node> BuildNode(const bench::RunConfig& cfg,
                                std::uint64_t disk_requests, Ctx& ctx,
                                double phase_s[3]) {
  auto node = std::make_unique<Node>();
  Node& n = *node;
  sim::PicoSeconds t = HostNowPs();
  const auto lap = [&t](double* out) {
    const sim::PicoSeconds now = HostNowPs();
    *out = PsToSeconds(now - t);
    t = now;
  };
  {
    const auto span = ctx.host.Span(ctx.names.system, Layer::kRoot);
    root::SystemConfig sc;
    sc.machine = hw::MachineConfig{.cpus = {cfg.cpu}, .ram_size = 512ull << 20};
    sc.hv_costs = baseline::NovaCosts();
    n.system = std::make_unique<root::NovaSystem>(sc);
    n.system->hv.set_vtlb_policy(cfg.vtlb);
  }
  lap(&phase_s[0]);
  {
    const auto span = ctx.host.Span(ctx.names.vmm, Layer::kRoot);
    vmm::VmmConfig vc;
    vc.guest_mem_bytes = bench::kBenchGuestMem;
    vc.large_pages = cfg.large_pages;
    vc.mode = cfg.mode;
    n.vm = std::make_unique<vmm::Vmm>(&n.system->hv, n.system->root.get(), vc);
    n.vm->ConnectDiskServer(&n.system->StartDiskServer());
  }
  lap(&phase_s[1]);
  {
    const auto span = ctx.host.Span(ctx.names.guest, Layer::kRoot);
    vmm::Vmm* vm = n.vm.get();
    n.mux.Attach(n.system->hv.engine(0));
    n.gk = std::make_unique<guest::GuestKernel>(
        &n.system->machine.mem(),
        [vm](std::uint64_t gpa) { return vm->GpaToHpa(gpa); }, &n.mux,
        guest::GuestKernelConfig{.mem_bytes = bench::kBenchGuestMem,
                                 .timer_hz = cfg.timer_hz});
    n.gk->BuildStandardHandlers();
    n.driver = std::make_unique<guest::GuestAhciDriver>(
        n.gk.get(), guest::GuestAhciDriver::Config{
                        .mmio_base = vmm::vahci::kMmioBase,
                        .irq_vector = vmm::vahci::kVector,
                        .read_ci = [vm]() -> std::uint32_t {
                          return static_cast<std::uint32_t>(vm->vahci().MmioRead(
                              vmm::vahci::kMmioBase + hw::ahci::kPxCi, 4));
                        },
                        .read_err = {}});
    std::uint64_t main = 0;
    if (disk_requests != 0) {
      n.disk = std::make_unique<guest::DiskWorkload>(
          n.gk.get(), n.driver.get(),
          guest::DiskWorkload::Config{.block_bytes = 4096,
                                      .total_requests = disk_requests});
      main = n.disk->EmitMain();
    } else {
      n.compile = std::make_unique<guest::CompileWorkload>(
          n.gk.get(), n.driver.get(), cfg.workload);
      main = n.compile->EmitMain();
    }
    n.gk->EmitBoot(main);
    n.gk->Install();
    n.gk->PrimeState(n.vm->gstate());
    (void)n.vm->Start(n.vm->gstate().rip);
  }
  lap(&phase_s[2]);
  return node;
}

// A kernel-compile guest on the figures' own node (bench::CompileScenario),
// or on a node BuildNode made, to hold that copy to the original.
class CompileEpisode : public Episode {
 public:
  CompileEpisode(Ctx& ctx, double* setup_s)
      : deadline_(ctx.opts.sim_deadline), units_(ctx.opts.compile_units) {
    const sim::PicoSeconds t0 = HostNowPs();
    {
      const auto span = ctx.host.Span(ctx.names.node, Layer::kRoot);
      scn_ = std::make_unique<bench::CompileScenario>(CompileConfig(ctx.opts));
    }
    *setup_s = PsToSeconds(HostNowPs() - t0);
    sys_ = &scn_->system();
    vm_ = &scn_->vm();
    w_ = &scn_->workload();
  }

  CompileEpisode(const Options& o, std::unique_ptr<Node> node)
      : deadline_(o.sim_deadline),
        units_(o.compile_units),
        node_(std::move(node)),
        sys_(node_->system.get()),
        vm_(node_->vm.get()),
        w_(node_->compile.get()) {}

  double Run(Ctx& ctx, Tracing& t) override {
    hw::Cpu& cpu = sys_->machine.cpu(0);
    const sim::PicoSeconds h0 = HostNowPs();
    // bench::RunCompile's measurement window (fig5, tab2).
    cpu.ResetUtilization();
    sys_->hv.stats().ResetAll();
    TraceWindow window(sys_->machine.tracer(), t);
    t0_ = cpu.NowPs();
    c0_ = cpu.cycles();
    guest::CompileWorkload* w = w_;
    Drive(sys_->hv, [w] { return w->done(); }, deadline_, ctx, t.on);
    window.Close();
    return PsToSeconds(HostNowPs() - h0);
  }

  std::string Collect(SimStats* s) override {
    hw::Cpu& cpu = sys_->machine.cpu(0);
    AddNodeStats(*sys_, *vm_, s);
    AddGuestStats(static_cast<double>(w_->units_done()),
                  static_cast<double>(w_->disk_reads()),
                  static_cast<double>(w_->context_switches()), s);
    (*s)["sim_s"] = PsToSeconds(cpu.NowPs() - t0_);
    (*s)["busy_kcycles_per_op"] =
        BusyKcyclesPerOp(cpu, c0_, static_cast<double>(units_));
    if (!w_->done()) {
      return "compile guest unfinished at its simulated deadline";
    }
    return "";
  }

  std::uint64_t ops() const override { return units_; }
  root::NovaSystem& system() override { return *sys_; }
  vmm::Vmm& vm() override { return *vm_; }

 private:
  sim::PicoSeconds deadline_;
  std::uint64_t units_;
  std::unique_ptr<bench::CompileScenario> scn_;  // One of these two
  std::unique_ptr<Node> node_;                   // owns the node.
  root::NovaSystem* sys_ = nullptr;
  vmm::Vmm* vm_ = nullptr;
  guest::CompileWorkload* w_ = nullptr;
  sim::PicoSeconds t0_ = 0;
  sim::Cycles c0_ = 0;
};

// Table 2's 4 KiB disk column: sequential direct-I/O reads through the
// VMM's vAHCI and the user-level disk server.
class DiskEpisode : public Episode {
 public:
  DiskEpisode(Ctx& ctx, double* setup_s)
      : deadline_(ctx.opts.sim_deadline), requests_(ctx.opts.disk_requests) {
    double phase[3];
    node_ = BuildNode(DiskConfig(), requests_, ctx, phase);
    *setup_s = phase[0] + phase[1] + phase[2];
  }

  double Run(Ctx& ctx, Tracing& t) override {
    root::NovaSystem& sys = *node_->system;
    hw::Cpu& cpu = sys.machine.cpu(0);
    const sim::PicoSeconds h0 = HostNowPs();
    cpu.ResetUtilization();
    sys.hv.stats().ResetAll();
    TraceWindow window(sys.machine.tracer(), t);
    t0_ = cpu.NowPs();
    c0_ = cpu.cycles();
    guest::DiskWorkload* w = node_->disk.get();
    Drive(sys.hv, [w] { return w->done(); }, deadline_, ctx, t.on);
    window.Close();
    return PsToSeconds(HostNowPs() - h0);
  }

  std::string Collect(SimStats* s) override {
    root::NovaSystem& sys = *node_->system;
    hw::Cpu& cpu = sys.machine.cpu(0);
    const guest::DiskWorkload& w = *node_->disk;
    const double done = static_cast<double>(w.completed());
    AddNodeStats(sys, *node_->vm, s);
    AddGuestStats(done, done, 0, s);
    (*s)["sim_s"] = PsToSeconds(cpu.NowPs() - t0_);
    (*s)["busy_kcycles_per_op"] =
        BusyKcyclesPerOp(cpu, c0_, static_cast<double>(requests_));
    if (!w.done()) {
      return "disk guest unfinished at its simulated deadline";
    }
    if (sys.disk_server->requests_failed() != 0) {
      return "disk server reported failed requests";
    }
    // The guest buffer holds the last sequential read: compare it with the
    // disk's content at that LBA.
    constexpr std::uint64_t kBlock = 4096;
    std::vector<std::uint8_t> want(kBlock), got(kBlock);
    sys.platform.disk->ReadContent((requests_ - 1) * kBlock, want.data(),
                                   kBlock);
    if (!node_->vm->ReadGuest(guest::GuestLayout::kDmaBase, got.data(),
                              kBlock) ||
        want != got) {
      return "guest buffer differs from the disk content of the last read";
    }
    return "";
  }

  std::uint64_t ops() const override { return requests_; }
  root::NovaSystem& system() override { return *node_->system; }
  vmm::Vmm& vm() override { return *node_->vm; }

 private:
  sim::PicoSeconds deadline_;
  std::uint64_t requests_;
  std::unique_ptr<Node> node_;
  sim::PicoSeconds t0_ = 0;
  sim::Cycles c0_ = 0;
};

// Back-to-back pre-copy migrations of one live compile guest between two
// nodes (ext_migrate part 1). The paused source of one migration becomes
// the target of the next.
class MigrateEpisode : public Episode {
 public:
  MigrateEpisode(Ctx& ctx, double* setup_s)
      : deadline_(ctx.opts.sim_deadline) {
    const bench::RunConfig cfg = MigrateConfig(ctx.opts);
    const sim::PicoSeconds t0 = HostNowPs();
    for (auto* node : {&a_, &b_}) {
      const auto span = ctx.host.Span(ctx.names.node, Layer::kRoot);
      *node = std::make_unique<bench::CompileScenario>(cfg);
    }
    *setup_s = PsToSeconds(HostNowPs() - t0);
    live_ = a_.get();
    idle_ = b_.get();
  }

  double Run(Ctx& ctx, Tracing& t) override {
    const sim::PicoSeconds h0 = HostNowPs();
    hv::Hypervisor& hv = live_->system().hv;
    // Warm the working set before the first migration (ext_migrate).
    Drive(hv, [] { return false; }, live_->now() + sim::Milliseconds(2), ctx,
          t.on);
    units0_ = live_->workload().units_done();
    double host_s = PsToSeconds(HostNowPs() - h0);
    for (std::uint32_t i = 0; i < kMigrations && error_.empty(); ++i) {
      host_s += MigrateOnce(ctx, t);
      if (error_.empty()) {
        error_ = Oracle();
      }
      std::swap(live_, idle_);  // The target runs on.
    }
    return host_s;
  }

  std::string Collect(SimStats* s) override {
    if (results_.empty()) {
      return error_.empty() ? "no migration ran" : error_;
    }
    bench::CompileScenario& live = *live_;
    AddNodeStats(live.system(), live.vm(), s);
    const guest::CompileWorkload& w = live.workload();
    AddGuestStats(static_cast<double>(w.units_done() - units0_),
                  static_cast<double>(w.disk_reads()),
                  static_cast<double>(w.context_switches()), s);
    double total_ps = 0, rounds = 0, precopy = 0, stop_copy = 0, snap = 0;
    std::vector<double> downtime_us;
    for (const services::MigrationResult& r : results_) {
      total_ps += static_cast<double>(r.total_ps);
      rounds += r.rounds;
      precopy += static_cast<double>(r.precopy_pages);
      stop_copy += static_cast<double>(r.stop_copy_pages);
      snap += static_cast<double>(r.snapshot_bytes);
      downtime_us.push_back(static_cast<double>(r.downtime_ps) / 1e6);
    }
    const double n = static_cast<double>(results_.size());
    (*s)["sim_s"] = total_ps / 1e12;
    // The migrating guest's CPU cost per compile unit it ran meanwhile.
    (*s)["busy_kcycles_per_op"] = busy_cycles_ / 1e3 / migrated_units_;
    (*s)["svc.mig.rounds"] = rounds;
    (*s)["svc.mig.precopy_pages"] = precopy;
    (*s)["svc.mig.stop_copy_pages"] = stop_copy;
    (*s)["svc.mig.resend_ratio"] =
        (precopy + stop_copy) / (static_cast<double>(kGuestPages) * n);
    (*s)["svc.mig.downtime_us"] = Median(downtime_us);
    (*s)["sim.snap.mib"] = snap / n / (1 << 20);
    if (!error_.empty()) {
      return error_;
    }
    if (live.now() > deadline_) {
      return "migrations overran their simulated deadline";
    }
    return "";
  }

  std::uint64_t ops() const override { return kMigrations; }
  root::NovaSystem& system() override { return live_->system(); }
  vmm::Vmm& vm() override { return live_->vm(); }

 private:
  double MigrateOnce(Ctx& ctx, Tracing& t) {
    bench::CompileScenario& src = *live_;
    bench::CompileScenario& dst = *idle_;
    const std::uint64_t index = ctx.migration_index++;
    hw::Cpu& cpu = src.system().machine.cpu(0);
    cpu.ResetUtilization();
    const sim::Cycles c0 = cpu.cycles();
    const std::uint64_t u0 = src.workload().units_done();
    sim::PicoSeconds hooks = 0;
    const auto record = [&](std::uint16_t name, Layer layer,
                            sim::PicoSeconds b, sim::PicoSeconds e) {
      ctx.host.Record(name, layer, b, e, index);
      hooks += e - b;
    };

    TraceWindow window(src.system().machine.tracer(), t);
    services::MigrationDriver::Endpoints ep;
    ep.source_hv = &src.system().hv;
    ep.source_vm_pd = src.vm().vm_pd();
    ep.link = src.system().platform.link.get();
    ep.guest_pages = kGuestPages;
    ep.run_source = [&](sim::PicoSeconds dt) {
      const sim::PicoSeconds b = HostNowPs();
      Drive(src.system().hv, [] { return false; }, src.now() + dt, ctx, t.on);
      record(ctx.names.run_source, Layer::kServices, b, HostNowPs());
    };
    ep.save = [&](sim::Snapshot& snap) {
      window.Close();  // The snapshot must not carry trace records.
      const sim::PicoSeconds b = HostNowPs();
      const Status st = src.SaveState(snap);
      record(ctx.names.save, Layer::kSim, b, HostNowPs());
      return st;
    };
    ep.load = [&](sim::Snapshot& snap) {
      // The snapshot crosses the link as bytes.
      sim::PicoSeconds b = HostNowPs();
      const std::vector<std::uint8_t> bytes = snap.Encode();
      sim::PicoSeconds e = HostNowPs();
      record(ctx.names.encode, Layer::kSim, b, e);
      sim::Snapshot shipped;
      const Status decoded = shipped.Decode(bytes);
      b = e;
      e = HostNowPs();
      record(ctx.names.decode, Layer::kSim, b, e);
      if (decoded != Status::kSuccess) {
        return decoded;
      }
      const Status st = dst.LoadState(shipped);
      record(ctx.names.load, Layer::kSim, e, HostNowPs());
      return st;
    };

    services::MigrationDriver driver(std::move(ep), MigrationLink());
    const sim::PicoSeconds b = HostNowPs();
    const services::MigrationResult r = driver.Run();
    const sim::PicoSeconds e = HostNowPs();
    window.Close();
    ctx.host.Record(ctx.names.driver, Layer::kServices, b, e, index);
    if (t.on) {
      ctx.driver_self_ms.push_back(static_cast<double>(e - b - hooks) / 1e9);
    }
    results_.push_back(r);
    if (!r.success) {
      error_ = "migration did not complete";
    }
    busy_cycles_ += cpu.Utilization() * static_cast<double>(cpu.cycles() - c0);
    migrated_units_ += static_cast<double>(src.workload().units_done() - u0);
    return PsToSeconds(e - b);
  }

  // The migrate_test oracle: the paused source holds exactly the state the
  // snapshot captured, so it and the target, run on for the same simulated
  // slice, must emit identical traces.
  std::string Oracle() {
    std::uint64_t digest[2] = {};
    std::uint64_t units[2] = {};
    bench::CompileScenario* nodes[2] = {live_, idle_};
    for (int k = 0; k < 2; ++k) {
      sim::Tracer& tracer = nodes[k]->system().machine.tracer();
      tracer.Reset();
      tracer.set_enabled(true);
      nodes[k]->RunFor(kOracleSlice);
      tracer.set_enabled(false);
      digest[k] = tracer.digest();
      units[k] = nodes[k]->workload().units_done();
      tracer.Reset();
    }
    if (digest[0] != digest[1] || units[0] != units[1]) {
      return "migrated guest diverged from its paused source";
    }
    return "";
  }

  sim::PicoSeconds deadline_;
  std::unique_ptr<bench::CompileScenario> a_, b_;
  bench::CompileScenario* live_ = nullptr;
  bench::CompileScenario* idle_ = nullptr;
  std::vector<services::MigrationResult> results_;
  std::string error_;
  std::uint64_t units0_ = 0;
  double busy_cycles_ = 0;
  double migrated_units_ = 0;
};

std::unique_ptr<Episode> BuildEpisode(Ctx& ctx, double* setup_s) {
  switch (ctx.opts.workload) {
    case WorkloadKind::kCompileEpt:
    case WorkloadKind::kCompileShadow:
      return std::make_unique<CompileEpisode>(ctx, setup_s);
    case WorkloadKind::kDisk4k:
      return std::make_unique<DiskEpisode>(ctx, setup_s);
    case WorkloadKind::kMigrate:
      return std::make_unique<MigrateEpisode>(ctx, setup_s);
  }
  return nullptr;
}

// Peak RSS of a child process that runs one untraced episode. This
// process's own high-water mark grows with the number of episodes it has
// run (memory of destroyed nodes is not all returned), so it would depend
// on host speed. Forked before any episode, the child starts small.
double OneEpisodePeakRssMib(Ctx& ctx) {
  int fds[2];
  if (pipe(fds) != 0) {
    return 0;
  }
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    Tracing t;
    double setup = 0;
    (void)BuildEpisode(ctx, &setup)->Run(ctx, t);
    const double rss = PeakRssMib();
    const bool sent = write(fds[1], &rss, sizeof rss) == sizeof rss;
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  double rss = 0;
  if (pid < 0 || read(fds[0], &rss, sizeof rss) != sizeof rss) {
    rss = 0;
  }
  close(fds[0]);
  if (pid > 0) {
    waitpid(pid, nullptr, 0);
  }
  return rss;
}

// --- Per-layer metrics ----------------------------------------------------

// Units of the per-layer metrics read from an episode's SimStats.
constexpr std::pair<const char*, const char*> kSimLayerUnits[] = {
    {"hw.insns", "count"},
    {"hw.tlb.lookups", "count"},
    {"hw.tlb.hit_ratio", "ratio"},
    {"hw.tlb.flushes", "count"},
    {"hw.mem.resident_mib", "MiB"},
    {"hv.event.mmio", "count"},
    {"hv.event.pio", "count"},
    {"hv.ipc.calls", "count"},
    {"hv.vm_event_ipc", "count"},
    {"hv.gsi.delivered", "count"},
    {"hv.vtlb.fills", "count"},
    {"hv.vtlb.flushes", "count"},
    {"hv.vtlb.ctx_hit_ratio", "ratio"},
    {"hv.vtlb.ctx_evictions", "count"},
    {"vmm.exits", "count"},
    {"vmm.irqs_injected", "count"},
    {"svc.disk.completed", "count"},
    {"svc.disk.retried", "count"},
    {"svc.mig.rounds", "count"},
    {"svc.mig.precopy_pages", "count"},
    {"svc.mig.stop_copy_pages", "count"},
    {"svc.mig.resend_ratio", "ratio"},
    {"svc.mig.downtime_us", "sim_us"},
    {"sim.snap.mib", "MiB"},
    {"guest.units", "count"},
    {"guest.disk_reads", "count"},
    {"guest.ctx_switches", "count"},
};

// Exit reasons reported from the machine trace's "exit:<reason>" spans.
constexpr const char* kExitReasons[] = {
    "page-fault", "ept-violation", "port-io", "hlt", "mov-cr", "invlpg",
    "external-interrupt", "interrupt-window", "recall"};

double Kcycles(sim::PicoSeconds ps) {
  return static_cast<double>(hw::CoreI7_920().frequency.PicosToCycles(ps)) /
         1e3;
}

// Returns the first probe that could not run.
std::string AddPerLayer(Ctx& ctx, const Result& res, Episode& last,
                        const Tracing& t, double traced_episodes,
                        double overhead_pct, Metrics* m) {
  const Options& o = ctx.opts;
  for (const auto& [name, unit] : kSimLayerUnits) {
    (*m)[name] = {res.sim.at(name), unit};
  }
  const auto row = [&t](const std::string& name) {
    const auto it = t.rows.find(name);
    return it == t.rows.end() ? sim::TraceReport::Entry{} : it->second;
  };
  // Rows accumulate over the traced episodes; report per episode.
  for (const char* reason : kExitReasons) {
    const sim::TraceReport::Entry e = row(std::string("exit:") + reason);
    const std::string base = std::string("hv.exit.") + reason;
    (*m)[base + ".count"] = {static_cast<double>(e.count) / traced_episodes,
                             "count"};
    (*m)[base + ".kcycles"] = {Kcycles(e.total_ps) / traced_episodes,
                               "sim_kcycles"};
  }
  (*m)["hv.ipc.kcycles"] = {Kcycles(row("IPC Call").total_ps) / traced_episodes,
                            "sim_kcycles"};
  (*m)["hv.sched.dispatches"] = {
      static_cast<double>(row("Sched Dispatch").count) / traced_episodes,
      "count"};
  (*m)["sim.trace.records"] = {static_cast<double>(t.records) / traced_episodes,
                               "count"};
  (*m)["sim.trace.overhead_pct"] = {overhead_pct, "pct"};

  (*m)["hv.step.count"] = {
      static_cast<double>(ctx.step_us.size()) / traced_episodes, "count"};
  (*m)["hv.step.host_us.p50"] = {Quantile(ctx.step_us, 0.50), "us"};
  // p99 needs at least ten samples beyond it.
  (*m)["hv.step.host_us.p99"] = {
      ctx.step_us.size() >= 1000 ? Quantile(ctx.step_us, 0.99) : 0, "us"};

  (*m)["svc.mig.driver_self_ms"] = {Median(ctx.driver_self_ms), "ms"};
  (*m)["sim.snap.save_ms"] = {ctx.host.MeanMs("mig:SaveState"), "ms"};
  (*m)["sim.snap.encode_ms"] = {ctx.host.MeanMs("mig:Snapshot::Encode"), "ms"};
  (*m)["sim.snap.decode_ms"] = {ctx.host.MeanMs("mig:Snapshot::Decode"), "ms"};
  (*m)["sim.snap.load_ms"] = {ctx.host.MeanMs("mig:LoadState"), "ms"};

  // Host probes of single hw operations, on the last traced episode's
  // machine state (every simulated statistic has been read already).
  root::NovaSystem& sys = last.system();
  const HwProbeNs p =
      ProbeHw(sys.machine.mem(), sys.machine.cpu(0),
              last.vm().vm_pd()->mem_space().table(), kGuestPages, o.seed,
              ctx.host);
  if (!p.error.empty()) {
    return p.error;
  }
  (*m)["hw.physmem.read_ns"] = {p.physmem_read, "ns"};
  (*m)["hw.tlb.lookup_ns"] = {p.tlb_lookup, "ns"};
  (*m)["hw.tlb.insert_evict_ns"] = {p.tlb_insert_evict, "ns"};
  (*m)["hw.pt.walk_ns"] = {p.pt_walk, "ns"};

  // Set-up split: the node's construction in its three phases.
  const bool disk = o.workload == WorkloadKind::kDisk4k;
  const bench::RunConfig cfg =
      disk ? DiskConfig()
           : (o.workload == WorkloadKind::kMigrate ? MigrateConfig(o)
                                                   : CompileConfig(o));
  std::vector<double> phase[3];
  for (int i = 0; i < kSplitSetups; ++i) {
    double s[3];
    (void)BuildNode(cfg, disk ? o.disk_requests : 0, ctx, s);
    for (int k = 0; k < 3; ++k) {
      phase[k].push_back(s[k] * 1e3);
    }
  }
  (*m)["setup.system_ms"] = {Median(phase[0]), "ms"};
  (*m)["setup.vmm_ms"] = {Median(phase[1]), "ms"};
  (*m)["setup.guest_ms"] = {Median(phase[2]), "ms"};

  // Accuracy: the same guest and seed natively, against the paper's bar.
  double rel = 0, paper = 0;
  if (o.workload == WorkloadKind::kCompileEpt ||
      o.workload == WorkloadKind::kCompileShadow) {
    bench::RunConfig native = CompileConfig(o);
    native.stack = bench::StackKind::kNative;
    const auto span = ctx.host.Span(ctx.names.native, Layer::kRoot);
    rel = bench::RunCompile(native).seconds / res.sim.at("sim_s") * 100;
    paper = o.workload == WorkloadKind::kCompileEpt ? 98.1 : 78.5;
  }
  (*m)["accuracy.rel_native_pct"] = {rel, "pct"};
  (*m)["accuracy.paper_rel_pct"] = {paper, "pct"};
  return "";
}

}  // namespace

bool ParseWorkload(const std::string& name, WorkloadKind* out) {
  for (std::size_t i = 0; i < std::size(kWorkloadNames); ++i) {
    if (name == kWorkloadNames[i]) {
      *out = static_cast<WorkloadKind>(i);
      return true;
    }
  }
  return false;
}

Result RunBenchmark(const Options& opts) {
  Ctx ctx(opts);
  Result res;
  const double peak_rss_mib = opts.trace ? 0 : OneEpisodePeakRssMib(ctx);
  const sim::PicoSeconds start = HostNowPs();
  const auto budget = static_cast<sim::PicoSeconds>(opts.seconds * 1e12);
  // Episode host time in reference units (untraced, traced), raw
  // untraced host seconds, reference times and set-up times.
  std::vector<double> host_ref, traced_ref, host_s, refs, setup_s;
  std::unique_ptr<Episode> last_traced;
  Tracing traced_rows;  // Summed over the traced episodes.
  double traced_episodes = 0;

  // An untraced run times kSetupSamples set-ups that build and discard an
  // episode's node(s); sample k is taken at the first episode boundary
  // after (k + 1/2) / kSetupSamples of the budget. Their number does not
  // depend on how fast episodes run, so neither does their minimum.
  const auto take_due_setups = [&](bool all) {
    while (!opts.trace && setup_s.size() < kSetupSamples) {
      const double due = opts.seconds *
                         (static_cast<double>(setup_s.size()) + 0.5) /
                         kSetupSamples;
      if (!all && PsToSeconds(HostNowPs() - start) < due) {
        return;
      }
      double setup = 0;
      (void)BuildEpisode(ctx, &setup);
      setup_s.push_back(setup);
    }
  };

  // A traced run alternates untraced and traced episodes, so the tracing
  // overhead compares episodes measured under the same host conditions.
  double ref_before = ReferenceSeconds();
  for (int episode = 0;; ++episode) {
    take_due_setups(false);
    Tracing t;
    t.on = opts.trace && episode % 2 == 1;
    if (t.on && !opts.chrome_trace.empty()) {
      t.sim_json = opts.chrome_trace + ".sim.json";
    }
    ctx.host.set_enabled(t.on);
    double setup = 0;
    std::unique_ptr<Episode> ep = BuildEpisode(ctx, &setup);
    const double host = ep->Run(ctx, t);
    res.attempted += ep->ops();
    SimStats sim;
    res.error = ep->Collect(&sim);
    if (res.error.empty()) {
      if (episode == 0) {
        res.sim = sim;
      } else if (sim != res.sim) {
        res.error = t.on ? "traced episode's simulated statistics differ "
                           "from the untraced episode's"
                         : "episode's simulated statistics differ from the "
                           "first episode's";
      }
    }
    if (!res.error.empty()) {
      res.sim = sim;
      res.failed = res.attempted;
      return res;
    }
    // The reference runs on either side of the episode set its host-speed
    // unit.
    const double ref_after = ReferenceSeconds();
    refs.push_back(ref_after);
    (t.on ? traced_ref : host_ref)
        .push_back(host / (0.5 * (ref_before + ref_after)));
    ref_before = ref_after;
    if (!t.on) {
      host_s.push_back(host);
    } else {
      for (const auto& [name, e] : t.rows) {
        traced_rows.rows[name].count += e.count;
        traced_rows.rows[name].total_ps += e.total_ps;
      }
      traced_rows.records += t.records;
      traced_episodes += 1;
      last_traced = std::move(ep);
    }
    const bool enough = opts.trace ? !traced_ref.empty() : host_ref.size() >= 3;
    if (enough && HostNowPs() - start >= budget) {
      break;
    }
  }
  res.digest = SimDigest(res.sim);
  res.correct = true;

  if (!opts.trace) {
    take_due_setups(true);  // Any the episodes ran past.
    // The shared host's noise only ever slows code down, and it comes in
    // phases of seconds that a median over one run does not average out.
    // The fast tail is the steady estimate: the 10th percentile of the
    // episodes (not their minimum: a slowed reference run makes a ratio
    // read low), and the fastest of the fixed number of set-ups.
    res.metrics["host_ref"] = {Quantile(host_ref, 0.1), "ref"};
    res.metrics["setup_s"] = {*std::min_element(setup_s.begin(), setup_s.end()),
                              "s"};
    res.metrics["peak_rss_mib"] = {peak_rss_mib, "MiB"};
    res.metrics["sim_s"] = {res.sim.at("sim_s"), "sim_s"};
    res.metrics["busy_kcycles_per_op"] = {res.sim.at("busy_kcycles_per_op"),
                                          "sim_kcycles"};
    return res;
  }

  ctx.host.set_enabled(true);
  const double overhead_pct =
      (Median(traced_ref) / Median(host_ref) - 1.0) * 100.0;
  const std::string probe_error =
      AddPerLayer(ctx, res, *last_traced, traced_rows, traced_episodes,
                  overhead_pct, &res.metrics);
  if (!probe_error.empty()) {
    res.correct = false;
    res.error = probe_error;
    res.failed = res.attempted;
    res.metrics.clear();
    return res;
  }
  res.metrics["host.episode_s"] = {Median(host_s), "s"};
  res.metrics["host.reference_ms"] = {Median(refs) * 1e3, "ms"};
  ctx.host.set_enabled(false);
  if (!opts.chrome_trace.empty() &&
      !ctx.host.WriteChromeJson(opts.chrome_trace + ".host.json")) {
    res.error = "cannot write " + opts.chrome_trace + ".host.json";
  }
  return res;
}

std::uint64_t SplitNodeCompileDigest(const Options& opts) {
  Ctx ctx(opts);
  double phase_s[3];
  CompileEpisode ep(opts, BuildNode(CompileConfig(opts), 0, ctx, phase_s));
  Tracing untraced;
  (void)ep.Run(ctx, untraced);
  SimStats s;
  return ep.Collect(&s).empty() ? SimDigest(s) : 0;
}

}  // namespace nova::perfbench
