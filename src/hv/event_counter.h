// One hypervisor event, declared once: the StatRegistry counter that tallies
// it and the trace name its records carry. Counting is the only operation,
// and it emits the trace record together with the bump, so a counter table
// and a trace fold of the same window agree row for row (bench/tab2_events
// aborts if they do not).
#ifndef SRC_HV_EVENT_COUNTER_H_
#define SRC_HV_EVENT_COUNTER_H_

#include <cstdint>
#include <string>

#include "src/hw/cpu.h"
#include "src/sim/stats.h"
#include "src/sim/trace.h"

namespace nova::hv {

class EventCounter {
 public:
  // Registers `counter_name` in `stats` and interns `trace_name`. Trace
  // ids are dense and every digest folds them, so the order in which
  // EventCounters are constructed is part of the trace format.
  EventCounter(sim::StatRegistry& stats, sim::Tracer& tracer, sim::TraceCat cat,
               const std::string& counter_name, const std::string& trace_name)
      : counter_(stats.counter(counter_name)),
        tracer_(&tracer),
        name_(tracer.Intern(trace_name)),
        cat_(cat) {}
  EventCounter(sim::StatRegistry& stats, sim::Tracer& tracer, sim::TraceCat cat,
               const std::string& name)
      : EventCounter(stats, tracer, cat, name, name) {}

  EventCounter(const EventCounter&) = delete;
  EventCounter& operator=(const EventCounter&) = delete;

  // Counts one event on `cpu` and, when tracing, emits its instant stamped
  // with that CPU's clock and id.
  void Count(const hw::Cpu& cpu, std::uint64_t a0 = 0, std::uint64_t a1 = 0) {
    counter_.Add();
    if (tracer_->enabled()) {
      tracer_->InstantAt(cpu.NowPs(), cat_, name_,
                         static_cast<std::uint8_t>(cpu.id()), a0, a1);
    }
  }

  // Span form: counts one event on `cpu` and opens its span, which ends
  // when the returned guard goes out of scope.
  [[nodiscard]] auto Span(const hw::Cpu& cpu, std::uint64_t a0 = 0,
                          std::uint64_t a1 = 0) {
    counter_.Add();
    return sim::ScopedSpan(tracer_, cat_, name_,
                           static_cast<std::uint8_t>(cpu.id()),
                           [&cpu] { return cpu.NowPs(); }, a0, a1);
  }

 private:
  sim::Counter& counter_;
  sim::Tracer* tracer_;
  std::uint16_t name_;
  sim::TraceCat cat_;
};

}  // namespace nova::hv

#endif  // SRC_HV_EVENT_COUNTER_H_
