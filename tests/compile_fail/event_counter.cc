// Compile-fail cases for hv::EventCounter. The build of this file must fail
// on every line marked `expect: <flag>` and on no other line
// (tests/compile_fail/check.cmake), so the unmarked uses below pin that
// counting an event, with its instant or with its span, stays legal.
#include "src/hv/event_counter.h"

namespace nova::compile_fail {

void BumpTheCounterAlone(hv::EventCounter& event) {
  event.counter_.Add();  // expect: error
}

void BumpWithoutACpu(hv::EventCounter& event) {
  event.Add();  // expect: error
}

void DiscardTheSpan(hv::EventCounter& event, const hw::Cpu& cpu) {
  event.Span(cpu);  // expect: unused-result
}

void CountingEmits(hv::EventCounter& event, const hw::Cpu& cpu) {
  event.Count(cpu, 1, 2);
  const auto span = event.Span(cpu, 3);
}

}  // namespace nova::compile_fail
