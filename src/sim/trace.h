// Cycle-stamped structured tracing.
//
// `Tracer` records typed events — span begin/end pairs and instants, each
// with a picosecond timestamp, an interned name id and a small fixed arg
// payload — into a bounded ring buffer. The design contract:
//
//  * Zero cost when disabled: every emit path starts with an inlined
//    `enabled_` check and returns before touching the clock, the ring or
//    the digest. Call sites that must compute a timestamp themselves guard
//    with `enabled()` first, so a disabled tracer costs one predictable
//    branch per site.
//  * No strings on the hot path: names are interned once (at construction
//    or wiring time) into dense uint16 ids; emission stores ids only.
//  * Deterministic: records carry simulated time, never host time, and the
//    FNV-1a digest is folded incrementally at emission — it covers every
//    record ever emitted, regardless of how many the bounded ring has
//    since evicted. Same seed, same digest, byte for byte.
//  * Bounded memory with exact attribution: an optional `TraceReport` sink
//    receives each record as the ring evicts it, so folding the sink plus
//    the retained window yields full-run per-name counts and span cycle
//    totals without unbounded buffering.
//
// Exporters: Chrome trace_event JSON (loadable in Perfetto or
// chrome://tracing) over the retained window, and the digest for golden
// tests.
#ifndef SRC_SIM_TRACE_H_
#define SRC_SIM_TRACE_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/hash_index.h"
#include "src/sim/snapshot.h"
#include "src/sim/status.h"
#include "src/sim/time.h"

namespace nova::sim {

class EventQueue;
class TraceReport;

// Trace categories; fixed at compile time, mapped to Chrome "cat" strings.
enum class TraceCat : std::uint8_t {
  kVmExit = 0,  // VM exits and their host-side handling spans
  kIpc,         // hypercalls and portal traversals
  kSched,       // scheduler dispatch / preemption
  kVtlb,        // vTLB fill / flush / context switch / pressure eviction
  kDevice,      // device DMA and completion activity
  kIrq,         // interrupt assertion and delivery
  kFault,       // fault-plan firings (nothing emits them yet)
};
inline constexpr int kNumTraceCats = 7;
const char* TraceCatName(TraceCat c);

enum class TraceType : std::uint8_t { kBegin = 0, kEnd = 1, kInstant = 2 };

// One trace record. Fixed-size POD; the digest folds exactly these fields
// in this order, so the layout is part of the determinism contract.
struct TraceRecord {
  PicoSeconds ts = 0;       // simulated time of emission
  std::uint64_t arg0 = 0;   // event-specific payload (gva, gsi, bytes, ...)
  std::uint64_t arg1 = 0;
  std::uint16_t name = 0;   // interned name id (Tracer::Name resolves it)
  std::uint8_t cat = 0;     // TraceCat
  std::uint8_t type = 0;    // TraceType
  std::uint8_t tid = 0;     // emitting CPU, or kDeviceTid for devices

  template <class Ar>
  void Io(Ar& ar) {
    ar.Io(ts, arg0, arg1, name, cat, type, tid);
  }
};

// Thread id used for records emitted by device models and other
// non-CPU-driven contexts (their clock is the event queue).
inline constexpr std::uint8_t kDeviceTid = 0xff;

class Tracer {
 public:
  // `clock` provides default timestamps for the `Instant` convenience
  // emitter (device models); hypervisor paths stamp records explicitly
  // with per-CPU time via the *At variants. Null clock is fine as long as
  // only the *At variants are used.
  explicit Tracer(const EventQueue* clock = nullptr,
                  std::size_t capacity = 1u << 16);

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  // Interns `name`, returning a stable dense id. Idempotent; never call on
  // a hot path — wire ids up once at construction time.
  std::uint16_t Intern(const std::string& name);
  const std::string& Name(std::uint16_t id) const { return names_[id]; }

  // --- emission -------------------------------------------------------
  // All emitters are no-ops when disabled; the check is inlined so the
  // disabled cost is a single predicted branch.
  void BeginAt(PicoSeconds ts, TraceCat cat, std::uint16_t name,
               std::uint8_t tid, std::uint64_t a0 = 0, std::uint64_t a1 = 0) {
    if (!enabled_) return;
    Emit(ts, TraceType::kBegin, cat, name, tid, a0, a1);
  }
  void EndAt(PicoSeconds ts, TraceCat cat, std::uint16_t name,
             std::uint8_t tid, std::uint64_t a0 = 0, std::uint64_t a1 = 0) {
    if (!enabled_) return;
    Emit(ts, TraceType::kEnd, cat, name, tid, a0, a1);
  }
  void InstantAt(PicoSeconds ts, TraceCat cat, std::uint16_t name,
                 std::uint8_t tid, std::uint64_t a0 = 0,
                 std::uint64_t a1 = 0) {
    if (!enabled_) return;
    Emit(ts, TraceType::kInstant, cat, name, tid, a0, a1);
  }
  // Clock-stamped instant for device models; reads the event-queue clock
  // only after the enabled check.
  void Instant(TraceCat cat, std::uint16_t name, std::uint64_t a0 = 0,
               std::uint64_t a1 = 0);

  // --- state ----------------------------------------------------------
  // Incremental FNV-1a over every record emitted since the last Reset.
  std::uint64_t digest() const { return digest_; }
  // Total records emitted (including those the ring has evicted).
  std::uint64_t total_records() const { return total_; }
  std::uint64_t dropped() const {
    return total_ > capacity_ ? total_ - capacity_ : 0;
  }
  // Retained window, oldest first.
  std::size_t size() const {
    return total_ < capacity_ ? static_cast<std::size_t>(total_) : capacity_;
  }
  const TraceRecord& at(std::size_t i) const;
  std::vector<TraceRecord> Snapshot() const;

  // Evicted records are folded into `sink` before being overwritten, so
  // sink + retained window together cover the full run exactly once.
  void set_sink(TraceReport* sink) { sink_ = sink; }

  // Clears the ring, digest and record count. Interned names survive (ids
  // stay valid); the sink is not touched.
  void Reset();

  // Snapshot the full tracer state: digest cursor, retained ring window
  // and the interned-name table. Loading verifies that the twin's names
  // are a prefix of the saved table (same wiring order), then appends the
  // names interned after twin construction — lazily-attached components
  // re-Intern idempotently and land on the same ids.
  Status SaveState(SnapWriter& w) const;
  Status LoadState(SnapReader& r);
  template <class Ar>
  void Io(Ar& ar);

  // --- exporters ------------------------------------------------------
  // Chrome trace_event JSON over the retained window.
  void WriteChromeJson(std::FILE* f) const;
  bool WriteChromeJsonFile(const std::string& path) const;

 private:
  void Emit(PicoSeconds ts, TraceType type, TraceCat cat, std::uint16_t name,
            std::uint8_t tid, std::uint64_t a0, std::uint64_t a1);
  void Fold(const TraceRecord& r);

  bool enabled_ = false;
  const EventQueue* clock_;
  // The ring holds `capacity_` records once allocated, which the first
  // Emit does, or a load that brings back a non-empty window: a tracer
  // that never records holds no ring.
  std::size_t capacity_;
  std::vector<TraceRecord> ring_;
  std::size_t head_ = 0;       // next slot to write
  std::uint64_t total_ = 0;    // records emitted since Reset
  std::uint64_t digest_;
  TraceReport* sink_ = nullptr;

  std::vector<std::string> names_;
  HashIndex<std::string, std::uint16_t> ids_;
};

// Folds a record stream into per-name attribution: how many times each
// event fired and, for spans, how much simulated time they covered.
// Span pairing uses a per-tid stack (spans nest within a tid), so nested
// spans attribute their own inclusive duration to their own name.
class TraceReport {
 public:
  struct Entry {
    std::uint64_t count = 0;      // instants + completed spans
    PicoSeconds total_ps = 0;     // inclusive span time (0 for instants)
    bool operator==(const Entry&) const = default;
    template <class Ar>
    void Io(Ar& ar) {
      ar.Io(count, total_ps);
    }
  };

  // Folds one record in stream order. Begin pushes; End pops its matching
  // Begin and charges the inclusive duration; Instant counts.
  void Fold(const TraceRecord& r);
  // Folds the tracer's retained window (the part not yet evicted into the
  // sink). Call once, after the run.
  void FoldRemaining(const Tracer& t);

  std::uint64_t Count(std::uint16_t name) const;
  PicoSeconds TotalPs(std::uint16_t name) const;
  // Name-resolved view for printing; `t` supplies the id→string mapping.
  std::map<std::string, Entry> Rows(const Tracer& t) const;

  void Reset();

  Status SaveState(SnapWriter& w) const;
  Status LoadState(SnapReader& r);
  template <class Ar>
  void Io(Ar& ar);

 private:
  struct OpenSpan {
    std::uint16_t name;
    PicoSeconds begin_ts;
    template <class Ar>
    void Io(Ar& ar) {
      ar.Io(name, begin_ts);
    }
  };
  std::map<std::uint16_t, Entry> entries_;
  std::map<std::uint8_t, std::vector<OpenSpan>> open_;
};

// RAII span: emits Begin on construction and End on destruction, stamping
// both with `clock()` (a callable returning PicoSeconds, evaluated only
// when the tracer is enabled). Designed for scopes with early returns —
// the End fires on every exit path.
template <typename ClockFn>
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, TraceCat cat, std::uint16_t name, std::uint8_t tid,
             ClockFn clock, std::uint64_t a0 = 0, std::uint64_t a1 = 0)
      : t_(t), clock_(std::move(clock)), cat_(cat), name_(name), tid_(tid) {
    // The one pairing outside the tracer's tests that the raw-span
    // source check (cmake/check_sources.cmake) admits.
    if (t_->enabled())
      t_->BeginAt(clock_(), cat_, name_, tid_, a0, a1);
  }
  ~ScopedSpan() {
    if (t_->enabled())
      t_->EndAt(clock_(), cat_, name_, tid_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* t_;
  ClockFn clock_;
  TraceCat cat_;
  std::uint16_t name_;
  std::uint8_t tid_;
};

template <typename ClockFn>
ScopedSpan(Tracer*, TraceCat, std::uint16_t, std::uint8_t, ClockFn,
           std::uint64_t, std::uint64_t) -> ScopedSpan<ClockFn>;

}  // namespace nova::sim

#endif  // SRC_SIM_TRACE_H_
