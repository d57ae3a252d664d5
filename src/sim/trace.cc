#include "src/sim/trace.h"

#include <cstdio>

#include "src/sim/event_queue.h"

namespace nova::sim {
namespace {

// FNV-1a, 64-bit.
constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

inline std::uint64_t FnvU64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= v & 0xff;
    h *= kFnvPrime;
    v >>= 8;
  }
  return h;
}

void JsonEscape(std::FILE* f, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        std::fputs("\\\"", f);
        break;
      case '\\':
        std::fputs("\\\\", f);
        break;
      case '\n':
        std::fputs("\\n", f);
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          std::fprintf(f, "\\u%04x", c);
        } else {
          std::fputc(c, f);
        }
    }
  }
}

}  // namespace

const char* TraceCatName(TraceCat c) {
  switch (c) {
    case TraceCat::kVmExit:
      return "vmexit";
    case TraceCat::kIpc:
      return "ipc";
    case TraceCat::kSched:
      return "sched";
    case TraceCat::kVtlb:
      return "vtlb";
    case TraceCat::kDevice:
      return "device";
    case TraceCat::kIrq:
      return "irq";
    case TraceCat::kFault:
      return "fault";
  }
  return "?";
}

Tracer::Tracer(const EventQueue* clock, std::size_t capacity)
    : clock_(clock), ring_(capacity == 0 ? 1 : capacity), digest_(kFnvOffset) {
  // Id 0 is reserved so an uninitialized name id is visibly "<none>".
  names_.push_back("<none>");
  ids_.Insert(names_.back(), 0);
}

Tracer& Tracer::Disabled() {
  static Tracer t(nullptr, 1);
  return t;
}

std::uint16_t Tracer::Intern(const std::string& name) {
  if (const std::uint16_t* id = ids_.Find(name)) return *id;
  const std::uint16_t id = static_cast<std::uint16_t>(names_.size());
  names_.push_back(name);
  ids_.Insert(name, id);
  return id;
}

void Tracer::Instant(TraceCat cat, std::uint16_t name, std::uint64_t a0,
                     std::uint64_t a1) {
  if (!enabled_) return;
  Emit(clock_ ? clock_->now() : 0, TraceType::kInstant, cat, name, kDeviceTid,
       a0, a1);
}

void Tracer::Emit(PicoSeconds ts, TraceType type, TraceCat cat,
                  std::uint16_t name, std::uint8_t tid, std::uint64_t a0,
                  std::uint64_t a1) {
  TraceRecord r;
  r.ts = ts;
  r.arg0 = a0;
  r.arg1 = a1;
  r.name = name;
  r.cat = static_cast<std::uint8_t>(cat);
  r.type = static_cast<std::uint8_t>(type);
  r.tid = tid;
  Fold(r);
  if (total_ >= ring_.size() && sink_ != nullptr) {
    // The slot being overwritten holds the oldest retained record; fold it
    // into the sink first so sink + window always cover the stream exactly.
    sink_->Fold(ring_[head_]);
  }
  ring_[head_] = r;
  head_ = (head_ + 1) % ring_.size();
  ++total_;
}

void Tracer::Fold(const TraceRecord& r) {
  std::uint64_t h = digest_;
  h = FnvU64(h, static_cast<std::uint64_t>(r.ts));
  h = FnvU64(h, r.arg0);
  h = FnvU64(h, r.arg1);
  h = FnvU64(h, (static_cast<std::uint64_t>(r.name) << 24) |
                    (static_cast<std::uint64_t>(r.cat) << 16) |
                    (static_cast<std::uint64_t>(r.type) << 8) |
                    static_cast<std::uint64_t>(r.tid));
  digest_ = h;
}

const TraceRecord& Tracer::at(std::size_t i) const {
  // Before the first wrap the window starts at slot 0; after it, at head_
  // (the slot the next emit will overwrite, i.e. the oldest record).
  const std::size_t oldest = total_ <= ring_.size() ? 0 : head_;
  return ring_[(oldest + i) % ring_.size()];
}

std::vector<TraceRecord> Tracer::Snapshot() const {
  std::vector<TraceRecord> out;
  const std::size_t n = size();
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(at(i));
  return out;
}

void Tracer::Reset() {
  head_ = 0;
  total_ = 0;
  digest_ = kFnvOffset;
}

template <class Ar>
void Tracer::Io(Ar& ar) {
  ar.Io(enabled_, digest_, total_);
  ar.Verify(std::uint64_t{ring_.size()});  // Twin built with this capacity.
  ar.Io(head_);
  // Only the filled prefix of the ring travels; its length follows from
  // total_, which bounds the loop on load.
  const std::uint64_t valid = std::min<std::uint64_t>(total_, ring_.size());
  ar.Verify(valid);
  for (std::uint64_t i = 0; i < valid && ar.ok(); ++i) {
    ar.Io(ring_[static_cast<std::size_t>(i)]);
  }
  // The twin interned a (possibly shorter) prefix of the saved name table
  // during construction; loading verifies the overlap and appends the
  // rest. Names the twin interns later re-resolve to these ids via the
  // idempotent Intern.
  std::vector<std::string> names = names_;
  ar.Seq(kCount32, names);
  if constexpr (Ar::kLoading) {
    if (names.size() < names_.size() ||
        !std::equal(names_.begin(), names_.end(), names.begin())) {
      ar.Fail();  // Wiring order diverged.
      return;
    }
    for (std::size_t i = names_.size(); i < names.size(); ++i) {
      ids_.Insert(names[i], static_cast<std::uint16_t>(i));
    }
    names_ = std::move(names);
  }
}

Status Tracer::SaveState(SnapWriter& w) const { return w.Save(*this); }
Status Tracer::LoadState(SnapReader& r) { return r.Restore(*this); }

void Tracer::WriteChromeJson(std::FILE* f) const {
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) {
    const TraceRecord& r = at(i);
    if (i != 0) std::fputc(',', f);
    const char* ph = "i";
    switch (static_cast<TraceType>(r.type)) {
      case TraceType::kBegin:
        ph = "B";
        break;
      case TraceType::kEnd:
        ph = "E";
        break;
      case TraceType::kInstant:
        ph = "i";
        break;
    }
    // Chrome timestamps are microseconds; ours are picoseconds.
    std::fprintf(f, "\n{\"name\":\"");
    JsonEscape(f, names_[r.name]);
    std::fprintf(f,
                 "\",\"cat\":\"%s\",\"ph\":\"%s\",\"ts\":%.6f,"
                 "\"pid\":1,\"tid\":%u",
                 TraceCatName(static_cast<TraceCat>(r.cat)), ph,
                 static_cast<double>(r.ts) / 1e6,
                 static_cast<unsigned>(r.tid));
    if (static_cast<TraceType>(r.type) == TraceType::kInstant) {
      std::fputs(",\"s\":\"t\"", f);
    }
    std::fprintf(f, ",\"args\":{\"a0\":%llu,\"a1\":%llu}}",
                 static_cast<unsigned long long>(r.arg0),
                 static_cast<unsigned long long>(r.arg1));
  }
  std::fputs("\n]}\n", f);
}

bool Tracer::WriteChromeJsonFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  WriteChromeJson(f);
  std::fclose(f);
  return true;
}

void TraceReport::Fold(const TraceRecord& r) {
  switch (static_cast<TraceType>(r.type)) {
    case TraceType::kInstant:
      ++entries_[r.name].count;
      break;
    case TraceType::kBegin:
      open_[r.tid].push_back(OpenSpan{r.name, r.ts});
      break;
    case TraceType::kEnd: {
      auto& stack = open_[r.tid];
      if (stack.empty()) break;  // Begin was evicted before a sink was set
      const OpenSpan s = stack.back();
      stack.pop_back();
      Entry& e = entries_[s.name];
      ++e.count;
      if (r.ts >= s.begin_ts) e.total_ps += r.ts - s.begin_ts;
      break;
    }
  }
}

void TraceReport::FoldRemaining(const Tracer& t) {
  const std::size_t n = t.size();
  for (std::size_t i = 0; i < n; ++i) Fold(t.at(i));
}

std::uint64_t TraceReport::Count(std::uint16_t name) const {
  auto it = entries_.find(name);
  return it == entries_.end() ? 0 : it->second.count;
}

PicoSeconds TraceReport::TotalPs(std::uint16_t name) const {
  auto it = entries_.find(name);
  return it == entries_.end() ? 0 : it->second.total_ps;
}

std::map<std::string, TraceReport::Entry> TraceReport::Rows(
    const Tracer& t) const {
  std::map<std::string, Entry> rows;
  for (const auto& [id, e] : entries_) {
    Entry& row = rows[t.Name(id)];
    row.count += e.count;
    row.total_ps += e.total_ps;
  }
  return rows;
}

void TraceReport::Reset() {
  entries_.clear();
  open_.clear();
}

template <class Ar>
void TraceReport::Io(Ar& ar) {
  if constexpr (Ar::kLoading) {
    entries_.clear();
    open_.clear();
  }
  ar.Keyed(kCount32, entries_);
  ar.Keyed(kCount32, open_, [&ar](auto& stack) { ar.Seq(kCount32, stack); });
}

Status TraceReport::SaveState(SnapWriter& w) const { return w.Save(*this); }
Status TraceReport::LoadState(SnapReader& r) { return r.Restore(*this); }

}  // namespace nova::sim
