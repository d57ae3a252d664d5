// Versioned, deterministic state serialization (checkpoint/restore, §4.2's
// recovery story extended to full-VM snapshots).
//
// A `Snapshot` is an ordered set of named sections, each an opaque byte
// string with a small section version and an FNV-1a checksum. The
// writer/reader pair implements a tiny little-endian encoding with no
// host-dependent layout, so an encoded snapshot is bit-identical across
// runs. It moves each integer with one memcpy in host order, as guest
// memory (hw::PhysMem) and the instruction encoding do, so the host must
// be little-endian; the static_assert below checks that at build time.
//
// One field list per class: a stateful class lists its snapshot fields
// once, in wire order, in `template <class Ar> void Io(Ar& ar)`. The same
// list saves (Ar = SnapWriter) and loads (Ar = SnapReader); its public
// `SaveState(SnapWriter&)` / `LoadState(SnapReader&)` are one-line entry
// points (`w.Save(*this)`, `r.Restore(*this)`). The vocabulary:
//   ar.Io(a, b, ...)        scalars, enums, strings, arrays, nested classes
//   ar.Verify(x)            a construction invariant the twin must match
//   ar.Seq / ar.Keyed       count-prefixed containers, bounded on load
//   ar.Bytes(p, n)          raw bytes
//   ar.Fail(st)             latch an error (both directions)
//   Ar::kLoading            the few one-way steps (clear, re-enqueue, ...)
// A class that owns whole sections lists them the same way against the
// section-level pair SnapshotWriter/SnapshotReader (`ar.Section(...)`),
// entered through `Snapshot::Save` / `Snapshot::Restore`.
//
// Restore convention (the "twin" model): a snapshot carries *state only*,
// never code. Restoring rebuilds the scenario by re-running the identical
// construction path (same seeds, same creation order), then overlays every
// piece of mutable state from the snapshot. Pending events are rebuilt
// from their tags by the owners' factories registered on `EventQueue`.
//
// Error handling: every archive latches its first error; a failed reader
// returns zeros from then on, so Io bodies are straight-line and the
// entry point reports the latched Status once at the end.
#ifndef SRC_SIM_SNAPSHOT_H_
#define SRC_SIM_SNAPSHOT_H_

#include <array>
#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/hash_index.h"
#include "src/sim/status.h"

namespace nova::sim {

static_assert(std::endian::native == std::endian::little,
              "snapshot bytes are copied in host order");

// Incremental FNV-1a, shared with the trace digest machinery.
constexpr std::uint64_t kSnapFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kSnapFnvPrime = 0x100000001b3ull;
std::uint64_t SnapFnv1a(const std::uint8_t* data, std::size_t len,
                        std::uint64_t seed = kSnapFnvOffset);

// Wire width of the element count that prefixes a container.
enum CountWidth : int { kCount16 = 2, kCount32 = 4, kCount64 = 8 };

// First-error latch shared by every archive.
class SnapStatus {
 public:
  void Fail(Status st = Status::kBadParameter) {
    if (Ok(status_)) {
      status_ = st;
    }
  }
  bool ok() const { return Ok(status_); }
  Status status() const { return status_; }

 private:
  Status status_ = Status::kSuccess;
};

template <class M>
inline constexpr bool kIsStdMap = false;
template <class K, class V, class C, class A>
inline constexpr bool kIsStdMap<std::map<K, V, C, A>> = true;

// Classes with their own SaveState/LoadState entry points for archive Ar.
template <class T, class Ar>
concept HasLoadState = requires(T& t, Ar& a) {
  { t.LoadState(a) } -> std::same_as<Status>;
};
template <class T, class Ar>
concept HasSaveState = requires(const T& t, Ar& a) {
  { t.SaveState(a) } -> std::same_as<Status>;
};

// The field vocabulary SnapWriter and SnapReader share (see the file
// comment). `Ar` is the concrete archive.
template <class Ar>
class SnapArchive : public SnapStatus {
 public:
  // Fields in wire order: integers and enums take their own width, bool
  // one byte, double its 8-byte pattern, a string a count32 prefix, an
  // array its elements, a pair both halves, and a class either its
  // SaveState/LoadState or its own Io.
  template <class... T>
  void Io(T&... fields) {
    (Field(fields), ...);
  }

  // A construction invariant: saved as-is, and on load compared with the
  // twin's value; a mismatch fails with kBadParameter.
  template <class T>
  void Verify(const T& expect) {
    T v = expect;
    Field(v);
    if (!(v == expect)) {
      Fail(Status::kBadParameter);
    }
  }

  // Count-prefixed sequence (string, vector, deque); `each` visits one
  // element (default: Io). Loading replaces the contents.
  template <class C>
  void Seq(CountWidth width, C& c) {
    using V = typename C::value_type;
    if constexpr (std::is_same_v<V, std::uint8_t> ||
                  std::is_same_v<V, char>) {
      const std::uint64_t n = self().Count(c.size(), width);
      if constexpr (Ar::kLoading) {
        c.assign(static_cast<std::size_t>(n), 0);
      }
      self().Bytes(c.data(), c.size());
    } else {
      Seq(width, c, [this](auto& e) { Field(e); });
    }
  }
  template <class C, class Each>
  void Seq(CountWidth width, C& c, Each each) {
    const std::uint64_t n = self().Count(c.size(), width);
    if constexpr (Ar::kLoading) {
      c.clear();
      for (std::uint64_t i = 0; i < n && ok(); ++i) {
        each(c.emplace_back());
      }
    } else {
      for (auto& e : c) {
        each(e);
      }
    }
  }

  // Count-prefixed map in ascending key order: a std::map as it iterates,
  // a sim::HashIndex through ForEachInKeyOrder. Each entry is its key, then
  // `each` on the value (default: Io); an `each` taking (key, value) sees
  // the key too. Loading overlays entries onto the map (clear it first
  // under Ar::kLoading to replace them) and fails with kBadParameter unless
  // the keys strictly ascend, so a map has exactly one encoding.
  template <class M>
  void Keyed(CountWidth width, M& m) {
    Keyed(width, m, [this](auto& v) { Field(v); });
  }
  template <class M, class Each>
  void Keyed(CountWidth width, M& m, Each each) {
    static_assert(kIsStdMap<M> || kIsHashIndex<M>,
                  "Keyed writes a std::map or a sim::HashIndex");
    using K = typename M::key_type;
    const auto entry = [&](const K& key, auto& value) {
      if constexpr (std::is_invocable_v<Each&, const K&, decltype(value)>) {
        each(key, value);
      } else {
        each(value);
      }
    };
    const std::uint64_t n = self().Count(m.size(), width);
    if constexpr (Ar::kLoading) {
      K prev{};
      for (std::uint64_t i = 0; i < n && ok(); ++i) {
        K key{};
        Field(key);
        if (i != 0 && !(prev < key)) {
          Fail(Status::kBadParameter);
          return;
        }
        entry(key, m[key]);
        prev = std::move(key);
      }
    } else if constexpr (kIsHashIndex<M>) {
      m.ForEachInKeyOrder([&](const K& key, auto& value) {
        Field(key);
        entry(key, value);
      });
    } else {
      for (auto& [key, value] : m) {
        Field(key);
        entry(key, value);
      }
    }
  }

 private:
  Ar& self() { return static_cast<Ar&>(*this); }

  template <class T>
  void Field(T& v) {
    using U = std::remove_const_t<T>;
    if constexpr (std::is_same_v<U, bool>) {
      if constexpr (Ar::kLoading) {
        v = self().GetLe(1) != 0;
      } else {
        self().PutLe(v ? 1 : 0, 1);
      }
    } else if constexpr (std::is_integral_v<U> || std::is_enum_v<U>) {
      if constexpr (Ar::kLoading) {
        v = static_cast<U>(self().GetLe(sizeof(U)));
      } else {
        self().PutLe(static_cast<std::uint64_t>(v), sizeof(U));
      }
    } else if constexpr (std::is_same_v<U, double>) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof bits);
      Field(bits);
      if constexpr (Ar::kLoading) {
        std::memcpy(&v, &bits, sizeof bits);
      }
    } else if constexpr (std::is_same_v<U, std::string>) {
      Seq(kCount32, v);
    } else if constexpr (std::is_array_v<U> ||
                         requires { std::tuple_size<U>::value; v.data(); }) {
      if constexpr (std::is_same_v<std::remove_cvref_t<decltype(v[0])>,
                                   std::uint8_t>) {
        self().Bytes(std::data(v), std::size(v));
      } else {
        for (auto& e : v) {
          Field(e);
        }
      }
    } else if constexpr (requires { v.first; v.second; }) {
      Field(v.first);
      Field(v.second);
    } else if constexpr (HasLoadState<U, Ar>) {
      Fail(v.LoadState(self()));
    } else if constexpr (HasSaveState<U, Ar>) {
      Fail(v.SaveState(self()));
    } else {
      // Plain structs list their fields in a member Io. Saving only reads
      // through it, so a const field is safe to visit.
      const_cast<U&>(v).Io(self());
    }
  }
};

// Append-only little-endian encoder for one snapshot section.
class SnapWriter : public SnapArchive<SnapWriter> {
 public:
  static constexpr bool kLoading = false;

  // Entry point for a class's SaveState: runs its Io, returns the latched
  // status. Io is shared with loading and so not const; saving only reads.
  template <class T>
  Status Save(const T& obj) {
    const_cast<T&>(obj).Io(*this);
    return status();
  }

  void U8(std::uint8_t v) { buf_.push_back(v); }
  void U16(std::uint16_t v) { PutLe(v, 2); }
  void U32(std::uint32_t v) { PutLe(v, 4); }
  void U64(std::uint64_t v) { PutLe(v, 8); }
  void I64(std::int64_t v) { PutLe(static_cast<std::uint64_t>(v), 8); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void F64(double v) { Io(v); }
  void Str(const std::string& s) { Io(s); }
  void Bytes(const void* data, std::size_t len) {
    if (len == 0) return;  // data may be null (empty vector).
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + len);
  }

  std::size_t size() const { return buf_.size(); }
  const std::vector<std::uint8_t>& data() const { return buf_; }
  // Make room for `len` more bytes at once.
  void Reserve(std::size_t len) { buf_.reserve(buf_.size() + len); }
  // Hand the bytes over, leaving the writer empty.
  std::vector<std::uint8_t> Release() { return std::move(buf_); }

 private:
  friend class SnapArchive<SnapWriter>;

  std::uint64_t Count(std::uint64_t n, CountWidth width) {
    PutLe(n, width);
    return n;
  }
  void PutLe(std::uint64_t v, int bytes) {
    const std::size_t at = buf_.size();
    buf_.resize(at + static_cast<std::size_t>(bytes));
    std::memcpy(buf_.data() + at, &v, static_cast<std::size_t>(bytes));
  }
  std::vector<std::uint8_t> buf_;
};

// Error-latching decoder over one snapshot section.
class SnapReader : public SnapArchive<SnapReader> {
 public:
  static constexpr bool kLoading = true;

  SnapReader() { Fail(); }
  SnapReader(const std::uint8_t* data, std::size_t len)
      : data_(data), len_(len) {}

  // Entry point for a class's LoadState: runs its Io, returns the latched
  // status.
  template <class T>
  Status Restore(T& obj) {
    obj.Io(*this);
    return status();
  }

  std::uint8_t U8() { return static_cast<std::uint8_t>(GetLe(1)); }
  std::uint16_t U16() { return static_cast<std::uint16_t>(GetLe(2)); }
  std::uint32_t U32() { return static_cast<std::uint32_t>(GetLe(4)); }
  std::uint64_t U64() { return GetLe(8); }
  std::int64_t I64() { return static_cast<std::int64_t>(GetLe(8)); }
  bool Bool() { return U8() != 0; }
  double F64() {
    double v = 0.0;
    Io(v);
    return v;
  }
  std::string Str() {
    std::string s;
    Io(s);
    return s;
  }
  void Bytes(void* out, std::size_t len) {
    if (len == 0) return;  // out may be null (empty vector).
    if (remaining() < len) {
      Fail();
      std::memset(out, 0, len);
      return;
    }
    std::memcpy(out, data_ + pos_, len);
    pos_ += len;
  }
  // Step over `len` bytes and return where they start, so a caller can
  // use them in place; null (and the error latched) when fewer are left.
  const std::uint8_t* View(std::size_t len) {
    if (remaining() < len) {
      Fail();
      return nullptr;
    }
    const std::uint8_t* at = data_ + pos_;
    pos_ += len;
    return at;
  }

  std::size_t remaining() const { return ok() ? len_ - pos_ : 0; }
  bool AtEnd() const { return remaining() == 0; }
  // kSuccess when every read so far succeeded AND the section was fully
  // consumed — a partial read usually means a field-list mismatch.
  Status Finish() const {
    if (!ok()) {
      return status();
    }
    return pos_ == len_ ? Status::kSuccess : Status::kBadParameter;
  }

 private:
  friend class SnapArchive<SnapReader>;

  // A count larger than the bytes left cannot be honest: every element
  // takes at least one byte. Rejecting it keeps a forged count from
  // driving a huge allocation or loop.
  std::uint64_t Count(std::uint64_t /*n*/, CountWidth width) {
    const std::uint64_t n = GetLe(width);
    if (n > remaining()) {
      Fail();
      return 0;
    }
    return n;
  }
  std::uint64_t GetLe(int bytes) {
    if (remaining() < static_cast<std::size_t>(bytes)) {
      Fail();
      return 0;
    }
    std::uint64_t v = 0;
    std::memcpy(&v, data_ + pos_, static_cast<std::size_t>(bytes));
    pos_ += static_cast<std::size_t>(bytes);
    return v;
  }

  const std::uint8_t* data_ = nullptr;
  std::size_t len_ = 0;
  std::size_t pos_ = 0;
};

class SnapshotWriter;
class SnapshotReader;

// The snapshot container: named, versioned, checksummed sections in
// deterministic (name-sorted) order.
class Snapshot {
 public:
  // Start (or replace) a section; returns the writer to fill it.
  SnapWriter& Section(const std::string& name, std::uint16_t version);

  bool Has(const std::string& name) const {
    return sections_.count(name) != 0;
  }
  // Open a section for reading. A missing section or a version other than
  // `expect_version` yields a pre-failed reader (every Get returns zero and
  // Finish() reports the error), keeping load paths straight-line.
  SnapReader Open(const std::string& name, std::uint16_t expect_version) const;
  std::uint16_t SectionVersion(const std::string& name) const;
  std::vector<std::string> SectionNames() const;

  // Entry points for a class that owns whole sections: run its
  // `template <class Ar> void Io(Ar&)` against SnapshotWriter/Reader.
  template <class T>
  Status Save(const T& obj);
  template <class T>
  Status Restore(T& obj) const;

  // Wire encoding: magic, file version, section count, then per section
  // (name, version, length, FNV-1a checksum, payload). Decode fails with
  // kBadParameter on a section name that appears twice.
  std::vector<std::uint8_t> Encode() const;
  Status Decode(const std::uint8_t* data, std::size_t len);
  Status Decode(const std::vector<std::uint8_t>& bytes) {
    return Decode(bytes.data(), bytes.size());
  }

  // Total payload bytes across sections (transfer-size accounting for the
  // migration driver).
  std::uint64_t PayloadBytes() const;

  static constexpr char kMagic[8] = {'N', 'O', 'V', 'A',
                                     'S', 'N', 'A', 'P'};
  static constexpr std::uint32_t kFileVersion = 1;

 private:
  struct Stored {
    std::uint16_t version = 0;
    SnapWriter writer;
  };
  std::map<std::string, Stored> sections_;
};

// Section-level archives. `ar.Section(name, version, body)` is one section
// holding `body` — anything SnapWriter/SnapReader::Io accepts, or a
// callable taking the section archive; `ar.Io(owner)` lets a component
// that owns sections of its own contribute them. After the first failure
// every later section is skipped.
class SnapshotWriter : public SnapStatus {
 public:
  static constexpr bool kLoading = false;
  explicit SnapshotWriter(Snapshot& snap) : snap_(snap) {}

  template <class T>
  void Section(const std::string& name, std::uint16_t version, T&& body) {
    if (!ok()) {
      return;
    }
    SnapWriter& w = snap_.Section(name, version);
    if constexpr (std::is_invocable_v<T&, SnapWriter&>) {
      body(w);
    } else {
      w.Io(body);
    }
    Fail(w.status());
  }
  template <class T>
  void Io(const T& owner) {
    if (ok()) {
      Fail(owner.SaveState(snap_));
    }
  }

 private:
  Snapshot& snap_;
};

class SnapshotReader : public SnapStatus {
 public:
  static constexpr bool kLoading = true;
  explicit SnapshotReader(const Snapshot& snap) : snap_(snap) {}

  template <class T>
  void Section(const std::string& name, std::uint16_t version, T&& body) {
    if (!ok()) {
      return;
    }
    SnapReader r = snap_.Open(name, version);
    if constexpr (std::is_invocable_v<T&, SnapReader&>) {
      body(r);
    } else {
      r.Io(body);
    }
    Fail(r.Finish());
  }
  template <class T>
  void Io(T& owner) {
    if (ok()) {
      Fail(owner.LoadState(snap_));
    }
  }

 private:
  const Snapshot& snap_;
};

template <class T>
Status Snapshot::Save(const T& obj) {
  SnapshotWriter ar(*this);
  const_cast<T&>(obj).Io(ar);
  return ar.status();
}

template <class T>
Status Snapshot::Restore(T& obj) const {
  SnapshotReader ar(*this);
  obj.Io(ar);
  return ar.status();
}

}  // namespace nova::sim

#endif  // SRC_SIM_SNAPSHOT_H_
