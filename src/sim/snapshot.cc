#include "src/sim/snapshot.h"

namespace nova::sim {

std::uint64_t SnapFnv1a(const std::uint8_t* data, std::size_t len,
                        std::uint64_t seed) {
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= kSnapFnvPrime;
  }
  return h;
}

namespace {

// The container's section checksum (file version 2). It covers a whole
// section record but its own field: `head` (the record's name, version and
// payload length, as encoded) and the payload. The payload's 32-byte blocks
// go through the FNV-1a step a 64-bit word at a time on four independent
// lanes, lane k taking words k, k + 4, k + 8..., so four multiplies are in
// flight instead of one per byte; words are loaded with memcpy, since a
// decoded payload starts at any offset. Byte-serial FNV-1a of the head,
// then the four lanes, fold into one value that seeds byte-serial FNV-1a
// over the payload's last < 32 bytes.
//
// Every step is a bijection of its lane or of the fold for fixed other
// input: x -> (x ^ w) * kSnapFnvPrime is one for any w, the prime being
// odd. So a change confined to one word or one byte of a record still
// always changes its checksum, as with byte-serial FNV-1a.
std::uint64_t SectionChecksum(const std::uint8_t* head, std::size_t head_len,
                              const std::uint8_t* payload, std::size_t len) {
  std::uint64_t lanes[4] = {kSnapFnvOffset, kSnapFnvOffset, kSnapFnvOffset,
                            kSnapFnvOffset};
  constexpr std::size_t kBlock = sizeof lanes;
  std::size_t at = 0;
  for (; len - at >= kBlock; at += kBlock) {
    for (int k = 0; k < 4; ++k) {
      std::uint64_t word = 0;
      std::memcpy(&word, payload + at + 8 * k, sizeof word);
      lanes[k] = (lanes[k] ^ word) * kSnapFnvPrime;
    }
  }
  std::uint64_t fold = SnapFnv1a(head, head_len);
  for (const std::uint64_t lane : lanes) {
    fold = (fold ^ lane) * kSnapFnvPrime;
  }
  return SnapFnv1a(payload + at, len - at, fold);
}

}  // namespace

SnapWriter& Snapshot::Section(const std::string& name, std::uint16_t version) {
  Stored& s = sections_[name];
  s.version = version;
  s.writer = SnapWriter{};
  return s.writer;
}

SnapReader Snapshot::Open(const std::string& name,
                          std::uint16_t expect_version) const {
  auto it = sections_.find(name);
  if (it == sections_.end() || it->second.version != expect_version) {
    return SnapReader{};  // Pre-failed.
  }
  const auto& buf = it->second.writer.data();
  return SnapReader{buf.data(), buf.size()};
}

std::uint16_t Snapshot::SectionVersion(const std::string& name) const {
  auto it = sections_.find(name);
  return it == sections_.end() ? 0 : it->second.version;
}

std::vector<std::string> Snapshot::SectionNames() const {
  std::vector<std::string> names;
  names.reserve(sections_.size());
  for (const auto& [name, stored] : sections_) {
    names.push_back(name);
  }
  return names;
}

std::vector<std::uint8_t> Snapshot::Encode() const {
  std::size_t len = sizeof kMagic + 4 + 4;
  for (const auto& [name, stored] : sections_) {
    len += 4 + name.size() + 2 + 8 + 8 + stored.writer.size();
  }
  SnapWriter w;
  w.Reserve(len);
  w.Bytes(kMagic, sizeof kMagic);
  w.U32(kFileVersion);
  w.U32(static_cast<std::uint32_t>(sections_.size()));
  for (const auto& [name, stored] : sections_) {
    const auto& payload = stored.writer.data();
    const std::size_t head = w.size();
    w.Str(name);
    w.U16(stored.version);
    w.U64(payload.size());
    w.U64(SectionChecksum(w.data().data() + head, w.size() - head,
                          payload.data(), payload.size()));
    w.Bytes(payload.data(), payload.size());
  }
  return w.Release();
}

Status Snapshot::Decode(const std::uint8_t* data, std::size_t len) {
  sections_.clear();
  // Filled aside and swapped in at the end, so a failure keeps nothing.
  std::map<std::string, Stored> decoded;
  SnapReader r{data, len};
  char magic[8] = {};
  r.Bytes(magic, sizeof magic);
  if (!r.ok() || std::memcmp(magic, kMagic, sizeof magic) != 0) {
    return Status::kBadParameter;
  }
  if (r.U32() != kFileVersion) {
    return Status::kBadFeature;
  }
  const std::uint32_t count = r.U32();
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint8_t* head = data + (len - r.remaining());
    const std::string name = r.Str();
    const std::uint16_t version = r.U16();
    const std::uint64_t size = r.U64();
    const std::size_t head_len =
        static_cast<std::size_t>(data + (len - r.remaining()) - head);
    const std::uint64_t checksum = r.U64();
    if (!r.ok() || size > r.remaining()) {
      return Status::kBadParameter;
    }
    const std::uint8_t* payload = r.View(static_cast<std::size_t>(size));
    if (SectionChecksum(head, head_len, payload, size) != checksum) {
      return Status::kBadParameter;
    }
    // Names strictly ascend, as Encode writes them: a repeated name or
    // records in another order would give one snapshot a second encoding.
    if (!decoded.empty() && !(decoded.rbegin()->first < name)) {
      return Status::kBadParameter;
    }
    Stored& stored = decoded.emplace_hint(decoded.end(), name, Stored{})->second;
    stored.version = version;
    stored.writer.Bytes(payload, size);
  }
  if (!r.AtEnd()) {
    return Status::kBadParameter;
  }
  sections_.swap(decoded);
  return Status::kSuccess;
}

std::uint64_t Snapshot::PayloadBytes() const {
  std::uint64_t total = 0;
  for (const auto& [name, stored] : sections_) {
    total += stored.writer.size();
  }
  return total;
}

}  // namespace nova::sim
