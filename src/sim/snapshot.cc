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
    w.Str(name);
    w.U16(stored.version);
    w.U64(payload.size());
    w.U64(SnapFnv1a(payload.data(), payload.size()));
    w.Bytes(payload.data(), payload.size());
  }
  return w.Release();
}

Status Snapshot::Decode(const std::uint8_t* data, std::size_t len) {
  sections_.clear();
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
    const std::string name = r.Str();
    const std::uint16_t version = r.U16();
    const std::uint64_t size = r.U64();
    const std::uint64_t checksum = r.U64();
    if (!r.ok() || size > r.remaining()) {
      return Status::kBadParameter;
    }
    const std::uint8_t* payload = r.View(static_cast<std::size_t>(size));
    if (!r.ok() || SnapFnv1a(payload, size) != checksum) {
      return Status::kBadParameter;
    }
    Stored& s = sections_[name];
    s.version = version;
    s.writer.Bytes(payload, size);
  }
  return r.AtEnd() ? Status::kSuccess : Status::kBadParameter;
}

std::uint64_t Snapshot::PayloadBytes() const {
  std::uint64_t total = 0;
  for (const auto& [name, stored] : sections_) {
    total += stored.writer.size();
  }
  return total;
}

}  // namespace nova::sim
