#include "src/hw/disk.h"

#include <algorithm>
#include <cstring>
#include <utility>

#ifdef __SSE2__
#include <emmintrin.h>
#endif

namespace nova::hw {

namespace {
constexpr std::uint32_t kOpComplete = 1;
}  // namespace

DiskModel::DiskModel(sim::EventQueue* events, DiskGeometry geometry,
                     std::string name)
    : events_(events), geometry_(geometry), name_(std::move(name)) {
  event_owner_ = events_->RegisterOwner(
      sim::EventQueue::OwnerToken(name_), [this](const sim::EventTag& tag) {
        return [this, id = tag.a] { Fire(id); };
      });
}

sim::PicoSeconds DiskModel::ServiceTime(std::uint64_t bytes) const {
  const sim::PicoSeconds media =
      bytes * sim::kPicosPerSecond / geometry_.bandwidth_bps;
  return std::max(geometry_.request_overhead, media);
}

void DiskModel::FillPattern(std::uint64_t offset, std::uint8_t* out,
                            std::uint64_t bytes) {
  // Deterministic content for unwritten sectors: byte `offset` reads as
  // bits 24-31 of offset * 2654435761. Those bits depend only on the low
  // 32 bits of the offset, so one 32-bit product steps along the range.
  constexpr std::uint32_t kMul = 2654435761u;
  std::uint64_t i = 0;
#ifdef __SSE2__
  if (bytes >= 16) {
    // Four vectors hold the products of the block's 16 bytes and advance
    // by 16 * kMul per block; each block shifts their top bytes down and
    // narrows 4 x 4 lanes to 16 bytes. The values fit 8 bits, so neither
    // saturating pack clips.
    const auto h = static_cast<std::uint32_t>(offset) * kMul;
    const __m128i four = _mm_set1_epi32(static_cast<int>(4 * kMul));
    const __m128i step = _mm_set1_epi32(static_cast<int>(16 * kMul));
    __m128i p0 = _mm_setr_epi32(
        static_cast<int>(h), static_cast<int>(h + kMul),
        static_cast<int>(h + 2 * kMul), static_cast<int>(h + 3 * kMul));
    __m128i p1 = _mm_add_epi32(p0, four);
    __m128i p2 = _mm_add_epi32(p1, four);
    __m128i p3 = _mm_add_epi32(p2, four);
    for (; i + 16 <= bytes; i += 16) {
      const __m128i lo = _mm_packs_epi32(_mm_srli_epi32(p0, 24),
                                         _mm_srli_epi32(p1, 24));
      const __m128i hi = _mm_packs_epi32(_mm_srli_epi32(p2, 24),
                                         _mm_srli_epi32(p3, 24));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                       _mm_packus_epi16(lo, hi));
      p0 = _mm_add_epi32(p0, step);
      p1 = _mm_add_epi32(p1, step);
      p2 = _mm_add_epi32(p2, step);
      p3 = _mm_add_epi32(p3, step);
    }
  }
#endif
  // The tail, and the whole range without SSE2: each 16-byte block derives
  // its bytes from the block's first product in a constant-count loop,
  // which GCC vectorizes at -O2.
  auto h = static_cast<std::uint32_t>(offset + i) * kMul;
  for (; i + 16 <= bytes; i += 16) {
    for (std::uint32_t k = 0; k < 16; ++k) {
      out[i + k] = static_cast<std::uint8_t>((h + k * kMul) >> 24);
    }
    h += 16 * kMul;
  }
  for (; i < bytes; ++i) {
    out[i] = static_cast<std::uint8_t>(h >> 24);
    h += kMul;
  }
}

void DiskModel::ReadContent(std::uint64_t offset, void* out, std::uint64_t bytes) const {
  auto* dst = static_cast<std::uint8_t*>(out);
  if (sectors_.size() == 0) {
    FillPattern(offset, dst, bytes);  // Nothing written: one fill, no lookup.
    return;
  }
  // Each maximal run of unwritten sectors takes one fill: `run` counts the
  // bytes of the run that ends at `offset`.
  std::uint64_t run = 0;
  while (bytes > 0) {
    const std::uint64_t sector = offset / kSectorSize;
    const std::uint64_t in_sector = offset % kSectorSize;
    const std::uint64_t chunk = std::min(bytes, kSectorSize - in_sector);
    if (const std::vector<std::uint8_t>* stored = sectors_.Find(sector)) {
      FillPattern(offset - run, dst - run, run);
      run = 0;
      std::memcpy(dst, stored->data() + in_sector, chunk);
    } else {
      run += chunk;
    }
    offset += chunk;
    dst += chunk;
    bytes -= chunk;
  }
  FillPattern(offset - run, dst - run, run);
}

void DiskModel::WriteContent(std::uint64_t offset, const void* data,
                             std::uint64_t bytes) {
  const auto* src = static_cast<const std::uint8_t*>(data);
  while (bytes > 0) {
    const std::uint64_t sector = offset / kSectorSize;
    const std::uint64_t in_sector = offset % kSectorSize;
    const std::uint64_t chunk = std::min(bytes, kSectorSize - in_sector);
    auto& store = sectors_[sector];
    if (store.empty()) {
      store.resize(kSectorSize);
      FillPattern(sector * kSectorSize, store.data(), kSectorSize);
    }
    std::memcpy(store.data() + in_sector, src, chunk);
    offset += chunk;
    src += chunk;
    bytes -= chunk;
  }
}

Status DiskModel::MediaStatus() {
  if (fault_plan_ != nullptr &&
      fault_plan_->ShouldFault(sim::FaultKind::kDiskMediaError, "disk")) {
    media_errors_.Add();
    return Status::kMemoryFault;
  }
  return Status::kSuccess;
}

DiskModel::RequestId DiskModel::Enqueue(Pending p) {
  const RequestId id = next_request_++;
  const sim::PicoSeconds start = std::max(busy_until_, events_->now());
  busy_until_ = start + ServiceTime(p.bytes);
  pending_.emplace(id, std::move(p));
  events_->ScheduleAt(
      busy_until_,
      sim::EventTag{sim::EventQueue::OwnerToken(name_), kOpComplete, id, 0});
  return id;
}

DiskModel::RequestId DiskModel::SubmitRead(std::uint64_t offset,
                                           std::uint64_t bytes,
                                           std::uint64_t cookie) {
  Pending p;
  p.write = false;
  p.offset = offset;
  p.bytes = bytes;
  p.cookie = cookie;
  return Enqueue(std::move(p));
}

DiskModel::RequestId DiskModel::SubmitWrite(std::uint64_t offset,
                                            const std::uint8_t* data,
                                            std::uint64_t bytes,
                                            std::uint64_t cookie) {
  Pending p;
  p.write = true;
  p.offset = offset;
  p.bytes = bytes;
  p.cookie = cookie;
  // Capture the payload now: the source buffer may be reused by the caller.
  p.payload.assign(data, data + bytes);
  return Enqueue(std::move(p));
}

void DiskModel::Fire(RequestId id) {
  auto node = pending_.extract(id);
  if (node.empty()) {
    return;  // Request was cancelled/retired administratively.
  }
  Pending& p = node.mapped();
  const Status status = MediaStatus();
  const std::uint8_t* data = nullptr;
  std::uint64_t len = 0;
  std::vector<std::uint8_t> buf;
  if (Ok(status)) {
    if (p.write) {
      WriteContent(p.offset, p.payload.data(), p.payload.size());
    } else {
      buf.resize(p.bytes);
      ReadContent(p.offset, buf.data(), p.bytes);
      data = buf.data();
      len = p.bytes;
    }
  }
  completed_.Add();
  if (handler_) {
    handler_(id, p.cookie, status, data, len);
  }
}

template <class Ar>
void DiskModel::Io(Ar& ar) {
  ar.Io(busy_until_, next_request_, completed_, media_errors_);
  if constexpr (Ar::kLoading) {
    sectors_.clear();
    pending_.clear();
  }
  // Written sectors: raw sector bytes, no length prefix.
  ar.Keyed(sim::kCount64, sectors_, [&ar](std::vector<std::uint8_t>& bytes) {
    if constexpr (Ar::kLoading) {
      bytes.resize(kSectorSize);
    }
    ar.Bytes(bytes.data(), kSectorSize);
  });
  ar.Keyed(sim::kCount32, pending_);
}

Status DiskModel::SaveState(sim::SnapWriter& w) const { return w.Save(*this); }
Status DiskModel::LoadState(sim::SnapReader& r) { return r.Restore(*this); }

}  // namespace nova::hw
