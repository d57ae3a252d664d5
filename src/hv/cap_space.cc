#include "src/hv/cap_space.h"

namespace nova::hv {

Status CapSpace::Insert(CapSel sel, Capability cap) {
  if (sel >= slots_.size()) {
    return Status::kOverflow;
  }
  if (slots_[sel].object != nullptr && slots_[sel].Valid()) {
    return Status::kBusy;
  }
  const std::uint32_t chunk_bit = 1u << (sel / kChunkSlots);
  if ((committed_ & chunk_bit) == 0) {
    if (charge_ && !charge_(1)) {
      return Status::kNoMem;
    }
    committed_ |= chunk_bit;
    ++committed_count_;
  }
  slots_[sel] = std::move(cap);
  return Status::kSuccess;
}

const Capability* CapSpace::Lookup(CapSel sel) const {
  if (sel >= slots_.size() || !slots_[sel].Valid()) {
    return nullptr;
  }
  return &slots_[sel];
}

ObjRef CapSpace::LookupRef(CapSel sel) const {
  const Capability* cap = Lookup(sel);
  return cap == nullptr ? nullptr : cap->object;
}

Status CapSpace::Remove(CapSel sel) {
  if (sel >= slots_.size()) {
    return Status::kBadParameter;
  }
  slots_[sel] = Capability{};
  return Status::kSuccess;
}

CapSel CapSpace::FindFree(CapSel from) const {
  for (CapSel sel = from; sel < slots_.size(); ++sel) {
    if (slots_[sel].object == nullptr) {
      return sel;
    }
  }
  return kInvalidSel;
}

std::size_t CapSpace::used() const {
  std::size_t n = 0;
  for (const Capability& cap : slots_) {
    if (cap.object != nullptr) {
      ++n;
    }
  }
  return n;
}

}  // namespace nova::hv
