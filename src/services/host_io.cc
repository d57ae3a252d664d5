#include "src/services/host_io.h"

namespace nova::services {
namespace {

constexpr sim::Cycles kMmioCost = 150;

bool HoldsWindow(hv::Pd* pd, hw::PhysAddr addr) {
  return pd->mem_space().PermsFor(addr >> hw::kPageShift) != 0;
}

}  // namespace

std::uint64_t HostMmioRead(hv::Hypervisor* hv, hv::Pd* pd, std::uint32_t cpu_id,
                           hw::PhysAddr addr, unsigned size, Status* status) {
  hv->machine().cpu(cpu_id).Charge(kMmioCost);
  if (!HoldsWindow(pd, addr)) {
    if (status != nullptr) {
      *status = Status::kDenied;
    }
    return ~0ull;
  }
  std::uint64_t value = 0;
  const Status s = hv->machine().bus().MmioRead(addr, size, &value);
  if (status != nullptr) {
    *status = s;
  }
  return value;
}

Status HostMmioWrite(hv::Hypervisor* hv, hv::Pd* pd, std::uint32_t cpu_id,
                     hw::PhysAddr addr, unsigned size, std::uint64_t value) {
  hv->machine().cpu(cpu_id).Charge(kMmioCost);
  if (!HoldsWindow(pd, addr)) {
    return Status::kDenied;
  }
  return hv->machine().bus().MmioWrite(addr, size, value);
}

}  // namespace nova::services
