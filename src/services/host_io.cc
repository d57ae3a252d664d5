#include "src/services/host_io.h"

namespace nova::services {
namespace {

constexpr sim::Cycles kMmioCost = 150;

bool HoldsWindow(hv::Pd* pd, hw::PhysAddr addr) {
  return pd->mem_space().PermsFor(addr >> hw::kPageShift) != 0;
}

}  // namespace

Status HostMmioRead(hv::Hypervisor* hv, hv::Pd* pd, std::uint32_t cpu_id,
                    hw::PhysAddr addr, unsigned size, std::uint64_t* value) {
  hv->machine().cpu(cpu_id).Charge(kMmioCost);
  if (!HoldsWindow(pd, addr)) {
    return Status::kDenied;
  }
  return hv->machine().bus().MmioRead(addr, size, value);
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
