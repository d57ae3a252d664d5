// Host-mode device access for user-level drivers.
//
// A driver domain reaches its device's MMIO window through mappings the
// root partition manager delegated to it; access outside those mappings
// is refused, mirroring what the MMU would do to a real user-level driver.
#ifndef SRC_SERVICES_HOST_IO_H_
#define SRC_SERVICES_HOST_IO_H_

#include <cstdint>

#include "src/hv/kernel.h"

namespace nova::services {

// MMIO read/write from `pd` running on `cpu_id`. Charges the uncached
// device-access cost, then refuses with kDenied an address whose window
// was not delegated to `pd`; otherwise the bus's status (kMemoryFault
// where no device claims the address).
Status HostMmioRead(hv::Hypervisor* hv, hv::Pd* pd, std::uint32_t cpu_id,
                    hw::PhysAddr addr, unsigned size, std::uint64_t* value);
Status HostMmioWrite(hv::Hypervisor* hv, hv::Pd* pd, std::uint32_t cpu_id,
                     hw::PhysAddr addr, unsigned size, std::uint64_t value);

}  // namespace nova::services

#endif  // SRC_SERVICES_HOST_IO_H_
