// Physical device abstraction and the system bus.
//
// Host devices expose MMIO register windows and I/O ports; the bus routes
// accesses to the owning device. DMA goes through the IOMMU; interrupts
// are asserted on the IrqChip. Direct device assignment (§8.2/8.3 of the
// paper) works by mapping a device's MMIO window into a VM's host address
// space and granting its ports in the VM's I/O space.
#ifndef SRC_HW_DEVICE_H_
#define SRC_HW_DEVICE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/hw/iommu.h"
#include "src/hw/phys_mem.h"
#include "src/sim/status.h"

namespace nova::hw {

class Device {
 public:
  Device(DeviceId id, std::string name) : id_(id), name_(std::move(name)) {}
  virtual ~Device() = default;

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  DeviceId id() const { return id_; }
  const std::string& name() const { return name_; }

  // MMIO window access; `addr` is the offset within the device's window.
  virtual std::uint64_t MmioRead(std::uint64_t offset, unsigned size) = 0;
  virtual void MmioWrite(std::uint64_t offset, unsigned size, std::uint64_t value) = 0;

  // Port I/O; `port` is absolute. Default: float the bus / drop writes.
  virtual std::uint32_t PioRead(std::uint16_t port, unsigned size);
  virtual void PioWrite(std::uint16_t port, unsigned size, std::uint32_t value);

 private:
  DeviceId id_;
  std::string name_;
};

// Routes physical MMIO/PIO accesses to devices.
class Bus {
 public:
  struct MmioRange {
    PhysAddr base;
    std::uint64_t size;
    Device* device;
  };
  struct PioRange {
    std::uint16_t base;
    std::uint16_t count;
    Device* device;
  };

  Status RegisterMmio(PhysAddr base, std::uint64_t size, Device* device);
  Status RegisterPio(std::uint16_t base, std::uint16_t count, Device* device);

  // Find the device claiming `addr`; returns nullptr for plain RAM.
  Device* FindMmio(PhysAddr addr, PhysAddr* window_base = nullptr) const;
  Device* FindPio(std::uint16_t port) const;

  // Dispatch helpers. Return kMemoryFault / kBadDevice when unclaimed.
  Status MmioRead(PhysAddr addr, unsigned size, std::uint64_t* out) const;
  Status MmioWrite(PhysAddr addr, unsigned size, std::uint64_t value) const;
  Status PioRead(std::uint16_t port, unsigned size, std::uint32_t* out) const;
  Status PioWrite(std::uint16_t port, unsigned size, std::uint32_t value) const;

 private:
  std::vector<MmioRange> mmio_;
  std::vector<PioRange> pio_;
};

}  // namespace nova::hw

#endif  // SRC_HW_DEVICE_H_
