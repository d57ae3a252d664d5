// Standard platform assembly: places the host devices of the paper's
// evaluation machine (AHCI HBA + SATA disk, gigabit NIC, platform timer,
// serial port) on the bus, and registers them with the root partition
// manager for assignment to driver domains or virtual machines.
#ifndef SRC_ROOT_PLATFORM_H_
#define SRC_ROOT_PLATFORM_H_

#include <memory>

#include "src/hw/ahci.h"
#include "src/hw/machine.h"
#include "src/hw/nic.h"
#include "src/hw/timer_dev.h"
#include "src/hw/uart.h"
#include "src/root/root_pm.h"

namespace nova::root {

// Physical MMIO window placement (outside RAM).
constexpr hw::PhysAddr kAhciMmioBase = 0xc000'0000;
constexpr std::uint64_t kAhciMmioSize = 0x1000;
constexpr hw::PhysAddr kNicMmioBase = 0xc010'0000;
constexpr std::uint64_t kNicMmioSize = 0x4000;

constexpr std::uint32_t kAhciGsi = 11;
constexpr std::uint32_t kNicGsi = 10;
constexpr std::uint32_t kTimerGsi = 0;

constexpr hw::DeviceId kAhciDevId = 0x0110;  // 01:02.0-style requester ids.
constexpr hw::DeviceId kNicDevId = 0x0208;
constexpr hw::DeviceId kTimerDevId = 0x0020;
constexpr hw::DeviceId kUartDevId = 0x0028;

// The bus devices belong to the machine; the disk model and the network
// link are not bus devices, so the platform owns them.
struct Platform {
  hw::AhciController* ahci = nullptr;
  std::unique_ptr<hw::DiskModel> disk;
  hw::Nic* nic = nullptr;
  std::unique_ptr<hw::NetLink> link;
  hw::PlatformTimer* timer = nullptr;
  hw::Uart* uart = nullptr;
};

// Build the standard device set on `machine`, register bus windows, and
// announce everything to the root partition manager. The result must
// outlive the machine's use of the AHCI controller, which reads its disk.
[[nodiscard]] Platform SetupStandardPlatform(hw::Machine* machine,
                                             RootPartitionManager* root);

}  // namespace nova::root

#endif  // SRC_ROOT_PLATFORM_H_
