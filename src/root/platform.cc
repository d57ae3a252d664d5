#include "src/root/platform.h"

#include <cstdio>
#include <cstdlib>

#include "src/hw/disk.h"

namespace nova::root {

Platform SetupStandardPlatform(hw::Machine* machine, RootPartitionManager* root) {
  Platform p;

  p.disk = std::make_unique<hw::DiskModel>(&machine->events(), hw::DiskGeometry{});
  auto ahci = std::make_unique<hw::AhciController>(
      kAhciDevId, &machine->iommu(), &machine->irq(), kAhciGsi, p.disk.get(),
      machine->tracer());
  p.ahci = machine->AddDevice(std::move(ahci));
  (void)machine->bus().RegisterMmio(kAhciMmioBase, kAhciMmioSize, p.ahci);

  auto nic = std::make_unique<hw::Nic>(kNicDevId, &machine->iommu(),
                                       &machine->irq(), kNicGsi,
                                       &machine->events(), machine->tracer());
  p.nic = machine->AddDevice(std::move(nic));
  (void)machine->bus().RegisterMmio(kNicMmioBase, kNicMmioSize, p.nic);
  p.link = std::make_unique<hw::NetLink>(&machine->events(), p.nic);

  auto timer = std::make_unique<hw::PlatformTimer>(kTimerDevId, &machine->irq(),
                                                   kTimerGsi, &machine->events());
  p.timer = machine->AddDevice(std::move(timer));
  (void)machine->bus().RegisterPio(hw::timer::kPortPeriodLo, 4, p.timer);

  auto uart = std::make_unique<hw::Uart>(kUartDevId);
  p.uart = machine->AddDevice(std::move(uart));
  (void)machine->bus().RegisterPio(hw::uart::kPortBase, 8, p.uart);

  if (root != nullptr) {
    // The windows are fixed, page-aligned constants, so a refused one is a
    // broken platform: stop here, naming the device, not at a later access.
    const auto add = [root](const char* name, const DeviceInfo& info) {
      const Status s = root->RegisterDevice(name, info);
      if (!Ok(s)) {
        std::fprintf(stderr, "SetupStandardPlatform: RegisterDevice(%s): %s\n",
                     name, StatusName(s));
        std::abort();
      }
    };
    add("ahci", DeviceInfo{.id = kAhciDevId,
                           .mmio_base = kAhciMmioBase,
                           .mmio_size = kAhciMmioSize,
                           .gsi = kAhciGsi});
    add("nic", DeviceInfo{.id = kNicDevId,
                          .mmio_base = kNicMmioBase,
                          .mmio_size = kNicMmioSize,
                          .gsi = kNicGsi});
    add("timer", DeviceInfo{.id = kTimerDevId,
                            .pio_base = hw::timer::kPortPeriodLo,
                            .pio_count = 4,
                            .gsi = kTimerGsi});
    add("uart", DeviceInfo{.id = kUartDevId,
                           .pio_base = hw::uart::kPortBase,
                           .pio_count = 8});
  }
  return p;
}

}  // namespace nova::root
