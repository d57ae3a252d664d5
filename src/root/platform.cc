#include "src/root/platform.h"

#include "src/hw/disk.h"

namespace nova::root {

Platform SetupStandardPlatform(hw::Machine* machine, RootPartitionManager* root) {
  Platform p;

  p.disk = std::make_unique<hw::DiskModel>(&machine->events(), hw::DiskGeometry{});
  auto ahci = std::make_unique<hw::AhciController>(
      kAhciDevId, &machine->iommu(), &machine->irq(), kAhciGsi, p.disk.get());
  p.ahci = machine->AddDevice(std::move(ahci));
  p.ahci->set_tracer(&machine->tracer());
  (void)machine->bus().RegisterMmio(kAhciMmioBase, kAhciMmioSize, p.ahci);

  auto nic = std::make_unique<hw::Nic>(kNicDevId, &machine->iommu(),
                                       &machine->irq(), kNicGsi, &machine->events());
  p.nic = machine->AddDevice(std::move(nic));
  p.nic->set_tracer(&machine->tracer());
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
    root->RegisterDevice("ahci", DeviceInfo{.id = kAhciDevId,
                                            .mmio_base = kAhciMmioBase,
                                            .mmio_size = kAhciMmioSize,
                                            .gsi = kAhciGsi});
    root->RegisterDevice("nic", DeviceInfo{.id = kNicDevId,
                                           .mmio_base = kNicMmioBase,
                                           .mmio_size = kNicMmioSize,
                                           .gsi = kNicGsi});
    root->RegisterDevice("timer", DeviceInfo{.id = kTimerDevId,
                                             .pio_base = hw::timer::kPortPeriodLo,
                                             .pio_count = 4,
                                             .gsi = kTimerGsi});
    root->RegisterDevice("uart", DeviceInfo{.id = kUartDevId,
                                            .pio_base = hw::uart::kPortBase,
                                            .pio_count = 8});
  }
  return p;
}

}  // namespace nova::root
