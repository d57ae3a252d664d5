// 16550-style serial port: the console sink for the hypervisor and for
// guests with a directly assigned or virtual COM port.
#ifndef SRC_HW_UART_H_
#define SRC_HW_UART_H_

#include <cstdint>
#include <string>

#include "src/hw/device.h"
#include "src/sim/snapshot.h"
#include "src/sim/status.h"

namespace nova::hw {

namespace uart {
constexpr std::uint16_t kPortBase = 0x3f8;
constexpr std::uint16_t kData = 0;   // THR/RBR.
constexpr std::uint16_t kLsr = 5;    // Line status.
constexpr std::uint8_t kLsrTxEmpty = 0x60;
}  // namespace uart

class Uart : public Device {
 public:
  explicit Uart(DeviceId id) : Device(id, "uart") {}

  std::uint64_t MmioRead(std::uint64_t, unsigned) override { return 0; }
  void MmioWrite(std::uint64_t, unsigned, std::uint64_t) override {}

  std::uint32_t PioRead(std::uint16_t port, unsigned size) override;
  void PioWrite(std::uint16_t port, unsigned size, std::uint32_t value) override;

  const std::string& output() const { return output_; }
  void ClearOutput() { output_.clear(); }

  Status SaveState(sim::SnapWriter& w) const { return w.Save(*this); }
  Status LoadState(sim::SnapReader& r) { return r.Restore(*this); }
  template <class Ar>
  void Io(Ar& ar) {
    ar.Io(output_);
  }

 private:
  std::string output_;
};

}  // namespace nova::hw

#endif  // SRC_HW_UART_H_
