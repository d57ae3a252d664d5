#include "src/hw/ahci.h"

#include <cstring>

#include "src/sim/log.h"

namespace nova::hw {

AhciController::AhciController(DeviceId id, Iommu* iommu, IrqChip* irq,
                               std::uint32_t gsi, DiskModel* disk)
    : Device(id, "ahci"), iommu_(iommu), irq_(irq), gsi_(gsi), disk_(disk) {
  disk_->set_completion_handler(
      [this](DiskModel::RequestId /*id*/, std::uint64_t cookie, Status status,
             const std::uint8_t* data, std::uint64_t len) {
        CompleteSlot(static_cast<int>(cookie), status, data, len);
      });
}

void AhciController::set_tracer(sim::Tracer* t) {
  tracer_ = t;
  trace_issue_ = t->Intern("AHCI Issue");
  trace_dma_ = t->Intern("AHCI DMA");
}

std::uint64_t AhciController::MmioRead(std::uint64_t offset, unsigned /*size*/) {
  switch (offset) {
    case ahci::kCap: return 0x1;  // One command slot group, one port.
    case ahci::kGhc: return ghc_;
    case ahci::kIs: return is_;
    case ahci::kPi: return 0x1;
    case ahci::kPxClb: return px_clb_;
    case ahci::kPxClbu: return 0;
    case ahci::kPxFb: return px_fb_;
    case ahci::kPxFbu: return 0;
    case ahci::kPxIs: return px_is_;
    case ahci::kPxIe: return px_ie_;
    case ahci::kPxCmd: return px_cmd_;
    case ahci::kPxTfd: return 0x50;   // DRDY.
    case ahci::kPxSsts: return 0x123; // Device present, PHY established.
    case ahci::kPxCi: return px_ci_;
    case ahci::kPxVs: return error_slots_;
    default: return 0;
  }
}

void AhciController::MmioWrite(std::uint64_t offset, unsigned /*size*/,
                               std::uint64_t value) {
  const auto v = static_cast<std::uint32_t>(value);
  switch (offset) {
    case ahci::kGhc:
      ghc_ = v;
      UpdateIrq();
      break;
    case ahci::kIs:
      is_ &= ~v;  // Write-1-clear.
      break;
    case ahci::kPxClb:
      px_clb_ = v & ~0x3ffu;  // 1 KiB aligned.
      break;
    case ahci::kPxFb:
      px_fb_ = v & ~0xffu;
      break;
    case ahci::kPxIs:
      px_is_ &= ~v;
      break;
    case ahci::kPxIe:
      px_ie_ = v;
      break;
    case ahci::kPxCmd:
      px_cmd_ = v;
      break;
    case ahci::kPxVs:
      error_slots_ &= ~v;  // Write-1-clear.
      break;
    case ahci::kPxCi:
      if ((px_cmd_ & ahci::kPxCmdStart) == 0) {
        break;  // Commands are only fetched while the engine runs.
      }
      for (int slot = 0; slot < ahci::kNumSlots; ++slot) {
        const std::uint32_t bit = 1u << slot;
        if ((v & bit) != 0 && (px_ci_ & bit) == 0) {
          px_ci_ |= bit;
          IssueSlot(slot);
        }
      }
      break;
    default:
      break;
  }
}

void AhciController::FailSlot(int slot) {
  inflight_[slot].active = false;
  error_slots_ |= 1u << slot;
  px_is_ |= ahci::kPxIsTfes;
  px_ci_ &= ~(1u << slot);
  is_ |= 0x1;
  UpdateIrq();
}

void AhciController::IssueSlot(int slot) {
  // Fetch the command header from the command list (DMA read).
  std::uint8_t header[32];
  if (!Ok(iommu_->DmaRead(id(), px_clb_ + slot * 32ull, header, sizeof(header)))) {
    ++dma_faults_;
    FailSlot(slot);
    return;
  }
  std::uint32_t dw0 = 0;
  std::uint32_t ctba = 0;
  std::memcpy(&dw0, header + 0, 4);
  std::memcpy(&ctba, header + 8, 4);
  const std::uint32_t prdtl = dw0 >> 16;
  const bool write = (dw0 & (1u << 6)) != 0;

  // Fetch the command FIS.
  std::uint8_t cfis[64];
  if (!Ok(iommu_->DmaRead(id(), ctba, cfis, sizeof(cfis))) ||
      cfis[0] != ahci::kFisH2d) {
    ++dma_faults_;
    FailSlot(slot);
    return;
  }
  std::uint64_t lba = 0;
  for (int i = 0; i < 6; ++i) {
    lba |= static_cast<std::uint64_t>(cfis[4 + i]) << (8 * i);
  }
  std::uint16_t sectors = 0;
  std::memcpy(&sectors, cfis + 12, 2);
  const std::uint64_t bytes = static_cast<std::uint64_t>(sectors) * kSectorSize;

  // Fetch the PRDT.
  Inflight& fl = inflight_[slot];
  fl = Inflight{};
  fl.active = true;
  fl.write = write;
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < prdtl; ++i) {
    std::uint8_t prd[16];
    if (!Ok(iommu_->DmaRead(id(), ctba + 0x80 + i * 16ull, prd, sizeof(prd)))) {
      ++dma_faults_;
      FailSlot(slot);
      return;
    }
    std::uint64_t dba = 0;
    std::uint32_t dbc = 0;
    std::memcpy(&dba, prd + 0, 8);
    std::memcpy(&dbc, prd + 12, 4);
    const std::uint32_t len = (dbc & 0x3fffffu) + 1;
    fl.prdt.emplace_back(dba, len);
    total += len;
  }
  if (total < bytes) {
    FailSlot(slot);  // PRDT shorter than the transfer.
    return;
  }

  tracer_->Instant(sim::TraceCat::kDevice, trace_issue_, bytes, write ? 1 : 0);
  if (write) {
    // Gather data from the PRDT buffers, then hand it to the disk.
    fl.data.resize(bytes);
    std::uint64_t off = 0;
    for (const auto& [dba, len] : fl.prdt) {
      const std::uint64_t chunk = std::min<std::uint64_t>(len, bytes - off);
      if (!Ok(iommu_->DmaRead(id(), dba, fl.data.data() + off, chunk))) {
        ++dma_faults_;
        FailSlot(slot);
        return;
      }
      off += chunk;
      if (off == bytes) {
        break;
      }
    }
    disk_->SubmitWrite(lba * kSectorSize, fl.data.data(), bytes,
                       static_cast<std::uint64_t>(slot));
  } else {
    disk_->SubmitRead(lba * kSectorSize, bytes,
                      static_cast<std::uint64_t>(slot));
  }
}

void AhciController::CompleteSlot(int slot, Status status,
                                  const std::uint8_t* data,
                                  std::uint64_t len) {
  Inflight& fl = inflight_[slot];
  if (!fl.active) {
    return;
  }
  if (!Ok(status)) {
    FailSlot(slot);  // Media error: task-file error, no data transferred.
    return;
  }
  if (!fl.write) {
    fl.data.assign(data, data + len);
    if (fault_plan_ != nullptr && !fl.prdt.empty() &&
        fault_plan_->ShouldFault(sim::FaultKind::kDmaUnmapped, "ahci")) {
      // Injected bug: the device scatters to an address outside its
      // mapping. The IOMMU must latch the fault and stop the DMA.
      fl.prdt[0].first = 0xffff'ff00'0000ull;
    }
  }
  const std::uint64_t prd_bytes = fl.data.size();
  if (!fl.write) {
    // Scatter the data into the guest/driver buffers (DMA write).
    std::uint64_t off = 0;
    for (const auto& [dba, prd_len] : fl.prdt) {
      const std::uint64_t chunk =
          std::min<std::uint64_t>(prd_len, prd_bytes - off);
      if (!Ok(iommu_->DmaWrite(id(), dba, fl.data.data() + off, chunk))) {
        ++dma_faults_;
        FailSlot(slot);
        return;
      }
      off += chunk;
      if (off == prd_bytes) {
        break;
      }
    }
  }
  fl.active = false;
  tracer_->Instant(sim::TraceCat::kDevice, trace_dma_, prd_bytes,
                   fl.write ? 1 : 0);
  px_ci_ &= ~(1u << slot);
  px_is_ |= ahci::kPxIsDhrs;
  is_ |= 0x1;
  UpdateIrq();
}

template <class Ar>
void AhciController::Io(Ar& ar) {
  ar.Io(ghc_, is_, px_clb_, px_fb_, px_is_, px_ie_, px_cmd_, px_ci_,
        error_slots_, dma_faults_, inflight_);
}

Status AhciController::SaveState(sim::SnapWriter& w) const {
  return w.Save(*this);
}
Status AhciController::LoadState(sim::SnapReader& r) {
  return r.Restore(*this);
}

void AhciController::UpdateIrq() {
  if ((ghc_ & ahci::kGhcIntrEnable) != 0 && (px_is_ & px_ie_) != 0) {
    if (iommu_->GsiAllowed(id(), gsi_)) {
      irq_->Assert(gsi_);
    }
  }
}

}  // namespace nova::hw
