#include "src/vmm/emulator.h"

#include "src/hw/paging.h"

namespace nova::vmm {

bool InsnEmulator::WalkGuest(const hv::ArchState& arch, std::uint64_t gva,
                             bool is_write, std::uint64_t* gpa) {
  if (!arch.paging) {
    *gpa = gva;
    return true;
  }
  // Like the hardware walker, an emulated access sets A on every entry it
  // uses and D on the leaf of a write.
  const auto resolve = [this](hw::PhysAddr entry_gpa) {
    cpu_->Charge(costs_.walk_level);
    return gpa_to_hpa_(entry_gpa);
  };
  const hw::WalkResult w = hw::PageTable(mem_, hw::PagingMode::kTwoLevel, arch.cr3)
                               .Walk(gva, hw::Access{.write = is_write},
                                     /*set_ad=*/true, resolve);
  if (!Ok(w.status)) {
    return false;  // Guest page fault, or a guest table outside guest RAM.
  }
  *gpa = w.pa;
  return true;
}

bool InsnEmulator::ReadGuestVirt(const hv::ArchState& arch, std::uint64_t gva,
                                 void* out, std::uint64_t len) {
  auto* dst = static_cast<std::uint8_t*>(out);
  while (len > 0) {
    std::uint64_t gpa = 0;
    if (!WalkGuest(arch, gva, /*is_write=*/false, &gpa)) {
      return false;
    }
    const std::uint64_t hpa = gpa_to_hpa_(gpa);
    if (hpa == hw::kNoHpa) {
      return false;
    }
    const std::uint64_t chunk =
        std::min<std::uint64_t>(len, hw::kPageSize - (gva & hw::kPageMask));
    (void)mem_->Read(hpa, dst, chunk);
    gva += chunk;
    dst += chunk;
    len -= chunk;
  }
  return true;
}

InsnEmulator::Result InsnEmulator::EmulateMmio(hv::ArchState& arch,
                                               const MmioRead& read,
                                               const MmioWrite& write) {
  // 1. Fetch the opcode bytes from the guest instruction pointer.
  cpu_->Charge(costs_.fetch);
  std::uint8_t bytes[hw::isa::kInsnSize];
  if (!ReadGuestVirt(arch, arch.rip, bytes, sizeof(bytes))) {
    arch.cr2 = arch.rip;
    return Result::kInjectPf;
  }

  // 2. Decode.
  cpu_->Charge(costs_.decode);
  const hw::isa::Insn insn = hw::isa::Decode(bytes);

  // 3. Compute the effective address and execute against the device router.
  cpu_->Charge(costs_.execute);
  using hw::isa::Opcode;
  switch (insn.opcode) {
    case Opcode::kLoad: {
      const std::uint64_t gva =
          (insn.r2 != hw::isa::kNoReg ? arch.regs[insn.r2 & 7] : 0) + insn.imm64;
      std::uint64_t gpa = 0;
      if (!WalkGuest(arch, gva, /*is_write=*/false, &gpa)) {
        arch.cr2 = gva;
        return Result::kInjectPf;
      }
      arch.regs[insn.r1 & 7] = read(gpa, 8);
      break;
    }
    case Opcode::kStore: {
      const std::uint64_t gva =
          (insn.r2 != hw::isa::kNoReg ? arch.regs[insn.r2 & 7] : 0) + insn.imm64;
      std::uint64_t gpa = 0;
      if (!WalkGuest(arch, gva, /*is_write=*/true, &gpa)) {
        arch.cr2 = gva;
        return Result::kInjectPf;
      }
      write(gpa, 8, arch.regs[insn.r1 & 7]);
      break;
    }
    // Only plain loads and stores can fault into MMIO emulation; anything
    // else reaching here means the guest jumped into a device window, and
    // the VMM refuses rather than interpret it.
    case Opcode::kNopBlock:
    case Opcode::kMovImm:
    case Opcode::kAdd:
    case Opcode::kAnd:
    case Opcode::kCopy:
    case Opcode::kJmp:
    case Opcode::kJnz:
    case Opcode::kLoop:
    case Opcode::kOut:
    case Opcode::kIn:
    case Opcode::kCpuid:
    case Opcode::kHlt:
    case Opcode::kRdtsc:
    case Opcode::kMovCr3:
    case Opcode::kReadCr3:
    case Opcode::kReadCr2:
    case Opcode::kInvlpg:
    case Opcode::kSti:
    case Opcode::kCli:
    case Opcode::kIret:
    case Opcode::kSetIdt:
    case Opcode::kVmcall:
    case Opcode::kGuestLogic:
      return Result::kUnsupported;
    default:
      // Decode() passes raw bytes through, so a corrupted fetch can carry
      // a value outside the enum; those are equally unsupported.
      return Result::kUnsupported;
  }

  // 4. Writeback happened above; advance the instruction pointer.
  arch.rip += hw::isa::kInsnSize;
  ++emulated_;
  return Result::kOk;
}

}  // namespace nova::vmm
