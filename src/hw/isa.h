// Guest instruction-set architecture.
//
// Guest operating systems in this reproduction are real programs: streams
// of fixed-size 16-byte instructions stored in guest memory, fetched
// through the guest's own page tables and TLB. The encoding is compact
// rather than x86, but it preserves every property the paper measures:
// sensitive instructions trap, MMIO faults must be *decoded* by the VMM's
// instruction emulator, page-table maintenance is explicit (MOV CR3 /
// INVLPG), and interrupt flag handling drives interrupt-window exits.
//
// Instructions are 16-byte aligned and never straddle a page boundary.
//
// Layout:
//   byte 0      opcode
//   byte 1      r1 (destination / source register, 0-7)
//   byte 2      r2 (second register, 0-7; 0xff = unused)
//   byte 3      flags (opcode-specific)
//   bytes 4-7   imm32
//   bytes 8-15  imm64
#ifndef SRC_HW_ISA_H_
#define SRC_HW_ISA_H_

#include <cstdint>
#include <cstring>
#include <vector>

namespace nova::hw::isa {

constexpr std::uint32_t kInsnSize = 16;
constexpr int kNumRegs = 8;
constexpr std::uint8_t kNoReg = 0xff;

enum class Opcode : std::uint8_t {
  kNopBlock = 0x01,  // Charge imm32 cycles of computation.
  kMovImm = 0x02,    // r1 = imm64.
  kAdd = 0x03,       // r1 += (r2 != kNoReg ? reg[r2] : imm64).
  kAnd = 0x07,       // r1 &= (r2 != kNoReg ? reg[r2] : imm64).
  kLoad = 0x04,      // r1 = mem64[addr]; addr = (r2 != kNoReg ? reg[r2] : 0) + imm64.
  kStore = 0x05,     // mem64[addr] = reg[r1]; addr as for kLoad.
  kCopy = 0x06,      // Copy imm32 bytes from [reg[r2]] to [reg[r1]].
  kJmp = 0x10,       // rip = imm64.
  kJnz = 0x11,       // if (reg[r1] != 0) rip = imm64.
  kLoop = 0x12,      // if (--reg[r1] != 0) rip = imm64.
  kOut = 0x20,       // Port out: port = imm32, value = reg[r1], width = flags.
  kIn = 0x21,        // Port in: reg[r1] = in(imm32), width = flags.
  kCpuid = 0x22,     // Sensitive: always exits under virtualization.
  kHlt = 0x23,       // Halt until interrupt.
  kRdtsc = 0x24,     // r1 = current cycle count.
  kMovCr3 = 0x30,    // cr3 = (r2 != kNoReg ? reg[r2] : imm64).
  kReadCr3 = 0x31,   // r1 = cr3.
  kReadCr2 = 0x32,   // r1 = cr2 (page-fault address).
  kInvlpg = 0x33,    // Invalidate translation for gva imm64 (or reg[r2]).
  kSti = 0x34,       // Enable interrupts.
  kCli = 0x35,       // Disable interrupts.
  kIret = 0x36,      // Return from interrupt/exception handler.
  kSetIdt = 0x37,    // idt[imm32] = handler gva imm64 (boot-time only).
  kVmcall = 0x38,    // Explicit hypercall from an enlightened guest.
  kGuestLogic = 0x40,// Invoke registered guest-logic callback imm32.
};

struct Insn {
  Opcode opcode = Opcode::kNopBlock;
  std::uint8_t r1 = 0;
  std::uint8_t r2 = kNoReg;
  std::uint8_t flags = 0;
  std::uint32_t imm32 = 0;
  std::uint64_t imm64 = 0;
};

inline void Encode(const Insn& insn, std::uint8_t out[kInsnSize]) {
  out[0] = static_cast<std::uint8_t>(insn.opcode);
  out[1] = insn.r1;
  out[2] = insn.r2;
  out[3] = insn.flags;
  std::memcpy(out + 4, &insn.imm32, 4);
  std::memcpy(out + 8, &insn.imm64, 8);
}

inline Insn Decode(const std::uint8_t bytes[kInsnSize]) {
  Insn insn;
  insn.opcode = static_cast<Opcode>(bytes[0]);
  insn.r1 = bytes[1];
  insn.r2 = bytes[2];
  insn.flags = bytes[3];
  std::memcpy(&insn.imm32, bytes + 4, 4);
  std::memcpy(&insn.imm64, bytes + 8, 8);
  return insn;
}

// Small assembler: builds an instruction stream for placement in guest
// memory. Guest kernels use this the way a build system produces a kernel
// image.
class Assembler {
 public:
  explicit Assembler(std::uint64_t base_gva) : base_(base_gva) {}

  // Address the next emitted instruction will have.
  std::uint64_t Here() const { return base_ + bytes_.size(); }

  std::uint64_t Emit(const Insn& insn) {
    const std::uint64_t at = Here();
    const std::size_t offset = bytes_.size();
    bytes_.resize(offset + kInsnSize);
    Encode(insn, bytes_.data() + offset);
    return at;
  }

  // Convenience emitters.
  std::uint64_t NopBlock(std::uint32_t cycles) {
    return Emit({.opcode = Opcode::kNopBlock, .imm32 = cycles});
  }
  std::uint64_t MovImm(std::uint8_t r, std::uint64_t v) {
    return Emit({.opcode = Opcode::kMovImm, .r1 = r, .imm64 = v});
  }
  std::uint64_t AddImm(std::uint8_t r, std::uint64_t v) {
    return Emit({.opcode = Opcode::kAdd, .r1 = r, .imm64 = v});
  }
  std::uint64_t AddReg(std::uint8_t r, std::uint8_t r2) {
    return Emit({.opcode = Opcode::kAdd, .r1 = r, .r2 = r2});
  }
  std::uint64_t AndImm(std::uint8_t r, std::uint64_t v) {
    return Emit({.opcode = Opcode::kAnd, .r1 = r, .imm64 = v});
  }
  std::uint64_t Load(std::uint8_t r, std::uint8_t base_reg, std::uint64_t off) {
    return Emit({.opcode = Opcode::kLoad, .r1 = r, .r2 = base_reg, .imm64 = off});
  }
  std::uint64_t LoadAbs(std::uint8_t r, std::uint64_t gva) {
    return Emit({.opcode = Opcode::kLoad, .r1 = r, .r2 = kNoReg, .imm64 = gva});
  }
  std::uint64_t Store(std::uint8_t r, std::uint8_t base_reg, std::uint64_t off) {
    return Emit({.opcode = Opcode::kStore, .r1 = r, .r2 = base_reg, .imm64 = off});
  }
  std::uint64_t StoreAbs(std::uint8_t r, std::uint64_t gva) {
    return Emit({.opcode = Opcode::kStore, .r1 = r, .r2 = kNoReg, .imm64 = gva});
  }
  std::uint64_t Copy(std::uint8_t dst_reg, std::uint8_t src_reg, std::uint32_t bytes) {
    return Emit({.opcode = Opcode::kCopy, .r1 = dst_reg, .r2 = src_reg, .imm32 = bytes});
  }
  std::uint64_t Jmp(std::uint64_t gva) {
    return Emit({.opcode = Opcode::kJmp, .imm64 = gva});
  }
  std::uint64_t Jnz(std::uint8_t r, std::uint64_t gva) {
    return Emit({.opcode = Opcode::kJnz, .r1 = r, .imm64 = gva});
  }
  std::uint64_t Loop(std::uint8_t r, std::uint64_t gva) {
    return Emit({.opcode = Opcode::kLoop, .r1 = r, .imm64 = gva});
  }
  std::uint64_t Out(std::uint16_t port, std::uint8_t value_reg) {
    return Emit({.opcode = Opcode::kOut, .r1 = value_reg, .imm32 = port});
  }
  std::uint64_t In(std::uint8_t r, std::uint16_t port) {
    return Emit({.opcode = Opcode::kIn, .r1 = r, .imm32 = port});
  }
  std::uint64_t Cpuid() { return Emit({.opcode = Opcode::kCpuid}); }
  std::uint64_t Hlt() { return Emit({.opcode = Opcode::kHlt}); }
  std::uint64_t MovCr3Reg(std::uint8_t r) {
    return Emit({.opcode = Opcode::kMovCr3, .r2 = r});
  }
  std::uint64_t MovCr3Imm(std::uint64_t v) {
    return Emit({.opcode = Opcode::kMovCr3, .imm64 = v});
  }
  std::uint64_t ReadCr2(std::uint8_t r) {
    return Emit({.opcode = Opcode::kReadCr2, .r1 = r});
  }
  std::uint64_t InvlpgReg(std::uint8_t r) {
    return Emit({.opcode = Opcode::kInvlpg, .r2 = r});
  }
  std::uint64_t Sti() { return Emit({.opcode = Opcode::kSti}); }
  std::uint64_t Cli() { return Emit({.opcode = Opcode::kCli}); }
  std::uint64_t Iret() { return Emit({.opcode = Opcode::kIret}); }
  std::uint64_t SetIdt(std::uint32_t vector, std::uint64_t handler) {
    return Emit({.opcode = Opcode::kSetIdt, .imm32 = vector, .imm64 = handler});
  }
  std::uint64_t GuestLogic(std::uint32_t id) {
    return Emit({.opcode = Opcode::kGuestLogic, .imm32 = id});
  }

  // Patch the imm64 of the instruction at `at` (for forward jumps).
  void PatchImm64(std::uint64_t at, std::uint64_t value) {
    const std::uint64_t off = at - base_ + 8;
    std::memcpy(bytes_.data() + off, &value, 8);
  }

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::uint64_t base() const { return base_; }

 private:
  std::uint64_t base_;
  std::vector<std::uint8_t> bytes_;
};

}  // namespace nova::hw::isa

#endif  // SRC_HW_ISA_H_
