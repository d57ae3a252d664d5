#include "src/hv/spaces.h"

namespace nova::hv {
namespace {

std::uint64_t PteFlags(std::uint8_t perms) {
  std::uint64_t flags = hw::pte::kUser;
  if ((perms & perm::kWrite) != 0) {
    flags |= hw::pte::kWritable;
  }
  return flags;
}

}  // namespace

Status MemSpace::Map(std::uint64_t page, std::uint64_t hpa_page,
                     std::uint64_t count, std::uint8_t perms, bool large) {
  const std::uint64_t large_size = hw::LargePageSize(table_.mode());
  const std::uint64_t large_pages = large_size / hw::kPageSize;
  // A failed table-node allocation surfaces from the walker as kOverflow;
  // report it as kNoMem and unmap the partially-built prefix so a failed
  // Map leaves no half-installed range behind.
  if (large) {
    if (page % large_pages != 0 || hpa_page % large_pages != 0 ||
        count % large_pages != 0) {
      return Status::kBadParameter;
    }
    for (std::uint64_t off = 0; off < count; off += large_pages) {
      const Status s =
          table_.Map((page + off) << hw::kPageShift, (hpa_page + off) << hw::kPageShift,
                     large_size, PteFlags(perms), alloc_);
      if (!Ok(s)) {
        for (std::uint64_t undo = 0; undo < off; undo += large_pages) {
          (void)table_.Unmap((page + undo) << hw::kPageShift);
        }
        return s == Status::kOverflow ? Status::kNoMem : s;
      }
    }
  } else {
    for (std::uint64_t off = 0; off < count; ++off) {
      const Status s =
          table_.Map((page + off) << hw::kPageShift, (hpa_page + off) << hw::kPageShift,
                     hw::kPageSize, PteFlags(perms), alloc_);
      if (!Ok(s)) {
        for (std::uint64_t undo = 0; undo < off; ++undo) {
          (void)table_.Unmap((page + undo) << hw::kPageShift);
        }
        return s == Status::kOverflow ? Status::kNoMem : s;
      }
    }
  }
  for (std::uint64_t off = 0; off < count; ++off) {
    pages_[page + off] = Holding{hpa_page + off, perms, large};
  }
  return Status::kSuccess;
}

Status MemSpace::Unmap(std::uint64_t page, std::uint64_t count) {
  const std::uint64_t large_pages =
      hw::LargePageSize(table_.mode()) / hw::kPageSize;
  for (std::uint64_t off = 0; off < count; ++off) {
    const Holding* h = pages_.Find(page + off);
    if (h == nullptr) {
      continue;
    }
    if (h->large) {
      // Revoking any part of a superpage drops the whole superpage.
      const std::uint64_t base = (page + off) & ~(large_pages - 1);
      (void)table_.Unmap(base << hw::kPageShift);
      for (std::uint64_t i = 0; i < large_pages; ++i) {
        pages_.Erase(base + i);
      }
    } else {
      (void)table_.Unmap((page + off) << hw::kPageShift);
      pages_.Erase(page + off);
    }
  }
  return Status::kSuccess;
}

std::uint8_t MemSpace::PermsFor(std::uint64_t page) const {
  const Holding* h = pages_.Find(page);
  return h == nullptr ? 0 : h->perms;
}

std::uint64_t MemSpace::HpaPageFor(std::uint64_t page) const {
  const Holding* h = pages_.Find(page);
  return h == nullptr ? ~0ull : h->hpa_page;
}

void MemSpace::ForEachMapping(const MappingVisitor& visit) const {
  pages_.ForEachInKeyOrder([&](std::uint64_t page, const Holding& h) {
    visit(page, h.hpa_page, h.perms, h.large);
  });
}

template <class Ar>
void MemSpace::Io(Ar& ar) {
  if constexpr (Ar::kLoading) {
    pages_.clear();
  }
  ar.Keyed(sim::kCount64, pages_);
}

Status MemSpace::SaveState(sim::SnapWriter& w) const { return w.Save(*this); }
Status MemSpace::LoadState(sim::SnapReader& r) { return r.Restore(*this); }

template <class Ar>
void IoSpace::Io(Ar& ar) {
  // The port bitmap as 1024 words, bit b of word w being port 64w + b.
  for (std::size_t word = 0; word < 1024; ++word) {
    std::uint64_t bits = 0;
    if constexpr (!Ar::kLoading) {
      for (std::size_t b = 0; b < 64; ++b) {
        bits |= static_cast<std::uint64_t>(bitmap_.test(word * 64 + b)) << b;
      }
    }
    ar.Io(bits);
    if constexpr (Ar::kLoading) {
      for (std::size_t b = 0; b < 64; ++b) {
        bitmap_.set(word * 64 + b, ((bits >> b) & 1) != 0);
      }
    }
  }
}

Status IoSpace::SaveState(sim::SnapWriter& w) const { return w.Save(*this); }
Status IoSpace::LoadState(sim::SnapReader& r) { return r.Restore(*this); }

void IoSpace::Grant(std::uint64_t port, std::uint64_t count) {
  for (std::uint64_t p = port; p < port + count && p < 65536; ++p) {
    bitmap_.set(p);
  }
}

void IoSpace::Revoke(std::uint64_t port, std::uint64_t count) {
  for (std::uint64_t p = port; p < port + count && p < 65536; ++p) {
    bitmap_.reset(p);
  }
}

}  // namespace nova::hv
