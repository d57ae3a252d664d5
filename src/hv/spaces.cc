#include "src/hv/spaces.h"

#include <algorithm>
#include <iterator>

namespace nova::hv {
namespace {

std::uint64_t PteFlags(std::uint8_t perms) {
  std::uint64_t flags = hw::pte::kUser;
  if ((perms & perm::kWrite) != 0) {
    flags |= hw::pte::kWritable;
  }
  return flags;
}

// Whether `run` at `first` carries on where `prev` ends: the next page,
// the next host frame, the same perms and the same page size.
bool Continues(const std::pair<const std::uint64_t, MemSpace::Run>& prev,
               std::uint64_t first, const MemSpace::Run& run) {
  const MemSpace::Run& p = prev.second;
  return prev.first + p.count == first && p.hpa_page + p.count == run.hpa_page &&
         p.perms == run.perms && p.large == run.large;
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
  if (count != 0) {
    Cut(page, page + count);
    Place(page, Run{count, hpa_page, perms, large});
  }
  return Status::kSuccess;
}

Status MemSpace::Unmap(std::uint64_t page, std::uint64_t count) {
  const std::uint64_t large_pages =
      hw::LargePageSize(table_.mode()) / hw::kPageSize;
  const std::uint64_t end = page + count;
  std::uint64_t pos = page;
  while (pos < end) {
    // The run holding `pos`, or else the first run after it.
    auto it = RunHolding(pos);
    if (it == runs_.end()) {
      it = runs_.upper_bound(pos);
    }
    if (it == runs_.end() || it->first >= end) {
      break;
    }
    const std::uint64_t first_held = std::max(pos, it->first);
    if (it->second.large) {
      // Revoking any part of a superpage drops the whole superpage.
      const std::uint64_t base = first_held & ~(large_pages - 1);
      (void)table_.Unmap(base << hw::kPageShift);
      Cut(base, base + large_pages);
      pos = base + large_pages;
    } else {
      const std::uint64_t stop = std::min(end, it->first + it->second.count);
      for (std::uint64_t p = first_held; p < stop; ++p) {
        (void)table_.Unmap(p << hw::kPageShift);
      }
      Cut(first_held, stop);
      pos = stop;
    }
  }
  return Status::kSuccess;
}

void MemSpace::Cut(std::uint64_t lo, std::uint64_t hi) {
  auto it = runs_.lower_bound(lo);
  if (it != runs_.begin()) {
    auto prev = std::prev(it);
    const std::uint64_t prev_end = prev->first + prev->second.count;
    if (prev_end > lo) {
      prev->second.count = lo - prev->first;
      if (prev_end > hi) {
        runs_.emplace_hint(it, hi,
                           Run{prev_end - hi, prev->second.hpa_page + (hi - prev->first),
                               prev->second.perms, prev->second.large});
        return;
      }
    }
  }
  while (it != runs_.end() && it->first < hi) {
    const std::uint64_t run_end = it->first + it->second.count;
    if (run_end > hi) {
      const Run tail{run_end - hi, it->second.hpa_page + (hi - it->first),
                     it->second.perms, it->second.large};
      runs_.emplace_hint(runs_.erase(it), hi, tail);
      return;
    }
    it = runs_.erase(it);
  }
}

void MemSpace::Place(std::uint64_t first, const Run& run) {
  auto next = runs_.lower_bound(first);
  auto it = next;
  if (next != runs_.begin() && Continues(*std::prev(next), first, run)) {
    it = std::prev(next);
    it->second.count += run.count;
  } else {
    it = runs_.emplace_hint(next, first, run);
  }
  if (next != runs_.end() && Continues(*it, next->first, next->second)) {
    it->second.count += next->second.count;
    runs_.erase(next);
  }
}

MemSpace::Runs::const_iterator MemSpace::RunHolding(std::uint64_t page) const {
  auto it = runs_.upper_bound(page);
  if (it == runs_.begin() || page >= std::prev(it)->first + std::prev(it)->second.count) {
    return runs_.end();
  }
  return std::prev(it);
}

std::uint8_t MemSpace::PermsFor(std::uint64_t page) const {
  const auto it = RunHolding(page);
  return it == runs_.end() ? 0 : it->second.perms;
}

std::uint64_t MemSpace::HpaPageFor(std::uint64_t page) const {
  const auto it = RunHolding(page);
  return it == runs_.end() ? ~0ull : it->second.hpa_page + (page - it->first);
}

// The bytes `Keyed` writes for a map of pages: a count64, then per page
// in ascending order its number, host frame, perms and `large`. Loading
// takes the pages the way PhysMem takes frames: each must strictly ascend.
template <class Ar>
void MemSpace::Io(Ar& ar) {
  std::uint64_t count = 0;
  if constexpr (!Ar::kLoading) {
    for (const auto& [first, run] : runs_) {
      count += run.count;
    }
  }
  ar.Io(count);
  if constexpr (Ar::kLoading) {
    runs_.clear();
    // Every page takes 18 bytes, so a forged count runs the reader dry and
    // fails within the section's length.
    std::uint64_t prev = 0;
    for (std::uint64_t i = 0; i < count && ar.ok(); ++i) {
      std::uint64_t page = 0;
      Run run{1, 0, 0, false};
      ar.Io(page, run.hpa_page, run.perms, run.large);
      if (!ar.ok()) {
        return;
      }
      if (i != 0 && page <= prev) {
        ar.Fail(Status::kBadParameter);
        return;
      }
      Place(page, run);
      prev = page;
    }
  } else {
    for (const auto& [first, run] : runs_) {
      for (std::uint64_t i = 0; i < run.count; ++i) {
        std::uint64_t page = first + i;
        std::uint64_t hpa_page = run.hpa_page + i;
        ar.Io(page, hpa_page, run.perms, run.large);
      }
    }
  }
}

Status MemSpace::SaveState(sim::SnapWriter& w) const { return w.Save(*this); }
Status MemSpace::LoadState(sim::SnapReader& r) { return r.Restore(*this); }

template <class Ar>
void IoSpace::Io(Ar& ar) {
  ar.Io(ports_.words);
}

Status IoSpace::SaveState(sim::SnapWriter& w) const { return w.Save(*this); }
Status IoSpace::LoadState(sim::SnapReader& r) { return r.Restore(*this); }

void IoSpace::Grant(std::uint64_t port, std::uint64_t count) {
  for (std::uint64_t p = port; p < port + count && p < 65536; ++p) {
    ports_.words[p / 64] |= 1ull << (p % 64);
  }
}

void IoSpace::Revoke(std::uint64_t port, std::uint64_t count) {
  for (std::uint64_t p = port; p < port + count && p < 65536; ++p) {
    ports_.words[p / 64] &= ~(1ull << (p % 64));
  }
}

}  // namespace nova::hv
