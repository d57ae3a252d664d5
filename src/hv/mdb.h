// Mapping database: the delegation tree behind recursive revocation.
//
// Every resource grant (memory range, port range, object capability range)
// creates a node whose parent is the grant it was derived from. Revoking a
// node removes the entire subtree from all affected protection domains —
// the recursive address-space model the paper inherits from L4 (§6).
#ifndef SRC_HV_MDB_H_
#define SRC_HV_MDB_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/hv/types.h"
#include "src/sim/hash_index.h"
#include "src/sim/snapshot.h"
#include "src/sim/status.h"

namespace nova::hv {

class Pd;

struct MdbNode {
  Pd* pd = nullptr;
  CrdKind kind = CrdKind::kNull;
  std::uint64_t base = 0;   // Page / port / selector index in `pd`'s space.
  std::uint64_t count = 0;
  std::uint8_t perms = 0;
  // Index of this grant in the *parent's* space (delegation may relocate:
  // a host frame appears at a guest-physical hotspot). Used to decide
  // which children a partial revocation of the parent's range hits.
  std::uint64_t src_base = 0;
  MdbNode* parent = nullptr;
  std::vector<MdbNode*> children;

  bool Overlaps(std::uint64_t b, std::uint64_t c) const {
    return base < b + c && b < base + count;
  }
  bool SrcOverlaps(std::uint64_t b, std::uint64_t c) const {
    return src_base < b + c && b < src_base + count;
  }
  bool ContainsRange(std::uint64_t b, std::uint64_t c) const {
    return b >= base && b + c <= base + count;
  }
};

class Mdb {
 public:
  // Called for each revoked node so the kernel can unmap the resource from
  // the owning domain's space.
  using UnmapFn = std::function<void(const MdbNode&)>;

  // Record an initial (rootless) resource grant, e.g. boot-time assignment
  // of all memory to the root partition manager.
  MdbNode* CreateRoot(Pd* pd, CrdKind kind, std::uint64_t base,
                      std::uint64_t count, std::uint8_t perms);

  // Record a delegation derived from `parent`. `src_base` is where the
  // granted range sits in the parent's space.
  MdbNode* Delegate(MdbNode* parent, Pd* pd, std::uint64_t base,
                    std::uint64_t count, std::uint8_t perms,
                    std::uint64_t src_base);

  // Find a node owned by `pd` whose range contains [base, base+count).
  MdbNode* Find(const Pd* pd, CrdKind kind, std::uint64_t base,
                std::uint64_t count);

  // Revoke all nodes owned by `pd` overlapping the CRD. Children are
  // always revoked; the nodes themselves only when `include_self`.
  // `unmap` runs for every removed node.
  void Revoke(const Pd* pd, const Crd& crd, bool include_self,
              const UnmapFn& unmap);

  // Drop every node owned by `pd` (domain destruction), revoking all
  // derived delegations in other domains.
  void DropDomain(const Pd* pd, const UnmapFn& unmap);

  std::size_t node_count() const { return nodes_.size(); }

  // Snapshot field list. Nodes travel in list order (scan order is part
  // of Find's semantics, so it is restored exactly), their links as
  // indices into that list, and their owning domains through `refs` as
  // oids (hv/snapshot.cc). Loading rebuilds the whole database; nothing
  // outside Mdb holds MdbNode pointers across calls.
  template <class Ar, class Refs>
  void Io(Ar& ar, Refs& refs) {
    constexpr std::uint64_t kNone = ~0ull;
    sim::HashIndex<const MdbNode*, std::uint64_t> index;  // Lookup only.
    if constexpr (!Ar::kLoading) {
      for (std::size_t i = 0; i < nodes_.size(); ++i) {
        index[nodes_[i].get()] = i;
      }
    }
    std::vector<std::uint64_t> parents;
    std::vector<std::vector<std::uint64_t>> children;
    ar.Seq(sim::kCount64, nodes_, [&](std::unique_ptr<MdbNode>& node) {
      if constexpr (Ar::kLoading) {
        node = std::make_unique<MdbNode>();
      }
      refs.Required(ar, node->pd);
      ar.Io(node->kind, node->base, node->count, node->perms, node->src_base);
      std::uint64_t parent = kNone;
      std::vector<std::uint64_t> kids;
      if constexpr (!Ar::kLoading) {
        parent = node->parent != nullptr ? index.At(node->parent) : kNone;
        for (const MdbNode* child : node->children) {
          kids.push_back(index.At(child));
        }
      }
      ar.Io(parent);
      ar.Seq(sim::kCount32, kids);
      if constexpr (Ar::kLoading) {
        parents.push_back(parent);
        children.push_back(std::move(kids));
      }
    });
    if constexpr (Ar::kLoading) {
      const std::uint64_t n = nodes_.size();
      for (std::uint64_t i = 0; i < n && ar.ok(); ++i) {
        if (parents[i] != kNone) {
          if (parents[i] >= n) {
            ar.Fail();
            break;
          }
          nodes_[i]->parent = nodes_[parents[i]].get();
        }
        for (const std::uint64_t c : children[i]) {
          if (c >= n) {
            ar.Fail();
            break;
          }
          nodes_[i]->children.push_back(nodes_[c].get());
        }
      }
      if (!ar.ok()) {
        nodes_.clear();
      }
    }
  }

 private:
  void RevokeSubtree(MdbNode* node, const UnmapFn& unmap);
  void Erase(MdbNode* node);

  std::vector<std::unique_ptr<MdbNode>> nodes_;
};

}  // namespace nova::hv

#endif  // SRC_HV_MDB_H_
