#include "src/hv/mdb.h"

#include <algorithm>

namespace nova::hv {

MdbNode* Mdb::CreateRoot(Pd* pd, CrdKind kind, std::uint64_t base,
                         std::uint64_t count, std::uint8_t perms) {
  auto node = std::make_unique<MdbNode>();
  node->pd = pd;
  node->kind = kind;
  node->base = base;
  node->count = count;
  node->perms = perms;
  MdbNode* raw = node.get();
  nodes_.push_back(std::move(node));
  return raw;
}

MdbNode* Mdb::Delegate(MdbNode* parent, Pd* pd, std::uint64_t base,
                       std::uint64_t count, std::uint8_t perms,
                       std::uint64_t src_base) {
  MdbNode* node = CreateRoot(pd, parent->kind, base, count, perms);
  node->src_base = src_base;
  node->parent = parent;
  parent->children.push_back(node);
  return node;
}

MdbNode* Mdb::Find(const Pd* pd, CrdKind kind, std::uint64_t base,
                   std::uint64_t count) {
  for (const auto& node : nodes_) {
    if (node->pd == pd && node->kind == kind && node->ContainsRange(base, count)) {
      return node.get();
    }
  }
  return nullptr;
}

void Mdb::RevokeSubtree(MdbNode* node, const UnmapFn& unmap) {
  // Depth-first: remove leaves before their parents.
  while (!node->children.empty()) {
    MdbNode* child = node->children.back();
    RevokeSubtree(child, unmap);
  }
  if (unmap) {
    unmap(*node);
  }
  Erase(node);
}

void Mdb::Erase(MdbNode* node) {
  if (node->parent != nullptr) {
    auto& siblings = node->parent->children;
    siblings.erase(std::remove(siblings.begin(), siblings.end(), node),
                   siblings.end());
  }
  for (MdbNode* child : node->children) {
    child->parent = nullptr;  // Orphaned (only during DropDomain bulk paths).
  }
  auto it = std::find_if(nodes_.begin(), nodes_.end(),
                         [node](const auto& p) { return p.get() == node; });
  if (it != nodes_.end()) {
    nodes_.erase(it);
  }
}

void Mdb::Revoke(const Pd* pd, const Crd& crd, bool include_self,
                 const UnmapFn& unmap) {
  // Collect first: revocation mutates the node list.
  std::vector<MdbNode*> hits;
  for (const auto& node : nodes_) {
    if (node->pd == pd && node->kind == crd.kind &&
        node->Overlaps(crd.base, crd.count())) {
      hits.push_back(node.get());
    }
  }
  for (MdbNode* node : hits) {
    // The node may already be gone if it was a descendant of an earlier hit.
    const bool alive = std::any_of(nodes_.begin(), nodes_.end(),
                                   [node](const auto& p) { return p.get() == node; });
    if (!alive) {
      continue;
    }
    if (include_self) {
      RevokeSubtree(node, unmap);
    } else {
      // Only children whose *source range* overlaps the revoked CRD fall;
      // siblings derived from other parts of this holding are untouched.
      for (;;) {
        MdbNode* victim = nullptr;
        for (MdbNode* child : node->children) {
          if (child->SrcOverlaps(crd.base, crd.count())) {
            victim = child;
            break;
          }
        }
        if (victim == nullptr) {
          break;
        }
        RevokeSubtree(victim, unmap);
      }
    }
  }
}


void Mdb::DropDomain(const Pd* pd, const UnmapFn& unmap) {
  for (;;) {
    MdbNode* victim = nullptr;
    for (const auto& node : nodes_) {
      if (node->pd == pd) {
        victim = node.get();
        break;
      }
    }
    if (victim == nullptr) {
      return;
    }
    RevokeSubtree(victim, unmap);
  }
}

}  // namespace nova::hv
