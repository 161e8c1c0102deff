#include "rtree/mem_rtree3d.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <iterator>

#include "exec/parallel_for.h"
#include "rtree/rtree3d.h"
#include "rtree/str_bulk_load.h"

namespace hermes::rtree {

MemRTreeNode* MemRTree3D::AllocNode() {
  if ((num_nodes_ & kNodeMask) == 0) {
    blocks_.push_back(std::make_unique<NodeBlock>());
  }
  MemRTreeNode* node =
      &(*blocks_[num_nodes_ >> kNodesPerBlockShift])[num_nodes_ & kNodeMask];
  ++num_nodes_;
  return node;
}

std::unique_ptr<MemRTree3D> MemRTree3D::BulkLoad(
    std::vector<std::pair<geom::Mbb3D, uint64_t>> items, double fill_factor,
    exec::ExecContext* ctx) {
  auto tree = std::unique_ptr<MemRTree3D>(new MemRTree3D());
  tree->num_entries_ = items.size();
  if (items.empty()) return tree;

  // Same per-node occupancy rule as the Gist bulk load: a fill-factor
  // fraction of the fanout, never below 2.
  const size_t per_node = std::max<size_t>(
      2, static_cast<size_t>(static_cast<double>(MemRTreeNode::kFanout) *
                             fill_factor));

  // Pack the leaf level from the STR run, then parent levels bottom-up
  // until one node remains. Sequential by design: the ordering is already
  // thread-count independent, and packing is a linear sweep. A level entry
  // is (box, leaf datum) at level 0 and (cover, child ordinal) above.
  std::vector<std::pair<geom::Mbb3D, uint64_t>> level =
      StrOrder(std::move(items), per_node, ctx);

  bool is_leaf = true;
  std::vector<std::pair<geom::Mbb3D, uint64_t>> next;
  while (true) {
    next.clear();
    next.reserve((level.size() + per_node - 1) / per_node);
    for (size_t i = 0; i < level.size(); i += per_node) {
      const size_t end = std::min(i + per_node, level.size());
      const size_t ordinal = tree->num_nodes_;
      MemRTreeNode* node = tree->AllocNode();
      node->is_leaf = is_leaf;
      node->count = static_cast<uint16_t>(end - i);
      geom::Mbb3D cover;
      for (size_t j = i; j < end; ++j) {
        node->bounds[j - i] = level[j].first;
        node->child[j - i] = level[j].second;
        cover.Extend(level[j].first);
      }
      next.push_back({cover, ordinal});
    }
    ++tree->height_;
    if (next.size() == 1) {
      tree->root_ = next[0].second;
      break;
    }
    level.swap(next);
    is_leaf = false;
  }
  return tree;
}

void MemRTree3D::SearchInto(const geom::Mbb3D& box, QueryMode mode,
                            std::vector<uint64_t>* out) const {
  out->clear();
  if (num_nodes_ == 0) return;

  // Internal keys may only prune: every predicate needs intersection —
  // except kContains, which needs the subtree box to cover the query.
  // Mirrors RTreeOpClass::Consistent so hot and cold probes agree.
  auto internal_consistent = [&](const geom::Mbb3D& b) {
    if (mode == QueryMode::kContains) return b.Contains(box);
    return b.Intersects(box);
  };
  auto leaf_consistent = [&](const geom::Mbb3D& b) {
    switch (mode) {
      case QueryMode::kIntersects:
        return b.Intersects(box);
      case QueryMode::kContainedBy:
        return box.Contains(b);
      case QueryMode::kContains:
        return b.Contains(box);
    }
    return false;
  };

  // Iterative DFS. Popping a node frees one slot and pushes at most
  // kFanout children, once per internal level, so worst-case occupancy
  // is 1 + (height - 1) * (kFanout - 1). An inline buffer covers trees
  // up to height 5; deeper ones (> ~500k entries at the default fill
  // factor) spill the stack to the heap.
  size_t inline_buf[64];
  std::vector<size_t> heap_buf;
  size_t* stack_buf = inline_buf;
  const size_t capacity =
      1 + static_cast<size_t>(height_ > 0 ? height_ - 1 : 0) *
              (MemRTreeNode::kFanout - 1);
  if (capacity > std::size(inline_buf)) {
    heap_buf.resize(capacity);
    stack_buf = heap_buf.data();
  }
  size_t depth = 0;
  stack_buf[depth++] = root_;
  while (depth > 0) {
    const MemRTreeNode& node = NodeAt(stack_buf[--depth]);
    for (size_t i = 0; i < node.count; ++i) {
      if (node.is_leaf) {
        if (leaf_consistent(node.bounds[i])) out->push_back(node.child[i]);
      } else if (internal_consistent(node.bounds[i])) {
        assert(depth < capacity);
        stack_buf[depth++] = node.child[i];
      }
    }
  }
}

size_t MemRTree3D::bytes() const {
  return blocks_.size() * sizeof(NodeBlock) +
         blocks_.capacity() * sizeof(blocks_[0]) + sizeof(*this);
}

uint64_t MemRTree3D::Fingerprint() const {
  uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis.
  auto mix = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (b * 8)) & 0xFF;
      h *= 1099511628211ull;
    }
  };
  auto mix_double = [&](double d) {
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  };
  mix(num_nodes_);
  mix(num_entries_);
  mix(root_);
  mix(height_);
  for (size_t n = 0; n < num_nodes_; ++n) {
    const MemRTreeNode& node = NodeAt(n);
    mix(node.is_leaf ? 1 : 0);
    mix(node.count);
    for (size_t i = 0; i < node.count; ++i) {
      const geom::Mbb3D& b = node.bounds[i];
      mix_double(b.min_x);
      mix_double(b.min_y);
      mix_double(b.min_t);
      mix_double(b.max_x);
      mix_double(b.max_y);
      mix_double(b.max_t);
      mix(node.child[i]);
    }
  }
  return h;
}

Status MemRTree3D::Validate() const {
  if (num_nodes_ == 0) {
    if (num_entries_ != 0 || height_ != 0) {
      return Status::Corruption("empty mem rtree with entries/height");
    }
    return Status::OK();
  }
  size_t entries = 0;
  Status status = Status::OK();
  // (ordinal, depth) DFS; all leaves must sit at depth height_ - 1.
  std::vector<std::pair<size_t, uint32_t>> stack{{root_, 0}};
  std::vector<bool> seen(num_nodes_, false);
  while (!stack.empty() && status.ok()) {
    auto [ordinal, d] = stack.back();
    stack.pop_back();
    if (ordinal >= num_nodes_) {
      return Status::Corruption("child ordinal out of range");
    }
    if (seen[ordinal]) return Status::Corruption("node reachable twice");
    seen[ordinal] = true;
    const MemRTreeNode& node = NodeAt(ordinal);
    if (node.count == 0 || node.count > MemRTreeNode::kFanout) {
      return Status::Corruption("node entry count out of range");
    }
    if (node.is_leaf) {
      if (d + 1 != height_) return Status::Corruption("leaf at wrong depth");
      entries += node.count;
      continue;
    }
    for (size_t i = 0; i < node.count; ++i) {
      const size_t child = node.child[i];
      if (child >= num_nodes_) {
        return Status::Corruption("child ordinal out of range");
      }
      const MemRTreeNode& c = NodeAt(child);
      geom::Mbb3D cover;
      for (size_t j = 0; j < c.count; ++j) cover.Extend(c.bounds[j]);
      if (!node.bounds[i].Contains(cover)) {
        return Status::Corruption("parent box does not cover child union");
      }
      stack.push_back({child, d + 1});
    }
  }
  if (entries != num_entries_) {
    return Status::Corruption("entry count mismatch");
  }
  return status;
}

std::unique_ptr<MemRTree3D> BuildMemSegmentIndex(
    const traj::SegmentArena& arena, double fill_factor,
    exec::ExecContext* ctx) {
  std::vector<std::pair<geom::Mbb3D, uint64_t>> items(arena.num_segments());
  // Row order is the arena's append order — a pure function of the store
  // content — and every row writes its own pre-sized slot, so the item
  // list is identical at any thread count.
  exec::ParallelFor(ctx, arena.num_segments(), /*grain=*/1024,
                    [&](size_t begin, size_t end, size_t /*chunk*/) {
                      for (size_t r = begin; r < end; ++r) {
                        items[r] = {arena.BoundsOf(r),
                                    PackSegmentRef(arena.RefOf(r))};
                      }
                    });
  return MemRTree3D::BulkLoad(std::move(items), fill_factor, ctx);
}

}  // namespace hermes::rtree
