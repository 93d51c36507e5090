#include "core/calibrator.h"

#include <algorithm>
#include <sstream>

#include "util/check.h"

namespace dsf {

Calibrator::Calibrator(int64_t num_pages) : num_pages_(num_pages) {
  DSF_CHECK(num_pages >= 1) << "calibrator needs at least one page";
  nodes_.reserve(static_cast<size_t>(2 * num_pages - 1));
  leaf_of_page_.assign(static_cast<size_t>(num_pages), kNoNode);
  Build(1, num_pages, kNoNode, 0);
}

int Calibrator::Build(Address lo, Address hi, int parent, int64_t depth) {
  const int id = static_cast<int>(nodes_.size());
  nodes_.push_back(Node{});
  Node& n = nodes_.back();
  n.lo = lo;
  n.hi = hi;
  n.parent = parent;
  n.depth = depth;
  if (lo == hi) {
    leaf_of_page_[static_cast<size_t>(lo - 1)] = id;
    return id;
  }
  const Address mid = (lo + hi) / 2;
  const int left = Build(lo, mid, id, depth + 1);
  const int right = Build(mid + 1, hi, id, depth + 1);
  nodes_[id].left = left;
  nodes_[id].right = right;
  return id;
}

bool Calibrator::IsRightChild(int v) const {
  const int parent = nodes_[v].parent;
  DSF_CHECK(parent != kNoNode) << "IsRightChild called on root";
  return nodes_[parent].right == v;
}

int Calibrator::LeafOf(Address page) const {
  DSF_CHECK(page >= 1 && page <= num_pages_) << "LeafOf page " << page;
  return leaf_of_page_[static_cast<size_t>(page - 1)];
}

int Calibrator::LowestCommonAncestor(Address a, Address b) const {
  DSF_CHECK(a >= 1 && a <= num_pages_ && b >= 1 && b <= num_pages_)
      << "LCA addresses out of range";
  int v = root();
  for (;;) {
    const Node& n = nodes_[v];
    if (n.left == kNoNode) return v;
    const Address mid = nodes_[n.left].hi;
    if (a <= mid && b <= mid) {
      v = n.left;
    } else if (a > mid && b > mid) {
      v = n.right;
    } else {
      return v;
    }
  }
}

void Calibrator::SyncLeaf(Address page, int64_t count, Key min_key,
                          Key max_key) {
  DSF_CHECK(count >= 0) << "negative leaf count";
  int v = LeafOf(page);
  Node& leaf = nodes_[v];
  leaf.count = count;
  leaf.min_key = min_key;
  leaf.max_key = max_key;
  for (int p = leaf.parent; p != kNoNode; p = nodes_[p].parent) {
    Reaggregate(p);
  }
}

void Calibrator::SyncLeaves(Address first,
                            const std::vector<LeafUpdate>& updates) {
  if (updates.empty()) return;
  const Address last = first + static_cast<Address>(updates.size()) - 1;
  DSF_CHECK(first >= 1 && last <= num_pages_)
      << "SyncLeaves range [" << first << "," << last << "] out of bounds";
  for (size_t i = 0; i < updates.size(); ++i) {
    const LeafUpdate& u = updates[i];
    DSF_CHECK(u.count >= 0) << "negative leaf count";
    Node& leaf = nodes_[LeafOf(first + static_cast<Address>(i))];
    leaf.count = u.count;
    leaf.min_key = u.min_key;
    leaf.max_key = u.max_key;
  }
  ReaggregateRange(root(), first, last);
}

void Calibrator::ReaggregateRange(int v, Address lo, Address hi) {
  const Node& n = nodes_[v];
  if (n.hi < lo || n.lo > hi || n.left == kNoNode) return;
  ReaggregateRange(n.left, lo, hi);
  ReaggregateRange(n.right, lo, hi);
  Reaggregate(v);
}

void Calibrator::Reaggregate(int v) {
  Node& n = nodes_[v];
  const Node& l = nodes_[n.left];
  const Node& r = nodes_[n.right];
  n.count = l.count + r.count;
  if (l.count > 0 && r.count > 0) {
    n.min_key = l.min_key;
    n.max_key = r.max_key;
  } else if (l.count > 0) {
    n.min_key = l.min_key;
    n.max_key = l.max_key;
  } else if (r.count > 0) {
    n.min_key = r.min_key;
    n.max_key = r.max_key;
  } else {
    n.min_key = 0;
    n.max_key = 0;
  }
}

Address Calibrator::FirstNonEmptyPageWithMaxGE(Key key) const {
  int v = root();
  if (nodes_[v].count == 0 || nodes_[v].max_key < key) return 0;
  while (nodes_[v].left != kNoNode) {
    const Node& l = nodes_[nodes_[v].left];
    if (l.count > 0 && l.max_key >= key) {
      v = nodes_[v].left;
    } else {
      v = nodes_[v].right;
    }
  }
  return nodes_[v].lo;
}

Address Calibrator::FirstNonEmptyPageIn(Address lo, Address hi) const {
  if (lo > hi) return 0;
  return FirstNonEmptyIn(root(), std::max<Address>(lo, 1),
                         std::min(hi, num_pages_));
}

Address Calibrator::LastNonEmptyPageIn(Address lo, Address hi) const {
  if (lo > hi) return 0;
  return LastNonEmptyIn(root(), std::max<Address>(lo, 1),
                        std::min(hi, num_pages_));
}

Address Calibrator::FirstNonEmptyIn(int v, Address lo, Address hi) const {
  const Node& n = nodes_[v];
  if (n.count == 0 || n.hi < lo || n.lo > hi) return 0;
  if (n.left == kNoNode) return n.lo;
  const Address in_left = FirstNonEmptyIn(n.left, lo, hi);
  if (in_left != 0) return in_left;
  return FirstNonEmptyIn(n.right, lo, hi);
}

Address Calibrator::LastNonEmptyIn(int v, Address lo, Address hi) const {
  const Node& n = nodes_[v];
  if (n.count == 0 || n.hi < lo || n.lo > hi) return 0;
  if (n.left == kNoNode) return n.lo;
  const Address in_right = LastNonEmptyIn(n.right, lo, hi);
  if (in_right != 0) return in_right;
  return LastNonEmptyIn(n.left, lo, hi);
}

int64_t Calibrator::CountInRange(Address lo, Address hi) const {
  if (lo > hi) return 0;
  return CountIn(root(), std::max<Address>(lo, 1), std::min(hi, num_pages_));
}

int64_t Calibrator::CountIn(int v, Address lo, Address hi) const {
  const Node& n = nodes_[v];
  if (n.count == 0 || n.hi < lo || n.lo > hi) return 0;
  if (lo <= n.lo && n.hi <= hi) return n.count;
  return CountIn(n.left, lo, hi) + CountIn(n.right, lo, hi);
}

std::vector<int> Calibrator::PathToLeaf(Address page) const {
  DSF_CHECK(page >= 1 && page <= num_pages_) << "PathToLeaf page " << page;
  // The leaf's depth sizes the path; parent links fill it leaf first.
  int v = leaf_of_page_[static_cast<size_t>(page - 1)];
  std::vector<int> path(static_cast<size_t>(nodes_[v].depth) + 1);
  for (size_t i = path.size(); i-- > 0; v = nodes_[v].parent) path[i] = v;
  return path;
}

Status Calibrator::ValidateAggregates() const {
  for (int v = 0; v < node_count(); ++v) {
    const Node& n = nodes_[v];
    if (n.left == kNoNode) continue;
    const Node& l = nodes_[n.left];
    const Node& r = nodes_[n.right];
    if (n.count != l.count + r.count) {
      return Status::Corruption("rank counter mismatch at node " +
                                std::to_string(v));
    }
    Key expect_min = 0;
    Key expect_max = 0;
    if (l.count > 0 && r.count > 0) {
      expect_min = l.min_key;
      expect_max = r.max_key;
    } else if (l.count > 0) {
      expect_min = l.min_key;
      expect_max = l.max_key;
    } else if (r.count > 0) {
      expect_min = r.min_key;
      expect_max = r.max_key;
    }
    if (n.count > 0 && (n.min_key != expect_min || n.max_key != expect_max)) {
      return Status::Corruption("fence key mismatch at node " +
                                std::to_string(v));
    }
  }
  return Status::OK();
}

std::string Calibrator::DebugString() const {
  std::ostringstream os;
  for (int v = 0; v < node_count(); ++v) {
    const Node& n = nodes_[v];
    os << "node " << v << " depth=" << n.depth << " range=[" << n.lo << ","
       << n.hi << "] N=" << n.count;
    if (n.count > 0) os << " keys=[" << n.min_key << "," << n.max_key << "]";
    os << "\n";
  }
  return os.str();
}

}  // namespace dsf
