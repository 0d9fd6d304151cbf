#include "sink/scoped_verify.h"

#include <algorithm>

#include "sink/batch_plan.h"

namespace pnm::sink {

void RingShells::start(const net::Topology& topo, NodeId anchor) {
  topo_ = &topo;
  first_ = true;
  prev_.clear();
  cur_.assign(1, anchor);
}

std::span<const NodeId> RingShells::next() {
  next_.clear();
  for (NodeId v : cur_) {
    for (NodeId u : topo_->neighbors(v)) {
      if (!std::binary_search(cur_.begin(), cur_.end(), u) &&
          !std::binary_search(prev_.begin(), prev_.end(), u)) {
        next_.push_back(u);
      }
    }
  }
  std::sort(next_.begin(), next_.end());
  next_.erase(std::unique(next_.begin(), next_.end()), next_.end());
  if (first_) {  // ring 1 also holds the anchor itself
    next_.insert(std::lower_bound(next_.begin(), next_.end(), cur_.front()), cur_.front());
    first_ = false;
  }
  prev_.swap(cur_);
  cur_.swap(next_);
  return cur_;
}

namespace {

/// Home slot of a memo key. Nodes 4k..4k+3 of one report share a group of
/// four slots (one cache line of entries): a ring search probes
/// neighboring ids, so its lookups mostly land on lines already touched.
std::size_t home(std::uint64_t key) {
  return static_cast<std::size_t>(((key >> 2) * 0x9e3779b97f4a7c15ULL) >> 32) * 4 + (key & 3);
}

}  // namespace

void AnonMemo::reset(std::size_t anon_len) {
  anon_len_ = anon_len;
  count_ = 0;
  if (index_.size() > kRetainedSlots) {
    // A call that probed whole components (alien IDs on a large network)
    // does not pin its peak footprint in a long-lived thread's memo.
    index_ = {};
    values_ = {};
  }
  if (++gen_ == 0) {  // stamp wrapped: clear for real once every 2^32 resets
    std::fill(index_.begin(), index_.end(), Entry{});
    gen_ = 1;
  }
}

std::uint32_t AnonMemo::probe(std::uint32_t report, NodeId node, bool* fresh) {
  if ((count_ + 1) * 2 > index_.size()) grow();
  const std::uint64_t key = (std::uint64_t{report} << 16) | node;
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = home(key);; ++i) {
    Entry& e = index_[i & mask];
    if (e.gen == gen_ && e.key == key) {
      *fresh = false;
      return e.slot;
    }
    if (e.gen != gen_) {
      e = {key, gen_, count_};
      if (values_.size() < (count_ + 1) * anon_len_)
        values_.resize(std::max<std::size_t>(64, 2 * values_.size()) + anon_len_);
      *fresh = true;
      return count_++;
    }
  }
}

void AnonMemo::grow() {
  std::vector<Entry> old = std::move(index_);
  index_.assign(std::max<std::size_t>(64, 2 * old.size()), Entry{});
  const std::size_t mask = index_.size() - 1;
  for (const Entry& e : old) {
    if (e.gen != gen_) continue;
    std::size_t i = home(e.key);
    while (index_[i & mask].gen == gen_) ++i;
    index_[i & mask] = e;
  }
}

marking::VerifyResult scoped_verify_pnm(const net::Packet& p,
                                        const crypto::KeyStore& keys,
                                        const net::Topology& topo,
                                        const marking::SchemeConfig& cfg,
                                        ScopedVerifyStats* stats,
                                        util::Counters* counters) {
  marking::VerifyResult out;
  plan_verify_scoped(cfg, keys, topo, std::span<const net::Packet>(&p, 1), &out,
                     counters ? *counters : util::Counters::global(), nullptr, stats);
  return out;
}

}  // namespace pnm::sink
