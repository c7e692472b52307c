#include "phy/sharded_channel.hpp"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace bcp::phy {

ShardMap ShardMap::stripes(const std::vector<net::Position>& positions,
                           int shards) {
  const auto n = positions.size();
  BCP_REQUIRE(n > 0);
  BCP_REQUIRE(shards >= 1);
  ShardMap map;
  map.count = std::min<int>(shards, static_cast<int>(n));
  map.shard_of.assign(n, 0);
  if (map.count > 1) {
    // Stripe s is ranks [bound(s), bound(s + 1)) of the (x, id) order.
    // The keys are unique, so placing each boundary rank with
    // nth_element (median boundary first, then each half) yields exactly
    // the stripes a full sort would, in O(n log count).
    struct Key {
      double x;
      std::int32_t id;
    };
    const auto before = [](const Key& a, const Key& b) {
      return a.x != b.x ? a.x < b.x : a.id < b.id;
    };
    const auto bound = [&](int s) {
      return n * static_cast<std::size_t>(s) /
             static_cast<std::size_t>(map.count);
    };
    std::vector<Key> keys(n);
    for (std::size_t i = 0; i < n; ++i)
      keys[i] = Key{positions[i].x, static_cast<std::int32_t>(i)};
    const auto split = [&](const auto& self, int lo, int hi) -> void {
      if (hi - lo < 2) return;
      const int mid = lo + (hi - lo) / 2;
      const auto at = [&](int s) {
        return keys.begin() + static_cast<std::ptrdiff_t>(bound(s));
      };
      std::nth_element(at(lo), at(mid), at(hi), before);
      self(self, lo, mid);
      self(self, mid, hi);
    };
    split(split, 0, map.count);
    for (int s = 0; s < map.count; ++s)
      for (std::size_t i = bound(s); i < bound(s + 1); ++i)
        map.shard_of[static_cast<std::size_t>(keys[i].id)] =
            static_cast<std::int32_t>(s);
  }
  // Stripe-local ids: one ascending-global-id pass, so within a stripe
  // local order matches global order and owned[s] is the exact inverse.
  map.local_of.assign(n, 0);
  map.owned.resize(static_cast<std::size_t>(map.count));
  for (auto& ids : map.owned)
    ids.reserve(n / static_cast<std::size_t>(map.count) + 1);
  for (std::size_t id = 0; id < n; ++id) {
    auto& ids = map.owned[static_cast<std::size_t>(map.shard_of[id])];
    map.local_of[id] = static_cast<std::int32_t>(ids.size());
    ids.push_back(static_cast<net::NodeId>(id));
  }
  return map;
}

net::Stripe ShardMap::stripe(int shard) const {
  BCP_REQUIRE(shard >= 0 && shard < count);
  return net::Stripe{shard_of.data(), local_of.data(),
                     static_cast<std::int32_t>(shard),
                     static_cast<std::int32_t>(owned_count(shard))};
}

ShardedMedium::ShardedMedium(
    sim::ShardedSimulator& engine,
    std::shared_ptr<const net::ConnectivityGraph> graph, const ShardMap& map,
    Channel::Params params, std::uint64_t seed)
    : engine_(engine), map_(map), count_(map.count) {
  BCP_REQUIRE(count_ == engine.shard_count());
  BCP_REQUIRE(graph != nullptr &&
              graph->node_count() == static_cast<int>(map.shard_of.size()));
  mail_.resize(static_cast<std::size_t>(count_) *
               static_cast<std::size_t>(count_));
  scratch_.resize(static_cast<std::size_t>(count_));
  channels_.resize(static_cast<std::size_t>(count_));
  for (int s = 0; s < count_; ++s) {
    Channel::ShardingSpec spec;
    spec.stripe = map_.stripe(s);
    spec.shard_count = count_;
    spec.emit = [this, s](std::int32_t dst, Channel::RemoteFrame&& rf) {
      // Double-buffered by the parity of the window being executed;
      // only shard s's pinned thread writes (src, dst) buffers.
      const auto parity =
          static_cast<std::size_t>(engine_.current_window() & 1);
      mail(s, dst).buf[parity].push_back(std::move(rf));
    };
    channels_[static_cast<std::size_t>(s)] = std::make_unique<Channel>(
        engine.shard(s), graph, params,
        util::substream(seed, static_cast<std::uint64_t>(s), 0x53484152u),
        std::move(spec));
  }
}

namespace {

// Releases a just-drained buffer's slack. Boundary traffic is bursty: one
// loaded window used to pin its high-water capacity in every mailbox and
// scratch vector for the rest of the run. Keeping at most 2x the size the
// buffer actually serviced (with a small floor) frees the spike while a
// steady load never reallocates.
template <typename T>
void shrink_slack(std::vector<T>& v, std::size_t used) {
  constexpr std::size_t kKeepFloor = 16;
  if (v.capacity() <= std::max(kKeepFloor, 2 * used)) return;
  std::vector<T> fresh;
  fresh.reserve(used);
  v.swap(fresh);
}

}  // namespace

void ShardedMedium::drain(int s, std::int64_t window) {
  auto& scratch = scratch_[static_cast<std::size_t>(s)];
  scratch.clear();
  for (int src = 0; src < count_; ++src) {
    if (src == s) continue;
    // Which buffer of (src → s) is quiescent while s runs window k?
    // Even writers fill buf[k&1] during the even phase of window k; an
    // odd reader draining in the same window's odd phase takes exactly
    // that buffer (the exact-timing path — the barrier between phases
    // makes it safe). Every other direction reads the previous window's
    // buffer: the writer is either running the same phase (and writing
    // buf[k&1]) or ran after the reader's parity last window — both
    // leave buf[(k-1)&1] untouched this phase. Each buffer is drained
    // exactly one window after it is filled, before its writer cycles
    // back to it.
    const std::int64_t w =
        (src % 2 == 0 && s % 2 == 1) ? window : window - 1;
    auto& buf = mail(src, s).buf[static_cast<std::size_t>(w & 1)];
    const std::size_t used = buf.size();
    for (auto& rf : buf) scratch.push_back(Tagged{std::move(rf), src});
    buf.clear();
    // Reader-side shrink is safe: this buffer's writer does not touch it
    // again until the next window's opposite phase.
    shrink_slack(buf, used);
  }
  if (scratch.empty()) {
    shrink_slack(scratch, 0);
    return;
  }
  // Canonical merge order: frames from one source shard are already in
  // emission (time) order; a stable sort by (start, source shard) makes
  // the injection sequence independent of mailbox iteration details.
  std::stable_sort(scratch.begin(), scratch.end(),
                   [](const Tagged& a, const Tagged& b) {
                     if (a.rf.start != b.rf.start)
                       return a.rf.start < b.rf.start;
                     return a.src_shard < b.src_shard;
                   });
  Channel& channel = shard(s);
  const std::size_t used = scratch.size();
  for (auto& t : scratch) channel.inject_remote(std::move(t.rf));
  scratch.clear();
  shrink_slack(scratch, used);
}

void ShardedMedium::reset_shard(int s) {
  channels_[static_cast<std::size_t>(s)].reset();
}

Channel::Stats ShardedMedium::total_stats() const {
  Channel::Stats total;
  for (const auto& c : channels_) {
    if (c == nullptr) continue;
    total.frames += c->stats().frames;
    total.rx_starts += c->stats().rx_starts;
    total.deliveries_clean += c->stats().deliveries_clean;
    total.deliveries_corrupt += c->stats().deliveries_corrupt;
  }
  return total;
}

std::int64_t ShardedMedium::total_live_arrivals() const {
  std::int64_t total = 0;
  for (const auto& c : channels_)
    if (c != nullptr) total += c->live_arrivals();
  return total;
}

std::int64_t ShardedMedium::boundary_exports() const {
  std::int64_t total = 0;
  for (const auto& c : channels_)
    if (c != nullptr) total += c->boundary_exports();
  return total;
}

}  // namespace bcp::phy
