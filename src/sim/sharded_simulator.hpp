// Spatially-sharded parallel event engine: one simulation, many queues.
//
// The single-queue Simulator dispatches ~3.6M events/s on one core and
// that is the ceiling for a *run* — sweep-level parallelism (one Simulator
// per worker, app/sweep.hpp) cannot make one 100k-node network go faster.
// ShardedSimulator splits a run into N shards, each with its own Simulator
// (event queue + clock) pinned to a worker thread, and advances them in
// bounded time windows of W seconds.
//
// Why windows and not classic conservative PDES lookahead: the phy layer
// models zero propagation delay (channel.hpp — sub-microsecond at the
// simulated scales), so the natural lookahead between spatial shards is
// zero and exact conservative synchronization degenerates to lockstep.
// Instead the engine runs a *parity-phased* window protocol over spatial
// stripes (phy::ShardMap numbers stripes left to right, so adjacent
// stripes have opposite parity):
//
//   window k:  [barrier]  even shards run [kW, (k+1)W)
//              [barrier]  odd  shards run the same interval
//              [barrier]
//
// Cross-shard traffic travels through mailboxes drained at the start of
// each shard's phase (set_drain). Because odd shards run *after* even
// shards within a window, a frame emitted by an even shard reaches an
// adjacent odd shard with its exact original timing (the odd shard's
// clock is still at kW when it drains); every other direction is replayed
// late by less than W (the channel clamps and re-times late arrivals —
// see phy::Channel::inject_remote). The relaxation is the documented
// price of parallelism: results are exactly reproducible but not
// identical to the single-queue engine's global event interleaving.
//
// Determinism contract: at a fixed shard count, each shard's execution is
// a pure function of (configuration, shard count) — per-shard RNG
// substreams, deterministic drain order (mailboxes merged by (start time,
// source shard)), and a FIFO tie-break inside each queue. The worker
// thread count only changes which OS thread runs a shard, never what the
// shard computes, so metrics and BENCH_*.json output are byte-identical
// across thread counts. The suite's sharded determinism test pins this.
//
// Threading model: shard s is pinned to worker (s/2) % threads (the /2
// keeps each worker loaded in both parity phases). Worker 0 is the
// calling thread itself: the engine spawns threads - 1 helper threads for
// workers 1.., and each dispatch runs worker 0's shards on the caller
// while the helpers run theirs, so `threads` workers occupy exactly
// `threads` cores. All shard state — nodes, channels, pooled message
// payloads (net::MessagePool is thread-local) — must be created, used,
// and destroyed on its worker: run setup and teardown through
// for_each_shard, which executes a callback for every shard on its pinned
// thread. threads == 1 runs everything on the caller's thread in
// ascending shard order.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/simulator.hpp"
#include "util/units.hpp"

namespace bcp::sim {

class ShardedSimulator {
 public:
  struct Params {
    int shards = 2;
    /// Worker threads; 0 = auto (half the shard count, capped at the
    /// hardware), 1 = run every shard inline on the calling thread.
    /// Clamped to ceil(shards/2) — parity phases can never keep more
    /// workers busy than that.
    int threads = 0;
    /// Exchange window W. Smaller = tighter cross-shard timing bound,
    /// more barrier crossings per simulated second.
    util::Seconds window = 0.02;
  };

  explicit ShardedSimulator(Params params);
  ~ShardedSimulator();
  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  int shard_count() const { return shards_; }
  util::Seconds window() const { return window_; }
  /// Worker a shard is pinned to (0 when running inline).
  int owner_thread(int s) const {
    return threads_ > 1 ? (s / 2) % threads_ : 0;
  }

  Simulator& shard(int s) { return *sims_[static_cast<std::size_t>(s)]; }
  const Simulator& shard(int s) const {
    return *sims_[static_cast<std::size_t>(s)];
  }

  /// Index of the window currently (or next) being executed. Stable for
  /// the whole window — both parity phases see the same value — so
  /// mailbox writers may key double-buffering off its parity.
  std::int64_t current_window() const { return window_index_; }

  /// Per-shard pre-phase hook: runs on the shard's pinned thread at the
  /// start of each of its phases, before events are dispatched, with the
  /// window index about to run. This is where cross-shard mailboxes are
  /// drained into the shard's channels.
  using DrainHook = std::function<void(std::int64_t window)>;
  void set_drain(int s, DrainHook hook);

  /// Coordinator barrier hook: runs on the calling thread after both
  /// parity phases of a window have finished and before the next window
  /// starts, with the just-completed window index and the barrier time
  /// every shard has reached. Helper threads are quiescent here (spinning
  /// on the job epoch), and the dispatch acquire/release pairs order all shard
  /// writes before the hook and all hook writes before the next phase —
  /// so the hook may read and mutate any shard state without extra
  /// synchronization. This is where membership epochs (fault/churn and
  /// battery-death deltas) are published to every shard's LinkState
  /// replica. Also fires after each settlement round at the horizon.
  using BarrierHook = std::function<void(std::int64_t window, util::Seconds barrier_time)>;
  void set_barrier_hook(BarrierHook hook) { barrier_hook_ = std::move(hook); }

  /// Runs fn(shard) for every shard on its pinned worker thread,
  /// concurrently across workers; returns when all shards are done. The
  /// first exception thrown by any shard (the caller's own included) is
  /// rethrown here, once every worker has finished.
  void for_each_shard(const std::function<void(int shard)>& fn);

  /// Advances every shard to `horizon` window by window, then runs two
  /// settlement rounds at the horizon so boundary frames emitted in the
  /// final windows are still delivered for end-of-run accounting.
  void run(util::Seconds horizon);

  /// Sum of per-shard dispatched event counts.
  std::uint64_t total_processed() const;

 private:
  struct Job {
    enum Kind { kPhase, kAll, kExit };
    Kind kind = kAll;
    int parity = 0;
    std::int64_t window = 0;
    util::Seconds end = 0;
    const std::function<void(int)>* fn = nullptr;
  };

  void worker_loop(int worker);
  void execute(int worker, const Job& job);
  /// Publishes `job` to the helper threads, runs worker 0's part of it on
  /// the caller, then blocks until every helper has finished.
  void dispatch(const Job& job);
  void step_window(util::Seconds end);
  void record_error();

  int shards_ = 0;
  int threads_ = 0;
  util::Seconds window_ = 0;
  std::int64_t window_index_ = 0;
  util::Seconds time_ = 0;  ///< barrier time all shards have reached
  std::vector<std::unique_ptr<Simulator>> sims_;
  std::vector<DrainHook> drains_;
  BarrierHook barrier_hook_;

  // Worker rendezvous: the caller publishes job_ then release-bumps
  // job_epoch_; each helper acquire-spins on the epoch, runs its shards,
  // and release-bumps done_count_. The acquire/release pairs order every
  // plain field (job_, window_index_, all shard state) across the
  // barrier. Helpers are only ever spinning or working between dispatch
  // calls, so the caller may freely mutate shared state in between.
  std::vector<std::thread> helpers_;  ///< workers 1 .. threads - 1
  Job job_;
  std::atomic<std::uint64_t> job_epoch_{0};
  std::atomic<int> done_count_{0};
  std::mutex error_mutex_;
  std::exception_ptr first_error_;
};

}  // namespace bcp::sim
