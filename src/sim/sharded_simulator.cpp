#include "sim/sharded_simulator.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace bcp::sim {

namespace {

/// Bounded spin before yielding: phases are short (a window of events),
/// so the first iterations usually catch the flip without a syscall; the
/// yield keeps oversubscribed machines (tests run threads > cores) live.
template <typename Pred>
void spin_until(Pred&& ready) {
  int spins = 0;
  while (!ready()) {
    if (++spins >= 256) {
      std::this_thread::yield();
      spins = 0;
    }
  }
}

}  // namespace

ShardedSimulator::ShardedSimulator(Params params) {
  BCP_REQUIRE(params.shards >= 1);
  BCP_REQUIRE(params.window > 0);
  shards_ = params.shards;
  window_ = params.window;
  int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw <= 0) hw = 1;
  threads_ = params.threads > 0 ? params.threads
                                : std::min(hw, std::max(1, shards_ / 2));
  // More workers than ceil(shards/2) can never be simultaneously busy: a
  // parity phase exposes at most that many shards.
  threads_ = std::min(threads_, (shards_ + 1) / 2);
  sims_.reserve(static_cast<std::size_t>(shards_));
  for (int s = 0; s < shards_; ++s)
    sims_.push_back(std::make_unique<Simulator>());
  drains_.resize(static_cast<std::size_t>(shards_));
  // Worker 0 is the caller; only the others get a thread.
  helpers_.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int w = 1; w < threads_; ++w)
    helpers_.emplace_back([this, w] { worker_loop(w); });
}

ShardedSimulator::~ShardedSimulator() {
  if (!helpers_.empty()) {
    Job job;
    job.kind = Job::kExit;
    done_count_.store(0, std::memory_order_relaxed);
    job_ = job;
    job_epoch_.fetch_add(1, std::memory_order_release);
    for (auto& t : helpers_) t.join();
  }
}

void ShardedSimulator::set_drain(int s, DrainHook hook) {
  BCP_REQUIRE(s >= 0 && s < shards_);
  drains_[static_cast<std::size_t>(s)] = std::move(hook);
}

void ShardedSimulator::worker_loop(int worker) {
  std::uint64_t seen = 0;
  for (;;) {
    spin_until([&] {
      return job_epoch_.load(std::memory_order_acquire) != seen;
    });
    ++seen;
    if (job_.kind == Job::kExit) return;  // dtor joins; no done signal needed
    const Job job = job_;
    try {
      execute(worker, job);
    } catch (...) {
      record_error();
    }
    done_count_.fetch_add(1, std::memory_order_release);
  }
}

void ShardedSimulator::record_error() {
  const std::lock_guard<std::mutex> lock(error_mutex_);
  if (!first_error_) first_error_ = std::current_exception();
}

void ShardedSimulator::execute(int worker, const Job& job) {
  for (int s = 0; s < shards_; ++s) {
    if (threads_ > 1 && owner_thread(s) != worker) continue;
    if (job.kind == Job::kPhase) {
      if ((s & 1) != job.parity) continue;
      auto& drain = drains_[static_cast<std::size_t>(s)];
      if (drain) drain(job.window);
      sims_[static_cast<std::size_t>(s)]->run_until(job.end);
    } else {
      (*job.fn)(s);
    }
  }
}

void ShardedSimulator::dispatch(const Job& job) {
  const auto helpers = static_cast<int>(helpers_.size());
  if (helpers > 0) {
    done_count_.store(0, std::memory_order_relaxed);
    job_ = job;
    job_epoch_.fetch_add(1, std::memory_order_release);
  }
  // Worker 0's shards run here, alongside the helpers. Its exception is
  // held like a helper's, so every worker has finished before it leaves.
  try {
    execute(0, job);
  } catch (...) {
    record_error();
  }
  if (helpers > 0) {
    spin_until([&] {
      return done_count_.load(std::memory_order_acquire) == helpers;
    });
  }
  if (first_error_) {
    std::exception_ptr err;
    {
      const std::lock_guard<std::mutex> lock(error_mutex_);
      std::swap(err, first_error_);
    }
    std::rethrow_exception(err);
  }
}

void ShardedSimulator::for_each_shard(const std::function<void(int)>& fn) {
  Job job;
  job.kind = Job::kAll;
  job.fn = &fn;
  dispatch(job);
}

void ShardedSimulator::step_window(util::Seconds end) {
  Job job;
  job.kind = Job::kPhase;
  job.window = window_index_;
  job.end = end;
  job.parity = 0;
  dispatch(job);
  job.parity = 1;
  dispatch(job);
  if (barrier_hook_) barrier_hook_(window_index_, end);
  ++window_index_;
  time_ = end;
}

void ShardedSimulator::run(util::Seconds horizon) {
  BCP_REQUIRE(horizon >= time_);
  while (time_ < horizon) {
    const util::Seconds end = std::min(
        horizon, window_ * static_cast<double>(window_index_ + 1));
    // A shard clock can only be behind the grid when a previous run()
    // ended off-grid; the max keeps run_until monotonic.
    step_window(std::max(end, time_));
  }
  // Settlement: boundary frames emitted during the last window (and the
  // reactions they trigger) still cross; a second round catches the
  // reactions' own boundary frames. Anything later stays undelivered in
  // the mailboxes, exactly like frames still on the air at the horizon.
  step_window(horizon);
  step_window(horizon);
}

std::uint64_t ShardedSimulator::total_processed() const {
  std::uint64_t total = 0;
  for (const auto& s : sims_) total += s->processed_count();
  return total;
}

}  // namespace bcp::sim
