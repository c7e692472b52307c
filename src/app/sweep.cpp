#include "app/sweep.hpp"

#include <atomic>
#include <cmath>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "util/assert.hpp"

namespace bcp::app {

double SweepPoint::get(const std::string& name) const {
  for (const auto& [n, v] : params_)
    if (n == name) return v;
  BCP_REQUIRE_MSG(false, "no such sweep axis: " + name);
  throw std::logic_error("unreachable");
}

int SweepPoint::get_int(const std::string& name) const {
  return static_cast<int>(std::lround(get(name)));
}

SweepGrid& SweepGrid::axis(std::string name, std::vector<double> values) {
  BCP_REQUIRE_MSG(!values.empty(), "axis needs at least one value");
  for (const auto& a : axes_)
    BCP_REQUIRE_MSG(a.name != name, "duplicate axis: " + name);
  axes_.push_back(Axis{std::move(name), std::move(values)});
  return *this;
}

SweepGrid& SweepGrid::axis_ints(std::string name,
                                const std::vector<int>& values) {
  std::vector<double> v;
  v.reserve(values.size());
  for (const int x : values) v.push_back(static_cast<double>(x));
  return axis(std::move(name), std::move(v));
}

SweepGrid& SweepGrid::constant(std::string name, double value) {
  return axis(std::move(name), {value});
}

std::size_t SweepGrid::size() const {
  if (axes_.empty()) return 0;
  std::size_t n = 1;
  for (const auto& a : axes_) n *= a.values.size();
  return n;
}

SweepPoint SweepGrid::point(std::size_t i) const {
  BCP_REQUIRE(i < size());
  SweepPoint::Params params(axes_.size());
  // Mixed-radix decode, last axis fastest.
  std::size_t rest = i;
  for (std::size_t a = axes_.size(); a-- > 0;) {
    const Axis& ax = axes_[a];
    params[a] = {ax.name, ax.values[rest % ax.values.size()]};
    rest /= ax.values.size();
  }
  return SweepPoint(i, std::move(params));
}

std::size_t SweepGrid::index_of(const std::vector<std::size_t>& digits) const {
  BCP_REQUIRE(digits.size() == axes_.size());
  std::size_t i = 0;
  for (std::size_t a = 0; a < axes_.size(); ++a) {
    BCP_REQUIRE(digits[a] < axes_[a].values.size());
    i = i * axes_[a].values.size() + digits[a];
  }
  return i;
}

SweepRunner::SweepRunner(SweepOptions options) : options_(options) {
  BCP_REQUIRE(options_.replications >= 1);
  BCP_REQUIRE(options_.threads >= 0);
}

int SweepRunner::effective_threads(std::size_t jobs) const {
  int n = options_.threads;
  if (n == 0) n = static_cast<int>(std::thread::hardware_concurrency());
  if (n < 1) n = 1;
  if (static_cast<std::size_t>(n) > jobs) n = static_cast<int>(jobs);
  return n;
}

stats::ResultSink SweepRunner::run(const SweepGrid& grid,
                                   const SweepFn& fn) const {
  BCP_REQUIRE(fn != nullptr);
  const std::size_t points = grid.size();
  const std::size_t reps = static_cast<std::size_t>(options_.replications);
  const std::size_t jobs = points * reps;

  stats::ResultSink sink;
  if (jobs == 0) return sink;

  // Parallel phase: workers claim job indices from a shared counter and
  // write into their own slot, so no result ever moves between threads
  // mid-aggregation. Job j = (point j / reps, replication j % reps).
  std::vector<stats::ResultSink::Metrics> rows(jobs);
  std::atomic<std::size_t> next{0};
  std::exception_ptr failure;
  std::mutex failure_mutex;

  const auto worker = [&] {
    for (;;) {
      const std::size_t j = next.fetch_add(1);
      if (j >= jobs) return;
      const int rep = static_cast<int>(j % reps);
      try {
        SweepJob job{grid.point(j / reps), rep,
                     options_.base_seed + static_cast<std::uint64_t>(rep)};
        rows[j] = fn(job);
      } catch (...) {
        std::lock_guard<std::mutex> lock(failure_mutex);
        if (!failure) failure = std::current_exception();
        next.store(jobs);  // drain remaining work
        return;
      }
    }
  };

  const int n_threads = effective_threads(jobs);
  if (n_threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(n_threads));
    for (int t = 0; t < n_threads; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }
  if (failure) std::rethrow_exception(failure);

  // Sequential merge in job order: output is a pure function of the grid,
  // the job function, and the options — never of the thread count.
  for (std::size_t p = 0; p < points; ++p) {
    const SweepPoint point = grid.point(p);
    for (std::size_t r = 0; r < reps; ++r)
      sink.add(p, point.params(), rows[p * reps + r]);
  }
  return sink;
}

}  // namespace bcp::app
