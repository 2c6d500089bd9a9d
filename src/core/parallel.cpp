#include "core/parallel.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <thread>

#include "util/rng.h"

namespace hispar::core {

std::size_t shard_of(std::string_view domain, std::size_t shard_count) {
  if (shard_count <= 1) return 0;
  return static_cast<std::size_t>(util::fnv1a(domain) % shard_count);
}

std::vector<std::vector<std::size_t>> shard_indices(const HisparList& list,
                                                    std::size_t shard_count) {
  if (shard_count == 0) shard_count = 1;
  std::vector<std::vector<std::size_t>> shards(shard_count);
  for (std::size_t s = 0; s < list.sets.size(); ++s)
    shards[shard_of(list.sets[s].domain, shard_count)].push_back(s);
  return shards;
}

void for_each_unit(std::size_t unit_count, std::size_t jobs,
                   const std::function<void(std::size_t)>& fn) {
  if (unit_count == 0) return;
  if (jobs == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    jobs = hw > 0 ? hw : 1;
  }
  jobs = std::min(jobs, unit_count);

  if (jobs <= 1) {
    for (std::size_t unit = 0; unit < unit_count; ++unit) fn(unit);
    return;
  }

  // Work stealing over unit ids: units can be wildly unbalanced (a
  // domain hash puts whole sites, not loads, into a shard), so threads
  // pull the next unclaimed unit instead of owning a fixed range.
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(unit_count);
  std::vector<std::thread> workers;
  workers.reserve(jobs);
  for (std::size_t w = 0; w < jobs; ++w) {
    workers.emplace_back([&] {
      while (true) {
        const std::size_t unit = next.fetch_add(1, std::memory_order_relaxed);
        if (unit >= unit_count) return;
        try {
          fn(unit);
        } catch (...) {
          errors[unit] = std::current_exception();
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
  for (auto& error : errors)
    if (error) std::rethrow_exception(error);
}

double retry_backoff_s(double base_s, int attempt) {
  return base_s *
         std::min(kMaxRetryBackoffScale,
                  std::exp2(static_cast<double>(std::min(attempt, 62))));
}

}  // namespace hispar::core
