#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

namespace dsp {

void parallel_for(std::size_t n, unsigned threads,
                  const std::function<void(std::size_t)>& fn) {
  const std::size_t workers =
      std::min<std::size_t>(std::max(threads, 1u), n);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;  // written only by the worker that set `failed`
  auto work = [&] {
    try {
      for (std::size_t i = next++; i < n; i = next++) fn(i);
    } catch (...) {
      if (!failed.exchange(true)) error = std::current_exception();
      next = n;  // deal no further indices
    }
  };
  {
    // jthread joins on destruction, so every started worker is joined
    // before `next`, `error` and `fn` go away, even if a later spawn
    // throws.
    std::vector<std::jthread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(work);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace dsp
