// Fan-out helper for running independent simulations in parallel.
//
// The scenario grid runner (sim/scenario.h) is its one caller: each grid
// cell is a whole, independent simulation run, so that is where
// parallelism pays. Threads are an implementation detail of one call,
// started and joined inside it (CP.23/CP.25).
#pragma once

#include <cstddef>
#include <functional>

namespace dsp {

/// Runs fn(i) for every i in [0, n) on min(threads, n) workers and waits
/// for all of them. Each worker takes the next unclaimed index from a
/// shared counter, so one long call never holds back a block of other
/// indices. With one worker (threads <= 1 or n == 1) the loop runs
/// inline on the caller. After every worker has joined, the first
/// exception thrown by fn is rethrown; indices not yet claimed when it
/// was thrown are skipped.
void parallel_for(std::size_t n, unsigned threads,
                  const std::function<void(std::size_t)>& fn);

}  // namespace dsp
