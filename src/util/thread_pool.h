#pragma once

/// \file thread_pool.h
/// The worker-thread vocabulary of the campaign executor
/// (src/runner/executor.cpp): the one parallel layer, whose job outputs
/// fold per point in replication order, so the bytes never depend on the
/// worker count.

#include <functional>

namespace vanet::util {

/// std::thread::hardware_concurrency clamped to >= 1.
int hardwareThreads() noexcept;

/// Runs `worker` concurrently on `workers` threads: `workers - 1`
/// spawned plus the calling thread. `workers` <= 1 calls it inline on
/// the calling thread. Joins every spawned thread before returning;
/// `worker` must not throw (wrap the body, park the error, rethrow after
/// -- see executeCampaign for the canonical pattern).
void runWorkers(int workers, const std::function<void()>& worker);

}  // namespace vanet::util
