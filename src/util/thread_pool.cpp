#include "util/thread_pool.h"

#include <thread>
#include <vector>

namespace vanet::util {

int hardwareThreads() noexcept {
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware > 0 ? static_cast<int>(hardware) : 1;
}

void runWorkers(int workers, const std::function<void()>& worker) {
  if (workers <= 1) {
    worker();
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers - 1));
  for (int t = 0; t < workers - 1; ++t) {
    pool.emplace_back(worker);
  }
  worker();  // the calling thread is a worker too
  for (std::thread& thread : pool) {
    thread.join();
  }
}

}  // namespace vanet::util
