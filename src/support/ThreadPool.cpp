//===- support/ThreadPool.cpp - Fixed-size task thread pool ---------------===//

#include "support/ThreadPool.h"

#include "support/Subprocess.h"

#include <algorithm>
#include <cstdlib>

using namespace fpint;
using namespace fpint::support;

unsigned ThreadPool::defaultThreadCount() {
  if (const char *Env = std::getenv("FPINT_JOBS")) {
    // Malformed or zero: degenerate single worker.
    std::optional<uint64_t> N = parseDecimal(Env, 1, UINT64_MAX);
    return N ? static_cast<unsigned>(std::min<uint64_t>(*N, MaxThreads)) : 1;
  }
  unsigned HW = std::thread::hardware_concurrency();
  return HW ? std::min(HW, MaxThreads) : 1;
}

ThreadPool &ThreadPool::global() {
  static ThreadPool Pool;
  return Pool;
}

ThreadPool::ThreadPool(unsigned Threads) {
  Threads = Threads ? std::min(Threads, MaxThreads) : defaultThreadCount();
  Workers.reserve(Threads);
  for (unsigned I = 0; I < Threads; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Stopping = true;
  }
  Cv.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> Task;
    {
      std::unique_lock<std::mutex> Lock(Mu);
      Cv.wait(Lock, [this] { return Stopping || !Queue.empty(); });
      if (Queue.empty())
        return; // Stopping and drained.
      Task = std::move(Queue.front());
      Queue.pop_front();
    }
    Task(); // packaged_task captures any exception into the future.
  }
}
