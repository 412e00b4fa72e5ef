#include "mallard/resilience/retry_policy.h"

#include <chrono>
#include <mutex>
#include <thread>

namespace mallard {

namespace {

std::mutex g_sleep_hook_mutex;
RetryPolicy::SleepFn g_sleep_hook;

}  // namespace

void RetryPolicy::SetGlobalSleepHook(SleepFn hook) {
  std::lock_guard<std::mutex> lock(g_sleep_hook_mutex);
  g_sleep_hook = std::move(hook);
}

void RetryPolicy::Sleep(uint64_t micros) {
  {
    std::lock_guard<std::mutex> lock(g_sleep_hook_mutex);
    if (g_sleep_hook) {
      g_sleep_hook(micros);
      return;
    }
  }
  std::this_thread::sleep_for(std::chrono::microseconds(micros));
}

}  // namespace mallard
