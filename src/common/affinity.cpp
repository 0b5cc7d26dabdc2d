#include "common/affinity.hpp"

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#include <unistd.h>
#endif

#include <thread>

namespace am {

bool pin_current_thread(int os_cpu_id) noexcept {
#ifdef __linux__
  if (os_cpu_id < 0 || os_cpu_id >= CPU_SETSIZE) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(os_cpu_id, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)os_cpu_id;
  return false;
#endif
}

bool unpin_current_thread() noexcept {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned i = 0; i < n && i < CPU_SETSIZE; ++i) CPU_SET(i, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  return false;
#endif
}

}  // namespace am
