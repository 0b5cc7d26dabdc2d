// Thread-to-CPU pinning.
//
// Every hardware-backend measurement thread is pinned: the model's transfer
// latencies are defined between fixed core pairs, so a migrating thread
// would mix latency classes within one sample.
#pragma once

namespace am {

/// Pins the calling thread to OS CPU @p os_cpu_id.
/// @returns false when the kernel refused (e.g. the CPU is offline) —
/// callers treat that as "run unpinned" and record the fact.
bool pin_current_thread(int os_cpu_id) noexcept;

/// Removes any affinity restriction from the calling thread.
bool unpin_current_thread() noexcept;

}  // namespace am
