#pragma once

namespace chaosbench {
/// Heap allocations (operator new calls) made so far by the calling thread.
long long thread_allocs();
}  // namespace chaosbench
