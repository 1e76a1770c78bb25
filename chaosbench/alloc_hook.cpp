// Global operator new replacement that counts heap allocations per thread,
// so the benchmark can count what one runtime call on one rank allocates.
#include <cstdlib>
#include <new>

#include "alloc_hook.hpp"

namespace {
thread_local long long t_allocs = 0;

void* counted_alloc(std::size_t n) {
  ++t_allocs;
  if (void* ptr = std::malloc(n == 0 ? 1 : n)) return ptr;
  throw std::bad_alloc();
}
}  // namespace

namespace chaosbench {
long long thread_allocs() { return t_allocs; }
}  // namespace chaosbench

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
