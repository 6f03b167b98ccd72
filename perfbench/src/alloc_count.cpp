// Replaces the global operator new to count heap allocations on server
// threads (core.allocs_per_frame). Threads without a counter, which is
// every thread in the untraced pass, pay one thread-local load per
// allocation. Kept in its own file so no other code inlines these
// operators.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace perfbench {

namespace {
thread_local std::atomic<uint64_t>* t_allocs = nullptr;
}

void count_allocations_on_this_thread(std::atomic<uint64_t>* counter) {
  t_allocs = counter;
}

void* counted_malloc(std::size_t n) {
  if (std::atomic<uint64_t>* c = t_allocs)
    c->store(c->load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  return std::malloc(n > 0 ? n : 1);
}

}  // namespace perfbench

void* operator new(std::size_t n) {
  if (void* p = perfbench::counted_malloc(n)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) {
  if (void* p = perfbench::counted_malloc(n)) return p;
  throw std::bad_alloc{};
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return perfbench::counted_malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return perfbench::counted_malloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
