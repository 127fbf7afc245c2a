// Global-allocation counting hook for test binaries.
//
// Including this header replaces the program's global operator new/delete
// with malloc/free-backed versions that count calls — the instrument
// behind the zero-allocation guarantees of the storage read path
// (DESIGN.md §6): tests/pgrid/local_store_test.cc asserts scans allocate
// nothing.
//
// Include it from exactly ONE translation unit of a test binary (the
// replacement operators have external linkage; a second inclusion in the
// same binary fails to link, which is the guard). Never include it from
// library code.
#ifndef UNISTORE_COMMON_ALLOC_HOOK_H_
#define UNISTORE_COMMON_ALLOC_HOOK_H_

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace unistore {
namespace alloc_hook {

inline std::atomic<uint64_t>& Calls() {
  static std::atomic<uint64_t> calls{0};
  return calls;
}

/// Allocation calls performed while running `fn`.
template <typename Fn>
uint64_t CountCalls(Fn&& fn) {
  const uint64_t before = Calls().load(std::memory_order_relaxed);
  fn();
  return Calls().load(std::memory_order_relaxed) - before;
}

}  // namespace alloc_hook
}  // namespace unistore

// GCC pairs the replaced operator new (malloc-backed) with the library
// delete at some instantiation sites and flags a mismatch that is not
// there — new/delete below are a matched malloc/free pair.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  unistore::alloc_hook::Calls().fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#endif  // UNISTORE_COMMON_ALLOC_HOOK_H_
