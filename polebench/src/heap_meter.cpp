// Heap accounting: the benchmark replaces the global operator new and
// delete, so every C++ allocation in the process — the program's and the
// benchmark's — moves one live-bytes counter and its high-water mark.
// Sizes are malloc_usable_size(), the bytes the allocator really handed
// out, so an allocation and its release always cancel.

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "polebench.hpp"

namespace {

std::atomic<std::size_t> live_bytes{0};
std::atomic<std::size_t> peak_bytes{0};

void* counted(void* p) {
    if (p == nullptr) return nullptr;
    const std::size_t bytes = malloc_usable_size(p);
    const std::size_t now = live_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    std::size_t peak = peak_bytes.load(std::memory_order_relaxed);
    while (now > peak && !peak_bytes.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
    }
    return p;
}

void* allocate(std::size_t size) { return counted(std::malloc(size == 0 ? 1 : size)); }

void* allocate_aligned(std::size_t size, std::align_val_t align) {
    void* p = nullptr;
    if (posix_memalign(&p, static_cast<std::size_t>(align), size == 0 ? 1 : size) != 0) {
        return nullptr;
    }
    return counted(p);
}

void release(void* p) noexcept {
    if (p == nullptr) return;
    live_bytes.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
    std::free(p);
}

void* or_throw(void* p) {
    if (p == nullptr) throw std::bad_alloc{};
    return p;
}

}  // namespace

namespace polebench {

std::size_t heap_live_bytes() { return live_bytes.load(std::memory_order_relaxed); }

std::size_t heap_peak_bytes() { return peak_bytes.load(std::memory_order_relaxed); }

void heap_reset_peak() { peak_bytes.store(heap_live_bytes(), std::memory_order_relaxed); }

}  // namespace polebench

void* operator new(std::size_t n) { return or_throw(allocate(n)); }
void* operator new[](std::size_t n) { return or_throw(allocate(n)); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return allocate(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return allocate(n); }
void* operator new(std::size_t n, std::align_val_t a) { return or_throw(allocate_aligned(n, a)); }
void* operator new[](std::size_t n, std::align_val_t a) { return or_throw(allocate_aligned(n, a)); }
void* operator new(std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
    return allocate_aligned(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
    return allocate_aligned(n, a);
}

void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept { release(p); }
