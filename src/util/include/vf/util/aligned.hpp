#pragma once
// Cache-line-aligned allocation for hot numeric buffers.
//
// The GEMM kernel layer (vf::nn) packs operand panels and stores Matrix
// data 64-byte aligned so vector loads/stores never straddle cache lines
// and the compiler can emit aligned SIMD moves for the micro-kernel.

#include <algorithm>
#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace vf::util {

/// Minimal stateless allocator returning `Alignment`-byte aligned storage.
template <typename T, std::size_t Alignment = 64>
class AlignedAllocator {
  static_assert((Alignment & (Alignment - 1)) == 0,
                "Alignment must be a power of two");
  static_assert(Alignment >= alignof(T),
                "Alignment must not weaken the type's natural alignment");

 public:
  using value_type = T;
  using is_always_equal = std::true_type;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  [[nodiscard]] T* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{Alignment}));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), std::align_val_t{Alignment});
  }

  friend bool operator==(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return true;
  }
};

/// std::vector with 64-byte-aligned storage.
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

struct AlignedFree {
  void operator()(void* p) const noexcept {
    ::operator delete(p, std::align_val_t{64});
  }
};

/// A 64-byte-aligned array whose elements are left uninitialised, for
/// buffers that are written in full before they are read (packed GEMM
/// operands): a value-initialised vector would zero-fill them first.
template <typename T>
using UninitBuffer = std::unique_ptr<T[], AlignedFree>;

template <typename T>
[[nodiscard]] UninitBuffer<T> make_uninit_buffer(std::size_t n) {
  static_assert(std::is_trivially_default_constructible_v<T>);
  return UninitBuffer<T>(static_cast<T*>(
      ::operator new(std::max<std::size_t>(n, 1) * sizeof(T),
                     std::align_val_t{64})));
}

}  // namespace vf::util
