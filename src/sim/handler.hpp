// InlineFn: the event-handler type of the scheduler hot path.
//
// std::function heap-allocates for any capture larger than its small-buffer
// (two pointers on libstdc++), and the hot-path closures (relayx backoff
// timers, qfgeo elections, shardx handoff receptions) carry ~40 bytes — so
// a std::function event loop pays one allocation per scheduled event.
// InlineFn stores captures up to kInlineBytes in place, inside the
// simulator's handler slab; the rare larger closure falls back to a counted
// heap allocation (never UB, observable via heap_fallbacks()).
//
// Move-only by design: an event handler is scheduled once and invoked once,
// so copyability would only force every capture to be copyable. Relocation
// (move-construct + destroy source) is the primitive the handler slab needs
// when it grows, and the run loop uses to take a handler out of its slot.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace citymesh::sim {

namespace detail {
inline std::atomic<std::uint64_t>& inline_fn_heap_fallbacks() {
  static std::atomic<std::uint64_t> count{0};
  return count;
}
}  // namespace detail

class InlineFn {
 public:
  /// Inline capture budget. 48 bytes covers every closure the hot path
  /// schedules (the medium's delivery closure, relayx backoff timers, the
  /// qfgeo election closures); anything bigger still works via the heap.
  static constexpr std::size_t kInlineBytes = 48;

  InlineFn() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, InlineFn>>>
  InlineFn(F&& fn) {  // NOLINT(google-explicit-constructor): drop-in for Handler
    using D = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, D&>, "InlineFn requires a void() callable");
    if constexpr (fits_inline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(fn));
      ops_ = &InlineOps<D>::ops;
    } else {
      *reinterpret_cast<D**>(static_cast<void*>(buf_)) = new D(std::forward<F>(fn));
      ops_ = &HeapOps<D>::ops;
      detail::inline_fn_heap_fallbacks().fetch_add(1, std::memory_order_relaxed);
    }
  }

  InlineFn(InlineFn&& other) noexcept { steal(other); }
  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }
  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;
  ~InlineFn() { reset(); }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void operator()() { ops_->invoke(buf_); }

  /// Captures that exceeded kInlineBytes and were heap-allocated (process
  /// lifetime total; pool tests assert the hot path stays at zero).
  static std::uint64_t heap_fallbacks() {
    return detail::inline_fn_heap_fallbacks().load(std::memory_order_relaxed);
  }

 private:
  struct Ops {
    void (*invoke)(void* p);
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* p) noexcept;
  };

  template <typename D>
  static constexpr bool fits_inline = sizeof(D) <= kInlineBytes &&
                                      alignof(D) <= alignof(std::max_align_t) &&
                                      std::is_nothrow_move_constructible_v<D>;

  template <typename D>
  struct InlineOps {
    static void invoke(void* p) { (*std::launder(reinterpret_cast<D*>(p)))(); }
    static void relocate(void* dst, void* src) noexcept {
      D* s = std::launder(reinterpret_cast<D*>(src));
      ::new (dst) D(std::move(*s));
      s->~D();
    }
    static void destroy(void* p) noexcept { std::launder(reinterpret_cast<D*>(p))->~D(); }
    static constexpr Ops ops{&invoke, &relocate, &destroy};
  };

  template <typename D>
  struct HeapOps {
    static D*& slot(void* p) { return *std::launder(reinterpret_cast<D**>(p)); }
    static void invoke(void* p) { (*slot(p))(); }
    static void relocate(void* dst, void* src) noexcept {
      *reinterpret_cast<D**>(dst) = slot(src);
    }
    static void destroy(void* p) noexcept { delete slot(p); }
    static constexpr Ops ops{&invoke, &relocate, &destroy};
  };

  void steal(InlineFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace citymesh::sim
