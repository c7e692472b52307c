// A small-buffer, move-only callable wrapper with NO heap fallback.
//
// std::function heap-allocates any capture larger than its tiny SSO buffer
// (16 B on libstdc++), which turns every scheduled event, MAC timer and
// channel completion into an allocation on the simulation hot path. This
// type stores the callable inline — captures up to `Capacity` bytes — and
// makes oversized captures a *compile-time* error instead of a silent
// allocation, so the event loop stays allocation-free in steady state and
// capture bloat is caught at the call site that introduced it.
//
// Differences from std::function, all deliberate:
//   * move-only (captured state such as net::MessageRef or another
//     InlineFunction need not be copyable);
//   * no heap fallback: static_assert fires when the capture exceeds
//     Capacity — shrink the capture (capture a pointer/ref or an id) or
//     widen Capacity at the alias that owns the hot path;
//   * callables must be nothrow-move-constructible (events move through
//     the scheduler's slot vector);
//   * a trivially copyable, trivially destructible callable (a closure
//     over pointers, ids and doubles, the common event) has no manager:
//     it moves as one copy of the whole buffer and needs no destruction,
//     so moving and resetting it make no indirect call.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace bcp::util {

/// Default inline capacity, sized so every closure the protocol stack
/// schedules today — including a MessageRef plus a nested completion
/// callback — fits with headroom (captures <= ~48 B always fit).
inline constexpr std::size_t kInlineFunctionCapacity = 64;

/// Storage alignment. Pointer-aligned (not max_align_t) so a small
/// InlineFunction nested inside another closure doesn't pad the outer
/// capture past its own capacity; closures capturing ids, pointers and
/// doubles never need more.
inline constexpr std::size_t kInlineFunctionAlign = alignof(void*);

template <typename Signature, std::size_t Capacity = kInlineFunctionCapacity>
class InlineFunction;  // undefined; see the R(Args...) specialization

template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity> {
 public:
  InlineFunction() = default;
  InlineFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                !std::is_same_v<std::decay_t<F>, std::nullptr_t> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= Capacity,
                  "capture too large for InlineFunction — shrink the "
                  "capture (ids/pointers instead of values) or widen the "
                  "owning alias's Capacity");
    static_assert(alignof(Fn) <= kInlineFunctionAlign,
                  "over-aligned captures are not supported");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "captures must be nothrow-move-constructible");
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    invoke_ = [](void* s, Args&&... args) -> R {
      return (*static_cast<Fn*>(s))(std::forward<Args>(args)...);
    };
    if constexpr (!(std::is_trivially_copyable_v<Fn> &&
                    std::is_trivially_destructible_v<Fn>)) {
      manage_ = [](Op op, void* self, void* other) {
        auto* fn = static_cast<Fn*>(self);
        if (op == Op::kMoveTo)
          ::new (other) Fn(std::move(*fn));
        else
          fn->~Fn();
      };
    }
  }

  InlineFunction(InlineFunction&& other) noexcept { move_from(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  InlineFunction& operator=(std::nullptr_t) {
    reset();
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  R operator()(Args... args) const {
    return invoke_(storage_, std::forward<Args>(args)...);
  }

  explicit operator bool() const { return invoke_ != nullptr; }

  /// Destroys the stored callable (releasing anything it captured).
  void reset() {
    if (manage_ != nullptr) manage_(Op::kDestroy, storage_, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  friend bool operator==(const InlineFunction& f, std::nullptr_t) {
    return !f;
  }
  friend bool operator==(std::nullptr_t, const InlineFunction& f) {
    return !f;
  }
  friend bool operator!=(const InlineFunction& f, std::nullptr_t) {
    return static_cast<bool>(f);
  }
  friend bool operator!=(std::nullptr_t, const InlineFunction& f) {
    return static_cast<bool>(f);
  }

 private:
  enum class Op { kMoveTo, kDestroy };
  using Invoke = R (*)(void*, Args&&...);
  using Manage = void (*)(Op, void* self, void* other);

  void move_from(InlineFunction& other) noexcept {
    if (other.invoke_ == nullptr) return;
    if (other.manage_ == nullptr)
      std::memcpy(storage_, other.storage_, Capacity);
    else
      other.manage_(Op::kMoveTo, other.storage_, storage_);
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    other.reset();  // destroys the moved-from callable, leaves other empty
  }

  alignas(kInlineFunctionAlign) mutable unsigned char storage_[Capacity];
  Invoke invoke_ = nullptr;
  Manage manage_ = nullptr;  // null: trivial callable, moved by memcpy
};

}  // namespace bcp::util
