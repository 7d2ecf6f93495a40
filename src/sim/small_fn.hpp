#pragma once

#include <cassert>
#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace st::sim {

template <typename Sig>
class BasicSmallFn;

/// Move-only callable with small-buffer-optimised storage, generic in its
/// call signature.
///
/// This is the scheduler's event-callback machinery. The event hot path
/// schedules millions of tiny lambdas — `[this]`, `[this, cycle]`,
/// `[this, i, fault]` — whose captures fit in a few machine words;
/// `std::function` heap-allocates and type-erases through a copyable
/// interface neither of which the kernel needs. BasicSmallFn stores any
/// callable whose state fits `kInlineSize` bytes (and is
/// nothrow-move-constructible) inline; larger or throwing-move callables
/// fall back to a single heap allocation.
///
/// Being move-only it also accepts captures `std::function` cannot
/// (e.g. `std::unique_ptr`), which models "this event owns its payload".
///
/// Two instantiations ship: `SmallFn` (`void()`, the event callback) and
/// `Scheduler::Interceptor` (`bool(const EventTag&, Time)`, the fault
/// surface) — the latter so fault-injected campaigns keep the
/// allocation-free hot path end to end.
///
/// **Trivially-copyable fast path**: almost every event callback captures
/// only pointers and scalars, so its closure is trivially copyable. Such a
/// callable is relocated with a fixed-size `memcpy` and dropped without a
/// destroy call; only captures with real destructors (`shared_ptr`,
/// `std::function`, heap spills) go through the indirect relocate/destroy
/// hooks.
template <typename R, typename... Args>
class BasicSmallFn<R(Args...)> {
  public:
    /// Inline capture budget. Covers every callback the shipped models
    /// schedule (typically `this` + a couple of scalars) with room for a
    /// `std::function`-sized capture; measured against the repo's own call
    /// sites, nothing in the hot path spills to the heap.
    static constexpr std::size_t kInlineSize = 48;

    BasicSmallFn() noexcept = default;
    // NOLINTNEXTLINE(google-explicit-constructor)
    BasicSmallFn(std::nullptr_t) noexcept {}

    template <typename F, typename D = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<D, BasicSmallFn> &&
                  std::is_invocable_r_v<R, D&, Args...>>>
    BasicSmallFn(F&& f) {  // NOLINT(google-explicit-constructor)
        construct<D>(std::forward<F>(f));
    }

    /// Store `f` in this empty object: a callable is constructed directly in
    /// the buffer (the scheduler builds each callback inside its event
    /// record this way, with no intermediate object to relocate); another
    /// BasicSmallFn is moved in.
    template <typename F, typename D = std::decay_t<F>>
    void emplace(F&& f) noexcept(std::is_same_v<D, BasicSmallFn> ||
                                 (fits_inline<D>() &&
                                  std::is_nothrow_constructible_v<D, F&&>)) {
        assert(ops_ == nullptr && "BasicSmallFn: emplace into a live callback");
        if constexpr (std::is_same_v<D, BasicSmallFn>) {
            *this = std::forward<F>(f);
        } else {
            construct<D>(std::forward<F>(f));
        }
    }

    BasicSmallFn(BasicSmallFn&& other) noexcept { steal(other); }

    BasicSmallFn& operator=(BasicSmallFn&& other) noexcept {
        if (this != &other) {
            reset();
            steal(other);
        }
        return *this;
    }

    BasicSmallFn(const BasicSmallFn&) = delete;
    BasicSmallFn& operator=(const BasicSmallFn&) = delete;

    ~BasicSmallFn() { reset(); }

    /// Invoke. Calling an empty BasicSmallFn is a programming error.
    R operator()(Args... args) {
        assert(ops_ != nullptr && "BasicSmallFn: invoking empty callback");
        return ops_->invoke(buf_, std::forward<Args>(args)...);
    }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

    /// Drop the stored callable (if any), leaving *this empty.
    void reset() noexcept {
        if (ops_ != nullptr) {
            if (ops_->destroy != nullptr) ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    /// True when the stored callable (if any) lives in the inline buffer —
    /// instrumentation for the allocation-regression tests.
    bool is_inline() const noexcept {
        return ops_ != nullptr && ops_->inline_storage;
    }

    /// Compile-time check that a callable type stays inline. Hot-path call
    /// sites static_assert this so a capture that grows past the budget is
    /// a build error, not a silent per-event heap allocation.
    template <typename D>
    static constexpr bool fits_inline() {
        return sizeof(D) <= kInlineSize && alignof(D) <= kInlineAlign &&
               std::is_nothrow_move_constructible_v<D>;
    }

  private:
    /// Pointer alignment keeps the object at 56 bytes, so a scheduler event
    /// record (queue links + tag + callback) packs into 104. Captures are
    /// pointers and scalars; an over-aligned one takes the heap path.
    static constexpr std::size_t kInlineAlign = alignof(void*);

    struct Ops {
        R (*invoke)(void*, Args&&...);
        /// Move-construct the callable into `dst` from `src`, destroying the
        /// `src` copy. Must not throw: relocation happens inside move ctors.
        /// Null for trivially-copyable inline callables (memcpy relocation).
        void (*relocate)(void* dst, void* src) noexcept;
        /// Null for trivially-copyable inline callables (nothing to destroy).
        void (*destroy)(void*) noexcept;
        bool inline_storage;
    };

    template <typename D, typename F>
    void construct(F&& f) {
        if constexpr (fits_inline<D>()) {
            ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
            ops_ = &kInlineOps<D>;
        } else {
            using P = D*;
            ::new (static_cast<void*>(buf_)) P(new D(std::forward<F>(f)));
            ops_ = &kHeapOps<D>;
        }
    }

    template <typename D>
    static void relocate_inline(void* dst, void* src) noexcept {
        D* s = std::launder(reinterpret_cast<D*>(src));
        ::new (dst) D(std::move(*s));
        s->~D();
    }

    template <typename D>
    static void destroy_inline(void* p) noexcept {
        std::launder(reinterpret_cast<D*>(p))->~D();
    }

    template <typename D>
    static constexpr Ops kInlineOps = {
        [](void* p, Args&&... args) -> R {
            return (*std::launder(reinterpret_cast<D*>(p)))(
                std::forward<Args>(args)...);
        },
        std::is_trivially_copyable_v<D> ? nullptr : &relocate_inline<D>,
        std::is_trivially_copyable_v<D> ? nullptr : &destroy_inline<D>,
        true,
    };

    template <typename D>
    static constexpr Ops kHeapOps = {
        [](void* p, Args&&... args) -> R {
            return (**std::launder(reinterpret_cast<D**>(p)))(
                std::forward<Args>(args)...);
        },
        [](void* dst, void* src) noexcept {
            using P = D*;
            ::new (dst) P(*std::launder(reinterpret_cast<P*>(src)));
        },
        [](void* p) noexcept {
            delete *std::launder(reinterpret_cast<D**>(p));
        },
        false,
    };

    void steal(BasicSmallFn& other) noexcept {
        if (other.ops_ != nullptr) {
            ops_ = other.ops_;
            if (ops_->relocate != nullptr) {
                ops_->relocate(buf_, other.buf_);
            } else {
                std::memcpy(buf_, other.buf_, kInlineSize);
            }
            other.ops_ = nullptr;
        }
    }

    // Zero-initialised so the fixed-size memcpy in steal() never reads
    // indeterminate bytes past a small callable.
    alignas(kInlineAlign) unsigned char buf_[kInlineSize] = {};
    const Ops* ops_ = nullptr;
};

/// The scheduler's event callback: move-only `void()` with inline storage.
using SmallFn = BasicSmallFn<void()>;

}  // namespace st::sim
