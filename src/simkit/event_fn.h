/**
 * @file
 * Move-only callable for the simulator's schedule path.
 *
 * std::function heap-allocates for any capture beyond ~two words, and
 * the kernel's hot closures are bigger than that (the cluster's
 * arrival event captures this + a whole workload::Request). EventFn
 * keeps a 64-byte inline buffer so every closure on the simulation hot
 * path is stored in place; larger captures fall back to the heap. Move-only (closures may own resources); invoking
 * an empty EventFn is undefined.
 */

#ifndef CHAMELEON_SIMKIT_EVENT_FN_H
#define CHAMELEON_SIMKIT_EVENT_FN_H

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace chameleon::sim {

class EventFn
{
  public:
    /** Inline capture budget; sized for the engine's largest closure. */
    static constexpr std::size_t kInlineBytes = 64;

    EventFn() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventFn> &&
                  std::is_invocable_r_v<void, std::decay_t<F> &>>>
    EventFn(F &&f) // NOLINT: implicit, like std::function
    {
        using Fn = std::decay_t<F>;
        if constexpr (fitsInline<Fn>()) {
            ::new (static_cast<void *>(storage_.buf))
                Fn(std::forward<F>(f));
            ops_ = &InlineModel<Fn>::ops;
        } else {
            storage_.ptr = new Fn(std::forward<F>(f));
            ops_ = &HeapModel<Fn>::ops;
        }
    }

    EventFn(EventFn &&other) noexcept { moveFrom(other); }

    EventFn &
    operator=(EventFn &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    EventFn &
    operator=(std::nullptr_t) noexcept
    {
        reset();
        return *this;
    }

    EventFn(const EventFn &) = delete;
    EventFn &operator=(const EventFn &) = delete;

    ~EventFn() { reset(); }

    explicit operator bool() const { return ops_ != nullptr; }

    void operator()() { ops_->invoke(*this); }

    /** Whether this closure fit the inline buffer (tests/benches). */
    bool inlined() const { return ops_ != nullptr && ops_->inlined; }

  private:
    struct Ops
    {
        void (*invoke)(EventFn &);
        /** Move the callable into dst's raw storage, destroy src's. */
        void (*relocate)(EventFn &dst, EventFn &src);
        void (*destroy)(EventFn &);
        bool inlined;
        /** Relocation is a raw storage copy: trivially copyable
         * inline callables, and heap callables (pointer move). */
        bool trivialRelocate;
        /** Destruction is a no-op (trivially destructible inline
         * callables), so reset() can skip the indirect call. */
        bool trivialDestroy;
    };

    template <typename Fn>
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= kInlineBytes &&
               alignof(Fn) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<Fn>;
    }

    template <typename Fn>
    struct InlineModel
    {
        static Fn *
        get(EventFn &e)
        {
            return std::launder(reinterpret_cast<Fn *>(e.storage_.buf));
        }
        static void invoke(EventFn &e) { (*get(e))(); }
        static void
        relocate(EventFn &dst, EventFn &src)
        {
            ::new (static_cast<void *>(dst.storage_.buf))
                Fn(std::move(*get(src)));
            get(src)->~Fn();
        }
        static void destroy(EventFn &e) { get(e)->~Fn(); }
        static constexpr Ops ops{&invoke, &relocate, &destroy, true,
                                 std::is_trivially_copyable_v<Fn>,
                                 std::is_trivially_destructible_v<Fn>};
    };

    template <typename Fn>
    struct HeapModel
    {
        static Fn *get(EventFn &e) { return static_cast<Fn *>(e.storage_.ptr); }
        static void invoke(EventFn &e) { (*get(e))(); }
        static void
        relocate(EventFn &dst, EventFn &src)
        {
            dst.storage_.ptr = src.storage_.ptr;
        }
        static void destroy(EventFn &e) { delete get(e); }
        static constexpr Ops ops{&invoke, &relocate, &destroy, false,
                                 true, false};
    };

    void
    reset() noexcept
    {
        if (ops_ != nullptr) {
            if (!ops_->trivialDestroy)
                ops_->destroy(*this);
            ops_ = nullptr;
        }
    }

    void
    moveFrom(EventFn &other) noexcept
    {
        if (other.ops_ != nullptr) {
            // Most hot-path closures (pointers + integers) relocate
            // as a raw 64-byte copy, skipping the indirect call.
            if (other.ops_->trivialRelocate)
                storage_ = other.storage_;
            else
                other.ops_->relocate(*this, other);
            ops_ = other.ops_;
            other.ops_ = nullptr;
        }
    }

    union Storage
    {
        alignas(std::max_align_t) unsigned char buf[kInlineBytes];
        void *ptr;
    };

    const Ops *ops_ = nullptr;
    Storage storage_;
};

} // namespace chameleon::sim

#endif // CHAMELEON_SIMKIT_EVENT_FN_H
