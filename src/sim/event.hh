// lint:file(hot-path) -- event-core file: allocation-free callables (no std::function) and HMCSIM_DCHECK-only invariants, enforced by hmcsim-lint.
/**
 * @file
 * Allocation-free event callable for the simulation hot path.
 *
 * Every scheduled event used to be a `std::function<void()>`, which
 * heap-allocates once its captures outgrow the implementation's tiny
 * inline buffer (16 bytes on libstdc++). At tens of millions of
 * events per simulated millisecond that allocation -- and the free on
 * execution -- dominates the scheduling cost. `Event` replaces it
 * with a fixed-size small-buffer-optimized callable that *never*
 * allocates: a callable that does not fit the inline budget is a
 * compile error, not a silent heap fallback.
 *
 * Two kinds of callable fit:
 *
 *  - A receiver event: a trivially copyable struct that declares
 *    `using Receiver = C;`, holds `ReceiverId receiver` (the index
 *    component C got from EventQueue::addReceiver) plus plain values
 *    such as a PacketPool slot, and defines `operator()(C &)`. The
 *    queue passes the component in at fire time, so the capture holds
 *    no pointer and a copy of the queue fires it on the copy's own
 *    components. The main-path events are all receiver events, which
 *    is what lets Ac510Module::fork copy a warm simulator.
 *  - Any other `void()` callable (a lambda, a std::function holding
 *    test scaffolding). It may capture pointers into its simulator,
 *    so it cannot be copied: copying an Event that holds one aborts
 *    and names the callable's type.
 *
 * Trivially-copyable captures take a fast path where the Event itself
 * is relocated with memcpy and destruction is a no-op. Non-trivial
 * callables are still supported inline through a manager function, as
 * long as they fit.
 */

#ifndef HMCSIM_SIM_EVENT_HH
#define HMCSIM_SIM_EVENT_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <string_view>
#include <type_traits>
#include <utility>

#include "sim/check.hh"

namespace hmcsim
{

/** Inline capture budget of an Event, in bytes. */
constexpr std::size_t eventInlineBytes = 40;

/** Maximum capture alignment an Event supports. */
constexpr std::size_t eventInlineAlign = 16;

/** Index of a component registered with an EventQueue. */
using ReceiverId = std::uint32_t;

/** True for receiver events (see the file comment). */
template <typename D, typename = void>
constexpr bool isReceiverEvent = false;
template <typename D>
constexpr bool isReceiverEvent<D, std::void_t<typename D::Receiver>> =
    true;

/**
 * A never-allocating `void()` callable. Moves always work; copies work
 * for receiver events only.
 *
 * Empty Events are valid (and not callable); the event queue only
 * stores engaged ones.
 */
class Event
{
  public:
    Event() = default;

    /** Wrap any callable whose captures fit the inline budget. */
    template <typename F,
              typename D = std::decay_t<F>,
              typename = std::enable_if_t<!std::is_same_v<D, Event>>>
    Event(F &&fn) // NOLINT(google-explicit-constructor)
    {
        static_assert(sizeof(D) <= eventInlineBytes,
                      "event capture exceeds the inline budget "
                      "(eventInlineBytes): hoist large state (e.g. a "
                      "Packet) into the owning component or a "
                      "PacketPool and capture its slot instead");
        static_assert(alignof(D) <= eventInlineAlign,
                      "event capture is over-aligned for the inline "
                      "buffer");
        static_assert(std::is_nothrow_move_constructible_v<D>,
                      "event captures must be nothrow "
                      "move-constructible (the queue relocates "
                      "entries)");
        if constexpr (isReceiverEvent<D>) {
            static_assert(std::is_trivially_copyable_v<D>,
                          "receiver events must be trivially copyable: "
                          "a queue copy copies their bytes");
            static_assert(
                std::is_invocable_r_v<void, D &, typename D::Receiver &>,
                "receiver events take their Receiver & and return "
                "void");
        } else {
            static_assert(std::is_invocable_r_v<void, D &>,
                          "Event callables take no arguments and "
                          "return void");
            lambdaType = typeName<D>();
        }
        ::new (static_cast<void *>(storage)) D(std::forward<F>(fn));
        invoke_ = &invokeAs<D>;
        if constexpr (!(std::is_trivially_copyable_v<D> &&
                        std::is_trivially_destructible_v<D>)) {
            manager_ = [](Op op, void *dst, void *src) {
                switch (op) {
                  case Op::Relocate:
                    ::new (dst) D(std::move(*static_cast<D *>(src)));
                    static_cast<D *>(src)->~D();
                    break;
                  case Op::Destroy:
                    static_cast<D *>(dst)->~D();
                    break;
                }
            };
        }
    }

    Event(Event &&other) noexcept { moveFrom(other); }

    Event &
    operator=(Event &&other) noexcept
    {
        if (this != &other) {
            clear();
            moveFrom(other);
        }
        return *this;
    }

    /** Copy a receiver event; aborts on any other callable. */
    Event(const Event &other) { copyFrom(other); }

    Event &
    operator=(const Event &other)
    {
        if (this != &other) {
            clear();
            copyFrom(other);
        }
        return *this;
    }

    ~Event() { clear(); }

    /** True when a callable is stored. */
    explicit operator bool() const { return invoke_ != nullptr; }

    /**
     * Execute the callable (must be engaged). A receiver event gets
     * `receivers[its receiver index]`: the queue passes its receiver
     * table.
     */
    void operator()(void *const *receivers = nullptr)
    {
        invoke_(storage, receivers);
    }

  private:
    enum class Op
    {
        Relocate,
        Destroy,
    };

    template <typename D>
    static void
    invokeAs(void *self, void *const *receivers)
    {
        D &fn = *static_cast<D *>(self);
        if constexpr (isReceiverEvent<D>)
            fn(*static_cast<typename D::Receiver *>(
                receivers[fn.receiver]));
        else
            fn();
    }

    /** A signature naming @p D, for the copy refusal: GCC and Clang
     *  spell it "... [with D = <type>]" / "... [D = <type>]". */
    template <typename D>
    static const char *
    typeName()
    {
        return __PRETTY_FUNCTION__;
    }

    /** The <type> part of a typeName() signature. */
    static std::string_view
    typeOf(const char *signature)
    {
        std::string_view type = signature;
        const std::size_t at = type.find("D = ");
        if (at != std::string_view::npos)
            type = type.substr(at + 4, type.size() - at - 5);
        return type;
    }

    void
    clear()
    {
        if (manager_) {
            manager_(Op::Destroy, storage, nullptr);
            manager_ = nullptr;
        }
        invoke_ = nullptr;
        lambdaType = nullptr;
    }

    void
    moveFrom(Event &other)
    {
        invoke_ = other.invoke_;
        manager_ = other.manager_;
        lambdaType = other.lambdaType;
        if (manager_) {
            manager_(Op::Relocate, storage, other.storage);
        } else if (invoke_) {
            std::memcpy(storage, other.storage, eventInlineBytes);
        }
        other.invoke_ = nullptr;
        other.manager_ = nullptr;
        other.lambdaType = nullptr;
    }

    void
    copyFrom(const Event &other)
    {
        // Fork-time only (Ac510Module::fork copies the queue).
        // lint:allow(hot-check)
        HMCSIM_CHECK(other.lambdaType == nullptr,
                     "cannot copy a pending %.*s: only receiver events "
                     "copy (sim/event.hh), so a simulator with a "
                     "pending lambda cannot be forked",
                     static_cast<int>(typeOf(other.lambdaType).size()),
                     typeOf(other.lambdaType).data());
        invoke_ = other.invoke_;
        if (invoke_)
            std::memcpy(storage, other.storage, eventInlineBytes);
    }

    alignas(eventInlineAlign) unsigned char storage[eventInlineBytes];
    void (*invoke_)(void *, void *const *) = nullptr;
    void (*manager_)(Op, void *, void *) = nullptr;
    /** typeName<D>() of a callable that is not a receiver event: it
     *  may point into its simulator, so copying it is refused. */
    const char *lambdaType = nullptr;
};

static_assert(sizeof(Event) == 64, "an Event fills one cache line");

} // namespace hmcsim

#endif // HMCSIM_SIM_EVENT_HH
