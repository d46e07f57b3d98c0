/**
 * @file
 * A member that points into its own simulator.
 *
 * Ac510Module::fork copies a warm simulator into a freshly built twin
 * with the components' defaulted copy assignment: every member is a
 * plain value, so the copy is the state. A few members are not state
 * but wiring, set by a constructor to point into the simulator that
 * built it: the event queue and device references, the submit and
 * deliver callbacks, the checker registry, a vault's devirtualized
 * backend view. Copying those would leave the twin pointing into its
 * source. Wiring<T> holds one of them; assigning from another
 * simulator's component leaves it unchanged, so the twin keeps its
 * own. The `snapshot-safe` lint rule refuses any other raw-pointer
 * member of a class tagged `lint:snapshot-state`.
 */

#ifndef HMCSIM_SIM_WIRING_HH
#define HMCSIM_SIM_WIRING_HH

#include <type_traits>
#include <utility>

namespace hmcsim
{

/** A constructor-set value that copy assignment keeps. */
template <typename T>
class Wiring
{
  public:
    Wiring() = default;
    Wiring(T value) : value(std::move(value)) {} // NOLINT(google-explicit-constructor)

    /** Not copyable: a copy would point into the source simulator. */
    Wiring(const Wiring &) = delete;

    /** Keeps this simulator's wiring (see file comment). */
    Wiring &operator=(const Wiring &) { return *this; }

    T &get() { return value; }
    const T &get() const { return value; }

    /** Member access through a wired pointer. */
    T
    operator->() const
        requires std::is_pointer_v<T>
    {
        return value;
    }

  private:
    T value{};
};

} // namespace hmcsim

#endif // HMCSIM_SIM_WIRING_HH
