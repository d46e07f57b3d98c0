/**
 * @file
 * Global allocation counter for zero-allocation guards: every
 * replaceable operator new in the including test binary is counted in
 * g_allocations, so a test can assert that a steady-state region
 * performs no heap allocation at all. Single-threaded by the test
 * contract.
 *
 * The replacements are malloc/free backed, including the
 * std::nothrow_t forms: library code such as std::stable_sort's
 * temporary buffer allocates through nothrow new and frees through
 * plain delete, and AddressSanitizer aborts on a pair whose halves
 * come from different allocators.
 *
 * Defines the replacement functions, so include it from exactly one
 * translation unit per binary.
 */

#ifndef HMCSIM_TESTS_COUNTING_ALLOCATOR_HH
#define HMCSIM_TESTS_COUNTING_ALLOCATOR_HH

#include <cstddef>
#include <cstdlib>
#include <new>

// GCC pairs the replaced operator new with the library operator
// delete across inlining and misreports the malloc/free replacement
// pattern below as mismatched.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace
{
std::size_t g_allocations = 0;

void *
countedAlloc(std::size_t size) noexcept
{
    ++g_allocations;
    return std::malloc(size);
}
} // namespace

void *
operator new(std::size_t size)
{
    if (void *p = countedAlloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    if (void *p = countedAlloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

#endif // HMCSIM_TESTS_COUNTING_ALLOCATOR_HH
