/**
 * @file
 * Growable ring-buffer deque for the simulator's hot queues.
 *
 * std::deque allocates and frees block nodes as its ends move, which
 * puts an allocator call on the per-cycle path of every queue that
 * drains and refills (fetch buffer, global order, ROB, LSQ, LLIB,
 * trace window). RingDeque grows geometrically to its high-water mark
 * and never shrinks, so steady-state push/pop traffic touches the
 * heap exactly zero times. It has no capacity limit of its own: a
 * queue that models a bounded hardware structure holds its capacity
 * and checks it (Lsq, IssueQueue, the ROB, Llib).
 */

#pragma once

#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/util/logging.hh"

namespace kilo
{

/** Double-ended queue over a power-of-two ring that only grows. */
template <typename T>
class RingDeque
{
  public:
    explicit RingDeque(size_t initial_capacity = 16)
    {
        size_t cap = 1;
        while (cap < initial_capacity)
            cap <<= 1;
        store.resize(cap);
    }

    size_t size() const { return count; }
    bool empty() const { return count == 0; }
    size_t capacity() const { return store.size(); }

    /** Element @p pos positions from the head (0 == oldest). */
    T &
    operator[](size_t pos)
    {
        KILO_ASSERT(pos < count, "RingDeque index out of range");
        return store[(head + pos) & mask()];
    }

    const T &
    operator[](size_t pos) const
    {
        KILO_ASSERT(pos < count, "RingDeque index out of range");
        return store[(head + pos) & mask()];
    }

    T &
    front()
    {
        KILO_ASSERT(count, "front on empty RingDeque");
        return store[head];
    }

    const T &
    front() const
    {
        KILO_ASSERT(count, "front on empty RingDeque");
        return store[head];
    }

    T &
    back()
    {
        KILO_ASSERT(count, "back on empty RingDeque");
        return store[(head + count - 1) & mask()];
    }

    const T &
    back() const
    {
        KILO_ASSERT(count, "back on empty RingDeque");
        return store[(head + count - 1) & mask()];
    }

    void
    push_back(const T &value)
    {
        if (count == store.size())
            growStore();
        store[(head + count) & mask()] = value;
        ++count;
    }

    void
    pop_front()
    {
        KILO_ASSERT(count, "pop_front on empty RingDeque");
        store[head] = T();
        head = (head + 1) & mask();
        --count;
    }

    void
    pop_back()
    {
        KILO_ASSERT(count, "pop_back on empty RingDeque");
        store[(head + count - 1) & mask()] = T();
        --count;
    }

    /** Remove the element @p pos positions from the head (O(n)). */
    void
    erase(size_t pos)
    {
        KILO_ASSERT(pos < count, "RingDeque erase out of range");
        for (size_t i = pos; i + 1 < count; ++i)
            (*this)[i] = (*this)[i + 1];
        pop_back();
    }

    void
    clear()
    {
        while (count)
            pop_front();
    }

    /**
     * Serialize / restore contents in logical (head-first) order.
     * Capacity is not part of the image; load() re-grows as needed,
     * so the restored deque is behaviourally identical even when its
     * ring happens to be a different size. Templated on the sink /
     * source type to keep src/util free of ckpt dependencies. @{
     */
    template <typename Sink>
    void
    save(Sink &s) const
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "RingDeque::save requires a POD element");
        std::vector<T> linear(count);
        for (size_t i = 0; i < count; ++i)
            linear[i] = (*this)[i];
        s.podVector(linear);
    }

    template <typename Source>
    void
    load(Source &s)
    {
        std::vector<T> linear;
        s.podVector(linear);
        clear();
        for (const T &value : linear)
            push_back(value);
    }
    /** @} */

  private:
    size_t mask() const { return store.size() - 1; }

    void
    growStore()
    {
        std::vector<T> bigger(store.size() * 2);
        for (size_t i = 0; i < count; ++i)
            bigger[i] = std::move((*this)[i]);
        store.swap(bigger);
        head = 0;
    }

    std::vector<T> store;
    size_t head = 0;
    size_t count = 0;
};

} // namespace kilo

