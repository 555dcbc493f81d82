/**
 * @file
 * Growable power-of-two ring buffer: a double-ended FIFO whose storage
 * is one contiguous array indexed by `(head + i) & mask`. It doubles
 * when full and never shrinks, so once a pipeline queue has reached its
 * steady-state depth, pushes and pops never touch the allocator (a
 * std::deque allocates and frees a block every few hundred pushes).
 * Elements must be cheap to copy and default-constructible; the core
 * stores raw InFlight pointers.
 */

#ifndef NOREBA_COMMON_RING_H
#define NOREBA_COMMON_RING_H

#include <cstddef>
#include <iterator>
#include <vector>

#include "common/logging.h"

namespace noreba {

template <typename T>
class Ring
{
  public:
    /** Random-access-enough iterator for range-for and std::find. */
    template <typename R, typename V>
    class Iter
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = T;
        using difference_type = std::ptrdiff_t;
        using pointer = V *;
        using reference = V &;

        Iter() = default;
        Iter(R *ring, size_t pos) : ring_(ring), pos_(pos) {}
        reference operator*() const { return (*ring_)[pos_]; }
        Iter &
        operator++()
        {
            ++pos_;
            return *this;
        }
        bool operator==(const Iter &o) const { return pos_ == o.pos_; }
        bool operator!=(const Iter &o) const { return pos_ != o.pos_; }
        /** Offset from the front of the ring. */
        size_t pos() const { return pos_; }

      private:
        R *ring_ = nullptr;
        size_t pos_ = 0;
    };
    using iterator = Iter<Ring, T>;
    using const_iterator = Iter<const Ring, const T>;

    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }
    size_t capacity() const { return buf_.size(); }

    T &operator[](size_t i) { return buf_[(head_ + i) & mask_]; }
    const T &
    operator[](size_t i) const
    {
        return buf_[(head_ + i) & mask_];
    }
    T &front() { return (*this)[0]; }
    const T &front() const { return (*this)[0]; }
    T &back() { return (*this)[size_ - 1]; }
    const T &back() const { return (*this)[size_ - 1]; }

    iterator begin() { return iterator(this, 0); }
    iterator end() { return iterator(this, size_); }
    const_iterator begin() const { return const_iterator(this, 0); }
    const_iterator end() const { return const_iterator(this, size_); }

    void
    push_back(const T &v)
    {
        if (size_ == buf_.size()) [[unlikely]]
            grow();
        buf_[(head_ + size_) & mask_] = v;
        ++size_;
    }

    void
    pop_front()
    {
        panic_if(size_ == 0, "ring: pop_front on an empty ring");
        head_ = (head_ + 1) & mask_;
        --size_;
    }

    void
    pop_back()
    {
        panic_if(size_ == 0, "ring: pop_back on an empty ring");
        --size_;
    }

    /** Remove the element at offset @p i, shifting younger ones down
     *  (order-preserving, O(size - i)). */
    void
    erase(size_t i)
    {
        panic_if(i >= size_, "ring: erase past the end");
        for (size_t j = i + 1; j < size_; ++j)
            (*this)[j - 1] = (*this)[j];
        --size_;
    }

    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

  private:
    /** Double the storage; kept out of line so push_back inlines. */
    [[gnu::noinline]] void
    grow()
    {
        std::vector<T> next(buf_.empty() ? 16 : 2 * buf_.size());
        for (size_t i = 0; i < size_; ++i)
            next[i] = (*this)[i];
        buf_.swap(next);
        head_ = 0;
        mask_ = buf_.size() - 1;
    }

    std::vector<T> buf_;
    size_t head_ = 0;
    size_t size_ = 0;
    size_t mask_ = 0;
};

} // namespace noreba

#endif // NOREBA_COMMON_RING_H
