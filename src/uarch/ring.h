/**
 * @file
 * A fixed-capacity double-ended ring: the core's ROB, fetch queue and
 * register free list.
 *
 * Storage is one power-of-two array allocated at construction, so
 * pushes and pops never allocate. Elements keep deque order: push at
 * the back, pop at either end, index from the front. Iterators are
 * random-access (a ring pointer plus an offset from the front), so
 * range-for, std::lower_bound and iterator arithmetic work across
 * the wrap-around seam. Pushing into a full ring is a programming
 * error (SPT_ASSERT); popping invalidates iterators to the popped
 * element only.
 */

#ifndef SPT_UARCH_RING_H
#define SPT_UARCH_RING_H

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <type_traits>

#include "common/logging.h"

namespace spt {

template <typename T>
class Ring
{
    template <bool Const>
    class Iter
    {
      public:
        using iterator_category = std::random_access_iterator_tag;
        using value_type = T;
        using difference_type = std::ptrdiff_t;
        using pointer = std::conditional_t<Const, const T *, T *>;
        using reference = std::conditional_t<Const, const T &, T &>;
        using RingPtr =
            std::conditional_t<Const, const Ring *, Ring *>;

        Iter() = default;
        Iter(RingPtr r, std::size_t i) : r_(r), i_(i) {}

        reference operator*() const { return (*r_)[i_]; }
        pointer operator->() const { return &(*r_)[i_]; }
        reference operator[](difference_type n) const
        {
            return (*r_)[i_ + n];
        }

        Iter &operator++() { ++i_; return *this; }
        Iter &operator--() { --i_; return *this; }
        Iter operator++(int) { Iter t = *this; ++i_; return t; }
        Iter operator--(int) { Iter t = *this; --i_; return t; }
        Iter &operator+=(difference_type n) { i_ += n; return *this; }
        Iter &operator-=(difference_type n) { i_ -= n; return *this; }
        friend Iter operator+(Iter a, difference_type n) { return a += n; }
        friend Iter operator+(difference_type n, Iter a) { return a += n; }
        friend Iter operator-(Iter a, difference_type n) { return a -= n; }
        friend difference_type operator-(const Iter &a, const Iter &b)
        {
            return static_cast<difference_type>(a.i_) -
                   static_cast<difference_type>(b.i_);
        }
        friend bool operator==(const Iter &a, const Iter &b)
        {
            return a.i_ == b.i_;
        }
        friend auto operator<=>(const Iter &a, const Iter &b)
        {
            return a.i_ <=> b.i_;
        }

      private:
        RingPtr r_ = nullptr;
        std::size_t i_ = 0; ///< offset from the front
    };

  public:
    using value_type = T;
    using iterator = Iter<false>;
    using const_iterator = Iter<true>;

    /** Holds @p capacity elements, rounded up to a power of two
     *  (capacity()). */
    explicit Ring(std::size_t capacity)
    {
        std::size_t cap = 1;
        while (cap < capacity)
            cap <<= 1;
        buf_ = std::make_unique<T[]>(cap);
        mask_ = cap - 1;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::size_t capacity() const { return mask_ + 1; }

    T &operator[](std::size_t i) { return buf_[(head_ + i) & mask_]; }
    const T &operator[](std::size_t i) const
    {
        return buf_[(head_ + i) & mask_];
    }
    T &front() { return buf_[head_]; }
    const T &front() const { return buf_[head_]; }
    T &back() { return (*this)[size_ - 1]; }
    const T &back() const { return (*this)[size_ - 1]; }

    void
    push_back(const T &v)
    {
        SPT_ASSERT(size_ <= mask_, "ring full");
        buf_[(head_ + size_) & mask_] = v;
        ++size_;
    }
    void
    pop_front()
    {
        head_ = (head_ + 1) & mask_;
        --size_;
    }
    void pop_back() { --size_; }
    void clear() { size_ = 0; }

    iterator begin() { return {this, 0}; }
    iterator end() { return {this, size_}; }
    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size_}; }

  private:
    std::unique_ptr<T[]> buf_;
    std::size_t mask_ = 0;
    std::size_t head_ = 0; ///< storage slot of the front element
    std::size_t size_ = 0;
};

} // namespace spt

#endif // SPT_UARCH_RING_H
