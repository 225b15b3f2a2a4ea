// O(1)-initialisable array — the "sparse array" of Aho, Hopcroft & Ullman
// (1974), Exercise 2.12, which Section 3.1 of the paper uses to sample Δ
// random adjacency-array positions per vertex *without writing to the
// read-only adjacency arrays and without paying O(deg) initialisation*.
//
// The classic trick: alongside the value store we keep a stack of the
// slots written so far and a back-pointer array; slot i is considered
// initialised iff back_[i] points into the live prefix of the stack and the
// stack entry points back at i, so no slot's stored value is ever trusted
// before it is written. Construction zeroes the three O(capacity) arrays
// once; after that reset() and every access are O(1), so a capacity-n array
// costs O(1) time per reset regardless of how few slots a pass touches.
#pragma once

#include <cstddef>
#include <memory>

#include "util/common.hpp"

namespace matchsparse {

template <typename T>
class SparseArray {
 public:
  SparseArray() = default;

  /// Creates an array of `capacity` slots, all logically holding
  /// `default_value`. O(capacity): make_unique value-initialises (zeroes)
  /// all three arrays. The zeroing is kept on purpose, because contains()
  /// reads back_[i] of never-written slots, and reading an indeterminate
  /// value there would be undefined behaviour.
  explicit SparseArray(std::size_t capacity, T default_value = T{})
      : capacity_(capacity),
        default_(default_value),
        values_(std::make_unique<T[]>(capacity)),
        back_(std::make_unique<std::size_t[]>(capacity)),
        stack_(std::make_unique<std::size_t[]>(capacity)) {}

  std::size_t capacity() const { return capacity_; }

  /// Number of slots explicitly written since the last reset().
  std::size_t touched() const { return top_; }

  bool contains(std::size_t i) const {
    MS_DCHECK(i < capacity_);
    const std::size_t b = back_[i];
    return b < top_ && stack_[b] == i;
  }

  /// Reads slot i; returns the default value if the slot was never written.
  const T& get(std::size_t i) const {
    return contains(i) ? values_[i] : default_;
  }

  void set(std::size_t i, T value) {
    MS_DCHECK(i < capacity_);
    if (!contains(i)) {
      back_[i] = top_;
      stack_[top_] = i;
      ++top_;
    }
    values_[i] = std::move(value);
  }

  /// Logically restores every slot to the default value in O(1).
  void reset() { top_ = 0; }

  /// Iterates over the touched slots (order of first write).
  template <typename Fn>
  void for_each_touched(Fn&& fn) const {
    for (std::size_t s = 0; s < top_; ++s) fn(stack_[s], values_[stack_[s]]);
  }

 private:
  std::size_t capacity_ = 0;
  std::size_t top_ = 0;
  T default_{};
  std::unique_ptr<T[]> values_;
  std::unique_ptr<std::size_t[]> back_;
  std::unique_ptr<std::size_t[]> stack_;
};

}  // namespace matchsparse
