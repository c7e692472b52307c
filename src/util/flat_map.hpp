// A sorted-vector map for the few-entry, per-node tables of the protocol
// stack (BCP sessions, timers, shortcuts, per-next-hop buffers).
//
// std::map costs 48 B per empty table plus one heap node per entry; most
// of these tables are empty on most nodes and hold a handful of peers on
// the rest. FlatMap is one std::vector (24 B, no allocation until the
// first insert) of (key, value) pairs kept in ascending key order, so
// iteration visits keys in the same order std::map does — part of the
// simulator's determinism contract.
//
// Unlike std::map, every insert and erase may move the other entries:
// never hold a reference or iterator into a FlatMap across a call that
// can insert into it or erase from it (callbacks that re-enter the owner
// included). Look the entry up again by key instead.
#pragma once

#include <algorithm>
#include <cstddef>
#include <tuple>
#include <utility>
#include <vector>

namespace bcp::util {

template <typename Key, typename Value>
class FlatMap {
 public:
  /// Keys are mutable through iterators only for std::vector's sake; a
  /// caller that changes one breaks the ordering invariant.
  using value_type = std::pair<Key, Value>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  iterator begin() { return items_.begin(); }
  iterator end() { return items_.end(); }
  const_iterator begin() const { return items_.begin(); }
  const_iterator end() const { return items_.end(); }
  bool empty() const { return items_.empty(); }
  std::size_t size() const { return items_.size(); }
  /// Drops every entry; the storage is kept for reuse.
  void clear() { items_.clear(); }

  iterator find(const Key& key) {
    const auto it = lower_bound(key);
    return it != items_.end() && it->first == key ? it : items_.end();
  }
  const_iterator find(const Key& key) const {
    const auto it = lower_bound(key);
    return it != items_.end() && it->first == key ? it : items_.end();
  }
  std::size_t count(const Key& key) const {
    return find(key) != items_.end() ? 1 : 0;
  }

  /// Inserts (key, Value(args...)) unless `key` is present; returns the
  /// entry for `key` and whether it was inserted.
  template <typename... Args>
  std::pair<iterator, bool> try_emplace(const Key& key, Args&&... args) {
    auto it = lower_bound(key);
    if (it != items_.end() && it->first == key) return {it, false};
    it = items_.emplace(it, std::piecewise_construct,
                        std::forward_as_tuple(key),
                        std::forward_as_tuple(std::forward<Args>(args)...));
    return {it, true};
  }

  /// The value for `key`, default-constructed on first use.
  Value& operator[](const Key& key) { return try_emplace(key).first->second; }

  iterator erase(const_iterator it) { return items_.erase(it); }
  std::size_t erase(const Key& key) {
    const auto it = find(key);
    if (it == items_.end()) return 0;
    items_.erase(it);
    return 1;
  }

 private:
  iterator lower_bound(const Key& key) {
    return std::lower_bound(
        items_.begin(), items_.end(), key,
        [](const value_type& item, const Key& k) { return item.first < k; });
  }
  const_iterator lower_bound(const Key& key) const {
    return std::lower_bound(
        items_.begin(), items_.end(), key,
        [](const value_type& item, const Key& k) { return item.first < k; });
  }

  std::vector<value_type> items_;
};

}  // namespace bcp::util
