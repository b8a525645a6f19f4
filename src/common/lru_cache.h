// The one LRU container under the three data caches of Figure 1: the file
// agent's block cache, the file service's block pool (§5) and the disk
// service's track cache (§4).
//
// It owns the key → entry map and the recency order, nothing else: each
// cache keeps its own eviction policy and asks the container only for a
// victim ("the least recent entry that satisfies a predicate, else the
// least recent"). Lookups come in two kinds, Touch (refreshes recency) and
// Peek (does not), so every call site says which one it means.
//
// ForEach visits entries in the map's iteration order, which is a pure
// function of the key history of inserts and erases. Callers whose visit
// order reaches a disk (a writeback submission) rely on it staying exactly
// what a plain std::unordered_map with the same history gives.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.h"

namespace rhodos {

// Index hook of a cache that needs no secondary index.
struct NoIndex {
  template <typename Key>
  void Add(const Key&) {}
  template <typename Key>
  void Remove(const Key&) {}
  void Clear() {}
};

// A block cached on behalf of one file.
struct BlockKey {
  FileId file;
  std::uint64_t block = 0;
  friend bool operator==(const BlockKey&, const BlockKey&) = default;
};
struct BlockKeyHash {
  std::size_t operator()(const BlockKey& k) const {
    return std::hash<std::uint64_t>{}(k.file.value * 1000003ULL ^ k.block);
  }
};

// Per-file index of a block cache: one file's cached blocks are found
// without walking the cache.
class FileBlockIndex {
 public:
  void Add(const BlockKey& k) { files_[k.file].insert(k.block); }
  void Remove(const BlockKey& k) {
    auto it = files_.find(k.file);
    it->second.erase(k.block);
    if (it->second.empty()) files_.erase(it);
  }
  void Clear() { files_.clear(); }

  // Cached blocks of `file` at or after `from`, ascending. A copy, so the
  // caller may erase while it walks them.
  std::vector<std::uint64_t> Blocks(FileId file,
                                    std::uint64_t from = 0) const {
    std::vector<std::uint64_t> out;
    if (auto it = files_.find(file); it != files_.end()) {
      out.assign(it->second.lower_bound(from), it->second.end());
    }
    return out;
  }

 private:
  std::unordered_map<FileId, std::set<std::uint64_t>> files_;
};

template <typename Key, typename Value, typename Hash = std::hash<Key>,
          typename Index = NoIndex>
class LruCache {
 public:
  std::size_t size() const { return map_.size(); }
  bool Contains(const Key& key) const { return map_.contains(key); }

  // The entry, or null; its recency is left alone.
  Value* Peek(const Key& key) {
    auto it = map_.find(key);
    return it == map_.end() ? nullptr : &it->second.value;
  }
  const Value* Peek(const Key& key) const {
    auto it = map_.find(key);
    return it == map_.end() ? nullptr : &it->second.value;
  }

  // The entry, or null; a found entry becomes the most recent.
  Value* Touch(const Key& key) {
    auto it = map_.find(key);
    if (it == map_.end()) return nullptr;
    if (it->second.lru_pos != order_.begin()) {
      order_.erase(it->second.lru_pos);
      order_.push_front(it->first);
      it->second.lru_pos = order_.begin();
    }
    return &it->second.value;
  }

  // Adds an absent key as the most recent entry.
  Value& Insert(const Key& key, Value value) {
    order_.push_front(key);
    auto it = map_.emplace(key, Node{std::move(value), order_.begin()}).first;
    index_.Add(key);
    return it->second.value;
  }

  // By value: `key` may name the victim's own slot in the recency order.
  void Erase(Key key) {
    auto it = map_.find(key);
    if (it == map_.end()) return;
    order_.erase(it->second.lru_pos);
    map_.erase(it);
    index_.Remove(key);
  }

  void Clear() {
    map_.clear();
    order_.clear();
    index_.Clear();
  }

  // The least recent entry; null when empty.
  const Key* Lru() const { return order_.empty() ? nullptr : &order_.back(); }

  // The least recent entry for which pred(key, value) holds, else Lru().
  template <typename Pred>
  const Key* Victim(Pred pred) const {
    for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
      if (pred(*it, map_.find(*it)->second.value)) return &*it;
    }
    return Lru();
  }

  // fn(key, value) for every entry, in map order (see the header comment).
  // fn must not insert or erase.
  template <typename Fn>
  void ForEach(Fn fn) {
    for (auto& [key, node] : map_) fn(key, node.value);
  }
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (const auto& [key, node] : map_) fn(key, node.value);
  }

  const Index& index() const { return index_; }

 private:
  struct Node {
    Value value;
    typename std::list<Key>::iterator lru_pos;
  };

  std::unordered_map<Key, Node, Hash> map_;
  std::list<Key> order_;  // front = most recent
  Index index_;
};

// A block cache keyed by (file, block) with its per-file index.
template <typename Value>
using BlockLruCache = LruCache<BlockKey, Value, BlockKeyHash, FileBlockIndex>;

}  // namespace rhodos
