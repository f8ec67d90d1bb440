// LruMap — a bounded map with true least-recently-used eviction.
//
// The shared caches (llm::PromptCache, verify::VerifyCache) used to bound
// growth by flushing a whole shard when it hit its cap, which drops hot
// entries along with cold ones — fine for one-shot sweeps, hostile to a
// long-lived service whose whole value is keeping the hot set warm across
// requests. LruMap keeps an access-ordered list next to the index: find()
// moves an entry to the front, insertion past capacity evicts from the
// back, and every eviction records how long the victim had been idle (in
// accesses), so cache pressure is observable instead of silent. The
// caches' bit-identity contract means dropping any entry is always safe.
//
// Not thread-safe by itself: callers shard and lock exactly as they did
// around the unordered_map this replaces.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>

namespace rustbrain::support {

struct LruStats {
    std::uint64_t evictions = 0;  // single-entry LRU evictions
    /// Sum over evictions of how many accesses ago the victim was last
    /// touched; evicted_idle_ticks / evictions = mean idle age at eviction.
    std::uint64_t evicted_idle_ticks = 0;
};

template <typename Key, typename Value>
class LruMap {
  public:
    LruMap() = default;

    /// Applied before first use (the shard arrays that hold LruMaps are
    /// default-constructed). `capacity` 0 means 1.
    void configure(std::size_t capacity) {
        capacity_ = capacity == 0 ? 1 : capacity;
    }

    /// The entry for `key`, promoted to most-recently-used; null if absent.
    Value* find(const Key& key) {
        auto it = index_.find(key);
        if (it == index_.end()) return nullptr;
        ++tick_;
        it->second->last_touch = tick_;
        order_.splice(order_.begin(), order_, it->second);
        return &it->second->value;
    }

    /// The entry for `key` with no LRU promotion — for callers that must
    /// validate the entry first (hash-collision checks): a mismatching
    /// probe is a miss and must not refresh the colliding owner's slot.
    /// Promote with find() once the match check succeeds.
    Value* peek(const Key& key) {
        auto it = index_.find(key);
        return it == index_.end() ? nullptr : &it->second->value;
    }

    /// Insert a fresh entry as most-recently-used, evicting the
    /// least-recently-used one first when at capacity. Precondition: `key`
    /// is absent (callers always find() first under the same lock).
    Value& insert(const Key& key, Value value) {
        if (order_.size() >= capacity_) {
            const Node& victim = order_.back();
            ++stats_.evictions;
            stats_.evicted_idle_ticks += tick_ - victim.last_touch;
            index_.erase(victim.key);
            order_.pop_back();
        }
        ++tick_;
        order_.push_front(Node{key, std::move(value), tick_});
        index_.emplace(key, order_.begin());
        return order_.front().value;
    }

    [[nodiscard]] std::size_t size() const { return order_.size(); }
    [[nodiscard]] std::size_t capacity() const { return capacity_; }
    [[nodiscard]] const LruStats& stats() const { return stats_; }

  private:
    struct Node {
        Key key;
        Value value;
        std::uint64_t last_touch = 0;
    };

    std::size_t capacity_ = 1;
    std::uint64_t tick_ = 0;  // access clock: one tick per find-hit/insert
    std::list<Node> order_;   // front = most recent, back = eviction victim
    std::unordered_map<Key, typename std::list<Node>::iterator> index_;
    LruStats stats_;
};

}  // namespace rustbrain::support
