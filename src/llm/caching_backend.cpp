#include "llm/caching_backend.hpp"

#include <utility>

namespace rustbrain::llm {

PromptCache::PromptCache(std::size_t capacity_per_shard) {
    for (Shard& shard : shards_) shard.entries.configure(capacity_per_shard);
}

std::optional<ChatResponse> PromptCache::lookup(std::uint64_t key) {
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    const ChatResponse* entry = shard.entries.find(key);
    if (entry == nullptr) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    return *entry;
}

void PromptCache::insert(std::uint64_t key, const ChatResponse& response) {
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.entries.peek(key) != nullptr) {
        return;  // a racing thread inserted the identical response first
    }
    shard.entries.insert(key, response);
}

PromptCacheStats PromptCache::stats() const {
    PromptCacheStats stats;
    stats.hits = hits_.load(std::memory_order_relaxed);
    stats.misses = misses_.load(std::memory_order_relaxed);
    for (const Shard& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        stats.entries += shard.entries.size();
        const support::LruStats& lru = shard.entries.stats();
        stats.evictions += lru.evictions;
        stats.evicted_idle_ticks += lru.evicted_idle_ticks;
    }
    return stats;
}

CachingBackend::CachingBackend(std::shared_ptr<PromptCache> cache,
                               std::unique_ptr<LlmBackend> inner,
                               std::string session_tag,
                               std::uint64_t session_seed)
    : cache_(std::move(cache)),
      inner_(std::move(inner)),
      session_tag_(std::move(session_tag)),
      session_seed_(session_seed) {}

ChatResponse CachingBackend::complete(const ChatRequest& request) {
    ++calls_;
    const std::uint64_t key = call_key(session_tag_, session_seed_, request);
    if (auto cached = cache_->lookup(key)) {
        return *cached;
    }
    const ChatResponse response = inner_->complete(request);
    cache_->insert(key, response);
    return response;
}

std::string CachingBackend::description() const {
    return "cache(" + inner_->description() + ")";
}

BackendFactory caching_backend_factory(std::shared_ptr<PromptCache> cache,
                                       BackendFactory inner) {
    if (!inner) inner = sim_backend_factory();
    return [cache, inner](const ModelProfile& profile,
                          std::uint64_t session_seed) {
        return std::make_unique<CachingBackend>(cache,
                                                inner(profile, session_seed),
                                                profile.name, session_seed);
    };
}

}  // namespace rustbrain::llm
