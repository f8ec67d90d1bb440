#include "serve/service.hpp"

#include <exception>
#include <stdexcept>
#include <utility>

#include "core/thinking_policy.hpp"

namespace rustbrain::serve {

namespace {

double elapsed_ms(std::chrono::steady_clock::time_point since) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - since)
        .count();
}

}  // namespace

RepairService::RepairService(ServiceOptions options)
    : options_(std::move(options)),
      pool_(options_.workers),
      prompt_cache_(std::make_shared<llm::PromptCache>()) {
    if (options_.oracle != nullptr) {
        oracle_ = options_.oracle;
    } else {
        verify::OracleOptions oracle_options;
        oracle_options.cache = std::make_shared<verify::VerifyCache>();
        oracle_ = std::make_shared<verify::Oracle>(std::move(oracle_options));
    }
    // Validate the default strategy eagerly: a typo in default_engine or
    // default_policy must fail service construction with the registry's
    // help text, not surface as an error response on every request.
    core::EngineBuildContext probe;
    probe.knowledge_base = options_.knowledge_base;
    probe.oracle = oracle_;
    core::EngineOptions probe_options;
    if (!options_.default_policy.empty()) {
        core::set_policy_option(probe_options, options_.default_policy);
    }
    (void)core::EngineRegistry::builtin().build(options_.default_engine,
                                                probe_options, probe);
}

RepairService::~RepairService() {
    // pool_ is declared before the shared stores, so it is destroyed after
    // them: drain every queued and running request while they still exist.
    // An error a job raised outside the repair (a throwing completion
    // callback or trace sink) has nowhere to go from a destructor.
    try {
        pool_.wait_idle();
    } catch (...) {
    }
}

void RepairService::emit(const core::TraceEvent& event) {
    if (options_.trace == nullptr) return;
    const std::lock_guard<std::mutex> lock(trace_mutex_);
    options_.trace->on_event(event);
}

bool RepairService::admit(RepairResponse& shed_response) {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++totals_.submitted;
    const std::uint64_t inflight =
        totals_.submitted - totals_.completed - totals_.shed - 1;
    const char* breach = nullptr;
    if (options_.max_inflight > 0 && inflight >= options_.max_inflight) {
        breach = "in-flight requests";
    } else if (options_.max_queue_ms > 0.0 && inflight > pool_.size() &&
               last_queue_ms_ > options_.max_queue_ms) {
        breach = "queue latency";
    }
    if (breach == nullptr) return true;
    ++totals_.shed;
    // Retry advice: the backlog divided across the workers, scaled by the
    // average per-request execution time observed so far.
    double avg_exec_ms = 1.0;
    if (totals_.completed > 0) {
        avg_exec_ms = (totals_.service_ms_total - totals_.queue_ms_total) /
                      static_cast<double>(totals_.completed);
        if (avg_exec_ms < 1.0) avg_exec_ms = 1.0;
    }
    shed_response.ok = false;
    shed_response.shed = true;
    shed_response.retry_after_ms = avg_exec_ms *
                                   static_cast<double>(inflight) /
                                   static_cast<double>(pool_.size());
    if (shed_response.retry_after_ms < 1.0) shed_response.retry_after_ms = 1.0;
    shed_response.error =
        std::string("service overloaded (") + breach +
        " over the configured limit); request was not queued — retry in ~" +
        std::to_string(shed_response.retry_after_ms) + " ms";
    return false;
}

void RepairService::submit_async(RepairRequest request,
                                 std::function<void(RepairResponse)> done) {
    const auto submitted_at = std::chrono::steady_clock::now();
    RepairResponse shed_response;
    shed_response.ticket = request.ticket;
    if (!admit(shed_response)) {
        done(std::move(shed_response));
        return;
    }
    pool_.submit([this, request = std::move(request), done = std::move(done),
                  submitted_at](std::size_t worker) {
        const double queue_ms = elapsed_ms(submitted_at);
        done(handle(request, worker, queue_ms, submitted_at));
    });
}

std::future<RepairResponse> RepairService::submit(RepairRequest request) {
    auto promise = std::make_shared<std::promise<RepairResponse>>();
    std::future<RepairResponse> future = promise->get_future();
    submit_async(std::move(request), [promise](RepairResponse response) {
        promise->set_value(std::move(response));
    });
    return future;
}

RepairResponse RepairService::repair(RepairRequest request) {
    return submit(std::move(request)).get();
}

std::vector<RepairResponse> RepairService::run_batch(
    std::vector<RepairRequest> requests) {
    std::vector<std::future<RepairResponse>> futures;
    futures.reserve(requests.size());
    for (RepairRequest& request : requests) {
        futures.push_back(submit(std::move(request)));
    }
    // Ordered merge, exactly as BatchRunner reassembles case-index order:
    // whichever worker ran it, response i is request i.
    std::vector<RepairResponse> responses;
    responses.reserve(futures.size());
    for (std::future<RepairResponse>& future : futures) {
        responses.push_back(future.get());
    }
    return responses;
}

RepairResponse RepairService::handle(
    const RepairRequest& request, std::size_t worker, double queue_ms,
    std::chrono::steady_clock::time_point submitted_at) {
    const std::string engine_id =
        request.engine.empty() ? options_.default_engine : request.engine;
    {
        // Dequeue-time accounting: the admission check wants the freshest
        // congestion signal, not one delayed by the repair itself.
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        last_queue_ms_ = queue_ms;
        queue_samples_.add(queue_ms);
    }
    emit({core::TraceEventKind::ServiceQueue, engine_id,
          static_cast<std::uint64_t>(queue_ms * 1000.0), 0.0});

    RepairResponse response;
    response.ticket = request.ticket;
    response.worker = worker;
    response.queue_ms = queue_ms;

    // A request that opts into feedback starts from a private snapshot of
    // the warm store; only the delta it adds is merged back (journal
    // replay), so concurrent requests never double-count the shared prefix.
    std::unique_ptr<core::FeedbackStore> snapshot;
    std::uint64_t snapshot_records = 0;
    if (request.use_feedback) {
        const std::lock_guard<std::mutex> lock(feedback_mutex_);
        snapshot = std::make_unique<core::FeedbackStore>(feedback_);
        snapshot_records = snapshot->records();
    }

    try {
        core::EngineOptions engine_options =
            core::EngineOptions::parse(request.options);
        const std::string policy_spec =
            request.policy.empty() ? options_.default_policy : request.policy;
        if (!policy_spec.empty()) {
            core::set_policy_option(engine_options, policy_spec);
        }
        core::EngineBuildContext context;
        context.knowledge_base = options_.knowledge_base;
        context.oracle = oracle_;
        context.backend_factory = llm::caching_backend_factory(prompt_cache_);
        // Null feedback (not an empty store) when the request opted out —
        // matching BatchRunner's registry constructor, which nulls
        // context.feedback, is what keeps deterministic mode byte-identical.
        context.feedback = snapshot.get();
        const std::unique_ptr<core::RepairEngine> engine =
            core::EngineRegistry::builtin().build(engine_id, engine_options,
                                                  context);
        response.result = engine->repair(request.ub_case);
        response.ok = true;
    } catch (const std::exception& error) {
        response.error = error.what();
    }

    std::uint64_t absorbed = 0;
    if (snapshot != nullptr) {
        const std::lock_guard<std::mutex> lock(feedback_mutex_);
        const std::uint64_t before = feedback_.records();
        feedback_.absorb(*snapshot, snapshot_records);
        absorbed = feedback_.records() - before;
    }

    response.service_ms = elapsed_ms(submitted_at);
    {
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        ++totals_.completed;
        if (!response.ok) ++totals_.failed;
        totals_.queue_ms_total += response.queue_ms;
        if (response.queue_ms > totals_.queue_ms_max) {
            totals_.queue_ms_max = response.queue_ms;
        }
        totals_.service_ms_total += response.service_ms;
        if (request.use_feedback) {
            ++totals_.feedback_requests;
            totals_.feedback_records_absorbed += absorbed;
        }
    }
    emit({core::TraceEventKind::ServiceComplete, request.ub_case.id,
          static_cast<std::uint64_t>(response.service_ms * 1000.0), 0.0});
    return response;
}

ServiceStats RepairService::stats() const {
    ServiceStats stats;
    {
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        stats = totals_;
        stats.queue_ms_p50 = queue_samples_.percentile(0.50);
        stats.queue_ms_p95 = queue_samples_.percentile(0.95);
        stats.queue_ms_p99 = queue_samples_.percentile(0.99);
    }
    stats.prompt_cache = prompt_cache_->stats();
    stats.verify_cache = oracle_->stats();
    return stats;
}

core::FeedbackStore RepairService::feedback_snapshot() const {
    const std::lock_guard<std::mutex> lock(feedback_mutex_);
    return feedback_;
}

}  // namespace rustbrain::serve
