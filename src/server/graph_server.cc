#include "src/server/graph_server.h"

#include "src/algos/programs.h"
#include "src/util/logging.h"

namespace nxgraph {

const char* QueryPhaseName(QueryPhase phase) {
  switch (phase) {
    case QueryPhase::kQueued:
      return "queued";
    case QueryPhase::kPlan:
      return "plan";
    case QueryPhase::kLoad:
      return "load";
    case QueryPhase::kApply:
      return "apply";
    case QueryPhase::kCollect:
      return "collect";
  }
  return "unknown";
}

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t)
      .count();
}

Outcome<PointResult> ExecutePoint(const PointQuery& query,
                                  const QueryContext& ctx) {
  Outcome<PointResult> out;
  if (query.kind == QueryKind::kSssp) {
    CostCappedSsspProgram program;
    program.root = query.root;
    if (query.limits.max_cost > 0) program.max_cost = query.limits.max_cost;
    auto r = RunPointTraversal(program, ctx, query.limits.max_hops,
                               query.limits.io_byte_budget);
    out.status = std::move(r.status);
    out.result.stats = r.result.stats;
    out.result.vertices = std::move(r.result.vertices);
    out.result.costs = std::move(r.result.values);
  } else {  // kBfs and kKHop: k-hop is BFS with the hop cap as the radius
    BfsProgram program;
    program.root = query.root;
    auto r = RunPointTraversal(program, ctx, query.limits.max_hops,
                               query.limits.io_byte_budget);
    out.status = std::move(r.status);
    out.result.stats = r.result.stats;
    out.result.vertices = std::move(r.result.vertices);
    out.result.hops = std::move(r.result.values);
  }
  return out;
}

}  // namespace

Result<std::unique_ptr<GraphServer>> GraphServer::Open(Env* env,
                                                       const std::string& dir,
                                                       const Options& options) {
  Options opts = options;
  if (opts.num_workers < 1) opts.num_workers = 1;
  if (opts.max_queue < 0) opts.max_queue = 0;
  if (opts.prefetch_depth < 0) opts.prefetch_depth = 0;
  if (opts.prefetch_depth > 0 && opts.io_threads < 1) opts.io_threads = 1;
  if (opts.io_threads < 0) opts.io_threads = 0;

  std::unique_ptr<GraphServer> server(new GraphServer(env, opts));
  NX_ASSIGN_OR_RETURN(server->store_, GraphStore::Open(env, dir));
  server->cache_ = std::make_unique<SubShardCache>(server->store_,
                                                   opts.cache_budget_bytes);
  server->io_pool_ = std::make_unique<ThreadPool>(opts.io_threads);
  NX_ASSIGN_OR_RETURN(server->out_degrees_, server->store_->LoadOutDegrees());
  if (server->store_->has_transpose()) {
    NX_ASSIGN_OR_RETURN(server->in_degrees_, server->store_->LoadInDegrees());
  }
  server->started_ = std::chrono::steady_clock::now();
  server->workers_.reserve(opts.num_workers);
  for (int w = 0; w < opts.num_workers; ++w) {
    server->workers_.emplace_back([s = server.get()] { s->WorkerLoop(); });
  }
  if (opts.watchdog_interval_seconds > 0) {
    server->watchdog_ = std::thread([s = server.get()] { s->WatchdogLoop(); });
  }
  return server;
}

GraphServer::GraphServer(Env* env, Options options)
    : env_(env),
      options_(std::move(options)),
      decode_path_(ResolveDecodePath(options_.simd_decode)),
      paused_(options_.start_paused) {}

GraphServer::~GraphServer() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
  for (std::thread& w : workers_) w.join();
  std::deque<Ticket> leftover;
  {
    std::lock_guard<std::mutex> lock(mu_);
    leftover.swap(queue_);
    live_.clear();
  }
  for (Ticket& t : leftover) {
    t.abort(Status::Aborted("GraphServer shutting down"));
  }
}

QueryContext GraphServer::MakeContext(LiveQuery* lq) const {
  QueryContext ctx;
  ctx.store = store_.get();
  ctx.cache = cache_.get();
  ctx.decode_path = decode_path_;
  ctx.io_pool = io_pool_.get();
  ctx.prefetch_depth = static_cast<size_t>(options_.prefetch_depth);
  // A worker holds the load it is consuming plus up to prefetch_depth loads
  // read ahead; this bound on a load's encoded bytes lets every worker's
  // pins fit in the cache at once, so row loads stay cached instead of
  // degrading to transient copies.
  ctx.max_load_bytes =
      options_.cache_budget_bytes /
      (static_cast<uint64_t>(options_.num_workers) *
       (static_cast<uint64_t>(options_.prefetch_depth) + 1));
  ctx.retry = options_.retry;
  ctx.out_degrees = &out_degrees_;
  ctx.in_degrees = &in_degrees_;
  ctx.selective = options_.selective_scheduling;
  ctx.cancel = &lq->token;
  ctx.progress = &lq->progress;
  ctx.boundary_hook = options_.boundary_hook;
  return ctx;
}

std::shared_ptr<GraphServer::LiveQuery> GraphServer::NewLiveQuery(
    std::chrono::milliseconds deadline) {
  auto lq = std::make_shared<LiveQuery>();
  lq->submitted = std::chrono::steady_clock::now();
  lq->deadline = deadline;
  lq->token = deadline.count() > 0 ? drain_token_.Child(lq->submitted + deadline)
                                   : drain_token_.Child();
  {
    std::lock_guard<std::mutex> lock(mu_);
    lq->id = next_query_id_++;
  }
  return lq;
}

void GraphServer::EnqueueTicket(std::shared_ptr<LiveQuery> lq,
                                std::function<void(double)> run,
                                std::function<void(Status)> abort) {
  Ticket ticket;
  ticket.lq = lq;
  ticket.run = std::move(run);
  ticket.abort = std::move(abort);

  Status reject;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++submitted_;
    if (stopping_) {
      reject = Status::Aborted("GraphServer shutting down");
    } else if (draining_) {
      reject = Status::Aborted("GraphServer draining; admission closed");
    } else if (queue_.size() >= static_cast<size_t>(options_.max_queue)) {
      ++rejected_;
      reject = Status::ResourceExhausted(
          "admission queue full (" + std::to_string(options_.max_queue) +
          " waiting queries)");
    } else {
      live_.emplace(lq->id, lq);
      queue_.push_back(std::move(ticket));
    }
  }
  if (!reject.ok()) {
    ticket.abort(std::move(reject));
    return;
  }
  cv_.notify_one();
}

void GraphServer::WorkerLoop() {
  for (;;) {
    Ticket ticket;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stopping_ || (!paused_ && !queue_.empty()); });
      if (stopping_) return;
      ticket = std::move(queue_.front());
      queue_.pop_front();
      // A token that fired while the query was still QUEUED: classify by
      // reason and complete without ever running. (cancelled() lazily
      // fires the deadline, replacing the old wall-clock dequeue check.)
      if (ticket.lq->token.cancelled()) {
        Status s = ticket.lq->token.ToStatus();
        switch (ticket.lq->token.reason()) {
          case CancelReason::kDeadline:
            ++shed_;
            s = Status::DeadlineExceeded(
                "deadline passed before a worker was free");
            break;
          case CancelReason::kClient:
            ++cancelled_;
            break;
          case CancelReason::kShutdown:
            ++drain_cancelled_;
            break;
          case CancelReason::kNone:
            break;
        }
        live_.erase(ticket.lq->id);
        const bool idle = queue_.empty() && running_ == 0;
        lock.unlock();
        if (idle) drained_cv_.notify_all();
        ticket.abort(std::move(s));
        continue;
      }
      ++running_;
      ticket.lq->running = true;
    }
    ticket.run(SecondsSince(ticket.lq->submitted));
    bool idle;
    {
      std::lock_guard<std::mutex> lock(mu_);
      --running_;
      idle = queue_.empty() && running_ == 0;
    }
    if (idle) drained_cv_.notify_all();
  }
}

void GraphServer::FinishQuery(const std::shared_ptr<LiveQuery>& lq,
                              const Status& status, const QueryStats& stats) {
  std::lock_guard<std::mutex> lock(mu_);
  if (status.ok() || (status.IsResourceExhausted() && stats.truncated)) {
    ++completed_;
    if (stats.truncated) ++truncated_;
  } else {
    switch (stats.cancel_reason) {
      case CancelReason::kClient:
        ++cancelled_;
        break;
      case CancelReason::kDeadline:
        ++deadline_cancelled_;
        break;
      case CancelReason::kShutdown:
        ++drain_cancelled_;
        break;
      case CancelReason::kNone:
        ++failed_;
        break;
    }
  }
  latency_ms_.Record((stats.queue_seconds + stats.run_seconds) * 1e3);
  live_.erase(lq->id);
}

QueryFuture<PointResult> GraphServer::Submit(const PointQuery& query) {
  if (query.root >= store_->num_vertices()) {
    QueryFuture<PointResult> future;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++submitted_;
      ++failed_;
    }
    future.Complete({Status::InvalidArgument(
                         "query root " + std::to_string(query.root) +
                         " out of range (" +
                         std::to_string(store_->num_vertices()) + " vertices)"),
                     {}});
    return future;
  }
  return SubmitQuery<PointResult>(
      query.limits.deadline,
      [query](const QueryContext& ctx) { return ExecutePoint(query, ctx); });
}

bool GraphServer::Cancel(uint64_t query_id) {
  std::shared_ptr<LiveQuery> lq;
  std::function<void(Status)> abort;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = live_.find(query_id);
    if (it == live_.end()) return false;
    lq = it->second;
    // If the query is still queued, pull its ticket out so a worker never
    // sees it; classify the cancel right here.
    for (auto qit = queue_.begin(); qit != queue_.end(); ++qit) {
      if (qit->lq->id == query_id) {
        abort = std::move(qit->abort);
        queue_.erase(qit);
        ++cancelled_;
        live_.erase(query_id);
        break;
      }
    }
  }
  // Fire the token outside mu_: its callbacks (single-flight waiter wakeups)
  // take unrelated locks and must not nest under the server lock.
  lq->token.Cancel(CancelReason::kClient);
  if (abort) {
    abort(Status::Cancelled("cancelled by client"));
    bool idle;
    {
      std::lock_guard<std::mutex> lock(mu_);
      idle = queue_.empty() && running_ == 0;
    }
    if (idle) drained_cv_.notify_all();
  }
  return true;
}

Status GraphServer::Drain(std::chrono::milliseconds timeout) {
  const auto start = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
    paused_ = false;  // a paused queue would never drain
  }
  cv_.notify_all();

  const auto soft_deadline = start + timeout;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (drained_cv_.wait_until(lock, soft_deadline, [&] {
          return queue_.empty() && running_ == 0;
        })) {
      return Status::OK();
    }
  }

  // Grace period expired: cancel every straggler via the drain token and
  // wait again. Running queries observe the token at their next checkpoint
  // (before each load), so this should resolve within roughly one load; the
  // hard cap below only trips if a query is truly wedged.
  drain_token_.Cancel(CancelReason::kShutdown);
  const auto hard_deadline =
      std::chrono::steady_clock::now() + timeout + std::chrono::seconds(30);
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (drained_cv_.wait_until(lock, hard_deadline, [&] {
          return queue_.empty() && running_ == 0;
        })) {
      return Status::OK();
    }
  }
  return Status::DeadlineExceeded(
      "queries still running after drain cancellation");
}

void GraphServer::WatchdogLoop() {
  const auto interval = std::chrono::duration<double>(
      options_.watchdog_interval_seconds);
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    watchdog_cv_.wait_for(lock, interval, [&] { return stopping_; });
    if (stopping_) return;
    const auto now = std::chrono::steady_clock::now();
    for (auto& [id, lq] : live_) {
      if (!lq->running || lq->stall_flagged || lq->deadline.count() <= 0) {
        continue;
      }
      const auto budget = std::chrono::duration_cast<
          std::chrono::steady_clock::duration>(
          lq->deadline * options_.stall_multiplier);
      if (now - lq->submitted <= budget) continue;
      lq->stall_flagged = true;
      ++stalled_;
      const auto phase =
          static_cast<QueryPhase>(lq->progress.phase.load(std::memory_order_relaxed));
      NX_LOG(Warn) << "stalled query " << id << ": running "
                   << std::chrono::duration<double>(now - lq->submitted).count()
                   << "s against a "
                   << std::chrono::duration<double>(lq->deadline).count()
                   << "s deadline; phase=" << QueryPhaseName(phase)
                   << " round=" << lq->progress.round.load(std::memory_order_relaxed)
                   << " blob=(" << lq->progress.i.load(std::memory_order_relaxed)
                   << "," << lq->progress.j.load(std::memory_order_relaxed) << ")";
    }
  }
}

void GraphServer::SetPaused(bool paused) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = paused;
  }
  cv_.notify_all();
}

GraphServer::Stats GraphServer::stats() const {
  Stats s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.submitted = submitted_;
    s.completed = completed_;
    s.truncated = truncated_;
    s.rejected = rejected_;
    s.shed = shed_;
    s.failed = failed_;
    s.cancelled = cancelled_;
    s.deadline_cancelled = deadline_cancelled_;
    s.drain_cancelled = drain_cancelled_;
    s.stalled = stalled_;
    s.draining = draining_;
    s.queued = queue_.size();
    s.running = running_;
    for (const auto& [id, lq] : live_) {
      if (!lq->stall_flagged) continue;
      StalledQuery sq;
      sq.id = id;
      sq.running_seconds = SecondsSince(lq->submitted);
      sq.phase = static_cast<QueryPhase>(
          lq->progress.phase.load(std::memory_order_relaxed));
      sq.round = lq->progress.round.load(std::memory_order_relaxed);
      sq.i = lq->progress.i.load(std::memory_order_relaxed);
      sq.j = lq->progress.j.load(std::memory_order_relaxed);
      s.stalled_queries.push_back(sq);
    }
    s.p50_ms = latency_ms_.Percentile(0.50);
    s.p95_ms = latency_ms_.Percentile(0.95);
    s.p99_ms = latency_ms_.Percentile(0.99);
  }
  s.uptime_seconds = SecondsSince(started_);
  s.qps = s.uptime_seconds > 0
              ? static_cast<double>(s.completed) / s.uptime_seconds
              : 0;
  s.cache = cache_->counters();
  s.cache_bytes_cached = cache_->bytes_cached();
  const double lookups = static_cast<double>(s.cache.hits + s.cache.misses);
  s.cache_hit_rate = lookups > 0 ? static_cast<double>(s.cache.hits) / lookups : 0;
  s.decode_path = DecodePathName(decode_path_);
  s.bulk_decode_calls = store_->bulk_decode_calls();
  s.decode_seconds = static_cast<double>(store_->decode_nanos()) / 1e9;
  return s;
}

}  // namespace nxgraph
