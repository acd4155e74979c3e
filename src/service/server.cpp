#include "service/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/problem.h"
#include "core/session.h"
#include "netlist/ispd98_synth.h"
#include "netlist/synthetic.h"
#include "obs/trace.h"
#include "router/route_types.h"
#include "store/artifact_store.h"
#include "util/stopwatch.h"

namespace rlcr::service {

namespace {

constexpr const char* kServerName = "rlcr-whatif";
constexpr std::uint32_t kMaxPollWaitMs = 60'000;

bool validate_query(const WhatIfQuery& q) {
  if (q.flow > 2) return false;
  // Every double must be finite: the suites cast count * scale to an
  // integer. Scale 1.0 is the published circuit size, and larger scales
  // would let one query build an arbitrarily large problem.
  for (const double v : {q.scale, q.rate, q.bound_v, q.scenario_bound_v,
                         q.scenario_margin}) {
    if (!std::isfinite(v)) return false;
  }
  if (!(q.scale > 0.0 && q.scale <= 1.0)) return false;
  if (!(q.rate >= 0.0 && q.rate <= 1.0)) return false;
  if (!(q.bound_v > 0.0)) return false;
  if (q.source == QuerySource::kTiny) {
    if (q.tiny_nets == 0 || q.tiny_nets > 1'000'000) return false;
  } else if (q.circuit.empty()) {
    return false;
  }
  if (q.has_bound && !(q.scenario_bound_v > 0.0)) return false;
  if (q.has_margin && !(q.scenario_margin > 0.0)) return false;
  return true;
}

/// a += (after - before), field by field — the per-job delta fold that
/// keeps the server's aggregate immune to session eviction.
void fold_delta(gsino::StageCounters& a, const gsino::StageCounters& before,
                const gsino::StageCounters& after) {
  const auto add = [](std::size_t& acc, std::size_t b, std::size_t c) {
    acc += c - b;
  };
  add(a.route_requests, before.route_requests, after.route_requests);
  add(a.route_executed, before.route_executed, after.route_executed);
  add(a.route_loaded, before.route_loaded, after.route_loaded);
  add(a.budget_requests, before.budget_requests, after.budget_requests);
  add(a.budget_executed, before.budget_executed, after.budget_executed);
  add(a.budget_loaded, before.budget_loaded, after.budget_loaded);
  add(a.solve_requests, before.solve_requests, after.solve_requests);
  add(a.solve_executed, before.solve_executed, after.solve_executed);
  add(a.solve_loaded, before.solve_loaded, after.solve_loaded);
  add(a.refine_requests, before.refine_requests, after.refine_requests);
  add(a.refine_executed, before.refine_executed, after.refine_executed);
  add(a.refine_loaded, before.refine_loaded, after.refine_loaded);
}

}  // namespace

// ------------------------------------------- shared query interpretation

std::unique_ptr<gsino::RoutingProblem> assemble_problem(
    const WhatIfQuery& q, int job_threads, std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return nullptr;
  };
  if (!validate_query(q)) return fail("query failed validation");

  gsino::GsinoParams params;
  params.sensitivity_rate = q.rate;
  params.crosstalk_bound_v = q.bound_v;
  params.seed = q.seed;
  params.threads = job_threads;
  params.router.threads = job_threads;

  netlist::Netlist design;
  grid::RegionGridSpec gspec;
  switch (q.source) {
    case QuerySource::kTiny: {
      const netlist::SyntheticSpec spec =
          netlist::tiny_spec(static_cast<std::size_t>(q.tiny_nets), q.seed);
      design = netlist::generate(spec);
      gspec = spec.grid_spec();
      break;
    }
    case QuerySource::kSynthetic: {
      const auto suite = netlist::ibm_suite(q.scale);
      const netlist::SyntheticSpec* spec = nullptr;
      for (const netlist::SyntheticSpec& s : suite) {
        if (s.name == q.circuit) spec = &s;
      }
      if (spec == nullptr) return fail("unknown circuit '" + q.circuit + "'");
      design = netlist::generate(*spec);
      gspec = spec->grid_spec();
      break;
    }
    case QuerySource::kIspd98: {
      const auto classes = netlist::ispd98_classes(q.scale);
      const netlist::Ispd98ClassSpec* spec =
          netlist::find_ispd98_class(classes, q.circuit);
      if (spec == nullptr) {
        return fail("unknown ISPD98 class '" + q.circuit + "'");
      }
      netlist::Ispd98Instance inst = netlist::make_ispd98_instance(*spec);
      design = std::move(inst.design);
      gspec = inst.gspec;
      break;
    }
  }
  return std::make_unique<gsino::RoutingProblem>(design, gspec, params);
}

gsino::Scenario scenario_of(const WhatIfQuery& q) {
  gsino::Scenario s;
  if (q.has_bound) s.bound_v = q.scenario_bound_v;
  if (q.has_margin) s.budget_margin = q.scenario_margin;
  if (q.has_anneal) s.anneal_phase2 = q.scenario_anneal;
  return s;
}

FlowSummary summarize(const gsino::FlowResult& fr) {
  FlowSummary s;
  s.flow = static_cast<std::uint8_t>(fr.kind);
  s.bound_v = fr.bound_v;
  s.route_hash = router::route_hash(fr.routing());
  s.state_hash = gsino::state_fingerprint(fr);
  s.violating = fr.violating;
  s.unfixable = fr.unfixable;
  s.total_wirelength_um = fr.total_wirelength_um;
  s.avg_wirelength_um = fr.avg_wirelength_um;
  s.total_shields = fr.total_shields;
  s.route_s = fr.timing.route_s;
  s.sino_s = fr.timing.sino_s;
  s.refine_s = fr.timing.refine_s;
  return s;
}

// ----------------------------------------------------------------- Impl

struct Server::Impl {
  explicit Impl(const ServerOptions& o) : options(o) {}

  struct Job {
    std::uint64_t ticket = 0;
    std::uint64_t coalesce_key = 0;
    std::uint64_t session_key = 0;
    WhatIfQuery query;
    JobState state = JobState::kQueued;
    FlowSummary summary;
    std::string error;
    /// Every client id attached to this ticket (duplicates allowed: the
    /// same client may submit the identical query twice); each attach is
    /// one in-flight unit released at the terminal transition.
    std::vector<std::uint64_t> clients;
  };

  struct ClientRec {
    std::deque<std::uint64_t> fifo;  ///< queued tickets, submit order
    std::size_t inflight = 0;
  };

  /// One hot problem + session. FlowSession is not internally locked;
  /// run_mu serializes both lazy construction and every run() on it.
  struct SessionEntry {
    std::uint64_t key = 0;
    std::mutex run_mu;
    std::unique_ptr<gsino::RoutingProblem> problem;
    std::unique_ptr<gsino::FlowSession> session;
    std::uint64_t last_used = 0;  ///< recency stamp (guarded by Impl::mu)
  };

  ServerOptions options;

  mutable std::mutex mu;
  std::condition_variable job_cv;   ///< workers: work available / stop
  std::condition_variable done_cv;  ///< pollers: some job went terminal
  bool started = false;
  bool stopping = false;
  int listen_fd = -1;
  std::thread accept_thread;
  std::vector<std::thread> worker_threads;
  std::vector<std::thread> conn_threads;
  std::vector<int> conn_fds;

  ServiceStats stats;
  gsino::StageCounters agg;  ///< session counter deltas of completed jobs
  std::uint64_t next_client = 0;
  std::uint64_t next_ticket = 0;
  std::uint64_t use_counter = 0;
  std::size_t queued = 0;

  std::unordered_map<std::uint64_t, std::shared_ptr<Job>> jobs;
  /// coalesce key -> ticket, for queued/running jobs only (retired at the
  /// terminal transition — a finished answer is served by the session
  /// cache, not by this table).
  std::unordered_map<std::uint64_t, std::uint64_t> live_by_key;
  std::unordered_map<std::uint64_t, ClientRec> clients;
  std::vector<std::uint64_t> rr_order;  ///< round-robin client cursor order
  std::size_t rr_next = 0;
  std::unordered_map<std::uint64_t, std::shared_ptr<SessionEntry>> sessions;

  // ---- lifecycle -------------------------------------------------------

  bool start(std::string* error);
  void stop();
  void accept_loop();
  void serve_conn(int fd);
  void worker_loop();

  // ---- request handling (conn threads) ---------------------------------

  SubmitAck handle_submit(std::uint64_t client_id, const WhatIfQuery& query);
  Result handle_poll(const Poll& poll);
  CancelAck handle_cancel(const Cancel& cancel);

  // ---- execution (worker threads) --------------------------------------

  std::shared_ptr<Job> next_job_locked();
  void execute(const std::shared_ptr<Job>& job);
  std::shared_ptr<SessionEntry> session_for_locked(std::uint64_t key);
  void evict_sessions_locked();
  void finish(const std::shared_ptr<Job>& job, JobState state);

  obs::MetricsSnapshot metrics() const;
};

bool Server::Impl::start(std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    if (listen_fd >= 0) {
      ::close(listen_fd);
      listen_fd = -1;
    }
    return false;
  };
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options.socket_path.empty() ||
      options.socket_path.size() >= sizeof addr.sun_path) {
    return fail("socket path empty or too long for sockaddr_un");
  }
  std::memcpy(addr.sun_path, options.socket_path.c_str(),
              options.socket_path.size() + 1);
  listen_fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd < 0) return fail("socket(): " + std::string(strerror(errno)));
  ::unlink(options.socket_path.c_str());  // stale socket from a dead server
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0) {
    return fail("bind(" + options.socket_path +
                "): " + std::string(strerror(errno)));
  }
  if (::listen(listen_fd, 64) != 0) {
    return fail("listen(): " + std::string(strerror(errno)));
  }

  started = true;
  stopping = false;
  accept_thread = std::thread([this] { accept_loop(); });
  const int workers = std::max(1, options.workers);
  worker_threads.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    worker_threads.emplace_back([this] { worker_loop(); });
  }
  return true;
}

void Server::Impl::stop() {
  {
    std::lock_guard<std::mutex> lock(mu);
    if (!started || stopping) return;
    stopping = true;
    // Fail everything still queued so pollers get a terminal answer and
    // workers have nothing left to pick up.
    for (auto& [ticket, job] : jobs) {
      if (job->state == JobState::kQueued) {
        job->state = JobState::kFailed;
        job->error = "server stopped";
        live_by_key.erase(job->coalesce_key);
        for (const std::uint64_t cid : job->clients) {
          auto it = clients.find(cid);
          if (it != clients.end() && it->second.inflight > 0) {
            --it->second.inflight;
          }
        }
      }
    }
    queued = 0;
    stats.queue_depth = 0;
    // Wake blocked readers: shutdown() forces recv() to return 0.
    for (const int fd : conn_fds) ::shutdown(fd, SHUT_RDWR);
  }
  job_cv.notify_all();
  done_cv.notify_all();

  if (accept_thread.joinable()) accept_thread.join();
  for (std::thread& t : worker_threads) {
    if (t.joinable()) t.join();
  }
  // Conn threads exit once their peer closes or the shutdown() above lands.
  std::vector<std::thread> conns;
  {
    std::lock_guard<std::mutex> lock(mu);
    conns.swap(conn_threads);
  }
  for (std::thread& t : conns) {
    if (t.joinable()) t.join();
  }
  if (listen_fd >= 0) {
    ::close(listen_fd);
    listen_fd = -1;
  }
  ::unlink(options.socket_path.c_str());
  {
    std::lock_guard<std::mutex> lock(mu);
    started = false;
  }
}

void Server::Impl::accept_loop() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (stopping) return;
    }
    pollfd p{listen_fd, POLLIN, 0};
    const int rc = ::poll(&p, 1, /*timeout_ms=*/200);
    if (rc <= 0) continue;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) continue;
    std::lock_guard<std::mutex> lock(mu);
    if (stopping) {
      ::close(fd);
      return;
    }
    conn_fds.push_back(fd);
    ++stats.connections_opened;
    ++stats.connections_open;
    conn_threads.emplace_back([this, fd] { serve_conn(fd); });
  }
}

void Server::Impl::serve_conn(int fd) {
  FrameReader reader(fd);
  bool hello_done = false;
  std::uint64_t client_id = 0;
  const auto bail = [fd](ErrorCode code, const std::string& message) {
    Error err;
    err.code = code;
    err.message = message;
    send_frame(fd, encode(err));
  };

  for (;;) {
    Frame frame;
    const FrameReader::Status st = reader.next(&frame);
    if (st == FrameReader::Status::kClosed ||
        st == FrameReader::Status::kError) {
      break;
    }
    if (st == FrameReader::Status::kBad) {
      {
        std::lock_guard<std::mutex> lock(mu);
        ++stats.malformed_frames;
      }
      bail(ErrorCode::kMalformed, "malformed frame");
      break;
    }

    if (!hello_done) {
      const std::optional<Hello> hello = decode<Hello>(frame);
      if (!hello) {
        std::lock_guard<std::mutex> lock(mu);
        ++stats.malformed_frames;
      }
      if (!hello || frame.type != PduType::kHello) {
        bail(frame.type == PduType::kHello ? ErrorCode::kMalformed
                                           : ErrorCode::kNeedHello,
             "expected Hello");
        break;
      }
      if (hello->protocol_version != kProtocolVersion) {
        bail(ErrorCode::kMalformed, "protocol version mismatch");
        break;
      }
      HelloAck ack;
      ack.server_name = kServerName;
      {
        std::lock_guard<std::mutex> lock(mu);
        client_id = ++next_client;
        clients.emplace(client_id, ClientRec{});
        rr_order.push_back(client_id);
      }
      ack.client_id = client_id;
      if (!send_frame(fd, encode(ack))) break;
      hello_done = true;
      continue;
    }

    bool sent = true;
    if (const auto submit = decode<Submit>(frame)) {
      sent = send_frame(fd, encode(handle_submit(client_id, submit->query)));
    } else if (const auto poll_pdu = decode<Poll>(frame)) {
      sent = send_frame(fd, encode(handle_poll(*poll_pdu)));
    } else if (const auto cancel = decode<Cancel>(frame)) {
      sent = send_frame(fd, encode(handle_cancel(*cancel)));
    } else if (decode<Stats>(frame)) {
      const obs::MetricsSnapshot snap = metrics();
      StatsReply reply;
      reply.metrics.reserve(snap.metrics().size());
      for (const obs::Metric& m : snap.metrics()) {
        reply.metrics.push_back(StatsReply::Metric{
            m.name, m.kind == obs::MetricKind::kGauge ? std::uint8_t{1}
                                                      : std::uint8_t{0},
            m.value});
      }
      sent = send_frame(fd, encode(reply));
    } else {
      // Valid frame, but either a server-to-client type or a payload that
      // failed decode — per the protocol contract, reject and close.
      {
        std::lock_guard<std::mutex> lock(mu);
        ++stats.malformed_frames;
      }
      bail(ErrorCode::kUnsupported, "unhandled PDU");
      break;
    }
    if (!sent) break;
  }

  ::close(fd);
  std::lock_guard<std::mutex> lock(mu);
  --stats.connections_open;
  conn_fds.erase(std::remove(conn_fds.begin(), conn_fds.end(), fd),
                 conn_fds.end());
}

SubmitAck Server::Impl::handle_submit(std::uint64_t client_id,
                                      const WhatIfQuery& query) {
  SubmitAck ack;
  std::lock_guard<std::mutex> lock(mu);
  ++stats.submits;
  if (stopping) {
    ack.reject = RejectReason::kShuttingDown;
    return ack;
  }
  if (!validate_query(query)) {
    ++stats.rejected_bad_query;
    ack.reject = RejectReason::kBadQuery;
    return ack;
  }
  ClientRec& rec = clients[client_id];
  if (rec.inflight >= options.max_inflight_per_client) {
    ++stats.rejected_inflight_cap;
    ack.reject = RejectReason::kInflightCap;
    return ack;
  }

  const std::uint64_t ckey = query_coalesce_key(query);
  if (const auto live = live_by_key.find(ckey); live != live_by_key.end()) {
    // Same (problem, flow, scenario) already queued or running: attach.
    const std::shared_ptr<Job>& job = jobs.at(live->second);
    job->clients.push_back(client_id);
    ++rec.inflight;
    ++stats.coalesce_hits;
    ++stats.accepted;
    ack.ticket = job->ticket;
    ack.coalesced = 1;
    return ack;
  }

  if (queued >= options.max_queue) {
    ++stats.rejected_queue_full;
    ack.reject = RejectReason::kQueueFull;
    return ack;
  }

  auto job = std::make_shared<Job>();
  job->ticket = ++next_ticket;
  job->coalesce_key = ckey;
  job->session_key = query_session_key(query);
  job->query = query;
  job->clients.push_back(client_id);
  jobs.emplace(job->ticket, job);
  live_by_key.emplace(ckey, job->ticket);
  rec.fifo.push_back(job->ticket);
  ++rec.inflight;
  ++queued;
  stats.queue_depth = queued;
  stats.queue_peak = std::max(stats.queue_peak, queued);
  ++stats.accepted;
  ack.ticket = job->ticket;
  job_cv.notify_one();
  return ack;
}

Result Server::Impl::handle_poll(const Poll& poll) {
  Result res;
  res.ticket = poll.ticket;
  std::unique_lock<std::mutex> lock(mu);
  const auto it = jobs.find(poll.ticket);
  if (it == jobs.end()) {
    res.state = JobState::kFailed;
    res.error = "unknown ticket";
    return res;
  }
  const std::shared_ptr<Job> job = it->second;
  const auto terminal = [&] {
    return stopping || job->state == JobState::kDone ||
           job->state == JobState::kFailed ||
           job->state == JobState::kCancelled;
  };
  if (poll.wait_ms > 0 && !terminal()) {
    done_cv.wait_for(lock,
                     std::chrono::milliseconds(
                         std::min(poll.wait_ms, kMaxPollWaitMs)),
                     terminal);
  }
  res.state = job->state;
  if (job->state == JobState::kDone) res.summary = job->summary;
  if (job->state == JobState::kFailed) res.error = job->error;
  return res;
}

CancelAck Server::Impl::handle_cancel(const Cancel& cancel) {
  CancelAck ack;
  ack.ticket = cancel.ticket;
  std::lock_guard<std::mutex> lock(mu);
  const auto it = jobs.find(cancel.ticket);
  // Only a still-queued job can be cancelled; running compute is never
  // interrupted (it may be coalesced with other clients, and a FlowSession
  // mid-run has no safe preemption point).
  if (it == jobs.end() || it->second->state != JobState::kQueued) {
    return ack;
  }
  const std::shared_ptr<Job>& job = it->second;
  job->state = JobState::kCancelled;
  live_by_key.erase(job->coalesce_key);
  for (const std::uint64_t cid : job->clients) {
    auto cit = clients.find(cid);
    if (cit != clients.end() && cit->second.inflight > 0) {
      --cit->second.inflight;
    }
  }
  // The fifo entry stays as a tombstone; dispatch skips non-queued jobs.
  --queued;
  stats.queue_depth = queued;
  ++stats.cancelled;
  ack.cancelled = 1;
  done_cv.notify_all();
  return ack;
}

std::shared_ptr<Server::Impl::Job> Server::Impl::next_job_locked() {
  // Fair FIFO: resume the round-robin cursor where it left off, take the
  // oldest queued job of the first client that has one.
  for (std::size_t i = 0; i < rr_order.size(); ++i) {
    const std::size_t at = (rr_next + i) % rr_order.size();
    ClientRec& rec = clients[rr_order[at]];
    while (!rec.fifo.empty()) {
      const auto it = jobs.find(rec.fifo.front());
      if (it == jobs.end() || it->second->state != JobState::kQueued) {
        rec.fifo.pop_front();  // cancelled/failed tombstone
        continue;
      }
      rec.fifo.pop_front();
      rr_next = (at + 1) % rr_order.size();
      return it->second;
    }
  }
  return nullptr;
}

void Server::Impl::worker_loop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mu);
      job_cv.wait(lock, [&] { return stopping || queued > 0; });
      if (stopping) return;
      job = next_job_locked();
      if (job == nullptr) continue;  // raced another worker
      --queued;
      stats.queue_depth = queued;
      job->state = JobState::kRunning;
    }
    execute(job);
  }
}

std::shared_ptr<Server::Impl::SessionEntry> Server::Impl::session_for_locked(
    std::uint64_t key) {
  auto it = sessions.find(key);
  std::shared_ptr<SessionEntry> entry;
  if (it != sessions.end()) {
    entry = it->second;
    ++stats.session_warm_hits;
    entry->last_used = ++use_counter;
  } else {
    entry = std::make_shared<SessionEntry>();
    entry->key = key;
    entry->last_used = ++use_counter;  // stamp before eviction scans
    sessions.emplace(key, entry);
    evict_sessions_locked();
  }
  return entry;
}

void Server::Impl::evict_sessions_locked() {
  while (sessions.size() > options.max_sessions) {
    auto victim = sessions.end();
    for (auto it = sessions.begin(); it != sessions.end(); ++it) {
      if (victim == sessions.end() ||
          it->second->last_used < victim->second->last_used) {
        victim = it;
      }
    }
    if (victim == sessions.end()) return;
    // Dropping the map reference is all eviction means: a worker mid-run
    // keeps its shared_ptr alive, and the next query on this key rebuilds
    // (warm-starting from the shared store when one is attached).
    sessions.erase(victim);
    ++stats.sessions_evicted;
  }
}

void Server::Impl::execute(const std::shared_ptr<Job>& job) {
  RLCR_TRACE_SPAN(span, "service.job", "service");
  span.arg("ticket", static_cast<double>(job->ticket));
  span.arg("flow", static_cast<double>(job->query.flow));
  util::Stopwatch watch;

  std::shared_ptr<SessionEntry> entry;
  {
    std::lock_guard<std::mutex> lock(mu);
    entry = session_for_locked(job->session_key);
  }

  try {
    std::lock_guard<std::mutex> run_lock(entry->run_mu);
    if (entry->problem == nullptr) {
      RLCR_TRACE_SPAN(assemble_span, "service.assemble", "service");
      std::string why;
      entry->problem =
          assemble_problem(job->query, options.job_threads, &why);
      if (entry->problem == nullptr) {
        std::lock_guard<std::mutex> lock(mu);
        sessions.erase(entry->key);
        job->error = why;
        finish(job, JobState::kFailed);
        return;
      }
      gsino::SessionOptions sopt;
      sopt.store = options.store;
      entry->session = std::make_unique<gsino::FlowSession>(*entry->problem,
                                                            std::move(sopt));
      std::lock_guard<std::mutex> lock(mu);
      ++stats.sessions_created;
    }

    const gsino::StageCounters before = entry->session->counters();
    const gsino::FlowResult fr = entry->session->run(
        static_cast<gsino::FlowKind>(job->query.flow),
        scenario_of(job->query));
    const gsino::StageCounters after = entry->session->counters();

    job->summary = summarize(fr);
    job->summary.compute_s = watch.seconds();
    job->summary.warm = after.route_executed == before.route_executed ? 1 : 0;
    {
      std::lock_guard<std::mutex> lock(mu);
      fold_delta(agg, before, after);
      finish(job, JobState::kDone);
    }
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> lock(mu);
    job->error = e.what();
    finish(job, JobState::kFailed);
  }
}

/// Terminal transition; callers hold `mu`.
void Server::Impl::finish(const std::shared_ptr<Job>& job, JobState state) {
  job->state = state;
  live_by_key.erase(job->coalesce_key);
  for (const std::uint64_t cid : job->clients) {
    auto it = clients.find(cid);
    if (it != clients.end() && it->second.inflight > 0) --it->second.inflight;
  }
  if (state == JobState::kDone) {
    ++stats.jobs_executed;
  } else if (state == JobState::kFailed) {
    ++stats.jobs_failed;
  }
  done_cv.notify_all();
}

obs::MetricsSnapshot Server::Impl::metrics() const {
  obs::MetricsSnapshot snap;
  {
    std::lock_guard<std::mutex> lock(mu);
    const ServiceStats& s = stats;
    snap.set_counter("service.connections_opened",
                     static_cast<double>(s.connections_opened));
    snap.set_gauge("service.connections_open",
                   static_cast<double>(s.connections_open));
    snap.set_counter("service.submits", static_cast<double>(s.submits));
    snap.set_counter("service.accepted", static_cast<double>(s.accepted));
    snap.set_counter("service.rejected_queue_full",
                     static_cast<double>(s.rejected_queue_full));
    snap.set_counter("service.rejected_inflight_cap",
                     static_cast<double>(s.rejected_inflight_cap));
    snap.set_counter("service.rejected_bad_query",
                     static_cast<double>(s.rejected_bad_query));
    snap.set_counter("service.coalesce_hits",
                     static_cast<double>(s.coalesce_hits));
    snap.set_counter("service.jobs_executed",
                     static_cast<double>(s.jobs_executed));
    snap.set_counter("service.jobs_failed",
                     static_cast<double>(s.jobs_failed));
    snap.set_counter("service.cancelled", static_cast<double>(s.cancelled));
    snap.set_counter("service.sessions_created",
                     static_cast<double>(s.sessions_created));
    snap.set_counter("service.sessions_evicted",
                     static_cast<double>(s.sessions_evicted));
    snap.set_counter("service.session_warm_hits",
                     static_cast<double>(s.session_warm_hits));
    snap.set_gauge("service.queue_depth",
                   static_cast<double>(s.queue_depth));
    snap.set_counter("service.queue_peak",
                     static_cast<double>(s.queue_peak));
    snap.set_counter("service.malformed_frames",
                     static_cast<double>(s.malformed_frames));
    snap.set_gauge("service.sessions_open",
                   static_cast<double>(sessions.size()));
    obs::append_metrics(snap, agg);
  }
  if (options.store != nullptr) {
    obs::append_metrics(snap, options.store->stats());
  }
  return snap;
}

// --------------------------------------------------------------- Server

Server::Server(ServerOptions options)
    : options_(std::move(options)), impl_(std::make_unique<Impl>(options_)) {}

Server::~Server() { stop(); }

bool Server::start(std::string* error) { return impl_->start(error); }

void Server::stop() { impl_->stop(); }

bool Server::running() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->started && !impl_->stopping;
}

bool Server::preload(const WhatIfQuery& query, std::string* error) {
  std::string why;
  std::unique_ptr<gsino::RoutingProblem> problem =
      assemble_problem(query, options_.job_threads, &why);
  if (problem == nullptr) {
    if (error != nullptr) *error = why;
    return false;
  }
  auto entry = std::make_shared<Impl::SessionEntry>();
  entry->key = query_session_key(query);
  entry->problem = std::move(problem);
  gsino::SessionOptions sopt;
  sopt.store = options_.store;
  entry->session = std::make_unique<gsino::FlowSession>(*entry->problem,
                                                        std::move(sopt));
  std::lock_guard<std::mutex> lock(impl_->mu);
  if (impl_->sessions.count(entry->key) != 0) return true;  // already hot
  entry->last_used = ++impl_->use_counter;
  impl_->sessions.emplace(entry->key, std::move(entry));
  ++impl_->stats.sessions_created;
  impl_->evict_sessions_locked();
  return true;
}

ServiceStats Server::stats() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->stats;
}

obs::MetricsSnapshot Server::metrics() const { return impl_->metrics(); }

}  // namespace rlcr::service
