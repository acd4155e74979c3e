// whatif_service: served what-if queries. An in-process service::Server on
// a Unix socket (workers=2, job_threads=2, a fresh ArtifactStore) holds
// the ibm01 and ibm02 ISPD98 classes at scale 0.10, preloaded and with
// Phase I warmed up in set-up. Two closed-loop clients then replay a seeded
// query plan: each its own design, 3 GSINO : 1 iSINO, bounds from a
// 0.100-0.250 V ladder, and 1 query in 8 repeating the other client's
// query at the same index. The warm-up answers and a seeded sample of
// the plan's answers are re-run in-process through FlowSession::run and
// must match bit for bit.
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <thread>

#include "flow.h"
#include "service/client.h"
#include "service/server.h"
#include "store/artifact_store.h"
#include "util/rng.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace service = rlcr::service;
using rlcr::util::SplitMix64;
using rlcr::util::Xoshiro256;

constexpr int kClients = 2;
constexpr const char* kRecipes[] = {"ibm01", "ibm02"};
constexpr double kBaseBound = 0.15;
constexpr std::size_t kRungs = 151;  // 0.100, 0.101, ..., 0.250 V

service::WhatIfQuery recipe(double scale, const char* circuit, int flow) {
  service::WhatIfQuery q;
  q.source = service::QuerySource::kIspd98;
  q.circuit = circuit;
  q.scale = scale;
  q.rate = 0.30;
  q.bound_v = kBaseBound;
  q.seed = kDesignSeed;
  q.flow = static_cast<std::uint8_t>(flow);
  return q;
}

/// The clients' query sequences. Client c asks about recipe c, like two
/// designers each exploring their own design, at 3 GSINO : 1 iSINO; at one
/// index in eight client 1 asks client 0's question instead, so the two
/// meet on one session (coalescing, cache hits and session-lock waits).
/// The shape is fixed. Each (client, flow) stream asks about evenly spaced
/// rungs of the bound ladder, one per query, and the seed draws the order
/// in which they are asked. Every seed thus asks the same distinct
/// questions — cost and quality stay comparable across seeds — while which
/// questions meet in flight, coalesce or hit a cache follows the seed.
struct Plan {
  std::array<std::vector<service::WhatIfQuery>, kClients> queries;

  Plan(double scale, std::uint64_t seed, std::size_t per_client) {
    const auto flow_at = [](int c, std::size_t i) {
      return i % 4 == (c == 0 ? 3u : 1u) ? 1 : 2;
    };
    const auto repeat_at = [](int c, std::size_t i) { return c == 1 && i % 8 == 5; };
    Xoshiro256 rng(SplitMix64::mix2(seed, 0xb0d5));
    for (int c = 0; c < kClients; ++c) {
      auto& mine = queries[static_cast<std::size_t>(c)];
      mine.resize(per_client);
      for (const int flow : {1, 2}) {
        std::vector<std::size_t> at;
        for (std::size_t i = 0; i < per_client; ++i) {
          if (!repeat_at(c, i) && flow_at(c, i) == flow) at.push_back(i);
        }
        std::vector<std::size_t> stratum(at.size());
        for (std::size_t k = 0; k < at.size(); ++k) stratum[k] = k;
        for (std::size_t k = at.size(); k > 1; --k) {
          std::swap(stratum[k - 1], stratum[rng.below(k)]);
        }
        for (std::size_t k = 0; k < at.size(); ++k) {
          const std::size_t rung = (2 * stratum[k] + 1) * kRungs / (2 * at.size());
          service::WhatIfQuery q = recipe(scale, kRecipes[c], flow);
          q.has_bound = true;
          q.scenario_bound_v = 0.100 + 0.001 * static_cast<double>(rung);
          mine[at[k]] = q;
        }
      }
    }
    for (std::size_t i = 0; i < per_client; ++i) {
      if (repeat_at(1, i)) queries[1][i] = queries[0][i];
    }
  }
};

struct Answer {
  service::WhatIfQuery query;
  double start = 0.0, end = 0.0;
  bool coalesced = false;
  bool ok = false;
  service::FlowSummary summary;
};

bool ask(service::Client& client, const service::WhatIfQuery& q, Answer* a) {
  service::SubmitAck ack;
  service::Result result;
  std::string err;
  a->query = q;
  a->start = now_s();
  const bool ok = client.submit(q, &ack, &err) &&
                  ack.reject == service::RejectReason::kNone &&
                  client.wait(ack.ticket, &result, &err) &&
                  result.state == service::JobState::kDone;
  a->end = now_s();
  a->coalesced = ack.coalesced != 0;
  a->summary = result.summary;
  a->ok = ok;
  if (!ok) note("whatif_service: query failed: %s", err.c_str());
  return ok;
}

struct Served {
  std::shared_ptr<rlcr::store::ArtifactStore> store;
  std::unique_ptr<service::Server> server;
  double preload_s = 0.0;
  std::vector<Answer> warm_up;  ///< base-bound answers, both recipes and flows
};

/// Store + server start + preload + Phase I warm-up (both recipes, both
/// router profiles, at the base bound).
Served set_up(double scale, const std::string& dir) {
  Served s;
  fs::create_directories(dir);
  s.store = std::make_shared<rlcr::store::ArtifactStore>(dir + "/store");
  service::ServerOptions so;
  so.socket_path = dir + "/s.sock";
  so.workers = 2;
  so.job_threads = 2;
  so.store = s.store;
  s.server = std::make_unique<service::Server>(so);
  std::string err;
  if (!s.server->start(&err)) throw std::runtime_error("server start: " + err);
  const double t = now_s();
  for (const char* circuit : kRecipes) {
    if (!s.server->preload(recipe(scale, circuit, 2), &err)) {
      throw std::runtime_error("preload: " + err);
    }
  }
  s.preload_s = now_s() - t;
  service::Client client;
  if (!client.connect(so.socket_path, &err)) {
    throw std::runtime_error("connect: " + err);
  }
  for (const char* circuit : kRecipes) {
    for (const int flow : {2, 1}) {
      Answer a;
      if (!ask(client, recipe(scale, circuit, flow), &a)) {
        throw std::runtime_error("warm-up query failed");
      }
      s.warm_up.push_back(a);
    }
  }
  return s;
}

/// Re-runs answered queries in-process (one FlowSession per recipe, as a
/// direct caller would) and marks any answer whose hashes differ. Returns
/// the summed overflow of the re-run flows.
double check_in_process(const std::vector<Answer*>& answers) {
  std::map<std::string, std::unique_ptr<gsino::RoutingProblem>> problems;
  std::map<std::string, std::unique_ptr<gsino::FlowSession>> sessions;
  double overflow = 0.0;
  for (Answer* a : answers) {
    const service::WhatIfQuery& q = a->query;
    auto& session = sessions[q.circuit];
    if (!session) {
      std::string err;
      auto& problem = problems[q.circuit];
      problem = service::assemble_problem(q, 2, &err);
      if (!problem) throw std::runtime_error("assemble_problem: " + err);
      session = std::make_unique<gsino::FlowSession>(*problem);
    }
    StageSample direct;
    record_outcome(session->run(static_cast<gsino::FlowKind>(q.flow),
                                service::scenario_of(q)),
                   &direct);
    overflow += direct.overflow;
    if (direct.route_hash != a->summary.route_hash ||
        direct.state_hash != a->summary.state_hash) {
      note("whatif_service: %s flow %d @ %.3f V differs from in-process run",
           q.circuit.c_str(), q.flow, q.scenario_bound_v);
      a->ok = false;
    }
  }
  return overflow;
}

}  // namespace

RunResult run_whatif_service(const Config& cfg, Tracer& tracer) {
  RunResult res;
  const double scale = cfg.tiny ? 0.05 : 0.10;
  // A fixed plan of at least 150 queries, longer for a longer --seconds:
  // a count that varied with the time taken would change the mix from run
  // to run, and fewer queries left the median swinging by 20% between runs.
  const std::size_t per_client =
      cfg.tiny ? 8
               : std::max<std::size_t>(
                     75, static_cast<std::size_t>(std::ceil(3.75 * cfg.seconds)));
  const Plan plan(scale, cfg.seed, per_client);
  const std::string root = cfg.work_dir + "/whatif-" + std::to_string(::getpid());

  std::vector<double> setup, preload_s;
  Served served;
  for (int k = 0; more_setups(setup); ++k) {
    served = Served{};
    const double t = now_s();
    served = set_up(scale, root + "/" + std::to_string(k));
    setup.push_back(now_s() - t);
    preload_s.push_back(served.preload_s);
  }
  const std::string socket = served.server->socket_path();

  std::array<std::vector<Answer>, kClients> answers;
  reset_peak_rss();
  const double cpu0 = cpu_s();
  const double t0 = now_s();
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        const auto& mine = plan.queries[static_cast<std::size_t>(c)];
        auto& out = answers[static_cast<std::size_t>(c)];
        service::Client client;
        std::string err;
        if (!client.connect(socket, &err)) {
          note("whatif_service: client %d: %s", c, err.c_str());
          out.emplace_back();
          return;
        }
        for (const service::WhatIfQuery& q : mine) {
          Answer a;
          ask(client, q, &a);
          out.push_back(std::move(a));
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }
  double t_end = t0;
  for (const auto& per : answers) {
    for (const Answer& a : per) t_end = std::max(t_end, a.end);
  }
  const LoopTotals totals{t_end - t0, cpu_s() - cpu0, peak_rss_mib()};
  const rlcr::obs::MetricsSnapshot metrics = served.server->metrics();
  const service::ServiceStats stats = served.server->stats();
  served.server->stop();

  // ---- checks. Both clients asking the same question must get the same
  // answer, and the warm-up answers plus a seeded sample of the distinct
  // answers must match in-process runs.
  const auto key = [](const service::WhatIfQuery& q) {
    return service::query_coalesce_key(q);
  };
  for (std::size_t i = 0; i < answers[0].size() && i < answers[1].size(); ++i) {
    Answer& a = answers[0][i];
    Answer& b = answers[1][i];
    if (a.ok && b.ok && key(a.query) == key(b.query) &&
        (a.summary.route_hash != b.summary.route_hash ||
         a.summary.state_hash != b.summary.state_hash)) {
      note("whatif_service: index %zu answered two ways", i);
      a.ok = b.ok = false;
    }
  }
  std::map<std::uint64_t, Answer*> distinct;  // first answer per question
  for (auto& per : answers) {
    for (Answer& a : per) {
      if (a.ok) distinct.emplace(key(a.query), &a);
    }
  }
  std::vector<Answer*> sample;
  for (const auto& [k, a] : distinct) sample.push_back(a);
  Xoshiro256 pick(SplitMix64::mix2(cfg.seed, 0x5a17));
  for (std::size_t i = sample.size(); i > 1; --i) {
    std::swap(sample[i - 1], sample[pick.below(i)]);
  }
  sample.resize(std::min<std::size_t>(sample.size(), 4));
  std::vector<Answer*> warm_up;
  for (Answer& a : served.warm_up) warm_up.push_back(&a);
  // Overflow is not on the wire; it is read from the in-process re-runs of
  // the base-bound warm-up answers, which every run asks identically.
  const double overflow = check_in_process(warm_up);
  check_in_process(sample);
  std::error_code ec;
  fs::remove_all(root, ec);

  std::vector<double> wall, compute_ms, wait_ms, refine_s, solve_s;
  for (const Answer* a : warm_up) res.op(a->ok);
  for (const auto& per : answers) {
    for (const Answer& a : per) {
      res.op(a.ok);
      if (!a.ok) continue;
      wall.push_back(a.end - a.start);
      compute_ms.push_back(a.summary.compute_s * 1e3);
      if (!a.coalesced) {
        wait_ms.push_back((a.end - a.start - a.summary.compute_s) * 1e3);
      }
    }
  }
  double shields = 0.0, wirelength = 0.0, violations = 0.0;
  for (const auto& [k, a] : distinct) {
    shields += a->summary.total_shields;
    wirelength += a->summary.total_wirelength_um;
    violations += static_cast<double>(a->summary.violating);
    solve_s.push_back(a->summary.sino_s);
    if (a->query.flow == 2) refine_s.push_back(a->summary.refine_s);
  }
  note("whatif_service: %zu answers (%zu distinct), p50 %.1f ms",
       wall.size(), distinct.size(), median(wall) * 1e3);
  if (wall.empty()) return res;
  report_timing(res, setup, wall, totals);
  res.e2e("shields", shields, "count");
  res.e2e("wirelength_um", wirelength, "um");
  res.e2e("overflow", overflow, "tracks");
  if (!cfg.trace) return res;

  int op = 0;
  for (const auto& per : answers) {
    for (const Answer& a : per) tracer.add_op(op++, a.start, a.end);
  }
  const auto counter = [&](const char* name) { return metrics.value_of(name); };
  res.layer("op.samples", static_cast<double>(wall.size()), "count");
  res.layer("op.p90_s", quantile(wall, 0.9), "s");
  res.layer("setup.problem_s", median(preload_s), "s");
  res.layer("sino.solve_s", median(solve_s), "s");
  res.layer("refine.refine_s", median(refine_s), "s");
  res.layer("quality.violations", violations, "count");
  res.layer("store.stores", counter("store.stores"), "count");
  res.layer("store.hits", counter("store.hits"), "count");
  res.layer("store.misses", counter("store.misses"), "count");
  res.layer("store.bytes_written", counter("store.bytes_written"), "B");
  res.layer("store.bytes_read", counter("store.bytes_read"), "B");
  res.layer("service.compute_ms_p50", median(compute_ms), "ms");
  res.layer("service.wait_ms_p50", median(wait_ms), "ms");
  res.layer("service.coalesce_hits", static_cast<double>(stats.coalesce_hits), "count");
  res.layer("service.session_warm_hits",
            static_cast<double>(stats.session_warm_hits), "count");
  res.layer("service.queue_peak", static_cast<double>(stats.queue_peak), "count");
  res.layer("service.rejected",
            static_cast<double>(stats.rejected_queue_full +
                                stats.rejected_inflight_cap +
                                stats.rejected_bad_query),
            "count");
  res.layer("parallel.threads", 2, "count");
  res.layer("parallel.num_cpus", cpu_count(), "count");
  return res;
}

}  // namespace perfbench
