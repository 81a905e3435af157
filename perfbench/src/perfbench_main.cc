// The repo benchmark: four workloads against AgoraDB's public API.
//
//   perfbench --workload <tpch_olap|tpch_budget|serve_short|serve_rw>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//             [--commit <id>]
//
// tpch_* run embedded through Database; serve_* go over loopback HTTP
// through HttpServer/HttpClient. Every response is byte-compared against
// a reference computed at set-up by embedded execution at one thread.
// The untraced run (--trace 0) reports the end-to-end metrics; the traced
// run (--trace 1) records spans around the calls into each layer and
// reports the per-layer metrics. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "bench_stats.h"
#include "common/mutex.h"
#include "common/thread_pool.h"
#include "engine/database.h"
#include "hybrid/collection.h"
#include "inputs.h"
#include "optimizer/stats.h"
#include "plan/binder.h"
#include "server/bootstrap.h"
#include "server/http_client.h"
#include "server/json_util.h"
#include "server/query_handler.h"
#include "server/server.h"
#include "sql/parser.h"
#include "tpch/tpch.h"
#include "trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_SANITIZE
#define PERFBENCH_SANITIZE ""
#endif

namespace perfbench {
namespace {

using agora::Database;
using agora::QueryResult;
using agora::Status;
using Clock = std::chrono::steady_clock;

constexpr double kScaleFactor = 0.1;
constexpr size_t kServeDocs = 20000;
constexpr int kTpchThreads = 4;
constexpr int64_t kBudgetBytes = int64_t{8} << 30;
constexpr size_t kSetupRepeats = 5;
constexpr int kServeConnections = 4;
constexpr int kReaderConnections = 3;
constexpr double kWritesPerSecond = 1.0;
// serve_short: the reference rung (about half the measured capacity on a
// 4-core host) and the ladder behind max_qps_under_slo.
constexpr double kReferenceRate = 2000.0;
constexpr double kLadder[] = {1000, 2000, 3000, 4000, 5000, 6000, 8000};
constexpr double kSloMs = 5.0;
constexpr double kRungMinSeconds = 0.5;
// Traced run: instances per template and repetitions per instance.
constexpr size_t kPassPerTemplate = 8;
constexpr int kPassReps = 3;

struct Options {
  WorkloadKind kind = WorkloadKind::kTpchOlap;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
  std::string commit = "unknown";
};

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

std::string QueryBody(const std::string& sql) {
  return "{\"sql\": " + agora::JsonQuote(sql) + "}";
}

// ---------------------------------------------------------------------------
// Set-up and references

/// One set-up: the dataset, and for served workloads the running server.
/// The server is declared after the data it serves, so it stops first.
struct Instance {
  agora::ServedData data;
  std::unique_ptr<agora::HttpServer> server;

  Database* db() { return data.db(); }
  int port() const { return server->port(); }
};

/// Read bodies and reference responses, all fixed at set-up.
struct Expected {
  std::vector<std::string> bodies;        // per read instance
  std::vector<std::string> reads;         // reference JSON per read
  std::vector<std::string> write_bodies;  // point read per write
  std::vector<std::string> writes;        // reference JSON per write
  std::vector<std::string> probe_writes;  // reference JSON per probe write
  std::vector<uint32_t> tmpl_of;          // template index per read
  // Budgeted workload: templates whose budgeted bytes differ from the
  // unbudgeted ones, and the first disagreement beyond rounding.
  std::vector<std::string> inexact;
  std::string mismatch;
};

Status Warm(WorkloadKind kind, const Inputs& in, Instance* inst) {
  if (!IsServed(kind)) {
    for (const ReadStatement& read : in.reads) {
      auto result = inst->db()->Execute(read.sql);
      if (!result.ok()) return result.status();
    }
    return Status::OK();
  }
  agora::HttpClient client("127.0.0.1", inst->port());
  for (const ReadStatement& read : in.reads) {
    auto response = client.Post("/query", QueryBody(read.sql));
    if (!response.ok()) return response.status();
    if (response->status != 200) {
      return Status::Internal("warm-up " + read.tmpl + " got HTTP " +
                              std::to_string(response->status) + ": " +
                              response->body);
    }
  }
  return Status::OK();
}

/// Data generation, index build, server start and one warm-up pass of
/// every read instance (which pays first-query statistics and zone maps).
Status SetUp(const Options& o, const Inputs& in, Instance* inst) {
  const WorkloadKind kind = o.kind;
  auto data = agora::MakeServedData(
      kScaleFactor, kind == WorkloadKind::kServeShort ? kServeDocs : 0);
  if (!data.ok()) return data.status();
  inst->data = std::move(data).value();
  Database* db = inst->db();
  if (!IsServed(kind)) db->set_execution_threads(kTpchThreads);
  if (kind == WorkloadKind::kTpchBudget) db->set_memory_budget(kBudgetBytes);
  db->set_spill_dir(o.out_dir);  // keep any spill file inside the checkout
  if (IsServed(kind)) {
    auto index = db->Execute("CREATE INDEX o_pk ON orders (o_orderkey)");
    if (!index.ok()) return index.status();
    agora::ServerOptions options;
    options.port = 0;
    options.max_connections = 16;
    options.max_concurrent_queries = 4;
    options.max_queued_queries = 16;
    options.query_timeout_ms = 60000;
    inst->server = std::make_unique<agora::HttpServer>(db, options);
    Status started = inst->server->Start();
    if (!started.ok()) return started;
  }
  return Warm(kind, in, inst);
}

/// True when both results hold the same rows in the same order and every
/// DOUBLE cell agrees within 1e-9 relative (summation order may differ).
bool NearlyEqual(const QueryResult& a, const QueryResult& b) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return false;
  }
  for (size_t row = 0; row < a.num_rows(); ++row) {
    for (size_t col = 0; col < a.num_columns(); ++col) {
      const agora::Value x = a.Get(row, col);
      const agora::Value y = b.Get(row, col);
      if (x.type() == agora::TypeId::kDouble && !x.is_null() && !y.is_null() &&
          y.type() == agora::TypeId::kDouble) {
        const double scale = std::max({std::abs(x.double_value()),
                                       std::abs(y.double_value()), 1.0});
        if (std::abs(x.double_value() - y.double_value()) > 1e-9 * scale) {
          return false;
        }
      } else if (x.ToString() != y.ToString()) {
        return false;
      }
    }
  }
  return true;
}

/// References by embedded execution at one thread. Under a memory budget
/// the reference is the budgeted one-thread result, and it must also agree
/// with the unbudgeted result: exactly where it can, and within 1e-9 where
/// the budgeted path sums in another order (those templates are listed in
/// `inexact` and reported). Point reads of written keys are answered by a
/// side database holding only the written orders, under the same schema.
Status ComputeExpected(const Inputs& in, Database* db, Expected* out) {
  const int threads = db->options().physical.num_threads;
  const int64_t budget = db->memory_budget();
  db->set_execution_threads(1);
  Status status = Status::OK();
  for (const ReadStatement& read : in.reads) {
    db->set_memory_budget(0);
    auto result = db->Execute(read.sql);
    if (!result.ok()) {
      status = result.status();
      break;
    }
    std::string json = agora::QueryHandler::SerializeResultJson(*result);
    if (budget > 0) {
      db->set_memory_budget(budget);
      auto budgeted = db->Execute(read.sql);
      if (!budgeted.ok()) {
        status = budgeted.status();
        break;
      }
      std::string budgeted_json =
          agora::QueryHandler::SerializeResultJson(*budgeted);
      if (budgeted_json != json) {
        out->inexact.push_back(read.tmpl);
        if (!NearlyEqual(*result, *budgeted) && out->mismatch.empty()) {
          out->mismatch = read.tmpl + " under the budget disagrees with the "
                          "unbudgeted result";
        }
      }
      json = std::move(budgeted_json);
    }
    out->reads.push_back(std::move(json));
    out->bodies.push_back(QueryBody(read.sql));
    const auto it =
        std::find(in.templates.begin(), in.templates.end(), read.tmpl);
    out->tmpl_of.push_back(static_cast<uint32_t>(it - in.templates.begin()));
  }
  db->set_execution_threads(threads);
  db->set_memory_budget(budget);
  if (!status.ok()) return status;

  auto orders = db->catalog().GetTable("orders");
  if (!orders.ok()) return orders.status();
  Database side;
  side.set_execution_threads(1);
  auto created = side.catalog().CreateTable("orders", (*orders)->schema());
  if (!created.ok()) return created.status();
  auto answer = [&side](const OrderWrite& w, std::string* json) -> Status {
    auto inserted = side.Execute(w.orders_sql);
    if (!inserted.ok()) return inserted.status();
    auto result = side.Execute(w.point_sql);
    if (!result.ok()) return result.status();
    if (result->num_rows() != 1) return Status::Internal("side read != 1 row");
    *json = agora::QueryHandler::SerializeResultJson(*result);
    return Status::OK();
  };
  for (const OrderWrite& w : in.writes) {
    out->writes.emplace_back();
    AGORA_RETURN_IF_ERROR(answer(w, &out->writes.back()));
    out->write_bodies.push_back(QueryBody(w.point_sql));
  }
  for (const OrderWrite& w : in.probe_writes) {
    out->probe_writes.emplace_back();
    AGORA_RETURN_IF_ERROR(answer(w, &out->probe_writes.back()));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Traffic loops

struct Sample {
  uint32_t tmpl;
  double ms;
};

/// What one timed loop observed. Correctness failures are not failed
/// operations: they make the whole run incorrect.
struct Loop {
  std::vector<Sample> samples;
  size_t attempted = 0;
  size_t failed = 0;
  double wall_s = 0;
  double max_late_ms = 0;        // open loop: how late the sender ran
  double tail_late_sum_ms = 0;   // open loop: lateness over the last tenth
  size_t tail_late_n = 0;        //   of the sends, to spot a growing backlog
  std::vector<double> write_ms;  // serve_rw writes, timed from due time
  size_t write_attempted = 0;
  size_t write_failed = 0;
  std::string mismatch;  // first correctness failure; empty = none

  void Merge(const Loop& other) {
    samples.insert(samples.end(), other.samples.begin(), other.samples.end());
    attempted += other.attempted;
    failed += other.failed;
    max_late_ms = std::max(max_late_ms, other.max_late_ms);
    tail_late_sum_ms += other.tail_late_sum_ms;
    tail_late_n += other.tail_late_n;
    write_ms.insert(write_ms.end(), other.write_ms.begin(),
                    other.write_ms.end());
    write_attempted += other.write_attempted;
    write_failed += other.write_failed;
    if (mismatch.empty()) mismatch = other.mismatch;
  }
  void Fail(std::string what) {
    if (mismatch.empty()) mismatch = std::move(what);
  }
};

/// The select path Database::Execute takes, with a span around each
/// layer's public call.
agora::Result<QueryResult> TracedSelect(Database* db, const std::string& sql,
                                        Tracer* tracer, int64_t parent,
                                        int64_t request) {
  ScopedSpan parse(tracer, "sql.parse", parent, request);
  auto stmt = agora::ParseStatement(sql);
  parse.End();
  if (!stmt.ok()) return stmt.status();
  const auto* select = std::get_if<agora::SelectStatement>(&stmt->node);
  if (select == nullptr || stmt->explain) {
    return Status::InvalidArgument("traced path runs plain SELECTs only");
  }
  ScopedSpan bind(tracer, "plan.bind", parent, request);
  agora::Binder binder(db->catalog());
  auto bound = binder.BindSelect(*select);
  bind.End();
  if (!bound.ok()) return bound.status();
  ScopedSpan optimize(tracer, "optimizer.optimize", parent, request);
  auto plan = db->optimizer().Optimize(std::move(bound).value());
  optimize.End();
  if (!plan.ok()) return plan.status();
  ScopedSpan execute(tracer, "exec.execute", parent, request);
  return db->ExecutePlan(*plan);
}

/// One client in a closed loop over the seeded schedule.
Loop RunEmbedded(Database* db, const Inputs& in, const Expected& ex,
                 double seconds, bool expect_no_spill, size_t* cursor,
                 Tracer* tracer) {
  Loop loop;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  while (Clock::now() < end) {
    const size_t index = in.schedule[(*cursor)++ % in.schedule.size()];
    const std::string& sql = in.reads[index].sql;
    ++loop.attempted;
    const Clock::time_point t0 = Clock::now();
    agora::Result<QueryResult> result = Status::Internal("not run");
    if (tracer == nullptr) {
      result = db->Execute(sql);
    } else {
      const int64_t request = tracer->NewRequest();
      ScopedSpan statement(tracer, "statement", -1, request);
      result = TracedSelect(db, sql, tracer, statement.id(), request);
    }
    const double ms = Ms(Clock::now() - t0);
    if (!result.ok()) {
      ++loop.failed;
      std::fprintf(stderr, "[perfbench] %s failed: %s\n",
                   in.reads[index].tmpl.c_str(),
                   result.status().ToString().c_str());
      continue;
    }
    loop.samples.push_back({ex.tmpl_of[index], ms});
    if (expect_no_spill && result->stats().spill_partitions != 0) {
      loop.Fail(in.reads[index].tmpl + " spilled " +
                std::to_string(result->stats().spill_partitions) +
                " partitions under a budget that never binds");
    }
    if (agora::QueryHandler::SerializeResultJson(*result) != ex.reads[index]) {
      loop.Fail(in.reads[index].tmpl + " differs from its reference");
    }
  }
  loop.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  return loop;
}

/// Posts one read and checks the answer; returns false on an HTTP or
/// transport failure (counted as failed, not as a mismatch).
bool PostRead(agora::HttpClient* client, const std::string& body,
              const std::string& expected, const std::string& what,
              Loop* loop) {
  auto response = client->Post("/query", body);
  if (!response.ok() || response->status != 200) {
    std::fprintf(stderr, "[perfbench] %s failed: %s\n", what.c_str(),
                 response.ok() ? response->body.c_str()
                               : response.status().ToString().c_str());
    return false;
  }
  if (response->body != expected) {
    loop->Fail(what + " differs from its reference");
  }
  return true;
}

/// kServeConnections senders in an open loop at `rate` requests/s; each
/// request is timed from the moment it was due.
Loop RunOpenLoop(int port, const Inputs& in, const Expected& ex, double rate,
                 double seconds, size_t cursor_base, Tracer* tracer) {
  std::vector<Loop> per(kServeConnections);
  std::vector<std::unique_ptr<agora::HttpClient>> clients;
  for (int c = 0; c < kServeConnections; ++c) {
    clients.push_back(std::make_unique<agora::HttpClient>("127.0.0.1", port));
    (void)clients.back()->Connect();
  }
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  const size_t total = static_cast<size_t>(rate * seconds);
  std::vector<Clock::time_point> last_done(kServeConnections, start);
  std::vector<std::thread> threads;
  for (int c = 0; c < kServeConnections; ++c) {
    threads.emplace_back([&, c] {
      Loop& loop = per[c];
      for (size_t k = static_cast<size_t>(c); k < total;
           k += kServeConnections) {
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(k / rate));
        std::this_thread::sleep_until(due);
        const Clock::time_point sent = Clock::now();
        loop.max_late_ms = std::max(loop.max_late_ms, Ms(sent - due));
        if (k * 10 >= total * 9) {
          loop.tail_late_sum_ms += Ms(sent - due);
          ++loop.tail_late_n;
        }
        const size_t index =
            in.schedule[(cursor_base + k) % in.schedule.size()];
        ++loop.attempted;
        bool ok;
        {
          ScopedSpan span(tracer, "http.request", -1,
                          tracer == nullptr ? 0 : tracer->NewRequest());
          ok = PostRead(clients[c].get(), ex.bodies[index], ex.reads[index],
                        in.reads[index].tmpl, &loop);
        }
        last_done[c] = Clock::now();
        if (!ok) {
          ++loop.failed;
          continue;
        }
        loop.samples.push_back({ex.tmpl_of[index], Ms(last_done[c] - due)});
      }
    });
  }
  for (auto& t : threads) t.join();
  Loop merged;
  for (const Loop& loop : per) merged.Merge(loop);
  merged.wall_s = std::chrono::duration<double>(
                      *std::max_element(last_done.begin(), last_done.end()) -
                      start)
                      .count();
  return merged;
}

/// State the read/write workload carries from one loop to the next.
struct RwState {
  size_t cursor = 0;
  size_t next_write = 0;
  agora::Mutex mu;
  std::vector<size_t> acked AGORA_GUARDED_BY(mu);  // acknowledged writes
};

/// kReaderConnections readers in a closed loop beside one writer in an
/// open loop at kWritesPerSecond. Point reads target acknowledged writes
/// once there are any.
Loop RunReadWrite(int port, const Inputs& in, const Expected& ex,
                  double seconds, RwState* state, Tracer* tracer) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::atomic<size_t> cursor{state->cursor};
  std::vector<Loop> per(kReaderConnections + 1);
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaderConnections; ++r) {
    threads.emplace_back([&, r] {
      Loop& loop = per[r];
      agora::HttpClient client("127.0.0.1", port);
      while (Clock::now() < end) {
        const size_t pos = cursor.fetch_add(1);
        size_t index = in.schedule[pos % in.schedule.size()];
        const std::string* body = &ex.bodies[index];
        const std::string* expected = &ex.reads[index];
        if (in.reads[index].tmpl == "point") {
          agora::MutexLock lock(state->mu);
          if (!state->acked.empty()) {
            const size_t w =
                state->acked[(pos * 2654435761u) % state->acked.size()];
            body = &ex.write_bodies[w];
            expected = &ex.writes[w];
          }
        }
        ++loop.attempted;
        const Clock::time_point t0 = Clock::now();
        bool ok;
        {
          ScopedSpan span(tracer, "http.request", -1,
                          tracer == nullptr ? 0 : tracer->NewRequest());
          ok = PostRead(&client, *body, *expected, in.reads[index].tmpl, &loop);
        }
        if (!ok) {
          ++loop.failed;
          continue;
        }
        loop.samples.push_back({ex.tmpl_of[index], Ms(Clock::now() - t0)});
      }
    });
  }
  threads.emplace_back([&] {
    Loop& loop = per[kReaderConnections];
    agora::HttpClient client("127.0.0.1", port);
    for (size_t k = 0; state->next_write < in.writes.size(); ++k) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(k / kWritesPerSecond));
      if (due >= end) break;
      std::this_thread::sleep_until(due);
      loop.max_late_ms = std::max(loop.max_late_ms, Ms(Clock::now() - due));
      const size_t w = state->next_write++;
      ++loop.write_attempted;
      ScopedSpan span(tracer, "http.write", -1,
                      tracer == nullptr ? 0 : tracer->NewRequest());
      bool ok = true;
      for (const std::string* sql :
           {&in.writes[w].lineitem_sql, &in.writes[w].orders_sql}) {
        auto response = client.Post("/query", QueryBody(*sql));
        if (!response.ok() || response->status != 200) {
          std::fprintf(stderr, "[perfbench] write %zu failed: %s\n", w,
                       response.ok() ? response->body.c_str()
                                     : response.status().ToString().c_str());
          ok = false;
          break;
        }
      }
      span.End();
      if (!ok) {
        ++loop.write_failed;
        continue;
      }
      loop.write_ms.push_back(Ms(Clock::now() - due));
      agora::MutexLock lock(state->mu);
      state->acked.push_back(w);
    }
  });
  for (auto& t : threads) t.join();
  state->cursor = cursor.load();
  Loop merged;
  for (const Loop& loop : per) merged.Merge(loop);
  merged.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  return merged;
}

/// Every acknowledged write must be readable with its reference answer.
void CheckAcked(int port, const Expected& ex, RwState* state, Loop* loop) {
  std::vector<size_t> acked;
  {
    agora::MutexLock lock(state->mu);
    acked = state->acked;
  }
  agora::HttpClient client("127.0.0.1", port);
  for (size_t w : acked) {
    if (!PostRead(&client, ex.write_bodies[w], ex.writes[w],
                  "acknowledged write " + std::to_string(w), loop)) {
      loop->Fail("acknowledged write " + std::to_string(w) + " unreadable");
    }
  }
}

/// Highest ladder rung whose p99 (from due time) stays within kSloMs with
/// no failures and no growing backlog: over the rung's last tenth the
/// sender runs, on average, less than kSloMs behind schedule. The climb
/// stops at the first miss above a rung that met the limit.
double MaxQpsUnderSlo(int port, const Inputs& in, const Expected& ex,
                      Loop* checks) {
  double best = 0;
  size_t cursor = 0;
  for (double rate : kLadder) {
    const double secs = std::max(kRungMinSeconds, 1100.0 / rate);
    Loop rung = RunOpenLoop(port, in, ex, rate, secs, cursor, nullptr);
    cursor += static_cast<size_t>(rate * secs);
    if (!rung.mismatch.empty()) checks->Fail(rung.mismatch);
    std::vector<double> ms;
    for (const Sample& s : rung.samples) ms.push_back(s.ms);
    const auto p99 = Percentile(ms, 0.99);
    const double tail_late =
        rung.tail_late_sum_ms /
        static_cast<double>(std::max<size_t>(1, rung.tail_late_n));
    const bool pass = p99.has_value() && *p99 <= kSloMs && rung.failed == 0 &&
                      tail_late <= kSloMs;
    std::printf("[perfbench] ladder %.0f/s: n=%zu p99=%s ms, sender %.3f ms "
                "late at the end: %s\n",
                rate, ms.size(), p99 ? std::to_string(*p99).c_str() : "n/a",
                tail_late, pass ? "meets SLO" : "misses SLO");
    if (pass) {
      best = rate;
    } else if (best > 0) {
      break;
    }
  }
  return best;
}

/// Runs the workload's timed traffic for `seconds`.
Loop RunTraffic(WorkloadKind kind, Instance* inst, const Inputs& in,
                const Expected& ex, double seconds, RwState* rw,
                size_t* cursor, Tracer* tracer) {
  switch (kind) {
    case WorkloadKind::kTpchOlap:
    case WorkloadKind::kTpchBudget:
      return RunEmbedded(inst->db(), in, ex, seconds,
                         kind == WorkloadKind::kTpchBudget, cursor, tracer);
    case WorkloadKind::kServeShort: {
      Loop loop = RunOpenLoop(inst->port(), in, ex, kReferenceRate, seconds,
                              *cursor, tracer);
      *cursor += static_cast<size_t>(kReferenceRate * seconds);
      return loop;
    }
    case WorkloadKind::kServeRw:
      return RunReadWrite(inst->port(), in, ex, seconds, rw, tracer);
  }
  return Loop();
}

// ---------------------------------------------------------------------------
// Metrics

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

struct EndToEnd {
  double p50 = 0, p95 = 0, geomean = 0, qps = 0;
  size_t n = 0;
  std::string error;  // non-empty when the samples cannot support a figure
};

EndToEnd Summarize(const Loop& loop, const Inputs& in) {
  EndToEnd e;
  std::vector<double> all;
  std::vector<std::vector<double>> per(in.templates.size());
  for (const Sample& s : loop.samples) {
    all.push_back(s.ms);
    per[s.tmpl].push_back(s.ms);
  }
  e.n = all.size();
  const auto p50 = Percentile(all, 0.5);
  const auto p95 = Percentile(all, 0.95);
  if (!p50 || !p95) {
    e.error = "too few samples for p95 (n=" + std::to_string(all.size()) + ")";
    return e;
  }
  e.p50 = *p50;
  e.p95 = *p95;
  std::vector<double> medians;
  for (size_t t = 0; t < per.size(); ++t) {
    const auto median = Percentile(per[t], 0.5);
    if (!median) {
      e.error = "too few samples for the " + in.templates[t] +
                " median (n=" + std::to_string(per[t].size()) + ")";
      return e;
    }
    medians.push_back(*median);
  }
  e.geomean = GeoMean(medians);
  e.qps = static_cast<double>(all.size()) / loop.wall_s;
  return e;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Prints the sample counts and every percentile the samples support.
void PrintLatencies(const char* label, const Loop& loop, const Inputs& in) {
  std::vector<double> all;
  std::vector<std::vector<double>> per(in.templates.size());
  for (const Sample& s : loop.samples) {
    all.push_back(s.ms);
    per[s.tmpl].push_back(s.ms);
  }
  auto line = [](const std::string& what, const std::vector<double>& v) {
    std::string text =
        "[perfbench]   " + what + ": n=" + std::to_string(v.size());
    for (double p : {0.5, 0.9, 0.95, 0.99, 0.999}) {
      if (const auto value = Percentile(v, p)) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), " p%g=%.4f ms", p * 100, *value);
        text += buf;
      }
    }
    std::printf("%s\n", text.c_str());
  };
  std::printf("[perfbench] %s latencies (attempted %zu, failed %zu, %.2f s):\n",
              label, loop.attempted, loop.failed, loop.wall_s);
  line("all", all);
  for (size_t t = 0; t < per.size(); ++t) line(in.templates[t], per[t]);
  if (loop.write_attempted > 0) {
    line("writes (from due time)", loop.write_ms);
  }
}

/// The budgeted path's known difference from the unbudgeted one.
void PrintInexact(const Expected& ex) {
  if (ex.inexact.empty()) return;
  std::string names;
  for (const std::string& t : ex.inexact) names += " " + t;
  std::printf("[perfbench] budgeted results differ in the last digits from the "
              "unbudgeted ones (agree within 1e-9):%s\n", names.c_str());
}

// ---------------------------------------------------------------------------
// Traced run: per-layer metrics

/// Per read instance, durations of each named span across repetitions,
/// plus the engine's own counters and operator self times.
struct PassData {
  std::vector<size_t> instances;  // indices into Inputs::reads
  std::vector<double> weight;     // per pass instance; sums to 1
  std::map<int64_t, size_t> request_slot;  // request id -> pass slot
  std::vector<std::map<std::string, std::vector<double>>> op_ms;  // per slot
  std::vector<std::vector<double>> wire_us;  // per slot: round trip - served
  agora::ExecStats counts;        // first repetition of every slot
  double execute_s = 0;           // ExecutePlan wall time, all repetitions
  double busy_s = 0;              // operator busy time, all repetitions
  int threads = 1;                // workers a query may use
};

/// The traced run's decomposition pass: each selected instance kPassReps
/// times through the decomposed select path, QueryHandler::Handle
/// without a socket, and one loopback round trip.
Status RunPass(Instance* inst, const Inputs& in, const Expected& ex,
               Tracer* tracer, PassData* pass, Loop* checks) {
  std::map<std::string, size_t> per_template;
  for (size_t i = 0; i < in.reads.size(); ++i) {
    if (per_template[in.reads[i].tmpl]++ < kPassPerTemplate) {
      pass->instances.push_back(i);
    }
  }
  // Weight = the template's share of the schedule, split evenly over its
  // instances in the pass.
  std::map<std::string, double> share;
  std::map<std::string, size_t> picked;
  for (size_t index : in.schedule) share[in.reads[index].tmpl] += 1.0;
  for (size_t index : pass->instances) ++picked[in.reads[index].tmpl];
  for (size_t index : pass->instances) {
    const std::string& t = in.reads[index].tmpl;
    pass->weight.push_back(share[t] / static_cast<double>(in.schedule.size()) /
                           static_cast<double>(picked[t]));
  }
  pass->op_ms.resize(pass->instances.size());
  pass->wire_us.resize(pass->instances.size());

  Database* db = inst->db();
  agora::QueryHandler& handler = inst->server->handler();
  agora::HttpClient client("127.0.0.1", inst->port());
  pass->threads = db->options().physical.num_threads > 0
                      ? db->options().physical.num_threads
                      : static_cast<int>(agora::ThreadPool::Global()->size());
  for (int rep = 0; rep < kPassReps; ++rep) {
    for (size_t slot = 0; slot < pass->instances.size(); ++slot) {
      const size_t index = pass->instances[slot];
      const std::string& tmpl = in.reads[index].tmpl;
      const int64_t request = tracer->NewRequest();
      pass->request_slot[request] = slot;
      ScopedSpan statement(tracer, "statement", -1, request);
      auto result = TracedSelect(db, in.reads[index].sql, tracer,
                                 statement.id(), request);
      if (!result.ok()) return result.status();
      ScopedSpan serialize(tracer, "server.serialize", statement.id(), request);
      const std::string json =
          agora::QueryHandler::SerializeResultJson(*result);
      serialize.End();
      statement.End();
      if (json != ex.reads[index]) {
        checks->Fail(tmpl + " differs (traced path)");
      }

      const agora::ExecStats& stats = result->stats();
      if (rep == 0) pass->counts.Merge(stats);
      const auto& spans = tracer->Spans();
      const Span& exec = spans[static_cast<size_t>(statement.id()) + 4];
      pass->execute_s += exec.micros() / 1e6;
      std::map<std::string, double> self;
      for (const agora::OperatorProfileNode& node : result->profile()) {
        self[node.name] += static_cast<double>(node.busy_ns) / 1e6;
        pass->busy_s += static_cast<double>(node.busy_ns) / 1e9;
      }
      for (const auto& [name, ms] : self) pass->op_ms[slot][name].push_back(ms);

      agora::HttpRequest http;
      http.method = "POST";
      http.target = "/query";
      http.version = "HTTP/1.1";
      http.body = ex.bodies[index];
      ScopedSpan handle(tracer, "server.handle", -1, request);
      agora::HttpResponse response = handler.Handle(http);
      handle.End();
      if (response.status != 200 || response.body != ex.reads[index]) {
        checks->Fail(tmpl + " differs (QueryHandler::Handle)");
      }
      // The server's own request histogram says how much of the round
      // trip it spent handling; the rest is wire, parsing and waiting.
      const double served_before =
          db->metrics().HistogramSum("server_request_seconds");
      ScopedSpan trip(tracer, "http.round_trip", -1, request);
      const bool ok = PostRead(&client, ex.bodies[index], ex.reads[index],
                               tmpl + " (round trip)", checks);
      trip.End();
      if (!ok) return Status::Internal(tmpl + " round trip failed");
      const double served_us =
          (db->metrics().HistogramSum("server_request_seconds") -
           served_before) * 1e6;
      pass->wire_us[slot].push_back(
          tracer->Spans()[static_cast<size_t>(trip.id())].micros() - served_us);
    }
  }
  return Status::OK();
}

/// Median duration (us) of span `name` per pass slot.
std::vector<double> SlotMedians(const std::vector<Span>& spans,
                                const PassData& pass, const char* name) {
  std::vector<std::vector<double>> per(pass.instances.size());
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) != 0) continue;
    const auto it = pass.request_slot.find(s.request);
    if (it != pass.request_slot.end()) per[it->second].push_back(s.micros());
  }
  std::vector<double> medians;
  for (auto& v : per) medians.push_back(PlainMedian(v));
  return medians;
}

double Weighted(const PassData& pass, const std::vector<double>& per_slot) {
  double sum = 0;
  for (size_t i = 0; i < per_slot.size(); ++i) {
    sum += pass.weight[i] * per_slot[i];
  }
  return sum;
}

/// Results of the cold-path probe: a write, then the first read after it.
struct ColdProbe {
  std::vector<double> stats_ms;        // ComputeTableStats per table
  std::vector<double> insert_ms;       // Database::Execute of the INSERTs
  std::vector<double> cold_optimize_ms;
  std::vector<double> cold_scan_ms;    // first ExecutePlan minus warm
};

/// For each probe write: INSERT it, then run the workload's first
/// instance cold (statistics and zone maps invalidated by the write) and
/// warm. The probe's rows are dated 1999, so answers must not change.
Status RunColdProbe(Instance* inst, const Inputs& in, const Expected& ex,
                    Tracer* tracer, ColdProbe* probe, Loop* checks) {
  Database* db = inst->db();
  const int64_t request = tracer->NewRequest();
  for (const char* name : {"orders", "lineitem"}) {
    auto table = db->catalog().GetTable(name);
    if (!table.ok()) return table.status();
    ScopedSpan span(tracer, "optimizer.stats", -1, request);
    const agora::TableStats stats = agora::ComputeTableStats(**table);
    span.End();
    probe->stats_ms.push_back(tracer->Spans()[span.id()].micros() / 1e3);
    (void)stats;
  }
  // The cold read: the analytic template that reads orders and lineitem
  // where there is one, else the first instance.
  size_t cold = 0;
  for (size_t i = 0; i < in.reads.size(); ++i) {
    if (in.reads[i].tmpl == "Q3") cold = i;
  }
  for (size_t w = 0; w < in.probe_writes.size(); ++w) {
    const OrderWrite& write = in.probe_writes[w];
    ScopedSpan insert(tracer, "storage.insert", -1, request);
    for (const std::string* sql : {&write.lineitem_sql, &write.orders_sql}) {
      auto result = db->Execute(*sql);
      if (!result.ok()) return result.status();
    }
    insert.End();
    probe->insert_ms.push_back(tracer->Spans()[insert.id()].micros() / 1e3);
    double execute_ms[2] = {0, 0};
    for (int warm = 0; warm < 2; ++warm) {
      ScopedSpan statement(tracer, warm ? "warm.statement" : "cold.statement",
                           -1, request);
      auto result = TracedSelect(db, in.reads[cold].sql, tracer,
                                 statement.id(), request);
      statement.End();
      if (!result.ok()) return result.status();
      if (agora::QueryHandler::SerializeResultJson(*result) != ex.reads[cold]) {
        checks->Fail(in.reads[cold].tmpl + " changed after a 1999 write");
      }
      const auto spans = tracer->Spans();
      const size_t base = static_cast<size_t>(statement.id());
      if (!warm) {
        probe->cold_optimize_ms.push_back(spans[base + 3].micros() / 1e3);
      }
      execute_ms[warm] = spans[base + 4].micros() / 1e3;
    }
    probe->cold_scan_ms.push_back(execute_ms[0] - execute_ms[1]);
    auto point = db->Execute(write.point_sql);
    if (!point.ok() || agora::QueryHandler::SerializeResultJson(*point) !=
                           ex.probe_writes[w]) {
      checks->Fail("probe write " + std::to_string(w) + " not readable");
    }
  }
  return Status::OK();
}

/// Counter value `name` from the /metrics Prometheus text ("" label =
/// unlabeled series); 0 when absent.
double ScrapeCounter(const std::string& text, const std::string& series) {
  const std::string key = "agora_" + series + " ";
  const size_t at = text.find("\n" + key);
  if (at == std::string::npos) return 0;
  return std::atof(text.c_str() + at + 1 + key.size());
}

// ---------------------------------------------------------------------------
// Output

std::string FormatValue(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string EnvelopeJson(const Options& o, Database* db) {
  const std::string build = PERFBENCH_BUILD_TYPE;
  const std::string sanitize = PERFBENCH_SANITIZE;
  const bool comparable = build == "Release" && sanitize.empty();
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"nproc\": %ld, \"build_type\": \"%s\", \"sanitizer\": \"%s\", "
      "\"comparable\": %s, \"scale_factor\": %g, \"docs\": %zu, "
      "\"pool_threads\": %zu, \"execution_threads\": %d, "
      "\"memory_budget\": %lld, \"commit\": \"%s\"}",
      WorkloadName(o.kind), static_cast<unsigned long long>(o.seed), o.seconds,
      o.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN), build.c_str(),
      sanitize.c_str(), comparable ? "true" : "false", kScaleFactor,
      o.kind == WorkloadKind::kServeShort ? kServeDocs : size_t{0},
      agora::ThreadPool::Global()->size(), db->options().physical.num_threads,
      static_cast<long long>(db->memory_budget()), o.commit.c_str());
  return buf;
}

/// The end-to-end metric a per-layer metric should move, and on which
/// workload (first matching prefix; see README.md).
const char* ShouldMove(const std::string& name) {
  static const std::pair<const char*, const char*> kMap[] = {
      {"sql.", "latency_p50_ms on serve_short"},
      {"plan.", "latency_p50_ms on serve_short"},
      {"optimizer.optimize_us", "latency_p50_ms on serve_short"},
      {"optimizer.", "latency_p95_ms on serve_rw; setup_s on tpch_olap"},
      {"exec.execute_ms", "latency_geomean_ms, throughput_qps on tpch_*"},
      {"exec.worker_util", "latency_geomean_ms, throughput_qps on tpch_*"},
      {"exec.op.IndexScan.", "latency_p50_ms on serve_short"},
      {"exec.op.HybridSearch.", "latency_p95_ms on serve_short"},
      {"exec.op.", "latency_geomean_ms on tpch_*"},
      {"exec.", "latency_geomean_ms, peak_rss_mb on tpch_*"},
      {"expr.", "latency_geomean_ms on tpch_olap"},
      {"storage.insert_ms", "write_mean_ms on serve_rw"},
      {"storage.cold_scan_ms", "latency_p95_ms on serve_rw"},
      {"storage.", "latency_geomean_ms on tpch_olap"},
      {"server.write_wait_ms", "write_mean_ms on serve_rw"},
      {"server.rejected_share", "failed_share on serve_short"},
      {"server.", "latency_p50_ms, max_qps_under_slo on serve_short"},
      {"hybrid.", "latency_p95_ms on serve_short"},
  };
  for (const auto& [prefix, moves] : kMap) {
    if (name.rfind(prefix, 0) == 0) return moves;
  }
  return "";
}

int Emit(const Options& o, const std::string& envelope, bool correct,
         size_t attempted, size_t failed, const std::vector<Metric>& metrics,
         const std::vector<Metric>& extra) {
  std::string json = "{\"correct\": " +
                     std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            FormatValue(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  for (const auto* list : {&metrics, &extra}) {
    for (const Metric& m : *list) {
      const char* moves = o.trace ? ShouldMove(m.name) : "";
      std::printf("[perfbench] %-34s %14s %-8s%s%s\n", m.name.c_str(),
                  FormatValue(m.value).c_str(), m.unit.c_str(),
                  *moves ? " -> " : "", moves);
    }
  }
  const std::string path = o.out_dir + "/" + WorkloadName(o.kind) + "-seed" +
                           std::to_string(o.seed) + "-trace" +
                           (o.trace ? "1" : "0") + ".json";
  if (std::FILE* out = std::fopen(path.c_str(), "w")) {
    std::string extra_json;
    for (const Metric& m : extra) {
      extra_json += (extra_json.empty() ? "\"" : ", \"") + m.name +
                    "\": {\"value\": " + FormatValue(m.value) +
                    ", \"unit\": \"" + m.unit + "\"}";
    }
    std::fprintf(out, "{\"envelope\": %s, \"result\": %s, \"extra\": {%s}}\n",
                 envelope.c_str(), json.c_str(), extra_json.c_str());
    std::fclose(out);
    std::printf("[perfbench] result written to %s\n", path.c_str());
  }
  std::fflush(stdout);
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int Die(const std::string& what) {
  std::fprintf(stderr, "[perfbench] error: %s\n", what.c_str());
  return 2;
}

// ---------------------------------------------------------------------------

/// Builds one set-up into `inst` and returns its wall time in seconds.
double TimedSetUp(const Options& o, const Inputs& in,
                  std::unique_ptr<Instance>* inst, Status* status) {
  inst->reset();  // free the previous set-up before building the next
  *inst = std::make_unique<Instance>();
  const Clock::time_point t0 = Clock::now();
  *status = SetUp(o, in, inst->get());
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

int RunUntraced(const Options& o, const Inputs& in) {
  // The measured set-up is the process's first, so the timed traffic
  // always runs on a fresh heap; the other set-ups follow the traffic and
  // only contribute to setup_s.
  std::vector<double> setup_s;
  std::unique_ptr<Instance> inst;
  Status status;
  setup_s.push_back(TimedSetUp(o, in, &inst, &status));
  if (!status.ok()) return Die("set-up: " + status.ToString());
  Expected ex;
  status = ComputeExpected(in, inst->db(), &ex);
  if (!status.ok()) return Die("references: " + status.ToString());
  const std::string envelope = EnvelopeJson(o, inst->db());
  std::printf("[perfbench] envelope %s\n", envelope.c_str());

  RwState rw;
  size_t cursor = 0;
  Loop loop = RunTraffic(o.kind, inst.get(), in, ex, o.seconds, &rw, &cursor,
                         nullptr);
  if (o.kind == WorkloadKind::kServeRw) {
    CheckAcked(inst->port(), ex, &rw, &loop);
  }
  if (!ex.mismatch.empty()) loop.Fail(ex.mismatch);
  PrintLatencies("timed", loop, in);
  PrintInexact(ex);
  const EndToEnd e = Summarize(loop, in);
  if (!e.error.empty()) return Die(e.error);
  while (setup_s.size() < kSetupRepeats) {
    setup_s.push_back(TimedSetUp(o, in, &inst, &status));
    if (!status.ok()) return Die("set-up: " + status.ToString());
  }
  std::printf("[perfbench] set-up seconds:");
  for (double s : setup_s) std::printf(" %.4f", s);
  std::printf("\n");

  std::vector<Metric> metrics = {
      {"latency_p50_ms", "ms", e.p50},
      {"latency_p95_ms", "ms", e.p95},
      {"latency_geomean_ms", "ms", e.geomean},
      {"throughput_qps", "1/s", e.qps},
      {"peak_rss_mb", "MiB", PeakRssMb()},
      {"setup_s", "s", PlainMedian(setup_s)},
  };
  const size_t attempted = loop.attempted + loop.write_attempted;
  const size_t failed = loop.failed + loop.write_failed;
  std::vector<Metric> extra = {
      {"budget_inexact_templates", "count",
       static_cast<double>(ex.inexact.size())},
      {"failed_share", "ratio",
       static_cast<double>(failed) / static_cast<double>(attempted)},
      {"samples", "count", static_cast<double>(e.n)},
      {"sender_late_max_ms", "ms", loop.max_late_ms},
  };
  if (!loop.write_ms.empty()) {
    double sum = 0;
    for (double ms : loop.write_ms) sum += ms;
    extra.push_back({"write_mean_ms", "ms", sum / loop.write_ms.size()});
    extra.push_back(
        {"writes", "count", static_cast<double>(loop.write_ms.size())});
  }
  if (!loop.mismatch.empty()) {
    std::printf("[perfbench] CORRECTNESS FAILURE: %s\n", loop.mismatch.c_str());
  }
  return Emit(o, envelope, loop.mismatch.empty(), attempted, failed, metrics,
              extra);
}

int RunTraced(const Options& o, const Inputs& in) {
  auto inst = std::make_unique<Instance>();
  Status status = SetUp(o, in, inst.get());
  if (!status.ok()) return Die("set-up: " + status.ToString());
  Expected ex;
  status = ComputeExpected(in, inst->db(), &ex);
  if (!status.ok()) return Die("references: " + status.ToString());
  const std::string envelope = EnvelopeJson(o, inst->db());
  std::printf("[perfbench] envelope %s\n", envelope.c_str());

  // Half the time untraced, half traced, in alternating quarters so that
  // drift over the run cancels: the difference is the tracing overhead.
  Tracer tracer;
  RwState rw;
  size_t cursor = 0;
  Loop plain, traced;
  for (int quarter = 0; quarter < 4; ++quarter) {
    Tracer* t = quarter % 2 == 1 ? &tracer : nullptr;
    Loop part = RunTraffic(o.kind, inst.get(), in, ex, o.seconds / 4, &rw,
                           &cursor, t);
    Loop& into = t == nullptr ? plain : traced;
    const double wall = into.wall_s + part.wall_s;
    into.Merge(part);
    into.wall_s = wall;
  }
  Loop checks;
  if (!ex.mismatch.empty()) checks.Fail(ex.mismatch);
  PrintInexact(ex);
  checks.Merge(plain);
  checks.Merge(traced);
  PrintLatencies("untraced half", plain, in);
  PrintLatencies("traced half", traced, in);

  double max_qps = 0;
  if (o.kind == WorkloadKind::kServeShort) {
    max_qps = MaxQpsUnderSlo(inst->port(), in, ex, &checks);
  }
  if (o.kind == WorkloadKind::kServeRw) {
    CheckAcked(inst->port(), ex, &rw, &checks);
  }

  // Embedded workloads get a server for the pass, so every layer is
  // measured on every workload.
  if (!inst->server) {
    agora::ServerOptions options;
    options.port = 0;
    inst->server = std::make_unique<agora::HttpServer>(inst->db(), options);
    status = inst->server->Start();
    if (!status.ok()) return Die("server: " + status.ToString());
  }
  PassData pass;
  status = RunPass(inst.get(), in, ex, &tracer, &pass, &checks);
  if (!status.ok()) return Die("traced pass: " + status.ToString());
  agora::HttpClient client("127.0.0.1", inst->port());
  auto scraped = client.Get("/metrics");
  const std::string metrics_text = scraped.ok() ? "\n" + scraped->body : "";
  ColdProbe probe;
  status = RunColdProbe(inst.get(), in, ex, &tracer, &probe, &checks);
  if (!status.ok()) return Die("cold probe: " + status.ToString());

  const std::vector<Span> spans = tracer.Spans();
  const std::string span_path = o.out_dir + "/" + WorkloadName(o.kind) +
                                "-seed" + std::to_string(o.seed) +
                                ".spans.jsonl";
  if (tracer.WriteJsonLines(span_path)) {
    std::printf("[perfbench] %zu spans written to %s\n", spans.size(),
                span_path.c_str());
  }

  std::vector<double> wire;
  for (const auto& per_rep : pass.wire_us) wire.push_back(PlainMedian(per_rep));
  const agora::ExecStats& c = pass.counts;
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };

  std::vector<Metric> metrics = {
      {"sql.parse_us", "us",
       Weighted(pass, SlotMedians(spans, pass, "sql.parse"))},
      {"plan.bind_us", "us",
       Weighted(pass, SlotMedians(spans, pass, "plan.bind"))},
      {"optimizer.optimize_us", "us",
       Weighted(pass, SlotMedians(spans, pass, "optimizer.optimize"))},
      {"optimizer.cold_optimize_ms", "ms", PlainMedian(probe.cold_optimize_ms)},
      {"optimizer.stats_ms", "ms",
       probe.stats_ms[0] + probe.stats_ms[1]},
      {"exec.execute_ms", "ms",
       Weighted(pass, SlotMedians(spans, pass, "exec.execute")) / 1e3},
      {"exec.worker_util", "ratio",
       ratio(pass.busy_s, pass.execute_s * pass.threads)},
  };
  for (const char* op : {"Scan", "Filter", "Project", "HashJoin",
                         "HashAggregate", "TopK", "Sort", "IndexScan",
                         "HybridSearch"}) {
    std::vector<double> per_slot;
    for (const auto& ops : pass.op_ms) {
      const auto it = ops.find(op);
      per_slot.push_back(it == ops.end() ? 0.0 : PlainMedian(it->second));
    }
    metrics.push_back({std::string("exec.op.") + op + ".self_ms", "ms",
                       Weighted(pass, per_slot)});
  }
  const double execute_once_s = pass.execute_s / kPassReps;
  const std::vector<Metric> rest = {
      {"exec.bytes_materialized", "count",
       static_cast<double>(c.bytes_materialized)},
      {"exec.ht_probes_per_lookup", "ratio",
       ratio(static_cast<double>(c.hash_table_probe_steps),
             static_cast<double>(c.hash_table_lookups))},
      {"exec.bloom_reject_share", "ratio",
       ratio(static_cast<double>(c.bloom_filtered_rows),
             static_cast<double>(c.bloom_checked_rows))},
      {"exec.mem_peak_mb", "MiB",
       static_cast<double>(c.mem_bytes_reserved_peak) / (1 << 20)},
      {"exec.spill_partitions", "count",
       static_cast<double>(c.spill_partitions)},
      {"exec.budget_inexact_templates", "count",
       static_cast<double>(ex.inexact.size())},
      {"expr.rows_evaluated", "count",
       static_cast<double>(c.expr_rows_evaluated)},
      {"expr.mrows_per_s", "Mrows/s",
       ratio(static_cast<double>(c.expr_rows_evaluated), execute_once_s) / 1e6},
      {"storage.insert_ms", "ms", PlainMedian(probe.insert_ms)},
      {"storage.cold_scan_ms", "ms", PlainMedian(probe.cold_scan_ms)},
      {"storage.blocks_skipped_share", "ratio",
       ratio(static_cast<double>(c.blocks_skipped),
             static_cast<double>(c.blocks_read + c.blocks_skipped))},
      {"storage.rows_scanned", "count", static_cast<double>(c.rows_scanned)},
      {"server.handle_us", "us",
       Weighted(pass, SlotMedians(spans, pass, "server.handle"))},
      {"server.serialize_us", "us",
       Weighted(pass, SlotMedians(spans, pass, "server.serialize"))},
      {"server.wire_us", "us", Weighted(pass, wire)},
  };
  metrics.insert(metrics.end(), rest.begin(), rest.end());

  double write_mean_ms = 0;
  if (!checks.write_ms.empty()) {
    for (double ms : checks.write_ms) write_mean_ms += ms;
    write_mean_ms /= static_cast<double>(checks.write_ms.size());
  }
  const double requests =
      ScrapeCounter(metrics_text, "server_requests_total{op=\"query\"}");
  const double rejected =
      ScrapeCounter(metrics_text, "server_queries_rejected_total");
  auto median_ms = [](const Loop& loop) {
    std::vector<double> ms;
    for (const Sample& sample : loop.samples) ms.push_back(sample.ms);
    return Percentile(ms, 0.5);
  };
  const auto plain_p50 = median_ms(plain);
  const auto traced_p50 = median_ms(traced);
  const double overhead_ms =
      plain_p50 && traced_p50 ? *traced_p50 - *plain_p50 : 0.0;
  const size_t attempted = checks.attempted + checks.write_attempted;
  const size_t failed = checks.failed + checks.write_failed;
  const std::vector<Metric> tail = {
      {"server.write_wait_ms", "ms",
       checks.write_ms.empty() ? 0.0
                               : write_mean_ms - PlainMedian(probe.insert_ms)},
      {"server.rejected_share", "ratio", ratio(rejected, requests)},
      {"hybrid.vector_distances", "count",
       static_cast<double>(c.vector_distances)},
      {"hybrid.filter_rows", "count",
       static_cast<double>(c.hybrid_filter_rows)},
      {"hybrid.overfetch_retries", "count",
       static_cast<double>(c.overfetch_retries)},
      {"max_qps_under_slo", "1/s", max_qps},
      {"write_mean_ms", "ms", write_mean_ms},
      {"failed_share", "ratio",
       ratio(static_cast<double>(failed), static_cast<double>(attempted))},
      {"trace.overhead_p50_ms", "ms", overhead_ms},
      {"trace.overhead_share", "ratio",
       ratio(overhead_ms, plain_p50.value_or(0.0))},
  };
  metrics.insert(metrics.end(), tail.begin(), tail.end());
  if (!plain_p50 || !traced_p50) {
    std::printf("[perfbench] note: too few samples for the trace overhead\n");
  }
  if (!checks.mismatch.empty()) {
    std::printf("[perfbench] CORRECTNESS FAILURE: %s\n",
                checks.mismatch.c_str());
  }
  return Emit(o, envelope, checks.mismatch.empty(), attempted, failed, metrics,
              {});
}

int Main(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      const auto kind = ParseWorkload(value);
      if (!kind) return Die("unknown workload " + value);
      o.kind = *kind;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--out-dir") {
      o.out_dir = value;
    } else if (flag == "--commit") {
      o.commit = value;
    } else {
      return Die("unknown flag " + flag);
    }
  }
  if (!have_workload || o.seconds <= 0) {
    return Die("usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>] [--commit <id>]");
  }
  DatasetShape shape;
  shape.orders = agora::TpchRowsAtScale("orders", kScaleFactor);
  shape.customers = agora::TpchRowsAtScale("customer", kScaleFactor);
  shape.parts = agora::TpchRowsAtScale("part", kScaleFactor);
  shape.suppliers = agora::TpchRowsAtScale("supplier", kScaleFactor);
  agora::SyntheticHybridData topics = agora::MakeSyntheticHybridData(0, 32);
  shape.topic_names = topics.topic_names;
  for (const auto& centroid : topics.topic_centroids) {
    shape.topic_centroids.emplace_back(centroid.begin(), centroid.end());
  }
  const Inputs in = MakeInputs(o.kind, o.seed, shape);
  return o.trace ? RunTraced(o, in) : RunUntraced(o, in);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
