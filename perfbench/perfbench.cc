// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <adhoc_overcache|dashboard_tcp|churn_dist>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//             [--git-sha <sha>]
//   perfbench --selftest       # the correctness gate counts injected faults
//   perfbench --anchor         # one executed Fig. 3 point (SF 0.01, s=1/100)
//
// Every workload joins TPC-H Customers and Orders (tpch/tpch.h, m = 9) on
// custkey through the public API, as closed loops: each client waits for
// its reply. The seed drives the generated tables, the client keys, the
// query mix and the mutation choices; the engine only ever receives the
// generated inputs. Every decrypted result is compared, as a multiset of
// rows, with PlaintextHashJoin over plaintext mirrors of the tables.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. The traced run records
// spans around every public call the harness makes (trace.h), alternates
// traced and untraced iterations to measure the tracing overhead, and ends
// with a kernel-replay phase that times core, pairing and field functions
// on (token, row) pairs sampled from the run itself. The exit code is 0
// only when every result was correct and the workload's self-checks held.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "baselines/minimal_reference.h"
#include "bench/bench_util.h"
#include "core/scheme.h"
#include "db/client.h"
#include "db/plaintext_exec.h"
#include "db/server.h"
#include "db/wire.h"
#include "dist/coordinator.h"
#include "dist/worker.h"
#include "field/mont_accel.h"
#include "net/tcp_client.h"
#include "net/tcp_server.h"
#include "pairing/pairing.h"
#include "tpch/tpch.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace sjoin;  // NOLINT: benchmark harness

// --- Metric catalogue ---------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

// Reported with --trace 0 by every workload.
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},           {"series_p50_ms", "ms"},
    {"series_p90_ms", "ms"},    {"queries_per_s", "1/s"},
    {"peak_rss_mb", "MB"},      {"wire_bytes_per_query", "bytes"},
};

// Reported with --trace 1 by every workload; a metric a workload does not
// exercise reads 0 there.
const std::vector<MetricDef> kPerLayer = {
    {"tpch.generate_s", "s"},
    {"db.client.encrypt_row_ms", "ms"},
    {"db.client.tokengen_ms", "ms"},
    {"db.client.result_open_ms", "ms"},
    {"db.client.prepare_insert_ms", "ms"},
    {"db.store_s", "s"},
    {"db.prime_s", "s"},
    {"db.series_exec_ms", "ms"},
    {"db.prefilter_ms", "ms"},
    {"db.decrypt_ms", "ms"},
    {"db.match_ms", "ms"},
    {"db.decrypts_per_query", "count"},
    {"db.decrypts_per_result_pair", "count"},
    {"db.digest_hit_ratio", "ratio"},
    {"db.prepared_hit_ratio", "ratio"},
    {"db.prepared_built_per_query", "count"},
    {"db.cold_pairings_per_query", "count"},
    {"db.cache_evictions_per_query", "count"},
    {"db.cache_mb", "MB"},
    {"db.sched_rejected", "count"},
    {"db.wire.request_bytes_per_query", "bytes"},
    {"db.wire.response_bytes_per_query", "bytes"},
    {"db.wire.encode_us", "us"},
    {"db.wire.decode_us", "us"},
    {"net.rpc_ms", "ms"},
    {"net.wait_ms", "ms"},
    {"net.request_errors", "count"},
    {"core.sjdec_cold_ms", "ms"},
    {"core.prepare_row_ms", "ms"},
    {"core.sjdec_prepared_ms", "ms"},
    {"pairing.miller_us", "us"},
    {"pairing.miller_prepared_us", "us"},
    {"pairing.final_exp_us", "us"},
    {"field.fp2_mul_ns", "ns"},
    {"field.fp12_mul_ns", "ns"},
    {"dist.upload_s", "s"},
    {"dist.series_ms", "ms"},
    {"dist.decrypt_rpcs_per_series", "count"},
    {"dist.worker_digests_per_query", "count"},
    {"dist.failover_units", "count"},
    {"dist.local_fallback_rows", "count"},
    {"dist.apply_mutation_ms", "ms"},
    {"dist.mutation_rpcs_per_batch", "count"},
    {"dist.worker_bytes_per_query", "bytes"},
    {"mutation_p50_ms", "ms"},
    {"mutation_p90_ms", "ms"},
    {"failed_op_ratio", "ratio"},
    {"trace.overhead_ratio", "ratio"},
};

// --- Small helpers ------------------------------------------------------------

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// Fatal harness error (not a measured failure): no result line. _Exit, as
/// client threads may still be running.
[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::fflush(nullptr);
  std::_Exit(2);
}

template <typename T>
T Must(Result<T> r, const char* what) {
  if (!r.ok()) Die(std::string(what) + ": " + r.status().ToString());
  return std::move(r).value();
}

void MustOk(const Status& s, const char* what) {
  if (!s.ok()) Die(std::string(what) + ": " + s.ToString());
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = p * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    size_t b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

InPredicate In(const std::string& column, std::vector<Value> values) {
  return InPredicate{column, std::move(values)};
}

JoinQuerySpec Spec(const std::string& a, TableSelection sel_a,
                   const std::string& b, TableSelection sel_b) {
  JoinQuerySpec q;
  q.table_a = a;
  q.table_b = b;
  q.join_column_a = q.join_column_b = "custkey";
  q.selection_a = std::move(sel_a);
  q.selection_b = std::move(sel_b);
  return q;
}

// --- Correctness gate ---------------------------------------------------------

using RowMultiset = std::vector<std::string>;

std::string RowKey(const std::vector<Value>& row) {
  Bytes b;
  for (const Value& v : row) v.SerializeTo(&b);
  return std::string(b.begin(), b.end());
}

RowMultiset Canonical(const Table& t) {
  RowMultiset out;
  out.reserve(t.NumRows());
  for (size_t r = 0; r < t.NumRows(); ++r) out.push_back(RowKey(t.row(r)));
  std::sort(out.begin(), out.end());
  return out;
}

/// The rows DecryptJoinResult must produce for `q`: (theta, A's non-join
/// columns, B's non-join columns) for every plaintext join pair.
RowMultiset ExpectedJoin(const Table& a, const Table& b,
                         const JoinQuerySpec& q) {
  auto pairs = Must(PlaintextHashJoin(a, b, q), "PlaintextHashJoin");
  size_t ja = Must(a.schema().ColumnIndex(q.join_column_a), "join column");
  size_t jb = Must(b.schema().ColumnIndex(q.join_column_b), "join column");
  RowMultiset out;
  out.reserve(pairs.size());
  for (const JoinedRowPair& p : pairs) {
    std::vector<Value> row = {a.At(p.row_a, ja)};
    for (size_t c = 0; c < a.schema().NumColumns(); ++c) {
      if (c != ja) row.push_back(a.At(p.row_a, c));
    }
    for (size_t c = 0; c < b.schema().NumColumns(); ++c) {
      if (c != jb) row.push_back(b.At(p.row_b, c));
    }
    out.push_back(RowKey(row));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Self-test fault: one cell of the first result row altered (or a bogus
/// row added to an empty result).
Table CorruptFirstRow(const Table& t) {
  Table out(t.name(), t.schema());
  for (size_t r = 0; r < t.NumRows(); ++r) {
    std::vector<Value> row = t.row(r);
    if (r == 0) {
      Value& v = row.back();
      v = v.is_int() ? Value(v.AsInt() + 1) : Value(v.AsString() + "#");
    }
    MustOk(out.AppendRow(std::move(row)), "corrupt row");
  }
  if (t.NumRows() == 0) {
    std::vector<Value> row;
    for (const Column& c : t.schema().columns()) {
      row.push_back(c.kind == ValueKind::kInt64 ? Value(int64_t{-1})
                                                : Value("bogus"));
    }
    MustOk(out.AppendRow(std::move(row)), "bogus row");
  }
  return out;
}

/// Attempted/failed operations of one client, with the first few reasons.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> reasons;
  void Record(bool ok, const std::string& why) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (reasons.size() < 5) reasons.push_back(why);
  }
  void Merge(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    for (const auto& r : o.reasons) {
      if (reasons.size() < 5) reasons.push_back(r);
    }
  }
};

// --- Run configuration and report --------------------------------------------

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  std::string git_sha = "unknown";
  /// Self-test only: "corrupt_row" or "extra_pair" (adhoc_overcache), and a
  /// scale-factor override for a tiny data set.
  std::string fault;
  double scale_factor = 0;
};

struct Report {
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  Tally tally;
  std::vector<std::string> selfcheck_failures;
  std::vector<std::string> notes;  // human-readable context lines

  void SelfCheck(bool ok, const std::string& what) {
    if (!ok) selfcheck_failures.push_back(what);
  }
  bool correct() const {
    return tally.failed == 0 && selfcheck_failures.empty();
  }
};

/// SeriesExecStats summed over a run's timed series.
struct ExecTotals {
  uint64_t series = 0;
  uint64_t queries = 0;
  uint64_t result_pairs = 0;
  uint64_t requested = 0, performed = 0, digest_hits = 0;
  uint64_t cold_pairings = 0, prepared_pairings = 0;
  uint64_t prepared_built = 0, prepared_hits = 0;
  double prefilter_s = 0, decrypt_s = 0, match_s = 0;

  void Add(const EncryptedSeriesResult& r) {
    const SeriesExecStats& s = r.stats;
    ++series;
    queries += r.results.size();
    for (const auto& q : r.results) result_pairs += q.row_pairs.size();
    requested += s.decrypts_requested;
    performed += s.decrypts_performed;
    digest_hits += s.digest_cache_hits;
    cold_pairings += s.pairings_computed;
    prepared_pairings += s.prepared_pairings;
    prepared_built += s.prepared_rows_built;
    prepared_hits += s.prepared_cache_hits;
    prefilter_s += s.prefilter_seconds;
    decrypt_s += s.decrypt_seconds;
    match_s += s.match_seconds;
  }
  void Merge(const ExecTotals& o) {
    series += o.series;
    queries += o.queries;
    result_pairs += o.result_pairs;
    requested += o.requested;
    performed += o.performed;
    digest_hits += o.digest_hits;
    cold_pairings += o.cold_pairings;
    prepared_pairings += o.prepared_pairings;
    prepared_built += o.prepared_built;
    prepared_hits += o.prepared_hits;
    prefilter_s += o.prefilter_s;
    decrypt_s += o.decrypt_s;
    match_s += o.match_s;
  }
  double PreparedHitRatio() const {
    return Ratio(static_cast<double>(prepared_hits),
                 static_cast<double>(prepared_pairings));
  }
  double DigestHitRatio() const {
    return Ratio(static_cast<double>(digest_hits),
                 static_cast<double>(requested));
  }
  void Report(std::map<std::string, double>* layer) const {
    auto& m = *layer;
    double n_series = static_cast<double>(series);
    double n_queries = static_cast<double>(queries);
    m["db.prefilter_ms"] = Ratio(1e3 * prefilter_s, n_series);
    m["db.decrypt_ms"] = Ratio(1e3 * decrypt_s, n_series);
    m["db.match_ms"] = Ratio(1e3 * match_s, n_series);
    m["db.decrypts_per_query"] = Ratio(static_cast<double>(requested), n_queries);
    m["db.decrypts_per_result_pair"] =
        Ratio(static_cast<double>(performed), static_cast<double>(result_pairs));
    m["db.digest_hit_ratio"] = DigestHitRatio();
    m["db.prepared_hit_ratio"] = PreparedHitRatio();
    m["db.prepared_built_per_query"] =
        Ratio(static_cast<double>(prepared_built), n_queries);
    m["db.cold_pairings_per_query"] =
        Ratio(static_cast<double>(cold_pairings), n_queries);
  }
};

/// What one client thread measured in the timed loop.
struct ClientLog {
  std::vector<double> series_ms;
  std::vector<double> mutation_ms;
  uint64_t queries = 0;
  double busy_s = 0;  // loop wall minus correctness checks
  // Tracing-overhead split: [0] untraced iterations, [1] traced ones.
  double mode_s[2] = {0, 0};
  uint64_t mode_queries[2] = {0, 0};
  ExecTotals exec;
  Tally tally;
  // Wire accounting (serialized sizes of this client's messages).
  uint64_t request_bytes = 0, response_bytes = 0;
  std::vector<double> rpc_ms;
  std::optional<QuerySeriesTokens> last_request;
  std::optional<EncryptedSeriesResult> last_response;

  void Merge(ClientLog&& o) {
    series_ms.insert(series_ms.end(), o.series_ms.begin(), o.series_ms.end());
    mutation_ms.insert(mutation_ms.end(), o.mutation_ms.begin(),
                       o.mutation_ms.end());
    queries += o.queries;
    for (int i = 0; i < 2; ++i) {
      mode_s[i] += o.mode_s[i];
      mode_queries[i] += o.mode_queries[i];
    }
    exec.Merge(o.exec);
    tally.Merge(o.tally);
    request_bytes += o.request_bytes;
    response_bytes += o.response_bytes;
    rpc_ms.insert(rpc_ms.end(), o.rpc_ms.begin(), o.rpc_ms.end());
    if (o.last_request) last_request = std::move(o.last_request);
    if (o.last_response) last_response = std::move(o.last_response);
  }
};

/// Iteration i of a traced run records spans only when even, so traced and
/// untraced iterations interleave on every client.
bool TracedIteration(const RunConfig& cfg, uint64_t i) {
  return cfg.trace && i % 2 == 0;
}

/// Fills the end-to-end metrics and the client-side per-layer ones that
/// every workload shares. `busy_s` holds each concurrent client's loop
/// wall time minus its correctness checks.
void ReportLoop(const ClientLog& log, const std::vector<double>& busy_s,
                double setup_s, Report* rep) {
  rep->e2e["setup_s"] = setup_s;
  rep->e2e["series_p50_ms"] = Percentile(log.series_ms, 0.5);
  rep->e2e["series_p90_ms"] = Percentile(log.series_ms, 0.9);
  rep->e2e["peak_rss_mb"] = PeakRssMb();
  // Queries over the clients' mean busy time: exactly the loop's throughput
  // for one client, the aggregate throughput for concurrent ones.
  double total_busy = 0;
  for (double b : busy_s) total_busy += b;
  rep->e2e["queries_per_s"] =
      busy_s.empty() ? 0
                     : Ratio(static_cast<double>(log.queries),
                             total_busy / static_cast<double>(busy_s.size()));
  rep->layer["mutation_p50_ms"] = Percentile(log.mutation_ms, 0.5);
  rep->layer["mutation_p90_ms"] = Percentile(log.mutation_ms, 0.9);
  double q_untraced = Ratio(static_cast<double>(log.mode_queries[0]),
                            log.mode_s[0]);
  double q_traced = Ratio(static_cast<double>(log.mode_queries[1]),
                          log.mode_s[1]);
  rep->layer["trace.overhead_ratio"] =
      q_untraced > 0 ? (q_untraced - q_traced) / q_untraced : 0;
  rep->layer["db.wire.request_bytes_per_query"] =
      Ratio(static_cast<double>(log.request_bytes),
            static_cast<double>(log.exec.queries));
  rep->layer["db.wire.response_bytes_per_query"] =
      Ratio(static_cast<double>(log.response_bytes),
            static_cast<double>(log.exec.queries));
  log.exec.Report(&rep->layer);
  char range[96];
  std::snprintf(range, sizeof(range), "series ms: min %.1f, max %.1f",
                Percentile(log.series_ms, 0), Percentile(log.series_ms, 1));
  rep->notes.push_back(range);
  rep->notes.push_back(
      "timed: " + std::to_string(log.series_ms.size()) + " series, " +
      std::to_string(log.queries) + " queries, " +
      std::to_string(log.mutation_ms.size()) + " mutation batches");
}

/// Span-derived per-layer metrics (traced runs only).
void ReportSpans(size_t rows_encrypted, Report* rep) {
  auto setup = GlobalTracer().Aggregates();
  auto loop = GlobalTracer().Aggregates(/*series_only=*/true);
  auto& m = rep->layer;
  m["tpch.generate_s"] = setup["tpch.generate"].total_s;
  m["db.client.encrypt_row_ms"] =
      Ratio(1e3 * setup["db.client.encrypt_table"].total_s,
            static_cast<double>(rows_encrypted));
  m["db.store_s"] = setup["db.store"].total_s;
  m["db.prime_s"] = setup["db.prime"].total_s;
  m["dist.upload_s"] = setup["dist.upload"].total_s;
  m["db.client.tokengen_ms"] = loop["db.client.tokengen"].MeanMs();
  m["db.client.result_open_ms"] = loop["db.client.result_open"].MeanMs();
  m["db.client.prepare_insert_ms"] = loop["db.client.prepare_insert"].MeanMs();
  m["db.series_exec_ms"] = loop["db.series_exec"].MeanMs();
  m["dist.series_ms"] = loop["dist.series"].MeanMs();
  m["dist.apply_mutation_ms"] = loop["dist.apply_mutation"].MeanMs();
}

// --- Data set -----------------------------------------------------------------

struct Dataset {
  Table customers;
  Table orders;
  EncryptedTable enc_c;
  EncryptedTable enc_o;
  size_t rows() const { return customers.NumRows() + orders.NumRows(); }
};

Dataset MakeDataset(EncryptedClient* client, double sf, uint64_t seed) {
  Dataset d;
  {
    TraceSpan span("tpch.generate");
    TpchOptions opts{.scale_factor = sf, .seed = seed};
    d.customers = GenerateCustomers(opts);
    d.orders = GenerateOrders(opts);
  }
  {
    TraceSpan span("db.client.encrypt_table");
    d.enc_c = Must(client->EncryptTable(d.customers, "custkey"), "encrypt");
    d.enc_o = Must(client->EncryptTable(d.orders, "custkey"), "encrypt");
  }
  return d;
}

const Table& PlainTable(const std::string& name, const Table& customers,
                        const Table& orders) {
  return name == "Customers" ? customers : orders;
}

const EncryptedTable& EncTable(const std::string& name, const Dataset& d) {
  return name == "Customers" ? d.enc_c : d.enc_o;
}

/// Opens every result of a series (one span per series).
std::vector<Table> OpenResults(EncryptedClient* client,
                               const std::vector<JoinQuerySpec>& specs,
                               const EncryptedSeriesResult& res,
                               const Dataset& d, uint64_t series_id) {
  TraceSpan span("db.client.result_open", series_id);
  std::vector<Table> out;
  for (size_t i = 0; i < specs.size(); ++i) {
    auto t = client->DecryptJoinResult(res.results[i],
                                       EncTable(specs[i].table_a, d),
                                       EncTable(specs[i].table_b, d));
    out.push_back(t.ok() ? std::move(*t) : Table());
  }
  return out;
}

/// Gate: every query's decrypted rows equal the plaintext join's.
bool ResultsMatch(const std::vector<JoinQuerySpec>& specs,
                  const std::vector<Table>& got, const Table& customers,
                  const Table& orders, std::string* why) {
  for (size_t i = 0; i < specs.size(); ++i) {
    const JoinQuerySpec& q = specs[i];
    RowMultiset expect =
        ExpectedJoin(PlainTable(q.table_a, customers, orders),
                     PlainTable(q.table_b, customers, orders), q);
    if (i >= got.size() || Canonical(got[i]) != expect) {
      *why = "query " + std::to_string(i) + " result differs from the "
             "plaintext join (" + std::to_string(expect.size()) +
             " rows expected)";
      return false;
    }
  }
  return true;
}

std::vector<size_t> SelectedRows(const Table& t, const TableSelection& sel) {
  std::vector<size_t> rows;
  for (size_t r = 0; r < t.NumRows(); ++r) {
    if (Must(RowMatchesSelection(t, r, sel), "selection")) rows.push_back(r);
  }
  return rows;
}

/// Adds the rows of `t` matching `sel` to `out` as (table tag, row) pairs.
void CollectSelected(const Table& t, int tag, const TableSelection& sel,
                     std::set<std::pair<int, size_t>>* out) {
  for (size_t r : SelectedRows(t, sel)) out->insert({tag, r});
}

const std::vector<std::string> kStatuses = {"O", "F", "P"};
const std::vector<std::string> kPriorities = {
    "1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"};

/// Orders selection "orderstatus = s AND orderpriority = p".
TableSelection OrdersCombo(const std::string& status,
                           const std::string& priority) {
  return TableSelection{{In("orderstatus", {status}),
                         In("orderpriority", {priority})}};
}

TableSelection Nation(int64_t n) {
  return TableSelection{{In("nationkey", {n})}};
}

template <typename T>
void Shuffle(std::vector<T>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->NextUint64Below(i)]);
  }
}

// --- Kernel replay (traced runs) ----------------------------------------------

struct ReplaySample {
  SjToken token;
  SjRowCiphertext row;
};

/// Median over `batches` runs of `fn` (which does `reps` operations) of the
/// time per operation, in seconds.
template <typename Fn>
double MedianPerOp(int batches, int reps, Fn&& fn) {
  std::vector<double> per_op;
  for (int b = 0; b < batches; ++b) {
    auto t0 = Clock::now();
    fn();
    per_op.push_back(SecondsSince(t0) / reps);
  }
  return Percentile(per_op, 0.5);
}

volatile uint8_t g_sink = 0;  // keeps replayed results observable
void Keep(uint8_t v) { g_sink = static_cast<uint8_t>(g_sink ^ v); }

void Replay(const std::vector<ReplaySample>& samples, Report* rep) {
  if (samples.empty()) return;
  TraceSpan span("replay");
  auto& m = rep->layer;
  const int n = static_cast<int>(samples.size());
  std::vector<SjPreparedRow> prepared;
  {
    TraceSpan s("replay.core.prepare_row");
    m["core.prepare_row_ms"] = 1e3 * MedianPerOp(3, n, [&] {
      prepared.clear();
      for (const auto& s : samples) {
        prepared.push_back(SecureJoin::PrepareRow(s.row));
      }
    });
  }
  {
    TraceSpan s("replay.core.sjdec_cold");
    m["core.sjdec_cold_ms"] = 1e3 * MedianPerOp(3, n, [&] {
      for (const auto& s : samples) {
        Keep(SecureJoin::DecryptToDigest(s.token, s.row)[0]);
      }
    });
  }
  {
    TraceSpan s("replay.core.sjdec_prepared");
    m["core.sjdec_prepared_ms"] = 1e3 * MedianPerOp(3, n, [&] {
      for (int i = 0; i < n; ++i) {
        Keep(SecureJoin::DecryptToDigestPrepared(samples[i].token,
                                                 prepared[i])[0]);
      }
    });
  }
  // Pairing layer: the individual (token slot, ciphertext slot) pairings of
  // the first sample.
  const ReplaySample& s0 = samples[0];
  const size_t dim = std::min(s0.token.tk.size(), s0.row.c.size());
  std::vector<Fp12> millers;
  {
    TraceSpan s("replay.pairing.miller");
    m["pairing.miller_us"] = 1e6 * MedianPerOp(3, static_cast<int>(dim), [&] {
      millers.clear();
      for (size_t i = 0; i < dim; ++i) {
        millers.push_back(MillerLoop(s0.token.tk[i], s0.row.c[i]));
      }
    });
  }
  {
    TraceSpan s("replay.pairing.miller_prepared");
    m["pairing.miller_prepared_us"] =
        1e6 * MedianPerOp(3, static_cast<int>(dim), [&] {
          for (size_t i = 0; i < dim; ++i) {
            Fp12 f = MillerLoopPrepared(s0.token.tk[i], prepared[0].c[i]);
            Keep(static_cast<uint8_t>(f == millers[i]));
          }
        });
  }
  {
    TraceSpan s("replay.pairing.final_exp");
    m["pairing.final_exp_us"] = 1e6 * MedianPerOp(3, n, [&] {
      for (int i = 0; i < n; ++i) {
        Fp12 f = FinalExponentiation(millers[i % millers.size()]);
        Keep(static_cast<uint8_t>(f.IsOne()));
      }
    });
  }
  // Field layer: products of the run's own G2 coordinates and Miller outputs.
  std::vector<Fp2> coords;
  for (const auto& s : samples) {
    for (const auto& p : s.row.c) coords.push_back(p.x);
  }
  {
    TraceSpan s("replay.field.fp2_mul");
    const int reps = 200000;
    m["field.fp2_mul_ns"] = 1e9 * MedianPerOp(5, reps, [&] {
      Fp2 acc = coords[0];
      for (int i = 0; i < reps; ++i) acc = acc * coords[i % coords.size()];
      Keep(static_cast<uint8_t>(acc == coords[0]));
    });
  }
  {
    TraceSpan s("replay.field.fp12_mul");
    const int reps = 20000;
    m["field.fp12_mul_ns"] = 1e9 * MedianPerOp(5, reps, [&] {
      Fp12 acc = millers[0];
      for (int i = 0; i < reps; ++i) acc = acc * millers[i % millers.size()];
      Keep(static_cast<uint8_t>(acc.IsOne()));
    });
  }
}

/// Up to `n` (token, row) pairs from the last series of a run: each query's
/// tokens with (up to two of) the rows their selections picked.
std::vector<ReplaySample> SampleFromSeries(
    const QuerySeriesTokens& series, const std::vector<JoinQuerySpec>& specs,
    const Dataset& d, size_t n) {
  std::vector<ReplaySample> out;
  for (size_t i = 0; i < specs.size() && out.size() < n; ++i) {
    for (int side = 0; side < 2 && out.size() < n; ++side) {
      const std::string& name = side ? specs[i].table_b : specs[i].table_a;
      const TableSelection& sel =
          side ? specs[i].selection_b : specs[i].selection_a;
      const SjToken& tok =
          side ? series.queries[i].token_b : series.queries[i].token_a;
      const Table& plain = PlainTable(name, d.customers, d.orders);
      const EncryptedTable& enc = EncTable(name, d);
      const std::vector<size_t> rows = SelectedRows(plain, sel);
      for (size_t j = 0; j < rows.size() && j < 2 && out.size() < n; ++j) {
        out.push_back({tok, enc.rows[rows[j]].sj});
      }
    }
  }
  return out;
}

void ReplayWire(const ClientLog& log, Report* rep) {
  if (!log.last_request || !log.last_response) return;
  TraceSpan span("replay.db.wire");
  Bytes req, resp;
  const int reps = 20;
  double enc = MedianPerOp(3, reps, [&] {
    for (int i = 0; i < reps; ++i) {
      req = SerializeQuerySeries(*log.last_request);
      resp = SerializeSeriesResult(*log.last_response);
    }
  });
  double dec = MedianPerOp(3, reps, [&] {
    for (int i = 0; i < reps; ++i) {
      Keep(static_cast<uint8_t>(DeserializeQuerySeries(req).ok()));
      Keep(static_cast<uint8_t>(DeserializeSeriesResult(resp).ok()));
    }
  });
  rep->layer["db.wire.encode_us"] = 1e6 * enc;
  rep->layer["db.wire.decode_us"] = 1e6 * dec;
}

// --- Set-up -------------------------------------------------------------------
//
// Each workload is a class whose constructor is the whole set-up (generate,
// encrypt, upload, start servers, prime caches) and whose Run() is the timed
// loop plus reporting. A run builds the workload kSetups times from the same
// seed, keeps the last one and reports the median set-up time, so one slow
// set-up does not decide setup_s. Earlier builds are torn down before the
// next starts; only the last one is traced.

constexpr int kSetups = 3;

template <typename Workload>
Report RunWorkload(const RunConfig& cfg) {
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  for (int i = 0; i < kSetups; ++i) {
    w.reset();
#if defined(__GLIBC__)
    // Hand a torn-down build's memory back, so each build starts from the
    // same heap and peak_rss_mb does not depend on how its leftovers are
    // reused.
    malloc_trim(0);
#endif
    Tracer::SetThreadActive(i + 1 == kSetups);
    const auto t0 = Clock::now();
    w = std::make_unique<Workload>(cfg);
    setup_s.push_back(SecondsSince(t0));
  }
  Tracer::SetThreadActive(true);
  return w->Run(Percentile(setup_s, 0.5));
}

// --- Workload: adhoc_overcache ------------------------------------------------
//
// In-process EncryptedServer::ExecuteJoinSeries, one client, t = 1, two
// server threads. Each series holds two fresh-key queries (PrepareSeries):
//   Customers[nationkey = n] JOIN Orders[orderstatus = s AND orderpriority = p]
// The 15 (status, priority) combinations partition Orders (about 20 rows
// each at SF 0.0002); the run visits them in a seeded cyclic order, so a
// combination recurs only after the other 14 (about 280 Orders rows) went
// through a 16 MiB prepared-row cache (47 rows at dim 21): the cache mostly
// misses and evicts. The small table and cache keep a series near 40
// decryptions, so a run holds enough series for a steady p90. Set-up primes
// the cache until it first evicts, so timing starts in that steady state.

constexpr double kAdhocScaleFactor = 0.0002;
constexpr size_t kAdhocCacheBytes = size_t{16} << 20;

class Adhoc {
 public:
  explicit Adhoc(const RunConfig& cfg)
      : cfg_(cfg),
        client_({.num_attrs = 9, .max_in_clause = 1, .rng_seed = cfg.seed}),
        d_(MakeDataset(&client_,
                       cfg.scale_factor > 0 ? cfg.scale_factor
                                            : kAdhocScaleFactor,
                       cfg.seed)),
        rng_(cfg.seed * 0x9e3779b97f4a7c15ULL + 1) {
    {
      TraceSpan span("db.store");
      MustOk(server_.StoreTable(d_.enc_c), "store");
      MustOk(server_.StoreTable(d_.enc_o), "store");
    }
    MustOk(reference_.Upload(d_.customers, "custkey", d_.orders, "custkey"),
           "reference upload");
    opts_.num_threads = 2;
    opts_.prepared_cache_bytes = kAdhocCacheBytes;
    for (const auto& s : kStatuses) {
      for (const auto& p : kPriorities) combos_.push_back(OrdersCombo(s, p));
    }
    Shuffle(&combos_, &rng_);
    {
      TraceSpan span("db.prime");
      for (int i = 0; i < 8 && server_.prepared_cache().stats().evicted == 0;
           ++i) {
        Series(false);
      }
    }
    cache0_ = server_.prepared_cache().stats();
  }

  Report Run(double setup_s) {
    const size_t cache_rows =
        kAdhocCacheBytes /
        SjPreparedRow::BytesForDim(client_.master_key().params.Dimension());
    const auto loop_start = Clock::now();
    double check_s = 0;
    for (uint64_t it = 1; SecondsSince(loop_start) < cfg_.seconds; ++it) {
      const bool traced = TracedIteration(cfg_, it);
      Tracer::SetThreadActive(traced);
      const auto i0 = Clock::now();
      const double ms = Series(true);
      check_s += SecondsSince(i0) - ms / 1e3;
      log_.series_ms.push_back(ms);
      log_.queries += 2;
      log_.mode_s[traced] += ms / 1e3;
      log_.mode_queries[traced] += 2;
    }
    Tracer::SetThreadActive(true);
    log_.busy_s = SecondsSince(loop_start) - check_s;

    ReportLoop(log_, {log_.busy_s}, setup_s, &rep_);
    rep_.tally = log_.tally;
    // In process, the wire bytes are the serialized request and response.
    rep_.e2e["wire_bytes_per_query"] =
        Ratio(static_cast<double>(log_.request_bytes + log_.response_bytes),
              static_cast<double>(log_.exec.queries));
    const PreparedRowCache::Stats cache1 = server_.prepared_cache().stats();
    const double evictions =
        static_cast<double>(cache1.evicted - cache0_.evicted);
    rep_.layer["db.cache_evictions_per_query"] =
        Ratio(evictions, static_cast<double>(log_.exec.queries));
    rep_.layer["db.cache_mb"] = static_cast<double>(cache1.bytes) / (1 << 20);
    rep_.notes.push_back("distinct rows touched: " +
                         std::to_string(touched_.size()) + " (cache holds " +
                         std::to_string(cache_rows) + " prepared rows)");

    if (cfg_.scale_factor == 0) {
      rep_.SelfCheck(evictions > 0, "adhoc_overcache: no cache evictions");
      rep_.SelfCheck(log_.exec.PreparedHitRatio() < 0.5,
                     "adhoc_overcache: prepared_hit_ratio >= 0.5");
      rep_.SelfCheck(touched_.size() >= 2 * cache_rows,
                     "adhoc_overcache: touched rows below 2x the cache");
    }
    if (cfg_.trace) {
      ReportSpans(d_.rows(), &rep_);
      ReplayWire(log_, &rep_);
      if (log_.last_request) {
        Replay(SampleFromSeries(*log_.last_request, last_specs_, d_, 8), &rep_);
      }
    }
    return rep_;
  }

 private:
  /// One series; returns its latency in ms. Untimed (priming) series are
  /// checked too but leave the log's timing and counters alone.
  double Series(bool timed) {
    const uint64_t id = timed ? ++series_ids_ : 0;
    std::vector<JoinQuerySpec> specs;
    for (int q = 0; q < 2; ++q) {
      int64_t nation = static_cast<int64_t>(rng_.NextUint64Below(25));
      specs.push_back(Spec("Customers", Nation(nation), "Orders",
                           combos_[next_combo_++ % combos_.size()]));
    }
    const auto t0 = Clock::now();
    std::optional<QuerySeriesTokens> series;
    {
      TraceSpan span("db.client.tokengen", id);
      series = Must(client_.PrepareSeries(specs, {&d_.enc_c, &d_.enc_o}),
                    "PrepareSeries");
    }
    Result<EncryptedSeriesResult> res = Status::Internal("not run");
    {
      TraceSpan span("db.series_exec", id);
      res = server_.ExecuteJoinSeries(*series, opts_);
    }
    std::vector<Table> tables;
    if (res.ok()) tables = OpenResults(&client_, specs, *res, d_, id);
    const double ms = 1e3 * SecondsSince(t0);

    // Correctness gate (outside the timed interval).
    std::string why = res.ok() ? "" : res.status().ToString();
    bool ok = res.ok();
    if (ok && cfg_.fault == "corrupt_row" && id == 1) {
      tables[0] = CorruptFirstRow(tables[0]);
    }
    ok = ok && ResultsMatch(specs, tables, d_.customers, d_.orders, &why);
    for (const auto& q : specs) {
      Must(reference_.RunQuery(q), "reference query");
      if (timed) {
        CollectSelected(d_.customers, 0, q.selection_a, &touched_);
        CollectSelected(d_.orders, 1, q.selection_b, &touched_);
      }
    }
    if (cfg_.fault == "extra_pair" && id == 1) {
      std::vector<RowId> extra = {RowId{900, 0}, RowId{901, 0}};
      server_.leakage().ObserveEqualityGroup(extra);
    }
    const size_t revealed = server_.leakage().RevealedPairCount();
    const size_t minimal = reference_.RevealedPairCount();
    if (ok && revealed != minimal) {
      ok = false;
      why = "server revealed " + std::to_string(revealed) +
            " pairs, minimal leakage is " + std::to_string(minimal);
    }
    log_.tally.Record(ok, why);
    if (timed && res.ok()) {
      log_.exec.Add(*res);
      log_.request_bytes += SerializeQuerySeries(*series).size();
      log_.response_bytes += SerializeSeriesResult(*res).size();
      log_.last_request = std::move(series);
      log_.last_response = std::move(*res);
      last_specs_ = specs;
    }
    return ms;
  }

  const RunConfig cfg_;
  EncryptedClient client_;
  Dataset d_;
  EncryptedServer server_;
  MinimalLeakageReference reference_;
  ServerExecOptions opts_;
  Rng rng_;
  std::vector<TableSelection> combos_;
  size_t next_combo_ = 0;
  uint64_t series_ids_ = 0;
  PreparedRowCache::Stats cache0_;
  ClientLog log_;
  std::set<std::pair<int, size_t>> touched_;
  std::vector<JoinQuerySpec> last_specs_;
  Report rep_;
};

// --- Workload: dashboard_tcp --------------------------------------------------
//
// A TcpServer on loopback in front of one engine; two TcpClient connections
// (two sessions, one client thread each, one server thread per request),
// SF 0.0002, t = 3 (dim 39). Each client refreshes a fixed panel of four
// queries as one series: a PrepareChain pair that shares the Orders token,
// plus two fresh-key queries. Every panel slot selects a fixed number of
// rows (3 orders by orderkey, 3 or 4 customers), so a series costs the
// same on every seed; the union of all panel rows stays within half the
// prepared-row cache and the cache is primed during set-up, so the timed
// loop runs warm.

constexpr double kDashboardScaleFactor = 0.0002;

struct Panel {
  std::vector<JoinQuerySpec> chain;  // PrepareChain (one shared key)
  std::vector<JoinQuerySpec> fresh;  // PrepareSeries (fresh keys)
  std::vector<JoinQuerySpec> All() const {
    std::vector<JoinQuerySpec> all = chain;
    all.insert(all.end(), fresh.begin(), fresh.end());
    return all;
  }
};

/// Nations drawn from the seed, none of them in `used`, until the Customers
/// rows they select number `target` +- 1 (nation sizes vary with the seed;
/// a fixed row budget per panel slot, over disjoint nations, keeps the
/// panels' cost and footprint the same across seeds).
std::vector<Value> DrawNations(const Table& customers, size_t k, size_t target,
                               std::set<int64_t>* used, Rng* rng) {
  std::vector<size_t> per_nation(25, 0);
  const size_t col = Must(customers.schema().ColumnIndex("nationkey"), "col");
  for (size_t r = 0; r < customers.NumRows(); ++r) {
    ++per_nation[static_cast<size_t>(customers.At(r, col).AsInt())];
  }
  std::vector<int64_t> free;
  for (int64_t n = 0; n < 25; ++n) {
    if (!used->count(n)) free.push_back(n);
  }
  std::vector<int64_t> best;
  size_t best_gap = SIZE_MAX;
  for (int attempt = 0; attempt < 1000 && best_gap > 0; ++attempt) {
    Shuffle(&free, rng);
    size_t rows = 0;
    for (size_t i = 0; i < k; ++i) rows += per_nation[free[i]];
    const size_t gap = rows > target ? rows - target : target - rows;
    if (gap < best_gap) {
      best_gap = gap;
      best.assign(free.begin(), free.begin() + k);
    }
  }
  used->insert(best.begin(), best.end());
  return std::vector<Value>(best.begin(), best.end());
}

/// `k` orders, none in `used`, as an orderkey IN selection: orders of the
/// customers `sel` picks, so the join has results, topped up with other
/// orders when those customers have fewer.
TableSelection OrdersOf(const Table& customers, const Table& orders,
                        const TableSelection& sel, size_t k,
                        std::set<int64_t>* used, Rng* rng) {
  const size_t ck = Must(customers.schema().ColumnIndex("custkey"), "col");
  const size_t ok = Must(orders.schema().ColumnIndex("orderkey"), "col");
  const size_t oc = Must(orders.schema().ColumnIndex("custkey"), "col");
  std::set<int64_t> custkeys;
  for (size_t r : SelectedRows(customers, sel)) {
    custkeys.insert(customers.At(r, ck).AsInt());
  }
  std::vector<int64_t> own, other;
  for (size_t r = 0; r < orders.NumRows(); ++r) {
    const int64_t key = orders.At(r, ok).AsInt();
    if (used->count(key)) continue;
    (custkeys.count(orders.At(r, oc).AsInt()) ? own : other).push_back(key);
  }
  Shuffle(&own, rng);
  Shuffle(&other, rng);
  own.insert(own.end(), other.begin(), other.end());
  own.resize(std::min(k, own.size()));
  used->insert(own.begin(), own.end());
  return TableSelection{
      {In("orderkey", std::vector<Value>(own.begin(), own.end()))}};
}

/// One client's panel: 28 decryptions per series, 3 of them served by the
/// chain's shared Orders token. The selectivity-labelled customers (2 + 1 +
/// 1 rows at SF 0.0002) are the same rows on every seed's panel shape.
Panel DrawPanel(const Table& customers, const Table& orders,
                std::set<int64_t>* used_nations, std::set<int64_t>* used_orders,
                Rng* rng) {
  auto nations = [&] {
    return TableSelection{
        {In("nationkey", DrawNations(customers, 2, 3, used_nations, rng))}};
  };
  const TableSelection c1 = nations(), c2 = nations(), c4 = nations();
  const TableSelection c3{{In("selectivity", {SelectivityLabel(1 / 12.5),
                                              SelectivityLabel(1 / 25.0),
                                              SelectivityLabel(1 / 50.0)})}};
  auto orders_of = [&](const TableSelection& sel) {
    return OrdersOf(customers, orders, sel, 3, used_orders, rng);
  };
  const TableSelection o12 = orders_of(c1);
  Panel p;
  p.chain = {Spec("Customers", c1, "Orders", o12),
             Spec("Orders", o12, "Customers", c2)};
  p.fresh = {Spec("Customers", c3, "Orders", orders_of(c3)),
             Spec("Customers", c4, "Orders", orders_of(c4))};
  return p;
}

class Dashboard {
 public:
  static constexpr int kClients = 2;

  explicit Dashboard(const RunConfig& cfg)
      : cfg_(cfg),
        client_({.num_attrs = 9, .max_in_clause = 3, .rng_seed = cfg.seed}),
        d_(MakeDataset(&client_, kDashboardScaleFactor, cfg.seed)) {
    {
      TraceSpan span("db.store");
      MustOk(engine_.StoreTable(d_.enc_c), "store");
      MustOk(engine_.StoreTable(d_.enc_o), "store");
    }
    server_opts_.exec.num_threads = 1;
    server_.emplace(&engine_, server_opts_);
    MustOk(server_->Start(), "TcpServer::Start");

    Rng rng(cfg.seed * 0x9e3779b97f4a7c15ULL + 2);
    std::set<std::pair<int, size_t>> panel_rows;
    std::set<int64_t> used_nations, used_orders;
    for (int c = 0; c < kClients; ++c) {
      panels_.push_back(DrawPanel(d_.customers, d_.orders, &used_nations,
                                  &used_orders, &rng));
      for (const auto& q : panels_.back().All()) {
        CollectSelected(PlainTable(q.table_a, d_.customers, d_.orders),
                        q.table_a == "Customers" ? 0 : 1, q.selection_a,
                        &panel_rows);
        CollectSelected(PlainTable(q.table_b, d_.customers, d_.orders),
                        q.table_b == "Customers" ? 0 : 1, q.selection_b,
                        &panel_rows);
      }
    }
    const size_t cache_rows =
        PreparedRowCache::kDefaultMaxBytes /
        SjPreparedRow::BytesForDim(client_.master_key().params.Dimension());
    rep_.SelfCheck(2 * panel_rows.size() <= cache_rows,
                   "dashboard_tcp: panel rows exceed half the cache");
    rep_.notes.push_back("panel rows: " + std::to_string(panel_rows.size()) +
                         " (cache holds " + std::to_string(cache_rows) +
                         " prepared rows)");

    // One analyst per connection: same keys, own randomness.
    for (int c = 0; c < kClients; ++c) {
      analysts_.push_back(client_);
      *analysts_.back().rng() =
          Rng(cfg.seed * 31 + static_cast<uint64_t>(c) + 7);
      conns_.push_back(Must(TcpClient::Connect("127.0.0.1", server_->port()),
                            "TcpClient::Connect"));
    }
    {
      TraceSpan span("db.prime");
      ClientLog prime_log;
      for (int c = 0; c < kClients; ++c) Refresh(c, &prime_log, false);
      rep_.tally.Merge(prime_log.tally);
    }
    net0_ = server_->stats();
    cache0_ = engine_.prepared_cache().stats();
  }

  ~Dashboard() {
    for (auto& conn : conns_) conn.Close();
    server_->Stop();
    engine_.Shutdown();
  }

  Report Run(double setup_s) {
    std::vector<ClientLog> logs(kClients);
    const auto loop_start = Clock::now();
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        ClientLog& log = logs[c];
        const auto start = Clock::now();
        double check_s = 0;
        const uint64_t n = panels_[c].All().size();
        for (uint64_t it = 1; SecondsSince(loop_start) < cfg_.seconds; ++it) {
          const bool traced = TracedIteration(cfg_, it);
          Tracer::SetThreadActive(traced);
          const auto i0 = Clock::now();
          const double ms = Refresh(c, &log, true);
          check_s += SecondsSince(i0) - ms / 1e3;
          log.series_ms.push_back(ms);
          log.queries += n;
          log.mode_s[traced] += ms / 1e3;
          log.mode_queries[traced] += n;
        }
        log.busy_s = SecondsSince(start) - check_s;
      });
    }
    for (auto& t : threads) t.join();
    Tracer::SetThreadActive(true);

    // Server-side phase times are host-local (not on the wire), so the traced
    // run replays each client's last request in process against the same
    // warm engine: net.wait_ms is the RPC wall minus that execution
    // (transport, framing and scheduler queueing).
    double wait_ms = 0, prefilter_ms = 0, decrypt_ms = 0, match_ms = 0;
    if (cfg_.trace) {
      TraceSpan span("replay.db.series_exec");
      for (const ClientLog& log : logs) {
        if (!log.last_request) continue;
        std::vector<double> exec_ms;
        SeriesExecStats stats;
        for (int rep_i = 0; rep_i < 3; ++rep_i) {
          const auto t0 = Clock::now();
          auto res = engine_.ExecuteJoinSeries(*log.last_request,
                                               server_opts_.exec);
          exec_ms.push_back(1e3 * SecondsSince(t0));
          if (res.ok()) stats = res->stats;
        }
        double rpc = 0;
        for (double v : log.rpc_ms) rpc += v;
        rpc = Ratio(rpc, static_cast<double>(log.rpc_ms.size()));
        wait_ms += (rpc - Percentile(exec_ms, 0.5)) / kClients;
        prefilter_ms += 1e3 * stats.prefilter_seconds / kClients;
        decrypt_ms += 1e3 * stats.decrypt_seconds / kClients;
        match_ms += 1e3 * stats.match_seconds / kClients;
      }
    }

    ClientLog all;
    std::vector<double> busy;
    for (auto& log : logs) {
      busy.push_back(log.busy_s);
      all.Merge(std::move(log));
    }
    ReportLoop(all, busy, setup_s, &rep_);
    rep_.tally.Merge(all.tally);
    const TcpServer::Stats net1 = server_->stats();
    const double wire = static_cast<double>(net1.bytes_in + net1.bytes_out -
                                            net0_.bytes_in - net0_.bytes_out);
    rep_.e2e["wire_bytes_per_query"] =
        Ratio(wire, static_cast<double>(all.queries));
    const PreparedRowCache::Stats cache1 = engine_.prepared_cache().stats();
    auto& m = rep_.layer;
    m["db.cache_evictions_per_query"] =
        Ratio(static_cast<double>(cache1.evicted - cache0_.evicted),
              static_cast<double>(all.exec.queries));
    m["db.cache_mb"] = static_cast<double>(cache1.bytes) / (1 << 20);
    m["db.sched_rejected"] =
        static_cast<double>(engine_.scheduler_stats().rejected);
    m["net.request_errors"] = static_cast<double>(net1.requests_error);
    double rpc_total = 0;
    for (double v : all.rpc_ms) rpc_total += v;
    m["net.rpc_ms"] =
        Ratio(rpc_total, static_cast<double>(all.rpc_ms.size()));
    m["net.wait_ms"] = wait_ms;
    m["db.prefilter_ms"] = prefilter_ms;
    m["db.decrypt_ms"] = decrypt_ms;
    m["db.match_ms"] = match_ms;

    rep_.SelfCheck(all.exec.prepared_pairings > 0 &&
                       all.exec.prepared_hits == all.exec.prepared_pairings &&
                       all.exec.cold_pairings == 0,
                   "dashboard_tcp: prepared_hit_ratio != 1 after priming");
    rep_.SelfCheck(all.exec.DigestHitRatio() > 0,
                   "dashboard_tcp: digest_hit_ratio is 0");

    if (cfg_.trace) {
      ReportSpans(d_.rows(), &rep_);
      ReplayWire(all, &rep_);
      if (all.last_request) {
        Replay(SampleFromSeries(*all.last_request, panels_[kClients - 1].All(),
                                d_, 8),
               &rep_);
      }
    }
    return rep_;
  }

 private:
  /// One refresh of client c's panel; returns the series latency in ms.
  double Refresh(int c, ClientLog* log, bool timed) {
    const uint64_t id = timed ? ++series_ids_ : 0;
    const Panel& panel = panels_[c];
    const std::vector<JoinQuerySpec> specs = panel.All();
    EncryptedClient& analyst = analysts_[c];
    const auto t0 = Clock::now();
    QuerySeriesTokens series;
    {
      TraceSpan span("db.client.tokengen", id);
      series = Must(analyst.PrepareChain(panel.chain, {&d_.enc_c, &d_.enc_o}),
                    "PrepareChain");
      QuerySeriesTokens fresh = Must(
          analyst.PrepareSeries(panel.fresh, {&d_.enc_c, &d_.enc_o}),
          "PrepareSeries");
      for (auto& q : fresh.queries) series.queries.push_back(std::move(q));
    }
    const auto r0 = Clock::now();
    Result<EncryptedSeriesResult> res = Status::Internal("not run");
    {
      TraceSpan span("net.rpc", id);
      res = conns_[c].ExecuteSeries(series);
    }
    const double rpc_ms = 1e3 * SecondsSince(r0);
    std::vector<Table> tables;
    if (res.ok()) tables = OpenResults(&analyst, specs, *res, d_, id);
    const double ms = 1e3 * SecondsSince(t0);

    std::string why = res.ok() ? "" : res.status().ToString();
    bool ok = res.ok() &&
              ResultsMatch(specs, tables, d_.customers, d_.orders, &why);
    log->tally.Record(ok, why);
    if (timed && res.ok()) {
      log->exec.Add(*res);
      log->rpc_ms.push_back(rpc_ms);
      log->request_bytes += SerializeQuerySeries(series).size();
      log->response_bytes += SerializeSeriesResult(*res).size();
      log->last_request = std::move(series);
      log->last_response = std::move(*res);
    }
    return ms;
  }

  const RunConfig cfg_;
  EncryptedClient client_;
  Dataset d_;
  EncryptedServer engine_;
  TcpServerOptions server_opts_;
  std::optional<TcpServer> server_;
  std::vector<Panel> panels_;
  std::vector<EncryptedClient> analysts_;
  std::vector<TcpClient> conns_;
  std::atomic<uint64_t> series_ids_{0};
  TcpServer::Stats net0_;
  PreparedRowCache::Stats cache0_;
  Report rep_;
};

// --- Workload: churn_dist -----------------------------------------------------
//
// A Coordinator (K = 8 placement shards, R = 2) with two in-process
// ShardWorker TcpServers on loopback (one thread each), SF 0.00015, t = 1.
// One client alternates a two-query fresh-key series with a mutation batch
// that deletes about 1% of the live Orders rows (PrepareDelete) and inserts
// as many fresh rows (PrepareInsert), applied through
// Coordinator::ApplyMutation. The series cycle through all 15 (status,
// priority) combinations in a seeded order, so every seed reads the same
// share of Orders per series; the table fits the workers' caches and is
// primed during set-up, deleted rows leave the caches row by row and
// inserted rows are built cold on first touch.

constexpr double kChurnScaleFactor = 0.00015;

class Churn {
 public:
  explicit Churn(const RunConfig& cfg)
      : cfg_(cfg),
        client_({.num_attrs = 9, .max_in_clause = 1, .rng_seed = cfg.seed}),
        d_(MakeDataset(&client_, kChurnScaleFactor, cfg.seed)),
        orders_now_(d_.orders),
        rng_(cfg.seed * 0x9e3779b97f4a7c15ULL + 3) {
    for (int w = 0; w < 2; ++w) {
      WorkerProc& proc = workers_.emplace_back();
      TcpServerOptions opts;
      opts.shard_handler = &proc.handler;
      proc.server.emplace(&proc.engine, opts);
      MustOk(proc.server->Start(), "worker TcpServer::Start");
    }
    CoordinatorOptions coord_opts;
    coord_opts.num_shards = 8;
    coord_opts.replication = 2;
    coord_opts.exec.num_threads = 4;
    coord_ = std::make_unique<Coordinator>(coord_opts);
    for (int w = 0; w < 2; ++w) {
      worker_ids_.push_back("w" + std::to_string(w + 1));
      MustOk(coord_->AddWorker(worker_ids_.back(), "127.0.0.1",
                               workers_[w].server->port()),
             "AddWorker");
    }
    {
      TraceSpan span("dist.upload");
      MustOk(coord_->StoreTable(d_.enc_c), "Coordinator::StoreTable");
      MustOk(coord_->StoreTable(d_.enc_o), "Coordinator::StoreTable");
    }
    // Plaintext mirror of Orders keyed by stable id (ids 0..n-1 at upload).
    for (size_t r = 0; r < d_.orders.NumRows(); ++r) {
      mirror_[static_cast<StableRowId>(r)] = d_.orders.row(r);
    }
    for (const auto& s : kStatuses) {
      for (const auto& p : kPriorities) combos_.push_back(OrdersCombo(s, p));
    }
    Shuffle(&combos_, &rng_);
    {
      TraceSpan span("db.prime");
      ClientLog prime_log;
      std::vector<JoinQuerySpec> specs;
      for (const auto& combo : combos_) {
        specs.push_back(Spec("Customers", Nation(0), "Orders", combo));
      }
      Series(specs, &prime_log, false);
      rep_.tally.Merge(prime_log.tally);
    }
    coord0_ = coord_->stats();
    digests0_ = WorkerDigests();
    bytes0_ = WorkerBytes();
  }

  Report Run(double setup_s) {
    ClientLog log;
    std::vector<JoinQuerySpec> last_specs;
    int64_t next_orderkey = 10'000'000;
    uint64_t batches = 0;
    double check_s = 0;
    const auto loop_start = Clock::now();
    for (uint64_t it = 1; SecondsSince(loop_start) < cfg_.seconds; ++it) {
      const bool traced = TracedIteration(cfg_, (it + 1) / 2);
      Tracer::SetThreadActive(traced);
      if (it % 2 == 1) {
        std::vector<JoinQuerySpec> specs;
        for (int q = 0; q < 2; ++q) {
          int64_t nation = static_cast<int64_t>(rng_.NextUint64Below(25));
          specs.push_back(Spec("Customers", Nation(nation), "Orders",
                               combos_[next_combo_++ % combos_.size()]));
        }
        const auto i0 = Clock::now();
        const double ms = Series(specs, &log, true);
        check_s += SecondsSince(i0) - ms / 1e3;
        log.series_ms.push_back(ms);
        log.queries += specs.size();
        log.mode_s[traced] += ms / 1e3;
        log.mode_queries[traced] += specs.size();
        last_specs = specs;
        continue;
      }
      // Mutation batch: ~1% of the live Orders rows out, as many fresh in.
      const size_t k = std::max<size_t>(1, mirror_.size() / 100);
      std::vector<StableRowId> live;
      for (const auto& [id, row] : mirror_) live.push_back(id);
      Shuffle(&live, &rng_);
      std::vector<StableRowId> victims(live.begin(), live.begin() + k);
      std::sort(victims.begin(), victims.end());
      Table fresh(d_.orders.name(), d_.orders.schema());
      for (size_t i = 0; i < k; ++i) {
        const int64_t key = next_orderkey++;
        MustOk(fresh.AppendRow(
                   {key,
                    static_cast<int64_t>(
                        1 + rng_.NextUint64Below(d_.customers.NumRows())),
                    kStatuses[rng_.NextUint64Below(kStatuses.size())],
                    static_cast<int64_t>(100000 +
                                         rng_.NextUint64Below(50000000)),
                    "1998-08-0" + std::to_string(1 + i % 9),
                    kPriorities[rng_.NextUint64Below(kPriorities.size())],
                    "Clerk#" + std::to_string(rng_.NextUint64Below(1000)),
                    int64_t{0}, "churn insert",
                    "none-ins-" + std::to_string(key)}),
               "fresh row");
      }
      const uint64_t op_id = ++series_ids_;
      const auto t0 = Clock::now();
      std::optional<TableMutation> mutation;
      {
        TraceSpan span("db.client.prepare_insert", op_id);
        mutation =
            Must(client_.PrepareInsert(d_.enc_o, fresh), "PrepareInsert");
      }
      mutation->deletes =
          Must(client_.PrepareDelete("Orders", victims), "PrepareDelete")
              .deletes;
      Result<MutationResult> applied = Status::Internal("not run");
      {
        TraceSpan span("dist.apply_mutation", op_id);
        applied = coord_->ApplyMutation(*mutation);
      }
      const double ms = 1e3 * SecondsSince(t0);
      const auto c0 = Clock::now();
      bool ok = applied.ok() && applied->inserted_ids.size() == k;
      log.tally.Record(ok, applied.ok() ? "mutation assigned wrong ids"
                                        : applied.status().ToString());
      if (ok) {
        for (StableRowId id : victims) mirror_.erase(id);
        for (size_t i = 0; i < k; ++i) {
          mirror_[applied->inserted_ids[i]] = fresh.row(i);
        }
        orders_now_ = Table(d_.orders.name(), d_.orders.schema());
        for (const auto& [id, row] : mirror_) {
          MustOk(orders_now_.AppendRow(row), "mirror");
        }
      }
      check_s += SecondsSince(c0);
      log.mutation_ms.push_back(ms);
      log.mode_s[traced] += ms / 1e3;
      ++batches;
    }
    Tracer::SetThreadActive(true);
    log.busy_s = SecondsSince(loop_start) - check_s;

    ReportLoop(log, {log.busy_s}, setup_s, &rep_);
    rep_.tally.Merge(log.tally);
    const Coordinator::Stats coord1 = coord_->stats();
    const double n_series = static_cast<double>(log.series_ms.size());
    const double n_queries = static_cast<double>(log.queries);
    const double wire = static_cast<double>(WorkerBytes() - bytes0_);
    rep_.e2e["wire_bytes_per_query"] = Ratio(wire, n_queries);
    auto& m = rep_.layer;
    m["dist.worker_bytes_per_query"] = Ratio(wire, n_queries);
    m["dist.decrypt_rpcs_per_series"] = Ratio(
        static_cast<double>(coord1.decrypt_rpcs - coord0_.decrypt_rpcs),
        n_series);
    m["dist.worker_digests_per_query"] =
        Ratio(static_cast<double>(WorkerDigests() - digests0_), n_queries);
    m["dist.failover_units"] = static_cast<double>(coord1.failover_decrypts -
                                                   coord0_.failover_decrypts);
    m["dist.local_fallback_rows"] = static_cast<double>(
        coord1.local_fallback_rows - coord0_.local_fallback_rows);
    m["dist.mutation_rpcs_per_batch"] = Ratio(
        static_cast<double>(coord1.mutation_rpcs - coord0_.mutation_rpcs),
        static_cast<double>(batches));

    rep_.SelfCheck(m["dist.decrypt_rpcs_per_series"] > 0,
                   "churn_dist: no decrypt RPCs reached the workers");
    rep_.SelfCheck(m["dist.local_fallback_rows"] == 0,
                   "churn_dist: rows fell back to local decryption");
    if (cfg_.trace) {
      ReportSpans(d_.rows(), &rep_);
      ReplayWire(log, &rep_);
      if (log.last_request) {
        Replay(SampleFromSeries(*log.last_request, last_specs, d_, 8), &rep_);
      }
    }
    return rep_;
  }

 private:
  struct WorkerProc {
    EncryptedServer engine;
    ShardWorker handler{ShardWorkerOptions{.num_threads = 1}};
    std::optional<TcpServer> server;
  };

  /// One series over `specs`; returns its latency in ms.
  double Series(const std::vector<JoinQuerySpec>& specs, ClientLog* log,
                bool timed) {
    const uint64_t id = timed ? ++series_ids_ : 0;
    const auto t0 = Clock::now();
    QuerySeriesTokens series;
    {
      TraceSpan span("db.client.tokengen", id);
      series = Must(client_.PrepareSeries(specs, {&d_.enc_c, &d_.enc_o}),
                    "PrepareSeries");
    }
    Result<EncryptedSeriesResult> res = Status::Internal("not run");
    {
      TraceSpan span("dist.series", id);
      res = coord_->ExecuteSeries(series);
    }
    std::vector<Table> tables;
    if (res.ok()) tables = OpenResults(&client_, specs, *res, d_, id);
    const double ms = 1e3 * SecondsSince(t0);
    std::string why = res.ok() ? "" : res.status().ToString();
    bool ok = res.ok() &&
              ResultsMatch(specs, tables, d_.customers, orders_now_, &why);
    log->tally.Record(ok, why);
    if (timed && res.ok()) {
      log->exec.Add(*res);
      log->request_bytes += SerializeQuerySeries(series).size();
      log->response_bytes += SerializeSeriesResult(*res).size();
      log->last_request = std::move(series);
      log->last_response = std::move(*res);
    }
    return ms;
  }

  uint64_t WorkerDigests() {
    uint64_t n = 0;
    for (const auto& id : worker_ids_) {
      n += Must(coord_->WorkerHealth(id), "WorkerHealth").digests_computed;
    }
    return n;
  }

  uint64_t WorkerBytes() const {
    uint64_t n = 0;
    for (const auto& w : workers_) {
      TcpServer::Stats s = w.server->stats();
      n += s.bytes_in + s.bytes_out;
    }
    return n;
  }

  const RunConfig cfg_;
  EncryptedClient client_;
  Dataset d_;
  // Declared before the coordinator, so the coordinator (and its
  // connections) goes first on teardown.
  std::deque<WorkerProc> workers_;
  std::vector<std::string> worker_ids_;
  std::unique_ptr<Coordinator> coord_;
  std::map<StableRowId, std::vector<Value>> mirror_;
  Table orders_now_;
  Rng rng_;
  std::vector<TableSelection> combos_;
  size_t next_combo_ = 0;
  std::atomic<uint64_t> series_ids_{0};
  Coordinator::Stats coord0_;
  uint64_t digests0_ = 0, bytes0_ = 0;
  Report rep_;
};

// --- Output -------------------------------------------------------------------

void PrintProvenance(const RunConfig& cfg) {
  const char* force = std::getenv("SJOIN_FORCE_SCALAR");
  std::printf(
      "provenance: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"git_sha\": \"%s\", \"cpu_model\": \"%s\", "
      "\"nproc\": %u, \"mont_accel_enabled\": %s, "
      "\"SJOIN_FORCE_SCALAR\": \"%s\"}\n",
      cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
      cfg.seconds, cfg.trace ? 1 : 0, cfg.git_sha.c_str(), CpuModel().c_str(),
      std::thread::hardware_concurrency(),
      mont_accel::kEnabled ? "true" : "false", force ? force : "");
}

void PrintLayerTable() {
  auto agg = GlobalTracer().Aggregates();
  std::printf("\nspans (%zu recorded): name, count, total s, self s\n",
              GlobalTracer().span_count());
  for (const auto& [name, a] : agg) {
    std::printf("  %-32s %8llu %12.6f %12.6f\n", name.c_str(),
                static_cast<unsigned long long>(a.count), a.total_s, a.self_s);
  }
}

int Emit(const RunConfig& cfg, Report& rep) {
  rep.layer["failed_op_ratio"] =
      Ratio(static_cast<double>(rep.tally.failed),
            static_cast<double>(rep.tally.attempted));
  for (const auto& note : rep.notes) std::printf("%s\n", note.c_str());
  std::printf("\nend-to-end (%s):\n", cfg.workload.c_str());
  for (const MetricDef& m : kEndToEnd) {
    std::printf("  %-34s %14.4f %s\n", m.name, rep.e2e[m.name], m.unit);
  }
  std::printf("  %-34s %14.4f %s\n", "failed_op_ratio",
              rep.layer["failed_op_ratio"], "ratio");
  if (cfg.trace) {
    std::printf("\nper-layer:\n");
    for (const MetricDef& m : kPerLayer) {
      std::printf("  %-34s %14.4f %s\n", m.name, rep.layer[m.name], m.unit);
    }
    PrintLayerTable();
    if (!cfg.trace_out.empty()) {
      if (GlobalTracer().WriteJson(cfg.trace_out)) {
        std::printf("span dump: %s\n", cfg.trace_out.c_str());
      } else {
        std::printf("span dump: could not write %s\n", cfg.trace_out.c_str());
      }
    }
  }
  for (const auto& why : rep.tally.reasons) {
    std::printf("FAILED OPERATION: %s\n", why.c_str());
  }
  for (const auto& why : rep.selfcheck_failures) {
    std::printf("SELF-CHECK FAILED: %s\n", why.c_str());
  }

  const auto& defs = cfg.trace ? kPerLayer : kEndToEnd;
  const auto& values = cfg.trace ? rep.layer : rep.e2e;
  std::string json = "{\"correct\": ";
  json += rep.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(rep.tally.attempted);
  json += ", \"failed\": " + std::to_string(rep.tally.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < defs.size(); ++i) {
    auto it = values.find(defs[i].name);
    double v = it == values.end() ? 0 : it->second;
    if (!std::isfinite(v)) v = 0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    json += std::string(i ? ", " : "") + "\"" + defs[i].name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return rep.correct() ? 0 : 1;
}

// --- Self-test and paper anchor -----------------------------------------------

/// Runs adhoc_overcache on a tiny data set three times: clean, with one
/// corrupted result row, and with one extra revealed pair. The gate must
/// pass the first and count a failed operation in the other two.
int RunSelfTest() {
  struct Case {
    const char* fault;
    bool expect_failure;
  };
  const Case cases[] = {{"", false}, {"corrupt_row", true},
                        {"extra_pair", true}};
  bool all_ok = true;
  for (const Case& c : cases) {
    RunConfig cfg;
    cfg.workload = "adhoc_overcache";
    cfg.seed = 7;
    cfg.seconds = 1;
    cfg.fault = c.fault;
    cfg.scale_factor = 0.0001;
    Report rep = RunWorkload<Adhoc>(cfg);
    const bool failed = rep.tally.failed > 0;
    const bool ok = failed == c.expect_failure && rep.tally.attempted > 0;
    std::printf("selftest %-12s attempted=%llu failed=%llu -> %s\n",
                *c.fault ? c.fault : "clean",
                static_cast<unsigned long long>(rep.tally.attempted),
                static_cast<unsigned long long>(rep.tally.failed),
                ok ? "ok" : "WRONG");
    all_ok = all_ok && ok;
  }
  std::printf("selftest: %s\n", all_ok ? "PASS" : "FAIL");
  return all_ok ? 0 : 1;
}

/// The paper's Fig. 3 point SF 0.01, s = 1/100, t = 1: one executed join
/// (cold, prepared-row cache off) at 1 and 4 server threads, beside the
/// paper's figure. Not a workload: it takes about a minute of encryption.
int RunAnchor(uint64_t seed) {
  EncryptedClient client({.num_attrs = 9, .max_in_clause = 1, .rng_seed = seed});
  const auto e0 = Clock::now();
  Dataset d = MakeDataset(&client, 0.01, seed);
  const double enc_s = SecondsSince(e0);
  EncryptedServer server;
  MustOk(server.StoreTable(d.enc_c), "store");
  MustOk(server.StoreTable(d.enc_o), "store");
  const std::string label = SelectivityLabel(1 / 100.0);
  JoinQuerySpec q =
      Spec("Customers", TableSelection{{In("selectivity", {label})}}, "Orders",
           TableSelection{{In("selectivity", {label})}});
  std::printf("anchor: SF 0.01 (%zu + %zu rows), s=1/100, t=1; encryption "
              "took %.1f s\n",
              d.customers.NumRows(), d.orders.NumRows(), enc_s);
  bool all_ok = true;
  for (int threads : {1, 4}) {
    auto series = Must(client.PrepareSeries({q}, {&d.enc_c, &d.enc_o}),
                       "PrepareSeries");
    ServerExecOptions opts;
    opts.num_threads = threads;
    opts.prepared_cache_bytes = 0;
    const auto t0 = Clock::now();
    auto res = Must(server.ExecuteJoinSeries(series, opts), "execute");
    const double s = SecondsSince(t0);
    auto tables = OpenResults(&client, {q}, res, d, 0);
    std::string why;
    bool ok = ResultsMatch({q}, tables, d.customers, d.orders, &why);
    all_ok = all_ok && ok;
    std::printf("anchor: %d thread(s): %zu rows decrypted, %zu result rows, "
                "%.3f s measured vs %.2f s in the paper (Fig. 3)%s\n",
                threads, res.stats.decrypts_performed, tables[0].NumRows(), s,
                benchutil::kPaperFig3Sf001S100, ok ? "" : " -- WRONG RESULT");
  }
  return all_ok ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <adhoc_overcache|dashboard_tcp|"
               "churn_dist> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <file>] [--git-sha <sha>]\n"
               "       perfbench --selftest | --anchor [--seed <n>]\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig cfg;
  bool selftest = false, anchor = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      cfg.workload = next();
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::atof(next().c_str());
    } else if (arg == "--trace") {
      cfg.trace = next() == "1";
    } else if (arg == "--trace-out") {
      cfg.trace_out = next();
    } else if (arg == "--git-sha") {
      cfg.git_sha = next();
    } else if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--anchor") {
      anchor = true;
    } else {
      return Usage();
    }
  }
  if (selftest) return RunSelfTest();
  if (anchor) return RunAnchor(cfg.seed);
  if (cfg.seconds <= 0) return Usage();
  GlobalTracer().Enable(cfg.trace);
  PrintProvenance(cfg);
  Report rep;
  if (cfg.workload == "adhoc_overcache") {
    rep = RunWorkload<Adhoc>(cfg);
  } else if (cfg.workload == "dashboard_tcp") {
    rep = RunWorkload<Dashboard>(cfg);
  } else if (cfg.workload == "churn_dist") {
    rep = RunWorkload<Churn>(cfg);
  } else {
    return Usage();
  }
  return Emit(cfg, rep);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
