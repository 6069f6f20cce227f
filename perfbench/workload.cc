// perfbench_workload: the repository benchmark's workload program.
//
// Runs one named workload over the public facade (Database, Session,
// EditTxn, QueryResult) and prints its metrics. perfbench/run.py builds
// this program and calls it; perfbench/README.md describes the
// workloads, the metrics and the reasons behind them.
//
//   perfbench_workload oracle --size-mb 11 --out FILE
//   perfbench_workload run --workload warm-mixed --seed 1 --seconds 24
//                          --trace 0 --oracle FILE [--spans FILE]
//                          [--size-mb 11] [--ops N]
//
// `oracle` evaluates the query mix once with the naive engine and
// writes the expected answers. `run` replays one seeded closed-loop
// schedule of a fixed number of operations in identical passes (their
// count follows --seconds; --ops overrides the pass length), checks
// every answer after its latency was recorded, and ends with one JSON
// line: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the end-to-end metrics; --trace 1 alternates plain and traced passes
// and reports the per-layer metrics instead.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "api/database.h"
#include "api/session.h"
#include "xmlgen/xmark.h"
#include "xpath/parser.h"

namespace perfbench {
namespace {

using sj::Database;
using sj::DatabaseOptions;
using sj::EditTxn;
using sj::NodeSequence;
using sj::QueryResult;
using sj::Session;
using sj::SessionOptions;
using sj::StorageBackend;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench_workload: %s\n", what.c_str());
  std::exit(2);
}

// --- inputs -----------------------------------------------------------------

/// The document is fixed (XMark, this seed, `rich_text` off, no values):
/// --seed drives the schedule only, so every seed runs against the same
/// 475,853-node instance at 11 MB and its set-up cost stays comparable.
constexpr uint64_t kDocSeed = 42;
constexpr double kDefaultSizeMb = 11.0;
/// Latch shards of the shared pool, pinned: the default (one per
/// hardware thread) would change per-shard LRU capacity, and with it the
/// fault counts, from host to host.
constexpr size_t kPoolShards = 4;

struct MixQuery {
  const char* text;
  /// Every answer node lies before <open_auctions>, so bidder edits never
  /// shift its pre ranks: its pristine node-id hash stays valid.
  bool stable_ranks;
};

/// The shared 8-query mix, hottest first (zipf(1.1) shares).
constexpr MixQuery kMix[] = {
    {"/descendant::open_auction/child::bidder/child::increase", false},
    {"/descendant::person/attribute::id", true},
    {"/descendant::regions/descendant::item/descendant::mailbox"
     "/descendant::date",
     true},
    {"/descendant::increase/ancestor::bidder", false},
    {"/descendant::profile/descendant::education", true},
    {"/descendant::person/following::open_auction", false},
    {"/descendant::open_auction/child::bidder[1]/child::increase", false},
    {"/descendant::open_auctions | /descendant::closed_auction/child::price"
     " | /descendant::person/child::profile/child::education",
     false},
};
constexpr size_t kMixSize = std::size(kMix);
/// Mix positions the edit model updates (see Checker::ApplyEdit).
constexpr size_t kQTwig = 0;
constexpr size_t kQAncestor = 3;
constexpr size_t kQPositional = 6;
constexpr double kZipfExponent = 1.1;

/// XMark's own bid traffic: the subtree an edit appends to an auction.
constexpr const char* kBidderXml =
    "<bidder><date/><time/><personref/><increase/></bidder>";
constexpr const char* kAuctionsQuery = "/descendant::open_auction";
constexpr const char* kBiddersQuery = "child::bidder";

const char* BackendName(StorageBackend b) {
  switch (b) {
    case StorageBackend::kMemory:
      return "memory";
    case StorageBackend::kPaged:
      return "paged";
    case StorageBackend::kCompressed:
      return "compressed";
  }
  return "unknown";
}

/// SplitMix64: the schedule generator (kept local so the benchmark's
/// inputs never depend on the library's internals).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t bound) { return Next() % bound; }

 private:
  uint64_t state_;
};

uint64_t Mix64(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h * 0xFF51AFD7ED558CCDULL;
}

// --- workloads --------------------------------------------------------------

struct WorkloadSpec {
  std::string_view name;
  unsigned clients;
  std::vector<StorageBackend> backends;
  size_t pool_pages;
  uint32_t latency_us;
  /// Share of scheduled operations that are edits (0: read-only loop).
  unsigned edit_percent;
  /// Pass length: a pass replays nominal_ops_per_s x pass_seconds
  /// operations and a run makes --seconds / pass_seconds passes, whatever
  /// the host speed.
  double nominal_ops_per_s;
  double pass_seconds;
  /// Commits between inline Compact() calls.
  unsigned compact_every;
};

/// The read-only workloads follow every read pass with a write pass on
/// a twin database (same configuration, own pool and disk): this many
/// seeded edits, then one Compact(). Every workload thus reports edit
/// and compaction latency under its own storage regime, and the read
/// passes keep replaying the pristine document.
constexpr unsigned kWriteEdits = 32;

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {"warm-mixed", 1,
       {StorageBackend::kMemory, StorageBackend::kPaged,
        StorageBackend::kCompressed},
       2048, 0, 0, 2000, 2.0, kWriteEdits},
      {"cold-pool", 3, {StorageBackend::kPaged, StorageBackend::kCompressed},
       64, 50, 0, 550, 2.0, kWriteEdits},
      {"edit-mix", 1,
       {StorageBackend::kMemory, StorageBackend::kPaged,
        StorageBackend::kCompressed},
       2048, 0, 10, 900, 1.5, 50},
  };
  return specs;
}

enum class OpKind : uint8_t { kRead, kAppend, kDelete };

struct Op {
  OpKind kind = OpKind::kRead;
  uint8_t query = 0;    ///< kMix index (reads)
  uint8_t backend = 0;  ///< index into WorkloadSpec::backends (reads)
  uint64_t pick = 0;    ///< anchor choice (edits)
};

/// The seeded schedule of one client: a pure function of (seed, client,
/// length). The seed orders a fixed multiset of operations: edits make
/// exactly edit_percent of them (appends and deletes alternating), and
/// the reads split over the mix by zipf(1.1) shares (largest remainder)
/// and over the backends round-robin. Every seed thus does the same mix
/// of work; only the order and the edit anchors differ.
std::vector<Op> MakeSchedule(const WorkloadSpec& spec, uint64_t seed,
                             unsigned client, size_t length,
                             unsigned edit_percent) {
  Rng rng(Mix64(seed, 0xC0FFEE + client));
  const size_t edits = (length * edit_percent + 50) / 100;
  const size_t reads = length - edits;
  std::array<double, kMixSize> share{};
  double total = 0;
  for (size_t q = 0; q < kMixSize; ++q) {
    share[q] = 1.0 / std::pow(static_cast<double>(q + 1), kZipfExponent);
    total += share[q];
  }
  std::array<size_t, kMixSize> count{};
  std::array<size_t, kMixSize> by_remainder{};
  size_t given = 0;
  for (size_t q = 0; q < kMixSize; ++q) {
    count[q] = static_cast<size_t>(reads * share[q] / total);
    given += count[q];
    by_remainder[q] = q;
  }
  auto remainder = [&](size_t q) {
    return reads * share[q] / total - static_cast<double>(count[q]);
  };
  std::stable_sort(
      by_remainder.begin(), by_remainder.end(),
      [&](size_t a, size_t b) { return remainder(a) > remainder(b); });
  for (size_t i = 0; given < reads; ++i, ++given) ++count[by_remainder[i]];

  std::vector<Op> ops;
  ops.reserve(length);
  for (size_t q = 0; q < kMixSize; ++q) {
    for (size_t i = 0; i < count[q]; ++i) {
      Op op;
      op.query = static_cast<uint8_t>(q);
      op.backend = static_cast<uint8_t>(i % spec.backends.size());
      ops.push_back(op);
    }
  }
  for (size_t e = 0; e < edits; ++e) {
    Op op;
    op.kind = e % 2 == 0 ? OpKind::kAppend : OpKind::kDelete;
    op.pick = rng.Next();
    ops.push_back(op);
  }
  for (size_t i = ops.size(); i > 1; --i) {
    std::swap(ops[i - 1], ops[rng.Below(i)]);
  }
  return ops;
}

uint64_t ScheduleHash(const std::vector<Op>& ops) {
  uint64_t h = 0;
  for (const Op& op : ops) {
    h = Mix64(h, static_cast<uint64_t>(op.kind) << 16 |
                     static_cast<uint64_t>(op.query) << 8 | op.backend);
    h = Mix64(h, op.pick);
  }
  return h;
}

// --- expected answers -------------------------------------------------------

struct Answer {
  uint64_t count = 0;
  uint64_t hash = 0;
  bool operator==(const Answer& o) const {
    return count == o.count && hash == o.hash;
  }
};

Answer Digest(const NodeSequence& nodes) {
  Answer a;
  a.count = nodes.size();
  for (sj::NodeId v : nodes) a.hash = Mix64(a.hash, v);
  return a;
}

struct Oracle {
  double size_mb = 0;
  uint64_t doc_nodes = 0;
  std::array<Answer, kMixSize> answers;
};

constexpr const char* kOracleMagic = "perfbench-oracle-v1";

void WriteOracle(const Oracle& o, const std::string& path) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    out << kOracleMagic << ' ' << o.size_mb << ' ' << o.doc_nodes << '\n';
    for (size_t q = 0; q < kMixSize; ++q) {
      out << o.answers[q].count << ' ' << o.answers[q].hash << ' '
          << kMix[q].text << '\n';
    }
    if (!out) Die("cannot write " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    Die("cannot rename " + tmp);
  }
}

/// Reads an oracle file written for this mix; dies on any mismatch (a
/// stale file must never pass for the expected answers).
Oracle ReadOracle(const std::string& path, double size_mb) {
  std::ifstream in(path);
  if (!in) Die("missing oracle file " + path);
  Oracle o;
  std::string magic;
  in >> magic >> o.size_mb >> o.doc_nodes;
  if (magic != kOracleMagic || std::fabs(o.size_mb - size_mb) > 1e-9) {
    Die("oracle file " + path + " is for another mix or size");
  }
  for (size_t q = 0; q < kMixSize; ++q) {
    std::string text;
    in >> o.answers[q].count >> o.answers[q].hash;
    in.get();
    std::getline(in, text);
    if (!in || text != kMix[q].text) {
      Die("oracle file " + path + " does not match query " +
          std::to_string(q + 1));
    }
  }
  return o;
}

std::unique_ptr<sj::DocTable> GenerateDocument(double size_mb) {
  sj::xmlgen::XMarkOptions gen;
  gen.size_mb = size_mb;
  gen.seed = kDocSeed;
  gen.rich_text = false;
  sj::BuildOptions build;
  build.store_values = false;
  auto doc = sj::xmlgen::GenerateXMarkDocument(gen, build);
  if (!doc.ok()) Die("generate: " + doc.status().ToString());
  return std::move(doc).value();
}

/// Expected answers by the naive engine (per-context evaluation plus
/// duplicate elimination), over a memory-only database.
Oracle ComputeOracle(double size_mb) {
  DatabaseOptions options;
  options.build.store_values = false;
  options.build_paged = false;
  options.build_compressed = false;
  options.plan_cache_entries = 0;
  auto db = Database::FromTable(GenerateDocument(size_mb), options);
  if (!db.ok()) Die("open: " + db.status().ToString());
  SessionOptions naive;
  naive.hints.engine = sj::EngineMode::kNaive;
  auto session = db.value()->CreateSession(naive);
  if (!session.ok()) Die("session: " + session.status().ToString());
  Oracle o;
  o.size_mb = size_mb;
  o.doc_nodes = db.value()->doc().size();
  for (size_t q = 0; q < kMixSize; ++q) {
    const auto t0 = Clock::now();
    auto r = session.value().Run(kMix[q].text);
    if (!r.ok()) Die(std::string("naive ") + kMix[q].text + ": " +
                     r.status().ToString());
    o.answers[q] = Digest(r.value().nodes);
    std::fprintf(stderr, "[oracle] q%zu: %llu nodes (%.2f s naive)\n", q + 1,
                 static_cast<unsigned long long>(o.answers[q].count),
                 SecondsSince(t0));
  }
  return o;
}

/// Checks answers against the oracle and, once edits were applied,
/// against the edit model:
/// - a query whose ranks edits never shift keeps its pristine hash;
/// - every other query must match the model's count, and all backends
///   must agree on its node-id hash within one snapshot epoch.
/// Before the first edit every call is read-only (safe from any thread).
class Checker {
 public:
  explicit Checker(const Oracle& oracle) : pristine_(oracle.answers) {
    for (size_t q = 0; q < kMixSize; ++q) counts_[q] = pristine_[q].count;
  }

  bool Check(size_t q, uint64_t epoch, const NodeSequence& nodes) {
    const Answer got = Digest(nodes);
    if (edits_ == 0 || kMix[q].stable_ranks) return got == pristine_[q];
    if (got.count != counts_[q]) return false;
    EpochRef& ref = refs_[q];
    if (!ref.set || ref.epoch != epoch) {
      ref = {epoch, got.hash, true};
      return true;
    }
    return ref.hash == got.hash;
  }

  /// Folds one committed bidder edit into the expected counts: every
  /// bidder holds exactly one increase, and bidder[1] exists iff the
  /// auction has a bidder. `bidders_before` is the auction's bidder
  /// count before the edit.
  void ApplyEdit(OpKind kind, uint64_t bidders_before) {
    ++edits_;
    if (kind == OpKind::kAppend) {
      ++counts_[kQTwig];
      ++counts_[kQAncestor];
      if (bidders_before == 0) ++counts_[kQPositional];
    } else {
      --counts_[kQTwig];
      --counts_[kQAncestor];
      if (bidders_before == 1) --counts_[kQPositional];
    }
  }

 private:
  struct EpochRef {
    uint64_t epoch = 0;
    uint64_t hash = 0;
    bool set = false;
  };
  std::array<Answer, kMixSize> pristine_;
  std::array<uint64_t, kMixSize> counts_{};
  std::array<EpochRef, kMixSize> refs_{};
  uint64_t edits_ = 0;
};

// --- counters ---------------------------------------------------------------

struct PoolCounters {
  uint64_t pins = 0, hits = 0, faults = 0, evictions = 0, prefetched = 0;
  uint64_t disk_reads = 0, disk_batch_reads = 0;

  PoolCounters& operator+=(const PoolCounters& o) {
    pins += o.pins;
    hits += o.hits;
    faults += o.faults;
    evictions += o.evictions;
    prefetched += o.prefetched;
    disk_reads += o.disk_reads;
    disk_batch_reads += o.disk_batch_reads;
    return *this;
  }
  PoolCounters operator-(const PoolCounters& o) const {
    PoolCounters d;
    d.pins = pins - o.pins;
    d.hits = hits - o.hits;
    d.faults = faults - o.faults;
    d.evictions = evictions - o.evictions;
    d.prefetched = prefetched - o.prefetched;
    d.disk_reads = disk_reads - o.disk_reads;
    d.disk_batch_reads = disk_batch_reads - o.disk_batch_reads;
    return d;
  }
};

/// Pool and disk counters summed across image generations. Compact()
/// publishes new images with a fresh pool and disk whose counters start
/// from zero, so a plain before/after difference would underflow; the
/// meter holds the tracked generation's snapshot (keeping its pool and
/// disk alive) and banks its final counts when a new generation appears.
/// Sample() must run quiesced and after every Compact().
class PoolMeter {
 public:
  explicit PoolMeter(const Database& db) {
    Bind(db);
    base_ = Read();
  }

  void Sample(const Database& db) {
    if (db.buffer_pool() == pool_) return;
    banked_ += Read() - base_;
    Bind(db);
    base_ = PoolCounters{};  // a new generation counts from zero
  }

  PoolCounters Total(const Database& db) {
    Sample(db);
    PoolCounters t = banked_;
    t += Read() - base_;
    return t;
  }

 private:
  void Bind(const Database& db) {
    generation_ = db.CurrentSnapshot();
    pool_ = db.buffer_pool();
    disk_ = db.disk();
  }

  PoolCounters Read() const {
    PoolCounters c;
    if (pool_ != nullptr) {
      const sj::storage::PoolStats s = pool_->stats();
      c.pins = s.pins;
      c.hits = s.hits;
      c.faults = s.faults;
      c.evictions = s.evictions;
      c.prefetched = s.prefetched;
    }
    if (disk_ != nullptr) {
      c.disk_reads = disk_->reads();
      c.disk_batch_reads = disk_->batch_reads();
    }
    return c;
  }

  std::shared_ptr<const sj::DatabaseSnapshot> generation_;
  sj::storage::BufferPool* pool_ = nullptr;
  sj::storage::SimulatedDisk* disk_ = nullptr;
  PoolCounters base_;
  PoolCounters banked_;
};

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}
double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

void Append(std::vector<double>* to, const std::vector<double>& from) {
  to->insert(to->end(), from.begin(), from.end());
}

// --- tracing ----------------------------------------------------------------

/// One span: a timed call into a layer, tagged with the operation it
/// served and the span that caused it (0: none). Kept in memory and
/// written out at exit.
struct Span {
  uint64_t op = 0;
  uint32_t id = 0;
  uint32_t parent = 0;
  const char* name = "";
  double start_us = 0;
  double end_us = 0;
};

/// Per-layer accumulators filled by the traced passes (see README.md for
/// which end-to-end metric each should move).
struct LayerStats {
  std::vector<double> parse_us;
  std::vector<double> run_self_us;
  uint64_t plan_hits = 0;
  uint64_t plan_misses = 0;
  double q_error_max = 1.0;
  std::map<std::string, double> step_ms;
  uint64_t nodes_scanned = 0, nodes_skipped = 0, nodes_copied = 0;
  std::map<std::string, std::vector<double>> backend_ms;
  uint64_t reads = 0;
  std::vector<double> apply_us;
  std::vector<double> commit_us;
  std::vector<double> nodes_at_compact;
  std::vector<double> read_tax;
  std::vector<Span> spans;

  void MergeFrom(LayerStats&& o) {
    Append(&parse_us, o.parse_us);
    Append(&run_self_us, o.run_self_us);
    plan_hits += o.plan_hits;
    plan_misses += o.plan_misses;
    q_error_max = std::max(q_error_max, o.q_error_max);
    for (const auto& [op, ms] : o.step_ms) step_ms[op] += ms;
    nodes_scanned += o.nodes_scanned;
    nodes_skipped += o.nodes_skipped;
    nodes_copied += o.nodes_copied;
    for (const auto& [b, v] : o.backend_ms) Append(&backend_ms[b], v);
    reads += o.reads;
    Append(&apply_us, o.apply_us);
    Append(&commit_us, o.commit_us);
    Append(&nodes_at_compact, o.nodes_at_compact);
    Append(&read_tax, o.read_tax);
    spans.insert(spans.end(), o.spans.begin(), o.spans.end());
  }
};

/// What one timed loop did.
struct LoopResult {
  std::vector<double> read_ms;
  std::vector<double> edit_ms;
  std::vector<double> compact_ms;
  double busy_s = 0;  ///< loop wall time minus the compaction checks
  uint64_t ops = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t result_sum = 0;
  uint64_t commits = 0;
  uint64_t compactions = 0;
  LayerStats layers;

  void MergeFrom(LoopResult&& o) {
    Append(&read_ms, o.read_ms);
    Append(&edit_ms, o.edit_ms);
    Append(&compact_ms, o.compact_ms);
    ops += o.ops;
    attempted += o.attempted;
    failed += o.failed;
    result_sum += o.result_sum;
    commits += o.commits;
    compactions += o.compactions;
    layers.MergeFrom(std::move(o.layers));
  }
};

/// Operation and span ids, unique across clients and passes of a run.
std::atomic<uint64_t> g_next_op{0};
std::atomic<uint32_t> g_next_span{0};
uint64_t NextOpId() { return g_next_op.fetch_add(1) + 1; }
uint32_t NextSpanId() { return g_next_span.fetch_add(1) + 1; }

double Micros(Clock::time_point t0, Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - t0).count();
}

// --- the client -------------------------------------------------------------

Session NewSession(const Database& db, StorageBackend backend) {
  SessionOptions options;
  options.backend = backend;
  auto s = db.CreateSession(options);
  if (!s.ok()) Die("session: " + s.status().ToString());
  return std::move(s).value();
}

/// One closed-loop client: a session per backend of the workload, driven
/// from one thread. Edits and compactions go through the same object
/// (single-client workloads only).
class Client {
 public:
  Client(Database* db, const WorkloadSpec& spec, Checker* checker,
         PoolMeter* meter, bool traced, Clock::time_point epoch0,
         LoopResult* out)
      : db_(db),
        spec_(spec),
        checker_(checker),
        meter_(meter),
        traced_(traced),
        epoch0_(epoch0),
        out_(out),
        anchor_(NewSession(*db, StorageBackend::kMemory)) {
    for (StorageBackend b : spec.backends) {
      sessions_.push_back(NewSession(*db, b));
    }
  }

  /// One scheduled read: timed Run, then the answer check.
  void Read(const Op& op) {
    Session& session = sessions_[op.backend];
    const char* text = kMix[op.query].text;
    const uint64_t op_id = NextOpId();
    const uint32_t op_span = traced_ ? NextSpanId() : 0;
    ++out_->attempted;
    const auto t0 = Clock::now();
    if (traced_) {
      // Parsing alone, timed from outside (the Run below parses or serves
      // a cached plan on its own).
      auto parsed = sj::xpath::ParseXPathUnion(text);
      const auto t1 = Clock::now();
      if (!parsed.ok()) ++out_->failed;
      out_->layers.parse_us.push_back(Micros(t0, t1));
      Record(op_id, NextSpanId(), op_span, "xpath.parse", t0, t1);
    }
    const auto r0 = Clock::now();
    auto r = session.Run(text);
    const auto r1 = Clock::now();
    const double ms = Micros(r0, r1) / 1000.0;
    out_->read_ms.push_back(ms);
    ++out_->ops;
    if (!r.ok()) {
      ++out_->failed;
      return;
    }
    const QueryResult& result = r.value();
    out_->result_sum += result.nodes.size();
    if (traced_) {
      Record(op_id, NextSpanId(), op_span, "api.run", r0, r1);
      Record(op_id, op_span, 0, "op.read", t0, r1);
      TraceRead(session, result, ms);
    }
    if (!checker_->Check(op.query, result.snapshot_epoch, result.nodes)) {
      ++out_->failed;
      std::fprintf(stderr, "wrong answer: q%u on %s (epoch %llu)\n",
                   op.query + 1, BackendName(spec_.backends[op.backend]),
                   static_cast<unsigned long long>(result.snapshot_epoch));
    }
  }

  /// One scheduled edit: anchor reads, BeginEdit, the op, Commit -- all
  /// timed as one edit latency. Returns whether it committed.
  bool Edit(const Op& op) {
    const uint64_t op_id = NextOpId();
    ++out_->attempted;
    ++out_->ops;
    const auto t0 = Clock::now();
    auto auctions = anchor_.Run(kAuctionsQuery);
    if (!auctions.ok() || auctions.value().nodes.empty()) {
      ++out_->failed;
      return false;
    }
    const NodeSequence& all = auctions.value().nodes;
    const sj::NodeId auction = all[op.pick % all.size()];
    auto bidders = anchor_.Run(kBiddersQuery, NodeSequence{auction});
    if (!bidders.ok()) {
      ++out_->failed;
      return false;
    }
    const NodeSequence& bids = bidders.value().nodes;
    // A delete needs a bidder; an auction without one takes a bid instead.
    const OpKind kind = bids.empty() ? OpKind::kAppend : op.kind;
    EditTxn txn = db_->BeginEdit();
    const auto a0 = Clock::now();
    const sj::Status applied =
        kind == OpKind::kAppend
            ? txn.InsertLastChild(auction, kBidderXml)
            : txn.DeleteSubtree(bids[(op.pick >> 32) % bids.size()]);
    const auto a1 = Clock::now();
    const sj::Status committed = applied.ok() ? txn.Commit() : applied;
    const auto t1 = Clock::now();
    out_->edit_ms.push_back(Micros(t0, t1) / 1000.0);
    if (!committed.ok()) {
      ++out_->failed;
      std::fprintf(stderr, "edit failed: %s\n",
                   committed.ToString().c_str());
      return false;
    }
    ++out_->commits;
    checker_->ApplyEdit(kind, bids.size());
    if (traced_) {
      const uint32_t span = NextSpanId();
      Record(op_id, NextSpanId(), span, "delta.apply", a0, a1);
      Record(op_id, NextSpanId(), span, "api.commit", a1, t1);
      Record(op_id, span, 0, "op.edit", t0, t1);
      out_->layers.apply_us.push_back(Micros(a0, a1));
      out_->layers.commit_us.push_back(Micros(a1, t1));
    }
    return true;
  }

  /// Inline compaction, bracketed by two untimed verification passes
  /// over the whole mix on every backend: the compacted answers must be
  /// node-identical to the overlay answers they replace. Returns the
  /// seconds the passes took (they are not client operations).
  double CompactAndVerify() {
    const auto v0 = Clock::now();
    const uint64_t delta_nodes = db_->CurrentSnapshot()->delta_nodes();
    double overlay_ms = 0;
    const std::vector<Answer> before = VerifyPass(&overlay_ms);
    const double checks_s = SecondsSince(v0);
    const auto c0 = Clock::now();
    const sj::Status st = db_->Compact();
    const auto c1 = Clock::now();
    if (spec_.latency_us > 0) {
      // The rebuilt images come with a fresh disk; keep the device slow.
      db_->disk()->set_read_latency_micros(spec_.latency_us);
    }
    if (meter_ != nullptr) meter_->Sample(*db_);
    out_->compact_ms.push_back(Micros(c0, c1) / 1000.0);
    ++out_->attempted;
    if (!st.ok()) {
      ++out_->failed;
      std::fprintf(stderr, "compact failed: %s\n", st.ToString().c_str());
      return checks_s;
    }
    ++out_->compactions;
    const auto v1 = Clock::now();
    double compacted_ms = 0;
    const std::vector<Answer> after = VerifyPass(&compacted_ms);
    if (after != before) {
      ++out_->failed;
      std::fprintf(stderr, "compaction changed an answer\n");
    }
    if (traced_) {
      Record(NextOpId(), NextSpanId(), 0, "api.compact", c0, c1);
      out_->layers.nodes_at_compact.push_back(
          static_cast<double>(delta_nodes));
      if (compacted_ms > 0) {
        out_->layers.read_tax.push_back(overlay_ms / compacted_ms);
      }
    }
    return checks_s + SecondsSince(v1);
  }

 private:
  std::vector<Answer> VerifyPass(double* total_ms) {
    std::vector<Answer> answers;
    for (size_t q = 0; q < kMixSize; ++q) {
      for (Session& session : sessions_) {
        ++out_->attempted;
        const auto t0 = Clock::now();
        auto r = session.Run(kMix[q].text);
        *total_ms += Micros(t0, Clock::now()) / 1000.0;
        if (!r.ok() ||
            !checker_->Check(q, r.value().snapshot_epoch, r.value().nodes)) {
          ++out_->failed;
          std::fprintf(stderr, "verification pass: q%zu wrong on %s\n",
                       q + 1, BackendName(session.options().backend));
          answers.push_back(Answer{});
          continue;
        }
        answers.push_back(Digest(r.value().nodes));
      }
    }
    return answers;
  }

  void TraceRead(const Session& session, const QueryResult& r, double ms) {
    LayerStats& l = out_->layers;
    ++l.reads;
    (r.plan_cached ? l.plan_hits : l.plan_misses) += 1;
    double steps_ms = 0;
    for (const auto& step : r.trace) steps_ms += step.millis;
    l.run_self_us.push_back(std::max(0.0, (ms - steps_ms) * 1000.0));
    const std::vector<sj::PlanStepSummary> plan = r.PlanSummary();
    for (size_t i = 0; i < plan.size(); ++i) {
      const sj::PlanStepSummary& row = plan[i];
      if (i < r.trace.size()) l.step_ms[row.op] += r.trace[i].millis;
      if (row.op == "twig-subsumed" || row.op == "empty") continue;
      const double est = static_cast<double>(row.estimated_rows) + 1.0;
      const double act = static_cast<double>(row.actual_rows) + 1.0;
      l.q_error_max = std::max(l.q_error_max, std::max(est / act, act / est));
    }
    l.nodes_scanned += r.totals.nodes_scanned;
    l.nodes_skipped += r.totals.nodes_skipped;
    l.nodes_copied += r.totals.nodes_copied;
    l.backend_ms[BackendName(session.options().backend)].push_back(ms);
  }

  void Record(uint64_t op, uint32_t id, uint32_t parent, const char* name,
              Clock::time_point t0, Clock::time_point t1) {
    out_->layers.spans.push_back(
        Span{op, id, parent, name, Micros(epoch0_, t0), Micros(epoch0_, t1)});
  }

  Database* db_;
  const WorkloadSpec& spec_;
  Checker* checker_;
  PoolMeter* meter_;  ///< banks pool generations on Compact (may be null)
  bool traced_;
  Clock::time_point epoch0_;
  LoopResult* out_;
  /// Finds the edit anchors (memory backend: logical pre ranks).
  Session anchor_;
  std::vector<Session> sessions_;
};

// --- set-up and loops -------------------------------------------------------

struct Opened {
  std::unique_ptr<Database> db;
  double generate_s = 0;
  double open_s = 0;
};

Opened OpenDatabase(const WorkloadSpec& spec, double size_mb) {
  Opened o;
  const auto t0 = Clock::now();
  std::unique_ptr<sj::DocTable> doc = GenerateDocument(size_mb);
  o.generate_s = SecondsSince(t0);
  DatabaseOptions options;
  options.build.store_values = false;
  options.pool_pages = spec.pool_pages;
  options.pool_shards = kPoolShards;
  const auto t1 = Clock::now();
  auto db = Database::FromTable(std::move(doc), options);
  o.open_s = SecondsSince(t1);
  if (!db.ok()) Die("open: " + db.status().ToString());
  o.db = std::move(db).value();
  if (spec.latency_us > 0) {
    o.db->disk()->set_read_latency_micros(spec.latency_us);
  }
  return o;
}

/// Untimed: every mix query once on every backend of the workload
/// (fills the plan cache and the pool, and checks the pristine answers
/// of each backend against the oracle).
LoopResult WarmUp(Database* db, const WorkloadSpec& spec, Checker* checker) {
  LoopResult out;
  Client client(db, spec, checker, nullptr, false, Clock::now(), &out);
  for (uint8_t b = 0; b < spec.backends.size(); ++b) {
    for (uint8_t q = 0; q < kMixSize; ++q) {
      Op op;
      op.query = q;
      op.backend = b;
      client.Read(op);
    }
  }
  return out;
}

/// The timed closed loop: each client runs its schedule back to back.
LoopResult RunLoop(Database* db, const WorkloadSpec& spec, Checker* checker,
                   PoolMeter* meter,
                   const std::vector<std::vector<Op>>& schedules, bool traced,
                   Clock::time_point epoch0) {
  std::vector<LoopResult> per_client(schedules.size());
  const auto t0 = Clock::now();
  double checks_s = 0;
  if (schedules.size() == 1) {
    Client client(db, spec, checker, meter, traced, epoch0, &per_client[0]);
    for (const Op& op : schedules[0]) {
      if (op.kind == OpKind::kRead) {
        client.Read(op);
        continue;
      }
      if (client.Edit(op) &&
          per_client[0].commits % spec.compact_every == 0) {
        checks_s += client.CompactAndVerify();
      }
    }
  } else {
    // Read-only clients on their own threads, sharing the pool (edits
    // and compactions are single-client only).
    std::vector<std::thread> threads;
    threads.reserve(schedules.size());
    for (size_t c = 0; c < schedules.size(); ++c) {
      threads.emplace_back([&, c] {
        Client client(db, spec, checker, meter, traced, epoch0,
                      &per_client[c]);
        for (const Op& op : schedules[c]) client.Read(op);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  LoopResult total;
  total.busy_s = SecondsSince(t0) - checks_s;
  for (LoopResult& r : per_client) total.MergeFrom(std::move(r));
  return total;
}

long PeakRssKb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

// --- output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void PrintResult(const std::vector<Metric>& metrics, uint64_t attempted,
                 uint64_t failed) {
  for (const Metric& m : metrics) {
    std::printf("%-34s %14s %s\n", m.name.c_str(), Num(m.value).c_str(),
                m.unit.c_str());
  }
  std::printf("%-34s %14s %s\n", "failed_ops_ratio",
              Num(attempted == 0 ? 1.0
                                 : static_cast<double>(failed) / attempted)
                  .c_str(),
              "ratio");
  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  if (path.empty()) return;
  std::ofstream out(path);
  out << "op\tspan\tparent\tname\tstart_us\tend_us\n";
  for (const Span& s : spans) {
    out << s.op << '\t' << s.id << '\t' << s.parent << '\t' << s.name << '\t'
        << Num(s.start_us) << '\t' << Num(s.end_us) << '\n';
  }
  if (!out) Die("cannot write " + path);
}

struct Args {
  std::string command;
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  int trace = 0;
  double size_mb = kDefaultSizeMb;
  uint64_t ops = 0;  ///< operations per pass; 0: the nominal length
  std::string oracle;
  std::string spans;
  std::string out;
};

Args ParseArgs(int argc, char** argv) {
  if (argc < 2) Die("usage: perfbench_workload oracle|run --flag value ...");
  Args a;
  a.command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--seconds") a.seconds = std::strtod(v, nullptr);
    else if (flag == "--trace") a.trace = std::atoi(v);
    else if (flag == "--size-mb") a.size_mb = std::strtod(v, nullptr);
    else if (flag == "--ops") a.ops = std::strtoull(v, nullptr, 10);
    else if (flag == "--oracle") a.oracle = v;
    else if (flag == "--spans") a.spans = v;
    else if (flag == "--out") a.out = v;
    else Die("unknown flag " + flag);
  }
  if ((argc - 2) % 2 != 0) Die("flag without value");
  return a;
}

/// Per-pass figures; each end-to-end timing is the best pass's.
struct PassFigures {
  std::vector<double> ops_per_s, query_p50, query_p99, edit_p50, compact_p50;

  void AddWrites(const LoopResult& r) {
    if (!r.edit_ms.empty()) edit_p50.push_back(Median(r.edit_ms));
    if (!r.compact_ms.empty()) compact_p50.push_back(Median(r.compact_ms));
  }
};

double Best(const std::vector<double>& v, bool higher_is_better) {
  if (v.empty()) return 0.0;
  return higher_is_better ? *std::max_element(v.begin(), v.end())
                          : *std::min_element(v.begin(), v.end());
}

/// Set-up timings of every database open of a run.
struct SetupTimes {
  std::vector<double> total, generate, open;

  Opened Open(const WorkloadSpec& spec, double size_mb) {
    Opened o = OpenDatabase(spec, size_mb);
    generate.push_back(o.generate_s);
    open.push_back(o.open_s);
    total.push_back(o.generate_s + o.open_s);
    return o;
  }
};

/// One read pass on a freshly opened database: untimed warm-up, then
/// the timed loop over the schedule.
struct ReadPass {
  LoopResult loop;         ///< the timed loop (warm-up checks included)
  PoolCounters loop_pool;  ///< pool and disk counters of the timed loop
  uint64_t faults_since_open = 0;
};

ReadPass RunReadPass(const WorkloadSpec& spec, double size_mb,
                     const Oracle& oracle, SetupTimes* setups,
                     const std::vector<std::vector<Op>>& schedules,
                     bool traced, Clock::time_point epoch0) {
  Opened opened = setups->Open(spec, size_mb);
  Database* db = opened.db.get();
  if (db->doc().size() != oracle.doc_nodes) {
    Die("document has " + std::to_string(db->doc().size()) +
        " nodes, the oracle file " + std::to_string(oracle.doc_nodes));
  }
  Checker checker(oracle);
  PoolMeter meter(*db);
  const LoopResult warm = WarmUp(db, spec, &checker);
  const PoolCounters before = meter.Total(*db);
  ReadPass pass;
  pass.loop = RunLoop(db, spec, &checker, &meter, schedules, traced, epoch0);
  const PoolCounters after = meter.Total(*db);
  pass.loop.attempted += warm.attempted;
  pass.loop.failed += warm.failed;
  pass.loop_pool = after - before;
  pass.faults_since_open = after.faults;
  return pass;
}

int RunWorkload(const Args& args) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& s : Workloads()) {
    if (s.name == args.workload) spec = &s;
  }
  if (spec == nullptr) Die("unknown workload '" + args.workload + "'");
  if (args.seconds <= 0) Die("--seconds must be positive");
  const Oracle oracle = ReadOracle(args.oracle, args.size_mb);
  const bool edits = spec->edit_percent > 0;

  // One seeded schedule of fixed length, drawn before anything runs and
  // replayed identically by every pass.
  const int passes = std::max<int>(
      1, static_cast<int>(std::lround(args.seconds / spec->pass_seconds)));
  const uint64_t length =
      args.ops != 0 ? args.ops
                    : static_cast<uint64_t>(std::llround(
                          spec->nominal_ops_per_s * spec->pass_seconds));
  std::vector<std::vector<Op>> schedules;
  uint64_t schedule_hash = 0;
  for (unsigned c = 0; c < spec->clients; ++c) {
    schedules.push_back(MakeSchedule(
        *spec, args.seed, c, std::max<uint64_t>(1, length / spec->clients),
        spec->edit_percent));
    schedule_hash = Mix64(schedule_hash, ScheduleHash(schedules.back()));
  }
  // The read-only workloads' write pass, replayed by every pass too.
  const std::vector<Op> writes =
      edits ? std::vector<Op>{}
            : MakeSchedule(*spec, Mix64(args.seed, 0xE9), 0, kWriteEdits,
                           100);
  schedule_hash = Mix64(schedule_hash, ScheduleHash(writes));

  std::printf("perfbench: workload=%s seed=%llu nproc=%u build=%s "
              "size_mb=%g passes=%d ops_per_pass=%llu clients=%u trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              args.size_mb, passes, static_cast<unsigned long long>(length),
              spec->clients, args.trace);

  uint64_t attempted = 0, failed = 0;
  auto count = [&](const LoopResult& r) {
    attempted += r.attempted;
    failed += r.failed;
  };
  const auto epoch0 = Clock::now();

  // Every pass replays the schedule on freshly opened databases, so
  // every pass does the same work and each samples a new memory
  // placement of the images (see README.md, "Steadiness"). Read-only
  // workloads write to a twin database (see kWriteEdits). With
  // --trace 1 the passes alternate plain and traced.
  SetupTimes setups;
  PassFigures plain, traced_figs;
  LayerStats layers;
  PoolCounters pool;
  LoopResult first, first_writes;
  uint64_t first_faults = 0;
  for (int pass = 0; pass < passes; ++pass) {
    const bool traced = args.trace != 0 && pass % 2 == 1;
    ReadPass read = RunReadPass(*spec, args.size_mb, oracle, &setups,
                                schedules, traced, epoch0);
    LoopResult& r = read.loop;
    count(r);
    PassFigures& figs = traced ? traced_figs : plain;
    figs.ops_per_s.push_back(r.ops / r.busy_s);
    figs.query_p50.push_back(Median(r.read_ms));
    figs.query_p99.push_back(Quantile(r.read_ms, 0.99));
    figs.AddWrites(r);
    std::fprintf(stderr, "[pass %d%s] ops_per_s=%.1f query_p50_ms=%.4f "
                 "query_p99_ms=%.4f\n", pass, traced ? " traced" : "",
                 figs.ops_per_s.back(), figs.query_p50.back(),
                 figs.query_p99.back());
    if (traced) pool += read.loop_pool;

    LoopResult w;
    if (!edits) {
      Opened twin = setups.Open(*spec, args.size_mb);
      Checker twin_checker(oracle);
      w = RunLoop(twin.db.get(), *spec, &twin_checker, nullptr, {writes},
                  traced, epoch0);
      count(w);
      figs.AddWrites(w);
    }
    if (traced) {
      layers.MergeFrom(std::move(r.layers));
      layers.MergeFrom(std::move(w.layers));
    }
    if (pass == 0) {
      first_faults = read.faults_since_open;
      first = std::move(r);
      first_writes = std::move(w);
    } else if (r.result_sum != first.result_sum ||
               r.commits != first.commits ||
               r.compactions != first.compactions ||
               w.commits != first_writes.commits ||
               w.compactions != first_writes.compactions) {
      ++failed;  // a replayed schedule must redo exactly the same work
      std::fprintf(stderr, "pass %d did other work than pass 0\n", pass);
    }
  }

  std::printf("fingerprint {\"schedule_hash\": %llu, \"result_sum\": %llu, "
              "\"reads\": %zu, \"commits\": %llu, \"compactions\": %llu, "
              "\"pool_faults\": %llu, \"write_commits\": %llu, "
              "\"write_compactions\": %llu}\n",
              static_cast<unsigned long long>(schedule_hash),
              static_cast<unsigned long long>(first.result_sum),
              first.read_ms.size(),
              static_cast<unsigned long long>(first.commits),
              static_cast<unsigned long long>(first.compactions),
              static_cast<unsigned long long>(first_faults),
              static_cast<unsigned long long>(first_writes.commits),
              static_cast<unsigned long long>(first_writes.compactions));

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics = {
        {"setup_s", Median(setups.total), "s"},
        {"ops_per_s", Best(plain.ops_per_s, true), "1/s"},
        {"query_p50_ms", Best(plain.query_p50, false), "ms"},
        {"query_p99_ms", Best(plain.query_p99, false), "ms"},
        {"edit_p50_ms", Best(plain.edit_p50, false), "ms"},
        {"compact_p50_ms", Best(plain.compact_p50, false), "ms"},
        {"peak_rss_mb", PeakRssKb() / 1024.0, "MB"},
    };
  } else {
    const LayerStats& l = layers;
    const double reads = std::max<double>(1.0, static_cast<double>(l.reads));
    const double plans = static_cast<double>(l.plan_hits + l.plan_misses);
    auto per_read = [reads](double v) { return v / reads; };
    auto backend_ms = [&l](const char* b) {
      auto it = l.backend_ms.find(b);
      return it == l.backend_ms.end() ? 0.0 : Median(it->second);
    };
    auto step_ms = [&](const char* op) {
      auto it = l.step_ms.find(op);
      return it == l.step_ms.end() ? 0.0 : per_read(it->second);
    };
    double mean_delta = 0;
    for (double d : l.nodes_at_compact) mean_delta += d;
    if (!l.nodes_at_compact.empty()) mean_delta /= l.nodes_at_compact.size();
    std::vector<double> compact_ms;
    for (const Span& span : l.spans) {
      if (std::string_view(span.name) == "api.compact") {
        compact_ms.push_back((span.end_us - span.start_us) / 1000.0);
      }
    }
    metrics = {
        {"setup.generate_s", Median(setups.generate), "s"},
        {"setup.open_s", Median(setups.open), "s"},
        {"xpath.parse_us", Median(l.parse_us), "us"},
        {"api.run_self_us", Median(l.run_self_us), "us"},
        {"api.plan_cache_hit_ratio",
         plans > 0 ? static_cast<double>(l.plan_hits) / plans : 0.0, "ratio"},
        {"api.plan_cache_misses", static_cast<double>(l.plan_misses),
         "count"},
        {"xpath.q_error_max", l.q_error_max, "ratio"},
        {"core.step_ms.staircase", step_ms("staircase"), "ms"},
        {"core.step_ms.pushdown", step_ms("pushdown"), "ms"},
        {"core.step_ms.axis-cursor", step_ms("axis-cursor"), "ms"},
        {"core.step_ms.twig", step_ms("twig"), "ms"},
        {"core.step_ms.positional", step_ms("positional"), "ms"},
        {"core.nodes_scanned", per_read(l.nodes_scanned), "count"},
        {"core.nodes_skipped", per_read(l.nodes_skipped), "count"},
        {"core.nodes_copied", per_read(l.nodes_copied), "count"},
        {"storage.memory.query_ms", backend_ms("memory"), "ms"},
        {"storage.paged.query_ms", backend_ms("paged"), "ms"},
        {"storage.compressed.query_ms", backend_ms("compressed"), "ms"},
        {"pool.pins", per_read(pool.pins), "count"},
        {"pool.hit_ratio",
         pool.pins > 0 ? static_cast<double>(pool.hits) / pool.pins : 0.0,
         "ratio"},
        {"pool.faults", per_read(pool.faults), "count"},
        {"pool.evictions", per_read(pool.evictions), "count"},
        {"pool.prefetched", per_read(pool.prefetched), "count"},
        {"disk.reads", per_read(pool.disk_reads), "count"},
        {"disk.batch_reads", per_read(pool.disk_batch_reads), "count"},
        {"delta.apply_us", Median(l.apply_us), "us"},
        {"api.commit_us", Median(l.commit_us), "us"},
        {"api.compact_ms", Median(compact_ms), "ms"},
        {"delta.nodes_at_compact", mean_delta, "count"},
        {"delta.read_tax", Median(l.read_tax), "ratio"},
        {"trace.overhead_ratio",
         Best(plain.ops_per_s, true) / Best(traced_figs.ops_per_s, true),
         "ratio"},
    };
    WriteSpans(l.spans, args.spans);
  }
  PrintResult(metrics, attempted, failed);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);
  if (args.command == "oracle") {
    if (args.out.empty()) Die("oracle needs --out");
    WriteOracle(ComputeOracle(args.size_mb), args.out);
    return 0;
  }
  if (args.command == "run") return RunWorkload(args);
  Die("unknown command '" + args.command + "'");
}
