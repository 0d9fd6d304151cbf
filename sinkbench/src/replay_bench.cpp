#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <functional>
#include <memory>
#include <thread>

#include "benches.h"
#include "crypto/sha256_multi.h"
#include "ingest/merger.h"
#include "ingest/pipeline.h"
#include "ingest/shard_router.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "sink/batch_verifier.h"
#include "sink/traceback.h"
#include "trace/reader.h"

namespace sinkbench {

using namespace pnm;

namespace {

/// Bytes of one record frame around its wire image: u32 length, u64 time,
/// u16 previous hop, u32 CRC.
constexpr std::size_t kRecordFrameOverhead = 4 + 8 + 2 + 4;

double us(Clock::duration d) { return std::chrono::duration<double, std::micro>(d).count(); }

/// The sink's half of a verification world: the bank of shard lanes and
/// the traceback engine. Like `pnm replay`, it meters into the global
/// registry, which is also where the per-packet verify paths count.
struct Sink {
  util::Counters& counters = util::Counters::global();
  std::unique_ptr<SinkWorld> world;
  std::unique_ptr<sink::VerifierBank> bank;
  std::unique_ptr<sink::TracebackEngine> engine;

  Sink(const Workload& w, const trace::TraceMeta& meta, std::string* error) {
    world = build_sink_world(meta, error);
    if (!world) return;
    sink::BatchVerifierConfig bcfg;
    bcfg.threads = kThreadsPerLane;
    if (w.scoped) bcfg.strategy = sink::BatchStrategy::kScoped;
    bank = std::make_unique<sink::VerifierBank>(*world->scheme, world->keys, kShards, bcfg,
                                                &world->topo, &counters);
    engine = std::make_unique<sink::TracebackEngine>(*world->scheme, world->keys,
                                                     world->topo);
    engine->bind_metrics(counters.registry());
  }
  Sink(const Sink&) = delete;
  Sink& operator=(const Sink&) = delete;
  bool ok() const { return engine != nullptr; }
};

/// Stamps the moment each record's verdict reaches the stream tap. Lane
/// threads write distinct slots; the pass reads them after run() joins.
class ReceiptClock : public ingest::StreamSink {
 public:
  explicit ReceiptClock(std::size_t n) : at_(n) {}
  void on_entry(std::uint64_t stream_seq, ByteView, const marking::VerifyResult&) override {
    if (stream_seq < at_.size()) at_[stream_seq] = Clock::now();
  }
  const std::vector<Clock::time_point>& at() const { return at_; }

 private:
  std::vector<Clock::time_point> at_;
};

struct PipelinePass {
  std::string error;  ///< empty = digest, accusation and record count all match
  double setup_s = 0.0;
  double run_s = 0.0;
  std::size_t records = 0;
  std::vector<double> receipt_ms;
  ingest::PipelineStats stats;
  double push_us = 0.0;  ///< total time inside Pipeline::push, when `timed`
};

/// One replay of the trace through a freshly built sharded Pipeline, the
/// shape `pnm replay --shards 2` runs. With `timed`, the producer also
/// times each Pipeline::push.
PipelinePass pipeline_pass(const Workload& w, const Oracle& oracle, bool timed) {
  PipelinePass pass;
  // The benchmark's own bookkeeping is allocated outside the set-up window.
  auto receipts = std::make_shared<ReceiptClock>(oracle.records);
  std::vector<Clock::time_point> pushed(oracle.records);
  auto t0 = Clock::now();
  trace::TraceReader reader(kTraceFile);
  if (!reader.valid()) {
    pass.error = "trace: " + reader.header_error();
    return pass;
  }
  Sink sink(w, reader.meta(), &pass.error);
  if (!sink.ok()) return pass;
  ingest::PipelineConfig pcfg;
  pcfg.batch_size = kReplayBatch;
  pcfg.shards = kShards;
  ingest::Pipeline pipeline(*sink.bank, sink.engine.get(), pcfg, &sink.counters);
  reader.meter_into(&sink.counters);
  auto t1 = Clock::now();
  pass.setup_s = seconds_between(t0, t1);

  std::size_t bad = 0;
  std::uint64_t seq = 0;
  std::thread producer([&] {
    while (auto outcome = reader.next()) {
      if (outcome->status != trace::ReadStatus::kRecord || seq >= pushed.size()) {
        ++bad;
        continue;
      }
      auto packet = net::decode_packet(outcome->record.wire);
      if (!packet) {
        ++bad;
        continue;
      }
      packet->delivered_by = outcome->record.delivered_by;
      pushed[seq] = Clock::now();
      if (!pipeline.push(std::move(*packet), outcome->record.time_s(), receipts, seq)) break;
      if (timed) pass.push_us += us(Clock::now() - pushed[seq]);
      ++seq;
    }
    pipeline.close();
  });
  try {
    pipeline.run();
  } catch (const std::exception& e) {
    pass.error = std::string("pipeline: ") + e.what();
  }
  producer.join();
  auto t2 = Clock::now();
  pass.run_s = seconds_between(t1, t2);
  pass.stats = pipeline.stats();
  pass.records = pass.stats.records;
  if (!pass.error.empty()) return pass;

  if (bad != 0 || pass.stats.decode_failures != 0) {
    pass.error = std::to_string(bad) + " records failed to read or decode";
  } else if (pass.records != oracle.records) {
    pass.error = "verified " + std::to_string(pass.records) + " of " +
                 std::to_string(oracle.records) + " records";
  } else if (pipeline.verdict_digest() != oracle.digest) {
    pass.error = "verdict digest differs from the oracle";
  } else if (!oracle.same_accusation(sink.engine->analysis())) {
    pass.error = "accusation set differs from the oracle";
  }
  if (!pass.error.empty()) return pass;

  pass.receipt_ms.reserve(pass.records);
  for (std::size_t i = 0; i < pass.records; ++i)
    pass.receipt_ms.push_back(
        std::chrono::duration<double, std::milli>(receipts->at()[i] - pushed[i]).count());
  return pass;
}

/// Exact work counters of the verify path, read from the global registry.
struct WorkCounts {
  std::uint64_t prf_evals = 0;
  std::uint64_t mac_checks = 0;
  std::uint64_t reports_deduped = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t sweeps = 0;
  std::uint64_t lanes_filled = 0;

  static WorkCounts scrape() {
    util::Counters& c = util::Counters::global();
    auto lanes = obs::MetricsRegistry::global().histogram("crypto_lanes_filled").snapshot();
    return {c.get(util::Metric::kPrfEvals),
            c.get(util::Metric::kMacChecks),
            obs::MetricsRegistry::global().counter("sink_reports_deduped").value(),
            c.get(util::Metric::kCacheHits),
            c.get(util::Metric::kCacheMisses),
            lanes.count,
            lanes.sum};
  }
  WorkCounts operator-(const WorkCounts& o) const {
    return {prf_evals - o.prf_evals,         mac_checks - o.mac_checks,
            reports_deduped - o.reports_deduped, cache_hits - o.cache_hits,
            cache_misses - o.cache_misses,   sweeps - o.sweeps,
            lanes_filled - o.lanes_filled};
  }
  bool operator==(const WorkCounts&) const = default;
};

/// One pass of the staged pipeline: every stage is one public call, timed
/// on its own, on one thread, in fixed chunks of kShards x kReplayBatch
/// records — so the batch composition, and with it every work count, is a
/// pure function of the trace.
struct StagedPass {
  std::string error;
  std::size_t records = 0;
  double wall_us = 0.0;
  double read_us = 0.0, decode_us = 0.0, route_us = 0.0, verify_us = 0.0;
  double fingerprint_us = 0.0, merge_us = 0.0, fold_us = 0.0;
  std::uint64_t trace_bytes = 0;
  WorkCounts work;

  double stage_sum_us() const {
    return read_us + decode_us + route_us + verify_us + fingerprint_us + merge_us + fold_us;
  }
  bool same_counts(const StagedPass& o) const {
    return records == o.records && trace_bytes == o.trace_bytes && work == o.work;
  }
};

StagedPass staged_pass(const Workload& w, const Oracle& oracle) {
  StagedPass pass;
  trace::TraceReader reader(kTraceFile);
  if (!reader.valid()) {
    pass.error = "trace: " + reader.header_error();
    return pass;
  }
  Sink sink(w, reader.meta(), &pass.error);
  if (!sink.ok()) return pass;
  ingest::ShardRouter router(kShards);
  ingest::TracebackMerger merger(nullptr);
  const WorkCounts work0 = WorkCounts::scrape();

  std::vector<std::vector<net::Packet>> lane_packets(kShards);
  std::vector<std::vector<std::uint64_t>> lane_seqs(kShards);
  std::vector<std::size_t> slot_of(kShards * kReplayBatch);
  std::uint64_t seq = 0;
  bool done = false;
  auto start = Clock::now();
  while (!done) {
    std::uint64_t chunk_base = seq;
    for (std::size_t i = 0; i < kShards * kReplayBatch; ++i) {
      auto a = Clock::now();
      auto outcome = reader.next();
      auto b = Clock::now();
      pass.read_us += us(b - a);
      if (!outcome) {
        done = true;
        break;
      }
      if (outcome->status != trace::ReadStatus::kRecord) {
        pass.error = "trace frame " + std::to_string(seq) + " failed to read";
        return pass;
      }
      pass.trace_bytes += outcome->record.wire.size() + kRecordFrameOverhead;
      auto packet = net::decode_packet(outcome->record.wire);
      auto c = Clock::now();
      pass.decode_us += us(c - b);
      if (!packet) {
        pass.error = "record " + std::to_string(seq) + " failed to decode";
        return pass;
      }
      packet->delivered_by = outcome->record.delivered_by;
      std::size_t lane = router.shard_of(*packet);
      pass.route_us += us(Clock::now() - c);
      lane_packets[lane].push_back(std::move(*packet));
      lane_seqs[lane].push_back(seq++);
    }
    std::size_t n = static_cast<std::size_t>(seq - chunk_base);
    if (n == 0) break;

    std::vector<ingest::FoldEntry> entries;
    entries.reserve(n);
    for (std::size_t lane = 0; lane < kShards; ++lane) {
      if (lane_packets[lane].empty()) continue;
      auto a = Clock::now();
      std::vector<marking::VerifyResult> verdicts =
          sink.bank->lane(lane).verify_batch(lane_packets[lane]);
      auto b = Clock::now();
      pass.verify_us += us(b - a);
      for (std::size_t i = 0; i < verdicts.size(); ++i) {
        ingest::FoldEntry e;
        e.seq = lane_seqs[lane][i];
        e.delivered_by = lane_packets[lane][i].delivered_by;
        e.fingerprint = ingest::fold_fingerprint(lane_packets[lane][i], verdicts[i]);
        e.verdict = std::move(verdicts[i]);
        slot_of[e.seq - chunk_base] = entries.size();
        entries.push_back(std::move(e));
      }
      pass.fingerprint_us += us(Clock::now() - b);
      lane_packets[lane].clear();
      lane_seqs[lane].clear();
    }
    // Fold in arrival order (what the merger does with an engine attached),
    // then hand the chunk to a digest-only merger.
    auto a = Clock::now();
    for (std::size_t k = 0; k < n; ++k) {
      const ingest::FoldEntry& e = entries[slot_of[k]];
      sink.engine->fold(e.delivered_by, e.verdict);
    }
    auto b = Clock::now();
    pass.fold_us += us(b - a);
    merger.submit(std::move(entries));
    pass.merge_us += us(Clock::now() - b);
  }
  pass.wall_us = us(Clock::now() - start);
  pass.records = static_cast<std::size_t>(seq);

  pass.work = WorkCounts::scrape() - work0;

  if (pass.records != oracle.records || merger.folded() != oracle.records) {
    pass.error = "staged run folded " + std::to_string(merger.folded()) + " of " +
                 std::to_string(oracle.records) + " records";
  } else if (merger.digest_hex() != oracle.digest) {
    pass.error = "staged verdict digest differs from the oracle";
  } else if (!oracle.same_accusation(sink.engine->analysis())) {
    pass.error = "staged accusation set differs from the oracle";
  }
  return pass;
}

/// What one end-to-end pass reports back from its own process.
struct PassSummary {
  std::string error;
  double setup_s = 0.0;
  double records_per_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double peak_rss_mb = 0.0;
  std::size_t samples = 0;
};

/// One pipeline pass in a forked child, the way `pnm replay` runs one
/// replay per process: the child's peak RSS is that replay's alone, and
/// state the library keeps per process (per-thread provenance rings, the
/// metrics registry) starts fresh every pass instead of piling up.
PassSummary isolated_pass(const Workload& w, const Oracle& oracle) {
  PassSummary out;
  int fds[2];
  if (::pipe(fds) != 0) {
    out.error = "pipe failed";
    return out;
  }
  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    out.error = "fork failed";
    return out;
  }
  if (pid == 0) {
    ::close(fds[0]);
    PipelinePass pass = pipeline_pass(w, oracle, false);
    double peak_mb =
        static_cast<double>(proc_status_field(::getpid(), "VmHWM").value_or(0)) / 1024.0;
    char line[512];
    if (pass.error.empty()) {
      std::snprintf(line, sizeof(line), "ok %.17g %.17g %.17g %.17g %.17g %zu\n",
                    pass.setup_s, static_cast<double>(pass.records) / pass.run_s,
                    percentile(pass.receipt_ms, 0.50), percentile(pass.receipt_ms, 0.99),
                    peak_mb, pass.receipt_ms.size());
    } else {
      std::snprintf(line, sizeof(line), "err %s\n", pass.error.c_str());
    }
    std::size_t len = std::strlen(line), done = 0;
    while (done < len) {
      ssize_t n = ::write(fds[1], line + done, len - done);
      if (n <= 0) break;
      done += static_cast<std::size_t>(n);
    }
    ::_exit(0);
  }
  ::close(fds[1]);
  std::string text;
  char buf[512];
  ssize_t n;
  while ((n = ::read(fds[0], buf, sizeof(buf))) > 0) text.append(buf, static_cast<std::size_t>(n));
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (text.compare(0, 4, "err ") == 0) {
    out.error = text.substr(4, text.find('\n') - 4);
  } else if (text.compare(0, 3, "ok ") != 0 ||
             std::sscanf(text.c_str() + 3, "%lf %lf %lf %lf %lf %zu", &out.setup_s,
                         &out.records_per_s, &out.p50_ms, &out.p99_ms, &out.peak_rss_mb,
                         &out.samples) != 6 ||
             !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    out.error = "replay pass process failed (status " + std::to_string(status) + ")";
  }
  return out;
}

std::optional<Oracle> load_oracle(Result& r) {
  auto oracle = Oracle::load(kOracleFile);
  if (!oracle) r.fail("cannot read the oracle");
  return oracle;
}

}  // namespace

Result run_replay(const Workload& w, double seconds) {
  Result r;
  auto oracle = load_oracle(r);
  if (!oracle) return r;

  std::vector<double> rates, setups, p50s, p99s, peaks;
  std::size_t samples = 0;
  auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
  // At least three passes, so even a slow pass count gives a median.
  while (rates.size() < 3 || Clock::now() < deadline) {
    PassSummary pass = isolated_pass(w, *oracle);
    r.attempted += oracle->records;
    if (!pass.error.empty()) {
      r.failed += oracle->records;
      r.fail(pass.error);
      break;
    }
    rates.push_back(pass.records_per_s);
    setups.push_back(pass.setup_s);
    p50s.push_back(pass.p50_ms);
    p99s.push_back(pass.p99_ms);
    peaks.push_back(pass.peak_rss_mb);
    samples += pass.samples;
  }
  r.add("records_per_s", median(rates), "1/s");
  r.add("receipt_p50_ms", median(p50s), "ms");
  r.add("receipt_p99_ms", median(p99s), "ms");
  r.add("setup_s", median(setups), "s");
  r.add("peak_rss_mb", median(peaks), "MB");
  r.note("passes", std::to_string(rates.size()));
  r.note("receipt_samples", std::to_string(samples));
  r.note("receipt_percentiles", "median over passes of each pass's percentile");
  return r;
}

Result run_replay_traced(const Workload& w) {
  Result r;
  auto oracle = load_oracle(r);
  if (!oracle) return r;
  auto fail_pass = [&](const std::string& error) {
    r.failed += oracle->records;
    r.fail(error);
    return r;
  };

  // Untraced and timed Pipeline passes, interleaved so drift hits both.
  constexpr int kPairs = 3;
  std::vector<double> plain_s, timed_s, push_us, queue_hw, merge_pending, imbalance;
  for (int i = 0; i < kPairs; ++i) {
    for (bool timed : {false, true}) {
      PipelinePass pass = pipeline_pass(w, *oracle, timed);
      r.attempted += oracle->records;
      if (!pass.error.empty()) return fail_pass(pass.error);
      (timed ? timed_s : plain_s).push_back(pass.run_s);
      if (!timed) continue;
      double n = static_cast<double>(pass.records);
      push_us.push_back(pass.push_us / n);
      queue_hw.push_back(static_cast<double>(pass.stats.queue_high_water));
      merge_pending.push_back(static_cast<double>(pass.stats.merge_max_pending));
      std::size_t max_lane = 0;
      for (std::size_t k : pass.stats.shard_records) max_lane = std::max(max_lane, k);
      imbalance.push_back(static_cast<double>(max_lane) * pass.stats.shards / n);
    }
  }
  if (std::adjacent_find(imbalance.begin(), imbalance.end(),
                         std::not_equal_to<>()) != imbalance.end())
    return fail_pass("shard imbalance differs between traced passes");

  // Two staged passes: the exact counts must repeat, the second (warm) one
  // supplies the stage times.
  StagedPass first = staged_pass(w, *oracle);
  r.attempted += oracle->records;
  if (!first.error.empty()) return fail_pass(first.error);
  StagedPass s = staged_pass(w, *oracle);
  r.attempted += oracle->records;
  if (!s.error.empty()) return fail_pass(s.error);
  if (!s.same_counts(first)) return fail_pass("exact work counts differ between staged passes");

  constexpr double kReconcileTolerance = 0.10;
  double unaccounted = (s.wall_us - s.stage_sum_us()) / s.wall_us;
  if (unaccounted < 0.0 || unaccounted > kReconcileTolerance)
    return fail_pass("stage times do not reconcile with the staged wall time (unaccounted " +
                     std::to_string(unaccounted) + ")");

  const double n = static_cast<double>(s.records);
  r.add("trace.read_us", s.read_us / n, "us");
  r.add("trace.bytes", static_cast<double>(s.trace_bytes), "bytes");
  r.add("net.decode_us", s.decode_us / n, "us");
  r.add("ingest.route_us", s.route_us / n, "us");
  r.add("ingest.push_wait_us", median(push_us), "us");
  r.add("ingest.fingerprint_us", s.fingerprint_us / n, "us");
  r.add("ingest.merge_us", s.merge_us / n, "us");
  r.add("ingest.queue_high_water", median(queue_hw), "count");
  r.add("ingest.merge_max_pending", median(merge_pending), "count");
  r.add("ingest.shard_imbalance", imbalance.front(), "ratio");
  r.add("sink.verify_us", s.verify_us / n, "us");
  r.add("sink.fold_us", s.fold_us / n, "us");
  const WorkCounts& work = s.work;
  r.add("sink.prf_evals", static_cast<double>(work.prf_evals), "count");
  r.add("sink.mac_checks", static_cast<double>(work.mac_checks), "count");
  r.add("sink.reports_deduped_share", static_cast<double>(work.reports_deduped) / n, "ratio");
  std::uint64_t probes = work.cache_hits + work.cache_misses;
  r.add("sink.prf_cache_hit_ratio",
        probes ? static_cast<double>(work.cache_hits) / static_cast<double>(probes) : 0.0,
        "ratio");
  r.add("crypto.lanes_filled_mean",
        work.sweeps ? static_cast<double>(work.lanes_filled) / static_cast<double>(work.sweeps)
                    : 0.0,
        "lanes");
  r.add("crypto.sweeps", static_cast<double>(work.sweeps) / n, "count");
  r.add("bench.unaccounted_share", unaccounted, "ratio");
  r.add("bench.trace_overhead", median(timed_s) / median(plain_s), "ratio");
  r.note("sha_backend", crypto::sha_backend_name(crypto::active_sha_backend()));
  r.note("staged_records", std::to_string(s.records));
  r.note("reconcile_tolerance", std::to_string(kReconcileTolerance));
  return r;
}

}  // namespace sinkbench
