#include "workload.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "core/campaign.h"
#include "crypto/sha256.h"
#include "ingest/merger.h"
#include "net/report.h"
#include "net/wire.h"
#include "sink/traceback.h"
#include "trace/reader.h"
#include "trace/writer.h"
#include "util/rng.h"

namespace sinkbench {

using namespace pnm;

const std::vector<Workload>& workloads() {
  // Sizes are chosen so one replay pass is long enough to time (≥ 0.1 s)
  // and short enough that a 10 s run holds many passes to take medians of.
  static const std::vector<Workload> all = {
      // 16 hops: per record ~18 PRFs and ~3 MACs, so reading, decoding,
      // routing, queueing, merging and folding carry most of the cost.
      {"shallow-replay", 16, 64, 1024, 1, false, false, 2048, 0},
      // 300 hops, §7 scoped search, each report delivered 4x: verification
      // crypto is almost all of the cost, and report dedup has work to save.
      {"deep-scoped", 300, 64, 4, 4, true, false, 64, 0},
      // The shallow-replay trace streamed through `pnm serve` sessions. Each
      // session streams 8192 records (about 0.12 s), so one scheduler stall
      // on a shared host is a small share of a receipt and the p99 holds.
      {"shallow-serve", 16, 64, 1024, 1, false, true, 8192, 20},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

namespace {

double mark_probability(const Workload& w) {
  return 3.0 / static_cast<double>(w.forwarders);
}

trace::TraceMeta campaign_meta(const Workload& w, std::uint64_t seed) {
  trace::TraceMeta meta;
  meta.set_u64(trace::kMetaSeed, seed);
  meta.set_u64(trace::kMetaForwarders, w.forwarders);
  meta.set(trace::kMetaScheme,
           std::string(marking::scheme_kind_name(marking::SchemeKind::kPnm)));
  char prob[32];
  std::snprintf(prob, sizeof(prob), "%.17g", mark_probability(w));
  meta.set(trace::kMetaMarkProbability, prob);
  marking::SchemeConfig defaults;
  meta.set_u64(trace::kMetaMacLen, defaults.mac_len);
  meta.set_u64(trace::kMetaAnonLen, defaults.anon_len);
  return meta;
}

}  // namespace

Bytes generate_trace(const Workload& w, std::uint64_t seed) {
  trace::TraceMeta meta = campaign_meta(w, seed);
  std::string error;
  auto world = build_sink_world(meta, &error);
  if (!world) return {};

  // The flows' claimed origins are a fixed square grid, part of the workload
  // like the path length: flow routing (and so shard balance) is the same for
  // every seed, and the seed draws keys, report contents and marking.
  std::size_t side = 1;
  while (side * side < w.flows) ++side;
  Rng rng(seed ^ 0x51d3c0ffee5eedULL);

  std::ostringstream out;
  trace::TraceWriter writer(out, meta);
  std::uint64_t index = 0;
  for (std::size_t r = 0; r < w.reports_per_flow; ++r) {
    for (std::size_t f = 0; f < w.flows; ++f) {
      net::Report report{static_cast<std::uint32_t>(rng.next_u64()),
                         static_cast<std::uint16_t>(1 + f % side),
                         static_cast<std::uint16_t>(1 + f / side), 1'000'000 + r * w.flows + f};
      Bytes encoded = report.encode();
      // Copies of one report arrive back to back, so a batch that could
      // share their verification work sees them together.
      for (std::size_t d = 0; d < w.deliveries; ++d) {
        net::Packet p;
        p.report = encoded;
        for (std::size_t h = w.forwarders; h >= 1; --h) {
          auto v = static_cast<NodeId>(h);
          world->scheme->mark(p, v, world->keys.key_unchecked(v), rng);
        }
        p.delivered_by = 1;
        writer.append(p, static_cast<double>(index++) * 1e-3);
      }
    }
  }
  writer.flush();
  std::string s = out.str();
  return Bytes(s.begin(), s.end());
}

std::string check_generator(const Workload& w, std::uint64_t seed) {
  Bytes a = generate_trace(w, seed);
  if (a.empty()) return "generator produced no trace";
  if (generate_trace(w, seed) != a) return "same seed gave different trace bytes";
  if (generate_trace(w, seed + 1) == a) return "different seeds gave identical traces";

  std::istringstream in(std::string(a.begin(), a.end()));
  trace::TraceReader reader(in);
  if (!reader.valid()) return "generated trace header invalid: " + reader.header_error();
  std::set<std::tuple<std::uint16_t, std::uint16_t, NodeId>> flows;
  std::map<std::string, std::size_t> deliveries;  // report bytes -> copies
  std::size_t records = 0;
  while (auto outcome = reader.next()) {
    if (outcome->status != trace::ReadStatus::kRecord) return "generated trace has a bad frame";
    auto p = net::decode_packet(outcome->record.wire);
    if (!p) return "generated record does not decode";
    auto report = net::Report::decode(p->report);
    if (!report) return "generated report does not decode";
    flows.emplace(report->loc_x, report->loc_y, outcome->record.delivered_by);
    ++deliveries[std::string(p->report.begin(), p->report.end())];
    ++records;
  }
  if (records != w.records()) return "record count is not flows x reports x deliveries";
  if (flows.size() != w.flows) return "flow count is not exact";
  if (deliveries.size() != w.flows * w.reports_per_flow) return "distinct report count is not exact";
  for (const auto& [report, n] : deliveries)
    if (n != w.deliveries) return "a report was not delivered exactly the duplicate factor";
  return {};
}

std::unique_ptr<SinkWorld> build_sink_world(const trace::TraceMeta& meta,
                                            std::string* error) {
  auto seed = meta.get_u64(trace::kMetaSeed);
  auto forwarders = meta.get_u64(trace::kMetaForwarders);
  auto scheme_name = meta.get(trace::kMetaScheme);
  if (!seed || !forwarders || !scheme_name || *forwarders < 2 || *forwarders > 60000) {
    *error = "trace header lacks a usable campaign (seed/forwarders/scheme)";
    return nullptr;
  }
  std::optional<marking::SchemeKind> kind;
  for (auto k : marking::all_scheme_kinds())
    if (*scheme_name == marking::scheme_kind_name(k)) kind = k;
  if (!kind) {
    *error = "unknown scheme '" + *scheme_name + "'";
    return nullptr;
  }
  marking::SchemeConfig scfg;
  if (auto prob = meta.get(trace::kMetaMarkProbability))
    scfg.mark_probability = std::strtod(prob->c_str(), nullptr);
  if (auto mac = meta.get_u64(trace::kMetaMacLen)) scfg.mac_len = *mac;
  if (auto anon = meta.get_u64(trace::kMetaAnonLen)) scfg.anon_len = *anon;

  net::Topology topo = net::Topology::chain(static_cast<std::size_t>(*forwarders));
  std::size_t nodes = topo.node_count();
  return std::unique_ptr<SinkWorld>(
      new SinkWorld{std::move(topo),
                    crypto::KeyStore(core::campaign_master_secret(*seed), nodes),
                    marking::make_scheme(*kind, scfg)});
}

bool Oracle::same_accusation(const sink::RouteAnalysis& a) const {
  if (a.identified != identified) return false;
  if (!identified) return true;
  if (a.stop_node != stop_node || a.suspects.size() != suspects.size()) return false;
  for (std::size_t i = 0; i < suspects.size(); ++i)
    if (a.suspects[i] != suspects[i]) return false;
  return true;
}

bool Oracle::save(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  out << "records " << records << "\n"
      << "digest " << digest << "\n"
      << "identified " << (identified ? 1 : 0) << "\n"
      << "stop_node " << stop_node << "\n"
      << "suspects";
  for (auto s : suspects) out << " " << s;
  out << "\n";
  for (const auto& d : slice_digests) out << "slice " << d << "\n";
  return static_cast<bool>(out);
}

std::optional<Oracle> Oracle::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  Oracle o;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "records") {
      fields >> o.records;
    } else if (key == "digest") {
      fields >> o.digest;
    } else if (key == "identified") {
      int v = 0;
      fields >> v;
      o.identified = v != 0;
    } else if (key == "stop_node") {
      fields >> o.stop_node;
    } else if (key == "suspects") {
      std::uint32_t s;
      while (fields >> s) o.suspects.push_back(s);
    } else if (key == "slice") {
      std::string d;
      fields >> d;
      o.slice_digests.push_back(d);
    }
  }
  if (o.digest.empty() || o.records == 0) return std::nullopt;
  return o;
}

std::optional<Oracle> compute_oracle(const Workload& w, const std::string& trace_path,
                                     std::string* error) {
  trace::TraceReader reader(trace_path);
  if (!reader.valid()) {
    *error = "oracle: " + reader.header_error();
    return std::nullopt;
  }
  auto world = build_sink_world(reader.meta(), error);
  if (!world) return std::nullopt;
  sink::TracebackEngine engine(*world->scheme, world->keys, world->topo);

  auto hex = [](crypto::Sha256& h) {
    crypto::Sha256Digest d = h.finish();
    return to_hex(ByteView(d.data(), d.size()));
  };
  Oracle o;
  crypto::Sha256 whole, slice;
  while (auto outcome = reader.next()) {
    auto p = outcome->status == trace::ReadStatus::kRecord
                 ? net::decode_packet(outcome->record.wire)
                 : std::nullopt;
    if (!p) {
      *error = "oracle: record " + std::to_string(o.records) + " does not read back";
      return std::nullopt;
    }
    p->delivered_by = outcome->record.delivered_by;
    marking::VerifyResult vr = engine.ingest(*p);
    Bytes fp = ingest::fold_fingerprint(*p, vr);
    whole.update(fp);
    slice.update(fp);
    ++o.records;
    if (w.slice_records && o.records % w.slice_records == 0) {
      o.slice_digests.push_back(hex(slice));
      slice = crypto::Sha256();
    }
  }
  if (o.records != w.records()) {
    *error = "oracle: trace holds " + std::to_string(o.records) + " records, expected " +
             std::to_string(w.records());
    return std::nullopt;
  }
  o.digest = hex(whole);
  const sink::RouteAnalysis& a = engine.analysis();
  o.identified = a.identified;
  o.stop_node = a.stop_node;
  o.suspects.assign(a.suspects.begin(), a.suspects.end());
  return o;
}

std::optional<FramedTrace> load_framed(const std::string& path, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "cannot open " + path;
    return std::nullopt;
  }
  FramedTrace t;
  t.data.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  constexpr std::size_t kPrologue = sizeof(trace::kMagic) + 2;
  if (t.data.size() < kPrologue ||
      std::memcmp(t.data.data(), trace::kMagic, sizeof(trace::kMagic)) != 0) {
    *error = "not a .pnmtrace file: " + path;
    return std::nullopt;
  }
  std::size_t pos = kPrologue;
  bool header = true;
  while (pos + 4 <= t.data.size()) {
    std::uint32_t len = 0;
    std::memcpy(&len, t.data.data() + pos, sizeof(len));
    std::size_t total = 4u + len + 4u;
    if (len > trace::kMaxFrameBytes || pos + total > t.data.size()) {
      *error = "malformed frame in " + path;
      return std::nullopt;
    }
    if (header) {
      auto meta = trace::TraceMeta::decode(ByteView(t.data.data() + pos + 4, len));
      if (!meta) {
        *error = "bad header frame in " + path;
        return std::nullopt;
      }
      t.meta = *meta;
      t.prologue = pos + total;
      header = false;
    } else {
      t.record_offsets.push_back(pos);
      t.record_lengths.push_back(total);
    }
    pos += total;
  }
  if (header || pos != t.data.size()) {
    *error = "truncated trace " + path;
    return std::nullopt;
  }
  return t;
}

bool write_file(const std::string& path, const Bytes& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  return static_cast<bool>(out);
}

}  // namespace sinkbench
