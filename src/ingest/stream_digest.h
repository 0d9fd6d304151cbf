// Per-stream verdict accounting for multi-client ingest.
//
// A long-running sink multiplexes many client sessions through one sharded
// Pipeline: records from every session interleave into one global arrival
// order (the daemon's digest), but each client is promised the digest *its
// own* stream would have produced through `pnm replay` — that is the
// determinism contract a client can check offline against its recorded
// trace.
//
// The lanes make that cheap to provide: each verified record's digest
// fingerprint (ingest::fold_fingerprint) is already pre-serialized lane-side
// and verdicts are lane- and interleaving-independent, so the per-client
// digest is just the same fingerprints folded in *client-stream* order
// instead of global order. StreamSink is the tap the Pipeline offers
// (invoked from shard-lane threads, concurrently); StreamDigest is the
// standard implementation — a small seq-keyed reorder buffer in front of a
// running SHA-256, plus the record/mark counts the session reports back on
// EOF, and a completion callback the session's event loop arms before
// sending its final digest message (or a blocking wait, for in-process
// producers).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "crypto/sha256.h"
#include "marking/scheme.h"
#include "util/bytes.h"

namespace pnm::ingest {

/// Receives one callback per verified record pushed with this sink attached.
/// Called from shard-lane threads, possibly concurrently — implementations
/// synchronize internally. `stream_seq` is the per-stream sequence number the
/// producer passed to Pipeline::push; `fingerprint` is the record's
/// fold_fingerprint bytes (valid only for the duration of the call).
class StreamSink {
 public:
  virtual ~StreamSink() = default;
  virtual void on_entry(std::uint64_t stream_seq, ByteView fingerprint,
                        const marking::VerifyResult& verdict) = 0;
};

/// Reorders per-stream entries by stream_seq and folds their fingerprints
/// into a SHA-256 — byte-identical to the Pipeline verdict digest of a
/// single-client run over the same records (and therefore to `pnm replay`
/// on the client's trace). Thread-safe.
class StreamDigest : public StreamSink {
 public:
  void on_entry(std::uint64_t stream_seq, ByteView fingerprint,
                const marking::VerifyResult& verdict) override;

  /// Records folded so far (frontier of the per-stream reorder buffer).
  std::size_t records() const;
  /// Verified marks accumulated across folded records.
  std::size_t marks() const;

  /// Block until `n` records have been folded: every record the producer
  /// pushed has cleared verification and the digest is final. Returns false
  /// on timeout.
  bool wait_for_records(std::size_t n, std::chrono::milliseconds timeout);

  /// The non-blocking EOF barrier: call `done` once, as soon as `n` records
  /// have been folded — at once on this thread if they already are, else
  /// later from the lane thread that folds the n-th. `done` must be cheap
  /// and must not call back into this digest (the serve loop's is a wake-fd
  /// write).
  void notify_at(std::size_t n, std::function<void()> done);

  /// Hex SHA-256 over the folded fingerprints in stream order. Finalizes on
  /// first call (idempotent afterwards); call after the EOF barrier.
  std::string digest_hex();

 private:
  mutable std::mutex mu_;
  std::condition_variable folded_cv_;
  struct Pending {
    std::uint64_t seq;
    Bytes fingerprint;
    std::size_t marks;
  };
  struct SeqAfter {
    bool operator()(const Pending& a, const Pending& b) const { return a.seq > b.seq; }
  };
  std::priority_queue<Pending, std::vector<Pending>, SeqAfter> buffer_;
  std::uint64_t next_seq_ = 0;
  std::size_t records_ = 0;
  std::size_t marks_ = 0;
  crypto::Sha256 digest_;
  std::string digest_hex_;
  std::size_t notify_n_ = 0;
  std::function<void()> notify_;
};

}  // namespace pnm::ingest
