#include "ingest/stream_digest.h"

#include <chrono>
#include <utility>

namespace pnm::ingest {

void StreamDigest::on_entry(std::uint64_t stream_seq, ByteView fingerprint,
                            const marking::VerifyResult& verdict) {
  std::lock_guard<std::mutex> lock(mu_);
  buffer_.push(Pending{stream_seq, Bytes(fingerprint.begin(), fingerprint.end()),
                       verdict.chain.size()});
  while (!buffer_.empty() && buffer_.top().seq == next_seq_) {
    const Pending& p = buffer_.top();
    digest_.update(p.fingerprint);
    marks_ += p.marks;
    ++records_;
    ++next_seq_;
    buffer_.pop();
  }
  folded_cv_.notify_all();
  if (notify_ && records_ >= notify_n_) std::exchange(notify_, nullptr)();
}

std::size_t StreamDigest::records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

std::size_t StreamDigest::marks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return marks_;
}

bool StreamDigest::wait_for_records(std::size_t n, std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  return folded_cv_.wait_for(lock, timeout, [&] { return records_ >= n; });
}

void StreamDigest::notify_at(std::size_t n, std::function<void()> done) {
  std::unique_lock<std::mutex> lock(mu_);
  if (records_ >= n) {
    lock.unlock();
    done();
    return;
  }
  notify_n_ = n;
  notify_ = std::move(done);
}

std::string StreamDigest::digest_hex() {
  std::lock_guard<std::mutex> lock(mu_);
  if (digest_hex_.empty()) {
    crypto::Sha256Digest d = digest_.finish();
    digest_hex_ = to_hex(ByteView(d.data(), d.size()));
  }
  return digest_hex_;
}

}  // namespace pnm::ingest
