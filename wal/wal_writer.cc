#include "wal/wal_writer.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "util/failpoint.h"
#include "wal/wal_format.h"

namespace pgssi::wal {

namespace {
// Abort-mark durability retry: a transient fsync error while writing
// the mark should cost nothing extra (the transaction is aborting
// anyway), not permanently latch the writer. Exhausting all attempts
// means the device is genuinely refusing writes.
constexpr uint32_t kAbortMarkAttempts = 3;
constexpr uint32_t kAbortMarkBackoffUs = 100;  // doubles per attempt

Status IoError(const std::string& what, int err) {
  return Status::IOError(what + ": " + std::strerror(err));
}

int FsyncRetryEintr(int fd) {
  int r;
  do {
    r = ::fdatasync(fd);
  } while (r != 0 && errno == EINTR);
  return r;
}
}  // namespace

WalWriter::~WalWriter() { Close(); }

Status WalWriter::Open(const std::string& path, uint64_t keep_bytes) {
  std::unique_lock<std::mutex> l(mu_);
  if (fd_ >= 0) return Status::Internal("wal already open");
  fd_ = ::open(path.c_str(), O_CREAT | O_RDWR | O_APPEND | O_CLOEXEC, 0644);
  if (fd_ < 0) return IoError("wal open " + path, errno);
  struct stat st;
  if (::fstat(fd_, &st) != 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    return IoError("wal fstat", err);
  }
  uint64_t size = static_cast<uint64_t>(st.st_size);
  if (keep_bytes < size) {
    // Discard the torn tail recovery stopped at; persist the cut so a
    // crash right after Open cannot resurrect half a record.
    if (::ftruncate(fd_, static_cast<off_t>(keep_bytes)) != 0 ||
        FsyncRetryEintr(fd_) != 0) {
      const int err = errno;
      ::close(fd_);
      fd_ = -1;
      return IoError("wal truncate torn tail", err);
    }
    size = keep_bytes;
  }
  appended_.store(size, std::memory_order_release);
  durable_.store(size, std::memory_order_release);

  // Make the log file's directory entry durable (a freshly created
  // wal.log otherwise vanishes with its directory on crash).
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    (void)::fsync(dfd);  // best effort
    ::close(dfd);
  }

  stop_syncer_ = false;
  sync_req_ = size;
  req_batch_target_ = UINT32_MAX;
  req_max_wait_us_ = UINT32_MAX;
  syncer_ = std::thread(&WalWriter::SyncerLoop, this);
  syncer_running_ = true;
  return Status::OK();
}

void WalWriter::Close() {
  std::thread t;
  {
    std::lock_guard<std::mutex> l(mu_);
    stop_syncer_ = true;
    t.swap(syncer_);
    cv_.notify_all();
  }
  if (t.joinable()) t.join();
  std::lock_guard<std::mutex> l(mu_);
  syncer_running_ = false;
  if (fd_ >= 0) {
    (void)FsyncRetryEintr(fd_);  // clean shutdown: everything durable
    ::close(fd_);
    fd_ = -1;
  }
  cv_.notify_all();  // stray waiters observe "wal closed"
}

Status WalWriter::AppendLocked(std::string_view payload,
                               uint64_t* end_offset) {
  if (failed_.load(std::memory_order_relaxed)) {
    return Status::IOError("wal writer failed (latched): durability lost");
  }
  if (fd_ < 0) return Status::IOError("wal not open");
  const std::string frame = EncodeFrame(payload);
  const uint64_t start = appended_.load(std::memory_order_relaxed);
  if (util::FailpointFires("wal_append")) {
    return Status::IOError("wal append failed (injected)");
  }
  size_t to_write = frame.size();
  if (util::FailpointEval("wal_append_partial") ==
      util::FailpointAction::kCrash) {
    // Torn-record injection: half a frame reaches the file, then the
    // process dies. Recovery must stop at `start`.
    (void)!::write(fd_, frame.data(), frame.size() / 2);
    std::_Exit(util::kFailpointCrashExit);
  }
  const char* p = frame.data();
  while (to_write > 0) {
    const ssize_t w = ::write(fd_, p, to_write);
    if (w < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      // Rewind any partial frame so the log stays well-formed for the
      // NEXT record — without this, everything appended after us would
      // sit beyond a torn frame and be unreachable to recovery.
      if (to_write != frame.size() &&
          ::ftruncate(fd_, static_cast<off_t>(start)) != 0) {
        failed_.store(true, std::memory_order_relaxed);
        return Status::IOError(
            "wal append failed and rewind failed: durability lost");
      }
      return IoError("wal append", err);
    }
    p += w;
    to_write -= static_cast<size_t>(w);
  }
  const uint64_t end = start + frame.size();
  appended_.store(end, std::memory_order_release);
  records_++;
  *end_offset = end;
  cv_.notify_all();  // wake a dwelling fsync leader
  return Status::OK();
}

Status WalWriter::Append(std::string_view payload, uint64_t* end_offset) {
  std::unique_lock<std::mutex> l(mu_);
  return AppendLocked(payload, end_offset);
}

Status WalWriter::Sync(uint64_t end_offset, uint32_t batch_target,
                       uint32_t max_wait_us) {
  std::unique_lock<std::mutex> l(mu_);
  uint64_t my_gen = err_gen_;
  bool posted = false;
  for (;;) {
    if (failed_.load(std::memory_order_relaxed)) {
      return Status::IOError("wal writer failed (latched): durability lost");
    }
    if (durable_.load(std::memory_order_relaxed) >= end_offset) {
      return Status::OK();  // a previous round's fsync covered us
    }
    if (my_gen != err_gen_) {
      // A round failed while we waited. If its attempted fsync covered
      // our offset, our data is not durable and the error is ours too;
      // otherwise re-post and let a fresh round retry.
      if (posted && end_offset <= err_upto_) return err_status_;
      my_gen = err_gen_;
    }
    if (!syncer_running_) return Status::IOError("wal closed");
    // (Re)post the request. The dwell shape is the min() over the
    // round's requesters, so one kAlways committer (batch 1, no wait)
    // collapses the whole round to an immediate fsync — batching can
    // only ever weaken toward stricter durability, never delay it.
    if (sync_req_ < end_offset) sync_req_ = end_offset;
    if (batch_target < req_batch_target_) req_batch_target_ = batch_target;
    if (max_wait_us < req_max_wait_us_) req_max_wait_us_ = max_wait_us;
    posted = true;
    cv_.notify_all();  // wake the syncer
    cv_.wait(l);
  }
}

void WalWriter::SyncerLoop() {
  std::unique_lock<std::mutex> l(mu_);
  while (!stop_syncer_) {
    if (failed_.load(std::memory_order_relaxed) || fd_ < 0 ||
        sync_req_ <= durable_.load(std::memory_order_relaxed)) {
      cv_.wait(l);
      continue;
    }
    // Pick up a round; posts that land after this shape the next one.
    const uint32_t batch_target =
        req_batch_target_ == UINT32_MAX ? 1 : req_batch_target_;
    const uint32_t max_wait_us =
        req_max_wait_us_ == UINT32_MAX ? 0 : req_max_wait_us_;
    req_batch_target_ = UINT32_MAX;
    req_max_wait_us_ = UINT32_MAX;
    // Dwell for stragglers: each append signals the cv, and the
    // deadline bounds the added latency. Requesters pass max_wait_us ==
    // 0 when no sibling commit is in flight (nothing to wait for) or in
    // kAlways mode.
    if (batch_target > 1 && max_wait_us > 0) {
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::microseconds(max_wait_us);
      while (!stop_syncer_ && records_ - synced_records_ < batch_target &&
             cv_.wait_until(l, deadline) != std::cv_status::timeout) {
      }
    }
    const uint64_t target = appended_.load(std::memory_order_relaxed);
    const uint64_t target_records = records_;
    const int fd = fd_;
    sync_in_progress_ = true;
    l.unlock();
    // Chaos site: each fire stalls the syncer 1ms with the gate closed —
    // committers park behind RegisterSyncWaiter and their commit-gate
    // deadline, not a worker thread, bounds the damage.
    while (util::FailpointFires("wal_fsync_stall")) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    int r = 0;
    if (util::FailpointFires("wal_fsync")) {
      r = -1;
      errno = EIO;
    } else if (fd < 0) {
      r = -1;
      errno = EBADF;
    } else {
      r = FsyncRetryEintr(fd);
    }
    const int err = errno;
    // Durable-but-unacknowledged crash window: data is on disk, no
    // caller has been told yet.
    if (r == 0) (void)util::FailpointFires("wal_after_fsync");
    l.lock();
    sync_in_progress_ = false;
    // Parked sessions are woken on success AND failure — a wake is only
    // permission to retry the commit; the retry re-runs the full
    // barrier.
    std::vector<util::WaitTokenPtr> wake;
    wake.swap(sync_waiters_);
    if (r != 0) {
      err_gen_++;
      err_upto_ = target;
      err_status_ = IoError("wal fsync", err);
      // Waiters covered by the attempt take the error and drop their
      // request; anything appended since stays posted for a retry.
      if (sync_req_ <= target) {
        sync_req_ = durable_.load(std::memory_order_relaxed);
      }
    } else {
      fsyncs_.fetch_add(1, std::memory_order_relaxed);
      if (target > durable_.load(std::memory_order_relaxed)) {
        durable_.store(target, std::memory_order_release);
      }
      if (target_records > synced_records_) synced_records_ = target_records;
    }
    l.unlock();
    cv_.notify_all();
    for (auto& t : wake) t->Signal();
    l.lock();
  }
  syncer_running_ = false;
  cv_.notify_all();  // stray waiters observe "wal closed"
}

bool WalWriter::RegisterSyncWaiter(util::WaitTokenPtr* token) {
  std::lock_guard<std::mutex> l(mu_);
  if (!sync_in_progress_) return false;
  *token = std::make_shared<util::WaitToken>();
  sync_waiters_.push_back(*token);
  return true;
}

Status WalWriter::AppendCommit(std::string_view payload, uint64_t seq,
                               WalFsyncMode mode, uint32_t batch_target,
                               uint32_t max_wait_us) {
  uint64_t end = 0;
  Status s = Append(payload, &end);
  if (!s.ok()) return s;  // nothing (durable) written: plain clean abort
  if (mode == WalFsyncMode::kOff) return Status::OK();
  s = Sync(end, mode == WalFsyncMode::kAlways ? 1 : batch_target,
           mode == WalFsyncMode::kAlways ? 0 : max_wait_us);
  if (s.ok()) return s;
  // The commit record is in the log but could not be made durable, and
  // the caller is about to abort the transaction: append AND sync an
  // abort mark so recovery can never replay a commit whose client saw
  // an error. (The failed fsync may still have persisted the record.)
  //
  // The mark gets a bounded retry with backoff before the writer gives
  // up: a single transient error here used to latch failed_ forever,
  // turning one hiccup into a permanently read-only engine even though
  // the very next attempt would have succeeded. Only when every attempt
  // fails is durability genuinely unpromisable and failed_ latches —
  // from then on no commit is acknowledged. Each attempt re-evaluates
  // the "wal_abort_mark" failpoint, so tests inject exactly k
  // consecutive faults via the arm-time repeat count.
  Status ms;
  for (uint32_t attempt = 0; attempt < kAbortMarkAttempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(
          kAbortMarkBackoffUs << (attempt - 1)));
    }
    uint64_t mark_end = 0;
    ms = util::FailpointFires("wal_abort_mark")
             ? Status::IOError("wal abort-mark append failed (injected)")
             : Append(EncodeAbortMark(seq), &mark_end);
    if (ms.ok()) ms = Sync(mark_end, 1, 0);
    if (ms.ok()) break;
    if (failed_.load(std::memory_order_relaxed)) break;  // rewind failed: hopeless
  }
  if (!ms.ok()) failed_.store(true, std::memory_order_relaxed);
  return s;
}

}  // namespace pgssi::wal
