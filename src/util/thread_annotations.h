// Clang thread-safety annotations and an annotated mutex wrapper.
//
// The locking discipline of the concurrent layers (one mutex per shard in
// ShardedDenseFile, one per buffer pool and metrics registry) is enforced
// at compile time by Clang's -Wthread-safety analysis. Under GCC, or under
// Clang without the capability attributes, every macro expands to nothing
// and dsf::Mutex degrades to a plain std::mutex wrapper with identical
// runtime behavior — the annotations are a zero-cost contract.
//
// libstdc++'s std::mutex carries no capability attributes, so analyzable
// code must hold its lock through dsf::Mutex / dsf::MutexLock below (this
// is also what the project linter's no-naked-mutex rule checks; see
// scripts/run_static_analysis.sh). The DSF_ANALYZE CMake mode turns the
// analysis on as an error: a GUARDED_BY field touched without its mutex,
// or a REQUIRES function called without the capability, fails the build.

#ifndef DSF_UTIL_THREAD_ANNOTATIONS_H_
#define DSF_UTIL_THREAD_ANNOTATIONS_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "util/deadlock.h"

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define DSF_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef DSF_THREAD_ANNOTATION
#define DSF_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

// A type that acts as a lock (Clang calls these "capabilities").
#define DSF_CAPABILITY(name) DSF_THREAD_ANNOTATION(capability(name))
// RAII types that acquire on construction and release on destruction.
#define DSF_SCOPED_CAPABILITY DSF_THREAD_ANNOTATION(scoped_lockable)
// Field/variable may only be touched while holding `mu`.
#define DSF_GUARDED_BY(mu) DSF_THREAD_ANNOTATION(guarded_by(mu))
// Pointed-to data (not the pointer itself) is guarded by `mu`.
#define DSF_PT_GUARDED_BY(mu) DSF_THREAD_ANNOTATION(pt_guarded_by(mu))
// Function requires the capability held on entry (and does not release).
#define DSF_REQUIRES(...) \
  DSF_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
// Function must NOT be called with the capability held (deadlock guard).
#define DSF_EXCLUDES(...) DSF_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
// Function acquires / releases the capability.
#define DSF_ACQUIRE(...) \
  DSF_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define DSF_RELEASE(...) \
  DSF_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define DSF_TRY_ACQUIRE(...) \
  DSF_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
// Shared (reader) forms of the acquire/release/try annotations.
#define DSF_ACQUIRE_SHARED(...) \
  DSF_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define DSF_RELEASE_SHARED(...) \
  DSF_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define DSF_TRY_ACQUIRE_SHARED(...) \
  DSF_THREAD_ANNOTATION(try_acquire_shared_capability(__VA_ARGS__))
// Returns a reference to the capability guarding this object.
#define DSF_RETURN_CAPABILITY(x) DSF_THREAD_ANNOTATION(lock_returned(x))
// Escape hatch: the function's locking cannot be expressed statically.
#define DSF_NO_THREAD_SAFETY_ANALYSIS \
  DSF_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace dsf {

// std::mutex with capability attributes. Same size and cost; exists only
// because the analysis needs the attribute on the lock type itself.
// Both lock types report acquisitions to the runtime lock-order detector
// (util/deadlock.h) when it is enabled: one relaxed load and a predicted
// branch per operation otherwise. NoteAcquire runs *before* blocking so
// an actual deadlock is still diagnosed, and TryLock reports only on
// success (a failed try holds nothing and orders nothing).
class DSF_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  ~Mutex() { deadlock::NoteDestroy(this); }
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() DSF_ACQUIRE() {
    deadlock::NoteAcquire(this);
    mu_.lock();
  }
  void Unlock() DSF_RELEASE() {
    deadlock::NoteRelease(this);
    mu_.unlock();
  }
  bool TryLock() DSF_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    deadlock::NoteAcquire(this);
    return true;
  }

 private:
  std::mutex mu_;
};

// std::lock_guard over dsf::Mutex, visible to the analysis.
class DSF_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) DSF_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() DSF_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// Reader-preference reader-writer lock with capability attributes: many
// readers or one writer. Exclusive acquisition mirrors Mutex
// (Lock/Unlock/TryLock); readers take the shared side
// (ReaderLock/ReaderUnlock/ReaderTryLock).
//
// NOT std::shared_mutex, whose admission policy is unspecified: on a
// read-mostly shard it may leave a writer behind an endless reader
// stream, or admit readers one at a time behind queued writers. This
// lock batches: a waiting writer gates NEW readers, drains the in-flight
// ones (bounded by one command's shared hold), takes its exclusive turn,
// and on release wakes the entire queued reader batch together — so a
// write stream costs one drain-plus-hold window per write, not a
// per-reader admission collapse, and between writer turns readers are
// admitted continuously. Reader-preference (admit readers whenever no
// writer *holds*) does not fit either: a writer then needs a
// spontaneous all-readers-idle instant to enter, which a busy read
// stream essentially never produces, and the clients convoy behind
// their own stalled writes. Writers queue FIFO-ish via notify_one;
// sustained write floods can starve readers, which a 90/10 shard never
// sees — and each blocked reader is a client thread that stopped
// feeding the flood.
class DSF_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  ~SharedMutex() { deadlock::NoteDestroy(this); }
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() DSF_ACQUIRE() {
    // Shared and exclusive holds report to the same detector node:
    // readers block behind waiting writers here, so reader acquisitions
    // participate in deadlock cycles like any exclusive hold.
    deadlock::NoteAcquire(this);
    std::unique_lock<std::mutex> lock(mu_);
    ++waiting_writers_;
    writer_cv_.wait(lock,
                    [this] { return !writer_active_ && readers_ == 0; });
    --waiting_writers_;
    writer_active_ = true;
  }
  void Unlock() DSF_RELEASE() {
    deadlock::NoteRelease(this);
    bool more_writers = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      writer_active_ = false;
      more_writers = waiting_writers_ != 0;
    }
    if (more_writers) {
      // Hand off to the next queued writer; gated readers keep waiting
      // and will be released as one batch after the last writer leaves.
      writer_cv_.notify_one();
    } else {
      readers_cv_.notify_all();
    }
  }
  bool TryLock() DSF_TRY_ACQUIRE(true) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (writer_active_ || readers_ != 0) return false;
      writer_active_ = true;
    }
    deadlock::NoteAcquire(this);
    return true;
  }

  void ReaderLock() DSF_ACQUIRE_SHARED() {
    deadlock::NoteAcquire(this);
    std::unique_lock<std::mutex> lock(mu_);
    readers_cv_.wait(
        lock, [this] { return !writer_active_ && waiting_writers_ == 0; });
    ++readers_;
  }
  void ReaderUnlock() DSF_RELEASE_SHARED() {
    deadlock::NoteRelease(this);
    bool wake_writer = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      wake_writer = --readers_ == 0 && waiting_writers_ != 0;
    }
    if (wake_writer) writer_cv_.notify_one();
  }
  bool ReaderTryLock() DSF_TRY_ACQUIRE_SHARED(true) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (writer_active_ || waiting_writers_ != 0) return false;
      ++readers_;
    }
    deadlock::NoteAcquire(this);
    return true;
  }

 private:
  std::mutex mu_;
  std::condition_variable readers_cv_;
  std::condition_variable writer_cv_;
  int64_t readers_ = 0;
  int64_t waiting_writers_ = 0;
  bool writer_active_ = false;
};

// Scoped exclusive hold of a SharedMutex (the writer side).
class DSF_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) DSF_ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~WriterMutexLock() DSF_RELEASE() { mu_.Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

// Scoped shared hold of a SharedMutex (the reader side).
class DSF_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) DSF_ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_.ReaderLock();
  }
  ~ReaderMutexLock() DSF_RELEASE_SHARED() { mu_.ReaderUnlock(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

}  // namespace dsf

#endif  // DSF_UTIL_THREAD_ANNOTATIONS_H_
