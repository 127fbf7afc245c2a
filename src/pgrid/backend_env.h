// Filesystem abstraction for the durable storage backend.
//
// The disk backend talks to storage exclusively through Env so that crash
// and fault behavior is testable: PosixEnv is the real thing, MemEnv is an
// in-memory filesystem that tracks which byte prefix of every file has
// been fsync'd and can "lose power" (SimulateCrash discards everything
// after the synced prefix) or start failing after a configurable number
// of mutating operations (the kill-point matrix in the crash tests).
#ifndef UNISTORE_PGRID_BACKEND_ENV_H_
#define UNISTORE_PGRID_BACKEND_ENV_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace unistore {
namespace pgrid {
namespace storage {

/// \brief Append-only writable file handle.
///
/// Durability contract: bytes are guaranteed on stable storage only after
/// a successful Sync(). Close() does not imply Sync().
class WritableFile {
 public:
  virtual ~WritableFile() = default;
  virtual Status Append(std::string_view data) = 0;
  virtual Status Sync() = 0;
  virtual Status Close() = 0;
};

/// Positioned reads from an immutable (or append-only) file.
class RandomAccessFile {
 public:
  virtual ~RandomAccessFile() = default;

  /// Reads up to `n` bytes at `offset` into `*out` (replaced, may come
  /// back shorter at end of file). Reading past EOF yields an empty
  /// string, not an error.
  virtual Status Read(uint64_t offset, size_t n, std::string* out) const = 0;
};

/// \brief Minimal filesystem surface the disk backend needs.
///
/// All paths are plain strings; the backend only ever uses one directory
/// level (`data_dir/<file>`). One Env may serve many LocalStores (the
/// peers of a simulated cluster share one).
class Env {
 public:
  virtual ~Env() = default;

  /// Creates `path` (and parents, for PosixEnv). Existing directory is OK.
  virtual Status CreateDir(const std::string& path) = 0;
  virtual bool FileExists(const std::string& path) = 0;
  virtual Result<std::vector<std::string>> ListDir(const std::string& path) = 0;
  virtual Result<uint64_t> FileSize(const std::string& path) = 0;

  /// Opens `path` for appending; `truncate` discards existing contents.
  virtual Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) = 0;
  virtual Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) = 0;

  virtual Status DeleteFile(const std::string& path) = 0;

  /// Atomically replaces `to` with `from` (the manifest rewrite commit
  /// point). Implementations must make the rename durable before
  /// returning.
  virtual Status RenameFile(const std::string& from,
                            const std::string& to) = 0;

  /// Process-wide POSIX environment.
  static Env* Default();
};

/// \brief In-memory Env with crash and fault simulation, for tests.
///
/// Every file tracks `synced`: the byte prefix guaranteed to survive a
/// crash. SimulateCrash() truncates every file to its synced prefix,
/// modeling power loss with unflushed page cache. Directory operations
/// (create, delete, rename) are modeled as immediately durable — a
/// simplification relative to POSIX (where the parent directory needs an
/// fsync), acceptable because PosixEnv syncs the parent directory at
/// those points.
///
/// Fault injection: `set_fail_after(n)` lets the next `n` mutating
/// operations (appends, syncs, file creates, deletes, renames) succeed
/// and fails every one after that. The first failing Append writes half
/// of its payload before failing — a torn write. Sweeping n across a
/// recorded workload visits every kill point once.
class MemEnv : public Env {
 public:
  MemEnv() = default;

  Status CreateDir(const std::string& path) override;
  bool FileExists(const std::string& path) override;
  Result<std::vector<std::string>> ListDir(const std::string& path) override;
  Result<uint64_t> FileSize(const std::string& path) override;
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override;
  Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override;
  Status DeleteFile(const std::string& path) override;
  Status RenameFile(const std::string& from, const std::string& to) override;

  /// Allows `n` more mutating operations, then fails all of them.
  /// Negative disables fault injection (the default).
  void set_fail_after(int64_t n);

  /// Total mutating operations performed so far (for sizing a kill-point
  /// sweep: run once without faults, then sweep 0..mutation_ops()).
  int64_t mutation_ops() const;

  /// Power loss: every file reverts to its synced prefix. Open handles
  /// must not be used afterwards (reopen through the Env instead). Also
  /// clears the fault budget so recovery runs on healthy "hardware".
  void SimulateCrash();

 private:
  friend class MemWritableFile;
  friend class MemRandomAccessFile;

  struct FileState {
    std::string data;
    size_t synced = 0;
  };

  // Returns OK and burns one op from the budget, or the injected error.
  // `torn` (may be null) is set when this op should half-apply.
  Status BeginMutation(bool* torn);

  std::map<std::string, std::shared_ptr<FileState>> files_;
  std::vector<std::string> dirs_;
  int64_t budget_ = -1;  // < 0: unlimited.
  bool failing_ = false;
  int64_t ops_ = 0;
};

}  // namespace storage
}  // namespace pgrid
}  // namespace unistore

#endif  // UNISTORE_PGRID_BACKEND_ENV_H_
