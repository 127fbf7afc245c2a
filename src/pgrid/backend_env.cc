#include "pgrid/backend_env.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace unistore {
namespace pgrid {
namespace storage {

namespace {

Status PosixError(const std::string& context, int err) {
  return Status::Unavailable(context, ": ",
                             static_cast<const char*>(std::strerror(err)));
}

std::string ParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

// fsync on the directory makes entry creation/removal/rename durable.
// Best effort: some filesystems reject directory fsync; the backend's
// manifest protocol tolerates a lost directory entry (it shows up as an
// orphan or a missing-manifest fresh start).
void SyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

class PosixWritableFile : public WritableFile {
 public:
  PosixWritableFile(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}

  ~PosixWritableFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Append(std::string_view data) override {
    const char* p = data.data();
    size_t left = data.size();
    while (left > 0) {
      const ssize_t n = ::write(fd_, p, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        return PosixError("write " + path_, errno);
      }
      p += n;
      left -= static_cast<size_t>(n);
    }
    return Status::OK();
  }

  Status Sync() override {
    if (::fsync(fd_) != 0) return PosixError("fsync " + path_, errno);
    if (!dir_synced_) {
      // First sync also pins the directory entry of a freshly created
      // file.
      SyncDir(ParentDir(path_));
      dir_synced_ = true;
    }
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    const int rc = ::close(fd_);
    fd_ = -1;
    if (rc != 0) return PosixError("close " + path_, errno);
    return Status::OK();
  }

 private:
  int fd_;
  std::string path_;
  bool dir_synced_ = false;
};

class PosixRandomAccessFile : public RandomAccessFile {
 public:
  PosixRandomAccessFile(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}

  ~PosixRandomAccessFile() override { ::close(fd_); }

  Status Read(uint64_t offset, size_t n, std::string* out) const override {
    out->resize(n);
    size_t got = 0;
    while (got < n) {
      const ssize_t r = ::pread(fd_, out->data() + got, n - got,
                                static_cast<off_t>(offset + got));
      if (r < 0) {
        if (errno == EINTR) continue;
        return PosixError("pread " + path_, errno);
      }
      if (r == 0) break;  // EOF.
      got += static_cast<size_t>(r);
    }
    out->resize(got);
    return Status::OK();
  }

 private:
  int fd_;
  std::string path_;
};

class PosixEnv : public Env {
 public:
  Status CreateDir(const std::string& path) override {
    // mkdir -p: create each prefix segment, tolerating existing dirs.
    for (size_t i = 1; i <= path.size(); ++i) {
      if (i != path.size() && path[i] != '/') continue;
      const std::string prefix = path.substr(0, i);
      if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
        return PosixError("mkdir " + prefix, errno);
      }
    }
    return Status::OK();
  }

  bool FileExists(const std::string& path) override {
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
  }

  Result<std::vector<std::string>> ListDir(const std::string& path) override {
    DIR* d = ::opendir(path.c_str());
    if (d == nullptr) return PosixError("opendir " + path, errno);
    std::vector<std::string> names;
    while (struct dirent* entry = ::readdir(d)) {
      const std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      names.push_back(name);
    }
    ::closedir(d);
    std::sort(names.begin(), names.end());
    return names;
  }

  Result<uint64_t> FileSize(const std::string& path) override {
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) {
      return PosixError("stat " + path, errno);
    }
    return static_cast<uint64_t>(st.st_size);
  }

  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override {
    const int flags = O_WRONLY | O_CREAT | (truncate ? O_TRUNC : O_APPEND);
    const int fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0) return PosixError("open " + path, errno);
    return std::unique_ptr<WritableFile>(
        std::make_unique<PosixWritableFile>(fd, path));
  }

  Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return PosixError("open " + path, errno);
    return std::unique_ptr<RandomAccessFile>(
        std::make_unique<PosixRandomAccessFile>(fd, path));
  }

  Status DeleteFile(const std::string& path) override {
    if (::unlink(path.c_str()) != 0) {
      return PosixError("unlink " + path, errno);
    }
    SyncDir(ParentDir(path));
    return Status::OK();
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      return PosixError("rename " + from + " -> " + to, errno);
    }
    SyncDir(ParentDir(to));
    return Status::OK();
  }
};

}  // namespace

Env* Env::Default() {
  static PosixEnv* env = new PosixEnv();
  return env;
}

// ---------------------------------------------------------------------------
// MemEnv

class MemWritableFile : public WritableFile {
 public:
  MemWritableFile(MemEnv* env, std::shared_ptr<MemEnv::FileState> file)
      : env_(env), file_(std::move(file)) {}

  Status Append(std::string_view data) override {
    bool torn = false;
    Status injected = env_->BeginMutation(&torn);
    if (!injected.ok()) {
      if (torn) file_->data.append(data.data(), data.size() / 2);
      return injected;
    }
    file_->data.append(data.data(), data.size());
    return Status::OK();
  }

  Status Sync() override {
    Status injected = env_->BeginMutation(nullptr);
    if (!injected.ok()) return injected;
    file_->synced = file_->data.size();
    return Status::OK();
  }

  Status Close() override { return Status::OK(); }

 private:
  MemEnv* env_;
  std::shared_ptr<MemEnv::FileState> file_;
};

class MemRandomAccessFile : public RandomAccessFile {
 public:
  explicit MemRandomAccessFile(std::shared_ptr<MemEnv::FileState> file)
      : file_(std::move(file)) {}

  Status Read(uint64_t offset, size_t n, std::string* out) const override {
    out->clear();
    if (offset >= file_->data.size()) return Status::OK();
    const size_t avail = file_->data.size() - static_cast<size_t>(offset);
    out->assign(file_->data, static_cast<size_t>(offset), std::min(n, avail));
    return Status::OK();
  }

 private:
  std::shared_ptr<MemEnv::FileState> file_;
};

Status MemEnv::BeginMutation(bool* torn) {
  if (torn != nullptr) *torn = false;
  if (failing_) return Status::Unavailable("memenv: injected fault");
  if (budget_ >= 0 && ops_ >= budget_) {
    failing_ = true;
    // The op that trips the budget half-applies when the caller supports
    // tearing (appends), modeling a write interrupted by power loss.
    if (torn != nullptr) *torn = true;
    return Status::Unavailable("memenv: injected fault");
  }
  ++ops_;
  return Status::OK();
}

Status MemEnv::CreateDir(const std::string& path) {
  if (std::find(dirs_.begin(), dirs_.end(), path) == dirs_.end()) {
    dirs_.push_back(path);
  }
  return Status::OK();
}

bool MemEnv::FileExists(const std::string& path) {
  return files_.count(path) > 0;
}

Result<std::vector<std::string>> MemEnv::ListDir(const std::string& path) {
  std::vector<std::string> names;
  const std::string prefix = path + "/";
  for (const auto& [full, state] : files_) {
    if (full.size() <= prefix.size() || full.compare(0, prefix.size(), prefix))
      continue;
    const std::string rest = full.substr(prefix.size());
    if (rest.find('/') == std::string::npos) names.push_back(rest);
  }
  return names;
}

Result<uint64_t> MemEnv::FileSize(const std::string& path) {
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("memenv: ", path);
  return static_cast<uint64_t>(it->second->data.size());
}

Result<std::unique_ptr<WritableFile>> MemEnv::NewWritableFile(
    const std::string& path, bool truncate) {
  auto it = files_.find(path);
  const bool mutates = truncate || it == files_.end();
  if (mutates) {
    Status injected = BeginMutation(nullptr);
    if (!injected.ok()) return injected;
  }
  std::shared_ptr<FileState> file;
  if (it == files_.end()) {
    file = std::make_shared<FileState>();
    files_[path] = file;
  } else {
    file = it->second;
    if (truncate) {
      file->data.clear();
      file->synced = 0;
    }
  }
  return std::unique_ptr<WritableFile>(
      std::make_unique<MemWritableFile>(this, std::move(file)));
}

Result<std::unique_ptr<RandomAccessFile>> MemEnv::NewRandomAccessFile(
    const std::string& path) {
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("memenv: ", path);
  return std::unique_ptr<RandomAccessFile>(
      std::make_unique<MemRandomAccessFile>(it->second));
}

Status MemEnv::DeleteFile(const std::string& path) {
  Status injected = BeginMutation(nullptr);
  if (!injected.ok()) return injected;
  if (files_.erase(path) == 0) return Status::NotFound("memenv: ", path);
  return Status::OK();
}

Status MemEnv::RenameFile(const std::string& from, const std::string& to) {
  Status injected = BeginMutation(nullptr);
  if (!injected.ok()) return injected;
  auto it = files_.find(from);
  if (it == files_.end()) return Status::NotFound("memenv: ", from);
  // Renames are modeled as atomic and immediately durable (see header).
  std::shared_ptr<FileState> file = it->second;
  file->synced = file->data.size();
  files_.erase(it);
  files_[to] = std::move(file);
  return Status::OK();
}

void MemEnv::set_fail_after(int64_t n) {
  budget_ = n < 0 ? -1 : ops_ + n;
  failing_ = false;
}

int64_t MemEnv::mutation_ops() const {
  return ops_;
}

void MemEnv::SimulateCrash() {
  for (auto& [path, file] : files_) {
    if (file->data.size() > file->synced) file->data.resize(file->synced);
  }
  budget_ = -1;
  failing_ = false;
}

}  // namespace storage
}  // namespace pgrid
}  // namespace unistore
