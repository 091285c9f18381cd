#include "common/file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

namespace lstore {

namespace {

Status Error(const char* what, const std::string& path) {
  return Status::IOError(std::string(what) + " " + path + ": " +
                         std::strerror(errno));
}

std::string DirOf(const std::string& path) {
  size_t sep = path.find_last_of('/');
  return sep == std::string::npos ? "." : path.substr(0, sep);
}

Status Rename(const std::string& from, const std::string& to) {
  if (::rename(from.c_str(), to.c_str()) == 0) return Status::OK();
  if (errno == ENOENT && !FileExists(from)) {
    return Status::NotFound("rename source missing: " + from);
  }
  return Error("cannot rename", from + " -> " + to);
}

}  // namespace

File::File(File&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), path_(std::move(other.path_)) {}

File& File::operator=(File&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
  }
  return *this;
}

Status File::Open(const std::string& path, Mode mode) {
  Close();
  int flags = mode == Mode::kRead              ? O_RDONLY
              : mode == Mode::kReadWriteCreate ? O_RDWR | O_CREAT
                                               : O_RDWR | O_CREAT | O_TRUNC;
  fd_ = ::open(path.c_str(), flags | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    if (errno == ENOENT && mode == Mode::kRead) {
      return Status::NotFound("no such file: " + path);
    }
    return Error("cannot open", path);
  }
  path_ = path;
  return Status::OK();
}

Status File::OpenAnonymous(const std::string& dir) {
  Close();
  std::string name = dir + "/lstore_spill_XXXXXX";
  fd_ = ::mkstemp(name.data());
  if (fd_ < 0) return Error("cannot create temp file in", dir);
  ::unlink(name.c_str());
  path_ = name;
  return Status::OK();
}

void File::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

Status File::WriteAt(uint64_t offset, std::string_view bytes,
                     size_t* written) {
  size_t done = 0;
  Status s;
  while (done < bytes.size()) {
    ssize_t n = ::pwrite(fd_, bytes.data() + done, bytes.size() - done,
                         static_cast<off_t>(offset + done));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      if (n == 0) errno = ENOSPC;
      s = Error("short write to", path_);
      break;
    }
    done += static_cast<size_t>(n);
  }
  if (written != nullptr) *written = done;
  return s;
}

Status File::WriteZerosAt(uint64_t offset, size_t len, size_t* written) {
  static const char kZeros[4096] = {};
  constexpr size_t kPages = 64;  // one pwritev covers up to 256 KiB
  iovec iov[kPages];
  size_t done = 0;
  Status s;
  while (done < len) {
    const size_t chunk = std::min(len - done, kPages * sizeof(kZeros));
    int count = 0;
    for (size_t at = 0; at < chunk; at += sizeof(kZeros)) {
      iov[count++] = {const_cast<char*>(kZeros),
                      std::min(chunk - at, sizeof(kZeros))};
    }
    ssize_t n = ::pwritev(fd_, iov, count, static_cast<off_t>(offset + done));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      if (n == 0) errno = ENOSPC;
      s = Error("short write to", path_);
      break;
    }
    done += static_cast<size_t>(n);
  }
  if (written != nullptr) *written = done;
  return s;
}

Status File::ReadAt(uint64_t offset, size_t len, std::string* out) const {
  out->resize(len);
  size_t done = 0;
  while (done < len) {
    ssize_t n = ::pread(fd_, out->data() + done, len - done,
                        static_cast<off_t>(offset + done));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return Error("cannot read", path_);
    if (n == 0) {
      return Status::IOError("read past end of " + path_ + " at offset " +
                             std::to_string(offset + done));
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status File::Sync() {
  if (::fsync(fd_) != 0) return Error("cannot fsync", path_);
  return Status::OK();
}

Status File::SyncData() {
  if (::fdatasync(fd_) != 0) return Error("cannot fdatasync", path_);
  return Status::OK();
}

Status File::Truncate(uint64_t size) {
  if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
    return Error("cannot truncate", path_);
  }
  return Status::OK();
}

Status File::Size(uint64_t* size) const {
  struct ::stat st;
  if (::fstat(fd_, &st) != 0) return Error("cannot stat", path_);
  if (S_ISDIR(st.st_mode)) {
    errno = EISDIR;  // a directory's st_size is no byte length
    return Error("cannot size", path_);
  }
  *size = static_cast<uint64_t>(st.st_size);
  return Status::OK();
}

Status ReadFile(const std::string& path, std::string* out) {
  File f;
  uint64_t size = 0;
  LSTORE_RETURN_IF_ERROR(f.Open(path, File::Mode::kRead));
  LSTORE_RETURN_IF_ERROR(f.Size(&size));
  return f.ReadAt(0, size, out);
}

Status WriteFileAtomic(const std::string& path,
                       const std::function<Status(File&)>& fill,
                       File* published) {
  std::string tmp = path + ".tmp";
  File f;
  Status s = f.Open(tmp, File::Mode::kCreateTruncate);
  if (s.ok()) s = fill(f);
  if (s.ok()) s = f.Sync();
  if (s.ok()) s = Rename(tmp, path);
  if (!s.ok()) {
    f.Close();
    ::unlink(tmp.c_str());
    return s;
  }
  if (published != nullptr) *published = std::move(f);
  return SyncDir(DirOf(path));
}

Status RenameDurably(const std::string& from, const std::string& to) {
  LSTORE_RETURN_IF_ERROR(Rename(from, to));
  return SyncDir(DirOf(to));
}

Status SyncDir(const std::string& dir) {
  File d;
  Status s = d.Open(dir, File::Mode::kRead);
  if (!s.ok()) return Status::IOError("cannot open dir for fsync: " + dir);
  return d.Sync();
}

bool FileExists(const std::string& path, uint64_t* size) {
  struct ::stat st;
  if (::stat(path.c_str(), &st) != 0) return false;
  if (size != nullptr) *size = static_cast<uint64_t>(st.st_size);
  return true;
}

bool ParseDecimal(std::string_view digits, uint64_t* value) {
  if (digits.empty()) return false;
  uint64_t v = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
    const auto d = static_cast<uint64_t>(c - '0');
    if (v > (UINT64_MAX - d) / 10) return false;
    v = v * 10 + d;
  }
  *value = v;
  return true;
}

}  // namespace lstore
