#include "src/support/binary_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>

namespace dcpi {

namespace {

std::atomic<FaultInjectingEnv*> g_fault_env{nullptr};

// fsync the directory containing `path` so a completed rename survives
// power loss. Best-effort: some filesystems reject directory fsync.
void SyncParentDir(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

}  // namespace

FaultInjectingEnv* SetFaultInjectingEnv(FaultInjectingEnv* env) {
  return g_fault_env.exchange(env, std::memory_order_acq_rel);
}

Status WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return IoError("cannot open for write: " + path);
  size_t written = bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), f);
  int close_rc = std::fclose(f);
  if (written != bytes.size() || close_rc != 0) {
    return IoError("short write: " + path);
  }
  return Status::Ok();
}

Status WriteFileAtomic(const std::string& path, const std::vector<uint8_t>& bytes) {
  FaultInjectingEnv* env = g_fault_env.load(std::memory_order_acquire);
  WriteFault fault = env != nullptr ? env->OnWrite() : WriteFault::kNone;
  if (fault == WriteFault::kFailWrite) {
    return IoError("injected write failure: " + path);
  }

  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return IoError("cannot open for write: " + tmp);

  size_t to_write = bytes.size();
  if (fault == WriteFault::kTruncatedTemp) to_write /= 2;
  size_t written = to_write == 0 ? 0 : std::fwrite(bytes.data(), 1, to_write, f);
  if (fault == WriteFault::kTruncatedTemp) {
    // Simulated process death mid-write: the partial temp stays on disk and
    // the final file is never touched.
    std::fclose(f);
    return IoError("injected crash: truncated temp for " + path);
  }
  if (written != to_write || std::fflush(f) != 0 || ::fsync(fileno(f)) != 0) {
    std::fclose(f);
    std::remove(tmp.c_str());
    return IoError("short write: " + tmp);
  }
  if (std::fclose(f) != 0) {
    std::remove(tmp.c_str());
    return IoError("cannot close: " + tmp);
  }
  if (fault == WriteFault::kCrashBeforeRename) {
    // Simulated process death with a fully durable temp whose rename never
    // happened; recovery must treat it as in-flight.
    return IoError("injected crash before rename: " + path);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return IoError("cannot rename into place: " + path);
  }
  SyncParentDir(path);
  return Status::Ok();
}

Status ReadFile(const std::string& path, std::vector<uint8_t>* bytes,
                size_t max_bytes) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return IoError("cannot open for read: " + path);
  // A directory opens for reading too, and its size means nothing.
  struct stat st {};
  if (::fstat(fileno(f), &st) != 0) {
    std::fclose(f);
    return IoError("cannot stat: " + path);
  }
  if (!S_ISREG(st.st_mode)) {
    std::fclose(f);
    return IoError("not a regular file: " + path);
  }
  const auto size = static_cast<uint64_t>(st.st_size);
  if (size > max_bytes) {
    std::fclose(f);
    return IoError("file too large (" + std::to_string(size) + " bytes): " + path);
  }
  bytes->resize(static_cast<size_t>(size));
  size_t read = size == 0 ? 0 : std::fread(bytes->data(), 1, bytes->size(), f);
  std::fclose(f);
  if (read != bytes->size()) return IoError("short read: " + path);
  return Status::Ok();
}

}  // namespace dcpi
