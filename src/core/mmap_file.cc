#include "core/mmap_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace dmt::core {

namespace {

std::string Errno(const std::string& what, const std::string& path) {
  return what + " '" + path + "': " + std::strerror(errno);
}

}  // namespace

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    Reset();
    data_ = other.data_;
    size_ = other.size_;
    path_ = std::move(other.path_);
    other.data_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

void MappedFile::Reset() {
  if (data_ != nullptr) {
    ::munmap(const_cast<std::byte*>(data_), size_);
    data_ = nullptr;
  }
  size_ = 0;
}

Result<MappedFile> MappedFile::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IOError(Errno("cannot open", path));
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    Status status = Status::IOError(Errno("cannot stat", path));
    ::close(fd);
    return status;
  }
  if (!S_ISREG(st.st_mode)) {
    ::close(fd);
    return Status::IOError("not a regular file: '" + path + "'");
  }
  MappedFile file;
  file.path_ = path;
  file.size_ = static_cast<size_t>(st.st_size);
  if (file.size_ > 0) {
    void* addr = ::mmap(nullptr, file.size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (addr == MAP_FAILED) {
      Status status = Status::IOError(Errno("cannot mmap", path));
      ::close(fd);
      return status;
    }
    file.data_ = static_cast<const std::byte*>(addr);
  }
  // The mapping keeps the pages alive; the descriptor is not needed.
  ::close(fd);
  return file;
}

Status WriteFileParts(const std::string& path,
                      std::span<const std::span<const std::byte>> parts) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IOError("cannot create '" + tmp + "'");
    for (std::span<const std::byte> part : parts) {
      out.write(reinterpret_cast<const char*>(part.data()),
                static_cast<std::streamsize>(part.size()));
    }
    out.flush();
    if (!out) {
      out.close();
      std::remove(tmp.c_str());
      return Status::IOError("short write to '" + tmp + "'");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    Status status = Status::IOError(Errno("cannot rename into", path));
    std::remove(tmp.c_str());
    return status;
  }
  return Status::OK();
}

Status WriteFileBytes(const std::string& path,
                      std::span<const std::byte> bytes) {
  return WriteFileParts(path, {&bytes, 1});
}

Result<std::string> ReadFileString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::IOError("read failed on '" + path + "'");
  return buffer.str();
}

}  // namespace dmt::core
