// Read-only memory-mapped files plus the small write helpers the binary
// container format builds on. All operations report failures through
// core::Status — a malformed or unreadable file must never crash the
// library.
#ifndef DMT_CORE_MMAP_FILE_H_
#define DMT_CORE_MMAP_FILE_H_

#include <cstddef>
#include <span>
#include <string>
#include <utility>

#include "core/status.h"

namespace dmt::core {

/// RAII read-only mapping of a whole file. Move-only; the mapping is
/// released on destruction. A default-constructed instance maps nothing.
/// Empty files are valid (size() == 0, data() == nullptr) — mmap of a
/// zero-length range is not attempted.
class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile() { Reset(); }

  MappedFile(MappedFile&& other) noexcept { *this = std::move(other); }
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// Maps `path` read-only. IOError when the file cannot be opened,
  /// stat'ed, or mapped.
  static Result<MappedFile> Open(const std::string& path);

  const std::byte* data() const { return data_; }
  size_t size() const { return size_; }
  std::span<const std::byte> bytes() const { return {data_, size_}; }
  const std::string& path() const { return path_; }

 private:
  void Reset();

  const std::byte* data_ = nullptr;
  size_t size_ = 0;
  std::string path_;
};

/// Writes the concatenation of `parts` to `path`, replacing any existing
/// file, without first joining them in memory. The write goes through a
/// same-directory temporary that is renamed into place, so readers never
/// observe a half-written container.
Status WriteFileParts(const std::string& path,
                      std::span<const std::span<const std::byte>> parts);

/// WriteFileParts with one part.
Status WriteFileBytes(const std::string& path,
                      std::span<const std::byte> bytes);

/// Reads a whole file into a string. IOError on open/read failure.
Result<std::string> ReadFileString(const std::string& path);

}  // namespace dmt::core

#endif  // DMT_CORE_MMAP_FILE_H_
