#include "wm/util/mmap_file.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define WM_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace wm::util {

MappedFile::~MappedFile() { reset(); }

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(other.data_), size_(other.size_), valid_(other.valid_) {
  other.data_ = nullptr;
  other.size_ = 0;
  other.valid_ = false;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    reset();
    data_ = other.data_;
    size_ = other.size_;
    valid_ = other.valid_;
    other.data_ = nullptr;
    other.size_ = 0;
    other.valid_ = false;
  }
  return *this;
}

void MappedFile::reset() noexcept {
#if WM_HAVE_MMAP
  if (data_ != nullptr) munmap(data_, size_);
#endif
  data_ = nullptr;
  size_ = 0;
  valid_ = false;
}

MappedFile MappedFile::open(const std::filesystem::path& path) {
  MappedFile mapped;
#if WM_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return mapped;
  struct stat st{};
  if (fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    ::close(fd);
    return mapped;
  }
  if (st.st_size == 0) {
    // mmap(0) is invalid; an empty file is simply a valid empty view.
    ::close(fd);
    mapped.valid_ = true;
    return mapped;
  }
  int flags = MAP_PRIVATE;
#ifdef MAP_POPULATE
  // Every consumer sweeps the whole file front to back, so the page
  // tables are filled in one kernel pass up front. For page-cache-
  // resident captures this is neutral, not a win: the kernel's
  // fault-around maps 16 pages per soft fault, so a front-to-back walk
  // takes the same few faults either way (174 for an 11 MB trace), and
  // map + walk + unmap costs about the same with or without the flag
  // (DESIGN.md §3.3).
  flags |= MAP_POPULATE;
#endif
  void* addr = mmap(nullptr, static_cast<std::size_t>(st.st_size), PROT_READ,
                    flags, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (addr == MAP_FAILED) return mapped;
#ifdef MADV_SEQUENTIAL
  // Capture parsing is one front-to-back sweep; let readahead run hot.
  madvise(addr, static_cast<std::size_t>(st.st_size), MADV_SEQUENTIAL);
#endif
  mapped.data_ = addr;
  mapped.size_ = static_cast<std::size_t>(st.st_size);
  mapped.valid_ = true;
#else
  (void)path;
#endif
  return mapped;
}

}  // namespace wm::util
