#include "codec/file_sink.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/error.h"

namespace recode::codec {

namespace {

// Large enough that a container's small header and index puts cost no
// syscall each; a put that does not fit past a flush is written
// straight from the caller's bytes.
constexpr std::size_t kBufferBytes = 64 * 1024;

}  // namespace

FileSink::FileSink(const std::string& path)
    : path_(path), buffer_(std::make_unique_for_overwrite<char[]>(kBufferBytes)) {
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0666);
  if (fd_ < 0) fail("rcm: cannot open for write: " + path_);
  setp(buffer_.get(), buffer_.get() + kBufferBytes);
  try {
    pwrite_all(0, head_.data(), kHeadBytes);  // head_ is still all zero
  } catch (...) {
    ::close(fd_);
    throw;
  }
}

FileSink::~FileSink() {
  if (fd_ >= 0) ::close(fd_);
}

void FileSink::fail_write() const { fail("rcm: write failed: " + path_); }

void FileSink::pwrite_all(std::uint64_t at, const char* data,
                          std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::pwrite(fd_, data, size, static_cast<off_t>(at));
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_write();
    }
    at += static_cast<std::uint64_t>(n);
    data += n;
    size -= static_cast<std::size_t>(n);
  }
}

// Bytes aimed below kHeadBytes are held in head_ for finish().
void FileSink::write_at(std::uint64_t at, const char* data, std::size_t size) {
  if (at < kHeadBytes) {
    const std::size_t held = std::min<std::uint64_t>(size, kHeadBytes - at);
    std::memcpy(head_.data() + at, data, held);
    at += held;
    data += held;
    size -= held;
  }
  pwrite_all(at, data, size);
}

void FileSink::flush_buffer() {
  const auto size = static_cast<std::size_t>(pptr() - pbase());
  if (size == 0) return;
  write_at(written_, pbase(), size);
  written_ += size;
  setp(buffer_.get(), buffer_.get() + kBufferBytes);
}

FileSink::int_type FileSink::overflow(int_type ch) {
  flush_buffer();
  if (traits_type::eq_int_type(ch, traits_type::eof())) {
    return traits_type::not_eof(ch);
  }
  *pptr() = traits_type::to_char_type(ch);
  pbump(1);
  return ch;
}

std::streamsize FileSink::xsputn(const char* s, std::streamsize n) {
  if (n <= 0) return 0;  // an empty blob may come with a null pointer
  const auto size = static_cast<std::size_t>(n);
  if (size > static_cast<std::size_t>(epptr() - pptr())) {
    flush_buffer();
    if (size >= kBufferBytes) {
      write_at(written_, s, size);
      written_ += size;
      return n;
    }
  }
  std::memcpy(pptr(), s, size);
  pbump(static_cast<int>(size));
  return n;
}

FileSink::pos_type FileSink::seekoff(off_type off, std::ios_base::seekdir dir,
                                     std::ios_base::openmode which) {
  if (off != 0 || dir != std::ios_base::cur || !(which & std::ios_base::out)) {
    return pos_type(off_type(-1));
  }
  return pos_type(static_cast<off_type>(written_ + (pptr() - pbase())));
}

void FileSink::finish(std::uint64_t end) {
  flush_buffer();
  RECODE_CHECK(end == written_);
  struct stat st {};
  if (::ftruncate(fd_, static_cast<off_t>(end)) != 0 ||
      ::fstat(fd_, &st) != 0 || static_cast<std::uint64_t>(st.st_size) != end) {
    fail_write();
  }
  // The magic goes last: until now the file reads as invalid.
  pwrite_all(0, head_.data(), std::min<std::uint64_t>(end, kHeadBytes));
  const int fd = std::exchange(fd_, -1);
  if (::close(fd) != 0) fail_write();
}

}  // namespace recode::codec
