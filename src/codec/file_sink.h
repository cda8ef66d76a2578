// The one way a container reaches its file: an ostream buffer that
// rewrites the file in place. write_compressed_file (container.h) and
// write_compressed_stream (container_writer.h) both write through it, so
// the header, record and index writers keep their one std::ostream path
// and tellp() keeps working.
//
// Why in place: truncating the old file on open makes the filesystem
// free every block and the page cache allocate every page again, and
// ext4 flushes a file truncated to zero when it is closed. Rewriting the
// same bytes in place and trimming the tail once at the end avoids all
// three.
//
// Why magic last: the file is opened without O_TRUNC, so until the write
// finishes it holds a mix of old and new bytes. Opening zeroes the first
// kHeadBytes bytes (the container magic), bytes aimed at them are held
// back, and finish() writes them only after every other byte is out and
// the file is trimmed. A write that fails, or a process that dies
// mid-write, therefore leaves a file every reader rejects with
// "rcm: bad magic". Durability after power loss would need an fsync,
// which this does not do.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <streambuf>
#include <string>

namespace recode::codec {

class FileSink final : public std::streambuf {
 public:
  // Opens (creating, never truncating) `path` and zeroes its head.
  // Throws recode::Error "rcm: cannot open for write: <path>" or
  // "rcm: write failed: <path>".
  explicit FileSink(const std::string& path);
  // Closes without finishing: the head stays zero.
  ~FileSink() override;
  FileSink(const FileSink&) = delete;
  FileSink& operator=(const FileSink&) = delete;

  // Writes out the buffered bytes, trims the file to `end` (which must be
  // the count of bytes put), checks its size, writes the held head bytes
  // and closes the file, checking the close. Throws recode::Error
  // "rcm: write failed: <path>".
  void finish(std::uint64_t end);

 protected:
  // Every write failure throws recode::Error; an ostream with badbit in
  // exceptions() passes it to its caller unchanged.
  int_type overflow(int_type ch) override;
  std::streamsize xsputn(const char* s, std::streamsize n) override;
  // Only the position query tellp() makes: (0, cur, out).
  pos_type seekoff(off_type off, std::ios_base::seekdir dir,
                   std::ios_base::openmode which) override;

 private:
  static constexpr std::size_t kHeadBytes = 4;  // the container magic

  void flush_buffer();
  void write_at(std::uint64_t at, const char* data, std::size_t size);
  void pwrite_all(std::uint64_t at, const char* data, std::size_t size);
  [[noreturn]] void fail_write() const;

  std::string path_;
  int fd_ = -1;
  std::uint64_t written_ = 0;  // file offset of pbase()
  std::array<char, kHeadBytes> head_{};
  std::unique_ptr<char[]> buffer_;
};

}  // namespace recode::codec
