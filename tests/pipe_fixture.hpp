// `text` in a pipe, read back as /dev/fd/<read end>: a file that
// io::read_file cannot map, so the *_file readers take its buffered
// branch.  Fixtures stay under the 64 KiB pipe buffer, so the write never
// blocks; the path reads once.
#pragma once

#include <stdexcept>
#include <string>

#include <unistd.h>

class PipeFixture {
 public:
  explicit PipeFixture(const std::string& text) {
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("pipe() failed");
    const auto written = ::write(fds[1], text.data(), text.size());
    ::close(fds[1]);
    read_end_ = fds[0];
    path_ = "/dev/fd/" + std::to_string(read_end_);
    if (written != static_cast<ssize_t>(text.size()))
      throw std::runtime_error("short write into the pipe");
  }
  ~PipeFixture() { ::close(read_end_); }
  PipeFixture(const PipeFixture&) = delete;
  PipeFixture& operator=(const PipeFixture&) = delete;
  const std::string& path() const { return path_; }

 private:
  int read_end_ = -1;
  std::string path_;
};
