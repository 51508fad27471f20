/// \file transport.hpp
/// The fd transport every mobsrv_serve connection runs through.
///
/// stdin/stdout, a TCP connection and a Unix-socket connection are all a
/// pair of file descriptors, so one function, serve_fds(), drives
/// Service::run over any of them with the same intake rule: read while the
/// kernel already holds more input, pump the multiplexer and flush when the
/// input pauses (docs/SERVICE.md §2). FdInBuf answers "is more input
/// already here?" from FIONREAD. A stdio stream cannot: its in_avail() is
/// always 0, which would pump and write after every line.
///
/// A regular file is the one input with no live client behind it: FIONREAD
/// there reports the bytes left in the file, and reading it as one burst
/// would bounce a long single-tenant script with `busy` frames. FdInBuf
/// therefore paces a regular file one line at a time (in_avail() is 0 at
/// every line end), which keeps `mobsrv_serve < session.ndjson` exactly as
/// it always was.
#pragma once

#include <cstddef>
#include <streambuf>

#include "serve/service.hpp"

namespace mobsrv::serve {

/// Read side of an fd. in_avail() counts the bytes already read but not
/// consumed, then what FIONREAD says the kernel holds; on a regular file it
/// exposes one line at a time and reports nothing beyond it.
class FdInBuf : public std::streambuf {
 public:
  explicit FdInBuf(int fd);

 protected:
  int_type underflow() override;
  std::streamsize showmanyc() override;

 private:
  int fd_;
  bool paced_;  ///< a regular file: one line at a time
  char* end_;  ///< end of the bytes read; past egptr() while a file is paced
  char buf_[1 << 16];
};

/// Write side of an fd; writes out on sync() (the service flushes whenever
/// it goes back to waiting for input) and when the buffer fills. A write
/// that fails leaves the stream bad and the errno in error() — EPIPE once
/// the peer has hung up (with SIGPIPE ignored).
class FdOutBuf : public std::streambuf {
 public:
  explicit FdOutBuf(int fd);

  /// errno of the first failed write, 0 while every write has succeeded.
  [[nodiscard]] int error() const noexcept { return error_; }

 protected:
  int_type overflow(int_type ch) override;
  int sync() override;

 private:
  int flush();

  int fd_;
  int error_ = 0;
  char buf_[1 << 16];
};

/// Runs \p service over input fd \p in_fd and output fd \p out_fd (the same
/// fd for a socket; 0 and 1 for stdin/stdout) and returns why it stopped.
/// Neither fd is closed.
ExitReason serve_fds(Service& service, int in_fd, int out_fd);

}  // namespace mobsrv::serve
