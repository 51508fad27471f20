#include "serve/transport.hpp"

#include <cerrno>
#include <cstring>
#include <istream>
#include <ostream>

#include <poll.h>
#include <sys/ioctl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace mobsrv::serve {

namespace {

/// Blocks until \p fd is ready for \p events; false (with errno set) if a
/// signal or an error cut the wait short.
bool wait_ready(int fd, short events) {
  pollfd p{fd, events, 0};
  return ::poll(&p, 1, -1) > 0;
}

}  // namespace

FdInBuf::FdInBuf(int fd) : fd_(fd), end_(buf_) {
  struct stat st{};
  paced_ = ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode);
  setg(buf_, buf_, buf_);
}

FdInBuf::int_type FdInBuf::underflow() {
  if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
  if (egptr() == end_) {
    // A non-blocking fd inherited from the parent waits like a blocking
    // one. Any other failure, EINTR included, ends the input: a signal
    // means the stop flag is up, and Service::run checks it next.
    ssize_t n = ::read(fd_, buf_, sizeof(buf_));
    while (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK) && wait_ready(fd_, POLLIN))
      n = ::read(fd_, buf_, sizeof(buf_));
    if (n <= 0) return traits_type::eof();
    end_ = buf_ + n;
    setg(buf_, buf_, buf_);
  }
  char* stop = end_;
  if (paced_) {
    const auto left = static_cast<std::size_t>(end_ - egptr());
    if (void* newline = std::memchr(egptr(), '\n', left)) stop = static_cast<char*>(newline) + 1;
  }
  setg(buf_, egptr(), stop);
  return traits_type::to_int_type(*gptr());
}

std::streamsize FdInBuf::showmanyc() {
  if (paced_) return 0;
  int pending = 0;
  if (::ioctl(fd_, FIONREAD, &pending) == 0 && pending > 0) return pending;
  return 0;
}

FdOutBuf::FdOutBuf(int fd) : fd_(fd) { setp(buf_, buf_ + sizeof(buf_)); }

FdOutBuf::int_type FdOutBuf::overflow(int_type ch) {
  if (flush() != 0) return traits_type::eof();
  if (!traits_type::eq_int_type(ch, traits_type::eof())) {
    *pptr() = traits_type::to_char_type(ch);
    pbump(1);
  }
  return traits_type::not_eof(ch);
}

int FdOutBuf::sync() { return flush(); }

int FdOutBuf::flush() {
  if (error_ != 0) return -1;
  const char* p = pbase();
  while (p < pptr()) {
    const ssize_t n = ::write(fd_, p, static_cast<std::size_t>(pptr() - p));
    if (n >= 0) {
      p += n;
      continue;
    }
    // Replies still owed are written out whatever signal arrives (a stop
    // request drains and says `bye` through this same buffer).
    if (errno == EINTR) continue;
    if ((errno == EAGAIN || errno == EWOULDBLOCK) && (wait_ready(fd_, POLLOUT) || errno == EINTR))
      continue;
    error_ = errno;
    return -1;
  }
  setp(buf_, buf_ + sizeof(buf_));
  return 0;
}

ExitReason serve_fds(Service& service, int in_fd, int out_fd) {
  FdInBuf inbuf(in_fd);
  FdOutBuf outbuf(out_fd);
  std::istream in(&inbuf);
  std::ostream out(&outbuf);
  const ExitReason reason = service.run(in, out);
  out.flush();  // a `kill` returns without the final flush
  return reason;
}

}  // namespace mobsrv::serve
