// Tests for the fd transport under mobsrv_serve (serve/transport.hpp):
//   * a pipe filled before the run serves byte-identically to the same
//     script over an istringstream (one intake rule for every transport);
//   * a regular file is paced one line at a time and matches the golden
//     output of the stdio transport it replaced;
//   * a frame split across two read(2) calls is joined;
//   * in_avail() follows FIONREAD on a pipe and is 0 at every line end of a
//     regular file;
//   * FdOutBuf delivers every byte through a full pipe (short writes) and
//     reports EPIPE once the reader is gone;
//   * Service::run drains and saves when its output goes bad.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include <fcntl.h>
#include <unistd.h>

#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "serve/transport.hpp"

namespace mobsrv {
namespace {

namespace fs = std::filesystem;
using serve::ExitReason;
using serve::FdInBuf;
using serve::FdOutBuf;
using serve::Service;
using serve::ServiceOptions;

struct Pipe {
  int read = -1;
  int write = -1;
  Pipe() {
    int fds[2];
    if (::pipe(fds) == 0) {
      read = fds[0];
      write = fds[1];
    }
  }
  ~Pipe() {
    close_read();
    close_write();
  }
  void close_read() {
    if (read >= 0) ::close(read);
    read = -1;
  }
  void close_write() {
    if (write >= 0) ::close(write);
    write = -1;
  }
};

void write_all(int fd, const std::string& bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    ASSERT_GT(n, 0);
    done += static_cast<std::size_t>(n);
  }
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

std::string open_line(const std::string& tenant) {
  return R"({"type":"open","v":1,"tenant":")" + tenant +
         R"(","algorithm":"MtC","dim":2,"speed":1.5})";
}

std::string req_line(const std::string& tenant, int t) {
  const double x = static_cast<double>((t * 37) % 400) / 32.0 - 6.25;
  const double y = static_cast<double>((t * 53) % 320) / 16.0 - 10.0;
  return R"({"type":"req","tenant":")" + tenant + R"(","batch":[[)" + std::to_string(x) + "," +
         std::to_string(y) + "]]}";
}

/// Opens, interleaved reqs, a single-tenant burst over the in-flight cap,
/// stats, a close and a shutdown: every pump trigger the service has.
std::string make_script() {
  std::string script = open_line("a") + "\n" + open_line("b") + "\n";
  for (int t = 0; t < 12; ++t) script += req_line("a", t) + "\n" + req_line("b", t) + "\n";
  for (int t = 12; t < 40; ++t) script += req_line("a", t) + "\n";
  script += R"({"type":"stats","tenant":"b"})" "\n";
  script += R"({"type":"close","tenant":"b"})" "\n";
  for (int t = 40; t < 50; ++t) script += req_line("a", t) + "\n";
  script += R"({"type":"shutdown"})" "\n";
  return script;
}

ServiceOptions small_options() {
  ServiceOptions options;
  options.threads = 1;
  options.max_inflight = 8;
  options.lean = true;  // no clock reads: `stats` frames compare byte for byte
  return options;
}

class ServeTransportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::signal(SIGPIPE, SIG_IGN);  // as mobsrv_serve does
    dir_ = fs::temp_directory_path() /
           ("mobsrv_transport_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// An fd on a fresh regular file in the test directory.
  int create_file(const std::string& name) {
    return ::open((dir_ / name).c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  }

  fs::path dir_;
};

TEST_F(ServeTransportTest, PrefilledPipeMatchesStringStream) {
  const std::string script = make_script();
  ASSERT_LT(script.size(), 60000u) << "the script must fit in one pipe buffer";

  Service reference(small_options());
  std::istringstream in(script);
  std::ostringstream out;
  ASSERT_EQ(reference.run(in, out), ExitReason::kShutdown);
  ASSERT_NE(out.str().find(R"("type":"busy")"), std::string::npos)
      << "the 28-req burst for one tenant must bounce off max_inflight = 8";

  Pipe input;
  write_all(input.write, script);
  input.close_write();
  const int output = create_file("out.ndjson");
  ASSERT_GE(output, 0);
  Service piped(small_options());
  EXPECT_EQ(serve::serve_fds(piped, input.read, output), ExitReason::kShutdown);
  ::close(output);
  EXPECT_EQ(slurp(dir_ / "out.ndjson"), out.str());
  // One read took the whole script and the shutdown frame came before the
  // input paused, so the final flush is the only one.
  EXPECT_EQ(piped.telemetry().flushes.value(), 1u);
}

TEST_F(ServeTransportTest, RegularFileIsPacedAndMatchesGolden) {
  const fs::path golden = fs::path(MOBSRV_GOLDEN_DIR);
  const int input = ::open((golden / "serve_file_200.ndjson").c_str(), O_RDONLY);
  ASSERT_GE(input, 0);
  const int output = create_file("out.ndjson");
  ASSERT_GE(output, 0);
  ServiceOptions options;
  options.threads = 1;
  Service service(options);
  EXPECT_EQ(serve::serve_fds(service, input, output), ExitReason::kEof);
  ::close(input);
  ::close(output);
  const std::string got = slurp(dir_ / "out.ndjson");
  EXPECT_EQ(got, slurp(golden / "serve_file_200.golden.ndjson"));
  EXPECT_EQ(got.find(R"("type":"busy")"), std::string::npos);
  EXPECT_EQ(service.telemetry().outcomes.value(), 200u);
  // 201 lines: a pause before each, one at EOF, and the final flush.
  EXPECT_EQ(service.telemetry().flushes.value(), 203u);
}

TEST_F(ServeTransportTest, SplitFrameIsJoined) {
  Pipe pipe;
  const std::string frame = open_line("split");
  const std::size_t half = frame.size() / 2;
  std::thread writer([&] {
    write_all(pipe.write, frame.substr(0, half));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    write_all(pipe.write, frame.substr(half) + "\n" + req_line("split", 0) + "\n");
    pipe.close_write();
  });
  FdInBuf buf(pipe.read);
  std::istream in(&buf);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, frame);
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, req_line("split", 0));
  EXPECT_FALSE(std::getline(in, line));
  writer.join();
}

TEST_F(ServeTransportTest, InAvailFollowsFionreadOnAPipe) {
  Pipe pipe;
  write_all(pipe.write, "abc\ndef\n");
  FdInBuf buf(pipe.read);
  std::istream in(&buf);
  EXPECT_EQ(buf.in_avail(), 8) << "nothing read yet: the kernel's count";
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "abc");
  EXPECT_EQ(buf.in_avail(), 4) << "the rest of the read, still buffered";
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(buf.in_avail(), 0) << "drained: the client is waiting on us";
  write_all(pipe.write, "gh\n");
  EXPECT_EQ(buf.in_avail(), 3);
}

TEST_F(ServeTransportTest, InAvailIsZeroAtEveryLineEndOfARegularFile) {
  // A line longer than the read buffer, and a last line with no newline.
  const std::vector<std::string> lines = {"first", std::string(100000, 'x'), "", "third",
                                          "last"};
  {
    std::ofstream file(dir_ / "in.txt", std::ios::binary);
    for (std::size_t i = 0; i < lines.size(); ++i)
      file << lines[i] << (i + 1 < lines.size() ? "\n" : "");
  }
  const int fd = ::open((dir_ / "in.txt").c_str(), O_RDONLY);
  ASSERT_GE(fd, 0);
  FdInBuf buf(fd);
  std::istream in(&buf);
  EXPECT_EQ(buf.in_avail(), 0);
  std::string line;
  for (const std::string& want : lines) {
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, want);
    EXPECT_EQ(buf.in_avail(), 0);
  }
  EXPECT_FALSE(std::getline(in, line));
  ::close(fd);
}

TEST_F(ServeTransportTest, OutBufDeliversEveryByteThroughAFullPipe) {
  Pipe pipe;
  // Non-blocking: a full pipe takes part of a write (a short write) or none
  // of it (EAGAIN), so the buffer's retry loop is what gets every byte out.
  ASSERT_EQ(::fcntl(pipe.write, F_SETFL, O_NONBLOCK), 0);
  std::string sent;
  for (int i = 0; sent.size() < (1u << 20); ++i) sent += "line " + std::to_string(i) + "\n";
  std::string received;
  std::thread reader([&] {
    char chunk[4096];
    for (int reads = 0;; ++reads) {
      if (reads % 16 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
      const ssize_t n = ::read(pipe.read, chunk, sizeof(chunk));
      if (n <= 0) return;
      received.append(chunk, static_cast<std::size_t>(n));
    }
  });
  {
    FdOutBuf buf(pipe.write);
    std::ostream out(&buf);
    out << sent;
    out.flush();
    EXPECT_TRUE(out.good());
    EXPECT_EQ(buf.error(), 0);
  }
  pipe.close_write();
  reader.join();
  EXPECT_EQ(received.size(), sent.size());
  EXPECT_TRUE(received == sent);
}

TEST_F(ServeTransportTest, OutBufReportsEpipe) {
  Pipe pipe;
  pipe.close_read();
  FdOutBuf buf(pipe.write);
  std::ostream out(&buf);
  out << "hello\n";
  out.flush();
  EXPECT_FALSE(out.good());
  EXPECT_EQ(buf.error(), EPIPE);
}

TEST_F(ServeTransportTest, HangupDrainsAndSavesTheFinalSnapshot) {
  std::string script = open_line("a") + "\n";
  for (int t = 0; t < 5; ++t) script += req_line("a", t) + "\n";
  Pipe input;
  write_all(input.write, script);  // write end stays open: no EOF
  Pipe output;
  output.close_read();  // the client has hung up
  ServiceOptions options = small_options();
  options.snapshot_path = dir_ / "state.msrvss";
  Service service(options);
  EXPECT_EQ(serve::serve_fds(service, input.read, output.write), ExitReason::kHangup);
  EXPECT_EQ(service.mux().totals().steps, 5u) << "accepted reqs are still drained";

  const serve::ServiceSnapshot snapshot = serve::read_snapshot(options.snapshot_path);
  ASSERT_EQ(snapshot.tenants.size(), 1u);
  EXPECT_EQ(snapshot.tenants[0].tenant, "a");
  EXPECT_EQ(snapshot.records[0].cursor, 5u);
}

}  // namespace
}  // namespace mobsrv
