#include "client.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <system_error>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/personality.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "io/json.hpp"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const std::size_t k = std::min(values.size() - 1,
                                 static_cast<std::size_t>(q * static_cast<double>(values.size())));
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(k), values.end());
  return values[k];
}

namespace {

constexpr std::int64_t kLateNs = 100'000;  // an open-loop send this late counts as late
constexpr double kDrainSeconds = 30.0;
/// Checkpoints timed on a quiet server, each after one req per hot tenant.
constexpr std::size_t kQuietCheckpoints = 21;
/// The setup and resume repetitions are spread evenly over this long, so
/// that a few seconds of a busy host slow some of them, not all: their
/// median (setup) or lower quartile (resume) is then the program's figure.
constexpr double kRepSpanSeconds = 3.0;
/// The closed loop's fixed work takes about half of --seconds (see
/// Workload::closed_rate), a quarter of that per part; a run whose server
/// needs this long for one part fails instead of timing out.
constexpr double kClosedLimitSeconds = 25.0;
/// Rates and latencies are taken per window. Noise from the host (stalls,
/// busy neighbours) only ever slows a window down, so the gated figures
/// take the quieter side over windows: the upper quartile of the window
/// rates, the lower quartile of the window medians. The whole-phase
/// numbers are reported beside them.
constexpr std::int64_t kWindowNs = 500'000'000;
/// The closed and the open loop each run in this many parts, alternating.
constexpr std::size_t kRounds = 4;

/// Reads a `Vm...:` line of /proc/<pid>/status, in bytes (0 if absent).
double proc_status_bytes(pid_t pid, const std::string& key) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind(key + ":", 0) == 0) return std::stod(line.substr(key.size() + 1)) * 1024.0;
  return 0.0;
}

/// CPU seconds (user + system, every thread) the process has used so far.
double proc_cpu_seconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 12th and 13th of them.
  std::istringstream rest(stat.substr(stat.rfind(')') + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 1; i <= 13 && rest >> field; ++i)
    if (i >= 12) ticks += std::stod(field);
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// Machine-wide CPU ticks from /proc/stat: {stolen by the hypervisor, all}.
std::pair<double, double> host_steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double steal = 0.0, total = 0.0, field = 0.0;
  for (int i = 1; i <= 8 && in >> field; ++i) {
    total += field;
    if (i == 8) steal = field;
  }
  return {steal, total};
}

void set_nonblocking(int fd) { ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK); }

/// One NDJSON connection to the server (rfd == wfd for a socket).
class Conn {
 public:
  Conn(int rfd, int wfd) : rfd_(rfd), wfd_(wfd) {
    set_nonblocking(rfd_);
    if (wfd_ != rfd_) set_nonblocking(wfd_);
  }
  ~Conn() {
    ::close(rfd_);
    if (wfd_ != rfd_) ::close(wfd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  std::string& out() { return out_; }
  [[nodiscard]] bool eof() const { return eof_; }
  [[nodiscard]] std::uint64_t reads() const { return reads_; }

  /// Writes as much pending output as the transport takes right now.
  void try_write() {
    while (off_ < out_.size()) {
      const ssize_t n = ::write(wfd_, out_.data() + off_, out_.size() - off_);
      if (n > 0) {
        off_ += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      off_ = out_.size();  // the server is gone; EOF on the read side follows
    }
    if (off_ == out_.size()) {
      out_.clear();
      off_ = 0;
    } else if (off_ > (1u << 20)) {
      out_.erase(0, off_);
      off_ = 0;
    }
  }

  /// Waits up to \p timeout_ns for the transport, writes what it can and
  /// hands every complete input line to on_line(line, receive_ns).
  template <class F>
  void cycle(std::int64_t timeout_ns, F&& on_line) {
    try_write();
    pollfd fds[2] = {{rfd_, POLLIN, 0}, {wfd_, POLLOUT, 0}};
    nfds_t n = 1;
    const bool want_write = off_ < out_.size();
    if (want_write) {
      if (wfd_ == rfd_)
        fds[0].events |= POLLOUT;
      else
        n = 2;
    }
    timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000),
                static_cast<long>(timeout_ns % 1'000'000'000)};
    if (::ppoll(fds, n, &ts, nullptr) <= 0) return;
    if (want_write) try_write();
    if ((fds[0].revents & (POLLIN | POLLHUP | POLLERR)) != 0 && read_available()) deliver(on_line);
  }

  /// As cycle(), but spins instead of sleeping, until input arrives or
  /// \p deadline_ns. The open loop uses it: a client woken by the kernel
  /// would add its own wake-up latency, which a shared VM makes uneven, to
  /// every latency sample.
  template <class F>
  void spin(std::int64_t deadline_ns, F&& on_line) {
    for (;;) {
      try_write();
      if (read_available()) return deliver(on_line);
      if (eof_ || now_ns() >= deadline_ns) return;
    }
  }

  /// Time spent handling input (not polling): the client's own load.
  [[nodiscard]] std::int64_t work_ns() const { return work_ns_; }
  void add_work(std::int64_t ns) { work_ns_ += ns; }

 private:
  template <class F>
  void deliver(F&& on_line) {
    const std::int64_t received = now_ns();
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = in_.find('\n', start);
      if (nl == std::string::npos) break;
      on_line(std::string_view(in_).substr(start, nl - start), received);
      start = nl + 1;
    }
    in_.erase(0, start);
    work_ns_ += now_ns() - received;
  }

  /// Reads everything the transport holds; true if anything arrived.
  bool read_available() {
    bool any = false;
    for (;;) {
      const std::size_t old = in_.size();
      in_.resize(old + (1u << 16));
      const ssize_t got = ::read(rfd_, in_.data() + old, 1u << 16);
      in_.resize(old + static_cast<std::size_t>(std::max<ssize_t>(got, 0)));
      if (got == 0) {
        eof_ = true;
        return any;
      }
      if (got < 0) {
        if (errno == EINTR) continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK) eof_ = true;
        return any;
      }
      ++reads_;
      any = true;
      if (got < (1 << 16)) return true;
    }
  }

  int rfd_;
  int wfd_;
  std::string out_;
  std::size_t off_ = 0;
  std::string in_;
  bool eof_ = false;
  std::uint64_t reads_ = 0;
  std::int64_t work_ns_ = 0;
};

struct ServerProc {
  pid_t pid = -1;
  std::unique_ptr<Conn> conn;
};

[[noreturn]] void fail(const std::string& message) { throw std::runtime_error(message); }

/// The CPUs the load generator keeps to itself and the ones the server gets:
/// the last allowed CPU for the client, and before it one CPU per server
/// thread (the main thread and \p server_threads mux workers). The kernel
/// then never puts the two on one CPU (a pipe write's sync wake-up pulls the
/// woken side onto the writer's CPU), and every run places them alike. With
/// too few CPUs both get all of them.
struct Placement {
  cpu_set_t client;
  cpu_set_t server;
};

Placement place_on_cpus(unsigned server_threads) {
  Placement p{};
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) fail("sched_getaffinity failed");
  p.client = allowed;
  p.server = allowed;
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  // The server's main thread (intake, framing) plus its mux workers.
  const std::size_t width = std::size_t{server_threads} + 1;
  if (cpus.size() < width + 1) return p;
  CPU_ZERO(&p.client);
  CPU_SET(cpus.back(), &p.client);
  CPU_ZERO(&p.server);
  for (std::size_t i = cpus.size() - 1 - width; i + 1 < cpus.size(); ++i)
    CPU_SET(cpus[i], &p.server);
  return p;
}

/// Gives each of the server's threads (the main thread first, then the
/// mux workers in the order they were started) a CPU of \p cpus of its own,
/// round robin. Left to the kernel, two busy workers sometimes shared one
/// CPU for a whole run and halved its throughput.
void pin_threads(pid_t pid, const cpu_set_t& cpus) {
  std::vector<int> cpu_list;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &cpus)) cpu_list.push_back(cpu);
  std::vector<pid_t> tids;
  std::error_code error;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/" + std::to_string(pid) + "/task", error))
    tids.push_back(static_cast<pid_t>(std::stol(entry.path().filename().string())));
  std::sort(tids.begin(), tids.end());
  for (std::size_t i = 0; i < tids.size() && !cpu_list.empty(); ++i) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu_list[i % cpu_list.size()], &one);
    ::sched_setaffinity(tids[i], sizeof(one), &one);
  }
}

/// Keeps the benchmark's CPUs from going idle while it measures. An idle
/// vCPU halts and gives its physical CPU back to the host; the next wake-up
/// (a frame for the server, an outcome for the client) then waits for the
/// host to run the vCPU again, which on a shared host takes anywhere from
/// microseconds to milliseconds. One SCHED_IDLE spinner per CPU holds each
/// vCPU awake; any other thread that becomes runnable there preempts it at
/// once, so the spinners take no time from the client or the server.
class KeepAwake {
 public:
  explicit KeepAwake(const cpu_set_t& cpus) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &cpus)) continue;
      threads_.emplace_back([this, cpu] {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        ::pthread_setaffinity_np(::pthread_self(), sizeof(one), &one);
        sched_param param{};
        ::pthread_setschedparam(::pthread_self(), SCHED_IDLE, &param);
        std::uint64_t x = 0;
        while (!stop_.load(std::memory_order_relaxed)) x = x * 6364136223846793005ULL + 1;
        sink_.fetch_add(x, std::memory_order_relaxed);
      });
    }
  }
  ~KeepAwake() {
    stop_ = true;
    for (std::thread& t : threads_) t.join();
  }
  KeepAwake(const KeepAwake&) = delete;
  KeepAwake& operator=(const KeepAwake&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> sink_{0};
  std::vector<std::thread> threads_;
};

ServerProc spawn_server(const Workload& w, const std::string& bin, const std::string& rundir,
                        const cpu_set_t& cpus, bool resume) {
  const std::string log = rundir + "/server.log";
  const bool piped = w.transport == "pipe";
  const std::string sock = rundir + "/s.sock";
  if (!piped) std::filesystem::remove(sock);
  int to_server[2] = {-1, -1};
  int from_server[2] = {-1, -1};
  if (piped && (::pipe2(to_server, O_CLOEXEC) != 0 || ::pipe2(from_server, O_CLOEXEC) != 0))
    fail(std::string("pipe: ") + std::strerror(errno));
  if (piped) {
    // 1 MiB pipes (the default is 64 KiB): when the host stalls the client
    // for a few milliseconds the server keeps working from its buffers
    // instead of blocking on a full pipe, so the figures stay the server's.
    ::fcntl(to_server[1], F_SETPIPE_SZ, 1 << 20);
    ::fcntl(from_server[0], F_SETPIPE_SZ, 1 << 20);
  }

  std::vector<std::string> args = server_args(w, resume);
  args.insert(args.begin(), bin);
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) fail(std::string("fork: ") + std::strerror(errno));
  if (pid == 0) {
    const int log_fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    const int null_fd = ::open("/dev/null", O_RDONLY);
    ::dup2(piped ? to_server[0] : null_fd, 0);
    ::dup2(piped ? from_server[1] : log_fd, 1);
    ::dup2(log_fd, 2);
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the load generator
    ::sched_setaffinity(0, sizeof(cpu_set_t), &cpus);
    // The same address layout in every server process: with ASLR, where
    // the heap's hash tables landed made one process's saves twice as slow
    // as the next one's.
    ::personality(ADDR_NO_RANDOMIZE);
    if (::chdir(rundir.c_str()) != 0) ::_exit(126);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ServerProc proc;
  proc.pid = pid;
  if (piped) {
    ::close(to_server[0]);
    ::close(from_server[1]);
    proc.conn = std::make_unique<Conn>(from_server[0], to_server[1]);
    return proc;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (sock.size() >= sizeof(addr.sun_path)) fail("socket path too long: " + sock);
  std::strncpy(addr.sun_path, sock.c_str(), sizeof(addr.sun_path) - 1);
  const std::int64_t deadline = now_ns() + 30'000'000'000;
  for (;;) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0) {
      proc.conn = std::make_unique<Conn>(fd, fd);
      return proc;
    }
    ::close(fd);
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) fail("mobsrv_serve exited before listening");
    if (now_ns() > deadline) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      fail("mobsrv_serve never accepted a connection");
    }
    ::usleep(50);
  }
}

/// Waits for the server to exit; returns its exit code (-1 if it had to be
/// killed or died from a signal).
int wait_exit(pid_t pid, double timeout_s) {
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  for (;;) {
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid)
      return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    if (now_ns() > deadline) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      return -1;
    }
    ::usleep(200);
  }
}

struct ParsedOutcome {
  std::size_t tenant = 0;
  std::size_t t = 0;
  double move = 0, service = 0, move_total = 0, service_total = 0, total = 0;
};

bool expect(std::string_view& s, std::string_view token) {
  if (s.substr(0, token.size()) != token) return false;
  s.remove_prefix(token.size());
  return true;
}

template <class T>
bool number(std::string_view& s, T& value) {
  const auto result = std::from_chars(s.data(), s.data() + s.size(), value);
  if (result.ec != std::errc()) return false;
  s.remove_prefix(static_cast<std::size_t>(result.ptr - s.data()));
  return true;
}

/// Reads an outcome frame without a DOM: the member order is the
/// protocol's (docs/SERVICE.md); anything else fails the run.
bool parse_outcome(std::string_view s, ParsedOutcome& o) {
  return expect(s, R"({"type":"outcome","tenant":"t)") && number(s, o.tenant) &&
         expect(s, R"(","t":)") && number(s, o.t) && expect(s, R"(,"move":)") &&
         number(s, o.move) && expect(s, R"(,"service":)") && number(s, o.service) &&
         expect(s, R"(,"move_total":)") && number(s, o.move_total) &&
         expect(s, R"(,"service_total":)") && number(s, o.service_total) &&
         expect(s, R"(,"total":)") && number(s, o.total) &&
         (s == "}" || s.substr(0, 13) == R"(,"positions":)");
}

double metric_value(const mobsrv::io::Json& metrics, const std::string& name,
                    const char* field = "value") {
  for (const mobsrv::io::Json& m : metrics.at("metrics").as_array())
    if (m.at("name").as_string() == name) {
      const mobsrv::io::Json* v = m.find(field);
      return v != nullptr ? v->as_double() : 0.0;
    }
  return 0.0;
}

class LoadGen {
 public:
  LoadGen(const Workload& w, std::string bin, std::string rundir, const cpu_set_t& server_cpus)
      : w_(w), bin_(std::move(bin)), rundir_(std::move(rundir)), server_cpus_(server_cpus) {
    for (const std::size_t tenant : w.hot()) {
      TenantLedger ledger;
      ledger.tenant = tenant;
      led_.push_back(std::move(ledger));
    }
  }

  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;
  /// A run that throws still stops and reaps the server it started.
  ~LoadGen() {
    if (srv_.pid > 0) {
      ::kill(srv_.pid, SIGKILL);
      ::waitpid(srv_.pid, nullptr, 0);
    }
  }

  E2EResult run(double seconds);

 private:
  enum class Mode { kIdle, kClosed, kOpen, kResume };

  void start_server(bool resume);
  void stop_server(const char* frame, int expected_code);
  void send_line(const std::string& line, std::size_t tenant = 0, std::uint32_t index = 0);
  void send_req(std::size_t h, std::int64_t due);
  void refill(std::size_t h);
  void resend_req(std::size_t h, std::uint32_t index);
  void send_checkpoint();
  void churn_one();
  void on_line(std::string_view line, std::int64_t received);
  void on_outcome(const ParsedOutcome& o, std::int64_t received);
  void on_busy(const mobsrv::io::Json& doc);
  template <class Done>
  bool wait_until(Done done, double timeout_s);
  bool drain(double timeout_s);
  void check_counts(const char* which);
  [[nodiscard]] std::optional<std::size_t> hot_index(std::size_t tenant) const {
    if (tenant >= w_.tenants || !w_.is_hot(tenant)) return std::nullopt;
    return tenant / w_.hot_stride;
  }
  void problem(std::string message) {
    if (problems_.size() < 20) problems_.push_back(std::move(message));
  }

  const Workload& w_;
  std::string bin_;
  std::string rundir_;
  cpu_set_t server_cpus_;
  std::vector<TenantLedger> led_;
  std::vector<std::string> problems_;
  ServerProc srv_;
  Mode mode_ = Mode::kIdle;
  bool sending_ = false;
  std::vector<std::uint32_t> closed_quota_;  ///< closed loop: reqs left per hot tenant

  // Per server process (reset by start_server).
  std::vector<std::pair<std::size_t, std::uint32_t>> lines_;  ///< line -> (tenant+1 or 0, index)
  std::uint64_t reqs_ = 0, outcomes_ = 0, busys_ = 0, errors_ = 0;
  std::size_t opened_ = 0, acks_due_ = 0;
  std::uint64_t outstanding_ = 0;
  std::optional<mobsrv::io::Json> metrics_;
  bool bye_ = false;
  bool final_save_ = false;

  // Phase accounting.
  std::uint64_t phase_outcomes_ = 0;
  std::uint64_t since_ckpt_ = 0, since_churn_ = 0;
  std::size_t churn_cursor_ = 0;
  std::int64_t phase_start_ = 0;
  std::vector<std::uint64_t> window_outcomes_;      ///< closed loop, per window
  std::vector<std::vector<double>> window_latency_;  ///< open loop, per window (us)

  // Checkpoints: one in flight at a time.
  bool ckpt_pending_ = false;
  std::uint64_t ckpt_line_ = 0;
  std::int64_t ckpt_sent_ = 0;
  std::vector<std::size_t> ckpt_cursor_pending_, ckpt_cursor_;
  std::vector<double> ckpt_ms_;
  bool have_ckpt_ = false;

  // Resume drill.
  std::vector<std::size_t> resume_next_;
  std::int64_t first_outcome_ = 0;
};

void LoadGen::start_server(bool resume) {
  srv_ = spawn_server(w_, bin_, rundir_, server_cpus_, resume);
  lines_.clear();
  reqs_ = outcomes_ = busys_ = errors_ = 0;
  opened_ = acks_due_ = 0;
  outstanding_ = 0;
  metrics_.reset();
  bye_ = false;
  final_save_ = false;
}

void LoadGen::stop_server(const char* frame, int expected_code) {
  final_save_ = expected_code == 0;
  send_line(std::string(R"({"type":")") + frame + "\"}\n");
  if (expected_code == 0 && !wait_until([&] { return bye_; }, kDrainSeconds))
    problem(std::string("no bye after ") + frame);
  wait_until([&] { return srv_.conn->eof(); }, kDrainSeconds);
  const int code = wait_exit(srv_.pid, kDrainSeconds);
  if (code != expected_code)
    problem(std::string("mobsrv_serve exited ") + std::to_string(code) + " after " + frame +
            ", expected " + std::to_string(expected_code));
  srv_ = ServerProc{};
}

void LoadGen::send_line(const std::string& line, std::size_t tenant, std::uint32_t index) {
  srv_.conn->out() += line;
  lines_.emplace_back(tenant, index);
}

void LoadGen::send_req(std::size_t h, std::int64_t due) {
  TenantLedger& ledger = led_[h];
  const std::uint32_t index = ledger.next_index++;
  append_req_line(srv_.conn->out(), w_, ledger.tenant, index);
  lines_.emplace_back(ledger.tenant + 1, index);
  ledger.accepted.push_back(index);
  ledger.outstanding.emplace_back(index, due);
  ++reqs_;
  ++outstanding_;
}

/// Closed loop: keeps tenant \p h's window full until its share is sent.
void LoadGen::refill(std::size_t h) {
  if (closed_quota_[h] == 0) return;
  --closed_quota_[h];
  send_req(h, 0);
}

void LoadGen::resend_req(std::size_t h, std::uint32_t index) {
  TenantLedger& ledger = led_[h];
  append_req_line(srv_.conn->out(), w_, ledger.tenant, index);
  lines_.emplace_back(ledger.tenant + 1, index);
  ledger.outstanding.emplace_back(index, 0);
  ++reqs_;
  ++outstanding_;
}

void LoadGen::send_checkpoint() {
  send_line("{\"type\":\"checkpoint\"}\n");
  ckpt_line_ = lines_.size();
  ckpt_cursor_pending_.resize(led_.size());
  for (std::size_t h = 0; h < led_.size(); ++h) ckpt_cursor_pending_[h] = led_[h].accepted.size();
  ckpt_pending_ = true;
  ckpt_sent_ = now_ns();
  since_ckpt_ = 0;
}

void LoadGen::churn_one() {
  // Cold tenants only: their sessions never step, so a close/reopen leaves
  // every outcome stream (and the reference replay) unchanged.
  if (w_.hot_stride < 2) return;
  std::size_t tenant = churn_cursor_++ % w_.tenants;
  while (w_.is_hot(tenant)) tenant = churn_cursor_++ % w_.tenants;
  send_line("{\"type\":\"close\",\"tenant\":\"" + tenant_name(tenant) + "\"}\n");
  send_line(open_line(w_, tenant));
  acks_due_ += 2;
  since_churn_ = 0;
}

void LoadGen::on_line(std::string_view line, std::int64_t received) {
  if (line.substr(0, 18) == R"({"type":"outcome",)") {
    ParsedOutcome o;
    if (!parse_outcome(line, o)) return problem("unparsable outcome: " + std::string(line));
    return on_outcome(o, received);
  }
  if (line.substr(0, 17) == R"({"type":"opened",)") {
    // Admission echoes are only counted: 20k of them through a DOM would
    // make the client, not the server, the slow side of setup_s.
    ++opened_;
    if (mode_ == Mode::kClosed && acks_due_ > 0) --acks_due_;
    return;
  }
  mobsrv::io::Json doc;
  try {
    doc = mobsrv::io::Json::parse(line);
  } catch (const std::exception&) {
    return problem("unparsable frame: " + std::string(line.substr(0, 200)));
  }
  const std::string& type = doc.at("type").as_string();
  if (type == "closed") {
    if (acks_due_ > 0) --acks_due_;
    if (doc.at("steps").as_uint64() != 0) problem("a churned cold tenant had stepped");
  } else if (type == "busy") {
    on_busy(doc);
  } else if (type == "checkpointed") {
    if (final_save_) return;  // the save a graceful shutdown makes
    if (!ckpt_pending_) return problem("unexpected checkpointed frame");
    ckpt_ms_.push_back(static_cast<double>(received - ckpt_sent_) * 1e-6);
    ckpt_cursor_ = ckpt_cursor_pending_;
    ckpt_pending_ = false;
    have_ckpt_ = true;
  } else if (type == "metrics") {
    metrics_ = std::move(doc);
  } else if (type == "bye") {
    bye_ = true;
  } else if (type == "error") {
    ++errors_;
    problem("error frame: " + std::string(line.substr(0, 200)));
  } else {
    problem("unexpected frame: " + std::string(line.substr(0, 200)));
  }
}

void LoadGen::on_outcome(const ParsedOutcome& o, std::int64_t received) {
  const std::optional<std::size_t> h = hot_index(o.tenant);
  if (!h) return problem("outcome for a tenant that sent nothing: t" + std::to_string(o.tenant));
  TenantLedger& ledger = led_[*h];
  if (ledger.outstanding.empty()) return problem("outcome without an outstanding req");
  const std::int64_t due = ledger.outstanding.front().second;
  ledger.outstanding.pop_front();
  --outstanding_;
  ++outcomes_;
  ++phase_outcomes_;
  if (mode_ == Mode::kClosed && sending_) {
    const auto w = static_cast<std::size_t>((received - phase_start_) / kWindowNs);
    if (w >= window_outcomes_.size()) window_outcomes_.resize(w + 1, 0);
    ++window_outcomes_[w];
  }
  if (due != 0) {
    const auto w = static_cast<std::size_t>((due - phase_start_) / kWindowNs);
    if (w >= window_latency_.size()) window_latency_.resize(w + 1);
    window_latency_[w].push_back(static_cast<double>(received - due) * 1e-3);
  }

  if (mode_ == Mode::kResume) {
    // The resumed stream must reproduce the uninterrupted one bit for bit.
    std::size_t& next = resume_next_[*h];
    if (first_outcome_ == 0) first_outcome_ = received;
    if (o.t != next || o.t >= ledger.move.size() || !same_bits(o.move, ledger.move[o.t]) ||
        !same_bits(o.service, ledger.service[o.t]))
      problem("resumed outcome differs: tenant t" + std::to_string(o.tenant) + " step " +
              std::to_string(o.t));
    ++next;
    if (next == ledger.move.size() &&
        (!same_bits(o.move_total, ledger.move_total) ||
         !same_bits(o.service_total, ledger.service_total) || !same_bits(o.total, ledger.total)))
      problem("resumed totals differ: tenant t" + std::to_string(o.tenant));
    return;
  }
  if (o.t != ledger.move.size())
    return problem("outcomes of tenant t" + std::to_string(o.tenant) + " not contiguous: got t=" +
                   std::to_string(o.t) + ", expected " + std::to_string(ledger.move.size()));
  ledger.move.push_back(o.move);
  ledger.service.push_back(o.service);
  ledger.move_total = o.move_total;
  ledger.service_total = o.service_total;
  ledger.total = o.total;

  if (mode_ != Mode::kClosed || !sending_) return;
  refill(*h);
  ++since_ckpt_;
  ++since_churn_;
  if (w_.checkpoint_every != 0 && since_ckpt_ >= w_.checkpoint_every && !ckpt_pending_)
    send_checkpoint();
  if (w_.churn_every != 0 && since_churn_ >= w_.churn_every) churn_one();
}

void LoadGen::on_busy(const mobsrv::io::Json& doc) {
  ++busys_;
  const std::uint64_t line = doc.at("line").as_uint64();
  if (line == 0 || line > lines_.size() || lines_[line - 1].first == 0)
    return problem("busy frame for an unknown line");
  const std::size_t tenant = lines_[line - 1].first - 1;
  const std::uint32_t index = lines_[line - 1].second;
  const std::size_t h = *hot_index(tenant);
  TenantLedger& ledger = led_[h];
  // The bounced step was not accepted: drop it from the replay list and
  // from the checkpoint cursor it was counted in.
  auto& acc = ledger.accepted;
  const auto at = std::find(acc.rbegin(), acc.rend(), index);
  if (at != acc.rend()) acc.erase(std::next(at).base());
  auto& out = ledger.outstanding;
  out.erase(std::find_if(out.begin(), out.end(), [&](const auto& e) { return e.first == index; }));
  --outstanding_;
  if (ckpt_pending_ && line < ckpt_line_) --ckpt_cursor_pending_[h];
  if (mode_ == Mode::kResume) problem("busy while re-sending after --resume");
  if (mode_ == Mode::kClosed && sending_) refill(h);
}

/// Sleeps until repetition \p rep of \p reps is due, \p rep / \p reps of
/// kRepSpanSeconds after \p start.
void wait_for_rep(std::int64_t start, std::size_t rep, std::size_t reps) {
  const std::int64_t due =
      start + static_cast<std::int64_t>(kRepSpanSeconds * 1e9 * static_cast<double>(rep) /
                                        static_cast<double>(reps));
  const std::int64_t wait = due - now_ns();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
}

template <class Done>
bool LoadGen::wait_until(Done done, double timeout_s) {
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  while (!done()) {
    if (srv_.conn->eof() || now_ns() > deadline) return done();
    srv_.conn->cycle(1'000'000, [&](std::string_view l, std::int64_t r) { on_line(l, r); });
  }
  return true;
}

bool LoadGen::drain(double timeout_s) {
  return wait_until([&] { return outstanding_ == 0 && !ckpt_pending_ && acks_due_ == 0; },
                    timeout_s);
}

void LoadGen::check_counts(const char* which) {
  send_line("{\"type\":\"metrics\"}\n");
  if (!wait_until([&] { return metrics_.has_value(); }, kDrainSeconds))
    return problem(std::string("no metrics frame from the ") + which + " server");
  const auto reqs = static_cast<std::uint64_t>(metric_value(*metrics_, "serve.reqs_total"));
  const auto outs = static_cast<std::uint64_t>(metric_value(*metrics_, "serve.outcomes_total"));
  const auto busy = static_cast<std::uint64_t>(metric_value(*metrics_, "serve.busys_total"));
  const auto errs = static_cast<std::uint64_t>(metric_value(*metrics_, "serve.errors_total"));
  if (reqs != reqs_ || outs != outcomes_ || busy != busys_ || errs != errors_ ||
      reqs != outs + busy)
    problem(std::string(which) + " server counts differ from the client's: reqs " +
            std::to_string(reqs) + "/" + std::to_string(reqs_) + ", outcomes " +
            std::to_string(outs) + "/" + std::to_string(outcomes_) + ", busys " +
            std::to_string(busy) + "/" + std::to_string(busys_));
}

E2EResult LoadGen::run(double seconds) {
  E2EResult result;
  auto metric = [&](const std::string& name, double value) {
    result.metrics.emplace_back(name, value);
  };
  const auto handler = [&](std::string_view l, std::int64_t r) { on_line(l, r); };
  const std::size_t hot = led_.size();

  // --- setup: spawn + admit every tenant, setup_reps times -----------------
  std::string opens;
  for (std::size_t t = 0; t < w_.tenants; ++t) opens += open_line(w_, t);
  std::vector<double> setups;
  const std::int64_t setup_start = now_ns();
  for (std::size_t rep = 0; rep < w_.setup_reps; ++rep) {
    wait_for_rep(setup_start, rep, w_.setup_reps);
    const std::int64_t t0 = now_ns();
    start_server(false);
    srv_.conn->out() += opens;
    lines_.resize(w_.tenants);
    if (!wait_until([&] { return opened_ == w_.tenants; }, 120.0))
      throw std::runtime_error("setup: only " + std::to_string(opened_) + " of " +
                               std::to_string(w_.tenants) + " tenants opened");
    setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    pin_threads(srv_.pid, server_cpus_);
    if (rep + 1 < w_.setup_reps) stop_server("kill", 3);
  }
  const pid_t pid = srv_.pid;
  const double rss_setup = proc_status_bytes(pid, "VmRSS");

  // --- closed and open loops, in kRounds alternating parts -------------------
  // Both loops sample the host over the whole run: a busy spell of a few
  // seconds slows a part of each, not all of one. The closed loop's work,
  // not its time, is fixed: a faster server must not end the run with more
  // steps stored, a longer snapshot chain or more to restore.
  const auto closed_share = static_cast<std::uint32_t>(std::max(
      static_cast<double>(w_.window),
      std::round(w_.closed_rate * seconds / 2.0 / static_cast<double>(hot * kRounds))));
  const double open_part_s = seconds / 2.0 / static_cast<double>(kRounds);
  // Open-loop reqs go out in bursts of open_burst (for distinct tenants), so
  // the server wakes once per burst: at one wake-up per req, a shared VM's
  // uneven wake-up latency, not the server, set the figures.
  const double burst_ns = 1e9 * static_cast<double>(w_.open_burst) / w_.open_rate;
  const std::pair<double, double> steal0 = host_steal_ticks();
  std::vector<double> window_rates;                  // closed loop, complete windows
  std::vector<std::vector<double>> latency_windows;  // open loop, per window (us)
  std::uint64_t closed_outcomes = 0, closed_reqs = 0, closed_failed = 0, closed_reads = 0;
  std::uint64_t open_outcomes = 0, sent = 0, late = 0;
  std::int64_t closed_ns = 0, closed_work_ns = 0, open_ns = 0, open_work_ns = 0;
  double closed_cpu_s = 0.0;
  for (std::size_t round = 0; round < kRounds; ++round) {
    // Closed part: every hot tenant keeps `window` reqs outstanding until it
    // has sent closed_share of them.
    mode_ = Mode::kClosed;
    sending_ = true;
    phase_outcomes_ = 0;
    window_outcomes_.clear();
    closed_quota_.assign(hot, closed_share);
    const std::uint64_t reqs0 = reqs_, failed0 = busys_ + errors_, reads0 = srv_.conn->reads();
    const double cpu0 = proc_cpu_seconds(pid);
    std::int64_t work0 = srv_.conn->work_ns();
    std::int64_t t0 = now_ns();
    phase_start_ = t0;
    for (std::size_t h = 0; h < hot; ++h)
      for (std::size_t k = 0; k < w_.window; ++k) refill(h);
    const std::int64_t deadline = t0 + static_cast<std::int64_t>(kClosedLimitSeconds * 1e9);
    while (outstanding_ > 0 && !srv_.conn->eof()) {
      if (now_ns() > deadline)
        throw std::runtime_error("closed loop: a part of the fixed work took longer than " +
                                 std::to_string(kClosedLimitSeconds) + " s");
      srv_.conn->cycle(1'000'000, handler);
    }
    closed_ns += now_ns() - t0;
    closed_work_ns += srv_.conn->work_ns() - work0;
    closed_reads += srv_.conn->reads() - reads0;
    closed_outcomes += phase_outcomes_;
    for (std::size_t i = 0; i + 1 < window_outcomes_.size(); ++i)
      window_rates.push_back(static_cast<double>(window_outcomes_[i]) * 1e9 / kWindowNs);
    sending_ = false;
    if (!drain(kDrainSeconds)) problem("closed loop: outcomes missing after the drain");
    closed_cpu_s += proc_cpu_seconds(pid) - cpu0;
    closed_reqs += reqs_ - reqs0;
    closed_failed += busys_ + errors_ - failed0 + outstanding_;

    // Open part: reqs on a fixed schedule, each timed from when it was due.
    mode_ = Mode::kOpen;
    phase_outcomes_ = 0;
    window_latency_.clear();
    work0 = srv_.conn->work_ns();
    t0 = now_ns();
    phase_start_ = t0;
    const auto due_of = [&](std::uint64_t k) {
      return t0 + static_cast<std::int64_t>(static_cast<double>(k / w_.open_burst) * burst_ns);
    };
    const std::int64_t open_end = t0 + static_cast<std::int64_t>(open_part_s * 1e9);
    std::uint64_t part_sent = 0;
    for (;;) {
      const std::int64_t now = now_ns();
      if (now >= open_end || srv_.conn->eof()) break;
      std::int64_t due = due_of(part_sent);
      while (due <= now && due < open_end) {
        if (now - due > kLateNs) ++late;
        send_req(sent++ % hot, due);
        due = due_of(++part_sent);
      }
      srv_.conn->add_work(now_ns() - now);
      srv_.conn->spin(std::min(due, open_end), handler);
    }
    open_ns += now_ns() - t0;
    open_work_ns += srv_.conn->work_ns() - work0;
    if (!drain(kDrainSeconds)) problem("open loop: outcomes missing after the drain");
    open_outcomes += phase_outcomes_;
    for (std::vector<double>& window : window_latency_) latency_windows.push_back(std::move(window));
  }
  const std::pair<double, double> steal1 = host_steal_ticks();
  const std::uint64_t missing = outstanding_;
  const double rss_open = proc_status_bytes(pid, "VmRSS");
  const double closed_rate =
      static_cast<double>(closed_outcomes) / (static_cast<double>(closed_ns) * 1e-9);
  const double steps_per_s = window_rates.empty() ? closed_rate : percentile(window_rates, 0.75);
  result.ns_per_step = 1e9 / steps_per_s;
  const double server_cpu_us =
      closed_cpu_s * 1e6 / static_cast<double>(std::max<std::uint64_t>(1, closed_outcomes));
  const double closed_busy = static_cast<double>(closed_work_ns) / static_cast<double>(closed_ns);
  const double open_busy = static_cast<double>(open_work_ns) / static_cast<double>(open_ns);

  result.attempted = reqs_;
  result.failed = busys_ + errors_ + missing;
  check_counts("main");
  double rounds = 0.0, served = 0.0;
  if (metrics_) {
    for (const char* name : {"serve.reqs_total", "serve.busys_total", "serve.outcomes_total",
                             "serve.errors_total", "mux.active_sessions"})
      metric(name, metric_value(*metrics_, name));
    rounds = metric_value(*metrics_, "mux.step_latency_ns", "count");
    served = metric_value(*metrics_, "serve.outcomes_total");
  }
  const double peak_rss = proc_status_bytes(pid, "VmHWM");

  // --- quiet checkpoints, then post-checkpoint traffic ----------------------
  // checkpoint_p50_ms times these: under the closed loop a checkpoint frame
  // first waits behind every tenant's window of reqs, so its latency there
  // is mostly that queue, i.e. throughput again, not the save.
  mode_ = Mode::kIdle;
  const std::vector<double> loaded_ckpt_ms = std::move(ckpt_ms_);
  ckpt_ms_.clear();
  for (std::size_t c = 0; c < kQuietCheckpoints; ++c) {
    for (std::size_t h = 0; h < hot; ++h) send_req(h, 0);
    if (!drain(kDrainSeconds)) problem("outcomes missing before a quiet checkpoint");
    send_checkpoint();
    // Spinning keeps the client's own wake-up out of the figure.
    const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(kDrainSeconds * 1e9);
    while (ckpt_pending_ && !srv_.conn->eof() && now_ns() < deadline)
      srv_.conn->spin(deadline, handler);
    if (ckpt_pending_) problem("quiet checkpoint never acknowledged");
  }
  for (std::size_t h = 0; h < hot; ++h)
    for (std::size_t k = 0; k < kTailSteps; ++k) send_req(h, 0);
  if (!drain(kDrainSeconds)) problem("tail outcomes missing");
  stop_server("kill", 3);

  // --- resume drill -----------------------------------------------------------
  std::vector<double> resumes;
  const std::int64_t resume_start = now_ns();
  for (std::size_t rep = 0; rep < w_.resume_reps && have_ckpt_; ++rep) {
    wait_for_rep(resume_start, rep, w_.resume_reps);
    mode_ = Mode::kResume;
    resume_next_ = ckpt_cursor_;
    first_outcome_ = 0;
    const std::int64_t r0 = now_ns();
    start_server(true);
    // resume_s ends at the first outcome, so that step goes out alone: the
    // figure is restore + one step, not however much the first pump took.
    std::size_t first = 0;
    while (ckpt_cursor_[first] == led_[first].accepted.size()) ++first;  // kTailSteps >= 1
    resend_req(first, led_[first].accepted[ckpt_cursor_[first]]);
    if (!drain(kDrainSeconds)) problem("no outcome after --resume");
    pin_threads(srv_.pid, server_cpus_);
    for (std::size_t h = 0; h < hot; ++h)
      for (std::size_t pos = ckpt_cursor_[h] + (h == first ? 1 : 0);
           pos < led_[h].accepted.size(); ++pos)
        resend_req(h, led_[h].accepted[pos]);
    if (!drain(kDrainSeconds)) problem("resumed outcomes missing");
    if (first_outcome_ != 0) resumes.push_back(static_cast<double>(first_outcome_ - r0) * 1e-9);
    for (std::size_t h = 0; h < hot; ++h)
      if (resume_next_[h] != led_[h].move.size()) problem("resumed stream ended early");
    if (rep + 1 < w_.resume_reps) {
      stop_server("kill", 3);
    } else {
      check_counts("resumed");
      stop_server("shutdown", 0);
    }
  }
  mode_ = Mode::kIdle;

  // --- metrics ----------------------------------------------------------------
  const double steps_total = static_cast<double>(closed_outcomes + open_outcomes);
  metric("steps_per_s", steps_per_s);
  std::vector<double> all_latency, p50s, p90s, p99s;
  for (const std::vector<double>& window : latency_windows) {
    all_latency.insert(all_latency.end(), window.begin(), window.end());
    if (window.size() < 1000) continue;  // a p99 with >= 10 samples beyond it
    p50s.push_back(percentile(window, 0.50));
    p90s.push_back(percentile(window, 0.90));
    p99s.push_back(percentile(window, 0.99));
  }
  metric("lat_p50_us", percentile(p50s, 0.25));
  metric("lat_p90_us", percentile(p90s, 0.5));
  metric("lat_p99_us", percentile(p99s, 0.5));
  metric("latency_samples", static_cast<double>(all_latency.size()));
  metric("latency_windows", static_cast<double>(p99s.size()));
  metric("lat_p99_phase_us", percentile(all_latency, 0.99));
  metric("steps_per_s_phase", closed_rate);
  metric("server_cpu_us_per_step", server_cpu_us);
  const double failed_share =
      static_cast<double>(result.failed) / static_cast<double>(std::max<std::uint64_t>(1, result.attempted));
  metric("failed_share", failed_share);
  metric("served_share", 1.0 - failed_share);
  metric("closed_failed", static_cast<double>(closed_failed));
  metric("closed_reqs", static_cast<double>(closed_reqs));
  metric("peak_rss_mb", peak_rss / (1024.0 * 1024.0));
  metric("setup_s", percentile(setups, 0.5));
  metric("checkpoint_p50_ms", percentile(ckpt_ms_, 0.5));
  metric("checkpoint_loaded_p50_ms", percentile(loaded_ckpt_ms, 0.5));
  metric("checkpoints", static_cast<double>(loaded_ckpt_ms.size()));
  metric("resume_s", percentile(resumes, 0.25));
  metric("rss_growth_bytes_per_step", (rss_open - rss_setup) / std::max(1.0, steps_total));
  metric("e2e.sessions_per_round",
         rounds > 0 ? served / rounds : 0.0);
  metric("client.outcomes_per_read",
         static_cast<double>(closed_outcomes) / static_cast<double>(std::max<std::uint64_t>(1, closed_reads)));
  metric("gen.late_share", static_cast<double>(late) / static_cast<double>(std::max<std::uint64_t>(1, sent)));
  metric("client.busy_share", open_busy);
  // The open loop's pace was the generator's, not the server's: it sent
  // late, or handling the server's output kept it busy most of the time.
  metric("client.driver_paced", late > sent / 20 || open_busy > 0.8 ? 1.0 : 0.0);
  metric("client.closed_busy_share", closed_busy);
  // The share of the machine's CPU time the hypervisor gave to others
  // during both loops: how busy the host was while this run measured.
  metric("host.steal_share",
         (steal1.first - steal0.first) / std::max(1.0, steal1.second - steal0.second));
  metric("open.sent", static_cast<double>(sent));

  result.problems = std::move(problems_);
  result.ledgers = std::move(led_);
  return result;
}

}  // namespace

E2EResult run_e2e(const Workload& w, const std::string& serve_bin, const std::string& rundir,
                  double seconds) {
  std::signal(SIGPIPE, SIG_IGN);
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  ::sched_getaffinity(0, sizeof(allowed), &allowed);
  const Placement place = place_on_cpus(w.server_threads);
  ::sched_setaffinity(0, sizeof(cpu_set_t), &place.client);
  E2EResult result;
  {
    cpu_set_t busy;
    CPU_OR(&busy, &place.client, &place.server);
    const KeepAwake awake(busy);
    LoadGen load(w, serve_bin, rundir, place.server);
    result = load.run(seconds);
  }
  ::sched_setaffinity(0, sizeof(allowed), &allowed);  // the reference check uses every CPU
  return result;
}

}  // namespace perfbench
