#include "e2e.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <fstream>
#include <sstream>

namespace e2e {

void SpanLog::write_csv(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  out << "request,span,parent,name,start_ns,end_ns\n";
  for (const Span& s : spans_) {
    out << s.request << ',' << s.id << ',' << s.parent << ',' << s.name << ','
        << s.start_ns << ',' << s.end_ns << '\n';
  }
}

void set_fine_timer_slack() { prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0); }

// ---- child processes --------------------------------------------------------

namespace {

// Live child pids, readable from a signal handler.
constexpr int kMaxChildren = 64;
std::atomic<int> g_children[kMaxChildren];

void register_child(int pid) {
  for (auto& slot : g_children) {
    int expected = 0;
    if (slot.compare_exchange_strong(expected, pid)) return;
  }
}

void unregister_child(int pid) {
  for (auto& slot : g_children) {
    int expected = pid;
    if (slot.compare_exchange_strong(expected, 0)) return;
  }
}

/// Waits up to `timeout_ms` for the child to exit; returns its wait status
/// or -1 when it is still running.
int wait_for(int pid, int timeout_ms) {
  const std::int64_t deadline = now_ns() + std::int64_t{timeout_ms} * 1000000;
  for (;;) {
    int status = 0;
    const int r = waitpid(pid, &status, WNOHANG);
    if (r == pid) return status;
    if (r < 0) return 0;  // already reaped
    if (now_ns() >= deadline) return -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

}  // namespace

void kill_all_children() {
  for (auto& slot : g_children) {
    const int pid = slot.load();
    if (pid > 0) kill(pid, SIGKILL);
  }
}

Child::Child(const std::vector<std::string>& argv, const std::string& log_path)
    : name_(argv[0]), log_path_(log_path) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) throw std::runtime_error("pipe failed");
  const int log_fd = open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    close(pipe_fds[0]);
    close(pipe_fds[1]);
    throw std::runtime_error("cannot open " + log_path);
  }
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    close(pipe_fds[0]);
    close(pipe_fds[1]);
    close(log_fd);
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    // Only async-signal-safe calls until exec.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(pipe_fds[1], STDOUT_FILENO);
    dup2(log_fd, STDERR_FILENO);
    close(pipe_fds[0]);
    close(pipe_fds[1]);
    execv(args[0], args.data());
    _exit(127);
  }
  pid_ = pid;
  register_child(pid_);
  close(pipe_fds[1]);
  close(log_fd);
  out_fd_ = pipe_fds[0];
}

std::uint16_t Child::wait_ready(int timeout_ms) {
  std::uint16_t port = 0;
  // Read stdout until the listening line; fail setup if the child exits or
  // stays silent past the timeout.
  std::string buf;
  const std::string marker = "listening on 127.0.0.1:";
  const std::int64_t deadline = now_ns() + std::int64_t{timeout_ms} * 1000000;
  for (;;) {
    const std::size_t at = buf.find(marker);
    const std::size_t eol = at == std::string::npos ? at : buf.find('\n', at);
    if (eol != std::string::npos) {
      port = static_cast<std::uint16_t>(std::stoul(buf.substr(at + marker.size())));
      break;
    }
    const std::int64_t left_ms = (deadline - now_ns()) / 1000000;
    if (left_ms <= 0) {
      stop();
      throw std::runtime_error(name_ + " not ready within timeout; see " + log_path_);
    }
    pollfd pfd{out_fd_, POLLIN, 0};
    if (poll(&pfd, 1, static_cast<int>(std::min<std::int64_t>(left_ms, 200))) > 0) {
      char chunk[512];
      const ssize_t n = read(out_fd_, chunk, sizeof(chunk));
      if (n <= 0) {
        stop();
        throw std::runtime_error(name_ + " exited during setup; see " + log_path_);
      }
      buf.append(chunk, static_cast<std::size_t>(n));
    }
  }
  return port;
}

int Child::stop() {
  if (pid_ <= 0) return 0;
  int status = -1;
  kill(pid_, SIGTERM);
  status = wait_for(pid_, 5000);
  if (status == -1) {
    kill(pid_, SIGKILL);
    wait_for(pid_, 5000);
  }
  unregister_child(pid_);
  pid_ = -1;
  if (out_fd_ >= 0) close(out_fd_);
  out_fd_ = -1;
  return status;
}

Child::~Child() { stop(); }

// ---- scraping -----------------------------------------------------------------

double proc_cpu_us(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(in, line);
  const std::size_t close_paren = line.rfind(')');
  if (close_paren == std::string::npos) return 0.0;
  std::istringstream fields(line.substr(close_paren + 2));
  std::string f;
  double utime = 0.0;
  double stime = 0.0;
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  for (int i = 3; i <= 15 && (fields >> f); ++i) {
    if (i == 14) utime = std::stod(f);
    if (i == 15) stime = std::stod(f);
  }
  return (utime + stime) * 1e6 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double proc_peak_rss_mb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB → MiB
    }
  }
  return 0.0;
}

Scrape to_scrape(const anchor::obs::MetricsReport& report) {
  Scrape s;
  for (const auto& m : report.metrics) {
    switch (m.kind) {
      case anchor::obs::MetricKind::kCounter:
        s.values[m.name] = static_cast<double>(m.counter);
        break;
      case anchor::obs::MetricKind::kGauge:
        s.values[m.name] = m.gauge;
        break;
      case anchor::obs::MetricKind::kHistogram:
        s.hists[m.name] = m.hist;
        break;
    }
  }
  return s;
}

}  // namespace e2e
