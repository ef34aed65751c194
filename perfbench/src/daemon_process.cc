#include "daemon_process.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <thread>

#include "common.h"
#include "transport/client.h"

namespace perfbench {
namespace {

constexpr std::uint64_t kStartTimeoutNs = 20'000'000'000ull;
constexpr std::uint64_t kStopTimeoutNs = 30'000'000'000ull;

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// Field `index` (1-based, as in proc(5)) of /proc/<pid>/stat.
std::uint64_t StatField(pid_t pid, int index) {
  const std::string stat = ReadFile("/proc/" + std::to_string(pid) + "/stat");
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  for (int i = 3; i <= index && fields >> field; ++i) {
    if (i == index) return std::strtoull(field.c_str(), nullptr, 10);
  }
  return 0;
}

}  // namespace

std::unique_ptr<DaemonProcess> DaemonProcess::Start(
    const std::string& binary, const std::vector<std::string>& flags,
    const std::string& run_root, std::string* error) {
  std::unique_ptr<DaemonProcess> daemon(new DaemonProcess());
  ::mkdir(run_root.c_str(), 0700);
  std::string templ = run_root + "/d-XXXXXX";
  if (::mkdtemp(templ.data()) == nullptr) {
    *error = "mkdtemp under " + run_root + ": " + std::strerror(errno);
    return nullptr;
  }
  daemon->dir_ = templ;
  daemon->socket_path_ = templ + "/d.sock";
  daemon->log_path_ = templ + "/daemon.log";

  std::vector<std::string> args = {binary};
  args.insert(args.end(), flags.begin(), flags.end());
  args.push_back("--socket");
  args.push_back(daemon->socket_path_);
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const int log_fd =
      ::open(daemon->log_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600);
  const int null_fd = ::open("/dev/null", O_RDONLY);
  if (log_fd < 0 || null_fd < 0) {
    *error = "open daemon log: " + std::string(std::strerror(errno));
    if (log_fd >= 0) ::close(log_fd);
    if (null_fd >= 0) ::close(null_fd);
    return nullptr;
  }
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Child: only async-signal-safe calls until exec. Its own process group
    // keeps a terminal Ctrl-C away from it (the benchmark stops it), and
    // the death signal takes it down if the benchmark itself is killed.
    ::setpgid(0, 0);
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(null_fd, 0);
    ::dup2(log_fd, 1);
    ::dup2(log_fd, 2);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(log_fd);
  ::close(null_fd);
  if (pid < 0) {
    *error = "fork: " + std::string(std::strerror(errno));
    return nullptr;
  }
  daemon->pid_ = pid;

  primacy::transport::TransportClientOptions options;
  options.socket_path = daemon->socket_path_;
  options.retry.max_attempts = 1;
  options.connect_timeout_ns = 1'000'000'000ull;
  primacy::transport::TransportClient client(options);
  const std::uint64_t deadline = NowNs() + kStartTimeoutNs;
  while (true) {
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      daemon->pid_ = -1;
      *error = "primacyd exited during start-up: " + ReadFile(daemon->log_path_);
      return nullptr;
    }
    if (client.Ping().ok()) return daemon;
    if (NowNs() > deadline) {
      *error = "primacyd did not answer Ping within 20 s: " +
               ReadFile(daemon->log_path_);
      return nullptr;
    }
    SleepMs(1);
  }
}

DaemonProcess::~DaemonProcess() {
  Kill();
  RemoveDir();
}

void DaemonProcess::Kill() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

void DaemonProcess::RemoveDir() {
  if (dir_.empty()) return;
  ::unlink(socket_path_.c_str());
  ::unlink(log_path_.c_str());
  ::rmdir(dir_.c_str());
  dir_.clear();
}

double DaemonProcess::PeakRssMiB() const {
  std::istringstream status(
      ReadFile("/proc/" + std::to_string(pid_) + "/status"));
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::strtoull(line.c_str() + 6, nullptr, 10)) /
             1024.0;  // kB -> MiB
    }
  }
  return 0;
}

double DaemonProcess::CpuSeconds() const {
  const double ticks = static_cast<double>(::sysconf(_SC_CLK_TCK));
  return static_cast<double>(StatField(pid_, 14) + StatField(pid_, 15)) /
         ticks;
}

bool DaemonProcess::Stop(std::uint64_t min_requests, std::string* error) {
  if (pid_ <= 0) {
    *error = "primacyd is not running";
    return false;
  }
  ::kill(pid_, SIGTERM);
  const std::uint64_t deadline = NowNs() + kStopTimeoutNs;
  int status = 0;
  while (::waitpid(pid_, &status, WNOHANG) != pid_) {
    if (NowNs() > deadline) {
      Kill();
      *error = "primacyd did not exit within 30 s of SIGTERM";
      return false;
    }
    SleepMs(2);
  }
  pid_ = -1;
  const std::string log = ReadFile(log_path_);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    *error = "primacyd did not exit 0 after SIGTERM: " + log;
    return false;
  }
  const std::size_t at = log.find("served ");
  const std::uint64_t served =
      at == std::string::npos
          ? 0
          : std::strtoull(log.c_str() + at + 7, nullptr, 10);
  if (at == std::string::npos || served < min_requests) {
    *error = "primacyd drain reported " + std::to_string(served) +
             " requests served, expected at least " +
             std::to_string(min_requests) + ": " + log;
    return false;
  }
  return true;
}

}  // namespace perfbench
