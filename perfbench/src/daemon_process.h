// A primacyd child process owned by the benchmark: started in a private
// socket directory, waited on until it answers Ping, stopped with SIGTERM
// and checked to have drained and exited 0. The destructor kills and reaps
// a daemon that was never stopped, so no exit path leaves one behind.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

class DaemonProcess {
 public:
  /// Forks `binary` with `flags` plus `--socket <private dir>/d.sock`, the
  /// directory created fresh under `run_root`, and waits until the daemon
  /// answers Ping. Returns null with `error` set on failure.
  static std::unique_ptr<DaemonProcess> Start(
      const std::string& binary, const std::vector<std::string>& flags,
      const std::string& run_root, std::string* error);

  ~DaemonProcess();
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  const std::string& socket_path() const { return socket_path_; }

  /// Peak resident set (VmHWM) of the daemon, MiB.
  double PeakRssMiB() const;
  /// User + system CPU seconds the daemon has used so far.
  double CpuSeconds() const;

  /// SIGTERM, then waits up to 30 s. True when the daemon exited with
  /// status 0 and its log reports it served at least `min_requests`;
  /// otherwise `error` says what went wrong.
  bool Stop(std::uint64_t min_requests, std::string* error);

 private:
  DaemonProcess() = default;
  void Kill();
  void RemoveDir();

  pid_t pid_ = -1;
  std::string dir_;
  std::string socket_path_;
  std::string log_path_;
};

}  // namespace perfbench
