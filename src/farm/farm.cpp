#include "farm/farm.hpp"

#include <sys/types.h>
#include <sys/wait.h>

#include <fcntl.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <mutex>
#include <thread>
#include <unistd.h>
#include <vector>

namespace craft::farm {

const char* ToString(TrialStatus s) {
  switch (s) {
    case TrialStatus::kOk: return "ok";
    case TrialStatus::kFailed: return "failed";
    case TrialStatus::kTimeout: return "timeout";
    case TrialStatus::kCancelled: return "cancelled";
  }
  return "?";
}

namespace {

using Clock = std::chrono::steady_clock;

/// One attempt: fork/exec the trial's argv in its own process group (so a
/// timeout can SIGKILL the whole tree, `sh -c` children included), then poll
/// with waitpid(WNOHANG) against the deadline.
///
/// Returns the exit code, or -1 when the child was signaled or never
/// launched; *timed_out reports whether the deadline fired.
int RunAttempt(const TrialSpec& trial, double timeout_s, bool* timed_out) {
  *timed_out = false;
  std::vector<char*> argv;
  argv.reserve(trial.argv.size() + 1);
  for (const std::string& a : trial.argv)
    argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  const pid_t pid = fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    setpgid(0, 0);
    if (!trial.log.empty()) {
      // Capture the tool's chatter per trial; append so retries accumulate.
      const int fd = open(trial.log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0666);
      if (fd >= 0) {
        dup2(fd, STDOUT_FILENO);
        dup2(fd, STDERR_FILENO);
        if (fd > STDERR_FILENO) close(fd);
      }
    }
    execvp(argv[0], argv.data());
    _exit(127);
  }
  setpgid(pid, pid);  // racing the child's own call is fine: same value

  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  for (;;) {
    int wstatus = 0;
    const pid_t r = waitpid(pid, &wstatus, WNOHANG);
    if (r == pid) {
      if (WIFEXITED(wstatus)) return WEXITSTATUS(wstatus);
      return -1;  // signaled
    }
    if (r < 0 && errno != EINTR) return -1;
    if (timeout_s > 0.0 && Clock::now() >= deadline) {
      *timed_out = true;
      kill(-pid, SIGKILL);
      while (waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
      }
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

}  // namespace

unsigned PoolWidth(unsigned jobs, std::size_t trials) {
  const std::size_t width = std::min<std::size_t>(std::max(jobs, 1u), trials);
  return std::max(1u, static_cast<unsigned>(width));
}

std::vector<TrialResult> Run(const std::vector<TrialSpec>& trials,
                             const Policy& policy) {
  std::vector<TrialResult> results(trials.size());
  std::mutex mu;  // guards next index, cancel flag and the progress stream
  std::size_t next = 0;
  bool cancel = false;

  auto progress = [&policy, &mu](const TrialSpec& t, unsigned attempt,
                                 const char* status, int exit_code,
                                 double secs) {
    if (policy.progress == nullptr) return;
    // One heartbeat line per attempt, craft-pulse style: tool[label] k=v ...
    std::lock_guard<std::mutex> lock(mu);
    std::fprintf(policy.progress,
                 "craft-farm[%s] attempt=%u status=%s exit=%d t=%.2f s\n",
                 t.id.c_str(), attempt, status, exit_code, secs);
    std::fflush(policy.progress);
  };

  auto worker = [&] {
    for (;;) {
      std::size_t i;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (next >= trials.size()) return;
        i = next++;
        if (cancel) {
          results[i].status = TrialStatus::kCancelled;
          continue;
        }
      }
      const TrialSpec& t = trials[i];
      TrialResult& r = results[i];
      const Clock::time_point t0 = Clock::now();
      for (unsigned attempt = 1; attempt <= policy.retries + 1; ++attempt) {
        if (attempt > 1 && policy.backoff_s > 0.0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(
              policy.backoff_s * (attempt - 1)));
        }
        bool timed_out = false;
        const int code = RunAttempt(t, policy.timeout_s, &timed_out);
        r.attempts = attempt;
        r.exit_code = code;
        r.timed_out = r.timed_out || timed_out;
        r.status = timed_out              ? TrialStatus::kTimeout
                   : code == 0            ? TrialStatus::kOk
                                          : TrialStatus::kFailed;
        const double secs =
            std::chrono::duration<double>(Clock::now() - t0).count();
        progress(t, attempt, ToString(r.status), code, secs);
        if (r.status == TrialStatus::kOk) break;
      }
      r.duration_s = std::chrono::duration<double>(Clock::now() - t0).count();
      if (r.status != TrialStatus::kOk && policy.fail_fast) {
        std::lock_guard<std::mutex> lock(mu);
        cancel = true;
      }
    }
  };

  const unsigned width = PoolWidth(policy.jobs, trials.size());
  std::vector<std::thread> pool;
  for (unsigned j = 0; j + 1 < width; ++j) pool.emplace_back(worker);
  worker();
  for (std::thread& th : pool) th.join();
  return results;
}

}  // namespace craft::farm
