// hostprof: a wall-clock host sampler loaded with LD_PRELOAD.
//
//   HOSTPROF_OUT=/tmp/prof LD_PRELOAD=build/tools/hostprof/libhostprof.so cmd
//   scripts/hostprof.py /tmp/prof.<pid>
//
// With HOSTPROF_OUT set, a CLOCK_MONOTONIC timer raises SIGPROF every 50 us
// of wall time. The handler stores the interrupted program counter and
// nothing else, which keeps it async-signal-safe. At exit the process that
// armed the timer writes $HOSTPROF_OUT.<pid>: one line per distinct address
// with its sample count, its module's load base, its offset in the module
// and the module's path. Unlike gprof's -pg, this sees libc and the time
// the kernel spends on the program's behalf (page faults, system calls),
// and because the clock is wall time, time blocked in a system call is
// sampled too, at the instruction that entered it.
#include <dlfcn.h>
#include <errno.h>
#include <signal.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace {

constexpr std::size_t kMaxSamples = std::size_t{1} << 21;  // 105 s of samples.
std::uintptr_t* pcs = nullptr;
std::atomic<std::size_t> taken{0};
timer_t timer;
pid_t owner = 0;

void OnSample(int, siginfo_t*, void* context) {
  const std::size_t i = taken.fetch_add(1, std::memory_order_relaxed);
  if (i < kMaxSamples) {
    pcs[i] = static_cast<const ucontext_t*>(context)->uc_mcontext.gregs[REG_RIP];
  }
}

void WriteSamples() {
  if (getpid() != owner) {
    return;  // A forked child: its parent writes the samples.
  }
  timer_delete(timer);
  signal(SIGPROF, SIG_IGN);
  const std::size_t n = std::min(taken.load(), kMaxSamples);
  std::sort(pcs, pcs + n);
  const std::string path =
      std::string(getenv("HOSTPROF_OUT")) + "." + std::to_string(owner);
  FILE* out = fopen(path.c_str(), "w");
  if (out == nullptr) {
    perror("hostprof");
    return;
  }
  char exe[PATH_MAX] = {};
  (void)!readlink("/proc/self/exe", exe, sizeof exe - 1);
  fprintf(out, "# hostprof samples=%zu dropped=%zu period_us=50\n", n,
          taken.load() - n);
  for (std::size_t i = 0, j = 0; i < n; i = j) {
    while (j < n && pcs[j] == pcs[i]) {
      ++j;
    }
    Dl_info info{};
    const bool found = dladdr(reinterpret_cast<void*>(pcs[i]), &info) != 0;
    const auto base = found ? reinterpret_cast<std::uintptr_t>(info.dli_fbase) : 0;
    // dladdr names the main program by its argv[0]; use its real path.
    const char* module = !found ? "?"
                         : std::strcmp(info.dli_fname, program_invocation_name) == 0
                             ? exe
                             : info.dli_fname;
    fprintf(out, "%zu %#lx %#lx %s\n", j - i, base, pcs[i] - base, module);
  }
  fclose(out);
}

__attribute__((constructor)) void Start() {
  if (getenv("HOSTPROF_OUT") == nullptr) {
    return;
  }
  owner = getpid();
  pcs = static_cast<std::uintptr_t*>(calloc(kMaxSamples, sizeof *pcs));
  struct sigaction action = {};
  action.sa_sigaction = OnSample;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigevent event = {};
  event.sigev_notify = SIGEV_SIGNAL;
  event.sigev_signo = SIGPROF;
  const itimerspec every = {{0, 50'000}, {0, 50'000}};
  if (pcs == nullptr || sigaction(SIGPROF, &action, nullptr) != 0 ||
      timer_create(CLOCK_MONOTONIC, &event, &timer) != 0 ||
      atexit(WriteSamples) != 0 || timer_settime(timer, 0, &every, nullptr) != 0) {
    perror("hostprof");
  }
}

}  // namespace
