// A minimal SIGPROF program-counter sampler, loaded with LD_PRELOAD.
//
// Hosts without `perf` (or without perf_event access) still need an honest
// profile of an optimized build: gprof's -pg instrumentation adds an mcount
// call to every function, which inflates small leaf functions and blocks
// the inlining the hot path depends on.  This sampler needs no
// instrumentation.  An ITIMER_PROF timer delivers SIGPROF at 997 Hz of
// process CPU time (the kernel's CPU-time accounting tick caps what actually
// arrives); the handler records the interrupted program counter.  At exit
// the counts are written as
//
//   <samples> <object path> 0x<offset within the object>
//
// one line per distinct PC, and scripts/sigprof_report.py resolves them
// with `addr2line -i`, so code inlined into a caller is charged to the
// inlined function.  scripts/profile.sh builds and drives it.
//
//   SIGPROF_OUT=PATH  output file prefix; ".<pid>" is appended (required)
//
// Build: c++ -O2 -shared -fPIC -o libsigprof.so scripts/sigprof_sampler.cc -ldl
#include <dlfcn.h>
#include <link.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace {

constexpr long kSampleHz = 997;  // prime, so it does not beat with loops
constexpr std::size_t kMaxSamples = std::size_t{1} << 21;  // ~35 min at 1 kHz
std::uintptr_t g_pcs[kMaxSamples];
std::atomic<std::size_t> g_count{0};
std::atomic<std::size_t> g_dropped{0};
const char* g_out = nullptr;

std::uintptr_t interrupted_pc(void* uctx) {
  const auto* uc = static_cast<const ucontext_t*>(uctx);
#if defined(__x86_64__)
  return static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
#error "sigprof_sampler: unsupported architecture"
#endif
}

void on_sigprof(int, siginfo_t*, void* uctx) {
  const std::size_t i = g_count.fetch_add(1, std::memory_order_relaxed);
  if (i < kMaxSamples) {
    g_pcs[i] = interrupted_pc(uctx);
  } else {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
  }
}

void set_timer(long usec) {
  itimerval tv{};
  tv.it_interval.tv_sec = usec / 1'000'000;
  tv.it_interval.tv_usec = usec % 1'000'000;
  tv.it_value = tv.it_interval;
  setitimer(ITIMER_PROF, &tv, nullptr);
}

__attribute__((constructor)) void sampler_start() {
  g_out = std::getenv("SIGPROF_OUT");
  if (g_out == nullptr || *g_out == '\0') return;
  struct sigaction sa{};
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
  set_timer(1'000'000L / kSampleHz);
}

__attribute__((destructor)) void sampler_stop() {
  if (g_out == nullptr || *g_out == '\0') return;
  set_timer(0);
  const std::size_t n = std::min(g_count.load(), kMaxSamples);
  std::vector<std::uintptr_t> pcs(g_pcs, g_pcs + n);
  std::sort(pcs.begin(), pcs.end());

  char path[4096];
  std::snprintf(path, sizeof path, "%s.%d", g_out, static_cast<int>(getpid()));
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return;
  std::fprintf(f, "# samples %zu dropped %zu\n", n, g_dropped.load());
  for (std::size_t i = 0; i < n;) {
    std::size_t j = i;
    while (j < n && pcs[j] == pcs[i]) ++j;
    // addr2line wants the address relative to the object's load bias
    // (l_addr): 0 for a fixed-address executable, the base for PIE/.so.
    Dl_info info{};
    link_map* map = nullptr;
    if (dladdr1(reinterpret_cast<void*>(pcs[i]), &info,
                reinterpret_cast<void**>(&map), RTLD_DL_LINKMAP) != 0 &&
        map != nullptr && info.dli_fname != nullptr) {
      const char* obj = info.dli_fname;
      // The main program reports an empty or argv[0]-relative name.
      char exe[4096];
      if (*obj == '\0' || map->l_name == nullptr || *map->l_name == '\0') {
        const ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
        if (len > 0) {
          exe[len] = '\0';
          obj = exe;
        }
      }
      std::fprintf(f, "%zu %s 0x%lx\n", j - i, obj,
                   static_cast<unsigned long>(pcs[i] - map->l_addr));
    } else {
      std::fprintf(f, "%zu ? 0x%lx\n", j - i,
                   static_cast<unsigned long>(pcs[i]));
    }
    i = j;
  }
  std::fclose(f);
}

}  // namespace
