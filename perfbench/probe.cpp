#include "probe.h"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>

// Counting allocator. Relaxed atomics: ordering is irrelevant because
// the counter is read only at quiescent points between calls.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void release_memory() { malloc_trim(0); }

Machine machine() {
  Machine m;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    m.usable_cores = static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }
  m.nproc = std::max(1L, sysconf(_SC_NPROCESSORS_ONLN));
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        m.cpu_model = line.substr(line.find_first_not_of(' ', colon + 1));
      }
      break;
    }
  }
  if (m.cpu_model.empty()) m.cpu_model = "unknown";
  return m;
}

std::int64_t Tracer::open(const char* name) {
  Record r;
  r.name = name;
  r.parent = stack_.empty() ? -1 : stack_.back();
  r.op = op_;
  r.start_s = now_s();
  records_.push_back(r);
  const auto idx = static_cast<std::int64_t>(records_.size() - 1);
  stack_.push_back(idx);
  return idx;
}

void Tracer::close(std::int64_t idx) {
  records_[static_cast<std::size_t>(idx)].end_s = now_s();
  // Spans are strictly nested (RAII on one thread): idx is the top.
  if (!stack_.empty() && stack_.back() == idx) stack_.pop_back();
}

std::map<std::string, double> Tracer::self_seconds(double from_s,
                                                   double to_s) const {
  // Children of one span run one after another on the calling thread,
  // so the part of the parent they cover is the sum of their durations.
  std::vector<double> child_sum(records_.size(), 0.0);
  for (const Record& r : records_) {
    if (r.parent >= 0) {
      child_sum[static_cast<std::size_t>(r.parent)] += r.end_s - r.start_s;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.start_s < from_s || r.start_s >= to_s) continue;
    out[r.name] += (r.end_s - r.start_s) - child_sum[i];
  }
  return out;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double t0 = records_.empty() ? 0 : records_.front().start_s;
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %lld, \"op\": %llu}}%s\n",
                 r.name, (r.start_s - t0) * 1e6, (r.end_s - r.start_s) * 1e6,
                 i, static_cast<long long>(r.parent),
                 static_cast<unsigned long long>(r.op),
                 i + 1 == records_.size() ? "" : ",");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

std::vector<double> per_op_median(
    const std::vector<const std::vector<double>*>& passes) {
  std::vector<double> out;
  if (passes.empty()) return out;
  const std::size_t ops = passes.front()->size();
  out.reserve(ops);
  std::vector<double> col(passes.size());
  for (std::size_t i = 0; i < ops; ++i) {
    for (std::size_t p = 0; p < passes.size(); ++p) col[p] = (*passes[p])[i];
    out.push_back(median(col));
  }
  return out;
}

double tail(const std::vector<double>& v, double* pct_out) {
  // p at which at least ten samples lie beyond: n * (1 - p) >= 10.
  const double n = static_cast<double>(v.size());
  for (double pct : {99.9, 99.0}) {
    if (n * (1.0 - pct / 100.0) >= 10.0 - 1e-9) {
      *pct_out = pct;
      return quantile(v, pct / 100.0);
    }
  }
  // Below 1000 samples p90 is the tail, with fewer than ten samples
  // beyond it when there are fewer than 100 (tail_note says so).
  *pct_out = 90.0;
  return quantile(v, 0.9);
}

std::string tail_note(double pct, std::size_t samples) {
  const double beyond =
      std::floor(static_cast<double>(samples) * (1.0 - pct / 100.0));
  char buf[96];
  std::snprintf(buf, sizeof buf, "op_tail_us is p%g of %zu ops (%g beyond)",
                pct, samples, beyond);
  return buf;
}

}  // namespace perfbench
