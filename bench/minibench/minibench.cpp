// minibench implementation: adaptive timing loop + google-benchmark-
// compatible console/JSON reporters.  See include/benchmark/benchmark.h
// for why this is vendored.
#include "benchmark/benchmark.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unistd.h>
#include <utility>

namespace benchmark {

namespace {

struct Flags {
  std::string format = "console";       // --benchmark_format
  std::string out_path;                 // --benchmark_out
  std::string out_format = "json";      // --benchmark_out_format
  std::string filter;                   // --benchmark_filter (regex)
  double min_time_s = 0.5;              // --benchmark_min_time
};

Flags g_flags;
std::vector<std::pair<std::string, std::string>> g_custom_context;
std::vector<std::unique_ptr<internal::Benchmark>>& registry() {
  static std::vector<std::unique_ptr<internal::Benchmark>> r;
  return r;
}

/// One measured run (one benchmark x one argument).
struct RunResult {
  std::string name;
  IterationCount iterations = 0;
  double real_time_ns = 0.0;
  double cpu_time_ns = 0.0;
  std::int64_t items_processed = 0;
};

double now_monotonic_s() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double now_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double g_timer_real_start = 0.0;
double g_timer_cpu_start = 0.0;

}  // namespace

void State::StartTiming() noexcept {
  g_timer_real_start = now_monotonic_s();
  g_timer_cpu_start = now_cpu_s();
}

std::int64_t State::range(std::size_t index) const {
  if (index >= args_.size()) {
    std::fprintf(stderr, "minibench: state.range(%zu) out of bounds\n", index);
    std::abort();
  }
  return args_[index];
}

namespace internal {

Benchmark* RegisterBenchmarkInternal(Benchmark* bench) {
  registry().emplace_back(bench);
  return bench;
}

class BenchmarkRunner {
 public:
  /// Adaptive iteration search (google-benchmark's strategy, simplified):
  /// grow the iteration count until the timed region spans min_time, then
  /// report that final run.
  static RunResult run(const Benchmark& bench, std::string name,
                       std::int64_t arg, bool has_arg) {
    IterationCount iters = 1;
    for (int attempt = 0; attempt < 64; ++attempt) {
      std::vector<std::int64_t> args;
      if (has_arg) args.push_back(arg);
      State state(iters, std::move(args));
      bench.function()(state);  // state.begin() starts the timer
      const double real_s = now_monotonic_s() - g_timer_real_start;
      const double cpu_s = now_cpu_s() - g_timer_cpu_start;
      const bool enough = cpu_s >= g_flags.min_time_s ||
                          real_s >= 5.0 * g_flags.min_time_s ||
                          iters >= (std::int64_t{1} << 40);
      if (enough) {
        RunResult r;
        r.name = std::move(name);
        r.iterations = iters;
        r.real_time_ns =
            real_s * 1e9 / static_cast<double>(iters);
        r.cpu_time_ns = cpu_s * 1e9 / static_cast<double>(iters);
        r.items_processed = state.items_processed();
        return r;
      }
      // Aim past min_time with headroom, but grow at most 10x per attempt
      // so a mispredicted first run cannot overshoot into minutes.
      const double target = g_flags.min_time_s * 1.4;
      double multiplier = cpu_s > 1e-9 ? target / cpu_s : 10.0;
      multiplier = std::clamp(multiplier, 2.0, 10.0);
      iters = static_cast<IterationCount>(
          static_cast<double>(iters) * multiplier);
    }
    std::fprintf(stderr, "minibench: %s never reached min_time\n",
                 bench.name().c_str());
    std::abort();
  }
};

}  // namespace internal

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

int read_mhz_per_cpu() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("cpu MHz", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return static_cast<int>(std::strtod(line.c_str() + colon + 1,
                                            nullptr) +
                                0.5);
      }
    }
  }
  return 0;
}

bool cpu_scaling_enabled() {
  // Mirrors google-benchmark: any cpufreq governor other than
  // "performance" counts as scaling.  Hosts without cpufreq sysfs
  // (containers, VMs) report false.
  std::ifstream f(
      "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
  std::string governor;
  if (!(f >> governor)) return false;
  return governor != "performance";
}

/// CPU cache topology from sysfs, matching google-benchmark's context
/// schema ("caches": [{type, level, size, num_sharing}]).
std::string caches_json(const std::string& indent) {
  std::ostringstream out;
  out << "[";
  bool first = true;
  for (int index = 0; index < 8; ++index) {
    const std::string base =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    std::ifstream level_f(base + "/level");
    std::ifstream type_f(base + "/type");
    std::ifstream size_f(base + "/size");
    std::ifstream shared_f(base + "/shared_cpu_list");
    int level = 0;
    std::string type, size_text, shared;
    if (!(level_f >> level) || !(type_f >> type)) break;
    size_f >> size_text;
    shared_f >> shared;
    std::uint64_t size_bytes = std::strtoull(size_text.c_str(), nullptr, 10);
    if (!size_text.empty() && (size_text.back() == 'K')) size_bytes <<= 10;
    if (!size_text.empty() && (size_text.back() == 'M')) size_bytes <<= 20;
    // shared_cpu_list like "0" or "0-3": count the cpus sharing the cache.
    int num_sharing = 1;
    const std::size_t dash = shared.find('-');
    if (dash != std::string::npos) {
      num_sharing = std::atoi(shared.c_str() + dash + 1) -
                    std::atoi(shared.c_str()) + 1;
    }
    if (!first) out << ",";
    first = false;
    out << "\n" << indent << "  {\n"
        << indent << "    \"type\": \"" << json_escape(type) << "\",\n"
        << indent << "    \"level\": " << level << ",\n"
        << indent << "    \"size\": " << size_bytes << ",\n"
        << indent << "    \"num_sharing\": " << num_sharing << "\n"
        << indent << "  }";
  }
  if (!first) out << "\n" << indent;
  out << "]";
  return out.str();
}

std::string context_json() {
  char host[256] = "unknown";
  gethostname(host, sizeof(host) - 1);
  char date[64] = "unknown";
  {
    const time_t now = time(nullptr);
    tm tm_utc{};
    gmtime_r(&now, &tm_utc);
    std::strftime(date, sizeof(date), "%FT%T+00:00", &tm_utc);
  }
  double load[3] = {0, 0, 0};
  getloadavg(load, 3);
  std::ostringstream out;
  out << "  \"context\": {\n";
  out << "    \"date\": \"" << date << "\",\n";
  out << "    \"host_name\": \"" << json_escape(host) << "\",\n";
  out << "    \"executable\": \"minibench\",\n";
  out << "    \"num_cpus\": " << std::thread::hardware_concurrency() << ",\n";
  out << "    \"mhz_per_cpu\": " << read_mhz_per_cpu() << ",\n";
  out << "    \"cpu_scaling_enabled\": "
      << (cpu_scaling_enabled() ? "true" : "false") << ",\n";
  out << "    \"caches\": " << caches_json("    ") << ",\n";
  out << "    \"load_avg\": [" << load[0] << "," << load[1] << ","
      << load[2] << "],\n";
  // The whole point of the vendored harness: this TU is compiled with the
  // repo's CMAKE_BUILD_TYPE, so Release builds measure with a Release
  // timing loop and say so.
#ifdef NDEBUG
  out << "    \"library_build_type\": \"release\"";
#else
  out << "    \"library_build_type\": \"debug\"";
#endif
  for (const auto& [key, value] : g_custom_context) {
    out << ",\n    \"" << json_escape(key) << "\": \"" << json_escape(value)
        << "\"";
  }
  out << "\n  }";
  return out.str();
}

std::string runs_json(const std::vector<RunResult>& runs) {
  std::ostringstream out;
  out << "  \"benchmarks\": [";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\n";
    out << "      \"name\": \"" << json_escape(r.name) << "\",\n";
    out << "      \"family_index\": " << i << ",\n";
    out << "      \"run_name\": \"" << json_escape(r.name) << "\",\n";
    out << "      \"run_type\": \"iteration\",\n";
    out << "      \"repetitions\": 1,\n";
    out << "      \"repetition_index\": 0,\n";
    out << "      \"threads\": 1,\n";
    out << "      \"iterations\": " << r.iterations << ",\n";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", r.real_time_ns);
    out << "      \"real_time\": " << buf << ",\n";
    std::snprintf(buf, sizeof(buf), "%.6g", r.cpu_time_ns);
    out << "      \"cpu_time\": " << buf << ",\n";
    out << "      \"time_unit\": \"ns\"";
    if (r.items_processed > 0 && r.cpu_time_ns > 0.0) {
      const double per_s = static_cast<double>(r.items_processed) /
                           (r.cpu_time_ns * 1e-9 *
                            static_cast<double>(r.iterations));
      std::snprintf(buf, sizeof(buf), "%.6g", per_s);
      out << ",\n      \"items_per_second\": " << buf;
    }
    out << "\n    }";
  }
  out << "\n  ]";
  return out.str();
}

void report_console(const std::vector<RunResult>& runs, std::FILE* to) {
  std::size_t width = 30;
  for (const RunResult& r : runs) width = std::max(width, r.name.size() + 2);
  std::fprintf(to, "%-*s %14s %14s %12s\n", static_cast<int>(width),
               "Benchmark", "Time", "CPU", "Iterations");
  for (const RunResult& r : runs) {
    std::fprintf(to, "%-*s %11.1f ns %11.1f ns %12lld\n",
                 static_cast<int>(width), r.name.c_str(), r.real_time_ns,
                 r.cpu_time_ns, static_cast<long long>(r.iterations));
  }
}

void report_json(const std::vector<RunResult>& runs, std::ostream& to) {
  to << "{\n" << context_json() << ",\n" << runs_json(runs) << "\n}\n";
}

/// `format` is "console" or "json" (Initialize refuses anything else).
void report(const std::vector<RunResult>& runs, const std::string& format,
            std::FILE* to) {
  if (format == "json") {
    std::ostringstream text;
    report_json(runs, text);
    std::fputs(text.str().c_str(), to);
  } else {
    report_console(runs, to);
  }
}

[[noreturn]] void usage_error(const char* flag, const std::string& value,
                              const char* expected) {
  std::fprintf(stderr, "minibench: '%s' value '%s' is not %s\n", flag,
               value.c_str(), expected);
  std::exit(2);
}

bool known_format(const std::string& format) {
  return format == "console" || format == "json";
}

bool parse_flag(const char* arg, const char* name, std::string* value) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

}  // namespace

void Initialize(int* argc, char** argv) {
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    std::string value;
    if (parse_flag(argv[i], "--benchmark_format", &g_flags.format) ||
        parse_flag(argv[i], "--benchmark_out", &g_flags.out_path) ||
        parse_flag(argv[i], "--benchmark_out_format", &g_flags.out_format) ||
        parse_flag(argv[i], "--benchmark_filter", &g_flags.filter)) {
      continue;
    }
    if (parse_flag(argv[i], "--benchmark_min_time", &value)) {
      char* end = nullptr;
      g_flags.min_time_s = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(g_flags.min_time_s > 0.0) ||
          !std::isfinite(g_flags.min_time_s)) {
        usage_error("--benchmark_min_time", value,
                    "a positive number of seconds");
      }
      continue;
    }
    argv[kept++] = argv[i];
  }
  *argc = kept;
  if (!known_format(g_flags.format)) {
    usage_error("--benchmark_format", g_flags.format, "console or json");
  }
  if (!known_format(g_flags.out_format)) {
    usage_error("--benchmark_out_format", g_flags.out_format,
                "console or json");
  }
}

bool ReportUnrecognizedArguments(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::fprintf(stderr, "minibench: unrecognized argument '%s'\n", argv[i]);
  }
  return argc > 1;
}

void AddCustomContext(const std::string& key, const std::string& value) {
  g_custom_context.emplace_back(key, value);
}

std::size_t RunSpecifiedBenchmarks() {
  // google-benchmark's filter: an ECMAScript regex searched in each run's
  // full name ("BM_CacheScan/32"), empty meaning all.  One that fails to
  // compile or selects nothing is a usage error, never a run that
  // measures nothing.
  std::regex filter;
  try {
    filter.assign(g_flags.filter.empty() ? "." : g_flags.filter,
                  std::regex::ECMAScript);
  } catch (const std::regex_error& e) {
    std::fprintf(stderr,
                 "minibench: '--benchmark_filter' value '%s' is not a valid "
                 "regex: %s\n",
                 g_flags.filter.c_str(), e.what());
    std::exit(2);
  }
  struct Selected {
    const internal::Benchmark* bench;
    std::string name;
    std::int64_t arg;
    bool has_arg;
  };
  std::vector<Selected> selected;
  for (const auto& bench : registry()) {
    const auto select = [&](std::int64_t arg, bool has_arg) {
      std::string name = bench->name();
      if (has_arg) name += '/' + std::to_string(arg);
      if (std::regex_search(name, filter)) {
        selected.push_back({bench.get(), std::move(name), arg, has_arg});
      }
    };
    if (bench->args().empty()) select(0, false);
    for (const std::int64_t arg : bench->args()) select(arg, true);
  }
  if (selected.empty()) {
    std::fprintf(stderr,
                 "minibench: '--benchmark_filter' value '%s' matches no "
                 "benchmark\n",
                 g_flags.filter.c_str());
    std::exit(2);
  }

  std::vector<RunResult> runs;
  for (Selected& s : selected) {
    runs.push_back(internal::BenchmarkRunner::run(*s.bench, std::move(s.name),
                                                  s.arg, s.has_arg));
    // Progress as each run lands (a full sweep takes a while).
    const RunResult& last = runs.back();
    std::fprintf(stderr, "%-45s %11.1f ns  (x%lld)\n", last.name.c_str(),
                 last.cpu_time_ns, static_cast<long long>(last.iterations));
  }
  report(runs, g_flags.format, stdout);
  if (!g_flags.out_path.empty()) {
    std::FILE* out = std::fopen(g_flags.out_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "minibench: cannot write %s\n",
                   g_flags.out_path.c_str());
      std::exit(1);
    }
    report(runs, g_flags.out_format, out);
    if (std::fclose(out) != 0) {
      std::fprintf(stderr, "minibench: cannot write %s\n",
                   g_flags.out_path.c_str());
      std::exit(1);
    }
  }
  return runs.size();
}

void Shutdown() {}

}  // namespace benchmark
