#ifndef CRITIQUE_BENCH_BENCH_COMMON_H_
#define CRITIQUE_BENCH_BENCH_COMMON_H_

// Shared command-line handling for the bench/ binaries.
//
// Every bench accepts a common `--json <path>` flag: when present, the
// bench writes its results as a machine-readable JSON document to <path>
// (in addition to the human-readable stdout report), so the perf
// trajectory can be collected from files instead of stdout scraping:
//
//   bench_throughput --threads 8 --json BENCH_throughput.json
//   bench_abort_rates --json BENCH_abort_rates.json
//
// Flags are consumed (removed from argc/argv) before any further argv
// processing — google-benchmark's Initialize never sees them.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

namespace critique {
namespace bench {

/// Removes `argv[i]` and `argv[i+1]` ... `argv[i+extra]` from argv.
inline void ConsumeArgs(int& argc, char** argv, int i, int extra) {
  for (int j = i; j + extra + 1 <= argc; ++j) argv[j] = argv[j + extra + 1];
  argc -= extra + 1;
}

/// Extracts `--name <value>` (or `--name=<value>`) from argv; nullopt when
/// absent.  Exits with a diagnostic when the value is missing.
inline std::optional<std::string> TakeFlagValue(int& argc, char** argv,
                                                const char* name) {
  const std::string eq = std::string(name) + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", name);
        std::exit(2);
      }
      std::string v = argv[i + 1];
      ConsumeArgs(argc, argv, i, 1);
      return v;
    }
    if (std::strncmp(argv[i], eq.c_str(), eq.size()) == 0) {
      std::string v = argv[i] + eq.size();
      ConsumeArgs(argc, argv, i, 0);
      return v;
    }
  }
  return std::nullopt;
}

/// Extracts a non-negative integer flag, with a default.  (Every bench
/// count/size/duration is non-negative; a stray '-1' must fail fast, not
/// wrap to an effectively infinite run at the uint64_t cast sites.)
inline int64_t TakeIntFlag(int& argc, char** argv, const char* name,
                           int64_t fallback) {
  auto v = TakeFlagValue(argc, argv, name);
  if (!v.has_value()) return fallback;
  char* end = nullptr;
  int64_t out = std::strtoll(v->c_str(), &end, 10);
  if (end == v->c_str() || *end != '\0' || out < 0) {
    std::fprintf(stderr, "bad non-negative integer for %s: '%s'\n", name,
                 v->c_str());
    std::exit(2);
  }
  return out;
}

/// Extracts a double-valued flag, with a default.
inline double TakeDoubleFlag(int& argc, char** argv, const char* name,
                             double fallback) {
  auto v = TakeFlagValue(argc, argv, name);
  if (!v.has_value()) return fallback;
  char* end = nullptr;
  double out = std::strtod(v->c_str(), &end);
  if (end == v->c_str() || *end != '\0') {
    std::fprintf(stderr, "bad number for %s: '%s'\n", name, v->c_str());
    std::exit(2);
  }
  return out;
}

/// Extracts a comma-separated list of non-negative integers
/// (`--shards 1,2,4`), with a default.  Exits on malformed input — a
/// sweep silently dropping configurations would corrupt the perf
/// trajectory.
inline std::vector<int64_t> TakeIntListFlag(
    int& argc, char** argv, const char* name,
    const std::vector<int64_t>& fallback) {
  auto v = TakeFlagValue(argc, argv, name);
  if (!v.has_value()) return fallback;
  std::vector<int64_t> out;
  const char* p = v->c_str();
  while (*p != '\0') {
    char* end = nullptr;
    int64_t x = std::strtoll(p, &end, 10);
    if (end == p || x < 0 || (*end != '\0' && *end != ',')) {
      std::fprintf(stderr, "bad integer list for %s: '%s'\n", name,
                   v->c_str());
      std::exit(2);
    }
    out.push_back(x);
    p = *end == ',' ? end + 1 : end;
  }
  if (out.empty()) {
    std::fprintf(stderr, "empty list for %s\n", name);
    std::exit(2);
  }
  return out;
}

/// Extracts a comma-separated list of doubles (`--cross-shard 0,0.2,0.5`),
/// with a default.  Exits on malformed input.
inline std::vector<double> TakeDoubleListFlag(
    int& argc, char** argv, const char* name,
    const std::vector<double>& fallback) {
  auto v = TakeFlagValue(argc, argv, name);
  if (!v.has_value()) return fallback;
  std::vector<double> out;
  const char* p = v->c_str();
  while (*p != '\0') {
    char* end = nullptr;
    double x = std::strtod(p, &end);
    if (end == p || (*end != '\0' && *end != ',')) {
      std::fprintf(stderr, "bad number list for %s: '%s'\n", name,
                   v->c_str());
      std::exit(2);
    }
    out.push_back(x);
    p = *end == ',' ? end + 1 : end;
  }
  if (out.empty()) {
    std::fprintf(stderr, "empty list for %s\n", name);
    std::exit(2);
  }
  return out;
}

/// Extracts a boolean `--name` flag (present = true).
inline bool TakeBoolFlag(int& argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) {
      ConsumeArgs(argc, argv, i, 0);
      return true;
    }
  }
  return false;
}

/// The common `--json <path>` flag.
inline std::optional<std::string> TakeJsonFlag(int& argc, char** argv) {
  return TakeFlagValue(argc, argv, "--json");
}

/// Writes `doc` to `path`; exits non-zero on I/O failure (a bench asked
/// for JSON output must not silently drop it).
inline void WriteJsonFile(const std::string& path, const std::string& doc) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    std::exit(1);
  }
  std::fputs(doc.c_str(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("JSON written to %s\n", path.c_str());
}

}  // namespace bench
}  // namespace critique

#endif  // CRITIQUE_BENCH_BENCH_COMMON_H_
