#pragma once
// Uniform command line for the Monte-Carlo benches:
//
//   bench_xyz [--packets N] [--trials N] [--seed S] [--threads T]
//             [--json FILE] [--out DIR]  (or a positional DIR, kept for
//             backward-compatible CSV dumping)
//             [--trace FILE] [--metrics FILE] [--strict]
//
// `--trace` enables the tracing subsystem and writes a Chrome trace_event
// JSON (chrome://tracing / Perfetto); `--metrics` enables the metrics
// registry and writes its JSON export; `--strict` turns on bench-specific
// self-check assertions (a failed assertion exits non-zero — CI's
// regression gate).
//
// Every bench fills the defaults it cares about and calls
// `parse_bench_options`; CI uses the same flags to run quick smoke
// configurations (small --packets/--trials) of every bench.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

namespace u5g {

struct BenchOptions {
  int packets = 0;        ///< packets (or sweep work items) per configuration
  int trials = 1;         ///< independent Monte-Carlo replications to merge
  std::uint64_t seed = 1; ///< root seed of the replication stream
  int threads = 0;        ///< runner workers; 0 = hardware concurrency
  std::optional<std::string> out_dir;  ///< CSV dump directory
  std::optional<std::string> json;     ///< machine-readable result file
  std::optional<std::string> trace;    ///< Chrome trace_event JSON output
  std::optional<std::string> metrics;  ///< metrics-registry JSON output
  bool strict = false;                 ///< enable bench self-check assertions
  bool smoke = false;                  ///< shrink fixed sweeps for sanitizer CI
  // Query-service workload knobs (bench_serve and friends):
  int queries = 0;  ///< total queries to issue (0 = bench default)
  int batch = 0;    ///< queries per QueryBatch (0 = one batch per sweep)
};

namespace detail {

inline long long parse_ll(const char* flag, const char* value) {
  char* end = nullptr;
  const long long v = std::strtoll(value, &end, 10);
  if (end == value || *end != '\0' || v < 0) {
    std::fprintf(stderr, "bad value for %s: '%s'\n", flag, value);
    std::exit(2);
  }
  return v;
}

}  // namespace detail

/// Parse the uniform bench flags over `defaults`. Unknown flags print usage
/// and exit(2); `--help` prints usage and exit(0). A bare positional argument
/// is treated as the CSV output directory (legacy calling convention).
inline BenchOptions parse_bench_options(int argc, char** argv, BenchOptions defaults = {}) {
  BenchOptions o = defaults;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(a, "--packets") == 0) {
      o.packets = static_cast<int>(detail::parse_ll(a, next(a)));
    } else if (std::strcmp(a, "--trials") == 0) {
      o.trials = std::max(1, static_cast<int>(detail::parse_ll(a, next(a))));
    } else if (std::strcmp(a, "--seed") == 0) {
      o.seed = static_cast<std::uint64_t>(detail::parse_ll(a, next(a)));
    } else if (std::strcmp(a, "--threads") == 0) {
      o.threads = static_cast<int>(detail::parse_ll(a, next(a)));
    } else if (std::strcmp(a, "--json") == 0) {
      o.json = next(a);
    } else if (std::strcmp(a, "--out") == 0) {
      o.out_dir = next(a);
    } else if (std::strcmp(a, "--trace") == 0) {
      o.trace = next(a);
    } else if (std::strcmp(a, "--metrics") == 0) {
      o.metrics = next(a);
    } else if (std::strcmp(a, "--strict") == 0) {
      o.strict = true;
    } else if (std::strcmp(a, "--smoke") == 0) {
      o.smoke = true;
    } else if (std::strcmp(a, "--queries") == 0) {
      o.queries = static_cast<int>(detail::parse_ll(a, next(a)));
    } else if (std::strcmp(a, "--batch") == 0) {
      o.batch = static_cast<int>(detail::parse_ll(a, next(a)));
    } else if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      std::printf("usage: %s [--packets N] [--trials N] [--seed S] [--threads T] "
                  "[--json FILE] [--out DIR | DIR] [--trace FILE] [--metrics FILE] "
                  "[--strict] [--smoke] [--queries N] [--batch N]\n",
                  argv[0]);
      std::exit(0);
    } else if (a[0] != '-') {
      o.out_dir = a;  // legacy positional CSV directory
    } else {
      std::fprintf(stderr, "unknown flag '%s' (try --help)\n", a);
      std::exit(2);
    }
  }
  return o;
}

}  // namespace u5g
