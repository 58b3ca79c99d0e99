// Reproduces Table 1: "Evaluation of the 0.5 ms latency requirement for all
// minimal TDD Common Configurations" — plus the Fig 1-style slot maps of each
// candidate configuration (machine-readable rendering of the schematic).
//
// Expected (paper):
//                    DU   DM   MU   Mini-slot  FDD
//   Grant-Based UL   x    x    x    ok         ok
//   Grant-Free  UL   ok   ok   ok   ok         ok
//   DL               x    ok   x    ok         ok

#include <cstdio>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/feasibility.hpp"
#include "serve/feasibility_service.hpp"

using namespace u5g;

namespace {

const char* paper_verdict(AccessMode m, const std::string& name) {
  const bool du = name.find("(DU)") != std::string::npos;
  const bool dm = name.find("(DM)") != std::string::npos;
  const bool mu = name.find("(MU)") != std::string::npos;
  const bool tdd_min = du || dm || mu;
  switch (m) {
    case AccessMode::GrantBasedUl: return tdd_min ? "x" : "ok";
    case AccessMode::GrantFreeUl: return "ok";
    case AccessMode::Downlink: return (du || mu) ? "x" : "ok";
  }
  return "?";
}

/// Fixed-layout JSON export: every number is printed through fmt3, so the
/// file is byte-stable for a given build — the golden-file regression test
/// (tests/golden/) diffs it bit for bit.
bool write_json(const std::string& path, const Table1& table, bool all_match) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\n  \"bench\": \"bench_table1\",\n  \"deadline_ms\": %s,\n",
               fmt3(kUrllcOneWayDeadline.ms()).c_str());
  std::fprintf(f, "  \"columns\": [\n");
  for (std::size_t i = 0; i < table.columns.size(); ++i) {
    const FeasibilityColumn& col = table.columns[i];
    std::fprintf(f, "    {\"config\": \"%s\", \"slot_map\": \"%s\", \"standards_caveat\": %s,\n",
                 col.config_name.c_str(), col.period_render.c_str(),
                 col.standards_caveat ? "true" : "false");
    std::fprintf(f, "     \"cells\": [\n");
    for (std::size_t j = 0; j < col.cells.size(); ++j) {
      const FeasibilityCell& c = col.cells[j];
      std::fprintf(f,
                   "      {\"mode\": \"%s\", \"worst_ms\": %s, \"best_ms\": %s, "
                   "\"verdict\": \"%s\", \"paper\": \"%s\"}%s\n",
                   to_string(c.mode), fmt3(c.worst_case.worst.ms()).c_str(),
                   fmt3(c.worst_case.best.ms()).c_str(), c.meets_deadline ? "ok" : "x",
                   paper_verdict(c.mode, col.config_name),
                   j + 1 < col.cells.size() ? "," : "");
    }
    std::fprintf(f, "     ]}%s\n", i + 1 < table.columns.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"matches_paper\": %s\n}\n", all_match ? "true" : "false");
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opt = parse_bench_options(argc, argv);
  std::printf("== Table 1: 0.5 ms one-way deadline, minimal configurations (u=2, 0.25 ms slots) ==\n\n");

  // The whole table as one QueryBatch against the feasibility-query service:
  // 5 candidate configurations x 3 access modes, answers in request order.
  const Table1 table = build_table1();
  const FeasibilityService& service = FeasibilityService::shared();

  std::printf("-- Fig 1-style slot maps (one char per symbol, '|' separates slots) --\n");
  for (const FeasibilityColumn& col : table.columns) {
    std::printf("  %-22s %s%s\n", col.config_name.c_str(), col.period_render.c_str(),
                col.standards_caveat ? "   [!] below the standard's recommended mini-slot target"
                                     : "");
  }
  std::printf("\n");

  TextTable out({"access mode", "config", "worst [ms]", "best [ms]", "verdict", "paper"});
  bool all_match = true;
  for (AccessMode m : {AccessMode::GrantBasedUl, AccessMode::GrantFreeUl, AccessMode::Downlink}) {
    for (const FeasibilityColumn& col : table.columns) {
      const FeasibilityCell& c = col.cell(m);
      const char* verdict = c.meets_deadline ? "ok" : "x";
      const char* paper = paper_verdict(m, col.config_name);
      all_match = all_match && std::string{verdict} == paper;
      out.add_row({to_string(m), col.config_name, fmt3(c.worst_case.worst.ms()),
                   fmt3(c.worst_case.best.ms()), verdict, paper});
    }
  }
  std::printf("%s\n", out.render().c_str());
  std::printf("reproduction %s the paper's Table 1\n", all_match ? "MATCHES" : "DIFFERS FROM");
  const FeasibilityService::Stats stats = service.stats();
  std::printf("service: %llu queries, analytic cache %llu hits / %llu misses\n",
              static_cast<unsigned long long>(stats.queries),
              static_cast<unsigned long long>(stats.analytic_hits),
              static_cast<unsigned long long>(stats.analytic_misses));
  if (opt.json && !write_json(*opt.json, table, all_match)) {
    std::fprintf(stderr, "bench_table1: cannot write %s\n", opt.json->c_str());
    return 1;
  }
  return all_match ? 0 : 1;
}
