// Table 4: time overhead components, before/after the Section 5.4 winners.
//
// Paper: per workload and configuration — the hash-table miss rate, the
// average interrupt cost split by hit/miss, and the per-sample daemon cost.
// Low-eviction workloads (specfp, AltaVista) have cheap interrupts AND
// cheap daemon processing (aggregation amortizes); gcc's 38-44% miss rate
// drives both up (551-667 avg interrupt cycles, 781-982 daemon cycles per
// sample). Section 5.4 projects that 6-way swap-to-front lines cut that
// overhead 10-20%; this repo ships them (plus batched daemon ingest) as
// the default, so every workload runs twice here — the 1997 baseline
// (4-way mod-counter hash table, per-record daemon cost) vs the shipped
// default — and the delta columns attribute exactly where the cycles went.
// The daemon ingests a record stream the same way whatever it costs, so
// the 1997 daemon cost is computed from the baseline run's own counters.
//
// Expected shape: gcc's miss rate an order of magnitude above the quiet
// workloads in both configurations, and the shipped default strictly
// cheaper on gcc's miss path and on per-sample daemon cost. Those two
// orderings are enforced as gates (exit 1), and the numbers are written to
// BENCH_table4.json. --smoke shrinks the workloads and runs the default
// configuration only (CI-sized; the gates still apply).

#include <cstring>
#include <fstream>

#include "bench/bench_util.h"
#include "src/support/text_table.h"

using namespace dcpi;
using namespace dcpi::bench;

namespace {

// The 1997 daemon's cost per narrow record: PID lookup, image lookup and
// profile hash update, the paper's "three hash lookups" (Section 5.2). It
// paid no per-group cost; the shipped daemon's per-buffer and per-wide-
// record costs are the 1997 ones.
constexpr uint64_t kCyclesPerRecord1997 = 950;

// The 1997 daemon's cycles for the record stream `daemon` ingested: the
// shipped cost with each narrow record repriced and the per-group cost
// taken out.
uint64_t DaemonCycles1997(const DaemonStats& daemon) {
  const uint64_t narrow = daemon.records_processed - daemon.wide_records;
  return daemon.daemon_cycles +
         narrow * (kCyclesPerRecord1997 - Daemon::kCyclesPerRecord) -
         daemon.ingest_groups * Daemon::kCyclesPerGroup;
}

struct ConfigOutcome {
  double miss_rate = 0;
  double avg_intr = 0;        // cycles per interrupt
  uint64_t miss_path = 0;     // total miss-path handler cycles
  double daemon_per_sample = 0;
  uint64_t interrupts = 0;
};

ConfigOutcome RunOne(const Workload& workload, ProfilingMode mode, bool legacy,
                     double period_scale = 1.0 / 16) {
  SystemConfig spec;
  spec.mode = mode;
  // Denser sampling warms the hash table into its steady state (the
  // paper's week-long runs); the per-sample costs are rate-independent.
  spec.period_scale = period_scale;
  if (legacy) spec.driver.hash = HashTableConfig::Legacy();
  RunOutput out = RunProfiled(workload, spec);
  const DriverCpuStats& driver = out.result.driver_total;
  const uint64_t daemon_cycles = legacy ? DaemonCycles1997(out.result.daemon)
                                        : out.result.daemon.daemon_cycles;
  ConfigOutcome outcome;
  outcome.miss_rate = driver.MissRate();
  outcome.avg_intr = driver.AvgInterruptCost();
  outcome.miss_path = driver.miss_path_cycles;
  outcome.interrupts = driver.interrupts;
  outcome.daemon_per_sample =
      driver.interrupts == 0 ? 0
                             : static_cast<double>(daemon_cycles) /
                                   static_cast<double>(driver.interrupts);
  return outcome;
}

std::string Arrow(double legacy, double shipped, int digits) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f -> %.*f", digits, legacy, digits,
                shipped);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: bench_table4_overhead_components [--smoke]\n");
      return 2;
    }
  }
  PrintHeader("bench_table4_overhead_components: interrupt + daemon cost breakdown",
              "Table 4 (Section 5.2) + Section 5.4 before/after");

  const double scale = smoke ? 0.05 : 0.2;
  std::vector<ProfilingMode> modes = {ProfilingMode::kDefault};
  if (!smoke) {
    modes.push_back(ProfilingMode::kCycles);
    modes.push_back(ProfilingMode::kMux);
  }

  // gcc numbers from the default configuration, for the JSON + gates.
  ConfigOutcome gcc_legacy, gcc_shipped;
  bool saw_gcc = false;

  for (ProfilingMode mode : modes) {
    std::printf("--- configuration: %s (legacy -> shipped default) ---\n",
                ProfilingModeName(mode));
    TextTable table;
    table.SetHeader({"workload", "miss rate %", "avg intr (cy)",
                     "miss-path (kcy)", "daemon cy/sample", "samples"});
    size_t num_workloads = WorkloadFactory(scale).Table2Suite().size();
    for (size_t w = 0; w < num_workloads; ++w) {
      // A fresh factory per run: Instantiate consumes workload state.
      WorkloadFactory legacy_factory(scale, /*seed=*/1);
      ConfigOutcome legacy =
          RunOne(legacy_factory.Table2Suite()[w], mode, /*legacy=*/true);
      WorkloadFactory shipped_factory(scale, /*seed=*/1);
      Workload workload = shipped_factory.Table2Suite()[w];
      ConfigOutcome shipped = RunOne(workload, mode, /*legacy=*/false);
      if (mode == ProfilingMode::kDefault && workload.name == "gcc") {
        gcc_legacy = legacy;
        gcc_shipped = shipped;
        saw_gcc = true;
      }
      table.AddRow({workload.name,
                    Arrow(100.0 * legacy.miss_rate, 100.0 * shipped.miss_rate, 1),
                    Arrow(legacy.avg_intr, shipped.avg_intr, 0),
                    Arrow(legacy.miss_path / 1000.0, shipped.miss_path / 1000.0, 0),
                    Arrow(legacy.daemon_per_sample, shipped.daemon_per_sample, 0),
                    std::to_string(shipped.interrupts)});
    }
    table.Print();
    std::printf("\n");
  }
  std::printf("paper (default config, shipped 1997 table): specfp 1.4%% miss / 437 cy "
              "intr / 95 cy daemon;\n");
  std::printf("gcc 44.5%% miss / 550 cy intr / 927 cy daemon; Section 5.4 projects "
              "10-20%% less with 6-way + swap-to-front\n");

  if (!saw_gcc) {
    std::fprintf(stderr, "FATAL: gcc workload missing from Table 2 suite\n");
    return 1;
  }

  // Section 5.4 pressure run: at the 1/16 sampling density the scaled-down
  // gcc run barely fills the 16K/24K-entry tables between drains — misses
  // are first-touch and no policy can move them. The paper's week-long
  // tables live under capacity pressure; emulate that with much denser
  // CYCLES-only sampling (the same trick the trace-driven ablation uses;
  // CYCLES-only because scaling the IMISS period down this far would make
  // interrupts near-continuous), where the shipped design's extra ways +
  // swap-to-front measurably cut the gcc miss path. These are the numbers
  // the gate and the JSON report.
  std::printf("\n--- Section 5.4 pressure run: gcc, dense sampling "
              "(legacy -> shipped default) ---\n");
  ConfigOutcome pressure_legacy, pressure_shipped;
  {
    const double dense = 1.0 / 128;
    WorkloadFactory legacy_factory(scale, /*seed=*/1);
    pressure_legacy = RunOne(legacy_factory.GccLike(), ProfilingMode::kCycles,
                             /*legacy=*/true, dense);
    WorkloadFactory shipped_factory(scale, /*seed=*/1);
    pressure_shipped = RunOne(shipped_factory.GccLike(), ProfilingMode::kCycles,
                              /*legacy=*/false, dense);
    TextTable table;
    table.SetHeader({"metric", "legacy (1997)", "shipped default"});
    table.AddRow({"miss rate %", TextTable::Percent(100.0 * pressure_legacy.miss_rate, 1),
                  TextTable::Percent(100.0 * pressure_shipped.miss_rate, 1)});
    table.AddRow({"avg intr (cy)", TextTable::Fixed(pressure_legacy.avg_intr, 0),
                  TextTable::Fixed(pressure_shipped.avg_intr, 0)});
    table.AddRow({"miss-path (kcy)",
                  TextTable::Fixed(pressure_legacy.miss_path / 1000.0, 0),
                  TextTable::Fixed(pressure_shipped.miss_path / 1000.0, 0)});
    table.AddRow({"daemon cy/sample",
                  TextTable::Fixed(pressure_legacy.daemon_per_sample, 0),
                  TextTable::Fixed(pressure_shipped.daemon_per_sample, 0)});
    table.Print();
  }

  // Gates: under pressure the shipped default must not regress the gcc
  // miss path (the exact cycles Section 5.4 targets), and the batched
  // daemon must not regress per-sample cost at the paper-comparable rate.
  bool miss_path_ok = pressure_shipped.miss_path <= pressure_legacy.miss_path;
  bool daemon_ok = gcc_shipped.daemon_per_sample <= gcc_legacy.daemon_per_sample;

  char json[1536];
  std::snprintf(json, sizeof(json),
                "{\n"
                "  \"bench\": \"table4_overhead_components\",\n"
                "  \"smoke\": %s,\n"
                "  \"gcc_default_config\": {\n"
                "    \"legacy\": {\"miss_rate\": %.4f, \"avg_intr_cycles\": %.1f,\n"
                "               \"miss_path_cycles\": %llu, \"daemon_cycles_per_sample\": %.1f},\n"
                "    \"shipped\": {\"miss_rate\": %.4f, \"avg_intr_cycles\": %.1f,\n"
                "                \"miss_path_cycles\": %llu, \"daemon_cycles_per_sample\": %.1f}\n"
                "  },\n"
                "  \"gcc_sec54_pressure\": {\n"
                "    \"legacy\": {\"miss_rate\": %.4f, \"miss_path_cycles\": %llu},\n"
                "    \"shipped\": {\"miss_rate\": %.4f, \"miss_path_cycles\": %llu}\n"
                "  },\n"
                "  \"gate_miss_path_not_worse\": %s,\n"
                "  \"gate_daemon_cost_not_worse\": %s\n"
                "}\n",
                smoke ? "true" : "false", gcc_legacy.miss_rate, gcc_legacy.avg_intr,
                static_cast<unsigned long long>(gcc_legacy.miss_path),
                gcc_legacy.daemon_per_sample, gcc_shipped.miss_rate,
                gcc_shipped.avg_intr,
                static_cast<unsigned long long>(gcc_shipped.miss_path),
                gcc_shipped.daemon_per_sample, pressure_legacy.miss_rate,
                static_cast<unsigned long long>(pressure_legacy.miss_path),
                pressure_shipped.miss_rate,
                static_cast<unsigned long long>(pressure_shipped.miss_path),
                miss_path_ok ? "true" : "false", daemon_ok ? "true" : "false");
  std::ofstream("BENCH_table4.json") << json;
  std::printf("\nwrote BENCH_table4.json\n");

  if (!miss_path_ok) {
    std::fprintf(stderr,
                 "GATE FAILED: shipped gcc miss-path cycles %llu > legacy %llu "
                 "(pressure run)\n",
                 static_cast<unsigned long long>(pressure_shipped.miss_path),
                 static_cast<unsigned long long>(pressure_legacy.miss_path));
    return 1;
  }
  if (!daemon_ok) {
    std::fprintf(stderr,
                 "GATE FAILED: shipped gcc daemon cy/sample %.1f > legacy %.1f\n",
                 gcc_shipped.daemon_per_sample, gcc_legacy.daemon_per_sample);
    return 1;
  }
  std::printf("gates passed: gcc miss-path and daemon cost not worse than legacy\n");
  return 0;
}
