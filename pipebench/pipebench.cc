// The repository's pipeline benchmark: one process generates a workload
// from a seed, runs it through the whole DCPI path (workload -> System ->
// driver -> daemon -> profile database -> dcpicheck / dcpiprof), checks
// the outputs, and prints every metric by name and unit. The last line of
// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// A run that completes its plan exits 0 and reports failed gates in that
// object; a bad argument or too few cores exits 2 without a result.
//
//   pipebench --workload NAME --seed N --seconds S --trace 0|1
//             --scratch DIR [--out FILE] [--trace-json FILE]
//
// After setup the timed operations are interleaved, so every metric
// samples the whole run rather than one stretch of it:
//   setup    generate the workload, write its images, build the System and
//            the database, collect the setup epochs. The run continues with
//            the first setup; setup_reps - 1 more, each discarded, are
//            spread over the run. setup_s is the median.
//   collect  an epoch instantiates a fresh copy of the workload, runs it to
//            completion, and rolls the epoch (collect_* workloads).
//   check    dcpicheck over the newest sealed epochs, cold (their .cache
//            moved out) then warm; spread evenly over the run. collect_gcc
//            and analyze_live also repeat the warm check after the
//            measured epochs in between.
//   refresh  analyze_live: an untimed System::Run extends the live epoch
//            and ends in a flush, then dcpicheck of that epoch plus a
//            dcpiprof listing is timed.
// The amount of work is a fixed function of --seconds, so every count is
// identical across runs of one seed and only host times vary.
//
// --trace 1 runs the same plan with spans around each public call the
// benchmark makes and reports the per-layer metrics instead: odd measured
// epochs are traced, even ones run plain, and the difference is the
// tracing overhead. Base-mode re-runs of each epoch, the driver key-trace
// replay and the analysis probes happen only in this mode.

#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "pipebench/trace.h"
#include "src/analysis/engine.h"
#include "src/check/dcpicheck.h"
#include "src/check/image_lint.h"
#include "src/check/selfcheck.h"
#include "src/isa/image_io.h"
#include "src/profiledb/database.h"
#include "src/sim/system.h"
#include "src/tools/dcpicalc.h"
#include "src/tools/dcpiprof.h"
#include "src/workloads/workloads.h"

#ifndef PIPEBENCH_BUILD_TYPE
#define PIPEBENCH_BUILD_TYPE "unknown"
#endif

namespace pipebench {
namespace {

using namespace dcpi;
namespace fs = std::filesystem;

// ---- Plans -----------------------------------------------------------------

struct Plan {
  std::string name;
  bool gcc = false;  // GccLike(12); otherwise Timesharing(cpus)
  uint32_t cpus = 1;
  ProfilingMode mode = ProfilingMode::kDefault;
  double scale = 1.0;
  double mem_fraction = 0.0;
  int setup_reps = 7;  // the first, then the rest spread over the run
  int setup_epochs = 1;    // run-to-completion epochs collected in setup
  int collect_epochs = 0;  // measured epochs
  // analyze_live: setup leaves the last epoch live and the run refreshes
  // it; the measured epochs run on a second System, the collector.
  bool live = false;
  int check_epochs = 0;    // newest sealed epochs dcpicheck covers (0 = all)
  int check_jobs = 2;      // dcpicheck's analysis threads
  int check_reps = 0;      // cold checks, each followed by warm_passes warm ones
  int warm_passes = 3;
  // Warm checks after each measured epoch that runs no cold check, over the
  // epochs the last cold check covered.
  int epoch_warm_passes = 0;
  // Live-epoch refreshes, each after a segment of refresh_cycles
  // simulated cycles.
  int refreshes = 0;
  uint64_t refresh_cycles = 0;
};

int Scaled(double seconds, double per_second, int minimum) {
  return std::max(minimum, static_cast<int>(std::lround(seconds * per_second)));
}

// Counts are sized from --seconds at rates measured on a 4-core host with
// the RelWithDebInfo build; there a 20-second plan runs for 20-55 seconds.
bool MakePlan(const std::string& workload, double seconds, Plan* plan) {
  Plan p;
  p.name = workload;
  if (workload == "collect_gcc") {
    p.gcc = true;
    p.cpus = 1;
    p.mode = ProfilingMode::kDefault;
    p.setup_reps = 5;
    p.setup_epochs = 1;
    p.collect_epochs = Scaled(seconds, 0.7, 4);
    p.check_epochs = 4;
    // A cold check writes a cache entry per procedure, each fsynced; two
    // per run seed the warm checks without making the run's time the disk's.
    p.check_reps = Scaled(seconds, 0.1, 2);
    // A warm check of four gcc epochs takes ~40 ms on one thread; spread
    // over every epoch, the warm passes add up to seconds. On the 4-core
    // reference host, two threads took ~25 or ~42 ms depending on a host
    // state that lasts minutes, which no run can average out.
    p.check_jobs = 1;
    p.warm_passes = 5;
    p.epoch_warm_passes = 5;
  } else if (workload == "collect_mp_mem") {
    p.cpus = 2;
    p.mode = ProfilingMode::kDefault;
    p.scale = 0.1;
    p.mem_fraction = 0.25;
    p.setup_epochs = 1;
    p.collect_epochs = Scaled(seconds, 0.6, 4);
    p.check_epochs = 1;
    p.check_reps = Scaled(seconds, 0.4, 2);
  } else if (workload == "analyze_live") {
    p.cpus = 1;
    p.mode = ProfilingMode::kMux;
    p.scale = 0.05;
    p.live = true;
    p.setup_reps = 4;
    p.setup_epochs = 2;
    p.collect_epochs = Scaled(seconds, 0.6, 4);
    p.check_epochs = 0;
    p.check_reps = Scaled(seconds, 0.15, 3);
    p.epoch_warm_passes = 3;
    p.refreshes = Scaled(seconds, 5.0, 100);
    p.refresh_cycles = 200'000;
  } else {
    return false;
  }
  *plan = p;
  return true;
}

// ---- Small helpers ---------------------------------------------------------

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

// The cores this process may run on, as nproc counts them.
int HostCores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  sched_getaffinity(0, sizeof(set), &set);
  return std::max(1, CPU_COUNT(&set));
}

int64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}
double Median(const std::vector<double>& values) { return Quantile(values, 0.5); }

std::string Num(double value) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc()) return "0";
  std::string s(buf, end);
  if (s == "inf" || s == "-inf" || s == "nan" || s == "-nan") return "0";
  return s;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// Bytes and count of regular files under `dir` whose name ends in `suffix`
// (empty: every file); `skip_cache` leaves out the .cache directories.
void WalkFiles(const std::string& dir, const std::string& suffix, bool skip_cache,
               uint64_t* bytes, uint64_t* files) {
  *bytes = 0;
  *files = 0;
  std::error_code ec;
  fs::recursive_directory_iterator it(dir, ec), end;
  for (; !ec && it != end; it.increment(ec)) {
    const fs::path& path = it->path();
    if (skip_cache && it->is_directory() && path.filename() == ".cache") {
      it.disable_recursion_pending();
      continue;
    }
    std::error_code file_ec;
    if (!it->is_regular_file(file_ec)) continue;
    const std::string name = path.filename().string();
    if (!suffix.empty() &&
        (name.size() < suffix.size() ||
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0)) {
      continue;
    }
    *bytes += it->file_size(file_ec);
    ++*files;
  }
}

// True at the steps of 0..n-1 where `events` evenly spread events fall.
bool Due(int step, int n, int events) {
  return n > 0 && (static_cast<int64_t>(step + 1) * events) / n >
                      (static_cast<int64_t>(step) * events) / n;
}

// ---- The benchmark ---------------------------------------------------------

class Bench {
 public:
  Bench(Plan plan, uint64_t seed, bool trace, std::string root)
      : plan_(std::move(plan)), seed_(seed), trace_(trace), root_(std::move(root)),
        tracer_(trace) {}

  int Main(const std::string& out_file, const std::string& trace_json);

 private:
  struct Setup {
    std::string dir;
    std::string db_root;
    Workload workload;
    std::vector<std::shared_ptr<const ExecutableImage>> images;
    std::vector<std::string> image_files;
    std::unique_ptr<System> system;
  };

  // One timed collection epoch.
  struct EpochTiming {
    double wall_s = 0;
    double cpu_s = 0;
    double run_s = 0;  // System::Run alone
    uint64_t instructions = 0;
    bool traced = false;
  };

  SystemConfig MakeConfig(ProfilingMode mode, const std::string& db_root) const;
  void DoSetup(Setup* setup);
  void RepeatSetup();
  bool SaveImages(Setup* setup);
  System& Measured() { return collector_ ? *collector_ : *setup_.system; }
  EpochTiming RunEpoch(System& system, const Workload& workload, bool traced);
  void CollectEpoch(System& system, const Workload& workload, bool measured);
  std::vector<uint64_t> TraceMarks(System& system);
  void InstallHandler(System& system, bool traced);
  bool CheckLedger(System& system, const char* where);
  uint64_t TotalInstructions(System& system);
  void MoveAside(const std::string& path);
  void RemoveCaches(const std::vector<uint32_t>& epochs);
  std::vector<uint32_t> CheckEpochs();
  std::vector<std::string> FilesWithCycles(const std::vector<uint32_t>& epochs);
  int CheckJobs() const;
  DcpicheckOptions CheckOptions(const std::vector<uint32_t>& epochs,
                                const std::vector<std::string>& files) const;
  void CheckPass(const DcpicheckOptions& options, bool cold);
  void CheckRep();
  void WarmPasses();
  void RunEngineGate(const std::vector<uint32_t>& epochs);
  void Refresh(uint32_t epoch);
  void RunLiveLoop();
  void ProbeCalc();
  std::vector<ProcedureRow> Listing(uint32_t epoch, std::string* text);
  void ProbeCollection();
  void ProbeAnalysis(const std::vector<uint32_t>& epochs);
  void Gate(bool ok, const std::string& what);
  void Report(const std::string& out_file, const std::string& trace_json);

  Plan plan_;
  uint64_t seed_;
  bool trace_;
  std::string root_;
  Tracer tracer_;
  uint32_t run_id_ = 0;

  Setup setup_;
  std::unique_ptr<System> collector_;  // live workloads' measured epochs
  std::unique_ptr<System> base_;  // trace mode: base-mode twin of each epoch

  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint32_t sealed_expected_ = 0;
  uint64_t check_violations_ = 0;
  int setups_ = 0;  // setup repetitions so far
  DcpicheckOptions warm_options_;  // the last cold check's, for warm checks

  std::vector<double> setup_s_;
  std::vector<EpochTiming> epochs_;
  std::vector<double> check_cold_s_, check_warm_s_, refresh_ms_;

  // Trace-mode measurements.
  std::atomic<uint64_t> ingest_records_{0};
  std::vector<double> build_ms_, instantiate_ms_, roll_ms_, base_run_s_;
  std::vector<uint64_t> base_instructions_;
  // Per-CPU key-trace length at the end of each timed epoch (the trace
  // holds narrow samples only: hash hits + misses).
  std::vector<std::vector<uint64_t>> trace_marks_;
  std::map<std::string, double> layer_;  // per-layer metrics
  uint64_t refresh_procs_ = 0, refresh_new_entries_ = 0;
  uint64_t last_samples_ = 0;  // CYCLES samples of the last refresh's listing
  std::vector<ProcedureRow> last_rows_;
  uint32_t refresh_epoch_ = 0;
  uint32_t pac_epoch_ = ~0u;
  uint64_t pac_before_ = 0;
  int measured_ = 0;  // measured epochs so far
  int trashed_ = 0;   // trees moved aside so far
};

SystemConfig Bench::MakeConfig(ProfilingMode mode, const std::string& db_root) const {
  SystemConfig config;
  config.kernel.num_cpus = plan_.cpus;
  config.kernel.seed = seed_;
  config.mode = mode;
  config.rng_seed = static_cast<uint32_t>(seed_);
  config.period_scale = 1.0 / 16;
  config.mem_fraction = mode == ProfilingMode::kBase ? 0.0 : plan_.mem_fraction;
  config.db_root = db_root;
  // Continuous operation with timed flushes; rolls are explicit, one per
  // run-to-completion instance.
  config.daemon_flush_interval = config.daemon_drain_interval;
  config.roll_on_map_change = false;
  config.driver.record_trace = trace_ && mode != ProfilingMode::kBase;
  return config;
}

void Bench::Gate(bool ok, const std::string& what) {
  if (ok) return;
  ++failed_;
  std::fprintf(stderr, "pipebench: gate failed: %s\n", what.c_str());
}

uint64_t Bench::TotalInstructions(System& system) {
  uint64_t total = 0;
  for (uint32_t cpu = 0; cpu < system.kernel().num_cpus(); ++cpu) {
    total += system.kernel().cpu(cpu).stats().instructions;
  }
  return total;
}

// The sample ledger at a seal: every sample the counters delivered is in
// the daemon as attributed or unknown, and the wide-record counts of the
// driver and the daemon agree.
bool Bench::CheckLedger(System& system, const char* where) {
  uint64_t delivered = 0;
  for (uint32_t cpu = 0; cpu < plan_.cpus; ++cpu) {
    for (int e = 0; e < kNumEventTypes; ++e) {
      delivered += system.counters(cpu)->stats().samples[e];
    }
  }
  DaemonStats daemon = system.daemon()->stats();
  const uint64_t driver_wide = system.driver()->TotalStats().wide_records;
  const bool ok = delivered == daemon.samples_attributed + daemon.samples_unknown &&
                  driver_wide == daemon.wide_records;
  Gate(ok, std::string("sample ledger at ") + where + ": delivered " +
               std::to_string(delivered) + ", daemon " +
               std::to_string(daemon.samples_attributed + daemon.samples_unknown) +
               ", wide " + std::to_string(driver_wide) + "/" +
               std::to_string(daemon.wide_records));
  return ok;
}

bool Bench::SaveImages(Setup* setup) {
  fs::create_directories(setup->dir + "/images");
  // Every image the kernel mapped, including /vmunix.
  for (const ImageTruth& truth : setup->system->kernel().ground_truth().images()) {
    std::string file = setup->dir + "/images/image_" +
                       std::to_string(setup->images.size()) + ".img";
    Status saved = SaveImage(*truth.image, file);
    if (!saved.ok()) {
      Gate(false, "save image: " + saved.ToString());
      return false;
    }
    setup->images.push_back(truth.image);
    setup->image_files.push_back(file);
  }
  return true;
}

void Bench::InstallHandler(System& system, bool traced) {
  Daemon* daemon = system.daemon();
  if (!traced) {
    // The daemon's own handler, as its constructor installs it.
    system.driver()->set_overflow_handler(
        [daemon](uint32_t cpu, const std::vector<OverflowRecord>& records) {
          daemon->ProcessBuffer(cpu, records);
        });
    return;
  }
  // Runs on the drain thread in concurrent mode: the tracer and the record
  // counter are thread-safe.
  system.driver()->set_overflow_handler(
      [daemon, this](uint32_t cpu, const std::vector<OverflowRecord>& records) {
        const int64_t start = NowNs();
        daemon->ProcessBuffer(cpu, records);
        tracer_.RecordChild("daemon.ingest", start, NowNs());
        ingest_records_.fetch_add(records.size(), std::memory_order_relaxed);
      });
}

// The setup phase: everything before the timed work, into `setup`.
void Bench::DoSetup(Setup* setup) {
  const int64_t t0 = NowNs();
  setup->dir = root_ + "/setup" + std::to_string(setups_++);
  setup->db_root = setup->dir + "/db";
  fs::create_directories(setup->dir);
  {
    ScopedSpan span(&tracer_, "workloads.build");
    const int64_t b0 = NowNs();
    WorkloadFactory factory(plan_.scale, seed_);
    setup->workload = plan_.gcc ? factory.GccLike(12) : factory.Timesharing(plan_.cpus);
    build_ms_.push_back(static_cast<double>(NowNs() - b0) / 1e6);
  }
  {
    ScopedSpan span(&tracer_, "sim.new");
    setup->system = std::make_unique<System>(MakeConfig(plan_.mode, setup->db_root));
  }
  for (int e = 0; e < plan_.setup_epochs; ++e) {
    CollectEpoch(*setup->system, setup->workload, /*measured=*/false);
    if (e == 0) SaveImages(setup);
  }
  if (plan_.live) {
    // Leave the last epoch live with a first segment in it.
    Status status = setup->workload.Instantiate(setup->system.get());
    Gate(status.ok(), "instantiate live epoch");
    SystemResult result =
        setup->system->Run(setup->system->kernel().ElapsedCycles() + plan_.refresh_cycles);
    Gate(!result.had_error, "live epoch first segment");
  }
  setup_s_.push_back(Seconds(NowNs() - t0));
}

// A later setup repetition, timed like the first and torn down untimed.
// The host changes speed over seconds, so the repetitions are spread over
// the run like the other timed operations instead of running back to back.
void Bench::RepeatSetup() {
  Setup repeat;
  DoSetup(&repeat);
  repeat.system.reset();
  MoveAside(repeat.dir);
}

Bench::EpochTiming Bench::RunEpoch(System& system, const Workload& workload,
                                   bool traced) {
  tracer_.set_run(++run_id_);
  ++attempted_;
  EpochTiming timing;
  timing.traced = traced;
  const uint64_t instructions_before = TotalInstructions(system);
  const int64_t cpu_ns = CpuNs();
  const int64_t wall_ns = NowNs();
  Status status;
  {
    const int32_t span = traced ? tracer_.Begin("kernel.instantiate") : -1;
    const int64_t i0 = NowNs();
    status = workload.Instantiate(&system);
    if (trace_) instantiate_ms_.push_back(static_cast<double>(NowNs() - i0) / 1e6);
    tracer_.End(span);
  }
  Gate(status.ok(), "instantiate: " + status.ToString());
  SystemResult result;
  {
    const int32_t span = traced ? tracer_.Begin("sim.run") : -1;
    const int64_t r0 = NowNs();
    result = system.Run();
    timing.run_s = Seconds(NowNs() - r0);
    tracer_.End(span);
  }
  Gate(!result.had_error, "epoch run had an error");
  {
    const int32_t span = traced ? tracer_.Begin("daemon.roll") : -1;
    const int64_t r0 = NowNs();
    Status rolled = system.RollEpoch();
    if (trace_) roll_ms_.push_back(static_cast<double>(NowNs() - r0) / 1e6);
    tracer_.End(span);
    Gate(rolled.ok(), "roll: " + rolled.ToString());
  }
  timing.wall_s = Seconds(NowNs() - wall_ns);
  timing.cpu_s = Seconds(CpuNs() - cpu_ns);
  timing.instructions = TotalInstructions(system) - instructions_before;
  CheckLedger(system, "epoch seal");
  return timing;
}

// Deleting thousands of files frees blocks that the filesystem may discard
// during later journal commits, slowing the fsyncs of whatever phase comes
// next. Discarded trees are therefore renamed into <root>/trash, which is
// removed with the scratch root after the run.
void Bench::MoveAside(const std::string& path) {
  std::error_code ec;
  if (!fs::exists(path, ec)) return;
  fs::create_directories(root_ + "/trash");
  fs::rename(path, root_ + "/trash/" + std::to_string(trashed_++), ec);
  Gate(!ec, "move aside " + path + ": " + ec.message());
}

// Cold start for the analysis cache: the .cache of every checked epoch
// leaves the database, so each of the check's lookups misses. The live
// epoch keeps its cache, which the refreshes grow.
void Bench::RemoveCaches(const std::vector<uint32_t>& epochs) {
  for (uint32_t epoch : epochs) MoveAside(setup_.system->database()->EpochCacheDir(epoch));
}

std::vector<uint32_t> Bench::CheckEpochs() {
  std::vector<uint32_t> sealed = setup_.system->database()->ListSealedEpochs();
  if (plan_.check_epochs > 0 && sealed.size() > static_cast<size_t>(plan_.check_epochs)) {
    sealed.erase(sealed.begin(), sealed.end() - plan_.check_epochs);
  }
  return sealed;
}

// The image files whose image has a CYCLES profile in every given epoch
// (dcpicheck warns about an image it cannot analyze in some epoch).
std::vector<std::string> Bench::FilesWithCycles(const std::vector<uint32_t>& epochs) {
  const ProfileDatabase& db = *setup_.system->database();
  std::vector<std::string> files;
  for (size_t i = 0; i < setup_.images.size(); ++i) {
    bool everywhere = true;
    for (uint32_t epoch : epochs) {
      const fs::path profile =
          fs::path(db.EpochCacheDir(epoch)).parent_path() /
          ProfileDatabase::ProfileFileName(setup_.images[i]->name(), EventType::kCycles);
      if (!fs::exists(profile)) everywhere = false;
    }
    if (everywhere) files.push_back(setup_.image_files[i]);
  }
  return files;
}

// The plan's thread count, leaving a core for the benchmark's own thread.
int Bench::CheckJobs() const {
  return std::clamp(HostCores() - 1, 1, plan_.check_jobs);
}

DcpicheckOptions Bench::CheckOptions(const std::vector<uint32_t>& epochs,
                                     const std::vector<std::string>& files) const {
  DcpicheckOptions options;
  options.db_root = setup_.db_root;
  options.epochs = epochs;
  options.image_files = files;
  options.jobs = CheckJobs();
  options.use_cache = true;
  return options;
}

// One timed dcpicheck run.
void Bench::CheckPass(const DcpicheckOptions& options, bool cold) {
  tracer_.set_run(++run_id_);
  ++attempted_;
  const int64_t t0 = NowNs();
  CheckReport report;
  {
    ScopedSpan span(&tracer_, "check.dcpicheck");
    report = RunDcpicheck(options);
  }
  (cold ? check_cold_s_ : check_warm_s_).push_back(Seconds(NowNs() - t0));
  check_violations_ += report.violations().size();
  Gate(report.violations().empty(),
       std::string("dcpicheck ") + (cold ? "cold" : "warm") + ":\n" + report.ToString());
}

// A cold dcpicheck over the newest sealed epochs, then warm ones: every
// warm pass finds what the cold one wrote, so they repeat one measurement.
void Bench::CheckRep() {
  const std::vector<uint32_t> epochs = CheckEpochs();
  const std::vector<std::string> files = FilesWithCycles(epochs);
  Gate(!epochs.empty() && !files.empty(), "check has epochs and images");
  warm_options_ = CheckOptions(epochs, files);
  RemoveCaches(epochs);
  CheckPass(warm_options_, /*cold=*/true);
  for (int pass = 0; pass < plan_.warm_passes; ++pass) CheckPass(warm_options_, false);
}

// The warm checks after a measured epoch, over the epochs the last cold
// check covered.
void Bench::WarmPasses() {
  if (warm_options_.epochs.empty()) return;
  for (int pass = 0; pass < plan_.epoch_warm_passes; ++pass) CheckPass(warm_options_, false);
}

AnalysisConfig CheckedConfig() {
  AnalysisConfig config;
  config.selfcheck = true;  // as RunDcpicheck sets it: the same cache keys
  return config;
}

AnalyzeFn CheckedFn() {
  return [](const ExecutableImage& image, const ProcedureSymbol& proc,
            const ImageProfile& cycles, const ImageProfile* imiss,
            const ImageProfile* dmiss, const ImageProfile* branchmp,
            const ImageProfile* dtbmiss, const AnalysisConfig& config,
            AnalysisScratch* scratch) {
    return AnalyzeProcedureChecked(image, proc, cycles, imiss, dmiss, branchmp,
                                   dtbmiss, config, scratch);
  };
}

std::vector<std::shared_ptr<const ExecutableImage>> ImagesOf(
    const std::vector<std::string>& files,
    const std::vector<std::string>& all_files,
    const std::vector<std::shared_ptr<const ExecutableImage>>& all_images) {
  std::vector<std::shared_ptr<const ExecutableImage>> images;
  for (const std::string& file : files) {
    for (size_t i = 0; i < all_files.size(); ++i) {
      if (all_files[i] == file) images.push_back(all_images[i]);
    }
  }
  return images;
}

// Warm results are byte-identical to cold ones and every warm lookup hits.
void Bench::RunEngineGate(const std::vector<uint32_t>& epochs) {
  const auto images = ImagesOf(FilesWithCycles(epochs), setup_.image_files, setup_.images);
  ProfileDatabase db(setup_.db_root, DbOpenMode::kReadOnly);
  DatabaseAnalysisOptions options;
  options.epochs = epochs;
  EngineOptions engine_options;
  engine_options.jobs = CheckJobs();
  engine_options.analyze = CheckedFn();
  AnalysisEngine engine(engine_options);
  RemoveCaches(epochs);
  attempted_ += 2;
  DatabaseAnalysis cold, warm;
  {
    const int64_t t0 = NowNs();
    cold = engine.AnalyzeDatabase(db, images, CheckedConfig(), options);
    if (trace_) layer_["probe.cold_ms"] = static_cast<double>(NowNs() - t0) / 1e6;
  }
  {
    const int64_t t0 = NowNs();
    warm = engine.AnalyzeDatabase(db, images, CheckedConfig(), options);
    if (trace_) {
      layer_["analysis.cache_read_ms"] = static_cast<double>(NowNs() - t0) / 1e6;
      const double lookups = static_cast<double>(warm.cache_hits + warm.cache_misses);
      layer_["analysis.warm_hit_ratio"] =
          lookups == 0 ? 0 : static_cast<double>(warm.cache_hits) / lookups;
    }
  }
  size_t procs = 0;
  bool identical = cold.per_epoch.size() == warm.per_epoch.size();
  for (size_t e = 0; identical && e < cold.per_epoch.size(); ++e) {
    const auto& a = cold.per_epoch[e].analysis.procedures;
    const auto& b = warm.per_epoch[e].analysis.procedures;
    identical = a.size() == b.size();
    for (size_t p = 0; identical && p < a.size(); ++p) {
      ++procs;
      identical = a[p].status.ok() && b[p].status.ok() && b[p].from_cache &&
                  SerializeProcedureAnalysis(a[p].analysis) ==
                      SerializeProcedureAnalysis(b[p].analysis);
    }
  }
  Gate(procs > 0 && identical, "warm results byte-identical to cold");
  Gate(warm.cache_misses == 0 && warm.cache_hits == procs,
       "every warm lookup hits (" + std::to_string(warm.cache_hits) + " hits, " +
           std::to_string(warm.cache_misses) + " misses)");
}

// dcpiprof's procedure listing of one epoch, as the tool builds it.
std::vector<ProcedureRow> Bench::Listing(uint32_t epoch, std::string* text) {
  std::unique_ptr<ProfileDatabase> db;
  {
    ScopedSpan span(&tracer_, "profiledb.open");
    db = std::make_unique<ProfileDatabase>(setup_.db_root, DbOpenMode::kReadOnly);
  }
  std::vector<ImageProfile> profiles;
  profiles.reserve(setup_.images.size() * 2);
  std::vector<ProfInput> inputs;
  {
    ScopedSpan span(&tracer_, "profiledb.read");
    for (const auto& image : setup_.images) {
      Result<ImageProfile> cycles = db->ReadProfile(epoch, image->name(), EventType::kCycles);
      if (!cycles.ok()) continue;
      profiles.push_back(std::move(cycles.value()));
      ProfInput input;
      input.image = image;
      input.cycles = &profiles.back();
      Result<ImageProfile> imiss = db->ReadProfile(epoch, image->name(), EventType::kImiss);
      if (imiss.ok()) {
        profiles.push_back(std::move(imiss.value()));
        input.secondary = &profiles.back();
      }
      inputs.push_back(input);
    }
  }
  ScopedSpan span(&tracer_, "tools.prof");
  std::vector<ProcedureRow> rows = ListProcedures(inputs);
  *text = FormatProcedureListing(rows, "imiss");
  return rows;
}

// One refresh of `epoch` right after a flush: dcpicheck of the epoch plus
// a dcpiprof listing, timed together.
void Bench::Refresh(uint32_t epoch) {
  tracer_.set_run(++run_id_);
  ++attempted_;
  const std::vector<std::string> files = FilesWithCycles({epoch});
  const int64_t t0 = NowNs();
  CheckReport report;
  {
    ScopedSpan span(&tracer_, "check.dcpicheck");
    report = RunDcpicheck(CheckOptions({epoch}, files));
  }
  std::string listing;
  last_rows_ = Listing(epoch, &listing);
  refresh_ms_.push_back(static_cast<double>(NowNs() - t0) / 1e6);
  refresh_epoch_ = epoch;
  check_violations_ += report.violations().size();
  Gate(report.violations().empty(), "refresh dcpicheck:\n" + report.ToString());
  uint64_t samples = 0;
  for (const ProcedureRow& row : last_rows_) samples += row.cycles_samples;
  Gate(!listing.empty() && samples > last_samples_,
       "refresh listing grows (" + std::to_string(samples) + " samples)");
  last_samples_ = samples;
  if (!trace_) return;
  // A miss writes one new .pac entry; every other lookup hit.
  uint64_t pac = 0, pac_bytes = 0;
  WalkFiles(setup_.system->database()->EpochCacheDir(epoch), ".pac", false, &pac_bytes,
            &pac);
  if (epoch != pac_epoch_) pac_before_ = 0;
  pac_epoch_ = epoch;
  for (const auto& image : ImagesOf(files, setup_.image_files, setup_.images)) {
    refresh_procs_ += image->procedures().size();
  }
  refresh_new_entries_ += pac - pac_before_;
  pac_before_ = pac;
}

// analyze_live's loop: refreshes of the live epoch, each after an untimed
// segment that ends in a flush, with checks and measured epochs spread
// between them.
void Bench::RunLiveLoop() {
  System& system = *setup_.system;
  const uint32_t live = system.database()->current_epoch();
  // One live process per process of the workload: when one ends, a fresh
  // copy of it starts, so every image stays active, the run queue keeps its
  // length, and each refresh re-analyzes every image.
  const std::vector<ProcessSpec>& specs = setup_.workload.processes;
  const auto& all = system.kernel().processes();
  std::vector<Process*> live_processes;
  for (size_t i = all.size() - specs.size(); i < all.size(); ++i) {
    live_processes.push_back(all[i].get());
  }
  // The collector runs the same workload in epochs of its own, spread over
  // the loop, after one unmeasured warm-up epoch.
  collector_ = std::make_unique<System>(MakeConfig(plan_.mode, root_ + "/collector"));
  CollectEpoch(*collector_, setup_.workload, /*measured=*/false);
  last_samples_ = 0;
  for (int r = 0; r < plan_.refreshes; ++r) {
    // Cold checks lead their share of the loop, so the warm passes after
    // each collector epoch find a cache from the first refresh on.
    if (Due(plan_.refreshes - 1 - r, plan_.refreshes, plan_.check_reps)) CheckRep();
    if (Due(r, plan_.refreshes, plan_.collect_epochs)) {
      CollectEpoch(*collector_, setup_.workload, /*measured=*/true);
      WarmPasses();
    }
    if (Due(r, plan_.refreshes, plan_.setup_reps - 1)) RepeatSetup();
    for (size_t i = 0; i < specs.size(); ++i) {
      if (live_processes[i]->state() != ProcessState::kDone) continue;
      ScopedSpan span(&tracer_, "kernel.create_process");
      Result<Process*> process =
          system.AddProcess(specs[i].name, specs[i].images, specs[i].entry_proc);
      Gate(process.ok(), "refresh respawn: " + process.status().ToString());
      if (process.ok()) live_processes[i] = process.value();
    }
    SystemResult result;
    {
      ScopedSpan span(&tracer_, "sim.run");
      result = system.Run(system.kernel().ElapsedCycles() + plan_.refresh_cycles);
    }
    Gate(!result.had_error, "refresh segment had an error");
    Refresh(live);
  }
}

// Trace mode: dcpicalc's listing of the last refreshed epoch's hottest
// named procedure.
void Bench::ProbeCalc() {
  ProfileDatabase db(setup_.db_root, DbOpenMode::kReadOnly);
  for (const ProcedureRow& row : last_rows_) {
    const ExecutableImage* image = nullptr;
    for (const auto& candidate : setup_.images) {
      if (candidate->name() == row.image) image = candidate.get();
    }
    const ProcedureSymbol* proc =
        image == nullptr ? nullptr : image->FindProcedureByName(row.procedure);
    if (proc == nullptr) continue;  // "<anonymous>" rows
    Result<ImageProfile> cycles = db.ReadProfile(refresh_epoch_, row.image, EventType::kCycles);
    if (!cycles.ok()) continue;
    Result<ProcedureAnalysis> analysis = AnalyzeProcedure(
        *image, *proc, cycles.value(), nullptr, nullptr, nullptr, nullptr, AnalysisConfig());
    Gate(analysis.ok(), "analysis of the hottest procedure");
    if (!analysis.ok()) return;
    std::vector<double> ms;
    for (int i = 0; i < 20; ++i) {
      ScopedSpan span(&tracer_, "tools.calc");
      const int64_t t0 = NowNs();
      const std::string text = FormatCalcListing(*image, analysis.value());
      ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
      Gate(!text.empty(), "dcpicalc listing");
    }
    layer_["tools.calc_ms"] = Median(ms);
    return;
  }
}

std::vector<uint64_t> Bench::TraceMarks(System& system) {
  std::vector<uint64_t> marks;
  for (uint32_t cpu = 0; cpu < plan_.cpus; ++cpu) {
    const DriverCpuStats& stats = system.driver()->cpu_stats(cpu);
    marks.push_back(stats.hash_hits + stats.hash_misses);
  }
  return marks;
}

// A measured epoch supplies the collection-rate metrics. In trace mode
// measured epochs alternate plain and traced, and each one also runs as a
// base-mode twin (the simulator alone) and leaves a key-trace mark.
void Bench::CollectEpoch(System& system, const Workload& workload, bool measured) {
  const bool traced = trace_ && (!measured || measured_ % 2 == 1);
  if (trace_) InstallHandler(system, traced);
  if (trace_ && measured && trace_marks_.empty()) trace_marks_.push_back(TraceMarks(system));
  EpochTiming timing = RunEpoch(system, workload, traced);
  if (!measured) return;
  ++measured_;
  epochs_.push_back(timing);
  if (!trace_) return;
  trace_marks_.push_back(TraceMarks(system));
  if (base_ == nullptr) base_ = std::make_unique<System>(MakeConfig(ProfilingMode::kBase, ""));
  Status status = workload.Instantiate(base_.get());
  Gate(status.ok(), "base instantiate");
  const uint64_t before = TotalInstructions(*base_);
  ScopedSpan span(&tracer_, "probe.sim.base_run");
  const int64_t t0 = NowNs();
  SystemResult result = base_->Run();
  base_run_s_.push_back(Seconds(NowNs() - t0));
  base_instructions_.push_back(TotalInstructions(*base_) - before);
  Gate(!result.had_error, "base run had an error");
}

int Bench::Main(const std::string& out_file, const std::string& trace_json) {
  DoSetup(&setup_);
  sealed_expected_ = plan_.setup_epochs;
  // The timed operations are interleaved, so every metric samples the whole
  // run rather than one stretch of it.
  if (plan_.live) {
    RunLiveLoop();
  } else {
    for (int e = 0; e < plan_.collect_epochs; ++e) {
      CollectEpoch(*setup_.system, setup_.workload, /*measured=*/true);
      ++sealed_expected_;
      if (Due(e, plan_.collect_epochs, plan_.check_reps)) {
        CheckRep();
      } else {
        WarmPasses();
      }
      if (Due(e, plan_.collect_epochs, plan_.setup_reps - 1)) RepeatSetup();
    }
  }
  if (trace_) {
    InstallHandler(*setup_.system, true);
    ProbeCollection();
    ProbeAnalysis(CheckEpochs());
    ProbeCalc();
    layer_["analysis.refresh_hit_ratio"] =
        refresh_procs_ == 0 ? 0
                            : 1.0 - static_cast<double>(refresh_new_entries_) /
                                        static_cast<double>(refresh_procs_);
  }
  RunEngineGate(CheckEpochs());

  {
    ScopedSpan span(&tracer_, "daemon.roll");
    Status sealed = setup_.system->SealCurrentEpoch();
    Gate(sealed.ok(), "final seal: " + sealed.ToString());
  }
  if (plan_.live) ++sealed_expected_;  // the live epoch
  CheckLedger(*setup_.system, "final seal");
  {
    ProfileDatabase db(setup_.db_root, DbOpenMode::kReadOnly);
    const size_t sealed = db.ListSealedEpochs().size();
    Gate(sealed == sealed_expected_, "sealed epochs: " + std::to_string(sealed) +
                                         " of " + std::to_string(sealed_expected_));
  }
  Gate(setup_.system->daemon()->stats().db_write_failures == 0, "db_write_failures");
  // The run completed: failed gates are in the result, not the exit code.
  Report(out_file, trace_json);
  return 0;
}

// Trace mode: replays each measured epoch's recorded key trace through a
// fresh driver (hash table and overflow path alone).
void Bench::ProbeCollection() {
  if (trace_marks_.size() < 2) return;
  DcpiDriver* driver = Measured().driver();
  const std::vector<SampleKey> trace = driver->Trace();
  // Trace() concatenates the per-CPU streams in CPU order, each capped.
  DriverConfig config = MakeConfig(plan_.mode, "").driver;
  const uint64_t cap = config.max_trace_samples;
  config.record_trace = false;
  std::vector<uint64_t> cpu_begin(plan_.cpus, 0);
  uint64_t offset = 0;
  for (uint32_t cpu = 0; cpu < plan_.cpus; ++cpu) {
    cpu_begin[cpu] = offset;
    const DriverCpuStats& stats = driver->cpu_stats(cpu);
    offset += std::min(cap, stats.hash_hits + stats.hash_misses);
  }
  Gate(offset == trace.size(), "driver key trace length");
  if (offset != trace.size()) return;
  int64_t replay_ns = 0;
  uint64_t replayed = 0;
  for (size_t e = 1; e < trace_marks_.size(); ++e) {
    DcpiDriver fresh(plan_.cpus, config);
    uint64_t records = 0;
    fresh.set_overflow_handler(
        [&records](uint32_t, const std::vector<OverflowRecord>& batch) {
          records += batch.size();
        });
    ScopedSpan span(&tracer_, "probe.driver.replay");
    const int64_t t0 = NowNs();
    for (uint32_t cpu = 0; cpu < plan_.cpus; ++cpu) {
      const uint64_t lo = std::min(cap, trace_marks_[e - 1][cpu]);
      const uint64_t hi = std::min(cap, trace_marks_[e][cpu]);
      for (uint64_t i = lo; i < hi; ++i) {
        const SampleKey& key = trace[cpu_begin[cpu] + i];
        fresh.DeliverSample(cpu, key.pid, key.pc, key.event);
      }
      replayed += hi - lo;
    }
    fresh.FlushAll();
    replay_ns += NowNs() - t0;
    Gate(records > 0 || replayed == 0, "replay reaches the overflow handler");
  }
  layer_["driver.replay_ns_per_sample"] =
      replayed == 0 ? 0 : static_cast<double>(replay_ns) / static_cast<double>(replayed);
}

// Trace mode: the analysis, check and profiledb layers measured one call
// at a time over the check phase's epochs.
void Bench::ProbeAnalysis(const std::vector<uint32_t>& epochs) {
  const auto images = ImagesOf(FilesWithCycles(epochs), setup_.image_files, setup_.images);
  std::vector<double> open_ms;
  for (int i = 0; i < 5; ++i) {
    ScopedSpan span(&tracer_, "probe.profiledb.open");
    const int64_t t0 = NowNs();
    ProfileDatabase db(setup_.db_root, DbOpenMode::kReadOnly);
    open_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
  }
  layer_["profiledb.open_ms"] = Median(open_ms);
  ProfileDatabase db(setup_.db_root, DbOpenMode::kReadOnly);

  // Every (epoch, image, event) profile.
  {
    ScopedSpan span(&tracer_, "probe.profiledb.read");
    const int64_t t0 = NowNs();
    uint64_t reads = 0;
    for (uint32_t epoch : db.ListEpochs()) {
      for (const auto& image : setup_.images) {
        for (int e = 0; e < kNumEventTypes; ++e) {
          reads += db.ReadProfile(epoch, image->name(), static_cast<EventType>(e)).ok();
        }
      }
    }
    layer_["profiledb.read_ms"] = static_cast<double>(NowNs() - t0) / 1e6;
    Gate(reads > 0, "profiledb reads");
  }

  // Cache keys: image content and profile-set CRCs of every input.
  {
    std::vector<ImageProfile> profiles;
    profiles.reserve(epochs.size() * images.size() * kNumEventTypes);
    std::vector<AnalysisInput> inputs;
    for (uint32_t epoch : epochs) {
      for (const auto& image : images) {
        AnalysisInput input;
        input.image = image;
        const ImageProfile** slots[kNumEventTypes] = {&input.cycles, &input.imiss,
                                                      &input.dmiss, &input.branchmp,
                                                      &input.dtbmiss};
        for (int e = 0; e < kNumEventTypes; ++e) {
          Result<ImageProfile> profile =
              db.ReadProfile(epoch, image->name(), static_cast<EventType>(e));
          if (!profile.ok()) continue;
          profiles.push_back(std::move(profile.value()));
          *slots[e] = &profiles.back();
        }
        inputs.push_back(input);
      }
    }
    ScopedSpan span(&tracer_, "probe.analysis.key");
    const int64_t t0 = NowNs();
    for (const AnalysisInput& input : inputs) {
      ImageContentCrc(*input.image);
      ProfileSetCrc(input);
    }
    layer_["analysis.key_ms"] = static_cast<double>(NowNs() - t0) / 1e6;
  }

  {
    ScopedSpan span(&tracer_, "probe.check.lint");
    const int64_t t0 = NowNs();
    CheckReport lint;
    for (const auto& image : images) LintImage(*image, &lint);
    layer_["check.lint_ms"] = static_cast<double>(NowNs() - t0) / 1e6;
    Gate(lint.ok(), "image lint");
  }

  const int jobs = CheckJobs();
  DatabaseAnalysisOptions no_cache;
  no_cache.epochs = epochs;
  no_cache.use_cache = false;
  DatabaseAnalysis plain;
  {
    EngineOptions options;
    options.jobs = jobs;
    AnalysisEngine engine(options);
    ScopedSpan span(&tracer_, "probe.analysis.nocache");
    const int64_t t0 = NowNs();
    plain = engine.AnalyzeDatabase(db, images, AnalysisConfig(), no_cache);
    const double s = Seconds(NowNs() - t0);
    uint64_t procs = 0, failures = 0;
    for (const auto& epoch : plain.per_epoch) {
      for (const ProcedureResult& result : epoch.analysis.procedures) {
        ++procs;
        failures += !result.status.ok();
      }
    }
    layer_["analysis.procs_per_s"] = s > 0 ? static_cast<double>(procs) / s : 0;
    layer_["analysis.proc_failures"] = static_cast<double>(failures);
  }
  {
    ScopedSpan span(&tracer_, "probe.check.verify");
    const int64_t t0 = NowNs();
    uint64_t procs = 0;
    CheckReport report;
    for (const auto& epoch : plain.per_epoch) {
      for (const ProcedureResult& result : epoch.analysis.procedures) {
        if (!result.status.ok()) continue;
        const ExecutableImage* image = nullptr;
        for (const auto& candidate : images) {
          if (candidate->name() == result.image_name) image = candidate.get();
        }
        Result<ImageProfile> cycles =
            db.ReadProfile(epoch.epoch, result.image_name, EventType::kCycles);
        if (image == nullptr || !cycles.ok()) continue;
        VerifyAnalysis(*image, result.proc, result.analysis, cycles.value().mean_period(),
                       &report);
        ++procs;
      }
    }
    layer_["check.verify_us_per_proc"] =
        procs == 0 ? 0 : static_cast<double>(NowNs() - t0) / 1e3 / static_cast<double>(procs);
    Gate(report.violations().empty(), "VerifyAnalysis:\n" + report.ToString());
  }
  {
    EngineOptions options;
    options.jobs = jobs;
    options.analyze = CheckedFn();
    AnalysisEngine engine(options);
    ScopedSpan span(&tracer_, "probe.analysis.nocache_checked");
    const int64_t t0 = NowNs();
    engine.AnalyzeDatabase(db, images, CheckedConfig(), no_cache);
    layer_["probe.nocache_checked_ms"] = static_cast<double>(NowNs() - t0) / 1e6;
  }
}

void Bench::Report(const std::string& out_file, const std::string& trace_json) {
  System& system = *setup_.system;
  std::vector<Metric> metrics;
  auto add = [&metrics](const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  };

  // Counts shared by both modes.
  uint64_t delivered = 0;
  uint64_t samples[kNumEventTypes] = {};
  uint64_t wide = 0, deferred = 0;
  for (uint32_t cpu = 0; cpu < plan_.cpus; ++cpu) {
    const PerfCountersStats& stats = system.counters(cpu)->stats();
    for (int e = 0; e < kNumEventTypes; ++e) {
      samples[e] += stats.samples[e];
      delivered += stats.samples[e];
    }
    wide += stats.wide_samples;
    deferred += stats.deferred_deliveries;
  }
  const DriverCpuStats driver = system.driver()->TotalStats();
  const DaemonStats daemon = system.daemon()->stats();
  const double modelled =
      delivered == 0 ? 0
                     : static_cast<double>(driver.handler_cycles + daemon.daemon_cycles) /
                           static_cast<double>(delivered);
  uint64_t pac_bytes = 0, pac_files = 0;
  WalkFiles(setup_.db_root, ".pac", false, &pac_bytes, &pac_files);

  // Collection rates aggregate the measured epochs: this host alternates
  // between a fast and a slow mode within seconds, and the median of a
  // two-mode sample flips between them from run to run.
  std::vector<double> rate;  // per epoch, for the results file
  double instructions_m = 0, wall_s = 0, cpu_s = 0;
  for (const EpochTiming& epoch : epochs_) {
    if (trace_ && epoch.traced) continue;  // the plain epochs match the untraced run
    rate.push_back(static_cast<double>(epoch.instructions) / 1e6 / epoch.wall_s);
    instructions_m += static_cast<double>(epoch.instructions) / 1e6;
    wall_s += epoch.wall_s;
    cpu_s += epoch.cpu_s;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);

  if (!trace_) {
    add("setup_s", Median(setup_s_), "s");
    add("collect_minst_per_s", wall_s > 0 ? instructions_m / wall_s : 0, "Minst/s");
    add("collect_minst_per_cpu_s", cpu_s > 0 ? instructions_m / cpu_s : 0, "Minst/CPU-s");
    add("modelled_cycles_per_sample", modelled, "cycles");
    add("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MiB");
    add("check_warm_s", Median(check_warm_s_), "s");
    add("cache_mb", static_cast<double>(pac_bytes) / (1024.0 * 1024.0), "MiB");
  } else {
    uint64_t instructions = 0, mispredicts = 0;
    uint64_t icache = 0, dcache = 0, board = 0, dtb = 0;
    for (uint32_t cpu = 0; cpu < plan_.cpus; ++cpu) {
      Cpu& c = system.kernel().cpu(cpu);
      instructions += c.stats().instructions;
      mispredicts += c.stats().mispredicts;
      icache += c.memory().icache().stats().misses;
      dcache += c.memory().dcache().stats().misses;
      board += c.memory().board().stats().misses;
      dtb += c.memory().dtb().stats().misses;
    }
    std::vector<double> base_rate, overhead_pct, run_ms, traced_wall, plain_wall;
    for (size_t e = 0; e < base_run_s_.size(); ++e) {
      base_rate.push_back(static_cast<double>(base_instructions_[e]) / 1e6 / base_run_s_[e]);
      const EpochTiming& epoch = epochs_[e];
      overhead_pct.push_back((epoch.run_s - base_run_s_[e]) / base_run_s_[e] * 100.0);
    }
    for (const EpochTiming& epoch : epochs_) {
      run_ms.push_back(epoch.run_s * 1e3);
      (epoch.traced ? traced_wall : plain_wall)
          .push_back(epoch.wall_s / static_cast<double>(epoch.instructions));
    }
    // Tracing overhead: traced against plain measured epochs of this run,
    // per instruction.
    const double overhead =
        traced_wall.empty() || plain_wall.empty()
            ? 0
            : (Median(traced_wall) / Median(plain_wall) - 1.0) * 100.0;
    const HashTableStats table = system.driver()->TotalTableStats();
    uint64_t db_bytes = 0, db_files = 0, prof_bytes = 0, prof_files = 0;
    WalkFiles(setup_.db_root, "", true, &db_bytes, &db_files);
    WalkFiles(setup_.db_root, ".prof", true, &prof_bytes, &prof_files);
    uint64_t ingest_spans = 0;
    const double ingest_ms = tracer_.TotalMs("daemon.ingest", &ingest_spans);
    const uint64_t ingest_records = ingest_records_.load();

    add("workloads.build_ms", Median(build_ms_), "ms");
    add("kernel.instantiate_ms", Median(instantiate_ms_), "ms");
    add("kernel.processes_retained",
        static_cast<double>(system.kernel().processes().size()), "count");
    add("sim.base_minst_per_s", Median(base_rate), "Minst/s");
    add("sim.run_ms", Median(run_ms), "ms");
    add("collect.host_overhead_pct", Median(overhead_pct), "%");
    add("cpu.instructions", static_cast<double>(instructions), "count");
    add("cpu.elapsed_cycles", static_cast<double>(system.kernel().ElapsedCycles()), "cycles");
    add("cpu.mispredicts", static_cast<double>(mispredicts), "count");
    add("memory.icache_misses", static_cast<double>(icache), "count");
    add("memory.dcache_misses", static_cast<double>(dcache), "count");
    add("memory.board_misses", static_cast<double>(board), "count");
    add("memory.dtb_misses", static_cast<double>(dtb), "count");
    for (int e = 0; e < kNumEventTypes; ++e) {
      std::string name = EventTypeName(static_cast<EventType>(e));
      std::transform(name.begin(), name.end(), name.begin(),
                     [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
      add("perfctr.samples." + name, static_cast<double>(samples[e]), "count");
    }
    add("perfctr.wide_samples", static_cast<double>(wide), "count");
    add("perfctr.deferred", static_cast<double>(deferred), "count");
    add("driver.replay_ns_per_sample", layer_["driver.replay_ns_per_sample"], "ns");
    const double lookups = static_cast<double>(driver.hash_hits + driver.hash_misses);
    add("driver.hash_hit_ratio",
        lookups == 0 ? 0 : static_cast<double>(driver.hash_hits) / lookups, "ratio");
    add("driver.probe_depth", table.AvgProbeDepth(), "entries");
    add("driver.overflow_flushes", static_cast<double>(driver.overflow_buffer_flushes),
        "count");
    add("driver.publish_waits", static_cast<double>(driver.publish_waits), "count");
    add("driver.handler_cycles_per_sample", driver.AvgInterruptCost(), "cycles");
    add("daemon.ingest_ns_per_record",
        ingest_records == 0 ? 0 : ingest_ms * 1e6 / static_cast<double>(ingest_records),
        "ns");
    add("daemon.roll_ms", Median(roll_ms_), "ms");
    add("daemon.records", static_cast<double>(daemon.records_processed), "count");
    add("daemon.ingest_groups", static_cast<double>(daemon.ingest_groups), "count");
    add("daemon.wide_records", static_cast<double>(daemon.wide_records), "count");
    const double daemon_samples =
        static_cast<double>(daemon.samples_attributed + daemon.samples_unknown);
    add("daemon.attributed_ratio",
        daemon_samples == 0 ? 0 : static_cast<double>(daemon.samples_attributed) / daemon_samples,
        "ratio");
    add("daemon.db_write_retries", static_cast<double>(daemon.db_write_retries), "count");
    add("daemon.db_write_failures", static_cast<double>(daemon.db_write_failures), "count");
    add("daemon.cycles_per_sample",
        daemon_samples == 0 ? 0 : static_cast<double>(daemon.daemon_cycles) / daemon_samples,
        "cycles");
    add("profiledb.open_ms", layer_["profiledb.open_ms"], "ms");
    add("profiledb.read_ms", layer_["profiledb.read_ms"], "ms");
    add("profiledb.bytes_written", static_cast<double>(system.database()->bytes_written()),
        "bytes");
    add("profiledb.files", static_cast<double>(prof_files), "count");
    add("profiledb.db_mb", static_cast<double>(db_bytes) / (1024.0 * 1024.0), "MiB");
    add("analysis.procs_per_s", layer_["analysis.procs_per_s"], "1/s");
    add("analysis.key_ms", layer_["analysis.key_ms"], "ms");
    add("analysis.cache_write_ms",
        layer_["probe.cold_ms"] - layer_["probe.nocache_checked_ms"], "ms");
    add("analysis.cache_read_ms", layer_["analysis.cache_read_ms"], "ms");
    add("analysis.warm_hit_ratio", layer_["analysis.warm_hit_ratio"], "ratio");
    add("analysis.refresh_hit_ratio", layer_["analysis.refresh_hit_ratio"], "ratio");
    add("analysis.proc_failures", layer_["analysis.proc_failures"], "count");
    add("analysis.cache_files", static_cast<double>(pac_files), "count");
    add("check.verify_us_per_proc", layer_["check.verify_us_per_proc"], "us");
    add("check.lint_ms", layer_["check.lint_ms"], "ms");
    add("check.violations", static_cast<double>(check_violations_), "count");
    // Cache-entry writes fsync to the checkout's disk, whose latency swings
    // several-fold between runs: these wall times have no bound.
    add("check.cold_s", Median(check_cold_s_), "s");
    add("refresh.p50_ms", Quantile(refresh_ms_, 0.5), "ms");
    add("refresh.p90_ms", Quantile(refresh_ms_, 0.9), "ms");
    uint64_t prof_spans = 0;
    const double prof_ms = tracer_.TotalMs("tools.prof", &prof_spans);
    add("tools.prof_ms", prof_spans == 0 ? 0 : prof_ms / static_cast<double>(prof_spans), "ms");
    add("tools.calc_ms", layer_["tools.calc_ms"], "ms");
    add("trace.overhead_pct", overhead, "%");
    add("trace.spans", static_cast<double>(tracer_.Snapshot().size()), "count");

    std::printf("\nper-layer self time (traced run; span minus its child spans):\n");
    std::printf("  %-10s %8s %12s %12s\n", "layer", "spans", "total_ms", "self_ms");
    const auto layers = tracer_.SelfTimeByLayer();
    for (const auto& [layer, time] : layers) {
      std::printf("  %-10s %8llu %12.1f %12.1f\n", layer.c_str(),
                  static_cast<unsigned long long>(time.spans), time.total_ms, time.self_ms);
    }
    for (const char* layer :
         {"workloads", "kernel", "sim", "daemon", "profiledb", "check", "tools", "probe"}) {
      auto it = layers.find(layer);
      add(std::string("self_ms.") + layer, it == layers.end() ? 0 : it->second.self_ms, "ms");
    }
    std::printf(
        "  not measurable from outside the program: driver and analysis self time\n"
        "  (the interrupt handler runs inside sim.run, the engine inside\n"
        "  check.dcpicheck); the probe.* spans measure them one call at a time.\n");
  }

  std::printf("\npipebench %s seed %llu (%s run): %llu attempted, %llu failed\n",
              plan_.name.c_str(), static_cast<unsigned long long>(seed_),
              trace_ ? "traced" : "untraced", static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (const Metric& m : metrics) {
    std::printf("  %-34s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const std::string host = "{\"nproc\": " +
                           std::to_string(HostCores()) +
                           ", \"compiler\": \"" + std::string(__VERSION__) +
                           "\", \"build_type\": \"" + PIPEBENCH_BUILD_TYPE + "\"}";
  std::printf("host: %s\n", host.c_str());

  std::string json = "{\"correct\": " + std::string(failed_ == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted_) +
                     ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "" : ", ") + std::string("\"") + metrics[i].name +
            "\": {\"value\": " + Num(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  if (!out_file.empty()) {
    // The per-operation samples behind the medians, for diagnosing spread.
    auto series = [](const std::vector<double>& values) {
      std::string list = "[";
      for (size_t i = 0; i < values.size(); ++i) list += (i ? ", " : "") + Num(values[i]);
      return list + "]";
    };
    std::ofstream out(out_file);
    out << "{\"workload\": \"" << plan_.name << "\", \"seed\": " << seed_
        << ", \"trace\": " << (trace_ ? 1 : 0) << ", \"host\": " << host
        << ", \"series\": {\"setup_s\": "
        << series(setup_s_) << ", \"epoch_minst_per_s\": " << series(rate)
        << ", \"check_cold_s\": " << series(check_cold_s_)
        << ", \"check_warm_s\": " << series(check_warm_s_)
        << ", \"refresh_ms\": " << series(refresh_ms_) << "}, \"result\": " << json
        << "}\n";
  }
  if (trace_ && !trace_json.empty()) {
    std::ofstream out(trace_json);
    out << tracer_.ToJson();
  }
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Usage() {
  std::fprintf(stderr,
               "usage: pipebench --workload collect_gcc|collect_mp_mem|analyze_live "
               "--seed N --seconds S --trace 0|1 --scratch DIR [--out FILE] "
               "[--trace-json FILE]\n");
  return 2;
}

}  // namespace
}  // namespace pipebench

int main(int argc, char** argv) {
  std::string workload, scratch, out_file, trace_json;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return pipebench::Usage();
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, &end);
      if (*end != '\0') return pipebench::Usage();
    } else if (flag == "--trace") {
      trace = std::strcmp(value, "1") == 0 ? 1 : std::strcmp(value, "0") == 0 ? 0 : -1;
    } else if (flag == "--scratch") {
      scratch = value;
    } else if (flag == "--out") {
      out_file = value;
    } else if (flag == "--trace-json") {
      trace_json = value;
    } else {
      return pipebench::Usage();
    }
  }
  pipebench::Plan plan;
  if (argc % 2 != 1 || trace < 0 || seconds <= 0 || seconds > 600 || scratch.empty() ||
      !pipebench::MakePlan(workload, seconds, &plan)) {
    return pipebench::Usage();
  }
  // Seed 0 would legalize to another seed inside the RNGs; keep them apart.
  if (seed == 0 || seed > 0xffffffffull) return pipebench::Usage();
  // Host threads stay within nproc: a multi-CPU workload runs one worker
  // per simulated CPU plus the daemon's drain thread.
  const uint32_t threads = plan.cpus > 1 ? plan.cpus + 1 : 1;
  if (pipebench::HostCores() < static_cast<int>(threads)) {
    std::fprintf(stderr, "pipebench: %s needs %u host cores\n", workload.c_str(), threads);
    return 2;
  }
  pipebench::Bench bench(plan, seed, trace == 1, scratch);
  return bench.Main(out_file, trace_json);
}
