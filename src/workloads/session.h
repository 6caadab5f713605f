// One collection session: the instantiate → run → roll → seal lifecycle
// of the paper's always-on daemon (Sections 4.2–4.3), and a fleet of such
// sessions on host threads.
//
// A session runs a workload as a sequence of segments on one System. Each
// segment is a fresh instantiation of the workload (new processes, new
// image mappings: the exec/exit churn that delimits epochs) followed by
// one System::Run. Between segments the session may roll the epoch; after
// the last one it seals the live epoch, so every epoch of a finished
// session is analyzable the same way. The first failure stops the session
// and leaves the live epoch unsealed.

#ifndef SRC_WORKLOADS_SESSION_H_
#define SRC_WORKLOADS_SESSION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/system.h"
#include "src/support/status.h"
#include "src/workloads/workloads.h"

namespace dcpi {

struct SessionPlan {
  uint32_t segments = 1;
  // Simulated cycles each segment may run past the clock at its start;
  // 0 runs every segment to completion.
  uint64_t segment_cycles = 0;
  // System::RollEpoch between segments (never after the last one).
  bool roll_between_segments = false;
  // Non-empty: the image set is saved here as image_<i>.img as soon as
  // the first segment has mapped it, so the tools can read a continuous
  // run mid-flight.
  std::string images_dir;
};

struct SessionResult {
  // OK, or the first failure (instantiate, image save, a faulted process,
  // roll, seal).
  Status status;
  // The last segment's System::Run result; its counts are cumulative over
  // the session.
  SystemResult result;
  std::vector<double> roll_ms;  // host wall time of each RollEpoch
  // Epochs in the database when the session ended, and how many of them
  // are sealed (both 0 without a database).
  size_t epochs = 0;
  size_t sealed = 0;
};

SessionResult RunSession(System* system, const Workload& workload,
                         const SessionPlan& plan);

struct FleetResult {
  std::vector<SessionResult> hosts;  // hosts[h] wrote shard host_<h>
  Status compaction;                 // the final compaction pass, if any
};

// Runs `hosts` sessions concurrently, one host thread and one System each.
// `config.db_root` is the fleet root: host h writes the shard
// <db_root>/host_<h> (FleetHostDir) with rng_seed 1 + h, so shards differ
// the way real machines do while each stays deterministic. The image set
// is identical across hosts, so only host 0 saves plan.images_dir. With
// `compact`, a background compactor folds the epochs every host has sealed
// into <db_root>/merged while the hosts run, and the rest once they stop.
FleetResult RunFleet(const SystemConfig& config, const Workload& workload,
                     const SessionPlan& plan, uint32_t hosts, bool compact);

}  // namespace dcpi

#endif  // SRC_WORKLOADS_SESSION_H_
