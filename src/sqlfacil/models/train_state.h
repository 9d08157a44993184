#ifndef SQLFACIL_MODELS_TRAIN_STATE_H_
#define SQLFACIL_MODELS_TRAIN_STATE_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sqlfacil/models/dataset.h"
#include "sqlfacil/nn/autograd.h"
#include "sqlfacil/nn/optim.h"
#include "sqlfacil/nn/tensor.h"
#include "sqlfacil/util/random.h"
#include "sqlfacil/util/status.h"

namespace sqlfacil::models {

/// Crash-safe resumable training.
///
/// A `TrainState` captures everything a trainer needs to continue a run as
/// if it had never stopped: current parameter values, the best-epoch
/// parameter snapshot and its ValidLoss, the full per-epoch ValidLoss
/// trajectory, the serialized optimizer state (Adam/AdaMax moments + step
/// counter), the master RNG state at the start of the in-progress epoch,
/// and an (epoch, batch_cursor) position. States are serialized through
/// the framed, CRC-checked checkpoint-v2 layer with atomic temp + fsync +
/// rename saves, so a SIGKILL at any instant leaves either the previous
/// snapshot or the new one — never a torn file.
///
/// Determinism: the RNG state is captured at epoch START. On resume the
/// trainer restores it, re-draws the epoch permutation (and any per-batch
/// seeds) exactly as the original run did, and replays — without applying
/// — the first `batch_cursor` batches. The draw stream therefore lands at
/// the exact position the interrupted run had reached, and the resumed
/// run's weights and ValidLoss trajectory are bit-identical to an
/// uninterrupted run at any SQLFACIL_THREADS × SQLFACIL_SIMD setting.

/// Where / how often a trainer snapshots. Embedded in each model's Config.
struct SnapshotOptions {
  std::string dir;   ///< Snapshot directory; empty disables snapshotting.
  int every = 1;     ///< Snapshot every N completed epochs.
  std::string tag;   ///< Filename stem; empty uses the trainer's default.
};

/// Full training position. `epoch` is the in-progress (0-based) epoch and
/// `batch_cursor` the number of batches already applied within it; a
/// cursor of 0 means the epoch has not started (clean epoch boundary).
struct TrainState {
  uint64_t fingerprint = 0;  ///< Config/data fingerprint (stamped on save).
  uint64_t generation = 0;   ///< Monotonic save counter within a run.
  int32_t epoch = 0;
  uint64_t batch_cursor = 0;
  Rng::State rng{};          ///< Master RNG state at the start of `epoch`.
  double best_valid = std::numeric_limits<double>::infinity();
  std::vector<double> valid_history;      ///< Per-completed-epoch ValidLoss.
  std::vector<nn::Tensor> params;         ///< Current parameter values.
  std::vector<nn::Tensor> best_params;    ///< Best-epoch parameter values.
  std::string opt_state;                  ///< Optimizer::SaveState bytes.
};

/// Serializes `state` to the tag-based payload format (to be framed by the
/// checkpoint layer).
std::string SerializeTrainState(const TrainState& state);

/// Parses a payload written by SerializeTrainState. Bounded, tag-checked
/// reads: damaged bytes yield kCorruptCheckpoint, never garbage state.
StatusOr<TrainState> DeserializeTrainState(const std::string& payload);

/// FNV-1a 64 accumulator over everything that must match for a snapshot to
/// be resumable: the model tag, every training-relevant config scalar, the
/// train/valid datasets, and the RNG state at Fit entry. Thread count and
/// SIMD mode are deliberately excluded — the determinism contract makes
/// them output-invariant, so a snapshot taken at 8 threads resumes
/// correctly at 1.
class Fingerprint {
 public:
  Fingerprint& Mix(uint64_t v);
  Fingerprint& MixI32(int32_t v) { return Mix(static_cast<uint64_t>(static_cast<uint32_t>(v))); }
  Fingerprint& MixFloat(float v);
  Fingerprint& MixDouble(double v);
  Fingerprint& MixString(const std::string& s);
  Fingerprint& MixRngState(const Rng::State& state);
  uint64_t digest() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;  // FNV-1a 64 offset basis
};

/// Mixes a dataset's full content (kind, classes, statements, labels,
/// targets) into `fp`.
void MixDataset(Fingerprint* fp, const Dataset& data);

/// Deep copy of parameter values (the best-epoch snapshot).
std::vector<nn::Tensor> SnapshotParams(const std::vector<nn::Var>& params);

/// Writes a SnapshotParams copy back into `params`.
void RestoreParams(const std::vector<nn::Var>& params,
                   const std::vector<nn::Tensor>& snapshot);

/// Assembles a TrainState from a trainer's live objects: copies current
/// parameter values, the best-epoch tensors and history, and serializes
/// `optimizer`'s state (pass nullptr for optimizer-free trainers).
TrainState CaptureTrainState(int32_t epoch, uint64_t batch_cursor,
                             const Rng::State& rng_state, double best_valid,
                             const std::vector<double>& valid_history,
                             const std::vector<nn::Var>& params,
                             const std::vector<nn::Tensor>& best_params,
                             const nn::Optimizer* optimizer);

/// Installs a resumed state into live training objects: parameter values
/// and (when non-null) the optimizer's moments/step counter. Every check —
/// tensor counts, shapes, optimizer-state validation — happens before any
/// mutation, so a failure leaves params and optimizer untouched and the
/// caller cold-starts cleanly. The caller adopts best_params/best_valid/
/// valid_history/rng/position itself after this succeeds.
Status InstallTrainState(const TrainState& state,
                         const std::vector<nn::Var>& params,
                         nn::Optimizer* optimizer);

/// Owns the snapshot path and the resume/save protocol for one training
/// run. Trainers construct one at Fit entry and it becomes a no-op when
/// `options.dir` is empty.
class TrainSnapshotter {
 public:
  /// `default_tag` names the snapshot file when options.tag is empty;
  /// `fingerprint` is the run's config/data digest (see Fingerprint).
  TrainSnapshotter(const SnapshotOptions& options,
                   const std::string& default_tag, uint64_t fingerprint);

  bool enabled() const { return !path_.empty(); }
  const std::string& path() const { return path_; }

  /// Attempts to load a resumable state. kNotFound means no snapshot (a
  /// silent cold start); a fingerprint mismatch or a stale position
  /// (epoch/cursor beyond this run's schedule) yields kInvalidArgument;
  /// corrupt or truncated files yield kCorruptCheckpoint and unknown
  /// framed versions kVersionMismatch. Callers treat every error as
  /// "log + cold start" — resume failure is never fatal and never silent
  /// divergence. Plants failpoint "train.snapshot_load" (error|throw|
  /// corrupt). On success the snapshotter adopts the state's generation so
  /// subsequent saves keep the counter monotonic.
  StatusOr<TrainState> TryResume(int max_epochs, uint64_t batches_per_epoch);

  /// Stamps the fingerprint and next generation onto `state` and writes it
  /// atomically through the checkpoint layer. Plants failpoint
  /// "train.snapshot_save" (error|throw|corrupt — corrupt damages the
  /// payload so the *next* load rejects it and cold-starts). A save
  /// failure is returned as a Status; training continues either way.
  Status Save(TrainState state);

  /// True when a snapshot is due after `completed_epochs` of
  /// `total_epochs` (every N epochs, and always at the end so a finished
  /// run re-entered is a no-op resume).
  bool ShouldSnapshot(int completed_epochs, int total_epochs) const;

 private:
  SnapshotOptions options_;
  std::string path_;
  uint64_t fingerprint_ = 0;
  uint64_t generation_ = 0;
};

/// Where a training loop (re)starts: epoch `epoch`, skipping the first
/// `batch` batches of that epoch (they were applied before the snapshot).
struct ResumePoint {
  int epoch = 0;
  uint64_t batch = 0;
};

/// One-call resume for the autograd trainers: TryResume + InstallTrainState
/// + adoption of best params / best ValidLoss / history / RNG position.
/// Any failure other than kNotFound (no snapshot) is logged to stderr and
/// degrades to a cold start — resume is never fatal and never silently
/// divergent.
ResumePoint ResumeOrColdStart(TrainSnapshotter* snap, int max_epochs,
                              uint64_t batches_per_epoch,
                              const std::vector<nn::Var>& params,
                              nn::Optimizer* optimizer, Rng* rng,
                              std::vector<nn::Tensor>* best_params,
                              double* best_valid,
                              std::vector<double>* valid_history);

/// Captures and writes a snapshot. A failed save is logged to stderr and
/// swallowed: durability is best-effort, the training run itself must not
/// fail because a snapshot could not be written.
void SaveTrainSnapshot(TrainSnapshotter* snap, int32_t epoch,
                       uint64_t batch_cursor, const Rng::State& rng_state,
                       double best_valid,
                       const std::vector<double>& valid_history,
                       const std::vector<nn::Var>& params,
                       const std::vector<nn::Tensor>& best_params,
                       const nn::Optimizer* optimizer);

}  // namespace sqlfacil::models

#endif  // SQLFACIL_MODELS_TRAIN_STATE_H_
