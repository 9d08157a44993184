#include "sqlfacil/models/train_state.h"

#include <cmath>
#include <iostream>
#include <sstream>
#include <utility>

#include "sqlfacil/models/checkpoint.h"
#include "sqlfacil/models/serialize_util.h"
#include "sqlfacil/util/failpoint.h"
#include "sqlfacil/util/logging.h"

namespace sqlfacil::models {

namespace {

namespace ser = sqlfacil::models::serialize;

constexpr char kTrainStateTag[] = "sqlfacil_train_state.v1";
// Sanity caps: a damaged count field must not force a huge allocation.
constexpr uint64_t kMaxHistory = 1ULL << 20;
constexpr uint64_t kMaxParamTensors = 1ULL << 16;

void WriteRngState(std::ostream& out, const Rng::State& s) {
  for (int i = 0; i < 4; ++i) ser::WriteU64(out, s.s[i]);
  ser::WriteF64(out, s.cached_normal);
  ser::WriteU64(out, s.has_cached_normal ? 1 : 0);
}

StatusOr<Rng::State> ReadRngState(std::istream& in) {
  Rng::State s{};
  for (int i = 0; i < 4; ++i) {
    auto w = ser::ReadU64(in);
    if (!w.ok()) return w.status();
    s.s[i] = *w;
  }
  auto cached = ser::ReadF64(in);
  if (!cached.ok()) return cached.status();
  s.cached_normal = *cached;
  auto flag = ser::ReadU64(in);
  if (!flag.ok()) return flag.status();
  if (*flag > 1) {
    return Status::CorruptCheckpoint("rng state flag out of range");
  }
  s.has_cached_normal = (*flag == 1);
  return s;
}

Status ReadTensorVec(std::istream& in, std::vector<nn::Tensor>* out) {
  auto count = ser::ReadU64(in);
  if (!count.ok()) return count.status();
  if (*count > kMaxParamTensors) {
    return Status::ResourceExhausted("implausible tensor count in snapshot");
  }
  std::vector<nn::Tensor> tensors;
  tensors.reserve(*count);
  for (uint64_t i = 0; i < *count; ++i) {
    auto t = ser::ReadTensor(in);
    if (!t.ok()) return t.status();
    tensors.push_back(std::move(*t));
  }
  *out = std::move(tensors);
  return Status::Ok();
}

}  // namespace

std::string SerializeTrainState(const TrainState& state) {
  std::ostringstream out(std::ios::binary);
  ser::WriteTag(out, kTrainStateTag);
  ser::WriteU64(out, state.fingerprint);
  ser::WriteU64(out, state.generation);
  ser::WriteI32(out, state.epoch);
  ser::WriteU64(out, state.batch_cursor);
  WriteRngState(out, state.rng);
  ser::WriteF64(out, state.best_valid);
  ser::WriteU64(out, state.valid_history.size());
  for (double v : state.valid_history) ser::WriteF64(out, v);
  ser::WriteU64(out, state.params.size());
  for (const auto& t : state.params) ser::WriteTensor(out, t);
  ser::WriteU64(out, state.best_params.size());
  for (const auto& t : state.best_params) ser::WriteTensor(out, t);
  ser::WriteString(out, state.opt_state);
  return std::move(out).str();
}

StatusOr<TrainState> DeserializeTrainState(const std::string& payload) {
  std::istringstream in(payload, std::ios::binary);
  if (auto s = ser::ExpectTag(in, kTrainStateTag); !s.ok()) return s;
  TrainState state;
  auto fp = ser::ReadU64(in);
  if (!fp.ok()) return fp.status();
  state.fingerprint = *fp;
  auto gen = ser::ReadU64(in);
  if (!gen.ok()) return gen.status();
  state.generation = *gen;
  auto epoch = ser::ReadI32(in);
  if (!epoch.ok()) return epoch.status();
  if (*epoch < 0) {
    return Status::CorruptCheckpoint("negative epoch in train snapshot");
  }
  state.epoch = *epoch;
  auto cursor = ser::ReadU64(in);
  if (!cursor.ok()) return cursor.status();
  state.batch_cursor = *cursor;
  auto rng = ReadRngState(in);
  if (!rng.ok()) return rng.status();
  state.rng = *rng;
  auto best = ser::ReadF64(in);
  if (!best.ok()) return best.status();
  state.best_valid = *best;
  auto hist_count = ser::ReadU64(in);
  if (!hist_count.ok()) return hist_count.status();
  if (*hist_count > kMaxHistory) {
    return Status::ResourceExhausted("implausible history length in snapshot");
  }
  state.valid_history.reserve(*hist_count);
  for (uint64_t i = 0; i < *hist_count; ++i) {
    auto v = ser::ReadF64(in);
    if (!v.ok()) return v.status();
    state.valid_history.push_back(*v);
  }
  if (auto s = ReadTensorVec(in, &state.params); !s.ok()) return s;
  if (auto s = ReadTensorVec(in, &state.best_params); !s.ok()) return s;
  auto opt = ser::ReadString(in);
  if (!opt.ok()) return opt.status();
  state.opt_state = std::move(*opt);
  return state;
}

Fingerprint& Fingerprint::Mix(uint64_t v) {
  // FNV-1a over the 8 bytes, low to high.
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xFFu;
    h_ *= 0x100000001B3ULL;  // FNV-1a 64 prime
  }
  return *this;
}

Fingerprint& Fingerprint::MixFloat(float v) {
  uint32_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  __builtin_memcpy(&bits, &v, sizeof(bits));
  return Mix(bits);
}

Fingerprint& Fingerprint::MixDouble(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  __builtin_memcpy(&bits, &v, sizeof(bits));
  return Mix(bits);
}

Fingerprint& Fingerprint::MixString(const std::string& s) {
  Mix(s.size());
  for (char c : s) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001B3ULL;
  }
  return *this;
}

Fingerprint& Fingerprint::MixRngState(const Rng::State& state) {
  for (int i = 0; i < 4; ++i) Mix(state.s[i]);
  MixDouble(state.cached_normal);
  Mix(state.has_cached_normal ? 1 : 0);
  return *this;
}

void MixDataset(Fingerprint* fp, const Dataset& data) {
  fp->Mix(static_cast<uint64_t>(data.kind));
  fp->MixI32(data.num_classes);
  fp->Mix(data.statements.size());
  for (const auto& s : data.statements) fp->MixString(s);
  fp->Mix(data.labels.size());
  for (int l : data.labels) fp->MixI32(l);
  fp->Mix(data.targets.size());
  for (float t : data.targets) fp->MixFloat(t);
  fp->Mix(data.soft_labels.size());
  for (const auto& row : data.soft_labels) {
    fp->Mix(row.size());
    for (float t : row) fp->MixFloat(t);
  }
}

std::vector<nn::Tensor> SnapshotParams(const std::vector<nn::Var>& params) {
  std::vector<nn::Tensor> out;
  out.reserve(params.size());
  for (const auto& p : params) out.push_back(p->value);
  return out;
}

void RestoreParams(const std::vector<nn::Var>& params,
                   const std::vector<nn::Tensor>& snapshot) {
  SQLFACIL_CHECK(params.size() == snapshot.size());
  for (size_t i = 0; i < params.size(); ++i) params[i]->value = snapshot[i];
}

TrainState CaptureTrainState(int32_t epoch, uint64_t batch_cursor,
                             const Rng::State& rng_state, double best_valid,
                             const std::vector<double>& valid_history,
                             const std::vector<nn::Var>& params,
                             const std::vector<nn::Tensor>& best_params,
                             const nn::Optimizer* optimizer) {
  TrainState state;
  state.epoch = epoch;
  state.batch_cursor = batch_cursor;
  state.rng = rng_state;
  state.best_valid = best_valid;
  state.valid_history = valid_history;
  state.params = SnapshotParams(params);
  state.best_params = best_params;
  if (optimizer != nullptr) {
    std::ostringstream out(std::ios::binary);
    optimizer->SaveState(out);
    state.opt_state = std::move(out).str();
  }
  return state;
}

namespace {

Status ValidateShapes(const std::vector<nn::Tensor>& saved,
                      const std::vector<nn::Var>& params,
                      const char* what) {
  if (saved.size() != params.size()) {
    return Status::CorruptCheckpoint(std::string("snapshot ") + what +
                                     " count does not match the model");
  }
  for (size_t i = 0; i < saved.size(); ++i) {
    if (!saved[i].SameShape(params[i]->value)) {
      return Status::CorruptCheckpoint(std::string("snapshot ") + what +
                                       " shape does not match the model");
    }
  }
  return Status::Ok();
}

}  // namespace

Status InstallTrainState(const TrainState& state,
                         const std::vector<nn::Var>& params,
                         nn::Optimizer* optimizer) {
  if (auto s = ValidateShapes(state.params, params, "parameter"); !s.ok()) {
    return s;
  }
  if (auto s = ValidateShapes(state.best_params, params, "best-parameter");
      !s.ok()) {
    return s;
  }
  // The optimizer goes first among the mutations, but LoadState itself
  // validates the full state before committing — so any failure below
  // still leaves both the optimizer and the parameters untouched.
  if (optimizer != nullptr) {
    std::istringstream in(state.opt_state, std::ios::binary);
    if (auto s = optimizer->LoadState(in); !s.ok()) return s;
  }
  for (size_t i = 0; i < state.params.size(); ++i) {
    params[i]->value = state.params[i];
  }
  return Status::Ok();
}

TrainSnapshotter::TrainSnapshotter(const SnapshotOptions& options,
                                   const std::string& default_tag,
                                   uint64_t fingerprint)
    : options_(options), fingerprint_(fingerprint) {
  if (options_.dir.empty()) return;
  const std::string tag = options_.tag.empty() ? default_tag : options_.tag;
  path_ = options_.dir + "/" + tag + ".snap";
}

StatusOr<TrainState> TrainSnapshotter::TryResume(int max_epochs,
                                                 uint64_t batches_per_epoch) {
  if (!enabled()) return Status::NotFound("snapshotting disabled");
  switch (failpoint::Eval("train.snapshot_load")) {
    case failpoint::Mode::kError:
      return Status::Internal("failpoint 'train.snapshot_load' fired");
    case failpoint::Mode::kThrow:
      throw failpoint::FailpointError("train.snapshot_load");
    case failpoint::Mode::kCorrupt:
      return Status::CorruptCheckpoint(
          "failpoint 'train.snapshot_load' corrupted the snapshot");
    default:
      break;
  }
  auto ckpt = ReadCheckpointFile(path_);
  if (!ckpt.ok()) return ckpt.status();
  if (ckpt->version != kCheckpointVersion) {
    return Status::VersionMismatch(
        "train snapshot '" + path_ + "' lacks the v2 frame");
  }
  auto state = DeserializeTrainState(ckpt->payload);
  if (!state.ok()) return state.status();
  if (state->fingerprint != fingerprint_) {
    return Status::InvalidArgument(
        "train snapshot '" + path_ +
        "' was taken under a different config/dataset (fingerprint mismatch)");
  }
  const bool past_schedule =
      state->epoch > max_epochs ||
      (state->epoch == max_epochs && state->batch_cursor != 0);
  if (past_schedule || state->batch_cursor > batches_per_epoch) {
    return Status::InvalidArgument(
        "train snapshot '" + path_ + "' is stale: position (epoch " +
        std::to_string(state->epoch) + ", batch " +
        std::to_string(state->batch_cursor) + ") is outside this run");
  }
  generation_ = state->generation;
  return state;
}

Status TrainSnapshotter::Save(TrainState state) {
  if (!enabled()) return Status::Ok();
  state.fingerprint = fingerprint_;
  state.generation = ++generation_;
  std::string payload = SerializeTrainState(state);
  switch (failpoint::Eval("train.snapshot_save")) {
    case failpoint::Mode::kError:
      return Status::Internal("failpoint 'train.snapshot_save' fired");
    case failpoint::Mode::kThrow:
      throw failpoint::FailpointError("train.snapshot_save");
    case failpoint::Mode::kCorrupt:
      // Damage the leading tag region: the CRC is computed over the
      // damaged payload so the frame validates, and the inner tag check
      // must catch it on the next resume (cold start, not garbage state).
      payload[2] = static_cast<char>(payload[2] ^ 0x01);
      break;
    default:
      break;
  }
  return WriteCheckpointFile(path_, payload);
}

ResumePoint ResumeOrColdStart(TrainSnapshotter* snap, int max_epochs,
                              uint64_t batches_per_epoch,
                              const std::vector<nn::Var>& params,
                              nn::Optimizer* optimizer, Rng* rng,
                              std::vector<nn::Tensor>* best_params,
                              double* best_valid,
                              std::vector<double>* valid_history) {
  ResumePoint point;
  if (!snap->enabled()) return point;
  auto resumed = snap->TryResume(max_epochs, batches_per_epoch);
  Status status = resumed.status();
  if (resumed.ok()) {
    status = InstallTrainState(*resumed, params, optimizer);
    if (status.ok()) {
      *best_params = std::move(resumed->best_params);
      *best_valid = resumed->best_valid;
      *valid_history = std::move(resumed->valid_history);
      rng->set_state(resumed->rng);
      point.epoch = resumed->epoch;
      point.batch = resumed->batch_cursor;
      return point;
    }
  }
  if (status.code() != StatusCode::kNotFound) {
    std::cerr << "[sqlfacil] training snapshot '" << snap->path()
              << "' not resumable: " << status.ToString()
              << "; cold start\n";
  }
  return point;
}

void SaveTrainSnapshot(TrainSnapshotter* snap, int32_t epoch,
                       uint64_t batch_cursor, const Rng::State& rng_state,
                       double best_valid,
                       const std::vector<double>& valid_history,
                       const std::vector<nn::Var>& params,
                       const std::vector<nn::Tensor>& best_params,
                       const nn::Optimizer* optimizer) {
  if (!snap->enabled()) return;
  Status s = snap->Save(CaptureTrainState(epoch, batch_cursor, rng_state,
                                          best_valid, valid_history, params,
                                          best_params, optimizer));
  if (!s.ok()) {
    std::cerr << "[sqlfacil] training snapshot save to '" << snap->path()
              << "' failed: " << s.ToString() << "; continuing\n";
  }
}

bool TrainSnapshotter::ShouldSnapshot(int completed_epochs,
                                      int total_epochs) const {
  if (!enabled()) return false;
  if (completed_epochs >= total_epochs) return true;
  const int every = options_.every >= 1 ? options_.every : 1;
  return completed_epochs % every == 0;
}

}  // namespace sqlfacil::models
