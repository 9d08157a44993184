#include "sqlfacil/models/cnn_model.h"

#include <algorithm>
#include <cmath>

#include "sqlfacil/models/serialize_util.h"
#include "sqlfacil/models/train_state.h"
#include "sqlfacil/nn/arena.h"
#include "sqlfacil/nn/data_parallel.h"
#include "sqlfacil/nn/infer.h"
#include "sqlfacil/nn/quant.h"
#include "sqlfacil/nn/simd.h"
#include "sqlfacil/util/drain.h"
#include "sqlfacil/util/failpoint.h"
#include "sqlfacil/util/logging.h"
#include "sqlfacil/util/thread_pool.h"

namespace sqlfacil::models {

namespace {

// Window rows that width `width` stacks for queries [qb, qe).
size_t WindowRows(const std::vector<std::vector<int>>& encoded, size_t qb,
                  size_t qe, int width) {
  size_t rows = 0;
  for (size_t q = qb; q < qe; ++q) rows += encoded[q].size() - width + 1;
  return rows;
}

// The tier-independent tail of one conv width: Relu over the stacked
// conv_out, then each query's max-over-time straight into its row of
// `features` (already offset to this width's columns), so the concat of
// pooled widths needs no extra copy.
void ReluMaxPool(const std::vector<std::vector<int>>& encoded, size_t qb,
                 size_t qe, int width, int kernels, float* conv_out,
                 size_t total_rows, float* features, size_t feat_dim) {
  nn::simd::Relu(conv_out, total_rows * kernels);
  int row = 0;
  for (size_t q = qb; q < qe; ++q) {
    const int rows_q = static_cast<int>(encoded[q].size()) - width + 1;
    nn::infer::MaxOverTime(conv_out, row, row + rows_q, kernels,
                           features + (q - qb) * feat_dim);
    row += rows_q;
  }
}

}  // namespace

std::vector<nn::Var> CnnModel::Params() const {
  std::vector<nn::Var> params = embedding_.Params();
  for (const auto& conv : convs_) {
    for (const auto& p : conv.Params()) params.push_back(p);
  }
  for (const auto& p : head_.Params()) params.push_back(p);
  return params;
}

size_t CnnModel::num_parameters() const {
  size_t total = 0;
  for (const auto& p : Params()) total += p->value.size();
  return total;
}

nn::Var CnnModel::Forward(const std::vector<int>& ids, bool training,
                          Rng* rng) const {
  // Pad to the largest window so every conv has at least one position.
  std::vector<int> padded = ids;
  const int max_width = *std::max_element(config_.widths.begin(),
                                          config_.widths.end());
  while (padded.size() < static_cast<size_t>(max_width)) {
    padded.push_back(-1);
  }
  nn::Var emb = embedding_.Lookup(padded);
  std::vector<nn::Var> pooled;
  pooled.reserve(config_.widths.size());
  for (size_t w = 0; w < config_.widths.size(); ++w) {
    nn::Var windows = nn::Unfold(emb, config_.widths[w]);
    nn::Var activations = nn::Relu(convs_[w].Apply(windows));
    pooled.push_back(nn::MaxOverTime(activations));
  }
  nn::Var features = nn::ConcatCols(pooled);
  features = nn::Dropout(features, config_.dropout, training, rng);
  return head_.Apply(features);
}

double CnnModel::ValidLoss(const Dataset& valid) const {
  if (valid.size() == 0) return 0.0;
  // The served fp32 kernels score validation, whatever tier is active; the
  // loss stays per example, summed in example order.
  const auto logits = BatchLogits(valid.statements, /*int8=*/false);
  double total = 0.0;
  for (size_t i = 0; i < valid.size(); ++i) {
    nn::Tensor row({1, outputs_});
    std::copy(logits[i].begin(), logits[i].end(), row.data());
    const nn::Var out = nn::MakeConst(std::move(row));
    nn::Var loss;
    if (kind_ == TaskKind::kClassification) {
      loss = nn::SoftmaxCrossEntropy(out, {valid.labels[i]});
    } else if (config_.use_squared_loss) {
      loss = nn::SquaredLoss(out, {valid.targets[i]});
    } else {
      loss = nn::HuberLoss(out, {valid.targets[i]}, config_.huber_delta);
    }
    total += loss->value.at(0);
  }
  return total / static_cast<double>(valid.size());
}

void CnnModel::Fit(const Dataset& train, const Dataset& valid, Rng* rng) {
  failpoint::MaybeFail("model.fit");
  kind_ = train.kind;
  outputs_ = kind_ == TaskKind::kClassification ? train.num_classes : 1;
  vocab_ = Vocabulary::Build(train.statements, config_.granularity,
                             config_.max_vocab);

  embedding_ = nn::Embedding(static_cast<int>(vocab_.size()),
                             config_.embed_dim, rng);
  convs_.clear();
  for (int width : config_.widths) {
    convs_.emplace_back(width * config_.embed_dim, config_.kernels_per_width,
                        rng);
  }
  head_ = nn::Linear(
      static_cast<int>(config_.widths.size()) * config_.kernels_per_width,
      outputs_, rng);

  TrainLoop(train, valid, config_.epochs, rng);
}

void CnnModel::FineTune(const Dataset& train, const Dataset& valid,
                        int epochs, Rng* rng) {
  SQLFACIL_CHECK(head_.weight != nullptr) << "FineTune requires a fit model";
  SQLFACIL_CHECK(train.kind == kind_) << "FineTune task kind mismatch";
  TrainLoop(train, valid, epochs, rng);
}

void CnnModel::TrainLoop(const Dataset& train, const Dataset& valid,
                         int epochs, Rng* rng) {
  // Captured before the loop's first draw; a resumed epoch re-draws its
  // permutation and per-example dropout seeds from this stream position.
  const Rng::State entry_state = rng->state();
  auto params = Params();
  nn::AdaMax optimizer(params, config_.lr);

  // Pre-encode (sharded over the thread pool).
  auto encoded = vocab_.EncodeAll(train.statements, MaxLen());

  // Data-parallel training: minibatches split into at most `train_shards`
  // microbatch shards that build their per-example graphs on the thread
  // pool. Dropout masks come from per-example seeds drawn serially from the
  // master stream, so masks — and therefore weights — are bit-identical at
  // any shard/thread count.
  const size_t max_shards =
      static_cast<size_t>(std::max(1, config_.train_shards));
  nn::GradShards shards;
  shards.Prepare(params, max_shards);

  std::vector<nn::Tensor> best = SnapshotParams(params);
  double best_valid = 1e300;
  valid_history_.clear();
  const size_t n = train.size();
  const size_t batches_per_epoch =
      (n + config_.batch_size - 1) / config_.batch_size;

  Fingerprint fp;
  fp.MixString("cnn_model.v1|" + name());
  fp.MixI32(config_.granularity == sql::Granularity::kChar ? 0 : 1)
      .Mix(config_.max_vocab)
      .Mix(MaxLen())
      .MixI32(config_.embed_dim)
      .MixI32(config_.kernels_per_width)
      .Mix(config_.widths.size());
  for (int w : config_.widths) fp.MixI32(w);
  fp.MixFloat(config_.dropout)
      .MixFloat(config_.lr)
      .MixFloat(config_.clip_norm)
      .MixI32(epochs)
      .MixI32(config_.batch_size)
      .MixFloat(config_.huber_delta)
      .MixI32(config_.use_squared_loss ? 1 : 0)
      .MixI32(config_.train_shards);
  // TrainLoop also backs FineTune, where the starting weights are not a
  // function of the seed — mix the parameter values themselves so a
  // snapshot is tied to the exact network it was training.
  for (const auto& p : params) {
    fp.Mix(p->value.size());
    const float* v = p->value.data();
    for (size_t i = 0; i < p->value.size(); ++i) fp.MixFloat(v[i]);
  }
  MixDataset(&fp, train);
  MixDataset(&fp, valid);
  fp.MixRngState(entry_state);
  TrainSnapshotter snap(config_.snapshot, name(), fp.digest());
  const ResumePoint at =
      ResumeOrColdStart(&snap, epochs, batches_per_epoch, params, &optimizer,
                        rng, &best, &best_valid, &valid_history_);

  std::vector<uint64_t> dropout_seeds;
  for (int epoch = at.epoch; epoch < epochs; ++epoch) {
    const Rng::State epoch_rng = rng->state();
    auto perm = rng->Permutation(n);
    const uint64_t skip = epoch == at.epoch ? at.batch : 0;
    uint64_t bpos = 0;
    for (size_t start = 0; start < n; start += config_.batch_size, ++bpos) {
      const size_t end = std::min(n, start + config_.batch_size);
      const size_t batch = end - start;
      // Seeds are drawn even for replayed batches: the master stream must
      // pass the same positions an uninterrupted run would.
      dropout_seeds.resize(batch);
      for (size_t i = 0; i < batch; ++i) dropout_seeds[i] = rng->Next();
      if (bpos < skip) continue;  // replayed: applied before the snapshot
      optimizer.ZeroGrad();
      nn::ShardedTrainStep(
          params, &shards, batch, max_shards,
          [&](size_t /*shard*/, size_t sb, size_t se) {
            nn::Var shard_loss;
            for (size_t i = sb; i < se; ++i) {
              const size_t idx = perm[start + i];
              Rng example_rng(dropout_seeds[i]);
              nn::Var logits =
                  Forward(encoded[idx], /*training=*/true, &example_rng);
              nn::Var loss;
              if (kind_ == TaskKind::kClassification) {
                // Distillation: train against the teacher's soft target row
                // when present; validation still scores hard labels.
                if (train.soft_labels.size() == train.size()) {
                  loss = nn::SoftCrossEntropy(logits, train.soft_labels[idx]);
                } else {
                  loss = nn::SoftmaxCrossEntropy(logits, {train.labels[idx]});
                }
              } else if (config_.use_squared_loss) {
                loss = nn::SquaredLoss(logits, {train.targets[idx]});
              } else {
                loss = nn::HuberLoss(logits, {train.targets[idx]},
                                     config_.huber_delta);
              }
              shard_loss =
                  shard_loss == nullptr ? loss : nn::Add(shard_loss, loss);
            }
            // Shard's share of the batch-mean loss.
            return nn::Scale(shard_loss, 1.0f / static_cast<float>(batch));
          });
      nn::ClipGradNorm(params, config_.clip_norm);
      optimizer.Step();
      if (train::DrainRequested()) {
        SaveTrainSnapshot(&snap, epoch, bpos + 1, epoch_rng, best_valid,
                          valid_history_, params, best, &optimizer);
        RestoreParams(params, best);
        return;
      }
    }
    const double vloss = ValidLoss(valid);
    valid_history_.push_back(vloss);
    if (vloss < best_valid || valid.size() == 0) {
      best_valid = vloss;
      best = SnapshotParams(params);
    }
    const bool drained = train::DrainRequested();
    if (snap.ShouldSnapshot(epoch + 1, epochs) || drained) {
      SaveTrainSnapshot(&snap, epoch + 1, 0, rng->state(), best_valid,
                        valid_history_, params, best, &optimizer);
    }
    if (drained) break;
  }
  RestoreParams(params, best);
  // The int8 tier needs no data-dependent calibration (conv inputs are
  // embedding rows with a static range), so every trained network quantizes
  // immediately.
  (void)Quantize({});
}

Status CnnModel::Quantize(std::span<const std::string> calibration) {
  (void)calibration;  // conv input ranges are static: see the header doc
  if (head_.weight == nullptr || convs_.empty() || vocab_.size() <= 1) {
    return Status::InvalidArgument("quantize requires a trained model");
  }
  CnnQuant q;
  const auto& table = embedding_.table->value;
  nn::quant::Calibration cal;
  cal.Observe(table.data(), table.size());
  q.emb_scale = cal.scale();
  q.qtable.resize(table.size());
  nn::quant::QuantizeActivations(table.data(), table.size(),
                                 1.0f / q.emb_scale, q.qtable.data());
  for (size_t w = 0; w < config_.widths.size(); ++w) {
    q.convs.push_back(nn::quant::QuantizeWeights(
        convs_[w].weight->value.data(),
        config_.widths[w] * config_.embed_dim, config_.kernels_per_width));
  }
  quant_ = std::move(q);
  return Status::Ok();
}

Status CnnModel::SaveTo(std::ostream& out) const {
  serialize::WriteTag(out, "cnn_model.v2");
  serialize::WriteI32(out, kind_ == TaskKind::kClassification ? 0 : 1);
  serialize::WriteI32(out, outputs_);
  serialize::WriteI32(out,
                      config_.granularity == sql::Granularity::kChar ? 0 : 1);
  serialize::WriteI32(out, config_.embed_dim);
  serialize::WriteI32(out, config_.kernels_per_width);
  serialize::WriteU64(out, config_.max_len_char);
  serialize::WriteU64(out, config_.max_len_word);
  serialize::WriteU64(out, config_.widths.size());
  for (int w : config_.widths) serialize::WriteI32(out, w);
  vocab_.SaveTo(out);
  serialize::WriteTensor(out, embedding_.table->value);
  for (const auto& conv : convs_) {
    serialize::WriteTensor(out, conv.weight->value);
    serialize::WriteTensor(out, conv.bias->value);
  }
  serialize::WriteTensor(out, head_.weight->value);
  serialize::WriteTensor(out, head_.bias->value);
  // v2 trailer: the int8 tier. The u8 embedding table is derived from the
  // fp32 table + scale and is rebuilt on load.
  serialize::WriteI32(out, quant_.ready() ? 1 : 0);
  if (quant_.ready()) {
    serialize::WriteF32(out, quant_.emb_scale);
    for (const auto& w : quant_.convs) serialize::WriteQuantTensor(out, w);
  }
  return Status::Ok();
}

Status CnnModel::LoadFrom(std::istream& in) {
  auto tag = serialize::ReadString(in);
  if (!tag.ok()) return tag.status();
  const bool v2 = *tag == "cnn_model.v2";
  if (!v2 && *tag != "cnn_model.v1") {
    return Status::CorruptCheckpoint(
        "model file tag mismatch: expected 'cnn_model.v1/v2', found '" +
        *tag + "'");
  }
  auto read_i32 = [&](int* dst) -> Status {
    auto v = serialize::ReadI32(in);
    if (!v.ok()) return v.status();
    *dst = *v;
    return Status::Ok();
  };
  int kind = 0;
  if (Status s = read_i32(&kind); !s.ok()) return s;
  kind_ = kind == 0 ? TaskKind::kClassification : TaskKind::kRegression;
  if (Status s = read_i32(&outputs_); !s.ok()) return s;
  int granularity = 0;
  if (Status s = read_i32(&granularity); !s.ok()) return s;
  config_.granularity =
      granularity == 0 ? sql::Granularity::kChar : sql::Granularity::kWord;
  if (Status s = read_i32(&config_.embed_dim); !s.ok()) return s;
  if (Status s = read_i32(&config_.kernels_per_width); !s.ok()) return s;
  auto max_len_char = serialize::ReadU64(in);
  if (!max_len_char.ok()) return max_len_char.status();
  config_.max_len_char = *max_len_char;
  auto max_len_word = serialize::ReadU64(in);
  if (!max_len_word.ok()) return max_len_word.status();
  config_.max_len_word = *max_len_word;
  auto num_widths = serialize::ReadU64(in);
  if (!num_widths.ok()) return num_widths.status();
  if (*num_widths == 0 || *num_widths > 16) {
    return Status::InvalidArgument("implausible width count");
  }
  config_.widths.clear();
  for (uint64_t i = 0; i < *num_widths; ++i) {
    int w = 0;
    if (Status s = read_i32(&w); !s.ok()) return s;
    config_.widths.push_back(w);
  }
  auto vocab = Vocabulary::LoadFrom(in);
  if (!vocab.ok()) return vocab.status();
  vocab_ = std::move(vocab).value();

  auto read_param = [&](nn::Var* dst) -> Status {
    auto t = serialize::ReadTensor(in);
    if (!t.ok()) return t.status();
    *dst = nn::MakeParam(std::move(t).value());
    return Status::Ok();
  };
  if (Status s = read_param(&embedding_.table); !s.ok()) return s;
  convs_.assign(config_.widths.size(), nn::Linear());
  for (auto& conv : convs_) {
    if (Status s = read_param(&conv.weight); !s.ok()) return s;
    if (Status s = read_param(&conv.bias); !s.ok()) return s;
  }
  if (Status s = read_param(&head_.weight); !s.ok()) return s;
  if (Status s = read_param(&head_.bias); !s.ok()) return s;

  quant_ = CnnQuant{};
  if (!v2) return Status::Ok();  // v1: fp32-only checkpoint
  auto qflag = serialize::ReadI32(in);
  if (!qflag.ok()) return qflag.status();
  if (*qflag == 0) return Status::Ok();
  if (*qflag != 1) {
    return Status::CorruptCheckpoint("bad quantization flag");
  }
  CnnQuant q;
  auto es = serialize::ReadF32(in);
  if (!es.ok()) return es.status();
  if (!std::isfinite(*es) || *es <= 0.0f) {
    return Status::CorruptCheckpoint("bad embedding scale");
  }
  q.emb_scale = *es;
  for (size_t w = 0; w < config_.widths.size(); ++w) {
    auto t = serialize::ReadQuantTensor(in);
    if (!t.ok()) return t.status();
    if (t->k != config_.widths[w] * config_.embed_dim ||
        t->n != config_.kernels_per_width) {
      return Status::CorruptCheckpoint("quantized conv shape mismatch");
    }
    q.convs.push_back(std::move(t).value());
  }
  // The u8 table is derived: requantize the fp32 table under the stored
  // scale (bit-identical to the save-time table by the rounding contract).
  const auto& table = embedding_.table->value;
  q.qtable.resize(table.size());
  nn::quant::QuantizeActivations(table.data(), table.size(),
                                 1.0f / q.emb_scale, q.qtable.data());
  quant_ = std::move(q);
  return Status::Ok();
}

std::vector<float> CnnModel::Predict(const std::string& statement,
                                     double opt_cost) const {
  return PredictBatch(std::span<const std::string>(&statement, 1),
                      std::span<const double>(&opt_cost, 1))[0];
}

std::vector<std::vector<float>> CnnModel::PredictBatch(
    std::span<const std::string> statements,
    std::span<const double> opt_costs) const {
  (void)opt_costs;
  failpoint::MaybeFail("model.predict");
  nn::simd::LogDispatchOnce();
  auto preds = BatchLogits(
      statements,
      nn::quant::ActivePrecision() == nn::quant::Precision::kInt8 &&
          quant_.ready());
  if (kind_ == TaskKind::kClassification) {
    for (auto& p : preds) nn::infer::SoftmaxInPlace(p.data(), p.size());
  }
  return preds;
}

std::vector<std::vector<float>> CnnModel::BatchLogits(
    std::span<const std::string> statements, bool int8) const {
  const size_t n = statements.size();
  auto encoded = vocab_.EncodeAll(statements, MaxLen());
  const int max_width = *std::max_element(config_.widths.begin(),
                                          config_.widths.end());
  for (auto& ids : encoded) {
    while (ids.size() < static_cast<size_t>(max_width)) ids.push_back(-1);
  }
  const int feat_dim =
      static_cast<int>(config_.widths.size()) * config_.kernels_per_width;
  std::vector<std::vector<float>> logits(n);

  // Fixed-size slices bound the arena high-water mark and give the thread
  // pool deterministic work boundaries (each query's rows depend only on
  // that query, so slicing cannot change any result).
  constexpr size_t kSliceQueries = 32;
  const size_t num_slices = (n + kSliceQueries - 1) / kSliceQueries;
  ParallelFor(0, num_slices, 1, [&](size_t sb, size_t se) {
    nn::Arena& arena = nn::ThreadLocalArena();
    thread_local std::vector<size_t> row_offset;
    for (size_t s = sb; s < se; ++s) {
      const size_t qb = s * kSliceQueries;
      const size_t qe = std::min(n, qb + kSliceQueries);
      const int slice = static_cast<int>(qe - qb);
      // Every query in the slice embeds into one contiguous buffer; query
      // q's rows start at row_offset[q - qb].
      row_offset.assign(slice + 1, 0);
      for (size_t q = qb; q < qe; ++q) {
        row_offset[q - qb + 1] = row_offset[q - qb] + encoded[q].size();
      }
      float* features = arena.Alloc(static_cast<size_t>(slice) * feat_dim);
      if (int8) {
        PoolSliceInt8(encoded, qb, qe, row_offset, &arena, features);
      } else {
        PoolSlice(encoded, qb, qe, row_offset, &arena, features);
      }
      float* out = arena.Alloc(static_cast<size_t>(slice) * outputs_);
      nn::infer::MatMul(features, head_.weight->value.data(), out, slice,
                        feat_dim, outputs_);
      nn::infer::BiasAdd(out, head_.bias->value.data(), slice, outputs_);
      for (size_t q = qb; q < qe; ++q) {
        const float* row = out + (q - qb) * static_cast<size_t>(outputs_);
        logits[q].assign(row, row + outputs_);
      }
      arena.Reset();
    }
  });
  return logits;
}

void CnnModel::PoolSlice(const std::vector<std::vector<int>>& encoded,
                         size_t qb, size_t qe,
                         const std::vector<size_t>& row_offset,
                         nn::Arena* arena, float* features) const {
  const int d = config_.embed_dim;
  const int kernels = config_.kernels_per_width;
  const size_t feat_dim = config_.widths.size() * static_cast<size_t>(kernels);
  float* emb = arena->Alloc(row_offset[qe - qb] * d);
  for (size_t q = qb; q < qe; ++q) {
    const auto& ids = encoded[q];
    nn::infer::GatherRows(embedding_.table->value.data(), d, ids.data(),
                          static_cast<int>(ids.size()),
                          emb + row_offset[q - qb] * d);
  }
  for (size_t w = 0; w < config_.widths.size(); ++w) {
    const int width = config_.widths[w];
    // Query q's width-w windows are the rows of its embedding read at row
    // stride d, so the convolution reads them in place and stacks every
    // query's outputs into one conv_out for the slice.
    const size_t total_rows = WindowRows(encoded, qb, qe, width);
    float* conv_out = arena->Alloc(total_rows * kernels);
    size_t row = 0;
    for (size_t q = qb; q < qe; ++q) {
      const int rows_q = static_cast<int>(encoded[q].size()) - width + 1;
      nn::infer::MatMul(emb + row_offset[q - qb] * d, d,
                        convs_[w].weight->value.data(),
                        conv_out + row * kernels, rows_q, width * d, kernels);
      row += static_cast<size_t>(rows_q);
    }
    nn::infer::BiasAdd(conv_out, convs_[w].bias->value.data(),
                       static_cast<int>(total_rows), kernels);
    ReluMaxPool(encoded, qb, qe, width, kernels, conv_out, total_rows,
                features + w * kernels, feat_dim);
  }
}

void CnnModel::PoolSliceInt8(const std::vector<std::vector<int>>& encoded,
                             size_t qb, size_t qe,
                             const std::vector<size_t>& row_offset,
                             nn::Arena* arena, float* features) const {
  // Gather and unfold move u8 bytes and each width's conv is one quantized
  // stacked matmul, dequantized against the fp32 conv bias.
  const int d = config_.embed_dim;
  const int kernels = config_.kernels_per_width;
  const size_t feat_dim = config_.widths.size() * static_cast<size_t>(kernels);
  auto alloc_bytes = [arena](size_t bytes) {
    return reinterpret_cast<uint8_t*>(arena->Alloc((bytes + 3) / 4));
  };
  uint8_t* emb = alloc_bytes(row_offset[qe - qb] * d);
  for (size_t q = qb; q < qe; ++q) {
    const auto& ids = encoded[q];
    nn::infer::Int8GatherRows(quant_.qtable.data(), d, ids.data(),
                              static_cast<int>(ids.size()),
                              emb + row_offset[q - qb] * d, d);
  }
  for (size_t w = 0; w < config_.widths.size(); ++w) {
    const int width = config_.widths[w];
    const auto& W = quant_.convs[w];
    const int a_stride = 4 * W.k4;
    const size_t total_rows = WindowRows(encoded, qb, qe, width);
    uint8_t* windows = alloc_bytes(total_rows * a_stride);
    size_t row = 0;
    for (size_t q = qb; q < qe; ++q) {
      const int t = static_cast<int>(encoded[q].size());
      nn::infer::Int8Unfold(emb + row_offset[q - qb] * d, t, d, width,
                            windows + row * a_stride, a_stride);
      row += static_cast<size_t>(t - width + 1);
    }
    int32_t* acc = reinterpret_cast<int32_t*>(
        arena->Alloc(total_rows * static_cast<size_t>(W.n_pad)));
    float* conv_out = arena->Alloc(total_rows * kernels);
    nn::infer::Int8MatMul(windows, a_stride, W, quant_.emb_scale,
                          convs_[w].bias->value.data(),
                          static_cast<int>(total_rows), acc, conv_out);
    ReluMaxPool(encoded, qb, qe, width, kernels, conv_out, total_rows,
                features + w * kernels, feat_dim);
  }
}

}  // namespace sqlfacil::models
