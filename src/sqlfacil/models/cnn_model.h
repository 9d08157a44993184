#ifndef SQLFACIL_MODELS_CNN_MODEL_H_
#define SQLFACIL_MODELS_CNN_MODEL_H_

#include <cstdint>

#include "sqlfacil/models/model.h"
#include "sqlfacil/models/train_state.h"
#include "sqlfacil/models/vocab.h"
#include "sqlfacil/nn/layers.h"
#include "sqlfacil/nn/optim.h"
#include "sqlfacil/nn/quant.h"

namespace sqlfacil::nn {
class Arena;
}  // namespace sqlfacil::nn

namespace sqlfacil::models {

/// The shallow CNN of Section 5.3 (Figure 11, adapted from Kim [32]):
/// token embeddings, parallel 1-D convolutions with window sizes {3,4,5},
/// Relu, max-over-time pooling per kernel, concatenation, dropout, and a
/// fully-connected output. Trained with AdaMax on cross-entropy / Huber.
class CnnModel : public Model {
 public:
  struct Config {
    sql::Granularity granularity = sql::Granularity::kChar;
    size_t max_vocab = 5000;
    size_t max_len_char = 192;
    size_t max_len_word = 64;
    int embed_dim = 12;
    int kernels_per_width = 32;
    std::vector<int> widths = {3, 4, 5};
    float dropout = 0.5f;
    float lr = 2e-3f;
    float clip_norm = 0.25f;
    int epochs = 3;
    int batch_size = 16;
    float huber_delta = 1.0f;
    /// Regression ablation: plain squared loss instead of Huber
    /// (Section 4.4.1 argues Huber is more robust to label outliers).
    bool use_squared_loss = false;
    /// Upper bound on microbatch shards per training step. Shard boundaries
    /// depend only on (batch size, this cap), so trained weights are
    /// bit-identical at any SQLFACIL_THREADS setting.
    int train_shards = 8;
    /// Crash-safe training snapshots (empty dir disables).
    SnapshotOptions snapshot;
  };

  explicit CnnModel(Config config) : config_(std::move(config)) {}

  std::string name() const override {
    return config_.granularity == sql::Granularity::kChar ? "ccnn" : "wcnn";
  }
  void Fit(const Dataset& train, const Dataset& valid, Rng* rng) override;
  std::vector<float> Predict(const std::string& statement,
                             double opt_cost) const override;
  /// Batched fast path: queries are processed in fixed slices; per conv
  /// width the windows of every query in a slice stack into one tall
  /// matrix, so each width costs a single stacked matmul instead of one
  /// matmul per query. Temporaries live in a per-thread arena (zero heap
  /// allocations at steady state). Predict is a batch of one, so the two
  /// are bit-identical by construction.
  std::vector<std::vector<float>> PredictBatch(
      std::span<const std::string> statements,
      std::span<const double> opt_costs = {}) const override;
  size_t vocab_size() const override { return vocab_.size(); }
  size_t num_parameters() const override;
  /// Builds the int8 tier: the embedding table quantizes to u8 under its own
  /// max-abs range (the conv inputs ARE table rows, so the range is static —
  /// `calibration` is accepted for interface parity but unused) and each
  /// width's conv map quantizes per-tensor. Relu, max-over-time pooling, and
  /// the head stay fp32. Fit/FineTune call this automatically.
  Status Quantize(std::span<const std::string> calibration) override;
  /// True when the int8 tier is built (SQLFACIL_PRECISION=int8 serves it).
  bool quantized() const { return quant_.ready(); }
  /// Validation-loss trajectory of the last Fit/FineTune (one per epoch).
  const std::vector<double>& valid_history() const { return valid_history_; }
  Status SaveTo(std::ostream& out) const override;
  Status LoadFrom(std::istream& in) override;

  /// Fine-tunes the already-trained network on a new dataset without
  /// re-initializing parameters or rebuilding the vocabulary (the paper's
  /// Section 8 transfer-learning direction: reuse a ccnn trained on a
  /// large workload for a different database). Requires prior Fit/LoadFrom
  /// with the same task kind.
  void FineTune(const Dataset& train, const Dataset& valid, int epochs,
                Rng* rng);

 private:
  /// The int8 tier's offline-quantized state (see Quantize()).
  struct CnnQuant {
    float emb_scale = 0.0f;        // u8 scale of the embedding rows
    std::vector<uint8_t> qtable;   // (vocab x d) quantized embedding
    std::vector<nn::quant::QuantizedTensor> convs;  // per width (w*d x K)

    bool ready() const { return !convs.empty(); }
  };

  /// Shared training loop (from-scratch fit and fine-tuning).
  void TrainLoop(const Dataset& train, const Dataset& valid, int epochs,
                 Rng* rng);

  size_t MaxLen() const {
    return config_.granularity == sql::Granularity::kChar
               ? config_.max_len_char
               : config_.max_len_word;
  }
  /// Autograd forward for one encoded statement, built only by training
  /// steps; training enables dropout. In eval mode its logits equal
  /// BatchLogits' bit for bit (tests/serving_test.cc pins this).
  nn::Var Forward(const std::vector<int>& ids, bool training,
                  Rng* rng) const;
  std::vector<nn::Var> Params() const;
  /// Mean per-example loss of the fp32 BatchLogits on `valid`.
  double ValidLoss(const Dataset& valid) const;
  /// The graph-free forward behind Predict, PredictBatch and ValidLoss:
  /// encodes, cuts fixed 32-query slices, pools each slice on the thread
  /// pool at the fp32 or int8 (quant_ must be ready) tier, and runs the
  /// fp32 head. Returns each statement's logits (no softmax).
  std::vector<std::vector<float>> BatchLogits(
      std::span<const std::string> statements, bool int8) const;
  /// One slice's tier-specific stage of BatchLogits: gathers queries
  /// [qb, qe) (query q's rows start at row_offset[q - qb]), runs every
  /// width's conv, Relu and max-over-time, and writes the (qe - qb) x
  /// feature rows into `features`. Temporaries come from `arena`.
  void PoolSlice(const std::vector<std::vector<int>>& encoded, size_t qb,
                 size_t qe, const std::vector<size_t>& row_offset,
                 nn::Arena* arena, float* features) const;
  /// PoolSlice on the int8 tier: u8 gather and unfold, quantized conv
  /// matmuls; Relu and pooling stay fp32.
  void PoolSliceInt8(const std::vector<std::vector<int>>& encoded,
                     size_t qb, size_t qe,
                     const std::vector<size_t>& row_offset, nn::Arena* arena,
                     float* features) const;

  friend class CnnModelPeer;  // tests reach Forward and BatchLogits

  Config config_;
  TaskKind kind_ = TaskKind::kClassification;
  int outputs_ = 1;
  Vocabulary vocab_;
  nn::Embedding embedding_;
  std::vector<nn::Linear> convs_;  // one (width*d x K) map per width
  nn::Linear head_;
  std::vector<double> valid_history_;
  CnnQuant quant_;
};

}  // namespace sqlfacil::models

#endif  // SQLFACIL_MODELS_CNN_MODEL_H_
