#ifndef SQLFACIL_NN_INFER_H_
#define SQLFACIL_NN_INFER_H_

#include <cstddef>
#include <cstdint>

#include "sqlfacil/nn/quant.h"

namespace sqlfacil::nn::infer {

/// Graph-free forward kernels for the batched inference fast path. Each
/// kernel performs exactly the per-element operations (and operation order)
/// of the corresponding autograd op's forward pass, so a fast-path forward
/// is bit-identical to running the autograd graph — that equivalence is
/// what the PredictBatch-vs-Predict tests pin down.

/// C = A @ B for (m x k) @ (k x n); zeroes C first (the autograd op writes
/// into a zero-initialized Tensor) and accumulates with the same k-tiled
/// saxpy kernel the autograd forward uses.
void MatMul(const float* A, const float* B, float* C, int m, int k, int n);

/// MatMul with A's rows `lda` floats apart. With a (t x d) input, lda = d
/// and k = window * d, row i is the width-`window` window at position i, so
/// this equals MatMul over Unfold(in, t, d, window) without the copy.
void MatMul(const float* A, int lda, const float* B, float* C, int m, int k,
            int n);

/// X[i, :] += bias[:] for each of `rows` rows (broadcast nn::Add).
void BiasAdd(float* X, const float* bias, int rows, int cols);

/// out[i, :] = table[ids[i], :], zero row when ids[i] < 0 (nn::Rows).
void GatherRows(const float* table, int d, const int* ids, int n,
                float* out);

/// out = sliding windows of `in` (t x d) at width `window`:
/// out[(t - window + 1) x (window * d)] (nn::Unfold). The fp32 CNN fast
/// path reads the windows in place through the lda form of MatMul; this
/// copy is the reference that form is tested against.
void Unfold(const float* in, int t, int d, int window, float* out);

/// out[j] = max over rows [row_begin, row_end) of X[:, k] — strict-greater
/// scan in row order, matching nn::MaxOverTime's first-max semantics.
void MaxOverTime(const float* X, int row_begin, int row_end, int k,
                 float* out);

/// v[i] = 1 / (1 + exp(-v[i])), float exp (nn::Sigmoid forward).
void SigmoidInPlace(float* v, size_t n);

/// v[i] = tanh(v[i]) (nn::Tanh forward).
void TanhInPlace(float* v, size_t n);

/// In-place softmax over v[0..n): float max, float exp(v - max), the
/// denominator accumulated in double, then v = float(v / denom). This is
/// the exact sequence every model's Predict uses on its logits, shared here
/// so the fast path and the cache key the same numbers.
void SoftmaxInPlace(float* v, size_t n);

// --- Int8 tier wrappers (nn/quant.h scheme, nn/simd_int8.h kernels) --------

/// out[i, :] = qtable[ids[i], :] for u8-quantized embedding rows; ids[i] < 0
/// (padding) yields a row of the activation zero point 128 (the quantized
/// zero row). Rows are `stride` bytes apart in `out`; the d..stride tail of
/// each row is padded with 128 so quad-dot kernels read exact zeros.
void Int8GatherRows(const uint8_t* qtable, int d, const int* ids, int n,
                    uint8_t* out, int stride);

/// u8 Unfold: out row i = window*d bytes starting at input row i, written
/// with rows `stride` bytes apart, tail padded with the zero point 128.
void Int8Unfold(const uint8_t* in, int t, int d, int window, uint8_t* out,
                int stride);

/// Quantized matmul + dequant: C (m x W.n fp32, row stride W.n) =
/// float(A_q @ W_q - corr) * (act_scale * W.scale) + bias. A holds m u8
/// rows `a_stride` bytes apart covering W's padded reduction length
/// (4 * W.k4 bytes, tail at the zero point); `acc` is caller scratch of
/// m x W.n_pad int32.
void Int8MatMul(const uint8_t* A, int a_stride,
                const quant::QuantizedTensor& W, float act_scale,
                const float* bias, int m, int32_t* acc, float* C);

}  // namespace sqlfacil::nn::infer

#endif  // SQLFACIL_NN_INFER_H_
