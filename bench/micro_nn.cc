// Micro-benchmarks of the nn substrate: matmul throughput, LSTM steps,
// CNN forward/backward — the kernels that dominate model training time —
// and the served CNN's conv GEMM.

#include <benchmark/benchmark.h>

#include "sqlfacil/nn/autograd.h"
#include "sqlfacil/nn/infer.h"
#include "sqlfacil/nn/layers.h"
#include "sqlfacil/nn/optim.h"
#include "sqlfacil/util/thread_pool.h"

namespace sqlfacil::nn {
namespace {

// Kernel benchmarks sweep the pool size (second argument) so speedup vs
// SQLFACIL_THREADS is measurable from one binary.
const std::vector<int64_t> kThreadSweep = {1, 2, 4, 8};

void BM_MatMul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ThreadPool::SetGlobalThreads(static_cast<int>(state.range(1)));
  Rng rng(1);
  Var a = MakeParam(Tensor::RandomUniform({n, n}, 1.0f, &rng));
  Var b = MakeParam(Tensor::RandomUniform({n, n}, 1.0f, &rng));
  for (auto _ : state) {
    Var c = MatMul(a, b);
    benchmark::DoNotOptimize(c->value.data());
  }
  state.SetItemsProcessed(state.iterations() * int64_t{2} * n * n * n);
}
BENCHMARK(BM_MatMul)->ArgsProduct({{32, 64, 128}, kThreadSweep});

void BM_MatMulBackward(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ThreadPool::SetGlobalThreads(static_cast<int>(state.range(1)));
  Rng rng(1);
  Var a = MakeParam(Tensor::RandomUniform({n, n}, 1.0f, &rng));
  Var b = MakeParam(Tensor::RandomUniform({n, n}, 1.0f, &rng));
  for (auto _ : state) {
    ZeroGrad({a, b});
    Var loss = Mean(MatMul(a, b));
    Backward(loss);
    benchmark::DoNotOptimize(a->grad.data());
  }
}
BENCHMARK(BM_MatMulBackward)->ArgsProduct({{32, 64}, kThreadSweep});

void BM_LstmStep(benchmark::State& state) {
  const int batch = 16;
  const int hidden = static_cast<int>(state.range(0));
  Rng rng(2);
  LstmLayer layer(hidden, hidden, &rng);
  auto prev = layer.InitialState(batch);
  Var x = MakeConst(Tensor::RandomUniform({batch, hidden}, 1.0f, &rng));
  std::vector<bool> active(batch, true);
  for (auto _ : state) {
    auto next = layer.Step(x, prev, active);
    benchmark::DoNotOptimize(next.h->value.data());
  }
}
BENCHMARK(BM_LstmStep)->Arg(32)->Arg(64);

void BM_LstmSequenceTrainStep(benchmark::State& state) {
  const int batch = 16, hidden = 32, embed = 12, seq = 96;
  Rng rng(3);
  Embedding emb(200, embed, &rng);
  LstmStack stack(embed, hidden, 3, &rng);
  Linear head(hidden, 3, &rng);
  auto params = stack.Params();
  for (auto& p : emb.Params()) params.push_back(p);
  for (auto& p : head.Params()) params.push_back(p);
  AdaMax opt(params, 2e-3f);
  std::vector<int> labels(batch, 1);
  for (auto _ : state) {
    std::vector<Var> steps;
    std::vector<std::vector<bool>> active;
    for (int t = 0; t < seq; ++t) {
      std::vector<int> ids(batch, (t * 7) % 200);
      steps.push_back(emb.Lookup(ids));
      active.emplace_back(batch, true);
    }
    opt.ZeroGrad();
    Var loss = SoftmaxCrossEntropy(head.Apply(stack.Run(steps, active)),
                                   labels);
    Backward(loss);
    opt.Step();
    benchmark::DoNotOptimize(loss->value.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_LstmSequenceTrainStep);

void BM_CnnForward(benchmark::State& state) {
  const int seq = static_cast<int>(state.range(0));
  ThreadPool::SetGlobalThreads(static_cast<int>(state.range(1)));
  const int embed = 12, kernels = 32;
  Rng rng(4);
  Embedding emb(200, embed, &rng);
  std::vector<Linear> convs;
  for (int w : {3, 4, 5}) convs.emplace_back(w * embed, kernels, &rng);
  Linear head(3 * kernels, 3, &rng);
  std::vector<int> ids(seq);
  for (int i = 0; i < seq; ++i) ids[i] = (i * 13) % 200;
  for (auto _ : state) {
    Var e = emb.Lookup(ids);
    std::vector<Var> pooled;
    int wi = 0;
    for (int w : {3, 4, 5}) {
      pooled.push_back(MaxOverTime(Relu(convs[wi++].Apply(Unfold(e, w)))));
    }
    Var out = head.Apply(ConcatCols(pooled));
    benchmark::DoNotOptimize(out->value.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CnnForward)->ArgsProduct({{64, 192}, kThreadSweep});

// The served ccnn conv GEMM, one thread: a 32-query slice stacks ~2600
// window rows, k = width * embed_dim = 48/64/80 for widths 3/4/5 at
// embed_dim 16, n = kernels_per_width = 48. items_per_second is FLOP/s
// (2*m*k*n per call).
void BM_ConvGemm(benchmark::State& state) {
  const int m = 2600, k = static_cast<int>(state.range(0)), n = 48;
  Rng rng(6);
  const Tensor a = Tensor::RandomUniform({m, k}, 1.0f, &rng);
  const Tensor b = Tensor::RandomUniform({k, n}, 1.0f, &rng);
  std::vector<float> c(static_cast<size_t>(m) * n);
  for (auto _ : state) {
    infer::MatMul(a.data(), b.data(), c.data(), m, k, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * int64_t{2} * m * k * n);
}
BENCHMARK(BM_ConvGemm)->Arg(48)->Arg(64)->Arg(80);

void BM_SoftmaxCrossEntropy(benchmark::State& state) {
  Rng rng(5);
  Var logits = MakeParam(Tensor::RandomUniform({16, 7}, 1.0f, &rng));
  std::vector<int> labels(16, 3);
  for (auto _ : state) {
    Var loss = SoftmaxCrossEntropy(logits, labels);
    benchmark::DoNotOptimize(loss->value.data());
  }
}
BENCHMARK(BM_SoftmaxCrossEntropy);

}  // namespace
}  // namespace sqlfacil::nn
