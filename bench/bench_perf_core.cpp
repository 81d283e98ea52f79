// Microbenchmarks of the numerical kernels behind the library (google-
// benchmark): GEMM variants, im2col, convolution forward/backward, the RBF
// kernel and one-class SVM scoring, affine warping, and the squeezers.
//
// The *_threads variants take the pool size as the second benchmark
// argument, so `scripts/run_perf_bench.sh` records the scaling curve of
// the parallel runtime alongside the single-threaded kernel numbers;
// bm_extract_activations records the same curve for a whole-model
// inference pass. Kernel benchmarks measure the kernel, not a cache: the
// one variant that measures cache hits has "cached" in its name.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "augment/affine.h"
#include "core/activation_batch.h"
#include "detect/squeezers.h"
#include "nn/layers.h"
#include "pipeline/models.h"
#include "svm/kernel.h"
#include "svm/one_class_svm.h"
#include "pipeline/config.h"
#include "tensor/ops.h"
#include "tensor/simd/simd.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/strong_lru.h"
#include "util/thread_pool.h"

namespace {

using namespace dv;

/// Pins the pool size for one benchmark run and restores the default after.
struct thread_arg {
  explicit thread_arg(std::int64_t n) {
    set_thread_count(static_cast<int>(n));
  }
  ~thread_arg() { set_thread_count(0); }
};

void bm_gemm_nn(benchmark::State& state) {
  const auto n = state.range(0);
  rng gen{1};
  tensor a = tensor::randn({n, n}, gen);
  tensor b = tensor::randn({n, n}, gen);
  tensor c{{n, n}};
  for (auto _ : state) {
    gemm_nn(n, n, n, 1.0f, a.data(), b.data(), 0.0f, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(bm_gemm_nn)->Arg(32)->Arg(64)->Arg(128);

void bm_gemm_nt(benchmark::State& state) {
  const auto n = state.range(0);
  rng gen{2};
  tensor a = tensor::randn({n, n}, gen);
  tensor b = tensor::randn({n, n}, gen);
  tensor c{{n, n}};
  for (auto _ : state) {
    gemm_nt(n, n, n, 1.0f, a.data(), b.data(), 0.0f, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(bm_gemm_nt)->Arg(64);

void bm_gemm_nn_threads(benchmark::State& state) {
  const auto n = state.range(0);
  thread_arg threads{state.range(1)};
  rng gen{1};
  tensor a = tensor::randn({n, n}, gen);
  tensor b = tensor::randn({n, n}, gen);
  tensor c{{n, n}};
  for (auto _ : state) {
    gemm_nn(n, n, n, 1.0f, a.data(), b.data(), 0.0f, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(bm_gemm_nn_threads)
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4})
    ->Args({256, 8})
    ->ArgNames({"n", "threads"})
    ->UseRealTime();

void bm_im2col(benchmark::State& state) {
  rng gen{3};
  const conv_geometry g{16, 28, 28, 3, 1, 1};
  tensor img = tensor::randn({16, 28, 28}, gen);
  tensor col{{g.col_rows(), g.col_cols()}};
  for (auto _ : state) {
    im2col(img.data(), g, col.data());
    benchmark::DoNotOptimize(col.data());
  }
}
BENCHMARK(bm_im2col);

void bm_conv_forward(benchmark::State& state) {
  rng gen{4};
  conv2d conv{8, 16, 3, 1, 1, gen};
  tensor x = tensor::randn({8, 8, 28, 28}, gen);
  for (auto _ : state) {
    tensor y = conv.forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 8);  // images per iteration
}
BENCHMARK(bm_conv_forward);

void bm_conv_backward(benchmark::State& state) {
  rng gen{5};
  conv2d conv{8, 16, 3, 1, 1, gen};
  tensor x = tensor::randn({8, 8, 28, 28}, gen);
  tensor y = conv.forward(x, true);
  tensor g = tensor::randn(y.shape(), gen);
  for (auto _ : state) {
    tensor dx = conv.backward(g);
    benchmark::DoNotOptimize(dx.data());
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(bm_conv_backward);

void bm_conv_forward_threads(benchmark::State& state) {
  thread_arg threads{state.range(0)};
  rng gen{4};
  conv2d conv{8, 16, 3, 1, 1, gen};
  tensor x = tensor::randn({32, 8, 28, 28}, gen);
  for (auto _ : state) {
    tensor y = conv.forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(bm_conv_forward_threads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->ArgName("threads")
    ->UseRealTime();

void bm_conv_backward_threads(benchmark::State& state) {
  thread_arg threads{state.range(0)};
  rng gen{5};
  conv2d conv{8, 16, 3, 1, 1, gen};
  tensor x = tensor::randn({32, 8, 28, 28}, gen);
  tensor y = conv.forward(x, true);
  tensor g = tensor::randn(y.shape(), gen);
  for (auto _ : state) {
    tensor dx = conv.backward(g);
    benchmark::DoNotOptimize(dx.data());
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(bm_conv_backward_threads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->ArgName("threads")
    ->UseRealTime();

/// extract_activations (sequential::infer plus the activation batch) of a
/// whole factory model: the street CNN at batch 128 and the objects
/// DenseNet at batch 32, the batch sizes of a refit and an audit chunk.
/// Weights are the untrained factory ones; the cost does not depend on
/// them. Arguments: model (0 street, 1 objects), batch, threads.
void bm_extract_activations(benchmark::State& state) {
  thread_arg threads{state.range(2)};
  const auto kind =
      state.range(0) == 0 ? dataset_kind::street : dataset_kind::objects;
  const std::unique_ptr<sequential> model = make_model(kind, 7);
  rng gen{13};
  const tensor x =
      tensor::uniform({state.range(1), 3, 32, 32}, gen, 0.0f, 1.0f);
  for (auto _ : state) {
    activation_batch acts = extract_activations(*model, x);
    benchmark::DoNotOptimize(acts.logits.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(1));
}
BENCHMARK(bm_extract_activations)
    ->Args({0, 128, 1})
    ->Args({0, 128, 2})
    ->Args({0, 128, 4})
    ->Args({1, 32, 1})
    ->Args({1, 32, 2})
    ->Args({1, 32, 4})
    ->ArgNames({"objects", "batch", "threads"})
    ->UseRealTime();

void bm_kernel_matrix_threads(benchmark::State& state) {
  thread_arg threads{state.range(0)};
  rng gen{12};
  tensor samples = tensor::randn({400, 32}, gen);
  for (auto _ : state) {
    tensor k = kernel_matrix(kernel_kind::rbf, samples, 0.01);
    benchmark::DoNotOptimize(k.data());
  }
  state.SetItemsProcessed(state.iterations() * 400 * 400 / 2);
}
BENCHMARK(bm_kernel_matrix_threads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->ArgName("threads")
    ->UseRealTime();

/// Pins the process-wide caching knob (DV_CACHE) for one benchmark run and
/// restores it after.
struct cache_arg {
  explicit cache_arg(bool enabled) : saved{cache_enabled()} {
    set_cache_enabled(enabled);
  }
  ~cache_arg() { set_cache_enabled(saved); }
  bool saved;
};

/// One-class SVM scoring of the same 256 rows per iteration. Uncached it
/// measures the RBF decision kernel; cached, every iteration after the
/// first is served from the decision cache.
void svm_decision_batch(benchmark::State& state, bool cached) {
  thread_arg threads{state.range(0)};
  cache_arg cache{cached};
  rng gen{8};
  tensor samples = tensor::randn({300, 16}, gen);
  one_class_svm svm;
  svm.fit(samples, {});
  tensor queries = tensor::randn({256, 16}, gen);
  for (auto _ : state) {
    const auto scores = svm.decision_batch(queries);
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(state.iterations() * 256);
}

void bm_svm_decision_batch_threads(benchmark::State& state) {
  svm_decision_batch(state, /*cached=*/false);
}
BENCHMARK(bm_svm_decision_batch_threads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->ArgName("threads")
    ->UseRealTime();

void bm_svm_decision_batch_cached_threads(benchmark::State& state) {
  svm_decision_batch(state, /*cached=*/true);
}
BENCHMARK(bm_svm_decision_batch_cached_threads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->ArgName("threads")
    ->UseRealTime();

void bm_rbf_kernel_matrix(benchmark::State& state) {
  const auto n = state.range(0);
  rng gen{11};
  tensor samples = tensor::randn({n, 64}, gen);
  for (auto _ : state) {
    tensor k = kernel_matrix(kernel_kind::rbf, samples, 0.01);
    benchmark::DoNotOptimize(k.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n / 2);
}
BENCHMARK(bm_rbf_kernel_matrix)->Arg(128)->Arg(256);

/// A KDE-style detector reduction: batched squared distances from one
/// query to a reference bank, folded with logsumexp.
void bm_detector_reduction(benchmark::State& state) {
  const std::int64_t m = 256, d = 256;
  rng gen{13};
  tensor reference = tensor::randn({m, d}, gen);
  tensor query = tensor::randn({d}, gen);
  std::vector<double> sq(static_cast<std::size_t>(m));
  for (auto _ : state) {
    squared_distance_row(query.data(), reference.data(), m, d, sq.data());
    double mx = -std::numeric_limits<double>::infinity();
    for (auto& e : sq) {
      e *= -0.5;
      mx = std::max(mx, e);
    }
    double acc = 0.0;
    for (const double e : sq) acc += std::exp(e - mx);
    benchmark::DoNotOptimize(mx + std::log(acc));
  }
  state.SetItemsProcessed(state.iterations() * m * d);
}
BENCHMARK(bm_detector_reduction);

void bm_rbf_kernel(benchmark::State& state) {
  const auto d = state.range(0);
  rng gen{6};
  tensor a = tensor::randn({d}, gen);
  tensor b = tensor::randn({d}, gen);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rbf_kernel(a.data(), b.data(), d, 0.01));
  }
}
BENCHMARK(bm_rbf_kernel)->Arg(64)->Arg(512);

void bm_svm_fit(benchmark::State& state) {
  const auto n = state.range(0);
  rng gen{7};
  tensor samples = tensor::randn({n, 16}, gen);
  for (auto _ : state) {
    one_class_svm svm;
    svm.fit(samples, {});
    benchmark::DoNotOptimize(svm.rho());
  }
}
BENCHMARK(bm_svm_fit)->Arg(100)->Arg(300);

void bm_svm_decision(benchmark::State& state) {
  rng gen{8};
  tensor samples = tensor::randn({300, 16}, gen);
  one_class_svm svm;
  svm.fit(samples, {});
  tensor query = tensor::randn({16}, gen);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        svm.decision({query.data(), static_cast<std::size_t>(16)}));
  }
}
BENCHMARK(bm_svm_decision);

void bm_warp_affine(benchmark::State& state) {
  rng gen{9};
  tensor img = tensor::uniform({3, 32, 32}, gen, 0.0f, 1.0f);
  const affine_matrix rot = affine_matrix::rotation(0.7f);
  for (auto _ : state) {
    tensor out = warp_affine(img, rot);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(bm_warp_affine);

void bm_median_squeezer(benchmark::State& state) {
  rng gen{10};
  tensor img = tensor::uniform({1, 28, 28}, gen, 0.0f, 1.0f);
  median_squeezer sq{2};
  for (auto _ : state) {
    tensor out = sq.apply(img);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(bm_median_squeezer);

}  // namespace

// Expanded BENCHMARK_MAIN so a DV_METRICS=1 run leaves its snapshot in
// the artifact cache like every other bench binary.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // Recorded into the JSON context block so BENCH_perf_core.json says
  // which dispatch level produced the numbers.
  benchmark::AddCustomContext(
      "dv_simd_dispatch_level",
      std::string{dv::simd_level_name(dv::active_simd_level())});
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (dv::metrics::enabled()) {
    dv::metrics::write_artifacts(dv::artifact_directory());
  }
  return 0;
}
