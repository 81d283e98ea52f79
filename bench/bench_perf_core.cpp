// Microbenchmarks of the numerical kernels behind the library (google-
// benchmark): GEMM variants, im2col, convolution forward/backward, the
// direct convolution of the fused DenseNet inference and of conv2d::infer,
// the street CNN's batch-1 ReLU, max-pool and dense layers, the RBF
// kernel and one-class SVM scoring, affine warping, and the squeezers.
//
// The *_threads variants take the pool size as the second benchmark
// argument, so `scripts/run_perf_bench.sh` records the scaling curve of
// the parallel runtime alongside the single-threaded kernel numbers;
// bm_extract_activations records the same curve for a whole-model
// inference pass. Kernel benchmarks measure the kernel, not a cache: the
// variants that measure cache hits have "cached" in their names.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "augment/affine.h"
#include "core/activation_batch.h"
#include "core/activation_cache.h"
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

/// The objects DenseNet's composite conv shapes: a growth conv of each
/// block's units (12 and 24 -> 6 at 32x32, 27 -> 6 at 16x16, 28 -> 6 at
/// 8x8) and the first transition's 1x1 conv (30 -> 15 at 32x32). Args:
/// in_c, out_c, kernel, size (square output, "same" padding).
void dense_conv_shapes(benchmark::internal::Benchmark* b) {
  b->Args({12, 6, 3, 32})
      ->Args({24, 6, 3, 32})
      ->Args({27, 6, 3, 16})
      ->Args({28, 6, 3, 8})
      ->Args({30, 15, 1, 32})
      ->ArgNames({"in_c", "out_c", "kernel", "size"});
}

/// conv_direct on one staged image with its zero border written in, as
/// the fused dense-block inference calls it; single-threaded, items are
/// images.
void bm_conv_direct(benchmark::State& state) {
  thread_arg threads{1};
  const std::int64_t in_c = state.range(0), out_c = state.range(1);
  const std::int64_t k = state.range(2), size = state.range(3);
  const std::int64_t padded = size + k - 1;
  rng gen{6};
  const conv_geometry g{in_c, padded, padded, k, 1, 0};
  const tensor image = tensor::uniform({in_c, padded, padded}, gen, 0, 1);
  const tensor weight = tensor::randn({out_c, g.col_rows()}, gen);
  tensor out{{out_c, size, size}};
  for (auto _ : state) {
    conv_direct(image.data(), g, weight.data(), out_c, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_conv_direct)->Apply(dense_conv_shapes);

/// The street CNN's four convs (3x3, pad 1, with bias): 3 -> 16 and
/// 16 -> 16 at 32x32, 16 -> 32 and 32 -> 32 at 16x16. Same arguments as
/// dense_conv_shapes.
void street_conv_shapes(benchmark::internal::Benchmark* b) {
  b->Args({3, 16, 3, 32})
      ->Args({16, 16, 3, 32})
      ->Args({16, 32, 3, 16})
      ->Args({32, 32, 3, 16})
      ->ArgNames({"in_c", "out_c", "kernel", "size"});
}

/// The im2col + GEMM reference for the direct convolution's shapes:
/// im2col of one image ("same" padding), then gemm_nn, single-threaded;
/// items are images. Since conv2d::infer runs stride-1 convs on
/// conv_direct, this is the path it replaced.
void bm_conv_forward_shape(benchmark::State& state) {
  thread_arg threads{1};
  const std::int64_t in_c = state.range(0), out_c = state.range(1);
  const std::int64_t k = state.range(2), size = state.range(3);
  rng gen{6};
  const conv_geometry g{in_c, size, size, k, 1, k / 2};
  const tensor x = tensor::randn({in_c, size, size}, gen);
  const tensor weight = tensor::randn({out_c, g.col_rows()}, gen);
  tensor col{{g.col_rows(), g.col_cols()}};
  tensor out{{out_c, size, size}};
  for (auto _ : state) {
    im2col(x.data(), g, col.data());
    gemm_nn(out_c, g.col_cols(), g.col_rows(), 1.0f, weight.data(),
            col.data(), 0.0f, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_conv_forward_shape)
    ->Name("bm_conv_forward")
    ->Apply(dense_conv_shapes)
    ->Apply(street_conv_shapes);

/// conv2d::infer of one image at the street CNN's conv shapes, as a live
/// stream's batch-1 forward runs it (staged zero border, conv_direct,
/// bias), single-threaded; compare with bm_conv_forward at the same
/// shapes.
void bm_conv2d_infer(benchmark::State& state) {
  thread_arg threads{1};
  const std::int64_t in_c = state.range(0), out_c = state.range(1);
  const std::int64_t k = state.range(2), size = state.range(3);
  rng gen{6};
  const conv2d conv{in_c, out_c, k, 1, k / 2, gen};
  const tensor x = tensor::randn({1, in_c, size, size}, gen);
  for (auto _ : state) {
    tensor y = conv.infer(x, nullptr);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_conv2d_infer)->Apply(street_conv_shapes);

/// relu::infer and the 2x2 max_pool2d::infer on the street CNN's first
/// [16, 32, 32] activation at batch 1, and dense::infer of its 2048 -> 96
/// layer at batch 1 and 4 (one inference slice), on one thread. Inputs
/// are standard normal, so about half the activations are negative (the
/// case a compare-and-branch mispredicts).
void bm_relu_infer(benchmark::State& state) {
  thread_arg threads{1};
  rng gen{15};
  const relu layer;
  const tensor x = tensor::randn({1, 16, 32, 32}, gen);
  for (auto _ : state) {
    tensor y = layer.infer(x, nullptr);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(bm_relu_infer);

void bm_max_pool2x2_infer(benchmark::State& state) {
  thread_arg threads{1};
  rng gen{16};
  const max_pool2d layer{2};
  const tensor x = tensor::randn({1, 16, 32, 32}, gen);
  for (auto _ : state) {
    tensor y = layer.infer(x, nullptr);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(bm_max_pool2x2_infer);

void bm_dense_infer(benchmark::State& state) {
  thread_arg threads{1};
  rng gen{17};
  const dense layer{2048, 96, gen};
  const tensor x = tensor::randn({state.range(0), 2048}, gen);
  for (auto _ : state) {
    tensor y = layer.infer(x, nullptr);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(bm_dense_infer)->Arg(1)->Arg(4)->ArgName("batch");

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

/// Pins the process-wide caching knob (DV_CACHE) for one benchmark run and
/// restores it after.
struct cache_arg {
  explicit cache_arg(bool enabled) : saved{cache_enabled()} {
    set_cache_enabled(enabled);
  }
  ~cache_arg() { set_cache_enabled(saved); }
  bool saved;
};

/// extract_activations (sequential::infer plus the activation batch) of a
/// whole factory model: the street CNN at batch 128 and the objects
/// DenseNet at batch 32, the batch sizes of a refit and an audit chunk,
/// and the street CNN at batch 1, a live stream's batch. Weights are the
/// untrained factory ones; the cost does not depend on them. Arguments:
/// model (0 street, 1 objects), batch, threads, and probes: 0 the raw
/// probes alone; 1 the raw probes, then every probe's probe_features at
/// spatial 1, as fit and the bank read them before the slices reduced
/// them; 2 every probe reduced at spatial 1 inside its inference slice,
/// then probe_features, as fit and the bank read them now.
void bm_extract_activations(benchmark::State& state) {
  thread_arg threads{state.range(2)};
  const auto kind =
      state.range(0) == 0 ? dataset_kind::street : dataset_kind::objects;
  const std::int64_t probes = state.range(3);
  const std::unique_ptr<sequential> model = make_model(kind, 7);
  rng gen{13};
  const tensor x =
      tensor::uniform({state.range(1), 3, 32, 32}, gen, 0.0f, 1.0f);
  for (auto _ : state) {
    const activation_batch acts = probes == 2
                                      ? extract_activations(*model, x, 1)
                                      : extract_activations(*model, x);
    benchmark::DoNotOptimize(acts.logits.data());
    for (int p = 0; probes > 0 && p < acts.probe_count(); ++p) {
      benchmark::DoNotOptimize(acts.probe_features(p, 1).data());
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(1));
}
BENCHMARK(bm_extract_activations)
    ->Args({0, 1, 1, 0})
    ->Args({0, 1, 2, 0})
    ->Args({0, 1, 3, 0})
    ->Args({0, 1, 4, 0})
    ->Args({0, 128, 1, 0})
    ->Args({0, 128, 2, 0})
    ->Args({0, 128, 4, 0})
    ->Args({0, 128, 1, 1})
    ->Args({0, 128, 1, 2})
    ->Args({0, 128, 4, 1})
    ->Args({0, 128, 4, 2})
    ->Args({1, 32, 1, 0})
    ->Args({1, 32, 2, 0})
    ->Args({1, 32, 4, 0})
    ->Args({1, 32, 1, 1})
    ->Args({1, 32, 1, 2})
    ->Args({1, 32, 4, 1})
    ->Args({1, 32, 4, 2})
    ->ArgNames({"objects", "batch", "threads", "probes"})
    ->UseRealTime();

/// What a mostly repeated 32-frame batch pays before the SVMs:
/// extract_activations_cached over the street CNN with 31 cached frames
/// and 1 new one, then probe_features of every probe at spatial 1. The
/// cache holds 32 entries, so each new frame evicts the previous one and
/// the next new frame misses again.
void bm_extract_activations_cached(benchmark::State& state) {
  cache_arg cache_on{true};
  const std::unique_ptr<sequential> model =
      make_model(dataset_kind::street, 7);
  constexpr std::int64_t batch = 32;
  constexpr std::int64_t fresh_frames = 64;
  rng gen{14};
  tensor frames = tensor::uniform({batch, 3, 32, 32}, gen, 0.0f, 1.0f);
  const tensor fresh =
      tensor::uniform({fresh_frames, 3, 32, 32}, gen, 0.0f, 1.0f);
  activation_cache cache{static_cast<std::size_t>(batch), 1};
  (void)extract_activations_cached(*model, frames, &cache);
  std::int64_t next = 0;
  for (auto _ : state) {
    frames.set_sample(batch - 1, fresh.sample(next++ % fresh_frames));
    const activation_batch acts =
        extract_activations_cached(*model, frames, &cache);
    for (int p = 0; p < acts.probe_count(); ++p) {
      benchmark::DoNotOptimize(acts.probe_features(p, 1).data());
    }
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(bm_extract_activations_cached)->UseRealTime();

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

/// One-class SVM scoring of 256 rows per iteration: the RBF decision
/// kernel.
void bm_svm_decision_batch_threads(benchmark::State& state) {
  thread_arg threads{state.range(0)};
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
BENCHMARK(bm_svm_decision_batch_threads)
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
