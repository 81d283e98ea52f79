// Tests of the reentrant inference path (nn/layer.h infer(),
// sequential::infer, extract_activations): for every layer kind and the
// three model factories, the const path's logits and probes equal the
// stateful forward(x, false) bit for bit at every slice-relative batch
// size, DV_THREADS setting and supported DV_SIMD level; probes reduced
// inside the slices equal reduce_probe of the raw probes; concurrent
// callers on one shared const model get the serial result;
// deep_validator::fit's one-pass Algorithm 1 builds the same bank as a
// predict-filter-then-extract reference; and every layer kind shows up in
// the trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/activation_batch.h"
#include "core/deep_validator.h"
#include "nn/dense_block.h"
#include "nn/layers.h"
#include "nn/probe_reducer.h"
#include "pipeline/models.h"
#include "tensor/ops.h"
#include "tensor/simd/simd.h"
#include "test_util.h"
#include "util/flat_snapshot.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace dv {
namespace {

constexpr std::int64_t k_slice = sequential::infer_slice_rows;

/// Batch sizes around the slice boundary plus two multi-slice batches.
const std::vector<std::int64_t>& batch_sizes() {
  static const std::vector<std::int64_t> sizes{
      1, k_slice - 1, k_slice, k_slice + 1, 32, 128};
  return sizes;
}

/// Restores the startup dispatch level and thread count when a test exits.
struct pool_state_guard {
  ~pool_state_guard() {
    reset_simd_level();
    set_thread_count(0);
  }
};

/// The (SIMD level, DV_THREADS) pairs the identity matrix covers for a
/// batch of `n` rows: every supported level at 1, 4 and 8 threads, except
/// that whole models at the largest batch run only at the widest level
/// (the kernels' level identity is pinned by test_simd; what this matrix
/// adds is the slicing, which a batch of 32 already spans at every level).
std::vector<std::pair<simd_level, int>> settings(std::int64_t n = 0,
                                                 bool whole_model = false) {
  std::vector<simd_level> levels;
  for (const auto level :
       {simd_level::scalar, simd_level::sse2, simd_level::avx2}) {
    if (simd_level_supported(level)) levels.push_back(level);
  }
  if (whole_model && n > 32) levels.erase(levels.begin(), levels.end() - 1);
  std::vector<std::pair<simd_level, int>> out;
  for (const auto level : levels) {
    for (const int threads : {1, 4, 8}) out.emplace_back(level, threads);
  }
  return out;
}

std::string setting_name(const std::pair<simd_level, int>& s) {
  return std::string{simd_level_name(s.first)} +
         " threads=" + std::to_string(s.second);
}

bool bitwise_equal(const tensor& a, const tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

/// Channels [first, first + count) of a 4-D tensor.
tensor channel_slice(const tensor& x, std::int64_t first, std::int64_t count) {
  const std::int64_t n = x.extent(0), c = x.extent(1);
  const std::int64_t plane = x.extent(2) * x.extent(3);
  tensor out{{n, count, x.extent(2), x.extent(3)}};
  for (std::int64_t i = 0; i < n; ++i) {
    std::memcpy(out.data() + i * count * plane,
                x.data() + (i * c + first) * plane,
                static_cast<std::size_t>(count * plane) * sizeof(float));
  }
  return out;
}

// -- Layer kinds -------------------------------------------------------------------

struct layer_case {
  std::string name;
  std::function<std::unique_ptr<layer>()> make;
  /// Input shape without the batch axis.
  std::vector<std::int64_t> sample_shape;
  /// The probes a probed layer must report, from its stateful output.
  std::function<std::vector<tensor>(const tensor& out)> expected_probes;
};

std::vector<tensor> output_only(const tensor& out) { return {out}; }

/// Gives every batch norm inside `l` non-trivial running statistics and
/// affine parameters, as after training. state() lists each batch norm's
/// running mean, then its running variance.
std::unique_ptr<layer> with_trained_batch_norms(std::unique_ptr<layer> l) {
  rng gen{41};
  const std::vector<tensor*> state = l->state();
  for (std::size_t i = 0; i + 1 < state.size(); i += 2) {
    *state[i] = tensor::randn(state[i]->shape(), gen, 0.5f);
    *state[i + 1] = tensor::uniform(state[i + 1]->shape(), gen, 0.5f, 2.0f);
  }
  for (const param_ref& p : l->params()) {
    if (p.name == "gamma" || p.name == "beta") {
      *p.value = tensor::randn(p.value->shape(), gen);
    }
  }
  return l;
}

/// A dense block with trained batch norms and every unit probed.
std::unique_ptr<layer> trained_block(std::int64_t in_c, std::int64_t growth,
                                     int units) {
  rng gen{5};
  auto block = std::make_unique<dense_block>(in_c, growth, units, gen);
  block->set_unit_probes(-1);
  return with_trained_batch_norms(std::move(block));
}

/// Block probes: every unit's new feature maps (channels in_c + growth * u
/// onward of the output), then the block output.
std::function<std::vector<tensor>(const tensor&)> block_probes(
    std::int64_t in_c, std::int64_t growth, int units) {
  return [=](const tensor& y) {
    std::vector<tensor> probes;
    for (int u = 0; u < units; ++u) {
      probes.push_back(channel_slice(y, in_c + growth * u, growth));
    }
    probes.push_back(y);
    return probes;
  };
}

std::vector<layer_case> layer_cases() {
  std::vector<layer_case> out;
  out.push_back({"conv2d",
                 [] {
                   rng gen{1};
                   return std::make_unique<conv2d>(3, 5, 3, 1, 1, gen);
                 },
                 {3, 9, 9},
                 output_only});
  out.push_back({"conv2d_strided_no_bias",
                 [] {
                   rng gen{2};
                   return std::make_unique<conv2d>(2, 4, 3, 2, 0, gen,
                                                   /*bias=*/false);
                 },
                 {2, 9, 9},
                 output_only});
  out.push_back({"dense",
                 [] {
                   rng gen{3};
                   return std::make_unique<dense>(40, 7, gen);
                 },
                 {40},
                 output_only});
  out.push_back({"relu", [] { return std::make_unique<relu>(); }, {3, 5, 5},
                 output_only});
  out.push_back({"leaky_relu",
                 [] { return std::make_unique<leaky_relu>(0.1f); },
                 {3, 5, 5},
                 output_only});
  out.push_back({"sigmoid", [] { return std::make_unique<sigmoid>(); },
                 {17},
                 output_only});
  out.push_back({"tanh", [] { return std::make_unique<tanh_layer>(); },
                 {17},
                 output_only});
  out.push_back({"dropout",
                 [] { return std::make_unique<dropout>(0.5, 4); },
                 {3, 5, 5},
                 output_only});
  out.push_back({"flatten", [] { return std::make_unique<flatten>(); },
                 {3, 4, 5},
                 output_only});
  out.push_back({"max_pool2d",
                 [] { return std::make_unique<max_pool2d>(2); },
                 {3, 7, 8},
                 output_only});
  out.push_back({"avg_pool2d",
                 [] { return std::make_unique<avg_pool2d>(2); },
                 {3, 8, 7},
                 output_only});
  out.push_back({"global_avg_pool",
                 [] { return std::make_unique<global_avg_pool>(); },
                 {3, 5, 6},
                 output_only});
  out.push_back({"batch_norm_spatial",
                 [] {
                   return with_trained_batch_norms(
                       std::make_unique<batch_norm>(3));
                 },
                 {3, 5, 5},
                 output_only});
  out.push_back({"batch_norm_dense",
                 [] {
                   return with_trained_batch_norms(
                       std::make_unique<batch_norm>(9));
                 },
                 {9},
                 output_only});
  // The composites run the fused inference path, so they get trained
  // batch norms, widths that leave every vector tail of the direct
  // convolution (5, 7, 9, 33, plus whole vectors at 6 and 16), and a
  // block whose units have K = 270 and 324 taps: two k panels.
  for (const std::int64_t w : {6, 5, 7, 9, 16, 33}) {
    const std::string at = w == 6 ? "" : "_w" + std::to_string(w);
    out.push_back({"dense_block" + at, [] { return trained_block(4, 3, 3); },
                   {4, 6, w}, block_probes(4, 3, 3)});
    out.push_back({"transition" + at,
                   [] {
                     rng gen{6};
                     return with_trained_batch_norms(
                         std::make_unique<transition>(6, 3, gen));
                   },
                   {6, 8, w},
                   output_only});
  }
  out.push_back({"dense_block_two_k_panels",
                 [] { return trained_block(30, 6, 2); },
                 {30, 5, 9},
                 block_probes(30, 6, 2)});
  return out;
}

TEST(InferenceIdentity, EveryLayerKindMatchesStatefulForward) {
  pool_state_guard guard;
  for (const layer_case& lc : layer_cases()) {
    std::unique_ptr<layer> l = lc.make();
    l->set_probe(true);
    for (const std::int64_t n : batch_sizes()) {
      std::vector<std::int64_t> shape{n};
      shape.insert(shape.end(), lc.sample_shape.begin(),
                   lc.sample_shape.end());
      rng gen{static_cast<std::uint64_t>(100 + n)};
      const tensor x = tensor::randn(shape, gen);
      const tensor expected = l->forward(x, false);
      const std::vector<tensor> expected_probes = lc.expected_probes(expected);
      ASSERT_EQ(static_cast<int>(expected_probes.size()), l->probe_count())
          << lc.name;
      for (const auto& s : settings()) {
        set_simd_level(s.first);
        set_thread_count(s.second);
        std::vector<tensor> probes;
        const tensor got = l->infer(x, &probes);
        EXPECT_TRUE(bitwise_equal(got, expected))
            << lc.name << " n=" << n << " " << setting_name(s);
        ASSERT_EQ(probes.size(), expected_probes.size()) << lc.name;
        for (std::size_t p = 0; p < probes.size(); ++p) {
          EXPECT_TRUE(bitwise_equal(probes[p], expected_probes[p]))
              << lc.name << " probe " << p << " n=" << n << " "
              << setting_name(s);
        }
        // Without a probe list the output is the same and nothing leaks.
        EXPECT_TRUE(bitwise_equal(l->infer(x, nullptr), expected)) << lc.name;
      }
      reset_simd_level();
      set_thread_count(0);
    }
  }
}

/// conv2d::infer's reference: per sample, im2col, then gemm_nn, then the
/// bias added to every element of its channel.
tensor im2col_gemm_conv(const conv2d& conv, const tensor* bias,
                        std::int64_t pad, const tensor& x) {
  const conv_geometry g{x.extent(1), x.extent(2), x.extent(3), 3, 1, pad};
  const std::int64_t n = x.extent(0), out_c = conv.out_channels();
  const std::int64_t plane = g.col_cols();
  tensor out{{n, out_c, g.out_h(), g.out_w()}};
  tensor col{{g.col_rows(), g.col_cols()}};
  for (std::int64_t i = 0; i < n; ++i) {
    im2col(x.data() + i * g.in_c * g.in_h * g.in_w, g, col.data());
    float* y = out.data() + i * out_c * plane;
    gemm_nn(out_c, plane, g.col_rows(), 1.0f, conv.weight().data(),
            col.data(), 0.0f, y);
    for (std::int64_t c = 0; bias != nullptr && c < out_c; ++c) {
      for (std::int64_t p = 0; p < plane; ++p) y[c * plane + p] += (*bias)[c];
    }
  }
  return out;
}

TEST(InferenceIdentity, Conv2dInferMatchesIm2colGemmReference) {
  pool_state_guard guard;
  // Stride-1 conv2d::infer convolves a zero-bordered copy of each sample
  // with conv_direct; it must give the bits of im2col + gemm_nn + bias.
  // 30 input channels make 270 taps, two k panels.
  int cases = 0;
  for (const std::int64_t in_c : {3, 30}) {
    for (const std::int64_t pad : {0, 1, 2}) {
      for (const bool bias : {true, false}) {
        rng gen{static_cast<std::uint64_t>(300 + 10 * in_c + 2 * pad + bias)};
        conv2d conv{in_c, 7, 3, 1, pad, gen, bias};
        for (const param_ref& p : conv.params()) {
          *p.value = tensor::randn(p.value->shape(), gen);
        }
        const tensor* b = bias ? conv.params()[1].value : nullptr;
        for (const std::int64_t w : {5, 7, 9, 33}) {
          for (const std::int64_t n : {1, 5}) {
            const tensor x = tensor::randn({n, in_c, 6, w}, gen);
            const tensor want = im2col_gemm_conv(conv, b, pad, x);
            for (const auto& s : settings()) {
              set_simd_level(s.first);
              set_thread_count(s.second);
              EXPECT_TRUE(bitwise_equal(conv.infer(x, nullptr), want))
                  << "in_c=" << in_c << " pad=" << pad << " bias=" << bias
                  << " w=" << w << " n=" << n << " " << setting_name(s);
            }
            reset_simd_level();
            set_thread_count(0);
            ++cases;
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 96);
}

// -- Model factories ----------------------------------------------------------------

/// Probes of `model` on `x` from the stateful path: each probe layer's
/// infer() fed the input that the stateful forward(h, false) chain gives
/// it, so the expected rows never pass through sequential::infer's
/// slicing. (Per-layer infer() itself is pinned by the test above.)
std::vector<tensor> stateful_probes(sequential& model, const tensor& x,
                                    tensor& logits) {
  std::vector<tensor> probes;
  tensor h = x;
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    if (model.at(i).probe_count() > 0) {
      (void)model.at(i).infer(h, &probes);
    }
    h = model.at(i).forward(h, false);
  }
  logits = std::move(h);
  return probes;
}

TEST(InferenceIdentity, ModelFactoriesMatchStatefulForward) {
  pool_state_guard guard;
  for (const auto kind :
       {dataset_kind::digits, dataset_kind::street, dataset_kind::objects}) {
    auto model = make_model(kind, 7);
    const std::vector<std::int64_t> sample =
        kind == dataset_kind::digits ? std::vector<std::int64_t>{1, 28, 28}
                                     : std::vector<std::int64_t>{3, 32, 32};
    for (const std::int64_t n : batch_sizes()) {
      std::vector<std::int64_t> shape{n};
      shape.insert(shape.end(), sample.begin(), sample.end());
      rng gen{static_cast<std::uint64_t>(200 + n)};
      const tensor x = tensor::uniform(shape, gen, 0.0f, 1.0f);
      const tensor forward_logits = model->forward(x, false);
      tensor chain_logits;
      const std::vector<tensor> expected_probes =
          stateful_probes(*model, x, chain_logits);
      ASSERT_TRUE(bitwise_equal(chain_logits, forward_logits));
      ASSERT_EQ(static_cast<int>(expected_probes.size()),
                model->probe_count());
      for (const auto& s : settings(n, /*whole_model=*/true)) {
        set_simd_level(s.first);
        set_thread_count(s.second);
        const inference got = model->infer(x);
        const std::string where = std::string{model_name(kind)} +
                                  " n=" + std::to_string(n) + " " +
                                  setting_name(s);
        EXPECT_TRUE(bitwise_equal(got.logits, forward_logits)) << where;
        ASSERT_EQ(got.probes.size(), expected_probes.size()) << where;
        for (std::size_t p = 0; p < got.probes.size(); ++p) {
          EXPECT_TRUE(bitwise_equal(got.probes[p], expected_probes[p]))
              << where << " probe " << p;
        }
      }
      reset_simd_level();
      set_thread_count(0);
      const inference logits_only = model->infer(x, probe_output::none());
      EXPECT_TRUE(bitwise_equal(logits_only.logits, forward_logits));
      EXPECT_TRUE(logits_only.probes.empty());
      EXPECT_EQ(model->predict(x), argmax_rows(forward_logits));
    }
  }
}

TEST(InferenceIdentity, ReducedProbesMatchReduceProbeOfTheRawPass) {
  pool_state_guard guard;
  for (const auto kind :
       {dataset_kind::digits, dataset_kind::street, dataset_kind::objects}) {
    auto model = make_model(kind, 7);
    const std::vector<std::int64_t> sample =
        kind == dataset_kind::digits ? std::vector<std::int64_t>{1, 28, 28}
                                     : std::vector<std::int64_t>{3, 32, 32};
    for (const std::int64_t n : {1, 3, 4, 5, 33, 128}) {
      std::vector<std::int64_t> shape{n};
      shape.insert(shape.end(), sample.begin(), sample.end());
      rng gen{static_cast<std::uint64_t>(300 + n)};
      const tensor x = tensor::uniform(shape, gen, 0.0f, 1.0f);
      // Raw probes are the same at every setting (test above).
      const activation_batch raw = extract_activations(*model, x);
      for (const auto level :
           {simd_level::scalar, simd_level::sse2, simd_level::avx2}) {
        if (!simd_level_supported(level)) continue;
        for (const int threads : {1, 4}) {
          set_simd_level(level);
          set_thread_count(threads);
          for (const int s : {1, 2}) {
            const std::string where =
                std::string{model_name(kind)} + " n=" + std::to_string(n) +
                " s=" + std::to_string(s) + " " +
                setting_name({level, threads});
            const activation_batch got = extract_activations(*model, x, s);
            EXPECT_EQ(got.reduced_spatial, s) << where;
            EXPECT_TRUE(bitwise_equal(got.logits, raw.logits)) << where;
            EXPECT_EQ(got.predictions, raw.predictions) << where;
            ASSERT_EQ(got.probes.size(), raw.probes.size()) << where;
            for (int p = 0; p < raw.probe_count(); ++p) {
              const tensor& from = raw.probes[static_cast<std::size_t>(p)];
              const tensor& kept = got.probes[static_cast<std::size_t>(p)];
              // A convolutional probe keeps its rank, [N, C, s', s'].
              std::vector<std::int64_t> want_shape = from.shape();
              if (from.dim() == 4) {
                const std::int64_t side = std::min<std::int64_t>(
                    s, std::min(from.extent(2), from.extent(3)));
                want_shape = {n, from.extent(1), side, side};
              }
              EXPECT_EQ(kept.shape(), want_shape) << where << " probe " << p;
              EXPECT_TRUE(bitwise_equal(got.probe_features(p, s),
                                        reduce_probe(from, s)))
                  << where << " probe " << p;
            }
          }
        }
      }
      reset_simd_level();
      set_thread_count(0);
    }
  }
}

// -- Concurrency ---------------------------------------------------------------------

TEST(InferenceConcurrency, ThreadsSharingOneConstModelGetTheSerialResult) {
  pool_state_guard guard;
  set_thread_count(4);
  const std::unique_ptr<const sequential> model =
      make_model(dataset_kind::street, 11);
  rng gen{12};
  const tensor images = tensor::uniform({3 * k_slice + 1, 3, 32, 32}, gen,
                                        0.0f, 1.0f);
  const activation_batch serial = extract_activations(*model, images);

  constexpr int k_threads = 4;
  constexpr int k_rounds = 3;
  std::vector<std::vector<activation_batch>> got(k_threads);
  std::vector<std::thread> threads;
  for (int t = 0; t < k_threads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < k_rounds; ++r) {
        got[static_cast<std::size_t>(t)].push_back(
            extract_activations(*model, images));
      }
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 0; t < k_threads; ++t) {
    ASSERT_EQ(got[static_cast<std::size_t>(t)].size(),
              static_cast<std::size_t>(k_rounds));
    for (const activation_batch& acts : got[static_cast<std::size_t>(t)]) {
      EXPECT_TRUE(bitwise_equal(acts.logits, serial.logits)) << "thread " << t;
      EXPECT_EQ(acts.predictions, serial.predictions);
      ASSERT_EQ(acts.probes.size(), serial.probes.size());
      for (std::size_t p = 0; p < acts.probes.size(); ++p) {
        EXPECT_TRUE(bitwise_equal(acts.probes[p], serial.probes[p]))
            << "thread " << t << " probe " << p;
      }
    }
  }
}

// -- One-pass Algorithm 1 -----------------------------------------------------------

/// Algorithm 1 as two passes: a predict() filter over the training split,
/// the per-class subsample, then extract_activations over just the kept
/// images. Writes the bank as deep_validator::save_snapshot would.
std::vector<std::uint8_t> two_pass_bank_image(const sequential& model,
                                              const dataset& train,
                                              const deep_validator_config& cfg,
                                              double threshold) {
  std::vector<std::int64_t> kept;
  for (std::int64_t b = 0; b < train.size(); b += 128) {
    const std::int64_t e = std::min<std::int64_t>(train.size(), b + 128);
    const auto preds = model.predict(train.images.slice_rows(b, e));
    for (std::int64_t i = b; i < e; ++i) {
      if (preds[static_cast<std::size_t>(i - b)] ==
          train.labels[static_cast<std::size_t>(i)]) {
        kept.push_back(i);
      }
    }
  }
  rng gen{cfg.seed};
  std::vector<std::vector<std::int64_t>> per_class(
      static_cast<std::size_t>(train.num_classes));
  for (const auto i : kept) {
    per_class[static_cast<std::size_t>(
                  train.labels[static_cast<std::size_t>(i)])]
        .push_back(i);
  }
  kept.clear();
  for (auto& rows : per_class) {
    gen.shuffle_indices(rows.size(), [&](std::size_t a, std::size_t b) {
      std::swap(rows[a], rows[b]);
    });
    const auto cap = static_cast<std::size_t>(cfg.max_train_per_class);
    if (cfg.max_train_per_class > 0 && rows.size() > cap) rows.resize(cap);
    kept.insert(kept.end(), rows.begin(), rows.end());
  }
  std::sort(kept.begin(), kept.end());
  const dataset fit_set = train.subset(kept);

  const int probes = model.probe_count();
  std::vector<tensor> features(static_cast<std::size_t>(probes));
  for (std::int64_t b = 0; b < fit_set.size(); b += cfg.batch.max_batch) {
    const std::int64_t e =
        std::min<std::int64_t>(fit_set.size(), b + cfg.batch.max_batch);
    const activation_batch acts =
        extract_activations(model, fit_set.images.slice_rows(b, e));
    for (int p = 0; p < probes; ++p) {
      const tensor block = acts.probe_features(p, cfg.spatial);
      tensor& all = features[static_cast<std::size_t>(p)];
      if (all.empty()) all = tensor{{fit_set.size(), block.extent(1)}};
      std::copy_n(block.data(), block.numel(), all.data() + b * block.extent(1));
    }
  }
  snapshot_writer w;
  w.add_i64_scalar("bank/format", 1);
  const std::int64_t meta_i[3] = {cfg.spatial, cfg.batch.max_batch, probes};
  const double meta_f[1] = {threshold};
  w.add_i64("bank/meta_i", meta_i);
  w.add_f64("bank/meta_f", meta_f);
  std::vector<std::int32_t> probe_ids;
  for (int p = 0; p < probes; ++p) probe_ids.push_back(p);
  w.add_i32("bank/probes", probe_ids);
  for (int p = 0; p < probes; ++p) {
    layer_validator layer;
    layer.fit(features[static_cast<std::size_t>(p)], fit_set.labels,
              fit_set.num_classes, cfg.svm);
    layer.save_snapshot(w, "bank/L" + std::to_string(p) + "/");
  }
  return w.serialize();
}

TEST(OnePassFit, BankIsBitwiseEqualToTwoPassReference) {
  const auto& world = dv::testing::shared_tiny_world();
  deep_validator_config cfg;
  cfg.max_train_per_class = 30;
  cfg.batch.max_batch = 48;  // chunks that straddle slice boundaries
  deep_validator bank;
  bank.fit(*world.model, world.train, cfg);
  bank.set_threshold(0.25);
  const std::string path = ::testing::TempDir() + "dv-one-pass-bank.dvsnap";
  bank.save_snapshot(path);
  std::ifstream in{path, std::ios::binary};
  const std::vector<std::uint8_t> one_pass{std::istreambuf_iterator<char>{in},
                                           std::istreambuf_iterator<char>{}};
  const std::vector<std::uint8_t> two_pass =
      two_pass_bank_image(*world.model, world.train, cfg, 0.25);
  EXPECT_EQ(one_pass, two_pass);
}

// -- Tracing --------------------------------------------------------------------------

bool has_span(const std::vector<trace_node>& nodes, const std::string& name) {
  for (const trace_node& node : nodes) {
    if (node.name == name || has_span(node.children, name)) return true;
  }
  return false;
}

TEST(InferenceTrace, StreetForwardTracesEveryLayerKind) {
  const bool was_enabled = metrics::enabled();
  metrics::set_enabled(true);
  trace_reset();
  const auto model = make_model(dataset_kind::street, 3);
  rng gen{4};
  (void)model->infer(tensor::uniform({2 * k_slice, 3, 32, 32}, gen, 0, 1));
  const auto trace = trace_snapshot();
  trace_reset();
  metrics::set_enabled(was_enabled);
  for (const char* kind :
       {"conv2d", "relu", "max_pool2d", "flatten", "dense"}) {
    EXPECT_TRUE(has_span(trace, std::string{"nn."} + kind + ".forward"))
        << kind;
  }
}

}  // namespace
}  // namespace dv
