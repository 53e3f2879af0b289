#include "eval/model_provider.hpp"

#include "eval/ring_io.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "core/cli.hpp"
#include "core/contract.hpp"
#include "core/stats.hpp"
#include "nn/activations.hpp"
#include "nn/mlp.hpp"
#include "nn/serialize.hpp"
#include "nn/trainer.hpp"
#include "quant/fuse.hpp"
#include "quant/qat_io.hpp"
#include "quant/qat_linear.hpp"

namespace adapt::eval {

namespace fs = std::filesystem;

namespace {

/// True when `s` is empty or all whitespace (treated like unset: a
/// scale knob deliberately cleared with `VAR=` should fall back, not
/// abort the bench).
bool blank(const char* s) {
  for (; *s != '\0'; ++s)
    if (!std::isspace(static_cast<unsigned char>(*s))) return false;
  return true;
}

}  // namespace

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || blank(v)) return fallback;
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(v, &end, 10);
  ADAPT_REQUIRE(end != v && blank(end) && errno != ERANGE,
                std::string(name) + "='" + v +
                    "' is not an integer — unset it or pass a positive "
                    "count");
  ADAPT_REQUIRE(parsed > 0, std::string(name) + "='" + v +
                                "' must be a positive count");
  return static_cast<std::size_t>(parsed);
}

double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || blank(v)) return fallback;
  // Strict full-token parse (rejects trailing junk, inf, nan) shared
  // with the CLI layer; surfaced as the contract type env callers
  // already catch (std::invalid_argument).
  double parsed = 0.0;
  try {
    parsed = core::parse_double(v, name);
  } catch (const core::CliError& e) {
    throw core::ContractViolation(
        std::string(e.what()) + " — unset it or pass a positive value");
  }
  ADAPT_REQUIRE(parsed > 0.0, std::string(name) + "='" + v +
                                  "' must be positive");
  return parsed;
}

namespace {

/// Row subset of generated rings (keeps polar/true-source alignment).
GeneratedRings take(const GeneratedRings& data,
                    const std::vector<std::size_t>& rows) {
  GeneratedRings out;
  out.rings.reserve(rows.size());
  for (const std::size_t r : rows) {
    out.rings.push_back(data.rings[r]);
    out.polar_degs.push_back(data.polar_degs[r]);
    out.true_sources.push_back(data.true_sources[r]);
  }
  return out;
}

struct RingSplits {
  GeneratedRings train;
  GeneratedRings val;
  GeneratedRings test;
};

/// The paper's 80/20 train/test split with the training side further
/// split 80/20 into train/validation.
RingSplits split_rings(const GeneratedRings& data, core::Rng& rng) {
  std::vector<std::size_t> order(data.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.uniform_index(i));
    std::swap(order[i - 1], order[j]);
  }
  const std::size_t n = order.size();
  const std::size_t n_test = n / 5;
  const std::size_t n_val = (n - n_test) / 5;
  const std::size_t n_train = n - n_test - n_val;

  RingSplits s;
  s.train = take(data, {order.begin(), order.begin() + static_cast<std::ptrdiff_t>(n_train)});
  s.val = take(data, {order.begin() + static_cast<std::ptrdiff_t>(n_train),
                      order.begin() + static_cast<std::ptrdiff_t>(n_train + n_val)});
  s.test = take(data, {order.begin() + static_cast<std::ptrdiff_t>(n_train + n_val),
                       order.end()});
  return s;
}

/// Classification accuracy of a background net over generated rings,
/// using the per-ring (true) polar angles and dynamic thresholds.
double accuracy_of(pipeline::BackgroundNet& net, const GeneratedRings& data) {
  if (data.size() == 0) return 0.0;
  nn::Tensor features =
      net.uses_polar()
          ? pipeline::feature_matrix(data.rings,
                                     std::span<const double>(data.polar_degs))
          : pipeline::feature_matrix(data.rings, false, 0.0);
  const auto logits = net.logits_for_features(features);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const bool predicted_bkg =
        net.thresholds().is_background(logits[i], data.polar_degs[i]);
    const bool is_bkg =
        data.rings[i].origin == detector::Origin::kBackground;
    if (predicted_bkg == is_bkg) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(data.size());
}

/// Configuration signature baked into cached files; a mismatch forces
/// retraining so stale caches cannot poison experiments.
double config_signature(const ModelProviderConfig& cfg,
                        const TrialSetup& setup) {
  double sig = 17.0;
  sig = sig * 31.0 + static_cast<double>(cfg.dataset.rings_per_angle);
  sig = sig * 31.0 + static_cast<double>(cfg.dataset.seed % 100003);
  sig = sig * 31.0 + static_cast<double>(cfg.max_epochs);
  sig = sig * 31.0 + setup.grb.fluence * 1000.0;
  sig = sig * 31.0 + setup.background.photons_per_second;
  sig = sig * 31.0 + setup.geometry.tile_half_width;
  return sig;
}

}  // namespace

ModelProvider::ModelProvider(const TrialSetup& setup,
                             const ModelProviderConfig& config)
    : config_(config) {
  fs::create_directories(config_.cache_dir);
  const double sig = config_signature(config_, setup);
  const auto path = [&](const char* name) {
    return (fs::path(config_.cache_dir) / name).string();
  };

  const auto sig_ok = [&](const std::map<std::string, double>& meta) {
    const auto it = meta.find("config_sig");
    return it != meta.end() && std::abs(it->second - sig) < 0.5;
  };

  // Attempt a full cache load; any miss triggers a full retrain so the
  // model set stays internally consistent.
  bool loaded = true;
  do {
    auto bkg = nn::load_model(path("background.adnn"));
    auto bkg_np = nn::load_model(path("background_nopolar.adnn"));
    auto deta = nn::load_model(path("deta.adnn"));
    auto qat = quant::load_qat_model(path("background_qat.adqt"));
    if (!bkg || !bkg_np || !deta || !qat || !sig_ok(bkg->metadata) ||
        !sig_ok(bkg_np->metadata) || !sig_ok(deta->metadata) ||
        !sig_ok(qat->metadata)) {
      loaded = false;
      break;
    }
    background_ = std::make_unique<pipeline::BackgroundNet>(
        std::move(bkg->model), std::move(bkg->standardizer),
        pipeline::PolarThresholds::from_metadata(bkg->metadata), true);
    background_no_polar_ = std::make_unique<pipeline::BackgroundNet>(
        std::move(bkg_np->model), std::move(bkg_np->standardizer),
        pipeline::PolarThresholds::from_metadata(bkg_np->metadata), false);
    deta_calibration_ =
        deta->metadata.count("calibration") ? deta->metadata.at("calibration")
                                            : 1.0;
    deta_ = std::make_unique<pipeline::DEtaNet>(
        std::move(deta->model), std::move(deta->standardizer), true,
        config_.calibrate_deta ? deta_calibration_ : 1.0);

    background_int8_ = std::make_unique<pipeline::BackgroundNet>(
        quant::export_quantized(qat->model), qat->standardizer,
        pipeline::PolarThresholds::from_metadata(qat->metadata), true);
    for (std::size_t i = 0; i < qat->model.n_layers(); ++i) {
      if (auto* lin =
              dynamic_cast<quant::QatLinear*>(&qat->model.layer(i))) {
        quant::FusedLayer f;
        f.weight = lin->weight().value;
        f.bias = lin->bias().value.vec();
        fused_background_.push_back(std::move(f));
      } else if (dynamic_cast<nn::ReLU*>(&qat->model.layer(i)) != nullptr &&
                 !fused_background_.empty()) {
        fused_background_.back().relu = true;
      }
    }
  } while (false);
  if (loaded) return;

  train_all(setup);

  // Populate the cache (best effort — experiments proceed regardless).
  std::map<std::string, double> extra{{"config_sig", sig}};
  {
    auto meta = background_->thresholds().to_metadata();
    meta.insert(extra.begin(), extra.end());
    meta["uses_polar"] = 1.0;
    nn::save_model(*background_->fp32_model(), background_->standardizer(),
                   meta, path("background.adnn"));
  }
  {
    auto meta = background_no_polar_->thresholds().to_metadata();
    meta.insert(extra.begin(), extra.end());
    meta["uses_polar"] = 0.0;
    nn::save_model(*background_no_polar_->fp32_model(),
                   background_no_polar_->standardizer(), meta,
                   path("background_nopolar.adnn"));
  }
  {
    std::map<std::string, double> meta = extra;
    meta["uses_polar"] = 1.0;
    meta["calibration"] = deta_calibration_;
    nn::save_model(*deta_->model(), deta_->standardizer(), meta,
                   path("deta.adnn"));
  }
  // The QAT model was already saved by train_all (it owns the stack).
}

void ModelProvider::train_all(const TrialSetup& setup) {
  core::Rng rng(config_.seed);

  // --- Data ---------------------------------------------------------
  // Generated rings are themselves cached: re-training with new
  // hyperparameters (the common iteration) skips the simulation pass.
  const std::string rings_path =
      (fs::path(config_.cache_dir) /
       ("training_rings_" +
        std::to_string(static_cast<long long>(
            config_signature(config_, setup))) +
        ".adrg"))
          .string();
  GeneratedRings data;
  if (auto cached = load_rings(rings_path);
      cached && cached->size() == config_.dataset.rings_per_angle *
                                      config_.dataset.polar_angles_deg.size()) {
    data = std::move(*cached);
  } else {
    data = generate_training_rings(setup, config_.dataset);
    save_rings(data, rings_path);
  }
  core::Rng split_rng = rng.split();
  const RingSplits splits = split_rings(data, split_rng);

  const auto standardized = [](nn::Dataset ds, const nn::Standardizer& s) {
    s.transform_in_place(ds.x);
    return ds;
  };

  // --- Background network (paper hyperparameters) --------------------
  const auto train_background =
      [&](bool include_polar) -> std::unique_ptr<pipeline::BackgroundNet> {
    nn::Dataset train_raw = make_background_dataset(splits.train, include_polar);
    nn::Dataset val_raw = make_background_dataset(splits.val, include_polar);
    nn::Standardizer std_;
    std_.fit(train_raw.x);
    nn::Dataset train = standardized(std::move(train_raw), std_);
    nn::Dataset val = standardized(std::move(val_raw), std_);

    core::Rng net_rng = rng.split();
    nn::Sequential model = nn::build_mlp(
        nn::background_net_spec(train.x.cols(), /*swap_bn_fc=*/false),
        net_rng);
    // Paper hyperparameters are batch 4096 / lr 5.204e-4, tuned for
    // ~1M training rings; at the reduced dataset sizes this
    // environment trains on, batch 4096 yields too few optimizer steps
    // per epoch, so the batch shrinks with the dataset (and the paper
    // values are recovered automatically at full scale).
    nn::TrainConfig tc;
    tc.batch_size =
        std::clamp<std::size_t>(train.size() / 32, 128, 4096);
    tc.max_epochs = config_.max_epochs;
    tc.patience = config_.patience;
    tc.sgd.learning_rate =
        tc.batch_size >= 4096 ? 5.204e-4 : 3e-3;
    tc.sgd.momentum = 0.9;
    tc.verbose = config_.verbose;
    nn::Trainer trainer(model, nn::bce_with_logits, tc);
    core::Rng fit_rng = rng.split();
    trainer.fit(train, val, fit_rng);

    // Per-polar-bin thresholds minimizing training error (paper
    // Sec. III).
    auto net = std::make_unique<pipeline::BackgroundNet>(
        std::move(model), std_, pipeline::PolarThresholds{}, include_polar);
    nn::Tensor full_features =
        include_polar
            ? pipeline::feature_matrix(
                  splits.train.rings,
                  std::span<const double>(splits.train.polar_degs))
            : pipeline::feature_matrix(splits.train.rings, false, 0.0);
    const auto logits = net->logits_for_features(full_features);
    std::vector<float> labels;
    labels.reserve(splits.train.size());
    for (const auto& ring : splits.train.rings)
      labels.push_back(pipeline::background_label(ring));
    pipeline::PolarThresholds thresholds;
    thresholds.fit(logits, labels, splits.train.polar_degs);

    // Rebuild with fitted thresholds (wrapper state is immutable).
    auto* fp32 = net->fp32_model();
    return std::make_unique<pipeline::BackgroundNet>(
        std::move(*fp32), net->standardizer(), thresholds, include_polar);
  };

  background_ = train_background(true);
  background_no_polar_ = train_background(false);
  background_accuracy_ = accuracy_of(*background_, splits.test);

  // --- dEta network ---------------------------------------------------
  {
    nn::Dataset train_raw = make_deta_dataset(splits.train, true);
    nn::Dataset val_raw = make_deta_dataset(splits.val, true);
    nn::Standardizer std_;
    std_.fit(train_raw.x);
    nn::Dataset train = standardized(std::move(train_raw), std_);
    nn::Dataset val = standardized(std::move(val_raw), std_);

    core::Rng net_rng = rng.split();
    nn::Sequential model =
        nn::build_mlp(nn::deta_net_spec(train.x.cols()), net_rng);
    nn::TrainConfig tc;
    tc.batch_size = 256;  // Paper.
    tc.max_epochs = config_.max_epochs;
    tc.patience = config_.patience;
    tc.sgd.learning_rate = 4.375e-3;  // Paper.
    tc.sgd.momentum = 0.9;
    tc.verbose = config_.verbose;
    nn::Trainer trainer(model, nn::mse, tc);
    core::Rng fit_rng = rng.split();
    trainer.fit(train, val, fit_rng);

    nn::Dataset test =
        standardized(make_deta_dataset(splits.test, true), std_);
    deta_mse_ = trainer.evaluate(test);

    // Coverage calibration on validation rings: scale the predicted
    // width so that 68% of GRB rings fall within one predicted d_eta
    // of their true error (the statistically honest width).
    double calibration = 1.0;
    {
      pipeline::DEtaNet raw(std::move(model), std_, true);
      std::vector<recon::ComptonRing> val_grb;
      std::vector<core::Vec3> val_sources;
      std::vector<double> val_polars;
      for (std::size_t i = 0; i < splits.val.size(); ++i) {
        if (splits.val.rings[i].origin != detector::Origin::kGrb) continue;
        val_grb.push_back(splits.val.rings[i]);
        val_sources.push_back(splits.val.true_sources[i]);
        val_polars.push_back(splits.val.polar_degs[i]);
      }
      if (val_grb.size() >= 32) {
        std::vector<double> ratios;
        ratios.reserve(val_grb.size());
        // Predict per true polar angle (training-time convention).
        for (std::size_t i = 0; i < val_grb.size(); ++i) {
          const auto pred = raw.predict({&val_grb[i], 1}, val_polars[i],
                                        1e-6, 10.0);
          const double err = std::abs(val_grb[i].eta_error(val_sources[i]));
          ratios.push_back(err / std::max(pred[0], 1e-6));
        }
        calibration = std::max(core::quantile(std::move(ratios), 0.68), 0.1);
      }
      // The deployed network applies the calibration only when asked
      // (see ModelProviderConfig::calibrate_deta); the factor is
      // always persisted in the cache metadata.
      deta_calibration_ = calibration;
      deta_ = std::make_unique<pipeline::DEtaNet>(
          std::move(*raw.model()), std_, true,
          config_.calibrate_deta ? calibration : 1.0);
    }
  }

  // --- Layer-swapped background net -> QAT -> INT8 --------------------
  {
    nn::Dataset train_raw = make_background_dataset(splits.train, true);
    nn::Dataset val_raw = make_background_dataset(splits.val, true);
    nn::Standardizer std_;
    std_.fit(train_raw.x);
    nn::Dataset train = standardized(std::move(train_raw), std_);
    nn::Dataset val = standardized(std::move(val_raw), std_);

    core::Rng net_rng = rng.split();
    nn::Sequential swapped = nn::build_mlp(
        nn::background_net_spec(train.x.cols(), /*swap_bn_fc=*/true),
        net_rng);
    nn::TrainConfig tc;
    tc.batch_size =
        std::clamp<std::size_t>(train.size() / 32, 128, 4096);
    tc.max_epochs = config_.max_epochs;
    tc.patience = config_.patience;
    tc.sgd.learning_rate =
        tc.batch_size >= 4096 ? 5.204e-4 : 3e-3;
    tc.sgd.momentum = 0.9;
    tc.verbose = config_.verbose;
    {
      nn::Trainer trainer(swapped, nn::bce_with_logits, tc);
      core::Rng fit_rng = rng.split();
      trainer.fit(train, val, fit_rng);
    }

    fused_background_ = quant::fuse_bn(swapped);
    core::Rng qat_rng = rng.split();
    nn::Sequential qat = quant::build_qat_model(fused_background_, qat_rng);

    // Calibrate the activation observers with a few training batches,
    // then fine-tune briefly (quantization-aware training).
    {
      core::Rng cal_rng = rng.split();
      nn::DataLoader cal(train, 1024, cal_rng);
      nn::Tensor xb;
      std::vector<float> yb;
      int batches = 0;
      while (cal.next(xb, yb) && batches++ < 8) {
        (void)qat.forward(xb, /*training=*/true);
      }
      qat.zero_grad();
    }
    if (config_.qat_epochs > 0) {
      nn::TrainConfig qtc = tc;
      qtc.max_epochs = config_.qat_epochs;
      qtc.patience = config_.qat_epochs;
      qtc.sgd.learning_rate = tc.sgd.learning_rate * 0.1;
      nn::Trainer trainer(qat, nn::bce_with_logits, qtc);
      core::Rng fit_rng = rng.split();
      trainer.fit(train, val, fit_rng);
    }

    // Thresholds fitted on the quantized logits.
    quant::QuantizedMlp engine = quant::export_quantized(qat);
    auto tmp_net = std::make_unique<pipeline::BackgroundNet>(
        std::move(engine), std_, pipeline::PolarThresholds{}, true);
    nn::Tensor full_features = pipeline::feature_matrix(
        splits.train.rings, std::span<const double>(splits.train.polar_degs));
    const auto logits = tmp_net->logits_for_features(full_features);
    std::vector<float> labels;
    labels.reserve(splits.train.size());
    for (const auto& ring : splits.train.rings)
      labels.push_back(pipeline::background_label(ring));
    pipeline::PolarThresholds thresholds;
    thresholds.fit(logits, labels, splits.train.polar_degs);

    background_int8_ = std::make_unique<pipeline::BackgroundNet>(
        quant::export_quantized(qat), std_, thresholds, true);

    auto meta = thresholds.to_metadata();
    meta["config_sig"] = config_signature(config_, setup);
    meta["uses_polar"] = 1.0;
    quant::save_qat_model(
        qat, std_, meta,
        (fs::path(config_.cache_dir) / "background_qat.adqt").string());
  }
}

}  // namespace adapt::eval
