//! `nn-train`: Table I/VI cells through the `inca-nn` training loop.

use std::collections::BTreeMap;

use inca_core::{noise_accuracy_row, quantization_accuracy, AccuracyConfig};
use inca_nn::{layers, Layer, Loss, Network, NoiseInjection, QuantConfig, SyntheticDataset, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::harness::{run_timed, span_s, Ledger, Measured, Metrics, Timed};
use crate::stats::Digest;
use crate::trace::{NameStats, Tracer};

/// The Table I cell with the largest accuracy drop.
const WEIGHT_BITS: u8 = 8;
const ACTIVATION_BITS: u8 = 4;
/// The Table VI row with the widest weight-vs-activation noise gap.
const SIGMA: f64 = 0.05;
/// `AccuracyConfig`'s trainer settings: batch 16 over an 80% train split.
const BATCH: usize = 16;
const TRAIN_FRACTION: f32 = 0.8;

/// What the parent commit computes at seed 0 (`AccuracyConfig::quick()`):
/// the 8/4 cell, then the σ = 0.05 row as (weight noise, activation noise).
const GOLDEN_Q84: f32 = 92.1875;
const GOLDEN_ROW: [f32; 2] = [42.1875, 98.4375];
/// Epochs of a fit in the untraced run. A step's work does not depend on
/// the epoch count; one epoch makes a three-fit cycle short enough that
/// every child process of a run completes whole cycles.
const TIMED_EPOCHS: usize = 1;
/// The same anchors for [`timed_config`] at seed 0, as the parent commit's
/// `quantization_accuracy` and `noise_accuracy_row` give them.
const TIMED_GOLDEN_Q84: f32 = 56.25;
const TIMED_GOLDEN_ROW: [f32; 2] = [73.4375, 60.9375];

fn config(seed: u64) -> AccuracyConfig {
    let quick = AccuracyConfig::quick();
    AccuracyConfig { seed: quick.seed.wrapping_add(seed), ..quick }
}

/// The configuration the untraced run times: [`config`] cut to
/// [`TIMED_EPOCHS`].
fn timed_config(seed: u64) -> AccuracyConfig {
    AccuracyConfig { epochs: TIMED_EPOCHS, ..config(seed) }
}

fn dataset(cfg: &AccuracyConfig) -> SyntheticDataset {
    SyntheticDataset::generate(cfg.samples, cfg.side, cfg.classes, cfg.seed)
}

/// The Table I/VI network, layer for layer as `AccuracyConfig` builds it.
fn network(cfg: &AccuracyConfig) -> Network {
    let pooled = cfg.side / 2;
    let mut net = Network::new();
    net.push(layers::Conv2d::new(1, 8, 3, 1, 1, cfg.seed));
    net.push(layers::Relu::new());
    net.push(layers::MaxPool2d::new(2, 2));
    net.push(layers::Conv2d::new(8, 16, 3, 1, 1, cfg.seed + 1));
    net.push(layers::Relu::new());
    net.push(layers::Flatten::new());
    net.push(layers::Linear::new(16 * pooled * pooled, cfg.classes, cfg.seed + 2));
    net
}

/// A fit in progress in the untraced run.
struct Fit {
    net: Network,
    rng: StdRng,
    steps: usize,
    evaluated: usize,
    correct_test: usize,
}

/// What the untraced run's operations share.
struct State {
    cfg: AccuracyConfig,
    data: SyntheticDataset,
    train_idx: Vec<usize>,
    test_idx: Vec<usize>,
    fit: Option<Fit>,
    /// Per regime, the test accuracy of every completed fit, percent.
    accuracy: [Vec<f32>; 3],
}

/// Untraced run: the three fits of the 8/4 cell and the σ = 0.05 row, one
/// after the other, for `seconds`, each cut to [`TIMED_EPOCHS`].
///
/// A fit is timed step by step: kind `r` is one training step (batch 16:
/// forward, loss, backward, SGD, weight noise) of regime `r` in
/// [`regimes`] order, and kind `3 + r` one evaluation batch of it, the
/// first of which also quantises the weights. The calls are
/// `Trainer::fit`'s, in its order, through the `Layer` API (see [`fit`]);
/// the parent process checks every run against `quantization_accuracy`
/// and `noise_accuracy_row` themselves ([`api_digest`]). Timing each step
/// gives a run hundreds of samples per kind, where whole fits gave a few,
/// and the host's fast stretches are often shorter than a fit.
///
/// Set-up generates the dataset, which the timed steps read.
/// `AccuracyConfig` generates it again at the start of every fit (0.02%
/// of a quick fit), which the timed steps do not.
pub fn measure(seed: u64, seconds: f64, fault: bool, ledger: &mut Ledger) -> Measured {
    let cfg = timed_config(seed);
    let (mut s, run) = run_timed(
        seconds,
        || {
            let data = dataset(&cfg);
            let (train_idx, test_idx) = data.split(TRAIN_FRACTION);
            State { cfg, data, train_idx, test_idx, fit: None, accuracy: Default::default() }
        },
        cycle,
        op,
    );
    let Timed { setup_times, times, .. } = run;
    // A run stops once its time is up and every kind has run, which can
    // fall inside the first cycle's last evaluation: finish that fit,
    // untimed, so every regime has an accuracy to check.
    while let Some(r) = (0..3).find(|&r| s.accuracy[r].is_empty()) {
        op(&mut s, 3 + r);
    }
    if fault {
        s.accuracy[0][0] = f32::from_bits(s.accuracy[0][0].to_bits() ^ 1);
    }

    let first: Vec<f32> = s.accuracy.iter().map(|a| a[0]).collect();
    for (r, acc) in s.accuracy.iter().enumerate() {
        ledger.check((0.0..=100.0).contains(&acc[0]), || {
            format!("nn-train regime {r}: accuracy {} outside [0, 100]", acc[0])
        });
        let differ = acc.iter().filter(|a| a.to_bits() != acc[0].to_bits()).count();
        ledger.check_repeats(acc.len(), differ, || format!("nn-train regime {r} fits"));
    }
    if seed == 0 {
        let want = [TIMED_GOLDEN_Q84, TIMED_GOLDEN_ROW[0], TIMED_GOLDEN_ROW[1]];
        let same = first.iter().map(|a| a.to_bits()).eq(want.iter().map(|a| a.to_bits()));
        ledger.check(same, || format!("nn-train fits: {first:?}, parent commit gives {want:?}"));
    }

    let mut outputs = Digest::default();
    outputs.f32s(&first);
    let schedule = cycle(&s);
    let fits = s.accuracy.iter().map(Vec::len).min().unwrap_or(0);
    Measured {
        setup_times,
        schedule,
        units: [BATCH as f64; 3].into_iter().chain([0.0; 3]).collect(),
        times,
        outputs: outputs.value(),
        notes: vec![
            format!("model: conv(1->8,3x3) relu pool conv(8->16,3x3) relu flatten linear, batch {BATCH}"),
            format!(
                "cycle: 3 fits (8/4-bit cell; sigma={SIGMA} weight noise; sigma={SIGMA} activation noise) of {} epoch(s), {} train samples each; {fits} whole cycles",
                cfg.epochs,
                cfg.epochs * s.train_idx.len()
            ),
            format!("accuracy: 8/4 {}, sigma row [{}, {}]", first[0], first[1], first[2]),
        ],
    }
}

/// One cycle of kinds: per regime, a fit's training steps, then its
/// evaluation batches.
fn cycle(s: &State) -> Vec<usize> {
    let steps = s.cfg.epochs * s.train_idx.len().div_ceil(BATCH);
    let evals = s.train_idx.len().div_ceil(BATCH) + s.test_idx.len().div_ceil(BATCH);
    (0..3).flat_map(|r| std::iter::repeat_n(r, steps).chain(std::iter::repeat_n(3 + r, evals))).collect()
}

/// One untraced operation: kind `r < 3` is a training step of regime `r`,
/// kind `3 + r` an evaluation batch of it.
fn op(s: &mut State, k: usize) {
    let (regime, cfg) = (regimes()[k % 3], s.cfg);
    let (mut tr, mut macs) = (Tracer::new(false), Macs::default());
    let fit = s.fit.get_or_insert_with(|| Fit {
        net: network(&cfg),
        rng: StdRng::seed_from_u64(cfg.seed),
        steps: 0,
        evaluated: 0,
        correct_test: 0,
    });
    if k < 3 {
        let chunks = s.train_idx.len().div_ceil(BATCH);
        let at = fit.steps % chunks * BATCH;
        let chunk = &s.train_idx[at..(at + BATCH).min(s.train_idx.len())];
        train_step(&mut fit.net, &s.data, chunk, regime, cfg.lr, &mut fit.rng, &mut tr, &mut macs);
        fit.steps += 1;
        return;
    }
    if fit.evaluated == 0 {
        regime.quant.apply_to_weights(&mut fit.net);
    }
    // Train batches first, then test batches, as `Trainer::fit` evaluates.
    let train_chunks = s.train_idx.len().div_ceil(BATCH);
    let (idx, j) = if fit.evaluated < train_chunks {
        (&s.train_idx, fit.evaluated)
    } else {
        (&s.test_idx, fit.evaluated - train_chunks)
    };
    let chunk = &idx[j * BATCH..((j + 1) * BATCH).min(idx.len())];
    let correct = eval_batch(&mut fit.net, &s.data, chunk, regime, &mut fit.rng, &mut tr, &mut macs);
    if fit.evaluated >= train_chunks {
        fit.correct_test += correct;
    }
    fit.evaluated += 1;
    if fit.evaluated == train_chunks + s.test_idx.len().div_ceil(BATCH) {
        let accuracy = fit.correct_test as f32 / s.test_idx.len() as f32;
        s.accuracy[k - 3].push(accuracy * 100.0);
        s.fit = None;
    }
}

/// Digest of the three timed fits' accuracies as `quantization_accuracy`
/// and `noise_accuracy_row` compute them; every child process of a run
/// must report the same digest.
pub fn api_digest(seed: u64) -> u64 {
    let cfg = timed_config(seed);
    let cell = quantization_accuracy(&cfg, WEIGHT_BITS, ACTIVATION_BITS);
    let row = noise_accuracy_row(&cfg, SIGMA);
    let mut d = Digest::default();
    d.f32s(&[cell, row.weight_noise_acc, row.activation_noise_acc]);
    d.value()
}

/// Multiply-accumulates of the conv layers, forward and backward.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Macs {
    fwd: u64,
    bwd: u64,
}

/// The traced pass's output: each fit's test accuracy (percent, in
/// [`regimes`] order), conv MACs, and a digest of the trained weights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fits {
    accuracy: [f32; 3],
    macs: Macs,
    weights: u64,
}

fn fwd_span(layer: &str) -> &'static str {
    match layer {
        "conv2d" => "nn.conv2d_fwd",
        "linear" => "nn.linear_fwd",
        _ => "nn.pool_relu_flatten_fwd",
    }
}

fn bwd_span(layer: &str) -> &'static str {
    match layer {
        "conv2d" => "nn.conv2d_bwd",
        "linear" => "nn.linear_bwd",
        _ => "nn.pool_relu_flatten_bwd",
    }
}

/// Conv MACs of one forward: `N · out · OH · OW · (in · k²)`, with
/// `in · k²` recovered from the parameter count (weights plus one bias
/// per output channel).
fn conv_macs(layer: &dyn Layer, out: &Tensor) -> u64 {
    let [n, oc, oh, ow] = out.dims4();
    let fan_in = (layer.param_count() - oc) / oc;
    (n * oc * oh * ow * fan_in) as u64
}

/// What a forward pass applies after every layer (`Trainer::forward`).
#[derive(Clone, Copy)]
struct Regime {
    noise: NoiseInjection,
    quant: QuantConfig,
}

/// The three fits of one `nn-train` cycle, in its order: the 8/4 cell
/// (`quantization_accuracy`), then the σ row's weight-noise and
/// activation-noise fits (`noise_accuracy_row`).
fn regimes() -> [Regime; 3] {
    let cell = QuantConfig {
        weight_bits: Some(WEIGHT_BITS),
        activation_bits: Some(ACTIVATION_BITS),
        weight_range: 1.0,
        activation_range: 1.0,
    };
    let full = QuantConfig::full_precision();
    [
        Regime { noise: NoiseInjection::none(), quant: cell },
        Regime { noise: NoiseInjection::weights(SIGMA), quant: full },
        Regime { noise: NoiseInjection::activations(SIGMA), quant: full },
    ]
}

fn forward(
    net: &mut Network,
    x: &Tensor,
    regime: Regime,
    rng: &mut StdRng,
    tr: &mut Tracer,
    macs: &mut Macs,
) -> Tensor {
    let Regime { noise, quant } = regime;
    let mut cur = x.clone();
    for layer in net.layers_mut() {
        let name = layer.name();
        let out = tr.span(fwd_span(name), |_| layer.forward(&cur));
        if name == "conv2d" {
            macs.fwd += conv_macs(&**layer, &out);
        }
        let noisy = tr.span("nn.noise", |_| noise.perturb_activation(out, rng));
        cur = tr.span("nn.quant", |_| quant.apply_to_activation(noisy));
    }
    cur
}

fn backward(net: &mut Network, grad: &Tensor, tr: &mut Tracer, macs: &mut Macs) {
    let mut layers: Vec<&mut Box<dyn Layer>> = net.layers_mut().collect();
    let mut cur = grad.clone();
    for layer in layers.iter_mut().rev() {
        let name = layer.name();
        let out = tr.span(bwd_span(name), |_| layer.backward(&cur));
        if name == "conv2d" {
            // Input gradient plus weight gradient: twice the forward work.
            macs.bwd += 2 * conv_macs(&***layer, &cur);
        }
        cur = out;
    }
}

/// One training step on the samples `chunk`, as `Trainer::fit` takes it.
#[allow(clippy::too_many_arguments)]
fn train_step(
    net: &mut Network,
    data: &SyntheticDataset,
    chunk: &[usize],
    regime: Regime,
    lr: f32,
    rng: &mut StdRng,
    tr: &mut Tracer,
    macs: &mut Macs,
) {
    tr.span("nn.step", |tr| {
        let (x, y) = data.batch(chunk);
        let logits = forward(net, &x, regime, rng, tr, macs);
        let (_, grad) = tr.span("nn.loss", |_| Loss::CrossEntropy.evaluate(&logits, &y));
        backward(net, &grad, tr, macs);
        tr.span("nn.sgd", |_| net.layers_mut().for_each(|l| l.sgd_step(lr)));
        tr.span("nn.noise", |_| regime.noise.perturb_weights(net, rng));
    });
}

/// Correctly classified samples of `chunk`, as `Trainer::evaluate` counts
/// them.
fn eval_batch(
    net: &mut Network,
    data: &SyntheticDataset,
    chunk: &[usize],
    regime: Regime,
    rng: &mut StdRng,
    tr: &mut Tracer,
    macs: &mut Macs,
) -> usize {
    let (x, y) = data.batch(chunk);
    let logits = forward(net, &x, regime, rng, tr, macs);
    (Loss::accuracy(&logits, &y) * y.len() as f32).round() as usize
}

fn evaluate(
    net: &mut Network,
    data: &SyntheticDataset,
    idx: &[usize],
    regime: Regime,
    rng: &mut StdRng,
    tr: &mut Tracer,
    macs: &mut Macs,
) -> f32 {
    let correct: usize =
        idx.chunks(BATCH).map(|chunk| eval_batch(net, data, chunk, regime, rng, tr, macs)).sum();
    correct as f32 / idx.len() as f32
}

/// One fit as `Trainer::fit` runs it (same order of layer calls, noise
/// draws and updates), driven layer by layer through the `Layer` API with
/// a span around every call. Returns the test accuracy in percent.
fn fit(
    cfg: &AccuracyConfig,
    data: &SyntheticDataset,
    regime: Regime,
    tr: &mut Tracer,
    macs: &mut Macs,
    weights: &mut Digest,
) -> f32 {
    let mut net = network(cfg);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let (train_idx, test_idx) = data.split(TRAIN_FRACTION);
    tr.span("nn.fit", |tr| {
        for _ in 0..cfg.epochs {
            for chunk in train_idx.chunks(BATCH) {
                train_step(&mut net, data, chunk, regime, cfg.lr, &mut rng, tr, macs);
            }
        }
        tr.span("nn.quant", |_| regime.quant.apply_to_weights(&mut net));
    });
    let accuracy = tr.span("nn.evaluate", |tr| {
        let _train = evaluate(&mut net, data, &train_idx, regime, &mut rng, tr, macs);
        evaluate(&mut net, data, &test_idx, regime, &mut rng, tr, macs)
    });
    net.map_weights(&mut |w| {
        weights.bytes(&w.to_bits().to_le_bytes());
        w
    });
    accuracy * 100.0
}

/// The traced pass: the three fits of one `nn-train` cycle.
pub fn pass(seed: u64, tr: &mut Tracer, _ledger: &mut Ledger) -> Fits {
    let cfg = config(seed);
    let data = tr.span("nn.dataset", |_| dataset(&cfg));
    let mut macs = Macs::default();
    let mut weights = Digest::default();
    let accuracy = regimes().map(|regime| fit(&cfg, &data, regime, tr, &mut macs, &mut weights));
    Fits { accuracy, macs, weights: weights.value() }
}

/// Checks the traced fits against the parent commit's accuracies at
/// seed 0.
pub fn check_pass(seed: u64, out: &Fits, ledger: &mut Ledger) {
    let want = [GOLDEN_Q84, GOLDEN_ROW[0], GOLDEN_ROW[1]];
    if seed == 0 {
        let same = out.accuracy.iter().map(|a| a.to_bits()).eq(want.iter().map(|a| a.to_bits()));
        ledger.check(same, || {
            format!("nn-train traced fits: {:?}, parent commit gives {want:?}", out.accuracy)
        });
    }
}

pub fn layer_metrics(stats: &BTreeMap<&'static str, NameStats>, out: &Fits, m: &mut Metrics) {
    let fwd = span_s(stats, "nn.conv2d_fwd");
    let bwd = span_s(stats, "nn.conv2d_bwd");
    m.push("nn.conv2d_fwd_s", fwd, "s");
    m.push("nn.conv2d_bwd_s", bwd, "s");
    m.push("nn.linear_s", span_s(stats, "nn.linear_fwd") + span_s(stats, "nn.linear_bwd"), "s");
    m.push(
        "nn.pool_relu_flatten_s",
        span_s(stats, "nn.pool_relu_flatten_fwd") + span_s(stats, "nn.pool_relu_flatten_bwd"),
        "s",
    );
    m.push("nn.loss_s", span_s(stats, "nn.loss"), "s");
    m.push("nn.sgd_s", span_s(stats, "nn.sgd"), "s");
    let (noise, quant) = (span_s(stats, "nn.noise"), span_s(stats, "nn.quant"));
    m.push("nn.noise_quant_s", noise + quant, "s");
    m.push("nn.noise_s", noise, "s");
    m.push("nn.quant_s", quant, "s");
    m.push("nn.conv2d_fwd_ns_per_mac", fwd * 1e9 / out.macs.fwd.max(1) as f64, "ns");
    m.push("nn.conv2d_bwd_ns_per_mac", bwd * 1e9 / out.macs.bwd.max(1) as f64, "ns");
    m.push("nn.conv2d_fwd_macs", out.macs.fwd as f64, "count");
    m.push("nn.conv2d_bwd_macs", out.macs.bwd as f64, "count");
    m.push("nn.dataset_s", span_s(stats, "nn.dataset"), "s");
}
