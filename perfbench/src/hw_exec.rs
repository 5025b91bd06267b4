//! `hw-exec`: distinct seeded images through the functional 2T1R engines
//! of `inca-core` over `inca-xbar`.

use std::collections::BTreeMap;

use inca_core::{
    backprop_error_hw, backprop_error_hw_with, ExecPolicy, HwBatchConv, HwConv, HwGradientUnit, HwLinear,
    HwNetwork, ReadPath,
};
use inca_nn::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::harness::{
    counter, push_distribution, run_timed, span_durations, span_s, stream_seed, Ledger, Measured, Metrics,
    Timed,
};
use crate::stats::{median, Digest};
use crate::trace::{NameStats, Tracer};

const IN_CH: usize = 4;
const OUT_CH: usize = 8;
const K: usize = 3;
const SIDE: usize = 16;
const CLASSES: usize = 10;
const PLANES: usize = 64;
/// The valid-convolution error map a training step feeds back.
const DELTA_SIDE: usize = SIDE - K + 1;

/// Images per cycle that are classified: with the batch's [`PLANES`]
/// training images, `Trainer::fit`'s 80/20 train/test split.
const TEST_PER_CYCLE: usize = PLANES / 4;
/// The traced pass: classified images and training steps.
const TRACE_IMAGES: usize = 128;
const TRACE_TRAIN: usize = PLANES;
/// Images per kind re-run on the scalar read path for the output check.
const CHECK_SAMPLES: usize = 3;
const CHECK_PLANES: usize = 8;

/// Digest of the checked outputs the parent commit produces at seed 0.
const GOLDEN_CHECK_DIGEST: u64 = 0x83e6_a483_29c0_33db;

/// Input streams: every image is `(seed, stream, index)`, so no input
/// repeats within a run.
const S_WEIGHTS: u64 = 1;
const S_CLASSIFY: u64 = 2;
const S_BATCH: u64 = 3;
const S_TRAIN: u64 = 4;

fn tensor(seed: u64, shape: &[usize], lo: f32, hi: f32) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::from_vec((0..shape.iter().product::<usize>()).map(|_| rng.gen_range(lo..hi)).collect(), shape)
}

/// The float model the engines are programmed from.
struct Weights {
    conv: Tensor,
    conv_bias: Vec<f32>,
    fc: Tensor,
    fc_bias: Vec<f32>,
}

impl Weights {
    fn new(seed: u64) -> Self {
        let s = |i| stream_seed(seed, S_WEIGHTS, i);
        let fc_in = OUT_CH * (SIDE / 2) * (SIDE / 2);
        Self {
            conv: tensor(s(0), &[OUT_CH, IN_CH, K, K], -0.5, 0.5),
            conv_bias: tensor(s(1), &[OUT_CH], -0.05, 0.05).into_vec(),
            fc: tensor(s(2), &[CLASSES, fc_in], -0.1, 0.1),
            fc_bias: tensor(s(3), &[CLASSES], -0.05, 0.05).into_vec(),
        }
    }
}

/// The programmed engines: conv -> ReLU -> 2x2 pool -> linear, the same
/// conv as a 64-plane batch engine, and the digital stages alone (so the
/// traced pass can time the conv and linear calls separately).
struct Engines {
    net: HwNetwork,
    conv: HwConv,
    digital: HwNetwork,
    linear: HwLinear,
    batch: HwBatchConv,
}

impl Engines {
    fn program(w: &Weights, policy: ExecPolicy) -> Self {
        const SHAPES: &str = "the benchmark's fixed weight shapes are valid";
        let conv = HwConv::from_float(&w.conv, &w.conv_bias, 1, 1).expect(SHAPES).with_policy(policy);
        let linear = HwLinear::from_float(&w.fc, &w.fc_bias).expect(SHAPES);
        let batch = HwBatchConv::from_float(&w.conv, &w.conv_bias, 1, 1).expect(SHAPES).with_policy(policy);
        let net = HwNetwork::new().conv(conv.clone()).relu().max_pool(2).flatten().linear(linear.clone());
        let digital = HwNetwork::new().relu().max_pool(2).flatten();
        Self { net, conv, digital, linear, batch }
    }
}

fn image(seed: u64, i: u64) -> Tensor {
    tensor(stream_seed(seed, S_CLASSIFY, i), &[1, IN_CH, SIDE, SIDE], -0.5, 1.0)
}

fn planes(seed: u64, i: u64, n: usize) -> Tensor {
    tensor(stream_seed(seed, S_BATCH, i), &[n, IN_CH, SIDE, SIDE], -0.5, 1.0)
}

/// The error map arriving from the next layer for training step `i`.
fn error_map(seed: u64, i: u64) -> Tensor {
    tensor(stream_seed(seed, S_TRAIN, 2 * i + 1), &[1, OUT_CH, DELTA_SIDE, DELTA_SIDE], -0.1, 0.1)
}

/// One training step's inputs: the layer input and the error map
/// arriving from the next layer.
fn train_inputs(seed: u64, i: u64) -> (Tensor, Tensor) {
    (tensor(stream_seed(seed, S_TRAIN, 2 * i), &[IN_CH, SIDE, SIDE], -0.5, 1.0), error_map(seed, i))
}

/// Plane `j` of a `[N, C, H, W]` batch as `[C, H, W]`.
fn plane(batch: &Tensor, j: usize) -> Tensor {
    let n = IN_CH * SIDE * SIDE;
    Tensor::from_vec(batch.data()[j * n..(j + 1) * n].to_vec(), &[IN_CH, SIDE, SIDE])
}

/// Channel `c` of a `[C, H, W]` or `[1, C, H, W]` tensor as `[H, W]`.
fn channel(t: &Tensor, c: usize, side: usize) -> Tensor {
    let n = side * side;
    Tensor::from_vec(t.data()[c * n..(c + 1) * n].to_vec(), &[side, side])
}

/// What one in-situ training step of the conv layer produces.
struct StepOut {
    grads: Vec<Tensor>,
    errors: Tensor,
    writes: u64,
}

impl StepOut {
    /// Gradients, propagated errors and write count as one vector.
    fn flatten(&self) -> Vec<f32> {
        let mut v: Vec<f32> = self.grads.iter().flat_map(|g| g.data().iter().copied()).collect();
        v.extend_from_slice(self.errors.data());
        v.push(self.writes as f32);
        v
    }
}

/// One in-situ training step of the conv layer on hardware: each input
/// channel is written into the planes, the weight gradient of every
/// (output, input) kernel is read out by direct convolution, the error is
/// propagated back through the transposed kernel, and the propagated
/// error overwrites the resident activations.
fn train_step(
    w: &Weights,
    x: &Tensor,
    delta: &Tensor,
    read_path: ReadPath,
    tr: &mut Tracer,
) -> inca_core::Result<StepOut> {
    let mut units = Vec::with_capacity(IN_CH);
    for c in 0..IN_CH {
        units.push(tr.span("hw.grad_program", |_| HwGradientUnit::program(&channel(x, c, SIDE)))?);
    }
    let mut grads = Vec::with_capacity(IN_CH * OUT_CH);
    for o in 0..OUT_CH {
        let d = channel(delta, o, DELTA_SIDE);
        for unit in &units {
            grads.push(tr.span("hw.weight_gradient", |_| unit.weight_gradient_with(&d, K, read_path))?);
        }
    }
    let errors = tr.span("hw.backprop_error", |_| match read_path {
        ReadPath::Packed => backprop_error_hw(delta, &w.conv),
        ReadPath::Scalar => {
            backprop_error_hw_with(delta, &w.conv, ExecPolicy::sequential().with_read_path(read_path))
        }
    })?;
    let mut writes = 0;
    for (c, unit) in units.iter_mut().enumerate() {
        tr.span("hw.overwrite", |_| unit.overwrite_with_errors(&channel(&errors, c, SIDE)))?;
        writes += unit.write_count();
    }
    Ok(StepOut { grads, errors, writes })
}

fn finite(t: &Tensor) -> bool {
    t.data().iter().all(|v| v.is_finite())
}

/// Untraced run. A cycle follows the in-situ training protocol of
/// `Trainer::fit` over 80 fresh images split 80/20: the 64 training images
/// go forward together as one 64-plane `HwBatchConv` batch and then take
/// one in-situ training step each (program, weight gradients, error
/// back-propagation, overwrite); the 16 test images are classified one by
/// one through `HwNetwork::classify`. Each image counts once: a training
/// image by its share of the batch, a test image by its classification.
pub fn measure(seed: u64, seconds: f64, fault: bool, ledger: &mut Ledger) -> Measured {
    let setup = || {
        let w = Weights::new(seed);
        let e = Engines::program(&w, ExecPolicy::sequential());
        (w, e)
    };
    // Kinds: 0 batch forward, 1 training step, 2 classify. Every call
    // takes fresh inputs; generating them (under 0.5% of a call) is timed
    // with it.
    let mut next = [0u64; 3];
    let mut batch_in = planes(seed, 0, PLANES);
    let mut quiet = Tracer::new(false);
    let mut op = |(weights, engines): &mut (Weights, Engines), k: usize| -> Result<(), String> {
        let i = next[k];
        next[k] += 1;
        match k {
            0 => {
                batch_in = planes(seed, i, PLANES);
                let y = std::hint::black_box(engines.batch.forward(&batch_in)).map_err(|e| e.to_string())?;
                finite(&y).then_some(()).ok_or_else(|| "non-finite batch output".to_owned())
            }
            1 => {
                let x = plane(&batch_in, i as usize % PLANES);
                let s = train_step(weights, &x, &error_map(seed, i), ReadPath::Packed, &mut quiet)
                    .map_err(|e| e.to_string())?;
                (s.grads.iter().all(finite) && finite(&s.errors))
                    .then_some(())
                    .ok_or_else(|| "non-finite training output".to_owned())
            }
            _ => {
                let class =
                    std::hint::black_box(engines.net.classify(&image(seed, i))).map_err(|e| e.to_string())?;
                (class < CLASSES).then_some(()).ok_or(format!("class {class} out of range"))
            }
        }
    };
    let schedule: Vec<usize> = [(0, 1), (1, PLANES), (2, TEST_PER_CYCLE)]
        .into_iter()
        .flat_map(|(k, n)| std::iter::repeat_n(k, n))
        .collect();
    let ((weights, engines), Timed { setup_times, times, first, differ }) =
        run_timed(seconds, setup, |_| schedule.clone(), |state, k| op(state, k));
    for (k, r) in first.iter().enumerate() {
        ledger.check(r.is_ok(), || format!("hw-exec kind {k}: {r:?}"));
        ledger.check_repeats(times[k].len(), differ[k], || format!("hw-exec kind {k}"));
    }

    let digest = check_against_scalar(seed, &weights, &engines, fault, ledger);
    if seed == 0 {
        ledger.check(digest == GOLDEN_CHECK_DIGEST, || {
            format!("hw-exec: checked outputs digest {digest:#018x}, parent commit gives {GOLDEN_CHECK_DIGEST:#018x}")
        });
    }

    Measured {
        setup_times,
        schedule,
        units: vec![PLANES as f64, 0.0, 1.0],
        times,
        outputs: digest,
        notes: vec![
            format!(
                "model: conv {IN_CH}->{OUT_CH} {K}x{K} on {SIDE}x{SIDE}, relu, pool 2, linear -> {CLASSES}; exec policy sequential"
            ),
            format!(
                "cycle: 1 batch of {PLANES} planes + {PLANES} training steps + {TEST_PER_CYCLE} classify = {} images; kinds: 0 = batch, 1 = training step, 2 = classify",
                PLANES + TEST_PER_CYCLE
            ),
        ],
    }
}

/// Re-runs a sample of fresh inputs on the packed and the scalar read
/// path (engines programmed separately, so no state is shared) and
/// checks the outputs are bit-identical. Returns a digest of the packed
/// outputs.
fn check_against_scalar(seed: u64, w: &Weights, packed: &Engines, fault: bool, ledger: &mut Ledger) -> u64 {
    let scalar = Engines::program(w, ExecPolicy::sequential().with_read_path(ReadPath::Scalar));
    let mut d = Digest::default();
    let mut quiet = Tracer::new(false);
    let mut compare =
        |what: String, a: inca_core::Result<Vec<f32>>, b: inca_core::Result<Vec<f32>>, d: &mut Digest| {
            let same = match (&a, &b) {
                (Ok(a), Ok(b)) => {
                    d.f32s(a);
                    a.iter().map(|v| v.to_bits()).eq(b.iter().map(|v| v.to_bits()))
                }
                _ => false,
            };
            ledger.check(same, || format!("hw-exec {what}: packed and scalar outputs differ"));
        };
    // Check inputs come from indices the timed phase never reaches.
    let base = u64::MAX - CHECK_SAMPLES as u64;
    for i in 0..CHECK_SAMPLES as u64 {
        let x = image(seed, base + i);
        let mut a = packed.net.forward(&x).map(Tensor::into_vec);
        if fault && i == 0 {
            if let Ok(v) = a.as_mut() {
                v[0] = f32::from_bits(v[0].to_bits() ^ 1);
            }
        }
        compare(format!("classify {i}"), a, scalar.net.forward(&x).map(Tensor::into_vec), &mut d);

        let (x, delta) = train_inputs(seed, base + i);
        let a = train_step(w, &x, &delta, ReadPath::Packed, &mut quiet);
        let b = train_step(w, &x, &delta, ReadPath::Scalar, &mut quiet);
        let flat = |s: &inca_core::Result<StepOut>| match s {
            Ok(s) => Ok(s.flatten()),
            Err(e) => Err(inca_core::Error::Config(e.to_string())),
        };
        compare(format!("training step {i}"), flat(&a), flat(&b), &mut d);
    }
    let xb = planes(seed, u64::MAX, CHECK_PLANES);
    compare(
        "batch".to_owned(),
        packed.batch.forward(&xb).map(Tensor::into_vec),
        scalar.batch.forward(&xb).map(Tensor::into_vec),
        &mut d,
    );
    d.value()
}

/// Traced-pass output: a digest of every result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PassOut {
    digest: u64,
}

/// A fixed traced pass: program the engines, classify 128 images stage by
/// stage, run one 64-plane batch and a training step on each of its
/// planes.
pub fn pass(seed: u64, tr: &mut Tracer, ledger: &mut Ledger) -> PassOut {
    let w = Weights::new(seed);
    let engines = tr.span("hw.from_float", |_| Engines::program(&w, ExecPolicy::sequential()));
    let mut d = Digest::default();
    let mut ok = true;
    tr.span("hw.engines", |tr| {
        for i in 0..TRACE_IMAGES as u64 {
            let x = image(seed, i);
            let r = tr.span("hw.classify", |tr| -> inca_core::Result<Tensor> {
                let y = tr.span("hw.conv_fwd", |_| engines.conv.forward(&x))?;
                let y = tr.span("hw.digital", |_| engines.digital.forward(&y))?;
                tr.span("hw.linear_fwd", |_| engines.linear.forward(&y))
            });
            match r {
                Ok(t) => d.f32s(t.data()),
                Err(_) => ok = false,
            }
        }
        let batch_in = planes(seed, 0, PLANES);
        match tr.span("hw.batch_conv", |_| engines.batch.forward(&batch_in)) {
            Ok(t) => d.f32s(t.data()),
            Err(_) => ok = false,
        }
        for i in 0..TRACE_TRAIN as u64 {
            let (x, delta) = (plane(&batch_in, i as usize), error_map(seed, i));
            match tr.span("hw.train_step", |tr| train_step(&w, &x, &delta, ReadPath::Packed, tr)) {
                Ok(s) => d.f32s(&s.flatten()),
                Err(_) => ok = false,
            }
        }
    });
    ledger.check(ok, || "hw-exec traced pass: an engine call failed".to_owned());
    PassOut { digest: d.value() }
}

pub fn layer_metrics(
    stats: &BTreeMap<&'static str, NameStats>,
    delta: &inca_telemetry::Snapshot,
    m: &mut Metrics,
) {
    let per_call_ms = |name: &str| median(span_durations(stats, name)) * 1e3;
    push_distribution(m, "hw.conv_fwd_ms", span_durations(stats, "hw.conv_fwd"), 1e3, "ms");
    m.push("hw.linear_fwd_ms_p50", per_call_ms("hw.linear_fwd"), "ms");
    m.push("hw.batch_conv_s", span_s(stats, "hw.batch_conv"), "s");
    m.push("hw.grad_program_ms", per_call_ms("hw.grad_program"), "ms");
    m.push("hw.weight_gradient_ms", per_call_ms("hw.weight_gradient"), "ms");
    m.push("hw.backprop_error_ms", per_call_ms("hw.backprop_error"), "ms");
    m.push("hw.overwrite_ms", per_call_ms("hw.overwrite"), "ms");
    m.push("hw.from_float_ms", span_s(stats, "hw.from_float") * 1e3, "ms");
    for (metric, event) in [
        ("xbar.read_pulses", "xbar_read_pulses"),
        ("xbar.bit_serial_cycles", "bit_serial_cycles"),
        ("xbar.adc_conversions", "adc_conversions"),
        ("xbar.dac_drives", "dac_drives"),
        ("rram.program_pulses", "rram_program_pulses"),
        ("rram.endurance_writes", "endurance_writes"),
        ("hw.program_cache_hits", "program_cache_hits"),
        ("hw.program_cache_misses", "program_cache_misses"),
    ] {
        m.push(metric, counter(delta, event), "count");
    }
    let hits = counter(delta, "program_cache_hits");
    let lookups = hits + counter(delta, "program_cache_misses");
    m.push("hw.program_cache_hit_ratio", if lookups > 0.0 { hits / lookups } else { 0.0 }, "ratio");
    let cycles = counter(delta, "bit_serial_cycles");
    let engine_s = span_s(stats, "hw.engines");
    m.push("hw.ns_per_bit_serial_cycle", if cycles > 0.0 { engine_s * 1e9 / cycles } else { 0.0 }, "ns");
    m.push("hw.engines_s", engine_s, "s");
}
