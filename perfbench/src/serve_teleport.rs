//! `serve-teleport`: the single-node serving engine of `inca-serve` on
//! `inca-events`, priced by `inca-sim`.

use std::collections::BTreeMap;

use inca_serve::{
    run_point, run_point_observed, run_point_with_costs, run_sweep, ArrivalKind, BackendKind, CostCache,
    ObsConfig, PointSummary, RunResult, ServeConfig, SweepConfig,
};

use crate::harness::{push_distribution, run_timed, Ledger, Measured, Metrics, Timed};
use crate::serving::{anchored_rates, check_points, point_seed, price_all, Outcome};
use crate::stats::Digest;
use crate::trace::{NameStats, Tracer};

/// Requests per sweep point: 40x the quick sweep, so a point takes
/// milliseconds of host time instead of microseconds.
const REQUESTS_PER_POINT: u64 = 50_000;
/// Requests of the bursty observed point: 4x the `obs` experiment's.
const BURSTY_REQUESTS: u64 = 10_000;
/// Grid cycles the traced pass runs.
const TRACE_CYCLES: usize = 2;

/// Digest of the points' summaries the parent commit produces at seed 0.
const GOLDEN_DIGEST: u64 = 0x34e3_6552_c083_2df6;
/// FNV-1a of the committed `SERVE_report.json`, `OBS_trace.json` and
/// `OBS_timeseries.json`, which the parent commit regenerates
/// byte for byte.
const SERVE_REPORT_FNV: u64 = 0xc48a_a6b4_2c2c_e1d4;
const OBS_TRACE_FNV: u64 = 0x1230_cde9_5e4a_bb85;
const OBS_TIMESERIES_FNV: u64 = 0xaa5a_e884_f5f4_bb60;

fn sweep_config(seed: u64, requests: u64) -> SweepConfig {
    let quick = SweepConfig::quick();
    SweepConfig { seed: quick.seed.wrapping_add(seed), requests_per_point: requests, workers: 1, ..quick }
}

/// The `obs` experiment's bursty INCA point: an MMPP whose burst state
/// sits far past capacity (deep queues, shedding, reprogram churn).
fn bursty_config(seed: u64, requests: u64) -> ServeConfig {
    let mut cfg = ServeConfig::default_fleet(BackendKind::Inca, 0.0);
    cfg.arrivals = ArrivalKind::Mmpp { rate_hi: 400_000.0, rate_lo: 200.0, mean_dwell_s: 0.05 };
    cfg.queue_cap = 512;
    cfg.seed = 0x0B5_CAFE_u64.wrapping_add(seed);
    cfg.requests = requests;
    cfg
}

/// The sweep's points, built exactly as `run_sweep` builds them: a grid
/// anchored at each backend's capacity, deduplicated within 5%, with one
/// derived seed per (backend, point).
fn grid(sweep: &SweepConfig, caches: &mut [CostCache]) -> Vec<(usize, f64, ServeConfig)> {
    let mut cap = |kind: BackendKind| {
        let i =
            sweep.backends.iter().position(|&b| b == kind).expect("quick sweep drives all three backends");
        caches[i].capacity_rps(&sweep.mix, sweep.chips)
    };
    let (cap_ws, cap_inca, cap_gpu) =
        (cap(BackendKind::WsBaseline), cap(BackendKind::Inca), cap(BackendKind::Gpu));
    let rates =
        anchored_rates(&sweep.ws_grid, cap_ws, &[(&sweep.inca_grid, cap_inca), (&sweep.gpu_grid, cap_gpu)]);
    let mut points = Vec::new();
    for (bi, &backend) in sweep.backends.iter().enumerate() {
        for (gi, &rate) in rates.iter().enumerate() {
            let cfg = ServeConfig {
                backend,
                chips: sweep.chips,
                policy: sweep.policy,
                batch: sweep.batch,
                queue_cap: sweep.queue_cap,
                mix: sweep.mix.clone(),
                arrivals: ArrivalKind::Poisson { rate_rps: rate },
                seed: point_seed(sweep.seed, bi, gi),
                requests: sweep.requests_per_point,
            };
            points.push((bi, rate, cfg));
        }
    }
    points
}

struct Setup {
    sweep: SweepConfig,
    caches: Vec<CostCache>,
    points: Vec<(usize, f64, ServeConfig)>,
}

fn setup(seed: u64) -> Setup {
    let sweep = sweep_config(seed, REQUESTS_PER_POINT);
    let mut caches: Vec<CostCache> = sweep.backends.iter().map(|&b| price_all(b, &sweep.mix)).collect();
    let points = grid(&sweep, &mut caches);
    Setup { sweep, caches, points }
}

fn outcome(rate: f64, requested: u64, run: &RunResult) -> Outcome {
    let summary = PointSummary::from_run(rate, run).to_json().to_string();
    Outcome::new(summary, requested, run.offered, run.completed.len() as u64, run.shed)
}

pub fn measure(seed: u64, seconds: f64, fault: bool, ledger: &mut Ledger) -> Measured {
    let bursty = bursty_config(seed, BURSTY_REQUESTS);

    // Kinds 0..n are the sweep points on warm cost tables; kind n is the
    // bursty point observed with every instrument on, which prices its
    // costs cold as `run_point_observed` does.
    let (s, mut run) = run_timed(
        seconds,
        || setup(seed),
        |s| (0..=s.points.len()).collect(),
        |s, k| {
            if k < s.points.len() {
                let (bi, rate, cfg) = &s.points[k];
                outcome(*rate, cfg.requests, &run_point_with_costs(cfg, &mut s.caches[*bi]))
            } else {
                let (run, obs) = run_point_observed(&bursty, &ObsConfig::full());
                std::hint::black_box(obs);
                outcome(0.0, bursty.requests, &run)
            }
        },
    );
    let digest = check_points("serve-teleport", &mut run, fault, ledger);
    let Timed { setup_times, times, first, .. } = run;

    // Observation must not change the run.
    let plain = run_point(&bursty);
    let (observed, _) = run_point_observed(&bursty, &ObsConfig::full());
    ledger
        .check(plain == observed, || "serve-teleport: run_point_observed differs from run_point".to_owned());

    if seed == 0 {
        ledger.check(digest == GOLDEN_DIGEST, || {
            format!(
                "serve-teleport: outputs digest {digest:#018x}, parent commit gives {GOLDEN_DIGEST:#018x}"
            )
        });
        check_committed_artifacts(ledger);
    }

    let n = s.points.len();
    Measured {
        setup_times,
        schedule: (0..=n).collect(),
        units: first.iter().map(|o| o.completed as f64).collect(),
        times,
        outputs: digest,
        notes: vec![format!(
            "cycle: {n} quick-grid points x {REQUESTS_PER_POINT} requests (3 backends, JSQ, Poisson, {} chips) + bursty MMPP point x {BURSTY_REQUESTS} observed",
            s.sweep.chips
        )],
    }
}

/// At seed 0, the library's own quick sweep and `obs` run must reproduce
/// the committed artifacts byte for byte.
fn check_committed_artifacts(ledger: &mut Ledger) {
    let report = run_sweep(&SweepConfig { workers: 1, ..SweepConfig::quick() });
    let text = serde_json::to_string_pretty(&report.to_json()).unwrap_or_default() + "\n";
    let got = Digest::of(text.as_bytes());
    ledger.check(got == SERVE_REPORT_FNV, || format!("SERVE_report.json: digest {got:#018x}"));

    let (_, out) = run_point_observed(&bursty_config(0, 2500), &ObsConfig::full());
    let got = Digest::of(out.trace_json.as_deref().unwrap_or_default().as_bytes());
    ledger.check(got == OBS_TRACE_FNV, || format!("OBS_trace.json: digest {got:#018x}"));
    let got = Digest::of(out.timeseries_json().as_bytes());
    ledger.check(got == OBS_TIMESERIES_FNV, || format!("OBS_timeseries.json: digest {got:#018x}"));
}

/// Traced-pass output and the counts it reads off the `RunResult`s.
#[derive(Debug, Clone, PartialEq)]
pub struct PassOut {
    digest: u64,
    completed: u64,
    shed: u64,
    offered: u64,
    batches: u64,
    switches: u64,
    events: u64,
}

/// A fixed traced pass: cold pricing per backend, the grid twice, and
/// the bursty point plain and observed.
pub fn pass(seed: u64, tr: &mut Tracer, _ledger: &mut Ledger) -> PassOut {
    let sweep = sweep_config(seed, REQUESTS_PER_POINT);
    let mut caches: Vec<CostCache> = sweep
        .backends
        .iter()
        .map(|&b| {
            let name = match b {
                BackendKind::Inca => "sim.cost_price.inca",
                BackendKind::WsBaseline => "sim.cost_price.ws",
                BackendKind::Gpu => "sim.cost_price.gpu",
            };
            tr.span(name, |_| price_all(b, &sweep.mix))
        })
        .collect();
    let points = grid(&sweep, &mut caches);
    let mut out =
        PassOut { digest: 0, completed: 0, shed: 0, offered: 0, batches: 0, switches: 0, events: 0 };
    let mut d = Digest::default();
    let mut tally = |run: &RunResult, out: &mut PassOut| {
        d.u64(run.offered);
        d.u64(run.completed.len() as u64);
        d.u64(run.makespan_ns);
        out.completed += run.completed.len() as u64;
        out.shed += run.shed;
        out.offered += run.offered;
        out.batches += run.batch_hist.iter().sum::<u64>();
        out.switches += run.switches;
        out.events += run.events;
    };
    for _ in 0..TRACE_CYCLES {
        for (bi, _, cfg) in &points {
            let run = tr.span("serve.point", |_| run_point_with_costs(cfg, &mut caches[*bi]));
            tally(&run, &mut out);
        }
    }
    let bursty = bursty_config(seed, BURSTY_REQUESTS);
    let plain = tr.span("serve.bursty_plain", |_| run_point(&bursty));
    let (observed, _) = tr.span("serve.bursty_observed", |_| run_point_observed(&bursty, &ObsConfig::full()));
    tally(&plain, &mut out);
    tally(&observed, &mut out);
    out.digest = d.value();
    out
}

pub fn layer_metrics(stats: &BTreeMap<&'static str, NameStats>, out: &PassOut, m: &mut Metrics) {
    let ms = |name: &str| stats.get(name).map_or(0.0, |s| s.total_ns as f64 / 1e6);
    m.push("sim.cost_price_ms.inca", ms("sim.cost_price.inca"), "ms");
    m.push("sim.cost_price_ms.ws", ms("sim.cost_price.ws"), "ms");
    m.push("sim.cost_price_ms.gpu", ms("sim.cost_price.gpu"), "ms");
    let points = crate::harness::span_durations(stats, "serve.point");
    push_distribution(m, "serve.point_ms", points, 1e3, "ms");
    let host_s = (ms("serve.point") + ms("serve.bursty_plain") + ms("serve.bursty_observed")) / 1e3;
    m.push("serve.events_per_s", out.events as f64 / host_s.max(1e-12), "1/s");
    m.push("serve.events_per_request", out.events as f64 / out.offered.max(1) as f64, "ratio");
    m.push("serve.completed", out.completed as f64, "count");
    m.push("serve.shed", out.shed as f64, "count");
    m.push("serve.batches", out.batches as f64, "count");
    m.push("serve.switches", out.switches as f64, "count");
    let plain_ms = ms("serve.bursty_plain");
    m.push("serve.observed_over_plain", ms("serve.bursty_observed") / plain_ms.max(1e-12), "ratio");
    m.push("serve.bursty_plain_ms", plain_ms, "ms");
}
