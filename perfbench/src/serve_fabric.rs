//! `serve-fabric`: the fleet serving loop of `inca-serve::fleet` over the
//! `inca-net` fat-tree with DCTCP flows.

use std::collections::BTreeMap;

use inca_net::Network;
use inca_serve::{
    run_fleet_point_with_costs, run_fleet_sweep, ArrivalKind, BackendKind, CostCache, FleetConfig,
    FleetPointSummary, FleetResult, FleetSweepConfig,
};

use crate::harness::{push_distribution, run_timed, Ledger, Measured, Metrics, Timed};
use crate::serving::{anchored_rates, check_points, point_seed, price_all, Outcome};
use crate::stats::Digest;
use crate::trace::{NameStats, Tracer};

/// Grid cycles the traced pass runs.
const TRACE_CYCLES: usize = 2;

/// Digest of the points' summaries the parent commit produces at seed 0.
const GOLDEN_DIGEST: u64 = 0x7ca0_b232_18d5_bd3d;
/// FNV-1a of the committed `NET_report.json`, which the parent commit
/// regenerates byte for byte.
const NET_REPORT_FNV: u64 = 0x24dc_b4ec_640b_5a8c;

fn sweep_config(seed: u64) -> FleetSweepConfig {
    let quick = FleetSweepConfig::quick();
    FleetSweepConfig { seed: quick.seed.wrapping_add(seed), workers: 1, ..quick }
}

/// The fabric with its all-shortest-path route table, as each fleet
/// point builds it.
fn build_fabric(sweep: &FleetSweepConfig) -> Network<()> {
    Network::new(sweep.topo.build(sweep.net.link), sweep.net.net)
}

/// The sweep's points, built exactly as `run_fleet_sweep` builds them.
fn grid(sweep: &FleetSweepConfig, caches: &mut [CostCache]) -> Vec<(usize, f64, FleetConfig)> {
    let chips = sweep.num_chips();
    let mut cap = |kind: BackendKind| {
        let i = sweep.backends.iter().position(|&b| b == kind).expect("quick fleet sweep drives INCA and WS");
        caches[i].capacity_rps(&sweep.mix, chips)
    };
    let (cap_ws, cap_inca) = (cap(BackendKind::WsBaseline), cap(BackendKind::Inca));
    let rates = anchored_rates(&sweep.ws_grid, cap_ws, &[(&sweep.inca_grid, cap_inca)]);
    let mut points = Vec::new();
    for (bi, &backend) in sweep.backends.iter().enumerate() {
        for (gi, &rate) in rates.iter().enumerate() {
            let cfg = FleetConfig {
                backend,
                topo: sweep.topo,
                dispatchers: sweep.dispatchers,
                policy: sweep.policy,
                batch: sweep.batch,
                queue_cap: sweep.queue_cap,
                mix: sweep.mix.clone(),
                arrivals: ArrivalKind::Poisson { rate_rps: rate },
                seed: point_seed(sweep.seed, bi, gi),
                requests: sweep.requests_per_point,
                net: sweep.net,
                util_sample_interval_ns: sweep.util_sample_interval_ns,
                ecmp_permute_seed: sweep.ecmp_permute_seed,
            };
            points.push((bi, rate, cfg));
        }
    }
    points
}

struct Setup {
    caches: Vec<CostCache>,
    points: Vec<(usize, f64, FleetConfig)>,
    hosts: usize,
}

fn setup(seed: u64) -> Setup {
    let sweep = sweep_config(seed);
    let fabric = build_fabric(&sweep);
    let mut caches: Vec<CostCache> = sweep.backends.iter().map(|&b| price_all(b, &sweep.mix)).collect();
    let points = grid(&sweep, &mut caches);
    Setup { caches, points, hosts: fabric.topo().hosts().len() }
}

fn outcome(rate: f64, requested: u64, run: &FleetResult) -> Outcome {
    let summary = FleetPointSummary::from_run(rate, run).to_json().to_string();
    Outcome::new(summary, requested, run.offered, run.completed.len() as u64, run.shed)
}

pub fn measure(seed: u64, seconds: f64, fault: bool, ledger: &mut Ledger) -> Measured {
    let (s, mut run) = run_timed(
        seconds,
        || setup(seed),
        |s| (0..s.points.len()).collect(),
        |s, k| {
            let (bi, rate, cfg) = &s.points[k];
            outcome(*rate, cfg.requests, &run_fleet_point_with_costs(cfg, &mut s.caches[*bi]))
        },
    );
    let digest = check_points("serve-fabric", &mut run, fault, ledger);
    let Timed { setup_times, times, first, .. } = run;
    if seed == 0 {
        ledger.check(digest == GOLDEN_DIGEST, || {
            format!("serve-fabric: outputs digest {digest:#018x}, parent commit gives {GOLDEN_DIGEST:#018x}")
        });
        let report = run_fleet_sweep(&FleetSweepConfig { workers: 1, ..FleetSweepConfig::quick() });
        let text = serde_json::to_string_pretty(&report.to_json()).unwrap_or_default() + "\n";
        let got = Digest::of(text.as_bytes());
        ledger.check(got == NET_REPORT_FNV, || format!("NET_report.json: digest {got:#018x}"));
    }

    Measured {
        setup_times,
        schedule: (0..s.points.len()).collect(),
        units: first.iter().map(|o| o.completed as f64).collect(),
        times,
        outputs: digest,
        notes: vec![format!(
            "cycle: {} quick fleet points (INCA vs WS, {} hosts, k=8 fat-tree, DCTCP)",
            s.points.len(),
            s.hosts
        )],
    }
}

/// Traced-pass output and the counts it reads off the `FleetResult`s.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PassOut {
    digest: u64,
    offered: u64,
    events: u64,
    flows_completed: u64,
    packets: u64,
    drops: u64,
    ecn_marks: u64,
    retransmits: u64,
}

/// A fixed traced pass: the fabric build, cold cost tables, and the grid
/// twice.
pub fn pass(seed: u64, tr: &mut Tracer, _ledger: &mut Ledger) -> PassOut {
    let sweep = sweep_config(seed);
    tr.span("fleet.topology_build", |_| std::hint::black_box(build_fabric(&sweep)));
    let mut caches: Vec<CostCache> = sweep.backends.iter().map(|&b| CostCache::new(b, &sweep.mix)).collect();
    let points = grid(&sweep, &mut caches);
    let mut out = PassOut::default();
    let mut d = Digest::default();
    for _ in 0..TRACE_CYCLES {
        for (bi, _, cfg) in &points {
            let run = tr.span("fleet.point", |_| run_fleet_point_with_costs(cfg, &mut caches[*bi]));
            d.u64(run.offered);
            d.u64(run.completed.len() as u64);
            d.u64(run.makespan_ns);
            out.offered += run.offered;
            out.events += run.events;
            out.flows_completed += run.net.flows_completed;
            out.packets += run.net.packets;
            out.drops += run.net.drops;
            out.ecn_marks += run.net.ecn_marks;
            out.retransmits += run.net.retransmits;
        }
    }
    out.digest = d.value();
    out
}

pub fn layer_metrics(stats: &BTreeMap<&'static str, NameStats>, out: &PassOut, m: &mut Metrics) {
    let points = crate::harness::span_durations(stats, "fleet.point");
    push_distribution(m, "fleet.point_s", points, 1.0, "s");
    let host_s: f64 = points.iter().sum();
    m.push("fleet.events_per_s", out.events as f64 / host_s.max(1e-12), "1/s");
    m.push("fleet.events_per_request", out.events as f64 / out.offered.max(1) as f64, "ratio");
    m.push("net.flows_completed", out.flows_completed as f64, "count");
    m.push("net.packets", out.packets as f64, "count");
    m.push("net.drops", out.drops as f64, "count");
    m.push("net.ecn_marks", out.ecn_marks as f64, "count");
    m.push("net.retransmits", out.retransmits as f64, "count");
    m.push("fleet.topology_build_ms", crate::harness::span_s(stats, "fleet.topology_build") * 1e3, "ms");
}
