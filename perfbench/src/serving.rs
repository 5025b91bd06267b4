//! What the two serving workloads share: cold pricing, the sweeps'
//! offered-load grid, and the per-point output checks.

use inca_serve::{BackendKind, CostCache, ModelMix};

use crate::harness::{Ledger, Timed};
use crate::stats::Digest;

/// Cold `CostCache::cost` over every (model, batch) pair.
pub fn price_all(backend: BackendKind, mix: &ModelMix) -> CostCache {
    let mut cache = CostCache::new(backend, mix);
    for m in 0..mix.len() {
        for b in 1..=backend.max_batch() {
            std::hint::black_box(cache.cost(m, b));
        }
    }
    cache
}

/// The offered loads of `run_sweep` and `run_fleet_sweep`: fractions of
/// the WS capacity, plus fractions of other backends' capacities that are
/// not within 5% of a load already on the grid, ascending.
pub fn anchored_rates(ws_grid: &[f64], cap_ws: f64, anchored: &[(&[f64], f64)]) -> Vec<f64> {
    let mut rates: Vec<f64> = ws_grid.iter().map(|r| r * cap_ws).collect();
    for &(fractions, cap) in anchored {
        for r in fractions {
            let g = r * cap;
            if !rates.iter().any(|&x| (x - g).abs() / g < 0.05) {
                rates.push(g);
            }
        }
    }
    rates.sort_by(f64::total_cmp);
    rates
}

/// The sweeps' seed for point `gi` of backend `bi`.
pub fn point_seed(seed: u64, bi: usize, gi: usize) -> u64 {
    seed ^ ((bi as u64) << 32) ^ gi as u64
}

/// One point's outcome, compared across repeats.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub summary: String,
    pub completed: u64,
    /// offered = completed + shed = requested.
    pub conserved: bool,
}

impl Outcome {
    pub fn new(summary: String, requested: u64, offered: u64, completed: u64, shed: u64) -> Self {
        Self { summary, completed, conserved: offered == requested && offered == completed + shed }
    }
}

/// Checks that every point's first run conserves requests and that every
/// later run repeated it; returns a digest of the first runs' summaries.
/// With `fault`, the first run's completed count is corrupted first.
pub fn check_points(label: &str, run: &mut Timed<Outcome>, fault: bool, ledger: &mut Ledger) -> u64 {
    if fault {
        run.first[0].completed += 1;
        run.first[0].conserved = false;
    }
    let mut d = Digest::default();
    for (k, first) in run.first.iter().enumerate() {
        d.bytes(first.summary.as_bytes());
        ledger.check(first.conserved, || format!("{label} point {k}: requests not conserved"));
        ledger.check_repeats(run.times[k].len(), run.differ[k], || format!("{label} point {k}"));
    }
    d.value()
}
