//! What every workload shares: the output ledger, the metric list, the
//! set-up and timed-cycle loops, the traced on/off pass, and peak RSS.

use std::collections::BTreeMap;
use std::time::Instant;

use inca_telemetry::Snapshot;

use crate::stats::{fastest, median};
use crate::trace::{NameStats, Tracer};

/// Counts every checked operation and every failed one.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ledger {
    /// Records one checked operation; `what` names it when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Records the `runs - 1` repeats of an operation, `differ` of which
    /// gave another output than its first run.
    pub fn check_repeats(&mut self, runs: usize, differ: usize, what: impl FnOnce() -> String) {
        self.attempted += runs.saturating_sub(1) as u64;
        if differ > 0 {
            self.failed += differ as u64;
            if self.failures.len() < 20 {
                self.failures.push(format!(
                    "{}: {differ} of {} repeats differ from the first run",
                    what(),
                    runs - 1
                ));
            }
        }
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Named metrics with units, in emission order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` with every digit of `v`.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_number(*v)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A finite number as JSON; non-finite values (which no metric should
/// produce) become `null` so the line still parses.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

/// What one process measured of a workload, as raw samples, so that the
/// samples of several processes can be pooled (`main.rs`, `run_untraced`).
#[derive(Debug, Default)]
pub struct Measured {
    /// Every set-up sample, seconds per set-up.
    pub setup_times: Vec<f64>,
    /// One cycle of operation kinds.
    pub schedule: Vec<usize>,
    /// Work units of one run of each kind (the unit depends on the
    /// workload).
    pub units: Vec<f64>,
    /// Per kind, every duration in seconds.
    pub times: Vec<Vec<f64>>,
    /// Digest of the checked outputs; every process of a run must report
    /// the same one.
    pub outputs: u64,
    /// Lines describing the run, printed before the result.
    pub notes: Vec<String>,
}

/// What a timed run measured.
pub struct Timed<O> {
    /// Every set-up sample, seconds per set-up.
    pub setup_times: Vec<f64>,
    /// Per operation kind, every duration in seconds.
    pub times: Vec<Vec<f64>>,
    /// Per operation kind, the first run's output.
    pub first: Vec<O>,
    /// Per operation kind, how many later runs gave another output than
    /// the first. Only these counts are kept, so memory does not grow with
    /// the number of operations a run completes.
    pub differ: Vec<usize>,
}

/// Set-up samples timed before the timed phase, and again after it.
const SETUP_SAMPLES: usize = 10;
/// Least host time one set-up sample takes: a set-up faster than this is
/// repeated back to back within the sample, so that timer and cache
/// effects of a sub-millisecond call do not decide the figure.
const SETUP_SAMPLE_S: f64 = 0.02;

/// Sets up, then runs `schedule` (one cycle of operation kinds) over and
/// over on the set-up state until `seconds` have passed and every kind
/// has run at least once; the last cycle may stop part way. Returns the
/// state and what was measured.
///
/// Set-up is sampled [`SETUP_SAMPLES`] times before the timed phase and as
/// many times after it, so that the samples see the host at two moments of
/// the run (README.md, "Steadiness"). A sample repeats set-up back to back
/// until it spans [`SETUP_SAMPLE_S`] (the repeat count is fixed by the
/// first, cold set-up) and divides by the repeats. The set-ups after the
/// timed phase are dropped unused.
pub fn run_timed<S, O: PartialEq>(
    seconds: f64,
    mut setup: impl FnMut() -> S,
    schedule: impl FnOnce(&S) -> Vec<usize>,
    mut op: impl FnMut(&mut S, usize) -> O,
) -> (S, Timed<O>) {
    let t = Instant::now();
    let mut state = std::hint::black_box(setup());
    let reps = (SETUP_SAMPLE_S / t.elapsed().as_secs_f64().max(1e-9)).ceil().max(1.0) as usize;
    let mut setup_times = Vec::with_capacity(2 * SETUP_SAMPLES);
    let mut sample_setup = |times: &mut Vec<f64>| {
        let t = Instant::now();
        let mut state = std::hint::black_box(setup());
        for _ in 1..reps {
            state = std::hint::black_box(setup());
        }
        times.push(t.elapsed().as_secs_f64() / reps as f64);
        state
    };
    for _ in 0..SETUP_SAMPLES {
        state = sample_setup(&mut setup_times);
    }

    let schedule = schedule(&state);
    let kinds = schedule.iter().max().map_or(0, |k| k + 1);
    let mut times: Vec<Vec<f64>> = (0..kinds).map(|_| Vec::new()).collect();
    let mut first: Vec<Option<O>> = (0..kinds).map(|_| None).collect();
    let mut differ = vec![0; kinds];
    let start = Instant::now();
    for &k in schedule.iter().cycle() {
        let t = Instant::now();
        let out = std::hint::black_box(op(&mut state, k));
        times[k].push(t.elapsed().as_secs_f64());
        match &first[k] {
            None => first[k] = Some(out),
            Some(f) => differ[k] += usize::from(*f != out),
        }
        if start.elapsed().as_secs_f64() >= seconds && times.iter().all(|t| !t.is_empty()) {
            break;
        }
    }

    for _ in 0..SETUP_SAMPLES {
        sample_setup(&mut setup_times);
    }
    let first = first.into_iter().map(|o| o.expect("every kind ran")).collect();
    (state, Timed { setup_times, times, first, differ })
}

/// Work of one `schedule` cycle over the cycle time rebuilt from each
/// kind's [`fastest`] duration.
pub fn cycle_throughput(schedule: &[usize], units_per_kind: &[f64], times: &[Vec<f64>]) -> f64 {
    let units: f64 = schedule.iter().map(|&k| units_per_kind[k]).sum();
    units / cycle_s(schedule, times)
}

/// One cycle's time rebuilt from each kind's [`fastest`] duration.
fn cycle_s(schedule: &[usize], times: &[Vec<f64>]) -> f64 {
    schedule.iter().map(|&k| fastest(&times[k])).sum()
}

/// Each kind's share of the rebuilt cycle time.
pub fn time_shares(schedule: &[usize], times: &[Vec<f64>]) -> Vec<f64> {
    let cycle = cycle_s(schedule, times);
    (0..times.len())
        .map(|k| schedule.iter().filter(|&&j| j == k).count() as f64 * fastest(&times[k]) / cycle)
        .collect()
}

/// One traced pass: its spans' statistics, the telemetry counted while it
/// ran, and its wall-clock with tracing on and off.
pub struct Traced<T> {
    pub out: T,
    pub stats: BTreeMap<&'static str, NameStats>,
    pub delta: Snapshot,
    pub on_s: f64,
    pub off_s: f64,
}

/// Runs `pass` untraced (telemetry off, spans off) and then traced
/// (telemetry on, spans recorded into `tracer`), twice each in
/// alternation; checks that every run returns the same output.
pub fn on_off<T: PartialEq>(
    tracer: &mut Tracer,
    ledger: &mut Ledger,
    label: &str,
    mut pass: impl FnMut(&mut Tracer, &mut Ledger) -> T,
) -> Traced<T> {
    let mut off_s = 0.0;
    let mut on_s = 0.0;
    let mut outs = Vec::new();
    let mut stats = BTreeMap::new();
    let mut delta = Snapshot::empty();
    for round in 0..2 {
        let mut quiet = Tracer::new(false);
        let t = Instant::now();
        outs.push(pass(&mut quiet, ledger));
        off_s += t.elapsed().as_secs_f64();

        let from = tracer.spans().len();
        let before = Snapshot::capture();
        inca_telemetry::set_enabled(true);
        let t = Instant::now();
        outs.push(pass(tracer, ledger));
        on_s += t.elapsed().as_secs_f64();
        inca_telemetry::set_enabled(false);
        if round == 0 {
            // The first traced round supplies the counts and the spans;
            // the second only times.
            delta = Snapshot::capture().diff(&before);
            stats = tracer.stats_since(from);
        }
    }
    let first = &outs[0];
    let same = outs.iter().all(|o| o == first);
    ledger.check(same, || format!("{label}: traced and untraced passes disagree"));
    let out = outs.swap_remove(0);
    Traced { out, stats, delta, on_s, off_s }
}

/// Reads one telemetry counter by its exported name (0 when the program
/// no longer has it).
pub fn counter(delta: &Snapshot, name: &str) -> f64 {
    delta.counters().iter().find(|(e, _)| e.name() == name).map_or(0.0, |&(_, n)| n as f64)
}

/// Total seconds of the spans named `name` (0 when none ran).
pub fn span_s(stats: &BTreeMap<&'static str, NameStats>, name: &str) -> f64 {
    stats.get(name).map_or(0.0, |s| s.total_ns as f64 / 1e9)
}

/// Durations of the spans named `name`, seconds.
pub fn span_durations<'a>(stats: &'a BTreeMap<&'static str, NameStats>, name: &str) -> &'a [f64] {
    stats.get(name).map_or(&[], |s| s.durations_s.as_slice())
}

/// Pushes `<prefix>_p50`, `<prefix>_tail` (see [`crate::stats::tail`])
/// and `<prefix>_samples` for durations given in seconds, scaled by
/// `scale`.
pub fn push_distribution(m: &mut Metrics, prefix: &str, durations_s: &[f64], scale: f64, unit: &'static str) {
    m.push(format!("{prefix}_p50"), median(durations_s) * scale, unit);
    m.push(format!("{prefix}_tail"), crate::stats::tail(durations_s) * scale, unit);
    m.push(format!("{prefix}_samples"), durations_s.len() as f64, "count");
}

/// The process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A distinct 64-bit stream seed for `(seed, stream, index)`
/// (SplitMix64 finalizer over the mixed words).
pub fn stream_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ index.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
