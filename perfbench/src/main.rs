//! End-to-end and per-layer benchmark of the INCA simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <nn-train|hw-exec|serve-teleport|serve-fabric|all> \
//!     --seed <n> --seconds <s> --trace <0|1> [--inject-fault]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See `perfbench/README.md`.

mod harness;
mod hw_exec;
mod nn_train;
mod serve_fabric;
mod serve_teleport;
mod serving;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

use harness::{
    cycle_throughput, json_number, on_off, peak_rss_mb, time_shares, Ledger, Measured, Metrics, Traced,
};
use stats::fastest;
use trace::{breakdown_table, Tracer};

/// One benchmark workload.
struct Workload {
    name: &'static str,
    /// The name `throughput_per_s` carries on this workload.
    throughput_name: &'static str,
    measure: fn(u64, f64, bool, &mut Ledger) -> Measured,
    /// The outputs digest the program's public API gives for a seed, when
    /// the timed calls reach it another way; the parent process checks
    /// every run against it.
    reference: Option<fn(u64) -> u64>,
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "nn-train",
        throughput_name: "train_samples_per_s",
        measure: nn_train::measure,
        reference: Some(nn_train::api_digest),
    },
    Workload {
        name: "hw-exec",
        throughput_name: "hw_images_per_s",
        measure: hw_exec::measure,
        reference: None,
    },
    Workload {
        name: "serve-teleport",
        throughput_name: "sim_requests_per_s",
        measure: serve_teleport::measure,
        reference: None,
    },
    Workload {
        name: "serve-fabric",
        throughput_name: "sim_requests_per_s",
        measure: serve_fabric::measure,
        reference: None,
    },
];

/// Worker threads the benchmark drives: every engine runs its sequential
/// policy and every sweep point runs on the calling thread.
const EXEC_WORKERS: usize = 1;
const SWEEP_WORKERS: usize = 1;

/// An untraced run is split into up to this many child processes, run
/// one after another, each timing an equal share of `--seconds`; their
/// samples are pooled, so that no single process decides a run
/// (README.md, "Steadiness").
const MAX_CHILDREN: usize = 5;
/// Least timed seconds per child process.
const CHILD_SECONDS: f64 = 6.0;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    inject_fault: bool,
    self_test: bool,
    /// Internal: run as one child process of an untraced run.
    child: bool,
}

const USAGE: &str = "usage: inca-perfbench --workload <nn-train|hw-exec|serve-teleport|serve-fabric|all> \
--seed <n> --seconds <s> --trace <0|1> [--inject-fault] | --self-test";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        inject_fault: false,
        self_test: false,
        child: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--inject-fault" => args.inject_fault = true,
            "--self-test" => args.self_test = true,
            "--child" => args.child = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let known = (args.workload == "all" && !args.child) || WORKLOADS.iter().any(|w| w.name == args.workload);
    if !args.self_test && !known {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// The host facts every result is recorded with.
fn host_line() -> String {
    format!(
        "nproc={} exec_workers={EXEC_WORKERS} sweep_workers={SWEEP_WORKERS} simd={}",
        inca_core::exec::available_threads(),
        inca_xbar::simd::active_impl()
    )
}

/// An untraced run of one workload.
struct Untraced {
    metrics: Metrics,
    ledger: Ledger,
    notes: Vec<String>,
}

fn run_untraced(w: &Workload, seed: u64, seconds: f64, fault: bool) -> Result<Untraced, String> {
    let children = ((seconds / CHILD_SECONDS) as usize).clamp(1, MAX_CHILDREN);
    let exe = std::env::current_exe().map_err(|e| format!("cannot find the benchmark's executable: {e}"))?;
    let mut ledger = Ledger::default();
    let mut pooled = Measured::default();
    let mut rss: f64 = 0.0;
    let mut outputs = Vec::new();
    for i in 0..children {
        let mut cmd = std::process::Command::new(&exe);
        let (seed, share) = (seed.to_string(), (seconds / children as f64).to_string());
        cmd.args(["--workload", w.name, "--seed", &seed, "--seconds", &share, "--trace", "0", "--child"]);
        if fault && i == 0 {
            cmd.arg("--inject-fault");
        }
        let out = cmd.output().map_err(|e| format!("{}: cannot start child process: {e}", w.name))?;
        if !out.status.success() {
            let err = String::from_utf8_lossy(&out.stderr);
            return Err(format!("{}: child process {i} failed ({}): {err}", w.name, out.status));
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        let child = parse_child(stdout.lines().last().unwrap_or_default())
            .map_err(|e| format!("{}: child process {i}: {e}", w.name))?;
        rss = rss.max(child.rss_mb);
        ledger.attempted += child.ledger.attempted;
        ledger.failed += child.ledger.failed;
        ledger.failures.extend(child.ledger.failures);
        outputs.push(child.measured.outputs);
        let m = child.measured;
        if i == 0 {
            pooled = m;
            continue;
        }
        if m.schedule != pooled.schedule || m.times.len() != pooled.times.len() {
            return Err(format!("{}: child process {i} ran another cycle", w.name));
        }
        pooled.setup_times.extend(m.setup_times);
        for (all, more) in pooled.times.iter_mut().zip(m.times) {
            all.extend(more);
        }
    }
    ledger.check(outputs.iter().all(|&o| o == outputs[0]), || {
        format!("{}: child processes disagree on the outputs: {outputs:x?}", w.name)
    });
    if let Some(reference) = w.reference {
        let want = reference(seed);
        ledger.check(outputs[0] == want, || {
            format!("{}: outputs digest {:#018x}, the public API gives {want:#018x}", w.name, outputs[0])
        });
    }

    let Measured { setup_times, schedule, units, times, mut notes, .. } = pooled;
    notes.push(format!(
        "{children} child processes one after another, {:.1} s timed each; operations per kind: {:?}",
        seconds / children as f64,
        times.iter().map(Vec::len).collect::<Vec<_>>()
    ));
    if times.len() <= 4 {
        let shares: Vec<String> =
            time_shares(&schedule, &times).iter().map(|s| format!("{:.1}%", 100.0 * s)).collect();
        notes.push(format!("time share by kind: {}", shares.join(", ")));
    }
    let mut metrics = Metrics::default();
    metrics.push("setup_s", fastest(&setup_times), "s");
    metrics.push("throughput_per_s", cycle_throughput(&schedule, &units, &times), "1/s");
    metrics.push("peak_rss_mb", rss, "MB");
    Ok(Untraced { metrics, ledger, notes })
}

/// What one child process reports.
struct Child {
    measured: Measured,
    ledger: Ledger,
    rss_mb: f64,
}

/// One child process's report as one JSON line, every number with all its
/// digits.
fn child_report(m: &Measured, ledger: &Ledger, rss_mb: f64) -> String {
    let nums = |v: &[f64]| format!("[{}]", v.iter().map(|x| json_number(*x)).collect::<Vec<_>>().join(","));
    let ints = |v: &[usize]| format!("[{}]", v.iter().map(usize::to_string).collect::<Vec<_>>().join(","));
    let strs =
        |v: &[String]| serde_json::Value::Array(v.iter().cloned().map(serde_json::Value::String).collect());
    let times: Vec<String> = m.times.iter().map(|t| nums(t)).collect();
    format!(
        "{{\"setup\": {}, \"schedule\": {}, \"units\": {}, \"times\": [{}], \"outputs\": \"{:x}\", \"rss_mb\": {}, \
         \"attempted\": {}, \"failed\": {}, \"failures\": {}, \"notes\": {}}}",
        nums(&m.setup_times),
        ints(&m.schedule),
        nums(&m.units),
        times.join(","),
        m.outputs,
        json_number(rss_mb),
        ledger.attempted,
        ledger.failed,
        strs(&ledger.failures),
        strs(&m.notes)
    )
}

fn parse_child(line: &str) -> Result<Child, String> {
    let v = serde_json::from_str(line).map_err(|e| format!("unreadable report {line:?}: {e}"))?;
    let bad = |what: &str| format!("report without {what}: {line:?}");
    let nums =
        |v: &serde_json::Value| -> Option<Vec<f64>> { v.as_array()?.iter().map(|x| x.as_f64()).collect() };
    let strs = |v: &serde_json::Value| -> Option<Vec<String>> {
        v.as_array()?.iter().map(|x| x.as_str().map(str::to_owned)).collect()
    };
    let times = v["times"].as_array().ok_or_else(|| bad("times"))?;
    let measured = Measured {
        setup_times: nums(&v["setup"]).ok_or_else(|| bad("setup"))?,
        schedule: v["schedule"]
            .as_array()
            .and_then(|a| a.iter().map(|k| k.as_u64().map(|k| k as usize)).collect())
            .ok_or_else(|| bad("schedule"))?,
        units: nums(&v["units"]).ok_or_else(|| bad("units"))?,
        times: times.iter().map(nums).collect::<Option<_>>().ok_or_else(|| bad("times"))?,
        outputs: v["outputs"]
            .as_str()
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or_else(|| bad("outputs"))?,
        notes: strs(&v["notes"]).ok_or_else(|| bad("notes"))?,
    };
    let ledger = Ledger {
        attempted: v["attempted"].as_u64().ok_or_else(|| bad("attempted"))?,
        failed: v["failed"].as_u64().ok_or_else(|| bad("failed"))?,
        failures: strs(&v["failures"]).ok_or_else(|| bad("failures"))?,
    };
    Ok(Child { measured, ledger, rss_mb: v["rss_mb"].as_f64().ok_or_else(|| bad("rss_mb"))? })
}

/// A traced run: every layer's pass, untraced then traced.
struct TracedRun {
    metrics: Metrics,
    ledger: Ledger,
    breakdown: String,
    tracer: Tracer,
}

fn push_overhead<T>(
    label: &str,
    t: &Traced<T>,
    m: &mut Metrics,
    breakdown: &mut String,
    totals: &mut (f64, f64),
) {
    m.push(format!("telemetry.on_over_off.{label}"), t.on_s / t.off_s, "ratio");
    m.push(format!("telemetry.off_s.{label}"), t.off_s / 2.0, "s");
    totals.0 += t.on_s;
    totals.1 += t.off_s;
    breakdown.push_str(&breakdown_table(label, &t.stats));
}

fn run_traced(seed: u64) -> TracedRun {
    let mut tracer = Tracer::new(true);
    let mut ledger = Ledger::default();
    let mut m = Metrics::default();
    let mut breakdown = String::new();
    let mut totals = (0.0, 0.0);
    inca_telemetry::reset();

    let nn = on_off(&mut tracer, &mut ledger, "nn", |tr, l| nn_train::pass(seed, tr, l));
    nn_train::check_pass(seed, &nn.out, &mut ledger);
    nn_train::layer_metrics(&nn.stats, &nn.out, &mut m);
    push_overhead("nn", &nn, &mut m, &mut breakdown, &mut totals);

    let hw = on_off(&mut tracer, &mut ledger, "hw", |tr, l| hw_exec::pass(seed, tr, l));
    hw_exec::layer_metrics(&hw.stats, &hw.delta, &mut m);
    push_overhead("hw", &hw, &mut m, &mut breakdown, &mut totals);

    let serve = on_off(&mut tracer, &mut ledger, "serve", |tr, l| serve_teleport::pass(seed, tr, l));
    serve_teleport::layer_metrics(&serve.stats, &serve.out, &mut m);
    push_overhead("serve", &serve, &mut m, &mut breakdown, &mut totals);

    let fleet = on_off(&mut tracer, &mut ledger, "fleet", |tr, l| serve_fabric::pass(seed, tr, l));
    serve_fabric::layer_metrics(&fleet.stats, &fleet.out, &mut m);
    push_overhead("fleet", &fleet, &mut m, &mut breakdown, &mut totals);

    m.push("telemetry.on_over_off", totals.0 / totals.1, "ratio");
    m.push("telemetry.off_s", totals.1 / 2.0, "s");
    TracedRun { metrics: m, ledger, breakdown, tracer }
}

/// Writes the per-layer metrics and every span to `perfbench/out/`.
fn write_trace(workload: &str, seed: u64, run: &TracedRun) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{workload}-seed{seed}.json"));
    let body = format!(
        "{{\"host\": \"{}\", \"workload\": \"{workload}\", \"seed\": {seed},\n\"metrics\": {},\n\"traceEvents\": {}}}\n",
        host_line(),
        run.metrics.to_json(),
        run.tracer.chrome_events()
    );
    std::fs::write(&path, body)?;
    Ok(path)
}

fn result_line(ledger: &Ledger, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        ledger.failed == 0 && ledger.attempted > 0,
        ledger.attempted,
        ledger.failed,
        metrics.to_json()
    )
}

fn print_metrics(metrics: &Metrics, rename: Option<&str>) {
    for (name, value, unit) in &metrics.0 {
        let shown = match rename {
            Some(r) if name == "throughput_per_s" => format!("{r} (throughput_per_s)"),
            _ => name.clone(),
        };
        println!("{shown:<44} {value:>18.6} {unit}");
    }
}

fn print_ledger(ledger: &Ledger) {
    println!(
        "{:<44} {:>18.6} ratio ({} failed of {} checked)",
        "error_rate",
        ledger.error_rate(),
        ledger.failed,
        ledger.attempted
    );
    for f in &ledger.failures {
        println!("# FAILED: {f}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = inca_core::exec::available_threads();
    if EXEC_WORKERS.max(SWEEP_WORKERS) > nproc {
        eprintln!(
            "refusing to run: {} workers on a host with {nproc} threads",
            EXEC_WORKERS.max(SWEEP_WORKERS)
        );
        return ExitCode::from(3);
    }
    if args.self_test {
        return if self_test() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }
    if args.child {
        let w = WORKLOADS.iter().find(|w| w.name == args.workload).expect("parse_args checked the name");
        let mut ledger = Ledger::default();
        let measured = (w.measure)(args.seed, args.seconds, args.inject_fault, &mut ledger);
        let Some(rss) = peak_rss_mb() else {
            eprintln!("peak RSS unavailable: /proc/self/status has no VmHWM");
            return ExitCode::FAILURE;
        };
        println!("{}", child_report(&measured, &ledger, rss));
        return ExitCode::SUCCESS;
    }
    println!("# host {}", host_line());
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    if args.trace {
        let run = run_traced(args.seed);
        print!("{}", run.breakdown);
        print_metrics(&run.metrics, None);
        print_ledger(&run.ledger);
        match write_trace(&args.workload, args.seed, &run) {
            Ok(p) => println!("# spans written to {}", p.display()),
            Err(e) => println!("# spans not written: {e}"),
        }
        println!("{}", result_line(&run.ledger, &run.metrics));
        return ExitCode::SUCCESS;
    }

    let mut runs = Vec::new();
    for w in WORKLOADS.iter().filter(|w| args.workload == "all" || w.name == args.workload) {
        let run = match run_untraced(w, args.seed, args.seconds, args.inject_fault) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        println!("## {}", w.name);
        for n in &run.notes {
            println!("# {n}");
        }
        print_metrics(&run.metrics, Some(w.throughput_name));
        print_ledger(&run.ledger);
        runs.push((w, run));
    }
    if let [(_, run)] = runs.as_slice() {
        println!("{}", result_line(&run.ledger, &run.metrics));
        return ExitCode::SUCCESS;
    }
    print_summary(&runs);
    let mut all = Metrics::default();
    let mut total = Ledger::default();
    for (w, run) in &runs {
        for (name, value, unit) in &run.metrics.0 {
            all.push(format!("{}/{name}", w.name), *value, unit);
        }
        total.attempted += run.ledger.attempted;
        total.failed += run.ledger.failed;
    }
    println!("{}", result_line(&total, &all));
    ExitCode::SUCCESS
}

/// The six end-to-end metrics of every workload side by side: set-up,
/// the three named throughputs (each workload has one), peak RSS and
/// error rate.
fn print_summary(runs: &[(&Workload, Untraced)]) {
    let throughputs = ["train_samples_per_s", "hw_images_per_s", "sim_requests_per_s"];
    print!("\n{:<16} {:>12}", "workload", "setup_s [s]");
    for t in throughputs {
        print!(" {:>26}", format!("{t} [1/s]"));
    }
    println!(" {:>16} {:>12}", "peak_rss_mb [MB]", "error_rate");
    for (w, run) in runs {
        let v: Vec<f64> = run.metrics.0.iter().map(|m| m.1).collect();
        print!("{:<16} {:>12.6}", w.name, v[0]);
        for t in throughputs {
            if w.throughput_name == t {
                print!(" {:>26.1}", v[1]);
            } else {
                print!(" {:>26}", "-");
            }
        }
        println!(" {:>16.1} {:>12.6}", v[2], run.ledger.error_rate());
    }
}

/// Names and units a `BENCHMARK.json` section declares.
fn declared(spec: &serde_json::Value, section: &str) -> BTreeMap<String, String> {
    spec[section]
        .as_array()
        .map(|a| {
            a.iter()
                .filter_map(|m| Some((m["name"].as_str()?.to_owned(), m["unit"].as_str()?.to_owned())))
                .collect()
        })
        .unwrap_or_default()
}

fn emitted(m: &Metrics) -> BTreeMap<String, String> {
    m.0.iter().map(|(n, _, u)| (n.clone(), (*u).to_owned())).collect()
}

/// Checks that every declared metric is emitted with its unit, that the
/// checks pass at seed 0, that an injected wrong output raises the error
/// rate, and that traced counts repeat exactly.
fn self_test() -> bool {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec = match std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|s| serde_json::from_str(&s).map_err(|e| e.to_string()))
    {
        Ok(v) => v,
        Err(e) => {
            eprintln!("self-test: cannot read {}: {e}", path.display());
            return false;
        }
    };
    let mut ok = true;
    let mut expect = |cond: bool, what: String| {
        println!("{} {what}", if cond { "PASS" } else { "FAIL" });
        ok &= cond;
    };
    let e2e = declared(&spec, "end_to_end");
    let per_layer = declared(&spec, "per_layer");
    for w in &WORKLOADS {
        match run_untraced(w, 0, 0.0, false) {
            Ok(run) => {
                expect(
                    emitted(&run.metrics) == e2e,
                    format!("{}: end-to-end metrics match BENCHMARK.json", w.name),
                );
                expect(
                    run.metrics.0.iter().all(|m| m.1.is_finite() && m.1 > 0.0),
                    format!("{}: every end-to-end metric is positive", w.name),
                );
                expect(
                    run.ledger.failed == 0 && run.ledger.attempted > 0,
                    format!(
                        "{}: seed 0 outputs correct ({} failed of {})",
                        w.name, run.ledger.failed, run.ledger.attempted
                    ),
                );
            }
            Err(e) => expect(false, format!("{}: {e}", w.name)),
        }
        match run_untraced(w, 0, 0.0, true) {
            Ok(run) => expect(
                run.ledger.failed > 0,
                format!("{}: injected wrong output raises error_rate to {}", w.name, run.ledger.error_rate()),
            ),
            Err(e) => expect(false, format!("{}: {e}", w.name)),
        }
    }
    let a = run_traced(0);
    let b = run_traced(0);
    expect(emitted(&a.metrics) == per_layer, "traced run: per-layer metrics match BENCHMARK.json".to_owned());
    expect(a.ledger.failed == 0, format!("traced run: outputs correct ({} failed)", a.ledger.failed));
    let counts = |r: &TracedRun| -> Vec<(String, f64)> {
        r.metrics.0.iter().filter(|m| m.2 == "count").map(|m| (m.0.clone(), m.1)).collect()
    };
    expect(counts(&a) == counts(&b), "traced run: counts repeat exactly".to_owned());
    ok
}
