//! Command-line experiment harness: regenerates every table and figure of
//! the paper. See `inca_bench::usage` for the artifact list.

use inca_bench::{drifted, list_text, run_ids_full, usage, NET_ID, SERVE_ID};
use inca_core::ExperimentOpts;
use std::process::ExitCode;

/// Where the serving sweep's machine-readable report lands (repo root,
/// next to the other `*_report.json` artifacts).
const SERVE_REPORT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../SERVE_report.json");

/// Where the fleet-scale network sweep's report lands.
const NET_REPORT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../NET_report.json");

/// Where the observability run's Chrome trace lands.
const OBS_TRACE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../OBS_trace.json");

/// Where the observability run's time-series artifact lands.
const OBS_TIMESERIES_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../OBS_timeseries.json");

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = true;
    let mut json_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut ids: Vec<&str> = Vec::new();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--full" => quick = false,
            "--json" => match it.next() {
                Some(p) => json_path = Some(p.clone()),
                None => {
                    eprintln!("--json requires a path");
                    return ExitCode::FAILURE;
                }
            },
            "--check" => match it.next() {
                Some(p) => check_path = Some(p.clone()),
                None => {
                    eprintln!("--check requires a path");
                    return ExitCode::FAILURE;
                }
            },
            "-h" | "--help" => {
                print!("{}", usage());
                return ExitCode::SUCCESS;
            }
            "--list" | "list" => {
                print!("{}", list_text());
                return ExitCode::SUCCESS;
            }
            id => ids.push(id),
        }
    }
    if ids.is_empty() {
        print!("{}", usage());
        return ExitCode::FAILURE;
    }

    let opts = ExperimentOpts { quick };
    let output = match run_ids_full(ids.iter().copied(), &opts) {
        Ok(r) => r,
        Err(bad) => {
            eprintln!("unknown experiment id: {bad}\n");
            print!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let results = output.results;

    for r in &results {
        println!("=== {} — {}", r.id, r.title);
        println!("{}", r.text);
    }

    // The serving and fleet-network sweeps additionally land as
    // standalone artifacts — byte-identical across same-seed runs.
    for (id, path) in [(SERVE_ID, SERVE_REPORT_PATH), (NET_ID, NET_REPORT_PATH)] {
        if let Some(r) = results.iter().find(|r| r.id == id) {
            match serde_json::to_string_pretty(&r.data) {
                Ok(s) => {
                    if let Err(e) = std::fs::write(path, s + "\n") {
                        eprintln!("failed to write {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                    eprintln!("wrote {path}");
                }
                Err(e) => {
                    eprintln!("{id} report serialization failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    // The observability run lands as two standalone artifacts — both
    // byte-reproducible across same-seed runs.
    if let Some(artifacts) = &output.obs {
        for (path, payload) in
            [(OBS_TRACE_PATH, &artifacts.trace_json), (OBS_TIMESERIES_PATH, &artifacts.timeseries_json)]
        {
            if let Err(e) = std::fs::write(path, payload) {
                eprintln!("failed to write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {path}");
        }
    }

    if let Some(path) = json_path {
        let payload: Vec<_> = results.iter().map(|r| serde_json::json!(r)).collect();
        match serde_json::to_string_pretty(&payload) {
            Ok(s) => {
                if let Err(e) = std::fs::write(&path, s) {
                    eprintln!("failed to write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("wrote {path}");
            }
            Err(e) => {
                eprintln!("serialization failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    // `--check`: every result must equal its entry in a committed
    // `--json` file, so a committed artifact cannot drift silently.
    if let Some(path) = check_path {
        let drift =
            std::fs::read_to_string(&path).map_err(|e| e.to_string()).and_then(|b| drifted(&results, &b));
        match drift {
            Ok(ids) if ids.is_empty() => eprintln!("{} result(s) match {path}", results.len()),
            Ok(ids) => {
                eprintln!("results differ from {path}: {}", ids.join(", "));
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("cannot check against {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
