//! `qd-ledger`: the repository benchmark.
//!
//! ```text
//! qd-ledger --workload train|unlearn-stream|serve-journaled
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one seeded workload in-process through the public API and
//! prints a human-readable report followed, as the last line of
//! standard output, by one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--trace 0` the metrics are the `end_to_end` list of the
//! `BENCHMARK.json` in the working directory; with `--trace 1` its
//! `per_layer` list, from a traced pass whose spans are also written to
//! `.bench_work/trace-<workload>-seed<N>.jsonl`. Exits 1 when a
//! correctness check fails and 2 on a usage or I/O error.
//!
//! Workloads (each closed-loop with one caller):
//!
//! * `train` — `quickdrop-cli train` at its defaults, repeated;
//! * `unlearn-stream` — a fixed block of forget requests, each followed
//!   by its relearn, served from one trained deployment with no journal
//!   and repeated whole;
//! * `serve-journaled` — `quickdrop-cli serve --coalesce` on the
//!   deployment's checkpoint, over whole cycles of a fixed set of
//!   multi-tenant plans whose arrivals the service schedules on its
//!   virtual clock.
//!
//! `op_p50_ms` is the median latency of the workload's operation: a
//! train command, a forget request plus its relearn, a serve command.
//!
//! Scratch files live under `.bench_work/` in the working directory and
//! are removed when the run ends.

mod deploy;
mod kernels;
mod layers;
mod metrics;
mod probe;
mod stats;
mod sys;
mod workloads;

use metrics::Table;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Ctx, Outcome};

const WORK_DIR: &str = ".bench_work";

/// The metric table, read from the directory the benchmark runs in.
const BENCHMARK: &str = "BENCHMARK.json";

/// The user-facing figures every run prints, whichever workload
/// exercises them; their units come from the metric table, and only its
/// `end_to_end` list is gated.
const FIGURES: &[&str] = &[
    "setup_s",
    "train_s",
    "unlearn_p50_ms",
    "unlearn_tail_ms",
    "relearn_p50_ms",
    "serve_req_per_s",
    "journal_bytes_per_req",
    "peak_rss_mb",
    "failed_share",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(args)
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

fn metric_json(rows: &[(&str, f64, &str)]) -> String {
    let fields: Vec<String> = rows
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Prints the report and the result line; returns whether every check
/// passed.
fn report(args: &Args, table: &Table, out: &mut Outcome) -> bool {
    println!(
        "env nproc={} fed_workers={} planner_threads={} profile={}",
        sys::nproc(),
        workloads::fed_workers(),
        qd_serve::ServeConfig::default()
            .planner_threads
            .min(sys::nproc()),
        sys::profile()
    );
    println!(
        "fingerprint workload={} seed={} {}",
        args.workload, args.seed, out.fingerprint
    );
    let failed_share = out.failed as f64 / out.attempted.max(1) as f64;
    let op_p50 = stats::median(&out.op_ms);
    out.values.set("op_p50_ms", op_p50);
    out.values.set("ok_share", 1.0 - failed_share);
    out.figure("peak_rss_mb", sys::peak_rss_mb(), "VmHWM".into());
    out.figure(
        "failed_share",
        failed_share,
        format!("{} of {} operations", out.failed, out.attempted),
    );
    out.figure_notes
        .insert("setup_s", "set-up before timing".into());
    let undeclared: Vec<String> = out
        .values
        .names()
        .chain(FIGURES.iter().copied())
        .chain(layers::EXACT.iter().copied())
        .filter(|n| table.unit(n).is_none())
        .map(|n| format!("metric {n} is not declared in {BENCHMARK}"))
        .collect();
    out.problems.extend(undeclared);

    let e2e = out.values.rows(&table.end_to_end);
    for (n, v, u) in &e2e {
        println!("gate {n} = {v:.6} {u}");
    }
    let n = out.op_ms.len();
    match stats::tail(&out.op_ms, 10) {
        Some((pct, v)) => println!("gate-info op_tail_ms = {v:.6} ms (p{pct:.1} of {n} samples)"),
        None => println!("gate-info op_tail_ms = n/a ({n} samples; a tail needs 11)"),
    }
    for &name in FIGURES {
        let unit = table.unit(name).unwrap_or("?");
        let note = out
            .figure_notes
            .get(name)
            .map_or("not exercised by this workload", String::as_str);
        match out.values.value(name) {
            Some(v) => println!("metric {name} = {v:.6} {unit} ({note})"),
            None => println!("metric {name} = n/a {unit} ({note})"),
        }
    }
    let layer_rows = out.values.rows(&table.per_layer);
    if args.trace {
        for (n, v, u) in &layer_rows {
            println!("layer {n} = {v:.6} {u}");
        }
        for n in layers::EXACT {
            println!("exact {n} = {}", out.values.get(n));
        }
        if let Some(trace) = &out.trace {
            for line in layers::table_lines(trace) {
                println!("table {line}");
            }
        }
    }
    let ops: Vec<String> = out.op_ms.iter().map(|v| format!("{v:.1}")).collect();
    println!("note op_ms [{}]", ops.join(", "));
    for n in &out.notes {
        println!("note {n}");
    }
    for p in &out.problems {
        println!("FAILED {p}");
    }
    let correct = out.problems.is_empty() && out.failed == 0;
    let metrics = metric_json(if args.trace { &layer_rows } else { &e2e });
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        out.attempted.max(1),
        out.failed
    );
    correct
}

fn run(args: &Args, dir: &std::path::Path) -> Result<Outcome, String> {
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        dir: dir.to_path_buf(),
    };
    let out = match args.workload.as_str() {
        "train" => workloads::train(&ctx)?,
        "unlearn-stream" => workloads::unlearn_stream(&ctx)?,
        "serve-journaled" => workloads::serve_journaled(&ctx)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    if let Some(trace) = &out.trace {
        let path = PathBuf::from(WORK_DIR)
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        std::fs::write(&path, trace.to_jsonl())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qd-ledger: {e}");
            return ExitCode::from(2);
        }
    };
    let table = match Table::load(Path::new(BENCHMARK)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("qd-ledger: {e}");
            return ExitCode::from(2);
        }
    };
    let dir = PathBuf::from(WORK_DIR).join(format!(
        "run-{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("qd-ledger: create {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    let result = run(&args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    match result {
        Ok(mut out) => {
            if report(&args, &table, &mut out) {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("qd-ledger: {e}");
            ExitCode::from(2)
        }
    }
}
