//! How the per-layer metrics of a traced run (the `per_layer` list of
//! `BENCHMARK.json`) are derived from a [`Trace`].
//!
//! Every workload reports every metric; a layer a workload does not
//! exercise reads 0. `fed.samples` is the program's own count of
//! samples processed (`TrainReport::fl_stats`, the unlearning and
//! relearning `PhaseStats`); `run_service` reports none, so it reads 0
//! on `serve-journaled`. Counts and bytes are totals over the traced pass;
//! `*_ms` of a single call kind (checkpoint, journal, serve) are per call,
//! `vfs.*_ms` are totals, `fed.*_ms` are per round and `unlearn.*_ms` per
//! forget request.
//!
//! Which end-to-end figure each layer should move, and where (the
//! end-to-end `op_p50_ms` is the train command on `train`, a forget
//! request plus its relearn on `unlearn-stream`, and a serve command on
//! `serve-journaled`):
//!
//! | layer | metrics | moves | on |
//! |---|---|---|---|
//! | process | `proc.*` (page faults, sys time) | `op_p50_ms` | all three |
//! | qd-data | `data.*` | `setup_s` | all three |
//! | qd-distill | `distill.*` | `op_p50_ms` | `train` only |
//! | qd-fed | `fed.*` | `op_p50_ms` | `train`, `unlearn-stream` |
//! | qd-nn / qd-autograd | `nn.*`, `autograd.forward_*` | `op_p50_ms` | all three |
//! | qd-tensor kernels | `tensor.*`, `autograd.fwd_bwd_*` | `op_p50_ms` | b32: `train`; small: `unlearn-stream` |
//! | qd-unlearn | `unlearn.*`, `relearn.*`, `unlearn_*`, `relearn_p50_ms` | `op_p50_ms` | `unlearn-stream` |
//! | qd-core storage | `vfs.*`, `checkpoint.*`, `journal.*`, `journal_bytes_per_req` | `op_p50_ms` | `serve-journaled` (not `unlearn-stream`) |
//! | qd-serve | `serve.*`, `serve_req_per_s` | `op_p50_ms` | `serve-journaled` |
//! | tracing | `trace.overhead_share` | none; must stay small | all three |
//!
//! `serve.virtual_*` are on the service's virtual clock, not wall time.

use crate::metrics::Values;
use crate::probe::Trace;

/// Exact counters: deterministic functions of the seed, which must
/// repeat exactly across runs of one seed.
pub const EXACT: &[&str] = &[
    "journal_bytes_per_req",
    "fed.samples",
    "nn.forward_calls",
    "autograd.forward_nodes",
    "vfs.fsync_calls",
    "vfs.bytes_written",
];

/// Fills the federation, model, tape and storage layers from `trace`;
/// `wall_s` is the traced pass's wall time and `workers` the client
/// worker threads a round may run in parallel.
pub fn fill_from_trace(values: &mut Values, trace: &Trace, wall_s: f64, workers: usize) {
    let s = |ns: u64| ns as f64 / 1e9;
    let ms = |ns: u64| ns as f64 / 1e6;
    let per = |total: f64, n: u64| if n == 0 { 0.0 } else { total / n as f64 };

    let rounds = trace.rounds.len() as u64;
    let mut span_ns = 0u64;
    let mut server_ns = 0u64;
    let mut capacity_ns = 0f64;
    for r in &trace.rounds {
        let wall = r.end_ns.saturating_sub(r.start_ns);
        let span = r
            .first_upload_ns
            .map_or(0, |up| up.saturating_sub(r.last_download_ns));
        span_ns += span;
        server_ns += wall.saturating_sub(span);
        capacity_ns += wall as f64 * r.participants.min(workers).max(1) as f64;
    }
    let client_ns = trace.total_ns("fed.client");
    values.set("fed.rounds", rounds as f64);
    values.set("fed.client_compute_s", s(client_ns));
    values.set(
        "fed.worker_busy_share",
        if capacity_ns > 0.0 {
            client_ns as f64 / capacity_ns
        } else {
            0.0
        },
    );
    values.set("fed.client_span_ms", per(ms(span_ns), rounds));
    values.set("fed.server_ms", per(ms(server_ns), rounds));
    values.set("fed.exchange_calls", trace.exchange_calls as f64);

    values.set("nn.forward_calls", trace.calls("nn.forward") as f64);
    values.set("nn.forward_s", s(trace.total_ns("nn.forward")));
    values.set("autograd.forward_nodes", trace.forward_nodes as f64);
    values.set("autograd.forward_bytes", trace.forward_bytes as f64);

    for op in ["append", "write", "fsync", "rename", "read"] {
        let name = format!("vfs.{op}");
        values.set(&format!("{name}_calls"), trace.calls(&name) as f64);
        values.set(&format!("{name}_ms"), ms(trace.total_ns(&name)));
    }
    values.set(
        "vfs.bytes_written",
        (trace.bytes("vfs.write") + trace.bytes("vfs.append")) as f64,
    );
    values.set("vfs.bytes_read", trace.bytes("vfs.read") as f64);
    let vfs_ns: u64 = trace
        .spans
        .iter()
        .filter(|sp| sp.name.starts_with("vfs."))
        .map(|sp| sp.ns())
        .sum();
    values.set(
        "vfs.busy_share",
        if wall_s > 0.0 {
            s(vfs_ns) / wall_s
        } else {
            0.0
        },
    );
    for (metric, span) in [
        ("checkpoint.save_ms", "checkpoint.save"),
        ("checkpoint.load_ms", "checkpoint.load"),
        ("journal.open_ms", "journal.open"),
        ("journal.reopen_ms", "journal.reopen"),
        ("serve.run_ms", "serve.run_service"),
        ("serve.plan_ms", "serve.build_plan"),
    ] {
        values.set(metric, per(ms(trace.total_ns(span)), trace.calls(span)));
    }
}

/// The per-layer self/total table of a trace, as printable lines.
pub fn table_lines(trace: &Trace) -> Vec<String> {
    let mut lines = vec![format!(
        "{:<22} {:>9} {:>12} {:>12} {:>14}",
        "span", "calls", "total_ms", "self_ms", "bytes"
    )];
    for (name, row) in trace.table() {
        lines.push(format!(
            "{:<22} {:>9} {:>12.3} {:>12.3} {:>14}",
            name,
            row.calls,
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6,
            row.bytes
        ));
    }
    lines
}
