//! The three workloads. Each builds its inputs from the seed, runs the
//! same public-API call sequence a `quickdrop-cli` subcommand runs, and
//! checks the program's outputs.
//!
//! Untraced (`--trace 0`) runs repeat a fixed unit of work — one train,
//! one block of stream requests, one cycle of service plans — whole
//! until `--seconds` have passed, so the set of operations a run
//! measures does not depend on how fast it runs. Traced runs execute a
//! fixed amount of work twice — once plain, once through the
//! [`crate::probe`] wrappers — so the per-layer counters are exact
//! functions of the seed and the two fingerprints must agree.

use crate::deploy::{self, Deployment, Inputs};
use crate::kernels;
use crate::layers;
use crate::metrics::Values;
use crate::probe::{Recorder, Trace, TracedFs, TracedModule, TracedTransport};
use crate::stats::{median, tail, Fnv};
use crate::sys::{self, Usage};
use qd_core::{Checkpoint, QuickDrop, RequestJournal, StdFs, Vfs};
use qd_data::Dataset;
use qd_fed::Federation;
use qd_nn::Module;
use qd_serve::ServeConfig;
use qd_tensor::rng::Rng;
use qd_unlearn::{UnlearnRequest, UnlearningMethod};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-up repetitions where set-up is cheap enough to repeat.
const SETUP_REPEATS: usize = 21;
/// Trains every untraced `train` run times at least, so its median has
/// a middle sample.
const MIN_TRAINS: usize = 4;
/// Forget/relearn pairs of the unlearn-stream block: three runs of the
/// 4:1 class/client pattern. Every pass serves the whole block from the
/// trained deployment, so what a run measures does not depend on how
/// many passes fit in `--seconds`.
const STREAM_PAIRS: usize = 15;
/// Samples the tail latency must have beyond it.
const TAIL_BEYOND: usize = 10;
/// Forget accuracy a class must fall below after unlearning, and rise
/// above after relearning (`tests/end_to_end.rs`).
const FORGOTTEN: f32 = 0.2;
const RELEARNED: f32 = 0.4;
/// Shares of a block's known-class requests that must be forgotten and
/// restored. Over seeds 2–21 the block forgot 0.60–1.00 of them (mean
/// 0.83) and restored 0.70–1.00 (mean 0.95); each floor is that minimum
/// less 0.2, so a path that stops forgetting or restoring most classes
/// fails the run.
const FORGOTTEN_FLOOR: f64 = 0.4;
const RESTORED_FLOOR: f64 = 0.5;

/// What the run was asked to do.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub dir: PathBuf,
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks, one line each.
    pub problems: Vec<String>,
    /// Observations worth printing that fail nothing.
    pub notes: Vec<String>,
    /// Latencies of the workload's operation, in ms.
    pub op_ms: Vec<f64>,
    /// Every metric the run measured, by name.
    pub values: Values,
    /// How each user-facing figure was measured, by name.
    pub figure_notes: BTreeMap<&'static str, String>,
    pub trace: Option<Trace>,
    pub fingerprint: String,
}

impl Outcome {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Sets a user-facing figure and says how it was measured.
    pub fn figure(&mut self, name: &'static str, value: f64, note: String) {
        self.values.set(name, value);
        self.figure_notes.insert(name, note);
    }

    /// Counts one attempted operation, failed if `problems` is non-empty.
    fn attempt(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems.extend(problems);
        }
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn fingerprint(params: &[qd_tensor::Tensor]) -> String {
    Fnv::default().params(params).hex()
}

/// Checks a traced pass against a plain pass of the same work and
/// records the tracing overhead; `(wall seconds, fingerprint)` each.
fn compare_passes(out: &mut Outcome, plain: (f64, String), traced: (f64, String)) {
    out.check(plain.1 == traced.1, || {
        format!(
            "traced fingerprint {} differs from untraced {}",
            traced.1, plain.1
        )
    });
    out.values
        .set("trace.overhead_share", traced.0 / plain.0 - 1.0);
    out.fingerprint = plain.1;
}

/// Process CPU time and page faults of a plain pass of `wall_s`.
fn set_usage(out: &mut Outcome, usage: Usage, wall_s: f64) {
    out.values.set("proc.user_s", usage.user_s);
    out.values.set("proc.sys_s", usage.sys_s);
    out.values.set("proc.sys_share", usage.sys_s / wall_s);
    out.values.set("proc.minflt", usage.minflt as f64);
}

fn set_data_layers(out: &mut Outcome, inputs: &Inputs) {
    out.values.set("data.generate_ms", sys::ms(inputs.generate));
    out.values
        .set("data.partition_ms", sys::ms(inputs.partition));
}

fn set_kernel_layers(out: &mut Outcome, small_batch: usize) {
    let k = kernels::probe(small_batch);
    out.values.set("tensor.matmul_us", k.matmul_us);
    out.values.set("tensor.matmul_gflops", k.matmul_gflops);
    out.values.set("tensor.im2col_us", k.im2col_us);
    out.values.set("autograd.fwd_bwd_b32_us", k.fwd_bwd_b32_us);
    out.values
        .set("autograd.fwd_bwd_small_us", k.fwd_bwd_small_us);
}

/// The recorder plus the three wrapped seams of a traced pass.
struct Probes {
    rec: Arc<Recorder>,
    model: Arc<dyn Module>,
    fs: Arc<dyn Vfs>,
}

impl Probes {
    fn new() -> Probes {
        let rec = Recorder::new();
        Probes {
            model: TracedModule::wrap(deploy::model(), &rec),
            fs: TracedFs::shared(&rec),
            rec,
        }
    }
}

// ---------------------------------------------------------------- train

/// Checks a trained deployment: held-out accuracy, the synthetic
/// storage fraction, and a checkpoint save/load round trip.
fn check_deployment(dep: &Deployment, inputs: &Inputs, fs: &dyn Vfs, ckpt: &Path) -> Vec<String> {
    let mut problems = Vec::new();
    let acc = qd_eval::accuracy(deploy::model().as_ref(), dep.fed.global(), &inputs.test);
    if acc < deploy::ACCURACY_FLOOR {
        problems.push(format!(
            "held-out accuracy {acc:.3} below {}",
            deploy::ACCURACY_FLOOR
        ));
    }
    // Each (client, class) keeps ceil(n/s) samples, so the fraction
    // lies in [1/s, 1/s + clients·classes/n].
    let real = dep.report.real_samples.max(1) as f64;
    let lo = 1.0 / deploy::SCALE as f64;
    let hi = lo + (deploy::CLIENTS * deploy::DATASET.classes()) as f64 / real;
    let frac = dep.report.storage_fraction();
    if !(lo..=hi).contains(&frac) {
        problems.push(format!(
            "storage fraction {frac:.4} outside [{lo:.4}, {hi:.4}]"
        ));
    }
    match Checkpoint::load_on(fs, ckpt)
        .map_err(|e| e.to_string())
        .and_then(|c| c.restore().map_err(|e| e.to_string()))
    {
        Ok((params, qd)) => {
            if fingerprint(&params) != fingerprint(dep.fed.global()) {
                problems.push("checkpoint round trip changed the params".into());
            }
            if qd.synthetic_sets().len() != dep.qd.synthetic_sets().len() {
                problems.push("checkpoint round trip lost synthetic sets".into());
            }
        }
        Err(e) => problems.push(format!("checkpoint reload: {e}")),
    }
    problems
}

/// Class-match calls of one training run: every round, every client
/// runs `local_steps` steps matching `classes_per_step` of its classes.
fn match_calls(inputs: &Inputs, dep: &Deployment) -> f64 {
    let config = deploy::config();
    let per_round: usize = inputs
        .clients
        .iter()
        .map(|c| {
            let owned = c.class_counts().iter().filter(|&&n| n > 0).count();
            config.train_phase.local_steps * config.distill.classes_per_step.min(owned)
        })
        .sum();
    (per_round * dep.report.fl_stats.rounds) as f64
}

/// `train`: one `QuickDrop::train` plus a checkpoint save, repeated.
pub fn train(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        inputs = Some(Inputs::generate(ctx.seed, None));
        setups.push(secs(t.elapsed()));
    }
    let inputs = inputs.ok_or("no set-up ran")?;
    out.values.set("setup_s", median(&setups));
    let ckpt = ctx.dir.join("train.json");

    if !ctx.trace {
        let start = Instant::now();
        let mut prints = Vec::new();
        loop {
            let dep = deploy::train(&inputs, deploy::model(), &StdFs, &ckpt, None, |_| {})?;
            out.op_ms.push(sys::ms(dep.train));
            let problems = check_deployment(&dep, &inputs, &StdFs, &ckpt);
            out.attempt(problems);
            prints.push(fingerprint(dep.fed.global()));
            if prints.len() >= MIN_TRAINS && secs(start.elapsed()) >= ctx.seconds {
                break;
            }
        }
        out.check(prints.windows(2).all(|w| w.first() == w.last()), || {
            "repeated trains of one seed produced different params".into()
        });
        out.fingerprint = prints.first().cloned().unwrap_or_default();
        let n = out.op_ms.len();
        out.figure(
            "train_s",
            median(&out.op_ms) / 1000.0,
            format!("median of {n} trains, each with its checkpoint save"),
        );
        return Ok(out);
    }

    let before = Usage::now();
    let plain = deploy::train(&inputs, deploy::model(), &StdFs, &ckpt, None, |_| {})?;
    let usage = Usage::now().since(before);
    out.attempt(check_deployment(&plain, &inputs, &StdFs, &ckpt));
    out.op_ms.push(sys::ms(plain.train));
    out.figure(
        "train_s",
        secs(plain.train),
        "one train with its checkpoint save".into(),
    );
    set_usage(&mut out, usage, secs(plain.train));
    let small = deploy::synthetic_batch(&plain.qd);
    let plain_print = fingerprint(plain.fed.global());
    drop(plain);

    let p = Probes::new();
    let traced_inputs = Inputs::generate(ctx.seed, Some(&p.rec));
    let dep = deploy::train(
        &traced_inputs,
        Arc::clone(&p.model),
        p.fs.as_ref(),
        &ckpt,
        Some(&p.rec),
        |fed| fed.set_transport(TracedTransport::boxed(&p.rec)),
    )?;
    let trace = p.rec.finish();
    out.attempt(check_deployment(&dep, &inputs, &StdFs, &ckpt));
    let traced_s = secs(dep.train);
    layers::fill_from_trace(&mut out.values, &trace, traced_s, fed_workers());
    out.values
        .set("fed.samples", dep.report.fl_stats.samples_processed as f64);
    out.values.set("distill.dd_s", secs(dep.report.dd_compute));
    out.values.set("distill.dd_share", dep.report.dd_overhead());
    let calls = match_calls(&inputs, &dep);
    if calls > 0.0 {
        out.values.set(
            "distill.match_step_us",
            secs(dep.report.dd_compute) * 1e6 / calls,
        );
    }
    out.values
        .set("checkpoint.bytes", dep.checkpoint_bytes as f64);
    let traced_print = fingerprint(dep.fed.global());
    drop(dep);
    // The overhead baseline is a plain train run after the traced one,
    // so both follow an earlier train in this process.
    let warm = deploy::train(&inputs, deploy::model(), &StdFs, &ckpt, None, |_| {})?;
    out.check(fingerprint(warm.fed.global()) == plain_print, || {
        "two plain trains of one seed produced different params".into()
    });
    compare_passes(
        &mut out,
        (secs(warm.train), plain_print),
        (traced_s, traced_print),
    );
    set_data_layers(&mut out, &inputs);
    set_kernel_layers(&mut out, small);
    out.trace = Some(trace);
    Ok(out)
}

/// Client worker threads a federation round may use in parallel.
pub fn fed_workers() -> usize {
    sys::nproc().min(deploy::CLIENTS)
}

// ------------------------------------------------------- unlearn-stream

/// The request block every run serves: groups of five, each holding
/// four class requests and one client request at a random position,
/// drawn from the CLI's default `--seed 42`. Which classes a stream
/// forgets sets how many ascent rounds and how much recovery it costs,
/// so every run serves the same block over its own seeded deployment.
fn stream_requests(count: usize, classes: usize, clients: &[usize]) -> Vec<UnlearnRequest> {
    let mut rng = Rng::seed_from(42);
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let client_slot = rng.below(5);
        for slot in 0..5 {
            let request = match clients.get(rng.below(clients.len().max(1))) {
                Some(&c) if slot == client_slot => UnlearnRequest::Client(c),
                _ => UnlearnRequest::Class(rng.below(classes)),
            };
            out.push(request);
        }
    }
    out.truncate(count);
    out
}

/// The paper's forgetting envelope (`tests/end_to_end.rs`) over a
/// stream: a class the model knew (held-out accuracy above 0.4) falls
/// below 0.2 after unlearning and rises above 0.4 again after
/// relearning; a forgotten client's own data loses accuracy.
#[derive(Default)]
struct Envelope {
    known: usize,
    forgotten: usize,
    restored: usize,
    clients: usize,
    client_drops: usize,
    misses: Vec<String>,
}

impl Envelope {
    fn record(&mut self, request: UnlearnRequest, rounds: usize, acc: [f32; 3]) {
        let [before, gone, back] = acc;
        let trail = format!(
            "{request}: accuracy {before:.3} -> {gone:.3} -> {back:.3} after {rounds} ascent round(s)"
        );
        match request {
            UnlearnRequest::Class(_) if before > RELEARNED => {
                self.known += 1;
                self.forgotten += usize::from(gone < FORGOTTEN);
                self.restored += usize::from(back > RELEARNED);
                if gone >= FORGOTTEN || back <= RELEARNED {
                    self.misses.push(trail);
                }
            }
            UnlearnRequest::Class(_) => {}
            UnlearnRequest::Client(_) => {
                self.clients += 1;
                self.client_drops += usize::from(gone < before);
                if gone >= before {
                    self.misses.push(trail);
                }
            }
        }
    }

    fn share(hits: usize, of: usize) -> f64 {
        if of == 0 {
            1.0
        } else {
            hits as f64 / of as f64
        }
    }

    /// Records the envelope shares and fails the pass if the class
    /// shares fall under [`FORGOTTEN_FLOOR`] or [`RESTORED_FLOOR`].
    /// Individual misses are the program's behaviour at the CLI's
    /// unlearning settings and are printed as `note` lines; the client
    /// share is only reported, since a client's data stays partly
    /// recognisable through shared features (paper Section 4.6).
    fn judge(&self, out: &mut Outcome) {
        let forgotten = Self::share(self.forgotten, self.known);
        let restored = Self::share(self.restored, self.known);
        out.values.set("unlearn.forgotten_share", forgotten);
        out.values.set("relearn.restored_share", restored);
        out.values.set(
            "unlearn.client_drop_share",
            Self::share(self.client_drops, self.clients),
        );
        for (name, share, floor) in [
            ("unlearn.forgotten_share", forgotten, FORGOTTEN_FLOOR),
            ("relearn.restored_share", restored, RESTORED_FLOOR),
        ] {
            out.check(share >= floor, || {
                format!("{name} {share:.3} below {floor}")
            });
        }
        out.notes
            .extend(self.misses.iter().map(|m| format!("envelope miss {m}")));
        out.notes.push(format!(
            "envelope: {}/{} known classes forgotten, {}/{} restored, {}/{} clients dropped",
            self.forgotten, self.known, self.restored, self.known, self.client_drops, self.clients
        ));
    }
}

/// Per-pass results of the stream.
#[derive(Default)]
struct StreamPass {
    envelope: Envelope,
    unlearn_ms: Vec<f64>,
    relearn_ms: Vec<f64>,
    wall_s: f64,
    fingerprint: String,
    ascent_ms: f64,
    recovery_ms: f64,
    ascent_rounds: f64,
    unlearn_samples: f64,
    overhead_ms: f64,
    relearn_samples: f64,
}

impl StreamPass {
    /// Latency of each forget request plus its relearn.
    fn pair_ms(&self) -> Vec<f64> {
        self.unlearn_ms
            .iter()
            .zip(&self.relearn_ms)
            .map(|(u, r)| u + r)
            .collect()
    }
}

/// The forget set of a request: the class's held-out samples, or the
/// client's own data.
fn forget_set(request: UnlearnRequest, inputs: &Inputs) -> Dataset {
    match request {
        UnlearnRequest::Class(c) => inputs.test.only_class(c),
        UnlearnRequest::Client(t) => inputs
            .clients
            .get(t)
            .cloned()
            .unwrap_or_else(|| inputs.test.empty_like()),
    }
}

/// Serves `requests` (each forget followed by its relearn) from the
/// deployment `start`, checking every step.
fn stream_pass(
    out: &mut Outcome,
    start: &(Vec<qd_tensor::Tensor>, QuickDrop),
    inputs: &Inputs,
    requests: &[UnlearnRequest],
    seed: u64,
    probes: Option<&Probes>,
) -> StreamPass {
    let eval_model = deploy::model();
    let model = probes.map_or_else(deploy::model, |p| Arc::clone(&p.model));
    let mut fed = Federation::with_params(model, inputs.clients.clone(), start.0.clone());
    if let Some(p) = probes {
        fed.set_transport(TracedTransport::boxed(&p.rec));
    }
    let mut qd = start.1.clone();
    let mut rng = Rng::seed_from(seed ^ 0x5EED);
    let phase = qd.config().relearn_phase;
    let mut pass = StreamPass::default();
    let t0 = Instant::now();
    for (i, &request) in requests.iter().enumerate() {
        if let Some(p) = probes {
            p.rec.set_request(i as u64 + 1);
        }
        let f_set = forget_set(request, inputs);
        let acc = |fed: &Federation| qd_eval::accuracy(eval_model.as_ref(), fed.global(), &f_set);
        let finite = |fed: &Federation| fed.global().iter().all(qd_tensor::Tensor::all_finite);
        let before = acc(&fed);

        let t = Instant::now();
        let outcome = match probes {
            Some(p) => p.rec.time("quickdrop.unlearn", || {
                qd.unlearn(&mut fed, request, &mut rng)
            }),
            None => qd.unlearn(&mut fed, request, &mut rng),
        };
        let latency = t.elapsed();
        let gone = acc(&fed);
        let finite_after_unlearn = finite(&fed);
        let marked_after_unlearn = match request {
            UnlearnRequest::Class(c) => qd.unlearned_classes().any(|u| u == c),
            UnlearnRequest::Client(_) => true,
        };

        let t = Instant::now();
        let relearned = match probes {
            Some(p) => p.rec.time("quickdrop.relearn", || {
                qd.relearn(&mut fed, request, &phase, &mut rng)
            }),
            None => qd.relearn(&mut fed, request, &phase, &mut rng),
        };
        let relearn_latency = t.elapsed();
        let back = acc(&fed);

        // Hard checks: what the program guarantees for every request.
        let mut problems = Vec::new();
        if !finite_after_unlearn {
            problems.push(format!("{request}: non-finite params after unlearning"));
        }
        if let UnlearnRequest::Class(c) = request {
            if !marked_after_unlearn {
                problems.push(format!("{request}: class {c} not marked forgotten"));
            }
        }
        out.attempt(problems);
        let mut problems = Vec::new();
        if relearned.is_none() {
            problems.push(format!("{request}: relearning unsupported"));
        }
        if !finite(&fed) {
            problems.push(format!("{request}: non-finite params after relearning"));
        }
        if let UnlearnRequest::Class(c) = request {
            if qd.unlearned_classes().any(|u| u == c) {
                problems.push(format!(
                    "{request}: class {c} still marked after relearning"
                ));
            }
        }
        out.attempt(problems);
        pass.envelope
            .record(request, outcome.unlearn.rounds, [before, gone, back]);

        let ascent = sys::ms(outcome.unlearn.wall);
        let recovery = sys::ms(outcome.recovery.wall);
        pass.unlearn_ms.push(sys::ms(latency));
        pass.relearn_ms.push(sys::ms(relearn_latency));
        pass.ascent_ms += ascent;
        pass.recovery_ms += recovery;
        pass.overhead_ms += sys::ms(latency) - ascent - recovery;
        pass.ascent_rounds += outcome.unlearn.rounds as f64;
        pass.unlearn_samples +=
            (outcome.unlearn.samples_processed + outcome.recovery.samples_processed) as f64;
        pass.relearn_samples += relearned.map_or(0, |s| s.samples_processed) as f64;
    }
    pass.wall_s = secs(t0.elapsed());
    pass.fingerprint = fingerprint(fed.global());
    pass
}

fn stream_figures(out: &mut Outcome, passes: &[StreamPass]) {
    let unlearn_ms: Vec<f64> = passes.iter().flat_map(|p| p.unlearn_ms.clone()).collect();
    let relearn_ms: Vec<f64> = passes.iter().flat_map(|p| p.relearn_ms.clone()).collect();
    let n = unlearn_ms.len();
    let block = format!(
        "{} pass(es) of the {STREAM_PAIRS}-request block",
        passes.len()
    );
    out.figure(
        "unlearn_p50_ms",
        median(&unlearn_ms),
        format!("{n} forget requests, {block}"),
    );
    match tail(&unlearn_ms, TAIL_BEYOND) {
        Some((pct, v)) => out.figure(
            "unlearn_tail_ms",
            v,
            format!("p{pct:.1} of {n}, {TAIL_BEYOND} samples beyond"),
        ),
        None => {
            out.figure_notes.insert(
                "unlearn_tail_ms",
                format!("n/a: {n} samples, need {}", TAIL_BEYOND + 1),
            );
        }
    }
    out.figure(
        "relearn_p50_ms",
        median(&relearn_ms),
        format!("{} relearns, {block}", relearn_ms.len()),
    );
    out.op_ms = passes.iter().flat_map(StreamPass::pair_ms).collect();
}

/// `unlearn-stream`: a closed loop of forget requests, each followed by
/// its relearn, on one trained deployment with no journal.
pub fn unlearn_stream(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let t = Instant::now();
    let inputs = Inputs::generate(ctx.seed, None);
    let ckpt = ctx.dir.join("stream.json");
    let dep = deploy::train(&inputs, deploy::model(), &StdFs, &ckpt, None, |_| {})?;
    out.values.set("setup_s", secs(t.elapsed()));
    out.figure(
        "train_s",
        secs(dep.train),
        "the set-up's train with its checkpoint save".into(),
    );
    let classes = inputs.test.classes();
    let clients: Vec<usize> = (0..dep.qd.synthetic_sets().len())
        .filter(|&i| {
            dep.qd
                .synthetic_sets()
                .get(i)
                .is_some_and(|s| !s.is_empty())
        })
        .collect();
    let requests = stream_requests(STREAM_PAIRS, classes, &clients);
    let small = deploy::synthetic_batch(&dep.qd);
    let start = (dep.fed.global().to_vec(), dep.qd.clone());
    drop(dep);

    if !ctx.trace {
        let t0 = Instant::now();
        let mut passes = Vec::new();
        loop {
            passes.push(stream_pass(
                &mut out, &start, &inputs, &requests, ctx.seed, None,
            ));
            if secs(t0.elapsed()) >= ctx.seconds {
                break;
            }
        }
        let prints: Vec<&str> = passes.iter().map(|p| p.fingerprint.as_str()).collect();
        out.check(prints.windows(2).all(|w| w.first() == w.last()), || {
            "repeated passes of one block produced different params".into()
        });
        stream_figures(&mut out, &passes);
        if let Some(first) = passes.into_iter().next() {
            first.envelope.judge(&mut out);
            out.fingerprint = first.fingerprint;
        }
        return Ok(out);
    }

    let before = Usage::now();
    let plain = stream_pass(&mut out, &start, &inputs, &requests, ctx.seed, None);
    let usage = Usage::now().since(before);
    let p = Probes::new();
    let traced = stream_pass(&mut out, &start, &inputs, &requests, ctx.seed, Some(&p));
    let trace = p.rec.finish();
    stream_figures(&mut out, std::slice::from_ref(&plain));
    plain.envelope.judge(&mut out);
    let n = traced.unlearn_ms.len().max(1) as f64;
    layers::fill_from_trace(&mut out.values, &trace, traced.wall_s, fed_workers());
    out.values.set(
        "fed.samples",
        traced.unlearn_samples + traced.relearn_samples,
    );
    out.values.set("unlearn.ascent_ms", traced.ascent_ms / n);
    out.values
        .set("unlearn.recovery_ms", traced.recovery_ms / n);
    out.values
        .set("unlearn.ascent_rounds", traced.ascent_rounds);
    out.values.set("unlearn.samples", traced.unlearn_samples);
    out.values
        .set("unlearn.overhead_ms", traced.overhead_ms / n);
    out.values.set("relearn.samples", traced.relearn_samples);
    set_usage(&mut out, usage, plain.wall_s);
    compare_passes(
        &mut out,
        (plain.wall_s, plain.fingerprint),
        (traced.wall_s, traced.fingerprint),
    );
    set_data_layers(&mut out, &inputs);
    set_kernel_layers(&mut out, small);
    out.trace = Some(trace);
    Ok(out)
}

// ------------------------------------------------------ serve-journaled

/// The CLI `serve --coalesce` configuration for a deployment, with the
/// planner capped at the machine's hardware threads.
fn serve_config(seed: u64, qd: &QuickDrop) -> ServeConfig {
    let classes = qd.synthetic_sets().first().map_or(10, |s| s.classes());
    ServeConfig {
        tenants: 3,
        arrival_requests: 8,
        arrival_gap_us: 1_000,
        queue_cap: 16,
        coalesce: true,
        max_batch: 4,
        weights: vec![1],
        classes,
        clients: qd.synthetic_sets().len(),
        class_share: 0.8,
        seed,
        planner_threads: ServeConfig::default().planner_threads.min(sys::nproc()),
        ..ServeConfig::default()
    }
}

/// Service plans of the serve-journaled cycle. A plan's shape (arrivals,
/// coalesced units) sets how much work serving it takes, so every run
/// serves whole cycles of the same plans over its own seeded deployment,
/// and its median covers the same plan shapes however many cycles fit
/// in `--seconds`.
const SERVE_PLANS: u64 = 4;

/// Seed of the `i`-th plan of the cycle, starting at the CLI's default
/// `--seed 42`.
fn plan_seed(i: u64) -> u64 {
    42 + i
}

/// The files of a journal: its marker, then its segments in order.
fn journal_files(journal: &Path) -> Vec<PathBuf> {
    let segments = (0..)
        .map(|i| qd_core::segment_path(journal, i))
        .take_while(|p| p.exists());
    std::iter::once(journal.to_path_buf())
        .filter(|p| p.exists())
        .chain(segments)
        .collect()
}

/// One served sequence's results.
struct ServeSeq {
    wall_s: f64,
    served: u64,
    journal_bytes: u64,
    fingerprint: String,
    units: usize,
    coalesce_ratio: f64,
    virtual_p50_us: f64,
    virtual_p99_us: f64,
    records: usize,
    segments: usize,
}

/// What `quickdrop-cli serve --coalesce` does: load the checkpoint into
/// a stub federation, open the journal, finish any in-flight unit, run
/// the service plan, save the checkpoint, then reopen the journal.
fn serve_sequence(
    out: &mut Outcome,
    ctx: &Ctx,
    plan_seed: u64,
    ckpt: &Path,
    fs: Arc<dyn Vfs>,
    probes: Option<&Probes>,
) -> Result<ServeSeq, String> {
    let journal_path = ctx.dir.join("serve.journal");
    let served_ckpt = ctx.dir.join("served.json");
    for f in journal_files(&journal_path) {
        std::fs::remove_file(&f).map_err(|e| format!("clear {}: {e}", f.display()))?;
    }
    let span = |name: &'static str| probes.map(|p| p.rec.span(name));
    let t0 = Instant::now();

    let loaded = {
        let _s = span("checkpoint.load");
        Checkpoint::load_on(fs.as_ref(), ckpt).map_err(|e| format!("checkpoint load: {e}"))?
    };
    let (params, mut qd) = loaded
        .restore()
        .map_err(|e| format!("checkpoint restore: {e}"))?;
    let model = probes.map_or_else(deploy::model, |p| Arc::clone(&p.model));
    let mut fed = deploy::stub_federation(model, &qd, params)?;
    if let Some(p) = probes {
        fed.set_transport(TracedTransport::boxed(&p.rec));
    }
    let cfg = serve_config(plan_seed, &qd);
    let mut rng = Rng::seed_from(ctx.seed ^ 0x5EED);
    let mut journal = {
        let _s = span("journal.open");
        RequestJournal::open_on(Arc::clone(&fs), &journal_path)
            .map_err(|e| format!("journal open: {e}"))?
    };
    qd.resume_requests(&mut fed, &mut journal, None, &mut rng)
        .map_err(|e| format!("resume: {e}"))?;
    let run = {
        let _s = span("serve.run_service");
        qd_serve::run_service(&mut qd, &mut fed, &mut journal, &cfg, None, &mut rng, None)
            .map_err(|e| format!("run_service: {e}"))?
    };
    {
        let _s = span("checkpoint.save");
        Checkpoint::capture(fed.global(), &qd)
            .save_on(fs.as_ref(), &served_ckpt)
            .map_err(|e| format!("checkpoint save: {e}"))?;
    }
    drop(journal);
    let reopened = {
        let _s = span("journal.reopen");
        RequestJournal::open_on(Arc::clone(&fs), &journal_path)
            .map_err(|e| format!("journal reopen: {e}"))?
    };
    let wall_s = secs(t0.elapsed());

    let stats = &run.stats;
    let mut problems = Vec::new();
    if stats.admitted != stats.served + stats.quarantined + stats.shed + stats.pending {
        problems.push(format!(
            "admitted {} != served {} + quarantined {} + shed {} + pending {}",
            stats.admitted, stats.served, stats.quarantined, stats.shed, stats.pending
        ));
    }
    match qd_serve::frontier_summary(&cfg, &reopened) {
        Ok(f) if f.done == f.units => {}
        Ok(f) => problems.push(format!("{} of {} units terminal", f.done, f.units)),
        Err(e) => problems.push(format!("frontier: {e}")),
    }
    if !reopened.repairs().is_empty() {
        problems.push(format!(
            "reopened journal made {} repairs",
            reopened.repairs().len()
        ));
    }
    if run.preempted || stats.partial {
        problems.push("service run stopped early".into());
    }
    // A request counts failed if admission refused it, its unit did not
    // end served, or the sequence failed a check.
    let unserved = stats.offered.saturating_sub(stats.served);
    out.attempted += stats.offered;
    out.failed += if problems.is_empty() {
        unserved
    } else {
        stats.offered
    };
    out.problems.extend(problems);

    let files = journal_files(&journal_path);
    let mut hash = Fnv::default().params(fed.global());
    let mut journal_bytes = 0u64;
    for f in &files {
        let bytes = std::fs::read(f).map_err(|e| format!("read {}: {e}", f.display()))?;
        journal_bytes += bytes.len() as u64;
        hash = hash.bytes(&bytes);
    }
    Ok(ServeSeq {
        wall_s,
        served: stats.served,
        journal_bytes,
        fingerprint: hash.hex(),
        units: stats.batches as usize,
        coalesce_ratio: f64::from(stats.coalesce_ratio),
        virtual_p50_us: stats.p50_latency_us as f64,
        virtual_p99_us: stats.p99_latency_us as f64,
        records: reopened.records().len(),
        segments: files.len().saturating_sub(1),
    })
}

fn serve_figures(out: &mut Outcome, seqs: &[ServeSeq]) {
    let served: u64 = seqs.iter().map(|s| s.served).sum();
    let wall: f64 = seqs.iter().map(|s| s.wall_s).sum();
    let bytes: u64 = seqs.iter().map(|s| s.journal_bytes).sum();
    out.figure(
        "serve_req_per_s",
        if wall > 0.0 {
            served as f64 / wall
        } else {
            0.0
        },
        format!("{served} requests over {wall:.3} s of real wall time"),
    );
    out.figure(
        "journal_bytes_per_req",
        if served > 0 {
            bytes as f64 / served as f64
        } else {
            0.0
        },
        format!("{bytes} journal bytes"),
    );
}

/// `serve-journaled`: the `serve` command over a trained deployment's
/// checkpoint, repeated from a fresh journal each time.
pub fn serve_journaled(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let t = Instant::now();
    let inputs = Inputs::generate(ctx.seed, None);
    let ckpt = ctx.dir.join("deploy.json");
    let dep = deploy::train(&inputs, deploy::model(), &StdFs, &ckpt, None, |_| {})?;
    out.values.set("setup_s", secs(t.elapsed()));
    out.figure(
        "train_s",
        secs(dep.train),
        "the set-up's train with its checkpoint save".into(),
    );
    let small = deploy::synthetic_batch(&dep.qd);
    let checkpoint_bytes = dep.checkpoint_bytes;
    let cfg = serve_config(plan_seed(0), &dep.qd);
    drop(dep);
    let std_fs: Arc<dyn Vfs> = Arc::new(StdFs);

    if !ctx.trace {
        let start = Instant::now();
        let mut seqs: Vec<ServeSeq> = Vec::new();
        while seqs.is_empty() || secs(start.elapsed()) < ctx.seconds {
            for i in 0..SERVE_PLANS {
                let seq = serve_sequence(
                    &mut out,
                    ctx,
                    plan_seed(i),
                    &ckpt,
                    Arc::clone(&std_fs),
                    None,
                )?;
                if let Some(first) = seqs.get(i as usize) {
                    out.check(first.fingerprint == seq.fingerprint, || {
                        format!("plan {} served twice gave different results", plan_seed(i))
                    });
                }
                seqs.push(seq);
            }
        }
        out.op_ms = seqs.iter().map(|s| s.wall_s * 1000.0).collect();
        serve_figures(&mut out, &seqs);
        out.fingerprint = seqs
            .first()
            .map(|s| s.fingerprint.clone())
            .unwrap_or_default();
        return Ok(out);
    }

    let before = Usage::now();
    let plan_0 = plan_seed(0);
    let plain = serve_sequence(&mut out, ctx, plan_0, &ckpt, Arc::clone(&std_fs), None)?;
    let usage = Usage::now().since(before);
    out.op_ms = vec![plain.wall_s * 1000.0];
    let p = Probes::new();
    let plan = p
        .rec
        .time("serve.build_plan", || qd_serve::build_plan(&cfg))?;
    let traced = serve_sequence(&mut out, ctx, plan_0, &ckpt, Arc::clone(&p.fs), Some(&p))?;
    let trace = p.rec.finish();
    serve_figures(&mut out, std::slice::from_ref(&plain));
    layers::fill_from_trace(&mut out.values, &trace, traced.wall_s, fed_workers());
    out.values.set("serve.units", plan.batches.len() as f64);
    out.values
        .set("serve.coalesce_ratio", traced.coalesce_ratio);
    out.values
        .set("serve.virtual_p50_us", traced.virtual_p50_us);
    out.values
        .set("serve.virtual_p99_us", traced.virtual_p99_us);
    out.values.set("journal.records", traced.records as f64);
    out.values.set("journal.segments", traced.segments as f64);
    out.values.set("checkpoint.bytes", checkpoint_bytes as f64);
    out.check(traced.units == plan.batches.len(), || {
        format!(
            "served {} units, plan has {}",
            traced.units,
            plan.batches.len()
        )
    });
    set_usage(&mut out, usage, plain.wall_s);
    compare_passes(
        &mut out,
        (plain.wall_s, plain.fingerprint),
        (traced.wall_s, traced.fingerprint),
    );
    set_data_layers(&mut out, &inputs);
    set_kernel_layers(&mut out, small);
    out.trace = Some(trace);
    Ok(out)
}
