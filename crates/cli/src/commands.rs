//! The CLI subcommands.

use crate::{Args, ParseError};
use qd_core::{
    Checkpoint, CheckpointPolicy, QuickDrop, QuickDropConfig, RequestJournal, ServeError, TrainRun,
};
use qd_data::{ascii_samples, partition_dirichlet, partition_iid, Dataset, SyntheticDataset};
use qd_eval::{per_class_accuracy, split_accuracy};
use qd_fed::{Federation, Phase};
use qd_nn::{ConvNet, Module};
use qd_tensor::rng::Rng;
use qd_unlearn::{GuardPolicy, UnlearnRequest, UnlearningMethod, DEFAULT_DRIFT_BUDGET};
use std::fmt;
use std::sync::Arc;

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line.
    Parse(ParseError),
    /// Checkpoint or filesystem failure.
    Io(std::io::Error),
    /// Anything else (unknown subcommand, inconsistent request, ...).
    Usage(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Parse(e) => write!(f, "{e}"),
            // Storage failures carry the operation and path they failed
            // on (plus what to do about disk-full / fsync failures);
            // print that instead of the bare OS error chain.
            CliError::Io(e) => match qd_core::storage_cause(e) {
                Some(storage) => write!(f, "storage: {}", storage.actionable()),
                None => write!(f, "{e}"),
            },
            CliError::Usage(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ParseError> for CliError {
    fn from(e: ParseError) -> Self {
        CliError::Parse(e)
    }
}

impl From<qd_core::CheckpointError> for CliError {
    fn from(e: qd_core::CheckpointError) -> Self {
        CliError::Io(e.into())
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<qd_core::JournalError> for CliError {
    fn from(e: qd_core::JournalError) -> Self {
        CliError::Io(e.into())
    }
}

impl From<ServeError> for CliError {
    fn from(e: ServeError) -> Self {
        match e {
            ServeError::Io(io) => CliError::Io(io),
            ServeError::Diverged(d) => CliError::Usage(d.to_string()),
        }
    }
}

impl From<qd_serve::ServiceError> for CliError {
    fn from(e: qd_serve::ServiceError) -> Self {
        match e {
            qd_serve::ServiceError::Plan(msg) => CliError::Usage(msg),
            // I/O failures route through `CliError::Io` so storage
            // errors render their actionable advice (operation, path,
            // what to do) via `storage_cause`, like every other path.
            qd_serve::ServiceError::Serve(s) => CliError::from(s),
            qd_serve::ServiceError::ForeignJournal(msg) => CliError::Usage(format!(
                "journal does not match this service plan: {msg}\n\
                 (point --journal at this run's journal, or move the stale one aside)"
            )),
        }
    }
}

/// Usage text printed by `help` and on errors.
pub const USAGE: &str = "\
quickdrop-cli — federated unlearning via synthetic data

USAGE:
  quickdrop-cli train   --out ckpt.json [--dataset digits|cifar|svhn]
                        [--clients N] [--alpha A | --iid] [--samples N]
                        [--rounds K] [--steps T] [--batch B] [--lr LR]
                        [--scale S] [--seed X]
                        [--aggregator fedavg|median|trimmed-mean|norm-clip]
                        [--quorum N] [--byzantine-frac F]
                        [--checkpoint-every K] [--preempt-after R] [--resume]
                        [--net-latency-ms MS] [--net-bandwidth-mbps MBPS]
                        [--net-jitter-ms MS] [--dropout-prob P]
                        [--straggler-frac F] [--loss-prob P]
                        [--net-seed X] [--quantized]
                        [--retry-max N] [--retry-backoff-ms MS]
                        [--round-deadline-ms MS] [--hedge-after-ms MS]
                        [--sample-slack N] [--cooldown-rounds N]
  quickdrop-cli unlearn --ckpt ckpt.json (--class C | --client I)
                        [--out ckpt.json] [--dataset D] [--seed X]
                        [--drift-budget F] [--retain-probe L]
                        [--ascent-retries N] [--journal [PATH]]
  quickdrop-cli relearn --ckpt ckpt.json (--class C | --client I)
                        [--out ckpt.json] [--dataset D] [--seed X]
                        [--journal [PATH]]
  quickdrop-cli serve   --ckpt ckpt.json [--out ckpt.json] [--dataset D]
                        [--tenants N] [--arrival-requests N]
                        [--arrival-gap-us U] [--queue-cap N]
                        [--coalesce] [--max-batch N] [--class-share F]
                        [--weights W1,W2,...] [--seed X]
                        [--drift-budget F] [--retain-probe L]
                        [--ascent-retries N] [--journal [PATH]]
                        [--unit-retries N] [--bisect]
                        [--breaker-trip N] [--breaker-cooldown N]
                        [--stats-out stats.json]
  quickdrop-cli eval    --ckpt ckpt.json [--dataset D] [--samples N] [--seed X]
  quickdrop-cli show    --ckpt ckpt.json [--client I] [--limit N]
  quickdrop-cli chaos   [--seed X] [--runs N] [--shrink]
                        [--repro-out chaos-repro.json]
                        [--replay chaos-repro.json]
  quickdrop-cli help
";

fn dataset_by_name(name: &str) -> Result<SyntheticDataset, CliError> {
    match name {
        "digits" => Ok(SyntheticDataset::Digits),
        "cifar" => Ok(SyntheticDataset::Cifar),
        "svhn" => Ok(SyntheticDataset::Svhn),
        other => Err(CliError::Usage(format!(
            "unknown dataset {other:?} (expected digits|cifar|svhn)"
        ))),
    }
}

/// The architecture every CLI deployment uses; channels/classes are
/// recovered from the checkpoint's synthetic geometry on reload.
fn model_for(dataset: SyntheticDataset) -> Arc<ConvNet> {
    Arc::new(ConvNet::scaled_default(
        dataset.channels(),
        dataset.classes(),
    ))
}

/// Reads the `--net-*` family of options into a [`qd_fed::NetConfig`],
/// surfacing `NetConfig::validate`'s verdict on out-of-range values as a
/// usage error (where the library's `validated()` would panic).
fn net_config_from(args: &Args) -> Result<qd_fed::NetConfig, CliError> {
    let net = qd_fed::NetConfig {
        latency_ms: args.get_f32("net-latency-ms", 0.0)?,
        bandwidth_mbps: args.get_f32("net-bandwidth-mbps", 0.0)?,
        jitter_ms: args.get_f32("net-jitter-ms", 0.0)?,
        dropout_prob: args.get_f32("dropout-prob", 0.0)?,
        straggler_frac: args.get_f32("straggler-frac", 0.0)?,
        loss_prob: args.get_f32("loss-prob", 0.0)?,
        seed: args.get_u64("net-seed", 0)?,
        quantized: args.flag("quantized"),
        retry: qd_fed::RetryConfig {
            max_attempts: args.get_usize("retry-max", 1)? as u32,
            base_backoff_ms: args.get_f32("retry-backoff-ms", 50.0)?,
            deadline_ms: args.get_f32("round-deadline-ms", 0.0)?,
            hedge_after_ms: args.get_f32("hedge-after-ms", 0.0)?,
        },
        ..qd_fed::NetConfig::default()
    };
    net.validate()
        .map_err(|msg| CliError::Usage(format!("bad --net option: {msg}")))?;
    Ok(net)
}

/// Reads the `--drift-budget` / `--retain-probe` / `--ascent-retries`
/// family into a [`GuardPolicy`], or `None` when no guard flag was
/// given — keeping the unguarded serving path bit-for-bit untouched.
/// Out-of-range values surface `GuardPolicy::validate`'s verdict as a
/// usage error.
fn guard_policy_from(args: &Args) -> Result<Option<GuardPolicy>, CliError> {
    let requested = args.has_option("drift-budget")
        || args.has_option("retain-probe")
        || args.has_option("ascent-retries");
    if !requested {
        return Ok(None);
    }
    let policy = GuardPolicy {
        drift_budget: args.get_f32("drift-budget", DEFAULT_DRIFT_BUDGET)?,
        retain_probe: args.get_f32("retain-probe", 0.0)?,
        ascent_retries: args.get_usize("ascent-retries", 3)? as u32,
        ..GuardPolicy::default()
    };
    policy
        .validate()
        .map_err(|msg| CliError::Usage(format!("bad guard option: {msg}")))?;
    Ok(Some(policy))
}

/// Reads the `--unit-retries` / `--bisect` / `--breaker-*` family into
/// an [`qd_serve::IsolationConfig`]. All default to off — a command
/// line without these flags serves bit-for-bit as before failure
/// isolation existed.
fn isolation_config_from(args: &Args) -> Result<qd_serve::IsolationConfig, CliError> {
    let iso = qd_serve::IsolationConfig {
        unit_retries: args.get_usize("unit-retries", 0)? as u32,
        bisect: args.flag("bisect"),
        breaker_trip: args.get_usize("breaker-trip", 0)? as u32,
        breaker_cooldown: args.get_usize("breaker-cooldown", 0)? as u32,
    };
    iso.validate()
        .map_err(|msg| CliError::Usage(format!("bad isolation option: {msg}")))?;
    Ok(iso)
}

/// The journal location: `--journal PATH` names it explicitly, a bare
/// `--journal` derives `<ckpt>.journal`, absence disables journaling.
fn journal_path_from(args: &Args, ckpt: &str) -> Option<std::path::PathBuf> {
    if args.has_option("journal") {
        Some(std::path::PathBuf::from(args.get_str("journal", "")))
    } else if args.flag("journal") {
        Some(RequestJournal::path_for_checkpoint(ckpt))
    } else {
        None
    }
}

fn request_from(args: &Args) -> Result<UnlearnRequest, CliError> {
    match (args.get_opt_usize("class")?, args.get_opt_usize("client")?) {
        (Some(c), None) => Ok(UnlearnRequest::Class(c)),
        (None, Some(i)) => Ok(UnlearnRequest::Client(i)),
        _ => Err(CliError::Usage(
            "exactly one of --class or --client is required".into(),
        )),
    }
}

/// A federation stub whose clients hold no real data — everything the
/// serving path needs lives in the checkpoint's synthetic sets.
fn stub_federation(
    ckpt_model: Arc<dyn Module>,
    qd: &QuickDrop,
    params: Vec<qd_tensor::Tensor>,
) -> Federation {
    let n = qd.synthetic_sets().len().max(1);
    let (c, h, w) = qd.synthetic_sets()[0].sample_dims();
    let classes = qd.synthetic_sets()[0].classes();
    let empty = Dataset::new(Vec::new(), Vec::new(), classes, c, h, w);
    Federation::with_params(ckpt_model, vec![empty; n], params)
}

/// Executes a parsed command line, returning the text to print.
///
/// # Errors
///
/// Returns [`CliError`] for unknown subcommands, malformed options, or
/// checkpoint I/O failures.
pub fn run(args: &Args) -> Result<String, CliError> {
    match args.command() {
        "help" | "usage" => Ok(USAGE.to_string()),
        "train" => train(args),
        "unlearn" => serve(args, ServeMode::Unlearn),
        "relearn" => serve(args, ServeMode::Relearn),
        "serve" => service(args),
        "eval" => eval(args),
        "show" => show(args),
        "chaos" => chaos(args),
        other => Err(CliError::Usage(format!(
            "unknown subcommand {other:?}\n\n{USAGE}"
        ))),
    }
}

fn train(args: &Args) -> Result<String, CliError> {
    let dataset = dataset_by_name(&args.get_str("dataset", "digits"))?;
    let out = args.require_str("out")?;
    let clients = args.get_usize("clients", 4)?;
    let samples = args.get_usize("samples", 800)?;
    let rounds = args.get_usize("rounds", 8)?;
    let steps = args.get_usize("steps", 8)?;
    let batch = args.get_usize("batch", 32)?;
    let lr = args.get_f32("lr", 0.08)?;
    let scale = args.get_usize("scale", 100)?;
    let seed = args.get_u64("seed", 42)?;
    let aggregator = {
        let name = args.get_str("aggregator", "fedavg");
        qd_fed::AggregatorKind::parse(&name).ok_or_else(|| {
            CliError::Usage(format!(
                "unknown aggregator {name:?} (expected fedavg|median|trimmed-mean|norm-clip)"
            ))
        })?
    };
    let quorum = args.get_usize("quorum", 0)?;
    let byzantine_frac = args.get_f32("byzantine-frac", 0.0)?;
    if !(0.0..1.0).contains(&byzantine_frac) {
        return Err(CliError::Usage(format!(
            "--byzantine-frac must be in [0, 1), got {byzantine_frac}"
        )));
    }
    let checkpoint_every = args.get_usize("checkpoint-every", 0)?;
    let preempt_after = args.get_opt_usize("preempt-after")?;
    let resume = args.flag("resume");

    let mut rng = Rng::seed_from(seed);
    let data = dataset.generate(samples, &mut rng);
    let parts = if args.flag("iid") {
        partition_iid(data.len(), clients, &mut rng)
    } else {
        let alpha = args.get_f32("alpha", 0.1)?;
        partition_dirichlet(data.labels(), data.classes(), clients, alpha, &mut rng)
    };
    let client_data: Vec<Dataset> = parts.iter().map(|p| data.subset(p)).collect();
    let model = model_for(dataset);
    let mut fed = Federation::new(model, client_data, &mut rng);
    if byzantine_frac > 0.0 {
        // Chaos experiments: derive the fault trace from the run seed so
        // the attack is reproducible alongside everything else.
        fed.set_fault_plan(Some(qd_fed::FaultPlan::new(seed ^ 0xFA17, byzantine_frac)));
    }

    let mut config = QuickDropConfig::paper_shaped(rounds, steps, batch, lr);
    config.distill.scale = scale;
    config.distill.classes_per_step = 2;
    config.distill.lr_syn = 0.5;
    config.train_phase = config
        .train_phase
        .with_aggregator(aggregator)
        .with_min_quorum(quorum)
        .with_sample_slack(args.get_usize("sample-slack", 0)?)
        .with_cooldown_rounds(args.get_usize("cooldown-rounds", 0)?);
    config.unlearn_phase = Phase::unlearning(1, steps.min(6), batch, lr / 2.0);
    config.max_unlearn_rounds = 4;
    config.net = net_config_from(args)?;

    // Mid-phase checkpoints share the --out path: while the run is in
    // flight the file holds a resumable cursor, and on completion the
    // final deployment checkpoint atomically replaces it.
    let policy = (checkpoint_every > 0 || preempt_after.is_some()).then(|| CheckpointPolicy {
        every: checkpoint_every,
        path: std::path::PathBuf::from(&out),
        preempt_after,
    });
    let run = if resume {
        // --resume ignores the phase-shape flags: the checkpoint's own
        // config governs the remainder of the run. The data flags
        // (--dataset/--clients/--samples/--seed/...) must match the
        // original invocation so the rebuilt federation does too.
        let ckpt = Checkpoint::load(&out)?;
        QuickDrop::resume_train(&mut fed, ckpt, &mut rng, policy.as_ref())?
    } else if let Some(policy) = &policy {
        QuickDrop::train_with_checkpoints(&mut fed, config, &mut rng, policy)?
    } else {
        let (qd, report) = QuickDrop::train(&mut fed, config, &mut rng);
        TrainRun::Complete(Box::new((qd, report)))
    };
    let (qd, report) = match run {
        TrainRun::Complete(boxed) => *boxed,
        TrainRun::Preempted { rounds_completed } => {
            return Ok(format!(
                "training preempted after {rounds_completed} rounds; mid-phase \
                 checkpoint at {out}\nresume with: quickdrop-cli train --resume \
                 --out {out} (plus the original data flags)\n"
            ));
        }
    };

    let net_line = if report.fl_stats.net.total_bytes() > 0 {
        let n = &report.fl_stats.net;
        format!(
            "network: {:.1} KiB on the wire, {:.0} ms simulated, {} drops, \
             {} retries, {} timed out, {} hedged\n",
            n.total_bytes() as f64 / 1024.0,
            n.sim.as_secs_f64() * 1000.0,
            n.drops,
            n.retries,
            n.timed_out,
            n.hedges,
        )
    } else {
        String::new()
    };
    Checkpoint::capture(fed.global(), &qd).save(&out)?;
    Ok(format!(
        "trained {} on {} clients ({} samples); synthetic storage {:.1}%, \
         DD overhead {:.0}%; checkpoint written to {out}\n{net_line}",
        dataset.name(),
        clients,
        samples,
        report.storage_fraction() * 100.0,
        report.dd_overhead() * 100.0,
    ))
}

#[derive(Clone, Copy, PartialEq)]
enum ServeMode {
    Unlearn,
    Relearn,
}

fn serve(args: &Args, mode: ServeMode) -> Result<String, CliError> {
    let dataset = dataset_by_name(&args.get_str("dataset", "digits"))?;
    let path = args.require_str("ckpt")?;
    let out = args.get_str("out", &path);
    let seed = args.get_u64("seed", 42)?;
    let request = request_from(args)?;

    let (params, mut qd) = Checkpoint::load(&path)?.restore()?;
    let model = model_for(dataset);
    let mut fed = stub_federation(model.clone(), &qd, params);
    // Serving RNG is independent of the training seed.
    let mut rng = Rng::seed_from(seed ^ 0x5EED);
    let test = dataset.generate(
        args.get_usize("samples", 400)?,
        &mut Rng::seed_from(seed + 1),
    );
    let (f_set, r_set) = match request {
        UnlearnRequest::Class(c) => (test.only_class(c), test.without_class(c)),
        UnlearnRequest::Client(_) => {
            // Client-level evaluation data is not reconstructible from a
            // stub federation; report whole-test accuracy instead.
            (test.clone(), test.clone())
        }
    };
    let policy = guard_policy_from(args)?;
    let journal_path = journal_path_from(args, &path);
    // With --journal, the model, RNG stream and request progress continue
    // from the journal's last record: a request interrupted by a crash in
    // an earlier invocation is finished here before the new one is served,
    // reproducing the uninterrupted stream bit-for-bit.
    let mut journal = match &journal_path {
        Some(jp) => Some(RequestJournal::open(jp)?),
        None => None,
    };
    let resumed_line = match &mut journal {
        Some(journal) => qd
            .resume_requests(&mut fed, journal, policy.as_ref(), &mut rng)
            .map_err(CliError::from)?
            .map(|_| "finished an in-flight request from the journal\n")
            .unwrap_or_default(),
        None => "",
    };
    let report = match mode {
        ServeMode::Unlearn => {
            let outcome = if let Some(journal) = &mut journal {
                qd.serve_batch_journaled(&mut fed, journal, &[request], policy.as_ref(), &mut rng)
                    .map_err(CliError::from)?
                    .into()
            } else if let Some(policy) = &policy {
                qd.unlearn_guarded(&mut fed, request, policy, &mut rng)
                    .map_err(|e| CliError::Usage(e.to_string()))?
            } else {
                qd.unlearn(&mut fed, request, &mut rng)
            };
            let guard_line = outcome
                .guard
                .map(|s| {
                    format!(
                        "guard: {} attempt(s), {} rollback(s), final drift {:.2}\n",
                        s.steps, s.rollbacks, s.final_drift
                    )
                })
                .unwrap_or_default();
            let (fa, ra) = split_accuracy(model.as_ref(), fed.global(), &f_set, &r_set);
            format!(
                "unlearned {request} in {:.0} ms over {} synthetic samples; \
                 F-Set {:.1}%, R-Set {:.1}%\n{guard_line}",
                outcome.total().wall.as_secs_f64() * 1000.0,
                outcome.unlearn.data_size,
                fa * 100.0,
                ra * 100.0
            )
        }
        ServeMode::Relearn => {
            let phase = qd.config().relearn_phase;
            let stats = if let Some(journal) = &mut journal {
                qd.relearn_journaled(&mut fed, journal, request, &phase, &mut rng)
                    .map_err(CliError::from)?
            } else {
                qd.relearn(&mut fed, request, &phase, &mut rng)
                    .expect("QuickDrop supports relearning")
            };
            let (fa, ra) = split_accuracy(model.as_ref(), fed.global(), &f_set, &r_set);
            format!(
                "relearned {request} in {:.0} ms; F-Set {:.1}%, R-Set {:.1}%\n",
                stats.wall.as_secs_f64() * 1000.0,
                fa * 100.0,
                ra * 100.0
            )
        }
    };
    let report = format!("{resumed_line}{report}");
    Checkpoint::capture(fed.global(), &qd).save(&out)?;
    Ok(format!("{report}checkpoint written to {out}\n"))
}

/// Reads the serve front-end flags into a [`qd_serve::ServeConfig`].
/// The request universes come from the deployment itself (its class
/// count and client count), so every planned request is valid for it.
fn serve_config_from(
    args: &Args,
    classes: usize,
    clients: usize,
) -> Result<qd_serve::ServeConfig, CliError> {
    let weights = {
        let raw = args.get_str("weights", "1");
        raw.split(',')
            .map(|w| {
                w.trim()
                    .parse::<u64>()
                    .map_err(|_| CliError::Usage(format!("bad --weights entry {w:?}")))
            })
            .collect::<Result<Vec<u64>, CliError>>()?
    };
    let cfg = qd_serve::ServeConfig {
        tenants: args.get_usize("tenants", 3)?,
        arrival_requests: args.get_usize("arrival-requests", 8)?,
        arrival_gap_us: args.get_u64("arrival-gap-us", 1_000)?,
        queue_cap: args.get_usize("queue-cap", 16)?,
        coalesce: args.flag("coalesce"),
        max_batch: args.get_usize("max-batch", 4)?,
        weights,
        classes,
        clients,
        class_share: args.get_f32("class-share", 0.8)?,
        seed: args.get_u64("seed", 42)?,
        ..qd_serve::ServeConfig::default()
    };
    cfg.validate()
        .map_err(|msg| CliError::Usage(format!("bad serve option: {msg}")))?;
    Ok(cfg)
}

/// The `serve` subcommand: the multi-tenant unlearning-as-a-service
/// front end. Plans seeded arrival streams over the deployment, runs
/// them through the request journal (always on for this subcommand —
/// the service IS journal-driven), and reports SLA stats. A run killed
/// partway is continued by re-invoking the identical command line.
fn service(args: &Args) -> Result<String, CliError> {
    let dataset = dataset_by_name(&args.get_str("dataset", "digits"))?;
    let path = args.require_str("ckpt")?;
    let out = args.get_str("out", &path);
    let seed = args.get_u64("seed", 42)?;

    let (params, mut qd) = Checkpoint::load(&path)?.restore()?;
    let model = model_for(dataset);
    let mut fed = stub_federation(model.clone(), &qd, params);
    let classes = qd.synthetic_sets()[0].classes();
    let clients = qd.synthetic_sets().len();
    let cfg = serve_config_from(args, classes, clients)?;
    let policy = guard_policy_from(args)?;
    let iso = isolation_config_from(args)?;
    let mut rng = Rng::seed_from(seed ^ 0x5EED);

    // The service always journals: progress counting and crash recovery
    // both live in the journal. `--journal` only picks the location.
    let journal_path = journal_path_from(args, &path)
        .unwrap_or_else(|| RequestJournal::path_for_checkpoint(&path));
    let mut journal = RequestJournal::open(&journal_path)?;
    // Under failure isolation the executor resumes in-flight units
    // itself (it must re-derive the retry-ladder rung before anything
    // executes); the plain resume here would finish them under the
    // base policy.
    let resumed_line = if iso.active() {
        String::new()
    } else {
        qd.resume_requests(&mut fed, &mut journal, policy.as_ref(), &mut rng)
            .map_err(CliError::from)?
            .map(|_| "finished an in-flight service unit from the journal\n".to_string())
            .unwrap_or_default()
    };

    let run = qd_serve::run_service(
        &mut qd,
        &mut fed,
        &mut journal,
        &cfg,
        policy.as_ref(),
        &mut rng,
        Some(&iso),
    )
    .map_err(CliError::from)?;
    Checkpoint::capture(fed.global(), &qd).save(&out)?;

    let stats = &run.stats;
    let stats_line = if args.has_option("stats-out") {
        let stats_out = args.get_str("stats-out", "");
        stats.save_json(std::path::Path::new(&stats_out))?;
        format!("stats written to {stats_out}\n")
    } else {
        String::new()
    };
    let resumed_units_line = if run.resumed_units > 0 {
        format!(
            "resumed past {} already-journaled service unit(s)\n",
            run.resumed_units
        )
    } else {
        String::new()
    };
    let degraded_line = if iso.active() {
        format!(
            "degraded mode: {} quarantined (dead-letter), {} shed by breakers; \
             {} unit(s) retried, {} bisected; breakers [{}]\n",
            stats.quarantined,
            stats.shed,
            stats.retried_units,
            stats.bisected_units,
            stats.breaker.join(", "),
        )
    } else {
        String::new()
    };
    Ok(format!(
        "served {} of {} offered requests from {} tenant(s) in {} unit(s) \
         (coalesce ratio {:.2}); rejected {}\n\
         virtual latency p50 {} µs, p99 {} µs; {:.1} req/s over {} µs\n\
         {degraded_line}{resumed_line}{resumed_units_line}{stats_line}checkpoint written to {out}\n",
        stats.served,
        stats.offered,
        stats.tenants,
        stats.batches,
        stats.coalesce_ratio,
        stats.rejected,
        stats.p50_latency_us,
        stats.p99_latency_us,
        stats.throughput_rps,
        stats.makespan_us,
    ))
}

/// `chaos`: deterministic whole-system fault orchestration. Without
/// `--replay`, generates and executes `--runs` seeded schedules; the
/// first invariant violation is (optionally shrunk and) written as a
/// replayable reproducer, and the command exits nonzero. With
/// `--replay FILE`, re-executes a stored reproducer and demands the
/// identical violation byte-for-byte.
fn chaos(args: &Args) -> Result<String, CliError> {
    if args.has_option("replay") {
        return chaos_replay(&args.get_str("replay", ""));
    }
    let seed = args.get_u64("seed", 7)?;
    let runs = args.get_u64("runs", 10)?;
    let mut harness = qd_chaos::Harness::new();
    let mut faults_fired = 0u64;
    let mut invariants_checked = 0u64;
    for run in 0..runs {
        let schedule = qd_chaos::ChaosSchedule::generate(seed, run);
        let report = harness
            .run(&schedule)
            .map_err(|e| CliError::Usage(e.to_string()))?;
        faults_fired += report.faults_fired;
        invariants_checked += report.invariants_checked;
        if let Some(violation) = report.violations.first() {
            let repro = if args.flag("shrink") {
                qd_chaos::shrink(&mut harness, &schedule, violation)
                    .map_err(|e| CliError::Usage(e.to_string()))?
            } else {
                qd_chaos::Repro {
                    schedule: schedule.clone(),
                    violation: violation.clone(),
                }
            };
            let out = args.get_str("repro-out", "chaos-repro.json");
            std::fs::write(&out, repro.to_json().map_err(CliError::Usage)?)?;
            return Err(CliError::Usage(format!(
                "chaos run {run} of seed {seed} violated {}: {}\nreproducer written to {out}",
                repro.violation.invariant, repro.violation.detail
            )));
        }
    }
    Ok(format!(
        "{runs} chaos run(s) of seed {seed} completed: {faults_fired} fault(s) fired, \
         {invariants_checked} invariant check(s), 0 violations\n"
    ))
}

fn chaos_replay(path: &str) -> Result<String, CliError> {
    let text = std::fs::read_to_string(path)?;
    let repro = qd_chaos::Repro::from_json(&text).map_err(CliError::Usage)?;
    let mut harness = qd_chaos::Harness::new();
    let report = harness
        .run(&repro.schedule)
        .map_err(|e| CliError::Usage(e.to_string()))?;
    let replayed = report
        .violations
        .iter()
        .find(|v| v.invariant == repro.violation.invariant);
    match replayed {
        Some(v) if *v == repro.violation => Ok(format!(
            "replayed {}: {}\nviolation reproduced byte-for-byte\n",
            v.invariant, v.detail
        )),
        Some(v) => Err(CliError::Usage(format!(
            "violation drifted under replay:\n  stored:   {}\n  replayed: {}",
            repro.violation.detail, v.detail
        ))),
        None => Err(CliError::Usage(format!(
            "stored violation of {} did not reproduce",
            repro.violation.invariant
        ))),
    }
}

fn eval(args: &Args) -> Result<String, CliError> {
    let dataset = dataset_by_name(&args.get_str("dataset", "digits"))?;
    let path = args.require_str("ckpt")?;
    let seed = args.get_u64("seed", 42)?;
    let (params, qd) = Checkpoint::load(&path)?.restore()?;
    let model = model_for(dataset);
    let test = dataset.generate(
        args.get_usize("samples", 400)?,
        &mut Rng::seed_from(seed + 1),
    );
    let pc = per_class_accuracy(model.as_ref(), &params, &test);
    let mut out = String::from("per-class accuracy:\n");
    for (c, a) in pc.iter().enumerate() {
        let marker = if qd.unlearned_classes().any(|u| u == c) {
            " (unlearned)"
        } else {
            ""
        };
        out.push_str(&format!("  class {c}: {:>5.1}%{marker}\n", a * 100.0));
    }
    Ok(out)
}

fn show(args: &Args) -> Result<String, CliError> {
    let path = args.require_str("ckpt")?;
    let client = args.get_usize("client", 0)?;
    let limit = args.get_usize("limit", 5)?;
    let (_, qd) = Checkpoint::load(&path)?.restore()?;
    let sets = qd.synthetic_sets();
    if client >= sets.len() {
        return Err(CliError::Usage(format!(
            "client {client} out of range (deployment has {} clients)",
            sets.len()
        )));
    }
    let ds = sets[client].to_dataset();
    Ok(format!(
        "client {client}: {} synthetic samples across classes {:?}\n{}",
        ds.len(),
        sets[client].owned_classes(),
        ascii_samples(&ds, limit)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("qd_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&args(&["help"])).unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn unknown_subcommand_errors_with_usage() {
        let err = run(&args(&["frobnicate"])).unwrap_err();
        assert!(err.to_string().contains("unknown subcommand"));
    }

    #[test]
    fn unlearn_requires_exactly_one_target() {
        let err = request_from(&args(&["unlearn", "--ckpt", "x"])).unwrap_err();
        assert!(err.to_string().contains("exactly one"));
        let err = request_from(&args(&["unlearn", "--class", "1", "--client", "2"])).unwrap_err();
        assert!(err.to_string().contains("exactly one"));
        let ok = request_from(&args(&["unlearn", "--class", "3"])).unwrap();
        assert_eq!(ok, UnlearnRequest::Class(3));
    }

    #[test]
    fn full_cli_lifecycle() {
        let ckpt = tmp("lifecycle.json");
        // Tiny but real: train -> show -> unlearn -> eval -> relearn.
        let out = run(&args(&[
            "train",
            "--out",
            &ckpt,
            "--clients",
            "2",
            "--samples",
            "200",
            "--rounds",
            "3",
            "--steps",
            "4",
            "--scale",
            "20",
            "--iid",
            "--seed",
            "7",
        ]))
        .unwrap();
        assert!(out.contains("checkpoint written"));

        let out = run(&args(&["show", "--ckpt", &ckpt, "--limit", "2"])).unwrap();
        assert!(out.contains("synthetic samples"));

        let out = run(&args(&[
            "unlearn", "--ckpt", &ckpt, "--class", "3", "--seed", "7",
        ]))
        .unwrap();
        assert!(out.contains("unlearned class 3"));

        let out = run(&args(&["eval", "--ckpt", &ckpt, "--seed", "7"])).unwrap();
        assert!(out.contains("class 3") && out.contains("(unlearned)"));

        let out = run(&args(&[
            "relearn", "--ckpt", &ckpt, "--class", "3", "--seed", "7",
        ]))
        .unwrap();
        assert!(out.contains("relearned class 3"));
        std::fs::remove_file(&ckpt).ok();
    }

    #[test]
    fn guard_flags_build_a_policy() {
        // No guard flag: serving stays on the unguarded path.
        assert!(guard_policy_from(&args(&["unlearn"])).unwrap().is_none());
        // Any one flag opts in; the others keep library defaults.
        let p = guard_policy_from(&args(&["unlearn", "--retain-probe", "2.5"]))
            .unwrap()
            .expect("guard requested");
        assert_eq!(p.drift_budget, DEFAULT_DRIFT_BUDGET);
        assert_eq!(p.retain_probe, 2.5);
        assert_eq!(p.ascent_retries, 3);
        let p = guard_policy_from(&args(&[
            "unlearn",
            "--drift-budget",
            "0.8",
            "--ascent-retries",
            "5",
        ]))
        .unwrap()
        .expect("guard requested");
        assert_eq!(p.drift_budget, 0.8);
        assert_eq!(p.ascent_retries, 5);
        // Library validation verdicts surface as usage errors.
        for bad in [
            vec!["unlearn", "--drift-budget", "-1"],
            vec!["unlearn", "--retain-probe", "nan"],
            vec!["unlearn", "--ascent-retries", "99"],
        ] {
            let err = guard_policy_from(&args(&bad)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{bad:?}");
        }
    }

    #[test]
    fn journal_path_derives_from_checkpoint_when_bare() {
        assert_eq!(journal_path_from(&args(&["unlearn"]), "d.json"), None);
        assert_eq!(
            journal_path_from(&args(&["unlearn", "--journal"]), "d.json"),
            Some(std::path::PathBuf::from("d.json.journal"))
        );
        assert_eq!(
            journal_path_from(&args(&["unlearn", "--journal", "w.journal"]), "d.json"),
            Some(std::path::PathBuf::from("w.journal"))
        );
    }

    #[test]
    fn guarded_journaled_lifecycle() {
        let ckpt = tmp("guarded_lifecycle.json");
        let journal = format!("{ckpt}.journal");
        std::fs::remove_file(&journal).ok();
        run(&args(&[
            "train",
            "--out",
            &ckpt,
            "--clients",
            "2",
            "--samples",
            "200",
            "--rounds",
            "3",
            "--steps",
            "4",
            "--scale",
            "20",
            "--iid",
            "--seed",
            "7",
        ]))
        .unwrap();

        // Guarded + journaled serving reports the guard's verdict and
        // leaves a durable trace next to the checkpoint.
        let out = run(&args(&[
            "unlearn",
            "--ckpt",
            &ckpt,
            "--class",
            "3",
            "--seed",
            "7",
            "--drift-budget",
            "2.0",
            "--journal",
        ]))
        .unwrap();
        assert!(out.contains("unlearned class 3"), "{out}");
        assert!(out.contains("guard: 1 attempt(s), 0 rollback(s)"), "{out}");
        let j = RequestJournal::open(&journal).unwrap();
        assert_eq!(j.records().len(), 3, "RECEIVED/UNLEARNED/RECOVERED");

        // The next invocation picks the stream up from the journal.
        let out = run(&args(&[
            "relearn",
            "--ckpt",
            &ckpt,
            "--class",
            "3",
            "--seed",
            "7",
            "--journal",
        ]))
        .unwrap();
        assert!(out.contains("relearned class 3"), "{out}");
        let j = RequestJournal::open(&journal).unwrap();
        assert_eq!(j.records().len(), 4);
        std::fs::remove_file(&ckpt).ok();
        std::fs::remove_file(&journal).ok();
    }

    #[test]
    fn serve_runs_a_multi_tenant_mix_and_reports_sla() {
        let ckpt = tmp("serve_cmd.json");
        let journal = format!("{ckpt}.journal");
        let stats_out = tmp("serve_cmd_stats.json");
        std::fs::remove_file(&journal).ok();
        std::fs::remove_file(&stats_out).ok();
        run(&args(&[
            "train",
            "--out",
            &ckpt,
            "--clients",
            "2",
            "--samples",
            "200",
            "--rounds",
            "3",
            "--steps",
            "4",
            "--scale",
            "20",
            "--iid",
            "--seed",
            "7",
        ]))
        .unwrap();

        let serve_args = [
            "serve",
            "--ckpt",
            &ckpt,
            "--tenants",
            "2",
            "--arrival-requests",
            "2",
            "--arrival-gap-us",
            "300",
            "--queue-cap",
            "8",
            "--coalesce",
            "--max-batch",
            "2",
            "--seed",
            "11",
            "--drift-budget",
            "64",
            "--stats-out",
            &stats_out,
        ];
        let out = run(&args(&serve_args)).unwrap();
        assert!(out.contains("served 4 of 4 offered requests"), "{out}");
        assert!(out.contains("p50"), "{out}");
        assert!(out.contains("stats written"), "{out}");
        let text = std::fs::read_to_string(&stats_out).unwrap();
        assert!(text.contains("coalesce_ratio"), "{text}");

        // The journal certifies every request; re-invoking the identical
        // command line finds the plan complete and redoes nothing.
        let j = RequestJournal::open(&journal).unwrap();
        let recovered_before = j.records().len();
        assert!(recovered_before > 0);
        let out = run(&args(&serve_args)).unwrap();
        assert!(out.contains("already-journaled"), "{out}");
        let j = RequestJournal::open(&journal).unwrap();
        assert_eq!(j.records().len(), recovered_before, "idempotent re-run");

        std::fs::remove_file(&ckpt).ok();
        std::fs::remove_file(&journal).ok();
        std::fs::remove_file(&stats_out).ok();
    }

    #[test]
    fn serve_flags_are_validated() {
        let ckpt = tmp("serve_bad.json");
        run(&args(&[
            "train",
            "--out",
            &ckpt,
            "--clients",
            "2",
            "--samples",
            "120",
            "--rounds",
            "2",
            "--steps",
            "2",
            "--scale",
            "20",
            "--iid",
            "--seed",
            "3",
        ]))
        .unwrap();
        for bad in [
            vec!["serve", "--ckpt", &ckpt, "--tenants", "0"],
            vec!["serve", "--ckpt", &ckpt, "--queue-cap", "0"],
            vec!["serve", "--ckpt", &ckpt, "--class-share", "1.5"],
            vec!["serve", "--ckpt", &ckpt, "--weights", "1,x"],
        ] {
            let err = run(&args(&bad)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{bad:?}");
        }
        std::fs::remove_file(&ckpt).ok();
        std::fs::remove_file(format!("{ckpt}.journal")).ok();
    }

    #[test]
    fn net_flags_build_a_config() {
        let a = args(&[
            "train",
            "--out",
            "x",
            "--net-latency-ms",
            "20",
            "--net-bandwidth-mbps",
            "100",
            "--dropout-prob",
            "0.1",
            "--loss-prob",
            "0.05",
            "--net-seed",
            "9",
            "--quantized",
            "--retry-max",
            "4",
            "--retry-backoff-ms",
            "25",
            "--round-deadline-ms",
            "900",
            "--hedge-after-ms",
            "300",
        ]);
        let net = net_config_from(&a).unwrap();
        assert_eq!(net.latency_ms, 20.0);
        assert_eq!(net.bandwidth_mbps, 100.0);
        assert_eq!(net.dropout_prob, 0.1);
        assert_eq!(net.loss_prob, 0.05);
        assert_eq!(net.seed, 9);
        assert!(net.quantized);
        assert!(!net.is_ideal());
        assert_eq!(net.retry.max_attempts, 4);
        assert_eq!(net.retry.base_backoff_ms, 25.0);
        assert_eq!(net.retry.deadline_ms, 900.0);
        assert_eq!(net.retry.hedge_after_ms, 300.0);
        assert!(net.retry.is_active());
        // Defaults stay ideal so the loopback fast path is kept, with
        // the passive retry policy that never wraps the transport.
        let defaults = net_config_from(&args(&["train"])).unwrap();
        assert!(defaults.is_ideal());
        assert!(!defaults.retry.is_active());
    }

    #[test]
    fn out_of_range_net_probabilities_are_usage_errors() {
        for bad in [
            vec!["train", "--dropout-prob", "1.0"],
            vec!["train", "--loss-prob", "-0.1"],
            vec!["train", "--straggler-frac", "2"],
            vec!["train", "--net-latency-ms", "-5"],
            vec!["train", "--retry-max", "0"],
            vec![
                "train",
                "--round-deadline-ms",
                "10",
                "--retry-backoff-ms",
                "50",
            ],
            vec![
                "train",
                "--round-deadline-ms",
                "100",
                "--hedge-after-ms",
                "100",
            ],
        ] {
            let err = net_config_from(&args(&bad)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{bad:?}");
        }
    }

    #[test]
    fn train_over_simulated_network_reports_wire_costs() {
        let ckpt = tmp("netsim.json");
        let out = run(&args(&[
            "train",
            "--out",
            &ckpt,
            "--clients",
            "2",
            "--samples",
            "120",
            "--rounds",
            "2",
            "--steps",
            "2",
            "--scale",
            "20",
            "--iid",
            "--seed",
            "3",
            "--net-latency-ms",
            "15",
            "--net-bandwidth-mbps",
            "50",
            "--loss-prob",
            "0.05",
        ]))
        .unwrap();
        assert!(out.contains("network:"), "{out}");
        assert!(out.contains("simulated"), "{out}");
        std::fs::remove_file(&ckpt).ok();
    }

    #[test]
    fn bad_dataset_is_reported() {
        let err = run(&args(&[
            "train",
            "--out",
            "/tmp/x.json",
            "--dataset",
            "imagenet",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("unknown dataset"));
    }

    #[test]
    fn bad_aggregator_and_byzantine_frac_are_usage_errors() {
        let err = run(&args(&["train", "--out", "x", "--aggregator", "krum"])).unwrap_err();
        assert!(err.to_string().contains("unknown aggregator"), "{err}");
        let err = run(&args(&["train", "--out", "x", "--byzantine-frac", "1.0"])).unwrap_err();
        assert!(err.to_string().contains("byzantine-frac"), "{err}");
    }

    #[test]
    fn preempted_training_resumes_to_the_uninterrupted_result() {
        let flags = |out: &str| -> Vec<String> {
            [
                "train",
                "--out",
                out,
                "--clients",
                "2",
                "--samples",
                "120",
                "--rounds",
                "4",
                "--steps",
                "2",
                "--scale",
                "20",
                "--iid",
                "--seed",
                "5",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect()
        };
        let uninterrupted = tmp("resume_ref.json");
        run(&Args::parse(flags(&uninterrupted)).unwrap()).unwrap();

        // Same run, killed after round 3 (last checkpoint: round 2).
        let interrupted = tmp("resume_cut.json");
        let mut cut = flags(&interrupted);
        cut.extend(["--checkpoint-every", "2", "--preempt-after", "3"].map(String::from));
        let out = run(&Args::parse(cut).unwrap()).unwrap();
        assert!(out.contains("preempted after 3 rounds"), "{out}");

        let mut resume = flags(&interrupted);
        resume.push("--resume".to_string());
        let out = run(&Args::parse(resume).unwrap()).unwrap();
        assert!(out.contains("checkpoint written"), "{out}");

        let (params_ref, _) = Checkpoint::load(&uninterrupted).unwrap().restore().unwrap();
        let (params_res, _) = Checkpoint::load(&interrupted).unwrap().restore().unwrap();
        for (a, b) in params_ref.iter().zip(&params_res) {
            for (u, v) in a.data().iter().zip(b.data()) {
                assert_eq!(u.to_bits(), v.to_bits(), "kill+resume diverged");
            }
        }
        std::fs::remove_file(&uninterrupted).ok();
        std::fs::remove_file(&interrupted).ok();
    }

    #[test]
    fn storage_failures_render_actionable_messages() {
        use qd_core::{Fault, FaultFs, Vfs as _};
        use std::path::Path;

        // Disk-full during a journal append surfaces the operation, the
        // segment path, and what to do — end to end through the
        // io::Error conversions the command paths use.
        let fs = std::sync::Arc::new(FaultFs::new());
        fs.set_capacity(8); // room for the 5-byte marker, not a record
        let mut journal = RequestJournal::open_on(fs.clone(), "svc.journal").unwrap();
        let record = qd_core::JournalRecord {
            seq: 0,
            request: UnlearnRequest::Class(1),
            state: qd_core::RequestState::Received,
            rng: Rng::seed_from(1).state(),
            global: Vec::new(),
            guard: None,
            batch: None,
            reason: None,
        };
        let err = CliError::Io(journal.append(record).unwrap_err());
        let msg = err.to_string();
        assert!(msg.contains("svc.journal.seg-000000"), "{msg}");
        assert!(msg.contains("appending to"), "{msg}");
        assert!(msg.contains("free space"), "{msg}");

        // A failed fsync names the file and warns about durability.
        let fs = FaultFs::new();
        fs.write(Path::new("deployment.json"), b"x").unwrap();
        fs.schedule_fault(1, Fault::FsyncFail);
        let storage = fs.fsync(Path::new("deployment.json")).unwrap_err();
        let msg = CliError::Io(storage.into()).to_string();
        assert!(msg.contains("fsyncing"), "{msg}");
        assert!(msg.contains("deployment.json"), "{msg}");
        assert!(msg.contains("may not be durable"), "{msg}");

        // Plain I/O errors keep their ordinary rendering.
        let plain = CliError::Io(std::io::Error::new(std::io::ErrorKind::NotFound, "plain"));
        assert_eq!(plain.to_string(), "plain");
    }

    #[test]
    fn robust_aggregator_flag_reaches_the_training_phase() {
        let ckpt = tmp("median_agg.json");
        let out = run(&args(&[
            "train",
            "--out",
            &ckpt,
            "--clients",
            "3",
            "--samples",
            "120",
            "--rounds",
            "2",
            "--steps",
            "2",
            "--scale",
            "20",
            "--iid",
            "--seed",
            "11",
            "--aggregator",
            "median",
            "--quorum",
            "2",
            "--byzantine-frac",
            "0.3",
        ]))
        .unwrap();
        assert!(out.contains("checkpoint written"), "{out}");
        // The model survives the Byzantine minority under a robust rule.
        let (params, _) = Checkpoint::load(&ckpt).unwrap().restore().unwrap();
        assert!(params.iter().all(qd_tensor::Tensor::all_finite));
        std::fs::remove_file(&ckpt).ok();
    }
}
