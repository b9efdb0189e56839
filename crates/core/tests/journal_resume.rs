//! Journal acceptance: a request stream killed at every journal state
//! boundary (after RECEIVED, after UNLEARNED, after RECOVERED) resumes
//! from the deployment checkpoint + journal and reproduces the
//! uninterrupted run bit-for-bit — final model bits, RNG stream, and the
//! persisted `GuardStats` counters. A lone request is served as a batch
//! of one; the unbatched tails older builds wrote still resume.
//!
//! Every run lives on an in-memory `FaultFs`. A kill "right after a
//! boundary" is a storage kill at the first op after the fsync that
//! made the boundary's frame durable, located in the uninterrupted
//! run's op log.

use qd_core::{
    Checkpoint, FaultFs, JournalError, JournalRecord, QuickDrop, QuickDropConfig, RequestJournal,
    RequestState, Vfs, VfsOp,
};
use qd_data::{partition_iid, SyntheticDataset};
use qd_fed::{Federation, Phase};
use qd_nn::{Mlp, Module};
use qd_tensor::rng::Rng;
use qd_tensor::Tensor;
use qd_unlearn::{GuardPolicy, UnlearnRequest};
use std::path::PathBuf;
use std::sync::Arc;

fn fresh_fed() -> (Federation, Rng) {
    let mut rng = Rng::seed_from(42);
    let model: Arc<dyn Module> = Arc::new(Mlp::new(&[256, 16, 10]));
    let data = SyntheticDataset::Digits.generate(240, &mut rng);
    let parts = partition_iid(data.len(), 3, &mut rng);
    let clients = parts.iter().map(|p| data.subset(p)).collect();
    let fed = Federation::new(model, clients, &mut rng);
    (fed, rng)
}

fn config() -> QuickDropConfig {
    let mut cfg = QuickDropConfig::scaled_test();
    cfg.train_phase = Phase::training(6, 3, 16, 0.1);
    cfg
}

fn policy() -> GuardPolicy {
    // QuickDrop's adaptive multi-round ascent drifts ~0.6 on this tiny
    // model — above the 0.5 default meant for single-round SGA — so give
    // the clean run headroom while keeping a real budget in force.
    GuardPolicy {
        drift_budget: 1.0,
        ..GuardPolicy::default()
    }
}

const REQUESTS: [UnlearnRequest; 2] = [UnlearnRequest::Class(3), UnlearnRequest::Class(7)];

fn assert_bit_identical(a: &[Tensor], b: &[Tensor]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        for (u, v) in x.data().iter().zip(y.data()) {
            assert_eq!(u.to_bits(), v.to_bits(), "parameters diverged");
        }
    }
}

fn assert_same_records(reference: &[JournalRecord], resumed: &[JournalRecord]) {
    assert_eq!(reference.len(), resumed.len(), "journal length diverged");
    for (a, b) in reference.iter().zip(resumed) {
        assert_eq!(a.seq, b.seq);
        assert_eq!(a.request, b.request);
        assert_eq!(a.state, b.state);
        assert_eq!(a.batch, b.batch);
        assert_eq!(a.rng, b.rng, "RNG stream diverged at {} {}", a.seq, a.state);
        assert_eq!(
            a.guard, b.guard,
            "guard stats diverged at {} {}",
            a.seq, a.state
        );
        assert_bit_identical(&a.global, &b.global);
    }
}

fn ckpt_path() -> PathBuf {
    PathBuf::from("deployment.json")
}

fn open_journal(fs: &Arc<FaultFs>) -> RequestJournal {
    let vfs: Arc<dyn Vfs> = Arc::clone(fs) as Arc<dyn Vfs>;
    RequestJournal::open_on(vfs, RequestJournal::path_for_checkpoint(ckpt_path())).unwrap()
}

/// A fresh process on `fs`: train, save the deployment checkpoint, open
/// the journal.
fn deploy(fs: &Arc<FaultFs>) -> (QuickDrop, Federation, Rng, RequestJournal) {
    let (mut fed, mut rng) = fresh_fed();
    let (qd, _) = QuickDrop::train(&mut fed, config(), &mut rng);
    Checkpoint::capture(fed.global(), &qd)
        .save_on(fs.as_ref(), &ckpt_path())
        .unwrap();
    let journal = open_journal(fs);
    (qd, fed, rng, journal)
}

/// A fault-free run: its final model, its journal, its filesystem and
/// its op log.
struct Reference {
    global: Vec<Tensor>,
    journal: RequestJournal,
    fs: Arc<FaultFs>,
    log: Vec<(VfsOp, PathBuf)>,
}

/// Runs `serve` on a fresh deployment killed right after `boundary`
/// (the record whose frame must be the last one durable) and crashes
/// the machine; asserts the reopened journal ends in exactly that
/// frame — `len` records of `reference`.
fn kill_after(
    reference: &Reference,
    boundary: usize,
    len: usize,
    serve: impl FnOnce(&mut QuickDrop, &mut Federation, &mut Rng, &mut RequestJournal),
) -> Arc<FaultFs> {
    let op = reference
        .journal
        .kill_after(&reference.log, boundary)
        .expect("the boundary is in the reference log");
    let fs = Arc::new(FaultFs::new());
    let (mut qd, mut fed, mut rng, mut journal) = deploy(&fs);
    fs.kill_at(op);
    serve(&mut qd, &mut fed, &mut rng, &mut journal);
    // Either the kill fired, or the boundary was the run's last op and
    // the crash comes right after the call.
    assert!(
        fs.pending_faults() == 0 || fs.op_count() == op,
        "the kill at op {op} must fire or follow the run"
    );
    fs.crash();
    let killed = open_journal(&fs);
    assert_same_records(&reference.journal.records()[..len], killed.records());
    fs
}

/// The uninterrupted run: train, serve both requests journaled, relearn
/// the first.
fn uninterrupted() -> Reference {
    let fs = Arc::new(FaultFs::new());
    let (mut qd, mut fed, mut rng, mut journal) = deploy(&fs);
    for request in REQUESTS {
        let outcome = qd
            .serve_batch_journaled(
                &mut fed,
                &mut journal,
                &[request],
                Some(&policy()),
                &mut rng,
            )
            .unwrap();
        let stats = outcome.guard.expect("guarded serving attaches stats");
        assert_eq!(stats.steps, 1, "clean serving needs one attempt");
        assert_eq!(stats.rollbacks, 0);
        assert!(stats.final_drift > 0.0);
    }
    let relearn_phase = qd.config().relearn_phase;
    qd.relearn_journaled(
        &mut fed,
        &mut journal,
        REQUESTS[0],
        &relearn_phase,
        &mut rng,
    )
    .unwrap();
    Reference {
        global: fed.global().to_vec(),
        journal,
        log: fs.op_log(),
        fs,
    }
}

/// Process A: serve the first request as a batch of one and die right
/// after the frame of record `boundary` (the first `len` records).
fn serve_first_until(reference: &Reference, boundary: usize, len: usize) -> Arc<FaultFs> {
    kill_after(reference, boundary, len, |qd, fed, rng, journal| {
        // The kill surfaces as an error, or not at all when nothing
        // follows the boundary inside the call.
        let _ = qd.serve_batch_journaled(fed, journal, &REQUESTS[..1], Some(&policy()), rng);
    })
}

/// Kill right after record `boundary` while serving the first request,
/// then resume in a "fresh process" and finish the stream identically.
fn kill_and_resume(boundary: usize, state: RequestState, reference: &Reference) {
    let fs = serve_first_until(reference, boundary, boundary + 1);
    assert_eq!(open_journal(&fs).last().unwrap().state, state);

    // Process B: everything rebuilt from the seed; model, RNG and request
    // progress all come from the checkpoint + journal.
    let (mut fed, mut rng) = fresh_fed();
    let vfs: Arc<dyn Vfs> = Arc::clone(&fs) as Arc<dyn Vfs>;
    let (mut qd, mut journal, finished) =
        QuickDrop::recover_deployment_on(vfs, ckpt_path(), &mut fed, Some(&policy()), &mut rng)
            .unwrap();
    match state {
        RequestState::Recovered | RequestState::Relearned => {
            assert!(finished.is_none(), "nothing was in flight");
        }
        _ => {
            let outcome = finished.expect("resume finishes the in-flight request");
            assert_eq!(
                outcome
                    .guard
                    .expect("stats persisted across the kill")
                    .rollbacks,
                0
            );
        }
    }
    assert_eq!(journal.last().unwrap().state, RequestState::Recovered);

    // Finish the stream exactly as the uninterrupted run did.
    qd.serve_batch_journaled(
        &mut fed,
        &mut journal,
        &REQUESTS[1..],
        Some(&policy()),
        &mut rng,
    )
    .unwrap();
    let relearn_phase = qd.config().relearn_phase;
    qd.relearn_journaled(
        &mut fed,
        &mut journal,
        REQUESTS[0],
        &relearn_phase,
        &mut rng,
    )
    .unwrap();

    assert_bit_identical(&reference.global, fed.global());
    assert_same_records(reference.journal.records(), journal.records());
}

#[test]
fn killed_request_stream_resumes_bit_for_bit_at_every_boundary() {
    let reference = uninterrupted();
    assert_eq!(
        reference
            .journal
            .records()
            .iter()
            .map(|r| (r.seq, r.state, r.batch.map(|b| b.0)))
            .collect::<Vec<_>>(),
        vec![
            (0, RequestState::Received, Some(0)),
            (0, RequestState::Unlearned, Some(0)),
            (0, RequestState::Recovered, Some(0)),
            (1, RequestState::Received, Some(1)),
            (1, RequestState::Unlearned, Some(1)),
            (1, RequestState::Recovered, Some(1)),
            (0, RequestState::Relearned, None),
        ],
        "journal must trace the full state machine, each request a unit of one"
    );
    // The journal survives a reopen byte-for-byte.
    let reopened = open_journal(&reference.fs);
    assert_same_records(reference.journal.records(), reopened.records());

    // Kill right after the first request's RECEIVED, UNLEARNED and
    // RECOVERED records (journal indices 0, 1, 2).
    for (boundary, state) in [
        (0, RequestState::Received),
        (1, RequestState::Unlearned),
        (2, RequestState::Recovered),
    ] {
        kill_and_resume(boundary, state, &reference);
    }
}

#[test]
fn journal_rejects_corrupt_and_foreign_files() {
    let dir = std::env::temp_dir().join("qd_journal_resume_test");
    std::fs::create_dir_all(&dir).unwrap();
    let cases = [
        ("garbage.journal", "not json", "corrupt or truncated"),
        (
            "no_version.journal",
            "{\"records\": []}",
            "no version field",
        ),
        (
            "future.journal",
            "{\"version\": 99, \"records\": []}",
            "reads only version",
        ),
    ];
    for (name, contents, needle) in cases {
        let path = dir.join(name);
        std::fs::write(&path, contents).unwrap();
        let err = RequestJournal::open(&path).expect_err("bad journal must not open");
        assert!(
            matches!(err, JournalError::Format { .. }),
            "{name}: {err:?} should be a Format error"
        );
        let msg = err.to_string();
        assert!(msg.contains(needle), "{name}: {msg:?}");
        assert!(msg.contains(name), "{name}: {msg:?} should name the file");
        // The io::Error conversion keeps the InvalidData classification
        // older callers matched on.
        let io: std::io::Error = err.into();
        assert_eq!(io.kind(), std::io::ErrorKind::InvalidData, "{name}");
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn journal_rejects_unknown_future_state_tags() {
    let dir = std::env::temp_dir().join("qd_journal_resume_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("future_state.journal");
    // A structurally valid journal whose record is in a state only a
    // newer build's state machine knows. Replaying it as if the record
    // did not exist would silently drop a durable transition, so open()
    // must refuse with the typed forward-compat error.
    std::fs::write(
        &path,
        "{\"version\": 2, \"records\": [{\"seq\": 7, \"state\": \"Vaporized\"}]}",
    )
    .unwrap();
    let err = RequestJournal::open(&path).expect_err("unknown state tag must not open");
    let JournalError::UnknownState { seq, ref tag, .. } = err else {
        panic!("expected UnknownState, got {err:?}");
    };
    assert_eq!(seq, 7);
    assert_eq!(tag, "Vaporized");
    assert!(err.to_string().contains("Vaporized"), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn version_one_journals_still_open() {
    let dir = std::env::temp_dir().join("qd_journal_resume_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("v1_empty.journal");
    std::fs::write(&path, "{\"version\": 1, \"records\": []}").unwrap();
    let journal = RequestJournal::open(&path).expect("v1 journals must load");
    assert!(journal.records().is_empty());
    std::fs::remove_file(&path).ok();
}

/// Coalesced members run ascent back-to-back with no recovery in
/// between, so the second member's drift (measured against the state
/// after the first ascent) lands above the sequential budget; give the
/// clean batch run headroom while keeping a real budget in force.
fn batch_policy() -> GuardPolicy {
    GuardPolicy {
        drift_budget: 2.0,
        ..GuardPolicy::default()
    }
}

/// Uninterrupted coalesced batch of both requests: one RECEIVED set,
/// two UNLEARNED records, one shared recovery, one RECOVERED set.
fn uninterrupted_batch() -> Reference {
    let fs = Arc::new(FaultFs::new());
    let (mut qd, mut fed, mut rng, mut journal) = deploy(&fs);
    let outcome = qd
        .serve_batch_journaled(
            &mut fed,
            &mut journal,
            &REQUESTS,
            Some(&batch_policy()),
            &mut rng,
        )
        .unwrap();
    assert_eq!(outcome.unlearn.len(), REQUESTS.len());
    let stats = outcome.guard.expect("guarded serving attaches stats");
    assert_eq!(
        stats.steps as usize,
        REQUESTS.len(),
        "one attempt per member"
    );
    assert_eq!(stats.rollbacks, 0);
    Reference {
        global: fed.global().to_vec(),
        journal,
        log: fs.op_log(),
        fs,
    }
}

/// Kill mid-batch right after record `boundary`'s frame (the first
/// `len` records), resume in a fresh process, and the model, journal
/// and per-request terminal states must all match the unfailed batch
/// run bit-for-bit.
fn kill_and_resume_batch(boundary: usize, len: usize, reference: &Reference) {
    // Process A: train, checkpoint, die right after the boundary.
    let fs = kill_after(reference, boundary, len, |qd, fed, rng, journal| {
        let _ = qd.serve_batch_journaled(fed, journal, &REQUESTS, Some(&batch_policy()), rng);
    });

    // Process B: everything rebuilt from the seed; batch membership and
    // progress come entirely from the checkpoint + journal.
    let (mut fed, mut rng) = fresh_fed();
    let vfs: Arc<dyn Vfs> = Arc::clone(&fs) as Arc<dyn Vfs>;
    let (_qd, journal, finished) = QuickDrop::recover_deployment_on(
        vfs,
        ckpt_path(),
        &mut fed,
        Some(&batch_policy()),
        &mut rng,
    )
    .unwrap();
    if len == reference.journal.records().len() {
        assert!(finished.is_none(), "nothing was in flight");
    } else {
        assert!(finished.is_some(), "resume finishes the in-flight batch");
    }

    assert_bit_identical(&reference.global, fed.global());
    assert_same_records(reference.journal.records(), journal.records());
    // Every member ends fully served.
    for request in REQUESTS {
        let terminal = journal
            .records()
            .iter()
            .rev()
            .find(|r| r.request == request)
            .expect("member has records");
        assert_eq!(terminal.state, RequestState::Recovered, "{request}");
    }
}

#[test]
fn killed_batch_resumes_bit_for_bit_at_every_boundary() {
    let reference = uninterrupted_batch();
    assert_eq!(
        reference
            .journal
            .records()
            .iter()
            .map(|r| (r.seq, r.state, r.batch.map(|b| b.0)))
            .collect::<Vec<_>>(),
        vec![
            (0, RequestState::Received, Some(0)),
            (1, RequestState::Received, Some(0)),
            (0, RequestState::Unlearned, Some(0)),
            (1, RequestState::Unlearned, Some(0)),
            (0, RequestState::Recovered, Some(0)),
            (1, RequestState::Recovered, Some(0)),
        ],
        "batch journal: atomic RECEIVED set, per-member UNLEARNED, atomic RECOVERED set"
    );
    // The batch journal survives a reopen byte-for-byte (batch ids
    // round-trip).
    let reopened = open_journal(&reference.fs);
    assert_same_records(reference.journal.records(), reopened.records());
    assert_eq!(
        reopened.records()[0].batch,
        reference.journal.records()[0].batch
    );

    // Right after the RECEIVED set (records 0-1, located from its first
    // record), UNLEARNED 1 and 2 (records 2, 3) and the RECOVERED set
    // (records 4-5).
    for (boundary, len) in [(0, 2), (2, 3), (3, 4), (4, 6)] {
        kill_and_resume_batch(boundary, len, &reference);
    }
}

#[test]
fn relearn_of_an_unserved_request_is_rejected() {
    let fs = Arc::new(FaultFs::new());
    let (mut qd, mut fed, mut rng, mut journal) = deploy(&fs);
    let phase = qd.config().relearn_phase;
    let err = qd
        .relearn_journaled(&mut fed, &mut journal, REQUESTS[0], &phase, &mut rng)
        .expect_err("nothing recovered yet");
    assert!(err.to_string().contains("no recovered request"), "{err}");
}

#[test]
fn relearning_twice_is_rejected_and_changes_nothing() {
    let fs = Arc::new(FaultFs::new());
    let (mut qd, mut fed, mut rng, mut journal) = deploy(&fs);
    qd.serve_batch_journaled(
        &mut fed,
        &mut journal,
        &REQUESTS[..1],
        Some(&policy()),
        &mut rng,
    )
    .unwrap();
    let phase = qd.config().relearn_phase;
    qd.relearn_journaled(&mut fed, &mut journal, REQUESTS[0], &phase, &mut rng)
        .unwrap();
    let model = fed.global().to_vec();
    let records = journal.records().len();

    let err = qd
        .relearn_journaled(&mut fed, &mut journal, REQUESTS[0], &phase, &mut rng)
        .expect_err("the request is already relearned");
    let io: std::io::Error = match err {
        qd_core::ServeError::Io(io) => io,
        other => panic!("expected an I/O-class rejection, got {other}"),
    };
    assert_eq!(io.kind(), std::io::ErrorKind::InvalidData, "{io}");
    assert_bit_identical(&model, fed.global());
    assert_eq!(journal.records().len(), records, "nothing was appended");
}

/// The upgrade path for journals whose in-flight tail predates batch
/// ids: the same kill, with every record rewritten unbatched, resumes to
/// the bit-identical model and RNG stream, and the records the resume
/// writes stay unbatched.
#[test]
fn unbatched_tail_resumes_as_a_unit_of_one() {
    let reference = uninterrupted();
    // Right after the first request's RECEIVED and UNLEARNED records.
    for (boundary, name) in [(0, "received"), (1, "unlearned")] {
        let batched = serve_first_until(&reference, boundary, boundary + 1);

        // The same disk with every journal record rewritten unbatched.
        let legacy = Arc::new(FaultFs::new());
        let ckpt = batched.file(&ckpt_path()).expect("checkpoint survives");
        legacy.reset_to([(ckpt_path(), ckpt)].into_iter().collect());
        let killed = open_journal(&batched);
        let mut unbatched = open_journal(&legacy);
        for record in killed.records() {
            unbatched
                .append(JournalRecord {
                    batch: None,
                    ..record.clone()
                })
                .unwrap();
        }
        let copied = killed.records().len();

        let resume = |fs: &Arc<FaultFs>| {
            let (mut fed, mut rng) = fresh_fed();
            let vfs: Arc<dyn Vfs> = Arc::clone(fs) as Arc<dyn Vfs>;
            let (_qd, journal, finished) = QuickDrop::recover_deployment_on(
                vfs,
                ckpt_path(),
                &mut fed,
                Some(&policy()),
                &mut rng,
            )
            .unwrap();
            assert!(finished.is_some(), "{name}: the tail was in flight");
            (fed.global().to_vec(), rng.state(), journal)
        };
        let (model, rng, journal) = resume(&batched);
        let (legacy_model, legacy_rng, legacy_journal) = resume(&legacy);

        assert_bit_identical(&model, &legacy_model);
        assert_eq!(rng, legacy_rng, "{name}: RNG stream diverged");
        assert_eq!(journal.records().len(), legacy_journal.records().len());
        for (a, b) in journal.records().iter().zip(legacy_journal.records()) {
            assert_eq!((a.seq, a.request, a.state), (b.seq, b.request, b.state));
            assert_eq!(
                a.rng, b.rng,
                "{name}: RNG diverged at {} {}",
                a.seq, a.state
            );
            assert_eq!(a.guard, b.guard, "{name}: guard stats diverged");
            assert_bit_identical(&a.global, &b.global);
        }
        assert!(
            journal.records()[copied..]
                .iter()
                .all(|r| r.batch.is_some()),
            "{name}: a batch-of-one tail is finished batched"
        );
        assert!(
            legacy_journal.records()[copied..]
                .iter()
                .all(|r| r.batch.is_none()),
            "{name}: records written while finishing an unbatched tail stay unbatched"
        );
    }
}
