//! Durable unlearning-request journal.
//!
//! A deployment checkpoint (`Checkpoint`) captures the system *between*
//! requests; it says nothing about a request that was in flight when the
//! process died. The journal closes that gap: an append-only log next to
//! the checkpoint file records every request's progress through the
//! state machine
//!
//! ```text
//! RECEIVED → UNLEARNED → RECOVERED → (RELEARNED)
//! ```
//!
//! with, at each transition, the global parameters and RNG state at that
//! boundary. After a crash, [`QuickDrop::resume_requests`] restores the
//! model and RNG stream from the last record and finishes the incomplete
//! stages idempotently, so kill-and-resume mid-unlearn reproduces the
//! uninterrupted run bit-for-bit — the same guarantee the round
//! checkpointing of PR 2 gives mid-training.
//!
//! Since version 3 the journal is stored as checksummed, length-framed
//! commits in append-only segment files next to a small marker file
//! (see [`JOURNAL_VERSION`]), all driven through the [`crate::vfs::Vfs`]
//! syscall layer. An append costs one `append` + one `fsync` regardless
//! of journal length (versions 1–2 rewrote the whole file every time);
//! a crash mid-append tears at most the final commit, which the next
//! open repairs by truncating to the last valid record; and in-place
//! corruption is caught by a CRC32 per commit and surfaced as a typed
//! [`JournalError::CorruptRecord`] instead of a JSON parse failure.

use crate::vfs::{self, StdFs, StorageError, Vfs, VfsOp};
use crate::{Checkpoint, QuickDrop};
use qd_fed::{Federation, PhaseStats};
use qd_nn::relative_drift;
use qd_tensor::rng::{Rng, RngState};
use qd_tensor::Tensor;
use qd_unlearn::{
    check_attempt, probe_sample, GuardPolicy, GuardStats, GuardViolation, MethodOutcome,
    UnlearnError, UnlearnRequest,
};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Current journal format version.
///
/// Version 3 abandons the single JSON document of versions 1–2 for
/// checksummed, length-framed commits in append-only segment files: the
/// journal path itself holds only the [`JOURNAL_MAGIC`] marker bytes,
/// and the records live in sibling `<name>.seg-NNNNNN` files (see
/// [`segment_path`]). Each commit frame is
///
/// ```text
/// len: u32le | crc32(body): u32le | body
/// body = count: u32le, then per record: rec_len: u32le | rec_json
/// ```
///
/// so an append is one framed write + one fsync instead of a whole-file
/// rewrite, and every commit is independently verifiable. Version-1 and
/// version-2 journals still load; they are migrated to version 3 on
/// open (the marker atomically replacing the legacy JSON is the
/// migration's commit point).
pub const JOURNAL_VERSION: u32 = 3;

/// Oldest journal format version this build still reads.
pub const JOURNAL_MIN_VERSION: u32 = 1;

/// Contents of a version-3 journal marker file.
pub const JOURNAL_MAGIC: &[u8; 5] = b"QDJ3\n";

/// Appends rotate to a fresh segment file once the tail segment reaches
/// this many bytes, bounding the cost of a torn-tail repair (which
/// rewrites one segment) and of any future segment-level retention.
const SEGMENT_ROTATE_BYTES: usize = 256 * 1024;

/// The path of segment `index` of the version-3 journal at `journal`:
/// `<name>.seg-NNNNNN` next to the marker file.
pub fn segment_path(journal: &Path, index: u32) -> PathBuf {
    let mut name = journal
        .file_name()
        .map_or_else(|| std::ffi::OsString::from("journal"), |n| n.to_os_string());
    name.push(format!(".seg-{index:06}"));
    journal.with_file_name(name)
}

/// The index of the segment file `path` names for the journal at
/// `journal`, if it names one (`<name>.seg-NNNNNN`).
fn segment_index(journal: &Path, path: &Path) -> Option<u32> {
    let base = journal.file_name()?.to_str()?;
    let name = path.file_name()?.to_str()?;
    name.strip_prefix(base)?.strip_prefix(".seg-")?.parse().ok()
}

/// Where a journaled request stands. States are strictly ordered; a
/// request only ever moves forward (relearning appends a new terminal
/// record rather than rewinding).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum RequestState {
    /// Accepted for serving; no model change yet.
    Received,
    /// Ascent stage done (and guard-accepted, when a guard is active).
    Unlearned,
    /// Recovery stage done — the request is fully served.
    Recovered,
    /// Erased knowledge restored on explicit relearn. Terminal.
    Relearned,
    /// Shed unserved by a tripped per-tenant circuit breaker. Terminal;
    /// the model never changed for this request. Carries a typed
    /// [`FailReason`] in the record.
    Failed,
    /// Isolated to the dead-letter set: the request could not be served
    /// under any rung of the retry ladder (alone or, for a coalesced
    /// batch, as the poison member bisection converged on). Terminal;
    /// the model never changed for this request. Carries a typed
    /// [`FailReason`] in the record.
    Quarantined,
}

impl std::fmt::Display for RequestState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RequestState::Received => "RECEIVED",
            RequestState::Unlearned => "UNLEARNED",
            RequestState::Recovered => "RECOVERED",
            RequestState::Relearned => "RELEARNED",
            RequestState::Failed => "FAILED",
            RequestState::Quarantined => "QUARANTINED",
        };
        f.write_str(s)
    }
}

/// Identifier linking the journal records of one coalesced batch.
///
/// A batch serves several compatible requests through a single shared
/// recovery pass ([`QuickDrop::serve_batch_journaled`]); every member's
/// records carry the same `BatchId` so [`QuickDrop::resume_requests`]
/// can tell how far a partially-applied batch got and replay the rest
/// to a bit-for-bit identical end state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BatchId(pub u64);

impl std::fmt::Display for BatchId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "batch {}", self.0)
    }
}

/// Why a request reached a failure-terminal state
/// ([`RequestState::Failed`] or [`RequestState::Quarantined`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FailReason {
    /// The guard rejected the unit and no retry ladder was configured.
    Diverged,
    /// Every rung of the retry ladder was exhausted.
    RetriesExhausted,
    /// Batch bisection isolated this member as the one poisoning an
    /// otherwise-servable coalesced unit.
    PoisonMember,
    /// Shed unserved by the owning tenant's tripped circuit breaker.
    Shed,
}

impl std::fmt::Display for FailReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FailReason::Diverged => "diverged",
            FailReason::RetriesExhausted => "retries-exhausted",
            FailReason::PoisonMember => "poison-member",
            FailReason::Shed => "shed",
        };
        f.write_str(s)
    }
}

/// One journal entry: a request reaching `state`, with everything needed
/// to continue from exactly this boundary.
#[derive(Debug, Clone)]
pub struct JournalRecord {
    /// Request sequence number (shared by all records of one request).
    pub seq: u64,
    /// The request being served.
    pub request: UnlearnRequest,
    /// The state this record certifies.
    pub state: RequestState,
    /// RNG stream position at the boundary.
    pub rng: RngState,
    /// Global model parameters at the boundary.
    pub global: Vec<Tensor>,
    /// Guard bookkeeping accumulated so far (`None` for unguarded
    /// serving and for RECEIVED records).
    pub guard: Option<GuardStats>,
    /// The unit this record belongs to; a lone request is a batch of
    /// one. `None` on RELEARNED records, on every record of a version-1
    /// journal, and on singleton records from builds that served a lone
    /// request outside the batch protocol.
    pub batch: Option<BatchId>,
    /// Why the request failed (`Some` only on [`RequestState::Failed`]
    /// and [`RequestState::Quarantined`] records).
    pub reason: Option<FailReason>,
}

// Hand-written so the `reason` key is only emitted when set: every
// record a pre-isolation build wrote — and every record a run with
// isolation off writes — stays byte-identical (the derive would emit
// `"reason": null` on all of them, changing every journal frame).
impl Serialize for JournalRecord {
    fn to_value(&self) -> serde::Value {
        let mut entries = vec![
            ("seq".to_string(), Serialize::to_value(&self.seq)),
            ("request".to_string(), Serialize::to_value(&self.request)),
            ("state".to_string(), Serialize::to_value(&self.state)),
            ("rng".to_string(), Serialize::to_value(&self.rng)),
            ("global".to_string(), Serialize::to_value(&self.global)),
            ("guard".to_string(), Serialize::to_value(&self.guard)),
            ("batch".to_string(), Serialize::to_value(&self.batch)),
        ];
        if let Some(reason) = &self.reason {
            entries.push(("reason".to_string(), Serialize::to_value(reason)));
        }
        serde::Value::Map(entries)
    }
}

// Hand-written so version-1 records — written before the `batch` field
// existed — deserialize with `batch: None` instead of failing on the
// missing field (the derive treats every field as required); likewise
// `reason`, absent from every pre-isolation record.
impl Deserialize for JournalRecord {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(JournalRecord {
            seq: Deserialize::from_value(v.field("JournalRecord", "seq")?)?,
            request: Deserialize::from_value(v.field("JournalRecord", "request")?)?,
            state: Deserialize::from_value(v.field("JournalRecord", "state")?)?,
            rng: Deserialize::from_value(v.field("JournalRecord", "rng")?)?,
            global: Deserialize::from_value(v.field("JournalRecord", "global")?)?,
            guard: Deserialize::from_value(v.field("JournalRecord", "guard")?)?,
            batch: match v.get("batch") {
                None => None,
                Some(b) => Deserialize::from_value(b)?,
            },
            reason: match v.get("reason") {
                None => None,
                Some(r) => Deserialize::from_value(r)?,
            },
        })
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct JournalFile {
    version: u32,
    records: Vec<JournalRecord>,
}

/// Why a journal file failed to load or replay.
///
/// Mirrors [`crate::CheckpointError`]: I/O failures pass through, shape
/// problems become [`JournalError::Format`] naming the file, and — the
/// forward-compatibility guard — a record whose `state` tag this build
/// does not know becomes [`JournalError::UnknownState`] instead of being
/// skipped or folded into a generic parse failure. Skipping such a
/// record would silently drop a state transition a newer build made
/// durable; refusing to open keeps the journal's write-ahead contract.
#[derive(Debug)]
pub enum JournalError {
    /// Reading or writing the journal file failed.
    Io(std::io::Error),
    /// The file is corrupt, versionless, or of an unreadable version.
    Format {
        /// The offending journal file.
        path: PathBuf,
        /// What was wrong with it.
        detail: String,
    },
    /// A record carries a `state` tag this build does not know — the
    /// journal was written by a newer build whose state machine has
    /// states this one cannot replay.
    UnknownState {
        /// The offending journal file.
        path: PathBuf,
        /// Sequence number of the offending record.
        seq: u64,
        /// The unrecognized state tag, verbatim.
        tag: String,
    },
    /// A committed record failed its CRC or framing check somewhere
    /// other than the journal's tail: the file was corrupted in place
    /// (bit rot, a partial overwrite) rather than torn by a crash.
    /// Truncating past it would drop later, valid records, so the open
    /// refuses and leaves the file for the operator.
    CorruptRecord {
        /// The offending segment file.
        path: PathBuf,
        /// Byte offset of the corrupt frame within it.
        offset: usize,
        /// What failed to verify.
        detail: String,
    },
    /// The journal's final commit is incomplete — the torn tail a crash
    /// mid-append leaves behind. [`RequestJournal::open`] repairs this
    /// automatically by truncating to the last valid commit;
    /// [`RequestJournal::open_strict_on`] surfaces it as this error
    /// instead.
    TornTail {
        /// The offending segment file.
        path: PathBuf,
        /// End of the last valid commit (the repair truncation point).
        offset: usize,
        /// Torn bytes after it.
        trailing: usize,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O: {e}"),
            JournalError::Format { path, detail } => {
                write!(f, "journal {}: {detail}", path.display())
            }
            JournalError::UnknownState { path, seq, tag } => write!(
                f,
                "journal {}: record {seq} is in unknown state {tag:?}; \
                 written by a newer build this one cannot replay",
                path.display()
            ),
            JournalError::CorruptRecord {
                path,
                offset,
                detail,
            } => write!(
                f,
                "journal {}: corrupt record at byte {offset}: {detail}",
                path.display()
            ),
            JournalError::TornTail {
                path,
                offset,
                trailing,
            } => write!(
                f,
                "journal {}: torn tail — {trailing} byte(s) after the last \
                 valid commit ending at byte {offset} (crash mid-append); \
                 a non-strict open truncates them",
                path.display()
            ),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

impl From<JournalError> for std::io::Error {
    fn from(e: JournalError) -> Self {
        match e {
            JournalError::Io(io) => io,
            other => std::io::Error::new(std::io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// One torn-tail truncation performed while opening a journal in
/// repair mode — the audit trail of what a crash cost (nothing that
/// was ever acknowledged: only the un-fsynced suffix of the last
/// commit is ever dropped).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TailRepair {
    /// The segment file that was truncated.
    pub segment: PathBuf,
    /// Its length after the repair (end of the last valid commit).
    pub valid_len: usize,
    /// Torn bytes dropped from it.
    pub dropped_bytes: usize,
}

/// What a segment scan found: the valid prefix and any torn suffix.
#[derive(Debug)]
struct SegmentScan {
    valid_len: usize,
    trailing: usize,
}

/// The append-only request journal, bound to one marker file (plus its
/// segment files) on a [`Vfs`].
#[derive(Debug)]
pub struct RequestJournal {
    path: PathBuf,
    vfs: Arc<dyn Vfs>,
    records: Vec<JournalRecord>,
    /// Segment index new commits append to.
    tail_seg: u32,
    /// Bytes currently in the tail segment.
    tail_len: usize,
    /// Whether the version-3 marker file exists at `path` yet (written
    /// before the first append so reopens recognize the format).
    marker_written: bool,
    /// Set when an append failed after possibly leaving a torn frame on
    /// disk; every later append refuses until the journal is reopened
    /// (which repairs the tail), so in-memory and durable state can
    /// never silently diverge.
    poisoned: Option<String>,
    /// Torn-tail truncations performed by this open.
    repairs: Vec<TailRepair>,
}

fn io_err(e: StorageError) -> JournalError {
    JournalError::Io(e.into())
}

/// Encodes one atomic commit frame holding `records`.
fn encode_commit(records: &[JournalRecord]) -> std::io::Result<Vec<u8>> {
    let mut body = Vec::new();
    body.extend_from_slice(
        &u32::try_from(records.len())
            .map_err(std::io::Error::other)?
            .to_le_bytes(),
    );
    for record in records {
        let json = serde_json::to_string(record).map_err(std::io::Error::other)?;
        body.extend_from_slice(
            &u32::try_from(json.len())
                .map_err(std::io::Error::other)?
                .to_le_bytes(),
        );
        body.extend_from_slice(json.as_bytes());
    }
    let mut frame = Vec::with_capacity(body.len() + 8);
    frame.extend_from_slice(
        &u32::try_from(body.len())
            .map_err(std::io::Error::other)?
            .to_le_bytes(),
    );
    frame.extend_from_slice(&vfs::crc32(&body).to_le_bytes());
    frame.extend_from_slice(&body);
    Ok(frame)
}

/// Reads the u32le at `bytes[at..at + 4]`, if present.
fn read_u32(bytes: &[u8], at: usize) -> Option<u32> {
    let chunk: [u8; 4] = bytes.get(at..at + 4)?.try_into().ok()?;
    Some(u32::from_le_bytes(chunk))
}

impl RequestJournal {
    /// Opens the journal at `path` on the real filesystem, loading any
    /// existing records; a missing file starts an empty journal
    /// (created on first append). A torn tail — the leftovers of a
    /// crash mid-append — is repaired by truncating to the last valid
    /// commit (see [`RequestJournal::repairs`]); legacy version-1/2
    /// JSON journals are migrated to the version-3 segment format.
    ///
    /// # Errors
    ///
    /// [`JournalError::Format`] naming the file when its contents are
    /// corrupt, versionless, or of a version this build does not read;
    /// [`JournalError::CorruptRecord`] when a committed frame fails its
    /// CRC or framing check away from the tail (in-place corruption a
    /// truncation cannot safely repair); [`JournalError::UnknownState`]
    /// when a record carries a state tag from a newer build's state
    /// machine (replaying it would silently drop a durable transition);
    /// [`JournalError::Io`] for read errors.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self, JournalError> {
        Self::open_on(Arc::new(StdFs), path)
    }

    /// [`RequestJournal::open`] on an explicit [`Vfs`] — the entry
    /// point the fault-injection harnesses use.
    ///
    /// # Errors
    ///
    /// As [`RequestJournal::open`].
    pub fn open_on(vfs: Arc<dyn Vfs>, path: impl Into<PathBuf>) -> Result<Self, JournalError> {
        Self::open_inner(vfs, path.into(), true)
    }

    /// Opens without repairing: a torn tail is surfaced as
    /// [`JournalError::TornTail`] instead of being truncated, for
    /// callers that want to inspect crash damage before discarding it.
    ///
    /// # Errors
    ///
    /// As [`RequestJournal::open`], plus [`JournalError::TornTail`].
    pub fn open_strict_on(
        vfs: Arc<dyn Vfs>,
        path: impl Into<PathBuf>,
    ) -> Result<Self, JournalError> {
        Self::open_inner(vfs, path.into(), false)
    }

    fn open_inner(vfs: Arc<dyn Vfs>, path: PathBuf, repair: bool) -> Result<Self, JournalError> {
        // A crash between create and rename leaves `<name>*.tmp`
        // droppings; clear them so aborted saves never accumulate.
        vfs::sweep_stale_tmps(&*vfs, &path);
        if !vfs.exists(&path).map_err(io_err)? {
            // Segments without a marker are unreachable — either the
            // marker write of a brand-new journal never landed (no
            // record was ever acknowledged) or the marker was deleted
            // out from under us. Remove them rather than resurrect
            // half a journal.
            for (_, seg) in Self::segment_files(&*vfs, &path)? {
                vfs.remove(&seg).map_err(io_err)?;
            }
            return Ok(RequestJournal {
                path,
                vfs,
                records: Vec::new(),
                tail_seg: 0,
                tail_len: 0,
                marker_written: false,
                poisoned: None,
                repairs: Vec::new(),
            });
        }
        let head = vfs.read(&path).map_err(io_err)?;
        if head.starts_with(JOURNAL_MAGIC) {
            return Self::open_v3(vfs, path, repair);
        }
        // Not a v3 marker: a legacy version-1/2 JSON journal (or
        // garbage, which the legacy parser reports with context).
        let json = String::from_utf8(head).map_err(|_| JournalError::Format {
            path: path.clone(),
            detail: "neither a version-3 journal marker nor JSON".to_string(),
        })?;
        let records = Self::parse_legacy(&path, &json)?;
        Self::migrate_legacy(vfs, path, records)
    }

    /// The existing `<name>.seg-NNNNNN` files for the journal at
    /// `path`, sorted by index.
    fn segment_files(vfs: &dyn Vfs, path: &Path) -> Result<Vec<(u32, PathBuf)>, JournalError> {
        let mut out = Vec::new();
        for entry in vfs.list(&vfs::dir_of(path)).map_err(io_err)? {
            if let Some(index) = segment_index(path, &entry) {
                out.push((index, entry));
            }
        }
        out.sort();
        Ok(out)
    }

    fn open_v3(vfs: Arc<dyn Vfs>, path: PathBuf, repair: bool) -> Result<Self, JournalError> {
        let segments = Self::segment_files(&*vfs, &path)?;
        for (expect, (index, seg)) in segments.iter().enumerate() {
            if *index as usize != expect {
                return Err(JournalError::Format {
                    path: seg.clone(),
                    detail: format!(
                        "segment files are not contiguous: expected segment \
                         {expect}, found {index}"
                    ),
                });
            }
        }
        let mut records = Vec::new();
        let mut repairs = Vec::new();
        let mut tail_seg = 0u32;
        let mut tail_len = 0usize;
        for (i, (index, seg)) in segments.iter().enumerate() {
            let bytes = vfs.read(seg).map_err(io_err)?;
            let is_last = i + 1 == segments.len();
            let scan = Self::parse_segment(seg, &bytes, is_last, &mut records)?;
            tail_seg = *index;
            tail_len = scan.valid_len;
            if scan.trailing > 0 {
                if !repair {
                    return Err(JournalError::TornTail {
                        path: seg.clone(),
                        offset: scan.valid_len,
                        trailing: scan.trailing,
                    });
                }
                // Truncate to the last valid commit, atomically: a
                // crash mid-repair leaves either the torn segment
                // (repaired again next open) or the clean one.
                vfs::atomic_write(&*vfs, seg, &bytes[..scan.valid_len]).map_err(io_err)?;
                repairs.push(TailRepair {
                    segment: seg.clone(),
                    valid_len: scan.valid_len,
                    dropped_bytes: scan.trailing,
                });
            }
        }
        Ok(RequestJournal {
            path,
            vfs,
            records,
            tail_seg,
            tail_len,
            marker_written: true,
            poisoned: None,
            repairs,
        })
    }

    /// Walks one segment's commit frames, appending their records to
    /// `records`. Returns the valid prefix length and, for the last
    /// segment, any torn trailing bytes; a torn shape anywhere else is
    /// in-place corruption ([`JournalError::CorruptRecord`]).
    fn parse_segment(
        seg: &Path,
        bytes: &[u8],
        is_last: bool,
        records: &mut Vec<JournalRecord>,
    ) -> Result<SegmentScan, JournalError> {
        Self::walk_frames(seg, bytes, is_last, |offset, body| {
            Self::parse_commit_body(seg, offset, body, records)
        })
    }

    /// Walks one segment's commit frames, handing each CRC-verified
    /// body and its offset to `on_frame`; returns as
    /// [`RequestJournal::parse_segment`].
    fn walk_frames(
        seg: &Path,
        bytes: &[u8],
        is_last: bool,
        mut on_frame: impl FnMut(usize, &[u8]) -> Result<(), JournalError>,
    ) -> Result<SegmentScan, JournalError> {
        let corrupt = |offset: usize, detail: String| JournalError::CorruptRecord {
            path: seg.to_path_buf(),
            offset,
            detail,
        };
        let mut offset = 0usize;
        while offset < bytes.len() {
            let remaining = bytes.len() - offset;
            // A frame that runs past the end of the file is the torn
            // tail a crash mid-append leaves — but only at the very end
            // of the journal; anywhere else it is corruption.
            let torn_or = |detail: String| -> Result<SegmentScan, JournalError> {
                if is_last {
                    Ok(SegmentScan {
                        valid_len: offset,
                        trailing: remaining,
                    })
                } else {
                    Err(corrupt(offset, detail))
                }
            };
            let (Some(len), Some(crc)) = (read_u32(bytes, offset), read_u32(bytes, offset + 4))
            else {
                return torn_or(format!("{remaining}-byte frame-header fragment"));
            };
            let len = len as usize;
            if remaining - 8 < len {
                return torn_or(format!(
                    "frame of {len} bytes overruns the segment by {}",
                    len - (remaining - 8)
                ));
            }
            let body = &bytes[offset + 8..offset + 8 + len];
            let computed = vfs::crc32(body);
            if computed != crc {
                // A bad CRC on the segment-final frame is a torn body
                // whose header landed first; give the crash the benefit
                // of the doubt there. Earlier frames have valid frames
                // after them, so they can only be in-place corruption.
                if is_last && offset + 8 + len == bytes.len() {
                    return Ok(SegmentScan {
                        valid_len: offset,
                        trailing: remaining,
                    });
                }
                return Err(corrupt(
                    offset,
                    format!("CRC mismatch: stored {crc:#010x}, computed {computed:#010x}"),
                ));
            }
            on_frame(offset, body)?;
            offset += 8 + len;
        }
        Ok(SegmentScan {
            valid_len: offset,
            trailing: 0,
        })
    }

    /// Decodes the records of one CRC-verified commit body.
    fn parse_commit_body(
        seg: &Path,
        offset: usize,
        body: &[u8],
        records: &mut Vec<JournalRecord>,
    ) -> Result<(), JournalError> {
        let corrupt = |detail: String| JournalError::CorruptRecord {
            path: seg.to_path_buf(),
            offset,
            detail,
        };
        let count = read_u32(body, 0).ok_or_else(|| corrupt("commit body too short".into()))?;
        let mut pos = 4usize;
        for _ in 0..count {
            let rec_len = read_u32(body, pos)
                .ok_or_else(|| corrupt("record length overruns the commit".into()))?
                as usize;
            pos += 4;
            let json = body
                .get(pos..pos + rec_len)
                .ok_or_else(|| corrupt("record payload overruns the commit".into()))?;
            pos += rec_len;
            let json = std::str::from_utf8(json)
                .map_err(|e| corrupt(format!("record is not UTF-8: {e}")))?;
            let value: serde::Value = serde_json::from_str(json)
                .map_err(|e| corrupt(format!("record is not valid JSON: {e}")))?;
            Self::check_record_state(seg, &value, records.len() as u64)?;
            let record = JournalRecord::from_value(&value)
                .map_err(|e| corrupt(format!("malformed record: {e}")))?;
            records.push(record);
        }
        if pos != body.len() {
            return Err(corrupt(format!(
                "{} stray byte(s) inside the commit body",
                body.len() - pos
            )));
        }
        Ok(())
    }

    /// Forward-compat guard for one record value: reject a `state` tag
    /// this build's [`RequestState`] cannot represent, *before* the
    /// full deserialize (which would fold the problem into a generic
    /// parse error, and an ignore-unknown deserializer would skip the
    /// record outright — both lose a durable transition).
    fn check_record_state(
        path: &Path,
        value: &serde::Value,
        fallback_seq: u64,
    ) -> Result<(), JournalError> {
        const KNOWN: [&str; 6] = [
            "Received",
            "Unlearned",
            "Recovered",
            "Relearned",
            "Failed",
            "Quarantined",
        ];
        let Some(serde::Value::Str(tag)) = value.get("state") else {
            // Shape problems are the full deserialize's to report.
            return Ok(());
        };
        if !KNOWN.contains(&tag.as_str()) {
            let seq = value
                .get("seq")
                .and_then(|s| u64::from_value(s).ok())
                .unwrap_or(fallback_seq);
            return Err(JournalError::UnknownState {
                path: path.to_path_buf(),
                seq,
                tag: tag.clone(),
            });
        }
        Ok(())
    }

    /// Parses a legacy (version-1/2) single-file JSON journal.
    fn parse_legacy(path: &Path, json: &str) -> Result<Vec<JournalRecord>, JournalError> {
        let invalid = |detail: String| JournalError::Format {
            path: path.to_path_buf(),
            detail,
        };
        let value: serde::Value = serde_json::from_str(json)
            .map_err(|e| invalid(format!("corrupt or truncated JSON: {e}")))?;
        let version = value
            .get("version")
            .ok_or_else(|| invalid("no version field; not a journal file".to_string()))?;
        let version: u32 = serde::Deserialize::from_value(version)
            .map_err(|e| invalid(format!("malformed version field: {e}")))?;
        if !(JOURNAL_MIN_VERSION..=JOURNAL_VERSION).contains(&version) {
            return Err(invalid(format!(
                "format version {version}; this build reads only versions \
                 {JOURNAL_MIN_VERSION} through {JOURNAL_VERSION}"
            )));
        }
        if let Some(serde::Value::Seq(raw)) = value.get("records") {
            for (index, record) in raw.iter().enumerate() {
                Self::check_record_state(path, record, index as u64)?;
            }
        }
        let file: JournalFile = serde::Deserialize::from_value(&value)
            .map_err(|e| invalid(format!("malformed version-{version} payload: {e}")))?;
        Ok(file.records)
    }

    /// Rewrites a legacy journal in the version-3 segment format. The
    /// marker atomically replacing the legacy JSON at `path` is the
    /// commit point: crash before it and the next open re-migrates
    /// from the still-intact JSON (removing these half-built segments
    /// first); crash after it and the migration is complete.
    fn migrate_legacy(
        vfs: Arc<dyn Vfs>,
        path: PathBuf,
        records: Vec<JournalRecord>,
    ) -> Result<Self, JournalError> {
        for (_, seg) in Self::segment_files(&*vfs, &path)? {
            vfs.remove(&seg).map_err(io_err)?;
        }
        let mut tail_seg = 0u32;
        let mut tail_len = 0usize;
        for record in &records {
            let frame = encode_commit(std::slice::from_ref(record)).map_err(JournalError::Io)?;
            if tail_len >= SEGMENT_ROTATE_BYTES {
                tail_seg += 1;
                tail_len = 0;
            }
            vfs.append(&segment_path(&path, tail_seg), &frame)
                .map_err(io_err)?;
            tail_len += frame.len();
        }
        // Make every segment durable before the marker commits to them.
        for index in 0..=tail_seg {
            let seg = segment_path(&path, index);
            if vfs.exists(&seg).map_err(io_err)? {
                vfs.fsync(&seg).map_err(io_err)?;
            }
        }
        vfs::atomic_write(&*vfs, &path, JOURNAL_MAGIC).map_err(io_err)?;
        Ok(RequestJournal {
            path,
            vfs,
            records,
            tail_seg,
            tail_len,
            marker_written: true,
            poisoned: None,
            repairs: Vec::new(),
        })
    }

    /// Torn-tail truncations this open performed (empty for a clean
    /// journal): which segment, where it was cut, and how many torn
    /// bytes were dropped.
    pub fn repairs(&self) -> &[TailRepair] {
        &self.repairs
    }

    /// All records, oldest first.
    pub fn records(&self) -> &[JournalRecord] {
        &self.records
    }

    /// The most recent record.
    pub fn last(&self) -> Option<&JournalRecord> {
        self.records.last()
    }

    /// The sequence number the next request will get.
    ///
    /// The maximum over all records, not the last record's: a terminal
    /// FAILED or QUARANTINED record can be appended for an older
    /// sequence after newer sequences already exist, and `last.seq + 1`
    /// would then hand out a collision.
    pub fn next_seq(&self) -> u64 {
        self.records.iter().map(|r| r.seq + 1).max().unwrap_or(0)
    }

    /// Appends a record durably: one framed commit appended to the tail
    /// segment and fsynced — two [`Vfs`] operations regardless of how
    /// many records the journal already holds.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the commit; the in-memory record list
    /// is only extended once the frame is durable, and a failed append
    /// poisons the journal (the on-disk tail may be torn) so every
    /// later append fails until the journal is reopened and repaired.
    pub fn append(&mut self, record: JournalRecord) -> std::io::Result<()> {
        let frame = encode_commit(std::slice::from_ref(&record))?;
        self.append_frame(&frame)?;
        self.records.push(record);
        Ok(())
    }

    /// Appends several records as **one** commit frame: its CRC covers
    /// all of them, so a crash during the append leaves either none of
    /// `records` durable or all of them (a torn frame fails the check
    /// and is truncated whole on reopen). Batch serving relies on this
    /// — the RECEIVED (and later RECOVERED) records of all batch
    /// members land together, so resume never sees a batch whose
    /// membership is half-written.
    ///
    /// # Errors
    ///
    /// As [`RequestJournal::append`].
    pub fn append_all(&mut self, records: Vec<JournalRecord>) -> std::io::Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        let frame = encode_commit(&records)?;
        self.append_frame(&frame)?;
        self.records.extend(records);
        Ok(())
    }

    /// Opens a new unit: appends the atomic RECEIVED set of `requests`
    /// — fresh sequence numbers in request order under one fresh
    /// [`BatchId`], every record carrying the pre-unit `rng` and
    /// `global` state — as one commit frame. The only writer of
    /// RECEIVED sets, shared by [`QuickDrop::serve_batch_journaled`]
    /// and the serve layer's failure-isolation executor.
    ///
    /// Returns the batch id and the members' sequence numbers.
    ///
    /// # Errors
    ///
    /// As [`RequestJournal::append`].
    pub fn append_received(
        &mut self,
        requests: &[UnlearnRequest],
        rng: &RngState,
        global: &[Tensor],
    ) -> std::io::Result<(BatchId, Vec<u64>)> {
        let batch = self.next_batch_id();
        let base = self.next_seq();
        let seqs: Vec<u64> = (base..).take(requests.len()).collect();
        let received = seqs
            .iter()
            .zip(requests)
            .map(|(&seq, &request)| JournalRecord {
                seq,
                request,
                state: RequestState::Received,
                rng: rng.clone(),
                global: global.to_vec(),
                guard: None,
                batch: Some(batch),
                reason: None,
            })
            .collect();
        self.append_all(received)?;
        Ok((batch, seqs))
    }

    /// The commit frame that is boundary `state` of unit `batch`, as
    /// the range of record indices it holds: the frame of the unit's
    /// `min(k, n)`-th record in `state` (1-based, of its n). A
    /// RECEIVED, RECOVERED, QUARANTINED or FAILED set is one frame, so
    /// `k = 1` names it; each UNLEARNED record is a frame of its own,
    /// so `k` picks the member, and a `k` past the unit's size its
    /// last one. `None` when the unit wrote no such record or `k` is 0.
    pub fn boundary_frame(
        &self,
        batch: BatchId,
        state: RequestState,
        k: usize,
    ) -> Option<Range<usize>> {
        let matching: Vec<usize> = self
            .records
            .iter()
            .enumerate()
            .filter(|(_, r)| r.batch == Some(batch) && r.state == state)
            .map(|(i, _)| i)
            .collect();
        let index = *matching.get(k.min(matching.len()).checked_sub(1)?)?;
        let ends = self.frame_ends()?;
        let frame = ends.iter().position(|&end| end > index)?;
        let start = frame.checked_sub(1).map_or(0, |prev| ends[prev]);
        Some(start..ends[frame])
    }

    /// Locates a crash right after record `index` became durable, in
    /// `log`: the [`crate::FaultFs::op_log`] of the fault-free run
    /// that wrote this journal's newest frames. Returns the index of
    /// the first operation after the fsync that committed the frame
    /// holding the record, so [`crate::FaultFs::kill_at`] there, on a
    /// replay of that run, leaves exactly the frames up to and
    /// including it durable. The index equals the log's length when
    /// no operation followed the fsync; the harness then crashes after
    /// the run returns instead.
    ///
    /// Each segment fsync in `log` commits one frame (a legacy
    /// migration does not qualify), so they are matched with this
    /// journal's last frames. `None` when the record does not exist or
    /// its frame was committed before `log` began.
    pub fn kill_after(&self, log: &[(VfsOp, PathBuf)], index: usize) -> Option<u64> {
        let ends = self.frame_ends()?;
        let frame = ends.iter().position(|&end| end > index)?;
        let fsyncs: Vec<usize> = log
            .iter()
            .enumerate()
            .filter(|(_, (op, path))| {
                *op == VfsOp::Fsync
                    && segment_index(&self.path, path)
                        .is_some_and(|i| segment_path(&self.path, i) == *path)
            })
            .map(|(at, _)| at)
            .collect();
        let first = ends.len().checked_sub(fsyncs.len())?;
        let fsync = fsyncs.get(frame.checked_sub(first)?)?;
        Some(*fsync as u64 + 1)
    }

    /// The record count at the end of each commit frame, oldest first,
    /// read back from the segment files (the locators above are all
    /// that need frame bounds, so the journal does not keep them).
    fn frame_ends(&self) -> Option<Vec<usize>> {
        let mut ends = Vec::new();
        let mut count = 0usize;
        for (_, seg) in Self::segment_files(&*self.vfs, &self.path).ok()? {
            let bytes = self.vfs.read(&seg).ok()?;
            // Each body leads with its record count (checked when the
            // journal was opened), so no record needs decoding here.
            Self::walk_frames(&seg, &bytes, true, |_, body| {
                count += read_u32(body, 0).unwrap_or(0) as usize;
                ends.push(count);
                Ok(())
            })
            .ok()?;
        }
        Some(ends)
    }

    /// Lands one encoded commit frame on the tail segment, rotating
    /// segments at the size threshold and writing the format marker
    /// ahead of the very first frame.
    fn append_frame(&mut self, frame: &[u8]) -> std::io::Result<()> {
        if let Some(why) = &self.poisoned {
            return Err(std::io::Error::other(format!(
                "journal {} is poisoned by an earlier append failure ({why}); \
                 reopen it to repair the tail before appending",
                self.path.display()
            )));
        }
        if !self.marker_written {
            // Marker before data: a reopen must recognize the format
            // before any segment exists. atomic_write leaves nothing
            // torn on failure, so this needs no poisoning.
            vfs::atomic_write(&*self.vfs, &self.path, JOURNAL_MAGIC)?;
            self.marker_written = true;
        }
        if self.tail_len >= SEGMENT_ROTATE_BYTES {
            self.tail_seg += 1;
            self.tail_len = 0;
        }
        let seg = segment_path(&self.path, self.tail_seg);
        if let Err(e) = self
            .vfs
            .append(&seg, frame)
            .and_then(|()| self.vfs.fsync(&seg))
        {
            // The frame may be partially on disk; nothing durable can
            // be appended after a possibly-torn tail.
            self.poisoned = Some(e.to_string());
            return Err(e.into());
        }
        self.tail_len += frame.len();
        Ok(())
    }

    /// The batch id the next coalesced batch will get.
    pub fn next_batch_id(&self) -> BatchId {
        BatchId(
            self.records
                .iter()
                .filter_map(|r| r.batch)
                .map(|b| b.0 + 1)
                .max()
                .unwrap_or(0),
        )
    }

    /// Conventional journal path next to a deployment checkpoint:
    /// `<checkpoint>.journal`.
    pub fn path_for_checkpoint(checkpoint: impl AsRef<Path>) -> PathBuf {
        let ckpt = checkpoint.as_ref();
        let mut name = ckpt.file_name().map_or_else(
            || std::ffi::OsString::from("deployment"),
            |n| n.to_os_string(),
        );
        name.push(".journal");
        ckpt.with_file_name(name)
    }
}

/// Why a journaled serve call failed.
#[derive(Debug)]
pub enum ServeError {
    /// Journal or checkpoint I/O failed.
    Io(std::io::Error),
    /// The divergence guard exhausted its backoff; the federation holds
    /// the pre-unit model. The journal keeps the unit's durable records,
    /// so a later resume deterministically surfaces this same error —
    /// the operator decides whether to drop the request or relax the
    /// policy.
    Diverged(UnlearnError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "journal I/O: {e}"),
            ServeError::Diverged(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<crate::checkpoint::CheckpointError> for ServeError {
    fn from(e: crate::checkpoint::CheckpointError) -> Self {
        ServeError::Io(e.into())
    }
}

impl From<JournalError> for ServeError {
    fn from(e: JournalError) -> Self {
        ServeError::Io(e.into())
    }
}

/// What a completed coalesced batch cost and produced.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Per-member ascent accounting, in journal order. Members whose
    /// ascent ran in a previous process (batch finished by resume)
    /// report [`PhaseStats::default`] — the accounting died with that
    /// process; the model and RNG state did not.
    pub unlearn: Vec<PhaseStats>,
    /// The one shared recovery pass.
    pub recovery: PhaseStats,
    /// Global parameters after all ascents, before recovery.
    pub post_unlearn_params: Vec<Tensor>,
    /// Guard bookkeeping accumulated across the whole batch (`None`
    /// for unguarded serving).
    pub guard: Option<GuardStats>,
}

/// A unit's outcome as one request's: the member ascents' costs merged
/// into one unlearning stage.
impl From<BatchOutcome> for MethodOutcome {
    fn from(outcome: BatchOutcome) -> Self {
        let mut unlearn = PhaseStats::default();
        for member in &outcome.unlearn {
            unlearn.merge(member);
        }
        MethodOutcome {
            unlearn,
            recovery: outcome.recovery,
            post_unlearn_params: outcome.post_unlearn_params,
            guard: outcome.guard,
        }
    }
}

/// Called after each accepted member of a unit with the member's index
/// and its boundary state.
type AfterMember<'a> =
    dyn FnMut(usize, &Federation, &Rng, &GuardStats) -> Result<(), ServeError> + 'a;

impl QuickDrop {
    /// Serves a coalesced batch of compatible requests through the
    /// journal as one unit: an atomic RECEIVED set for every member,
    /// per-member guarded ascents (each with its own UNLEARNED record,
    /// so a crash between members loses no accepted ascent), then **one
    /// shared recovery pass** — QuickDrop's "sequential requests"
    /// observation made operational: n compatible forget requests cost
    /// n ascents but a single recovery — and an atomic RECOVERED set.
    /// A lone request is served as a batch of one.
    ///
    /// All records carry the same fresh [`BatchId`], which is what lets
    /// [`QuickDrop::resume_requests`] replay a partially-applied batch
    /// to a bit-for-bit identical end state. `requests` must be
    /// non-empty and deduplicated (the serve layer's `ForgetSet`
    /// canonicalization guarantees both). A guard `policy` gates each
    /// member's ascent against the state just before that member (the
    /// same drift a sequential run would measure) and the shared
    /// recovery against the pre-batch reference.
    ///
    /// On divergence — any member exhausting its ascent retries, or the
    /// recovered model failing the probe — the **whole batch** rolls
    /// back: model and RNG return to the pre-batch boundary and every
    /// member's forgotten-state mark is cleared. The journal keeps
    /// whatever records were already durable, so a later resume
    /// deterministically reproduces this same error.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on journal I/O failure or an empty batch, or
    /// [`ServeError::Diverged`] as above.
    ///
    /// # Panics
    ///
    /// Panics if `policy` fails [`GuardPolicy::validate`].
    pub fn serve_batch_journaled(
        &mut self,
        fed: &mut Federation,
        journal: &mut RequestJournal,
        requests: &[UnlearnRequest],
        policy: Option<&GuardPolicy>,
        rng: &mut Rng,
    ) -> Result<BatchOutcome, ServeError> {
        if let Some(policy) = policy {
            if let Err(msg) = policy.validate() {
                // qd-lint: allow(panic-safety) -- policy validation failure
                // is a documented caller bug (`# Panics`), not a runtime
                // condition
                panic!("invalid guard policy: {msg}");
            }
        }
        if requests.is_empty() {
            return Err(ServeError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "cannot serve an empty batch",
            )));
        }
        let batch_rng = rng.state();
        let batch_reference = fed.global().to_vec();
        let (batch, seqs) = journal.append_received(requests, &batch_rng, &batch_reference)?;
        let members: Vec<(u64, UnlearnRequest)> =
            seqs.into_iter().zip(requests.iter().copied()).collect();
        self.finish_batch(
            fed,
            journal,
            Some(batch),
            &members,
            0,
            &batch_reference,
            &batch_rng,
            GuardStats::default(),
            policy,
            rng,
        )
    }

    /// Runs a unit from its first un-unlearned member through
    /// [`QuickDrop::guarded_unit`], journaling an UNLEARNED record per
    /// member and then the atomic RECOVERED set, every record tagged
    /// `batch`. Shared by [`QuickDrop::serve_batch_journaled`]
    /// (`done == 0`) and [`QuickDrop::resume_requests`] (`done` =
    /// members whose UNLEARNED records survived the crash).
    #[allow(clippy::too_many_arguments)]
    fn finish_batch(
        &mut self,
        fed: &mut Federation,
        journal: &mut RequestJournal,
        batch: Option<BatchId>,
        members: &[(u64, UnlearnRequest)],
        done: usize,
        batch_reference: &[Tensor],
        batch_rng: &RngState,
        mut stats: GuardStats,
        policy: Option<&GuardPolicy>,
        rng: &mut Rng,
    ) -> Result<BatchOutcome, ServeError> {
        let requests: Vec<UnlearnRequest> = members.iter().map(|&(_, r)| r).collect();
        let outcome = self.guarded_unit(
            fed,
            &requests,
            done,
            batch_reference,
            batch_rng,
            policy,
            &mut stats,
            rng,
            &mut |index, fed, rng, stats| {
                if let Some(&(seq, request)) = members.get(index) {
                    journal.append(JournalRecord {
                        seq,
                        request,
                        state: RequestState::Unlearned,
                        rng: rng.state(),
                        global: fed.global().to_vec(),
                        guard: policy.map(|_| *stats),
                        batch,
                        reason: None,
                    })?;
                }
                Ok(())
            },
        )?;
        let recovered: Vec<JournalRecord> = members
            .iter()
            .map(|&(seq, request)| JournalRecord {
                seq,
                request,
                state: RequestState::Recovered,
                rng: rng.state(),
                global: fed.global().to_vec(),
                guard: outcome.guard,
                batch,
                reason: None,
            })
            .collect();
        journal.append_all(recovered)?;
        Ok(outcome)
    }

    /// The guarded body of one unit, the only copy of it: journaled
    /// serving and [`QuickDrop::probe_unit`] both run it, which is what
    /// makes a probe's verdict the real run's.
    ///
    /// For each of `members[done..]`: a guarded ascent (drift and
    /// non-finite gate against the state just before that member, with
    /// rollback and halved-LR retries), the member's forgotten-state
    /// mark, then `after_member`. Then one shared recovery, gated with the retain probe
    /// against `unit_reference`. Without a `policy` nothing is gated.
    ///
    /// On divergence the whole unit rolls back — marks cleared, model
    /// back to `unit_reference`, RNG back to `unit_rng` (failed ascent)
    /// or to its pre-recovery position (failed recovery: re-running a
    /// deterministic recovery from an accepted ascent cannot help) —
    /// and the error carries the guard stats.
    #[allow(clippy::too_many_arguments)]
    fn guarded_unit(
        &mut self,
        fed: &mut Federation,
        members: &[UnlearnRequest],
        done: usize,
        unit_reference: &[Tensor],
        unit_rng: &RngState,
        policy: Option<&GuardPolicy>,
        stats: &mut GuardStats,
        rng: &mut Rng,
        after_member: &mut AfterMember<'_>,
    ) -> Result<BatchOutcome, ServeError> {
        let mut unlearn = vec![PhaseStats::default(); done];
        for (index, &request) in members.iter().enumerate().skip(done) {
            let member_reference = fed.global().to_vec();
            let rng_mark = rng.state();
            let mut last_violation = GuardViolation::NonFinite;
            let mut lr_scale = policy.map_or(1.0f32, |p| p.ascent_lr_scale);
            let retries = policy.map_or(0, |p| p.ascent_retries);
            let mut accepted: Option<PhaseStats> = None;
            for attempt in 0..=retries {
                let (phase, post) = self.ascent_stage(fed, request, rng, lr_scale);
                stats.steps += 1;
                stats.final_drift = relative_drift(&post, &member_reference);
                let gate = match policy {
                    Some(policy) => check_attempt(
                        policy,
                        fed.model().as_ref(),
                        &member_reference,
                        &post,
                        &post,
                        None,
                    )
                    .map(|_| ()),
                    None => Ok(()),
                };
                match gate {
                    Ok(()) => {
                        accepted = Some(phase);
                        break;
                    }
                    Err(violation) => {
                        last_violation = violation;
                        fed.set_global(member_reference.clone());
                        *rng = Rng::from_state(&rng_mark);
                        stats.rollbacks += 1;
                        if attempt < retries {
                            lr_scale *= 0.5;
                            stats.lr_halvings += 1;
                        }
                    }
                }
            }
            let Some(phase) = accepted else {
                // Everything restored here is journal-derivable, so a
                // resume reproduces this error and this end state.
                for &earlier in &members[..index] {
                    self.unmark_unlearned(earlier);
                }
                fed.set_global(unit_reference.to_vec());
                *rng = Rng::from_state(unit_rng);
                return Err(ServeError::Diverged(UnlearnError::Diverged {
                    violation: last_violation,
                    stats: *stats,
                }));
            };
            self.mark_unlearned(request);
            unlearn.push(phase);
            after_member(index, fed, rng, stats)?;
        }
        // One shared recovery pass amortized over the whole unit.
        let post_unlearn_params = fed.global().to_vec();
        let rng_mark = rng.state();
        let recovery = self.recovery_stage(fed, rng);
        if let Some(policy) = policy {
            let probe = probe_sample(&self.synthetic_retain(), policy.probe_samples);
            match check_attempt(
                policy,
                fed.model().as_ref(),
                unit_reference,
                &post_unlearn_params,
                fed.global(),
                probe.as_ref(),
            ) {
                Ok(drift) => stats.final_drift = drift,
                Err(violation) => {
                    for &request in members {
                        self.unmark_unlearned(request);
                    }
                    fed.set_global(unit_reference.to_vec());
                    *rng = Rng::from_state(&rng_mark);
                    stats.rollbacks += 1;
                    return Err(ServeError::Diverged(UnlearnError::Diverged {
                        violation,
                        stats: *stats,
                    }));
                }
            }
        }
        Ok(BatchOutcome {
            unlearn,
            recovery,
            post_unlearn_params,
            guard: policy.map(|_| *stats),
        })
    }

    /// Restores previously erased knowledge through the journal: relearns
    /// with [`qd_unlearn::UnlearningMethod::relearn`] semantics on the
    /// synthetic forget set, then appends the terminal RELEARNED record.
    ///
    /// Only a request whose latest model-changing record is RECOVERED can
    /// be relearned (FAILED and QUARANTINED records never touched the
    /// model and are skipped): a request already RELEARNED, or one whose
    /// later forget is still in flight, is refused, so the forward-only
    /// state machine never sees a second RELEARNED for one sequence
    /// number.
    ///
    /// A crash mid-relearn leaves the journal at RECOVERED; resume treats
    /// the relearn as never started (the caller re-submits it), matching
    /// the state machine's forward-only discipline.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on journal I/O failure, or with kind
    /// [`std::io::ErrorKind::InvalidData`] when the request's latest
    /// model-changing record is not RECOVERED (or it has none).
    pub fn relearn_journaled(
        &mut self,
        fed: &mut Federation,
        journal: &mut RequestJournal,
        request: UnlearnRequest,
        phase: &qd_fed::Phase,
        rng: &mut Rng,
    ) -> Result<PhaseStats, ServeError> {
        let latest = journal.records().iter().rev().find(|r| {
            r.request == request
                && !matches!(r.state, RequestState::Failed | RequestState::Quarantined)
        });
        let seq = match latest {
            Some(r) if r.state == RequestState::Recovered => r.seq,
            other => {
                let why = other.map_or_else(
                    || format!("journal holds no recovered request matching {request}"),
                    |r| {
                        format!(
                            "{request} is {} in the journal (seq {}); only a RECOVERED \
                             request can be relearned",
                            r.state, r.seq
                        )
                    },
                );
                return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, why).into());
            }
        };
        use qd_unlearn::UnlearningMethod as _;
        let stats = self
            .relearn(fed, request, phase, rng)
            // qd-lint: allow(panic-safety) -- QuickDrop always supports
            // relearning; a None here is a type-level invariant breach
            .expect("QuickDrop supports relearning");
        journal.append(JournalRecord {
            seq,
            request,
            state: RequestState::Relearned,
            rng: rng.state(),
            global: fed.global().to_vec(),
            guard: None,
            batch: None,
            reason: None,
        })?;
        Ok(stats)
    }

    /// Replays `journal` onto a system restored from its deployment
    /// [`Checkpoint`]: re-applies every record's forgotten-state marks
    /// (idempotently), restores the global model and RNG stream from the
    /// **last** record — the journal, not the checkpoint, is the source
    /// of truth for anything that happened after the checkpoint was
    /// written — and finishes the incomplete stages of the last unit,
    /// if any.
    ///
    /// Units are served sequentially, so at most the last journaled
    /// unit can be incomplete; the continuation reproduces the
    /// uninterrupted run bit-for-bit (same model bits, same RNG stream,
    /// same persisted [`GuardStats`]) provided `policy` matches the
    /// original run's. An unbatched in-flight tail — the singleton
    /// records of a version-1/2 journal or of an earlier build — is
    /// finished as a unit of one, and the records written while
    /// finishing it stay unbatched.
    ///
    /// The in-flight unit's membership and progress both come from the
    /// journal: the RECEIVED set (atomic, so never half-written) lists
    /// the members, QUARANTINED and FAILED records subtract the members
    /// isolated or shed out of it, and the UNLEARNED records say how
    /// many active ascents were accepted before the crash. A unit whose
    /// every member is quarantined or shed has nothing left to do.
    ///
    /// This is also the failure-isolation executor's *only* execution
    /// path: it appends a unit's RECEIVED set itself and then drives
    /// every attempt through this call, so a fresh unit and a
    /// crash-resumed one execute identical code from identical
    /// journal-derived state.
    ///
    /// Returns the outcome of the unit finished during resume, or
    /// `None` when the journal was empty or already fully served.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on journal I/O failure, or
    /// [`ServeError::Diverged`] when finishing the incomplete unit
    /// trips the guard (deterministically the same outcome the
    /// uninterrupted run would have had).
    ///
    /// # Panics
    ///
    /// Panics if `policy` fails [`GuardPolicy::validate`].
    pub fn resume_requests(
        &mut self,
        fed: &mut Federation,
        journal: &mut RequestJournal,
        policy: Option<&GuardPolicy>,
        rng: &mut Rng,
    ) -> Result<Option<MethodOutcome>, ServeError> {
        if let Some(policy) = policy {
            if let Err(msg) = policy.validate() {
                // qd-lint: allow(panic-safety) -- policy validation failure
                // is a documented caller bug (`# Panics`), not a runtime
                // condition
                panic!("invalid guard policy: {msg}");
            }
        }
        self.restore_tail(fed, journal, rng);
        let Some(last) = journal.last().cloned() else {
            return Ok(None);
        };
        if matches!(
            last.state,
            RequestState::Recovered | RequestState::Relearned
        ) {
            return Ok(None);
        }
        // The in-flight unit's records: its batch's, or for an unbatched
        // tail, the last request's alone.
        let unit = last.batch;
        let in_unit = |r: &&JournalRecord| r.batch == unit && (unit.is_some() || r.seq == last.seq);
        let inactive: Vec<u64> = journal
            .records()
            .iter()
            .filter(in_unit)
            .filter(|r| matches!(r.state, RequestState::Quarantined | RequestState::Failed))
            .map(|r| r.seq)
            .collect();
        let members: Vec<(u64, UnlearnRequest)> = journal
            .records()
            .iter()
            .filter(in_unit)
            .filter(|r| r.state == RequestState::Received && !inactive.contains(&r.seq))
            .map(|r| (r.seq, r.request))
            .collect();
        if members.is_empty() {
            return Ok(None);
        }
        let done = journal
            .records()
            .iter()
            .filter(in_unit)
            .filter(|r| r.state == RequestState::Unlearned && !inactive.contains(&r.seq))
            .count();
        // Every member's RECEIVED record carries the same pre-unit
        // state, so any of them (quarantined or not) supplies the
        // reference.
        let (unit_reference, unit_rng) = journal
            .records()
            .iter()
            .filter(in_unit)
            .find(|r| r.state == RequestState::Received)
            .map(|r| (r.global.clone(), r.rng.clone()))
            .ok_or_else(|| {
                let unit = unit.map_or_else(|| format!("request {}", last.seq), |b| b.to_string());
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("journal holds {unit} records without a RECEIVED set"),
                )
            })?;
        let outcome = self.finish_batch(
            fed,
            journal,
            unit,
            &members,
            done,
            &unit_reference,
            &unit_rng,
            last.guard.unwrap_or_default(),
            policy,
            rng,
        )?;
        Ok(Some(outcome.into()))
    }

    /// Side-effect-free trial: would serving `requests` as one
    /// coalesced unit from the **current** live state (model, RNG
    /// stream, forgotten-state marks) succeed under `policy`?
    ///
    /// Runs the unit body journaled serving runs (the private
    /// `guarded_unit`, its only copy) on a cloned RNG stream, then
    /// restores the model and marks, so the live state is untouched
    /// whatever the verdict. Because the trial and the real execution
    /// run the same code from identical state, a `true` here guarantees
    /// the subsequent real (journaled) execution of the same unit under
    /// the same policy accepts — which is what lets the
    /// failure-isolation executor pick a retry-ladder rung (and bisect
    /// poison members) *before* writing anything, keeping the ladder
    /// position journal-derivable.
    ///
    /// # Panics
    ///
    /// Panics if `policy` fails [`GuardPolicy::validate`] or `requests`
    /// is empty.
    pub fn probe_unit(
        &mut self,
        fed: &mut Federation,
        requests: &[UnlearnRequest],
        policy: &GuardPolicy,
        rng: &Rng,
    ) -> bool {
        if let Err(msg) = policy.validate() {
            // qd-lint: allow(panic-safety) -- policy validation failure
            // is a documented caller bug (`# Panics`), not a runtime
            // condition
            panic!("invalid guard policy: {msg}");
        }
        // qd-lint: allow(panic-safety) -- an empty unit is a documented
        // caller bug (`# Panics`), not a runtime condition
        assert!(!requests.is_empty(), "cannot probe an empty unit");
        let reference = fed.global().to_vec();
        let marks = self.marks_snapshot();
        let start = rng.state();
        let mut rng = Rng::from_state(&start);
        let ok = self
            .guarded_unit(
                fed,
                requests,
                0,
                &reference,
                &start,
                Some(policy),
                &mut GuardStats::default(),
                &mut rng,
                &mut |_, _, _, _| Ok(()),
            )
            .is_ok();
        fed.set_global(reference);
        self.marks_restore(marks);
        ok
    }

    /// Restores live state (forgotten-state marks, global model, RNG
    /// stream) from the journal tail **without finishing anything** —
    /// the failure-isolation executor's resume entry point, and the
    /// first step of [`QuickDrop::resume_requests`]. Unlike
    /// [`QuickDrop::resume_requests`], an in-flight unit at the tail is
    /// left exactly where the journal says it is, because the executor
    /// must re-derive the winning retry-ladder rung (by re-running the
    /// probes) before any serving code touches the unit; resuming with
    /// the base policy here would finish it under the wrong rung.
    ///
    /// Marks replay in journal order. Marking is idempotent (set
    /// semantics), so records already reflected in the checkpoint apply
    /// harmlessly a second time; FAILED and QUARANTINED requests never
    /// touched the model, so they mark nothing. On a live (non-crashed)
    /// deployment the tail already matches the live state, so calling
    /// this is harmless. An empty journal is a no-op.
    pub fn restore_tail(&mut self, fed: &mut Federation, journal: &RequestJournal, rng: &mut Rng) {
        for record in journal.records() {
            match record.state {
                RequestState::Unlearned | RequestState::Recovered => {
                    self.mark_unlearned(record.request);
                }
                RequestState::Relearned => self.unmark_unlearned(record.request),
                RequestState::Received | RequestState::Failed | RequestState::Quarantined => {}
            }
        }
        if let Some(last) = journal.last() {
            fed.set_global(last.global.clone());
            *rng = Rng::from_state(&last.rng);
        }
    }

    /// Loads the deployment checkpoint at `checkpoint` and replays the
    /// journal at [`RequestJournal::path_for_checkpoint`] onto it —
    /// the one-call crash recovery entry point used by the CLI.
    ///
    /// A corrupt primary checkpoint falls back to the `.prev`
    /// generation its last save rotated aside (see
    /// [`Checkpoint::load_with_fallback_on`]); the journal replay then
    /// rolls the model forward, so the fallback costs nothing that was
    /// journaled.
    ///
    /// # Errors
    ///
    /// Any checkpoint/journal load error, plus everything
    /// [`QuickDrop::resume_requests`] can return.
    pub fn recover_deployment(
        checkpoint: impl AsRef<Path>,
        fed: &mut Federation,
        policy: Option<&GuardPolicy>,
        rng: &mut Rng,
    ) -> Result<(QuickDrop, RequestJournal, Option<MethodOutcome>), ServeError> {
        Self::recover_deployment_on(Arc::new(StdFs), checkpoint, fed, policy, rng)
    }

    /// [`QuickDrop::recover_deployment`] on an explicit [`Vfs`] — the
    /// entry point the crash-point matrix harness drives.
    ///
    /// # Errors
    ///
    /// As [`QuickDrop::recover_deployment`].
    pub fn recover_deployment_on(
        vfs: Arc<dyn Vfs>,
        checkpoint: impl AsRef<Path>,
        fed: &mut Federation,
        policy: Option<&GuardPolicy>,
        rng: &mut Rng,
    ) -> Result<(QuickDrop, RequestJournal, Option<MethodOutcome>), ServeError> {
        let (ckpt, _fell_back) = Checkpoint::load_with_fallback_on(&*vfs, checkpoint.as_ref())?;
        let (global, mut qd) = ckpt.restore()?;
        fed.set_global(global);
        let mut journal = RequestJournal::open_on(
            Arc::clone(&vfs),
            RequestJournal::path_for_checkpoint(checkpoint.as_ref()),
        )?;
        let finished = qd.resume_requests(fed, &mut journal, policy, rng)?;
        Ok((qd, journal, finished))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_without_a_batch_field_read_back_as_unbatched() {
        let record = JournalRecord {
            seq: 3,
            request: UnlearnRequest::Class(1),
            state: RequestState::Received,
            rng: Rng::seed_from(9).state(),
            global: Vec::new(),
            guard: None,
            batch: Some(BatchId(4)),
            reason: None,
        };
        // A version-1 writer never emitted the `batch` key at all;
        // strip it to simulate such a record.
        let serde::Value::Map(entries) = record.to_value() else {
            panic!("records serialize as objects");
        };
        let v1 = serde::Value::Map(entries.into_iter().filter(|(k, _)| k != "batch").collect());
        let read = JournalRecord::from_value(&v1).expect("v1 record must load");
        assert_eq!(read.batch, None);
        assert_eq!(read.seq, 3);
        assert_eq!(read.state, RequestState::Received);
    }

    #[test]
    fn commit_frames_round_trip_and_classify_tail_damage() {
        let rec = |seq| JournalRecord {
            seq,
            request: UnlearnRequest::Class(2),
            state: RequestState::Received,
            rng: Rng::seed_from(1).state(),
            global: Vec::new(),
            guard: None,
            batch: None,
            reason: None,
        };
        let seg = Path::new("j.seg-000000");
        let mut bytes = encode_commit(&[rec(0), rec(1)]).expect("encodable");
        let first_commit = bytes.len();
        bytes.extend(encode_commit(std::slice::from_ref(&rec(2))).expect("encodable"));

        let mut records = Vec::new();
        let scan = RequestJournal::parse_segment(seg, &bytes, true, &mut records).expect("clean");
        assert_eq!((scan.valid_len, scan.trailing), (bytes.len(), 0));
        assert_eq!(
            records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );

        // Tearing the final frame yields the torn-tail shape in the last
        // segment, and CorruptRecord anywhere else.
        let torn = &bytes[..bytes.len() - 3];
        let mut records = Vec::new();
        let scan =
            RequestJournal::parse_segment(seg, torn, true, &mut records).expect("repairable");
        assert_eq!(scan.valid_len, first_commit);
        assert_eq!(scan.trailing, torn.len() - first_commit);
        assert_eq!(records.len(), 2, "the intact commit still loads");
        let err = RequestJournal::parse_segment(seg, torn, false, &mut Vec::new())
            .expect_err("mid-journal tear is corruption");
        assert!(matches!(err, JournalError::CorruptRecord { .. }), "{err}");

        // Flipping a committed byte is corruption even at the tail...
        let mut flipped = bytes.clone();
        flipped[10] ^= 0x40;
        let err = RequestJournal::parse_segment(seg, &flipped, true, &mut Vec::new())
            .expect_err("bad CRC mid-file");
        assert!(matches!(err, JournalError::CorruptRecord { .. }), "{err}");
        // ...unless it hits the segment-final frame, where a torn body
        // behind a landed header is the innocent explanation.
        let last = bytes.len() - 1;
        let mut flipped = bytes;
        flipped[last] ^= 0x40;
        let scan = RequestJournal::parse_segment(seg, &flipped, true, &mut Vec::new())
            .expect("tail-frame CRC failure repairs as torn");
        assert_eq!(scan.valid_len, first_commit);
    }

    #[test]
    fn kill_after_locates_the_op_after_each_frames_fsync() {
        use crate::vfs::FaultFs;
        let rec = |seq| JournalRecord {
            seq,
            request: UnlearnRequest::Class(2),
            state: RequestState::Received,
            rng: Rng::seed_from(1).state(),
            global: Vec::new(),
            guard: None,
            batch: None,
            reason: None,
        };
        // Three frames: records 0-1 as one set, then 2, then 3.
        let write = |fs: &Arc<FaultFs>| -> Result<RequestJournal, JournalError> {
            let mut journal = RequestJournal::open_on(Arc::clone(fs) as Arc<dyn Vfs>, "j")?;
            journal.append_all(vec![rec(0), rec(1)])?;
            journal.append(rec(2))?;
            journal.append(rec(3))?;
            Ok(journal)
        };
        let fs = Arc::new(FaultFs::new());
        let journal = write(&fs).expect("fault-free run");
        let log = fs.op_log();

        // Every record of a frame locates the op right after its fsync.
        let first = journal.kill_after(&log, 0).expect("first frame");
        assert_eq!(journal.kill_after(&log, 1), Some(first));
        assert_eq!(log[first as usize - 1].0, VfsOp::Fsync);
        // Nothing follows the last frame's fsync inside the run.
        assert_eq!(journal.kill_after(&log, 3), Some(log.len() as u64));
        assert_eq!(journal.kill_after(&log, 4), None, "no such record");
        // A log that began after a frame was committed cannot locate it;
        // later frames are located relative to that log's start.
        let later = &log[first as usize..];
        assert_eq!(journal.kill_after(later, 0), None);
        assert_eq!(
            journal.kill_after(later, 2).map(|op| op + first),
            journal.kill_after(&log, 2)
        );

        // Replaying with a located kill leaves exactly the frames up to
        // and including the record's frame durable.
        for (record, durable) in [(0, 2), (1, 2), (2, 3)] {
            let replay = Arc::new(FaultFs::new());
            replay.kill_at(journal.kill_after(&log, record).expect("located"));
            assert!(write(&replay).is_err(), "the kill fires");
            replay.crash();
            let reopened = RequestJournal::open_on(replay, "j").expect("reopens");
            assert_eq!(reopened.records().len(), durable, "record {record}");
        }
    }

    #[test]
    fn located_kill_at_each_boundary_kind_ends_the_journal_in_its_frame() {
        use crate::vfs::FaultFs;
        use RequestState::{Failed, Quarantined, Received, Recovered, Unlearned};
        let rec = |seq, batch, state| JournalRecord {
            seq,
            request: UnlearnRequest::Client(seq as usize),
            state,
            rng: Rng::seed_from(1).state(),
            global: Vec::new(),
            guard: None,
            batch: Some(BatchId(batch)),
            reason: None,
        };
        // The frames serving writes: unit 0 a batch of two that
        // recovers, unit 1 a batch of three that sheds one member,
        // quarantines one and recovers one, unit 2 a singleton.
        let write = |fs: &Arc<FaultFs>| -> Result<RequestJournal, JournalError> {
            let mut j = RequestJournal::open_on(Arc::clone(fs) as Arc<dyn Vfs>, "j")?;
            let rng = Rng::seed_from(1).state();
            let clients = |n: usize| (0..n).map(UnlearnRequest::Client).collect::<Vec<_>>();
            j.append_received(&clients(2), &rng, &[])?;
            j.append(rec(0, 0, Unlearned))?;
            j.append(rec(1, 0, Unlearned))?;
            j.append_all(vec![rec(0, 0, Recovered), rec(1, 0, Recovered)])?;
            j.append_received(&clients(3), &rng, &[])?;
            j.append_all(vec![rec(4, 1, Failed)])?;
            j.append_all(vec![rec(3, 1, Quarantined)])?;
            j.append(rec(2, 1, Unlearned))?;
            j.append_all(vec![rec(2, 1, Recovered)])?;
            j.append_received(&clients(1), &rng, &[])?;
            j.append(rec(5, 2, Unlearned))?;
            j.append_all(vec![rec(5, 2, Recovered)])?;
            Ok(j)
        };
        let fs = Arc::new(FaultFs::new());
        let journal = write(&fs).expect("fault-free run");
        let log = fs.op_log();

        for (unit, state, k, frame) in [
            (0, Received, 1, 0..2),
            (0, Unlearned, 1, 2..3),
            (0, Unlearned, 2, 3..4),
            (0, Recovered, 1, 4..6),
            (1, Received, 1, 6..9),
            (1, Failed, 1, 9..10),
            (1, Quarantined, 1, 10..11),
            (1, Unlearned, 1, 11..12),
            // Past the singleton's size: its one UNLEARNED record.
            (2, Unlearned, 2, 14..15),
            // The last frame: no op follows its fsync inside the run.
            (2, Recovered, 1, 15..16),
        ] {
            let name = format!("unit {unit} {state} #{k}");
            assert_eq!(
                journal.boundary_frame(BatchId(unit), state, k),
                Some(frame.clone()),
                "{name}"
            );
            let op = journal.kill_after(&log, frame.start).expect("located");
            let replay = Arc::new(FaultFs::new());
            replay.kill_at(op);
            let killed = write(&replay);
            assert!(
                killed.is_err() || op == log.len() as u64,
                "{name}: the kill fires"
            );
            replay.crash();
            let reopened = RequestJournal::open_on(replay, "j").expect("reopens");
            let key = |r: &JournalRecord| (r.seq, r.state, r.batch);
            assert_eq!(
                reopened.records().iter().map(key).collect::<Vec<_>>(),
                journal.records()[..frame.end]
                    .iter()
                    .map(key)
                    .collect::<Vec<_>>(),
                "{name}: the journal ends in exactly that frame"
            );
        }
        // Boundaries a unit never wrote locate nothing.
        assert_eq!(journal.boundary_frame(BatchId(0), Quarantined, 1), None);
        assert_eq!(journal.boundary_frame(BatchId(0), Unlearned, 0), None);
        assert_eq!(journal.boundary_frame(BatchId(3), Received, 1), None);
    }

    #[test]
    fn batch_ids_round_trip_and_allocate_monotonically() {
        let v = BatchId(7).to_value();
        assert_eq!(BatchId::from_value(&v).unwrap(), BatchId(7));
        assert_eq!(BatchId(7).to_string(), "batch 7");
    }
}
