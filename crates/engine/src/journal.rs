//! The append-only results journal: one line per classified case, written
//! as each case finishes, so a campaign can be killed at any instant and
//! resumed without losing completed work.
//!
//! The format is a deliberately plain, line-based text format (no serde, no
//! framing) so shards on different machines can write independently and a
//! human can inspect or `grep` a journal mid-run:
//!
//! ```text
//! #amsfi-journal v2
//! #campaign name=pll-sweep cases=24 fingerprint=9f1a2b3c4d5e6f70
//! case 3 at=170000000000 class=transient onset=170001200000 end=171800000000 mismatch=902000000 affected=vctrl forked=170000000000 label=(8\smA;\s100\sps;\s100\sps;\s300\sps)
//! skip 7 at=170000000000 attempts=3 label=(10\smA;\s40\sps;\s40\sps;\s120\sps) error=simulation\sdiverged
//! ```
//!
//! * Times are integer femtoseconds (`-` for "none"), so outcomes
//!   round-trip exactly and merged summaries are byte-identical to an
//!   uninterrupted run.
//! * Every record is a flat list of whitespace-separated `key=value`
//!   tokens. Free-text values (campaign name, case label, error message,
//!   affected signal names) are [escaped](escape) so they contain no
//!   whitespace and no `|` — arbitrary text, including the multi-word
//!   solver errors that broke `--resume` under format v1, round-trips
//!   losslessly. Unknown keys (such as `forked`, written by checkpointed
//!   runs) are ignored on read, so the format is forward-extensible.
//! * The header `fingerprint` hashes the campaign's case list; resuming or
//!   merging with a journal whose fingerprint differs is refused, which
//!   catches "same name, different fault list" mistakes early.
//! * Records are keyed by case index. Duplicate indices are legal (a
//!   killed-and-resumed shard may rewrite its in-flight case); the last
//!   record wins. A `skip` for an index is superseded by a later `case`.
//! * `forked=<t>` on a `case` record means the run was forked from a
//!   golden-prefix checkpoint taken at `t` fs (`-` or absent: simulated
//!   from scratch). Informational — resume does not depend on it.
//! * `quarantine=<reason>` on a `skip` record marks a **poison case**: the
//!   engine exhausted the retry budget and quarantined the case so that
//!   `--resume` never re-runs it. Readers that predate quarantine see a
//!   plain skip (the extra key is ignored), so quarantined journals stay
//!   readable by older tooling.
//! * `simfail=<taxonomy>` on a `case` record carries the structured
//!   [`GuardViolation`] for cases classified `sim-failure`, so the failure
//!   taxonomy round-trips through resume and merge.
//! * `sealed_at=<t>` on a `case` record means an online classifier sealed
//!   the verdict at `t` fs and the simulation was aborted early
//!   (`--early-abort`). Absent for post-hoc classification. Readers that
//!   predate early abort ignore the key.
//! * The journal is append-only and written record-at-a-time, so only its
//!   final line can ever be torn by a kill or a full disk. [`load`]
//!   therefore tolerates (ignores) a malformed or truncated *final* record
//!   line — and invalid UTF-8 anywhere is replaced rather than fatal —
//!   while corruption anywhere else is still reported as an error.

use crate::shard::Shard;
use amsfi_core::{CampaignResult, CaseOutcome, CaseResult, FaultCase, FaultClass};
use amsfi_waves::{GuardViolation, Time, Trace};
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// The format version this module writes and understands.
pub const JOURNAL_VERSION: &str = "v2";

/// Campaign identity recorded in (and validated against) a journal header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalMeta {
    /// Campaign name (informational).
    pub name: String,
    /// Total number of cases in the full (unsharded) campaign.
    pub cases: usize,
    /// FNV-1a hash of the case list; see [`fingerprint`].
    pub fingerprint: u64,
}

impl JournalMeta {
    /// Builds the metadata for a campaign's case list.
    pub fn of(name: &str, cases: &[FaultCase]) -> Self {
        JournalMeta {
            name: name.to_owned(),
            cases: cases.len(),
            fingerprint: fingerprint(name, cases),
        }
    }
}

/// One record read back from a journal.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalEntry {
    /// The case completed and was classified.
    Done(CaseResult),
    /// The case was abandoned after exhausting its retry budget.
    Skipped(SkippedCase),
    /// The case was quarantined as poison: abandoned *and* excluded from
    /// every future `--resume` of this journal.
    Quarantined(QuarantinedCase),
}

/// A copy, for [`assemble`] over borrowed entries.
impl From<&JournalEntry> for JournalEntry {
    fn from(entry: &JournalEntry) -> Self {
        entry.clone()
    }
}

/// A case abandoned under [`crate::ErrorPolicy::SkipAndRecord`].
#[derive(Debug, Clone, PartialEq)]
pub struct SkippedCase {
    /// Index of the case in the campaign's case list.
    pub index: usize,
    /// The case itself.
    pub case: FaultCase,
    /// How many attempts were made.
    pub attempts: u32,
    /// The last error observed.
    pub error: String,
}

/// A poison case: it exhausted the engine's retry budget and was placed in
/// quarantine, so resumed runs skip it instead of dying on it again.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantinedCase {
    /// Index of the case in the campaign's case list.
    pub index: usize,
    /// The case itself.
    pub case: FaultCase,
    /// How many attempts were made before quarantine.
    pub attempts: u32,
    /// Why the case was quarantined (the last error observed).
    pub reason: String,
}

/// Errors reading, writing or validating a journal.
#[derive(Debug)]
pub enum JournalError {
    /// Underlying I/O failure.
    Io(PathBuf, std::io::Error),
    /// The file exists but the engine was not asked to resume.
    ExistsWithoutResume(PathBuf),
    /// Header or record syntax error.
    Malformed(PathBuf, usize, String),
    /// The journal belongs to a different campaign or case list.
    CampaignMismatch {
        /// The journal that does not match.
        path: PathBuf,
        /// What the journal header says.
        found: JournalMeta,
        /// What the running campaign expects.
        expected: JournalMeta,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(path, e) => write!(f, "journal {}: {e}", path.display()),
            JournalError::ExistsWithoutResume(path) => write!(
                f,
                "journal {} already exists; pass --resume to continue it or choose a new path",
                path.display()
            ),
            JournalError::Malformed(path, line, why) => {
                write!(f, "journal {} line {line}: {why}", path.display())
            }
            JournalError::CampaignMismatch {
                path,
                found,
                expected,
            } => write!(
                f,
                "journal {} was written by campaign {:?} ({} cases, fingerprint {:016x}) \
                 but this run is {:?} ({} cases, fingerprint {:016x})",
                path.display(),
                found.name,
                found.cases,
                found.fingerprint,
                expected.name,
                expected.cases,
                expected.fingerprint,
            ),
        }
    }
}

impl std::error::Error for JournalError {}

/// The campaign fingerprint (FNV-1a over name, labels and injection
/// times). Re-exported from [`amsfi_core::identity`], where it also backs
/// the distributed coordinator/worker handshake.
pub use amsfi_core::fingerprint;

/// An open, append-mode journal writer shared by the engine's workers.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    writer: Mutex<BufWriter<File>>,
    /// Records appended by this writer (observability; excludes the header
    /// and any pre-existing resumed records).
    records: std::sync::atomic::AtomicU64,
    /// Bytes appended by this writer, including record newlines.
    bytes: std::sync::atomic::AtomicU64,
}

impl Journal {
    /// Opens `path` for this campaign.
    ///
    /// * If the file does not exist, it is created and the header written.
    /// * If it exists and `resume` is true, the header is validated against
    ///   `meta` and all completed records are returned so the engine can
    ///   skip them.
    /// * If it exists and `resume` is false, the call is refused —
    ///   silently appending a different run to an old journal is almost
    ///   always a mistake.
    ///
    /// # Errors
    ///
    /// See [`JournalError`].
    pub fn open(
        path: &Path,
        meta: &JournalMeta,
        resume: bool,
    ) -> Result<(Self, BTreeMap<usize, JournalEntry>), JournalError> {
        let exists = path.exists();
        let mut entries = BTreeMap::new();
        if exists {
            if !resume {
                return Err(JournalError::ExistsWithoutResume(path.to_owned()));
            }
            let (found, existing) = load(path)?;
            if &found != meta {
                return Err(JournalError::CampaignMismatch {
                    path: path.to_owned(),
                    found,
                    expected: meta.clone(),
                });
            }
            entries = existing;
        }
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| JournalError::Io(path.to_owned(), e))?;
        let mut writer = BufWriter::new(file);
        if !exists {
            writeln!(writer, "#amsfi-journal {JOURNAL_VERSION}")
                .and_then(|()| {
                    writeln!(
                        writer,
                        "#campaign name={} cases={} fingerprint={:016x}",
                        escape(&meta.name),
                        meta.cases,
                        meta.fingerprint
                    )
                })
                .and_then(|()| writer.flush())
                .map_err(|e| JournalError::Io(path.to_owned(), e))?;
        }
        Ok((
            Journal {
                path: path.to_owned(),
                writer: Mutex::new(writer),
                records: std::sync::atomic::AtomicU64::new(0),
                bytes: std::sync::atomic::AtomicU64::new(0),
            },
            entries,
        ))
    }

    /// Appends one completed case and flushes, so the record survives a
    /// kill immediately after. `forked` records the checkpoint instant the
    /// case was forked from (`None` for a from-scratch run).
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] on write failure.
    pub fn record_case(
        &self,
        index: usize,
        result: &CaseResult,
        forked: Option<Time>,
    ) -> Result<(), JournalError> {
        self.append_line(&case_line(index, result, forked))
    }

    /// Appends one pre-formatted record line and flushes.
    ///
    /// This is how the distributed coordinator live-merges records that a
    /// remote worker formatted with [`case_line`]/[`skip_line`]/
    /// [`quarantine_line`] and streamed over the wire — the line lands in
    /// the merged journal byte-for-byte as a local run would have written
    /// it. The caller is responsible for passing a valid v2 record
    /// (validate with [`parse_line`] first); a raw newline would corrupt
    /// the journal framing.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] on write failure.
    pub fn append_line(&self, line: &str) -> Result<(), JournalError> {
        use std::sync::atomic::Ordering;
        let mut writer = self.writer.lock().expect("journal writer poisoned");
        writeln!(writer, "{line}")
            .and_then(|()| writer.flush())
            .map_err(|e| JournalError::Io(self.path.clone(), e))?;
        self.records.fetch_add(1, Ordering::Relaxed);
        self.bytes
            .fetch_add(line.len() as u64 + 1, Ordering::Relaxed);
        Ok(())
    }

    /// Records appended by this writer so far (excludes the header and any
    /// records written by previous runs of a resumed journal).
    pub fn records_written(&self) -> u64 {
        self.records.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Bytes appended by this writer so far, including record newlines.
    pub fn bytes_written(&self) -> u64 {
        self.bytes.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The path this journal writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Reads a journal: header metadata plus all records, keyed by case index
/// (last record per index wins, `case` superseding `skip`).
///
/// Robust against a torn tail: the journal is append-only, so a kill (or a
/// full disk) can corrupt at most its final line. A malformed or truncated
/// *final* record line is silently ignored — the engine re-runs that case —
/// and invalid UTF-8 is lossily replaced. Corruption on any non-final line
/// is still an error.
///
/// # Errors
///
/// See [`JournalError`].
pub fn load(path: &Path) -> Result<(JournalMeta, BTreeMap<usize, JournalEntry>), JournalError> {
    let bytes = std::fs::read(path).map_err(|e| JournalError::Io(path.to_owned(), e))?;
    let text = String::from_utf8_lossy(&bytes);
    let bad = |line_nr: usize, why: &str| {
        JournalError::Malformed(path.to_owned(), line_nr, why.to_owned())
    };

    let lines: Vec<&str> = text.lines().collect();
    let first = *lines.first().ok_or_else(|| bad(1, "empty journal"))?;
    if first.trim() != format!("#amsfi-journal {JOURNAL_VERSION}") {
        return Err(bad(1, "not an amsfi journal (bad magic line)"));
    }
    let header = *lines
        .get(1)
        .ok_or_else(|| bad(2, "missing campaign header"))?;
    let meta = parse_header(header).ok_or_else(|| bad(2, "malformed campaign header"))?;

    let mut entries: BTreeMap<usize, JournalEntry> = BTreeMap::new();
    let last_nr = lines.len();
    for (idx, line) in lines.iter().enumerate().skip(2) {
        let line_nr = idx + 1;
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((index, entry)) = parse_line(line) else {
            if line_nr == last_nr {
                // Torn tail: the write was interrupted mid-record. The
                // case it described is simply still pending.
                continue;
            }
            return Err(bad(line_nr, "malformed record"));
        };
        if meta.cases > 0 && index >= meta.cases {
            if line_nr == last_nr {
                continue;
            }
            return Err(bad(line_nr, "case index out of range for campaign"));
        }
        apply_entry(&mut entries, index, entry);
    }
    Ok((meta, entries))
}

/// Record-precedence rule shared by [`load`], [`merge`] and the
/// distributed coordinator's live merge: the last record for an index
/// wins, except a completed case is never demoted to a skip or a
/// quarantine (a resumed run may re-attempt and then succeed).
pub fn apply_entry(entries: &mut BTreeMap<usize, JournalEntry>, index: usize, entry: JournalEntry) {
    match (&entry, entries.get(&index)) {
        (JournalEntry::Skipped(_) | JournalEntry::Quarantined(_), Some(JournalEntry::Done(_))) => {}
        _ => {
            entries.insert(index, entry);
        }
    }
}

/// Loads several shard journals for the same campaign and merges their
/// records into one deterministic, index-ordered map.
///
/// # Errors
///
/// Fails if any journal is unreadable or the journals disagree about the
/// campaign (name, case count or fingerprint).
pub fn merge(
    paths: &[PathBuf],
) -> Result<(JournalMeta, BTreeMap<usize, JournalEntry>), JournalError> {
    assert!(!paths.is_empty(), "nothing to merge");
    let (meta, mut entries) = load(&paths[0])?;
    for path in &paths[1..] {
        let (other_meta, other) = load(path)?;
        if other_meta != meta {
            return Err(JournalError::CampaignMismatch {
                path: path.clone(),
                found: other_meta,
                expected: meta,
            });
        }
        for (index, entry) in other {
            apply_entry(&mut entries, index, entry);
        }
    }
    Ok((meta, entries))
}

/// Builds a [`CampaignResult`] (with an empty golden trace) plus the skip
/// and quarantine lists from merged journal entries in case-index order —
/// what the `amsfi merge` subcommand reports on, so two merges of the same
/// shards produce byte-identical reports. Owned entries are moved into the
/// report as they come, borrowed ones copied: a caller holding a map passes
/// `into_values()` or `values()`.
pub fn assemble<E: Into<JournalEntry>>(
    entries: impl IntoIterator<Item = E>,
) -> (CampaignResult, Vec<SkippedCase>, Vec<QuarantinedCase>) {
    let mut skipped = Vec::new();
    let mut quarantined = Vec::new();
    let cases = entries
        .into_iter()
        .filter_map(|entry| match entry.into() {
            JournalEntry::Done(result) => Some(result),
            JournalEntry::Skipped(skip) => {
                skipped.push(skip);
                None
            }
            JournalEntry::Quarantined(q) => {
                quarantined.push(q);
                None
            }
        })
        .collect();
    (
        CampaignResult {
            golden: Trace::new(),
            cases,
        },
        skipped,
        quarantined,
    )
}

/// Which of `total` cases are still missing from `entries` and owned by
/// `shard` — the work list of a (resumed) run. Completed cases are done;
/// quarantined cases are poison and deliberately never re-claimed.
pub fn pending(entries: &BTreeMap<usize, JournalEntry>, total: usize, shard: Shard) -> Vec<usize> {
    shard
        .case_indices(total)
        .filter(|i| !is_settled(entries, *i))
        .collect()
}

/// The complement of [`pending`]: which of `total` cases owned by
/// `shard` are already settled in `entries` (done or quarantined) and
/// must never be re-executed. This is the `done=` list a coordinator
/// hands out when re-leasing a shard after a worker death or its own
/// crash-recovery replay.
pub fn settled(entries: &BTreeMap<usize, JournalEntry>, total: usize, shard: Shard) -> Vec<usize> {
    shard
        .case_indices(total)
        .filter(|i| is_settled(entries, *i))
        .collect()
}

fn is_settled(entries: &BTreeMap<usize, JournalEntry>, index: usize) -> bool {
    matches!(
        entries.get(&index),
        Some(JournalEntry::Done(_) | JournalEntry::Quarantined(_))
    )
}

/// Formats the journal v2 `case` record for one classified case. Every
/// record reaches a journal through [`Journal::append_line`]; public so
/// remote workers can stream records that merge byte-identically with
/// locally written ones.
pub fn case_line(index: usize, result: &CaseResult, forked: Option<Time>) -> String {
    let o = &result.outcome;
    let simfail = match &o.failure {
        Some(f) => format!(" simfail={}", escape(&f.to_string())),
        None => String::new(),
    };
    let sealed = match o.sealed_at {
        Some(t) => format!(" sealed_at={}", t.as_fs()),
        None => String::new(),
    };
    format!(
        "case {index} at={} class={} onset={} end={} mismatch={} affected={} forked={}{sealed}{simfail} label={}",
        result.case.injected_at.as_fs(),
        o.class,
        opt_fs(o.error_onset),
        opt_fs(o.error_end),
        o.total_mismatch.as_fs(),
        if o.affected.is_empty() {
            "-".to_owned()
        } else {
            o.affected
                .iter()
                .map(|s| escape(s))
                .collect::<Vec<_>>()
                .join("|")
        },
        opt_fs(forked),
        escape(&result.case.label),
    )
}

/// Formats the journal v2 `skip` record for one abandoned case.
pub fn skip_line(skip: &SkippedCase) -> String {
    format!(
        "skip {} at={} attempts={} label={} error={}",
        skip.index,
        skip.case.injected_at.as_fs(),
        skip.attempts,
        escape(&skip.case.label),
        escape(&skip.error),
    )
}

/// Formats the journal v2 quarantine record for one poison case: a `skip`
/// record with an extra `quarantine=<reason>` key, so readers that predate
/// quarantine degrade gracefully to a plain skip.
pub fn quarantine_line(q: &QuarantinedCase) -> String {
    format!(
        "skip {} at={} attempts={} label={} error={} quarantine={}",
        q.index,
        q.case.injected_at.as_fs(),
        q.attempts,
        escape(&q.case.label),
        escape(&q.reason),
        escape(&q.reason),
    )
}

/// Parses one journal v2 record line into `(case index, entry)`.
///
/// `None` on malformed input. This is [`load`]'s per-line parser exposed
/// for the distributed coordinator, which validates each streamed record
/// before appending it to the campaign's merged journal.
pub fn parse_line(line: &str) -> Option<(usize, JournalEntry)> {
    let entry = parse_record(line)?;
    let index = match &entry {
        JournalEntry::Done(_) => index_of(line),
        JournalEntry::Skipped(s) => Some(s.index),
        JournalEntry::Quarantined(q) => Some(q.index),
    }?;
    Some((index, entry))
}

fn opt_fs(t: Option<Time>) -> String {
    t.map_or_else(|| "-".to_owned(), |t| t.as_fs().to_string())
}

fn parse_opt_fs(s: &str) -> Option<Option<Time>> {
    if s == "-" {
        Some(None)
    } else {
        s.parse::<i64>().ok().map(|fs| Some(Time::from_fs(fs)))
    }
}

/// Escapes free text into a whitespace- and `|`-free token value.
///
/// Journals are line-oriented and records are whitespace-tokenised, so
/// values must not contain whitespace; `|` is the `affected` list
/// separator. The escaping is lossless — see [`unescape`] — which is what
/// makes arbitrary solver error messages survive a write/`--resume` round
/// trip (format v1 word-split them and corrupted resumed reports). Public
/// because the distributed wire protocol tokenises its frames the same
/// way.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            ' ' => out.push_str("\\s"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '|' => out.push_str("\\p"),
            // Any other whitespace (vertical tab, form feed, NEL, U+2028…)
            // or control character would still break tokenisation or the
            // line framing: hex-escape it.
            c if c.is_whitespace() || c.is_control() => {
                out.push_str(&format!("\\x{:x};", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Inverse of [`escape`]; `None` on a malformed escape sequence.
pub fn unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '\\' => out.push('\\'),
            's' => out.push(' '),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            'p' => out.push('|'),
            'x' => {
                let hex: String = chars.by_ref().take_while(|&c| c != ';').collect();
                out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
            }
            _ => return None,
        }
    }
    Some(out)
}

fn parse_header(line: &str) -> Option<JournalMeta> {
    let rest = line.strip_prefix("#campaign ")?;
    let mut name = None;
    let mut cases = None;
    let mut fp = None;
    for token in rest.split_whitespace() {
        let (key, value) = token.split_once('=')?;
        match key {
            "name" => name = Some(unescape(value)?),
            "cases" => cases = value.parse::<usize>().ok(),
            "fingerprint" => fp = u64::from_str_radix(value, 16).ok(),
            _ => {}
        }
    }
    Some(JournalMeta {
        name: name?,
        cases: cases?,
        fingerprint: fp?,
    })
}

fn index_of(line: &str) -> Option<usize> {
    line.split_whitespace().nth(1)?.parse().ok()
}

fn parse_record(line: &str) -> Option<JournalEntry> {
    let mut tokens = line.split_whitespace();
    let kind = tokens.next()?;
    let index: usize = tokens.next()?.parse().ok()?;
    let mut at = None;
    let mut class = None;
    let mut onset = None;
    let mut end = None;
    let mut mismatch = None;
    let mut affected = None;
    let mut attempts = None;
    let mut label = None;
    let mut error = None;
    let mut quarantine = None;
    let mut simfail = None;
    let mut sealed_at = None;
    for token in tokens {
        // `split_once` keeps any further `=` inside the value.
        let (key, value) = token.split_once('=')?;
        match key {
            "at" => at = Some(Time::from_fs(value.parse::<i64>().ok()?)),
            "class" => class = Some(value.parse::<FaultClass>().ok()?),
            "onset" => onset = Some(parse_opt_fs(value)?),
            "end" => end = Some(parse_opt_fs(value)?),
            "mismatch" => mismatch = Some(Time::from_fs(value.parse::<i64>().ok()?)),
            "affected" => {
                affected = Some(if value == "-" {
                    Arc::default()
                } else {
                    value
                        .split('|')
                        .map(unescape)
                        .collect::<Option<Arc<[String]>>>()?
                });
            }
            "attempts" => attempts = Some(value.parse::<u32>().ok()?),
            "label" => label = Some(unescape(value)?),
            "error" => error = Some(unescape(value)?),
            "quarantine" => quarantine = Some(unescape(value)?),
            "simfail" => simfail = Some(unescape(value)?.parse::<GuardViolation>().ok()?),
            "sealed_at" => sealed_at = Some(Time::from_fs(value.parse::<i64>().ok()?)),
            // Unknown keys (e.g. `forked`) are informational: skip them so
            // newer writers stay readable by this parser.
            _ => {}
        }
    }
    let case = FaultCase::new(label?, at?);
    match kind {
        "case" => Some(JournalEntry::Done(CaseResult {
            case,
            outcome: CaseOutcome {
                class: class?,
                error_onset: onset?,
                error_end: end?,
                total_mismatch: mismatch?,
                affected: affected?,
                failure: simfail,
                sealed_at,
            },
        })),
        "skip" => match quarantine {
            Some(reason) => Some(JournalEntry::Quarantined(QuarantinedCase {
                index,
                case,
                attempts: attempts?,
                reason,
            })),
            None => Some(JournalEntry::Skipped(SkippedCase {
                index,
                case,
                attempts: attempts?,
                error: error.unwrap_or_default(),
            })),
        },
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn unique_path(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "amsfi-journal-test-{}-{tag}-{n}.journal",
            std::process::id()
        ))
    }

    fn sample_cases() -> Vec<FaultCase> {
        (0..4)
            .map(|i| FaultCase::new(format!("bit{i} @ 5 us"), Time::from_us(5)))
            .collect()
    }

    fn sample_result(i: usize) -> CaseResult {
        CaseResult {
            case: sample_cases()[i].clone(),
            outcome: CaseOutcome {
                class: if i.is_multiple_of(2) {
                    FaultClass::NoEffect
                } else {
                    FaultClass::Failure
                },
                error_onset: (i % 2 == 1).then(|| Time::from_ns(100)),
                error_end: (i % 2 == 1).then(|| Time::from_ns(900)),
                total_mismatch: Time::from_ns(800 * (i % 2) as i64),
                affected: if i % 2 == 1 {
                    Arc::new(["out".to_owned()])
                } else {
                    Arc::default()
                },
                failure: None,
                sealed_at: (i % 3 == 1).then(|| Time::from_ns(950)),
            },
        }
    }

    #[test]
    fn records_round_trip_exactly() {
        let path = unique_path("roundtrip");
        let cases = sample_cases();
        let meta = JournalMeta::of("toy", &cases);
        let (journal, existing) = Journal::open(&path, &meta, false).unwrap();
        assert!(existing.is_empty());
        for i in 0..3 {
            let forked = (i > 0).then(|| Time::from_us(5));
            journal
                .append_line(&case_line(i, &sample_result(i), forked))
                .unwrap();
        }
        journal
            .append_line(&skip_line(&SkippedCase {
                index: 3,
                case: cases[3].clone(),
                attempts: 2,
                error: "solver blew\nup".to_owned(),
            }))
            .unwrap();
        drop(journal);

        let (found, entries) = load(&path).unwrap();
        assert_eq!(found, meta);
        assert_eq!(entries.len(), 4);
        for i in 0..3 {
            match &entries[&i] {
                JournalEntry::Done(r) => assert_eq!(r, &sample_result(i)),
                other => panic!("expected Done, got {other:?}"),
            }
        }
        match &entries[&3] {
            JournalEntry::Skipped(s) => {
                assert_eq!(s.attempts, 2);
                // v2 escapes instead of sanitising: the error is lossless.
                assert_eq!(s.error, "solver blew\nup");
            }
            other => panic!("expected Skipped, got {other:?}"),
        }
        // The forked instants were written and tolerated by the parser.
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("forked=5000000000"), "{text}");
        assert!(text.contains("forked=-"), "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn hostile_error_and_label_text_round_trips() {
        let path = unique_path("hostile");
        // Labels and errors full of the characters that broke format v1:
        // whitespace, `=`, `|`, the ` error=` field marker itself, and
        // exotic Unicode whitespace.
        let label = "pfd.up error= |weird\ttarget| a=b";
        let error = "diverged: dt=1e-15 |state| at line\u{2028}two \\ end ";
        let cases = vec![FaultCase::new(label, Time::from_us(5)); 2];
        let meta = JournalMeta::of("hostile name=x", &cases);
        let (journal, _) = Journal::open(&path, &meta, false).unwrap();
        journal
            .append_line(&skip_line(&SkippedCase {
                index: 0,
                case: cases[0].clone(),
                attempts: 1,
                error: error.to_owned(),
            }))
            .unwrap();
        let mut done = sample_result(1);
        done.case = cases[1].clone();
        done.outcome.affected = Arc::new(["a b".to_owned(), "c|d".to_owned()]);
        journal.append_line(&case_line(1, &done, None)).unwrap();
        drop(journal);

        // Re-open with resume: exactly what a killed run does.
        let (_, entries) = Journal::open(&path, &meta, true).unwrap();
        match &entries[&0] {
            JournalEntry::Skipped(s) => {
                assert_eq!(s.error, error);
                assert_eq!(&*s.case.label, label);
            }
            other => panic!("expected Skipped, got {other:?}"),
        }
        match &entries[&1] {
            JournalEntry::Done(r) => assert_eq!(r, &done),
            other => panic!("expected Done, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_refuses_existing_without_resume() {
        let path = unique_path("noresume");
        let meta = JournalMeta::of("toy", &sample_cases());
        let (j, _) = Journal::open(&path, &meta, false).unwrap();
        drop(j);
        let err = Journal::open(&path, &meta, false).unwrap_err();
        assert!(matches!(err, JournalError::ExistsWithoutResume(_)), "{err}");
        // With resume it opens fine and returns the (empty) record set.
        let (_, entries) = Journal::open(&path, &meta, true).unwrap();
        assert!(entries.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_rejects_a_different_campaign() {
        let path = unique_path("mismatch");
        let meta = JournalMeta::of("toy", &sample_cases());
        let (j, _) = Journal::open(&path, &meta, false).unwrap();
        drop(j);
        let other = JournalMeta::of("other", &sample_cases());
        let err = Journal::open(&path, &other, true).unwrap_err();
        assert!(
            matches!(err, JournalError::CampaignMismatch { .. }),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn later_case_record_supersedes_skip_but_not_vice_versa() {
        let path = unique_path("supersede");
        let cases = sample_cases();
        let meta = JournalMeta::of("toy", &cases);
        let (journal, _) = Journal::open(&path, &meta, false).unwrap();
        journal
            .append_line(&skip_line(&SkippedCase {
                index: 1,
                case: cases[1].clone(),
                attempts: 1,
                error: "first try".to_owned(),
            }))
            .unwrap();
        journal
            .append_line(&case_line(1, &sample_result(1), None))
            .unwrap();
        // A stray later skip must not demote the completed case.
        journal
            .append_line(&skip_line(&SkippedCase {
                index: 1,
                case: cases[1].clone(),
                attempts: 1,
                error: "late duplicate".to_owned(),
            }))
            .unwrap();
        drop(journal);
        let (_, entries) = load(&path).unwrap();
        assert!(matches!(&entries[&1], JournalEntry::Done(_)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn merge_combines_disjoint_shards() {
        let cases = sample_cases();
        let meta = JournalMeta::of("toy", &cases);
        let paths = [unique_path("merge0"), unique_path("merge1")];
        for (shard, path) in paths.iter().enumerate() {
            let (journal, _) = Journal::open(path, &meta, false).unwrap();
            for i in (shard..4).step_by(2) {
                journal
                    .append_line(&case_line(i, &sample_result(i), None))
                    .unwrap();
            }
        }
        let (meta_back, entries) = merge(&paths).unwrap();
        assert_eq!(meta_back, meta);
        assert_eq!(entries.len(), 4);
        let (result, skipped, quarantined) = assemble(entries.into_values());
        assert!(skipped.is_empty());
        assert!(quarantined.is_empty());
        assert_eq!(result.cases.len(), 4);
        // Index order regardless of which shard wrote what.
        assert_eq!(&*result.cases[0].case.label, "bit0 @ 5 us");
        assert_eq!(&*result.cases[3].case.label, "bit3 @ 5 us");
        for path in &paths {
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn quarantine_round_trips_and_is_excluded_from_pending() {
        let path = unique_path("quarantine");
        let cases = sample_cases();
        let meta = JournalMeta::of("toy", &cases);
        let (journal, _) = Journal::open(&path, &meta, false).unwrap();
        let q = QuarantinedCase {
            index: 2,
            case: cases[2].clone(),
            attempts: 4,
            reason: "non-finite signal=vctrl t=170000000000".to_owned(),
        };
        journal.append_line(&quarantine_line(&q)).unwrap();
        journal
            .append_line(&skip_line(&SkippedCase {
                index: 1,
                case: cases[1].clone(),
                attempts: 1,
                error: "transient flake".to_owned(),
            }))
            .unwrap();
        drop(journal);

        let (_, entries) = load(&path).unwrap();
        assert_eq!(entries[&2], JournalEntry::Quarantined(q.clone()));
        // Plain skips stay pending (they are retried on resume); the
        // quarantined poison case is not.
        assert_eq!(pending(&entries, 4, Shard::FULL), vec![0, 1, 3]);
        let (_, skipped, quarantined) = assemble(entries.into_values());
        assert_eq!(skipped.len(), 1);
        assert_eq!(quarantined, vec![q]);

        // Merging preserves the quarantine record.
        let (_, merged) = merge(std::slice::from_ref(&path)).unwrap();
        assert!(matches!(&merged[&2], JournalEntry::Quarantined(_)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn quarantine_never_demotes_a_done_case() {
        let path = unique_path("quarantine-demote");
        let cases = sample_cases();
        let meta = JournalMeta::of("toy", &cases);
        let (journal, _) = Journal::open(&path, &meta, false).unwrap();
        journal
            .append_line(&case_line(1, &sample_result(1), None))
            .unwrap();
        journal
            .append_line(&quarantine_line(&QuarantinedCase {
                index: 1,
                case: cases[1].clone(),
                attempts: 4,
                reason: "late duplicate".to_owned(),
            }))
            .unwrap();
        drop(journal);
        let (_, entries) = load(&path).unwrap();
        assert!(matches!(&entries[&1], JournalEntry::Done(_)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn simfail_key_round_trips_the_failure_taxonomy() {
        let path = unique_path("simfail");
        let cases = sample_cases();
        let meta = JournalMeta::of("toy", &cases);
        let (journal, _) = Journal::open(&path, &meta, false).unwrap();
        // Every violation a case can be booked with (a retired run is
        // booked with its watch's verdict instead).
        let failures = [
            GuardViolation::NonFinite {
                signal: "vctrl out=1".to_owned(),
                t: Time::from_ns(170),
            },
            GuardViolation::StepBudgetExhausted {
                steps: 1_000_001,
                t: Time::from_us(3),
            },
            GuardViolation::TimestepCollapse {
                dt: Time::from_fs(3),
                min_dt: Time::from_ps(1),
                t: Time::from_ns(9),
            },
            GuardViolation::Deadline {
                t: Time::from_us(1),
            },
        ];
        let results: Vec<CaseResult> = failures
            .into_iter()
            .enumerate()
            .map(|(i, failure)| {
                let mut result = sample_result(i);
                result.outcome.class = FaultClass::SimFailure;
                result.outcome.failure = Some(failure);
                result
            })
            .collect();
        for (i, result) in results.iter().enumerate() {
            journal.append_line(&case_line(i, result, None)).unwrap();
        }
        drop(journal);
        let (_, entries) = load(&path).unwrap();
        for (i, result) in results.iter().enumerate() {
            match &entries[&i] {
                JournalEntry::Done(r) => assert_eq!(r, result),
                other => panic!("expected Done, got {other:?}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_final_line_is_tolerated_but_interior_corruption_is_not() {
        use std::io::Write as _;
        let path = unique_path("torn");
        let cases = sample_cases();
        let meta = JournalMeta::of("toy", &cases);
        let (journal, _) = Journal::open(&path, &meta, false).unwrap();
        journal
            .append_line(&case_line(0, &sample_result(0), None))
            .unwrap();
        journal
            .append_line(&case_line(1, &sample_result(1), None))
            .unwrap();
        drop(journal);

        // Simulate a kill mid-write: append a truncated record with some
        // invalid UTF-8 thrown in.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"case 2 at=5000000000 cla\xFF\xFE").unwrap();
        drop(f);
        let (_, entries) = load(&path).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(pending(&entries, 4, Shard::FULL), vec![2, 3]);

        // The same garbage in the middle of the journal is corruption.
        let text = String::from_utf8_lossy(&std::fs::read(&path).unwrap()).into_owned();
        let rotated: String = {
            let mut lines: Vec<&str> = text.lines().collect();
            let torn = lines.pop().unwrap();
            lines.insert(2, torn);
            lines.join("\n") + "\n"
        };
        std::fs::write(&path, rotated).unwrap();
        assert!(matches!(load(&path), Err(JournalError::Malformed(_, _, _))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pending_respects_shard_and_completed_entries() {
        let path = unique_path("pending");
        let cases = sample_cases();
        let meta = JournalMeta::of("toy", &cases);
        let (journal, _) = Journal::open(&path, &meta, false).unwrap();
        journal
            .append_line(&case_line(0, &sample_result(0), None))
            .unwrap();
        drop(journal);
        let (_, entries) = load(&path).unwrap();
        assert_eq!(pending(&entries, 4, Shard::FULL), vec![1, 2, 3]);
        let shard0: Shard = "0/2".parse().unwrap();
        assert_eq!(pending(&entries, 4, shard0), vec![2]);
        std::fs::remove_file(&path).ok();
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Characters chosen to stress the v2 escaping: plain text, every
        /// escaped class (whitespace, `|`, `\`, controls, Unicode spaces),
        /// and the `key=value` / ` error=` framing characters.
        fn hostile_chars() -> Vec<char> {
            vec![
                'a', 'Z', '0', '.', ':', ';', '(', ')', '/', '-', '_', 'µ', '→', ' ', '\t', '\n',
                '\r', '|', '\\', '=', '#', '\u{b}', '\u{c}', '\u{a0}', '\u{2028}', '\u{0}', 's',
                'x', 'p', 'n',
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn arbitrary_error_and_label_strings_round_trip(
                error_chars in prop::collection::vec(prop::sample::select(hostile_chars()), 0..40),
                label_chars in prop::collection::vec(prop::sample::select(hostile_chars()), 0..20),
                attempts in 1u32..9,
            ) {
                let error: String = error_chars.into_iter().collect();
                let label: String = label_chars.into_iter().collect();
                let path = unique_path("prop");
                let cases = vec![FaultCase::new(label.clone(), Time::from_ns(17))];
                let meta = JournalMeta::of("prop", &cases);
                let (journal, _) = Journal::open(&path, &meta, false).unwrap();
                journal
                    .append_line(&skip_line(&SkippedCase {
                        index: 0,
                        case: cases[0].clone(),
                        attempts,
                        error: error.clone(),
                    }))
                    .unwrap();
                drop(journal);
                let (_, entries) = load(&path).unwrap();
                std::fs::remove_file(&path).ok();
                match &entries[&0] {
                    JournalEntry::Skipped(s) => {
                        prop_assert_eq!(&s.error, &error);
                        prop_assert_eq!(&*s.case.label, label.as_str());
                        prop_assert_eq!(s.attempts, attempts);
                    }
                    other => prop_assert!(false, "expected Skipped, got {:?}", other),
                }
            }

            #[test]
            fn escape_unescape_is_the_identity(
                chars in prop::collection::vec(prop::sample::select(hostile_chars()), 0..60),
            ) {
                let s: String = chars.into_iter().collect();
                let escaped = escape(&s);
                prop_assert!(
                    !escaped.chars().any(|c| c.is_whitespace() || c == '|'),
                    "escaped text still has separators: {:?}",
                    escaped
                );
                prop_assert_eq!(unescape(&escaped), Some(s));
            }
        }
    }

    #[test]
    fn fingerprint_depends_on_labels_and_times() {
        let a = sample_cases();
        let mut b = sample_cases();
        b[2].injected_at = Time::from_us(6);
        assert_ne!(fingerprint("toy", &a), fingerprint("toy", &b));
        assert_ne!(fingerprint("toy", &a), fingerprint("other", &a));
        assert_eq!(fingerprint("toy", &a), fingerprint("toy", &sample_cases()));
    }
}
