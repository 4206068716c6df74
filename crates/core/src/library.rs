//! The learned-program store: *learn once, apply forever*.
//!
//! The paper's deployment story is that transformation programs verified by a
//! human are an asset: once an expert has confirmed that `SubStr(…) ⊕
//! ConstantStr(". ") ⊕ SubStr(…)` turns `"Lee, Mary"` into `"M. Lee"`, that
//! knowledge should standardize *new* records as they arrive instead of being
//! re-learned (and re-reviewed) per batch. [`ProgramLibrary`] is that asset:
//!
//! * it stores, per column, the [`ApprovedGroup`]s a human (or simulated)
//!   oracle confirmed — the shared [`Program`], the approved [`Direction`]
//!   and the exact member pairs;
//! * it serializes to a versioned, line-oriented **text snapshot**
//!   ([`ProgramLibrary::to_snapshot`] / [`ProgramLibrary::from_snapshot`])
//!   using the DSL's display syntax, so a library survives process restarts
//!   and can be inspected (and edited) with a text editor;
//! * its **apply path** ([`ProgramLibrary::applier`]) standardizes incoming
//!   records without re-learning: exact approved pairs first, then known
//!   canonical forms, then deterministic forward programs as generalizers —
//!   and values nothing in the library covers are *reported as unmatched*
//!   rather than silently passed through.
//!
//! The `ec serve` service loads a snapshot at startup, applies it on
//! `POST /apply`, and exposes it on `GET /library`; the CLI writes snapshots
//! via `--save-library` and applies them via `ec apply`.

use ec_data::csv::CsvWriter;
use ec_data::{DatasetIoError, RecordStream};
use ec_dsl::parse::{quote, unquote};
use ec_dsl::{Program, StrCtx};
use ec_grouping::Group;
use ec_replace::Direction;
use std::collections::BTreeMap;
use std::fmt;
use std::io::Write;
use std::time::{Duration, Instant};

/// Magic first line of the snapshot format (the trailing integer is the
/// format version, bumped on incompatible changes).
const SNAPSHOT_HEADER: &str = "ec-program-library v1";

/// A group the oracle approved, with the direction it chose.
#[derive(Debug, Clone, PartialEq)]
pub struct ApprovedGroup {
    /// The approved group (shared program + member replacements).
    pub group: Group,
    /// The direction the oracle chose.
    pub direction: Direction,
}

/// One human-verified transformation stored in the library.
#[derive(Debug, Clone)]
pub struct LearnedProgram {
    /// The shared transformation program, when the group had one. The program
    /// maps `lhs`-shaped strings to `rhs`-shaped strings, so it generalizes
    /// to unseen values only in the [`Direction::Forward`] orientation.
    pub program: Option<Program>,
    /// The approved replacement direction.
    pub direction: Direction,
    /// The exact approved pairs, oriented `from → to` (already flipped for
    /// backward approvals).
    pub rewrites: Vec<(String, String)>,
    /// Recency stamp for capacity eviction: the library version at which the
    /// entry was last recorded or merged into. Runtime bookkeeping only — it
    /// is not serialized and does not participate in equality.
    touched: u64,
    /// Wall-clock stamp for TTL eviction: when the entry was last recorded,
    /// merged into, or loaded from a snapshot *in this process*. Stamping at
    /// snapshot load matters: a restarted server's entries age from the load,
    /// not from whenever the first sweep happens to run — lazily stamping at
    /// the first sweep used to hand stale snapshot entries a full extra TTL.
    /// Runtime bookkeeping only, like `touched`.
    touched_at: Option<Instant>,
}

impl PartialEq for LearnedProgram {
    fn eq(&self, other: &Self) -> bool {
        self.program == other.program
            && self.direction == other.direction
            && self.rewrites == other.rewrites
    }
}

/// What happened to one value on the apply path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValueOutcome {
    /// An entry rewrote the value.
    Rewritten(String),
    /// The value is already a known canonical form (or a program maps it to
    /// itself); nothing to do.
    Unchanged,
    /// No library entry covers the value.
    Unmatched,
}

/// Counters (plus a capped sample of unmatched values) from one apply run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ApplyReport {
    /// Records processed.
    pub records: usize,
    /// Cells rewritten to a canonical form.
    pub cells_rewritten: usize,
    /// Cells already canonical (matched, no rewrite needed).
    pub cells_unchanged: usize,
    /// Cells no library entry covered.
    pub cells_unmatched: usize,
    /// Up to [`ApplyReport::SAMPLE_CAP`] distinct `(column, value)` pairs
    /// that went unmatched, in first-seen order.
    pub unmatched_sample: Vec<(String, String)>,
}

impl ApplyReport {
    /// Maximum number of distinct unmatched `(column, value)` pairs sampled.
    pub const SAMPLE_CAP: usize = 10;

    fn note_unmatched(&mut self, column: &str, value: &str) {
        self.cells_unmatched += 1;
        if self.unmatched_sample.len() < Self::SAMPLE_CAP
            && !self
                .unmatched_sample
                .iter()
                .any(|(c, v)| c == column && v == value)
        {
            self.unmatched_sample
                .push((column.to_string(), value.to_string()));
        }
    }
}

impl fmt::Display for ApplyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} records: {} cells rewritten, {} already canonical, {} unmatched",
            self.records, self.cells_rewritten, self.cells_unchanged, self.cells_unmatched
        )
    }
}

/// Why a streamed apply ([`LibraryApplier::apply_stream`]) stopped.
#[derive(Debug)]
pub enum ApplyError {
    /// A record could not be read from the input stream.
    Input(DatasetIoError),
    /// The output could not be written.
    Output(std::io::Error),
}

/// A failure while parsing a library snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LibraryError {
    /// 1-based line number of the offending line (0 for whole-document
    /// problems such as a missing header).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for LibraryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "library snapshot line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for LibraryError {}

/// The store of human-verified transformation programs, keyed by column
/// name. See the module docs for the role it plays.
///
/// A long-running server accumulates entries forever unless told otherwise;
/// [`ProgramLibrary::set_column_capacity`] caps the entries kept *per
/// column*, evicting the least recently learned entry (the one whose last
/// [`record`]/[`merge`] touch is oldest, ties broken by insertion order)
/// once a column overflows. Evictions are counted in
/// [`ProgramLibrary::evictions`] — `ec serve` reports them on `GET
/// /library`.
///
/// [`record`]: ProgramLibrary::record
/// [`merge`]: ProgramLibrary::merge
#[derive(Debug, Clone, Default)]
pub struct ProgramLibrary {
    /// Bumped on every mutation; persisted in snapshots so consumers can tell
    /// libraries apart.
    version: u64,
    columns: BTreeMap<String, Vec<LearnedProgram>>,
    /// Maximum entries kept per column (`None` = unbounded). Runtime
    /// configuration — not serialized and not part of equality.
    column_capacity: Option<usize>,
    /// Maximum age of an untouched entry (`None` = entries never expire).
    /// Runtime configuration, like `column_capacity`.
    ttl: Option<Duration>,
    /// Entries evicted so far (runtime statistics, like `column_capacity`),
    /// by the capacity cap or the TTL.
    evictions: u64,
}

impl PartialEq for ProgramLibrary {
    fn eq(&self, other: &Self) -> bool {
        // The capacity knob and eviction counter are runtime state, not
        // library content: a parsed snapshot equals the library it came from.
        self.version == other.version && self.columns == other.columns
    }
}

impl ProgramLibrary {
    /// An empty library at version 0.
    pub fn new() -> Self {
        ProgramLibrary::default()
    }

    /// The mutation counter (persisted in snapshots).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The per-column entry cap, if one was configured.
    pub fn column_capacity(&self) -> Option<usize> {
        self.column_capacity
    }

    /// Entries evicted by the capacity cap or the TTL so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// The maximum entry age, if a TTL was configured.
    pub fn ttl(&self) -> Option<Duration> {
        self.ttl
    }

    /// Expires entries not touched for `ttl` (`None` lifts the limit; a zero
    /// TTL is clamped to one second — a library that evicts entries the
    /// instant they are learned is never useful). Expiry is lazy: nothing is
    /// removed until [`ProgramLibrary::evict_expired`] sweeps.
    pub fn set_ttl(&mut self, ttl: Option<Duration>) {
        self.ttl = ttl.map(|t| t.max(Duration::from_secs(1)));
    }

    /// Evicts every entry whose last [`record`]/[`merge`]/snapshot-load touch
    /// is more than the TTL before `now`, returning how many were removed. A
    /// no-op without a configured TTL. Evictions count toward
    /// [`ProgramLibrary::evictions`] and bump the version ("bumped on every
    /// mutation" includes expiry), exactly like capacity trims.
    ///
    /// [`record`]: ProgramLibrary::record
    /// [`merge`]: ProgramLibrary::merge
    pub fn evict_expired(&mut self, now: Instant) -> usize {
        let Some(ttl) = self.ttl else {
            return 0;
        };
        let mut evicted = 0usize;
        for entries in self.columns.values_mut() {
            entries.retain_mut(|entry| {
                // Every constructor stamps `touched_at` (record, merge and
                // snapshot load), so `None` cannot occur; stamping here keeps
                // the sweep total if that invariant ever slips.
                let touched_at = *entry.touched_at.get_or_insert(now);
                let expired = now.saturating_duration_since(touched_at) > ttl;
                evicted += usize::from(expired);
                !expired
            });
        }
        if evicted > 0 {
            self.evictions += evicted as u64;
            self.version += 1;
        }
        evicted
    }

    /// Caps the entries kept per column (`None` lifts the cap; a cap of 0 is
    /// clamped to 1 — an empty-by-construction library is never useful).
    /// Overflowing columns are trimmed immediately, least recently learned
    /// entries first; if anything was evicted the version is bumped ("bumped
    /// on every mutation" includes trims).
    pub fn set_column_capacity(&mut self, capacity: Option<usize>) {
        self.column_capacity = capacity.map(|c| c.max(1));
        if self.column_capacity.is_some() {
            let before = self.evictions;
            let columns: Vec<String> = self.columns.keys().cloned().collect();
            for column in columns {
                self.enforce_capacity(&column);
            }
            if self.evictions != before {
                self.version += 1;
            }
        }
    }

    /// Evicts least-recently-learned entries until `column` fits the cap.
    fn enforce_capacity(&mut self, column: &str) {
        let Some(capacity) = self.column_capacity else {
            return;
        };
        let Some(entries) = self.columns.get_mut(column) else {
            return;
        };
        while entries.len() > capacity {
            let oldest = entries
                .iter()
                .enumerate()
                .min_by_key(|(i, e)| (e.touched, *i))
                .map(|(i, _)| i)
                .expect("non-empty overflowing column");
            entries.remove(oldest);
            self.evictions += 1;
        }
    }

    /// True when no program is stored.
    pub fn is_empty(&self) -> bool {
        self.columns.values().all(Vec::is_empty)
    }

    /// Number of stored entries across all columns.
    pub fn len(&self) -> usize {
        self.columns.values().map(Vec::len).sum()
    }

    /// The column names with at least one entry.
    pub fn columns(&self) -> impl Iterator<Item = &str> {
        self.columns.keys().map(String::as_str)
    }

    /// The entries of one column (empty when unknown).
    pub fn entries(&self, column: &str) -> &[LearnedProgram] {
        self.columns.get(column).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Records an approved group under `column`. The group's member pairs are
    /// stored oriented in the approved direction; identical duplicates are
    /// merged into the existing entry.
    pub fn record(&mut self, column: &str, approved: &ApprovedGroup) {
        let touched = self.version + 1;
        let touched_at = Some(Instant::now());
        let rewrites: Vec<(String, String)> = approved
            .group
            .members()
            .iter()
            .map(|r| match approved.direction {
                Direction::Forward => (r.lhs().to_string(), r.rhs().to_string()),
                Direction::Backward => (r.rhs().to_string(), r.lhs().to_string()),
            })
            .collect();
        let entries = self.columns.entry(column.to_string()).or_default();
        if let Some(existing) = entries.iter_mut().find(|e| {
            e.direction == approved.direction && e.program.as_ref() == approved.group.program()
        }) {
            for pair in rewrites {
                if !existing.rewrites.contains(&pair) {
                    existing.rewrites.push(pair);
                }
            }
            existing.touched = touched;
            existing.touched_at = touched_at;
        } else {
            entries.push(LearnedProgram {
                program: approved.group.program().cloned(),
                direction: approved.direction,
                rewrites,
                touched,
                touched_at,
            });
        }
        self.version += 1;
        self.enforce_capacity(column);
    }

    /// Merges every entry of `other` into this library.
    pub fn merge(&mut self, other: &ProgramLibrary) {
        let touched = self.version + 1;
        let touched_at = Some(Instant::now());
        for (column, entries) in &other.columns {
            for entry in entries {
                let slot = self.columns.entry(column.clone()).or_default();
                if let Some(existing) = slot
                    .iter_mut()
                    .find(|e| e.direction == entry.direction && e.program == entry.program)
                {
                    for pair in &entry.rewrites {
                        if !existing.rewrites.contains(pair) {
                            existing.rewrites.push(pair.clone());
                        }
                    }
                    existing.touched = touched;
                    existing.touched_at = touched_at;
                } else {
                    slot.push(LearnedProgram {
                        touched,
                        touched_at,
                        ..entry.clone()
                    });
                }
            }
        }
        self.version += 1;
        for column in other.columns.keys() {
            self.enforce_capacity(column);
        }
    }

    /// Standardizes one value of `column` through the library. Precedence is
    /// deterministic: exact approved pairs first (entry insertion order),
    /// then "value is a known canonical form" (so a generalizing program can
    /// never un-standardize an already-canonical value), then deterministic
    /// forward programs as generalizers to unseen values.
    pub fn standardize_value(&self, column: &str, value: &str) -> ValueOutcome {
        let entries = self.entries(column);
        if entries.is_empty() {
            return ValueOutcome::Unmatched;
        }
        let mut known_canonical = false;
        for entry in entries {
            for (from, to) in &entry.rewrites {
                if from == value {
                    return ValueOutcome::Rewritten(to.clone());
                }
                known_canonical |= to == value;
            }
        }
        if known_canonical {
            return ValueOutcome::Unchanged;
        }
        for entry in entries {
            if entry.direction != Direction::Forward {
                continue;
            }
            let Some(program) = &entry.program else {
                continue;
            };
            if !program.is_deterministic() {
                continue;
            }
            if let Some(out) = program.eval(&StrCtx::new(value)) {
                return if out == value {
                    ValueOutcome::Unchanged
                } else {
                    ValueOutcome::Rewritten(out)
                };
            }
        }
        ValueOutcome::Unmatched
    }

    /// A reusable apply view over a fixed record schema: column lookups are
    /// resolved once, then [`LibraryApplier::apply_fields`] standardizes one
    /// record at a time and [`LibraryApplier::apply_stream`] a whole stream.
    pub fn applier<'a>(&'a self, columns: &[String]) -> LibraryApplier<'a> {
        LibraryApplier {
            library: self,
            columns: columns.to_vec(),
        }
    }

    /// Serializes the library as a text snapshot (see the module docs for
    /// the role of snapshots; [`ProgramLibrary::from_snapshot`] parses them).
    pub fn to_snapshot(&self) -> String {
        let mut out = String::new();
        out.push_str(SNAPSHOT_HEADER);
        out.push('\n');
        out.push_str(&format!("version {}\n", self.version));
        for (column, entries) in &self.columns {
            if entries.is_empty() {
                continue;
            }
            out.push_str(&format!("column {}\n", quote(column)));
            for entry in entries {
                let direction = match entry.direction {
                    Direction::Forward => "forward",
                    Direction::Backward => "backward",
                };
                out.push_str(&format!("entry {direction}\n"));
                if let Some(program) = &entry.program {
                    out.push_str(&format!("program {program}\n"));
                }
                for (from, to) in &entry.rewrites {
                    out.push_str(&format!("rewrite {} {}\n", quote(from), quote(to)));
                }
            }
        }
        out
    }

    /// Parses a snapshot produced by [`ProgramLibrary::to_snapshot`]. Blank
    /// lines and `#` comments are ignored, so snapshots can be annotated by
    /// hand.
    pub fn from_snapshot(text: &str) -> Result<Self, LibraryError> {
        let fail = |line: usize, message: &str| LibraryError {
            line,
            message: message.to_string(),
        };
        let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l));
        let mut library = ProgramLibrary::new();
        let mut version_seen = false;
        // Loaded entries age from *now*: the TTL clock starts at the load,
        // not at the first sweep — a restarted server with `--library-ttl`
        // must not keep stale snapshot entries a full extra TTL.
        let loaded_at = Some(Instant::now());
        match lines.next() {
            Some((_, first)) if first.trim() == SNAPSHOT_HEADER => {}
            Some((_, first)) => {
                return Err(fail(
                    1,
                    &format!("expected header '{SNAPSHOT_HEADER}', got '{first}'"),
                ))
            }
            None => return Err(fail(0, "empty snapshot")),
        }
        let mut column: Option<String> = None;
        for (line_no, raw) in lines {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (keyword, rest) = line.split_once(' ').unwrap_or((line, ""));
            match keyword {
                "version" => {
                    library.version = rest
                        .trim()
                        .parse()
                        .map_err(|_| fail(line_no, "version expects an integer"))?;
                    version_seen = true;
                }
                "column" => {
                    let (name, tail) = unquote(rest).map_err(|e| fail(line_no, &e.to_string()))?;
                    if !tail.trim().is_empty() {
                        return Err(fail(line_no, "trailing input after column name"));
                    }
                    library.columns.entry(name.clone()).or_default();
                    column = Some(name);
                }
                "entry" => {
                    let Some(column) = &column else {
                        return Err(fail(line_no, "entry before any column"));
                    };
                    let direction = match rest.trim() {
                        "forward" => Direction::Forward,
                        "backward" => Direction::Backward,
                        other => {
                            return Err(fail(line_no, &format!("unknown direction '{other}'")))
                        }
                    };
                    library
                        .columns
                        .get_mut(column)
                        .expect("column was inserted above")
                        .push(LearnedProgram {
                            program: None,
                            direction,
                            rewrites: Vec::new(),
                            touched: 0,
                            touched_at: loaded_at,
                        });
                }
                "program" => {
                    let entry = column
                        .as_ref()
                        .and_then(|c| library.columns.get_mut(c))
                        .and_then(|entries| entries.last_mut())
                        .ok_or_else(|| fail(line_no, "program before any entry"))?;
                    let program = rest
                        .parse::<Program>()
                        .map_err(|e| fail(line_no, &e.to_string()))?;
                    entry.program = Some(program);
                }
                "rewrite" => {
                    let entry = column
                        .as_ref()
                        .and_then(|c| library.columns.get_mut(c))
                        .and_then(|entries| entries.last_mut())
                        .ok_or_else(|| fail(line_no, "rewrite before any entry"))?;
                    let (from, tail) = unquote(rest).map_err(|e| fail(line_no, &e.to_string()))?;
                    let (to, tail) =
                        unquote(tail.trim_start()).map_err(|e| fail(line_no, &e.to_string()))?;
                    if !tail.trim().is_empty() {
                        return Err(fail(line_no, "trailing input after rewrite"));
                    }
                    entry.rewrites.push((from, to));
                }
                other => return Err(fail(line_no, &format!("unknown keyword '{other}'"))),
            }
        }
        if !version_seen {
            return Err(fail(0, "snapshot has no version line"));
        }
        Ok(library)
    }
}

/// The apply view created by [`ProgramLibrary::applier`].
#[derive(Debug, Clone)]
pub struct LibraryApplier<'a> {
    library: &'a ProgramLibrary,
    columns: Vec<String>,
}

impl LibraryApplier<'_> {
    /// Standardizes one record's fields in place and tallies the outcomes
    /// into `report`. `fields` must align with the schema the applier was
    /// created for (extra fields are left untouched).
    pub fn apply_fields(&self, fields: &mut [String], report: &mut ApplyReport) {
        report.records += 1;
        for (column, field) in self.columns.iter().zip(fields.iter_mut()) {
            match self.library.standardize_value(column, field) {
                ValueOutcome::Rewritten(out) => {
                    *field = out;
                    report.cells_rewritten += 1;
                }
                ValueOutcome::Unchanged => report.cells_unchanged += 1,
                ValueOutcome::Unmatched => report.note_unmatched(column, field),
            }
        }
    }

    /// Standardizes `records` into `out` as flat record CSV: the
    /// `source,<columns>` header, then one record in, one record out, so
    /// memory stays at one record however long the stream. `records` must
    /// carry the schema the applier was created for. This is the one apply
    /// loop behind `ec apply` and `POST /apply`; their outputs are
    /// byte-identical because of it.
    pub fn apply_stream(
        &self,
        records: &mut dyn RecordStream,
        out: impl Write,
    ) -> Result<ApplyReport, ApplyError> {
        let mut report = ApplyReport::default();
        let mut csv = CsvWriter::new(out);
        let header = std::iter::once("source").chain(self.columns.iter().map(String::as_str));
        csv.write_record(header).map_err(ApplyError::Output)?;
        while let Some(record) = records.next_record() {
            let mut record = record.map_err(ApplyError::Input)?;
            self.apply_fields(&mut record.fields, &mut report);
            let fields = std::iter::once(record.source.to_string()).chain(record.fields);
            csv.write_record(fields).map_err(ApplyError::Output)?;
        }
        csv.flush().map_err(ApplyError::Output)?;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec_dsl::{Dir, PositionFn, StringFn, Term};
    use ec_graph::Replacement;

    fn initials_program() -> Program {
        Program::new(vec![
            StringFn::sub_str(
                PositionFn::match_pos(Term::Whitespace, 1, Dir::End),
                PositionFn::match_pos(Term::Upper, -1, Dir::End),
            ),
            StringFn::constant(". "),
            StringFn::sub_str(
                PositionFn::match_pos(Term::Upper, 1, Dir::Begin),
                PositionFn::match_pos(Term::Lower, 1, Dir::End),
            ),
        ])
    }

    fn approved(
        program: Option<Program>,
        direction: Direction,
        pairs: &[(&str, &str)],
    ) -> ApprovedGroup {
        ApprovedGroup {
            group: Group::new(
                program,
                pairs.iter().map(|(a, b)| Replacement::new(a, b)).collect(),
            ),
            direction,
        }
    }

    fn sample_library() -> ProgramLibrary {
        let mut library = ProgramLibrary::new();
        library.record(
            "Name",
            &approved(
                Some(initials_program()),
                Direction::Forward,
                &[("Lee, Mary", "M. Lee"), ("Smith, James", "J. Smith")],
            ),
        );
        library.record(
            "Name",
            &approved(None, Direction::Backward, &[("Mary Lee", "Lee, Mary")]),
        );
        library.record(
            "Address",
            &approved(None, Direction::Forward, &[("Street", "St")]),
        );
        library
    }

    #[test]
    fn snapshot_round_trips_exactly() {
        let library = sample_library();
        let snapshot = library.to_snapshot();
        let parsed = ProgramLibrary::from_snapshot(&snapshot).unwrap();
        assert_eq!(parsed, library);
        assert_eq!(parsed.to_snapshot(), snapshot, "serialization is stable");
        assert_eq!(parsed.version(), library.version());
        assert_eq!(parsed.len(), 3);
    }

    #[test]
    fn snapshot_survives_comments_and_blank_lines() {
        let library = sample_library();
        let annotated: String = library
            .to_snapshot()
            .lines()
            .map(|l| format!("{l}\n\n# a comment\n"))
            .collect();
        let parsed = ProgramLibrary::from_snapshot(&annotated).unwrap();
        assert_eq!(parsed, library);
    }

    #[test]
    fn snapshot_rejects_malformed_input() {
        assert!(ProgramLibrary::from_snapshot("").is_err());
        assert!(ProgramLibrary::from_snapshot("not a library\n").is_err());
        let no_version = format!("{SNAPSHOT_HEADER}\n");
        assert!(ProgramLibrary::from_snapshot(&no_version).is_err());
        for bad in [
            "entry forward\n",
            "program ConstantStr(\"x\")\n",
            "rewrite \"a\" \"b\"\n",
            "column \"Name\"\nentry sideways\n",
            "column \"Name\"\nentry forward\nprogram Nope(1)\n",
            "frobnicate\n",
        ] {
            let text = format!("{SNAPSHOT_HEADER}\nversion 1\n{bad}");
            let err = ProgramLibrary::from_snapshot(&text).unwrap_err();
            assert!(err.line >= 1, "{err}");
        }
    }

    #[test]
    fn exact_pairs_apply_before_programs() {
        let library = sample_library();
        assert_eq!(
            library.standardize_value("Name", "Lee, Mary"),
            ValueOutcome::Rewritten("M. Lee".to_string())
        );
        // The backward approval of "Mary Lee" → "Lee, Mary" made its *lhs*
        // canonical, so "Mary Lee" is recognized and left alone.
        assert_eq!(
            library.standardize_value("Name", "Mary Lee"),
            ValueOutcome::Unchanged
        );
    }

    #[test]
    fn forward_programs_generalize_to_unseen_values() {
        let library = sample_library();
        // "Stone, Olivia" was never reviewed; the initials program covers it.
        assert_eq!(
            library.standardize_value("Name", "Stone, Olivia"),
            ValueOutcome::Rewritten("O. Stone".to_string())
        );
    }

    #[test]
    fn known_canonical_values_are_left_alone() {
        let library = sample_library();
        // "M. Lee" is a rewrite target; the transposition program must not
        // drag it anywhere else.
        assert_eq!(
            library.standardize_value("Name", "M. Lee"),
            ValueOutcome::Unchanged
        );
    }

    #[test]
    fn uncovered_values_and_columns_are_unmatched() {
        let library = sample_library();
        assert_eq!(
            library.standardize_value("Name", "totally different"),
            ValueOutcome::Unmatched
        );
        assert_eq!(
            library.standardize_value("Phone", "555"),
            ValueOutcome::Unmatched
        );
    }

    #[test]
    fn applier_standardizes_records_and_reports() {
        let library = sample_library();
        let columns = vec!["Name".to_string(), "Address".to_string()];
        let applier = library.applier(&columns);
        let mut report = ApplyReport::default();
        let mut fields = vec!["Lee, Mary".to_string(), "Street".to_string()];
        applier.apply_fields(&mut fields, &mut report);
        assert_eq!(fields, vec!["M. Lee".to_string(), "St".to_string()]);
        let mut fields = vec!["M. Lee".to_string(), "unknown place".to_string()];
        applier.apply_fields(&mut fields, &mut report);
        assert_eq!(fields[1], "unknown place", "unmatched values pass through");
        assert_eq!(report.records, 2);
        assert_eq!(report.cells_rewritten, 2);
        assert_eq!(report.cells_unchanged, 1);
        assert_eq!(report.cells_unmatched, 1);
        assert_eq!(
            report.unmatched_sample,
            vec![("Address".to_string(), "unknown place".to_string())]
        );
        assert!(report.to_string().contains("2 records"));
    }

    #[test]
    fn record_merges_duplicate_programs_and_bumps_the_version() {
        let mut library = ProgramLibrary::new();
        assert_eq!(library.version(), 0);
        assert!(library.is_empty());
        let a = approved(None, Direction::Forward, &[("a", "b")]);
        library.record("C", &a);
        library.record("C", &a);
        library.record("C", &approved(None, Direction::Forward, &[("x", "y")]));
        assert_eq!(
            library.entries("C").len(),
            1,
            "same program+direction merge"
        );
        assert_eq!(library.entries("C")[0].rewrites.len(), 2);
        assert_eq!(library.version(), 3);
    }

    #[test]
    fn capacity_evicts_the_least_recently_learned_entry() {
        let mut library = ProgramLibrary::new();
        library.set_column_capacity(Some(2));
        assert_eq!(library.column_capacity(), Some(2));
        let a = approved(None, Direction::Forward, &[("a", "A")]);
        let b = approved(None, Direction::Backward, &[("b", "B")]);
        let c = approved(Some(initials_program()), Direction::Forward, &[("c", "C")]);
        library.record("Name", &a);
        library.record("Name", &b);
        // Re-recording `a` refreshes its recency, so `b` is now the oldest.
        library.record("Name", &a);
        library.record("Name", &c);
        assert_eq!(library.entries("Name").len(), 2);
        assert_eq!(library.evictions(), 1);
        assert!(
            library
                .entries("Name")
                .iter()
                .all(|e| e.direction == Direction::Forward),
            "the backward entry was least recently learned and must be gone"
        );
        // Capacity is per column: another column starts fresh.
        library.record(
            "Address",
            &approved(None, Direction::Forward, &[("d", "D")]),
        );
        assert_eq!(library.entries("Address").len(), 1);
        assert_eq!(library.evictions(), 1);
    }

    #[test]
    fn lowering_the_capacity_trims_existing_columns() {
        let mut library = sample_library();
        assert_eq!(library.entries("Name").len(), 2);
        let version_before = library.version();
        library.set_column_capacity(Some(1));
        assert_eq!(library.entries("Name").len(), 1);
        assert_eq!(library.entries("Address").len(), 1);
        assert_eq!(library.evictions(), 1);
        assert_eq!(
            library.version(),
            version_before + 1,
            "a trim is a mutation and must bump the version"
        );
        // A cap of zero is clamped: the library never evicts itself empty.
        library.set_column_capacity(Some(0));
        assert_eq!(library.column_capacity(), Some(1));
        assert!(!library.is_empty());
        // Capacity and eviction statistics are runtime state, not content:
        // the snapshot round trip still compares equal.
        let parsed = ProgramLibrary::from_snapshot(&library.to_snapshot()).unwrap();
        assert_eq!(parsed, library);
        assert_eq!(parsed.column_capacity(), None);
    }

    #[test]
    fn merge_respects_the_capacity_of_the_receiving_library() {
        let mut small = ProgramLibrary::new();
        small.set_column_capacity(Some(1));
        small.merge(&sample_library());
        assert_eq!(small.entries("Name").len(), 1);
        assert_eq!(small.entries("Address").len(), 1);
        assert_eq!(small.evictions(), 1);
    }

    #[test]
    fn ttl_expires_untouched_entries_and_snapshot_loads_age_from_load_time() {
        let mut library = ProgramLibrary::new();
        let start = Instant::now();
        library.record("Name", &approved(None, Direction::Forward, &[("a", "A")]));
        assert_eq!(library.evict_expired(start), 0, "no TTL, no evictions");
        library.set_ttl(Some(Duration::from_secs(60)));
        assert_eq!(library.ttl(), Some(Duration::from_secs(60)));
        assert_eq!(
            library.evict_expired(start + Duration::from_secs(30)),
            0,
            "entries younger than the TTL survive"
        );
        let version_before = library.version();
        assert_eq!(library.evict_expired(start + Duration::from_secs(3600)), 1);
        assert!(library.is_empty());
        assert_eq!(library.evictions(), 1);
        assert_eq!(
            library.version(),
            version_before + 1,
            "expiry is a mutation and must bump the version"
        );

        // A zero TTL is clamped — the library never expires entries the
        // instant they are learned.
        library.set_ttl(Some(Duration::ZERO));
        assert_eq!(library.ttl(), Some(Duration::from_secs(1)));

        // Snapshot-loaded entries are stamped at load time: a sweep inside
        // the TTL keeps them, and one past it evicts them — even when it is
        // the *first* sweep. (Lazily stamping on the first sweep instead
        // used to keep a restarted server's stale entries a full extra TTL.)
        let loaded_at = Instant::now();
        let mut loaded = ProgramLibrary::from_snapshot(&sample_library().to_snapshot()).unwrap();
        loaded.set_ttl(Some(Duration::from_secs(60)));
        assert_eq!(loaded.evict_expired(loaded_at + Duration::from_secs(30)), 0);
        assert_eq!(loaded.len(), 3);
        let mut stale = ProgramLibrary::from_snapshot(&sample_library().to_snapshot()).unwrap();
        stale.set_ttl(Some(Duration::from_secs(60)));
        assert_eq!(
            stale.evict_expired(loaded_at + Duration::from_secs(3600)),
            3,
            "the very first sweep already evicts entries older than one TTL since the load"
        );
        assert!(stale.is_empty());
    }

    #[test]
    fn ttl_touch_refreshes_recency() {
        let mut library = ProgramLibrary::new();
        library.set_ttl(Some(Duration::from_secs(60)));
        let a = approved(None, Direction::Forward, &[("a", "A")]);
        library.record("Name", &a);
        let recorded = Instant::now();
        // Re-recording the same program refreshes the entry's stamp; the
        // sweep time is chosen inside (recorded, recorded + ttl) relative to
        // the refresh, so only a *stale* stamp would expire.
        library.record("Name", &a);
        assert_eq!(library.evict_expired(recorded + Duration::from_secs(30)), 0);
        assert_eq!(library.entries("Name").len(), 1);
    }

    #[test]
    fn merge_unions_two_libraries() {
        let mut a = ProgramLibrary::new();
        a.record("C", &approved(None, Direction::Forward, &[("a", "b")]));
        let mut b = ProgramLibrary::new();
        b.record("C", &approved(None, Direction::Forward, &[("c", "d")]));
        b.record("D", &approved(None, Direction::Backward, &[("e", "f")]));
        a.merge(&b);
        assert_eq!(a.entries("C")[0].rewrites.len(), 2);
        assert_eq!(a.entries("D").len(), 1);
    }
}
