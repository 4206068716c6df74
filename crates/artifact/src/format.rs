//! The artifact format: encoding a [`CompiledDataset`] to bytes and decoding
//! (with full validation) back.
//!
//! ## Layout
//!
//! ```text
//! [ 0..8)   magic  "ECARTIF1"
//! [ 8..12)  version  u32 LE
//! [12..16)  section count  u32 LE
//! then `count` section-table entries, 32 bytes each:
//!   kind u32 | reserved u32 | offset u64 | byte length u64 | checksum u64
//!   (FNV-1a-64 over LE words, eight lanes per 64-byte block, byte-wise tail)
//! then the payload sections, each starting at a 16-byte-aligned offset
//! (zero padding between sections).
//! ```
//!
//! Section 0 is the STRUCT stream (kind 1): every scalar written explicitly
//! little-endian by [`ByteWriter`] — metadata, the resolved dataset, and per
//! column the candidate sets, partitions, prepared graphs and interner
//! tables. The stream references POD sections by section-table index:
//! kind 2 sections hold [`Posting`] arrays and kind 3 sections hold `u32`
//! arrays, stored in their `#[repr(C)]` little-endian memory layout so the
//! loader can hand them to [`InvertedIndex::from_parts`] as views into the
//! mapping — zero-copy on little-endian targets, portably decoded elsewhere.

use crate::bytes::{fnv1a64_words, ByteReader, ByteWriter};
use crate::mapping::ArtifactBytes;
use crate::ArtifactError;
use ec_core::{CompiledColumn, CompiledDataset, CompiledPartition};
use ec_data::{Cell, Cluster, Dataset, Row};
use ec_dsl::{Dir, PositionFn, StringFn, Term};
use ec_graph::{LabelId, LabelInterner, Replacement, TransformationGraph};
use ec_grouping::PreparedGraphs;
use ec_index::{InvertedIndex, Posting, SharedSlice, SliceBacking};
use ec_replace::{CandidateSet, CellRef};
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::Arc;

/// The 8-byte magic every artifact starts with.
pub const MAGIC: [u8; 8] = *b"ECARTIF1";
/// The format version this build writes and reads.
pub const VERSION: u32 = 1;

/// Tag of the (grouping/candidate) configuration the artifact was compiled
/// with. All `ec` entry points run the default configuration, so a single tag
/// suffices; a future configurable compile bumps this into real config
/// serialization.
const CONFIG_TAG: &str = "default/v1";

const KIND_STRUCT: u32 = 1;
const KIND_POSTINGS: u32 = 2;
const KIND_U32: u32 = 3;

const HEADER_LEN: usize = 16;
const TABLE_ENTRY_LEN: usize = 32;

fn align16(n: usize) -> usize {
    n.div_ceil(16) * 16
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn encode_u32s(vals: &[u32]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(vals.len() * 4);
    for v in vals {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    buf
}

fn encode_postings(postings: &[Posting]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(postings.len() * 12);
    for p in postings {
        buf.extend_from_slice(&p.graph.0.to_le_bytes());
        buf.extend_from_slice(&p.from.to_le_bytes());
        buf.extend_from_slice(&p.to.to_le_bytes());
    }
    buf
}

/// Serializes `compiled` into the full artifact byte image.
pub fn encode_artifact(compiled: &CompiledDataset) -> Vec<u8> {
    let mut pods: Vec<(u32, Vec<u8>)> = Vec::new();
    let mut push_pod = |kind: u32, payload: Vec<u8>| -> u32 {
        pods.push((kind, payload));
        pods.len() as u32 // section 0 is the STRUCT stream
    };

    let mut w = ByteWriter::new();
    w.str(CONFIG_TAG);
    w.str(&compiled.name);
    w.f64(compiled.threshold);
    w.bool(compiled.has_truth);

    let d = &compiled.dataset;
    w.str(&d.name);
    w.len(d.columns.len());
    for col in &d.columns {
        w.str(col);
    }
    w.len(d.clusters.len());
    for cluster in &d.clusters {
        w.len(cluster.golden.len());
        for g in &cluster.golden {
            w.str(g);
        }
        w.len(cluster.rows.len());
        for row in &cluster.rows {
            w.len(row.source);
            w.len(row.cells.len());
            for cell in &row.cells {
                w.str(&cell.observed);
                w.str(&cell.truth);
            }
        }
    }

    w.len(compiled.columns.len());
    for column in &compiled.columns {
        let reps = &column.candidates.replacements;
        w.len(reps.len());
        for r in reps {
            w.str(r.lhs());
            w.str(r.rhs());
        }
        for r in reps {
            let set = column.candidates.set(r);
            w.len(set.len());
            for cell in set {
                w.len(cell.cluster);
                w.len(cell.row);
            }
        }
        let rep_index: HashMap<&Replacement, u32> = reps
            .iter()
            .enumerate()
            .map(|(i, r)| (r, i as u32))
            .collect();
        w.len(column.partitions.len());
        for partition in &column.partitions {
            w.len(partition.members.len());
            for m in &partition.members {
                w.u32(rep_index[m]);
            }
            let member_index: HashMap<&Replacement, u32> = partition
                .members
                .iter()
                .enumerate()
                .map(|(i, r)| (r, i as u32))
                .collect();
            let prepared = &partition.prepared;
            w.len(prepared.replacements().len());
            for r in prepared.replacements() {
                w.u32(member_index[r]);
            }
            w.len(prepared.skipped().len());
            for r in prepared.skipped() {
                w.u32(member_index[r]);
            }
            w.len(prepared.interner().len());
            for (_, f) in prepared.interner().iter() {
                write_string_fn(&mut w, &f);
            }
            // Each graph as two flat blocks — 12-byte edge headers, then its
            // label buffer — so the loader decodes a graph with two bounds
            // checks instead of several per edge.
            for g in prepared.graphs() {
                w.u32(g.t_len() as u32);
                w.len(g.num_edges());
                for e in g.edges() {
                    w.u32(e.from);
                    w.u32(e.to);
                    w.u32(e.labels.len() as u32);
                }
                for l in g.labels() {
                    w.u32(l.0);
                }
            }
            let (postings, offsets, counts) = prepared.index().raw_parts();
            let postings_section = push_pod(KIND_POSTINGS, encode_postings(postings));
            let offsets_section = push_pod(KIND_U32, encode_u32s(offsets));
            let counts_section = push_pod(KIND_U32, encode_u32s(counts));
            w.u32(postings_section);
            w.u32(offsets_section);
            w.u32(counts_section);
        }
    }

    let mut sections: Vec<(u32, Vec<u8>)> = Vec::with_capacity(1 + pods.len());
    sections.push((KIND_STRUCT, w.into_inner()));
    sections.extend(pods);

    // Lay the sections out after the header and table, 16-byte aligned.
    let table_end = HEADER_LEN + TABLE_ENTRY_LEN * sections.len();
    let mut offsets = Vec::with_capacity(sections.len());
    let mut cursor = table_end;
    for (_, payload) in &sections {
        cursor = align16(cursor);
        offsets.push(cursor);
        cursor += payload.len();
    }

    let mut out = Vec::with_capacity(cursor);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    for ((kind, payload), &offset) in sections.iter().zip(&offsets) {
        out.extend_from_slice(&kind.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(&(offset as u64).to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a64_words(payload).to_le_bytes());
    }
    for ((_, payload), &offset) in sections.iter().zip(&offsets) {
        out.resize(offset, 0);
        out.extend_from_slice(payload);
    }
    out
}

// ---------------------------------------------------------------------------
// POD sections
// ---------------------------------------------------------------------------

/// Marker for element types that may be reinterpreted from little-endian
/// artifact bytes in place.
///
/// # Safety
/// Implementors must be `#[repr(C)]`/`#[repr(transparent)]` compositions of
/// `u32` (every bit pattern valid, no padding, alignment ≤ 16), and their
/// little-endian byte image must equal their in-memory layout on
/// little-endian targets.
unsafe trait Pod: Copy + Send + Sync + std::fmt::Debug + 'static {}
unsafe impl Pod for u32 {}
unsafe impl Pod for Posting {}

/// A typed view into one POD section of a loaded artifact: keeps the backing
/// bytes (mapping or aligned buffer) alive and reinterprets them in place.
struct PodSection<T> {
    bytes: Arc<ArtifactBytes>,
    offset: usize,
    count: usize,
    _marker: PhantomData<T>,
}

impl<T: Pod> PodSection<T> {
    fn new(
        bytes: Arc<ArtifactBytes>,
        offset: usize,
        byte_len: usize,
        section: usize,
    ) -> Result<PodSection<T>, ArtifactError> {
        let size = std::mem::size_of::<T>();
        if byte_len % size != 0 {
            return Err(ArtifactError::Malformed {
                context: format!(
                    "section {section}: {byte_len} bytes is not a whole number of {size}-byte elements"
                ),
            });
        }
        let base = bytes.as_bytes()[offset..].as_ptr();
        if (base as usize) % std::mem::align_of::<T>() != 0 {
            return Err(ArtifactError::SectionOutOfBounds { section });
        }
        Ok(PodSection {
            bytes,
            offset,
            count: byte_len / size,
            _marker: PhantomData,
        })
    }
}

impl<T: Pod> SliceBacking<T> for PodSection<T> {
    fn as_slice(&self) -> &[T] {
        let base = self.bytes.as_bytes()[self.offset..].as_ptr();
        // SAFETY: construction checked bounds, element-size divisibility and
        // alignment; T is Pod (all bit patterns valid, matches the stored
        // little-endian layout on this little-endian target); the backing
        // Arc keeps the bytes alive for the view's lifetime.
        unsafe { std::slice::from_raw_parts(base as *const T, self.count) }
    }
}

impl<T> std::fmt::Debug for PodSection<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PodSection {{ offset: {}, count: {} }}",
            self.offset, self.count
        )
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

struct SectionEntry {
    kind: u32,
    offset: usize,
    len: usize,
}

struct Sections<'a> {
    bytes: &'a Arc<ArtifactBytes>,
    entries: Vec<SectionEntry>,
}

impl<'a> Sections<'a> {
    /// Parses the header and section table, verifying bounds, alignment and
    /// every section checksum.
    fn parse(bytes: &'a Arc<ArtifactBytes>) -> Result<Sections<'a>, ArtifactError> {
        let data = bytes.as_bytes();
        if data.len() < HEADER_LEN {
            return Err(ArtifactError::Truncated { context: "header" });
        }
        if data[..8] != MAGIC {
            return Err(ArtifactError::BadMagic);
        }
        let version = u32::from_le_bytes(data[8..12].try_into().unwrap());
        if version != VERSION {
            return Err(ArtifactError::UnsupportedVersion { found: version });
        }
        let count = u32::from_le_bytes(data[12..16].try_into().unwrap()) as usize;
        let table_end =
            HEADER_LEN
                .checked_add(count.checked_mul(TABLE_ENTRY_LEN).ok_or(
                    ArtifactError::Truncated {
                        context: "section table",
                    },
                )?)
                .filter(|&end| end <= data.len())
                .ok_or(ArtifactError::Truncated {
                    context: "section table",
                })?;
        let mut entries = Vec::with_capacity(count);
        for i in 0..count {
            let e = &data[HEADER_LEN + i * TABLE_ENTRY_LEN..table_end.min(data.len())];
            let kind = u32::from_le_bytes(e[0..4].try_into().unwrap());
            let offset = u64::from_le_bytes(e[8..16].try_into().unwrap());
            let len = u64::from_le_bytes(e[16..24].try_into().unwrap());
            let checksum = u64::from_le_bytes(e[24..32].try_into().unwrap());
            let (offset, len) = match (usize::try_from(offset), usize::try_from(len)) {
                (Ok(o), Ok(l)) => (o, l),
                _ => return Err(ArtifactError::SectionOutOfBounds { section: i }),
            };
            let in_bounds = offset % 16 == 0
                && offset >= table_end
                && offset.checked_add(len).is_some_and(|end| end <= data.len());
            if !in_bounds {
                return Err(ArtifactError::SectionOutOfBounds { section: i });
            }
            if fnv1a64_words(&data[offset..offset + len]) != checksum {
                return Err(ArtifactError::ChecksumMismatch { section: i });
            }
            entries.push(SectionEntry { kind, offset, len });
        }
        Ok(Sections { bytes, entries })
    }

    fn entry(&self, section: usize, kind: u32) -> Result<&SectionEntry, ArtifactError> {
        let e = self
            .entries
            .get(section)
            .ok_or(ArtifactError::SectionOutOfBounds { section })?;
        if e.kind != kind {
            return Err(ArtifactError::Malformed {
                context: format!("section {section}: expected kind {kind}, found {}", e.kind),
            });
        }
        Ok(e)
    }

    fn payload(&self, section: usize, kind: u32) -> Result<&'a [u8], ArtifactError> {
        let e = self.entry(section, kind)?;
        Ok(&self.bytes.as_bytes()[e.offset..e.offset + e.len])
    }

    /// A `u32` POD section as a shared slice — in place on little-endian
    /// targets, portably decoded on big-endian ones.
    fn u32s(&self, section: usize) -> Result<SharedSlice<u32>, ArtifactError> {
        let e = self.entry(section, KIND_U32)?;
        #[cfg(target_endian = "little")]
        {
            let pod = PodSection::<u32>::new(Arc::clone(self.bytes), e.offset, e.len, section)?;
            Ok(SharedSlice::external(Arc::new(pod)))
        }
        #[cfg(target_endian = "big")]
        {
            let payload = &self.bytes.as_bytes()[e.offset..e.offset + e.len];
            if payload.len() % 4 != 0 {
                return Err(ArtifactError::Malformed {
                    context: format!("section {section}: not a whole number of u32s"),
                });
            }
            let vals: Vec<u32> = payload
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                .collect();
            Ok(vals.into())
        }
    }

    /// A [`Posting`] POD section as a shared slice.
    fn postings(&self, section: usize) -> Result<SharedSlice<Posting>, ArtifactError> {
        let e = self.entry(section, KIND_POSTINGS)?;
        #[cfg(target_endian = "little")]
        {
            let pod = PodSection::<Posting>::new(Arc::clone(self.bytes), e.offset, e.len, section)?;
            Ok(SharedSlice::external(Arc::new(pod)))
        }
        #[cfg(target_endian = "big")]
        {
            let payload = &self.bytes.as_bytes()[e.offset..e.offset + e.len];
            if payload.len() % 12 != 0 {
                return Err(ArtifactError::Malformed {
                    context: format!("section {section}: not a whole number of postings"),
                });
            }
            let vals: Vec<Posting> = payload
                .chunks_exact(12)
                .map(|c| Posting {
                    graph: ec_index::GraphId(u32::from_le_bytes(c[0..4].try_into().unwrap())),
                    from: u32::from_le_bytes(c[4..8].try_into().unwrap()),
                    to: u32::from_le_bytes(c[8..12].try_into().unwrap()),
                })
                .collect();
            Ok(vals.into())
        }
    }
}

fn malformed(context: impl Into<String>) -> ArtifactError {
    ArtifactError::Malformed {
        context: context.into(),
    }
}

fn read_replacement(
    r: &mut ByteReader<'_>,
    what: &'static str,
) -> Result<Replacement, ArtifactError> {
    let lhs = r.str(what)?;
    let rhs = r.str(what)?;
    Replacement::try_new(&lhs, &rhs)
        .ok_or_else(|| malformed(format!("{what}: invalid replacement {lhs:?} -> {rhs:?}")))
}

// The DSL label functions are encoded structurally, one tag byte per node —
// never as display text: reparsing hundreds of thousands of label functions
// through the DSL parser dominated artifact load time. `i32` ordinals travel
// as their `u32` bit patterns.

fn write_term(w: &mut ByteWriter, term: &Term) {
    match term {
        Term::Upper => w.u8(0),
        Term::Lower => w.u8(1),
        Term::Digits => w.u8(2),
        Term::Whitespace => w.u8(3),
        Term::Literal(s) => {
            w.u8(4);
            w.str(s);
        }
    }
}

fn read_term(r: &mut ByteReader<'_>) -> Result<Term, ArtifactError> {
    Ok(match r.u8("term tag")? {
        0 => Term::Upper,
        1 => Term::Lower,
        2 => Term::Digits,
        3 => Term::Whitespace,
        4 => {
            let s = r.str_ref("literal term")?;
            if s.is_empty() {
                return Err(malformed("literal terms must be non-empty"));
            }
            Term::literal(s)
        }
        other => return Err(malformed(format!("unknown term tag {other}"))),
    })
}

fn write_position_fn(w: &mut ByteWriter, position: &PositionFn) {
    match position {
        PositionFn::ConstPos(k) => {
            w.u8(0);
            w.u32(*k as u32);
        }
        PositionFn::MatchPos { term, k, dir } => {
            w.u8(1);
            write_term(w, term);
            w.u32(*k as u32);
            w.u8(matches!(dir, Dir::End) as u8);
        }
    }
}

fn read_position_fn(r: &mut ByteReader<'_>) -> Result<PositionFn, ArtifactError> {
    Ok(match r.u8("position tag")? {
        0 => PositionFn::ConstPos(r.u32("const position")? as i32),
        1 => {
            let term = read_term(r)?;
            let k = r.u32("match ordinal")? as i32;
            let dir = match r.u8("match direction")? {
                0 => Dir::Begin,
                1 => Dir::End,
                other => return Err(malformed(format!("unknown direction tag {other}"))),
            };
            PositionFn::MatchPos { term, k, dir }
        }
        other => return Err(malformed(format!("unknown position tag {other}"))),
    })
}

fn write_string_fn(w: &mut ByteWriter, f: &StringFn) {
    match f {
        StringFn::ConstantStr(s) => {
            w.u8(0);
            w.str(s);
        }
        StringFn::SubStr(l, r) => {
            w.u8(1);
            write_position_fn(w, l);
            write_position_fn(w, r);
        }
        StringFn::Prefix { term, k } => {
            w.u8(2);
            write_term(w, term);
            w.u32(*k as u32);
        }
        StringFn::Suffix { term, k } => {
            w.u8(3);
            write_term(w, term);
            w.u32(*k as u32);
        }
    }
}

fn read_string_fn(r: &mut ByteReader<'_>) -> Result<StringFn, ArtifactError> {
    Ok(match r.u8("label tag")? {
        0 => StringFn::constant(r.str_ref("constant string")?),
        1 => {
            let l = read_position_fn(r)?;
            let rr = read_position_fn(r)?;
            StringFn::SubStr(l, rr)
        }
        2 => {
            let term = read_term(r)?;
            let k = r.u32("affix ordinal")? as i32;
            StringFn::Prefix { term, k }
        }
        3 => {
            let term = read_term(r)?;
            let k = r.u32("affix ordinal")? as i32;
            StringFn::Suffix { term, k }
        }
        other => return Err(malformed(format!("unknown label tag {other}"))),
    })
}

fn read_index<'v, T>(
    r: &mut ByteReader<'_>,
    pool: &'v [T],
    what: &'static str,
) -> Result<&'v T, ArtifactError> {
    let idx = r.u32(what)? as usize;
    pool.get(idx)
        .ok_or_else(|| malformed(format!("{what}: index {idx} out of range ({})", pool.len())))
}

/// Decodes and validates a full artifact.
pub fn decode_artifact(bytes: Arc<ArtifactBytes>) -> Result<CompiledDataset, ArtifactError> {
    let sections = Sections::parse(&bytes)?;
    let stream = sections.payload(0, KIND_STRUCT)?;
    let mut r = ByteReader::new(stream);

    let config_tag = r.str("config tag")?;
    if config_tag != CONFIG_TAG {
        return Err(malformed(format!(
            "compiled with configuration {config_tag:?}, this build expects {CONFIG_TAG:?}"
        )));
    }
    let name = r.str("dataset name")?;
    let threshold = r.f64("threshold")?;
    if !(0.0..=1.0).contains(&threshold) {
        return Err(malformed(format!("threshold {threshold} out of [0, 1]")));
    }
    let has_truth = r.bool("has_truth flag")?;

    // The resolved dataset.
    let ds_name = r.str("dataset name")?;
    let num_columns = r.len("column count")?;
    let mut columns = Vec::with_capacity(num_columns);
    for _ in 0..num_columns {
        columns.push(r.str("column name")?);
    }
    let num_clusters = r.len("cluster count")?;
    let mut clusters = Vec::with_capacity(num_clusters);
    for _ in 0..num_clusters {
        let num_golden = r.len("golden count")?;
        let mut golden = Vec::with_capacity(num_golden);
        for _ in 0..num_golden {
            golden.push(r.str("golden value")?);
        }
        let num_rows = r.len("row count")?;
        let mut rows = Vec::with_capacity(num_rows);
        for _ in 0..num_rows {
            let source = r.len("row source")?;
            let num_cells = r.len("cell count")?;
            if num_cells != num_columns {
                return Err(malformed(format!(
                    "row has {num_cells} cells for {num_columns} columns"
                )));
            }
            let mut cells = Vec::with_capacity(num_cells);
            for _ in 0..num_cells {
                cells.push(Cell {
                    observed: r.str("cell observed value")?,
                    truth: r.str("cell truth value")?,
                });
            }
            rows.push(Row { source, cells });
        }
        clusters.push(Cluster { rows, golden });
    }
    let mut dataset = Dataset::new(ds_name, columns);
    dataset.clusters = clusters;

    // Per-column compiled state.
    let num_compiled = r.len("compiled column count")?;
    if num_compiled != num_columns {
        return Err(malformed(format!(
            "{num_compiled} compiled columns for {num_columns} dataset columns"
        )));
    }
    let mut compiled_columns = Vec::with_capacity(num_compiled);
    for _ in 0..num_compiled {
        let num_reps = r.len("candidate count")?;
        let mut replacements = Vec::with_capacity(num_reps);
        for _ in 0..num_reps {
            replacements.push(read_replacement(&mut r, "candidate replacement")?);
        }
        let mut sets = HashMap::with_capacity(num_reps);
        for rep in &replacements {
            let set_len = r.len("replacement set size")?;
            let mut set = Vec::with_capacity(set_len);
            for _ in 0..set_len {
                let cluster = r.len("cell cluster")?;
                let row = r.len("cell row")?;
                let valid = dataset
                    .clusters
                    .get(cluster)
                    .is_some_and(|c| row < c.rows.len());
                if !valid {
                    return Err(malformed(format!(
                        "replacement set cell ({cluster}, {row}) outside the dataset"
                    )));
                }
                set.push(CellRef { cluster, row });
            }
            sets.insert(rep.clone(), set);
        }
        let candidates = CandidateSet { replacements, sets };

        let num_partitions = r.len("partition count")?;
        let mut partitions = Vec::with_capacity(num_partitions);
        for _ in 0..num_partitions {
            let num_members = r.len("partition member count")?;
            let mut members = Vec::with_capacity(num_members);
            for _ in 0..num_members {
                members.push(
                    read_index(&mut r, &candidates.replacements, "partition member")?.clone(),
                );
            }
            let num_retained = r.len("retained count")?;
            let mut retained = Vec::with_capacity(num_retained);
            for _ in 0..num_retained {
                retained.push(read_index(&mut r, &members, "retained replacement")?.clone());
            }
            let num_skipped = r.len("skipped count")?;
            let mut skipped = Vec::with_capacity(num_skipped);
            for _ in 0..num_skipped {
                skipped.push(read_index(&mut r, &members, "skipped replacement")?.clone());
            }
            let num_labels = r.len("interner size")?;
            let mut fns = Vec::with_capacity(num_labels);
            for _ in 0..num_labels {
                fns.push(read_string_fn(&mut r)?);
            }
            let interner = LabelInterner::from_ordered(fns)
                .ok_or_else(|| malformed("duplicate interned label".to_string()))?;
            let mut graphs = Vec::with_capacity(num_retained);
            for rep in &retained {
                let t_len = r.u32("graph t_len")?;
                let num_edges = r.len("graph edge count")?;
                let headers = r.bytes(
                    num_edges
                        .checked_mul(12)
                        .ok_or_else(|| malformed("edge header size overflow".to_string()))?,
                    "graph edge headers",
                )?;
                let total_labels: u64 = headers
                    .chunks_exact(12)
                    .map(|h| u32::from_le_bytes(h[8..12].try_into().unwrap()) as u64)
                    .sum();
                let label_bytes = usize::try_from(total_labels)
                    .ok()
                    .and_then(|n| n.checked_mul(4))
                    .ok_or_else(|| malformed("graph label block size overflow".to_string()))?;
                let label_block = r.bytes(label_bytes, "graph label block")?;
                let mut max_label = 0u32;
                let labels: Vec<LabelId> = label_block
                    .chunks_exact(4)
                    .map(|raw| {
                        let l = u32::from_le_bytes(raw.try_into().unwrap());
                        max_label = max_label.max(l);
                        LabelId(l)
                    })
                    .collect();
                // The one label-bound check for this graph: folding the max
                // while the ids are being copied is free, and
                // `PreparedGraphs::from_parts` relies on it having happened.
                if !labels.is_empty() && max_label as usize >= interner.len() {
                    return Err(malformed(format!(
                        "edge label {max_label} outside the interner ({})",
                        interner.len()
                    )));
                }
                let edges = headers.chunks_exact(12).map(|h| {
                    let word = |at: usize| u32::from_le_bytes(h[at..at + 4].try_into().unwrap());
                    (word(0), word(4), word(8))
                });
                let graph = TransformationGraph::from_parts(rep.clone(), t_len, edges, labels)
                    .ok_or_else(|| malformed("invalid transformation graph edges".to_string()))?;
                graphs.push(graph);
            }
            let postings_section = r.u32("postings section ref")? as usize;
            let offsets_section = r.u32("offsets section ref")? as usize;
            let counts_section = r.u32("counts section ref")? as usize;
            let index = InvertedIndex::from_parts(
                sections.postings(postings_section)?,
                sections.u32s(offsets_section)?,
                sections.u32s(counts_section)?,
            )
            .map_err(|e| malformed(format!("inverted index layout: {e}")))?;
            if index.num_labels() != interner.len() {
                return Err(malformed(format!(
                    "index covers {} labels, interner has {}",
                    index.num_labels(),
                    interner.len()
                )));
            }
            let prepared = PreparedGraphs::from_parts(retained, graphs, skipped, interner, index)
                .ok_or_else(|| {
                malformed("inconsistent prepared-graphs components".to_string())
            })?;
            partitions.push(CompiledPartition {
                members,
                prepared: Arc::new(prepared),
            });
        }
        compiled_columns.push(CompiledColumn {
            candidates,
            partitions,
        });
    }
    r.finish("struct stream")?;

    Ok(CompiledDataset {
        name,
        threshold,
        has_truth,
        dataset,
        columns: compiled_columns,
    })
}
