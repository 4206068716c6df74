//! # ec-artifact — memory-mapped compiled-dataset artifacts
//!
//! A [`ec_core::CompiledDataset`] holds everything the
//! budgeted review loop needs — candidate sets, structure partitions, and
//! each partition's prepared graphs and CSR inverted index. This crate gives
//! that state a durable on-disk form: a single versioned binary file with an
//! explicit little-endian layout, a magic/version header, a section table
//! with per-section FNV-1a checksums, and 16-byte-aligned payload sections.
//!
//! The big sections — the posting arenas and offset tables of every
//! partition's [`InvertedIndex`](ec_index::InvertedIndex) — are stored in
//! their in-memory layout (`#[repr(C)]`, all-`u32` fields) and, on
//! little-endian unix targets, are **memory-mapped and reinterpreted in
//! place**: the loaded index borrows the page cache through the
//! [`SliceBacking`](ec_index::SliceBacking) seam instead of copying.
//! Everything else (strings, graphs, candidate sets) is decoded field by
//! field. On other targets a portable read path decodes the same bytes into
//! owned arenas, so artifacts are interchangeable across platforms.
//!
//! Nothing here bounds on the vendored no-op `serde` — the format is written
//! and validated by hand, and every rejection is a named [`ArtifactError`].
//!
//! ```no_run
//! use ec_core::{compile_dataset, ConsolidationConfig};
//! use ec_data::{GeneratorConfig, PaperDataset};
//!
//! let dataset = PaperDataset::Address.generate(&GeneratorConfig {
//!     num_clusters: 10,
//!     seed: 7,
//!     num_sources: 3,
//! });
//! let compiled = compile_dataset(dataset, 0.75, true, &ConsolidationConfig::default());
//! ec_artifact::write_artifact(&compiled, "warm.eca".as_ref()).unwrap();
//! let (loaded, mapped) = ec_artifact::read_artifact("warm.eca".as_ref()).unwrap();
//! assert_eq!(loaded.name, compiled.name);
//! assert!(mapped || cfg!(not(all(unix, target_endian = "little"))));
//! ```

#![warn(missing_docs)]

mod bytes;
mod format;
mod mapping;

pub use format::{decode_artifact, encode_artifact, MAGIC, VERSION};
pub use mapping::ArtifactBytes;

use ec_core::CompiledDataset;
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// A failure while writing, mapping or decoding an artifact.
#[derive(Debug)]
pub enum ArtifactError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// The file does not start with the artifact magic.
    BadMagic,
    /// The file carries a format version this build cannot read.
    UnsupportedVersion {
        /// The version found in the header.
        found: u32,
    },
    /// The file ends before a structure it promises (header, section table,
    /// or a length-prefixed field).
    Truncated {
        /// What was being read when the bytes ran out.
        context: &'static str,
    },
    /// A section-table entry points outside the file or is misaligned.
    SectionOutOfBounds {
        /// Index of the offending section.
        section: usize,
    },
    /// A section's stored checksum does not match its bytes.
    ChecksumMismatch {
        /// Index of the offending section.
        section: usize,
    },
    /// The bytes decode to a structurally invalid value (bad index, unsorted
    /// arena, unparsable label, inconsistent component sizes, …).
    Malformed {
        /// What invariant failed.
        context: String,
    },
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "artifact i/o: {e}"),
            ArtifactError::BadMagic => write!(f, "not an ec artifact (bad magic)"),
            ArtifactError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported artifact version {found} (expected {VERSION})"
                )
            }
            ArtifactError::Truncated { context } => {
                write!(f, "truncated artifact while reading {context}")
            }
            ArtifactError::SectionOutOfBounds { section } => {
                write!(f, "section {section} out of bounds or misaligned")
            }
            ArtifactError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in section {section}")
            }
            ArtifactError::Malformed { context } => write!(f, "malformed artifact: {context}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<std::io::Error> for ArtifactError {
    fn from(e: std::io::Error) -> Self {
        ArtifactError::Io(e)
    }
}

/// Serializes `compiled` and writes it to `path` (atomic enough for our
/// purposes: the bytes are fully assembled in memory first).
pub fn write_artifact(compiled: &CompiledDataset, path: &Path) -> std::io::Result<()> {
    std::fs::write(path, encode_artifact(compiled))
}

/// Opens `path` and decodes the compiled dataset, memory-mapping the file on
/// little-endian unix targets (reading it into an aligned buffer elsewhere).
/// Returns the dataset and whether the load was a zero-copy mapping.
pub fn read_artifact(path: &Path) -> Result<(CompiledDataset, bool), ArtifactError> {
    let _span = ec_obs::span!("artifact.load");
    let (bytes, mapped) = {
        let _span = ec_obs::span!("artifact.load.map");
        ArtifactBytes::open(path)?
    };
    let compiled = {
        let _span = ec_obs::span!("artifact.load.decode");
        decode_artifact(Arc::new(bytes))?
    };
    Ok((compiled, mapped))
}

/// Decodes an artifact from bytes already in memory (tests, corruption
/// harnesses). The bytes are copied into an aligned buffer first so POD
/// sections stay reinterpretable.
pub fn read_artifact_bytes(data: &[u8]) -> Result<CompiledDataset, ArtifactError> {
    decode_artifact(Arc::new(ArtifactBytes::from_slice(data)))
}
