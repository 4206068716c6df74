//! # ec-resolution — entity resolution substrate
//!
//! The paper's pipeline *consumes* the output of entity resolution: "Entity
//! consolidation takes as input a collection of clusters, where each cluster
//! contains a set of duplicate records" (Section 1). The authors point to
//! systems such as Tamr, Magellan and DataCivilizer for producing those
//! clusters. So that this repository is usable end-to-end on raw (unclustered)
//! records, this crate implements that substrate from scratch:
//!
//! * [`tokenize`] — normalization, word and q-gram tokenizers, plus the
//!   scratch-based variants ([`tokenize::TokenBuf`], [`tokenize::words_into`])
//!   the hot paths use;
//! * [`similarity`] — edit distance, Damerau–Levenshtein, Jaro / Jaro–Winkler,
//!   Jaccard and q-gram cosine similarity, implemented as allocation-free
//!   bit-parallel kernels with threshold-aware early-abandon entry points;
//! * [`reference`](mod@reference) — the pre-rewrite textbook kernels, frozen verbatim as
//!   differential test references and benchmark baselines;
//! * [`blocking`] — token blocking and sorted-neighborhood candidate
//!   generation so that resolution does not need to compare all `O(n²)`
//!   pairs, built incrementally as records arrive;
//! * [`unionfind`] — a disjoint-set forest used to turn matching pairs into
//!   clusters;
//! * [`matcher`] — the record-pair matcher (per-column similarity measures,
//!   weights, and a match threshold) and the [`matcher::Resolver`] whose
//!   entry points emit clusters or an [`ec_data::Dataset`] ready for the
//!   consolidation pipeline;
//! * [`streaming`] — the one resolution state, [`streaming::DeltaResolver`]:
//!   records, blocking state and a cache of match decisions keyed by value.
//!   Every entry point is that state plus a snapshot — incremental ingest
//!   keeps it alive across batches, [`matcher::Resolver::resolve_stream`]
//!   pushes an [`ec_data::RecordStream`] record-at-a-time with bounded
//!   per-block memory, and the slice entry points push a slice — so one-shot
//!   resolution is the single-batch case of incremental resolution and
//!   bit-identical to it.
//!
//! The design mirrors the classical match–cluster architecture surveyed by
//! Elmagarmid et al. (cited as \[18\] in the paper): candidate generation via
//! blocking, pairwise similarity scoring, thresholding, and transitive
//! closure.
//!
//! ```
//! use ec_resolution::prelude::*;
//!
//! let records = vec![
//!     RawRecord::new(0, ["Mary Lee", "9 St, 02141 Wisconsin"]),
//!     RawRecord::new(1, ["M. Lee", "9th St, 02141 WI"]),
//!     RawRecord::new(2, ["James Smith", "3rd E Ave, 33990 California"]),
//!     RawRecord::new(0, ["Smith, James", "5th St, 22701 California"]),
//! ];
//! let resolver = Resolver::new(ResolverConfig::default());
//! let clusters = resolver.resolve(&records);
//! assert!(!clusters.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blocking;
pub mod matcher;
pub mod reference;
pub mod similarity;
pub mod streaming;
pub mod tokenize;
pub mod unionfind;

pub use blocking::BlockingConfig;
pub use ec_graph::Parallelism;
pub use matcher::{
    BlockingScheme, ColumnRule, CompiledRules, MatchDecision, RawRecord, Resolver, ResolverConfig,
};
pub use similarity::{
    damerau_levenshtein, jaccard, jaro, jaro_winkler, levenshtein, normalized_levenshtein,
    qgram_cosine, take_kernel_path_counts, SimilarityMeasure, EARLY_ABANDON_MARGIN,
};
pub use streaming::DeltaResolver;
pub use tokenize::{normalize, normalize_into, qgrams, words, words_into, TokenBuf};
pub use unionfind::UnionFind;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use crate::blocking::BlockingConfig;
    pub use crate::matcher::{ColumnRule, RawRecord, Resolver, ResolverConfig};
    pub use crate::similarity::SimilarityMeasure;
    pub use crate::streaming::DeltaResolver;
}
