//! # ec-graph — transformation graphs
//!
//! Given a *candidate replacement* `s → t` (two non-identical values drawn
//! from the same cluster), every transformation program consistent with the
//! replacement can be encoded in a single directed acyclic graph — the
//! *transformation graph* of Definition 2 in the paper. Nodes are positions of
//! the output string `t`, an edge `(i, j)` corresponds to the substring
//! `t[i..j)`, and the edge's labels are the string functions that produce that
//! substring when applied to `s`. A path from the first to the last node whose
//! edges each contribute one label is a *transformation path*, and corresponds
//! one-to-one to a consistent program (Theorem 4.2).
//!
//! This crate provides:
//!
//! * [`Replacement`] — a candidate replacement `lhs → rhs`;
//! * [`LabelInterner`] / [`LabelId`] — hash-consing of string functions so
//!   that graphs, the inverted index and path comparison work on integers;
//! * [`TransformationGraph`] and [`GraphBuilder`] — the graph itself and the
//!   construction algorithm of Appendix C (with the affix labels of
//!   Appendix D and the static-order pruning of Appendix E);
//! * [`Structure`] / [`structure_of`] — the character-class structure
//!   signatures of Section 7.2 used to pre-partition replacements.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod label;
pub mod parallel;
pub mod pool;
#[doc(hidden)]
pub mod reference;
pub mod replacement;
pub mod structure;

pub use builder::{ConstantPolicy, Edge, GraphBuilder, GraphConfig, TransformationGraph};
pub use label::{LabelId, LabelInterner};
pub use parallel::Parallelism;
pub use pool::{PoolTask, WorkerPool};
pub use replacement::Replacement;
pub use structure::{structure_of, ReplacementStructure, Structure, StructureToken};
