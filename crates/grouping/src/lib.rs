//! # ec-grouping — unsupervised string-transformation learning
//!
//! This crate implements the core algorithmic contribution of the paper:
//! partitioning a set `Φ` of candidate replacements into groups such that all
//! replacements in a group share a transformation program (a common *pivot
//! path* through their transformation graphs), with the number of groups kept
//! small by a greedy strategy (optimal partitioning is NP-complete, Section
//! 4.2).
//!
//! Three grouping drivers are provided, matching the methods compared in the
//! paper's Figure 9:
//!
//! * [`OneShotGrouper`] — the vanilla `UnsupervisedGrouping` of Algorithm 2,
//!   optionally with the local/global threshold early-termination
//!   optimizations of Algorithm 4 (`EarlyTerm`);
//! * [`IncrementalGrouper`] — the top-k algorithm of Section 6 (Algorithms
//!   5–7) that produces the next-largest group per invocation;
//! * [`StructuredGrouper`] — either of the above composed with the
//!   structure-signature refinement of Section 7.2, which is the configuration
//!   the paper actually evaluates (`Group` in Figures 6–8).
//!
//! ```
//! use ec_graph::Replacement;
//! use ec_grouping::{GroupingConfig, StructuredGrouper};
//!
//! let replacements = vec![
//!     Replacement::new("Lee, Mary", "M. Lee"),
//!     Replacement::new("Smith, James", "J. Smith"),
//!     Replacement::new("Lee, Mary", "Mary Lee"),
//!     Replacement::new("Smith, James", "James Smith"),
//! ];
//! let mut grouper = StructuredGrouper::new(&replacements, GroupingConfig::default());
//! let first = grouper.next_group().expect("at least one group");
//! assert_eq!(first.size(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod group;
mod incremental;
mod oneshot;
mod prepared;
mod search;
mod structured;

pub use config::GroupingConfig;
pub use ec_graph::Parallelism;
pub use group::Group;
pub use incremental::IncrementalGrouper;
pub use oneshot::OneShotGrouper;
pub use prepared::PreparedGraphs;
pub use search::{PivotResult, PivotSearcher};
pub use structured::{partition_replacements, StructuredGrouper};
