//! Memory footprint of the prepared grouping state (Algorithm 6's graphs,
//! label interner and inverted index). A counting global allocator measures
//! the bytes every structure partition of perfbench `consolidate`'s inputs
//! holds once prepared. Allocation sizes are deterministic, so the bound is
//! exact to the byte on every machine: it fails when a change makes the
//! prepared state larger, not when a machine is slow.

use entity_consolidation::grouping::{partition_replacements, PreparedGraphs};
use entity_consolidation::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// The system allocator, keeping a count of the bytes currently allocated.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call forwards to `System` unchanged; the counter is only
// bookkeeping.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Every structure partition of the three inputs perfbench's `consolidate`
/// workload times: 20-cluster address data, generator seeds 30, 14 and 18.
fn ladder_partitions(config: &GroupingConfig) -> Vec<Vec<Replacement>> {
    let mut partitions = Vec::new();
    for seed in [30, 14, 18] {
        let data = PaperDataset::Address.generate(&GeneratorConfig {
            num_clusters: 20,
            seed,
            ..PaperDataset::Address.default_config()
        });
        for col in 0..data.columns.len() {
            let candidates =
                generate_candidates(&data.column_values(col), &CandidateConfig::default());
            partitions.extend(partition_replacements(&candidates.replacements, config));
        }
    }
    partitions
}

#[test]
fn prepared_ladder_partitions_stay_within_their_byte_budget() {
    let config = GroupingConfig::default();
    let partitions = ladder_partitions(&config);
    let before = LIVE.load(Ordering::Relaxed);
    let prepared: Vec<PreparedGraphs> = partitions
        .iter()
        .map(|members| PreparedGraphs::build(members, &config))
        .collect();
    let held = LIVE.load(Ordering::Relaxed) - before;
    let graphs: usize = prepared.iter().map(|p| p.len()).sum();
    let labels: usize = prepared.iter().map(|p| p.interner().len()).sum();
    assert_eq!((partitions.len(), graphs, labels), (158, 1874, 131_734));
    // About 29.5 MB (interners 4.4, graphs 7.8, index 15.7, search tables
    // 1.6). Per-label `StringFn`s and per-edge label lists held 46.0 MB.
    const BUDGET: isize = 32_000_000;
    assert!(
        held <= BUDGET,
        "the prepared ladder holds {held} bytes, over the {BUDGET}-byte budget"
    );
}
