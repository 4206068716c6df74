//! Pivot-path search (Algorithm 3 `SearchPivot`, with the early-termination
//! optimizations of Algorithm 4).
//!
//! For a graph `G`, the *pivot path* is the transformation path of `G` (a path
//! from the first to the last node, one label per edge) shared by the largest
//! number of graphs in the collection. The search is a depth-first enumeration
//! of paths starting at the first node, maintaining the list `ℓ` of graphs
//! containing the current prefix via the inverted index; two optimizations
//! prune the enumeration:
//!
//! * **local threshold** — extending a path can only shrink `ℓ`, so branches
//!   whose list is not strictly larger than the best complete path found so
//!   far (or the caller-provided threshold) are cut;
//! * **global threshold** — every time a complete transformation path shared
//!   by `n` graphs is found, those graphs' pivot paths are known to be shared
//!   by at least `n` graphs, so their own searches can start from that bound.
//!
//! Ties between equally-shared paths are broken by the static function order
//! of Appendix E: paths using fewer `ConstantStr` labels are preferred, since
//! constants are the least general functions (two replacements with identical
//! right-hand sides trivially share an all-constants path that conveys no
//! transformation at all).
//!
//! ## Dominance pruning
//!
//! A search *state* is a node of the searched graph together with the
//! [`PathList`] of the prefix that reached it. Everything below a state —
//! which extensions exist, their lists and so their share counts — depends
//! on the state alone, so two prefixes reaching the same state have
//! identical subtrees; they differ only in the tie-break quality they carry
//! into them. A prefix with no fewer constant characters *and* no shorter
//! length than one already committed to the same state can only tie or lose
//! on every completion, and [`beats`] is strict, so it is skipped.
//!
//! Duplicate *siblings* — parallel labels on one edge whose extensions are
//! the same list — are the common case, and they collapse as
//! [`collect_candidates`] examines them: each extension is written into a
//! reused buffer, and only the sibling with the fewest constant characters
//! (earliest in edge-label order on ties) is kept per distinct state. That
//! is the sibling that sorts first, so it is the only one a state table
//! could accept; a [`PathList`] is built only for a state not seen before.
//! A collapsed label is still charged its step, so budgets, truncation
//! points and `ec_pivot_search_steps` do not depend on the collapse.
//!
//! Most duplicate siblings are known before they are extended. Every label
//! has a *posting class*, the smallest label id with an identical posting
//! list ([`PreparedGraphs::posting_classes`], derived once per prepared
//! state). Labels of one class extend every list identically, so
//! [`collect_candidates`] extends one label per class and edge, that is per
//! `(class, target node)`, and settles the others from the memo: they join
//! the collapse of the state their class reached, or, when the class was
//! rejected, are re-checked for viability with their own quality. Structure
//! refinement puts graphs of one shape in one partition, where the many
//! `SubStr` position-function pairs of one substring land on the same
//! postings, so on the address ladder about nine in ten examined labels are
//! settled this way.
//!
//! Each search also owns one hash-keyed state table. [`collect_candidates`]
//! commits the surviving extensions to it in exploration order, after the
//! local-threshold checks, so it is a transposition table for the whole
//! search: a state reached again by a different prefix is explored once, by
//! the best prefix to arrive.
//!
//! Hash matches are confirmed on the full occurrence slice. The pruning
//! never drops a prefix of the path the plain recursive DFS would return (a
//! dominating state is either strictly better on every completion or was
//! committed earlier in DFS order), so with a budget that does not bind the
//! result — path, list and share count — is exactly the DFS's; the test
//! module keeps that DFS as the differential oracle. A table is never shared
//! across searches, so every search stays a pure function of its inputs and
//! results stay bit-identical at every thread count. It holds at most one
//! entry per step taken.
//!
//! Each search is one sequential DFS from the first node, and the groupers
//! run their searches one after another, as in the paper's Algorithms 2, 4
//! and 7: every bound a search raises is visible to the next search. Only
//! whole structure partitions run in parallel (see `StructuredGrouper`).

use crate::config::GroupingConfig;
use crate::prepared::PreparedGraphs;
use ec_graph::LabelId;
use ec_index::{GraphId, InvertedIndex, PathList, PathOccurrence};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Registry handles for the search's two budget signals: how many steps each
/// pivot search actually spends, and how often the budget runs dry (a search
/// that keeps exhausting its budget is the first thing to look at when group
/// quality drops on label-rich data).
struct SearchMetrics {
    steps: ec_obs::Histogram,
    budget_exhausted: ec_obs::Counter,
}

fn search_metrics() -> &'static SearchMetrics {
    static METRICS: std::sync::OnceLock<SearchMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| SearchMetrics {
        steps: ec_obs::histogram(
            "ec_pivot_search_steps",
            "Path-extension steps spent per pivot search.",
            ec_obs::Unit::Count,
            ec_obs::COUNT_BUCKETS,
        ),
        budget_exhausted: ec_obs::counter(
            "ec_pivot_budget_exhausted_total",
            "Pivot searches that ran out of their step budget.",
        ),
    })
}

/// The result of a pivot-path search.
#[derive(Debug, Clone)]
pub struct PivotResult {
    /// The pivot path (sequence of labels).
    pub path: Vec<LabelId>,
    /// Graphs containing the path anchored at their first node.
    pub list: PathList,
    /// Graphs for which the path is a *complete* transformation path (reaches
    /// their last node) and which are still active; these are the graphs that
    /// may join the group keyed by this path.
    pub complete: Vec<GraphId>,
    /// The number of active graphs containing the path (the score the search
    /// maximises, the paper's `|ℓ|`).
    pub share_count: usize,
}

impl PivotResult {
    /// Wraps a search's best path, listing the active graphs it completes.
    fn new(
        path: Vec<LabelId>,
        list: PathList,
        share_count: usize,
        active: &[bool],
        last_nodes: &[u32],
    ) -> Self {
        let mut complete: Vec<GraphId> = list
            .occurrences()
            .iter()
            .filter(|occ| active[occ.graph.index()] && occ.end == last_nodes[occ.graph.index()])
            .map(|occ| occ.graph)
            .collect();
        complete.dedup();
        PivotResult {
            path,
            list,
            complete,
            share_count,
        }
    }
}

/// Searches pivot paths over one [`PreparedGraphs`] collection.
///
/// The searcher is cheap to construct (the per-label tables it reads are
/// derived once per [`PreparedGraphs`]) and immutable afterwards, so one
/// instance serves the searches of many graphs.
pub struct PivotSearcher {
    prepared: Arc<PreparedGraphs>,
    config: GroupingConfig,
}

struct SearchState<'a> {
    index: &'a InvertedIndex,
    active: &'a [bool],
    last_nodes: &'a [u32],
    max_path_len: usize,
    early_termination: bool,
    /// `dist_to_end[i]` — minimum number of edges needed to reach the last
    /// node of the searched graph from node `i` (`u32::MAX` if unreachable).
    /// Branches that cannot complete within the path-length cap are pruned.
    dist_to_end: &'a [u32],
    /// Remaining budget of path extensions (list intersections); when it runs
    /// out the search keeps whatever best complete path it has found so far.
    steps_left: usize,
    /// `constant_chars[label]` — number of output characters the label emits
    /// as a constant (0 for non-constant labels), used for the static-order
    /// tie-break: among equally shared paths the one whose output depends the
    /// least on constants (and then the shorter one) is preferred.
    constant_chars: &'a [u32],
    /// `classes[label]` — the label's posting class
    /// ([`PreparedGraphs::posting_classes`]); labels of one class on one
    /// edge are extended once (see [`collect_candidates`]).
    classes: &'a [u32],
    /// The searched graph's index into `bounds`.
    searched: usize,
    /// The per-graph global lower bounds (the paper's `G_lo`), raised in
    /// place by maximum whenever a complete path is found. The DFS reads
    /// only the searched graph's own entry.
    bounds: &'a mut [u32],
    /// Best complete path found so far: `(path, list, share count,
    /// quality)`. Its `(share count, quality)` is the acceptance bar every new
    /// complete path must beat.
    best: Option<(Vec<LabelId>, PathList, usize, Quality)>,
    threshold: usize,
    /// The states this search has committed to exploring; see the module
    /// docs on dominance pruning.
    table: StateTable,
    /// The buffer every examined extension is written into; a
    /// [`PathList`] is built from it only for a state not seen before.
    scratch: Vec<PathOccurrence>,
    /// The posting classes [`collect_candidates`] has examined on the edge
    /// it is scanning, with their outcomes; reused across calls.
    memo: Vec<(u32, ClassOutcome)>,
}

impl SearchState<'_> {
    /// The acceptance bar: the best complete path's `(share count, quality)`.
    fn bar(&self) -> Option<(usize, Quality)> {
        self.best.as_ref().map(|b| (b.2, b.3))
    }

    /// The local and global thresholds of Algorithm 4, applied only with early
    /// termination on. An extension shared by `count` graphs must still be
    /// able to beat the best complete path found so far — a strictly larger
    /// share count, or an equal count with strictly better quality (the
    /// partial quality only degrades as the path grows, so it lower bounds
    /// any completion) — and must not fall below the graph's own global lower
    /// bound (Algorithm 4, line 5).
    fn viable(&self, count: usize, partial: Quality) -> bool {
        !self.early_termination
            || (count > self.threshold
                && count as u32 >= self.bounds[self.searched]
                && beats(count, partial, &self.bar()))
    }

    /// Accepts `(path, list, count, quality)` as the new best if it clears the
    /// local threshold and beats the bar.
    fn offer(
        &mut self,
        count: usize,
        quality: Quality,
        make: impl FnOnce() -> (Vec<LabelId>, PathList),
    ) {
        if count <= self.threshold || !beats(count, quality, &self.bar()) {
            return;
        }
        let (path, list) = make();
        self.best = Some((path, list, count, quality));
    }
}

/// Does a candidate `(count, quality)` beat the acceptance bar? Quality only
/// degrades as a path grows, so a partial path's quality is a valid lower
/// bound for this comparison (the pruning sites rely on that).
fn beats(count: usize, quality: Quality, bar: &Option<(usize, Quality)>) -> bool {
    match bar {
        None => true,
        Some((bar_count, bar_quality)) => {
            count > *bar_count || (count == *bar_count && quality < *bar_quality)
        }
    }
}

/// Tie-break quality of a path: total characters produced by constant labels,
/// then path length. Smaller is better; both components only grow as a path is
/// extended, so a partial path's quality is a valid lower bound on the quality
/// of any of its completions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Quality {
    constant_chars: usize,
    len: usize,
}

impl Quality {
    /// Is every completion of a prefix of quality `self` at least as good as
    /// the same completion of a prefix of quality `other`? Needs both
    /// components, not just the lexicographic order: the shorter prefix also
    /// has every completion of the longer one within the path-length cap.
    fn dominates(self, other: Quality) -> bool {
        self.constant_chars <= other.constant_chars && self.len <= other.len
    }
}

/// The dominance table of one [`SearchState`]: every `(node, PathList)`
/// state committed for exploration, with the Pareto front of the prefix
/// qualities that reached it (see the module docs).
#[derive(Default)]
struct StateTable {
    /// States bucketed by [`state_hash`]; equality is confirmed on the node
    /// and the full occurrence slice.
    buckets: HashMap<u64, Vec<(u32, PathList, Quality)>, BuildHasherDefault<StateHasher>>,
}

impl StateTable {
    /// Commits the state `(node, list)`, whose [`state_hash`] is `hash`,
    /// reached by a prefix of `quality`. Returns `false`, recording nothing,
    /// when an already committed prefix of the same state dominates it.
    fn commit(&mut self, hash: u64, node: u32, list: &PathList, quality: Quality) -> bool {
        let bucket = self.buckets.entry(hash).or_default();
        let same_state = |&(n, ref l, _): &(u32, PathList, Quality)| n == node && l == list;
        if bucket
            .iter()
            .any(|entry| same_state(entry) && entry.2.dominates(quality))
        {
            return false;
        }
        bucket.retain(|entry| !(same_state(entry) && quality.dominates(entry.2)));
        bucket.push((node, list.clone(), quality));
        true
    }
}

/// The [`StateTable`]'s hasher: its keys are already [`state_hash`]es, so
/// hashing one again would only cost time.
#[derive(Default)]
struct StateHasher(u64);

impl Hasher for StateHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the state table is keyed by u64 state hashes only")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// A 64-bit hash of a search state (multiply-rotate over the occurrences,
/// with the high half folded into the low one, which picks the table slot).
fn state_hash(node: u32, occurrences: &[PathOccurrence]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mut h = u64::from(node).wrapping_mul(K);
    for occ in occurrences {
        let word = (u64::from(occ.graph.0) << 32) | u64::from(occ.end);
        h = (h.rotate_left(5) ^ word).wrapping_mul(K);
    }
    h ^ (h >> 32)
}

/// What one whole pivot search produced.
pub(crate) struct SearchRun {
    pub(crate) result: Option<PivotResult>,
    /// Path extensions spent; equal to [`PivotSearcher::budget`] when the
    /// search ran out of steps and returned the best path found so far
    /// instead of the exact pivot.
    pub(crate) steps: usize,
}

impl PivotSearcher {
    /// Creates a searcher over `prepared` using `config`'s path-length cap and
    /// early-termination setting.
    pub fn new(prepared: Arc<PreparedGraphs>, config: &GroupingConfig) -> Self {
        PivotSearcher {
            prepared,
            config: config.clone(),
        }
    }

    /// The step budget of one search ([`GroupingConfig::max_search_steps`]).
    pub(crate) fn budget(&self) -> usize {
        self.config.max_search_steps.max(1)
    }

    /// Searches the pivot path of graph `g`.
    ///
    /// * `threshold` — only paths shared by **more than** `threshold` active
    ///   graphs are acceptable (the incremental algorithm passes `τ - 1`; the
    ///   one-shot algorithm passes 0).
    /// * `active` — graphs still participating (inactive graphs are invisible
    ///   to share counts and group membership).
    /// * `lower_bounds` — the per-graph global thresholds, raised in place
    ///   whenever a complete path is found (only when early termination is
    ///   enabled, mirroring Algorithm 4). The search reads only `g`'s entry.
    ///
    /// Returns `None` when no transformation path of `g` is shared by more
    /// than `threshold` active graphs (within the path-length cap).
    pub fn search(
        &self,
        g: GraphId,
        threshold: usize,
        active: &[bool],
        lower_bounds: &mut [u32],
    ) -> Option<PivotResult> {
        self.run(g, threshold, active, lower_bounds).result
    }

    /// [`PivotSearcher::search`], also reporting the steps spent.
    pub(crate) fn run(
        &self,
        g: GraphId,
        threshold: usize,
        active: &[bool],
        lower_bounds: &mut [u32],
    ) -> SearchRun {
        let classes = self.prepared.posting_classes();
        self.run_with_classes(g, threshold, active, lower_bounds, classes)
    }

    /// [`PivotSearcher::run`] with the posting-class table as an input: any
    /// table whose classes only join labels with identical posting lists
    /// yields the same search, step for step. The identity table (every
    /// label its own class) collapses no label ahead of its extension.
    fn run_with_classes(
        &self,
        g: GraphId,
        threshold: usize,
        active: &[bool],
        lower_bounds: &mut [u32],
        classes: &[u32],
    ) -> SearchRun {
        let _span = ec_obs::span!("grouping.pivot_search", g.index());
        let graph = self.prepared.graph(g);
        // Minimum number of edges from each node of `graph` to its last node;
        // paths that cannot complete within the length cap are never
        // explored.
        let dist_to_end = distance_to_end(graph);
        let budget = self.budget();
        let mut state = SearchState {
            index: self.prepared.index(),
            active,
            last_nodes: self.prepared.last_nodes(),
            max_path_len: self.config.max_path_len,
            early_termination: self.config.early_termination,
            dist_to_end: &dist_to_end,
            steps_left: budget,
            constant_chars: self.prepared.constant_chars(),
            classes,
            searched: g.index(),
            bounds: lower_bounds,
            best: None,
            threshold,
            table: StateTable::default(),
            scratch: Vec::new(),
            memo: Vec::new(),
        };
        let universe = PathList::universe(self.prepared.len());

        // Seed the best path with the single-edge paths over the full-output
        // edge (which always includes the `ConstantStr(t)` label): this both
        // guarantees that a complete path is known before the search budget
        // can run out and gives the local threshold an immediate baseline.
        if let Some(full_edge) = graph.edge(0, graph.last_node()) {
            for &label in full_edge {
                let list = state.index.extend(&universe, label);
                let count = active_count(list.occurrences(), state.active);
                let quality = Quality {
                    constant_chars: state.constant_chars[label.index()] as usize,
                    len: 1,
                };
                state.offer(count, quality, || (vec![label], list));
            }
        }

        // An empty output (last node 0) is covered too: the empty path is its
        // only transformation path, and `dfs` at the last node just offers it.
        if state.dist_to_end[0] as usize <= state.max_path_len {
            dfs(graph, 0, &mut Vec::new(), &universe, 0, &mut state);
        }
        let steps = budget - state.steps_left;
        let metrics = search_metrics();
        metrics.steps.observe(steps as u64);
        if state.steps_left == 0 {
            metrics.budget_exhausted.inc();
        }
        let last_nodes = state.last_nodes;
        let result = state
            .best
            .take()
            .map(|(path, list, count, _)| PivotResult::new(path, list, count, active, last_nodes));
        SearchRun { result, steps }
    }
}

/// `dist[i]` — the minimum number of edges needed to go from node `i` to the
/// last node of `graph`, or `u32::MAX` when the last node is unreachable from
/// `i`. Computed by a reverse DP over the DAG (edges always point forward).
fn distance_to_end(graph: &ec_graph::TransformationGraph) -> Vec<u32> {
    let last = graph.last_node();
    let mut dist = vec![u32::MAX; last as usize + 1];
    dist[last as usize] = 0;
    for i in (0..last).rev() {
        let mut best = u32::MAX;
        for (to, _) in graph.out_edges(i) {
            let d = dist[to as usize];
            if d != u32::MAX {
                best = best.min(d + 1);
            }
        }
        dist[i as usize] = best;
    }
    dist
}

/// Number of distinct *active* graphs among a path list's occurrences.
fn active_count(occurrences: &[PathOccurrence], active: &[bool]) -> usize {
    let mut count = 0;
    let mut last = None;
    for occ in occurrences {
        if active[occ.graph.index()] && last != Some(occ.graph) {
            count += 1;
            last = Some(occ.graph);
        }
    }
    count
}

/// One viable extension of the current node: `(label, target node, extended
/// list, active share count, constant chars including the label)`.
type Candidate = (LabelId, u32, PathList, usize, usize);

/// A distinct state collected by [`collect_candidates`]: the candidate that
/// represents it, the state's [`state_hash`], and the examination index of
/// the candidate's label.
struct Collected {
    candidate: Candidate,
    hash: u64,
    examined: usize,
}

/// What extending by one posting class on the edge being scanned gave.
#[derive(Clone, Copy)]
enum ClassOutcome {
    /// The state reached is collected, at this slot.
    Kept(usize),
    /// The state reached was rejected; its active share count (0 for an
    /// empty or inactive list).
    Rejected(usize),
}

/// The DFS's candidate step: collects the viable extensions of `node`, sorted
/// into exploration order — decreasing share count (ties: longer edges, then
/// fewer constant characters, then edge-label order). Finding a high-share
/// complete path early makes the local threshold bite on all remaining
/// branches, which is where essentially all of the search time goes on real
/// data.
///
/// Siblings that reach the same state — parallel labels on one edge whose
/// extensions are the same list — collapse as they are collected: only the
/// one with the fewest constant characters (earliest in edge-label order on
/// ties) is kept, the one that sorts first among them and so the only one
/// the state table could accept. Each extension is written into the
/// state's scratch buffer, and a [`PathList`] is built only for a state not
/// seen before in this call. The survivors are then committed to the state
/// table in exploration order, dropping every one dominated by a state
/// committed before it by another prefix (module docs).
///
/// Labels of one posting class extend every list identically, so a label
/// whose class was already examined on the same edge skips its extension: it
/// joins the collapse of the state its class reached, or, when its class was
/// rejected, is re-checked for viability with its own quality and extended
/// only if that passes. The memo is per edge, that is per `(class, target
/// node)`: a label can sit on several out-edges of one node (suffixes of one
/// `Suffix` match that end at different output positions can start at the
/// same one), and each edge reaches a different state.
///
/// Consumes one step per examined label, duplicates included; returns `None`
/// when the budget ran out mid-collection (the caller must stop, keeping its
/// best so far).
fn collect_candidates(
    graph: &ec_graph::TransformationGraph,
    node: u32,
    list: &PathList,
    path_len: usize,
    const_chars: usize,
    state: &mut SearchState<'_>,
) -> Option<Vec<Candidate>> {
    // Only one more label fits: the next edge must reach the last node.
    let last_step = path_len + 1 == state.max_path_len;
    // Remaining length budget for the rest of the path.
    let remaining = state.max_path_len - path_len;
    let mut collected: Vec<Collected> = Vec::new();
    let mut examined = 0usize;
    let mut memo = std::mem::take(&mut state.memo);
    for (to, labels) in graph.out_edges(node) {
        if last_step && to != graph.last_node() {
            continue;
        }
        // Feasibility: after taking this edge there must still be enough path
        // length left to reach the last node.
        let to_end = state.dist_to_end[to as usize];
        if to_end == u32::MAX || 1 + to_end as usize > remaining {
            continue;
        }
        memo.clear();
        for &label in labels {
            // Cheap upper bound: a label occurring in at most `threshold`
            // graphs can never lead to an acceptable path.
            if state.index.list_graph_count(label) <= state.threshold {
                continue;
            }
            if state.steps_left == 0 {
                state.memo = memo;
                return None;
            }
            state.steps_left -= 1;
            examined += 1;
            let next_chars = const_chars + state.constant_chars[label.index()] as usize;
            let partial = Quality {
                constant_chars: next_chars,
                len: path_len + 1,
            };
            let class = state.classes[label.index()];
            let known = memo.iter().position(|&(c, _)| c == class);
            match known.map(|m| memo[m].1) {
                Some(ClassOutcome::Kept(slot)) => {
                    collapse(&mut collected[slot], label, next_chars, examined);
                    continue;
                }
                // A label with fewer constant characters than the rejected
                // one of its class may still be viable.
                Some(ClassOutcome::Rejected(count))
                    if count == 0 || !state.viable(count, partial) =>
                {
                    continue
                }
                _ => {}
            }
            state.index.extend_into(list, label, &mut state.scratch);
            let extended = &state.scratch[..];
            let hash = state_hash(to, extended);
            let seen = collected.iter().position(|c| {
                c.hash == hash && c.candidate.1 == to && c.candidate.2.occurrences() == extended
            });
            let outcome = if let Some(slot) = seen {
                collapse(&mut collected[slot], label, next_chars, examined);
                ClassOutcome::Kept(slot)
            } else {
                let count = active_count(extended, state.active);
                if count > 0 && state.viable(count, partial) {
                    let extended = PathList::from_sorted_slice(extended);
                    collected.push(Collected {
                        candidate: (label, to, extended, count, next_chars),
                        hash,
                        examined,
                    });
                    ClassOutcome::Kept(collected.len() - 1)
                } else {
                    ClassOutcome::Rejected(count)
                }
            };
            match known {
                Some(m) => memo[m].1 = outcome,
                None => memo.push((class, outcome)),
            }
        }
    }
    state.memo = memo;
    collected.sort_unstable_by(|x, y| {
        let (a, b) = (&x.candidate, &y.candidate);
        b.3.cmp(&a.3) // larger share count first
            .then_with(|| b.1.cmp(&a.1)) // longer jumps first (completes sooner)
            .then_with(|| a.4.cmp(&b.4)) // fewer constant characters first
            .then_with(|| x.examined.cmp(&y.examined)) // then edge-label order
    });
    let quality = |chars: usize| Quality {
        constant_chars: chars,
        len: path_len + 1,
    };
    Some(
        collected
            .into_iter()
            .filter(|c| {
                let (_, to, ref list, _, chars) = c.candidate;
                state.table.commit(c.hash, to, list, quality(chars))
            })
            .map(|c| c.candidate)
            .collect(),
    )
}

/// A sibling reached the kept candidate's state with the same share count,
/// so the local threshold accepts it whenever it has fewer constant
/// characters than the kept one.
fn collapse(kept: &mut Collected, label: LabelId, next_chars: usize, examined: usize) {
    if next_chars < kept.candidate.4 {
        kept.candidate.0 = label;
        kept.candidate.4 = next_chars;
        kept.examined = examined;
    }
}

fn dfs(
    graph: &ec_graph::TransformationGraph,
    node: u32,
    path: &mut Vec<LabelId>,
    list: &PathList,
    const_chars: usize,
    state: &mut SearchState<'_>,
) {
    if node == graph.last_node() {
        // The maintained path is a transformation path of `graph`.
        let count = active_count(list.occurrences(), state.active);
        let quality = Quality {
            constant_chars: const_chars,
            len: path.len(),
        };
        state.offer(count, quality, || (path.clone(), list.clone()));
        if state.early_termination {
            // Global threshold update (Algorithm 4): every graph for which this
            // path is complete has a pivot path shared by at least `count` graphs.
            for occ in list.occurrences() {
                let gi = occ.graph.index();
                if state.active[gi] && occ.end == state.last_nodes[gi] {
                    let bound = &mut state.bounds[gi];
                    *bound = (*bound).max(count as u32);
                }
            }
        }
        return;
    }
    if path.len() >= state.max_path_len {
        return;
    }
    let Some(candidates) = collect_candidates(graph, node, list, path.len(), const_chars, state)
    else {
        return;
    };
    for (label, to, extended, count, next_chars) in candidates {
        if state.steps_left == 0 {
            return;
        }
        // Re-check against the (possibly improved) bar before descending.
        let partial = Quality {
            constant_chars: next_chars,
            len: path.len() + 1,
        };
        if !state.viable(count, partial) {
            continue;
        }
        path.push(label);
        dfs(graph, to, path, &extended, next_chars, state);
        path.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structured::tests::{address_candidates, mega_group_candidates};
    use ec_dsl::{Dir, PositionFn, StringFn, Term};
    use ec_graph::Replacement;

    fn prepared(reps: &[Replacement], config: &GroupingConfig) -> Arc<PreparedGraphs> {
        Arc::new(PreparedGraphs::build(reps, config))
    }

    fn example_5_1() -> Vec<Replacement> {
        vec![
            Replacement::new("Lee, Mary", "M. Lee"),
            Replacement::new("Smith, James", "J. Smith"),
            Replacement::new("Lee, Mary", "Mary Lee"),
        ]
    }

    // Paper Example 5.2 / Table 5: the pivot path of G1 is f2 ⊕ f3 ⊕ f1,
    // shared by G1 and G2.
    #[test]
    fn paper_example_5_2_pivot_of_g1() {
        let config = GroupingConfig::default();
        let prep = prepared(&example_5_1(), &config);
        let searcher = PivotSearcher::new(Arc::clone(&prep), &config);
        let mut lower = vec![1u32; prep.len()];
        let active = vec![true; prep.len()];
        let result = searcher
            .search(GraphId(0), 0, &active, &mut lower)
            .expect("pivot path exists");
        assert_eq!(result.share_count, 2, "pivot of G1 is shared by G1 and G2");
        assert_eq!(result.complete, vec![GraphId(0), GraphId(1)]);
        // The shared program must actually transform both replacements.
        let program = prep.resolve_program(&result.path);
        for gid in &result.complete {
            let r = prep.replacement(*gid);
            let ctx = ec_dsl::StrCtx::new(r.lhs());
            assert!(
                program.consistent_with(&ctx, r.rhs()),
                "{program} must be consistent with {r}"
            );
        }
    }

    // Paper Example 5.3: after searching G1, the global threshold of G2 is 2,
    // so G2's own search can prune aggressively and still finds a pivot shared
    // by 2 graphs.
    #[test]
    fn paper_example_5_3_global_threshold_propagates() {
        let config = GroupingConfig::default();
        let prep = prepared(&example_5_1(), &config);
        let searcher = PivotSearcher::new(Arc::clone(&prep), &config);
        let mut lower = vec![1u32; prep.len()];
        let active = vec![true; prep.len()];
        let _ = searcher.search(GraphId(0), 0, &active, &mut lower).unwrap();
        assert_eq!(lower[1], 2, "G2's lower bound is raised to 2");
        let result = searcher.search(GraphId(1), 0, &active, &mut lower).unwrap();
        assert_eq!(result.share_count, 2);
    }

    #[test]
    fn pivot_of_g3_is_the_name_transposition() {
        // G3 = "Lee, Mary" -> "Mary Lee" shares its transposition program with
        // no other graph in this tiny example, so its pivot is shared by 1.
        let config = GroupingConfig::default();
        let prep = prepared(&example_5_1(), &config);
        let searcher = PivotSearcher::new(Arc::clone(&prep), &config);
        let mut lower = vec![1u32; prep.len()];
        let active = vec![true; prep.len()];
        let result = searcher.search(GraphId(2), 0, &active, &mut lower).unwrap();
        assert_eq!(result.share_count, 1);
        assert_eq!(result.complete, vec![GraphId(2)]);
    }

    #[test]
    fn adding_the_fourth_replacement_grows_the_transposition_group() {
        let mut reps = example_5_1();
        reps.push(Replacement::new("Smith, James", "James Smith"));
        let config = GroupingConfig::default();
        let prep = prepared(&reps, &config);
        let searcher = PivotSearcher::new(Arc::clone(&prep), &config);
        let mut lower = vec![1u32; prep.len()];
        let active = vec![true; prep.len()];
        let result = searcher.search(GraphId(2), 0, &active, &mut lower).unwrap();
        assert_eq!(
            result.share_count, 2,
            "Lee/Mary and Smith/James transpositions share a program"
        );
        assert!(result.complete.contains(&GraphId(2)));
        assert!(result.complete.contains(&GraphId(3)));
    }

    #[test]
    fn early_termination_does_not_change_the_result() {
        let mut reps = example_5_1();
        reps.push(Replacement::new("Smith, James", "James Smith"));
        reps.push(Replacement::new("Doe, John", "J. Doe"));
        reps.push(Replacement::new("Roe, Jane", "Jane Roe"));
        let with = GroupingConfig::default();
        let without = GroupingConfig::one_shot();
        let prep_with = prepared(&reps, &with);
        let prep_without = prepared(&reps, &without);
        for g in 0..reps.len() {
            let mut lower_a = vec![1u32; reps.len()];
            let mut lower_b = vec![1u32; reps.len()];
            let active = vec![true; reps.len()];
            let a = PivotSearcher::new(Arc::clone(&prep_with), &with)
                .search(GraphId(g as u32), 0, &active, &mut lower_a)
                .unwrap();
            let b = PivotSearcher::new(Arc::clone(&prep_without), &without)
                .search(GraphId(g as u32), 0, &active, &mut lower_b)
                .unwrap();
            assert_eq!(a.share_count, b.share_count, "graph {g}");
            assert_eq!(a.complete.len(), b.complete.len(), "graph {g}");
        }
    }

    #[test]
    fn threshold_filters_small_pivots() {
        let config = GroupingConfig::default();
        let prep = prepared(&example_5_1(), &config);
        let searcher = PivotSearcher::new(Arc::clone(&prep), &config);
        let mut lower = vec![1u32; prep.len()];
        let active = vec![true; prep.len()];
        // G3's pivot is shared by only 1 graph, so a threshold of 1 rejects it.
        assert!(searcher
            .search(GraphId(2), 1, &active, &mut lower)
            .is_none());
        // G1's pivot is shared by 2 graphs, so a threshold of 1 accepts it…
        assert!(searcher
            .search(GraphId(0), 1, &active, &mut lower)
            .is_some());
        // …and a threshold of 2 rejects it.
        let mut lower = vec![1u32; prep.len()];
        assert!(searcher
            .search(GraphId(0), 2, &active, &mut lower)
            .is_none());
    }

    #[test]
    fn inactive_graphs_are_not_counted_or_grouped() {
        let config = GroupingConfig::default();
        let prep = prepared(&example_5_1(), &config);
        let searcher = PivotSearcher::new(Arc::clone(&prep), &config);
        let mut lower = vec![1u32; prep.len()];
        let mut active = vec![true; prep.len()];
        active[1] = false; // deactivate "Smith, James" -> "J. Smith"
        let result = searcher.search(GraphId(0), 0, &active, &mut lower).unwrap();
        assert_eq!(result.share_count, 1);
        assert_eq!(result.complete, vec![GraphId(0)]);
    }

    #[test]
    fn max_path_len_limits_the_search() {
        // With a path cap of 1 the only complete paths are single labels such
        // as the full-string constant, so the pivot is shared by 1 graph.
        let config = GroupingConfig {
            max_path_len: 1,
            ..GroupingConfig::default()
        };
        let prep = prepared(&example_5_1(), &config);
        let searcher = PivotSearcher::new(Arc::clone(&prep), &config);
        let mut lower = vec![1u32; prep.len()];
        let active = vec![true; prep.len()];
        let result = searcher.search(GraphId(0), 0, &active, &mut lower).unwrap();
        assert_eq!(result.share_count, 1);
        assert_eq!(result.path.len(), 1);
    }

    /// Asserts that two result lists are identical, path lists included.
    fn assert_same_results(a: &[Option<PivotResult>], b: &[Option<PivotResult>], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}");
        for (a, b) in a.iter().zip(b) {
            match (a, b) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!(a.path, b.path, "{what}");
                    assert_eq!(a.share_count, b.share_count, "{what}");
                    assert_eq!(a.complete, b.complete, "{what}");
                    assert_eq!(a.list, b.list, "{what}");
                }
                _ => panic!("{what}: presence differs"),
            }
        }
    }

    #[test]
    fn sequential_searches_keep_every_bound_sound() {
        // Several transformation families, so the searches interact through
        // the shared lower bounds. Each graph's true pivot share comes from a
        // search with fresh bounds; searching the graphs one after another
        // over shared bounds must find the same pivots and never raise a
        // bound past a true share.
        let reps = family_replacements();
        let config = GroupingConfig::default();
        let prep = prepared(&reps, &config);
        let searcher = PivotSearcher::new(Arc::clone(&prep), &config);
        let active = vec![true; prep.len()];
        let gids: Vec<GraphId> = (0..prep.len()).map(|g| GraphId(g as u32)).collect();
        let fresh: Vec<Option<PivotResult>> = gids
            .iter()
            .map(|&g| searcher.search(g, 0, &active, &mut vec![1u32; prep.len()]))
            .collect();
        let mut bounds = vec![1u32; prep.len()];
        let sequential: Vec<Option<PivotResult>> = gids
            .iter()
            .map(|&g| searcher.search(g, 0, &active, &mut bounds))
            .collect();
        assert_same_results(&fresh, &sequential, "shared bounds");
        assert!(
            bounds.iter().any(|&bound| bound > 1),
            "the bounds must rise"
        );
        for (g, bound) in bounds.iter().enumerate() {
            let share = fresh[g]
                .as_ref()
                .expect("every graph has a pivot")
                .share_count;
            assert!(
                *bound as usize <= share,
                "bound {bound} exceeds true share {share} of graph {g}"
            );
        }
    }

    /// A workload with several interacting transformation families, reused by
    /// the search tests.
    fn family_replacements() -> Vec<Replacement> {
        let mut reps = Vec::new();
        for (last, first) in [
            ("Lee", "Mary"),
            ("Smith", "James"),
            ("Brown", "Anna"),
            ("Jones", "Paul"),
            ("Davis", "Emma"),
            ("Moore", "Lucy"),
        ] {
            reps.push(Replacement::new(
                format!("{last}, {first}"),
                format!("{first} {last}"),
            ));
            let initial = first.chars().next().unwrap();
            reps.push(Replacement::new(
                format!("{last}, {first}"),
                format!("{initial}. {last}"),
            ));
        }
        reps
    }

    /// The plain recursive pivot DFS — no frontier, no state table — that
    /// the engine must reproduce whenever the step budget does not bind.
    struct OracleDfs<'a> {
        graph: &'a ec_graph::TransformationGraph,
        g: usize,
        index: &'a InvertedIndex,
        active: &'a [bool],
        last_nodes: &'a [u32],
        constant_chars: &'a [u32],
        dist_to_end: Vec<u32>,
        max_path_len: usize,
        early_termination: bool,
        threshold: usize,
        own_bound: u32,
        steps_left: usize,
        best: Option<(Vec<LabelId>, PathList, usize, Quality)>,
    }

    impl OracleDfs<'_> {
        fn bar(&self) -> Option<(usize, Quality)> {
            self.best.as_ref().map(|b| (b.2, b.3))
        }

        fn offer(&mut self, count: usize, quality: Quality, path: &[LabelId], list: &PathList) {
            if count > self.threshold && beats(count, quality, &self.bar()) {
                self.best = Some((path.to_vec(), list.clone(), count, quality));
            }
        }

        /// The local and global thresholds of Algorithm 4.
        fn viable(&self, count: usize, partial: Quality) -> bool {
            !self.early_termination
                || (count > self.threshold
                    && count as u32 >= self.own_bound
                    && beats(count, partial, &self.bar()))
        }

        fn dfs(&mut self, node: u32, path: &mut Vec<LabelId>, list: &PathList, chars: usize) {
            let len = path.len();
            if node == self.graph.last_node() {
                let count = active_count(list.occurrences(), self.active);
                self.offer(
                    count,
                    Quality {
                        constant_chars: chars,
                        len,
                    },
                    path,
                    list,
                );
                let own_complete = list
                    .occurrences()
                    .iter()
                    .any(|occ| occ.graph.index() == self.g && occ.end == self.last_nodes[self.g]);
                if self.early_termination && self.active[self.g] && own_complete {
                    self.own_bound = self.own_bound.max(count as u32);
                }
                return;
            }
            if len >= self.max_path_len {
                return;
            }
            let mut children = Vec::new();
            for (to, labels) in self.graph.out_edges(node) {
                let to_end = self.dist_to_end[to as usize];
                if to_end == u32::MAX || len + 1 + to_end as usize > self.max_path_len {
                    continue;
                }
                for &label in labels {
                    if self.index.list_graph_count(label) <= self.threshold {
                        continue;
                    }
                    if self.steps_left == 0 {
                        return;
                    }
                    self.steps_left -= 1;
                    let extended = self.index.extend(list, label);
                    let count = active_count(extended.occurrences(), self.active);
                    let next = chars + self.constant_chars[label.index()] as usize;
                    let partial = Quality {
                        constant_chars: next,
                        len: len + 1,
                    };
                    if count > 0 && self.viable(count, partial) {
                        children.push((label, to, extended, count, next));
                    }
                }
            }
            children.sort_by(|a, b| {
                b.3.cmp(&a.3)
                    .then_with(|| b.1.cmp(&a.1))
                    .then_with(|| a.4.cmp(&b.4))
            });
            for (label, to, extended, count, next) in children {
                if self.steps_left == 0 {
                    return;
                }
                if !self.viable(
                    count,
                    Quality {
                        constant_chars: next,
                        len: len + 1,
                    },
                ) {
                    continue;
                }
                path.push(label);
                self.dfs(to, path, &extended, next);
                path.pop();
            }
        }
    }

    /// Runs the oracle DFS for graph `g` from a fresh own bound of 1 with a
    /// budget of `budget` steps; returns its result and the steps it spent.
    fn oracle_search(
        searcher: &PivotSearcher,
        g: GraphId,
        threshold: usize,
        active: &[bool],
        budget: usize,
    ) -> (Option<PivotResult>, usize) {
        let prepared = &searcher.prepared;
        let graph = prepared.graph(g);
        let mut oracle = OracleDfs {
            graph,
            g: g.index(),
            index: prepared.index(),
            active,
            last_nodes: prepared.last_nodes(),
            constant_chars: prepared.constant_chars(),
            dist_to_end: distance_to_end(graph),
            max_path_len: searcher.config.max_path_len,
            early_termination: searcher.config.early_termination,
            threshold,
            own_bound: 1,
            steps_left: budget,
            best: None,
        };
        let universe = PathList::universe(prepared.len());
        if let Some(full_edge) = graph.edge(0, graph.last_node()) {
            for &label in full_edge {
                let list = oracle.index.extend(&universe, label);
                let count = active_count(list.occurrences(), active);
                let quality = Quality {
                    constant_chars: oracle.constant_chars[label.index()] as usize,
                    len: 1,
                };
                oracle.offer(count, quality, &[label], &list);
            }
        }
        if oracle.dist_to_end[0] as usize <= oracle.max_path_len {
            oracle.dfs(0, &mut Vec::new(), &universe, 0);
        }
        let steps = budget - oracle.steps_left;
        let last_nodes = prepared.last_nodes();
        let result = oracle
            .best
            .map(|(path, list, count, _)| PivotResult::new(path, list, count, active, last_nodes));
        (result, steps)
    }

    /// Step totals of one differential run.
    #[derive(Default)]
    struct Differential {
        /// Searches whose results were compared (the oracle finished).
        compared: usize,
        searches: usize,
        engine_steps: usize,
        oracle_steps: usize,
    }

    /// Compares the engine (the dominance-pruned DFS) with the oracle
    /// DFS on every graph of `reps`. Wherever the oracle finishes inside
    /// `oracle_budget`, the engine must return exactly its pivot without
    /// spending more steps. Each search starts from a fresh own bound of 1,
    /// so both sides read the same pruning inputs.
    fn engine_vs_oracle(
        reps: &[Replacement],
        threshold: usize,
        oracle_budget: usize,
    ) -> Differential {
        // The engine's budget never binds here.
        let config = GroupingConfig {
            max_search_steps: 100_000_000,
            ..GroupingConfig::default()
        };
        let prep = prepared(reps, &config);
        let searcher = PivotSearcher::new(Arc::clone(&prep), &config);
        let active = vec![true; prep.len()];
        let mut totals = Differential::default();
        for g in (0..prep.len()).map(|g| GraphId(g as u32)) {
            let engine = searcher.run(g, threshold, &active, &mut vec![1u32; prep.len()]);
            let (oracle, oracle_steps) =
                oracle_search(&searcher, g, threshold, &active, oracle_budget);
            totals.searches += 1;
            totals.engine_steps += engine.steps;
            totals.oracle_steps += oracle_steps;
            if oracle_steps == oracle_budget {
                continue;
            }
            totals.compared += 1;
            assert!(
                engine.steps <= oracle_steps,
                "graph {g:?}: engine spent {} steps, oracle {oracle_steps}",
                engine.steps
            );
            match (&engine.result, &oracle) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!(a.path, b.path, "graph {g:?}");
                    assert_eq!(a.share_count, b.share_count, "graph {g:?}");
                    assert_eq!(a.complete, b.complete, "graph {g:?}");
                    assert_eq!(a.list, b.list, "graph {g:?}");
                }
                _ => panic!("graph {g:?}: engine and oracle disagree on presence"),
            }
        }
        totals
    }

    #[test]
    fn engine_matches_the_plain_dfs_oracle_on_name_families() {
        for threshold in [0, 1] {
            let run = engine_vs_oracle(&family_replacements(), threshold, 100_000_000);
            assert_eq!(run.compared, run.searches, "threshold {threshold}");
        }
    }

    /// Column 0 of the generated 20-cluster address data (seed 30), split
    /// into the structure partitions the grouper searches.
    fn address_partitions() -> Vec<Vec<Replacement>> {
        address_partitions_of(30)
    }

    /// Column 0 of the generated 20-cluster address data of `seed`, split
    /// into structure partitions.
    fn address_partitions_of(seed: u64) -> Vec<Vec<Replacement>> {
        crate::partition_replacements(&address_candidates(seed), &GroupingConfig::default())
    }

    /// The candidates of Figure 9's single-mega-group axis, split into
    /// structure partitions.
    fn mega_group_partitions() -> Vec<Vec<Replacement>> {
        crate::partition_replacements(&mega_group_candidates(), &GroupingConfig::default())
    }

    /// Runs every search of `reps` (threshold 1, fresh own bound) twice: with
    /// the prepared posting classes and with identity classes, which is the
    /// collection without the class memo. Asserts the two runs agree on
    /// every result and every step count; returns the total steps and how
    /// many labels the classes join to a smaller label.
    fn classes_vs_identity(reps: &[Replacement], config: &GroupingConfig) -> (usize, usize) {
        let prep = prepared(reps, config);
        let searcher = PivotSearcher::new(Arc::clone(&prep), config);
        let active = vec![true; prep.len()];
        let identity: Vec<u32> = (0..prep.posting_classes().len() as u32).collect();
        let joined = prep
            .posting_classes()
            .iter()
            .zip(&identity)
            .filter(|(class, label)| class != label)
            .count();
        let mut steps = 0;
        for g in (0..prep.len()).map(|g| GraphId(g as u32)) {
            let run = |classes: &[u32]| {
                let mut bounds = vec![1u32; prep.len()];
                let run = searcher.run_with_classes(g, 1, &active, &mut bounds, classes);
                (run, bounds)
            };
            let (real, real_bounds) = run(prep.posting_classes());
            let (plain, plain_bounds) = run(&identity);
            assert_eq!(real.steps, plain.steps, "graph {g:?}: steps");
            assert_eq!(real_bounds, plain_bounds, "graph {g:?}: raised bounds");
            assert_same_results(
                &[real.result],
                &[plain.result],
                &format!("graph {g:?} of {} graphs", prep.len()),
            );
            steps += real.steps;
        }
        (steps, joined)
    }

    #[test]
    fn posting_classes_change_no_search_on_the_address_ladder_and_the_mega_group() {
        let ladder: Vec<Vec<Replacement>> = [30, 14, 18]
            .into_iter()
            .flat_map(address_partitions_of)
            .collect();
        let mega = mega_group_partitions();
        // The default budget, and a starved one that truncates many
        // searches, so truncation points are compared too.
        for budget in [50_000, 400] {
            let config = GroupingConfig {
                max_search_steps: budget,
                ..GroupingConfig::default()
            };
            for (what, parts) in [("ladder", &ladder), ("mega group", &mega)] {
                let joined: usize = parts
                    .iter()
                    .map(|part| classes_vs_identity(part, &config).1)
                    .sum();
                assert!(joined > 0, "{what}: the classes must join labels");
            }
        }
    }

    #[test]
    fn the_class_memo_keys_on_the_target_node_too() {
        // Each input has exactly one lowercase run, so `Suffix(Tl, 1)` and
        // `Suffix(Tl, -1)` have identical postings: one class. Both sit on
        // two out-edges of node 0, `0 -> 1` ("a") and `0 -> 2` ("aa"), and
        // extend the universe to the same list, but the two edges reach
        // different states. A memo keyed on the class alone would fold the
        // `0 -> 2` state into the `0 -> 1` one and never explore it.
        let reps: Vec<Replacement> = [("Aaa 7", "aa7"), ("Bbb 8", "bb8"), ("Ccc 9", "cc9")]
            .iter()
            .map(|&(s, t)| Replacement::new(s, t))
            .collect();
        let config = GroupingConfig::default();
        let prep = prepared(&reps, &config);
        let classes = prep.posting_classes();
        let graph = prep.graph(GraphId(0));
        let on_edge = |to: u32| -> Vec<u32> {
            let labels = graph.edge(0, to).expect("edge");
            labels.iter().map(|l| classes[l.index()]).collect()
        };
        let (one, two) = (on_edge(1), on_edge(2));
        let shared: Vec<u32> = one.iter().copied().filter(|c| two.contains(c)).collect();
        assert!(!shared.is_empty(), "a class must sit on both out-edges");
        let joined_suffix = |c: u32| {
            matches!(prep.interner().resolve(LabelId(c)), StringFn::Suffix { .. })
                && classes.iter().filter(|&&x| x == c).count() > 1
        };
        assert!(
            shared.iter().any(|&c| joined_suffix(c)),
            "a `Suffix` class joining two labels must sit on both out-edges"
        );
        // The step total pins the states explored (a class-only key spends
        // 108).
        let (steps, _) = classes_vs_identity(&reps, &config);
        assert_eq!(steps, 144, "pinned step total");
    }

    #[test]
    fn engine_matches_the_plain_dfs_oracle_on_address_partitions() {
        // Threshold 1 is what the incremental grouper's first search passes.
        let parts = address_partitions();
        let mut total = Differential::default();
        for part in &parts {
            // The plain DFS needs millions of steps on about a third of these
            // searches; a 50k-step oracle still verifies most of them.
            let run = engine_vs_oracle(part, 1, 50_000);
            total.compared += run.compared;
            total.searches += run.searches;
            total.engine_steps += run.engine_steps;
            total.oracle_steps += run.oracle_steps;
        }
        assert!(
            total.compared * 2 > total.searches,
            "only {} of {} searches verified",
            total.compared,
            total.searches
        );
        assert!(
            total.engine_steps * 4 < total.oracle_steps,
            "dominance pruning must save steps: {} vs {}",
            total.engine_steps,
            total.oracle_steps
        );
    }

    #[test]
    fn step_totals_and_truncations_are_pinned_on_address_partitions() {
        // Every examined label costs one step, charged before its extension,
        // and a budget that runs out mid-collection stops the search there.
        // A change to how the search handles its candidates must keep these
        // totals — and so every truncation point — exactly as they are, both
        // where the default budget does not bind and where a starved one
        // cuts over a third of the searches short.
        let parts = address_partitions();
        let mut totals = Vec::new();
        for budget in [50_000, 400] {
            let config = GroupingConfig {
                max_search_steps: budget,
                ..GroupingConfig::default()
            };
            let (mut searches, mut steps, mut truncated) = (0usize, 0usize, 0usize);
            for part in &parts {
                let prep = prepared(part, &config);
                let searcher = PivotSearcher::new(Arc::clone(&prep), &config);
                let active = vec![true; prep.len()];
                for g in (0..prep.len()).map(|g| GraphId(g as u32)) {
                    let run = searcher.run(g, 1, &active, &mut vec![1u32; prep.len()]);
                    searches += 1;
                    steps += run.steps;
                    truncated += usize::from(run.steps == budget);
                }
            }
            totals.push((budget, searches, steps, truncated));
        }
        // `(budget, searches, steps, truncated searches)`.
        assert_eq!(
            totals,
            vec![(50_000, 652, 558_193, 0), (400, 652, 103_880, 231)]
        );
    }

    #[test]
    fn affix_pivot_groups_street_and_avenue() {
        // Street->St and Avenue->Ave share a pivot only thanks to the affix
        // extension (Appendix D / Example D.1).
        let reps = vec![
            Replacement::new("Street", "St"),
            Replacement::new("Avenue", "Ave"),
        ];
        let with_affix = GroupingConfig::default();
        let prep = prepared(&reps, &with_affix);
        let searcher = PivotSearcher::new(Arc::clone(&prep), &with_affix);
        let mut lower = vec![1u32; 2];
        let active = vec![true; 2];
        let result = searcher.search(GraphId(0), 0, &active, &mut lower).unwrap();
        assert_eq!(result.share_count, 2);
        let program = prep.resolve_program(&result.path);
        assert!(program.fns().iter().any(StringFn::is_affix));

        let without = GroupingConfig::without_affix();
        let prep2 = prepared(&reps, &without);
        let searcher2 = PivotSearcher::new(Arc::clone(&prep2), &without);
        let mut lower2 = vec![1u32; 2];
        let result2 = searcher2
            .search(GraphId(0), 0, &active, &mut lower2)
            .unwrap();
        assert_eq!(
            result2.share_count, 1,
            "without affix labels the two graphs share no program"
        );
    }

    #[test]
    fn pivot_program_reproduces_figure_3() {
        // The pivot program of the initials transformation must contain the
        // f2/f3/f1 shape of Figure 3 (a substring, a constant ". ", a substring).
        let reps = vec![
            Replacement::new("Lee, Mary", "M. Lee"),
            Replacement::new("Smith, James", "J. Smith"),
            Replacement::new("Brown, Anna", "A. Brown"),
        ];
        let config = GroupingConfig::default();
        let prep = prepared(&reps, &config);
        let searcher = PivotSearcher::new(Arc::clone(&prep), &config);
        let mut lower = vec![1u32; 3];
        let active = vec![true; 3];
        let result = searcher.search(GraphId(0), 0, &active, &mut lower).unwrap();
        assert_eq!(result.share_count, 3);
        let program = prep.resolve_program(&result.path);
        // The program must be consistent with a fresh, unseen name pair too —
        // that is what "learning a transformation" means.
        let ctx = ec_dsl::StrCtx::new("Stone, Olivia");
        assert!(program.consistent_with(&ctx, "O. Stone"), "{program}");
        // And it must include the constant ". " somewhere (or an equivalent),
        // since ". " never appears in the inputs.
        assert!(program
            .fns()
            .iter()
            .any(|f| matches!(f, StringFn::ConstantStr(c) if c.contains('.'))));
        let _ = PositionFn::const_pos(1);
        let _ = Dir::Begin;
        let _ = Term::Upper;
    }
}
