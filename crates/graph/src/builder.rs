//! Transformation-graph construction (Appendix C, Algorithm 8).
//!
//! Given a replacement `s → t`, the transformation graph has `|t| + 1` nodes —
//! one per character position of the output string `t` — and an edge `(i, j)`
//! for every non-empty substring `t[i..j)`. Each edge carries the string
//! functions that produce that substring when applied to `s`:
//!
//! * a `ConstantStr(t[i..j))` label (subject to the [`ConstantPolicy`]);
//! * a `SubStr(l, r)` label for every occurrence `s[x..y) = t[i..j)` and every
//!   pair of position functions `l ∈ P[x]`, `r ∈ P[y]`, where `P` is the
//!   position-function table of Algorithm 8;
//! * `Prefix(τ, k)` / `Suffix(τ, k)` affix labels (Appendix D) when `t[i..j)`
//!   is the *longest* prefix/suffix of the `k`-th match of `τ` in `s` starting
//!   (resp. ending) at that output position — the "longest affix only" static
//!   order of Appendix E.
//!
//! The static order of position functions (Appendix E) is applied by
//! preferring class-based `MatchPos` functions over `ConstPos`: constant
//! positions are only generated when [`GraphConfig::enable_const_pos`] is set,
//! since they have the narrowest "character class" and never generalise across
//! values of different lengths.

use crate::label::{LabelId, LabelInterner, LabelList};
use crate::replacement::Replacement;
use ec_dsl::{Dir, PositionFn, StrCtx, StringFn, Term, CLASS_TERMS};
use serde::{Deserialize, Serialize};

/// Which `ConstantStr` labels are added to the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConstantPolicy {
    /// A constant label on every edge (the paper's default graph definition).
    All,
    /// Constant labels only for substrings of at most this many characters;
    /// the full-output constant (edge from the first to the last node) is
    /// always kept so that every graph has at least one transformation path.
    MaxLen(usize),
    /// Only the full-output constant label.
    FullOnly,
}

/// Configuration of the graph builder.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GraphConfig {
    /// Add the `Prefix`/`Suffix` affix labels of Appendix D (default `true`;
    /// the `NoAffix` ablation of Figure 10 sets this to `false`).
    pub enable_affix: bool,
    /// Also generate `MatchPos`/affix functions with negative match ordinals
    /// (counting matches from the back), as the paper's Algorithm 8 does.
    pub enable_negative_ordinals: bool,
    /// Generate `ConstPos` position functions. Disabled by default: the static
    /// order of Appendix E prefers wider character classes and absolute
    /// positions are the narrowest, so they only add noise to grouping.
    pub enable_const_pos: bool,
    /// Which constant labels to add.
    pub constant_policy: ConstantPolicy,
    /// Hard cap on the number of labels attached to a single edge (a safety
    /// valve for pathological inputs; `usize::MAX` disables it).
    pub max_labels_per_edge: usize,
    /// Skip building graphs for replacements whose output string is longer
    /// than this many characters (graphs are `O(|t|²)` edges). `None` means no
    /// limit.
    pub max_output_len: Option<usize>,
}

impl Default for GraphConfig {
    fn default() -> Self {
        GraphConfig {
            enable_affix: true,
            enable_negative_ordinals: true,
            enable_const_pos: false,
            constant_policy: ConstantPolicy::All,
            max_labels_per_edge: 256,
            max_output_len: Some(128),
        }
    }
}

impl GraphConfig {
    /// The configuration used by the `NoAffix` ablation (Figure 10).
    pub fn without_affix() -> Self {
        GraphConfig {
            enable_affix: false,
            ..Self::default()
        }
    }
}

/// An edge of the transformation graph: the substring `t[from..to)` of the
/// output string together with the labels (string functions) that produce it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Edge {
    /// Source node (character position in the output string).
    pub from: u32,
    /// Target node (character position in the output string, `> from`).
    pub to: u32,
    /// Interned string-function labels, deduplicated, in insertion order.
    pub labels: LabelList,
}

/// The transformation graph of one candidate replacement.
///
/// Nodes are the character positions `0..=t_len` of the output string; edges
/// are stored in CSR form grouped by source node. Only edges with at least one
/// label are stored.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransformationGraph {
    replacement: Replacement,
    t_len: u32,
    edges: Vec<Edge>,
    /// `edges[out_start[i] .. out_start[i + 1]]` are the edges leaving node `i`.
    out_start: Vec<u32>,
}

impl TransformationGraph {
    /// The replacement this graph encodes.
    pub fn replacement(&self) -> &Replacement {
        &self.replacement
    }

    /// Number of characters of the output string `t`.
    pub fn t_len(&self) -> usize {
        self.t_len as usize
    }

    /// Number of nodes (`t_len + 1`).
    pub fn num_nodes(&self) -> usize {
        self.t_len as usize + 1
    }

    /// Index of the last node (`t_len`), the target of every transformation path.
    pub fn last_node(&self) -> u32 {
        self.t_len
    }

    /// All edges, grouped by source node and sorted by `(from, to)`.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The edges leaving node `i`.
    pub fn out_edges(&self, i: u32) -> &[Edge] {
        let i = i as usize;
        if i + 1 >= self.out_start.len() {
            return &[];
        }
        &self.edges[self.out_start[i] as usize..self.out_start[i + 1] as usize]
    }

    /// The edge `(i, j)`, if it exists and has labels.
    pub fn edge(&self, i: u32, j: u32) -> Option<&Edge> {
        self.out_edges(i).iter().find(|e| e.to == j)
    }

    /// Total number of edges (with at least one label).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Total number of labels across all edges.
    pub fn num_labels(&self) -> usize {
        self.edges.iter().map(|e| e.labels.len()).sum()
    }

    /// Iterates over all `(from, to, label)` triples, the payload of the
    /// inverted index.
    pub fn label_triples(&self) -> impl Iterator<Item = (u32, u32, LabelId)> + '_ {
        self.edges
            .iter()
            .flat_map(|e| e.labels.iter().map(move |&l| (e.from, e.to, l)))
    }

    /// Does some edge of this graph carry `label`?
    pub fn contains_label(&self, label: LabelId) -> bool {
        self.edges.iter().any(|e| e.labels.contains(&label))
    }

    /// Reassembles a graph from its stored parts — the compiled-artifact load
    /// path, and the builder's last step. Edges must be sorted by `(from, to)` with `from < to <= t_len`
    /// and at least one label each (exactly what [`TransformationGraph::edges`]
    /// returned at write time); the CSR `out_start` table is rebuilt. Returns
    /// `None` when the edges violate the invariant, so a corrupt artifact is
    /// rejected instead of producing an inconsistent graph.
    pub fn from_parts(
        replacement: Replacement,
        t_len: u32,
        edges: Vec<Edge>,
    ) -> Option<TransformationGraph> {
        for (i, e) in edges.iter().enumerate() {
            if e.from >= e.to || e.to > t_len || e.labels.is_empty() {
                return None;
            }
            if i > 0 {
                let prev = &edges[i - 1];
                if (prev.from, prev.to) >= (e.from, e.to) {
                    return None;
                }
            }
        }
        let mut out_start = vec![0u32; t_len as usize + 2];
        for e in &edges {
            out_start[e.from as usize + 1] += 1;
        }
        for i in 1..out_start.len() {
            out_start[i] += out_start[i - 1];
        }
        Some(TransformationGraph {
            replacement,
            t_len,
            edges,
            out_start,
        })
    }
}

/// Builds transformation graphs for candidate replacements, interning their
/// edge labels into a shared [`LabelInterner`].
#[derive(Debug)]
pub struct GraphBuilder {
    config: GraphConfig,
}

impl Default for GraphBuilder {
    fn default() -> Self {
        GraphBuilder::new(GraphConfig::default())
    }
}

impl GraphBuilder {
    /// Creates a builder with the given configuration.
    pub fn new(config: GraphConfig) -> Self {
        GraphBuilder { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &GraphConfig {
        &self.config
    }

    /// Builds the transformation graph of `replacement` (Algorithm 8 plus the
    /// Appendix D affix labels), interning labels in `interner`.
    ///
    /// Labels are pushed edge by edge in a fixed order — per edge `(i, j)`
    /// in `(i, j)` order: the constant, then the `SubStr` labels by
    /// occurrence and position-function order; then the affix labels — and
    /// each push interns its label, so ids follow first occurrence. Every
    /// push is integer work: position functions are packed into integer keys
    /// once per input string, `SubStr`/`Prefix`/`Suffix` labels intern
    /// through the interner's integer-keyed side index and constants through
    /// its text-keyed one (sliced from `rhs` without allocating), and the
    /// per-edge label lists live in a dense `(i, j)` table.
    ///
    /// Returns `None` when the output string exceeds
    /// [`GraphConfig::max_output_len`].
    pub fn build(
        &self,
        replacement: &Replacement,
        interner: &mut LabelInterner,
    ) -> Option<TransformationGraph> {
        let t = replacement.rhs();
        let t_chars: Vec<char> = t.chars().collect();
        let t_len = t_chars.len();
        if let Some(max) = self.config.max_output_len {
            if t_len > max {
                return None;
            }
        }
        let ctx = StrCtx::new(replacement.lhs());
        let s_chars = ctx.chars();
        let s_len = s_chars.len();
        let keyed = s_len < MAX_KEYED_LEN;
        // Byte offset of every character boundary of t, for constant slices.
        let t_bytes: Vec<usize> = t
            .char_indices()
            .map(|(b, _)| b)
            .chain(std::iter::once(t.len()))
            .collect();
        let positions = self.position_table(&ctx);
        // occurrences[i]: every x with s[x..] and t[i..] sharing a non-empty
        // prefix, ascending, with that prefix's length.
        let occurrences = occurrence_table(s_chars, &t_chars);

        let mut table = EdgeTable::new(t_len, self.config.max_labels_per_edge);
        for i in 0..t_len {
            for j in (i + 1)..=t_len {
                // Constant label (Line 15).
                let keep_constant = match self.config.constant_policy {
                    ConstantPolicy::All => true,
                    ConstantPolicy::MaxLen(n) => j - i <= n || (i == 0 && j == t_len),
                    ConstantPolicy::FullOnly => i == 0 && j == t_len,
                };
                if keep_constant {
                    table.push(i, j, interner.intern_constant(&t[t_bytes[i]..t_bytes[j]]));
                }
                // SubStr labels for every occurrence s[x..y) = t[i..j) (Lines 16-18).
                let len = j - i;
                for &(x, common) in &occurrences[i] {
                    if (common as usize) < len {
                        continue;
                    }
                    let (x, y) = (x as usize, x as usize + len);
                    for (lk, l) in positions.at(x) {
                        for (rk, r) in positions.at(y) {
                            let make = || StringFn::sub_str(l.clone(), r.clone());
                            let id = if keyed {
                                interner.intern_keyed(lk << POS_BITS | rk, make)
                            } else {
                                interner.intern(make())
                            };
                            table.push(i, j, id);
                        }
                    }
                }
            }
        }

        // --- Affix labels (Appendix D), longest-affix-only (Appendix E). ---
        if self.config.enable_affix {
            self.add_affix_labels(&ctx, &t_chars, &mut table, interner, keyed);
        }

        // --- Assemble CSR: the table is walked in `(from, to)` order. ---
        let mut edges = Vec::with_capacity(table.non_empty());
        for i in 0..t_len {
            for j in (i + 1)..=t_len {
                let labels = table.take(i, j);
                if !labels.is_empty() {
                    edges.push(Edge {
                        from: i as u32,
                        to: j as u32,
                        labels,
                    });
                }
            }
        }
        let graph = TransformationGraph::from_parts(replacement.clone(), t_len as u32, edges)
            .expect("edges are sorted, in range and labelled");
        Some(graph)
    }

    /// Builds graphs for a batch of replacements, skipping those the
    /// configuration rejects. The i-th returned graph corresponds to the i-th
    /// retained replacement; the return value pairs them up explicitly.
    pub fn build_all(
        &self,
        replacements: &[Replacement],
        interner: &mut LabelInterner,
    ) -> Vec<(Replacement, TransformationGraph)> {
        replacements
            .iter()
            .filter_map(|r| self.build(r, interner).map(|g| (r.clone(), g)))
            .collect()
    }

    /// The position-function table `P`: `P[x]` holds the position functions
    /// that evaluate to position `x` in the input string, each with its
    /// integer key.
    fn position_table(&self, ctx: &StrCtx<'_>) -> PositionTable {
        let s_len = ctx.len();
        let mut positions: Vec<Vec<PositionFn>> = vec![Vec::new(); s_len + 1];
        for term in CLASS_TERMS {
            let matches = ctx.class_matches(&term);
            let m_count = matches.len() as i32;
            for (idx, m) in matches.iter().enumerate() {
                let k = idx as i32 + 1;
                positions[m.start].push(PositionFn::match_pos(term.clone(), k, Dir::Begin));
                positions[m.end].push(PositionFn::match_pos(term.clone(), k, Dir::End));
                if self.config.enable_negative_ordinals {
                    let neg = k - m_count - 1;
                    positions[m.start].push(PositionFn::match_pos(term.clone(), neg, Dir::Begin));
                    positions[m.end].push(PositionFn::match_pos(term.clone(), neg, Dir::End));
                }
            }
        }
        if self.config.enable_const_pos {
            for (x, slot) in positions.iter_mut().enumerate() {
                slot.push(PositionFn::const_pos(x as i32 + 1));
                if self.config.enable_negative_ordinals {
                    slot.push(PositionFn::const_pos(x as i32 - s_len as i32 - 1));
                }
            }
        }
        let mut table = PositionTable {
            start: Vec::with_capacity(s_len + 2),
            entries: Vec::new(),
        };
        table.start.push(0);
        for slot in positions {
            table
                .entries
                .extend(slot.into_iter().map(|p| (position_key(&p), p)));
            table.start.push(table.entries.len());
        }
        table
    }

    /// Adds the `Prefix`/`Suffix` labels: for each class-term match in `s` and
    /// each output position, only the longest prefix (resp. suffix) of that
    /// match occurring at the position is labelled.
    fn add_affix_labels(
        &self,
        ctx: &StrCtx<'_>,
        t_chars: &[char],
        table: &mut EdgeTable,
        interner: &mut LabelInterner,
        keyed: bool,
    ) {
        let t_len = t_chars.len();
        let mut intern = |suffix: bool, term: &Term, k: i32| {
            let make = || {
                if suffix {
                    StringFn::suffix(term.clone(), k)
                } else {
                    StringFn::prefix(term.clone(), k)
                }
            };
            if keyed {
                interner.intern_keyed(affix_key(suffix, term, k), make)
            } else {
                interner.intern(make())
            }
        };
        for term in CLASS_TERMS {
            let matches = ctx.class_matches(&term);
            let m_count = matches.len() as i32;
            for (idx, m) in matches.iter().enumerate() {
                let k = idx as i32 + 1;
                let neg = k - m_count - 1;
                let matched = &ctx.chars()[m.start..m.end];
                // Longest prefix of `matched` starting at each output position i.
                for i in 0..t_len {
                    let mut len = 0;
                    while len < matched.len() && i + len < t_len && t_chars[i + len] == matched[len]
                    {
                        len += 1;
                    }
                    if len >= 1 {
                        table.push(i, i + len, intern(false, &term, k));
                        if self.config.enable_negative_ordinals {
                            table.push(i, i + len, intern(false, &term, neg));
                        }
                    }
                }
                // Longest suffix of `matched` ending at each output position j.
                for j in 1..=t_len {
                    let mut len = 0;
                    while len < matched.len()
                        && len < j
                        && t_chars[j - 1 - len] == matched[matched.len() - 1 - len]
                    {
                        len += 1;
                    }
                    if len >= 1 {
                        table.push(j - len, j, intern(true, &term, k));
                        if self.config.enable_negative_ordinals {
                            table.push(j - len, j, intern(true, &term, neg));
                        }
                    }
                }
            }
        }
    }
}

/// Bits of one packed position function; a `SubStr` key is two of them.
const POS_BITS: u32 = 31;
/// Bits of a packed match ordinal or constant position (two's complement).
const ORD_BITS: u32 = 27;
/// Input strings this long or longer intern without the integer side index:
/// their ordinals (at most `|s| + 1` in magnitude) might not fit `ORD_BITS`.
const MAX_KEYED_LEN: usize = (1 << (ORD_BITS - 1)) - 2;
/// Tag bits that keep affix keys apart from `SubStr` keys (which use the
/// low `2 * POS_BITS` bits only).
const PREFIX_TAG: u64 = 1 << 62;
const SUFFIX_TAG: u64 = 1 << 63;

fn ordinal_bits(k: i32) -> u64 {
    (k as u32 & ((1 << ORD_BITS) - 1)) as u64
}

fn class_index(term: &Term) -> u64 {
    CLASS_TERMS
        .iter()
        .position(|c| c == term)
        .expect("the builder only generates class terms") as u64
}

/// Packs a position function into `POS_BITS` bits: a `ConstPos` flag, the
/// class-term index, the direction and the ordinal.
fn position_key(p: &PositionFn) -> u64 {
    match p {
        PositionFn::ConstPos(k) => 1 << (POS_BITS - 1) | ordinal_bits(*k),
        PositionFn::MatchPos { term, k, dir } => {
            let dir = matches!(dir, Dir::End) as u64;
            class_index(term) << (ORD_BITS + 1) | dir << ORD_BITS | ordinal_bits(*k)
        }
    }
}

/// Packs `Prefix(term, k)` or `Suffix(term, k)`.
fn affix_key(suffix: bool, term: &Term, k: i32) -> u64 {
    let tag = if suffix { SUFFIX_TAG } else { PREFIX_TAG };
    tag | class_index(term) << ORD_BITS | ordinal_bits(k)
}

/// The position-function table in CSR form: `entries[start[x]..start[x + 1]]`
/// are the `(key, function)` pairs evaluating to input position `x`.
struct PositionTable {
    start: Vec<usize>,
    entries: Vec<(u64, PositionFn)>,
}

impl PositionTable {
    fn at(&self, x: usize) -> impl Iterator<Item = (u64, &PositionFn)> {
        self.entries[self.start[x]..self.start[x + 1]]
            .iter()
            .map(|(k, p)| (*k, p))
    }
}

/// The per-edge label lists of one graph under construction, one slot per
/// edge `(i, j)` with `i < j <= t_len`.
struct EdgeTable {
    slots: Vec<LabelList>,
    max_labels: usize,
}

impl EdgeTable {
    fn new(t_len: usize, max_labels: usize) -> Self {
        EdgeTable {
            slots: vec![LabelList::new(); t_len * (t_len + 1) / 2],
            max_labels,
        }
    }

    fn slot(i: usize, j: usize) -> usize {
        j * (j - 1) / 2 + i
    }

    /// Appends `id` to edge `(i, j)` unless the edge already carries it or
    /// is full. The label is interned either way, so ids never depend on
    /// the cap.
    fn push(&mut self, i: usize, j: usize, id: LabelId) {
        let labels = &mut self.slots[Self::slot(i, j)];
        if labels.len() < self.max_labels && !labels.contains(&id) {
            labels.push(id);
        }
    }

    /// Number of edges with at least one label.
    fn non_empty(&self) -> usize {
        self.slots.iter().filter(|l| !l.is_empty()).count()
    }

    fn take(&mut self, i: usize, j: usize) -> LabelList {
        std::mem::take(&mut self.slots[Self::slot(i, j)])
    }
}

/// `occurrences[i]` lists, by ascending `x`, every input position `x` where
/// `s[x..]` and `t[i..]` share a non-empty common prefix, with its length.
fn occurrence_table(s: &[char], t: &[char]) -> Vec<Vec<(u32, u32)>> {
    let mut occurrences = vec![Vec::new(); t.len()];
    // Row x + 1 of the longest-common-extension table, then row x.
    let mut next = vec![0u32; t.len() + 1];
    let mut row = vec![0u32; t.len() + 1];
    for x in (0..s.len()).rev() {
        for i in (0..t.len()).rev() {
            row[i] = if s[x] == t[i] { next[i + 1] + 1 } else { 0 };
            if row[i] > 0 {
                occurrences[i].push((x as u32, row[i]));
            }
        }
        std::mem::swap(&mut row, &mut next);
    }
    for list in &mut occurrences {
        list.reverse();
    }
    occurrences
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// The builder as it was before labels were interned through integer
    /// keys: one `StringFn` per push, interned by value, and a `BTreeMap`
    /// of edges. Kept as the oracle of the differential tests below.
    fn reference_build(
        config: &GraphConfig,
        replacement: &Replacement,
        interner: &mut LabelInterner,
    ) -> Option<TransformationGraph> {
        let s = replacement.lhs();
        let t_chars: Vec<char> = replacement.rhs().chars().collect();
        let t_len = t_chars.len();
        if config.max_output_len.is_some_and(|max| t_len > max) {
            return None;
        }
        let ctx = StrCtx::new(s);
        let s_chars = ctx.chars().to_vec();
        let s_len = s_chars.len();
        let mut positions: Vec<Vec<PositionFn>> = vec![Vec::new(); s_len + 1];
        for term in CLASS_TERMS {
            let matches = ctx.class_matches(&term);
            let m_count = matches.len() as i32;
            for (idx, m) in matches.iter().enumerate() {
                let k = idx as i32 + 1;
                positions[m.start].push(PositionFn::match_pos(term.clone(), k, Dir::Begin));
                positions[m.end].push(PositionFn::match_pos(term.clone(), k, Dir::End));
                if config.enable_negative_ordinals {
                    let neg = k - m_count - 1;
                    positions[m.start].push(PositionFn::match_pos(term.clone(), neg, Dir::Begin));
                    positions[m.end].push(PositionFn::match_pos(term.clone(), neg, Dir::End));
                }
            }
        }
        if config.enable_const_pos {
            for (x, slot) in positions.iter_mut().enumerate() {
                slot.push(PositionFn::const_pos(x as i32 + 1));
                if config.enable_negative_ordinals {
                    slot.push(PositionFn::const_pos(x as i32 - s_len as i32 - 1));
                }
            }
        }
        let mut lce = vec![vec![0usize; t_len + 1]; s_len + 1];
        for x in (0..s_len).rev() {
            for i in (0..t_len).rev() {
                if s_chars[x] == t_chars[i] {
                    lce[x][i] = lce[x + 1][i + 1] + 1;
                }
            }
        }
        let mut edge_labels: BTreeMap<(u32, u32), Vec<LabelId>> = BTreeMap::new();
        let mut push = |i: usize, j: usize, f: StringFn| {
            let id = interner.intern(f);
            let labels = edge_labels.entry((i as u32, j as u32)).or_default();
            if labels.len() < config.max_labels_per_edge && !labels.contains(&id) {
                labels.push(id);
            }
        };
        for i in 0..t_len {
            for j in (i + 1)..=t_len {
                let keep_constant = match config.constant_policy {
                    ConstantPolicy::All => true,
                    ConstantPolicy::MaxLen(n) => j - i <= n || (i == 0 && j == t_len),
                    ConstantPolicy::FullOnly => i == 0 && j == t_len,
                };
                if keep_constant {
                    let piece: String = t_chars[i..j].iter().collect();
                    push(i, j, StringFn::constant(piece));
                }
                let len = j - i;
                for x in 0..s_len {
                    if lce[x][i] >= len {
                        for l in &positions[x] {
                            for r in &positions[x + len] {
                                push(i, j, StringFn::sub_str(l.clone(), r.clone()));
                            }
                        }
                    }
                }
            }
        }
        if config.enable_affix {
            for term in CLASS_TERMS {
                let matches = ctx.class_matches(&term).to_vec();
                let m_count = matches.len() as i32;
                for (idx, m) in matches.iter().enumerate() {
                    let k = idx as i32 + 1;
                    let neg = k - m_count - 1;
                    let matched: Vec<char> = ctx.chars()[m.start..m.end].to_vec();
                    for i in 0..t_len {
                        let mut len = 0;
                        while len < matched.len()
                            && i + len < t_len
                            && t_chars[i + len] == matched[len]
                        {
                            len += 1;
                        }
                        if len >= 1 {
                            push(i, i + len, StringFn::prefix(term.clone(), k));
                            if config.enable_negative_ordinals {
                                push(i, i + len, StringFn::prefix(term.clone(), neg));
                            }
                        }
                    }
                    for j in 1..=t_len {
                        let mut len = 0;
                        while len < matched.len()
                            && len < j
                            && t_chars[j - 1 - len] == matched[matched.len() - 1 - len]
                        {
                            len += 1;
                        }
                        if len >= 1 {
                            push(j - len, j, StringFn::suffix(term.clone(), k));
                            if config.enable_negative_ordinals {
                                push(j - len, j, StringFn::suffix(term.clone(), neg));
                            }
                        }
                    }
                }
            }
        }
        let edges: Vec<Edge> = edge_labels
            .into_iter()
            .filter(|(_, labels)| !labels.is_empty())
            .map(|((from, to), labels)| Edge {
                from,
                to,
                labels: labels.into(),
            })
            .collect();
        TransformationGraph::from_parts(replacement.clone(), t_len as u32, edges)
    }

    /// Builds every replacement of every partition with both builders (one
    /// shared interner per partition and builder) and asserts identical
    /// graphs, per-edge label lists and interner id order. Returns the
    /// number of graphs compared.
    fn assert_builders_agree(partitions: &[Vec<Replacement>], config: &GraphConfig) -> usize {
        let builder = GraphBuilder::new(config.clone());
        let mut compared = 0;
        for part in partitions {
            let (mut fast, mut slow) = (LabelInterner::new(), LabelInterner::new());
            for r in part {
                let got = builder.build(r, &mut fast);
                let want = reference_build(config, r, &mut slow);
                match (got, want) {
                    (Some(got), Some(want)) => {
                        assert_eq!(got.last_node(), want.last_node(), "{r}");
                        assert_eq!(got.edges(), want.edges(), "{r}");
                        for i in 0..=got.last_node() {
                            assert_eq!(got.out_edges(i), want.out_edges(i), "{r} node {i}");
                        }
                        compared += 1;
                    }
                    (None, None) => {}
                    (got, want) => panic!("{r}: built {} vs {}", got.is_some(), want.is_some()),
                }
            }
            let fast: Vec<&StringFn> = fast.iter().map(|(_, f)| f).collect();
            let slow: Vec<&StringFn> = slow.iter().map(|(_, f)| f).collect();
            assert_eq!(fast, slow, "interner order");
        }
        compared
    }

    /// The configurations the differential tests sweep: the default, the
    /// `NoAffix` ablation, constant positions, and the two narrow constant
    /// policies (with a tight per-edge cap on one of them, so the cap binds).
    fn differential_configs() -> Vec<GraphConfig> {
        vec![
            GraphConfig::default(),
            GraphConfig::without_affix(),
            GraphConfig {
                enable_const_pos: true,
                ..GraphConfig::default()
            },
            GraphConfig {
                constant_policy: ConstantPolicy::MaxLen(2),
                ..GraphConfig::default()
            },
            GraphConfig {
                constant_policy: ConstantPolicy::FullOnly,
                max_labels_per_edge: 3,
                enable_negative_ordinals: false,
                ..GraphConfig::default()
            },
        ]
    }

    #[test]
    fn builder_matches_the_reference_on_the_figure5_cases() {
        let cases = vec![
            Replacement::new("Lee, Mary", "M. Lee"),
            Replacement::new("Smith, James", "J. Smith"),
            Replacement::new("Lee, Mary", "Mary Lee"),
            Replacement::new("9 St, 02141 Wisconsin", "9th Street, 02141 WI"),
            Replacement::new("Street", "St"),
            Replacement::new("Avenue", "Ave"),
            Replacement::new("Street", "Stre"),
            Replacement::new("9th", "9"),
            Replacement::new("Zürich Straße", "Straße Zürich"),
        ];
        for config in differential_configs() {
            assert_eq!(
                assert_builders_agree(std::slice::from_ref(&cases), &config),
                cases.len()
            );
        }
    }

    /// The structure partitions of column `col` of a generated dataset,
    /// rebuilt from strings (the candidate generator links its own copy of
    /// this crate).
    fn generated_partitions(
        dataset: ec_data::PaperDataset,
        clusters: usize,
    ) -> Vec<Vec<Replacement>> {
        let data = dataset.generate(&ec_data::GeneratorConfig {
            num_clusters: clusters,
            seed: 5,
            num_sources: 6,
        });
        let mut partitions: BTreeMap<_, Vec<Replacement>> = BTreeMap::new();
        for col in 0..data.columns.len() {
            let candidates = ec_replace::generate_candidates(
                &data.column_values(col),
                &ec_replace::CandidateConfig::default(),
            );
            for r in &candidates.replacements {
                let r = Replacement::new(r.lhs(), r.rhs());
                let structure = crate::structure::replacement_structure(r.lhs(), r.rhs());
                partitions.entry((col, structure)).or_default().push(r);
            }
        }
        partitions.into_values().collect()
    }

    #[test]
    fn builder_matches_the_reference_on_generated_partitions() {
        let datasets = [
            (ec_data::PaperDataset::Address, 12),
            (ec_data::PaperDataset::AuthorList, 20),
            (ec_data::PaperDataset::JournalTitle, 20),
        ];
        for (dataset, clusters) in datasets {
            let partitions = generated_partitions(dataset, clusters);
            assert!(partitions.len() > 1, "{dataset:?}");
            for config in differential_configs() {
                let compared = assert_builders_agree(&partitions, &config);
                assert!(compared > 20, "{dataset:?}: {compared} graphs");
            }
        }
    }

    fn build(lhs: &str, rhs: &str, config: GraphConfig) -> (TransformationGraph, LabelInterner) {
        let mut interner = LabelInterner::new();
        let g = GraphBuilder::new(config)
            .build(&Replacement::new(lhs, rhs), &mut interner)
            .expect("graph");
        (g, interner)
    }

    /// Resolves the labels of edge (i, j) to their display strings.
    fn edge_label_strings(
        g: &TransformationGraph,
        interner: &LabelInterner,
        i: u32,
        j: u32,
    ) -> Vec<String> {
        g.edge(i, j)
            .map(|e| {
                e.labels
                    .iter()
                    .map(|&l| interner.resolve(l).to_string())
                    .collect()
            })
            .unwrap_or_default()
    }

    // Paper Figure 5: the graph for "Lee, Mary" -> "M. Lee".
    #[test]
    fn figure5_graph_shape() {
        let (g, interner) = build("Lee, Mary", "M. Lee", GraphConfig::default());
        assert_eq!(g.t_len(), 6);
        assert_eq!(g.num_nodes(), 7);
        // Every non-empty substring of t is an edge: 6*7/2 = 21 edges (paper: "all the 21 edges").
        assert_eq!(g.num_edges(), 21);
        // e_{0,6} (paper e_{1,7}) carries the Constant("M. Lee") label.
        let full = edge_label_strings(&g, &interner, 0, 6);
        assert!(full.contains(&"ConstantStr(\"M. Lee\")".to_string()));
        // e_{3,6} (paper e_{4,7}) carries the substring "Lee" via f1 = SubStr(TC1.B, Tl1.E).
        let lee = edge_label_strings(&g, &interner, 3, 6);
        assert!(lee.contains(&"SubStr(MatchPos(TC, 1, B), MatchPos(Tl, 1, E))".to_string()));
        // e_{0,1} (paper e_{1,2}) produces "M" via f2-like substring functions.
        let m = edge_label_strings(&g, &interner, 0, 1);
        assert!(
            m.iter().any(|l| l.starts_with("SubStr(")),
            "edge for \"M\" must have a SubStr label: {m:?}"
        );
        // e_{1,3} (paper e_{2,4}) produces ". " — only as a constant (". " does not occur in s).
        let dot = edge_label_strings(&g, &interner, 1, 3);
        assert!(dot.contains(&"ConstantStr(\". \")".to_string()));
        assert!(!dot.iter().any(|l| l.starts_with("SubStr(")));
    }

    #[test]
    fn every_label_produces_its_edge_substring() {
        // The defining invariant of the graph (Definition 2): every label on
        // edge (i, j) can produce t[i..j) from s.
        let cases = [
            ("Lee, Mary", "M. Lee"),
            ("Smith, James", "J. Smith"),
            ("9 St, 02141 Wisconsin", "9th Street, 02141 WI"),
            ("Street", "St"),
        ];
        for (lhs, rhs) in cases {
            let (g, interner) = build(lhs, rhs, GraphConfig::default());
            let ctx = StrCtx::new(lhs);
            let t_chars: Vec<char> = rhs.chars().collect();
            for e in g.edges() {
                let piece: String = t_chars[e.from as usize..e.to as usize].iter().collect();
                for &l in &e.labels {
                    let f = interner.resolve(l);
                    assert!(
                        f.can_produce(&ctx, &piece),
                        "{f} on edge ({}, {}) cannot produce {piece:?} from {lhs:?}",
                        e.from,
                        e.to
                    );
                }
            }
        }
    }

    #[test]
    fn affix_labels_present_for_street_st() {
        // Paper Example D.1: the graph of Street -> St has Prefix(Tl, 1) on the
        // edge producing "t".
        let (g, interner) = build("Street", "St", GraphConfig::default());
        let labels = edge_label_strings(&g, &interner, 1, 2);
        assert!(labels.contains(&"Prefix(Tl, 1)".to_string()), "{labels:?}");
        // And Avenue -> Ave has Prefix(Tl, 1) on the edge producing "ve".
        let (g2, interner2) = build("Avenue", "Ave", GraphConfig::default());
        let labels2 = edge_label_strings(&g2, &interner2, 1, 3);
        assert!(
            labels2.contains(&"Prefix(Tl, 1)".to_string()),
            "{labels2:?}"
        );
    }

    #[test]
    fn no_affix_config_omits_affix_labels() {
        let (g, interner) = build("Street", "St", GraphConfig::without_affix());
        for e in g.edges() {
            for &l in &e.labels {
                assert!(!interner.resolve(l).is_affix());
            }
        }
    }

    #[test]
    fn longest_affix_only() {
        // In Street -> Stre, the lowercase match of s is "treet". Prefixes of it
        // occurring at output position 1 are "t", "tr", "tre" — only the
        // longest ("tre", edge (1,4)) gets the Prefix label.
        let (g, interner) = build("Street", "Stre", GraphConfig::default());
        assert!(edge_label_strings(&g, &interner, 1, 4).contains(&"Prefix(Tl, 1)".to_string()));
        assert!(!edge_label_strings(&g, &interner, 1, 2).contains(&"Prefix(Tl, 1)".to_string()));
        assert!(!edge_label_strings(&g, &interner, 1, 3).contains(&"Prefix(Tl, 1)".to_string()));
    }

    #[test]
    fn constant_policy_full_only() {
        let config = GraphConfig {
            constant_policy: ConstantPolicy::FullOnly,
            ..GraphConfig::default()
        };
        let (g, interner) = build("Lee, Mary", "M. Lee", config);
        let mut constant_edges = 0;
        for e in g.edges() {
            for &l in &e.labels {
                if matches!(interner.resolve(l), StringFn::ConstantStr(_)) {
                    constant_edges += 1;
                    assert_eq!((e.from, e.to), (0, 6));
                }
            }
        }
        assert_eq!(constant_edges, 1);
    }

    #[test]
    fn constant_policy_max_len() {
        let config = GraphConfig {
            constant_policy: ConstantPolicy::MaxLen(2),
            ..GraphConfig::default()
        };
        let (g, interner) = build("Lee, Mary", "M. Lee", config);
        for e in g.edges() {
            for &l in &e.labels {
                if let StringFn::ConstantStr(c) = interner.resolve(l) {
                    let len = c.chars().count();
                    assert!(len <= 2 || len == 6, "unexpected constant {c:?}");
                }
            }
        }
    }

    #[test]
    fn max_output_len_rejects_long_outputs() {
        let config = GraphConfig {
            max_output_len: Some(3),
            ..GraphConfig::default()
        };
        let mut interner = LabelInterner::new();
        let builder = GraphBuilder::new(config);
        assert!(builder
            .build(&Replacement::new("abcd", "abcde"), &mut interner)
            .is_none());
        assert!(builder
            .build(&Replacement::new("abcd", "abc"), &mut interner)
            .is_some());
    }

    #[test]
    fn csr_adjacency_is_consistent() {
        let (g, _) = build("Smith, James", "J. Smith", GraphConfig::default());
        let mut total = 0;
        for i in 0..=g.last_node() {
            for e in g.out_edges(i) {
                assert_eq!(e.from, i);
                assert!(e.to > i);
                assert!(e.to <= g.last_node());
                total += 1;
            }
        }
        assert_eq!(total, g.num_edges());
        assert!(g.out_edges(g.last_node()).is_empty());
        assert!(g.edge(0, 1).is_some());
        assert!(g.edge(1, 0).is_none());
    }

    #[test]
    fn shared_interner_shares_labels_across_graphs() {
        let mut interner = LabelInterner::new();
        let builder = GraphBuilder::default();
        let g1 = builder
            .build(&Replacement::new("Lee, Mary", "M. Lee"), &mut interner)
            .unwrap();
        let before = interner.len();
        let g2 = builder
            .build(&Replacement::new("Smith, James", "J. Smith"), &mut interner)
            .unwrap();
        // The shared transformation functions (e.g. SubStr(TC1.B, Tl1.E)) must
        // have been reused rather than re-interned.
        assert!(interner.len() < before + g2.num_labels());
        let shared: Vec<LabelId> = g1
            .label_triples()
            .map(|(_, _, l)| l)
            .filter(|&l| g2.contains_label(l))
            .collect();
        assert!(!shared.is_empty(), "the two name-flip graphs share labels");
    }

    #[test]
    fn single_char_output() {
        let (g, interner) = build("9th", "9", GraphConfig::default());
        assert_eq!(g.num_edges(), 1);
        let labels = edge_label_strings(&g, &interner, 0, 1);
        assert!(labels.contains(&"ConstantStr(\"9\")".to_string()));
        assert!(labels.iter().any(|l| l.starts_with("SubStr(")));
        assert!(labels.iter().any(|l| l.starts_with("Prefix(Td")));
    }

    #[test]
    fn build_all_skips_rejected() {
        let mut interner = LabelInterner::new();
        let builder = GraphBuilder::new(GraphConfig {
            max_output_len: Some(4),
            ..GraphConfig::default()
        });
        let reps = vec![
            Replacement::new("a", "bb"),
            Replacement::new("a", "bbbbbb"),
            Replacement::new("c", "dd"),
        ];
        let graphs = builder.build_all(&reps, &mut interner);
        assert_eq!(graphs.len(), 2);
        assert_eq!(graphs[0].0, reps[0]);
        assert_eq!(graphs[1].0, reps[2]);
    }

    #[test]
    fn from_parts_round_trips_a_built_graph() {
        let (g, _) = build("Lee, Mary", "M. Lee", GraphConfig::default());
        let rebuilt = TransformationGraph::from_parts(
            g.replacement().clone(),
            g.last_node(),
            g.edges().to_vec(),
        )
        .expect("a built graph round-trips");
        assert_eq!(rebuilt.num_edges(), g.num_edges());
        for i in 0..=g.last_node() {
            assert_eq!(rebuilt.out_edges(i), g.out_edges(i), "node {i}");
        }
        // Out-of-range targets, empty labels, and unsorted edges are rejected.
        let rep = g.replacement().clone();
        let bad_target = vec![Edge {
            from: 0,
            to: g.last_node() + 1,
            labels: vec![LabelId(0)].into(),
        }];
        assert!(TransformationGraph::from_parts(rep.clone(), g.last_node(), bad_target).is_none());
        let empty_labels = vec![Edge {
            from: 0,
            to: 1,
            labels: LabelList::new(),
        }];
        assert!(
            TransformationGraph::from_parts(rep.clone(), g.last_node(), empty_labels).is_none()
        );
        let mut unsorted = g.edges().to_vec();
        unsorted.swap(0, 1);
        assert!(TransformationGraph::from_parts(rep, g.last_node(), unsorted).is_none());
    }

    #[test]
    fn const_pos_config_adds_constant_positions() {
        let config = GraphConfig {
            enable_const_pos: true,
            ..GraphConfig::default()
        };
        let (g, interner) = build("xabc", "abc", config);
        let has_const_pos = g.label_triples().any(|(_, _, l)| {
            matches!(
                interner.resolve(l),
                StringFn::SubStr(PositionFn::ConstPos(_), _)
            ) || matches!(
                interner.resolve(l),
                StringFn::SubStr(_, PositionFn::ConstPos(_))
            )
        });
        assert!(has_const_pos);
    }
}
