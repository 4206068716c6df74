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

use crate::label::{LabelId, LabelInterner};
use crate::replacement::Replacement;
use ec_dsl::{Dir, PositionFn, StrCtx, Term, CLASS_TERMS};
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge<'a> {
    /// Source node (character position in the output string).
    pub from: u32,
    /// Target node (character position in the output string, `> from`).
    pub to: u32,
    /// Interned string-function labels, distinct, in insertion order.
    pub labels: &'a [LabelId],
}

/// Where one edge's labels start in its graph's label buffer; they end where
/// the next edge's start (the last edge's at the end of the buffer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EdgeRecord {
    from: u32,
    to: u32,
    start: u32,
}

/// The transformation graph of one candidate replacement.
///
/// Nodes are the character positions `0..=t_len` of the output string. Only
/// edges with at least one label are stored, in CSR form twice over: the
/// edge records are grouped by source node, and every edge's labels sit in
/// one exactly sized buffer, edge after edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransformationGraph {
    replacement: Replacement,
    t_len: u32,
    /// Sorted by `(from, to)`.
    edges: Vec<EdgeRecord>,
    labels: Vec<LabelId>,
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

    /// The labels of the `k`-th edge.
    fn labels_of(&self, k: usize) -> &[LabelId] {
        let end = self
            .edges
            .get(k + 1)
            .map_or(self.labels.len(), |e| e.start as usize);
        &self.labels[self.edges[k].start as usize..end]
    }

    /// All edges, grouped by source node and sorted by `(from, to)`.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = Edge<'_>> + '_ {
        (0..self.edges.len()).map(|k| Edge {
            from: self.edges[k].from,
            to: self.edges[k].to,
            labels: self.labels_of(k),
        })
    }

    /// Every edge's labels, edge after edge in [`TransformationGraph::edges`]
    /// order.
    pub fn labels(&self) -> &[LabelId] {
        &self.labels
    }

    /// The edges leaving node `i`, as `(target node, labels)`.
    pub fn out_edges(&self, i: u32) -> impl Iterator<Item = (u32, &[LabelId])> + '_ {
        let i = i as usize;
        let range = match self.out_start.get(i..i + 2) {
            Some(&[lo, hi]) => lo as usize..hi as usize,
            _ => 0..0,
        };
        range.map(move |k| (self.edges[k].to, self.labels_of(k)))
    }

    /// The labels of edge `(i, j)`, if it exists and has labels.
    pub fn edge(&self, i: u32, j: u32) -> Option<&[LabelId]> {
        self.out_edges(i)
            .find(|&(to, _)| to == j)
            .map(|(_, labels)| labels)
    }

    /// Total number of edges (with at least one label).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Total number of labels across all edges.
    pub fn num_labels(&self) -> usize {
        self.labels.len()
    }

    /// Iterates over all `(from, to, label)` triples, the payload of the
    /// inverted index.
    pub fn label_triples(&self) -> impl Iterator<Item = (u32, u32, LabelId)> + '_ {
        self.edges()
            .flat_map(|e| e.labels.iter().map(move |&l| (e.from, e.to, l)))
    }

    /// Does some edge of this graph carry `label`?
    pub fn contains_label(&self, label: LabelId) -> bool {
        self.labels.contains(&label)
    }

    /// Reassembles a graph from its stored parts — the compiled-artifact load
    /// path. `edges` lists `(from, to, label count)` per edge, sorted by
    /// `(from, to)` with `from < to <= t_len` and at least one label each,
    /// and `labels` holds every edge's labels back to back (exactly what
    /// [`TransformationGraph::edges`] and [`TransformationGraph::labels`]
    /// returned at write time). Returns `None` when the parts violate that
    /// invariant, so a corrupt artifact is rejected instead of producing an
    /// inconsistent graph.
    pub fn from_parts(
        replacement: Replacement,
        t_len: u32,
        edges: impl IntoIterator<Item = (u32, u32, u32)>,
        labels: Vec<LabelId>,
    ) -> Option<TransformationGraph> {
        let edges = edges.into_iter();
        let mut records = Vec::with_capacity(edges.size_hint().0);
        let mut start = 0usize;
        let mut prev = None;
        for (from, to, count) in edges {
            if from >= to || to > t_len || count == 0 || prev >= Some((from, to)) {
                return None;
            }
            prev = Some((from, to));
            records.push(EdgeRecord {
                from,
                to,
                start: u32::try_from(start).ok()?,
            });
            start = start.checked_add(count as usize)?;
        }
        (start == labels.len()).then(|| Self::assemble(replacement, t_len, records, labels))
    }

    /// Adds the per-node CSR table to valid parts.
    fn assemble(
        replacement: Replacement,
        t_len: u32,
        edges: Vec<EdgeRecord>,
        labels: Vec<LabelId>,
    ) -> TransformationGraph {
        let mut out_start = vec![0u32; t_len as usize + 2];
        for e in &edges {
            out_start[e.from as usize + 1] += 1;
        }
        for i in 1..out_start.len() {
            out_start[i] += out_start[i - 1];
        }
        TransformationGraph {
            replacement,
            t_len,
            edges,
            labels,
            out_start,
        }
    }
}

/// Builds transformation graphs for candidate replacements, interning their
/// edge labels into a shared [`LabelInterner`].
///
/// A builder keeps the working buffers of one build for the next, so a batch
/// of builds allocates little beyond the graphs it returns.
#[derive(Debug)]
pub struct GraphBuilder {
    config: GraphConfig,
    scratch: Scratch,
}

impl Default for GraphBuilder {
    fn default() -> Self {
        GraphBuilder::new(GraphConfig::default())
    }
}

impl GraphBuilder {
    /// Creates a builder with the given configuration.
    pub fn new(config: GraphConfig) -> Self {
        GraphBuilder {
            config,
            scratch: Scratch::default(),
        }
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
    /// each push interns its label, so ids follow first occurrence. A
    /// `SubStr` push is two array reads: the interner numbers each position
    /// function once per input string, and its dense pair table maps two
    /// numbers to the label (numbers past the table's bound hash the pair).
    /// No push builds a [`ec_dsl::StringFn`]: constants probe the interner
    /// by their text, sliced from `rhs`, and affixes by their term and
    /// ordinal. No push checks the edge for a duplicate, because
    /// one edge's labels are distinct by construction: a position function
    /// evaluates to one input position, so a `SubStr` label names one
    /// occurrence; an edge gets one constant; and an affix label is unique
    /// per term, ordinal and edge end. Only edges that receive a label are
    /// stored, and all their labels in one exactly sized buffer.
    ///
    /// Returns `None` when the output string exceeds
    /// [`GraphConfig::max_output_len`].
    pub fn build(
        &mut self,
        replacement: &Replacement,
        interner: &mut LabelInterner,
    ) -> Option<TransformationGraph> {
        let config = &self.config;
        let t = replacement.rhs();
        let t_len = t.chars().count();
        if config.max_output_len.is_some_and(|max| t_len > max) {
            return None;
        }
        let Scratch {
            t_chars,
            t_bytes,
            positions,
            occurrences,
            table,
        } = &mut self.scratch;
        // The characters of t and the byte offset of every character
        // boundary, for constant slices.
        t_chars.clear();
        t_bytes.clear();
        for (b, c) in t.char_indices() {
            t_chars.push(c);
            t_bytes.push(b);
        }
        t_bytes.push(t.len());
        let ctx = StrCtx::new(replacement.lhs());
        positions.fill(config, &ctx, interner);
        occurrences.fill(ctx.chars(), t_chars);

        table.reset(t_len, config.max_labels_per_edge);
        for i in 0..t_len {
            let at_i = occurrences.at(i);
            let longest = at_i
                .iter()
                .map(|&(_, common)| common as usize)
                .max()
                .unwrap_or(0);
            for j in (i + 1)..=t_len {
                // Constant label (Line 15).
                let keep_constant = match config.constant_policy {
                    ConstantPolicy::All => true,
                    ConstantPolicy::MaxLen(n) => j - i <= n || (i == 0 && j == t_len),
                    ConstantPolicy::FullOnly => i == 0 && j == t_len,
                };
                if keep_constant {
                    table.push(i, j, interner.intern_constant(&t[t_bytes[i]..t_bytes[j]]));
                }
                // SubStr labels for every occurrence s[x..y) = t[i..j) (Lines 16-18).
                let len = j - i;
                if len > longest {
                    continue;
                }
                for &(x, common) in at_i {
                    if (common as usize) < len {
                        continue;
                    }
                    let (x, y) = (x as usize, x as usize + len);
                    for &l in positions.at(x) {
                        for &r in positions.at(y) {
                            table.push(i, j, interner.intern_pair(l, r));
                        }
                    }
                }
            }
        }

        // --- Affix labels (Appendix D), longest-affix-only (Appendix E). ---
        if config.enable_affix {
            add_affix_labels(config, &ctx, t_chars, table, interner);
        }

        let (edges, labels) = table.take_edges();
        Some(TransformationGraph::assemble(
            replacement.clone(),
            t_len as u32,
            edges,
            labels,
        ))
    }

    /// Builds graphs for a batch of replacements, skipping those the
    /// configuration rejects. The i-th returned graph corresponds to the i-th
    /// retained replacement; the return value pairs them up explicitly.
    pub fn build_all(
        &mut self,
        replacements: &[Replacement],
        interner: &mut LabelInterner,
    ) -> Vec<(Replacement, TransformationGraph)> {
        replacements
            .iter()
            .filter_map(|r| self.build(r, interner).map(|g| (r.clone(), g)))
            .collect()
    }
}

/// Adds the `Prefix`/`Suffix` labels: for each class-term match in `s` and
/// each output position, only the longest prefix (resp. suffix) of that
/// match occurring at the position is labelled.
fn add_affix_labels(
    config: &GraphConfig,
    ctx: &StrCtx<'_>,
    t_chars: &[char],
    table: &mut EdgeTable,
    interner: &mut LabelInterner,
) {
    let t_len = t_chars.len();
    let mut intern = |suffix: bool, term: &Term, k: i32| interner.intern_affix(suffix, term, k);
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
                while len < matched.len() && i + len < t_len && t_chars[i + len] == matched[len] {
                    len += 1;
                }
                if len >= 1 {
                    table.push(i, i + len, intern(false, &term, k));
                    if config.enable_negative_ordinals {
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
                    if config.enable_negative_ordinals {
                        table.push(j - len, j, intern(true, &term, neg));
                    }
                }
            }
        }
    }
}

/// The working buffers of one build, kept by the builder for the next.
#[derive(Debug, Default)]
struct Scratch {
    t_chars: Vec<char>,
    t_bytes: Vec<usize>,
    positions: PositionTable,
    occurrences: Occurrences,
    table: EdgeTable,
}

/// The position-function table `P` in CSR form: `entries[start[x]..start[x + 1]]`
/// are the interner's numbers of the position functions that evaluate to
/// input position `x`.
#[derive(Debug, Default)]
struct PositionTable {
    start: Vec<usize>,
    entries: Vec<u32>,
    /// `(x, function)` in generation order, before grouping by `x`.
    generated: Vec<(usize, PositionFn)>,
}

impl PositionTable {
    /// Refills the table for the input string of `ctx`.
    fn fill(&mut self, config: &GraphConfig, ctx: &StrCtx<'_>, interner: &mut LabelInterner) {
        let s_len = ctx.len();
        let generated = &mut self.generated;
        generated.clear();
        for term in CLASS_TERMS {
            let matches = ctx.class_matches(&term);
            let m_count = matches.len() as i32;
            for (idx, m) in matches.iter().enumerate() {
                let k = idx as i32 + 1;
                generated.push((m.start, PositionFn::match_pos(term.clone(), k, Dir::Begin)));
                generated.push((m.end, PositionFn::match_pos(term.clone(), k, Dir::End)));
                if config.enable_negative_ordinals {
                    let neg = k - m_count - 1;
                    generated.push((
                        m.start,
                        PositionFn::match_pos(term.clone(), neg, Dir::Begin),
                    ));
                    generated.push((m.end, PositionFn::match_pos(term.clone(), neg, Dir::End)));
                }
            }
        }
        if config.enable_const_pos {
            for x in 0..=s_len {
                generated.push((x, PositionFn::const_pos(x as i32 + 1)));
                if config.enable_negative_ordinals {
                    generated.push((x, PositionFn::const_pos(x as i32 - s_len as i32 - 1)));
                }
            }
        }
        // A stable sort keeps generation order within each position.
        generated.sort_by_key(|&(x, _)| x);
        self.start.clear();
        self.entries.clear();
        for (x, p) in generated.drain(..) {
            while self.start.len() <= x {
                self.start.push(self.entries.len());
            }
            self.entries.push(interner.position_id(&p));
        }
        while self.start.len() < s_len + 2 {
            self.start.push(self.entries.len());
        }
    }

    fn at(&self, x: usize) -> &[u32] {
        &self.entries[self.start[x]..self.start[x + 1]]
    }
}

/// The edges of one graph under construction. An edge is opened when it
/// receives its first label; `slots` maps each `(i, j)` with `i < j` to its
/// edge. Labels are collected in push order and scattered into the graph's
/// label buffer at the end.
#[derive(Debug, Default)]
struct EdgeTable {
    /// `slots[slot(i, j)]` is `1 +` the edge's index in `edges`, or 0. The
    /// slot of `(i, j)` does not depend on the output length, so a reset
    /// clears only the slots of the previous graph's edges.
    slots: Vec<u32>,
    /// `(from, to, label count)` of every opened edge, in opening order.
    edges: Vec<(u32, u32, u32)>,
    /// `(edge index, label)` of every kept push, in push order.
    pushes: Vec<(u32, LabelId)>,
    /// The opened edges' indices in `(from, to)` order, and each edge's
    /// write cursor into the label buffer.
    order: Vec<u32>,
    cursors: Vec<usize>,
    /// Whether `edges` is still in `(from, to)` order — true unless the
    /// affix pass opened an edge the main pass left empty.
    sorted: bool,
    max_labels: usize,
}

impl EdgeTable {
    fn slot(i: usize, j: usize) -> usize {
        j * (j - 1) / 2 + i
    }

    /// Empties the table for a graph over an output of `t_len` characters.
    fn reset(&mut self, t_len: usize, max_labels: usize) {
        for &(from, to, _) in &self.edges {
            self.slots[Self::slot(from as usize, to as usize)] = 0;
        }
        let needed = t_len * (t_len + 1) / 2;
        if self.slots.len() < needed {
            self.slots.resize(needed, 0);
        }
        self.edges.clear();
        self.pushes.clear();
        self.sorted = true;
        self.max_labels = max_labels;
    }

    /// Appends `id` to edge `(i, j)` unless the edge is full. The label is
    /// interned either way, so ids never depend on the cap. The caller never
    /// pushes one label twice onto an edge (see [`GraphBuilder::build`]);
    /// debug builds check that when [`EdgeTable::take_edges`] lays the
    /// labels out.
    fn push(&mut self, i: usize, j: usize, id: LabelId) {
        if self.max_labels == 0 {
            return;
        }
        let slot = &mut self.slots[Self::slot(i, j)];
        if *slot == 0 {
            if let Some(&(from, to, _)) = self.edges.last() {
                self.sorted &= (from as usize, to as usize) < (i, j);
            }
            self.edges.push((i as u32, j as u32, 0));
            *slot = self.edges.len() as u32;
        }
        let edge = *slot - 1;
        let count = &mut self.edges[edge as usize].2;
        if (*count as usize) < self.max_labels {
            *count += 1;
            self.pushes.push((edge, id));
        }
    }

    /// The labelled edges sorted by `(from, to)`, and their labels in one
    /// exactly sized buffer, edge after edge, each edge's in push order.
    fn take_edges(&mut self) -> (Vec<EdgeRecord>, Vec<LabelId>) {
        self.order.clear();
        self.order.extend(0..self.edges.len() as u32);
        if !self.sorted {
            let edges = &self.edges;
            self.order.sort_unstable_by_key(|&k| {
                let (from, to, _) = edges[k as usize];
                (from, to)
            });
        }
        self.cursors.resize(self.edges.len(), 0);
        let mut records = Vec::with_capacity(self.edges.len());
        let mut total = 0;
        for &k in &self.order {
            let (from, to, count) = self.edges[k as usize];
            self.cursors[k as usize] = total;
            records.push(EdgeRecord {
                from,
                to,
                start: total as u32,
            });
            total += count as usize;
        }
        // Scatter the pushes edge by edge; a stable pass keeps push order.
        let mut labels = vec![LabelId(0); total];
        for &(edge, id) in &self.pushes {
            let cursor = &mut self.cursors[edge as usize];
            labels[*cursor] = id;
            *cursor += 1;
        }
        debug_assert!(
            records.iter().enumerate().all(|(k, e)| {
                let end = records.get(k + 1).map_or(total, |n| n.start as usize);
                let labels = &labels[e.start as usize..end];
                (1..labels.len()).all(|n| !labels[..n].contains(&labels[n]))
            }),
            "an edge carries a label twice"
        );
        (records, labels)
    }
}

/// For every output position `i`, by ascending `x`, every input position `x`
/// where `s[x..]` and `t[i..]` share a non-empty common prefix, with that
/// prefix's length: `(x, length)` pairs in CSR form.
#[derive(Debug, Default)]
struct Occurrences {
    start: Vec<usize>,
    entries: Vec<(u32, u32)>,
    /// `(i, x, length)` in the order the table below finds them.
    found: Vec<(u32, u32, u32)>,
    /// Rows `x + 1` and `x` of the longest-common-extension table.
    next: Vec<u32>,
    row: Vec<u32>,
}

impl Occurrences {
    /// Refills the table for input `s` and output `t`.
    fn fill(&mut self, s: &[char], t: &[char]) {
        self.found.clear();
        self.next.clear();
        self.next.resize(t.len() + 1, 0);
        self.row.clear();
        self.row.resize(t.len() + 1, 0);
        // Fill the rows for descending x, counting the finds per i in `start`.
        self.start.clear();
        self.start.resize(t.len() + 1, 0);
        for x in (0..s.len()).rev() {
            for i in (0..t.len()).rev() {
                self.row[i] = if s[x] == t[i] {
                    self.next[i + 1] + 1
                } else {
                    0
                };
                if self.row[i] > 0 {
                    self.found.push((i as u32, x as u32, self.row[i]));
                    self.start[i + 1] += 1;
                }
            }
            std::mem::swap(&mut self.row, &mut self.next);
        }
        for i in 1..self.start.len() {
            self.start[i] += self.start[i - 1];
        }
        // Each i's finds arrive by descending x: place them back to front.
        self.entries.clear();
        self.entries.resize(self.found.len(), (0, 0));
        let ends = &mut self.row;
        ends.clear();
        ends.extend(self.start[1..].iter().map(|&e| e as u32));
        for &(i, x, common) in &self.found {
            let end = &mut ends[i as usize];
            *end -= 1;
            self.entries[*end as usize] = (x, common);
        }
    }

    fn at(&self, i: usize) -> &[(u32, u32)] {
        &self.entries[self.start[i]..self.start[i + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec_dsl::StringFn;
    use std::collections::BTreeMap;

    /// Builds every replacement of every partition with both builders (one
    /// shared interner per partition and builder) and asserts identical
    /// graphs, per-edge label lists and interner id order. Returns the
    /// number of graphs compared.
    fn assert_builders_agree(partitions: &[Vec<Replacement>], config: &GraphConfig) -> usize {
        let mut builder = GraphBuilder::new(config.clone());
        let mut compared = 0;
        for part in partitions {
            let (mut fast, mut slow) = (LabelInterner::new(), LabelInterner::new());
            for r in part {
                let got = builder.build(r, &mut fast);
                let want = crate::reference::reference_build(config, r, &mut slow);
                match (got, want) {
                    (Some(got), Some(want)) => {
                        assert_labels_distinct(&got, &format!("{r}"));
                        assert_eq!(got.last_node(), want.last_node(), "{r}");
                        assert_eq!(got, want, "{r}");
                        for i in 0..=got.last_node() {
                            assert!(got.out_edges(i).eq(want.out_edges(i)), "{r} node {i}");
                        }
                        compared += 1;
                    }
                    (None, None) => {}
                    (got, want) => panic!("{r}: built {} vs {}", got.is_some(), want.is_some()),
                }
            }
            let fast: Vec<StringFn> = fast.iter().map(|(_, f)| f).collect();
            let slow: Vec<StringFn> = slow.iter().map(|(_, f)| f).collect();
            assert_eq!(fast, slow, "interner order");
        }
        compared
    }

    /// Asserts that no edge of `g` carries a label twice — the property that
    /// lets [`GraphBuilder::build`] push without a duplicate check.
    fn assert_labels_distinct(g: &TransformationGraph, what: &str) {
        for e in g.edges() {
            let mut labels = e.labels.to_vec();
            labels.sort_unstable();
            labels.dedup();
            assert_eq!(
                labels.len(),
                e.labels.len(),
                "{what}: edge ({}, {})",
                e.from,
                e.to
            );
        }
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

    /// Short strings over a small alphabet with every character class and
    /// non-ASCII letters, so substrings repeat and classes match many times.
    fn arb_text() -> impl proptest::strategy::Strategy<Value = String> {
        proptest::string::string_regex("[aAb1 .üßÉ]{1,14}").unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

        /// Random partitions of one to three replacements, built against one
        /// interner: every edge carries distinct labels (checked by
        /// `assert_builders_agree`) and the builders agree, under every
        /// differential configuration, the per-edge cap of 3 included.
        #[test]
        fn builder_matches_the_reference_on_random_inputs(
            pairs in proptest::collection::vec((arb_text(), arb_text()), 1..4)
        ) {
            let part: Vec<Replacement> =
                pairs.iter().map(|(lhs, rhs)| Replacement::new(lhs, rhs)).collect();
            for config in differential_configs() {
                assert_builders_agree(std::slice::from_ref(&part), &config);
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
            .map(|labels| {
                labels
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
                for &l in e.labels {
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
            for &l in e.labels {
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
            for &l in e.labels {
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
            for &l in e.labels {
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
        let mut builder = GraphBuilder::new(config);
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
            for (to, labels) in g.out_edges(i) {
                assert!(to > i);
                assert!(to <= g.last_node());
                assert_eq!(g.edge(i, to), Some(labels));
                total += 1;
            }
        }
        assert_eq!(total, g.num_edges());
        assert_eq!(g.out_edges(g.last_node()).count(), 0);
        assert_eq!(g.out_edges(g.last_node() + 1).count(), 0);
        assert!(g.edge(0, 1).is_some());
        assert!(g.edge(1, 0).is_none());
    }

    #[test]
    fn shared_interner_shares_labels_across_graphs() {
        let mut interner = LabelInterner::new();
        let mut builder = GraphBuilder::default();
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
        let mut builder = GraphBuilder::new(GraphConfig {
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
        let rep = g.replacement().clone();
        let parts = |g: &TransformationGraph| -> Vec<(u32, u32, u32)> {
            g.edges()
                .map(|e| (e.from, e.to, e.labels.len() as u32))
                .collect()
        };
        let rebuilt = TransformationGraph::from_parts(
            rep.clone(),
            g.last_node(),
            parts(&g),
            g.labels().to_vec(),
        )
        .expect("a built graph round-trips");
        assert_eq!(rebuilt, g);
        let last = g.last_node();
        let from_parts = |edges: Vec<(u32, u32, u32)>, labels: Vec<LabelId>| {
            TransformationGraph::from_parts(rep.clone(), last, edges, labels)
        };
        // Out-of-range targets, empty labels, unsorted edges and label
        // counts that do not cover the buffer are rejected.
        assert!(from_parts(vec![(0, last + 1, 1)], vec![LabelId(0)]).is_none());
        assert!(from_parts(vec![(1, 1, 1)], vec![LabelId(0)]).is_none());
        assert!(from_parts(vec![(0, 1, 0)], Vec::new()).is_none());
        let mut unsorted = parts(&g);
        unsorted.swap(0, 1);
        assert!(from_parts(unsorted, g.labels().to_vec()).is_none());
        let mut duplicated = parts(&g);
        duplicated[1] = duplicated[0];
        assert!(from_parts(duplicated, g.labels().to_vec()).is_none());
        assert!(from_parts(parts(&g), g.labels()[1..].to_vec()).is_none());
        assert!(from_parts(vec![(0, 1, 1)], vec![LabelId(0); 2]).is_none());
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
