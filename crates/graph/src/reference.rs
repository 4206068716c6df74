//! A test oracle for the graph builder: Algorithm 8 and the Appendix D
//! affix labels written the plain way, with one [`StringFn`] interned by
//! value per push, a duplicate check per push and a `BTreeMap` of edges.
//! [`GraphBuilder::build`](crate::GraphBuilder::build) must produce exactly
//! its graphs and interner order; differential tests here and in dependent
//! crates pin that. Not meant for use outside tests.

use crate::builder::{ConstantPolicy, GraphConfig, TransformationGraph};
use crate::label::{LabelId, LabelInterner};
use crate::replacement::Replacement;
use ec_dsl::{Dir, PositionFn, StrCtx, StringFn, CLASS_TERMS};
use std::collections::BTreeMap;

/// Builds the transformation graph of `replacement` under `config`,
/// interning labels in `interner`; `None` when the output is too long.
pub fn reference_build(
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
                    while len < matched.len() && i + len < t_len && t_chars[i + len] == matched[len]
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
    let edge_labels: Vec<((u32, u32), Vec<LabelId>)> = edge_labels
        .into_iter()
        .filter(|(_, labels)| !labels.is_empty())
        .collect();
    let edges = edge_labels
        .iter()
        .map(|&((from, to), ref labels)| (from, to, labels.len() as u32));
    let labels = edge_labels.iter().flat_map(|(_, l)| l).copied().collect();
    TransformationGraph::from_parts(replacement.clone(), t_len as u32, edges, labels)
}
