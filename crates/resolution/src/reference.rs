//! The pre-rewrite similarity kernels, kept **verbatim** as differential
//! references.
//!
//! [`crate::similarity`] was rewritten as bit-parallel, allocation-free
//! kernels (Myers Levenshtein, scratch-buffer Jaro, sorted-slice token
//! intersections). Every rewritten kernel must return **bitwise identical**
//! results to the textbook implementations it replaced — integer distances
//! equal, `f64` scores equal to the last bit — because resolution output
//! (cluster membership, `MatchDecision.score`, the delta resolver's pair
//! cache) is pinned byte-identical across PRs. This module preserves the old
//! implementations exactly as they were so that `tests/kernel_props.rs` can
//! compare against them, the same way the CSR index rewrite kept its linear
//! reference (`crates/index/tests/csr_props.rs`).
//!
//! Nothing here is used on any production path. Do not "improve" this module:
//! its value is that it does not change.

use std::collections::HashMap;

/// The word tokenizer as the old `jaccard` consumed it (identical to
/// [`crate::tokenize::words`], duplicated so the reference is frozen even if
/// the live tokenizer evolves).
pub fn words(s: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    for ch in s.chars() {
        if ch.is_alphanumeric() {
            current.push(ch.to_ascii_lowercase());
        } else if !current.is_empty() {
            tokens.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    tokens
}

/// The q-gram tokenizer as the old `qgram_cosine` consumed it (identical to
/// [`crate::tokenize::qgrams`], duplicated so the reference is frozen).
pub fn qgrams(s: &str, q: usize) -> Vec<String> {
    let q = q.max(1);
    let normalized = crate::tokenize::normalize(s);
    if normalized.is_empty() {
        return Vec::new();
    }
    let chars: Vec<char> = if q == 1 {
        normalized.chars().collect()
    } else {
        let pad = std::iter::repeat('#').take(q - 1);
        pad.clone().chain(normalized.chars()).chain(pad).collect()
    };
    if chars.len() < q {
        return Vec::new();
    }
    chars
        .windows(q)
        .map(|w| w.iter().collect::<String>())
        .collect()
}

/// The classic two-row dynamic program over `Vec<char>` collections.
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    // Keep the shorter string in the inner dimension.
    let (outer, inner) = if a.len() >= b.len() {
        (&a, &b)
    } else {
        (&b, &a)
    };
    let mut prev: Vec<usize> = (0..=inner.len()).collect();
    let mut cur = vec![0usize; inner.len() + 1];
    for (i, &oc) in outer.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &ic) in inner.iter().enumerate() {
            let cost = usize::from(oc != ic);
            cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[inner.len()]
}

/// The full-matrix restricted Damerau–Levenshtein (optimal string alignment).
pub fn damerau_levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let cols = b.len() + 1;
    let mut dist = vec![0usize; (a.len() + 1) * cols];
    let idx = |i: usize, j: usize| i * cols + j;
    for i in 0..=a.len() {
        dist[idx(i, 0)] = i;
    }
    for j in 0..=b.len() {
        dist[idx(0, j)] = j;
    }
    for i in 1..=a.len() {
        for j in 1..=b.len() {
            let cost = usize::from(a[i - 1] != b[j - 1]);
            let mut d = (dist[idx(i - 1, j)] + 1)
                .min(dist[idx(i, j - 1)] + 1)
                .min(dist[idx(i - 1, j - 1)] + cost);
            if i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1] {
                d = d.min(dist[idx(i - 2, j - 2)] + 1);
            }
            dist[idx(i, j)] = d;
        }
    }
    dist[idx(a.len(), b.len())]
}

/// The old normalized Levenshtein: walks both strings for the char counts and
/// then again inside [`levenshtein`].
pub fn normalized_levenshtein(a: &str, b: &str) -> f64 {
    let max_len = a.chars().count().max(b.chars().count());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b) as f64 / max_len as f64
}

/// The old normalized Damerau, exactly as `SimilarityMeasure::score`'s
/// Damerau branch computed it inline.
pub fn normalized_damerau_levenshtein(a: &str, b: &str) -> f64 {
    let max_len = a.chars().count().max(b.chars().count());
    if max_len == 0 {
        1.0
    } else {
        1.0 - damerau_levenshtein(a, b) as f64 / max_len as f64
    }
}

/// The allocating Jaro: per-call `Vec<char>` collections, a fresh `b_used`
/// flag vector, and materialized matched-character vectors on both sides.
pub fn jaro(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut b_used = vec![false; b.len()];
    let mut matches_a: Vec<char> = Vec::new();
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_used[j] && b[j] == ca {
                b_used[j] = true;
                matches_a.push(ca);
                break;
            }
        }
    }
    let m = matches_a.len();
    if m == 0 {
        return 0.0;
    }
    let matches_b: Vec<char> = b
        .iter()
        .zip(b_used.iter())
        .filter(|(_, &used)| used)
        .map(|(&c, _)| c)
        .collect();
    let transpositions = matches_a
        .iter()
        .zip(matches_b.iter())
        .filter(|(x, y)| x != y)
        .count()
        / 2;
    let m = m as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
}

/// The old Jaro–Winkler on top of the old [`jaro`].
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    let j = jaro(a, b);
    let prefix = a
        .chars()
        .zip(b.chars())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count();
    j + prefix as f64 * 0.1 * (1.0 - j)
}

/// The old hash-set Jaccard over owned word-token vectors.
pub fn jaccard(a: &str, b: &str) -> f64 {
    let ta = words(a);
    let tb = words(b);
    if ta.is_empty() && tb.is_empty() {
        return 1.0;
    }
    let sa: std::collections::HashSet<&str> = ta.iter().map(String::as_str).collect();
    let sb: std::collections::HashSet<&str> = tb.iter().map(String::as_str).collect();
    let inter = sa.intersection(&sb).count();
    let union = sa.union(&sb).count();
    if union == 0 {
        1.0
    } else {
        inter as f64 / union as f64
    }
}

/// The old q-gram cosine over two per-call `HashMap` frequency vectors.
pub fn qgram_cosine(a: &str, b: &str, q: usize) -> f64 {
    let ga = qgrams(a, q);
    let gb = qgrams(b, q);
    if ga.is_empty() && gb.is_empty() {
        return 1.0;
    }
    if ga.is_empty() || gb.is_empty() {
        return 0.0;
    }
    fn count(grams: &[String]) -> HashMap<&str, f64> {
        let mut m: HashMap<&str, f64> = HashMap::new();
        for g in grams {
            *m.entry(g.as_str()).or_insert(0.0) += 1.0;
        }
        m
    }
    let ca = count(&ga);
    let cb = count(&gb);
    let dot: f64 = ca
        .iter()
        .filter_map(|(g, x)| cb.get(g).map(|y| x * y))
        .sum();
    let norm = |m: &HashMap<&str, f64>| m.values().map(|x| x * x).sum::<f64>().sqrt();
    let denom = norm(&ca) * norm(&cb);
    if denom == 0.0 {
        0.0
    } else {
        dot / denom
    }
}

/// Dispatches a [`crate::similarity::SimilarityMeasure`] onto the reference
/// kernels, exactly as the old `SimilarityMeasure::score` did.
pub fn score(measure: crate::similarity::SimilarityMeasure, a: &str, b: &str) -> f64 {
    use crate::similarity::SimilarityMeasure as M;
    match measure {
        M::Levenshtein => normalized_levenshtein(a, b),
        M::DamerauLevenshtein => normalized_damerau_levenshtein(a, b),
        M::Jaro => jaro(a, b),
        M::JaroWinkler => jaro_winkler(a, b),
        M::Jaccard => jaccard(a, b),
        M::QgramCosine(q) => qgram_cosine(a, b, q),
    }
}
