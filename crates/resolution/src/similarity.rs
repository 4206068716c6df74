//! String similarity measures used for record matching — production kernels.
//!
//! Every measure is normalized to `[0, 1]` where `1.0` means identical. The
//! edit-distance family additionally exposes the raw distances, which the
//! candidate-replacement alignment in `ec-replace` and the tests reuse.
//!
//! # Kernel design
//!
//! Pairwise scoring is the front door of the whole pipeline — every record
//! entering `resolve`, `pipeline`, `/ingest` or the delta resolver pays it —
//! so these kernels are written to be **allocation-free on the hot path** and
//! **bitwise identical** to the textbook implementations they replaced (kept
//! verbatim in [`crate::reference`] and pinned by the differential proptests
//! in `tests/kernel_props.rs`):
//!
//! * **ASCII byte-slice fast path.** When both inputs are ASCII the kernels
//!   work directly on `&[u8]` — no `Vec<char>` collection, and byte length
//!   *is* character count. Non-ASCII inputs fall back to `char` buffers
//!   borrowed from a per-thread scratch arena (filled, never reallocated in
//!   steady state).
//! * **Myers bit-parallel Levenshtein.** ASCII edit distance runs the Myers
//!   (1999) bit-vector algorithm: one `u64` word when the (shorter,
//!   common-affix-trimmed) pattern is ≤ 64 bytes, Hyyrö's blocked variant
//!   beyond. Common prefixes and suffixes are trimmed first — they never
//!   change the distance and typical variant pairs share long affixes.
//! * **Rolling-row Damerau.** The restricted Damerau–Levenshtein keeps three
//!   rolling rows instead of the full `(n+1)×(m+1)` matrix.
//! * **Scratch-buffer Jaro.** Match flags and the matched-character list are
//!   reused scratch; transpositions are counted with a single walk over the
//!   flags instead of materializing the second matched vector.
//! * **Sorted-slice token kernels.** Jaccard and q-gram cosine tokenize into
//!   reusable [`TokenBuf`]/gram arenas and intersect *sorted spans* by
//!   merge-join. All intermediate sums are integer-valued `f64`s (exactly
//!   representable), so the results equal the old hash-map implementations to
//!   the last bit.
//!
//! Per-thread scratch also counts kernel invocations by path; the matcher
//! drains them into the `ec_resolution_kernel_calls_total{path=…}` metric via
//! [`take_kernel_path_counts`].
//!
//! # Threshold-aware scoring
//!
//! [`SimilarityMeasure::score_at_least`] is the early-abandon entry point:
//! given the minimum score `needed` for the pair to still reach the match
//! threshold, it first evaluates a cheap per-measure upper bound — the
//! length-difference bound for the edit family, the matched-character bound
//! for Jaro, the distinct-token-count ratio for Jaccard — and skips the
//! expensive kernel entirely when even the bound cannot reach `needed`.
//! Abandonment is *sound by margin*: a measure is only skipped when its upper
//! bound is below `needed` by more than [`EARLY_ABANDON_MARGIN`], which
//! dwarfs any accumulated `f64` rounding, so an abandoned pair provably
//! scores below the threshold and decisions always agree with exact scoring.

use crate::tokenize::{normalize_into, words_into, TokenBuf};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// Safety margin for early-abandon comparisons: a kernel is only skipped when
/// its upper bound misses the required score by more than this. The margin is
/// orders of magnitude above any `f64` rounding the bound arithmetic can
/// accumulate (~1e-15), so abandoned pairs are provably sub-threshold, while
/// near-threshold pairs simply fall through to exact scoring.
pub const EARLY_ABANDON_MARGIN: f64 = 1e-9;

/// Sentinel "no bound" for the internal bounded kernels.
const NO_BOUND: f64 = f64::NEG_INFINITY;

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::new());
}

/// Per-thread reusable working memory for every kernel. All buffers grow to
/// the high-water mark of the strings scored on this thread and are then
/// reused allocation-free.
struct Scratch {
    /// Unicode fallback: the two inputs as chars.
    ca: Vec<char>,
    cb: Vec<char>,
    /// Myers single-word pattern bitmasks, indexed by byte (always len 256;
    /// dirtied entries are re-zeroed after each call).
    peq: Vec<u64>,
    /// Blocked Myers pattern bitmasks (`byte * words + word` layout).
    peq_blocks: Vec<u64>,
    /// Blocked Myers vertical delta vectors.
    pv: Vec<u64>,
    mv: Vec<u64>,
    /// Dynamic-program rows (Levenshtein fallback / Damerau).
    row_prev2: Vec<usize>,
    row_prev: Vec<usize>,
    row_cur: Vec<usize>,
    /// Jaro match flags over `b` and matched characters of `a` in order.
    used: Vec<bool>,
    mat_u8: Vec<u8>,
    mat_char: Vec<char>,
    /// Token buffers for Jaccard.
    ta: TokenBuf,
    tb: TokenBuf,
    /// Normalized inputs for q-gram cosine.
    na: String,
    nb: String,
    /// Padded gram arenas (ASCII bytes / Unicode chars).
    gpa: Vec<u8>,
    gpb: Vec<u8>,
    gca: Vec<char>,
    gcb: Vec<char>,
    /// Gram sort indices and (gram-start, count) runs.
    idx: Vec<u32>,
    runa: Vec<(u32, u32)>,
    runb: Vec<(u32, u32)>,
    /// Kernel-path counters drained by [`take_kernel_path_counts`].
    ascii_calls: u64,
    unicode_calls: u64,
}

impl Scratch {
    fn new() -> Self {
        Scratch {
            ca: Vec::new(),
            cb: Vec::new(),
            peq: vec![0u64; 256],
            peq_blocks: Vec::new(),
            pv: Vec::new(),
            mv: Vec::new(),
            row_prev2: Vec::new(),
            row_prev: Vec::new(),
            row_cur: Vec::new(),
            used: Vec::new(),
            mat_u8: Vec::new(),
            mat_char: Vec::new(),
            ta: TokenBuf::new(),
            tb: TokenBuf::new(),
            na: String::new(),
            nb: String::new(),
            gpa: Vec::new(),
            gpb: Vec::new(),
            gca: Vec::new(),
            gcb: Vec::new(),
            idx: Vec::new(),
            runa: Vec::new(),
            runb: Vec::new(),
            ascii_calls: 0,
            unicode_calls: 0,
        }
    }
}

/// Drains this thread's kernel-path counters: `(ascii_calls, unicode_calls)`
/// since the last drain. The matcher flushes these into the
/// `ec_resolution_kernel_calls_total` metric after each scoring chunk so the
/// kernels themselves never touch an atomic.
pub fn take_kernel_path_counts() -> (u64, u64) {
    SCRATCH.with(|cell| {
        let s = &mut *cell.borrow_mut();
        (
            std::mem::take(&mut s.ascii_calls),
            std::mem::take(&mut s.unicode_calls),
        )
    })
}

/// Fills `buf` with the chars of `s`, reusing the allocation.
fn fill_chars(buf: &mut Vec<char>, s: &str) {
    buf.clear();
    buf.extend(s.chars());
}

/// Trims the common prefix and suffix of two sequences — neither changes the
/// Levenshtein distance, and variant strings typically share long affixes.
fn trim_common<'x, T: PartialEq>(a: &'x [T], b: &'x [T]) -> (&'x [T], &'x [T]) {
    let prefix = a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count();
    let (a, b) = (&a[prefix..], &b[prefix..]);
    let suffix = a
        .iter()
        .rev()
        .zip(b.iter().rev())
        .take_while(|(x, y)| x == y)
        .count();
    (&a[..a.len() - suffix], &b[..b.len() - suffix])
}

/// Myers (1999) single-word bit-parallel Levenshtein: `pat` is the pattern
/// (`1 ≤ |pat| ≤ 64`), `txt` the text. `peq` is the 256-entry scratch mask
/// table, zeroed on entry and re-zeroed before returning.
fn myers_64(peq: &mut [u64], pat: &[u8], txt: &[u8]) -> usize {
    debug_assert!(!pat.is_empty() && pat.len() <= 64);
    for (i, &c) in pat.iter().enumerate() {
        peq[c as usize] |= 1u64 << i;
    }
    let m = pat.len();
    let last = 1u64 << (m - 1);
    let mut pv = !0u64;
    let mut mv = 0u64;
    let mut score = m;
    for &c in txt {
        let eq = peq[c as usize];
        let xv = eq | mv;
        let xh = (((eq & pv).wrapping_add(pv)) ^ pv) | eq;
        let ph = mv | !(xh | pv);
        let mh = pv & xh;
        if ph & last != 0 {
            score += 1;
        }
        if mh & last != 0 {
            score -= 1;
        }
        let ph = (ph << 1) | 1;
        pv = (mh << 1) | !(xv | ph);
        mv = ph & xv;
    }
    for &c in pat {
        peq[c as usize] = 0;
    }
    score
}

/// Hyyrö's blocked Myers for patterns longer than 64 bytes: the pattern is
/// split into ⌈m/64⌉ words and the horizontal delta is carried across blocks
/// per text character. `peq_blocks` uses a `byte * words + word` layout and
/// only the rows dirtied by the pattern are re-zeroed afterwards.
fn myers_blocked(
    peq_blocks: &mut Vec<u64>,
    pv: &mut Vec<u64>,
    mv: &mut Vec<u64>,
    pat: &[u8],
    txt: &[u8],
) -> usize {
    let m = pat.len();
    let words = m.div_ceil(64);
    if peq_blocks.len() < 256 * words {
        peq_blocks.resize(256 * words, 0);
    }
    for (i, &c) in pat.iter().enumerate() {
        peq_blocks[c as usize * words + i / 64] |= 1u64 << (i % 64);
    }
    pv.clear();
    pv.resize(words, !0u64);
    mv.clear();
    mv.resize(words, 0);
    let mut score = m;
    let last = 1u64 << ((m - 1) % 64);
    for &c in txt {
        let row = c as usize * words;
        let mut hin: i32 = 1;
        for j in 0..words {
            let hb = if j + 1 == words { last } else { 1u64 << 63 };
            let mut eq = peq_blocks[row + j];
            if hin < 0 {
                eq |= 1;
            }
            let pvj = pv[j];
            let mvj = mv[j];
            let xv = eq | mvj;
            let xh = (((eq & pvj).wrapping_add(pvj)) ^ pvj) | eq;
            let ph = mvj | !(xh | pvj);
            let mh = pvj & xh;
            let mut hout = 0i32;
            if ph & hb != 0 {
                hout += 1;
            }
            if mh & hb != 0 {
                hout -= 1;
            }
            let ph = (ph << 1) | u64::from(hin > 0);
            pv[j] = ((mh << 1) | u64::from(hin < 0)) | !(xv | ph);
            mv[j] = ph & xv;
            if j + 1 == words {
                score = (score as i64 + i64::from(hout)) as usize;
            }
            hin = hout;
        }
    }
    for &c in pat {
        let row = c as usize * words;
        for w in 0..words {
            peq_blocks[row + w] = 0;
        }
    }
    score
}

/// ASCII Levenshtein: affix trim, then single-word or blocked Myers with the
/// shorter side as the pattern.
fn lev_ascii(s: &mut Scratch, a: &[u8], b: &[u8]) -> usize {
    let (a, b) = trim_common(a, b);
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let (pat, txt) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if pat.len() <= 64 {
        myers_64(&mut s.peq, pat, txt)
    } else {
        myers_blocked(&mut s.peq_blocks, &mut s.pv, &mut s.mv, pat, txt)
    }
}

/// The classic two-row Levenshtein program over scratch rows (Unicode
/// fallback) — same recurrence as the reference, so distances are equal by
/// construction.
fn lev_dp<T: PartialEq + Copy>(
    a: &[T],
    b: &[T],
    prev: &mut Vec<usize>,
    cur: &mut Vec<usize>,
) -> usize {
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let (outer, inner) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    prev.clear();
    prev.extend(0..=inner.len());
    cur.clear();
    cur.resize(inner.len() + 1, 0);
    for (i, &oc) in outer.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &ic) in inner.iter().enumerate() {
            let cost = usize::from(oc != ic);
            cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(prev, cur);
    }
    prev[inner.len()]
}

fn lev_inner(s: &mut Scratch, a: &str, b: &str) -> usize {
    if a.is_ascii() && b.is_ascii() {
        s.ascii_calls += 1;
        lev_ascii(s, a.as_bytes(), b.as_bytes())
    } else {
        s.unicode_calls += 1;
        fill_chars(&mut s.ca, a);
        fill_chars(&mut s.cb, b);
        let (ca, cb) = trim_common(&s.ca, &s.cb);
        lev_dp(ca, cb, &mut s.row_prev, &mut s.row_cur)
    }
}

/// The Levenshtein (insert/delete/substitute) edit distance between two
/// strings, computed over Unicode scalar values. ASCII inputs run the Myers
/// bit-parallel kernel (single `u64` word up to 64 pattern bytes, blocked
/// beyond) after common-affix trimming; other inputs fall back to the two-row
/// dynamic program over reusable scratch rows.
pub fn levenshtein(a: &str, b: &str) -> usize {
    SCRATCH.with(|cell| lev_inner(&mut cell.borrow_mut(), a, b))
}

/// Rolling three-row restricted Damerau–Levenshtein (optimal string
/// alignment) — the full matrix of the reference implementation collapsed to
/// the three rows the recurrence actually reads.
fn osa_dp<T: PartialEq + Copy>(
    a: &[T],
    b: &[T],
    prev2: &mut Vec<usize>,
    prev: &mut Vec<usize>,
    cur: &mut Vec<usize>,
) -> usize {
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let n = b.len();
    prev.clear();
    prev.extend(0..=n);
    prev2.clear();
    prev2.resize(n + 1, 0);
    cur.clear();
    cur.resize(n + 1, 0);
    for i in 1..=a.len() {
        cur[0] = i;
        let ai = a[i - 1];
        for j in 1..=n {
            let cost = usize::from(ai != b[j - 1]);
            let mut d = (prev[j] + 1).min(cur[j - 1] + 1).min(prev[j - 1] + cost);
            if i > 1 && j > 1 && ai == b[j - 2] && a[i - 2] == b[j - 1] {
                d = d.min(prev2[j - 2] + 1);
            }
            cur[j] = d;
        }
        std::mem::swap(prev2, prev);
        std::mem::swap(prev, cur);
    }
    prev[n]
}

fn osa_inner(s: &mut Scratch, a: &str, b: &str) -> usize {
    if a.is_ascii() && b.is_ascii() {
        s.ascii_calls += 1;
        osa_dp(
            a.as_bytes(),
            b.as_bytes(),
            &mut s.row_prev2,
            &mut s.row_prev,
            &mut s.row_cur,
        )
    } else {
        s.unicode_calls += 1;
        fill_chars(&mut s.ca, a);
        fill_chars(&mut s.cb, b);
        osa_dp(
            &s.ca,
            &s.cb,
            &mut s.row_prev2,
            &mut s.row_prev,
            &mut s.row_cur,
        )
    }
}

/// The restricted Damerau–Levenshtein distance (optimal string alignment):
/// Levenshtein plus transposition of two adjacent characters counted as one
/// edit. This is the distance the paper's Appendix A cites (\[11\]) as an
/// alternative alignment for fine-grained candidate generation.
pub fn damerau_levenshtein(a: &str, b: &str) -> usize {
    SCRATCH.with(|cell| osa_inner(&mut cell.borrow_mut(), a, b))
}

fn normalized_lev_inner(s: &mut Scratch, a: &str, b: &str) -> f64 {
    if a.is_ascii() && b.is_ascii() {
        s.ascii_calls += 1;
        let max_len = a.len().max(b.len());
        if max_len == 0 {
            return 1.0;
        }
        1.0 - lev_ascii(s, a.as_bytes(), b.as_bytes()) as f64 / max_len as f64
    } else {
        s.unicode_calls += 1;
        fill_chars(&mut s.ca, a);
        fill_chars(&mut s.cb, b);
        let max_len = s.ca.len().max(s.cb.len());
        if max_len == 0 {
            return 1.0;
        }
        let (ca, cb) = trim_common(&s.ca, &s.cb);
        1.0 - lev_dp(ca, cb, &mut s.row_prev, &mut s.row_cur) as f64 / max_len as f64
    }
}

/// Levenshtein similarity normalized by the longer string length:
/// `1 - dist / max(|a|, |b|)`. Two empty strings are identical (`1.0`).
/// Lengths and the distance are computed in one pass over each string (byte
/// length on the ASCII path, one char collection on the Unicode path).
pub fn normalized_levenshtein(a: &str, b: &str) -> f64 {
    SCRATCH.with(|cell| normalized_lev_inner(&mut cell.borrow_mut(), a, b))
}

fn normalized_osa_inner(s: &mut Scratch, a: &str, b: &str) -> f64 {
    if a.is_ascii() && b.is_ascii() {
        s.ascii_calls += 1;
        let max_len = a.len().max(b.len());
        if max_len == 0 {
            return 1.0;
        }
        let d = osa_dp(
            a.as_bytes(),
            b.as_bytes(),
            &mut s.row_prev2,
            &mut s.row_prev,
            &mut s.row_cur,
        );
        1.0 - d as f64 / max_len as f64
    } else {
        s.unicode_calls += 1;
        fill_chars(&mut s.ca, a);
        fill_chars(&mut s.cb, b);
        let max_len = s.ca.len().max(s.cb.len());
        if max_len == 0 {
            return 1.0;
        }
        let d = osa_dp(
            &s.ca,
            &s.cb,
            &mut s.row_prev2,
            &mut s.row_prev,
            &mut s.row_cur,
        );
        1.0 - d as f64 / max_len as f64
    }
}

/// Jaro over generic symbol slices: match flags and the matched-symbol list
/// are caller scratch; transpositions are counted by walking the flags
/// against the matched list instead of materializing `b`'s matches.
fn jaro_generic<T: PartialEq + Copy>(
    a: &[T],
    b: &[T],
    used: &mut Vec<bool>,
    matched: &mut Vec<T>,
) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    used.clear();
    used.resize(b.len(), false);
    matched.clear();
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for (j, u) in used.iter_mut().enumerate().take(hi).skip(lo) {
            if !*u && b[j] == ca {
                *u = true;
                matched.push(ca);
                break;
            }
        }
    }
    let m = matched.len();
    if m == 0 {
        return 0.0;
    }
    let mut transpositions = 0usize;
    let mut k = 0usize;
    for (j, &bc) in b.iter().enumerate() {
        if used[j] {
            if bc != matched[k] {
                transpositions += 1;
            }
            k += 1;
        }
    }
    let transpositions = transpositions / 2;
    let m = m as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
}

/// Bit-parallel Jaro for ASCII `b` of at most 64 bytes: the `peq` position
/// masks turn the per-character window scan into one AND plus a
/// trailing-zeros, and the match flags live in a single `u64`. Taking the
/// lowest available bit inside the window is exactly the generic kernel's
/// greedy first-unused scan, so matches, transpositions and the final
/// arithmetic are bit-identical to [`jaro_generic`].
fn jaro_ascii_64(a: &[u8], b: &[u8], peq: &mut [u64], matched: &mut Vec<u8>) -> f64 {
    debug_assert!(b.len() <= 64);
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    for (j, &c) in b.iter().enumerate() {
        peq[c as usize] |= 1u64 << j;
    }
    let ones = |n: usize| -> u64 {
        if n >= 64 {
            u64::MAX
        } else {
            (1u64 << n) - 1
        }
    };
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut used = 0u64;
    matched.clear();
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        let avail = peq[ca as usize] & (ones(hi) ^ ones(lo)) & !used;
        if avail != 0 {
            used |= avail & avail.wrapping_neg();
            matched.push(ca);
        }
    }
    for &c in b {
        peq[c as usize] = 0;
    }
    let m = matched.len();
    if m == 0 {
        return 0.0;
    }
    let mut transpositions = 0usize;
    let mut rest = used;
    let mut k = 0usize;
    while rest != 0 {
        let j = rest.trailing_zeros() as usize;
        rest &= rest - 1;
        if b[j] != matched[k] {
            transpositions += 1;
        }
        k += 1;
    }
    let transpositions = transpositions / 2;
    let m = m as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
}

fn jaro_inner(s: &mut Scratch, a: &str, b: &str) -> f64 {
    if a.is_ascii() && b.is_ascii() {
        s.ascii_calls += 1;
        if b.len() <= 64 {
            jaro_ascii_64(a.as_bytes(), b.as_bytes(), &mut s.peq, &mut s.mat_u8)
        } else {
            jaro_generic(a.as_bytes(), b.as_bytes(), &mut s.used, &mut s.mat_u8)
        }
    } else {
        s.unicode_calls += 1;
        fill_chars(&mut s.ca, a);
        fill_chars(&mut s.cb, b);
        jaro_generic(&s.ca, &s.cb, &mut s.used, &mut s.mat_char)
    }
}

/// The Jaro similarity between two strings, in `[0, 1]`.
pub fn jaro(a: &str, b: &str) -> f64 {
    SCRATCH.with(|cell| jaro_inner(&mut cell.borrow_mut(), a, b))
}

/// Shared prefix of up to four characters (the Winkler boost input).
fn winkler_prefix(a: &str, b: &str) -> usize {
    a.chars()
        .zip(b.chars())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count()
}

fn jaro_winkler_inner(s: &mut Scratch, a: &str, b: &str) -> f64 {
    let j = jaro_inner(s, a, b);
    let prefix = winkler_prefix(a, b);
    j + prefix as f64 * 0.1 * (1.0 - j)
}

/// The Jaro–Winkler similarity: Jaro boosted by a shared prefix of up to four
/// characters with the standard scaling factor 0.1.
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    SCRATCH.with(|cell| jaro_winkler_inner(&mut cell.borrow_mut(), a, b))
}

/// Bounded Jaccard kernel: tokenizes both sides into scratch, reduces to the
/// sorted distinct token sets, and — before the intersection merge — bails
/// with `None` when the distinct-count ratio (an upper bound on Jaccard,
/// since `|A∩B| ≤ min` and `|A∪B| ≥ max`) cannot reach `needed`.
fn jaccard_bounded_inner(s: &mut Scratch, a: &str, b: &str, needed: f64) -> Option<f64> {
    if a.is_ascii() && b.is_ascii() {
        s.ascii_calls += 1;
    } else {
        s.unicode_calls += 1;
    }
    s.ta.clear();
    words_into(a, &mut s.ta);
    s.tb.clear();
    words_into(b, &mut s.tb);
    if s.ta.is_empty() && s.tb.is_empty() {
        return Some(1.0);
    }
    let da = s.ta.sort_dedup_tokens();
    let db = s.tb.sort_dedup_tokens();
    if da == 0 || db == 0 {
        // One side tokenless: the intersection is empty, the union is not.
        return Some(0.0);
    }
    let bound = da.min(db) as f64 / da.max(db) as f64;
    if bound < needed - EARLY_ABANDON_MARGIN {
        return None;
    }
    let (mut i, mut j, mut inter) = (0usize, 0usize, 0usize);
    while i < da && j < db {
        match s.ta.token(i).cmp(s.tb.token(j)) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = da + db - inter;
    Some(inter as f64 / union as f64)
}

/// Jaccard similarity of the word-token sets of the two strings. Empty token
/// sets on both sides are treated as identical.
pub fn jaccard(a: &str, b: &str) -> f64 {
    SCRATCH.with(|cell| {
        jaccard_bounded_inner(&mut cell.borrow_mut(), a, b, NO_BOUND)
            .expect("unbounded jaccard never abandons")
    })
}

/// Builds the `#`-padded gram arena (ASCII bytes).
fn pad_ascii(normalized: &str, q: usize, out: &mut Vec<u8>) {
    out.clear();
    out.resize(q - 1, b'#');
    out.extend_from_slice(normalized.as_bytes());
    out.resize(out.len() + q - 1, b'#');
}

/// Builds the `#`-padded gram arena (Unicode chars).
fn pad_chars(normalized: &str, q: usize, out: &mut Vec<char>) {
    out.clear();
    out.resize(q - 1, '#');
    out.extend(normalized.chars());
    out.resize(out.len() + q - 1, '#');
}

/// Sorts the q-gram start positions of `buf` by gram content and collapses
/// them into `(start, count)` runs — the sorted frequency vector without a
/// hash map.
fn gram_runs<T: Ord>(buf: &[T], q: usize, idx: &mut Vec<u32>, runs: &mut Vec<(u32, u32)>) {
    let n = buf.len() + 1 - q;
    idx.clear();
    idx.extend(0..n as u32);
    idx.sort_unstable_by(|&x, &y| {
        buf[x as usize..x as usize + q].cmp(&buf[y as usize..y as usize + q])
    });
    runs.clear();
    let mut i = 0usize;
    while i < n {
        let g = idx[i] as usize;
        let mut j = i + 1;
        while j < n && buf[idx[j] as usize..idx[j] as usize + q] == buf[g..g + q] {
            j += 1;
        }
        runs.push((g as u32, (j - i) as u32));
        i = j;
    }
}

/// Cosine from two sorted `(start, count)` run lists: merge-join dot product
/// over integer-valued `f64`s — exactly the sums the hash-map reference
/// computes, in a deterministic order.
fn cosine_from_runs<T: Ord>(
    bufa: &[T],
    bufb: &[T],
    q: usize,
    runa: &[(u32, u32)],
    runb: &[(u32, u32)],
) -> f64 {
    // -0.0 is `Iterator::sum::<f64>()`'s fold identity: with zero common
    // grams the reference's `.sum()` yields -0.0, and the final `dot / denom`
    // must reproduce that bit pattern exactly.
    let mut dot = -0.0f64;
    let (mut i, mut j) = (0usize, 0usize);
    while i < runa.len() && j < runb.len() {
        let ga = &bufa[runa[i].0 as usize..runa[i].0 as usize + q];
        let gb = &bufb[runb[j].0 as usize..runb[j].0 as usize + q];
        match ga.cmp(gb) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                dot += f64::from(runa[i].1) * f64::from(runb[j].1);
                i += 1;
                j += 1;
            }
        }
    }
    let norm = |runs: &[(u32, u32)]| {
        runs.iter()
            .map(|&(_, c)| f64::from(c) * f64::from(c))
            .sum::<f64>()
            .sqrt()
    };
    let denom = norm(runa) * norm(runb);
    if denom == 0.0 {
        0.0
    } else {
        dot / denom
    }
}

fn qgram_inner(s: &mut Scratch, a: &str, b: &str, q: usize) -> f64 {
    let q = q.max(1);
    normalize_into(a, &mut s.na);
    normalize_into(b, &mut s.nb);
    // With padding, the gram list is empty exactly when the normalized
    // string is (for any q ≥ 1) — mirroring the reference construction.
    if s.na.is_empty() && s.nb.is_empty() {
        return 1.0;
    }
    if s.na.is_empty() || s.nb.is_empty() {
        return 0.0;
    }
    if s.na.is_ascii() && s.nb.is_ascii() {
        s.ascii_calls += 1;
        pad_ascii(&s.na, q, &mut s.gpa);
        pad_ascii(&s.nb, q, &mut s.gpb);
        gram_runs(&s.gpa, q, &mut s.idx, &mut s.runa);
        gram_runs(&s.gpb, q, &mut s.idx, &mut s.runb);
        cosine_from_runs(&s.gpa, &s.gpb, q, &s.runa, &s.runb)
    } else {
        s.unicode_calls += 1;
        pad_chars(&s.na, q, &mut s.gca);
        pad_chars(&s.nb, q, &mut s.gcb);
        gram_runs(&s.gca, q, &mut s.idx, &mut s.runa);
        gram_runs(&s.gcb, q, &mut s.idx, &mut s.runb);
        cosine_from_runs(&s.gca, &s.gcb, q, &s.runa, &s.runb)
    }
}

/// Cosine similarity of q-gram frequency vectors (default construction for
/// string similarity joins). Empty q-gram sets on both sides are identical.
pub fn qgram_cosine(a: &str, b: &str, q: usize) -> f64 {
    SCRATCH.with(|cell| qgram_inner(&mut cell.borrow_mut(), a, b, q))
}

/// Character counts of both strings: byte lengths on the ASCII path (no
/// scan), one counting pass otherwise.
fn char_lens(a: &str, b: &str) -> (usize, usize) {
    if a.is_ascii() && b.is_ascii() {
        (a.len(), b.len())
    } else {
        (a.chars().count(), b.chars().count())
    }
}

/// Upper bound on Jaro from the character counts alone: at most `min(la,lb)`
/// characters can match, so `jaro ≤ (1 + min/max + 1) / 3`.
fn jaro_upper_bound(la: usize, lb: usize) -> f64 {
    if la == 0 && lb == 0 {
        return 1.0;
    }
    if la == 0 || lb == 0 {
        return 0.0;
    }
    (2.0 + la.min(lb) as f64 / la.max(lb) as f64) / 3.0
}

/// A choice of similarity measure, selectable per column in a
/// [`crate::matcher::ColumnRule`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SimilarityMeasure {
    /// [`normalized_levenshtein`].
    Levenshtein,
    /// Normalized restricted Damerau–Levenshtein.
    DamerauLevenshtein,
    /// [`jaro`].
    Jaro,
    /// [`jaro_winkler`].
    JaroWinkler,
    /// [`jaccard`] over word tokens.
    Jaccard,
    /// [`qgram_cosine`] with the given `q`.
    QgramCosine(usize),
}

fn score_inner(measure: SimilarityMeasure, s: &mut Scratch, a: &str, b: &str) -> f64 {
    match measure {
        SimilarityMeasure::Levenshtein => normalized_lev_inner(s, a, b),
        SimilarityMeasure::DamerauLevenshtein => normalized_osa_inner(s, a, b),
        SimilarityMeasure::Jaro => jaro_inner(s, a, b),
        SimilarityMeasure::JaroWinkler => jaro_winkler_inner(s, a, b),
        SimilarityMeasure::Jaccard => {
            jaccard_bounded_inner(s, a, b, NO_BOUND).expect("unbounded jaccard never abandons")
        }
        SimilarityMeasure::QgramCosine(q) => qgram_inner(s, a, b, q),
    }
}

fn score_at_least_inner(
    measure: SimilarityMeasure,
    s: &mut Scratch,
    a: &str,
    b: &str,
    needed: f64,
) -> Option<f64> {
    if needed <= 0.0 {
        // Every measure is non-negative: no bound can exclude the pair.
        return Some(score_inner(measure, s, a, b));
    }
    match measure {
        SimilarityMeasure::Levenshtein | SimilarityMeasure::DamerauLevenshtein => {
            let (la, lb) = char_lens(a, b);
            let max_len = la.max(lb);
            let bound = if max_len == 0 {
                1.0
            } else {
                1.0 - la.abs_diff(lb) as f64 / max_len as f64
            };
            if bound < needed - EARLY_ABANDON_MARGIN {
                return None;
            }
            Some(score_inner(measure, s, a, b))
        }
        SimilarityMeasure::Jaro => {
            let (la, lb) = char_lens(a, b);
            if jaro_upper_bound(la, lb) < needed - EARLY_ABANDON_MARGIN {
                return None;
            }
            Some(jaro_inner(s, a, b))
        }
        SimilarityMeasure::JaroWinkler => {
            let (la, lb) = char_lens(a, b);
            let bj = jaro_upper_bound(la, lb);
            // jw(j, p) is increasing in both j and the shared prefix p.
            let bound = bj + winkler_prefix(a, b) as f64 * 0.1 * (1.0 - bj);
            if bound < needed - EARLY_ABANDON_MARGIN {
                return None;
            }
            Some(jaro_winkler_inner(s, a, b))
        }
        SimilarityMeasure::Jaccard => jaccard_bounded_inner(s, a, b, needed),
        SimilarityMeasure::QgramCosine(q) => {
            // Cheap emptiness gate: the normalized string is empty exactly
            // when the input is all whitespace, and one-sided emptiness
            // scores 0.
            let ea = a.chars().all(char::is_whitespace);
            let eb = b.chars().all(char::is_whitespace);
            if ea != eb {
                if 0.0 < needed - EARLY_ABANDON_MARGIN {
                    return None;
                }
                return Some(0.0);
            }
            Some(qgram_inner(s, a, b, q))
        }
    }
}

impl SimilarityMeasure {
    /// Evaluates the measure on two strings, returning a score in `[0, 1]`.
    pub fn score(&self, a: &str, b: &str) -> f64 {
        SCRATCH.with(|cell| score_inner(*self, &mut cell.borrow_mut(), a, b))
    }

    /// Threshold-aware scoring: returns the exact score (bitwise identical
    /// to [`SimilarityMeasure::score`]) unless a cheap per-measure upper
    /// bound proves the score cannot reach `needed`, in which case the
    /// expensive kernel is skipped and `None` is returned.
    ///
    /// `None` is only returned when the exact score is *provably* below
    /// `needed` (by more than [`EARLY_ABANDON_MARGIN`]), so callers that only
    /// compare against a threshold get decisions identical to exact scoring.
    /// Callers that need the score itself must use
    /// [`SimilarityMeasure::score`].
    pub fn score_at_least(&self, a: &str, b: &str, needed: f64) -> Option<f64> {
        SCRATCH.with(|cell| score_at_least_inner(*self, &mut cell.borrow_mut(), a, b, needed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levenshtein_matches_known_values() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("same", "same"), 0);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
    }

    #[test]
    fn levenshtein_long_strings_hit_the_blocked_kernel() {
        // Patterns beyond 64 bytes exercise the multi-word Myers path; the
        // affix trim must not hide it, so the strings differ at both ends.
        let a = format!("x{}y", "a".repeat(100));
        let b = format!("z{}w", "a".repeat(90));
        assert_eq!(levenshtein(&a, &b), crate::reference::levenshtein(&a, &b));
        let a = "ab".repeat(70);
        let b = "ba".repeat(70);
        assert_eq!(levenshtein(&a, &b), crate::reference::levenshtein(&a, &b));
    }

    #[test]
    fn levenshtein_unicode_falls_back_correctly() {
        assert_eq!(levenshtein("café", "cafe"), 1);
        assert_eq!(levenshtein("日本語", "日本"), 1);
        assert_eq!(levenshtein("naïve", "naive"), 1);
        assert_eq!(
            levenshtein("żółć", "zolc"),
            crate::reference::levenshtein("żółć", "zolc")
        );
    }

    #[test]
    fn damerau_counts_transpositions_as_one_edit() {
        assert_eq!(levenshtein("ca", "ac"), 2);
        assert_eq!(damerau_levenshtein("ca", "ac"), 1);
        assert_eq!(damerau_levenshtein("Street", "Stret"), 1);
        assert_eq!(damerau_levenshtein("", "ab"), 2);
        assert_eq!(damerau_levenshtein("abc", "abc"), 0);
    }

    #[test]
    fn damerau_is_never_larger_than_levenshtein() {
        let cases = [
            ("kitten", "sitting"),
            ("Mary Lee", "Lee, Mary"),
            ("9th", "9"),
        ];
        for (a, b) in cases {
            assert!(damerau_levenshtein(a, b) <= levenshtein(a, b), "{a} vs {b}");
        }
    }

    #[test]
    fn normalized_levenshtein_bounds() {
        assert_eq!(normalized_levenshtein("", ""), 1.0);
        assert_eq!(normalized_levenshtein("abc", "abc"), 1.0);
        assert_eq!(normalized_levenshtein("abc", "xyz"), 0.0);
        let s = normalized_levenshtein("Mary Lee", "M. Lee");
        assert!(s > 0.0 && s < 1.0);
    }

    #[test]
    fn jaro_known_values() {
        assert!((jaro("MARTHA", "MARHTA") - 0.944444).abs() < 1e-4);
        assert!((jaro("DIXON", "DICKSONX") - 0.766667).abs() < 1e-4);
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro("a", ""), 0.0);
        assert_eq!(jaro("abc", "abc"), 1.0);
        assert_eq!(jaro("abc", "xyz"), 0.0);
    }

    #[test]
    fn jaro_winkler_boosts_shared_prefixes() {
        let j = jaro("MARTHA", "MARHTA");
        let jw = jaro_winkler("MARTHA", "MARHTA");
        assert!(jw > j);
        assert!((jw - 0.961111).abs() < 1e-4);
        // No shared prefix: no boost.
        assert_eq!(jaro_winkler("abc", "xbc"), jaro("abc", "xbc"));
    }

    #[test]
    fn jaccard_over_word_tokens_ignores_order_and_punctuation() {
        assert_eq!(jaccard("Mary Lee", "Lee, Mary"), 1.0);
        assert_eq!(jaccard("", ""), 1.0);
        assert_eq!(jaccard("a b", "c d"), 0.0);
        let s = jaccard("9th Street, 02141 WI", "9th St, 02141 WI");
        assert!(s > 0.4 && s < 1.0);
    }

    #[test]
    fn qgram_cosine_behaves() {
        assert_eq!(qgram_cosine("", "", 3), 1.0);
        assert_eq!(qgram_cosine("abc", "", 3), 0.0);
        assert!((qgram_cosine("abc", "abc", 2) - 1.0).abs() < 1e-12);
        let close = qgram_cosine("Avenue", "Avenu", 2);
        let far = qgram_cosine("Avenue", "Street", 2);
        assert!(close > far);
    }

    #[test]
    fn measure_enum_dispatches() {
        for m in [
            SimilarityMeasure::Levenshtein,
            SimilarityMeasure::DamerauLevenshtein,
            SimilarityMeasure::Jaro,
            SimilarityMeasure::JaroWinkler,
            SimilarityMeasure::Jaccard,
            SimilarityMeasure::QgramCosine(2),
        ] {
            assert!(
                (m.score("Mary Lee", "Mary Lee") - 1.0).abs() < 1e-12,
                "{m:?}"
            );
            let s = m.score("Mary Lee", "totally different");
            assert!((0.0..1.0).contains(&s), "{m:?} gave {s}");
        }
    }

    #[test]
    fn kernels_match_the_reference_bitwise_on_spot_checks() {
        let cases = [
            ("Mary Lee", "Lee, Mary"),
            ("9th Street, 02141 WI", "9 St, 02141 Wisconsin"),
            ("", "nonempty"),
            ("same", "same"),
            ("Ünïcode tøkens", "Unicode tokens"),
            ("日本語のテキスト", "日本語テキスト"),
        ];
        for (a, b) in cases {
            assert_eq!(levenshtein(a, b), crate::reference::levenshtein(a, b));
            assert_eq!(
                damerau_levenshtein(a, b),
                crate::reference::damerau_levenshtein(a, b)
            );
            for m in [
                SimilarityMeasure::Levenshtein,
                SimilarityMeasure::DamerauLevenshtein,
                SimilarityMeasure::Jaro,
                SimilarityMeasure::JaroWinkler,
                SimilarityMeasure::Jaccard,
                SimilarityMeasure::QgramCosine(1),
                SimilarityMeasure::QgramCosine(2),
                SimilarityMeasure::QgramCosine(3),
            ] {
                assert_eq!(
                    m.score(a, b).to_bits(),
                    crate::reference::score(m, a, b).to_bits(),
                    "{m:?} on {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn score_at_least_returns_exact_scores_or_sound_abandons() {
        let cases = [
            ("Mary Lee", "Lee, Mary"),
            ("completely", "different words here"),
            ("a", "abcdefghijklmnop"),
            ("", ""),
            ("", "x"),
        ];
        for m in [
            SimilarityMeasure::Levenshtein,
            SimilarityMeasure::DamerauLevenshtein,
            SimilarityMeasure::Jaro,
            SimilarityMeasure::JaroWinkler,
            SimilarityMeasure::Jaccard,
            SimilarityMeasure::QgramCosine(2),
        ] {
            for (a, b) in cases {
                let exact = m.score(a, b);
                for needed in [0.0, 0.25, 0.5, 0.75, 0.9, 1.0] {
                    match m.score_at_least(a, b, needed) {
                        Some(s) => assert_eq!(
                            s.to_bits(),
                            exact.to_bits(),
                            "{m:?} {a:?}/{b:?} needed {needed}"
                        ),
                        None => assert!(
                            exact < needed,
                            "{m:?} abandoned {a:?}/{b:?} at {needed} but exact is {exact}"
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn abandons_actually_happen_on_length_skewed_pairs() {
        // A 1-char vs 40-char pair can't reach 0.9 normalized Levenshtein.
        let m = SimilarityMeasure::Levenshtein;
        assert!(m.score_at_least("x", &"y".repeat(40), 0.9).is_none());
        // Token-count skew: 1 token vs 6 tokens can't reach Jaccard 0.8.
        let m = SimilarityMeasure::Jaccard;
        assert!(m.score_at_least("one", "a b c d e f", 0.8).is_none());
    }

    #[test]
    fn kernel_path_counters_track_ascii_and_unicode() {
        let _ = take_kernel_path_counts();
        let _ = levenshtein("ascii only", "ascii still");
        let _ = jaro("café", "cafe");
        let (ascii, unicode) = take_kernel_path_counts();
        assert!(ascii >= 1, "ascii path not counted");
        assert!(unicode >= 1, "unicode path not counted");
        let (a2, u2) = take_kernel_path_counts();
        assert_eq!((a2, u2), (0, 0), "drain resets");
    }
}
