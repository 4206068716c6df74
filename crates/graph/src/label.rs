//! Label interning.
//!
//! Edge labels of transformation graphs are string functions. The same
//! function (e.g. `SubStr(MatchPos(TC,1,B), MatchPos(Tl,1,E))` or
//! `ConstantStr("St")`) appears on edges of many graphs, and the pivot-path
//! search compares paths and intersects inverted lists keyed by labels. To
//! make those operations cheap, string functions are hash-consed into dense
//! [`LabelId`]s by a [`LabelInterner`] that is shared by all graphs built for
//! one collection of candidate replacements.

use ec_dsl::{Dir, PositionFn, StringFn, Term};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// Most position functions one interner numbers for its dense `SubStr`
/// table. The table holds one `u32` per ordered pair of numbered functions,
/// so it never exceeds `POSITION_BOUND² × 4` bytes (256 KiB); `SubStr`
/// labels over a function past the bound intern through the hashed table.
pub(crate) const POSITION_BOUND: usize = 256;

/// The multiplier of the word mix (FxHash's).
const MIX: u64 = 0x517c_c1b7_2722_0a95;

/// Folds one word into a running hash. The interner's keys are a handful of
/// small integers or a short text, so they are mixed a word at a time and
/// scrambled once by [`finish`], instead of byte by byte. Hash flooding is
/// not a concern: keys derive from the dataset being consolidated, and
/// equality is always confirmed on the key itself.
fn mix(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(MIX)
}

/// Folds `bytes` into `h` eight at a time (little-endian, the last word
/// zero-padded), after their length.
fn mix_bytes(h: u64, bytes: &[u8]) -> u64 {
    let mut h = mix(h, bytes.len() as u64);
    for chunk in bytes.chunks(8) {
        let word = chunk
            .iter()
            .rev()
            .fold(0, |word, &b| word << 8 | u64::from(b));
        h = mix(h, word);
    }
    h
}

/// MurmurHash3's 64-bit finalizer: spreads every input bit over the low
/// bits that pick a table slot.
fn finish(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

fn mix_term(h: u64, term: &Term) -> u64 {
    match term {
        Term::Upper => mix(h, 0),
        Term::Lower => mix(h, 1),
        Term::Digits => mix(h, 2),
        Term::Whitespace => mix(h, 3),
        Term::Literal(text) => mix_bytes(mix(h, 4), text.as_bytes()),
    }
}

fn mix_position(h: u64, p: &PositionFn) -> u64 {
    match p {
        PositionFn::ConstPos(k) => mix(h, u64::from(*k as u32)),
        PositionFn::MatchPos { term, k, dir } => {
            let word = 1 << 33 | (matches!(dir, Dir::End) as u64) << 32 | u64::from(*k as u32);
            mix(mix_term(h, term), word)
        }
    }
}

/// The interner's hash of `ConstantStr(text)`, computable without building
/// the function.
fn constant_hash(text: &str) -> u32 {
    finish(mix_bytes(0, text.as_bytes())) as u32
}

/// The interner's hash of a string function.
fn fn_hash(f: &StringFn) -> u32 {
    let h = match f {
        StringFn::ConstantStr(text) => return constant_hash(text),
        StringFn::SubStr(l, r) => mix_position(mix_position(1, l), r),
        StringFn::Prefix { term, k } => mix(mix_term(2, term), u64::from(*k as u32)),
        StringFn::Suffix { term, k } => mix(mix_term(3, term), u64::from(*k as u32)),
    };
    finish(h) as u32
}

/// [`mix`] and [`finish`] as a [`Hasher`], for the position-id map.
#[derive(Debug, Default, Clone)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.0 = mix_bytes(self.0, bytes);
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = mix(self.0, u64::from(n));
    }

    fn write_usize(&mut self, n: usize) {
        self.0 = mix(self.0, n as u64);
    }

    fn finish(&self) -> u64 {
        finish(self.0)
    }
}

#[derive(Debug, Default, Clone)]
struct WordBuild;

impl BuildHasher for WordBuild {
    type Hasher = WordHasher;

    fn build_hasher(&self) -> WordHasher {
        WordHasher::default()
    }
}

/// A dense identifier for an interned string function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LabelId(pub u32);

impl LabelId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A hash-consing table mapping string functions to dense [`LabelId`]s.
///
/// The functions live once, in id order; an open-addressed table of ids,
/// probed linearly, finds a function by its hash, so a lookup or an
/// insertion hashes the function once. Constants probe the same table by
/// their text, without building a [`StringFn`].
///
/// The graph builder also reaches `SubStr` labels through a side index that
/// needs no `StringFn` to probe: the interner numbers the position functions
/// it is shown (at most 256 of them), and a dense table maps
/// each ordered pair of numbers to the `SubStr` label over that pair. The
/// side index is filled lazily — a miss falls through to
/// [`LabelInterner::intern`] and records the id it returns — so ids are
/// assigned in exactly the order plain interning would assign them, and an
/// interner assembled by [`LabelInterner::from_ordered`] starts with an
/// empty side index at no cost.
#[derive(Debug, Default, Clone)]
pub struct LabelInterner {
    by_id: Vec<StringFn>,
    /// A power-of-two table, at most half full: each used slot holds the
    /// function's 32-bit hash in its high half and `id + 1` in its low half;
    /// 0 marks an empty slot.
    slots: Vec<u64>,
    /// The builder's position-function numbering (side index).
    position_ids: HashMap<PositionFn, u32, WordBuild>,
    /// `pairs[l * pairs_dim + r]` is `id + 1` of `SubStr` over the position
    /// functions numbered `l` and `r`, or 0 when not seen yet (side index).
    pairs: Vec<u32>,
    pairs_dim: usize,
}

impl LabelInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reassembles an interner from functions listed in id order — the
    /// artifact-load path, which knows every label up front and sizes the
    /// table once. Returns `None` if `fns` contains a duplicate.
    pub fn from_ordered(fns: Vec<StringFn>) -> Option<Self> {
        let mut interner = LabelInterner {
            by_id: Vec::with_capacity(fns.len()),
            ..Self::default()
        };
        interner.resize((fns.len() * 2).next_power_of_two().max(16));
        for f in fns {
            let hash = fn_hash(&f);
            let slot = interner.probe(hash, |g| *g == f).err()?;
            interner.insert_at(slot, hash, f);
        }
        Some(interner)
    }

    /// Interns `f`, returning its id (existing or freshly assigned).
    pub fn intern(&mut self, f: StringFn) -> LabelId {
        self.reserve_one();
        let hash = fn_hash(&f);
        match self.probe(hash, |g| *g == f) {
            Ok(id) => id,
            Err(slot) => self.insert_at(slot, hash, f),
        }
    }

    /// Interns `ConstantStr(text)`, allocating only when `text` is new.
    pub(crate) fn intern_constant(&mut self, text: &str) -> LabelId {
        self.reserve_one();
        let hash = constant_hash(text);
        match self.probe(
            hash,
            |g| matches!(g, StringFn::ConstantStr(c) if **c == *text),
        ) {
            Ok(id) => id,
            Err(slot) => self.insert_at(slot, hash, StringFn::constant(text)),
        }
    }

    /// The side index's number for position function `p`, assigned on first
    /// sight; `None` once [`POSITION_BOUND`] functions are numbered.
    pub(crate) fn position_id(&mut self, p: &PositionFn) -> Option<u32> {
        if let Some(&id) = self.position_ids.get(p) {
            return Some(id);
        }
        let id = self.position_ids.len();
        (id < POSITION_BOUND).then(|| {
            self.position_ids.insert(p.clone(), id as u32);
            id as u32
        })
    }

    /// Interns `SubStr` over the position functions numbered `left` and
    /// `right` by [`LabelInterner::position_id`], building it with `make`
    /// only when the side index has not seen the pair.
    pub(crate) fn intern_pair(
        &mut self,
        left: u32,
        right: u32,
        make: impl FnOnce() -> StringFn,
    ) -> LabelId {
        let (left, right) = (left as usize, right as usize);
        if left.max(right) >= self.pairs_dim {
            self.grow_pairs(left.max(right) + 1);
        }
        let slot = left * self.pairs_dim + right;
        match self.pairs[slot] {
            0 => {
                let id = self.intern(make());
                self.pairs[slot] = id.0 + 1;
                id
            }
            known => LabelId(known - 1),
        }
    }

    /// Widens the pair table to at least `dim` numbers per side, doubling so
    /// that a build re-lays it out O(log [`POSITION_BOUND`]) times.
    fn grow_pairs(&mut self, dim: usize) {
        let dim = dim.next_power_of_two().clamp(16, POSITION_BOUND);
        let old = self.pairs_dim;
        let mut pairs = vec![0u32; dim * dim];
        for (row, known) in self.pairs.chunks_exact(old.max(1)).enumerate() {
            pairs[row * dim..row * dim + old].copy_from_slice(known);
        }
        self.pairs = pairs;
        self.pairs_dim = dim;
    }

    /// Frees the graph builder's side index. Ids are unaffected and the
    /// index refills lazily on the next build, so a holder that keeps the
    /// interner only to resolve ids can drop it after building.
    pub fn release_side_indexes(&mut self) {
        self.position_ids = HashMap::default();
        self.pairs = Vec::new();
        self.pairs_dim = 0;
    }

    /// Looks up an already-interned function without inserting.
    pub fn get(&self, f: &StringFn) -> Option<LabelId> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(fn_hash(f), |g| g == f).ok()
    }

    /// The id of the function with hash `hash` that `eq` accepts, or the
    /// empty slot where it would go. The table must have an empty slot.
    fn probe(&self, hash: u32, eq: impl Fn(&StringFn) -> bool) -> Result<LabelId, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            let entry = self.slots[slot];
            if entry == 0 {
                return Err(slot);
            }
            if (entry >> 32) as u32 == hash {
                let id = LabelId(entry as u32 - 1);
                if eq(&self.by_id[id.index()]) {
                    return Ok(id);
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Appends `f` as the next id, at the empty `slot` [`Self::probe`] found.
    fn insert_at(&mut self, slot: usize, hash: u32, f: StringFn) -> LabelId {
        let id = LabelId(self.by_id.len() as u32);
        self.slots[slot] = u64::from(hash) << 32 | u64::from(id.0 + 1);
        self.by_id.push(f);
        id
    }

    /// Keeps the table at most half full after one more insertion.
    fn reserve_one(&mut self) {
        if (self.by_id.len() + 1) * 2 > self.slots.len() {
            self.resize((self.slots.len() * 2).max(16));
        }
    }

    /// Re-slots every id into a table of `len` slots (a power of two). The
    /// stored hashes place them without rehashing a function.
    fn resize(&mut self, len: usize) {
        let old = std::mem::replace(&mut self.slots, vec![0; len]);
        let mask = len - 1;
        for entry in old.into_iter().filter(|&e| e != 0) {
            let mut slot = (entry >> 32) as usize & mask;
            while self.slots[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = entry;
        }
    }

    /// Resolves an id back to its string function.
    ///
    /// # Panics
    /// Panics if the id was not produced by this interner.
    pub fn resolve(&self, id: LabelId) -> &StringFn {
        &self.by_id[id.index()]
    }

    /// Number of distinct labels interned so far.
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    /// Iterates over all interned `(id, function)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (LabelId, &StringFn)> {
        self.by_id
            .iter()
            .enumerate()
            .map(|(i, f)| (LabelId(i as u32), f))
    }
}

/// The label set of one edge.
///
/// Almost three quarters of real edges carry a single label and most of the
/// rest only a handful, while artifact loads and graph builds materialize
/// hundreds of thousands of edges — one heap allocation per edge dominated
/// those paths. Lists of up to [`LabelList::INLINE`] ids therefore live
/// inline (at no size cost: the inline variant is no larger than a spilled
/// `Vec`), and longer lists spill to the heap. The representation is
/// private; the type dereferences to `[LabelId]` everywhere it is read.
#[derive(Debug, Clone)]
pub struct LabelList(Repr);

#[derive(Debug, Clone)]
enum Repr {
    Inline(u8, [LabelId; LabelList::INLINE]),
    Heap(Vec<LabelId>),
}

impl LabelList {
    /// Longest list stored without a heap allocation.
    pub const INLINE: usize = 6;

    /// An empty list.
    pub fn new() -> Self {
        LabelList(Repr::Inline(0, [LabelId(0); Self::INLINE]))
    }

    /// An empty list with room for `n` labels, taking its one heap
    /// allocation up front when `n` exceeds the inline capacity.
    pub fn with_capacity(n: usize) -> Self {
        if n <= Self::INLINE {
            Self::new()
        } else {
            LabelList(Repr::Heap(Vec::with_capacity(n)))
        }
    }

    /// Appends `label`, spilling to the heap when the inline buffer is full.
    pub fn push(&mut self, label: LabelId) {
        match &mut self.0 {
            Repr::Inline(len, buf) => {
                if (*len as usize) < Self::INLINE {
                    buf[*len as usize] = label;
                    *len += 1;
                } else {
                    let mut spilled = Vec::with_capacity(Self::INLINE * 2);
                    spilled.extend_from_slice(&buf[..]);
                    spilled.push(label);
                    self.0 = Repr::Heap(spilled);
                }
            }
            Repr::Heap(v) => v.push(label),
        }
    }

    fn as_slice(&self) -> &[LabelId] {
        match &self.0 {
            Repr::Inline(len, buf) => &buf[..*len as usize],
            Repr::Heap(v) => v,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [LabelId] {
        match &mut self.0 {
            Repr::Inline(len, buf) => &mut buf[..*len as usize],
            Repr::Heap(v) => v,
        }
    }
}

impl Extend<LabelId> for LabelList {
    fn extend<I: IntoIterator<Item = LabelId>>(&mut self, iter: I) {
        match &mut self.0 {
            // Heap lists take `Vec::extend`'s specialized bulk path; inline
            // lists push one by one (at most INLINE items before a spill).
            Repr::Heap(v) => v.extend(iter),
            Repr::Inline(..) => {
                for label in iter {
                    self.push(label);
                }
            }
        }
    }
}

impl Default for LabelList {
    fn default() -> Self {
        Self::new()
    }
}

impl From<Vec<LabelId>> for LabelList {
    fn from(v: Vec<LabelId>) -> Self {
        if v.len() <= Self::INLINE {
            let mut list = LabelList::new();
            for &l in &v {
                list.push(l);
            }
            list
        } else {
            LabelList(Repr::Heap(v))
        }
    }
}

impl From<&[LabelId]> for LabelList {
    /// Copies `labels`, taking one exactly sized heap allocation when they
    /// do not fit inline.
    fn from(labels: &[LabelId]) -> Self {
        if labels.len() > Self::INLINE {
            return LabelList(Repr::Heap(labels.to_vec()));
        }
        let mut buf = [LabelId(0); Self::INLINE];
        for (slot, &label) in buf.iter_mut().zip(labels) {
            *slot = label;
        }
        LabelList(Repr::Inline(labels.len() as u8, buf))
    }
}

impl std::ops::Deref for LabelList {
    type Target = [LabelId];

    fn deref(&self) -> &[LabelId] {
        self.as_slice()
    }
}

impl std::ops::DerefMut for LabelList {
    fn deref_mut(&mut self) -> &mut [LabelId] {
        self.as_mut_slice()
    }
}

impl PartialEq for LabelList {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for LabelList {}

impl<'a> IntoIterator for &'a LabelList {
    type Item = &'a LabelId;
    type IntoIter = std::slice::Iter<'a, LabelId>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<'a> IntoIterator for &'a mut LabelList {
    type Item = &'a mut LabelId;
    type IntoIter = std::slice::IterMut<'a, LabelId>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_mut_slice().iter_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_build;
    use crate::{GraphBuilder, GraphConfig, Replacement};

    #[test]
    fn interning_is_idempotent() {
        let mut interner = LabelInterner::new();
        let f = StringFn::constant("St");
        let a = interner.intern(f.clone());
        let b = interner.intern(f.clone());
        assert_eq!(a, b);
        assert_eq!(interner.len(), 1);
        assert_eq!(interner.resolve(a), &f);
    }

    #[test]
    fn distinct_functions_get_distinct_ids() {
        let mut interner = LabelInterner::new();
        let a = interner.intern(StringFn::constant("a"));
        let b = interner.intern(StringFn::constant("b"));
        let c = interner.intern(StringFn::sub_str(
            PositionFn::match_pos(Term::Upper, 1, Dir::Begin),
            PositionFn::match_pos(Term::Upper, 1, Dir::End),
        ));
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_eq!(interner.len(), 3);
    }

    #[test]
    fn get_does_not_insert() {
        let mut interner = LabelInterner::new();
        assert!(interner.get(&StringFn::constant("x")).is_none());
        assert!(interner.is_empty());
        let id = interner.intern(StringFn::constant("x"));
        assert_eq!(interner.get(&StringFn::constant("x")), Some(id));
    }

    #[test]
    fn from_ordered_matches_interning_and_rejects_duplicates() {
        let fns = vec![
            StringFn::constant("a"),
            StringFn::constant("b"),
            StringFn::sub_str(
                PositionFn::match_pos(Term::Upper, 1, Dir::Begin),
                PositionFn::match_pos(Term::Upper, 1, Dir::End),
            ),
        ];
        let interner = LabelInterner::from_ordered(fns.clone()).unwrap();
        assert_eq!(interner.len(), fns.len());
        for (i, f) in fns.iter().enumerate() {
            assert_eq!(interner.get(f), Some(LabelId(i as u32)));
            assert_eq!(interner.resolve(LabelId(i as u32)), f);
        }

        let dup = vec![
            StringFn::constant("a"),
            StringFn::constant("b"),
            StringFn::constant("a"),
        ];
        assert!(LabelInterner::from_ordered(dup).is_none());
    }

    #[test]
    fn label_list_spills_like_a_vec() {
        // Stays inline through INLINE pushes, spills on the next one, and
        // always reads back like the equivalent Vec.
        let mut list = LabelList::new();
        let mut reference = Vec::new();
        for i in 0..(LabelList::INLINE as u32 + 3) {
            list.push(LabelId(i));
            reference.push(LabelId(i));
            assert_eq!(&list[..], &reference[..]);
            assert_eq!(list, LabelList::from(reference.clone()));
            assert_eq!(list, LabelList::from(&reference[..]));
        }

        let mut inline = LabelList::from(&[LabelId(7), LabelId(3)][..]);
        for l in inline.iter_mut() {
            *l = LabelId(l.0 + 1);
        }
        assert_eq!(&inline[..], &[LabelId(8), LabelId(4)]);
        assert!(LabelList::with_capacity(64).is_empty());
    }

    /// Builds `reps` with the builder against one interner, and with the
    /// reference builder against another, calling `after_each` on the
    /// builder's interner after every graph; asserts equal graphs and
    /// interner order.
    fn assert_matches_reference(
        reps: &[Replacement],
        mut after_each: impl FnMut(&mut LabelInterner),
    ) -> LabelInterner {
        let config = GraphConfig::default();
        let mut builder = GraphBuilder::new(config.clone());
        let (mut fast, mut slow) = (LabelInterner::new(), LabelInterner::new());
        for r in reps {
            let got = builder.build(r, &mut fast).expect("graph");
            after_each(&mut fast);
            let want = reference_build(&config, r, &mut slow).expect("graph");
            assert_eq!(got.edges(), want.edges(), "{r}");
        }
        let order = |i: &LabelInterner| i.iter().map(|(_, f)| f.clone()).collect::<Vec<_>>();
        assert_eq!(order(&fast), order(&slow), "interner order");
        fast
    }

    #[test]
    fn substr_labels_past_the_position_bound_intern_by_value() {
        // 90 class matches give 360 position functions (two ordinals and two
        // directions each), more than the pair table numbers.
        let lhs = "a1 ".repeat(30);
        let reps = [
            Replacement::new(&lhs, "a1 a1"),
            Replacement::new(&lhs, " 1a1"),
        ];
        let interner = assert_matches_reference(&reps, |_| {});
        assert_eq!(interner.position_ids.len(), POSITION_BOUND);
        assert_eq!(interner.pairs.len(), POSITION_BOUND * POSITION_BOUND);
        let numbered = |p: &PositionFn| interner.position_ids.contains_key(p);
        let past_bound = interner
            .iter()
            .filter(|(_, f)| matches!(f, StringFn::SubStr(l, r) if !numbered(l) || !numbered(r)))
            .count();
        assert!(past_bound > 0, "some SubStr label interned by value");
    }

    #[test]
    fn released_side_index_is_freed_and_refills_with_equal_ids() {
        let reps = [
            Replacement::new("Lee, Mary", "M. Lee"),
            Replacement::new("Smith, James", "J. Smith"),
            Replacement::new("Lee, Mary", "Mary Lee"),
            Replacement::new("Zürich Straße", "Straße Zürich"),
        ];
        // Release after every graph: the next build renumbers position
        // functions from scratch, and still interns exactly the reference ids.
        assert_matches_reference(&reps, |interner| {
            assert!(interner.pairs_dim > 0, "the pair table was used");
            interner.release_side_indexes();
            assert!(interner.position_ids.is_empty());
            assert_eq!(interner.position_ids.capacity(), 0);
            assert_eq!(interner.pairs.capacity(), 0);
            assert_eq!(interner.pairs_dim, 0);
        });
    }

    #[test]
    fn iter_yields_all_labels_in_id_order() {
        let mut interner = LabelInterner::new();
        let ids: Vec<LabelId> = ["a", "b", "c"]
            .iter()
            .map(|s| interner.intern(StringFn::constant(*s)))
            .collect();
        let collected: Vec<LabelId> = interner.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, collected);
    }
}
