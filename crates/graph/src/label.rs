//! Label interning.
//!
//! Edge labels of transformation graphs are string functions. The same
//! function (e.g. `SubStr(MatchPos(TC,1,B), MatchPos(Tl,1,E))` or
//! `ConstantStr("St")`) appears on edges of many graphs, and the pivot-path
//! search compares paths and intersects inverted lists keyed by labels. To
//! make those operations cheap, string functions are hash-consed into dense
//! [`LabelId`]s by a [`LabelInterner`] that is shared by all graphs built for
//! one collection of candidate replacements.

use ec_dsl::StringFn;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::Arc;

/// FNV-1a 64 as the interner's hasher. The label map sees hundreds of
/// thousands of small structural keys on both the graph-build and the
/// artifact-load path, where SipHash's per-key setup cost dominates the
/// actual mixing. Hash flooding is not a concern here: keys derive from the
/// dataset being consolidated, not from input crafted against this map.
#[derive(Debug, Clone)]
struct Fnv1a(u64);

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[derive(Debug, Default, Clone)]
struct FnvBuild;

impl BuildHasher for FnvBuild {
    type Hasher = Fnv1a;

    fn build_hasher(&self) -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
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
/// Besides the map keyed by [`StringFn`], the graph builder reaches labels
/// through two side indexes that need no `StringFn` to probe: one keyed by
/// the builder's integer packing of a `SubStr`/`Prefix`/`Suffix` label, one
/// keyed by a constant's text. Both are filled lazily — a miss falls through
/// to [`LabelInterner::intern`] and records the id it returns — so ids are
/// assigned in exactly the order plain interning would assign them, and an
/// interner assembled by [`LabelInterner::from_ordered`] starts with empty
/// side indexes at no cost.
#[derive(Debug, Default, Clone)]
pub struct LabelInterner {
    by_fn: HashMap<StringFn, LabelId, FnvBuild>,
    by_id: Vec<StringFn>,
    by_key: HashMap<u64, LabelId, FnvBuild>,
    by_constant: HashMap<Arc<str>, LabelId, FnvBuild>,
}

impl LabelInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reassembles an interner from functions listed in id order — the
    /// artifact-load path, which knows every label up front and would
    /// otherwise pay one incrementally-growing map insertion per label.
    /// Returns `None` if `fns` contains a duplicate.
    pub fn from_ordered(fns: Vec<StringFn>) -> Option<Self> {
        let mut by_fn = HashMap::with_capacity_and_hasher(fns.len(), FnvBuild);
        for (i, f) in fns.iter().enumerate() {
            if by_fn.insert(f.clone(), LabelId(i as u32)).is_some() {
                return None;
            }
        }
        Some(LabelInterner {
            by_fn,
            by_id: fns,
            ..Self::default()
        })
    }

    /// Interns `f`, returning its id (existing or freshly assigned).
    pub fn intern(&mut self, f: StringFn) -> LabelId {
        if let Some(&id) = self.by_fn.get(&f) {
            return id;
        }
        let id = LabelId(self.by_id.len() as u32);
        self.by_id.push(f.clone());
        self.by_fn.insert(f, id);
        id
    }

    /// Interns the function the graph builder packs into `key`, building it
    /// with `make` only when the side index has not seen the key. The
    /// packing is private to the builder, which is what keeps keys unique.
    pub(crate) fn intern_keyed(&mut self, key: u64, make: impl FnOnce() -> StringFn) -> LabelId {
        if let Some(&id) = self.by_key.get(&key) {
            return id;
        }
        let id = self.intern(make());
        self.by_key.insert(key, id);
        id
    }

    /// Interns `ConstantStr(text)`, allocating only when the side index has
    /// not seen `text`.
    pub(crate) fn intern_constant(&mut self, text: &str) -> LabelId {
        if let Some(&id) = self.by_constant.get(text) {
            return id;
        }
        let id = self.intern(StringFn::constant(text));
        let StringFn::ConstantStr(shared) = self.resolve(id) else {
            unreachable!("a constant interns as ConstantStr")
        };
        self.by_constant.insert(Arc::clone(shared), id);
        id
    }

    /// Frees the graph builder's side indexes. Ids are unaffected and the
    /// indexes refill lazily on the next build, so a holder that keeps the
    /// interner only to resolve ids can drop them after building.
    pub fn release_side_indexes(&mut self) {
        self.by_key = HashMap::default();
        self.by_constant = HashMap::default();
    }

    /// Looks up an already-interned function without inserting.
    pub fn get(&self, f: &StringFn) -> Option<LabelId> {
        self.by_fn.get(f).copied()
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

    /// Drops adjacent duplicates, like [`Vec::dedup`].
    pub fn dedup(&mut self) {
        match &mut self.0 {
            Repr::Inline(len, buf) => {
                let mut kept = 0usize;
                for i in 0..*len as usize {
                    if kept == 0 || buf[kept - 1] != buf[i] {
                        buf[kept] = buf[i];
                        kept += 1;
                    }
                }
                *len = kept as u8;
            }
            Repr::Heap(v) => v.dedup(),
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
    use ec_dsl::{Dir, PositionFn, Term};

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
    fn label_list_spills_and_dedups_like_a_vec() {
        // Stays inline through INLINE pushes, spills on the next one, and
        // always reads back like the equivalent Vec.
        let mut list = LabelList::new();
        let mut reference = Vec::new();
        for i in 0..(LabelList::INLINE as u32 + 3) {
            list.push(LabelId(i / 2)); // adjacent duplicates
            reference.push(LabelId(i / 2));
            assert_eq!(&list[..], &reference[..]);
        }
        reference.dedup();
        list.dedup();
        assert_eq!(&list[..], &reference[..]);
        assert_eq!(list, LabelList::from(reference.clone()));

        let mut inline = LabelList::from(vec![LabelId(7), LabelId(7), LabelId(3)]);
        inline.dedup();
        assert_eq!(&inline[..], &[LabelId(7), LabelId(3)]);
        for l in inline.iter_mut() {
            *l = LabelId(l.0 + 1);
        }
        assert_eq!(&inline[..], &[LabelId(8), LabelId(4)]);
        assert!(LabelList::with_capacity(64).is_empty());
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
