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

/// Position functions numbered below this bound get a row and a column in
/// the interner's dense `SubStr` pair table. The table holds one `u32` per
/// ordered pair of such numbers, so it never exceeds `POSITION_BOUND² × 4`
/// bytes (256 KiB); `SubStr` labels over a function numbered past the bound
/// intern through the hashed table only.
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

fn position_hash(p: &PositionFn) -> u32 {
    let h = match p {
        PositionFn::ConstPos(k) => mix(0, u64::from(*k as u32)),
        PositionFn::MatchPos { term, k, dir } => {
            let word = 1 << 33 | (matches!(dir, Dir::End) as u64) << 32 | u64::from(*k as u32);
            mix(mix_term(0, term), word)
        }
    };
    finish(h) as u32
}

fn affix_hash((term, k): &(Term, i32)) -> u32 {
    finish(mix(mix_term(0, term), u64::from(*k as u32))) as u32
}

/// The hash of `ConstantStr(text)`.
fn constant_hash(text: &str) -> u32 {
    finish(mix_bytes(0, text.as_bytes())) as u32
}

/// The hash of a non-constant label, from its table indices.
fn record_hash(label: Label) -> u32 {
    let h = match label {
        Label::Constant { .. } => unreachable!("constants hash by text"),
        Label::SubStr(l, r) => mix(mix(1, u64::from(l)), u64::from(r)),
        Label::Prefix(a) => mix(2, u64::from(a)),
        Label::Suffix(a) => mix(3, u64::from(a)),
    };
    finish(h) as u32
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

/// One interned string function, as a 12-byte record of indices into the
/// interner's own tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Label {
    /// `ConstantStr`: `len` bytes of the text arena from `offset`.
    Constant { offset: u32, len: u32 },
    /// `SubStr` over the position functions numbered `.0` and `.1`.
    SubStr(u32, u32),
    /// `Prefix` of the affix-table entry `.0`.
    Prefix(u32),
    /// `Suffix` of the affix-table entry `.0`.
    Suffix(u32),
}

/// An open-addressed table of the dense ids `0..n` of some keyed values,
/// probed linearly. A used slot holds `id + 1`, 0 marks an empty one; the
/// table's length is a power of two and it is kept at most half full. The
/// keys and their equality live with the caller.
#[derive(Debug, Default, Clone)]
struct Slots(Vec<u32>);

impl Slots {
    /// The id in `hash`'s probe chain that `eq` accepts, or the empty slot
    /// where it would go. The table must not be empty.
    fn probe(&self, hash: u32, eq: impl Fn(u32) -> bool) -> Result<u32, usize> {
        let mask = self.0.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            match self.0[slot] {
                0 => return Err(slot),
                entry if eq(entry - 1) => return Ok(entry - 1),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Makes room for id `len` (ids `0..len` are in the table), re-slotting
    /// every id by `hash` whenever the table doubles.
    fn reserve_one(&mut self, len: usize, hash: impl Fn(u32) -> u32) {
        if (len + 1) * 2 <= self.0.len() {
            return;
        }
        let size = (self.0.len() * 2).max(16);
        self.0.clear();
        self.0.resize(size, 0);
        let mask = size - 1;
        for id in 0..len as u32 {
            let mut slot = hash(id) as usize & mask;
            while self.0[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.0[slot] = id + 1;
        }
    }
}

/// Values numbered densely in first-insertion order, found by hash.
#[derive(Debug, Clone)]
struct Numbered<T> {
    values: Vec<T>,
    slots: Slots,
    hash: fn(&T) -> u32,
}

impl<T: PartialEq + Clone> Numbered<T> {
    fn new(hash: fn(&T) -> u32) -> Self {
        Numbered {
            values: Vec::new(),
            slots: Slots::default(),
            hash,
        }
    }

    /// The number of `value`, if it has one.
    fn get(&self, value: &T) -> Option<u32> {
        if self.values.is_empty() {
            return None;
        }
        let values = &self.values;
        let found = self
            .slots
            .probe((self.hash)(value), |id| values[id as usize] == *value);
        found.ok()
    }

    /// The number of `value`, assigned on first sight.
    fn number(&mut self, value: &T) -> u32 {
        let Numbered {
            values,
            slots,
            hash,
        } = self;
        slots.reserve_one(values.len(), |id| hash(&values[id as usize]));
        match slots.probe(hash(value), |id| values[id as usize] == *value) {
            Ok(id) => id,
            Err(slot) => {
                let id = values.len() as u32;
                slots.0[slot] = id + 1;
                values.push(value.clone());
                id
            }
        }
    }
}

/// The `len` bytes of the text arena `text` from `offset`.
fn arena_text(text: &str, offset: u32, len: u32) -> &str {
    &text[offset as usize..offset as usize + len as usize]
}

/// A hash-consing table mapping string functions to dense [`LabelId`]s.
///
/// Every label is one fixed-size record, in id order: a constant is a range
/// of one text arena, a `SubStr` is a pair of numbers in a table of the
/// position functions seen, and a `Prefix`/`Suffix` is a number in a table
/// of `(term, k)` pairs. Those tables live as long as the interner, so
/// [`LabelInterner::resolve`] rebuilds any label's [`StringFn`] on demand
/// and nothing else ever holds one. An open-addressed table of ids, probed
/// linearly, finds a label by its hash: a constant hashes and compares by
/// its text, probed against the arena directly; every other label by its
/// record's numbers.
///
/// The graph builder also reaches `SubStr` labels through a side index, a
/// dense table mapping each ordered pair of position numbers below 256 to
/// the label over that pair. It is filled lazily — a miss falls through to
/// the hashed table and records the id it returns — so ids are assigned in
/// exactly the order plain interning would assign them, and
/// [`LabelInterner::release_side_indexes`] can free it at no cost to the
/// ids.
#[derive(Debug, Clone)]
pub struct LabelInterner {
    labels: Vec<Label>,
    slots: Slots,
    /// The texts of the constant labels, back to back.
    text: String,
    positions: Numbered<PositionFn>,
    affixes: Numbered<(Term, i32)>,
    /// `pairs[l * pairs_dim + r]` is `id + 1` of `SubStr` over the position
    /// functions numbered `l` and `r`, or 0 when not seen yet (side index).
    pairs: Vec<u32>,
    pairs_dim: usize,
}

impl Default for LabelInterner {
    fn default() -> Self {
        LabelInterner {
            labels: Vec::new(),
            slots: Slots::default(),
            text: String::new(),
            positions: Numbered::new(position_hash),
            affixes: Numbered::new(affix_hash),
            pairs: Vec::new(),
            pairs_dim: 0,
        }
    }
}

impl LabelInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reassembles an interner from functions listed in id order — the
    /// artifact-load path. Returns `None` if `fns` contains a duplicate.
    pub fn from_ordered(fns: Vec<StringFn>) -> Option<Self> {
        let mut interner = LabelInterner::new();
        interner.labels.reserve_exact(fns.len());
        for f in &fns {
            let before = interner.len();
            if interner.intern_ref(f).index() != before {
                return None;
            }
        }
        Some(interner)
    }

    /// Interns `f`, returning its id (existing or freshly assigned).
    pub fn intern(&mut self, f: StringFn) -> LabelId {
        self.intern_ref(&f)
    }

    fn intern_ref(&mut self, f: &StringFn) -> LabelId {
        match f {
            StringFn::ConstantStr(text) => self.intern_constant(text),
            StringFn::SubStr(l, r) => {
                let (l, r) = (self.position_id(l), self.position_id(r));
                self.intern_record(Label::SubStr(l, r))
            }
            StringFn::Prefix { term, k } => self.intern_affix(false, term, *k),
            StringFn::Suffix { term, k } => self.intern_affix(true, term, *k),
        }
    }

    /// Interns `ConstantStr(text)`, copying `text` into the arena only when
    /// it is new.
    pub(crate) fn intern_constant(&mut self, text: &str) -> LabelId {
        self.reserve_one();
        let hash = constant_hash(text);
        match self.slots.probe(hash, |id| self.constant_eq(id, text)) {
            Ok(id) => LabelId(id),
            Err(slot) => {
                let offset = self.text.len();
                u32::try_from(offset + text.len()).expect("the constant arena stays below 4 GiB");
                self.text.push_str(text);
                let (offset, len) = (offset as u32, text.len() as u32);
                self.insert_at(slot, Label::Constant { offset, len })
            }
        }
    }

    /// The number of position function `p` in the interner's position
    /// table, assigned on first sight.
    pub(crate) fn position_id(&mut self, p: &PositionFn) -> u32 {
        self.positions.number(p)
    }

    /// Interns `SubStr` over the position functions numbered `left` and
    /// `right` by [`LabelInterner::position_id`], through the dense pair
    /// table when both numbers are below [`POSITION_BOUND`].
    pub(crate) fn intern_pair(&mut self, left: u32, right: u32) -> LabelId {
        let (l, r) = (left as usize, right as usize);
        if l.max(r) >= POSITION_BOUND {
            return self.intern_record(Label::SubStr(left, right));
        }
        if l.max(r) >= self.pairs_dim {
            self.grow_pairs(l.max(r) + 1);
        }
        let slot = l * self.pairs_dim + r;
        match self.pairs[slot] {
            0 => {
                let id = self.intern_record(Label::SubStr(left, right));
                self.pairs[slot] = id.0 + 1;
                id
            }
            known => LabelId(known - 1),
        }
    }

    /// Interns `Suffix(term, k)` when `suffix` is set, else `Prefix(term, k)`.
    pub(crate) fn intern_affix(&mut self, suffix: bool, term: &Term, k: i32) -> LabelId {
        let affix = self.affixes.number(&(term.clone(), k));
        self.intern_record(if suffix {
            Label::Suffix(affix)
        } else {
            Label::Prefix(affix)
        })
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
        self.pairs = Vec::new();
        self.pairs_dim = 0;
    }

    /// Looks up an already-interned function without inserting.
    pub fn get(&self, f: &StringFn) -> Option<LabelId> {
        if self.labels.is_empty() {
            return None;
        }
        let label = match f {
            StringFn::ConstantStr(text) => {
                let found = self
                    .slots
                    .probe(constant_hash(text), |id| self.constant_eq(id, text));
                return found.ok().map(LabelId);
            }
            StringFn::SubStr(l, r) => Label::SubStr(self.positions.get(l)?, self.positions.get(r)?),
            StringFn::Prefix { term, k } => Label::Prefix(self.affixes.get(&(term.clone(), *k))?),
            StringFn::Suffix { term, k } => Label::Suffix(self.affixes.get(&(term.clone(), *k))?),
        };
        let found = self
            .slots
            .probe(record_hash(label), |id| self.labels[id as usize] == label);
        found.ok().map(LabelId)
    }

    /// Interns a non-constant record.
    fn intern_record(&mut self, label: Label) -> LabelId {
        self.reserve_one();
        let found = self
            .slots
            .probe(record_hash(label), |id| self.labels[id as usize] == label);
        match found {
            Ok(id) => LabelId(id),
            Err(slot) => self.insert_at(slot, label),
        }
    }

    /// Is label `id` the constant `text`?
    fn constant_eq(&self, id: u32, text: &str) -> bool {
        match self.labels[id as usize] {
            Label::Constant { offset, len } => {
                len as usize == text.len() && arena_text(&self.text, offset, len) == text
            }
            _ => false,
        }
    }

    /// Appends `label` as the next id, at the empty `slot` a probe found.
    fn insert_at(&mut self, slot: usize, label: Label) -> LabelId {
        let id = self.labels.len() as u32;
        self.slots.0[slot] = id + 1;
        self.labels.push(label);
        LabelId(id)
    }

    /// Keeps the id table at most half full after one more insertion.
    fn reserve_one(&mut self) {
        let (labels, text) = (&self.labels, &self.text);
        self.slots
            .reserve_one(labels.len(), |id| match labels[id as usize] {
                Label::Constant { offset, len } => constant_hash(arena_text(text, offset, len)),
                label => record_hash(label),
            });
    }

    /// Rebuilds the string function of an id.
    ///
    /// # Panics
    /// Panics if the id was not produced by this interner.
    pub fn resolve(&self, id: LabelId) -> StringFn {
        let affix = |a: u32| self.affixes.values[a as usize].clone();
        match self.labels[id.index()] {
            Label::Constant { .. } => StringFn::constant(self.constant(id).expect("a constant")),
            Label::SubStr(l, r) => StringFn::sub_str(
                self.positions.values[l as usize].clone(),
                self.positions.values[r as usize].clone(),
            ),
            Label::Prefix(a) => {
                let (term, k) = affix(a);
                StringFn::prefix(term, k)
            }
            Label::Suffix(a) => {
                let (term, k) = affix(a);
                StringFn::suffix(term, k)
            }
        }
    }

    /// The text of label `id` when it is a `ConstantStr`, read in place.
    ///
    /// # Panics
    /// Panics if the id was not produced by this interner.
    pub fn constant(&self, id: LabelId) -> Option<&str> {
        match self.labels[id.index()] {
            Label::Constant { offset, len } => Some(arena_text(&self.text, offset, len)),
            _ => None,
        }
    }

    /// Number of distinct labels interned so far.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Iterates over all interned `(id, function)` pairs, rebuilding each
    /// function.
    pub fn iter(&self) -> impl Iterator<Item = (LabelId, StringFn)> + '_ {
        (0..self.labels.len() as u32).map(|i| (LabelId(i), self.resolve(LabelId(i))))
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
        assert_eq!(interner.resolve(a), f);
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
            assert_eq!(interner.resolve(LabelId(i as u32)), *f);
        }

        let dup = vec![
            StringFn::constant("a"),
            StringFn::constant("b"),
            StringFn::constant("a"),
        ];
        assert!(LabelInterner::from_ordered(dup).is_none());
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
            assert_eq!(got, want, "{r}");
        }
        let order = |i: &LabelInterner| i.iter().map(|(_, f)| f).collect::<Vec<_>>();
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
        assert!(interner.positions.values.len() > POSITION_BOUND);
        assert_eq!(interner.pairs.len(), POSITION_BOUND * POSITION_BOUND);
        let numbered = |p: u32| (p as usize) < POSITION_BOUND;
        let past_bound = interner
            .labels
            .iter()
            .filter(|label| matches!(label, Label::SubStr(l, r) if !numbered(*l) || !numbered(*r)))
            .count();
        assert!(past_bound > 0, "some SubStr label interned by hash only");
    }

    #[test]
    fn released_side_index_is_freed_and_refills_with_equal_ids() {
        let reps = [
            Replacement::new("Lee, Mary", "M. Lee"),
            Replacement::new("Smith, James", "J. Smith"),
            Replacement::new("Lee, Mary", "Mary Lee"),
            Replacement::new("Zürich Straße", "Straße Zürich"),
        ];
        // Release after every graph: the next build refills the pair table
        // from scratch, and still interns exactly the reference ids.
        assert_matches_reference(&reps, |interner| {
            assert!(interner.pairs_dim > 0, "the pair table was used");
            interner.release_side_indexes();
            assert_eq!(interner.pairs.capacity(), 0);
            assert_eq!(interner.pairs_dim, 0);
        });
    }

    #[test]
    fn every_kind_of_label_resolves_and_is_found_again() {
        let literal = Term::Literal("Str".into());
        let fns = [
            StringFn::constant("Straße"),
            StringFn::constant(""),
            StringFn::sub_str(
                PositionFn::match_pos(Term::Upper, 1, Dir::Begin),
                PositionFn::match_pos(literal.clone(), -1, Dir::End),
            ),
            StringFn::sub_str(PositionFn::const_pos(2), PositionFn::const_pos(-1)),
            StringFn::prefix(Term::Lower, 1),
            StringFn::suffix(Term::Lower, 1),
            StringFn::prefix(literal.clone(), -2),
            StringFn::suffix(Term::Digits, -1),
        ];
        let mut interner = LabelInterner::new();
        let ids: Vec<LabelId> = fns.iter().map(|f| interner.intern(f.clone())).collect();
        assert_eq!(ids, (0..fns.len() as u32).map(LabelId).collect::<Vec<_>>());
        for (f, &id) in fns.iter().zip(&ids) {
            assert_eq!(interner.resolve(id), *f);
            assert_eq!(interner.get(f), Some(id));
            assert_eq!(interner.intern(f.clone()), id, "{f}");
            let text = match f {
                StringFn::ConstantStr(c) => Some(&**c),
                _ => None,
            };
            assert_eq!(interner.constant(id), text);
        }
        assert_eq!(interner.len(), fns.len());
        // Near misses share a table entry with an interned label but are not
        // interned themselves.
        let absent = [
            StringFn::constant("Strasse"),
            StringFn::sub_str(PositionFn::const_pos(-1), PositionFn::const_pos(2)),
            StringFn::suffix(literal, -2),
            StringFn::prefix(Term::Whitespace, 1),
        ];
        for f in &absent {
            assert_eq!(interner.get(f), None, "{f}");
        }
    }

    #[test]
    fn a_label_is_one_small_record() {
        assert!(std::mem::size_of::<Label>() <= 16);
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
