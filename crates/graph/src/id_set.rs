//! Sets of ids, one per row, each in the encoding its own size asks for.
//!
//! The rows of a reachability closure hold a handful of ids on most graphs
//! and a tenth of the id space on a dense near-DAG. [`IdRows`] stores a
//! row as a **sorted `u32` list** while it is short and as a **bitmap**
//! once that is no larger — past `2·⌈n/64⌉` ids, about `n/32`, for `n`
//! ids: the two encodings the Besta–Hoefler survey of graph compression
//! catalogues for adjacency sets. A row written whole takes the encoding
//! its length asks for, a list that grows past the threshold becomes a
//! bitmap, and a bitmap that shrinks stays one until it is emptied or
//! written whole, so no row flips at every change. Readers see sets, never
//! encodings: an [`IdSet`] iterates ascending, counts, tests membership,
//! compares and hashes by its ids.
//!
//! The rows live in two shared arenas, of ids and of words, not in an
//! allocation each, so a copy of a closure is a few buffer copies. A row
//! that outgrows its room moves to the end of its arena, and an arena is
//! compacted once half of it is loose.

use std::cell::RefCell;

const WORD: usize = u64::BITS as usize;

/// Words of a bitmap over `n` ids.
fn words_for(n: usize) -> usize {
    n.div_ceil(WORD)
}

/// Whether a written row of `len` ids over `n` ids is a bitmap: when a
/// list would be larger.
fn dense(len: usize, n: usize) -> bool {
    len > 2 * words_for(n)
}

/// How many of a set's ids [`IdSet::fold_hash`] reads.
const HASHED_IDS: usize = 16;

/// One row of an [`IdRows`], or any other id set, as its readers see it.
#[derive(Clone, Copy, Debug)]
pub enum IdSet<'a> {
    /// Ascending, distinct ids.
    List(&'a [u32]),
    /// Bit `i` of word `i / 64` for id `i`, with the number of set bits.
    Bits(&'a [u64], usize),
}

impl<'a> IdSet<'a> {
    /// Number of ids in the set.
    #[inline]
    pub fn len(&self) -> usize {
        match *self {
            IdSet::List(ids) => ids.len(),
            IdSet::Bits(_, len) => len,
        }
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `id` is in the set.
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        match *self {
            IdSet::List(ids) => ids.binary_search(&id).is_ok(),
            IdSet::Bits(words, _) => words
                .get(id as usize / WORD)
                .is_some_and(|w| w & (1 << (id as usize % WORD)) != 0),
        }
    }

    /// The ids, ascending.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = u32> + 'a {
        self.iter_from(0)
    }

    /// The ids from `from` on, ascending.
    #[inline]
    pub fn iter_from(&self, from: u32) -> impl Iterator<Item = u32> + 'a {
        let (ids, words): (&[u32], &[u64]) = match *self {
            IdSet::List(ids) => (&ids[ids.partition_point(|&id| id < from)..], &[]),
            IdSet::Bits(words, _) => (&[], words),
        };
        let mut at = from as usize / WORD;
        let mut word = words
            .get(at)
            .map_or(0, |w| w & (!0 << (from as usize % WORD)));
        let bits = std::iter::from_fn(move || loop {
            if word != 0 {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                return Some((at * WORD + bit) as u32);
            }
            at += 1;
            word = *words.get(at)?;
        });
        ids.iter().copied().chain(bits)
    }

    /// Whether the two sets share an id.
    #[inline]
    pub fn intersects(&self, other: &IdSet<'_>) -> bool {
        match (self, other) {
            (IdSet::Bits(a, _), IdSet::Bits(b, _)) => a.iter().zip(*b).any(|(x, y)| x & y != 0),
            _ => {
                let (short, long) = if self.len() <= other.len() {
                    (self, other)
                } else {
                    (other, self)
                };
                short.iter().any(|id| long.contains(id))
            }
        }
    }

    /// A multiply–rotate fold (FxHash-style) of `seed` with the set's
    /// length and its first `HASHED_IDS` (16) ids in ascending order: equal
    /// sets fold equal whatever their encodings. A bucket choice, never a
    /// verdict, so it reads a bounded prefix: two sets that share length
    /// and prefix cost a comparison.
    pub fn fold_hash(&self, seed: u64) -> u64 {
        const K: u64 = 0x517c_c1b7_2722_0a95;
        let step = |h: u64, x: u64| (h.rotate_left(5) ^ x).wrapping_mul(K);
        (self.iter().take(HASHED_IDS)).fold(step(seed, self.len() as u64), |h, id| {
            step(h, u64::from(id))
        })
    }
}

impl PartialEq for IdSet<'_> {
    fn eq(&self, other: &Self) -> bool {
        if self.len() != other.len() {
            return false;
        }
        match (self, other) {
            (IdSet::List(a), IdSet::List(b)) => a == b,
            // Equal counts and an equal common prefix leave no set bit past
            // the shorter bitmap in the longer one.
            (IdSet::Bits(a, _), IdSet::Bits(b, _)) => a.iter().zip(*b).all(|(x, y)| x == y),
            (list @ IdSet::List(_), bits) | (bits, list @ IdSet::List(_)) => {
                list.iter().all(|id| bits.contains(id))
            }
        }
    }
}

impl Eq for IdSet<'_> {}

/// Where a row of an [`IdRows`] lies: `cap` ids of the id arena, or `cap`
/// words of the word arena, from `at`.
#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    at: u32,
    len: u32,
    cap: u32,
    bits: bool,
}

/// `rows` id sets over the ids `0..universe` — see the module header.
///
/// A dropped row set leaves its arenas to the next one made or cloned on
/// the same thread, as a dropped [`BitMatrix`](crate::BitMatrix) leaves its
/// buffer: a maintenance step and the publication after it each build and
/// drop a few row sets, which would otherwise fault fresh pages in and, past
/// the allocator's `mmap` threshold, `munmap` them on every batch.
#[derive(Debug)]
pub struct IdRows {
    universe: usize,
    slots: Vec<Slot>,
    ids: Vec<u32>,
    words: Vec<u64>,
    /// Arena entries no row owns: ids, then words.
    loose: (usize, usize),
}

/// Largest arena (in entries) a dropped [`IdRows`] hands on, and how many
/// of each kind a thread keeps.
const SPARE_MAX: usize = 1 << 20;
const SPARES_KEPT: usize = 4;

/// The spare id arenas and word arenas of a thread.
type Spares = (Vec<Vec<u32>>, Vec<Vec<u64>>);

thread_local! {
    static SPARE: RefCell<Spares> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// An empty arena: a dropped one's, when the thread has a spare.
fn spare<T>(pick: fn(&mut Spares) -> &mut Vec<Vec<T>>) -> Vec<T> {
    let mut arena = (SPARE
        .try_with(|spare| pick(&mut spare.borrow_mut()).pop())
        .ok())
    .flatten()
    .unwrap_or_default();
    arena.clear();
    arena
}

impl Drop for IdRows {
    fn drop(&mut self) {
        let (ids, words) = (
            std::mem::take(&mut self.ids),
            std::mem::take(&mut self.words),
        );
        // Absent during thread teardown: then the arenas are just freed.
        let _ = SPARE.try_with(|spare| {
            let (spare_ids, spare_words) = &mut *spare.borrow_mut();
            if ids.capacity() <= SPARE_MAX && spare_ids.len() < SPARES_KEPT {
                spare_ids.push(ids);
            }
            if words.capacity() <= SPARE_MAX && spare_words.len() < SPARES_KEPT {
                spare_words.push(words);
            }
        });
    }
}

impl Clone for IdRows {
    fn clone(&self) -> Self {
        let (mut ids, mut words) = (spare(|s| &mut s.0), spare(|s| &mut s.1));
        ids.extend_from_slice(&self.ids);
        words.extend_from_slice(&self.words);
        IdRows {
            universe: self.universe,
            slots: self.slots.clone(),
            ids,
            words,
            loose: self.loose,
        }
    }
}

impl IdRows {
    /// `rows` empty rows over the ids `0..universe`.
    pub fn new(rows: usize, universe: usize) -> Self {
        IdRows {
            universe,
            slots: vec![Slot::default(); rows],
            ids: spare(|s| &mut s.0),
            words: spare(|s| &mut s.1),
            loose: (0, 0),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.slots.len()
    }

    /// The ids a row may hold are `0..universe()`.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> IdSet<'_> {
        let s = self.slots[r];
        let at = s.at as usize;
        if s.bits {
            IdSet::Bits(&self.words[at..at + s.cap as usize], s.len as usize)
        } else {
            IdSet::List(&self.ids[at..at + s.len as usize])
        }
    }

    /// Number of ids in row `r`.
    #[inline]
    pub fn len(&self, r: usize) -> usize {
        self.slots[r].len as usize
    }

    /// Whether row `r` is a bitmap.
    #[inline]
    pub fn is_bitmap(&self, r: usize) -> bool {
        self.slots[r].bits
    }

    /// Whether some row is a bitmap.
    pub fn has_bitmaps(&self) -> bool {
        self.slots.iter().any(|s| s.bits)
    }

    /// Approximate heap footprint in bytes, arenas at capacity.
    pub fn heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot>()
            + self.ids.capacity() * std::mem::size_of::<u32>()
            + self.words.capacity() * std::mem::size_of::<u64>()
    }

    /// Grows to `rows` rows over `universe` ids, neither fewer than now;
    /// the new rows are empty and every row keeps its ids.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `universe` is smaller than the current one.
    pub fn grow(&mut self, rows: usize, universe: usize) {
        assert!(
            rows >= self.rows() && universe >= self.universe,
            "{} rows over {} ids cannot grow to {rows} over {universe}",
            self.rows(),
            self.universe
        );
        self.slots.resize(rows, Slot::default());
        self.universe = universe;
    }

    /// Empties row `r`.
    pub fn clear(&mut self, r: usize) {
        self.place(r, false, 0);
    }

    /// Writes the set `b` has gathered into row `r`, in the encoding its
    /// length asks for, and leaves `b` empty.
    pub fn set(&mut self, r: usize, b: &mut RowBuilder) {
        self.write(r, b.set());
        b.clear();
    }

    /// Writes into row `r`, empty, the ids `of` and their rows, which must
    /// be closed as a reachability closure's are: a row that holds `w`
    /// holds row `w`. So a row met inside the union already is skipped, and
    /// `of` is best ordered with the rows that hold others first. A union
    /// with a bitmap row is gathered in place, in fresh room of the word
    /// arena.
    pub(crate) fn set_union(&mut self, r: usize, of: &[u32], b: &mut RowBuilder) {
        if of.is_empty() {
            return;
        }
        if !of.iter().any(|&w| self.slots[w as usize].bits) {
            for &w in of {
                if !b.holds(w) {
                    b.extend(self.row(w as usize));
                    b.insert(w);
                }
            }
            return self.set(r, b);
        }
        // Fresh room at the arena's end: every row read lies before it.
        self.clear(r);
        let at = self.place(r, true, words_for(self.universe));
        let (done, row) = self.words.split_at_mut(at);
        for &w in of {
            let (word, bit) = (w as usize / WORD, 1 << (w as usize % WORD));
            if row[word] & bit != 0 {
                continue;
            }
            row[word] |= bit;
            let s = self.slots[w as usize];
            let from = s.at as usize;
            if s.bits {
                let from = &done[from..from + s.cap as usize];
                row.iter_mut().zip(from).for_each(|(a, &b)| *a |= b);
            } else {
                for &id in &self.ids[from..from + s.len as usize] {
                    row[id as usize / WORD] |= 1 << (id as usize % WORD);
                }
            }
        }
        let len: usize = row.iter().map(|w| w.count_ones() as usize).sum();
        self.slots[r].len = len as u32;
        if !dense(len, self.universe) {
            let ids: Vec<u32> = self.row(r).iter().collect();
            self.write(r, IdSet::List(&ids));
        }
    }

    /// Adds `id` to row `r`; `false` if it was there. A list that fills its
    /// room moves to room for twice as many.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not below the universe.
    pub fn insert(&mut self, r: usize, id: u32) -> bool {
        assert!(
            (id as usize) < self.universe,
            "id {id} out of {}",
            self.universe
        );
        let s = self.slots[r];
        let (at, len) = (s.at as usize, s.len as usize);
        if s.bits {
            let (w, bit) = (id as usize / WORD, 1 << (id as usize % WORD));
            if w >= s.cap as usize {
                let old = self.words[at..at + s.cap as usize].to_vec();
                let at = self.place(r, true, words_for(self.universe));
                self.words[at..at + old.len()].copy_from_slice(&old);
                self.slots[r].len = len as u32;
            }
            let s = &mut self.slots[r];
            let word = &mut self.words[s.at as usize + w];
            let added = *word & bit == 0;
            *word |= bit;
            s.len += u32::from(added);
            return added;
        }
        let Err(i) = self.ids[at..at + len].binary_search(&id) else {
            return false;
        };
        if len == s.cap as usize || dense(len + 1, self.universe) {
            let mut ids = self.ids[at..at + len].to_vec();
            ids.insert(i, id);
            if dense(ids.len(), self.universe) {
                self.write(r, IdSet::List(&ids));
            } else {
                let at = self.place(r, false, (2 * len).max(4));
                self.ids[at..at + ids.len()].copy_from_slice(&ids);
                self.slots[r].len = ids.len() as u32;
            }
            return true;
        }
        self.ids.copy_within(at + i..at + len, at + i + 1);
        self.ids[at + i] = id;
        self.slots[r].len += 1;
        true
    }

    /// Takes `id` out of row `r`; `false` if it was not there.
    #[inline]
    pub fn remove(&mut self, r: usize, id: u32) -> bool {
        self.remove_all(r, IdSet::List(std::slice::from_ref(&id))) == 1
    }

    /// Takes the ids of `set` out of row `r`, in place; returns how many
    /// were in it.
    #[inline]
    pub fn remove_all(&mut self, r: usize, set: IdSet<'_>) -> usize {
        let s = self.slots[r];
        let at = s.at as usize;
        let removed = if s.bits {
            let words = &mut self.words[at..at + s.cap as usize];
            let mut removed = 0;
            match set {
                IdSet::Bits(minus, _) => {
                    for (word, &m) in words.iter_mut().zip(minus) {
                        removed += (*word & m).count_ones() as usize;
                        *word &= !m;
                    }
                }
                IdSet::List(ids) => {
                    for &id in ids {
                        if let Some(word) = words.get_mut(id as usize / WORD) {
                            let bit = 1 << (id as usize % WORD);
                            removed += usize::from(*word & bit != 0);
                            *word &= !bit;
                        }
                    }
                }
            }
            removed
        } else {
            let row = &mut self.ids[at..at + s.len as usize];
            match set {
                // A few ids: look each up.
                IdSet::List(minus) if minus.len() <= row.len() => {
                    let mut len = row.len();
                    for id in minus {
                        if let Ok(i) = row[..len].binary_search(id) {
                            row.copy_within(i + 1..len, i);
                            len -= 1;
                        }
                    }
                    row.len() - len
                }
                _ => {
                    let mut kept = 0;
                    for i in 0..row.len() {
                        if !set.contains(row[i]) {
                            row[kept] = row[i];
                            kept += 1;
                        }
                    }
                    row.len() - kept
                }
            }
        };
        self.slots[r].len -= removed as u32;
        if self.slots[r].len == 0 {
            self.clear(r);
        }
        removed
    }

    /// Rewrites row `r` as `set`, in the encoding its length asks for,
    /// with no room to spare (a bitmap without its trailing zero words).
    fn write(&mut self, r: usize, set: IdSet<'_>) {
        let len = set.len();
        if !dense(len, self.universe) {
            let at = self.place(r, false, len);
            for (slot, id) in self.ids[at..at + len].iter_mut().zip(set.iter()) {
                *slot = id;
            }
        } else if let IdSet::Bits(words, _) = set {
            let end = words.iter().rposition(|&w| w != 0).map_or(0, |i| i + 1);
            let at = self.place(r, true, end);
            self.words[at..at + end].copy_from_slice(&words[..end]);
        } else {
            let at = self.place(r, true, words_for(self.universe));
            for id in set.iter() {
                self.words[at + id as usize / WORD] |= 1 << (id as usize % WORD);
            }
        }
        self.slots[r].len = len as u32;
    }

    /// Leaves row `r` empty, with room for `cap` ids (a list) or `cap`
    /// zeroed words (a bitmap): the room it had when that is of the kind
    /// and large enough, else fresh room at the end of its arena; returns
    /// where the room starts. The arenas are compacted first when the room
    /// no row owns passes half of one and one entry per row, so a
    /// compaction is paid for by the moves before it.
    fn place(&mut self, r: usize, bits: bool, cap: usize) -> usize {
        let s = std::mem::take(&mut self.slots[r]);
        if s.bits == bits && cap <= s.cap as usize {
            let at = s.at as usize;
            if bits {
                self.words[at..at + s.cap as usize].fill(0);
            }
            self.slots[r] = Slot { len: 0, ..s };
            return at;
        }
        if s.bits {
            self.loose.1 += s.cap as usize;
        } else {
            self.loose.0 += s.cap as usize;
        }
        let rows = self.rows();
        if self.loose.0 > self.ids.len() / 2 + rows || self.loose.1 > self.words.len() / 2 + rows {
            self.compact();
        }
        let at = if bits {
            self.words.resize(self.words.len() + cap, 0);
            self.words.len() - cap
        } else {
            self.ids.resize(self.ids.len() + cap, 0);
            self.ids.len() - cap
        };
        let at32 = u32::try_from(at).expect("an id-set arena fits u32 offsets");
        self.slots[r] = Slot {
            at: at32,
            len: 0,
            cap: cap as u32,
            bits,
        };
        at
    }

    /// Lays every row out afresh in row order, a list with room for
    /// exactly its ids.
    fn compact(&mut self) {
        let (mut ids, mut words) = (spare(|s| &mut s.0), spare(|s| &mut s.1));
        for s in &mut self.slots {
            let (from, to) = (s.at as usize, s.at as usize + s.cap as usize);
            if s.bits {
                s.at = words.len() as u32;
                words.extend_from_slice(&self.words[from..to]);
            } else {
                s.at = ids.len() as u32;
                s.cap = s.len;
                ids.extend_from_slice(&self.ids[from..from + s.len as usize]);
            }
        }
        let old = IdRows {
            universe: 0,
            slots: Vec::new(),
            ids: std::mem::replace(&mut self.ids, ids),
            words: std::mem::replace(&mut self.words, words),
            loose: (0, 0),
        };
        // Dropped, it leaves the old arenas to the spares.
        drop(old);
        self.loose = (0, 0);
    }
}

impl PartialEq for IdRows {
    /// Row for row the same sets over the same universe, whatever the
    /// encodings and the arena layout.
    fn eq(&self, other: &Self) -> bool {
        self.universe == other.universe
            && self.rows() == other.rows()
            && (0..self.rows()).all(|r| self.row(r) == other.row(r))
    }
}

impl Eq for IdRows {}

/// Gathers one set — ids and whole sets, in any order, repeats allowed —
/// for [`IdRows::set`]: a list while it is short, a bitmap once it has
/// taken in more ids than a list of the universe is worth. While a list,
/// each id carries a stamp of the gathering, so membership is one lookup
/// and a repeat is dropped as it comes.
#[derive(Clone, Debug)]
pub struct RowBuilder {
    universe: usize,
    ids: Vec<u32>,
    words: Vec<u64>,
    dense: bool,
    /// Per id, the stamp of the gathering that last took it in as a list
    /// (allocated at the first such id).
    marks: Vec<u32>,
    stamp: u32,
}

impl RowBuilder {
    /// An empty builder over the ids `0..universe`.
    pub fn new(universe: usize) -> Self {
        RowBuilder {
            universe,
            ids: Vec::new(),
            words: Vec::new(),
            dense: false,
            marks: Vec::new(),
            stamp: 1,
        }
    }

    /// Adds `id`.
    #[inline]
    pub fn insert(&mut self, id: u32) {
        if self.dense {
            self.words[id as usize / WORD] |= 1 << (id as usize % WORD);
            return;
        }
        if self.marks.is_empty() {
            self.marks = vec![0; self.universe];
        }
        if std::mem::replace(&mut self.marks[id as usize], self.stamp) != self.stamp {
            self.ids.push(id);
            if dense(self.ids.len(), self.universe) {
                self.make_bits();
            }
        }
    }

    /// Adds every id of `set`.
    pub fn extend(&mut self, set: IdSet<'_>) {
        match set {
            IdSet::Bits(words, _) => {
                self.make_bits();
                for (into, &w) in self.words.iter_mut().zip(words) {
                    *into |= w;
                }
            }
            IdSet::List(ids) => ids.iter().for_each(|&id| self.insert(id)),
        }
    }

    /// Whether `id` is in the set.
    #[inline]
    pub fn holds(&self, id: u32) -> bool {
        if self.dense {
            self.words[id as usize / WORD] & (1 << (id as usize % WORD)) != 0
        } else {
            self.marks.get(id as usize) == Some(&self.stamp)
        }
    }

    /// Takes out the ids of the ascending `among` the set holds, writing
    /// them to `out`: a gathered bitmap is probed at those ids alone.
    pub fn take(&mut self, among: &[u32], out: &mut Vec<u32>) {
        out.clear();
        out.extend(among.iter().copied().filter(|&id| self.holds(id)));
        for &id in out.iter() {
            if self.dense {
                self.words[id as usize / WORD] &= !(1 << (id as usize % WORD));
            } else {
                self.marks[id as usize] = 0;
            }
        }
        let (marks, stamp) = (&self.marks, self.stamp);
        self.ids.retain(|&id| marks[id as usize] == stamp);
    }

    /// The ascending, distinct `ids` as a set in the encoding their number
    /// asks for: the slice itself while it is short, else a bitmap the
    /// builder, emptied first, gathers.
    pub fn encode<'a>(&'a mut self, ids: &'a [u32]) -> IdSet<'a> {
        if !dense(ids.len(), self.universe) {
            return IdSet::List(ids);
        }
        self.clear();
        self.make_bits();
        for &id in ids {
            self.words[id as usize / WORD] |= 1 << (id as usize % WORD);
        }
        IdSet::Bits(&self.words, ids.len())
    }

    /// The set gathered so far.
    pub fn set(&mut self) -> IdSet<'_> {
        if self.dense {
            let len = self.words.iter().map(|w| w.count_ones() as usize).sum();
            IdSet::Bits(&self.words, len)
        } else {
            self.ids.sort_unstable();
            IdSet::List(&self.ids)
        }
    }

    /// Empties the builder.
    pub fn clear(&mut self) {
        if self.dense {
            self.words.fill(0);
            self.dense = false;
        }
        self.ids.clear();
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // A stamp used long ago could still be on an id.
            self.marks.fill(0);
            self.stamp = 1;
        }
    }

    fn make_bits(&mut self) {
        if !self.dense {
            self.dense = true;
            self.words.resize(words_for(self.universe), 0);
            for id in self.ids.drain(..) {
                self.words[id as usize / WORD] |= 1 << (id as usize % WORD);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// One step of a random sequence over a few rows.
    #[derive(Clone, Debug)]
    enum Op {
        Insert(usize, u32),
        Remove(usize, u32),
        /// Row `.0` becomes row `.0 ∪ row .1`, written through a builder.
        Union(usize, usize),
        /// Row `.0` loses the ids of row `.1`.
        AndNot(usize, usize),
        /// A run of ids into one row, to cross the threshold upward fast.
        Fill(usize, u32, u32),
        /// Row `.0` written whole as its ids below `.1`, to cross it
        /// downward.
        Keep(usize, u32),
        /// Row `.0` becomes rows `.1` and `.2`, their ids and their rows —
        /// a sweep's union.
        Sweep(usize, usize, usize),
        Clear(usize),
    }

    const ROWS: usize = 4;

    /// Inserts and removes weigh most.
    fn arb_op(n: u32) -> impl Strategy<Value = Op> {
        let rows = (0..ROWS, 0..ROWS, 0..ROWS);
        (0u32..16, rows, 0..n, 0..n).prop_map(|(kind, (r, s, t), a, b)| match kind {
            0..=3 => Op::Insert(r, a),
            4..=6 => Op::Remove(r, a),
            7 | 8 => Op::Union(r, s),
            9 | 10 => Op::AndNot(r, s),
            11 => Op::Fill(r, a.min(b), a.max(b)),
            12 => Op::Keep(r, a),
            13 => Op::Sweep(r, s, t),
            _ => Op::Clear(r),
        })
    }

    fn hash(set: IdSet<'_>) -> u64 {
        set.fold_hash(7)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Against a `BTreeSet<u32>` per row: ascending iteration, length
        /// and membership are the oracle's after every step, and two rows
        /// compare and hash equal iff their oracle sets are equal — whether
        /// they are in the same encoding or not. The universe grows halfway,
        /// as a maintained closure's does.
        #[test]
        fn rows_are_their_sets_whatever_the_encoding(
            n in 1u32..300,
            ops in prop::collection::vec(arb_op(300), 1..120),
        ) {
            let mut rows = IdRows::new(ROWS, n as usize);
            let mut oracle = vec![BTreeSet::<u32>::new(); ROWS];
            let mut b = RowBuilder::new(n as usize);
            let half = ops.len() / 2;
            for (i, op) in ops.into_iter().enumerate() {
                if i == half {
                    let grown = rows.universe() + 64;
                    rows.grow(ROWS, grown);
                    b = RowBuilder::new(grown);
                }
                let n = rows.universe() as u32;
                match op {
                    Op::Insert(r, id) if id < n => {
                        prop_assert_eq!(rows.insert(r, id), oracle[r].insert(id));
                    }
                    Op::Remove(r, id) => {
                        prop_assert_eq!(rows.remove(r, id), oracle[r].remove(&id));
                    }
                    Op::Union(a, c) => {
                        b.extend(rows.row(a));
                        b.extend(rows.row(c));
                        rows.set(a, &mut b);
                        let other = oracle[c].clone();
                        oracle[a].extend(other);
                    }
                    Op::AndNot(a, c) => {
                        let ids: Vec<u32> = rows.row(c).iter().collect();
                        b.extend(rows.row(c));
                        let removed = rows.remove_all(a, b.set());
                        b.clear();
                        let before = oracle[a].len();
                        oracle[a].retain(|id| !ids.contains(id));
                        prop_assert_eq!(removed, before - oracle[a].len());
                    }
                    Op::Fill(r, lo, hi) => {
                        for id in lo.min(n - 1)..hi.min(n) {
                            b.insert(id);
                            oracle[r].insert(id);
                        }
                        b.extend(rows.row(r));
                        rows.set(r, &mut b);
                    }
                    Op::Keep(r, below) => {
                        oracle[r].retain(|&id| id < below);
                        let ids: Vec<u32> = oracle[r].iter().copied().collect();
                        b.extend(IdSet::List(&ids));
                        rows.set(r, &mut b);
                    }
                    // A sweep's rows are closed: a row that holds `x` holds
                    // row `x`.
                    Op::Sweep(r, s, t)
                        if r != s
                            && r != t
                            && (s.max(t) as u32) < n
                            && [(s, t), (t, s)].iter().all(|&(x, y)| {
                                !oracle[y].contains(&(x as u32)) || oracle[x].is_subset(&oracle[y])
                            }) =>
                    {
                        rows.set_union(r, &[s as u32, t as u32], &mut b);
                        let union = oracle[s].union(&oracle[t]).copied();
                        oracle[r] = union.chain([s as u32, t as u32]).collect();
                    }
                    Op::Sweep(..) => {}
                    Op::Clear(r) => {
                        rows.clear(r);
                        oracle[r].clear();
                    }
                    Op::Insert(..) => {}
                }
                for r in 0..ROWS {
                    let row = rows.row(r);
                    let expect: Vec<u32> = oracle[r].iter().copied().collect();
                    prop_assert_eq!(row.iter().collect::<Vec<_>>(), expect.clone());
                    prop_assert_eq!(row.len(), expect.len());
                    prop_assert_eq!(row, IdSet::List(&expect));
                    prop_assert_eq!(hash(row), hash(IdSet::List(&expect)));
                    for id in [0, n / 2, n - 1] {
                        prop_assert_eq!(row.contains(id), oracle[r].contains(&id));
                    }
                    for s in 0..ROWS {
                        let same = oracle[r] == oracle[s];
                        prop_assert_eq!(row == rows.row(s), same);
                        if same {
                            prop_assert_eq!(hash(row), hash(rows.row(s)));
                        }
                        let meet = oracle[r].intersection(&oracle[s]).next().is_some();
                        prop_assert_eq!(row.intersects(&rows.row(s)), meet);
                    }
                }
            }
        }
    }

    /// A row crosses the threshold both ways: up as it grows, and down when
    /// it is written whole — a bitmap that shrinks id by id stays one until
    /// it is empty. On the way down it holds the same set as a list row
    /// does: equal, hash equal.
    #[test]
    fn a_row_crosses_the_threshold_both_ways() {
        let n = 640; // ten words: a list of more than 20 ids is larger
        let mut rows = IdRows::new(2, n);
        for id in 0..21 {
            rows.insert(0, id * 3);
        }
        assert!(rows.is_bitmap(0), "21 ids over 640 is a bitmap");
        for id in 0..12 {
            rows.remove(0, id * 3);
        }
        assert!(rows.is_bitmap(0), "a bitmap shrinks in place");
        for id in 12..21 {
            rows.insert(1, id * 3);
        }
        assert!(!rows.is_bitmap(1));
        assert_eq!(rows.row(0), rows.row(1));
        assert_eq!(hash(rows.row(0)), hash(rows.row(1)));
        let mut b = RowBuilder::new(n);
        b.extend(rows.row(0));
        rows.set(0, &mut b);
        assert!(!rows.is_bitmap(0), "written whole, nine ids are a list");
        let nine: Vec<u32> = (12..21).map(|i| i * 3).collect();
        assert_eq!(rows.row(0).iter().collect::<Vec<_>>(), nine);
        for id in nine {
            rows.remove(1, id);
        }
        assert!(rows.row(1).is_empty() && !rows.is_bitmap(1));
    }
}
