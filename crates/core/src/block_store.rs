//! A capacity-bounded store of 4 KB cache blocks with LRU bookkeeping, a
//! dirty-age index and, for the omniscient policy, a next-modify index.
//!
//! Mirrors the structure §2.1 describes for Sprite's client caches: blocks
//! carry access and modify times, dirty state is tracked at byte
//! granularity within each block (an application write of less than a block
//! dirties only those bytes, but replacement operates on whole blocks), and
//! the block cleaner needs to find blocks whose dirty data has aged past
//! the write-back delay.
//!
//! # The next-modify index
//!
//! The omniscient policy (§2.4) evicts the resident block whose next
//! modification is furthest in the future. A store built with
//! [`BlockStore::with_next_modify`] keeps every resident block in an
//! ordered set of `(key, block)` pairs and answers
//! [`BlockStore::furthest_next_modify`] in O(log n) amortized. A block
//! enters the set with key [`SimTime::ZERO`]. At a pick at time `now`,
//! every pair with key `<= now` is popped and re-keyed with
//! [`OmniscientSchedule::next_modify`]`(block, now)`; the victim is then
//! the largest pair, so ties on time go to the largest [`BlockId`].
//!
//! This is exact as long as pick times never go backwards (checked by a
//! `debug_assert`). Every stored key is `next_modify(block, s)` for some
//! earlier pick time `s <= now`. A key still `> now` means the block has
//! no modification in `(s, now]`, so it is also `next_modify(block, now)`;
//! every other key was just refreshed.
//!
//! Keys expire by time, not by store events, on purpose. A heap that
//! pushes a new key when the store sees a modification and discards stale
//! entries on pop would be wrong here: a truncation that kills dirty bytes
//! leaves the block resident, and another client's write to a shared
//! block advances the schedule without touching this store. In both cases
//! the block's true key rises with no store event to push it.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use nvfs_types::{BlockId, ByteRange, FileId, RangeSet, SimTime};

use crate::omniscient::OmniscientSchedule;

/// One cached block.
#[derive(Debug, Clone)]
pub struct BlockEntry {
    /// Dirty bytes within this block (absolute file offsets).
    pub dirty: RangeSet,
    /// Last access (read or write) time.
    pub last_access: SimTime,
    /// Last modification time.
    pub last_modify: SimTime,
    /// When the block first became dirty since it was last clean.
    pub dirty_since: Option<SimTime>,
    /// Key into the next-modify index (unused without one).
    next_modify_key: SimTime,
}

impl BlockEntry {
    fn new(
        dirty: RangeSet,
        last_access: SimTime,
        last_modify: SimTime,
        dirty_since: Option<SimTime>,
    ) -> Self {
        BlockEntry {
            dirty,
            last_access,
            last_modify,
            dirty_since,
            next_modify_key: SimTime::ZERO,
        }
    }

    /// Whether the block holds any dirty bytes.
    pub fn is_dirty(&self) -> bool {
        !self.dirty.is_empty()
    }

    /// Number of dirty bytes.
    pub fn dirty_bytes(&self) -> u64 {
        self.dirty.len_bytes()
    }
}

/// Outcome of marking bytes dirty in a block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirtyOutcome {
    /// Bytes that were clean (or absent) and are now dirty.
    pub newly_dirty: u64,
    /// Bytes that were already dirty and were overwritten — dirty data that
    /// died in the cache.
    pub overwritten: u64,
}

/// End-of-list link.
const NIL: u32 = u32::MAX;

/// A slab slot: a resident block and its links in the LRU list. A vacant
/// slot (on the free list) keeps stale contents until it is reused.
#[derive(Debug, Clone)]
struct Slot {
    id: BlockId,
    entry: BlockEntry,
    prev: u32,
    next: u32,
}

/// The FxHash step, one multiply per hashed word: [`BlockId`]'s derived
/// `Hash` feeds it the file id and the block index. Hash order depends on
/// the hasher and the table's history, so the index built on it is only
/// ever looked up, never iterated.
#[derive(Debug, Clone, Copy, Default)]
struct BlockIdHasher(u64);

impl BlockIdHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for BlockIdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A bounded block cache with LRU and dirty-age indexes.
///
/// Entries live in a slab of slots found through a hash index. The slots
/// are threaded on a doubly-linked LRU list ordered by
/// `(last_access, order of the access)`: a block accessed at `t` goes
/// after every block accessed at or before `t`. Op times never go
/// backwards within one store, so touches and op-time inserts append at
/// the tail in O(1); an insert with an older access time (demotion,
/// hybrid aging) walks back from the tail to its exact place.
///
/// # Examples
///
/// ```
/// use nvfs_core::block_store::BlockStore;
/// use nvfs_types::{BlockId, ByteRange, FileId, SimTime};
///
/// let mut s = BlockStore::new(2);
/// let b = BlockId::new(FileId(0), 0);
/// s.insert(b, SimTime::ZERO);
/// let out = s.mark_dirty(b, ByteRange::new(0, 100), SimTime::from_secs(1));
/// assert_eq!(out.newly_dirty, 100);
/// assert_eq!(s.total_dirty_bytes(), 100);
/// ```
#[derive(Debug, Clone)]
pub struct BlockStore {
    capacity: usize,
    /// Entry storage; `free` lists the vacant slots.
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Resident block → its slot. Never iterated.
    index: HashMap<BlockId, u32, BuildHasherDefault<BlockIdHasher>>,
    /// Resident blocks in block order, for the block-ordered queries.
    order: BTreeSet<BlockId>,
    /// Least recently accessed end of the LRU list.
    head: u32,
    /// Most recently accessed end of the LRU list.
    tail: u32,
    dirty_age: BTreeMap<(SimTime, BlockId), ()>,
    next_modify: Option<NextModifyIndex>,
}

/// Resident blocks ordered by next modification time (see the module
/// docs for why lazily expiring keys are exact).
#[derive(Debug, Clone)]
struct NextModifyIndex {
    schedule: Arc<OmniscientSchedule>,
    keys: BTreeSet<(SimTime, BlockId)>,
    last_pick: SimTime,
}

impl Default for BlockStore {
    fn default() -> Self {
        BlockStore::new(0)
    }
}

impl BlockStore {
    /// Creates a store holding at most `capacity` blocks.
    pub fn new(capacity: usize) -> Self {
        BlockStore {
            capacity,
            slots: Vec::new(),
            free: Vec::new(),
            index: HashMap::default(),
            order: BTreeSet::new(),
            head: NIL,
            tail: NIL,
            dirty_age: BTreeMap::new(),
            next_modify: None,
        }
    }

    /// Creates a store that also keeps the next-modify index over
    /// `schedule`, for [`Self::furthest_next_modify`].
    pub fn with_next_modify(capacity: usize, schedule: Arc<OmniscientSchedule>) -> Self {
        BlockStore {
            next_modify: Some(NextModifyIndex {
                schedule,
                keys: BTreeSet::new(),
                last_pick: SimTime::ZERO,
            }),
            ..BlockStore::new(capacity)
        }
    }

    /// Maximum number of blocks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of blocks.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Whether the store is at capacity.
    pub fn is_full(&self) -> bool {
        self.index.len() >= self.capacity
    }

    /// Whether `id` is cached.
    pub fn contains(&self, id: BlockId) -> bool {
        self.index.contains_key(&id)
    }

    /// Borrows the entry for `id`.
    pub fn get(&self, id: BlockId) -> Option<&BlockEntry> {
        self.index.get(&id).map(|&s| &self.slots[s as usize].entry)
    }

    /// Inserts a clean block accessed at `t`.
    ///
    /// # Panics
    ///
    /// Panics if the store is full or the block is already present —
    /// callers must evict first.
    pub fn insert(&mut self, id: BlockId, t: SimTime) {
        self.insert_with_access(id, t, t);
    }

    /// Inserts a clean block with an explicit `last_access` time (used when
    /// demoting a block from NVRAM to the volatile cache, which must keep
    /// the original access time for LRU comparisons).
    ///
    /// # Panics
    ///
    /// Panics if the store is full or the block is already present.
    pub fn insert_with_access(&mut self, id: BlockId, last_access: SimTime, last_modify: SimTime) {
        self.insert_entry(
            id,
            BlockEntry::new(RangeSet::new(), last_access, last_modify, None),
        );
    }

    /// Inserts a block with explicit dirty state (used when the hybrid
    /// model migrates an aged dirty block from the volatile cache into the
    /// NVRAM, preserving its history).
    ///
    /// # Panics
    ///
    /// Panics if the store is full or the block is already present.
    pub fn insert_with_state(
        &mut self,
        id: BlockId,
        last_access: SimTime,
        last_modify: SimTime,
        dirty: RangeSet,
        dirty_since: Option<SimTime>,
    ) {
        let effective_since = if dirty.is_empty() {
            None
        } else {
            dirty_since.or(Some(last_modify))
        };
        self.insert_entry(
            id,
            BlockEntry::new(dirty, last_access, last_modify, effective_since),
        );
        if let Some(since) = effective_since {
            self.dirty_age.insert((since, id), ());
        }
    }

    /// Updates the access time of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not cached.
    pub fn touch(&mut self, id: BlockId, t: SimTime) {
        let s = *self.index.get(&id).expect("touch of uncached block");
        self.retouch(s, t);
    }

    /// Marks `range` (clipped to the block) dirty at time `t`, touching the
    /// block. Returns how many bytes were newly dirty vs overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not cached.
    pub fn mark_dirty(&mut self, id: BlockId, range: ByteRange, t: SimTime) -> DirtyOutcome {
        let s = *self.index.get(&id).expect("mark_dirty of uncached block");
        self.retouch(s, t);
        let clipped = match id.byte_range().intersection(range) {
            Some(r) => r,
            None => return DirtyOutcome::default(),
        };
        let entry = &mut self.slots[s as usize].entry;
        let overwritten = entry.dirty.overlap_bytes(clipped);
        let newly_dirty = entry.dirty.insert(clipped);
        entry.last_modify = t;
        if entry.dirty_since.is_none() && entry.is_dirty() {
            entry.dirty_since = Some(t);
            self.dirty_age.insert((t, id), ());
        }
        DirtyOutcome {
            newly_dirty,
            overwritten,
        }
    }

    /// Clears all dirty state of `id` (it was written to the server or its
    /// data died). Returns the number of bytes that were dirty.
    pub fn clean(&mut self, id: BlockId) -> u64 {
        let Some(&s) = self.index.get(&id) else {
            return 0;
        };
        let entry = &mut self.slots[s as usize].entry;
        let bytes = entry.dirty.len_bytes();
        entry.dirty.clear();
        if let Some(since) = entry.dirty_since.take() {
            self.dirty_age.remove(&(since, id));
        }
        bytes
    }

    /// Kills the dirty bytes of `id` that fall within `range` (truncation).
    /// Returns the number of dirty bytes killed. The block stays cached.
    pub fn kill_dirty(&mut self, id: BlockId, range: ByteRange) -> u64 {
        let Some(&s) = self.index.get(&id) else {
            return 0;
        };
        let entry = &mut self.slots[s as usize].entry;
        let killed = entry.dirty.remove(range);
        if !entry.is_dirty() {
            if let Some(since) = entry.dirty_since.take() {
                self.dirty_age.remove(&(since, id));
            }
        }
        killed
    }

    /// Removes `id` entirely, returning its entry.
    pub fn remove(&mut self, id: BlockId) -> Option<BlockEntry> {
        let s = self.index.remove(&id)?;
        self.unlink(s);
        self.free.push(s);
        self.order.remove(&id);
        let vacant = BlockEntry::new(RangeSet::new(), SimTime::ZERO, SimTime::ZERO, None);
        let entry = std::mem::replace(&mut self.slots[s as usize].entry, vacant);
        if let Some(since) = entry.dirty_since {
            self.dirty_age.remove(&(since, id));
        }
        if let Some(index) = &mut self.next_modify {
            index.keys.remove(&(entry.next_modify_key, id));
        }
        Some(entry)
    }

    /// The resident block whose next modification after `now` is furthest
    /// in the future (ties to the largest [`BlockId`]), or `None` if the
    /// store is empty.
    ///
    /// Pops every expired key (`<= now`) and re-keys its block from the
    /// schedule, so the cost is O(log n) per pick plus O(log n) per
    /// scheduled modification of a resident block since the last pick.
    ///
    /// # Panics
    ///
    /// Panics if the store was not built with [`Self::with_next_modify`].
    pub fn furthest_next_modify(&mut self, now: SimTime) -> Option<BlockId> {
        let index = self
            .next_modify
            .as_mut()
            .expect("omniscient victim selection needs a next-modify index");
        debug_assert!(
            now >= index.last_pick,
            "pick at {now} precedes the previous pick at {}",
            index.last_pick
        );
        index.last_pick = now;
        while let Some(&(key, id)) = index.keys.first() {
            // A `MAX` key is final: nothing modifies the block after it.
            if key > now || key == SimTime::MAX {
                break;
            }
            index.keys.pop_first();
            let fresh = index.schedule.next_modify(id, now);
            index.keys.insert((fresh, id));
            let s = self.index[&id];
            self.slots[s as usize].entry.next_modify_key = fresh;
        }
        index.keys.last().map(|&(_, id)| id)
    }

    /// Reference for [`Self::furthest_next_modify`]: a scan of every
    /// resident block against the schedule.
    #[cfg(test)]
    pub(crate) fn furthest_next_modify_scan(&self, now: SimTime) -> Option<BlockId> {
        let schedule = &self.next_modify.as_ref()?.schedule;
        self.iter()
            .map(|(id, _)| (id, schedule.next_modify(id, now)))
            .max_by_key(|&(id, t)| (t, id))
            .map(|(id, _)| id)
    }

    /// The least-recently accessed block, if any.
    pub fn lru_block(&self) -> Option<(BlockId, SimTime)> {
        self.lru_slots()
            .next()
            .map(|slot| (slot.id, slot.entry.last_access))
    }

    /// The least-recently accessed *clean* block, if any (Sprite's volatile
    /// cache prefers replacing clean blocks; used by the dirty-preference
    /// ablation).
    pub fn lru_clean_block(&self) -> Option<(BlockId, SimTime)> {
        self.lru_slots()
            .find(|slot| !slot.entry.is_dirty())
            .map(|slot| (slot.id, slot.entry.last_access))
    }

    /// All cached blocks of `file`, in index order.
    pub fn file_blocks(&self, file: FileId) -> Vec<BlockId> {
        self.order
            .range(BlockId::new(file, 0)..BlockId::new(FileId(file.0 + 1), 0))
            .copied()
            .collect()
    }

    /// Blocks whose dirty data is older than `cutoff` (i.e. became dirty at
    /// or before it), oldest first.
    pub fn dirty_older_than(&self, cutoff: SimTime) -> Vec<BlockId> {
        let mut out = Vec::new();
        self.dirty_older_than_into(cutoff, &mut out);
        out
    }

    /// [`Self::dirty_older_than`] into a caller-owned buffer (cleared
    /// first), so tick-frequency callers can reuse one allocation.
    pub fn dirty_older_than_into(&self, cutoff: SimTime, out: &mut Vec<BlockId>) {
        out.clear();
        out.extend(
            self.dirty_age
                .range(..=(cutoff, BlockId::new(FileId(u32::MAX), u64::MAX)))
                .map(|(&(_, id), ())| id),
        );
    }

    /// Iterates over `(BlockId, &BlockEntry)` in block order.
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, &BlockEntry)> {
        self.order
            .iter()
            .map(|&id| (id, &self.slots[self.index[&id] as usize].entry))
    }

    /// The `n`-th block in block order (for random replacement sampling).
    pub fn nth_block(&self, n: usize) -> Option<BlockId> {
        self.order.iter().nth(n).copied()
    }

    /// Sum of dirty bytes across all blocks.
    pub fn total_dirty_bytes(&self) -> u64 {
        // The dirty_age index holds exactly the dirty blocks.
        self.dirty_age
            .keys()
            .map(|&(_, id)| self.slots[self.index[&id] as usize].entry.dirty_bytes())
            .sum()
    }

    /// Number of dirty blocks.
    pub fn dirty_block_count(&self) -> usize {
        self.dirty_age.len()
    }

    /// Verifies internal index consistency (for tests).
    pub fn check_invariants(&self) -> bool {
        let n = self.index.len();
        if n > self.capacity || self.order.len() != n || self.slots.len() != n + self.free.len() {
            return false;
        }
        // Every resident block has a slot naming it (so the slots are
        // distinct), and that slot is not on the free list.
        let live = |id: &BlockId| {
            self.index.get(id).is_some_and(|&s| {
                self.slots
                    .get(s as usize)
                    .is_some_and(|slot| slot.id == *id)
            })
        };
        if !self.order.iter().all(live) || self.free.iter().any(|&s| self.is_live(s)) {
            return false;
        }
        // The LRU list: back links match forward links, access times
        // never decrease, and it visits exactly the n resident slots.
        let (mut prev, mut cur, mut seen) = (NIL, self.head, 0);
        let mut last_access = SimTime::ZERO;
        while cur != NIL {
            let Some(slot) = self.slots.get(cur as usize) else {
                return false;
            };
            if seen == n
                || slot.prev != prev
                || !self.is_live(cur)
                || slot.entry.last_access < last_access
            {
                return false;
            }
            (prev, cur, seen) = (cur, slot.next, seen + 1);
            last_access = slot.entry.last_access;
        }
        if self.tail != prev || seen != n {
            return false;
        }
        for (&(since, id), ()) in &self.dirty_age {
            match self.get(id) {
                Some(e) if e.dirty_since == Some(since) && e.is_dirty() => {}
                _ => return false,
            }
        }
        if self.iter().filter(|(_, e)| e.is_dirty()).count() != self.dirty_age.len() {
            return false;
        }
        // n distinct pairs, each matching the key its resident block
        // stores: exactly one pair per resident block.
        let Some(index) = &self.next_modify else {
            return true;
        };
        index.keys.len() == n
            && index
                .keys
                .iter()
                .all(|&(key, id)| self.get(id).is_some_and(|e| e.next_modify_key == key))
    }

    /// Whether slot `s` holds the resident block it names.
    fn is_live(&self, s: u32) -> bool {
        self.slots
            .get(s as usize)
            .is_some_and(|slot| self.index.get(&slot.id) == Some(&s))
    }

    /// Slots from least to most recently accessed.
    fn lru_slots(&self) -> impl Iterator<Item = &Slot> {
        let mut cur = self.head;
        std::iter::from_fn(move || {
            // `NIL` lies past the end of the slab, so the walk stops there.
            let slot = self.slots.get(cur as usize)?;
            cur = slot.next;
            Some(slot)
        })
    }

    /// Places a new block in a slot, the hash index, the block order, the
    /// LRU list and (with an already-expired key, so the next pick
    /// computes its real one) the next-modify index.
    fn insert_entry(&mut self, id: BlockId, entry: BlockEntry) {
        assert!(!self.is_full(), "insert into full BlockStore; evict first");
        let Entry::Vacant(vacant) = self.index.entry(id) else {
            panic!("block {id} already cached");
        };
        let slot = Slot {
            id,
            entry,
            prev: NIL,
            next: NIL,
        };
        let s = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = slot;
                s
            }
            None => {
                self.slots.push(slot);
                u32::try_from(self.slots.len() - 1)
                    .ok()
                    .filter(|&s| s != NIL)
                    .expect("fewer than u32::MAX slots")
            }
        };
        vacant.insert(s);
        self.order.insert(id);
        if let Some(index) = &mut self.next_modify {
            index.keys.insert((SimTime::ZERO, id));
        }
        self.link(s);
    }

    /// Moves slot `s` to its place for an access at `t`.
    fn retouch(&mut self, s: u32, t: SimTime) {
        self.unlink(s);
        self.slots[s as usize].entry.last_access = t;
        self.link(s);
    }

    /// Links unlinked slot `s` after the last slot accessed at or before
    /// its own access time: the tail unless time went backwards, in which
    /// case the walk back finds the exact place.
    fn link(&mut self, s: u32) {
        let t = self.slots[s as usize].entry.last_access;
        let mut prev = self.tail;
        while prev != NIL && self.slots[prev as usize].entry.last_access > t {
            prev = self.slots[prev as usize].prev;
        }
        let next = match prev {
            NIL => self.head,
            p => self.slots[p as usize].next,
        };
        let slot = &mut self.slots[s as usize];
        (slot.prev, slot.next) = (prev, next);
        match prev {
            NIL => self.head = s,
            p => self.slots[p as usize].next = s,
        }
        match next {
            NIL => self.tail = s,
            n => self.slots[n as usize].prev = s,
        }
    }

    /// Takes slot `s` out of the LRU list.
    fn unlink(&mut self, s: u32) {
        let Slot { prev, next, .. } = self.slots[s as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvfs_trace::op::{Op, OpKind, OpStream};
    use nvfs_types::{ClientId, BLOCK_SIZE};

    fn bid(f: u32, i: u64) -> BlockId {
        BlockId::new(FileId(f), i)
    }

    /// A schedule from `(secs, client, kind)` ops.
    fn schedule(ops: Vec<(u64, u32, OpKind)>) -> Arc<OmniscientSchedule> {
        let ops: OpStream = ops
            .into_iter()
            .map(|(t, c, kind)| Op {
                time: SimTime::from_secs(t),
                client: ClientId(c),
                kind,
            })
            .collect();
        Arc::new(OmniscientSchedule::build(&ops))
    }

    fn write(f: u32, i: u64) -> OpKind {
        OpKind::Write {
            file: FileId(f),
            range: bid(f, i).byte_range(),
        }
    }

    /// The index's victim at `secs`, checked against the scan.
    fn pick(s: &mut BlockStore, secs: u64) -> BlockId {
        let now = SimTime::from_secs(secs);
        let victim = s.furthest_next_modify(now);
        assert_eq!(victim, s.furthest_next_modify_scan(now), "at {now}");
        assert!(s.check_invariants());
        victim.expect("store is non-empty")
    }

    #[test]
    fn truncated_block_stays_resident_and_its_key_expires() {
        // Both blocks are written at 0 s. Block 1 is cut at 10 s and
        // rewritten at 1000 s; block 0 is next written at 500 s.
        let sched = schedule(vec![
            (0, 0, write(0, 0)),
            (0, 0, write(0, 1)),
            (
                10,
                0,
                OpKind::Truncate {
                    file: FileId(0),
                    new_len: BLOCK_SIZE,
                },
            ),
            (500, 0, write(0, 0)),
            (1000, 0, write(0, 1)),
        ]);
        let mut s = BlockStore::with_next_modify(2, sched);
        for i in 0..2 {
            s.insert(bid(0, i), SimTime::ZERO);
            s.mark_dirty(bid(0, i), bid(0, i).byte_range(), SimTime::ZERO);
        }
        assert_eq!(pick(&mut s, 2), bid(0, 0), "keys 500 s vs 10 s");
        // The truncation kills block 1's dirty bytes but leaves it cached:
        // no store event re-keys it, yet its next modify is now 1000 s.
        assert_eq!(s.kill_dirty(bid(0, 1), bid(0, 1).byte_range()), BLOCK_SIZE);
        assert!(s.contains(bid(0, 1)));
        assert_eq!(pick(&mut s, 20), bid(0, 1), "keys 500 s vs 1000 s");
        // Past 500 s block 0 is never modified again.
        assert_eq!(pick(&mut s, 600), bid(0, 0));
    }

    #[test]
    fn another_clients_write_re_keys_a_resident_block() {
        // Client 1 writes block 0 at 10 s and 1000 s; this store (client
        // 0's) never sees either write.
        let sched = schedule(vec![
            (10, 1, write(0, 0)),
            (500, 0, write(0, 1)),
            (1000, 1, write(0, 0)),
        ]);
        let mut s = BlockStore::with_next_modify(2, sched);
        s.insert(bid(0, 0), SimTime::ZERO);
        s.insert(bid(0, 1), SimTime::ZERO);
        assert_eq!(pick(&mut s, 2), bid(0, 1));
        assert_eq!(pick(&mut s, 10), bid(0, 0), "a modify at `now` is past");
        assert_eq!(pick(&mut s, 20), bid(0, 0));
    }

    #[test]
    fn evicted_and_reinserted_block_is_re_keyed() {
        let sched = schedule(vec![(10, 0, write(0, 0)), (500, 0, write(0, 1))]);
        let mut s = BlockStore::with_next_modify(2, sched);
        s.insert(bid(0, 0), SimTime::ZERO);
        s.insert(bid(0, 1), SimTime::ZERO);
        assert_eq!(pick(&mut s, 2), bid(0, 1));
        s.remove(bid(0, 1));
        assert!(s.check_invariants());
        s.insert(bid(0, 2), SimTime::from_secs(3));
        assert_eq!(pick(&mut s, 3), bid(0, 2), "never modified");
        s.remove(bid(0, 2));
        s.insert(bid(0, 1), SimTime::from_secs(4));
        assert_eq!(pick(&mut s, 4), bid(0, 1), "keys 10 s vs 500 s");
        assert_eq!(pick(&mut s, 600), bid(0, 1), "both never modified");
    }

    #[test]
    fn ties_at_max_go_to_the_largest_block_id() {
        let mut s = BlockStore::with_next_modify(3, schedule(vec![]));
        for id in [bid(0, 7), bid(1, 0), bid(0, 5)] {
            s.insert(id, SimTime::ZERO);
        }
        assert_eq!(pick(&mut s, 0), bid(1, 0));
        s.remove(bid(1, 0));
        assert_eq!(pick(&mut s, 0), bid(0, 7));
        // Keys at `MAX` are final, so a pick at `MAX` still terminates.
        assert_eq!(s.furthest_next_modify(SimTime::MAX), Some(bid(0, 7)));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "precedes the previous pick")]
    fn picks_must_not_go_back_in_time() {
        let mut s = BlockStore::with_next_modify(1, schedule(vec![]));
        s.insert(bid(0, 0), SimTime::ZERO);
        s.furthest_next_modify(SimTime::from_secs(5));
        s.furthest_next_modify(SimTime::from_secs(4));
    }

    #[test]
    fn invariants_catch_a_stale_index_pair() {
        let mut s = BlockStore::with_next_modify(2, schedule(vec![]));
        s.insert(bid(0, 0), SimTime::ZERO);
        assert!(s.check_invariants());
        let index = s.next_modify.as_mut().unwrap();
        index.keys.insert((SimTime::MAX, bid(0, 9)));
        assert!(!s.check_invariants(), "pair names an absent block");
        let index = s.next_modify.as_mut().unwrap();
        index.keys.remove(&(SimTime::MAX, bid(0, 9)));
        index.keys.remove(&(SimTime::ZERO, bid(0, 0)));
        index.keys.insert((SimTime::MAX, bid(0, 0)));
        assert!(!s.check_invariants(), "pair key differs from the entry's");
    }

    #[test]
    fn invariants_catch_a_broken_lru_list() {
        let fresh = || {
            let mut s = BlockStore::new(4);
            for i in 0..3 {
                s.insert(bid(0, i), SimTime::from_secs(i));
            }
            assert!(s.check_invariants());
            s
        };
        let mut s = fresh();
        let second = s.slots[s.head as usize].next;
        s.slots[second as usize].prev = NIL;
        assert!(!s.check_invariants(), "back link disagrees");
        let mut s = fresh();
        let head = s.head as usize;
        s.slots[head].entry.last_access = SimTime::from_secs(9);
        assert!(!s.check_invariants(), "access times decrease");
        let mut s = fresh();
        s.unlink(s.tail);
        assert!(!s.check_invariants(), "list shorter than the index");
        let mut s = fresh();
        let (head, tail) = (s.head, s.tail as usize);
        s.slots[tail].next = head;
        assert!(!s.check_invariants(), "cycle");
    }

    /// Block ids from least to most recently accessed.
    fn lru_order(s: &BlockStore) -> Vec<BlockId> {
        s.lru_slots().map(|slot| slot.id).collect()
    }

    #[test]
    fn older_inserts_walk_back_to_their_exact_place() {
        let mut s = BlockStore::new(5);
        s.insert(bid(0, 0), SimTime::from_secs(1));
        s.insert(bid(0, 1), SimTime::from_secs(5));
        s.insert(bid(0, 2), SimTime::from_secs(5));
        // Ties on access time go after the earlier accesses.
        s.insert_with_access(bid(0, 3), SimTime::from_secs(5), SimTime::ZERO);
        s.insert_with_access(bid(0, 4), SimTime::from_secs(3), SimTime::ZERO);
        assert_eq!(
            lru_order(&s),
            vec![bid(0, 0), bid(0, 4), bid(0, 1), bid(0, 2), bid(0, 3)]
        );
        s.remove(bid(0, 0));
        s.insert_with_access(bid(0, 0), SimTime::ZERO, SimTime::ZERO);
        assert_eq!(s.lru_block(), Some((bid(0, 0), SimTime::ZERO)), "new head");
        assert!(s.check_invariants());
    }

    #[test]
    fn lru_order_follows_touches() {
        let mut s = BlockStore::new(3);
        s.insert(bid(0, 0), SimTime::from_secs(1));
        s.insert(bid(0, 1), SimTime::from_secs(2));
        s.insert(bid(0, 2), SimTime::from_secs(3));
        assert_eq!(s.lru_block().unwrap().0, bid(0, 0));
        s.touch(bid(0, 0), SimTime::from_secs(4));
        assert_eq!(s.lru_block().unwrap().0, bid(0, 1));
        assert!(s.check_invariants());
    }

    #[test]
    #[should_panic(expected = "evict first")]
    fn insert_into_full_store_panics() {
        let mut s = BlockStore::new(1);
        s.insert(bid(0, 0), SimTime::ZERO);
        s.insert(bid(0, 1), SimTime::ZERO);
    }

    #[test]
    fn dirty_accounting() {
        let mut s = BlockStore::new(2);
        let b = bid(0, 0);
        s.insert(b, SimTime::ZERO);
        let o1 = s.mark_dirty(b, ByteRange::new(0, 100), SimTime::from_secs(1));
        assert_eq!(
            o1,
            DirtyOutcome {
                newly_dirty: 100,
                overwritten: 0
            }
        );
        let o2 = s.mark_dirty(b, ByteRange::new(50, 150), SimTime::from_secs(2));
        assert_eq!(
            o2,
            DirtyOutcome {
                newly_dirty: 50,
                overwritten: 50
            }
        );
        // dirty_since is set by the first write, not reset by the second.
        assert_eq!(s.get(b).unwrap().dirty_since, Some(SimTime::from_secs(1)));
        assert_eq!(s.total_dirty_bytes(), 150);
        assert_eq!(s.clean(b), 150);
        assert_eq!(s.total_dirty_bytes(), 0);
        assert!(s.check_invariants());
    }

    #[test]
    fn mark_dirty_clips_to_block() {
        let mut s = BlockStore::new(2);
        let b = bid(0, 1); // covers bytes 4096..8192
        s.insert(b, SimTime::ZERO);
        let o = s.mark_dirty(b, ByteRange::new(0, 10_000), SimTime::from_secs(1));
        assert_eq!(o.newly_dirty, 4096);
        let o2 = s.mark_dirty(b, ByteRange::new(0, 100), SimTime::from_secs(2));
        assert_eq!(o2, DirtyOutcome::default());
    }

    #[test]
    fn kill_dirty_partial() {
        let mut s = BlockStore::new(2);
        let b = bid(0, 0);
        s.insert(b, SimTime::ZERO);
        s.mark_dirty(b, ByteRange::new(0, 4096), SimTime::from_secs(1));
        assert_eq!(s.kill_dirty(b, ByteRange::new(2048, 4096)), 2048);
        assert!(s.get(b).unwrap().is_dirty());
        assert_eq!(s.kill_dirty(b, ByteRange::new(0, 2048)), 2048);
        assert!(!s.get(b).unwrap().is_dirty());
        assert_eq!(s.dirty_block_count(), 0);
        assert!(s.check_invariants());
    }

    #[test]
    fn dirty_age_queue_finds_old_blocks() {
        let mut s = BlockStore::new(4);
        for i in 0..3 {
            let b = bid(0, i);
            s.insert(b, SimTime::ZERO);
            s.mark_dirty(b, b.byte_range(), SimTime::from_secs(10 * (i + 1)));
        }
        let old = s.dirty_older_than(SimTime::from_secs(20));
        assert_eq!(old, vec![bid(0, 0), bid(0, 1)]);
        s.clean(bid(0, 0));
        assert_eq!(s.dirty_older_than(SimTime::from_secs(20)), vec![bid(0, 1)]);
    }

    #[test]
    fn file_blocks_filters_by_file() {
        let mut s = BlockStore::new(4);
        s.insert(bid(1, 0), SimTime::ZERO);
        s.insert(bid(1, 5), SimTime::ZERO);
        s.insert(bid(2, 0), SimTime::ZERO);
        assert_eq!(s.file_blocks(FileId(1)), vec![bid(1, 0), bid(1, 5)]);
        assert_eq!(s.file_blocks(FileId(3)), Vec::<BlockId>::new());
    }

    #[test]
    fn lru_clean_block_skips_dirty() {
        let mut s = BlockStore::new(3);
        s.insert(bid(0, 0), SimTime::from_secs(1));
        s.insert(bid(0, 1), SimTime::from_secs(2));
        s.mark_dirty(bid(0, 0), bid(0, 0).byte_range(), SimTime::from_secs(3));
        // 0,0 is now most recent *and* dirty; LRU clean is 0,1.
        assert_eq!(s.lru_clean_block().unwrap().0, bid(0, 1));
        assert_eq!(s.lru_block().unwrap().0, bid(0, 1));
    }

    #[test]
    fn remove_clears_all_indexes() {
        let mut s = BlockStore::new(2);
        let b = bid(0, 0);
        s.insert(b, SimTime::ZERO);
        s.mark_dirty(b, b.byte_range(), SimTime::from_secs(1));
        let e = s.remove(b).unwrap();
        assert_eq!(e.dirty_bytes(), 4096);
        assert!(s.is_empty());
        assert_eq!(s.dirty_block_count(), 0);
        assert!(s.check_invariants());
    }

    #[test]
    fn insert_with_state_preserves_dirty_age() {
        let mut s = BlockStore::new(2);
        let id = bid(0, 0);
        let mut dirty = RangeSet::new();
        dirty.insert(ByteRange::new(0, 100));
        s.insert_with_state(
            id,
            SimTime::from_secs(9),
            SimTime::from_secs(8),
            dirty,
            Some(SimTime::from_secs(5)),
        );
        assert_eq!(s.total_dirty_bytes(), 100);
        assert_eq!(s.dirty_older_than(SimTime::from_secs(5)), vec![id]);
        assert!(s.check_invariants());
    }

    #[test]
    fn demotion_preserves_access_time() {
        let mut a = BlockStore::new(2);
        let mut b = BlockStore::new(2);
        let id = bid(0, 0);
        a.insert(id, SimTime::from_secs(5));
        let e = a.remove(id).unwrap();
        b.insert_with_access(id, e.last_access, e.last_modify);
        assert_eq!(b.get(id).unwrap().last_access, SimTime::from_secs(5));
    }
}
