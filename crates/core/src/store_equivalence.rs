//! Differential test of [`BlockStore`] against a naive reference.
//!
//! [`NaiveStore`] keeps its entries in a `Vec` and answers every query by
//! scanning: the LRU block is the minimum `(last_access, access order)`,
//! block-ordered queries sort, and the omniscient victim is a scan of the
//! schedule. Seeded random call sequences drive both stores through every
//! mutating call, including inserts at older access times (demotion and
//! hybrid aging) and touches that go back in time, and every query is
//! compared after each step.

use std::sync::Arc;

use nvfs_rng::{Rng, SeedableRng, StdRng};
use nvfs_trace::op::{Op, OpKind, OpStream};
use nvfs_types::{
    BlockId, ByteRange, ClientId, FileId, RangeSet, SimDuration, SimTime, BLOCK_SIZE,
};

use crate::block_store::{BlockStore, DirtyOutcome};
use crate::omniscient::OmniscientSchedule;

#[derive(Debug, Clone)]
struct NaiveEntry {
    id: BlockId,
    dirty: RangeSet,
    last_access: SimTime,
    last_modify: SimTime,
    dirty_since: Option<SimTime>,
    /// Order of the last access, breaking ties on `last_access`.
    tie: u64,
}

/// The reference store: no indexes at all.
struct NaiveStore {
    capacity: usize,
    entries: Vec<NaiveEntry>,
    tie: u64,
    schedule: Option<Arc<OmniscientSchedule>>,
}

impl NaiveStore {
    fn new(capacity: usize, schedule: Option<Arc<OmniscientSchedule>>) -> Self {
        NaiveStore {
            capacity,
            entries: Vec::new(),
            tie: 0,
            schedule,
        }
    }

    fn find(&mut self, id: BlockId) -> Option<&mut NaiveEntry> {
        self.entries.iter_mut().find(|e| e.id == id)
    }

    fn contains(&self, id: BlockId) -> bool {
        self.entries.iter().any(|e| e.id == id)
    }

    fn next_tie(&mut self) -> u64 {
        self.tie += 1;
        self.tie
    }

    fn insert_with_state(
        &mut self,
        id: BlockId,
        last_access: SimTime,
        last_modify: SimTime,
        dirty: RangeSet,
        dirty_since: Option<SimTime>,
    ) {
        assert!(self.entries.len() < self.capacity && !self.contains(id));
        let dirty_since = if dirty.is_empty() {
            None
        } else {
            dirty_since.or(Some(last_modify))
        };
        let tie = self.next_tie();
        self.entries.push(NaiveEntry {
            id,
            dirty,
            last_access,
            last_modify,
            dirty_since,
            tie,
        });
    }

    fn touch(&mut self, id: BlockId, t: SimTime) {
        let tie = self.next_tie();
        let e = self.find(id).expect("touch of uncached block");
        e.last_access = t;
        e.tie = tie;
    }

    fn mark_dirty(&mut self, id: BlockId, range: ByteRange, t: SimTime) -> DirtyOutcome {
        self.touch(id, t);
        let Some(clipped) = id.byte_range().intersection(range) else {
            return DirtyOutcome::default();
        };
        let e = self.find(id).expect("touched above");
        let overwritten = e.dirty.overlap_bytes(clipped);
        let newly_dirty = e.dirty.insert(clipped);
        e.last_modify = t;
        if e.dirty_since.is_none() {
            e.dirty_since = Some(t);
        }
        DirtyOutcome {
            newly_dirty,
            overwritten,
        }
    }

    fn clean(&mut self, id: BlockId) -> u64 {
        self.find(id).map_or(0, |e| {
            e.dirty_since = None;
            std::mem::take(&mut e.dirty).len_bytes()
        })
    }

    fn kill_dirty(&mut self, id: BlockId, range: ByteRange) -> u64 {
        self.find(id).map_or(0, |e| {
            let killed = e.dirty.remove(range);
            if e.dirty.is_empty() {
                e.dirty_since = None;
            }
            killed
        })
    }

    fn remove(&mut self, id: BlockId) -> Option<NaiveEntry> {
        let i = self.entries.iter().position(|e| e.id == id)?;
        Some(self.entries.swap_remove(i))
    }

    fn lru_block(&self) -> Option<(BlockId, SimTime)> {
        self.lru_among(|_| true)
    }

    fn lru_clean_block(&self) -> Option<(BlockId, SimTime)> {
        self.lru_among(|e| e.dirty.is_empty())
    }

    fn lru_among(&self, keep: impl Fn(&NaiveEntry) -> bool) -> Option<(BlockId, SimTime)> {
        self.entries
            .iter()
            .filter(|e| keep(e))
            .min_by_key(|e| (e.last_access, e.tie))
            .map(|e| (e.id, e.last_access))
    }

    fn sorted(&self) -> Vec<&NaiveEntry> {
        let mut all: Vec<&NaiveEntry> = self.entries.iter().collect();
        all.sort_by_key(|e| e.id);
        all
    }

    fn file_blocks(&self, file: FileId) -> Vec<BlockId> {
        self.sorted()
            .into_iter()
            .filter(|e| e.id.file == file)
            .map(|e| e.id)
            .collect()
    }

    fn nth_block(&self, n: usize) -> Option<BlockId> {
        self.sorted().get(n).map(|e| e.id)
    }

    fn dirty_older_than(&self, cutoff: SimTime) -> Vec<BlockId> {
        let mut old: Vec<(SimTime, BlockId)> = self
            .entries
            .iter()
            .filter_map(|e| e.dirty_since.filter(|&s| s <= cutoff).map(|s| (s, e.id)))
            .collect();
        old.sort();
        old.into_iter().map(|(_, id)| id).collect()
    }

    fn total_dirty_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.dirty.len_bytes()).sum()
    }

    fn furthest_next_modify(&self, now: SimTime) -> Option<BlockId> {
        let schedule = self.schedule.as_ref().expect("built with a schedule");
        self.entries
            .iter()
            .map(|e| (schedule.next_modify(e.id, now), e.id))
            .max()
            .map(|(_, id)| id)
    }
}

/// Reports the case of a failing sequence when an assertion panics.
struct CaseGuard(String);
impl Drop for CaseGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("block store diverged from the reference: {}", self.0);
        }
    }
}

const FILES: u32 = 5;
const FILE_BLOCKS: u64 = 16;
const STEPS: usize = 600;

fn random_block(rng: &mut StdRng) -> BlockId {
    BlockId::new(
        FileId(rng.gen_range(0..FILES)),
        rng.gen_range(0..FILE_BLOCKS),
    )
}

/// A range that may overlap the block, straddle it or miss it.
fn random_range(rng: &mut StdRng, id: BlockId) -> ByteRange {
    let base = id.byte_range().start;
    let start = (base + rng.gen_range(0..BLOCK_SIZE)).saturating_sub(rng.gen_range(0..BLOCK_SIZE));
    ByteRange::at(start, rng.gen_range(1..2 * BLOCK_SIZE))
}

/// Dirty bytes inside the block (possibly none) for `insert_with_state`.
fn random_dirty(rng: &mut StdRng, id: BlockId) -> RangeSet {
    let mut dirty = RangeSet::new();
    for _ in 0..rng.gen_range(0..3u32) {
        if let Some(r) = id.byte_range().intersection(random_range(rng, id)) {
            dirty.insert(r);
        }
    }
    dirty
}

/// `secs` before `t`, or time zero.
fn back(t: SimTime, secs: u64) -> SimTime {
    SimTime::from_micros(
        t.as_micros()
            .saturating_sub(SimDuration::from_secs(secs).as_micros()),
    )
}

/// A time at or before `t`, often equal to it (ties in the LRU order).
fn earlier(rng: &mut StdRng, t: SimTime) -> SimTime {
    back(t, rng.gen_range(0..=30u64))
}

/// Writes and truncates over the test's blocks for the next-modify index.
fn random_schedule(rng: &mut StdRng) -> Arc<OmniscientSchedule> {
    let mut ops: Vec<Op> = (0..300)
        .map(|_| {
            let id = random_block(rng);
            let kind = if rng.gen_bool(0.9) {
                OpKind::Write {
                    file: id.file,
                    range: id.byte_range(),
                }
            } else {
                OpKind::Truncate {
                    file: id.file,
                    new_len: id.index * BLOCK_SIZE,
                }
            };
            Op {
                time: SimTime::from_secs(rng.gen_range(0..2_000u64)),
                client: ClientId(0),
                kind,
            }
        })
        .collect();
    ops.sort_by_key(|op| op.time);
    let ops: OpStream = ops.into_iter().collect();
    Arc::new(OmniscientSchedule::build(&ops))
}

/// Every query of the store, compared with the reference at time `now`.
fn assert_same(s: &mut BlockStore, r: &NaiveStore, now: SimTime) {
    assert!(s.check_invariants(), "invariants at {now}");
    assert_eq!(s.len(), r.entries.len());
    assert_eq!(s.lru_block(), r.lru_block(), "lru_block at {now}");
    assert_eq!(s.lru_clean_block(), r.lru_clean_block(), "lru_clean_block");
    for f in 0..=FILES {
        assert_eq!(s.file_blocks(FileId(f)), r.file_blocks(FileId(f)));
    }
    let sorted = r.sorted();
    assert_eq!(s.iter().count(), sorted.len());
    for ((id, e), n) in s.iter().zip(&sorted) {
        assert_eq!(id, n.id, "iter order");
        assert_eq!(e.dirty, n.dirty, "{id} dirty bytes");
        assert_eq!(
            (e.last_access, e.last_modify, e.dirty_since),
            (n.last_access, n.last_modify, n.dirty_since),
            "{id} times"
        );
    }
    for n in 0..=sorted.len() {
        assert_eq!(s.nth_block(n), r.nth_block(n), "nth_block({n})");
    }
    for cutoff in [SimTime::ZERO, back(now, 10), now] {
        assert_eq!(s.dirty_older_than(cutoff), r.dirty_older_than(cutoff));
    }
    assert_eq!(s.total_dirty_bytes(), r.total_dirty_bytes());
    assert_eq!(
        s.dirty_block_count(),
        r.dirty_older_than(SimTime::MAX).len()
    );
    if r.schedule.is_some() {
        assert_eq!(
            s.furthest_next_modify(now),
            r.furthest_next_modify(now),
            "furthest_next_modify at {now}"
        );
    }
}

/// One seeded sequence of `STEPS` calls against both stores.
fn run_sequence(seed: u64, capacity: usize, next_modify: bool) {
    let _guard = CaseGuard(format!(
        "seed {seed}, capacity {capacity}, next-modify {next_modify}"
    ));
    let mut rng = StdRng::seed_from_u64(seed);
    let schedule = next_modify.then(|| random_schedule(&mut rng));
    let mut s = match &schedule {
        Some(schedule) => BlockStore::with_next_modify(capacity, Arc::clone(schedule)),
        None => BlockStore::new(capacity),
    };
    let mut r = NaiveStore::new(capacity, schedule);
    let mut t = SimTime::ZERO;
    for _ in 0..STEPS {
        if rng.gen_bool(0.6) {
            t += SimDuration::from_secs(rng.gen_range(0..4u64));
        }
        let id = random_block(&mut rng);
        match (r.contains(id), rng.gen_range(0..100u32)) {
            // Inserts of absent blocks, evicting the LRU block when full.
            (false, 0..=49) => {
                if s.is_full() {
                    let (victim, _) = r.lru_block().expect("full store is non-empty");
                    let ours = s.remove(victim).expect("victim is resident");
                    let theirs = r.remove(victim).expect("victim is resident");
                    assert_eq!(ours.dirty, theirs.dirty);
                    assert_eq!(ours.last_access, theirs.last_access);
                }
                match rng.gen_range(0..3u32) {
                    0 => {
                        s.insert(id, t);
                        r.insert_with_state(id, t, t, RangeSet::new(), None);
                    }
                    1 => {
                        let (access, modify) = (earlier(&mut rng, t), earlier(&mut rng, t));
                        s.insert_with_access(id, access, modify);
                        r.insert_with_state(id, access, modify, RangeSet::new(), None);
                    }
                    _ => {
                        let (access, modify) = (earlier(&mut rng, t), earlier(&mut rng, t));
                        let dirty = random_dirty(&mut rng, id);
                        let since = rng.gen_bool(0.7).then(|| earlier(&mut rng, modify));
                        s.insert_with_state(id, access, modify, dirty.clone(), since);
                        r.insert_with_state(id, access, modify, dirty, since);
                    }
                }
            }
            // Touches, mostly at the current time; a few go back in time.
            (true, 0..=29) => {
                let at = if rng.gen_bool(0.9) {
                    t
                } else {
                    earlier(&mut rng, t)
                };
                s.touch(id, at);
                r.touch(id, at);
            }
            (true, 30..=49) => {
                let range = random_range(&mut rng, id);
                assert_eq!(s.mark_dirty(id, range, t), r.mark_dirty(id, range, t));
            }
            (_, 50..=69) => {
                let range = random_range(&mut rng, id);
                assert_eq!(s.kill_dirty(id, range), r.kill_dirty(id, range));
            }
            (_, 70..=84) => assert_eq!(s.clean(id), r.clean(id)),
            _ => {
                let (ours, theirs) = (s.remove(id), r.remove(id));
                assert_eq!(ours.is_some(), theirs.is_some());
                if let (Some(o), Some(n)) = (ours, theirs) {
                    assert_eq!(o.dirty, n.dirty);
                    assert_eq!(
                        (o.last_access, o.last_modify, o.dirty_since),
                        (n.last_access, n.last_modify, n.dirty_since)
                    );
                }
            }
        }
        assert_same(&mut s, &r, t);
    }
}

#[test]
fn block_store_matches_the_naive_reference() {
    for next_modify in [false, true] {
        for capacity in [1, 2, 7, 64] {
            for seed in 0..16 {
                run_sequence(seed, capacity, next_modify);
            }
        }
    }
}
