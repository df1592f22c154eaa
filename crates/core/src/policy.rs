//! NVRAM block replacement policies (§2.5).
//!
//! The paper compares three policies for choosing which NVRAM block to
//! flush when an incoming write needs space: LRU, uniformly random (a
//! sensitivity check — it turns out to work almost as well), and the
//! unrealizable omniscient policy that evicts the block whose next
//! modification is furthest in the future.
//!
//! The omniscient policy keeps no state of its own: the store it picks
//! from maintains a next-modify index over the prebuilt
//! [`OmniscientSchedule`](crate::omniscient::OmniscientSchedule) (see
//! [`BlockStore::with_next_modify`]), which yields exactly the victim a
//! scan of every resident block would, in O(log n) per pick. Unit tests
//! check every omniscient pick against that scan.

use nvfs_rng::{Rng, SeedableRng, StdRng};

use nvfs_types::{BlockId, SimTime};

use crate::block_store::BlockStore;
use crate::config::PolicyKind;

/// A stateful replacement policy instance.
#[derive(Debug, Clone)]
pub enum Policy {
    /// Least-recently used.
    Lru,
    /// Uniformly random, with deterministic seeded state (boxed: the
    /// generator state dwarfs the other variants).
    Random(Box<StdRng>),
    /// Next-modify-furthest-in-future, answered by the store's
    /// next-modify index.
    Omniscient,
}

impl Policy {
    /// Instantiates the policy described by `kind`.
    pub fn from_kind(kind: PolicyKind) -> Self {
        match kind {
            PolicyKind::Lru => Policy::Lru,
            PolicyKind::Random { seed } => Policy::Random(Box::new(StdRng::seed_from_u64(seed))),
            PolicyKind::Omniscient => Policy::Omniscient,
        }
    }

    /// Chooses a victim block in `store`, or `None` if the store is empty.
    ///
    /// # Panics
    ///
    /// The omniscient policy panics if `store` was not built with
    /// [`BlockStore::with_next_modify`].
    pub fn pick_victim(&mut self, store: &mut BlockStore, now: SimTime) -> Option<BlockId> {
        if store.is_empty() {
            return None;
        }
        match self {
            Policy::Lru => store.lru_block().map(|(id, _)| id),
            Policy::Random(rng) => store.nth_block(rng.gen_range(0..store.len())),
            Policy::Omniscient => {
                let victim = store.furthest_next_modify(now);
                #[cfg(test)]
                audit::check(store, now, victim);
                victim
            }
        }
    }
}

/// Test-build audit: every omniscient pick is checked against the scan
/// the index replaces.
#[cfg(test)]
pub(crate) mod audit {
    use std::cell::Cell;

    use super::*;

    thread_local! {
        static PICKS: Cell<u64> = const { Cell::new(0) };
    }

    /// Asserts that `victim` is the scan's victim, and counts the pick.
    pub(crate) fn check(store: &BlockStore, now: SimTime, victim: Option<BlockId>) {
        assert_eq!(
            victim,
            store.furthest_next_modify_scan(now),
            "next-modify index diverged from the scan at {now}"
        );
        assert!(store.check_invariants(), "store invariants broken at {now}");
        PICKS.set(PICKS.get() + 1);
    }

    /// Omniscient picks audited so far on this thread.
    pub(crate) fn picks() -> u64 {
        PICKS.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::omniscient::OmniscientSchedule;
    use nvfs_trace::op::{Op, OpKind, OpStream};
    use nvfs_types::{ByteRange, ClientId, FileId};
    use std::sync::Arc;

    fn fill(mut s: BlockStore, n: u64) -> BlockStore {
        for i in 0..n {
            s.insert(BlockId::new(FileId(0), i), SimTime::from_secs(i + 1));
        }
        s
    }

    fn store_with(n: u64) -> BlockStore {
        fill(BlockStore::new(n as usize), n)
    }

    #[test]
    fn lru_picks_oldest_access() {
        let mut p = Policy::from_kind(PolicyKind::Lru);
        let mut s = store_with(3);
        assert_eq!(
            p.pick_victim(&mut s, SimTime::ZERO),
            Some(BlockId::new(FileId(0), 0))
        );
    }

    #[test]
    fn random_is_deterministic_per_seed_and_in_range() {
        let mut s = store_with(8);
        let mut picks = |seed| {
            let mut p = Policy::from_kind(PolicyKind::Random { seed });
            (0..10)
                .map(|_| p.pick_victim(&mut s, SimTime::ZERO).unwrap())
                .collect::<Vec<_>>()
        };
        let (picks_a, picks_b) = (picks(9), picks(9));
        assert_eq!(picks_a, picks_b);
        assert!(picks_a.iter().all(|b| b.index < 8));
        // Not all identical (it really is random).
        assert!(picks_a.iter().any(|b| b != &picks_a[0]));
    }

    #[test]
    fn omniscient_picks_furthest_next_modify() {
        // Block 0 is rewritten soon, block 1 never again, block 2 later.
        let ops: OpStream = vec![
            Op {
                time: SimTime::from_secs(10),
                client: ClientId(0),
                kind: OpKind::Write {
                    file: FileId(0),
                    range: ByteRange::new(0, 100),
                },
            },
            Op {
                time: SimTime::from_secs(50),
                client: ClientId(0),
                kind: OpKind::Write {
                    file: FileId(0),
                    range: ByteRange::at(8192, 100),
                },
            },
        ]
        .into_iter()
        .collect();
        let schedule = Arc::new(OmniscientSchedule::build(&ops));
        let mut p = Policy::from_kind(PolicyKind::Omniscient);
        let mut s = fill(BlockStore::with_next_modify(3, schedule), 3);
        // Block 1 (never modified) is the ideal victim.
        assert_eq!(
            p.pick_victim(&mut s, SimTime::ZERO),
            Some(BlockId::new(FileId(0), 1))
        );
    }

    #[test]
    fn empty_store_yields_none() {
        let mut p = Policy::from_kind(PolicyKind::Lru);
        assert_eq!(p.pick_victim(&mut BlockStore::new(4), SimTime::ZERO), None);
    }

    #[test]
    #[should_panic(expected = "next-modify index")]
    fn omniscient_without_index_panics() {
        let _ = Policy::Omniscient.pick_victim(&mut store_with(1), SimTime::ZERO);
    }
}
