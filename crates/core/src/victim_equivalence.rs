//! Index-vs-scan equivalence for omniscient victim selection: the
//! next-modify index in [`BlockStore`](crate::block_store::BlockStore)
//! must pick exactly the victim that a scan of every resident block
//! against the schedule picks, at every eviction.
//!
//! In test builds [`Policy::pick_victim`](crate::policy::Policy) checks
//! each omniscient pick against the scan (see `policy::audit`), so these
//! tests only have to drive the engine through the cases that move a
//! block's true next-modify time without a store event: truncations that
//! leave the block resident, deletes, writes by other clients to shared
//! files, and writes while caching is disabled. A forced-serial hook keeps
//! every pick on the test thread, so the audit's pick count is exact.

use std::collections::BTreeMap;

use nvfs_rng::{Rng, SeedableRng, StdRng};
use nvfs_trace::event::OpenMode;
use nvfs_trace::op::{Op, OpKind, OpStream};
use nvfs_types::{ByteRange, ClientId, FileId, SimDuration, SimTime, BLOCK_SIZE};

use crate::config::{ConsistencyMode, PolicyKind, SimConfig};
use crate::policy::audit;
use crate::session::{RunHook, SimSession};

/// Declining `shard_barriers` (the trait default) pins the serial loop.
struct ForceSerial;
impl RunHook for ForceSerial {}

/// Reports the seed of a failing stream when the audit panics.
struct SeedGuard(u64);
impl Drop for SeedGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("victim index diverged on seed {}", self.0);
        }
    }
}

const CLIENTS: u32 = 3;
const FILES: u32 = 16;
const FILE_BLOCKS: u64 = 24;

/// A random multi-client stream over a few shared files: opens, reads,
/// writes, truncates, deletes and fsyncs, with repeated timestamps and
/// gaps long enough for the cleaner to run.
fn random_stream(seed: u64, len: usize) -> OpStream {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = SimTime::ZERO;
    let mut ops = OpStream::new();
    for _ in 0..len {
        t += SimDuration::from_millis(match rng.gen_range(0..10u32) {
            0..=2 => 0,
            3..=8 => rng.gen_range(1..2_000u64),
            _ => rng.gen_range(20_000..40_000u64),
        });
        let client = ClientId(rng.gen_range(0..CLIENTS));
        let file = FileId(rng.gen_range(0..FILES));
        let start = rng.gen_range(0..FILE_BLOCKS * BLOCK_SIZE);
        let range = ByteRange::at(start, rng.gen_range(1..3 * BLOCK_SIZE));
        let kind = match rng.gen_range(0..100u32) {
            0..=39 => OpKind::Write { file, range },
            40..=59 => OpKind::Read { file, range },
            60..=69 => OpKind::Open {
                file,
                mode: [OpenMode::Read, OpenMode::Write, OpenMode::ReadWrite]
                    [rng.gen_range(0..3usize)],
            },
            70..=79 => OpKind::Close { file },
            80..=87 => OpKind::Truncate {
                file,
                new_len: rng.gen_range(0..FILE_BLOCKS) * BLOCK_SIZE + rng.gen_range(0..2u64),
            },
            88..=89 => OpKind::Delete { file },
            _ => OpKind::Fsync { file },
        };
        ops.push(Op {
            time: t,
            client,
            kind,
        });
    }
    ops
}

/// The three NVRAM models under the omniscient policy. Write-aside NVRAM
/// only mirrors dirty volatile blocks, so the volatile cache is sized to
/// let every NVRAM size fill.
fn omniscient_configs(nvram_blocks: u64) -> [(&'static str, SimConfig); 3] {
    let (vol, nv) = (
        (8 + 2 * nvram_blocks) * BLOCK_SIZE,
        nvram_blocks * BLOCK_SIZE,
    );
    [
        ("write-aside", SimConfig::write_aside(vol, nv)),
        ("unified", SimConfig::unified(vol, nv)),
        ("hybrid", SimConfig::hybrid(vol, nv)),
    ]
    .map(|(name, c)| (name, c.with_policy(PolicyKind::Omniscient)))
}

/// Every model × NVRAM size × consistency protocol over seeded random
/// streams: the audit checks every eviction, and every model and size
/// evicts on some stream, so the check means something everywhere.
#[test]
fn index_victim_matches_scan_on_random_streams() {
    let mut picks = BTreeMap::new();
    for seed in 0..24u64 {
        let _guard = SeedGuard(seed);
        let ops = random_stream(seed, 1200);
        let mode = if seed % 2 == 0 {
            ConsistencyMode::WholeFile
        } else {
            ConsistencyMode::BlockOnDemand
        };
        for nvram_blocks in [1, 2, 7, 64] {
            for (name, config) in omniscient_configs(nvram_blocks) {
                let config = config.with_consistency(mode);
                let before = audit::picks();
                SimSession::new(&config).run(&ops, &mut [&mut ForceSerial]);
                *picks.entry((name, nvram_blocks)).or_insert(0) += audit::picks() - before;
            }
        }
    }
    for ((name, nvram_blocks), n) in picks {
        assert!(
            n > 0,
            "{name} with {nvram_blocks} NVRAM blocks never evicted"
        );
    }
}

/// The same streams through the default (sharded-eligible) drive loop
/// give the same stats as the serial loop, so the index also holds where
/// shard windows replay a client's ops out of global order.
#[test]
fn index_victim_is_drive_loop_invariant() {
    for seed in 0..4u64 {
        let _guard = SeedGuard(seed);
        let ops = random_stream(seed, 300);
        for (name, config) in omniscient_configs(2) {
            let serial = SimSession::new(&config).run(&ops, &mut [&mut ForceSerial]);
            let default = SimSession::new(&config).run(&ops, &mut []);
            assert_eq!(serial.stats, default.stats, "{name}, seed {seed}");
        }
    }
}
