//! Intra-run parallel drive loop: client-sharded op replay.
//!
//! The serial [`SimSession`](crate::SimSession) loop replays one op at a
//! time against the whole cluster. Almost all of that state is
//! per-client — caches, NVRAM boards, dirty `RangeSet`s, the write log —
//! and almost all ops touch exactly one client's slice of it. This
//! module exploits that: the op stream is split into **windows** between
//! synchronization boundaries, each window is partitioned by client, and
//! the partitions replay concurrently through [`nvfs_par::par_map`].
//!
//! # Why the output is byte-identical
//!
//! The only cross-client state is the [`ConsistencyServer`], and its
//! state per file is driven only by the ops touching that file. One
//! static pass classifies every file:
//!
//! - **Entangled** — touched by two or more clients with at least one
//!   write-ish op (write-mode open, write, truncate, delete, fsync), or
//!   named by a `Migrate`. Every op on an entangled file is a **global
//!   op**: it ends the current window and replays on the driver thread
//!   against the full cluster and the one true server, in stream order —
//!   exactly like the serial loop.
//! - **Everything else** is private to one client or read-only-shared.
//!   For these files the server's per-file state machine is either dead
//!   (`last_writer` can only equal the sole toucher, and every consumer
//!   compares it against the acting client) or trivially per-client, so
//!   each shard replays its ops against a private **replica** server and
//!   reaches the same outcomes the global server would.
//!
//! The 5-second cleaner also shards: each client gets its own tick
//! cursor, advanced lazily to its next op's time. A tick's effect
//! depends only on the tick time (the write-back cutoff is
//! `tick - delay`), not on when it is evaluated, so deferring another
//! client's ticks until its own next op — or the next boundary — flushes
//! the same blocks at the same simulated times. Cleaner flushes of
//! entangled files queue a `note_flush` for the global server; clearing
//! a last-writer record is commutative, so application order within a
//! window does not matter. Per-shard [`TrafficStats`] deltas are summed
//! (all-`u64`, commutative), and per-shard write logs live in the caches
//! themselves, which travel with the shard.
//!
//! Hooks participate through [`RunHook::shard_barriers`]: a hook either
//! declares the op indices where it must interpose on the synchronized
//! cluster (a **barrier**: every client's ticks advance to the previous
//! op's time, then `before_op` runs with the full engine — exactly the
//! serial interleaving), or returns `None` and forces the always-correct
//! serial loop. Fault injection is serial; warm-up resets barrier once.
//!
//! The sharded loop runs at *every* job count — `--jobs 1` takes the
//! same windows, the same task frames, and the same merge order, so all
//! observability output is jobs-invariant by construction.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use nvfs_trace::op::{Op, OpKind, OpStream};
use nvfs_types::{ClientId, FileId, SimDuration, SimTime};

use crate::client::ClientCache;
use crate::config::SimConfig;
use crate::consistency::ConsistencyServer;
use crate::metrics::TrafficStats;
use crate::omniscient::OmniscientSchedule;
use crate::session::{dispatch, OpAction, RunHook, SessionEvent, SimEngine};

/// Windows smaller than this replay inline on the driver thread: the
/// fixed cost of spawning task frames outweighs the win. The threshold
/// depends only on the window's shape, never on the job count, so the
/// choice is jobs-invariant.
const MIN_PAR_WINDOW_OPS: usize = 256;

/// Gathers every hook's barrier declaration. `None` as soon as any hook
/// declines ([`RunHook::shard_barriers`] default): the run must stay on
/// the serial loop.
pub(crate) fn collect_barriers(
    hooks: &[&mut dyn RunHook],
    n_ops: usize,
) -> Option<BTreeSet<usize>> {
    let mut out = BTreeSet::new();
    for hook in hooks {
        out.extend(hook.shard_barriers(n_ops)?);
    }
    Some(out)
}

/// Cleaner constants lifted out of the config for cheap copying into
/// shard tasks.
#[derive(Clone, Copy)]
struct CleanerParams {
    run: bool,
    period: SimDuration,
    delay: SimDuration,
}

/// Per-client shard state that stays on the driver thread between
/// windows (the cache itself lives in `engine.clients` and is moved in
/// and out of parallel window tasks).
struct ShardSlot<'a> {
    replica: ConsistencyServer,
    next_tick: SimTime,
    /// This window's ops for the client (cleared after every window; the
    /// buffer is reused to keep the loop allocation-free).
    ops: Vec<&'a Op>,
}

/// Driver-side scratch for the sharded run.
struct ShardState<'a> {
    entangled: BTreeSet<FileId>,
    slots: BTreeMap<ClientId, ShardSlot<'a>>,
    /// Clients with ops in the window being assembled, in first-op order.
    touched: Vec<ClientId>,
    /// Queued `note_flush`es of entangled files (cleaner ticks inside
    /// shards cannot touch the global server); drained before any
    /// global op or barrier. Clearing last-writer records commutes, so
    /// the queue order is irrelevant.
    global_flushes: Vec<(ClientId, FileId)>,
    /// Reused buffers for the driver-thread (inline) paths.
    scratch_files: Vec<FileId>,
    scratch_pending: Vec<SessionEvent>,
    sched: Option<Arc<OmniscientSchedule>>,
}

/// One client's moved state for a parallel window task.
struct ShardTask<'a> {
    client: ClientId,
    cache: ClientCache,
    replica: ConsistencyServer,
    next_tick: SimTime,
    ops: Vec<&'a Op>,
}

/// What a window task hands back: the moved state plus its commutative
/// merge payload.
struct ShardOutcome<'a> {
    task: ShardTask<'a>,
    stats: TrafficStats,
    global_flushes: Vec<(ClientId, FileId)>,
}

/// Whether `op` must replay on the driver thread against the full
/// cluster: every `Migrate`, and every op on an entangled file.
fn op_is_global(op: &Op, entangled: &BTreeSet<FileId>) -> bool {
    match op.file() {
        Some(file) => entangled.contains(&file),
        None => true, // Migrate: multi-file flush + global note_flush
    }
}

/// One static pass over the stream: a file is entangled when two or more
/// distinct clients touch it and at least one op is write-ish, or when a
/// `Migrate` names it. Read-only sharing stays shardable — it never sets
/// a last-writer record or disables caching.
fn classify_entangled(ops: &OpStream) -> BTreeSet<FileId> {
    struct Touch {
        first: ClientId,
        multi: bool,
        write_ish: bool,
    }
    let mut touches: BTreeMap<FileId, Touch> = BTreeMap::new();
    let mut entangled = BTreeSet::new();
    for op in ops.iter() {
        let write_ish = match &op.kind {
            OpKind::Open { mode, .. } => mode.is_write(),
            OpKind::Write { .. }
            | OpKind::Truncate { .. }
            | OpKind::Delete { .. }
            | OpKind::Fsync { .. } => true,
            OpKind::Close { .. } | OpKind::Read { .. } => false,
            OpKind::Migrate { files, .. } => {
                entangled.extend(files.iter().copied());
                continue;
            }
        };
        let file = op.file().expect("non-migrate ops name one file");
        let t = touches.entry(file).or_insert(Touch {
            first: op.client,
            multi: false,
            write_ish: false,
        });
        t.multi |= t.first != op.client;
        t.write_ish |= write_ish;
    }
    for (file, t) in touches {
        if t.multi && t.write_ish {
            entangled.insert(file);
        }
    }
    entangled
}

/// Advances one client's cleaner cursor to `now`: ticks fire at the
/// same simulated times the serial loop would fire them, flushing into
/// the shard's replica (or queueing entangled flushes for the global
/// server). When the cache holds nothing the cleaner could act on, the
/// cursor jumps over the idle gap arithmetically — ticks on a clean
/// cache are no-ops, and the cursor stays on the same tick grid.
#[allow(clippy::too_many_arguments)]
fn advance_client(
    p: CleanerParams,
    client: ClientId,
    cache: &mut ClientCache,
    next_tick: &mut SimTime,
    now: SimTime,
    replica: &mut ConsistencyServer,
    entangled: &BTreeSet<FileId>,
    stats: &mut TrafficStats,
    global_flushes: &mut Vec<(ClientId, FileId)>,
    scratch: &mut Vec<FileId>,
) {
    if !p.run {
        return;
    }
    while *next_tick <= now {
        if !cache.cleaner_pending() {
            let gap = now.as_micros() - next_tick.as_micros();
            let steps = gap / p.period.as_micros() + 1;
            *next_tick = SimTime::from_micros(next_tick.as_micros() + steps * p.period.as_micros());
            return;
        }
        let tick = *next_tick;
        if tick >= SimTime::ZERO + p.delay {
            let cutoff = tick - p.delay;
            cache.writeback_older_than_into(cutoff, tick, stats, scratch);
            for &file in scratch.iter() {
                if entangled.contains(&file) {
                    global_flushes.push((client, file));
                } else {
                    replica.note_flush(file, client);
                }
            }
        }
        *next_tick += p.period;
    }
}

/// Runs the drive loop sharded by client. Preconditions (checked by the
/// caller, [`crate::SimSession::run`]): every hook returned barriers,
/// no hook wants flush events, event tracing is off, and the stream is
/// non-empty. The engine is left in exactly the state the serial loop
/// would leave it in.
pub(crate) fn run_sharded(
    engine: &mut SimEngine<'_>,
    ops: &OpStream,
    hooks: &mut [&mut dyn RunHook],
    barriers: &BTreeSet<usize>,
) {
    let slice = ops.as_slice();
    let n = slice.len();
    let p = CleanerParams {
        run: engine.run_cleaner,
        period: engine.config.cleaner_period,
        delay: engine.config.write_back_delay,
    };

    let mut st = ShardState {
        entangled: classify_entangled(ops),
        slots: BTreeMap::new(),
        touched: Vec::new(),
        global_flushes: Vec::new(),
        scratch_files: Vec::new(),
        scratch_pending: Vec::new(),
        sched: engine.policy_schedule.clone(),
    };

    // Eagerly create one cache + replica + tick cursor per client in the
    // stream. The serial loop creates caches lazily, but an untouched
    // empty cache is observably inert (no dirty bytes, zero counters,
    // no-op broadcasts), so eager creation changes no output.
    for op in ops.iter() {
        let c = op.client;
        st.slots.entry(c).or_insert_with(|| ShardSlot {
            replica: ConsistencyServer::with_mode(engine.config.consistency),
            next_tick: SimTime::ZERO + engine.config.cleaner_period,
            ops: Vec::new(),
        });
        let config = engine.config;
        let sched = &st.sched;
        engine
            .clients
            .entry(c)
            .or_insert_with(|| ClientCache::new(config, sched.as_ref(), c));
    }

    let mut start = 0usize;
    for (i, op) in slice.iter().enumerate() {
        let is_barrier = barriers.contains(&i);
        let is_global = op_is_global(op, &st.entangled);
        if !is_barrier && !is_global {
            continue;
        }

        run_window(engine, &mut st, slice, start, i, p);
        drain_global_flushes(engine, &mut st);
        start = i + 1;

        if is_barrier {
            // Synchronize the cluster to just before this op — the tick
            // state the serial loop has when it calls `before_op(i)` —
            // then give every hook the full engine.
            if i > 0 {
                advance_all(engine, &mut st, slice[i - 1].time, p);
                drain_global_flushes(engine, &mut st);
            }
            engine.ops_replayed = i as u64 + 1;
            engine.sim_end = op.time;
            let mut action = OpAction::Apply;
            for hook in hooks.iter_mut() {
                if hook.before_op(engine, i, op) == OpAction::Skip {
                    action = OpAction::Skip;
                }
            }
            dispatch(engine, hooks);
            if action == OpAction::Skip {
                continue; // op suppressed; its window assignment lapses
            }
            if !is_global {
                // A shardable op at a barrier index joins the next
                // window (its shard advances its own ticks to op time
                // before applying, same as the serial cleaner would).
                start = i;
                continue;
            }
        }

        // Global op: advance every client to op time (the serial loop's
        // `advance_cleaner` does exactly this before applying), then
        // replay against the full cluster and the one true server.
        advance_all(engine, &mut st, op.time, p);
        drain_global_flushes(engine, &mut st);
        engine.apply_op(op);
    }

    run_window(engine, &mut st, slice, start, n, p);
    drain_global_flushes(engine, &mut st);
    let end = slice[n - 1].time;
    advance_all(engine, &mut st, end, p);
    drain_global_flushes(engine, &mut st);

    engine.ops_replayed = n as u64;
    engine.sim_end = end;
    if p.run {
        // All cursors were just advanced to `end`, so they agree on the
        // next grid point — which is where the serial loop's single
        // cursor would stand.
        let tick = st
            .slots
            .values()
            .next()
            .map(|s| s.next_tick)
            .expect("non-empty stream has clients");
        debug_assert!(st.slots.values().all(|s| s.next_tick == tick));
        engine.next_tick = tick;
    }
}

/// Replays `slice[start..end]` (no global ops inside) through the client
/// shards: small windows inline on the driver thread in stream order,
/// large ones partitioned by client and fanned out through `par_map`.
/// Both paths produce identical state; the choice depends only on the
/// window's shape, so it is jobs-invariant.
fn run_window<'a>(
    engine: &mut SimEngine<'_>,
    st: &mut ShardState<'a>,
    slice: &'a [Op],
    start: usize,
    end: usize,
    p: CleanerParams,
) {
    if start >= end {
        return;
    }
    let ShardState {
        entangled,
        slots,
        touched,
        global_flushes,
        scratch_files,
        scratch_pending,
        sched,
    } = st;
    let SimEngine {
        config,
        clients,
        stats,
        ..
    } = engine;
    let config: &SimConfig = config;
    let entangled: &BTreeSet<FileId> = entangled;
    let sched: &Option<Arc<OmniscientSchedule>> = sched;

    if end - start < MIN_PAR_WINDOW_OPS {
        // Inline: same per-shard routing, driver thread, stream order.
        for op in &slice[start..end] {
            let c = op.client;
            let slot = slots.get_mut(&c).expect("slots cover every client");
            let cache = clients.get_mut(&c).expect("caches cover every client");
            advance_client(
                p,
                c,
                cache,
                &mut slot.next_tick,
                op.time,
                &mut slot.replica,
                entangled,
                stats,
                global_flushes,
                scratch_files,
            );
            SimEngine::apply_op_parts(
                config,
                sched,
                clients,
                &mut slot.replica,
                stats,
                scratch_pending,
                false,
                op,
            );
            debug_assert!(scratch_pending.is_empty());
        }
        return;
    }

    // Partition the window by client, preserving per-client stream order.
    for op in &slice[start..end] {
        let slot = slots.get_mut(&op.client).expect("slots cover every client");
        if slot.ops.is_empty() {
            touched.push(op.client);
        }
        slot.ops.push(op);
    }
    touched.sort_unstable();

    let tasks: Vec<ShardTask<'_>> = touched
        .drain(..)
        .map(|c| {
            let slot = slots.get_mut(&c).expect("touched client has a slot");
            ShardTask {
                client: c,
                cache: clients.remove(&c).expect("touched client has a cache"),
                replica: std::mem::take(&mut slot.replica),
                next_tick: slot.next_tick,
                ops: std::mem::take(&mut slot.ops),
            }
        })
        .collect();

    let outcomes = nvfs_par::par_map(tasks, nvfs_par::jobs(), |mut task| {
        let mut stats = TrafficStats::default();
        let mut global_flushes = Vec::new();
        let mut scratch = Vec::new();
        let mut pending = Vec::new();
        let mut lone = BTreeMap::new();
        lone.insert(task.client, task.cache);
        for op in task.ops.drain(..) {
            let cache = lone.get_mut(&task.client).expect("cache stays resident");
            advance_client(
                p,
                task.client,
                cache,
                &mut task.next_tick,
                op.time,
                &mut task.replica,
                entangled,
                &mut stats,
                &mut global_flushes,
                &mut scratch,
            );
            SimEngine::apply_op_parts(
                config,
                sched,
                &mut lone,
                &mut task.replica,
                &mut stats,
                &mut pending,
                false,
                op,
            );
            debug_assert!(pending.is_empty());
        }
        task.cache = lone.remove(&task.client).expect("cache stays resident");
        ShardOutcome {
            task,
            stats,
            global_flushes,
        }
    });

    // Merge in submission order (ascending client id — deterministic,
    // and the stat sums are commutative anyway).
    for outcome in outcomes {
        let ShardOutcome {
            task,
            stats: delta,
            global_flushes: queued,
        } = outcome;
        let slot = slots.get_mut(&task.client).expect("slot persists");
        slot.replica = task.replica;
        slot.next_tick = task.next_tick;
        slot.ops = task.ops; // drained; buffer reused next window
        clients.insert(task.client, task.cache);
        *stats += delta;
        global_flushes.extend(queued);
    }
}

/// Advances every client's cleaner cursor to `now`. Per-client tick
/// effects are independent (own cache, own replica; entangled flushes
/// queue), so client-major order replays the same per-tick work the
/// serial tick-major loop does.
fn advance_all(
    engine: &mut SimEngine<'_>,
    st: &mut ShardState<'_>,
    now: SimTime,
    p: CleanerParams,
) {
    if !p.run {
        return;
    }
    let ShardState {
        entangled,
        slots,
        global_flushes,
        scratch_files,
        ..
    } = st;
    let SimEngine { clients, stats, .. } = engine;
    for (&c, cache) in clients.iter_mut() {
        let slot = slots.get_mut(&c).expect("slots cover every client");
        advance_client(
            p,
            c,
            cache,
            &mut slot.next_tick,
            now,
            &mut slot.replica,
            entangled,
            stats,
            global_flushes,
            scratch_files,
        );
    }
}

/// Applies queued entangled-file flushes to the global server. The
/// clears are commutative, so queue order never matters; they only need
/// to land before the next global op consults the server.
fn drain_global_flushes(engine: &mut SimEngine<'_>, st: &mut ShardState<'_>) {
    for (client, file) in st.global_flushes.drain(..) {
        engine.server.note_flush(file, client);
    }
}
