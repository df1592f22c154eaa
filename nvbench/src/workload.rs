//! The three workloads: their inputs, their fixed grid of simulation cells,
//! and how one cell drives the layers through their public functions.
//!
//! * `omniscient-sweep` — the Figure 3 grid. Loads victim selection
//!   (`policy`/`omniscient`); skips the server, LFS, WAL and fault hooks.
//! * `client-server` — client caches feeding an LFS server, LRU only.
//!   Loads the drive loop, block store, consistency server, the LFS
//!   segment writer both ways (fsync-forced buffer vs lazy WAL drains) and
//!   the disk model; skips the omniscient schedule and every fault hook.
//! * `fault-sweep` — network faults, crash points and corruption judged by
//!   the oracles, plus the WAL crash lattice. Loads RPC resolution,
//!   partitions, schedule compilation, the judges and scrub; uses LFS/WAL
//!   only for crash, truncate and replay.

use nvfs_core::{
    CacheModelKind, ClusterSim, OmniscientSchedule, PolicyKind, SimConfig, TrafficStats,
};
use nvfs_disk::DiskParams;
use nvfs_experiments::env::Env;
use nvfs_experiments::faults::{batteries_for, BASE_BYTES};
use nvfs_experiments::verify_crash::{crash_points, judge_wal_report, FLUSH_TICK, NVRAM_BLOCKS};
use nvfs_experiments::verify_net::{NetScheduleKind, WRITE_ASIDE_NVRAM};
use nvfs_experiments::verify_scrub::{corruption_plan, SCRUB_INTERVAL};
use nvfs_experiments::{fig3, lfs_wal_vs_buffer};
use nvfs_faults::corrupt::{CorruptionKind, CorruptionSchedule};
use nvfs_faults::net::NetFaultPlan;
use nvfs_faults::{FaultPlanConfig, FaultSchedule, WalCrashFault, WalCrashPoint};
use nvfs_lfs::wal_fs::{run_filesystem_wal, run_filesystem_wal_faulted, WalFsReport};
use nvfs_lfs::{run_filesystem, FsReport, LfsConfig, WalConfig};
use nvfs_nvram::protect::ProtectionMode;
use nvfs_server::e2e::server_workload_from_writes;
use nvfs_trace::synth::lfs_workload::{sprite_server_workloads, ServerWorkloadConfig};
use nvfs_trace::synth::{SpriteTraceSet, TraceSetConfig};
use nvfs_types::{ClientId, SimDuration, SimTime, BLOCK_SIZE};

use crate::digest::Fold;
use crate::spans::{timed, Tracer};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure 3: 8 traces × 7 NVRAM sizes under the omniscient policy.
    OmniscientSweep,
    /// Client caches → LFS server, paging buffer and WAL, LRU only.
    ClientServer,
    /// Net faults, crash points, corruption + scrub, WAL crash lattice.
    FaultSweep,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::OmniscientSweep,
        Workload::ClientServer,
        Workload::FaultSweep,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OmniscientSweep => "omniscient-sweep",
            Workload::ClientServer => "client-server",
            Workload::FaultSweep => "fault-sweep",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!("unknown workload {name:?} ({})", names.join("|"))
            })
    }

    /// Client-trace sizes: `TraceSetConfig::tiny()` with `seed`, and for
    /// the omniscient sweep one hour instead of two. Omniscient cost is
    /// heavy-tailed across seeds (traces 3 and 4 dominate), so shorter
    /// traces let a run average over more independent input sets in the
    /// same time. File sizes stay at `tiny`'s: with smaller files the
    /// working sets fit in NVRAM sooner and victim selection stops
    /// dominating the sweep.
    pub fn trace_config(self, seed: u64) -> TraceSetConfig {
        let tiny = TraceSetConfig {
            seed,
            ..TraceSetConfig::tiny()
        };
        match self {
            Workload::OmniscientSweep => TraceSetConfig { hours: 1, ..tiny },
            Workload::ClientServer | Workload::FaultSweep => tiny,
        }
    }

    /// Server-workload sizes: `ServerWorkloadConfig::tiny()` with `seed`.
    pub fn server_config(self, seed: u64) -> ServerWorkloadConfig {
        ServerWorkloadConfig {
            seed,
            ..ServerWorkloadConfig::tiny()
        }
    }

    /// The input sizes, as printed in a result's provenance.
    pub fn scale_label(self) -> String {
        let (t, s) = (self.trace_config(0), self.server_config(0));
        format!(
            "traces clients={} hours={} scale={}; server hours={} scale={}",
            t.clients, t.hours, t.scale, s.hours, s.scale
        )
    }
}

/// The cache models every client-side grid sweeps.
const MODELS: [CacheModelKind; 3] = [
    CacheModelKind::Volatile,
    CacheModelKind::WriteAside,
    CacheModelKind::Unified,
];

/// Corruption kinds the fault sweep injects under verified protection.
const CORRUPTIONS: [CorruptionKind; 2] = [CorruptionKind::StrayWrite, CorruptionKind::BitFlip];

/// One simulation in a workload's grid, with its compiled fault plans.
#[derive(Debug, Clone)]
pub enum Cell {
    /// Figure 3 point: `unified(8 MB, nvram)` with the omniscient policy.
    Omniscient {
        /// Trace index (0-based).
        trace: usize,
        /// NVRAM size in megabytes.
        nvram_mb: f64,
    },
    /// Client caches over a trace, then the server's LFS over what they
    /// sent, once with the fsync buffer and once in WAL mode.
    Pipeline {
        /// Trace index (0-based).
        trace: usize,
        /// Client cache model.
        model: CacheModelKind,
    },
    /// One server workload through the fsync buffer and through the WAL.
    ServerFs {
        /// Server workload index (0-based).
        fs: usize,
    },
    /// Network faults composed with client crashes, both judges on.
    NetFault {
        /// Trace index (0-based).
        trace: usize,
        /// Client cache model.
        model: CacheModelKind,
        /// Compiled partition/drop/duplicate plan.
        net: NetFaultPlan,
        /// Compiled client-crash schedule.
        crashes: FaultSchedule,
    },
    /// One pinned crash point, judged by the durability oracle.
    CrashPoint {
        /// Trace index (0-based).
        trace: usize,
        /// Client cache model.
        model: CacheModelKind,
        /// Crash schedule after `apply_crash_point`.
        schedule: FaultSchedule,
    },
    /// NVRAM corruption under verified protection with a background scrub.
    Corruption {
        /// Trace index (0-based).
        trace: usize,
        /// Client cache model.
        model: CacheModelKind,
        /// Crash schedule the corruption run composes with.
        schedule: FaultSchedule,
        /// Compiled stray-write or bit-flip schedule.
        corruption: CorruptionSchedule,
    },
    /// One point of the WAL crash lattice on one server workload.
    WalCrash {
        /// Server workload index (0-based).
        fs: usize,
        /// The crash.
        crash: WalCrashFault,
    },
}

impl Cell {
    /// Span name of the cell, by kind.
    pub fn kind(&self) -> &'static str {
        match self {
            Cell::Omniscient { .. } => "cell:omniscient",
            Cell::Pipeline { .. } => "cell:pipeline",
            Cell::ServerFs { .. } => "cell:server-fs",
            Cell::NetFault { .. } => "cell:net",
            Cell::CrashPoint { .. } => "cell:crash",
            Cell::Corruption { .. } => "cell:corruption",
            Cell::WalCrash { .. } => "cell:wal-crash",
        }
    }
}

/// A workload's generated inputs and its grid.
#[derive(Debug, Clone)]
pub struct Setup {
    /// The seed the inputs were generated from.
    pub seed: u64,
    /// Client traces and server workloads generated from the seed.
    pub env: Env,
    /// The grid, in the fixed order digests are folded in.
    pub cells: Vec<Cell>,
}

/// Generates the seeded client traces and server workloads.
fn generate_env(
    trace_config: TraceSetConfig,
    server_config: ServerWorkloadConfig,
    tracer: Option<&Tracer>,
) -> Env {
    let traces = timed(tracer, "trace.generate", None, None, || {
        SpriteTraceSet::generate(&trace_config)
    });
    let server = timed(tracer, "trace.server_workloads", None, None, || {
        sprite_server_workloads(&server_config)
    });
    Env {
        traces,
        server,
        trace_config,
    }
}

/// Builds a workload's inputs from `seed`: traces, server workloads and,
/// for the fault sweep, every compiled fault plan.
pub fn setup(workload: Workload, seed: u64, tracer: Option<&Tracer>) -> Result<Setup, String> {
    let env = generate_env(
        workload.trace_config(seed),
        workload.server_config(seed),
        tracer,
    );
    let cells = match workload {
        Workload::OmniscientSweep => omniscient_grid(&env),
        Workload::ClientServer => client_server_grid(&env),
        Workload::FaultSweep => timed(tracer, "faults.compile", None, None, || {
            fault_grid(&env, seed)
        })?,
    };
    Ok(Setup { seed, env, cells })
}

fn omniscient_grid(env: &Env) -> Vec<Cell> {
    (0..env.traces.traces().len())
        .flat_map(|trace| {
            fig3::NVRAM_MB
                .iter()
                .map(move |&nvram_mb| Cell::Omniscient { trace, nvram_mb })
        })
        .collect()
}

fn client_server_grid(env: &Env) -> Vec<Cell> {
    let mut cells = Vec::new();
    for trace in 0..env.traces.traces().len() {
        for model in MODELS {
            cells.push(Cell::Pipeline { trace, model });
        }
    }
    cells.extend((0..env.server.len()).map(|fs| Cell::ServerFs { fs }));
    cells
}

fn fault_grid(env: &Env, seed: u64) -> Result<Vec<Cell>, String> {
    let points = crash_points();
    let mut cells = Vec::new();
    for (trace, t) in env.traces.traces().iter().enumerate() {
        let (clients, duration) = (t.clients() as u32, t.duration());
        let run_seed = seed ^ t.number() as u64;
        for model in MODELS {
            let net_cfg = NetScheduleKind::PartitionCrash
                .plan(clients, duration)
                .with_duplicate_probability(0.1);
            let net = NetFaultPlan::compile(run_seed, &net_cfg).map_err(|e| e.to_string())?;
            let crashes = FaultSchedule::compile(run_seed, &crash_plan(clients, duration, model))
                .map_err(|e| e.to_string())?;
            cells.push(Cell::NetFault {
                trace,
                model,
                net,
                crashes: crashes.clone(),
            });
            // Rotate through the crash-point lattice so the grid covers
            // every point without multiplying its size.
            let point = points[(trace + model as usize) % points.len()];
            cells.push(Cell::CrashPoint {
                trace,
                model,
                schedule: crashes.apply_crash_point(point, FLUSH_TICK),
            });
            for kind in CORRUPTIONS {
                let corruption = CorruptionSchedule::compile(
                    run_seed,
                    &corruption_plan(clients, duration, kind),
                )
                .map_err(|e| e.to_string())?;
                cells.push(Cell::Corruption {
                    trace,
                    model,
                    schedule: crashes.apply_crash_point(point, FLUSH_TICK),
                    corruption,
                });
            }
        }
    }
    let micros = env.trace_config.duration().as_micros();
    for (point_idx, point) in WalCrashPoint::ALL.into_iter().enumerate() {
        for fs in 0..env.server.len() {
            // A seed- and case-varying quartile, as the WAL sweep of
            // `nvfs verify-crash` places its crashes.
            let quartile = 1 + ((seed ^ fs as u64 ^ point_idx as u64) % 3);
            let crash = WalCrashFault {
                time: SimTime::from_micros(micros * quartile / 4),
                point,
            };
            cells.push(Cell::WalCrash { fs, crash });
        }
    }
    Ok(cells)
}

/// Client-crash plan: half the clients crash, half the drains tear, and
/// batteries age on an accelerated clock (the `nvfs verify-crash` plan).
fn crash_plan(clients: u32, duration: SimDuration, model: CacheModelKind) -> FaultPlanConfig {
    let micros = duration.as_micros();
    FaultPlanConfig::new(clients, duration)
        .with_client_crashes((clients / 2).clamp(1, clients.max(1)))
        .with_batteries(batteries_for(model))
        .with_battery_mtbf(SimDuration::from_micros(micros.saturating_mul(4).max(1)))
        .with_torn_probability(0.5)
}

/// Client cache for the client-server pipeline: an 8 MB cache with a
/// 1 MB NVRAM board for the non-volatile models.
pub fn pipeline_config(model: CacheModelKind) -> SimConfig {
    match model {
        CacheModelKind::Volatile => SimConfig::volatile(BASE_BYTES),
        CacheModelKind::WriteAside => SimConfig::write_aside(BASE_BYTES, WRITE_ASIDE_NVRAM),
        CacheModelKind::Unified => SimConfig::unified(BASE_BYTES, WRITE_ASIDE_NVRAM),
        CacheModelKind::Hybrid => SimConfig::hybrid(BASE_BYTES, WRITE_ASIDE_NVRAM),
    }
}

/// Client cache for the fault sweep: a four-block board, so torn drains
/// cross interior block boundaries and corruption lands on live data.
fn fault_config(model: CacheModelKind) -> SimConfig {
    let nvram = NVRAM_BLOCKS * BLOCK_SIZE;
    match model {
        CacheModelKind::Volatile => SimConfig::volatile(BASE_BYTES),
        CacheModelKind::WriteAside => SimConfig::write_aside(BASE_BYTES, nvram),
        CacheModelKind::Unified => SimConfig::unified(BASE_BYTES, nvram),
        CacheModelKind::Hybrid => SimConfig::hybrid(BASE_BYTES, nvram),
    }
}

/// The Figure 3 configuration for one NVRAM size.
fn omniscient_config(nvram_mb: f64, policy: PolicyKind) -> SimConfig {
    let nvram = (nvram_mb * (1 << 20) as f64) as u64;
    SimConfig::unified(fig3::VOLATILE_BYTES, nvram).with_policy(policy)
}

/// The server's paging write buffer (§3): a ½ MB NVRAM fsync buffer.
pub fn buffer_config() -> LfsConfig {
    LfsConfig::with_fsync_buffer(lfs_wal_vs_buffer::NVRAM_BYTES)
}

/// The server's NVRAM write-ahead log, the same ½ MB of NVRAM.
pub fn wal_config() -> WalConfig {
    WalConfig {
        log_capacity: lfs_wal_vs_buffer::NVRAM_BYTES,
        ..WalConfig::sprite()
    }
}

/// What one cell leaves behind for the correctness gate and the metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellOut {
    /// Digest of the cell's deterministic outputs.
    pub digest: u64,
    /// Judge violations plus broken identities (0 when correct).
    pub violations: u64,
    /// Simulated ops replayed: client trace ops plus LFS workload ops.
    pub sim_ops: u64,
    /// Disk write requests the disk model charged (segment writes).
    pub disk_requests: u64,
}

/// How a cell is being run: with or without spans, and whether the traced
/// run's attribution calls (the comparison runs that split a layer's cost
/// out of a composed call) run beside the cell's own calls.
#[derive(Debug, Clone, Copy)]
pub struct Probe<'t> {
    tracer: Option<&'t Tracer>,
    parent: Option<u64>,
    cell: Option<u32>,
    attribute: bool,
}

impl<'t> Probe<'t> {
    /// An untraced probe.
    pub fn plain() -> Probe<'static> {
        Probe {
            tracer: None,
            parent: None,
            cell: None,
            attribute: false,
        }
    }

    /// A probe for cell `cell`, under the span `parent`.
    pub fn traced(tracer: &'t Tracer, parent: u64, cell: u32, attribute: bool) -> Self {
        Probe {
            tracer: Some(tracer),
            parent: Some(parent),
            cell: Some(cell),
            attribute,
        }
    }

    fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        timed(self.tracer, name, self.parent, self.cell, f)
    }

    /// Runs `f` only in attribution passes, inside a span.
    fn attribute(&self, name: &'static str, f: impl FnOnce()) {
        if self.attribute {
            self.time(name, f);
        }
    }
}

/// A Figure 3 cell: the omniscient run, plus in attribution passes the
/// schedule build and the same cell under LRU.
pub fn omniscient_cell(env: &Env, trace: usize, nvram_mb: f64, probe: &Probe<'_>) -> TrafficStats {
    let ops = env.traces.trace(trace).ops();
    let sim = ClusterSim::new(omniscient_config(nvram_mb, PolicyKind::Omniscient));
    let stats = probe.time("core.run", || sim.run(ops));
    probe.attribute("core.omniscient_build", || {
        std::hint::black_box(OmniscientSchedule::build(ops));
    });
    probe.attribute("attr.lru_run", || {
        let lru = ClusterSim::new(omniscient_config(nvram_mb, PolicyKind::Lru));
        std::hint::black_box(lru.run(ops));
    });
    stats
}

/// What a pipeline cell produces.
#[derive(Debug, Clone)]
pub struct PipelineOut {
    /// Client-side traffic.
    pub client: TrafficStats,
    /// The server's LFS with the fsync buffer.
    pub buffered: FsReport,
    /// The server's LFS in WAL mode.
    pub logged: WalFsReport,
    /// Ops in the server workload the clients' writes became.
    pub server_ops: usize,
}

/// A client-server cell, composed from the layers' own calls exactly as
/// `client_server_pipeline` and `client_server_pipeline_wal` compose them,
/// with the client run and the conversion shared between the two servers.
pub fn pipeline_cell(
    env: &Env,
    trace: usize,
    model: CacheModelKind,
    probe: &Probe<'_>,
) -> PipelineOut {
    let ops = env.traces.trace(trace).ops();
    let sim = ClusterSim::new(pipeline_config(model));
    let (client, writes) = probe.time("core.run", || sim.run_detailed(ops));
    let workload = probe.time("server.convert", || server_workload_from_writes(&writes));
    let buffered = probe.time("lfs.run", || run_filesystem(&workload, &buffer_config()));
    let logged = probe.time("wal.run", || run_filesystem_wal(&workload, &wal_config()));
    PipelineOut {
        client,
        buffered,
        logged,
        server_ops: workload.ops.len(),
    }
}

/// Runs one cell through the layers' public functions and digests its
/// outputs.
pub fn run_cell(env: &Env, cell: &Cell, probe: &Probe<'_>) -> CellOut {
    let mut d = Fold::new();
    let mut violations = 0;
    let mut disk_requests = 0;
    let sim_ops = match cell {
        Cell::Omniscient { trace, nvram_mb } => {
            d.traffic(&omniscient_cell(env, *trace, *nvram_mb, probe));
            env.traces.trace(*trace).ops().len() as u64
        }
        Cell::Pipeline { trace, model } => {
            let out = pipeline_cell(env, *trace, *model, probe);
            d.traffic(&out.client);
            d.fs(&out.buffered);
            d.wal(&out.logged);
            disk_requests += d.disk(probe, &[&out.buffered, &out.logged.fs]);
            (env.traces.trace(*trace).ops().len() + 2 * out.server_ops) as u64
        }
        Cell::ServerFs { fs } => {
            let workload = &env.server[*fs];
            let buffered = probe.time("lfs.run", || run_filesystem(workload, &buffer_config()));
            let logged = probe.time("wal.run", || run_filesystem_wal(workload, &wal_config()));
            d.fs(&buffered);
            d.wal(&logged);
            disk_requests += d.disk(probe, &[&buffered, &logged.fs]);
            2 * workload.ops.len() as u64
        }
        Cell::NetFault {
            trace,
            model,
            net,
            crashes,
        } => {
            let ops = env.traces.trace(*trace).ops();
            let sim = ClusterSim::new(fault_config(*model));
            let (report, oracle) = probe.time("core.run", || {
                sim.run_with_net_faults_verified(ops, net, crashes)
            });
            probe.attribute("attr.net_run", || {
                std::hint::black_box(sim.run_with_net_faults(ops, net));
            });
            probe.attribute("attr.plain_run", || {
                std::hint::black_box(sim.run(ops));
            });
            let oracle = oracle.summary();
            violations += report.net.summary.violations() + oracle.violations();
            d.traffic(&report.stats);
            d.reliability(&report.reliability);
            d.net(&report.net);
            d.oracle(&oracle);
            ops.len() as u64
        }
        Cell::CrashPoint {
            trace,
            model,
            schedule,
        } => {
            let ops = env.traces.trace(*trace).ops();
            let sim = ClusterSim::new(fault_config(*model));
            let (report, oracle) =
                probe.time("core.run", || sim.run_with_faults_verified(ops, schedule));
            probe.attribute("attr.unverified_run", || {
                std::hint::black_box(sim.run_with_faults(ops, schedule));
            });
            let oracle = oracle.summary();
            // The oracle's observed bytes must equal what the reliability
            // accounting says recoveries produced.
            let mismatch = u64::from(oracle.bytes_observed != report.reliability.bytes_recovered);
            violations += oracle.violations() + mismatch;
            d.traffic(&report.stats);
            d.reliability(&report.reliability);
            d.oracle(&oracle);
            ops.len() as u64
        }
        Cell::Corruption {
            trace,
            model,
            schedule,
            corruption,
        } => {
            let ops = env.traces.trace(*trace).ops();
            let sim = ClusterSim::new(fault_config(*model));
            let (report, oracle, scrub) = probe.time("core.run", || {
                sim.run_with_corruption_verified(
                    ops,
                    schedule,
                    corruption,
                    ProtectionMode::Verified,
                    Some(SCRUB_INTERVAL),
                )
            });
            probe.attribute("attr.faults_verified_run", || {
                std::hint::black_box(sim.run_with_faults_verified(ops, schedule));
            });
            let oracle = oracle.summary();
            // Five-fate conservation, and nothing silent under verified
            // protection.
            violations += oracle.violations()
                + u64::from(!scrub.conservation_holds())
                + u64::from(scrub.bytes_silent > 0);
            d.traffic(&report.stats);
            d.reliability(&report.reliability);
            d.oracle(&oracle);
            d.scrub(&scrub);
            ops.len() as u64
        }
        Cell::WalCrash { fs, crash } => {
            let workload = &env.server[*fs];
            let config = WalConfig::sprite();
            let (report, _) = probe.time("wal.run", || {
                run_filesystem_wal_faulted(workload, &config, &[*crash])
            });
            let finish_at = SimTime::from_micros(env.trace_config.duration().as_micros() * 2);
            let summary = probe.time("oracle.wal_judge", || {
                judge_wal_report(ClientId(*fs as u32), &report, finish_at)
            });
            violations += summary.violations();
            d.wal(&report);
            d.oracle(&summary);
            disk_requests += d.disk(probe, &[&report.fs]);
            workload.ops.len() as u64
        }
    };
    CellOut {
        digest: d.value(),
        violations,
        sim_ops,
        disk_requests,
    }
}

impl Fold {
    /// Times the disk model over `reports`, folds its busy times in, and
    /// returns the number of disk write requests it charged.
    fn disk(&mut self, probe: &Probe<'_>, reports: &[&FsReport]) -> u64 {
        let disk = DiskParams::sprite_era();
        let times: Vec<_> = probe.time("disk.time", || {
            reports.iter().map(|r| r.disk_time(&disk)).collect()
        });
        for t in times {
            self.f64s(&[t.total_ms, t.transfer_ms]);
        }
        reports.iter().map(|r| r.disk_write_accesses() as u64).sum()
    }
}
