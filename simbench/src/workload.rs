//! The three end-to-end workloads, each driven through the public API
//! from a cold start: a fresh platform (or fleet) per repetition, with
//! empty queues, and every fleet shard rebuilt every slice.

use std::hint::black_box;
use std::time::Instant;

use bench::pool::parallel_map;
use coord::PolicyKind;
use fleet::{BusConfig, FleetReport, FleetState, ShardPlan, ShardSpec};
use platform::{
    FaultProfile, InferenceScenario, Platform, PlatformBuilder, ReliableConfig, RubisScenario,
    RunReport,
};
use simcore::Nanos;
use workloads::session::SessionLoad;

use crate::measure::process_cpu_s;
use crate::trace::{maybe_span, Tracer};

/// Closed-loop RUBiS clients on `rubis_rw`.
pub const RUBIS_CLIENTS: u32 = 24;
/// Simulated seconds per `rubis_rw` repetition.
pub const RUBIS_SECS: u64 = 1200;
/// Simulated seconds per `inference_mixed` repetition.
pub const INFER_SECS: u64 = 200;
/// Fleet shards on `fleet_lossy`.
pub const FLEET_SHARDS: u16 = 12;
/// Coordination rounds (slices) per `fleet_lossy` repetition.
pub const FLEET_SLICES: u32 = 2;
/// Simulated seconds per fleet slice.
pub const FLEET_SLICE_SECS: u64 = 120;
/// Pool threads the fleet's shards fan out over.
pub const FLEET_JOBS: usize = 2;
/// pCPUs of the `rubis_rw` and `inference_mixed` platforms (the
/// `PlatformBuilder`'s default).
pub const PLATFORM_CPUS: u32 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RubisRw,
    InferenceMixed,
    FleetLossy,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::RubisRw,
        Workload::InferenceMixed,
        Workload::FleetLossy,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RubisRw => "rubis_rw",
            Workload::InferenceMixed => "inference_mixed",
            Workload::FleetLossy => "fleet_lossy",
        }
    }

    /// Host threads a repetition runs on.
    pub fn threads(self) -> usize {
        match self {
            Workload::FleetLossy => FLEET_JOBS,
            Workload::RubisRw | Workload::InferenceMixed => 1,
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The generated parameters, one line.
    pub fn describe(self, seed: u64) -> String {
        match self {
            Workload::RubisRw => format!(
                "rubis_rw: RUBiS read-write mix, closed loop of {RUBIS_CLIENTS} clients \
                 (250 ms think time), 2 pCPUs, policy RequestType, clean channel, \
                 {RUBIS_SECS} simulated s, seed {seed}"
            ),
            Workload::InferenceMixed => {
                let s = InferenceScenario::mixed_tenants();
                let rates: Vec<String> = s
                    .inference
                    .tenants
                    .iter()
                    .map(|t| format!("{} {:.0}/s", t.name, t.rate_per_sec))
                    .collect();
                let total: f64 = s.inference.tenants.iter().map(|t| t.rate_per_sec).sum();
                format!(
                    "inference_mixed: three islands, open loop of Poisson tenants [{}] = \
                     {total:.0} req/s, policy InferenceBatch, {INFER_SECS} simulated s, seed {seed}",
                    rates.join(", ")
                )
            }
            Workload::FleetLossy => format!(
                "fleet_lossy: {FLEET_SHARDS} shards (pCPUs 3/2/1, 96/48/64 erlangs), depth-2 \
                 racks of 4, bus 3 ms latency / 25% drop / ack timeout 9 ms, {FLEET_SLICES} \
                 slices x {FLEET_SLICE_SECS} simulated s, {FLEET_JOBS} pool threads, seed {seed}"
            ),
        }
    }
}

/// Deterministic work counts of one repetition (the per-layer counts).
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Master-loop events dispatched (summed over shards).
    pub events: u64,
    pub events_x86: u64,
    pub events_ixp: u64,
    pub events_accel: u64,
    pub coord_messages: u64,
    pub accel_completed: u64,
    pub accel_batches: u64,
    pub bus_delivered: u64,
    pub bus_late: u64,
    pub sessions_admitted: u64,
}

/// Call rates of one repetition, per simulated second of one platform
/// (a fleet's shard runs averaged), which the layer drivers replay.
#[derive(Debug, Clone, Default)]
pub struct Load {
    /// Workload the rates were read from.
    pub source: &'static str,
    /// Requests completed per simulated second, per pCPU count of the
    /// platforms that served them: `(ncpus, rate)`.
    pub requests: Vec<(u32, f64)>,
    /// Accelerator requests submitted per simulated second, per tenant.
    pub tenants: Vec<f64>,
    /// Packets delivered into guests per simulated second.
    pub packets: f64,
    /// Coordination messages sent per simulated second.
    pub coord: f64,
    /// Tunes among the applied coordination verbs (the rest Triggers).
    pub tune_share: f64,
    /// Envelopes the fleet's buses sent per coordination round, all
    /// lanes, retransmissions excluded.
    pub bus_envelopes: f64,
}

/// Sums behind a [`Load`], gathered run by run.
#[derive(Default)]
struct LoadSum {
    secs: f64,
    /// `(ncpus, requests completed, simulated seconds)`.
    by_cpus: Vec<(u32, f64, f64)>,
    tenants: Vec<f64>,
    delivered: f64,
    coord: f64,
    tunes: f64,
    triggers: f64,
}

impl LoadSum {
    fn add(&mut self, ncpus: u32, r: &RunReport) {
        let secs = r.duration.as_secs_f64();
        self.secs += secs;
        let done = r.rubis.completed as f64;
        match self.by_cpus.iter_mut().find(|(n, ..)| *n == ncpus) {
            Some((_, c, s)) => {
                *c += done;
                *s += secs;
            }
            None => self.by_cpus.push((ncpus, done, secs)),
        }
        self.tenants
            .resize(r.accel.tenants.len().max(self.tenants.len()), 0.0);
        for (sum, t) in self.tenants.iter_mut().zip(&r.accel.tenants) {
            *sum += t.submitted as f64;
        }
        self.delivered += r.net.delivered as f64;
        self.coord += r.coord.messages_sent as f64;
        self.tunes += r.coord.tunes_applied as f64;
        self.triggers += r.coord.triggers_applied as f64;
    }

    fn finish(mut self, w: Workload, bus_envelopes: f64) -> Load {
        self.by_cpus.sort_by_key(|&(n, ..)| std::cmp::Reverse(n));
        let verbs = self.tunes + self.triggers;
        Load {
            source: w.name(),
            requests: self.by_cpus.iter().map(|&(n, c, s)| (n, c / s)).collect(),
            tenants: self.tenants.iter().map(|t| t / self.secs).collect(),
            packets: self.delivered / self.secs,
            coord: self.coord / self.secs,
            tune_share: if verbs > 0.0 { self.tunes / verbs } else { 1.0 },
            bus_envelopes,
        }
    }
}

/// One repetition of a workload.
#[derive(Debug, Clone)]
pub struct Rep {
    pub setup_s: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub counts: Counts,
    pub load: Load,
    /// Digest of the simulated statistics.
    pub digest: u64,
    /// A conservation check that failed, if any.
    pub violation: Option<String>,
}

/// FNV-1a over a stream of counters.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Digest of one platform run's simulated statistics: per-island event
/// counts, RUBiS and network counters, coordination counters and the
/// accelerator's per-tenant counters. Host timings are excluded.
pub fn platform_digest(r: &RunReport) -> u64 {
    let mut h = Fnv::new();
    let e = &r.events_by_island;
    let n = &r.net;
    let c = &r.coord;
    for v in [
        r.sim_rate.events,
        e.x86,
        e.ixp,
        e.accel,
        e.sync_points,
        r.rubis.completed,
        r.rubis.sessions,
        n.ixp_drops,
        n.link_drops,
        n.unroutable,
        n.delivered,
        n.guest_drops,
        c.messages_sent,
        c.bytes_sent,
        c.tunes_applied,
        c.triggers_applied,
        c.rejected,
        c.throttled,
        c.discounted,
        c.channel_drops,
        c.channel_dups,
        c.retransmits,
        c.acked,
        c.gave_up,
        c.dup_suppressed,
    ] {
        h.add(v);
    }
    for t in &r.accel.tenants {
        for v in [
            t.submitted,
            t.completed,
            t.rejected,
            t.batches,
            t.preemptions,
            t.alarms,
        ] {
            h.add(v);
        }
    }
    h.0
}

fn platform_counts(r: &RunReport) -> Counts {
    Counts {
        events: r.sim_rate.events,
        events_x86: r.events_by_island.x86,
        events_ixp: r.events_by_island.ixp,
        events_accel: r.events_by_island.accel,
        coord_messages: r.coord.messages_sent,
        accel_completed: r.accel.tenants.iter().map(|t| t.completed).sum(),
        accel_batches: r.accel.tenants.iter().map(|t| t.batches).sum(),
        ..Counts::default()
    }
}

fn check_platform(r: &RunReport) -> Option<String> {
    if r.sim_rate.events == 0 {
        return Some("no events dispatched".into());
    }
    if r.rubis.completed == 0 {
        return Some("no requests completed".into());
    }
    r.accel
        .tenants
        .iter()
        .find(|t| t.completed > t.submitted)
        .map(|t| {
            format!(
                "accel tenant {}: completed {} > submitted {}",
                t.name, t.completed, t.submitted
            )
        })
}

/// The F-experiments' heterogeneous shard table: pCPUs cycle 3/2/1 and
/// offered load 96/48/64 erlangs (arrivals/s × 8 s sessions) against a
/// base cap of 48.
pub fn fleet_plans(shards: u16) -> Vec<ShardPlan> {
    (0..shards)
        .map(|s| ShardPlan {
            shard: s,
            ncpus: [3, 2, 1][s as usize % 3],
            load: SessionLoad {
                arrivals_per_sec: [12.0, 6.0, 8.0][s as usize % 3],
                mean_session_secs: 8.0,
            },
        })
        .collect()
}

/// F2's lossy cross-node bus: 3 ms latency, 25% frame loss, ack/retry
/// with a 3×-latency timeout.
pub fn lossy_bus() -> BusConfig {
    BusConfig {
        latency: Nanos::from_millis(3),
        fault: FaultProfile::none().with_drop(0.25),
        reliable: ReliableConfig {
            ack_timeout: Nanos::from_millis(9),
            ..ReliableConfig::default()
        },
    }
}

fn check_fleet(r: &FleetReport) -> Option<String> {
    if r.total_events() == 0 {
        return Some("no fleet events dispatched".into());
    }
    r.per_shard
        .iter()
        .find(|s| s.admitted + s.rejected != s.offered)
        .map(|s| {
            format!(
                "shard {}: admitted {} + rejected {} != offered {}",
                s.shard, s.admitted, s.rejected, s.offered
            )
        })
}

/// Runs one cold repetition of `w`. With a tracer, every call into a
/// layer's public entry points is recorded as a span; the timed
/// repetitions pass `None`. `jobs` is the fleet's pool width.
pub fn run_once(w: Workload, seed: u64, tracer: Option<&Tracer>, jobs: usize) -> Rep {
    maybe_span(tracer, "workload.rep", None, |rep| match w {
        Workload::RubisRw | Workload::InferenceMixed => {
            let t0 = Instant::now();
            let mut sim = maybe_span(tracer, "platform.build", rep, |_| build_platform(w, seed));
            let setup_s = t0.elapsed().as_secs_f64();
            let secs = if w == Workload::RubisRw {
                RUBIS_SECS
            } else {
                INFER_SECS
            };
            let cpu0 = process_cpu_s();
            let t1 = Instant::now();
            let r = maybe_span(tracer, "platform.run", rep, |_| {
                sim.run(Nanos::from_secs(secs))
            });
            let wall_s = t1.elapsed().as_secs_f64();
            let cpu_s = process_cpu_s() - cpu0;
            let mut load = LoadSum::default();
            load.add(PLATFORM_CPUS, &r);
            Rep {
                setup_s,
                wall_s,
                cpu_s,
                counts: platform_counts(&r),
                load: load.finish(w, 0.0),
                digest: platform_digest(&r),
                violation: check_platform(&r),
            }
        }
        Workload::FleetLossy => {
            let slice_len = Nanos::from_secs(FLEET_SLICE_SECS);
            let t0 = Instant::now();
            let (mut state, first) = maybe_span(tracer, "fleet.setup", rep, |_| fleet_start(seed));
            let setup_s = t0.elapsed().as_secs_f64();
            let cpu0 = process_cpu_s();
            let t1 = Instant::now();
            let mut counts = Counts::default();
            let mut load = LoadSum::default();
            let mut pending = Some(first);
            for slice in 0..FLEET_SLICES {
                let specs = match pending.take() {
                    Some(specs) => specs,
                    None => maybe_span(tracer, "fleet.specs", rep, |_| {
                        state.specs(slice, slice_len)
                    }),
                };
                let cpus: Vec<u32> = specs.iter().map(|s| s.ncpus).collect();
                let reports = maybe_span(tracer, "pool.parallel_map", rep, |pm| {
                    parallel_map(jobs, specs, |spec| {
                        maybe_span(tracer, "pool.task", pm, |task| {
                            let mut sim =
                                maybe_span(tracer, "platform.build", task, |_| spec.build());
                            maybe_span(tracer, "platform.run", task, |_| sim.run(spec.duration))
                        })
                    })
                });
                for (&ncpus, r) in cpus.iter().zip(&reports) {
                    load.add(ncpus, r);
                    let c = platform_counts(r);
                    counts.events += c.events;
                    counts.events_x86 += c.events_x86;
                    counts.events_ixp += c.events_ixp;
                    counts.events_accel += c.events_accel;
                    counts.coord_messages += c.coord_messages;
                }
                maybe_span(tracer, "fleet.absorb", rep, |_| state.absorb(&reports));
            }
            let report = state.report();
            let wall_s = t1.elapsed().as_secs_f64();
            let cpu_s = process_cpu_s() - cpu0;
            counts.bus_delivered = report.fleet_bus.delivered + report.rack_bus.delivered;
            counts.bus_late = report.fleet_bus.late + report.rack_bus.late;
            counts.sessions_admitted = report.sessions().1;
            let envelopes = (report.fleet_bus.frames_sent + report.rack_bus.frames_sent)
                .saturating_sub(report.fleet_bus.retransmits + report.rack_bus.retransmits);
            Rep {
                setup_s,
                wall_s,
                cpu_s,
                counts,
                load: load.finish(w, envelopes as f64 / FLEET_SLICES as f64),
                digest: report.digest(),
                violation: check_fleet(&report),
            }
        }
    })
}

fn build_platform(w: Workload, seed: u64) -> Platform {
    let b = PlatformBuilder::new().seed(seed);
    match w {
        Workload::RubisRw => b
            .policy(PolicyKind::RequestType)
            .build_rubis(RubisScenario::read_write_mix(RUBIS_CLIENTS)),
        Workload::InferenceMixed => b
            .policy(PolicyKind::InferenceBatch)
            .build_inference(InferenceScenario::mixed_tenants()),
        Workload::FleetLossy => unreachable!("fleet shards build from their specs"),
    }
}

/// The fleet's set-up: its state plus the first slice's specs.
fn fleet_start(seed: u64) -> (FleetState, Vec<ShardSpec>) {
    let cfg = bench::fleet_cfg(seed, FLEET_SHARDS, 2, lossy_bus(), true);
    let mut state = FleetState::new(cfg, fleet_plans(FLEET_SHARDS));
    let specs = state.specs(0, Nanos::from_secs(FLEET_SLICE_SECS));
    (state, specs)
}

/// Times set-up alone: the platform build, or the fleet's construction
/// plus its first slice's specs. Returns seconds.
pub fn setup_once(w: Workload, seed: u64) -> f64 {
    let t0 = Instant::now();
    if w == Workload::FleetLossy {
        let built = fleet_start(seed);
        let s = t0.elapsed().as_secs_f64();
        drop(black_box(built));
        s
    } else {
        let built = build_platform(w, seed);
        let s = t0.elapsed().as_secs_f64();
        drop(black_box(built));
        s
    }
}
