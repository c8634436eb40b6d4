//! Layer drivers for the traced run.
//!
//! The master loop hides its calls into each layer, so every driver
//! replays a call stream into one layer's public functions and times
//! each batch as a span. A stream's rates are the workload's own, read
//! from its traced run ([`Load`]); its contents (request types, tier
//! demands, packet sizes, tenant costs) are drawn from the models the
//! platform draws from, and its host costs are the platform's defaults.
//! A layer the workload leaves idle (the "flat on" column of the
//! per-layer table) replays the stream of the workload that exercises
//! it, and its [`Driven::stream`] says so.
//!
//! Inputs are generated from the seed before the span opens, so a span
//! covers only calls into the layer. Each driver runs [`BATCHES`] fresh
//! batches and reports the cost per operation of the fastest, for the
//! reason the end-to-end times report their fastest repetition
//! (README.md).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::hint::black_box;

use accel::{AccelIsland, AccelRequest};
use coord::{wire, CoordMsg, EntityId, IslandId, ReliableReceiver, ReliableSender};
use fleet::{merge_streams, CoordBus, Delivery, Envelope, FleetState, NodeId};
use ixp::{FlowId, IxpConfig, IxpEvent, IxpIsland, Packet};
use pcie::{HostLink, LinkConfig, Mailbox, PcieEvent};
use platform::{InferenceScenario, RubisScenario, RunReport};
use simcore::{EventQueue, Nanos, SimRng};
use workloads::inference::InferenceModel;
use workloads::rubis::{RubisConfig, RubisModel};
use xsched::{Burst, CreditScheduler, SchedConfig, SchedEvent, WakeMode};

use crate::trace::Tracer;
use crate::workload::{fleet_plans, lossy_bus, Load, FLEET_SHARDS, PLATFORM_CPUS, RUBIS_CLIENTS};

/// Fresh batches per driver; the metric is the fastest one's.
pub const BATCHES: u64 = 5;

// The platform's default host costs (`platform`'s `HostCosts`, which is
// private to that crate) and `PlatformBuilder`'s defaults.
/// Dom0 messaging-driver service: base plus one descriptor.
const DRIVER_SERVICE: Nanos = Nanos(120_000 + 25_000);
/// Dom0 bridge burst per inter-VM hop.
const BRIDGE: Nanos = Nanos(350_000);
/// Dom0 burst emitting a response toward the IXP.
const RESP_BRIDGE: Nanos = Nanos(350_000);
/// One-way wire latency between a client and the IXP.
const WIRE_LATENCY: Nanos = Nanos(100_000);
/// A client's initial retransmission timeout.
const RTO_INITIAL: Nanos = Nanos(500_000_000);
/// The coordination mailbox's latency.
const COORD_LATENCY: Nanos = Nanos(30_000);
/// The measurement sample period.
const SAMPLE_PERIOD: Nanos = Nanos(1_000_000_000);
/// The fleet's coordination window (`bench::fleet_cfg`).
const FLEET_WINDOW: Nanos = Nanos(2_000_000);

/// One driver's figure and the stream it was measured on.
pub struct Driven {
    pub value: f64,
    pub stream: String,
}

/// One request of a stream, with everything the drivers replay.
struct Req {
    /// Arrival at the IXP's wire port.
    at: Nanos,
    /// The CPU bursts the request costs, in order: domain index (0 is
    /// Dom0), length, and whether it is a system burst.
    chain: Vec<(usize, Nanos, bool)>,
    pkt: Packet,
    resp: Packet,
    /// When its source's next send falls due (think time or tenant gap).
    next_send: Nanos,
    /// Accelerator work: tenant, compute cost and input bytes.
    accel: Option<(usize, Nanos, u64)>,
}

impl Req {
    /// Time the request's bursts take with no queueing.
    fn service(&self) -> Nanos {
        self.chain.iter().fold(Nanos::ZERO, |t, &(_, c, _)| t + c)
    }
}

/// The request stream of a workload: RUBiS requests per pCPU class, or
/// inference tenants.
pub struct Requests {
    source: &'static str,
    kind: Kind,
}

enum Kind {
    /// RUBiS read-write requests at `(ncpus, requests/s)` per platform.
    Rubis(Vec<(u32, f64)>),
    /// Inference requests at these per-tenant rates (requests/s).
    Inference(Vec<f64>),
}

/// One platform's share of a stream: its pCPUs, domain names (Dom0
/// first), guest VMs with network flows, and requests.
struct PlatformStream {
    ncpus: u32,
    domains: Vec<&'static str>,
    requests: Vec<Req>,
}

impl Requests {
    /// The workload's own request stream.
    pub fn of(load: &Load) -> Requests {
        let kind = if load.tenants.iter().sum::<f64>() > 0.0 {
            Kind::Inference(load.tenants.clone())
        } else {
            Kind::Rubis(load.requests.clone())
        };
        Requests {
            source: load.source,
            kind,
        }
    }

    /// `inference_mixed`'s tenants at the rates its scenario declares:
    /// the accelerator's stream on workloads that leave it idle.
    fn declared_inference() -> Requests {
        let s = InferenceScenario::mixed_tenants();
        Requests {
            source: "inference_mixed (declared rates)",
            kind: Kind::Inference(s.inference.tenants.iter().map(|t| t.rate_per_sec).collect()),
        }
    }

    pub fn describe(&self) -> String {
        let rates = match &self.kind {
            Kind::Rubis(classes) => classes
                .iter()
                .map(|(n, r)| format!("{n} pCPUs {r:.1} req/s"))
                .collect::<Vec<_>>()
                .join(", "),
            Kind::Inference(rates) => {
                let s = InferenceScenario::mixed_tenants();
                s.inference
                    .tenants
                    .iter()
                    .zip(rates)
                    .map(|(t, r)| format!("{} {r:.1} req/s", t.name))
                    .collect::<Vec<_>>()
                    .join(", ")
            }
        };
        format!("{}: {rates}", self.source)
    }

    /// About `n` requests in all, split evenly over the stream's
    /// platforms. Request `i`'s packet is numbered `2i` and its
    /// response `2i + 1`.
    fn generate(&self, seed: u64, n: usize) -> Vec<PlatformStream> {
        let mut streams = match &self.kind {
            Kind::Rubis(classes) => classes
                .iter()
                .enumerate()
                .map(|(i, &(ncpus, rate))| PlatformStream {
                    ncpus,
                    domains: vec!["dom0", "web", "app", "db"],
                    requests: rubis_requests(seed ^ (i as u64) << 32, rate, n / classes.len()),
                })
                .collect(),
            Kind::Inference(rates) => {
                let s = InferenceScenario::mixed_tenants();
                let mut domains = vec!["dom0"];
                domains.extend(s.inference.tenants.iter().map(|t| t.name));
                vec![PlatformStream {
                    ncpus: PLATFORM_CPUS,
                    domains,
                    requests: inference_requests(seed, rates, n),
                }]
            }
        };
        for p in &mut streams {
            for (i, r) in p.requests.iter_mut().enumerate() {
                r.pkt.id = 2 * i as u64;
                r.resp.id = 2 * i as u64 + 1;
            }
        }
        streams
    }
}

/// Poisson RUBiS read-write requests at `rate`, each with the tier
/// demands `RubisModel` samples and the platform's burst chain: the
/// Dom0 driver, the web tier, then a Dom0 bridge into each further tier
/// the request uses, then the Dom0 response bridge.
fn rubis_requests(seed: u64, rate: f64, n: usize) -> Vec<Req> {
    let sc = RubisScenario::read_write_mix(RUBIS_CLIENTS);
    let mut model = RubisModel::new(
        RubisConfig {
            clients: sc.clients,
            mix: sc.mix,
            think_mean: sc.think_mean,
            session_len: sc.session_len,
            demand_scale: sc.demand_scale,
            ..RubisConfig::default()
        },
        seed,
    );
    let mut rng = SimRng::new(seed ^ 0xA5A5);
    let gap = Nanos::from_secs_f64(1.0 / rate);
    let mut now = Nanos::ZERO;
    (0..n)
        .map(|_| {
            now += rng.exp_nanos(gap);
            let rt = model.next_request();
            let d = model.demands(rt);
            let mut chain = vec![(0, DRIVER_SERVICE, true), (1, d.web, false)];
            if d.app > Nanos::ZERO {
                chain.extend([(0, BRIDGE, true), (2, d.app, false)]);
                if d.db > Nanos::ZERO {
                    chain.extend([(0, BRIDGE, true), (3, d.db, false)]);
                }
            }
            chain.push((0, RESP_BRIDGE, true));
            Req {
                at: now,
                chain,
                pkt: model.request_packet(rt, 1),
                resp: model.response_packet(rt, u32::MAX),
                next_send: now + model.think_time(),
                accel: None,
            }
        })
        .collect()
}

/// Poisson inference requests at per-tenant `rates`, with
/// `InferenceModel`'s packets and costs and the platform's burst chain:
/// the Dom0 driver, the tenant's post-processing, the Dom0 response
/// bridge (the accelerator's time between them is left out).
fn inference_requests(seed: u64, rates: &[f64], n: usize) -> Vec<Req> {
    let s = InferenceScenario::mixed_tenants();
    let mut model = InferenceModel::new(s.inference.clone(), seed);
    let mut rng = SimRng::new(seed ^ 0x5A5A);
    let gaps: Vec<Option<Nanos>> = rates
        .iter()
        .map(|&r| (r > 0.0).then(|| Nanos::from_secs_f64(1.0 / r)))
        .collect();
    let mut next: Vec<Nanos> = gaps
        .iter()
        .map(|g| g.map_or(Nanos::MAX, |g| rng.exp_nanos(g)))
        .collect();
    (0..n)
        .map(|_| {
            let t = (0..next.len()).min_by_key(|&t| next[t]).expect("tenants");
            let at = next[t];
            next[t] = at + rng.exp_nanos(gaps[t].expect("the earliest tenant has a rate"));
            let vm = t as u32 + 1;
            Req {
                at,
                chain: vec![
                    (0, DRIVER_SERVICE, true),
                    (t + 1, model.post_cost(t), false),
                    (0, RESP_BRIDGE, true),
                ],
                pkt: model.request_packet(t, vm),
                resp: model.response_packet(t, u32::MAX),
                next_send: next[t],
                accel: Some((
                    t,
                    model.compute_cost(t),
                    model.model_of(t).input_bytes as u64,
                )),
            }
        })
        .collect()
}

/// Credit scheduler with the workload's domains and pCPUs: every
/// request submits its bursts one after another, each on the previous
/// one's completion, all woken with BOOST as the platform does. Ops:
/// `submit` and `on_timer` calls.
pub fn xsched(tr: &Tracer, reqs: &Requests, seed: u64) -> Driven {
    const N: usize = 20_000;
    for b in 0..BATCHES {
        let streams = reqs.generate(seed ^ b, N);
        let mut scheds: Vec<_> = streams
            .iter()
            .map(|p| {
                let mut s = CreditScheduler::new(SchedConfig::new(p.ncpus));
                let doms: Vec<_> = p
                    .domains
                    .iter()
                    .enumerate()
                    .map(|(i, name)| s.create_domain(name, 256, if i == 0 { p.ncpus } else { 1 }))
                    .collect();
                (s, doms)
            })
            .collect();
        tr.batch("xsched.submit_on_timer", || {
            let mut ops = 0;
            for ((s, doms), p) in scheds.iter_mut().zip(&streams) {
                let reqs = &p.requests;
                let mut stage = vec![0usize; reqs.len()];
                let submit = |s: &mut CreditScheduler, now: Nanos, i: usize, k: usize| {
                    let (d, cost, system) = reqs[i].chain[k];
                    let burst = if system {
                        Burst::system(cost, i as u64)
                    } else {
                        Burst::user(cost, i as u64)
                    };
                    s.submit(now, doms[d], burst, WakeMode::Boost)
                        .expect("domain exists")
                };
                let mut done = Vec::new();
                for (i, r) in reqs.iter().enumerate() {
                    loop {
                        // Completions start the next burst of their
                        // request, which may complete more.
                        while let Some(SchedEvent::Completed { tag, .. }) = done.pop() {
                            let j = tag as usize;
                            stage[j] += 1;
                            if stage[j] < reqs[j].chain.len() {
                                let now = s.now();
                                done.extend(submit(s, now, j, stage[j]));
                                ops += 1;
                            }
                        }
                        match s.next_event_time().filter(|&t| t <= r.at) {
                            Some(t) => {
                                s.on_timer(t, &mut done);
                                ops += 1;
                            }
                            None => break,
                        }
                    }
                    done.extend(submit(s, r.at, i, 0));
                    ops += 1;
                }
            }
            ops
        });
    }
    Driven {
        value: tr.best_ns_per_op("xsched.submit_on_timer"),
        stream: reqs.describe(),
    }
}

/// The master event queue under the workload's horizons: per request a
/// wire arrival (100 µs), a retransmission timer (500 ms, which fires
/// and is ignored: the loop never cancels), the source's next send, and
/// on inference the accelerator DMA (20 µs after arrival); plus the 1 s
/// sample. Everything scheduled is popped. Ops: `schedule` and `pop`.
pub fn queue(tr: &Tracer, reqs: &Requests, seed: u64) -> Driven {
    const N: usize = 100_000;
    let dma = InferenceScenario::mixed_tenants().dma_latency;
    for b in 0..BATCHES {
        let streams = reqs.generate(seed ^ b, N);
        let mut queues: Vec<EventQueue<u64>> = streams.iter().map(|_| EventQueue::new()).collect();
        tr.batch("simcore.queue_ops", || {
            let mut ops = 0;
            for (q, p) in queues.iter_mut().zip(&streams) {
                const SAMPLE: u64 = u64::MAX;
                q.schedule(SAMPLE_PERIOD, SAMPLE);
                ops += 1;
                for (i, r) in p.requests.iter().enumerate() {
                    while q.peek_time().is_some_and(|t| t <= r.at) {
                        let (t, v) = q.pop().expect("peeked");
                        ops += 1;
                        if v == SAMPLE {
                            q.schedule(t + SAMPLE_PERIOD, SAMPLE);
                            ops += 1;
                        }
                    }
                    let i = i as u64;
                    q.schedule(r.at + WIRE_LATENCY, i);
                    q.schedule(r.at + RTO_INITIAL, i);
                    q.schedule(r.next_send, i);
                    ops += 3;
                    if r.accel.is_some() {
                        q.schedule(r.at + WIRE_LATENCY + dma, i);
                        ops += 1;
                    }
                }
                while let Some(v) = q.pop() {
                    black_box(v);
                    ops += 1;
                }
            }
            ops
        });
    }
    Driven {
        value: tr.best_ns_per_op("simcore.queue_ops"),
        stream: reqs.describe(),
    }
}

/// Pops whichever of `heap`'s due items and `next`'s timer comes first,
/// up to `until`: `Some(Ok(item))`, `Some(Err(timer))` or `None`.
fn next_due<T: Ord + Copy>(
    heap: &mut BinaryHeap<Reverse<(Nanos, T)>>,
    timer: Option<Nanos>,
    until: Nanos,
) -> Option<Result<(Nanos, T), Nanos>> {
    let timer = timer.filter(|&t| t <= until);
    let item = heap.peek().map(|r| r.0).filter(|&(t, _)| t <= until);
    match (item, timer) {
        (Some(it), Some(t)) if it.0 <= t => heap.pop().map(|r| Ok(r.0)),
        (Some(_), None) => heap.pop().map(|r| Ok(r.0)),
        (_, Some(t)) => Some(Err(t)),
        (None, None) => None,
    }
}

/// Acks every request `work` delivers to the host (the ack may release
/// held packets, which are acked in turn) and queues its response for
/// when the request's bursts would have run.
fn ack_delivered(
    island: &mut IxpIsland,
    now: Nanos,
    work: &mut Vec<IxpEvent>,
    p: &PlatformStream,
    responses: &mut BinaryHeap<Reverse<(Nanos, usize)>>,
) {
    while let Some(ev) = work.pop() {
        if let IxpEvent::DeliverToHost { flow, pkt, .. } = ev {
            work.extend(island.host_ack(now, flow, 1));
            let i = (pkt.id / 2) as usize;
            responses.push(Reverse((now + p.requests[i].service(), i)));
        }
    }
}

/// IXP island with DPI on and one flow per guest VM of the workload:
/// request packets from the wire; every delivered request is acked by
/// the host, and its response goes out through `tx_from_host` once the
/// request's bursts would have run. Ops: packets (wire Rx plus host Tx).
pub fn ixp(tr: &Tracer, reqs: &Requests, seed: u64) -> Driven {
    const N: usize = 40_000;
    for b in 0..BATCHES {
        let streams = reqs.generate(seed ^ b, N);
        let mut islands: Vec<IxpIsland> = streams
            .iter()
            .map(|p| {
                let mut island = IxpIsland::new(IxpConfig {
                    dpi: true,
                    ..IxpConfig::default()
                });
                for vm in 1..p.domains.len() as u32 {
                    island.register_flow(vm);
                }
                island
            })
            .collect();
        tr.batch("ixp.packets", || {
            let mut packets = 0u64;
            for (island, p) in islands.iter_mut().zip(&streams) {
                let mut responses: BinaryHeap<Reverse<(Nanos, usize)>> = BinaryHeap::new();
                let mut work = Vec::new();
                let end = p.requests.last().map_or(Nanos::ZERO, |r| r.at) + Nanos::from_secs(10);
                for r in p.requests.iter().map(Some).chain([None]) {
                    let until = r.map_or(end, |r| r.at);
                    while let Some(due) = next_due(&mut responses, island.next_event_time(), until)
                    {
                        match due {
                            Ok((t, i)) => {
                                black_box(island.tx_from_host(t, p.requests[i].resp));
                                packets += 1;
                            }
                            Err(t) => {
                                island.on_timer(t, &mut work);
                                ack_delivered(island, t, &mut work, p, &mut responses);
                            }
                        }
                    }
                    if let Some(r) = r {
                        work.extend(island.rx_from_wire(r.at, r.pkt));
                        packets += 1;
                        ack_delivered(island, r.at, &mut work, p, &mut responses);
                    }
                }
            }
            packets
        });
    }
    Driven {
        value: tr.best_ns_per_op("ixp.packets"),
        stream: reqs.describe(),
    }
}

/// PCIe host link with the default interrupt moderation: every request
/// is posted host-bound as it arrives, and each notification drains the
/// whole ring, as the platform's Dom0 driver does. Ops: packets posted.
pub fn pcie_link(tr: &Tracer, reqs: &Requests, load: &Load, seed: u64) -> Driven {
    const N: usize = 60_000;
    for b in 0..BATCHES {
        let streams = reqs.generate(seed ^ b, N);
        let mut links: Vec<HostLink> = streams
            .iter()
            .map(|_| HostLink::new(LinkConfig::default()))
            .collect();
        tr.batch("pcie.link_packets", || {
            let mut packets = 0u64;
            let mut out = Vec::new();
            for (link, p) in links.iter_mut().zip(&streams) {
                for r in &p.requests {
                    while let Some(t) = link.next_event_time().filter(|&t| t <= r.at) {
                        out.clear();
                        link.on_timer(t, &mut out);
                        for ev in &out {
                            if let PcieEvent::HostNotify { at, .. } = *ev {
                                black_box(link.host_take(at, usize::MAX));
                            }
                        }
                    }
                    black_box(link.post_to_host(r.at, FlowId(r.pkt.dst_vm), r.pkt));
                    packets += 1;
                }
            }
            packets
        });
    }
    Driven {
        value: tr.best_ns_per_op("pcie.link_packets"),
        stream: format!(
            "{} (the run delivered {:.1} packets/s into guests)",
            reqs.describe(),
            load.packets
        ),
    }
}

/// Coordination messages in the workload's Tune/Trigger mix.
fn coord_msgs(rng: &mut SimRng, n: usize, tune_share: f64) -> Vec<CoordMsg> {
    (0..n)
        .map(|i| {
            let entity = EntityId(1 + (i % 3) as u32);
            if rng.chance(tune_share) {
                CoordMsg::Tune {
                    entity,
                    delta: 64 - rng.below(128) as i32,
                    target: Some(IslandId(0)),
                }
            } else {
                CoordMsg::Trigger {
                    entity,
                    target: Some(IslandId(0)),
                }
            }
        })
        .collect()
}

/// The fleet's coordination traffic, from a short real fleet: its state
/// and shard reports after one 5 s slice, and the envelopes its buses
/// send per coordination round. Layers the fleet alone uses replay this
/// on the workloads without a fleet.
pub struct FleetSample {
    state: FleetState,
    reports: Vec<RunReport>,
    envelopes_per_round: f64,
}

impl FleetSample {
    pub fn new(seed: u64) -> FleetSample {
        const ROUNDS: u32 = 8;
        let cfg = bench::fleet_cfg(seed, FLEET_SHARDS, 2, lossy_bus(), true);
        let mut state = FleetState::new(cfg, fleet_plans(FLEET_SHARDS));
        let reports: Vec<RunReport> = state
            .specs(0, Nanos::from_secs(5))
            .iter()
            .map(|spec| spec.build().run(spec.duration))
            .collect();
        for _ in 0..ROUNDS {
            state.absorb(&reports);
        }
        let r = state.report();
        let sent = r.fleet_bus.frames_sent + r.rack_bus.frames_sent;
        let retx = r.fleet_bus.retransmits + r.rack_bus.retransmits;
        FleetSample {
            state,
            reports,
            envelopes_per_round: sent.saturating_sub(retx) as f64 / ROUNDS as f64,
        }
    }
}

/// The bus stream: envelopes per coordination round, from the
/// workload's own fleet or else from the sample.
fn bus_stream(load: &Load, sample: &FleetSample) -> (f64, String) {
    let (per_round, source) = if load.bus_envelopes > 0.0 {
        (load.bus_envelopes, load.source)
    } else {
        (sample.envelopes_per_round, "fleet_lossy (5 s slice)")
    };
    let stream = format!("{source}: {per_round:.1} bus envelopes per 2 ms round, 25% loss");
    (per_round, stream)
}

/// Coordination mailboxes as the workload uses them: the platform's
/// clean 30 µs lane carrying encoded messages at the workload's rate,
/// and on a fleet the bus's lanes (3 ms, 25% of sends dropped) carrying
/// its envelopes. With neither, the fleet's bus lanes. Ops: messages
/// sent.
pub fn mailbox(tr: &Tracer, load: &Load, sample: &FleetSample, seed: u64) -> Driven {
    const N: usize = 60_000;
    let (bus_rate, bus_desc) = bus_stream(load, sample);
    let bus_rate = bus_rate / FLEET_WINDOW.as_secs_f64();
    let platform_lane = load.coord > 0.0;
    let bus_lane = load.bus_envelopes > 0.0 || !platform_lane;
    let mut lanes: Vec<(f64, Nanos, bool)> = Vec::new();
    let mut stream = Vec::new();
    if platform_lane {
        lanes.push((load.coord, COORD_LATENCY, false));
        stream.push(format!(
            "{}: {:.3} msg/s on the clean lane, {:.0}% Tunes",
            load.source,
            load.coord,
            load.tune_share * 100.0
        ));
    }
    if bus_lane {
        lanes.push((bus_rate, lossy_bus().latency, true));
        stream.push(bus_desc);
    }
    let total: f64 = lanes.iter().map(|l| l.0).sum();
    for b in 0..BATCHES {
        let mut rng = SimRng::new(seed ^ b);
        // Each lane's Poisson sends, merged in time order and encoded
        // before the span opens.
        let mut sends: Vec<(Nanos, usize, Vec<u8>)> = Vec::new();
        for (k, &(rate, ..)) in lanes.iter().enumerate() {
            let n = (N as f64 * rate / total).ceil() as usize;
            let gap = Nanos::from_secs_f64(1.0 / rate);
            let mut now = Nanos::ZERO;
            for (i, m) in coord_msgs(&mut rng, n, load.tune_share).iter().enumerate() {
                now += rng.exp_nanos(gap);
                let mut buf = Vec::new();
                if lanes[k].2 {
                    wire::encode_envelope(i as u32, i as u64, (i % 12) as u16, m, &mut buf);
                } else {
                    wire::encode(m, &mut buf);
                }
                sends.push((now, k, buf));
            }
        }
        sends.sort_by_key(|s| s.0);
        let mut boxes: Vec<Mailbox<Vec<u8>>> = lanes
            .iter()
            .enumerate()
            .map(|(k, &(_, latency, lossy))| {
                let mut mb = Mailbox::new(latency);
                if lossy {
                    mb.set_faults(lossy_bus().fault, SimRng::new(seed ^ b ^ k as u64));
                }
                mb
            })
            .collect();
        tr.batch("pcie.mailbox_msgs", || {
            let mut out = Vec::new();
            let sent = sends.len() as u64;
            for (now, k, buf) in sends {
                for mb in boxes.iter_mut() {
                    while let Some(t) = mb.next_event_time().filter(|&t| t <= now) {
                        out.clear();
                        mb.on_timer(t, &mut out);
                        black_box(&out);
                    }
                }
                boxes[k].send(now, buf);
            }
            sent
        });
    }
    Driven {
        value: tr.best_ns_per_op("pcie.mailbox_msgs"),
        stream: stream.join("; "),
    }
}

/// Wire codec in the forms the workload's lanes use: plain on the
/// platform's clean lane, the Lamport envelope on a fleet's bus (with
/// neither, the envelope), each in the workload's Tune/Trigger mix.
/// Ops: one encode plus one decode.
pub fn wire(tr: &Tracer, load: &Load, seed: u64) -> Driven {
    const N: usize = 200_000;
    let plain = load.coord > 0.0;
    let envelope = load.bus_envelopes > 0.0 || !plain;
    let msgs = coord_msgs(&mut SimRng::new(seed), 1024, load.tune_share);
    let forms: Vec<&str> = [(plain, "plain"), (envelope, "envelope")]
        .iter()
        .filter_map(|&(on, f)| on.then_some(f))
        .collect();
    for _ in 0..BATCHES {
        let mut buf = Vec::with_capacity(64);
        tr.batch("coord.wire_msgs", || {
            let mut ops = 0;
            for i in 0..N {
                let m = &msgs[i % msgs.len()];
                if plain {
                    buf.clear();
                    wire::encode(m, &mut buf);
                    black_box(wire::decode(&buf).expect("self-encoded"));
                    ops += 1;
                }
                if envelope {
                    buf.clear();
                    wire::encode_envelope(i as u32, i as u64, (i % 12) as u16, m, &mut buf);
                    black_box(wire::decode_envelope(&buf).expect("self-encoded"));
                    ops += 1;
                }
            }
            ops
        });
    }
    Driven {
        value: tr.best_ns_per_op("coord.wire_msgs"),
        stream: format!(
            "{}: {} form, {:.0}% Tunes",
            load.source,
            forms.join(" and "),
            load.tune_share * 100.0
        ),
    }
}

/// Reliable delivery as the fleet's bus runs it: a round's envelopes
/// sent every 2 ms window, 25% loss each way, acks back after the 6 ms
/// round trip, the 9 ms ack timeout. Ops: fresh messages sent.
pub fn reliable(tr: &Tracer, load: &Load, sample: &FleetSample, seed: u64) -> Driven {
    const N: u64 = 60_000;
    let (per_round, stream) = bus_stream(load, sample);
    let bus = lossy_bus();
    let rtt = bus.latency + bus.latency;
    let per_round = (per_round.round() as u64).max(1);
    let rounds = N / per_round;
    for b in 0..BATCHES {
        // Two loss rolls (data, ack) per transmission; retransmissions
        // draw from the same stream.
        let mut rng = SimRng::new(seed ^ b);
        let rolls: Vec<bool> = (0..8 * N)
            .map(|_| rng.chance(bus.fault.drop_prob))
            .collect();
        let msgs = coord_msgs(&mut rng, 1024, 1.0);
        let mut tx = ReliableSender::new(bus.reliable);
        let mut rx = ReliableReceiver::new();
        tr.batch("coord.reliable_msgs", || {
            let mut lost = rolls.iter().copied().cycle();
            let mut acks: VecDeque<(Nanos, u32)> = VecDeque::new();
            let mut retx = Vec::new();
            // Every copy that arrives is acked, duplicates included.
            let mut transmit = |acks: &mut VecDeque<(Nanos, u32)>, now: Nanos, seq: u32| {
                if lost.next() == Some(true) {
                    return;
                }
                black_box(rx.accept(seq));
                if lost.next() == Some(false) {
                    acks.push_back((now + rtt, seq));
                }
            };
            for round in 0..rounds {
                let now = Nanos(FLEET_WINDOW.0 * (round + 1));
                while let Some(&(t, seq)) = acks.front().filter(|a| a.0 <= now) {
                    acks.pop_front();
                    black_box(tx.on_ack(t, seq));
                }
                if tx.next_timer().is_some_and(|t| t <= now) {
                    retx.clear();
                    tx.on_timer(now, &mut retx);
                    for &(seq, _) in &retx {
                        transmit(&mut acks, now, seq);
                    }
                }
                for k in 0..per_round {
                    let seq = tx.send(now, msgs[((round * per_round + k) % 1024) as usize]);
                    transmit(&mut acks, now, seq);
                }
            }
            rounds * per_round
        });
    }
    Driven {
        value: tr.best_ns_per_op("coord.reliable_msgs"),
        stream,
    }
}

/// Accelerator island under the workload's tenant rates (on workloads
/// without tenants, `inference_mixed`'s declared rates), with
/// `InferenceModel`'s jittered compute costs; batches drained as they
/// fall due. Ops: requests submitted.
pub fn accel(tr: &Tracer, load: &Load, seed: u64) -> Driven {
    const N: usize = 40_000;
    let reqs = match Requests::of(load) {
        r @ Requests {
            kind: Kind::Inference(_),
            ..
        } => r,
        _ => Requests::declared_inference(),
    };
    let scenario = InferenceScenario::mixed_tenants();
    for b in 0..BATCHES {
        let streams = reqs.generate(seed ^ b, N);
        let mut island = AccelIsland::new(scenario.accel.clone());
        let ids: Vec<_> = (0..scenario.inference.tenants.len())
            .map(|k| island.register_tenant(k as u32 + 1))
            .collect();
        tr.batch("accel.requests", || {
            let mut out = Vec::new();
            let mut ops = 0;
            for (i, r) in streams.iter().flat_map(|p| &p.requests).enumerate() {
                let Some((k, cost, bytes)) = r.accel else {
                    continue;
                };
                while let Some(t) = island.next_event_time().filter(|&t| t <= r.at) {
                    out.clear();
                    island.on_timer(t, &mut out);
                }
                let req = AccelRequest {
                    id: i as u64,
                    tenant: ids[k],
                    cost,
                    bytes,
                };
                black_box(island.submit(r.at, req));
                ops += 1;
            }
            ops
        });
    }
    Driven {
        value: tr.best_ns_per_op("accel.requests"),
        stream: reqs.describe(),
    }
}

/// `FleetState::absorb` on the `fleet_lossy` fleet: the sample's real
/// shard reports, folded in round after round on its state (each call
/// runs a coordination round over the lossy bus). Returns seconds per
/// call.
pub fn absorb(tr: &Tracer, sample: &mut FleetSample) -> Driven {
    const ROUNDS: u64 = 40;
    for _ in 0..BATCHES {
        tr.batch("fleet.absorb_calls", || {
            for _ in 0..ROUNDS {
                black_box(sample.state.absorb(&sample.reports));
            }
            ROUNDS
        });
    }
    Driven {
        value: tr.best_ns_per_op("fleet.absorb_calls") / 1e9,
        stream: "fleet_lossy (5 s slice): 12 shard reports per round".into(),
    }
}

/// Lamport k-way merge of one round's streams: a round's bus envelopes
/// spread over the 12 shards' streams. Ops: envelopes merged.
pub fn merge(tr: &Tracer, load: &Load, sample: &FleetSample, seed: u64) -> Driven {
    const ENVELOPES: u64 = 100_000;
    let (per_round, stream) = bus_stream(load, sample);
    let per_stream = (per_round / FLEET_SHARDS as f64).ceil().max(1.0) as u64;
    let mut rng = SimRng::new(seed);
    let streams: Vec<Vec<Envelope>> = (0..FLEET_SHARDS)
        .map(|s| {
            let mut lamport = 0;
            coord_msgs(&mut rng, per_stream as usize, load.tune_share)
                .into_iter()
                .map(|msg| {
                    lamport += 1 + rng.below(4);
                    Envelope {
                        lamport,
                        source: NodeId(s),
                        msg,
                    }
                })
                .collect()
        })
        .collect();
    let total = per_stream * FLEET_SHARDS as u64;
    let merges = ENVELOPES.div_ceil(total);
    for _ in 0..BATCHES {
        let copies: Vec<Vec<Vec<Envelope>>> = (0..merges).map(|_| streams.clone()).collect();
        tr.batch("fleet.merge_envelopes", || {
            for c in copies {
                black_box(merge_streams(c));
            }
            merges * total
        });
    }
    Driven {
        value: tr.best_ns_per_op("fleet.merge_envelopes"),
        stream,
    }
}

/// The lossy cross-node bus with one lane per shard: every round the
/// lanes send the round's envelopes between them and the bus advances
/// one 2 ms coordination window (deliveries, acks, retransmissions).
/// Ops: rounds.
pub fn bus(tr: &Tracer, load: &Load, sample: &FleetSample, seed: u64) -> Driven {
    const ROUNDS: u32 = 4_000;
    let (per_round, stream) = bus_stream(load, sample);
    let per_round = (per_round.round() as u64).max(1);
    for b in 0..BATCHES {
        let mut bus = CoordBus::new(FLEET_SHARDS, &lossy_bus(), seed ^ b);
        tr.batch("fleet.bus_rounds", || {
            let mut out: Vec<Delivery> = Vec::new();
            for round in 0..ROUNDS {
                bus.set_round(round);
                for k in 0..per_round {
                    let n = NodeId((k % FLEET_SHARDS as u64) as u16);
                    let env = Envelope {
                        lamport: round as u64 + 1,
                        source: n,
                        msg: CoordMsg::Tune {
                            entity: EntityId(n.0 as u32),
                            delta: 8,
                            target: None,
                        },
                    };
                    bus.send(n, &env);
                }
                out.clear();
                bus.advance(bus.now() + FLEET_WINDOW, &mut out);
                black_box(&out);
            }
            ROUNDS as u64
        });
    }
    Driven {
        value: tr.best_ns_per_op("fleet.bus_rounds"),
        stream,
    }
}
