//! Serial vs parallel determinism of the experiment harness: with
//! identical seeds, the merged experiment tables and the deterministic
//! run totals must be identical whether the (independent) experiment
//! units run on one worker or many. Runs under a short smoke cap —
//! determinism does not depend on the simulated duration.
//!
//! Also the chaos differential: a platform built with an explicit
//! [`ChaosPlan::none()`] must be bit-identical to one that never heard
//! of chaos, across every island type — the chaos hooks must cost
//! nothing (not even an RNG draw) when the schedule is empty.

use metrics::Table;
use platform::{
    ChaosPlan, InferenceScenario, MplayerScenario, PlatformBuilder, PolicyKind, RubisScenario,
    RunReport,
};
use simcore::Nanos;
use simtest::json::Json;

/// Renders the merged tables the way the `experiments` binary persists
/// them: a JSON array of `{slug, csv}` objects, in submission order.
fn render(tables: &[(String, Table)]) -> String {
    Json::Arr(
        tables
            .iter()
            .map(|(slug, t)| {
                Json::obj(vec![
                    ("slug", Json::Str(slug.clone())),
                    ("csv", Json::Str(t.to_csv())),
                ])
            })
            .collect(),
    )
    .to_string()
}

#[test]
fn serial_and_parallel_experiments_are_byte_identical() {
    let ids = bench::experiment_ids().to_vec();
    // Everything a suite totals up except the summed wall clock is a
    // function of the seed and configuration.
    let deterministic =
        |s: &bench::Suite| bench::Totals { run_wall_micros: 0, ..s.totals() };
    for seed in [bench::SEED, 7, 1234] {
        let serial_suite = bench::Suite::new(seed, Some(2), 1, bench::FLEET_SHARDS);
        let parallel_suite = bench::Suite::new(seed, Some(2), 4, bench::FLEET_SHARDS);
        let serial = render(&bench::run_experiments(&serial_suite, ids.clone()));
        let parallel = render(&bench::run_experiments(&parallel_suite, ids.clone()));
        assert_eq!(
            serial, parallel,
            "seed {seed}: parallel run diverged from serial"
        );
        assert!(!serial.is_empty());
        let totals = deterministic(&serial_suite);
        assert_eq!(
            totals,
            deterministic(&parallel_suite),
            "seed {seed}: parallel run totals diverged from serial"
        );
        assert!(totals.events > 0 && totals.islands.sync_points > 0);
        assert_eq!(totals.fleet.per_shard_events.len(), bench::FLEET_SHARDS as usize);
    }
}

/// Every counter and float a run reports, flattened to exact bits.
fn fingerprint(r: &RunReport) -> Vec<u64> {
    let mut v = vec![
        r.rubis.completed,
        r.rubis.throughput.to_bits(),
        r.coord.messages_sent,
        r.coord.bytes_sent,
        r.coord.tunes_applied,
        r.coord.triggers_applied,
        r.coord.rejected,
        r.coord.throttled,
        r.coord.discounted,
        r.net.delivered,
        r.net.guest_drops,
        r.total_cpu_percent.to_bits(),
    ];
    for p in &r.players {
        v.push(p.frames);
        v.push(p.achieved_fps.to_bits());
    }
    for t in &r.accel.tenants {
        v.push(t.submitted);
        v.push(t.completed);
        v.push(t.batches);
        v.push(t.preemptions);
    }
    v
}

#[test]
fn chaos_none_is_bit_identical_to_a_chaos_free_build() {
    let dur = Nanos::from_secs(2);
    for seed in [bench::SEED, 7, 1234] {
        let rubis = |chaos: Option<ChaosPlan>| {
            let mut b = PlatformBuilder::new().seed(seed).policy(PolicyKind::RequestType);
            if let Some(plan) = chaos {
                b = b.chaos(plan);
            }
            fingerprint(&b.build_rubis(RubisScenario::read_write_mix(8)).run(dur))
        };
        let mplayer = |chaos: Option<ChaosPlan>| {
            let mut b = PlatformBuilder::new().seed(seed).policy(PolicyKind::BufferTrigger);
            if let Some(plan) = chaos {
                b = b.chaos(plan);
            }
            fingerprint(&b.build_mplayer(MplayerScenario::trigger_setup()).run(dur))
        };
        let inference = |chaos: Option<ChaosPlan>| {
            let mut b = PlatformBuilder::new().seed(seed).policy(PolicyKind::InferenceBatch);
            if let Some(plan) = chaos {
                b = b.chaos(plan);
            }
            fingerprint(&b.build_inference(InferenceScenario::mixed_tenants()).run(dur))
        };
        assert_eq!(
            rubis(None),
            rubis(Some(ChaosPlan::none())),
            "seed {seed}: ChaosPlan::none() perturbed a rubis run"
        );
        assert_eq!(
            mplayer(None),
            mplayer(Some(ChaosPlan::none())),
            "seed {seed}: ChaosPlan::none() perturbed an mplayer run"
        );
        assert_eq!(
            inference(None),
            inference(Some(ChaosPlan::none())),
            "seed {seed}: ChaosPlan::none() perturbed an inference run"
        );
    }
}

// ----------------------------------------------------------------------
// Component conformance: horizon monotonicity per island device
// ----------------------------------------------------------------------

/// Drains a [`Component`] and asserts its contract: after `advance(t)`,
/// `next_event_time()` never reports a time before `t` (a past horizon
/// would wedge or reorder the master loop). Returns the events absorbed
/// so callers can assert the drive did real work.
fn drive_conformant<C: simcore::Component>(name: &str, c: &mut C, max_steps: usize) -> usize {
    use simcore::Component;
    let mut out = Vec::new();
    let mut events = 0;
    for _ in 0..max_steps {
        let Some(t) = Component::next_event_time(c) else { break };
        Component::advance(c, t, &mut out);
        events += out.len();
        out.clear();
        if let Some(t2) = Component::next_event_time(c) {
            assert!(
                t2 >= t,
                "{name}: advance({:?}) left a past horizon {:?}",
                t,
                t2
            );
        }
    }
    events
}

#[test]
fn every_island_component_keeps_a_monotone_horizon() {
    use ixp::{AppTag, Packet};
    use simcore::Component;

    // x86 island: the credit scheduler under a two-domain burst mix.
    let mut sched = xsched::CreditScheduler::new(xsched::SchedConfig::new(2));
    let d0 = sched.create_domain("dom0", 256, 1);
    let d1 = sched.create_domain("dom1", 512, 2);
    for i in 0..40u64 {
        let (dom, demand) = if i % 3 == 0 { (d0, 700) } else { (d1, 300) };
        sched
            .submit(
                Nanos::from_micros(i),
                dom,
                xsched::Burst::user(Nanos::from_micros(demand), i),
                xsched::WakeMode::Boost,
            )
            .expect("known domain");
    }
    assert!(drive_conformant("sched", &mut sched, 10_000) > 0);

    // x86 island: the master event queue.
    let mut q = simcore::EventQueue::new();
    for i in (0..20u64).rev() {
        q.schedule(Nanos::from_micros(i * 3), i);
    }
    assert_eq!(drive_conformant("queue", &mut q, 100), 20);

    // x86 island: the PCIe link's DMA + notification pipeline.
    let mut link = pcie::HostLink::new(pcie::LinkConfig::default());
    for i in 0..20u64 {
        let pkt = Packet::new(i, 1, 1500, AppTag::Http { class_id: 0, write: false });
        link.post_to_host(Nanos::from_micros(i), ixp::FlowId(0), pkt);
    }
    assert!(drive_conformant("link", &mut link, 1_000) > 0);

    // x86 island: a coordination mailbox endpoint.
    let mut mbx = pcie::Mailbox::new(Nanos::from_micros(30));
    for i in 0..10u64 {
        mbx.send(Nanos::from_micros(i * 7), i);
    }
    assert_eq!(drive_conformant("mbx", &mut mbx, 100), 10);

    // x86 island: reliable retransmission timers (unacked messages back
    // off through every retry, then the sender abandons them).
    let mut tx = coord::ReliableSender::new(coord::ReliableConfig::default());
    for i in 0..4u32 {
        tx.send(
            Nanos::from_micros(i as u64),
            coord::CoordMsg::Tune { entity: coord::EntityId(i), delta: 1, target: None },
        );
    }
    drive_conformant("retx", &mut tx, 1_000);
    assert_eq!(Component::next_event_time(&tx), None, "retries exhausted");

    // IXP island: the stage pipeline under wire arrivals.
    let mut island = ixp::IxpIsland::new(ixp::IxpConfig::default());
    let flow = island.register_flow(1);
    for i in 0..30u64 {
        island.rx_from_wire(
            Nanos::from_micros(i * 2),
            Packet::new(i, 1, 1000, AppTag::Http { class_id: 0, write: false }),
        );
    }
    assert!(drive_conformant("ixp", &mut island, 10_000) > 0);
    let _ = flow;

    // Accel island: the batching engine under a submission burst. All
    // submissions land at time zero — the Component contract only covers
    // time-monotonic interleavings of inputs and `advance`.
    let mut isl = accel::AccelIsland::new(accel::AccelConfig::default());
    let t0 = isl.register_tenant(17);
    for i in 0..20u64 {
        isl.submit(
            Nanos::ZERO,
            accel::AccelRequest { id: i, tenant: t0, cost: Nanos::from_micros(300), bytes: 4096 },
        );
    }
    assert!(drive_conformant("accel", &mut isl, 10_000) > 0);
}

#[test]
fn registry_ids_are_unique_and_unknown_ids_are_rejected() {
    let ids = bench::experiment_ids();
    let mut sorted: Vec<_> = ids.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), ids.len(), "duplicate experiment id");
    let suite = bench::Suite::new(1, Some(1), 1, bench::FLEET_SHARDS);
    assert!(bench::run_experiment("no_such_experiment", &suite).is_none());
}
