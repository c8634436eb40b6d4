//! The island partition and the conservative epoch barriers of the
//! master loop.
//!
//! # Partition
//!
//! The nine event sources of [`crate::world::SOURCES`] split into three
//! islands, mirroring the paper's hardware:
//!
//! | island  | sources                                                    |
//! |---------|------------------------------------------------------------|
//! | `x86`   | master queue, credit scheduler, PCIe link (host endpoint), |
//! |         | coordination + ack mailboxes (Dom0/controller endpoints),  |
//! |         | reliable retransmission timers                             |
//! | `ixp`   | the network-processor stage pipeline                       |
//! | `accel` | the batching accelerator and its doorbell lane             |
//!
//! Each island owns a slice of the horizon cache — its components' cached
//! next-event times — and the channels between islands (PCIe mailbox
//! lanes, the link's DMA engine, the accelerator's submission DMA, the
//! wire) all impose a minimum latency on anything crossing.
//!
//! # Epoch = minimum cross-island channel latency
//!
//! That minimum is the classical conservative-synchronization lookahead:
//! between two barriers one epoch apart, nothing an island does can
//! *reach* another island through a channel. [`Platform::lookahead_epoch`]
//! derives the epoch from the live lane configs (mailbox latencies, DMA
//! base latency, submission-DMA latency, wire latency), clamped to at
//! least one nanosecond.
//!
//! # What the barriers are used for
//!
//! The master loop dispatches in global `(time, source index)` order and
//! counts each epoch-barrier crossing as a `sync_point`; in debug builds
//! every crossing also re-derives all nine horizons from scratch and
//! asserts the cache is coherent. The count is deterministic, reported in
//! [`IslandEvents`], and hashed into the fleet determinism digest.
//!
//! # Why there is no parallel region
//!
//! This model couples islands at *zero* latency in three host-mediated
//! places that bypass the latency-bearing channels:
//!
//! * guest delivery acknowledges IXP flow credit at the delivery
//!   timestamp (`ixp.host_ack` from `deliver_to_guest`/`consume_rx`);
//! * accelerator completions are absorbed into x86 post-processing at
//!   the completion timestamp;
//! * IXP classification drives the coordination policy — and the shared
//!   reliable-sender sequence space — at the classification timestamp.
//!
//! True island run-ahead would have to defer those edges by a channel
//! latency, which changes timing and therefore every committed CSV.
//! Without run-ahead, threads could only re-peek horizons the cache
//! already holds; that service measured 0.94× the serial rate and was
//! removed. Parallelism lives at the whole-run and fleet-shard level.

use crate::report::IslandEvents;
use crate::world::Platform;
use simcore::Nanos;

/// Island index of the x86 host (queue, sched, link, mailboxes, retx).
pub(crate) const X86_ISLAND: usize = 0;
/// Island index of the IXP network processor.
pub(crate) const IXP_ISLAND: usize = 1;
/// Island index of the batching accelerator (+ doorbell lane).
pub(crate) const ACCEL_ISLAND: usize = 2;
/// Number of scheduling islands.
pub(crate) const N_ISLANDS: usize = 3;

/// Per-run PDES bookkeeping accumulated by the master loop.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PdesStats {
    /// Total events dispatched.
    pub events: u64,
    /// Events dispatched per island (indexed by the island consts).
    pub by_island: [u64; N_ISLANDS],
    /// Epoch barriers crossed.
    pub sync_points: u64,
    /// The conservative epoch the run used.
    pub epoch: Nanos,
}

impl PdesStats {
    pub(crate) fn new(epoch: Nanos) -> Self {
        PdesStats {
            events: 0,
            by_island: [0; N_ISLANDS],
            sync_points: 0,
            epoch,
        }
    }

    /// The report block (deterministic: a function of seed and config).
    pub(crate) fn island_events(&self) -> IslandEvents {
        IslandEvents {
            x86: self.by_island[X86_ISLAND],
            ixp: self.by_island[IXP_ISLAND],
            accel: self.by_island[ACCEL_ISLAND],
            sync_points: self.sync_points,
            epoch_ns: self.epoch.as_nanos(),
        }
    }
}

/// First multiple of `epoch` strictly after `t`. The loop re-aligns on
/// every crossing, so consecutive barriers are one epoch apart under
/// load and idle stretches are skipped in one step.
pub(crate) fn next_boundary(t: Nanos, epoch: Nanos) -> Nanos {
    let e = epoch.as_nanos().max(1);
    let n = t.as_nanos() / e + 1;
    Nanos::from_nanos(n.saturating_mul(e))
}

impl Platform {
    /// The conservative PDES lookahead: the minimum latency of every
    /// cross-island channel (both coordination mailboxes, the doorbell
    /// lane, the PCIe link's DMA base, the accelerator's submission DMA
    /// and the wire), clamped to at least 1 ns. Every input is fixed at
    /// build time (the chaos jitter hook restores the mailbox latency
    /// after each per-message override), so the epoch is stable across
    /// a run.
    pub(crate) fn lookahead_epoch(&self) -> Nanos {
        self.mbx
            .latency()
            .min(self.ack_mbx.latency())
            .min(self.accel_mbx.latency())
            .min(self.link.lookahead())
            .min(self.accel_dma)
            .min(self.costs.wire_latency)
            .max(Nanos::from_nanos(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PlatformBuilder, RubisScenario};

    #[test]
    fn next_boundary_is_strictly_ahead_and_aligned() {
        let e = Nanos::from_micros(30);
        assert_eq!(next_boundary(Nanos::ZERO, e), e);
        assert_eq!(next_boundary(Nanos::from_nanos(1), e), e);
        assert_eq!(next_boundary(e, e), e * 2);
        // Idle coalescing: a far-future t lands on the next multiple.
        let t = Nanos::from_secs(3) + Nanos::from_nanos(7);
        let b = next_boundary(t, e);
        assert!(b > t);
        assert_eq!(b.as_nanos() % e.as_nanos(), 0);
        assert!(b - t <= e);
    }

    #[test]
    fn epoch_is_the_minimum_channel_bound() {
        // The default platform's tightest bound is the PCIe DMA base.
        let sim = PlatformBuilder::new()
            .coord_latency(Nanos::from_micros(30))
            .build_rubis(RubisScenario::read_write_mix(4));
        assert_eq!(sim.lookahead_epoch(), sim.link.lookahead());
        assert!(sim.lookahead_epoch() > Nanos::ZERO);
        // A coordination mailbox faster than the DMA base takes over.
        let fast = Nanos::from_nanos(500);
        assert!(fast < sim.link.lookahead());
        let sim = PlatformBuilder::new()
            .coord_latency(fast)
            .build_rubis(RubisScenario::read_write_mix(4));
        assert_eq!(sim.lookahead_epoch(), fast);
    }
}
