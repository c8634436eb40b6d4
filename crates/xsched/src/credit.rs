//! The Xen credit scheduler, reimplemented as a discrete-event state
//! machine.
//!
//! ## Algorithm (matching Xen's `sched_credit.c` behaviour)
//!
//! * Time is divided into **ticks** (10 ms). Each tick debits the running
//!   VCPU `credits_per_tick` (100) credits and clears any BOOST priority it
//!   held. Every `ticks_per_acct` (3) ticks an **accounting** pass
//!   distributes `credits_per_tick × ticks_per_acct × ncpus` credits among
//!   *active* domains proportionally to weight.
//! * Priority is **UNDER** while credit ≥ 0 and **OVER** below; runqueues
//!   order BOOST → UNDER → OVER with FIFO inside each class.
//! * A VCPU woken by an event while UNDER enters **BOOST** and preempts
//!   lower-priority work ([`WakeMode::Boost`]); the paper's *Trigger*
//!   mechanism maps to [`CreditScheduler::boost_front`].
//! * Idle pCPUs steal the highest-priority runnable VCPU from peers
//!   (respecting affinity). Capped domains park when they exhaust their
//!   allowance.
//!
//! ## Driving the state machine
//!
//! Callers feed inputs ([`submit`](CreditScheduler::submit),
//! [`boost_front`](CreditScheduler::boost_front), weight changes) at
//! non-decreasing simulated times and must invoke
//! [`on_timer`](CreditScheduler::on_timer) whenever
//! [`next_event_time`](CreditScheduler::next_event_time) falls due. Every
//! input method returns the [`SchedEvent`]s (burst completions) produced
//! while catching up to the call time, so no completion is ever lost;
//! `on_timer` appends its completions to a caller-owned scratch buffer.
//! The horizon returned by `next_event_time` is memoized behind a dirty
//! flag and invalidated only by state-mutating calls.
//!
//! Domains are never removed and [`DomId`]s are handed out in order from
//! 0, so a `DomId` is the index of its domain, and a domain's VCPUs are
//! one contiguous index range. Once the per-VCPU burst queues and
//! runqueues have grown to their working size, the event-loop calls
//! (`on_timer`, `submit`, `boost_front`, `notify`, `grant_credit`)
//! allocate only for a returned completion `Vec` that is non-empty
//! (`tests/steady_state_alloc.rs` checks this).

use crate::runstate::UsageAccum;
use crate::{Burst, BurstKind, DomId, Domain, PcpuId, RunstateSnapshot, SchedError};
use simcore::Nanos;
use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::Range;

/// Lower bound on accumulated credit debt. Deliberately generous: a tight
/// floor (e.g. −300) lets saturated VCPUs burn CPU "for free" once pinned
/// to the floor, collapsing weight-proportional sharing into round-robin.
const CREDIT_FLOOR: i32 = -30_000;

/// Scheduler tuning parameters. [`SchedConfig::new`] gives Xen's defaults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedConfig {
    /// Number of physical CPUs.
    pub ncpus: u32,
    /// Tick period (credit debit granularity). Xen: 10 ms.
    pub tick: Nanos,
    /// Ticks between accounting passes. Xen: 3 (30 ms).
    pub ticks_per_acct: u32,
    /// Credits debited from a running VCPU per tick. Xen: 100.
    pub credits_per_tick: i32,
    /// Maximum uninterrupted slice before runqueue rotation. Xen: 30 ms.
    pub slice: Nanos,
    /// Credit clamp (±). Xen caps accumulation around one accounting
    /// period's worth.
    pub credit_cap: i32,
    /// Whether event-channel wakes grant BOOST (Xen's default on).
    pub boost_on_wake: bool,
    /// Credit accounting mode. `true` (default) debits each VCPU for the
    /// CPU time it actually consumed between ticks; `false` reproduces
    /// Xen's sampling behaviour — the full tick debit lands on whoever is
    /// running at the tick instant, which deterministic sub-tick workloads
    /// can dodge entirely (the classic credit-scheduler vulnerability).
    pub precise_accounting: bool,
}

impl SchedConfig {
    /// Xen defaults on `ncpus` physical CPUs.
    ///
    /// # Panics
    /// Panics if `ncpus == 0`.
    pub fn new(ncpus: u32) -> Self {
        assert!(ncpus > 0, "need at least one pcpu");
        SchedConfig {
            ncpus,
            tick: Nanos::from_millis(10),
            ticks_per_acct: 3,
            credits_per_tick: 100,
            slice: Nanos::from_millis(30),
            credit_cap: 300,
            boost_on_wake: true,
            precise_accounting: true,
        }
    }

    fn credits_per_acct(&self) -> i32 {
        self.credits_per_tick * self.ticks_per_acct as i32
    }
}

/// Runqueue priority classes, highest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Transient priority for event-woken or triggered VCPUs.
    Boost,
    /// Credit remaining (≥ 0).
    Under,
    /// Credit exhausted (< 0).
    Over,
}

impl Priority {
    fn rank(self) -> u8 {
        match self {
            Priority::Boost => 0,
            Priority::Under => 1,
            Priority::Over => 2,
        }
    }
}

/// Where a VCPU currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunState {
    /// Executing on a pCPU.
    Running,
    /// Waiting on a runqueue.
    Runnable,
    /// No queued work.
    Blocked,
    /// Cap exhausted; ineligible until accounting refills credit.
    Parked,
}

/// How a work submission wakes a blocked VCPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeMode {
    /// Plain wake: priority from credit (UNDER/OVER).
    Plain,
    /// Event-channel wake: BOOST if credit ≥ 0 (Xen I/O boost).
    Boost,
}

/// Observable scheduler outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedEvent {
    /// A burst finished executing.
    Completed {
        /// Domain that ran the burst.
        dom: DomId,
        /// Caller-supplied correlation tag.
        tag: u64,
        /// Burst classification.
        kind: BurstKind,
        /// Completion time.
        at: Nanos,
    },
}

#[derive(Debug)]
struct Vcpu {
    dom: DomId,
    credit: i32,
    prio: Priority,
    state: RunState,
    state_since: Nanos,
    work: VecDeque<Burst>,
    affinity: Option<Vec<PcpuId>>,
    pending_boost: bool,
    last_pcpu: PcpuId,
    consumed_in_period: Nanos,
    consumed_since_tick: Nanos,
    /// Trigger-granted BOOST persists until this instant (survives ticks,
    /// unlike wake boosts).
    boost_until: Nanos,
}

impl Vcpu {
    /// Whether the VCPU earns its domain a share in this accounting
    /// pass: it is not blocked, or it consumed CPU during the period.
    fn is_active(&self) -> bool {
        self.state != RunState::Blocked || !self.consumed_in_period.is_zero()
    }
}

#[derive(Debug)]
struct Pcpu {
    running: Option<usize>,
    slice_end: Nanos,
    last_charge: Nanos,
    runq: VecDeque<usize>,
}

/// Cached event horizon: recomputing it scans every VCPU and pCPU, so the
/// value is memoized between state mutations.
#[derive(Debug, Clone, Copy)]
enum HorizonCache {
    /// State changed since the last computation.
    Dirty,
    /// Memoized result of the last from-scratch computation.
    Clean(Option<Nanos>),
}

/// The credit scheduler island. See the module-level documentation for the
/// algorithm and driving contract.
#[derive(Debug)]
pub struct CreditScheduler {
    cfg: SchedConfig,
    /// Indexed by `DomId.0`.
    domains: Vec<Domain>,
    /// VCPU index range of each domain, indexed by `DomId.0`.
    dom_vcpus: Vec<Range<usize>>,
    vcpus: Vec<Vcpu>,
    pcpus: Vec<Pcpu>,
    next_tick: Nanos,
    ticks_until_acct: u32,
    now: Nanos,
    usage: UsageAccum,
    ctx_switches: u64,
    migrations: u64,
    preemptions: u64,
    horizon: Cell<HorizonCache>,
    /// Execution speed as an exact rational `num/den` of nominal (DVFS).
    /// At `num == den` every conversion below is the identity, so the
    /// nominal path is bit-identical to a scheduler without the feature.
    speed_num: u64,
    speed_den: u64,
}

impl CreditScheduler {
    /// Creates a scheduler over `cfg.ncpus` idle pCPUs at time zero.
    pub fn new(cfg: SchedConfig) -> Self {
        let pcpus = (0..cfg.ncpus)
            .map(|_| Pcpu {
                running: None,
                slice_end: Nanos::MAX,
                last_charge: Nanos::ZERO,
                runq: VecDeque::new(),
            })
            .collect();
        let next_tick = cfg.tick;
        let ticks_until_acct = cfg.ticks_per_acct;
        CreditScheduler {
            cfg,
            domains: Vec::new(),
            dom_vcpus: Vec::new(),
            vcpus: Vec::new(),
            pcpus,
            next_tick,
            ticks_until_acct,
            now: Nanos::ZERO,
            usage: UsageAccum::default(),
            ctx_switches: 0,
            migrations: 0,
            preemptions: 0,
            horizon: Cell::new(HorizonCache::Dirty),
            speed_num: 1,
            speed_den: 1,
        }
    }

    /// Sets the execution speed to the exact rational `num / den` of
    /// nominal (the DVFS frequency knob): burst demands are expressed in
    /// nominal-speed CPU time, so at speed `num/den` a burst of demand `d`
    /// occupies `d·den/num` of wall-clock pCPU time. Credits, caps and
    /// usage accounting stay in wall time (they meter pCPU *occupancy*,
    /// which frequency scaling does not change).
    ///
    /// # Panics
    /// Panics if `num == 0` or `den == 0`.
    pub fn set_speed(&mut self, num: u64, den: u64) {
        assert!(num > 0 && den > 0, "speed must be a positive rational");
        if (num, den) == (self.speed_num, self.speed_den) {
            return;
        }
        self.speed_num = num;
        self.speed_den = den;
        self.dirty_horizon();
    }

    /// The current execution speed as `(numerator, denominator)`.
    pub fn speed(&self) -> (u64, u64) {
        (self.speed_num, self.speed_den)
    }

    /// Wall-clock time needed to execute `work` nominal-speed demand at
    /// the current speed (identity at nominal; ceiling otherwise so the
    /// completion horizon never undershoots).
    fn wall_for(&self, work: Nanos) -> Nanos {
        if self.speed_num == self.speed_den {
            return work;
        }
        let n = work.as_nanos();
        Nanos((n * self.speed_den).div_ceil(self.speed_num))
    }

    /// Nominal-speed demand executed by `wall` wall-clock time at the
    /// current speed (identity at nominal; floor otherwise).
    fn work_for(&self, wall: Nanos) -> Nanos {
        if self.speed_num == self.speed_den {
            return wall;
        }
        Nanos(wall.as_nanos() * self.speed_num / self.speed_den)
    }

    // ------------------------------------------------------------------
    // Domain management
    // ------------------------------------------------------------------

    /// Creates a domain with `nvcpus` VCPUs and the given weight. The first
    /// domain created is Dom0 (`DomId(0)`).
    ///
    /// # Panics
    /// Panics if `nvcpus == 0`.
    pub fn create_domain(&mut self, name: &str, weight: u32, nvcpus: u32) -> DomId {
        assert!(nvcpus > 0, "domain must have at least one vcpu");
        let id = DomId(self.domains.len() as u32);
        self.domains.push(Domain::new(id, name, weight, nvcpus));
        let first = self.vcpus.len();
        for idx in first..first + nvcpus as usize {
            self.vcpus.push(Vcpu {
                dom: id,
                credit: 0,
                prio: Priority::Under,
                state: RunState::Blocked,
                state_since: self.now,
                work: VecDeque::new(),
                affinity: None,
                pending_boost: false,
                last_pcpu: PcpuId(idx as u32 % self.cfg.ncpus),
                consumed_in_period: Nanos::ZERO,
                consumed_since_tick: Nanos::ZERO,
                boost_until: Nanos::ZERO,
            });
        }
        self.dom_vcpus.push(first..self.vcpus.len());
        self.usage.register(id);
        self.dirty_horizon();
        id
    }

    /// Pins all VCPUs of `dom` to the given pCPUs.
    ///
    /// # Errors
    /// Returns [`SchedError::UnknownDomain`] or [`SchedError::BadAffinity`].
    pub fn pin_domain(&mut self, dom: DomId, pcpus: &[PcpuId]) -> Result<(), SchedError> {
        for p in pcpus {
            if p.0 >= self.cfg.ncpus {
                return Err(SchedError::BadAffinity(p.0));
            }
        }
        for i in self.vcpus_of(dom)? {
            self.vcpus[i].affinity = if pcpus.is_empty() {
                None
            } else {
                Some(pcpus.to_vec())
            };
        }
        Ok(())
    }

    /// Sets a domain's scheduling weight (takes full effect at the next
    /// accounting pass).
    ///
    /// # Errors
    /// Returns [`SchedError::UnknownDomain`] if the domain does not exist.
    pub fn set_weight(&mut self, dom: DomId, weight: u32) -> Result<(), SchedError> {
        self.domains
            .get_mut(dom.0 as usize)
            .ok_or(SchedError::UnknownDomain(dom))?
            .set_weight(weight);
        Ok(())
    }

    /// Current weight of a domain.
    ///
    /// # Errors
    /// Returns [`SchedError::UnknownDomain`] if the domain does not exist.
    pub fn weight(&self, dom: DomId) -> Result<u32, SchedError> {
        self.domain(dom)
            .map(|d| d.weight())
            .ok_or(SchedError::UnknownDomain(dom))
    }

    /// Sets a domain's CPU cap as a percentage of one pCPU (0 = uncapped).
    ///
    /// # Errors
    /// Returns [`SchedError::UnknownDomain`] if the domain does not exist.
    pub fn set_cap(&mut self, dom: DomId, cap_percent: u32) -> Result<(), SchedError> {
        self.domains
            .get_mut(dom.0 as usize)
            .ok_or(SchedError::UnknownDomain(dom))?
            .set_cap_percent(cap_percent);
        Ok(())
    }

    /// Domain metadata, if it exists.
    pub fn domain(&self, dom: DomId) -> Option<&Domain> {
        self.domains.get(dom.0 as usize)
    }

    /// All domains in id order.
    pub fn domains(&self) -> impl Iterator<Item = &Domain> {
        self.domains.iter()
    }

    /// The VCPU index range of `dom`.
    fn vcpus_of(&self, dom: DomId) -> Result<Range<usize>, SchedError> {
        self.dom_vcpus
            .get(dom.0 as usize)
            .cloned()
            .ok_or(SchedError::UnknownDomain(dom))
    }

    // ------------------------------------------------------------------
    // Work submission and coordination entry points
    // ------------------------------------------------------------------

    /// Queues a CPU burst on the least-loaded VCPU of `dom`, waking it if
    /// blocked. Returns any burst completions that fell due while catching
    /// up to `now`.
    ///
    /// # Errors
    /// Returns [`SchedError::UnknownDomain`] if the domain does not exist.
    pub fn submit(
        &mut self,
        now: Nanos,
        dom: DomId,
        burst: Burst,
        wake: WakeMode,
    ) -> Result<Vec<SchedEvent>, SchedError> {
        let mut out = Vec::new();
        self.advance(now, &mut out);
        let vi = self.pick_vcpu_for_work(dom)?;
        self.vcpus[vi].work.push_back(burst);
        if self.vcpus[vi].state == RunState::Blocked {
            self.wake_vcpu(vi, wake);
        }
        self.reschedule();
        Ok(out)
    }

    /// The paper's **Trigger** landing pad: requests that `dom` be given
    /// CPU as soon as possible. Runnable VCPUs are promoted to the front of
    /// the BOOST class and preempt lower-priority work; blocked VCPUs are
    /// marked so their next wake boosts regardless of credit.
    ///
    /// # Errors
    /// Returns [`SchedError::UnknownDomain`] if the domain does not exist.
    pub fn boost_front(&mut self, now: Nanos, dom: DomId) -> Result<Vec<SchedEvent>, SchedError> {
        let mut out = Vec::new();
        self.advance(now, &mut out);
        for vi in self.vcpus_of(dom)? {
            // The preemptive grant holds for one scheduling slice: the
            // triggered VCPU keeps BOOST across ticks until it expires.
            self.vcpus[vi].boost_until = now + self.cfg.slice;
            match self.vcpus[vi].state {
                RunState::Runnable => {
                    self.remove_from_runq(vi);
                    self.vcpus[vi].prio = Priority::Boost;
                    let p = self.choose_pcpu(vi);
                    self.insert_runq(p, vi, true);
                }
                RunState::Blocked => self.vcpus[vi].pending_boost = true,
                RunState::Running => self.vcpus[vi].prio = Priority::Boost,
                RunState::Parked => {}
            }
        }
        self.reschedule();
        Ok(out)
    }

    /// Grants immediate scheduling credit to `dom` (split across its
    /// VCPUs), clamped at the accumulation cap. This is the "credit
    /// adjustment" half of a Trigger's translation on the Xen island
    /// (§3.3 of the paper); the runqueue promotion is
    /// [`boost_front`](Self::boost_front).
    ///
    /// # Errors
    /// Returns [`SchedError::UnknownDomain`] if the domain does not exist.
    pub fn grant_credit(&mut self, dom: DomId, credits: i32) -> Result<(), SchedError> {
        let idxs = self.vcpus_of(dom)?;
        let per = credits / idxs.len().max(1) as i32;
        for vi in idxs {
            let v = &mut self.vcpus[vi];
            v.credit = (v.credit + per).clamp(CREDIT_FLOOR, self.cfg.credit_cap);
            if v.prio != Priority::Boost && v.credit >= 0 {
                v.prio = Priority::Under;
            }
        }
        self.resort_runqueues();
        self.reschedule();
        Ok(())
    }

    /// Event-channel style notification: wakes (with BOOST eligibility) any
    /// blocked VCPU of `dom` that has queued work.
    ///
    /// # Errors
    /// Returns [`SchedError::UnknownDomain`] if the domain does not exist.
    pub fn notify(&mut self, now: Nanos, dom: DomId) -> Result<Vec<SchedEvent>, SchedError> {
        let mut out = Vec::new();
        self.advance(now, &mut out);
        for vi in self.vcpus_of(dom)? {
            if self.vcpus[vi].state == RunState::Blocked && !self.vcpus[vi].work.is_empty() {
                self.wake_vcpu(vi, WakeMode::Boost);
            }
        }
        self.reschedule();
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Event-loop contract
    // ------------------------------------------------------------------

    /// The next instant at which the scheduler needs to act (tick, slice
    /// expiry or burst completion), or `None` when fully idle.
    ///
    /// The answer is cached behind a dirty flag: state-mutating calls
    /// invalidate it, and repeated peeks between mutations (the master
    /// loop's steady state) return the memoized value without rescanning
    /// VCPUs and pCPUs.
    pub fn next_event_time(&self) -> Option<Nanos> {
        if let HorizonCache::Clean(t) = self.horizon.get() {
            return t;
        }
        let t = self.compute_horizon();
        self.horizon.set(HorizonCache::Clean(t));
        t
    }

    /// From-scratch horizon scan over all VCPUs and pCPUs. The cached
    /// [`next_event_time`](Self::next_event_time) must always agree with
    /// this (asserted by the randomized-operations test).
    fn compute_horizon(&self) -> Option<Nanos> {
        let mut next: Option<Nanos> = None;
        let mut fold = |t: Nanos| {
            next = Some(next.map_or(t, |n: Nanos| n.min(t)));
        };
        let any_active = self.vcpus.iter().any(|v| match v.state {
            RunState::Running | RunState::Runnable => true,
            RunState::Parked => !v.work.is_empty(),
            RunState::Blocked => false,
        });
        if any_active {
            fold(self.next_tick);
        }
        for p in &self.pcpus {
            if let Some(vi) = p.running {
                fold(p.slice_end);
                if let Some(front) = self.vcpus[vi].work.front() {
                    fold(p.last_charge + self.wall_for(front.demand));
                }
            }
        }
        next
    }

    /// Invalidates the memoized event horizon. Called from the internal
    /// choke points every mutation path runs through (`charge_to`,
    /// `handle_boundaries`, `reschedule`, domain creation).
    fn dirty_horizon(&self) {
        self.horizon.set(HorizonCache::Dirty);
    }

    /// Advances the scheduler to `now`, processing every internal boundary
    /// (ticks, accounting, slice rotation, completions) on the way,
    /// appending the completions produced to `out` (which the caller owns
    /// and typically reuses across calls, so steady-state dispatch does not
    /// allocate).
    pub fn on_timer(&mut self, now: Nanos, out: &mut Vec<SchedEvent>) {
        // `advance` reports whether its boundary loop already rescheduled
        // at exactly `now` with nothing mutated since; the trailing
        // reschedule (and the horizon recompute it forces) is redundant
        // then — the common case when driven at the cached horizon.
        if !self.advance(now, out) {
            self.reschedule();
        }
    }

    /// Last time the scheduler state was synchronised.
    pub fn now(&self) -> Nanos {
        self.now
    }

    // ------------------------------------------------------------------
    // Instrumentation
    // ------------------------------------------------------------------

    /// Run-state usage snapshot for the window since the last
    /// [`reset_usage`](Self::reset_usage).
    pub fn usage_snapshot(&mut self) -> RunstateSnapshot {
        self.flush_states();
        self.usage.snapshot(self.now)
    }

    /// Starts a fresh usage window at the current time.
    pub fn reset_usage(&mut self) {
        self.flush_states();
        self.usage.reset(self.now);
    }

    /// Total context switches since creation.
    pub fn context_switches(&self) -> u64 {
        self.ctx_switches
    }

    /// Total cross-pCPU migrations (steals) since creation.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Total preemptions since creation.
    pub fn preemptions(&self) -> u64 {
        self.preemptions
    }

    /// Current credit of a domain's first VCPU (diagnostics).
    pub fn credit(&self, dom: DomId) -> Option<i32> {
        self.first_vcpu(dom).map(|v| v.credit)
    }

    /// Current priority of a domain's first VCPU.
    pub fn priority(&self, dom: DomId) -> Option<Priority> {
        self.first_vcpu(dom).map(|v| v.prio)
    }

    /// Credits of every VCPU of a domain (diagnostics).
    pub fn credits_all(&self, dom: DomId) -> Vec<i32> {
        self.vcpus_of(dom)
            .map(|r| self.vcpus[r].iter().map(|v| v.credit).collect())
            .unwrap_or_default()
    }

    /// Current run state of a domain's first VCPU.
    pub fn run_state(&self, dom: DomId) -> Option<RunState> {
        self.first_vcpu(dom).map(|v| v.state)
    }

    /// Queued (unstarted + in-progress) work of a domain across VCPUs.
    pub fn backlog(&self, dom: DomId) -> Nanos {
        self.vcpus_of(dom)
            .map(|r| {
                self.vcpus[r]
                    .iter()
                    .flat_map(|v| v.work.iter())
                    .map(|b| b.demand)
                    .sum()
            })
            .unwrap_or(Nanos::ZERO)
    }

    fn first_vcpu(&self, dom: DomId) -> Option<&Vcpu> {
        self.vcpus_of(dom).ok().map(|r| &self.vcpus[r.start])
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Processes all internal boundaries up to `now`, then charges partial
    /// progress to `now`. Returns `true` when the state was left exactly as
    /// the boundary loop's own `reschedule()` at `now` produced it (no
    /// partial charge followed), so the caller may skip its trailing
    /// reschedule.
    fn advance(&mut self, now: Nanos, out: &mut Vec<SchedEvent>) -> bool {
        debug_assert!(now >= self.now, "scheduler time went backwards");
        let mut rescheduled_at_now = false;
        while let Some(t) = self.next_event_time() {
            if t > now {
                break;
            }
            self.charge_to(t, out);
            self.now = t;
            self.handle_boundaries(t);
            self.reschedule();
            rescheduled_at_now = t == now;
        }
        if now > self.now {
            // `self.now` is only ever set right after charging every pCPU
            // to that same instant, so `now == self.now` means this charge
            // would be a no-op — skipping it preserves the clean horizon
            // computed by the loop's exit test.
            self.charge_to(now, out);
            self.now = now;
            rescheduled_at_now = false;
        }
        if self.next_tick <= now {
            // Ticks were skipped while the platform was fully idle (they
            // would have been no-ops); realign to the tick grid.
            let tick = self.cfg.tick.as_nanos();
            self.next_tick = Nanos((now.as_nanos() / tick + 1) * tick);
            self.ticks_until_acct = self.cfg.ticks_per_acct;
            self.dirty_horizon();
        }
        rescheduled_at_now
    }

    /// Charges running VCPUs for the time since their last charge, emitting
    /// burst completions and blocking VCPUs that run out of work.
    fn charge_to(&mut self, t: Nanos, out: &mut Vec<SchedEvent>) {
        self.dirty_horizon();
        for pi in 0..self.pcpus.len() {
            let Some(vi) = self.pcpus[pi].running else {
                self.pcpus[pi].last_charge = t;
                continue;
            };
            let mut elapsed = t.saturating_sub(self.pcpus[pi].last_charge);
            self.pcpus[pi].last_charge = t;
            let dom = self.vcpus[vi].dom;
            while !elapsed.is_zero() {
                let wall_needed = match self.vcpus[vi].work.front() {
                    Some(front) => self.wall_for(front.demand),
                    None => {
                        debug_assert!(false, "running vcpu with no work");
                        break;
                    }
                };
                // `take` is wall-clock pCPU occupancy; the front burst's
                // demand depletes in nominal-speed work units. The ceil in
                // `wall_for` guarantees a burst whose horizon fell due has
                // executed its full demand by then.
                let (take, work) = if wall_needed <= elapsed {
                    (wall_needed, None)
                } else {
                    (elapsed, Some(self.work_for(elapsed)))
                };
                let front = self.vcpus[vi].work.front_mut().expect("front exists");
                front.demand -= work.unwrap_or(front.demand).min(front.demand);
                let (kind, finished) = (front.kind, front.demand.is_zero());
                elapsed -= take;
                self.usage.add_running(dom, kind, take);
                self.vcpus[vi].consumed_in_period += take;
                self.vcpus[vi].consumed_since_tick += take;
                if finished {
                    let done = self.vcpus[vi].work.pop_front().expect("front exists");
                    out.push(SchedEvent::Completed {
                        dom,
                        tag: done.tag,
                        kind: done.kind,
                        at: t,
                    });
                }
            }
            // Zero-demand bursts complete immediately even with no elapsed time.
            while self
                .vcpus[vi]
                .work
                .front()
                .is_some_and(|b| b.demand.is_zero())
            {
                let done = self.vcpus[vi].work.pop_front().expect("front exists");
                out.push(SchedEvent::Completed {
                    dom,
                    tag: done.tag,
                    kind: done.kind,
                    at: t,
                });
            }
            if self.vcpus[vi].work.is_empty() {
                self.pcpus[pi].running = None;
                self.set_state(vi, RunState::Blocked, t);
                self.ctx_switches += 1;
            }
        }
    }

    /// Handles tick / accounting / slice boundaries due exactly at `t`.
    /// The caller must `reschedule()` afterwards (which starts with the
    /// preemption scan this used to duplicate back-to-back).
    fn handle_boundaries(&mut self, t: Nanos) {
        self.dirty_horizon();
        while self.next_tick <= t {
            self.do_tick();
            self.next_tick += self.cfg.tick;
        }
        for pi in 0..self.pcpus.len() {
            if self.pcpus[pi].running.is_some() && self.pcpus[pi].slice_end <= t {
                let vi = self.pcpus[pi].running.take().expect("running checked");
                self.set_state(vi, RunState::Runnable, t);
                self.insert_runq(PcpuId(pi as u32), vi, false);
                self.ctx_switches += 1;
            }
        }
    }

    fn do_tick(&mut self) {
        if self.cfg.precise_accounting {
            // Debit every VCPU for what it actually consumed this tick and
            // drop the transient BOOST of anything that ran.
            let now = self.now;
            for v in &mut self.vcpus {
                let consumed = std::mem::take(&mut v.consumed_since_tick);
                if consumed.is_zero() {
                    continue;
                }
                let debit = (consumed.as_nanos() as i64 * self.cfg.credits_per_tick as i64
                    / self.cfg.tick.as_nanos().max(1) as i64) as i32;
                v.credit = (v.credit - debit).max(CREDIT_FLOOR);
                v.prio = if now < v.boost_until {
                    Priority::Boost
                } else if v.credit >= 0 {
                    Priority::Under
                } else {
                    Priority::Over
                };
            }
        } else {
            // Xen's sampling: the whole debit lands on whoever is running.
            let now = self.now;
            for pi in 0..self.pcpus.len() {
                if let Some(vi) = self.pcpus[pi].running {
                    let v = &mut self.vcpus[vi];
                    v.credit -= self.cfg.credits_per_tick;
                    v.credit = v.credit.max(CREDIT_FLOOR);
                    v.prio = if now < v.boost_until {
                        Priority::Boost
                    } else if v.credit >= 0 {
                        Priority::Under
                    } else {
                        Priority::Over
                    };
                }
            }
        }
        self.ticks_until_acct -= 1;
        if self.ticks_until_acct == 0 {
            self.ticks_until_acct = self.cfg.ticks_per_acct;
            self.do_accounting();
        }
    }

    fn do_accounting(&mut self) {
        // A domain is active when any of its VCPUs is. Activity does not
        // change while credit is handed out, so it is recounted rather
        // than stored.
        let active_count = |vcpus: &[Vcpu]| vcpus.iter().filter(|v| v.is_active()).count();
        let active_weight: u64 = self
            .domains
            .iter()
            .zip(&self.dom_vcpus)
            .filter(|(_, r)| active_count(&self.vcpus[(*r).clone()]) > 0)
            .map(|(d, _)| d.weight() as u64)
            .sum();
        if active_weight > 0 {
            let pool = self.cfg.credits_per_acct() as i64 * self.cfg.ncpus as i64;
            for (d, r) in self.domains.iter().zip(&self.dom_vcpus) {
                let vcpus = &mut self.vcpus[r.clone()];
                let active = active_count(vcpus);
                if active == 0 {
                    continue;
                }
                // Round the share to the nearest credit rather than
                // truncating: truncation makes a domain burning exactly
                // its entitlement drift OVER one credit per period.
                let mut share =
                    (pool * d.weight() as i64 + active_weight as i64 / 2) / active_weight as i64;
                let cap = d.cap_percent();
                if cap > 0 {
                    let max = self.cfg.credits_per_acct() as i64 * cap as i64 / 100;
                    share = share.min(max);
                }
                let per_vcpu = (share / active as i64) as i32;
                for v in vcpus.iter_mut().filter(|v| v.is_active()) {
                    v.credit = (v.credit + per_vcpu).clamp(CREDIT_FLOOR, self.cfg.credit_cap);
                }
            }
        }
        // Refresh priorities (BOOST survives accounting; it is cleared by
        // the tick that debits the boosted VCPU), park/unpark capped
        // domains, reset period counters.
        for i in 0..self.vcpus.len() {
            let dom = self.vcpus[i].dom;
            let capped = self.domains[dom.0 as usize].cap_percent() > 0;
            let now = self.now;
            let v = &mut self.vcpus[i];
            v.consumed_in_period = Nanos::ZERO;
            if now < v.boost_until {
                v.prio = Priority::Boost;
            } else if v.prio != Priority::Boost {
                v.prio = if v.credit >= 0 {
                    Priority::Under
                } else {
                    Priority::Over
                };
            }
            match v.state {
                RunState::Parked => {
                    if v.credit > 0 {
                        let has_work = !v.work.is_empty();
                        let now = self.now;
                        if has_work {
                            self.set_state(i, RunState::Runnable, now);
                            let p = self.choose_pcpu(i);
                            self.insert_runq(p, i, false);
                        } else {
                            self.set_state(i, RunState::Blocked, now);
                        }
                    }
                }
                RunState::Runnable | RunState::Running => {
                    if capped && v.credit <= -self.cfg.credit_cap {
                        let now = self.now;
                        if v.state == RunState::Runnable {
                            self.remove_from_runq(i);
                        } else {
                            for p in &mut self.pcpus {
                                if p.running == Some(i) {
                                    p.running = None;
                                }
                            }
                            self.ctx_switches += 1;
                        }
                        self.set_state(i, RunState::Parked, now);
                    }
                }
                RunState::Blocked => {}
            }
        }
        // Runqueue order may be stale after priority changes.
        self.resort_runqueues();
    }

    fn resort_runqueues(&mut self) {
        let vcpus = &self.vcpus;
        for p in &mut self.pcpus {
            // Stable, so FIFO order within each class is kept.
            p.runq
                .make_contiguous()
                .sort_by_key(|&vi| vcpus[vi].prio.rank());
        }
    }

    /// Preempts running VCPUs whose local runqueue head outranks them.
    fn preempt_where_needed(&mut self, t: Nanos) {
        for pi in 0..self.pcpus.len() {
            let Some(vi) = self.pcpus[pi].running else { continue };
            let Some(&head) = self.pcpus[pi].runq.front() else {
                continue;
            };
            if self.vcpus[head].prio.rank() < self.vcpus[vi].prio.rank() {
                self.pcpus[pi].running = None;
                self.set_state(vi, RunState::Runnable, t);
                self.insert_runq(PcpuId(pi as u32), vi, false);
                self.preemptions += 1;
                self.ctx_switches += 1;
            }
        }
    }

    /// Fills every idle pCPU from its runqueue or by stealing.
    fn reschedule(&mut self) {
        self.dirty_horizon();
        let t = self.now;
        self.preempt_where_needed(t);
        for pi in 0..self.pcpus.len() {
            if self.pcpus[pi].running.is_some() {
                continue;
            }
            let next = self.pcpus[pi].runq.pop_front().or_else(|| self.steal(pi));
            if let Some(vi) = next {
                self.pcpus[pi].running = Some(vi);
                self.pcpus[pi].last_charge = t;
                self.pcpus[pi].slice_end = t + self.cfg.slice;
                self.set_state(vi, RunState::Running, t);
                self.vcpus[vi].last_pcpu = PcpuId(pi as u32);
                self.ctx_switches += 1;
            }
        }
        self.rebalance(t);
    }

    /// Global priority balancing (Xen's `csched_load_balance`): a queued
    /// VCPU never waits on one pCPU while a lower-priority VCPU runs on
    /// another pCPU it could use. Repeatedly migrates the highest-priority
    /// waiter over the lowest-priority runner until no inversion remains.
    fn rebalance(&mut self, t: Nanos) {
        loop {
            // Highest-priority waiting vcpu (queues are rank-sorted, so
            // heads suffice) and the lowest-priority runner it may preempt.
            let mut best: Option<(u8, usize, usize)> = None; // (rank, pcpu, vcpu)
            for (pi, p) in self.pcpus.iter().enumerate() {
                if let Some(&head) = p.runq.front() {
                    let rank = self.vcpus[head].prio.rank();
                    if best.is_none_or(|(r, _, _)| rank < r) {
                        best = Some((rank, pi, head));
                    }
                }
            }
            let Some((wait_rank, from_pi, vi)) = best else { return };
            let mut victim: Option<(u8, usize)> = None; // (rank, pcpu)
            for (pi, p) in self.pcpus.iter().enumerate() {
                let Some(run) = p.running else { continue };
                if !self.allowed_on(vi, PcpuId(pi as u32)) {
                    continue;
                }
                let rank = self.vcpus[run].prio.rank();
                if rank > wait_rank && victim.is_none_or(|(r, _)| rank > r) {
                    victim = Some((rank, pi));
                }
            }
            let Some((_, to_pi)) = victim else { return };
            // Demote the runner, migrate the waiter in.
            let out = self.pcpus[to_pi].running.take().expect("victim runs");
            self.set_state(out, RunState::Runnable, t);
            self.insert_runq(PcpuId(to_pi as u32), out, false);
            let pos = self.pcpus[from_pi]
                .runq
                .iter()
                .position(|&o| o == vi)
                .expect("waiter queued");
            self.pcpus[from_pi].runq.remove(pos);
            self.pcpus[to_pi].running = Some(vi);
            self.pcpus[to_pi].last_charge = t;
            self.pcpus[to_pi].slice_end = t + self.cfg.slice;
            self.set_state(vi, RunState::Running, t);
            if self.vcpus[vi].last_pcpu != PcpuId(to_pi as u32) {
                self.migrations += 1;
            }
            self.vcpus[vi].last_pcpu = PcpuId(to_pi as u32);
            self.preemptions += 1;
            self.ctx_switches += 1;
        }
    }

    /// Takes the highest-priority runnable VCPU allowed on `pi` from the
    /// longest-suffering peer runqueue.
    fn steal(&mut self, pi: usize) -> Option<usize> {
        let target = PcpuId(pi as u32);
        let mut best: Option<(u8, usize, usize)> = None; // (rank, owner_pcpu, pos)
        for (opi, p) in self.pcpus.iter().enumerate() {
            if opi == pi {
                continue;
            }
            for (pos, &vi) in p.runq.iter().enumerate() {
                if !self.allowed_on(vi, target) {
                    continue;
                }
                let rank = self.vcpus[vi].prio.rank();
                if best.is_none_or(|(brank, _, _)| rank < brank) {
                    best = Some((rank, opi, pos));
                }
                break; // runq is priority-ordered; first eligible is best here
            }
        }
        let (_, opi, pos) = best?;
        self.migrations += 1;
        self.pcpus[opi].runq.remove(pos)
    }

    fn allowed_on(&self, vi: usize, p: PcpuId) -> bool {
        match &self.vcpus[vi].affinity {
            None => true,
            Some(set) => set.contains(&p),
        }
    }

    fn choose_pcpu(&self, vi: usize) -> PcpuId {
        let allowed = || {
            (0..self.cfg.ncpus)
                .map(PcpuId)
                .filter(move |&p| self.allowed_on(vi, p))
        };
        // Prefer an idle pCPU, then the last one used, then the shortest queue.
        let idle = allowed().find(|p| {
            let pc = &self.pcpus[p.0 as usize];
            pc.running.is_none() && pc.runq.is_empty()
        });
        if let Some(p) = idle {
            return p;
        }
        // `last_pcpu` is always a valid pCPU, so this is membership of
        // the allowed set.
        let last = self.vcpus[vi].last_pcpu;
        if self.allowed_on(vi, last) {
            return last;
        }
        allowed()
            .min_by_key(|p| self.pcpus[p.0 as usize].runq.len())
            .expect("vcpu pinned to no pcpu")
    }

    fn wake_vcpu(&mut self, vi: usize, mode: WakeMode) {
        let now = self.now;
        let pending = std::mem::replace(&mut self.vcpus[vi].pending_boost, false);
        let boost = pending
            || (matches!(mode, WakeMode::Boost)
                && self.cfg.boost_on_wake
                && self.vcpus[vi].credit >= 0);
        self.vcpus[vi].prio = if boost {
            Priority::Boost
        } else if self.vcpus[vi].credit >= 0 {
            Priority::Under
        } else {
            Priority::Over
        };
        self.set_state(vi, RunState::Runnable, now);
        let p = self.choose_pcpu(vi);
        self.insert_runq(p, vi, boost && pending);
    }

    /// Inserts into the pCPU's runqueue at the tail (or head, for
    /// triggered boosts) of the VCPU's priority class.
    fn insert_runq(&mut self, p: PcpuId, vi: usize, front_of_class: bool) {
        let rank = self.vcpus[vi].prio.rank();
        let q = &mut self.pcpus[p.0 as usize].runq;
        let pos = if front_of_class {
            q.iter()
                .position(|&o| self.vcpus[o].prio.rank() >= rank)
                .unwrap_or(q.len())
        } else {
            q.iter()
                .position(|&o| self.vcpus[o].prio.rank() > rank)
                .unwrap_or(q.len())
        };
        q.insert(pos, vi);
    }

    fn remove_from_runq(&mut self, vi: usize) {
        for p in &mut self.pcpus {
            if let Some(pos) = p.runq.iter().position(|&o| o == vi) {
                p.runq.remove(pos);
                return;
            }
        }
    }

    /// Transitions a VCPU's run state, attributing the elapsed interval to
    /// the state being left.
    fn set_state(&mut self, vi: usize, new: RunState, t: Nanos) {
        let dom = self.vcpus[vi].dom;
        let since = self.vcpus[vi].state_since;
        let dt = t.saturating_sub(since);
        match self.vcpus[vi].state {
            RunState::Runnable => self.usage.add_runnable(dom, dt),
            RunState::Blocked | RunState::Parked => self.usage.add_blocked(dom, dt),
            RunState::Running => {} // attributed during charge_to
        }
        self.vcpus[vi].state = new;
        self.vcpus[vi].state_since = t;
    }

    /// Attributes in-progress runnable/blocked intervals up to `now` so a
    /// usage snapshot is consistent.
    fn flush_states(&mut self) {
        let t = self.now;
        for vi in 0..self.vcpus.len() {
            let state = self.vcpus[vi].state;
            self.set_state(vi, state, t);
        }
    }

    fn pick_vcpu_for_work(&self, dom: DomId) -> Result<usize, SchedError> {
        self.vcpus_of(dom)?
            .min_by_key(|&i| self.vcpus[i].work.len())
            .ok_or(SchedError::NoVcpus)
    }
}

/// The scheduler as a master-loop event source: its horizon is the next
/// tick / slice expiry / burst completion, and advancing it emits the
/// completions that occurred on the way. (The x86 island's component
/// face — the platform registry drives every island through this trait.)
impl simcore::Component for CreditScheduler {
    type Event = SchedEvent;

    fn next_event_time(&self) -> Option<Nanos> {
        CreditScheduler::next_event_time(self)
    }

    fn advance(&mut self, now: Nanos, out: &mut Vec<SchedEvent>) {
        self.on_timer(now, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive_until(s: &mut CreditScheduler, t: Nanos) -> Vec<SchedEvent> {
        let mut out = Vec::new();
        while let Some(next) = s.next_event_time() {
            if next > t {
                break;
            }
            s.on_timer(next, &mut out);
        }
        s.on_timer(t, &mut out);
        out
    }

    #[test]
    fn single_burst_completes_on_time() {
        let mut s = CreditScheduler::new(SchedConfig::new(1));
        let d = s.create_domain("a", 256, 1);
        s.submit(Nanos::ZERO, d, Burst::user(Nanos::from_millis(5), 42), WakeMode::Plain)
            .unwrap();
        let done = drive_until(&mut s, Nanos::from_millis(10));
        assert_eq!(done.len(), 1);
        let SchedEvent::Completed { dom, tag, at, .. } = done[0];
        assert_eq!((dom, tag, at), (d, 42, Nanos::from_millis(5)));
    }

    #[test]
    fn half_speed_doubles_burst_wall_time() {
        let mut s = CreditScheduler::new(SchedConfig::new(1));
        let d = s.create_domain("a", 256, 1);
        s.set_speed(50, 100);
        s.submit(Nanos::ZERO, d, Burst::user(Nanos::from_millis(5), 7), WakeMode::Plain)
            .unwrap();
        let done = drive_until(&mut s, Nanos::from_millis(20));
        assert_eq!(done.len(), 1);
        let SchedEvent::Completed { at, .. } = done[0];
        assert_eq!(at, Nanos::from_millis(10), "5 ms of demand at half speed");
    }

    #[test]
    fn explicit_nominal_speed_matches_the_default_path() {
        let run = |set_nominal: bool| {
            let mut s = CreditScheduler::new(SchedConfig::new(1));
            let a = s.create_domain("a", 256, 1);
            let b = s.create_domain("b", 768, 1);
            if set_nominal {
                s.set_speed(100, 100);
            }
            s.submit(Nanos::ZERO, a, Burst::user(Nanos::from_millis(47), 1), WakeMode::Plain)
                .unwrap();
            s.submit(Nanos::from_micros(300), b, Burst::user(Nanos::from_millis(13), 2), WakeMode::Boost)
                .unwrap();
            drive_until(&mut s, Nanos::from_secs(1))
        };
        assert_eq!(run(false), run(true), "nominal speed must be the identity");
    }

    #[test]
    fn speed_change_mid_burst_scales_only_the_remainder() {
        let mut s = CreditScheduler::new(SchedConfig::new(1));
        let d = s.create_domain("a", 256, 1);
        s.submit(Nanos::ZERO, d, Burst::user(Nanos::from_millis(8), 7), WakeMode::Plain)
            .unwrap();
        // 4 ms runs at nominal, then the clock drops to half speed: the
        // remaining 4 ms of demand needs 8 ms of wall time.
        let mut out = Vec::new();
        s.on_timer(Nanos::from_millis(4), &mut out);
        s.set_speed(50, 100);
        let done = drive_until(&mut s, Nanos::from_millis(20));
        let SchedEvent::Completed { at, .. } = done[0];
        assert_eq!(at, Nanos::from_millis(12));
    }

    #[test]
    #[should_panic(expected = "positive rational")]
    fn zero_speed_is_rejected() {
        let mut s = CreditScheduler::new(SchedConfig::new(1));
        s.set_speed(0, 100);
    }

    #[test]
    fn two_domains_share_one_cpu_by_weight() {
        let mut s = CreditScheduler::new(SchedConfig::new(1));
        let a = s.create_domain("a", 256, 1);
        let b = s.create_domain("b", 768, 1);
        // Saturate both with long work.
        s.submit(Nanos::ZERO, a, Burst::user(Nanos::from_secs(10), 1), WakeMode::Plain)
            .unwrap();
        s.submit(Nanos::ZERO, b, Burst::user(Nanos::from_secs(10), 2), WakeMode::Plain)
            .unwrap();
        drive_until(&mut s, Nanos::from_secs(3));
        let snap = s.usage_snapshot();
        let ua = snap.cpu_percent(a);
        let ub = snap.cpu_percent(b);
        // 1:3 weight ratio should yield roughly 25%/75%.
        assert!((ua - 25.0).abs() < 6.0, "a got {ua}%");
        assert!((ub - 75.0).abs() < 6.0, "b got {ub}%");
        assert!((ua + ub - 100.0).abs() < 2.0, "sum {}", ua + ub);
    }

    #[test]
    fn weight_change_shifts_allocation() {
        let mut s = CreditScheduler::new(SchedConfig::new(1));
        let a = s.create_domain("a", 256, 1);
        let b = s.create_domain("b", 256, 1);
        s.submit(Nanos::ZERO, a, Burst::user(Nanos::from_secs(30), 1), WakeMode::Plain)
            .unwrap();
        s.submit(Nanos::ZERO, b, Burst::user(Nanos::from_secs(30), 2), WakeMode::Plain)
            .unwrap();
        drive_until(&mut s, Nanos::from_secs(2));
        s.reset_usage();
        s.set_weight(a, 1024).unwrap();
        drive_until(&mut s, Nanos::from_secs(5));
        let snap = s.usage_snapshot();
        let ua = snap.cpu_percent(a);
        let ub = snap.cpu_percent(b);
        // 4:1 ratio → ~80/20.
        assert!(ua > 70.0, "a got {ua}%");
        assert!(ub < 30.0, "b got {ub}%");
    }

    #[test]
    fn two_cpus_run_two_domains_concurrently() {
        let mut s = CreditScheduler::new(SchedConfig::new(2));
        let a = s.create_domain("a", 256, 1);
        let b = s.create_domain("b", 256, 1);
        s.submit(Nanos::ZERO, a, Burst::user(Nanos::from_millis(100), 1), WakeMode::Plain)
            .unwrap();
        s.submit(Nanos::ZERO, b, Burst::user(Nanos::from_millis(100), 2), WakeMode::Plain)
            .unwrap();
        let done = drive_until(&mut s, Nanos::from_millis(100));
        assert_eq!(done.len(), 2);
        for ev in done {
            let SchedEvent::Completed { at, .. } = ev;
            assert_eq!(at, Nanos::from_millis(100), "no contention on 2 cpus");
        }
    }

    #[test]
    fn boost_wake_preempts_cpu_hog() {
        let mut s = CreditScheduler::new(SchedConfig::new(1));
        let hog = s.create_domain("hog", 256, 1);
        let io = s.create_domain("io", 256, 1);
        s.submit(Nanos::ZERO, hog, Burst::user(Nanos::from_secs(10), 1), WakeMode::Plain)
            .unwrap();
        drive_until(&mut s, Nanos::from_millis(100));
        // An I/O wake should run almost immediately despite the hog.
        let t0 = Nanos::from_millis(100);
        s.submit(t0, io, Burst::user(Nanos::from_micros(500), 9), WakeMode::Boost)
            .unwrap();
        let done = drive_until(&mut s, Nanos::from_millis(105));
        let finish = done.iter().find_map(|e| {
            let SchedEvent::Completed { tag, at, .. } = e;
            (*tag == 9).then_some(*at)
        });
        let finish = finish.expect("io burst completed");
        assert!(
            finish <= t0 + Nanos::from_millis(1),
            "boosted wake finished at {finish}"
        );
    }

    #[test]
    fn plain_wake_queues_behind_equal_priority_hog() {
        // The hog has enormous weight, so its credit stays positive (UNDER)
        // even while monopolising the CPU. A plain wake at equal (UNDER)
        // priority must queue; only a boosted wake preempts.
        let mut s = CreditScheduler::new(SchedConfig::new(1));
        let hog = s.create_domain("hog", 60_000, 1);
        let meek = s.create_domain("meek", 16, 1);
        s.submit(Nanos::ZERO, hog, Burst::user(Nanos::from_secs(10), 1), WakeMode::Plain)
            .unwrap();
        drive_until(&mut s, Nanos::from_millis(95));
        let t0 = s.now();
        s.submit(t0, meek, Burst::user(Nanos::from_micros(500), 9), WakeMode::Plain)
            .unwrap();
        let done = drive_until(&mut s, t0 + Nanos::from_millis(200));
        let finish = done
            .iter()
            .find_map(|e| {
                let SchedEvent::Completed { tag, at, .. } = e;
                (*tag == 9).then_some(*at)
            })
            .expect("meek completed");
        assert!(
            finish > t0 + Nanos::from_millis(1),
            "plain wake should queue, finished at {finish} (t0 {t0})"
        );
    }

    #[test]
    fn trigger_boost_front_jumps_queue() {
        let mut s = CreditScheduler::new(SchedConfig::new(1));
        let hog = s.create_domain("hog", 256, 1);
        let v1 = s.create_domain("v1", 256, 1);
        let v2 = s.create_domain("v2", 256, 1);
        s.submit(Nanos::ZERO, hog, Burst::user(Nanos::from_secs(10), 1), WakeMode::Plain)
            .unwrap();
        s.submit(Nanos::ZERO, v1, Burst::user(Nanos::from_millis(50), 2), WakeMode::Plain)
            .unwrap();
        s.submit(Nanos::ZERO, v2, Burst::user(Nanos::from_millis(1), 3), WakeMode::Plain)
            .unwrap();
        // v2 sits behind v1 in the runqueue; a Trigger promotes it past
        // both the queue and the running hog.
        s.boost_front(Nanos::from_millis(2), v2).unwrap();
        let done = drive_until(&mut s, Nanos::from_millis(5));
        let finish = done
            .iter()
            .find_map(|e| {
                let SchedEvent::Completed { tag, at, .. } = e;
                (*tag == 3).then_some(*at)
            })
            .expect("v2 completed");
        assert!(finish <= Nanos::from_millis(3), "triggered at 2ms, done {finish}");
    }

    #[test]
    fn cap_limits_consumption() {
        let mut s = CreditScheduler::new(SchedConfig::new(1));
        let capped = s.create_domain("capped", 256, 1);
        s.set_cap(capped, 25).unwrap();
        s.submit(Nanos::ZERO, capped, Burst::user(Nanos::from_secs(30), 1), WakeMode::Plain)
            .unwrap();
        drive_until(&mut s, Nanos::from_secs(4));
        let snap = s.usage_snapshot();
        let u = snap.cpu_percent(capped);
        assert!(u < 45.0, "capped domain consumed {u}% (expected bounded)");
        assert!(u > 10.0, "capped domain starved at {u}%");
    }

    #[test]
    fn pinning_keeps_vcpu_on_cpu() {
        let mut s = CreditScheduler::new(SchedConfig::new(2));
        let a = s.create_domain("a", 256, 1);
        let b = s.create_domain("b", 256, 1);
        s.pin_domain(a, &[PcpuId(0)]).unwrap();
        s.pin_domain(b, &[PcpuId(0)]).unwrap();
        s.submit(Nanos::ZERO, a, Burst::user(Nanos::from_secs(4), 1), WakeMode::Plain)
            .unwrap();
        s.submit(Nanos::ZERO, b, Burst::user(Nanos::from_secs(4), 2), WakeMode::Plain)
            .unwrap();
        drive_until(&mut s, Nanos::from_secs(2));
        let snap = s.usage_snapshot();
        // Sharing one pinned CPU → each near 50%, total ≈ 100 despite 2 cpus.
        let total = snap.cpu_percent(a) + snap.cpu_percent(b);
        assert!((total - 100.0).abs() < 5.0, "total {total}");
    }

    #[test]
    fn pin_validates_pcpu() {
        let mut s = CreditScheduler::new(SchedConfig::new(1));
        let a = s.create_domain("a", 256, 1);
        assert_eq!(
            s.pin_domain(a, &[PcpuId(5)]),
            Err(SchedError::BadAffinity(5))
        );
    }

    #[test]
    fn unknown_domain_errors() {
        let mut s = CreditScheduler::new(SchedConfig::new(1));
        let ghost = DomId(99);
        assert!(matches!(
            s.submit(Nanos::ZERO, ghost, Burst::user(Nanos(1), 0), WakeMode::Plain),
            Err(SchedError::UnknownDomain(_))
        ));
        assert!(s.set_weight(ghost, 512).is_err());
        assert!(s.boost_front(Nanos::ZERO, ghost).is_err());
        assert!(s.notify(Nanos::ZERO, ghost).is_err());
    }

    #[test]
    fn ids_past_the_end_are_unknown() {
        let mut s = CreditScheduler::new(SchedConfig::new(1));
        let a = s.create_domain("a", 256, 2);
        let past = DomId(a.0 + 1);
        assert_eq!(s.weight(past), Err(SchedError::UnknownDomain(past)));
        assert_eq!(s.set_cap(past, 50), Err(SchedError::UnknownDomain(past)));
        assert_eq!(
            s.grant_credit(past, 10),
            Err(SchedError::UnknownDomain(past))
        );
        assert_eq!(
            s.pin_domain(past, &[PcpuId(0)]),
            Err(SchedError::UnknownDomain(past))
        );
        assert!(s.domain(past).is_none());
        assert!(s.credit(past).is_none() && s.run_state(past).is_none());
        assert!(s.credits_all(past).is_empty());
        assert_eq!(s.weight(a), Ok(256));
    }

    #[test]
    fn domains_iterate_in_id_order() {
        let mut s = CreditScheduler::new(SchedConfig::new(2));
        let ids: Vec<DomId> = ["dom0", "web", "app", "db"]
            .iter()
            .map(|n| s.create_domain(n, 256, 1))
            .collect();
        assert_eq!(ids, [DomId(0), DomId(1), DomId(2), DomId(3)]);
        let names: Vec<&str> = s.domains().map(|d| d.name()).collect();
        assert_eq!(names, ["dom0", "web", "app", "db"]);
        assert!(s.domains().map(|d| d.id()).eq(ids));
    }

    #[test]
    fn choose_pcpu_ignores_a_last_pcpu_outside_the_affinity() {
        // vcpu 0 starts with last_pcpu 0, which is idle but not allowed
        // once `a` is pinned to {1, 2}; both allowed pCPUs are busy and
        // pCPU 1 also has a waiter, so the shortest queue (pCPU 2) wins.
        let mut s = CreditScheduler::new(SchedConfig::new(3));
        let a = s.create_domain("a", 256, 1);
        let b = s.create_domain("b", 256, 1);
        let c = s.create_domain("c", 256, 1);
        let d = s.create_domain("d", 256, 1);
        s.pin_domain(b, &[PcpuId(1)]).unwrap();
        s.pin_domain(c, &[PcpuId(2)]).unwrap();
        s.pin_domain(d, &[PcpuId(1)]).unwrap();
        for (dom, tag) in [(b, 1), (c, 2), (d, 3)] {
            let burst = Burst::user(Nanos::from_secs(1), tag);
            s.submit(Nanos::ZERO, dom, burst, WakeMode::Plain).unwrap();
        }
        s.pin_domain(a, &[PcpuId(2), PcpuId(1)]).unwrap();
        assert_eq!(s.vcpus[0].last_pcpu, PcpuId(0));
        assert_eq!(s.pcpus[0].running, None);
        assert!(s.pcpus[1].running.is_some() && s.pcpus[1].runq.len() == 1);
        assert!(s.pcpus[2].running.is_some() && s.pcpus[2].runq.is_empty());
        assert_eq!(s.choose_pcpu(0), PcpuId(2));
    }

    #[test]
    fn idle_scheduler_has_no_events() {
        let mut s = CreditScheduler::new(SchedConfig::new(2));
        s.create_domain("a", 256, 1);
        assert_eq!(s.next_event_time(), None);
        let mut out = Vec::new();
        s.on_timer(Nanos::from_secs(1), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn work_after_idle_period_completes() {
        let mut s = CreditScheduler::new(SchedConfig::new(1));
        let a = s.create_domain("a", 256, 1);
        // Idle for 95ms, then submit.
        let t = Nanos::from_millis(95);
        s.submit(t, a, Burst::user(Nanos::from_millis(2), 7), WakeMode::Plain)
            .unwrap();
        let done = drive_until(&mut s, Nanos::from_millis(100));
        assert_eq!(done.len(), 1);
        let SchedEvent::Completed { at, .. } = done[0];
        assert_eq!(at, t + Nanos::from_millis(2));
    }

    #[test]
    fn sequential_bursts_complete_in_order() {
        let mut s = CreditScheduler::new(SchedConfig::new(1));
        let a = s.create_domain("a", 256, 1);
        for tag in 0..5 {
            s.submit(Nanos::ZERO, a, Burst::user(Nanos::from_millis(1), tag), WakeMode::Plain)
                .unwrap();
        }
        let done = drive_until(&mut s, Nanos::from_millis(10));
        let tags: Vec<u64> = done
            .iter()
            .map(|e| {
                let SchedEvent::Completed { tag, .. } = e;
                *tag
            })
            .collect();
        assert_eq!(tags, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn zero_demand_burst_completes_immediately() {
        let mut s = CreditScheduler::new(SchedConfig::new(1));
        let a = s.create_domain("a", 256, 1);
        let out = s
            .submit(Nanos::ZERO, a, Burst::user(Nanos::ZERO, 5), WakeMode::Plain)
            .unwrap();
        // Completion surfaces on the next advance (timer or submit).
        let done = if out.is_empty() {
            drive_until(&mut s, Nanos::from_millis(1))
        } else {
            out
        };
        assert!(done
            .iter()
            .any(|e| matches!(e, SchedEvent::Completed { tag: 5, .. })));
    }

    #[test]
    fn usage_accounts_system_vs_user() {
        let mut s = CreditScheduler::new(SchedConfig::new(1));
        let a = s.create_domain("a", 256, 1);
        s.submit(Nanos::ZERO, a, Burst::user(Nanos::from_millis(30), 1), WakeMode::Plain)
            .unwrap();
        s.submit(Nanos::ZERO, a, Burst::system(Nanos::from_millis(10), 2), WakeMode::Plain)
            .unwrap();
        drive_until(&mut s, Nanos::from_millis(100));
        let snap = s.usage_snapshot();
        assert!((snap.user_percent(a) - 30.0).abs() < 1.0);
        assert!((snap.system_percent(a) - 10.0).abs() < 1.0);
    }

    #[test]
    fn counters_advance() {
        let mut s = CreditScheduler::new(SchedConfig::new(1));
        let a = s.create_domain("a", 256, 1);
        let b = s.create_domain("b", 256, 1);
        s.submit(Nanos::ZERO, a, Burst::user(Nanos::from_secs(1), 1), WakeMode::Plain)
            .unwrap();
        s.submit(Nanos::ZERO, b, Burst::user(Nanos::from_secs(1), 2), WakeMode::Plain)
            .unwrap();
        drive_until(&mut s, Nanos::from_secs(2));
        assert!(s.context_switches() > 2);
        assert_eq!(s.run_state(a), Some(RunState::Blocked));
        assert_eq!(s.backlog(a), Nanos::ZERO);
    }

    #[test]
    fn steal_balances_load_across_cpus() {
        let mut s = CreditScheduler::new(SchedConfig::new(2));
        let a = s.create_domain("a", 256, 1);
        let b = s.create_domain("b", 256, 1);
        let c = s.create_domain("c", 256, 1);
        // All three wake at the same instant; two cpus must run two of them
        // immediately, one queues. Total throughput ≈ 2 cpus.
        for (d, tag) in [(a, 1u64), (b, 2), (c, 3)] {
            s.submit(Nanos::ZERO, d, Burst::user(Nanos::from_secs(2), tag), WakeMode::Plain)
                .unwrap();
        }
        drive_until(&mut s, Nanos::from_secs(3));
        let snap = s.usage_snapshot();
        let total: f64 = [a, b, c].iter().map(|d| snap.cpu_percent(*d)).sum();
        assert!(total > 180.0, "both cpus utilised, total {total}");
    }

    #[test]
    fn sampling_accounting_is_dodgeable_precise_is_not() {
        // A deterministic sub-tick on/off workload aligned against the
        // tick grid dodges sampled debits (the classic Xen credit
        // vulnerability) but not precise accounting.
        let run = |precise: bool| -> i32 {
            let mut cfg = SchedConfig::new(1);
            cfg.precise_accounting = precise;
            let mut s = CreditScheduler::new(cfg);
            let d = s.create_domain("dodger", 256, 1);
            let other = s.create_domain("other", 256, 1);
            // A continuously-busy background keeps ticks and accounting
            // alive; the dodger preempts it with sub-tick bursts that
            // start right after each 10 ms tick.
            s.submit(Nanos::ZERO, other, Burst::user(Nanos::from_secs(10), 999), WakeMode::Plain)
                .unwrap();
            for i in 0..200u64 {
                let t = Nanos::from_millis(i * 10) + Nanos::from_micros(500);
                s.submit(t, d, Burst::user(Nanos::from_millis(8), i), WakeMode::Boost)
                    .unwrap();
                while let Some(next) = s.next_event_time() {
                    if next > Nanos::from_millis(i * 10 + 10) {
                        break;
                    }
                    s.on_timer(next, &mut Vec::new());
                }
            }
            s.credit(d).unwrap()
        };
        let sampled = run(false);
        let precise = run(true);
        // Under sampling the dodger keeps accumulating credit (never
        // caught running at a tick); precise accounting debits it for its
        // real 80% consumption and sinks it.
        assert!(sampled > 0, "sampling dodged: credit {sampled}");
        assert!(precise < sampled, "precise {precise} vs sampled {sampled}");
    }

    #[test]
    fn grant_credit_lifts_priority() {
        let mut s = CreditScheduler::new(SchedConfig::new(1));
        let a = s.create_domain("a", 256, 1);
        let _b = s.create_domain("b", 256, 1);
        s.submit(Nanos::ZERO, a, Burst::user(Nanos::from_secs(5), 1), WakeMode::Plain)
            .unwrap();
        // Burn a into deep OVER.
        drive_until(&mut s, Nanos::from_secs(2));
        assert!(s.credit(a).unwrap() < 0);
        assert_eq!(s.priority(a), Some(Priority::Over));
        let owed = -s.credit(a).unwrap() + 50;
        s.grant_credit(a, owed).unwrap();
        assert!(s.credit(a).unwrap() >= 0);
        assert_eq!(s.priority(a), Some(Priority::Under));
        // Grants clamp at the accumulation cap.
        s.grant_credit(a, 1_000_000).unwrap();
        assert!(s.credit(a).unwrap() <= 300);
        assert!(s.grant_credit(DomId(99), 10).is_err());
    }

    #[test]
    fn trigger_boost_survives_ticks_for_one_slice() {
        let mut s = CreditScheduler::new(SchedConfig::new(1));
        let hog = s.create_domain("hog", 256, 1);
        let v = s.create_domain("v", 256, 1);
        s.submit(Nanos::ZERO, hog, Burst::user(Nanos::from_secs(5), 1), WakeMode::Plain)
            .unwrap();
        s.submit(Nanos::ZERO, v, Burst::user(Nanos::from_secs(5), 2), WakeMode::Plain)
            .unwrap();
        drive_until(&mut s, Nanos::from_millis(95));
        let t = s.now();
        s.boost_front(t, v).unwrap();
        assert_eq!(s.priority(v), Some(Priority::Boost));
        // Ticks inside the granted slice keep the BOOST.
        drive_until(&mut s, t + Nanos::from_millis(15));
        assert_eq!(s.priority(v), Some(Priority::Boost), "boost persists mid-slice");
        // Past the slice the priority reverts to credit-driven.
        drive_until(&mut s, t + Nanos::from_millis(45));
        assert_ne!(s.priority(v), Some(Priority::Boost), "boost expired");
    }

    #[test]
    fn rebalance_migrates_high_priority_waiters() {
        // Two UNDER vcpus stuck on one pcpu's queue while an OVER vcpu
        // runs on the other must migrate (csched_load_balance).
        let mut s = CreditScheduler::new(SchedConfig::new(2));
        let over = s.create_domain("over", 16, 1);
        let a = s.create_domain("a", 1024, 1);
        let b = s.create_domain("b", 1024, 1);
        // The low-weight domain saturates first and sinks OVER.
        s.submit(Nanos::ZERO, over, Burst::user(Nanos::from_secs(10), 1), WakeMode::Plain)
            .unwrap();
        s.submit(Nanos::ZERO, a, Burst::user(Nanos::from_secs(10), 2), WakeMode::Plain)
            .unwrap();
        drive_until(&mut s, Nanos::from_millis(200));
        s.submit(Nanos::from_millis(200), b, Burst::user(Nanos::from_secs(10), 3), WakeMode::Plain)
            .unwrap();
        drive_until(&mut s, Nanos::from_secs(4));
        let snap = s.usage_snapshot();
        // The two heavyweights must not be serialized behind each other:
        // each gets roughly a full CPU's worth while the lightweight OVER
        // domain scrapes the leftovers.
        let ua = snap.cpu_percent(a);
        let ub = snap.cpu_percent(b);
        let uo = snap.cpu_percent(over);
        assert!(ua > 70.0, "a {ua}");
        assert!(ub > 70.0, "b {ub}");
        assert!(uo < 30.0, "over-class domain squeezed: {uo}");
        assert!(
            s.migrations() + s.preemptions() > 0,
            "priority inversions were resolved"
        );
    }

    #[test]
    fn notify_wakes_only_domains_with_work() {
        let mut s = CreditScheduler::new(SchedConfig::new(1));
        let d = s.create_domain("d", 256, 1);
        s.notify(Nanos::ZERO, d).unwrap();
        assert_eq!(s.run_state(d), Some(RunState::Blocked), "nothing to run");
        s.submit(Nanos::ZERO, d, Burst::user(Nanos::from_millis(1), 1), WakeMode::Plain)
            .unwrap();
        drive_until(&mut s, Nanos::from_millis(5));
        assert_eq!(s.run_state(d), Some(RunState::Blocked));
    }

    #[test]
    fn multi_vcpu_domain_spreads_over_pcpus() {
        let mut s = CreditScheduler::new(SchedConfig::new(2));
        let d = s.create_domain("wide", 256, 2);
        // Two long bursts land on different VCPUs and run concurrently.
        s.submit(Nanos::ZERO, d, Burst::user(Nanos::from_millis(100), 1), WakeMode::Plain)
            .unwrap();
        s.submit(Nanos::ZERO, d, Burst::user(Nanos::from_millis(100), 2), WakeMode::Plain)
            .unwrap();
        let done = drive_until(&mut s, Nanos::from_millis(100));
        assert_eq!(done.len(), 2);
        for ev in done {
            let SchedEvent::Completed { at, .. } = ev;
            assert_eq!(at, Nanos::from_millis(100), "ran in parallel");
        }
        let snap = s.usage_snapshot();
        assert!(snap.cpu_percent(d) > 150.0, "used both pcpus");
    }

    #[test]
    fn affinity_constrains_rebalancing() {
        let mut s = CreditScheduler::new(SchedConfig::new(2));
        let pinned = s.create_domain("pinned", 1024, 1);
        let free_a = s.create_domain("a", 256, 1);
        let free_b = s.create_domain("b", 256, 1);
        s.pin_domain(pinned, &[PcpuId(1)]).unwrap();
        for (d, tag) in [(pinned, 1u64), (free_a, 2), (free_b, 3)] {
            s.submit(Nanos::ZERO, d, Burst::user(Nanos::from_secs(4), tag), WakeMode::Plain)
                .unwrap();
        }
        drive_until(&mut s, Nanos::from_secs(2));
        let snap = s.usage_snapshot();
        // The pinned heavyweight owns most of pcpu1; the two free domains
        // share what remains, mostly pcpu0.
        assert!(snap.cpu_percent(pinned) > 55.0, "{}", snap.cpu_percent(pinned));
        let others = snap.cpu_percent(free_a) + snap.cpu_percent(free_b);
        assert!(others > 95.0, "free domains keep a full cpu: {others}");
    }

    #[test]
    fn capped_domain_cannot_use_idle_capacity() {
        // Even on an otherwise idle host, a 20% cap binds (Xen cap
        // semantics): that is what distinguishes caps from weights.
        let mut s = CreditScheduler::new(SchedConfig::new(1));
        let capped = s.create_domain("capped", 256, 1);
        s.set_cap(capped, 20).unwrap();
        s.submit(Nanos::ZERO, capped, Burst::user(Nanos::from_secs(30), 1), WakeMode::Plain)
            .unwrap();
        drive_until(&mut s, Nanos::from_secs(5));
        let snap = s.usage_snapshot();
        let u = snap.cpu_percent(capped);
        assert!(u < 40.0, "cap binds on an idle host: {u}%");
    }

    #[test]
    fn weight_change_applies_within_one_accounting_period() {
        let mut s = CreditScheduler::new(SchedConfig::new(1));
        let a = s.create_domain("a", 256, 1);
        let b = s.create_domain("b", 256, 1);
        for (d, t) in [(a, 1u64), (b, 2)] {
            s.submit(Nanos::ZERO, d, Burst::user(Nanos::from_secs(30), t), WakeMode::Plain)
                .unwrap();
        }
        drive_until(&mut s, Nanos::from_secs(1));
        s.set_weight(a, 2048).unwrap();
        // Credits follow the new weight at the next 30 ms accounting, so
        // within a second the share is strongly skewed.
        s.reset_usage();
        drive_until(&mut s, Nanos::from_secs(2));
        let snap = s.usage_snapshot();
        assert!(
            snap.cpu_percent(a) > 2.0 * snap.cpu_percent(b),
            "a {} vs b {}",
            snap.cpu_percent(a),
            snap.cpu_percent(b)
        );
    }

    #[test]
    fn cached_horizon_matches_recomputation_under_random_ops() {
        // Drive the scheduler through a long randomized operation mix and
        // assert after every single operation that the memoized
        // next_event_time equals a from-scratch horizon scan. Any missed
        // dirty-flag invalidation shows up here.
        use simcore::SimRng;
        for seed in [1u64, 42, 0xDEAD] {
            let mut rng = SimRng::new(seed);
            let mut s = CreditScheduler::new(SchedConfig::new(2));
            let doms: Vec<DomId> = (0..4).map(|i| {
                s.create_domain(&format!("d{i}"), 128 + 128 * i, 1 + (i % 2))
            }).collect();
            let mut now = Nanos::ZERO;
            for _ in 0..2_000 {
                let dom = doms[rng.below(doms.len() as u64) as usize];
                match rng.below(9) {
                    0..=2 => {
                        let demand = Nanos::from_micros(rng.range(0, 20_000));
                        let wake = if rng.chance(0.5) { WakeMode::Boost } else { WakeMode::Plain };
                        s.submit(now, dom, Burst::user(demand, rng.next_u64()), wake).unwrap();
                    }
                    3 | 4 => {
                        now += Nanos::from_micros(rng.range(0, 15_000));
                        s.on_timer(now, &mut Vec::new());
                    }
                    5 => {
                        s.boost_front(now, dom).unwrap();
                    }
                    6 => {
                        s.grant_credit(dom, rng.range(1, 200) as i32).unwrap();
                    }
                    7 => {
                        s.notify(now, dom).unwrap();
                    }
                    _ => match rng.below(4) {
                        0 => s.set_weight(dom, rng.range(1, 1024) as u32).unwrap(),
                        1 => s.set_cap(dom, rng.range(0, 150) as u32).unwrap(),
                        2 => s.pin_domain(dom, &[PcpuId(rng.below(2) as u32)]).unwrap(),
                        _ => {
                            let _ = s.usage_snapshot();
                        }
                    },
                }
                assert_eq!(
                    s.next_event_time(),
                    s.compute_horizon(),
                    "cached horizon diverged from recomputation (seed {seed})"
                );
            }
        }
    }

    #[test]
    fn usage_windows_are_disjoint() {
        let mut s = CreditScheduler::new(SchedConfig::new(1));
        let d = s.create_domain("d", 256, 1);
        s.submit(Nanos::ZERO, d, Burst::user(Nanos::from_millis(100), 1), WakeMode::Plain)
            .unwrap();
        drive_until(&mut s, Nanos::from_millis(100));
        let w1 = s.usage_snapshot().usage(d).unwrap().running();
        s.reset_usage();
        // Idle second window.
        drive_until(&mut s, Nanos::from_millis(200));
        let w2 = s.usage_snapshot().usage(d).unwrap().running();
        assert_eq!(w1, Nanos::from_millis(100));
        assert_eq!(w2, Nanos::ZERO);
    }
}
