//! The global controller.
//!
//! §2.3: "At system initialization time, all scheduling islands register
//! with a global controller (the first privileged domain to boot …, in our
//! prototype a part of Xen Dom0). When guest VMs … are deployed across the
//! platform's scheduling islands, they register with Dom0."
//!
//! The [`Controller`] owns the registry, validates incoming coordination
//! messages, and resolves them into island-local [`Action`]s that the
//! platform dispatches to the appropriate [`ResourceManager`]
//! (crate::ResourceManager).

use crate::energy::KnobAxis;
use crate::limits::{EntityPolicer, PolicerConfig};
use crate::{CoordError, CoordMsg, EntityId, IslandId, IslandKind, Registry};
use simcore::Nanos;
use std::collections::BTreeMap;

/// A resolved, island-local coordination action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Apply a tune to `local_key` on `island`.
    ApplyTune {
        /// Island that must act.
        island: IslandId,
        /// Island-local identity of the target entity.
        local_key: u64,
        /// Signed adjustment.
        delta: i32,
    },
    /// Apply a trigger to `local_key` on `island`.
    ApplyTrigger {
        /// Island that must act.
        island: IslandId,
        /// Island-local identity of the target entity.
        local_key: u64,
    },
    /// Move one energy-knob axis to an absolute rung on `island`.
    ApplyKnob {
        /// Island that must act.
        island: IslandId,
        /// Island-local identity of the target entity.
        local_key: u64,
        /// The lattice axis to move.
        axis: KnobAxis,
        /// Absolute rung index (0 = full performance).
        rung: u8,
    },
}

/// Controller counters, for coordination-overhead reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControllerStats {
    /// Islands registered.
    pub islands: u64,
    /// Entity bindings registered.
    pub bindings: u64,
    /// Tunes routed.
    pub tunes: u64,
    /// Triggers routed.
    pub triggers: u64,
    /// Messages that failed validation.
    pub rejected: u64,
    /// Tune/Trigger requests dropped by the adversary policer.
    pub throttled: u64,
    /// Admitted tunes whose delta the policer discounted.
    pub discounted: u64,
    /// Energy-knob settings routed.
    pub knobs: u64,
}

/// The global coordination controller (the Dom0 role).
///
/// See the crate-level example for typical use.
#[derive(Debug)]
pub struct Controller {
    islands: BTreeMap<IslandId, IslandKind>,
    registry: Registry,
    stats: ControllerStats,
    last_error: Option<CoordError>,
    audit: std::collections::VecDeque<(Nanos, CoordMsg)>,
    audit_cap: usize,
    policer: Option<EntityPolicer>,
}

impl Default for Controller {
    fn default() -> Self {
        Self::new()
    }
}

impl Controller {
    /// Creates an empty controller with a 256-entry audit ring.
    pub fn new() -> Self {
        Controller {
            islands: BTreeMap::new(),
            registry: Registry::new(),
            stats: ControllerStats::default(),
            last_error: None,
            audit: std::collections::VecDeque::new(),
            audit_cap: 256,
            policer: None,
        }
    }

    /// Overrides the audit-ring capacity (0 disables auditing).
    pub fn with_audit_capacity(mut self, cap: usize) -> Self {
        self.audit_cap = cap;
        self.audit.truncate(cap);
        self
    }

    /// Enables the adversary defenses: per-entity Tune/Trigger rate
    /// limiting and reputation-weighted delta discounting. Off by
    /// default — an undefended controller behaves exactly as before.
    pub fn with_defenses(mut self, cfg: PolicerConfig) -> Self {
        self.set_defenses(cfg);
        self
    }

    /// Enables the adversary defenses in place (see
    /// [`with_defenses`](Self::with_defenses)).
    pub fn set_defenses(&mut self, cfg: PolicerConfig) {
        self.policer = Some(EntityPolicer::new(cfg));
    }

    /// The active policer, if defenses are enabled.
    pub fn policer(&self) -> Option<&EntityPolicer> {
        self.policer.as_ref()
    }

    /// Processes one coordination message, returning the island-local
    /// actions it resolves to. Registration messages return no actions;
    /// invalid messages are counted in [`ControllerStats::rejected`] and
    /// recorded in [`last_error`](Self::last_error).
    pub fn handle(&mut self, now: Nanos, msg: CoordMsg) -> Vec<Action> {
        if self.audit_cap > 0 {
            if self.audit.len() == self.audit_cap {
                self.audit.pop_front();
            }
            self.audit.push_back((now, msg));
        }
        match self.try_handle(now, msg) {
            Ok(actions) => actions,
            Err(e) => {
                self.stats.rejected += 1;
                self.last_error = Some(e);
                Vec::new()
            }
        }
    }

    fn try_handle(&mut self, now: Nanos, msg: CoordMsg) -> Result<Vec<Action>, CoordError> {
        match msg {
            CoordMsg::RegisterIsland { island, kind } => {
                if self.islands.insert(island, kind).is_none() {
                    self.stats.islands += 1;
                }
                Ok(Vec::new())
            }
            CoordMsg::RegisterEntity {
                entity,
                island,
                local_key,
            } => {
                if !self.islands.contains_key(&island) {
                    return Err(CoordError::UnknownIsland(island));
                }
                self.registry.bind(entity, island, local_key)?;
                self.stats.bindings += 1;
                Ok(Vec::new())
            }
            CoordMsg::Tune { entity, delta, target } => {
                let delta = match self.policer.as_mut() {
                    None => delta,
                    Some(p) => match p.police_tune(now, entity, delta) {
                        None => {
                            self.stats.throttled += 1;
                            return Ok(Vec::new());
                        }
                        Some(applied) => {
                            if applied != delta {
                                self.stats.discounted += 1;
                            }
                            applied
                        }
                    },
                };
                let actions =
                    self.resolve(entity, target, |island, local_key| Action::ApplyTune {
                        island,
                        local_key,
                        delta,
                    })?;
                self.stats.tunes += 1;
                Ok(actions)
            }
            CoordMsg::Trigger { entity, target } => {
                if let Some(p) = self.policer.as_mut() {
                    if !p.police_trigger(now, entity) {
                        self.stats.throttled += 1;
                        return Ok(Vec::new());
                    }
                }
                let actions =
                    self.resolve(entity, target, |island, local_key| Action::ApplyTrigger {
                        island,
                        local_key,
                    })?;
                self.stats.triggers += 1;
                Ok(actions)
            }
            CoordMsg::SetKnob { entity, axis, rung, target } => {
                // Knob settings originate from the platform's own energy
                // controller, not from tenants, so they bypass the
                // adversary policer (which meters the tenant-facing
                // Tune/Trigger verbs) — but still resolve through the
                // registry like every other coordination message.
                let actions =
                    self.resolve(entity, target, |island, local_key| Action::ApplyKnob {
                        island,
                        local_key,
                        axis,
                        rung,
                    })?;
                self.stats.knobs += 1;
                Ok(actions)
            }
            CoordMsg::Ack { .. } => Ok(Vec::new()),
        }
    }

    /// Resolves an entity to one action per addressed island binding.
    /// With `target = None` every bound island acts; otherwise only the
    /// named island (erroring if the entity has no binding there).
    fn resolve(
        &self,
        entity: EntityId,
        target: Option<IslandId>,
        mk: impl Fn(IslandId, u64) -> Action,
    ) -> Result<Vec<Action>, CoordError> {
        let actions: Vec<Action> = self
            .registry
            .bindings_of(entity)
            .filter(|&(island, _)| target.is_none_or(|t| t == island))
            .map(|(island, key)| mk(island, key))
            .collect();
        if !actions.is_empty() {
            return Ok(actions);
        }
        match target {
            Some(island) if self.registry.bindings_of(entity).next().is_some() => {
                Err(CoordError::NotMapped { entity, island })
            }
            _ => Err(CoordError::UnknownEntity(entity)),
        }
    }

    /// The registered kind of an island, if any.
    pub fn island_kind(&self, island: IslandId) -> Option<IslandKind> {
        self.islands.get(&island).copied()
    }

    /// Read access to the entity registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Counters.
    pub fn stats(&self) -> ControllerStats {
        self.stats
    }

    /// The most recent validation failure, if any.
    pub fn last_error(&self) -> Option<CoordError> {
        self.last_error
    }

    /// The most recent messages seen (oldest first), up to the audit
    /// capacity — §2.3's coordination-channel record, for debugging
    /// coordination schemes.
    pub fn audit_log(&self) -> impl Iterator<Item = &(Nanos, CoordMsg)> {
        self.audit.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Controller, EntityId) {
        let mut c = Controller::new();
        c.handle(
            Nanos::ZERO,
            CoordMsg::RegisterIsland {
                island: IslandId(0),
                kind: IslandKind::GeneralPurpose,
            },
        );
        c.handle(
            Nanos::ZERO,
            CoordMsg::RegisterIsland {
                island: IslandId(1),
                kind: IslandKind::NetworkProcessor,
            },
        );
        let e = EntityId(1);
        c.handle(
            Nanos::ZERO,
            CoordMsg::RegisterEntity { entity: e, island: IslandId(0), local_key: 1 },
        );
        (c, e)
    }

    #[test]
    fn tune_resolves_to_bound_islands() {
        let (mut c, e) = setup();
        let actions = c.handle(Nanos::ZERO, CoordMsg::Tune { entity: e, delta: 64, target: None });
        assert_eq!(
            actions,
            vec![Action::ApplyTune { island: IslandId(0), local_key: 1, delta: 64 }]
        );
        assert_eq!(c.stats().tunes, 1);
    }

    #[test]
    fn entity_bound_on_two_islands_gets_two_actions() {
        let (mut c, e) = setup();
        c.handle(
            Nanos::ZERO,
            CoordMsg::RegisterEntity { entity: e, island: IslandId(1), local_key: 0 },
        );
        let actions = c.handle(Nanos::ZERO, CoordMsg::Trigger { entity: e, target: None });
        assert_eq!(actions.len(), 2);
        assert!(actions.contains(&Action::ApplyTrigger { island: IslandId(0), local_key: 1 }));
        assert!(actions.contains(&Action::ApplyTrigger { island: IslandId(1), local_key: 0 }));
    }

    #[test]
    fn set_knob_resolves_like_a_tune() {
        let (mut c, e) = setup();
        let actions = c.handle(
            Nanos::ZERO,
            CoordMsg::SetKnob { entity: e, axis: KnobAxis::Dvfs, rung: 2, target: None },
        );
        assert_eq!(
            actions,
            vec![Action::ApplyKnob {
                island: IslandId(0),
                local_key: 1,
                axis: KnobAxis::Dvfs,
                rung: 2
            }]
        );
        assert_eq!(c.stats().knobs, 1);
        // Unknown entities are rejected exactly like tunes.
        let none = c.handle(
            Nanos::ZERO,
            CoordMsg::SetKnob {
                entity: EntityId(99),
                axis: KnobAxis::CacheWays,
                rung: 1,
                target: None,
            },
        );
        assert!(none.is_empty());
        assert_eq!(c.stats().rejected, 1);
    }

    #[test]
    fn unknown_entity_rejected() {
        let (mut c, _) = setup();
        let actions = c.handle(Nanos::ZERO, CoordMsg::Tune { entity: EntityId(99), delta: 1, target: None });
        assert!(actions.is_empty());
        assert_eq!(c.stats().rejected, 1);
        assert_eq!(c.last_error(), Some(CoordError::UnknownEntity(EntityId(99))));
    }

    #[test]
    fn entity_registration_requires_island() {
        let mut c = Controller::new();
        c.handle(
            Nanos::ZERO,
            CoordMsg::RegisterEntity { entity: EntityId(1), island: IslandId(9), local_key: 0 },
        );
        assert_eq!(c.stats().rejected, 1);
        assert_eq!(c.last_error(), Some(CoordError::UnknownIsland(IslandId(9))));
    }

    #[test]
    fn island_reregistration_not_double_counted() {
        let (mut c, _) = setup();
        c.handle(
            Nanos::ZERO,
            CoordMsg::RegisterIsland {
                island: IslandId(0),
                kind: IslandKind::GeneralPurpose,
            },
        );
        assert_eq!(c.stats().islands, 2);
        assert_eq!(c.island_kind(IslandId(1)), Some(IslandKind::NetworkProcessor));
    }

    #[test]
    fn audit_log_records_and_rotates() {
        let (mut c, e) = setup();
        let before = c.audit_log().count();
        for i in 0..300u32 {
            c.handle(
                Nanos::from_millis(i as u64),
                CoordMsg::Tune { entity: e, delta: i as i32, target: None },
            );
        }
        assert_eq!(c.audit_log().count(), 256, "ring capped (had {before} setup msgs)");
        let (t, last) = c.audit_log().last().unwrap();
        assert_eq!(*t, Nanos::from_millis(299));
        assert!(matches!(last, CoordMsg::Tune { delta: 299, .. }));
    }

    #[test]
    fn audit_can_be_disabled() {
        let mut c = Controller::new().with_audit_capacity(0);
        c.handle(Nanos::ZERO, CoordMsg::Ack { seq: 1 });
        assert_eq!(c.audit_log().count(), 0);
    }

    #[test]
    fn ack_is_a_no_op() {
        let (mut c, _) = setup();
        assert!(c.handle(Nanos::ZERO, CoordMsg::Ack { seq: 3 }).is_empty());
        assert_eq!(c.stats().rejected, 0);
    }

    #[test]
    fn defended_controller_throttles_trigger_spam() {
        let (mut c, e) = setup();
        c.set_defenses(PolicerConfig::default());
        let mut applied = 0;
        for i in 0..100u64 {
            let actions =
                c.handle(Nanos::from_millis(i * 10), CoordMsg::Trigger { entity: e, target: None });
            applied += actions.len();
        }
        assert!(applied < 100, "spam passed untouched");
        assert!(c.stats().throttled > 0);
        assert_eq!(c.stats().triggers as usize, applied);
        assert_eq!(c.stats().rejected, 0, "policing is not a validation failure");
    }

    #[test]
    fn defended_controller_discounts_inflated_tunes() {
        let (mut c, e) = setup();
        c.set_defenses(PolicerConfig::default());
        let mut last_delta = i32::MAX;
        for i in 0..20u64 {
            let actions = c.handle(
                Nanos::from_secs(i),
                CoordMsg::Tune { entity: e, delta: 512, target: None },
            );
            if let Some(Action::ApplyTune { delta, .. }) = actions.first() {
                last_delta = *delta;
            }
        }
        assert_eq!(last_delta, 0, "saturated inflater still moves weight");
        assert!(c.stats().discounted > 0);
        let net = c.policer().unwrap().stats_for(e).net_applied;
        let cap = PolicerConfig::default().displacement_cap;
        assert!(net <= cap, "net displacement {net} exceeds the cap");
    }

    #[test]
    fn undefended_controller_is_unchanged() {
        let (mut c, e) = setup();
        for i in 0..100u64 {
            c.handle(Nanos::from_millis(i), CoordMsg::Tune { entity: e, delta: 512, target: None });
        }
        assert_eq!(c.stats().tunes, 100);
        assert_eq!(c.stats().throttled, 0);
        assert_eq!(c.stats().discounted, 0);
    }
}
