//! Platform-global entity identity and the island-local mapping registry.
//!
//! Problem 2 of the paper's introduction: islands manage *heterogeneous
//! abstractions* — VMs and processes on x86, message queues and flows on
//! the IXP. Coordination messages therefore name a neutral [`EntityId`];
//! each island registers the local key (domain id, flow id, queue index…)
//! it knows the entity by.

use crate::island::IslandId;
use crate::CoordError;
use std::collections::BTreeMap;
use std::fmt;

/// A platform-global identifier for an application entity that may span
/// islands (e.g. "the web-server VM" = Xen domain 1 = IXP flow 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EntityId(pub u32);

impl fmt::Display for EntityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "entity{}", self.0)
    }
}

/// Bidirectional mapping between entities and island-local keys.
///
/// # Example
///
/// ```
/// use coord::{EntityId, IslandId, Registry};
///
/// let mut r = Registry::new();
/// let web = EntityId(1);
/// r.bind(web, IslandId(0), 1)?;  // Xen domain 1
/// r.bind(web, IslandId(1), 0)?;  // IXP flow 0
/// assert_eq!(r.local_key(web, IslandId(1))?, 0);
/// assert_eq!(r.entity_of(IslandId(0), 1), Some(web));
/// # Ok::<(), coord::CoordError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Registry {
    forward: BTreeMap<(EntityId, IslandId), u64>,
    reverse: BTreeMap<(IslandId, u64), EntityId>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds `entity` to `local_key` on `island`.
    ///
    /// # Errors
    /// Returns [`CoordError::DuplicateBinding`] if the island already maps
    /// that entity or that local key to something else.
    pub fn bind(
        &mut self,
        entity: EntityId,
        island: IslandId,
        local_key: u64,
    ) -> Result<(), CoordError> {
        if let Some(&k) = self.forward.get(&(entity, island)) {
            if k == local_key {
                return Ok(()); // idempotent re-registration
            }
            return Err(CoordError::DuplicateBinding { entity, island });
        }
        if self.reverse.contains_key(&(island, local_key)) {
            return Err(CoordError::DuplicateBinding { entity, island });
        }
        self.forward.insert((entity, island), local_key);
        self.reverse.insert((island, local_key), entity);
        Ok(())
    }

    /// The island-local key for `entity` on `island`.
    ///
    /// # Errors
    /// Returns [`CoordError::NotMapped`] if the entity has no binding there.
    pub fn local_key(&self, entity: EntityId, island: IslandId) -> Result<u64, CoordError> {
        self.forward
            .get(&(entity, island))
            .copied()
            .ok_or(CoordError::NotMapped { entity, island })
    }

    /// Reverse lookup: which entity does `island` know as `local_key`?
    pub fn entity_of(&self, island: IslandId, local_key: u64) -> Option<EntityId> {
        self.reverse.get(&(island, local_key)).copied()
    }

    /// Every `(island, local_key)` binding of `entity`, in island order.
    pub fn bindings_of(&self, entity: EntityId) -> impl Iterator<Item = (IslandId, u64)> + '_ {
        self.forward
            .range((entity, IslandId(0))..=(entity, IslandId(u16::MAX)))
            .map(|(&(_, island), &key)| (island, key))
    }

    /// All islands an entity is bound on, in island order.
    pub fn islands_of(&self, entity: EntityId) -> Vec<IslandId> {
        self.bindings_of(entity).map(|(island, _)| island).collect()
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.forward.len()
    }

    /// `true` when no bindings exist.
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_and_lookup() {
        let mut r = Registry::new();
        let e = EntityId(7);
        r.bind(e, IslandId(0), 3).unwrap();
        assert_eq!(r.local_key(e, IslandId(0)).unwrap(), 3);
        assert_eq!(r.entity_of(IslandId(0), 3), Some(e));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn rebind_same_is_idempotent() {
        let mut r = Registry::new();
        let e = EntityId(7);
        r.bind(e, IslandId(0), 3).unwrap();
        r.bind(e, IslandId(0), 3).unwrap();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn conflicting_bindings_rejected() {
        let mut r = Registry::new();
        r.bind(EntityId(1), IslandId(0), 3).unwrap();
        assert!(matches!(
            r.bind(EntityId(1), IslandId(0), 4),
            Err(CoordError::DuplicateBinding { .. })
        ));
        assert!(matches!(
            r.bind(EntityId(2), IslandId(0), 3),
            Err(CoordError::DuplicateBinding { .. })
        ));
    }

    #[test]
    fn unmapped_lookup_errors() {
        let r = Registry::new();
        assert!(matches!(
            r.local_key(EntityId(1), IslandId(0)),
            Err(CoordError::NotMapped { .. })
        ));
        assert_eq!(r.entity_of(IslandId(0), 9), None);
        assert!(r.is_empty());
    }

    #[test]
    fn islands_of_lists_all_bindings() {
        let mut r = Registry::new();
        let e = EntityId(5);
        r.bind(e, IslandId(0), 1).unwrap();
        r.bind(e, IslandId(1), 0).unwrap();
        assert_eq!(r.islands_of(e), vec![IslandId(0), IslandId(1)]);
    }

    #[test]
    fn bindings_of_skips_neighbouring_entities() {
        let mut r = Registry::new();
        r.bind(EntityId(4), IslandId(u16::MAX), 9).unwrap();
        r.bind(EntityId(5), IslandId(2), 7).unwrap();
        r.bind(EntityId(5), IslandId(0), 1).unwrap();
        r.bind(EntityId(5), IslandId(u16::MAX), 3).unwrap();
        r.bind(EntityId(6), IslandId(0), 8).unwrap();
        let got: Vec<_> = r.bindings_of(EntityId(5)).collect();
        let max = IslandId(u16::MAX);
        assert_eq!(got, [(IslandId(0), 1), (IslandId(2), 7), (max, 3)]);
        assert_eq!(r.bindings_of(EntityId(3)).count(), 0);
    }
}
