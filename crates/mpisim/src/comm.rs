//! Communicators: the world, and the groups `MPI_Comm_split` carves out
//! of it (with a color, no key reordering).
//!
//! A multi-tenant facility runs each tenant's job on its own group, so a
//! tenant's collectives synchronize only its own ranks. That needs
//! collectives scoped to a subset of ranks. Every collective in
//! [`crate::Rank`] is therefore written once, over a
//! [`Comm`]: the world is the instance [`crate::Rank::world`] hands out,
//! a group is what [`crate::Rank::split`] returns. Point-to-point
//! communication keeps using world ranks.

use crate::collectives::{log2ceil, Rendezvous};
use crate::error::{MpiError, Result};
use crate::p2p::Tag;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// What differs between the world and a group, as data: trace span names
/// (the world's are the plain MPI names, a group's carry `_in`), the tag
/// its burst all-to-all travels under, and whether the communicator is the
/// world — the only one whose collectives shrink around a crash-stopped
/// rank.
pub(crate) struct Flavor {
    pub(crate) barrier: &'static str,
    pub(crate) allgather: &'static str,
    pub(crate) burst: &'static str,
    pub(crate) burst_tag: Tag,
    pub(crate) world: bool,
}

/// The state all members of one communicator share.
pub(crate) struct CommShared {
    /// World ranks of the members, ascending.
    members: Box<[usize]>,
    pub(crate) rendezvous: Rendezvous,
    flavor: &'static Flavor,
}

impl CommShared {
    pub(crate) fn new(members: Vec<usize>, flavor: &'static Flavor) -> CommShared {
        CommShared {
            rendezvous: Rendezvous::new(members.len()),
            members: members.into(),
            flavor,
        }
    }
}

/// A communicator: the ranks that meet in a collective.
///
/// Cheap to clone. Payload vectors and rank arguments of the `*_in`
/// collectives are indexed by position in [`Comm::members`] (the "group
/// rank"), which for the world is the world rank.
#[derive(Clone)]
pub struct Comm {
    pub(crate) shared: Arc<CommShared>,
    /// This rank's index within `members`.
    pub(crate) my_index: usize,
}

impl std::fmt::Debug for Comm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Comm")
            .field("size", &self.size())
            .field("my_index", &self.my_index)
            .finish_non_exhaustive()
    }
}

/// Registry shared by all ranks during one `split`: one communicator per
/// color, built by whichever member gets there first.
pub(crate) type SplitRegistry = Mutex<HashMap<u64, Arc<CommShared>>>;

impl Comm {
    /// Rank `me`'s handle onto the group `members` of one `split` color.
    pub(crate) fn build(
        members: Vec<usize>,
        me: usize,
        registry: &SplitRegistry,
        color: u64,
        flavor: &'static Flavor,
    ) -> Result<Comm> {
        let my_index = members
            .binary_search(&me)
            .map_err(|_| MpiError::CollectiveMismatch("rank missing from its own split group"))?;
        let shared = Arc::clone(
            registry
                .lock()
                .entry(color)
                .or_insert_with(|| Arc::new(CommShared::new(members, flavor))),
        );
        Ok(Comm { shared, my_index })
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.shared.members.len()
    }

    /// This rank's position within the communicator (its "group rank").
    pub fn group_rank(&self) -> usize {
        self.my_index
    }

    /// World rank of member `i`.
    pub fn world_rank(&self, i: usize) -> usize {
        self.shared.members[i]
    }

    /// All members' world ranks, ascending.
    pub fn members(&self) -> &[usize] {
        &self.shared.members
    }

    /// Is this the communicator of all ranks ([`crate::Rank::world`])?
    /// A one-color `split` has the same members but is still a group.
    pub fn is_world(&self) -> bool {
        self.shared.flavor.world
    }

    pub(crate) fn flavor(&self) -> &'static Flavor {
        self.shared.flavor
    }

    pub(crate) fn rendezvous(&self) -> &Rendezvous {
        &self.shared.rendezvous
    }

    /// Cost exponent for tree collectives over the members.
    pub(crate) fn log2(&self) -> u32 {
        log2ceil(self.size())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static GROUP: Flavor = Flavor {
        barrier: "b",
        allgather: "g",
        burst: "a",
        burst_tag: 0,
        world: false,
    };

    fn build(members: Vec<usize>, me: usize, reg: &SplitRegistry, color: u64) -> Result<Comm> {
        Comm::build(members, me, reg, color, &GROUP)
    }

    #[test]
    fn build_locates_self() {
        let reg = SplitRegistry::default();
        let c = build(vec![1, 3, 5], 3, &reg, 0).unwrap();
        assert_eq!(c.size(), 3);
        assert_eq!(c.group_rank(), 1);
        assert_eq!(c.world_rank(0), 1);
        assert_eq!(c.world_rank(2), 5);
        assert_eq!(c.members(), &[1, 3, 5]);
        assert!(!c.is_world());
    }

    #[test]
    fn members_share_one_communicator_per_color() {
        let reg = SplitRegistry::default();
        let a = build(vec![0, 1], 0, &reg, 7).unwrap();
        let b = build(vec![0, 1], 1, &reg, 7).unwrap();
        assert!(Arc::ptr_eq(&a.shared, &b.shared));
        let c = build(vec![2, 3], 2, &reg, 8).unwrap();
        assert!(!Arc::ptr_eq(&a.shared, &c.shared));
    }

    #[test]
    fn non_member_rejected() {
        let reg = SplitRegistry::default();
        assert!(build(vec![0, 2], 1, &reg, 0).is_err());
    }

    /// The world and a one-colour split are the same communicator but for
    /// `is_world`: the same members in the same order, the same group
    /// ranks, and a burst all-to-all and an allreduce over either deliver
    /// the same values. Node leaders are elected over the world only: the
    /// lowest rank of each node.
    #[test]
    fn the_world_and_a_one_colour_split_are_the_same_communicator() {
        use crate::runtime::{run, ReduceOp, SimConfig};
        use crate::topology::Topology;
        const NPROCS: usize = 8;
        let sim = SimConfig {
            topology: Some(Topology::blocked(NPROCS, 4)),
            ..Default::default()
        };
        run(NPROCS, sim, |rk| {
            let (me, world, split) = (rk.rank(), rk.world(), rk.split(7)?);
            assert!(world.is_world() && !split.is_world());
            for comm in [&world, &split] {
                assert_eq!(comm.size(), NPROCS);
                assert_eq!(comm.group_rank(), me);
                assert_eq!(comm.members(), (0..NPROCS).collect::<Vec<_>>());
            }
            assert_eq!(rk.elect_node_leaders()?, Some(vec![0, 4]));
            let payloads = || (0..NPROCS).map(|d| vec![me as u8, d as u8]).collect();
            let via_world = rk.alltoallv_burst_in(&world, payloads())?;
            assert_eq!(via_world, rk.alltoallv_burst_in(&split, payloads())?);
            let sum = rk.allreduce_u64_in(&world, me as u64, ReduceOp::Sum)?;
            assert_eq!(sum, rk.allreduce_u64_in(&split, me as u64, ReduceOp::Sum)?);
            Ok(())
        })
        .unwrap();
    }
}
