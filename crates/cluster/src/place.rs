//! Destination placement: which host a migrating VM lands on.
//!
//! An evacuation drains source hosts onto a pool of destination hosts
//! ([`DestSpec`]), each with finite slots and its own ingress NIC. At
//! every admission the scheduler asks the placement policy for a
//! destination; the answer fixes the flow's path through the
//! [`Topology`](netsim::Topology) — and therefore which links its traffic
//! contends on for the rest of its migration. Slots are consumed
//! permanently: an evacuated VM stays where it was put.
//!
//! A destination is *feasible* for a candidate when it still has a free
//! slot and the candidate's path to it passes [`Topology::admits`], the
//! same test a single-host drain applies to its uplink: every pipe keeps
//! every flow (and the candidate) at or above its declared minimum rate,
//! or the whole path is idle (the deadlock-avoidance clause — with
//! nothing in flight the candidate gets the best path it will ever see).
//!
//! Policies are pure functions of scheduler state, so placement is as
//! deterministic as everything else: same plan, same seed ⇒ the same
//! placement sequence, byte for byte.

use javmm::host::{DestSpec, VmTenant};
use migrate::sla::SlaModel;
use netsim::Topology;
use simkit::DetRng;

/// How an evacuation chooses destinations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Most free slots first — spread by headroom, ties to the fatter
    /// ingress NIC, then to the lower index. Capacity-aware but
    /// SLA-blind: a WAN destination with room looks as good as a local
    /// rack with room.
    Greedy,
    /// Cheapest estimated SLA cost first ([`sla_score`]): brownout while
    /// the migration runs at the predicted path rate, downtime for the
    /// final hand-over, and the tenant's violation penalty when that
    /// hand-over would blow its downtime budget. Slow/WAN paths price
    /// themselves out unless nothing else is feasible.
    SlaAware,
    /// Uniformly random among feasible destinations, from a deterministic
    /// stream seeded here — the control arm SLA-aware placement must beat.
    Random(u64),
    /// Every VM onto the given destination index, ignoring slot capacity
    /// and path feasibility; the index must name one of the plan's
    /// destinations. This is the regression drill: placement
    /// effectively disabled, so eviction time collapses onto one ingress
    /// NIC and the bench gate must catch it.
    Pinned(usize),
}

impl PlacementPolicy {
    /// Stable lower-case name for bench output and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            Self::Greedy => "greedy",
            Self::SlaAware => "sla",
            Self::Random(_) => "random",
            Self::Pinned(_) => "pinned",
        }
    }

    /// Parses a CLI name; `random` seeds its stream from `seed`, `pinned`
    /// pins to destination 0.
    pub fn parse(s: &str, seed: u64) -> Option<Self> {
        match s {
            "greedy" => Some(Self::Greedy),
            "sla" => Some(Self::SlaAware),
            "random" => Some(Self::Random(seed)),
            "pinned" => Some(Self::Pinned(0)),
            _ => None,
        }
    }
}

/// One destination's live occupancy during an evacuation.
#[derive(Debug, Clone)]
pub struct DestState {
    /// The destination as specified.
    pub spec: DestSpec,
    /// Slots still free.
    pub free_slots: u32,
    /// VMs placed here so far.
    pub placed: u32,
}

impl DestState {
    /// Fresh occupancy for a destination.
    pub fn new(spec: DestSpec) -> Self {
        let free_slots = spec.slots;
        Self {
            spec,
            free_slots,
            placed: 0,
        }
    }

    /// Consumes one slot. [`PlacementPolicy::Pinned`] ignores capacity,
    /// so the decrement saturates rather than underflowing.
    pub fn occupy(&mut self) {
        self.free_slots = self.free_slots.saturating_sub(1);
        self.placed += 1;
    }
}

/// The fraction of the working set the final stop-and-copy iteration is
/// assumed to carry when estimating hand-over downtime for [`sla_score`].
/// A crude stand-in for the real dirty-set dynamics, but a *monotone* one:
/// slower paths predict longer blackouts, which is all ranking needs.
const FINAL_ITER_FRACTION: f64 = 0.05;

/// Estimated SLA cost of migrating a working set of `ws_bytes` over a
/// path rated `rate_bytes_per_sec`: brownout for the whole transfer,
/// downtime for the final iteration, and the violation penalty when the
/// estimated downtime overshoots the tenant's budget.
pub fn sla_score(sla: &SlaModel, ws_bytes: u64, rate_bytes_per_sec: f64) -> f64 {
    let est_secs = ws_bytes as f64 / rate_bytes_per_sec.max(1.0);
    let brownout = est_secs * sla.brownout_cost_per_sec * sla.brownout_factor;
    let est_down_secs = est_secs * FINAL_ITER_FRACTION;
    let downtime = est_down_secs * sla.downtime_cost_per_sec;
    let penalty = if est_down_secs > sla.downtime_budget.as_secs_f64() {
        sla.violation_penalty
    } else {
        0.0
    };
    downtime + brownout + penalty
}

/// Why a placement decision went the way it did: the chosen candidate's
/// estimated SLA cost against the best alternative's.
///
/// Every feasible destination is scored with [`sla_score`] whatever the
/// policy, so every pick (even greedy or random ones) is explained on a
/// common scale. Lower is better.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementRationale {
    /// Estimated SLA cost of the chosen destination.
    pub chosen_score: f64,
    /// The cheapest feasible alternative, if any other candidate existed.
    pub runner_up: Option<usize>,
    /// The runner-up's estimated SLA cost.
    pub runner_up_score: Option<f64>,
    /// How many destinations were feasible when the decision was made.
    pub candidates: usize,
}

/// Picks a destination for `tenant` evacuating from source host `src`
/// and explains the pick, or returns `None` when no destination is
/// currently feasible (the admission loop retries after the next
/// completion frees capacity). [`PlacementPolicy::Pinned`] always picks
/// its destination, feasible or not.
///
/// A destination is feasible when it has a free slot and a path that
/// [`Topology::admits`] the tenant. Each feasible destination is scored
/// once, before the chosen slot is occupied or the flow opened, so the
/// rationale reflects the decision instant.
///
/// `ordinal` is the fleet-wide admission counter; the random policy forks
/// its stream from it so each decision is independent of how many
/// feasible options earlier decisions saw.
#[allow(clippy::too_many_arguments)]
pub fn choose(
    policy: PlacementPolicy,
    topo: &Topology,
    dests: &[DestState],
    src: usize,
    tenant: &VmTenant,
    ws_bytes: u64,
    enforce_min_rate: bool,
    ordinal: u64,
) -> Option<(usize, PlacementRationale)> {
    let score = |d: usize| {
        let rate = topo.predicted_rate(src, Some(d), tenant.weight);
        sla_score(&tenant.sla, ws_bytes, rate.bytes_per_sec())
    };
    let feasible: Vec<(usize, f64)> = dests
        .iter()
        .enumerate()
        .filter(|(d, state)| {
            state.free_slots > 0
                && topo.admits(
                    src,
                    Some(*d),
                    tenant.weight,
                    tenant.min_rate,
                    enforce_min_rate,
                )
        })
        .map(|(d, _)| (d, score(d)))
        .collect();
    // Cheapest first, ties to the lower index.
    let cheaper = |a: &&(usize, f64), b: &&(usize, f64)| {
        a.1.partial_cmp(&b.1)
            .expect("sla scores are finite")
            .then(a.0.cmp(&b.0))
    };
    let chosen = match policy {
        // `EvacuationPlan::validate` rejects an index outside the pool.
        PlacementPolicy::Pinned(d) => d,
        _ if feasible.is_empty() => return None,
        PlacementPolicy::Greedy => {
            feasible
                .iter()
                .max_by(|&&(a, _), &&(b, _)| {
                    let ka = (dests[a].free_slots, dests[a].spec.ingress.bytes_per_sec());
                    let kb = (dests[b].free_slots, dests[b].spec.ingress.bytes_per_sec());
                    ka.partial_cmp(&kb)
                        .expect("ingress rates are finite")
                        // max_by keeps the *later* of equal elements;
                        // prefer the lower index on ties instead.
                        .then(b.cmp(&a))
                })?
                .0
        }
        PlacementPolicy::SlaAware => feasible.iter().min_by(cheaper)?.0,
        PlacementPolicy::Random(seed) => {
            let mut rng = DetRng::new(seed).fork(ordinal);
            feasible[rng.below(feasible.len() as u64) as usize].0
        }
    };
    let chosen_score = match feasible.iter().find(|&&(d, _)| d == chosen) {
        Some(&(_, s)) => s,
        None => score(chosen),
    };
    let runner_up = feasible
        .iter()
        .filter(|&&(d, _)| d != chosen)
        .min_by(cheaper);
    Some((
        chosen,
        PlacementRationale {
            chosen_score,
            runner_up: runner_up.map(|&(d, _)| d),
            runner_up_score: runner_up.map(|&(_, s)| s),
            candidates: feasible.len(),
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use javmm::vm::JavaVmConfig;
    use migrate::config::MigrationConfig;
    use netsim::topology::LinkSpec;
    use simkit::units::Bandwidth;
    use workloads::catalog;

    fn mb(x: f64) -> Bandwidth {
        Bandwidth::from_mbytes_per_sec(x)
    }

    fn tenant() -> VmTenant {
        VmTenant::new(
            "t",
            JavaVmConfig::paper(catalog::derby(), true, 1),
            MigrationConfig::javmm_default(),
        )
    }

    fn pool() -> (Topology, Vec<DestState>) {
        let dests = vec![
            DestSpec::new("wan", 8).with_ingress(mb(40.0)).with_wan(),
            DestSpec::new("rack-a", 8).with_ingress(mb(125.0)),
            DestSpec::new("rack-b", 4).with_ingress(mb(125.0)),
        ];
        let topo = Topology::new(
            vec![LinkSpec::lan("src", mb(125.0))],
            None,
            dests
                .iter()
                .map(|d| LinkSpec::lan(d.name.clone(), d.ingress))
                .collect(),
        );
        (topo, dests.into_iter().map(DestState::new).collect())
    }

    /// The destination [`choose`] picks for `t` from source 0, with a
    /// 100 MiB working set and min-rate admission on.
    fn pick(
        policy: PlacementPolicy,
        topo: &Topology,
        dests: &[DestState],
        t: &VmTenant,
        ordinal: u64,
    ) -> Option<usize> {
        choose(policy, topo, dests, 0, t, 100 << 20, true, ordinal).map(|(d, _)| d)
    }

    #[test]
    fn sla_aware_avoids_the_wan_when_a_lan_is_feasible() {
        let (topo, dests) = pool();
        assert_eq!(
            pick(PlacementPolicy::SlaAware, &topo, &dests, &tenant(), 0),
            Some(1),
            "fast LAN with most slots wins"
        );
    }

    #[test]
    fn greedy_prefers_headroom_then_ingress() {
        let (topo, mut dests) = pool();
        assert_eq!(
            pick(PlacementPolicy::Greedy, &topo, &dests, &tenant(), 0),
            Some(1),
            "wan and rack-a tie on slots; rack-a wins on ingress"
        );
        // Drain rack-a and wan down to fewer slots than rack-b.
        for _ in 0..6 {
            dests[0].occupy();
            dests[1].occupy();
        }
        assert_eq!(
            pick(PlacementPolicy::Greedy, &topo, &dests, &tenant(), 1),
            Some(2),
            "rack-b now has the most free slots"
        );
    }

    #[test]
    fn infeasible_destinations_are_skipped() {
        // A second source host parks a min-rate-100 incumbent on rack-a's
        // ingress, so rack-a fails per-pipe admission for any newcomer and
        // its path is not idle either.
        let dests = vec![
            DestSpec::new("wan", 8).with_ingress(mb(40.0)).with_wan(),
            DestSpec::new("rack-a", 8).with_ingress(mb(125.0)),
            DestSpec::new("rack-b", 4).with_ingress(mb(125.0)),
        ];
        let mut topo = Topology::new(
            vec![
                LinkSpec::lan("src0", mb(125.0)),
                LinkSpec::lan("src1", mb(125.0)),
            ],
            None,
            dests
                .iter()
                .map(|d| LinkSpec::lan(d.name.clone(), d.ingress))
                .collect(),
        );
        let states: Vec<DestState> = dests.into_iter().map(DestState::new).collect();
        let _incumbent = topo.open_flow(1, Some(1), 1.0, mb(100.0));
        assert_eq!(
            pick(PlacementPolicy::SlaAware, &topo, &states, &tenant(), 0),
            Some(2),
            "rack-a is infeasible (incumbent would starve); rack-b beats the WAN on cost"
        );
    }

    #[test]
    fn idle_path_admits_an_otherwise_infeasible_floor() {
        // With everything quiet, a tenant whose floor exceeds every share
        // the WAN could give still places — the deadlock-avoidance clause.
        let (topo, mut dests) = pool();
        let heavy = tenant().with_min_rate(mb(65.0));
        dests[1].free_slots = 0;
        dests[2].free_slots = 0;
        assert_eq!(
            pick(PlacementPolicy::SlaAware, &topo, &dests, &heavy, 0),
            Some(0),
            "the WAN path is idle, so the floor is waived rather than deadlocking"
        );
    }

    #[test]
    fn random_is_deterministic_and_feasible() {
        let (topo, dests) = pool();
        let a = pick(PlacementPolicy::Random(7), &topo, &dests, &tenant(), 3);
        let b = pick(PlacementPolicy::Random(7), &topo, &dests, &tenant(), 3);
        assert_eq!(a, b, "same seed and ordinal, same pick");
        assert!(a.is_some());
    }

    #[test]
    fn pinned_ignores_capacity() {
        let (topo, mut dests) = pool();
        dests[0].free_slots = 0;
        assert_eq!(
            pick(PlacementPolicy::Pinned(0), &topo, &dests, &tenant(), 0),
            Some(0),
            "the drill places onto full hosts"
        );
    }

    #[test]
    fn sla_score_prices_slow_paths_higher() {
        let sla = SlaModel::default_web();
        let fast = sla_score(&sla, 100 << 20, 125e6);
        let slow = sla_score(&sla, 100 << 20, 40e6);
        assert!(slow > fast, "slow {slow} must cost more than fast {fast}");
    }

    #[test]
    fn rationale_explains_any_policy_on_the_sla_scale() {
        let (topo, dests) = pool();
        let t = tenant();
        let ws = 100u64 << 20;
        let (_, r) = choose(PlacementPolicy::SlaAware, &topo, &dests, 0, &t, ws, true, 0)
            .expect("pool has feasible destinations");
        assert_eq!(r.candidates, 3);
        assert_eq!(r.runner_up, Some(2), "the other 125 MB/s rack is next-best");
        assert!(
            r.chosen_score <= r.runner_up_score.unwrap(),
            "the sla-aware winner must also win the rationale's scale"
        );
        // A pinned pick onto the WAN is explained as strictly worse than
        // the LAN runner-up — the score gap the drill asserts on.
        let (_, pinned) = choose(
            PlacementPolicy::Pinned(0),
            &topo,
            &dests,
            0,
            &t,
            ws,
            true,
            0,
        )
        .expect("pinned always places");
        assert!(pinned.chosen_score > pinned.runner_up_score.unwrap());
        assert_eq!(pinned.runner_up, Some(1));
    }
}
