//! The migration fabric: one list of weighted-fair pipes.
//!
//! A whole-rack evacuation pushes many hosts' migration traffic through
//! shared infrastructure at once. [`Topology`] models every link that
//! traffic crosses — each source host's egress NIC, an optional core switch
//! shared by *all* hosts, and each destination host's ingress NIC — as the
//! same kind of pipe: a capacity split **weighted-fair** across the flows
//! that cross it. Flow *i* on a pipe gets `capacity · wᵢ / Σw`; the split
//! is work-conserving and changes whenever a flow opens or closes.
//!
//! A migration is a [`FlowId`]: opening it registers the flow, with its
//! weight and declared minimum rate, on every pipe of its path, and its
//! end-to-end rate is the minimum of its per-pipe shares (the bottleneck
//! pipe binds, exactly as max-min fairness would for a single congested
//! resource on the path).
//!
//! The minimum rate is what admission control checks: a pre-copy
//! migration only converges while its share outruns the VM's dirty rate,
//! so admitting one VM too many can starve *every* in-flight migration
//! below convergence. [`Topology::admits`] answers whether a candidate fits
//! without pushing anyone on its path (or itself) under its minimum.
//!
//! Everything here is deterministic: a pipe sums its flows in opening
//! order, and a sole flow's share is *exactly* the pipe's capacity (no
//! floating point detour). Over a one-pipe path the minimum returns that
//! share unchanged, which is what lets a one-VM drain reproduce the
//! dedicated-link goldens bit for bit (see `cluster::evac`). Pipes that are
//! not part of the topology are *absent*, never "infinitely fast": an
//! absent core contributes no share to minimise over, so it cannot perturb
//! the arithmetic of the pipes that do exist.

use crate::link::utilization;
use simkit::telemetry::SampleSeries;
use simkit::units::Bandwidth;
use simkit::{SimDuration, SimTime};

/// Describes one physical link of the fabric: a name for reporting, its
/// capacity, and whether it is a WAN path (slow, long-haul — placement
/// policies may treat WAN destinations as a last resort).
#[derive(Debug, Clone)]
pub struct LinkSpec {
    /// Human-readable name, surfaced in bench output.
    pub name: String,
    /// Link capacity.
    pub bandwidth: Bandwidth,
    /// Whether the link crosses a WAN (descriptive; the rate model is the
    /// capacity itself).
    pub wan: bool,
}

impl LinkSpec {
    /// A LAN link with the given name and capacity.
    pub fn lan(name: impl Into<String>, bandwidth: Bandwidth) -> Self {
        Self {
            name: name.into(),
            bandwidth,
            wan: false,
        }
    }

    /// A WAN link with the given name and capacity.
    pub fn wan(name: impl Into<String>, bandwidth: Bandwidth) -> Self {
        Self {
            name: name.into(),
            bandwidth,
            wan: true,
        }
    }
}

/// Identifies one end-to-end migration flow across a [`Topology`].
///
/// Ids are never reused within one topology's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowId(usize);

/// Selects one pipe of a [`Topology`] — a source-host egress NIC, the
/// core trunk, or a destination-host ingress NIC. Mid-run re-rating
/// ([`Topology::set_pipe_rate`]) and fault schedules address pipes with
/// this selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipeSel {
    /// Source host `i`'s egress NIC.
    Egress(usize),
    /// The core switch every inter-rack flow crosses.
    Core,
    /// Destination host `i`'s ingress NIC.
    Ingress(usize),
}

impl PipeSel {
    /// Short stable label for digests and causal traces (`egress3`,
    /// `core`, `ingress12`).
    pub fn label(self) -> String {
        match self {
            Self::Egress(i) => format!("egress{i}"),
            Self::Core => "core".to_string(),
            Self::Ingress(i) => format!("ingress{i}"),
        }
    }
}

/// One fair-share pipe of the fabric.
#[derive(Debug, Clone)]
struct Pipe {
    spec: LinkSpec,
    /// The current capacity; fault injection re-rates it mid-run.
    rate: Bandwidth,
    /// Open flows crossing the pipe as `(flow, weight, min_rate)`, in
    /// opening order — the order every sum over them runs in.
    flows: Vec<(usize, f64, Bandwidth)>,
}

impl Pipe {
    fn total_weight(&self) -> f64 {
        self.flows.iter().map(|f| f.1).sum()
    }

    /// The share of a crossing flow of `weight`: `capacity · w / Σw`, and
    /// the capacity itself for a sole flow.
    fn share(&self, weight: f64) -> Bandwidth {
        if self.flows.len() == 1 {
            return self.rate;
        }
        Bandwidth::from_bytes_per_sec(self.rate.bytes_per_sec() * (weight / self.total_weight()))
    }

    /// The share a candidate of `weight` would get if it joined now.
    fn post_join(&self, weight: f64) -> f64 {
        self.rate.bytes_per_sec() * (weight / (self.total_weight() + weight))
    }

    /// Whether a candidate can join and every crossing flow, the candidate
    /// included, keeps a share at or above its declared minimum.
    fn admits(&self, weight: f64, min_rate: Bandwidth) -> bool {
        let total = self.total_weight() + weight;
        let cap = self.rate.bytes_per_sec();
        cap * (weight / total) >= min_rate.bytes_per_sec()
            && self
                .flows
                .iter()
                .all(|&(_, w, min)| cap * (w / total) >= min.bytes_per_sec())
    }
}

#[derive(Debug, Clone)]
struct Flow {
    /// Indices of the pipes the flow crosses, egress first.
    path: Vec<usize>,
    weight: f64,
}

/// The migration fabric: per-source egress NICs, an optional shared core
/// switch, and per-destination ingress NICs.
///
/// # Examples
///
/// ```
/// use netsim::topology::{LinkSpec, Topology};
/// use simkit::units::Bandwidth;
///
/// // Two source hosts drain through a contended core into one destination.
/// let mut topo = Topology::new(
///     vec![
///         LinkSpec::lan("src0", Bandwidth::from_mbytes_per_sec(125.0)),
///         LinkSpec::lan("src1", Bandwidth::from_mbytes_per_sec(125.0)),
///     ],
///     Some(LinkSpec::lan("core", Bandwidth::from_mbytes_per_sec(150.0))),
///     vec![LinkSpec::lan("dst0", Bandwidth::from_mbytes_per_sec(500.0))],
/// );
/// let min = Bandwidth::from_mbytes_per_sec(10.0);
/// let a = topo.open_flow(0, Some(0), 1.0, min);
/// let b = topo.open_flow(1, Some(0), 1.0, min);
/// // Each flow gets its full NIC egress but only half the core switch.
/// assert_eq!(topo.flow_rate(a).bytes_per_sec(), 75_000_000.0);
/// topo.close_flow(a);
/// assert_eq!(topo.flow_rate(b).bytes_per_sec(), 125_000_000.0);
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    /// Egress NICs, then the core (when there is one), then ingress NICs.
    pipes: Vec<Pipe>,
    /// Number of egress NICs: the index of the core or first ingress pipe.
    sources: usize,
    /// Index of the first ingress NIC.
    ingress_from: usize,
    flows: Vec<Option<Flow>>,
}

impl Topology {
    /// Builds a fabric from link specs: one egress NIC per source host, an
    /// optional core switch every flow crosses, and one ingress NIC per
    /// destination host.
    ///
    /// # Panics
    ///
    /// If `egress` is empty.
    pub fn new(egress: Vec<LinkSpec>, core: Option<LinkSpec>, ingress: Vec<LinkSpec>) -> Self {
        assert!(!egress.is_empty(), "topology needs at least one source NIC");
        let sources = egress.len();
        let ingress_from = sources + usize::from(core.is_some());
        let pipes = egress
            .into_iter()
            .chain(core)
            .chain(ingress)
            .map(|spec| Pipe {
                rate: spec.bandwidth,
                spec,
                flows: Vec::new(),
            })
            .collect();
        Self {
            pipes,
            sources,
            ingress_from,
            flows: Vec::new(),
        }
    }

    /// The index of the selected pipe, or `None` when the fabric has no
    /// such pipe (no core, or the NIC index is out of range).
    fn index(&self, pipe: PipeSel) -> Option<usize> {
        let (i, lo, hi) = match pipe {
            PipeSel::Egress(i) => (i, 0, self.sources),
            PipeSel::Core => (0, self.sources, self.ingress_from),
            PipeSel::Ingress(i) => (i, self.ingress_from, self.pipes.len()),
        };
        (i < hi - lo).then_some(lo + i)
    }

    /// The pipes a flow `src → dst` crosses, in order.
    ///
    /// # Panics
    ///
    /// If `src` or `dst` names no NIC of the fabric.
    fn path(&self, src: usize, dst: Option<usize>) -> impl Iterator<Item = usize> {
        let nic = |sel: PipeSel| {
            self.index(sel)
                .unwrap_or_else(|| panic!("the fabric has no pipe {}", sel.label()))
        };
        std::iter::once(nic(PipeSel::Egress(src)))
            .chain(self.index(PipeSel::Core))
            .chain(dst.map(|d| nic(PipeSel::Ingress(d))))
    }

    /// In-flight flows leaving source host `src` — the per-host
    /// concurrency the admission loop throttles on.
    pub fn host_active(&self, src: usize) -> usize {
        self.pipes[..self.sources][src].flows.len()
    }

    /// Opens an end-to-end flow from source host `src` to destination
    /// `dst` (or to nowhere in particular on a destination-less fabric),
    /// registering it on every pipe of its path with fair-share `weight`
    /// and declared minimum `min_rate`.
    ///
    /// # Panics
    ///
    /// If `weight` is not strictly positive and finite, if `src`/`dst`
    /// are out of range, or if `dst` is `None` while the fabric has
    /// destination NICs (a placed evacuation must name one).
    pub fn open_flow(
        &mut self,
        src: usize,
        dst: Option<usize>,
        weight: f64,
        min_rate: Bandwidth,
    ) -> FlowId {
        assert!(
            weight.is_finite() && weight > 0.0,
            "flow weight must be positive, got {weight}"
        );
        assert!(
            dst.is_some() || self.ingress_from == self.pipes.len(),
            "flows over a fabric with destination NICs must name a destination"
        );
        let id = self.flows.len();
        let path: Vec<usize> = self.path(src, dst).collect();
        for &p in &path {
            self.pipes[p].flows.push((id, weight, min_rate));
        }
        self.flows.push(Some(Flow { path, weight }));
        FlowId(id)
    }

    /// Closes a flow (its migration finished or aborted), releasing it on
    /// every pipe of its path. Closing an already-closed flow panics —
    /// that is a scheduler accounting bug, not a recoverable state.
    pub fn close_flow(&mut self, flow: FlowId) {
        let closed = self.flows[flow.0]
            .take()
            .expect("close_flow() of an already-closed flow");
        for p in closed.path {
            self.pipes[p].flows.retain(|f| f.0 != flow.0);
        }
    }

    /// The flow's end-to-end rate: the minimum of its fair shares on every
    /// pipe along the path. The bottleneck pipe's share is returned
    /// *unchanged* — over a one-pipe path the result is that pipe's share
    /// bit for bit.
    ///
    /// # Panics
    ///
    /// If the flow is closed.
    pub fn flow_rate(&self, flow: FlowId) -> Bandwidth {
        let flow = self.flows[flow.0]
            .as_ref()
            .expect("flow_rate() of a closed flow");
        flow.path
            .iter()
            .map(|&p| self.pipes[p].share(flow.weight))
            .reduce(|rate, share| {
                if share.bytes_per_sec() < rate.bytes_per_sec() {
                    share
                } else {
                    rate
                }
            })
            .expect("a path starts at its egress NIC")
    }

    /// Whether a candidate flow `src → dst` with (`weight`, `min_rate`)
    /// may open now. Without `enforce_min_rate` every path admits. With it,
    /// the candidate must join without pushing any flow on any pipe of its
    /// path, or itself, below its declared minimum — unless the whole path
    /// is idle: a drain must never deadlock, and with nothing in flight the
    /// candidate gets the best path it will ever see.
    pub fn admits(
        &self,
        src: usize,
        dst: Option<usize>,
        weight: f64,
        min_rate: Bandwidth,
        enforce_min_rate: bool,
    ) -> bool {
        !enforce_min_rate
            || self
                .path(src, dst)
                .all(|p| self.pipes[p].admits(weight, min_rate))
            || self.path(src, dst).all(|p| self.pipes[p].flows.is_empty())
    }

    /// The rate a candidate flow would get if admitted now: the minimum
    /// over its path of each pipe's hypothetical post-join share
    /// `capacity · w / (Σw + w)`. Placement policies use this to score
    /// destinations; it is an estimate of the *initial* rate only (shares
    /// re-balance as flows come and go).
    pub fn predicted_rate(&self, src: usize, dst: Option<usize>, weight: f64) -> Bandwidth {
        let rate = self
            .path(src, dst)
            .map(|p| self.pipes[p].post_join(weight))
            .reduce(f64::min)
            .expect("a path starts at its egress NIC");
        Bandwidth::from_bytes_per_sec(rate)
    }

    /// The selected pipe's *current* capacity, or `None` when the fabric
    /// has no such pipe (no core, or the NIC index is out of range).
    pub fn pipe_rate(&self, pipe: PipeSel) -> Option<Bandwidth> {
        self.index(pipe).map(|i| self.pipes[i].rate)
    }

    /// Re-rates any pipe of the fabric mid-run — a source NIC, the core
    /// trunk, or a destination ingress NIC. Every in-flight flow crossing
    /// the pipe sees the new rate at its next [`Topology::flow_rate`]
    /// re-grant. Returns whether the fabric had the selected pipe.
    pub fn set_pipe_rate(&mut self, pipe: PipeSel, rate: Bandwidth) -> bool {
        let Some(i) = self.index(pipe) else {
            return false;
        };
        self.pipes[i].rate = rate;
        true
    }

    /// The selected pipe's [`LinkSpec`] name, or `None` when the fabric
    /// has no such pipe. Fault narration uses this so a seeded degrade
    /// names the link it hit.
    pub fn pipe_name(&self, pipe: PipeSel) -> Option<&str> {
        self.index(pipe).map(|i| self.pipes[i].spec.name.as_str())
    }

    /// Samples every pipe of the fabric into `out` (built by
    /// [`PipeTimelines::for_topology`]): utilization over the window
    /// `[at - dt, at)` from the rates currently granted to open flows
    /// (each flow's end-to-end rate is attributed to every pipe it
    /// crosses), and the aggregate minimum-rate demand of the flows
    /// crossing the pipe. Pure arithmetic over existing state.
    pub fn sample_pipes(&self, at: SimTime, dt: SimDuration, out: &mut PipeTimelines) {
        let mut bps = vec![0.0f64; self.pipes.len()];
        for (i, flow) in self.flows.iter().enumerate() {
            let Some(flow) = flow else {
                continue;
            };
            let rate = self.flow_rate(FlowId(i)).bytes_per_sec();
            for &p in &flow.path {
                bps[p] += rate;
            }
        }
        let secs = dt.as_secs_f64();
        for ((pipe, bps), line) in self.pipes.iter().zip(bps).zip(&mut out.pipes) {
            let sent = (bps * secs) as u64;
            let demand: f64 = pipe.flows.iter().map(|f| f.2.bytes_per_sec()).sum();
            line.utilization
                .push(at.as_nanos(), utilization(pipe.rate, dt, sent));
            line.queued_demand.push(at.as_nanos(), demand);
            line.last_capacity_bps = pipe.rate.bytes_per_sec();
        }
    }
}

/// One pipe's bounded observation rings, tagged by pipe name.
#[derive(Debug, Clone)]
pub struct PipeTimeline {
    /// The pipe's [`LinkSpec`] name (host name, core name, ...).
    pub name: String,
    /// Whether the pipe is a WAN link.
    pub wan: bool,
    /// Utilization samples in `[0, 1]`.
    pub utilization: SampleSeries,
    /// Aggregate minimum-rate demand of the crossing flows, bytes/second.
    pub queued_demand: SampleSeries,
    /// The pipe's capacity at the most recent sample, bytes/second
    /// (0 until first sampled). Mid-run re-rates — a degraded core — show
    /// up here, which is what lets the saturation watchdog compare the
    /// subscribed demand against the capacity that *currently* holds.
    pub last_capacity_bps: f64,
}

/// Per-pipe utilization and queued-demand timelines for a whole fabric:
/// source NICs, the core switch (when present), then destination ingress
/// NICs, in [`Topology`] order. Fed by [`Topology::sample_pipes`];
/// consumed by the SLO watchdog, the Prometheus pipe families and the
/// evacuation digest.
#[derive(Debug, Clone)]
pub struct PipeTimelines {
    pipes: Vec<PipeTimeline>,
}

impl PipeTimelines {
    /// Builds empty rings for every pipe of `topo`. `capacity` bounds
    /// each ring; samples arrive on the evacuation's sampling cadence but
    /// are recorded as irregular series (wakeups, not a wall timer, drive
    /// sampling).
    pub fn for_topology(topo: &Topology, capacity: usize) -> Self {
        let pipes = topo
            .pipes
            .iter()
            .map(|p| PipeTimeline {
                name: p.spec.name.clone(),
                wan: p.spec.wan,
                utilization: SampleSeries::new(0, capacity),
                queued_demand: SampleSeries::new(0, capacity),
                last_capacity_bps: 0.0,
            })
            .collect();
        Self { pipes }
    }

    /// The per-pipe timelines, in topology order.
    pub fn pipes(&self) -> &[PipeTimeline] {
        &self.pipes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mb(x: f64) -> Bandwidth {
        Bandwidth::from_mbytes_per_sec(x)
    }

    /// One source NIC and nothing else: the fabric of a one-host drain.
    fn one_pipe(cap: Bandwidth) -> Topology {
        Topology::new(vec![LinkSpec::lan("uplink", cap)], None, Vec::new())
    }

    #[test]
    fn sole_flow_gets_exactly_the_pipe_capacity() {
        let cap = Bandwidth::gigabit_ethernet();
        let mut topo = one_pipe(cap);
        let f = topo.open_flow(0, None, 3.0, mb(1.0));
        assert_eq!(
            topo.flow_rate(f).bytes_per_sec(),
            cap.bytes_per_sec(),
            "a sole flow sees the undivided capacity, no float detour"
        );
        // The same holds on every pipe of a longer path.
        let mut topo = Topology::new(
            vec![LinkSpec::lan("src", cap)],
            Some(LinkSpec::lan("core", mb(300.0))),
            vec![LinkSpec::lan("dst", mb(500.0))],
        );
        let f = topo.open_flow(0, Some(0), 3.0, mb(1.0));
        assert_eq!(topo.flow_rate(f).bytes_per_sec(), cap.bytes_per_sec());
    }

    #[test]
    fn weighted_shares_sum_to_the_capacity() {
        let mut topo = one_pipe(mb(120.0));
        let flows = [1.0, 2.0, 3.0].map(|w| topo.open_flow(0, None, w, mb(1.0)));
        let total: f64 = flows
            .iter()
            .map(|&f| topo.flow_rate(f).bytes_per_sec())
            .sum();
        assert!((total - 120_000_000.0).abs() < 1.0, "shares sum {total}");
        assert!(
            topo.flow_rate(flows[2]).bytes_per_sec() > topo.flow_rate(flows[0]).bytes_per_sec()
        );
        topo.close_flow(flows[0]);
        topo.close_flow(flows[1]);
        assert_eq!(topo.flow_rate(flows[2]).bytes_per_sec(), 120_000_000.0);
    }

    #[test]
    fn admission_protects_the_candidate_and_the_incumbents() {
        let mut topo = one_pipe(mb(100.0));
        topo.open_flow(0, None, 1.0, mb(40.0));
        // A second equal-weight flow would cut the first to 50 — fine for
        // its 40 minimum but not for a candidate demanding 60.
        assert!(topo.admits(0, None, 1.0, mb(40.0), true));
        assert!(
            !topo.admits(0, None, 1.0, mb(60.0), true),
            "candidate starves itself"
        );
        // Three ways: 33.3 each — the incumbent's 40 minimum now breaks.
        topo.open_flow(0, None, 1.0, mb(20.0));
        assert!(
            !topo.admits(0, None, 1.0, mb(10.0), true),
            "incumbent would starve"
        );
        assert!(
            topo.admits(0, None, 1.0, mb(10.0), false),
            "unenforced minimums admit anything"
        );
    }

    #[test]
    fn admission_checks_every_hop() {
        let mut topo = Topology::new(
            vec![LinkSpec::lan("src", mb(125.0))],
            None,
            vec![
                LinkSpec::wan("wan", mb(40.0)),
                LinkSpec::lan("lan", mb(125.0)),
            ],
        );
        // Feasible on the NIC, infeasible on the WAN ingress — but the path
        // is idle, so the floor is waived rather than deadlocking.
        assert!(topo.admits(0, Some(0), 1.0, mb(50.0), true));
        // An incumbent on the NIC makes the path busy. The NIC would still
        // give both flows 62.5 MB/s, above either floor, so only the WAN
        // ingress behind it can refuse.
        let f = topo.open_flow(0, Some(1), 1.0, mb(20.0));
        assert!(
            topo.admits(0, Some(0), 1.0, mb(30.0), true),
            "both pipes meet a 30 MB/s floor"
        );
        assert!(
            !topo.admits(0, Some(0), 1.0, mb(50.0), true),
            "the NIC meets a 50 MB/s floor, the 40 MB/s WAN ingress does not"
        );
        assert!(!topo.admits(0, Some(0), 1.0, mb(65.0), true));
        assert!(topo.admits(0, Some(0), 1.0, mb(50.0), false));
        topo.close_flow(f);
        assert!(topo.admits(0, Some(0), 1.0, mb(50.0), true));
    }

    #[test]
    fn bottleneck_hop_binds_flow_rate() {
        let mut topo = Topology::new(
            vec![LinkSpec::lan("src", mb(125.0))],
            Some(LinkSpec::lan("core", mb(500.0))),
            vec![
                LinkSpec::lan("fast", mb(125.0)),
                LinkSpec::wan("slow", mb(40.0)),
            ],
        );
        let fast = topo.open_flow(0, Some(0), 1.0, mb(1.0));
        assert_eq!(
            topo.flow_rate(fast).bytes_per_sec(),
            mb(125.0).bytes_per_sec()
        );
        topo.close_flow(fast);
        let slow = topo.open_flow(0, Some(1), 1.0, mb(1.0));
        assert_eq!(
            topo.flow_rate(slow).bytes_per_sec(),
            mb(40.0).bytes_per_sec(),
            "WAN ingress is the bottleneck"
        );
    }

    #[test]
    fn core_contention_shares_across_hosts() {
        let mut topo = Topology::new(
            vec![
                LinkSpec::lan("src0", mb(125.0)),
                LinkSpec::lan("src1", mb(125.0)),
            ],
            Some(LinkSpec::lan("core", mb(150.0))),
            vec![LinkSpec::lan("dst", mb(1000.0))],
        );
        let a = topo.open_flow(0, Some(0), 1.0, mb(1.0));
        let b = topo.open_flow(1, Some(0), 2.0, mb(1.0));
        assert_eq!(topo.host_active(0), 1);
        // Each host's NIC is otherwise idle; the 150 MB/s core splits 1:2.
        assert_eq!(topo.flow_rate(a).bytes_per_sec(), mb(50.0).bytes_per_sec());
        assert_eq!(topo.flow_rate(b).bytes_per_sec(), mb(100.0).bytes_per_sec());
        topo.close_flow(a);
        assert_eq!(topo.host_active(0), 0);
        assert_eq!(
            topo.flow_rate(b).bytes_per_sec(),
            mb(125.0).bytes_per_sec(),
            "after the peer leaves, the NIC binds, not the core"
        );
    }

    #[test]
    fn predicted_rate_is_hypothetical_post_join_minimum() {
        let mut topo = Topology::new(
            vec![LinkSpec::lan("src", mb(100.0))],
            None,
            vec![LinkSpec::lan("dst", mb(300.0))],
        );
        let _f = topo.open_flow(0, Some(0), 1.0, mb(1.0));
        // Joining with weight 1 against an incumbent of weight 1: half the
        // 100 MB/s NIC, half of the roomy 300 MB/s ingress.
        let r = topo.predicted_rate(0, Some(0), 1.0);
        assert_eq!(r.bytes_per_sec(), mb(50.0).bytes_per_sec());
    }

    #[test]
    fn pipe_timelines_sample_every_hop_in_topology_order() {
        let mut topo = Topology::new(
            vec![
                LinkSpec::lan("src0", mb(125.0)),
                LinkSpec::lan("src1", mb(125.0)),
            ],
            Some(LinkSpec::lan("core", mb(150.0))),
            vec![LinkSpec::wan("wan-dst", mb(40.0))],
        );
        let mut pipes = PipeTimelines::for_topology(&topo, 16);
        assert_eq!(
            pipes
                .pipes()
                .iter()
                .map(|p| p.name.as_str())
                .collect::<Vec<_>>(),
            vec!["src0", "src1", "core", "wan-dst"],
        );
        assert!(pipes.pipes()[3].wan && !pipes.pipes()[2].wan);

        let _a = topo.open_flow(0, Some(0), 1.0, mb(10.0));
        let _b = topo.open_flow(1, Some(0), 1.0, mb(10.0));
        let at = SimTime::ZERO + SimDuration::from_millis(250);
        topo.sample_pipes(at, SimDuration::from_millis(250), &mut pipes);

        // Both flows bottleneck on the 40 MB/s WAN ingress (20 each):
        // the ingress is saturated, the NICs and core are not.
        let p = pipes.pipes();
        assert!((p[3].utilization.last().unwrap() - 1.0).abs() < 1e-9);
        assert!((p[0].utilization.last().unwrap() - 20.0 / 125.0).abs() < 1e-9);
        assert!((p[2].utilization.last().unwrap() - 40.0 / 150.0).abs() < 1e-9);
        // Queued demand is the subscribed min-rate floor per pipe.
        assert_eq!(p[0].queued_demand.last(), Some(10_000_000.0));
        assert_eq!(p[2].queued_demand.last(), Some(20_000_000.0));
        assert_eq!(p[3].queued_demand.last(), Some(20_000_000.0));
        assert_eq!(p[2].last_capacity_bps, mb(150.0).bytes_per_sec());

        // A zero-length window carries no capacity and reads idle.
        topo.sample_pipes(at, SimDuration::ZERO, &mut pipes);
        assert!(pipes
            .pipes()
            .iter()
            .all(|p| p.utilization.last() == Some(0.0)));
    }

    #[test]
    fn utilization_is_the_sent_fraction_clamped_at_one() {
        let rate = Bandwidth::from_bytes_per_sec(1000.0);
        let dt = SimDuration::from_secs(1);
        assert_eq!(utilization(rate, dt, 250), 0.25);
        assert_eq!(utilization(rate, dt, 9_999), 1.0, "oversubscribed clamps");
        assert_eq!(utilization(rate, SimDuration::ZERO, 10), 0.0);
    }

    #[test]
    fn core_re_rate_degrades_in_flight_flows() {
        let mut topo = Topology::new(
            vec![LinkSpec::lan("src", mb(125.0))],
            Some(LinkSpec::lan("core", mb(150.0))),
            vec![LinkSpec::lan("dst", mb(1000.0))],
        );
        let f = topo.open_flow(0, Some(0), 1.0, mb(1.0));
        assert_eq!(topo.flow_rate(f).bytes_per_sec(), mb(125.0).bytes_per_sec());
        assert!(topo.set_pipe_rate(PipeSel::Core, mb(30.0)));
        assert_eq!(
            topo.pipe_rate(PipeSel::Core).unwrap().bytes_per_sec(),
            mb(30.0).bytes_per_sec()
        );
        assert_eq!(topo.pipe_name(PipeSel::Core), Some("core"));
        assert_eq!(
            topo.flow_rate(f).bytes_per_sec(),
            mb(30.0).bytes_per_sec(),
            "degraded core becomes the bottleneck at the next re-grant"
        );
        let mut coreless = one_pipe(mb(100.0));
        assert!(!coreless.set_pipe_rate(PipeSel::Core, mb(1.0)));
        assert!(!coreless.set_pipe_rate(PipeSel::Egress(1), mb(1.0)));
        assert!(coreless.pipe_name(PipeSel::Ingress(0)).is_none());
    }

    #[test]
    fn pipe_selectors_address_their_own_pipes() {
        let mut topo = Topology::new(
            vec![
                LinkSpec::lan("src0", mb(1.0)),
                LinkSpec::lan("src1", mb(2.0)),
            ],
            None,
            vec![
                LinkSpec::lan("dst0", mb(3.0)),
                LinkSpec::lan("dst1", mb(4.0)),
            ],
        );
        let names = [
            PipeSel::Egress(0),
            PipeSel::Egress(1),
            PipeSel::Core,
            PipeSel::Ingress(0),
            PipeSel::Ingress(1),
            PipeSel::Ingress(2),
        ]
        .map(|sel| topo.pipe_name(sel));
        assert_eq!(
            names,
            [
                Some("src0"),
                Some("src1"),
                None,
                Some("dst0"),
                Some("dst1"),
                None
            ]
        );
        assert!(topo.set_pipe_rate(PipeSel::Ingress(1), mb(8.0)));
        assert_eq!(topo.pipe_rate(PipeSel::Ingress(1)), Some(mb(8.0)));
        assert_eq!(topo.pipe_rate(PipeSel::Egress(1)), Some(mb(2.0)));
    }

    #[test]
    #[should_panic(expected = "the fabric has no pipe ingress2")]
    fn a_flow_to_a_missing_destination_panics() {
        let mut topo = Topology::new(
            vec![LinkSpec::lan("src", mb(1.0))],
            None,
            vec![
                LinkSpec::lan("dst0", mb(1.0)),
                LinkSpec::lan("dst1", mb(1.0)),
            ],
        );
        topo.open_flow(0, Some(2), 1.0, mb(1.0));
    }

    #[test]
    fn flow_ids_are_never_reused() {
        let mut topo = one_pipe(mb(100.0));
        let a = topo.open_flow(0, None, 1.0, mb(1.0));
        topo.close_flow(a);
        let b = topo.open_flow(0, None, 1.0, mb(1.0));
        assert_ne!(a, b);
    }
}
