//! Read routing state out of a running experiment as plain data, for the
//! checks in [`crate::checks`], and fold the simulator's phase metric
//! snapshots into per-layer figures.

use bgpsdn_bgp::{PathAttributes, Prefix, RouteSource};
use bgpsdn_core::{AsKind, Collector, Experiment, Router, Switch};
use bgpsdn_obs::MetricValue;
use bgpsdn_sdn::FlowRule;

/// Which ASes hold a route for `prefix`: a Loc-RIB entry on a legacy
/// router, a flow rule on a cluster member's switch.
pub fn holders(exp: &Experiment, prefix: Prefix) -> Vec<bool> {
    let sim = &exp.net.sim;
    exp.net
        .ases
        .iter()
        .map(|a| match a.kind {
            AsKind::Legacy => sim.node_ref::<Router>(a.node).best(prefix).is_some(),
            AsKind::SdnMember => sim
                .node_ref::<Switch>(a.node)
                .table()
                .iter()
                .any(|r| r.prefix == prefix),
        })
        .collect()
}

/// `(AS index, best AS path)` of every legacy router holding `prefix`.
pub fn legacy_paths(exp: &Experiment, prefix: Prefix) -> Vec<(usize, Vec<u32>)> {
    exp.net
        .legacy()
        .filter_map(|a| {
            let best = exp.net.sim.node_ref::<Router>(a.node).best(prefix)?;
            let path = best.attrs.as_path.flatten().iter().map(|x| x.0).collect();
            Some((a.index, path))
        })
        .collect()
}

/// One AS's forwarding-relevant state: a legacy Loc-RIB without selection
/// times, or a member switch's flow table in canonical order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsState {
    /// Legacy router: `(prefix, source, attributes)` per Loc-RIB entry.
    Rib(Vec<(Prefix, RouteSource, PathAttributes)>),
    /// Cluster member: flow rules sorted by (prefix, priority, cookie).
    Flows(Vec<FlowRule>),
}

/// Every AS's state, indexed like `exp.net.ases`.
pub fn as_states(exp: &Experiment) -> Vec<AsState> {
    let sim = &exp.net.sim;
    exp.net
        .ases
        .iter()
        .map(|a| match a.kind {
            AsKind::Legacy => AsState::Rib(
                sim.node_ref::<Router>(a.node)
                    .loc_rib()
                    .iter()
                    .map(|(p, e)| (p, e.source, e.attrs.clone()))
                    .collect(),
            ),
            AsKind::SdnMember => {
                let mut rules: Vec<FlowRule> = sim
                    .node_ref::<Switch>(a.node)
                    .table()
                    .iter()
                    .cloned()
                    .collect();
                rules.sort_by_key(|r| (r.prefix, r.priority, r.cookie));
                AsState::Flows(rules)
            }
        })
        .collect()
}

/// Entries in the route collector's update log (cleared at every phase
/// mark, so read it before the next one).
pub fn collector_log_len(exp: &Experiment) -> u64 {
    exp.net.collector.map_or(0, |c| {
        exp.net.sim.node_ref::<Collector>(c).log().len() as u64
    })
}

/// Totals of the simulator's own wall-clock profile over the event phases
/// (every phase but bring-up). Non-zero only with profiling switched on.
#[derive(Debug, Clone, Copy, Default)]
pub struct Profile {
    /// `netsim.loop.dispatch_wall_ns`: sum and largest single dispatch.
    pub dispatch_ns: u64,
    pub dispatch_max_ns: u64,
    /// `bgp.decision.select_wall_ns` sum.
    pub decision_ns: u64,
    /// `core.controller.recompute_wall_ns` sum.
    pub recompute_ns: u64,
    /// `core.controller.prefixes_recomputed` counter.
    pub prefixes_recomputed: u64,
    /// `sdn.flowtable.mutate_wall_ns` sum.
    pub mutate_ns: u64,
}

impl Profile {
    /// Fold the finished phases of `exp` (call after `Experiment::finish`).
    pub fn of(exp: &Experiment) -> Profile {
        let mut p = Profile::default();
        for (phase, snap) in exp.phase_snapshots() {
            if phase == "bring-up" {
                continue;
            }
            for (_, name, value) in &snap.entries {
                match (name.as_str(), value) {
                    ("netsim.loop.dispatch_wall_ns", MetricValue::Histogram(h)) => {
                        p.dispatch_ns += h.sum();
                        p.dispatch_max_ns = p.dispatch_max_ns.max(h.max().unwrap_or(0));
                    }
                    ("bgp.decision.select_wall_ns", MetricValue::Histogram(h)) => {
                        p.decision_ns += h.sum();
                    }
                    ("core.controller.recompute_wall_ns", MetricValue::Histogram(h)) => {
                        p.recompute_ns += h.sum();
                    }
                    ("sdn.flowtable.mutate_wall_ns", MetricValue::Histogram(h)) => {
                        p.mutate_ns += h.sum();
                    }
                    ("core.controller.prefixes_recomputed", MetricValue::Counter(c)) => {
                        p.prefixes_recomputed += c;
                    }
                    _ => {}
                }
            }
        }
        p
    }
}
