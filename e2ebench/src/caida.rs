//! The CAIDA-style workloads on one synthesized hierarchy (Gao–Rexford
//! policies, MRAI 0, one /16 per AS):
//!
//! - `caida_flap`: all legacy BGP; after bring-up, multihomed stubs each
//!   withdraw their /16 and re-announce it, every event awaited to
//!   quiescence, with causal lineage on and each event phase analysed the
//!   way a campaign job analyses its own, and the phase metrics rendered as
//!   run-artifact lines at the end.
//! - `caida_sdn_burst`: the tier-1 mesh is one SDN cluster; after bring-up,
//!   rounds of one burst in which every stub announces a fresh /17 and one
//!   burst withdrawing them all.

use std::time::Instant;

use bgpsdn_analyze::policy_reachable;
use bgpsdn_bgp::{PolicyMode, Prefix, TimingConfig};
use bgpsdn_core::{Experiment, NetworkBuilder};
use bgpsdn_netsim::{SimDuration, SimRng, TraceCategory};
use bgpsdn_obs::{metrics_line, CausalAnalysis};
use bgpsdn_topology::caida::{synthesize, SynthesisParams};
use bgpsdn_topology::{plan, AsGraph};

use crate::checks::{self, PathRules};
use crate::outcome::{Outcome, Round};
use crate::procfs;
use crate::state::{self, Profile};
use crate::tracer::Tracer;

const DEADLINE: SimDuration = SimDuration::from_secs(3600);

/// Topology seed. The hierarchy is the same in every run, so that runs with
/// different `--seed`s do the same amount of work; the run seed picks the
/// flapping stubs, their order and the simulator's random stream.
const TOPOLOGY_SEED: u64 = 7;

/// Shape of the synthesized hierarchy and of the event phases.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Tier-1 ASes (a full peer mesh).
    pub tier1: usize,
    /// Mid-tier providers.
    pub mid: usize,
    /// Stubs.
    pub stubs: usize,
    /// `caida_flap`: distinct multihomed stubs that flap.
    pub flaps: usize,
    /// `caida_sdn_burst`: announce/withdraw burst rounds per bring-up.
    pub burst_rounds: usize,
}

/// The reference shape: 8 tier-1, 48 mid-tier, 200 stubs.
pub const SHAPE: Shape = Shape {
    tier1: 8,
    mid: 48,
    stubs: 200,
    flaps: 100,
    burst_rounds: 3,
};

impl Shape {
    fn params(&self) -> SynthesisParams {
        SynthesisParams {
            tier1: self.tier1,
            mid: self.mid,
            stubs: self.stubs,
            mid_uplinks: 2,
            stub_uplinks: 2,
            mid_peering_prob: 0.1,
            base_asn: 1,
        }
    }

    fn stub_range(&self) -> std::ops::Range<usize> {
        let first = self.tier1 + self.mid;
        first..first + self.stubs
    }
}

/// Which workload to drive on the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Legacy-only, per-stub withdraw/re-announce.
    Flap,
    /// Tier-1 SDN cluster, per-round bursts of /17s.
    Burst,
}

/// Operations one round attempts.
pub fn ops_per_round(shape: &Shape, mode: Mode) -> u64 {
    match mode {
        Mode::Flap => 2 * shape.flaps as u64,
        Mode::Burst => 2 * (shape.stubs * shape.burst_rounds) as u64,
    }
}

/// The stubs that flap: multihomed stubs in a seed-chosen order.
fn flapping_stubs(g: &AsGraph, shape: &Shape, seed: u64) -> Vec<usize> {
    let mut stubs: Vec<usize> = shape
        .stub_range()
        .filter(|&s| g.providers_of(s).len() >= 2)
        .collect();
    SimRng::seed_from_u64(seed ^ 0x5eed_f1a9).shuffle(&mut stubs);
    stubs.truncate(shape.flaps);
    stubs
}

/// Build and bring up the hierarchy; returns the experiment and the graph.
fn set_up(
    shape: &Shape,
    mode: Mode,
    seed: u64,
    traced: bool,
    tr: &mut Tracer,
    out: &mut Outcome,
    round: &mut Round,
) -> (Experiment, AsGraph, Vec<usize>) {
    let t0 = Instant::now();
    let (graph, d) = tr.time("topology.synthesize", |_| {
        synthesize(&shape.params(), &mut SimRng::seed_from_u64(TOPOLOGY_SEED))
    });
    round.add("topology.synthesize_ms", d.as_secs_f64() * 1e3);
    let members: Vec<usize> = match mode {
        Mode::Flap => Vec::new(),
        Mode::Burst => (0..shape.tier1).collect(),
    };
    let (tp, d) = tr.time("topology.plan", |_| {
        plan(
            graph.clone(),
            PolicyMode::GaoRexford,
            TimingConfig::with_mrai(SimDuration::ZERO),
        )
        .expect("the hierarchy fits the address plan")
    });
    round.add("topology.plan_ms", d.as_secs_f64() * 1e3);
    let builder = NetworkBuilder::new(tp, seed).with_sdn_members(members.clone());
    let (report, d) = tr.time("analyze.preflight", |_| builder.preflight());
    round.add("analyze.preflight_ms", d.as_secs_f64() * 1e3);
    if !report.ok() {
        out.failures.push(format!(
            "pre-flight rejected the hierarchy:\n{}",
            report.render()
        ));
    }
    let (net, d) = tr.time("framework.build", |_| builder.without_preflight().build());
    round.add("framework.build_ms", d.as_secs_f64() * 1e3);
    let mut exp = Experiment::new(net);
    exp.net.sim.set_profiling(traced);
    let (up, d) = tr.time("framework.bringup", |_| exp.start(DEADLINE));
    round.add("framework.bringup_s", d.as_secs_f64());
    round.setup_s += t0.elapsed().as_secs_f64();
    round.add(
        "netsim.bringup_events",
        exp.net.sim.stats().events_processed as f64,
    );
    if !up.converged {
        out.failures.push("bring-up did not converge".into());
    }
    (exp, graph, members)
}

/// Mark a phase named `label`, run `inject`, wait for quiescence. Records
/// the phase's wall time as a `sample` (scaled by `scale`) and its simulated
/// outputs as a digest line; returns whether it converged.
fn event_phase(
    exp: &mut Experiment,
    tr: &mut Tracer,
    round: &mut Round,
    out: &mut Outcome,
    label: String,
    (sample, scale): (&'static str, f64),
    inject: impl FnOnce(&mut Experiment),
) -> bool {
    round.add(
        "collector.log_entries",
        state::collector_log_len(exp) as f64,
    );
    tr.span("framework.mark_phase", |_| exp.mark_named(&label));
    let ev0 = exp.net.sim.stats().events_processed;
    let (report, d) = tr.time("framework.event", |_| {
        inject(exp);
        exp.wait_converged(DEADLINE)
    });
    let events = exp.net.sim.stats().events_processed - ev0;
    let flow_mods = exp.flows_installed();
    round.event_s += d.as_secs_f64();
    round.phases.push(d.as_secs_f64());
    round.add("netsim.events", events as f64);
    round.add("sdn.flow_mods", flow_mods as f64);
    out.samples
        .entry(sample)
        .or_default()
        .push(d.as_secs_f64() * scale);
    out.digest_line(format!(
        "{{\"phase\":\"{label}\",\"converged\":{},\"convergence_ns\":{},\"updates\":{},\"flow_mods\":{flow_mods},\"events\":{events}}}",
        report.converged,
        report.duration.as_nanos(),
        exp.updates_sent(),
    ));
    report.converged
}

/// Causal analysis of the event phase just finished; the trace is cleared
/// afterwards, so it only ever holds one phase.
fn analyze_phase(exp: &mut Experiment, tr: &mut Tracer, round: &mut Round) {
    let start = exp.phase_start().as_nanos();
    let (_, d) = tr.time("obs.causal", |_| {
        CausalAnalysis::from_events(
            exp.net
                .sim
                .trace()
                .records()
                .filter(|r| r.time.as_nanos() >= start)
                .map(|r| (r.time.as_nanos(), r.node.map(|n| n.0), &r.event)),
        )
        .phase_totals()
    });
    round.add("obs.causal_ms", d.as_secs_f64() * 1e3);
    exp.net.sim.trace_mut().clear();
}

/// Check that exactly the policy-reachable ASes hold `prefix` (originated
/// by `origin`) and that every legacy path is loop-free and valley-free.
fn check_announced(
    exp: &Experiment,
    graph: &AsGraph,
    rules: &PathRules,
    origin: usize,
    prefix: Prefix,
    out: &mut Outcome,
) -> bool {
    let what = format!("{prefix} from index {origin}");
    let expected = policy_reachable(graph, PolicyMode::GaoRexford, origin);
    let mut ok = out.check(checks::same_holders(
        &what,
        &expected,
        &state::holders(exp, prefix),
    ));
    for (holder, path) in state::legacy_paths(exp, prefix) {
        ok &= out.check(rules.check_path(holder, &path, origin));
    }
    ok
}

/// One round: set up, drive the event phases, check the end state, verify.
pub fn round(
    shape: &Shape,
    mode: Mode,
    seed: u64,
    traced: bool,
    tr: &mut Tracer,
    out: &mut Outcome,
) {
    let t0 = Instant::now();
    let faults0 = procfs::minor_faults();
    let mut round = Round::default();
    let failures0 = out.failures.len();
    let (mut exp, graph, members) = tr.span("bench.setup", |tr| {
        set_up(shape, mode, seed, traced, tr, out, &mut round)
    });
    let setup_ok = out.failures.len() == failures0;
    let rss_up = procfs::rss_mb();
    round.raise("mem.bringup_rss_mb", rss_up);
    let allocs_up = exp.net.sim.pool_stats().allocs_hot;
    let rules = tr.span("bench.check", |_| PathRules::new(&graph, &members));
    let baseline = tr.span("bench.check", |_| state::as_states(&exp));
    let mut mark = t0;
    round.lap(&mut mark);

    match mode {
        Mode::Flap => {
            exp.net.sim.trace_mut().enable(TraceCategory::Causal);
            for (i, &s) in flapping_stubs(&graph, shape, seed).iter().enumerate() {
                let prefix = exp.net.ases[s].prefix;
                let up = event_phase(
                    &mut exp,
                    tr,
                    &mut round,
                    out,
                    format!("flap{i}/withdraw"),
                    ("withdraw_ms", 1e3),
                    |e| e.withdraw(s, None),
                );
                analyze_phase(&mut exp, tr, &mut round);
                let (audit, d) = tr.time("framework.audit", |_| exp.prefix_fully_gone(prefix));
                round.add("framework.audit_ms", d.as_secs_f64() * 1e3);
                let ok = tr.span("bench.check", |_| {
                    let what = format!("{prefix} withdrawn by index {s}");
                    let mut ok = out.check(converged(up, &what));
                    ok &= out.check(checks::all_gone(&what, &state::holders(&exp, prefix)));
                    ok &= out.check(agrees(audit, true, &what));
                    ok
                });
                out.op(ok);
                round.lap(&mut mark);

                let up = event_phase(
                    &mut exp,
                    tr,
                    &mut round,
                    out,
                    format!("flap{i}/announce"),
                    ("announce_ms", 1e3),
                    |e| e.announce(s, None),
                );
                analyze_phase(&mut exp, tr, &mut round);
                let (audit, d) = tr.time("framework.audit", |_| {
                    exp.prefix_reachable_from_all(prefix, s)
                });
                round.add("framework.audit_ms", d.as_secs_f64() * 1e3);
                let ok = tr.span("bench.check", |_| {
                    let what = format!("{prefix} re-announced by index {s}");
                    let mut ok = out.check(converged(up, &what));
                    ok &= check_announced(&exp, &graph, &rules, s, prefix, out);
                    let all = policy_reachable(&graph, PolicyMode::GaoRexford, s)
                        .iter()
                        .all(|&h| h);
                    ok &= out.check(agrees(audit, all, &what));
                    ok
                });
                out.op(ok);
                round.lap(&mut mark);
            }
        }
        Mode::Burst => {
            let stubs: Vec<usize> = shape.stub_range().collect();
            let fresh: Vec<Prefix> = stubs
                .iter()
                .map(|&s| exp.net.ases[s].prefix.split().0)
                .collect();
            for r_i in 0..shape.burst_rounds {
                let up = event_phase(
                    &mut exp,
                    tr,
                    &mut round,
                    out,
                    format!("round{r_i}/burst-announce"),
                    ("burst_announce_s", 1.0),
                    |e| {
                        for (&s, &p) in stubs.iter().zip(&fresh) {
                            e.announce(s, Some(p));
                        }
                    },
                );
                tr.span("bench.check", |_| {
                    for (&s, &p) in stubs.iter().zip(&fresh) {
                        let ok = out.check(converged(up, "announce burst"))
                            & check_announced(&exp, &graph, &rules, s, p, out);
                        out.op(ok);
                    }
                });
                round.lap(&mut mark);
                let up = event_phase(
                    &mut exp,
                    tr,
                    &mut round,
                    out,
                    format!("round{r_i}/burst-withdraw"),
                    ("burst_withdraw_s", 1.0),
                    |e| {
                        for (&s, &p) in stubs.iter().zip(&fresh) {
                            e.withdraw(s, Some(p));
                        }
                    },
                );
                tr.span("bench.check", |_| {
                    for &p in &fresh {
                        let what = format!("{p} after the withdraw burst");
                        let ok = out.check(converged(up, &what))
                            & out.check(checks::all_gone(&what, &state::holders(&exp, p)));
                        out.op(ok);
                    }
                });
                round.lap(&mut mark);
            }
        }
    }
    if !setup_ok {
        out.fail_late("set-up failed".into());
    }
    round.add(
        "collector.log_entries",
        state::collector_log_len(&exp) as f64,
    );
    round.add(
        "netsim.allocs_hot",
        (exp.net.sim.pool_stats().allocs_hot - allocs_up) as f64,
    );
    round.raise("mem.event_rss_growth_mb", procfs::rss_mb() - rss_up);

    let end_ok = tr.span("bench.check", |_| {
        let after = state::as_states(&exp);
        let r = checks::same_state("end state", &baseline, &after);
        drop(after);
        r
    });
    if let Err(msg) = end_ok {
        out.fail_late(msg);
    }
    let (_snap, d) = tr.time("verify.snapshot", |_| exp.capture_snapshot());
    round.add("verify.snapshot_ms", d.as_secs_f64() * 1e3);
    let (report, d) = tr.time("verify.check", |_| exp.verify_now());
    round.add("verify.check_ms", d.as_secs_f64() * 1e3);
    if !report.violations.is_empty() {
        out.fail_late(format!(
            "verifier found {} violations, first: {:?}",
            report.violations.len(),
            report.violations[0]
        ));
    }
    tr.span("framework.finish", |_| exp.finish());
    if mode == Mode::Flap {
        let (_, d) = tr.time("obs.artifact", |_| {
            let mut text = String::new();
            for (phase, snap) in exp.phase_snapshots() {
                text.push_str(&metrics_line(phase, snap));
                text.push('\n');
            }
            std::hint::black_box(text.len())
        });
        round.add("obs.artifact_ms", d.as_secs_f64() * 1e3);
    }
    if traced {
        let p = Profile::of(&exp);
        round.add("netsim.dispatch_s", p.dispatch_ns as f64 / 1e9);
        round.raise("netsim.dispatch_max_ms", p.dispatch_max_ns as f64 / 1e6);
        round.add("bgp.decision_s", p.decision_ns as f64 / 1e9);
        round.add("controller.recompute_s", p.recompute_ns as f64 / 1e9);
        round.add(
            "controller.prefixes_recomputed",
            p.prefixes_recomputed as f64,
        );
        round.add("sdn.flowtable_mutate_s", p.mutate_ns as f64 / 1e9);
    }
    tr.span("framework.drop", |_| drop(exp));
    round.add(
        "mem.minor_faults",
        (procfs::minor_faults() - faults0) as f64,
    );
    round.lap(&mut mark);
    round.run_s = t0.elapsed().as_secs_f64();
    out.rounds.push(round);
}

fn converged(c: bool, what: &str) -> Result<(), String> {
    if c {
        Ok(())
    } else {
        Err(format!("{what}: did not converge"))
    }
}

fn agrees(audit: bool, expected: bool, what: &str) -> Result<(), String> {
    if audit == expected {
        Ok(())
    } else {
        Err(format!(
            "{what}: framework audit says {audit}, policy prediction {expected}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Shape = Shape {
        tier1: 3,
        mid: 6,
        stubs: 12,
        flaps: 4,
        burst_rounds: 2,
    };

    #[test]
    fn small_rounds_pass_every_check() {
        for mode in [Mode::Flap, Mode::Burst] {
            let mut out = Outcome::default();
            let mut tr = Tracer::new(true);
            round(&SMALL, mode, 3, true, &mut tr, &mut out);
            assert_eq!(out.failed, 0, "{mode:?}: {:?}", out.failures);
            assert_eq!(out.attempted, ops_per_round(&SMALL, mode));
            assert_eq!(
                out.digest.len(),
                out.rounds.len()
                    * 2
                    * if mode == Mode::Flap {
                        SMALL.flaps
                    } else {
                        SMALL.burst_rounds
                    }
            );
        }
    }

    /// Checks run on real simulator state that has not converged yet (a
    /// corrupted result as far as the checks can tell) must fire.
    #[test]
    fn checks_fire_on_unconverged_state() {
        for mode in [Mode::Flap, Mode::Burst] {
            let mut out = Outcome::default();
            let (mut exp, graph, members) = set_up(
                &SMALL,
                mode,
                1,
                false,
                &mut Tracer::new(false),
                &mut out,
                &mut Round::default(),
            );
            assert!(out.failures.is_empty(), "{:?}", out.failures);
            let rules = PathRules::new(&graph, &members);
            let baseline = state::as_states(&exp);
            let s = SMALL.stub_range().start;
            let p = exp.net.ases[s].prefix.split().0;

            // Announced but not yet propagated: holders miss the prediction.
            exp.announce(s, Some(p));
            assert!(!check_announced(&exp, &graph, &rules, s, p, &mut out));
            exp.wait_converged(DEADLINE);
            let failures = out.failures.len();
            assert!(check_announced(&exp, &graph, &rules, s, p, &mut out));
            assert_eq!(out.failures.len(), failures);
            // An extra prefix is still held: the end state differs.
            assert!(checks::same_state("end", &baseline, &state::as_states(&exp)).is_err());

            // Withdrawn but not yet propagated: the prefix is still held.
            exp.withdraw(s, Some(p));
            assert!(checks::all_gone("p", &state::holders(&exp, p)).is_err());
            exp.wait_converged(DEADLINE);
            assert_eq!(checks::all_gone("p", &state::holders(&exp, p)), Ok(()));
            assert_eq!(
                checks::same_state("end", &baseline, &state::as_states(&exp)),
                Ok(())
            );
        }
    }
}
