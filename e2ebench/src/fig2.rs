//! `fig2_sweep`: the paper's Figure 2 grid as `bgpsdn sweep --fig2` runs it
//! (16-AS clique, MRAI 30 s, recompute delay 100 ms, withdrawal of AS 0's
//! prefix, SDN sizes 0..=16 × 10 seeds = 170 jobs, one after another, causal
//! lineage on, merged campaign artifact rendered at the end). Each job is
//! the steps of `bgpsdn_core::run_job` made one call at a time, so every
//! layer is timed from outside; a test checks that the records match.

use std::time::Instant;

use bgpsdn_analyze::hunt_depth_bound;
use bgpsdn_bgp::{PolicyMode, TimingConfig};
use bgpsdn_core::{
    CampaignGrid, CampaignJob, CampaignRunReport, Experiment, JobOutcome, JobResult,
    NetworkBuilder, ScenarioOutcome,
};
use bgpsdn_netsim::{LatencyModel, SimDuration, TraceCategory, TraceEvent};
use bgpsdn_obs::{CampaignArtifact, CausalAnalysis};
use bgpsdn_topology::{gen, plan, AsGraph};

use crate::checks;
use crate::outcome::{Outcome, Round};
use crate::procfs;
use crate::state;
use crate::tracer::Tracer;

const DEADLINE: SimDuration = SimDuration::from_secs(3600);

/// The Figure 2 grid with every job seed derived from `base_seed`
/// (`bgpsdn sweep --fig2` uses 1000).
pub fn grid(base_seed: u64) -> CampaignGrid {
    CampaignGrid {
        base_seed,
        ..CampaignGrid::fig2(10)
    }
}

/// One job, counted in `out` as one operation; returns its campaign result.
pub fn run_job(
    job: &CampaignJob,
    traced: bool,
    tr: &mut Tracer,
    out: &mut Outcome,
    round: &mut Round,
) -> JobResult {
    let t0 = Instant::now();
    let scenario = job.scenario();
    let opts = job.run_options();
    let mut timing = TimingConfig::with_mrai(scenario.mrai);
    timing.hold_time_secs = opts.hold_secs;
    timing.graceful_restart_secs = opts.graceful_restart_secs;
    let members = scenario.members();

    let setup_t0 = Instant::now();
    let (graph, d) = tr.time("topology.synthesize", |_| {
        AsGraph::all_peer(&gen::clique(scenario.n), 65000)
    });
    round.add("topology.synthesize_ms", d.as_secs_f64() * 1e3);
    let bound = tr.span("bench.check", |_| hunt_depth_bound(&graph, &members, 0));
    let (tp, d) = tr.time("topology.plan", |_| {
        plan(graph, PolicyMode::AllPermit, timing).expect("the clique fits the address plan")
    });
    round.add("topology.plan_ms", d.as_secs_f64() * 1e3);
    let builder = NetworkBuilder::new(tp, scenario.seed)
        .with_recompute_delay(scenario.recompute_delay)
        .with_control_loss(scenario.control_loss)
        .with_sdn_members(members.clone())
        .with_ctl_latency(
            opts.ctl_latency
                .clone()
                .unwrap_or(LatencyModel::Fixed(SimDuration::from_millis(1))),
        );
    let (report, d) = tr.time("analyze.preflight", |_| builder.preflight());
    round.add("analyze.preflight_ms", d.as_secs_f64() * 1e3);
    let mut ok = out.check(if report.ok() {
        Ok(())
    } else {
        Err(format!("job {}: pre-flight rejected the network", job.id))
    });
    let (net, d) = tr.time("framework.build", |_| builder.without_preflight().build());
    round.add("framework.build_ms", d.as_secs_f64() * 1e3);
    let mut exp = Experiment::new(net);
    exp.net.sim.trace_mut().enable(TraceCategory::Causal);
    if traced {
        exp.net.sim.set_profiling(true);
        exp.net.sim.trace_mut().enable(TraceCategory::Route);
    }
    let (up, d) = tr.time("framework.bringup", |_| exp.start(DEADLINE));
    round.add("framework.bringup_s", d.as_secs_f64());
    round.setup_s += setup_t0.elapsed().as_secs_f64();
    let bringup_events = exp.net.sim.stats().events_processed;
    round.add("netsim.bringup_events", bringup_events as f64);
    let rss_up = procfs::rss_mb();
    round.raise("mem.bringup_rss_mb", rss_up);
    let allocs_up = exp.net.sim.pool_stats().allocs_hot;
    ok &= out.check(if up.converged {
        Ok(())
    } else {
        Err(format!("job {}: bring-up did not converge", job.id))
    });

    let origin = 0usize;
    let prefix = exp.net.ases[origin].prefix;
    tr.span("framework.mark_phase", |_| exp.mark_named("withdrawal"));
    let (report, d) = tr.time("framework.event", |_| {
        exp.withdraw(origin, None);
        exp.wait_converged(DEADLINE)
    });
    round.event_s += d.as_secs_f64();
    round.phases.push(d.as_secs_f64());
    let events = exp.net.sim.stats().events_processed - bringup_events;
    round.add("netsim.events", events as f64);
    round.add(
        "netsim.allocs_hot",
        (exp.net.sim.pool_stats().allocs_hot - allocs_up) as f64,
    );
    round.raise("mem.event_rss_growth_mb", procfs::rss_mb() - rss_up);
    let (audit_ok, d) = tr.time("framework.audit", |_| exp.prefix_fully_gone(prefix));
    round.add("framework.audit_ms", d.as_secs_f64() * 1e3);

    let outcome = ScenarioOutcome {
        converged: report.converged,
        convergence: report.duration,
        collector_convergence: exp.collector_convergence(),
        updates: exp.updates_sent(),
        flow_mods: exp.flows_installed(),
        audit_ok,
    };
    round.add(
        "collector.log_entries",
        state::collector_log_len(&exp) as f64,
    );
    round.add("sdn.flow_mods", outcome.flow_mods as f64);

    ok &= tr.span("bench.check", |_| {
        let gone = state::holders(&exp, prefix);
        let mut ok = out.check(if report.converged {
            Ok(())
        } else {
            Err(format!("job {}: withdrawal did not converge", job.id))
        });
        ok &= out.check(checks::all_gone(&format!("job {}", job.id), &gone));
        ok &= out.check(if audit_ok {
            Ok(())
        } else {
            Err(format!(
                "job {}: framework audit says the prefix is not gone",
                job.id
            ))
        });
        ok &= out.check(checks::within_hunt_time(
            report.duration.as_nanos(),
            bound,
            scenario.mrai.as_nanos(),
        ));
        if traced {
            let member_asns: Vec<u32> = exp.net.members().map(|a| a.asn.0).collect();
            let start = exp.phase_start();
            let obs = bgpsdn_netsim::ObsPrefix::new(prefix.network_u32(), prefix.len());
            for r in exp.net.sim.trace().records().filter(|r| r.time >= start) {
                if let TraceEvent::RibChange {
                    prefix: p,
                    new_path: Some(path),
                    ..
                } = &r.event
                {
                    if *p == obs {
                        ok &= out.check(checks::within_hunt_length(path, &member_asns, bound));
                    }
                }
            }
        }
        ok
    });

    tr.span("framework.finish", |_| exp.finish());
    if traced {
        let p = state::Profile::of(&exp);
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
    let phase_start = exp.phase_start().as_nanos();
    let (phases, d) = tr.time("obs.causal", |_| {
        CausalAnalysis::from_events(
            exp.net
                .sim
                .trace()
                .records()
                .filter(|r| r.time.as_nanos() >= phase_start)
                .map(|r| (r.time.as_nanos(), r.node.map(|n| n.0), &r.event)),
        )
        .phase_totals()
    });
    round.add("obs.causal_ms", d.as_secs_f64() * 1e3);
    tr.span("framework.drop", |_| drop(exp));

    out.digest_line(format!(
        "{{\"phase\":\"job{}/withdrawal\",\"sdn\":{},\"convergence_ns\":{},\"updates\":{},\"flow_mods\":{},\"events\":{}}}",
        job.id, job.cluster, outcome.convergence.as_nanos(), outcome.updates, outcome.flow_mods, events
    ));
    out.op(ok);
    let wall_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    out.samples
        .entry("job_ms")
        .or_default()
        .push(wall_ns as f64 / 1e6);
    JobResult {
        job: job.clone(),
        outcome: Ok(JobOutcome {
            outcome,
            verify_violations: 0,
            phases,
            artifact: None,
        }),
        wall_ns,
    }
}

/// One round: the whole grid, then the merged campaign artifact.
pub fn round(grid: &CampaignGrid, traced: bool, tr: &mut Tracer, out: &mut Outcome) {
    let t0 = Instant::now();
    let faults0 = procfs::minor_faults();
    let mut round = Round::default();
    let jobs = tr.span("core.campaign_expand", |_| grid.expand());
    let mut results = Vec::with_capacity(jobs.len());
    let mut mark = t0;
    for job in &jobs {
        results.push(tr.span("bench.job", |tr| run_job(job, traced, tr, out, &mut round)));
        round.lap(&mut mark);
    }
    let cells: Vec<(usize, u64)> = results
        .iter()
        .filter_map(|r| {
            let o = r.outcome.as_ref().ok()?;
            Some((r.job.cluster, o.outcome.convergence.as_nanos()))
        })
        .collect();
    if let Err(msg) = checks::medians_do_not_rise(&cells) {
        out.fail_late(format!("fig2: {msg}"));
    }
    let report = CampaignRunReport {
        results,
        wall: t0.elapsed(),
        workers: 1,
    };
    let (artifact, d) = tr.time("obs.artifact", |_| report.render_artifact(grid));
    round.add("obs.artifact_ms", d.as_secs_f64() * 1e3);
    let parsed = tr.span("bench.check", |_| {
        CampaignArtifact::parse(&artifact).map(|a| a.jobs.len())
    });
    if parsed != Ok(grid.job_count()) {
        out.fail_late(format!(
            "fig2: merged artifact does not hold the grid's jobs: {parsed:?}"
        ));
    }
    round.add(
        "mem.minor_faults",
        (procfs::minor_faults() - faults0) as f64,
    );
    round.lap(&mut mark);
    round.run_s = t0.elapsed().as_secs_f64();
    out.rounds.push(round);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The job made one call at a time must produce the same campaign
    /// record as the library's own `run_job`.
    #[test]
    fn stepwise_job_matches_the_library_job() {
        let g = grid(1000);
        let jobs = g.expand();
        for id in [0, 85, 169] {
            let job = &jobs[id];
            let mut out = Outcome::default();
            let mut round = Round::default();
            let mine = run_job(job, false, &mut Tracer::new(false), &mut out, &mut round);
            let lib = JobResult {
                job: job.clone(),
                outcome: Ok(bgpsdn_core::run_job(job, false)),
                wall_ns: 0,
            };
            assert_eq!(mine.record(), lib.record(), "job {id}");
            assert_eq!((out.attempted, out.failed), (1, 0), "{:?}", out.failures);
        }
    }
}
