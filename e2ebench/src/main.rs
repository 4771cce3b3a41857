//! End-to-end benchmark of the bgpsdn workspace.
//!
//! ```text
//! e2ebench --workload <fig2_sweep|caida_flap|caida_sdn_burst> --seed <n> --seconds <s> --trace <0|1>
//! e2ebench digest [--write]
//! ```
//!
//! A run repeats whole rounds of its workload, in this one thread, until
//! `--seconds` have passed, checks every operation's result, and prints one
//! JSON line last: the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). Both kinds of run also write a results file under
//! `e2ebench/out/`. See README.md.

mod caida;
mod checks;
mod fig2;
mod outcome;
mod procfs;
mod state;
mod tracer;

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use outcome::{median, positional_min_sum, quantile, Outcome, LAYER_METRICS};
use tracer::Tracer;

/// The workloads, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Fig2Sweep,
    CaidaFlap,
    CaidaSdnBurst,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::Fig2Sweep,
        Workload::CaidaFlap,
        Workload::CaidaSdnBurst,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::Fig2Sweep => "fig2_sweep",
            Workload::CaidaFlap => "caida_flap",
            Workload::CaidaSdnBurst => "caida_sdn_burst",
        }
    }

    fn by_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The seed the committed digest was made with (`1000` is the base
    /// seed of `bgpsdn sweep --fig2`).
    fn reference_seed(self) -> u64 {
        match self {
            Workload::Fig2Sweep => 1000,
            Workload::CaidaFlap | Workload::CaidaSdnBurst => 1,
        }
    }

    fn ops_per_round(self) -> u64 {
        match self {
            Workload::Fig2Sweep => fig2::grid(0).job_count() as u64,
            Workload::CaidaFlap => caida::ops_per_round(&caida::SHAPE, caida::Mode::Flap),
            Workload::CaidaSdnBurst => caida::ops_per_round(&caida::SHAPE, caida::Mode::Burst),
        }
    }

    fn round(self, seed: u64, traced: bool, tr: &mut Tracer, out: &mut Outcome) {
        match self {
            Workload::Fig2Sweep => fig2::round(&fig2::grid(seed), traced, tr, out),
            Workload::CaidaFlap => {
                caida::round(&caida::SHAPE, caida::Mode::Flap, seed, traced, tr, out)
            }
            Workload::CaidaSdnBurst => {
                caida::round(&caida::SHAPE, caida::Mode::Burst, seed, traced, tr, out);
            }
        }
    }

    /// Workload-specific latency figures: `(name, unit, value)`.
    fn specific(self, out: &Outcome) -> Vec<(&'static str, &'static str, f64)> {
        let s = |k: &str| out.samples.get(k).map_or(&[][..], Vec::as_slice);
        match self {
            Workload::Fig2Sweep => vec![
                ("job_ms_p50", "ms", median(s("job_ms"))),
                ("job_ms_p90", "ms", quantile(s("job_ms"), 0.9)),
            ],
            Workload::CaidaFlap => vec![
                ("withdraw_ms_p50", "ms", median(s("withdraw_ms"))),
                ("withdraw_ms_p90", "ms", quantile(s("withdraw_ms"), 0.9)),
                ("announce_ms_p50", "ms", median(s("announce_ms"))),
                ("announce_ms_p90", "ms", quantile(s("announce_ms"), 0.9)),
            ],
            Workload::CaidaSdnBurst => vec![
                ("burst_announce_s", "s", median(s("burst_announce_s"))),
                ("burst_withdraw_s", "s", median(s("burst_withdraw_s"))),
            ],
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                };
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Where results files go: `out/` next to this package's manifest.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Identifies the running binary: its size and modification time. A rebuild
/// changes it, so a traced run can tell whether the untraced results file
/// was written by the same build.
fn build_id() -> String {
    std::env::current_exe()
        .and_then(std::fs::metadata)
        .and_then(|m| {
            let mtime = m.modified()?.duration_since(std::time::UNIX_EPOCH);
            Ok(format!("{}-{}", m.len(), mtime.map_or(0, |d| d.as_nanos())))
        })
        .unwrap_or_else(|_| "unknown".to_string())
}

fn reference_path(w: Workload) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("reference")
        .join(format!("{}.digest.jsonl", w.name()))
}

/// Repeat whole rounds for about `seconds`: another round starts only if
/// one of median length still ends in time, so the run's length does not
/// depend on the host's speed; at least one round runs. A round that panics
/// counts every operation it had not finished as failed.
fn run_rounds(w: Workload, seed: u64, seconds: f64, tr: &mut Tracer) -> (Outcome, f64) {
    let mut out = Outcome::default();
    let t0 = Instant::now();
    let mut walls = Vec::new();
    loop {
        let r0 = Instant::now();
        let before = out.attempted;
        let traced = tr.is_on();
        let res = catch_unwind(AssertUnwindSafe(|| w.round(seed, traced, tr, &mut out)));
        if res.is_err() {
            let missing = w.ops_per_round().saturating_sub(out.attempted - before);
            out.attempted += missing;
            out.failed += missing;
            out.failures
                .push(format!("round {} panicked", out.rounds.len()));
            tr.unwind();
        }
        walls.push(r0.elapsed().as_secs_f64());
        if t0.elapsed().as_secs_f64() + median(&walls) > seconds {
            break;
        }
    }
    (out, t0.elapsed().as_secs_f64())
}

fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn metrics_json(metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", fmt_num(*v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let runq0 = procfs::runq_wait_ns();
    let mut tr = Tracer::new(args.trace);
    let (out, wall_s) = run_rounds(w, args.seed, args.seconds, &mut tr);
    let runq_ms = (procfs::runq_wait_ns() - runq0) as f64 / 1e6;
    let rounds = &out.rounds;
    let per_round =
        |f: &dyn Fn(&outcome::Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let positional = |f: &dyn Fn(&outcome::Round) -> &[f64]| {
        positional_min_sum(&rounds.iter().map(f).collect::<Vec<_>>())
    };
    let run_s = positional(&|r| &r.laps);
    let event_s = positional(&|r| &r.phases);
    let e2e = vec![
        ("setup_s", "s", per_round(&|r| r.setup_s)),
        ("event_s", "s", event_s),
        ("run_s", "s", run_s),
        ("peak_rss_mb", "MB", procfs::peak_rss_mb()),
    ];
    let specific = w.specific(&out);
    let minor_faults: u64 = rounds
        .iter()
        .map(|r| r.layers.get("mem.minor_faults").copied().unwrap_or(0.0) as u64)
        .sum();
    let mut layers: Vec<(&str, &str, f64)> = LAYER_METRICS
        .iter()
        .map(|&(n, u)| {
            let layer = |r: &outcome::Round, k: &str| r.layers.get(k).copied().unwrap_or(0.0);
            let v = if n == "netsim.events_per_s" {
                per_round(&|r| layer(r, "netsim.events") / r.event_s.max(f64::MIN_POSITIVE))
            } else {
                per_round(&|r| layer(r, n))
            };
            (n, u, v)
        })
        .collect();
    layers.push(("host.runq_wait_ms", "ms", runq_ms));

    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let untraced_path = dir.join(format!("{}.json", w.name()));
    // What a traced run must share with the untraced results file for the
    // difference of their `run_s` to be a tracing overhead.
    let identity = format!(
        "\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"build\": \"{}\"",
        w.name(),
        args.seed,
        args.seconds,
        build_id()
    );
    let common = format!(
        "{identity}, \"wall_s\": {}, \"rounds\": {}, \"attempted\": {}, \"failed\": {}",
        fmt_num(wall_s),
        rounds.len(),
        out.attempted,
        out.failed
    );
    let metrics = if args.trace {
        let totals = tr.totals();
        let top_s = tr.top_level_ns() as f64 / 1e9;
        let rounds_s: f64 = rounds.iter().map(|r| r.run_s).sum();
        let coverage = if rounds_s > 0.0 {
            top_s / rounds_s
        } else {
            0.0
        };
        let untraced_run_s = std::fs::read_to_string(&untraced_path)
            .ok()
            .filter(|t| t.starts_with(&format!("{{{identity},")))
            .and_then(|t| json_number_after(&t, "\"run_s\": {\"value\": "));
        let mut spans = String::new();
        for (name, t) in &totals {
            let _ = write!(
                spans,
                "{}\"{name}\": {{\"count\": {}, \"total_ms\": {}, \"self_ms\": {}}}",
                if spans.is_empty() { "" } else { ", " },
                t.count,
                fmt_num(t.total_ns as f64 / 1e6),
                fmt_num(t.self_ns as f64 / 1e6)
            );
        }
        let overhead = untraced_run_s.map_or("null".to_string(), |u| {
            format!(
                "{{\"untraced_run_s\": {}, \"traced_run_s\": {}, \"overhead_s\": {}}}",
                fmt_num(u),
                fmt_num(run_s),
                fmt_num(run_s - u)
            )
        });
        let file = format!(
            "{{{common}, \"per_layer\": {}, \"span_self_time\": {{{spans}}}, \"top_level_coverage\": {}, \"tracing_overhead\": {overhead}}}\n",
            metrics_json(&layers),
            fmt_num(coverage)
        );
        write_file(&dir.join(format!("{}.trace.json", w.name())), &file)?;
        let mut jsonl = String::new();
        tr.write_jsonl(&mut jsonl);
        write_file(&dir.join(format!("{}.spans.jsonl", w.name())), &jsonl)?;
        eprintln!(
            "{}: top-level spans cover {:.1}% of the rounds' wall time",
            w.name(),
            coverage * 100.0
        );
        layers
    } else {
        let mut all = e2e.clone();
        all.extend(specific.iter().copied());
        let file = format!(
            "{{{common}, \"metrics\": {}, \"host.runq_wait_ms\": {}, \"mem.minor_faults\": {minor_faults}}}\n",
            metrics_json(&all),
            fmt_num(runq_ms)
        );
        write_file(&untraced_path, &file)?;
        e2e
    };

    eprintln!(
        "{}: seed {} · {} rounds in {:.2} s · {} ops, {} failed · runq wait {:.1} ms · {} minor faults",
        w.name(),
        args.seed,
        rounds.len(),
        wall_s,
        out.attempted,
        out.failed,
        runq_ms,
        minor_faults
    );
    for (i, r) in rounds.iter().enumerate() {
        eprintln!(
            "  round {i}: setup_s {:.4} event_s {:.4} run_s {:.4}",
            r.setup_s, r.event_s, r.run_s
        );
    }
    for (n, u, v) in specific.iter().chain(metrics.iter()) {
        eprintln!("  {n:<32} {v:>14.4} {u}");
    }
    for f in &out.failures {
        eprintln!("  FAILED: {f}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics_json(&metrics)
    );
    Ok(())
}

fn write_file(path: &std::path::Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The number following `key` in a results file written by this program.
fn json_number_after(text: &str, key: &str) -> Option<f64> {
    let rest = &text[text.find(key)? + key.len()..];
    let end = rest.find(|c: char| !(c.is_ascii_digit() || "-+.eE".contains(c)))?;
    rest[..end].parse().ok()
}

/// Run every workload for one round at its reference seed and compare the
/// simulated outputs with the committed digest, or rewrite it.
fn digest(write: bool) -> Result<(), String> {
    let mut mismatched = Vec::new();
    for w in Workload::ALL {
        let mut out = Outcome::default();
        w.round(w.reference_seed(), false, &mut Tracer::new(false), &mut out);
        if out.failed > 0 {
            return Err(format!(
                "{}: {} operations failed: {:?}",
                w.name(),
                out.failed,
                out.failures
            ));
        }
        let text: String = out.digest.iter().map(|l| format!("{l}\n")).collect();
        let path = reference_path(w);
        if write {
            write_file(&path, &text)?;
            eprintln!(
                "{}: wrote {} lines to {}",
                w.name(),
                out.digest.len(),
                path.display()
            );
            continue;
        }
        let reference = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let diff: Vec<(usize, &str, &str)> = reference
            .lines()
            .zip(text.lines())
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, (a, b))| (i + 1, a, b))
            .collect();
        if diff.is_empty() && reference.lines().count() == text.lines().count() {
            eprintln!("{}: digest matches ({} phases)", w.name(), out.digest.len());
        } else {
            eprintln!(
                "{}: digest differs ({} reference lines, {} now)",
                w.name(),
                reference.lines().count(),
                text.lines().count()
            );
            for (line, a, b) in diff.iter().take(5) {
                eprintln!("  line {line}\n    reference {a}\n    now       {b}");
            }
            mismatched.push(w.name());
        }
    }
    if mismatched.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "simulated outputs differ from the reference: {}",
            mismatched.join(", ")
        ))
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("digest") => match &argv[1..] {
            [] => digest(false),
            [flag] if flag == "--write" => digest(true),
            _ => Err("usage: e2ebench digest [--write]".into()),
        },
        _ => parse_args(&argv).and_then(|a| run(&a)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
