//! End-to-end campaign benchmark.
//!
//! ```text
//! cargo run --release --manifest-path campaignbench/Cargo.toml -- \
//!     --workload small-jobs --seed 1 --seconds 26 --trace 0
//! ```
//!
//! One process runs one workload. With `--trace 0` it repeats the
//! workload for `--seconds` and prints the end-to-end metrics; with
//! `--trace 1` it runs the workload once untraced and once as a replay
//! through each layer's public calls, and prints the per-layer metrics.
//! The last line of standard output is the JSON result. See README.md
//! for why each workload exists and what each layer should move.

mod campaign;
mod host;
mod spans;
mod triage;

use campaign::{Reference, Traced, WORKERS};
use host::{median, percentile, ratio, Metric};
use rtlcov_campaign::{run_campaign, CampaignConfig};
use rtlcov_core::instrument::Instrumented;
use rtlcov_core::json::{self, Json};
use rtlcov_core::CoverageMap;
use rtlcov_db::CoverageDb;
use spans::{Spans, LAYERS};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-up samples taken before the first repetition.
const SETUP_REPEATS: usize = 5;
/// Set-up samples taken before each repetition, so `setup_s`, the median
/// of all samples, samples the whole run.
const SETUP_PER_REP: usize = 3;
/// Back-to-back set-ups in one sample. One set-up takes only 4–11 ms, so
/// a sample of one is at the mercy of a single scheduler hiccup.
const SETUP_PASSES: usize = 8;
/// Fewest timed repetitions a run makes, however long they take.
const MIN_REPS: usize = 3;
/// Counts each workload must reproduce exactly.
const EXPECTED: &str = include_str!("../expected.json");

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The benchmark's set-up: instrument every design of the workload.
/// Each sample times [`SETUP_PASSES`] set-ups and keeps their mean;
/// every set-up must produce the same artifacts.
struct SetUp {
    designs: BTreeMap<String, Instrumented>,
    times: Vec<f64>,
    repeats: bool,
}

impl SetUp {
    fn new(config: &CampaignConfig) -> Self {
        let mut setup = SetUp {
            designs: BTreeMap::new(),
            times: Vec::new(),
            repeats: true,
        };
        for _ in 0..SETUP_REPEATS {
            setup.again(config);
        }
        setup
    }

    fn again(&mut self, config: &CampaignConfig) {
        let mut busy = Duration::ZERO;
        for _ in 0..SETUP_PASSES {
            let start = Instant::now();
            let designs = campaign::instrument(config, &mut Spans::default());
            busy += start.elapsed();
            if !self.designs.is_empty() {
                self.repeats &= designs
                    .iter()
                    .all(|(d, i)| self.designs[d].artifacts == i.artifacts);
            }
            self.designs = designs;
        }
        self.times.push(busy.as_secs_f64() / SETUP_PASSES as f64);
    }
}

/// Exact-repeat counts of one repetition.
type Counts = BTreeMap<&'static str, u64>;

/// One untraced repetition of a workload.
struct Rep {
    wall: Duration,
    /// Per-operation latencies (`db-triage` loop only).
    latencies_ms: Vec<f64>,
    attempted: u64,
    ok: u64,
    per_design: BTreeMap<String, CoverageMap>,
    counts: Counts,
    /// Counts that depend on the order the campaign commits runs in,
    /// which follows worker completion order.
    order_counts: Counts,
}

fn coverage_counts(per_design: &BTreeMap<String, CoverageMap>, counts: &mut Counts) {
    let points = per_design.values().map(|m| m.len() as u64).sum();
    let covered = per_design.values().map(|m| m.covered() as u64).sum();
    counts.insert("cover_points", points);
    counts.insert("covered_points", covered);
}

fn manifest_bytes(db_dir: &Path) -> u64 {
    std::fs::metadata(db_dir.join("MANIFEST.json")).map_or(0, |m| m.len())
}

/// Run the workload once, untraced: the `run_campaign` call, and for
/// `db-triage` the campaign into a fresh database plus the request loop.
fn untraced_rep(
    config: &CampaignConfig,
    reference: &Reference,
    plan: Option<&triage::Plan>,
    tag: &str,
) -> Rep {
    let mut counts = Counts::new();
    let mut order_counts = Counts::new();
    let Some(plan) = plan else {
        let start = Instant::now();
        let result = run_campaign(config).expect("campaign starts");
        let wall = start.elapsed();
        counts.insert("jobs", result.outcomes.len() as u64);
        coverage_counts(&result.per_design, &mut counts);
        return Rep {
            wall,
            latencies_ms: Vec::new(),
            attempted: reference.jobs,
            ok: campaign::verified_jobs(&result, reference),
            per_design: result.per_design,
            counts,
            order_counts,
        };
    };
    let dir = campaign::fresh_dir(tag);
    let db_dir = dir.join("db");
    let config = CampaignConfig {
        db_dir: Some(db_dir.clone()),
        ..config.clone()
    };
    let start = Instant::now();
    let result = run_campaign(&config).expect("campaign starts");
    let run = triage::run_loop(&db_dir, plan, None);
    let wall = start.elapsed();
    let ok = campaign::verified_jobs(&result, reference) + triage::verified_ops(plan, &run);
    counts.insert("jobs", result.outcomes.len() as u64);
    coverage_counts(&result.per_design, &mut counts);
    counts.insert("db_runs_after_campaign", run.runs_at_open);
    counts.insert("db_runs", run.runs_at_end);
    order_counts.insert("manifest_bytes", manifest_bytes(&db_dir));
    order_counts.insert("memo_hits", run.memo.0);
    order_counts.insert("memo_misses", run.memo.1);
    let _ = std::fs::remove_dir_all(&dir);
    Rep {
        wall,
        latencies_ms: run.latencies_ms,
        attempted: reference.jobs + triage::OPS as u64,
        ok,
        per_design: result.per_design,
        counts,
        order_counts,
    }
}

/// Whether `counts` agree with the workload's pinned counts.
fn matches_expected(workload: &str, counts: &Counts) -> bool {
    let expected = json::parse(EXPECTED).expect("expected.json parses");
    let Some(Json::Object(want)) = expected.get(workload) else {
        return false;
    };
    want.iter()
        .all(|(name, value)| counts.get(name.as_str()).copied() == value.as_u64())
}

fn counts_json(counts: &Counts) -> String {
    let body: Vec<String> = counts
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    ok: u64,
    counts_ok: bool,
}

fn end_to_end(
    args: &Args,
    config: &CampaignConfig,
    reference: &Reference,
    plan: Option<&triage::Plan>,
    setup: &mut SetUp,
) -> Outcome {
    // the reference, the plan and the first set-ups are built by now:
    // keep their allocations out of `peak_rss_mb`
    let rss_reset = host::reset_peak_rss();
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        for _ in 0..SETUP_PER_REP {
            setup.again(config);
        }
        reps.push(untraced_rep(
            config,
            reference,
            plan,
            &format!("rep{}", reps.len()),
        ));
        let elapsed = start.elapsed().as_secs_f64();
        let per_rep = elapsed / reps.len() as f64;
        if reps.len() >= MIN_REPS && elapsed + per_rep / 2.0 > args.seconds {
            break;
        }
    }
    let walls: Vec<f64> = reps.iter().map(|r| r.wall.as_secs_f64()).collect();
    let wall_s = median(&walls);
    // campaign workloads: one operation is one `run_campaign` call
    let latencies: Vec<f64> = if plan.is_some() {
        reps.iter()
            .flat_map(|r| r.latencies_ms.iter().copied())
            .collect()
    } else {
        walls.iter().map(|w| w * 1e3).collect()
    };
    // The mean, not the median: this machine's speed flips between two
    // modes for seconds at a time, and a median of a two-mode mixture
    // jumps between them as the mix shifts, while the mean moves with it.
    let mean = latencies.iter().sum::<f64>() / latencies.len() as f64;
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let ok: u64 = reps.iter().map(|r| r.ok).sum();
    let mut counts = reps[0].counts.clone();
    counts.insert("cycles", reference.cycles);
    let repeat = reps.iter().all(|r| r.counts == reps[0].counts);
    let counts_ok = repeat && matches_expected(&args.workload, &counts);
    println!("# reps {} wall_s {:?}", reps.len(), walls);
    println!("# setup_s samples {:?}", setup.times);
    println!("# peak_rss reset before the repetitions: {rss_reset}");
    let quantiles: Vec<String> = [0.1f64, 0.25, 0.5, 0.75, 0.85, 0.9, 0.95, 0.99]
        .iter()
        .map(|q| format!("p{}={:.2}", (q * 100.0).round(), percentile(&latencies, *q)))
        .collect();
    println!(
        "# latency samples {} ms {}",
        latencies.len(),
        quantiles.join(" ")
    );
    println!(
        "# counts {} repeat={repeat} expected={counts_ok}",
        counts_json(&counts)
    );
    for (i, r) in reps.iter().enumerate() {
        if !r.order_counts.is_empty() {
            println!(
                "# rep {i} commit-order counts {}",
                counts_json(&r.order_counts)
            );
        }
    }
    Outcome {
        metrics: vec![
            Metric::new("setup_s", median(&setup.times), "s"),
            Metric::new("wall_s", wall_s, "s"),
            Metric::new("cycles_per_s", reference.cycles as f64 / wall_s, "1/s"),
            Metric::new("latency_mean_ms", mean, "ms"),
            Metric::new("latency_p90_ms", percentile(&latencies, 0.9), "ms"),
            Metric::new("peak_rss_mb", host::peak_rss_mb(), "MiB"),
            Metric::new("ok_ratio", ok as f64 / attempted.max(1) as f64, "ratio"),
        ],
        attempted,
        ok,
        counts_ok,
    }
}

fn traced(
    args: &Args,
    config: &CampaignConfig,
    reference: &Reference,
    plan: Option<&triage::Plan>,
) -> Outcome {
    let untraced = untraced_rep(config, reference, plan, "untraced");
    let start = Instant::now();
    let (traced, memo) = match plan {
        None => (campaign::traced_replay(config, reference, None), None),
        Some(plan) => {
            let dir = campaign::fresh_dir("traced");
            let db_dir = dir.join("db");
            let mut db = CoverageDb::open(&db_dir).expect("open the traced database");
            let mut traced = campaign::traced_replay(config, reference, Some(&mut db));
            let run = triage::run_loop(&db_dir, plan, Some(&mut traced.spans));
            traced.attempted += triage::OPS as u64;
            traced.ok += triage::verified_ops(plan, &run);
            traced.wall = start.elapsed();
            let bytes = manifest_bytes(&db_dir);
            let _ = std::fs::remove_dir_all(&dir);
            (traced, Some((run.memo, run.runs_at_end, bytes)))
        }
    };
    let Traced {
        spans,
        wall,
        per_design,
        attempted,
        ok,
        sim_cycles,
        scan_cycles,
        cover_points,
        partition_activity,
    } = traced;
    // the replay must merge to exactly what the untraced campaign merged
    let same_merge = per_design == untraced.per_design;
    let total_busy = spans.layer_busy_s();
    let mut metrics = Vec::new();
    println!(
        "# {:<18} {:>8} {:>10} {:>7}",
        "layer", "calls", "busy_s", "share"
    );
    for layer in LAYERS {
        let (calls, busy) = (spans.calls(layer), spans.busy_s(layer));
        let share = ratio(busy, total_busy);
        println!("# {layer:<18} {calls:>8} {busy:>10.4} {share:>7.3}");
        metrics.push(Metric::new(format!("{layer}.calls"), calls as f64, "count"));
        metrics.push(Metric::new(format!("{layer}.busy_s"), busy, "s"));
        metrics.push(Metric::new(format!("{layer}.share"), share, "ratio"));
    }
    for endpoint in triage::ENDPOINTS {
        let name = format!("db.query.{}", triage::endpoint_tag(endpoint));
        println!(
            "#   {name:<24} {:>6} {:>10.4}",
            spans.calls(&name),
            spans.busy_s(&name)
        );
        metrics.push(Metric::new(
            format!("{name}.busy_s"),
            spans.busy_s(&name),
            "s",
        ));
    }
    let run_busy_ns = spans.busy_s("sim.run") * 1e9;
    let ((memo_hits, memo_misses), db_runs, bytes) = memo.unwrap_or(((0, 0), 0, 0));
    let untraced_wall = untraced.wall.as_secs_f64();
    let extras = [
        ("core.instrument.cover_points", cover_points as f64, "count"),
        (
            "sim.run.ns_per_cycle",
            ratio(run_busy_ns, sim_cycles as f64),
            "ns",
        ),
        (
            "sim.run.partition_activity",
            partition_activity.unwrap_or(0.0),
            "ratio",
        ),
        ("fpga.scan.cycles", scan_cycles as f64, "count"),
        (
            "campaign.parallel_efficiency",
            total_busy / (untraced_wall * WORKERS as f64),
            "ratio",
        ),
        ("db.ingest.manifest_bytes", bytes as f64, "bytes"),
        (
            "db.memo.hit_ratio",
            ratio(memo_hits as f64, (memo_hits + memo_misses) as f64),
            "ratio",
        ),
        (
            "trace.overhead",
            wall.as_secs_f64() / untraced_wall,
            "ratio",
        ),
        ("count.jobs", reference.jobs as f64, "count"),
        ("count.cycles", reference.cycles as f64, "count"),
        (
            "count.cover_points",
            untraced.counts["cover_points"] as f64,
            "count",
        ),
        (
            "count.covered_points",
            untraced.counts["covered_points"] as f64,
            "count",
        ),
        ("count.db_runs", db_runs as f64, "count"),
        ("count.memo_hits", memo_hits as f64, "count"),
        ("count.memo_misses", memo_misses as f64, "count"),
    ];
    for (name, value, unit) in extras {
        println!("# {name} = {value}");
        metrics.push(Metric::new(name, value, unit));
    }
    println!("# traced merge equals untraced merge: {same_merge}");
    let mut counts = untraced.counts.clone();
    counts.insert("cycles", reference.cycles);
    Outcome {
        metrics,
        attempted: attempted + untraced.attempted,
        ok: ok + untraced.ok,
        counts_ok: same_merge && matches_expected(&args.workload, &counts),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("campaignbench: {e}");
            eprintln!("usage: campaignbench --workload NAME --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let Some(config) = campaign::config(&args.workload) else {
        eprintln!("campaignbench: unknown workload `{}`", args.workload);
        std::process::exit(2);
    };
    println!("# machine {}", host::fingerprint());
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace
    );
    let calibration_start = host::calibrate();

    let mut setup = SetUp::new(&config);

    let is_db = args.workload == "db-triage";
    let reference = campaign::reference(
        &config,
        &setup.designs,
        is_db || args.workload == "fpga-scan",
    );
    let plan = is_db.then(|| {
        triage::plan(
            args.seed,
            &config,
            &reference,
            triage::ingest_maps(&config, &setup.designs),
        )
    });

    let outcome = if args.trace {
        traced(&args, &config, &reference, plan.as_ref())
    } else {
        end_to_end(&args, &config, &reference, plan.as_ref(), &mut setup)
    };
    let _ = std::fs::remove_dir(campaign::SCRATCH_DIR);
    println!(
        "# calibration_s start {calibration_start:.4} end {:.4} (diagnostic only)",
        host::calibrate()
    );
    let failed = outcome.attempted - outcome.ok.min(outcome.attempted);
    let correct = failed == 0 && outcome.counts_ok && setup.repeats;
    println!(
        "{}",
        host::result_line(outcome.attempted, failed, correct, &outcome.metrics)
    );
}
