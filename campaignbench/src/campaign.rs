//! The campaign workloads, the reference they are checked against, and
//! the traced replay that attributes their time to layers.

use crate::spans::Spans;
use rtlcov_campaign::{
    job_list, Backend, CampaignConfig, CampaignResult, JobOutcome, JobSpec, MergeTree,
};
use rtlcov_core::instrument::{CoverageCompiler, Instrumented, Metrics};
use rtlcov_core::CoverageMap;
use rtlcov_db::{CoverageDb, RunKey};
use rtlcov_designs::workloads::{campaign_workload, Workload};
use rtlcov_fpga::FpgaBackend;
use rtlcov_sim::essent::{EssentOptions, EssentSim};
use rtlcov_sim::{SimBuildOptions, SimKind, Simulator};
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The six designs whose jobs are short.
pub const SMALL_DESIGNS: [&str; 6] = ["gcd", "queue", "tlram", "serv", "neuroproc", "i2c"];
/// Every campaign design, riscv-mini included.
const ALL_DESIGNS: [&str; 7] = [
    "gcd",
    "queue",
    "tlram",
    "serv",
    "neuroproc",
    "i2c",
    "riscv-mini",
];
/// Worker threads for every workload.
pub const WORKERS: usize = 2;
/// The database label of the campaign's own runs in `db-triage`.
pub const CAMPAIGN_LABEL: &str = "campaign";

const SOFTWARE: [Backend; 2] = [
    Backend::Sim(SimKind::Compiled),
    Backend::Sim(SimKind::Essent),
];

/// The campaign a workload runs. Only the fields the benchmark relies on
/// are set; `db_dir` is filled in per repetition for `db-triage`.
pub fn config(workload: &str) -> Option<CampaignConfig> {
    let (designs, backends, shards, scale): (&[&str], Vec<Backend>, u64, usize) = match workload {
        "small-jobs" => (&SMALL_DESIGNS, SOFTWARE.to_vec(), 384, 1),
        "long-jobs" => (&ALL_DESIGNS, SOFTWARE.to_vec(), 8, 16),
        "fpga-scan" => (&ALL_DESIGNS, vec![Backend::Fpga], 2, 1),
        "db-triage" => (&SMALL_DESIGNS, SOFTWARE.to_vec(), 24, 1),
        _ => return None,
    };
    Some(CampaignConfig {
        designs: designs.iter().map(|d| d.to_string()).collect(),
        backends,
        metrics: Metrics::all(),
        shards,
        scale,
        workers: WORKERS,
        db_dir: None,
        db_label: CAMPAIGN_LABEL.into(),
        ..CampaignConfig::default()
    })
}

/// Instrument every design of the campaign, the way the runner does
/// before its first job. This is the benchmark's set-up step.
pub fn instrument(config: &CampaignConfig, spans: &mut Spans) -> BTreeMap<String, Instrumented> {
    config
        .designs
        .iter()
        .map(|design| {
            let workload = spans.time("designs.stimulus", || {
                campaign_workload(design, 0, 1).expect("campaign design has a workload")
            });
            let instrumented = spans.time("core.instrument", || {
                CoverageCompiler::new(config.metrics)
                    .run(workload.circuit)
                    .expect("campaign designs instrument")
            });
            (design.clone(), instrumented)
        })
        .collect()
}

fn load_and_replay(workload: &Workload, sim: &mut dyn Simulator) {
    if let Some((imem, dmem, program)) = &workload.program {
        program
            .load(sim, imem, dmem)
            .expect("program fits in memory");
    }
    for values in &workload.trace.values {
        for (name, value) in workload.trace.inputs.iter().zip(values) {
            sim.poke(name, *value);
        }
        sim.step();
    }
}

/// The database key the runner commits a campaign job under.
pub fn run_key(job: &JobSpec) -> RunKey {
    RunKey {
        design: job.design.clone(),
        workload: format!("s{}", job.shard),
        backend: job.backend.name().to_string(),
        label: CAMPAIGN_LABEL.to_string(),
    }
}

/// What a campaign must produce, computed serially on the compiled
/// simulator with plain `CoverageMap::merge` — not through the runner,
/// its worker pool or its merge tree.
pub struct Reference {
    /// Expected merged map per design.
    pub per_design: BTreeMap<String, CoverageMap>,
    /// Compiled map per `(design, shard)`, kept when asked for.
    pub per_job: HashMap<(String, u64), CoverageMap>,
    /// Jobs the campaign schedules.
    pub jobs: u64,
    /// Simulated target cycles over every job (trace cycles).
    pub cycles: u64,
}

/// Replay `(design, shard)` on the compiled simulator.
pub fn compiled_map(
    instrumented: &Instrumented,
    design: &str,
    shard: u64,
    scale: usize,
) -> (CoverageMap, u64) {
    let workload = campaign_workload(design, shard, scale).expect("campaign design has a workload");
    let mut sim = SimKind::Compiled
        .build_with(&instrumented.circuit, &SimBuildOptions::default())
        .expect("compiled simulator builds");
    (workload.run(&mut *sim), workload.trace.cycles() as u64)
}

/// One reference thread's share: merged maps per design, the per-job
/// maps it kept, and the trace cycles it replayed.
type ReferencePart = (
    BTreeMap<String, CoverageMap>,
    Vec<((String, u64), CoverageMap)>,
    u64,
);

/// Compute the reference on [`WORKERS`] threads of the benchmark's own.
pub fn reference(
    config: &CampaignConfig,
    instrumented: &BTreeMap<String, Instrumented>,
    keep_jobs: bool,
) -> Reference {
    let pairs: Vec<(String, u64)> = config
        .designs
        .iter()
        .flat_map(|d| (0..config.shards).map(move |s| (d.clone(), s)))
        .collect();
    let next = AtomicUsize::new(0);
    let parts: Vec<ReferencePart> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|_| {
                scope.spawn(|| {
                    let mut merged: BTreeMap<String, CoverageMap> = BTreeMap::new();
                    let mut kept = Vec::new();
                    let mut cycles = 0;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some((design, shard)) = pairs.get(i) else {
                            break;
                        };
                        let (map, n) =
                            compiled_map(&instrumented[design], design, *shard, config.scale);
                        cycles += n;
                        merged.entry(design.clone()).or_default().merge(&map);
                        if keep_jobs {
                            kept.push(((design.clone(), *shard), map));
                        }
                    }
                    (merged, kept, cycles)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });
    let mut shard_merged: BTreeMap<String, CoverageMap> = BTreeMap::new();
    let mut per_job = HashMap::new();
    let mut shard_cycles = 0;
    for (merged, kept, cycles) in parts {
        for (design, map) in merged {
            shard_merged.entry(design).or_default().merge(&map);
        }
        per_job.extend(kept);
        shard_cycles += cycles;
    }
    // every backend replays the same shards and must produce the same map
    let per_design = shard_merged
        .into_iter()
        .map(|(design, map)| {
            let mut all = CoverageMap::new();
            for _ in &config.backends {
                all.merge(&map);
            }
            (design, all)
        })
        .collect();
    Reference {
        per_design,
        per_job,
        jobs: job_list(config).len() as u64,
        cycles: shard_cycles * config.backends.len() as u64,
    }
}

/// Jobs of a finished campaign that count as verified: the job completed
/// on the backend it asked for (a degraded job is not OK) and its
/// design's merged map equals the reference.
pub fn verified_jobs(result: &CampaignResult, reference: &Reference) -> u64 {
    result
        .outcomes
        .iter()
        .filter(|(job, outcome)| {
            *outcome == JobOutcome::Completed
                && result.per_design.get(&job.design) == reference.per_design.get(&job.design)
        })
        .count() as u64
}

/// What one traced job hands back to the coordinating thread.
struct JobResult {
    index: usize,
    map: CoverageMap,
    cycles: u64,
    scan_cycles: u64,
    /// Essent partition activity, weighted later by cycles.
    activity: Option<f64>,
}

fn traced_job(
    index: usize,
    job: &JobSpec,
    config: &CampaignConfig,
    instrumented: &Instrumented,
    spans: &mut Spans,
) -> JobResult {
    let workload = spans.time("designs.stimulus", || {
        campaign_workload(&job.design, job.shard, config.scale)
            .expect("campaign design has a workload")
    });
    let cycles = workload.trace.cycles() as u64;
    let circuit = &instrumented.circuit;
    let mut result = JobResult {
        index,
        map: CoverageMap::new(),
        cycles,
        scan_cycles: 0,
        activity: None,
    };
    match job.backend {
        Backend::Sim(SimKind::Essent) => {
            // built directly so the partition activity stays readable;
            // this is what `SimKind::Essent.build_with` builds with
            // default options
            let mut sim = spans.time("sim.build", || {
                EssentSim::new_with(circuit, &EssentOptions::default()).expect("essent builds")
            });
            result.map = spans.time("sim.run", || workload.run(&mut sim));
            result.activity = sim.partition_activity();
        }
        Backend::Sim(kind) => {
            let mut sim = spans.time("sim.build", || {
                kind.build_with(circuit, &SimBuildOptions::default())
                    .expect("simulator builds")
            });
            result.map = spans.time("sim.run", || workload.run(&mut *sim));
        }
        Backend::Fpga => {
            let mut fpga = spans.time("fpga.build", || {
                FpgaBackend::with_default_width(circuit).expect("fpga flow builds")
            });
            spans.time("fpga.run", || load_and_replay(&workload, &mut fpga));
            result.map = spans.time("fpga.scan", || fpga.cover_counts());
            result.scan_cycles = fpga.scan_cycles();
        }
        Backend::Formal => unreachable!("no workload schedules formal"),
    }
    result
}

/// Everything the traced replay measured.
pub struct Traced {
    pub spans: Spans,
    pub wall: Duration,
    pub per_design: BTreeMap<String, CoverageMap>,
    /// Jobs replayed and jobs whose per-job check passed.
    pub attempted: u64,
    pub ok: u64,
    pub sim_cycles: u64,
    pub scan_cycles: u64,
    pub cover_points: u64,
    /// Cycle-weighted essent partition activity (`None` without essent).
    pub partition_activity: Option<f64>,
}

/// Replay the campaign's jobs through each layer's public calls on
/// [`WORKERS`] threads, with this thread merging as the runner's
/// coordinator does. With `db`, every map is also ingested, in job
/// order so the database's content repeats exactly.
pub fn traced_replay(
    config: &CampaignConfig,
    reference: &Reference,
    mut db: Option<&mut CoverageDb>,
) -> Traced {
    let start = Instant::now();
    let mut spans = Spans::default();
    let instrumented = instrument(config, &mut spans);
    let cover_points = instrumented
        .values()
        .map(|i| i.artifacts.cover_count() as u64)
        .sum();
    let jobs = job_list(config);
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<JobResult>();
    let mut trees: BTreeMap<String, MergeTree> = BTreeMap::new();
    // per-job check outcome; `None` until the job (and its pair) arrived
    let mut checked: Vec<Option<bool>> = vec![None; jobs.len()];
    let mut waiting_pair: HashMap<(String, u64), (usize, CoverageMap)> = HashMap::new();
    let mut in_order: BTreeMap<usize, CoverageMap> = BTreeMap::new();
    let mut next_ingest = 0;
    let mut ingest_failures = 0u64;
    let (mut sim_cycles, mut scan_cycles) = (0u64, 0u64);
    let (mut activity_sum, mut activity_cycles) = (0.0f64, 0u64);

    let worker_spans: Vec<Spans> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|_| {
                let tx = tx.clone();
                let (jobs, next, instrumented) = (&jobs, &next, &instrumented);
                scope.spawn(move || {
                    let mut spans = Spans::default();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(index) else {
                            break;
                        };
                        let result =
                            traced_job(index, job, config, &instrumented[&job.design], &mut spans);
                        if tx.send(result).is_err() {
                            break;
                        }
                    }
                    spans
                })
            })
            .collect();
        drop(tx);
        for result in rx.iter() {
            let job = &jobs[result.index];
            let key = (job.design.clone(), job.shard);
            // per-job checks: compiled equals essent for the same shard,
            // and the fpga flow equals the compiled reference
            match job.backend {
                Backend::Fpga => {
                    checked[result.index] = Some(reference.per_job.get(&key) == Some(&result.map));
                }
                _ => match waiting_pair.remove(&key) {
                    Some((other_index, other)) => {
                        let same = other == result.map;
                        checked[result.index] = Some(same);
                        checked[other_index] = Some(same);
                    }
                    None => {
                        waiting_pair.insert(key, (result.index, result.map.clone()));
                    }
                },
            }
            if matches!(job.backend, Backend::Sim(_)) {
                sim_cycles += result.cycles;
            }
            scan_cycles += result.scan_cycles;
            if let Some(activity) = result.activity {
                activity_sum += activity * result.cycles as f64;
                activity_cycles += result.cycles;
            }
            if let Some(db) = db.as_deref_mut() {
                in_order.insert(result.index, result.map.clone());
                while let Some(map) = in_order.remove(&next_ingest) {
                    let key = run_key(&jobs[next_ingest]);
                    if spans.time("db.ingest", || db.ingest(&key, &map)).is_err() {
                        ingest_failures += 1;
                    }
                    next_ingest += 1;
                }
            }
            let tree = trees.entry(job.design.clone()).or_default();
            spans.time("campaign.merge", || tree.insert(result.map));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("traced worker panicked"))
            .collect()
    });
    let per_design: BTreeMap<String, CoverageMap> = trees
        .iter()
        .map(|(design, tree)| {
            (
                design.clone(),
                spans.time("campaign.merge", || tree.merged()),
            )
        })
        .collect();
    for worker in worker_spans {
        spans.absorb(worker);
    }
    Traced {
        wall: start.elapsed(),
        spans,
        per_design,
        attempted: jobs.len() as u64,
        ok: (checked.iter().filter(|c| **c == Some(true)).count() as u64)
            .saturating_sub(ingest_failures),
        sim_cycles,
        scan_cycles,
        cover_points,
        partition_activity: (activity_cycles > 0).then(|| activity_sum / activity_cycles as f64),
    }
}

/// Where repetitions keep their scratch databases, under the working
/// directory: the benchmark writes nowhere outside its checkout.
pub const SCRATCH_DIR: &str = ".bench_tmp";

/// A fresh directory for one repetition, inside [`SCRATCH_DIR`].
pub fn fresh_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(SCRATCH_DIR).join(format!("{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the repetition's temp directory");
    dir
}
