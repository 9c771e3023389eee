//! `db-triage` phase 2: one closed-loop client against a coverage
//! database that a campaign just filled, served in-process through
//! `CoverageDb::refresh` plus `http::respond`, with ingests of new runs
//! under fresh labels mixed in so reads run beside writes.

use crate::campaign::{run_key, Reference, CAMPAIGN_LABEL, SMALL_DESIGNS};
use crate::host::Rng;
use crate::spans::Spans;
use rtlcov_campaign::{job_list, CampaignConfig, MergeTree};
use rtlcov_core::instrument::Instrumented;
use rtlcov_core::json::{self, Json};
use rtlcov_core::CoverageMap;
use rtlcov_db::{http, CoverageDb, RunKey};
use rtlcov_designs::workloads::campaign_workload;
use rtlcov_sim::{SimBuildOptions, SimKind};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Operations in one loop.
pub const OPS: usize = 96;
/// Every `INGEST_EVERY`-th operation is an ingest, at fixed positions and
/// with fixed content, so the database grows the same way for every seed.
const INGEST_EVERY: usize = 16;
/// Ingest operations in one loop; each commits a compiled and an essent run.
const INGESTS: usize = OPS / INGEST_EVERY;

/// A run filter, both as request parameters and as a predicate.
#[derive(Debug, Clone, Default)]
struct Sel {
    design: Option<&'static str>,
    backend: Option<&'static str>,
    label: Option<&'static str>,
}

impl Sel {
    fn params(&self, prefix: &str) -> Vec<String> {
        let fields = [
            ("design", self.design),
            ("backend", self.backend),
            ("label", self.label),
        ];
        fields
            .iter()
            .filter_map(|(k, v)| v.map(|v| format!("{prefix}{k}={v}")))
            .collect()
    }

    fn matches(&self, key: &RunKey) -> bool {
        self.design.is_none_or(|d| d == key.design)
            && self.backend.is_none_or(|b| b == key.backend)
            && self.label.is_none_or(|l| l == key.label)
    }
}

/// What a read must return, checked after the loop.
#[derive(Debug, Clone)]
enum Read {
    Health,
    Runs(Sel),
    Query(Sel),
    Holes(Sel),
    Point(Sel, String),
    /// `a.backend=compiled` against `b.backend=essent`: must be empty.
    Diff(Option<&'static str>),
    Rollup(Sel),
}

impl Read {
    fn endpoint(&self) -> &'static str {
        match self {
            Read::Health => "/health",
            Read::Runs(_) => "/v1/runs",
            Read::Query(_) => "/v1/query",
            Read::Holes(_) => "/v1/holes",
            Read::Point(..) => "/v1/point",
            Read::Diff(_) => "/v1/diff",
            Read::Rollup(_) => "/v1/rollup",
        }
    }

    fn query_string(&self) -> String {
        let params = match self {
            Read::Health => Vec::new(),
            Read::Runs(s) | Read::Query(s) | Read::Holes(s) | Read::Rollup(s) => s.params(""),
            Read::Point(s, name) => {
                let mut p = s.params("");
                p.push(format!("name={}", percent_encode(name)));
                p
            }
            Read::Diff(design) => {
                let a = Sel {
                    design: *design,
                    backend: Some("compiled"),
                    label: None,
                };
                let b = Sel {
                    design: *design,
                    backend: Some("essent"),
                    label: None,
                };
                let mut p = a.params("a.");
                p.extend(b.params("b."));
                p
            }
        };
        params.join("&")
    }
}

fn percent_encode(s: &str) -> String {
    s.bytes()
        .map(|b| {
            if b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-' {
                (b as char).to_string()
            } else {
                format!("%{b:02X}")
            }
        })
        .collect()
}

/// One new `(design, shard)` committed on both software backends.
pub struct IngestSet {
    design: &'static str,
    shard: u64,
    label: String,
    /// The compiled replay, which is also the expected content of both runs.
    compiled: Arc<CoverageMap>,
    essent: CoverageMap,
}

/// Seeded read mix plus the fixed ingest schedule.
pub struct Plan {
    reads: Vec<Option<Read>>,
    ingests: Vec<IngestSet>,
    /// Runs the phase-1 campaign commits, with their expected maps.
    campaign_runs: Vec<(RunKey, Arc<CoverageMap>)>,
}

/// Build the plan. Ingest content comes from shards the campaign does not
/// run, replayed on the compiled simulator; the seed picks only the reads.
pub fn plan(
    seed: u64,
    config: &CampaignConfig,
    reference: &Reference,
    ingest_maps: Vec<(CoverageMap, CoverageMap)>,
) -> Plan {
    let campaign_runs = job_list(config)
        .into_iter()
        .map(|job| {
            let map = reference.per_job[&(job.design.clone(), job.shard)].clone();
            (run_key(&job), Arc::new(map))
        })
        .collect();
    let ingests = ingest_maps
        .into_iter()
        .enumerate()
        .map(|(k, (compiled, essent))| {
            let (design, shard) = ingest_job(config, k);
            IngestSet {
                design,
                shard,
                label: format!("triage-{k}"),
                compiled: Arc::new(compiled),
                essent,
            }
        })
        .collect();
    let mut rng = Rng::new(seed);
    let pick_sel = |rng: &mut Rng| {
        let design = Some(SMALL_DESIGNS[rng.below(SMALL_DESIGNS.len())]);
        match rng.below(5) {
            0 => Sel::default(),
            1 => Sel {
                design,
                ..Sel::default()
            },
            2 => Sel {
                design,
                backend: Some(["compiled", "essent"][rng.below(2)]),
                label: None,
            },
            3 => Sel {
                label: Some(CAMPAIGN_LABEL),
                ..Sel::default()
            },
            _ => Sel {
                design,
                backend: None,
                label: Some(CAMPAIGN_LABEL),
            },
        }
    };
    let reads = (0..OPS)
        .map(|i| {
            if i % INGEST_EVERY == INGEST_EVERY - 1 {
                return None;
            }
            // weights: query 3, every other endpoint 1
            Some(match rng.below(9) {
                0 => Read::Health,
                1 => Read::Runs(pick_sel(&mut rng)),
                2..=4 => Read::Query(pick_sel(&mut rng)),
                5 => Read::Holes(pick_sel(&mut rng)),
                6 => {
                    let design = SMALL_DESIGNS[rng.below(SMALL_DESIGNS.len())];
                    let names: Vec<&str> = reference.per_design[design]
                        .iter()
                        .map(|(n, _)| n)
                        .collect();
                    let name = names[rng.below(names.len())].to_string();
                    Read::Point(
                        Sel {
                            design: Some(design),
                            ..Sel::default()
                        },
                        name,
                    )
                }
                7 => Read::Diff(
                    (rng.below(2) == 0).then(|| SMALL_DESIGNS[rng.below(SMALL_DESIGNS.len())]),
                ),
                _ => Read::Rollup(pick_sel(&mut rng)),
            })
        })
        .collect();
    Plan {
        reads,
        ingests,
        campaign_runs,
    }
}

/// The `(design, shard)` of ingest `k`: shards past the campaign's own.
fn ingest_job(config: &CampaignConfig, k: usize) -> (&'static str, u64) {
    let design = SMALL_DESIGNS[k % SMALL_DESIGNS.len()];
    (design, config.shards + (k / SMALL_DESIGNS.len()) as u64)
}

/// What the loop did, kept for checking after the timed part.
pub struct LoopRun {
    /// Runs committed when the loop opened the database, and at its end.
    pub runs_at_open: u64,
    pub runs_at_end: u64,
    pub latencies_ms: Vec<f64>,
    outcomes: Vec<Outcome>,
    pub memo: (u64, u64),
}

/// How one operation ended.
enum Outcome {
    /// Whether both runs committed as new runs.
    Ingest(bool),
    Read(u16, String),
}

fn ingest_keys(set: &IngestSet) -> [RunKey; 2] {
    ["compiled", "essent"].map(|backend| RunKey {
        design: set.design.to_string(),
        workload: format!("s{}", set.shard),
        backend: backend.to_string(),
        label: set.label.clone(),
    })
}

/// Run the loop against the database at `dir`: a serving instance
/// refreshes before every request, a second instance ingests.
pub fn run_loop(dir: &Path, plan: &Plan, mut spans: Option<&mut Spans>) -> LoopRun {
    let mut server = CoverageDb::open(dir).expect("open the serving database");
    let mut writer = CoverageDb::open(dir).expect("open the ingesting database");
    let runs_at_open = server.runs().len() as u64;
    let mut latencies_ms = Vec::with_capacity(OPS);
    let mut outcomes = Vec::with_capacity(OPS);
    let mut ingested = 0;
    for read in &plan.reads {
        let op_start = Instant::now();
        match read {
            None => {
                let set = &plan.ingests[ingested];
                ingested += 1;
                let mut fresh = true;
                for (key, map) in ingest_keys(set).iter().zip([&*set.compiled, &set.essent]) {
                    let t = Instant::now();
                    let committed = writer.ingest(key, map);
                    if let Some(spans) = spans.as_deref_mut() {
                        spans.charge("db.ingest", t.elapsed());
                    }
                    fresh &= matches!(committed, Ok(outcome) if !outcome.deduplicated);
                }
                outcomes.push(Outcome::Ingest(fresh));
            }
            Some(read) => {
                let refreshed = server.refresh();
                let refresh_done = Instant::now();
                let (status, body) = match refreshed {
                    Ok(_) => http::respond(&server, "GET", read.endpoint(), &read.query_string()),
                    Err(e) => (500, e.to_string()),
                };
                if let Some(spans) = spans.as_deref_mut() {
                    spans.charge("db.refresh", refresh_done - op_start);
                    let respond = refresh_done.elapsed();
                    spans.charge("db.query", respond);
                    spans.charge(
                        &format!("db.query.{}", endpoint_tag(read.endpoint())),
                        respond,
                    );
                }
                outcomes.push(Outcome::Read(status, body));
            }
        }
        latencies_ms.push(op_start.elapsed().as_secs_f64() * 1e3);
    }
    let runs_at_end = writer.runs().len() as u64;
    LoopRun {
        runs_at_open,
        runs_at_end,
        latencies_ms,
        outcomes,
        memo: server.memo_stats(),
    }
}

/// `/v1/query` → `v1_query`, `/health` → `health`.
pub fn endpoint_tag(endpoint: &str) -> String {
    endpoint.trim_start_matches('/').replace('/', "_")
}

/// Endpoint tags in report order.
pub const ENDPOINTS: [&str; 7] = [
    "/health",
    "/v1/runs",
    "/v1/query",
    "/v1/holes",
    "/v1/point",
    "/v1/diff",
    "/v1/rollup",
];

fn expected_merge(runs: &[(RunKey, Arc<CoverageMap>)], sel: &Sel) -> (usize, CoverageMap) {
    let mut tree = MergeTree::new();
    for (_, map) in runs.iter().filter(|(k, _)| sel.matches(k)) {
        tree.insert((**map).clone());
    }
    (tree.len(), tree.merged())
}

fn check_read(read: &Read, status: u16, body: &str, runs: &[(RunKey, Arc<CoverageMap>)]) -> bool {
    if status != 200 {
        return false;
    }
    let Ok(doc) = json::parse(body) else {
        return false;
    };
    match read {
        Read::Health => doc.get("runs").and_then(Json::as_u64) == Some(runs.len() as u64),
        Read::Runs(sel) => {
            let want = runs.iter().filter(|(k, _)| sel.matches(k)).count();
            doc.get("runs").and_then(Json::as_array).map(<[Json]>::len) == Some(want)
        }
        Read::Query(sel) => {
            let (selected, want) = expected_merge(runs, sel);
            let counts = doc.get("counts").and_then(Json::as_object);
            doc.get("selected")
                .and_then(Json::as_array)
                .map(<[Json]>::len)
                == Some(selected)
                && counts.is_some_and(|c| {
                    c.len() == want.len()
                        && want
                            .iter()
                            .all(|(n, v)| c.get(n).and_then(Json::as_u64) == Some(v))
                })
        }
        Read::Holes(sel) => {
            let (_, want) = expected_merge(runs, sel);
            let want: Vec<&str> = want
                .iter()
                .filter(|(_, c)| *c == 0)
                .map(|(n, _)| n)
                .collect();
            let got: Option<Vec<&str>> = doc
                .get("holes")
                .and_then(Json::as_array)
                .map(|h| h.iter().filter_map(Json::as_str).collect());
            got.is_some_and(|mut g| {
                g.sort_unstable();
                g == want
            })
        }
        Read::Point(sel, name) => {
            let (_, want) = expected_merge(runs, sel);
            doc.get("count").and_then(Json::as_u64) == want.count(name)
        }
        Read::Diff(_) => doc
            .get("diff")
            .and_then(Json::as_array)
            .is_some_and(<[Json]>::is_empty),
        Read::Rollup(_) => doc.get("rollup").and_then(Json::as_object).is_some(),
    }
}

/// Operations of the loop whose outputs verified: every response is a
/// 200 whose content matches the runs committed before it, and every
/// ingest committed a new run.
pub fn verified_ops(plan: &Plan, run: &LoopRun) -> u64 {
    let mut runs = plan.campaign_runs.clone();
    let mut ingested = 0;
    let mut ok = 0;
    for (read, outcome) in plan.reads.iter().zip(&run.outcomes) {
        match (read, outcome) {
            (None, Outcome::Ingest(fresh)) => {
                let set = &plan.ingests[ingested];
                ingested += 1;
                runs.extend(ingest_keys(set).map(|k| (k, Arc::clone(&set.compiled))));
                ok += u64::from(*fresh);
            }
            (Some(read), Outcome::Read(status, body)) => {
                ok += u64::from(check_read(read, *status, body, &runs));
            }
            _ => {}
        }
    }
    ok
}

/// Compiled and essent maps for every ingest of the loop, replayed on the
/// benchmark's own simulators.
pub fn ingest_maps(
    config: &CampaignConfig,
    instrumented: &BTreeMap<String, Instrumented>,
) -> Vec<(CoverageMap, CoverageMap)> {
    (0..INGESTS)
        .map(|k| {
            let (design, shard) = ingest_job(config, k);
            let circuit = &instrumented[design].circuit;
            let workload = campaign_workload(design, shard, config.scale)
                .expect("campaign design has a workload");
            let [compiled, essent] = [SimKind::Compiled, SimKind::Essent].map(|kind| {
                let mut sim = kind
                    .build_with(circuit, &SimBuildOptions::default())
                    .expect("simulator builds");
                workload.run(&mut *sim)
            });
            (compiled, essent)
        })
        .collect()
}
