//! One benchmark run: set-up samples, the timed passes, the output
//! check and the metrics.
//!
//! Load is a closed loop with one client: each query starts when the
//! previous one returns. Each query runs on a `jobs = nproc` pass and
//! then on a `jobs = 1` pass, and its outcome digest must match between
//! them. A traced run adds a third pass, at `jobs = 1` on a counting
//! cost model with the derived layer calls beside each query, whose
//! digests must match the untraced ones too. Each pass has its own
//! program state, built by its own set-up.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use npu_maestro::CostModel;

use crate::model::CountingModel;
use crate::workload::{
    derive_layers, Counts, Layers, Outcome, Queries, Query, Setup, Size, Workload,
};

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measuring time of the run, in seconds.
    pub seconds: f64,
    /// Collect the per-layer split instead of the end-to-end metrics.
    pub trace: bool,
    /// Workers for the parallel pass.
    pub jobs: usize,
    /// Input sizes.
    pub size: Size,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Every query passed the output check and matched across passes.
    pub correct: bool,
    /// Query executions attempted over the timed passes.
    pub attempted: u64,
    /// Executions that panicked, failed the check or mismatched.
    pub failed: u64,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines: counts, tail rank, failures.
    pub log: Vec<String>,
}

impl Report {
    /// The contract's one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// Samples a percentile must leave beyond it to count as the tail.
const TAIL_BEYOND: usize = 10;

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// One pass: the program state for the pass, warmed by one untimed
/// query, then timed queries.
struct TimedPass<'a> {
    setup: &'a Setup,
    model: &'a dyn CostModel,
    jobs: usize,
    record: Record,
}

impl<'a> TimedPass<'a> {
    fn open(setup: &'a Setup, model: &'a dyn CostModel, jobs: usize, warmup: &Query) -> Self {
        let mut p = TimedPass {
            setup,
            model,
            jobs,
            record: Record::default(),
        };
        let _ = p.execute(warmup);
        p
    }

    fn execute(&mut self, q: &Query) -> (Result<Outcome, String>, f64) {
        let (r, secs) = timed(|| {
            catch_unwind(AssertUnwindSafe(|| {
                npu_par::with_jobs(self.jobs, || self.setup.run(self.model, q))
            }))
        });
        let r = r.unwrap_or_else(|panic| {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            Err(format!("panic: {msg}"))
        });
        (r, secs)
    }

    fn run(&mut self, q: &Query) {
        let (r, secs) = self.execute(q);
        self.record.latencies.push(secs);
        self.record.results.push(r);
    }
}

/// Set-ups timed before each query; `setup_s` is the median of all.
const SETUPS_PER_QUERY: usize = 8;

/// Host seconds of [`SETUPS_PER_QUERY`] set-ups, each building the
/// program state a pass is built from. One untimed set-up goes first:
/// the first allocations after a query pay for the allocator state the
/// query left behind, which is not set-up work.
fn setup_samples(workload: Workload, size: Size) -> impl Iterator<Item = f64> {
    black_box(Setup::new(workload, size));
    (0..SETUPS_PER_QUERY).map(move |_| timed(|| black_box(Setup::new(workload, size))).1)
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail: the highest-ranked sample with at least [`TAIL_BEYOND`]
/// samples above it, as `(value, 1-based rank)`; the maximum when the
/// sample is too small to have one.
pub fn tail(xs: &[f64]) -> (f64, usize) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = v.len().saturating_sub(TAIL_BEYOND).max(1);
    (v[rank - 1], rank)
}

/// Host peak resident memory of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

struct Tally {
    attempted: u64,
    failed: u64,
    log: Vec<String>,
}

impl Tally {
    /// Counts a pass's executions; `reference` holds the outcome each
    /// query must reproduce bit for bit.
    fn pass(
        &mut self,
        name: &str,
        queries: &[Query],
        results: &[Result<Outcome, String>],
        reference: Option<&[Result<Outcome, String>]>,
    ) {
        for (i, r) in results.iter().enumerate() {
            self.attempted += 1;
            let error = match (r, reference.map(|rs| &rs[i])) {
                (Err(e), _) => Some(e.clone()),
                (Ok(o), Some(Ok(want))) if o.digest != want.digest => {
                    Some("outcome differs from the reference pass".to_string())
                }
                _ => None,
            };
            if let Some(e) = error {
                self.failed += 1;
                if self.log.len() < 20 {
                    self.log.push(format!(
                        "FAILED {name} query {i} ({}): {e}",
                        query_label(&queries[i])
                    ));
                }
            }
        }
    }
}

fn query_label(q: &Query) -> String {
    match q {
        Query::Dse(s) => s.name.clone(),
        Query::Drive(d) => d.name.clone(),
        Query::Fleet(f) => format!("{} vehicles on geometry {}", f.fleet.len(), f.geometry),
    }
}

fn counts(results: &[Result<Outcome, String>]) -> Counts {
    let mut c = Counts::default();
    for o in results.iter().flatten() {
        c.add(&o.counts);
    }
    c
}

/// One pass's record: per-query latency and checked outcome.
#[derive(Default)]
struct Record {
    latencies: Vec<f64>,
    results: Vec<Result<Outcome, String>>,
}

impl Record {
    fn seconds(&self) -> f64 {
        self.latencies.iter().sum()
    }

    /// Queries per host second over the whole run. Every block offers
    /// the same mix of work, and the run holds whole blocks only.
    fn rate(&self) -> f64 {
        self.latencies.len() as f64 / self.seconds()
    }
}

/// The passes of one run over one query list.
struct Passes {
    queries: Vec<Query>,
    /// Set-up times, sampled before each query's passes.
    setups: Vec<f64>,
    blocks: usize,
    parallel: Record,
    serial: Record,
    /// The traced pass and what was measured beside it.
    traced: Option<(Record, Layers, u64, f64)>,
}

/// Runs whole query blocks until `cfg.seconds` are spent, each query on
/// the `jobs = nproc` pass, then on the `jobs = 1` pass, then (traced
/// runs) on the traced pass with its derived layer calls. Interleaving
/// query by query exposes every pass to the same machine conditions.
fn run_passes(cfg: &Config) -> Passes {
    let mut stream = Queries::new(cfg.workload, cfg.seed, cfg.size);
    let mut queries = stream.next_block();
    let setups = [(); 3].map(|_| Setup::new(cfg.workload, cfg.size));
    let counting = CountingModel::new(&setups[2].model);
    let mut parallel = TimedPass::open(&setups[0], &setups[0].model, cfg.jobs, &queries[0]);
    let mut serial = TimedPass::open(&setups[1], &setups[1].model, 1, &queries[0]);
    let mut traced = cfg
        .trace
        .then(|| TimedPass::open(&setups[2], &counting, 1, &queries[0]));
    let (calls0, busy0) = (counting.calls(), counting.busy_s());
    let mut layers = Layers::default();
    let mut setups_s = Vec::new();
    let started = Instant::now();
    let mut blocks = 0;
    let mut next = 0;
    loop {
        for q in &queries[next..] {
            // Sampled across the whole run, so the median sees the same
            // machine conditions as the queries.
            setups_s.extend(setup_samples(cfg.workload, cfg.size));
            parallel.run(q);
            serial.run(q);
            if let Some(t) = &mut traced {
                t.run(q);
                if let Some(Ok(o)) = serial.record.results.last() {
                    layers.add(&derive_layers(&setups[2], q, o, &setups[2].model));
                }
            }
        }
        blocks += 1;
        // Whole blocks only, so every run offers the same mix; stop at
        // the block boundary nearest the budget.
        let spent = started.elapsed().as_secs_f64();
        if spent + 0.5 * spent / blocks as f64 >= cfg.seconds {
            break;
        }
        next = queries.len();
        queries.extend(stream.next_block());
    }
    Passes {
        queries,
        setups: setups_s,
        blocks,
        parallel: parallel.record,
        serial: serial.record,
        traced: traced.map(|t| {
            (
                t.record,
                layers,
                counting.calls() - calls0,
                counting.busy_s() - busy0,
            )
        }),
    }
}

/// Runs the benchmark.
pub fn run(cfg: &Config) -> Report {
    let passes = run_passes(cfg);
    let (queries, par, ser) = (&passes.queries, &passes.parallel, &passes.serial);

    let mut tally = Tally {
        attempted: 0,
        failed: 0,
        log: Vec::new(),
    };
    tally.pass("parallel", queries, &par.results, None);
    tally.pass("serial", queries, &ser.results, Some(&par.results));

    let n = queries.len();
    let block_len = n / passes.blocks;
    let mut log = vec![
        format!(
            "workload={} seed={} jobs={} queries={n} blocks={}",
            cfg.workload.name(),
            cfg.seed,
            cfg.jobs,
            passes.blocks
        ),
        format!(
            "block seconds (parallel/serial): {}",
            par.latencies
                .chunks(block_len)
                .zip(ser.latencies.chunks(block_len))
                .map(|(p, s)| format!("{:.2}/{:.2}", p.iter().sum::<f64>(), s.iter().sum::<f64>()))
                .collect::<Vec<_>>()
                .join(" ")
        ),
        format!(
            "counts first block: {}",
            counts(&par.results[..block_len]).render()
        ),
        format!("counts all queries: {}", counts(&par.results).render()),
    ];

    let metrics = match &passes.traced {
        Some((traced, layers, calls, busy)) => {
            tally.pass("traced", queries, &traced.results, Some(&ser.results));
            traced_metrics(cfg, &passes, traced, layers, (*calls, *busy), &mut log)
        }
        None => {
            let (tail_s, rank) = tail(&par.latencies);
            log.push(format!(
                "query_tail_ms is rank {rank} of {n} samples (p{:.1})",
                100.0 * rank as f64 / n as f64
            ));
            vec![
                metric("setup_s", median(&passes.setups), "s"),
                metric("queries_per_s", par.rate(), "1/s"),
                metric("query_p50_ms", median(&par.latencies) * 1e3, "ms"),
                metric("query_tail_ms", tail_s * 1e3, "ms"),
                metric("serial_queries_per_s", ser.rate(), "1/s"),
                metric("peak_rss_mb", peak_rss_mb(), "MB"),
            ]
        }
    };
    let defects = crate::check::known_defects();
    if defects > 0 {
        log.push(format!(
            "known defect, not counted as a failure: {defects} cut-off preemption epochs report a busy fraction above 1"
        ));
    }
    log.append(&mut tally.log);
    Report {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        log,
    }
}

/// The per-layer metrics of a traced run.
fn traced_metrics(
    cfg: &Config,
    passes: &Passes,
    traced: &Record,
    layers: &Layers,
    (maestro_calls, maestro_busy_s): (u64, f64),
    log: &mut Vec<String>,
) -> Vec<Metric> {
    let ser = &passes.serial;
    let host_s = ser.seconds();
    let par_s = passes.parallel.seconds();
    let c = counts(&ser.results);
    let (pack_s, preempt_s) = ser
        .results
        .iter()
        .flatten()
        .fold((0.0, 0.0), |(a, b), o| (a + o.pack_s, b + o.preempt_s));
    let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
    let share = |x: f64| x / host_s;
    log.push(format!(
        "derived layer split of {host_s:.3} host s: match {:.1}%, flatten {:.1}%, rematch {:.1}%, des {:.1}%, tenant des {:.1}%, compile {:.1}%, self {:.1}%",
        100.0 * share(layers.match_busy_s),
        100.0 * share(layers.flatten_busy_s),
        100.0 * share(layers.rematch_busy_s),
        100.0 * share(layers.des_busy_s),
        100.0 * share(layers.tenant_busy_s),
        100.0 * share(layers.compile_busy_s),
        100.0 * share(host_s - layers.children_s()),
    ));
    log.push(format!(
        "derived counts: match_calls={} match_steps={} flatten_items={} rematch_calls={} des_frames={} tenant_frames={}",
        layers.match_calls, layers.match_steps, layers.flatten_items, layers.rematch_calls, layers.des_frames, layers.tenant_frames
    ));
    vec![
        metric("maestro.calls", maestro_calls as f64, "count"),
        metric("maestro.busy_s", maestro_busy_s, "s"),
        metric("sched.match_calls", layers.match_calls as f64, "count"),
        metric("sched.match_steps", layers.match_steps as f64, "count"),
        metric("sched.match_busy_s", layers.match_busy_s, "s"),
        metric("sched.match_share", share(layers.match_busy_s), "frac"),
        metric(
            "sched.us_per_step",
            1e6 * per(layers.match_busy_s, layers.match_steps),
            "us",
        ),
        metric("sched.flatten_items", layers.flatten_items as f64, "count"),
        metric("sched.flatten_busy_s", layers.flatten_busy_s, "s"),
        metric("sched.rematch_calls", layers.rematch_calls as f64, "count"),
        metric("sched.rematch_busy_s", layers.rematch_busy_s, "s"),
        metric("pipesim.frames", layers.des_frames as f64, "count"),
        metric("pipesim.busy_s", layers.des_busy_s, "s"),
        metric(
            "pipesim.share",
            share(layers.des_busy_s + layers.tenant_busy_s),
            "frac",
        ),
        metric(
            "pipesim.us_per_frame",
            1e6 * per(layers.des_busy_s, layers.des_frames),
            "us",
        ),
        metric(
            "pipesim.peak_in_flight",
            layers.des_peak_in_flight as f64,
            "count",
        ),
        metric(
            "pipesim.tenant_frames",
            layers.tenant_frames as f64,
            "count",
        ),
        metric("pipesim.tenant_busy_s", layers.tenant_busy_s, "s"),
        metric("fleet.admitted", c.admitted as f64, "count"),
        metric("fleet.reject_capacity", c.reject_capacity as f64, "count"),
        metric("fleet.reject_analytic", c.reject_analytic as f64, "count"),
        metric("fleet.reject_des", c.reject_des as f64, "count"),
        metric("fleet.pack_busy_s", pack_s, "s"),
        metric("fleet.preempt_busy_s", preempt_s, "s"),
        metric("fleet.compile_busy_s", layers.compile_busy_s, "s"),
        metric("scenario.self_s", host_s - layers.children_s(), "s"),
        metric("scenario.dropped", c.dropped as f64, "count"),
        metric("scenario.flushed", c.flushed as f64, "count"),
        metric(
            "par.idle_frac",
            1.0 - host_s / (cfg.jobs as f64 * par_s),
            "frac",
        ),
        metric("trace.host_s", host_s, "s"),
        metric(
            "trace.overhead_frac",
            traced.seconds() / host_s - 1.0,
            "frac",
        ),
    ]
}
