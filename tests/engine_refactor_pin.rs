//! Refactor pin for the DES engine.
//!
//! The engine (bounded in-flight frame pool, lazy arrival cursor, dense
//! chiplet state, streamed report) must be **bit-identical in every
//! observable statistic** to the old materialize-everything engine. This
//! suite keeps an in-test reference implementation of the old
//! O(frames × items) algorithm, generalized to K arrival streams on one
//! calendar, and pins all three entry points against it, comparing each
//! `SimReport` field — including the tail percentiles — by bit pattern:
//!
//! - `simulate` over all seven built-in scenario families, at `--jobs 1`
//!   and `--jobs 8`;
//! - `simulate_tenants` on contended and disjoint 2–3-tenant co-runs of
//!   the 721-item perception schedule;
//! - `simulate_phases` and `simulate_tenants` under make-before-break
//!   per-chiplet gates and boundary cutoffs.
//!
//! A million-frame saturated smoke then pins the memory bound: the run
//! completes with a handful of pool slots, not a slot per frame.

use std::collections::{BTreeMap, BinaryHeap};

use npu_dnn::PerceptionConfig;
use npu_maestro::FittedMaestro;
use npu_mcm::{ChipletId, McmPackage};
use npu_pipesim::{
    simulate, simulate_phases, simulate_tenants, simulate_with_stats, Arrivals, LatencyQuantiles,
    PhaseReport, Quantiles, Readiness, SimConfig, SimPhase, SimReport,
};
use npu_scenario::{match_scenario, Scenario, SWEEP_FRAMES};
use npu_sched::{
    flatten_items, LayerPlan, MatcherConfig, ModelPlan, Schedule, SimItem, StagePlan,
    ThroughputMatcher,
};
use npu_tensor::{Dtype, Seconds};

/// Raw outcome of the reference pass for one stream: exactly what the
/// old engine materialized.
struct RefRun {
    arrivals: Vec<f64>,
    completions: Vec<f64>,
    /// Busy seconds of every chiplet the stream's schedule uses (total
    /// over all streams: a shared chiplet is busy whoever it serves).
    busy: BTreeMap<ChipletId, f64>,
}

/// Job priority of the reference: global arrival rank `g` (position in
/// the (time, stream, frame) merge), then global item id.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct RefJob {
    g: usize,
    item: usize,
}

enum RefEvent {
    Arrival(usize),
    Done { chiplet: ChipletId, job: RefJob },
}

/// The old engine, verbatim in structure and generalized to K
/// streams sharing one calendar: all arrivals heaped upfront in global
/// (time, stream, frame) order (seq order = merge order, below every
/// completion seq), a per-frame O(items) dependency-counter table,
/// `BTreeMap`-keyed chiplet state, and full arrival/completion vectors.
/// Item ids are stream-offset into one global table; a frame's jobs
/// order by its global arrival rank, then item.
fn reference_run(streams: &[(&[SimItem], &[f64])]) -> Vec<RefRun> {
    let mut offsets = Vec::with_capacity(streams.len());
    let mut items: Vec<&SimItem> = Vec::new();
    for (its, _) in streams {
        offsets.push(items.len());
        items.extend(its.iter());
    }
    let n_items = items.len();
    let stream_of_item: Vec<usize> = streams
        .iter()
        .enumerate()
        .flat_map(|(k, (its, _))| std::iter::repeat_n(k, its.len()))
        .collect();

    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n_items];
    for (k, (its, _)) in streams.iter().enumerate() {
        for (i, item) in its.iter().enumerate() {
            for &d in &item.deps {
                dependents[offsets[k] + d].push(offsets[k] + i);
            }
        }
    }

    // Global arrival order: (time, stream, frame).
    let mut merged: Vec<(f64, usize, usize)> = streams
        .iter()
        .enumerate()
        .flat_map(|(k, (_, ts))| ts.iter().enumerate().map(move |(f, &t)| (t, k, f)))
        .collect();
    merged.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));

    let mut deps_left: Vec<Vec<usize>> = merged
        .iter()
        .map(|_| items.iter().map(|it| it.deps.len()).collect())
        .collect();
    let mut remaining: Vec<usize> = merged.iter().map(|&(_, k, _)| streams[k].0.len()).collect();

    let mut ready: BTreeMap<ChipletId, BinaryHeap<std::cmp::Reverse<RefJob>>> = BTreeMap::new();
    let mut busy_until: BTreeMap<ChipletId, f64> = BTreeMap::new();
    let mut busy_time: BTreeMap<ChipletId, f64> = BTreeMap::new();
    for item in &items {
        ready.entry(item.chiplet).or_default();
        busy_time.entry(item.chiplet).or_insert(0.0);
    }

    let mut heap: BinaryHeap<std::cmp::Reverse<(u64, u64, usize)>> = BinaryHeap::new();
    // Events are stored out-of-band so the heap key stays `Ord`:
    // (time bits via total order, seq, event index).
    let mut events: Vec<RefEvent> = Vec::new();
    let mut seq = 0u64;
    let key = |t: f64, seq: u64, idx: usize| {
        // f64 total-order bits: flip sign bit for positives, all bits
        // for negatives — same order as `total_cmp`.
        let b = t.to_bits();
        let ord = if b >> 63 == 0 { b | (1 << 63) } else { !b };
        std::cmp::Reverse((ord, seq, idx))
    };
    let mut event_time: Vec<f64> = Vec::new();
    for (g, &(t, _, _)) in merged.iter().enumerate() {
        seq += 1;
        events.push(RefEvent::Arrival(g));
        event_time.push(t);
        heap.push(key(t, seq, events.len() - 1));
    }

    let mut runs: Vec<RefRun> = streams
        .iter()
        .map(|(_, ts)| RefRun {
            arrivals: vec![0.0; ts.len()],
            completions: vec![f64::NAN; ts.len()],
            busy: BTreeMap::new(),
        })
        .collect();

    macro_rules! dispatch {
        ($chiplet:expr, $now:expr) => {{
            let c = $chiplet;
            let now = $now;
            if busy_until.get(&c).copied().unwrap_or(0.0) <= now {
                if let Some(std::cmp::Reverse(job)) = ready.get_mut(&c).and_then(|q| q.pop()) {
                    let dur = items[job.item].duration.as_secs();
                    busy_until.insert(c, now + dur);
                    *busy_time.get_mut(&c).unwrap() += dur;
                    seq += 1;
                    events.push(RefEvent::Done { chiplet: c, job });
                    event_time.push(now + dur);
                    heap.push(key(now + dur, seq, events.len() - 1));
                }
            }
        }};
    }
    macro_rules! enqueue {
        ($job:expr, $now:expr) => {{
            let job: RefJob = $job;
            let c = items[job.item].chiplet;
            ready.get_mut(&c).unwrap().push(std::cmp::Reverse(job));
            dispatch!(c, $now);
        }};
    }

    while let Some(std::cmp::Reverse((_, _, idx))) = heap.pop() {
        let time = event_time[idx];
        match events[idx] {
            RefEvent::Arrival(g) => {
                let (_, k, f) = merged[g];
                runs[k].arrivals[f] = time;
                let off = offsets[k];
                for (i, item) in streams[k].0.iter().enumerate() {
                    if item.deps.is_empty() {
                        enqueue!(RefJob { g, item: off + i }, time);
                    }
                }
            }
            RefEvent::Done { chiplet, job } => {
                remaining[job.g] -= 1;
                if remaining[job.g] == 0 {
                    let (_, k, f) = merged[job.g];
                    runs[k].completions[f] = time;
                }
                let off = offsets[stream_of_item[job.item]];
                for &succ in &dependents[job.item] {
                    deps_left[job.g][succ - off] -= 1;
                    if deps_left[job.g][succ - off] == 0 {
                        enqueue!(
                            RefJob {
                                g: job.g,
                                item: succ,
                            },
                            time
                        );
                    }
                }
                dispatch!(chiplet, time);
            }
        }
    }

    assert!(remaining.iter().all(|&r| r == 0), "all frames completed");
    for (run, (its, _)) in runs.iter_mut().zip(streams) {
        run.busy = its
            .iter()
            .map(|it| (it.chiplet, busy_time[&it.chiplet]))
            .collect();
    }
    runs
}

/// The make-before-break admission gate, recomputed independently: the
/// longest dependency path into each item, the earliest wavefront offset
/// per chiplet, and `max(ready[c] - offset[c])` clamped to the switch
/// instant.
fn reference_gate(items: &[SimItem], readiness: &Readiness) -> f64 {
    let (at, ready) = match readiness {
        Readiness::Barrier(t) => return *t,
        Readiness::PerChiplet { at, ready } => (*at, ready),
    };
    let mut est = vec![0.0_f64; items.len()];
    for i in 0..items.len() {
        est[i] = items[i]
            .deps
            .iter()
            .map(|&d| est[d] + items[d].duration.as_secs())
            .fold(0.0, f64::max);
    }
    let mut gate = at;
    for &(c, r) in ready {
        let offset = items
            .iter()
            .zip(&est)
            .filter(|(it, _)| it.chiplet == c)
            .map(|(_, &e)| e)
            .fold(f64::INFINITY, f64::min);
        if offset.is_finite() {
            gate = gate.max(r - offset);
        }
    }
    gate
}

/// Replays the old report math over the reference run and compares every
/// observable `SimReport` field to the engine's, bit for bit. Frames
/// completing past `cutoff` are flushed: they hold the span open to the
/// cutoff and feed no statistic. Busy fractions are compared only when
/// nothing was flushed — a flushed run's busy time is the subject of its
/// own regression tests.
fn assert_matches_reference(
    what: &str,
    rep: &SimReport,
    run: &RefRun,
    warmup: usize,
    cutoff: Option<f64>,
) -> usize {
    let n = run.completions.len();
    let bits = |v: f64| v.to_bits();
    if n == 0 {
        assert_eq!(rep.measured_frames, 0, "{what}: empty run measures nothing");
        assert_eq!(
            bits(rep.mean_latency.as_secs()),
            bits(0.0),
            "{what}: empty mean"
        );
        return 0;
    }
    let trim = warmup.min((n - 1) / 2);
    let (lo, hi) = (trim, n - trim);
    let lat = |i: usize| run.completions[i] - run.arrivals[i];
    let flushed_frame = |i: usize| cutoff.is_some_and(|c| run.completions[i] > c);

    let counted: Vec<usize> = (lo..hi).filter(|&i| !flushed_frame(i)).collect();
    let len = counted.len();
    let steady = match counted.as_slice() {
        [] => 0.0,
        [only] => lat(*only),
        [first, .., last] => (run.completions[*last] - run.completions[*first]) / (len - 1) as f64,
    };
    let mean: f64 = counted.iter().map(|&i| lat(i)).fold(0.0, |a, l| a + l) / len.max(1) as f64;
    let max: f64 = counted.iter().map(|&i| lat(i)).fold(0.0, f64::max);
    let mut sketch = Quantiles::new();
    for &i in &counted {
        sketch.insert(lat(i));
    }
    let tails = LatencyQuantiles::from_stream(&sketch);

    assert_eq!(rep.measured_frames, len, "{what}: measured_frames");
    assert_eq!(
        bits(rep.steady_interval.as_secs()),
        bits(steady),
        "{what}: steady_interval"
    );
    assert_eq!(
        bits(rep.mean_latency.as_secs()),
        bits(mean),
        "{what}: mean_latency"
    );
    assert_eq!(
        bits(rep.max_latency.as_secs()),
        bits(max),
        "{what}: max_latency"
    );
    for (label, got, want) in [
        ("p50", rep.tails.p50, tails.p50),
        ("p95", rep.tails.p95, tails.p95),
        ("p99", rep.tails.p99, tails.p99),
        ("p99.9", rep.tails.p999, tails.p999),
    ] {
        assert_eq!(
            bits(got.as_secs()),
            bits(want.as_secs()),
            "{what}: tail {label}"
        );
    }
    assert_eq!(
        bits(rep.throughput_fps),
        bits(if steady == 0.0 { 0.0 } else { 1.0 / steady }),
        "{what}: throughput"
    );
    let flushed = (0..n).filter(|&i| flushed_frame(i)).count();
    if flushed == 0 {
        let span = run.completions.iter().fold(0.0, |a, &c| f64::max(a, c)) - run.arrivals[0];
        for (&c, &b) in &run.busy {
            let want = if span > 0.0 { b / span } else { 0.0 };
            assert_eq!(
                bits(rep.busy_fraction(c).expect("chiplet hosted work")),
                bits(want),
                "{what}: busy fraction of {c:?}"
            );
        }
    }
    flushed
}

/// The reference outcome of K streams on one calendar: gate each stream
/// independently, run the served suffixes through the K-stream
/// reference, and replay the report math per stream against the
/// engine's `PhaseReport`s.
fn assert_streams_match_reference(
    what: &str,
    streams: &[SimPhase<'_>],
    reports: &[PhaseReport],
    pkg: &McmPackage,
    model: &FittedMaestro,
) {
    assert_eq!(
        reports.len(),
        streams.len(),
        "{what}: one report per stream"
    );
    let items: Vec<Vec<SimItem>> = streams
        .iter()
        .map(|s| flatten_items(s.schedule, pkg, model, Dtype::Fp16))
        .collect();
    let gates: Vec<f64> = streams
        .iter()
        .zip(&items)
        .map(|(s, its)| reference_gate(its, &s.readiness))
        .collect();
    let first_served: Vec<usize> = streams
        .iter()
        .zip(&gates)
        .map(|(s, &g)| s.times.partition_point(|&t| t < g))
        .collect();
    let served: Vec<(&[SimItem], &[f64])> = streams
        .iter()
        .zip(&items)
        .zip(&first_served)
        .map(|((s, its), &d)| (its.as_slice(), &s.times[d..]))
        .collect();
    let runs = reference_run(&served);
    for (k, ((s, rep), run)) in streams.iter().zip(reports).zip(&runs).enumerate() {
        let what = format!("{what} stream {k}");
        let warmup = s
            .warmup
            .unwrap_or_else(|| SimConfig::default_warmup(run.completions.len()));
        let flushed = assert_matches_reference(&what, &rep.report, run, warmup, s.cutoff);
        assert_eq!(rep.offered, s.times.len(), "{what}: offered");
        assert_eq!(rep.dropped, first_served[k], "{what}: dropped");
        assert_eq!(rep.flushed, flushed, "{what}: flushed");
        assert_eq!(
            rep.admitted_from.to_bits(),
            gates[k].to_bits(),
            "{what}: admitted_from"
        );
    }
}

/// Every built-in scenario family, matched and simulated on the paper's
/// 6×6 package, produces a bit-identical report from the rebuilt engine
/// — at one worker and at eight.
#[test]
fn all_scenario_families_pin_the_old_engine_bit_for_bit() {
    let model = FittedMaestro::new();
    let pkg = McmPackage::simba_6x6();
    for scenario in Scenario::builtin() {
        let outcome = match_scenario(&scenario, &pkg, &model);
        let cfg = scenario.sim_config(SWEEP_FRAMES);
        let items = flatten_items(&outcome.schedule, &pkg, &model, cfg.dtype);
        let times = cfg.arrivals.times(cfg.frames);
        let reference = reference_run(&[(&items, &times)]).remove(0);
        for jobs in [1, 8] {
            let rep = npu_par::with_jobs(jobs, || simulate(&outcome.schedule, &pkg, &model, &cfg));
            assert_matches_reference(
                &format!("{} (jobs {jobs})", scenario.name),
                &rep,
                &reference,
                cfg.warmup,
                None,
            );
        }
    }
}

/// The paper's perception workload matched onto the 6×6 package: the
/// 721-item schedule every artifact's DES actually runs.
fn perception_schedule(model: &FittedMaestro) -> Schedule {
    let pipeline = PerceptionConfig::default().build();
    ThroughputMatcher::new(model, MatcherConfig::default())
        .match_throughput(&pipeline, &McmPackage::simba_6x6())
        .schedule
}

/// Rebases a 6-wide schedule onto the 12×6 dual-NPU mesh, `dx` columns
/// to the right: the two halves are isometric, so `dx = 0` and `dx = 6`
/// give the same workload on disjoint chiplets.
fn on_dual_npu(schedule: &Schedule, dx: u32) -> Schedule {
    let map = |c: ChipletId| ChipletId((c.0 / 6) * 12 + c.0 % 6 + dx);
    let mut out = schedule.clone();
    for stage in &mut out.stages {
        for c in &mut stage.region {
            *c = map(*c);
        }
        for mp in &mut stage.models {
            for lp in &mut mp.layers {
                for shard in &mut lp.shards {
                    shard.chiplet = map(shard.chiplet);
                }
            }
        }
    }
    out
}

fn periodic(frames: usize, interval: f64, offset: f64) -> Vec<f64> {
    (0..frames).map(|f| offset + f as f64 * interval).collect()
}

/// Runs `streams` through `simulate_tenants` and pins every report
/// against the K-stream reference.
fn pin_tenants(
    what: &str,
    streams: &[SimPhase<'_>],
    pkg: &McmPackage,
    model: &FittedMaestro,
) -> Vec<PhaseReport> {
    let reports = simulate_tenants(streams, pkg, model, Dtype::Fp16);
    assert_streams_match_reference(what, streams, &reports, pkg, model);
    reports
}

/// Runs `phases` through `simulate_phases` and pins each phase's report
/// against a one-stream reference run of that phase alone.
fn pin_phases(
    what: &str,
    phases: &[SimPhase<'_>],
    pkg: &McmPackage,
    model: &FittedMaestro,
) -> Vec<PhaseReport> {
    let reports = simulate_phases(phases, pkg, model, Dtype::Fp16);
    assert_eq!(reports.len(), phases.len(), "{what}: one report per phase");
    for (i, (p, rep)) in phases.iter().zip(&reports).enumerate() {
        assert_streams_match_reference(
            &format!("{what} phase {i}"),
            std::slice::from_ref(p),
            std::slice::from_ref(rep),
            pkg,
            model,
        );
    }
    reports
}

/// Contended and disjoint co-runs of the 721-item perception schedule
/// match the K-stream reference bit for bit: tenants sharing every
/// chiplet interleave in global (arrival time, stream, frame) order, and
/// tenants on disjoint halves of the dual-NPU mesh behave as if alone.
#[test]
fn tenant_co_runs_pin_the_k_stream_reference() {
    let model = FittedMaestro::new();
    let simba = McmPackage::simba_6x6();
    let s = perception_schedule(&model);
    assert_eq!(
        flatten_items(&s, &simba, &model, Dtype::Fp16).len(),
        721,
        "the perception schedule"
    );
    // Contended: two and three tenants on the same 36 chiplets, with
    // coinciding, offset and bursty arrivals.
    let bursty = Arrivals::Bursty {
        period: Seconds::new(0.4),
        burst: 3,
        intra: Seconds::new(0.01),
    };
    pin_tenants(
        "contended x2",
        &[
            SimPhase::new(&s, periodic(20, 1.0 / 30.0, 0.0), Readiness::Barrier(0.0)),
            SimPhase::new(&s, periodic(20, 1.0 / 30.0, 0.0), Readiness::Barrier(0.0)),
        ],
        &simba,
        &model,
    );
    let contended = pin_tenants(
        "contended x3",
        &[
            SimPhase::new(&s, periodic(16, 0.05, 0.0), Readiness::Barrier(0.0)),
            SimPhase::new(&s, bursty.times(15), Readiness::Barrier(0.0)),
            SimPhase::new(&s, periodic(16, 0.04, 0.013), Readiness::Barrier(0.0)),
        ],
        &simba,
        &model,
    );
    // Disjoint halves of the dual-NPU mesh, then a mix: two tenants
    // contending on the left half, one alone on the right.
    let dual = McmPackage::dual_npu_12x6();
    let left = on_dual_npu(&s, 0);
    let right = on_dual_npu(&s, 6);
    pin_tenants(
        "disjoint x2",
        &[
            SimPhase::new(
                &left,
                periodic(20, 1.0 / 30.0, 0.0),
                Readiness::Barrier(0.0),
            ),
            SimPhase::new(&right, periodic(20, 0.03, 0.005), Readiness::Barrier(0.0)),
        ],
        &dual,
        &model,
    );
    let mixed = pin_tenants(
        "mixed x3",
        &[
            SimPhase::new(&left, periodic(14, 0.05, 0.0), Readiness::Barrier(0.0)),
            SimPhase::new(&right, bursty.times(15), Readiness::Barrier(0.0)),
            SimPhase::new(&left, periodic(14, 0.05, 0.0), Readiness::Barrier(0.0)),
        ],
        &dual,
        &model,
    );
    // Coverage: contention is real, and the lone right-half tenant
    // runs at its standalone latency while the left half queues.
    assert!(contended[2].report.mean_latency > mixed[1].report.mean_latency);
    assert!(mixed[0].report.mean_latency > mixed[1].report.mean_latency);
}

/// Make-before-break gates and boundary cutoffs pin the reference on
/// both entry points: per-chiplet readiness drops exactly the frames
/// whose wavefront would reach a reloading chiplet, and a cutoff
/// flushes exactly the frames still in flight at the boundary.
#[test]
fn gates_and_cutoffs_pin_the_reference() {
    let model = FittedMaestro::new();
    let simba = McmPackage::simba_6x6();
    let s = perception_schedule(&model);
    let items = flatten_items(&s, &simba, &model, Dtype::Fp16);
    let entry = items[0].chiplet;
    let exit = items[items.len() - 1].chiplet;
    let per_chiplet = |at: f64, ready: Vec<(ChipletId, f64)>| Readiness::PerChiplet { at, ready };

    // A drive-like phased run: a flushed full-barrier handover, a
    // make-before-break switch stalling the exit chiplet, one stalling
    // the entry chiplet, and a barrier with drops.
    let mut flushed_phase =
        SimPhase::new(&s, periodic(24, 1.0 / 30.0, 0.0), Readiness::Barrier(0.0));
    flushed_phase.cutoff = Some(1.0);
    let mut warm = SimPhase::new(
        &s,
        periodic(24, 1.0 / 30.0, 2.4),
        per_chiplet(2.4, vec![(entry, 2.5), (exit, 2.6)]),
    );
    warm.warmup = Some(2);
    let phased = pin_phases(
        "phases",
        &[
            flushed_phase,
            SimPhase::new(
                &s,
                periodic(24, 1.0 / 30.0, 0.8),
                per_chiplet(0.8, vec![(exit, 0.95)]),
            ),
            SimPhase::new(
                &s,
                periodic(24, 1.0 / 30.0, 1.6),
                per_chiplet(1.6, vec![(entry, 1.7)]),
            ),
            warm,
            SimPhase::new(&s, periodic(24, 1.0 / 30.0, 3.2), Readiness::Barrier(3.35)),
        ],
        &simba,
        &model,
    );

    // The same gates and cutoffs on co-running tenants: one flushed at
    // a boundary, one gated by stalled entry and exit chiplets, one
    // contending undisturbed.
    let mut cut = SimPhase::new(&s, periodic(18, 0.04, 0.0), Readiness::Barrier(0.0));
    cut.cutoff = Some(1.2);
    let gated = pin_tenants(
        "tenants gated",
        &[
            cut,
            SimPhase::new(
                &s,
                periodic(18, 0.04, 0.0),
                per_chiplet(0.0, vec![(entry, 0.1), (exit, 0.2)]),
            ),
            SimPhase::new(&s, periodic(12, 0.06, 0.01), Readiness::Barrier(0.0)),
        ],
        &simba,
        &model,
    );
    // Coverage: every mechanism fired — a partial flush, a hidden exit
    // stall, entry stalls and a barrier that drop frames.
    assert!(phased[0].flushed > 0 && phased[0].served() > 0);
    assert_eq!(
        phased[1].dropped, 0,
        "an exit stall hides behind the wavefront"
    );
    assert!(phased[2].dropped > 0 && phased[3].dropped > 0 && phased[4].dropped > 0);
    assert!(gated[0].flushed > 0 && gated[0].served() > 0);
    assert!(gated[1].dropped > 0);
}

/// A million saturated frames through a two-chiplet pipeline: the run
/// completes, the statistics stay sane, and the in-flight pool's
/// high-water mark is a handful of slots — the O(items × in-flight)
/// memory bound, three orders of magnitude under one-slot-per-frame.
#[test]
fn million_frame_saturated_run_keeps_the_pool_bounded() {
    use npu_dnn::models::attention::{fusion_block, FusionConfig};
    use npu_dnn::StageKind;

    let g = fusion_block(&FusionConfig::spatial_default());
    let pkg = McmPackage::simba_6x6();
    let model = FittedMaestro::new();
    // Heavy trunk on chiplet 0 (the entry bottleneck), cheap output
    // compression on chiplet 1: frames drain as fast as they clear the
    // trunk, so in-flight occupancy is the pipeline depth, not the
    // frame backlog.
    let mut mp = ModelPlan::on_single_chiplet("s", g.clone(), ChipletId(0));
    let out = g.find("s_fuse.compress").expect("fusion block compresses");
    *mp.layer_plan_mut(out) = LayerPlan::single(g.layer(out).clone(), ChipletId(1));
    let schedule = Schedule {
        stages: vec![StagePlan {
            kind: StageKind::SpatialFusion,
            models: vec![mp],
            region: vec![ChipletId(0), ChipletId(1)],
        }],
    };

    let frames = 1_000_000;
    let (rep, stats) = simulate_with_stats(&schedule, &pkg, &model, &SimConfig::saturated(frames));
    assert_eq!(stats.frames, frames);
    assert!(
        stats.peak_in_flight < 16,
        "pool must stay bounded by pipelining depth, got {} slots",
        stats.peak_in_flight
    );
    assert_eq!(rep.measured_frames, frames - 2 * 4);
    assert!(rep.steady_interval.as_secs() > 0.0);
    assert!(rep.tails.p50 <= rep.tails.p999);
    assert!(rep.busy_fraction(ChipletId(0)).unwrap() > 0.9, "saturated");
}

/// The `Dtype` import is part of the pinned surface: the reference and
/// the engine must flatten with the same accounting datatype.
#[test]
fn sim_config_dtype_matches_flatten_default() {
    let cfg = SimConfig::saturated(4);
    assert_eq!(cfg.dtype, Dtype::Fp16);
}
