//! Benchmarks the discrete-event engine hot path at fleet-day scale:
//! a long saturated run (pure engine throughput, no arrival gaps), a
//! long drive timeline (phased engine + matcher, the shape `repro drive`
//! pays per vehicle), and the 721-item perception schedule the artifacts
//! actually simulate — as one stream and as a three-tenant co-run
//! carrying the same total frame load, so the two medians divide into
//! comparable per-frame costs. Medians seed `BENCH_des_engine.json`;
//! append one entry per change that touches the engine hot path so
//! regressions stay visible change over change.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use npu_dnn::models::attention::{fusion_block, FusionConfig};
use npu_dnn::{PerceptionConfig, StageKind};
use npu_maestro::{FittedMaestro, ReconfigModel};
use npu_mcm::{ChipletId, McmPackage};
use npu_pipesim::{simulate, simulate_tenants, Arrivals, Readiness, SimConfig, SimPhase};
use npu_scenario::{simulate_drive, Drive};
use npu_sched::{LayerPlan, MatcherConfig, ModelPlan, Schedule, StagePlan, ThroughputMatcher};
use npu_tensor::{Dtype, Seconds};

/// Frames in the saturated case: enough that per-frame costs dominate
/// setup, small enough that one sample stays sub-second.
const SATURATED_FRAMES: usize = 100_000;

/// Frames through the perception schedule per iteration, in total over
/// all streams: per-frame cost = median / `PERCEPTION_FRAMES`.
const PERCEPTION_FRAMES: usize = 240;

/// Co-running tenants in the multi-tenant perception case.
const TENANTS: usize = 3;

/// Seconds per segment of the long drive: 240 s of 30 FPS video per leg
/// (7 200 frames), three legs — a million-frame day is 120 of these.
const SEGMENT_SECS: f64 = 240.0;

/// A two-chiplet pipelined schedule: qkv on chiplet 0, the rest of the
/// fusion block on chiplet 1, so frames overlap and the in-flight pool
/// holds more than one frame.
fn pipelined_schedule() -> Schedule {
    let g = fusion_block(&FusionConfig::spatial_default());
    let mut mp = ModelPlan::on_single_chiplet("s", g.clone(), ChipletId(1));
    let qkv = g.find("s_fuse.qkv").expect("fusion block has a qkv layer");
    *mp.layer_plan_mut(qkv) = LayerPlan::single(g.layer(qkv).clone(), ChipletId(0));
    Schedule {
        stages: vec![StagePlan {
            kind: StageKind::SpatialFusion,
            models: vec![mp],
            region: vec![ChipletId(0), ChipletId(1)],
        }],
    }
}

/// The cruise → urban → degraded timeline stretched to `SEGMENT_SECS`
/// per leg, long enough that the phased DES dominates the per-segment
/// matching.
fn long_drive() -> Drive {
    Drive::cruise_urban_degraded_scaled(Seconds::new(SEGMENT_SECS))
}

fn bench(c: &mut Criterion) {
    let model = FittedMaestro::new();
    let pkg = McmPackage::simba_6x6();

    let mut g = c.benchmark_group("des_engine");
    g.sample_size(10);

    // Pure engine throughput: every frame at t = 0, the pipeline always
    // busy — the per-frame event-calendar cost with zero arrival slack.
    let schedule = pipelined_schedule();
    g.bench_function("saturated_100k", |b| {
        b.iter(|| {
            black_box(simulate(
                &schedule,
                &pkg,
                &model,
                &SimConfig::saturated(SATURATED_FRAMES),
            ))
        })
    });

    // The long-drive case the acceptance bar tracks: three 240 s legs
    // (~21 600 frames), two priced re-matches, phased DES end to end.
    let drive = long_drive();
    g.bench_function("drive_3x240s_6x6", |b| {
        b.iter(|| {
            black_box(simulate_drive(
                &drive,
                &pkg,
                &model,
                &ReconfigModel::default(),
            ))
        })
    });

    // The 721-item perception schedule on the paper's 6×6 package,
    // offered at its analytic pipelining interval: the per-frame cost
    // every scenario, drive and fleet run pays.
    let outcome = ThroughputMatcher::new(&model, MatcherConfig::default())
        .match_throughput(&PerceptionConfig::default().build(), &pkg);
    let pipe = outcome.report.pipe.as_secs();
    let one = SimConfig::with_arrivals(
        PERCEPTION_FRAMES,
        Arrivals::Periodic {
            interval: Seconds::new(pipe),
        },
    );
    g.bench_function("perception_1x240_6x6", |b| {
        b.iter(|| black_box(simulate(&outcome.schedule, &pkg, &model, &one)))
    });

    // The same total load as three tenants contending for all 36
    // chiplets: each offers a third of the frames at three times the
    // interval, staggered by one interval.
    let per_tenant = PERCEPTION_FRAMES / TENANTS;
    let streams: Vec<SimPhase<'_>> = (0..TENANTS)
        .map(|k| {
            let times = (0..per_tenant)
                .map(|f| (k + f * TENANTS) as f64 * pipe)
                .collect();
            SimPhase::new(&outcome.schedule, times, Readiness::Barrier(0.0))
        })
        .collect();
    g.bench_function("perception_3x80_6x6", |b| {
        b.iter(|| black_box(simulate_tenants(&streams, &pkg, &model, Dtype::Fp16)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
