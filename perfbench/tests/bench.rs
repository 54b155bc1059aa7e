//! The benchmark's own tests. Run them optimized:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use npu_fleet::{os256_package, pack_fleet, preemption_event, CoScheduler};
use npu_maestro::{FittedMaestro, ReconfigModel};
use npu_scenario::{drive_sweep, scenario_sweep, Drive};
use npu_tensor::Seconds;

use perfbench::check;
use perfbench::gen::{self, Rng, FLEET_GEOMETRIES};
use perfbench::run::{run, tail, Config};
use perfbench::workload::{Queries, Size, Workload};

fn tiny(workload: Workload, trace: bool) -> Config {
    Config {
        workload,
        seed: 7,
        seconds: 0.01,
        trace,
        jobs: 2,
        size: Size::TINY,
    }
}

#[test]
fn generators_repeat_for_a_seed_and_move_with_it() {
    for w in Workload::ALL {
        let block = |seed| Queries::new(w, seed, Size::TINY).next_block();
        assert_eq!(block(3), block(3), "{}", w.name());
        assert_ne!(block(3), block(4), "{}", w.name());
        // Later blocks differ from the first.
        let mut q = Queries::new(w, 3, Size::TINY);
        assert_ne!(q.next_block(), q.next_block(), "{}", w.name());
    }
}

#[test]
fn blocks_offer_every_scenario_kind_once() {
    let mut rng = Rng::new(11);
    let mut names: Vec<String> = gen::dse_block(&mut rng)
        .into_iter()
        .map(|s| s.name)
        .collect();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), gen::KINDS);
    let legs: usize = gen::drive_block(&mut rng, 0, 0.05)
        .iter()
        .map(|d| {
            assert!((3..=5).contains(&d.segments.len()));
            d.segments.len()
        })
        .sum();
    assert_eq!(legs, gen::KINDS);
}

#[test]
fn check_rejects_corrupted_outcomes() {
    let model = FittedMaestro::new();
    let mut rng = Rng::new(5);
    let scenario = gen::scenario(1, 0.5, &mut rng);
    let pkg = os256_package(6, 6);

    let mut points = scenario_sweep(&[scenario], std::slice::from_ref(&pkg), &model, 8);
    check::scenario_point(&points[0]).expect("a real outcome passes");
    let before = check::digest(&points);
    points[0].tails.p95 = Seconds::new(points[0].tails.p99.as_secs() * 2.0);
    assert!(check::scenario_point(&points[0]).is_err(), "tail order");
    assert_ne!(check::digest(&points), before, "the digest sees the change");
    points[0].tails.p95 = points[0].tails.p99;
    points[0].utilization = 1.5;
    assert!(check::scenario_point(&points[0]).is_err(), "utilisation");

    let drive = gen::drive_block(&mut rng, 0, 0.05).remove(0);
    let mut drives = drive_sweep(
        &[drive],
        std::slice::from_ref(&pkg),
        &model,
        &ReconfigModel::default(),
    );
    check::drive(&drives[0]).expect("a real outcome passes");
    drives[0].segments[0].served += 1;
    assert!(check::drive(&drives[0]).is_err(), "frame conservation");

    let q = gen::fleet_block(&mut rng).remove(0);
    let pkg = os256_package(
        FLEET_GEOMETRIES[q.geometry].0,
        FLEET_GEOMETRIES[q.geometry].1,
    );
    let mut packing = pack_fleet(&q.fleet, &pkg, &model, 8);
    check::packing(&packing).expect("a real outcome passes");
    if let Some(t) = packing
        .instances
        .iter_mut()
        .flat_map(|i| &mut i.tenants)
        .next()
    {
        t.dropped += 1;
        assert!(check::packing(&packing).is_err(), "verdict conservation");
    }
    let mut sched = CoScheduler::new(pkg, &model);
    let mut event = preemption_event(
        &mut sched,
        &q.incumbents,
        &q.arriving,
        q.at,
        16,
        &ReconfigModel::default(),
    )
    .expect("the partition exists");
    check::preemption(&event).expect("a real outcome passes");
    event.tenants[0].after.dropped = event.tenants[0].after.offered + 1;
    assert!(check::preemption(&event).is_err(), "preemption balance");
}

#[test]
fn tail_leaves_ten_samples_beyond() {
    let xs: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(tail(&xs), (90.0, 90));
    assert_eq!(tail(&xs[..5]), (1.0, 1));
}

#[test]
fn tiny_runs_pass_and_repeat_their_counts() {
    for w in Workload::ALL {
        let first = run(&tiny(w, false));
        assert!(first.correct, "{}: {:?}", w.name(), first.log);
        assert_eq!(first.failed, 0);
        assert!(first.attempted > 0);
        let names: Vec<&str> = first.metrics.iter().map(|m| m.name).collect();
        assert_eq!(
            names,
            [
                "setup_s",
                "queries_per_s",
                "query_p50_ms",
                "query_tail_ms",
                "serial_queries_per_s",
                "peak_rss_mb"
            ]
        );
        assert!(
            first.metrics.iter().all(|m| m.value > 0.0),
            "{:?}",
            first.metrics
        );
        let again = run(&tiny(w, false));
        let counts = |r: &perfbench::run::Report| {
            r.log
                .iter()
                .filter(|l| l.starts_with("counts"))
                .cloned()
                .collect::<Vec<_>>()
        };
        assert_eq!(counts(&first), counts(&again), "{}", w.name());
    }
}

#[test]
fn tiny_traced_runs_match_the_untraced_outcomes() {
    for w in Workload::ALL {
        let report = run(&tiny(w, true));
        assert!(report.correct, "{}: {:?}", w.name(), report.log);
        let metric = |name: &str| {
            report
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("{name} reported"))
                .value
        };
        assert!(metric("maestro.calls") > 0.0, "{}", w.name());
        match w {
            Workload::FleetAdmit => assert!(metric("pipesim.tenant_frames") > 0.0),
            _ => {
                assert!(metric("sched.match_steps") > 0.0, "{}", w.name());
                assert!(metric("pipesim.frames") > 0.0, "{}", w.name());
            }
        }
    }
}

#[test]
fn full_size_drive_blocks_build() {
    // `Drive::new` rejects a leg that cannot fit its first frame.
    let mut rng = Rng::new(99);
    for block in 0..3 {
        let drives: Vec<Drive> = gen::drive_block(&mut rng, block, 1.0);
        assert_eq!(drives.len(), 4);
    }
}
