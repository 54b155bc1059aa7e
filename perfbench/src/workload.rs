//! The three workloads: their set-up, their queries, and the traced
//! variant of each query that splits its host time by layer.
//!
//! A query is one public library call (`fleet-admit` makes two: the
//! packing and the preemption it feeds). The traced variant times the
//! layers that run only inside such a call by calling their public
//! functions on the same inputs beside it; those numbers are *derived*.

use std::hint::black_box;
use std::time::Instant;

use npu_fleet::{
    canonical_order, os256_package, pack_fleet, preemption_event, CoScheduler, PackingOutcome,
    RejectReason, Tenant,
};
use npu_maestro::{CostModel, FittedMaestro, ReconfigModel};
use npu_mcm::McmPackage;
use npu_pipesim::{simulate_with_stats, SimConfig};
use npu_scenario::{drive_sweep, match_scenario, scenario_sweep, Drive, Scenario, SWEEP_FRAMES};
use npu_sched::{flatten_items, rematch_cost, Schedule};
use npu_tensor::Dtype;

use crate::check;
use crate::gen::{self, FleetQuery, Rng, FLEET_GEOMETRIES};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One seeded scenario swept over the 4×4…12×6 geometry grid.
    DseSweep,
    /// One seeded minute-scale drive timeline over two packages.
    DriveLong,
    /// A small seeded fleet packed on one geometry, then a preemption.
    FleetAdmit,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::DseSweep,
        Workload::DriveLong,
        Workload::FleetAdmit,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DseSweep => "dse-sweep",
            Workload::DriveLong => "drive-long",
            Workload::FleetAdmit => "fleet-admit",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Size::FULL`] is the benchmark; [`Size::TINY`] keeps
/// the same code paths at a fraction of the cost for smoke tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Size {
    /// DES frames per `dse-sweep` grid point.
    pub sweep_frames: usize,
    /// Drive length as a share of [`gen::DRIVE_FRAMES`].
    pub leg_scale: f64,
    /// DES frames per tenant in fleet admission checks.
    pub verify_frames: usize,
    /// Frames per preemption epoch.
    pub preempt_frames: usize,
}

impl Size {
    /// The benchmark's sizes: the golden sweep window, minute-scale
    /// drive legs, and the `repro fleet` admission and preemption windows.
    pub const FULL: Size = Size {
        sweep_frames: SWEEP_FRAMES,
        leg_scale: 1.0,
        verify_frames: 24,
        preempt_frames: 48,
    };

    /// Smoke-test sizes.
    pub const TINY: Size = Size {
        sweep_frames: 8,
        leg_scale: 0.02,
        verify_frames: 8,
        preempt_frames: 16,
    };
}

/// One query's input.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// `scenario_sweep` of one scenario over the geometry grid.
    Dse(Scenario),
    /// `drive_sweep` of one drive over two packages.
    Drive(Drive),
    /// `pack_fleet`, then `preemption_event`.
    Fleet(FleetQuery),
}

/// The seeded query stream, one block at a time.
pub struct Queries {
    workload: Workload,
    size: Size,
    rng: Rng,
    blocks: usize,
}

impl Queries {
    /// The stream for `seed`.
    pub fn new(workload: Workload, seed: u64, size: Size) -> Queries {
        Queries {
            workload,
            size,
            rng: Rng::new(seed),
            blocks: 0,
        }
    }

    /// The next block of queries.
    pub fn next_block(&mut self) -> Vec<Query> {
        let block = self.blocks;
        self.blocks += 1;
        match self.workload {
            Workload::DseSweep => gen::dse_block(&mut self.rng)
                .into_iter()
                .map(Query::Dse)
                .collect(),
            Workload::DriveLong => gen::drive_block(&mut self.rng, block, self.size.leg_scale)
                .into_iter()
                .map(Query::Drive)
                .collect(),
            Workload::FleetAdmit => gen::fleet_block(&mut self.rng)
                .into_iter()
                .map(Query::Fleet)
                .collect(),
        }
    }
}

/// The `dse-sweep` geometry grid (the `repro scenario-dse` grid).
pub const DSE_GEOMETRIES: [(u32, u32); 6] = [(4, 4), (5, 5), (6, 6), (8, 6), (9, 6), (12, 6)];

/// Deterministic counts read off the outcomes: they repeat exactly for
/// a seed, at any jobs count, traced or not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Scenario points, drive runs or packed fleets returned.
    pub outcomes: u64,
    /// DES frames offered (drive segments, fleet verdicts, preemption epochs).
    pub frames: u64,
    /// Frames dropped at admission gates.
    pub dropped: u64,
    /// Frames flushed in flight at quiescing boundaries.
    pub flushed: u64,
    /// Vehicles admitted by fleet packing.
    pub admitted: u64,
    /// Vehicles rejected for lack of mesh columns.
    pub reject_capacity: u64,
    /// Vehicles rejected by the analytic screen.
    pub reject_analytic: u64,
    /// Vehicles rejected by DES verification (mean or p99 SLO).
    pub reject_des: u64,
}

impl Counts {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Counts) {
        self.outcomes += other.outcomes;
        self.frames += other.frames;
        self.dropped += other.dropped;
        self.flushed += other.flushed;
        self.admitted += other.admitted;
        self.reject_capacity += other.reject_capacity;
        self.reject_analytic += other.reject_analytic;
        self.reject_des += other.reject_des;
    }

    /// `name=value` pairs for the run log.
    pub fn render(&self) -> String {
        format!(
            "outcomes={} frames={} dropped={} flushed={} admitted={} reject_capacity={} reject_analytic={} reject_des={}",
            self.outcomes,
            self.frames,
            self.dropped,
            self.flushed,
            self.admitted,
            self.reject_capacity,
            self.reject_analytic,
            self.reject_des
        )
    }
}

/// A checked query result.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Digest of everything the query returned.
    pub digest: u64,
    /// Counts read off the returned outcomes.
    pub counts: Counts,
    /// Host seconds in `pack_fleet` (fleet queries only).
    pub pack_s: f64,
    /// Host seconds in `preemption_event` (fleet queries only).
    pub preempt_s: f64,
    /// Vehicle names per packed instance (fleet queries only).
    pub instances: Vec<Vec<String>>,
}

/// The program's own construction before the first query: the cost
/// model, the packages and the reconfiguration model.
pub struct Setup {
    /// The calibrated cost model every query runs on.
    pub model: FittedMaestro,
    /// The workload's packages (the fleet geometries for `fleet-admit`).
    pub packages: Vec<McmPackage>,
    /// Prices drive mode switches and preemption migrations.
    pub reconfig: ReconfigModel,
    size: Size,
}

impl Setup {
    /// Builds the workload's program state.
    pub fn new(workload: Workload, size: Size) -> Setup {
        let packages = match workload {
            Workload::DseSweep => DSE_GEOMETRIES
                .iter()
                .map(|&(w, h)| os256_package(w, h))
                .collect(),
            Workload::DriveLong => vec![McmPackage::simba_6x6(), os256_package(8, 6)],
            Workload::FleetAdmit => FLEET_GEOMETRIES
                .iter()
                .map(|&(w, h)| os256_package(w, h))
                .collect(),
        };
        Setup {
            model: FittedMaestro::new(),
            packages,
            reconfig: ReconfigModel::default(),
            size,
        }
    }

    /// Runs one query on `model` and checks its outputs.
    pub fn run(&self, model: &dyn CostModel, query: &Query) -> Result<Outcome, String> {
        let mut counts = Counts::default();
        let (mut pack_s, mut preempt_s) = (0.0, 0.0);
        let mut instances = Vec::new();
        let digest = match query {
            Query::Dse(s) => {
                let points = scenario_sweep(
                    std::slice::from_ref(s),
                    &self.packages,
                    model,
                    self.size.sweep_frames,
                );
                for p in &points {
                    check::scenario_point(p)?;
                }
                counts.outcomes = points.len() as u64;
                counts.frames = (points.len() * self.size.sweep_frames) as u64;
                check::digest(&points)
            }
            Query::Drive(d) => {
                let outcomes = drive_sweep(
                    std::slice::from_ref(d),
                    &self.packages,
                    model,
                    &self.reconfig,
                );
                for o in &outcomes {
                    check::drive(o)?;
                    counts.frames += o.total_offered as u64;
                    counts.dropped += o.total_dropped as u64;
                    counts.flushed += o.total_flushed as u64;
                }
                counts.outcomes = outcomes.len() as u64;
                check::digest(&outcomes)
            }
            Query::Fleet(q) => {
                let pkg = &self.packages[q.geometry];
                let start = Instant::now();
                let packing = pack_fleet(&q.fleet, pkg, model, self.size.verify_frames);
                pack_s = start.elapsed().as_secs_f64();
                check::packing(&packing)?;
                // A fresh co-scheduler: its band cache would otherwise
                // carry work from one query into the next.
                let mut sched = CoScheduler::new(pkg.clone(), model)
                    .with_verify_frames(self.size.verify_frames);
                let start = Instant::now();
                let event = preemption_event(
                    &mut sched,
                    &q.incumbents,
                    &q.arriving,
                    q.at,
                    self.size.preempt_frames,
                    &self.reconfig,
                )
                .map_err(|e| format!("preemption by {}: {e}", q.arriving.name))?;
                preempt_s = start.elapsed().as_secs_f64();
                check::preemption(&event)?;
                counts = packing_counts(&packing);
                instances = packing
                    .instances
                    .iter()
                    .map(|i| i.tenants.iter().map(|v| v.name.clone()).collect())
                    .collect();
                for t in &event.tenants {
                    counts.frames += t.offered() as u64;
                    counts.dropped += t.dropped() as u64;
                    counts.flushed += t.flushed() as u64;
                }
                check::digest(&(&packing, &event))
            }
        };
        Ok(Outcome {
            digest,
            counts,
            pack_s,
            preempt_s,
            instances,
        })
    }
}

fn packing_counts(p: &PackingOutcome) -> Counts {
    let mut c = Counts {
        outcomes: 1,
        admitted: p.admitted() as u64,
        ..Counts::default()
    };
    for t in p.instances.iter().flat_map(|i| &i.tenants) {
        c.frames += t.offered as u64;
        c.dropped += t.dropped as u64;
    }
    for r in &p.rejected {
        match r.reason {
            RejectReason::NoCapacity { .. } => c.reject_capacity += 1,
            RejectReason::AnalyticInfeasible { .. } => c.reject_analytic += 1,
            RejectReason::MeanSloViolated { .. } | RejectReason::TailSloViolated { .. } => {
                c.reject_des += 1
            }
        }
    }
    c
}

/// Layer work measured beside a query (all *derived*: the layer's public
/// function called on the query's own inputs).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Layers {
    /// Algorithm-1 matches.
    pub match_calls: u64,
    /// Sum of `MatchOutcome::trace` lengths.
    pub match_steps: u64,
    /// Host seconds matching.
    pub match_busy_s: f64,
    /// Items `flatten_items` produced.
    pub flatten_items: u64,
    /// Host seconds flattening.
    pub flatten_busy_s: f64,
    /// Mode-switch re-match pricings.
    pub rematch_calls: u64,
    /// Host seconds pricing re-matches.
    pub rematch_busy_s: f64,
    /// Frames through the single-stream DES.
    pub des_frames: u64,
    /// Host seconds in the single-stream DES, flattening excluded.
    pub des_busy_s: f64,
    /// Largest in-flight frame pool the DES reached.
    pub des_peak_in_flight: u64,
    /// Tenant-frames through the multi-tenant DES.
    pub tenant_frames: u64,
    /// Host seconds in the multi-tenant DES.
    pub tenant_busy_s: f64,
    /// Host seconds compiling colocations on a cold co-scheduler.
    pub compile_busy_s: f64,
}

impl Layers {
    /// Adds `o` into `self` (peaks take the maximum).
    pub fn add(&mut self, o: &Layers) {
        self.match_calls += o.match_calls;
        self.match_steps += o.match_steps;
        self.match_busy_s += o.match_busy_s;
        self.flatten_items += o.flatten_items;
        self.flatten_busy_s += o.flatten_busy_s;
        self.rematch_calls += o.rematch_calls;
        self.rematch_busy_s += o.rematch_busy_s;
        self.des_frames += o.des_frames;
        self.des_busy_s += o.des_busy_s;
        self.des_peak_in_flight = self.des_peak_in_flight.max(o.des_peak_in_flight);
        self.tenant_frames += o.tenant_frames;
        self.tenant_busy_s += o.tenant_busy_s;
        self.compile_busy_s += o.compile_busy_s;
    }

    /// Host seconds of every derived child layer together.
    pub fn children_s(&self) -> f64 {
        self.match_busy_s
            + self.flatten_busy_s
            + self.rematch_busy_s
            + self.des_busy_s
            + self.tenant_busy_s
            + self.compile_busy_s
    }

    fn matched(
        &mut self,
        scenario: &Scenario,
        pkg: &McmPackage,
        model: &dyn CostModel,
    ) -> Schedule {
        let start = Instant::now();
        let outcome = match_scenario(scenario, pkg, model);
        self.match_busy_s += start.elapsed().as_secs_f64();
        self.match_calls += 1;
        self.match_steps += outcome.trace.len() as u64;
        outcome.schedule
    }

    fn simulated(
        &mut self,
        schedule: &Schedule,
        pkg: &McmPackage,
        model: &dyn CostModel,
        cfg: &SimConfig,
    ) {
        let start = Instant::now();
        let items = black_box(flatten_items(schedule, pkg, model, cfg.dtype));
        let flatten = start.elapsed().as_secs_f64();
        self.flatten_busy_s += flatten;
        self.flatten_items += items.len() as u64;
        let start = Instant::now();
        let (report, stats) = simulate_with_stats(schedule, pkg, model, cfg);
        black_box(report);
        // The DES call flattens the schedule again; count that once,
        // under flatten.
        self.des_busy_s += (start.elapsed().as_secs_f64() - flatten).max(0.0);
        self.des_frames += stats.frames as u64;
        self.des_peak_in_flight = self.des_peak_in_flight.max(stats.peak_in_flight as u64);
    }
}

/// Times the layers inside `query` by calling their public functions on
/// its inputs, with `model` (the plain cost model, so the derived times
/// carry no tracing overhead). `outcome` is the query's own result.
pub fn derive_layers(
    setup: &Setup,
    query: &Query,
    outcome: &Outcome,
    model: &dyn CostModel,
) -> Layers {
    let mut l = Layers::default();
    match query {
        Query::Dse(s) => {
            let cfg = s.sim_config(setup.size.sweep_frames);
            for pkg in &setup.packages {
                let schedule = l.matched(s, pkg, model);
                l.simulated(&schedule, pkg, model, &cfg);
            }
        }
        Query::Drive(d) => {
            for pkg in &setup.packages {
                let mut previous: Option<Schedule> = None;
                for seg in &d.segments {
                    let schedule = l.matched(&seg.scenario, pkg, model);
                    if let Some(old) = &previous {
                        let start = Instant::now();
                        black_box(rematch_cost(old, &schedule, &setup.reconfig, Dtype::Fp16));
                        l.rematch_busy_s += start.elapsed().as_secs_f64();
                        l.rematch_calls += 1;
                    }
                    let cfg = SimConfig::with_arrivals(seg.frames(), seg.scenario.arrivals());
                    l.simulated(&schedule, pkg, model, &cfg);
                    previous = Some(schedule);
                }
            }
        }
        Query::Fleet(q) => {
            // Re-check every packed instance and the post-preemption
            // colocation on a cold co-scheduler: compile (band matching)
            // and the multi-tenant DES verification.
            let pkg = &setup.packages[q.geometry];
            let mut sched =
                CoScheduler::new(pkg.clone(), model).with_verify_frames(setup.size.verify_frames);
            let mut groups: Vec<Vec<Tenant>> = outcome
                .instances
                .iter()
                .map(|names| {
                    names
                        .iter()
                        .map(|name| {
                            q.fleet
                                .iter()
                                .find(|t| &t.name == name)
                                .expect("packed vehicles come from the fleet")
                                .clone()
                        })
                        .collect()
                })
                .collect();
            let mut after: Vec<_> = q.incumbents.iter().chain([&q.arriving]).cloned().collect();
            canonical_order(&mut after);
            groups.push(after);
            for tenants in &groups {
                let start = Instant::now();
                let Ok(colo) = sched.compile(tenants) else {
                    continue;
                };
                l.compile_busy_s += start.elapsed().as_secs_f64();
                let start = Instant::now();
                black_box(sched.verify(&colo));
                l.tenant_busy_s += start.elapsed().as_secs_f64();
                l.tenant_frames += (tenants.len() * setup.size.verify_frames) as u64;
            }
        }
    }
    l
}
