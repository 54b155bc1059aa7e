//! Seeded input generators for the three workloads.
//!
//! Every generated input stays inside the parameter ranges the built-in
//! scenarios (`Scenario::builtin`), drives (`Drive::builtin`,
//! `Drive::cruise_urban_degraded_scaled`) and the fleet profile catalog
//! (`VehicleProfile::catalog`) already cover, so the library sees only
//! inputs it is known to handle.
//!
//! Queries come in *blocks*. A block holds every scenario kind (rig class
//! × operating mode) once, in a seeded order with seeded parameters, so
//! each block offers the same mix of work whatever the seed. The seed
//! moves the order, the continuous parameters and the fleets; the
//! balance keeps run-to-run spread down without fixing the inputs.

use npu_fleet::{Priority, Tenant, VehicleProfile};
use npu_scenario::{CameraRig, Drive, DriveSegment, OperatingMode, Scenario};
use npu_tensor::Seconds;

/// SplitMix64: a small, well-mixed generator whose stream is fixed by
/// its seed on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Camera rig classes of the built-in scenarios and the fleet catalog.
const RIGS: [&str; 3] = ["octa", "hexa", "quad"];

/// Operating modes, one per `OperatingMode` variant.
const MODES: [&str; 5] = ["cruise", "urban", "degraded", "burst", "trace"];

/// Scenario kinds per block: every rig class in every mode.
pub const KINDS: usize = RIGS.len() * MODES.len();

/// A rig of class `class` whose frame rate sits at `at` (in `[0, 1)`)
/// across the class's range.
fn rig(class: usize, at: f64) -> CameraRig {
    let fps = |lo: f64, hi: f64| lo + (hi - lo) * at;
    match class {
        // octa_ring at 30 FPS down to the 8 FPS night rig.
        0 => CameraRig::new(8, (360, 640), fps(8.0, 30.0)),
        // hexa_highway at 36 FPS down to the fleet shuttle's 8 FPS.
        1 => CameraRig::new(6, (360, 640), fps(8.0, 36.0)),
        // quad_economy at 20 FPS down to the fleet mining rig's 8 FPS.
        _ => CameraRig::new(4, (288, 512), fps(8.0, 20.0)),
    }
}

/// A recorded-log snippet like the built-in `trace-replay` family: eight
/// timestamps at the rig's nominal rate with two stalls of 2-3 frame
/// intervals (the built-in log stalls for 2.4 and 3 intervals).
fn stall_trace(interval: f64, rng: &mut Rng) -> Vec<Seconds> {
    let first = rng.below(7);
    let second = (first + 1 + rng.below(6)) % 7;
    let mut t = 0.0;
    let mut trace = vec![Seconds::new(t)];
    for gap in 0..7 {
        let stall = if gap == first || gap == second {
            rng.uniform(2.0, 3.0)
        } else {
            1.0
        };
        t += interval * stall;
        trace.push(Seconds::new(t));
    }
    trace
}

/// The scenario of kind `kind` (`0..KINDS`) with its frame rate at `at`
/// across the rig class's range and seeded mode parameters.
pub fn scenario(kind: usize, at: f64, rng: &mut Rng) -> Scenario {
    let (class, mode) = (kind / MODES.len(), kind % MODES.len());
    let rig = rig(class, at);
    let mode_value = match mode {
        0 => OperatingMode::HighwayCruise,
        1 => OperatingMode::UrbanDense {
            jitter_frac: rng.uniform(0.20, 0.25),
            seed: rng.next_u64(),
        },
        2 => OperatingMode::DegradedDropout { lost_cameras: 3 },
        3 => OperatingMode::BurstRelocalization { burst: 4 },
        _ => OperatingMode::TraceReplay {
            trace: stall_trace(rig.frame_interval_secs(), rng),
        },
    };
    Scenario::new(format!("{}-{}", RIGS[class], MODES[mode]), rig, mode_value)
}

/// Every scenario kind once, grouped by rig class, each class in seeded
/// order. Within a class the frame rates are stratified: the five modes
/// take one rate from each fifth of the class's range, in seeded
/// pairing, so every block spans the same arrival-bound to
/// compute-bound mix.
fn block_scenarios(rng: &mut Rng) -> Vec<Vec<Scenario>> {
    (0..RIGS.len())
        .map(|class| {
            let mut strata: Vec<usize> = (0..MODES.len()).collect();
            rng.shuffle(&mut strata);
            let mut scenarios: Vec<Scenario> = strata
                .into_iter()
                .enumerate()
                .map(|(mode, stratum)| {
                    let at = (stratum as f64 + rng.uniform(0.0, 1.0)) / MODES.len() as f64;
                    scenario(class * MODES.len() + mode, at, rng)
                })
                .collect();
            rng.shuffle(&mut scenarios);
            scenarios
        })
        .collect()
}

/// One `dse-sweep` block: every scenario kind once, in seeded order.
pub fn dse_block(rng: &mut Rng) -> Vec<Scenario> {
    let mut scenarios: Vec<Scenario> = block_scenarios(rng).into_iter().flatten().collect();
    rng.shuffle(&mut scenarios);
    scenarios
}

/// Legs per drive in one `drive-long` block (3-5 legs, one leg per
/// scenario kind).
const DRIVE_SHAPES: [usize; 4] = [3, 3, 4, 5];

/// Frames each drive offers at full size, split evenly over its legs:
/// 1 440-2 400 frames a leg, which at the rigs' 8-36 FPS lasts from 40
/// seconds to 5 minutes. Every query then carries the same DES work,
/// while the seed moves the leg count, order and lengths in seconds.
pub const DRIVE_FRAMES: usize = 7200;

/// One `drive-long` block: four drives of 3-5 legs that together hold
/// every scenario kind once. Every drive gets a leg of each rig class;
/// the three legs left over go to the longer drives. `scale` shrinks
/// the legs (1.0 = full size).
pub fn drive_block(rng: &mut Rng, block: usize, scale: f64) -> Vec<Drive> {
    assert_eq!(DRIVE_SHAPES.iter().sum::<usize>(), KINDS);
    let mut classes: Vec<_> = block_scenarios(rng)
        .into_iter()
        .map(Vec::into_iter)
        .collect();
    let mut shapes = DRIVE_SHAPES;
    rng.shuffle(&mut shapes);
    let mut extra: Vec<usize> = (0..RIGS.len()).collect();
    rng.shuffle(&mut extra);
    let mut extra = extra.into_iter();
    shapes
        .iter()
        .enumerate()
        .map(|(d, &n)| {
            let frames = (DRIVE_FRAMES as f64 * scale / n as f64).max(2.0);
            let picks: Vec<usize> = (0..RIGS.len())
                .chain(extra.by_ref().take(n - RIGS.len()))
                .collect();
            let mut legs: Vec<Scenario> = picks
                .into_iter()
                .map(|c| classes[c].next().expect("each class holds five legs"))
                .collect();
            rng.shuffle(&mut legs);
            let segments = legs
                .into_iter()
                .map(|s| {
                    let mean = s
                        .arrivals()
                        .mean_interval()
                        .expect("scenario arrivals have a rate")
                        .as_secs();
                    DriveSegment::new(s, Seconds::new(frames * mean))
                })
                .collect();
            Drive::new(format!("drive-{block}-{d}"), segments)
        })
        .collect()
}

/// Package geometries the fleet queries pack onto: the `repro fleet`
/// uniform-pool grid.
pub const FLEET_GEOMETRIES: [(u32, u32); 4] = [(4, 4), (5, 5), (6, 6), (8, 6)];

/// Fleet sizes per geometry in one block: one catalog of six vehicles
/// split into a fleet of two and a fleet of four.
const FLEET_SIZES: [usize; 2] = [2, 4];

/// One `fleet-admit` query: a small fleet packed on one geometry, then a
/// safety vehicle preempting part of it.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetQuery {
    /// Index into [`FLEET_GEOMETRIES`].
    pub geometry: usize,
    /// The vehicles to pack.
    pub fleet: Vec<Tenant>,
    /// Vehicles already running when the safety vehicle arrives.
    pub incumbents: Vec<Tenant>,
    /// The arriving safety vehicle.
    pub arriving: Tenant,
    /// Arrival instant in seconds (inside the incumbents' first epoch).
    pub at: f64,
}

/// One `fleet-admit` block: every geometry at every fleet size. Each
/// geometry gets one whole catalog, shuffled and split into its two
/// fleets, so every geometry packs the same vehicle mix per block while
/// the fleets' compositions move with the seed.
pub fn fleet_block(rng: &mut Rng) -> Vec<FleetQuery> {
    let catalog = VehicleProfile::catalog();
    assert_eq!(FLEET_SIZES.iter().sum::<usize>(), catalog.len());
    let safety: Vec<&VehicleProfile> = catalog
        .iter()
        .filter(|p| p.priority == Priority::Safety)
        .collect();
    let mut queries: Vec<FleetQuery> = (0..FLEET_GEOMETRIES.len())
        .flat_map(|geometry| {
            let mut profiles: Vec<&VehicleProfile> = catalog.iter().collect();
            rng.shuffle(&mut profiles);
            let mut profiles = profiles.into_iter();
            FLEET_SIZES
                .iter()
                .map(|&n| {
                    let fleet: Vec<Tenant> = profiles
                        .by_ref()
                        .take(n)
                        .enumerate()
                        .map(|(i, p)| p.vehicle(i))
                        .collect();
                    // Half the fleet is running when a safety vehicle arrives.
                    let mut incumbents = fleet.clone();
                    rng.shuffle(&mut incumbents);
                    incumbents.truncate(n / 2);
                    FleetQuery {
                        geometry,
                        fleet,
                        incumbents,
                        arriving: safety[rng.below(safety.len())].vehicle(n),
                        at: rng.uniform(4.0, 6.0),
                    }
                })
                .collect::<Vec<_>>()
        })
        .collect();
    rng.shuffle(&mut queries);
    queries
}
