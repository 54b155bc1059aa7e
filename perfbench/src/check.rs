//! The output check: laws every outcome obeys at the seed commit for
//! every seed, plus a digest of each outcome for bit-identity checks
//! between passes.
//!
//! Only laws the library already states are checked:
//! * frame conservation, `offered == served + dropped + flushed`, on
//!   drive segments, fleet verdicts and preemption epochs;
//! * utilisation and busy fractions in `[0, 1]`;
//! * tail order `p50 <= p95 <= p99 <= p99.9 <= max` on every tails struct.

use std::fmt::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};

use npu_fleet::{PackingOutcome, PreemptionReport};
use npu_pipesim::{LatencyQuantiles, PhaseReport};
use npu_scenario::{DriveOutcome, ScenarioPoint};
use npu_tensor::Seconds;

/// FNV-1a over an outcome's `Debug` rendering. `Debug` prints every
/// float with round-trip precision, so equal digests mean equal bits.
pub fn digest(value: &impl fmt::Debug) -> u64 {
    struct Fnv(u64);
    impl Write for Fnv {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            for b in s.bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    write!(h, "{value:?}").expect("hashing never fails");
    h.0
}

/// Cut-off epochs seen reading busier than 1 (see [`preemption`]).
static KNOWN_DEFECTS: AtomicU64 = AtomicU64::new(0);

/// How often the known busy-fraction defect showed so far.
pub fn known_defects() -> u64 {
    KNOWN_DEFECTS.load(Ordering::Relaxed)
}

fn fail(what: &str, detail: impl fmt::Display) -> Result<(), String> {
    Err(format!("{what}: {detail}"))
}

fn unit_interval(what: &str, x: f64) -> Result<(), String> {
    if (0.0..=1.0).contains(&x) {
        Ok(())
    } else {
        fail(what, format!("{x} outside [0, 1]"))
    }
}

/// `p50 <= p95 <= p99 <= p99.9 <= max`, all finite and non-negative.
pub fn tails(what: &str, t: &LatencyQuantiles, max: Seconds) -> Result<(), String> {
    let chain = [t.p50, t.p95, t.p99, t.p999, max].map(Seconds::as_secs);
    let finite = chain.iter().all(|x| x.is_finite() && *x >= 0.0);
    if finite && chain.windows(2).all(|w| w[0] <= w[1]) {
        Ok(())
    } else {
        fail(what, format!("tails out of order {chain:?}"))
    }
}

fn balance(
    what: &str,
    offered: usize,
    served: usize,
    dropped: usize,
    flushed: usize,
) -> Result<(), String> {
    if offered == served + dropped + flushed {
        Ok(())
    } else {
        fail(
            what,
            format!("offered {offered} != served {served} + dropped {dropped} + flushed {flushed}"),
        )
    }
}

/// One `scenario_sweep` grid point.
pub fn scenario_point(p: &ScenarioPoint) -> Result<(), String> {
    let what = format!("{} on {}", p.scenario, p.package);
    unit_interval(&what, p.utilization)?;
    tails(&what, &p.tails, p.max_latency)
}

/// One `drive_sweep` outcome.
pub fn drive(o: &DriveOutcome) -> Result<(), String> {
    for s in &o.segments {
        let what = format!("{} on {}: {}", o.drive, o.package, s.scenario);
        balance(&what, s.offered, s.served, s.dropped, s.flushed)?;
        tails(&what, &s.tails, s.max_latency)?;
    }
    let served: usize = o.segments.iter().map(|s| s.served).sum();
    balance(
        &format!("{} on {}", o.drive, o.package),
        o.total_offered,
        served,
        o.total_dropped,
        o.total_flushed,
    )
}

fn phase(what: &str, r: &PhaseReport) -> Result<(), String> {
    // `served()` is `offered - dropped - flushed`, saturating: conservation
    // holds iff the losses fit in the offer and the steady-state window
    // fits in what was served.
    if r.dropped + r.flushed > r.offered {
        return fail(
            what,
            format!(
                "dropped {} + flushed {} > offered {}",
                r.dropped, r.flushed, r.offered
            ),
        );
    }
    if r.report.measured_frames > r.served() {
        return fail(
            what,
            format!(
                "measured {} > served {}",
                r.report.measured_frames,
                r.served()
            ),
        );
    }
    if let Some((_, busy)) = r.report.bottleneck() {
        // Known defect: `simulate_tenants` divides the busy time of
        // frames flushed at a cutoff by a span that ends at the cutoff,
        // so a cut-off epoch can read busier than 1. The law does not
        // hold there, so it is not checked there.
        if r.flushed == 0 {
            unit_interval(what, busy)?;
        } else if busy > 1.0 {
            KNOWN_DEFECTS.fetch_add(1, Ordering::Relaxed);
        }
    }
    tails(what, &r.report.tails, r.report.max_latency)
}

/// One `pack_fleet` outcome.
pub fn packing(o: &PackingOutcome) -> Result<(), String> {
    unit_interval(&format!("{} admission rate", o.config), o.admission_rate())?;
    for t in o.instances.iter().flat_map(|i| &i.tenants) {
        balance(
            &format!("{} on {}", t.name, o.config),
            t.offered,
            t.served,
            t.dropped,
            0,
        )?;
    }
    Ok(())
}

/// One `preemption_event` report.
pub fn preemption(r: &PreemptionReport) -> Result<(), String> {
    if !r.balanced() {
        return fail(
            &format!("preemption by {}", r.arriving),
            "unbalanced frames",
        );
    }
    for t in &r.tenants {
        if let Some(before) = &t.before {
            phase(&format!("{} before preemption", t.name), before)?;
        }
        phase(&format!("{} after preemption", t.name), &t.after)?;
    }
    Ok(())
}
