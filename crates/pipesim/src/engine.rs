//! The discrete-event engine: one core over K arrival streams on a
//! shared calendar, behind the thin adapters [`simulate`],
//! [`simulate_with_stats`], [`simulate_phases`] and [`simulate_tenants`].

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

use serde::{Deserialize, Serialize};

use npu_maestro::CostModel;
use npu_mcm::{ChipletId, McmPackage};
use npu_sched::rematch::RematchOutcome;
use npu_sched::{flatten_items, Schedule, SimItem};
use npu_tensor::Dtype;

use crate::arrivals::Arrivals;
use crate::report::{ReportBuilder, SimReport};

/// Simulation configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Number of frames to push through the pipeline.
    pub frames: usize,
    /// The frame arrival process (saturation, periodic, jittered, bursty
    /// or trace replay — see [`Arrivals`]).
    pub arrivals: Arrivals,
    /// Frames discarded from the steady-state statistics at **each end**
    /// of the run: the first `warmup` frames (pipeline fill) and the last
    /// `warmup` frames (pipeline drain). The report clamps the trim so
    /// the measured window keeps at least one frame.
    pub warmup: usize,
    /// NoP accounting datatype.
    pub dtype: Dtype,
}

impl SimConfig {
    /// Default symmetric trim for an `frames`-frame run: a quarter of the
    /// run from each end, capped at 4 frames. Short runs keep most of
    /// their frames measurable (`frames ≤ 4` trims at most one per end),
    /// long runs trim a fixed 4.
    pub fn default_warmup(frames: usize) -> usize {
        (frames / 4).min(4)
    }

    /// Saturation mode: measure the sustainable frame rate.
    pub fn saturated(frames: usize) -> Self {
        SimConfig::with_arrivals(frames, Arrivals::Saturated)
    }

    /// Camera mode: frames arrive at the given rate (e.g. 30 FPS).
    ///
    /// # Panics
    ///
    /// Panics if `fps` is not finite and positive (a zero or NaN rate
    /// would silently produce non-finite event times).
    pub fn camera(frames: usize, fps: f64) -> Self {
        SimConfig::with_arrivals(frames, Arrivals::periodic_fps(fps))
    }

    /// Any arrival process with the default warmup trim and datatype.
    pub fn with_arrivals(frames: usize, arrivals: Arrivals) -> Self {
        SimConfig {
            frames,
            arrivals,
            warmup: SimConfig::default_warmup(frames),
            dtype: Dtype::Fp16,
        }
    }

    /// Adds uniform arrival jitter (builder style). `frac` is clamped
    /// into `[0, 1)` (NaN clamps to 0) instead of poisoning event times.
    /// Saturated, bursty and trace arrivals have no per-frame interval to
    /// jitter and pass through unchanged.
    pub fn with_jitter(mut self, frac: f64, seed: u64) -> Self {
        let frac = Arrivals::clamp_jitter(frac);
        if let Arrivals::Periodic { interval } | Arrivals::Jittered { interval, .. } = self.arrivals
        {
            self.arrivals = Arrivals::Jittered {
                interval,
                frac,
                seed,
            };
        }
        self
    }
}

/// Priority: earlier frame first, then item (topological) order. A
/// frame's `rank` is its position in the global arrival order — by
/// (arrival time, stream, frame), so with one stream it is the frame
/// index — which makes the order total across streams. The pool slot
/// rides along as payload: two jobs of one frame always share a slot,
/// so ordering (and equality) ignore it.
#[derive(Debug, Clone, Copy)]
struct Job {
    rank: usize,
    /// Global item id (stream offset + topological index).
    item: u32,
    /// Index of the frame's recycled pool slot (payload, not priority).
    slot: u32,
}

impl PartialEq for Job {
    fn eq(&self, other: &Self) -> bool {
        (self.rank, self.item) == (other.rank, other.item)
    }
}

impl Eq for Job {}

impl Ord for Job {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        (other.rank, other.item).cmp(&(self.rank, self.item))
    }
}

impl PartialOrd for Job {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// One item-completion event on the calendar. Frame arrivals are not
/// heaped — the engine walks the (non-decreasing) arrival timestamps
/// with a cursor and interleaves them with the calendar in time order,
/// so the heap holds at most one event per chiplet.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Scheduled {
    time: f64,
    seq: u64,
    /// Dense chiplet index the job ran on.
    chiplet: u32,
    job: Job,
}

impl Eq for Scheduled {}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by time (then insertion order for determinism).
        // total_cmp keeps the heap order total even if a cost model
        // ever produced a NaN timestamp.
        other
            .time
            .total_cmp(&self.time)
            .then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Runs the discrete-event simulation of a schedule.
///
/// Every layer shard becomes a job on its chiplet; chiplets serve their
/// ready queues earliest-frame-first; a job starts when its same-frame
/// dependencies have completed and its chiplet is free.
pub fn simulate(
    schedule: &Schedule,
    pkg: &McmPackage,
    model: &dyn CostModel,
    cfg: &SimConfig,
) -> SimReport {
    simulate_with_stats(schedule, pkg, model, cfg).0
}

/// Engine-internal measurements of one DES pass: how big the run was and
/// how much state the engine actually held. The report is O(1) per frame;
/// these numbers let tests (and capacity planning) pin that bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Frames pushed through the pipeline.
    pub frames: usize,
    /// Most frames ever simultaneously in flight: the in-flight frame
    /// pool's high-water mark (= slots allocated; slots are recycled as
    /// frames complete, so this is the pool's final capacity too).
    pub peak_in_flight: usize,
}

/// [`simulate`], also returning the engine's [`EngineStats`] — the
/// 1M-frame smoke tests assert the in-flight pool stays bounded by the
/// schedule's natural pipelining depth, never the frame count.
pub fn simulate_with_stats(
    schedule: &Schedule,
    pkg: &McmPackage,
    model: &dyn CostModel,
    cfg: &SimConfig,
) -> (SimReport, EngineStats) {
    let times = cfg.arrivals.times(cfg.frames);
    // No frame arrives before the first one: the barrier admits all.
    let first = times.first().copied().unwrap_or(0.0);
    let stream = SimPhase {
        warmup: Some(cfg.warmup),
        ..SimPhase::new(schedule, times, Readiness::Barrier(first))
    };
    let streams = std::slice::from_ref(&stream);
    let mut flat = Flattened::new();
    flatten_into(&mut flat, streams, pkg, model, cfg.dtype);
    let (mut reports, stats) = Engine::new(streams, &flat).run();
    (reports.remove(0).report, stats)
}

/// When an incoming mapping can accept frames: either a package-wide
/// barrier (the legacy pessimistic model, and the exact semantics of a
/// full-diff transition, where no serving pipeline survives the switch)
/// or a make-before-break per-chiplet readiness schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum Readiness {
    /// No frame is admitted before this absolute instant. A phase with
    /// no spin-up at all is `Barrier(switch instant)`.
    Barrier(f64),
    /// Make-before-break handover at absolute instant `at`: chiplets
    /// that keep their program (or were prestaged over the outgoing
    /// tail) serve from `at`; `ready` lists the absolute times the
    /// still-reloading chiplets come back online. A frame is dropped
    /// only when its critical path would land on a chiplet that is
    /// still reloading when the wavefront gets there.
    PerChiplet {
        /// The switch instant: the earliest any frame can be admitted.
        at: f64,
        /// Absolute ready times of the stalled chiplets, ascending
        /// chiplet order.
        ready: Vec<(ChipletId, f64)>,
    },
}

impl Readiness {
    /// The readiness of a priced mapping transition switching at
    /// absolute time `at` (see `npu_sched::rematch`):
    ///
    /// - a no-op diff is live immediately (`Barrier(at)`);
    /// - a full-barrier diff — every incoming chiplet re-programmed out
    ///   of a busy state — quiesces the package and reproduces the old
    ///   scalar semantics exactly (`Barrier(at + latency)`);
    /// - any partial diff keeps serving on its kept/prestaged chiplets
    ///   and stalls only the re-programmed busy ones, each until its
    ///   staged post-switch ready time.
    pub fn make_before_break(outcome: &RematchOutcome, at: f64) -> Readiness {
        if outcome.is_noop() {
            Readiness::Barrier(at)
        } else if outcome.is_full_barrier() {
            Readiness::Barrier(at + outcome.latency.as_secs())
        } else {
            Readiness::PerChiplet {
                at,
                ready: outcome
                    .readiness
                    .iter()
                    .map(|&(c, r)| (c, at + r.as_secs()))
                    .collect(),
            }
        }
    }

    /// The instant the last gating resource is ready (`at` when nothing
    /// stalls).
    pub fn last_ready(&self) -> f64 {
        match self {
            Readiness::Barrier(t) => *t,
            Readiness::PerChiplet { at, ready } => {
                ready.iter().map(|&(_, r)| r).fold(*at, f64::max)
            }
        }
    }

    fn is_finite(&self) -> bool {
        match self {
            Readiness::Barrier(t) => t.is_finite(),
            Readiness::PerChiplet { at, ready } => {
                at.is_finite() && ready.iter().all(|(_, r)| r.is_finite())
            }
        }
    }
}

/// The effective admission instant of a schedule under a readiness
/// model: the latest arrival time that would still route some item of a
/// frame onto a chiplet that has not come back online.
///
/// `est[i]` — the earliest start of item `i` relative to its frame's
/// arrival — is the longest path into the item over the dependency DAG
/// (`flatten_items` indexes items topologically, so one forward pass
/// suffices). In the DES an item can only start **later** than
/// `arrival + est[i]` (queueing and chiplet contention — from the
/// stream's own frames or a co-running stream's — add delay, never
/// remove it), so a chiplet `c` whose earliest wavefront offset is
/// `offset[c] = min est[i]` over its items is first touched by a frame
/// arriving at `t` no earlier than `t + offset[c]`. Gating admission at
/// `max(ready[c] - offset[c])` is therefore *exact*: every admitted
/// frame provably never reaches a still-reloading chiplet, and every
/// dropped frame's critical path would have landed on one.
pub(crate) fn admission_gate(items: &[SimItem], readiness: &Readiness) -> f64 {
    let (at, ready) = match readiness {
        Readiness::Barrier(t) => return *t,
        Readiness::PerChiplet { at, ready } => (*at, ready),
    };
    let mut est = vec![0.0_f64; items.len()];
    for (i, item) in items.iter().enumerate() {
        let mut start: f64 = 0.0;
        for &d in &item.deps {
            start = start.max(est[d] + items[d].duration.as_secs());
        }
        est[i] = start;
    }
    let mut offset: BTreeMap<ChipletId, f64> = BTreeMap::new();
    for (i, item) in items.iter().enumerate() {
        let o = offset.entry(item.chiplet).or_insert(f64::INFINITY);
        *o = o.min(est[i]);
    }
    let mut gate = at;
    for (c, r) in ready {
        // A stalled chiplet hosting no work in this schedule gates
        // nothing (defensive: rematch only stalls incoming chiplets).
        if let Some(&o) = offset.get(c) {
            gate = gate.max(r - o);
        }
    }
    gate
}

/// One arrival stream: a compiled schedule serving absolute-time frame
/// arrivals under a [`Readiness`] model. [`simulate_phases`] runs
/// streams one after another as the phases of a time-varying run (a
/// drive's mode switches); [`simulate_tenants`] runs them concurrently
/// as tenants sharing one package. Frames arriving while the gating
/// resources are still spinning up are **dropped** — the re-match window
/// of an online mode switch — and counted in the stream's
/// [`PhaseReport`] instead of entering the pipeline.
#[derive(Debug, Clone)]
pub struct SimPhase<'a> {
    /// The stream's compiled schedule (a tenant's chiplet region is
    /// implied by its shard assignments).
    pub schedule: &'a Schedule,
    /// Absolute arrival timestamps of the stream's frames
    /// (non-decreasing).
    pub times: Vec<f64>,
    /// When the stream's mapping accepts frames: a package-wide barrier
    /// or a make-before-break per-chiplet schedule.
    pub readiness: Readiness,
    /// Symmetric steady-state trim for the stream's report (see
    /// [`SimConfig::warmup`]); `None` derives the default trim from the
    /// **served** frame count once admission drops are known.
    pub warmup: Option<usize>,
    /// Boundary instant at which the stream's in-flight frames are
    /// flushed: set when the *next* transition is a full barrier (the
    /// package or the tenant's region quiesces, killing in-flight work).
    /// `None` lets frames drain past the boundary — a make-before-break
    /// handover keeps the outgoing chiplets serving until their queues
    /// empty.
    pub cutoff: Option<f64>,
}

impl<'a> SimPhase<'a> {
    /// A stream that drains freely at its end (no boundary flush) with
    /// the default steady-state trim.
    pub fn new(schedule: &'a Schedule, times: Vec<f64>, readiness: Readiness) -> SimPhase<'a> {
        SimPhase {
            schedule,
            times,
            readiness,
            warmup: None,
            cutoff: None,
        }
    }
}

/// The measured behaviour of one [`SimPhase`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseReport {
    /// Steady-state statistics over the frames that were actually served.
    pub report: SimReport,
    /// Frames the arrival process offered to the phase.
    pub offered: usize,
    /// Frames dropped because they arrived before the admission gate.
    pub dropped: usize,
    /// Frames admitted but flushed in flight at the phase's end because
    /// the next transition quiesced the package.
    pub flushed: usize,
    /// The effective admission instant: the barrier time, or the
    /// make-before-break gate `max(ready[c] - wavefront offset[c])`
    /// clamped to the switch instant. The phase's spin-up charge is
    /// `admitted_from - switch instant`.
    pub admitted_from: f64,
}

impl PhaseReport {
    /// Frames that entered the pipeline and completed
    /// (`offered - dropped - flushed`).
    pub fn served(&self) -> usize {
        debug_assert!(
            self.dropped + self.flushed <= self.offered,
            "dropped ({}) + flushed ({}) exceeds offered ({})",
            self.dropped,
            self.flushed,
            self.offered
        );
        self.offered
            .saturating_sub(self.dropped)
            .saturating_sub(self.flushed)
    }
}

/// Runs a time-varying simulation: phases share one wall clock, and each
/// phase's schedule serves its own arrivals. This is the engine hook an
/// online mode switch compiles to — the schedule (and thus the compiled
/// `PerceptionConfig`) is swapped at every phase boundary under the
/// phase's [`Readiness`] model.
///
/// Under a [`Readiness::Barrier`] the old semantics apply exactly: every
/// frame arriving before the barrier instant is dropped. Under
/// [`Readiness::PerChiplet`] the handover is make-before-break — chiplets
/// that keep their program keep serving across the boundary (their
/// in-flight frames survive), only re-programmed chiplets stall, and a
/// frame is dropped only when its critical path would land on a chiplet
/// that is still reloading when the wavefront reaches it (the
/// arrival-time gate is exact because DES contention only ever delays
/// item starts past their dependency-chain earliest times).
///
/// In-flight frames cross boundaries according to the *next* phase's
/// handover: a make-before-break switch lets the outgoing queues drain
/// (`cutoff = None`), a full-barrier switch quiesces the package and
/// flushes them (`cutoff = Some(boundary)`), counted per phase so
/// `offered == served + dropped + flushed` always balances. Per-phase
/// busy fractions are relative to each phase's own span and count only
/// service before the phase's cutoff.
///
/// Each phase is one engine pass of its own. A single phase with
/// readiness at or before its first arrival is exactly [`simulate`] —
/// same event order, bit-identical statistics — which the
/// cross-validation suite pins.
///
/// # Panics
///
/// Panics if a phase's schedule is empty, its times are not finite and
/// non-decreasing, or its readiness is not finite.
pub fn simulate_phases(
    phases: &[SimPhase<'_>],
    pkg: &McmPackage,
    model: &dyn CostModel,
    dtype: Dtype,
) -> Vec<PhaseReport> {
    let mut flat = Flattened::new();
    phases
        .iter()
        .map(|phase| {
            let phase = std::slice::from_ref(phase);
            flatten_into(&mut flat, phase, pkg, model, dtype);
            Engine::new(phase, &flat).run().0.remove(0)
        })
        .collect()
}

/// Co-simulates K tenant streams on one package through a shared event
/// calendar, returning one tenant-tagged [`PhaseReport`] per stream (in
/// input order): per-tenant steady-state statistics over the frames that
/// were actually served, plus offered/dropped/flushed counts.
///
/// Tenants whose schedules touch the same chiplet contend for it in
/// global (arrival time, stream, frame) priority order — a frame
/// arriving earlier goes first, and same-instant arrivals resolve by
/// input order. Tenants on disjoint regions are bit-identical to
/// standalone [`simulate_phases`] runs, and a single stream is exactly
/// a one-phase [`simulate_phases`] run. Each tenant's report exposes
/// busy fractions for the chiplets its own schedule uses — on a shared
/// chiplet that is the chiplet's *total* utilization over the tenant's
/// observed span, since the silicon does not idle between tenants.
///
/// # Panics
///
/// Panics if a stream's schedule is empty, its times are not finite and
/// non-decreasing, or its readiness is not finite.
pub fn simulate_tenants(
    streams: &[SimPhase<'_>],
    pkg: &McmPackage,
    model: &dyn CostModel,
    dtype: Dtype,
) -> Vec<PhaseReport> {
    let mut flat = Flattened::new();
    flatten_into(&mut flat, streams, pkg, model, dtype);
    Engine::new(streams, &flat).run().0
}

/// Flattened items per distinct schedule of one call.
type Flattened = BTreeMap<*const Schedule, Vec<SimItem>>;

/// Flattens each schedule of `streams` not yet in `flat`: every
/// distinct schedule is flattened once per call. Drives re-enter the
/// same compiled schedule for many phases, so keying on the reference's
/// address pays; it is sound because every stream borrows its schedule
/// for the whole call, so two equal pointers are the same live
/// `Schedule`.
fn flatten_into(
    flat: &mut Flattened,
    streams: &[SimPhase<'_>],
    pkg: &McmPackage,
    model: &dyn CostModel,
    dtype: Dtype,
) {
    for s in streams {
        flat.entry(s.schedule as *const Schedule)
            .or_insert_with(|| flatten_items(s.schedule, pkg, model, dtype));
    }
}

/// Per-stream run state: the stream's slice of the global item table,
/// its arrival cursor, its free pool slots, its streaming report and
/// its admission accounting.
struct Lane<'a> {
    /// Arrival times of the frames admitted past the gate.
    times: &'a [f64],
    /// Arrival cursor: the stream's frames `0..arrived` have arrived.
    arrived: usize,
    /// Global id of the stream's first item.
    offset: usize,
    /// The stream's item count.
    n_items: usize,
    /// Dense chiplet index of each root item in item order: the dispatch
    /// fan-out of one frame arrival.
    root_dispatch: Vec<u32>,
    /// Sorted dense indices of the chiplets the stream's schedule uses
    /// (its report's busy map).
    chiplets: Vec<u32>,
    /// Recycled pool slots sized for this stream.
    free_slots: Vec<u32>,
    /// Completion reorder ring: `commit[i]` holds the completion time of
    /// frame `commit_next + i` (NaN = still in flight). Completions
    /// commit out of frame order; the ring drains them back in order.
    commit: VecDeque<f64>,
    commit_next: usize,
    report: ReportBuilder,
    /// Frames offered, and dropped before the gate at `gate`.
    offered: usize,
    dropped: usize,
    gate: f64,
}

/// A virtual root cursor: the earliest not-yet-started root job of one
/// stream on one chiplet is `(frame, roots[idx])`, so a backlog of
/// arrived-but-unstarted frames costs no queue entries.
struct RootCursor {
    stream: u32,
    /// Global ids of the stream's root items on this chiplet, ascending.
    roots: Vec<u32>,
    frame: usize,
    idx: usize,
    /// Global arrival rank of `frame` (cached: it changes once a frame).
    rank: usize,
}

/// One pooled in-flight frame: per-item remaining-dependency counters
/// of its stream's items (reset from the template on reuse) plus the
/// count of items left.
struct FrameSlot {
    stream: u32,
    /// Global id of the stream's first item.
    offset: u32,
    frame: usize,
    deps_left: Vec<u32>,
    remaining: u32,
}

/// The DES core over K streams on one event calendar. Peak memory is
/// O(items × in-flight frames), never O(frames):
///
/// - frame dependency state lives in a recycled pool slot, allocated when
///   the frame's **first job starts** (not when it arrives — a saturated
///   run offers every frame at t = 0) and freed when its last completes;
/// - arrivals are walked with per-stream cursors, merged in (time,
///   stream) order and interleaved with the completion calendar in time
///   order, with arrivals winning time ties;
/// - root jobs (no dependencies) of arrived frames are represented by
///   per-(chiplet, stream) [`RootCursor`]s instead of queue entries;
/// - item and chiplet state is dense `Vec`s: each stream's items occupy
///   one slice of a global table, chiplets are indexed by the sorted
///   distinct chiplet list, built once per run;
/// - statistics stream through each stream's [`ReportBuilder`] via a
///   small reorder ring that commits completions back into frame order.
///
/// Jobs are served by (arrival rank, item). Chiplet busy time is global
/// (a shared chiplet is busy no matter whose frame it serves).
struct Engine<'a> {
    // Per-run prep (immutable during the run).
    /// Sorted distinct chiplets hosting work; dense index = position.
    chiplet_ids: Vec<ChipletId>,
    /// Dense chiplet index of each item.
    chiplet_of: Vec<u32>,
    /// Service time of each item in seconds.
    durations: Vec<f64>,
    /// Reverse dependency lists, ascending item order (edges stay within
    /// one stream's item range).
    dependents: Vec<Vec<u32>>,
    /// Dependency counts, copied into a pool slot on (re)allocation.
    deps_template: Vec<u32>,

    lanes: Vec<Lane<'a>>,
    /// The next frame to arrive: (time, stream), ties to the lower
    /// stream.
    next_arrival: Option<(f64, usize)>,
    /// Frames arrived over all streams. Frames arrive in rank order, so
    /// a frame has arrived iff its rank is below this.
    arrived: usize,

    // Event calendar: item completions only.
    heap: BinaryHeap<Scheduled>,
    seq: u64,

    // Per-chiplet executors (dense).
    /// Ready non-root jobs per chiplet (roots stay virtual).
    queues: Vec<BinaryHeap<Job>>,
    busy_until: Vec<f64>,
    busy_time: Vec<f64>,
    /// Per-chiplet busy seconds before each cut-off stream's cutoff:
    /// `(stream, cutoff, busy)`. Such a stream's span ends at its cutoff,
    /// so service running past it must not count toward its busy
    /// fractions; every other stream reads `busy_time`.
    clipped: Vec<(usize, f64, Vec<f64>)>,
    /// Root cursors per chiplet, ascending stream order.
    cursors: Vec<Vec<RootCursor>>,

    // Bounded in-flight frame pool (slots keep their stream).
    pool: Vec<FrameSlot>,
    slot_of_frame: BTreeMap<usize, u32>,
    peak_in_flight: usize,
}

impl<'a> Engine<'a> {
    /// Checks and admits every stream — the one entry path of all the
    /// adapters — and builds the dense run state.
    fn new(streams: &'a [SimPhase<'_>], flat: &'a Flattened) -> Engine<'a> {
        let items_of = |s: &SimPhase<'_>| &flat[&(s.schedule as *const Schedule)];
        let mut chiplet_ids: Vec<ChipletId> = streams
            .iter()
            .flat_map(|s| items_of(s).iter().map(|it| it.chiplet))
            .collect();
        chiplet_ids.sort_unstable();
        chiplet_ids.dedup();
        let n_chiplets = chiplet_ids.len();
        let dense = |c: ChipletId| {
            chiplet_ids
                .binary_search(&c)
                .expect("chiplet registered by prep") as u32
        };

        let mut chiplet_of = Vec::new();
        let mut durations = Vec::new();
        let mut deps_template = Vec::new();
        let mut dependents: Vec<Vec<u32>> = Vec::new();
        let mut cursors: Vec<Vec<RootCursor>> = (0..n_chiplets).map(|_| Vec::new()).collect();
        let mut lanes = Vec::with_capacity(streams.len());
        for (k, s) in streams.iter().enumerate() {
            assert!(
                s.times.windows(2).all(|w| w[0] <= w[1]) && s.times.iter().all(|t| t.is_finite()),
                "arrival times must be finite and non-decreasing"
            );
            assert!(s.readiness.is_finite(), "readiness must be finite");
            let items = items_of(s);
            assert!(!items.is_empty(), "cannot simulate an empty schedule");
            // Times are non-decreasing, so the served frames are exactly
            // the suffix from the first arrival at or after the gate.
            let gate = admission_gate(items, &s.readiness);
            let dropped = s.times.partition_point(|&t| t < gate);
            let times = &s.times[dropped..];
            // Post-drop trim (the offered count would misalign the
            // steady-state window after a heavy-drop transition).
            let warmup = s
                .warmup
                .unwrap_or_else(|| SimConfig::default_warmup(times.len()));
            let offset = chiplet_of.len();
            dependents.resize(offset + items.len(), Vec::new());
            let mut root_dispatch = Vec::new();
            for (i, item) in items.iter().enumerate() {
                let c = dense(item.chiplet);
                let gi = (offset + i) as u32;
                chiplet_of.push(c);
                durations.push(item.duration.as_secs());
                deps_template.push(item.deps.len() as u32);
                for &d in &item.deps {
                    dependents[offset + d].push(gi);
                }
                if item.deps.is_empty() {
                    match cursors[c as usize].last_mut() {
                        Some(cur) if cur.stream == k as u32 => cur.roots.push(gi),
                        _ => cursors[c as usize].push(RootCursor {
                            stream: k as u32,
                            roots: vec![gi],
                            frame: 0,
                            idx: 0,
                            rank: 0,
                        }),
                    }
                    root_dispatch.push(c);
                }
            }
            let mut chiplets: Vec<u32> = chiplet_of[offset..].to_vec();
            chiplets.sort_unstable();
            chiplets.dedup();
            lanes.push(Lane {
                times,
                arrived: 0,
                offset,
                n_items: items.len(),
                root_dispatch,
                chiplets,
                free_slots: Vec::new(),
                commit: VecDeque::new(),
                commit_next: 0,
                report: ReportBuilder::new(times.len(), warmup, s.cutoff),
                offered: s.times.len(),
                dropped,
                gate,
            });
        }

        let mut engine = Engine {
            chiplet_ids,
            chiplet_of,
            durations,
            dependents,
            deps_template,
            lanes,
            next_arrival: None,
            arrived: 0,
            heap: BinaryHeap::new(),
            seq: 0,
            queues: (0..n_chiplets).map(|_| BinaryHeap::new()).collect(),
            busy_until: vec![0.0; n_chiplets],
            busy_time: vec![0.0; n_chiplets],
            clipped: streams
                .iter()
                .enumerate()
                .filter_map(|(k, s)| s.cutoff.map(|at| (k, at, vec![0.0; n_chiplets])))
                .collect(),
            cursors,
            pool: Vec::new(),
            slot_of_frame: BTreeMap::new(),
            peak_in_flight: 0,
        };
        engine.next_arrival = engine.scan_next_arrival();
        for c in 0..n_chiplets {
            for e in 0..engine.cursors[c].len() {
                engine.cursors[c][e].rank = engine.rank(engine.cursors[c][e].stream as usize, 0);
            }
        }
        engine
    }

    /// Runs the simulation, returning each stream's report in stream
    /// order.
    fn run(mut self) -> (Vec<PhaseReport>, EngineStats) {
        loop {
            // Interleave the arrival cursors with the completion calendar
            // in time order; `<=` lets arrivals win ties, matching the
            // event order of the heaped-arrivals engine bit for bit.
            let arrival_due = match (self.next_arrival, self.heap.peek()) {
                (Some((t, _)), Some(top)) => t <= top.time,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if arrival_due {
                self.process_arrival();
            } else {
                self.process_completion();
            }
        }
        debug_assert!(
            self.lanes.iter().all(|l| l.commit_next == l.times.len()),
            "all frames committed"
        );
        debug_assert_eq!(self.slot_of_frame.len(), 0, "all slots recycled");

        let mut stats = EngineStats {
            frames: 0,
            peak_in_flight: self.peak_in_flight,
        };
        let reports = self
            .lanes
            .into_iter()
            .enumerate()
            .map(|(k, lane)| {
                // The stream's view of the silicon: busy seconds of each
                // chiplet its schedule uses; the builder normalizes by
                // the stream's own observed span.
                let busy_time = self
                    .clipped
                    .iter()
                    .find(|(j, ..)| *j == k)
                    .map_or(&self.busy_time, |(_, _, b)| b);
                let busy: BTreeMap<ChipletId, f64> = lane
                    .chiplets
                    .iter()
                    .map(|&d| (self.chiplet_ids[d as usize], busy_time[d as usize]))
                    .collect();
                let flushed = lane.report.flushed();
                stats.frames += lane.times.len();
                PhaseReport {
                    report: lane.report.finish(&busy),
                    offered: lane.offered,
                    dropped: lane.dropped,
                    flushed,
                    admitted_from: lane.gate,
                }
            })
            .collect();
        (reports, stats)
    }

    /// The earliest pending arrival over all streams, ties to the lower
    /// stream index.
    fn scan_next_arrival(&self) -> Option<(f64, usize)> {
        let mut next: Option<(f64, usize)> = None;
        for (k, lane) in self.lanes.iter().enumerate() {
            if let Some(&t) = lane.times.get(lane.arrived) {
                if next.is_none_or(|(best, _)| t < best) {
                    next = Some((t, k));
                }
            }
        }
        next
    }

    /// The global arrival rank of stream `k`'s frame `f`: its position in
    /// the (time, stream, frame) order of all streams' arrivals. Earlier
    /// streams' frames at the same instant precede it, later streams'
    /// follow. With one stream this is `f`.
    fn rank(&self, k: usize, f: usize) -> usize {
        // Past the stream's last frame the rank reaches the total frame
        // count, so the cursor never fires again.
        let t = self.lanes[k].times.get(f).copied().unwrap_or(f64::INFINITY);
        let mut rank = f;
        for (j, lane) in self.lanes.iter().enumerate() {
            if j < k {
                rank += lane.times.partition_point(|&u| u <= t);
            } else if j > k {
                rank += lane.times.partition_point(|&u| u < t);
            }
        }
        rank
    }

    /// Admits the next frame: advances its stream's cursor and offers
    /// each root job's chiplet a dispatch, in item order — the same
    /// per-root enqueue-then-dispatch cadence as the old arrival event.
    fn process_arrival(&mut self) {
        let (now, k) = self.next_arrival.expect("arrival due");
        self.lanes[k].arrived += 1;
        self.arrived += 1;
        self.next_arrival = self.scan_next_arrival();
        for i in 0..self.lanes[k].root_dispatch.len() {
            self.dispatch(self.lanes[k].root_dispatch[i] as usize, now);
        }
    }

    /// Starts the next ready job on chiplet `c` if it is free: the
    /// earliest of the explicit queue head and the arrived root cursors
    /// by (rank, item) — roots never sit in the explicit queue and ranks
    /// are unique per frame, so no two candidates tie.
    fn dispatch(&mut self, c: usize, now: f64) {
        if self.busy_until[c] > now {
            return;
        }
        // The earliest arrived root cursor: (rank, item) and its index.
        let mut key = (usize::MAX, u32::MAX);
        let mut virt = None;
        for (e, cur) in self.cursors[c].iter().enumerate() {
            if cur.rank < self.arrived && (cur.rank, cur.roots[cur.idx]) < key {
                key = (cur.rank, cur.roots[cur.idx]);
                virt = Some(e);
            }
        }
        let job = match (self.queues[c].peek(), virt) {
            (Some(j), _) if (j.rank, j.item) <= key => self.queues[c].pop().expect("peeked"),
            (_, Some(e)) => self.take_virtual(c, e),
            _ => return,
        };
        self.start(c, job, now);
    }

    /// Materializes root cursor `e` of chiplet `c` into a real job,
    /// allocating (or reusing) the frame's pool slot — the first moment
    /// the frame costs any per-frame memory.
    fn take_virtual(&mut self, c: usize, e: usize) -> Job {
        let cur = &mut self.cursors[c][e];
        let (k, frame, rank, item) = (cur.stream as usize, cur.frame, cur.rank, cur.roots[cur.idx]);
        cur.idx += 1;
        if cur.idx == cur.roots.len() {
            cur.idx = 0;
            cur.frame += 1;
            self.cursors[c][e].rank = self.rank(k, frame + 1);
        }
        let slot = self.slot_for(k, frame, rank);
        Job { rank, item, slot }
    }

    /// The frame's pool slot: existing, recycled off its stream's free
    /// list, or — only when every slot is genuinely in flight — freshly
    /// grown.
    fn slot_for(&mut self, k: usize, frame: usize, rank: usize) -> u32 {
        if let Some(&s) = self.slot_of_frame.get(&rank) {
            return s;
        }
        let lane = &mut self.lanes[k];
        let template = &self.deps_template[lane.offset..lane.offset + lane.n_items];
        let s = match lane.free_slots.pop() {
            Some(s) => {
                let slot = &mut self.pool[s as usize];
                slot.frame = frame;
                slot.deps_left.copy_from_slice(template);
                slot.remaining = lane.n_items as u32;
                s
            }
            None => {
                self.pool.push(FrameSlot {
                    stream: k as u32,
                    offset: lane.offset as u32,
                    frame,
                    deps_left: template.to_vec(),
                    remaining: lane.n_items as u32,
                });
                (self.pool.len() - 1) as u32
            }
        };
        self.slot_of_frame.insert(rank, s);
        self.peak_in_flight = self.peak_in_flight.max(self.slot_of_frame.len());
        s
    }

    fn start(&mut self, c: usize, job: Job, now: f64) {
        let dur = self.durations[job.item as usize];
        let end = now + dur;
        self.busy_until[c] = end;
        self.busy_time[c] += dur;
        for (_, cutoff, busy) in &mut self.clipped {
            busy[c] += if end <= *cutoff {
                dur
            } else {
                (*cutoff - now).max(0.0)
            };
        }
        self.seq += 1;
        self.heap.push(Scheduled {
            time: end,
            seq: self.seq,
            chiplet: c as u32,
            job,
        });
    }

    fn process_completion(&mut self) {
        let Scheduled {
            time, chiplet, job, ..
        } = self.heap.pop().expect("completion event due");
        let s = job.slot as usize;
        let item = job.item as usize;
        self.pool[s].remaining -= 1;
        if self.pool[s].remaining == 0 {
            let k = self.pool[s].stream as usize;
            // The frame's last item has no incomplete dependents (a
            // dependent cannot finish before its dependency), so the
            // slot retires immediately.
            debug_assert!(self.dependents[item].is_empty(), "last item has dependents");
            self.slot_of_frame.remove(&job.rank);
            self.lanes[k].free_slots.push(job.slot);
            self.commit_completion(k, self.pool[s].frame, time);
        } else {
            let offset = self.pool[s].offset as usize;
            for di in 0..self.dependents[item].len() {
                let succ = self.dependents[item][di] as usize;
                self.pool[s].deps_left[succ - offset] -= 1;
                if self.pool[s].deps_left[succ - offset] == 0 {
                    let c2 = self.chiplet_of[succ] as usize;
                    self.queues[c2].push(Job {
                        rank: job.rank,
                        item: succ as u32,
                        slot: job.slot,
                    });
                    self.dispatch(c2, time);
                }
            }
        }
        self.dispatch(chiplet as usize, time);
    }

    /// Parks an out-of-order completion in stream `k`'s reorder ring and
    /// drains every now-contiguous frame into its streaming report.
    fn commit_completion(&mut self, k: usize, frame: usize, time: f64) {
        let lane = &mut self.lanes[k];
        let pos = frame - lane.commit_next;
        if pos >= lane.commit.len() {
            lane.commit.resize(pos + 1, f64::NAN);
        }
        lane.commit[pos] = time;
        while let Some(&front) = lane.commit.front() {
            if front.is_nan() {
                break;
            }
            lane.commit.pop_front();
            lane.report
                .record(lane.commit_next, lane.times[lane.commit_next], front);
            lane.commit_next += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use npu_dnn::models::attention::{fusion_block, FusionConfig};
    use npu_dnn::StageKind;
    use npu_maestro::FittedMaestro;
    use npu_sched::{LayerPlan, ModelPlan, StagePlan};
    use npu_tensor::Seconds;

    /// Small-run warmup clamping: a quarter of the run per end, capped
    /// at 4, so `frames ≤ 4` never trims the window away.
    #[test]
    fn default_warmup_clamps_small_runs() {
        for (frames, expected) in [
            (0, 0),
            (1, 0),
            (2, 0),
            (3, 0),
            (4, 1),
            (8, 2),
            (12, 3),
            (16, 4),
            (1000, 4),
        ] {
            assert_eq!(
                SimConfig::saturated(frames).warmup,
                expected,
                "saturated({frames})"
            );
            assert_eq!(
                SimConfig::camera(frames, 30.0).warmup,
                expected,
                "camera({frames})"
            );
        }
    }

    /// A `frames ≤ 4` saturation run keeps a non-degenerate window: the
    /// interval comes from real completion deltas, not the fallback.
    #[test]
    fn four_frame_run_measures_a_real_interval() {
        let g = fusion_block(&FusionConfig::spatial_default());
        let pkg = McmPackage::simba_6x6();
        let model = FittedMaestro::new();
        let schedule = Schedule {
            stages: vec![StagePlan {
                kind: StageKind::SpatialFusion,
                models: vec![ModelPlan::on_single_chiplet("s", g, ChipletId(0))],
                region: vec![ChipletId(0)],
            }],
        };
        let rep = simulate(&schedule, &pkg, &model, &SimConfig::saturated(4));
        // warmup = 1 per end: two frames stay measurable.
        assert_eq!(rep.measured_frames, 2);
        let analytic = npu_sched::evaluate(&schedule, &pkg, &model, Dtype::Fp16).pipe;
        let rel = (rep.steady_interval.as_secs() / analytic.as_secs() - 1.0).abs();
        assert!(
            rel < 1e-9,
            "DES {} vs analytic {}",
            rep.steady_interval,
            analytic
        );
    }

    /// A chain on a single chiplet: interval must equal the serial sum.
    #[test]
    fn single_chiplet_chain_interval_is_serial_sum() {
        let g = fusion_block(&FusionConfig::spatial_default());
        let pkg = McmPackage::simba_6x6();
        let model = FittedMaestro::new();
        let schedule = Schedule {
            stages: vec![StagePlan {
                kind: StageKind::SpatialFusion,
                models: vec![ModelPlan::on_single_chiplet("s", g, ChipletId(0))],
                region: vec![ChipletId(0)],
            }],
        };
        let rep = simulate(&schedule, &pkg, &model, &SimConfig::saturated(8));
        let analytic = npu_sched::evaluate(&schedule, &pkg, &model, Dtype::Fp16).pipe;
        let rel = (rep.steady_interval.as_secs() / analytic.as_secs() - 1.0).abs();
        assert!(
            rel < 1e-9,
            "DES {} vs analytic {}",
            rep.steady_interval,
            analytic
        );
    }

    /// Two chiplets in a chain pipeline at the busier one's rate.
    #[test]
    fn two_stage_chain_pipelines() {
        let g = fusion_block(&FusionConfig::spatial_default());
        let pkg = McmPackage::simba_6x6();
        let model = FittedMaestro::new();
        // qkv on c0, everything else on c1.
        let mut mp = ModelPlan::on_single_chiplet("s", g.clone(), ChipletId(1));
        let qkv = g.find("s_fuse.qkv").unwrap();
        *mp.layer_plan_mut(qkv) = LayerPlan::single(g.layer(qkv).clone(), ChipletId(0));
        let schedule = Schedule {
            stages: vec![StagePlan {
                kind: StageKind::SpatialFusion,
                models: vec![mp],
                region: vec![ChipletId(0), ChipletId(1)],
            }],
        };
        let rep = simulate(&schedule, &pkg, &model, &SimConfig::saturated(12));
        let analytic = npu_sched::evaluate(&schedule, &pkg, &model, Dtype::Fp16).pipe;
        let rel = (rep.steady_interval.as_secs() / analytic.as_secs() - 1.0).abs();
        assert!(
            rel < 0.02,
            "DES {} vs analytic {}",
            rep.steady_interval,
            analytic
        );
        // Latency of one frame exceeds the interval (pipelining).
        assert!(rep.mean_latency > rep.steady_interval);
    }

    /// Jittered arrivals stay deterministic per seed and do not change
    /// the saturation throughput.
    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let g = fusion_block(&FusionConfig::spatial_default());
        let pkg = McmPackage::simba_6x6();
        let model = FittedMaestro::new();
        let schedule = Schedule {
            stages: vec![StagePlan {
                kind: StageKind::SpatialFusion,
                models: vec![ModelPlan::on_single_chiplet("s", g, ChipletId(0))],
                region: vec![ChipletId(0)],
            }],
        };
        let cfg = SimConfig::camera(10, 2.0).with_jitter(0.2, 42);
        let a = simulate(&schedule, &pkg, &model, &cfg);
        let b = simulate(&schedule, &pkg, &model, &cfg);
        assert_eq!(a, b, "same seed, same result");
        let other = simulate(
            &schedule,
            &pkg,
            &model,
            &SimConfig::camera(10, 2.0).with_jitter(0.2, 7),
        );
        // Jittered completions shift the measured interval per seed.
        assert_ne!(a.steady_interval, other.steady_interval, "seed matters");
        // Jitter shifts arrivals by < one interval: latency stays sane.
        assert!(a.max_latency.as_secs() < 1.5);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn camera_rejects_zero_fps() {
        let _ = SimConfig::camera(8, 0.0);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn camera_rejects_non_finite_fps() {
        let _ = SimConfig::camera(8, f64::INFINITY);
    }

    /// Out-of-range jitter fractions clamp into `[0, 1)` instead of
    /// poisoning arrival times (NaN clamps to zero).
    #[test]
    fn jitter_fraction_is_clamped() {
        let frac = |cfg: &SimConfig| match cfg.arrivals {
            Arrivals::Jittered { frac, .. } => frac,
            ref a => panic!("expected jittered arrivals, got {a:?}"),
        };
        let base = || SimConfig::camera(8, 30.0);
        assert_eq!(frac(&base().with_jitter(1.5, 0)), Arrivals::MAX_JITTER);
        assert_eq!(frac(&base().with_jitter(-0.3, 0)), 0.0);
        assert_eq!(frac(&base().with_jitter(f64::NAN, 0)), 0.0);
        assert_eq!(frac(&base().with_jitter(0.25, 0)), 0.25);
        // Every clamped config expands to finite arrival times.
        for cfg in [base().with_jitter(1.5, 1), base().with_jitter(f64::NAN, 1)] {
            assert!(cfg.arrivals.times(cfg.frames).iter().all(|t| t.is_finite()));
        }
        // Saturation has no interval to jitter: unchanged.
        let sat = SimConfig::saturated(8).with_jitter(0.5, 1);
        assert_eq!(sat.arrivals, Arrivals::Saturated);
    }

    /// Bursty arrivals: the steady interval settles at the mean burst
    /// rate when the pipeline keeps up.
    #[test]
    fn bursty_arrivals_settle_at_mean_rate() {
        let g = fusion_block(&FusionConfig::spatial_default());
        let pkg = McmPackage::simba_6x6();
        let model = FittedMaestro::new();
        let schedule = Schedule {
            stages: vec![StagePlan {
                kind: StageKind::SpatialFusion,
                models: vec![ModelPlan::on_single_chiplet("s", g, ChipletId(0))],
                region: vec![ChipletId(0)],
            }],
        };
        // Bursts of 4 frames every 4 s: mean interval 1 s, and both the
        // 0.4 s intra-burst spacing and the inter-burst gap exceed the
        // ~366 ms service time, so every frame is arrival-limited. 17
        // frames with the default warmup of 4 puts the measured window at
        // frames 4..=12 — exactly two whole bursts, so the windowed
        // interval estimator sees the mean rate with no phase bias.
        let arrivals = Arrivals::Bursty {
            period: Seconds::new(4.0),
            burst: 4,
            intra: Seconds::new(0.4),
        };
        let rep = simulate(
            &schedule,
            &pkg,
            &model,
            &SimConfig::with_arrivals(17, arrivals.clone()),
        );
        let mean = arrivals.mean_interval().unwrap().as_secs();
        let rel = (rep.steady_interval.as_secs() / mean - 1.0).abs();
        assert!(rel < 1e-9, "DES {} vs mean {}", rep.steady_interval, mean);
    }

    /// Trace replay reproduces recorded arrival times exactly.
    #[test]
    fn trace_replay_is_exact_and_deterministic() {
        let g = fusion_block(&FusionConfig::spatial_default());
        let pkg = McmPackage::simba_6x6();
        let model = FittedMaestro::new();
        let schedule = Schedule {
            stages: vec![StagePlan {
                kind: StageKind::SpatialFusion,
                models: vec![ModelPlan::on_single_chiplet("s", g, ChipletId(0))],
                region: vec![ChipletId(0)],
            }],
        };
        let trace = Arrivals::trace(vec![
            Seconds::new(0.0),
            Seconds::new(0.5),
            Seconds::new(1.2),
            Seconds::new(2.0),
        ]);
        let cfg = SimConfig::with_arrivals(8, trace);
        let a = simulate(&schedule, &pkg, &model, &cfg);
        let b = simulate(&schedule, &pkg, &model, &cfg);
        assert_eq!(a, b, "trace replay is deterministic");
        assert!(a.measured_frames > 0);
    }

    /// Regression (ISSUE 8): busy fractions must divide by the run's
    /// observed span, not the absolute completion clock. A phase starting
    /// at t ≫ 0 used to underreport utilization by its offset — the same
    /// workload shifted 100 s later looked ~100× idler.
    #[test]
    fn busy_fraction_is_offset_invariant() {
        let g = fusion_block(&FusionConfig::spatial_default());
        let pkg = McmPackage::simba_6x6();
        let model = FittedMaestro::new();
        let schedule = Schedule {
            stages: vec![StagePlan {
                kind: StageKind::SpatialFusion,
                models: vec![ModelPlan::on_single_chiplet("s", g, ChipletId(0))],
                region: vec![ChipletId(0)],
            }],
        };
        let times: Vec<f64> = (0..8).map(|f| f as f64 * 0.5).collect();
        let phase_at = |offset: f64| SimPhase {
            schedule: &schedule,
            times: times.iter().map(|t| t + offset).collect(),
            readiness: Readiness::Barrier(offset),
            warmup: Some(1),
            cutoff: None,
        };
        let base = &simulate_phases(&[phase_at(0.0)], &pkg, &model, Dtype::Fp16)[0];
        let late = &simulate_phases(&[phase_at(100.0)], &pkg, &model, Dtype::Fp16)[0];
        let b0 = base.report.busy_fraction(ChipletId(0)).unwrap();
        let b1 = late.report.busy_fraction(ChipletId(0)).unwrap();
        assert!(b0 > 0.1, "workload keeps the chiplet visibly busy: {b0}");
        // Equal up to the rounding of (100 + c) - (100 + a); the old
        // makespan-normalized code reported b1 ≈ b0 / 26 here.
        assert!(
            (b1 / b0 - 1.0).abs() < 1e-9,
            "offset by 100 s changed utilization: {b0} vs {b1}"
        );
    }

    /// A phase whose frames all land inside the re-match window serves
    /// nothing: `served()` is 0 and the report is the zero-frame report,
    /// with no O(frames) scratch behind it.
    #[test]
    fn all_frames_dropped_phase_reports_zero() {
        let g = fusion_block(&FusionConfig::spatial_default());
        let pkg = McmPackage::simba_6x6();
        let model = FittedMaestro::new();
        let schedule = Schedule {
            stages: vec![StagePlan {
                kind: StageKind::SpatialFusion,
                models: vec![ModelPlan::on_single_chiplet("s", g, ChipletId(0))],
                region: vec![ChipletId(0)],
            }],
        };
        let phase = SimPhase {
            schedule: &schedule,
            times: vec![0.0, 0.1, 0.2],
            readiness: Readiness::Barrier(1.0),
            warmup: Some(1),
            cutoff: None,
        };
        let rep = &simulate_phases(&[phase], &pkg, &model, Dtype::Fp16)[0];
        assert_eq!(rep.offered, 3);
        assert_eq!(rep.dropped, 3);
        assert_eq!(rep.served(), 0);
        assert_eq!(rep.report.measured_frames, 0);
        assert!(rep.report.steady_interval.is_zero());
        assert_eq!(rep.report.busy_fraction(ChipletId(0)), Some(0.0));
    }

    /// The admission gate charges each stalled chiplet's ready time
    /// minus its earliest wavefront offset, clamped to the switch
    /// instant, and ignores stalled chiplets hosting no work.
    #[test]
    fn admission_gate_uses_the_wavefront_offset() {
        use npu_sched::SimItem;
        // c0 feeds c1: a frame reaches c1 only 0.3 s after arrival.
        let items = vec![
            SimItem {
                name: "s/m/a#0".into(),
                chiplet: ChipletId(0),
                duration: Seconds::new(0.3),
                deps: vec![],
            },
            SimItem {
                name: "s/m/b#0".into(),
                chiplet: ChipletId(1),
                duration: Seconds::new(0.1),
                deps: vec![0],
            },
        ];
        let gate = |ready: Vec<(ChipletId, f64)>| {
            admission_gate(&items, &Readiness::PerChiplet { at: 5.0, ready })
        };
        // Barrier passes through untouched.
        assert_eq!(admission_gate(&items, &Readiness::Barrier(7.5)), 7.5);
        // The downstream chiplet's reload hides behind the wavefront:
        // a frame admitted at 5.0 cannot touch c1 before 5.3.
        assert_eq!(gate(vec![(ChipletId(1), 5.2)]), 5.0);
        // Only the excess over the offset gates admission.
        assert!((gate(vec![(ChipletId(1), 5.4)]) - 5.1).abs() < 1e-12);
        // An entry chiplet has no offset to hide behind: full charge.
        assert_eq!(gate(vec![(ChipletId(0), 5.4)]), 5.4);
        // A stalled chiplet hosting no items gates nothing.
        assert_eq!(gate(vec![(ChipletId(9), 99.0)]), 5.0);
        // The gate is the max over all stalled chiplets.
        assert_eq!(gate(vec![(ChipletId(0), 5.4), (ChipletId(1), 5.2)]), 5.4);
    }

    /// A make-before-break handover that stalls only a downstream
    /// chiplet admits frames the package-wide barrier would drop; one
    /// that stalls the entry chiplet degenerates to the barrier.
    #[test]
    fn make_before_break_admits_earlier_than_the_barrier() {
        let g = fusion_block(&FusionConfig::spatial_default());
        let pkg = McmPackage::simba_6x6();
        let model = FittedMaestro::new();
        // Trunk on c0 (~360 ms of wavefront offset), output compression
        // on c1.
        let mut mp = ModelPlan::on_single_chiplet("s", g.clone(), ChipletId(0));
        let out = g.find("s_fuse.compress").unwrap();
        *mp.layer_plan_mut(out) = LayerPlan::single(g.layer(out).clone(), ChipletId(1));
        let schedule = Schedule {
            stages: vec![StagePlan {
                kind: StageKind::SpatialFusion,
                models: vec![mp],
                region: vec![ChipletId(0), ChipletId(1)],
            }],
        };
        let times: Vec<f64> = (0..8).map(|f| f as f64 * 0.025).collect();
        let run = |readiness: Readiness| {
            let phase = SimPhase {
                schedule: &schedule,
                times: times.clone(),
                readiness,
                warmup: Some(0),
                cutoff: None,
            };
            simulate_phases(&[phase], &pkg, &model, Dtype::Fp16)[0].clone()
        };
        let barrier = run(Readiness::Barrier(0.1));
        assert_eq!(barrier.dropped, 4, "frames before 0.1 s die at the barrier");
        // The same 0.1 s reload on the downstream chiplet hides entirely
        // behind the trunk's wavefront offset: nothing is dropped.
        let mbb = run(Readiness::PerChiplet {
            at: 0.0,
            ready: vec![(ChipletId(1), 0.1)],
        });
        assert_eq!(mbb.dropped, 0);
        assert_eq!(mbb.admitted_from, 0.0);
        assert!(mbb.served() > barrier.served());
        // Stalling the entry chiplet leaves no offset to hide behind —
        // bit-identical to the barrier.
        let entry = run(Readiness::PerChiplet {
            at: 0.0,
            ready: vec![(ChipletId(0), 0.1)],
        });
        assert_eq!(entry.dropped, barrier.dropped);
        assert_eq!(entry.report, barrier.report);
    }

    /// A boundary cutoff flushes frames still in flight at the instant
    /// the package quiesces, and the accounting balances:
    /// `offered == served + dropped + flushed`.
    #[test]
    fn boundary_cutoff_flushes_in_flight_frames() {
        let g = fusion_block(&FusionConfig::spatial_default());
        let pkg = McmPackage::simba_6x6();
        let model = FittedMaestro::new();
        let schedule = Schedule {
            stages: vec![StagePlan {
                kind: StageKind::SpatialFusion,
                models: vec![ModelPlan::on_single_chiplet("s", g, ChipletId(0))],
                region: vec![ChipletId(0)],
            }],
        };
        // Four frames offered at t = 0 against a ~366 ms service time:
        // completions land near 0.37/0.73/1.10/1.46 s.
        let run = |cutoff: Option<f64>| {
            let phase = SimPhase {
                schedule: &schedule,
                times: vec![0.0; 4],
                readiness: Readiness::Barrier(0.0),
                warmup: Some(0),
                cutoff,
            };
            simulate_phases(&[phase], &pkg, &model, Dtype::Fp16)[0].clone()
        };
        let drain = run(None);
        assert_eq!((drain.dropped, drain.flushed, drain.served()), (0, 0, 4));
        let flushed = run(Some(0.8));
        assert_eq!(flushed.offered, 4);
        assert_eq!(flushed.dropped, 0);
        assert_eq!(flushed.flushed, 2, "two frames were in flight at 0.8 s");
        assert_eq!(
            flushed.offered,
            flushed.served() + flushed.dropped + flushed.flushed
        );
        // Flushed frames leave the steady-state window: the surviving
        // statistics cover only frames that completed before the cutoff.
        assert_eq!(flushed.report.measured_frames, 2);
        assert!(flushed.report.max_latency < drain.report.max_latency);
        // The span ends at the cutoff, and so does the counted service:
        // the chiplet ran back to back from t = 0, so it was busy for
        // the whole 0.8 s span.
        let busy = flushed.report.busy_fraction(ChipletId(0)).unwrap();
        assert!((0.0..=1.0).contains(&busy), "busy fraction {busy}");
        assert!((busy - 1.0).abs() < 1e-9, "busy fraction {busy}");
        let drained = drain.report.busy_fraction(ChipletId(0)).unwrap();
        assert!((0.0..=1.0).contains(&drained), "busy fraction {drained}");
    }

    /// The in-flight frame pool stays bounded by the schedule's natural
    /// pipelining depth even when every frame is offered at t = 0, as
    /// long as the entry stage is the bottleneck. (With an unthrottled
    /// downstream bottleneck WIP genuinely accumulates — the pool then
    /// tracks that real occupancy instead of pre-allocating all frames.)
    #[test]
    fn saturated_pool_stays_bounded() {
        let g = fusion_block(&FusionConfig::spatial_default());
        let pkg = McmPackage::simba_6x6();
        let model = FittedMaestro::new();
        // Heavy trunk on chiplet 0 (the entry bottleneck), the cheap
        // output compression on chiplet 1: frames drain as fast as they
        // clear the trunk, so only a couple are ever in flight.
        let mut mp = ModelPlan::on_single_chiplet("s", g.clone(), ChipletId(0));
        let out = g.find("s_fuse.compress").unwrap();
        *mp.layer_plan_mut(out) = LayerPlan::single(g.layer(out).clone(), ChipletId(1));
        let schedule = Schedule {
            stages: vec![StagePlan {
                kind: StageKind::SpatialFusion,
                models: vec![mp],
                region: vec![ChipletId(0), ChipletId(1)],
            }],
        };
        let (rep, stats) =
            simulate_with_stats(&schedule, &pkg, &model, &SimConfig::saturated(2_000));
        assert_eq!(stats.frames, 2_000);
        assert!(rep.measured_frames > 0);
        assert!(
            (1..=4).contains(&stats.peak_in_flight),
            "an entry-bottleneck pipeline keeps a couple of frames in flight, got {}",
            stats.peak_in_flight
        );
    }

    /// With slow arrivals the pipeline is arrival-limited.
    #[test]
    fn arrival_limited_at_low_fps() {
        let g = fusion_block(&FusionConfig::spatial_default());
        let pkg = McmPackage::simba_6x6();
        let model = FittedMaestro::new();
        let schedule = Schedule {
            stages: vec![StagePlan {
                kind: StageKind::SpatialFusion,
                models: vec![ModelPlan::on_single_chiplet("s", g, ChipletId(0))],
                region: vec![ChipletId(0)],
            }],
        };
        // One frame per second: far slower than the ~366 ms service time.
        let rep = simulate(&schedule, &pkg, &model, &SimConfig::camera(8, 1.0));
        assert!((rep.steady_interval.as_secs() - 1.0).abs() < 1e-9);
        // Utilization is low: the chiplet idles between frames.
        assert!(rep.busy_fraction(ChipletId(0)).unwrap() < 0.5);
    }

    fn single_chiplet_schedule(c: ChipletId) -> Schedule {
        let g = fusion_block(&FusionConfig::spatial_default());
        Schedule {
            stages: vec![StagePlan {
                kind: StageKind::SpatialFusion,
                models: vec![ModelPlan::on_single_chiplet("s", g, c)],
                region: vec![c],
            }],
        }
    }

    fn periodic(frames: usize, interval: f64, offset: f64) -> Vec<f64> {
        (0..frames).map(|f| offset + f as f64 * interval).collect()
    }

    fn stream(schedule: &Schedule, times: Vec<f64>, warmup: usize) -> SimPhase<'_> {
        SimPhase {
            warmup: Some(warmup),
            ..SimPhase::new(schedule, times, Readiness::Barrier(0.0))
        }
    }

    /// The standalone run of one stream: a one-phase `simulate_phases`.
    fn alone(s: &SimPhase<'_>, pkg: &McmPackage) -> PhaseReport {
        simulate_phases(
            std::slice::from_ref(s),
            pkg,
            &FittedMaestro::new(),
            Dtype::Fp16,
        )
        .remove(0)
    }

    /// A cut-off tenant's busy fractions count only service before its
    /// cutoff, on its own chiplet and on one it shares with a tenant
    /// that keeps running: four frames at t = 0 keep each chiplet busy
    /// well past the 0.8 s cutoff.
    #[test]
    fn cut_off_tenant_busy_fraction_stays_in_the_unit_interval() {
        let pkg = McmPackage::simba_6x6();
        let model = FittedMaestro::new();
        let s0 = single_chiplet_schedule(ChipletId(0));
        let s1 = single_chiplet_schedule(ChipletId(1));
        for (what, other) in [("disjoint", &s1), ("shared", &s0)] {
            let mut cut = stream(&s0, vec![0.0; 4], 0);
            cut.cutoff = Some(0.8);
            let co = simulate_tenants(
                &[cut, stream(other, vec![0.0; 4], 0)],
                &pkg,
                &model,
                Dtype::Fp16,
            );
            assert!(co[0].flushed > 0, "{what}: the cutoff flushes frames");
            for rep in &co {
                let busy = rep.report.bottleneck().unwrap().1;
                assert!((0.0..=1.0).contains(&busy), "{what}: busy fraction {busy}");
            }
        }
    }

    /// Tenants on disjoint chiplet regions are bit-identical to their
    /// standalone phased runs: sharing a calendar costs nothing when
    /// nothing is actually shared.
    #[test]
    fn disjoint_regions_match_standalone_runs() {
        let pkg = McmPackage::simba_6x6();
        let s0 = single_chiplet_schedule(ChipletId(0));
        let s1 = single_chiplet_schedule(ChipletId(7));
        let streams = [
            stream(&s0, periodic(16, 0.5, 0.0), 2),
            stream(&s1, periodic(12, 0.7, 0.1), 2),
        ];
        let co = simulate_tenants(&streams, &pkg, &FittedMaestro::new(), Dtype::Fp16);
        assert_eq!(co[0], alone(&streams[0], &pkg));
        assert_eq!(co[1], alone(&streams[1], &pkg));
    }

    /// Two tenants contending for one chiplet: the co-run is strictly
    /// slower than either tenant alone, and the tenant winning
    /// same-instant ties (the lower index) runs ahead.
    #[test]
    fn shared_chiplet_contention_increases_latency() {
        let pkg = McmPackage::simba_6x6();
        let s = single_chiplet_schedule(ChipletId(0));
        // ~366 ms service time; each tenant alone at 0.5 s intervals is
        // arrival-limited, together they oversubscribe the chiplet.
        let streams = [
            stream(&s, periodic(16, 0.5, 0.0), 2),
            stream(&s, periodic(16, 0.5, 0.0), 2),
        ];
        let co = simulate_tenants(&streams, &pkg, &FittedMaestro::new(), Dtype::Fp16);
        let solo = alone(&streams[0], &pkg);
        for rep in &co {
            assert!(
                rep.report.mean_latency > solo.report.mean_latency,
                "contention must raise latency: co {} vs alone {}",
                rep.report.mean_latency,
                solo.report.mean_latency
            );
        }
        // Tenant 0 wins every same-time tie, so it queues behind at most
        // one tenant-1 frame; tenant 1 waits for tenant 0's backlog.
        assert!(co[0].report.mean_latency < co[1].report.mean_latency);
    }

    /// Per-tenant spin-up windows drop exactly the frames arriving
    /// before that tenant's gate, and the balance holds.
    #[test]
    fn ready_at_drops_are_per_tenant() {
        let pkg = McmPackage::simba_6x6();
        let s0 = single_chiplet_schedule(ChipletId(0));
        let s1 = single_chiplet_schedule(ChipletId(1));
        let mut late = stream(&s1, periodic(10, 0.5, 0.0), 1);
        late.readiness = Readiness::Barrier(1.1);
        let co = simulate_tenants(
            &[stream(&s0, periodic(10, 0.5, 0.0), 1), late],
            &pkg,
            &FittedMaestro::new(),
            Dtype::Fp16,
        );
        assert_eq!(co[0].dropped, 0);
        assert_eq!(co[1].dropped, 3, "frames at 0.0, 0.5, 1.0 dropped");
        for rep in &co {
            assert_eq!(rep.served() + rep.dropped, rep.offered);
        }
        assert_eq!(co[1].report.measured_frames, 7 - 2);
    }

    /// The co-simulation is deterministic: same inputs, same bits.
    #[test]
    fn co_simulation_is_deterministic() {
        let pkg = McmPackage::simba_6x6();
        let s = single_chiplet_schedule(ChipletId(0));
        let s2 = single_chiplet_schedule(ChipletId(2));
        let streams = [
            stream(&s, periodic(12, 0.4, 0.0), 2),
            stream(&s2, periodic(12, 0.4, 0.0), 2),
            stream(&s, periodic(12, 0.4, 0.1), 2),
        ];
        let run = || simulate_tenants(&streams, &pkg, &FittedMaestro::new(), Dtype::Fp16);
        assert_eq!(run(), run());
    }

    /// A single tenant stream is bit-identical to a one-phase run.
    #[test]
    fn single_stream_matches_phased_engine() {
        let pkg = McmPackage::simba_6x6();
        let s = single_chiplet_schedule(ChipletId(3));
        let mut one = stream(&s, periodic(20, 0.45, 0.2), 3);
        one.readiness = Readiness::Barrier(0.3);
        let co = simulate_tenants(
            std::slice::from_ref(&one),
            &pkg,
            &FittedMaestro::new(),
            Dtype::Fp16,
        );
        assert_eq!(co, vec![alone(&one, &pkg)]);
    }

    #[test]
    fn empty_stream_list_is_empty() {
        let pkg = McmPackage::simba_6x6();
        let model = FittedMaestro::new();
        assert!(simulate_tenants(&[], &pkg, &model, Dtype::Fp16).is_empty());
        assert!(simulate_phases(&[], &pkg, &model, Dtype::Fp16).is_empty());
    }

    mod props {
        use super::*;
        use npu_maestro::Accelerator;
        use npu_noc::Mesh2d;
        use proptest::prelude::*;

        use crate::ArrivalSegment;

        /// The fusion block with every layer on a random chiplet of
        /// `region` (`picks[i]` indexes the region for layer `i`).
        fn random_schedule(temporal: bool, region: &[ChipletId], picks: &[usize]) -> Schedule {
            let cfg = if temporal {
                FusionConfig::temporal_default()
            } else {
                FusionConfig::spatial_default()
            };
            let g = fusion_block(&cfg);
            let mut mp = ModelPlan::on_single_chiplet("s", g, region[0]);
            for (i, lp) in mp.layers.iter_mut().enumerate() {
                let c = region[picks[i % picks.len()] % region.len()];
                for shard in &mut lp.shards {
                    shard.chiplet = c;
                }
            }
            Schedule {
                stages: vec![StagePlan {
                    kind: StageKind::SpatialFusion,
                    models: vec![mp],
                    region: region.to_vec(),
                }],
            }
        }

        /// One process per `Arrivals` mode, all on a ~0.2 s cadence.
        fn arrival_modes(seed: u64) -> Vec<Arrivals> {
            let s = Seconds::new;
            vec![
                Arrivals::Saturated,
                Arrivals::Periodic { interval: s(0.2) },
                Arrivals::Jittered {
                    interval: s(0.2),
                    frac: 0.5,
                    seed,
                },
                Arrivals::Bursty {
                    period: s(0.6),
                    burst: 3,
                    intra: s(0.05),
                },
                Arrivals::trace(vec![s(0.0), s(0.05), s(0.4), s(0.45)]),
                Arrivals::piecewise(vec![
                    ArrivalSegment {
                        arrivals: Arrivals::Periodic { interval: s(0.1) },
                        frames: 3,
                        span: s(0.3),
                    },
                    ArrivalSegment {
                        arrivals: Arrivals::Saturated,
                        frames: 2,
                        span: s(0.5),
                    },
                ]),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            /// K ∈ {1, 2, 3} tenants with random schedules on disjoint
            /// rows of a 3×3 mesh, under every arrival mode and a
            /// random admission barrier: each tenant's report is
            /// bit-identical to its standalone phased run.
            #[test]
            fn disjoint_tenants_are_bit_identical_to_standalone_runs(
                picks in proptest::collection::vec(0usize..3, 1..12),
                temporal in 0usize..2,
                frames in 1usize..9,
                barrier in 0.0f64..0.5,
                seed in 0u64..1000,
            ) {
                let pkg = McmPackage::from_fn("p3x3", Mesh2d::new(3, 3), |_| {
                    Accelerator::shidiannao_like(256)
                });
                let model = FittedMaestro::new();
                let rows: Vec<Vec<ChipletId>> = (0..3)
                    .map(|y| (0..3).map(|x| ChipletId(3 * y + x)).collect())
                    .collect();
                // Tenant k shifts the picks so the tenants' placements
                // differ, and alternates the fusion block.
                let schedules: Vec<Schedule> = (0..3)
                    .map(|k| {
                        let shifted: Vec<usize> = picks.iter().map(|p| p + k).collect();
                        random_schedule((temporal + k) % 2 == 1, &rows[k], &shifted)
                    })
                    .collect();
                let modes = arrival_modes(seed);
                for m in 0..modes.len() {
                    for k_tenants in 1..=3 {
                        let streams: Vec<SimPhase<'_>> = (0..k_tenants)
                            .map(|k| SimPhase {
                                warmup: None,
                                ..SimPhase::new(
                                    &schedules[k],
                                    modes[(m + k) % modes.len()].times(frames + k),
                                    Readiness::Barrier(barrier * k as f64),
                                )
                            })
                            .collect();
                        let co = simulate_tenants(&streams, &pkg, &model, Dtype::Fp16);
                        for (k, s) in streams.iter().enumerate() {
                            prop_assert_eq!(&co[k], &alone(s, &pkg));
                        }
                    }
                }
            }
        }
    }
}
