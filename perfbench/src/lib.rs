//! Seeded benchmark of the mcm-npu workspace.
//!
//! Three workloads, each a closed loop with one client issuing one
//! public library call per query:
//!
//! * `dse-sweep` — `scenario_sweep` of one seeded scenario over the
//!   4×4…12×6 geometry grid; Algorithm-1 matching does the work.
//! * `drive-long` — `drive_sweep` of one seeded 3-5 leg minute-scale
//!   drive over two packages; the phased DES does the work.
//! * `fleet-admit` — `pack_fleet` of a small seeded fleet on one
//!   geometry, then one `preemption_event`; many short multi-tenant DES
//!   runs behind admission control.
//!
//! All timings are host time. Simulated statistics are outputs: they are
//! checked ([`check`]) and must repeat bit for bit across passes.
//!
//! Run `python3 perfbench/run.py --workload <name> --seed <n> --seconds
//! <s> --trace <0|1>` from the repository root; the last line of output
//! is the JSON result.

pub mod check;
pub mod gen;
pub mod model;
pub mod run;
pub mod workload;
