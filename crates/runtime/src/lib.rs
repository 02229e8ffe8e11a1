//! # systolic-runtime
//!
//! The distributed-memory multiprocessor substrate (the paper's target
//! machine model, Sec. 4, simulated): asynchronously composed sequential
//! processes, synchronous point-to-point channels, `par` communication
//! sets, host-side sources and sinks.
//!
//! - [`process`] — the channel vocabulary ([`CommReq`], [`ChanId`],
//!   [`Value`]), and [`lock`], the one poison-tolerant way into the
//!   mutexes the engines share;
//! - [`procir`] — the flat process bytecode ([`ProcIrModule`]) that every
//!   elaborated process lowers to, the one runtime form of a process:
//!   every engine gives the ops their meaning through one op step
//!   (`step.rs`), generic over its channels, with every process's state
//!   in one per-thread run arena (`arena.rs`);
//! - [`batch`] — the channel tables ([`BatchPlan`]: one producer, one
//!   consumer and the traffic of every channel), which the elaborator
//!   derives as a law of the construction and the fast path's rings are
//!   sized from, with the walk that checks them ([`check`]; see
//!   `docs/scheduler.md`). The fast path runs on one per-thread run
//!   arena — flat register, local and index tables and a single ring
//!   slab, reset per run (`arena.rs`);
//! - [`coop`] — the deterministic cooperative scheduler with rendezvous
//!   rounds (the virtual systolic clock) and exact deadlock detection,
//!   running one module ([`Network`]);
//! - [`record`] — the observability layer: the [`Recorder`] event sink
//!   threaded through the op step and the rendezvous engine, with metrics
//!   aggregation ([`MetricsRecorder`]) and Chrome-trace export
//!   ([`PerfettoRecorder`]); zero cost when no recorder is attached.
//! - [`json`] — the workspace's one JSON model ([`Json`]: value, compact
//!   and report renderers, parser); every report type here builds one.
//! - [`wavefront`] — the wavefront executor, the one cooperative fast
//!   engine: SCC-condensed, longest-path staged chunk sweeps over rings
//!   whose capacities its plan alone decides ([`WavefrontPlan`]; see
//!   `docs/wavefront.md`).
//! - [`kernel`] — compiled compute kernels: the typed straight-line
//!   form of the basic statement ([`Kernel`]), which every engine runs,
//!   and the struct-of-arrays wave batch executor every eligible chunk of
//!   a wavefront run takes, which runs it split into stream and carried
//!   sections ([`TapeSplit`], [`WaveBatch`]; see `docs/kernels.md`).

mod arena;
pub mod batch;
pub mod coop;
pub mod json;
pub mod kernel;
pub mod opt;
pub mod process;
pub mod procir;
pub mod record;
pub mod schedule;
mod step;
pub mod wavefront;

pub use batch::{analyze, check, BatchMode, BatchPlan};
#[doc(hidden)]
pub use coop::ChannelPolicy;
pub use coop::{Deadlock, Network, ProtocolViolation, RunError, RunStats};
pub use json::Json;
pub use kernel::{
    analyze_kernels, Kernel, KernelOp, KernelPlan, KernelReport, TapeSplit, WaveBatch,
    KERNEL_MAX_OPS,
};
pub use opt::{optimize, ChainRecord, OptReport, OptimizedModule};
pub use process::{lock, ChanId, CommReq, Value};
pub use procir::{MovingLink, ProcId, ProcIrBuilder, ProcIrModule, ProcOp, ProcRecord};
pub use record::{
    canonicalize_transfers, first_divergence, shared, ChanMetrics, EventLogRecorder,
    MetricsRecorder, MetricsReport, OpKind, PerfettoEvent, PerfettoRecorder, Phase, ProcMetrics,
    Recorder, SharedRecorder, Transfer,
};
pub use schedule::{FifoPolicy, Pcg32, SchedulePolicy, STARVATION_LIMIT};
pub use step::MAX_MOVING_LINKS;
#[doc(hidden)]
pub use wavefront::run_coop_batched;
pub use wavefront::{analyze_wavefront, run_wavefront, WavefrontPlan, Window, WAVEFRONT_RING_CAP};
