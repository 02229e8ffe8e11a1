//! # systolic-runtime
//!
//! The distributed-memory multiprocessor substrate (the paper's target
//! machine model, Sec. 4, simulated): asynchronously composed sequential
//! processes, synchronous point-to-point channels, `par` communication
//! sets, host-side sources and sinks.
//!
//! - [`process`] — the [`Process`] coroutine trait and the channel
//!   vocabulary ([`CommReq`], [`ChanId`], [`Value`]), and [`lock`], the
//!   one poison-tolerant way into the mutexes the engines share;
//! - [`procir`] — the flat process bytecode ([`ProcIrModule`]) that every
//!   elaborated process lowers to, and the VM ([`ProcVm`]) that runs it
//!   for the rendezvous engine; every engine gives the ops their meaning
//!   through one op step (`step.rs`), generic over its channels;
//! - [`batch`] — the steady-state batching proof ([`analyze`]) that
//!   gates the cooperative executor's macro-stepping fast path (see
//!   `docs/scheduler.md`), which runs on one per-thread run arena — flat
//!   register, local and index tables and a single ring slab, reset per
//!   run (`arena.rs`);
//! - [`coop`] — the deterministic cooperative scheduler with rendezvous
//!   rounds (the virtual systolic clock) and exact deadlock detection;
//! - [`record`] — the observability layer: the [`Recorder`] event sink
//!   threaded through the VM and the rendezvous engine, with metrics
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

pub use batch::{analyze, BatchMode, BatchPlan};
#[doc(hidden)]
pub use coop::ChannelPolicy;
pub use coop::{Deadlock, Network, ProtocolViolation, RunError, RunStats};
pub use json::Json;
pub use kernel::{
    analyze_kernels, Kernel, KernelOp, KernelPlan, KernelReport, TapeSplit, WaveBatch,
    KERNEL_MAX_OPS,
};
pub use opt::{optimize, ChainRecord, OptReport, OptimizedModule};
pub use process::{lock, sink_buffer, ChanId, CommReq, Process, SinkBuffer, Value};
pub use procir::{
    Instance, MovingLink, ProcId, ProcIrBuilder, ProcIrModule, ProcOp, ProcRecord, ProcVm,
};
pub use record::{
    canonicalize_transfers, first_divergence, shared, ChanMetrics, EventLogRecorder,
    MetricsRecorder, MetricsReport, OpKind, PerfettoEvent, PerfettoRecorder, Phase, ProcMetrics,
    Recorder, SharedRecorder, Transfer,
};
pub use schedule::{FifoPolicy, Pcg32, SchedulePolicy, STARVATION_LIMIT};
#[doc(hidden)]
pub use wavefront::run_coop_batched;
pub use wavefront::{analyze_wavefront, run_wavefront, WavefrontPlan, Window, WAVEFRONT_RING_CAP};
