//! # systolic-runtime
//!
//! The distributed-memory multiprocessor substrate (the paper's target
//! machine model, Sec. 4, simulated): asynchronously composed sequential
//! processes, synchronous point-to-point channels, `par` communication
//! sets, host-side sources and sinks.
//!
//! - [`process`] — the [`Process`] coroutine trait and the channel
//!   vocabulary ([`CommReq`], [`ChanId`], [`Value`]);
//! - [`procir`] — the flat process bytecode ([`ProcIrModule`]) that every
//!   elaborated process lowers to, and the generic VM ([`ProcVm`]) that
//!   interprets it;
//! - [`batch`] — the steady-state batching analysis ([`analyze`]) and
//!   per-channel [`Ring`] buffers behind the macro-stepping fast path of
//!   all three executors (see `docs/scheduler.md`);
//! - [`coop`] — the deterministic cooperative scheduler with rendezvous
//!   rounds (the virtual systolic clock), exact deadlock detection, and a
//!   buffered-channel ablation mode;
//! - [`threaded`] — the OS-thread executor with a blocking rendezvous
//!   engine for wall-clock parallel measurements;
//! - [`partition`] — the Sec. 8 partitioning refinement: many virtual
//!   processes multiplexed per worker thread;
//! - [`record`] — the observability layer: the [`Recorder`] event sink
//!   threaded through the VM and all three executors, with metrics
//!   aggregation ([`MetricsRecorder`]) and Chrome-trace export
//!   ([`PerfettoRecorder`]); zero cost when no recorder is attached.
//! - [`wavefront`] — the fourth executor: SCC-condensed, longest-path
//!   staged chunk sweeps over the batch rings ([`WavefrontPlan`]), with
//!   an optional pool-parallel mode (see `docs/wavefront.md`).
//! - [`kernel`] — compiled compute kernels: the typed straight-line
//!   form of the basic statement ([`Kernel`]) and the struct-of-arrays
//!   wave batch executor behind `--kernel auto` (see `docs/kernels.md`).
//! - [`wavepool`] — the persistent worker pool the wavefront executor's
//!   parallel mode shares across runs ([`WavePool`]).

pub mod batch;
pub mod coop;
pub mod kernel;
pub mod opt;
pub mod partition;
pub mod process;
pub mod procir;
pub mod record;
pub mod schedule;
pub mod threaded;
pub mod wavefront;
pub mod wavepool;

pub use batch::{
    analyze, analyze_with_caps, channel_diagnostics, BatchMode, BatchPlan, Ring,
    DEFAULT_BATCH_WIDTH,
};
pub use coop::{
    run_coop_batched, ChannelPolicy, Deadlock, Network, ProtocolViolation, RunError, RunStats,
    TraceEvent,
};
pub use opt::{optimize, ChainRecord, OptMode, OptReport, OptimizedModule};
pub use partition::{
    block_partition, run_partitioned, run_partitioned_batched, run_partitioned_perturbed,
    run_partitioned_recorded,
};
pub use process::{sink_buffer, ChanId, CommReq, Process, SinkBuffer, Value};
pub use procir::{
    ComputeBody, Instance, MovingLink, ProcId, ProcIrBuilder, ProcIrModule, ProcOp, ProcRecord,
    ProcVm,
};
pub use record::{
    canonicalize_transfers, first_divergence, shared, ChanMetrics, EventLogRecorder,
    MetricsRecorder, MetricsReport, OpKind, PerfettoEvent, PerfettoRecorder, Phase, ProcMetrics,
    Recorder, SharedRecorder, Transfer, QUEUE_ENDPOINT,
};
pub use schedule::{FifoPolicy, Pcg32, SchedulePolicy, YieldInjector, YieldPlan, STARVATION_LIMIT};
pub use threaded::{run_threaded, run_threaded_perturbed, run_threaded_recorded};
pub use kernel::{
    analyze_kernels, Kernel, KernelMode, KernelOp, KernelPlan, KernelReport,
};
pub use wavefront::{
    analyze_wavefront, run_wavefront, WavefrontMode, WavefrontPlan, WAVEFRONT_RING_CAP,
};
pub use wavepool::WavePool;
