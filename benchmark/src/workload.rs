//! The four named workloads: what each one feeds the engine, how the
//! engine is configured for it, and why it is in the benchmark.
//!
//! Every workload runs back-to-back segments on one resident [`Engine`]
//! with fresh flow state per segment, `host_workers = 0` (inline
//! triage: no thread-timing races on the verdict log), 64-packet
//! batches and the default FlowCache burst of 8. The seed reaches the
//! generators only; the engine sees nothing but the generated input.

use smartwatch_bench::workloads;
use smartwatch_net::{FrameStore, Packet};
use smartwatch_runtime::{ControlConfig, DatapathMode, Engine, EngineConfig, FrameSource, Pace};
use smartwatch_telemetry::Registry;
use smartwatch_trace::background::Preset;
use smartwatch_trace::compile::compile;
use smartwatch_trace::Trace;
use std::time::Instant;

/// What a workload replays.
pub enum Input {
    /// Generator output as model packets (no parse on the data path).
    Packets(Vec<Packet>),
    /// The same packets compiled to wire frames, parsed in place.
    Wire(FrameStore),
}

impl Input {
    pub fn len(&self) -> usize {
        match self {
            Input::Packets(p) => p.len(),
            Input::Wire(s) => s.len(),
        }
    }

    pub fn source(&self) -> FrameSource<'_> {
        match self {
            Input::Packets(p) => FrameSource::Packets(p),
            Input::Wire(s) => FrameSource::Wire(s),
        }
    }
}

/// Packets per segment of the two CAIDA workloads. The generator's
/// output length moves ±10% with the seed (451k–549k over seeds 1–12);
/// cycling or cutting it to a fixed length keeps the work per segment —
/// and with it `attempted`, the resident set and the hit rate — the same
/// on every seed.
pub const CAIDA_SEGMENT_PKTS: usize = 450_000;

/// The 64-byte CAIDA stand-in at exactly [`CAIDA_SEGMENT_PKTS`] packets.
fn caida_64b(seed: u64) -> Vec<Packet> {
    cycled(
        workloads::caida_64b(Preset::Caida2018, 1, seed).into_packets(),
        CAIDA_SEGMENT_PKTS,
    )
}

/// `base` cut, or repeated from its start, to exactly `total` packets.
fn cycled(mut base: Vec<Packet>, total: usize) -> Vec<Packet> {
    let period = base.len();
    base.truncate(total);
    for i in period..total {
        base.push(base[i - period]);
    }
    base
}

/// Offered rate of the open-loop workload, Mpps: about a quarter of its
/// flat-out capacity on the 2-vCPU sandbox this was sized on, so a
/// healthy engine loses nothing and a stall shows as loss.
pub const PACED_MPPS: f64 = 0.25;
/// Packets per segment of the open-loop workload.
pub const PACED_SEGMENT_PKTS: usize = 100_000;

/// One named workload.
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: what the workload stresses that
    /// the others do not.
    pub why: &'static str,
    generate: fn(u64) -> Vec<Packet>,
    /// Compile the generated packets to wire frames.
    wire: bool,
    pub datapath: DatapathMode,
    pub cache_row_bits: u32,
    pub pace: Pace,
    /// Attach the adaptive control plane.
    pub control: bool,
    /// The tracer-price run: extra segments with the program's own
    /// sampled tracer attached.
    pub price_tracer: bool,
}

/// The benchmark's workloads, in reporting order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "stress64_rtc",
        why: "64-B CAIDA stand-in as model packets, run-to-completion on 1 core, flat-out: \
              hit-dominated FlowCache + detectors with no parse and no lane crossing",
        generate: caida_64b,
        wire: false,
        datapath: DatapathMode::Rtc,
        cache_row_bits: 12,
        pace: Pace::Flatout,
        control: false,
        price_tracer: false,
    },
    Workload {
        name: "wire_pipeline",
        why:
            "the same trace compiled to wire frames, 1 rx queue x 1 shard on 2 threads, flat-out: \
              adds in-place parse, batch digest, frame pool, SPSC lane and buffer recycle",
        generate: caida_64b,
        wire: true,
        datapath: DatapathMode::Pipeline,
        cache_row_bits: 12,
        pace: Pace::Flatout,
        control: false,
        price_tracer: true,
    },
    Workload {
        name: "scattered_cold",
        why:
            "400k distinct flows over a 2^16-row table, run-to-completion, flat-out: 0% hit rate, \
              the DRAM-bound FlowCache insert/evict/ring-push path beside stress64_rtc's hit path",
        generate: |seed| workloads::scattered_flows(400_000, seed),
        wire: false,
        datapath: DatapathMode::Rtc,
        cache_row_bits: 16,
        pace: Pace::Flatout,
        control: false,
        price_tracer: false,
    },
    Workload {
        name: "mix_paced",
        why: "labelled attack mix, open loop at a fixed 0.25 Mpps through the 2-thread pipeline \
              with the control plane on: escalation, verdicts, pacing, parks; stalls show as loss",
        generate: |seed| {
            cycled(
                workloads::attack_mix(1, seed).into_packets(),
                PACED_SEGMENT_PKTS,
            )
        },
        wire: false,
        datapath: DatapathMode::Pipeline,
        cache_row_bits: 12,
        pace: Pace::RateMpps(PACED_MPPS),
        control: true,
        price_tracer: false,
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// What one build of a workload cost.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timing {
    /// Generator time (trace synthesis, cycling), seconds.
    pub gen_s: f64,
    /// Wire compilation time, seconds (`0.0` for packet workloads).
    pub compile_s: f64,
    /// Everything: generate, compile, construct the engine; seconds.
    pub total_s: f64,
}

/// A built workload: its input, a resident engine, and what building
/// them cost.
pub struct Setup {
    pub input: Input,
    pub engine: Engine,
    /// The registry the engine publishes into.
    pub registry: Registry,
    pub timing: Timing,
}

impl Workload {
    /// The engine configuration this workload runs with.
    pub fn config(&self) -> EngineConfig {
        let mut cfg = EngineConfig::new(1);
        cfg.datapath = self.datapath;
        cfg.cache_row_bits = self.cache_row_bits;
        cfg.host_workers = 0;
        if self.control {
            cfg = cfg.with_control(ControlConfig::default());
        }
        cfg
    }

    /// True when the run is a pure function of the input: flat-out (no
    /// ring drops) and no controller thread racing the data path. Such
    /// a workload's deterministic summary must repeat byte for byte and
    /// equal the walk's.
    pub fn deterministic(&self) -> bool {
        matches!(self.pace, Pace::Flatout) && !self.control
    }

    /// Generate the packets only (what the walk and the tests replay
    /// when they bring their own size).
    pub fn generate(&self, seed: u64) -> Vec<Packet> {
        (self.generate)(seed)
    }

    /// Turn generated packets into this workload's input form.
    pub fn input_from(&self, packets: Vec<Packet>) -> Input {
        if self.wire {
            Input::Wire(compile(&Trace::from_packets(packets)))
        } else {
            Input::Packets(packets)
        }
    }

    /// Build the input from `seed` and construct the engine, timing the
    /// phases.
    pub fn setup(&self, seed: u64) -> Setup {
        let t0 = Instant::now();
        let packets = self.generate(seed);
        let gen_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let input = self.input_from(packets);
        let compile_s = if self.wire {
            t1.elapsed().as_secs_f64()
        } else {
            0.0
        };
        let registry = Registry::new();
        let engine = Engine::with_registry(self.config(), &registry);
        Setup {
            input,
            engine,
            registry,
            timing: Timing {
                gen_s,
                compile_s,
                total_s: t0.elapsed().as_secs_f64(),
            },
        }
    }
}
