//! The dynamic-optimizer frontend: basic-block caching, trace-head
//! counting, and Next-Executed-Tail trace selection (Section 4.1).
//!
//! The engine consumes the workload's block-execution stream and behaves
//! like DynamoRIO's frontend:
//!
//! 1. Every executed basic block is copied into an (unbounded) **basic
//!    block cache** on first execution.
//! 2. Blocks that are targets of backward branches, or exits from existing
//!    traces, are **trace heads**; each execution of a trace head bumps a
//!    counter.
//! 3. When a counter reaches the trace-creation threshold (50), the engine
//!    enters **trace generation mode** and records the next executed tail:
//!    blocks are appended until a backward branch is encountered or the
//!    start of an existing trace is reached.
//! 4. Once a trace exists for a head, executing the head is a **trace
//!    access** — the event stream that drives all cache simulations.
//!    Executing a block that *diverges* from the trace body is a trace
//!    exit, making the divergent block a new trace-head candidate.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use gencache_cache::TraceId;
use gencache_program::{Addr, ModuleId, ProgramImage, Time, TRACE_CREATION_THRESHOLD};
use gencache_workloads::{TimedEvent, WorkloadEvent};
use serde::{Deserialize, Serialize};

use crate::trace::Trace;

/// Upper bound on trace length in blocks, mirroring real systems' caps.
const MAX_TRACE_BLOCKS: usize = 64;

/// What the frontend reports to its consumer (the recorder).
#[derive(Debug, Clone, PartialEq)]
pub enum FrontendEvent {
    /// A new trace was generated and placed in the trace cache.
    TraceCreated {
        /// The freshly built trace.
        trace: Trace,
    },
    /// Execution entered an existing trace at its head.
    TraceAccess {
        /// The accessed trace.
        id: TraceId,
        /// When the access happened.
        time: Time,
    },
    /// A module was unmapped; these traces are now stale and must be
    /// deleted from every code cache immediately.
    TracesInvalidated {
        /// Ids of the invalidated traces.
        ids: Vec<TraceId>,
        /// When the unmap happened.
        time: Time,
    },
}

/// Aggregate counters of one frontend run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrontendStats {
    /// Block-execution events processed.
    pub exec_events: u64,
    /// Distinct blocks copied into the basic-block cache.
    pub bb_blocks: u64,
    /// Bytes currently resident in the basic-block cache.
    pub bb_bytes: u64,
    /// Cumulative unique static code executed (the *application
    /// footprint*, Equation 1's denominator; never decreases on unmap).
    pub footprint_bytes: u64,
    /// Traces generated.
    pub traces_created: u64,
    /// Total bytes of generated traces.
    pub trace_bytes_created: u64,
    /// Bytes of traces currently live (not invalidated).
    pub live_trace_bytes: u64,
    /// Peak of `bb_bytes + live_trace_bytes`: the unbounded code cache
    /// size of Figure 1.
    pub peak_cache_bytes: u64,
    /// Peak of `live_trace_bytes` alone: the `maxCache` used to size the
    /// managed trace caches in Section 6 (generational management applies
    /// only to the trace cache).
    pub peak_trace_bytes: u64,
    /// Executions that entered an existing trace.
    pub trace_accesses: u64,
    /// Traces invalidated by unmapped memory.
    pub traces_invalidated: u64,
    /// Bytes of traces invalidated by unmapped memory.
    pub trace_bytes_invalidated: u64,
    /// Trace exits caused by divergence from a trace body.
    pub trace_exits: u64,
    /// Context switches between the dispatcher and cached code: one to
    /// enter a trace, one to leave it (Table 2 charges 25 instructions
    /// each). Without trace linking every trace execution costs two.
    pub context_switches: u64,
}

#[derive(Debug)]
struct TraceGen {
    head: Addr,
    body: Vec<Addr>,
    size_bytes: u32,
    module: ModuleId,
}

/// Multiply-fold hashing for the engine's `Addr` keys: one 64×64→128-bit
/// multiply by a fixed odd constant, high and low halves xored so every
/// input bit reaches the low bits the table indexes by. Not collision
/// resistant; every key comes from the planner's own program image.
#[derive(Debug, Default, Clone, Copy)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let product = u128::from(self.0 ^ n) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// What the image says about a block, cached when it enters the
/// basic-block cache.
#[derive(Debug, Clone, Copy)]
struct BlockFacts {
    size: u32,
    /// Target of the block's backward branch, if it ends in one.
    backward_target: Option<Addr>,
}

impl BlockFacts {
    /// Reads a block's facts from `image`; `None` for unmapped code.
    fn of(image: &ProgramImage, addr: Addr) -> Option<BlockFacts> {
        let block = image.block_at(addr)?;
        let backward_target = block.ends_in_backward_branch().then(|| {
            block
                .terminator()
                .direct_target()
                .expect("backward has target")
        });
        Some(BlockFacts {
            size: block.size_bytes(),
            backward_target,
        })
    }
}

/// Everything the engine knows about one block address.
#[derive(Debug, Default)]
struct Slot {
    /// Set while the block is resident in the basic-block cache.
    block: Option<BlockFacts>,
    /// Execution counter, once the address is a trace-head candidate.
    counter: Option<u32>,
    /// The live trace headed at this address (one trace per head).
    trace: Option<TraceId>,
}

/// The frontend engine. Owns a copy of the program image so it can apply
/// unmaps as they stream by.
#[derive(Debug)]
pub struct Engine {
    image: ProgramImage,
    threshold: u32,
    /// Per-address state: bb-cache residency, head counter, live trace.
    /// An unmap removes every slot in the unmapped range, so cached
    /// block facts never outlive their module.
    slots: HashMap<Addr, Slot, BuildHasherDefault<AddrHasher>>,
    /// Traces by id. The engine allocates ids densely from 0, so the id
    /// is the index; `None` once invalidated.
    traces: Vec<Option<Trace>>,
    live_traces: usize,
    /// Execution position inside a trace body, if any.
    in_trace: Option<(TraceId, usize)>,
    /// Active trace-generation recording, if any.
    generating: Option<TraceGen>,
    stats: FrontendStats,
}

impl Engine {
    /// Creates an engine over `image` with the standard trace-creation
    /// threshold of 50.
    pub fn new(image: ProgramImage) -> Self {
        Engine::with_threshold(image, TRACE_CREATION_THRESHOLD)
    }

    /// Creates an engine with a custom trace-creation threshold (for
    /// sensitivity studies).
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero.
    pub fn with_threshold(image: ProgramImage, threshold: u32) -> Self {
        assert!(threshold > 0, "trace threshold must be nonzero");
        Engine {
            image,
            threshold,
            slots: HashMap::default(),
            traces: Vec::new(),
            live_traces: 0,
            in_trace: None,
            generating: None,
            stats: FrontendStats::default(),
        }
    }

    /// Run counters so far.
    pub fn stats(&self) -> &FrontendStats {
        &self.stats
    }

    /// The number of live traces.
    pub fn live_trace_count(&self) -> usize {
        self.live_traces
    }

    /// Looks up a live trace by id.
    pub fn trace(&self, id: TraceId) -> Option<&Trace> {
        let index = usize::try_from(id.as_u64()).ok()?;
        self.traces.get(index)?.as_ref()
    }

    /// Processes one workload event, reporting frontend events to `sink`.
    pub fn on_event(&mut self, ev: TimedEvent, sink: &mut impl FnMut(FrontendEvent)) {
        match ev.event {
            WorkloadEvent::Exec { addr } => {
                self.on_blocks(std::slice::from_ref(&addr), 0, |_| ev.time, &mut |_, fe| {
                    sink(fe)
                });
            }
            WorkloadEvent::Unload { module } => self.on_unload(module, ev.time, sink),
        }
    }

    /// Executes `addrs` in order as exec events `first`, `first + 1`, …,
    /// block `k` at `clock(k)`, reporting each frontend event to `sink`
    /// with the `k` of the block that caused it. The same as one
    /// [`on_event`](Engine::on_event) per block; a stretch that only
    /// follows the body of a live trace is stepped over at once.
    pub fn on_blocks(
        &mut self,
        addrs: &[Addr],
        first: u64,
        clock: impl Fn(u64) -> Time,
        sink: &mut impl FnMut(u64, FrontendEvent),
    ) {
        let mut i = 0;
        while i < addrs.len() {
            if let (Some((tid, pos)), None) = (self.in_trace, &self.generating) {
                let body = self.traces[tid.as_u64() as usize]
                    .as_ref()
                    .expect("in_trace names a live trace")
                    .body();
                let common = body[pos..]
                    .iter()
                    .zip(&addrs[i..])
                    .take_while(|(b, a)| b == a)
                    .count();
                if common > 0 {
                    let next = pos + common;
                    self.in_trace = (next < body.len()).then_some((tid, next));
                    self.stats.exec_events += common as u64;
                    i += common;
                    continue;
                }
            }
            let k = first + i as u64;
            self.on_exec(addrs[i], clock(k), &mut |fe| sink(k, fe));
            i += 1;
        }
    }

    fn on_exec(&mut self, addr: Addr, now: Time, sink: &mut impl FnMut(FrontendEvent)) {
        self.stats.exec_events += 1;

        // --- Trace generation mode records the executed tail. -----------
        if self.generating.is_some() {
            self.extend_generation(addr, now, sink);
            // Whether or not generation finished, the block itself still
            // executes below only when generation just finished *because
            // of this block being a stop condition*; extend_generation
            // handles the distinction and re-enters on_exec paths itself.
            return;
        }

        // --- Divergence from a trace body. ------------------------------
        // (`on_blocks` steps over blocks that follow the body.) A trace
        // exit: the divergent block becomes a trace-head candidate
        // (Section 4.1, rule (b)).
        if self.in_trace.take().is_some() {
            self.stats.trace_exits += 1;
            self.slots.entry(addr).or_default().counter.get_or_insert(0);
        }

        self.dispatch(addr, now, sink);
    }

    /// Normal dispatch of a block outside any trace context.
    fn dispatch(&mut self, addr: Addr, now: Time, sink: &mut impl FnMut(FrontendEvent)) {
        let (slot, read) = match self.slots.entry(addr) {
            Entry::Occupied(e) => (e.into_mut(), None),
            Entry::Vacant(e) => {
                // Executed code in an unmapped region: the workload never
                // does this by construction; ignore defensively.
                let Some(facts) = BlockFacts::of(&self.image, addr) else {
                    return;
                };
                (e.insert(Slot::default()), Some(facts))
            }
        };

        // Entering an existing trace?
        if let Some(tid) = slot.trace {
            let len = self.traces[tid.as_u64() as usize]
                .as_ref()
                .expect("slot traces are live")
                .body()
                .len();
            self.stats.trace_accesses += 1;
            self.stats.context_switches += 2; // dispatcher → trace → back
            self.in_trace = if len > 1 { Some((tid, 1)) } else { None };
            sink(FrontendEvent::TraceAccess { id: tid, time: now });
            return;
        }

        // Copy into the basic-block cache on first execution.
        let facts = match slot.block {
            Some(facts) => facts,
            None => {
                let Some(facts) = read.or_else(|| BlockFacts::of(&self.image, addr)) else {
                    return; // a head candidate in unmapped code
                };
                slot.block = Some(facts);
                self.stats.bb_blocks += 1;
                self.stats.bb_bytes += u64::from(facts.size);
                self.stats.footprint_bytes += u64::from(facts.size);
                self.stats.update_peak();
                facts
            }
        };

        // A backward branch marks its target as a trace-head candidate
        // (Section 4.1, rule (a)); then count executions of candidates.
        if facts.backward_target == Some(addr) {
            slot.counter.get_or_insert(0);
        }
        let fire = slot.counter.as_mut().is_some_and(|counter| {
            *counter += 1;
            *counter >= self.threshold
        });
        if let Some(target) = facts.backward_target.filter(|&t| t != addr) {
            self.slots
                .entry(target)
                .or_default()
                .counter
                .get_or_insert(0);
        }
        if fire {
            self.begin_generation(addr, facts, now, sink);
        }
    }

    fn begin_generation(
        &mut self,
        head: Addr,
        facts: BlockFacts,
        now: Time,
        sink: &mut impl FnMut(FrontendEvent),
    ) {
        let module = self
            .image
            .module_containing(head)
            .expect("head resolved above")
            .id();
        self.generating = Some(TraceGen {
            head,
            body: vec![head],
            size_bytes: facts.size,
            module,
        });
        // A one-block loop terminates generation immediately.
        if facts.backward_target.is_some() {
            self.finish_generation(now, sink);
        }
    }

    fn extend_generation(&mut self, addr: Addr, now: Time, sink: &mut impl FnMut(FrontendEvent)) {
        let generating = self.generating.as_ref().expect("checked by caller");
        let (heads_trace, cached) = self
            .slots
            .get(&addr)
            .map_or((false, None), |s| (s.trace.is_some(), s.block));

        // Stop condition: reached the start of an existing trace, or
        // wrapped around to the head being generated.
        if heads_trace || addr == generating.head {
            self.finish_generation(now, sink);
            // The block still executes normally (it may be a trace access).
            self.dispatch(addr, now, sink);
            return;
        }

        // The tail block also belongs in the basic-block cache.
        let facts = match cached {
            Some(facts) => facts,
            None => {
                let Some(facts) = BlockFacts::of(&self.image, addr) else {
                    self.finish_generation(now, sink);
                    return;
                };
                self.slots.entry(addr).or_default().block = Some(facts);
                self.stats.bb_blocks += 1;
                self.stats.bb_bytes += u64::from(facts.size);
                self.stats.footprint_bytes += u64::from(facts.size);
                facts
            }
        };

        let generating = self.generating.as_mut().expect("checked by caller");
        generating.body.push(addr);
        generating.size_bytes += facts.size;
        let full = generating.body.len() >= MAX_TRACE_BLOCKS;

        // Stop condition: a backward branch ends the trace (rule (a)).
        if facts.backward_target.is_some() || full {
            self.finish_generation(now, sink);
        }
    }

    fn finish_generation(&mut self, now: Time, sink: &mut impl FnMut(FrontendEvent)) {
        let generating = self.generating.take().expect("generation active");
        let id = TraceId::new(self.traces.len() as u64);
        let trace = Trace::new(
            id,
            generating.head,
            generating.body,
            generating.size_bytes,
            generating.module,
            now,
        );
        self.stats.traces_created += 1;
        self.stats.trace_bytes_created += u64::from(trace.size_bytes());
        self.stats.live_trace_bytes += u64::from(trace.size_bytes());
        self.stats.update_peak();
        self.slots.entry(trace.head()).or_default().trace = Some(id);
        self.traces.push(Some(trace.clone()));
        self.live_traces += 1;
        sink(FrontendEvent::TraceCreated { trace });
    }

    fn on_unload(&mut self, module: ModuleId, now: Time, sink: &mut impl FnMut(FrontendEvent)) {
        let Ok(range) = self.image.unmap(module) else {
            return; // unknown or already unloaded: nothing to invalidate
        };

        // Drop every slot in the range: stale basic blocks (their bytes
        // leave the bb cache but stay in the cumulative footprint), head
        // counters, and the traces headed there. (The workload planner
        // only builds intra-module control flow, so a trace's body blocks
        // always share the head's module.)
        let mut ids = Vec::new();
        let stats = &mut self.stats;
        let traces = &mut self.traces;
        self.slots.retain(|addr, slot| {
            if !range.contains(*addr) {
                return true;
            }
            if let Some(facts) = slot.block {
                stats.bb_bytes -= u64::from(facts.size);
            }
            if let Some(id) = slot.trace {
                let trace = traces[id.as_u64() as usize]
                    .take()
                    .expect("slot traces are live");
                ids.push(id);
                stats.traces_invalidated += 1;
                stats.trace_bytes_invalidated += u64::from(trace.size_bytes());
                stats.live_trace_bytes -= u64::from(trace.size_bytes());
            }
            false
        });
        self.live_traces -= ids.len();
        // Slot iteration order is arbitrary; sort so the invalidation
        // event (and thus the recorded log) is deterministic.
        ids.sort_unstable();
        if let Some((tid, _)) = self.in_trace {
            if ids.contains(&tid) {
                self.in_trace = None;
            }
        }
        if let Some(generating) = &self.generating {
            if range.contains(generating.head) {
                self.generating = None;
            }
        }
        if !ids.is_empty() {
            sink(FrontendEvent::TracesInvalidated { ids, time: now });
        }
    }
}

impl FrontendStats {
    fn update_peak(&mut self) {
        let current = self.bb_bytes + self.live_trace_bytes;
        if current > self.peak_cache_bytes {
            self.peak_cache_bytes = current;
        }
        if self.live_trace_bytes > self.peak_trace_bytes {
            self.peak_trace_bytes = self.live_trace_bytes;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gencache_program::{ModuleBuilder, ModuleKind, Region};

    /// A single-module image with one simple loop region.
    fn loop_image(body_sizes: &[u32]) -> (ProgramImage, Region) {
        let mut b = ModuleBuilder::new(
            ModuleId::new(0),
            "t.exe",
            ModuleKind::Executable,
            Addr::new(0x1000),
            64 * 1024,
        );
        let region = b.add_loop(body_sizes).unwrap();
        let mut image = ProgramImage::new();
        image.map(b.finish()).unwrap();
        (image, region)
    }

    /// Runs `iterations` of the region's loop plus the exit block through
    /// the engine, collecting frontend events.
    fn run_loop(
        engine: &mut Engine,
        region: &Region,
        iterations: u32,
        start_micros: u64,
    ) -> Vec<FrontendEvent> {
        let mut events = Vec::new();
        let mut t = start_micros;
        for _ in 0..iterations {
            for &addr in region.path(0) {
                engine.on_event(
                    TimedEvent::new(Time::from_micros(t), WorkloadEvent::Exec { addr }),
                    &mut |e| events.push(e),
                );
                t += 1;
            }
        }
        engine.on_event(
            TimedEvent::new(
                Time::from_micros(t),
                WorkloadEvent::Exec {
                    addr: region.exit_block,
                },
            ),
            &mut |e| events.push(e),
        );
        events
    }

    #[test]
    fn trace_created_at_threshold() {
        let (image, region) = loop_image(&[20, 20, 26]);
        let mut engine = Engine::with_threshold(image, 10);
        let events = run_loop(&mut engine, &region, 30, 0);

        let created: Vec<&Trace> = events
            .iter()
            .filter_map(|e| match e {
                FrontendEvent::TraceCreated { trace } => Some(trace),
                _ => None,
            })
            .collect();
        assert_eq!(created.len(), 1, "exactly one trace for a simple loop");
        let trace = created[0];
        assert_eq!(trace.head(), region.head);
        assert_eq!(trace.body().len(), 3);
        assert_eq!(trace.size_bytes(), 66);

        // Head executions before creation are not trace accesses; the
        // remaining iterations are.
        let accesses = events
            .iter()
            .filter(|e| matches!(e, FrontendEvent::TraceAccess { .. }))
            .count();
        // The head only becomes a candidate once the loop's backward
        // branch first executes (end of iteration 1), so its counter hits
        // 10 during iteration 11; the body is recorded over iteration 11;
        // iterations 12..=30 access the trace: 19 accesses.
        assert_eq!(accesses, 19);
        assert_eq!(engine.stats().traces_created, 1);
    }

    #[test]
    fn no_trace_below_threshold() {
        let (image, region) = loop_image(&[20, 26]);
        let mut engine = Engine::with_threshold(image, 50);
        let events = run_loop(&mut engine, &region, 49, 0);
        assert!(events.is_empty());
        assert_eq!(engine.stats().traces_created, 0);
        assert_eq!(engine.live_trace_count(), 0);
    }

    #[test]
    fn bb_cache_counts_unique_blocks() {
        let (image, region) = loop_image(&[20, 20, 26]);
        let mut engine = Engine::with_threshold(image, 1000);
        run_loop(&mut engine, &region, 5, 0);
        // 3 body blocks + exit stub.
        assert_eq!(engine.stats().bb_blocks, 4);
        assert_eq!(engine.stats().bb_bytes, 66 + 5);
        assert_eq!(engine.stats().footprint_bytes, 71);
        // Re-running does not grow the bb cache.
        run_loop(&mut engine, &region, 5, 1000);
        assert_eq!(engine.stats().bb_blocks, 4);
    }

    #[test]
    fn one_block_self_loop_traces() {
        let (image, region) = loop_image(&[26]);
        let mut engine = Engine::with_threshold(image, 5);
        let events = run_loop(&mut engine, &region, 10, 0);
        let created = events
            .iter()
            .filter(|e| matches!(e, FrontendEvent::TraceCreated { .. }))
            .count();
        assert_eq!(created, 1);
        let trace = engine.trace(TraceId::new(0)).unwrap();
        assert_eq!(trace.body().len(), 1);
    }

    #[test]
    fn call_loop_trace_inlines_helper() {
        let mut b = ModuleBuilder::new(
            ModuleId::new(0),
            "t.exe",
            ModuleKind::Executable,
            Addr::new(0x1000),
            64 * 1024,
        );
        let helper = b.add_function(&[30, 30]).unwrap();
        let region = b.add_loop_calling(&[20, 20, 26], &[(0, &helper)]).unwrap();
        let mut image = ProgramImage::new();
        image.map(b.finish()).unwrap();

        let mut engine = Engine::with_threshold(image, 5);
        let events = run_loop(&mut engine, &region, 10, 0);
        let trace = events
            .iter()
            .find_map(|e| match e {
                FrontendEvent::TraceCreated { trace } => Some(trace),
                _ => None,
            })
            .expect("trace created");
        // b0, h0, h1, b1, b2: the helper is inlined into the superblock,
        // duplicating its bytes in the trace cache (code expansion).
        assert_eq!(trace.body().len(), 5);
        assert_eq!(trace.size_bytes(), 20 + 30 + 30 + 20 + 26);
    }

    #[test]
    fn divergence_creates_secondary_trace() {
        let mut b = ModuleBuilder::new(
            ModuleId::new(0),
            "t.exe",
            ModuleKind::Executable,
            Addr::new(0x1000),
            64 * 1024,
        );
        let region = b.add_branchy_loop(&[20], &[30], &[40], &[26]).unwrap();
        let mut image = ProgramImage::new();
        image.map(b.finish()).unwrap();
        let mut engine = Engine::with_threshold(image, 5);

        let mut events = Vec::new();
        let mut push = |e: FrontendEvent| events.push(e);
        let mut t = 0u64;
        let mut run_path = |engine: &mut Engine, path: &[Addr], events: &mut Vec<FrontendEvent>| {
            for &addr in path {
                engine.on_event(
                    TimedEvent::new(Time::from_micros(t), WorkloadEvent::Exec { addr }),
                    &mut |e| events.push(e),
                );
                t += 1;
            }
        };
        let _ = &mut push;

        // 6 iterations along path A create the primary trace.
        for _ in 0..6 {
            run_path(&mut engine, region.path(0), &mut events);
        }
        assert_eq!(engine.stats().traces_created, 1);
        // Path-B iterations diverge mid-trace; after 5 divergences the
        // B-block becomes hot and a secondary trace covers B + suffix.
        for _ in 0..7 {
            run_path(&mut engine, region.path(1), &mut events);
        }
        assert_eq!(engine.stats().traces_created, 2, "secondary trace expected");
        assert!(engine.stats().trace_exits > 0);

        let secondary = engine.trace(TraceId::new(1)).unwrap();
        assert_eq!(secondary.head(), region.path(1)[1]); // the B block
        assert_eq!(secondary.body().len(), 2); // B + suffix
    }

    #[test]
    fn unload_invalidates_traces_and_blocks() {
        let mut dll = ModuleBuilder::new(
            ModuleId::new(1),
            "x.dll",
            ModuleKind::SharedLibrary,
            Addr::new(0x10_0000),
            64 * 1024,
        );
        let region = dll.add_loop(&[20, 26]).unwrap();
        let mut image = ProgramImage::new();
        image.map(dll.finish()).unwrap();
        let mut engine = Engine::with_threshold(image, 5);

        let events = run_loop(&mut engine, &region, 10, 0);
        assert!(!events.is_empty());
        assert_eq!(engine.live_trace_count(), 1);
        let live_before = engine.stats().live_trace_bytes;
        assert!(live_before > 0);

        let mut out = Vec::new();
        engine.on_event(
            TimedEvent::new(
                Time::from_micros(10_000),
                WorkloadEvent::Unload {
                    module: ModuleId::new(1),
                },
            ),
            &mut |e| out.push(e),
        );
        let FrontendEvent::TracesInvalidated { ids, .. } = &out[0] else {
            panic!("expected invalidation event");
        };
        assert_eq!(ids.len(), 1);
        assert_eq!(engine.live_trace_count(), 0);
        assert_eq!(engine.stats().live_trace_bytes, 0);
        assert_eq!(engine.stats().bb_bytes, 0);
        // The cumulative footprint is unaffected.
        assert_eq!(engine.stats().footprint_bytes, 51);
        assert_eq!(engine.stats().traces_invalidated, 1);
    }

    #[test]
    fn peak_cache_tracks_bb_plus_traces() {
        let (image, region) = loop_image(&[20, 26]);
        let mut engine = Engine::with_threshold(image, 5);
        run_loop(&mut engine, &region, 10, 0);
        let s = engine.stats();
        assert_eq!(s.peak_cache_bytes, s.bb_bytes + s.live_trace_bytes);
        assert!(s.peak_cache_bytes > 0);
    }

    #[test]
    fn trace_length_is_capped() {
        // A loop body of 80 blocks exceeds MAX_TRACE_BLOCKS (64); the
        // trace must stop at the cap rather than swallow the whole loop.
        let sizes: Vec<u32> = (0..80).map(|_| 10).collect();
        let (image, region) = loop_image(&sizes);
        let mut engine = Engine::with_threshold(image, 5);
        let events = run_loop(&mut engine, &region, 10, 0);
        let trace = events
            .iter()
            .find_map(|e| match e {
                FrontendEvent::TraceCreated { trace } => Some(trace),
                _ => None,
            })
            .expect("trace created");
        assert_eq!(trace.body().len(), 64);
        assert_eq!(trace.size_bytes(), 64 * 10);
    }

    #[test]
    fn second_region_gets_second_trace() {
        let mut b = ModuleBuilder::new(
            ModuleId::new(0),
            "t.exe",
            ModuleKind::Executable,
            Addr::new(0x1000),
            64 * 1024,
        );
        let r1 = b.add_loop(&[20, 26]).unwrap();
        let r2 = b.add_loop(&[22, 26]).unwrap();
        let mut image = ProgramImage::new();
        image.map(b.finish()).unwrap();
        let mut engine = Engine::with_threshold(image, 5);
        run_loop(&mut engine, &r1, 10, 0);
        run_loop(&mut engine, &r2, 10, 1000);
        assert_eq!(engine.stats().traces_created, 2);
        assert_eq!(engine.live_trace_count(), 2);
        // Distinct heads, distinct ids.
        let t0 = engine.trace(TraceId::new(0)).unwrap();
        let t1 = engine.trace(TraceId::new(1)).unwrap();
        assert_eq!(t0.head(), r1.head);
        assert_eq!(t1.head(), r2.head);
    }

    /// An executable loop plus a loop in `x.dll` (module 1).
    fn exe_and_dll_image() -> (ProgramImage, Region, Region) {
        let mut exe = ModuleBuilder::new(
            ModuleId::new(0),
            "t.exe",
            ModuleKind::Executable,
            Addr::new(0x1000),
            64 * 1024,
        );
        let exe_loop = exe.add_loop(&[20, 26]).unwrap();
        let mut dll = ModuleBuilder::new(
            ModuleId::new(1),
            "x.dll",
            ModuleKind::SharedLibrary,
            Addr::new(0x10_0000),
            64 * 1024,
        );
        let dll_loop = dll.add_loop(&[20, 20, 26]).unwrap();
        let mut image = ProgramImage::new();
        image.map(exe.finish()).unwrap();
        image.map(dll.finish()).unwrap();
        (image, exe_loop, dll_loop)
    }

    fn exec(engine: &mut Engine, addr: Addr, t: u64) -> Vec<FrontendEvent> {
        let mut events = Vec::new();
        engine.on_event(
            TimedEvent::new(Time::from_micros(t), WorkloadEvent::Exec { addr }),
            &mut |e| events.push(e),
        );
        events
    }

    fn unload_dll(engine: &mut Engine, t: u64) -> Vec<FrontendEvent> {
        let mut events = Vec::new();
        engine.on_event(
            TimedEvent::new(
                Time::from_micros(t),
                WorkloadEvent::Unload {
                    module: ModuleId::new(1),
                },
            ),
            &mut |e| events.push(e),
        );
        events
    }

    #[test]
    fn unload_while_executing_inside_a_trace() {
        let (image, exe_loop, dll_loop) = exe_and_dll_image();
        let mut engine = Engine::with_threshold(image, 5);
        run_loop(&mut engine, &dll_loop, 10, 0);
        let tid = TraceId::new(0);
        assert_eq!(engine.trace(tid).unwrap().head(), dll_loop.head);

        // Enter the trace at its head; execution now sits at body[1].
        let entered = exec(&mut engine, dll_loop.head, 100);
        assert!(matches!(entered[..], [FrontendEvent::TraceAccess { id, .. }] if id == tid));
        assert_eq!(engine.in_trace, Some((tid, 1)));

        let out = unload_dll(&mut engine, 101);
        assert!(
            matches!(&out[..], [FrontendEvent::TracesInvalidated { ids, .. }] if ids == &[tid])
        );
        assert_eq!(engine.in_trace, None);
        assert!(engine.trace(tid).is_none());
        assert_eq!(engine.live_trace_count(), 0);
        assert!(engine.slots.keys().all(|a| a.as_u64() < 0x10_0000));

        // The next body block is gone with its module: no trace exit,
        // no slot.
        let exits = engine.stats().trace_exits;
        assert!(exec(&mut engine, dll_loop.path(0)[1], 102).is_empty());
        assert_eq!(engine.stats().trace_exits, exits);

        // Other code still traces, under the next id.
        let events = run_loop(&mut engine, &exe_loop, 10, 200);
        let created = events.iter().find_map(|e| match e {
            FrontendEvent::TraceCreated { trace } => Some(trace.id()),
            _ => None,
        });
        assert_eq!(created, Some(TraceId::new(1)));
        assert_eq!(engine.live_trace_count(), 1);
    }

    #[test]
    fn unload_while_generating_a_trace_in_the_module() {
        let (image, exe_loop, dll_loop) = exe_and_dll_image();
        let mut engine = Engine::with_threshold(image, 5);
        let mut t = 0;
        'run: for _ in 0..10 {
            for &addr in dll_loop.path(0) {
                assert!(exec(&mut engine, addr, t).is_empty());
                t += 1;
                if engine.generating.is_some() {
                    break 'run;
                }
            }
        }
        assert!(engine.generating.is_some(), "generation began at the head");
        // Record one tail block, then unmap the module under it.
        assert!(exec(&mut engine, dll_loop.path(0)[1], t).is_empty());
        assert!(
            unload_dll(&mut engine, t + 1).is_empty(),
            "no trace to invalidate"
        );
        assert!(engine.generating.is_none());
        assert_eq!(engine.stats().traces_created, 0);
        assert_eq!(engine.stats().bb_bytes, 0);
        assert_eq!(engine.stats().footprint_bytes, 66);
        assert!(engine.slots.is_empty());

        // The abandoned recording took no id.
        run_loop(&mut engine, &exe_loop, 10, 1000);
        assert_eq!(engine.trace(TraceId::new(0)).unwrap().head(), exe_loop.head);
        assert_eq!(engine.live_trace_count(), 1);
    }

    #[test]
    fn executing_unloaded_code_is_ignored() {
        let (image, exe_loop, dll_loop) = exe_and_dll_image();
        let mut engine = Engine::with_threshold(image, 5);
        run_loop(&mut engine, &exe_loop, 10, 0);
        run_loop(&mut engine, &dll_loop, 10, 100);
        unload_dll(&mut engine, 200);

        let slots = engine.slots.len();
        let traces = engine.traces.len();
        let live = engine.live_trace_count();
        let before = *engine.stats();
        for (i, &addr) in dll_loop.path(0).iter().enumerate() {
            assert!(exec(&mut engine, addr, 300 + i as u64).is_empty());
        }
        assert_eq!(engine.slots.len(), slots);
        assert_eq!(engine.traces.len(), traces);
        assert_eq!(engine.live_trace_count(), live);
        let mut after = *engine.stats();
        assert_eq!(after.exec_events, before.exec_events + 3);
        after.exec_events = before.exec_events;
        assert_eq!(after, before);
    }

    #[test]
    fn backward_target_counter_precedes_first_execution() {
        let (image, region) = loop_image(&[20, 20, 26]);
        let mut engine = Engine::with_threshold(image, 3);
        let [b0, b1, b2] = region.path(0) else {
            panic!("three-block loop");
        };
        // Enter the loop mid-body: b2's backward branch names b0 a head
        // candidate before b0 has ever executed.
        exec(&mut engine, *b1, 0);
        exec(&mut engine, *b2, 1);
        let head = &engine.slots[b0];
        assert_eq!(head.counter, Some(0));
        assert!(head.block.is_none() && head.trace.is_none());
        assert_eq!(engine.stats().bb_blocks, 2);

        // Its first execution both caches the block and counts it.
        exec(&mut engine, *b0, 2);
        let head = &engine.slots[b0];
        assert_eq!(head.counter, Some(1));
        assert_eq!(head.block.map(|f| f.size), Some(20));
        assert_eq!(engine.stats().bb_blocks, 3);
        assert_eq!(engine.stats().bb_bytes, 66);
        assert_eq!(engine.stats().peak_cache_bytes, 66);

        // Two more iterations reach the threshold of 3; the third
        // records the trace.
        let mut t = 3;
        for _ in 0..3 {
            for &addr in &[*b1, *b2, *b0] {
                exec(&mut engine, addr, t);
                t += 1;
            }
        }
        let trace = engine.trace(TraceId::new(0)).expect("trace created");
        assert_eq!(trace.head(), *b0);
        assert_eq!(trace.body(), &[*b0, *b1, *b2]);
        assert_eq!(engine.slots[b0].trace, Some(TraceId::new(0)));
    }

    #[test]
    #[should_panic(expected = "threshold must be nonzero")]
    fn zero_threshold_rejected() {
        let _ = Engine::with_threshold(ProgramImage::new(), 0);
    }
}
