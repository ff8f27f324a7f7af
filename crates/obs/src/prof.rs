//! A zero-dependency statistical profiler over the span infrastructure.
//!
//! # Sampling model
//!
//! Every thread that opens a [`Span`](crate::Span) (or a manual
//! [`frame`] guard) keeps its *current span stack* in a thread-local
//! slot registered in a global slab. A background sampler thread wakes
//! at a configurable rate (default [`DEFAULT_HZ`] = 99 Hz, the classic
//! off-by-one that avoids lockstep with 10 ms timers), snapshots every
//! live slot, and folds each observed stack into a table keyed by the
//! frame sequence. The result is a wall-clock-weighted flamegraph: a
//! stack observed in `n` of `N` samples accounts for `n/hz` seconds.
//!
//! The price is paid only while a profiler runs. With no profiler
//! active, opening a span performs exactly one relaxed atomic load and
//! no TLS write, no clock read, and no allocation — the same "disabled
//! observability is a true no-op" contract the rest of the crate keeps.
//! Because samples never perturb control flow, profiling a run leaves
//! its results bit-identical to an unprofiled run.
//!
//! # Allocation flamegraphs
//!
//! When fused with the [`TrackingAllocator`](crate::TrackingAllocator)
//! (the default; see [`ProfilerConfig::track_allocs`]), every
//! allocation bumps two relaxed per-thread counters. The sampler
//! attributes each tick's *delta* to the stack the thread is currently
//! in — statistical attribution in the style of pprof's heap profiles,
//! costing two relaxed adds per allocation instead of a stack hash.
//!
//! # Accuracy caveats
//!
//! The sampler reads a peer thread's stack without stopping it, so a
//! stack that changes mid-read can be captured mixed — standard for
//! statistical profilers and harmless at any realistic span rate.
//! Stacks deeper than [`MAX_DEPTH`] are truncated with a sentinel
//! frame. Sampler ticks that cannot keep schedule are counted in
//! [`Profile::dropped_samples`] rather than silently skewing weights.
//!
//! # Exports
//!
//! [`Profile::to_folded`] emits Brendan Gregg collapsed-stack lines
//! (`frame;frame count`), [`Profile::to_speedscope`] a
//! speedscope-compatible JSON document with one CPU-sample profile and
//! one allocated-bytes profile, and [`Profile::to_capture`] /
//! [`Profile::from_capture`] a self-describing text capture that
//! `paydemand profile report|diff` consumes. [`diff`] ranks per-stack
//! wall-clock deltas between two captures, worst regression first.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::json::json_escape;

/// Default sampling rate. 99 Hz, not 100, so the sampler drifts
/// relative to 10 ms-aligned timers instead of aliasing with them.
pub const DEFAULT_HZ: u32 = 99;

/// Deepest stack captured per thread; deeper nesting is truncated
/// with a `(truncated)` sentinel frame. The engine nests three levels
/// (`round` → phase → solver), so 32 leaves generous headroom.
pub const MAX_DEPTH: usize = 32;

/// Sentinel frame appended when a stack exceeds [`MAX_DEPTH`].
const TRUNCATED_FRAME: &str = "(truncated)";

/// Magic first line of the text capture format.
const CAPTURE_MAGIC: &str = "# paydemand-profile v1";

// ---------------------------------------------------------------------------
// Global enablement (refcounted, mirrors `alloc::ENABLED`)
// ---------------------------------------------------------------------------

/// The single flag the span fast path reads (relaxed). Driven by the
/// [`ENABLE_COUNT`] refcount so overlapping profilers compose.
static STACKS_ENABLED: AtomicBool = AtomicBool::new(false);
static ENABLE_COUNT: AtomicUsize = AtomicUsize::new(0);

fn enable_stacks() {
    if ENABLE_COUNT.fetch_add(1, Ordering::SeqCst) == 0 {
        STACKS_ENABLED.store(true, Ordering::SeqCst);
    }
}

fn disable_stacks() {
    if ENABLE_COUNT.fetch_sub(1, Ordering::SeqCst) == 1 {
        STACKS_ENABLED.store(false, Ordering::SeqCst);
    }
}

/// Whether any profiler is currently sampling. One relaxed load — this
/// is the entire cost a span pays when profiling is off.
#[must_use]
pub fn profiling_active() -> bool {
    STACKS_ENABLED.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Frame interning
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Interner {
    names: Vec<String>,
    ids: BTreeMap<String, u32>,
}

fn interner() -> &'static Mutex<Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| Mutex::new(Interner::default()))
}

/// Maps a span name to a stable `u32` id (process-lifetime table).
fn intern(name: &str) -> u32 {
    let mut table = interner().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(&id) = table.ids.get(name) {
        return id;
    }
    #[allow(clippy::cast_possible_truncation)]
    let id = table.names.len() as u32;
    table.names.push(name.to_owned());
    table.ids.insert(name.to_owned(), id);
    id
}

fn frame_name(id: u32) -> String {
    let table = interner().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    table.names.get(id as usize).cloned().unwrap_or_else(|| format!("(frame-{id})"))
}

// ---------------------------------------------------------------------------
// Per-thread slots and the global slab
// ---------------------------------------------------------------------------

/// One thread's live span stack, readable by the sampler thread.
///
/// The writer protocol makes torn reads benign: the frame id is stored
/// *before* `depth` is raised (release), and the sampler reads `depth`
/// with acquire before reading frames, so every frame below the depth
/// it observed was fully written.
#[derive(Debug)]
struct ThreadSlot {
    /// Claimed by a live thread. Cleared (release) at thread exit so
    /// the slab can hand the slot to a later thread.
    in_use: AtomicBool,
    /// Bumped on every claim; lets the sampler discard allocation
    /// baselines that belong to a previous owner of the slot.
    generation: AtomicU64,
    /// Current stack depth (may exceed [`MAX_DEPTH`]; frames beyond it
    /// are not recorded).
    depth: AtomicUsize,
    /// Interned frame ids, valid up to `min(depth, MAX_DEPTH)`.
    frames: [AtomicU32; MAX_DEPTH],
    /// Cumulative bytes allocated by this thread while profiled.
    alloc_bytes: AtomicU64,
    /// Cumulative allocation count.
    allocs: AtomicU64,
}

impl ThreadSlot {
    fn new() -> ThreadSlot {
        ThreadSlot {
            in_use: AtomicBool::new(false),
            generation: AtomicU64::new(0),
            depth: AtomicUsize::new(0),
            frames: std::array::from_fn(|_| AtomicU32::new(0)),
            alloc_bytes: AtomicU64::new(0),
            allocs: AtomicU64::new(0),
        }
    }

    /// Prepares the slot for a new owning thread.
    fn claim(&self) {
        self.generation.fetch_add(1, Ordering::SeqCst);
        self.depth.store(0, Ordering::SeqCst);
        self.alloc_bytes.store(0, Ordering::SeqCst);
        self.allocs.store(0, Ordering::SeqCst);
        self.in_use.store(true, Ordering::SeqCst);
    }

    fn release(&self) {
        self.depth.store(0, Ordering::SeqCst);
        self.in_use.store(false, Ordering::SeqCst);
    }
}

/// The slab of every slot ever created. Slots are leaked (`&'static`)
/// so the sampler can hold references without lifetimes or `Arc`s in
/// the allocator-visible TLS; dead threads' slots are reused.
fn slots() -> &'static Mutex<Vec<&'static ThreadSlot>> {
    static SLOTS: OnceLock<Mutex<Vec<&'static ThreadSlot>>> = OnceLock::new();
    SLOTS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Releases the thread's slot at thread exit (TLS destructor).
struct SlotRelease(&'static ThreadSlot);

impl Drop for SlotRelease {
    fn drop(&mut self) {
        SLOT.try_with(|cell| cell.set(None)).ok();
        self.0.release();
    }
}

thread_local! {
    /// The thread's claimed slot. `const`-initialised `Cell` of a
    /// `Copy` value — no destructor and no lazy init, so the allocator
    /// hook can read it without ever allocating or recursing.
    static SLOT: Cell<Option<&'static ThreadSlot>> = const { Cell::new(None) };
    /// Separate destructor-carrying key that releases the slot when
    /// the thread exits. Only touched on the (rare) claim path.
    static SLOT_RELEASE: RefCell<Option<SlotRelease>> = const { RefCell::new(None) };
}

/// Returns the thread's slot, claiming one from the slab on first use.
fn current_slot() -> Option<&'static ThreadSlot> {
    if let Ok(Some(slot)) = SLOT.try_with(Cell::get) {
        return Some(slot);
    }
    // Claim path: reuse a released slot or leak a fresh one.
    let slot = {
        let mut slab = slots().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(&slot) = slab.iter().find(|slot| !slot.in_use.load(Ordering::SeqCst)) {
            slot
        } else {
            let slot: &'static ThreadSlot = Box::leak(Box::new(ThreadSlot::new()));
            slab.push(slot);
            slot
        }
    };
    slot.claim();
    // If either TLS key is already destroyed (thread teardown), hand
    // the slot back instead of leaking it claimed forever.
    let installed =
        SLOT_RELEASE.try_with(|release| *release.borrow_mut() = Some(SlotRelease(slot))).is_ok()
            && SLOT.try_with(|cell| cell.set(Some(slot))).is_ok();
    if installed {
        Some(slot)
    } else {
        slot.release();
        None
    }
}

/// RAII frame: pushed on the current thread's span stack until
/// dropped. Drop runs during unwinding too, so a panic mid-span
/// restores the stack (same guarantee as
/// [`PhaseGuard`](crate::PhaseGuard)).
pub struct FrameGuard {
    slot: &'static ThreadSlot,
    prev: usize,
}

impl std::fmt::Debug for FrameGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameGuard").field("prev", &self.prev).finish_non_exhaustive()
    }
}

impl Drop for FrameGuard {
    fn drop(&mut self) {
        // Restoring the saved depth (not decrementing) makes
        // unwinding through several frames self-correcting; like
        // `PhaseGuard`, guards are expected to drop innermost-first.
        self.slot.depth.store(self.prev, Ordering::Release);
    }
}

/// Pushes `name` on the current thread's span stack while any profiler
/// is sampling; returns `None` (after one relaxed load) otherwise.
///
/// [`Recorder::scoped`](crate::Recorder) calls this for every span, so
/// instrumented code gets stacks for free; hand-timed hot paths (the
/// serve daemon's ingest stages) use it directly.
#[must_use]
pub fn frame(name: &str) -> Option<FrameGuard> {
    if !STACKS_ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    let slot = current_slot()?;
    let id = intern(name);
    let depth = slot.depth.load(Ordering::Relaxed);
    if depth < MAX_DEPTH {
        slot.frames[depth].store(id, Ordering::Relaxed);
    }
    slot.depth.store(depth + 1, Ordering::Release);
    Some(FrameGuard { slot, prev: depth })
}

/// Attributes one allocation of `size` bytes to the current thread.
///
/// Called from the tracking allocator — must never allocate, so it
/// only reads the `const`-initialised TLS cell and bumps two relaxed
/// counters.
#[inline]
pub(crate) fn on_alloc(size: usize) {
    if !STACKS_ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let _ = SLOT.try_with(|cell| {
        if let Some(slot) = cell.get() {
            slot.alloc_bytes.fetch_add(size as u64, Ordering::Relaxed);
            slot.allocs.fetch_add(1, Ordering::Relaxed);
        }
    });
}

/// Current span-stack depth of the calling thread (0 when profiling is
/// off or no frame is open). Exposed for the panic-safety tests.
#[doc(hidden)]
#[must_use]
pub fn current_depth() -> usize {
    SLOT.try_with(Cell::get).ok().flatten().map_or(0, |slot| slot.depth.load(Ordering::Relaxed))
}

// ---------------------------------------------------------------------------
// The sampler thread
// ---------------------------------------------------------------------------

#[derive(Debug, Default, Clone, Copy)]
struct StackCounts {
    samples: u64,
    alloc_bytes: u64,
    allocs: u64,
}

#[derive(Debug, Default)]
struct SamplerShared {
    stop: AtomicBool,
    table: Mutex<BTreeMap<Vec<u32>, StackCounts>>,
    samples: AtomicU64,
    dropped: AtomicU64,
    overhead_ns: AtomicU64,
}

/// Per-slot allocation baseline so each tick attributes only its delta.
type Baselines = BTreeMap<usize, (u64, u64, u64)>;

fn sampler_loop(shared: &SamplerShared, hz: u32) {
    let period = Duration::from_nanos(1_000_000_000 / u64::from(hz.max(1)));
    let mut baselines: Baselines = BTreeMap::new();
    let mut next = Instant::now() + period;
    loop {
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        let now = Instant::now();
        if let Some(wait) = next.checked_duration_since(now) {
            // Sleep in bounded chunks so stop() stays responsive even
            // at 1 Hz.
            std::thread::sleep(wait.min(Duration::from_millis(20)));
            continue;
        }
        let began = Instant::now();
        sample_once(shared, &mut baselines);
        let after = Instant::now();
        next += period;
        // Fully-missed periods are dropped samples, not silent skew.
        while after >= next {
            shared.dropped.fetch_add(1, Ordering::Relaxed);
            next += period;
        }
        #[allow(clippy::cast_possible_truncation)]
        shared
            .overhead_ns
            .fetch_add(after.duration_since(began).as_nanos() as u64, Ordering::Relaxed);
    }
}

fn sample_once(shared: &SamplerShared, baselines: &mut Baselines) {
    let slab = slots().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let Ok(mut table) = shared.table.try_lock() else {
        // Someone is exporting mid-run; skipping the tick is a drop,
        // not a stall.
        shared.dropped.fetch_add(1, Ordering::Relaxed);
        return;
    };
    for (index, slot) in slab.iter().enumerate() {
        let generation = slot.generation.load(Ordering::Acquire);
        let bytes = slot.alloc_bytes.load(Ordering::Relaxed);
        let allocs = slot.allocs.load(Ordering::Relaxed);
        let entry = baselines.entry(index).or_insert((generation, 0, 0));
        if entry.0 != generation {
            *entry = (generation, 0, 0);
        }
        let delta_bytes = bytes.saturating_sub(entry.1);
        let delta_allocs = allocs.saturating_sub(entry.2);
        entry.1 = bytes;
        entry.2 = allocs;
        if !slot.in_use.load(Ordering::Acquire) {
            continue;
        }
        let depth = slot.depth.load(Ordering::Acquire);
        if depth == 0 {
            continue;
        }
        let take = depth.min(MAX_DEPTH);
        let mut key = Vec::with_capacity(take + 1);
        for frame in &slot.frames[..take] {
            key.push(frame.load(Ordering::Relaxed));
        }
        if depth > MAX_DEPTH {
            key.push(intern(TRUNCATED_FRAME));
        }
        let counts = table.entry(key).or_default();
        counts.samples += 1;
        counts.alloc_bytes += delta_bytes;
        counts.allocs += delta_allocs;
        shared.samples.fetch_add(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Profiler handle
// ---------------------------------------------------------------------------

/// Configuration for [`Profiler::start`].
#[derive(Debug, Clone, Copy)]
pub struct ProfilerConfig {
    /// Sampling rate in Hz (clamped to 1..=1000).
    pub hz: u32,
    /// Fuse with the tracking allocator so allocation deltas are
    /// attributed to live stacks (allocation flamegraphs).
    pub track_allocs: bool,
}

impl Default for ProfilerConfig {
    fn default() -> ProfilerConfig {
        ProfilerConfig { hz: DEFAULT_HZ, track_allocs: true }
    }
}

impl ProfilerConfig {
    /// Default config at a specific rate.
    #[must_use]
    pub fn at_hz(hz: u32) -> ProfilerConfig {
        ProfilerConfig { hz, ..ProfilerConfig::default() }
    }
}

/// A running sampling profiler. Dropping it stops the sampler; call
/// [`Profiler::stop`] to also receive the collected [`Profile`].
///
/// Profilers are independent and may overlap (the CLI and the HTTP
/// capture endpoint can sample simultaneously): span-stack capture is
/// refcounted globally, while each profiler folds into its own table.
#[derive(Debug)]
pub struct Profiler {
    shared: Arc<SamplerShared>,
    thread: Option<JoinHandle<()>>,
    started: Instant,
    hz: u32,
    track_allocs: bool,
    stopped: bool,
}

impl Profiler {
    /// Starts sampling at `config.hz`.
    #[must_use]
    pub fn start(config: ProfilerConfig) -> Profiler {
        let hz = config.hz.clamp(1, 1000);
        enable_stacks();
        if config.track_allocs {
            crate::alloc::enable_tracking();
        }
        let shared = Arc::new(SamplerShared::default());
        let worker = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("paydemand-prof".to_owned())
            .spawn(move || sampler_loop(&worker, hz))
            .ok();
        Profiler {
            shared,
            thread,
            started: Instant::now(),
            hz,
            track_allocs: config.track_allocs,
            stopped: false,
        }
    }

    /// Stops the sampler and returns the collected profile.
    #[must_use]
    pub fn stop(mut self) -> Profile {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Profile {
        self.stopped = true;
        self.shared.stop.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        if self.track_allocs {
            crate::alloc::disable_tracking();
        }
        disable_stacks();
        let duration = self.started.elapsed();
        let table = std::mem::take(
            &mut *self.shared.table.lock().unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        let mut stacks: Vec<StackSample> = table
            .into_iter()
            .map(|(key, counts)| StackSample {
                frames: key.iter().map(|&id| frame_name(id)).collect(),
                samples: counts.samples,
                alloc_bytes: counts.alloc_bytes,
                allocs: counts.allocs,
            })
            .collect();
        stacks.sort_by(|a, b| a.frames.cmp(&b.frames));
        #[allow(clippy::cast_precision_loss)]
        Profile {
            hz: self.hz,
            duration_seconds: duration.as_secs_f64(),
            samples_total: self.shared.samples.load(Ordering::Relaxed),
            dropped_samples: self.shared.dropped.load(Ordering::Relaxed),
            overhead_seconds: self.shared.overhead_ns.load(Ordering::Relaxed) as f64 / 1e9,
            stacks,
        }
    }
}

impl Drop for Profiler {
    fn drop(&mut self) {
        if !self.stopped {
            // Not stopped explicitly: still release the global flags.
            let _ = self.shutdown();
        }
    }
}

/// Convenience: samples for `duration`, then returns the profile.
/// Used by the on-demand `GET /profile` endpoints.
#[must_use]
pub fn capture_for(duration: Duration, config: ProfilerConfig) -> Profile {
    let profiler = Profiler::start(config);
    std::thread::sleep(duration);
    profiler.stop()
}

// ---------------------------------------------------------------------------
// Profile: the collected result + exporters
// ---------------------------------------------------------------------------

/// One folded stack and its sampled weights.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StackSample {
    /// Frame names, outermost first.
    pub frames: Vec<String>,
    /// Ticks this exact stack was observed.
    pub samples: u64,
    /// Bytes allocated while this stack was live (statistical).
    pub alloc_bytes: u64,
    /// Allocations while this stack was live (statistical).
    pub allocs: u64,
}

impl StackSample {
    /// The stack in collapsed form: `frame;frame;frame`.
    #[must_use]
    pub fn folded_name(&self) -> String {
        self.frames.join(";")
    }
}

/// A finished capture: folded stacks plus sampler self-accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    /// Sampling rate the capture ran at.
    pub hz: u32,
    /// Wall-clock length of the capture window.
    pub duration_seconds: f64,
    /// Stack samples collected (sum of per-stack counts).
    pub samples_total: u64,
    /// Ticks missed (sampler behind schedule or table contended).
    pub dropped_samples: u64,
    /// Wall-clock time the sampler thread spent inside sampling work.
    pub overhead_seconds: f64,
    /// Folded stacks, sorted by frame sequence.
    pub stacks: Vec<StackSample>,
}

/// Weight extractor for one speedscope profile (samples or bytes).
type Weight = fn(&StackSample) -> u64;

impl Profile {
    /// True when no stack was ever observed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.stacks.is_empty()
    }

    /// Estimated wall-clock seconds represented by `samples` at this
    /// profile's rate.
    #[must_use]
    pub fn seconds_for(&self, samples: u64) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let s = samples as f64;
        s / f64::from(self.hz.max(1))
    }

    /// The `n` hottest stacks by sample count (ties broken by name so
    /// output is deterministic).
    #[must_use]
    pub fn top_stacks(&self, n: usize) -> Vec<&StackSample> {
        let mut ranked: Vec<&StackSample> = self.stacks.iter().collect();
        ranked.sort_by(|a, b| b.samples.cmp(&a.samples).then_with(|| a.frames.cmp(&b.frames)));
        ranked.truncate(n);
        ranked
    }

    /// Brendan Gregg collapsed-stack text, CPU samples as weights.
    #[must_use]
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        for stack in &self.stacks {
            if stack.samples > 0 {
                let _ = writeln!(out, "{} {}", stack.folded_name(), stack.samples);
            }
        }
        out
    }

    /// Collapsed-stack text weighted by allocated bytes instead of
    /// samples — feed to any flamegraph tool for an allocation graph.
    #[must_use]
    pub fn to_folded_alloc(&self) -> String {
        let mut out = String::new();
        for stack in &self.stacks {
            if stack.alloc_bytes > 0 {
                let _ = writeln!(out, "{} {}", stack.folded_name(), stack.alloc_bytes);
            }
        }
        out
    }

    /// A speedscope-compatible JSON document (open at
    /// <https://www.speedscope.app>) with two sampled profiles: CPU
    /// samples and allocated bytes. Output is byte-deterministic for a
    /// given profile (golden-tested).
    #[must_use]
    pub fn to_speedscope(&self, name: &str) -> String {
        // Frames indexed in first-use order over the (sorted) stacks.
        let mut frame_ids: BTreeMap<&str, usize> = BTreeMap::new();
        let mut frames: Vec<&str> = Vec::new();
        let mut indexed: Vec<Vec<usize>> = Vec::with_capacity(self.stacks.len());
        for stack in &self.stacks {
            let mut ids = Vec::with_capacity(stack.frames.len());
            for frame in &stack.frames {
                let next = frames.len();
                let id = *frame_ids.entry(frame.as_str()).or_insert(next);
                if id == next {
                    frames.push(frame.as_str());
                }
                ids.push(id);
            }
            indexed.push(ids);
        }
        let mut out = String::new();
        out.push_str("{\"$schema\": \"https://www.speedscope.app/file-format-schema.json\"");
        out.push_str(", \"shared\": {\"frames\": [");
        for (i, frame) in frames.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{{\"name\": \"{}\"}}", json_escape(frame));
        }
        out.push_str("]}, \"profiles\": [");
        let weights: [(&str, &str, Weight); 2] = [
            ("cpu samples", "none", |s| s.samples),
            ("allocated bytes", "bytes", |s| s.alloc_bytes),
        ];
        for (i, (kind, unit, weight)) in weights.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let total: u64 = self.stacks.iter().map(weight).sum();
            let _ = write!(
                out,
                "{{\"type\": \"sampled\", \"name\": \"{}: {}\", \"unit\": \"{}\", \
                 \"startValue\": 0, \"endValue\": {}, \"samples\": [",
                json_escape(name),
                kind,
                unit,
                total,
            );
            let mut first = true;
            for (stack, ids) in self.stacks.iter().zip(&indexed) {
                if weight(stack) == 0 {
                    continue;
                }
                if !first {
                    out.push_str(", ");
                }
                first = false;
                out.push('[');
                for (j, id) in ids.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "{id}");
                }
                out.push(']');
            }
            out.push_str("], \"weights\": [");
            let mut first = true;
            for stack in &self.stacks {
                let w = weight(stack);
                if w == 0 {
                    continue;
                }
                if !first {
                    out.push_str(", ");
                }
                first = false;
                let _ = write!(out, "{w}");
            }
            out.push_str("]}");
        }
        let _ = writeln!(
            out,
            "], \"name\": \"{}\", \"activeProfileIndex\": 0, \"exporter\": \"paydemand\"}}",
            json_escape(name),
        );
        out
    }

    /// The self-describing text capture `paydemand profile` writes:
    /// a header of `# key value` lines, then one
    /// `stack samples alloc_bytes allocs` line per folded stack.
    /// Flamegraph tools that ignore `#` comments read it as collapsed
    /// stacks directly.
    #[must_use]
    pub fn to_capture(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{CAPTURE_MAGIC}");
        let _ = writeln!(out, "# hz {}", self.hz);
        let _ = writeln!(out, "# duration_seconds {:.6}", self.duration_seconds);
        let _ = writeln!(out, "# samples_total {}", self.samples_total);
        let _ = writeln!(out, "# dropped_samples {}", self.dropped_samples);
        let _ = writeln!(out, "# overhead_seconds {:.6}", self.overhead_seconds);
        for stack in &self.stacks {
            let _ = writeln!(
                out,
                "{} {} {} {}",
                stack.folded_name(),
                stack.samples,
                stack.alloc_bytes,
                stack.allocs
            );
        }
        out
    }

    /// Parses [`Profile::to_capture`] output. Plain collapsed-stack
    /// text (two columns, no header) is accepted too, defaulting the
    /// header fields.
    ///
    /// # Errors
    ///
    /// A message naming the first malformed line.
    pub fn from_capture(text: &str) -> Result<Profile, String> {
        let mut profile = Profile { hz: DEFAULT_HZ, samples_total: u64::MAX, ..Profile::default() };
        for (number, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(comment) = line.strip_prefix('#') {
                let mut parts = comment.split_whitespace();
                let (key, value) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
                let parse_err = |key: &str| format!("line {}: bad {key} value", number + 1);
                match key {
                    "hz" => profile.hz = value.parse().map_err(|_| parse_err("hz"))?,
                    "duration_seconds" => {
                        profile.duration_seconds =
                            value.parse().map_err(|_| parse_err("duration_seconds"))?;
                    }
                    "samples_total" => {
                        profile.samples_total =
                            value.parse().map_err(|_| parse_err("samples_total"))?;
                    }
                    "dropped_samples" => {
                        profile.dropped_samples =
                            value.parse().map_err(|_| parse_err("dropped_samples"))?;
                    }
                    "overhead_seconds" => {
                        profile.overhead_seconds =
                            value.parse().map_err(|_| parse_err("overhead_seconds"))?;
                    }
                    // The magic line and unknown annotations pass through.
                    _ => {}
                }
                continue;
            }
            let mut parts = line.split_whitespace();
            let stack = parts.next().unwrap_or("");
            let numbers: Vec<u64> = parts
                .map(str::parse)
                .collect::<Result<_, _>>()
                .map_err(|_| format!("line {}: non-numeric weight", number + 1))?;
            let (samples, alloc_bytes, allocs) = match numbers.as_slice() {
                [s] => (*s, 0, 0),
                [s, b, a] => (*s, *b, *a),
                _ => {
                    return Err(format!(
                        "line {}: expected `stack samples [alloc_bytes allocs]`",
                        number + 1
                    ))
                }
            };
            profile.stacks.push(StackSample {
                frames: stack.split(';').map(str::to_owned).collect(),
                samples,
                alloc_bytes,
                allocs,
            });
        }
        if profile.samples_total == u64::MAX {
            profile.samples_total = profile.stacks.iter().map(|s| s.samples).sum();
        }
        profile.stacks.sort_by(|a, b| a.frames.cmp(&b.frames));
        Ok(profile)
    }

    /// A short human-readable report: header plus the `top` hottest
    /// stacks with their estimated wall-clock share.
    #[must_use]
    pub fn render_report(&self, top: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "profile: {} samples at {} Hz over {:.2}s ({} dropped, sampler overhead {:.4}s)",
            self.samples_total,
            self.hz,
            self.duration_seconds,
            self.dropped_samples,
            self.overhead_seconds,
        );
        if self.is_empty() {
            let _ = writeln!(out, "  (no stacks observed)");
            return out;
        }
        let total: u64 = self.stacks.iter().map(|s| s.samples).sum();
        let _ = writeln!(out, "  {:>9}  {:>6}  {:>12}  stack", "seconds", "share", "alloc_bytes");
        for stack in self.top_stacks(top) {
            #[allow(clippy::cast_precision_loss)]
            let share = if total == 0 { 0.0 } else { stack.samples as f64 / total as f64 * 100.0 };
            let _ = writeln!(
                out,
                "  {:>9.4}  {:>5.1}%  {:>12}  {}",
                self.seconds_for(stack.samples),
                share,
                stack.alloc_bytes,
                stack.folded_name(),
            );
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Differential profiles
// ---------------------------------------------------------------------------

/// One stack's before/after comparison inside a [`ProfileDiff`].
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// The folded stack name.
    pub stack: String,
    /// Estimated wall-clock seconds in the *before* capture.
    pub before_seconds: f64,
    /// Estimated wall-clock seconds in the *after* capture.
    pub after_seconds: f64,
    /// `after - before`; positive means the stack got slower.
    pub delta_seconds: f64,
}

/// A differential profile: per-stack wall-clock deltas between two
/// captures, sorted worst regression first.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileDiff {
    /// Entries sorted by `delta_seconds` descending (regressions
    /// first), ties broken by stack name.
    pub entries: Vec<DiffEntry>,
}

/// Compares two profiles stack-by-stack. Weights are normalised to
/// seconds via each capture's own rate, so captures at different Hz or
/// lengths compare fairly.
#[must_use]
pub fn diff(before: &Profile, after: &Profile) -> ProfileDiff {
    let mut merged: BTreeMap<String, (f64, f64)> = BTreeMap::new();
    for stack in &before.stacks {
        merged.entry(stack.folded_name()).or_default().0 += before.seconds_for(stack.samples);
    }
    for stack in &after.stacks {
        merged.entry(stack.folded_name()).or_default().1 += after.seconds_for(stack.samples);
    }
    let mut entries: Vec<DiffEntry> = merged
        .into_iter()
        .map(|(stack, (before_seconds, after_seconds))| DiffEntry {
            stack,
            before_seconds,
            after_seconds,
            delta_seconds: after_seconds - before_seconds,
        })
        .collect();
    entries.sort_by(|a, b| {
        b.delta_seconds
            .partial_cmp(&a.delta_seconds)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.stack.cmp(&b.stack))
    });
    ProfileDiff { entries }
}

impl ProfileDiff {
    /// Renders the `top` worst regressions as an aligned table.
    #[must_use]
    pub fn render(&self, top: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "  {:>9}  {:>9}  {:>9}  stack", "delta s", "before s", "after s");
        for entry in self.entries.iter().take(top) {
            let _ = writeln!(
                out,
                "  {:>+9.4}  {:>9.4}  {:>9.4}  {}",
                entry.delta_seconds, entry.before_seconds, entry.after_seconds, entry.stack,
            );
        }
        if self.entries.is_empty() {
            let _ = writeln!(out, "  (no stacks in either capture)");
        }
        out
    }
}

// ---------------------------------------------------------------------------
// On-demand capture requests (shared by both HTTP endpoints)
// ---------------------------------------------------------------------------

/// Output format of an on-demand capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureFormat {
    /// Collapsed-stack text with the capture header (default).
    Folded,
    /// Speedscope JSON.
    Speedscope,
}

/// A parsed `GET /profile?seconds=N&format=folded|speedscope` request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaptureRequest {
    /// Capture window in seconds (default 1, clamped to 0.1..=30 so a
    /// request cannot wedge a serving thread for minutes).
    pub seconds: f64,
    /// Requested output format.
    pub format: CaptureFormat,
}

impl Default for CaptureRequest {
    fn default() -> CaptureRequest {
        CaptureRequest { seconds: 1.0, format: CaptureFormat::Folded }
    }
}

impl CaptureRequest {
    /// Parses the query string (the part after `?`, possibly empty).
    ///
    /// # Errors
    ///
    /// A client-facing message for unknown keys or out-of-range
    /// values.
    pub fn parse_query(query: &str) -> Result<CaptureRequest, String> {
        let mut request = CaptureRequest::default();
        for pair in query.split('&').filter(|pair| !pair.is_empty()) {
            let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
            match key {
                "seconds" => {
                    let seconds: f64 =
                        value.parse().map_err(|_| format!("bad seconds value: {value:?}"))?;
                    if !seconds.is_finite() || !(0.1..=30.0).contains(&seconds) {
                        return Err(format!("seconds must be within 0.1..=30, got {value}"));
                    }
                    request.seconds = seconds;
                }
                "format" => {
                    request.format = match value {
                        "folded" => CaptureFormat::Folded,
                        "speedscope" => CaptureFormat::Speedscope,
                        other => return Err(format!("unknown format {other:?}")),
                    };
                }
                other => return Err(format!("unknown query key {other:?}")),
            }
        }
        Ok(request)
    }

    /// Runs the capture synchronously and returns it.
    #[must_use]
    pub fn capture(self) -> Profile {
        capture_for(Duration::from_secs_f64(self.seconds), ProfilerConfig::default())
    }

    /// The HTTP content type of [`CaptureRequest::render`] output.
    #[must_use]
    pub fn content_type(self) -> &'static str {
        match self.format {
            CaptureFormat::Folded => "text/plain; charset=utf-8",
            CaptureFormat::Speedscope => "application/json; charset=utf-8",
        }
    }

    /// Renders `profile` in the requested format.
    #[must_use]
    pub fn render(self, profile: &Profile) -> String {
        match self.format {
            CaptureFormat::Folded => profile.to_capture(),
            CaptureFormat::Speedscope => profile.to_speedscope("paydemand capture"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> Profile {
        Profile {
            hz: 99,
            duration_seconds: 1.5,
            samples_total: 12,
            dropped_samples: 1,
            overhead_seconds: 0.000_512,
            stacks: vec![
                StackSample {
                    frames: vec!["round".to_owned(), "demand".to_owned()],
                    samples: 8,
                    alloc_bytes: 4096,
                    allocs: 4,
                },
                StackSample {
                    frames: vec!["round".to_owned(), "pricing".to_owned()],
                    samples: 4,
                    alloc_bytes: 0,
                    allocs: 0,
                },
            ],
        }
    }

    #[test]
    fn interning_is_stable_and_names_round_trip() {
        let a = intern("prof-test-frame-a");
        let b = intern("prof-test-frame-b");
        assert_ne!(a, b);
        assert_eq!(intern("prof-test-frame-a"), a);
        assert_eq!(frame_name(a), "prof-test-frame-a");
        assert_eq!(frame_name(b), "prof-test-frame-b");
    }

    #[test]
    fn frames_are_noops_when_profiling_is_off() {
        // Run in a dedicated thread so a concurrently-running profiler
        // test cannot flip the global flag under us... the refcount is
        // global, so instead assert the off-path contract directly.
        let was_active = profiling_active();
        if !was_active {
            assert!(frame("ignored").is_none());
            assert_eq!(current_depth(), 0);
        }
    }

    #[test]
    fn frame_guards_push_pop_and_survive_panics() {
        // A dedicated thread isolates the TLS slot under test.
        std::thread::spawn(|| {
            enable_stacks();
            {
                let _outer = frame("outer");
                assert_eq!(current_depth(), 1);
                let result = std::panic::catch_unwind(|| {
                    let _inner = frame("inner");
                    assert_eq!(current_depth(), 2);
                    panic!("mid-span");
                });
                assert!(result.is_err());
                // The unwound frame restored the stack.
                assert_eq!(current_depth(), 1);
            }
            assert_eq!(current_depth(), 0);
            disable_stacks();
        })
        .join()
        .unwrap();
    }

    #[test]
    fn deep_nesting_truncates_but_restores() {
        std::thread::spawn(|| {
            enable_stacks();
            {
                let mut guards: Vec<_> = (0..MAX_DEPTH + 4).map(|_| frame("deep")).collect();
                assert_eq!(current_depth(), MAX_DEPTH + 4);
                // Guards nest: drop innermost-first, like unwinding.
                while let Some(guard) = guards.pop() {
                    drop(guard);
                }
            }
            assert_eq!(current_depth(), 0);
            disable_stacks();
        })
        .join()
        .unwrap();
    }

    #[test]
    fn sampler_observes_a_busy_stack() {
        let profiler = Profiler::start(ProfilerConfig { hz: 500, track_allocs: false });
        let worker = std::thread::spawn(|| {
            let _outer = frame("busy-outer");
            let _inner = frame("busy-inner");
            let until = Instant::now() + Duration::from_millis(400);
            let mut spin = 0u64;
            while Instant::now() < until {
                spin = spin.wrapping_add(1);
                std::hint::black_box(spin);
            }
        });
        worker.join().unwrap();
        let profile = profiler.stop();
        assert!(profile.samples_total > 0, "expected samples from a 400ms busy loop at 500Hz");
        assert!(
            profile.stacks.iter().any(|s| s.folded_name() == "busy-outer;busy-inner"),
            "missing folded stack, got: {:?}",
            profile.stacks.iter().map(StackSample::folded_name).collect::<Vec<_>>(),
        );
        // Conservation: the per-stack counts sum to the global total.
        let summed: u64 = profile.stacks.iter().map(|s| s.samples).sum();
        assert_eq!(summed, profile.samples_total);
    }

    #[test]
    fn folded_export_matches_golden() {
        let profile = fixture();
        assert_eq!(profile.to_folded(), "round;demand 8\nround;pricing 4\n");
        assert_eq!(profile.to_folded_alloc(), "round;demand 4096\n");
    }

    #[test]
    fn speedscope_export_matches_golden_bytes() {
        let expected = concat!(
            "{\"$schema\": \"https://www.speedscope.app/file-format-schema.json\", ",
            "\"shared\": {\"frames\": [{\"name\": \"round\"}, {\"name\": \"demand\"}, ",
            "{\"name\": \"pricing\"}]}, \"profiles\": [",
            "{\"type\": \"sampled\", \"name\": \"golden: cpu samples\", \"unit\": \"none\", ",
            "\"startValue\": 0, \"endValue\": 12, \"samples\": [[0, 1], [0, 2]], ",
            "\"weights\": [8, 4]}, ",
            "{\"type\": \"sampled\", \"name\": \"golden: allocated bytes\", \"unit\": \"bytes\", ",
            "\"startValue\": 0, \"endValue\": 4096, \"samples\": [[0, 1]], ",
            "\"weights\": [4096]}], ",
            "\"name\": \"golden\", \"activeProfileIndex\": 0, \"exporter\": \"paydemand\"}\n",
        );
        assert_eq!(fixture().to_speedscope("golden"), expected);
    }

    #[test]
    fn capture_round_trips() {
        let profile = fixture();
        let text = profile.to_capture();
        assert!(text.starts_with(CAPTURE_MAGIC));
        let parsed = Profile::from_capture(&text).unwrap();
        assert_eq!(parsed, profile);
    }

    #[test]
    fn bare_folded_text_parses_with_defaults() {
        let parsed = Profile::from_capture("round;demand 5\nround 2\n").unwrap();
        assert_eq!(parsed.hz, DEFAULT_HZ);
        assert_eq!(parsed.samples_total, 7);
        assert_eq!(parsed.stacks.len(), 2);
    }

    #[test]
    fn malformed_captures_are_rejected_with_line_numbers() {
        assert!(Profile::from_capture("round;demand five").unwrap_err().contains("line 1"));
        assert!(Profile::from_capture("ok 1\nround 1 2").unwrap_err().contains("line 2"));
    }

    #[test]
    fn diff_ranks_the_worst_regression_first() {
        let before = Profile::from_capture("# hz 100\nround;demand 10\nround;pricing 10").unwrap();
        let after = Profile::from_capture("# hz 100\nround;demand 60\nround;pricing 5").unwrap();
        let d = diff(&before, &after);
        assert_eq!(d.entries[0].stack, "round;demand");
        assert!((d.entries[0].delta_seconds - 0.5).abs() < 1e-9);
        assert_eq!(d.entries.last().unwrap().stack, "round;pricing");
        let table = d.render(5);
        assert!(table.contains("round;demand"));
    }

    #[test]
    fn diff_normalises_across_rates() {
        // 50 samples at 50 Hz == 100 samples at 100 Hz == 1 second.
        let before = Profile::from_capture("# hz 50\nwork 50").unwrap();
        let after = Profile::from_capture("# hz 100\nwork 100").unwrap();
        let d = diff(&before, &after);
        assert!((d.entries[0].delta_seconds).abs() < 1e-9);
    }

    #[test]
    fn capture_requests_parse_and_validate() {
        let default = CaptureRequest::parse_query("").unwrap();
        assert_eq!(default, CaptureRequest::default());
        let request = CaptureRequest::parse_query("seconds=2.5&format=speedscope").unwrap();
        assert!((request.seconds - 2.5).abs() < 1e-12);
        assert_eq!(request.format, CaptureFormat::Speedscope);
        assert!(CaptureRequest::parse_query("seconds=31").is_err());
        assert!(CaptureRequest::parse_query("seconds=0").is_err());
        assert!(CaptureRequest::parse_query("seconds=nan").is_err());
        assert!(CaptureRequest::parse_query("format=pprof").is_err());
        assert!(CaptureRequest::parse_query("depth=4").is_err());
    }

    #[test]
    fn report_renders_header_and_stacks() {
        let report = fixture().render_report(5);
        assert!(report.contains("12 samples at 99 Hz"));
        assert!(report.contains("round;demand"));
        let empty = Profile::default().render_report(5);
        assert!(empty.contains("no stacks observed"));
    }
}
