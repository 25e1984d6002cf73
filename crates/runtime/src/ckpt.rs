//! The checkpoint-strategy zoo: competing host-side checkpoint engines
//! raced under the same power-failure model.
//!
//! The assembly runtime in the crate root is *target-side*: the program
//! spends its own (scarce) energy collecting checkpoints. This module is
//! the *EDB-assisted* alternative the paper's hardware makes possible —
//! the debugger snapshots volatile state over its side channel at zero
//! energy cost to the target, and the interesting question becomes
//! *policy*: what to write, and when. Three strategies from the
//! post-paper literature compete behind one trait:
//!
//! * [`FullDump`] — Mementos-style: every trigger writes the complete
//!   volatile context (registers + all of SRAM) to FRAM.
//! * [`Differential`] — DiCA-style: a dirty-word write probe
//!   ([`Memory::set_dirty_tracking`]) records which SRAM words changed
//!   since the last base image; triggers append a cumulative delta
//!   record, rebasing to a fresh full image when the delta log fills.
//! * [`Speculative`] — compiler-directed-speculation-style: triggers
//!   only *stage* a snapshot in host RAM; the staged image is committed
//!   to FRAM when the capacitor sags through the Vcap knee
//!   ([`edb_energy::KneeDetector`]), falling back to an emergency full
//!   dump when the knee arrives with nothing staged.
//!
//! # Atomic commit
//!
//! Every strategy commits through the same double-buffered record
//! machinery: two sequence-numbered header slots, each FNV-64-digested
//! over exactly the bytes a restore of that record would read, and two
//! payload arena halves. A commit is an ordered list of byte writes
//! ([`CommitPlan`]) — payload first, header last — into FRAM the
//! currently-valid record never references. Power can fail after *any
//! prefix* of those bytes and [`CkptEngine::committed_snapshot`] still
//! yields the previous image bit-for-bit (proven exhaustively by the
//! teardown tests, which truncate the write list at every byte offset).
//!
//! # FRAM layout
//!
//! The zoo owns `ZOO_ORG .. ZOO_END` at the top of FRAM, clear of
//! application data (the paper apps' heap ends at `0xD000`) and the
//! target-side runtime (`CHECKPOINT_ORG = 0xD000`), and below the
//! interrupt/reset vectors at `0xFFFC`:
//!
//! ```text
//! ZOO_ORG +0     header slot 0   (32 B)
//!         +32    header slot 1   (32 B)
//!         +64    arena half 0    (2084 B base image + 1024 B delta log)
//!         +3172  arena half 1    (2084 B base image + 1024 B delta log)
//! ```

use edb_device::{Device, Horizon, VCross};
use edb_energy::{KneeDetector, PowerEdge};
use edb_mcu::cpu::Flags;
use edb_mcu::{Cpu, Memory};
use serde::{DeError, Deserialize, Serialize, Value};

/// First byte of the zoo's FRAM region.
pub const ZOO_ORG: u16 = 0xE700;
/// Bytes reserved per header slot (20 used, padded for alignment).
const HDR_BYTES: u16 = 32;
/// Bytes of volatile SRAM in an image (mirrors `edb_mcu::mem`).
const SRAM_BYTES: usize = (edb_mcu::mem::SRAM_END - edb_mcu::mem::SRAM_START) as usize;
const SRAM_START: u16 = edb_mcu::mem::SRAM_START;
/// Architectural context bytes: 16 registers + pc + packed flags word.
const CTX_BYTES: usize = 36;
/// Bytes of a full base image: context followed by the SRAM snapshot.
pub const IMAGE_BYTES: usize = CTX_BYTES + SRAM_BYTES;
/// Bytes of each arena half's delta log.
pub const LOG_BYTES: u16 = 1024;
/// Bytes per arena half: base image + delta log.
const HALF_BYTES: u16 = IMAGE_BYTES as u16 + LOG_BYTES;
const HDR0: u16 = ZOO_ORG;
const HDR1: u16 = ZOO_ORG + HDR_BYTES;
const HALF0: u16 = ZOO_ORG + 2 * HDR_BYTES;
const HALF1: u16 = HALF0 + HALF_BYTES;
/// One past the last byte of the zoo region (must stay below `0xFFFC`,
/// the interrupt vector — checked by test).
pub const ZOO_END: u16 = HALF1 + HALF_BYTES;
/// Header magic ("EDB zoo, issue 9").
const MAGIC: u16 = 0xEDB9;

const KIND_FULL: u8 = 0;
const KIND_DELTA: u8 = 1;

/// FNV-1a over concatenated byte slices, the digest sealing every
/// commit record.
fn fnv64(parts: &[&[u8]]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for part in parts {
        for &b in *part {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn base_addr(half: u8) -> u16 {
    if half == 0 {
        HALF0
    } else {
        HALF1
    }
}

fn log_addr(half: u8) -> u16 {
    base_addr(half) + IMAGE_BYTES as u16
}

// ---------------------------------------------------------------------
// Snapshot: one volatile context
// ---------------------------------------------------------------------

/// A captured volatile context: everything a brown-out erases.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Snapshot {
    /// General-purpose registers.
    pub regs: [u16; 16],
    /// Program counter.
    pub pc: u16,
    /// Packed flags word: `z | n<<1 | c<<2 | v<<3 | ie<<4`.
    pub flags: u16,
    /// The complete SRAM image.
    pub sram: Vec<u8>,
}

impl Snapshot {
    /// Captures the device's current volatile context.
    pub fn capture(dev: &Device) -> Self {
        let cpu = dev.cpu();
        let f = cpu.flags;
        let flags = u16::from(f.z)
            | u16::from(f.n) << 1
            | u16::from(f.c) << 2
            | u16::from(f.v) << 3
            | u16::from(cpu.ie) << 4;
        Snapshot {
            regs: cpu.regs,
            pc: cpu.pc,
            flags,
            sram: dev.mem().sram().to_vec(),
        }
    }

    /// Installs this context onto a freshly power-cycled device. The CPU
    /// must already be running (post-reset); only architectural state
    /// and SRAM are written.
    pub fn install(&self, dev: &mut Device) {
        {
            let cpu: &mut Cpu = dev.cpu_mut();
            cpu.regs = self.regs;
            cpu.pc = self.pc;
            cpu.flags = Flags {
                z: self.flags & 1 != 0,
                n: self.flags & 2 != 0,
                c: self.flags & 4 != 0,
                v: self.flags & 8 != 0,
            };
            cpu.ie = self.flags & 16 != 0;
        }
        let mem = dev.mem_mut();
        for (i, &b) in self.sram.iter().enumerate() {
            mem.write_byte(SRAM_START + i as u16, b);
        }
    }

    /// The image encoding: registers LE, pc, flags word, SRAM bytes.
    fn image_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(IMAGE_BYTES);
        out.extend_from_slice(&self.ctx_bytes());
        out.extend_from_slice(&self.sram);
        out
    }

    /// Decodes an image from `IMAGE_BYTES` of FRAM.
    fn from_image_bytes(bytes: &[u8]) -> Self {
        let mut regs = [0u16; 16];
        for (i, r) in regs.iter_mut().enumerate() {
            *r = u16::from_le_bytes([bytes[2 * i], bytes[2 * i + 1]]);
        }
        Snapshot {
            regs,
            pc: u16::from_le_bytes([bytes[32], bytes[33]]),
            flags: u16::from_le_bytes([bytes[34], bytes[35]]),
            sram: bytes[CTX_BYTES..IMAGE_BYTES].to_vec(),
        }
    }

    /// The 36-byte context prefix of the image (delta records carry it
    /// alone).
    fn ctx_bytes(&self) -> [u8; CTX_BYTES] {
        let mut out = [0u8; CTX_BYTES];
        for (i, r) in self.regs.iter().enumerate() {
            out[2 * i..2 * i + 2].copy_from_slice(&r.to_le_bytes());
        }
        out[32..34].copy_from_slice(&self.pc.to_le_bytes());
        out[34..36].copy_from_slice(&self.flags.to_le_bytes());
        out
    }
}

// ---------------------------------------------------------------------
// Commit records
// ---------------------------------------------------------------------

/// A parsed commit-record header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Header {
    seq: u32,
    kind: u8,
    half: u8,
    delta_off: u16,
    delta_len: u16,
    digest: u64,
}

impl Header {
    /// The 12 digest-covered prefix bytes: magic, seq, kind, half,
    /// delta_off, delta_len.
    fn prefix_bytes(&self) -> [u8; 12] {
        let mut out = [0u8; 12];
        out[0..2].copy_from_slice(&MAGIC.to_le_bytes());
        out[2..6].copy_from_slice(&self.seq.to_le_bytes());
        out[6] = self.kind;
        out[7] = self.half;
        out[8..10].copy_from_slice(&self.delta_off.to_le_bytes());
        out[10..12].copy_from_slice(&self.delta_len.to_le_bytes());
        out
    }

    /// The full 20-byte header encoding (prefix + digest).
    fn bytes(&self) -> [u8; 20] {
        let mut out = [0u8; 20];
        out[0..12].copy_from_slice(&self.prefix_bytes());
        out[12..20].copy_from_slice(&self.digest.to_le_bytes());
        out
    }

    /// Parses a header from a slot; `None` when the magic is absent.
    fn parse(mem: &Memory, slot: u16) -> Option<Header> {
        let read = |off: u16| mem.peek_byte(slot + off);
        if u16::from_le_bytes([read(0), read(1)]) != MAGIC {
            return None;
        }
        Some(Header {
            seq: u32::from_le_bytes([read(2), read(3), read(4), read(5)]),
            kind: read(6),
            half: read(7),
            delta_off: u16::from_le_bytes([read(8), read(9)]),
            delta_len: u16::from_le_bytes([read(10), read(11)]),
            digest: u64::from_le_bytes([
                read(12),
                read(13),
                read(14),
                read(15),
                read(16),
                read(17),
                read(18),
                read(19),
            ]),
        })
    }
}

/// A span of the zoo's FRAM region, read in place (no fault counters).
fn fram_span(mem: &Memory, addr: u16, len: usize) -> &[u8] {
    let at = usize::from(addr - edb_mcu::mem::FRAM_START);
    &mem.fram()[at..at + len]
}

/// Validates the record in `slot` against the payload bytes it
/// references. Returns the header, the reconstructed snapshot, the word
/// addresses its delta covered (empty for full records), and the number
/// of payload bytes a restore reads.
fn validate_slot(mem: &Memory, slot: u16) -> Option<(Header, Snapshot, Vec<u16>, u64)> {
    let hdr = Header::parse(mem, slot)?;
    if hdr.half > 1 || hdr.kind > KIND_DELTA {
        return None;
    }
    let base = fram_span(mem, base_addr(hdr.half), IMAGE_BYTES);
    let (snap, words, read) = match hdr.kind {
        KIND_FULL => {
            if hdr.delta_len != 0 {
                return None;
            }
            if fnv64(&[&hdr.prefix_bytes(), base]) != hdr.digest {
                return None;
            }
            (
                Snapshot::from_image_bytes(base),
                Vec::new(),
                IMAGE_BYTES as u64,
            )
        }
        _ => {
            // Delta: the record must fit the log and parse exactly.
            if u32::from(hdr.delta_off) + u32::from(hdr.delta_len) > u32::from(LOG_BYTES) {
                return None;
            }
            let rec = fram_span(
                mem,
                log_addr(hdr.half) + hdr.delta_off,
                hdr.delta_len as usize,
            );
            if fnv64(&[&hdr.prefix_bytes(), base, rec]) != hdr.digest {
                return None;
            }
            if rec.len() < CTX_BYTES + 2 {
                return None;
            }
            let n = u16::from_le_bytes([rec[CTX_BYTES], rec[CTX_BYTES + 1]]) as usize;
            if rec.len() != CTX_BYTES + 2 + 4 * n {
                return None;
            }
            let mut snap = Snapshot::from_image_bytes(base);
            // Context comes from the delta record, not the base.
            let ctx = Snapshot::from_image_bytes(
                &[&rec[..CTX_BYTES], &vec![0u8; SRAM_BYTES][..]].concat(),
            );
            snap.regs = ctx.regs;
            snap.pc = ctx.pc;
            snap.flags = ctx.flags;
            let mut words = Vec::with_capacity(n);
            for e in 0..n {
                let at = CTX_BYTES + 2 + 4 * e;
                let addr = u16::from_le_bytes([rec[at], rec[at + 1]]);
                if !Memory::is_sram(addr) || !addr.is_multiple_of(2) {
                    return None;
                }
                let idx = (addr - SRAM_START) as usize;
                snap.sram[idx] = rec[at + 2];
                snap.sram[idx + 1] = rec[at + 3];
                words.push(addr);
            }
            (snap, words, (IMAGE_BYTES + rec.len()) as u64)
        }
    };
    Some((hdr, snap, words, read))
}

/// Scans both header slots and returns the valid record with the higher
/// sequence number, if any.
fn read_valid(mem: &Memory) -> Option<(Header, Snapshot, Vec<u16>, u64)> {
    let a = validate_slot(mem, HDR0);
    let b = validate_slot(mem, HDR1);
    match (a, b) {
        (Some(a), Some(b)) => Some(if a.0.seq >= b.0.seq { a } else { b }),
        (Some(a), None) => Some(a),
        (None, Some(b)) => Some(b),
        (None, None) => None,
    }
}

/// An atomic commit, expressed as the exact ordered byte writes it
/// performs: payload first, header slot last. The teardown tests apply
/// arbitrary prefixes of this list to prove power can fail at any byte.
#[derive(Clone, Debug)]
pub struct CommitPlan {
    writes: Vec<(u16, u8)>,
    seq: u32,
    arena: Arena,
    rebased: bool,
    snapshot: Snapshot,
}

impl CommitPlan {
    /// The ordered `(address, byte)` writes of this commit.
    pub fn writes(&self) -> &[(u16, u8)] {
        &self.writes
    }

    /// The sequence number this commit takes.
    pub fn seq(&self) -> u32 {
        self.seq
    }

    /// Whether this commit writes a fresh base image (true for every
    /// full dump, and for a differential rebase).
    pub fn rebased(&self) -> bool {
        self.rebased
    }

    /// The snapshot this commit makes durable.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snapshot
    }
}

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

/// Which zoo member a session runs (the replay tape records this, so
/// reproducers re-run under the same strategy).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StrategyKind {
    /// Full volatile image on every trigger (Mementos-style).
    FullDump,
    /// Dirty-word deltas chained to a base image (DiCA-style).
    Differential,
    /// Defer commit to the Vcap knee (speculative-intermittent-style).
    Speculative,
}

impl StrategyKind {
    /// Every zoo member, in race order.
    pub const ALL: [StrategyKind; 3] = [
        StrategyKind::FullDump,
        StrategyKind::Differential,
        StrategyKind::Speculative,
    ];

    /// Stable lowercase name (CLI flags, bench metric keys).
    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::FullDump => "full_dump",
            StrategyKind::Differential => "differential",
            StrategyKind::Speculative => "speculative",
        }
    }

    /// Parses [`StrategyKind::name`] back.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == s)
    }
}

impl std::fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Engine configuration: strategy plus the instruction-count trigger
/// cadence.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CkptConfig {
    /// Which strategy runs.
    pub strategy: StrategyKind,
    /// Instructions between checkpoint triggers.
    pub interval: u64,
}

impl CkptConfig {
    /// A config with the default trigger cadence (512 instructions —
    /// frequent enough that every power cycle of the WISP energy budget
    /// sees several triggers).
    pub fn new(strategy: StrategyKind) -> Self {
        CkptConfig {
            strategy,
            interval: 512,
        }
    }

    /// Overrides the trigger cadence.
    pub fn interval(mut self, interval: u64) -> Self {
        assert!(interval > 0, "trigger interval must be positive");
        self.interval = interval;
        self
    }
}

/// What the engine should do in response to a policy callback.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Plan {
    /// Nothing this time.
    Skip,
    /// Commit a full volatile image now.
    Full,
    /// Commit a dirty-word delta now (rebases when the log is full).
    Delta,
    /// Capture a snapshot into host RAM without touching FRAM.
    Stage,
    /// Durably commit the staged snapshot (emergency full dump of the
    /// live state when nothing is staged).
    CommitStaged,
}

/// A checkpoint *policy*: decides when the engine commits and in what
/// form. The engine owns all mechanics (capture, atomic commit records,
/// restore); implementations are pure decision logic plus whatever
/// probes they arm on the target's memory.
pub trait CheckpointStrategy: Send + Sync {
    /// Which zoo member this is.
    fn kind(&self) -> StrategyKind;

    /// Called when the engine attaches to (or restores) a device, to arm
    /// memory probes.
    fn attach(&mut self, mem: &mut Memory) {
        let _ = mem;
    }

    /// Policy decision at an interval trigger (the device is powered and
    /// running).
    fn on_trigger(&mut self) -> Plan;

    /// Policy decision on each capacitor-voltage sample.
    fn on_sample(&mut self, v_cap: f64) -> Plan {
        let _ = v_cap;
        Plan::Skip
    }

    /// The voltage threshold whose crossing would make
    /// [`CheckpointStrategy::on_sample`] do anything; `None` when every
    /// sample is a no-op. Batched spans stop on that crossing.
    fn v_cross(&self) -> Option<VCross> {
        None
    }

    /// Called after the engine applies a commit; `rebased` reports
    /// whether a fresh base image was written.
    fn after_commit(&mut self, mem: &mut Memory, rebased: bool) {
        let _ = (mem, rebased);
    }

    /// Called after the engine restores a committed record;
    /// `delta_words` are the SRAM word addresses the record's delta
    /// covered (empty for full records).
    fn after_restore(&mut self, mem: &mut Memory, delta_words: &[u16]) {
        let _ = (mem, delta_words);
    }

    /// Serializes policy-internal state for snapshots.
    fn save(&self) -> Value {
        Value::Null
    }

    /// Restores policy-internal state from [`CheckpointStrategy::save`].
    fn load(&mut self, v: &Value) -> Result<(), DeError> {
        let _ = v;
        Ok(())
    }

    /// Clones the strategy behind the object.
    fn boxed_clone(&self) -> Box<dyn CheckpointStrategy>;
}

/// Builds the strategy a [`StrategyKind`] names.
pub fn build_strategy(kind: StrategyKind) -> Box<dyn CheckpointStrategy> {
    match kind {
        StrategyKind::FullDump => Box::new(FullDump),
        StrategyKind::Differential => Box::new(Differential),
        StrategyKind::Speculative => Box::new(Speculative::default()),
    }
}

/// Mementos-style: every trigger commits the complete volatile image.
#[derive(Clone, Copy, Debug, Default)]
pub struct FullDump;

impl CheckpointStrategy for FullDump {
    fn kind(&self) -> StrategyKind {
        StrategyKind::FullDump
    }

    fn on_trigger(&mut self) -> Plan {
        Plan::Full
    }

    fn boxed_clone(&self) -> Box<dyn CheckpointStrategy> {
        Box::new(*self)
    }
}

/// DiCA-style: arm the dirty-word probe; every trigger commits a
/// cumulative delta against the base image.
#[derive(Clone, Copy, Debug, Default)]
pub struct Differential;

impl CheckpointStrategy for Differential {
    fn kind(&self) -> StrategyKind {
        StrategyKind::Differential
    }

    fn attach(&mut self, mem: &mut Memory) {
        if !mem.dirty_tracking() {
            mem.set_dirty_tracking(true);
        }
    }

    fn on_trigger(&mut self) -> Plan {
        Plan::Delta
    }

    fn after_commit(&mut self, mem: &mut Memory, rebased: bool) {
        if rebased {
            // The new base *is* the current state: everything clean.
            mem.seed_dirty_words(&[]);
        }
        // Non-rebase deltas keep accumulating against the same base.
    }

    fn after_restore(&mut self, mem: &mut Memory, delta_words: &[u16]) {
        // Post-restore SRAM equals base + delta, so exactly the delta's
        // words may differ from the base image.
        if !mem.dirty_tracking() {
            mem.set_dirty_tracking(true);
        }
        mem.seed_dirty_words(delta_words);
    }

    fn boxed_clone(&self) -> Box<dyn CheckpointStrategy> {
        Box::new(*self)
    }
}

/// Speculative commit-on-knee: triggers stage in host RAM; the staged
/// image is committed when the capacitor sags through the knee, with an
/// emergency full dump when the knee arrives unstaged.
#[derive(Clone, Copy, Debug)]
pub struct Speculative {
    knee: KneeDetector,
}

impl Default for Speculative {
    fn default() -> Self {
        Speculative {
            knee: KneeDetector::wisp5(),
        }
    }
}

impl CheckpointStrategy for Speculative {
    fn kind(&self) -> StrategyKind {
        StrategyKind::Speculative
    }

    fn on_trigger(&mut self) -> Plan {
        Plan::Stage
    }

    fn on_sample(&mut self, v_cap: f64) -> Plan {
        if self.knee.update(v_cap) {
            Plan::CommitStaged
        } else {
            Plan::Skip
        }
    }

    fn v_cross(&self) -> Option<VCross> {
        Some(VCross {
            v: self.knee.v_knee(),
            above: self.knee.armed(),
        })
    }

    fn save(&self) -> Value {
        self.knee.to_value()
    }

    fn load(&mut self, v: &Value) -> Result<(), DeError> {
        self.knee = KneeDetector::from_value(v)?;
        Ok(())
    }

    fn boxed_clone(&self) -> Box<dyn CheckpointStrategy> {
        Box::new(*self)
    }
}

// ---------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------

/// Which arena half holds the current base image and how much of its
/// delta log is consumed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
struct Arena {
    half: u8,
    log_used: u16,
}

/// Checkpoint cost and activity counters, reported by the bench sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CkptStats {
    /// Commits applied (full + delta + emergency).
    pub commits: u64,
    /// Commits that wrote a fresh base image.
    pub full_dumps: u64,
    /// Delta-record commits.
    pub delta_commits: u64,
    /// Emergency full dumps (knee with nothing staged).
    pub emergency_dumps: u64,
    /// Snapshots staged in host RAM (speculative only).
    pub staged: u64,
    /// Total FRAM bytes written by commits.
    pub bytes_written: u64,
    /// Successful restores after turn-on.
    pub restores: u64,
    /// Total FRAM bytes read by restores.
    pub restore_bytes: u64,
    /// Turn-ons with no committed record (cold boots).
    pub cold_boots: u64,
}

/// The host-side checkpoint engine: one strategy, the atomic commit
/// machinery, and restore-on-turn-on.
///
/// Drive it by calling [`CkptEngine::observe`] after every device step,
/// or after every span bounded by [`CkptEngine::bound`] (the core
/// `System` does this when built `with_checkpoint_strategy`). All FRAM
/// traffic happens between target instructions through the debugger's
/// side channel, so the engine is energy-interference-free by
/// construction: the target's power trajectory is bit-identical with
/// and without it *until the first restore changes execution*.
pub struct CkptEngine {
    config: CkptConfig,
    strategy: Box<dyn CheckpointStrategy>,
    next_trigger: u64,
    seq: u32,
    arena: Option<Arena>,
    staged: Option<Snapshot>,
    stats: CkptStats,
}

impl std::fmt::Debug for CkptEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CkptEngine")
            .field("strategy", &self.config.strategy.name())
            .field("interval", &self.config.interval)
            .field("seq", &self.seq)
            .field("stats", &self.stats)
            .finish()
    }
}

impl Clone for CkptEngine {
    fn clone(&self) -> Self {
        CkptEngine {
            config: self.config,
            strategy: self.strategy.boxed_clone(),
            next_trigger: self.next_trigger,
            seq: self.seq,
            arena: self.arena,
            staged: self.staged.clone(),
            stats: self.stats,
        }
    }
}

impl CkptEngine {
    /// Creates an engine for `config`. Call [`CkptEngine::attach`]
    /// before stepping so the strategy can arm its probes.
    pub fn new(config: CkptConfig) -> Self {
        CkptEngine {
            config,
            strategy: build_strategy(config.strategy),
            next_trigger: config.interval,
            seq: 0,
            arena: None,
            staged: None,
            stats: CkptStats::default(),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> CkptConfig {
        self.config
    }

    /// Activity counters so far.
    pub fn stats(&self) -> CkptStats {
        self.stats
    }

    /// Sequence number of the most recent commit (0 before any).
    pub fn seq(&self) -> u32 {
        self.seq
    }

    /// Arms the strategy's probes on the target memory.
    pub fn attach(&mut self, mem: &mut Memory) {
        self.strategy.attach(mem);
    }

    /// Narrows a batched span's `horizon` so it ends on the quantum
    /// after which [`CkptEngine::observe`] would act: the next
    /// instruction trigger and the strategy's voltage threshold. Power
    /// edges end every span anyway, and on every other quantum `observe`
    /// is a no-op, so it need only run at span ends.
    pub fn bound(&self, horizon: &mut Horizon) {
        horizon.instructions = Some(self.next_trigger);
        horizon.v_cross = self.strategy.v_cross();
    }

    /// The per-step hook: feed the power edge (if any) the step
    /// produced. Brown-outs void staged state, turn-ons restore the
    /// committed record, and quiet powered steps run the strategy's
    /// trigger/sample policy.
    pub fn observe(&mut self, dev: &mut Device, edge: Option<PowerEdge>) {
        match edge {
            Some(PowerEdge::BrownOut) => {
                // Anything staged in host RAM describes a future the
                // target just lost; committing it now would checkpoint
                // state the restored execution never reached.
                self.staged = None;
            }
            Some(PowerEdge::TurnOn) => {
                self.restore(dev);
            }
            None => {
                if !dev.powered() || !dev.cpu().is_running() {
                    return;
                }
                let total = dev.total_instructions();
                if total >= self.next_trigger {
                    self.next_trigger = total + self.config.interval;
                    match self.strategy.on_trigger() {
                        Plan::Full => {
                            let plan = self.plan_full(Snapshot::capture(dev));
                            self.apply_plan(dev.mem_mut(), &plan);
                        }
                        Plan::Delta => {
                            let plan = self.plan_delta(dev);
                            self.apply_plan(dev.mem_mut(), &plan);
                        }
                        Plan::Stage => {
                            self.staged = Some(Snapshot::capture(dev));
                            self.stats.staged += 1;
                        }
                        Plan::Skip | Plan::CommitStaged => {}
                    }
                }
                if self.strategy.on_sample(dev.v_cap()) == Plan::CommitStaged {
                    let plan = match self.staged.take() {
                        Some(snap) => self.plan_full(snap),
                        None => {
                            self.stats.emergency_dumps += 1;
                            self.plan_full(Snapshot::capture(dev))
                        }
                    };
                    self.apply_plan(dev.mem_mut(), &plan);
                }
            }
        }
    }

    /// Plans the next commit exactly as [`CkptEngine::observe`] would
    /// issue it at a trigger right now (teardown tests truncate the
    /// result at every byte offset).
    pub fn plan_next(&self, dev: &Device) -> CommitPlan {
        match self.config.strategy {
            StrategyKind::Differential => self.plan_delta(dev),
            _ => self.plan_full(Snapshot::capture(dev)),
        }
    }

    /// Plans a full-image commit of `snap` into the inactive arena half.
    fn plan_full(&self, snap: Snapshot) -> CommitPlan {
        let half = match self.arena {
            Some(a) => 1 - a.half,
            None => 0,
        };
        let seq = self.seq + 1;
        let image = snap.image_bytes();
        let hdr = {
            let mut h = Header {
                seq,
                kind: KIND_FULL,
                half,
                delta_off: 0,
                delta_len: 0,
                digest: 0,
            };
            h.digest = fnv64(&[&h.prefix_bytes(), &image]);
            h
        };
        let mut writes = Vec::with_capacity(image.len() + 20);
        let base = base_addr(half);
        for (i, &b) in image.iter().enumerate() {
            writes.push((base + i as u16, b));
        }
        let slot = if seq.is_multiple_of(2) { HDR0 } else { HDR1 };
        for (i, &b) in hdr.bytes().iter().enumerate() {
            writes.push((slot + i as u16, b));
        }
        CommitPlan {
            writes,
            seq,
            arena: Arena { half, log_used: 0 },
            rebased: true,
            snapshot: snap,
        }
    }

    /// Plans a delta commit: the cumulative dirty-word set against the
    /// current base, falling back to a rebase (full image into the other
    /// half) when there is no base yet or the record would overflow the
    /// log.
    fn plan_delta(&self, dev: &Device) -> CommitPlan {
        let snap = Snapshot::capture(dev);
        let Some(arena) = self.arena else {
            return self.plan_full(snap);
        };
        let dirty = dev.mem().dirty_word_addrs();
        let rec_len = CTX_BYTES + 2 + 4 * dirty.len();
        if arena.log_used as usize + rec_len > LOG_BYTES as usize {
            return self.plan_full(snap);
        }
        let mut rec = Vec::with_capacity(rec_len);
        rec.extend_from_slice(&snap.ctx_bytes());
        rec.extend_from_slice(&(dirty.len() as u16).to_le_bytes());
        for &addr in &dirty {
            let idx = (addr - SRAM_START) as usize;
            rec.extend_from_slice(&addr.to_le_bytes());
            rec.push(snap.sram[idx]);
            rec.push(snap.sram[idx + 1]);
        }
        let seq = self.seq + 1;
        let base = fram_span(dev.mem(), base_addr(arena.half), IMAGE_BYTES);
        let hdr = {
            let mut h = Header {
                seq,
                kind: KIND_DELTA,
                half: arena.half,
                delta_off: arena.log_used,
                delta_len: rec_len as u16,
                digest: 0,
            };
            h.digest = fnv64(&[&h.prefix_bytes(), base, &rec]);
            h
        };
        let mut writes = Vec::with_capacity(rec_len + 20);
        let at = log_addr(arena.half) + arena.log_used;
        for (i, &b) in rec.iter().enumerate() {
            writes.push((at + i as u16, b));
        }
        let slot = if seq.is_multiple_of(2) { HDR0 } else { HDR1 };
        for (i, &b) in hdr.bytes().iter().enumerate() {
            writes.push((slot + i as u16, b));
        }
        CommitPlan {
            writes,
            seq,
            arena: Arena {
                half: arena.half,
                log_used: arena.log_used + rec_len as u16,
            },
            rebased: false,
            snapshot: snap,
        }
    }

    /// Applies a planned commit: writes every byte in order, then
    /// advances the engine's record state and notifies the strategy.
    pub fn apply_plan(&mut self, mem: &mut Memory, plan: &CommitPlan) {
        for &(addr, b) in &plan.writes {
            mem.write_byte(addr, b);
        }
        self.seq = plan.seq;
        self.arena = Some(plan.arena);
        self.stats.commits += 1;
        self.stats.bytes_written += plan.writes.len() as u64;
        if plan.rebased {
            self.stats.full_dumps += 1;
        } else {
            self.stats.delta_commits += 1;
        }
        self.strategy.after_commit(mem, plan.rebased);
    }

    /// Restores the committed record onto a freshly turned-on device.
    /// Returns whether a record was found (otherwise the boot proceeds
    /// cold from the reset vector).
    pub fn restore(&mut self, dev: &mut Device) -> bool {
        let Some((hdr, snap, delta_words, read)) = read_valid(dev.mem()) else {
            self.stats.cold_boots += 1;
            self.seq = 0;
            self.arena = None;
            self.strategy.attach(dev.mem_mut());
            return false;
        };
        snap.install(dev);
        self.seq = hdr.seq;
        self.arena = Some(Arena {
            half: hdr.half,
            log_used: hdr.delta_off + hdr.delta_len,
        });
        self.staged = None;
        self.next_trigger = dev.total_instructions() + self.config.interval;
        self.stats.restores += 1;
        self.stats.restore_bytes += read + 2 * 20;
        self.strategy.after_restore(dev.mem_mut(), &delta_words);
        true
    }

    /// The snapshot the committed record in `mem` would restore, with
    /// its sequence number — the oracle the teardown tests compare
    /// against. Pure: reads FRAM only.
    pub fn committed_snapshot(mem: &Memory) -> Option<(u32, Snapshot)> {
        read_valid(mem).map(|(hdr, snap, _, _)| (hdr.seq, snap))
    }
}

// The engine serializes for System snapshots (time travel across a
// bench that runs the zoo). Strategy internals ride along via the
// trait's save/load hooks.
impl Serialize for CkptEngine {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            (Value::Str("config".into()), self.config.to_value()),
            (
                Value::Str("next_trigger".into()),
                self.next_trigger.to_value(),
            ),
            (Value::Str("seq".into()), self.seq.to_value()),
            (Value::Str("arena".into()), self.arena.to_value()),
            (Value::Str("staged".into()), self.staged.to_value()),
            (Value::Str("stats".into()), self.stats.to_value()),
            (Value::Str("strategy".into()), self.strategy.save()),
        ])
    }

    fn serialize(&self, sink: &mut dyn serde::Sink) {
        sink.map(7);
        sink.str("config");
        self.config.serialize(sink);
        sink.str("next_trigger");
        self.next_trigger.serialize(sink);
        sink.str("seq");
        self.seq.serialize(sink);
        sink.str("arena");
        self.arena.serialize(sink);
        sink.str("staged");
        self.staged.serialize(sink);
        sink.str("stats");
        self.stats.serialize(sink);
        sink.str("strategy");
        self.strategy.save().serialize(sink);
    }
}

impl Deserialize for CkptEngine {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let field = |name: &str| {
            v.get_field(name)
                .ok_or_else(|| DeError::new(format!("CkptEngine state missing `{name}`")))
        };
        let config = CkptConfig::from_value(field("config")?)?;
        let mut engine = CkptEngine::new(config);
        engine.next_trigger = u64::from_value(field("next_trigger")?)?;
        engine.seq = u32::from_value(field("seq")?)?;
        engine.arena = <Option<Arena>>::from_value(field("arena")?)?;
        engine.staged = <Option<Snapshot>>::from_value(field("staged")?)?;
        engine.stats = CkptStats::from_value(field("stats")?)?;
        engine.strategy.load(field("strategy")?)?;
        Ok(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edb_device::DeviceConfig;

    #[test]
    fn zoo_region_fits_top_of_fram() {
        const { assert!(ZOO_ORG >= 0xD400, "clear of the target-side runtime") };
        assert!(
            u32::from(ZOO_END) <= u32::from(edb_mcu::mem::IRQ_VECTOR),
            "zoo end {ZOO_END:#06x} must stay below the vectors"
        );
        assert_eq!(IMAGE_BYTES, 36 + 2048);
    }

    fn test_device() -> Device {
        let mut dev = Device::new(DeviceConfig::wisp5());
        // A program image is irrelevant for plan/restore mechanics; give
        // the reset vector something mapped.
        dev.mem_mut().poke_word(edb_mcu::mem::RESET_VECTOR, 0x4400);
        dev
    }

    fn scribble(dev: &mut Device, salt: u16) {
        let cpu = dev.cpu_mut();
        for (i, r) in cpu.regs.iter_mut().enumerate() {
            *r = salt.wrapping_mul(31).wrapping_add(i as u16);
        }
        cpu.pc = 0x4400 + salt;
        let mem = dev.mem_mut();
        for i in 0..64u16 {
            mem.poke_word(SRAM_START + 2 * i, salt.wrapping_add(i));
        }
    }

    #[test]
    fn full_commit_and_restore_round_trip() {
        let mut dev = test_device();
        let mut engine = CkptEngine::new(CkptConfig::new(StrategyKind::FullDump));
        engine.attach(dev.mem_mut());
        scribble(&mut dev, 7);
        let expect = Snapshot::capture(&dev);
        let plan = engine.plan_next(&dev);
        engine.apply_plan(dev.mem_mut(), &plan);
        dev.mem_mut().power_cycle();
        let (seq, got) = CkptEngine::committed_snapshot(dev.mem()).expect("committed");
        assert_eq!(seq, 1);
        assert_eq!(got, expect);
        assert!(engine.restore(&mut dev));
        assert_eq!(Snapshot::capture(&dev).sram, expect.sram);
        assert_eq!(dev.cpu().pc, expect.pc);
        assert_eq!(dev.cpu().regs, expect.regs);
    }

    #[test]
    fn differential_deltas_chain_to_the_base() {
        let mut dev = test_device();
        let mut engine = CkptEngine::new(CkptConfig::new(StrategyKind::Differential));
        engine.attach(dev.mem_mut());
        assert!(dev.mem().dirty_tracking(), "probe armed");
        scribble(&mut dev, 1);
        // First commit: no base yet -> rebase (full image).
        let plan = engine.plan_next(&dev);
        assert!(plan.rebased());
        engine.apply_plan(dev.mem_mut(), &plan);
        assert!(
            dev.mem().dirty_word_addrs().is_empty(),
            "rebase reseeds the probe"
        );
        // Touch three words; the next commit is a small delta.
        dev.mem_mut().poke_word(SRAM_START + 10, 0xAAAA);
        dev.mem_mut().poke_word(SRAM_START + 20, 0xBBBB);
        dev.cpu_mut().regs[3] = 0x1234;
        let expect = Snapshot::capture(&dev);
        let plan = engine.plan_next(&dev);
        assert!(!plan.rebased());
        assert!(
            plan.writes().len() < 100,
            "delta much smaller than the {IMAGE_BYTES}-byte image: {}",
            plan.writes().len()
        );
        engine.apply_plan(dev.mem_mut(), &plan);
        let (seq, got) = CkptEngine::committed_snapshot(dev.mem()).expect("committed");
        assert_eq!(seq, 2);
        assert_eq!(got, expect, "base + delta reconstructs the full state");
    }

    #[test]
    fn delta_log_overflow_rebases_into_the_other_half() {
        let mut dev = test_device();
        let mut engine = CkptEngine::new(CkptConfig::new(StrategyKind::Differential));
        engine.attach(dev.mem_mut());
        scribble(&mut dev, 1);
        let mut rebases = 0;
        let mut last = Snapshot::capture(&dev);
        for round in 0..64u16 {
            // Dirty a sliding window of words so deltas accumulate.
            for k in 0..24u16 {
                dev.mem_mut()
                    .poke_word(SRAM_START + 2 * ((round * 7 + k) % 512), round ^ k);
            }
            last = Snapshot::capture(&dev);
            let plan = engine.plan_next(&dev);
            if plan.rebased() {
                rebases += 1;
            }
            engine.apply_plan(dev.mem_mut(), &plan);
            let (_, got) = CkptEngine::committed_snapshot(dev.mem()).expect("committed");
            assert_eq!(got, last, "round {round}");
        }
        assert!(rebases >= 2, "log must have filled at least twice");
        // Restore still lands on the latest state.
        dev.mem_mut().power_cycle();
        assert!(engine.restore(&mut dev));
        assert_eq!(Snapshot::capture(&dev), last);
    }

    #[test]
    fn engine_state_round_trips_through_serde() {
        let mut dev = test_device();
        let mut engine = CkptEngine::new(CkptConfig::new(StrategyKind::Speculative));
        engine.attach(dev.mem_mut());
        scribble(&mut dev, 9);
        engine.staged = Some(Snapshot::capture(&dev));
        let plan = engine.plan_next(&dev);
        engine.apply_plan(dev.mem_mut(), &plan);
        let v = engine.to_value();
        let back = CkptEngine::from_value(&v).expect("round-trips");
        assert_eq!(back.seq(), engine.seq());
        assert_eq!(back.stats(), engine.stats());
        assert_eq!(back.staged, engine.staged);
        assert_eq!(back.arena, engine.arena);
        assert_eq!(back.config(), engine.config());
    }

    #[test]
    fn strategy_kind_names_round_trip() {
        for kind in StrategyKind::ALL {
            assert_eq!(StrategyKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(StrategyKind::parse("nope"), None);
    }
}
