//! The MSP430FR-style memory map: volatile SRAM + non-volatile FRAM.
//!
//! The volatile/non-volatile split is the load-bearing piece of the whole
//! reproduction: on a brown-out, [`Memory::power_cycle`] erases SRAM and
//! keeps FRAM, which is exactly the state discontinuity that causes
//! intermittence bugs.
//!
//! Bus semantics mirror a small MCU: reads from unmapped space return
//! `0xFFFF` (floating bus with pull-ups), writes to unmapped space are
//! dropped, and both increment a sticky fault counter that the debugger
//! can inspect. The wild-pointer write of the paper's Figure 6, aimed near
//! address zero after a `NULL` dereference chain, reads `0xFFFF` from
//! unmapped memory and then writes through it — landing on the reset
//! vector at the top of FRAM and bricking the device until reflash,
//! exactly the observed symptom ("the only way to recover is to re-flash
//! the device").

use crate::isa::Instr;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// First byte of volatile SRAM (inclusive).
pub const SRAM_START: u16 = 0x1C00;
/// One past the last byte of SRAM.
pub const SRAM_END: u16 = 0x2400;
/// First byte of non-volatile FRAM (inclusive).
pub const FRAM_START: u16 = 0x4400;
/// The last byte of FRAM is `0xFFFF`; [`FRAM_END`] is the exclusive bound
/// as a `u32` because it does not fit in `u16`.
pub const FRAM_END: u32 = 0x1_0000;
/// Address of the reset vector word (in FRAM, hence persistent — and
/// corruptible).
pub const RESET_VECTOR: u16 = 0xFFFE;
/// Address of the external-interrupt vector word.
pub const IRQ_VECTOR: u16 = 0xFFFC;

const SRAM_SIZE: usize = (SRAM_END - SRAM_START) as usize;
const FRAM_SIZE: usize = (FRAM_END - FRAM_START as u32) as usize;

/// Bytes per page of a parked FRAM image (see [`Memory::park`]).
pub const FRAM_PAGE: usize = 1024;

/// SRAM word count (dirty tracking is word-granular, like DiCA's
/// write-probe hardware).
const SRAM_WORDS: usize = SRAM_SIZE / 2;
/// `u64` limbs in the dirty-word bitset.
const DIRTY_LIMBS: usize = SRAM_WORDS / 64;

/// The longest instruction encoding is two 16-bit words, so a cached
/// decode at address `pc` depends on the bytes `pc ..= pc + 3` only.
const MAX_INSTR_BYTES: u16 = 4;

/// Number of direct-mapped decode-cache slots (16 KiB of 16-byte
/// slots — small enough to live in L1, to clone warm, and to flush in
/// full on a power cycle; hot loops on this class of MCU are far
/// smaller).
const DECODE_SLOTS: usize = 1024;

/// Sentinel tag for an empty slot. `0xFFFF` can never tag a real entry
/// (its second byte would sit at address `0x0000`, which is unmapped,
/// and entries are only created when the whole first word is mapped) —
/// but a fetch *can* ask for `pc == 0xFFFF` after a computed jump, so
/// the lookup must reject the sentinel explicitly or an empty slot
/// reads as a phantom `Nop` hit there (found by `edb-fuzz`).
const DECODE_EMPTY: u16 = 0xFFFF;

/// One direct-mapped cache slot: the code address it caches (`tag`), the
/// decoded instruction, its size in words, and its cycle cost (also
/// predecoded, so a hit skips the `Instr::cycles` table too). Padded to
/// a 16-byte stride so indexing is a shift and no slot straddles a
/// host cache line.
#[derive(Clone, Copy)]
#[repr(align(16))]
struct DecodeSlot {
    tag: u16,
    size: u8,
    cycles: u8,
    instr: Instr,
}

const EMPTY_SLOT: DecodeSlot = DecodeSlot {
    tag: DECODE_EMPTY,
    size: 1,
    cycles: 1,
    instr: Instr::Nop,
};

/// A predecoded-instruction cache: a small direct-mapped table of
/// decoded [`Instr`]s keyed by code address (index `(pc >> 1) mod N`,
/// full-address tag).
///
/// The cache is *pure acceleration* — it never changes what a fetch
/// returns or which bus faults it counts:
///
/// * an entry is created only when both bytes of the instruction's first
///   word are mapped, so fetches that would count bus faults (unmapped or
///   straddling addresses) always take the uncached path and fault
///   exactly as before;
/// * any write landing in `pc ..= pc + 3` of a cached entry invalidates
///   it (self-modifying FRAM code, checkpoint restores into executable
///   SRAM);
/// * a power cycle invalidates every entry that read SRAM bytes.
///
/// Clones carry the warm table (16 KiB memcpy — snapshot/replay analyses
/// clone devices constantly, and the entries stay valid because the
/// memory bytes they decode are cloned with them).
#[derive(Clone)]
struct DecodeCache {
    // A fixed-size array stored inline (not a `Vec` or `Box`): the masked
    // index is statically in range, so the hit path compiles without a
    // bounds check or a pointer chase.
    slots: [DecodeSlot; DECODE_SLOTS],
    enabled: bool,
    hits: u64,
    misses: u64,
}

impl Default for DecodeCache {
    fn default() -> Self {
        DecodeCache {
            slots: [EMPTY_SLOT; DECODE_SLOTS],
            enabled: true,
            hits: 0,
            misses: 0,
        }
    }
}

impl DecodeCache {
    #[inline]
    fn index(addr: u16) -> usize {
        ((addr >> 1) as usize) & (DECODE_SLOTS - 1)
    }
}

// The cache is derived state, so snapshots carry no entries: it
// serializes as `null` and deserializes cold.
impl Serialize for DecodeCache {
    fn serialize(&self, sink: &mut dyn serde::Sink) {
        sink.null();
    }
}

impl Deserialize for DecodeCache {
    fn from_value(_: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(DecodeCache::default())
    }
}

/// The FRAM image of a parked memory (see [`Memory::park`]) in
/// [`FRAM_PAGE`]-byte pages; empty in memory that runs. It never
/// crosses a sink under its own key (the image serializes as `fram`),
/// so it deserializes empty: decoded memory is flat.
#[derive(Clone, Default)]
struct FramPages(Vec<Arc<[u8]>>);

impl Deserialize for FramPages {
    fn from_value(_: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(FramPages::default())
    }
}

/// The target's memory: SRAM that dies with power and FRAM that survives.
///
/// # Example
///
/// ```
/// use edb_mcu::Memory;
/// let mut mem = Memory::new();
/// mem.write_word(0x1C00, 0x1234);   // SRAM
/// mem.write_word(0x4400, 0x5678);   // FRAM
/// mem.power_cycle();
/// assert_eq!(mem.read_word(0x1C00), 0);       // volatile: gone
/// assert_eq!(mem.read_word(0x4400), 0x5678);  // non-volatile: kept
/// ```
#[derive(Clone, Deserialize)]
pub struct Memory {
    sram: Vec<u8>,
    fram: Vec<u8>,
    bus_faults: u64,
    last_fault_addr: Option<u16>,
    decode_cache: DecodeCache,
    // Dirty-word bitset over SRAM, `Some` only while a differential
    // checkpoint strategy has tracking armed. `None` costs one branch on
    // the store path and keeps snapshot bytes identical to builds that
    // predate the field (the serializer below omits the key, and a
    // missing key deserializes as `None`).
    dirty_sram: Option<Vec<u64>>,
    // A parked memory's FRAM image, with `fram` empty. No access path
    // reads it: only the serializer and `unpark` do.
    fram_pages: FramPages,
}

// Hand-written so the `dirty_sram` key is absent (not `null`) when
// tracking is off: recordings and state digests taken without a
// differential strategy must stay byte-identical to the derived layout
// this replaces. Field order matches the struct declaration.
impl Serialize for Memory {
    // The memory images cross the sink as byte arrays.
    fn serialize(&self, sink: &mut dyn serde::Sink) {
        sink.map(5 + usize::from(self.dirty_sram.is_some()));
        sink.str("sram");
        sink.bytes(&self.sram);
        sink.str("fram");
        if self.is_parked() {
            sink.seq(self.fram_len());
            for page in &self.fram_pages.0 {
                sink.byte_items(page);
            }
        } else {
            sink.bytes(&self.fram);
        }
        sink.str("bus_faults");
        self.bus_faults.serialize(sink);
        sink.str("last_fault_addr");
        self.last_fault_addr.serialize(sink);
        sink.str("decode_cache");
        self.decode_cache.serialize(sink);
        if let Some(dirty) = &self.dirty_sram {
            sink.str("dirty_sram");
            dirty.serialize(sink);
        }
    }
}

impl std::fmt::Debug for Memory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Memory")
            .field("sram_bytes", &self.sram.len())
            .field("fram_bytes", &self.fram_len())
            .field("bus_faults", &self.bus_faults)
            .field("last_fault_addr", &self.last_fault_addr)
            .finish()
    }
}

impl Memory {
    /// Creates zeroed memory.
    pub fn new() -> Self {
        Memory {
            sram: vec![0; SRAM_SIZE],
            fram: vec![0; FRAM_SIZE],
            bus_faults: 0,
            last_fault_addr: None,
            decode_cache: DecodeCache::default(),
            dirty_sram: None,
            fram_pages: FramPages::default(),
        }
    }

    /// Whether `addr` lies in volatile SRAM.
    pub fn is_sram(addr: u16) -> bool {
        (SRAM_START..SRAM_END).contains(&addr)
    }

    /// Whether `addr` lies in non-volatile FRAM.
    pub fn is_fram(addr: u16) -> bool {
        addr >= FRAM_START
    }

    /// Whether `addr` maps to real storage at all.
    pub fn is_mapped(addr: u16) -> bool {
        Self::is_sram(addr) || Self::is_fram(addr)
    }

    /// Fetches and decodes the instruction at `pc` through the predecode
    /// cache.
    ///
    /// A hit returns the cached `(instr, size_in_words, cycles)` with no
    /// memory traffic; by construction a hit can only exist where the
    /// uncached fetch would not have faulted, so fault accounting is
    /// unchanged. A miss performs exactly the uncached sequence — a
    /// faulting word read at `pc`, a non-faulting peek at `pc + 2` — and
    /// caches the decoded result when the first word's bytes are both
    /// mapped.
    ///
    /// # Errors
    ///
    /// `Err(word0)` when the fetched word does not decode (the caller
    /// raises the illegal-instruction fault with it). Decode failures are
    /// never cached.
    #[inline]
    pub fn fetch_decoded(&mut self, pc: u16) -> Result<(Instr, u8, u8), u16> {
        let slot = self.decode_cache.slots[DecodeCache::index(pc)];
        if slot.tag == pc && pc != DECODE_EMPTY {
            self.decode_cache.hits += 1;
            return Ok((slot.instr, slot.size, slot.cycles));
        }
        self.decode_cache.misses += 1;
        let w0 = self.read_word(pc);
        let w1 = self.peek_word(pc.wrapping_add(2));
        match Instr::decode(w0, Some(w1)) {
            Ok((instr, size)) => {
                let cycles = instr.cycles() as u8;
                if self.decode_cache.enabled
                    && Self::is_mapped(pc)
                    && Self::is_mapped(pc.wrapping_add(1))
                {
                    self.decode_cache.slots[DecodeCache::index(pc)] = DecodeSlot {
                        tag: pc,
                        size,
                        cycles,
                        instr,
                    };
                }
                Ok((instr, size, cycles))
            }
            Err(_) => Err(w0),
        }
    }

    /// Cumulative predecode-cache `(hits, misses)` over the memory's
    /// lifetime. A miss is any fetch not served from the cache, including
    /// fetches made while the cache is disabled.
    pub fn decode_cache_stats(&self) -> (u64, u64) {
        (self.decode_cache.hits, self.decode_cache.misses)
    }

    /// Enables or disables the predecode cache (disabling also drops all
    /// entries). The cache is on by default; turning it off exists for
    /// benchmarking the cold-decode path.
    pub fn set_decode_cache_enabled(&mut self, enabled: bool) {
        self.decode_cache.enabled = enabled;
        self.decode_cache.slots.fill(EMPTY_SLOT);
    }

    /// Drops decode-cache entries that may have fetched the byte at
    /// `addr` (an entry at `pc` depends on `pc ..= pc + 3`).
    #[inline]
    fn invalidate_decode(&mut self, addr: u16) {
        for back in 0..MAX_INSTR_BYTES {
            let a = addr.wrapping_sub(back);
            let slot = &mut self.decode_cache.slots[DecodeCache::index(a)];
            if slot.tag == a {
                slot.tag = DECODE_EMPTY;
            }
        }
    }

    /// Reads one byte; unmapped addresses return `0xFF` and count a bus
    /// fault.
    pub fn read_byte(&mut self, addr: u16) -> u8 {
        if Self::is_sram(addr) {
            self.sram[(addr - SRAM_START) as usize]
        } else if Self::is_fram(addr) {
            self.fram[(addr - FRAM_START) as usize]
        } else {
            self.note_fault(addr);
            0xFF
        }
    }

    /// Writes one byte; unmapped addresses drop the write and count a bus
    /// fault.
    pub fn write_byte(&mut self, addr: u16, value: u8) {
        if Self::is_sram(addr) {
            self.sram[(addr - SRAM_START) as usize] = value;
            if let Some(bits) = self.dirty_sram.as_deref_mut() {
                let word = ((addr - SRAM_START) / 2) as usize;
                bits[word >> 6] |= 1u64 << (word & 63);
            }
            self.invalidate_decode(addr);
        } else if Self::is_fram(addr) {
            self.fram[(addr - FRAM_START) as usize] = value;
            self.invalidate_decode(addr);
        } else {
            self.note_fault(addr);
        }
    }

    /// Reads a little-endian word. The address wraps at the 64 KiB
    /// boundary, like the bus it models.
    pub fn read_word(&mut self, addr: u16) -> u16 {
        let lo = self.read_byte(addr) as u16;
        let hi = self.read_byte(addr.wrapping_add(1)) as u16;
        lo | (hi << 8)
    }

    /// Writes a little-endian word (wrapping at the 64 KiB boundary).
    pub fn write_word(&mut self, addr: u16, value: u16) {
        self.write_byte(addr, (value & 0xFF) as u8);
        self.write_byte(addr.wrapping_add(1), (value >> 8) as u8);
    }

    /// A non-faulting read for instrumentation (debugger memory views,
    /// ground-truth checks): unmapped space reads as `0xFF` without
    /// disturbing the fault counters.
    pub fn peek_byte(&self, addr: u16) -> u8 {
        if Self::is_sram(addr) {
            self.sram[(addr - SRAM_START) as usize]
        } else if Self::is_fram(addr) {
            self.fram[(addr - FRAM_START) as usize]
        } else {
            0xFF
        }
    }

    /// Non-faulting word read (see [`Memory::peek_byte`]).
    pub fn peek_word(&self, addr: u16) -> u16 {
        self.peek_byte(addr) as u16 | ((self.peek_byte(addr.wrapping_add(1)) as u16) << 8)
    }

    /// A non-faulting write for the debugger's `write` console command.
    /// Writes to unmapped space are dropped silently.
    pub fn poke_word(&mut self, addr: u16, value: u16) {
        let faults = self.bus_faults;
        let last = self.last_fault_addr;
        self.write_word(addr, value);
        self.bus_faults = faults;
        self.last_fault_addr = last;
    }

    /// Erases volatile state (a power cycle). FRAM is untouched.
    pub fn power_cycle(&mut self) {
        self.sram.fill(0);
        // The zero-fill rewrites every SRAM word; a tracker that survives
        // the cycle must see them all dirty (the restore path re-arms it
        // from the committed delta set anyway, this is the safe default).
        if let Some(bits) = self.dirty_sram.as_deref_mut() {
            bits.fill(u64::MAX);
        }
        // Any entry at `pc >= SRAM_START - 3` may have fetched an SRAM
        // byte; entries at `SRAM_END` and above cannot (FRAM starts well
        // past SRAM, so no instruction straddles back into it).
        let lo = SRAM_START - (MAX_INSTR_BYTES - 1);
        for slot in self.decode_cache.slots.iter_mut() {
            if (lo..SRAM_END).contains(&slot.tag) {
                slot.tag = DECODE_EMPTY;
            }
        }
    }

    /// The raw SRAM image (`SRAM_START ..`), for whole-memory oracles
    /// (differential fuzzing, snapshot diffing) that would otherwise
    /// peek byte by byte.
    pub fn sram(&self) -> &[u8] {
        &self.sram
    }

    /// The raw FRAM image (`FRAM_START ..`), see [`Memory::sram`].
    pub fn fram(&self) -> &[u8] {
        &self.fram
    }

    /// Parks this memory as a restore point's copy: its flat FRAM image
    /// gives way to [`FRAM_PAGE`]-byte pages, each shared with the same
    /// page of `prev` (an earlier parked copy) when their bytes are
    /// equal: between two restore points a program rewrites few of its
    /// 47 pages. A parked memory serializes exactly as it did flat, but
    /// its [`Memory::fram`] is empty and it does not run:
    /// [`Memory::unpark`] gives it its flat image back first. Parking a
    /// parked memory changes nothing.
    pub fn park(&mut self, prev: Option<&Memory>) {
        if self.is_parked() {
            return;
        }
        let prev = prev.map_or(&[][..], |m| &m.fram_pages.0[..]);
        let pages = self
            .fram
            .chunks(FRAM_PAGE)
            .enumerate()
            .map(|(i, page)| match prev.get(i) {
                Some(shared) if **shared == *page => Arc::clone(shared),
                _ => Arc::from(page),
            })
            .collect();
        self.fram_pages = FramPages(pages);
        self.fram = Vec::new();
    }

    /// Gives a parked memory its flat FRAM image back, the bytes it was
    /// parked with (its decode cache, parked along, stays valid). A
    /// no-op on memory that is not parked.
    pub fn unpark(&mut self) {
        if !self.is_parked() {
            return;
        }
        let mut image = Vec::with_capacity(self.fram_len());
        for page in std::mem::take(&mut self.fram_pages).0 {
            image.extend_from_slice(&page);
        }
        self.fram = image;
    }

    /// The FRAM pages of a parked memory in address order, to see which
    /// it shares; empty unless parked.
    pub fn fram_pages(&self) -> &[Arc<[u8]>] {
        &self.fram_pages.0
    }

    fn is_parked(&self) -> bool {
        !self.fram_pages.0.is_empty()
    }

    /// The FRAM image's length in bytes, parked or flat.
    fn fram_len(&self) -> usize {
        self.fram.len() + self.fram_pages.0.iter().map(|p| p.len()).sum::<usize>()
    }

    /// Number of accesses to unmapped space so far (sticky across power
    /// cycles — it is bench instrumentation, not target state).
    pub fn bus_faults(&self) -> u64 {
        self.bus_faults
    }

    /// The most recent faulting address, if any.
    pub fn last_fault_addr(&self) -> Option<u16> {
        self.last_fault_addr
    }

    /// Arms or disarms the DiCA-style dirty-word write probe. Arming
    /// starts from an all-clean set; disarming drops the bitset (and the
    /// branch in the store path with it).
    pub fn set_dirty_tracking(&mut self, enabled: bool) {
        self.dirty_sram = enabled.then(|| vec![0u64; DIRTY_LIMBS]);
    }

    /// Whether the dirty-word probe is armed.
    pub fn dirty_tracking(&self) -> bool {
        self.dirty_sram.is_some()
    }

    /// Word addresses (aligned, ascending) of every SRAM word written
    /// since the probe was armed or last reseeded. Empty when disarmed.
    pub fn dirty_word_addrs(&self) -> Vec<u16> {
        let Some(bits) = self.dirty_sram.as_deref() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (limb_idx, &limb) in bits.iter().enumerate() {
            let mut rest = limb;
            while rest != 0 {
                let bit = rest.trailing_zeros() as usize;
                out.push(SRAM_START + ((limb_idx * 64 + bit) as u16) * 2);
                rest &= rest - 1;
            }
        }
        out
    }

    /// Replaces the dirty set wholesale (no-op when disarmed). A
    /// differential strategy reseeds the cumulative dirty-since-base set
    /// after committing a delta or restoring one.
    pub fn seed_dirty_words(&mut self, addrs: &[u16]) {
        let Some(bits) = self.dirty_sram.as_deref_mut() else {
            return;
        };
        bits.fill(0);
        for &addr in addrs {
            if Self::is_sram(addr) {
                let word = ((addr - SRAM_START) / 2) as usize;
                bits[word >> 6] |= 1u64 << (word & 63);
            }
        }
    }

    fn note_fault(&mut self, addr: u16) {
        self.bus_faults += 1;
        self.last_fault_addr = Some(addr);
    }
}

impl Default for Memory {
    fn default() -> Self {
        Memory::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sram_and_fram_are_disjoint_and_sized() {
        assert!(!Memory::is_sram(FRAM_START));
        assert!(!Memory::is_fram(SRAM_START));
        assert!(Memory::is_mapped(0x1C00));
        assert!(Memory::is_mapped(0xFFFF));
        assert!(!Memory::is_mapped(0x0000));
        assert!(!Memory::is_mapped(0x3000));
    }

    #[test]
    fn word_access_is_little_endian() {
        let mut mem = Memory::new();
        mem.write_word(0x4400, 0xABCD);
        assert_eq!(mem.read_byte(0x4400), 0xCD);
        assert_eq!(mem.read_byte(0x4401), 0xAB);
    }

    #[test]
    fn unmapped_reads_pull_high_and_fault() {
        let mut mem = Memory::new();
        assert_eq!(mem.read_word(0x0000), 0xFFFF);
        assert_eq!(mem.bus_faults(), 2);
        assert_eq!(mem.last_fault_addr(), Some(0x0001));
    }

    #[test]
    fn unmapped_writes_are_dropped() {
        let mut mem = Memory::new();
        mem.write_word(0x0010, 0x1234);
        assert_eq!(mem.bus_faults(), 2);
        assert_eq!(mem.peek_word(0x0010), 0xFFFF);
    }

    #[test]
    fn power_cycle_clears_only_sram() {
        let mut mem = Memory::new();
        mem.write_word(0x1C10, 7);
        mem.write_word(0x5000, 9);
        mem.power_cycle();
        assert_eq!(mem.read_word(0x1C10), 0);
        assert_eq!(mem.read_word(0x5000), 9);
    }

    #[test]
    fn peek_and_poke_do_not_fault() {
        let mut mem = Memory::new();
        assert_eq!(mem.peek_word(0x0000), 0xFFFF);
        mem.poke_word(0x0000, 5);
        assert_eq!(mem.bus_faults(), 0);
    }

    #[test]
    fn vectors_live_in_fram() {
        assert!(Memory::is_fram(RESET_VECTOR));
        assert!(Memory::is_fram(IRQ_VECTOR));
        let mut mem = Memory::new();
        mem.write_word(RESET_VECTOR, 0x4400);
        mem.power_cycle();
        assert_eq!(mem.read_word(RESET_VECTOR), 0x4400);
    }

    #[test]
    fn decode_cache_hits_return_the_same_instruction() {
        let mut mem = Memory::new();
        let (w0, w1) = (Instr::Movi {
            rd: crate::isa::Reg::new(3),
            imm: 0xBEEF,
        })
        .encode();
        mem.write_word(0x4400, w0);
        mem.write_word(0x4402, w1.unwrap());
        let cold = mem.fetch_decoded(0x4400).unwrap();
        let warm = mem.fetch_decoded(0x4400).unwrap();
        assert_eq!(cold, warm);
        assert_eq!(cold.1, 2, "two-word instruction");
        assert_eq!(mem.bus_faults(), 0);
    }

    #[test]
    fn decode_cache_invalidates_on_writes_into_the_span() {
        let mut mem = Memory::new();
        let (nop, _) = Instr::Nop.encode();
        mem.write_word(0x4400, nop);
        assert_eq!(mem.fetch_decoded(0x4400).unwrap().0, Instr::Nop);
        // Overwrite the cached word: the next fetch must re-decode.
        let (halt, _) = Instr::Halt.encode();
        mem.write_word(0x4400, halt);
        assert_eq!(mem.fetch_decoded(0x4400).unwrap().0, Instr::Halt);
        // A write into the *second* word of a cached two-word instruction
        // also invalidates (the entry spans pc ..= pc + 3).
        let (w0, w1) = (Instr::Movi {
            rd: crate::isa::Reg::new(0),
            imm: 1,
        })
        .encode();
        mem.write_word(0x4400, w0);
        mem.write_word(0x4402, w1.unwrap());
        assert_eq!(mem.fetch_decoded(0x4400).unwrap().1, 2);
        mem.write_word(0x4402, 7);
        let (i, _, _) = mem.fetch_decoded(0x4400).unwrap();
        assert_eq!(
            i,
            Instr::Movi {
                rd: crate::isa::Reg::new(0),
                imm: 7
            },
            "patched immediate must be fetched, not the stale decode"
        );
    }

    #[test]
    fn decode_cache_invalidates_on_poke_and_power_cycle() {
        let mut mem = Memory::new();
        let (nop, _) = Instr::Nop.encode();
        // SRAM-resident code (checkpoint restores write here).
        mem.write_word(0x1C00, nop);
        assert_eq!(mem.fetch_decoded(0x1C00).unwrap().0, Instr::Nop);
        let (halt, _) = Instr::Halt.encode();
        mem.poke_word(0x1C00, halt);
        assert_eq!(
            mem.fetch_decoded(0x1C00).unwrap().0,
            Instr::Halt,
            "non-faulting pokes must invalidate like writes"
        );
        // A power cycle zeroes SRAM: the cached decode must not survive.
        mem.power_cycle();
        assert_eq!(mem.peek_word(0x1C00), 0);
        assert_eq!(
            mem.fetch_decoded(0x1C00).unwrap().0,
            Instr::Nop,
            "zeroed SRAM decodes as nop, not the stale halt"
        );
    }

    #[test]
    fn decode_cache_preserves_fault_accounting() {
        let mut mem = Memory::new();
        // Unmapped fetch: faults every time, cached never (reads 0xFFFF,
        // whose opcode nibble is reserved).
        for round in 1..=3u64 {
            assert_eq!(mem.fetch_decoded(0x0000), Err(0xFFFF));
            assert_eq!(mem.bus_faults(), 2 * round, "two byte faults per fetch");
        }
        // A fetch whose first word straddles mapped/unmapped space also
        // keeps faulting (the straddle byte is the unmapped one).
        let before = mem.bus_faults();
        let _ = mem.fetch_decoded(0x23FF);
        let _ = mem.fetch_decoded(0x23FF);
        assert_eq!(mem.bus_faults(), before + 2);
        // Illegal words are not cached and keep failing.
        mem.write_word(0x4400, 0xF000);
        assert_eq!(mem.fetch_decoded(0x4400), Err(0xF000));
        assert_eq!(mem.fetch_decoded(0x4400), Err(0xF000));
    }

    #[test]
    fn fetch_at_the_empty_sentinel_address_is_not_a_phantom_hit() {
        // pc == 0xFFFF equals the empty-slot tag; the lookup must still
        // take the uncached path (reading 0xFFFF + the unmapped 0x0000
        // byte) instead of serving the sentinel slot's nop. Found by
        // edb-fuzz: a patched jump target sent the cpu here and the
        // cached and cold configurations disagreed.
        let mut mem = Memory::new();
        let r = mem.fetch_decoded(0xFFFF);
        assert_eq!(mem.bus_faults(), 1, "the 0x0000 byte fault is counted");
        let mut cold = Memory::new();
        cold.set_decode_cache_enabled(false);
        assert_eq!(r, cold.fetch_decoded(0xFFFF), "cached == cold at 0xFFFF");
    }

    #[test]
    fn decode_cache_can_be_disabled_and_snapshots_stay_correct() {
        let filled = |m: &Memory| m.decode_cache.slots.iter().any(|s| s.tag != DECODE_EMPTY);
        let mut mem = Memory::new();
        let (nop, _) = Instr::Nop.encode();
        mem.write_word(0x4400, nop);
        mem.set_decode_cache_enabled(false);
        assert_eq!(mem.fetch_decoded(0x4400).unwrap().0, Instr::Nop);
        assert!(!filled(&mem), "disabled: never fills");
        mem.set_decode_cache_enabled(true);
        let _ = mem.fetch_decoded(0x4400);
        assert!(filled(&mem));
        // Clones carry the warm cache, and entries stay coherent with
        // the clone's own memory: a patch to the clone invalidates only
        // the clone, not the original.
        let mut snap = mem.clone();
        assert!(filled(&snap), "clones stay warm");
        let (halt, _) = Instr::Halt.encode();
        snap.write_word(0x4400, halt);
        assert_eq!(snap.fetch_decoded(0x4400).unwrap().0, Instr::Halt);
        assert_eq!(mem.fetch_decoded(0x4400).unwrap().0, Instr::Nop);
        // Serialized snapshots deserialize cold but fetch correctly.
        let value = mem.to_value();
        let mut back = Memory::from_value(&value).unwrap();
        assert!(!filled(&back), "deserialized: cold");
        assert_eq!(back.fetch_decoded(0x4400).unwrap().0, Instr::Nop);
    }

    #[test]
    fn decode_cache_conflicting_addresses_stay_correct() {
        // Two code addresses that map to the same direct-mapped slot
        // (indices are `(pc >> 1) mod N`): the cache must evict, never
        // serve one address's decode for the other.
        let a = 0x4400u16;
        let b = a + (DECODE_SLOTS as u16) * 2;
        assert_eq!(DecodeCache::index(a), DecodeCache::index(b));
        let mut mem = Memory::new();
        let (nop, _) = Instr::Nop.encode();
        let (halt, _) = Instr::Halt.encode();
        mem.write_word(a, nop);
        mem.write_word(b, halt);
        for _ in 0..3 {
            assert_eq!(mem.fetch_decoded(a).unwrap().0, Instr::Nop);
            assert_eq!(mem.fetch_decoded(b).unwrap().0, Instr::Halt);
        }
    }

    #[test]
    fn dirty_tracking_records_sram_word_writes() {
        let mut mem = Memory::new();
        assert!(!mem.dirty_tracking());
        mem.write_word(0x1C00, 1); // untracked: probe not armed yet
        mem.set_dirty_tracking(true);
        assert!(mem.dirty_word_addrs().is_empty());
        mem.write_word(0x1C10, 0xABCD); // one aligned word
        mem.write_byte(0x1C23, 9); // odd byte: its containing word
        mem.write_word(0x1C31, 0xFFFF); // unaligned word: spans two words
        mem.write_word(0x5000, 7); // FRAM: never tracked
        assert_eq!(mem.dirty_word_addrs(), vec![0x1C10, 0x1C22, 0x1C30, 0x1C32]);
        // Reseeding replaces the set (restore re-arms from the delta).
        mem.seed_dirty_words(&[0x1C40, 0x0002 /* not SRAM: dropped */]);
        assert_eq!(mem.dirty_word_addrs(), vec![0x1C40]);
        // A power cycle rewrites all of SRAM: everything is dirty.
        mem.power_cycle();
        assert_eq!(mem.dirty_word_addrs().len(), SRAM_WORDS);
        mem.set_dirty_tracking(false);
        assert!(mem.dirty_word_addrs().is_empty());
    }

    #[test]
    fn serialization_omits_the_dirty_field_when_disarmed() {
        let mut mem = Memory::new();
        mem.write_word(0x1C00, 0x1234);
        let clean = mem.to_value();
        let keys: Vec<&str> = clean
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str().unwrap())
            .collect();
        assert_eq!(
            keys,
            [
                "sram",
                "fram",
                "bus_faults",
                "last_fault_addr",
                "decode_cache"
            ],
            "disarmed snapshots must keep the pre-zoo field set"
        );
        // Armed snapshots carry the set and round-trip it.
        mem.set_dirty_tracking(true);
        mem.write_word(0x1C02, 5);
        let armed = mem.to_value();
        assert!(armed.get_field("dirty_sram").is_some());
        let back = Memory::from_value(&armed).unwrap();
        assert!(back.dirty_tracking());
        assert_eq!(back.dirty_word_addrs(), vec![0x1C02]);
        // And a disarmed snapshot reads back disarmed.
        let back = Memory::from_value(&clean).unwrap();
        assert!(!back.dirty_tracking());
    }

    #[test]
    fn parked_memory_shares_unchanged_pages_and_serializes_flat() {
        let mut mem = Memory::new();
        mem.write_word(0x4400, 0x1234);
        mem.write_word(0x1C00, 7);
        let _ = mem.fetch_decoded(0x4400);
        let mut first = mem.clone();
        first.park(None);
        assert_eq!(first.fram_pages().len(), FRAM_SIZE / FRAM_PAGE);
        assert!(mem.fram_pages().is_empty(), "live memory is flat");
        assert_eq!(first.to_value(), mem.to_value());
        assert_eq!(format!("{first:?}"), format!("{mem:?}"));

        // Rewrite one page: only that page stops being shared.
        mem.write_word(0x4400 + 5 * FRAM_PAGE as u16 + 2, 0xBEEF);
        let mut second = mem.clone();
        second.park(Some(&first));
        for (i, (a, b)) in first
            .fram_pages()
            .iter()
            .zip(second.fram_pages())
            .enumerate()
        {
            assert_eq!(Arc::ptr_eq(a, b), i != 5, "page {i}");
        }
        assert_eq!(second.to_value(), mem.to_value());
        // Parking twice keeps the pages.
        let pages = second.fram_pages().to_vec();
        second.park(None);
        assert!(second
            .fram_pages()
            .iter()
            .zip(&pages)
            .all(|(a, b)| Arc::ptr_eq(a, b)));

        // Unparked, it runs as the memory it was parked from.
        second.unpark();
        assert!(second.fram_pages().is_empty());
        assert_eq!(second.fram(), mem.fram());
        assert_eq!(second.read_word(0x4400), 0x1234);
        assert_eq!(second.to_value(), mem.to_value());
        let mut decoded = Memory::from_value(&first.to_value()).unwrap();
        assert!(decoded.fram_pages().is_empty(), "decoded memory is flat");
        assert_eq!(decoded.read_word(0x4400), 0x1234);
    }

    #[test]
    fn word_read_wraps_at_top_of_memory() {
        let mut mem = Memory::new();
        mem.write_byte(0xFFFF, 0x12);
        // Low byte from 0xFFFF, high byte wraps to 0x0000 (unmapped, 0xFF).
        assert_eq!(mem.read_word(0xFFFF), 0xFF12);
    }
}
